//! Stand-in for the `crossbeam::channel` surface the pregelix crates use:
//! MPMC `bounded`/`unbounded` channels and a receive-only `Select`, built on
//! `std::sync::{Mutex, Condvar}`.
//!
//! Every blocking operation parks on a condition variable and is woken by
//! the operation that unblocks it; there are no sleeps and no timed polls,
//! so a threaded benchmark run measures the program's own waiting and not
//! a polling interval of this file.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    /// The message could not be sent because every receiver is gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// The channel is empty and every sender is gone.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TryRecvError::Empty => "receiving on an empty channel",
                TryRecvError::Disconnected => "receiving on an empty and disconnected channel",
            })
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Wake-up flag of one blocked `Select`. Sticky: a `fire` that lands
    /// between the selector's scan and its wait is not lost.
    #[derive(Default)]
    struct Signal {
        fired: Mutex<bool>,
        cv: Condvar,
    }

    impl Signal {
        fn fire(&self) {
            *lock(&self.fired) = true;
            self.cv.notify_one();
        }

        fn wait_and_reset(&self) {
            let mut fired = lock(&self.fired);
            while !*fired {
                fired = self.cv.wait(fired).unwrap_or_else(PoisonError::into_inner);
            }
            *fired = false;
        }
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    struct State<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Selects currently blocked with this channel among their operands.
        /// Lock order is channel state, then signal; a selector never holds
        /// its signal while it takes a channel lock.
        watchers: Vec<Arc<Signal>>,
    }

    impl<T> State<T> {
        fn wake_watchers(&self) {
            for w in &self.watchers {
                w.fire();
            }
        }
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                watchers: Vec::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// A channel holding at most `cap` messages; `send` blocks while full.
    /// Rendezvous channels (`cap == 0`) are not part of the stand-in.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(
            cap > 0,
            "zero-capacity channels are not supported by the stand-in"
        );
        channel(Some(cap))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = lock(&self.shared.state);
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if st.cap.is_none_or(|c| st.queue.len() < c) {
                    st.queue.push_back(msg);
                    st.wake_watchers();
                    drop(st);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                st = self
                    .shared
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            lock(&self.shared.state).senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = lock(&self.shared.state);
            st.senders -= 1;
            if st.senders == 0 {
                st.wake_watchers();
                drop(st);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = lock(&self.shared.state);
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .shared
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = lock(&self.shared.state);
            match st.queue.pop_front() {
                Some(msg) => {
                    drop(st);
                    self.shared.not_full.notify_one();
                    Ok(msg)
                }
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            lock(&self.shared.state).receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = lock(&self.shared.state);
            st.receivers -= 1;
            if st.receivers == 0 {
                // Blocked senders must fail, and what was queued can never
                // be read: release it now, as the real crate does.
                let orphaned = std::mem::take(&mut st.queue);
                drop(st);
                self.shared.not_full.notify_all();
                drop(orphaned);
            }
        }
    }

    /// What `Select` needs from a receiver, without its message type.
    trait Watch {
        /// A `recv` would return at once: a message is queued or every
        /// sender is gone.
        fn ready(&self) -> bool;
        fn watch(&self, signal: &Arc<Signal>);
        fn unwatch(&self, signal: &Arc<Signal>);
    }

    impl<T> Watch for Receiver<T> {
        fn ready(&self) -> bool {
            let st = lock(&self.shared.state);
            !st.queue.is_empty() || st.senders == 0
        }

        fn watch(&self, signal: &Arc<Signal>) {
            lock(&self.shared.state).watchers.push(Arc::clone(signal));
        }

        fn unwatch(&self, signal: &Arc<Signal>) {
            lock(&self.shared.state)
                .watchers
                .retain(|w| !Arc::ptr_eq(w, signal));
        }
    }

    /// Rotates which operand a `Select` examines first, so one busy stream
    /// cannot starve the others (the real crate picks at random).
    static FIRST_OPERAND: AtomicUsize = AtomicUsize::new(0);

    /// Blocks until one of several receivers can be read.
    #[derive(Default)]
    pub struct Select<'a> {
        operands: Vec<&'a dyn Watch>,
    }

    impl<'a> Select<'a> {
        pub fn new() -> Select<'a> {
            Select {
                operands: Vec::new(),
            }
        }

        /// Adds a receive operation; returns its index.
        pub fn recv<T>(&mut self, r: &'a Receiver<T>) -> usize {
            self.operands.push(r);
            self.operands.len() - 1
        }

        fn first_ready(&self) -> Option<usize> {
            let n = self.operands.len();
            let start = FIRST_OPERAND.fetch_add(1, Ordering::Relaxed);
            (0..n)
                .map(|k| (start + k) % n)
                .find(|&i| self.operands[i].ready())
        }

        /// Blocks until an operand is ready and returns it. Complete the
        /// operation with [`SelectedOperation::recv`] on the same receiver.
        pub fn select(&mut self) -> SelectedOperation<'a> {
            assert!(!self.operands.is_empty(), "select with no operations");
            if let Some(index) = self.first_ready() {
                return SelectedOperation::new(index);
            }
            let signal = Arc::new(Signal::default());
            for op in &self.operands {
                op.watch(&signal);
            }
            // Registered before this scan, so a send that the scan misses
            // has already set the signal.
            let index = loop {
                if let Some(index) = self.first_ready() {
                    break index;
                }
                signal.wait_and_reset();
            };
            for op in &self.operands {
                op.unwatch(&signal);
            }
            SelectedOperation::new(index)
        }
    }

    pub struct SelectedOperation<'a> {
        index: usize,
        _operands: std::marker::PhantomData<&'a ()>,
    }

    impl SelectedOperation<'_> {
        fn new(index: usize) -> Self {
            SelectedOperation {
                index,
                _operands: std::marker::PhantomData,
            }
        }

        pub fn index(&self) -> usize {
            self.index
        }

        /// Completes the selected receive. If another consumer of a cloned
        /// receiver took the message first, this waits for the next one.
        pub fn recv<T>(self, r: &Receiver<T>) -> Result<T, RecvError> {
            match r.try_recv() {
                Ok(msg) => Ok(msg),
                Err(TryRecvError::Disconnected) => Err(RecvError),
                Err(TryRecvError::Empty) => r.recv(),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Barrier;

        #[test]
        fn fifo_and_disconnect() {
            let (tx, rx) = unbounded();
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let got: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn send_fails_once_receivers_are_gone() {
            let (tx, rx) = bounded::<Box<dyn FnOnce() + Send>>(1);
            drop(rx);
            let err = tx.send(Box::new(|| ())).unwrap_err();
            assert_eq!(format!("{err:?}"), "SendError(..)");
        }

        #[test]
        fn bounded_send_blocks_until_a_slot_frees() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let entered = Arc::new(Barrier::new(2));
            let entered2 = Arc::clone(&entered);
            let producer = std::thread::spawn(move || {
                entered2.wait();
                tx.send(2).unwrap(); // blocks: the channel is full
                tx.send(3).unwrap();
            });
            entered.wait();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
            producer.join().unwrap();
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn blocked_sender_fails_when_last_receiver_drops() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let producer = std::thread::spawn(move || tx.send(2).is_err());
            // Whether the producer blocks first or the drop lands first,
            // the send must fail rather than hang.
            drop(rx);
            assert!(producer.join().unwrap());
        }

        #[test]
        fn cloned_receivers_share_one_queue() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let workers: Vec<_> = [rx, rx2]
                .into_iter()
                .map(|r| std::thread::spawn(move || std::iter::from_fn(|| r.recv().ok()).count()))
                .collect();
            for i in 0..1000 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
            assert_eq!(total, 1000);
        }

        #[test]
        fn select_returns_ready_operand_without_blocking() {
            let (_tx_a, rx_a) = unbounded::<u8>();
            let (tx_b, rx_b) = unbounded::<u8>();
            tx_b.send(7).unwrap();
            let mut sel = Select::new();
            sel.recv(&rx_a);
            sel.recv(&rx_b);
            let op = sel.select();
            assert_eq!(op.index(), 1);
            assert_eq!(op.recv(&rx_b), Ok(7));
        }

        #[test]
        fn select_wakes_on_send_and_on_disconnect() {
            let (tx_a, rx_a) = unbounded::<u8>();
            let (tx_b, rx_b) = unbounded::<u8>();
            let consumer = std::thread::spawn(move || {
                let mut seen = Vec::new();
                let mut open = [true, true];
                while open.iter().any(|o| *o) {
                    let live: Vec<usize> = (0..2).filter(|&i| open[i]).collect();
                    let rxs = [&rx_a, &rx_b];
                    let mut sel = Select::new();
                    for &i in &live {
                        sel.recv(rxs[i]);
                    }
                    let op = sel.select();
                    let chosen = live[op.index()];
                    match op.recv(rxs[chosen]) {
                        Ok(v) => seen.push(v),
                        Err(RecvError) => open[chosen] = false,
                    }
                }
                seen.sort_unstable();
                seen
            });
            tx_b.send(2).unwrap();
            tx_a.send(1).unwrap();
            drop(tx_a);
            tx_b.send(3).unwrap();
            drop(tx_b);
            assert_eq!(consumer.join().unwrap(), vec![1, 2, 3]);
        }
    }
}
