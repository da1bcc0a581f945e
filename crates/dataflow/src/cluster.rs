//! The simulated shared-nothing cluster.
//!
//! A [`Cluster`] stands in for the paper's 32-node IBM x3650 testbed. Each
//! worker "machine" owns a local-disk directory, a buffer cache sized from
//! its simulated RAM (¼ of RAM, the paper's default for access methods,
//! §7.1), and a failure flag for fault-injection experiments. A
//! *job* is a set of per-partition tasks; [`Cluster::execute`] spawns each
//! task as a thread pinned to its assigned worker and joins them all,
//! propagating the most meaningful error (application errors over OOM over
//! worker failures over plumbing errors).
//!
//! Workers *heartbeat*: every liveness check a task performs bumps its
//! worker's beat counter, and the [`FailureDetector`] compares beat counts
//! across observation points (superstep barriers — progress granularity,
//! never wall-clock timers). A worker whose beats stall is *slow*; one that
//! stays stalled for `MISSED_BEAT_THRESHOLD` (3) consecutive observations — or
//! whose failure flag is set — is *declared dead*, blacklisted from
//! scheduling, and counted in `workers_declared_dead` (§5.5: the failure
//! manager re-plans sticky partitions onto survivors).
//!
//! The substitution is documented in DESIGN.md: the phenomena the paper
//! measures are driven by the *ratio* of data to aggregate RAM and by the
//! memory/disk data paths, both of which this scaled-down cluster preserves.

use pregelix_common::bytes::BytesSlab;
use pregelix_common::dfs::SimDfs;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::stats::ClusterCounters;
use pregelix_storage::cache::BufferCache;
use pregelix_storage::file::{FileManager, TempDir};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Fraction of worker RAM given to the buffer cache (the paper's default
/// for access methods, §7.1).
pub(crate) const CACHE_FRACTION: f64 = 0.25;

/// Fraction of worker RAM given to each group-by/sort operator instance.
pub(crate) const GROUPBY_FRACTION: f64 = 0.125;

/// Consecutive missed-beat observations before the [`FailureDetector`]
/// declares a worker dead. Measured in observation points (superstep
/// barriers), never in wall-clock time.
pub(crate) const MISSED_BEAT_THRESHOLD: u32 = 3;

/// Sizing knobs for a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker machines.
    pub workers: usize,
    /// Simulated RAM per worker, in bytes.
    pub worker_ram: usize,
    /// Disk page size for access methods.
    pub page_size: usize,
    /// Frame capacity for connector channels.
    pub frame_bytes: usize,
    /// Root directory for worker-local storage; `None` = fresh temp dir.
    pub root: Option<PathBuf>,
    /// Sequential-timed simulation mode: tasks run one at a time on the
    /// calling thread, each task's wall time is charged to its worker, and
    /// [`Cluster::execute`] reports the *makespan* (the busiest worker's
    /// total) — the job's duration on a cluster of truly parallel
    /// machines. This is how the scalability experiments measure N-worker
    /// behaviour on a host with fewer physical cores (see DESIGN.md).
    /// Connector channels are unbounded in this mode (no backpressure
    /// without concurrency). A batch stops at its first failed task, in
    /// task order: running the rest would move every later task's fault
    /// events, so a fault plan would fire at other points than on threads.
    pub sequential_timed: bool,
}

impl ClusterConfig {
    /// A cluster of `workers` machines with `worker_ram` bytes of simulated
    /// RAM each.
    pub fn new(workers: usize, worker_ram: usize) -> Self {
        ClusterConfig {
            workers,
            worker_ram,
            page_size: 4096,
            frame_bytes: 16 * 1024,
            root: None,
            sequential_timed: false,
        }
    }

    /// Switch on sequential-timed simulation (see the field docs, and why a
    /// batch stops at its first failure there).
    pub fn sequential_timed(mut self) -> Self {
        self.sequential_timed = true;
        self
    }

    /// Aggregate simulated RAM across the cluster (the denominator of the
    /// x-axis in Figures 10–15).
    pub fn aggregate_ram(&self) -> usize {
        self.workers * self.worker_ram
    }
}

/// One simulated worker machine.
pub struct WorkerNode {
    id: usize,
    fm: FileManager,
    cache: BufferCache,
    failed: AtomicBool,
    /// Heartbeat counter: bumped by every successful liveness check. The
    /// failure detector reads it at observation points; a live worker
    /// executing tasks always advances it, a powered-off one never does.
    beats: AtomicU64,
    groupby_budget: usize,
    frame_bytes: usize,
    /// Cluster-shared frame slab (every worker holds the same pool).
    slab: BytesSlab,
    pool: WorkerPool,
}

/// A grow-on-demand pool of long-lived task threads. Spawning an OS thread
/// costs hundreds of microseconds on some kernels; with three-plus tasks
/// per worker per superstep that fixed cost would dominate short
/// supersteps, so threads are parked and reused across jobs. Tasks may
/// block on connector channels, so the pool must never cap concurrency —
/// it spawns a new thread whenever no idle one is available.
///
/// Placement is positional: the `i`-th task a batch submits to this worker
/// runs on the pool's `i`-th thread whenever that thread is idle. A
/// superstep submits its tasks in one order every time, so `compute[p]`
/// meets the same thread superstep after superstep, and what it allocates —
/// fold tables, sort arenas, frames — comes out of the allocator arena that
/// thread already grew for it. Handing any task to any idle thread lets the
/// big allocations wander across per-thread arenas that each keep their
/// high-water mark, and the process's resident size with them.
struct WorkerPool {
    /// In spawn order, each with a job queue of its own.
    threads: std::sync::Mutex<Vec<PoolThread>>,
}

struct PoolThread {
    jobs: std::sync::mpsc::Sender<PoolJob>,
    /// Set by the thread when its task has returned, cleared by the
    /// `submit` that reserves it. The thread's `Release` store pairs with
    /// the reserving `Acquire` exchange.
    idle: Arc<AtomicBool>,
}

/// A task body, and where its result is reported.
type PoolJob = (
    Box<dyn FnOnce() -> Result<()> + Send>,
    crossbeam::channel::Sender<Result<()>>,
);

impl WorkerPool {
    fn new() -> WorkerPool {
        WorkerPool {
            threads: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Hand `job` to thread `position` if it is idle, else to any idle
    /// thread, else to a new one.
    ///
    /// Reserving flips the thread's own `idle` flag, which only that thread
    /// sets, and only between two tasks: a reserved thread is on its way
    /// back to its queue, and the job goes into that queue and no other. So
    /// a job can never sit behind a thread that is parked inside a task
    /// blocked on a connector channel — a deadlock when the queued job is
    /// the one that would feed that channel.
    fn submit(&self, position: usize, job: PoolJob) {
        let mut threads = self.threads.lock().unwrap_or_else(|p| p.into_inner());
        let reserve = |t: &PoolThread| {
            t.idle
                .compare_exchange(true, false, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        };
        let preferred = threads.get(position).is_some_and(reserve);
        let at = if preferred {
            position
        } else if let Some(any) = threads.iter().position(reserve) {
            any
        } else {
            let (jobs, queue) = std::sync::mpsc::channel::<PoolJob>();
            let idle = Arc::new(AtomicBool::new(false));
            let idle_flag = Arc::clone(&idle);
            // Detached: the thread ends when the pool, and with it the
            // queue's sender, is dropped.
            std::thread::spawn(move || {
                for (task, done) in queue {
                    let result = task();
                    // Idle before the result is out: once `execute` has
                    // every result of a batch, every thread of the batch
                    // can be reserved again, and the next batch's task `i`
                    // finds thread `i` free instead of drifting to another.
                    idle_flag.store(true, Ordering::Release);
                    let _ = done.send(result);
                }
            });
            threads.push(PoolThread { jobs, idle });
            threads.len() - 1
        };
        threads[at]
            .jobs
            .send(job)
            .expect("a pool thread lives as long as its queue's sender");
    }
}

/// Shared handle to a worker, passed to every task pinned there.
#[derive(Clone)]
pub struct WorkerHandle {
    node: Arc<WorkerNode>,
}

impl WorkerHandle {
    /// This worker's machine id.
    pub fn id(&self) -> usize {
        self.node.id
    }

    /// The worker's buffer cache (access-method RAM).
    pub fn cache(&self) -> &BufferCache {
        &self.node.cache
    }

    /// The worker's local-disk file manager.
    pub fn file_manager(&self) -> &FileManager {
        &self.node.fm
    }

    /// Shared cluster counters.
    pub fn counters(&self) -> &ClusterCounters {
        self.node.fm.counters()
    }

    /// The per-operator-instance sort/group-by memory budget in bytes.
    pub fn groupby_budget(&self) -> usize {
        self.node.groupby_budget
    }

    /// Frame capacity for connector traffic from this worker.
    pub fn frame_bytes(&self) -> usize {
        self.node.frame_bytes
    }

    /// The cluster's shared frame slab: the allocation source every
    /// connector frame freezes into. Cloning is a refcount.
    pub fn slab(&self) -> &BytesSlab {
        &self.node.slab
    }

    /// Fails with [`PregelixError::WorkerDead`] if this machine has been
    /// powered off by failure injection or blacklisted by the failure
    /// detector. Tasks call this at frame boundaries so a failure surfaces
    /// promptly; every successful check doubles as a heartbeat.
    pub fn check_alive(&self) -> Result<()> {
        if self.node.failed.load(Ordering::Relaxed) {
            Err(PregelixError::WorkerDead { id: self.node.id })
        } else {
            self.node.beats.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    /// This worker's heartbeat count (monotone while alive).
    pub fn beats(&self) -> u64 {
        self.node.beats.load(Ordering::Relaxed)
    }
}

/// One schedulable unit: a named closure pinned to a worker.
pub struct Task {
    /// Diagnostic name, e.g. `"join-compute[3]"`.
    pub name: String,
    /// Worker machine to run on.
    pub worker: usize,
    /// The task body.
    pub run: Box<dyn FnOnce(WorkerHandle) -> Result<()> + Send>,
}

impl Task {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        worker: usize,
        run: impl FnOnce(WorkerHandle) -> Result<()> + Send + 'static,
    ) -> Task {
        Task {
            name: name.into(),
            worker,
            run: Box::new(run),
        }
    }
}

/// The simulated cluster.
pub struct Cluster {
    config: ClusterConfig,
    workers: Vec<Arc<WorkerNode>>,
    counters: ClusterCounters,
    dfs: SimDfs,
    slab: BytesSlab,
    _tempdir: Option<TempDir>,
}

impl Cluster {
    /// Materialise a cluster: one storage directory and buffer cache per
    /// worker.
    pub fn new(config: ClusterConfig) -> Result<Cluster> {
        if config.workers == 0 {
            return Err(PregelixError::plan("cluster needs at least one worker"));
        }
        let (root, tempdir) = match &config.root {
            Some(r) => (r.clone(), None),
            None => {
                let t = TempDir::new("cluster")?;
                (t.path().to_path_buf(), Some(t))
            }
        };
        let counters = ClusterCounters::new();
        let dfs = SimDfs::open_counted(root.join("dfs"), counters.clone())?;
        // Shared frame slab. Chunks must fit the wire form of a full frame:
        // `frame_bytes` of tuple data plus the offset table, which for
        // vid-keyed tuples (>= 8 data bytes each) is at most half the data
        // size — so 1.5x + header keeps every ordinary freeze on the pooled
        // (recyclable) path. Oversized frames fall back to exact one-shot
        // allocations inside the slab.
        let slab = BytesSlab::with_counters(config.frame_bytes * 3 / 2 + 8, counters.clone());
        let mut workers = Vec::with_capacity(config.workers);
        for id in 0..config.workers {
            let fm = FileManager::new(
                root.join(format!("worker-{id}")),
                config.page_size,
                counters.clone(),
            )?;
            let cache_bytes = (config.worker_ram as f64 * CACHE_FRACTION) as usize;
            let cache = BufferCache::with_byte_budget(fm.clone(), cache_bytes);
            workers.push(Arc::new(WorkerNode {
                id,
                fm,
                cache,
                failed: AtomicBool::new(false),
                beats: AtomicU64::new(0),
                groupby_budget: (config.worker_ram as f64 * GROUPBY_FRACTION) as usize,
                frame_bytes: config.frame_bytes,
                slab: slab.clone(),
                pool: WorkerPool::new(),
            }));
        }
        Ok(Cluster {
            config,
            workers,
            counters,
            dfs,
            slab,
            _tempdir: tempdir,
        })
    }

    /// The configuration this cluster was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of worker machines (alive or failed).
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Shared cluster counters.
    pub fn counters(&self) -> &ClusterCounters {
        &self.counters
    }

    /// The simulated DFS shared by all workers.
    pub fn dfs(&self) -> &SimDfs {
        &self.dfs
    }

    /// The cluster-wide frame slab. The superstep driver calls
    /// [`BytesSlab::harvest`] on it at superstep commits — the single-threaded
    /// point where returned chunks are restocked (and `slab_recycled`
    /// counted), keeping pool-hit accounting independent of task
    /// interleaving.
    pub fn slab(&self) -> &BytesSlab {
        &self.slab
    }

    /// Bounded-channel capacity for connectors, in frames per sender
    /// (`None` = unbounded, used by sequential-timed mode where
    /// backpressure would deadlock).
    pub fn channel_capacity(&self) -> Option<usize> {
        if self.config.sequential_timed {
            None
        } else {
            Some(crate::connector::CHANNEL_FRAMES)
        }
    }

    /// Handle to worker `id`.
    pub fn worker(&self, id: usize) -> WorkerHandle {
        WorkerHandle {
            node: Arc::clone(&self.workers[id]),
        }
    }

    /// Power off a worker (failure injection) or blacklist it (failure
    /// detection). Running and future tasks on it fail with
    /// [`PregelixError::WorkerDead`] at their next liveness check.
    pub fn fail_worker(&self, id: usize) {
        self.workers[id].failed.store(true, Ordering::Relaxed);
    }

    /// Ids of workers not currently failed (the failure manager's
    /// "blacklist" complement, §5.5).
    pub fn alive_workers(&self) -> Vec<usize> {
        self.workers
            .iter()
            .filter(|w| !w.failed.load(Ordering::Relaxed))
            .map(|w| w.id)
            .collect()
    }

    /// Run a job and return its duration: wall-clock in parallel mode, the
    /// per-worker-busy-time *makespan* in sequential-timed mode.
    ///
    /// Every task runs under the submitting thread's per-job counter scope
    /// (`pregelix_common::stats::current_job_scope`), so jobs submitted
    /// from different threads count their own work.
    ///
    /// Error priority: application ([`PregelixError::User`]) errors first —
    /// they must never be masked by the secondary plumbing errors they
    /// cause — then [`PregelixError::OutOfMemory`], then recoverable
    /// infrastructure failures, then anything else, anonymous
    /// ([`PregelixError::Internal`]) errors last. Sequential-timed, the
    /// first failure in task order is the error. In both modes a panic is
    /// contained as an anonymous error, and an anonymous error names its
    /// task.
    pub fn execute(&self, tasks: Vec<Task>) -> Result<std::time::Duration> {
        for t in &tasks {
            if t.worker >= self.workers.len() {
                return Err(PregelixError::plan(format!(
                    "task {} scheduled on nonexistent worker {}",
                    t.name, t.worker
                )));
            }
        }
        if self.config.sequential_timed {
            return self.execute_sequential(tasks);
        }
        let started = std::time::Instant::now();
        let scope = pregelix_common::stats::current_job_scope();
        let mut errors: Vec<PregelixError> = Vec::new();
        let mut pending = Vec::with_capacity(tasks.len());
        // How many tasks of this batch each worker has been handed so far:
        // the next one's position in its pool.
        let mut submitted = vec![0usize; self.workers.len()];
        for task in tasks {
            let handle = self.worker(task.worker);
            let name = task.name;
            let body = task.run;
            let scope = scope.clone();
            let (done_tx, done_rx) = crossbeam::channel::bounded::<Result<()>>(1);
            let position = submitted[task.worker];
            submitted[task.worker] += 1;
            let run = move || {
                let _scope_guard = scope.as_ref().map(pregelix_common::stats::enter_job_scope);
                run_task(handle, body)
            };
            self.workers[task.worker]
                .pool
                .submit(position, (Box::new(run), done_tx));
            pending.push((name, done_rx));
        }
        for (name, done_rx) in pending {
            match done_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errors.push(named(&name, e)),
                Err(_) => errors.push(named(
                    &name,
                    PregelixError::internal("vanished without reporting"),
                )),
            }
        }
        if errors.is_empty() {
            return Ok(started.elapsed());
        }
        let rank = |e: &PregelixError| match e {
            PregelixError::User(_) => 0,
            PregelixError::OutOfMemory { .. } => 1,
            PregelixError::WorkerDead { .. } => 2,
            PregelixError::Io(_) => 3,
            // Last: what a failed task's peers see, not the failure itself.
            PregelixError::Internal(_) => 5,
            _ => 4,
        };
        errors.sort_by_key(rank);
        Err(errors.remove(0))
    }

    /// Sequential-timed execution: tasks run in submission order on the
    /// calling thread; each task's wall time accrues to its worker; the
    /// returned duration is `max` over workers — what a truly parallel
    /// cluster would take. Requires the task list to be topologically
    /// ordered (producers before consumers), which the job-graph executor
    /// guarantees by emitting senders first. Running on the submitting
    /// thread, the tasks are under its job scope already. The first failure
    /// ends the batch (see [`ClusterConfig::sequential_timed`]).
    fn execute_sequential(&self, tasks: Vec<Task>) -> Result<std::time::Duration> {
        let mut per_worker = vec![std::time::Duration::ZERO; self.workers.len()];
        for task in tasks {
            let t0 = std::time::Instant::now();
            let result = run_task(self.worker(task.worker), task.run);
            per_worker[task.worker] += t0.elapsed();
            result.map_err(|e| named(&task.name, e))?;
        }
        Ok(per_worker.into_iter().max().unwrap_or_default())
    }
}

/// One task body on its worker, in either mode: a liveness check first,
/// and a panic contained as an [`PregelixError::Internal`] error.
fn run_task(
    handle: WorkerHandle,
    body: Box<dyn FnOnce(WorkerHandle) -> Result<()> + Send>,
) -> Result<()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        handle.check_alive()?;
        body(handle)
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        Err(PregelixError::internal(format!("task panicked: {msg}")))
    })
}

/// Name the failed task in an anonymous ([`PregelixError::Internal`])
/// error; typed errors stay intact.
fn named(task: &str, err: PregelixError) -> PregelixError {
    match err {
        PregelixError::Internal(m) => PregelixError::Internal(format!("task {task}: {m}")),
        e => e,
    }
}

/// Missed-beat failure detector (§5.5).
///
/// Observed at *progress* granularity — the driver calls
/// [`FailureDetector::observe`] at superstep barriers and frame-batch
/// drains, passing the set of workers that were expected to make progress.
/// A worker whose beat counter did not advance across an observation missed
/// a beat; `MISSED_BEAT_THRESHOLD` (3) consecutive misses (or a tripped failure
/// flag — powered-off machines never beat again) means *dead*: the worker
/// is blacklisted via [`Cluster::fail_worker`] and counted in
/// `workers_declared_dead`. Fewer misses make a worker slow, not dead: it
/// is not evicted, since transient stalls recover on their own and
/// evicting them would turn every hiccup into a re-plan. No wall-clock
/// timers anywhere, so chaos schedules replay deterministically.
pub struct FailureDetector {
    /// Beat count seen for each worker at the previous observation.
    seen: Vec<u64>,
    /// Consecutive observations without progress, per worker.
    misses: Vec<u32>,
    /// Workers already declared dead (never resurrected by the detector).
    dead: Vec<bool>,
}

impl FailureDetector {
    /// A detector for `cluster`, seeded with current beat counts.
    pub fn new(cluster: &Cluster) -> FailureDetector {
        FailureDetector {
            seen: cluster
                .workers
                .iter()
                .map(|w| w.beats.load(Ordering::Relaxed))
                .collect(),
            misses: vec![0; cluster.workers.len()],
            dead: vec![false; cluster.workers.len()],
        }
    }

    /// One observation point. `expected` lists workers that had tasks
    /// assigned since the previous observation (silence from an idle worker
    /// is not evidence of death). Newly dead workers are blacklisted on
    /// `cluster` and returned; the caller re-plans sticky partitions onto
    /// the survivors before falling back to checkpoint recovery.
    pub fn observe(&mut self, cluster: &Cluster, expected: &[usize]) -> Vec<usize> {
        let mut newly_dead = Vec::new();
        for &id in expected {
            if self.dead[id] {
                continue;
            }
            let beats = cluster.workers[id].beats.load(Ordering::Relaxed);
            let failed = cluster.workers[id].failed.load(Ordering::Relaxed);
            if beats != self.seen[id] && !failed {
                self.seen[id] = beats;
                self.misses[id] = 0;
                continue;
            }
            self.misses[id] += 1;
            // A tripped failure flag plus one missed beat is conclusive —
            // the machine is off, waiting out the threshold only delays
            // recovery. Without the flag, silence must persist.
            if failed || self.misses[id] >= MISSED_BEAT_THRESHOLD {
                self.dead[id] = true;
                cluster.fail_worker(id);
                cluster.counters.add_workers_declared_dead(1);
                newly_dead.push(id);
            }
        }
        newly_dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cluster {
        Cluster::new(ClusterConfig::new(4, 1 << 20)).unwrap()
    }

    #[test]
    fn workers_have_isolated_storage() {
        let c = small();
        // File-id namespaces are per worker: each machine's first file is id
        // 0, backed by a different directory (its own "local disks").
        let f0 = c.worker(0).file_manager().create().unwrap();
        c.worker(0).file_manager().allocate_page(f0).unwrap();
        // Worker 1 has no file yet; looking up worker 0's id there fails.
        assert!(c.worker(1).file_manager().page_count(f0).is_err());
        assert_ne!(
            c.worker(0).file_manager().root(),
            c.worker(1).file_manager().root()
        );
    }

    #[test]
    fn execute_runs_tasks_on_assigned_workers() {
        let c = small();
        let (tx, rx) = crossbeam::channel::unbounded();
        let mut tasks = Vec::new();
        for p in 0..4 {
            let tx = tx.clone();
            tasks.push(Task::new(format!("t{p}"), p, move |w| {
                tx.send(w.id()).unwrap();
                Ok(())
            }));
        }
        drop(tx);
        c.execute(tasks).unwrap();
        let mut ids: Vec<usize> = std::iter::from_fn(|| rx.recv().ok()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    /// One worker, one batch, and every task but the last parks on a channel
    /// fed by the task submitted after it — what a superstep's tasks do to
    /// each other through their connectors. The batch finishes only if each
    /// task is handed a thread of its own; a pool that queues one behind a
    /// parked thread never runs the task the others wait for.
    #[test]
    fn every_task_of_a_batch_gets_a_thread_while_all_park_on_their_successor() {
        const WARM: usize = 8;
        const TASKS: usize = 2 * WARM;
        // A submit that merely *reads* the idle count sees a free thread for
        // task WARM + 1 unless every warm thread has already woken, which
        // they do now and then: a fresh pool per round, and enough rounds
        // that such a pool cannot get through them all. A pool that reserves
        // a thread per task passes every round by construction.
        for round in 0..200 {
            let c = Arc::new(Cluster::new(ClusterConfig::new(1, 1 << 20)).unwrap());
            // Leave WARM idle threads behind (the barrier makes them WARM
            // distinct ones) for the batch's first WARM tasks.
            let together = Arc::new(std::sync::Barrier::new(WARM));
            let warm = (0..WARM).map(|i| {
                let together = Arc::clone(&together);
                Task::new(format!("warm{i}"), 0, move |_| {
                    together.wait();
                    Ok(())
                })
            });
            c.execute(warm.collect()).unwrap();
            let mut tasks = Vec::new();
            let mut from_successor: Option<std::sync::mpsc::Receiver<()>> = None;
            for i in (0..TASKS).rev() {
                let (to_predecessor, next) = std::sync::mpsc::channel();
                let wait_on = from_successor.replace(next);
                tasks.push(Task::new(format!("link{i}"), 0, move |_| {
                    if let Some(rx) = wait_on {
                        rx.recv()
                            .map_err(|_| PregelixError::internal("successor never ran"))?;
                    }
                    // Task 0 has no predecessor: its send finds no receiver.
                    let _ = to_predecessor.send(());
                    Ok(())
                }));
            }
            drop(from_successor);
            tasks.reverse();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let runner = std::thread::spawn(move || {
                let _ = done_tx.send(c.execute(tasks).map(|_| ()));
            });
            // The wait is only how a deadlocked pool fails the test instead
            // of hanging it; the parking is forced by the channels above.
            done_rx
                .recv_timeout(std::time::Duration::from_secs(20))
                .unwrap_or_else(|_| {
                    panic!("round {round}: a task sat queued behind parked threads")
                })
                .unwrap();
            runner.join().unwrap();
        }
    }

    /// A batch's `i`-th task on a worker runs on that worker's `i`-th pool
    /// thread, batch after batch: four tasks that all park until the fourth
    /// has started (so each needs a thread of its own), released, fifty
    /// times over. Every position meets one thread throughout, and the pool
    /// stays at four. A thread that reported its result before it was marked
    /// idle would now and then still look busy to the next batch, whose task
    /// would drift to another thread or a fifth.
    #[test]
    fn a_batch_position_keeps_its_thread_from_batch_to_batch() {
        const TASKS: usize = 4;
        let c = Cluster::new(ClusterConfig::new(2, 1 << 20)).unwrap();
        let seen: Arc<std::sync::Mutex<Vec<Vec<std::thread::ThreadId>>>> =
            Arc::new(std::sync::Mutex::new(vec![Vec::new(); TASKS]));
        for batch in 0..50 {
            let together = Arc::new(std::sync::Barrier::new(TASKS));
            let mut tasks = Vec::new();
            for i in 0..TASKS {
                let (together, seen) = (Arc::clone(&together), Arc::clone(&seen));
                tasks.push(Task::new(format!("b{batch}t{i}"), 0, move |_| {
                    together.wait();
                    seen.lock().unwrap()[i].push(std::thread::current().id());
                    Ok(())
                }));
                // Worker 1's tasks count their own positions, not worker 0's.
                tasks.push(Task::new(format!("b{batch}o{i}"), 1, |_| Ok(())));
            }
            c.execute(tasks).unwrap();
        }
        let seen = seen.lock().unwrap();
        for (i, threads) in seen.iter().enumerate() {
            assert_eq!(threads.len(), 50);
            assert!(
                threads.iter().all(|t| *t == threads[0]),
                "position {i} moved between threads: {threads:?}"
            );
        }
        let distinct: std::collections::HashSet<_> = seen.iter().map(|t| t[0]).collect();
        assert_eq!(distinct.len(), TASKS);
        assert_eq!(c.workers[0].pool.threads.lock().unwrap().len(), TASKS);
    }

    #[test]
    fn failed_worker_rejects_tasks() {
        let c = small();
        c.fail_worker(2);
        assert_eq!(c.alive_workers(), vec![0, 1, 3]);
        let err = c.execute(vec![Task::new("x", 2, |_| Ok(()))]).unwrap_err();
        assert!(matches!(err, PregelixError::WorkerDead { id: 2 }), "{err}");
    }

    /// Two threads, each in its own job scope, run batches on one cluster at
    /// once: every task counts into its submitter's scope, never the other's.
    #[test]
    fn tasks_count_into_the_job_scope_of_the_thread_that_submitted_them() {
        let threaded = ClusterConfig::new(4, 1 << 20);
        for config in [threaded.clone(), threaded.sequential_timed()] {
            let c = Cluster::new(config).unwrap();
            let together = std::sync::Barrier::new(2);
            let per_job: Vec<u64> = std::thread::scope(|s| {
                let jobs: Vec<_> = [1u64, 2]
                    .into_iter()
                    .map(|bump| {
                        let (c, together) = (&c, &together);
                        s.spawn(move || {
                            let scope = ClusterCounters::new();
                            let _guard = pregelix_common::stats::enter_job_scope(&scope);
                            together.wait();
                            for batch in 0..20 {
                                let tasks = (0..4)
                                    .map(|w| {
                                        let counters = c.counters().clone();
                                        Task::new(format!("b{batch}w{w}"), w, move |_| {
                                            counters.add_compute_calls(bump);
                                            Ok(())
                                        })
                                    })
                                    .collect();
                                c.execute(tasks).unwrap();
                            }
                            scope.compute_calls()
                        })
                    })
                    .collect();
                jobs.into_iter().map(|j| j.join().unwrap()).collect()
            });
            assert_eq!(per_job, [80, 160]);
            assert_eq!(c.counters().compute_calls(), 240);
        }
    }

    #[test]
    fn error_priority_user_over_infrastructure() {
        let c = small();
        let tasks = vec![
            Task::new("infra", 0, |_| Err(PregelixError::WorkerDead { id: 0 })),
            Task::new("app", 1, |_| Err(PregelixError::user("bad UDF"))),
        ];
        let err = c.execute(tasks).unwrap_err();
        assert!(matches!(err, PregelixError::User(_)), "{err}");
    }

    /// A panicking task fails its batch with an anonymous error that names
    /// it, threaded and sequential-timed alike; the panic never reaches the
    /// caller.
    #[test]
    fn panics_are_contained() {
        let threaded = ClusterConfig::new(4, 1 << 20);
        for config in [threaded.clone(), threaded.sequential_timed()] {
            let c = Cluster::new(config).unwrap();
            let err = c
                .execute(vec![
                    Task::new("boom", 0, |_| panic!("kaboom")),
                    Task::new("fine", 1, |_| Ok(())),
                ])
                .unwrap_err();
            assert!(matches!(err, PregelixError::Internal(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains("task boom: task panicked: kaboom"), "{msg}");
        }
    }

    #[test]
    fn scheduling_on_missing_worker_rejected() {
        let c = small();
        let err = c.execute(vec![Task::new("x", 99, |_| Ok(()))]).unwrap_err();
        assert!(matches!(err, PregelixError::Plan(_)));
    }

    #[test]
    fn config_aggregate_ram() {
        let cfg = ClusterConfig::new(8, 1 << 20);
        assert_eq!(cfg.aggregate_ram(), 8 << 20);
    }

    #[test]
    fn sequential_timed_mode_reports_makespan() {
        let c = Cluster::new(ClusterConfig::new(3, 1 << 20).sequential_timed()).unwrap();
        // Three tasks with distinct busy times on distinct workers: the
        // reported duration is the busiest worker's, not the sum.
        let tasks = (0..3)
            .map(|w| {
                Task::new(format!("spin{w}"), w, move |_| {
                    let t = std::time::Instant::now();
                    while t.elapsed() < std::time::Duration::from_millis(5 * (w as u64 + 1)) {
                        std::hint::spin_loop();
                    }
                    Ok(())
                })
            })
            .collect();
        let d = c.execute(tasks).unwrap();
        assert!(d >= std::time::Duration::from_millis(15), "{d:?}");
        assert!(
            d < std::time::Duration::from_millis(30),
            "sum would be 30ms: {d:?}"
        );
    }

    #[test]
    fn sequential_timed_mode_uses_unbounded_channels() {
        let c = Cluster::new(ClusterConfig::new(2, 1 << 20).sequential_timed()).unwrap();
        assert_eq!(c.channel_capacity(), None);
        let c = Cluster::new(ClusterConfig::new(2, 1 << 20)).unwrap();
        assert!(c.channel_capacity().is_some());
    }

    #[test]
    fn sequential_mode_runs_producer_consumer_in_order() {
        // A producer fills an unbounded channel completely before the
        // consumer task runs — the phase-major ordering contract.
        let c = Cluster::new(ClusterConfig::new(1, 1 << 20).sequential_timed()).unwrap();
        let (tx, rx) = crossbeam::channel::unbounded::<u64>();
        let tasks = vec![
            Task::new("produce", 0, move |_| {
                for i in 0..10_000u64 {
                    tx.send(i).unwrap();
                }
                Ok(())
            }),
            Task::new("consume", 0, move |_| {
                let mut n = 0;
                while rx.recv().is_ok() {
                    n += 1;
                }
                assert_eq!(n, 10_000);
                Ok(())
            }),
        ];
        c.execute(tasks).unwrap();
    }

    #[test]
    fn check_alive_heartbeats() {
        let c = small();
        let w = c.worker(0);
        assert_eq!(w.beats(), 0);
        w.check_alive().unwrap();
        w.check_alive().unwrap();
        assert_eq!(w.beats(), 2);
        c.fail_worker(0);
        assert!(w.check_alive().is_err());
        assert_eq!(w.beats(), 2, "dead workers stop beating");
    }

    #[test]
    fn detector_declares_dead_after_threshold_missed_beats() {
        let c = Cluster::new(ClusterConfig::new(2, 1 << 20)).unwrap();
        let mut det = FailureDetector::new(&c);
        let w0 = c.worker(0);
        // Worker 0 beats every round; worker 1 is expected but silent
        // (wedged, not flagged). It takes 3 observations to die.
        for _ in 0..2 {
            w0.check_alive().unwrap();
            assert!(det.observe(&c, &[0, 1]).is_empty());
            assert_eq!(c.alive_workers(), vec![0, 1], "a slow worker stays");
        }
        w0.check_alive().unwrap();
        assert_eq!(det.observe(&c, &[0, 1]), vec![1]);
        assert_eq!(c.alive_workers(), vec![0], "dead worker blacklisted");
        assert_eq!(c.counters().workers_declared_dead(), 1);
        // Already-dead workers are not re-declared.
        assert!(det.observe(&c, &[0, 1]).is_empty());
        assert_eq!(c.counters().workers_declared_dead(), 1);
    }

    #[test]
    fn detector_trusts_failure_flag_after_one_miss() {
        let c = small();
        let mut det = FailureDetector::new(&c);
        c.fail_worker(3);
        assert_eq!(det.observe(&c, &[3]), vec![3]);
        assert_eq!(c.counters().workers_declared_dead(), 1);
    }

    #[test]
    fn detector_ignores_idle_workers() {
        let c = small();
        let mut det = FailureDetector::new(&c);
        // Workers 1..3 had no tasks: their silence is not evidence.
        for _ in 0..5 {
            c.worker(0).check_alive().unwrap();
            assert!(det.observe(&c, &[0]).is_empty());
        }
        assert_eq!(c.alive_workers(), vec![0, 1, 2, 3]);
        assert_eq!(c.counters().workers_declared_dead(), 0);
    }

    #[test]
    fn slow_worker_recovers_without_eviction() {
        let c = Cluster::new(ClusterConfig::new(1, 1 << 20)).unwrap();
        let mut det = FailureDetector::new(&c);
        let w = c.worker(0);
        w.check_alive().unwrap();
        assert!(det.observe(&c, &[0]).is_empty());
        // Two silent observations (below threshold) ...
        assert!(det.observe(&c, &[0]).is_empty());
        assert!(det.observe(&c, &[0]).is_empty());
        // ... then progress resumes: the miss streak resets, so two more
        // silent observations still leave the worker alive.
        w.check_alive().unwrap();
        assert!(det.observe(&c, &[0]).is_empty());
        assert!(det.observe(&c, &[0]).is_empty());
        assert!(det.observe(&c, &[0]).is_empty());
        assert_eq!(c.alive_workers(), vec![0]);
        assert_eq!(c.counters().workers_declared_dead(), 0);
    }

    #[test]
    fn dfs_shared_across_workers() {
        let c = small();
        c.dfs().write("gs/job1", b"state").unwrap();
        let dfs = c.dfs().clone();
        c.execute(vec![Task::new("reader", 3, move |_| {
            assert_eq!(dfs.read("gs/job1").unwrap(), b"state");
            Ok(())
        })])
        .unwrap();
    }
}
