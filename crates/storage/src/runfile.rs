//! Sequential frame-structured temporary files ("run files").
//!
//! Run files are the workhorse of every spilling path in the system: sort
//! runs of the external sort, the sender-side materialized channels of the
//! m-to-n partitioning-merging connector (§4, materialization policies),
//! and the partition-local `Msg` and `Vid` relation files that carry
//! combined messages and live vids from one superstep to the next (§5.2).
//!
//! On disk a run is a sequence of `[u32 len][serialized frame]` records.
//! A run may be *buffered*: it spills to its backing file only when its
//! records would pass a byte threshold, the share of the worker's memory
//! budget its owner gives it (§5.4: spill "only when necessary"). The `Msg`
//! and `Vid` partition runs get what the worker's group-by budget leaves
//! after the job's sender-side fold, split across the runs a partition
//! holds at once, and never less than eight frames. Until then the run *is* its frames: the sealed frames are
//! held as they are, a reader lends tuples straight from them, and nothing
//! is encoded, copied or decoded. [`RunHandle::read_all`] serializes such a
//! run on demand into exactly the bytes its spill would have written.
//! Disk-traffic counters only see bytes that actually hit the file.
//!
//! Who deletes a run's file follows from its type. A [`RunWriter`] dropped
//! before [`finish`](RunWriter::finish) removes what it wrote; a sealed
//! [`RunHandle`] is a plain description whose holder deletes it by hand (the
//! `Msg` and `Vid` partition files, which outlive the task that wrote them); a
//! [`TempRun`] is a handle that deletes its file when dropped — what every
//! spill is held as, so an operator that dies between its first spill and
//! the end of its merge leaves nothing behind.

use pregelix_common::error::{PregelixError, Result};
use pregelix_common::fault::{self, Site};
use pregelix_common::frame::Frame;
use pregelix_common::stats::ClusterCounters;
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

enum Sink {
    /// Holding its sealed frames in memory while their records come to at
    /// most `threshold` bytes.
    Mem { frames: Vec<Frame>, threshold: usize },
    /// Spilled (or created unbuffered) file.
    File(BufWriter<File>),
}

/// Append `frame` to `out` as one `[u32 len][serialized frame]` record,
/// assembled in `scratch` first so a record is one write.
fn write_record(out: &mut impl Write, frame: &Frame, scratch: &mut Vec<u8>) -> Result<()> {
    scratch.clear();
    scratch.extend_from_slice(&(frame.wire_len() as u32).to_le_bytes());
    frame.serialize(scratch);
    out.write_all(scratch)?;
    Ok(())
}

/// Writes frames to a run.
pub struct RunWriter {
    path: PathBuf,
    sink: Sink,
    counters: ClusterCounters,
    bytes: u64,
    frames: u64,
    /// Staging frame for tuple-level writes.
    staging: Frame,
    scratch: Vec<u8>,
}

impl RunWriter {
    fn new(path: PathBuf, sink: Sink, counters: ClusterCounters, staging: Frame) -> RunWriter {
        RunWriter {
            path,
            sink,
            counters,
            bytes: 0,
            frames: 0,
            staging,
            scratch: Vec::new(),
        }
    }

    /// Create an unbuffered run file at `path` (truncating any existing
    /// file). Every record goes straight to disk.
    pub fn create(path: impl Into<PathBuf>, counters: ClusterCounters) -> Result<RunWriter> {
        let path = path.into();
        let sink = Sink::File(BufWriter::new(File::create(&path)?));
        Ok(RunWriter::new(path, sink, counters, Frame::new()))
    }

    /// Create an unbuffered run whose records carry `record_bytes` of tuple
    /// data each and go to the file as they fill, with no file buffer behind
    /// the staging frame: what the writer holds is that one frame. For
    /// operators that keep many runs open at once against a memory budget.
    pub fn create_paged(
        path: impl Into<PathBuf>,
        counters: ClusterCounters,
        record_bytes: usize,
    ) -> Result<RunWriter> {
        let path = path.into();
        let sink = Sink::File(BufWriter::with_capacity(0, File::create(&path)?));
        let staging = Frame::with_capacity(record_bytes);
        Ok(RunWriter::new(path, sink, counters, staging))
    }

    /// Create a buffered run: its frames stay in memory while their records
    /// come to at most `threshold` bytes; the frame that takes them past it
    /// spills every record so far to `path`, and the rest follow. The file
    /// is not created (and nothing is disk-accounted) unless the spill
    /// happens. Nothing is reserved up front: the run grows frame by frame.
    pub fn create_buffered(
        path: impl Into<PathBuf>,
        counters: ClusterCounters,
        threshold: usize,
    ) -> RunWriter {
        let sink = Sink::Mem {
            frames: Vec::new(),
            threshold,
        };
        RunWriter::new(path.into(), sink, counters, Frame::new())
    }

    /// Append a whole frame: held as it is while the run is in memory.
    pub fn write_frame(&mut self, frame: Frame) -> Result<()> {
        self.append(Cow::Owned(frame))
    }

    /// Append `frame` as one record: held while the run is in memory (only
    /// ever owned there), serialized to the file otherwise.
    fn append(&mut self, frame: Cow<'_, Frame>) -> Result<()> {
        if fault::active() {
            let ctx = self.path.to_string_lossy();
            if fault::hit(Site::RunWrite, &ctx).is_some() {
                self.counters.add_faults_injected(1);
                return Err(fault::injected_error(Site::RunWrite, &ctx));
            }
        }
        let rec_len = 4 + frame.wire_len() as u64;
        match &mut self.sink {
            Sink::Mem { frames, threshold } => {
                frames.push(frame.into_owned());
                if self.bytes + rec_len > *threshold as u64 {
                    // Spill: every record held so far hits the disk now.
                    let mut file = BufWriter::new(File::create(&self.path)?);
                    for held in frames.iter() {
                        write_record(&mut file, held, &mut self.scratch)?;
                    }
                    self.counters.add_disk_write(self.bytes + rec_len);
                    self.sink = Sink::File(file);
                }
            }
            Sink::File(out) => {
                write_record(out, &frame, &mut self.scratch)?;
                self.counters.add_disk_write(rec_len);
            }
        }
        self.bytes += rec_len;
        self.frames += 1;
        Ok(())
    }

    /// Append a single tuple, buffering into an internal staging frame.
    pub fn write_tuple(&mut self, tuple: &[u8]) -> Result<()> {
        if !self.staging.try_append(tuple) {
            if matches!(self.sink, Sink::Mem { .. }) {
                // The full frame is held as it is; only buffered writers
                // hold frames, and theirs stage in default-sized ones.
                let full = std::mem::replace(&mut self.staging, Frame::new());
                self.append(Cow::Owned(full))?;
            } else {
                let mut full = std::mem::take(&mut self.staging);
                let written = self.append(Cow::Borrowed(&full));
                full.clear();
                self.staging = full;
                written?;
            }
            let ok = self.staging.try_append(tuple);
            debug_assert!(ok, "empty frame accepts any tuple");
        }
        Ok(())
    }

    /// Flush buffers and seal the run, returning a reusable handle.
    pub fn finish(mut self) -> Result<RunHandle> {
        if !self.staging.is_empty() {
            let last = std::mem::take(&mut self.staging);
            self.append(Cow::Owned(last))?;
        }
        if let Sink::File(out) = &mut self.sink {
            out.flush()?;
        }
        // Sealed: an empty memory sink is what `drop` finds, so the file
        // stays.
        let sealed = Sink::Mem {
            frames: Vec::new(),
            threshold: 0,
        };
        let backing = match std::mem::replace(&mut self.sink, sealed) {
            Sink::Mem { frames, .. } => Backing::Mem(Arc::new(frames)),
            Sink::File(_) => Backing::File(std::mem::take(&mut self.path)),
        };
        Ok(RunHandle {
            backing,
            bytes: self.bytes,
            frames: self.frames,
        })
    }
}

/// A writer dropped before [`finish`](RunWriter::finish) — its task failed,
/// or an earlier writer of the same set did — takes its file with it.
impl Drop for RunWriter {
    fn drop(&mut self) {
        if matches!(self.sink, Sink::File(_)) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[derive(Clone, Debug)]
enum Backing {
    Mem(Arc<Vec<Frame>>),
    File(PathBuf),
}

/// A sealed run that can be opened for reading any number of times.
#[derive(Clone, Debug)]
pub struct RunHandle {
    backing: Backing,
    bytes: u64,
    frames: u64,
}

impl RunHandle {
    /// Total serialized size in bytes (including record headers).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of frames in the run.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Whether the run is held in memory (never spilled).
    pub fn in_memory(&self) -> bool {
        matches!(self.backing, Backing::Mem(_))
    }

    /// The backing path for file-backed runs.
    pub fn path(&self) -> Option<&Path> {
        match &self.backing {
            Backing::File(p) => Some(p),
            Backing::Mem(_) => None,
        }
    }

    /// The complete serialized record stream (checkpointing support): the
    /// bytes a spill of the run writes, serialized here for a run that
    /// never spilled.
    pub fn read_all(&self) -> Result<Vec<u8>> {
        match &self.backing {
            Backing::Mem(frames) => {
                let mut out = Vec::with_capacity(self.bytes as usize);
                let mut scratch = Vec::new();
                for frame in frames.iter() {
                    write_record(&mut out, frame, &mut scratch)?;
                }
                Ok(out)
            }
            Backing::File(p) => Ok(std::fs::read(p)?),
        }
    }

    /// Open the run for sequential reading.
    pub fn open(&self, counters: ClusterCounters) -> Result<RunReader> {
        let input = match &self.backing {
            Backing::Mem(frames) => Input::Mem {
                frames: Arc::clone(frames),
                next: 0,
            },
            Backing::File(p) => Input::File {
                file: BufReader::new(File::open(p)?),
                record: Vec::new(),
                frame: Frame::default(),
            },
        };
        let ctx = if fault::active() {
            match &self.backing {
                Backing::Mem(_) => "mem".to_string(),
                Backing::File(p) => p.to_string_lossy().into_owned(),
            }
        } else {
            String::new()
        };
        Ok(RunReader {
            input,
            counters,
            ctx,
            idx: 0,
            done: false,
        })
    }

    /// Delete the backing file (no-op for in-memory runs or already
    /// deleted files).
    pub fn delete(self) -> Result<()> {
        self.remove_file()
    }

    fn remove_file(&self) -> Result<()> {
        match &self.backing {
            Backing::Mem(_) => Ok(()),
            Backing::File(p) => match std::fs::remove_file(p) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e.into()),
            },
        }
    }
}

/// A sealed run that belongs to its holder alone: dropping it deletes the
/// backing file. Sorter and hash-table spills, the merging connector's runs
/// on their way to a receiver, a merge's inputs and the fold-window spill
/// files are all held this way, so whichever operator has the run when its
/// task ends — normally or not — is the one that cleans it up.
#[derive(Debug)]
pub struct TempRun(Option<RunHandle>);

impl From<RunHandle> for TempRun {
    fn from(run: RunHandle) -> TempRun {
        TempRun(Some(run))
    }
}

impl TempRun {
    /// Hand the run on as a plain handle: its file outlives this owner.
    pub fn keep(mut self) -> RunHandle {
        self.0.take().expect("a TempRun holds its run until kept")
    }
}

impl std::ops::Deref for TempRun {
    type Target = RunHandle;

    fn deref(&self) -> &RunHandle {
        self.0.as_ref().expect("a TempRun holds its run until kept")
    }
}

impl Drop for TempRun {
    fn drop(&mut self) {
        if let Some(run) = &self.0 {
            let _ = run.remove_file();
        }
    }
}

enum Input {
    /// An in-memory run's frames, lent in place: `next` is the index of
    /// the frame after the current one.
    Mem { frames: Arc<Vec<Frame>>, next: usize },
    /// A file, each record read into `record` and decoded into `frame`.
    /// Both are reused from record to record: past its first frame a reader
    /// allocates only when a record is larger than any before it.
    File {
        file: BufReader<File>,
        record: Vec<u8>,
        frame: Frame,
    },
}

impl Input {
    /// The current frame, if a record has been read.
    fn frame(&self) -> Option<&Frame> {
        match self {
            Input::Mem { frames, next } => frames.get(next.checked_sub(1)?),
            Input::File { frame, .. } => Some(frame),
        }
    }
}

/// Sequential reader over a run.
pub struct RunReader {
    input: Input,
    counters: ClusterCounters,
    /// Fault-injection context (run path); only populated while a plan is
    /// installed, so production readers never allocate for it.
    ctx: String,
    /// Index of the lending cursor's tuple in the current frame.
    idx: usize,
    done: bool,
}

impl RunReader {
    /// Read the next frame, or `None` at end of run: a file's is the
    /// reader's own decode buffer, handed over; an in-memory run's is a
    /// copy. Callers that only look at tuples use
    /// [`advance`](Self::advance), which copies nothing.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        if !self.next_record()? {
            return Ok(None);
        }
        if let Input::File { frame, .. } = &mut self.input {
            return Ok(Some(std::mem::take(frame)));
        }
        Ok(self.input.frame().cloned())
    }

    /// Move to the next record: lend the next held frame, or read and
    /// decode the next file record. `false` at end of run.
    fn next_record(&mut self) -> Result<bool> {
        if fault::active() && fault::hit(Site::RunRead, &self.ctx).is_some() {
            self.counters.add_faults_injected(1);
            return Err(fault::injected_error(Site::RunRead, &self.ctx));
        }
        let (file, record, frame) = match &mut self.input {
            Input::Mem { frames, next } => {
                if *next == frames.len() {
                    return Ok(false);
                }
                *next += 1;
                return Ok(true);
            }
            Input::File {
                file,
                record,
                frame,
            } => (file, record, frame),
        };
        let mut len_buf = [0u8; 4];
        match file.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(false),
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        record.resize(len, 0);
        file.read_exact(record)?;
        self.counters.add_disk_read(4 + len as u64);
        let mut rest = &record[..];
        frame.deserialize_into(&mut rest)?;
        if !rest.is_empty() {
            return Err(PregelixError::corrupt("trailing bytes in run record"));
        }
        Ok(true)
    }

    /// Tuples in the current frame (0 before the first record).
    fn frame_len(&self) -> usize {
        self.input.frame().map_or(0, Frame::len)
    }

    /// Read the next tuple (frame boundaries hidden), or `None` at the end.
    pub fn next_tuple(&mut self) -> Result<Option<Vec<u8>>> {
        loop {
            if let Some(frame) = self.input.frame().filter(|f| self.idx < f.len()) {
                let t = frame.tuple(self.idx).to_vec();
                self.idx += 1;
                return Ok(Some(t));
            }
            if self.done {
                return Ok(None);
            }
            if self.next_record()? {
                self.idx = 0;
            } else {
                self.done = true;
            }
        }
    }

    /// Advance the lending cursor to the next tuple. Returns `true` when a
    /// tuple is available via [`current`](Self::current). This is the
    /// allocation-free counterpart of [`next_tuple`](Self::next_tuple): the
    /// cursor borrows tuples in place from the current frame — the held
    /// frame itself for an in-memory run. Do not mix the two styles on one
    /// reader.
    pub fn advance(&mut self) -> Result<bool> {
        loop {
            let next = self.idx.wrapping_add(1);
            if next < self.frame_len() {
                self.idx = next;
                return Ok(true);
            }
            if self.done {
                self.idx = self.frame_len();
                return Ok(false);
            }
            if self.next_record()? {
                // One less than the first index, so the wrapping
                // increment above lands on tuple 0.
                self.idx = usize::MAX;
            } else {
                self.done = true;
            }
        }
    }

    /// The tuple under the lending cursor, or `None` before the first
    /// [`advance`](Self::advance) / after exhaustion.
    pub fn current(&self) -> Option<&[u8]> {
        let frame = self.input.frame()?;
        (self.idx < frame.len()).then(|| frame.tuple(self.idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::TempDir;
    use pregelix_common::frame::keyed_tuple;

    fn counters() -> ClusterCounters {
        ClusterCounters::new()
    }

    #[test]
    fn frames_roundtrip() {
        let dir = TempDir::new("run").unwrap();
        let path = dir.path().join("a.run");
        let mut w = RunWriter::create(&path, counters()).unwrap();
        let mut f1 = Frame::new();
        f1.try_append(b"one");
        f1.try_append(b"two");
        let mut f2 = Frame::new();
        f2.try_append(b"three");
        w.write_frame(f1).unwrap();
        w.write_frame(f2).unwrap();
        let h = w.finish().unwrap();
        assert_eq!(h.frames(), 2);
        assert!(!h.in_memory());
        let mut r = h.open(counters()).unwrap();
        let g1 = r.next_frame().unwrap().unwrap();
        assert_eq!(g1.len(), 2);
        assert_eq!(g1.tuple(1), b"two");
        let g2 = r.next_frame().unwrap().unwrap();
        assert_eq!(g2.tuple(0), b"three");
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn tuple_level_io_spans_frames() {
        let dir = TempDir::new("run").unwrap();
        let path = dir.path().join("t.run");
        let mut w = RunWriter::create(&path, counters()).unwrap();
        for vid in 0..10_000u64 {
            w.write_tuple(&keyed_tuple(vid, &vid.to_le_bytes())).unwrap();
        }
        let h = w.finish().unwrap();
        assert!(h.frames() > 1, "10k tuples must span multiple frames");
        let mut r = h.open(counters()).unwrap();
        let mut n = 0u64;
        while let Some(t) = r.next_tuple().unwrap() {
            assert_eq!(pregelix_common::frame::tuple_vid(&t).unwrap(), n);
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    #[test]
    fn empty_run_reads_empty() {
        let dir = TempDir::new("run").unwrap();
        let w = RunWriter::create(dir.path().join("e.run"), counters()).unwrap();
        let h = w.finish().unwrap();
        let mut r = h.open(counters()).unwrap();
        assert!(r.next_tuple().unwrap().is_none());
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn reopenable_and_deletable() {
        let dir = TempDir::new("run").unwrap();
        let mut w = RunWriter::create(dir.path().join("d.run"), counters()).unwrap();
        w.write_tuple(b"x").unwrap();
        let h = w.finish().unwrap();
        for _ in 0..2 {
            let mut r = h.open(counters()).unwrap();
            assert_eq!(r.next_tuple().unwrap().unwrap(), b"x");
        }
        let path = h.path().unwrap().to_path_buf();
        h.delete().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn unfinished_writers_and_temp_runs_delete_their_files() {
        let dir = TempDir::new("run").unwrap();
        let path = dir.path().join("u.run");
        // Dropped before `finish`: unbuffered, and buffered past its threshold.
        let mut w = RunWriter::create(&path, counters()).unwrap();
        w.write_tuple(b"x").unwrap();
        assert!(path.exists());
        drop(w);
        assert!(!path.exists());
        let mut w = RunWriter::create_buffered(&path, counters(), 64);
        for _ in 0..2_000 {
            w.write_tuple(&[7u8; 32]).unwrap();
        }
        assert!(path.exists(), "spilled past the threshold");
        drop(w);
        assert!(!path.exists());
        // Finished: the file is the handle's, and goes with a `TempRun`.
        let mut w = RunWriter::create(&path, counters()).unwrap();
        w.write_tuple(b"x").unwrap();
        let h = w.finish().unwrap();
        assert!(path.exists(), "a sealed run outlives its writer");
        let temp = TempRun::from(h.clone());
        assert_eq!((temp.frames(), temp.path()), (1, Some(path.as_path())));
        drop(temp);
        assert!(!path.exists());
        h.delete().unwrap(); // already gone: a no-op
        // Kept: the file goes to the plain handle's holder.
        let mut w = RunWriter::create(&path, counters()).unwrap();
        w.write_tuple(b"x").unwrap();
        let kept = TempRun::from(w.finish().unwrap()).keep();
        assert!(path.exists(), "a kept run outlives its TempRun");
        kept.delete().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn paged_writer_puts_one_staging_frame_in_each_record() {
        let dir = TempDir::new("run").unwrap();
        let c = counters();
        let mut w = RunWriter::create_paged(dir.path().join("p.run"), c.clone(), 4096).unwrap();
        for i in 0..10_000u32 {
            let mut t = i.to_le_bytes().to_vec();
            t.extend_from_slice(&[0xAB; 8]);
            w.write_tuple(&t).unwrap();
        }
        let h = w.finish().unwrap();
        // 341 twelve-byte tuples fill 4096 bytes; a record is its length
        // prefix, the tuple count, an offset per tuple and the tuple bytes.
        assert_eq!(h.frames(), 10_000u64.div_ceil(341));
        assert_eq!(h.bytes(), 8 * h.frames() + 10_000 * (4 + 12));
        assert_eq!(c.disk_write_bytes(), h.bytes(), "no byte waits in a buffer");
        let mut r = h.open(c).unwrap();
        let mut n = 0u32;
        while r.advance().unwrap() {
            assert_eq!(r.current().unwrap()[..4], n.to_le_bytes());
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    #[test]
    fn io_counted_only_for_files() {
        let dir = TempDir::new("run").unwrap();
        let c = counters();
        let mut w = RunWriter::create(dir.path().join("c.run"), c.clone()).unwrap();
        w.write_tuple(&[7u8; 100]).unwrap();
        let h = w.finish().unwrap();
        assert!(c.snapshot().disk_write_bytes >= 100);
        let mut r = h.open(c.clone()).unwrap();
        while r.next_frame().unwrap().is_some() {}
        assert!(c.snapshot().disk_read_bytes >= 100);
    }

    #[test]
    fn buffered_run_stays_in_memory_below_threshold() {
        let dir = TempDir::new("run").unwrap();
        let c = counters();
        let path = dir.path().join("m.run");
        let mut w = RunWriter::create_buffered(&path, c.clone(), 1 << 20);
        for vid in 0..100u64 {
            w.write_tuple(&keyed_tuple(vid, b"payload")).unwrap();
        }
        let h = w.finish().unwrap();
        assert!(h.in_memory());
        assert!(!path.exists(), "no file below threshold");
        assert_eq!(c.snapshot().disk_write_bytes, 0);
        let mut r = h.open(c.clone()).unwrap();
        let mut n = 0;
        while r.next_tuple().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
        assert_eq!(c.snapshot().disk_read_bytes, 0, "memory reads not disk-counted");
        // read_all works for checkpointing.
        assert!(!h.read_all().unwrap().is_empty());
        h.delete().unwrap(); // no-op
    }

    /// A run that fits its threshold is its frames: read back tuple for
    /// tuple with no disk traffic, and serialized on demand into exactly the
    /// file the same frames spill to past a smaller threshold — a record is
    /// `4 + wire_len` bytes either way, so a run of exactly the threshold
    /// stays in memory and one byte less spills.
    #[test]
    fn in_memory_run_reads_back_its_frames_and_serializes_as_its_spill() {
        let dir = TempDir::new("run").unwrap();
        let write = |threshold: usize, c: &ClusterCounters| {
            let path = dir.path().join(format!("f-{threshold}.run"));
            let mut w = RunWriter::create_buffered(&path, c.clone(), threshold);
            for vid in 0..3_000u64 {
                w.write_tuple(&keyed_tuple(vid, &[vid as u8; 12])).unwrap();
            }
            w.finish().unwrap()
        };
        let probe = write(usize::MAX, &counters());
        assert!(probe.frames() > 2);
        let (mem_c, file_c) = (counters(), counters());
        let mem = write(probe.bytes() as usize, &mem_c);
        let file = write(probe.bytes() as usize - 1, &file_c);
        assert!(mem.in_memory() && !file.in_memory());
        assert_eq!((mem.frames(), mem.bytes()), (file.frames(), file.bytes()));
        assert_eq!(file_c.disk_write_bytes(), file.bytes());
        let tuples = |run: &RunHandle, c: &ClusterCounters| {
            let mut r = run.open(c.clone()).unwrap();
            let mut out = Vec::new();
            while r.advance().unwrap() {
                out.push(r.current().unwrap().to_vec());
            }
            out
        };
        assert_eq!(tuples(&mem, &mem_c), tuples(&file, &file_c));
        assert_eq!(mem_c.snapshot().disk_write_bytes + mem_c.snapshot().disk_read_bytes, 0);
        assert_eq!(file_c.disk_read_bytes(), file.bytes());
        let on_disk = std::fs::read(file.path().unwrap()).unwrap();
        assert_eq!(mem.read_all().unwrap(), on_disk);
        // Frame by frame too: the held frames are the spilled records.
        let (mut a, mut b) = (mem.open(counters()).unwrap(), file.open(counters()).unwrap());
        let mut frames = 0;
        while let Some(fa) = a.next_frame().unwrap() {
            let fb = b.next_frame().unwrap().unwrap();
            assert_eq!(fa.iter().collect::<Vec<_>>(), fb.iter().collect::<Vec<_>>());
            frames += 1;
        }
        assert!(b.next_frame().unwrap().is_none());
        assert_eq!(frames, mem.frames());
    }

    #[test]
    fn buffered_run_spills_past_threshold() {
        let dir = TempDir::new("run").unwrap();
        let c = counters();
        let path = dir.path().join("s.run");
        let mut w = RunWriter::create_buffered(&path, c.clone(), 4096);
        for vid in 0..5_000u64 {
            w.write_tuple(&keyed_tuple(vid, &[0u8; 32])).unwrap();
        }
        let h = w.finish().unwrap();
        assert!(!h.in_memory());
        assert!(path.exists());
        assert!(c.snapshot().disk_write_bytes > 4096);
        let mut r = h.open(c.clone()).unwrap();
        let mut n = 0;
        while r.next_tuple().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 5_000);
        // Spilled and direct-file contents agree byte-for-byte.
        assert_eq!(h.read_all().unwrap(), std::fs::read(&path).unwrap());
    }

    #[test]
    fn lending_cursor_matches_owned_iteration() {
        let dir = TempDir::new("run").unwrap();
        let path = dir.path().join("cur.run");
        let mut w = RunWriter::create(&path, counters()).unwrap();
        for vid in 0..10_000u64 {
            w.write_tuple(&keyed_tuple(vid, &vid.to_le_bytes())).unwrap();
        }
        let h = w.finish().unwrap();
        let mut r = h.open(counters()).unwrap();
        assert!(r.current().is_none(), "no tuple before first advance");
        let mut n = 0u64;
        while r.advance().unwrap() {
            let t = r.current().unwrap();
            assert_eq!(pregelix_common::frame::tuple_vid(t).unwrap(), n);
            n += 1;
        }
        assert_eq!(n, 10_000);
        assert!(r.current().is_none(), "no tuple after exhaustion");
        assert!(!r.advance().unwrap(), "advance idempotent at end");
    }

    #[test]
    fn truncated_run_detected() {
        let dir = TempDir::new("run").unwrap();
        let path = dir.path().join("bad.run");
        let mut w = RunWriter::create(&path, counters()).unwrap();
        let mut f = Frame::new();
        f.try_append(&[1u8; 64]);
        w.write_frame(f).unwrap();
        let h = w.finish().unwrap();
        // Chop the file mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut r = h.open(counters()).unwrap();
        assert!(r.next_frame().is_err());
    }
}
