//! Sequential frame-structured temporary files ("run files").
//!
//! Run files are the workhorse of every spilling path in the system: sort
//! runs of the external sort, the sender-side materialized channels of the
//! m-to-n partitioning-merging connector (§4, materialization policies),
//! and the partition-local `Msg` and `Vid` relation files that carry
//! combined messages and live vids from one superstep to the next (§5.2).
//!
//! On disk a run is a sequence of `[u32 len][serialized frame]` records.
//! A run may be *buffered*: it stays in a memory buffer until a byte
//! threshold and only then spills to its backing file — small runs (a
//! sparse superstep's messages) then cost no file I/O at all, which is the
//! behaviour a warm OS page cache would give on faster file systems.
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
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

enum Sink {
    /// Buffering in memory until `threshold` bytes.
    Mem { buf: Vec<u8>, threshold: usize },
    /// Spilled (or created unbuffered) file.
    File(BufWriter<File>),
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

    /// Create a buffered run: data stays in memory until it exceeds
    /// `threshold` bytes, then transparently spills to `path`. The file is
    /// not created (and nothing is disk-accounted) unless the spill
    /// happens.
    pub fn create_buffered(
        path: impl Into<PathBuf>,
        counters: ClusterCounters,
        threshold: usize,
    ) -> RunWriter {
        let sink = Sink::Mem {
            buf: Vec::new(),
            threshold,
        };
        RunWriter::new(path.into(), sink, counters, Frame::new())
    }

    /// Append a whole frame.
    pub fn write_frame(&mut self, frame: &Frame) -> Result<()> {
        if fault::active() {
            let ctx = self.path.to_string_lossy();
            if fault::hit(Site::RunWrite, &ctx).is_some() {
                self.counters.add_faults_injected(1);
                return Err(fault::injected_error(Site::RunWrite, &ctx));
            }
        }
        // `[u32 len][frame]` assembled once, so a record is one write.
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0; 4]);
        frame.serialize(&mut self.scratch);
        let len = (self.scratch.len() - 4) as u32;
        self.scratch[..4].copy_from_slice(&len.to_le_bytes());
        let rec_len = self.scratch.len() as u64;
        match &mut self.sink {
            Sink::Mem { buf, threshold } => {
                buf.extend_from_slice(&self.scratch);
                if buf.len() > *threshold {
                    // Spill: everything buffered so far hits the disk now.
                    let mut file = BufWriter::new(File::create(&self.path)?);
                    file.write_all(buf)?;
                    self.counters.add_disk_write(buf.len() as u64);
                    self.sink = Sink::File(file);
                }
            }
            Sink::File(out) => {
                out.write_all(&self.scratch)?;
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
            let mut full = std::mem::take(&mut self.staging);
            let written = self.write_frame(&full);
            full.clear();
            self.staging = full;
            written?;
            let ok = self.staging.try_append(tuple);
            debug_assert!(ok, "empty frame accepts any tuple");
        }
        Ok(())
    }

    /// Flush buffers and seal the run, returning a reusable handle.
    pub fn finish(mut self) -> Result<RunHandle> {
        if !self.staging.is_empty() {
            let last = std::mem::take(&mut self.staging);
            self.write_frame(&last)?;
        }
        if let Sink::File(out) = &mut self.sink {
            out.flush()?;
        }
        // Sealed: an empty memory sink is what `drop` finds, so the file
        // stays.
        let sealed = Sink::Mem {
            buf: Vec::new(),
            threshold: 0,
        };
        let backing = match std::mem::replace(&mut self.sink, sealed) {
            Sink::Mem { buf, .. } => Backing::Mem(Arc::new(buf)),
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
    Mem(Arc<Vec<u8>>),
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

    /// The complete serialized record stream (checkpointing support).
    pub fn read_all(&self) -> Result<Vec<u8>> {
        match &self.backing {
            Backing::Mem(buf) => Ok(buf.as_ref().clone()),
            Backing::File(p) => Ok(std::fs::read(p)?),
        }
    }

    /// Open the run for sequential reading.
    pub fn open(&self, counters: ClusterCounters) -> Result<RunReader> {
        let input = match &self.backing {
            Backing::Mem(buf) => Input::Mem {
                buf: Arc::clone(buf),
                pos: 0,
            },
            Backing::File(p) => Input::File(BufReader::new(File::open(p)?)),
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
            record: Vec::new(),
            pending: Frame::default(),
            pending_idx: 0,
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
    Mem { buf: Arc<Vec<u8>>, pos: usize },
    File(BufReader<File>),
}

impl Input {
    fn read_exact(&mut self, out: &mut [u8]) -> std::io::Result<()> {
        match self {
            Input::Mem { buf, pos } => {
                if buf.len() - *pos < out.len() {
                    // Every run ends here: an error that allocates nothing.
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                out.copy_from_slice(&buf[*pos..*pos + out.len()]);
                *pos += out.len();
                Ok(())
            }
            Input::File(f) => f.read_exact(out),
        }
    }

    fn is_file(&self) -> bool {
        matches!(self, Input::File(_))
    }
}

/// Sequential reader over a run.
pub struct RunReader {
    input: Input,
    counters: ClusterCounters,
    /// Fault-injection context (run path); only populated while a plan is
    /// installed, so production readers never allocate for it.
    ctx: String,
    /// The bytes of the record `pending` was decoded from. Like `pending`
    /// it is reused from record to record: past its first frame a reader
    /// allocates only when a record is larger than any before it.
    record: Vec<u8>,
    pending: Frame,
    pending_idx: usize,
    done: bool,
}

impl RunReader {
    /// Read the next frame, or `None` at end of run. The frame is the
    /// reader's own decode buffer, handed over: callers that only look at
    /// tuples use [`advance`](Self::advance), which keeps it.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        Ok(self
            .fill_pending()?
            .then(|| std::mem::take(&mut self.pending)))
    }

    /// Decode the next record into `pending`; `false` at end of run.
    fn fill_pending(&mut self) -> Result<bool> {
        if fault::active() && fault::hit(Site::RunRead, &self.ctx).is_some() {
            self.counters.add_faults_injected(1);
            return Err(fault::injected_error(Site::RunRead, &self.ctx));
        }
        let mut len_buf = [0u8; 4];
        match self.input.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(false),
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        self.record.resize(len, 0);
        self.input.read_exact(&mut self.record)?;
        if self.input.is_file() {
            self.counters.add_disk_read(4 + len as u64);
        }
        let mut rest = &self.record[..];
        self.pending.deserialize_into(&mut rest)?;
        if !rest.is_empty() {
            return Err(PregelixError::corrupt("trailing bytes in run record"));
        }
        Ok(true)
    }

    /// Read the next tuple (frame boundaries hidden), or `None` at the end.
    pub fn next_tuple(&mut self) -> Result<Option<Vec<u8>>> {
        loop {
            if self.pending_idx < self.pending.len() {
                let t = self.pending.tuple(self.pending_idx).to_vec();
                self.pending_idx += 1;
                return Ok(Some(t));
            }
            if self.done {
                return Ok(None);
            }
            if self.fill_pending()? {
                self.pending_idx = 0;
            } else {
                self.done = true;
            }
        }
    }

    /// Advance the lending cursor to the next tuple. Returns `true` when a
    /// tuple is available via [`current`](Self::current). This is the
    /// allocation-free counterpart of [`next_tuple`](Self::next_tuple): the
    /// cursor borrows tuples in place from the reader's current frame. Do
    /// not mix the two styles on one reader.
    pub fn advance(&mut self) -> Result<bool> {
        loop {
            let next = self.pending_idx.wrapping_add(1);
            if next < self.pending.len() {
                self.pending_idx = next;
                return Ok(true);
            }
            if self.done {
                self.pending_idx = self.pending.len();
                return Ok(false);
            }
            if self.fill_pending()? {
                // One less than the first index, so the wrapping
                // increment above lands on tuple 0.
                self.pending_idx = usize::MAX;
            } else {
                self.done = true;
            }
        }
    }

    /// The tuple under the lending cursor, or `None` before the first
    /// [`advance`](Self::advance) / after exhaustion.
    pub fn current(&self) -> Option<&[u8]> {
        if self.pending_idx < self.pending.len() {
            Some(self.pending.tuple(self.pending_idx))
        } else {
            None
        }
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
        w.write_frame(&f1).unwrap();
        w.write_frame(&f2).unwrap();
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
        w.write_frame(&f).unwrap();
        let h = w.finish().unwrap();
        // Chop the file mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut r = h.open(counters()).unwrap();
        assert!(r.next_frame().is_err());
    }
}
