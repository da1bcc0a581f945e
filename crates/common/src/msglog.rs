//! Sender-side message logging for confined recovery (§5.5 degradation
//! ladder).
//!
//! Every partition's outbound *post-combine* message runs — and its vertex
//! mutation requests, which travel the same connector hop — are tee'd into a
//! per-`(superstep, src-partition)` log file on the DFS. When a worker dies,
//! the failure manager can reload only the dead worker's partitions from the
//! latest checkpoint and re-execute the lost supersteps with their inbound
//! messages *replayed from survivors' logs* instead of recomputed, leaving
//! survivors' state hot. Any hole in the logs (a torn write, a
//! garbage-collection race, an injected log-site fault) is detected here —
//! by the trailing CRC, a magic/version check, or plain absence — and
//! surfaces as `ConfinedRecoveryUnavailable`, which the failure manager
//! catches to fall back to the global rollback.
//!
//! ## File layout and codec
//!
//! One file per `(superstep, src)` at `jobs/<job>/msglog/<superstep>/src<p>`:
//!
//! ```text
//! [magic  u32 = MLG1] [version u16 = 1]
//! [superstep u64] [src u32] [p_count u32]
//! p_count × { [msg_count u32] msg_count × ([len u32][tuple bytes])
//!             [mut_count u32] mut_count × ([len u32][tuple bytes]) }
//! [crc32 over everything above  u32]
//! ```
//!
//! Sections appear in ascending destination-partition order and are written
//! even when empty, so the *presence* of an intact `src<p>` file proves the
//! completeness of every `p → *` run for that superstep — there is no way to
//! confuse "no messages" with "log lost". Tuples within a section preserve
//! the sender's emission order (post local combine, ascending vid), which is
//! exactly the order the original `MaterializedPartitioner` run files carry;
//! replay feeding sections in ascending src order is therefore
//! combiner-equivalent to the live exchange. The whole file is written in
//! one atomic DFS write at the end of the compute task, i.e. it is durable
//! at the superstep boundary or not present at all (modulo an injected
//! [`Fault::TornWrite`], which deliberately leaves a CRC-detectable prefix).
//!
//! Logging is **best-effort**: a failed log write degrades the job (the
//! superstep proceeds; a later confined recovery will find the hole and fall
//! back), it never fails the superstep.

use crate::bytes::crc32;
use crate::dfs::SimDfs;
use crate::error::{PregelixError, Result};
use crate::fault::{self, Fault, Site};
use crate::job::JobId;
use crate::stats::ClusterCounters;
use crate::Superstep;

/// File magic: "MLG1" little-endian.
const MAGIC: u32 = 0x3147_4C4D;
/// Codec version.
const VERSION: u16 = 1;

/// DFS directory holding every message log of `job`.
pub fn log_root(job: &JobId) -> String {
    format!("jobs/{job}/msglog")
}

/// DFS path of the log written by partition `src` during `superstep`.
pub fn log_path(job: &JobId, superstep: Superstep, src: usize) -> String {
    format!("jobs/{job}/msglog/{superstep}/src{src}")
}

/// One destination's worth of tuples, already in wire shape: `buf` is the
/// concatenation of `[len u32][tuple bytes]` records and `count` how many.
/// Appending is a single `extend_from_slice` into one growing buffer — no
/// per-tuple `Vec` — and `encode` can copy the section out wholesale.
#[derive(Debug, Default, Clone)]
struct Section {
    count: u32,
    buf: Vec<u8>,
}

impl Section {
    fn push(&mut self, tuple: &[u8]) {
        self.buf.extend_from_slice(&(tuple.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(tuple);
        self.count += 1;
    }

    /// Iterate the framed tuples back out (test/inspection helper).
    #[cfg(test)]
    fn tuples(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest = self.buf.as_slice();
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let (len, tail) = rest.split_at(4);
            let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
            let (tuple, tail) = tail.split_at(len);
            rest = tail;
            Some(tuple)
        })
    }
}

/// Accumulates one source partition's outbound tuples for one superstep,
/// bucketed by destination partition, and encodes them into the log file
/// format above. Tuples are framed into per-destination byte buffers as
/// they arrive, so the tee costs one buffer append per tuple and `encode`
/// is a handful of bulk copies regardless of tuple count.
#[derive(Debug)]
pub struct MsgLogWriter {
    superstep: Superstep,
    src: usize,
    /// Per-destination post-combine message sections, emission order.
    msgs: Vec<Section>,
    /// Per-destination mutation-request sections, emission order.
    muts: Vec<Section>,
}

impl MsgLogWriter {
    /// Start an empty log for `(superstep, src)` over `p_count` partitions.
    pub fn new(superstep: Superstep, src: usize, p_count: usize) -> Self {
        Self {
            superstep,
            src,
            msgs: vec![Section::default(); p_count],
            muts: vec![Section::default(); p_count],
        }
    }

    /// Record one post-combine message tuple bound for partition `dst`.
    pub fn add_msg(&mut self, dst: usize, tuple: &[u8]) {
        self.msgs[dst].push(tuple);
    }

    /// Record one mutation-request tuple bound for partition `dst`.
    pub fn add_mut(&mut self, dst: usize, tuple: &[u8]) {
        self.muts[dst].push(tuple);
    }

    /// Serialize to the on-DFS byte form (header, per-dst sections, CRC).
    pub fn encode(&self) -> Vec<u8> {
        let body_len: usize = 4 + 2 + 8 + 4 + 4
            + self
                .msgs
                .iter()
                .chain(self.muts.iter())
                .map(|s| 4 + s.buf.len())
                .sum::<usize>();
        let mut out = Vec::with_capacity(body_len + 4);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.superstep.to_le_bytes());
        out.extend_from_slice(&(self.src as u32).to_le_bytes());
        out.extend_from_slice(&(self.msgs.len() as u32).to_le_bytes());
        for dst in 0..self.msgs.len() {
            for section in [&self.msgs[dst], &self.muts[dst]] {
                out.extend_from_slice(&section.count.to_le_bytes());
                out.extend_from_slice(&section.buf);
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

/// A decoded, CRC-verified log file.
#[derive(Debug, PartialEq, Eq)]
pub struct MsgLog {
    /// Superstep the log was written during.
    pub superstep: Superstep,
    /// Source partition that wrote it.
    pub src: usize,
    /// `messages[dst]` / `mutations[dst]`, emission order.
    msgs: Vec<Vec<Vec<u8>>>,
    muts: Vec<Vec<Vec<u8>>>,
}

impl MsgLog {
    /// Partition count the log was bucketed over.
    pub fn partitions(&self) -> usize {
        self.msgs.len()
    }

    /// Post-combine message tuples bound for `dst`, emission order.
    pub fn messages(&self, dst: usize) -> &[Vec<u8>] {
        &self.msgs[dst]
    }

    /// Mutation-request tuples bound for `dst`, emission order.
    pub fn mutations(&self, dst: usize) -> &[Vec<u8>] {
        &self.muts[dst]
    }

    /// Decode and verify a log file. Every failure mode — short buffer, bad
    /// magic/version, CRC mismatch, trailing bytes, truncated section — is a
    /// `Corrupt` error; callers on the replay path map it to
    /// `ConfinedRecoveryUnavailable`.
    pub fn decode(bytes: &[u8]) -> Result<MsgLog> {
        if bytes.len() < 4 + 2 + 8 + 4 + 4 + 4 {
            return Err(PregelixError::corrupt("msg log shorter than header"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != stored {
            return Err(PregelixError::corrupt("msg log crc mismatch"));
        }
        let mut buf = body;
        if take_u32(&mut buf)? != MAGIC {
            return Err(PregelixError::corrupt("msg log bad magic"));
        }
        let version = u16::from_le_bytes(take_n(&mut buf, 2)?.try_into().unwrap());
        if version != VERSION {
            return Err(PregelixError::corrupt(format!(
                "msg log version {version} unsupported"
            )));
        }
        let superstep = u64::from_le_bytes(take_n(&mut buf, 8)?.try_into().unwrap());
        let src = take_u32(&mut buf)? as usize;
        let p_count = take_u32(&mut buf)? as usize;
        // A corrupted count could demand absurd allocations; each tuple
        // costs ≥4 bytes on the wire, so bound counts by what's left.
        let mut msgs = Vec::with_capacity(p_count.min(buf.len() / 8 + 1));
        let mut muts = Vec::with_capacity(p_count.min(buf.len() / 8 + 1));
        for _ in 0..p_count {
            msgs.push(take_tuples(&mut buf)?);
            muts.push(take_tuples(&mut buf)?);
        }
        if !buf.is_empty() {
            return Err(PregelixError::corrupt("msg log trailing bytes"));
        }
        Ok(MsgLog {
            superstep,
            src,
            msgs,
            muts,
        })
    }
}

fn take_n<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(PregelixError::corrupt("msg log truncated"));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn take_u32(buf: &mut &[u8]) -> Result<u32> {
    Ok(u32::from_le_bytes(take_n(buf, 4)?.try_into().unwrap()))
}

fn take_tuples(buf: &mut &[u8]) -> Result<Vec<Vec<u8>>> {
    let count = take_u32(buf)? as usize;
    let mut tuples = Vec::with_capacity(count.min(buf.len() / 4 + 1));
    for _ in 0..count {
        let len = take_u32(buf)? as usize;
        tuples.push(take_n(buf, len)?.to_vec());
    }
    Ok(tuples)
}

/// Write `log` to its DFS path, probing [`Site::MsgLog`] (ctx = the path)
/// first so chaos tests can tear or drop exactly the nth log file. Returns
/// the byte count written; the *caller* folds it into `log_bytes_written`
/// only when the enclosing superstep commits — tasks race inside a
/// superstep, so counting at write time would make the tally of an aborted
/// one depend on thread scheduling and break chaos-digest double runs.
/// Callers treat any error as a *degraded log*, not a failed superstep.
pub fn write_log(
    dfs: &SimDfs,
    counters: &ClusterCounters,
    job: &JobId,
    log: &MsgLogWriter,
) -> Result<u64> {
    let path = log_path(job, log.superstep, log.src);
    let bytes = log.encode();
    match fault::hit(Site::MsgLog, &path) {
        Some(Fault::TornWrite { keep }) => {
            counters.add_faults_injected(1);
            // Persist the torn prefix so the replay-time CRC check has
            // something to reject, then report the write failed.
            let keep = keep.min(bytes.len());
            let _ = dfs.write(&path, &bytes[..keep]);
            return Err(fault::injected_error(Site::MsgLog, &path));
        }
        Some(_) => {
            counters.add_faults_injected(1);
            return Err(fault::injected_error(Site::MsgLog, &path));
        }
        None => {}
    }
    dfs.write(&path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Read and verify the log written by `src` during `superstep`, probing
/// [`Site::MsgLog`] with ctx `replay:<path>` (distinct from the write-side
/// ctx so chaos rules can target replay reads specifically). Every failure —
/// absence, I/O error, corruption — comes back as
/// `ConfinedRecoveryUnavailable` naming the hole.
pub fn read_log(
    dfs: &SimDfs,
    counters: &ClusterCounters,
    job: &JobId,
    superstep: Superstep,
    src: usize,
) -> Result<MsgLog> {
    let path = log_path(job, superstep, src);
    if fault::active() && fault::hit(Site::MsgLog, &format!("replay:{path}")).is_some() {
        counters.add_faults_injected(1);
        return Err(PregelixError::confined_unavailable(format!(
            "injected {} fault reading {path}",
            Site::MsgLog.name()
        )));
    }
    let bytes = dfs
        .read(&path)
        .map_err(|e| PregelixError::confined_unavailable(format!("log {path}: {e}")))?;
    let log = MsgLog::decode(&bytes)
        .map_err(|e| PregelixError::confined_unavailable(format!("log {path}: {e}")))?;
    if log.superstep != superstep || log.src != src {
        return Err(PregelixError::confined_unavailable(format!(
            "log {path} names superstep {} src {} (expected {superstep}/{src})",
            log.superstep, log.src
        )));
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan, Site};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Minimal self-contained temp dir (avoids a tempfile dependency).
    struct TempDir(PathBuf);
    impl TempDir {
        fn new() -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "pregelix-msglog-test-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample() -> MsgLogWriter {
        let mut w = MsgLogWriter::new(3, 1, 4);
        w.add_msg(0, b"alpha");
        w.add_msg(0, b"beta");
        w.add_msg(2, b"gamma");
        w.add_mut(3, b"delta");
        w
    }

    #[test]
    fn roundtrip_preserves_sections_and_order() {
        let w = sample();
        let log = MsgLog::decode(&w.encode()).unwrap();
        assert_eq!(log.superstep, 3);
        assert_eq!(log.src, 1);
        assert_eq!(log.partitions(), 4);
        assert_eq!(log.messages(0), &[b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(log.messages(1), &[] as &[Vec<u8>]);
        assert_eq!(log.messages(2), &[b"gamma".to_vec()]);
        assert_eq!(log.mutations(3), &[b"delta".to_vec()]);
        assert_eq!(log.mutations(0), &[] as &[Vec<u8>]);
    }

    #[test]
    fn streamed_sections_match_a_naive_reference_encoding() {
        // Reference encoder: the straightforward per-tuple nested-Vec shape
        // the writer used before sections were streamed. The file bytes must
        // be identical so logs written by either are interchangeable.
        let w = sample();
        let msgs: Vec<Vec<&[u8]>> = vec![vec![b"alpha", b"beta"], vec![], vec![b"gamma"], vec![]];
        let muts: Vec<Vec<&[u8]>> = vec![vec![], vec![], vec![], vec![b"delta"]];
        let mut reference = Vec::new();
        reference.extend_from_slice(&MAGIC.to_le_bytes());
        reference.extend_from_slice(&VERSION.to_le_bytes());
        reference.extend_from_slice(&3u64.to_le_bytes());
        reference.extend_from_slice(&1u32.to_le_bytes());
        reference.extend_from_slice(&4u32.to_le_bytes());
        for dst in 0..4 {
            for tuples in [&msgs[dst], &muts[dst]] {
                reference.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
                for t in tuples.iter() {
                    reference.extend_from_slice(&(t.len() as u32).to_le_bytes());
                    reference.extend_from_slice(t);
                }
            }
        }
        let crc = crc32(&reference).to_le_bytes();
        reference.extend_from_slice(&crc);
        assert_eq!(w.encode(), reference);
        // And the streaming section iterator walks the frames back out.
        assert_eq!(
            w.msgs[0].tuples().collect::<Vec<_>>(),
            vec![b"alpha".as_slice(), b"beta".as_slice()]
        );
        assert_eq!(w.muts[3].tuples().collect::<Vec<_>>(), vec![b"delta".as_slice()]);
    }

    #[test]
    fn empty_log_roundtrips() {
        let w = MsgLogWriter::new(7, 0, 2);
        let log = MsgLog::decode(&w.encode()).unwrap();
        assert_eq!(log.partitions(), 2);
        assert!(log.messages(0).is_empty() && log.mutations(1).is_empty());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                MsgLog::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn bitflips_never_decode_silently() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut dup = bytes.clone();
            dup[i] ^= 0x40;
            // The trailing CRC covers every byte, so any single flip is
            // caught (either by the CRC or, for flips inside the CRC field
            // itself, by the mismatch against the intact body).
            assert!(MsgLog::decode(&dup).is_err(), "bit flip at {i} decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let w = sample();
        let mut body = w.encode();
        // Rebuild: extend the body *before* the CRC so the CRC still
        // matches, leaving only the trailing-bytes check to catch it.
        body.truncate(body.len() - 4);
        body.push(0xEE);
        let crc = crc32(&body).to_le_bytes();
        body.extend_from_slice(&crc);
        let err = MsgLog::decode(&body).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn write_and_read_through_dfs_reports_bytes() {
        let dir = TempDir::new();
        let dfs = SimDfs::open(dir.path()).unwrap();
        let counters = ClusterCounters::new();
        let job = JobId::new("j");
        let w = sample();
        let written = write_log(&dfs, &counters, &job, &w).unwrap();
        assert_eq!(written, w.encode().len() as u64);
        // The counter is the caller's job, at superstep commit.
        assert_eq!(counters.log_bytes_written(), 0);
        let log = read_log(&dfs, &counters, &job, 3, 1).unwrap();
        assert_eq!(log.messages(2), &[b"gamma".to_vec()]);
        // Wrong coordinates are a typed unavailability, not a panic.
        let err = read_log(&dfs, &counters, &job, 4, 1).unwrap_err();
        assert!(matches!(err, PregelixError::ConfinedRecoveryUnavailable(_)));
    }

    #[test]
    fn instanced_jobs_log_to_disjoint_paths() {
        let dir = TempDir::new();
        let dfs = SimDfs::open(dir.path()).unwrap();
        let counters = ClusterCounters::new();
        let a = JobId::new("j");
        let b = JobId::with_instance("j", 1);
        assert_ne!(log_path(&a, 3, 1), log_path(&b, 3, 1));
        write_log(&dfs, &counters, &a, &sample()).unwrap();
        // Instance 1 sees no log at its own path even though instance 0
        // wrote one under the same human name.
        assert!(read_log(&dfs, &counters, &b, 3, 1).is_err());
        let mut other = MsgLogWriter::new(3, 1, 4);
        other.add_msg(1, b"omega");
        write_log(&dfs, &counters, &b, &other).unwrap();
        assert_eq!(
            read_log(&dfs, &counters, &a, 3, 1).unwrap().messages(0),
            &[b"alpha".to_vec(), b"beta".to_vec()]
        );
        assert_eq!(
            read_log(&dfs, &counters, &b, 3, 1).unwrap().messages(1),
            &[b"omega".to_vec()]
        );
    }

    #[test]
    fn torn_write_leaves_a_crc_detectable_prefix() {
        let guard = fault::exclusive();
        let dir = TempDir::new();
        let dfs = SimDfs::open(dir.path()).unwrap();
        let counters = ClusterCounters::new();
        let job = JobId::new("j");
        let w = sample();
        let plan = guard.install(FaultPlan::new().on(
            Site::MsgLog,
            "msglog/3/src1",
            1,
            Fault::TornWrite { keep: 10 },
        ));
        assert!(write_log(&dfs, &counters, &job, &w).is_err());
        assert_eq!(plan.injected(), 1);
        guard.clear();
        // The torn prefix is present on the DFS but fails verification.
        assert!(dfs.exists(&log_path(&job, 3, 1)));
        let err = read_log(&dfs, &counters, &job, 3, 1).unwrap_err();
        assert!(matches!(err, PregelixError::ConfinedRecoveryUnavailable(_)));
    }

    #[test]
    fn replay_read_fault_is_a_typed_unavailability() {
        let guard = fault::exclusive();
        let dir = TempDir::new();
        let dfs = SimDfs::open(dir.path()).unwrap();
        let counters = ClusterCounters::new();
        let job = JobId::new("j");
        write_log(&dfs, &counters, &job, &sample()).unwrap();
        let plan = guard.install(FaultPlan::new().on(
            Site::MsgLog,
            "replay:jobs/j/msglog/3/src1",
            1,
            Fault::IoError,
        ));
        let err = read_log(&dfs, &counters, &job, 3, 1).unwrap_err();
        assert!(matches!(err, PregelixError::ConfinedRecoveryUnavailable(_)));
        assert_eq!(plan.injected(), 1);
        guard.clear();
        // The rule fired once; the same read now succeeds (transient site).
        assert!(read_log(&dfs, &counters, &job, 3, 1).is_ok());
    }
}
