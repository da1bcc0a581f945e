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
//! surfaces as `ConfinedRecoveryUnavailable`, which recovery catches to
//! reload every partition instead.
//!
//! ## File layout and codec
//!
//! One file per `(superstep, src)` at `jobs/<job>/msglog/<superstep>/src<p>`:
//!
//! ```text
//! [magic  u32 = MLG1] [version u16 = 2]
//! [superstep u64] [src u32] [p_count u32]
//! p_count × { [messages frame] [mutations frame] }
//! [crc32 over everything above  u32]
//! ```
//!
//! Each section is one frame in the wire form every tuple batch uses
//! (`[n u32][ends u32 × n][tuple bytes]`, see [`crate::frame`]), written by
//! [`Frame::serialize`] and read back by [`Frame::deserialize`] — the codec
//! run files and checkpointed `Msg` runs use. The file carries a CRC, unlike
//! a frame that only moves in memory, because it is read back from the DFS.
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
//! superstep proceeds; a later recovery will find the hole and reload every
//! partition), it never fails the superstep.

use crate::bytes::crc32;
use crate::dfs::SimDfs;
use crate::error::{PregelixError, Result};
use crate::fault::{self, Fault, Site};
use crate::frame::Frame;
use crate::job::JobId;
use crate::stats::ClusterCounters;
use crate::Superstep;

/// File magic: "MLG1" little-endian.
const MAGIC: u32 = 0x3147_4C4D;
/// Codec version (2: each section is a frame).
const VERSION: u16 = 2;
/// Header bytes before the first section.
const HEADER: usize = 4 + 2 + 8 + 4 + 4;

/// DFS directory holding every message log of `job`.
pub fn log_root(job: &JobId) -> String {
    format!("jobs/{job}/msglog")
}

/// DFS path of the log written by partition `src` during `superstep`.
pub fn log_path(job: &JobId, superstep: Superstep, src: usize) -> String {
    format!("jobs/{job}/msglog/{superstep}/src{src}")
}

/// Accumulates one source partition's outbound tuples for one superstep,
/// one frame per destination partition and flow, and encodes them into the
/// log file format above. The tee costs one frame append per tuple and
/// `encode` one wire-form copy per section.
#[derive(Debug)]
pub struct MsgLogWriter {
    superstep: Superstep,
    src: usize,
    /// Per-destination post-combine message sections, emission order.
    msgs: Vec<Frame>,
    /// Per-destination mutation-request sections, emission order.
    muts: Vec<Frame>,
}

impl MsgLogWriter {
    /// Start an empty log for `(superstep, src)` over `p_count` partitions.
    pub fn new(superstep: Superstep, src: usize, p_count: usize) -> Self {
        Self {
            superstep,
            src,
            msgs: vec![Frame::default(); p_count],
            muts: vec![Frame::default(); p_count],
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
        let sections: usize = self
            .msgs
            .iter()
            .chain(&self.muts)
            .map(Frame::wire_len)
            .sum();
        let mut out = Vec::with_capacity(HEADER + sections + 4);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.superstep.to_le_bytes());
        out.extend_from_slice(&(self.src as u32).to_le_bytes());
        out.extend_from_slice(&(self.msgs.len() as u32).to_le_bytes());
        for (msgs, muts) in self.msgs.iter().zip(&self.muts) {
            msgs.serialize(&mut out);
            muts.serialize(&mut out);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

/// A decoded, CRC-verified log file.
#[derive(Debug)]
pub struct MsgLog {
    /// Superstep the log was written during.
    pub superstep: Superstep,
    /// Source partition that wrote it.
    pub src: usize,
    /// `msgs[dst]` / `muts[dst]`: one frame per section, emission order.
    msgs: Vec<Frame>,
    muts: Vec<Frame>,
}

impl MsgLog {
    /// Partition count the log was bucketed over.
    pub fn partitions(&self) -> usize {
        self.msgs.len()
    }

    /// Post-combine message tuples bound for `dst`, emission order.
    pub fn messages(&self, dst: usize) -> &Frame {
        &self.msgs[dst]
    }

    /// Mutation-request tuples bound for `dst`, emission order.
    pub fn mutations(&self, dst: usize) -> &Frame {
        &self.muts[dst]
    }

    /// Decode and verify a log file. Every failure mode — short buffer, bad
    /// magic/version, CRC mismatch, trailing bytes, a malformed or truncated
    /// section — is a `Corrupt` error; callers on the replay path map it to
    /// `ConfinedRecoveryUnavailable`.
    pub fn decode(bytes: &[u8]) -> Result<MsgLog> {
        if bytes.len() < HEADER + 4 {
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
        // A corrupted count could demand absurd allocations; each section
        // costs ≥4 bytes on the wire, so bound counts by what's left.
        let mut msgs = Vec::with_capacity(p_count.min(buf.len() / 8 + 1));
        let mut muts = Vec::with_capacity(p_count.min(buf.len() / 8 + 1));
        for _ in 0..p_count {
            msgs.push(Frame::deserialize(&mut buf)?);
            muts.push(Frame::deserialize(&mut buf)?);
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

    fn tuples(section: &Frame) -> Vec<&[u8]> {
        section.iter().collect()
    }

    /// The frame wire form from its spec, independent of `Frame`:
    /// `[n u32 LE][ends[i] u32 LE × n][tuple data]`.
    fn legacy_frame(tuples: &[&[u8]], out: &mut Vec<u8>) {
        out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
        let mut end = 0u32;
        for t in tuples {
            end += t.len() as u32;
            out.extend_from_slice(&end.to_le_bytes());
        }
        for t in tuples {
            out.extend_from_slice(t);
        }
    }

    /// `sample()` encoded by an independent writer of the layout, with
    /// sections produced by `section`.
    fn reference_file(version: u16, section: impl Fn(&[&[u8]], &mut Vec<u8>)) -> Vec<u8> {
        let msgs: [&[&[u8]]; 4] = [&[b"alpha", b"beta"], &[], &[b"gamma"], &[]];
        let muts: [&[&[u8]]; 4] = [&[], &[], &[], &[b"delta"]];
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&3u64.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&4u32.to_le_bytes());
        for dst in 0..4 {
            section(msgs[dst], &mut out);
            section(muts[dst], &mut out);
        }
        let crc = crc32(&out).to_le_bytes();
        out.extend_from_slice(&crc);
        out
    }

    #[test]
    fn roundtrip_preserves_sections_and_order() {
        let w = sample();
        let log = MsgLog::decode(&w.encode()).unwrap();
        assert_eq!(log.superstep, 3);
        assert_eq!(log.src, 1);
        assert_eq!(log.partitions(), 4);
        assert_eq!(tuples(log.messages(0)), [b"alpha".as_slice(), b"beta"]);
        assert!(log.messages(1).is_empty());
        assert_eq!(tuples(log.messages(2)), [b"gamma".as_slice()]);
        assert_eq!(tuples(log.mutations(3)), [b"delta".as_slice()]);
        assert!(log.mutations(0).is_empty());
    }

    #[test]
    fn streamed_sections_match_a_naive_reference_encoding() {
        // Header, one frame per section in the legacy frame encoding, CRC:
        // the file bytes must be exactly what an independent writer of the
        // layout produces.
        let encoded = sample().encode();
        assert_eq!(encoded, reference_file(VERSION, legacy_frame));
        // Version 1's `[count]([len][tuple])*` sections were exactly as
        // long, so a log costs the same bytes on the DFS as before.
        let v1 = reference_file(1, |tuples, out| {
            out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
            for t in tuples {
                out.extend_from_slice(&(t.len() as u32).to_le_bytes());
                out.extend_from_slice(t);
            }
        });
        assert_eq!(encoded.len(), v1.len());
        assert!(
            MsgLog::decode(&v1).is_err(),
            "a version-1 file is not read as version 2"
        );
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
    fn malformed_section_under_a_valid_crc_is_unavailable() {
        let _guard = fault::exclusive();
        let dir = TempDir::new();
        let dfs = SimDfs::open(dir.path()).unwrap();
        let counters = ClusterCounters::new();
        let job = JobId::new("j");
        // A first section claiming two tuples whose offsets run backwards,
        // then the CRC of exactly those bytes: only the frame decoder
        // stands between this file and replay.
        let mut body = reference_file(VERSION, legacy_frame);
        body.truncate(HEADER);
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&4u32.to_le_bytes());
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&[0u8; 4]);
        for _ in 0..7 {
            body.extend_from_slice(&0u32.to_le_bytes());
        }
        let crc = crc32(&body).to_le_bytes();
        body.extend_from_slice(&crc);
        dfs.write(&log_path(&job, 3, 1), &body).unwrap();
        let err = read_log(&dfs, &counters, &job, 3, 1).unwrap_err();
        assert!(
            matches!(err, PregelixError::ConfinedRecoveryUnavailable(_)),
            "{err}"
        );
        assert!(
            err.to_string().contains("frame offsets not monotone"),
            "{err}"
        );
    }

    #[test]
    fn write_and_read_through_dfs_reports_bytes() {
        // Writes the path the fault tests aim their rules at.
        let _guard = fault::exclusive();
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
        assert_eq!(tuples(log.messages(2)), [b"gamma".as_slice()]);
        // Wrong coordinates are a typed unavailability, not a panic.
        let err = read_log(&dfs, &counters, &job, 4, 1).unwrap_err();
        assert!(matches!(err, PregelixError::ConfinedRecoveryUnavailable(_)));
    }

    #[test]
    fn instanced_jobs_log_to_disjoint_paths() {
        // Writes the path the fault tests aim their rules at.
        let _guard = fault::exclusive();
        let dir = TempDir::new();
        let dfs = SimDfs::open(dir.path()).unwrap();
        let counters = ClusterCounters::new();
        let a = JobId::new("j");
        let b = JobId::new("k");
        assert_ne!(log_path(&a, 3, 1), log_path(&b, 3, 1));
        write_log(&dfs, &counters, &a, &sample()).unwrap();
        // Job `k` sees no log at its own path although `j` wrote one at
        // the same coordinates.
        assert!(read_log(&dfs, &counters, &b, 3, 1).is_err());
        let mut other = MsgLogWriter::new(3, 1, 4);
        other.add_msg(1, b"omega");
        write_log(&dfs, &counters, &b, &other).unwrap();
        let log_a = read_log(&dfs, &counters, &a, 3, 1).unwrap();
        assert_eq!(tuples(log_a.messages(0)), [b"alpha".as_slice(), b"beta"]);
        let log_b = read_log(&dfs, &counters, &b, 3, 1).unwrap();
        assert_eq!(tuples(log_b.messages(1)), [b"omega".as_slice()]);
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
