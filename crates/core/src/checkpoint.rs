//! Checkpointing and recovery (§5.5).
//!
//! "The states to be checkpointed at the end of a superstep include
//! `Vertex` and `Msg` (as well as `Vid` if the left outer join approach is
//! used). ... During recovery, Pregelix finds the latest checkpoint and
//! reloads the states to a newly selected set of failure-free worker
//! machines" — scanning, partitioning, sorting and bulk loading `Vertex`
//! (and `Vid`) into fresh indexes, and writing the checkpointed `Msg` data
//! to each partition as a local file. Here `Vid` is a sorted run like
//! `Msg`, so both runs are carried verbatim.
//!
//! Checkpoint layout in the DFS, per job and superstep boundary `S` (state
//! feeding superstep `S`):
//!
//! ```text
//! jobs/<name>/ckpt/<S>/vertex-p<p>    key/value entry stream
//! jobs/<name>/ckpt/<S>/vid-p<p>       raw Vid run bytes (LOJ only)
//! jobs/<name>/ckpt/<S>/msg-p<p>       raw Msg run bytes (if any)
//! jobs/<name>/ckpt-manifests/<S>      partition count + GS snapshot
//! ```
//!
//! The `GS` tuple itself keeps its primary copy in the DFS and so is not
//! part of the per-partition state; the manifest snapshots it so recovery
//! restarts from the checkpointed superstep rather than the latest one.

use crate::gs::GlobalState;
use crate::plan::{PregelixJob, VertexStorageKind};
use crate::store::VertexStore;
use crate::superstep::{msg_run_path, vid_run_writer, PartitionState};
use parking_lot::Mutex;
use pregelix_common::dfs::SimDfs;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::frame::Frame;
use pregelix_common::writable::Writable;
use pregelix_common::{JobId, Superstep};
use pregelix_dataflow::cluster::{Cluster, Task};
use pregelix_storage::runfile::{RunHandle, RunWriter};
use std::sync::Arc;

fn ckpt_dir(job: &JobId, superstep: Superstep) -> String {
    format!("jobs/{job}/ckpt/{superstep}")
}

fn manifests_dir(job: &JobId) -> String {
    format!("jobs/{job}/ckpt-manifests")
}

fn manifest_path(job: &JobId, superstep: Superstep) -> String {
    format!("jobs/{job}/ckpt-manifests/{superstep}")
}

/// Decoded checkpoint manifest (codec v2): partition count, whether Vid
/// indexes exist, the GS snapshot, the per-partition superstep vector, and
/// the confined-recovery log fields.
///
/// The vector records which superstep each partition's checkpointed state
/// feeds. Checkpoints are taken only at superstep barriers — where every
/// partition has finished the same superstep — so a *consistent*
/// checkpoint always carries an all-equal vector matching `gs.superstep`,
/// and recovery refuses anything else: replaying partitions from different
/// supersteps would double-apply (or lose) messages.
///
/// `logs_enabled` records whether the job was writing sender-side message
/// logs when the checkpoint committed; `log_watermark` pins the oldest
/// superstep whose logs were still retained (garbage collection never
/// retires logs at or above the newest checkpoint, so for the newest
/// checkpoint the watermark equals its own superstep). Confined recovery
/// refuses to replay any superstep below the watermark.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Number of checkpointed partitions.
    pub partitions: u64,
    /// Whether per-partition Vid runs were checkpointed (LOJ plans).
    pub has_vid: bool,
    /// The GS snapshot feeding superstep `gs.superstep`.
    pub gs: GlobalState,
    /// Per-partition superstep vector (all-equal for a consistent state).
    pub superstep_vector: Vec<Superstep>,
    /// Whether sender-side message logging was active for this job.
    pub logs_enabled: bool,
    /// Oldest superstep whose message logs were retained at commit time.
    pub log_watermark: Superstep,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut out = Vec::new();
    m.partitions.write(&mut out);
    m.has_vid.write(&mut out);
    m.gs.superstep.write(&mut out);
    m.gs.halt.write(&mut out);
    m.gs.aggregate.write(&mut out);
    m.gs.vertex_count.write(&mut out);
    m.gs.live_vertices.write(&mut out);
    m.gs.messages.write(&mut out);
    m.superstep_vector.clone().write(&mut out);
    m.logs_enabled.write(&mut out);
    m.log_watermark.write(&mut out);
    out
}

fn decode_manifest(mut bytes: &[u8]) -> Result<Manifest> {
    let buf = &mut bytes;
    let partitions = u64::read(buf)?;
    let has_vid = bool::read(buf)?;
    let gs = GlobalState {
        superstep: Superstep::read(buf)?,
        halt: bool::read(buf)?,
        aggregate: Vec::<u8>::read(buf)?,
        vertex_count: u64::read(buf)?,
        live_vertices: u64::read(buf)?,
        messages: u64::read(buf)?,
    };
    let superstep_vector = Vec::<Superstep>::read(buf)?;
    let logs_enabled = bool::read(buf)?;
    let log_watermark = Superstep::read(buf)?;
    if !buf.is_empty() {
        return Err(PregelixError::corrupt("trailing bytes in checkpoint manifest"));
    }
    Ok(Manifest {
        partitions,
        has_vid,
        gs,
        superstep_vector,
        logs_enabled,
        log_watermark,
    })
}

/// Upper bound on believable partition counts. A torn or bit-flipped
/// manifest can decode into garbage numbers; rejecting them here turns a
/// would-be allocation storm or missing-file loop into a clean
/// [`PregelixError::Corrupt`].
const MAX_PARTITIONS: u64 = 1 << 20;

/// Validate a decoded manifest against the cluster and job before trusting
/// it for a reload (a manifest is written once and never updated, but torn
/// writes and config drift between runs can still make it lie).
fn validate_manifest(
    cluster: &Cluster,
    job: &PregelixJob,
    superstep: Superstep,
    m: &Manifest,
) -> Result<()> {
    let p_count = m.partitions;
    if p_count == 0 || p_count > MAX_PARTITIONS {
        return Err(PregelixError::corrupt(format!(
            "checkpoint manifest {superstep} claims {p_count} partitions"
        )));
    }
    if m.gs.superstep != superstep {
        return Err(PregelixError::corrupt(format!(
            "checkpoint manifest {superstep} snapshots GS for superstep {}",
            m.gs.superstep
        )));
    }
    // Every partition must have been checkpointed at the same superstep,
    // and that superstep must be the one the GS snapshot feeds.
    if m.superstep_vector.len() as u64 != p_count {
        return Err(PregelixError::corrupt(format!(
            "checkpoint manifest {superstep} carries {} superstep entries for {p_count} partitions",
            m.superstep_vector.len()
        )));
    }
    if let Some(bad) = m.superstep_vector.iter().find(|&&s| s != superstep) {
        return Err(PregelixError::corrupt(format!(
            "checkpoint manifest {superstep} is inconsistent: a partition is at superstep {bad}"
        )));
    }
    // A watermark above the checkpoint's own superstep would let confined
    // recovery replay from logs the writer itself considered retired.
    if m.log_watermark > superstep {
        return Err(PregelixError::corrupt(format!(
            "checkpoint manifest {superstep} claims log watermark {}",
            m.log_watermark
        )));
    }
    // LOJ/adaptive plans read the Vid live-vertex run from superstep 2 on;
    // a later checkpoint without one cannot feed them (reloading it anyway
    // would surface much later as a missing-run error mid-join). Superstep
    // 1 scans and writes the first run.
    let needs_vid =
        !matches!(job.plan.join, crate::plan::JoinStrategy::FullOuter) && superstep > 1;
    if needs_vid && !m.has_vid {
        return Err(PregelixError::corrupt(format!(
            "checkpoint manifest {superstep} lacks the Vid runs required by the {:?} join plan",
            job.plan.join
        )));
    }
    // Every partition the manifest promises must actually be present.
    let dfs = cluster.dfs();
    let dir = ckpt_dir(&job.id, superstep);
    for p in 0..p_count {
        if !dfs.exists(&format!("{dir}/vertex-p{p}")) {
            return Err(PregelixError::corrupt(format!(
                "checkpoint {superstep} is missing vertex-p{p}"
            )));
        }
    }
    Ok(())
}

/// Append one `(key, value)` entry as [`decode_entries`] reads it: each a
/// `Vec<u8>` (a `u32` length, then the bytes).
fn put_entry(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    for bytes in [key, value] {
        (bytes.len() as u32).write(out);
        out.extend_from_slice(bytes);
    }
}

/// A partition's rows as an entry stream, straight from its row cursor: the
/// `u64` count goes in as a placeholder and is patched once the rows are.
fn encode_rows(store: &mut VertexStore) -> Result<Vec<u8>> {
    let mut out = 0u64.to_bytes();
    let mut rows = 0u64;
    let mut cur = store.cursor();
    while cur.next()? {
        put_entry(&mut out, cur.key(), cur.value());
        rows += 1;
    }
    out[..8].copy_from_slice(&rows.to_bytes());
    Ok(out)
}

fn decode_entries(mut bytes: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let buf = &mut bytes;
    let n = u64::read(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let k = Vec::<u8>::read(buf)?;
        let v = Vec::<u8>::read(buf)?;
        out.push((k, v));
    }
    Ok(out)
}

/// Write a checkpoint of the state feeding superstep `gs.superstep`.
pub fn write_checkpoint(
    cluster: &Cluster,
    job: &PregelixJob,
    partitions: &[Arc<Mutex<PartitionState>>],
    sticky: &[usize],
    gs: &GlobalState,
) -> Result<()> {
    let dfs = cluster.dfs().clone();
    let dir = ckpt_dir(&job.id, gs.superstep);
    dfs.delete_dir(&dir)?;
    let has_vid = partitions
        .first()
        .map(|p| p.lock().vid_index.is_some())
        .unwrap_or(false);
    let mut tasks = Vec::with_capacity(partitions.len());
    for (p, state) in partitions.iter().enumerate() {
        let state = Arc::clone(state);
        let dfs = dfs.clone();
        let dir = dir.clone();
        tasks.push(Task::new(format!("ckpt[{p}]"), sticky[p], move |w| {
            w.check_alive()?;
            let mut st = state.lock();
            dfs.write(&format!("{dir}/vertex-p{p}"), &encode_rows(&mut st.store)?)?;
            // Vid (LOJ) and Msg run bytes, verbatim (works for both
            // in-memory and file-backed runs). A Vid run is written even
            // when empty: the manifest promises one per partition.
            if let Some(run) = &st.vid_index {
                dfs.write(&format!("{dir}/vid-p{p}"), &run.read_all()?)?;
            }
            if let Some(run) = &st.msg_run {
                dfs.write(&format!("{dir}/msg-p{p}"), &run.read_all()?)?;
            }
            Ok(())
        }));
    }
    cluster.execute(tasks)?;
    // Checkpoints happen only at superstep barriers, where every partition
    // has reached the same superstep — the vector the manifest persists
    // (and recovery re-validates). Message logging is on whenever
    // checkpointing is. The log watermark pins the oldest superstep whose
    // message logs this checkpoint can count on: GC only retires logs
    // *below* the newest checkpoint, so a checkpoint's own superstep is
    // always safe.
    let manifest = Manifest {
        partitions: partitions.len() as u64,
        has_vid,
        gs: gs.clone(),
        superstep_vector: vec![gs.superstep; partitions.len()],
        logs_enabled: true,
        log_watermark: gs.superstep,
    };
    dfs.write(
        &manifest_path(&job.id, gs.superstep),
        &encode_manifest(&manifest),
    )
}

/// Reload `targets` (partition indices) from the checkpoint at `superstep`,
/// each as a task pinned to `sticky[p]` — the lost partitions of a §5.5
/// recovery, which the caller splices into the existing partition set.
///
/// The caller has already decoded and validated `manifest` (via
/// [`walk_valid`]); this function re-checks only the shape it depends on.
pub fn reload_partitions(
    cluster: &Cluster,
    job: &PregelixJob,
    superstep: Superstep,
    manifest: &Manifest,
    sticky: &[usize],
    targets: &[usize],
) -> Result<Vec<(usize, PartitionState)>> {
    if sticky.len() != manifest.partitions as usize {
        return Err(PregelixError::plan(format!(
            "reload of checkpoint {superstep}: {} sticky pins for {} partitions",
            sticky.len(),
            manifest.partitions
        )));
    }
    let dfs = cluster.dfs().clone();
    let dir = ckpt_dir(&job.id, superstep);
    let has_vid = manifest.has_vid;
    let slots: Vec<Arc<Mutex<Option<PartitionState>>>> =
        targets.iter().map(|_| Arc::new(Mutex::new(None))).collect();
    let mut tasks = Vec::with_capacity(targets.len());
    for (i, &p) in targets.iter().enumerate() {
        let slot = Arc::clone(&slots[i]);
        let dfs = dfs.clone();
        let dir = dir.clone();
        let job_tag = job.id.tag().to_string();
        tasks.push(Task::new(format!("recover[{p}]"), sticky[p], move |w| {
            // Step one (§5.5): scan, partition, sort and bulk load Vertex
            // from the checkpoint into a fresh index; re-seal the Vid run
            // the way `compute[p]` holds it.
            let entries = decode_entries(&dfs.read(&format!("{dir}/vertex-p{p}"))?)?;
            let mut store = VertexStore::create(VertexStorageKind::BTree, &w)?;
            store.bulk_load(entries)?;
            let vid_index = if has_vid {
                let bytes = dfs.read(&format!("{dir}/vid-p{p}"))?;
                Some(restore_run(&bytes, vid_run_writer(&w, &job_tag, p, None))?)
            } else {
                None
            };
            // Step two: write the checkpointed Msg data to a local file —
            // the one the live `msgwrite[p]` would have written it to.
            let msg_path = format!("{dir}/msg-p{p}");
            let msg_run = if dfs.exists(&msg_path) {
                let bytes = dfs.read(&msg_path)?;
                let path = msg_run_path(w.file_manager().root(), &job_tag, p, superstep);
                Some(restore_run(&bytes, RunWriter::create(path, w.counters().clone())?)?)
            } else {
                None
            };
            *slot.lock() = Some(PartitionState {
                store,
                vid_index,
                msg_run,
            });
            Ok(())
        }));
    }
    cluster.execute(tasks)?;
    Ok(targets
        .iter()
        .zip(slots)
        .map(|(&p, s)| {
            let st = s.lock().take().expect("recover task filled the slot");
            (p, st)
        })
        .collect())
}

/// The recovery walk: offer the job's checkpoints, newest → oldest, to
/// `try_use` until it takes one, and return what it made of it.
///
/// A checkpoint is offered only if its manifest decodes and validates:
/// torn, corrupt or inconsistent ones (a manifest written by
/// [`pregelix_common::fault::Fault::TornWrite`], one that lies about its
/// partitions) are skipped, never used. A checkpoint `try_use` fails on
/// with a non-recoverable error is skipped the same way, for the next older
/// one. A recoverable error — a flaky manifest read, a worker lost
/// mid-reload — ends the walk so the failure manager can retry. `Ok(None)`:
/// no checkpoint was usable.
pub fn walk_valid<T>(
    cluster: &Cluster,
    job: &PregelixJob,
    mut try_use: impl FnMut(Superstep, Manifest) -> Result<T>,
) -> Result<Option<T>> {
    let mut supersteps: Vec<Superstep> = cluster
        .dfs()
        .list(&manifests_dir(&job.id))?
        .into_iter()
        .filter_map(|m| m.rsplit('/').next().and_then(|s| s.parse().ok()))
        .collect();
    supersteps.sort_unstable();
    while let Some(ss) = supersteps.pop() {
        let bytes = match cluster.dfs().read(&manifest_path(&job.id, ss)) {
            Ok(b) => b,
            Err(e) if e.is_recoverable() => return Err(e),
            Err(_) => continue,
        };
        let Ok(manifest) = decode_manifest(&bytes) else {
            continue;
        };
        let used =
            validate_manifest(cluster, job, ss, &manifest).and_then(|()| try_use(ss, manifest));
        match used {
            Ok(t) => return Ok(Some(t)),
            Err(e) if e.is_recoverable() => return Err(e),
            Err(_) => continue,
        }
    }
    Ok(None)
}

/// Re-seal a checkpointed `Msg` or `Vid` run: decode its `[u32 len][frame]`
/// records straight from the DFS bytes into `writer`. A truncated or
/// corrupt record fails the reload, and the unfinished writer deletes what
/// it wrote.
fn restore_run(mut raw: &[u8], mut writer: RunWriter) -> Result<RunHandle> {
    while !raw.is_empty() {
        let len = match raw.get(..4) {
            Some(head) => u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize,
            None => return Err(PregelixError::corrupt("truncated checkpointed run")),
        };
        let Some(mut record) = raw.get(4..4 + len) else {
            return Err(PregelixError::corrupt("truncated checkpointed run frame"));
        };
        writer.write_frame(&Frame::deserialize(&mut record)?)?;
        raw = &raw[4 + len..];
    }
    writer.finish()
}

/// Remove a job's checkpoints, message logs, and GS history
/// (post-completion cleanup).
pub fn clear_checkpoints(dfs: &SimDfs, job: &JobId) -> Result<()> {
    dfs.delete_dir(&format!("jobs/{job}/ckpt"))?;
    dfs.delete_dir(&manifests_dir(job))?;
    dfs.delete_dir(&pregelix_common::msglog::log_root(job))?;
    dfs.delete_dir(&GlobalState::hist_dir(job))
}

/// Garbage-collect recovery state made obsolete by a newer checkpoint:
/// checkpoint directories, manifests, per-superstep message logs, and GS
/// history entries for supersteps strictly below `newest`. Runs only after
/// a checkpoint at `newest` has fully committed, so everything retired here
/// is provably unreachable by a correct recovery (both paths pick the
/// newest valid checkpoint first). Best-effort by design: a failed deletion
/// must never masquerade as a job fault, so errors are swallowed and the
/// affected state is simply retired on the next pass. Returns the bytes
/// retired, which are also accounted to `ckpt_bytes_retired`.
pub fn retire_old_state(
    dfs: &SimDfs,
    counters: &pregelix_common::stats::ClusterCounters,
    job: &JobId,
    newest: Superstep,
) -> u64 {
    let mut retired: u64 = 0;
    // Helper: parse the superstep a path's final segment names.
    let superstep_of = |path: &str| -> Option<Superstep> {
        path.rsplit('/').next().and_then(|s| s.parse().ok())
    };
    // Checkpoint data directories + message-log directories, one per
    // superstep.
    for root in [format!("jobs/{job}/ckpt"), pregelix_common::msglog::log_root(job)] {
        for sub in dfs.list_dirs(&root).unwrap_or_default() {
            if superstep_of(&sub).is_some_and(|s| s < newest) {
                retired += dfs.size(&sub).unwrap_or(0);
                let _ = dfs.delete_dir(&sub);
            }
        }
    }
    // Manifests + GS history entries, one file per superstep.
    for root in [manifests_dir(job), GlobalState::hist_dir(job)] {
        for file in dfs.list(&root).unwrap_or_default() {
            if superstep_of(&file).is_some_and(|s| s < newest) {
                retired += dfs.size(&file).unwrap_or(0);
                let _ = dfs.delete(&file);
            }
        }
    }
    if retired > 0 {
        counters.add_ckpt_bytes_retired(retired);
    }
    retired
}

#[cfg(test)]
mod tests {
    use super::*;
    use pregelix_common::stats::ClusterCounters;

    fn manifest_for(gs: GlobalState, partitions: u64, has_vid: bool) -> Manifest {
        let vector = vec![gs.superstep; partitions as usize];
        let log_watermark = gs.superstep;
        Manifest {
            partitions,
            has_vid,
            gs,
            superstep_vector: vector,
            logs_enabled: true,
            log_watermark,
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let gs = GlobalState {
            superstep: 9,
            halt: false,
            aggregate: vec![4, 5],
            vertex_count: 77,
            live_vertices: 3,
            messages: 12,
        };
        let m = manifest_for(gs, 8, true);
        let back = decode_manifest(&encode_manifest(&m)).unwrap();
        assert_eq!(back, m);
        assert!(back.logs_enabled);
        assert_eq!(back.log_watermark, 9);
    }

    fn encode_entries(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut out = (entries.len() as u64).to_bytes();
        for (k, v) in entries {
            put_entry(&mut out, k, v);
        }
        out
    }

    #[test]
    fn entries_roundtrip() {
        let entries = vec![
            (vec![1u8, 2], vec![3u8]),
            (vec![4u8], vec![]),
        ];
        assert_eq!(decode_entries(&encode_entries(&entries)).unwrap(), entries);
        assert!(decode_entries(&[1, 2, 3]).is_err());
    }

    #[test]
    fn retire_old_state_keeps_newest_and_counts_bytes() {
        let dir = std::env::temp_dir().join(format!("pregelix-gc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dfs = SimDfs::open(&dir).unwrap();
        let counters = pregelix_common::stats::ClusterCounters::new();
        for ss in 1..=3u64 {
            dfs.write(&format!("jobs/j/ckpt/{ss}/vertex-p0"), b"vvvv").unwrap();
            dfs.write(&format!("jobs/j/ckpt-manifests/{ss}"), b"mm").unwrap();
            dfs.write(&format!("jobs/j/msglog/{ss}/src0"), b"lll").unwrap();
            dfs.write(&format!("jobs/j/gs-hist/{ss}"), b"g").unwrap();
        }
        let job = JobId::new("j");
        let retired = retire_old_state(&dfs, &counters, &job, 3);
        // Supersteps 1 and 2: (4 + 2 + 3 + 1) bytes each.
        assert_eq!(retired, 2 * 10);
        assert_eq!(counters.ckpt_bytes_retired(), 20);
        for ss in 1..=2u64 {
            assert!(!dfs.exists(&format!("jobs/j/ckpt/{ss}/vertex-p0")));
            assert!(!dfs.exists(&format!("jobs/j/ckpt-manifests/{ss}")));
            assert!(!dfs.exists(&format!("jobs/j/msglog/{ss}/src0")));
            assert!(!dfs.exists(&format!("jobs/j/gs-hist/{ss}")));
        }
        assert!(dfs.exists("jobs/j/ckpt/3/vertex-p0"));
        assert!(dfs.exists("jobs/j/ckpt-manifests/3"));
        assert!(dfs.exists("jobs/j/msglog/3/src0"));
        assert!(dfs.exists("jobs/j/gs-hist/3"));
        // Idempotent: a second pass retires nothing.
        assert_eq!(retire_old_state(&dfs, &counters, &job, 3), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpointed `Msg` run comes back frame for frame at the path it is
    /// given; cut short anywhere, it fails and leaves no file behind.
    #[test]
    fn restored_msg_run_is_rewritten_in_place_or_not_at_all() {
        let dir = pregelix_storage::file::TempDir::new("msg-restore").unwrap();
        let counters = ClusterCounters::new();
        let mut frame = Frame::new();
        for vid in 0..50u64 {
            assert!(frame.try_append(&pregelix_common::frame::keyed_tuple(vid, b"m")));
        }
        let mut raw = Vec::new();
        for _ in 0..3 {
            let mut record = Vec::new();
            frame.serialize(&mut record);
            raw.extend_from_slice(&(record.len() as u32).to_le_bytes());
            raw.extend_from_slice(&record);
        }
        let path = dir.path().join("msg-j-p0-1.run");
        let restore = |raw: &[u8]| {
            restore_run(raw, RunWriter::create(path.clone(), counters.clone()).unwrap())
        };
        let run = restore(&raw).unwrap();
        assert_eq!((run.path(), run.frames()), (Some(path.as_path()), 3));
        assert_eq!(run.read_all().unwrap(), raw);
        for cut in [1, 4, raw.len() / 2, raw.len() - 1] {
            assert!(restore(&raw[..cut]).is_err());
            assert!(!path.exists(), "a {cut}-byte prefix left its run behind");
        }
    }

    #[test]
    fn manifest_rejects_trailing_bytes() {
        let gs = GlobalState::initial(5, Vec::new());
        let mut bytes = encode_manifest(&manifest_for(gs, 2, false));
        bytes.push(0);
        assert!(decode_manifest(&bytes).is_err());
    }

    mod codec_props {
        use super::*;
        use proptest::prelude::*;

        prop_compose! {
            fn arb_manifest()(
                partitions in any::<u64>(),
                has_vid in any::<bool>(),
                superstep in any::<u64>(),
                halt in any::<bool>(),
                aggregate in proptest::collection::vec(any::<u8>(), 0..64),
                vertex_count in any::<u64>(),
                live_vertices in any::<u64>(),
                messages in any::<u64>(),
                vector in proptest::collection::vec(any::<u64>(), 0..32),
                logs_enabled in any::<bool>(),
                log_watermark in any::<u64>(),
            ) -> Manifest {
                Manifest {
                    partitions,
                    has_vid,
                    gs: GlobalState {
                        superstep,
                        halt,
                        aggregate,
                        vertex_count,
                        live_vertices,
                        messages,
                    },
                    superstep_vector: vector,
                    logs_enabled,
                    log_watermark,
                }
            }
        }

        proptest! {
            #[test]
            fn manifest_codec_roundtrips(m in arb_manifest()) {
                let bytes = encode_manifest(&m);
                let back = decode_manifest(&bytes).unwrap();
                prop_assert_eq!(back, m);
            }

            /// Any strict prefix of a manifest must decode to an error —
            /// a torn write can never be mistaken for a valid checkpoint.
            #[test]
            fn truncated_manifest_always_errors(
                m in arb_manifest(),
                cut_frac in 0.0f64..1.0,
            ) {
                let bytes = encode_manifest(&m);
                let cut = ((bytes.len() as f64) * cut_frac) as usize;
                prop_assume!(cut < bytes.len());
                prop_assert!(decode_manifest(&bytes[..cut]).is_err());
            }

            /// Bit flips may decode to garbage or to an error, but must
            /// never panic or over-allocate.
            #[test]
            fn bitflipped_manifest_never_panics(
                m in arb_manifest(),
                idx in any::<usize>(),
                bit in 0u8..8,
            ) {
                let mut bytes = encode_manifest(&m);
                let i = idx % bytes.len();
                bytes[i] ^= 1 << bit;
                let _ = decode_manifest(&bytes);
            }

            /// A manifest whose superstep vector disagrees with the GS (or
            /// with the partition count) must fail recovery validation
            /// before any state is reloaded. Exercised here through the
            /// vector checks alone — the cluster-dependent checks are
            /// covered by `walk_props` below and the integration suites.
            #[test]
            fn skewed_superstep_vector_is_rejected_by_length(
                n in 1u64..16,
                extra in 1u64..4,
            ) {
                let gs = GlobalState { superstep: 3, ..GlobalState::initial(5, Vec::new()) };
                // Wrong length: n partitions but n+extra entries.
                let m = Manifest {
                    partitions: n,
                    has_vid: false,
                    superstep_vector: vec![gs.superstep; (n + extra) as usize],
                    logs_enabled: false,
                    log_watermark: gs.superstep,
                    gs,
                };
                let back = decode_manifest(&encode_manifest(&m)).unwrap();
                prop_assert_eq!(back.partitions, n);
                prop_assert_eq!(back.gs.superstep, 3);
                prop_assert!(back.superstep_vector.len() as u64 != back.partitions);
            }
        }
    }

    /// Walk-ordering properties of the newest-valid-checkpoint search over
    /// interleaved valid, torn, missing-partition-file, and skewed-vector
    /// manifests: the newest *valid* one always wins, and no invalid
    /// manifest is ever silently accepted.
    mod walk_props {
        use super::*;
        use pregelix_dataflow::cluster::{Cluster, ClusterConfig};
        use proptest::prelude::*;

        /// How one checkpoint in the generated history is damaged.
        #[derive(Clone, Copy, Debug)]
        enum Damage {
            /// Fully intact: manifest decodes, validates, files present.
            Valid,
            /// The manifest write tore: only a prefix reached the DFS.
            Torn,
            /// The manifest is intact but a vertex file is gone.
            MissingFile,
            /// The per-partition superstep vector disagrees with the GS.
            SkewedVector,
        }

        fn arb_damage() -> impl Strategy<Value = Damage> {
            prop_oneof![
                2 => Just(Damage::Valid),
                1 => Just(Damage::Torn),
                1 => Just(Damage::MissingFile),
                1 => Just(Damage::SkewedVector),
            ]
        }

        /// Plant a checkpoint at `ss` with the given damage. `p_count`
        /// vertex files are written (or all but one, for `MissingFile`).
        fn plant(dfs: &SimDfs, job: &JobId, ss: Superstep, p_count: u64, damage: Damage) {
            let gs = GlobalState {
                superstep: ss,
                ..GlobalState::initial(10, Vec::new())
            };
            let mut vector = vec![ss; p_count as usize];
            if matches!(damage, Damage::SkewedVector) {
                vector[0] = ss + 1;
            }
            let m = Manifest {
                partitions: p_count,
                has_vid: false,
                gs,
                superstep_vector: vector,
                logs_enabled: false,
                log_watermark: ss,
            };
            let bytes = encode_manifest(&m);
            let manifest_bytes = if matches!(damage, Damage::Torn) {
                bytes[..bytes.len() / 2].to_vec()
            } else {
                bytes
            };
            dfs.write(&manifest_path(job, ss), &manifest_bytes).unwrap();
            let dir = ckpt_dir(job, ss);
            let keep = if matches!(damage, Damage::MissingFile) {
                p_count - 1
            } else {
                p_count
            };
            for p in 0..keep {
                dfs.write(&format!("{dir}/vertex-p{p}"), &encode_entries(&[]))
                    .unwrap();
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: std::env::var("PROPTEST_CASES")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(16),
                ..ProptestConfig::default()
            })]

            #[test]
            fn newest_valid_wins_and_invalid_never_slips_past(
                damages in proptest::collection::vec(arb_damage(), 1..8),
                p_count in 1u64..4,
            ) {
                let cluster = Cluster::new(ClusterConfig::new(1, 8 << 20)).unwrap();
                let job = PregelixJob::new("walk-props");
                let dfs = cluster.dfs();
                for (i, &d) in damages.iter().enumerate() {
                    plant(dfs, &job.id, (i + 1) as Superstep, p_count, d);
                }
                // The model: the winner is the greatest superstep whose
                // checkpoint is fully intact.
                let expect = damages
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|(_, d)| matches!(d, Damage::Valid))
                    .map(|(i, _)| (i + 1) as Superstep);
                let got = walk_valid(&cluster, &job, |ss, m| Ok((ss, m))).unwrap();
                prop_assert_eq!(got.as_ref().map(|(ss, _)| *ss), expect);
                if let Some((ss, m)) = got {
                    // The winner really validates — the walk can never
                    // hand back one of the damaged manifests.
                    prop_assert!(validate_manifest(&cluster, &job, ss, &m).is_ok());
                    prop_assert_eq!(m.gs.superstep, ss);
                }
            }
        }
    }
}
