//! Checkpointing and recovery (§5.5).
//!
//! "The states to be checkpointed at the end of a superstep include
//! `Vertex` and `Msg` (as well as `Vid` if the left outer join approach is
//! used). ... During recovery, Pregelix finds the latest checkpoint and
//! reloads the states to a newly selected set of failure-free worker
//! machines" — scanning, partitioning, sorting and bulk loading `Vertex`
//! (and `Vid`) into fresh indexes, and writing the checkpointed `Msg` data
//! to each partition as a local file.
//!
//! Checkpoint layout in the DFS, per job and superstep boundary `S` (state
//! feeding superstep `S`):
//!
//! ```text
//! jobs/<name>/ckpt/<S>/vertex-p<p>    key/value entry stream
//! jobs/<name>/ckpt/<S>/vid-p<p>       u64 vid stream (LOJ only)
//! jobs/<name>/ckpt/<S>/msg-p<p>       raw Msg run bytes (if any)
//! jobs/<name>/ckpt-manifests/<S>      partition count + GS snapshot
//! ```
//!
//! The `GS` tuple itself keeps its primary copy in the DFS and so is not
//! part of the per-partition state; the manifest snapshots it so recovery
//! restarts from the checkpointed superstep rather than the latest one.

use crate::gs::GlobalState;
use crate::plan::PregelixJob;
use crate::store::VertexStore;
use crate::superstep::PartitionState;
use parking_lot::Mutex;
use pregelix_common::dfs::SimDfs;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::writable::Writable;
use pregelix_common::{JobId, Superstep};
use pregelix_dataflow::cluster::{Cluster, Task};
use pregelix_storage::btree::BTree;
use pregelix_storage::runfile::RunWriter;
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
    /// Whether per-partition Vid index state was checkpointed (LOJ plans).
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
    // LOJ/adaptive plans probe the Vid live-vertex index every superstep; a
    // checkpoint without one cannot feed them (reloading it anyway would
    // surface much later as a missing-index panic mid-join).
    let needs_vid = !matches!(job.plan.join, crate::plan::JoinStrategy::FullOuter);
    if needs_vid && !m.has_vid {
        return Err(PregelixError::corrupt(format!(
            "checkpoint manifest {superstep} lacks the Vid index state required by the {:?} join plan",
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

fn encode_entries(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    (entries.len() as u64).write(&mut out);
    for (k, v) in entries {
        k.write(&mut out);
        v.write(&mut out);
    }
    out
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
            let st = state.lock();
            // Vertex entries.
            let mut entries = Vec::new();
            let mut scan = st.store.scan()?;
            while let Some(e) = scan.next_entry()? {
                entries.push(e);
            }
            dfs.write(&format!("{dir}/vertex-p{p}"), &encode_entries(&entries))?;
            // Vid entries (LOJ).
            if let Some(vt) = &st.vid_index {
                let mut vids = Vec::new();
                let mut vscan = vt.scan()?;
                while let Some((k, _)) = vscan.next_entry()? {
                    vids.push((k, Vec::new()));
                }
                dfs.write(&format!("{dir}/vid-p{p}"), &encode_entries(&vids))?;
            }
            // Msg run bytes, verbatim (works for both in-memory and
            // file-backed runs).
            if let Some(run) = &st.msg_run {
                dfs.write(&format!("{dir}/msg-p{p}"), &run.read_all()?)?;
            }
            Ok(())
        }));
    }
    cluster.execute(tasks)?;
    // Checkpoints happen only at superstep barriers, where every partition
    // has reached the same superstep — the vector the manifest persists
    // (and recovery re-validates). The log watermark pins the oldest
    // superstep whose message logs this checkpoint can count on: GC only
    // retires logs *below* the newest checkpoint, so a checkpoint's own
    // superstep is always safe.
    let manifest = Manifest {
        partitions: partitions.len() as u64,
        has_vid,
        gs: gs.clone(),
        superstep_vector: vec![gs.superstep; partitions.len()],
        logs_enabled: job.confined_recovery,
        log_watermark: gs.superstep,
    };
    dfs.write(
        &manifest_path(&job.id, gs.superstep),
        &encode_manifest(&manifest),
    )
}

/// Latest checkpointed superstep for a job, if any.
pub fn latest_checkpoint(dfs: &SimDfs, job: &JobId) -> Result<Option<Superstep>> {
    let manifests = dfs.list(&manifests_dir(job))?;
    let mut best = None;
    for m in manifests {
        let ss: Superstep = m
            .rsplit('/')
            .next()
            .expect("path has a final segment")
            .parse()
            .map_err(|e| PregelixError::corrupt(format!("bad manifest name {m:?}: {e}")))?;
        best = Some(best.map_or(ss, |b: Superstep| b.max(ss)));
    }
    Ok(best)
}

/// Rebuild the full partition set from a checkpoint onto the currently
/// alive workers. Returns the fresh partition states, their sticky
/// assignment, and the checkpointed `GS`.
///
/// `prev_sticky` is the assignment in force when the failure hit: recovery
/// keeps every surviving pin and moves only the dead workers' partitions
/// (the §5.5 re-plan), so most partitions reload onto machines that
/// already hold their files hot. An empty/mismatched `prev_sticky` (first
/// load, or a checkpoint with a different partition count) falls back to
/// the modular [`sticky_assignment`](pregelix_dataflow::scheduler::sticky_assignment).
pub fn recover(
    cluster: &Cluster,
    job: &PregelixJob,
    superstep: Superstep,
    prev_sticky: &[usize],
) -> Result<(Vec<Arc<Mutex<PartitionState>>>, Vec<usize>, GlobalState)> {
    let dfs = cluster.dfs().clone();
    let manifest = decode_manifest(&dfs.read(&manifest_path(&job.id, superstep))?)?;
    validate_manifest(cluster, job, superstep, &manifest)?;
    let p_count = manifest.partitions as usize;
    let alive = cluster.alive_workers();
    if alive.is_empty() {
        return Err(PregelixError::plan("no alive workers to recover onto"));
    }
    let sticky = if prev_sticky.len() == p_count {
        pregelix_dataflow::scheduler::replan_sticky(prev_sticky, &alive)?
    } else {
        pregelix_dataflow::scheduler::sticky_assignment(p_count, &alive)
    };
    let targets: Vec<usize> = (0..p_count).collect();
    let reloaded = reload_partitions(cluster, job, superstep, &manifest, &sticky, &targets)?;
    let partitions = reloaded
        .into_iter()
        .map(|(_, st)| Arc::new(Mutex::new(st)))
        .collect();
    Ok((partitions, sticky, manifest.gs))
}

/// Reload only `targets` (partition indices) from the checkpoint at
/// `superstep`, each as a task pinned to `sticky[p]`. This is the confined
/// half of §5.5 recovery: survivors keep their live state while the dead
/// worker's partitions are rebuilt — the caller splices the returned states
/// into the existing partition set.
///
/// The caller has already decoded and validated `manifest` (via
/// [`newest_valid_checkpoint`]); this function re-checks only the shape it
/// depends on.
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
    let storage = job.plan.storage;
    let has_vid = manifest.has_vid;
    let slots: Vec<Arc<Mutex<Option<PartitionState>>>> =
        targets.iter().map(|_| Arc::new(Mutex::new(None))).collect();
    let mut tasks = Vec::with_capacity(targets.len());
    for (i, &p) in targets.iter().enumerate() {
        let slot = Arc::clone(&slots[i]);
        let dfs = dfs.clone();
        let dir = dir.clone();
        tasks.push(Task::new(format!("recover[{p}]"), sticky[p], move |w| {
            // Step one (§5.5): scan, partition, sort and bulk load Vertex
            // (and Vid) from the checkpoint into fresh indexes.
            let entries = decode_entries(&dfs.read(&format!("{dir}/vertex-p{p}"))?)?;
            let mut store = VertexStore::create(storage, &w)?;
            store.bulk_load(entries)?;
            let vid_index = if has_vid {
                let vids = decode_entries(&dfs.read(&format!("{dir}/vid-p{p}"))?)?;
                let mut t = BTree::create(w.cache().clone())?;
                t.bulk_load(vids, 1.0)?;
                Some(t)
            } else {
                None
            };
            // Step two: write the checkpointed Msg data to a local file.
            let msg_path = format!("{dir}/msg-p{p}");
            let msg_run = if dfs.exists(&msg_path) {
                let bytes = dfs.read(&msg_path)?;
                let local = w.file_manager().temp_file_path(&format!("msg-rec-p{p}"));
                std::fs::write(&local, &bytes)?;
                // Re-seal as a run handle by re-writing through RunWriter?
                // The bytes are already a valid run file; wrap it directly.
                Some(rewrap_run(&local, bytes.len() as u64, &w)?)
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

/// Find the newest checkpoint that decodes and validates, without reloading
/// anything: the walk [`recover_latest_valid`] performs, minus the reload.
/// Corrupt/torn/inconsistent manifests are skipped in favour of older ones;
/// a recoverable infrastructure error (e.g. an injected manifest-read
/// fault) is returned so the failure manager can retry; `Ok(None)` means no
/// usable checkpoint exists. Confined recovery uses this to pick its replay
/// base and learn the log watermark before touching any partition state.
pub fn newest_valid_checkpoint(
    cluster: &Cluster,
    job: &PregelixJob,
) -> Result<Option<(Superstep, Manifest)>> {
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
        let manifest = match decode_manifest(&bytes) {
            Ok(m) => m,
            Err(_) => continue,
        };
        match validate_manifest(cluster, job, ss, &manifest) {
            Ok(()) => return Ok(Some((ss, manifest))),
            Err(e) if e.is_recoverable() => return Err(e),
            // Invalid checkpoints are skipped, never silently *used*.
            Err(_) => continue,
        }
    }
    Ok(None)
}

/// Recover from the newest checkpoint that decodes and validates, walking
/// manifests newest → oldest. A torn or invalid checkpoint (e.g. a manifest
/// written by [`pregelix_common::fault::Fault::TornWrite`], or one that lies
/// about its partitions) is *skipped* in favour of an older consistent one
/// rather than failing the job; a recoverable infrastructure error during
/// the reload itself is returned so the failure manager can retry. Returns
/// `Ok(None)` when no usable checkpoint exists at all.
#[allow(clippy::type_complexity)]
pub fn recover_latest_valid(
    cluster: &Cluster,
    job: &PregelixJob,
    prev_sticky: &[usize],
) -> Result<Option<(Vec<Arc<Mutex<PartitionState>>>, Vec<usize>, GlobalState)>> {
    let mut supersteps: Vec<Superstep> = cluster
        .dfs()
        .list(&manifests_dir(&job.id))?
        .into_iter()
        .filter_map(|m| m.rsplit('/').next().and_then(|s| s.parse().ok()))
        .collect();
    supersteps.sort_unstable();
    while let Some(ss) = supersteps.pop() {
        match recover(cluster, job, ss, prev_sticky) {
            Ok(recovered) => return Ok(Some(recovered)),
            Err(e) if e.is_recoverable() => return Err(e),
            // Corrupt/torn/inconsistent checkpoint: fall back to the next
            // older one.
            Err(_) => continue,
        }
    }
    Ok(None)
}

/// Wrap raw, already-valid run-file bytes on local disk as a `RunHandle`.
fn rewrap_run(
    path: &std::path::Path,
    _bytes: u64,
    w: &pregelix_dataflow::cluster::WorkerHandle,
) -> Result<pregelix_storage::runfile::RunHandle> {
    // Rewriting through RunWriter revalidates the frames and restores the
    // frame count metadata.
    let raw = std::fs::read(path)?;
    let mut writer = RunWriter::create(path.with_extension("sealed"), w.counters().clone())?;
    let mut cursor: &[u8] = &raw;
    while !cursor.is_empty() {
        if cursor.len() < 4 {
            return Err(PregelixError::corrupt("truncated checkpointed msg run"));
        }
        let len = u32::from_le_bytes(cursor[..4].try_into().expect("4 bytes")) as usize;
        cursor = &cursor[4..];
        if cursor.len() < len {
            return Err(PregelixError::corrupt("truncated checkpointed msg frame"));
        }
        let mut frame_bytes = &cursor[..len];
        let frame = pregelix_common::frame::Frame::deserialize(&mut frame_bytes)?;
        writer.write_frame(&frame)?;
        cursor = &cursor[len..];
    }
    let handle = writer.finish()?;
    std::fs::remove_file(path)?;
    Ok(handle)
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
                let got = newest_valid_checkpoint(&cluster, &job).unwrap();
                prop_assert_eq!(got.as_ref().map(|(ss, _)| *ss), expect);
                if let Some((ss, m)) = got {
                    // The winner really validates — the walk can never
                    // hand back one of the damaged manifests.
                    prop_assert!(validate_manifest(&cluster, &job, ss, &m).is_ok());
                    prop_assert_eq!(m.gs.superstep, ss);
                }
                // `latest_checkpoint` (the validity-blind maximum) must
                // never be *older* than the validated winner.
                let latest = latest_checkpoint(dfs, &job.id).unwrap();
                prop_assert_eq!(latest, Some(damages.len() as Superstep));
            }
        }
    }
}
