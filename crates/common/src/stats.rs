//! Cluster-wide counters: the statistics collector substrate (§5.7).
//!
//! The Pregelix statistics collector gathers system counters (I/O rate,
//! network usage, memory) and Pregel-specific counters (vertex count, live
//! vertex count, message count) per job. [`ClusterCounters`] is the shared
//! atomic backing store those numbers come from; [`StatsSnapshot`] is the
//! serializable point-in-time view reported to harnesses and printed by the
//! benchmark tables.

//! ## Per-job counter scopes
//!
//! A long-running multi-tenant service shares one [`ClusterCounters`] across
//! every admitted job, so the cluster totals alone cannot attribute work to
//! the job that did it. A *scope* is a second `ClusterCounters` installed
//! thread-locally via [`enter_job_scope`]: while the guard lives, every
//! increment on any counter set is tee'd into the scope as well. The job
//! service installs one scope per job — on the driver thread around each
//! scheduling quantum, and (via the cluster executor) on every worker thread
//! running that job's tasks — which works precisely because superstep
//! windows of different jobs are serialized, never interleaved, so at any
//! instant all running tasks belong to one job.

use serde::Serialize;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// The per-job counter scope installed on this thread, if any.
    static JOB_SCOPE: RefCell<Option<ClusterCounters>> = const { RefCell::new(None) };
}

/// Install `scope` as this thread's per-job counter scope until the returned
/// guard drops (the previous scope, if any, is restored). While installed,
/// every counter increment — on *any* `ClusterCounters` except the scope
/// itself — is mirrored into `scope`.
pub fn enter_job_scope(scope: &ClusterCounters) -> JobScopeGuard {
    let prev = JOB_SCOPE.with(|s| s.borrow_mut().replace(scope.clone()));
    JobScopeGuard { prev }
}

/// This thread's currently-installed per-job scope, if any.
pub fn current_job_scope() -> Option<ClusterCounters> {
    JOB_SCOPE.with(|s| s.borrow().clone())
}

/// RAII guard restoring the previously-installed scope on drop.
#[must_use = "dropping the guard immediately uninstalls the scope"]
pub struct JobScopeGuard {
    prev: Option<ClusterCounters>,
}

impl Drop for JobScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        JOB_SCOPE.with(|s| *s.borrow_mut() = prev);
    }
}

/// Shared atomic counters. Cheap to clone; clones share the same counters.
#[derive(Clone, Debug, Default)]
pub struct ClusterCounters {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    /// Bytes read from local disk (buffer-cache misses, run files, Msg files).
    disk_read_bytes: AtomicU64,
    /// Bytes written to local disk.
    disk_write_bytes: AtomicU64,
    /// Bytes moved across inter-worker connector channels ("network").
    network_bytes: AtomicU64,
    /// Frames moved across inter-worker connector channels.
    network_frames: AtomicU64,
    /// Pregel messages sent (pre-combination).
    messages_sent: AtomicU64,
    /// Pregel messages delivered after combination.
    messages_combined: AtomicU64,
    /// `compute` UDF invocations.
    compute_calls: AtomicU64,
    /// Buffer-cache page hits.
    cache_hits: AtomicU64,
    /// Buffer-cache page misses (each implies a disk page read).
    cache_misses: AtomicU64,
    /// Pages evicted from the buffer cache.
    cache_evictions: AtomicU64,
    /// External-sort runs spilled by group-by/sort operators.
    sort_runs_spilled: AtomicU64,
    /// Tuple bytes written into spilled sort/group-by runs (spill *volume*,
    /// complementing the run count above).
    sort_bytes_spilled: AtomicU64,
    /// Fresh chunk allocations performed by tuple arenas (pooled reuse is
    /// not counted, so this stays O(buffer budget / chunk size) on a
    /// healthy message path regardless of tuple count).
    arena_frames_allocated: AtomicU64,
    /// Sort entries ordered by the LSB radix path (software
    /// write-combining message sort); entries taken by a comparison
    /// fallback are not counted.
    radix_sort_entries: AtomicU64,
    /// Radix passes a naive 8-pass byte radix would have run that the
    /// sorter's plan avoided: constant key bits outside the varying
    /// bit-span (the common case for the high key bytes of small vid
    /// ranges), presorted batches, and multi-bit digit windows that
    /// cover the span in fewer passes.
    radix_passes_skipped: AtomicU64,
    /// Comparison-sort invocations on the sort path: whole-batch
    /// fallbacks (batches below the radix threshold or forced comparison
    /// mode) plus equal-prefix tie groups resolved by full-tuple byte
    /// comparison after the radix passes.
    sort_comparison_fallbacks: AtomicU64,
    /// Faults injected by an installed [`crate::fault::FaultPlan`] (always 0
    /// in production).
    faults_injected: AtomicU64,
    /// Recoverable-operation retries performed by the runtime's
    /// retry-with-backoff path (§5.7).
    fault_retries: AtomicU64,
    /// Frames retransmitted by the reliable connector transport after a
    /// drop/corruption nack (always 0 on a clean wire).
    frames_retransmitted: AtomicU64,
    /// Duplicate frames discarded by receiver-side sequence-number dedup.
    frames_deduped: AtomicU64,
    /// Frames discarded by the receiver because the envelope CRC did not
    /// match the payload (each one is subsequently retransmitted).
    frames_corrupted: AtomicU64,
    /// Workers declared dead by the missed-beat failure detector and
    /// blacklisted from scheduling.
    workers_declared_dead: AtomicU64,
    /// Sorted-probe cursor lookups answered from an already-pinned leaf (or
    /// a single sibling hop) without a root-to-leaf descent.
    probe_leaf_hits: AtomicU64,
    /// Sorted-probe cursor lookups that had to re-descend from the root
    /// because the key jumped past the pinned leaf's fence.
    probe_redescents: AtomicU64,
    /// Buffer-cache page pins performed on behalf of probe cursors
    /// (descents and sibling hops; answering from the pinned leaf is free).
    probe_page_pins: AtomicU64,
    /// LSM point probes that skipped a disk component because its bloom
    /// filter proved the key absent.
    bloom_negatives: AtomicU64,
    /// LSM point probes where a bloom filter said "maybe" but the component
    /// B-tree did not contain the key (wasted descent; measures filter
    /// quality).
    bloom_false_positives: AtomicU64,
    /// Gated (frontier-mode) partition superstep starts: every time a
    /// partition's compute task began superstep *i+1* inside an execution
    /// window by consuming its per-partition gate signals rather than a
    /// cluster-wide barrier. Data-derived (counts gate consumptions), never
    /// timing-derived, so it is stable across identical runs.
    frontier_advances: AtomicU64,
    /// The subset of `frontier_advances` where the partition advanced
    /// *early* — before the global-state task for the previous superstep
    /// finished — because a positive partition-local count (combined
    /// messages, live vertices, or live insertions) already proved the job
    /// could not halt. Each one is a cluster-wide barrier wait that barrier
    /// mode would have paid.
    barrier_waits_avoided: AtomicU64,
    /// Confined recoveries completed: worker deaths healed by reloading and
    /// replaying *only* the dead worker's partitions from survivors' message
    /// logs, leaving survivors' state hot (§5.5 degradation ladder).
    confined_recoveries: AtomicU64,
    /// Confined-recovery attempts that found a hole (missing/torn log, GC
    /// race, stale GS history) and fell back to the global rollback path.
    confined_fallbacks: AtomicU64,
    /// Bytes of post-combine message/mutation log written to the DFS by the
    /// sender-side tee (per-(superstep, src-partition) log files).
    log_bytes_written: AtomicU64,
    /// Logged per-(src → dead-partition) runs fed back through the replay
    /// group-by during a confined recovery.
    log_runs_replayed: AtomicU64,
    /// Bytes of checkpoint, message-log, and GS-history files retired by
    /// garbage collection after a newer checkpoint committed.
    ckpt_bytes_retired: AtomicU64,
    /// Fresh backing buffers allocated by the shared byte-slab
    /// ([`crate::bytes::BytesSlab`]). Pool hits are not counted, so on a
    /// steady-state frame path this converges to the peak number of frames
    /// simultaneously in flight, independent of total frames moved.
    slab_allocations: AtomicU64,
    /// Backing buffers recycled through the slab pool: buffers whose last
    /// [`crate::bytes::BytesSlice`] ref dropped and that a later
    /// [`crate::bytes::BytesSlab::harvest`] restocked for reuse. Harvest runs
    /// only at deterministic commit points (superstep-window boundaries), so
    /// this count is scheduling-invariant.
    slab_recycled: AtomicU64,
    /// Frame payload bytes copied *beyond* the single canonical wire
    /// encoding: slab-slice detaches (`BytesSlice::detach`) and shared-frame
    /// materializations (`SharedFrame::to_frame`). Structurally zero on the
    /// zero-copy transport path — clean or faulted — which is what the
    /// `zero_copy` suite pins.
    frame_bytes_copied: AtomicU64,
    /// Outgoing messages a `compute[p]` task folded straight into its
    /// direct-address table slot (no tuple, no sort entry, no run file).
    msgs_folded_direct: AtomicU64,
    /// Outgoing messages that took the sorter *while a table was active*:
    /// their destination vid lies at or above the table's `hi` (a vertex
    /// created after load, or one that does not exist).
    msgs_stray: AtomicU64,
    /// Maximum observed partition superstep skew (overwrite-by-max): 1 when
    /// some in-window superstep boundary saw a strict subset of partitions
    /// advance early (so partitions were momentarily one superstep apart),
    /// 0 otherwise. The window executor's stream-close rule bounds skew to
    /// one superstep, so this is an indicator, not an unbounded gauge.
    max_partition_skew: AtomicU64,
    /// Vertices alive at the end of the most recent superstep.
    live_vertices: AtomicU64,
}

macro_rules! counter_api {
    ($($add:ident / $get:ident => $field:ident),* $(,)?) => {
        impl ClusterCounters {
            $(
                #[doc = concat!("Increment `", stringify!($field), "` by `n`.")]
                #[inline]
                pub fn $add(&self, n: u64) {
                    self.inner.$field.fetch_add(n, Ordering::Relaxed);
                    self.tee(|scope| {
                        scope.inner.$field.fetch_add(n, Ordering::Relaxed);
                    });
                }
                #[doc = concat!("Current value of `", stringify!($field), "`.")]
                #[inline]
                pub fn $get(&self) -> u64 {
                    self.inner.$field.load(Ordering::Relaxed)
                }
            )*
        }
    };
}

counter_api! {
    add_disk_read / disk_read_bytes => disk_read_bytes,
    add_disk_write / disk_write_bytes => disk_write_bytes,
    add_network_bytes / network_bytes => network_bytes,
    add_network_frames / network_frames => network_frames,
    add_messages_sent / messages_sent => messages_sent,
    add_messages_combined / messages_combined => messages_combined,
    add_compute_calls / compute_calls => compute_calls,
    add_cache_hits / cache_hits => cache_hits,
    add_cache_misses / cache_misses => cache_misses,
    add_cache_evictions / cache_evictions => cache_evictions,
    add_sort_runs / sort_runs_spilled => sort_runs_spilled,
    add_sort_bytes_spilled / sort_bytes_spilled => sort_bytes_spilled,
    add_arena_frames / arena_frames_allocated => arena_frames_allocated,
    add_radix_sort_entries / radix_sort_entries => radix_sort_entries,
    add_radix_passes_skipped / radix_passes_skipped => radix_passes_skipped,
    add_sort_comparison_fallbacks / sort_comparison_fallbacks => sort_comparison_fallbacks,
    add_faults_injected / faults_injected => faults_injected,
    add_fault_retries / fault_retries => fault_retries,
    add_frames_retransmitted / frames_retransmitted => frames_retransmitted,
    add_frames_deduped / frames_deduped => frames_deduped,
    add_frames_corrupted / frames_corrupted => frames_corrupted,
    add_workers_declared_dead / workers_declared_dead => workers_declared_dead,
    add_probe_leaf_hits / probe_leaf_hits => probe_leaf_hits,
    add_probe_redescents / probe_redescents => probe_redescents,
    add_probe_page_pins / probe_page_pins => probe_page_pins,
    add_bloom_negatives / bloom_negatives => bloom_negatives,
    add_bloom_false_positives / bloom_false_positives => bloom_false_positives,
    add_frontier_advances / frontier_advances => frontier_advances,
    add_barrier_waits_avoided / barrier_waits_avoided => barrier_waits_avoided,
    add_confined_recoveries / confined_recoveries => confined_recoveries,
    add_confined_fallbacks / confined_fallbacks => confined_fallbacks,
    add_log_bytes_written / log_bytes_written => log_bytes_written,
    add_log_runs_replayed / log_runs_replayed => log_runs_replayed,
    add_ckpt_bytes_retired / ckpt_bytes_retired => ckpt_bytes_retired,
    add_slab_allocations / slab_allocations => slab_allocations,
    add_slab_recycled / slab_recycled => slab_recycled,
    add_frame_bytes_copied / frame_bytes_copied => frame_bytes_copied,
    add_msgs_folded_direct / msgs_folded_direct => msgs_folded_direct,
    add_msgs_stray / msgs_stray => msgs_stray,
}

impl ClusterCounters {
    /// Create a fresh, zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirror an increment into the thread's per-job scope, if one is
    /// installed and is not this counter set itself (a scope never tees
    /// into itself, so increments recorded *on* the scope stay single).
    #[inline]
    fn tee(&self, f: impl FnOnce(&ClusterCounters)) {
        JOB_SCOPE.with(|s| {
            if let Some(scope) = s.borrow().as_ref() {
                if !Arc::ptr_eq(&scope.inner, &self.inner) {
                    f(scope);
                }
            }
        });
    }

    /// Record the live-vertex count at a superstep boundary (overwrites).
    pub fn set_live_vertices(&self, n: u64) {
        self.inner.live_vertices.store(n, Ordering::Relaxed);
        self.tee(|scope| scope.inner.live_vertices.store(n, Ordering::Relaxed));
    }

    /// Live vertices at the last superstep boundary.
    pub fn live_vertices(&self) -> u64 {
        self.inner.live_vertices.load(Ordering::Relaxed)
    }

    /// Record an observed partition superstep skew (keeps the maximum).
    pub fn record_partition_skew(&self, n: u64) {
        self.inner.max_partition_skew.fetch_max(n, Ordering::Relaxed);
        self.tee(|scope| {
            scope.inner.max_partition_skew.fetch_max(n, Ordering::Relaxed);
        });
    }

    /// Maximum partition superstep skew observed so far.
    pub fn max_partition_skew(&self) -> u64 {
        self.inner.max_partition_skew.load(Ordering::Relaxed)
    }

    /// Counter movement since `earlier`: shorthand for snapshotting now and
    /// subtracting (see [`StatsSnapshot::delta_since`]).
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        self.snapshot().delta_since(earlier)
    }

    /// Take a serializable point-in-time snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let c = &self.inner;
        StatsSnapshot {
            disk_read_bytes: c.disk_read_bytes.load(Ordering::Relaxed),
            disk_write_bytes: c.disk_write_bytes.load(Ordering::Relaxed),
            network_bytes: c.network_bytes.load(Ordering::Relaxed),
            network_frames: c.network_frames.load(Ordering::Relaxed),
            messages_sent: c.messages_sent.load(Ordering::Relaxed),
            messages_combined: c.messages_combined.load(Ordering::Relaxed),
            compute_calls: c.compute_calls.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            cache_evictions: c.cache_evictions.load(Ordering::Relaxed),
            sort_runs_spilled: c.sort_runs_spilled.load(Ordering::Relaxed),
            sort_bytes_spilled: c.sort_bytes_spilled.load(Ordering::Relaxed),
            arena_frames_allocated: c.arena_frames_allocated.load(Ordering::Relaxed),
            radix_sort_entries: c.radix_sort_entries.load(Ordering::Relaxed),
            radix_passes_skipped: c.radix_passes_skipped.load(Ordering::Relaxed),
            sort_comparison_fallbacks: c.sort_comparison_fallbacks.load(Ordering::Relaxed),
            faults_injected: c.faults_injected.load(Ordering::Relaxed),
            fault_retries: c.fault_retries.load(Ordering::Relaxed),
            frames_retransmitted: c.frames_retransmitted.load(Ordering::Relaxed),
            frames_deduped: c.frames_deduped.load(Ordering::Relaxed),
            frames_corrupted: c.frames_corrupted.load(Ordering::Relaxed),
            workers_declared_dead: c.workers_declared_dead.load(Ordering::Relaxed),
            probe_leaf_hits: c.probe_leaf_hits.load(Ordering::Relaxed),
            probe_redescents: c.probe_redescents.load(Ordering::Relaxed),
            probe_page_pins: c.probe_page_pins.load(Ordering::Relaxed),
            bloom_negatives: c.bloom_negatives.load(Ordering::Relaxed),
            bloom_false_positives: c.bloom_false_positives.load(Ordering::Relaxed),
            frontier_advances: c.frontier_advances.load(Ordering::Relaxed),
            barrier_waits_avoided: c.barrier_waits_avoided.load(Ordering::Relaxed),
            confined_recoveries: c.confined_recoveries.load(Ordering::Relaxed),
            confined_fallbacks: c.confined_fallbacks.load(Ordering::Relaxed),
            log_bytes_written: c.log_bytes_written.load(Ordering::Relaxed),
            log_runs_replayed: c.log_runs_replayed.load(Ordering::Relaxed),
            ckpt_bytes_retired: c.ckpt_bytes_retired.load(Ordering::Relaxed),
            slab_allocations: c.slab_allocations.load(Ordering::Relaxed),
            slab_recycled: c.slab_recycled.load(Ordering::Relaxed),
            frame_bytes_copied: c.frame_bytes_copied.load(Ordering::Relaxed),
            msgs_folded_direct: c.msgs_folded_direct.load(Ordering::Relaxed),
            msgs_stray: c.msgs_stray.load(Ordering::Relaxed),
            max_partition_skew: c.max_partition_skew.load(Ordering::Relaxed),
            live_vertices: c.live_vertices.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of [`ClusterCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StatsSnapshot {
    pub disk_read_bytes: u64,
    pub disk_write_bytes: u64,
    pub network_bytes: u64,
    pub network_frames: u64,
    pub messages_sent: u64,
    pub messages_combined: u64,
    pub compute_calls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub sort_runs_spilled: u64,
    pub sort_bytes_spilled: u64,
    pub arena_frames_allocated: u64,
    pub radix_sort_entries: u64,
    pub radix_passes_skipped: u64,
    pub sort_comparison_fallbacks: u64,
    pub faults_injected: u64,
    pub fault_retries: u64,
    pub frames_retransmitted: u64,
    pub frames_deduped: u64,
    pub frames_corrupted: u64,
    pub workers_declared_dead: u64,
    pub probe_leaf_hits: u64,
    pub probe_redescents: u64,
    pub probe_page_pins: u64,
    pub bloom_negatives: u64,
    pub bloom_false_positives: u64,
    pub frontier_advances: u64,
    pub barrier_waits_avoided: u64,
    pub confined_recoveries: u64,
    pub confined_fallbacks: u64,
    pub log_bytes_written: u64,
    pub log_runs_replayed: u64,
    pub ckpt_bytes_retired: u64,
    pub slab_allocations: u64,
    pub slab_recycled: u64,
    pub frame_bytes_copied: u64,
    pub msgs_folded_direct: u64,
    pub msgs_stray: u64,
    pub max_partition_skew: u64,
    pub live_vertices: u64,
}

impl StatsSnapshot {
    /// Total disk traffic in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_read_bytes + self.disk_write_bytes
    }

    /// Counter-wise difference `self - earlier` (for per-superstep deltas).
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            disk_read_bytes: self.disk_read_bytes - earlier.disk_read_bytes,
            disk_write_bytes: self.disk_write_bytes - earlier.disk_write_bytes,
            network_bytes: self.network_bytes - earlier.network_bytes,
            network_frames: self.network_frames - earlier.network_frames,
            messages_sent: self.messages_sent - earlier.messages_sent,
            messages_combined: self.messages_combined - earlier.messages_combined,
            compute_calls: self.compute_calls - earlier.compute_calls,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            sort_runs_spilled: self.sort_runs_spilled - earlier.sort_runs_spilled,
            sort_bytes_spilled: self.sort_bytes_spilled - earlier.sort_bytes_spilled,
            arena_frames_allocated: self.arena_frames_allocated
                - earlier.arena_frames_allocated,
            radix_sort_entries: self.radix_sort_entries - earlier.radix_sort_entries,
            radix_passes_skipped: self.radix_passes_skipped - earlier.radix_passes_skipped,
            sort_comparison_fallbacks: self.sort_comparison_fallbacks
                - earlier.sort_comparison_fallbacks,
            faults_injected: self.faults_injected - earlier.faults_injected,
            fault_retries: self.fault_retries - earlier.fault_retries,
            frames_retransmitted: self.frames_retransmitted - earlier.frames_retransmitted,
            frames_deduped: self.frames_deduped - earlier.frames_deduped,
            frames_corrupted: self.frames_corrupted - earlier.frames_corrupted,
            workers_declared_dead: self.workers_declared_dead - earlier.workers_declared_dead,
            probe_leaf_hits: self.probe_leaf_hits - earlier.probe_leaf_hits,
            probe_redescents: self.probe_redescents - earlier.probe_redescents,
            probe_page_pins: self.probe_page_pins - earlier.probe_page_pins,
            bloom_negatives: self.bloom_negatives - earlier.bloom_negatives,
            bloom_false_positives: self.bloom_false_positives
                - earlier.bloom_false_positives,
            frontier_advances: self.frontier_advances - earlier.frontier_advances,
            barrier_waits_avoided: self.barrier_waits_avoided
                - earlier.barrier_waits_avoided,
            confined_recoveries: self.confined_recoveries - earlier.confined_recoveries,
            confined_fallbacks: self.confined_fallbacks - earlier.confined_fallbacks,
            log_bytes_written: self.log_bytes_written - earlier.log_bytes_written,
            log_runs_replayed: self.log_runs_replayed - earlier.log_runs_replayed,
            ckpt_bytes_retired: self.ckpt_bytes_retired - earlier.ckpt_bytes_retired,
            slab_allocations: self.slab_allocations - earlier.slab_allocations,
            slab_recycled: self.slab_recycled - earlier.slab_recycled,
            frame_bytes_copied: self.frame_bytes_copied - earlier.frame_bytes_copied,
            msgs_folded_direct: self.msgs_folded_direct - earlier.msgs_folded_direct,
            msgs_stray: self.msgs_stray - earlier.msgs_stray,
            // Like `live_vertices`, the skew indicator is a gauge rather
            // than a monotone counter: a delta carries the current value.
            max_partition_skew: self.max_partition_skew,
            live_vertices: self.live_vertices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = ClusterCounters::new();
        c.add_messages_sent(10);
        c.add_messages_sent(5);
        c.add_network_bytes(128);
        c.set_live_vertices(42);
        let s = c.snapshot();
        assert_eq!(s.messages_sent, 15);
        assert_eq!(s.network_bytes, 128);
        assert_eq!(s.live_vertices, 42);
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn clones_share_counters() {
        let c = ClusterCounters::new();
        let d = c.clone();
        c.add_compute_calls(3);
        d.add_compute_calls(4);
        assert_eq!(c.compute_calls(), 7);
    }

    #[test]
    fn delta_since_subtracts_monotone_counters() {
        let c = ClusterCounters::new();
        c.add_disk_read(100);
        let before = c.snapshot();
        c.add_disk_read(50);
        c.add_cache_misses(2);
        c.set_live_vertices(9);
        let d = c.snapshot().delta_since(&before);
        assert_eq!(d.disk_read_bytes, 50);
        assert_eq!(d.cache_misses, 2);
        assert_eq!(d.live_vertices, 9);
        assert_eq!(d.disk_bytes(), 50);
    }

    #[test]
    fn probe_and_bloom_counters_flow_through_snapshot_and_delta() {
        let c = ClusterCounters::new();
        c.add_probe_redescents(1);
        let before = c.snapshot();
        c.add_probe_leaf_hits(7);
        c.add_probe_redescents(2);
        c.add_probe_page_pins(4);
        c.add_bloom_negatives(5);
        c.add_bloom_false_positives(1);
        let s = c.snapshot();
        assert_eq!(s.probe_leaf_hits, 7);
        assert_eq!(s.probe_redescents, 3);
        let d = s.delta_since(&before);
        assert_eq!(d.probe_redescents, 2);
        assert_eq!(d.probe_page_pins, 4);
        assert_eq!(d.bloom_negatives, 5);
        assert_eq!(d.bloom_false_positives, 1);
    }

    #[test]
    fn radix_counters_flow_through_snapshot_and_delta() {
        let c = ClusterCounters::new();
        c.add_radix_sort_entries(100);
        let before = c.snapshot();
        c.add_radix_sort_entries(1_000_000);
        c.add_radix_passes_skipped(5);
        c.add_sort_comparison_fallbacks(3);
        let s = c.snapshot();
        assert_eq!(s.radix_sort_entries, 1_000_100);
        assert_eq!(s.radix_passes_skipped, 5);
        assert_eq!(s.sort_comparison_fallbacks, 3);
        let d = s.delta_since(&before);
        assert_eq!(d.radix_sort_entries, 1_000_000);
        assert_eq!(d.radix_passes_skipped, 5);
        assert_eq!(d.sort_comparison_fallbacks, 3);
    }

    #[test]
    fn frontier_counters_flow_through_snapshot_and_delta() {
        let c = ClusterCounters::new();
        c.add_frontier_advances(2);
        let before = c.snapshot();
        c.add_frontier_advances(6);
        c.add_barrier_waits_avoided(3);
        c.record_partition_skew(0);
        c.record_partition_skew(1);
        c.record_partition_skew(0); // fetch_max keeps the high-water mark
        let s = c.snapshot();
        assert_eq!(s.frontier_advances, 8);
        assert_eq!(s.barrier_waits_avoided, 3);
        assert_eq!(s.max_partition_skew, 1);
        assert_eq!(c.max_partition_skew(), 1);
        let d = s.delta_since(&before);
        assert_eq!(d.frontier_advances, 6);
        assert_eq!(d.barrier_waits_avoided, 3);
        assert_eq!(d.max_partition_skew, 1, "skew passes through deltas as a gauge");
    }

    #[test]
    fn recovery_counters_flow_through_snapshot_and_delta() {
        let c = ClusterCounters::new();
        c.add_log_bytes_written(64);
        let before = c.snapshot();
        c.add_confined_recoveries(1);
        c.add_confined_fallbacks(2);
        c.add_log_bytes_written(512);
        c.add_log_runs_replayed(6);
        c.add_ckpt_bytes_retired(4096);
        let s = c.snapshot();
        assert_eq!(s.confined_recoveries, 1);
        assert_eq!(s.confined_fallbacks, 2);
        assert_eq!(s.log_bytes_written, 576);
        let d = s.delta_since(&before);
        assert_eq!(d.confined_recoveries, 1);
        assert_eq!(d.confined_fallbacks, 2);
        assert_eq!(d.log_bytes_written, 512);
        assert_eq!(d.log_runs_replayed, 6);
        assert_eq!(d.ckpt_bytes_retired, 4096);
    }

    #[test]
    fn slab_counters_flow_through_snapshot_and_delta() {
        let c = ClusterCounters::new();
        c.add_slab_allocations(2);
        let before = c.snapshot();
        c.add_slab_allocations(3);
        c.add_slab_recycled(7);
        c.add_frame_bytes_copied(4096);
        let s = c.snapshot();
        assert_eq!(s.slab_allocations, 5);
        assert_eq!(s.slab_recycled, 7);
        assert_eq!(s.frame_bytes_copied, 4096);
        let d = s.delta_since(&before);
        assert_eq!(d.slab_allocations, 3);
        assert_eq!(d.slab_recycled, 7);
        assert_eq!(d.frame_bytes_copied, 4096);
    }

    #[test]
    fn sender_fold_counters_flow_through_snapshot_and_delta() {
        let c = ClusterCounters::new();
        c.add_msgs_folded_direct(10);
        let before = c.snapshot();
        c.add_msgs_folded_direct(90);
        c.add_msgs_stray(3);
        let s = c.snapshot();
        assert_eq!(s.msgs_folded_direct, 100);
        assert_eq!(s.msgs_stray, 3);
        let d = s.delta_since(&before);
        assert_eq!(d.msgs_folded_direct, 90);
        assert_eq!(d.msgs_stray, 3);
    }

    #[test]
    fn job_scope_tees_counters_and_gauges() {
        let cluster = ClusterCounters::new();
        let scope = ClusterCounters::new();
        cluster.add_messages_sent(1); // outside any scope: not attributed
        {
            let _guard = enter_job_scope(&scope);
            assert!(current_job_scope().is_some());
            cluster.add_messages_sent(10);
            cluster.add_compute_calls(4);
            cluster.set_live_vertices(7);
            cluster.record_partition_skew(1);
        }
        assert!(current_job_scope().is_none());
        cluster.add_messages_sent(100); // after the guard drops: not attributed
        assert_eq!(cluster.messages_sent(), 111);
        assert_eq!(scope.messages_sent(), 10);
        assert_eq!(scope.compute_calls(), 4);
        assert_eq!(scope.live_vertices(), 7);
        assert_eq!(scope.max_partition_skew(), 1);
    }

    #[test]
    fn job_scope_never_tees_into_itself() {
        let scope = ClusterCounters::new();
        let _guard = enter_job_scope(&scope);
        // Increments recorded directly on the scope must stay single, not
        // double via the tee.
        scope.add_messages_sent(5);
        assert_eq!(scope.messages_sent(), 5);
    }

    #[test]
    fn job_scopes_nest_and_restore() {
        let cluster = ClusterCounters::new();
        let outer = ClusterCounters::new();
        let inner = ClusterCounters::new();
        let _outer_guard = enter_job_scope(&outer);
        cluster.add_cache_hits(1);
        {
            let _inner_guard = enter_job_scope(&inner);
            cluster.add_cache_hits(2);
        }
        cluster.add_cache_hits(4);
        assert_eq!(outer.cache_hits(), 5, "outer misses only the inner span");
        assert_eq!(inner.cache_hits(), 2);
        assert_eq!(cluster.cache_hits(), 7);
    }

    #[test]
    fn job_scope_is_thread_local() {
        let cluster = ClusterCounters::new();
        let scope = ClusterCounters::new();
        let _guard = enter_job_scope(&scope);
        std::thread::scope(|s| {
            let c = cluster.clone();
            s.spawn(move || c.add_network_bytes(64)).join().unwrap();
        });
        cluster.add_network_bytes(1);
        assert_eq!(cluster.network_bytes(), 65);
        assert_eq!(scope.network_bytes(), 1, "other threads' work is not attributed");
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let c = ClusterCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.add_messages_sent(1);
                    }
                });
            }
        });
        assert_eq!(c.messages_sent(), 40_000);
    }
}
