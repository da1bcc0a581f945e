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
//! Concurrent jobs on one cluster share one [`ClusterCounters`], so the
//! cluster totals alone cannot attribute work to the job that did it. A
//! *scope* is a second `ClusterCounters` installed thread-locally via
//! [`enter_job_scope`]: while the guard lives, every increment on any
//! counter set is tee'd into the scope as well. `run_job` installs one
//! scope per job on the thread that drives it, and the cluster executor
//! hands the submitting thread's scope ([`current_job_scope`]) to every
//! task of a batch, so jobs driven from different threads at once each
//! count only their own work.

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

impl ClusterCounters {
    /// Create a fresh, zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirror an update into the thread's per-job scope, if one is
    /// installed and is not this counter set itself (a scope never tees
    /// into itself, so updates recorded *on* the scope stay single).
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

    /// Counter movement since `earlier`: shorthand for snapshotting now and
    /// subtracting (see [`StatsSnapshot::delta_since`]).
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        self.snapshot().delta_since(earlier)
    }
}

/// The one table every statistic is declared in, as `kind name, update_fn;`
/// rows under their doc comments; `stats_table!(m)` hands the rows to `m!`.
/// [`define_stats`] turns each row into the atomic behind the statistic,
/// its update method and reader on [`ClusterCounters`], its
/// [`StatsSnapshot`] field (table order is the serialized order), its line
/// in [`ClusterCounters::snapshot`] and its rule in
/// [`StatsSnapshot::delta_since`].
///
/// * `counter` — monotone; `update_fn(n)` adds `n`, a delta subtracts.
/// * `gauge` — `update_fn(n)` overwrites; a delta carries the later value.
/// * `retired` — nothing updates it any more, so it gets no methods: a
///   snapshot field that reads 0, kept because an out-of-tree reader names
///   it.
macro_rules! stats_table {
    ($with:ident) => {
        $with! {
            /// Bytes read from local disk (buffer-cache misses, run files, Msg
            /// files).
            counter disk_read_bytes, add_disk_read;
            /// Bytes written to local disk.
            counter disk_write_bytes, add_disk_write;
            /// Bytes moved across inter-worker connector channels ("network").
            counter network_bytes, add_network_bytes;
            /// Frames moved across inter-worker connector channels.
            counter network_frames, add_network_frames;
            /// Pregel messages sent (pre-combination).
            counter messages_sent, add_messages_sent;
            /// Pregel messages delivered after combination, counted when
            /// their superstep commits (or a recovery replays it), so a
            /// superstep aborted by a fault adds none.
            counter messages_combined, add_messages_combined;
            /// `compute` UDF invocations.
            counter compute_calls, add_compute_calls;
            /// Buffer-cache page hits.
            counter cache_hits, add_cache_hits;
            /// Buffer-cache page misses (each implies a disk page read).
            counter cache_misses, add_cache_misses;
            /// Pages evicted from the buffer cache.
            counter cache_evictions, add_cache_evictions;
            /// External-sort runs spilled by group-by/sort operators.
            counter sort_runs_spilled, add_sort_runs;
            /// Tuple bytes written into spilled sort/group-by runs (spill
            /// *volume*, complementing the run count above).
            counter sort_bytes_spilled, add_sort_bytes_spilled;
            /// Fresh chunk allocations performed by tuple arenas (pooled reuse
            /// is not counted, so this stays O(buffer budget / chunk size) on a
            /// healthy message path regardless of tuple count).
            counter arena_frames_allocated, add_arena_frames;
            /// Sort entries the external sort ordered in memory (pinned:
            /// benchmark/src/child.rs reads it by this name).
            counter radix_sort_entries, add_radix_sort_entries;
            /// Nothing charges this; it stays 0 (pinned:
            /// benchmark/src/child.rs reads it).
            counter sort_comparison_fallbacks, add_sort_comparison_fallbacks;
            /// Faults injected by an installed [`crate::fault::FaultPlan`]
            /// (always 0 in production).
            counter faults_injected, add_faults_injected;
            /// Recoverable-operation retries performed by the runtime's
            /// retry-with-backoff path (§5.7).
            counter fault_retries, add_fault_retries;
            /// Connector messages (data frames, `Fin`s, run handles) the wire
            /// dropped or tore, counted by the sender where the fault fired:
            /// one per such fault, 0 on a clean wire.
            counter frames_retransmitted, add_frames_retransmitted;
            /// Connector messages the wire duplicated, counted by the sender
            /// where the fault fired: one per duplication.
            counter frames_deduped, add_frames_deduped;
            /// Connector messages the wire tore
            /// ([`crate::fault::Fault::CorruptFrame`]), counted by the sender
            /// where the fault fired. Each is also one
            /// `frames_retransmitted`.
            counter frames_corrupted, add_frames_corrupted;
            /// Workers declared dead by the missed-beat failure detector and
            /// blacklisted from scheduling.
            counter workers_declared_dead, add_workers_declared_dead;
            /// Row-cursor seeks answered from the pinned leaf, or by a
            /// descent from a pinned interior page covering the key.
            counter probe_leaf_hits, add_probe_leaf_hits;
            /// Row-cursor seeks that descended from the root with no pinned
            /// path: a cursor's first seek, or the first after an unpin.
            counter probe_redescents, add_probe_redescents;
            /// Buffer-cache page pins the row cursor's seeks perform (the
            /// pages below where each descent starts; answering from the
            /// pinned leaf is free).
            counter probe_page_pins, add_probe_page_pins;
            /// Confined recoveries completed: worker deaths healed by reloading
            /// and replaying *only* the dead worker's partitions from
            /// survivors' message logs, leaving survivors' state hot (§5.5
            /// degradation ladder).
            counter confined_recoveries, add_confined_recoveries;
            /// Confined-recovery attempts that found a hole (missing/torn log,
            /// GC race, stale GS history) and reloaded every partition
            /// instead.
            counter confined_fallbacks, add_confined_fallbacks;
            /// Bytes of post-combine message/mutation log written to the DFS by
            /// the sender-side tee (per-(superstep, src-partition) log files).
            counter log_bytes_written, add_log_bytes_written;
            /// Logged per-(src → dead-partition) runs fed back through the
            /// replay group-by during a confined recovery.
            counter log_runs_replayed, add_log_runs_replayed;
            /// Bytes of checkpoint, message-log, and GS-history files retired
            /// by garbage collection after a newer checkpoint committed.
            counter ckpt_bytes_retired, add_ckpt_bytes_retired;
            /// Fresh backing buffers allocated by the shared byte-slab
            /// ([`crate::bytes::BytesSlab`]). Pool hits are not counted, so on
            /// a steady-state frame path this converges to the peak number of
            /// frames simultaneously in flight, independent of total frames
            /// moved.
            counter slab_allocations, add_slab_allocations;
            /// Backing buffers recycled through the slab pool: buffers whose
            /// last [`crate::bytes::BytesSlice`] ref dropped and that a later
            /// [`crate::bytes::BytesSlab::harvest`] restocked for reuse.
            /// Harvest runs only at deterministic commit points (superstep
            /// boundaries), so this count is scheduling-invariant.
            counter slab_recycled, add_slab_recycled;
            /// Frame payload bytes copied *beyond* the single canonical wire
            /// encoding: slab-slice detaches (`BytesSlice::detach`) and
            /// shared-frame materializations (`SharedFrame::to_frame`).
            /// Structurally zero on the zero-copy transport path — clean or
            /// faulted — which is what the `zero_copy` suite pins.
            counter frame_bytes_copied, add_frame_bytes_copied;
            /// Outgoing messages a `compute[p]` task folded into their
            /// destination's direct-address table slot (no tuple, no sort
            /// entry, no sorted run) — at once, or read back from a window
            /// spill file.
            counter msgs_folded_direct, add_msgs_folded_direct;
            /// Inbound message tuples a `msgwrite[p]` task folded into its
            /// partition's direct-address table slot, source by source, on
            /// their way into the `Msg` run (no merge heap, no tuple
            /// combiner).
            counter msgs_folded_inbound, add_msgs_folded_inbound;
            /// The part of `msgs_folded_direct` that waited in a window spill
            /// file: the destination's slot lies past the table's resident
            /// window, because the whole table is over its share of the
            /// group-by budget.
            counter msgs_fold_spilled, add_msgs_fold_spilled;
            /// Outgoing messages that took the sorter *while a table was
            /// active*: their destination vid lies at or above the table's `hi`
            /// (a vertex created after load, or one that does not exist).
            counter msgs_stray, add_msgs_stray;
            /// Always 0: how far apart in supersteps two partitions were seen,
            /// which under the global barrier they never are. The field stays
            /// because `benchmark/src/child.rs` reads it by name.
            retired max_partition_skew;
            /// Vertices alive at the end of the most recent superstep.
            gauge live_vertices, set_live_vertices;
        }
    };
}

macro_rules! define_stats {
    ($($(#[$doc:meta])* $kind:ident $name:ident $(, $update:ident)?;)*) => {
        #[derive(Debug, Default)]
        struct Counters {
            $($name: AtomicU64,)*
        }

        impl ClusterCounters {
            $(define_stats!(@methods $kind $name $(, $update)?);)*

            /// Take a serializable point-in-time snapshot.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.inner.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        /// Point-in-time view of [`ClusterCounters`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl StatsSnapshot {
            /// `self - earlier`, statistic by statistic (for per-superstep
            /// deltas): counters subtract, gauges carry `self`'s value.
            pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: define_stats!(@delta $kind self.$name, earlier.$name),)*
                }
            }
        }
    };

    (@delta counter $now:expr, $then:expr) => { $now - $then };
    (@delta $kind:ident $now:expr, $then:expr) => { $now };

    (@methods retired $name:ident) => {};
    (@methods counter $name:ident, $add:ident) => {
        #[doc = concat!("Increment `", stringify!($name), "` by `n`.")]
        #[inline]
        pub fn $add(&self, n: u64) {
            self.inner.$name.fetch_add(n, Ordering::Relaxed);
            self.tee(|scope| {
                scope.inner.$name.fetch_add(n, Ordering::Relaxed);
            });
        }
        define_stats!(@reader $name);
    };
    (@methods gauge $name:ident, $set:ident) => {
        #[doc = concat!("Overwrite `", stringify!($name), "` with `n`.")]
        pub fn $set(&self, n: u64) {
            self.inner.$name.store(n, Ordering::Relaxed);
            self.tee(|scope| scope.inner.$name.store(n, Ordering::Relaxed));
        }
        define_stats!(@reader $name);
    };
    (@reader $name:ident) => {
        #[doc = concat!("Current value of `", stringify!($name), "`.")]
        #[inline]
        pub fn $name(&self) -> u64 {
            self.inner.$name.load(Ordering::Relaxed)
        }
    };
}

stats_table!(define_stats);

impl StatsSnapshot {
    /// Total disk traffic in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_read_bytes + self.disk_write_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One table row as the tests see it.
    struct Row {
        name: &'static str,
        kind: &'static str,
        /// The row's update method and reader on [`ClusterCounters`]; a
        /// retired row has neither.
        update: Option<fn(&ClusterCounters, u64)>,
        reader: Option<fn(&ClusterCounters) -> u64>,
        field: fn(&StatsSnapshot) -> u64,
    }

    macro_rules! rows {
        ($($(#[$doc:meta])* $kind:ident $name:ident $(, $update:ident)?;)*) => {
            const ROWS: &[Row] = &[$(Row {
                name: stringify!($name),
                kind: stringify!($kind),
                update: rows!(@update $($update)?),
                reader: rows!(@reader $($update)?; $name),
                field: |s| s.$name,
            },)*];
        };
        (@update) => { None };
        (@update $update:ident) => { Some(ClusterCounters::$update) };
        // Only a row with an update method has a reader.
        (@reader ; $name:ident) => { None };
        (@reader $update:ident; $name:ident) => { Some(ClusterCounters::$name) };
    }

    stats_table!(rows);

    /// Every row, through every list the table generates: the update method
    /// and reader, the job-scope tee, `snapshot`, `delta_since` by kind, and
    /// the snapshot's field order. Each row moves by its own amounts, so a
    /// row wired to another row's atomic shows.
    #[test]
    fn every_row_flows_through_update_reader_tee_snapshot_and_delta() {
        let c = ClusterCounters::new();
        let first = |i: usize| 1_000 + i as u64;
        let second = |i: usize| 7 * (i as u64 + 1);
        for (i, row) in ROWS.iter().enumerate() {
            if let Some(update) = row.update {
                update(&c, first(i));
            }
        }
        let before = c.snapshot();
        let scope = ClusterCounters::new();
        {
            let _guard = enter_job_scope(&scope);
            for (i, row) in ROWS.iter().enumerate() {
                if let Some(update) = row.update {
                    update(&c, second(i));
                }
            }
        }
        let after = c.snapshot();
        let delta = after.delta_since(&before);
        let teed = scope.snapshot();
        for (i, row) in ROWS.iter().enumerate() {
            let (now, moved) = match row.kind {
                "counter" => (first(i) + second(i), second(i)),
                "gauge" => (second(i), second(i)),
                "retired" => (0, 0),
                other => panic!("{}: unknown kind {other}", row.name),
            };
            assert_eq!((row.field)(&after), now, "{} in a snapshot", row.name);
            assert_eq!((row.field)(&delta), moved, "{} in a delta", row.name);
            assert_eq!((row.field)(&teed), moved, "{} in the job scope", row.name);
            if let Some(reader) = row.reader {
                assert_eq!(reader(&c), now, "{} through its reader", row.name);
            }
        }
        assert_eq!(delta, c.delta_since(&before));
        // `{:?}` prints the fields in declaration order, which is the order
        // the derived `Serialize` writes them in.
        let printed = format!("{after:?}");
        let mut at = 0;
        for row in ROWS {
            let found = printed[at..]
                .find(&format!(" {}: ", row.name))
                .unwrap_or_else(|| panic!("{} out of table order in {printed}", row.name));
            at += found + 1;
        }
        assert_eq!(printed.matches(": ").count(), ROWS.len());
        assert_eq!(ROWS.iter().filter(|r| r.kind == "gauge").count(), 1);
        assert_eq!(ROWS.iter().filter(|r| r.kind == "retired").count(), 1);
    }

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
        }
        assert!(current_job_scope().is_none());
        cluster.add_messages_sent(100); // after the guard drops: not attributed
        assert_eq!(cluster.messages_sent(), 111);
        assert_eq!(scope.messages_sent(), 10);
        assert_eq!(scope.compute_calls(), 4);
        assert_eq!(scope.live_vertices(), 7);
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
