//! Host crate for the cross-crate integration tests in `tests/tests/`:
//!
//! * `plan_equivalence` — all eight physical plans, every worker/partition
//!   shape, one answer.
//! * `fault_tolerance` — checkpoint/recovery under injected worker failures
//!   (§5.5).
//! * `out_of_core` — in-memory vs spilled runs are bit-identical (§5.4) and
//!   Pregelix survives the baselines' OOM points.
//! * `cross_system_agreement` — Pregelix and all five baseline engines
//!   compute identical answers.
//! * `dfs_io_and_pipelining` — text load/dump through the DFS (§5.2) and
//!   multi-stage pipelined jobs (§5.6).
//! * `mutations` — vertex addition/removal, `resolve` conflicts,
//!   message-created vertices (§2.1, Figure 5).
//! * `property_based` — proptest: random graphs × random plans vs
//!   single-machine references.
//! * `sender_fold` — the sender-side fold table against the sort path it
//!   stands in for, and in windows against itself resident: same answers
//!   over connectors × joins × stores, and a table whose windows' spill
//!   buffers are over budget means the sort path exactly.
//! * `row_write_back`, `row_cursor_allocs` — the fused scan/compute/update
//!   operator (§5.3.2): resized rows and rewritten edge lists fall back to
//!   whole-row writes and stay correct; a steady-state `compute` call
//!   allocates nothing (counting global allocator, a suite of its own).
//! * `page_files` — a partition's page files and `Msg` runs go with its
//!   state: after every finished, cancelled or failed job and every
//!   partition recovery replaced, no worker root still holds them.
//!
//! The crate's own items are what the chaos suites (`fault_tolerance`,
//! `transport_reliability`, `recovery_confinement`, `job_service`) share:
//! the digest line CI's double runs diff, the hash that stands in for a
//! job's final values in it, and the check that a recovery left no
//! temporary file behind. `plan_equivalence` and `page_files` share the
//! path-merge input, [`directed_chains`].

use pregelix::prelude::{Cluster, JobSummary};
use std::fmt::Write as _;
use std::io::Write as _;

/// Disjoint directed chains of the given lengths, numbered from 0, each
/// vertex pointing at the next: the input `PathMerge` folds into one vertex
/// a chain, deleting the rest.
pub fn directed_chains(lengths: impl IntoIterator<Item = u64>) -> Vec<(u64, Vec<(u64, f64)>)> {
    let mut records = Vec::new();
    let mut next = 0;
    for len in lengths {
        for v in next..next + len {
            let edges = if v + 1 < next + len {
                vec![(v + 1, 1.0)]
            } else {
                vec![]
            };
            records.push((v, edges));
        }
        next += len;
    }
    records
}

/// FNV-1a: the digest's compact stand-in for "bit-identical final state".
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// [`fnv1a`] over a `(vid, value bits)` relation.
pub fn values_hash(values: &[(u64, u64)]) -> u64 {
    fnv1a(
        values
            .iter()
            .flat_map(|(vid, val)| vid.to_le_bytes().into_iter().chain(val.to_le_bytes())),
    )
}

/// Require every worker root of `cluster` to be free of `tmp-` files, of any
/// extension: whoever held a temporary file deleted it, however its task or
/// recovery ended. Read straight off the disk, so nothing depends on what
/// `FileManager::temp_files` counts as temporary.
pub fn assert_no_temp_files(cluster: &Cluster) {
    for id in 0..cluster.size() {
        let left: Vec<String> = std::fs::read_dir(cluster.worker(id).file_manager().root())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("tmp-"))
            .collect();
        assert!(left.is_empty(), "worker {id} still holds {left:?}");
    }
}

/// Append `scenario label=value … values=<hash>` to `$CHAOS_DIGEST`, if
/// set: one line per scenario, made only of what identical runs reproduce —
/// counters and value hashes, never durations. `fields` names the labels a
/// suite's lines carry, space-separated, in the order they are printed;
/// `j`-prefixed labels read the per-job `job_stats`, the rest the cluster
/// delta `stats`.
pub fn chaos_digest(
    scenario: &str,
    fields: &str,
    summary: &JobSummary,
    injected: u64,
    values_hash: u64,
) {
    let (s, j) = (&summary.stats, &summary.job_stats);
    let mut line = scenario.to_string();
    for label in fields.split_whitespace() {
        let value = match label {
            "recoveries" => summary.recoveries as u64,
            "retries" => summary.retries,
            "supersteps" => summary.supersteps,
            "injected" => injected,
            "retx" => s.frames_retransmitted,
            "dedup" => s.frames_deduped,
            "corrupt" => s.frames_corrupted,
            "dead" => s.workers_declared_dead,
            "probes" => s.probe_leaf_hits,
            "redesc" => s.probe_redescents,
            "radixn" => s.radix_sort_entries,
            "conf" => s.confined_recoveries,
            "cfb" => s.confined_fallbacks,
            "logw" => s.log_bytes_written,
            "logr" => s.log_runs_replayed,
            "ckret" => s.ckpt_bytes_retired,
            "slaba" => s.slab_allocations,
            "slabr" => s.slab_recycled,
            "fcopy" => s.frame_bytes_copied,
            "fold" => s.msgs_folded_direct,
            "fspill" => s.msgs_fold_spilled,
            "stray" => s.msgs_stray,
            "jcmp" => j.compute_calls,
            "jmsgs" => j.messages_sent,
            "jcomb" => j.messages_combined,
            "jfold" => j.msgs_folded_direct,
            "jfspill" => j.msgs_fold_spilled,
            "jstray" => j.msgs_stray,
            other => panic!("chaos_digest: no field labelled {other:?}"),
        };
        write!(line, " {label}={value}").unwrap();
    }
    // Formatted first, so a mistyped label fails with or without a digest.
    let Ok(path) = std::env::var("CHAOS_DIGEST") else {
        return;
    };
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    writeln!(f, "{line} values={values_hash:016x}").unwrap();
}
