//! The sender-side fold table against the sort path it stands in for.
//!
//! `compute[p]` folds a combining program's fixed-width messages into a
//! direct-address table when the table fits half the group-by budget, and
//! sorts them otherwise. Which of the two ran is read from the job summary
//! and the counters, never guessed from timing; what they computed must
//! agree — exactly for order-insensitive combiners, to the last few bits
//! for PageRank's `f64` sum, whose within-sender fold order is emission
//! order on one path and sorted-bytes order on the other.

use pregelix::core::api::tests_support::SortPath;
use pregelix::core::api::VertexProgram;
use pregelix::graphgen::{btc, webmap};
use pregelix::prelude::*;
use std::sync::Arc;

type Records = Vec<(Vid, Vec<(Vid, f64)>)>;

/// Both connectors (and both group-by kinds), both joins, both stores.
fn lattice() -> Vec<PlanConfig> {
    let mut out = Vec::new();
    for groupby in [
        GroupByStrategy::SortUnmerged,
        GroupByStrategy::HashSortMerged,
    ] {
        for join in [JoinStrategy::FullOuter, JoinStrategy::LeftOuter] {
            for storage in [VertexStorageKind::BTree, VertexStorageKind::Lsm] {
                out.push(PlanConfig {
                    join,
                    groupby,
                    storage,
                });
            }
        }
    }
    out
}

fn run<P: VertexProgram>(
    program: P,
    name: &str,
    records: &Records,
    plan: PlanConfig,
    worker_ram: usize,
) -> (JobSummary, Vec<(Vid, P::VertexValue)>) {
    let cluster = Cluster::new(ClusterConfig::new(3, worker_ram).sequential_timed()).unwrap();
    let job = PregelixJob::new(name).with_plan(plan);
    let program = Arc::new(program);
    let (summary, graph) = run_job_from_records(&cluster, &program, &job, records.clone()).unwrap();
    let values = graph
        .collect_vertices::<P>()
        .unwrap()
        .into_iter()
        .map(|v| (v.vid, v.value))
        .collect();
    (summary, values)
}

/// Run `program()` on the table and, wrapped, on the sort path, over the
/// whole lattice; check which path each run took; hand both value vectors
/// to `agree`.
fn both_paths<P: VertexProgram>(
    program: impl Fn() -> P,
    tag: &str,
    records: &Records,
    agree: impl Fn(&[(Vid, P::VertexValue)], &[(Vid, P::VertexValue)], &str),
) {
    for plan in lattice() {
        let what = format!("{tag}-{}", plan.label());
        let (direct, direct_values) =
            run(program(), &format!("{what}-d"), records, plan, 8 << 20);
        assert!(
            matches!(direct.sender_fold, SenderFold::Direct { .. }),
            "{what}: {}",
            direct.sender_fold
        );
        assert!(direct.stats.messages_sent > 0, "{what}");
        assert_eq!(
            direct.stats.msgs_folded_direct, direct.stats.messages_sent,
            "{what}"
        );
        assert_eq!(direct.stats.msgs_stray, 0, "{what}");
        assert_eq!(direct.stats.sort_runs_spilled, 0, "{what}");

        let (sorted, sorted_values) = run(
            SortPath(program()),
            &format!("{what}-s"),
            records,
            plan,
            8 << 20,
        );
        assert_eq!(sorted.sender_fold, SenderFold::SortVariableWidth, "{what}");
        assert_eq!(sorted.stats.msgs_folded_direct, 0, "{what}");
        assert_eq!(sorted.stats.msgs_stray, 0, "{what}");

        // One combined tuple per sender and destination either way, so the
        // two runs deliver, and send over the wire, exactly as much.
        assert_eq!(direct.supersteps, sorted.supersteps, "{what}");
        assert_eq!(
            direct.stats.compute_calls, sorted.stats.compute_calls,
            "{what}"
        );
        assert_eq!(
            direct.stats.messages_sent, sorted.stats.messages_sent,
            "{what}"
        );
        assert_eq!(
            direct.stats.messages_combined, sorted.stats.messages_combined,
            "{what}"
        );
        assert_eq!(
            direct.stats.network_bytes, sorted.stats.network_bytes,
            "{what}"
        );
        assert_eq!(
            direct.stats.network_frames, sorted.stats.network_frames,
            "{what}"
        );
        assert_eq!(direct.final_gs, sorted.final_gs, "{what}");
        agree(&direct_values, &sorted_values, &what);
    }
}

#[test]
fn sssp_is_identical_on_the_table_and_on_the_sort_path() {
    let records = btc::btc(600, 5.0, 51);
    both_paths(
        || ShortestPaths::new(0),
        "sf-sssp",
        &records,
        |a, b, what| assert_eq!(a, b, "{what}"),
    );
}

#[test]
fn cc_is_identical_on_the_table_and_on_the_sort_path() {
    let records = btc::btc(600, 3.0, 52);
    both_paths(
        || ConnectedComponents,
        "sf-cc",
        &records,
        |a, b, what| assert_eq!(a, b, "{what}"),
    );
}

#[test]
fn pagerank_agrees_to_the_last_bits_on_the_table_and_on_the_sort_path() {
    let records = webmap::webmap(9, 6.0, 53);
    both_paths(
        || PageRank::new(5),
        "sf-pr",
        &records,
        |a, b, what| {
            assert_eq!(a.len(), b.len(), "{what}");
            for ((va, ra), (vb, rb)) in a.iter().zip(b) {
                assert_eq!(va, vb, "{what}");
                assert!((ra - rb).abs() <= 1e-12, "{what} vid {va}: {ra} vs {rb}");
            }
        },
    );
}

/// On one path, every plan of the lattice computes PageRank to the
/// bit: the within-sender fold order is emission order whatever the
/// group-by strategy, and the receiver regroups by bytes.
#[test]
fn pagerank_on_the_table_is_bit_identical_across_the_lattice() {
    let records = webmap::webmap(9, 6.0, 54);
    let mut reference: Option<Vec<(Vid, u64)>> = None;
    for plan in lattice() {
        let name = format!("sf-prx-{}", plan.label());
        let (_, values) = run(PageRank::new(5), &name, &records, plan, 8 << 20);
        let bits: Vec<(Vid, u64)> = values.iter().map(|(v, r)| (*v, r.to_bits())).collect();
        match &reference {
            None => reference = Some(bits),
            Some(want) => assert_eq!(&bits, want, "{name}"),
        }
    }
}

/// A cluster whose RAM leaves the table no room: the job says so, folds
/// nothing directly, and its sorter does exactly the work the sort path
/// does for the same program — spills included.
#[test]
fn a_table_over_budget_means_the_sort_path_exactly() {
    let records = webmap::webmap(12, 6.0, 55);
    let plan = PlanConfig::default();
    // 64 KiB of RAM per worker: an 8 KiB group-by budget, half of it for a
    // table that needs 4096 × 8 bytes and a bitmap.
    let ram = 64 << 10;
    let (tight, tight_values) = run(PageRank::new(3), "sf-tight", &records, plan, ram);
    assert_eq!(
        tight.sender_fold,
        SenderFold::SortTableTooLarge {
            table_bytes: 4096 * 8 + 512,
            budget_bytes: 4096
        }
    );
    assert_eq!(tight.sender_fold.to_string(), "sort (table 33 KB > 4 KB)");
    assert_eq!(tight.stats.msgs_folded_direct, 0);
    assert_eq!(tight.stats.msgs_stray, 0);
    assert!(
        tight.stats.sort_runs_spilled > 0,
        "8 KiB sorters must spill"
    );

    let (sorted, sorted_values) = run(
        SortPath(PageRank::new(3)),
        "sf-tight-s",
        &records,
        plan,
        ram,
    );
    assert_eq!(tight_values, sorted_values, "same path, same bits");
    let sort_counters = |s: &JobSummary| {
        (
            s.stats.sort_runs_spilled,
            s.stats.sort_bytes_spilled,
            s.stats.radix_sort_entries,
            s.stats.radix_passes_skipped,
            s.stats.sort_comparison_fallbacks,
            s.stats.arena_frames_allocated,
            s.stats.messages_combined,
            s.stats.network_bytes,
            s.stats.disk_write_bytes,
        )
    };
    assert_eq!(sort_counters(&tight), sort_counters(&sorted));

    // The same job with room for the table: no sender-side spill at all.
    let (roomy, _) = run(PageRank::new(3), "sf-roomy", &records, plan, 8 << 20);
    assert!(matches!(
        roomy.sender_fold,
        SenderFold::Direct { hi: 4096, .. }
    ));
    assert_eq!(roomy.stats.msgs_folded_direct, roomy.stats.messages_sent);
    assert_eq!(roomy.stats.sort_runs_spilled, 0);
}
