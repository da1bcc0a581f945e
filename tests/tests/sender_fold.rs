//! The sender-side fold table against the sort path it stands in for, and
//! against itself when it does not fit.
//!
//! `compute[p]` folds a combining program's fixed-width messages into a
//! direct-address table: resident whole when it fits half the group-by
//! budget, in windows of as many slots as that half holds otherwise, and not
//! at all — every message sorted — only when the windows' spill buffers
//! would not fit a quarter of the budget. Which of these ran is read from
//! the job summary and the counters, never guessed from timing. What the
//! table and the sort path compute must agree — exactly for
//! order-insensitive combiners, to the last few bits for PageRank's `f64`
//! sum, whose fold order is emission order, then source order at the
//! receiver, on one path and sorted-bytes order on the other. What a
//! sender's table emits in windows is what it emits whole, to the byte, and
//! the job's values follow on every plan: behind either connector the
//! receiver folds the senders' streams into the same table by address,
//! source by source, without sorting or spilling whatever the memory size —
//! also when the sender's table does not fit and the sender sorts.

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
        folds_inbound(&direct, &what);

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
        assert_eq!(sorted.stats.msgs_folded_inbound, 0, "{what}");

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

/// Every receiver of an eligible job folded by address: at least one
/// inbound tuple per tuple it wrote.
fn folds_inbound(summary: &JobSummary, what: &str) {
    let s = &summary.stats;
    assert!(s.msgs_folded_inbound > 0, "{what}");
    assert!(s.msgs_folded_inbound >= s.messages_combined, "{what}");
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

/// A program with no combiner folds at neither end: every plan of the
/// lattice sorts at the sender and merges at the receiver.
#[test]
fn without_a_combiner_no_receiver_folds_by_address() {
    let records = btc::btc(600, 3.0, 59);
    for plan in lattice() {
        let what = format!("sf-tri-{}", plan.label());
        let (summary, _) = run(TriangleCount, &what, &records, plan, 8 << 20);
        assert_eq!(summary.sender_fold, SenderFold::SortNoCombiner, "{what}");
        assert!(summary.stats.messages_combined > 0, "{what}");
        assert_eq!(summary.stats.msgs_folded_direct, 0, "{what}");
        assert_eq!(summary.stats.msgs_folded_inbound, 0, "{what}");
    }
}

/// On one path, every plan of the lattice computes PageRank to the
/// bit: the within-sender fold order is emission order whatever the
/// group-by strategy, and the receiver folds the senders' ties in source
/// order.
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

/// Workers of 256 KiB: a 32 KiB group-by budget, so 1 984 slots in its half
/// and two pages of spill buffer in its quarter — three windows over these
/// graphs' 4 096 to 5 900 vids.
const WINDOWED_RAM: usize = 256 << 10;

/// Run `program()` with the table in three windows and with the table
/// resident, over the whole lattice: the layout is what the summary says,
/// and beyond the spill files nothing about the job moved. `same` compares
/// one vertex's two values.
fn windows_change_nothing<P: VertexProgram>(
    program: impl Fn() -> P,
    tag: &str,
    records: &Records,
    same: impl Fn(&P::VertexValue, &P::VertexValue) -> bool,
) {
    for plan in lattice() {
        let what = format!("{tag}-{}", plan.label());
        let (tight, tight_values) =
            run(program(), &format!("{what}-w"), records, plan, WINDOWED_RAM);
        let (roomy, roomy_values) = run(program(), &format!("{what}-r"), records, plan, 8 << 20);
        assert!(
            matches!(
                tight.sender_fold,
                SenderFold::Direct {
                    windows: 3,
                    slots_per_window: 1984,
                    spill_buffer_bytes: 8192,
                    ..
                }
            ),
            "{what}: {}",
            tight.sender_fold
        );
        assert!(
            matches!(roomy.sender_fold, SenderFold::Direct { windows: 1, .. }),
            "{what}: {}",
            roomy.sender_fold
        );

        // Every message folds by address on both; on the tight cluster those
        // past the first window wait in a spill file first.
        for (summary, s) in [(&tight, &tight.stats), (&roomy, &roomy.stats)] {
            assert!(s.messages_sent > 0, "{what}");
            assert_eq!(s.msgs_folded_direct, s.messages_sent, "{what}");
            assert_eq!(s.msgs_stray, 0, "{what}");
            folds_inbound(summary, &what);
        }
        assert!(tight.stats.msgs_fold_spilled > 0, "{what}");
        assert!(
            tight.stats.msgs_fold_spilled < tight.stats.messages_sent,
            "{what}"
        );
        assert_eq!(roomy.stats.msgs_fold_spilled, 0, "{what}");

        // The same combined tuples leave every sender in the same order.
        let wire = |s: &JobSummary| {
            (
                s.supersteps,
                s.stats.compute_calls,
                s.stats.messages_sent,
                s.stats.messages_combined,
                s.stats.network_bytes,
                s.stats.network_frames,
            )
        };
        assert_eq!(wire(&tight), wire(&roomy), "{what}");

        // Nothing sorts on either side of the connector: the senders fold
        // by address, the receivers merge.
        assert_eq!(tight.stats.sort_runs_spilled, 0, "{what}");
        assert_eq!(roomy.stats.sort_runs_spilled, 0, "{what}");

        assert_eq!(tight_values.len(), roomy_values.len(), "{what}");
        for ((vt, t), (vr, r)) in tight_values.iter().zip(&roomy_values) {
            assert_eq!(vt, vr, "{what}");
            assert!(
                same(t, r),
                "{what} vid {vt}: {t:?} in windows, {r:?} resident"
            );
        }
        assert_eq!(tight.final_gs, roomy.final_gs, "{what}");
    }
}

fn same_bits(a: &f64, b: &f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Every page sends along its edges, so each receiver merges thousands of
/// tuples from every sender — on the tight cluster too, where a receiver
/// that sorted would spill.
#[test]
fn pagerank_in_windows_is_bit_identical_wherever_the_receiver_merges() {
    let records = webmap::webmap(12, 6.0, 56);
    windows_change_nothing(|| PageRank::new(4), "sf-wpr", &records, same_bits);
}

/// 5 000 pages that link to 500 hubs only, every tenth vid: messages reach
/// all three windows, and few reach each receiver. Every plan of the
/// lattice computes the resident table's bits.
#[test]
fn pagerank_in_windows_is_bit_identical_while_no_receiver_spills() {
    let records: Records = (0..5_000u64)
        .map(|v| {
            let edges = (1..=4).map(|i| ((v * 7 + i * 1_237) % 500 * 10, 1.0));
            (v, edges.collect())
        })
        .collect();
    windows_change_nothing(|| PageRank::new(4), "sf-whub", &records, same_bits);
}

#[test]
fn sssp_in_windows_is_identical_to_the_resident_table() {
    let records = btc::btc(5_000, 4.0, 57);
    windows_change_nothing(
        || ShortestPaths::new(0),
        "sf-wsssp",
        &records,
        same_bits,
    );
}

#[test]
fn cc_in_windows_is_identical_to_the_resident_table() {
    let records = btc::btc(5_000, 3.0, 58);
    windows_change_nothing(|| ConnectedComponents, "sf-wcc", &records, |a, b| a == b);
}

/// A cluster whose RAM leaves the table no room — not whole, and not in
/// windows either, because ten windows' spill buffers are more than a
/// quarter of its budget: the job says so, its senders fold nothing
/// directly, and their sorters do exactly the work the sort path does for
/// the same program — spills included. Its receivers still fold by address,
/// in windows, source by source, where the sort path's merge folds ties by
/// their bytes: the two agree to the last few bits, and the same job behind
/// the merging connector agrees to the bit.
#[test]
fn a_table_over_budget_means_the_sort_path_exactly() {
    let records = webmap::webmap(12, 6.0, 55);
    let plan = PlanConfig::default();
    // 64 KiB of RAM per worker: an 8 KiB group-by budget. Its half holds 448
    // of the 4096 slots, its quarter half a page.
    let ram = 64 << 10;
    let (tight, tight_values) = run(PageRank::new(3), "sf-tight", &records, plan, ram);
    assert_eq!(
        tight.sender_fold,
        SenderFold::SortTableTooLarge {
            table_bytes: 4096 * 8 + 512,
            windows: 10,
            spill_buffer_bytes: 9 * 4096,
            budget_bytes: 8192
        }
    );
    assert_eq!(
        tight.sender_fold.to_string(),
        "sort (table 33 KB: 10 windows need 36 KB of buffers > 2 KB)"
    );
    assert_eq!(tight.stats.msgs_folded_direct, 0);
    assert_eq!(tight.stats.msgs_fold_spilled, 0);
    assert_eq!(tight.stats.msgs_stray, 0);
    // A sender that sorts still feeds a receiver that folds by address.
    folds_inbound(&tight, "sf-tight");
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
    assert_eq!(sorted.stats.msgs_folded_inbound, 0);
    assert_eq!(tight_values.len(), sorted_values.len());
    for ((vt, t), (vs, s)) in tight_values.iter().zip(&sorted_values) {
        assert_eq!(vt, vs);
        assert!((t - s).abs() <= 1e-12, "vid {vt}: {t} folded by address, {s} merged");
    }
    let merged = PlanConfig {
        groupby: GroupByStrategy::SortMerged,
        ..plan
    };
    let (_, merged_values) = run(PageRank::new(3), "sf-tight-m", &records, merged, ram);
    assert_eq!(tight_values, merged_values, "same sorters, same receiver fold");
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
        SenderFold::Direct {
            hi: 4096,
            windows: 1,
            ..
        }
    ));
    assert_eq!(roomy.stats.msgs_folded_direct, roomy.stats.messages_sent);
    assert_eq!(roomy.stats.sort_runs_spilled, 0);
}
