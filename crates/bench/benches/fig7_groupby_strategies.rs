//! Figure 7 / §5.3.1 / TR [13] Fig. 9: the four parallel message-combination
//! strategies, across cluster sizes.
//!
//! Shapes to reproduce:
//!
//! * The merging connector (lower strategies) can edge out the
//!   non-merging one on *small* clusters — the receiver needs only a
//!   one-pass preclustered group-by.
//! * As the cluster grows, the receiver-side merge must coordinate across
//!   all senders (it cannot emit until every sender's sorted run is
//!   sealed), so the merging strategies lose ground — the TR's
//!   146-machine finding, visible here as a ratio trend.
//! * HashSort beats Sort when distinct message destinations are few;
//!   otherwise they are similar.
//!
//! The four strategies sort and group, so their rows run PageRank with its
//! message wrapped in a newtype that declares no fixed width — the one
//! thing that keeps a combining program off the sender-side fold table.
//! The fifth row, `direct`, is the same job with the plain `f64` message:
//! senders fold by address and only the receiver groups. Every cell checks
//! from the job summary which path ran, so no bar can quietly turn into
//! another.

use pregelix::core::api::tests_support::SortPath;
use pregelix::graphgen::webmap;
use pregelix::prelude::*;
use pregelix_bench::{header, run_program, RunOutcome};

/// 32 768 vertices need a 260 KB fold table, and the table may take half of
/// a group-by's budget (an eighth of the RAM): 4.5 MiB per worker gives it
/// 288 KB. At 4 MiB it would miss by 4 KB and the `direct` row would sort.
const WORKER_RAM: usize = 9 << 19;

fn main() {
    header(
        "Figure 7 — message-combination strategies (PageRank avg iteration)",
        "rows: strategy; columns: cluster size",
    );
    let records = webmap::webmap(15, 8.0, 13); // 32k vertices, 260k edges
    let clusters = [2usize, 4, 8];
    print!("{:<18}", "strategy");
    for w in clusters {
        print!(" {:>10}", format!("{w} workers"));
    }
    println!();
    let cell = |summary: pregelix::common::error::Result<JobSummary>, direct: bool| {
        if let Ok(s) = &summary {
            assert_eq!(
                matches!(s.sender_fold, SenderFold::Direct { .. }),
                direct,
                "sender-side combine ran as {}",
                s.sender_fold
            );
        }
        print!(" {:>10}", RunOutcome::from(summary).avg_cell());
    };
    for strategy in GroupByStrategy::all() {
        let plan = PlanConfig {
            groupby: strategy,
            ..PlanConfig::default()
        };
        print!("{:<18}", plan.label().replace("foj-", "").replace("-btree", ""));
        for w in clusters {
            let program = SortPath(PageRank::new(5));
            cell(
                run_program(&records, program, plan, w, WORKER_RAM, None),
                false,
            );
        }
        println!();
    }
    print!("{:<18}", "direct");
    for w in clusters {
        let plan = PlanConfig::default();
        cell(
            run_program(&records, PageRank::new(5), plan, w, WORKER_RAM, None),
            true,
        );
    }
    println!();
}
