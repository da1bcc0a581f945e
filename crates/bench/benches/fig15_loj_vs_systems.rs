//! Figure 15: Pregelix's left-outer-join SSSP plan against the other
//! systems, on two cluster sizes.
//!
//! Paper shape: with the LOJ plan, Pregelix SSSP beats Giraph by up to
//! 15× and GraphLab by up to 35× per iteration on the larger datasets —
//! and keeps completing after every baseline has failed. The
//! message-sparse regime is reproduced with high-diameter road grids (see
//! Figure 14's note); the BTC ladder rows show the same ordering at the
//! points where baselines still run.

use pregelix::baselines::all_engines;
use pregelix::graphgen::{road, DatasetStats};
use pregelix::prelude::*;
use pregelix_bench::{header, run_baseline, run_pregelix, Workload};

const WORKER_RAM: usize = 1 << 20;

fn sweep(workers: usize) {
    header(
        &format!("Figure 15 — SSSP, Pregelix-LOJ vs other systems ({workers} workers)"),
        "avg iteration time; FAIL = OutOfMemory",
    );
    let engines = all_engines();
    print!("{:<10} {:>6} | {:>12}", "dataset", "ratio", "Pregelix-LOJ");
    for e in &engines {
        print!(" | {:>10}", e.name());
    }
    println!();
    for side in [60u64, 110, 170, 240] {
        let records = road::grid(side, 5);
        let stats = DatasetStats::of(&format!("grid-{side}"), &records);
        let ratio = pregelix_bench::ram_ratio(&stats, workers, WORKER_RAM);
        let plan = PlanConfig {
            join: JoinStrategy::LeftOuter,
            groupby: GroupByStrategy::HashSortUnmerged,
        };
        let p = run_pregelix(
            &records,
            Workload::Sssp(1),
            plan,
            workers,
            WORKER_RAM,
            Some(120),
        );
        print!("{:<10} {:>6.3} | {:>12}", stats.name, ratio, p.avg_cell());
        for e in &engines {
            let r = run_baseline(e.as_ref(), &records, Workload::Sssp(1), workers, WORKER_RAM);
            print!(" | {:>10}", r.avg_cell());
        }
        println!();
    }
}

fn main() {
    sweep(6); // scaled stand-in for the paper's 24-machine cluster
    sweep(8); // scaled stand-in for the paper's 32-machine cluster
}
