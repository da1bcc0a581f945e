//! The benchmark's metrics: names, units, which way is better, and for the
//! end-to-end ones the bound by which a change may worsen them. This table
//! is the single source; `BENCHMARK.json` at the repo root is its printout
//! (`spec` subcommand), and a test keeps the two equal.

use crate::json::Value;
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric depends on the speed of the machine during the run (see
/// [`crate::calibrate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A duration: reported at nominal speed, measured value x speed.
    Time,
    /// Work per second: measured value / speed.
    Rate,
    /// Bytes and the like, which the machine's speed does not change.
    Size,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub kind: Kind,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one contract run measures for (`run_seconds` in the spec).
pub const RUN_SECONDS: u64 = 15;

use Better::{Higher, Lower};
use Kind::{Rate, Size, Time};

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        kind: Time,
    },
    EndToEnd {
        name: "job_wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        kind: Time,
    },
    EndToEnd {
        name: "job_cpu_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        kind: Time,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        kind: Time,
    },
    EndToEnd {
        name: "superstep_avg_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        kind: Time,
    },
    EndToEnd {
        name: "makespan_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        kind: Time,
    },
    EndToEnd {
        name: "compute_calls_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        kind: Rate,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.20,
        kind: Size,
    },
    EndToEnd {
        name: "disk_io_mb",
        unit: "MB",
        better: Lower,
        bound: 0.03,
        kind: Size,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 60] = [
    // (a) exact counts from the JobSummary the job returns
    layer("core.superstep.compute_calls", "count", Lower),
    layer("core.superstep.messages_sent", "count", Lower),
    layer("dataflow.groupby.combine_ratio", "ratio", Lower),
    layer("storage.sort.spilled_mb", "MB", Lower),
    layer("storage.sort.runs_spilled", "count", Lower),
    layer("storage.radix.entries", "count", Higher),
    layer("storage.radix.comparison_fallbacks", "count", Lower),
    layer("storage.cache.hit_ratio", "ratio", Higher),
    layer("storage.cache.misses", "count", Lower),
    layer("storage.cache.evictions", "count", Lower),
    layer("storage.file.read_mb", "MB", Lower),
    layer("storage.file.write_mb", "MB", Lower),
    layer("dataflow.transport.network_mb", "MB", Lower),
    layer("dataflow.transport.frames", "count", Lower),
    layer("dataflow.transport.retransmitted", "count", Lower),
    layer("common.bytes.slab_allocations", "count", Lower),
    layer("common.frame.bytes_copied", "bytes", Lower),
    layer("common.msglog.written_mb", "MB", Lower),
    layer("core.store.probe_page_pins", "count", Lower),
    layer("core.store.probe_redescents", "count", Lower),
    layer("core.recovery.confined", "count", Higher),
    layer("core.recovery.fallbacks", "count", Lower),
    layer("core.recovery.log_runs_replayed", "count", Lower),
    layer("dataflow.scheduler.partition_skew", "count", Lower),
    // (b) spans around the public calls, and the job's superstep times
    layer("core.load.s", "s", Lower),
    layer("core.load.text_mb_per_s", "MB/s", Higher),
    layer("core.dump.s", "s", Lower),
    layer("core.runtime.supersteps", "count", Lower),
    layer("core.runtime.superstep_min_ms", "ms", Lower),
    layer("core.runtime.superstep_p50_ms", "ms", Lower),
    layer("core.runtime.superstep_max_ms", "ms", Lower),
    layer("core.runtime.ns_per_message", "ns", Lower),
    layer("core.runtime.ns_per_compute_call", "ns", Lower),
    layer("dataflow.scheduler.balance", "ratio", Higher),
    layer("core.checkpoint.overhead_s", "s", Lower),
    layer("bench.machine.speed", "ratio", Higher),
    layer("bench.raw.job_wall_s", "s", Lower),
    layer("bench.oracle.run_s", "s", Lower),
    layer("bench.oracle.overhead_x", "x", Lower),
    layer("bench.trace.overhead_pct", "%", Lower),
    // (c) layer replays on one partition-superstep of the workload's tuples
    layer("common.frame.sort_ns_per_tuple", "ns", Lower),
    layer("common.frame.freeze_mb_per_s", "MB/s", Higher),
    layer("storage.sort.ns_per_tuple", "ns", Lower),
    layer("storage.runfile.mb_per_s", "MB/s", Higher),
    layer("storage.btree.bulk_load_ns_per_vertex", "ns", Lower),
    layer("storage.btree.scan_ns_per_vertex", "ns", Lower),
    layer("storage.btree.update_ns_per_vertex", "ns", Lower),
    layer("storage.btree.probe_ns_per_key", "ns", Lower),
    layer("dataflow.groupby.sort_ns_per_tuple", "ns", Lower),
    layer("dataflow.groupby.hashsort_ns_per_tuple", "ns", Lower),
    layer("dataflow.connector.ns_per_tuple", "ns", Lower),
    layer("dataflow.connector.merged_ns_per_tuple", "ns", Lower),
    layer("dataflow.transport.hop_frames_per_s", "1/s", Higher),
    layer("dataflow.cluster.dispatch_us_per_task", "us", Lower),
    layer("core.checkpoint.write_mb_per_s", "MB/s", Higher),
    // (d) estimated shares of the run: replay unit cost x the job's count
    layer("est_share.sort_groupby", "ratio", Lower),
    layer("est_share.store", "ratio", Lower),
    layer("est_share.connector", "ratio", Lower),
    layer("est_share.dispatch", "ratio", Lower),
    layer("est_share.unattributed", "ratio", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn spec() -> Value {
    let strings =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str((*s).into())).collect());
    Value::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.word().into())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.word().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for (i, n) in names.iter().enumerate() {
            assert!(valid_name(n), "{n}");
            assert!(!names[..i].contains(n), "{n} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_is_the_printout_of_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            crate::json::parse(&committed).expect("BENCHMARK.json parses"),
            spec(),
            "regenerate with: cargo run --release --offline -- spec > ../BENCHMARK.json"
        );
    }
}
