//! One repetition, in a process of its own: generate the graph, build a
//! fresh cluster, run one whole job through the public API (load, run,
//! dump, read the output back), check it against the oracle, and print one
//! JSON line. A traced repetition also records spans, replays each layer
//! (see [`crate::replay`]) and writes the trace file.
//!
//! One process per repetition because peak memory is a metric: in a shared
//! process `VmHWM` climbs from repetition to repetition and says nothing
//! about any one job.

use crate::graphs::Graph;
use crate::json::Value;
use crate::procfs;
use crate::replay;
use crate::stats::quartiles;
use crate::trace::{phase, Tracer};
use crate::workloads::{Problem, Workload};
use crate::{calibrate, oracle, Fail};
use pregelix_algorithms::{ConnectedComponents, PageRank, ShortestPaths};
use pregelix_common::fault::{self, Fault, FaultPlan, Site};
use pregelix_common::stats::StatsSnapshot;
use pregelix_common::Vid;
use pregelix_core::api::VertexProgram;
use pregelix_core::load;
use pregelix_core::plan::PregelixJob;
use pregelix_core::runtime::{JobSummary, LoadedGraph};
use pregelix_dataflow::cluster::{Cluster, ClusterConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGERANK_ITERATIONS: u64 = 10;
const SSSP_SOURCE: usize = 0;

pub struct Request<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    /// Everything the repetition writes goes under here.
    pub out_dir: &'a Path,
}

/// What the three programs must tell the harness beyond `VertexProgram`.
pub trait BenchProgram: VertexProgram {
    /// The message `src` would send along its out-edge `e`: payload for the
    /// layer replays, typed and sized as the program's real messages.
    fn edge_message(g: &Graph, src: usize, e: usize) -> Self::Message;

    /// Computes the oracle's answer (returning how long the oracle itself
    /// took) and compares the dumped output, and where the text format
    /// rounds, the stored values, against it.
    fn verify(
        &self,
        g: &Graph,
        output: &[(Vid, String)],
        loaded: &LoadedGraph,
    ) -> Result<Duration, Fail>;
}

/// The value column of each output line, after checking that the lines are
/// exactly vertices `0..n` in order.
fn value_column<'a>(g: &Graph, output: &'a [(Vid, String)]) -> Result<Vec<&'a str>, Fail> {
    if output.len() != g.vertices() {
        return Err(format!(
            "output has {} lines for {} vertices",
            output.len(),
            g.vertices()
        ));
    }
    output
        .iter()
        .enumerate()
        .map(|(v, (vid, line))| {
            if *vid != v as Vid {
                return Err(format!("output line {v} is for vertex {vid}"));
            }
            line.split_once('\t')
                .map(|(_, value)| value)
                .ok_or_else(|| format!("output line without a tab: {line:?}"))
        })
        .collect()
}

impl BenchProgram for PageRank {
    fn edge_message(g: &Graph, src: usize, _e: usize) -> f64 {
        1.0 / g.vertices() as f64 / g.out_range(src).len() as f64
    }

    fn verify(
        &self,
        g: &Graph,
        output: &[(Vid, String)],
        loaded: &LoadedGraph,
    ) -> Result<Duration, Fail> {
        let started = Instant::now();
        let want = oracle::pagerank(g, self.damping, self.iterations);
        let took = started.elapsed();
        // The dump prints six decimals: the text can agree with the oracle
        // to half a unit of the sixth place and no better.
        for (v, text) in value_column(g, output)?.iter().enumerate() {
            let got: f64 = text.parse().map_err(|e| format!("rank {text:?}: {e}"))?;
            if (got - want[v]).abs() > 0.5e-6 + 1e-12 {
                return Err(format!("vertex {v}: dumped rank {got}, oracle {}", want[v]));
            }
        }
        // The stored values carry all digits; summation order differs
        // between the combiner tree and the array loop, nothing else does.
        let stored = loaded
            .collect_vertices::<PageRank>()
            .map_err(|e| e.to_string())?;
        for (v, vertex) in stored.iter().enumerate() {
            if (vertex.value - want[v]).abs() > 1e-9 * want[v] {
                return Err(format!(
                    "vertex {v}: stored rank {}, oracle {}",
                    vertex.value, want[v]
                ));
            }
        }
        Ok(took)
    }
}

impl BenchProgram for ShortestPaths {
    fn edge_message(g: &Graph, _src: usize, e: usize) -> f64 {
        g.weights.as_ref().expect("weighted graph")[e] as f64
    }

    fn verify(
        &self,
        g: &Graph,
        output: &[(Vid, String)],
        _loaded: &LoadedGraph,
    ) -> Result<Duration, Fail> {
        let started = Instant::now();
        let want = oracle::shortest_paths(g, self.source as usize);
        let took = started.elapsed();
        for (v, text) in value_column(g, output)?.iter().enumerate() {
            // Integer weights: every distance is an integer that f64 and
            // the four-decimal dump both hold exactly.
            let got = match *text {
                "inf" => None,
                t => Some(
                    t.parse::<f64>()
                        .map_err(|e| format!("distance {t:?}: {e}"))?,
                ),
            };
            if got != want[v].map(|d| d as f64) {
                return Err(format!(
                    "vertex {v}: distance {got:?}, oracle {:?}",
                    want[v]
                ));
            }
        }
        Ok(took)
    }
}

impl BenchProgram for ConnectedComponents {
    fn edge_message(_g: &Graph, src: usize, _e: usize) -> u64 {
        src as u64
    }

    fn verify(
        &self,
        g: &Graph,
        output: &[(Vid, String)],
        _loaded: &LoadedGraph,
    ) -> Result<Duration, Fail> {
        let started = Instant::now();
        let want = oracle::components(g);
        let took = started.elapsed();
        for (v, text) in value_column(g, output)?.iter().enumerate() {
            let got: u64 = text.parse().map_err(|e| format!("label {text:?}: {e}"))?;
            if got != want[v] as u64 {
                return Err(format!("vertex {v}: label {got}, oracle {}", want[v]));
            }
        }
        Ok(took)
    }
}

/// Runs the repetition and returns its report. `Err` is a harness or job
/// failure; the caller turns it into the `{"ok": false}` line.
pub fn run(req: &Request<'_>) -> Result<Value, Fail> {
    match req.workload.problem {
        Problem::PageRank => repetition(req, PageRank::new(PAGERANK_ITERATIONS)),
        Problem::ShortestPaths => repetition(req, ShortestPaths::new(SSSP_SOURCE as Vid)),
        Problem::Components => repetition(req, ConnectedComponents),
    }
}

/// Removes the cluster's directory when the repetition ends, however it
/// ends: the benchmark may leave nothing behind but its `out/` files.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn repetition<P: BenchProgram>(req: &Request<'_>, program: P) -> Result<Value, Fail> {
    let w = req.workload;
    let program = Arc::new(program);
    let mut tracer = req
        .traced
        .then(|| Tracer::new(format!("{}#{}", w.name, req.seed)));

    // ---- set-up: outside the job, reported as its own metric ----
    let setup_started = Instant::now();
    let spec = if req.quick { w.quick_graph } else { w.graph };
    let g = spec.generate(req.seed);
    let text = g.adjacency_text();
    let scratch = ScratchDir(req.out_dir.join(format!("cluster-{}", std::process::id())));
    let mut config = ClusterConfig::new(w.workers, w.worker_ram);
    config.sequential_timed = w.sequential;
    config.root = Some(scratch.0.clone());
    let cluster = Cluster::new(config).map_err(|e| format!("cluster: {e}"))?;
    let mut job = PregelixJob::new(w.name)
        .with_join(w.join)
        .with_groupby(w.groupby);
    if w.checkpoint_and_kill {
        job = job.with_checkpoint_interval(3);
    }
    cluster
        .dfs()
        .write(job.input_path(), text.as_bytes())
        .map_err(|e| format!("writing input: {e}"))?;
    let text_bytes = text.len();
    drop(text);
    let setup_s = setup_started.elapsed().as_secs_f64();

    // One clean death of worker 3, at the barrier before superstep 7. The
    // checkpoint feeding superstep 7 has just been written, so the confined
    // path reloads the dead worker's partitions from it while the survivors
    // keep their state; the message logs are written but not replayed.
    let chaos = w.checkpoint_and_kill.then(|| {
        let guard = fault::exclusive();
        guard.install(FaultPlan::new().on(Site::Barrier, "7", 1, Fault::FailWorker(3)));
        guard
    });

    // ---- the job: load, run, dump ----
    let dfs_before = dir_bytes(cluster.dfs().root());
    // The smoke tier measures nothing, so it calibrates only in name.
    let slices_per_side = if req.quick {
        2
    } else {
        calibrate::SLICES_PER_SIDE
    };
    let mut calibration = calibrate::slices(slices_per_side);
    let job_span = tracer.as_mut().map(|t| t.begin("job", None));
    let cpu_before = procfs::cpu_seconds()?;
    let (loaded, load_took, _) = phase(&mut tracer, "load", job_span, || {
        LoadedGraph::load(&cluster, &program, &job)
    });
    let mut loaded = loaded.map_err(|e| format!("load: {e}"))?;
    let run_cpu_before = procfs::cpu_seconds()?;
    let (summary, run_took, run_span) = phase(&mut tracer, "run", job_span, || {
        loaded.run(&cluster, &program, &job)
    });
    let summary = summary.map_err(|e| format!("run: {e}"))?;
    let run_cpu_s = procfs::cpu_seconds()? - run_cpu_before;
    let (dumped, dump_took, _) = phase(&mut tracer, "dump", job_span, || {
        loaded.dump(&cluster, &program, &job)
    });
    dumped.map_err(|e| format!("dump: {e}"))?;
    let job_cpu_s = procfs::cpu_seconds()? - cpu_before;
    calibration.extend(calibrate::slices(slices_per_side));
    let job_wall = load_took + run_took + dump_took;
    // Before the oracle and the read-back allocate anything.
    let peak_rss_mb = procfs::peak_rss_mb()?;
    let dfs_grown = dir_bytes(cluster.dfs().root()).saturating_sub(dfs_before);
    drop(chaos);

    // ---- check the answer ----
    let (verified, _, _) = phase(
        &mut tracer,
        "verify",
        job_span,
        || -> Result<Duration, Fail> {
            let output = load::read_output(cluster.dfs(), job.output_path())
                .map_err(|e| format!("reading output: {e}"))?;
            program.verify(&g, &output, &loaded)
        },
    );
    let oracle_took = verified?;
    if w.checkpoint_and_kill {
        let s = &summary.stats;
        if (
            summary.recoveries,
            s.confined_recoveries,
            s.confined_fallbacks,
        ) != (1, 1, 0)
        {
            return Err(format!(
                "expected one confined recovery, got recoveries={} confined={} fallbacks={}",
                summary.recoveries, s.confined_recoveries, s.confined_fallbacks
            ));
        }
    }
    if let (Some(t), Some(id)) = (tracer.as_mut(), job_span) {
        t.end(id);
    }

    let run_s = run_took.as_secs_f64();
    let supersteps = summary.supersteps as f64;
    let stats = &summary.stats;
    let e2e = Value::obj([
        ("setup_s", Value::Num(setup_s)),
        ("job_wall_s", Value::Num(job_wall.as_secs_f64())),
        ("job_cpu_s", Value::Num(job_cpu_s)),
        ("run_s", Value::Num(run_s)),
        ("superstep_avg_ms", Value::Num(run_s * 1e3 / supersteps)),
        ("makespan_s", Value::Num(summary.elapsed.as_secs_f64())),
        (
            "compute_calls_per_s",
            Value::Num(stats.compute_calls as f64 / run_s),
        ),
        ("peak_rss_mb", Value::Num(peak_rss_mb)),
        (
            "disk_io_mb",
            Value::Num(disk_io_mb(stats, text_bytes, dfs_grown)),
        ),
    ]);

    let mut layers = count_metrics(&summary);
    let step_ms: Vec<f64> = summary
        .superstep_times
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let [_, step_p50, _] = quartiles(&step_ms);
    let balance = if w.sequential {
        // Total task time over what an even spread would give the busiest
        // worker: 1.0 = every worker equally loaded.
        run_s / (w.workers as f64 * summary.elapsed.as_secs_f64())
    } else {
        // On real threads wall equals makespan; the analogous figure is the
        // share of the workers' wall time spent on the CPU.
        run_cpu_s / (w.workers as f64 * run_s)
    };
    layers.extend([
        ("core.load.s", load_took.as_secs_f64()),
        (
            "core.load.text_mb_per_s",
            text_bytes as f64 / 1e6 / load_took.as_secs_f64(),
        ),
        ("core.dump.s", dump_took.as_secs_f64()),
        ("core.runtime.supersteps", supersteps),
        (
            "core.runtime.superstep_min_ms",
            step_ms.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("core.runtime.superstep_p50_ms", step_p50),
        (
            "core.runtime.superstep_max_ms",
            step_ms.iter().copied().fold(0.0, f64::max),
        ),
        (
            "core.runtime.ns_per_message",
            run_s * 1e9 / stats.messages_sent as f64,
        ),
        (
            "core.runtime.ns_per_compute_call",
            run_s * 1e9 / stats.compute_calls as f64,
        ),
        ("dataflow.scheduler.balance", balance),
        ("bench.oracle.run_s", oracle_took.as_secs_f64()),
        ("bench.oracle.overhead_x", run_s / oracle_took.as_secs_f64()),
    ]);

    if let Some(t) = tracer.as_mut() {
        superstep_spans(t, run_span.expect("traced"), &summary);
        let busy_s = if w.sequential { run_s } else { run_cpu_s };
        layers.extend(replay::run(t, &cluster, &program, &g, &summary, w, busy_s)?);
        let header = vec![
            ("workload", Value::Str(w.name.into())),
            ("seed", Value::Num(req.seed as f64)),
            ("quick", Value::Bool(req.quick)),
        ];
        let path = req.out_dir.join(format!("trace_{}.json", w.name));
        std::fs::write(&path, t.to_json(header).to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    Ok(Value::obj([
        ("ok", Value::Bool(true)),
        (
            "slice_s",
            Value::Num(calibrate::typical_slice(&calibration)),
        ),
        (
            "superstep_s",
            Value::Arr(
                summary
                    .superstep_times
                    .iter()
                    .map(|d| Value::Num(d.as_secs_f64()))
                    .collect(),
            ),
        ),
        ("e2e", e2e),
        (
            "layers",
            Value::obj(layers.into_iter().map(|(k, v)| (k, Value::Num(v)))),
        ),
    ]))
}

/// Bytes the job moved to and from disk, in MB: the storage layer's page and
/// run-file traffic during the superstep loop, the input text it read from
/// the DFS, and what it wrote to the DFS: the output dump, global state,
/// checkpoints and message logs, whether still there (`dfs_grown`) or
/// already retired. The DFS part keeps the metric above zero on a workload
/// that never spills, and it is where checkpointing shows.
fn disk_io_mb(stats: &StatsSnapshot, input_bytes: usize, dfs_grown: u64) -> f64 {
    (stats.disk_read_bytes
        + stats.disk_write_bytes
        + input_bytes as u64
        + dfs_grown
        + stats.ckpt_bytes_retired) as f64
        / 1e6
}

/// Total size of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The exact counts of the job, by layer, from the summary the job returns.
fn count_metrics(summary: &JobSummary) -> Vec<(&'static str, f64)> {
    let s = &summary.stats;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mb = |bytes: u64| bytes as f64 / 1e6;
    vec![
        ("core.superstep.compute_calls", s.compute_calls as f64),
        ("core.superstep.messages_sent", s.messages_sent as f64),
        (
            "dataflow.groupby.combine_ratio",
            ratio(s.messages_combined, s.messages_sent),
        ),
        ("storage.sort.spilled_mb", mb(s.sort_bytes_spilled)),
        ("storage.sort.runs_spilled", s.sort_runs_spilled as f64),
        ("storage.radix.entries", s.radix_sort_entries as f64),
        (
            "storage.radix.comparison_fallbacks",
            s.sort_comparison_fallbacks as f64,
        ),
        (
            "storage.cache.hit_ratio",
            ratio(s.cache_hits, s.cache_hits + s.cache_misses),
        ),
        ("storage.cache.misses", s.cache_misses as f64),
        ("storage.cache.evictions", s.cache_evictions as f64),
        ("storage.file.read_mb", mb(s.disk_read_bytes)),
        ("storage.file.write_mb", mb(s.disk_write_bytes)),
        ("dataflow.transport.network_mb", mb(s.network_bytes)),
        ("dataflow.transport.frames", s.network_frames as f64),
        (
            "dataflow.transport.retransmitted",
            s.frames_retransmitted as f64,
        ),
        ("common.bytes.slab_allocations", s.slab_allocations as f64),
        ("common.frame.bytes_copied", s.frame_bytes_copied as f64),
        ("common.msglog.written_mb", mb(s.log_bytes_written)),
        ("core.store.probe_page_pins", s.probe_page_pins as f64),
        ("core.store.probe_redescents", s.probe_redescents as f64),
        ("core.recovery.confined", s.confined_recoveries as f64),
        ("core.recovery.fallbacks", s.confined_fallbacks as f64),
        (
            "core.recovery.log_runs_replayed",
            s.log_runs_replayed as f64,
        ),
        (
            "dataflow.scheduler.partition_skew",
            s.max_partition_skew as f64,
        ),
    ]
}

/// One span per superstep under `run`, laid end to end from the start of
/// `run` with the durations the job reported, each carrying its counter
/// delta. On a sequential-timed cluster those durations are simulated
/// makespans, so the spans cover less than `run` does; the rest is `run`'s
/// self time.
fn superstep_spans(t: &mut Tracer, run_span: usize, summary: &JobSummary) {
    let mut at = t.span(run_span).start_ns;
    for (i, (took, delta)) in summary
        .superstep_times
        .iter()
        .zip(&summary.superstep_stats)
        .enumerate()
    {
        let end = at + took.as_nanos() as u64;
        let counts = vec![
            ("compute_calls", delta.compute_calls as f64),
            ("messages_sent", delta.messages_sent as f64),
            ("messages_combined", delta.messages_combined as f64),
            ("cache_misses", delta.cache_misses as f64),
            (
                "disk_bytes",
                (delta.disk_read_bytes + delta.disk_write_bytes) as f64,
            ),
            ("sort_bytes_spilled", delta.sort_bytes_spilled as f64),
            ("network_bytes", delta.network_bytes as f64),
        ];
        t.add(
            format!("superstep[{}]", i + 1),
            Some(run_span),
            at,
            end,
            counts,
        );
        at = end;
    }
}
