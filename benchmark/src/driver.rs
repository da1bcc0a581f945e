//! The driver process: spawns one child per repetition, strictly one at a
//! time (a closed loop with one job in flight), and folds their reports
//! into medians and quartiles.

use crate::calibrate;
use crate::json::{self, Value};
use crate::metrics::{self, Better, Kind, END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::workloads::{self, Workload, WORKLOADS};
use crate::Fail;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Timed repetitions of a run with tracing off, at least.
const MIN_REPETITIONS: usize = 5;
/// Untraced/traced pairs of a traced run, at least.
const MIN_PAIRS: usize = 2;

pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    /// Harness smoke test: 1 k-vertex graphs, one repetition, no warm-up.
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// Runs one child to its end and returns its report, or why there is none.
fn spawn_child(w: &Workload, opts: &Options, traced: bool) -> Result<Value, Fail> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        w.name,
        "--seed",
        &opts.seed.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }])
    .arg("--out-dir")
    .arg(&opts.out_dir)
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end, so no process outlives a run.
    let output = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child printed nothing ({})", output.status))
        .and_then(json::parse)?;
    if report.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(report)
    } else {
        Err(report
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("child reported failure without a reason")
            .to_string())
    }
}

fn number(report: &Value, group: &str, name: &str) -> Result<f64, Fail> {
    report
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("child report lacks {group}.{name}"))
}

/// One metric's value from every report; an error when none succeeded.
fn column(reports: &[Value], group: &str, name: &str) -> Result<Vec<f64>, Fail> {
    if reports.is_empty() {
        return Err(format!(
            "no repetition succeeded, so there is no {group}.{name}"
        ));
    }
    reports.iter().map(|r| number(r, group, name)).collect()
}

/// Samples for `makespan_s` that a disturbance of one superstep in one
/// repetition cannot move: sample `k` is the sum over supersteps of the
/// `k`-th fastest time any repetition took for that superstep. Their median
/// is the sum of the per-superstep medians (quartiles likewise). A total
/// per repetition would carry every such disturbance into the median,
/// amplified: the makespan is a quarter of the work, the disturbance is not.
/// `None` when the repetitions did not run the same supersteps.
fn superstep_rank_sums(reports: &[Value]) -> Option<Vec<f64>> {
    let runs: Vec<Vec<f64>> = reports
        .iter()
        .map(|r| {
            r.get("superstep_s")?
                .as_arr()?
                .iter()
                .map(Value::as_f64)
                .collect()
        })
        .collect::<Option<_>>()?;
    let supersteps = runs.first()?.len();
    if runs.iter().any(|r| r.len() != supersteps) {
        return None;
    }
    let mut sums = vec![0.0; runs.len()];
    for i in 0..supersteps {
        let mut times: Vec<f64> = runs.iter().map(|r| r[i]).collect();
        times.sort_by(f64::total_cmp);
        for (sum, t) in sums.iter_mut().zip(times) {
            *sum += t;
        }
    }
    Some(sums)
}

/// The outcome of one run of one workload: the contract's unit of work.
pub struct Measured {
    pub attempted: usize,
    pub failures: Vec<Fail>,
    /// `(name, unit, summary)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
}

impl Measured {
    /// The last line the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, unit, s)| {
            let entry = Value::obj([
                ("value", Value::Num(s.median)),
                ("unit", Value::Str((*unit).into())),
            ]);
            (*name, entry)
        });
        Value::obj([
            ("correct", Value::Bool(self.failures.is_empty())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failures.len() as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_line()
    }
}

/// What must repeat exactly from repetition to repetition when the cluster
/// is sequential-timed (fixed task order, one thread): `(group, metric)`.
const EXACT_COUNTS: [(&str, &str); 10] = [
    ("layers", "core.superstep.compute_calls"),
    ("layers", "core.superstep.messages_sent"),
    ("layers", "storage.sort.spilled_mb"),
    ("layers", "storage.cache.misses"),
    ("layers", "storage.cache.evictions"),
    ("layers", "storage.file.read_mb"),
    ("layers", "storage.file.write_mb"),
    ("layers", "core.store.probe_page_pins"),
    ("layers", "core.store.probe_redescents"),
    ("e2e", "disk_io_mb"),
];

/// Stops a run whose children all fail at once from spawning them forever.
const MAX_REPETITIONS: usize = 64;

struct Run<'a> {
    w: &'static Workload,
    opts: &'a Options,
    attempted: usize,
    failures: Vec<Fail>,
}

impl Run<'_> {
    /// One counted repetition; a failed one is recorded and yields `None`.
    fn repetition(&mut self, w: &'static Workload, traced: bool) -> Option<Value> {
        self.attempted += 1;
        match spawn_child(w, self.opts, traced) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!("[{}] repetition {} failed: {e}", w.name, self.attempted);
                self.failures.push(e);
                None
            }
        }
    }

    fn check_exact_counts(&mut self, reports: &[Value]) {
        if !self.w.sequential {
            return;
        }
        for (group, name) in EXACT_COUNTS {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|r| number(r, group, name).ok())
                .collect();
            if values.windows(2).any(|p| p[0] != p[1]) {
                self.failures
                    .push(format!("{name} differs between repetitions: {values:?}"));
            }
        }
    }
}

/// Runs `w` for about `opts.seconds` seconds: with tracing off for the
/// end-to-end metrics, or traced for the per-layer ones.
pub fn measure(w: &'static Workload, opts: &Options, traced: bool) -> Result<Measured, Fail> {
    let mut run = Run {
        w,
        opts,
        attempted: 0,
        failures: Vec::new(),
    };
    if !opts.quick {
        // Discarded warm-up on the 1 k-vertex graph: pages the binary in and
        // creates the directory tree, for a twentieth of a repetition's time.
        let warm_up = Options {
            quick: true,
            out_dir: opts.out_dir.clone(),
            ..*opts
        };
        let _ = spawn_child(w, &warm_up, false);
    }
    let started = Instant::now();
    let budget = Duration::from_secs(opts.seconds);
    let mut plain = Vec::new(); // reports of untraced repetitions
    let mut with_trace = Vec::new();
    let enough = |n: usize, min: usize| {
        if opts.quick {
            n >= 1
        } else {
            n >= min && started.elapsed() >= budget
        }
    };
    if traced {
        // Alternate, so drift of the machine hits both kinds alike.
        while !enough(with_trace.len().min(plain.len()), MIN_PAIRS)
            && run.attempted < MAX_REPETITIONS
        {
            plain.extend(run.repetition(w, false));
            with_trace.extend(run.repetition(w, true));
        }
    } else {
        while !enough(plain.len(), MIN_REPETITIONS) && run.attempted < MAX_REPETITIONS {
            plain.extend(run.repetition(w, false));
        }
    }
    let all: Vec<Value> = plain.iter().chain(&with_trace).cloned().collect();
    run.check_exact_counts(&all);

    // The machine's speed during this run: nominal over the typical slice
    // time of the calibration next to every repetition.
    let slice_s: Vec<f64> = all
        .iter()
        .filter_map(|r| r.get("slice_s").and_then(Value::as_f64))
        .collect();
    if slice_s.is_empty() {
        return Err(format!(
            "[{}] no repetition succeeded: {:?}",
            w.name, run.failures
        ));
    }
    let speed = calibrate::speed(median(&slice_s));

    let mut out = Vec::new();
    if traced {
        let checkpoint_overhead_s = match w.plain_twin.and_then(workloads::by_name) {
            Some(twin) => {
                let repetitions = if opts.quick { 1 } else { MIN_PAIRS };
                let reports: Vec<Value> = (0..repetitions)
                    .filter_map(|_| run.repetition(twin, false))
                    .collect();
                median(&column(&all, "e2e", "run_s")?) - median(&column(&reports, "e2e", "run_s")?)
            }
            // Zero by definition on a workload with no checkpoint-free twin.
            None => 0.0,
        };
        let wall_plain = median(&column(&plain, "e2e", "job_wall_s")?);
        let wall_traced = median(&column(&with_trace, "e2e", "job_wall_s")?);
        // Per-layer numbers are as measured, not scaled to nominal speed;
        // the speed they were measured at is one of them.
        for m in &PER_LAYER {
            let samples = match m.name {
                "bench.trace.overhead_pct" => vec![(wall_traced - wall_plain) / wall_plain * 100.0],
                "core.checkpoint.overhead_s" => vec![checkpoint_overhead_s],
                "bench.machine.speed" => vec![speed],
                "bench.raw.job_wall_s" => column(&with_trace, "e2e", "job_wall_s")?,
                name => column(&with_trace, "layers", name)?,
            };
            out.push((m.name, m.unit, Summary::of(samples)));
        }
    } else {
        for m in &END_TO_END {
            let factor = match m.kind {
                Kind::Time => speed,
                Kind::Rate => 1.0 / speed,
                Kind::Size => 1.0,
            };
            let measured = match m.name {
                "makespan_s" => {
                    superstep_rank_sums(&plain).map_or_else(|| column(&plain, "e2e", m.name), Ok)?
                }
                name => column(&plain, "e2e", name)?,
            };
            let samples = measured.into_iter().map(|v| v * factor).collect();
            out.push((m.name, m.unit, Summary::of(samples)));
        }
    }
    Ok(Measured {
        attempted: run.attempted,
        failures: run.failures,
        metrics: out,
    })
}

fn summary_json(unit: &str, s: &Summary) -> Value {
    Value::obj([
        ("unit", Value::Str(unit.into())),
        ("median", Value::Num(s.median)),
        ("q1", Value::Num(s.q1)),
        ("q3", Value::Num(s.q3)),
        ("n", Value::Num(s.samples.len() as f64)),
        (
            "samples",
            Value::Arr(s.samples.iter().map(|v| Value::Num(*v)).collect()),
        ),
    ])
}

fn print_table(title: &str, m: &Measured, bound_of: impl Fn(&str) -> Option<f64>) {
    println!("  {title}");
    println!(
        "    {:<42} {:>14} {:>14} {:>14}  {:<6} {:>3}  bound",
        "metric", "median", "q1", "q3", "unit", "n"
    );
    for (name, unit, s) in &m.metrics {
        let bound = bound_of(name).map_or(String::new(), |b| format!("{:.0}%", b * 100.0));
        println!(
            "    {:<42} {:>14.6} {:>14.6} {:>14.6}  {:<6} {:>3}  {bound}",
            name,
            s.median,
            s.q1,
            s.q3,
            unit,
            s.samples.len()
        );
    }
}

/// `run`: every workload, end-to-end with tracing off and then per-layer
/// from traced repetitions; prints every metric and writes the results
/// file `compare` reads. `Err` when any repetition failed.
pub fn run_all(opts: &Options, results_path: &Path) -> Result<(), Fail> {
    let mut workloads_json = Vec::new();
    let mut failed_anywhere = Vec::new();
    for w in &WORKLOADS {
        println!("== {} == {}", w.name, w.why);
        let timed = measure(w, opts, false)?;
        print_table("end-to-end, tracing off", &timed, |n| {
            metrics::end_to_end(n).map(|m| m.bound)
        });
        let traced = measure(w, opts, true)?;
        print_table("per-layer, from traced repetitions", &traced, |_| None);
        let attempted = timed.attempted + traced.attempted;
        let failures: Vec<&Fail> = timed.failures.iter().chain(&traced.failures).collect();
        println!(
            "    {:<42} {:>14.6}  ({} of {} repetitions)",
            "failed_share",
            failures.len() as f64 / attempted as f64,
            failures.len(),
            attempted
        );
        for f in &failures {
            println!("    FAILED: {f}");
            failed_anywhere.push(format!("{}: {f}", w.name));
        }
        let group =
            |m: &Measured| Value::obj(m.metrics.iter().map(|(n, u, s)| (*n, summary_json(u, s))));
        workloads_json.push((
            w.name,
            Value::obj([
                ("attempted", Value::Num(attempted as f64)),
                ("failed", Value::Num(failures.len() as f64)),
                ("end_to_end", group(&timed)),
                ("per_layer", group(&traced)),
            ]),
        ));
    }
    let results = Value::obj([
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds as f64)),
        ("quick", Value::Bool(opts.quick)),
        ("workloads", Value::obj(workloads_json)),
    ]);
    std::fs::write(results_path, results.to_pretty())
        .map_err(|e| format!("{}: {e}", results_path.display()))?;
    println!("results: {}", results_path.display());
    println!("traces:  {}/trace_<workload>.json", opts.out_dir.display());
    if failed_anywhere.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} repetition(s) failed: {failed_anywhere:?}",
            failed_anywhere.len()
        ))
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side exceeds the bound, so the two
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

/// Judges one metric of one workload: `a` is the parent, `b` the change.
/// Returns the verdict and by how much `b` is worse, as a share of `a`.
pub fn judge(better: Better, bound: f64, a: &Summary, b: &Summary) -> (Verdict, f64) {
    let worsening = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    let verdict = if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, worsening)
}

fn summary_from(results: &Value, workload: &str, metric: &str) -> Option<Summary> {
    let samples = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .filter_map(Value::as_f64)
        .collect::<Vec<_>>();
    (!samples.is_empty()).then(|| Summary::of(samples))
}

/// `compare a.json b.json`: every workload x end-to-end metric of two
/// results files. `Ok(true)` when nothing is worse.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, Fail> {
    let load = |p: &Path| -> Result<Value, Fail> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut tally = [0usize; 3];
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "worse by", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                summary_from(&a, w.name, m.name),
                summary_from(&b, w.name, m.name),
            ) else {
                return Err(format!(
                    "{}.{} is missing from one of the files",
                    w.name, m.name
                ));
            };
            let (verdict, worsening) = judge(m.better, m.bound, &sa, &sb);
            tally[verdict as usize] += 1;
            println!(
                "{:<18} {:<20} {:>14.6} {:>14.6} {:>8.2}% {:>5.0}%  {}",
                w.name,
                m.name,
                sa.median,
                sb.median,
                worsening * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "{} ok, {} worse, {} unresolved",
        tally[0], tally[1], tally[2]
    );
    Ok(tally[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let steady = |m: f64| Summary::of(vec![m * 0.99, m, m * 1.01, m, m]);
        let noisy = |m: f64| Summary::of(vec![m * 0.7, m, m * 1.3, m * 0.8, m * 1.2]);
        assert_eq!(
            judge(Better::Lower, 0.1, &steady(10.0), &steady(10.5)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &steady(10.0), &steady(11.5)).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &steady(10.0), &steady(5.0)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &steady(10.0), &steady(8.0)).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &steady(10.0), &steady(12.0)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &steady(10.0), &noisy(10.0)).0,
            Verdict::Unresolved
        );
        let (_, by) = judge(Better::Lower, 0.1, &steady(10.0), &steady(11.0));
        assert!((by - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rank_sums_vote_out_one_slow_superstep() {
        let report = |steps: &[f64]| {
            Value::obj([(
                "superstep_s",
                Value::Arr(steps.iter().map(|s| Value::Num(*s)).collect()),
            )])
        };
        // Three repetitions of three supersteps; each has one disturbed step.
        let reports = [
            report(&[1.0, 2.0, 9.0]),
            report(&[8.0, 2.0, 3.0]),
            report(&[1.0, 7.0, 3.0]),
        ];
        let sums = superstep_rank_sums(&reports).unwrap();
        assert_eq!(sums, vec![6.0, 6.0, 24.0]);
        assert_eq!(median(&sums), 6.0, "the undisturbed makespan");
        // Totals per repetition would all read 12 or 13.
        assert_eq!(
            superstep_rank_sums(&[report(&[1.0]), report(&[1.0, 2.0])]),
            None
        );
        assert_eq!(superstep_rank_sums(&[]), None);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let m = Measured {
            attempted: 5,
            failures: vec![],
            metrics: vec![("setup_s", "s", Summary::of(vec![0.5, 0.25, 0.75]))],
        };
        assert_eq!(
            m.contract_line(),
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }

    #[test]
    fn results_file_round_trip_feeds_compare() {
        let s = Summary::of(vec![1.0, 2.0, 3.0]);
        let file = Value::obj([(
            "workloads",
            Value::obj([(
                "pr_web_mem",
                Value::obj([("end_to_end", Value::obj([("run_s", summary_json("s", &s))]))]),
            )]),
        )]);
        let back = json::parse(&file.to_pretty()).unwrap();
        assert_eq!(summary_from(&back, "pr_web_mem", "run_s"), Some(s));
        assert_eq!(summary_from(&back, "pr_web_mem", "nope"), None);
    }
}
