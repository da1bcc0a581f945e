//! The repo's end-to-end benchmark. See README.md in this directory.
//!
//! ```text
//! pregelix-benchmark run [--seed N] [--seconds S] [--quick] [--json FILE]
//! pregelix-benchmark compare <a.json> <b.json>
//! pregelix-benchmark --workload W --seed N --seconds S --trace 0|1
//! pregelix-benchmark spec
//! ```
//!
//! The third form is the one `BENCHMARK.json` names: one run of one
//! workload, whose last line of output is the result object.

mod calibrate;
mod child;
mod driver;
mod graphs;
mod json;
mod metrics;
mod oracle;
mod procfs;
mod replay;
mod stats;
mod trace;
mod workloads;

use json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// Why something could not be done, for a person to read.
pub type Fail = String;

const USAGE: &str = "usage:
  run [--seed N] [--seconds S] [--quick] [--json FILE]   all workloads, every metric, traces
  compare <a.json> <b.json>                              two results files, metric by metric
  --workload W --seed N --seconds S --trace 0|1          one run of one workload (BENCHMARK.json)
  spec                                                   print BENCHMARK.json";

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(words: &[String], flags: &[&str]) -> Result<Args, Fail> {
        let mut pairs = Vec::new();
        let mut it = words.iter();
        while let Some(word) = it.next() {
            let key = word
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {word:?}"))?;
            let value = if flags.contains(&key) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{key} needs a value"))?
                        .clone(),
                )
            };
            pairs.push((key.to_string(), value));
        }
        Ok(Args { pairs })
    }

    fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, key: &str, default: Option<u64>) -> Result<u64, Fail> {
        match (self.value(key), default) {
            (Some(v), _) => v.parse().map_err(|e| format!("--{key} {v:?}: {e}")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("--{key} is required")),
        }
    }
}

/// `benchmark/out`, wherever the benchmark was built from: `cargo run`
/// passes the manifest directory along, and a binary started by hand falls
/// back to the directory it was compiled in.
fn default_out_dir() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest_dir.join("out")
}

fn options(args: &Args, default_seconds: u64) -> Result<driver::Options, Fail> {
    let out_dir = args
        .value("out-dir")
        .map_or_else(default_out_dir, PathBuf::from);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    // Children change directory freely; hand them an absolute path.
    let out_dir = out_dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let seconds = args.number("seconds", Some(default_seconds))?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok(driver::Options {
        seed: args.number("seed", Some(1))?,
        seconds,
        quick: args.flag("quick"),
        out_dir,
    })
}

fn workload(args: &Args) -> Result<&'static workloads::Workload, Fail> {
    let name = args.value("workload").ok_or("--workload is required")?;
    workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {known:?}")
    })
}

fn dispatch(words: &[String]) -> Result<ExitCode, Fail> {
    match words.first().map(String::as_str) {
        Some("run") => {
            let args = Args::parse(&words[1..], &["quick"])?;
            let opts = options(&args, metrics::RUN_SECONDS)?;
            let results = args
                .value("json")
                .map_or_else(|| opts.out_dir.join("results.json"), PathBuf::from);
            driver::run_all(&opts, &results)?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &words[1..] {
            [a, b] => Ok(if driver::compare(a.as_ref(), b.as_ref())? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }),
            _ => Err(format!("compare takes two files\n{USAGE}")),
        },
        Some("spec") => {
            print!("{}", metrics::spec().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("child") => {
            let args = Args::parse(&words[1..], &["quick"])?;
            let opts = options(&args, 1)?;
            let request = child::Request {
                workload: workload(&args)?,
                seed: opts.seed,
                traced: args.number("trace", None)? == 1,
                quick: opts.quick,
                out_dir: &opts.out_dir,
            };
            // The driver reads the reason from the report, not the status.
            let report = child::run(&request).unwrap_or_else(|e| {
                Value::obj([("ok", Value::Bool(false)), ("error", Value::Str(e))])
            });
            println!("{}", report.to_line());
            Ok(ExitCode::SUCCESS)
        }
        Some(word) if word.starts_with("--") => {
            let args = Args::parse(words, &["quick"])?;
            let opts = options(&args, metrics::RUN_SECONDS)?;
            let traced = match args.number("trace", None)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            let measured = driver::measure(workload(&args)?, &opts, traced)?;
            for f in &measured.failures {
                eprintln!("FAILED: {f}");
            }
            println!("{}", measured.contract_line());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&words).unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}
