//! Stand-in for `criterion` 0.5: a min-of-N wall-clock timer behind the
//! names the `crates/bench` harnesses call. No statistics, no warm-up, no
//! reports on disk — each benchmark prints the fastest of its samples.
//!
//! Surface: `Criterion::{default, configure_from_args, benchmark_group,
//! bench_function, final_summary}`, `BenchmarkGroup::{sample_size,
//! throughput, bench_function, finish}`, `Bencher::{iter, iter_batched}`,
//! `BatchSize`, `Throughput`, `black_box`, `criterion_group!`,
//! `criterion_main!`.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Samples per benchmark unless a group asks for fewer.
const DEFAULT_SAMPLES: usize = 3;

/// Work per iteration, for the printed rate.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// How `iter_batched` sizes its batches; every size means one setup per run
/// here.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    ran: usize,
}

impl Criterion {
    /// Command-line options are accepted and ignored.
    pub fn configure_from_args(self) -> Criterion {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            samples: DEFAULT_SAMPLES,
            throughput: None,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Criterion {
        self.benchmark_group(id).run(None, f);
        self
    }

    pub fn final_summary(&self) {
        println!("{} benchmarks timed (min of N runs each)", self.ran);
    }
}

/// Benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Caps the sample count; the timer never takes more than
    /// `DEFAULT_SAMPLES`.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.clamp(1, DEFAULT_SAMPLES);
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        self.run(Some(&id.into()), f);
        self
    }

    pub fn finish(self) {}

    fn run<F: FnMut(&mut Bencher)>(&mut self, id: Option<&str>, mut f: F) {
        let mut best = Duration::MAX;
        for _ in 0..self.samples {
            let mut b = Bencher { elapsed: None };
            f(&mut b);
            if let Some(e) = b.elapsed {
                best = best.min(e);
            }
        }
        self.criterion.ran += 1;
        let name = match id {
            Some(id) => format!("{}/{id}", self.name),
            None => self.name.clone(),
        };
        if best == Duration::MAX {
            println!("{name}: no timed routine");
            return;
        }
        let secs = best.as_secs_f64().max(1e-12);
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) => format!(", {:.1} MB/s", n as f64 / secs / 1e6),
            Some(Throughput::Elements(n)) => format!(", {:.0} elem/s", n as f64 / secs),
            None => String::new(),
        };
        println!("{name}: min {best:?} of {} runs{rate}", self.samples);
    }
}

/// Times one run of a routine.
pub struct Bencher {
    elapsed: Option<Duration>,
}

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        black_box(routine());
        self.elapsed = Some(start.elapsed());
    }

    /// `setup` is not timed.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        self.elapsed = Some(start.elapsed());
    }
}

/// `criterion_group!(name, target, …)`: a function running each target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
            c.final_summary();
        }
    };
}

/// `criterion_main!(group, …)`: the bench binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two(c: &mut Criterion) {
        let mut g = c.benchmark_group("g");
        g.sample_size(10).throughput(Throughput::Elements(4));
        let mut runs = 0;
        g.bench_function("iter", |b| b.iter(|| runs += 1));
        assert_eq!(runs, DEFAULT_SAMPLES);
        let mut setups = 0;
        g.bench_function("batched", |b| {
            b.iter_batched(|| setups += 1, |()| 7, BatchSize::LargeInput)
        });
        assert_eq!(setups, DEFAULT_SAMPLES);
        g.finish();
    }

    criterion_group!(group, two);

    #[test]
    fn group_runs_every_target() {
        group();
        let mut c = Criterion::default();
        c.bench_function("solo", |b| b.iter(|| black_box(1)));
        assert_eq!(c.ran, 1);
    }
}
