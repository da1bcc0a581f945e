//! How fast the machine is during a run, measured next to every job.
//!
//! The sandbox this benchmark runs in slows down by up to half for seconds
//! to minutes at a time (other tenants of the host, one virtual CPU at a
//! time). A stretch like that can outlast a whole run, so no statistic over
//! the run's repetitions removes it; raw medians of the same commit were
//! seen 48 % apart. What helps: time a fixed piece of work right before and
//! right after each job, take the run's typical slice time as the machine's
//! speed during the run, and divide it out of the run's time metrics. They
//! are therefore seconds *at nominal speed*. `bench.machine.speed` and
//! `bench.raw.job_wall_s` report what was divided out.
//!
//! Tried on series of 60 to 150 back-to-back repetitions, cut into runs of
//! six: scaling each run by its own speed brought the spread between runs
//! from 6-18 % to 5-10 % and the full range from 25-48 % to 11-28 %.
//! Scaling every repetition by its own calibration did worse (a
//! disturbance that hits only the calibration then corrupts one sample),
//! as did taking the fastest repetition unscaled.

use crate::graphs::SplitMix64;
use crate::stats::quartiles;
use std::time::Instant;

/// Seconds a slice typically takes at nominal speed: this sandbox,
/// undisturbed. The constant only fixes the unit; another value rescales
/// every time metric of every workload alike.
pub const NOMINAL_SLICE_S: f64 = 0.0115;

/// Slices timed before and again after each job.
pub const SLICES_PER_SIDE: usize = 12;

/// Times `n` identical slices of work: sort 2 MB of keys, then walk them
/// with half a million dependent, scattered reads. Memory-bound enough to
/// slow down when a job would; two dozen cost a tenth of a repetition.
pub fn slices(n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(0xCA11_B8A7);
    let mut acc = 0u64;
    (0..n)
        .map(|_| {
            let started = Instant::now();
            let mut keys: Vec<u64> = (0..1 << 18).map(|_| rng.next_u64()).collect();
            keys.sort_unstable();
            let mask = keys.len() as u64 - 1;
            let mut at = 0u64;
            for _ in 0..1 << 19 {
                at = keys[(at & mask) as usize].wrapping_add(at >> 7);
                acc = acc.wrapping_add(at);
            }
            std::hint::black_box(acc);
            started.elapsed().as_secs_f64()
        })
        .collect()
}

/// One repetition's slice time: the lower quartile, which ignores the
/// short disturbances that hit a few slices and rises with the long ones
/// that also hit the job between them.
pub fn typical_slice(slice_seconds: &[f64]) -> f64 {
    quartiles(slice_seconds)[0]
}

/// Machine speed relative to nominal: 1.0 = nominal, 0.7 = everything
/// takes 1/0.7 as long as it should.
pub fn speed(typical_slice_s: f64) -> f64 {
    NOMINAL_SLICE_S / typical_slice_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_slice_ignores_a_few_slow_slices() {
        let mut s = vec![0.0115; 20];
        s.extend([0.03, 0.04, 0.05, 0.06]);
        assert_eq!(typical_slice(&s), 0.0115);
        assert_eq!(speed(typical_slice(&s)), 1.0);
        assert_eq!(speed(0.023), 0.5);
    }

    #[test]
    fn slices_do_real_work() {
        let s = slices(3);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|t| *t > 1e-4), "a slice cannot be free: {s:?}");
    }
}
