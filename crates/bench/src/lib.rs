//! Shared plumbing for the experiment harness binaries and the `sdbp bench`
//! suites.
//!
//! Each binary under `src/bin/` regenerates one table or figure of Patil &
//! Emer (HPCA 2000); this library holds the conventions they share — the
//! experiment seed, instruction budgets, and per-run report helpers — so
//! that every harness binary measures the *same* workload streams.
//!
//! Run an individual experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p sdbp-bench --bin table2
//! ```
//!
//! or everything at once with `--bin all_experiments`. Budgets scale with
//! the `SDBP_SCALE` environment variable (default 1.0; e.g. `SDBP_SCALE=0.1`
//! for a quick smoke pass).
//!
//! The [`kernel`], [`passes`], [`frontier`] and [`families`] modules are the
//! suites behind `sdbp bench <suite>`, which writes their reports as the
//! `BENCH_<suite>.json` records. Timed suites repeat through [`timed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdbp_core::{ExperimentSpec, Lab, Report, Sweep};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::SelectionScheme;
use sdbp_workloads::Benchmark;
use std::hint::black_box;
use std::time::Instant;

/// The fixed seed every harness binary uses, so results are directly
/// comparable across tables and reruns.
pub const SEED: u64 = 2000;

/// Default profiling budget (instructions) before scaling.
pub const PROFILE_INSTRUCTIONS: u64 = 6_000_000;

/// Default measurement budget (instructions) before scaling.
pub const MEASURE_INSTRUCTIONS: u64 = 12_000_000;

/// The predictor sizes (bytes) swept by the figure experiments.
pub const SIZE_SWEEP: [usize; 7] = [
    1024,
    2 * 1024,
    4 * 1024,
    8 * 1024,
    16 * 1024,
    32 * 1024,
    64 * 1024,
];

/// The fixed size used by per-predictor comparisons (Table 2, Figures 7–12).
pub const COMPARISON_SIZE: usize = 8 * 1024;

/// Reads the `SDBP_SCALE` budget multiplier from the environment.
pub fn scale() -> f64 {
    std::env::var("SDBP_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0)
}

/// The scaled profiling budget.
pub fn profile_budget() -> u64 {
    ((PROFILE_INSTRUCTIONS as f64) * scale()) as u64
}

/// The scaled measurement budget.
pub fn measure_budget() -> u64 {
    ((MEASURE_INSTRUCTIONS as f64) * scale()) as u64
}

/// Builds the standard self-trained spec used across harness binaries.
pub fn spec(
    benchmark: Benchmark,
    kind: PredictorKind,
    size_bytes: usize,
    scheme: SelectionScheme,
) -> ExperimentSpec {
    let predictor =
        PredictorConfig::new(kind, size_bytes).expect("harness sizes are powers of two");
    let mut s = ExperimentSpec::self_trained(benchmark, predictor, scheme).with_seed(SEED);
    s.profile_instructions = Some(profile_budget());
    s.measure_instructions = Some(measure_budget());
    s
}

/// Runs a grid of specs through the parallel [`Sweep`] engine, sharing the
/// lab's artifact cache so profiles and traces computed by earlier grids are
/// reused. Prints one progress line per cell and a summary line — worker
/// threads, wall time, speedup, and cache hit/miss counters — to stderr.
/// Reports come back in spec order, bit-identical to a serial run.
///
/// Thread count follows the engine's resolution: the `SDBP_THREADS`
/// environment variable if set, otherwise all available cores.
pub fn run_grid(lab: &Lab, specs: Vec<ExperimentSpec>) -> Vec<Report> {
    let result = Sweep::new(specs)
        .with_cache(lab.cache())
        .with_verbose(true)
        .run();
    eprintln!("  sweep: {}", result.summary());
    result
        .into_reports()
        .expect("harness specs are well-formed")
}

/// Wall-clock seconds of a repeated measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The fastest repetition: other load only ever slows a run down, so
    /// this is the least disturbed one.
    pub min_s: f64,
    /// The median repetition (the upper of the middle two for an even
    /// count).
    pub median_s: f64,
}

/// Runs `pass` `reps` times (at least once), timing each repetition, and
/// returns the min and median wall clock with the last repetition's
/// outcome.
pub fn timed<T>(reps: u32, mut pass: impl FnMut() -> T) -> (Timing, T) {
    let mut seconds = Vec::new();
    let mut outcome = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        outcome = Some(black_box(pass()));
        seconds.push(started.elapsed().as_secs_f64());
    }
    seconds.sort_by(f64::total_cmp);
    let timing = Timing {
        min_s: seconds[0],
        median_s: seconds[seconds.len() / 2],
    };
    (timing, outcome.expect("at least one repetition ran"))
}

/// Formats a signed percentage improvement Table 3/4-style.
pub fn improvement_pct(report: &Report, baseline: &Report) -> String {
    format!("{:+.1}%", report.improvement_over(baseline) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_produces_runnable_specs() {
        let s = spec(
            Benchmark::Compress,
            PredictorKind::Gshare,
            1024,
            SelectionScheme::None,
        );
        assert_eq!(s.seed, SEED);
        assert!(s.measure_instructions.unwrap() > 0);
    }

    #[test]
    fn scale_defaults_to_one() {
        // Only meaningful when SDBP_SCALE is unset in the test environment.
        if std::env::var("SDBP_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
            assert_eq!(measure_budget(), MEASURE_INSTRUCTIONS);
        }
    }

    #[test]
    fn bench_loop_measures_and_reports() {
        for (reps, runs) in [(0, 1), (1, 1), (3, 3), (4, 4)] {
            let mut calls = 0u32;
            let (timing, last) = timed(reps, || {
                calls += 1;
                calls
            });
            assert_eq!(calls, runs);
            assert_eq!(last, runs, "the last repetition's outcome comes back");
            assert!(timing.min_s <= timing.median_s);
        }
    }

    #[test]
    fn size_sweep_is_the_papers_range() {
        assert_eq!(SIZE_SWEEP[0], 1024);
        assert_eq!(*SIZE_SWEEP.last().unwrap(), 64 * 1024);
        assert!(SIZE_SWEEP.windows(2).all(|w| w[1] == 2 * w[0]));
    }
}
pub mod experiments;
pub mod families;
pub mod frontier;
pub mod kernel;
pub mod passes;
