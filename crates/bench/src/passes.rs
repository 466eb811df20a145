//! The traversal-economy benchmark: the planned sweep against per-cell runs.
//!
//! Times a profile-heavy grid — the accuracy-profile selection scheme across
//! several predictor configurations per benchmark — two ways, with the trace
//! cache disabled (capacity 0), so every traversal regenerates its event
//! stream:
//!
//! * `per_cell`: one [`Lab::run`] per spec on one shared cache. Each cell
//!   collects whatever profiles it still lacks in one fused traversal
//!   ([`ArtifactCache::profile_bundle`]) and measures on a traversal of its
//!   own.
//! * `sweep`: the planned [`Sweep`] path. One fused traversal per benchmark
//!   collects the bias profile and every accuracy profile, and all cells
//!   sharing a branch stream ride one measurement traversal
//!   ([`Lab::run_lockstep`]).
//!
//! Run by `sdbp bench passes`, which writes the machine-readable
//! `BENCH_passes.json` record used by CI and the performance docs.

use crate::{timed, Timing};
use sdbp_core::{ArtifactCache, ExperimentSpec, Lab, Report, Sweep};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::SelectionScheme;
use sdbp_workloads::Benchmark;
use std::fmt;
use std::hint::black_box;
use std::sync::Arc;

/// Per-phase instruction budget of the full grid (profile == measure).
pub const FULL_INSTRUCTIONS: u64 = 2_000_000;

/// Per-phase instruction budget under `--quick` (CI smoke mode).
pub const QUICK_INSTRUCTIONS: u64 = 120_000;

/// The gshare sizes giving each benchmark its accuracy-profile fan-out
/// (three distinct predictor configurations → three accuracy profiles that
/// fusion can collect alongside the bias profile in one traversal).
pub const GRID_SIZES: [usize; 3] = [1024, 4 * 1024, 16 * 1024];

/// What one pass over the grid observed, beyond wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridOutcome {
    /// Total mispredictions over the grid (both modes must agree exactly).
    pub mispredictions: u64,
    /// Generator traversals spent (the cache's bypass counter — with the
    /// trace store disabled, every traversal is a bypass).
    pub traversals: u64,
    /// Profile traversals saved by fusion.
    pub fused_saved: u64,
    /// Measurement traversals saved by lockstep.
    pub lockstep_saved: u64,
}

impl GridOutcome {
    fn new(reports: impl IntoIterator<Item = Report>, cache: &ArtifactCache) -> Self {
        let stats = cache.stats();
        Self {
            mispredictions: reports.into_iter().map(|r| r.stats.mispredictions).sum(),
            traversals: stats.trace_bypassed,
            fused_saved: stats.fused_traversals_saved,
            lockstep_saved: stats.lockstep_traversals_saved,
        }
    }
}

/// One timed grid mode.
#[derive(Debug, Clone)]
pub struct PassesMeasurement {
    /// `"per_cell"` or `"sweep"`.
    pub label: &'static str,
    /// Wall clock of one grid pass over the repetitions.
    pub timing: Timing,
    /// What the pass observed.
    pub outcome: GridOutcome,
}

/// One summary row: the mode's fastest wall clock and its traversals.
impl fmt::Display for PassesMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.outcome;
        write!(
            f,
            "  {:<8} {:>8.3} s  {:>3} generator traversals ({} saved by fusion, {} by lockstep)",
            self.label, self.timing.min_s, o.traversals, o.fused_saved, o.lockstep_saved
        )
    }
}

/// Everything one `sdbp bench passes` run produced.
#[derive(Debug)]
pub struct PassesReport {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// Timed repetitions per mode.
    pub reps: u32,
    /// Profile/measure instruction budget per cell.
    pub instructions: u64,
    /// Benchmarks in the grid.
    pub benchmarks: usize,
    /// Grid cells (benchmarks × predictor configurations).
    pub cells: usize,
    /// One [`Lab::run`] per spec.
    pub per_cell: PassesMeasurement,
    /// The planned single-threaded [`Sweep`].
    pub sweep: PassesMeasurement,
}

impl PassesReport {
    /// Per-cell over sweep wall clock, fastest repetition of each.
    pub fn speedup(&self) -> f64 {
        if self.sweep.timing.min_s > 0.0 {
            self.per_cell.timing.min_s / self.sweep.timing.min_s
        } else {
            0.0
        }
    }

    /// Whether both modes mispredicted exactly as often: the sweep must
    /// not change results.
    pub fn results_identical(&self) -> bool {
        self.per_cell.outcome.mispredictions == self.sweep.outcome.mispredictions
    }

    /// A terse human-readable table for the CLI.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "traversal-economy wall clock ({} cells, static_acc, trace cache disabled, best of reps)\n",
            self.cells
        );
        for m in [&self.per_cell, &self.sweep] {
            out.push_str(&format!("{m}\n"));
        }
        out.push_str(&format!(
            "  sweep speedup: {:.2}x (results identical: {})\n",
            self.speedup(),
            self.results_identical()
        ));
        out
    }
}

/// The profile-heavy grid: `static_acc` (needs a bias *and* a per-predictor
/// accuracy profile) at every [`GRID_SIZES`] gshare configuration on each
/// benchmark.
pub fn grid_specs(benchmarks: &[Benchmark], instructions: u64) -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for &benchmark in benchmarks {
        for size in GRID_SIZES {
            let config = PredictorConfig::new(PredictorKind::Gshare, size)
                .expect("grid sizes are powers of two");
            let mut spec =
                ExperimentSpec::self_trained(benchmark, config, SelectionScheme::static_acc())
                    .with_seed(crate::SEED);
            spec.profile_instructions = Some(instructions);
            spec.measure_instructions = Some(instructions);
            specs.push(spec);
        }
    }
    specs
}

/// The grid as one [`Lab::run`] per spec on one fresh,
/// trace-store-disabled cache: every traversal streams straight off the
/// workload generator, so the traversal count *is* the generation count.
pub fn per_cell_pass(specs: &[ExperimentSpec]) -> GridOutcome {
    let cache = Arc::new(ArtifactCache::with_trace_capacity(0));
    let lab = Lab::with_cache(Arc::clone(&cache));
    let reports: Vec<Report> = specs
        .iter()
        .map(|spec| lab.run(spec).expect("bench grid specs are well-formed"))
        .collect();
    GridOutcome::new(reports, &cache)
}

/// The grid as one single-threaded [`Sweep`] on a fresh,
/// trace-store-disabled cache — the production grid path.
pub fn sweep_pass(specs: &[ExperimentSpec]) -> GridOutcome {
    let cache = Arc::new(ArtifactCache::with_trace_capacity(0));
    let reports = Sweep::new(specs.to_vec())
        .with_cache(Arc::clone(&cache))
        .with_threads(1)
        .run()
        .into_reports()
        .expect("bench grid specs are well-formed");
    GridOutcome::new(reports, &cache)
}

/// Runs the full traversal-economy benchmark: the grid cell by cell, then
/// through the planned sweep, with `progress` invoked as each mode
/// finishes.
pub fn run(quick: bool, mut progress: impl FnMut(&PassesMeasurement)) -> PassesReport {
    let instructions = if quick {
        QUICK_INSTRUCTIONS
    } else {
        FULL_INSTRUCTIONS
    };
    let reps = if quick { 1 } else { 3 };
    let benchmarks: &[Benchmark] = if quick {
        &[Benchmark::Compress, Benchmark::Ijpeg]
    } else {
        &Benchmark::ALL
    };
    let specs = grid_specs(benchmarks, instructions);
    let mut measure = |label, pass: fn(&[ExperimentSpec]) -> GridOutcome| {
        let (timing, outcome) = timed(reps, || pass(black_box(&specs)));
        let m = PassesMeasurement {
            label,
            timing,
            outcome,
        };
        progress(&m);
        m
    };
    let per_cell = measure("per_cell", per_cell_pass);
    let sweep = measure("sweep", sweep_pass);

    PassesReport {
        quick,
        reps,
        instructions,
        benchmarks: benchmarks.len(),
        cells: specs.len(),
        per_cell,
        sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_grid_pass_modes_agree() {
        // Per cell, on each benchmark: the first cell's bundle collects the
        // bias and its accuracy profile in one traversal (saving one), the
        // other two cells collect one accuracy profile each, and every cell
        // measures on a traversal of its own. Sweep: one bundle collects all
        // four profiles (saving three) and the three cells share one
        // measurement traversal (saving two).
        for (benchmarks, per_cell_counts, sweep_counts) in [
            (&[Benchmark::Compress][..], (6, 1, 0), (2, 3, 2)),
            (&Benchmark::ALL[..], (36, 6, 0), (12, 18, 12)),
        ] {
            let specs = grid_specs(benchmarks, 60_000);
            let per_cell = per_cell_pass(&specs);
            let sweep = sweep_pass(&specs);
            assert_eq!(
                sweep.mispredictions, per_cell.mispredictions,
                "the sweep must not change results"
            );
            let counts = |o: GridOutcome| (o.traversals, o.fused_saved, o.lockstep_saved);
            assert_eq!(counts(per_cell), per_cell_counts);
            assert_eq!(counts(sweep), sweep_counts);
        }
    }
}
