//! The predictor-frontier ablation: do static hints survive modern
//! predictors?
//!
//! The paper measures static hints against the tabular predictors of its
//! era; its future-work section asks whether collision-driven selection
//! still buys anything once the dynamic side has tags or weights. This
//! grid answers that question in one sweep: the paper's strongest tabular
//! designs (gshare, bi-mode, 2bcgskew) next to the post-paper frontier
//! (hashed perceptron, TAGE-lite), each under every selection scheme
//! including the static-ranking-driven `Static_Collide`.
//!
//! `Static_Collide` needs the predictor's index function, so its cells are
//! skipped for the analysis-opaque hybrids (bi-mode, 2bcgskew) and render
//! as `n/a` — exactly what `sdbp check` warns about with SDBP042.
//!
//! Run by `sdbp bench frontier`, which writes the machine-readable
//! `BENCH_frontier.json` record used by CI and `docs/predictors.md`.

use sdbp_core::{ExperimentSpec, Report, Sweep};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::SelectionScheme;
use sdbp_workloads::Benchmark;

/// Per-phase instruction budget of the full grid (profile == measure).
pub const FULL_INSTRUCTIONS: u64 = 4_000_000;

/// Per-phase instruction budget under `--quick` (CI smoke mode).
pub const QUICK_INSTRUCTIONS: u64 = 120_000;

/// The predictors of the frontier comparison: the paper's strongest
/// tabular designs next to the post-paper frontier, all at
/// [`crate::COMPARISON_SIZE`].
pub const FRONTIER_KINDS: [PredictorKind; 5] = [
    PredictorKind::Gshare,
    PredictorKind::BiMode,
    PredictorKind::TwoBcGskew,
    PredictorKind::Perceptron,
    PredictorKind::TageLite,
];

/// The selection schemes ablated per predictor (Ablation C's set with
/// `Static_Collide` in place of the measured `Static_Col`).
pub fn frontier_schemes() -> [SelectionScheme; 5] {
    [
        SelectionScheme::None,
        SelectionScheme::static_95(),
        SelectionScheme::static_acc(),
        SelectionScheme::Factor { factor: 1.05 },
        SelectionScheme::static_collide(),
    ]
}

/// One executed grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierCell {
    /// The workload.
    pub benchmark: Benchmark,
    /// The dynamic predictor.
    pub predictor: PredictorKind,
    /// The selection-scheme label.
    pub scheme: String,
    /// Mispredictions per thousand instructions.
    pub misp_per_ki: f64,
    /// Static hints selected.
    pub hints: u64,
    /// Destructive collisions measured in the dynamic tables.
    pub destructive_collisions: u64,
}

/// Everything one `sdbp bench frontier` run produced.
#[derive(Debug)]
pub struct FrontierReport {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// Profile/measure instruction budget per cell.
    pub instructions: u64,
    /// Benchmarks in the grid.
    pub benchmarks: Vec<Benchmark>,
    /// Executed cells, in benchmark → predictor → scheme order.
    pub cells: Vec<FrontierCell>,
    /// Cells skipped because `Static_Collide` cannot analyze the
    /// predictor's index function (rendered `n/a`).
    pub skipped: usize,
}

impl FrontierReport {
    /// Mean MISPs/KI of one (predictor, scheme) column across the grid's
    /// benchmarks; `None` when the combination was skipped.
    pub fn mean_misp(&self, kind: PredictorKind, scheme: &str) -> Option<f64> {
        let column: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.predictor == kind && c.scheme == scheme)
            .map(|c| c.misp_per_ki)
            .collect();
        if column.is_empty() {
            return None;
        }
        Some(column.iter().sum::<f64>() / column.len() as f64)
    }

    /// A terse human-readable table for the CLI: mean MISPs/KI per
    /// predictor and scheme, with the best static scheme's improvement.
    pub fn summary(&self) -> String {
        let schemes = frontier_schemes();
        let mut out = format!(
            "frontier grid ({} benchmarks, {} cells, {} skipped, {} B predictors)\n",
            self.benchmarks.len(),
            self.cells.len(),
            self.skipped,
            crate::COMPARISON_SIZE,
        );
        out.push_str(&format!(
            "  {:<12}{:>11}{:>11}{:>11}{:>15}{:>16}\n",
            "predictor", "none", "static_95", "static_acc", "static_fac1.05", "static_collide"
        ));
        for kind in FRONTIER_KINDS {
            out.push_str(&format!("  {:<12}", kind.name()));
            for scheme in &schemes {
                let width = match scheme.label().as_str() {
                    "static_fac1.05" => 15,
                    "static_collide" => 16,
                    _ => 11,
                };
                match self.mean_misp(kind, &scheme.label()) {
                    Some(mean) => out.push_str(&format!("{:>width$.3}", mean)),
                    None => out.push_str(&format!("{:>width$}", "n/a")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// The frontier spec grid: every [`FRONTIER_KINDS`] predictor under every
/// [`frontier_schemes`] scheme on each benchmark, minus the
/// `Static_Collide` cells whose predictor is opaque to the interference
/// analyzer. Returns the specs plus the skipped-cell count.
pub fn frontier_specs(benchmarks: &[Benchmark], instructions: u64) -> (Vec<ExperimentSpec>, usize) {
    let mut specs = Vec::new();
    let mut skipped = 0usize;
    for &benchmark in benchmarks {
        for kind in FRONTIER_KINDS {
            let config = PredictorConfig::new(kind, crate::COMPARISON_SIZE)
                .expect("the comparison size is a power of two");
            for scheme in frontier_schemes() {
                if scheme.needs_interference_ranking() && !config.index_capability().is_analyzable()
                {
                    skipped += 1;
                    continue;
                }
                let mut spec =
                    ExperimentSpec::self_trained(benchmark, config, scheme).with_seed(crate::SEED);
                spec.profile_instructions = Some(instructions);
                spec.measure_instructions = Some(instructions);
                specs.push(spec);
            }
        }
    }
    (specs, skipped)
}

fn cell_of(spec: &ExperimentSpec, report: &Report) -> FrontierCell {
    FrontierCell {
        benchmark: spec.benchmark,
        predictor: spec.predictor.kind(),
        scheme: spec.scheme.label(),
        misp_per_ki: report.stats.misp_per_ki(),
        hints: report.hints as u64,
        destructive_collisions: report.stats.collisions.destructive,
    }
}

/// Runs the frontier grid over `benchmarks` at `instructions` per phase,
/// with `progress` invoked as each cell's report lands. The sweep's
/// default lockstep grouping rides all of a benchmark's cells on one
/// measurement traversal; results are bit-identical to sequential runs.
pub fn run_with(
    benchmarks: &[Benchmark],
    instructions: u64,
    quick: bool,
    mut progress: impl FnMut(&FrontierCell),
) -> FrontierReport {
    let (specs, skipped) = frontier_specs(benchmarks, instructions);
    let reports = Sweep::new(specs.clone())
        .run()
        .into_reports()
        .expect("frontier specs are well-formed");
    let cells: Vec<FrontierCell> = specs
        .iter()
        .zip(&reports)
        .map(|(spec, report)| {
            let cell = cell_of(spec, report);
            progress(&cell);
            cell
        })
        .collect();
    FrontierReport {
        quick,
        instructions,
        benchmarks: benchmarks.to_vec(),
        cells,
        skipped,
    }
}

/// Runs the full frontier benchmark in `--quick` (CI smoke) or full mode.
pub fn run(quick: bool, progress: impl FnMut(&FrontierCell)) -> FrontierReport {
    let instructions = if quick {
        QUICK_INSTRUCTIONS
    } else {
        FULL_INSTRUCTIONS
    };
    let benchmarks: &[Benchmark] = if quick {
        &[Benchmark::Compress, Benchmark::Ijpeg]
    } else {
        &Benchmark::ALL
    };
    run_with(benchmarks, instructions, quick, progress)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collide_cells_are_skipped_for_opaque_predictors() {
        let (specs, skipped) = frontier_specs(&[Benchmark::Compress], 60_000);
        // 5 predictors × 5 schemes, minus collide on bi-mode and 2bcgskew.
        assert_eq!(specs.len(), 23);
        assert_eq!(skipped, 2);
        assert!(specs.iter().all(|s| !(s.scheme.needs_interference_ranking()
            && matches!(
                s.predictor.kind(),
                PredictorKind::BiMode | PredictorKind::TwoBcGskew
            ))));
    }

    #[test]
    fn every_frontier_spec_passes_preflight() {
        let (specs, _) = frontier_specs(&Benchmark::ALL, FULL_INSTRUCTIONS);
        for spec in specs {
            sdbp_check::preflight(&spec).expect("frontier spec must pre-flight");
        }
    }

    #[test]
    fn identical_runs_reproduce_identical_cells() {
        let a = run_with(&[Benchmark::Compress], 60_000, true, |_| {});
        let b = run_with(&[Benchmark::Compress], 60_000, true, |_| {});
        assert_eq!((a.cells, a.skipped), (b.cells, b.skipped));
    }
}
