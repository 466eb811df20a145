//! The per-family grid benchmark: static/dynamic schemes across workload
//! families, plus the imported-trace identity check.
//!
//! ROADMAP item 2 asks where static hints help on workloads the paper
//! never saw. This module answers it with one grid — every family's
//! benchmarks × {gshare, agree, tage-lite} × {dynamic, static_95,
//! static_acc} — run through the production sweep engine (fusion and
//! lockstep on), aggregated *per family*: MISPs/KI is not comparable
//! across families, so each gets its own row with its own delta vs. the
//! unhinted baseline.
//!
//! The identity check closes the importer-seam loop: one benchmark's
//! generator stream is exported to a trace file, re-admitted through
//! [`sdbp_workloads::imports`], and run as a grid cell. The imported
//! cell's statistics and report line must be bit-identical to the
//! generator-backed cell — the file round-trip must be invisible.
//!
//! Run by `sdbp bench families`, which writes the machine-readable
//! `BENCH_families.json` record used by CI and the docs.

use sdbp_core::{ArtifactCache, ExperimentSpec, Report, Sweep};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::SelectionScheme;
use sdbp_trace::{write_binary, BranchSource};
use sdbp_workloads::{open_source, Benchmark, InputSet, WorkloadFamily};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Per-phase instruction budget of the full grid (profile == measure).
pub const FULL_INSTRUCTIONS: u64 = 2_000_000;

/// Per-phase instruction budget under `--quick` (CI smoke mode).
pub const QUICK_INSTRUCTIONS: u64 = 120_000;

/// The predictors the family grid sweeps: the paper's workhorse, the
/// strongest agree-style scheme, and the modern tagged-geometric baseline.
pub const FAMILY_PREDICTORS: [PredictorKind; 3] = [
    PredictorKind::Gshare,
    PredictorKind::Agree,
    PredictorKind::TageLite,
];

/// The predictor size used by every family-grid cell.
pub const FAMILY_SIZE: usize = 8 * 1024;

/// The synthetic families the grid covers, in report order.
pub const FAMILIES: [WorkloadFamily; 3] = [
    WorkloadFamily::Spec95,
    WorkloadFamily::Server,
    WorkloadFamily::H2p,
];

/// The selection schemes swept per cell: the dynamic baseline, then the
/// paper's two static-selection flavors.
pub fn schemes() -> [(&'static str, SelectionScheme); 3] {
    [
        ("none", SelectionScheme::None),
        ("static_95", SelectionScheme::static_95()),
        ("static_acc", SelectionScheme::static_acc()),
    ]
}

/// One scheme's aggregate over a family's cells.
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// The scheme label (`"none"`, `"static_95"`, `"static_acc"`).
    pub scheme: String,
    /// Total mispredictions over the family's cells under this scheme.
    pub mispredictions: u64,
    /// Aggregate MISPs/KI over the family's cells under this scheme.
    pub misp_per_ki: f64,
    /// Relative improvement vs. the family's `"none"` cells, in percent
    /// (positive = fewer mispredictions). `None` for the baseline row.
    pub delta_vs_none_pct: Option<f64>,
}

/// One family's row of the report.
#[derive(Debug, Clone)]
pub struct FamilyOutcome {
    /// The family.
    pub family: WorkloadFamily,
    /// Benchmarks the family contributed.
    pub benchmarks: usize,
    /// Grid cells the family contributed (benchmarks × predictors ×
    /// schemes).
    pub cells: usize,
    /// Dynamic branches simulated per scheme (identical across schemes).
    pub branches: u64,
    /// One aggregate per scheme, in [`schemes`] order.
    pub schemes: Vec<SchemeOutcome>,
}

/// The row's summary header: family, size and branches.
impl fmt::Display for FamilyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  {:<7} ({} benchmarks, {} cells, {} branches/scheme)",
            self.family.name(),
            self.benchmarks,
            self.cells,
            self.branches
        )
    }
}

/// The imported-trace identity check's outcome.
#[derive(Debug, Clone)]
pub struct IdentityCheck {
    /// The benchmark exported and re-imported.
    pub benchmark: String,
    /// Whether the imported cell's `SimStats` equal the generator cell's.
    pub stats_identical: bool,
    /// Whether the imported cell's report line renders identically.
    pub summary_identical: bool,
    /// What went wrong, when the check could not run (no trace written,
    /// import slots exhausted, …).
    pub error: Option<String>,
}

impl IdentityCheck {
    fn failed(benchmark: &str, error: String) -> Self {
        Self {
            benchmark: benchmark.to_string(),
            stats_identical: false,
            summary_identical: false,
            error: Some(error),
        }
    }

    /// Whether the round-trip held: both comparisons passed and nothing
    /// errored.
    pub fn passed(&self) -> bool {
        self.stats_identical && self.summary_identical && self.error.is_none()
    }
}

/// Everything one `sdbp bench families` run produced.
#[derive(Debug)]
pub struct FamiliesReport {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// Profile/measure instruction budget per cell.
    pub instructions: u64,
    /// Total grid cells.
    pub cells: usize,
    /// One row per family, in [`FAMILIES`] order.
    pub families: Vec<FamilyOutcome>,
    /// The imported-trace identity check.
    pub identity: IdentityCheck,
}

impl FamiliesReport {
    /// A terse human-readable table for the CLI.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "family grid ({} cells, {} bytes, seed {}, {} instructions/phase)\n",
            self.cells,
            FAMILY_SIZE,
            crate::SEED,
            self.instructions
        );
        for f in &self.families {
            out.push_str(&format!("{f}\n"));
            for s in &f.schemes {
                let delta = match s.delta_vs_none_pct {
                    Some(d) => format!("  {d:+.1}% vs none"),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "    {:<11} {:>8.3} MISPs/KI{delta}\n",
                    s.scheme, s.misp_per_ki
                ));
            }
        }
        out.push_str(&format!(
            "  imported identity ({}): stats {}, summary {}{}\n",
            self.identity.benchmark,
            if self.identity.stats_identical {
                "identical"
            } else {
                "DIFFER"
            },
            if self.identity.summary_identical {
                "identical"
            } else {
                "DIFFER"
            },
            match &self.identity.error {
                Some(e) => format!(" ({e})"),
                None => String::new(),
            },
        ));
        out
    }
}

/// Builds one cell's spec with equal profile/measure budgets.
fn cell_spec(
    benchmark: Benchmark,
    kind: PredictorKind,
    scheme: SelectionScheme,
    instructions: u64,
) -> ExperimentSpec {
    let config =
        PredictorConfig::new(kind, FAMILY_SIZE).expect("family grid size is a power of two");
    let mut spec = ExperimentSpec::self_trained(benchmark, config, scheme).with_seed(crate::SEED);
    spec.profile_instructions = Some(instructions);
    spec.measure_instructions = Some(instructions);
    spec
}

/// The full family grid, family-major then benchmark, predictor, scheme.
pub fn grid_specs(quick: bool, instructions: u64) -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for family in FAMILIES {
        let members = Benchmark::family_members(family);
        let members: &[Benchmark] = if quick { &members[..1] } else { &members };
        for &benchmark in members {
            for kind in FAMILY_PREDICTORS {
                for (_, scheme) in schemes() {
                    specs.push(cell_spec(benchmark, kind, scheme, instructions));
                }
            }
        }
    }
    specs
}

/// Aggregates sweep reports into per-family, per-scheme rows.
pub fn family_rows(reports: &[Report]) -> Vec<FamilyOutcome> {
    FAMILIES
        .iter()
        .filter_map(|&family| {
            let of_family: Vec<&Report> = reports.iter().filter(|r| r.family() == family).collect();
            if of_family.is_empty() {
                return None;
            }
            let mut benchmarks: Vec<&str> = of_family.iter().map(|r| r.benchmark.name()).collect();
            benchmarks.sort_unstable();
            benchmarks.dedup();
            let mpki = |rs: &[&Report]| {
                let m: u64 = rs.iter().map(|r| r.stats.mispredictions).sum();
                let i: u64 = rs.iter().map(|r| r.stats.instructions).sum();
                (m, m as f64 * 1000.0 / i as f64)
            };
            let baseline: Vec<&Report> = of_family
                .iter()
                .filter(|r| r.scheme_label == "none")
                .copied()
                .collect();
            let (base_misp, base_mpki) = mpki(&baseline);
            let rows = schemes()
                .iter()
                .map(|(label, _)| {
                    let cells: Vec<&Report> = of_family
                        .iter()
                        .filter(|r| r.scheme_label == *label)
                        .copied()
                        .collect();
                    let (misp, misp_per_ki) = mpki(&cells);
                    let delta = (*label != "none" && base_misp > 0)
                        .then(|| (base_mpki - misp_per_ki) / base_mpki * 100.0);
                    SchemeOutcome {
                        scheme: (*label).to_string(),
                        mispredictions: misp,
                        misp_per_ki,
                        delta_vs_none_pct: delta,
                    }
                })
                .collect();
            Some(FamilyOutcome {
                family,
                benchmarks: benchmarks.len(),
                cells: of_family.len(),
                branches: baseline.iter().map(|r| r.stats.branches).sum(),
                schemes: rows,
            })
        })
        .collect()
}

/// Exports `benchmark`'s measurement stream to `path`, re-admits it as an
/// imported benchmark, runs the same cell both ways, and compares.
///
/// The export covers exactly the cell's instruction budget on the
/// measurement input at the harness seed; self-trained cells profile and
/// measure the *same* stream, so the file window covers both passes and
/// the imported cell must reproduce the generator cell bit for bit.
pub fn identity_check(benchmark: Benchmark, instructions: u64, path: &Path) -> IdentityCheck {
    let name = benchmark.name();
    let trace = open_source(benchmark, InputSet::Ref, crate::SEED)
        .take_instructions(instructions)
        .collect_trace();
    let mut bytes = Vec::new();
    if let Err(e) = write_binary(&mut bytes, &trace) {
        return IdentityCheck::failed(name, format!("export failed: {e}"));
    }
    if let Err(e) = std::fs::write(path, &bytes) {
        return IdentityCheck::failed(name, format!("cannot write {}: {e}", path.display()));
    }
    let imported = match sdbp_workloads::imports::register(path) {
        Ok(b) => b,
        Err(e) => return IdentityCheck::failed(name, format!("admission failed: {e}")),
    };

    let scheme = SelectionScheme::static_95();
    let cache = Arc::new(ArtifactCache::new());
    let run = |b: Benchmark| {
        let specs = vec![cell_spec(b, PredictorKind::Gshare, scheme, instructions)];
        Sweep::new(specs)
            .with_cache(Arc::clone(&cache))
            .run()
            .into_reports()
            .expect("identity cells are well-formed")
            .remove(0)
    };
    let generated = run(benchmark);
    let replayed = run(imported);
    IdentityCheck {
        benchmark: name.to_string(),
        stats_identical: generated.stats == replayed.stats,
        summary_identical: generated.summary() == replayed.summary(),
        error: None,
    }
}

/// Runs the full family benchmark: the grid through the production sweep
/// engine, per-family aggregation, and the imported-trace identity check.
/// `progress` is invoked once per finished family row.
pub fn run(quick: bool, mut progress: impl FnMut(&FamilyOutcome)) -> FamiliesReport {
    let instructions = if quick {
        QUICK_INSTRUCTIONS
    } else {
        FULL_INSTRUCTIONS
    };
    let specs = grid_specs(quick, instructions);
    let cells = specs.len();
    let reports = Sweep::new(specs)
        .with_cache(Arc::new(ArtifactCache::new()))
        .run()
        .into_reports()
        .expect("family grid specs are well-formed");
    let families = family_rows(&reports);
    for f in &families {
        progress(f);
    }

    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "sdbp-families-identity-{}.sdbt",
        std::process::id()
    ));
    let identity = identity_check(Benchmark::Gcc, instructions, &path);
    std::fs::remove_file(&path).ok();

    FamiliesReport {
        quick,
        instructions,
        cells,
        families,
        identity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_family_and_scheme() {
        let specs = grid_specs(false, 1000);
        // 6 spec95 + 2 server + 2 h2p benchmarks, 3 predictors, 3 schemes.
        assert_eq!(specs.len(), 10 * 3 * 3);
        let quick = grid_specs(true, 1000);
        assert_eq!(quick.len(), 3 * 3 * 3);
        for family in FAMILIES {
            assert!(quick.iter().any(|s| s.benchmark.family() == family));
        }
    }

    #[test]
    fn family_rows_aggregate_per_family_with_deltas() {
        let instructions = 60_000;
        let mut specs = Vec::new();
        for benchmark in [Benchmark::Compress, Benchmark::H2pChurn] {
            for (_, scheme) in schemes() {
                specs.push(cell_spec(
                    benchmark,
                    PredictorKind::Gshare,
                    scheme,
                    instructions,
                ));
            }
        }
        let reports = Sweep::new(specs)
            .with_threads(1)
            .run()
            .into_reports()
            .unwrap();
        let rows = family_rows(&reports);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].family, WorkloadFamily::Spec95);
        assert_eq!(rows[1].family, WorkloadFamily::H2p);
        for row in &rows {
            assert_eq!(row.cells, 3);
            assert!(row.branches > 0);
            assert_eq!(row.schemes[0].scheme, "none");
            assert!(row.schemes[0].delta_vs_none_pct.is_none());
            assert!(row.schemes[1].delta_vs_none_pct.is_some());
        }
        // The H2P family is history-resistant by construction: its dynamic
        // baseline must mispredict far more often than calibrated SPEC95.
        assert!(rows[1].schemes[0].misp_per_ki > rows[0].schemes[0].misp_per_ki);
    }

    #[test]
    fn imported_cells_are_bit_identical_to_generator_cells() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "sdbp-families-test-{}-{:?}.sdbt",
            std::process::id(),
            std::thread::current().id()
        ));
        let check = identity_check(Benchmark::Compress, 80_000, &path);
        std::fs::remove_file(&path).ok();
        assert!(
            check.passed(),
            "identity check failed: stats {}, summary {}, error {:?}",
            check.stats_identical,
            check.summary_identical,
            check.error
        );
    }
}
