//! The experiment implementations behind the harness binaries.
//!
//! Each function regenerates one table or figure of the paper and returns
//! the rendered report; the binaries under `src/bin/` are thin wrappers, and
//! `all_experiments` runs the full set in one process (sharing one [`Lab`]
//! so profiles are computed once).
//!
//! Every grid-shaped experiment builds its full spec list up front and runs
//! it through [`crate::run_grid`] — the parallel [`sdbp_core::Sweep`] engine
//! backed by the lab's [`sdbp_core::ArtifactCache`] — so cells execute
//! across worker threads while bias/accuracy profiles and generated event
//! streams are computed once and shared. Results come back in spec order and
//! are bit-identical to a serial run, so the rendered tables are unchanged.

use crate::{improvement_pct, measure_budget, run_grid, spec, COMPARISON_SIZE, SEED, SIZE_SWEEP};
use sdbp_core::{ExperimentSpec, Lab, ProfileSource, ShiftPolicy};
use sdbp_predictors::PredictorKind;
use sdbp_profiles::SelectionScheme;
use sdbp_trace::{SliceSource, TraceStats};
use sdbp_util::table::{fixed, grouped, pct, TableWriter};
use sdbp_workloads::{Benchmark, InputSet, Workload};

/// Table 1 — program characteristics.
///
/// Not a predictor grid, so it runs serially, but its train/ref event
/// streams go through the lab's artifact cache — Table 5 measures the
/// identical streams and reuses them for free.
pub fn table1(lab: &Lab) -> String {
    let mut table = TableWriter::with_columns(&[
        "Program",
        "#Instr (static)",
        "#CBRs (static)",
        "Train: #Dyn instr",
        "Train: CBRs/KI",
        "Ref: #Dyn instr",
        "Ref: CBRs/KI",
    ]);
    table.numeric();
    for benchmark in Benchmark::ALL {
        eprintln!("table1: measuring {benchmark} ...");
        let workload = Workload::spec95(benchmark);
        let program = workload.program(InputSet::Train, SEED);
        let mut row = vec![
            benchmark.name().to_string(),
            grouped(program.static_instructions()),
            grouped(program.sites().len() as u64),
        ];
        for input in [InputSet::Train, InputSet::Ref] {
            let budget =
                (workload.spec().default_instructions(input) as f64 * crate::scale()) as u64;
            let events = lab.cache().events(benchmark, input, SEED, budget);
            let stats = TraceStats::from_source(SliceSource::new(&events));
            row.push(grouped(stats.total_instructions()));
            row.push(fixed(stats.cbrs_per_ki(), 0));
        }
        table.row(row);
    }
    format!(
        "Table 1. Characteristics of test programs\n(dynamic budgets scaled from the paper's billions to the defaults in sdbp-workloads)\n\n{}",
        table.render()
    )
}

/// The programs of Table 2, ordered by biased fraction like the paper.
const TABLE2_BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Go,
    Benchmark::Compress,
    Benchmark::Ijpeg,
    Benchmark::Gcc,
    Benchmark::Perl,
    Benchmark::M88ksim,
];

/// The spec grid behind [`table2`].
pub fn table2_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in TABLE2_BENCHMARKS {
        for kind in PredictorKind::PAPER {
            specs.push(spec(
                benchmark,
                kind,
                COMPARISON_SIZE,
                SelectionScheme::None,
            ));
        }
    }
    specs
}

/// Table 2 — biased-branch percentages and per-predictor accuracy.
pub fn table2(lab: &Lab) -> String {
    let benchmarks = TABLE2_BENCHMARKS;
    let specs = table2_specs();
    eprintln!("table2: sweeping {} predictor cells ...", specs.len());
    let mut reports = run_grid(lab, specs).into_iter();

    let mut table = TableWriter::with_columns(&[
        "Program",
        "%Biased(>95%)",
        "bimodal",
        "ghist",
        "gshare",
        "bi-mode",
        "2bcgskew",
    ]);
    table.numeric();
    for benchmark in benchmarks {
        // The measurement stream is already in the cache from the sweep above.
        let events = lab
            .cache()
            .events(benchmark, InputSet::Ref, SEED, measure_budget());
        let stats = TraceStats::from_source(SliceSource::new(&events));
        let mut row = vec![
            benchmark.name().to_string(),
            pct(stats.dynamic_fraction_biased(0.95)),
        ];
        for _ in PredictorKind::PAPER {
            let report = reports.next().expect("one report per spec");
            row.push(pct(report.stats.accuracy()));
        }
        table.row(row);
    }
    format!(
        "Table 2. Percentage of highly biased branches and branch prediction accuracy\n(all predictors {} KB, ref input)\n\n{}",
        COMPARISON_SIZE / 1024,
        table.render()
    )
}

/// The spec grid behind [`fig1_6`].
pub fn fig1_6_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in Benchmark::ALL {
        for size in SIZE_SWEEP {
            for scheme in [SelectionScheme::None, SelectionScheme::static_acc()] {
                specs.push(spec(benchmark, PredictorKind::Gshare, size, scheme));
            }
        }
    }
    specs
}

/// Figures 1–6 — gshare size sweep with and without `Static_Acc`.
pub fn fig1_6(lab: &Lab) -> String {
    let specs = fig1_6_specs();
    eprintln!(
        "fig1_6: sweeping {} cells across 6 figures ...",
        specs.len()
    );
    let mut reports = run_grid(lab, specs).into_iter();

    let mut out = String::new();
    for (i, benchmark) in Benchmark::ALL.iter().enumerate() {
        let mut table = TableWriter::with_columns(&[
            "Size",
            "MISPs/KI (dynamic)",
            "MISPs/KI (+static_acc)",
            "Improvement",
            "Collisions (dynamic)",
            "Collisions (+static)",
        ]);
        table.numeric();
        for size in SIZE_SWEEP {
            let base = reports.next().expect("one report per spec");
            let with = reports.next().expect("one report per spec");
            table.row(vec![
                format!("{}KB", size / 1024),
                fixed(base.stats.misp_per_ki(), 3),
                fixed(with.stats.misp_per_ki(), 3),
                format!("{:+.1}%", with.improvement_over(&base) * 100.0),
                grouped(base.stats.collisions.total),
                grouped(with.stats.collisions.total),
            ]);
        }
        out.push_str(&format!(
            "Figure {}. {}: gshare size vs MISPs/KI, with and without static prediction (static_ACC)\n\n{}\n",
            i + 1,
            benchmark,
            table.render()
        ));
    }
    out
}

/// The static schemes compared by Figures 7–12 and Table 3.
fn three_schemes() -> [SelectionScheme; 3] {
    [
        SelectionScheme::None,
        SelectionScheme::static_95(),
        SelectionScheme::static_acc(),
    ]
}

/// The spec grid behind [`fig7_12`].
pub fn fig7_12_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in Benchmark::ALL {
        for kind in PredictorKind::PAPER {
            for scheme in three_schemes() {
                specs.push(spec(benchmark, kind, COMPARISON_SIZE, scheme));
            }
        }
    }
    specs
}

/// Figures 7–12 — five predictors × three static schemes.
pub fn fig7_12(lab: &Lab) -> String {
    let schemes = three_schemes();
    let specs = fig7_12_specs();
    eprintln!(
        "fig7_12: sweeping {} cells across 6 figures ...",
        specs.len()
    );
    let mut reports = run_grid(lab, specs).into_iter();

    let mut out = String::new();
    for (i, benchmark) in Benchmark::ALL.iter().enumerate() {
        let mut table = TableWriter::with_columns(&[
            "Predictor",
            "MISPs/KI (none)",
            "MISPs/KI (static_95)",
            "MISPs/KI (static_acc)",
            "Δ95",
            "Δacc",
        ]);
        table.numeric();
        for kind in PredictorKind::PAPER {
            let cells: Vec<_> = schemes
                .iter()
                .map(|_| reports.next().expect("one report per spec"))
                .collect();
            table.row(vec![
                kind.name().to_string(),
                fixed(cells[0].stats.misp_per_ki(), 3),
                fixed(cells[1].stats.misp_per_ki(), 3),
                fixed(cells[2].stats.misp_per_ki(), 3),
                format!("{:+.1}%", cells[1].improvement_over(&cells[0]) * 100.0),
                format!("{:+.1}%", cells[2].improvement_over(&cells[0]) * 100.0),
            ]);
        }
        out.push_str(&format!(
            "Figure {}. {}: MISPs/KI per dynamic predictor ({} KB) under the static schemes\n\n{}\n",
            i + 7,
            benchmark,
            COMPARISON_SIZE / 1024,
            table.render()
        ));
    }
    out
}

/// The predictor sizes swept by Table 3.
const TABLE3_SIZES: [usize; 5] = [2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024];

/// The spec grid behind [`table3`].
pub fn table3_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for size in TABLE3_SIZES {
        for benchmark in [Benchmark::Go, Benchmark::Gcc] {
            for scheme in three_schemes() {
                specs.push(spec(benchmark, PredictorKind::TwoBcGskew, size, scheme));
            }
        }
    }
    specs
}

/// Table 3 — 2bcgskew improvements for go & gcc across sizes.
pub fn table3(lab: &Lab) -> String {
    let sizes = TABLE3_SIZES;
    let specs = table3_specs();
    eprintln!("table3: sweeping {} 2bcgskew cells ...", specs.len());
    let mut reports = run_grid(lab, specs).into_iter();

    let mut table = TableWriter::with_columns(&[
        "2bcgskew Size",
        "Go: Static_95",
        "Go: Static_Acc",
        "Gcc: Static_95",
        "Gcc: Static_Acc",
    ]);
    table.numeric();
    for size in sizes {
        let mut row = vec![format!("{} KB", size / 1024)];
        for _benchmark in [Benchmark::Go, Benchmark::Gcc] {
            let base = reports.next().expect("one report per spec");
            for _ in 0..2 {
                let report = reports.next().expect("one report per spec");
                row.push(improvement_pct(&report, &base));
            }
        }
        table.row(row);
    }
    format!(
        "Table 3. 2bcgskew: improvements in MISPs/KI with two static prediction schemes for go & gcc\n\n{}",
        table.render()
    )
}

/// The predictor sizes swept by Table 4.
const TABLE4_SIZES: [usize; 2] = [32 * 1024, 64 * 1024];

/// The spec grid behind [`table4`].
pub fn table4_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in Benchmark::ALL {
        for size in TABLE4_SIZES {
            specs.push(spec(
                benchmark,
                PredictorKind::TwoBcGskew,
                size,
                SelectionScheme::None,
            ));
            for scheme in [SelectionScheme::static_95(), SelectionScheme::static_acc()] {
                for shift in [ShiftPolicy::NoShift, ShiftPolicy::Shift] {
                    specs.push(
                        spec(benchmark, PredictorKind::TwoBcGskew, size, scheme).with_shift(shift),
                    );
                }
            }
        }
    }
    specs
}

/// Table 4 — effect of shifting history for statically predicted branches.
pub fn table4(lab: &Lab) -> String {
    let sizes = TABLE4_SIZES;
    let specs = table4_specs();
    eprintln!("table4: sweeping {} shift-policy cells ...", specs.len());
    let mut reports = run_grid(lab, specs).into_iter();

    let mut table = TableWriter::with_columns(&[
        "Program",
        "Size",
        "Static_95",
        "Static_95 Shift",
        "Static_Acc",
        "Static_Acc Shift",
    ]);
    table.numeric();
    for benchmark in Benchmark::ALL {
        for size in sizes {
            let base = reports.next().expect("one report per spec");
            let mut row = vec![benchmark.name().to_string(), format!("{}", size)];
            for _ in 0..4 {
                let report = reports.next().expect("one report per spec");
                row.push(improvement_pct(&report, &base));
            }
            table.row(row);
        }
    }
    format!(
        "Table 4. 2bcgskew: effect of shifting history for statically predicted branches\n\n{}",
        table.render()
    )
}

/// Table 5 — train-vs-ref branch behavior.
///
/// Serial like Table 1, but it measures the same cached train/ref event
/// streams, so after Table 1 every stream here is a cache hit.
pub fn table5(lab: &Lab) -> String {
    let mut table = TableWriter::with_columns(&[
        "Program",
        "Coverage (static)",
        "Coverage (dynamic)",
        "Dir change (static)",
        "Dir change (dynamic)",
        "Bias chg <5% (static)",
        "Bias chg >50% (static)",
    ]);
    table.numeric();
    for benchmark in Benchmark::ALL {
        eprintln!("table5: comparing {benchmark} train vs ref ...");
        let workload = Workload::spec95(benchmark);
        let train_budget =
            (workload.spec().default_instructions(InputSet::Train) as f64 * crate::scale()) as u64;
        let ref_budget =
            (workload.spec().default_instructions(InputSet::Ref) as f64 * crate::scale()) as u64;
        let train_events = lab
            .cache()
            .events(benchmark, InputSet::Train, SEED, train_budget);
        let ref_events = lab
            .cache()
            .events(benchmark, InputSet::Ref, SEED, ref_budget);
        let train = TraceStats::from_source(SliceSource::new(&train_events));
        let reference = TraceStats::from_source(SliceSource::new(&ref_events));
        let cmp = reference.compare(&train);
        let frac = |n: u64| {
            if cmp.common_static == 0 {
                0.0
            } else {
                n as f64 / cmp.common_static as f64
            }
        };
        table.row(vec![
            benchmark.name().to_string(),
            pct(cmp.coverage_static()),
            pct(cmp.coverage_dynamic()),
            pct(cmp.direction_change_rate_static()),
            pct(cmp.direction_change_rate_dynamic()),
            pct(frac(cmp.bias_change_small_static)),
            pct(frac(cmp.bias_change_large_static)),
        ]);
    }
    format!(
        "Table 5. Branch behavior: training vs reference input\n\n{}",
        table.render()
    )
}

/// The spec grid behind [`fig13`].
pub fn fig13_specs() -> Vec<ExperimentSpec> {
    let size = 16 * 1024;
    let variants = |base: ExperimentSpec| {
        [
            base.clone().with_scheme(SelectionScheme::None),
            base.clone().with_profile(ProfileSource::SelfTrained),
            base.clone().with_profile(ProfileSource::CrossTrained),
            base.with_profile(ProfileSource::MergedCrossTrained {
                max_bias_change: 0.05,
            }),
        ]
    };
    let mut specs = Vec::new();
    for benchmark in Benchmark::ALL {
        specs.extend(variants(spec(
            benchmark,
            PredictorKind::Gshare,
            size,
            SelectionScheme::static_95(),
        )));
    }
    specs
}

/// Figure 13 — cross-training regimes on gshare 16 KB + `Static_95`.
pub fn fig13(lab: &Lab) -> String {
    let specs = fig13_specs();
    eprintln!("fig13: sweeping {} cross-training cells ...", specs.len());
    let mut reports = run_grid(lab, specs).into_iter();

    let mut table = TableWriter::with_columns(&[
        "Program",
        "No static",
        "Self-trained",
        "Naive cross",
        "Merged cross",
    ]);
    table.numeric();
    for benchmark in Benchmark::ALL {
        let mut row = vec![benchmark.name().to_string()];
        for _ in 0..4 {
            let report = reports.next().expect("one report per spec");
            row.push(fixed(report.stats.misp_per_ki(), 3));
        }
        table.row(row);
    }
    format!(
        "Figure 13. Effect of cross-training on profile-based static prediction:\nGSHARE (16 KB) + static prediction (bias > 95%), MISPs/KI\n\n{}",
        table.render()
    )
}

/// The predictor family compared by Ablation E.
const MCFARLING_KINDS: [PredictorKind; 5] = [
    PredictorKind::Bimodal,
    PredictorKind::Gselect,
    PredictorKind::Gshare,
    PredictorKind::Tournament,
    PredictorKind::TwoBcGskew,
];

/// The predictor sizes swept by Ablation E.
const MCFARLING_SIZES: [usize; 3] = [2 * 1024, 8 * 1024, 32 * 1024];

/// The spec grid behind [`ablate_mcfarling`].
pub fn ablate_mcfarling_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for size in MCFARLING_SIZES {
        for kind in MCFARLING_KINDS {
            specs.push(spec(Benchmark::Gcc, kind, size, SelectionScheme::None));
        }
    }
    specs
}

/// Ablation E — the classic McFarling family comparison (bimodal, gselect,
/// gshare, tournament) across sizes on gcc: the combining-predictor story
/// that 2bcgskew later superseded, as context for Table 2's orderings.
pub fn ablate_mcfarling(lab: &Lab) -> String {
    let kinds = MCFARLING_KINDS;
    let sizes = MCFARLING_SIZES;
    let specs = ablate_mcfarling_specs();
    eprintln!(
        "ablate_mcfarling: sweeping {} predictor-family cells ...",
        specs.len()
    );
    let mut reports = run_grid(lab, specs).into_iter();

    let mut table = TableWriter::with_columns(&[
        "Size",
        "bimodal",
        "gselect",
        "gshare",
        "tournament",
        "2bcgskew",
    ]);
    table.numeric();
    for size in sizes {
        let mut row = vec![format!("{}KB", size / 1024)];
        for _ in kinds {
            let report = reports.next().expect("one report per spec");
            row.push(fixed(report.stats.misp_per_ki(), 3));
        }
        table.row(row);
    }
    format!(
        "Ablation E. The McFarling predictor family on gcc, MISPs/KI (dynamic only)\n\n{}",
        table.render()
    )
}

/// The programs measured by Ablation D.
const DOUBLING_BENCHMARKS: [Benchmark; 3] = [Benchmark::Gcc, Benchmark::M88ksim, Benchmark::Go];

/// The predictors measured by Ablation D.
const DOUBLING_KINDS: [PredictorKind; 2] = [PredictorKind::Ghist, PredictorKind::Gshare];

/// The base sizes doubled by Ablation D.
const DOUBLING_SIZES: [usize; 2] = [2 * 1024, 8 * 1024];

/// The spec grid behind [`ablate_doubling`].
pub fn ablate_doubling_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in DOUBLING_BENCHMARKS {
        for kind in DOUBLING_KINDS {
            for size in DOUBLING_SIZES {
                specs.push(spec(benchmark, kind, size, SelectionScheme::None));
                specs.push(spec(benchmark, kind, size * 2, SelectionScheme::None));
                specs.push(spec(benchmark, kind, size, SelectionScheme::static_acc()));
            }
        }
    }
    specs
}

/// Ablation D — the paper's §1 claim that static prediction "can achieve
/// the effect of doubling predictor size" for the simple predictors:
/// compare `size + static_acc` against `2×size` dynamic-only.
pub fn ablate_doubling(lab: &Lab) -> String {
    let benchmarks = DOUBLING_BENCHMARKS;
    let kinds = DOUBLING_KINDS;
    let sizes = DOUBLING_SIZES;
    let specs = ablate_doubling_specs();
    eprintln!(
        "ablate_doubling: sweeping {} size-doubling cells ...",
        specs.len()
    );
    let mut reports = run_grid(lab, specs).into_iter();

    let mut table = TableWriter::with_columns(&[
        "Program",
        "Predictor",
        "Size",
        "MISPs/KI",
        "2x size",
        "size + static_acc",
    ]);
    table.numeric();
    for benchmark in benchmarks {
        for kind in kinds {
            for size in sizes {
                let base = reports.next().expect("one report per spec");
                let doubled = reports.next().expect("one report per spec");
                let with_static = reports.next().expect("one report per spec");
                table.row(vec![
                    benchmark.name().to_string(),
                    kind.name().to_string(),
                    format!("{}KB", size / 1024),
                    fixed(base.stats.misp_per_ki(), 3),
                    fixed(doubled.stats.misp_per_ki(), 3),
                    fixed(with_static.stats.misp_per_ki(), 3),
                ]);
            }
        }
    }
    format!(
        "Ablation D. Does static prediction equal a size doubling? (paper §1 claim)\n\n{}",
        table.render()
    )
}

/// The programs measured by Ablation A.
const SHIFT_BENCHMARKS: [Benchmark; 3] = [Benchmark::Go, Benchmark::Gcc, Benchmark::M88ksim];

/// The history-using predictors measured by Ablation A.
const SHIFT_KINDS: [PredictorKind; 4] = [
    PredictorKind::Ghist,
    PredictorKind::Gshare,
    PredictorKind::BiMode,
    PredictorKind::TwoBcGskew,
];

/// The spec grid behind [`ablate_shift`].
pub fn ablate_shift_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in SHIFT_BENCHMARKS {
        for kind in SHIFT_KINDS {
            specs.push(spec(
                benchmark,
                kind,
                COMPARISON_SIZE,
                SelectionScheme::None,
            ));
            for scheme in [SelectionScheme::static_95(), SelectionScheme::static_acc()] {
                for shift in [ShiftPolicy::NoShift, ShiftPolicy::Shift] {
                    specs.push(spec(benchmark, kind, COMPARISON_SIZE, scheme).with_shift(shift));
                }
            }
        }
    }
    specs
}

/// Ablation A — shift-vs-no-shift across every history-using predictor.
pub fn ablate_shift(lab: &Lab) -> String {
    let benchmarks = SHIFT_BENCHMARKS;
    let kinds = SHIFT_KINDS;
    let specs = ablate_shift_specs();
    eprintln!(
        "ablate_shift: sweeping {} shift-policy cells ...",
        specs.len()
    );
    let mut reports = run_grid(lab, specs).into_iter();

    let mut table = TableWriter::with_columns(&[
        "Program",
        "Predictor",
        "Static_95",
        "Static_95 Shift",
        "Static_Acc",
        "Static_Acc Shift",
    ]);
    table.numeric();
    for benchmark in benchmarks {
        for kind in kinds {
            let base = reports.next().expect("one report per spec");
            let mut row = vec![benchmark.name().to_string(), kind.name().to_string()];
            for _ in 0..4 {
                let report = reports.next().expect("one report per spec");
                row.push(improvement_pct(&report, &base));
            }
            table.row(row);
        }
    }
    format!(
        "Ablation A. History shifting for statically predicted branches, per predictor ({} KB)\n\n{}",
        COMPARISON_SIZE / 1024,
        table.render()
    )
}

/// The programs measured by Ablation B.
const CUTOFF_BENCHMARKS: [Benchmark; 2] = [Benchmark::Gcc, Benchmark::M88ksim];

/// The bias cutoffs swept by Ablation B.
const CUTOFFS: [f64; 5] = [0.80, 0.90, 0.95, 0.99, 0.999];

/// The spec grid behind [`ablate_cutoff`].
pub fn ablate_cutoff_specs() -> Vec<ExperimentSpec> {
    let mut specs: Vec<_> = CUTOFF_BENCHMARKS
        .iter()
        .map(|b| {
            spec(
                *b,
                PredictorKind::Gshare,
                COMPARISON_SIZE,
                SelectionScheme::None,
            )
        })
        .collect();
    for cutoff in CUTOFFS {
        for benchmark in CUTOFF_BENCHMARKS {
            specs.push(spec(
                benchmark,
                PredictorKind::Gshare,
                COMPARISON_SIZE,
                SelectionScheme::Bias { cutoff },
            ));
        }
    }
    specs
}

/// Ablation B — `Static_95` bias-cutoff sweep.
pub fn ablate_cutoff(lab: &Lab) -> String {
    let benchmarks = CUTOFF_BENCHMARKS;
    let cutoffs = CUTOFFS;
    let specs = ablate_cutoff_specs();
    eprintln!(
        "ablate_cutoff: sweeping {} bias-cutoff cells ...",
        specs.len()
    );
    let mut reports = run_grid(lab, specs).into_iter();
    let bases: Vec<_> = benchmarks
        .iter()
        .map(|_| reports.next().expect("one report per spec"))
        .collect();

    let mut table = TableWriter::with_columns(&[
        "Cutoff",
        "gcc: hints",
        "gcc: MISPs/KI",
        "gcc: Δ",
        "m88ksim: hints",
        "m88ksim: MISPs/KI",
        "m88ksim: Δ",
    ]);
    table.numeric();
    for cutoff in cutoffs {
        let mut row = vec![format!("{:.1}%", cutoff * 100.0)];
        for base in &bases {
            let report = reports.next().expect("one report per spec");
            row.push(grouped(report.hints as u64));
            row.push(fixed(report.stats.misp_per_ki(), 3));
            row.push(improvement_pct(&report, base));
        }
        table.row(row);
    }
    format!(
        "Ablation B. Static_95 bias-cutoff sweep on gshare ({} KB)\n\n{}",
        COMPARISON_SIZE / 1024,
        table.render()
    )
}

/// Every selection scheme compared by Ablation C.
fn selection_schemes() -> [SelectionScheme; 5] {
    [
        SelectionScheme::None,
        SelectionScheme::static_95(),
        SelectionScheme::static_acc(),
        SelectionScheme::Factor { factor: 1.05 },
        SelectionScheme::collision_aware(),
    ]
}

/// The spec grid behind [`ablate_selection`].
pub fn ablate_selection_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in Benchmark::ALL {
        for scheme in selection_schemes() {
            specs.push(spec(
                benchmark,
                PredictorKind::Gshare,
                COMPARISON_SIZE,
                scheme,
            ));
        }
    }
    specs
}

/// Ablation C — all selection schemes side by side, including `Static_Fac`
/// and the future-work collision-aware scheme.
pub fn ablate_selection(lab: &Lab) -> String {
    let schemes = selection_schemes();
    let specs = ablate_selection_specs();
    eprintln!(
        "ablate_selection: sweeping {} selection-scheme cells ...",
        specs.len()
    );
    let mut reports = run_grid(lab, specs).into_iter();

    let mut table = TableWriter::with_columns(&[
        "Program",
        "none",
        "static_95",
        "static_acc",
        "static_fac1.05",
        "static_col",
    ]);
    table.numeric();
    for benchmark in Benchmark::ALL {
        let mut row = vec![benchmark.name().to_string()];
        for _ in schemes {
            let report = reports.next().expect("one report per spec");
            row.push(fixed(report.stats.misp_per_ki(), 3));
        }
        table.row(row);
    }
    format!(
        "Ablation C. Selection schemes on gshare ({} KB), MISPs/KI\n(static_col is the paper's future-work collision-aware selection)\n\n{}",
        COMPARISON_SIZE / 1024,
        table.render()
    )
}

/// The full experiment suite in `all_experiments` order. Run on one shared
/// [`Lab`], the outputs, each followed by a newline, are
/// `results_full.txt`.
pub const SUITE: [fn(&Lab) -> String; 13] = [
    table1,
    table2,
    fig1_6,
    fig7_12,
    table3,
    table4,
    table5,
    fig13,
    ablate_shift,
    ablate_cutoff,
    ablate_selection,
    ablate_doubling,
    ablate_mcfarling,
];

/// Every spec the full experiment suite runs, grouped by grid. The grids
/// through Figure 13 come in [`SUITE`] order; the five ablation grids do
/// not (McFarling and doubling come first here, last in `SUITE`). The order
/// is kept because `sdbp check --suite` reports in it.
///
/// This is the harness's own pre-flight surface: `sdbp check --suite` and
/// the suite-hygiene test below lint every one of these through
/// `sdbp-check` before any long run is attempted.
pub fn suite_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    specs.extend(table2_specs());
    specs.extend(fig1_6_specs());
    specs.extend(fig7_12_specs());
    specs.extend(table3_specs());
    specs.extend(table4_specs());
    specs.extend(fig13_specs());
    specs.extend(ablate_mcfarling_specs());
    specs.extend(ablate_doubling_specs());
    specs.extend(ablate_shift_specs());
    specs.extend(ablate_cutoff_specs());
    specs.extend(ablate_selection_specs());
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_nonempty_and_covers_every_grid() {
        let specs = suite_specs();
        // Every grid experiment contributes at least one cell.
        assert!(specs.len() > 300, "suite has only {} cells", specs.len());
        // The paper predictors all appear somewhere in the suite.
        for kind in PredictorKind::PAPER {
            assert!(
                specs.iter().any(|s| s.predictor.kind() == kind),
                "suite never exercises {kind}"
            );
        }
    }

    #[test]
    fn every_suite_spec_passes_the_static_checker() {
        // The acceptance bar for the diagnostics engine: the harness's own
        // grids must lint clean (notes are fine, warnings and errors are
        // not). No runner applies the warnings, so this test is what keeps
        // the fixed grids free of them.
        for (i, spec) in suite_specs().iter().enumerate() {
            let diags = sdbp_check::lint_spec(spec, "<suite>");
            assert!(
                diags.is_clean(),
                "suite spec #{i} ({spec:?}) is not clean:\n{}",
                diags.render_text()
            );
        }
    }

    #[test]
    fn every_suite_spec_passes_preflight() {
        for spec in suite_specs() {
            sdbp_check::preflight(&spec).expect("suite spec must pre-flight");
        }
    }
}
