//! Small-scale assertions of the paper's headline result shapes.
//!
//! These run at reduced instruction budgets, so thresholds are loose; the
//! full-size numbers live in `EXPERIMENTS.md` and are regenerated by the
//! words of `sdbp bench`.

use sdbp::prelude::*;

const BUDGET: u64 = 1_500_000;

fn run(benchmark: Benchmark, kind: PredictorKind, size: usize, scheme: SelectionScheme) -> Report {
    run_experiment(
        &ExperimentSpec::self_trained(
            benchmark,
            PredictorConfig::new(kind, size).expect("valid size"),
            scheme,
        )
        .with_instructions(BUDGET),
    )
    .expect("well-formed spec")
}

/// Figures 1–6: static prediction always improves gshare.
#[test]
fn static_acc_always_improves_gshare() {
    for benchmark in Benchmark::ALL {
        let base = run(
            benchmark,
            PredictorKind::Gshare,
            4096,
            SelectionScheme::None,
        );
        let with = run(
            benchmark,
            PredictorKind::Gshare,
            4096,
            SelectionScheme::static_acc(),
        );
        assert!(
            with.stats.misp_per_ki() < base.stats.misp_per_ki(),
            "{benchmark}: static_acc must improve gshare ({} vs {})",
            with.stats.misp_per_ki(),
            base.stats.misp_per_ki()
        );
    }
}

/// Figures 1–6: collisions drop when biased branches leave the tables.
#[test]
fn static_hints_reduce_collisions_on_gcc() {
    let base = run(
        Benchmark::Gcc,
        PredictorKind::Gshare,
        4096,
        SelectionScheme::None,
    );
    let with_95 = run(
        Benchmark::Gcc,
        PredictorKind::Gshare,
        4096,
        SelectionScheme::static_95(),
    );
    let with_acc = run(
        Benchmark::Gcc,
        PredictorKind::Gshare,
        4096,
        SelectionScheme::static_acc(),
    );
    assert!(
        with_95.stats.collisions.total < base.stats.collisions.total,
        "static_95 collisions {} -> {}",
        base.stats.collisions.total,
        with_95.stats.collisions.total
    );
    assert!(
        with_acc.stats.collisions.total < base.stats.collisions.total / 2,
        "static_acc collisions {} -> {}",
        base.stats.collisions.total,
        with_acc.stats.collisions.total
    );
}

/// Figures 7–12: bimodal gains almost nothing from Static_95 — both target
/// the same biased population.
#[test]
fn bimodal_is_indifferent_to_static_95() {
    for benchmark in [Benchmark::Gcc, Benchmark::M88ksim] {
        let base = run(
            benchmark,
            PredictorKind::Bimodal,
            8192,
            SelectionScheme::None,
        );
        let with = run(
            benchmark,
            PredictorKind::Bimodal,
            8192,
            SelectionScheme::static_95(),
        );
        let delta = with.improvement_over(&base).abs();
        assert!(
            delta < 0.08,
            "{benchmark}: bimodal moved {delta:+.3} under static_95"
        );
    }
}

/// Figures 7–12: ghist benefits far more from Static_95 than bimodal does
/// (static-95 + ghist ≈ a gshare, as the paper puts it).
#[test]
fn ghist_gains_much_more_than_bimodal_from_static_95() {
    let bimodal_gain = {
        let base = run(
            Benchmark::Gcc,
            PredictorKind::Bimodal,
            8192,
            SelectionScheme::None,
        );
        let with = run(
            Benchmark::Gcc,
            PredictorKind::Bimodal,
            8192,
            SelectionScheme::static_95(),
        );
        with.improvement_over(&base)
    };
    let ghist_gain = {
        let base = run(
            Benchmark::Gcc,
            PredictorKind::Ghist,
            8192,
            SelectionScheme::None,
        );
        let with = run(
            Benchmark::Gcc,
            PredictorKind::Ghist,
            8192,
            SelectionScheme::static_95(),
        );
        with.improvement_over(&base)
    };
    assert!(
        ghist_gain > bimodal_gain + 0.05,
        "ghist {ghist_gain:+.3} vs bimodal {bimodal_gain:+.3}"
    );
}

/// Figure 13: naive cross-training hurts perl; the merged profile fixes it.
#[test]
fn merged_profile_rescues_cross_training_on_perl() {
    let base = ExperimentSpec::self_trained(
        Benchmark::Perl,
        PredictorConfig::new(PredictorKind::Gshare, 16 * 1024).expect("valid size"),
        SelectionScheme::static_95(),
    )
    .with_instructions(BUDGET);
    let naive = run_experiment(&base.clone().with_profile(ProfileSource::CrossTrained))
        .expect("well-formed");
    let merged = run_experiment(
        &base
            .clone()
            .with_profile(ProfileSource::MergedCrossTrained {
                max_bias_change: 0.05,
            }),
    )
    .expect("well-formed");
    assert!(
        merged.stats.misp_per_ki() < naive.stats.misp_per_ki(),
        "merged {} must beat naive {}",
        merged.stats.misp_per_ki(),
        naive.stats.misp_per_ki()
    );
}

/// Table 2's correlation: the more highly biased a program's branches, the
/// more accurate every predictor is on it (m88ksim vs go, the extremes).
#[test]
fn biased_programs_are_more_predictable() {
    for kind in [
        PredictorKind::Bimodal,
        PredictorKind::Gshare,
        PredictorKind::TwoBcGskew,
    ] {
        let go = run(Benchmark::Go, kind, 8192, SelectionScheme::None);
        let m88 = run(Benchmark::M88ksim, kind, 8192, SelectionScheme::None);
        assert!(
            m88.stats.accuracy() > go.stats.accuracy() + 0.1,
            "{kind}: m88ksim {:.3} should be far above go {:.3}",
            m88.stats.accuracy(),
            go.stats.accuracy()
        );
    }
}

/// The hybrids beat the simple predictors they are built from.
#[test]
fn tbcgskew_is_the_strongest_dynamic_predictor() {
    for benchmark in [Benchmark::Gcc, Benchmark::M88ksim] {
        let tbc = run(
            benchmark,
            PredictorKind::TwoBcGskew,
            8192,
            SelectionScheme::None,
        );
        for kind in [PredictorKind::Ghist, PredictorKind::Gshare] {
            let simple = run(benchmark, kind, 8192, SelectionScheme::None);
            assert!(
                tbc.stats.misp_per_ki() < simple.stats.misp_per_ki(),
                "{benchmark}: 2bcgskew {} must beat {kind} {}",
                tbc.stats.misp_per_ki(),
                simple.stats.misp_per_ki()
            );
        }
    }
}

/// §4/Table 4: with shifting, a ghist predictor retains the correlation
/// context of statically predicted branches; the combination must not fall
/// apart relative to no-shift.
#[test]
fn shift_policy_changes_results_without_breaking_them() {
    let base = ExperimentSpec::self_trained(
        Benchmark::Gcc,
        PredictorConfig::new(PredictorKind::TwoBcGskew, 8 * 1024).expect("valid size"),
        SelectionScheme::static_acc(),
    )
    .with_instructions(BUDGET);
    let no_shift = run_experiment(&base.clone()).expect("well-formed");
    let shift = run_experiment(&base.clone().with_shift(ShiftPolicy::Shift)).expect("well-formed");
    assert_ne!(
        no_shift.stats.mispredictions, shift.stats.mispredictions,
        "the policy must be observable"
    );
    let ratio = shift.stats.misp_per_ki() / no_shift.stats.misp_per_ki();
    assert!((0.5..1.5).contains(&ratio), "ratio {ratio}");
}
