//! End-to-end pipeline invariants: workload → profile → hints → simulate.

use sdbp::prelude::*;

fn spec(scheme: SelectionScheme) -> ExperimentSpec {
    ExperimentSpec::self_trained(
        Benchmark::Compress,
        PredictorConfig::new(PredictorKind::Gshare, 2048).expect("valid size"),
        scheme,
    )
    .with_instructions(400_000)
}

#[test]
fn misp_per_ki_is_bounded_by_cbrs_per_ki() {
    for scheme in [SelectionScheme::None, SelectionScheme::static_acc()] {
        let report = run_experiment(&spec(scheme)).expect("well-formed spec");
        assert!(report.stats.misp_per_ki() <= report.stats.cbrs_per_ki());
        assert!(report.stats.misp_per_ki() > 0.0, "nothing is perfect");
    }
}

#[test]
fn accounting_identities_hold() {
    let report = run_experiment(&spec(SelectionScheme::static_95())).expect("well-formed spec");
    let s = &report.stats;
    assert!(s.mispredictions <= s.branches);
    assert!(s.static_predicted <= s.branches);
    assert!(s.static_mispredictions <= s.static_predicted);
    assert_eq!(
        s.collisions.total,
        s.collisions.constructive + s.collisions.destructive
    );
    assert!(s.branches < s.instructions);
    assert!((0.0..=1.0).contains(&s.accuracy()));
}

#[test]
fn experiments_are_bit_reproducible() {
    let a = run_experiment(&spec(SelectionScheme::static_acc())).expect("well-formed spec");
    let b = run_experiment(&spec(SelectionScheme::static_acc())).expect("well-formed spec");
    assert_eq!(a, b, "same spec must give identical reports");
}

#[test]
fn different_seeds_give_different_streams_but_similar_rates() {
    let a = run_experiment(&spec(SelectionScheme::None).with_seed(1)).expect("well-formed spec");
    let b = run_experiment(&spec(SelectionScheme::None).with_seed(2)).expect("well-formed spec");
    assert_ne!(
        a.stats.mispredictions, b.stats.mispredictions,
        "distinct seeds should perturb the run"
    );
    let ratio = a.stats.misp_per_ki() / b.stats.misp_per_ki();
    assert!(
        (0.5..2.0).contains(&ratio),
        "rates should stay in the same ballpark: {ratio}"
    );
}

#[test]
fn static_branches_never_touch_dynamic_tables() {
    // With every executed branch statically predicted, the dynamic tables
    // must observe zero lookups -> zero collisions.
    let workload = Workload::spec95(Benchmark::Compress);
    let bias = BiasProfile::from_source(
        workload
            .generator(InputSet::Ref, 2000)
            .take_instructions(300_000),
    );
    // Select EVERY observed branch.
    let hints: HintDatabase = bias
        .iter()
        .map(|(pc, s)| (pc, s.majority_taken()))
        .collect();
    let mut combined = CombinedPredictor::new(
        PredictorConfig::new(PredictorKind::Gshare, 1024)
            .expect("valid size")
            .build_any(),
        hints,
        ShiftPolicy::NoShift,
    );
    let stats = MeasurePass::new(&mut combined).run(
        workload
            .generator(InputSet::Ref, 2000)
            .take_instructions(300_000),
    );
    assert_eq!(stats.static_predicted, stats.branches);
    assert_eq!(stats.collisions.total, 0);
    assert_eq!(combined.total_collisions(), 0);
}

#[test]
fn hint_count_matches_database_and_static_fraction_tracks_it() {
    let with_hints = run_experiment(&spec(SelectionScheme::static_95())).expect("well-formed");
    assert!(with_hints.hints > 0);
    assert!(with_hints.stats.static_fraction() > 0.05);
    // Statically predicted branches were selected for extreme bias, so the
    // static subset must be highly accurate under self-training.
    assert!(
        with_hints.stats.static_accuracy() > 0.93,
        "static accuracy {}",
        with_hints.stats.static_accuracy()
    );
}

#[test]
fn lab_cache_equals_fresh_runs() {
    let lab = Lab::new();
    let s = spec(SelectionScheme::static_acc());
    let cached_first = lab.run(&s).expect("well-formed");
    let cached_second = lab.run(&s).expect("well-formed");
    let fresh = run_experiment(&s).expect("well-formed");
    assert_eq!(cached_first, cached_second);
    assert_eq!(cached_first, fresh, "cache must not change results");
}

#[test]
fn a_fused_stats_pass_collects_what_a_dedicated_traversal_does() {
    // The `custom_workload` example's shape: a pass feeding `TraceStats`
    // rides the measurement's traversal.
    let source = || {
        Workload::spec95(Benchmark::Compress)
            .generator(InputSet::Ref, 7)
            .take_instructions(300_000)
    };
    let config = PredictorConfig::new(PredictorKind::Bimodal, 8 * 1024).expect("valid size");
    let mut predictor = CombinedPredictor::pure_dynamic(config.build_any());
    let mut measure = MeasurePass::new(&mut predictor);
    let mut fused = TraceStats::new();
    let mut profile = FnPass::new("trace-stats", |chunk: &[BranchEvent]| {
        chunk.iter().for_each(|e| fused.record(e))
    });
    PassRunner::new().run(source(), &mut [&mut measure, &mut profile]);
    let measured = measure.into_stats();

    let dedicated = TraceStats::from_source(source());
    let sites = |stats: &TraceStats| {
        let mut sites: Vec<_> = stats.iter().map(|(pc, site)| (pc, *site)).collect();
        sites.sort_unstable_by_key(|&(pc, _)| pc);
        sites
    };
    assert_eq!(sites(&fused), sites(&dedicated));
    assert_eq!(fused.dynamic_branches(), dedicated.dynamic_branches());
    assert_eq!(fused.total_instructions(), dedicated.total_instructions());

    let mut twin = CombinedPredictor::pure_dynamic(config.build_any());
    assert_eq!(measured, MeasurePass::new(&mut twin).run(source()));
    assert_eq!(measured.branches, dedicated.dynamic_branches());
}
