//! Cross-checks the static aliasing analyzer against the simulator.
//!
//! The analyzer predicts destructive interference from a bias profile and
//! the index function alone; the simulator *measures* it with per-entry
//! tags ([`SiteAccuracy::destructive_collisions`]). On a calibrated
//! workload the two must agree on where the hotspots are — that agreement
//! is the analyzer's acceptance test.

use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::{
    rank_interference, AccuracyProfile, BiasProfile, InterferenceOptions, SelectionScheme,
};
use sdbp_trace::{BranchAddr, BranchSource};
use sdbp_workloads::{Benchmark, InputSet, Workload};
use std::collections::HashSet;

const INSTRUCTIONS: u64 = 300_000;

fn source() -> impl BranchSource {
    Workload::spec95(Benchmark::Compress)
        .generator(InputSet::Ref, 2000)
        .take_instructions(INSTRUCTIONS)
}

/// Top `n` branches by measured destructive collisions, ties by address.
fn measured_top(config: PredictorConfig, n: usize) -> Vec<BranchAddr> {
    let mut predictor = config.build();
    let accuracy = AccuracyProfile::collect(source(), &mut *predictor);
    let mut sites: Vec<(BranchAddr, u64)> = accuracy
        .iter()
        .filter(|(_, s)| s.destructive_collisions > 0)
        .map(|(pc, s)| (pc, s.destructive_collisions))
        .collect();
    sites.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    sites.into_iter().take(n).map(|(pc, _)| pc).collect()
}

/// Top `n` branches by predicted destructive score.
fn predicted_top(config: PredictorConfig, n: usize) -> Vec<BranchAddr> {
    let profile = BiasProfile::from_source(source());
    let report = rank_interference(&profile, config, &InterferenceOptions::default())
        .expect("scheme exposes its index function");
    report.hotspots.iter().take(n).map(|h| h.pc).collect()
}

fn overlap(config: PredictorConfig, n: usize) -> usize {
    let measured: HashSet<BranchAddr> = measured_top(config, n).into_iter().collect();
    predicted_top(config, n)
        .iter()
        .filter(|pc| measured.contains(pc))
        .count()
}

#[test]
fn gshare_hotspot_ranking_matches_the_simulator() {
    // Small table on a real workload: heavy, measurable aliasing.
    let config = PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap();
    let agree = overlap(config, 20);
    assert!(
        agree >= 10,
        "static analysis and simulation agree on only {agree}/20 gshare hotspots"
    );
}

#[test]
fn bimodal_hotspot_ranking_matches_the_simulator() {
    let config = PredictorConfig::new(PredictorKind::Bimodal, 256).unwrap();
    let agree = overlap(config, 20);
    assert!(
        agree >= 10,
        "static analysis and simulation agree on only {agree}/20 bimodal hotspots"
    );
}

#[test]
fn bi_mode_hotspot_ranking_matches_the_simulator() {
    // The ranking deposits each branch's mass in the choice bank and in
    // *both* direction banks: which one trains is the choice counter's
    // state, which the index analysis does not model.
    let config = PredictorConfig::new(PredictorKind::BiMode, 1024).unwrap();
    let agree = overlap(config, 20);
    assert!(
        agree >= 10,
        "static analysis and simulation agree on only {agree}/20 bi-mode hotspots"
    );
}

#[test]
fn static_collide_selection_overlaps_measured_collision_hotspots() {
    // `Static_Collide` consumes the same ranking the analyzer reports; its
    // selected hints must land on the branches the simulator *measures* as
    // destructive-collision hotspots. The overlap count is pinned — the
    // whole pipeline (workload, analyzer, selection) is deterministic, so
    // any drift is a real behavior change.
    let config = PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap();
    let profile = BiasProfile::from_source(source());
    let ranking = rank_interference(&profile, config, &InterferenceOptions::default())
        .expect("gshare exposes its index function");
    let hints = SelectionScheme::static_collide()
        .select_with_interference(&profile, None, Some(&ranking))
        .expect("a ranking was supplied");
    assert!(!hints.is_empty(), "collide selected nothing");
    // Every hint targets a branch the ranking actually scored.
    for (pc, _) in hints.iter() {
        assert!(
            ranking.score_of(pc) > 0.0,
            "hinted branch {pc} has no interference score"
        );
    }
    // Pinned top-20 overlap with the measured destructive ranking.
    let measured = measured_top(config, 20);
    let hinted_hotspots = measured
        .iter()
        .filter(|pc| hints.get(**pc).is_some())
        .count();
    assert_eq!(
        hinted_hotspots,
        14,
        "collide hints {hinted_hotspots}/20 of the measured hotspots ({} hints total)",
        hints.len()
    );
    assert_eq!(hints.len(), 165, "collide hint count drifted");
}

#[test]
fn rankings_are_pinned() {
    // Determinism guard: same seed, same workload, same analysis — the
    // exact hotspot list must never drift across runs or platforms.
    let config = PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap();
    assert_eq!(predicted_top(config, 3), predicted_top(config, 3));
    assert_eq!(measured_top(config, 3), measured_top(config, 3));
}
