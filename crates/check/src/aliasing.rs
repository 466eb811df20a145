//! Static destructive-aliasing analysis, rendered as diagnostics.
//!
//! The analyzer itself is [`sdbp_profiles::rank_interference`] (the
//! `Static_Collide` selection scheme also consumes it); this module is the
//! diagnostics surface: [`lint_aliasing`] runs the ranking with its default
//! options and renders it as SDBP040 hotspot notes or an SDBP041
//! opaque-scheme note.
//!
//! The ranking correlates with the simulator's measured destructive-collision
//! counts (a pinned test in `tests/aliasing_crosscheck.rs` verifies this),
//! which is what makes `sdbp check --aliasing` useful before committing to a
//! long measurement run.

use crate::codes;
use crate::diag::{Diagnostic, Diagnostics, Span};
use sdbp_predictors::PredictorConfig;
use sdbp_profiles::{rank_interference, BiasProfile, InterferenceOptions, InterferenceRanking};

/// Ranks the destructive aliasing of `config` on the branches in `profile`
/// and renders the findings as diagnostics: SDBP040 notes for the `top`
/// hotspots, or SDBP041 when the scheme is opaque to analysis.
pub fn lint_aliasing(
    profile: &BiasProfile,
    config: PredictorConfig,
    top: usize,
    origin: &str,
) -> (Option<InterferenceRanking>, Diagnostics) {
    let mut diags = Diagnostics::new();
    let Some(report) = rank_interference(profile, config, &InterferenceOptions::default()) else {
        diags.push(
            Diagnostic::note(
                codes::ALIASING_OPAQUE_SCHEME,
                format!(
                    "{} does not expose its index function; aliasing analysis skipped",
                    config.kind()
                ),
            )
            .with_span(Span::field(origin, "predictor")),
        );
        return (None, diags);
    };
    for hotspot in report.hotspots.iter().take(top) {
        let share = if report.total_score > 0.0 {
            100.0 * hotspot.score / report.total_score
        } else {
            0.0
        };
        diags.push(
            Diagnostic::note(
                codes::ALIASING_HOTSPOT,
                format!(
                    "branch {} carries {share:.1}% of the predicted destructive \
                     aliasing ({} executions)",
                    hotspot.pc, hotspot.executed
                ),
            )
            .with_span(Span::field(origin, "profile")),
        );
    }
    (Some(report), diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::PredictorKind;
    use sdbp_trace::{BranchAddr, SiteStats};

    fn profile_of(sites: &[(u64, u64, u64)]) -> BiasProfile {
        let mut profile = BiasProfile::new();
        for &(pc, executed, taken) in sites {
            profile.insert(BranchAddr(pc), SiteStats { executed, taken });
        }
        profile
    }

    fn config(kind: PredictorKind, size: usize) -> PredictorConfig {
        PredictorConfig::new(kind, size).unwrap()
    }

    #[test]
    fn opaque_schemes_return_none() {
        let profile = profile_of(&[(0x100, 100, 100)]);
        for kind in [
            PredictorKind::TwoBcGskew,
            PredictorKind::Agree,
            PredictorKind::Tournament,
        ] {
            assert!(
                rank_interference(
                    &profile,
                    config(kind, 4096),
                    &InterferenceOptions::default()
                )
                .is_none(),
                "{kind} should be opaque"
            );
        }
        let (report, diags) =
            lint_aliasing(&profile, config(PredictorKind::TwoBcGskew, 4096), 10, "<t>");
        assert!(report.is_none());
        assert_eq!(diags.iter().map(|d| d.code.0).collect::<Vec<_>>(), [41]);
    }

    #[test]
    fn bimodal_collision_of_opposing_branches_is_detected() {
        // 64-byte bimodal = 256 entries; word indices 256 apart collide.
        let stride = 256u64 * 4;
        let profile = profile_of(&[
            (0x1000, 1000, 1000),       // always taken
            (0x1000 + stride, 1000, 0), // same entry, never taken
            (0x1000 + 8, 1000, 1000),   // private entry
        ]);
        let report = rank_interference(
            &profile,
            config(PredictorKind::Bimodal, 64),
            &InterferenceOptions::default(),
        )
        .unwrap();
        assert_eq!(report.branches, 3);
        assert_eq!(report.hotspots.len(), 2, "only the colliding pair scores");
        let pcs: Vec<u64> = report.hotspots.iter().map(|h| h.pc.0).collect();
        assert!(pcs.contains(&0x1000) && pcs.contains(&(0x1000 + stride)));
        // Each branch is half the shared cell's mass, all of it opposing:
        // score = 1000 × (1000/2000) = 500.
        assert!((report.hotspots[0].score - 500.0).abs() < 1e-6);
    }

    #[test]
    fn aligned_branches_do_not_alias_destructively() {
        let profile = profile_of(&[(0x1000, 1000, 1000), (0x1000 + 256 * 4, 1000, 1000)]);
        let report = rank_interference(
            &profile,
            config(PredictorKind::Bimodal, 64),
            &InterferenceOptions::default(),
        )
        .unwrap();
        assert!(
            report.hotspots.is_empty(),
            "same-direction sharing is constructive"
        );
        assert_eq!(report.total_score, 0.0);
    }

    #[test]
    fn self_interference_is_excluded() {
        // One mixed branch alone in its entry: no *aliasing* to report.
        let profile = profile_of(&[(0x1000, 1000, 500)]);
        let report = rank_interference(
            &profile,
            config(PredictorKind::Bimodal, 64),
            &InterferenceOptions::default(),
        )
        .unwrap();
        assert!(report.hotspots.is_empty());
    }

    #[test]
    fn gshare_congruent_pcs_collide_through_the_xor() {
        // gshare 16 KB: 65536 entries (16 index bits), 12-bit history. PCs
        // congruent modulo the table size XOR to the same entry under
        // *every* history, so the full opposing mass collides — exactly the
        // worst case the paper's per-entry tagging measures dynamically.
        let stride = 65536u64 * 4;
        let sites = [(0x1000u64, 1000u64, 1000u64), (0x1000 + stride, 1000, 0)];
        let report = rank_interference(
            &profile_of(&sites),
            config(PredictorKind::Gshare, 16 * 1024),
            &InterferenceOptions::default(),
        )
        .unwrap();
        assert_eq!(report.hotspots.len(), 2);
        assert!(
            (report.hotspots[0].score - 500.0).abs() < 1e-6,
            "{}",
            report.hotspots[0].score
        );
    }

    #[test]
    fn gshare_separates_pcs_beyond_the_history_span() {
        // Branches whose word indices differ above the 12-bit history span
        // occupy disjoint entry blocks: the XOR can never bring them
        // together, however the history evolves.
        let sites = [
            (0x1000u64, 1000u64, 1000u64),
            (0x1000 + (1u64 << 13) * 4, 1000, 0),
        ];
        let report = rank_interference(
            &profile_of(&sites),
            config(PredictorKind::Gshare, 16 * 1024),
            &InterferenceOptions::default(),
        )
        .unwrap();
        assert!(report.hotspots.is_empty(), "{:?}", report.hotspots);
        assert!(
            report.cells_touched > 256,
            "history spread covers many cells"
        );
    }

    #[test]
    fn analysis_is_deterministic() {
        let profile = profile_of(&[
            (0x1000, 500, 480),
            (0x2004, 300, 10),
            (0x3008, 800, 400),
            (0x400c, 100, 95),
        ]);
        let run = || {
            rank_interference(
                &profile,
                config(PredictorKind::Gshare, 4096),
                &InterferenceOptions::default(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.hotspots, b.hotspots);
        assert_eq!(a.total_score, b.total_score);
    }
}
