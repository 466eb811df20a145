//! Exact GF(2) index-function analysis, rendered as diagnostics.
//!
//! Where [`aliasing`](crate::aliasing) *estimates* interference by probing
//! (or, for linear predictors, computes it exactly per profile), this
//! module reports what can be *proven about the index function itself*:
//! guaranteed-collision PC classes (SDBP060), dead history bits (SDBP061),
//! rank-deficient tables (SDBP062), and — given a bias profile — branch
//! pairs proven to collide with opposing majority directions at every
//! history (SDBP063). Predictors whose index functions are not affine over
//! GF(2) get an SDBP064 note saying which analyses still apply.
//!
//! The math lives in [`sdbp_index_analysis`]; `docs/index-analysis.md`
//! explains the model.

use crate::codes;
use crate::diag::{Diagnostic, Diagnostics, Span};
use sdbp_index_analysis::{analyze, SpecFacts};
use sdbp_predictors::{IndexCapability, PredictorConfig};
use sdbp_profiles::BiasProfile;

/// Tuning knobs for [`lint_index_analysis`].
#[derive(Debug, Clone, Copy)]
pub struct IndexAnalysisOptions {
    /// Maximum number of SDBP063 proven-pair notes reported.
    pub top_pairs: usize,
}

impl Default for IndexAnalysisOptions {
    fn default() -> Self {
        Self { top_pairs: 10 }
    }
}

/// Runs the exact analysis on `config` and renders the proven facts as
/// diagnostics (all note severity — these are findings about the design,
/// not misconfigurations).
///
/// `profile`, when given, additionally drives the SDBP063 proven-pair
/// search: profiled branches are grouped by their exact PC image per bank,
/// and groups mixing opposing majority directions are reported as proven
/// destructive aliasing, ordered by execution mass.
///
/// Returns the derived [`SpecFacts`] for linear predictors, `None` (with an
/// SDBP064 note) otherwise.
pub fn lint_index_analysis(
    profile: Option<&BiasProfile>,
    config: PredictorConfig,
    options: &IndexAnalysisOptions,
    origin: &str,
) -> (Option<SpecFacts>, Diagnostics) {
    let mut diags = Diagnostics::new();
    let span = || Span::field(origin, "predictor");
    let capability = config.index_capability();
    let spec = config.build().index_spec();
    let Some(spec) = spec else {
        let message = match capability {
            IndexCapability::SampledOnly => format!(
                "{} hashes its indices non-linearly; the exact GF(2) analysis \
                 does not apply",
                config.kind()
            ),
            _ => format!(
                "{} does not expose its index function; the exact GF(2) \
                 analysis does not apply",
                config.kind()
            ),
        };
        let mut diag =
            Diagnostic::note(codes::INDEX_ANALYSIS_UNAVAILABLE, message).with_span(span());
        if capability == IndexCapability::SampledOnly {
            diag = diag.with_note(
                "the sampled analysis (`sdbp check --aliasing`) still applies \
                 to this predictor",
            );
        }
        diags.push(diag);
        return (None, diags);
    };
    let facts = analyze(&spec);
    diags.merge(lint_facts(&facts, origin));

    // SDBP063: profile-driven proven pairs — branches with identical PC
    // images in some bank collide at *every* history; opposing majority
    // directions make the sharing destructive by construction.
    if let Some(profile) = profile {
        let mut branches: Vec<(sdbp_trace::BranchAddr, u64, u64)> = profile
            .iter()
            .filter(|(_, stats)| stats.executed > 0)
            .map(|(pc, stats)| (pc, stats.executed, stats.taken))
            .collect();
        branches.sort_unstable_by_key(|(pc, _, _)| *pc);
        // (mass, message) per proven group, heaviest first.
        let mut findings: Vec<(u64, String)> = Vec::new();
        for table in &spec.tables {
            let mut groups: std::collections::HashMap<u64, Vec<usize>> =
                std::collections::HashMap::new();
            for (position, &(pc, _, _)) in branches.iter().enumerate() {
                groups
                    .entry(table.pc_image(pc.word_index()))
                    .or_default()
                    .push(position);
            }
            for members in groups.values() {
                // Heaviest taken-majority and not-taken-majority members.
                let mut best: [Option<(u64, sdbp_trace::BranchAddr)>; 2] = [None, None];
                for &position in members {
                    let (pc, executed, taken) = branches[position];
                    let side = usize::from(taken * 2 < executed);
                    if best[side].is_none_or(|(mass, _)| executed > mass) {
                        best[side] = Some((executed, pc));
                    }
                }
                if let (Some((mass_t, pc_t)), Some((mass_n, pc_n))) = (best[0], best[1]) {
                    findings.push((
                        mass_t + mass_n,
                        format!(
                            "bank {}: {pc_t} (mostly taken, {mass_t} executions) and \
                             {pc_n} (mostly not taken, {mass_n} executions) are \
                             proven to share one entry at every history",
                            table.bank
                        ),
                    ));
                }
            }
        }
        findings.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for (_, message) in findings.into_iter().take(options.top_pairs) {
            diags.push(
                Diagnostic::note(codes::PROVEN_ALIASING_PAIR, message)
                    .with_span(Span::field(origin, "profile"))
                    .with_suggestion(
                        "a static hint for either branch removes the proven aliasing \
                         (scheme static_collide selects these automatically)",
                    ),
            );
        }
    }

    (Some(facts), diags)
}

/// Renders the structural facts of one analyzed spec (SDBP060/061/062) —
/// the profile-free half of [`lint_index_analysis`], usable on facts
/// derived from any [`IndexSpec`](sdbp_predictors::IndexSpec), including
/// hand-built ones.
pub fn lint_facts(facts: &SpecFacts, origin: &str) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let span = || Span::field(origin, "predictor");

    // SDBP060: every table of a real predictor indexes with far fewer bits
    // than the modeled PC width, so A always has a kernel — the note states
    // the proven class structure rather than flagging an anomaly.
    for table in &facts.tables {
        let kernel_dim = facts.modeled_pc_bits - table.pc_rank;
        diags.push(
            Diagnostic::note(
                codes::GUARANTEED_COLLISION_CLASSES,
                format!(
                    "bank {}: branch addresses fall into guaranteed-collision \
                     classes of 2^{kernel_dim} word indices ({} of {} modeled \
                     PC bits reach the {}-bit index)",
                    table.bank, table.pc_rank, facts.modeled_pc_bits, table.index_bits
                ),
            )
            .with_span(span()),
        );
    }

    // SDBP061: register bits shifted but provably never used.
    let dead = facts.dead_history_bits();
    if dead != 0 {
        diags.push(
            Diagnostic::note(
                codes::DEAD_HISTORY_BITS,
                format!(
                    "{} of the {} history bits (mask {dead:#x}) provably never \
                     reach any table index",
                    dead.count_ones(),
                    facts.history_bits
                ),
            )
            .with_span(span())
            .with_suggestion("shorten the history register or rewire the dead bits"),
        );
    }

    // SDBP062: part of the table is provably unreachable.
    for table in &facts.tables {
        if table.joint_rank < table.index_bits {
            diags.push(
                Diagnostic::note(
                    codes::RANK_DEFICIENT_TABLE,
                    format!(
                        "bank {}: only 2^{} of the 2^{} entries are reachable \
                         (rank-deficient index function)",
                        table.bank, table.joint_rank, table.index_bits
                    ),
                )
                .with_span(span()),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::PredictorKind;
    use sdbp_trace::{BranchAddr, SiteStats};

    fn config(kind: PredictorKind, size: usize) -> PredictorConfig {
        PredictorConfig::new(kind, size).unwrap()
    }

    fn codes_of(diags: &Diagnostics) -> Vec<u16> {
        diags.iter().map(|d| d.code.0).collect()
    }

    #[test]
    fn linear_predictor_reports_collision_classes() {
        // gshare 1KB: 12 of 32 modeled PC bits reach the index, so the
        // collision classes have 2^20 members — one SDBP060 note, nothing
        // else without a profile.
        let (facts, diags) = lint_index_analysis(
            None,
            config(PredictorKind::Gshare, 1024),
            &IndexAnalysisOptions::default(),
            "<t>",
        );
        let facts = facts.unwrap();
        assert_eq!(facts.tables[0].pc_rank, 12);
        assert_eq!(codes_of(&diags), [60]);
        assert!(diags.iter().next().unwrap().message.contains("2^20"));
        assert!(diags.is_clean(), "all findings are notes");
        assert!(diags.passes(true), "notes survive --deny-warnings");
    }

    #[test]
    fn bimode_reports_one_class_note_per_bank() {
        let (facts, diags) = lint_index_analysis(
            None,
            config(PredictorKind::BiMode, 4096),
            &IndexAnalysisOptions::default(),
            "<t>",
        );
        assert_eq!(facts.unwrap().tables.len(), 3);
        assert_eq!(codes_of(&diags), [60, 60, 60]);
    }

    #[test]
    fn sampled_only_and_opaque_get_distinct_sdbp064_notes() {
        let (facts, diags) = lint_index_analysis(
            None,
            config(PredictorKind::Perceptron, 4096),
            &IndexAnalysisOptions::default(),
            "<t>",
        );
        assert!(facts.is_none());
        assert_eq!(codes_of(&diags), [64]);
        let d = diags.iter().next().unwrap();
        assert!(d.message.contains("non-linearly"), "{}", d.message);
        assert!(d.notes[0].contains("--aliasing"), "{:?}", d.notes);

        let (facts, diags) = lint_index_analysis(
            None,
            config(PredictorKind::TwoBcGskew, 4096),
            &IndexAnalysisOptions::default(),
            "<t>",
        );
        assert!(facts.is_none());
        assert_eq!(codes_of(&diags), [64]);
        let d = diags.iter().next().unwrap();
        assert!(d.message.contains("does not expose"), "{}", d.message);
        assert!(d.notes.is_empty(), "no sampled fallback to point at");
    }

    #[test]
    fn opposing_congruent_branches_are_a_proven_pair() {
        // 64-byte bimodal = 256 entries; word indices 256 apart collide.
        let mut profile = BiasProfile::new();
        let stride = 256u64 * 4;
        profile.insert(
            BranchAddr(0x1000),
            SiteStats {
                executed: 1000,
                taken: 1000,
            },
        );
        profile.insert(
            BranchAddr(0x1000 + stride),
            SiteStats {
                executed: 800,
                taken: 0,
            },
        );
        profile.insert(
            BranchAddr(0x1000 + 8),
            SiteStats {
                executed: 500,
                taken: 500,
            },
        ); // private entry, taken-only: no pair
        let (_, diags) = lint_index_analysis(
            Some(&profile),
            config(PredictorKind::Bimodal, 64),
            &IndexAnalysisOptions::default(),
            "<t>",
        );
        assert_eq!(codes_of(&diags), [60, 63]);
        let pair = diags.iter().last().unwrap();
        assert!(pair.message.contains("0x1000"), "{}", pair.message);
        assert!(pair.message.contains("every history"), "{}", pair.message);
    }

    #[test]
    fn pair_notes_are_capped_and_ordered_by_mass() {
        let mut profile = BiasProfile::new();
        let stride = 256u64 * 4;
        for pair in 0u64..5 {
            let base = 0x1000 + pair * 8;
            let executed = 100 * (pair + 1);
            profile.insert(
                BranchAddr(base),
                SiteStats {
                    executed,
                    taken: executed,
                },
            );
            profile.insert(BranchAddr(base + stride), SiteStats { executed, taken: 0 });
        }
        let (_, diags) = lint_index_analysis(
            Some(&profile),
            config(PredictorKind::Bimodal, 64),
            &IndexAnalysisOptions { top_pairs: 2 },
            "<t>",
        );
        assert_eq!(codes_of(&diags), [60, 63, 63]);
        let messages: Vec<&str> = diags.iter().skip(1).map(|d| d.message.as_str()).collect();
        // Heaviest pair (executed 500 each) first.
        assert!(messages[0].contains("500 executions"), "{}", messages[0]);
        assert!(messages[1].contains("400 executions"), "{}", messages[1]);
    }

    #[test]
    fn synthetic_dead_bits_and_rank_deficiency_render() {
        // A hand-built 2-bit table where history bit 1's column is zero:
        // one dead history bit, and only half the entries reachable.
        use sdbp_predictors::{IndexSpec, TableSpec, MODELED_PC_BITS};
        let spec = IndexSpec {
            history_bits: 2,
            tables: vec![TableSpec {
                bank: 0,
                index_bits: 2,
                constant: 0,
                pc_columns: vec![0; MODELED_PC_BITS as usize],
                hist_columns: vec![0b01, 0b00],
            }],
        };
        let diags = lint_facts(&sdbp_index_analysis::analyze(&spec), "<t>");
        assert_eq!(codes_of(&diags), [60, 61, 62]);
        let rendered = diags.render_text();
        assert!(rendered.contains("mask 0x2"), "{rendered}");
        assert!(rendered.contains("only 2^1 of the 2^2"), "{rendered}");
        assert!(diags.passes(true), "still notes only");
    }

    #[test]
    fn synthetic_rank_deficiency_is_out_of_reach_for_stock_configs() {
        // Every stock linear configuration is full rank with no dead
        // history bits: SDBP061/062 stay silent across the whole sweep.
        for (kind, size) in [
            (PredictorKind::Bimodal, 1024),
            (PredictorKind::Ghist, 1024),
            (PredictorKind::Gshare, 1024),
            (PredictorKind::Gselect, 1024),
            (PredictorKind::BiMode, 4096),
        ] {
            let (_, diags) = lint_index_analysis(
                None,
                config(kind, size),
                &IndexAnalysisOptions::default(),
                "<t>",
            );
            assert!(
                codes_of(&diags).iter().all(|c| *c == 60),
                "{kind}: {}",
                diags.render_text()
            );
        }
    }
}
