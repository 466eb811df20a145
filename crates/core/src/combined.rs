//! The combined static + dynamic predictor.

use sdbp_predictors::{AnyPredictor, DynamicPredictor};
use sdbp_profiles::HintDatabase;
use sdbp_trace::BranchAddr;
use std::fmt;

/// Whether statically predicted branches shift their outcomes into the
/// dynamic predictor's global history register.
///
/// The paper (§4, Table 4) found this choice matters: keeping the outcomes
/// in the history preserves the correlation context other branches depend
/// on, while dropping them changes (and sometimes improves) the aliasing
/// pattern. It proposes controlling it per application with an
/// architectural flag — which is exactly what this enum is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShiftPolicy {
    /// Statically predicted branches do not touch the history register.
    #[default]
    NoShift,
    /// Their outcomes are shifted in (tables remain untouched).
    Shift,
}

impl ShiftPolicy {
    /// The label used in Table 4.
    pub fn label(self) -> &'static str {
        match self {
            ShiftPolicy::NoShift => "no-shift",
            ShiftPolicy::Shift => "shift",
        }
    }
}

impl fmt::Display for ShiftPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How one branch was resolved by the combined predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchResolution {
    /// The direction predicted.
    pub predicted_taken: bool,
    /// Whether a static hint supplied the prediction.
    pub was_static: bool,
    /// Whether any dynamic table lookup collided (always `false` for
    /// statically predicted branches — they perform no lookups).
    pub collision: bool,
}

/// A dynamic predictor fronted by a static hint database.
///
/// Per branch: if the hint database holds an entry for the PC, the hint bit
/// is the prediction and the dynamic predictor is **neither probed nor
/// trained** — that is how static prediction relieves aliasing pressure.
/// Otherwise the dynamic predictor predicts and trains on the branch through
/// its `predict_update`.
///
/// # Examples
///
/// ```
/// use sdbp_core::{CombinedPredictor, ShiftPolicy};
/// use sdbp_predictors::Gshare;
/// use sdbp_profiles::HintDatabase;
/// use sdbp_trace::{BranchAddr, BranchEvent};
///
/// let mut hints = HintDatabase::new();
/// hints.insert(BranchAddr(0x10), true);
/// let mut combined = CombinedPredictor::new(
///     Box::new(Gshare::new(1024)),
///     hints,
///     ShiftPolicy::NoShift,
/// );
/// let r = combined.resolve(&BranchEvent::new(BranchAddr(0x10), false, 0));
/// assert!(r.was_static);
/// assert!(r.predicted_taken, "the hint says taken, even though it missed");
/// ```
pub struct CombinedPredictor {
    dynamic: AnyPredictor,
    hints: HintDatabase,
    shift_policy: ShiftPolicy,
    /// Reused per-batch scratch for [`CombinedPredictor::resolve_batch`].
    scratch: Vec<sdbp_predictors::Prediction>,
}

impl CombinedPredictor {
    /// Combines a dynamic predictor with static hints.
    ///
    /// Accepts anything convertible into [`AnyPredictor`]: a concrete
    /// predictor (plain or boxed — so `Box::new(Gshare::new(..))` call sites
    /// keep working, now unboxed into static dispatch), an [`AnyPredictor`]
    /// from [`sdbp_predictors::PredictorConfig::build_any`], or a
    /// `Box<dyn DynamicPredictor>` for user-defined schemes (which stay
    /// virtually dispatched through the `Custom` escape hatch).
    pub fn new(
        dynamic: impl Into<AnyPredictor>,
        hints: HintDatabase,
        shift_policy: ShiftPolicy,
    ) -> Self {
        Self {
            dynamic: dynamic.into(),
            hints,
            shift_policy,
            scratch: Vec::new(),
        }
    }

    /// A pure dynamic configuration (empty hint database).
    pub fn pure_dynamic(dynamic: impl Into<AnyPredictor>) -> Self {
        Self::new(dynamic, HintDatabase::new(), ShiftPolicy::NoShift)
    }

    /// The dynamic component's scheme name.
    pub fn dynamic_name(&self) -> &'static str {
        self.dynamic.name()
    }

    /// The dynamic component's size in bytes.
    pub fn dynamic_size_bytes(&self) -> usize {
        self.dynamic.size_bytes()
    }

    /// The hint database.
    pub fn hints(&self) -> &HintDatabase {
        &self.hints
    }

    /// The configured shift policy.
    pub fn shift_policy(&self) -> ShiftPolicy {
        self.shift_policy
    }

    /// Total dynamic-table collisions observed so far.
    pub fn total_collisions(&self) -> u64 {
        self.dynamic.total_collisions()
    }

    /// Predicts and trains for one resolved branch, returning how it was
    /// handled. This is the per-branch hot path of the whole system: the
    /// dynamic component is enum-dispatched, so for the built-in predictors
    /// `predict_update` resolves statically instead of through a vtable.
    #[inline]
    pub fn resolve(&mut self, event: &sdbp_trace::BranchEvent) -> BranchResolution {
        // Pure-dynamic configurations (empty hint database) are the common
        // hot case; skip the per-branch hash probe entirely for them.
        let hint = if self.hints.is_empty() {
            None
        } else {
            self.hints.get(event.pc)
        };
        match hint {
            Some(hint_taken) => {
                if self.shift_policy == ShiftPolicy::Shift {
                    self.dynamic.shift_history(event.taken);
                }
                BranchResolution {
                    predicted_taken: hint_taken,
                    was_static: true,
                    collision: false,
                }
            }
            None => {
                let pred = self.dynamic.predict_update(event.pc, event.taken);
                BranchResolution {
                    predicted_taken: pred.taken,
                    was_static: false,
                    collision: pred.collision,
                }
            }
        }
    }

    /// Batched [`CombinedPredictor::resolve`]: appends one resolution per
    /// event to `out`, in order, with identical observable behavior.
    ///
    /// Pure-dynamic configurations hand the whole batch to the dynamic
    /// predictor's [`DynamicPredictor::predict_update_batch`], whose
    /// hot-scheme overrides keep loop-carried state in registers across the
    /// batch. Hinted configurations need the per-branch static/dynamic
    /// decision and take the per-event path.
    pub fn resolve_batch(
        &mut self,
        events: &[sdbp_trace::BranchEvent],
        out: &mut Vec<BranchResolution>,
    ) {
        match self.try_resolve_batch_dynamic(events) {
            Some(predictions) => out.extend(predictions.iter().map(|p| BranchResolution {
                predicted_taken: p.taken,
                was_static: false,
                collision: p.collision,
            })),
            None => out.extend(events.iter().map(|e| self.resolve(e))),
        }
    }

    /// The pure-dynamic batch fast path: resolves `events` and returns the
    /// raw predictions, or `None` when static hints are configured (every
    /// prediction returned is dynamic by construction — the caller may treat
    /// `was_static` as false without inspecting anything). The returned
    /// slice lives in an internal scratch buffer reused across calls.
    pub fn try_resolve_batch_dynamic(
        &mut self,
        events: &[sdbp_trace::BranchEvent],
    ) -> Option<&[sdbp_predictors::Prediction]> {
        if !self.hints.is_empty() {
            return None;
        }
        self.scratch.clear();
        self.dynamic.predict_update_batch(events, &mut self.scratch);
        Some(&self.scratch)
    }

    /// Consumes the combined predictor, returning the dynamic component
    /// (e.g. to inspect collision counters after a run).
    pub fn into_dynamic(self) -> Box<dyn DynamicPredictor> {
        self.dynamic.into_boxed()
    }
}

impl fmt::Debug for CombinedPredictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CombinedPredictor")
            .field("dynamic", &self.dynamic.name())
            .field("size_bytes", &self.dynamic.size_bytes())
            .field("hints", &self.hints.len())
            .field("shift_policy", &self.shift_policy)
            .finish()
    }
}

/// Convenience: test whether a pc is statically predicted.
impl CombinedPredictor {
    /// Whether `pc` would be resolved statically.
    pub fn is_static(&self, pc: BranchAddr) -> bool {
        self.hints.contains(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::{Bimodal, Ghist};
    use sdbp_trace::BranchEvent;

    fn ev(pc: u64, taken: bool) -> BranchEvent {
        BranchEvent::new(BranchAddr(pc), taken, 0)
    }

    #[test]
    fn static_branches_bypass_dynamic_tables() {
        let mut hints = HintDatabase::new();
        hints.insert(BranchAddr(0x10), false);
        let mut c = CombinedPredictor::new(Box::new(Bimodal::new(64)), hints, ShiftPolicy::NoShift);
        // Resolve the hinted branch many times taken: a bimodal would learn
        // taken, but the static hint must keep saying not-taken and the
        // tables must stay cold.
        for _ in 0..10 {
            let r = c.resolve(&ev(0x10, true));
            assert!(r.was_static);
            assert!(!r.predicted_taken);
            assert!(!r.collision);
        }
        assert_eq!(c.total_collisions(), 0);
        // A different branch mapping to the same counter must see a cold
        // (not trained-up) entry: resolve dynamically and observe weak
        // not-taken initial prediction.
        let r = c.resolve(&ev(0x10 + 64 * 4, true));
        assert!(!r.was_static);
        assert!(
            !r.predicted_taken,
            "table was never trained by the static branch"
        );
    }

    #[test]
    fn dynamic_branches_flow_through() {
        let mut c = CombinedPredictor::pure_dynamic(Box::new(Bimodal::new(64)));
        for _ in 0..4 {
            let r = c.resolve(&ev(0x20, true));
            assert!(!r.was_static);
        }
        let r = c.resolve(&ev(0x20, true));
        assert!(r.predicted_taken, "bimodal learned the branch");
    }

    #[test]
    fn shift_policy_feeds_history() {
        // Branch A is static; branch B's outcome equals A's last outcome.
        // With Shift, a ghist predictor can still correlate on A.
        let run = |policy: ShiftPolicy| -> u64 {
            let mut hints = HintDatabase::new();
            hints.insert(BranchAddr(0x100), true);
            let mut c = CombinedPredictor::new(Box::new(Ghist::new(256)), hints, policy);
            let mut mispredicts = 0;
            let mut state = 0x9e3779b97f4a7c15u64;
            for i in 0..4000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a_outcome = (state >> 40) & 1 == 1;
                let _ = c.resolve(&ev(0x100, a_outcome));
                let r = c.resolve(&ev(0x200, a_outcome));
                if i >= 2000 && r.predicted_taken != a_outcome {
                    mispredicts += 1;
                }
            }
            mispredicts
        };
        let with_shift = run(ShiftPolicy::Shift);
        let without = run(ShiftPolicy::NoShift);
        assert!(
            with_shift * 4 < without.max(1),
            "shift {with_shift} vs no-shift {without}: shifting must preserve correlation"
        );
    }

    #[test]
    fn accessors_report_configuration() {
        let mut hints = HintDatabase::new();
        hints.insert(BranchAddr(0x10), true);
        let c = CombinedPredictor::new(Box::new(Bimodal::new(128)), hints, ShiftPolicy::Shift);
        assert_eq!(c.dynamic_name(), "bimodal");
        assert_eq!(c.dynamic_size_bytes(), 128);
        assert_eq!(c.shift_policy(), ShiftPolicy::Shift);
        assert!(c.is_static(BranchAddr(0x10)));
        assert!(!c.is_static(BranchAddr(0x14)));
        assert_eq!(c.hints().len(), 1);
        let debug = format!("{c:?}");
        assert!(debug.contains("bimodal"));
        let dynamic = c.into_dynamic();
        assert_eq!(dynamic.size_bytes(), 128);
    }

    #[test]
    fn shift_policy_labels() {
        assert_eq!(ShiftPolicy::NoShift.to_string(), "no-shift");
        assert_eq!(ShiftPolicy::Shift.to_string(), "shift");
        assert_eq!(ShiftPolicy::default(), ShiftPolicy::NoShift);
    }
}
