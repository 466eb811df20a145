//! Profile collectors as streaming [`Pass`]es.
//!
//! [`BiasPass`] and [`AccuracyPass`] are the pass-framework forms of
//! [`BiasProfile::from_source`] and [`AccuracyProfile::collect`]; the
//! classic entry points are now thin wrappers that run one pass through a
//! [`PassRunner`](sdbp_passes::PassRunner). The passes exist so callers can
//! *fuse* profile collection: one traversal of a run can feed the bias pass
//! and any number of accuracy passes (one per predictor configuration)
//! simultaneously — where the sequential API would regenerate or re-read
//! the stream once per profile.

use crate::accuracy::AccuracyProfile;
use crate::bias::BiasProfile;
use sdbp_passes::Pass;
use sdbp_predictors::{DynamicPredictor, Prediction};
use sdbp_trace::BranchEvent;

/// A [`Pass`] accumulating a [`BiasProfile`].
///
/// Chunk-invariant by construction: each event updates its site counters
/// independently.
///
/// ```
/// use sdbp_passes::PassRunner;
/// use sdbp_profiles::BiasPass;
/// use sdbp_trace::{BranchAddr, BranchEvent, SliceSource};
///
/// let events = [BranchEvent::new(BranchAddr(0x40), true, 0)];
/// let mut pass = BiasPass::new();
/// PassRunner::new().run(SliceSource::new(&events), &mut [&mut pass]);
/// assert_eq!(pass.into_profile().site(BranchAddr(0x40)).unwrap().taken, 1);
/// ```
#[derive(Debug, Default)]
pub struct BiasPass {
    profile: BiasProfile,
}

impl BiasPass {
    /// A pass starting from an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// The profile collected so far.
    pub fn profile(&self) -> &BiasProfile {
        &self.profile
    }

    /// Consumes the pass, returning the collected profile.
    pub fn into_profile(self) -> BiasProfile {
        self.profile
    }
}

impl Pass for BiasPass {
    fn consume(&mut self, events: &[BranchEvent]) {
        for e in events {
            self.profile.record(e);
        }
    }

    fn name(&self) -> &str {
        "bias-profile"
    }
}

/// A [`Pass`] accumulating an [`AccuracyProfile`] by simulating a borrowed
/// dynamic predictor over the stream.
///
/// The predictor runs exactly as it would in a pure dynamic configuration —
/// every branch is looked up, trained, and shifted into the history —
/// through the batched
/// [`predict_update_batch`](DynamicPredictor::predict_update_batch) kernel,
/// which is pinned bit-identical to the scalar `predict_update`.
///
/// ```
/// use sdbp_passes::PassRunner;
/// use sdbp_predictors::Bimodal;
/// use sdbp_profiles::AccuracyPass;
/// use sdbp_trace::{BranchAddr, BranchEvent, SliceSource};
///
/// let events: Vec<BranchEvent> = (0..100)
///     .map(|i| BranchEvent::new(BranchAddr(0x40), i % 2 == 0, 0))
///     .collect();
/// let mut predictor = Bimodal::new(64);
/// let mut pass = AccuracyPass::new(&mut predictor);
/// PassRunner::new().run(SliceSource::new(&events), &mut [&mut pass]);
/// assert!(pass.into_profile().accuracy(BranchAddr(0x40)).unwrap() < 0.6);
/// ```
pub struct AccuracyPass<'p, P: ?Sized> {
    predictor: &'p mut P,
    profile: AccuracyProfile,
    scratch: Vec<Prediction>,
}

impl<'p, P: DynamicPredictor + ?Sized> AccuracyPass<'p, P> {
    /// A pass simulating `predictor` from its current state.
    pub fn new(predictor: &'p mut P) -> Self {
        Self {
            predictor,
            profile: AccuracyProfile::new(),
            scratch: Vec::new(),
        }
    }

    /// Consumes the pass, returning the collected profile.
    pub fn into_profile(self) -> AccuracyProfile {
        self.profile
    }
}

impl<P: DynamicPredictor + ?Sized> Pass for AccuracyPass<'_, P> {
    fn consume(&mut self, events: &[BranchEvent]) {
        self.scratch.clear();
        self.predictor
            .predict_update_batch(events, &mut self.scratch);
        for (e, pred) in events.iter().zip(&self.scratch) {
            self.profile.record_prediction(e, *pred);
        }
    }

    fn name(&self) -> &str {
        "accuracy-profile"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_passes::PassRunner;
    use sdbp_predictors::{Bimodal, Gshare};
    use sdbp_trace::{BranchAddr, SliceSource};

    fn events(n: usize) -> Vec<BranchEvent> {
        (0..n)
            .map(|i| BranchEvent::new(BranchAddr(0x40 + (i as u64 % 9) * 4), i % 3 != 0, 1))
            .collect()
    }

    #[test]
    fn bias_pass_matches_from_source() {
        let events = events(500);
        let classic = BiasProfile::from_source(SliceSource::new(&events));
        let mut pass = BiasPass::new();
        PassRunner::new()
            .with_chunk(17)
            .run(SliceSource::new(&events), &mut [&mut pass]);
        assert_eq!(*pass.profile(), classic);
        assert_eq!(pass.into_profile(), classic);
    }

    #[test]
    fn accuracy_pass_matches_collect() {
        let events = events(2000);
        let mut fresh = Gshare::new(256);
        let classic = AccuracyProfile::collect(SliceSource::new(&events), &mut fresh);
        let mut predictor = Gshare::new(256);
        let mut pass = AccuracyPass::new(&mut predictor);
        PassRunner::new()
            .with_chunk(33)
            .run(SliceSource::new(&events), &mut [&mut pass]);
        assert_eq!(pass.into_profile(), classic);
    }

    #[test]
    fn fused_profiles_match_sequential_traversals() {
        let events = events(1500);
        let mut bias = BiasPass::new();
        let mut bimodal = Bimodal::new(128);
        let mut gshare = Gshare::new(128);
        let mut acc_a = AccuracyPass::new(&mut bimodal);
        let mut acc_b = AccuracyPass::new(&mut gshare);
        let stats = PassRunner::new().run(
            SliceSource::new(&events),
            &mut [&mut bias, &mut acc_a, &mut acc_b],
        );
        assert_eq!(stats.passes, 3);
        assert_eq!(stats.events, 1500);

        assert_eq!(
            bias.into_profile(),
            BiasProfile::from_source(SliceSource::new(&events))
        );
        assert_eq!(
            acc_a.into_profile(),
            AccuracyProfile::collect(SliceSource::new(&events), &mut Bimodal::new(128))
        );
        assert_eq!(
            acc_b.into_profile(),
            AccuracyProfile::collect(SliceSource::new(&events), &mut Gshare::new(128))
        );
    }

    #[test]
    fn accuracy_pass_works_through_dyn_predictor() {
        let events = events(100);
        let mut boxed: Box<dyn DynamicPredictor> = Box::new(Bimodal::new(64));
        let mut pass = AccuracyPass::new(boxed.as_mut());
        PassRunner::new().run(SliceSource::new(&events), &mut [&mut pass]);
        assert!(!pass.into_profile().is_empty());
    }
}
