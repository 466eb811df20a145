//! Per-branch dynamic-predictor accuracy profiles.

use sdbp_predictors::{DynamicPredictor, Prediction};
use sdbp_trace::{BranchAddr, BranchEvent, BranchSource, PcMap};

/// Per-branch prediction accuracy of a specific dynamic predictor.
///
/// The paper's `Static_Acc` scheme needs, for every branch, the accuracy the
/// *target dynamic predictor* achieves on it — obtained by actually
/// simulating the predictor over a profiling run (the paper collected the
/// same data with Atom instrumentation or ProfileMe). A branch whose bias
/// exceeds this accuracy is better served by a static hint.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::Bimodal;
/// use sdbp_profiles::AccuracyProfile;
/// use sdbp_trace::{BranchAddr, BranchEvent, SliceSource};
///
/// let events: Vec<BranchEvent> = (0..100)
///     .map(|i| BranchEvent::new(BranchAddr(0x40), i % 2 == 0, 0))
///     .collect();
/// let mut predictor = Bimodal::new(64);
/// let profile = AccuracyProfile::collect(SliceSource::new(&events), &mut predictor);
/// // A strictly alternating branch defeats a bimodal predictor.
/// assert!(profile.accuracy(BranchAddr(0x40)).unwrap() < 0.6);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccuracyProfile {
    sites: PcMap<SiteAccuracy>,
}

/// Per-site counters backing [`AccuracyProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteAccuracy {
    /// Times the branch was executed (and predicted).
    pub executed: u64,
    /// Times the dynamic prediction was correct.
    pub correct: u64,
    /// Times a table lookup for this branch aliased with another branch AND
    /// the prediction came out wrong — the branch's involvement in
    /// *destructive* collisions. Feeds the collision-aware selection scheme
    /// (the paper's §5 "we plan to explore this" idea).
    pub destructive_collisions: u64,
}

impl SiteAccuracy {
    /// The accuracy; `0.0` when never executed.
    pub fn rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.correct as f64 / self.executed as f64
        }
    }

    /// Fraction of executions involved in a destructive collision.
    pub fn destructive_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.destructive_collisions as f64 / self.executed as f64
        }
    }
}

impl AccuracyProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates `predictor` over `source`, recording per-branch accuracy.
    ///
    /// The predictor runs exactly as it would in a pure dynamic
    /// configuration: every branch is looked up, trained, and shifted into
    /// the history.
    pub fn collect<S, P>(source: S, predictor: &mut P) -> Self
    where
        S: BranchSource,
        P: DynamicPredictor + ?Sized,
    {
        let mut pass = crate::passes::AccuracyPass::new(predictor);
        sdbp_passes::PassRunner::new().run(source, &mut [&mut pass]);
        pass.into_profile()
    }

    /// Records one predicted branch execution.
    ///
    /// This is the per-event accumulation step behind [`collect`]
    /// (and [`AccuracyPass`](crate::AccuracyPass)): `pred` must be the
    /// prediction the dynamic predictor produced for `event` *before* being
    /// trained on its outcome.
    ///
    /// [`collect`]: AccuracyProfile::collect
    pub fn record_prediction(&mut self, event: &BranchEvent, pred: Prediction) {
        let s = self.sites.entry(event.pc).or_default();
        s.executed += 1;
        s.correct += u64::from(pred.taken == event.taken);
        s.destructive_collisions += u64::from(pred.collision && pred.taken != event.taken);
    }

    /// Accuracy of one branch, if it was observed.
    pub fn accuracy(&self, pc: BranchAddr) -> Option<f64> {
        self.sites.get(&pc).map(|s| s.rate())
    }

    /// Inserts or replaces the counters of one site (used by the artifact
    /// codec and by tests).
    pub fn insert(&mut self, pc: BranchAddr, counters: SiteAccuracy) {
        self.sites.insert(pc, counters);
    }

    /// Raw counters of one branch.
    pub fn site(&self, pc: BranchAddr) -> Option<&SiteAccuracy> {
        self.sites.get(&pc)
    }

    /// Number of distinct branches observed.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates over `(pc, counters)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchAddr, &SiteAccuracy)> {
        self.sites.iter().map(|(pc, s)| (*pc, s))
    }

    /// Overall accuracy across all branches.
    pub fn overall(&self) -> f64 {
        let executed: u64 = self.sites.values().map(|s| s.executed).sum();
        if executed == 0 {
            return 0.0;
        }
        let correct: u64 = self.sites.values().map(|s| s.correct).sum();
        correct as f64 / executed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::{Bimodal, Ghist};
    use sdbp_trace::{BranchEvent, SliceSource};

    fn alternating(pc: u64, n: usize) -> Vec<BranchEvent> {
        (0..n)
            .map(|i| BranchEvent::new(BranchAddr(pc), i % 2 == 0, 0))
            .collect()
    }

    fn biased(pc: u64, n: usize) -> Vec<BranchEvent> {
        (0..n)
            .map(|i| BranchEvent::new(BranchAddr(pc), i % 10 != 9, 0))
            .collect()
    }

    #[test]
    fn bimodal_fails_alternation_ghist_nails_it() {
        let events = alternating(0x40, 2000);
        let mut bim = Bimodal::new(256);
        let pa = AccuracyProfile::collect(SliceSource::new(&events), &mut bim);
        assert!(pa.accuracy(BranchAddr(0x40)).unwrap() < 0.6);

        let mut gh = Ghist::new(256);
        let pg = AccuracyProfile::collect(SliceSource::new(&events), &mut gh);
        assert!(pg.accuracy(BranchAddr(0x40)).unwrap() > 0.95);
    }

    #[test]
    fn biased_branch_accuracy_tracks_bias() {
        let events = biased(0x40, 5000);
        let mut bim = Bimodal::new(256);
        let p = AccuracyProfile::collect(SliceSource::new(&events), &mut bim);
        let acc = p.accuracy(BranchAddr(0x40)).unwrap();
        assert!((acc - 0.9).abs() < 0.02, "accuracy {acc}");
    }

    #[test]
    fn overall_weights_by_execution() {
        let mut events = biased(0x40, 900);
        events.extend(alternating(0x80, 100));
        let mut bim = Bimodal::new(1024);
        let p = AccuracyProfile::collect(SliceSource::new(&events), &mut bim);
        assert_eq!(p.len(), 2);
        let overall = p.overall();
        let a = p.accuracy(BranchAddr(0x40)).unwrap();
        let b = p.accuracy(BranchAddr(0x80)).unwrap();
        let expected = (a * 900.0 + b * 100.0) / 1000.0;
        assert!((overall - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_defaults() {
        let p = AccuracyProfile::new();
        assert!(p.is_empty());
        assert_eq!(p.overall(), 0.0);
        assert!(p.accuracy(BranchAddr(0)).is_none());
        assert_eq!(SiteAccuracy::default().rate(), 0.0);
    }

    #[test]
    fn works_through_dyn_trait() {
        let events = biased(0x10, 100);
        let mut boxed: Box<dyn sdbp_predictors::DynamicPredictor> = Box::new(Bimodal::new(64));
        let p = AccuracyProfile::collect(SliceSource::new(&events), boxed.as_mut());
        assert_eq!(p.len(), 1);
    }
}
