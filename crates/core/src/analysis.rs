//! Per-branch misprediction analysis.
//!
//! The paper's selection schemes are built on knowing *which* branches a
//! predictor gets wrong; [`BranchAnalysis`] exposes that view to users —
//! run it over any configuration and ask for the top misprediction
//! contributors, the equivalent of the profiling a performance engineer
//! would do before adding hints by hand.

use crate::combined::CombinedPredictor;
use crate::metrics::SimStats;
use crate::simulator::Simulator;
use sdbp_trace::{BranchAddr, BranchSource, PcMap};

/// Per-branch counters from one analyzed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchRecord {
    /// Times the branch was executed.
    pub executed: u64,
    /// Times it was mispredicted.
    pub mispredicted: u64,
    /// Times it was resolved by a static hint.
    pub static_predicted: u64,
    /// Times a dynamic lookup for it collided.
    pub collisions: u64,
}

impl BranchRecord {
    /// Misprediction rate; `0.0` if never executed.
    pub fn misprediction_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.executed as f64
        }
    }
}

/// A per-branch breakdown of a simulation run.
///
/// # Examples
///
/// ```
/// use sdbp_core::{BranchAnalysis, CombinedPredictor};
/// use sdbp_predictors::Gshare;
/// use sdbp_trace::BranchSource;
/// use sdbp_workloads::{Benchmark, InputSet, Workload};
///
/// let source = Workload::spec95(Benchmark::Compress)
///     .generator(InputSet::Ref, 1)
///     .take_instructions(200_000);
/// let mut predictor = CombinedPredictor::pure_dynamic(Box::new(Gshare::new(1024)));
/// let analysis = BranchAnalysis::run(source, &mut predictor);
/// let top = analysis.top_mispredictors(5);
/// assert!(top.len() <= 5);
/// assert!(analysis.stats().branches > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BranchAnalysis {
    stats: SimStats,
    branches: PcMap<BranchRecord>,
}

impl BranchAnalysis {
    /// Simulates `source` through `predictor`, recording per-branch detail.
    pub fn run<S: BranchSource>(source: S, predictor: &mut CombinedPredictor) -> Self {
        let mut branches: PcMap<BranchRecord> = PcMap::default();
        let stats = Simulator::new().run_with_observer(source, predictor, |event, res| {
            let r = branches.entry(event.pc).or_default();
            r.executed += 1;
            r.mispredicted += u64::from(res.predicted_taken != event.taken);
            r.static_predicted += u64::from(res.was_static);
            r.collisions += u64::from(res.collision);
        });
        Self { stats, branches }
    }

    /// The aggregate run statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Per-branch record, if the branch executed.
    pub fn branch(&self, pc: BranchAddr) -> Option<&BranchRecord> {
        self.branches.get(&pc)
    }

    /// Number of distinct branches observed.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// The `n` branches contributing the most total mispredictions, sorted
    /// descending (ties broken by address for determinism).
    pub fn top_mispredictors(&self, n: usize) -> Vec<(BranchAddr, BranchRecord)> {
        let mut all: Vec<(BranchAddr, BranchRecord)> =
            self.branches.iter().map(|(pc, r)| (*pc, *r)).collect();
        all.sort_unstable_by(|a, b| b.1.mispredicted.cmp(&a.1.mispredicted).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Fraction of all mispredictions attributable to the top `n` branches —
    /// a skewness measure: when it is high, a few static hints go a long way.
    pub fn misprediction_concentration(&self, n: usize) -> f64 {
        if self.stats.mispredictions == 0 {
            return 0.0;
        }
        let top: u64 = self
            .top_mispredictors(n)
            .iter()
            .map(|(_, r)| r.mispredicted)
            .sum();
        top as f64 / self.stats.mispredictions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::Bimodal;
    use sdbp_trace::{BranchEvent, SliceSource};

    fn events() -> Vec<BranchEvent> {
        let mut v = Vec::new();
        for i in 0..400 {
            // 0x10: alternating (hard); 0x20: always taken (easy).
            v.push(BranchEvent::new(BranchAddr(0x10), i % 2 == 0, 1));
            v.push(BranchEvent::new(BranchAddr(0x20), true, 1));
        }
        v
    }

    #[test]
    fn identifies_the_hard_branch() {
        let mut p = CombinedPredictor::pure_dynamic(Box::new(Bimodal::new(256)));
        let analysis = BranchAnalysis::run(SliceSource::new(&events()), &mut p);
        assert_eq!(analysis.len(), 2);
        let top = analysis.top_mispredictors(1);
        assert_eq!(
            top[0].0,
            BranchAddr(0x10),
            "the alternating branch dominates"
        );
        assert!(top[0].1.misprediction_rate() > 0.4);
        let easy = analysis.branch(BranchAddr(0x20)).unwrap();
        assert!(easy.misprediction_rate() < 0.05);
    }

    #[test]
    fn per_branch_counts_sum_to_aggregate() {
        let mut p = CombinedPredictor::pure_dynamic(Box::new(Bimodal::new(256)));
        let analysis = BranchAnalysis::run(SliceSource::new(&events()), &mut p);
        let executed: u64 = analysis
            .top_mispredictors(usize::MAX)
            .iter()
            .map(|(_, r)| r.executed)
            .sum();
        let mispredicted: u64 = analysis
            .top_mispredictors(usize::MAX)
            .iter()
            .map(|(_, r)| r.mispredicted)
            .sum();
        assert_eq!(executed, analysis.stats().branches);
        assert_eq!(mispredicted, analysis.stats().mispredictions);
    }

    #[test]
    fn concentration_is_a_fraction_and_monotone() {
        let mut p = CombinedPredictor::pure_dynamic(Box::new(Bimodal::new(256)));
        let analysis = BranchAnalysis::run(SliceSource::new(&events()), &mut p);
        let c1 = analysis.misprediction_concentration(1);
        let c2 = analysis.misprediction_concentration(2);
        assert!((0.0..=1.0).contains(&c1));
        assert!(c2 >= c1);
        assert!((c2 - 1.0).abs() < 1e-12, "two branches cover everything");
    }

    #[test]
    fn empty_run_is_empty() {
        let mut p = CombinedPredictor::pure_dynamic(Box::new(Bimodal::new(64)));
        let analysis = BranchAnalysis::run(SliceSource::new(&[]), &mut p);
        assert!(analysis.is_empty());
        assert_eq!(analysis.misprediction_concentration(10), 0.0);
        assert!(analysis.top_mispredictors(3).is_empty());
    }
}
