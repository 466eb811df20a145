//! Simulation metrics.

use crate::combined::BranchResolution;
use sdbp_trace::BranchEvent;
use std::fmt;

/// Collision (aliasing) counts, split the way the paper classifies them:
/// a collision is *constructive* when the overall prediction was still
/// correct and *destructive* when it was not (the simplified Young-et-al.
/// definition from the paper's §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollisionStats {
    /// Lookups whose table entry was last used by a different branch.
    pub total: u64,
    /// Collisions on correctly predicted branches.
    pub constructive: u64,
    /// Collisions on mispredicted branches.
    pub destructive: u64,
}

impl CollisionStats {
    /// Fraction of collisions that were destructive; `0.0` with none.
    pub fn destructive_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.destructive as f64 / self.total as f64
        }
    }
}

/// Aggregate results of one simulation run.
///
/// # Examples
///
/// ```
/// use sdbp_core::SimStats;
///
/// let mut s = SimStats::default();
/// s.instructions = 10_000;
/// s.branches = 1_000;
/// s.mispredictions = 50;
/// assert!((s.misp_per_ki() - 5.0).abs() < 1e-12);
/// assert!((s.accuracy() - 0.95).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Retired instructions (branch + non-branch).
    pub instructions: u64,
    /// Executed conditional branches.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredictions: u64,
    /// Branches resolved by a static hint.
    pub static_predicted: u64,
    /// Mispredictions among the statically predicted.
    pub static_mispredictions: u64,
    /// Collision instrumentation of the dynamic tables.
    pub collisions: CollisionStats,
}

impl SimStats {
    /// Accounts one measured branch and its resolution — the paper's
    /// accounting rule, and the only place besides [`SimStats::merge`]
    /// that adds to the counters.
    ///
    /// A collision is classified constructive/destructive by whether the
    /// *final* prediction was correct, the paper's simplified variant of
    /// Young et al.'s taxonomy. Branchless, so a per-event loop carries no
    /// data-dependent branch on the (near-random) collision and static
    /// bits.
    ///
    /// ```
    /// use sdbp_core::{BranchResolution, SimStats};
    /// use sdbp_trace::{BranchAddr, BranchEvent};
    ///
    /// let mut s = SimStats::default();
    /// let event = BranchEvent::new(BranchAddr(0x40), true, 9);
    /// let missed = BranchResolution { predicted_taken: false, was_static: false, collision: true };
    /// s.record(&event, &missed);
    /// assert_eq!((s.instructions, s.branches, s.mispredictions), (10, 1, 1));
    /// assert_eq!(s.collisions.destructive, 1);
    /// ```
    #[inline]
    pub fn record(&mut self, event: &BranchEvent, resolution: &BranchResolution) {
        let correct = resolution.predicted_taken == event.taken;
        self.instructions += event.instructions();
        self.branches += 1;
        self.mispredictions += u64::from(!correct);
        self.static_predicted += u64::from(resolution.was_static);
        self.static_mispredictions += u64::from(resolution.was_static & !correct);
        self.collisions.total += u64::from(resolution.collision);
        self.collisions.constructive += u64::from(resolution.collision & correct);
        self.collisions.destructive += u64::from(resolution.collision & !correct);
    }

    /// Adds another run's (or chunk's) counts into this one, field by field.
    pub fn merge(&mut self, other: &SimStats) {
        self.instructions += other.instructions;
        self.branches += other.branches;
        self.mispredictions += other.mispredictions;
        self.static_predicted += other.static_predicted;
        self.static_mispredictions += other.static_mispredictions;
        self.collisions.total += other.collisions.total;
        self.collisions.constructive += other.collisions.constructive;
        self.collisions.destructive += other.collisions.destructive;
    }

    /// Mispredictions per thousand instructions — the paper's headline
    /// metric (its argument: unlike accuracy, it cannot be flattered by
    /// branch-sparse programs).
    pub fn misp_per_ki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredictions as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Conditional branches per thousand instructions (the MISPs/KI upper
    /// bound).
    pub fn cbrs_per_ki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branches as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Overall prediction accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            1.0 - self.mispredictions as f64 / self.branches as f64
        }
    }

    /// Fraction of dynamic branches resolved statically.
    pub fn static_fraction(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.static_predicted as f64 / self.branches as f64
        }
    }

    /// Accuracy of the statically predicted subset.
    pub fn static_accuracy(&self) -> f64 {
        if self.static_predicted == 0 {
            0.0
        } else {
            1.0 - self.static_mispredictions as f64 / self.static_predicted as f64
        }
    }

    /// Relative MISPs/KI improvement over a baseline, as the paper reports
    /// it: positive when `self` mispredicts less.
    ///
    /// Returns `0.0` when the baseline had no mispredictions.
    pub fn improvement_over(&self, baseline: &SimStats) -> f64 {
        let base = baseline.misp_per_ki();
        if base == 0.0 {
            0.0
        } else {
            (base - self.misp_per_ki()) / base
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} MISPs/KI ({:.2}% accuracy, {} branches, {} collisions)",
            self.misp_per_ki(),
            self.accuracy() * 100.0,
            self.branches,
            self.collisions.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(instr: u64, branches: u64, misp: u64) -> SimStats {
        SimStats {
            instructions: instr,
            branches,
            mispredictions: misp,
            ..SimStats::default()
        }
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SimStats::default();
        assert_eq!(s.misp_per_ki(), 0.0);
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.cbrs_per_ki(), 0.0);
        assert_eq!(s.static_fraction(), 0.0);
        assert_eq!(s.static_accuracy(), 0.0);
    }

    #[test]
    fn metric_definitions() {
        let s = stats(100_000, 12_000, 600);
        assert!((s.misp_per_ki() - 6.0).abs() < 1e-12);
        assert!((s.cbrs_per_ki() - 120.0).abs() < 1e-12);
        assert!((s.accuracy() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn improvement_is_relative_misp_reduction() {
        let base = stats(1000, 100, 20);
        let better = stats(1000, 100, 15);
        let worse = stats(1000, 100, 25);
        assert!((better.improvement_over(&base) - 0.25).abs() < 1e-12);
        assert!((worse.improvement_over(&base) + 0.25).abs() < 1e-12);
        let zero = stats(1000, 100, 0);
        assert_eq!(base.improvement_over(&zero), 0.0);
    }

    #[test]
    fn collision_classification() {
        let mut s = SimStats::default();
        let event = BranchEvent::new(sdbp_trace::BranchAddr(0x40), true, 0);
        for predicted_taken in [true, false, false] {
            let resolution = BranchResolution {
                predicted_taken,
                was_static: false,
                collision: true,
            };
            s.record(&event, &resolution);
        }
        let c = s.collisions;
        assert_eq!(c.total, 3);
        assert_eq!(c.constructive, 1);
        assert_eq!(c.destructive, 2);
        assert!((c.destructive_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CollisionStats::default().destructive_fraction(), 0.0);
    }

    #[test]
    fn static_subset_metrics() {
        let s = SimStats {
            instructions: 1000,
            branches: 100,
            mispredictions: 10,
            static_predicted: 40,
            static_mispredictions: 2,
            ..SimStats::default()
        };
        assert!((s.static_fraction() - 0.4).abs() < 1e-12);
        assert!((s.static_accuracy() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = stats(10_000, 1_000, 50);
        let text = s.to_string();
        assert!(text.contains("5.000 MISPs/KI"));
        assert!(text.contains("95.00%"));
    }
}
