//! Per-site and whole-trace statistics.
//!
//! [`TraceStats`] accumulates, per static branch site, execution and taken
//! counts, from which it derives the paper's characterization numbers:
//!
//! * *bias* of a branch — `max(taken, not-taken) / executed` (§4),
//! * dynamic CBRs/KI (Table 1),
//! * the dynamic fraction of highly biased branches (Table 2),
//! * the train-vs-ref behavioral comparison (Table 5) via
//!   [`TraceStats::compare`].

use crate::event::{BranchAddr, BranchEvent, PcMap};
use crate::source::BranchSource;

/// Execution statistics of one static branch site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteStats {
    /// Times the branch was executed.
    pub executed: u64,
    /// Times it was taken.
    pub taken: u64,
}

impl SiteStats {
    /// Fraction of executions that were taken; `0.0` if never executed.
    pub fn taken_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.taken as f64 / self.executed as f64
        }
    }

    /// The paper's *bias*: `max(taken-bias, not-taken-bias)`.
    ///
    /// Ranges over `[0.5, 1.0]` for executed branches; `0.0` if never
    /// executed.
    pub fn bias(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            let t = self.taken_rate();
            t.max(1.0 - t)
        }
    }

    /// The majority direction: `true` when the branch is taken at least half
    /// the time.
    pub fn majority_taken(&self) -> bool {
        2 * self.taken >= self.executed
    }

    /// Merges another site's counts into this one.
    pub fn merge(&mut self, other: &SiteStats) {
        self.executed += other.executed;
        self.taken += other.taken;
    }
}

/// Aggregate statistics over a branch stream.
///
/// # Examples
///
/// ```
/// use sdbp_trace::{BranchAddr, BranchEvent, SliceSource, TraceStats};
///
/// let events = [
///     BranchEvent::new(BranchAddr(0x10), true, 9),
///     BranchEvent::new(BranchAddr(0x10), true, 9),
///     BranchEvent::new(BranchAddr(0x20), false, 9),
/// ];
/// let stats = TraceStats::from_source(SliceSource::new(&events));
/// assert_eq!(stats.static_branches(), 2);
/// assert_eq!(stats.dynamic_branches(), 3);
/// assert_eq!(stats.site(BranchAddr(0x10)).unwrap().taken, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    sites: PcMap<SiteStats>,
    dynamic_branches: u64,
    total_instructions: u64,
}

impl TraceStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one event.
    pub fn record(&mut self, event: &BranchEvent) {
        let site = self.sites.entry(event.pc).or_default();
        site.executed += 1;
        site.taken += u64::from(event.taken);
        self.dynamic_branches += 1;
        self.total_instructions += event.instructions();
    }

    /// Consumes a whole source.
    pub fn from_source<S: BranchSource>(mut source: S) -> Self {
        let mut stats = Self::new();
        while let Some(e) = source.next_event() {
            stats.record(&e);
        }
        stats
    }

    /// Number of distinct static branch sites observed.
    pub fn static_branches(&self) -> usize {
        self.sites.len()
    }

    /// Number of dynamic branch executions observed.
    pub fn dynamic_branches(&self) -> u64 {
        self.dynamic_branches
    }

    /// Total retired instructions observed.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Dynamic conditional branches per thousand instructions.
    pub fn cbrs_per_ki(&self) -> f64 {
        if self.total_instructions == 0 {
            0.0
        } else {
            self.dynamic_branches as f64 * 1000.0 / self.total_instructions as f64
        }
    }

    /// Statistics of one site, if it was observed.
    pub fn site(&self, pc: BranchAddr) -> Option<&SiteStats> {
        self.sites.get(&pc)
    }

    /// Iterates over `(pc, stats)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchAddr, &SiteStats)> {
        self.sites.iter().map(|(pc, s)| (*pc, s))
    }

    /// Fraction of *dynamic* branch executions attributable to sites whose
    /// bias exceeds `cutoff` (the Table 2 "highly biased" metric).
    pub fn dynamic_fraction_biased(&self, cutoff: f64) -> f64 {
        if self.dynamic_branches == 0 {
            return 0.0;
        }
        let biased: u64 = self
            .sites
            .values()
            .filter(|s| s.bias() > cutoff)
            .map(|s| s.executed)
            .sum();
        biased as f64 / self.dynamic_branches as f64
    }

    /// Fraction of *static* sites whose bias exceeds `cutoff`.
    pub fn static_fraction_biased(&self, cutoff: f64) -> f64 {
        if self.sites.is_empty() {
            return 0.0;
        }
        let biased = self.sites.values().filter(|s| s.bias() > cutoff).count();
        biased as f64 / self.sites.len() as f64
    }

    /// Compares `self` (the *reference* run) against a *training* run,
    /// producing the paper's Table 5 cross-input statistics.
    pub fn compare(&self, train: &TraceStats) -> BehaviorComparison {
        let mut cmp = BehaviorComparison::default();
        for (pc, ref_site) in self.sites.iter() {
            cmp.ref_static += 1;
            cmp.ref_dynamic += ref_site.executed;
            let Some(train_site) = train.sites.get(pc) else {
                continue;
            };
            cmp.common_static += 1;
            cmp.common_dynamic += ref_site.executed;
            if train_site.majority_taken() != ref_site.majority_taken() {
                cmp.direction_change_static += 1;
                cmp.direction_change_dynamic += ref_site.executed;
            }
            let delta = (train_site.taken_rate() - ref_site.taken_rate()).abs();
            if delta < 0.05 {
                cmp.bias_change_small_static += 1;
                cmp.bias_change_small_dynamic += ref_site.executed;
            }
            if delta > 0.50 {
                cmp.bias_change_large_static += 1;
                cmp.bias_change_large_dynamic += ref_site.executed;
            }
        }
        cmp
    }
}

impl Extend<BranchEvent> for TraceStats {
    fn extend<T: IntoIterator<Item = BranchEvent>>(&mut self, iter: T) {
        for e in iter {
            self.record(&e);
        }
    }
}

/// Train-vs-ref behavioral statistics (the paper's Table 5).
///
/// All `*_static` fields count static sites seen in the reference run; the
/// matching `*_dynamic` fields weight them by reference-run execution counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BehaviorComparison {
    /// Static sites in the reference run.
    pub ref_static: u64,
    /// Dynamic executions in the reference run.
    pub ref_dynamic: u64,
    /// Sites executed under both inputs ("coverage").
    pub common_static: u64,
    /// Reference executions of covered sites.
    pub common_dynamic: u64,
    /// Covered sites whose majority direction flipped.
    pub direction_change_static: u64,
    /// Reference executions of direction-flipped sites.
    pub direction_change_dynamic: u64,
    /// Covered sites whose taken-rate moved by less than 5 percentage points.
    pub bias_change_small_static: u64,
    /// Reference executions of small-change sites.
    pub bias_change_small_dynamic: u64,
    /// Covered sites whose taken-rate moved by more than 50 points.
    pub bias_change_large_static: u64,
    /// Reference executions of large-change sites.
    pub bias_change_large_dynamic: u64,
}

impl BehaviorComparison {
    /// Static coverage: fraction of reference sites also seen in training.
    pub fn coverage_static(&self) -> f64 {
        ratio(self.common_static, self.ref_static)
    }

    /// Dynamic coverage: fraction of reference executions covered.
    pub fn coverage_dynamic(&self) -> f64 {
        ratio(self.common_dynamic, self.ref_dynamic)
    }

    /// Fraction of covered sites that flipped majority direction.
    pub fn direction_change_rate_static(&self) -> f64 {
        ratio(self.direction_change_static, self.common_static)
    }

    /// Execution-weighted fraction that flipped majority direction.
    pub fn direction_change_rate_dynamic(&self) -> f64 {
        ratio(self.direction_change_dynamic, self.common_dynamic)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SliceSource;

    fn ev(pc: u64, taken: bool) -> BranchEvent {
        BranchEvent::new(BranchAddr(pc), taken, 9)
    }

    #[test]
    fn site_stats_bias_definition() {
        let s = SiteStats {
            executed: 100,
            taken: 95,
        };
        assert!((s.bias() - 0.95).abs() < 1e-12);
        assert!(s.majority_taken());
        let s = SiteStats {
            executed: 100,
            taken: 5,
        };
        assert!((s.bias() - 0.95).abs() < 1e-12);
        assert!(!s.majority_taken());
        let s = SiteStats::default();
        assert_eq!(s.bias(), 0.0);
    }

    #[test]
    fn site_merge_adds_counts() {
        let mut a = SiteStats {
            executed: 10,
            taken: 4,
        };
        a.merge(&SiteStats {
            executed: 5,
            taken: 5,
        });
        assert_eq!(a.executed, 15);
        assert_eq!(a.taken, 9);
    }

    #[test]
    fn accumulates_per_site() {
        let events = [ev(0x10, true), ev(0x10, false), ev(0x20, true)];
        let stats = TraceStats::from_source(SliceSource::new(&events));
        assert_eq!(stats.static_branches(), 2);
        assert_eq!(stats.dynamic_branches(), 3);
        assert_eq!(stats.total_instructions(), 30);
        let site = stats.site(BranchAddr(0x10)).unwrap();
        assert_eq!(site.executed, 2);
        assert_eq!(site.taken, 1);
        assert!(stats.site(BranchAddr(0x99)).is_none());
    }

    #[test]
    fn cbrs_per_ki_matches_gap() {
        // gap 9 → 10 instructions per branch → 100 CBRs/KI.
        let events: Vec<BranchEvent> = (0..100).map(|i| ev(i * 4, true)).collect();
        let stats = TraceStats::from_source(SliceSource::new(&events));
        assert!((stats.cbrs_per_ki() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn biased_fractions() {
        // Site A: 100% taken, hot (3 execs). Site B: 50/50, cold (2 execs).
        let events = [
            ev(0xa, true),
            ev(0xa, true),
            ev(0xa, true),
            ev(0xb, true),
            ev(0xb, false),
        ];
        let stats = TraceStats::from_source(SliceSource::new(&events));
        assert!((stats.dynamic_fraction_biased(0.95) - 0.6).abs() < 1e-12);
        assert!((stats.static_fraction_biased(0.95) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = TraceStats::new();
        assert_eq!(stats.cbrs_per_ki(), 0.0);
        assert_eq!(stats.dynamic_fraction_biased(0.9), 0.0);
        assert_eq!(stats.static_fraction_biased(0.9), 0.0);
    }

    #[test]
    fn comparison_detects_direction_flips_and_coverage() {
        // Training run: site 0x10 mostly taken; site 0x20 mostly taken.
        let train_events = [
            ev(0x10, true),
            ev(0x10, true),
            ev(0x20, true),
            ev(0x20, true),
        ];
        let train = TraceStats::from_source(SliceSource::new(&train_events));
        // Reference run: 0x10 unchanged, 0x20 flips, 0x30 is new.
        let ref_events = [
            ev(0x10, true),
            ev(0x10, true),
            ev(0x20, false),
            ev(0x20, false),
            ev(0x30, true),
        ];
        let reference = TraceStats::from_source(SliceSource::new(&ref_events));
        let cmp = reference.compare(&train);
        assert_eq!(cmp.ref_static, 3);
        assert_eq!(cmp.common_static, 2);
        assert_eq!(cmp.direction_change_static, 1);
        assert!((cmp.coverage_static() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cmp.coverage_dynamic() - 4.0 / 5.0).abs() < 1e-12);
        assert!((cmp.direction_change_rate_static() - 0.5).abs() < 1e-12);
        // 0x20's taken rate moved from 1.0 to 0.0: a large change.
        assert_eq!(cmp.bias_change_large_static, 1);
        // 0x10 is unchanged: a small change.
        assert_eq!(cmp.bias_change_small_static, 1);
    }

    #[test]
    fn extend_accumulates() {
        let mut stats = TraceStats::new();
        stats.extend([ev(0x1, true), ev(0x1, true)]);
        assert_eq!(stats.dynamic_branches(), 2);
    }
}
