//! Experiment reports.

use crate::combined::ShiftPolicy;
use crate::metrics::SimStats;
use sdbp_predictors::PredictorConfig;
use sdbp_workloads::{Benchmark, InputSet};
use std::fmt;

/// The result of one experiment: configuration echo plus measured statistics.
///
/// Reports are what the `sdbp bench` experiments print and what
/// `EXPERIMENTS.md` records next to the paper's numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The workload.
    pub benchmark: Benchmark,
    /// The dynamic predictor configuration.
    pub predictor: PredictorConfig,
    /// The static selection scheme label (`"none"`, `"static_95"`, …).
    pub scheme_label: String,
    /// The history shift policy for static branches.
    pub shift: ShiftPolicy,
    /// The input the measurement ran on.
    pub measure_input: InputSet,
    /// Number of branches statically predicted by the hint database.
    pub hints: usize,
    /// The measured statistics.
    pub stats: SimStats,
}

impl Report {
    /// The workload family the report's cell belongs to (see
    /// [`Benchmark::family`]), the grouping axis for per-family summaries.
    pub fn family(&self) -> sdbp_workloads::WorkloadFamily {
        self.benchmark.family()
    }

    /// Relative MISPs/KI improvement of `self` over `baseline` — positive
    /// when `self` mispredicts less, matching the sign convention of the
    /// paper's Tables 3 and 4.
    pub fn improvement_over(&self, baseline: &Report) -> f64 {
        self.stats.improvement_over(&baseline.stats)
    }

    /// A one-line summary (benchmark, predictor, scheme, MISPs/KI).
    pub fn summary(&self) -> String {
        format!(
            "{:<9} {:<14} {:<11} {:<8} {:>8.3} MISPs/KI  acc {:>6.2}%  {} hints  {} collisions",
            self.benchmark.name(),
            self.predictor.to_string(),
            self.scheme_label,
            self.shift.label(),
            self.stats.misp_per_ki(),
            self.stats.accuracy() * 100.0,
            self.hints,
            self.stats.collisions.total,
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::PredictorKind;

    fn report(misp: u64) -> Report {
        Report {
            benchmark: Benchmark::Gcc,
            predictor: PredictorConfig::new(PredictorKind::Gshare, 4096).unwrap(),
            scheme_label: "static_95".into(),
            shift: ShiftPolicy::NoShift,
            measure_input: InputSet::Ref,
            hints: 123,
            stats: SimStats {
                instructions: 100_000,
                branches: 10_000,
                mispredictions: misp,
                ..SimStats::default()
            },
        }
    }

    #[test]
    fn improvement_sign_convention() {
        let base = report(1000);
        let better = report(900);
        assert!((better.improvement_over(&base) - 0.10).abs() < 1e-12);
        assert!(base.improvement_over(&better) < 0.0);
    }

    #[test]
    fn summary_mentions_configuration() {
        let r = report(500);
        let s = r.to_string();
        assert!(s.contains("gcc"));
        assert!(s.contains("gshare 4KB"));
        assert!(s.contains("static_95"));
        assert!(s.contains("MISPs/KI"));
        assert!(s.contains("123 hints"));
    }
}
