//! Workload-calibration diagnostics behind `sdbp bench diag_classes` and
//! `sdbp bench diag_hist`: aids for tuning the synthetic workloads (see
//! `docs/calibration.md`), not paper artifacts.
//!
//! Both measure a pure-dynamic predictor over the first 6 M instructions
//! of a benchmark's reference stream at the harness seed, unscaled by
//! `SDBP_SCALE`.

use crate::SEED;
use sdbp_core::{CombinedPredictor, Simulator};
use sdbp_predictors::{Gshare, PredictorConfig};
use sdbp_trace::BranchSource;
use sdbp_workloads::{Benchmark, BranchBehavior, InputSet, Workload};
use std::collections::HashMap;
use std::fmt::Write;

/// Instructions each diagnostic measures.
const INSTRUCTIONS: u64 = 6_000_000;

/// The behavior class a site's model falls in, with biased sites split by
/// strength at the 95% and 80% marks.
fn class_of(behavior: &BranchBehavior) -> &'static str {
    match behavior {
        BranchBehavior::Biased { p_taken, .. } => {
            let bias = p_taken.max(1.0 - p_taken);
            if bias > 0.95 {
                "strong"
            } else if bias > 0.80 {
                "moderate"
            } else {
                "weak"
            }
        }
        BranchBehavior::Loop { .. } => "loop",
        BranchBehavior::Pattern { .. } => "pattern",
        BranchBehavior::FollowGlobal { .. } => "follow",
        BranchBehavior::Correlated { .. } => "correlated",
        BranchBehavior::LoopBack => "backedge",
    }
}

/// Per-behavior-class accuracy of `predictor` on `benchmark`: an overall
/// line, then one line per class, most executed first, each ending in a
/// newline. Shows where a predictor's errors come from.
///
/// # Panics
///
/// Panics for an imported benchmark, which has no workload model.
pub fn diag_classes(benchmark: Benchmark, predictor: PredictorConfig) -> String {
    let workload = Workload::spec95(benchmark);
    let class_by_pc: HashMap<u64, &'static str> = workload
        .program(InputSet::Ref, SEED)
        .sites()
        .iter()
        .map(|s| (s.pc.0, class_of(&s.behavior)))
        .collect();
    let source = workload
        .generator(InputSet::Ref, SEED)
        .take_instructions(INSTRUCTIONS);
    let mut combined = CombinedPredictor::pure_dynamic(predictor.build_any());
    let mut per_class: HashMap<&'static str, (u64, u64)> = HashMap::new();
    let stats = Simulator::new().run_with_observer(source, &mut combined, |event, res| {
        let class = class_by_pc.get(&event.pc.0).copied().unwrap_or("?");
        let entry = per_class.entry(class).or_default();
        entry.0 += 1;
        entry.1 += u64::from(res.predicted_taken == event.taken);
    });

    let mut text = format!(
        "{benchmark} / {} {}B: overall acc {:.2}%  misp/KI {:.2}  collisions {}\n",
        predictor.kind(),
        predictor.size_bytes(),
        stats.accuracy() * 100.0,
        stats.misp_per_ki(),
        stats.collisions.total
    );
    let mut rows: Vec<_> = per_class.into_iter().collect();
    rows.sort_by_key(|&(class, (n, _))| (std::cmp::Reverse(n), class));
    for (class, (n, correct)) in rows {
        writeln!(
            text,
            "  {class:<10} {:>9} execs ({:>5.1}%)  acc {:>6.2}%",
            n,
            n as f64 / stats.branches as f64 * 100.0,
            correct as f64 / n as f64 * 100.0
        )
        .expect("writing to a String cannot fail");
    }
    text
}

/// Gshare accuracy on `benchmark` at `size_bytes` against history length,
/// one line per length — the even lengths up to 12 bits that are shorter
/// than the index, then the full index width — each ending in a newline.
/// Shows whether the history window is usable at all.
///
/// # Panics
///
/// Panics when `size_bytes` is not a power of two, or for an imported
/// benchmark.
pub fn diag_hist(benchmark: Benchmark, size_bytes: usize) -> String {
    let workload = Workload::spec95(benchmark);
    let max_bits = (size_bytes * 4).trailing_zeros();
    let shorter = [2, 4, 6, 8, 10, 12].into_iter().filter(|&h| h < max_bits);
    let mut text = String::new();
    for hist in shorter.chain([max_bits]) {
        let source = workload
            .generator(InputSet::Ref, SEED)
            .take_instructions(INSTRUCTIONS);
        let gshare = Gshare::with_history_len(size_bytes, hist);
        let mut combined = CombinedPredictor::pure_dynamic(Box::new(gshare));
        let stats = Simulator::new().run(source, &mut combined);
        writeln!(
            text,
            "{benchmark} gshare {size_bytes}B hist={hist:>2}: acc {:.2}%  misp/KI {:.2}  collisions {}",
            stats.accuracy() * 100.0,
            stats.misp_per_ki(),
            stats.collisions.total
        )
        .expect("writing to a String cannot fail");
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_hist_measures_each_history_length_once() {
        // 4 bytes hold 16 counters: a 4-bit index, so lengths 2 and 4.
        let text = diag_hist(Benchmark::Compress, 4);
        let lengths: Vec<&str> = text
            .lines()
            .map(|line| {
                line.split("hist=")
                    .nth(1)
                    .unwrap()
                    .split(':')
                    .next()
                    .unwrap()
            })
            .collect();
        assert_eq!(lengths, [" 2", " 4"], "{text}");
    }
}
