//! The ghist (GAg) global-history predictor.

use crate::history::HistoryRegister;
use crate::index_spec::IndexSpec;
use crate::table::PredictionTable;
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::BranchAddr;

/// The pure global-history predictor (GAg in Yeh & Patt's taxonomy).
///
/// The counter table is indexed *only* by the global history register — the
/// branch address does not participate at all. It captures the "branch
/// correlation" principle: the outcome of a branch often depends on the
/// outcomes of the branches leading up to it. Because many branches share
/// each history value, ghist suffers heavy aliasing — which makes it the
/// predictor that benefits most from the paper's static filtering (up to 75%
/// MISPs/KI improvement on m88ksim).
///
/// History length equals the table index width, as in the paper.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{DynamicPredictor, Ghist};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = Ghist::new(1024); // 4K counters => 12 bits of history
/// p.predict_update(BranchAddr(0x77c), true);
/// ```
#[derive(Debug, Clone)]
pub struct Ghist {
    table: PredictionTable,
    history: HistoryRegister,
}

impl Ghist {
    /// Creates a ghist predictor with a `size_bytes` counter budget.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a power of two.
    pub fn new(size_bytes: usize) -> Self {
        let table = PredictionTable::two_bit(size_bytes * 4);
        let history = HistoryRegister::new(table.index_bits());
        Self { table, history }
    }

    /// The history length in bits (equals the index width).
    pub fn history_len(&self) -> u32 {
        self.history.len()
    }
}

impl DynamicPredictor for Ghist {
    fn name(&self) -> &'static str {
        "ghist"
    }

    fn size_bytes(&self) -> usize {
        self.table.size_bytes()
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let index = self.history.bits(self.table.index_bits());
        let (predicted, collision) = self.table.lookup_train(index, pc, taken);
        self.history.push(taken);
        Prediction {
            taken: predicted,
            collision,
        }
    }

    fn shift_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.table.collisions()
    }

    fn history_bits(&self) -> u32 {
        self.table.index_bits()
    }

    fn probe_indices(&self, _pc: BranchAddr, history: u64, out: &mut Vec<(u32, u64)>) -> bool {
        out.push((0, history & self.table.index_mask()));
        true
    }

    fn index_spec(&self) -> Option<IndexSpec> {
        Some(IndexSpec::from_linear_probe(
            self,
            &[self.table.index_bits()],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `pattern` cyclically through the predictor and returns the
    /// accuracy over the last `measure` branches.
    fn run_pattern(p: &mut Ghist, pc: u64, pattern: &[bool], total: usize, measure: usize) -> f64 {
        let pc = BranchAddr(pc);
        let mut correct = 0usize;
        for i in 0..total {
            let outcome = pattern[i % pattern.len()];
            let pred = p.predict_update(pc, outcome);
            if i >= total - measure && pred.taken == outcome {
                correct += 1;
            }
        }
        correct as f64 / measure as f64
    }

    #[test]
    fn learns_history_patterns_a_bimodal_cannot() {
        // Alternating T/N: bimodal oscillates at ~0%, ghist should nail it.
        let mut p = Ghist::new(256);
        let acc = run_pattern(&mut p, 0x40, &[true, false], 2000, 500);
        assert!(acc > 0.99, "ghist accuracy on alternation: {acc}");
    }

    #[test]
    fn learns_loop_exit_patterns() {
        // T T T N repeating (a 4-iteration loop): needs >= 3 bits of history.
        let mut p = Ghist::new(256);
        let acc = run_pattern(&mut p, 0x40, &[true, true, true, false], 4000, 1000);
        assert!(acc > 0.99, "ghist accuracy on loop pattern: {acc}");
    }

    #[test]
    fn captures_cross_branch_correlation() {
        // Branch B's outcome equals branch A's last outcome. ghist sees A's
        // outcome in the history when predicting B.
        let mut p = Ghist::new(1024);
        let a = BranchAddr(0x100);
        let b = BranchAddr(0x200);
        let mut correct = 0;
        let mut measured = 0;
        let mut a_outcome;
        for i in 0..4000u64 {
            a_outcome = (i * 2654435761) % 3 == 0; // pseudo-random-ish
            p.predict_update(a, a_outcome);
            let pred = p.predict_update(b, a_outcome);
            if i >= 3000 {
                measured += 1;
                if pred.taken == a_outcome {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / measured as f64;
        assert!(acc > 0.95, "correlation accuracy: {acc}");
    }

    #[test]
    fn aliasing_is_heavy_between_unrelated_branches() {
        // With pseudo-random outcomes the two branches wander over the whole
        // history-indexed table and repeatedly reuse each other's counters —
        // the GAg aliasing problem the paper targets.
        let mut p = Ghist::new(64);
        let a = BranchAddr(0x100);
        let b = BranchAddr(0x900);
        let mut state = 0xdead_beefu64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            p.predict_update(a, state & (1 << 40) != 0);
            p.predict_update(b, state & (1 << 41) != 0);
        }
        assert!(
            p.total_collisions() > 500,
            "collisions: {}",
            p.total_collisions()
        );
    }

    #[test]
    fn shift_history_changes_future_indices() {
        let mut p = Ghist::new(256);
        let pc = BranchAddr(0x40);
        p.predict_update(pc, true);
        let before = p.history.value();
        p.shift_history(false);
        assert_ne!(p.history.value(), before);
        assert_eq!(
            p.history.value(),
            before << 1 & ((1 << p.history_len()) - 1)
        );
    }

    #[test]
    fn probe_indices_ignore_the_pc() {
        let p = Ghist::new(256);
        let mut a = Vec::new();
        let mut b = Vec::new();
        assert!(p.probe_indices(BranchAddr(0x100), 0b1011, &mut a));
        assert!(p.probe_indices(BranchAddr(0x900), 0b1011, &mut b));
        assert_eq!(a, b, "GAg indexes by history alone");
        assert_eq!(a, vec![(0, 0b1011)]);
        assert_eq!(p.history_bits(), p.history_len());
    }

    #[test]
    fn history_len_tracks_table_size() {
        assert_eq!(Ghist::new(256).history_len(), 10); // 1K counters
        assert_eq!(Ghist::new(4096).history_len(), 14); // 16K counters
    }
}
