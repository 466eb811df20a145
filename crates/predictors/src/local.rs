//! The two-level local-history (PAg) predictor.

use crate::table::PredictionTable;
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::BranchAddr;

/// Yeh & Patt's PAg: per-address history registers indexing a shared
/// pattern table.
///
/// Level one is a PC-indexed table of *local* history registers (each
/// recording the recent outcomes of one branch); level two is a shared
/// table of 2-bit counters indexed by the selected local history. Local
/// history captures per-branch periodicity (loop trip counts, toggles) that
/// global history dilutes — and, being shared, the second level aliases
/// across branches exactly like ghist does, so it participates in the
/// paper's aliasing story.
///
/// Storage split of the byte budget: half to the history table (10-bit
/// registers), half to the pattern table.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{DynamicPredictor, Local};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = Local::new(4096);
/// p.predict_update(BranchAddr(0x24), false);
/// ```
#[derive(Debug, Clone)]
pub struct Local {
    histories: Vec<u16>,
    history_bits: u32,
    pattern: PredictionTable,
}

impl Local {
    /// Creates a PAg predictor with a `size_bytes` budget: half in 10-bit
    /// local history registers, half in 2-bit pattern counters.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is smaller than 8 bytes or not a power of two.
    pub fn new(size_bytes: usize) -> Self {
        assert!(
            size_bytes >= 8 && size_bytes.is_power_of_two(),
            "local size {size_bytes} must be a power of two >= 8"
        );
        // Half the bit budget in 10-bit registers, rounded to a power of two.
        let half_bits = size_bytes * 8 / 2;
        let raw_entries = (half_bits / 10).max(2);
        let history_entries = if raw_entries.is_power_of_two() {
            raw_entries
        } else {
            raw_entries.next_power_of_two() >> 1
        };
        let pattern = PredictionTable::two_bit(size_bytes / 2 * 4);
        let history_bits = 10u32.min(pattern.index_bits());
        Self {
            histories: vec![0; history_entries],
            history_bits,
            pattern,
        }
    }

    fn history_index(&self, pc: BranchAddr) -> usize {
        (pc.word_index() & (self.histories.len() as u64 - 1)) as usize
    }
}

impl DynamicPredictor for Local {
    fn name(&self) -> &'static str {
        "local"
    }

    fn size_bytes(&self) -> usize {
        (self.histories.len() * self.history_bits as usize).div_ceil(8) + self.pattern.size_bytes()
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let history_index = self.history_index(pc);
        let local = self.histories[history_index];
        // The pattern table masks internally; the raw local history is a
        // valid index as-is.
        let (predicted, collision) = self.pattern.lookup_train(u64::from(local), pc, taken);
        let mask = (1u16 << self.history_bits) - 1;
        self.histories[history_index] = ((local << 1) | u16::from(taken)) & mask;
        Prediction {
            taken: predicted,
            collision,
        }
    }

    fn shift_history(&mut self, _taken: bool) {
        // Local histories are per-branch: a statically predicted branch
        // that bypasses the tables has no register to shift. (Its own
        // register simply stops updating — faithful to the mechanism.)
    }

    fn total_collisions(&self) -> u64 {
        self.pattern.collisions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_per_branch_periodicity_global_noise_cannot_hide() {
        // Branch A cycles T T T N; branch B is random noise interleaved.
        // A local predictor isolates A's own history and nails the cycle.
        let mut p = Local::new(2048);
        let a = BranchAddr(0x40);
        let b = BranchAddr(0x80);
        let mut state = 3u64;
        let mut correct = 0;
        let mut measured = 0;
        for i in 0..8000 {
            let outcome_a = i % 4 != 3;
            let pred = p.predict_update(a, outcome_a);
            if i >= 6000 {
                measured += 1;
                correct += u64::from(pred.taken == outcome_a);
            }
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let outcome_b = state & (1 << 40) != 0;
            p.predict_update(b, outcome_b);
        }
        let acc = correct as f64 / measured as f64;
        assert!(acc > 0.95, "local accuracy on the cycle: {acc}");
    }

    #[test]
    fn learns_biased_branches() {
        let mut p = Local::new(512);
        let pc = BranchAddr(0x10);
        for _ in 0..30 {
            p.predict_update(pc, false);
        }
        assert!(!p.predict_update(pc, false).taken);
    }

    #[test]
    fn pattern_table_aliases_across_branches() {
        // Two branches with identical local histories share pattern entries.
        let mut p = Local::new(64);
        let a = BranchAddr(0x100);
        let b = BranchAddr(0x104);
        let mut state = 11u64;
        for _ in 0..1000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let o = state & (1 << 35) != 0;
            p.predict_update(a, o);
            p.predict_update(b, !o);
        }
        assert!(
            p.total_collisions() > 100,
            "collisions {}",
            p.total_collisions()
        );
    }

    #[test]
    fn size_accounting_within_budget() {
        let p = Local::new(4096);
        assert!(p.size_bytes() <= 4096, "{} bytes", p.size_bytes());
        assert!(p.size_bytes() >= 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_sizes() {
        let _ = Local::new(5000);
    }
}
