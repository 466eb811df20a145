//! The bimodal (Smith) predictor.

use crate::index_spec::IndexSpec;
use crate::table::PredictionTable;
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::BranchAddr;

/// The classic per-address 2-bit-counter predictor.
///
/// A table of saturating counters indexed by low branch-address bits. Works
/// on the principle that branches are *bimodally* distributed — mostly taken
/// or mostly not-taken. The paper notes there is very little aliasing in
/// bimodal tables above 2 KB because typical programs have fewer static
/// branches than counters.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{Bimodal, DynamicPredictor};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = Bimodal::new(2048); // 2 KB => 8K counters
/// assert_eq!(p.size_bytes(), 2048);
/// p.predict_update(BranchAddr(0x10), false);
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: PredictionTable,
}

impl Bimodal {
    /// Creates a bimodal predictor with a `size_bytes` counter budget.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a power of two (4 counters per byte).
    pub fn new(size_bytes: usize) -> Self {
        Self {
            table: PredictionTable::two_bit(size_bytes * 4),
        }
    }

    fn index(&self, pc: BranchAddr) -> u64 {
        pc.word_index() & self.table.index_mask()
    }
}

impl DynamicPredictor for Bimodal {
    fn name(&self) -> &'static str {
        "bimodal"
    }

    fn size_bytes(&self) -> usize {
        self.table.size_bytes()
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let index = self.index(pc);
        let (predicted, collision) = self.table.lookup_train(index, pc, taken);
        Prediction {
            taken: predicted,
            collision,
        }
    }

    fn shift_history(&mut self, _taken: bool) {
        // Bimodal keeps no global history.
    }

    fn total_collisions(&self) -> u64 {
        self.table.collisions()
    }

    fn probe_indices(&self, pc: BranchAddr, _history: u64, out: &mut Vec<(u32, u64)>) -> bool {
        out.push((0, self.index(pc)));
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

    #[test]
    fn learns_a_biased_branch() {
        let mut p = Bimodal::new(1024);
        let pc = BranchAddr(0x1234 & !3);
        for _ in 0..4 {
            p.predict_update(pc, true);
        }
        assert!(p.predict_update(pc, true).taken);
    }

    #[test]
    fn adapts_to_direction_change() {
        let mut p = Bimodal::new(1024);
        let pc = BranchAddr(0x40);
        for _ in 0..10 {
            p.predict_update(pc, true);
        }
        for _ in 0..3 {
            p.predict_update(pc, false);
        }
        assert!(
            !p.predict_update(pc, false).taken,
            "three not-takens flip a saturated counter"
        );
    }

    #[test]
    fn distinct_pcs_alias_only_when_indices_match() {
        let mut p = Bimodal::new(64); // 256 counters
        let a = BranchAddr(0x0);
        let b = BranchAddr(0x400); // 0x400>>2 = 0x100 = 256 ≡ 0 (mod 256): aliases a
        let c = BranchAddr(0x4); // index 1: no alias
        p.predict_update(a, true);
        assert!(p.predict_update(b, true).collision, "b aliases a's counter");
        assert!(!p.predict_update(c, true).collision);
        assert_eq!(p.total_collisions(), 1);
    }

    #[test]
    fn ignores_byte_offset_bits() {
        // Branch addresses are 4-byte aligned; the two offset bits must not
        // dilute the index.
        let p = Bimodal::new(64);
        assert_eq!(p.index(BranchAddr(0x100)), p.index(BranchAddr(0x100)));
        assert_ne!(p.index(BranchAddr(0x100)), p.index(BranchAddr(0x104)));
    }

    #[test]
    fn shift_history_is_a_noop() {
        let mut p = Bimodal::new(64);
        let pc = BranchAddr(0x8);
        p.predict_update(pc, false);
        p.shift_history(true);
        p.shift_history(false);
        // Nothing observable changes; just must not panic.
        p.predict_update(pc, true);
    }

    #[test]
    fn probe_indices_are_history_free() {
        let p = Bimodal::new(64);
        let pc = BranchAddr(0x1c0);
        let mut probes = Vec::new();
        assert!(p.probe_indices(pc, 0, &mut probes));
        assert_eq!(probes, vec![(0, p.index(pc))]);
        let mut with_history = Vec::new();
        assert!(p.probe_indices(pc, 0xffff, &mut with_history));
        assert_eq!(probes, with_history, "history must not affect the index");
        assert_eq!(p.history_bits(), 0);
    }
}
