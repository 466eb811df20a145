//! The gselect predictor.

use crate::history::HistoryRegister;
use crate::index_spec::IndexSpec;
use crate::table::PredictionTable;
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::BranchAddr;

/// McFarling's gselect: index = branch address bits **concatenated** with
/// global history bits.
///
/// The historical stepping stone between bimodal and gshare: concatenation
/// partitions the table rigidly (so few PC bits and few history bits each),
/// where gshare's XOR lets every counter serve any combination. Included to
/// make the classic McFarling comparison (bimodal < gselect < gshare)
/// runnable, and as another aliasing data point.
///
/// The index splits the table's bits evenly: ⌈n/2⌉ address bits and ⌊n/2⌋
/// history bits.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{DynamicPredictor, Gselect};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = Gselect::new(4096);
/// p.predict_update(BranchAddr(0x60), true);
/// ```
#[derive(Debug, Clone)]
pub struct Gselect {
    table: PredictionTable,
    history: HistoryRegister,
    history_bits: u32,
}

impl Gselect {
    /// Creates a gselect with a `size_bytes` counter budget.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a power of two, or yields fewer than 4
    /// counters (the index needs at least one bit of each component).
    pub fn new(size_bytes: usize) -> Self {
        let table = PredictionTable::two_bit(size_bytes * 4);
        assert!(table.index_bits() >= 2, "gselect needs at least 4 counters");
        let history_bits = table.index_bits() / 2;
        Self {
            history: HistoryRegister::new(history_bits.max(1)),
            table,
            history_bits,
        }
    }

    /// The number of history bits in the index.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    fn index(&self, pc: BranchAddr) -> u64 {
        self.index_for(pc, self.history.bits(self.history_bits))
    }

    /// The table index for `pc` under a given raw history value — the pure
    /// form of the index function, shared by [`DynamicPredictor::predict_update`]
    /// and [`DynamicPredictor::probe_indices`].
    fn index_for(&self, pc: BranchAddr, history: u64) -> u64 {
        let address_bits = self.table.index_bits() - self.history_bits;
        let address_part = pc.word_index() & ((1u64 << address_bits) - 1);
        let history_part = history & ((1u64 << self.history_bits) - 1);
        (address_part << self.history_bits) | history_part
    }
}

impl DynamicPredictor for Gselect {
    fn name(&self) -> &'static str {
        "gselect"
    }

    fn size_bytes(&self) -> usize {
        self.table.size_bytes()
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let index = self.index(pc);
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
        self.history_bits
    }

    fn probe_indices(&self, pc: BranchAddr, history: u64, out: &mut Vec<(u32, u64)>) -> bool {
        out.push((0, self.index_for(pc, history)));
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
    fn index_concatenates_address_and_history() {
        let mut p = Gselect::new(64); // 256 counters: 4 addr bits, 4 hist bits
        assert_eq!(p.history_bits(), 4);
        let pc = BranchAddr(0b0101 << 2); // word index 0b0101
        assert_eq!(p.index(pc), 0b0101_0000);
        p.shift_history(true);
        p.shift_history(true);
        assert_eq!(p.index(pc), 0b0101_0011);
    }

    #[test]
    fn learns_biased_branches() {
        let mut p = Gselect::new(1024);
        let pc = BranchAddr(0x40);
        for _ in 0..30 {
            p.predict_update(pc, true);
        }
        assert!(p.predict_update(pc, true).taken);
    }

    #[test]
    fn learns_short_patterns() {
        let mut p = Gselect::new(1024);
        let pc = BranchAddr(0x40);
        let mut correct = 0;
        for i in 0..3000 {
            let outcome = i % 2 == 0;
            let pred = p.predict_update(pc, outcome);
            if i >= 2000 && pred.taken == outcome {
                correct += 1;
            }
        }
        assert!(correct > 980, "alternation accuracy {correct}/1000");
    }

    #[test]
    fn distinct_low_address_bits_do_not_collide() {
        let mut p = Gselect::new(64);
        let a = BranchAddr(0x4);
        let b = BranchAddr(0x8);
        p.predict_update(a, true);
        let pred = p.predict_update(b, false);
        assert!(!pred.collision, "different address partitions");
    }

    #[test]
    fn probe_indices_concatenate_like_the_live_index() {
        let p = Gselect::new(64); // 4 addr bits, 4 hist bits
        let pc = BranchAddr(0b0101 << 2);
        let mut probes = Vec::new();
        assert!(p.probe_indices(pc, 0b0011, &mut probes));
        assert_eq!(probes, vec![(0, 0b0101_0011)]);
        assert_eq!(DynamicPredictor::history_bits(&p), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_sizes() {
        let _ = Gselect::new(3000);
    }
}
