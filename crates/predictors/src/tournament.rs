//! The tournament (McFarling combining) predictor.

use crate::bimodal::Bimodal;
use crate::gshare::Gshare;
use crate::table::PredictionTable;
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::BranchAddr;

/// McFarling's combining predictor — the scheme the Alpha 21264 shipped a
/// variant of, contemporary with the paper.
///
/// A bimodal and a gshare component predict in parallel; a PC-indexed
/// 2-bit **chooser** selects between them. Both components always train
/// (total update); the chooser trains only when the components disagree,
/// toward whichever was right.
///
/// Storage split of the byte budget: half to the gshare, a quarter to the
/// bimodal, a quarter to the chooser.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{DynamicPredictor, Tournament};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = Tournament::new(4096);
/// assert_eq!(p.size_bytes(), 4096);
/// p.predict_update(BranchAddr(0x10), true);
/// ```
#[derive(Debug, Clone)]
pub struct Tournament {
    bimodal: Bimodal,
    gshare: Gshare,
    chooser: PredictionTable,
}

impl Tournament {
    /// Creates a tournament predictor with a `size_bytes` counter budget.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is smaller than 4 bytes or not a power of two.
    pub fn new(size_bytes: usize) -> Self {
        assert!(
            size_bytes >= 4 && size_bytes.is_power_of_two(),
            "tournament size {size_bytes} must be a power of two >= 4"
        );
        Self {
            bimodal: Bimodal::new(size_bytes / 4),
            gshare: Gshare::new(size_bytes / 2),
            chooser: PredictionTable::two_bit(size_bytes / 4 * 4),
        }
    }

    fn chooser_index(&self, pc: BranchAddr) -> u64 {
        pc.word_index() & self.chooser.index_mask()
    }
}

impl DynamicPredictor for Tournament {
    fn name(&self) -> &'static str {
        "tournament"
    }

    fn size_bytes(&self) -> usize {
        self.bimodal.size_bytes() + self.gshare.size_bytes() + self.chooser.size_bytes()
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        // Total update: both components always train (the gshare also
        // shifts its history).
        let bimodal = self.bimodal.predict_update(pc, taken);
        let gshare = self.gshare.predict_update(pc, taken);
        let chooser_index = self.chooser_index(pc);
        // A taken-leaning chooser counter selects the gshare component.
        let (use_gshare, chooser_collision) = self.chooser.lookup(chooser_index, pc);
        // The chooser trains only on disagreement, toward the winner.
        if bimodal.taken != gshare.taken {
            self.chooser.train(chooser_index, gshare.taken == taken);
        }
        Prediction {
            taken: if use_gshare {
                gshare.taken
            } else {
                bimodal.taken
            },
            collision: bimodal.collision || gshare.collision || chooser_collision,
        }
    }

    fn shift_history(&mut self, taken: bool) {
        self.gshare.shift_history(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.bimodal.total_collisions() + self.gshare.total_collisions() + self.chooser.collisions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_split_is_quarter_half_quarter() {
        let p = Tournament::new(8192);
        assert_eq!(p.bimodal.size_bytes(), 2048);
        assert_eq!(p.gshare.size_bytes(), 4096);
        assert_eq!(p.chooser.size_bytes(), 2048);
        assert_eq!(p.size_bytes(), 8192);
    }

    #[test]
    fn learns_biased_branches() {
        let mut p = Tournament::new(1024);
        let pc = BranchAddr(0x40);
        for _ in 0..20 {
            p.predict_update(pc, true);
        }
        assert!(p.predict_update(pc, true).taken);
    }

    #[test]
    fn chooser_routes_alternation_to_gshare() {
        // Alternating outcomes: bimodal oscillates, gshare learns; the
        // tournament must converge to gshare's (correct) prediction.
        let mut p = Tournament::new(2048);
        let pc = BranchAddr(0x80);
        let mut correct = 0;
        for i in 0..3000 {
            let outcome = i % 2 == 0;
            let pred = p.predict_update(pc, outcome);
            if i >= 2000 && pred.taken == outcome {
                correct += 1;
            }
        }
        assert!(
            correct > 950,
            "tournament alternation accuracy {correct}/1000"
        );
    }

    #[test]
    fn chooser_keeps_bimodal_for_noisy_biased_branches() {
        // 88%-taken noise: bimodal is the right component; accuracy should
        // track the bias, not collapse to gshare's diluted view.
        let mut p = Tournament::new(512);
        let pc = BranchAddr(0x80);
        let mut state = 7u64;
        let mut correct = 0;
        let mut measured = 0;
        for i in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let outcome = (state >> 33) % 100 < 88;
            let pred = p.predict_update(pc, outcome);
            if i >= 10_000 {
                measured += 1;
                correct += u64::from(pred.taken == outcome);
            }
        }
        let acc = correct as f64 / measured as f64;
        assert!(acc > 0.82, "noisy-bias accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_sizes() {
        let _ = Tournament::new(3000);
    }
}
