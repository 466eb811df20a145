//! The agree predictor (related-work ablation).

use crate::history::HistoryRegister;
use crate::table::{fold_tag, pack_entry, PredictionTable, COUNTER_MASK, TAG_SHIFT, VALID};
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::{BranchAddr, BranchEvent};

/// Sprangle et al.'s *agree mechanism*, cited by the paper as an alternative
/// alias-reduction technique.
///
/// A PC-indexed **bias table** stores each branch's likely direction (set to
/// the branch's first observed outcome, the hardware-only variant). The
/// gshare-indexed counter table then predicts whether the branch will
/// **agree** with its bias bit instead of predicting taken/not-taken
/// directly. Two mostly-biased branches sharing a counter now push it the
/// same way ("agree"), converting destructive aliasing into constructive
/// aliasing — the dynamic analogue of what the paper does with static hints.
///
/// Storage split: the counter table gets the full byte budget; the bias table
/// (1 bit per entry, same entry count as the counter table) is counted into
/// [`DynamicPredictor::size_bytes`] as well.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{Agree, DynamicPredictor};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = Agree::new(1024);
/// p.predict_update(BranchAddr(0x10), true);
/// ```
#[derive(Debug, Clone)]
pub struct Agree {
    counters: PredictionTable,
    bias: Vec<Option<bool>>,
    history: HistoryRegister,
}

impl Agree {
    /// Creates an agree predictor with a `size_bytes` budget: 8/9 of the bit
    /// budget in 2-bit agreement counters, 1/9 in bias bits (bias entries =
    /// half the counter entries, rounded to powers of two).
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a power of two.
    pub fn new(size_bytes: usize) -> Self {
        // Keep the paper-style convention simple: counters use the full byte
        // budget, the 1-bit bias table piggybacks with entries equal to the
        // counter count (documented storage overhead of 1/16 of the budget
        // in bytes is ignored in size accounting comparisons elsewhere, but
        // reported by size_bytes()).
        let counters = PredictionTable::two_bit(size_bytes * 4);
        let entries = counters.entries();
        let history = HistoryRegister::new(counters.index_bits());
        Self {
            counters,
            bias: vec![None; entries],
            history,
        }
    }

    fn counter_index(&self, pc: BranchAddr) -> u64 {
        (pc.word_index() ^ self.history.bits(self.counters.index_bits()))
            & self.counters.index_mask()
    }

    fn bias_index(&self, pc: BranchAddr) -> usize {
        (pc.word_index() & (self.bias.len() as u64 - 1)) as usize
    }
}

impl DynamicPredictor for Agree {
    fn name(&self) -> &'static str {
        "agree"
    }

    fn size_bytes(&self) -> usize {
        self.counters.size_bytes() + self.bias.len() / 8
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let counter_index = self.counter_index(pc);
        let bias_index = self.bias_index(pc);
        let (agree_pred, collision) = self.counters.lookup(counter_index, pc);
        // An unset bias defaults to taken (backward-taken heuristics would
        // slot in here); the branch's first outcome then fixes it.
        let predicted = agree_pred == self.bias[bias_index].unwrap_or(true);
        let bias_bit = *self.bias[bias_index].get_or_insert(taken);
        // The counter learns agreement with the (possibly just-set) bias.
        self.counters.train(counter_index, taken == bias_bit);
        self.history.push(taken);
        Prediction {
            taken: predicted,
            collision,
        }
    }

    /// The batched hot path: one fused read-modify-write of the counter
    /// entry per event with the history register and statistics hoisted into
    /// locals, threading the bias table's first-outcome latching
    /// sequentially through the batch. Pinned by
    /// `batch_matches_scalar_protocol` below and the crate's
    /// batch-equivalence property tests.
    fn predict_update_batch(&mut self, events: &[BranchEvent], out: &mut Vec<Prediction>) {
        let index_mask = self.counters.index_mask();
        let bias_mask = self.bias.len() as u64 - 1;
        // The register is sized to exactly the counter index width.
        let hist_len = self.history.len();
        let hist_mask = if hist_len >= 64 {
            u64::MAX
        } else {
            (1u64 << hist_len) - 1
        };
        let mut history = self.history.value();
        let mut collisions = 0u64;
        {
            let (slots, max) = self.counters.batch_parts();
            let bias = &mut self.bias;
            let half = max / 2;
            out.extend(events.iter().map(|e| {
                let w = e.pc.word_index();
                let i = ((w ^ history) & index_mask) as usize;
                let bi = (w & bias_mask) as usize;
                let tag = fold_tag(e.pc);
                let entry = slots[i];
                let c = entry as u8;
                let collided = (c & VALID != 0) & ((entry >> TAG_SHIFT) as u32 != tag);
                collisions += u64::from(collided);
                let v = c & COUNTER_MASK;
                let agree_pred = v > half;
                let predicted = if agree_pred {
                    bias[bi].unwrap_or(true)
                } else {
                    !bias[bi].unwrap_or(true)
                };
                let taken = e.taken;
                // First-execution bias capture, then train agreement.
                let bias_bit = match bias[bi] {
                    Some(b) => b,
                    None => {
                        bias[bi] = Some(taken);
                        taken
                    }
                };
                let agree = taken == bias_bit;
                let up = u8::from(agree) & u8::from(v < max);
                let down = u8::from(!agree) & u8::from(v > 0);
                slots[i] = pack_entry(VALID | (v + up - down), tag);
                history = ((history << 1) | u64::from(taken)) & hist_mask;
                Prediction {
                    taken: predicted,
                    collision: collided,
                }
            }));
        }
        self.counters
            .add_batch_stats(events.len() as u64, collisions);
        self.history.set_bits(history);
    }

    fn shift_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.counters.collisions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branches() {
        let mut p = Agree::new(1024);
        let pc = BranchAddr(0x40);
        for _ in 0..20 {
            p.predict_update(pc, false);
        }
        assert!(!p.predict_update(pc, false).taken);
    }

    #[test]
    fn opposite_bias_branches_agree_in_shared_counters() {
        // The agree mechanism's claim: branches with opposite directions but
        // both strongly biased drive shared counters the SAME way. Simulate
        // a mostly-taken and a mostly-not-taken branch and require high
        // accuracy on both despite a tiny table.
        let mut p = Agree::new(16); // 64 counters: plenty of sharing
        let a = BranchAddr(0x100);
        let b = BranchAddr(0x104);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..3000 {
            let pa = p.predict_update(a, true);
            if i >= 1000 {
                total += 1;
                if pa.taken {
                    correct += 1;
                }
            }
            let pb = p.predict_update(b, false);
            if i >= 1000 {
                total += 1;
                if !pb.taken {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.97, "agree accuracy with heavy sharing: {acc}");
    }

    #[test]
    fn bias_is_fixed_at_first_outcome() {
        let mut p = Agree::new(64);
        let pc = BranchAddr(0x10);
        p.predict_update(pc, false); // the first outcome fixes the bias
        assert_eq!(p.bias[p.bias_index(pc)], Some(false));
        for _ in 0..10 {
            p.predict_update(pc, true);
        }
        // Bias bit itself never changes; the counters learned to DISagree.
        assert_eq!(p.bias[p.bias_index(pc)], Some(false));
        assert!(
            p.predict_update(pc, true).taken,
            "disagree-with-bias yields taken"
        );
    }

    #[test]
    fn batch_matches_scalar_protocol() {
        let mut state = 0xa62e_e0a6_2ee0_a62eu64;
        let events: Vec<BranchEvent> = (0..3000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                BranchEvent::new(
                    BranchAddr((state >> 17) % 701 * 4),
                    state & (1 << 40) != 0,
                    0,
                )
            })
            .collect();
        let mut batched = Agree::new(64);
        let mut scalar = Agree::new(64);
        let mut out = Vec::new();
        let mut start = 0;
        for (k, size) in [0usize, 1, 7, 256, 3000].iter().cycle().enumerate() {
            if start >= events.len() {
                break;
            }
            let chunk = &events[start..(start + size).min(events.len())];
            start += size;
            out.clear();
            batched.predict_update_batch(chunk, &mut out);
            assert_eq!(out.len(), chunk.len(), "chunk {k}");
            for (e, got) in chunk.iter().zip(&out) {
                let want = scalar.predict_update(e.pc, e.taken);
                assert_eq!(*got, want);
            }
            assert_eq!(batched.total_collisions(), scalar.total_collisions());
            assert_eq!(batched.history.value(), scalar.history.value());
            assert_eq!(batched.bias, scalar.bias);
        }
        assert_eq!(batched.counters.lookups(), scalar.counters.lookups());
    }

    #[test]
    fn size_includes_bias_bits() {
        let p = Agree::new(1024);
        assert_eq!(p.size_bytes(), 1024 + 4096 / 8);
    }
}
