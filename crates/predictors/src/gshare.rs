//! The gshare predictor.

use crate::history::HistoryRegister;
use crate::index_spec::IndexSpec;
use crate::table::{fold_tag, pack_entry, PredictionTable, COUNTER_MASK, TAG_SHIFT, VALID};
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::{BranchAddr, BranchEvent};

/// McFarling's gshare: index = branch address ⊕ global history.
///
/// XORing the PC into the history index spreads different branches with the
/// same recent history across the table, capturing some of bimodal's
/// per-branch separation while keeping ghist's correlation power. It remains
/// alias-prone — the base predictor of the paper's Figures 1–6 size sweeps.
///
/// The history length defaults to the full index width; use
/// [`Gshare::with_history_len`] for the shorter tuned histories some
/// configurations prefer (shorter histories trade correlation reach for less
/// aliasing pressure).
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{DynamicPredictor, Gshare};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = Gshare::with_history_len(16 * 1024, 12); // 16 KB, 12-bit history
/// p.predict_update(BranchAddr(0xbeef0), false);
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    table: PredictionTable,
    history: HistoryRegister,
    history_len: u32,
}

impl Gshare {
    /// The default history cap: beyond this length, extra history dilutes
    /// contexts faster than it adds correlation on the SPECINT-like
    /// workloads this crate is calibrated against. The paper makes the same
    /// observation ("the best value of history length varies with hardware
    /// table sizes and with programs") and selected good lengths; a sweep
    /// with [`Gshare::with_history_len`] reproduces the effect.
    pub const DEFAULT_MAX_HISTORY: u32 = 12;

    /// Creates a gshare with history length equal to the index width, capped
    /// at [`Gshare::DEFAULT_MAX_HISTORY`] bits.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a power of two.
    pub fn new(size_bytes: usize) -> Self {
        let table = PredictionTable::two_bit(size_bytes * 4);
        let bits = table.index_bits().min(Self::DEFAULT_MAX_HISTORY);
        Self::build(table, bits)
    }

    /// Creates a gshare with an explicit history length.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a power of two, or if `history_len` is
    /// zero or exceeds the table index width.
    pub fn with_history_len(size_bytes: usize, history_len: u32) -> Self {
        let table = PredictionTable::two_bit(size_bytes * 4);
        assert!(
            history_len >= 1 && history_len <= table.index_bits(),
            "history length {history_len} outside 1..={}",
            table.index_bits()
        );
        Self::build(table, history_len)
    }

    fn build(table: PredictionTable, history_len: u32) -> Self {
        Self {
            history: HistoryRegister::new(history_len),
            history_len,
            table,
        }
    }

    /// The configured history length in bits.
    pub fn history_len(&self) -> u32 {
        self.history_len
    }

    fn index(&self, pc: BranchAddr) -> u64 {
        self.index_for(pc, self.history.bits(self.history_len))
    }

    /// The table index for `pc` under a given raw history value — the pure
    /// form of the index function, shared by [`DynamicPredictor::predict_update`]
    /// and [`DynamicPredictor::probe_indices`].
    fn index_for(&self, pc: BranchAddr, history: u64) -> u64 {
        let hist_mask = if self.history_len >= 64 {
            u64::MAX
        } else {
            (1u64 << self.history_len) - 1
        };
        (pc.word_index() ^ (history & hist_mask)) & self.table.index_mask()
    }
}

impl DynamicPredictor for Gshare {
    fn name(&self) -> &'static str {
        "gshare"
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

    /// The batched hot path: the whole `lookup_train` body inlined over the
    /// table's interleaved slots, with the history register, masks and
    /// statistics in locals for the batch. Observable behavior is pinned to the scalar
    /// protocol by `batch_matches_scalar_protocol` below and the lockstep
    /// property tests.
    fn predict_update_batch(&mut self, events: &[BranchEvent], out: &mut Vec<Prediction>) {
        let index_mask = self.table.index_mask();
        // Equals the history register's own length mask: `build` sizes the
        // register to exactly `history_len` bits.
        let hist_mask = if self.history_len >= 64 {
            u64::MAX
        } else {
            (1u64 << self.history_len) - 1
        };
        let mut history = self.history.value();
        let mut collisions = 0u64;
        {
            let (slots, max) = self.table.batch_parts();
            let half = max / 2;
            // `extend` over a `TrustedLen` iterator: one reservation for the
            // whole batch, no per-event capacity check.
            out.extend(events.iter().map(|e| {
                let i = ((e.pc.word_index() ^ history) & index_mask) as usize;
                let tag = fold_tag(e.pc);
                let entry = slots[i];
                let c = entry as u8;
                let collided = (c & VALID != 0) & ((entry >> TAG_SHIFT) as u32 != tag);
                collisions += u64::from(collided);
                let v = c & COUNTER_MASK;
                let taken = e.taken;
                let up = u8::from(taken) & u8::from(v < max);
                let down = u8::from(!taken) & u8::from(v > 0);
                slots[i] = pack_entry(VALID | (v + up - down), tag);
                history = ((history << 1) | u64::from(taken)) & hist_mask;
                Prediction {
                    taken: v > half,
                    collision: collided,
                }
            }));
        }
        self.table.add_batch_stats(events.len() as u64, collisions);
        self.history.set_bits(history);
    }

    fn shift_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.table.collisions()
    }

    fn history_bits(&self) -> u32 {
        self.history_len
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
    fn learns_biased_branches() {
        let mut p = Gshare::new(1024);
        let pc = BranchAddr(0x40);
        for _ in 0..50 {
            p.predict_update(pc, true);
        }
        assert!(p.predict_update(pc, true).taken);
    }

    #[test]
    fn learns_history_patterns() {
        let mut p = Gshare::new(1024);
        let pc = BranchAddr(0x40);
        let pattern = [true, true, false];
        let mut correct = 0;
        for i in 0..3000 {
            let outcome = pattern[i % 3];
            let pred = p.predict_update(pc, outcome);
            if i >= 2000 && pred.taken == outcome {
                correct += 1;
            }
        }
        assert!(correct as f64 / 1000.0 > 0.99);
    }

    #[test]
    fn pc_separates_branches_with_identical_history() {
        // Same interleaving as the ghist aliasing test; gshare's PC term
        // should place the two branches in different entries most of the
        // time.
        let mut p = Gshare::new(1024);
        let a = BranchAddr(0x100);
        let b = BranchAddr(0x900);
        let mut a_correct = 0;
        let mut b_correct = 0;
        for i in 0..500 {
            let pa = p.predict_update(a, true);
            if i >= 100 && pa.taken {
                a_correct += 1;
            }
            let pb = p.predict_update(b, false);
            if i >= 100 && !pb.taken {
                b_correct += 1;
            }
        }
        assert!(
            a_correct > 390 && b_correct > 390,
            "{a_correct} {b_correct}"
        );
    }

    #[test]
    fn short_history_configuration_is_respected() {
        let p = Gshare::with_history_len(4096, 6);
        assert_eq!(p.history_len(), 6);
        assert_eq!(p.table.index_bits(), 14);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn oversized_history_rejected() {
        let _ = Gshare::with_history_len(64, 20); // 256 counters => 8 index bits
    }

    #[test]
    fn probe_indices_match_the_live_index_function() {
        let mut p = Gshare::new(1024);
        for bit in [true, false, true, true, false] {
            p.shift_history(bit);
        }
        let pc = BranchAddr(0x123c);
        let mut probes = Vec::new();
        assert!(p.probe_indices(pc, p.history.value(), &mut probes));
        assert_eq!(probes, vec![(0, p.index(pc))]);
        assert_eq!(p.history_bits(), p.history_len());
    }

    #[test]
    fn batch_matches_scalar_protocol() {
        // The hand-hoisted batch loop against the scalar `predict_update`,
        // event for event, across batch sizes that cover empty, single-event
        // and multi-event calls.
        let mut state = 0xfeed_face_cafe_beefu64;
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
        let mut batched = Gshare::new(1024);
        let mut scalar = Gshare::new(1024);
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
        }
        assert_eq!(batched.table.lookups(), scalar.table.lookups());
    }

    #[test]
    fn index_mixes_history() {
        let mut p = Gshare::new(64);
        let pc = BranchAddr(0x100);
        let i0 = p.index(pc);
        p.shift_history(true);
        let i1 = p.index(pc);
        assert_ne!(i0, i1, "history must perturb the index");
    }
}
