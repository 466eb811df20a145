//! The e-gskew majority-vote predictor.

use crate::history::{fold_bits, HistoryRegister};
use crate::index_lut::PackedIndexLut;
use crate::index_spec::IndexSpec;
use crate::skew::skew;
use crate::table::{fold_tag, pack_entry, swar, PredictionTable, COUNTER_MASK, TAG_SHIFT, VALID};
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::{BranchAddr, BranchEvent};

/// The enhanced skewed predictor (Michaud, Seznec & Uhlig).
///
/// Three equally sized banks — a PC-indexed bimodal bank and two
/// history-indexed banks hashed with *different* skewing functions
/// ([`crate::skew`]) — vote on the prediction. Two branches colliding in one
/// bank almost never collide in the others, so the majority vote masks
/// single-bank destructive aliasing.
///
/// Update is the partial policy that the 2bcgskew paper calls "enhanced":
/// on a misprediction all three banks train; on a correct prediction only
/// the banks that voted with the outcome train (banks that were outvoted are
/// left alone — they may be serving another branch).
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{DynamicPredictor, EGskew};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = EGskew::new(3 * 1024); // three 1 KB banks
/// p.predict_update(BranchAddr(0x20), true);
/// ```
#[derive(Debug, Clone)]
pub struct EGskew {
    bim: PredictionTable,
    g0: PredictionTable,
    g1: PredictionTable,
    history: HistoryRegister,
    h0_len: u32,
    h1_len: u32,
    /// Byte-sliced GF(2) factorization of the three bank indices, packed
    /// 16 bits per bank; `None` only when a bank outgrows the 16-bit lanes.
    lut: Option<PackedIndexLut>,
}

impl EGskew {
    /// Creates an e-gskew predictor; each of the three banks receives one
    /// third of the `size_bytes` counter budget.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes / 3` rounds to a non-power-of-two table (pass
    /// `3 * 2^k` bytes) or is zero.
    pub fn new(size_bytes: usize) -> Self {
        let per_bank = size_bytes / 3;
        assert!(per_bank > 0, "e-gskew needs at least 3 bytes");
        let bim = PredictionTable::two_bit(per_bank * 4);
        let g0 = PredictionTable::two_bit(per_bank * 4);
        let g1 = PredictionTable::two_bit(per_bank * 4);
        let n = g0.index_bits();
        // Shorter history on g0, full-width history on g1: diversity in both
        // hash function *and* history reach.
        let h0_len = (n / 2).max(1);
        let h1_len = n;
        let mut p = Self {
            history: HistoryRegister::new(h1_len.max(1)),
            bim,
            g0,
            g1,
            h0_len,
            h1_len,
            lut: None,
        };
        // The packed LUT gives each bank a 16-bit lane; every realistic
        // configuration fits (16 index bits = 256 Ki-counter banks).
        if n <= 16 && p.bim.index_bits() <= 16 {
            p.lut = Some(PackedIndexLut::build(2 * n, p.history.len(), |w, h| {
                let (ib, i0, i1) = p.indices_raw(w, h);
                ib | i0 << 16 | i1 << 32
            }));
        }
        p
    }

    fn indices(&self, pc: BranchAddr) -> (u64, u64, u64) {
        self.indices_for(pc, self.history.value())
    }

    /// The three bank indices for `pc` under a raw history value — the pure
    /// form of the index functions, shared by the predict path and
    /// [`DynamicPredictor::probe_indices`]. Every ingredient (bit selects,
    /// XOR folds, the [`crate::skew`] hashes) is GF(2)-linear, so the whole
    /// triple is too.
    fn indices_for(&self, pc: BranchAddr, history: u64) -> (u64, u64, u64) {
        self.indices_raw(pc.word_index(), history)
    }

    fn indices_raw(&self, w: u64, history: u64) -> (u64, u64, u64) {
        let n = self.g0.index_bits();
        let lo = w & self.g0.index_mask();
        let hi = (w >> n) & self.g0.index_mask();
        let f0 = fold_bits(history, self.h0_len, n);
        let f1 = fold_bits(history, self.h1_len, n);
        let bim_index = w & self.bim.index_mask();
        let g0_index = skew(1, lo ^ f0, hi, f0, n);
        let g1_index = skew(2, lo ^ f1, hi, f1, n);
        (bim_index, g0_index, g1_index)
    }
}

impl DynamicPredictor for EGskew {
    fn name(&self) -> &'static str {
        "e-gskew"
    }

    fn size_bytes(&self) -> usize {
        self.bim.size_bytes() + self.g0.size_bytes() + self.g1.size_bytes()
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let (bim_index, g0_index, g1_index) = self.indices(pc);
        let (v0, c0) = self.bim.lookup(bim_index, pc);
        let (v1, c1) = self.g0.lookup(g0_index, pc);
        let (v2, c2) = self.g1.lookup(g1_index, pc);
        let predicted = (u8::from(v0) + u8::from(v1) + u8::from(v2)) >= 2;
        let mispredicted = predicted != taken;
        let banks: [(&mut PredictionTable, u64, bool); 3] = [
            (&mut self.bim, bim_index, v0),
            (&mut self.g0, g0_index, v1),
            (&mut self.g1, g1_index, v2),
        ];
        for (table, index, vote) in banks {
            if mispredicted || vote == taken {
                table.train(index, taken);
            }
        }
        self.history.push(taken);
        Prediction {
            taken: predicted,
            collision: c0 || c1 || c2,
        }
    }

    /// The batched hot path: the three bank bytes are gathered into SWAR
    /// lanes, voted and saturated in one lane-parallel pass per event, and
    /// scattered back. Index formation factors through the packed GF(2)
    /// byte tables built in [`EGskew::new`] from `indices_for` (which stays
    /// the single source of truth for `probe_indices`/`index_spec`), so the
    /// per-event folds and skew hashes become a few L1 loads. Pinned by
    /// `batch_matches_scalar_protocol` below and the crate's
    /// batch-equivalence property tests.
    fn predict_update_batch(&mut self, events: &[BranchEvent], out: &mut Vec<Prediction>) {
        let n = self.g0.index_bits();
        let bim_mask = self.bim.index_mask();
        let g_mask = self.g0.index_mask();
        let (h0_len, h1_len) = (self.h0_len, self.h1_len);
        let hist_len = self.history.len();
        let hist_mask = if hist_len >= 64 {
            u64::MAX
        } else {
            (1u64 << hist_len) - 1
        };
        let mut history = self.history.value();
        let mut collisions = [0u64; 3];
        {
            let lut = &self.lut;
            let (bim_s, max) = self.bim.batch_parts();
            let (g0_s, _) = self.g0.batch_parts();
            let (g1_s, _) = self.g1.batch_parts();
            // Masks derived from the slice lengths (powers of two), so the
            // compiler can prove every access in-bounds and skip the checks.
            let bm = bim_s.len() - 1;
            let gm = g0_s.len() - 1;
            let half = max / 2;
            let max_splat = swar::splat(max);
            let gt_bias = swar::splat(0x7f - half);
            out.extend(events.iter().map(|e| {
                let w = e.pc.word_index();
                let (ib, i0, i1) = match lut {
                    Some(lut) => {
                        let packed = lut.packed(w, history);
                        (
                            (packed & 0xffff) as usize & bm,
                            ((packed >> 16) & 0xffff) as usize & gm,
                            ((packed >> 32) & 0xffff) as usize & gm,
                        )
                    }
                    None => {
                        let lo = w & g_mask;
                        let hi = (w >> n) & g_mask;
                        let f0 = fold_bits(history, h0_len, n);
                        let f1 = fold_bits(history, h1_len, n);
                        (
                            (w & bim_mask) as usize & bm,
                            skew(1, lo ^ f0, hi, f0, n) as usize & gm,
                            skew(2, lo ^ f1, hi, f1, n) as usize & gm,
                        )
                    }
                };
                let tag = fold_tag(e.pc);
                let (eb, e0, e1) = (bim_s[ib], g0_s[i0], g1_s[i1]);
                let (cb, c0, c1) = (eb as u8, e0 as u8, e1 as u8);
                let collided = [
                    (cb & VALID != 0) & ((eb >> TAG_SHIFT) as u32 != tag),
                    (c0 & VALID != 0) & ((e0 >> TAG_SHIFT) as u32 != tag),
                    (c1 & VALID != 0) & ((e1 >> TAG_SHIFT) as u32 != tag),
                ];
                collisions[0] += u64::from(collided[0]);
                collisions[1] += u64::from(collided[1]);
                collisions[2] += u64::from(collided[2]);
                // SWAR lanes: [0] = BIM, [1] = G0, [2] = G1.
                let v = u64::from(cb & COUNTER_MASK)
                    | u64::from(c0 & COUNTER_MASK) << 8
                    | u64::from(c1 & COUNTER_MASK) << 16;
                let votes = swar::lanes_gt(v, gt_bias);
                let taken_pred = (votes & 0x01_0101).count_ones() >= 2;
                let taken = e.taken;
                let mispredicted = taken_pred != taken;
                let taken_lanes = u64::from(taken) * 0x01_0101;
                // Partial update: every bank on a misprediction, otherwise
                // only the banks whose vote matched the outcome.
                let agreeing = (votes ^ taken_lanes) ^ 0x01_0101;
                let enable = if mispredicted { 0x01_0101 } else { agreeing };
                let stepped = swar::step(v, taken_lanes, enable, max_splat);
                bim_s[ib] = pack_entry(VALID | (stepped as u8), tag);
                g0_s[i0] = pack_entry(VALID | ((stepped >> 8) as u8), tag);
                g1_s[i1] = pack_entry(VALID | ((stepped >> 16) as u8), tag);
                history = ((history << 1) | u64::from(taken)) & hist_mask;
                Prediction {
                    taken: taken_pred,
                    collision: collided[0] | collided[1] | collided[2],
                }
            }));
        }
        self.bim.add_batch_stats(events.len() as u64, collisions[0]);
        self.g0.add_batch_stats(events.len() as u64, collisions[1]);
        self.g1.add_batch_stats(events.len() as u64, collisions[2]);
        self.history.set_bits(history);
    }

    fn shift_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.bim.collisions() + self.g0.collisions() + self.g1.collisions()
    }

    fn history_bits(&self) -> u32 {
        self.h1_len
    }

    fn probe_indices(&self, pc: BranchAddr, history: u64, out: &mut Vec<(u32, u64)>) -> bool {
        let (bim_index, g0_index, g1_index) = self.indices_for(pc, history);
        out.push((0, bim_index));
        out.push((1, g0_index));
        out.push((2, g1_index));
        true
    }

    fn index_spec(&self) -> Option<IndexSpec> {
        Some(IndexSpec::from_linear_probe(
            self,
            &[
                self.bim.index_bits(),
                self.g0.index_bits(),
                self.g1.index_bits(),
            ],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banks_share_budget_equally() {
        let p = EGskew::new(3 * 1024);
        assert_eq!(p.bim.size_bytes(), 1024);
        assert_eq!(p.g0.size_bytes(), 1024);
        assert_eq!(p.g1.size_bytes(), 1024);
    }

    #[test]
    fn learns_biased_and_pattern_branches() {
        let mut p = EGskew::new(3 * 256);
        let pc = BranchAddr(0x40);
        for _ in 0..30 {
            p.predict_update(pc, true);
        }
        assert!(p.predict_update(pc, true).taken);

        let pattern = [true, false];
        let mut correct = 0;
        for i in 0..2000 {
            let outcome = pattern[i % 2];
            let pred = p.predict_update(pc, outcome);
            if i >= 1500 && pred.taken == outcome {
                correct += 1;
            }
        }
        assert!(correct > 480, "pattern accuracy {correct}/500");
    }

    /// Drives all three banks at the branch's current indices to a known
    /// strong state: `dirs[k]` per bank.
    fn force_votes(p: &mut EGskew, pc: BranchAddr, dirs: [bool; 3]) {
        let (bi, g0i, g1i) = p.indices(pc);
        for _ in 0..4 {
            p.bim.train(bi, dirs[0]);
            p.g0.train(g0i, dirs[1]);
            p.g1.train(g1i, dirs[2]);
        }
    }

    #[test]
    fn majority_vote_masks_single_bank_corruption() {
        // With two banks strongly taken and one corrupted to not-taken, the
        // vote must still be taken.
        let mut p = EGskew::new(3 * 64);
        let victim = BranchAddr(0x100);
        force_votes(&mut p, victim, [true, false, true]);
        let pred = p.predict_update(victim, true);
        assert!(pred.taken, "two healthy banks outvote the corrupted one");
    }

    #[test]
    fn partial_update_leaves_outvoted_banks_alone() {
        let mut p = EGskew::new(3 * 64);
        let pc = BranchAddr(0x200);
        force_votes(&mut p, pc, [true, false, true]);
        let (_, g0i, _) = p.indices(pc);
        let before = p.g0.counter(g0i).value();
        // A correct final prediction, with g0 voting not-taken.
        let pred = p.predict_update(pc, true);
        assert!(pred.taken);
        let after = p.g0.counter(g0i).value();
        assert_eq!(
            after, before,
            "outvoted bank must not train on a correct prediction"
        );
    }

    #[test]
    fn misprediction_retrains_all_banks() {
        let mut p = EGskew::new(3 * 64);
        let pc = BranchAddr(0x200);
        force_votes(&mut p, pc, [false, false, false]);
        let (bi, g0i, g1i) = p.indices(pc);
        let pred = p.predict_update(pc, true);
        assert!(!pred.taken, "mispredicted");
        assert!(p.bim.counter(bi).value() > 0);
        assert!(p.g0.counter(g0i).value() > 0);
        assert!(p.g1.counter(g1i).value() > 0);
    }

    #[test]
    fn probe_indices_match_the_live_index_functions() {
        let mut p = EGskew::new(3 * 256);
        for bit in [true, true, false, true, false, false, true] {
            p.shift_history(bit);
        }
        let pc = BranchAddr(0x1f3c);
        let (bi, g0i, g1i) = p.indices(pc);
        let mut probes = Vec::new();
        assert!(p.probe_indices(pc, p.history.value(), &mut probes));
        assert_eq!(probes, vec![(0, bi), (1, g0i), (2, g1i)]);
        assert_eq!(DynamicPredictor::history_bits(&p), p.h1_len);
    }

    #[test]
    fn batch_matches_scalar_protocol() {
        let mut state = 0x0dd5_eed5_1234_5678u64;
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
        let mut batched = EGskew::new(3 * 128);
        let mut scalar = EGskew::new(3 * 128);
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
        for (b, s) in [
            (&batched.bim, &scalar.bim),
            (&batched.g0, &scalar.g0),
            (&batched.g1, &scalar.g1),
        ] {
            assert_eq!(b.lookups(), s.lookups());
            assert_eq!(b.collisions(), s.collisions());
        }
    }

    #[test]
    fn collisions_counted_across_banks() {
        let mut p = EGskew::new(3 * 16);
        for i in 0..500u64 {
            let pc = BranchAddr(i * 4 % 0x4000);
            p.predict_update(pc, i % 3 == 0);
        }
        assert!(p.total_collisions() > 0);
    }
}
