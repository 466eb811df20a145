//! The 2bcgskew hybrid predictor.

use crate::history::{fold_bits, HistoryRegister};
use crate::index_lut::PackedIndexLut;
use crate::skew::skew;
use crate::table::{fold_tag, pack_entry, swar, PredictionTable, COUNTER_MASK, TAG_SHIFT, VALID};
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::{BranchAddr, BranchEvent};

/// Seznec & Michaud's 2bcgskew — the strongest dynamic predictor in the
/// paper's evaluation.
///
/// Four equally sized banks:
///
/// * **BIM** — a PC-indexed bimodal bank, used both as a standalone
///   component and as one voter of the skewed component,
/// * **G0, G1** — history-indexed banks hashed with distinct skewing
///   functions and different history lengths,
/// * **META** — a gshare-indexed chooser between BIM and the
///   majority-of-three (BIM, G0, G1) "c-gskew" vote.
///
/// Partial update exactly as the paper describes:
///
/// * on a **bad** overall prediction all three c-gskew banks train;
/// * on a **correct** overall prediction only the banks participating in the
///   correct prediction train (BIM when the meta chose BIM; the agreeing
///   voters when it chose the vote);
/// * META trains only when BIM and the vote disagree — reinforced on a good
///   prediction, pushed toward the other component on a bad one.
///
/// The per-bank history lengths are configurable
/// ([`TwoBcGskew::with_history_lens`]); the default sets G0 to half the
/// index width and G1/META to ~1.5× the index width (folded), which a sweep
/// over our workloads found competitive — the paper likewise selected the
/// best lengths per configuration.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{DynamicPredictor, TwoBcGskew};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = TwoBcGskew::new(8 * 1024);
/// assert_eq!(p.size_bytes(), 8 * 1024);
/// p.predict_update(BranchAddr(0x77c), false);
/// ```
#[derive(Debug, Clone)]
pub struct TwoBcGskew {
    bim: PredictionTable,
    g0: PredictionTable,
    g1: PredictionTable,
    meta: PredictionTable,
    history: HistoryRegister,
    h_g0: u32,
    h_g1: u32,
    h_meta: u32,
    /// Packed GF(2) byte tables collapsing all four bank indices into one
    /// lookup for the batch path; `None` when an index exceeds 16 bits.
    lut: Option<PackedIndexLut>,
}

impl TwoBcGskew {
    /// Creates a 2bcgskew with default per-bank history lengths.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes / 4` is not a positive power of two.
    pub fn new(size_bytes: usize) -> Self {
        let per_bank_bytes = size_bytes / 4;
        assert!(per_bank_bytes > 0, "2bcgskew needs at least 4 bytes");
        let n = PredictionTable::two_bit(per_bank_bytes * 4).index_bits();
        let h_g0 = (n / 2).max(1);
        let h_g1 = (n + n / 2).min(64);
        let h_meta = n.min(64);
        Self::with_history_lens(size_bytes, h_g0, h_g1, h_meta)
    }

    /// Creates a 2bcgskew with explicit per-bank history lengths
    /// (G0, G1, META). Lengths longer than the index width are XOR-folded.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes / 4` is not a positive power of two, or any
    /// length is zero or exceeds 64.
    pub fn with_history_lens(size_bytes: usize, h_g0: u32, h_g1: u32, h_meta: u32) -> Self {
        let per_bank_bytes = size_bytes / 4;
        assert!(per_bank_bytes > 0, "2bcgskew needs at least 4 bytes");
        let bim = PredictionTable::two_bit(per_bank_bytes * 4);
        let g0 = PredictionTable::two_bit(per_bank_bytes * 4);
        let g1 = PredictionTable::two_bit(per_bank_bytes * 4);
        let meta = PredictionTable::two_bit(per_bank_bytes * 4);
        let max_h = h_g0.max(h_g1).max(h_meta);
        assert!((1..=64).contains(&max_h), "history length out of range");
        let mut p = Self {
            history: HistoryRegister::new(max_h),
            bim,
            g0,
            g1,
            meta,
            h_g0,
            h_g1,
            h_meta,
            lut: None,
        };
        let n = p.g0.index_bits();
        if n <= 16 && p.bim.index_bits() <= 16 {
            p.lut = Some(PackedIndexLut::build(2 * n, max_h, |w, h| {
                let (ib, i0, i1, im) = p.indices_raw(w, h);
                ib | i0 << 16 | i1 << 32 | im << 48
            }));
        }
        p
    }

    /// The (G0, G1, META) history lengths.
    pub fn history_lens(&self) -> (u32, u32, u32) {
        (self.h_g0, self.h_g1, self.h_meta)
    }

    fn indices(&self, pc: BranchAddr) -> (u64, u64, u64, u64) {
        self.indices_raw(pc.word_index(), self.history.value())
    }

    /// The four bank indices as a pure GF(2)-linear function of the PC word
    /// and a raw history value — the single source of truth that both the
    /// scalar path and the packed lookup tables are built from.
    fn indices_raw(&self, w: u64, history: u64) -> (u64, u64, u64, u64) {
        let n = self.g0.index_bits();
        let lo = w & self.g0.index_mask();
        let hi = (w >> n) & self.g0.index_mask();
        let f0 = fold_bits(history, self.h_g0, n);
        let f1 = fold_bits(history, self.h_g1, n);
        let fm = fold_bits(history, self.h_meta, n);
        let bim_index = w & self.bim.index_mask();
        let g0_index = skew(1, lo ^ f0, hi, f0, n);
        let g1_index = skew(2, lo ^ f1, hi, f1, n);
        let meta_index = (lo ^ fm) & self.meta.index_mask();
        (bim_index, g0_index, g1_index, meta_index)
    }
}

impl DynamicPredictor for TwoBcGskew {
    fn name(&self) -> &'static str {
        "2bcgskew"
    }

    fn size_bytes(&self) -> usize {
        self.bim.size_bytes() + self.g0.size_bytes() + self.g1.size_bytes() + self.meta.size_bytes()
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let (bim_index, g0_index, g1_index, meta_index) = self.indices(pc);
        let (bim_pred, c_bim) = self.bim.lookup(bim_index, pc);
        let (g0_pred, c_g0) = self.g0.lookup(g0_index, pc);
        let (g1_pred, c_g1) = self.g1.lookup(g1_index, pc);
        let (use_vote, c_meta) = self.meta.lookup(meta_index, pc);
        let vote_pred = (u8::from(bim_pred) + u8::from(g0_pred) + u8::from(g1_pred)) >= 2;
        let final_pred = if use_vote { vote_pred } else { bim_pred };
        if final_pred != taken {
            // Bad prediction: retrain all three c-gskew banks.
            self.bim.train(bim_index, taken);
            self.g0.train(g0_index, taken);
            self.g1.train(g1_index, taken);
        } else if use_vote {
            // Correct via the vote: train only the agreeing voters.
            if bim_pred == taken {
                self.bim.train(bim_index, taken);
            }
            if g0_pred == taken {
                self.g0.train(g0_index, taken);
            }
            if g1_pred == taken {
                self.g1.train(g1_index, taken);
            }
        } else {
            // Correct via BIM alone.
            self.bim.train(bim_index, taken);
        }
        // META trains only when the components disagree.
        if bim_pred != vote_pred {
            self.meta.train(meta_index, vote_pred == taken);
        }
        self.history.push(taken);
        Prediction {
            taken: final_pred,
            collision: c_bim || c_g0 || c_g1 || c_meta,
        }
    }

    /// The batched hot path: all four bank bytes (BIM, G0, G1, META) are
    /// gathered into SWAR lanes and saturated in one lane-parallel pass per
    /// event. Index formation factors through the packed GF(2) byte tables
    /// built in [`TwoBcGskew::with_history_lens`] from `indices_raw`, so the
    /// three history folds and two skew hashes per event become a few L1
    /// loads. The paper's partial-update policy becomes a per-lane enable
    /// mask, and the META lane trains toward its own direction (`vote ==
    /// outcome`) rather than the branch outcome — which is why the step
    /// helper takes per-lane rather than broadcast outcomes. Pinned by
    /// `batch_matches_scalar_protocol` below and the crate's
    /// batch-equivalence property tests.
    fn predict_update_batch(&mut self, events: &[BranchEvent], out: &mut Vec<Prediction>) {
        let n = self.g0.index_bits();
        let bim_mask = self.bim.index_mask();
        let g_mask = self.g0.index_mask();
        let meta_mask = self.meta.index_mask();
        let (h_g0, h_g1, h_meta) = (self.h_g0, self.h_g1, self.h_meta);
        let hist_len = self.history.len();
        let hist_mask = if hist_len >= 64 {
            u64::MAX
        } else {
            (1u64 << hist_len) - 1
        };
        let mut history = self.history.value();
        let mut collisions = [0u64; 4];
        {
            let lut = &self.lut;
            let (bim_s, max) = self.bim.batch_parts();
            let (g0_s, _) = self.g0.batch_parts();
            let (g1_s, _) = self.g1.batch_parts();
            let (meta_s, _) = self.meta.batch_parts();
            // Masks derived from the slice lengths (powers of two), so the
            // compiler can prove every access in-bounds and skip the checks.
            let bm = bim_s.len() - 1;
            let gm = g0_s.len() - 1;
            let mm = meta_s.len() - 1;
            let half = max / 2;
            let max_splat = swar::splat(max);
            let gt_bias = swar::splat(0x7f - half);
            out.extend(events.iter().map(|e| {
                let w = e.pc.word_index();
                let (ib, i0, i1, im) = match lut {
                    Some(lut) => {
                        let packed = lut.packed(w, history);
                        (
                            (packed & 0xffff) as usize & bm,
                            ((packed >> 16) & 0xffff) as usize & gm,
                            ((packed >> 32) & 0xffff) as usize & gm,
                            ((packed >> 48) & 0xffff) as usize & mm,
                        )
                    }
                    None => {
                        let lo = w & g_mask;
                        let hi = (w >> n) & g_mask;
                        let f0 = fold_bits(history, h_g0, n);
                        let f1 = fold_bits(history, h_g1, n);
                        let fm = fold_bits(history, h_meta, n);
                        (
                            (w & bim_mask) as usize & bm,
                            skew(1, lo ^ f0, hi, f0, n) as usize & gm,
                            skew(2, lo ^ f1, hi, f1, n) as usize & gm,
                            ((lo ^ fm) & meta_mask) as usize & mm,
                        )
                    }
                };
                let tag = fold_tag(e.pc);
                let (eb, e0, e1, em) = (bim_s[ib], g0_s[i0], g1_s[i1], meta_s[im]);
                let (cb, c0, c1, cm) = (eb as u8, e0 as u8, e1 as u8, em as u8);
                let collided = [
                    (cb & VALID != 0) & ((eb >> TAG_SHIFT) as u32 != tag),
                    (c0 & VALID != 0) & ((e0 >> TAG_SHIFT) as u32 != tag),
                    (c1 & VALID != 0) & ((e1 >> TAG_SHIFT) as u32 != tag),
                    (cm & VALID != 0) & ((em >> TAG_SHIFT) as u32 != tag),
                ];
                collisions[0] += u64::from(collided[0]);
                collisions[1] += u64::from(collided[1]);
                collisions[2] += u64::from(collided[2]);
                collisions[3] += u64::from(collided[3]);
                // SWAR lanes: [0] = BIM, [1] = G0, [2] = G1, [3] = META.
                let v = u64::from(cb & COUNTER_MASK)
                    | u64::from(c0 & COUNTER_MASK) << 8
                    | u64::from(c1 & COUNTER_MASK) << 16
                    | u64::from(cm & COUNTER_MASK) << 24;
                let preds = swar::lanes_gt(v, gt_bias);
                let bim_pred = preds & 0x01 != 0;
                let use_vote = preds & 0x0100_0000 != 0;
                let vote_pred = (preds & 0x01_0101).count_ones() >= 2;
                let final_pred = if use_vote { vote_pred } else { bim_pred };
                let taken = e.taken;
                let correct = final_pred == taken;
                let taken_lanes3 = u64::from(taken) * 0x01_0101;
                // The paper's partial update as a 3-lane enable mask: all
                // c-gskew banks on a misprediction; only the agreeing voters
                // on a correct vote-routed prediction; BIM alone otherwise.
                let agreeing = ((preds & 0x01_0101) ^ taken_lanes3) ^ 0x01_0101;
                let enable3 = if !correct {
                    0x01_0101
                } else if use_vote {
                    agreeing
                } else {
                    0x01
                };
                // META trains only when the components disagree, toward
                // "the vote was right".
                let meta_trains = bim_pred != vote_pred;
                let meta_dir = vote_pred == taken;
                let enable = enable3 | u64::from(meta_trains) << 24;
                let taken_lanes = taken_lanes3 | u64::from(meta_dir) << 24;
                let stepped = swar::step(v, taken_lanes, enable, max_splat);
                bim_s[ib] = pack_entry(VALID | (stepped as u8), tag);
                g0_s[i0] = pack_entry(VALID | ((stepped >> 8) as u8), tag);
                g1_s[i1] = pack_entry(VALID | ((stepped >> 16) as u8), tag);
                meta_s[im] = pack_entry(VALID | ((stepped >> 24) as u8), tag);
                history = ((history << 1) | u64::from(taken)) & hist_mask;
                Prediction {
                    taken: final_pred,
                    collision: collided[0] | collided[1] | collided[2] | collided[3],
                }
            }));
        }
        self.bim.add_batch_stats(events.len() as u64, collisions[0]);
        self.g0.add_batch_stats(events.len() as u64, collisions[1]);
        self.g1.add_batch_stats(events.len() as u64, collisions[2]);
        self.meta
            .add_batch_stats(events.len() as u64, collisions[3]);
        self.history.set_bits(history);
    }

    fn shift_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.bim.collisions() + self.g0.collisions() + self.g1.collisions() + self.meta.collisions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_equal_banks() {
        let p = TwoBcGskew::new(8192);
        assert_eq!(p.bim.size_bytes(), 2048);
        assert_eq!(p.meta.size_bytes(), 2048);
        assert_eq!(p.size_bytes(), 8192);
    }

    #[test]
    fn default_history_lengths_are_graded() {
        let p = TwoBcGskew::new(8192);
        let (h0, h1, hm) = p.history_lens();
        assert!(h0 < h1, "G0 uses a shorter history than G1");
        assert!(hm >= 1);
    }

    #[test]
    fn learns_biased_branches() {
        let mut p = TwoBcGskew::new(1024);
        let pc = BranchAddr(0x40);
        for _ in 0..30 {
            p.predict_update(pc, true);
        }
        assert!(p.predict_update(pc, true).taken);
    }

    #[test]
    fn learns_alternation_via_history_banks() {
        let mut p = TwoBcGskew::new(1024);
        let pc = BranchAddr(0x40);
        let mut correct = 0;
        for i in 0..4000 {
            let outcome = i % 2 == 0;
            let pred = p.predict_update(pc, outcome);
            if i >= 3000 && pred.taken == outcome {
                correct += 1;
            }
        }
        assert!(correct > 980, "alternation accuracy {correct}/1000");
    }

    #[test]
    fn meta_learns_to_prefer_bimodal_for_noisy_biased_branches() {
        // A branch that is 85% taken with no pattern: BIM is the right
        // component. After training, the meta should mostly route to BIM
        // when the components disagree. We check overall accuracy ~ bias.
        let mut p = TwoBcGskew::new(2048);
        let pc = BranchAddr(0x80);
        let mut correct = 0;
        let mut measured = 0;
        let mut state = 0x12345678u64;
        for i in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let outcome = (state >> 33) % 100 < 85;
            let pred = p.predict_update(pc, outcome);
            if i >= 10_000 {
                measured += 1;
                if pred.taken == outcome {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / measured as f64;
        assert!(acc > 0.80, "noisy-bias accuracy {acc}");
    }

    #[test]
    fn batch_matches_scalar_protocol() {
        let mut state = 0x2bc6_5e00_0ff0_beefu64;
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
        let mut batched = TwoBcGskew::new(512);
        let mut scalar = TwoBcGskew::new(512);
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
            (&batched.meta, &scalar.meta),
        ] {
            assert_eq!(b.lookups(), s.lookups());
            assert_eq!(b.collisions(), s.collisions());
        }
    }

    #[test]
    fn collisions_and_history_shift() {
        let mut p = TwoBcGskew::new(64);
        for i in 0..500u64 {
            let pc = BranchAddr((i * 4) % 0x1000);
            p.predict_update(pc, i % 2 == 0);
        }
        assert!(p.total_collisions() > 0);
        let before = p.history.value();
        p.shift_history(true);
        assert_ne!(p.history.value(), before);
    }
}
