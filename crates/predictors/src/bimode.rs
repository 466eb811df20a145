//! The bi-mode hybrid predictor.

use crate::history::HistoryRegister;
use crate::table::{fold_tag, pack_entry, swar, PredictionTable, COUNTER_MASK, TAG_SHIFT, VALID};
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::{BranchAddr, BranchEvent};

/// The bi-mode predictor (Lee, Chen & Mudge).
///
/// Destructive aliasing is worst when a mostly-taken branch shares a counter
/// with a mostly-not-taken branch. Bi-mode channels the two populations into
/// **separate gshare direction tables**: a bimodal *choice* table (indexed by
/// PC) picks which direction table predicts, so branches sharing a direction
/// table tend to agree and collisions become constructive.
///
/// Storage split: half the counter budget goes to the choice table, one
/// quarter to each direction table. Direction tables use as many global
/// history bits as their index width (the configuration the paper simulated).
///
/// Update is partial, as in the paper:
/// * only the *selected* direction table is trained;
/// * the choice table is trained with the outcome **except** when its choice
///   opposed the outcome and the selected direction table still predicted
///   correctly (that exception preserves a useful channeling).
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{BiMode, DynamicPredictor};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = BiMode::new(4096);
/// assert_eq!(p.size_bytes(), 4096);
/// p.predict_update(BranchAddr(0x44), true);
/// ```
#[derive(Debug, Clone)]
pub struct BiMode {
    choice: PredictionTable,
    taken_bank: PredictionTable,
    not_taken_bank: PredictionTable,
    history: HistoryRegister,
}

impl BiMode {
    /// Creates a bi-mode predictor with a `size_bytes` counter budget.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is smaller than 2 bytes or not a power of two
    /// (each of the four storage quarters must be a power-of-two table).
    pub fn new(size_bytes: usize) -> Self {
        assert!(
            size_bytes >= 2 && size_bytes.is_power_of_two(),
            "bi-mode size {size_bytes} must be a power of two >= 2"
        );
        let counters = size_bytes * 4;
        let choice = PredictionTable::two_bit(counters / 2);
        let taken_bank = PredictionTable::two_bit(counters / 4);
        let not_taken_bank = PredictionTable::two_bit(counters / 4);
        let history = HistoryRegister::new(taken_bank.index_bits());
        Self {
            choice,
            taken_bank,
            not_taken_bank,
            history,
        }
    }

    fn choice_index(&self, pc: BranchAddr) -> u64 {
        pc.word_index() & self.choice.index_mask()
    }

    fn direction_index(&self, pc: BranchAddr) -> u64 {
        (pc.word_index() ^ self.history.bits(self.taken_bank.index_bits()))
            & self.taken_bank.index_mask()
    }
}

impl DynamicPredictor for BiMode {
    fn name(&self) -> &'static str {
        "bi-mode"
    }

    fn size_bytes(&self) -> usize {
        self.choice.size_bytes() + self.taken_bank.size_bytes() + self.not_taken_bank.size_bytes()
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let choice_index = self.choice_index(pc);
        let (choice_taken, choice_collision) = self.choice.lookup(choice_index, pc);
        let dir_index = self.direction_index(pc);
        // Partial update: only the selected direction bank trains.
        let bank = if choice_taken {
            &mut self.taken_bank
        } else {
            &mut self.not_taken_bank
        };
        let (dir_taken, dir_collision) = bank.lookup_train(dir_index, pc, taken);
        // Choice trains except when it opposed the outcome but the selected
        // bank still got it right.
        if !(choice_taken != taken && dir_taken == taken) {
            self.choice.train(choice_index, taken);
        }
        self.history.push(taken);
        Prediction {
            taken: dir_taken,
            collision: choice_collision || dir_collision,
        }
    }

    /// The batched hot path: per event, the choice byte and the *selected*
    /// direction byte are gathered into two SWAR lanes, thresholded and
    /// saturated in one pass, and scattered back. The unselected bank stays
    /// completely untouched (counters, tags and statistics), exactly as in
    /// the scalar protocol. Pinned by `batch_matches_scalar_protocol` below
    /// and the crate's batch-equivalence property tests.
    fn predict_update_batch(&mut self, events: &[BranchEvent], out: &mut Vec<Prediction>) {
        let choice_mask = self.choice.index_mask();
        let dir_mask = self.taken_bank.index_mask();
        // The register is sized to exactly the direction index width, so its
        // raw value is the full history ingredient.
        let hist_len = self.history.len();
        let hist_mask = if hist_len >= 64 {
            u64::MAX
        } else {
            (1u64 << hist_len) - 1
        };
        let mut history = self.history.value();
        let mut choice_collisions = 0u64;
        // Direction-bank statistics, indexed by the selection bit
        // (`[not-taken, taken]`): only the selected bank's lookup counts.
        let mut dir_lookups = [0u64; 2];
        let mut dir_collisions = [0u64; 2];
        {
            let (choice_s, max) = self.choice.batch_parts();
            let (tk_s, _) = self.taken_bank.batch_parts();
            let (nt_s, _) = self.not_taken_bank.batch_parts();
            let half = max / 2;
            let max_splat = swar::splat(max);
            out.extend(events.iter().map(|e| {
                let w = e.pc.word_index();
                let ci = (w & choice_mask) as usize;
                let di = ((w ^ history) & dir_mask) as usize;
                let tag = fold_tag(e.pc);
                let ce = choice_s[ci];
                let cc = ce as u8;
                let choice_collided = (cc & VALID != 0) & ((ce >> TAG_SHIFT) as u32 != tag);
                choice_collisions += u64::from(choice_collided);
                let choice_taken = cc & COUNTER_MASK > half;
                let sel = usize::from(choice_taken);
                let bank_s = if choice_taken { &mut *tk_s } else { &mut *nt_s };
                let de = bank_s[di];
                let dc = de as u8;
                let dir_collided = (dc & VALID != 0) & ((de >> TAG_SHIFT) as u32 != tag);
                dir_collisions[sel] += u64::from(dir_collided);
                dir_lookups[sel] += 1;
                let dir_taken = dc & COUNTER_MASK > half;
                let taken = e.taken;
                // Choice trains except when it opposed the outcome but the
                // selected bank still got it right; the direction lane
                // always trains.
                let final_correct = dir_taken == taken;
                let choice_opposed = choice_taken != taken;
                let train_choice = !(choice_opposed & final_correct);
                // SWAR lanes: [0] = choice, [1] = selected direction bank.
                let v = u64::from(cc & COUNTER_MASK) | u64::from(dc & COUNTER_MASK) << 8;
                let taken_lanes = u64::from(taken) * 0x0101;
                let enable = u64::from(train_choice) | 0x0100;
                let stepped = swar::step(v, taken_lanes, enable, max_splat);
                choice_s[ci] = pack_entry(VALID | (stepped as u8), tag);
                bank_s[di] = pack_entry(VALID | ((stepped >> 8) as u8), tag);
                history = ((history << 1) | u64::from(taken)) & hist_mask;
                Prediction {
                    taken: dir_taken,
                    collision: choice_collided | dir_collided,
                }
            }));
        }
        self.choice
            .add_batch_stats(events.len() as u64, choice_collisions);
        self.taken_bank
            .add_batch_stats(dir_lookups[1], dir_collisions[1]);
        self.not_taken_bank
            .add_batch_stats(dir_lookups[0], dir_collisions[0]);
        self.history.set_bits(history);
    }

    fn shift_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.choice.collisions() + self.taken_bank.collisions() + self.not_taken_bank.collisions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_split_is_half_quarter_quarter() {
        let p = BiMode::new(4096);
        assert_eq!(p.choice.size_bytes(), 2048);
        assert_eq!(p.taken_bank.size_bytes(), 1024);
        assert_eq!(p.not_taken_bank.size_bytes(), 1024);
        assert_eq!(p.size_bytes(), 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_rejected() {
        let _ = BiMode::new(3000);
    }

    #[test]
    fn learns_biased_branches() {
        let mut p = BiMode::new(1024);
        let pc = BranchAddr(0x80);
        for _ in 0..20 {
            p.predict_update(pc, true);
        }
        assert!(p.predict_update(pc, true).taken);
    }

    #[test]
    fn learns_history_patterns() {
        let mut p = BiMode::new(1024);
        let pc = BranchAddr(0x80);
        let pattern = [true, true, false, false];
        let mut correct = 0;
        for i in 0..4000 {
            let outcome = pattern[i % pattern.len()];
            let pred = p.predict_update(pc, outcome);
            if i >= 3000 && pred.taken == outcome {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / 1000.0 > 0.95,
            "accuracy {}",
            correct as f64 / 1000.0
        );
    }

    #[test]
    fn opposite_bias_branches_coexist() {
        // The signature bi-mode win: one mostly-taken and one mostly-not-taken
        // branch that would fight over a shared gshare counter get channeled
        // into different banks.
        let mut p = BiMode::new(256);
        let a = BranchAddr(0x100);
        let b = BranchAddr(0x104);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..2000 {
            let pa = p.predict_update(a, true);
            if i >= 500 {
                total += 1;
                if pa.taken {
                    correct += 1;
                }
            }
            let pb = p.predict_update(b, false);
            if i >= 500 {
                total += 1;
                if !pb.taken {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.97, "bi-mode channeling accuracy {acc}");
    }

    #[test]
    fn choice_update_exception_preserves_channeling() {
        let mut p = BiMode::new(256);
        let pc = BranchAddr(0x40);
        // Train the choice strongly toward taken.
        for _ in 0..8 {
            p.predict_update(pc, true);
        }
        let choice_idx = p.choice_index(pc);
        let strong = p.choice.counter(choice_idx).value();
        // Now feed not-taken outcomes that the taken-bank learns to predict
        // correctly; once it does, the choice must stop being degraded.
        for _ in 0..20 {
            p.predict_update(pc, false);
        }
        let after = p.choice.counter(choice_idx).value();
        // The choice was pushed down at most a couple of steps while the
        // direction bank was still wrong, then held.
        assert!(after >= 1, "choice collapsed from {strong} to {after}");
    }

    #[test]
    fn batch_matches_scalar_protocol() {
        // The SWAR batch loop against the scalar `predict_update`, event for
        // event, across batch sizes covering empty, single-event and
        // multi-event calls.
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
        let mut batched = BiMode::new(256);
        let mut scalar = BiMode::new(256);
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
            (&batched.choice, &scalar.choice),
            (&batched.taken_bank, &scalar.taken_bank),
            (&batched.not_taken_bank, &scalar.not_taken_bank),
        ] {
            assert_eq!(b.lookups(), s.lookups());
            assert_eq!(b.collisions(), s.collisions());
        }
    }

    #[test]
    fn collisions_accumulate_across_banks() {
        let mut p = BiMode::new(64);
        for i in 0..200u64 {
            let pc = BranchAddr(i * 64);
            p.predict_update(pc, i % 2 == 0);
        }
        assert!(p.total_collisions() > 0);
    }
}
