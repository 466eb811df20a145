//! The TAGE-lite predictor: tagged geometric-history tables.

use crate::history::HistoryRegister;
use crate::table::{fold_tag, PredictionTable};
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::{BranchAddr, BranchEvent};

/// Number of tagged banks.
const BANKS: usize = 3;

/// Geometric history lengths, shortest first. The provider is the
/// longest-history bank whose partial tag matches.
const HIST_LENS: [u32; BANKS] = [4, 8, 16];

/// Bits per tagged entry: 3-bit counter + 8-bit partial tag + 2-bit useful.
const TAGGED_ENTRY_BITS: usize = 13;

/// One tagged bank: short saturating counters keyed by a partial tag, with
/// a useful counter guarding replacement. The `fold_tags`/`valid` side-band
/// mirrors `PredictionTable`'s collision instrumentation and costs no
/// modeled hardware.
#[derive(Debug, Clone)]
struct TaggedBank {
    /// 3-bit up/down counters, taken when `>= 4`.
    ctrs: Vec<u8>,
    /// 8-bit partial tags.
    tags: Vec<u8>,
    /// 2-bit useful counters; an entry is replaceable only at zero.
    useful: Vec<u8>,
    /// Instrumentation: the full fold tag of the entry's owner.
    fold_tags: Vec<u32>,
    /// Instrumentation: whether the entry was ever allocated.
    valid: Vec<bool>,
    /// Global-history bits folded into this bank's index and tag.
    hist_len: u32,
}

impl TaggedBank {
    fn new(entries: usize, hist_len: u32) -> Self {
        Self {
            ctrs: vec![0; entries],
            tags: vec![0; entries],
            useful: vec![0; entries],
            fold_tags: vec![0; entries],
            valid: vec![false; entries],
            hist_len,
        }
    }

    fn index_bits(&self) -> u32 {
        self.ctrs.len().trailing_zeros()
    }
}

/// Everything the lookup resolves that training needs: per-bank indices and
/// tags under the lookup-time history, the provider, and both predictions
/// for the useful-bit rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TageCtx {
    base_index: u64,
    indices: [u32; BANKS],
    tags: [u8; BANKS],
    /// Providing component: `-1` for the base table, else the bank number.
    provider: i8,
    /// The provider's prediction (the one returned).
    predicted: bool,
    /// The next-longest matching component's prediction.
    alt_predicted: bool,
}

/// A small TAGE predictor (Seznec & Michaud style): a bimodal base table
/// plus three tagged banks indexed by geometrically increasing history
/// lengths (4, 8, 16 bits). A bank *hits* when its 8-bit partial tag
/// matches; the longest-history hit provides the prediction, falling back
/// to the base table. On a misprediction the branch allocates an entry in
/// the next-longer bank whose `useful` counter is zero (decaying the
/// candidates' counters when none is) — deterministic useful-bit
/// replacement, no RNG.
///
/// Partial tags give TAGE its edge over the paper-era schemes: an aliasing
/// branch usually *misses* the tag and falls through to a shorter history
/// instead of destructively flipping a shared counter. The frontier grid
/// (`sdbp bench frontier`) measures how much of the static-hint benefit
/// survives that.
///
/// Collision instrumentation counts provider probes only: a base-table
/// provider goes through [`PredictionTable`]'s fold-tag machinery, a tagged
/// provider through the bank's own side-band. Tag-miss fallthroughs are
/// TAGE working as designed, not aliasing.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{DynamicPredictor, TageLite};
/// use sdbp_trace::BranchAddr;
///
/// let mut t = TageLite::new(4096);
/// t.predict_update(BranchAddr(0x40), true);
/// assert_eq!(t.name(), "tage-lite");
/// ```
#[derive(Debug, Clone)]
pub struct TageLite {
    base: PredictionTable,
    banks: [TaggedBank; BANKS],
    history: HistoryRegister,
    /// Provider probes against tagged banks (base probes are counted by
    /// the base table itself).
    tagged_lookups: u64,
    tagged_collisions: u64,
}

impl TageLite {
    /// Creates a TAGE-lite within a hardware budget of `size_bytes`.
    ///
    /// Half the budget goes to the 2-bit base table; the rest splits evenly
    /// across the tagged banks, each rounded down to a power-of-two entry
    /// count of 13-bit entries — so the realized size is below the request
    /// (SDBP004 territory) but within a factor of two.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a power of two or is below 32 bytes
    /// (the smallest budget giving every tagged bank at least two entries).
    pub fn new(size_bytes: usize) -> Self {
        assert!(
            size_bytes.is_power_of_two() && size_bytes >= 32,
            "tage-lite budget {size_bytes} must be a power of two >= 32"
        );
        let base = PredictionTable::two_bit(size_bytes / 2 * 4);
        let tagged_bits = size_bytes / 2 * 8;
        let mut entries = 1usize;
        while entries * 2 * TAGGED_ENTRY_BITS * BANKS <= tagged_bits {
            entries *= 2;
        }
        Self {
            base,
            banks: HIST_LENS.map(|len| TaggedBank::new(entries, len)),
            history: HistoryRegister::new(*HIST_LENS.last().expect("non-empty")),
            tagged_lookups: 0,
            tagged_collisions: 0,
        }
    }

    /// Entries per tagged bank.
    pub fn tagged_entries(&self) -> usize {
        self.banks[0].ctrs.len()
    }

    /// XOR-folds the low `take` bits of a raw history value into `into`
    /// bits — `HistoryRegister::folded` for a plain `u64`, so the batched
    /// path and [`DynamicPredictor::probe_indices`] can fold a local
    /// history snapshot.
    fn fold_bits(history: u64, take: u32, into: u32) -> u64 {
        debug_assert!(into > 0 && take <= 64);
        let take_mask = if take >= 64 {
            u64::MAX
        } else {
            (1u64 << take) - 1
        };
        let into_mask = (1u64 << into) - 1;
        let mut rest = history & take_mask;
        let mut acc = 0u64;
        let mut consumed = 0;
        while consumed < take {
            acc ^= rest & into_mask;
            rest >>= into;
            consumed += into;
        }
        acc & into_mask
    }

    /// The index of `pc` in bank `b` under `history` — pure.
    fn bank_index(&self, b: usize, pc: BranchAddr, history: u64) -> u64 {
        let bank = &self.banks[b];
        let bits = bank.index_bits();
        let folded = Self::fold_bits(history, bank.hist_len, bits);
        (pc.word_index() ^ folded) & (bank.ctrs.len() as u64 - 1)
    }

    /// The 8-bit partial tag of `pc` in bank `b` under `history` — pure,
    /// and deliberately a different hash than the index so index-sharing
    /// branches still usually differ in tag.
    fn bank_tag(&self, b: usize, pc: BranchAddr, history: u64) -> u8 {
        let w = pc.word_index();
        let folded = Self::fold_bits(history, self.banks[b].hist_len, 8);
        (w ^ (w >> 7) ^ (folded << 1) ^ b as u64) as u8
    }

    /// Resolves indices, tags, the provider and both predictions for one
    /// branch under `history`. Pure reads — shared verbatim by the scalar
    /// and batched paths, which is what makes them equivalent.
    fn compute_ctx(&self, pc: BranchAddr, history: u64) -> TageCtx {
        let base_index = pc.word_index() & self.base.index_mask();
        let mut indices = [0u32; BANKS];
        let mut tags = [0u8; BANKS];
        let mut provider: i8 = -1;
        let mut alt: i8 = -1;
        for b in 0..BANKS {
            let index = self.bank_index(b, pc, history);
            let tag = self.bank_tag(b, pc, history);
            indices[b] = index as u32;
            tags[b] = tag;
            let bank = &self.banks[b];
            if bank.valid[index as usize] && bank.tags[index as usize] == tag {
                alt = provider;
                provider = b as i8;
            }
        }
        let component_pred = |c: i8| {
            if c < 0 {
                self.base.peek(base_index)
            } else {
                self.banks[c as usize].ctrs[indices[c as usize] as usize] >= 4
            }
        };
        TageCtx {
            base_index,
            indices,
            tags,
            provider,
            predicted: component_pred(provider),
            alt_predicted: component_pred(alt),
        }
    }

    /// Books lookup/collision statistics for the provider probe and returns
    /// the prediction. The only mutation is instrumentation plus the base
    /// table's tag side-band — counter state is untouched.
    fn note_provider(&mut self, ctx: &TageCtx, pc: BranchAddr) -> Prediction {
        if ctx.provider < 0 {
            let (taken, collision) = self.base.lookup(ctx.base_index, pc);
            debug_assert_eq!(taken, ctx.predicted);
            Prediction { taken, collision }
        } else {
            let bank = &mut self.banks[ctx.provider as usize];
            let i = ctx.indices[ctx.provider as usize] as usize;
            let tag = fold_tag(pc);
            let collided = bank.valid[i] && bank.fold_tags[i] != tag;
            bank.fold_tags[i] = tag;
            self.tagged_lookups += 1;
            self.tagged_collisions += u64::from(collided);
            Prediction {
                taken: ctx.predicted,
                collision: collided,
            }
        }
    }

    /// Trains the provider, updates its useful counter, and on a
    /// misprediction allocates in a longer bank (or decays the candidates).
    fn train_tables(&mut self, ctx: &TageCtx, pc: BranchAddr, taken: bool) {
        if ctx.provider < 0 {
            self.base.train(ctx.base_index, taken);
        } else {
            let bank = &mut self.banks[ctx.provider as usize];
            let i = ctx.indices[ctx.provider as usize] as usize;
            let c = bank.ctrs[i];
            bank.ctrs[i] = if taken {
                c + u8::from(c < 7)
            } else {
                c - u8::from(c > 0)
            };
            // The useful counter tracks the provider beating its
            // alternative; when both agree the outcome says nothing.
            if ctx.predicted != ctx.alt_predicted {
                let u = bank.useful[i];
                bank.useful[i] = if ctx.predicted == taken {
                    u + u8::from(u < 3)
                } else {
                    u - u8::from(u > 0)
                };
            }
        }
        let next = (ctx.provider + 1) as usize;
        if ctx.predicted != taken && next < BANKS {
            let free = (next..BANKS).find(|&b| {
                let i = ctx.indices[b] as usize;
                self.banks[b].useful[i] == 0
            });
            if let Some(b) = free {
                let i = ctx.indices[b] as usize;
                let bank = &mut self.banks[b];
                bank.tags[i] = ctx.tags[b];
                bank.ctrs[i] = if taken { 4 } else { 3 };
                bank.useful[i] = 0;
                bank.fold_tags[i] = fold_tag(pc);
                bank.valid[i] = true;
            } else {
                for b in next..BANKS {
                    let i = ctx.indices[b] as usize;
                    let u = self.banks[b].useful[i];
                    self.banks[b].useful[i] = u - u8::from(u > 0);
                }
            }
        }
    }
}

impl DynamicPredictor for TageLite {
    fn name(&self) -> &'static str {
        "tage-lite"
    }

    fn size_bytes(&self) -> usize {
        let tagged: usize = self
            .banks
            .iter()
            .map(|b| (b.ctrs.len() * TAGGED_ENTRY_BITS).div_ceil(8))
            .sum();
        self.base.size_bytes() + tagged
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let ctx = self.compute_ctx(pc, self.history.value());
        let pred = self.note_provider(&ctx, pc);
        self.train_tables(&ctx, pc, taken);
        self.history.push(taken);
        pred
    }

    /// The batched path hoists the history register into a local and runs
    /// the same `compute_ctx`/`note_provider`/`train_tables` pipeline per
    /// event. TAGE's per-event work is pointer-chasing across four tables,
    /// so unlike the single-table schemes there is no further state to
    /// hoist profitably; equivalence with the scalar protocol is by
    /// construction (pinned by `batch_matches_scalar_protocol`).
    fn predict_update_batch(&mut self, events: &[BranchEvent], out: &mut Vec<Prediction>) {
        let hist_mask = (1u64 << self.history.len()) - 1;
        let mut history = self.history.value();
        out.reserve(events.len());
        for e in events {
            let ctx = self.compute_ctx(e.pc, history);
            out.push(self.note_provider(&ctx, e.pc));
            self.train_tables(&ctx, e.pc, e.taken);
            history = ((history << 1) | u64::from(e.taken)) & hist_mask;
        }
        self.history.set_bits(history);
    }

    fn shift_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.base.collisions() + self.tagged_collisions
    }

    fn history_bits(&self) -> u32 {
        self.history.len()
    }

    fn probe_indices(&self, pc: BranchAddr, history: u64, out: &mut Vec<(u32, u64)>) -> bool {
        out.push((0, pc.word_index() & self.base.index_mask()));
        for b in 0..BANKS {
            out.push((1 + b as u32, self.bank_index(b, pc, history)));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_fits_the_budget() {
        let t = TageLite::new(4096);
        assert_eq!(t.base.entries(), 8192);
        assert_eq!(t.tagged_entries(), 256);
        assert_eq!(t.size_bytes(), 2048 + 3 * (256 * 13usize).div_ceil(8));
        assert!(t.size_bytes() > 2048 && t.size_bytes() <= 4096);
        let tiny = TageLite::new(32);
        assert_eq!(tiny.tagged_entries(), 2, "every bank must be indexable");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn undersized_budget_rejected() {
        let _ = TageLite::new(16);
    }

    #[test]
    fn fold_bits_matches_history_register() {
        let mut reg = HistoryRegister::new(16);
        for i in 0..16 {
            reg.push(i % 3 == 0);
        }
        for (take, into) in [(4u32, 3u32), (8, 3), (16, 5), (16, 8), (3, 8)] {
            assert_eq!(
                TageLite::fold_bits(reg.value(), take, into),
                reg.folded(take, into),
                "take={take} into={into}"
            );
        }
    }

    #[test]
    fn learns_biased_branches() {
        let mut t = TageLite::new(1024);
        let pc = BranchAddr(0x40);
        for _ in 0..50 {
            t.predict_update(pc, true);
        }
        assert!(t.predict_update(pc, true).taken);
    }

    #[test]
    fn learns_history_patterns_bimodal_cannot() {
        // Period-3 pattern: the base table thrashes toward "taken" but the
        // tagged banks separate the three history contexts.
        let mut t = TageLite::new(2048);
        let pc = BranchAddr(0x80);
        let pattern = [true, true, false];
        let mut correct = 0;
        for i in 0..6000 {
            let outcome = pattern[i % pattern.len()];
            let pred = t.predict_update(pc, outcome);
            if i >= 3000 && pred.taken == outcome {
                correct += 1;
            }
        }
        assert!(correct as f64 / 3000.0 > 0.95, "{correct}");
    }

    #[test]
    fn allocation_requires_a_mispredict() {
        let mut t = TageLite::new(1024);
        let pc = BranchAddr(0x40);
        // First prediction comes from the (weakly not-taken) base table and
        // is wrong, so the outcome allocates into bank 0.
        let p = t.predict_update(pc, true);
        assert!(!p.taken);
        let any_alloc = t.banks.iter().any(|b| b.valid.iter().any(|&v| v));
        assert!(any_alloc);
    }

    #[test]
    fn provider_prefers_longest_matching_history() {
        let mut t = TageLite::new(2048);
        let pc = BranchAddr(0x100);
        let pattern = [true, false, false, true, false, true, true, false];
        for i in 0..4000 {
            t.predict_update(pc, pattern[i % pattern.len()]);
        }
        // After heavy training on a period-8 pattern, some predictions must
        // be provided by a tagged bank (ctx recomputed just to inspect).
        let ctx = t.compute_ctx(pc, t.history.value());
        assert!(ctx.provider >= 0, "tagged banks never engaged");
    }

    #[test]
    fn probe_indices_expose_all_tables() {
        let mut t = TageLite::new(1024);
        for bit in [true, false, true, true] {
            t.shift_history(bit);
        }
        let pc = BranchAddr(0x123c);
        let history = t.history.value();
        let mut probes = Vec::new();
        assert!(t.probe_indices(pc, history, &mut probes));
        assert_eq!(probes.len(), 1 + BANKS);
        assert_eq!(probes[0], (0, pc.word_index() & t.base.index_mask()));
        for b in 0..BANKS {
            assert_eq!(probes[1 + b], (1 + b as u32, t.bank_index(b, pc, history)));
        }
        let ctx = t.compute_ctx(pc, history);
        assert_eq!(ctx.indices[0] as u64, probes[1].1, "probe == live index");
    }

    #[test]
    fn batch_matches_scalar_protocol() {
        let mut state = 0x1234_5678_9abc_def0u64;
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
        let mut batched = TageLite::new(1024);
        let mut scalar = TageLite::new(1024);
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
            for (b1, b2) in batched.banks.iter().zip(&scalar.banks) {
                assert_eq!(b1.ctrs, b2.ctrs);
                assert_eq!(b1.tags, b2.tags);
                assert_eq!(b1.useful, b2.useful);
            }
        }
        assert_eq!(batched.tagged_lookups, scalar.tagged_lookups);
        assert_eq!(batched.base.lookups(), scalar.base.lookups());
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut t = TageLite::new(512);
            let mut state = 7u64;
            for _ in 0..2000 {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                let pc = BranchAddr((state >> 9) % 97 * 4);
                let taken = state & (1 << 33) != 0;
                t.predict_update(pc, taken);
            }
            (t.total_collisions(), t.history.value())
        };
        assert_eq!(run(), run());
    }
}
