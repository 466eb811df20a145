//! The YAGS predictor (related-work ablation).

use crate::counter::SaturatingCounter;
use crate::history::HistoryRegister;
use crate::table::{fold_tag, pack_entry, PredictionTable, COUNTER_MASK, TAG_SHIFT, VALID};
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::{BranchAddr, BranchEvent};

/// Eden & Mudge's *Yet Another Global Scheme* — a tagged refinement of
/// bi-mode used here as an extra alias-reduction baseline.
///
/// A PC-indexed bimodal **choice** table supplies the default direction. Two
/// small tagged **exception caches** (a taken-cache and a not-taken-cache)
/// store only the branches that *deviate* from their choice-table direction:
/// when the choice says taken, the not-taken cache is probed for an
/// exception, and vice versa. Tags (partial, 8-bit) make the caches
/// conflict-evident, so aliasing mostly turns into capacity misses instead
/// of silent corruption.
///
/// Storage split of the byte budget: half to the choice table, a quarter to
/// each exception cache (whose entries cost 10 bits: 8-bit tag + 2-bit
/// counter, all counted by [`DynamicPredictor::size_bytes`]).
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{DynamicPredictor, Yags};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = Yags::new(2048);
/// p.predict_update(BranchAddr(0x5c), true);
/// ```
#[derive(Debug, Clone)]
pub struct Yags {
    choice: PredictionTable,
    taken_cache: ExceptionCache,
    not_taken_cache: ExceptionCache,
    history: HistoryRegister,
}

/// A direct-mapped tagged cache of 2-bit exception counters.
#[derive(Debug, Clone)]
struct ExceptionCache {
    tags: Vec<Option<u8>>,
    counters: Vec<SaturatingCounter>,
    collisions: u64,
}

impl ExceptionCache {
    fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "cache entries must be 2^k");
        Self {
            tags: vec![None; entries],
            counters: vec![SaturatingCounter::two_bit(); entries],
            collisions: 0,
        }
    }

    fn index_mask(&self) -> u64 {
        self.tags.len() as u64 - 1
    }

    /// Probes the cache; on a tag hit returns the counter's direction.
    fn probe(&self, index: u64, tag: u8) -> Option<bool> {
        let i = index as usize;
        (self.tags[i] == Some(tag)).then(|| self.counters[i].predict_taken())
    }

    /// Trains a hit entry.
    fn train(&mut self, index: u64, taken: bool) {
        self.counters[index as usize].train(taken);
    }

    /// Allocates (replaces) an entry for `tag`, counting displacement of a
    /// different branch as a collision, and initializes the counter weakly
    /// toward `taken`.
    fn allocate(&mut self, index: u64, tag: u8, taken: bool) {
        let i = index as usize;
        if let Some(prev) = self.tags[i] {
            if prev != tag {
                self.collisions += 1;
            }
        }
        self.tags[i] = Some(tag);
        self.counters[i].reset_toward(taken);
    }

    /// Storage: 8-bit tag + 2-bit counter per entry.
    fn size_bytes(&self) -> usize {
        (self.tags.len() * 10).div_ceil(8)
    }
}

impl Yags {
    /// Creates a YAGS predictor with roughly a `size_bytes` budget (choice
    /// table uses half of it; each exception cache holds
    /// `size_bytes * 8 / 4 / 10`-rounded-down-to-power-of-two entries).
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes < 16` or not a power of two.
    pub fn new(size_bytes: usize) -> Self {
        assert!(
            size_bytes >= 16 && size_bytes.is_power_of_two(),
            "yags size {size_bytes} must be a power of two >= 16"
        );
        let choice = PredictionTable::two_bit(size_bytes / 2 * 4);
        // A quarter of the bit budget per cache, 10 bits per entry, rounded
        // down to a power of two.
        let per_cache_bits = size_bytes * 8 / 4;
        let raw_entries = (per_cache_bits / 10).max(2);
        let entries = if raw_entries.is_power_of_two() {
            raw_entries
        } else {
            raw_entries.next_power_of_two() >> 1
        };
        let taken_cache = ExceptionCache::new(entries);
        let not_taken_cache = ExceptionCache::new(entries);
        let history = HistoryRegister::new(entries.trailing_zeros().max(1));
        Self {
            choice,
            taken_cache,
            not_taken_cache,
            history,
        }
    }

    fn tag_of(pc: BranchAddr) -> u8 {
        (pc.word_index() & 0xff) as u8
    }

    fn cache_index(&self, pc: BranchAddr) -> u64 {
        (pc.word_index() ^ self.history.bits(self.history.len())) & self.taken_cache.index_mask()
    }
}

impl DynamicPredictor for Yags {
    fn name(&self) -> &'static str {
        "yags"
    }

    fn size_bytes(&self) -> usize {
        self.choice.size_bytes() + self.taken_cache.size_bytes() + self.not_taken_cache.size_bytes()
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let choice_index = pc.word_index() & self.choice.index_mask();
        let (choice_taken, choice_collision) = self.choice.lookup(choice_index, pc);
        let cache_index = self.cache_index(pc);
        let tag = Self::tag_of(pc);
        // Probe the cache of exceptions to the chosen direction.
        let cache = if choice_taken {
            &mut self.not_taken_cache
        } else {
            &mut self.taken_cache
        };
        let cache_hit = cache.probe(cache_index, tag);
        let final_pred = cache_hit.unwrap_or(choice_taken);
        if cache_hit.is_some() {
            cache.train(cache_index, taken);
        } else if taken != choice_taken {
            // The branch deviated from its choice direction: record the
            // exception.
            cache.allocate(cache_index, tag, taken);
        }
        // Choice table: bi-mode-style exception — don't punish the choice
        // when it opposed the outcome but the cache fixed it.
        if !(choice_taken != taken && final_pred == taken) {
            self.choice.train(choice_index, taken);
        }
        self.history.push(taken);
        Prediction {
            taken: final_pred,
            collision: choice_collision,
        }
    }

    /// The batched hot path: the choice table's read-modify-write is fused
    /// over its raw arrays with the history and statistics in locals; the
    /// tagged exception caches, whose entries are not plain counter lanes,
    /// keep their scalar probe/train/allocate calls inside the loop. Pinned
    /// by `batch_matches_scalar_protocol` below and the crate's
    /// batch-equivalence property tests.
    fn predict_update_batch(&mut self, events: &[BranchEvent], out: &mut Vec<Prediction>) {
        let choice_mask = self.choice.index_mask();
        let cache_mask = self.taken_cache.index_mask();
        // The register is sized to exactly the cache index width.
        let hist_len = self.history.len();
        let hist_mask = if hist_len >= 64 {
            u64::MAX
        } else {
            (1u64 << hist_len) - 1
        };
        let mut history = self.history.value();
        let mut collisions = 0u64;
        {
            let (choice_s, max) = self.choice.batch_parts();
            let taken_cache = &mut self.taken_cache;
            let not_taken_cache = &mut self.not_taken_cache;
            let half = max / 2;
            out.extend(events.iter().map(|e| {
                let w = e.pc.word_index();
                let ci = (w & choice_mask) as usize;
                let cache_index = (w ^ history) & cache_mask;
                let tag8 = (w & 0xff) as u8;
                let tag = fold_tag(e.pc);
                let entry = choice_s[ci];
                let c = entry as u8;
                let collided = (c & VALID != 0) & ((entry >> TAG_SHIFT) as u32 != tag);
                collisions += u64::from(collided);
                let v = c & COUNTER_MASK;
                let choice_taken = v > half;
                // Probe the cache of exceptions to the chosen direction.
                let cache = if choice_taken {
                    &mut *not_taken_cache
                } else {
                    &mut *taken_cache
                };
                let cache_hit = cache.probe(cache_index, tag8);
                let final_pred = cache_hit.unwrap_or(choice_taken);
                let taken = e.taken;
                if cache_hit.is_some() {
                    cache.train(cache_index, taken);
                } else if taken != choice_taken {
                    cache.allocate(cache_index, tag8, taken);
                }
                // Choice trains unless it opposed the outcome but the cache
                // fixed the prediction.
                let final_correct = final_pred == taken;
                let choice_opposed = choice_taken != taken;
                let train = u8::from(!(choice_opposed & final_correct));
                let up = u8::from(taken) & u8::from(v < max) & train;
                let down = u8::from(!taken) & u8::from(v > 0) & train;
                choice_s[ci] = pack_entry(VALID | (v + up - down), tag);
                history = ((history << 1) | u64::from(taken)) & hist_mask;
                Prediction {
                    taken: final_pred,
                    collision: collided,
                }
            }));
        }
        self.choice.add_batch_stats(events.len() as u64, collisions);
        self.history.set_bits(history);
    }

    fn shift_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.choice.collisions() + self.taken_cache.collisions + self.not_taken_cache.collisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branches() {
        let mut p = Yags::new(1024);
        let pc = BranchAddr(0x40);
        for _ in 0..20 {
            p.predict_update(pc, true);
        }
        assert!(p.predict_update(pc, true).taken);
    }

    #[test]
    fn exception_cache_handles_deviating_history_contexts() {
        // A loop-exit branch: taken 7 times, then not-taken once. The choice
        // table says taken; the not-taken cache learns the exit context.
        let mut p = Yags::new(1024);
        let pc = BranchAddr(0x80);
        let mut correct = 0;
        let mut measured = 0;
        for i in 0..8000 {
            let outcome = i % 8 != 7;
            let pred = p.predict_update(pc, outcome);
            if i >= 6000 {
                measured += 1;
                if pred.taken == outcome {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / measured as f64;
        assert!(acc > 0.95, "loop-exit accuracy {acc}");
    }

    #[test]
    fn caches_store_only_exceptions() {
        let mut p = Yags::new(1024);
        let pc = BranchAddr(0x40);
        // Perfectly-taken branch: no exceptions should ever be allocated.
        for _ in 0..50 {
            p.predict_update(pc, true);
        }
        let allocated = p
            .not_taken_cache
            .tags
            .iter()
            .chain(p.taken_cache.tags.iter())
            .filter(|t| t.is_some())
            .count();
        // The very first outcome may deviate from the untrained choice table
        // and allocate once; after that a perfectly biased branch must never
        // touch the caches again.
        assert!(
            allocated <= 1,
            "biased branch polluted the caches with {allocated} entries"
        );
    }

    #[test]
    fn batch_matches_scalar_protocol() {
        let mut state = 0x7a65_7a65_7a65_7a65u64;
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
        let mut batched = Yags::new(256);
        let mut scalar = Yags::new(256);
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
            assert_eq!(batched.taken_cache.tags, scalar.taken_cache.tags);
            assert_eq!(batched.not_taken_cache.tags, scalar.not_taken_cache.tags);
        }
        assert_eq!(batched.choice.lookups(), scalar.choice.lookups());
    }

    #[test]
    fn displacement_counts_as_collision() {
        let mut c = ExceptionCache::new(4);
        c.allocate(1, 0xaa, true);
        assert_eq!(c.collisions, 0);
        c.allocate(1, 0xbb, false);
        assert_eq!(c.collisions, 1);
        c.allocate(1, 0xbb, true);
        assert_eq!(c.collisions, 1, "same tag is not a collision");
    }

    #[test]
    fn size_accounts_tags() {
        let p = Yags::new(1024);
        assert!(p.size_bytes() >= 512, "at least the choice table");
        assert!(p.size_bytes() <= 1200, "within ~budget: {}", p.size_bytes());
    }
}
