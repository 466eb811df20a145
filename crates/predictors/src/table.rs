//! Tagged counter tables with collision instrumentation.
//!
//! [`PredictionTable`] is the hot-path storage cell of every table-based
//! predictor: one `u64` per entry interleaving a packed byte of
//! counter-plus-validity with a compact 32-bit tag fold, eight bytes per
//! entry against the naive layout's eighteen (16-byte `Option<BranchAddr>`
//! tag plus an unpacked counter) — and, crucially, **one** cache line
//! touched per access against the naive layout's two. [`ReferenceTable`]
//! keeps that original naive representation as an oracle for lockstep
//! property tests and as the baseline the kernel benchmark measures
//! against.

use crate::counter::SaturatingCounter;
use sdbp_trace::BranchAddr;

/// Folds a branch address into the 32-bit tag stored per entry.
///
/// The fold is the identity for addresses below 2^32 — i.e. for any
/// realistic text segment — so collision accounting is exact there. Two
/// distinct branches can only share a tag if their addresses differ in the
/// high 32 bits in exactly the pattern the XOR cancels.
#[inline]
pub(crate) fn fold_tag(pc: BranchAddr) -> u32 {
    (pc.0 ^ (pc.0 >> 32)) as u32
}

/// A power-of-two table of saturating counters with per-entry tags.
///
/// This is the measurement mechanism of the paper's Figures 1–6: *"The tag
/// for a counter was used to store the address of the last branch using that
/// counter. When we looked up the table of counters … if the address of the
/// branch did not match the tag then we counted the event as a collision."*
///
/// Tags are pure instrumentation — they do not influence predictions and are
/// excluded from [`PredictionTable::size_bytes`].
///
/// # Storage layout
///
/// One `u64` per entry: the low byte packs `[valid:1 | counter:7]` and the
/// high 32 bits hold the tag fold. Interleaving them matters on the hot
/// path: every access needs both halves (the lookup reads the counter and
/// compares-then-rewrites the tag), and under the random indexing a
/// predictor produces, split counter/tag arrays cost two cache-line
/// touches per access where the interleaved entry costs one. For the
/// multi-bank batch kernels — four tables probed per event — that halves
/// the per-event memory traffic outright. The valid bit replaces the
/// `None` state of the reference layout's `Option<BranchAddr>` tags,
/// keeping first-touch ("no collision") semantics exact, and the 32-bit
/// tag fold is exact for any address below 2^32 (see `fold_tag`).
/// Counters are limited to 7 bits — ample for the 2- and 3-bit counters of
/// every tabled scheme here.
///
/// # Index masking
///
/// All accessors ([`lookup`](PredictionTable::lookup),
/// [`peek`](PredictionTable::peek), [`train`](PredictionTable::train),
/// [`counter`](PredictionTable::counter)) mask the index with
/// [`index_mask`](PredictionTable::index_mask) internally, so callers may
/// pass any hashed value without pre-masking. Code that *reports* indices
/// (e.g. `probe_indices`) must still mask, because the canonical table slot
/// is part of its output.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::PredictionTable;
/// use sdbp_trace::BranchAddr;
///
/// let mut t = PredictionTable::two_bit(1024);
/// let (pred, collided) = t.lookup(5, BranchAddr(0x40));
/// assert!(!collided, "first touch of an entry is not a collision");
/// let _ = pred;
/// let (_, collided) = t.lookup(5, BranchAddr(0x80));
/// assert!(collided, "a different branch reusing entry 5 aliases");
/// ```
#[derive(Debug, Clone)]
pub struct PredictionTable {
    /// One interleaved entry per slot: `[valid:1 | counter:7]` in the low
    /// byte, the 32-bit tag fold in the high word (meaningful only when the
    /// entry's valid bit is set).
    slots: Vec<u64>,
    entries: usize,
    counter_bits: u8,
    /// Largest counter value (counters hold at most 7 bits).
    max: u8,
    lookups: u64,
    collisions: u64,
}

/// In-byte mask of the counter value (low 7 bits).
pub(crate) const COUNTER_MASK: u8 = 0x7f;
/// In-byte flag: the entry has been looked up at least once.
pub(crate) const VALID: u8 = 0x80;
/// Bit position of the tag fold inside an interleaved table entry.
pub(crate) const TAG_SHIFT: u32 = 32;

/// Assembles an interleaved table entry from its counter byte and tag fold.
#[inline]
pub(crate) fn pack_entry(counter_byte: u8, tag: u32) -> u64 {
    u64::from(counter_byte) | u64::from(tag) << TAG_SHIFT
}

/// Branchless SWAR helpers over packed `[valid:1 | counter:7]` byte lanes.
///
/// The multi-bank predictors gather one counter byte per bank into the low
/// lanes of a `u64`, threshold and saturate every lane in one arithmetic
/// pass, and scatter the stepped bytes back — replacing a chain of per-bank
/// dependent read-modify-writes with lane-parallel bit tricks. Every helper
/// relies on lane values fitting in 7 bits (`<= COUNTER_MASK`), which the
/// packed table layout guarantees: with the lane MSB free, no per-lane add
/// or subtract can carry or borrow across a lane boundary.
pub(crate) mod swar {
    /// `0x01` in every byte lane.
    pub(crate) const LANE_LSB: u64 = 0x0101_0101_0101_0101;
    /// `0x80` in every byte lane (the free MSB of each packed counter).
    pub(crate) const LANE_MSB: u64 = 0x8080_8080_8080_8080;

    /// Broadcasts `b` into every byte lane.
    #[inline]
    pub(crate) fn splat(b: u8) -> u64 {
        u64::from(b) * LANE_LSB
    }

    /// Per-lane `v < max`: `0x01` in every lane where it holds.
    ///
    /// `(v | 0x80) - max` clears its lane MSB exactly when `v < max`, and
    /// forcing the minuend's MSB keeps every lane's subtraction from
    /// borrowing into its neighbor.
    #[inline]
    pub(crate) fn lanes_lt(v: u64, max_splat: u64) -> u64 {
        (!((v | LANE_MSB) - max_splat) & LANE_MSB) >> 7
    }

    /// Per-lane `v > 0`: `0x01` in every lane where it holds.
    #[inline]
    pub(crate) fn lanes_gt_zero(v: u64) -> u64 {
        ((v + splat(0x7f)) & LANE_MSB) >> 7
    }

    /// Per-lane `v > half` — the packed predict threshold. `gt_bias` must
    /// be `splat(0x7f - half)`, hoisted by the caller.
    #[inline]
    pub(crate) fn lanes_gt(v: u64, gt_bias: u64) -> u64 {
        ((v + gt_bias) & LANE_MSB) >> 7
    }

    /// One saturating training step of every lane at once.
    ///
    /// `taken` and `enable` hold `0x00`/`0x01` per lane; enabled lanes move
    /// one step toward their `taken` lane, disabled lanes come back
    /// unchanged. Lane-wise this is exactly `PredictionTable::train`'s
    /// branchless body: increments are gated by `v < max` and decrements by
    /// `v > 0`, so no lane ever wraps.
    #[inline]
    pub(crate) fn step(v: u64, taken: u64, enable: u64, max_splat: u64) -> u64 {
        let up = taken & lanes_lt(v, max_splat) & enable;
        let down = (taken ^ LANE_LSB) & lanes_gt_zero(v) & enable;
        v + up - down
    }
}

impl PredictionTable {
    /// Creates a table of `entries` counters, each a copy of `template`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two.
    pub fn new(entries: usize, template: SaturatingCounter) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table entries {entries} must be a power of two"
        );
        assert!(
            template.max() <= COUNTER_MASK,
            "counters wider than 7 bits do not fit the packed layout"
        );
        Self {
            slots: vec![u64::from(template.value()); entries],
            entries,
            counter_bits: template.max().count_ones() as u8,
            max: template.max(),
            lookups: 0,
            collisions: 0,
        }
    }

    /// Creates a table of classic 2-bit counters initialized weakly
    /// not-taken.
    pub fn two_bit(entries: usize) -> Self {
        Self::new(entries, SaturatingCounter::two_bit())
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Number of index bits (`log2(entries)`).
    pub fn index_bits(&self) -> u32 {
        self.entries.trailing_zeros()
    }

    /// Bitmask selecting a valid index.
    pub fn index_mask(&self) -> u64 {
        self.entries as u64 - 1
    }

    /// Architectural storage in bytes (counters only; tags are
    /// instrumentation).
    pub fn size_bytes(&self) -> usize {
        (self.entries * self.counter_bits as usize).div_ceil(8)
    }

    /// Reads the counter at `index` for branch `pc`, recording aliasing.
    ///
    /// The index is masked with [`index_mask`](PredictionTable::index_mask)
    /// internally. Returns `(predict_taken, collided)` where `collided`
    /// reports whether a *different* branch was the last user of the entry.
    /// The entry's tag is updated to `pc`.
    #[inline]
    pub fn lookup(&mut self, index: u64, pc: BranchAddr) -> (bool, bool) {
        let i = (index & self.index_mask()) as usize;
        self.lookups += 1;
        let tag = fold_tag(pc);
        let e = self.slots[i];
        let c = e as u8;
        // Non-short-circuiting `&`: collisions are data-dependent (and near
        // random on aliasing workloads), so a conditional branch here would
        // mispredict constantly in the simulation inner loop.
        let collided = (c & VALID != 0) & ((e >> TAG_SHIFT) as u32 != tag);
        self.collisions += collided as u64;
        self.slots[i] = pack_entry(VALID | (c & COUNTER_MASK), tag);
        (c & COUNTER_MASK > self.max / 2, collided)
    }

    /// Fused [`lookup`](PredictionTable::lookup) +
    /// [`train`](PredictionTable::train) on the same entry: one load and one
    /// store instead of two of each.
    ///
    /// Observably equivalent to `lookup(index, pc)` followed by
    /// `train(index, taken)` — the prediction and collision report come from
    /// the pre-training entry state. This is the per-event path of the
    /// single-table predictors' `predict_update`.
    #[inline]
    pub fn lookup_train(&mut self, index: u64, pc: BranchAddr, taken: bool) -> (bool, bool) {
        let i = (index & self.index_mask()) as usize;
        self.lookups += 1;
        let tag = fold_tag(pc);
        let e = self.slots[i];
        let c = e as u8;
        let collided = (c & VALID != 0) & ((e >> TAG_SHIFT) as u32 != tag);
        self.collisions += collided as u64;
        let v = c & COUNTER_MASK;
        // Branchless saturating step: `taken` is exactly the branch outcome
        // stream being simulated — the least predictable data in the loop.
        let up = u8::from(taken) & u8::from(v < self.max);
        let down = u8::from(!taken) & u8::from(v > 0);
        self.slots[i] = pack_entry(VALID | (v + up - down), tag);
        (v > self.max / 2, collided)
    }

    /// Reads the counter at `index` (masked internally) without touching
    /// tags or statistics.
    ///
    /// Used by meta-predictors that consult a bank but do not "use" it in the
    /// aliasing-measurement sense.
    #[inline]
    pub fn peek(&self, index: u64) -> bool {
        let i = (index & self.index_mask()) as usize;
        self.slots[i] as u8 & COUNTER_MASK > self.max / 2
    }

    /// The counter at `index` (masked internally), materialized by value.
    pub fn counter(&self, index: u64) -> SaturatingCounter {
        let i = (index & self.index_mask()) as usize;
        SaturatingCounter::new(self.counter_bits, self.slots[i] as u8 & COUNTER_MASK)
    }

    /// Trains the counter at `index` (masked internally) toward `taken`.
    #[inline]
    pub fn train(&mut self, index: u64, taken: bool) {
        let i = (index & self.index_mask()) as usize;
        let e = self.slots[i];
        let c = e as u8;
        let v = c & COUNTER_MASK;
        // Branchless saturating step — see `lookup_train`.
        let up = u8::from(taken) & u8::from(v < self.max);
        let down = u8::from(!taken) & u8::from(v > 0);
        self.slots[i] = (e & !u64::from(COUNTER_MASK)) | u64::from(v + up - down);
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total collisions observed.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Decomposed mutable view for batched predictor loops:
    /// `(interleaved slots, max)`.
    ///
    /// Each slot is `[tag:32 | … | valid:1 | counter:7]` — split it with
    /// [`TAG_SHIFT`] and reassemble with [`pack_entry`]. Batch loops
    /// (`DynamicPredictor::predict_update_batch` overrides) hoist the slice
    /// into a local so the compiler keeps the loop-carried state in
    /// registers — stores through the array pointer cannot be proven not to
    /// alias `self`'s scalar fields, so a per-event `lookup_train` call
    /// reloads them every iteration. Pair with
    /// [`add_batch_stats`](PredictionTable::add_batch_stats) to settle the
    /// lookup/collision accounting afterwards.
    pub(crate) fn batch_parts(&mut self) -> (&mut [u64], u8) {
        (&mut self.slots, self.max)
    }

    /// Folds locally accumulated batch statistics back into the table.
    pub(crate) fn add_batch_stats(&mut self, lookups: u64, collisions: u64) {
        self.lookups += lookups;
        self.collisions += collisions;
    }
}

/// The original unpacked counter table: one [`SaturatingCounter`] plus one
/// `Option<BranchAddr>` tag per entry.
///
/// Behaviorally identical to [`PredictionTable`] (same constructor contract,
/// same internal index masking, same collision semantics, same
/// `size_bytes` accounting) but with over three times the cache footprint
/// (18 bytes per entry against 5). Retained as
/// the oracle for the packed-vs-reference lockstep property tests and as the
/// baseline kernel `sdbp bench kernel` measures speedups against. Not
/// used by any predictor.
#[derive(Debug, Clone)]
pub struct ReferenceTable {
    counters: Vec<SaturatingCounter>,
    tags: Vec<Option<BranchAddr>>,
    counter_bits: u8,
    lookups: u64,
    collisions: u64,
}

impl ReferenceTable {
    /// Creates a table of `entries` counters, each a copy of `template`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two.
    pub fn new(entries: usize, template: SaturatingCounter) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table entries {entries} must be a power of two"
        );
        Self {
            counters: vec![template; entries],
            tags: vec![None; entries],
            counter_bits: template.max().count_ones() as u8,
            lookups: 0,
            collisions: 0,
        }
    }

    /// Creates a table of classic 2-bit counters initialized weakly
    /// not-taken.
    pub fn two_bit(entries: usize) -> Self {
        Self::new(entries, SaturatingCounter::two_bit())
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.counters.len()
    }

    /// Number of index bits (`log2(entries)`).
    pub fn index_bits(&self) -> u32 {
        self.counters.len().trailing_zeros()
    }

    /// Bitmask selecting a valid index.
    pub fn index_mask(&self) -> u64 {
        self.counters.len() as u64 - 1
    }

    /// Architectural storage in bytes (counters only; tags are
    /// instrumentation).
    pub fn size_bytes(&self) -> usize {
        (self.counters.len() * self.counter_bits as usize).div_ceil(8)
    }

    /// Reads the counter at `index` (masked internally) for branch `pc`,
    /// recording aliasing.
    pub fn lookup(&mut self, index: u64, pc: BranchAddr) -> (bool, bool) {
        let i = (index & self.index_mask()) as usize;
        self.lookups += 1;
        let collided = match self.tags[i] {
            Some(prev) => prev != pc,
            None => false,
        };
        if collided {
            self.collisions += 1;
        }
        self.tags[i] = Some(pc);
        (self.counters[i].predict_taken(), collided)
    }

    /// Reads the counter at `index` (masked internally) without touching
    /// tags or statistics.
    pub fn peek(&self, index: u64) -> bool {
        self.counters[(index & self.index_mask()) as usize].predict_taken()
    }

    /// The counter at `index` (masked internally), by value.
    pub fn counter(&self, index: u64) -> SaturatingCounter {
        self.counters[(index & self.index_mask()) as usize]
    }

    /// Trains the counter at `index` (masked internally) toward `taken`.
    pub fn train(&mut self, index: u64, taken: bool) {
        let i = (index & self.index_mask()) as usize;
        self.counters[i].train(taken);
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total collisions observed.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_accounting_matches_paper_convention() {
        // 4 KB of 2-bit counters = 16K entries.
        let t = PredictionTable::two_bit(16 * 1024);
        assert_eq!(t.size_bytes(), 4096);
        assert_eq!(t.index_bits(), 14);
        assert_eq!(t.index_mask(), 0x3fff);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = PredictionTable::two_bit(1000);
    }

    #[test]
    fn collision_detection_follows_tags() {
        let mut t = PredictionTable::two_bit(16);
        let a = BranchAddr(0x100);
        let b = BranchAddr(0x200);
        assert!(!t.lookup(3, a).1, "first use: no collision");
        assert!(!t.lookup(3, a).1, "same branch again: no collision");
        assert!(t.lookup(3, b).1, "different branch: collision");
        assert!(!t.lookup(3, b).1, "b owns the entry now");
        assert!(t.lookup(3, a).1, "a returns: collision again");
        assert_eq!(t.lookups(), 5);
        assert_eq!(t.collisions(), 2);
    }

    #[test]
    fn peek_does_not_disturb_tags() {
        let mut t = PredictionTable::two_bit(16);
        let a = BranchAddr(0x100);
        t.lookup(7, a);
        let _ = t.peek(7);
        assert_eq!(t.lookups(), 1);
        assert!(!t.lookup(7, a).1);
    }

    #[test]
    fn training_moves_predictions() {
        let mut t = PredictionTable::two_bit(8);
        assert!(!t.peek(0));
        t.train(0, true);
        assert!(t.peek(0));
        t.train(0, false);
        t.train(0, false);
        assert!(!t.peek(0));
        assert!(!t.counter(0).predict_taken());
    }

    #[test]
    fn distinct_entries_are_independent() {
        let mut t = PredictionTable::two_bit(8);
        t.train(1, true);
        t.train(1, true);
        assert!(t.peek(1));
        assert!(!t.peek(2));
    }

    #[test]
    fn indices_are_masked_internally() {
        let mut t = PredictionTable::two_bit(8);
        // Index 9 wraps to entry 1 in an 8-entry table.
        t.train(9, true);
        t.train(9, true);
        assert!(t.peek(1));
        assert!(t.peek(8 + 8 + 1), "peek masks too");
        let a = BranchAddr(0x100);
        let b = BranchAddr(0x200);
        assert!(!t.lookup(2, a).1);
        assert!(t.lookup(10, b).1, "masked lookup aliases entry 2");
        assert_eq!(t.counter(10).value(), t.counter(2).value());
    }

    #[test]
    fn three_bit_counters_pack_and_saturate() {
        let mut t = PredictionTable::new(8, SaturatingCounter::new(3, 3));
        assert_eq!(t.size_bytes(), 3);
        assert!(!t.peek(0));
        t.train(0, true);
        assert!(t.peek(0), "3-bit midpoint crossing flips the prediction");
        for _ in 0..10 {
            t.train(0, true);
        }
        assert_eq!(t.counter(0).value(), 7, "saturates at 2^3-1");
        assert_eq!(t.counter(1).value(), 3, "neighbors undisturbed");
        for _ in 0..10 {
            t.train(0, false);
        }
        assert_eq!(t.counter(0).value(), 0);
    }

    #[test]
    fn packed_layout_keeps_neighbors_independent() {
        // Drive every entry of a word-spanning table to a distinct state and
        // check no write bleeds into an adjacent slot.
        let mut t = PredictionTable::two_bit(64);
        for i in 0..64u64 {
            for _ in 0..(i % 4) {
                t.train(i, true);
            }
        }
        for i in 0..64u64 {
            let expect = (1 + i % 4).min(3) as u8;
            assert_eq!(t.counter(i).value(), expect, "entry {i}");
        }
    }

    #[test]
    fn lookup_train_equals_lookup_then_train() {
        let mut fused = PredictionTable::new(16, SaturatingCounter::new(3, 3));
        let mut split = fused.clone();
        let mut state = 0x5eed_0123_4567_89abu64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let index = state >> 7;
            let pc = BranchAddr((state >> 23) % 5 * 4);
            let taken = state & (1 << 40) != 0;
            let a = fused.lookup_train(index, pc, taken);
            let b = split.lookup(index, pc);
            split.train(index, taken);
            assert_eq!(a, b);
        }
        assert_eq!(fused.lookups(), split.lookups());
        assert_eq!(fused.collisions(), split.collisions());
        for i in 0..16u64 {
            assert_eq!(fused.counter(i).value(), split.counter(i).value());
        }
    }

    #[test]
    fn swar_lane_predicates_match_scalar_comparisons() {
        for max in [1u8, 3, 7, 0x7f] {
            let max_splat = swar::splat(max);
            let half = max / 2;
            let gt_bias = swar::splat(0x7f - half);
            for v in 0..=max {
                // Place `v` in each lane in turn, with a different in-range
                // value in every other lane, and check no cross-lane leak.
                for lane in 0..8 {
                    let other = (v ^ max) & COUNTER_MASK & max;
                    let mut word = swar::splat(other);
                    word &= !(0xffu64 << (lane * 8));
                    word |= u64::from(v) << (lane * 8);
                    let lt = swar::lanes_lt(word, max_splat);
                    let gz = swar::lanes_gt_zero(word);
                    let gt = swar::lanes_gt(word, gt_bias);
                    for k in 0..8 {
                        let lane_v = ((word >> (k * 8)) & 0xff) as u8;
                        assert_eq!((lt >> (k * 8)) & 0xff, u64::from(lane_v < max));
                        assert_eq!((gz >> (k * 8)) & 0xff, u64::from(lane_v > 0));
                        assert_eq!((gt >> (k * 8)) & 0xff, u64::from(lane_v > half));
                    }
                }
            }
        }
    }

    #[test]
    fn swar_step_matches_scalar_train_per_lane() {
        // Every (value, outcome, enable) combination across two lanes, with
        // the remaining lanes carrying independent state that must come back
        // untouched when disabled and correctly stepped when enabled.
        for max in [3u8, 7] {
            let max_splat = swar::splat(max);
            for v0 in 0..=max {
                for v1 in 0..=max {
                    for (t0, t1) in [(false, false), (false, true), (true, false), (true, true)] {
                        for (e0, e1) in [(false, false), (false, true), (true, false), (true, true)]
                        {
                            let word = u64::from(v0) | u64::from(v1) << 8;
                            let taken = u64::from(t0) | u64::from(t1) << 8;
                            let enable = u64::from(e0) | u64::from(e1) << 8;
                            let stepped = swar::step(word, taken, enable, max_splat);
                            let scalar = |v: u8, t: bool, e: bool| -> u8 {
                                if !e {
                                    return v;
                                }
                                let up = u8::from(t) & u8::from(v < max);
                                let down = u8::from(!t) & u8::from(v > 0);
                                v + up - down
                            };
                            assert_eq!((stepped & 0xff) as u8, scalar(v0, t0, e0));
                            assert_eq!(((stepped >> 8) & 0xff) as u8, scalar(v1, t1, e1));
                            assert_eq!(stepped >> 16, 0, "unpopulated lanes stay zero");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reference_table_matches_packed_on_the_doc_sequence() {
        let mut t = ReferenceTable::two_bit(16);
        let a = BranchAddr(0x100);
        let b = BranchAddr(0x200);
        assert!(!t.lookup(3, a).1);
        assert!(!t.lookup(3, a).1);
        assert!(t.lookup(3, b).1);
        assert!(!t.lookup(3, b).1);
        assert!(t.lookup(3, a).1);
        assert_eq!(t.lookups(), 5);
        assert_eq!(t.collisions(), 2);
        assert_eq!(t.size_bytes(), 4);
        assert_eq!(ReferenceTable::two_bit(16 * 1024).size_bytes(), 4096);
    }
}
