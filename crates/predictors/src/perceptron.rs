//! The hashed perceptron predictor.

use crate::history::HistoryRegister;
use crate::table::fold_tag;
use crate::traits::{DynamicPredictor, Prediction};
use sdbp_trace::{BranchAddr, BranchEvent};

/// A hashed perceptron predictor (Jiménez & Lin style).
///
/// Each branch hashes to a row of signed 8-bit weights: one bias weight plus
/// one weight per global-history bit. The prediction is the sign of
/// `w₀ + Σ wᵢ·hᵢ` with history outcomes mapped to ±1; training bumps each
/// weight toward agreement with the outcome, but only when the prediction
/// was wrong or the magnitude of the sum was below the threshold
/// [`Perceptron::THRESHOLD`] (the classic `⌊1.93·H + 14⌋` rule). Unlike the
/// paper-era counter tables, a weight row learns *which* history bits
/// correlate with the branch instead of memorizing one counter per history
/// pattern — the frontier the paper's future-work section points toward.
///
/// The row index depends on the PC alone (history enters through the
/// weights, not the index), so the index function is exposed to static
/// aliasing analysis via [`DynamicPredictor::probe_indices`]. Collisions are
/// instrumented exactly like the counter tables: a fold tag per row records
/// the last branch that used it.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{DynamicPredictor, Perceptron};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = Perceptron::new(4096);
/// p.predict_update(BranchAddr(0x40), true);
/// assert_eq!(p.name(), "perceptron");
/// ```
#[derive(Debug, Clone)]
pub struct Perceptron {
    /// `rows × (HISTORY_LEN + 1)` signed weights, row-major.
    weights: Vec<i8>,
    /// Instrumentation fold tag per row (see `table::fold_tag`).
    tags: Vec<u32>,
    /// Whether the row was ever used (first touch is not a collision).
    valid: Vec<bool>,
    history: HistoryRegister,
    rows: usize,
    lookups: u64,
    collisions: u64,
}

impl Perceptron {
    /// Global-history bits each weight row correlates against.
    pub const HISTORY_LEN: u32 = 16;

    /// Training threshold `⌊1.93·H + 14⌋` for `H = 16`.
    pub const THRESHOLD: i32 = 44;

    /// Weights per row: one bias weight plus one per history bit.
    const ROW_WEIGHTS: usize = Self::HISTORY_LEN as usize + 1;

    /// Creates a perceptron within a hardware budget of `size_bytes`.
    ///
    /// The row count is the largest power of two whose weight storage
    /// (`rows × 17` bytes) fits the budget, so the realized
    /// [`size_bytes`](DynamicPredictor::size_bytes) is within a factor of
    /// two of the request — the same rounding e-gskew applies to its banks.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a power of two or is below 32 bytes
    /// (one full weight row).
    pub fn new(size_bytes: usize) -> Self {
        assert!(
            size_bytes.is_power_of_two() && size_bytes >= 32,
            "perceptron budget {size_bytes} must be a power of two >= 32"
        );
        let mut rows = 1usize;
        while rows * 2 * Self::ROW_WEIGHTS <= size_bytes {
            rows *= 2;
        }
        Self {
            weights: vec![0; rows * Self::ROW_WEIGHTS],
            tags: vec![0; rows],
            valid: vec![false; rows],
            history: HistoryRegister::new(Self::HISTORY_LEN),
            rows,
            lookups: 0,
            collisions: 0,
        }
    }

    /// Number of weight rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The weight row for `pc` — the pure index function, shared by the
    /// live paths and [`DynamicPredictor::probe_indices`].
    #[inline]
    fn row_for(&self, pc: BranchAddr) -> usize {
        (pc.word_index() & (self.rows as u64 - 1)) as usize
    }

    /// The dot product of row `base..` against the ±1-mapped history.
    #[inline]
    fn sum_row(weights: &[i8], base: usize, history: u64) -> i32 {
        let row = &weights[base..base + Self::ROW_WEIGHTS];
        let mut sum = i32::from(row[0]);
        for (i, &w) in row[1..].iter().enumerate() {
            let w = i32::from(w);
            // +w when history bit i was taken, -w when not-taken.
            sum += if (history >> i) & 1 != 0 { w } else { -w };
        }
        sum
    }

    /// One perceptron training step on row `base..` toward `taken`.
    #[inline]
    fn train_row(weights: &mut [i8], base: usize, history: u64, taken: bool) {
        let row = &mut weights[base..base + Self::ROW_WEIGHTS];
        row[0] = row[0].saturating_add(if taken { 1 } else { -1 });
        for (i, w) in row[1..].iter_mut().enumerate() {
            let agrees = ((history >> i) & 1 != 0) == taken;
            *w = w.saturating_add(if agrees { 1 } else { -1 });
        }
    }

    /// Whether the outcome must train the row: mispredicted, or predicted
    /// with a margin at or below the threshold.
    #[inline]
    fn must_train(sum: i32, taken: bool) -> bool {
        ((sum >= 0) != taken) || sum.abs() <= Self::THRESHOLD
    }
}

impl DynamicPredictor for Perceptron {
    fn name(&self) -> &'static str {
        "perceptron"
    }

    fn size_bytes(&self) -> usize {
        self.rows * Self::ROW_WEIGHTS
    }

    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let row = self.row_for(pc);
        let base = row * Self::ROW_WEIGHTS;
        let history = self.history.value();
        let sum = Self::sum_row(&self.weights, base, history);
        let tag = fold_tag(pc);
        self.lookups += 1;
        let collided = self.valid[row] && self.tags[row] != tag;
        self.collisions += u64::from(collided);
        self.valid[row] = true;
        self.tags[row] = tag;
        if Self::must_train(sum, taken) {
            Self::train_row(&mut self.weights, base, history, taken);
        }
        self.history.push(taken);
        Prediction {
            taken: sum >= 0,
            collision: collided,
        }
    }

    /// The batched hot path: the history register and the statistics
    /// counters live in locals for the whole batch; the per-row work goes
    /// through the same `sum_row`/`train_row` helpers as the scalar
    /// protocol, so equivalence holds by construction (and is pinned by
    /// `batch_matches_scalar_protocol` below).
    fn predict_update_batch(&mut self, events: &[BranchEvent], out: &mut Vec<Prediction>) {
        let mask = self.rows as u64 - 1;
        let hist_mask = (1u64 << Self::HISTORY_LEN) - 1;
        let mut history = self.history.value();
        let mut collisions = 0u64;
        {
            let weights = &mut self.weights;
            let tags = &mut self.tags;
            let valid = &mut self.valid;
            out.extend(events.iter().map(|e| {
                let row = (e.pc.word_index() & mask) as usize;
                let base = row * Self::ROW_WEIGHTS;
                let sum = Self::sum_row(weights, base, history);
                let tag = fold_tag(e.pc);
                let collided = valid[row] && tags[row] != tag;
                collisions += u64::from(collided);
                valid[row] = true;
                tags[row] = tag;
                let taken = e.taken;
                if Self::must_train(sum, taken) {
                    Self::train_row(weights, base, history, taken);
                }
                history = ((history << 1) | u64::from(taken)) & hist_mask;
                Prediction {
                    taken: sum >= 0,
                    collision: collided,
                }
            }));
        }
        self.lookups += events.len() as u64;
        self.collisions += collisions;
        self.history.set_bits(history);
    }

    fn shift_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    fn total_collisions(&self) -> u64 {
        self.collisions
    }

    fn history_bits(&self) -> u32 {
        Self::HISTORY_LEN
    }

    fn probe_indices(&self, pc: BranchAddr, _history: u64, out: &mut Vec<(u32, u64)>) -> bool {
        // The row index is history-independent: history enters through the
        // weights. One probe per branch, under every history.
        out.push((0, self.row_for(pc) as u64));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_fits_the_budget() {
        let p = Perceptron::new(4096);
        assert_eq!(p.rows(), 128);
        assert_eq!(p.size_bytes(), 128 * 17);
        assert!(p.size_bytes() > 2048 && p.size_bytes() <= 4096);
        let tiny = Perceptron::new(32);
        assert_eq!(tiny.rows(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn undersized_budget_rejected() {
        let _ = Perceptron::new(16);
    }

    #[test]
    fn learns_biased_branches() {
        let mut p = Perceptron::new(1024);
        let pc = BranchAddr(0x40);
        for _ in 0..60 {
            p.predict_update(pc, true);
        }
        assert!(p.predict_update(pc, true).taken);
    }

    #[test]
    fn learns_single_history_bit_correlation() {
        // taken ⇔ previous outcome not taken: a pure alternation that
        // defeats bimodal but is linearly separable on history bit 0.
        let mut p = Perceptron::new(1024);
        let pc = BranchAddr(0x40);
        let mut correct = 0;
        for i in 0..2000 {
            let outcome = i % 2 == 0;
            let pred = p.predict_update(pc, outcome);
            if i >= 1000 && pred.taken == outcome {
                correct += 1;
            }
        }
        assert!(correct > 990, "{correct}");
    }

    #[test]
    fn learns_longer_periodic_patterns() {
        let mut p = Perceptron::new(1024);
        let pc = BranchAddr(0x80);
        let pattern = [true, true, false, true, false, false];
        let mut correct = 0;
        for i in 0..6000 {
            let outcome = pattern[i % pattern.len()];
            let pred = p.predict_update(pc, outcome);
            if i >= 3000 && pred.taken == outcome {
                correct += 1;
            }
        }
        assert!(correct as f64 / 3000.0 > 0.95, "{correct}");
    }

    #[test]
    fn collisions_follow_row_sharing() {
        let mut p = Perceptron::new(32); // one row: everything collides
        assert_eq!(p.rows(), 1);
        let a = BranchAddr(0x100);
        let b = BranchAddr(0x200);
        p.predict_update(a, true);
        assert_eq!(p.total_collisions(), 0, "first touch is free");
        p.predict_update(b, false);
        assert_eq!(p.total_collisions(), 1);
        p.predict_update(b, false);
        assert_eq!(p.total_collisions(), 1, "b owns the row now");
    }

    #[test]
    fn probe_indices_match_the_live_index_function() {
        let mut p = Perceptron::new(2048);
        for bit in [true, false, true] {
            p.shift_history(bit);
        }
        let pc = BranchAddr(0x123c);
        let mut probes = Vec::new();
        assert!(p.probe_indices(pc, p.history.value(), &mut probes));
        assert_eq!(probes, vec![(0, p.row_for(pc) as u64)]);
        assert_eq!(p.history_bits(), Perceptron::HISTORY_LEN);
    }

    #[test]
    fn weights_saturate_at_i8_bounds() {
        // Drive a row past both i8 rails; saturating_add must clamp.
        let mut weights = vec![120i8; Perceptron::ROW_WEIGHTS];
        for _ in 0..20 {
            Perceptron::train_row(&mut weights, 0, u64::MAX, true);
        }
        assert!(weights.iter().all(|&w| w == 127));
        let mut weights = vec![-120i8; Perceptron::ROW_WEIGHTS];
        for _ in 0..20 {
            Perceptron::train_row(&mut weights, 0, u64::MAX, false);
        }
        assert!(weights.iter().all(|&w| w == -128));
    }

    #[test]
    fn batch_matches_scalar_protocol() {
        // The hoisted batch loop against the scalar `predict_update`, event
        // for event, across batch sizes covering empty, single-event and
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
        let mut batched = Perceptron::new(1024);
        let mut scalar = Perceptron::new(1024);
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
            assert_eq!(batched.weights, scalar.weights);
        }
        assert_eq!(batched.lookups, scalar.lookups);
    }
}
