//! The common interface of all dynamic predictor simulators.

use crate::index_spec::IndexSpec;
use sdbp_trace::{BranchAddr, BranchEvent};

/// The result of one predictor lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prediction {
    /// The predicted direction.
    pub taken: bool,
    /// Whether any table consulted for this prediction aliased — i.e. its
    /// last user was a different branch (the paper's collision event).
    pub collision: bool,
}

/// A dynamic branch predictor simulator.
///
/// For every dynamically predicted branch the simulator calls
/// [`DynamicPredictor::predict_update`] once with the branch address and
/// its resolved outcome: the predictor reads its tables, trains them on the
/// outcome, shifts the outcome into its global history (if it keeps one)
/// and returns the prediction it made before training. A trace-driven
/// simulator knows every outcome up front, so lookup and training are one
/// step.
///
/// For a **statically predicted** branch the dynamic tables must stay
/// untouched (that is the aliasing-relief mechanism of the paper); the
/// simulator instead optionally calls [`DynamicPredictor::shift_history`] so
/// the outcome still enters the global history register — §4/Table 4 of the
/// paper study exactly this choice.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{Bimodal, DynamicPredictor};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = Bimodal::new(1024);
/// let pc = BranchAddr(0x400);
/// for _ in 0..3 {
///     p.predict_update(pc, true);
/// }
/// assert!(
///     p.predict_update(pc, true).taken,
///     "a mostly-taken branch trains the counter up"
/// );
/// ```
pub trait DynamicPredictor {
    /// A short scheme name (`"gshare"`, `"2bcgskew"`, …) used in reports.
    fn name(&self) -> &'static str;

    /// The architectural storage budget in bytes (counters only).
    fn size_bytes(&self) -> usize;

    /// Predicts the branch at `pc` from the current state, trains the
    /// predictor on the resolved outcome `taken`, then shifts the outcome
    /// into the global history (when the scheme keeps one). Returns the
    /// prediction made before training.
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction;

    /// Runs a batch of resolved branches through
    /// [`predict_update`](DynamicPredictor::predict_update), appending one
    /// [`Prediction`] per event to `out` in order.
    ///
    /// Must be observably equivalent to calling `predict_update` once per
    /// event — the default does exactly that. Hot schemes override it to
    /// hoist loop-carried state (the history register, statistics counters,
    /// table array pointers) into locals for the whole batch: in the
    /// per-event path every table store can alias the predictor's own
    /// scalar fields, forcing the compiler to reload them each iteration,
    /// and that reload chain — not the table accesses — dominates the
    /// simulation inner loop.
    #[inline]
    fn predict_update_batch(&mut self, events: &[BranchEvent], out: &mut Vec<Prediction>) {
        out.extend(events.iter().map(|e| self.predict_update(e.pc, e.taken)));
    }

    /// Shifts `taken` into the global history register **without** touching
    /// any table. A no-op for history-free schemes (e.g. bimodal).
    fn shift_history(&mut self, taken: bool);

    /// Total collisions observed across all tables since construction.
    fn total_collisions(&self) -> u64;

    /// The number of global-history bits that participate in index
    /// formation (`0` for history-free schemes such as bimodal).
    ///
    /// Static analyzers use this to enumerate the history values worth
    /// probing through [`DynamicPredictor::probe_indices`].
    fn history_bits(&self) -> u32 {
        0
    }

    /// Appends the `(bank, index)` table probes this predictor would make
    /// for a branch at `pc` given the raw global-history value `history`
    /// (newest outcome in bit 0), **without touching any predictor state**.
    ///
    /// Returns `true` when the scheme exposes its index function this way;
    /// the default returns `false`, marking the scheme opaque to static
    /// aliasing analysis (e.g. schemes whose index depends on mutable
    /// per-branch state rather than `(pc, history)` alone).
    ///
    /// # Out-vector contract
    ///
    /// Implementations **append** and must never clear, truncate or
    /// otherwise disturb what `out` already holds — the buffer belongs to
    /// the caller, who reuses one scratch vector across many probes and
    /// clears it between them. Bank ids must be numbered contiguously from
    /// 0 in a fixed per-scheme order. A dispatch-level test pins this
    /// contract for every predictor in the crate.
    fn probe_indices(&self, pc: BranchAddr, history: u64, out: &mut Vec<(u32, u64)>) -> bool {
        let _ = (pc, history, out);
        false
    }

    /// The symbolic GF(2) description of this predictor's index functions,
    /// when every probed index bit is an XOR of fixed PC bits, fixed
    /// history bits and a constant (see [`IndexSpec`]).
    ///
    /// The default returns `None`, which keeps the sampling path: schemes
    /// that hash non-linearly (the perceptron's segmented hash, TAGE's
    /// tag/useful logic) or expose no index function at all stay analyzable
    /// only through [`DynamicPredictor::probe_indices`] — or not at all.
    ///
    /// When `Some`, the spec's [`IndexSpec::evaluate`] must agree with
    /// `probe_indices` on every `(pc, history)` pair; the crate's property
    /// tests enforce that equivalence for all linear schemes.
    fn index_spec(&self) -> Option<IndexSpec> {
        None
    }
}
