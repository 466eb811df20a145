//! The measurement phase.

use crate::combined::{BranchResolution, CombinedPredictor};
use crate::metrics::SimStats;
use sdbp_passes::{Pass, PassRunner};
use sdbp_trace::{BranchEvent, BranchSource};

/// The measurement phase: drives a branch stream through a borrowed
/// [`CombinedPredictor`] and accumulates [`SimStats`] by
/// [`SimStats::record`].
///
/// The predictor trains on every event (including warm-up); statistics see
/// only measured ones. [`MeasurePass::run`] measures one stream on its own;
/// as a [`Pass`] it rides a fused traversal next to profile passes or other
/// measurements. Chunk-invariant — the warm-up cursor and collision
/// accounting carry across `consume` calls — so a fused traversal is
/// bit-identical to a dedicated run. It takes no per-event hook: a consumer
/// that needs per-branch detail runs its own pass next to this one.
///
/// # Examples
///
/// A measurement fused with another pass in one traversal:
///
/// ```
/// use sdbp_core::{CombinedPredictor, MeasurePass};
/// use sdbp_passes::{FnPass, PassRunner};
/// use sdbp_predictors::Bimodal;
/// use sdbp_trace::{BranchAddr, BranchEvent, SliceSource};
///
/// let events: Vec<BranchEvent> = (0..100)
///     .map(|i| BranchEvent::new(BranchAddr(0x40), i % 2 == 0, 9))
///     .collect();
/// let mut predictor = CombinedPredictor::pure_dynamic(Box::new(Bimodal::new(64)));
/// let mut pass = MeasurePass::new(&mut predictor);
/// let mut taken = 0;
/// let mut count = FnPass::new("taken", |chunk: &[BranchEvent]| {
///     taken += chunk.iter().filter(|e| e.taken).count();
/// });
/// PassRunner::new().run(SliceSource::new(&events), &mut [&mut pass, &mut count]);
/// assert_eq!(pass.stats().branches, 100);
/// assert_eq!(taken, 50);
/// ```
pub struct MeasurePass<'p> {
    predictor: &'p mut CombinedPredictor,
    warmup_instructions: u64,
    seen_instructions: u64,
    warmed_up: bool,
    stats: SimStats,
    /// Reused scratch for the per-batch resolutions of the hinted path.
    resolutions: Vec<BranchResolution>,
}

impl<'p> MeasurePass<'p> {
    /// A measurement pass measuring from the first event.
    pub fn new(predictor: &'p mut CombinedPredictor) -> Self {
        Self {
            predictor,
            warmup_instructions: 0,
            seen_instructions: 0,
            warmed_up: true,
            stats: SimStats::default(),
            resolutions: Vec::with_capacity(BATCH),
        }
    }

    /// Excludes the first `instructions` from the statistics (tables still
    /// train during warm-up). The paper's billion-instruction runs amortize
    /// cold-start; our scaled-down runs can optionally discount it instead.
    ///
    /// Boundary rule: an event belongs to the warm-up window iff the running
    /// instruction total *including that event* is still ≤ the warm-up
    /// budget. An event whose instruction gap straddles the boundary is
    /// therefore attributed to the measured window — it is the first event
    /// to cross the budget, never silently dropped from both windows.
    pub fn with_warmup(mut self, instructions: u64) -> Self {
        self.warmup_instructions = instructions;
        // Once the warm-up budget is crossed, every later event is measured;
        // the flag keeps the accounting off the steady-state path.
        self.warmed_up = instructions == 0;
        self
    }

    /// Runs `source` to exhaustion through the predictor in one traversal
    /// of its own, returning the statistics.
    ///
    /// ```
    /// use sdbp_core::{CombinedPredictor, MeasurePass};
    /// use sdbp_predictors::Gshare;
    /// use sdbp_trace::BranchSource;
    /// use sdbp_workloads::{Benchmark, InputSet, Workload};
    ///
    /// let source = Workload::spec95(Benchmark::Compress)
    ///     .generator(InputSet::Train, 1)
    ///     .take_instructions(200_000);
    /// let mut predictor = CombinedPredictor::pure_dynamic(Box::new(Gshare::new(4096)));
    /// let stats = MeasurePass::new(&mut predictor).run(source);
    /// assert!(stats.branches > 10_000);
    /// assert!(stats.accuracy() > 0.5);
    /// ```
    pub fn run<S: BranchSource>(mut self, source: S) -> SimStats {
        PassRunner::new()
            .with_chunk(BATCH)
            .run(source, &mut [&mut self]);
        self.stats
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Consumes the pass, returning the accumulated statistics.
    pub fn into_stats(self) -> SimStats {
        self.stats
    }

    /// Consumes the warm-up prefix of `chunk` event by event, returning the
    /// index of the first measured event (`chunk.len()` when the whole chunk
    /// is warm-up). An event whose running instruction total stays ≤ the
    /// budget is warm-up; the first to cross it is measured (the straddle
    /// rule), so the cursor stops *on* that event.
    #[inline]
    fn consume_warmup(&mut self, chunk: &[BranchEvent]) -> usize {
        let mut start = 0;
        while !self.warmed_up && start < chunk.len() {
            self.seen_instructions += chunk[start].instructions();
            if self.seen_instructions > self.warmup_instructions {
                self.warmed_up = true;
            } else {
                start += 1;
            }
        }
        start
    }
}

impl Pass for MeasurePass<'_> {
    /// Resolves and accounts the events batch by batch.
    ///
    /// Resolution runs batch-at-a-time (so the predictor's loop-carried
    /// state stays in registers), then the accounting walks the measured
    /// events and their resolutions pairwise into a local [`SimStats`],
    /// settled into the pass's total once per batch (`self`-routed counters
    /// cannot stay in registers across iterations: the prediction loads
    /// might alias them). [`SimStats::record`] is branchless, so the
    /// near-random collision and static bits cost no mispredicted branch.
    fn consume(&mut self, events: &[BranchEvent]) {
        for chunk in events.chunks(BATCH) {
            let start = self.consume_warmup(chunk);
            let mut acc = SimStats::default();
            if let Some(predictions) = self.predictor.try_resolve_batch_dynamic(chunk) {
                // Pure-dynamic configurations account straight off the raw
                // predictions; every branch is dynamic by construction.
                for (event, p) in chunk[start..].iter().zip(&predictions[start..]) {
                    let resolution = BranchResolution {
                        predicted_taken: p.taken,
                        was_static: false,
                        collision: p.collision,
                    };
                    acc.record(event, &resolution);
                }
            } else {
                self.resolutions.clear();
                self.predictor.resolve_batch(chunk, &mut self.resolutions);
                for (event, resolution) in chunk[start..].iter().zip(&self.resolutions[start..]) {
                    acc.record(event, resolution);
                }
            }
            self.stats.merge(&acc);
        }
    }

    fn name(&self) -> &str {
        "simulator-measure"
    }
}

/// Events resolved per predictor batch call; also the chunk size
/// [`MeasurePass::run`] pulls through `fill_events` for non-slice sources.
const BATCH: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combined::ShiftPolicy;
    use sdbp_predictors::{Bimodal, Gshare};
    use sdbp_profiles::HintDatabase;
    use sdbp_trace::{BranchAddr, SliceSource};

    fn ev(pc: u64, taken: bool, gap: u32) -> BranchEvent {
        BranchEvent::new(BranchAddr(pc), taken, gap)
    }

    fn bimodal() -> CombinedPredictor {
        CombinedPredictor::pure_dynamic(Bimodal::new(64))
    }

    #[test]
    fn counts_add_up() {
        // Alternating branch defeats bimodal almost entirely.
        let events: Vec<BranchEvent> = (0..1000).map(|i| ev(0x40, i % 2 == 0, 9)).collect();
        let mut p = CombinedPredictor::pure_dynamic(Box::new(Bimodal::new(64)));
        let stats = MeasurePass::new(&mut p).run(SliceSource::new(&events));
        assert_eq!(stats.branches, 1000);
        assert_eq!(stats.instructions, 10_000);
        assert!(stats.accuracy() < 0.6);
        assert_eq!(stats.static_predicted, 0);
        // MISPs/KI = mispredictions per 10 KI.
        assert!((stats.misp_per_ki() - stats.mispredictions as f64 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn static_hits_and_misses_are_attributed() {
        let mut hints = HintDatabase::new();
        hints.insert(BranchAddr(0x40), true);
        let events: Vec<BranchEvent> = (0..100).map(|i| ev(0x40, i % 10 != 9, 0)).collect();
        let mut p = CombinedPredictor::new(Box::new(Bimodal::new(64)), hints, ShiftPolicy::NoShift);
        let stats = MeasurePass::new(&mut p).run(SliceSource::new(&events));
        assert_eq!(stats.static_predicted, 100);
        assert_eq!(stats.static_mispredictions, 10);
        assert_eq!(stats.mispredictions, 10);
        assert!((stats.static_accuracy() - 0.9).abs() < 1e-12);
        assert!((stats.static_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_discounts_cold_start() {
        let events: Vec<BranchEvent> = (0..200).map(|_| ev(0x40, true, 9)).collect();
        let cold = MeasurePass::new(&mut bimodal()).run(SliceSource::new(&events));
        let warm = MeasurePass::new(&mut bimodal())
            .with_warmup(100)
            .run(SliceSource::new(&events));
        // The single cold mispredict lands in the warm-up window.
        assert_eq!(cold.mispredictions, 1);
        assert_eq!(warm.mispredictions, 0);
        assert!(warm.branches < cold.branches);
    }

    #[test]
    fn warmup_boundary_attribution_is_pinned() {
        // 20 events of 10 instructions each (gap 9): 200 instructions total.
        let events: Vec<BranchEvent> = (0..20).map(|_| ev(0x40, true, 9)).collect();
        let run = |warmup: u64| {
            MeasurePass::new(&mut bimodal())
                .with_warmup(warmup)
                .run(SliceSource::new(&events))
        };
        // An event ending exactly on the budget stays in the warm-up window:
        // event 10 ends at instruction 100 == budget.
        let exact = run(100);
        assert_eq!(exact.branches, 10);
        assert_eq!(exact.instructions, 100);
        // A straddling event is measured: with budget 95, event 10 spans
        // instructions 91..=100, crosses the boundary, and counts.
        let straddle = run(95);
        assert_eq!(straddle.branches, 11);
        assert_eq!(straddle.instructions, 110, "the full event is measured");
        // A budget past the stream measures nothing, but never panics.
        assert_eq!(run(10_000).branches, 0);
    }

    #[test]
    fn warmup_straddling_event_lands_in_exactly_one_window() {
        // Irregular gaps: events cost 3, 7, 11, 5, 2 instructions. A warm-up
        // budget inside the third event (3+7=10 < 12 < 21) must attribute
        // that event to the measured window — 3 measured branches, and
        // warm-up + measured instructions account for every event.
        let costs = [2u32, 6, 10, 4, 1]; // gap = cost - 1
        let events: Vec<BranchEvent> = costs.iter().map(|&g| ev(0x40, true, g)).collect();
        let stats = MeasurePass::new(&mut bimodal())
            .with_warmup(12)
            .run(SliceSource::new(&events));
        assert_eq!(stats.branches, 3);
        assert_eq!(stats.instructions, 11 + 5 + 2);
    }

    #[test]
    fn chunked_run_matches_across_chunk_boundaries() {
        // More events than one 4096-event chunk, with warm-up engaged, to
        // cross at least one chunk boundary in the measured window.
        let events: Vec<BranchEvent> = (0..10_000)
            .map(|i| ev(0x40 + (i % 13) * 4, i % 3 == 0, (i % 5) as u32))
            .collect();
        let reference = {
            // Hand-rolled single-event loop with the documented semantics.
            let mut p = CombinedPredictor::pure_dynamic(Box::new(Gshare::new(256)));
            let mut seen = 0u64;
            let (mut branches, mut mispredictions) = (0u64, 0u64);
            for e in &events {
                let r = p.resolve(e);
                seen += e.instructions();
                if seen <= 1000 {
                    continue;
                }
                branches += 1;
                mispredictions += u64::from(r.predicted_taken != e.taken);
            }
            (branches, mispredictions)
        };
        let stats = MeasurePass::new(&mut CombinedPredictor::pure_dynamic(Gshare::new(256)))
            .with_warmup(1000)
            .run(SliceSource::new(&events));
        assert_eq!((stats.branches, stats.mispredictions), reference);
    }

    #[test]
    fn collisions_are_classified_by_final_correctness() {
        // Two branches with pseudo-random outcomes wander across a tiny
        // gshare table and repeatedly steal each other's counters.
        let mut events = Vec::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            events.push(ev(0x0, state & (1 << 33) != 0, 0));
            events.push(ev(0x1000, state & (1 << 34) != 0, 0));
        }
        let mut p = CombinedPredictor::pure_dynamic(Box::new(Gshare::new(16)));
        let stats = MeasurePass::new(&mut p).run(SliceSource::new(&events));
        assert!(stats.collisions.total > 0, "tiny table must alias");
        assert_eq!(
            stats.collisions.total,
            stats.collisions.constructive + stats.collisions.destructive
        );
    }

    #[test]
    fn observer_sees_every_measured_branch() {
        // Per-branch consumers ride the measurement's traversal as their
        // own pass; they see exactly the chunks it measures.
        let events: Vec<BranchEvent> = (0..5000).map(|i| ev(0x40, i % 2 == 0, 0)).collect();
        let mut p = bimodal();
        let mut measure = MeasurePass::new(&mut p);
        let mut observed = Vec::new();
        let mut observer = sdbp_passes::FnPass::new("observer", |chunk: &[BranchEvent]| {
            observed.extend_from_slice(chunk)
        });
        PassRunner::new().run(
            SliceSource::new(&events),
            &mut [&mut measure, &mut observer],
        );
        assert_eq!(observed, events);
        assert_eq!(measure.stats().branches, 5000);
    }
}
