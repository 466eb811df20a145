//! The hot-path simulation-kernel micro-benchmark.
//!
//! Measures raw kernel throughput — resolved branches per second through
//! [`CombinedPredictor`] + [`Simulator`] — for every built-in predictor and
//! a gshare size sweep, against a faithful replica of the pre-optimization
//! kernel: a gshare built on the naive [`ReferenceTable`], virtually
//! dispatched through `Box<dyn DynamicPredictor>`, driven one event at a
//! time through `next_event`. The same workload streams feed both sides, so
//! the ratio isolates the kernel changes (bit-packed counters, enum
//! dispatch, chunked event pulls) from everything else.
//!
//! Run by `sdbp bench kernel`, which writes the machine-readable
//! `BENCH_kernel.json` record used by CI and the performance docs.

use crate::{timed, Timing};
use sdbp_core::{
    ArtifactCache, BranchResolution, CombinedPredictor, ShiftPolicy, SimStats, Simulator,
};
use sdbp_predictors::{
    DynamicPredictor, HistoryRegister, Prediction, PredictorConfig, PredictorKind, ReferenceTable,
};
use sdbp_profiles::HintDatabase;
use sdbp_trace::{BranchAddr, BranchEvent, BranchSource, SliceSource};
use sdbp_workloads::{Benchmark, InputSet};
use std::fmt;
use std::hint::black_box;
use std::sync::Arc;

/// Per-benchmark instruction budget of the full workload suite.
pub const FULL_INSTRUCTIONS: u64 = 4_000_000;

/// Per-benchmark instruction budget under `--quick` (CI smoke mode).
pub const QUICK_INSTRUCTIONS: u64 = 200_000;

/// The size at which the baseline comparison runs (the acceptance point:
/// current gshare at this size must beat the reference kernel by >= 2x).
pub const BASELINE_SIZE: usize = 4 * 1024;

/// The gshare sizes swept in addition to the all-predictor comparison.
pub const GSHARE_SIZES: [usize; 4] = [1024, 4 * 1024, 16 * 1024, 64 * 1024];

/// One timed kernel measurement: a full pass of the workload suite through
/// one predictor configuration.
#[derive(Debug, Clone)]
pub struct KernelMeasurement {
    /// Scheme label (`"gshare"`, …, or [`ReferenceGshare`]'s name for the
    /// baseline row).
    pub label: String,
    /// Modeled predictor budget in bytes.
    pub size_bytes: usize,
    /// Branches resolved in one suite pass.
    pub branches: u64,
    /// Wall clock of one suite pass over the repetitions.
    pub timing: Timing,
    /// Table collisions accumulated over the pass (a cheap cross-check that
    /// both kernels simulated the same thing).
    pub collisions: u64,
}

impl KernelMeasurement {
    /// Kernel throughput in resolved branches per second, over the fastest
    /// repetition.
    pub fn branches_per_sec(&self) -> f64 {
        if self.timing.min_s > 0.0 {
            self.branches as f64 / self.timing.min_s
        } else {
            0.0
        }
    }
}

/// One summary row: label, size and throughput.
impl fmt::Display for KernelMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mbr_per_s = self.branches_per_sec() / 1e6;
        let (label, size) = (&self.label, self.size_bytes);
        write!(f, "  {label:<20} {size:>7}B  {mbr_per_s:>12.2} Mbranches/s")
    }
}

/// Everything one `sdbp bench kernel` run produced.
#[derive(Debug)]
pub struct KernelReport {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// Timed repetitions per row.
    pub reps: u32,
    /// Per-benchmark instruction budget used.
    pub instructions_per_benchmark: u64,
    /// Total branch events across the suite (one pass).
    pub events: u64,
    /// The pre-optimization kernel replica at [`BASELINE_SIZE`].
    pub baseline: KernelMeasurement,
    /// The current kernel, per predictor/size.
    pub kernels: Vec<KernelMeasurement>,
    /// Trace-store hits during workload generation.
    pub cache_hits: u64,
    /// Trace-store misses during workload generation.
    pub cache_misses: u64,
}

impl KernelReport {
    /// The current kernel's gshare row at [`BASELINE_SIZE`], the row the
    /// reference kernel is compared with.
    fn current_gshare(&self) -> Option<&KernelMeasurement> {
        self.kernels
            .iter()
            .find(|m| m.label == "gshare" && m.size_bytes == BASELINE_SIZE)
    }

    /// Whether the reference kernel and the current gshare at
    /// [`BASELINE_SIZE`] simulated the same thing: equal branches and
    /// equal collisions. A disagreement means one of the kernels is wrong.
    pub fn kernels_agree(&self) -> bool {
        self.current_gshare().is_some_and(|m| {
            m.branches == self.baseline.branches && m.collisions == self.baseline.collisions
        })
    }

    /// Current-kernel gshare throughput at [`BASELINE_SIZE`] over the
    /// reference kernel — the headline speedup.
    pub fn gshare_speedup(&self) -> f64 {
        let current = self
            .current_gshare()
            .map(KernelMeasurement::branches_per_sec)
            .unwrap_or(0.0);
        let base = self.baseline.branches_per_sec();
        if base > 0.0 {
            current / base
        } else {
            0.0
        }
    }

    /// A terse human-readable table for the CLI.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "simulation kernel throughput ({} events/pass, best of reps)\n",
            self.events
        ));
        for m in std::iter::once(&self.baseline).chain(&self.kernels) {
            out.push_str(&format!("{m}\n"));
        }
        out.push_str(&format!(
            "  gshare {}B speedup over reference kernel: {:.2}x\n",
            BASELINE_SIZE,
            self.gshare_speedup()
        ));
        out.push_str(&format!(
            "cache: {} trace hits / {} misses\n",
            self.cache_hits, self.cache_misses
        ));
        out
    }
}

/// The pre-optimization gshare: same index function and collision semantics
/// as [`sdbp_predictors::Gshare`], but backed by the naive
/// [`ReferenceTable`] (unpacked `SaturatingCounter` vector plus
/// `Option<BranchAddr>` tag vector). Predictions are bit-identical to the
/// packed gshare; only the storage layout — and therefore the speed —
/// differs.
#[derive(Debug, Clone)]
pub struct ReferenceGshare {
    table: ReferenceTable,
    history: HistoryRegister,
    history_len: u32,
    latched: Option<(BranchAddr, u64)>,
}

impl ReferenceGshare {
    /// Mirrors `Gshare::new`: history length = index width capped at 12.
    pub fn new(size_bytes: usize) -> Self {
        let table = ReferenceTable::two_bit(size_bytes * 4);
        let history_len = table.index_bits().min(12);
        Self {
            history: HistoryRegister::new(history_len),
            history_len,
            table,
            latched: None,
        }
    }

    fn index(&self, pc: BranchAddr) -> u64 {
        let hist_mask = if self.history_len >= 64 {
            u64::MAX
        } else {
            (1u64 << self.history_len) - 1
        };
        (pc.word_index() ^ (self.history.bits(self.history_len) & hist_mask))
            & self.table.index_mask()
    }
}

impl DynamicPredictor for ReferenceGshare {
    fn name(&self) -> &'static str {
        "gshare-reference"
    }

    fn size_bytes(&self) -> usize {
        self.table.size_bytes()
    }

    fn predict(&mut self, pc: BranchAddr) -> Prediction {
        let index = self.index(pc);
        let (taken, collision) = self.table.lookup(index, pc);
        self.latched = Some((pc, index));
        Prediction { taken, collision }
    }

    fn update(&mut self, pc: BranchAddr, taken: bool) {
        let (latched_pc, index) = self.latched.take().expect("update without predict");
        assert_eq!(latched_pc, pc, "gshare-reference: update pc mismatch");
        self.table.train(index, taken);
        self.history.push(taken);
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
}

/// Generates (through `cache`, so reruns hit the trace store) the event
/// stream of every benchmark at the given budget.
pub fn workload_suite(cache: &ArtifactCache, instructions: u64) -> Vec<Arc<Vec<BranchEvent>>> {
    Benchmark::ALL
        .iter()
        .map(|&b| cache.events(b, InputSet::Ref, crate::SEED, instructions))
        .collect()
}

/// One suite pass through the **current** kernel: enum-dispatched predictor,
/// chunked [`Simulator`] loop, packed tables. Returns (branches, collisions).
pub fn current_kernel_pass(
    config: &PredictorConfig,
    suite: &[Arc<Vec<BranchEvent>>],
) -> (u64, u64) {
    let mut branches = 0u64;
    let mut collisions = 0u64;
    for events in suite {
        let mut predictor = CombinedPredictor::pure_dynamic(config.build_any());
        let stats = Simulator::new().run(SliceSource::new(events), &mut predictor);
        branches += stats.branches;
        collisions += predictor.total_collisions();
    }
    (branches, collisions)
}

/// A line-for-line replica of the pre-optimization combined predictor: the
/// dynamic component behind a `Box<dyn DynamicPredictor>` **field** (so
/// every `predict`/`update` is a virtual call, as it was when the concrete
/// type was erased at a crate boundary) and an unconditional per-branch
/// hint-database probe.
struct BaselineCombined {
    dynamic: Box<dyn DynamicPredictor>,
    hints: HintDatabase,
    shift_policy: ShiftPolicy,
}

impl BaselineCombined {
    fn resolve(&mut self, event: &BranchEvent) -> BranchResolution {
        match self.hints.get(event.pc) {
            Some(hint_taken) => {
                if self.shift_policy == ShiftPolicy::Shift {
                    self.dynamic.shift_history(event.taken);
                }
                BranchResolution {
                    predicted_taken: hint_taken,
                    was_static: true,
                    collision: false,
                }
            }
            None => {
                let pred = self.dynamic.predict(event.pc);
                self.dynamic.update(event.pc, event.taken);
                BranchResolution {
                    predicted_taken: pred.taken,
                    was_static: false,
                    collision: pred.collision,
                }
            }
        }
    }
}

/// One suite pass through the **reference** kernel: `Box<dyn>` virtual
/// dispatch, one `next_event` call per branch, naive table storage, and the
/// original single-event accounting loop — the shape of the simulator
/// before the kernel optimizations.
pub fn baseline_kernel_pass(size_bytes: usize, suite: &[Arc<Vec<BranchEvent>>]) -> (u64, u64) {
    let mut branches = 0u64;
    let mut collisions = 0u64;
    for events in suite {
        // `black_box` hides the concrete type behind the vtable pointer.
        // Without it LLVM devirtualizes and inlines the whole predictor
        // into this loop — an optimization the pre-PR build never got,
        // because the box was constructed in a different crate than the
        // simulator loop that called through it.
        let boxed: Box<dyn DynamicPredictor> = Box::new(ReferenceGshare::new(size_bytes));
        let mut predictor = BaselineCombined {
            dynamic: black_box(boxed),
            hints: HintDatabase::new(),
            shift_policy: ShiftPolicy::NoShift,
        };
        let mut source = SliceSource::new(events);
        // The original `run_with_observer` body (warm-up budget 0).
        let mut stats = SimStats::default();
        while let Some(event) = source.next_event() {
            let resolution = predictor.resolve(&event);
            let correct = resolution.predicted_taken == event.taken;
            stats.instructions += event.instructions();
            stats.branches += 1;
            stats.mispredictions += u64::from(!correct);
            if resolution.was_static {
                stats.static_predicted += 1;
                stats.static_mispredictions += u64::from(!correct);
            }
            if resolution.collision {
                stats.collisions.record(correct);
            }
        }
        black_box(&stats);
        branches += stats.branches;
        collisions += predictor.dynamic.total_collisions();
    }
    (branches, collisions)
}

/// Times `pass`, one suite pass through some kernel, as the row `label`.
fn measure(
    label: String,
    size_bytes: usize,
    reps: u32,
    pass: impl FnMut() -> (u64, u64),
) -> KernelMeasurement {
    let (timing, (branches, collisions)) = timed(reps, pass);
    KernelMeasurement {
        label,
        size_bytes,
        branches,
        timing,
        collisions,
    }
}

/// Runs the full kernel benchmark: the reference baseline, a gshare size
/// sweep, and every other predictor at [`BASELINE_SIZE`], with `progress`
/// invoked once per finished row. Every row re-pulls its workload streams
/// through one shared [`ArtifactCache`], so the report's cache counters
/// show one miss per benchmark and hits for every reuse.
pub fn run(quick: bool, mut progress: impl FnMut(&KernelMeasurement)) -> KernelReport {
    let instructions = if quick {
        QUICK_INSTRUCTIONS
    } else {
        FULL_INSTRUCTIONS
    };
    let reps = if quick { 1 } else { 3 };
    let cache = ArtifactCache::new();
    let suite = workload_suite(&cache, instructions);
    let events: u64 = suite.iter().map(|e| e.len() as u64).sum();

    let baseline = measure("gshare-reference".into(), BASELINE_SIZE, reps, || {
        baseline_kernel_pass(BASELINE_SIZE, &suite)
    });
    progress(&baseline);

    let comparison_kinds = if quick {
        // The cheap bimodal floor, the dearest SWAR-batched skewed
        // predictor, and both frontier designs, so CI smoke exercises
        // every kernel dispatch family.
        vec![
            PredictorKind::Bimodal,
            PredictorKind::TwoBcGskew,
            PredictorKind::Perceptron,
            PredictorKind::TageLite,
        ]
    } else {
        PredictorKind::ALL
            .iter()
            .copied()
            .filter(|&k| k != PredictorKind::Gshare)
            .collect()
    };
    let rows = GSHARE_SIZES
        .map(|size| (PredictorKind::Gshare, size))
        .into_iter()
        .chain(comparison_kinds.into_iter().map(|k| (k, BASELINE_SIZE)));
    let mut kernels = Vec::new();
    for (kind, size) in rows {
        let suite = workload_suite(&cache, instructions);
        let config = PredictorConfig::new(kind, size).expect("bench sizes are powers of two");
        let m = measure(kind.to_string(), size, reps, || {
            current_kernel_pass(&config, &suite)
        });
        progress(&m);
        kernels.push(m);
    }

    let stats = cache.stats();
    KernelReport {
        quick,
        reps,
        instructions_per_benchmark: instructions,
        events,
        baseline,
        kernels,
        cache_hits: stats.trace_hits,
        cache_misses: stats.trace_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> Vec<Arc<Vec<BranchEvent>>> {
        workload_suite(&ArtifactCache::new(), 60_000)
    }

    #[test]
    fn reference_gshare_matches_packed_gshare_exactly() {
        // Same index function + same collision semantics: the two kernels
        // must agree branch for branch, not just in aggregate.
        let suite = tiny_suite();
        let mut packed = sdbp_predictors::Gshare::new(BASELINE_SIZE);
        let mut reference = ReferenceGshare::new(BASELINE_SIZE);
        assert_eq!(packed.size_bytes(), reference.size_bytes());
        for events in &suite {
            for e in events.iter() {
                let a = packed.predict(e.pc);
                let b = reference.predict(e.pc);
                assert_eq!(a, b);
                packed.update(e.pc, e.taken);
                reference.update(e.pc, e.taken);
            }
        }
        assert_eq!(packed.total_collisions(), reference.total_collisions());
    }

    #[test]
    fn both_kernel_passes_simulate_the_same_branches() {
        let suite = tiny_suite();
        let config = PredictorConfig::new(PredictorKind::Gshare, BASELINE_SIZE).unwrap();
        let current = current_kernel_pass(&config, &suite);
        let baseline = baseline_kernel_pass(BASELINE_SIZE, &suite);
        assert_eq!(current, baseline, "(branches, collisions) must agree");
    }
}
