//! The parallel experiment sweep engine.
//!
//! The paper's headline artifacts (Figures 1–13, Tables 1–5) are grids:
//! predictor × size-in-bytes × selection-scheme × benchmark. [`Sweep`] plans
//! such a grid once, then runs the plan across [`std::thread::scope`]
//! workers sharing one [`ArtifactCache`]. First one fused traversal per
//! profiling run computes every profile the grid's cells read; then the
//! cells that share a measurement stream ride one traversal together
//! ([`Lab::run_lockstep`]). Results come back in **spec order regardless of
//! completion order**, and — because artifact generation is deterministic
//! and cached artifacts are bit-identical to fresh ones — a parallel sweep
//! produces exactly the same [`Report`]s as running the same specs one by
//! one through [`Lab::run`] (this is tested).
//!
//! Worker count resolution, in priority order: [`Sweep::with_threads`], the
//! `SDBP_THREADS` environment variable, then [`std::thread::available_parallelism`];
//! the result is clamped to the number of cells.
//!
//! ```
//! use sdbp_core::{ExperimentSpec, Sweep};
//! use sdbp_predictors::{PredictorConfig, PredictorKind};
//! use sdbp_profiles::SelectionScheme;
//! use sdbp_workloads::Benchmark;
//!
//! let specs: Vec<_> = [1024usize, 2048]
//!     .into_iter()
//!     .map(|size| {
//!         ExperimentSpec::self_trained(
//!             Benchmark::Compress,
//!             PredictorConfig::new(PredictorKind::Gshare, size).unwrap(),
//!             SelectionScheme::static_95(),
//!         )
//!         .with_instructions(100_000)
//!     })
//!     .collect();
//! let result = Sweep::new(specs).with_threads(2).run();
//! let reports = result.into_reports().unwrap();
//! assert_eq!(reports.len(), 2);
//! ```

use crate::cache::{ArtifactCache, ArtifactKey, CacheStats};
use crate::experiment::{ExperimentError, ExperimentSpec, Lab};
use crate::manifest::{entry_for, RunStore};
use crate::report::Report;
use sdbp_predictors::PredictorConfig;
use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The worker count a sweep uses when none is set explicitly: the
/// `SDBP_THREADS` environment variable if set to a positive integer,
/// otherwise all available cores.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("SDBP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| *n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A parallel run of many [`ExperimentSpec`]s sharing one [`ArtifactCache`].
///
/// Build with [`Sweep::new`], refine with the `with_*` builders, execute
/// with [`Sweep::run`]. See the [module docs](self) for determinism and
/// thread-count semantics.
pub struct Sweep {
    specs: Vec<ExperimentSpec>,
    threads: Option<usize>,
    cache: Arc<ArtifactCache>,
    verbose: bool,
    store_dir: Option<PathBuf>,
    resume: bool,
    cell_cap: Option<usize>,
}

impl Sweep {
    /// A sweep over `specs` with a fresh cache and automatic thread count.
    ///
    /// Every cell is gated on [`ExperimentSpec::validate`]: invalid cells
    /// come back as [`ExperimentError::Rejected`] without running, so a
    /// thousand-cell grid fails fast and explainably instead of panicking
    /// mid-sweep.
    pub fn new(specs: impl IntoIterator<Item = ExperimentSpec>) -> Self {
        Self {
            specs: specs.into_iter().collect(),
            threads: None,
            cache: Arc::new(ArtifactCache::new()),
            verbose: false,
            store_dir: None,
            resume: false,
            cell_cap: None,
        }
    }

    /// Attaches a persistent run store at `dir`: profiles are cached on disk
    /// across processes and every finished cell is appended to the store's
    /// `manifest.jsonl` (see [`crate::manifest`]).
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// With a store attached, replays cells whose spec digests already
    /// appear completed in the manifest instead of re-running them. Without
    /// a store this has no effect.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Caps the number of cells actually executed this run (`0` lifts the
    /// cap); the rest come back as [`ExperimentError::Skipped`]. Rejected
    /// cells count toward the cap. With a store and [`Sweep::with_resume`],
    /// a later run picks up the skipped cells — this is how the
    /// resume-equivalence harness interrupts a grid deterministically.
    pub fn with_max_cells(mut self, cap: usize) -> Self {
        self.cell_cap = (cap > 0).then_some(cap);
        self
    }

    /// Shares an existing artifact cache (e.g. a [`Lab::cache`], or the
    /// cache of a previous sweep) instead of starting cold.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Pins the worker count (`0` restores automatic resolution).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = (threads > 0).then_some(threads);
        self
    }

    /// Prints one progress line per completed cell to stderr.
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// The worker count [`run`](Sweep::run) will use.
    pub fn threads(&self) -> usize {
        self.threads
            .unwrap_or_else(default_threads)
            .min(self.specs.len().max(1))
    }

    /// Decides what happens to every cell before anything runs.
    ///
    /// A cell the manifest already completed is replayed; past the cell cap
    /// a cell is skipped; otherwise it counts toward the cap and is either
    /// rejected by [`ExperimentSpec::validate`] or runnable. The runnable cells' profile
    /// reads are pooled by profiling run, and the runnable cells are
    /// grouped by measurement stream, both in first-appearance order.
    fn plan(&self, run_store: Option<&RunStore>) -> Plan {
        let mut executed = 0usize;
        let cells: Vec<Disposition> = self
            .specs
            .iter()
            .map(|spec| {
                if self.resume {
                    if let Some(entry) = run_store.and_then(|rs| rs.replay(spec)) {
                        return Disposition::Replay(entry.outcome.clone());
                    }
                }
                if self.cell_cap.is_some_and(|cap| executed >= cap) {
                    return Disposition::Skip;
                }
                executed += 1;
                match spec.admit() {
                    Ok(()) => Disposition::Run,
                    Err(rejection) => Disposition::Rejected(rejection),
                }
            })
            .collect();
        let runnable: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| matches!(cell, Disposition::Run).then_some(i))
            .collect();
        let needs = runnable
            .iter()
            .filter_map(|&i| self.specs[i].profile_reads())
            .flat_map(|reads| {
                let reference = reads.merge.map(|(reference, _)| (reference, None));
                std::iter::once((reads.run, reads.accuracy)).chain(reference)
            });
        let profile_runs = group_by(needs)
            .into_iter()
            .map(|(run, accuracies)| {
                let mut predictors: Vec<PredictorConfig> = Vec::new();
                for predictor in accuracies.into_iter().flatten() {
                    if !predictors.contains(&predictor) {
                        predictors.push(predictor);
                    }
                }
                (run, predictors)
            })
            .collect();
        let streams = runnable.iter().map(|&i| (self.specs[i].measure_run(), i));
        let groups = group_by(streams)
            .into_iter()
            .map(|(_, members)| members)
            .collect();
        Plan {
            cells,
            profile_runs,
            groups,
        }
    }

    /// Executes every cell and returns the results in spec order.
    ///
    /// With a store attached (see [`Sweep::with_store`]), a failure to open
    /// the run store fails every cell with the same typed error instead of
    /// panicking; finished cells are appended to the store's manifest as
    /// they complete, resumed cells are replayed from it, and capped cells
    /// come back as [`ExperimentError::Skipped`] without touching it.
    pub fn run(self) -> SweepResult {
        let threads = self.threads();
        let run_store = match &self.store_dir {
            Some(dir) => match RunStore::open(dir, self.resume) {
                Ok(rs) => {
                    let rs = Arc::new(rs);
                    self.cache.attach_store(rs.store());
                    Some(rs)
                }
                Err(e) => {
                    let cells = self
                        .specs
                        .into_iter()
                        .enumerate()
                        .map(|(index, spec)| SweepCell {
                            index,
                            spec,
                            report: Err(e.clone()),
                        })
                        .collect();
                    return SweepResult {
                        cells,
                        wall_time: Duration::ZERO,
                        cell_time: Duration::ZERO,
                        branches: 0,
                        threads,
                        cache_stats: CacheStats::default(),
                        resumed: 0,
                        skipped: 0,
                    };
                }
            },
            None => None,
        };
        let started = Instant::now();
        let before = self.cache.stats();
        let plan = self.plan(run_store.as_deref());
        let Sweep {
            specs,
            cache,
            verbose,
            cell_cap,
            ..
        } = self;

        // Records a cell that ran or was rejected in the store's manifest
        // and prints its progress line.
        let total = specs.len();
        let done = AtomicUsize::new(0);
        let settle =
            |i: usize, spec: &ExperimentSpec, mut report: Result<Report, ExperimentError>| {
                if let Some(rs) = &run_store {
                    if let Err(e) = rs.append(&entry_for(i, spec, &report)) {
                        report = Err(e);
                    }
                }
                if verbose {
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    match &report {
                        Ok(r) => eprintln!("  [{finished:>3}/{total}] {r}"),
                        Err(e) => eprintln!("  [{finished:>3}/{total}] cell {i} failed: {e}"),
                    }
                }
                report
            };

        // Computing every profile up front leaves the groups nothing to
        // race on: racing bundles would each traverse the stream.
        pool(threads, &plan.profile_runs, |(run, predictors)| {
            let (benchmark, input, seed, budget) = *run;
            cache.profile_bundle(benchmark, input, seed, budget, predictors);
        });
        let lab = Lab::with_cache(Arc::clone(&cache));
        // A group's members share one traversal, so time is measured per
        // group, never per cell.
        let measured = pool(threads, &plan.groups, |members| {
            let group_started = Instant::now();
            let member_specs: Vec<&ExperimentSpec> = members.iter().map(|&i| &specs[i]).collect();
            let reports = lab.run_lockstep(&member_specs);
            let elapsed = group_started.elapsed();
            let reports: Vec<_> = members
                .iter()
                .zip(reports)
                .map(|(&i, report)| settle(i, &specs[i], report))
                .collect();
            (reports, elapsed)
        });
        let cell_time = measured.iter().map(|(_, elapsed)| *elapsed).sum();
        let mut ran: HashMap<usize, Result<Report, ExperimentError>> = plan
            .groups
            .iter()
            .flatten()
            .copied()
            .zip(measured.into_iter().flat_map(|(reports, _)| reports))
            .collect();
        let branches = ran
            .values()
            .filter_map(|report| report.as_ref().ok())
            .map(|r| r.stats.branches)
            .sum();

        let mut resumed = 0usize;
        let mut skipped = 0usize;
        let cells = specs
            .into_iter()
            .zip(plan.cells)
            .enumerate()
            .map(|(index, (spec, disposition))| {
                let report = match disposition {
                    Disposition::Run => ran
                        .remove(&index)
                        .expect("every runnable cell was measured"),
                    Disposition::Rejected(rejection) => settle(index, &spec, Err(rejection)),
                    Disposition::Replay(outcome) => {
                        resumed += 1;
                        outcome
                    }
                    Disposition::Skip => {
                        skipped += 1;
                        let cap = cell_cap.expect("skips only happen under a cap");
                        Err(ExperimentError::Skipped {
                            reason: format!("cell cap of {cap} reached before this cell"),
                        })
                    }
                };
                SweepCell {
                    index,
                    spec,
                    report,
                }
            })
            .collect();
        SweepResult {
            cells,
            wall_time: started.elapsed(),
            cell_time,
            branches,
            threads,
            cache_stats: cache.stats().since(&before),
            resumed,
            skipped,
        }
    }
}

/// What a sweep does with one cell, decided before anything runs.
enum Disposition {
    /// Measured with its stream group.
    Run,
    /// Failed [`ExperimentSpec::validate`]: reports the rejection without
    /// running.
    Rejected(ExperimentError),
    /// Completed by an earlier run: replays the manifest's outcome.
    Replay(Result<Report, ExperimentError>),
    /// Past the cell cap: reports [`ExperimentError::Skipped`].
    Skip,
}

/// A sweep's execution plan (see [`Sweep::plan`]).
struct Plan {
    /// One disposition per cell, in spec order.
    cells: Vec<Disposition>,
    /// Each profiling run the runnable cells read, with the predictors
    /// whose accuracy profiles on it they read; its bias profile is always
    /// read.
    profile_runs: Vec<(ArtifactKey, Vec<PredictorConfig>)>,
    /// The runnable cells grouped by measurement stream.
    groups: Vec<Vec<usize>>,
}

/// Groups `items` by key; keys and each key's values keep their
/// first-appearance order.
fn group_by<K: Copy + Eq + Hash, V>(items: impl IntoIterator<Item = (K, V)>) -> Vec<(K, Vec<V>)> {
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    for (key, value) in items {
        let g = *index.entry(key).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(value);
    }
    groups
}

/// Runs `work` on every item across up to `threads` scoped workers that
/// pull items from a shared counter, and returns the results in item order.
fn pool<T: Sync, R: Send>(threads: usize, items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let result = work(item);
                *slots[i].lock().expect("pool slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool slot lock")
                .expect("every item was worked")
        })
        .collect()
}

impl std::fmt::Debug for Sweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("cells", &self.specs.len())
            .field("threads", &self.threads())
            .finish()
    }
}

/// One executed cell of a sweep.
#[derive(Debug)]
pub struct SweepCell {
    /// Position of this cell in the input spec order.
    pub index: usize,
    /// The spec that was run.
    pub spec: ExperimentSpec,
    /// The outcome (a [`Report`], or the selection error that stopped it).
    pub report: Result<Report, ExperimentError>,
}

/// Everything a sweep produced: per-cell results in spec order plus timing
/// and cache observability.
#[derive(Debug)]
pub struct SweepResult {
    /// The executed cells, in the order their specs were given.
    pub cells: Vec<SweepCell>,
    /// Wall-clock time of the whole sweep.
    pub wall_time: Duration,
    /// Summed wall time of the stream groups' lockstep traversals
    /// ([`Lab::run_lockstep`]): the measuring time of the cells that ran,
    /// as if the groups had run back to back.
    pub cell_time: Duration,
    /// Branches simulated by the cells this sweep measured; replayed,
    /// rejected and skipped cells simulate none.
    pub branches: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Cache activity during this sweep (deltas, not lifetime totals).
    pub cache_stats: CacheStats,
    /// Cells replayed from a prior run's manifest instead of executing.
    pub resumed: usize,
    /// Cells not executed because the cell cap was reached.
    pub skipped: usize,
}

impl SweepResult {
    /// The reports in spec order, or the first error encountered.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest (by spec order) failed cell.
    pub fn into_reports(self) -> Result<Vec<Report>, ExperimentError> {
        self.cells.into_iter().map(|c| c.report).collect()
    }

    /// Wall-clock speedup over running the stream groups back to back:
    /// `cell_time / wall_time`.
    ///
    /// Note this understates the full benefit of the engine — cache reuse
    /// also shrinks the groups' times themselves.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        let total = self.cell_time.as_secs_f64();
        // Guard the degenerate sweeps (no cells, everything replayed, or a
        // sub-resolution wall clock): report parity, never NaN/inf.
        if !wall.is_finite() || wall <= 0.0 || !total.is_finite() || total <= 0.0 {
            1.0
        } else {
            total / wall
        }
    }

    /// Aggregate simulation throughput: the branches this sweep simulated
    /// divided by its wall-clock time. This is the engine's delivered rate
    /// (it credits both parallelism and cache reuse), not a per-kernel
    /// figure — see `sdbp bench kernel` for those.
    pub fn branches_per_sec(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        // A zero or non-finite wall clock (empty sweep, fully replayed
        // sweep) must not turn the throughput into NaN or infinity.
        if !wall.is_finite() || wall <= 0.0 {
            0.0
        } else {
            self.branches as f64 / wall
        }
    }

    /// A one-line summary: cell count, threads, wall time, speedup,
    /// aggregate branch throughput, and cache hit/miss counters (including
    /// traversals saved by fusion and lockstep), then the replayed and
    /// skipped cell counts when there are any.
    pub fn summary(&self) -> String {
        let mut summary = format!(
            "{} cells on {} threads in {:.2?} (cell time {:.2?}, {:.1}x, {:.1} Mbr/s); {}",
            self.cells.len(),
            self.threads,
            self.wall_time,
            self.cell_time,
            self.speedup(),
            self.branches_per_sec() / 1e6,
            self.cache_stats,
        );
        if self.resumed > 0 {
            summary.push_str(&format!("; {} replayed from manifest", self.resumed));
        }
        if self.skipped > 0 {
            summary.push_str(&format!("; {} skipped at cell cap", self.skipped));
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ProfileSource;
    use sdbp_predictors::{PredictorConfig, PredictorKind};
    use sdbp_profiles::SelectionScheme;
    use sdbp_workloads::{Benchmark, InputSet};

    fn grid() -> Vec<ExperimentSpec> {
        let mut specs = Vec::new();
        for benchmark in [Benchmark::Compress, Benchmark::Go] {
            for size in [512usize, 1024] {
                for scheme in [SelectionScheme::None, SelectionScheme::static_acc()] {
                    specs.push(
                        ExperimentSpec::self_trained(
                            benchmark,
                            PredictorConfig::new(PredictorKind::Gshare, size).unwrap(),
                            scheme,
                        )
                        .with_instructions(120_000),
                    );
                }
            }
        }
        specs
    }

    #[test]
    fn results_come_back_in_spec_order() {
        let specs = grid();
        let result = Sweep::new(specs.clone()).with_threads(4).run();
        assert_eq!(result.cells.len(), specs.len());
        for (i, cell) in result.cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.spec, specs[i]);
            let report = cell.report.as_ref().unwrap();
            assert_eq!(report.benchmark, specs[i].benchmark);
            assert_eq!(report.predictor, specs[i].predictor);
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let specs = grid();
        let lab = Lab::new();
        let serial: Vec<_> = specs.iter().map(|s| lab.run(s).unwrap()).collect();
        let parallel = Sweep::new(specs)
            .with_threads(4)
            .run()
            .into_reports()
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fusion_off_matches_fused_results_bit_for_bit() {
        let fused = Sweep::new(grid()).with_threads(2).run();
        // The unfused baseline computes every profile on a traversal of its
        // own before the sweep starts, so the sweep only ever hits.
        let cache = Arc::new(ArtifactCache::new());
        for reads in grid().iter().filter_map(ExperimentSpec::profile_reads) {
            let (benchmark, input, seed, budget) = reads.run;
            cache.profile_bundle(benchmark, input, seed, budget, &[]);
            cache.profile_bundle(benchmark, input, seed, budget, reads.accuracy.as_slice());
        }
        let unfused = Sweep::new(grid())
            .with_cache(Arc::clone(&cache))
            .with_threads(2)
            .run();
        // grid(): per benchmark, one profiling run feeds a bias profile and
        // two accuracy profiles (512 B and 1 KB gshare) — fusing the three
        // saves two traversals, times two benchmarks.
        assert_eq!(
            fused.cache_stats.fused_traversals_saved, 4,
            "{}",
            fused.cache_stats
        );
        assert_eq!(cache.stats().fused_traversals_saved, 0, "{}", cache.stats());
        assert_eq!(
            unfused.cache_stats.bias_misses + unfused.cache_stats.accuracy_misses,
            0,
            "{}",
            unfused.cache_stats
        );
        assert_eq!(
            fused.into_reports().unwrap(),
            unfused.into_reports().unwrap(),
            "fusion must not change a single bit of the results"
        );
    }

    #[test]
    fn lockstep_off_matches_lockstep_results_bit_for_bit() {
        let locked = Sweep::new(grid()).with_threads(2).run();
        // The sequential baseline measures every cell on a traversal of its
        // own: a lockstep group of one.
        let lab = Lab::new();
        let sequential: Vec<_> = grid().iter().map(|s| lab.run(s).unwrap()).collect();
        // grid(): two measurement streams (one per benchmark), four cells
        // each — lockstep saves three traversals per stream.
        assert_eq!(
            locked.cache_stats.lockstep_traversals_saved, 6,
            "{}",
            locked.cache_stats
        );
        let stats = lab.cache().stats();
        assert_eq!(stats.lockstep_traversals_saved, 0, "{stats}");
        assert_eq!(
            locked.into_reports().unwrap(),
            sequential,
            "lockstep must not change a single bit of the results"
        );
    }

    #[test]
    fn plan_pools_profile_reads_and_groups_streams() {
        let gshare = |size| PredictorConfig::new(PredictorKind::Gshare, size).unwrap();
        let run = |benchmark, input| (benchmark, input, 2000, 120_000);
        let plan = Sweep::new(grid()).plan(None);
        assert_eq!(
            plan.profile_runs,
            vec![
                (
                    run(Benchmark::Compress, InputSet::Ref),
                    vec![gshare(512), gshare(1024)]
                ),
                (
                    run(Benchmark::Go, InputSet::Ref),
                    vec![gshare(512), gshare(1024)]
                ),
            ]
        );
        assert_eq!(plan.groups, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);

        // Merged cross-training reads the `Ref` run's bias as well.
        let merged = grid()[1]
            .clone()
            .with_profile(ProfileSource::MergedCrossTrained {
                max_bias_change: 0.05,
            });
        let plan = Sweep::new([merged]).plan(None);
        assert_eq!(
            plan.profile_runs,
            vec![
                (run(Benchmark::Compress, InputSet::Train), vec![gshare(512)]),
                (run(Benchmark::Compress, InputSet::Ref), vec![]),
            ]
        );
    }

    #[test]
    fn lockstep_groups_survive_rejected_members() {
        let mut specs = grid();
        // A warm-up swallowing the whole budget fails validation but keeps
        // the cell on compress's measurement stream.
        specs[0].warmup_instructions = 120_000;
        let result = Sweep::new(specs).with_threads(2).run();
        assert!(matches!(
            result.cells[0].report,
            Err(ExperimentError::Rejected { .. })
        ));
        // Compress's three remaining cells still share one traversal.
        let stats = result.cache_stats;
        assert_eq!(stats.lockstep_traversals_saved, 2 + 3, "{stats}");
        let lab = Lab::new();
        for cell in &result.cells[1..] {
            assert_eq!(cell.report.as_ref().unwrap(), &lab.run(&cell.spec).unwrap());
        }
    }

    #[test]
    fn shared_cache_turns_repeat_sweeps_into_hits() {
        let cache = Arc::new(ArtifactCache::new());
        let first = Sweep::new(grid())
            .with_cache(Arc::clone(&cache))
            .with_threads(2)
            .run();
        assert!(first.cache_stats.misses() > 0);
        let second = Sweep::new(grid())
            .with_cache(Arc::clone(&cache))
            .with_threads(2)
            .run();
        assert_eq!(
            second.cache_stats.bias_misses + second.cache_stats.accuracy_misses,
            0,
            "second identical sweep must reuse every profile: {}",
            second.cache_stats
        );
    }

    #[test]
    fn thread_count_clamps_to_cells() {
        let sweep = Sweep::new(grid()).with_threads(64);
        assert_eq!(sweep.threads(), 8);
        let empty = Sweep::new(Vec::new()).with_threads(64);
        assert_eq!(empty.threads(), 1);
        assert_eq!(empty.run().cells.len(), 0);
    }

    #[test]
    fn single_thread_sweep_works() {
        let result = Sweep::new(grid()[..2].to_vec()).with_threads(1).run();
        assert_eq!(result.threads, 1);
        assert!(result.into_reports().is_ok());
    }

    #[test]
    fn strict_mode_rejects_invalid_cells_and_runs_the_rest() {
        let mut specs = grid();
        specs[1].measure_instructions = Some(0);
        let result = Sweep::new(specs).with_threads(2).run();
        match &result.cells[1].report {
            Err(ExperimentError::Rejected { reason }) => {
                assert!(reason.contains("measurement budget"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        for (i, cell) in result.cells.iter().enumerate() {
            if i != 1 {
                assert!(cell.report.is_ok(), "cell {i}: {:?}", cell.report);
            }
        }
    }

    #[test]
    fn rejected_cells_count_toward_the_cell_cap() {
        let mut specs = grid();
        specs[0].measure_instructions = Some(0);
        let result = Sweep::new(specs).with_threads(2).with_max_cells(3).run();
        assert!(matches!(
            result.cells[0].report,
            Err(ExperimentError::Rejected { .. })
        ));
        assert!(result.cells[1..3].iter().all(|c| c.report.is_ok()));
        assert_eq!(result.skipped, grid().len() - 3);
    }

    #[test]
    fn degenerate_sweeps_never_produce_nan_throughput() {
        let empty = Sweep::new(Vec::new()).with_threads(1).run();
        assert!(empty.speedup().is_finite(), "{}", empty.speedup());
        assert!(
            empty.branches_per_sec().is_finite(),
            "{}",
            empty.branches_per_sec()
        );
        let summary = empty.summary();
        assert!(!summary.contains("NaN"), "{summary}");
        assert!(!summary.contains("inf"), "{summary}");

        // A hand-built result with a zero wall clock (every cell replayed).
        let zero_wall = SweepResult {
            cells: Vec::new(),
            wall_time: Duration::ZERO,
            cell_time: Duration::ZERO,
            branches: 0,
            threads: 1,
            cache_stats: CacheStats::default(),
            resumed: 3,
            skipped: 0,
        };
        assert_eq!(zero_wall.speedup(), 1.0);
        assert_eq!(zero_wall.branches_per_sec(), 0.0);
        let summary = zero_wall.summary();
        assert!(!summary.contains("NaN"), "{summary}");
        assert!(summary.contains("3 replayed from manifest"), "{summary}");
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sdbp-sweep-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_records_a_manifest_and_resume_replays_it() {
        use crate::manifest::{RunManifest, RunStore};

        let root = temp_root("resume");
        let full = Sweep::new(grid()).with_threads(2).run();
        let full_reports = full.into_reports().unwrap();

        // Interrupted run: only the first 3 cells execute.
        let partial = Sweep::new(grid())
            .with_threads(2)
            .with_store(&root)
            .with_max_cells(3)
            .run();
        assert_eq!(partial.skipped, grid().len() - 3);
        assert!(matches!(
            partial.cells[5].report,
            Err(ExperimentError::Skipped { .. })
        ));
        let text = std::fs::read_to_string(RunStore::manifest_path(&root)).unwrap();
        assert_eq!(RunManifest::parse(&text).unwrap().entries.len(), 3);

        // Resumed run: replays 3, executes the remaining 5.
        let resumed = Sweep::new(grid())
            .with_threads(2)
            .with_store(&root)
            .with_resume(true)
            .run();
        assert_eq!(resumed.resumed, 3);
        assert_eq!(resumed.skipped, 0);
        assert!(
            resumed.cache_stats.disk_hits > 0,
            "resume must hit the profile disk tier: {}",
            resumed.cache_stats
        );
        let resumed_reports = resumed.into_reports().unwrap();
        assert_eq!(resumed_reports, full_reports, "resume is bit-identical");

        // The final manifest covers every cell and matches an uninterrupted
        // store-backed run in canonical form.
        let text = std::fs::read_to_string(RunStore::manifest_path(&root)).unwrap();
        let final_manifest = RunManifest::parse(&text).unwrap();
        assert_eq!(final_manifest.entries.len(), grid().len());

        let clean_root = temp_root("clean");
        let _ = Sweep::new(grid())
            .with_threads(2)
            .with_store(&clean_root)
            .run();
        let clean_text = std::fs::read_to_string(RunStore::manifest_path(&clean_root)).unwrap();
        let clean_manifest = RunManifest::parse(&clean_text).unwrap();
        assert_eq!(final_manifest.canonical(), clean_manifest.canonical());

        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&clean_root);
    }

    #[test]
    fn a_fully_replayed_sweep_reports_no_throughput() {
        let root = temp_root("replayed");
        let first = Sweep::new(grid()).with_threads(2).with_store(&root).run();
        assert!(first.branches > 0 && first.cell_time > Duration::ZERO);
        let replayed = Sweep::new(grid())
            .with_threads(2)
            .with_store(&root)
            .with_resume(true)
            .run();
        assert_eq!(replayed.resumed, grid().len());
        assert_eq!((replayed.branches, replayed.cell_time), (0, Duration::ZERO));
        assert_eq!(replayed.branches_per_sec(), 0.0);
        let summary = replayed.summary();
        assert!(
            summary.contains("cell time 0.00ns, 1.0x, 0.0 Mbr/s"),
            "{summary}"
        );
        assert_eq!(replayed.into_reports(), first.into_reports());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_lines_do_not_depend_on_the_thread_count() {
        let sorted_lines = |threads: usize| {
            let root = temp_root(&format!("threads-{threads}"));
            let _ = Sweep::new(grid())
                .with_threads(threads)
                .with_store(&root)
                .run();
            let text = std::fs::read_to_string(RunStore::manifest_path(&root)).unwrap();
            let _ = std::fs::remove_dir_all(&root);
            let mut lines: Vec<String> = text.lines().map(String::from).collect();
            lines.sort();
            lines
        };
        let serial = sorted_lines(1);
        assert_eq!(serial.len(), grid().len());
        assert_eq!(serial, sorted_lines(2));
    }

    #[test]
    fn unopenable_store_fails_every_cell_with_a_typed_error() {
        // A file where the store directory should be.
        let root = temp_root("blocked");
        std::fs::create_dir_all(&root).unwrap();
        let blocker = root.join("not-a-dir");
        std::fs::write(&blocker, b"in the way").unwrap();
        let result = Sweep::new(grid()[..2].to_vec())
            .with_threads(1)
            .with_store(&blocker)
            .run();
        for cell in &result.cells {
            assert!(
                matches!(cell.report, Err(ExperimentError::Io { .. })),
                "{:?}",
                cell.report
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn summary_reports_observability() {
        let result = Sweep::new(grid()).with_threads(2).run();
        let summary = result.summary();
        assert!(summary.contains("8 cells on 2 threads"), "{summary}");
        assert!(summary.contains("cache"), "{summary}");
        assert!(summary.contains("Mbr/s"), "{summary}");
        assert!(summary.contains("traversals saved by fusion"), "{summary}");
        assert!(
            summary.contains("traversals saved by lockstep"),
            "{summary}"
        );
        let branches: u64 = result
            .cells
            .iter()
            .map(|c| c.report.as_ref().unwrap().stats.branches)
            .sum();
        assert_eq!(result.branches, branches, "every cell ran");
        assert!(result.branches_per_sec() > 0.0, "{summary}");
    }
}
