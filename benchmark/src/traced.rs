//! The traced run: the benchmark drives each workload's cells itself.
//!
//! [`CellRunner`] repeats what `Sweep::run`, `Lab::run_lockstep` and
//! `ArtifactCache::profile_bundle` do, step for step and through the same
//! public calls, but wraps each call in a span: pre-flight,
//! `ArtifactCache::events` or `open_source`, `PassRunner::run` over
//! [`TimedSource`]/[`TimedPass`], hint selection and the interference
//! ranking, and one `MeasurePass` per lockstep member. Its reports must equal
//! the production path's bit for bit; [`oracle`] checks that.
//!
//! The predictor kernel cannot be timed from outside `MeasurePass`, so
//! [`CellRunner::shadow_kernel`] estimates it after the timed phase by replaying
//! each member's dynamically predicted events through a fresh
//! `predict_update_batch`. The estimate is kept out of the span sums.

use crate::metrics::ratio;
use crate::spans::{self_times, write_json, Span, TimedPass, TimedSource, Tracer};
use crate::workloads::{self, admit, ingest_specs, Check, Prepared, Workload};
use sdbp_bench::SEED;
use sdbp_core::{
    ArtifactCache, ArtifactKey, CombinedPredictor, ExperimentSpec, Lab, MeasurePass, ProfileSource,
    Report, SimStats, Sweep,
};
use sdbp_passes::{Pass, PassRunner, TraversalStats};
use sdbp_predictors::{AnyPredictor, DynamicPredictor, Prediction, PredictorConfig};
use sdbp_profiles::{
    rank_interference, AccuracyPass, AccuracyProfile, BiasPass, BiasProfile, HintDatabase,
    InterferenceOptions, ProfileDatabase, SelectionScheme,
};
use sdbp_trace::{BranchEvent, BranchSource, SliceSource, TraceStats};
use sdbp_workloads::{imports, open_source, Benchmark, InputSet};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

// Span names: the module each call belongs to.
const GEN: &str = "workloads.gen";
const DECODE: &str = "trace.decode";
const ADMIT: &str = "trace.admit";
const STATS: &str = "trace.stats";
const PREFLIGHT: &str = "check.preflight";
const BIAS: &str = "profiles.bias";
const ACCURACY: &str = "profiles.accuracy";
const SELECT: &str = "profiles.select";
const INTERFERENCE: &str = "profiles.interference";
const EVENTS: &str = "core.cache.events";
const RUN: &str = "passes.run";
const MEASURE: &str = "core.simulator.measure";
const GROUP: &str = "core.sweep.group";
const PREWARM: &str = "core.sweep.prewarm";

/// Whose stream a benchmark reads: the generators' or the importers'.
fn source_layer(benchmark: Benchmark) -> &'static str {
    match benchmark {
        Benchmark::Imported(_) => DECODE,
        _ => GEN,
    }
}

type Slot<T> = Arc<OnceLock<Arc<T>>>;

fn claim<K: std::hash::Hash + Eq, T>(map: &Mutex<HashMap<K, Slot<T>>>, key: K) -> Slot<T> {
    let mut map = map.lock().expect("profile map poisoned by a panic");
    Arc::clone(map.entry(key).or_default())
}

/// Counts taken at the layer boundaries.
#[derive(Debug, Default)]
struct Counters {
    traversals: AtomicU64,
    rejected: AtomicU64,
    groups: AtomicU64,
    profile_events: AtomicU64,
    decoded_bytes: AtomicU64,
    decode_errors: AtomicU64,
}

/// The measurement streams of one lockstep group and what each member left
/// to its dynamic predictor, kept for the kernel estimate.
type ShadowGroup = (ArtifactKey, Vec<(PredictorConfig, HintDatabase)>);

/// Drives cells through the production layers with a span around each call.
pub struct CellRunner<'a> {
    tracer: &'a Tracer,
    cache: Arc<ArtifactCache>,
    capacity: u64,
    threads: usize,
    bias: Mutex<HashMap<ArtifactKey, Slot<BiasProfile>>>,
    accuracy: Mutex<HashMap<(ArtifactKey, PredictorConfig), Slot<AccuracyProfile>>>,
    /// The stream each cache lookup last returned, to tell a hit (same
    /// allocation still alive) from a generation.
    resident: Mutex<HashMap<ArtifactKey, Weak<Vec<BranchEvent>>>>,
    shadow_plan: Mutex<Vec<ShadowGroup>>,
    counters: Counters,
}

impl<'a> CellRunner<'a> {
    /// A runner over `cache`, whose trace store holds `capacity`
    /// instructions, running sweeps on `threads` workers.
    pub fn new(
        tracer: &'a Tracer,
        cache: Arc<ArtifactCache>,
        capacity: u64,
        threads: usize,
    ) -> Self {
        Self {
            tracer,
            cache,
            capacity,
            threads,
            bias: Mutex::default(),
            accuracy: Mutex::default(),
            resident: Mutex::default(),
            shadow_plan: Mutex::default(),
            counters: Counters::default(),
        }
    }

    /// Runs `work` on every item over the runner's worker threads, like the
    /// sweep's worker pool, returning results in item order.
    fn pool<T: Sync, R: Send>(&self, items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(items.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let result = work(item);
                    *slots[i].lock().expect("result slot poisoned by a panic") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned by a panic")
                    .expect("every item ran")
            })
            .collect()
    }

    /// Counts one full decode of an imported file.
    fn note_decode(&self, benchmark: Benchmark) {
        if let Benchmark::Imported(slot) = benchmark {
            let bytes = imports::info(slot)
                .and_then(|info| std::fs::metadata(&info.path).ok())
                .map_or(0, |m| m.len());
            self.counters
                .decoded_bytes
                .fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// `ArtifactCache::events`, filed under the source layer when the call
    /// had to generate or decode the stream.
    fn events(&self, key: ArtifactKey) -> Arc<Vec<BranchEvent>> {
        let (benchmark, input, seed, instructions) = key;
        let span = self.tracer.open(EVENTS);
        let events = self.cache.events(benchmark, input, seed, instructions);
        let hit = {
            let mut resident = self.resident.lock().expect("resident map poisoned");
            let hit = resident
                .get(&key)
                .and_then(Weak::upgrade)
                .is_some_and(|old| Arc::ptr_eq(&old, &events));
            resident.insert(key, Arc::downgrade(&events));
            hit
        };
        if !hit {
            span.rename(source_layer(benchmark));
            span.set_events(events.len() as u64);
        }
        drop(span);
        if !hit {
            self.note_decode(benchmark);
        }
        events
    }

    /// `ArtifactCache::run_passes`: one traversal of a run through `passes`,
    /// replayed from the trace store or streamed when it does not fit.
    fn run_passes(&self, key: ArtifactKey, passes: &mut [&mut dyn Pass]) -> TraversalStats {
        let (benchmark, input, seed, instructions) = key;
        self.counters.traversals.fetch_add(1, Ordering::Relaxed);
        if instructions > self.capacity {
            let layer = source_layer(benchmark);
            let mut stream = self
                .tracer
                .span(layer, || open_source(benchmark, input, seed));
            let source = TimedSource::new(
                (&mut stream).take_instructions(instructions),
                self.tracer,
                layer,
            );
            let stats = self
                .tracer
                .span(RUN, || PassRunner::new().run(source, passes));
            self.note_decode(benchmark);
            if stream.import_error().is_some() {
                self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
            stats
        } else {
            let events = self.events(key);
            let source = TimedSource::new(SliceSource::new(&events), self.tracer, EVENTS);
            self.tracer
                .span(RUN, || PassRunner::new().run(source, passes))
        }
    }

    /// `ArtifactCache::profile_bundle`: the bias profile of a run and the
    /// accuracy profiles of `predictors` on it, computing everything cold
    /// in one fused traversal.
    fn profiles(
        &self,
        key: ArtifactKey,
        predictors: &[PredictorConfig],
    ) -> (Arc<BiasProfile>, Vec<Arc<AccuracyProfile>>) {
        let bias_slot = claim(&self.bias, key);
        let acc_slots: Vec<_> = predictors
            .iter()
            .map(|&p| claim(&self.accuracy, (key, p)))
            .collect();
        let bias_cold = bias_slot.get().is_none();
        let acc_cold: Vec<usize> = (0..predictors.len())
            .filter(|&i| acc_slots[i].get().is_none())
            .collect();
        if bias_cold || !acc_cold.is_empty() {
            let mut bias_pass =
                bias_cold.then(|| TimedPass::new(BiasPass::new(), self.tracer, BIAS));
            let mut engines: Vec<AnyPredictor> = acc_cold
                .iter()
                .map(|&i| self.tracer.span(ACCURACY, || predictors[i].build_any()))
                .collect();
            let mut acc_passes: Vec<_> = engines
                .iter_mut()
                .map(|e| TimedPass::new(AccuracyPass::new(e), self.tracer, ACCURACY))
                .collect();
            let mut passes: Vec<&mut dyn Pass> = Vec::new();
            if let Some(p) = bias_pass.as_mut() {
                passes.push(p);
            }
            for p in acc_passes.iter_mut() {
                passes.push(p);
            }
            let stats = self.run_passes(key, &mut passes);
            self.counters
                .profile_events
                .fetch_add(stats.events, Ordering::Relaxed);
            if let Some(pass) = bias_pass {
                let _ = bias_slot.set(Arc::new(pass.into_inner().into_profile()));
            }
            for (&i, pass) in acc_cold.iter().zip(acc_passes) {
                let _ = acc_slots[i].set(Arc::new(pass.into_inner().into_profile()));
            }
        }
        let computed = "cold profiles were computed above";
        (
            Arc::clone(bias_slot.get().expect(computed)),
            acc_slots
                .iter()
                .map(|slot| Arc::clone(slot.get().expect(computed)))
                .collect(),
        )
    }

    /// `Lab`'s phase one: hint selection and the combined predictor.
    fn phase_one(&self, spec: &ExperimentSpec) -> Result<(CombinedPredictor, usize), String> {
        let hints = if spec.scheme == SelectionScheme::None {
            HintDatabase::new()
        } else {
            let input = spec.profile.profile_input(spec.measure_input);
            let key = (spec.benchmark, input, spec.seed, spec.profile_budget());
            let needs: &[PredictorConfig] = if spec.scheme.needs_accuracy_profile() {
                std::slice::from_ref(&spec.predictor)
            } else {
                &[]
            };
            let (profiled, mut accuracies) = self.profiles(key, needs);
            let bias = match spec.profile {
                ProfileSource::SelfTrained | ProfileSource::CrossTrained => profiled,
                ProfileSource::MergedCrossTrained { max_bias_change } => {
                    let budget = spec
                        .profile_instructions
                        .unwrap_or_else(|| spec.benchmark.default_instructions(InputSet::Ref));
                    let key = (spec.benchmark, InputSet::Ref, spec.seed, budget);
                    let (reference, _) = self.profiles(key, &[]);
                    self.tracer.span(SELECT, || {
                        let mut db = ProfileDatabase::new(spec.benchmark.name());
                        db.add_run("train", (*profiled).clone());
                        db.add_run("ref", (*reference).clone());
                        Arc::new(db.merged_stable(max_bias_change))
                    })
                }
            };
            let ranking = if spec.scheme.needs_interference_ranking() {
                self.tracer.span(INTERFERENCE, || {
                    rank_interference(&bias, spec.predictor, &InterferenceOptions::default())
                })
            } else {
                None
            };
            let accuracy = accuracies.pop();
            self.tracer
                .span(SELECT, || {
                    spec.scheme.select_with_interference(
                        &bias,
                        accuracy.as_deref(),
                        ranking.as_ref(),
                    )
                })
                .map_err(|e| e.to_string())?
        };
        let hints_len = hints.len();
        let combined = self.tracer.span(MEASURE, || {
            CombinedPredictor::new(spec.predictor.build_any(), hints, spec.shift)
        });
        Ok((combined, hints_len))
    }

    /// `Lab::run_lockstep`: phase one per member, then every member's
    /// measurement pass over one traversal of the shared stream.
    fn measure_group(&self, specs: &[&ExperimentSpec]) -> Vec<Result<Report, String>> {
        let _group = self.tracer.open(GROUP);
        let first = specs[0];
        let key = (
            first.benchmark,
            first.measure_input,
            first.seed,
            first.measure_budget(),
        );
        let mut results: Vec<Option<Result<Report, String>>> = vec![None; specs.len()];
        let mut members: Vec<(usize, CombinedPredictor, usize)> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            match self.phase_one(spec) {
                Ok((combined, hints)) => members.push((i, combined, hints)),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        if !members.is_empty() {
            let plan = members
                .iter()
                .map(|(i, combined, _)| (specs[*i].predictor, combined.hints().clone()))
                .collect();
            self.shadow_plan
                .lock()
                .expect("shadow plan poisoned")
                .push((key, plan));
            let mut measures: Vec<_> = members
                .iter_mut()
                .map(|(i, combined, _)| {
                    let pass =
                        MeasurePass::new(combined).with_warmup(specs[*i].warmup_instructions);
                    TimedPass::new(pass, self.tracer, MEASURE)
                })
                .collect();
            {
                let mut passes: Vec<&mut dyn Pass> =
                    measures.iter_mut().map(|m| m as &mut dyn Pass).collect();
                self.run_passes(key, &mut passes);
            }
            let stats: Vec<SimStats> = measures
                .into_iter()
                .map(|m| m.into_inner().into_stats())
                .collect();
            for ((i, _, hints), stats) in members.iter().zip(stats) {
                let spec = specs[*i];
                results[*i] = Some(Ok(Report {
                    benchmark: spec.benchmark,
                    predictor: spec.predictor,
                    scheme_label: spec.scheme.label(),
                    shift: spec.shift,
                    measure_input: spec.measure_input,
                    hints: *hints,
                    stats,
                }));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every member settled"))
            .collect()
    }

    /// `Sweep::run` with fusion and lockstep on: pre-flight every cell,
    /// prewarm profiles per profiling run, then measure per stream group.
    /// `full_preflight` adds `sdbp-check`'s coded pre-flight to the strict
    /// validation, as `sdbp_bench::run_grid` does.
    pub fn sweep(
        &self,
        specs: &[ExperimentSpec],
        full_preflight: bool,
    ) -> Vec<Result<Report, String>> {
        let rejections: Vec<Option<String>> = specs
            .iter()
            .map(|spec| {
                self.tracer.span(PREFLIGHT, || {
                    if let Err(problems) = spec.validate() {
                        let reasons: Vec<String> =
                            problems.iter().map(ToString::to_string).collect();
                        return Some(reasons.join("; "));
                    }
                    full_preflight
                        .then(|| sdbp_check::preflight(spec).err())
                        .flatten()
                })
            })
            .collect();
        let rejected = rejections.iter().filter(|r| r.is_some()).count() as u64;
        self.counters
            .rejected
            .fetch_add(rejected, Ordering::Relaxed);

        let mut profile_runs: Vec<(ArtifactKey, Vec<PredictorConfig>)> = Vec::new();
        for (spec, rejection) in specs.iter().zip(&rejections) {
            if rejection.is_some() || spec.scheme == SelectionScheme::None {
                continue;
            }
            let input = spec.profile.profile_input(spec.measure_input);
            let key = (spec.benchmark, input, spec.seed, spec.profile_budget());
            let index = match profile_runs.iter().position(|(k, _)| *k == key) {
                Some(index) => index,
                None => {
                    profile_runs.push((key, Vec::new()));
                    profile_runs.len() - 1
                }
            };
            let predictors = &mut profile_runs[index].1;
            if spec.scheme.needs_accuracy_profile() && !predictors.contains(&spec.predictor) {
                predictors.push(spec.predictor);
            }
        }
        self.pool(&profile_runs, |(key, predictors)| {
            self.tracer
                .span(PREWARM, || self.profiles(*key, predictors));
        });

        let mut groups: Vec<(ArtifactKey, Vec<usize>)> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            if rejections[i].is_some() {
                continue;
            }
            let key = (
                spec.benchmark,
                spec.measure_input,
                spec.seed,
                spec.measure_budget(),
            );
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        self.counters
            .groups
            .fetch_add(groups.len() as u64, Ordering::Relaxed);
        let grouped = self.pool(&groups, |(_, members)| {
            let member_specs: Vec<&ExperimentSpec> = members.iter().map(|&i| &specs[i]).collect();
            self.measure_group(&member_specs)
        });

        let mut results: Vec<Result<Report, String>> = rejections
            .into_iter()
            .map(|r| Err(r.unwrap_or_default()))
            .collect();
        for ((_, members), reports) in groups.iter().zip(grouped) {
            for (&i, report) in members.iter().zip(reports) {
                results[i] = report;
            }
        }
        results
    }

    /// A stream lookup followed by a `TraceStats` pass over it, as the
    /// non-grid tables do.
    fn stream_stats(&self, key: ArtifactKey) -> TraceStats {
        let events = self.events(key);
        self.tracer
            .span(STATS, || TraceStats::from_source(SliceSource::new(&events)))
    }

    /// The paper suite: the grids and the streams tables 1, 2 and 5 read,
    /// in `all_experiments` order.
    fn paper_suite(&self) -> (Vec<ExperimentSpec>, Vec<Result<Report, String>>) {
        let scale = sdbp_bench::scale();
        let budget = |benchmark: Benchmark, input: InputSet| {
            (sdbp_workloads::Workload::spec95(benchmark)
                .spec()
                .default_instructions(input) as f64
                * scale) as u64
        };
        let mut grids = workloads::suite_grids().into_iter();
        let mut specs = Vec::new();
        let mut reports = Vec::new();
        let mut grid = |count: usize| {
            for _ in 0..count {
                let grid = grids.next().expect("suite_grids covers every grid");
                reports.extend(self.sweep(&grid, true));
                specs.extend(grid);
            }
        };
        // Table 1.
        for benchmark in Benchmark::ALL {
            self.tracer.span(GEN, || {
                let program =
                    sdbp_workloads::Workload::spec95(benchmark).program(InputSet::Train, SEED);
                black_box((program.static_instructions(), program.sites().len()));
            });
            for input in [InputSet::Train, InputSet::Ref] {
                black_box(self.stream_stats((benchmark, input, SEED, budget(benchmark, input))));
            }
        }
        // Table 2: its grid, then the biased fractions of its streams.
        grid(1);
        let mut table2: Vec<Benchmark> = Vec::new();
        for spec in sdbp_bench::experiments::table2_specs() {
            if !table2.contains(&spec.benchmark) {
                table2.push(spec.benchmark);
            }
        }
        for benchmark in table2 {
            let key = (benchmark, InputSet::Ref, SEED, sdbp_bench::measure_budget());
            black_box(self.stream_stats(key).dynamic_fraction_biased(0.95));
        }
        // Figures 1-6 and 7-12, tables 3 and 4.
        grid(4);
        // Table 5: train-vs-ref comparison of every program.
        for benchmark in Benchmark::ALL {
            let train = self.stream_stats((
                benchmark,
                InputSet::Train,
                SEED,
                budget(benchmark, InputSet::Train),
            ));
            let reference = self.stream_stats((
                benchmark,
                InputSet::Ref,
                SEED,
                budget(benchmark, InputSet::Ref),
            ));
            self.tracer
                .span(STATS, || black_box(reference.compare(&train).common_static));
        }
        // Figure 13 and ablations A, B, C, D, E.
        grid(6);
        (specs, reports)
    }

    /// Replays every measured group's dynamically predicted events through
    /// a fresh predictor of each member, timing only
    /// `predict_update_batch`: the kernel share of the measurement passes.
    /// Returns (seconds, events).
    fn shadow_kernel(&self) -> (f64, u64) {
        let plan = std::mem::take(&mut *self.shadow_plan.lock().expect("shadow plan poisoned"));
        let totals = self.pool(&plan, |(key, members)| {
            let mut shadows: Vec<ShadowPass<'_>> = members
                .iter()
                .map(|(config, hints)| ShadowPass {
                    predictor: config.build_any(),
                    hints,
                    buf: Vec::new(),
                    out: Vec::new(),
                    ns: 0,
                    events: 0,
                })
                .collect();
            let mut passes: Vec<&mut dyn Pass> =
                shadows.iter_mut().map(|s| s as &mut dyn Pass).collect();
            let (benchmark, input, seed, instructions) = *key;
            self.cache
                .run_passes(benchmark, input, seed, instructions, &mut passes);
            drop(passes);
            shadows
                .iter()
                .fold((0u64, 0u64), |(ns, ev), s| (ns + s.ns, ev + s.events))
        });
        let (ns, events) = totals
            .into_iter()
            .fold((0, 0), |(a, b), (ns, ev)| (a + ns, b + ev));
        (ns as f64 / 1e9, events)
    }
}

/// Replays the events a member left to its dynamic predictor.
struct ShadowPass<'h> {
    predictor: AnyPredictor,
    hints: &'h HintDatabase,
    buf: Vec<BranchEvent>,
    out: Vec<Prediction>,
    ns: u64,
    events: u64,
}

impl Pass for ShadowPass<'_> {
    fn consume(&mut self, events: &[BranchEvent]) {
        let dynamic: &[BranchEvent] = if self.hints.is_empty() {
            events
        } else {
            self.buf.clear();
            let hints = self.hints;
            self.buf
                .extend(events.iter().filter(|e| !hints.contains(e.pc)));
            &self.buf
        };
        self.out.clear();
        let started = Instant::now();
        self.predictor.predict_update_batch(dynamic, &mut self.out);
        self.ns += started.elapsed().as_nanos() as u64;
        self.events += dynamic.len() as u64;
    }
}

/// What a traced run produced.
pub struct TracedRun {
    /// Cells in execution order.
    pub specs: Vec<ExperimentSpec>,
    /// Their results, aligned with `specs`.
    pub reports: Vec<Result<Report, String>>,
    /// Files that failed admission.
    pub admission_failures: Vec<String>,
    /// Per-layer metrics measured from the spans and counters.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Runs a workload's timed phase traced and measures its layers.
pub fn run(prepared: &Prepared, threads: usize) -> TracedRun {
    let tracer = Tracer::new();
    let runner = CellRunner::new(
        &tracer,
        Arc::clone(&prepared.cache),
        prepared.budgets.capacity,
        threads,
    );
    runner
        .resident
        .lock()
        .expect("resident map poisoned")
        .extend(
            prepared
                .prewarmed
                .iter()
                .map(|(k, e)| (*k, Arc::downgrade(e))),
        );
    let started = tracer.now_ns();
    let mut admission_failures = Vec::new();
    let (specs, reports) = match prepared.workload {
        Workload::PaperSuite => runner.paper_suite(),
        Workload::LongStream | Workload::KernelFanout => {
            (prepared.specs.clone(), runner.sweep(&prepared.specs, false))
        }
        Workload::IngestReplay => {
            let mut benchmarks = Vec::new();
            for path in &prepared.files {
                let span = tracer.open(ADMIT);
                match admit(path) {
                    Ok(benchmark) => {
                        if let Benchmark::Imported(slot) = benchmark {
                            span.set_events(imports::info(slot).map_or(0, |i| i.events));
                        }
                        benchmarks.push(benchmark);
                    }
                    Err(e) => {
                        runner
                            .counters
                            .decode_errors
                            .fetch_add(1, Ordering::Relaxed);
                        admission_failures.push(e);
                    }
                }
            }
            let specs = ingest_specs(&benchmarks, prepared.seed, &prepared.budgets);
            let reports = runner.sweep(&specs, false);
            (specs, reports)
        }
    };
    let wall_s = (tracer.now_ns() - started) as f64 / 1e9;
    // Recorded before the kernel estimate, which is not part of the run.
    let spans = tracer.snapshot();
    let kernel = runner.shadow_kernel();
    let layers = layer_metrics(&spans, wall_s, threads, &runner.counters, kernel, &reports);
    let path = workloads::build_dir().join(format!(
        "spans-{}-{}.json",
        prepared.workload.name(),
        prepared.seed
    ));
    match write_json(&spans, &path) {
        Ok(()) => eprintln!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    TracedRun {
        specs,
        reports,
        admission_failures,
        layers,
    }
}

/// Per-layer metrics from one traced run's spans and counters.
fn layer_metrics(
    spans: &[Span],
    wall_s: f64,
    threads: usize,
    counters: &Counters,
    (kernel_s, kernel_events): (f64, u64),
    reports: &[Result<Report, String>],
) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut self_s: HashMap<&str, f64> = HashMap::new();
    let mut events: HashMap<&str, f64> = HashMap::new();
    let mut busy_s = 0.0;
    for (span, ns) in spans.iter().zip(&selfs) {
        *self_s.entry(span.name).or_default() += *ns as f64 / 1e9;
        *events.entry(span.name).or_default() += span.events as f64;
        if span.parent.is_none() {
            busy_s += span.duration_ns() as f64 / 1e9;
        }
    }
    let s = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let n = |name: &str| events.get(name).copied().unwrap_or(0.0);
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
    let ok: Vec<&Report> = reports.iter().filter_map(|r| r.as_ref().ok()).collect();
    let branches: u64 = ok.iter().map(|r| r.stats.branches).sum();
    let static_predicted: u64 = ok.iter().map(|r| r.stats.static_predicted).sum();
    let capacity_s = wall_s * threads as f64;
    let idle_s = capacity_s - busy_s;
    let sweep_self = s(GROUP) + s(PREWARM);

    let mut m = BTreeMap::new();
    m.insert("workloads.gen_s", s(GEN));
    m.insert("workloads.gen_events", n(GEN));
    m.insert("workloads.gen_mbr_per_s", ratio(n(GEN), s(GEN)) / 1e6);
    m.insert("trace.decode_s", s(DECODE));
    m.insert("trace.decode_events", n(DECODE));
    m.insert(
        "trace.decode_mb_per_s",
        ratio(count(&counters.decoded_bytes), s(DECODE)) / 1e6,
    );
    m.insert("trace.admit_s", s(ADMIT));
    m.insert("trace.decode_errors", count(&counters.decode_errors));
    m.insert("trace.stats_s", s(STATS));
    m.insert("check.preflight_s", s(PREFLIGHT));
    m.insert("check.rejected", count(&counters.rejected));
    m.insert("profiles.bias_s", s(BIAS));
    m.insert("profiles.accuracy_s", s(ACCURACY));
    m.insert("profiles.select_s", s(SELECT));
    m.insert("profiles.interference_s", s(INTERFERENCE));
    m.insert("profiles.events", count(&counters.profile_events));
    m.insert(
        "profiles.hints",
        ok.iter().map(|r| r.hints as f64).sum::<f64>(),
    );
    m.insert("passes.traversals", count(&counters.traversals));
    m.insert("passes.self_s", s(RUN));
    m.insert("core.simulator.measure_s", s(MEASURE));
    m.insert("core.simulator.branches", branches as f64);
    m.insert(
        "core.simulator.mbr_per_s",
        ratio(n(MEASURE), s(MEASURE)) / 1e6,
    );
    m.insert(
        "core.simulator.static_frac",
        ratio(static_predicted as f64, branches as f64),
    );
    m.insert("predictors.kernel_s", kernel_s);
    m.insert(
        "predictors.kernel_mbr_per_s",
        ratio(kernel_events as f64, kernel_s) / 1e6,
    );
    m.insert("core.combined.self_s", s(MEASURE) - kernel_s);
    m.insert("core.sweep.groups", count(&counters.groups));
    m.insert("core.sweep.threads", threads as f64);
    m.insert("core.sweep.busy_s", busy_s);
    m.insert("core.sweep.idle_s", idle_s);
    m.insert("core.sweep.self_s", sweep_self);
    // Thread time explained by a named layer or by waiting: everything
    // but the sweep containers' own bookkeeping.
    m.insert(
        "core.sweep.coverage",
        ratio(busy_s - sweep_self + idle_s, capacity_s),
    );
    m.insert("bench.traced_wall_s", wall_s);
    m
}

/// Compares a traced run's reports with the production path's on the same
/// cells: the traced run must take the same code paths.
pub fn oracle(prepared: &Prepared, run: &TracedRun, threads: usize) -> Vec<Check> {
    let production: Vec<Result<Report, String>> = match prepared.workload {
        Workload::PaperSuite => {
            let lab = Lab::with_cache(prepared.budgets.cache());
            workloads::suite_grids()
                .into_iter()
                .flat_map(|grid| sdbp_bench::run_grid(&lab, grid))
                .map(Ok)
                .collect()
        }
        Workload::LongStream | Workload::KernelFanout | Workload::IngestReplay => {
            Sweep::new(run.specs.clone())
                .with_cache(Arc::clone(&prepared.cache))
                .with_threads(threads)
                .run()
                .cells
                .into_iter()
                .map(|c| c.report.map_err(|e| e.to_string()))
                .collect()
        }
    };
    let mut checks: Vec<Check> = run
        .admission_failures
        .iter()
        .map(|e| Err(format!("admission failed: {e}")))
        .collect();
    if production.len() != run.reports.len() {
        checks.push(Err(format!(
            "traced run produced {} cells, production {}",
            run.reports.len(),
            production.len()
        )));
        return checks;
    }
    for (i, (traced, untraced)) in run.reports.iter().zip(&production).enumerate() {
        checks.push(match (traced, untraced) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            _ => Err(format!(
                "traced cell {i} ({}) differs from the untraced run",
                run.specs[i].benchmark.name()
            )),
        });
    }
    checks
}
