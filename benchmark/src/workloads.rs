//! The four workloads: what each sets up, what its timed phase runs through
//! the production entry points, and how its outputs are checked.
//!
//! Every workload is a closed-loop batch job: one batch of cells, each step
//! starting when the previous one finished. The timed phase calls only the
//! public API users call (`sdbp_bench::experiments`, `Sweep`, the `sdbp
//! ingest` admission calls); nothing under `crates/` is instrumented.

use crate::metrics::cpu_seconds;
use sdbp_bench::experiments;
use sdbp_core::cache::DEFAULT_TRACE_CACHE_INSTRUCTIONS;
use sdbp_core::{ArtifactCache, ArtifactKey, CacheStats, ExperimentSpec, Lab, Report, Sweep};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::SelectionScheme;
use sdbp_trace::{
    scan_path, write_binary, write_perf_text, write_text, BranchEvent, BranchSource, Trace,
    TraceError,
};
use sdbp_workloads::{imports, open_source, Benchmark, InputSet};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The `all_experiments` output the paper suite must reproduce byte for byte.
const GOLDEN: &str = include_str!("../../results_full.txt");

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 13 paper experiments in `all_experiments` order on one `Lab`.
    PaperSuite,
    /// Long generator-backed streams that bypass the trace store.
    LongStream,
    /// Every predictor kind over a few prewarmed, cached streams.
    KernelFanout,
    /// Exported traces admitted and replayed through the importers.
    IngestReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSuite,
        Workload::LongStream,
        Workload::KernelFanout,
        Workload::IngestReplay,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper_suite",
            Workload::LongStream => "long_stream",
            Workload::KernelFanout => "kernel_fanout",
            Workload::IngestReplay => "ingest_replay",
        }
    }

    /// Why the workload exists, as recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSuite => "what users run to reproduce the paper: cached traces, 3/5 of 471 cells hinted, real profiling and hinted resolve",
            Workload::LongStream => "streams above the trace-store capacity, so generation dominates with no profiles or hints",
            Workload::KernelFanout => "13 predictor kinds in lockstep over prewarmed cached streams, so predictor kernels dominate",
            Workload::IngestReplay => "exported traces in 3 formats admitted and replayed, so trace decoding replaces generation",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instruction budgets of one configuration (full or `--quick`).
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Trace-store capacity of every cache, in summed instructions.
    pub capacity: u64,
    /// Per-stream budget of `long_stream`; above `capacity` on purpose.
    pub long_stream: u64,
    /// Per-stream budget of the four `kernel_fanout` streams.
    pub fanout: u64,
    /// Per-stream budget of the two `ingest_replay` exports.
    pub ingest: u64,
    /// `SDBP_SCALE` for the paper suite, when not the paper's full scale.
    pub suite_scale: Option<&'static str>,
}

impl Budgets {
    /// The measured configuration.
    pub const FULL: Budgets = Budgets {
        capacity: DEFAULT_TRACE_CACHE_INSTRUCTIONS,
        long_stream: 132_000_000,
        fanout: 30_000_000,
        ingest: 8_000_000,
        suite_scale: None,
    };

    /// Tiny budgets for smoke runs; the same layers take the same paths
    /// (`long_stream` still exceeds the capacity, the others fit).
    pub const QUICK: Budgets = Budgets {
        capacity: 1_000_000,
        long_stream: 1_200_000,
        fanout: 200_000,
        ingest: 150_000,
        suite_scale: Some("0.02"),
    };

    /// A fresh artifact cache with this configuration's capacity.
    pub fn cache(&self) -> Arc<ArtifactCache> {
        Arc::new(ArtifactCache::with_trace_capacity(self.capacity))
    }
}

/// The streams prewarmed by `kernel_fanout`: two SPEC95 programs, a server
/// mix and a hard-to-predict model, so the kernels see different locality.
pub const FANOUT_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Gcc,
    Benchmark::Go,
    Benchmark::ServerWeb,
    Benchmark::H2pRare,
];

/// The programs `ingest_replay` exports.
pub const INGEST_BENCHMARKS: [Benchmark; 2] = [Benchmark::Gcc, Benchmark::ServerDb];

/// One cell with equal profiling and measurement budgets on `Ref`.
fn cell(
    benchmark: Benchmark,
    kind: PredictorKind,
    size: usize,
    scheme: SelectionScheme,
    seed: u64,
    instructions: u64,
) -> ExperimentSpec {
    let predictor = PredictorConfig::new(kind, size).expect("benchmark sizes are powers of two");
    let mut spec = ExperimentSpec::self_trained(benchmark, predictor, scheme).with_seed(seed);
    spec.profile_instructions = Some(instructions);
    spec.measure_instructions = Some(instructions);
    spec
}

/// `long_stream`: the six SPEC95 programs × {gshare, bimodal}-8KB, no hints.
pub fn long_stream_specs(seed: u64, budgets: &Budgets) -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in Benchmark::ALL {
        for kind in [PredictorKind::Gshare, PredictorKind::Bimodal] {
            specs.push(cell(
                benchmark,
                kind,
                8 * 1024,
                SelectionScheme::None,
                seed,
                budgets.long_stream,
            ));
        }
    }
    specs
}

/// `kernel_fanout`: every predictor kind × {4KB, 16KB} on each stream.
pub fn fanout_specs(seed: u64, budgets: &Budgets) -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for benchmark in FANOUT_BENCHMARKS {
        for kind in PredictorKind::ALL {
            for size in [4 * 1024, 16 * 1024] {
                specs.push(cell(
                    benchmark,
                    kind,
                    size,
                    SelectionScheme::None,
                    seed,
                    budgets.fanout,
                ));
            }
        }
    }
    specs
}

/// `ingest_replay`: {gshare, tage-lite}-8KB × {none, static_95} per stream.
pub fn ingest_specs(benchmarks: &[Benchmark], seed: u64, budgets: &Budgets) -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for &benchmark in benchmarks {
        for kind in [PredictorKind::Gshare, PredictorKind::TageLite] {
            for scheme in [SelectionScheme::None, SelectionScheme::static_95()] {
                specs.push(cell(
                    benchmark,
                    kind,
                    8 * 1024,
                    scheme,
                    seed,
                    budgets.ingest,
                ));
            }
        }
    }
    specs
}

/// The paper suite in `all_experiments` order: each entry renders one
/// table or figure from the shared lab.
pub const SUITE: [fn(&Lab) -> String; 13] = [
    experiments::table1,
    experiments::table2,
    experiments::fig1_6,
    experiments::fig7_12,
    experiments::table3,
    experiments::table4,
    experiments::table5,
    experiments::fig13,
    experiments::ablate_shift,
    experiments::ablate_cutoff,
    experiments::ablate_selection,
    experiments::ablate_doubling,
    experiments::ablate_mcfarling,
];

/// A directory removed when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

/// The directory of the running executable: inside the build directory,
/// which git ignores and the checkout owns. Temporary files go there.
pub fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

impl TempDir {
    /// Creates `ingest-<pid>` in the build directory.
    fn create() -> std::io::Result<TempDir> {
        let dir = build_dir().join(format!("ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything set-up produced for one workload.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The budgets in force.
    pub budgets: Budgets,
    /// The cache the timed phase starts from: prewarmed for
    /// `kernel_fanout`, empty otherwise.
    pub cache: Arc<ArtifactCache>,
    /// The cells of a sweep workload (empty for the paper suite, and for
    /// `ingest_replay`, whose cells exist only once its files are admitted).
    pub specs: Vec<ExperimentSpec>,
    /// The streams set-up generated into `cache` (`kernel_fanout`).
    pub prewarmed: Vec<(ArtifactKey, Arc<Vec<BranchEvent>>)>,
    /// The exported trace files of `ingest_replay`.
    pub files: Vec<PathBuf>,
    _dir: Option<TempDir>,
}

/// Writes one stream in the three importable formats, returning the paths.
fn export(trace: &Trace, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    type Writer = fn(&mut BufWriter<File>, &Trace) -> Result<(), TraceError>;
    let formats: [(&str, Writer); 3] = [
        ("sdbt", |w, t| write_binary(w, t)),
        ("trace", |w, t| write_text(w, t)),
        ("perf", |w, t| write_perf_text(w, t)),
    ];
    let mut paths = Vec::new();
    for (extension, write) in formats {
        // `<name>.<input>.<ext>`: the importers fall back to the file stem
        // for the trace name, which admission maps back to the program.
        let path = dir.join(format!("{}.{extension}", trace.meta().name));
        let mut file = BufWriter::new(File::create(&path)?);
        write(&mut file, trace).map_err(std::io::Error::other)?;
        file.flush()?;
        paths.push(path);
    }
    Ok(paths)
}

/// Runs a workload's set-up: everything before its timed phase.
pub fn setup(workload: Workload, seed: u64, budgets: Budgets) -> std::io::Result<Prepared> {
    let cache = budgets.cache();
    let mut prepared = Prepared {
        workload,
        seed,
        budgets,
        cache,
        specs: Vec::new(),
        prewarmed: Vec::new(),
        files: Vec::new(),
        _dir: None,
    };
    match workload {
        Workload::PaperSuite => {}
        Workload::LongStream => prepared.specs = long_stream_specs(seed, &budgets),
        Workload::KernelFanout => {
            // Generation happens here, so the timed phase replays cached
            // streams only.
            for benchmark in FANOUT_BENCHMARKS {
                let key = (benchmark, InputSet::Ref, seed, budgets.fanout);
                let events = prepared.cache.events(key.0, key.1, key.2, key.3);
                prepared.prewarmed.push((key, events));
            }
            prepared.specs = fanout_specs(seed, &budgets);
        }
        Workload::IngestReplay => {
            let dir = TempDir::create()?;
            for benchmark in INGEST_BENCHMARKS {
                let trace = open_source(benchmark, InputSet::Ref, seed)
                    .take_instructions(budgets.ingest)
                    .collect_trace();
                prepared.files.extend(export(&trace, &dir.0)?);
            }
            prepared._dir = Some(dir);
        }
    }
    Ok(prepared)
}

/// What a production timed phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Rendered paper-suite output (empty for sweep workloads).
    pub text: String,
    /// Cell results in spec order (empty for the paper suite).
    pub reports: Vec<Result<Report, String>>,
    /// The specs behind `reports`.
    pub specs: Vec<ExperimentSpec>,
    /// Operations attempted: cells executed plus files admitted.
    pub operations: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// The cache counters accumulated during the timed phase.
    pub cache: CacheStats,
    /// Wall and CPU seconds of each step of the timed phase, in order: one
    /// per experiment of the paper suite, one for a whole sweep workload.
    pub steps: Vec<(f64, f64)>,
}

/// Runs `f` as one timed step of the timed phase.
fn step<R>(steps: &mut Vec<(f64, f64)>, f: impl FnOnce() -> R) -> R {
    let cpu = cpu_seconds();
    let started = Instant::now();
    let result = f();
    steps.push((started.elapsed().as_secs_f64(), cpu_seconds() - cpu));
    result
}

/// Admits one trace file exactly as `sdbp ingest` does: one scan feeds the
/// SDBP070-075 lints and the registration.
pub fn admit(path: &Path) -> Result<Benchmark, String> {
    let origin = path.display().to_string();
    let scan = scan_path(path).map_err(|e| format!("{origin}: {e}"))?;
    let diags = sdbp_check::lint_trace_scan(&scan, &origin);
    if !diags.passes(false) {
        return Err(format!("{origin} rejected: {}", diags.summary()));
    }
    imports::register_scanned(path, &scan)
}

/// Runs a sweep through the production engine.
fn sweep(specs: Vec<ExperimentSpec>, cache: &Arc<ArtifactCache>, threads: usize) -> Outcome {
    let result = Sweep::new(specs)
        .with_cache(Arc::clone(cache))
        .with_threads(threads)
        .run();
    let cache_stats = result.cache_stats;
    let mut outcome = Outcome {
        cache: cache_stats,
        ..Outcome::default()
    };
    for cell in result.cells {
        if let Err(e) = &cell.report {
            outcome
                .failures
                .push(format!("cell {} failed: {e}", cell.index));
        }
        outcome.specs.push(cell.spec);
        outcome.reports.push(cell.report.map_err(|e| e.to_string()));
    }
    outcome.operations = outcome.reports.len() as u64;
    outcome
}

/// The timed phase, through the production entry points.
pub fn run(prepared: &Prepared, threads: usize) -> Outcome {
    let mut steps = Vec::new();
    let mut outcome = match prepared.workload {
        Workload::PaperSuite => {
            // The experiment functions size their sweeps from SDBP_THREADS,
            // which the parent process sets.
            let lab = Lab::with_cache(Arc::clone(&prepared.cache));
            let mut text = String::new();
            for experiment in SUITE {
                text.push_str(&step(&mut steps, || experiment(&lab)));
                text.push('\n');
            }
            Outcome {
                text,
                operations: suite_grids().iter().map(|g| g.len() as u64).sum(),
                cache: lab.cache().stats(),
                ..Outcome::default()
            }
        }
        Workload::LongStream | Workload::KernelFanout => step(&mut steps, || {
            sweep(prepared.specs.clone(), &prepared.cache, threads)
        }),
        Workload::IngestReplay => step(&mut steps, || {
            let mut benchmarks = Vec::new();
            let mut failures = Vec::new();
            for path in &prepared.files {
                match admit(path) {
                    Ok(b) => benchmarks.push(b),
                    Err(e) => failures.push(format!("admission failed: {e}")),
                }
            }
            let specs = ingest_specs(&benchmarks, prepared.seed, &prepared.budgets);
            let mut outcome = sweep(specs, &prepared.cache, threads);
            outcome.operations += prepared.files.len() as u64;
            outcome.failures.extend(failures);
            outcome
        }),
    };
    outcome.steps = steps;
    outcome
}

/// The spec grids of the paper suite, in the order `SUITE` runs them.
pub fn suite_grids() -> Vec<Vec<ExperimentSpec>> {
    vec![
        experiments::table2_specs(),
        experiments::fig1_6_specs(),
        experiments::fig7_12_specs(),
        experiments::table3_specs(),
        experiments::table4_specs(),
        experiments::fig13_specs(),
        experiments::ablate_shift_specs(),
        experiments::ablate_cutoff_specs(),
        experiments::ablate_selection_specs(),
        experiments::ablate_doubling_specs(),
        experiments::ablate_mcfarling_specs(),
    ]
}

/// The table and figure headings of a suite rendering, in order.
fn headings(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| {
            ["Table ", "Figure ", "Ablation "]
                .iter()
                .any(|p| l.starts_with(p))
        })
        .map(|l| l.split('.').next().unwrap_or(l))
        .collect()
}

/// Two distinct cell indices chosen from the seed.
pub fn oracle_cells(seed: u64, cells: usize) -> Vec<usize> {
    match cells {
        0 => Vec::new(),
        1 => vec![0],
        n => {
            let first = (seed % n as u64) as usize;
            let step = 1 + ((seed / n as u64) % (n as u64 - 1)) as usize;
            vec![first, (first + step) % n]
        }
    }
}

/// The result of one correctness check.
pub type Check = Result<(), String>;

/// A check that passed when `ok`, or failed with `failure`'s message.
pub fn check_that(ok: bool, failure: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(failure())
    }
}

/// Checks a timed phase's outputs, outside the timed phase. `deep` adds the
/// checks that rerun cells through an oracle.
pub fn check(prepared: &Prepared, outcome: &Outcome, deep: bool) -> Vec<Check> {
    let mut checks: Vec<Check> = Vec::new();
    match prepared.workload {
        Workload::PaperSuite => checks.push(if prepared.budgets.suite_scale.is_some() {
            // Scaled budgets change every number; the layout must hold.
            check_that(headings(&outcome.text) == headings(GOLDEN), || {
                "paper suite headings differ from results_full.txt".to_string()
            })
        } else {
            check_that(outcome.text == GOLDEN, || {
                "paper suite output differs from results_full.txt".to_string()
            })
        }),
        _ if !deep => {}
        Workload::LongStream | Workload::KernelFanout => {
            // The non-lockstep oracle: a fresh sequential lab per cell.
            for i in oracle_cells(prepared.seed, outcome.specs.len()) {
                let lab = Lab::with_cache(prepared.budgets.cache());
                let fresh = lab.run(&outcome.specs[i]).map_err(|e| e.to_string());
                checks.push(check_that(fresh == outcome.reports[i], || {
                    format!("cell {i} differs from a fresh sequential Lab::run")
                }));
            }
        }
        Workload::IngestReplay => {
            // Every imported cell must equal its generator-backed twin, run
            // on one thread so the oracle shares no scheduling with the run.
            let twins = ingest_specs(&INGEST_BENCHMARKS, prepared.seed, &prepared.budgets);
            let twin_outcome = sweep(twins, &prepared.budgets.cache(), 1);
            for (spec, report) in outcome.specs.iter().zip(&outcome.reports) {
                let twin = twin_outcome
                    .specs
                    .iter()
                    .zip(&twin_outcome.reports)
                    .find(|(t, _)| {
                        t.benchmark.name() == spec.benchmark.name()
                            && t.predictor == spec.predictor
                            && t.scheme == spec.scheme
                    });
                checks.push(match (report, twin) {
                    (Ok(r), Some((_, Ok(t))))
                        if r.stats == t.stats && r.summary() == t.summary() =>
                    {
                        Ok(())
                    }
                    _ => Err(format!(
                        "imported cell {} {} {} differs from its generator twin",
                        spec.benchmark.name(),
                        spec.predictor,
                        spec.scheme.label()
                    )),
                });
            }
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(!w.why().contains('\n') && w.why().len() <= 200);
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn oracle_cells_are_distinct_and_in_range() {
        for seed in 0..50 {
            let cells = oracle_cells(seed, 12);
            assert_eq!(cells.len(), 2);
            assert_ne!(cells[0], cells[1]);
            assert!(cells.iter().all(|&c| c < 12));
        }
        assert_eq!(oracle_cells(3, 1), vec![0]);
    }

    #[test]
    fn long_stream_bypasses_and_the_others_fit_the_store() {
        for budgets in [Budgets::FULL, Budgets::QUICK] {
            assert!(budgets.long_stream > budgets.capacity);
            assert!(budgets.fanout * FANOUT_BENCHMARKS.len() as u64 <= budgets.capacity);
            assert!(budgets.ingest <= budgets.capacity);
        }
    }

    #[test]
    fn golden_has_every_heading() {
        assert_eq!(headings(GOLDEN).len(), 3 + 6 + 6 + 1 + 1 + 1 + 5);
    }
}
