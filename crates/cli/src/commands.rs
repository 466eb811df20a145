//! The `sdbp` subcommand implementations.

use crate::args::Args;
use crate::error::CliError;
use sdbp_artifacts::{Digest, Store};
use sdbp_core::{
    BranchAnalysis, CombinedPredictor, ExperimentSpec, Lab, ProfileSource, ShiftPolicy, Simulator,
    Sweep,
};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::{BiasProfile, HintDatabase, SelectionScheme};
use sdbp_trace::{import_trace, write_binary, write_text, BranchSource, Trace};
use sdbp_util::table::{fixed, grouped, pct, TableWriter};
use sdbp_workloads::{imports, open_source, Benchmark, InputSet, WorkloadFamily};
use std::fs;
use std::path::Path;

type CmdResult = Result<(), CliError>;

/// Common options: `--benchmark`, `--input`, `--seed`, `--instructions`.
struct RunOptions {
    benchmark: Benchmark,
    input: InputSet,
    seed: u64,
    instructions: u64,
}

fn run_options(args: &Args) -> Result<RunOptions, CliError> {
    let benchmark: Benchmark = args
        .get_or("benchmark", "gcc")
        .parse()
        .map_err(CliError::usage)?;
    let input = input_of(args)?;
    let seed = args
        .get_parsed_or("seed", 2000u64)
        .map_err(CliError::Usage)?;
    let default_budget = benchmark.default_instructions(input);
    let instructions = args
        .get_parsed_or("instructions", default_budget)
        .map_err(CliError::Usage)?;
    Ok(RunOptions {
        benchmark,
        input,
        seed,
        instructions,
    })
}

/// Parses `--input` through [`InputSet`]'s own parser, which `sdbp check`
/// also uses.
fn input_of(args: &Args) -> Result<InputSet, CliError> {
    args.get_or("input", "ref")
        .parse()
        .map_err(|e| CliError::Usage(format!("invalid --input: {e}")))
}

/// Parses `--scheme` through [`SelectionScheme`]'s own parser — the same
/// one `sdbp check` uses, so both tools accept (and reject) identically.
fn scheme_of(args: &Args) -> Result<SelectionScheme, CliError> {
    args.get_or("scheme", "none")
        .parse()
        .map_err(|e| CliError::Usage(format!("invalid --scheme: {e}")))
}

/// Parses `--predictor`/`--size` through [`PredictorConfig::parse`], the
/// shared option-to-config path also used by `sdbp check`'s spec parser.
pub(crate) fn predictor_of(args: &Args) -> Result<PredictorConfig, CliError> {
    PredictorConfig::parse(
        args.get_or("predictor", "gshare"),
        args.get_or("size", "8192"),
    )
    .map_err(CliError::usage)
}

/// Reads a trace file in any importable format, the same autodetection
/// `ingest` and `grid --trace` use; any decode error fails the command.
fn load_trace(path: &str) -> Result<Trace, CliError> {
    import_trace(Path::new(path)).map_err(|e| CliError::Failure(format!("{path}: {e}")))
}

/// `sdbp gen` — generate a trace file from a synthetic workload.
pub fn gen(args: &Args) -> CmdResult {
    let opts = run_options(args)?;
    let out = args
        .get("out")
        .ok_or("gen requires --out <path>".to_string())?;
    let trace = open_source(opts.benchmark, opts.input, opts.seed)
        .take_instructions(opts.instructions)
        .collect_trace();
    let mut buf = Vec::new();
    if args.has_flag("text") || out.ends_with(".txt") {
        write_text(&mut buf, &trace).map_err(|e| e.to_string())?;
    } else {
        write_binary(&mut buf, &trace).map_err(|e| e.to_string())?;
    }
    fs::write(out, &buf).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} branches, {} instructions ({} bytes)",
        grouped(trace.len() as u64),
        grouped(trace.meta().total_instructions),
        grouped(buf.len() as u64)
    );
    Ok(())
}

/// `sdbp stats` — characterize a trace file or a synthetic workload.
pub fn stats(args: &Args) -> CmdResult {
    let stats = if let Some(path) = args.get("trace") {
        let trace = load_trace(path)?;
        sdbp_trace::TraceStats::from_source(sdbp_trace::SliceSource::from_trace(&trace))
    } else {
        let opts = run_options(args)?;
        sdbp_trace::TraceStats::from_source(
            open_source(opts.benchmark, opts.input, opts.seed).take_instructions(opts.instructions),
        )
    };
    let mut t = TableWriter::with_columns(&["metric", "value"]);
    t.align(1, sdbp_util::table::Align::Right);
    t.row_display(["static branches", &grouped(stats.static_branches() as u64)]);
    t.row_display(["dynamic branches", &grouped(stats.dynamic_branches())]);
    t.row_display(["instructions", &grouped(stats.total_instructions())]);
    t.row_display(["CBRs/KI", &fixed(stats.cbrs_per_ki(), 1)]);
    t.row_display([
        "dyn. biased >95%",
        &pct(stats.dynamic_fraction_biased(0.95)),
    ]);
    t.row_display([
        "stat. biased >95%",
        &pct(stats.static_fraction_biased(0.95)),
    ]);
    println!("{}", t.render());
    Ok(())
}

/// `sdbp profile` — collect a bias profile and write it as text.
pub fn profile(args: &Args) -> CmdResult {
    let opts = run_options(args)?;
    let out = args
        .get("out")
        .ok_or("profile requires --out <path>".to_string())?;
    let profile = BiasProfile::from_source(
        open_source(opts.benchmark, opts.input, opts.seed).take_instructions(opts.instructions),
    );
    // Metadata header: `sdbp check` cross-checks these fields against the
    // spec the profile is later used with (SDBP030/031/032).
    let header = format!(
        "# benchmark {}\n# input {}\n# seed {}\n# instructions {}\n",
        opts.benchmark.name(),
        opts.input.name(),
        opts.seed,
        opts.instructions
    );
    fs::write(out, format!("{header}{}", profile.to_text()))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} sites, {} executions",
        grouped(profile.len() as u64),
        grouped(profile.total_executions())
    );
    Ok(())
}

/// `sdbp select` — select static hints from a profile (or from a fresh run)
/// and write the hint database.
pub fn select(args: &Args) -> CmdResult {
    let scheme = scheme_of(args)?;
    let out = args
        .get("out")
        .ok_or("select requires --out <path>".to_string())?;
    let opts = run_options(args)?;
    let source =
        || open_source(opts.benchmark, opts.input, opts.seed).take_instructions(opts.instructions);
    let (bias, accuracy) = match args.get("profile") {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let bias = BiasProfile::from_text(&text)?;
            let accuracy = if scheme.needs_accuracy_profile() {
                let mut predictor = predictor_of(args)?.build();
                Some(sdbp_profiles::AccuracyProfile::collect(
                    source(),
                    predictor.as_mut(),
                ))
            } else {
                None
            };
            (bias, accuracy)
        }
        // No profile file: both profiles come from a fresh run — fused
        // into a single generator traversal through the pass framework.
        None if scheme.needs_accuracy_profile() => {
            let mut predictor = predictor_of(args)?.build();
            let mut bias_pass = sdbp_profiles::BiasPass::new();
            let mut accuracy_pass = sdbp_profiles::AccuracyPass::new(predictor.as_mut());
            sdbp_passes::PassRunner::new().run(source(), &mut [&mut bias_pass, &mut accuracy_pass]);
            (bias_pass.into_profile(), Some(accuracy_pass.into_profile()))
        }
        None => (BiasProfile::from_source(source()), None),
    };
    // Static_Collide ranks interference against the configured predictor's
    // index function; other schemes never consult a ranking.
    let ranking = if scheme.needs_interference_ranking() {
        sdbp_profiles::rank_interference(
            &bias,
            predictor_of(args)?,
            &sdbp_profiles::InterferenceOptions::default(),
        )
    } else {
        None
    };
    let hints = scheme
        .select_with_interference(&bias, accuracy.as_ref(), ranking.as_ref())
        .map_err(|e| e.to_string())?;
    fs::write(out, hints.to_text()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}: {} ({scheme})", hints);
    Ok(())
}

/// `sdbp sim` — simulate a predictor over a workload or trace, optionally
/// with a hint database or an on-the-fly selection scheme.
pub fn sim(args: &Args) -> CmdResult {
    let config = predictor_of(args)?;
    let shift = if args.has_flag("shift") {
        ShiftPolicy::Shift
    } else {
        ShiftPolicy::NoShift
    };

    // Trace-file mode: external traces with an optional hint database.
    if let Some(path) = args.get("trace") {
        let trace = load_trace(path)?;
        let hints = match args.get("hints") {
            Some(hint_path) => {
                let text = fs::read_to_string(hint_path)
                    .map_err(|e| format!("cannot read {hint_path}: {e}"))?;
                HintDatabase::from_text(&text)?
            }
            None => HintDatabase::new(),
        };
        let mut combined = CombinedPredictor::new(config.build_any(), hints, shift);
        let stats =
            Simulator::new().run(sdbp_trace::SliceSource::from_trace(&trace), &mut combined);
        println!("{config} on {path}: {stats}");
        return Ok(());
    }

    // Workload mode: the full two-phase experiment.
    let opts = run_options(args)?;
    let scheme = scheme_of(args)?;
    let training: ProfileSource = args
        .get_or("training", "self")
        .parse()
        .map_err(|e| CliError::Usage(format!("invalid --training: {e}")))?;
    let mut spec = ExperimentSpec::self_trained(opts.benchmark, config, scheme)
        .with_shift(shift)
        .with_seed(opts.seed)
        .with_measure_input(opts.input)
        .with_profile(training);
    spec.measure_instructions = Some(opts.instructions);
    spec.profile_instructions = Some(opts.instructions);
    let report = Lab::new().run(&spec)?;
    println!("{report}");
    Ok(())
}

/// Reads the `--threads` override (0 or absent = automatic resolution:
/// `SDBP_THREADS` env, then all available cores).
fn threads_of(args: &Args) -> Result<usize, CliError> {
    args.get_parsed_or("threads", 0usize)
        .map_err(CliError::Usage)
}

/// `sdbp sweep` — size sweep of one predictor/scheme on one benchmark,
/// run in parallel through the sweep engine.
pub fn sweep(args: &Args) -> CmdResult {
    let kind: PredictorKind = args
        .get_or("predictor", "gshare")
        .parse()
        .map_err(CliError::usage)?;
    let scheme = scheme_of(args)?;
    let opts = run_options(args)?;
    let threads = threads_of(args)?;
    let sizes = [1usize, 2, 4, 8, 16, 32, 64];
    let mut specs = Vec::new();
    for size_kb in sizes {
        let config = PredictorConfig::new(kind, size_kb * 1024).map_err(|e| e.to_string())?;
        let mut spec = ExperimentSpec::self_trained(opts.benchmark, config, scheme)
            .with_seed(opts.seed)
            .with_measure_input(opts.input);
        spec.measure_instructions = Some(opts.instructions);
        spec.profile_instructions = Some(opts.instructions);
        specs.push(spec);
    }
    let result = Sweep::new(specs)
        .with_threads(threads)
        .with_verbose(true)
        .run();
    // Before any failed cell ends the command, so a failed run still says
    // what it ran.
    eprintln!("  {}", result.summary());
    let mut t = TableWriter::with_columns(&["size", "MISPs/KI", "accuracy", "collisions", "hints"]);
    t.numeric();
    for (size_kb, report) in sizes.iter().zip(result.into_reports()?) {
        t.row(vec![
            format!("{size_kb}KB"),
            fixed(report.stats.misp_per_ki(), 3),
            pct(report.stats.accuracy()),
            grouped(report.stats.collisions.total),
            grouped(report.hints as u64),
        ]);
    }
    println!(
        "{kind} on {} ({}, {scheme}):\n\n{}",
        opts.benchmark,
        opts.input,
        t.render()
    );
    Ok(())
}

/// Resolves the benchmarks a `grid` run covers: an imported `--trace`
/// file, every member of a `--family`, or the single `--benchmark`.
fn grid_benchmarks(args: &Args) -> Result<Vec<Benchmark>, CliError> {
    if let Some(path) = args.get("trace") {
        let benchmark = imports::register(Path::new(path)).map_err(CliError::Failure)?;
        return Ok(vec![benchmark]);
    }
    if let Some(name) = args.get("family") {
        let family: WorkloadFamily = name.parse().map_err(CliError::Usage)?;
        let members = Benchmark::family_members(family);
        if members.is_empty() {
            return Err(CliError::Failure(format!(
                "family '{family}' has no benchmarks; ingest a trace first (`sdbp ingest`)"
            )));
        }
        return Ok(members);
    }
    Ok(vec![run_options(args)?.benchmark])
}

/// `sdbp grid` — the Figure 7–12 experiment: every paper predictor at
/// `--size` under the three static schemes, run in parallel with shared
/// profile/trace artifacts. Covers one benchmark by default; `--family`
/// sweeps every benchmark of a workload family in one sweep (the stderr
/// summary then reports MISPs/KI per family), and `--trace` admits an
/// external trace file and grids over it.
pub fn grid(args: &Args) -> CmdResult {
    let benchmarks = grid_benchmarks(args)?;
    let input = input_of(args)?;
    let seed = args
        .get_parsed_or("seed", 2000u64)
        .map_err(CliError::Usage)?;
    let explicit_instructions = match args.get("instructions") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|e| CliError::Usage(format!("invalid --instructions '{v}': {e}")))?,
        ),
        None => None,
    };
    let size = args
        .get_parsed_or("size", 8192usize)
        .map_err(CliError::Usage)?;
    let threads = threads_of(args)?;
    let schemes: Vec<SelectionScheme> = args
        .get_or("schemes", "none,static_95,static_acc")
        .split(',')
        .map(|name| {
            name.trim()
                .parse()
                .map_err(|e| CliError::Usage(format!("invalid --schemes entry '{name}': {e}")))
        })
        .collect::<Result<_, _>>()?;
    if schemes.is_empty() {
        return Err(CliError::Usage(
            "--schemes must name at least one scheme".into(),
        ));
    }
    // Cells whose scheme needs the interference ranking on a predictor that
    // is opaque to it would fail at selection time; skip them up front and
    // render n/a — the same policy as `sdbp bench frontier` and SDBP042.
    let mut specs = Vec::new();
    let mut layout: Vec<Vec<Vec<Option<usize>>>> = Vec::new();
    for &benchmark in &benchmarks {
        let instructions =
            explicit_instructions.unwrap_or_else(|| benchmark.default_instructions(input));
        let mut rows = Vec::new();
        for kind in PredictorKind::PAPER {
            let config = PredictorConfig::new(kind, size).map_err(|e| e.to_string())?;
            let mut row = Vec::new();
            for &scheme in &schemes {
                if scheme.needs_interference_ranking() && !config.index_capability().is_analyzable()
                {
                    row.push(None);
                    continue;
                }
                let mut spec = ExperimentSpec::self_trained(benchmark, config, scheme)
                    .with_seed(seed)
                    .with_measure_input(input);
                spec.measure_instructions = Some(instructions);
                spec.profile_instructions = Some(instructions);
                specs.push(spec);
                row.push(Some(specs.len() - 1));
            }
            rows.push(row);
        }
        layout.push(rows);
    }
    let mut sweep = Sweep::new(specs).with_threads(threads).with_verbose(true);
    if let Some(dir) = args.get("store") {
        sweep = sweep
            .with_store(dir)
            .with_resume(args.has_flag("resume"))
            .with_max_cells(
                args.get_parsed_or("max-cells", 0usize)
                    .map_err(CliError::Usage)?,
            );
    } else if args.has_flag("resume") {
        return Err(CliError::Usage(
            "--resume requires --store <dir> (nothing to resume from)".into(),
        ));
    } else if args.get("max-cells").is_some() {
        return Err(CliError::Usage(
            "--max-cells requires --store <dir> (only a stored run resumes past the cap)".into(),
        ));
    }
    let result = sweep.run();
    // Before any failed cell ends the command, so a failed run still says
    // what it ran and how many cells it replayed.
    eprintln!("  {}", result.summary());
    let reports = result.into_reports()?;
    // Columns: one per scheme, then a delta column per non-baseline scheme
    // (the first scheme listed is the baseline).
    let mut columns: Vec<String> = vec!["predictor".to_string()];
    columns.extend(schemes.iter().map(|s| s.label().to_string()));
    columns.extend(
        schemes[1..]
            .iter()
            .map(|s| format!("Δ{}", s.label().trim_start_matches("static_"))),
    );
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    for (benchmark, rows) in benchmarks.iter().zip(&layout) {
        let mut t = TableWriter::with_columns(&column_refs);
        t.numeric();
        for (kind, row_layout) in PredictorKind::PAPER.iter().zip(rows) {
            let cells: Vec<Option<&sdbp_core::Report>> =
                row_layout.iter().map(|i| i.map(|i| &reports[i])).collect();
            let mut row = vec![kind.name().to_string()];
            for cell in &cells {
                row.push(match cell {
                    Some(r) => fixed(r.stats.misp_per_ki(), 3),
                    None => "n/a".to_string(),
                });
            }
            for cell in &cells[1..] {
                row.push(match (cells[0], cell) {
                    (Some(base), Some(r)) => {
                        format!("{:+.1}%", r.improvement_over(base) * 100.0)
                    }
                    _ => "n/a".to_string(),
                });
            }
            t.row(row);
        }
        println!(
            "MISPs/KI on {} ({}, {} bytes):\n\n{}",
            benchmark.name(),
            input,
            size,
            t.render()
        );
    }
    Ok(())
}

/// `sdbp ingest` — lint an external branch trace with the SDBP070–075
/// admission diagnostics and, when it passes, register it as an imported
/// benchmark for this process (grids name it like any synthetic one).
pub fn ingest(args: &Args) -> CmdResult {
    let path = args
        .get("trace")
        .ok_or("ingest requires --trace <path>".to_string())?;
    let deny_warnings = args.has_flag("deny-warnings");
    let p = Path::new(path);
    // One scan serves both the lints and the admission registration.
    let scanned = sdbp_trace::scan_path(p);
    let diags = match &scanned {
        Ok(scan) => sdbp_check::lint_trace_scan(scan, path),
        // Open failed: re-derive the failure as SDBP070/SDBP071.
        Err(_) => sdbp_check::lint_trace_path(p),
    };
    match args.get_or("format", "text") {
        "json" => println!("{}", diags.to_json()),
        "text" => print!("{}", diags.render_text()),
        other => {
            return Err(CliError::Usage(format!(
                "invalid --format '{other}' (text|json)"
            )))
        }
    }
    if !diags.passes(deny_warnings) {
        return Err(CliError::Failure(format!(
            "ingest rejected {path}: {}",
            diags.summary()
        )));
    }
    let scan = scanned.expect("open failures carry SDBP070/071 errors and were rejected above");
    let benchmark = imports::register_scanned(p, &scan).map_err(CliError::Failure)?;
    println!(
        "admitted {path} as benchmark '{}' (family {}, {} events, {} instructions)",
        benchmark.name(),
        benchmark.family(),
        grouped(scan.events),
        grouped(scan.total_instructions)
    );
    Ok(())
}

/// `sdbp hotspots` — per-branch misprediction breakdown: the top
/// contributors a performance engineer (or a selection scheme) would target.
pub fn hotspots(args: &Args) -> CmdResult {
    let config = predictor_of(args)?;
    let (kind, size) = (config.kind(), config.size_bytes());
    let top = args
        .get_parsed_or("top", 15usize)
        .map_err(CliError::Usage)?;
    let opts = run_options(args)?;
    let mut predictor = CombinedPredictor::pure_dynamic(config.build_any());
    let analysis = BranchAnalysis::run(
        open_source(opts.benchmark, opts.input, opts.seed).take_instructions(opts.instructions),
        &mut predictor,
    );
    let mut t =
        TableWriter::with_columns(&["pc", "executed", "mispredicted", "rate", "collisions"]);
    t.numeric();
    for (pc, r) in analysis.top_mispredictors(top) {
        t.row(vec![
            format!("{pc}"),
            grouped(r.executed),
            grouped(r.mispredicted),
            pct(r.misprediction_rate()),
            grouped(r.collisions),
        ]);
    }
    println!(
        "{kind} {size}B on {}.{}: {} — top {top} branches cover {:.0}% of mispredictions
",
        opts.benchmark,
        opts.input,
        analysis.stats(),
        analysis.misprediction_concentration(top) * 100.0
    );
    println!("{}", t.render());
    Ok(())
}

/// Synthesizes spec-file text from the inline `check` options, so inline
/// invocations go through the same parser — and get the same coded
/// diagnostics — as `--spec` files.
fn inline_spec_text(args: &Args) -> String {
    let mut text = String::new();
    for key in sdbp_check::SPEC_KEYS {
        if let Some(value) = args.get(key) {
            text.push_str(&format!("{key} {value}\n"));
        }
    }
    if args.has_flag("shift") {
        text.push_str("shift shift\n");
    }
    text
}

/// `sdbp check` — static diagnostics over a spec, a hint database, and a
/// profile, without running any simulation.
pub fn check(args: &Args) -> CmdResult {
    let deny_warnings = args.has_flag("deny-warnings");
    let mut diags = sdbp_check::Diagnostics::new();

    // --suite: lint every spec the `sdbp bench` experiments would run.
    if args.has_flag("suite") {
        for spec in sdbp_bench::experiments::suite_specs() {
            diags.merge(sdbp_check::lint_spec(&spec, "<suite>"));
        }
    }

    // The spec under scrutiny: a `--spec` file, or the inline options.
    let (spec_text, origin) = match args.get("spec") {
        Some(path) => (
            fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?,
            path.to_string(),
        ),
        None => (inline_spec_text(args), "<args>".to_string()),
    };
    let (parsed, parse_diags) = sdbp_check::parse_spec_text(&spec_text, &origin);
    diags.merge(parse_diags);
    if let Some(spec) = &parsed.spec {
        diags.merge(sdbp_check::lint_spec_with_history(
            spec,
            parsed.declared_history,
            &origin,
        ));
    }

    // --profile: metadata cross-checks, and the data for --aliasing.
    let mut profile = None;
    if let Some(path) = args.get("profile") {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (bias, metadata, profile_diags) = sdbp_check::parse_profile_text(&text, path);
        diags.merge(profile_diags);
        if let Some(spec) = &parsed.spec {
            diags.merge(sdbp_check::lint_profile_against_spec(&metadata, spec, path));
        }
        profile = Some(bias);
    }

    // --hints: duplicate/conflict lints, plus profile cross-checks.
    if let Some(path) = args.get("hints") {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (hints, hint_diags) = sdbp_check::parse_hints_text(&text, path);
        diags.merge(hint_diags);
        if let Some(bias) = &profile {
            diags.merge(sdbp_check::lint_hints_against_profile(
                &hints,
                bias,
                path,
                sdbp_check::HintLintOptions::default(),
            ));
        }
    }

    // --manifest: lint a grid run manifest — parse damage, schema drift,
    // duplicate or failed cells, torn tails (SDBP050–SDBP054).
    if let Some(path) = args.get("manifest") {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        diags.merge(sdbp_check::lint_manifest_text(&text, path));
    }

    // --aliasing: forecast destructive interference from the profile and
    // the spec's index function. Falls back to a bounded fresh profiling
    // run when no --profile file was given.
    if args.has_flag("aliasing") {
        if let Some(spec) = &parsed.spec {
            let fresh;
            let bias = match &profile {
                Some(b) => b,
                None => {
                    let budget = args
                        .get_parsed_or("instructions", 500_000u64)
                        .map_err(CliError::Usage)?;
                    fresh = BiasProfile::from_source(
                        open_source(spec.benchmark, InputSet::Train, spec.seed)
                            .take_instructions(budget),
                    );
                    &fresh
                }
            };
            let top = args
                .get_parsed_or("top", 10usize)
                .map_err(CliError::Usage)?;
            let (_, aliasing_diags) = sdbp_check::lint_aliasing(bias, spec.predictor, top, &origin);
            diags.merge(aliasing_diags);
        }
    }

    // --index-analysis: prove the index function's collision structure with
    // exact GF(2) linear algebra (SDBP060–SDBP064). Like --aliasing, a
    // bounded fresh profiling run stands in when no --profile was given —
    // the profile drives the SDBP063 proven-pair search.
    if args.has_flag("index-analysis") {
        if let Some(spec) = &parsed.spec {
            let fresh;
            let bias = match &profile {
                Some(b) => b,
                None => {
                    let budget = args
                        .get_parsed_or("instructions", 500_000u64)
                        .map_err(CliError::Usage)?;
                    fresh = BiasProfile::from_source(
                        open_source(spec.benchmark, InputSet::Train, spec.seed)
                            .take_instructions(budget),
                    );
                    &fresh
                }
            };
            let options = sdbp_check::IndexAnalysisOptions {
                top_pairs: args
                    .get_parsed_or("top", 10usize)
                    .map_err(CliError::Usage)?,
            };
            let (_, index_diags) =
                sdbp_check::lint_index_analysis(Some(bias), spec.predictor, &options, &origin);
            diags.merge(index_diags);
        }
    }

    match args.get_or("format", "text") {
        "json" => println!("{}", diags.to_json()),
        "text" => {
            print!("{}", diags.render_text());
            println!("check: {}", diags.summary());
        }
        other => {
            return Err(CliError::Usage(format!(
                "invalid --format '{other}' (text|json)"
            )))
        }
    }
    if diags.passes(deny_warnings) {
        Ok(())
    } else {
        Err(CliError::Failure(format!(
            "check failed: {}",
            diags.summary()
        )))
    }
}

/// Opens the `--store` directory an `artifact` action operates on.
fn store_of(args: &Args) -> Result<Store, CliError> {
    let dir = args
        .get("store")
        .ok_or_else(|| CliError::Usage("artifact commands require --store <dir>".into()))?;
    Ok(Store::open(dir)?)
}

/// `sdbp artifact <action>` — inspect and maintain a durable artifact
/// store: `ls` (every object with schema and size), `inspect --digest HEX`
/// (one object in detail), `gc` (prune corrupt objects, dangling links,
/// and stale temp files).
pub fn artifact(action: &str, args: &Args) -> CmdResult {
    match action {
        "ls" => {
            let store = store_of(args)?;
            let entries = store.list()?;
            let mut t = TableWriter::with_columns(&["digest", "schema", "version", "bytes"]);
            t.align(3, sdbp_util::table::Align::Right);
            let mut damaged = 0usize;
            for entry in &entries {
                let (schema, version) = match entry.schema() {
                    Ok((schema, version)) => (schema, version.to_string()),
                    Err(_) => {
                        damaged += 1;
                        ("<corrupt>".to_string(), "-".to_string())
                    }
                };
                t.row(vec![
                    entry.digest.to_string(),
                    schema,
                    version,
                    grouped(entry.size),
                ]);
            }
            println!("{}", t.render());
            println!(
                "{} objects in {}{}",
                entries.len(),
                store.root().display(),
                if damaged > 0 {
                    format!(" ({damaged} corrupt; run `sdbp artifact gc`)")
                } else {
                    String::new()
                }
            );
            Ok(())
        }
        "inspect" => {
            let store = store_of(args)?;
            let digest: Digest = args
                .get("digest")
                .ok_or_else(|| CliError::Usage("artifact inspect requires --digest <hex>".into()))?
                .parse()
                .map_err(CliError::usage)?;
            let bytes = store
                .get_bytes(digest)?
                .ok_or_else(|| CliError::Failure(format!("no object {digest} in the store")))?;
            let (schema, version) = sdbp_artifacts::peek_schema(&bytes).map_err(|e| {
                CliError::Store(format!(
                    "corrupt artifact at {}: {e}",
                    store.object_path(digest).display()
                ))
            })?;
            println!("digest:  {digest}");
            println!("path:    {}", store.object_path(digest).display());
            println!("schema:  {schema} v{version}");
            println!("size:    {} bytes", grouped(bytes.len() as u64));
            Ok(())
        }
        "gc" => {
            let store = store_of(args)?;
            let (removed, kept) = store.gc()?;
            println!(
                "gc {}: removed {removed}, kept {kept}",
                store.root().display()
            );
            Ok(())
        }
        "" => Err(CliError::Usage(
            "artifact requires an action: ls, inspect, or gc".into(),
        )),
        other => Err(CliError::Usage(format!(
            "unknown artifact action '{other}' (ls|inspect|gc)"
        ))),
    }
}

/// `sdbp list` — enumerate benchmarks, predictors and schemes.
pub fn list() -> CmdResult {
    println!("benchmarks:");
    for b in Benchmark::SYNTHETIC {
        let spec = b.spec();
        println!(
            "  {:<10} {:<7} {} static branches, ~{:.0} CBRs/KI",
            b.name(),
            b.family(),
            spec.static_sites,
            spec.cbrs_per_ki_ref
        );
    }
    println!("\npredictors:");
    for kind in PredictorKind::ALL {
        println!(
            "  {:<9} {}",
            kind.name(),
            if kind.uses_global_history() {
                "global history"
            } else {
                "per-address"
            }
        );
    }
    println!("\nschemes: none, static_95, static_<pct>, static_acc, static_col, static_collide");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn run_options_defaults() {
        let o = run_options(&args(&["sim"])).unwrap();
        assert_eq!(o.benchmark, Benchmark::Gcc);
        assert_eq!(o.input, InputSet::Ref);
        assert_eq!(o.seed, 2000);
        assert!(o.instructions > 0);
    }

    #[test]
    fn run_options_rejects_bad_input() {
        assert!(run_options(&args(&["sim", "--input", "weird"])).is_err());
        assert!(run_options(&args(&["sim", "--benchmark", "nope"])).is_err());
    }

    #[test]
    fn scheme_parsing() {
        assert_eq!(scheme_of(&args(&["x"])).unwrap(), SelectionScheme::None);
        assert_eq!(
            scheme_of(&args(&["x", "--scheme", "static_95"])).unwrap(),
            SelectionScheme::static_95()
        );
        assert_eq!(
            scheme_of(&args(&["x", "--scheme", "static_90"])).unwrap(),
            SelectionScheme::Bias { cutoff: 0.90 }
        );
        assert_eq!(
            scheme_of(&args(&["x", "--scheme", "static_acc"])).unwrap(),
            SelectionScheme::static_acc()
        );
        assert!(scheme_of(&args(&["x", "--scheme", "bogus"])).is_err());
    }

    #[test]
    fn hotspots_runs_a_tiny_workload() {
        let a = args(&[
            "hotspots",
            "--benchmark",
            "compress",
            "--instructions",
            "50000",
            "--size",
            "1024",
            "--top",
            "5",
        ]);
        assert!(hotspots(&a).is_ok());
    }

    #[test]
    fn sim_runs_a_tiny_workload() {
        let a = args(&[
            "sim",
            "--benchmark",
            "compress",
            "--instructions",
            "50000",
            "--size",
            "1024",
        ]);
        assert!(sim(&a).is_ok());
    }

    #[test]
    fn sim_rejects_specs_that_fail_validation() {
        // Rejection comes before any profiling, so the default budget of
        // the static_150 run costs nothing.
        for extra in [["--instructions", "0"], ["--scheme", "static_150"]] {
            let mut argv = vec!["sim", "--benchmark", "compress"];
            argv.extend(extra);
            let err = sim(&args(&argv)).unwrap_err();
            assert_eq!(err.exit_code(), 1, "{extra:?}: {err}");
            assert!(
                err.to_string()
                    .starts_with("spec rejected by pre-flight checks: "),
                "{extra:?}: {err}"
            );
        }
    }

    #[test]
    fn check_accepts_clean_inline_options() {
        let a = args(&[
            "check",
            "--benchmark",
            "gcc",
            "--predictor",
            "gshare",
            "--size",
            "8192",
        ]);
        assert!(check(&a).is_ok());
    }

    #[test]
    fn check_rejects_a_broken_spec_file() {
        let dir = std::env::temp_dir().join("sdbp-cli-check-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.spec");
        fs::write(&path, "predictor gshrae\nsize 3000\n").unwrap();
        let err = check(&args(&["check", "--spec", path.to_str().unwrap()])).unwrap_err();
        assert!(
            err.to_string().contains("error"),
            "unexpected message: {err}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_actions_require_a_store_and_an_action() {
        let missing_store = artifact("ls", &args(&["artifact"])).unwrap_err();
        assert_eq!(missing_store.exit_code(), 2);
        let dir = std::env::temp_dir().join("sdbp-cli-artifact-usage-test");
        let store_arg = dir.to_str().unwrap().to_string();
        let missing_action = artifact("", &args(&["artifact", "--store", &store_arg])).unwrap_err();
        assert_eq!(missing_action.exit_code(), 2);
        let unknown = artifact("prune", &args(&["artifact", "--store", &store_arg])).unwrap_err();
        assert!(unknown.to_string().contains("prune"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_ls_inspect_gc_roundtrip() {
        let dir = std::env::temp_dir().join("sdbp-cli-artifact-test");
        fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        let digest = store.put_bytes_addressed(b"loose bytes").unwrap();
        let store_arg = dir.to_str().unwrap().to_string();
        artifact("ls", &args(&["artifact", "--store", &store_arg])).unwrap();
        let hex = digest.to_string();
        artifact(
            "inspect",
            &args(&["artifact", "--store", &store_arg, "--digest", &hex]),
        )
        .unwrap_err(); // loose bytes carry no envelope: corrupt, exit 3
        artifact("gc", &args(&["artifact", "--store", &store_arg])).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_resume_without_store_is_a_usage_error() {
        let err = grid(&args(&["grid", "--resume"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn grid_max_cells_without_store_is_a_usage_error() {
        let err = grid(&args(&[
            "grid",
            "--benchmark",
            "compress",
            "--size",
            "2048",
            "--instructions",
            "100000",
            "--max-cells",
            "3",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--max-cells"), "{err}");
    }

    #[test]
    fn check_deny_warnings_promotes_warnings_to_failure() {
        // A bimodal predictor with a shift policy draws SDBP011 (warning):
        // fine normally, fatal under --deny-warnings.
        let warn = &["check", "--predictor", "bimodal", "--shift"];
        assert!(check(&args(warn)).is_ok());
        let mut strict: Vec<&str> = warn.to_vec();
        strict.push("--deny-warnings");
        assert!(check(&args(&strict)).is_err());
    }

    #[test]
    fn check_profile_roundtrip_is_clean() {
        // A profile written by `sdbp profile` must check cleanly against a
        // spec built from the same options (metadata header included).
        let dir = std::env::temp_dir().join("sdbp-cli-check-profile-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.prof");
        let prof = path.to_str().unwrap();
        let common = [
            "--benchmark",
            "compress",
            "--instructions",
            "50000",
            "--seed",
            "2000",
        ];
        let mut gen_args = vec!["profile", "--out", prof];
        gen_args.extend_from_slice(&common);
        profile(&args(&gen_args)).unwrap();

        let mut check_args = vec!["check", "--profile", prof, "--deny-warnings"];
        check_args.extend_from_slice(&common);
        // profile_instructions must match the profile header for SDBP032.
        check_args.extend_from_slice(&["--profile_instructions", "50000"]);
        assert!(check(&args(&check_args)).is_ok());

        // A mismatched benchmark is an error (SDBP030).
        let mut bad = vec!["check", "--profile", prof, "--benchmark", "gcc"];
        bad.extend_from_slice(&["--seed", "2000"]);
        assert!(check(&args(&bad)).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_aliasing_emits_hotspot_notes_but_passes() {
        let a = args(&[
            "check",
            "--benchmark",
            "compress",
            "--predictor",
            "gshare",
            "--size",
            "1024",
            "--instructions",
            "50000",
            "--aliasing",
            "--deny-warnings",
        ]);
        assert!(check(&a).is_ok());
    }

    #[test]
    fn check_suite_lints_the_harness_grids() {
        assert!(check(&args(&["check", "--suite", "--deny-warnings"])).is_ok());
    }

    #[test]
    fn grid_benchmarks_expands_families() {
        let server = grid_benchmarks(&args(&["grid", "--family", "server"])).unwrap();
        assert_eq!(server.len(), 2);
        assert!(server.iter().all(|b| b.family() == WorkloadFamily::Server));
        let spec95 = grid_benchmarks(&args(&["grid", "--family", "spec95"])).unwrap();
        assert_eq!(spec95.len(), 6);
        let h2p = grid_benchmarks(&args(&["grid", "--family", "h2p"])).unwrap();
        assert_eq!(h2p.len(), 2);
        let err = grid_benchmarks(&args(&["grid", "--family", "desktop"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let default = grid_benchmarks(&args(&["grid"])).unwrap();
        assert_eq!(default, vec![Benchmark::Gcc]);
    }

    #[test]
    fn run_options_accepts_family_benchmarks() {
        let o = run_options(&args(&["sim", "--benchmark", "h2p_churn"])).unwrap();
        assert_eq!(o.benchmark.family(), WorkloadFamily::H2p);
        assert!(o.instructions > 0);
        let o = run_options(&args(&["stats", "--benchmark", "server_web"])).unwrap();
        assert_eq!(o.benchmark.family(), WorkloadFamily::Server);
    }

    #[test]
    fn ingest_admits_generated_traces_and_rejects_garbage() {
        let dir = std::env::temp_dir().join("sdbp-cli-ingest-test");
        fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("compress.sdbt");
        let trace_str = trace_path.to_str().unwrap();
        gen(&args(&[
            "gen",
            "--benchmark",
            "compress",
            "--instructions",
            "50000",
            "--out",
            trace_str,
        ]))
        .unwrap();
        ingest(&args(&["ingest", "--trace", trace_str])).unwrap();

        let missing = ingest(&args(&["ingest", "--trace", "/nonexistent/x.sdbt"])).unwrap_err();
        assert_eq!(missing.exit_code(), 1);
        let garbage = dir.join("garbage.bin");
        fs::write(&garbage, [0u8, 200, 1, 255, 7, 7, 7, 7]).unwrap();
        let unknown = ingest(&args(&["ingest", "--trace", garbage.to_str().unwrap()]));
        assert!(unknown.is_err());
        assert!(ingest(&args(&["ingest"])).is_err(), "requires --trace");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_runs_an_imported_trace() {
        let dir = std::env::temp_dir().join("sdbp-cli-grid-trace-test");
        fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("ijpeg.sdbt");
        let trace_str = trace_path.to_str().unwrap();
        gen(&args(&[
            "gen",
            "--benchmark",
            "ijpeg",
            "--instructions",
            "60000",
            "--out",
            trace_str,
        ]))
        .unwrap();
        grid(&args(&[
            "grid",
            "--trace",
            trace_str,
            "--size",
            "1024",
            "--instructions",
            "60000",
            "--schemes",
            "none,static_95",
            "--threads",
            "2",
        ]))
        .unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_stats_sim_roundtrip_via_file() {
        let dir = std::env::temp_dir().join("sdbp-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.sdbt");
        let trace_str = trace_path.to_str().unwrap();
        gen(&args(&[
            "gen",
            "--benchmark",
            "compress",
            "--instructions",
            "50000",
            "--out",
            trace_str,
        ]))
        .unwrap();
        stats(&args(&["stats", "--trace", trace_str])).unwrap();
        sim(&args(&["sim", "--trace", trace_str, "--size", "1024"])).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_files_load_in_every_format_whatever_their_extension() {
        let dir = std::env::temp_dir().join("sdbp-cli-load-trace-test");
        fs::create_dir_all(&dir).unwrap();
        let trace = open_source(Benchmark::Compress, InputSet::Ref, 1)
            .take_instructions(20_000)
            .collect_trace();
        for extension in ["sdbt", "trace", "perf"] {
            let path = dir.join(format!("compress.{extension}"));
            let mut buf = Vec::new();
            match extension {
                "sdbt" => write_binary(&mut buf, &trace),
                "trace" => write_text(&mut buf, &trace),
                _ => sdbp_trace::write_perf_text(&mut buf, &trace),
            }
            .unwrap();
            fs::write(&path, &buf).unwrap();
            let p = path.to_str().unwrap();
            assert_eq!(load_trace(p).unwrap().events(), trace.events(), "{p}");
            stats(&args(&["stats", "--trace", p])).unwrap();
            sim(&args(&["sim", "--trace", p, "--size", "1024"])).unwrap();
        }
        fs::remove_dir_all(&dir).ok();
    }
}
