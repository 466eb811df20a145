//! The `sdbp` subcommand implementations.

use crate::args::Args;
use crate::error::CliError;
use sdbp_artifacts::{Digest, Store};
use sdbp_check::Diagnostics;
use sdbp_core::{BranchAnalysis, CombinedPredictor, ExperimentSpec, Lab, Simulator, Sweep};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::{BiasProfile, HintDatabase, SelectionScheme, SCHEME_NAMES};
use sdbp_trace::{import_trace, write_binary, write_text, BranchSource, Trace};
use sdbp_util::table::{fixed, grouped, pct, TableWriter};
use sdbp_workloads::{imports, open_source, Benchmark, InputSet, WorkloadFamily};
use std::fs;
use std::path::Path;

type CmdResult = Result<(), CliError>;

/// The experiment a command's spec-field options describe, parsed by
/// `sdbp check`'s spec parser; a bad value is a usage error that carries
/// its coded diagnostic.
pub(crate) fn spec_of(args: &Args) -> Result<ExperimentSpec, CliError> {
    let (parsed, diags) = sdbp_check::spec::parse_spec_fields(spec_fields(args), "<args>");
    match parsed.spec {
        Some(spec) if !diags.has_errors() => Ok(spec),
        _ => Err(CliError::Usage(format!(
            "invalid options for `sdbp {}`\n{}",
            args.command(),
            diags.render_text().trim_end()
        ))),
    }
}

/// The spec fields among a command's options, in declaration order.
fn spec_fields(args: &Args) -> impl Iterator<Item = (&str, &str, Option<usize>)> {
    args.fields()
        .filter(|(key, _)| sdbp_check::SPEC_KEYS.contains(key))
        .map(|(key, value)| (key, value, None))
}

/// The stream a spec measures: its benchmark, input and seed, cut at its
/// measurement budget.
fn workload(spec: &ExperimentSpec) -> impl BranchSource {
    open_source(spec.benchmark, spec.measure_input, spec.seed)
        .take_instructions(spec.measure_budget())
}

/// Sets both phases' budgets to the measurement budget, which defaults to
/// the measured input's own: one `--instructions` sizes a whole run.
fn one_budget(mut spec: ExperimentSpec) -> ExperimentSpec {
    let budget = spec.measure_budget();
    spec.profile_instructions = Some(budget);
    spec.measure_instructions = Some(budget);
    spec
}

/// Reads a text file the command was pointed at.
fn read(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::Failure(format!("cannot read {path}: {e}")))
}

/// Reads a trace file in any importable format, the same autodetection
/// `ingest` and `grid --trace` use; any decode error fails the command.
fn load_trace(path: &str) -> Result<Trace, CliError> {
    import_trace(Path::new(path)).map_err(|e| CliError::Failure(format!("{path}: {e}")))
}

/// Prints diagnostics in the `--format` asked for; `true` for text.
fn print_diagnostics(args: &Args, diags: &Diagnostics) -> Result<bool, CliError> {
    match args.value("format") {
        "json" => println!("{}", diags.to_json()),
        "text" => print!("{}", diags.render_text()),
        other => {
            return Err(CliError::Usage(format!(
                "invalid --format '{other}' (text|json)"
            )))
        }
    }
    Ok(args.value("format") == "text")
}

/// `sdbp gen` — generate a trace file from a synthetic workload.
pub fn gen(args: &Args) -> CmdResult {
    let spec = spec_of(args)?;
    let out = args.value("out");
    let trace = workload(&spec).collect_trace();
    let mut buf = Vec::new();
    if args.given("text") || out.ends_with(".txt") {
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
    args.conflicts("trace", "benchmark input seed instructions")?;
    let stats = if let Some(path) = args.get("trace") {
        let trace = load_trace(path)?;
        sdbp_trace::TraceStats::from_source(sdbp_trace::SliceSource::from_trace(&trace))
    } else {
        sdbp_trace::TraceStats::from_source(workload(&spec_of(args)?))
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
    let spec = spec_of(args)?;
    let out = args.value("out");
    let profile = BiasProfile::from_source(workload(&spec));
    // Metadata header: `sdbp check` and `sdbp select` cross-check these
    // fields against the spec the profile is later used with
    // (SDBP030/031/032).
    let metadata = sdbp_check::ProfileMetadata {
        benchmark: Some(spec.benchmark.name().to_string()),
        input: Some(spec.measure_input.name().to_string()),
        seed: Some(spec.seed),
        instructions: Some(spec.measure_budget()),
    };
    fs::write(out, format!("{}{}", metadata.header(), profile.to_text()))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} sites, {} executions",
        grouped(profile.len() as u64),
        grouped(profile.total_executions())
    );
    Ok(())
}

/// Reads a `--profile` file with `sdbp check`'s parser and cross-checks its
/// header against the run it will drive: errors (a profile of another
/// benchmark, SDBP030; malformed lines, SDBP035) fail the command, warnings
/// (seed or budget drift, SDBP031/032) are printed and let through.
fn provenanced_profile(path: &str, spec: &ExperimentSpec) -> Result<BiasProfile, CliError> {
    let (bias, metadata, mut diags) = sdbp_check::parse_profile_text(&read(path)?, path);
    diags.merge(sdbp_check::lint_profile_against_spec(&metadata, spec, path));
    eprint!("{}", diags.render_text());
    if diags.has_errors() {
        return Err(CliError::Failure(format!(
            "{path} does not fit this run: {}",
            diags.summary()
        )));
    }
    Ok(bias)
}

/// `sdbp select` — select static hints from a profile (or from a fresh run)
/// and write the hint database.
pub fn select(args: &Args) -> CmdResult {
    let spec = one_budget(spec_of(args)?);
    let (scheme, out) = (spec.scheme, args.value("out"));
    let hints = match args.get("profile") {
        // No profile file: the experiment's own phase one.
        None => Lab::new().select_hints(&spec)?,
        // The bias comes from the file; an accuracy profile, when the
        // scheme needs one, from a fresh run of the workload options.
        Some(path) => {
            let bias = provenanced_profile(path, &spec)?;
            let accuracy = scheme.needs_accuracy_profile().then(|| {
                let mut predictor = spec.predictor.build_any();
                sdbp_profiles::AccuracyProfile::collect(workload(&spec), &mut predictor)
            });
            // Static_Collide ranks interference against the configured
            // predictor's index function; other schemes never consult one.
            let ranking = if scheme.needs_interference_ranking() {
                sdbp_profiles::rank_interference(
                    &bias,
                    spec.predictor,
                    &sdbp_profiles::InterferenceOptions::default(),
                )
            } else {
                None
            };
            scheme
                .select_with_interference(&bias, accuracy.as_ref(), ranking.as_ref())
                .map_err(|e| e.to_string())?
        }
    };
    fs::write(out, hints.to_text()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}: {} ({scheme})", hints);
    Ok(())
}

/// `sdbp sim` — simulate a predictor over a workload or trace, optionally
/// with a hint database or an on-the-fly selection scheme.
pub fn sim(args: &Args) -> CmdResult {
    args.requires("hints", "trace")?;
    args.conflicts("trace", "benchmark input seed instructions scheme training")?;
    let spec = spec_of(args)?;

    // Trace-file mode: external traces with an optional hint database.
    if let Some(path) = args.get("trace") {
        let trace = load_trace(path)?;
        let hints = match args.get("hints") {
            Some(path) => HintDatabase::from_text(&read(path)?)?,
            None => HintDatabase::new(),
        };
        let mut combined = CombinedPredictor::new(spec.predictor.build_any(), hints, spec.shift);
        let stats =
            Simulator::new().run(sdbp_trace::SliceSource::from_trace(&trace), &mut combined);
        println!("{} on {path}: {stats}", spec.predictor);
        return Ok(());
    }

    // Workload mode: the full two-phase experiment.
    let report = Lab::new().run(&one_budget(spec))?;
    println!("{report}");
    Ok(())
}

/// `sdbp sweep` — size sweep of one predictor/scheme on one benchmark,
/// run in parallel through the sweep engine.
pub fn sweep(args: &Args) -> CmdResult {
    let base = one_budget(spec_of(args)?);
    let kind = base.predictor.kind();
    let sizes = [1usize, 2, 4, 8, 16, 32, 64];
    let mut specs = Vec::new();
    for size_kb in sizes {
        let mut spec = base.clone();
        spec.predictor = PredictorConfig::new(kind, size_kb * 1024).map_err(|e| e.to_string())?;
        specs.push(spec);
    }
    let result = Sweep::new(specs)
        .with_threads(args.parsed("threads")?)
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
        "{kind} on {} ({}, {}):\n\n{}",
        base.benchmark,
        base.measure_input,
        base.scheme,
        t.render()
    );
    Ok(())
}

/// Resolves the benchmarks a `grid` run covers: an imported `--trace`
/// file, every member of a `--family`, or the single `--benchmark`.
fn grid_benchmarks(args: &Args, spec: &ExperimentSpec) -> Result<Vec<Benchmark>, CliError> {
    args.conflicts("trace", "family benchmark")?;
    args.conflicts("family", "benchmark")?;
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
    Ok(vec![spec.benchmark])
}

/// `sdbp grid` — the Figure 7–12 experiment: every paper predictor at
/// `--size` under the three static schemes, run in parallel with shared
/// profile/trace artifacts. Covers one benchmark by default; `--family`
/// sweeps every benchmark of a workload family in one sweep (one table per
/// benchmark), and `--trace` admits an external trace file and grids over
/// it.
pub fn grid(args: &Args) -> CmdResult {
    args.requires("resume", "store")?;
    args.requires("max-cells", "store")?;
    let base = spec_of(args)?;
    let benchmarks = grid_benchmarks(args, &base)?;
    let size = base.predictor.size_bytes();
    let schemes: Vec<SelectionScheme> = args
        .value("schemes")
        .split(',')
        .map(|name| {
            name.trim()
                .parse()
                .map_err(|e| CliError::Usage(format!("invalid --schemes entry '{name}': {e}")))
        })
        .collect::<Result<_, _>>()?;
    // Cells whose scheme needs the interference ranking on a predictor that
    // is opaque to it would fail at selection time; skip them up front and
    // render n/a — the same policy as `sdbp bench frontier` and SDBP042.
    let mut specs = Vec::new();
    let mut layout: Vec<Vec<Vec<Option<usize>>>> = Vec::new();
    for &benchmark in &benchmarks {
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
                let mut spec = base.clone().with_scheme(scheme);
                spec.benchmark = benchmark;
                spec.predictor = config;
                specs.push(one_budget(spec));
                row.push(Some(specs.len() - 1));
            }
            rows.push(row);
        }
        layout.push(rows);
    }
    let mut sweep = Sweep::new(specs)
        .with_threads(args.parsed("threads")?)
        .with_verbose(true);
    if let Some(dir) = args.get("store") {
        sweep = sweep
            .with_store(dir)
            .with_resume(args.given("resume"))
            .with_max_cells(args.parsed("max-cells")?);
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
            base.measure_input,
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
    let path = args.value("trace");
    let p = Path::new(path);
    // One scan serves both the lints and the admission registration.
    let scanned = sdbp_trace::scan_path(p);
    let diags = match &scanned {
        Ok(scan) => sdbp_check::lint_trace_scan(scan, path),
        // Open failed: re-derive the failure as SDBP070/SDBP071.
        Err(_) => sdbp_check::lint_trace_path(p),
    };
    print_diagnostics(args, &diags)?;
    if !diags.passes(args.given("deny-warnings")) {
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
    let spec = spec_of(args)?;
    let (kind, size) = (spec.predictor.kind(), spec.predictor.size_bytes());
    let top = args.parsed("top")?;
    let mut predictor = CombinedPredictor::pure_dynamic(spec.predictor.build_any());
    let analysis = BranchAnalysis::run(workload(&spec), &mut predictor);
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
        spec.benchmark,
        spec.measure_input,
        analysis.stats(),
        analysis.misprediction_concentration(top) * 100.0
    );
    println!("{}", t.render());
    Ok(())
}

/// The bias profile `--aliasing` and `--index-analysis` analyze: the
/// `--profile` file, else a fresh profile of `--instructions` (500 000
/// unless given) on the train input.
fn analyzed_profile(
    args: &Args,
    spec: &ExperimentSpec,
    profile: Option<BiasProfile>,
) -> Result<BiasProfile, CliError> {
    if let Some(bias) = profile {
        return Ok(bias);
    }
    let budget = args.get("instructions").unwrap_or("500000");
    let budget = budget
        .parse()
        .map_err(|e| CliError::Usage(format!("invalid --instructions '{budget}': {e}")))?;
    let fresh = open_source(spec.benchmark, InputSet::Train, spec.seed).take_instructions(budget);
    Ok(BiasProfile::from_source(fresh))
}

/// `sdbp check` — static diagnostics over a spec, a hint database, and a
/// profile, without running any simulation.
pub fn check(args: &Args) -> CmdResult {
    // With --spec, the file holds the spec; --instructions may still size
    // the fresh profile.
    let inline = sdbp_check::SPEC_KEYS
        .iter()
        .filter(|&&key| key != "instructions");
    args.conflicts("spec", &inline.copied().collect::<Vec<_>>().join(" "))?;
    let mut diags = Diagnostics::new();

    // --suite: lint every spec the `sdbp bench` experiments would run.
    if args.given("suite") {
        for spec in sdbp_bench::experiments::suite_specs() {
            diags.merge(sdbp_check::lint_spec(&spec, "<suite>"));
        }
    }

    // The spec under scrutiny: a `--spec` file, or the inline options.
    let (origin, (parsed, parse_diags)) = match args.get("spec") {
        Some(path) => (path, sdbp_check::parse_spec_text(&read(path)?, path)),
        None => (
            "<args>",
            sdbp_check::spec::parse_spec_fields(spec_fields(args), "<args>"),
        ),
    };
    diags.merge(parse_diags);
    if let Some(spec) = &parsed.spec {
        diags.merge(sdbp_check::lint_spec_with_history(
            spec,
            parsed.declared_history,
            origin,
        ));
    }

    // --profile: metadata cross-checks, and the data for --aliasing.
    let mut profile = None;
    if let Some(path) = args.get("profile") {
        let (bias, metadata, profile_diags) = sdbp_check::parse_profile_text(&read(path)?, path);
        diags.merge(profile_diags);
        if let Some(spec) = &parsed.spec {
            diags.merge(sdbp_check::lint_profile_against_spec(&metadata, spec, path));
        }
        profile = Some(bias);
    }

    // --hints: duplicate/conflict lints, plus profile cross-checks.
    if let Some(path) = args.get("hints") {
        let (hints, hint_diags) = sdbp_check::parse_hints_text(&read(path)?, path);
        diags.merge(hint_diags);
        if let Some(bias) = &profile {
            diags.merge(sdbp_check::lint_hints_against_profile(&hints, bias, path));
        }
    }

    // --manifest: lint a grid run manifest — parse damage, schema drift,
    // duplicate or failed cells, torn tails (SDBP050–SDBP054).
    if let Some(path) = args.get("manifest") {
        diags.merge(sdbp_check::lint_manifest_text(&read(path)?, path));
    }

    // --aliasing forecasts destructive interference from the profile and
    // the spec's index function; --index-analysis proves the index
    // function's collision structure with exact GF(2) linear algebra
    // (SDBP060–SDBP064), the profile driving the SDBP063 proven-pair search.
    let (aliasing, index_analysis) = (args.given("aliasing"), args.given("index-analysis"));
    if let (Some(spec), true) = (&parsed.spec, aliasing || index_analysis) {
        let bias = analyzed_profile(args, spec, profile)?;
        let top = args.parsed("top")?;
        if aliasing {
            let (_, aliasing_diags) = sdbp_check::lint_aliasing(&bias, spec.predictor, top, origin);
            diags.merge(aliasing_diags);
        }
        if index_analysis {
            let (_, index_diags) =
                sdbp_check::lint_index_analysis(Some(&bias), spec.predictor, top, origin);
            diags.merge(index_diags);
        }
    }

    if print_diagnostics(args, &diags)? {
        println!("check: {}", diags.summary());
    }
    if diags.passes(args.given("deny-warnings")) {
        Ok(())
    } else {
        Err(CliError::Failure(format!(
            "check failed: {}",
            diags.summary()
        )))
    }
}

/// `sdbp artifact`'s words and their options.
pub const ARTIFACT: &[(&str, &str)] = &[
    ("ls", "store!"),
    ("inspect", "store! digest!"),
    ("gc", "store!"),
];

/// `sdbp artifact <action>` — inspect and maintain a durable artifact
/// store: `ls` (every entry with its key, schema and size), `inspect
/// --digest HEX` (the entry filed under that key), `gc` (prune corrupt
/// entries and stale temp files).
pub fn artifact(action: &str, args: &Args) -> CmdResult {
    let store = Store::open(args.value("store"))?;
    match action {
        "ls" => {
            let entries = store.list()?;
            let mut t = TableWriter::with_columns(&["key", "schema", "version", "bytes"]);
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
                    entry.key.to_string(),
                    schema,
                    version,
                    grouped(entry.size),
                ]);
            }
            println!("{}", t.render());
            println!(
                "{} entries in {}{}",
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
            let key: Digest = args.parsed("digest")?;
            let entry = store
                .list()?
                .into_iter()
                .find(|entry| entry.key == key)
                .ok_or_else(|| CliError::Failure(format!("no entry {key} in the store")))?;
            let (schema, version) = entry.schema()?;
            println!("key:     {key}");
            println!("path:    {}", entry.path.display());
            println!("schema:  {schema} v{version}");
            println!("size:    {} bytes", grouped(entry.size));
            Ok(())
        }
        "gc" => {
            let (removed, kept) = store.gc()?;
            println!(
                "gc {}: removed {removed}, kept {kept}",
                store.root().display()
            );
            Ok(())
        }
        other => unreachable!("artifact words are ls, inspect and gc, not '{other}'"),
    }
}

/// `sdbp list` — enumerate benchmarks, predictors and schemes.
pub fn list(_: &Args) -> CmdResult {
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
    println!("\nschemes: {SCHEME_NAMES}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a command line the way `sdbp` does, against its command's
    /// declarations.
    fn try_args(tokens: &[&str]) -> Result<Args, CliError> {
        crate::parse(tokens.iter().map(|s| s.to_string()).collect()).map(|(_, _, args)| args)
    }

    fn args(tokens: &[&str]) -> Args {
        try_args(tokens).unwrap_or_else(|e| panic!("{tokens:?}: {e}"))
    }

    /// Asserts `tokens` fail as a usage error (exit 2) naming `needle`,
    /// whether the parser or the command rejects them.
    fn assert_usage_error(tokens: &[&str], needle: &str) {
        let err = match try_args(tokens) {
            Ok(a) => {
                let run = match tokens[0] {
                    "sim" => sim,
                    "stats" => stats,
                    "grid" => grid,
                    "check" => check,
                    other => panic!("no runner for {other}"),
                };
                run(&a).expect_err(&format!("{tokens:?} ran"))
            }
            Err(e) => e,
        };
        assert_eq!(err.exit_code(), 2, "{tokens:?}: {err}");
        assert!(err.to_string().contains(needle), "{tokens:?}: {err}");
    }

    #[test]
    fn run_options_defaults() {
        let spec = spec_of(&args(&["sim"])).unwrap();
        assert_eq!(spec.benchmark, Benchmark::Gcc);
        assert_eq!(spec.measure_input, InputSet::Ref);
        assert_eq!(spec.seed, 2000);
        assert!(spec.measure_budget() > 0);
        let spec = one_budget(spec_of(&args(&["sim", "--training", "cross"])).unwrap());
        assert_eq!(
            spec.profile_instructions,
            Some(Benchmark::Gcc.default_instructions(InputSet::Ref)),
            "one budget, the measured input's"
        );
    }

    #[test]
    fn run_options_rejects_bad_input() {
        for (option, value, suggestion) in [
            ("--input", "weird", None),
            ("--benchmark", "nope", None),
            ("--benchmark", "compres", Some("did you mean 'compress'?")),
        ] {
            let err = spec_of(&args(&["sim", option, value])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{option} {value}");
            if let Some(suggestion) = suggestion {
                assert!(err.to_string().contains(suggestion), "{err}");
            }
        }
    }

    #[test]
    fn scheme_parsing() {
        let scheme = |argv: &[&str]| spec_of(&args(argv)).map(|spec| spec.scheme);
        assert_eq!(scheme(&["sim"]).unwrap(), SelectionScheme::None);
        assert_eq!(
            scheme(&["sim", "--scheme", "static_95"]).unwrap(),
            SelectionScheme::static_95()
        );
        assert_eq!(
            scheme(&["sim", "--scheme", "static_90"]).unwrap(),
            SelectionScheme::Bias { cutoff: 0.90 }
        );
        assert_eq!(
            scheme(&["sim", "--scheme", "static_acc"]).unwrap(),
            SelectionScheme::static_acc()
        );
        let err = scheme(&["sim", "--scheme", "statik_95"]).unwrap_err();
        assert!(
            err.to_string().contains("did you mean 'static_95'?"),
            "{err}"
        );
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
    fn missing_required_options_are_usage_errors() {
        for argv in [
            &["gen", "--benchmark", "compress"][..],
            &["profile", "--benchmark", "compress"],
            &["select", "--scheme", "static_95"],
            &["ingest", "--format", "json"],
            &["artifact", "gc"],
            &["artifact", "inspect", "--store", "d"],
        ] {
            let err = try_args(argv).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{argv:?}: {err}");
            assert!(err.to_string().contains("requires --"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn a_trace_replay_rejects_workload_options() {
        for option in ["--scheme", "--training", "--benchmark", "--input", "--seed"] {
            assert_usage_error(&["sim", "--trace", "t.sdbt", option, "x"], option);
        }
        assert_usage_error(
            &["sim", "--trace", "t.sdbt", "--instructions", "9"],
            "--trace",
        );
        assert_usage_error(
            &["stats", "--trace", "t.sdbt", "--benchmark", "go"],
            "--benchmark",
        );
    }

    #[test]
    fn hints_need_a_trace() {
        assert_usage_error(
            &["sim", "--benchmark", "compress", "--hints", "h"],
            "--hints",
        );
    }

    #[test]
    fn grid_takes_one_workload_source() {
        for argv in [
            &["grid", "--trace", "t.sdbt", "--family", "h2p"][..],
            &["grid", "--trace", "t.sdbt", "--benchmark", "go"],
            &["grid", "--family", "h2p", "--benchmark", "go"],
        ] {
            assert_usage_error(argv, "cannot be combined");
        }
    }

    #[test]
    fn check_spec_files_exclude_inline_spec_fields() {
        assert_usage_error(
            &["check", "--spec", "s", "--scheme", "static_95"],
            "--scheme",
        );
        assert_usage_error(&["check", "--spec", "s", "--shift"], "--shift");
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
        let missing_store = try_args(&["artifact", "ls"]).unwrap_err();
        assert_eq!(missing_store.exit_code(), 2);
        let missing_action = try_args(&["artifact", "--store", "d"]).unwrap_err();
        assert_eq!(missing_action.exit_code(), 2);
        let unknown = try_args(&["artifact", "prune", "--store", "d"]).unwrap_err();
        assert!(unknown.to_string().contains("prune"));
    }

    #[test]
    fn artifact_ls_inspect_gc_roundtrip() {
        let dir = std::env::temp_dir().join("sdbp-cli-artifact-test");
        fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        let (profile, damaged) = (Digest::of(b"profile"), Digest::of(b"damaged"));
        for key in [profile, damaged] {
            store.put(key, "sdbp-bias-profile", 3, "10 3 0\n").unwrap();
        }
        let damaged_entry = store.list().unwrap().into_iter().find(|e| e.key == damaged);
        fs::write(damaged_entry.unwrap().path, b"loose bytes").unwrap();
        let store_arg = dir.to_str().unwrap().to_string();
        artifact("ls", &args(&["artifact", "ls", "--store", &store_arg])).unwrap();
        let inspect = |digest: Digest| {
            let hex = digest.to_string();
            artifact(
                "inspect",
                &args(&[
                    "artifact", "inspect", "--store", &store_arg, "--digest", &hex,
                ]),
            )
        };
        inspect(profile).unwrap();
        // Loose bytes carry no header line: corrupt, exit 3.
        assert_eq!(inspect(damaged).unwrap_err().exit_code(), 3);
        artifact("gc", &args(&["artifact", "gc", "--store", &store_arg])).unwrap();
        assert_eq!(inspect(damaged).unwrap_err().exit_code(), 1, "gc pruned it");
        inspect(profile).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_resume_without_store_is_a_usage_error() {
        assert_usage_error(&["grid", "--resume"], "--resume requires --store");
    }

    #[test]
    fn grid_max_cells_without_store_is_a_usage_error() {
        assert_usage_error(
            &[
                "grid",
                "--benchmark",
                "compress",
                "--size",
                "2048",
                "--instructions",
                "100000",
                "--max-cells",
                "3",
            ],
            "--max-cells",
        );
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
        let members = |argv: &[&str]| {
            let a = args(argv);
            grid_benchmarks(&a, &spec_of(&a).unwrap())
        };
        let server = members(&["grid", "--family", "server"]).unwrap();
        assert_eq!(server.len(), 2);
        assert!(server.iter().all(|b| b.family() == WorkloadFamily::Server));
        let spec95 = members(&["grid", "--family", "spec95"]).unwrap();
        assert_eq!(spec95.len(), 6);
        let h2p = members(&["grid", "--family", "h2p"]).unwrap();
        assert_eq!(h2p.len(), 2);
        let err = members(&["grid", "--family", "desktop"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let default = members(&["grid"]).unwrap();
        assert_eq!(default, vec![Benchmark::Gcc]);
    }

    #[test]
    fn run_options_accepts_family_benchmarks() {
        let spec = spec_of(&args(&["sim", "--benchmark", "h2p_churn"])).unwrap();
        assert_eq!(spec.benchmark.family(), WorkloadFamily::H2p);
        assert!(spec.measure_budget() > 0);
        let spec = spec_of(&args(&["stats", "--benchmark", "server_web"])).unwrap();
        assert_eq!(spec.benchmark.family(), WorkloadFamily::Server);
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
        assert!(try_args(&["ingest"]).is_err(), "requires --trace");
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
