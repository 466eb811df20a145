//! `sdbp` — command-line driver for the static+dynamic branch prediction
//! simulator (Patil & Emer, HPCA 2000 reproduction).
//!
//! Run `sdbp help` for the full usage text; typical sessions:
//!
//! ```text
//! sdbp sim --benchmark gcc --predictor gshare --size 16384 --scheme static_acc
//! sdbp sweep --benchmark m88ksim --predictor 2bcgskew --scheme static_95
//! sdbp gen --benchmark compress --out compress.sdbt --instructions 1000000
//! sdbp sim --trace compress.sdbt --predictor bimodal --size 2048
//! ```

#![forbid(unsafe_code)]

mod args;
mod bench;
mod commands;
mod error;

use args::Args;
use error::CliError;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `sdbp artifact <action>` and `sdbp bench <suite>` carry a bare word
    // the option parser would reject as a stray positional; peel it off
    // before parsing.
    let mut word = String::new();
    if matches!(argv.first().map(String::as_str), Some("artifact" | "bench"))
        && argv.get(1).is_some_and(|t| !t.starts_with('-'))
    {
        word = argv.remove(1);
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\nrun `sdbp help` for usage");
            std::process::exit(2);
        }
    };
    let result = match args.command() {
        "list" => commands::list(),
        "gen" => commands::gen(&args),
        "ingest" => commands::ingest(&args),
        "stats" => commands::stats(&args),
        "profile" => commands::profile(&args),
        "select" => commands::select(&args),
        "sim" => commands::sim(&args),
        "sweep" => commands::sweep(&args),
        "grid" => commands::grid(&args),
        "hotspots" => commands::hotspots(&args),
        "check" => commands::check(&args),
        "artifact" => commands::artifact(&word, &args),
        "bench" => bench::run(&word, &args),
        "" | "help" | "-h" | "--help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'; run `sdbp help`"
        ))),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

const USAGE: &str = "\
sdbp - static+dynamic branch prediction simulator (Patil & Emer, HPCA 2000)

usage: sdbp <command> [--option value] [--flag]

commands:
  list                         benchmarks, predictors, schemes
  gen      --out t.sdbt        generate a branch trace file (--text for text)
  ingest   --trace t.sdbt      lint an external trace (SDBP070-075 admission
                               diagnostics: unreadable, unknown format,
                               truncation, implausible density, degenerate
                               outcomes) and admit it as a benchmark;
                               accepts sdbt binary, sdbp text, and
                               `perf script` output, autodetected
                               (--format text|json, --deny-warnings)
  stats    [--trace t.sdbt]    characterize a trace or workload
  profile  --out p.prof        collect a per-branch bias profile
  select   --out h.hints       select static hints (--scheme, --profile)
  sim                          two-phase experiment (--trace for file mode)
  sweep                        parallel predictor size sweep (1KB..64KB)
  grid                         parallel Figure 7-style grid: paper predictors x
                               static schemes at --size on one benchmark;
                               --family spec95|server|h2p|imported sweeps a
                               whole workload family in one run (the stderr
                               summary reports MISPs/KI per family), and
                               --trace FILE grids over an imported trace
  hotspots                     top misprediction contributors (--top N)
  check                        static diagnostics: lint a spec file or the
                               inline options without running anything
                               (--spec f.spec, --hints h.hints,
                               --profile p.prof, --manifest m.jsonl,
                               --aliasing, --index-analysis, --suite,
                               --format text|json, --deny-warnings)
  artifact ls|inspect|gc       inspect a durable artifact store: list the
                               objects (ls), show one by digest
                               (inspect --digest HEX), or prune corrupt
                               objects, dangling links, and stale temp
                               files (gc); all take --store DIR
  bench kernel|passes|frontier|families
                               run one harness suite and write its record
                               (--out, default BENCH_<suite>.json; --quick
                               for the CI smoke budget): kernel throughput
                               vs the reference kernel, per-cell vs sweep
                               traversals, static hints on the frontier
                               predictors, or the per-family grid with its
                               imported-trace identity check; exits
                               non-zero, after writing, when the suite's
                               own cross-check fails

common options:
  --benchmark go|gcc|perl|m88ksim|compress|ijpeg   (default gcc); also
              server_web|server_db (context-switch interleaved, flat-bias
              server family), h2p_rare|h2p_churn (hard-to-predict family),
              and any name admitted by `sdbp ingest`
  --family spec95|server|h2p|imported              grid: sweep a whole family
  --input train|ref                                (default ref)
  --seed N                                         (default 2000)
  --instructions N                                 (default per workload)
  --predictor bimodal|ghist|gshare|bi-mode|2bcgskew|agree|yags|e-gskew|tournament|local|gselect|perceptron|tage-lite
  --size BYTES                                     (default 8192)
  --scheme none|static_95|static_<pct>|static_acc|static_col|static_collide
  --schemes a,b,c                                  grid: the scheme columns
                                                   (default none,static_95,
                                                   static_acc; first entry
                                                   is the Δ baseline;
                                                   static_collide cells on
                                                   analysis-opaque
                                                   predictors render n/a)
  --training self|cross|merged                     (default self)
  --shift                                          shift static outcomes into ghist
  --hints h.hints                                  hint database (trace mode)
  --threads N                                      sweep/grid worker threads
                                                   (default: SDBP_THREADS env,
                                                   then all cores)
  --store DIR                                      durable artifact store for
                                                   grid: profiles persist
                                                   across runs, and a
                                                   manifest.jsonl records
                                                   every finished cell
  --resume                                         with --store: replay cells
                                                   already completed in the
                                                   manifest instead of
                                                   rerunning them
  --max-cells N                                    with --store: stop after N
                                                   executed cells (testing
                                                   interruption/resume)

parallelism:
  sweep and grid run their cells across worker threads sharing one artifact
  cache, so each benchmark's bias/accuracy profiles and branch streams are
  computed once and reused; results are bit-identical to a serial run. The
  stderr summary line reports threads, wall time, speedup, and cache
  hit/miss counters, plus the profile traversals saved by pass fusion
  (each benchmark's bias and accuracy profiles are collected in one fused
  trace traversal) and the measurement traversals saved by lockstep
  execution (cells sharing a branch stream ride one traversal together).
  The summary also reports per-cell throughput as min/median/max Mbr/s.
  SDBP_THREADS=N overrides the default thread count process-wide (the
  --threads flag wins when both are given).

diagnostics:
  check lints without simulating: spec problems (unknown names, bad sizes,
  unrealizable budgets), hint-database problems (duplicates, conflicts,
  stale or contradicted hints), profile/spec mismatches, and — with
  --aliasing — a static forecast of the branches most likely to suffer
  destructive interference in the configured predictor. With
  --index-analysis, check instead *proves* the predictor's collision
  structure with exact GF(2) linear algebra (linear predictors only:
  bimodal, ghist, gshare, gselect, e-gskew — see docs/index-analysis.md):
  guaranteed-collision PC classes, dead history bits, rank-deficient
  tables, and profiled branch pairs proven to alias at every history.
  Findings carry stable SDBPnnn codes (see docs/diagnostics.md). Exit
  status is non-zero on any error, or on warnings under --deny-warnings.
  With --manifest, check also lints a grid run manifest: parse damage,
  schema drift, duplicate cells, failed cells, and torn tails.

exit codes:
  0 success; 1 command failure (simulation error, failed check, I/O);
  2 usage error (unknown command, bad option value); 3 artifact-store or
  manifest corruption (see docs/artifacts.md).

examples:
  sdbp sim --benchmark gcc --predictor gshare --size 16384 --scheme static_acc
  sdbp sweep --benchmark m88ksim --predictor 2bcgskew --scheme static_95
  # Figure 7 of the paper (go, 8 KB predictors) on 4 threads:
  sdbp grid --benchmark go --size 8192 --threads 4
  sdbp gen --benchmark compress --out compress.sdbt --instructions 1000000
  sdbp sim --trace compress.sdbt --predictor bimodal --size 2048
  # sweep the whole server family in one run (per-family stderr summary):
  sdbp grid --family server --size 8192
  # admit an external trace (perf script output works too), then grid it:
  sdbp ingest --trace capture.sdbt
  sdbp grid --trace capture.sdbt --instructions 1000000
  # lint a spec file and forecast aliasing hotspots, machine-readable:
  sdbp check --spec run.spec --aliasing --format json
  # prove the index function's collision structure instead of sampling it:
  sdbp check --predictor gshare --size 1024 --index-analysis
  # durable grid: run once, interrupt at will, resume without recomputing:
  sdbp grid --benchmark gcc --store runs/gcc
  sdbp grid --benchmark gcc --store runs/gcc --resume
  sdbp artifact ls --store runs/gcc
  # regenerate a checked-in record (BENCH_passes.json):
  sdbp bench passes
";
