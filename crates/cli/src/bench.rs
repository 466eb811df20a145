//! `sdbp bench <word>` — the harness's one entry point — and the
//! `BENCH_<suite>.json` record format.
//!
//! Every word regenerates one checked-in result or one table. The four
//! record suites write their `BENCH_<suite>.json` records and
//! `all_experiments` writes `results_full.txt`; the paper experiments of
//! [`experiments::SUITE`], `headline` and the two calibration diagnostics
//! print their text. `--out` sends any word's output to a file instead.
//!
//! This module is the only code that knows the record format. Every record
//! opens with one envelope — `schema`, `quick`, `cores` and `reps` — and
//! continues with the suite's own fields. Timings are `min_s` and `median_s`
//! over the repetitions, and rates derive from `min_s`. Floats are rounded
//! to the precision the suite has always printed, so a rerun changes only
//! what it measured.

use crate::args::Args;
use crate::commands::spec_of;
use crate::error::CliError;
use sdbp_artifacts::Json;
use sdbp_bench::experiments::{self, Experiment};
use sdbp_bench::families::{schemes, FamiliesReport, FAMILY_PREDICTORS, FAMILY_SIZE};
use sdbp_bench::frontier::{frontier_schemes, FrontierReport, FRONTIER_KINDS};
use sdbp_bench::kernel::{KernelMeasurement, KernelReport};
use sdbp_bench::passes::{PassesMeasurement, PassesReport};
use sdbp_bench::{calibration, Timing, COMPARISON_SIZE, SEED};
use sdbp_core::Lab;
use sdbp_workloads::Benchmark;
use std::fs;
use std::time::Instant;

/// What a word runs.
#[derive(Clone, Copy)]
enum Run {
    /// A record suite: the schema its record carries, and its run in full
    /// or `--quick` mode, returning the summary to print and the record.
    Record(&'static str, fn(bool) -> (String, Record)),
    /// A paper experiment, run on a fresh [`Lab`]; its table gets a final
    /// newline.
    Experiment(Experiment),
    /// A word that reads its own options and returns its whole text.
    Text(fn(&Args) -> Result<String, CliError>),
}

/// A word of `sdbp bench`: its option list, what it runs, and where its
/// output goes unless `--out` names a file (`None` is stdout).
struct Word {
    name: &'static str,
    options: &'static str,
    run: Run,
    out: Option<&'static str>,
}

/// The words besides the experiment suite's; those taking only `--out`
/// come last, next to the suite's, so `sdbp help` lists them together.
const WORDS: [Word; 8] = [
    Word {
        name: "kernel",
        options: "quick out",
        run: Run::Record("sdbp-bench-kernel/v3", |quick| {
            let report = sdbp_bench::kernel::run(quick, |m| eprintln!("{m}"));
            (report.summary(), kernel(&report))
        }),
        out: Some("BENCH_kernel.json"),
    },
    Word {
        name: "passes",
        options: "quick out",
        run: Run::Record("sdbp-bench-passes/v4", |quick| {
            let report = sdbp_bench::passes::run(quick, |m| eprintln!("{m}"));
            (report.summary(), passes(&report))
        }),
        out: Some("BENCH_passes.json"),
    },
    Word {
        name: "frontier",
        options: "quick out",
        run: Run::Record("sdbp-bench-frontier/v2", |quick| {
            let report = sdbp_bench::frontier::run(quick, |cell| {
                eprintln!(
                    "  {:<9} {:<10} {:<15} {:>8.3} MISPs/KI  {:>6} hints",
                    cell.benchmark.name(),
                    cell.predictor.name(),
                    cell.scheme,
                    cell.misp_per_ki,
                    cell.hints
                );
            });
            (report.summary(), frontier(&report))
        }),
        out: Some("BENCH_frontier.json"),
    },
    Word {
        name: "families",
        options: "quick out",
        run: Run::Record("sdbp-bench-families/v2", |quick| {
            let report = sdbp_bench::families::run(quick, |f| eprintln!("{f}"));
            (report.summary(), families(&report))
        }),
        out: Some("BENCH_families.json"),
    },
    Word {
        name: "diag_classes",
        options: "benchmark=m88ksim predictor size out",
        run: Run::Text(|args| {
            let spec = spec_of(args)?;
            Ok(calibration::diag_classes(spec.benchmark, spec.predictor))
        }),
        out: None,
    },
    Word {
        name: "diag_hist",
        options: "benchmark=compress size out",
        run: Run::Text(|args| {
            // Without --predictor, the spec's predictor is gshare.
            let spec = spec_of(args)?;
            let size = spec.predictor.size_bytes();
            Ok(calibration::diag_hist(spec.benchmark, size))
        }),
        out: None,
    },
    Word {
        name: "all_experiments",
        options: "out",
        run: Run::Text(|_| {
            let lab = Lab::new();
            let started = Instant::now();
            let text = experiments::all_experiments(&lab);
            eprintln!(
                "all experiments completed in {:.1?} on {} threads; lifetime cache: {}",
                started.elapsed(),
                sdbp_core::default_threads(),
                lab.cache().stats()
            );
            Ok(text)
        }),
        out: Some("results_full.txt"),
    },
    Word {
        name: "headline",
        options: "out",
        run: Run::Experiment(experiments::headline),
        out: None,
    },
];

/// Every word: those above, then the experiment suite's in
/// `all_experiments` order.
fn words() -> impl Iterator<Item = Word> {
    let suite = experiments::SUITE.map(|(name, experiment)| Word {
        name,
        options: "out",
        run: Run::Experiment(experiment),
        out: None,
    });
    WORDS.into_iter().chain(suite)
}

/// Every word with its option list.
pub fn usages() -> crate::args::Words {
    words().map(|w| (w.name, w.options)).collect()
}

/// `sdbp bench <word>` — run one word and send its output to `--out`, else
/// to the word's default destination. A record suite prints its summary
/// and writes its record even when its own cross-check fails; the command
/// then exits non-zero.
pub fn run(name: &str, args: &Args) -> Result<(), CliError> {
    let word = words()
        .find(|w| w.name == name)
        .expect("args were parsed against a known word");
    let (text, failure) = match word.run {
        Run::Record(schema, run) => {
            let quick = args.given("quick");
            eprintln!(
                "running the {name} suite ({} mode)...",
                if quick { "quick" } else { "full" }
            );
            let (summary, record) = run(quick);
            print!("{summary}");
            (
                record.document(schema).render_pretty() + "\n",
                record.failure,
            )
        }
        Run::Experiment(experiment) => (experiment(&Lab::new()) + "\n", None),
        Run::Text(run) => (run(args)?, None),
    };
    match args.get("out").or(word.out) {
        Some(out) => {
            fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote {out}");
        }
        None => print!("{text}"),
    }
    match failure {
        Some(why) => Err(CliError::Failure(why.to_string())),
        None => Ok(()),
    }
}

/// One finished suite run, ready to write.
struct Record {
    quick: bool,
    /// Timed repetitions per measurement (1 for the untimed suites).
    reps: u32,
    /// The suite's fields, after the envelope.
    body: Vec<(&'static str, Json)>,
    /// Why the suite's own cross-check failed, if it did.
    failure: Option<&'static str>,
}

impl Record {
    /// The record document: the envelope, then the suite's fields.
    fn document(&self, schema: &str) -> Json {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let envelope = [
            ("schema", Json::str(schema)),
            ("quick", Json::Bool(self.quick)),
            ("cores", int(cores)),
            ("reps", int(self.reps)),
        ];
        Json::obj(envelope.into_iter().chain(self.body.iter().cloned()))
    }
}

/// A count as a JSON integer.
fn int<T: TryInto<i64>>(n: T) -> Json
where
    T::Error: std::fmt::Debug,
{
    Json::Int(n.try_into().expect("counts fit in i64"))
}

/// `x` rounded to `decimals` places, the precision the suite prints it at.
fn rounded(x: f64, decimals: usize) -> Json {
    let text = format!("{x:.decimals$}");
    Json::Float(text.parse().expect("a formatted float parses back"))
}

/// A timing's two fields, to the microsecond.
fn timing(t: Timing) -> [(&'static str, Json); 2] {
    [
        ("min_s", rounded(t.min_s, 6)),
        ("median_s", rounded(t.median_s, 6)),
    ]
}

fn kernel(report: &KernelReport) -> Record {
    let row = |m: &KernelMeasurement| {
        let mut row = vec![
            ("predictor", Json::str(&m.label)),
            ("size_bytes", int(m.size_bytes)),
            ("branches", int(m.branches)),
        ];
        row.extend(timing(m.timing));
        row.push(("branches_per_sec", rounded(m.branches_per_sec(), 0)));
        row.push(("collisions", int(m.collisions)));
        Json::obj(row)
    };
    let workload = Json::obj([
        ("benchmarks", int(Benchmark::ALL.len())),
        ("input", Json::str("ref")),
        ("seed", int(SEED)),
        (
            "instructions_per_benchmark",
            int(report.instructions_per_benchmark),
        ),
        ("events", int(report.events)),
    ]);
    let cache = Json::obj([
        ("trace_hits", int(report.cache_hits)),
        ("trace_misses", int(report.cache_misses)),
    ]);
    let speedup = rounded(report.gshare_speedup(), 2);
    let kernels = report.kernels.iter().map(row).collect();
    Record {
        quick: report.quick,
        reps: report.reps,
        body: vec![
            ("workload", workload),
            ("cache", cache),
            ("baseline", row(&report.baseline)),
            ("gshare_speedup_over_baseline", speedup),
            ("kernels", Json::Arr(kernels)),
        ],
        failure: (!report.kernels_agree()).then_some(
            "the reference kernel and the current gshare disagree on branches or collisions",
        ),
    }
}

fn passes(report: &PassesReport) -> Record {
    let mode = |m: &PassesMeasurement| {
        let o = &m.outcome;
        let mut row = vec![("mode", Json::str(m.label))];
        row.extend(timing(m.timing));
        row.extend([
            ("traversals", int(o.traversals)),
            ("fused_saved", int(o.fused_saved)),
            ("lockstep_saved", int(o.lockstep_saved)),
            ("mispredictions", int(o.mispredictions)),
        ]);
        Json::obj(row)
    };
    let grid = Json::obj([
        ("benchmarks", int(report.benchmarks)),
        ("cells", int(report.cells)),
        ("scheme", Json::str("static_acc")),
        ("seed", int(SEED)),
        ("instructions", int(report.instructions)),
        ("trace_cache", Json::str("disabled")),
    ]);
    Record {
        quick: report.quick,
        reps: report.reps,
        body: vec![
            ("grid", grid),
            ("per_cell", mode(&report.per_cell)),
            ("sweep", mode(&report.sweep)),
            ("results_identical", Json::Bool(report.results_identical())),
            ("speedup", rounded(report.speedup(), 2)),
        ],
        failure: (!report.results_identical())
            .then_some("per_cell and sweep mispredictions differ: the sweep changed results"),
    }
}

fn frontier(report: &FrontierReport) -> Record {
    let cells = report.cells.iter().map(|c| {
        Json::obj([
            ("benchmark", Json::str(c.benchmark.name())),
            ("predictor", Json::str(c.predictor.name())),
            ("scheme", Json::str(&c.scheme)),
            ("misp_per_ki", rounded(c.misp_per_ki, 4)),
            ("hints", int(c.hints)),
            ("destructive_collisions", int(c.destructive_collisions)),
        ])
    });
    // Skipped (predictor, scheme) columns render null, never a number.
    let means = FRONTIER_KINDS.map(|kind| {
        let columns = frontier_schemes().map(|scheme| {
            let mean = report.mean_misp(kind, &scheme.label());
            (scheme.label(), mean.map_or(Json::Null, |m| rounded(m, 4)))
        });
        (kind.name(), Json::obj(columns))
    });
    let grid = Json::obj([
        ("benchmarks", int(report.benchmarks.len())),
        ("cells", int(report.cells.len())),
        ("skipped", int(report.skipped)),
        ("size_bytes", int(COMPARISON_SIZE)),
        ("seed", int(SEED)),
        ("instructions", int(report.instructions)),
    ]);
    Record {
        quick: report.quick,
        reps: 1,
        body: vec![
            ("grid", grid),
            ("cells", Json::Arr(cells.collect())),
            ("mean_misp_per_ki", Json::obj(means)),
        ],
        failure: None,
    }
}

fn families(report: &FamiliesReport) -> Record {
    let rows = report.families.iter().map(|f| {
        let schemes = f.schemes.iter().map(|s| {
            Json::obj([
                ("scheme", Json::str(&s.scheme)),
                ("mispredictions", int(s.mispredictions)),
                ("misp_per_ki", rounded(s.misp_per_ki, 4)),
                (
                    "delta_vs_none_pct",
                    s.delta_vs_none_pct.map_or(Json::Null, |d| rounded(d, 2)),
                ),
            ])
        });
        Json::obj([
            ("family", Json::str(f.family.name())),
            ("benchmarks", int(f.benchmarks)),
            ("cells", int(f.cells)),
            ("branches", int(f.branches)),
            ("schemes", Json::Arr(schemes.collect())),
        ])
    });
    let predictors = FAMILY_PREDICTORS.map(|k| Json::str(k.name()));
    let scheme_labels = schemes().map(|(label, _)| Json::str(label));
    let grid = Json::obj([
        ("cells", int(report.cells)),
        ("size_bytes", int(FAMILY_SIZE)),
        ("predictors", Json::Arr(predictors.into())),
        ("schemes", Json::Arr(scheme_labels.into())),
        ("seed", int(SEED)),
        ("instructions", int(report.instructions)),
    ]);
    let identity = &report.identity;
    let error = identity.error.as_ref().map_or(Json::Null, Json::str);
    let identity_json = Json::obj([
        ("benchmark", Json::str(&identity.benchmark)),
        ("stats_identical", Json::Bool(identity.stats_identical)),
        ("summary_identical", Json::Bool(identity.summary_identical)),
        ("error", error),
    ]);
    Record {
        quick: report.quick,
        reps: 1,
        body: vec![
            ("grid", grid),
            ("families", Json::Arr(rows.collect())),
            ("imported_identity", identity_json),
        ],
        failure: (!identity.passed()).then_some(
            "imported-trace identity check failed: replayed cells must be \
             bit-identical to generator-backed cells",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_bench::families::{FamilyOutcome, IdentityCheck, SchemeOutcome};
    use sdbp_bench::kernel::BASELINE_SIZE;
    use sdbp_bench::passes::GridOutcome;
    use sdbp_workloads::WorkloadFamily;

    /// The schema the record suite `suite` writes.
    fn schema(suite: &str) -> &'static str {
        match words().find(|w| w.name == suite).map(|w| w.run) {
            Some(Run::Record(schema, _)) => schema,
            _ => panic!("{suite} is not a record suite"),
        }
    }

    /// Renders `suite`'s `record` as the file would hold it and parses it
    /// back, checking the envelope on the way.
    fn parsed(record: &Record, suite: &str, reps: i64) -> Json {
        let text = record.document(schema(suite)).render_pretty();
        let doc = Json::parse(&text).expect("a record is valid JSON");
        assert_eq!(at(&doc, &["schema"]).as_str(), Some(schema(suite)));
        assert_eq!(at(&doc, &["quick"]).as_bool(), Some(record.quick));
        assert!(at(&doc, &["cores"]).as_i64().unwrap() >= 1);
        assert_eq!(at(&doc, &["reps"]).as_i64(), Some(reps));
        doc
    }

    /// The member at `path` below `doc`.
    fn at<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
        path.iter().fold(doc, |v, key| {
            v.get(key).unwrap_or_else(|| panic!("no {key} in {v}"))
        })
    }

    fn timing_of(seconds: f64) -> Timing {
        Timing {
            min_s: seconds,
            median_s: seconds,
        }
    }

    fn kernel_report(reference_collisions: u64) -> KernelReport {
        let row = |label: &str, collisions| KernelMeasurement {
            label: label.to_string(),
            size_bytes: BASELINE_SIZE,
            branches: 1000,
            timing: timing_of(0.5),
            collisions,
        };
        KernelReport {
            quick: true,
            reps: 1,
            instructions_per_benchmark: 10,
            events: 1000,
            baseline: row("gshare-reference", reference_collisions),
            kernels: vec![row("gshare", 70)],
            cache_hits: 0,
            cache_misses: 6,
        }
    }

    fn passes_report(sweep_mispredictions: u64) -> PassesReport {
        let mode = |label, mispredictions| PassesMeasurement {
            label,
            timing: timing_of(1.0),
            outcome: GridOutcome {
                mispredictions,
                traversals: 3,
                fused_saved: 0,
                lockstep_saved: 0,
            },
        };
        PassesReport {
            quick: true,
            reps: 1,
            instructions: 10,
            benchmarks: 1,
            cells: 3,
            per_cell: mode("per_cell", 500),
            sweep: mode("sweep", sweep_mispredictions),
        }
    }

    fn families_report(identity: IdentityCheck) -> FamiliesReport {
        FamiliesReport {
            quick: true,
            instructions: 1000,
            cells: 27,
            families: vec![FamilyOutcome {
                family: WorkloadFamily::Server,
                benchmarks: 1,
                cells: 9,
                branches: 5000,
                schemes: vec![
                    SchemeOutcome {
                        scheme: "none".into(),
                        mispredictions: 400,
                        misp_per_ki: 13.1,
                        delta_vs_none_pct: None,
                    },
                    SchemeOutcome {
                        scheme: "static_95".into(),
                        mispredictions: 380,
                        misp_per_ki: 12.4,
                        delta_vs_none_pct: Some(5.0),
                    },
                ],
            }],
            identity,
        }
    }

    fn identity(error: Option<&str>) -> IdentityCheck {
        IdentityCheck {
            benchmark: "gcc".into(),
            stats_identical: error.is_none(),
            summary_identical: error.is_none(),
            error: error.map(str::to_string),
        }
    }

    #[test]
    fn kernel_record_renders_a_quick_run() {
        let report = sdbp_bench::kernel::run(true, |_| {});
        let record = kernel(&report);
        assert_eq!(record.failure, None);
        let doc = parsed(&record, "kernel", 1);
        assert_eq!(schema("kernel"), "sdbp-bench-kernel/v3");
        let events = at(&doc, &["workload", "events"]).as_u64().unwrap();
        assert!(events > 0);
        // One trace per benchmark generated, reused by every measurement.
        let misses = at(&doc, &["cache", "trace_misses"]).as_u64();
        assert_eq!(misses, Some(Benchmark::ALL.len() as u64));
        assert!(at(&doc, &["cache", "trace_hits"]).as_u64().unwrap() > 0);
        let rows: Vec<&Json> = std::iter::once(at(&doc, &["baseline"]))
            .chain(at(&doc, &["kernels"]).as_arr().unwrap())
            .collect();
        for row in &rows {
            assert_eq!(at(row, &["branches"]).as_u64(), Some(events));
            assert!(at(row, &["collisions"]).as_u64().is_some());
            let (min, median) = (at(row, &["min_s"]), at(row, &["median_s"]));
            assert!(matches!((min, median), (Json::Float(a), Json::Float(b)) if a <= b));
            assert!(matches!(at(row, &["branches_per_sec"]), Json::Float(r) if *r > 0.0));
        }
        // The quick comparison set covers the frontier designs too.
        let kinds: Vec<&str> = rows
            .iter()
            .map(|r| at(r, &["predictor"]).as_str().unwrap())
            .collect();
        for kind in ["gshare-reference", "gshare", "perceptron", "tage-lite"] {
            assert!(kinds.contains(&kind), "no {kind} row in {kinds:?}");
        }
        assert!(matches!(at(&doc, &["gshare_speedup_over_baseline"]), Json::Float(s) if *s > 0.0));
    }

    #[test]
    fn passes_record_renders_a_quick_run() {
        let report = sdbp_bench::passes::run(true, |_| {});
        let record = passes(&report);
        assert_eq!(record.failure, None);
        let doc = parsed(&record, "passes", 1);
        assert_eq!(schema("passes"), "sdbp-bench-passes/v4");
        assert_eq!(at(&doc, &["grid", "cells"]).as_u64(), Some(6));
        let count = |mode: &str, key: &str| at(&doc, &[mode, key]).as_u64().unwrap();
        for mode in ["per_cell", "sweep"] {
            assert_eq!(at(&doc, &[mode, "mode"]).as_str(), Some(mode));
            assert!(matches!(at(&doc, &[mode, "min_s"]), Json::Float(_)));
            assert!(matches!(at(&doc, &[mode, "median_s"]), Json::Float(_)));
        }
        assert_eq!(at(&doc, &["results_identical"]).as_bool(), Some(true));
        assert_eq!(
            count("per_cell", "mispredictions"),
            count("sweep", "mispredictions")
        );
        assert!(count("sweep", "traversals") < count("per_cell", "traversals"));
        assert!(count("sweep", "fused_saved") > count("per_cell", "fused_saved"));
        assert!(count("sweep", "lockstep_saved") > 0);
        assert!(matches!(at(&doc, &["speedup"]), Json::Float(s) if *s > 0.0));
    }

    #[test]
    fn frontier_record_renders_null_for_skipped_columns() {
        let report = sdbp_bench::frontier::run_with(&[Benchmark::Compress], 60_000, true, |_| {});
        assert_eq!(report.cells.len(), 24);
        assert_eq!(report.skipped, 1);
        let doc = parsed(&frontier(&report), "frontier", 1);
        assert_eq!(schema("frontier"), "sdbp-bench-frontier/v2");
        assert_eq!(at(&doc, &["grid", "cells"]).as_u64(), Some(24));
        assert_eq!(at(&doc, &["grid", "skipped"]).as_u64(), Some(1));
        let cells = at(&doc, &["cells"]).as_arr().unwrap();
        assert_eq!(cells.len(), 24);
        // Collide selects a nonempty hint set somewhere in the grid.
        assert!(cells
            .iter()
            .any(|c| at(c, &["scheme"]).as_str() == Some("static_collide")
                && at(c, &["hints"]).as_u64() > Some(0)));
        // Every executed (predictor, scheme) column has a mean; the opaque
        // × collide column is null, never a fabricated number.
        let means = at(&doc, &["mean_misp_per_ki"]);
        assert_eq!(means.as_obj().unwrap().len(), FRONTIER_KINDS.len());
        assert!(matches!(
            at(means, &["perceptron", "static_collide"]),
            Json::Float(_)
        ));
        assert!(matches!(
            at(means, &["tage-lite", "static_collide"]),
            Json::Float(_)
        ));
        assert!(matches!(
            at(means, &["bi-mode", "static_collide"]),
            Json::Float(_)
        ));
        assert_eq!(at(means, &["2bcgskew", "static_collide"]), &Json::Null);
        let summary = report.summary();
        assert!(summary.contains("n/a"));
        assert!(summary.contains("perceptron"));
    }

    #[test]
    fn families_record_renders_rows_and_identity() {
        let report = families_report(identity(None));
        let record = families(&report);
        assert_eq!(record.failure, None);
        let doc = parsed(&record, "families", 1);
        assert_eq!(schema("families"), "sdbp-bench-families/v2");
        let row = &at(&doc, &["families"]).as_arr().unwrap()[0];
        assert_eq!(at(row, &["family"]).as_str(), Some("server"));
        let schemes = at(row, &["schemes"]).as_arr().unwrap();
        assert_eq!(at(&schemes[0], &["delta_vs_none_pct"]), &Json::Null);
        assert_eq!(at(&schemes[1], &["delta_vs_none_pct"]), &Json::Float(5.0));
        assert_eq!(at(&schemes[1], &["misp_per_ki"]), &Json::Float(12.4));
        let imported = at(&doc, &["imported_identity"]);
        assert_eq!(at(imported, &["stats_identical"]).as_bool(), Some(true));
        assert_eq!(at(imported, &["error"]), &Json::Null);
        assert!(report.summary().contains("imported identity (gcc)"));
        assert!(report.summary().contains("static_95"));
    }

    #[test]
    fn families_identity_errors_are_escaped() {
        let error = "a\nb\t\"c\"";
        let text = families(&families_report(identity(Some(error))))
            .document(schema("families"))
            .render_pretty();
        // The in-repo parser accepts raw control characters, so check the
        // escaped text itself: RFC 8259 forbids them raw inside a string.
        assert!(text.contains(r#""error": "a\nb\t\"c\"""#), "{text}");
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            at(&doc, &["imported_identity", "error"]).as_str(),
            Some(error)
        );
    }

    #[test]
    fn failed_cross_checks_fail_the_run() {
        assert_eq!(kernel(&kernel_report(70)).failure, None);
        assert!(kernel(&kernel_report(71)).failure.is_some());
        let mut unmatched = kernel_report(70);
        unmatched.kernels[0].size_bytes *= 2;
        assert!(kernel(&unmatched).failure.is_some(), "no row to compare");

        assert_eq!(passes(&passes_report(500)).failure, None);
        assert!(passes(&passes_report(501)).failure.is_some());

        let failed = families(&families_report(identity(Some("admission failed"))));
        assert!(failed.failure.is_some());
    }

    #[test]
    fn checked_in_records_carry_the_current_schema() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = Vec::new();
        for entry in fs::read_dir(&root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let Some(suite) = name
                .strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"))
            else {
                continue;
            };
            // A record no suite writes by default any more fails here too.
            let expected = words()
                .find(|w| w.out == Some(name.as_str()))
                .map(|w| schema(w.name));
            let text = fs::read_to_string(root.join(&name)).unwrap();
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let found = at(&doc, &["schema"]).as_str();
            assert_eq!(found, expected, "{name} needs regenerating");
            seen.push(suite.to_string());
        }
        seen.sort();
        assert_eq!(seen, ["families", "frontier", "kernel", "passes"]);
    }

    /// Every word besides the four record suites.
    const FORMER_BINARIES: [&str; 17] = [
        "ablate_cutoff",
        "ablate_doubling",
        "ablate_mcfarling",
        "ablate_selection",
        "ablate_shift",
        "all_experiments",
        "diag_classes",
        "diag_hist",
        "fig13",
        "fig1_6",
        "fig7_12",
        "headline",
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
    ];

    /// Parses `sdbp bench <name> <options>` the way `sdbp` does.
    fn parse(name: &str, options: &[&str]) -> Result<Args, CliError> {
        let argv = ["bench", name].into_iter().chain(options.iter().copied());
        crate::parse(argv.map(String::from).collect()).map(|(_, _, args)| args)
    }

    #[test]
    fn the_suite_is_a_required_known_word() {
        for suite in ["", "simkernel"] {
            let err = parse(suite, &[]).unwrap_err();
            assert_eq!(err.exit_code(), 2);
            let message = err.to_string();
            assert!(message.contains("kernel|passes|frontier|families"));
            for name in FORMER_BINARIES {
                assert!(message.contains(name), "{name} is not listed: {message}");
            }
        }
        for name in FORMER_BINARIES {
            assert!(words().any(|w| w.name == name), "{name} is not a word");
        }
        let mut names: Vec<&str> = words().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), words().count(), "a word is listed twice");
    }

    #[test]
    fn quick_is_a_usage_error_outside_the_record_suites() {
        for name in FORMER_BINARIES {
            let err = parse(name, &["--quick"]).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{name}: {err}");
            assert!(err.to_string().contains("--quick"), "{name}: {err}");
        }
        for name in ["kernel", "passes", "frontier", "families"] {
            assert!(parse(name, &["--quick"]).unwrap().given("quick"));
        }
    }

    #[test]
    fn words_with_options_reject_bad_values() {
        for (name, option, value) in [
            ("diag_classes", "--benchmark", "gobmk"),
            ("diag_classes", "--predictor", "gshrae"),
            ("diag_classes", "--size", "3000"),
            ("diag_hist", "--benchmark", "gobmk"),
            ("diag_hist", "--size", "3000"),
        ] {
            let args = parse(name, &[option, value]).unwrap();
            let err = run(name, &args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{name} {option} {value}: {err}");
        }
        // diag_hist measures gshare alone.
        assert!(parse("diag_hist", &["--predictor", "bimodal"]).is_err());
    }
}
