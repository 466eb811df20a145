//! `sdbp bench <suite>` and the `BENCH_<suite>.json` record format.
//!
//! This module is the only code that knows the record format. Every record
//! opens with one envelope — `schema`, `quick`, `cores` and `reps` — and
//! continues with the suite's own fields. Timings are `min_s` and `median_s`
//! over the repetitions, and rates derive from `min_s`. Floats are rounded
//! to the precision the suite has always printed, so a rerun changes only
//! what it measured.

use crate::args::Args;
use crate::error::CliError;
use sdbp_artifacts::Json;
use sdbp_bench::families::{schemes, FamiliesReport, FAMILY_PREDICTORS, FAMILY_SIZE};
use sdbp_bench::frontier::{frontier_schemes, FrontierReport, FRONTIER_KINDS};
use sdbp_bench::kernel::{KernelMeasurement, KernelReport};
use sdbp_bench::passes::{PassesMeasurement, PassesReport};
use sdbp_bench::{Timing, COMPARISON_SIZE, SEED};
use sdbp_workloads::Benchmark;
use std::fs;

/// Every suite, with the schema its record carries.
const SUITES: [(&str, &str); 4] = [
    ("kernel", "sdbp-bench-kernel/v3"),
    ("passes", "sdbp-bench-passes/v4"),
    ("frontier", "sdbp-bench-frontier/v2"),
    ("families", "sdbp-bench-families/v2"),
];

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

/// `sdbp bench <suite>` — run one harness suite, print its summary, and
/// write its record to `--out` (default `BENCH_<suite>.json`). The record
/// is written even when the suite's own cross-check fails; the command then
/// exits non-zero.
pub fn run(suite: &str, args: &Args) -> Result<(), CliError> {
    let Some(&(suite, schema)) = SUITES.iter().find(|(name, _)| *name == suite) else {
        let names = SUITES.map(|(name, _)| name).join("|");
        return Err(CliError::Usage(format!(
            "bench needs a suite ({names}), got '{suite}'"
        )));
    };
    let quick = args.has_flag("quick");
    let out = args
        .get("out")
        .map_or_else(|| format!("BENCH_{suite}.json"), str::to_string);
    eprintln!(
        "running the {suite} suite ({} mode)...",
        if quick { "quick" } else { "full" }
    );
    let (summary, record) = match suite {
        "kernel" => {
            let report = sdbp_bench::kernel::run(quick, |m| eprintln!("{m}"));
            (report.summary(), kernel(&report))
        }
        "passes" => {
            let report = sdbp_bench::passes::run(quick, |m| eprintln!("{m}"));
            (report.summary(), passes(&report))
        }
        "frontier" => {
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
        }
        _ => {
            let report = sdbp_bench::families::run(quick, |f| eprintln!("{f}"));
            (report.summary(), families(&report))
        }
    };
    print!("{summary}");
    let text = record.document(schema).render_pretty() + "\n";
    fs::write(&out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    match record.failure {
        Some(why) => Err(CliError::Failure(why.to_string())),
        None => Ok(()),
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

    /// The schema `suite`'s record carries.
    fn schema(suite: &str) -> &'static str {
        SUITES.iter().find(|(s, _)| *s == suite).unwrap().1
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
        assert_eq!(report.cells.len(), 23);
        assert_eq!(report.skipped, 2);
        let doc = parsed(&frontier(&report), "frontier", 1);
        assert_eq!(schema("frontier"), "sdbp-bench-frontier/v2");
        assert_eq!(at(&doc, &["grid", "cells"]).as_u64(), Some(23));
        assert_eq!(at(&doc, &["grid", "skipped"]).as_u64(), Some(2));
        let cells = at(&doc, &["cells"]).as_arr().unwrap();
        assert_eq!(cells.len(), 23);
        // Collide selects a nonempty hint set somewhere in the grid.
        assert!(cells
            .iter()
            .any(|c| at(c, &["scheme"]).as_str() == Some("static_collide")
                && at(c, &["hints"]).as_u64() > Some(0)));
        // Every executed (predictor, scheme) column has a mean; the opaque
        // × collide columns are null, never a fabricated number.
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
        assert_eq!(at(means, &["bi-mode", "static_collide"]), &Json::Null);
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
            // A record no suite writes any more fails here too.
            let expected = SUITES.iter().find(|(s, _)| *s == suite).map(|(_, s)| *s);
            let text = fs::read_to_string(root.join(&name)).unwrap();
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let found = at(&doc, &["schema"]).as_str();
            assert_eq!(found, expected, "{name} needs regenerating");
            seen.push(suite.to_string());
        }
        seen.sort();
        assert_eq!(seen, ["families", "frontier", "kernel", "passes"]);
    }

    #[test]
    fn the_suite_is_a_required_known_word() {
        let args = Args::default();
        for suite in ["", "simkernel"] {
            let err = run(suite, &args).unwrap_err();
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains("kernel|passes|frontier|families"));
        }
    }
}
