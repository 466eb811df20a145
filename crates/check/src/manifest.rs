//! Lints for sweep run manifests (`manifest.jsonl`).
//!
//! A durable grid run leaves behind an append-only manifest of finished
//! cells (see `sdbp-core`'s manifest module). These lints answer the
//! questions an operator has before trusting or resuming one: does every
//! line parse, do the records match this build's schema, did any cell fail,
//! and was the writing run interrupted mid-line?

use crate::codes;
use crate::diag::{Diagnostic, Diagnostics, Span};
use sdbp_artifacts::Json;
use sdbp_core::{ExperimentError, ManifestEntry};
use std::collections::HashMap;

/// Lints the text of a `manifest.jsonl` file.
///
/// Emitted codes:
///
/// * SDBP050 (error) — a line is not valid JSON (other than a torn tail).
/// * SDBP051 (error) — a line is valid JSON but not a record this build
///   understands: missing fields, or unknown benchmark/predictor names.
/// * SDBP052 (warning) — a cell index appears more than once; the later
///   record supersedes the earlier one on resume.
/// * SDBP053 (warning) — a cell's latest record is an error outcome.
/// * SDBP054 (note) — the final line is torn: the writing run was killed
///   mid-append. A resumed sweep drops the torn line and re-runs its cell.
pub fn lint_manifest_text(text: &str, origin: &str) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    let last_no = lines.last().map(|(no, _)| *no);

    // Latest record per cell index, with the line it came from.
    let mut latest: HashMap<usize, (usize, ManifestEntry)> = HashMap::new();
    for (no, line) in &lines {
        match ManifestEntry::parse_line(line, *no) {
            Ok(entry) => {
                if let Some((first_no, _)) = latest.get(&entry.cell) {
                    diags.push(
                        Diagnostic::warning(
                            codes::MANIFEST_DUPLICATE_CELL,
                            format!(
                                "cell {} already recorded at line {first_no}; \
                                 this record supersedes it",
                                entry.cell
                            ),
                        )
                        .with_span(Span::line(origin, "cell", *no)),
                    );
                }
                latest.insert(entry.cell, (*no, entry));
            }
            Err(e) => {
                if Json::parse(line).is_ok() {
                    // Structurally sound JSON that this build cannot read
                    // back: schema drift, not file damage.
                    diags.push(
                        Diagnostic::error(codes::MANIFEST_SCHEMA_MISMATCH, e.message)
                            .with_span(Span::line(origin, "record", *no))
                            .with_note(
                                "the manifest was likely written by a different \
                                 build of this workspace",
                            ),
                    );
                } else if Some(*no) == last_no {
                    diags.push(
                        Diagnostic::note(
                            codes::MANIFEST_TORN_TAIL,
                            "the final line is torn (the writing run was killed mid-append)",
                        )
                        .with_span(Span::line(origin, "record", *no))
                        .with_suggestion(
                            "resume with `sdbp grid --store <dir> --resume`; \
                             the torn line is dropped and its cell re-runs",
                        ),
                    );
                } else {
                    diags.push(
                        Diagnostic::error(codes::MANIFEST_PARSE_ERROR, e.message)
                            .with_span(Span::line(origin, "record", *no)),
                    );
                }
            }
        }
    }

    let mut failed: Vec<&(usize, ManifestEntry)> = latest
        .values()
        .filter(|(_, e)| e.outcome.is_err())
        .collect();
    failed.sort_by_key(|(no, _)| *no);
    for (no, entry) in failed {
        let err = entry.outcome.as_ref().unwrap_err();
        let (what, how) = match err {
            ExperimentError::Skipped { .. } => (
                "was never executed",
                "resume the run to execute the remaining cells",
            ),
            _ => ("failed", "fix the cause and re-run without --resume"),
        };
        diags.push(
            Diagnostic::warning(
                codes::MANIFEST_CELL_FAILED,
                format!("cell {} {what}: {err}", entry.cell),
            )
            .with_span(Span::line(origin, "status", *no))
            .with_suggestion(how),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_artifacts::Digest;
    use sdbp_core::ExperimentError;

    fn entry(cell: usize, outcome: Result<(), &str>) -> String {
        let outcome = match outcome {
            Ok(()) => {
                let report = concat!(
                    r#""status":"ok","report":{"benchmark":"gcc","predictor":"gshare","#,
                    r#""size_bytes":8192,"scheme":"none","shift":"no-shift","input":"ref","#,
                    r#""hints":0,"instructions":1000,"branches":100,"mispredictions":5,"#,
                    r#""static_predicted":0,"static_mispredictions":0,"collisions":3,"#,
                    r#""constructive":1,"destructive":2}"#
                );
                report.to_string()
            }
            Err(reason) => {
                format!(r#""status":"error","error":{{"kind":"rejected","message":"{reason}"}}"#)
            }
        };
        format!(r#"{{"cell":{cell},"spec":"{}",{outcome}}}"#, Digest([1, 2]))
    }

    #[test]
    fn clean_manifests_lint_clean() {
        let text = format!("{}\n{}\n", entry(0, Ok(())), entry(1, Ok(())));
        let diags = lint_manifest_text(&text, "m.jsonl");
        assert!(diags.is_clean(), "{}", diags.render_text());
    }

    #[test]
    fn torn_tails_note_but_midfile_damage_errors() {
        let torn = format!("{}\n{{\"cell\":1,\"spe", entry(0, Ok(())));
        let diags = lint_manifest_text(&torn, "m.jsonl");
        assert_eq!((diags.errors(), diags.notes()), (0, 1));

        let damaged = format!("{{\"cell\":1,\"spe\n{}\n", entry(0, Ok(())));
        let diags = lint_manifest_text(&damaged, "m.jsonl");
        assert_eq!(diags.errors(), 1);
        assert!(diags.render_text().contains("SDBP050"));
    }

    #[test]
    fn schema_drift_is_distinguished_from_damage() {
        let alien = r#"{"cell":0,"spec":"not-a-digest","status":"ok"}"#;
        let diags = lint_manifest_text(alien, "m.jsonl");
        assert!(diags.render_text().contains("SDBP051"));
        assert_eq!(diags.errors(), 1);
    }

    #[test]
    fn duplicate_and_failed_cells_warn() {
        let text = format!(
            "{}\n{}\n{}\n",
            entry(0, Ok(())),
            entry(0, Ok(())),
            entry(1, Err("spec rejected by preflight"))
        );
        let diags = lint_manifest_text(&text, "m.jsonl");
        assert_eq!(diags.errors(), 0);
        assert_eq!(diags.warnings(), 2);
        let rendered = diags.render_text();
        assert!(rendered.contains("SDBP052"), "{rendered}");
        assert!(rendered.contains("SDBP053"), "{rendered}");
    }

    #[test]
    fn skipped_cells_read_as_unexecuted() {
        let skipped = ManifestEntry {
            cell: 3,
            spec_digest: Digest([9, 9]),
            outcome: Err(ExperimentError::Skipped {
                reason: "cell cap of 3 reached before this cell".into(),
            }),
        };
        let diags = lint_manifest_text(&skipped.to_line(), "m.jsonl");
        assert_eq!(diags.warnings(), 1);
        assert!(diags.render_text().contains("never executed"));
    }
}
