//! Admission lints for imported branch traces.
//!
//! `sdbp ingest` runs these before registering an external trace as a
//! benchmark: a file that cannot be opened, decoded, or believed should be
//! rejected at the door, not discovered mid-sweep as a silently short or
//! degenerate cell. The lints work from a [`TraceScan`] — one streaming
//! pass over the whole file — so admission cost is one read, bounded
//! memory.

use crate::codes;
use crate::diag::{Diagnostic, Diagnostics, Span};
use sdbp_trace::{scan_path, TraceError, TraceScan};
use std::path::Path;

/// Conditional-branch densities below this many CBRs/KI are suspicious:
/// fewer than one branch per hundred instructions usually means the trace
/// dropped events or counted non-branch instructions into the gaps.
pub const MIN_PLAUSIBLE_CBRS_PER_KI: f64 = 10.0;
/// Densities above this are physically implausible — more than two
/// conditional branches for every five instructions.
pub const MAX_PLAUSIBLE_CBRS_PER_KI: f64 = 400.0;
/// Outcome-balance checks only fire with at least this many events; below
/// it, an extreme taken rate is indistinguishable from a short sample.
const DEGENERATE_MIN_EVENTS: u64 = 1_000;

/// Lints a trace file on disk for admission.
///
/// Opens and scans the file, then applies [`lint_trace_scan`]. Open-time
/// failures become diagnostics rather than a `Result::Err`, so callers get
/// one uniform report:
///
/// * SDBP070 (error) — the file cannot be read or its header is invalid.
/// * SDBP071 (error) — no importer recognizes the content.
pub fn lint_trace_path(path: &Path) -> Diagnostics {
    let origin = path.display().to_string();
    match scan_path(path) {
        Ok(scan) => lint_trace_scan(&scan, &origin),
        Err(TraceError::UnknownFormat { .. }) => {
            let mut diags = Diagnostics::new();
            diags.push(
                Diagnostic::error(
                    codes::TRACE_FORMAT_UNKNOWN,
                    "no importer recognizes this content",
                )
                .with_span(Span::field(origin, "format"))
                .with_suggestion(
                    "expected an sdbt binary trace, an sdbp text trace, or \
                     `perf script --fields ip,brstack` output",
                ),
            );
            diags
        }
        Err(e) => {
            let mut diags = Diagnostics::new();
            diags.push(
                Diagnostic::error(codes::TRACE_UNREADABLE, format!("cannot scan trace: {e}"))
                    .with_span(Span::field(origin, "file")),
            );
            diags
        }
    }
}

/// Lints a completed [`TraceScan`] for admission.
///
/// Emitted codes:
///
/// * SDBP072 (error) — decoding stopped early: the file is truncated or
///   corrupt past the scanned prefix.
/// * SDBP073 (warning) — the conditional-branch density is outside
///   [`MIN_PLAUSIBLE_CBRS_PER_KI`]..=[`MAX_PLAUSIBLE_CBRS_PER_KI`].
/// * SDBP074 (warning) — the outcomes carry no signal: no events, a single
///   static site, or a taken rate pinned at 0 or 1.
/// * SDBP075 (note) — the admission summary (always emitted): event and
///   instruction counts, density, taken rate, sites, and content digest.
pub fn lint_trace_scan(scan: &TraceScan, origin: &str) -> Diagnostics {
    let mut diags = Diagnostics::new();

    if let Some(error) = &scan.error {
        diags.push(
            Diagnostic::error(
                codes::TRACE_MALFORMED,
                format!("decoding stopped after {} events: {error}", scan.events),
            )
            .with_span(Span::field(origin, "events"))
            .with_note("statistics below describe only the valid prefix")
            .with_suggestion("re-export the trace; partial files must not be admitted"),
        );
    }

    let density = scan.cbrs_per_ki();
    if scan.events > 0
        && !(MIN_PLAUSIBLE_CBRS_PER_KI..=MAX_PLAUSIBLE_CBRS_PER_KI).contains(&density)
    {
        let (comparison, cause) = if density < MIN_PLAUSIBLE_CBRS_PER_KI {
            (
                format!("below the plausible floor of {MIN_PLAUSIBLE_CBRS_PER_KI}"),
                "dropped events or inflated instruction gaps",
            )
        } else {
            (
                format!("above the plausible ceiling of {MAX_PLAUSIBLE_CBRS_PER_KI}"),
                "gaps that omit the non-branch instructions between events",
            )
        };
        diags.push(
            Diagnostic::warning(
                codes::TRACE_IMPLAUSIBLE_DENSITY,
                format!("{density:.1} conditional branches per 1000 instructions is {comparison}"),
            )
            .with_span(Span::field(origin, "gap"))
            .with_note(format!("this usually indicates {cause}")),
        );
    }

    let degenerate = if scan.events == 0 {
        Some("the trace contains no branch events".to_string())
    } else if scan.distinct_sites == 1 {
        Some(format!(
            "all {} events come from a single static branch",
            scan.events
        ))
    } else if scan.events >= DEGENERATE_MIN_EVENTS && (scan.taken == 0 || scan.taken == scan.events)
    {
        let direction = if scan.taken == 0 {
            "not-taken"
        } else {
            "taken"
        };
        Some(format!(
            "every one of {} events is {direction}",
            scan.events
        ))
    } else {
        None
    };
    if let Some(message) = degenerate {
        diags.push(
            Diagnostic::warning(codes::TRACE_DEGENERATE_OUTCOMES, message)
                .with_span(Span::field(origin, "outcomes"))
                .with_note(
                    "a stream with no outcome signal cannot exercise a predictor; \
                     check the exporter's branch filter",
                ),
        );
    }

    diags.push(
        Diagnostic::note(
            codes::TRACE_SUMMARY,
            format!(
                "{} ({}): {} events over {} instructions, {:.1} CBRs/KI, \
                 taken rate {:.3}, {} sites, digest {:016x}",
                scan.name,
                scan.format.name(),
                scan.events,
                scan.total_instructions,
                density,
                scan.taken_rate(),
                scan.distinct_sites,
                scan.digest,
            ),
        )
        .with_span(Span::field(origin, "summary")),
    );
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::{write_binary, BranchAddr, BranchEvent, TraceBuilder, TraceFormat};

    fn scan(events: u64, instructions: u64, taken: u64, sites: u64) -> TraceScan {
        TraceScan {
            format: TraceFormat::SdbtBinary,
            name: "sample".into(),
            events,
            total_instructions: instructions,
            taken,
            distinct_sites: sites,
            digest: 0xfeed,
            error: None,
        }
    }

    #[test]
    fn healthy_scans_lint_to_a_single_summary_note() {
        let diags = lint_trace_scan(&scan(10_000, 80_000, 5_500, 420), "t.sdbt");
        assert!(diags.is_clean(), "{}", diags.render_text());
        assert_eq!(diags.notes(), 1);
        let rendered = diags.render_text();
        assert!(rendered.contains("SDBP075"), "{rendered}");
        assert!(rendered.contains("125.0 CBRs/KI"), "{rendered}");
        assert!(rendered.contains("digest 000000000000feed"), "{rendered}");
    }

    #[test]
    fn decode_errors_are_admission_errors() {
        let mut s = scan(500, 4_000, 250, 40);
        s.error = Some("truncated event stream: expected 600 events, found 500".into());
        let diags = lint_trace_scan(&s, "t.sdbt");
        assert_eq!(diags.errors(), 1);
        let rendered = diags.render_text();
        assert!(rendered.contains("SDBP072"), "{rendered}");
        assert!(rendered.contains("after 500 events"), "{rendered}");
    }

    #[test]
    fn implausible_densities_warn_in_both_directions() {
        // 1000 events over 1_000_000 instructions: 1 CBR/KI, far too sparse.
        let sparse = lint_trace_scan(&scan(1_000, 1_000_000, 500, 50), "t.sdbt");
        assert_eq!(sparse.warnings(), 1);
        assert!(sparse.render_text().contains("SDBP073"));
        assert!(sparse.render_text().contains("floor"));

        // 10_000 events over 10_000 instructions: 1000 CBRs/KI, impossible.
        let dense = lint_trace_scan(&scan(10_000, 10_000, 5_000, 50), "t.sdbt");
        assert_eq!(dense.warnings(), 1);
        assert!(dense.render_text().contains("ceiling"));
    }

    #[test]
    fn degenerate_outcome_streams_warn() {
        let empty = lint_trace_scan(&scan(0, 0, 0, 0), "t.sdbt");
        assert_eq!(empty.warnings(), 1);
        assert!(empty.render_text().contains("no branch events"));

        let one_site = lint_trace_scan(&scan(5_000, 40_000, 2_500, 1), "t.sdbt");
        assert!(one_site.render_text().contains("single static branch"));

        let all_taken = lint_trace_scan(&scan(5_000, 40_000, 5_000, 60), "t.sdbt");
        assert!(all_taken
            .render_text()
            .contains("every one of 5000 events is taken"));

        // Short streams are exempt from the balance check (but not the
        // single-site check): 10 taken events could be a legitimate sample.
        let short = lint_trace_scan(&scan(10, 80, 10, 5), "t.sdbt");
        assert!(short.is_clean(), "{}", short.render_text());
    }

    #[test]
    fn unreadable_and_unknown_files_become_diagnostics() {
        let missing = lint_trace_path(Path::new("/nonexistent/trace.sdbt"));
        assert_eq!(missing.errors(), 1);
        assert!(missing.render_text().contains("SDBP070"));

        let dir = tempdir();
        let alien = dir.join("alien.bin");
        std::fs::write(&alien, [0u8, 159, 146, 150, 7, 7, 7, 7]).unwrap();
        let unknown = lint_trace_path(&alien);
        assert_eq!(unknown.errors(), 1);
        let rendered = unknown.render_text();
        assert!(rendered.contains("SDBP071"), "{rendered}");
        assert!(rendered.contains("perf script"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_files_round_trip_through_the_path_lint() {
        let mut b = TraceBuilder::named("li.train");
        for i in 0..2_000u64 {
            b.push(BranchEvent::new(
                BranchAddr(0x4000 + (i % 64) * 16),
                i % 3 != 0,
                6,
            ));
        }
        let trace = b.finish();
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &trace).unwrap();

        let dir = tempdir();
        let path = dir.join("li.sdbt");
        std::fs::write(&path, &bytes).unwrap();
        let clean = lint_trace_path(&path);
        assert!(clean.is_clean(), "{}", clean.render_text());
        assert!(clean.render_text().contains("li.train"));

        // Chop the file mid-stream: the path lint must surface SDBP072.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let torn = lint_trace_path(&path);
        assert_eq!(torn.errors(), 1);
        assert!(
            torn.render_text().contains("SDBP072"),
            "{}",
            torn.render_text()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_binary_gaps_are_admission_errors() {
        // An sdbt header promising one event, then a record whose gap is
        // 2^32: it must not wrap to gap 0 and be admitted.
        let mut bytes = b"SDBT\x01\x00\x00\x01\x01".to_vec();
        bytes.extend_from_slice(&[0x80, 0x40]); // pc delta 0x1000, zig-zagged
        bytes.extend_from_slice(&[0x81, 0x80, 0x80, 0x80, 0x20]); // gap 2^32, taken
        let dir = tempdir();
        let path = dir.join("wide.sdbt");
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_path(&path).unwrap();
        assert_eq!(scan.events, 0);
        let error = scan.error.as_deref().expect("the record is rejected");
        assert!(error.contains("gap of 4294967296"), "{error}");
        let diags = lint_trace_scan(&scan, "wide.sdbt");
        assert_eq!(diags.errors(), 1);
        assert!(
            diags.render_text().contains("SDBP072"),
            "{}",
            diags.render_text()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sdbp-check-trace-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
