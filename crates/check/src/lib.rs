//! Static analysis and coded diagnostics for experiment configurations.
//!
//! A rustc-style checking engine that validates everything an experiment
//! depends on *before* simulation: specs, hint databases, profiles, and the
//! predictor's aliasing behavior. Every finding carries a stable code
//! (`SDBP001`…), a severity, a span naming its origin, and — where a fix is
//! mechanical — a suggestion. Findings render as rustc-like text or as
//! JSON ([`Diagnostics::render_text`] / [`Diagnostics::to_json`]).
//!
//! The layers:
//!
//! * [`diag`] — the diagnostic core: [`Code`], [`Severity`], [`Span`],
//!   [`Diagnostic`], [`Diagnostics`].
//! * [`codes`] — the stable code registry (`docs/diagnostics.md` catalogs
//!   the same table).
//! * [`spec`] — spec-file parsing and semantic spec lints.
//! * [`hints`] — hint-database consistency and profile cross-checks.
//! * [`profile`] — profile metadata, parse, and stability lints.
//! * [`aliasing`] — the static destructive-aliasing analyzer: evaluates the
//!   predictor's index function over profiled branches and ranks predicted
//!   interference hotspots, cross-checked against simulator measurements.
//! * [`index_analysis`] — the exact GF(2) index-function analysis: proves
//!   collision classes, dead history bits, rank deficiencies, and
//!   all-history aliasing pairs for predictors with affine index functions.
//! * [`trace`] — admission lints for imported branch traces, run by
//!   `sdbp ingest` before an external file becomes a benchmark.
//!
//! The run-blocking spec rules live in one place,
//! [`ExperimentSpec::validate`]: `Lab` and `Sweep` reject what it rejects,
//! and [`lint_spec`] reports each of its problems as an SDBP007–SDBP009
//! error. The warnings and notes here are for `sdbp check`; no runner
//! enforces them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aliasing;
pub mod codes;
pub mod diag;
pub mod hints;
pub mod index_analysis;
pub mod manifest;
pub mod profile;
pub mod spec;
pub mod trace;

pub use aliasing::lint_aliasing;
pub use codes::{lookup, CodeInfo, REGISTRY};
pub use diag::{Code, Diagnostic, Diagnostics, Severity, Span};
pub use hints::{lint_hints_against_profile, parse_hints_text};
pub use index_analysis::{lint_facts, lint_index_analysis};
pub use manifest::lint_manifest_text;
pub use profile::{lint_profile_against_spec, parse_profile_text, ProfileMetadata};
pub use spec::{lint_spec, parse_spec_text, SPEC_KEYS};
pub use trace::{lint_trace_path, lint_trace_scan};

use sdbp_core::ExperimentSpec;

/// Checks a spec strictly: clean (or note-only) specs pass; errors *and
/// warnings* reject, with the rendered diagnostics as the reason.
///
/// The fixed grids the harness runs (the paper suite, the frontier) are
/// pinned clean under it by tests, so a warning about one of their cells
/// fails the build instead of wasting a long unattended run.
///
/// # Errors
///
/// The rendered diagnostic text of every finding.
pub fn preflight(spec: &ExperimentSpec) -> Result<(), String> {
    let diags = lint_spec(spec, "<spec>");
    if diags.is_clean() {
        Ok(())
    } else {
        Err(diags.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::{PredictorConfig, PredictorKind};
    use sdbp_profiles::SelectionScheme;
    use sdbp_workloads::Benchmark;

    fn spec(scheme: SelectionScheme) -> ExperimentSpec {
        ExperimentSpec::self_trained(
            Benchmark::Compress,
            PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap(),
            scheme,
        )
        .with_instructions(300_000)
    }

    #[test]
    fn preflight_passes_clean_specs_and_rejects_bad_ones() {
        assert!(preflight(&spec(SelectionScheme::None)).is_ok());
        assert!(preflight(&spec(SelectionScheme::static_95())).is_ok());
        let reason = preflight(&spec(SelectionScheme::Bias { cutoff: 2.0 })).unwrap_err();
        assert!(reason.contains("SDBP007"), "{reason}");
    }

    #[test]
    fn preflight_tolerates_note_only_findings() {
        // The perceptron at 8 KB cannot realize its budget exactly — a
        // note, and notes must not reject the paper's own suite
        // configurations.
        let s = ExperimentSpec::self_trained(
            Benchmark::Compress,
            PredictorConfig::new(PredictorKind::Perceptron, 8192).unwrap(),
            SelectionScheme::None,
        )
        .with_instructions(300_000);
        assert!(preflight(&s).is_ok());
    }
}
