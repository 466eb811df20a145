//! The stable diagnostic-code registry.
//!
//! Every lint the crate can emit is declared here once, with its default
//! severity and a one-line summary. `docs/diagnostics.md` catalogs the same
//! codes with examples and fixes; a test asserts the two stay in sync.

use crate::diag::{Code, Severity};

/// SDBP001: the predictor name is not a known scheme.
pub const UNKNOWN_PREDICTOR: Code = Code(1);
/// SDBP002: the table size is not a power of two.
pub const SIZE_NOT_POWER_OF_TWO: Code = Code(2);
/// SDBP003: the table size is below the scheme's minimum.
pub const SIZE_BELOW_MINIMUM: Code = Code(3);
/// SDBP004: the configured byte budget is not exactly realizable.
pub const BUDGET_NOT_REALIZABLE: Code = Code(4);
/// SDBP005: the history length is outside `1..=index_bits`.
pub const HISTORY_LENGTH_INVALID: Code = Code(5);
/// SDBP006: a history length was given for a history-free scheme.
pub const HISTORY_ON_HISTORY_FREE: Code = Code(6);
/// SDBP007: a selection-scheme parameter is out of range.
pub const SCHEME_PARAMETER_OUT_OF_RANGE: Code = Code(7);
/// SDBP008: an instruction budget is zero.
pub const ZERO_INSTRUCTION_BUDGET: Code = Code(8);
/// SDBP009: warm-up consumes the whole measurement budget.
pub const WARMUP_EXCEEDS_BUDGET: Code = Code(9);
/// SDBP010: the profiling budget is dwarfed by the measurement budget.
pub const PROFILE_BUDGET_DWARFED: Code = Code(10);
/// SDBP011: history shifting is configured on a history-free predictor.
pub const SHIFT_POLICY_INEFFECTIVE: Code = Code(11);
/// SDBP012: the selection-scheme name is not recognized.
pub const UNKNOWN_SCHEME: Code = Code(12);
/// SDBP013: the benchmark name is not recognized.
pub const UNKNOWN_BENCHMARK: Code = Code(13);
/// SDBP014: a field value failed to parse.
pub const MALFORMED_FIELD_VALUE: Code = Code(14);
/// SDBP015: a spec key is not recognized.
pub const UNKNOWN_SPEC_FIELD: Code = Code(15);

/// SDBP020: the same hint appears twice.
pub const DUPLICATE_HINT: Code = Code(20);
/// SDBP021: two hints for one branch disagree on direction.
pub const CONFLICTING_HINT: Code = Code(21);
/// SDBP022: a hint targets a branch the profile never observed.
pub const STALE_HINT: Code = Code(22);
/// SDBP023: a hint contradicts the profiled majority direction.
pub const HINT_CONTRADICTS_PROFILE: Code = Code(23);
/// SDBP024: a strongly biased, hot profiled branch has no hint.
pub const HINT_COVERAGE_GAP: Code = Code(24);
/// SDBP025: a hint line failed to parse.
pub const HINT_PARSE_ERROR: Code = Code(25);

/// SDBP030: the profile's benchmark metadata contradicts the spec.
pub const PROFILE_BENCHMARK_MISMATCH: Code = Code(30);
/// SDBP031: the profile's seed metadata contradicts the spec.
pub const PROFILE_SEED_MISMATCH: Code = Code(31);
/// SDBP032: the profile's instruction-budget metadata contradicts the spec.
pub const PROFILE_BUDGET_MISMATCH: Code = Code(32);
/// SDBP033: the profile contains no branches.
pub const EMPTY_PROFILE: Code = Code(33);
/// SDBP034: branches moved bias between the database's runs.
pub const UNSTABLE_PROFILE_SITES: Code = Code(34);
/// SDBP035: a profile line failed to parse.
pub const PROFILE_PARSE_ERROR: Code = Code(35);

/// SDBP040: a predicted destructive-aliasing hotspot.
pub const ALIASING_HOTSPOT: Code = Code(40);
/// SDBP041: the scheme does not expose its index function.
pub const ALIASING_OPAQUE_SCHEME: Code = Code(41);
/// SDBP042: static_collide selected for an analysis-opaque predictor.
pub const COLLIDE_ON_OPAQUE_PREDICTOR: Code = Code(42);

/// SDBP050: a manifest line failed to parse.
pub const MANIFEST_PARSE_ERROR: Code = Code(50);
/// SDBP051: a manifest record disagrees with this build's schema.
pub const MANIFEST_SCHEMA_MISMATCH: Code = Code(51);
/// SDBP052: the same cell index appears in more than one record.
pub const MANIFEST_DUPLICATE_CELL: Code = Code(52);
/// SDBP053: a cell's latest record is a failure.
pub const MANIFEST_CELL_FAILED: Code = Code(53);
/// SDBP054: the manifest ends in a torn (partially written) line.
pub const MANIFEST_TORN_TAIL: Code = Code(54);

/// SDBP060: a table's guaranteed-collision PC classes (kernel of `A`).
pub const GUARANTEED_COLLISION_CLASSES: Code = Code(60);
/// SDBP061: history bits that provably never reach any table index.
pub const DEAD_HISTORY_BITS: Code = Code(61);
/// SDBP062: a table whose index function cannot reach all its entries.
pub const RANK_DEFICIENT_TABLE: Code = Code(62);
/// SDBP063: two profiled branches proven to collide at every history.
pub const PROVEN_ALIASING_PAIR: Code = Code(63);
/// SDBP064: the exact GF(2) analysis does not apply to this scheme.
pub const INDEX_ANALYSIS_UNAVAILABLE: Code = Code(64);

/// SDBP070: an imported trace file cannot be read or its header is invalid.
pub const TRACE_UNREADABLE: Code = Code(70);
/// SDBP071: no importer recognizes the trace file's content.
pub const TRACE_FORMAT_UNKNOWN: Code = Code(71);
/// SDBP072: trace decoding stopped early (truncation or corruption).
pub const TRACE_MALFORMED: Code = Code(72);
/// SDBP073: the trace's conditional-branch density is implausible.
pub const TRACE_IMPLAUSIBLE_DENSITY: Code = Code(73);
/// SDBP074: the trace's outcomes carry no signal.
pub const TRACE_DEGENERATE_OUTCOMES: Code = Code(74);
/// SDBP075: the admission summary for an imported trace.
pub const TRACE_SUMMARY: Code = Code(75);

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct CodeInfo {
    /// The stable code.
    pub code: Code,
    /// Kebab-case lint name.
    pub name: &'static str,
    /// Default severity when emitted.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every code the crate can emit, in numeric order.
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: UNKNOWN_PREDICTOR,
        name: "unknown-predictor",
        severity: Severity::Error,
        summary: "the predictor name is not a known scheme",
    },
    CodeInfo {
        code: SIZE_NOT_POWER_OF_TWO,
        name: "size-not-power-of-two",
        severity: Severity::Error,
        summary: "the table size in bytes is not a power of two",
    },
    CodeInfo {
        code: SIZE_BELOW_MINIMUM,
        name: "size-below-minimum",
        severity: Severity::Error,
        summary: "the table size is below the scheme's minimum",
    },
    CodeInfo {
        code: BUDGET_NOT_REALIZABLE,
        name: "budget-not-realizable",
        severity: Severity::Note,
        summary: "the built predictor's size differs from the byte budget",
    },
    CodeInfo {
        code: HISTORY_LENGTH_INVALID,
        name: "history-length-invalid",
        severity: Severity::Error,
        summary: "the history length is outside 1..=index_bits of the table",
    },
    CodeInfo {
        code: HISTORY_ON_HISTORY_FREE,
        name: "history-on-history-free",
        severity: Severity::Warning,
        summary: "a history length was configured for a scheme that keeps no usable global history",
    },
    CodeInfo {
        code: SCHEME_PARAMETER_OUT_OF_RANGE,
        name: "scheme-parameter-out-of-range",
        severity: Severity::Error,
        summary: "a selection-scheme parameter is outside its meaningful range",
    },
    CodeInfo {
        code: ZERO_INSTRUCTION_BUDGET,
        name: "zero-instruction-budget",
        severity: Severity::Error,
        summary: "a profiling or measurement instruction budget is zero",
    },
    CodeInfo {
        code: WARMUP_EXCEEDS_BUDGET,
        name: "warmup-exceeds-budget",
        severity: Severity::Error,
        summary: "the warm-up window consumes the whole measurement budget",
    },
    CodeInfo {
        code: PROFILE_BUDGET_DWARFED,
        name: "profile-budget-dwarfed",
        severity: Severity::Warning,
        summary: "the profiling budget is less than 2% of the measurement budget",
    },
    CodeInfo {
        code: SHIFT_POLICY_INEFFECTIVE,
        name: "shift-policy-ineffective",
        severity: Severity::Warning,
        summary: "history shifting is configured on a predictor without global history",
    },
    CodeInfo {
        code: UNKNOWN_SCHEME,
        name: "unknown-scheme",
        severity: Severity::Error,
        summary: "the selection-scheme name is not recognized",
    },
    CodeInfo {
        code: UNKNOWN_BENCHMARK,
        name: "unknown-benchmark",
        severity: Severity::Error,
        summary: "the benchmark name is not recognized",
    },
    CodeInfo {
        code: MALFORMED_FIELD_VALUE,
        name: "malformed-field-value",
        severity: Severity::Error,
        summary: "a spec field value failed to parse",
    },
    CodeInfo {
        code: UNKNOWN_SPEC_FIELD,
        name: "unknown-spec-field",
        severity: Severity::Warning,
        summary: "a spec key is not recognized and was ignored",
    },
    CodeInfo {
        code: DUPLICATE_HINT,
        name: "duplicate-hint",
        severity: Severity::Warning,
        summary: "the same branch hint appears more than once",
    },
    CodeInfo {
        code: CONFLICTING_HINT,
        name: "conflicting-hint",
        severity: Severity::Error,
        summary: "two hints for one branch disagree on direction",
    },
    CodeInfo {
        code: STALE_HINT,
        name: "stale-hint",
        severity: Severity::Warning,
        summary: "a hint targets a branch the paired profile never observed",
    },
    CodeInfo {
        code: HINT_CONTRADICTS_PROFILE,
        name: "hint-contradicts-profile",
        severity: Severity::Warning,
        summary: "a hint direction contradicts the profiled majority direction",
    },
    CodeInfo {
        code: HINT_COVERAGE_GAP,
        name: "hint-coverage-gap",
        severity: Severity::Note,
        summary: "a strongly biased, frequently executed branch has no hint decision",
    },
    CodeInfo {
        code: HINT_PARSE_ERROR,
        name: "hint-parse-error",
        severity: Severity::Error,
        summary: "a hint line failed to parse",
    },
    CodeInfo {
        code: PROFILE_BENCHMARK_MISMATCH,
        name: "profile-benchmark-mismatch",
        severity: Severity::Error,
        summary: "the profile was collected on a different benchmark than the spec uses",
    },
    CodeInfo {
        code: PROFILE_SEED_MISMATCH,
        name: "profile-seed-mismatch",
        severity: Severity::Warning,
        summary: "the profile was collected under a different seed than the spec uses",
    },
    CodeInfo {
        code: PROFILE_BUDGET_MISMATCH,
        name: "profile-budget-mismatch",
        severity: Severity::Warning,
        summary: "the profile was collected under a different instruction budget than the spec",
    },
    CodeInfo {
        code: EMPTY_PROFILE,
        name: "empty-profile",
        severity: Severity::Warning,
        summary: "the profile contains no branches",
    },
    CodeInfo {
        code: UNSTABLE_PROFILE_SITES,
        name: "unstable-profile-sites",
        severity: Severity::Warning,
        summary: "branches changed bias between the database's runs",
    },
    CodeInfo {
        code: PROFILE_PARSE_ERROR,
        name: "profile-parse-error",
        severity: Severity::Error,
        summary: "a profile line failed to parse",
    },
    CodeInfo {
        code: ALIASING_HOTSPOT,
        name: "aliasing-hotspot",
        severity: Severity::Note,
        summary: "static analysis predicts this branch is a destructive-aliasing hotspot",
    },
    CodeInfo {
        code: ALIASING_OPAQUE_SCHEME,
        name: "aliasing-opaque-scheme",
        severity: Severity::Note,
        summary: "the scheme does not expose its index function to static analysis",
    },
    CodeInfo {
        code: COLLIDE_ON_OPAQUE_PREDICTOR,
        name: "collide-on-opaque-predictor",
        severity: Severity::Warning,
        summary: "static_collide was requested for a predictor opaque to static analysis",
    },
    CodeInfo {
        code: MANIFEST_PARSE_ERROR,
        name: "manifest-parse-error",
        severity: Severity::Error,
        summary: "a run-manifest line failed to parse",
    },
    CodeInfo {
        code: MANIFEST_SCHEMA_MISMATCH,
        name: "manifest-schema-mismatch",
        severity: Severity::Error,
        summary:
            "a run-manifest record names a benchmark, predictor, or scheme this build does not know",
    },
    CodeInfo {
        code: MANIFEST_DUPLICATE_CELL,
        name: "manifest-duplicate-cell",
        severity: Severity::Warning,
        summary: "the same cell index appears in more than one manifest record",
    },
    CodeInfo {
        code: MANIFEST_CELL_FAILED,
        name: "manifest-cell-failed",
        severity: Severity::Warning,
        summary: "a cell's latest manifest record is a failure",
    },
    CodeInfo {
        code: MANIFEST_TORN_TAIL,
        name: "manifest-torn-tail",
        severity: Severity::Note,
        summary: "the manifest ends in a torn, partially written line (interrupted run)",
    },
    CodeInfo {
        code: GUARANTEED_COLLISION_CLASSES,
        name: "guaranteed-collision-classes",
        severity: Severity::Note,
        summary: "PC classes proven to share one table entry at every history",
    },
    CodeInfo {
        code: DEAD_HISTORY_BITS,
        name: "dead-history-bits",
        severity: Severity::Note,
        summary: "history register bits that provably never reach any table index",
    },
    CodeInfo {
        code: RANK_DEFICIENT_TABLE,
        name: "rank-deficient-table",
        severity: Severity::Note,
        summary: "a table whose index function provably cannot reach all its entries",
    },
    CodeInfo {
        code: PROVEN_ALIASING_PAIR,
        name: "proven-aliasing-pair",
        severity: Severity::Note,
        summary: "two opposing profiled branches proven to collide at every history",
    },
    CodeInfo {
        code: INDEX_ANALYSIS_UNAVAILABLE,
        name: "index-analysis-unavailable",
        severity: Severity::Note,
        summary: "the scheme's index function is not affine, so the exact analysis does not apply",
    },
    CodeInfo {
        code: TRACE_UNREADABLE,
        name: "trace-unreadable",
        severity: Severity::Error,
        summary: "an imported trace file cannot be read or its header is invalid",
    },
    CodeInfo {
        code: TRACE_FORMAT_UNKNOWN,
        name: "trace-format-unknown",
        severity: Severity::Error,
        summary: "no importer recognizes the trace file's content",
    },
    CodeInfo {
        code: TRACE_MALFORMED,
        name: "trace-malformed",
        severity: Severity::Error,
        summary: "trace decoding stopped early: the file is truncated or corrupt",
    },
    CodeInfo {
        code: TRACE_IMPLAUSIBLE_DENSITY,
        name: "trace-implausible-density",
        severity: Severity::Warning,
        summary: "the trace's conditional-branch density is outside the plausible range",
    },
    CodeInfo {
        code: TRACE_DEGENERATE_OUTCOMES,
        name: "trace-degenerate-outcomes",
        severity: Severity::Warning,
        summary: "the trace's outcomes carry no signal (empty, single-site, or one-direction)",
    },
    CodeInfo {
        code: TRACE_SUMMARY,
        name: "trace-summary",
        severity: Severity::Note,
        summary: "the admission summary of an imported trace's scanned statistics",
    },
];

/// Looks up a code's registry entry.
pub fn lookup(code: Code) -> Option<&'static CodeInfo> {
    REGISTRY.iter().find(|info| info.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in REGISTRY.windows(2) {
            assert!(
                pair[0].code < pair[1].code,
                "{} must precede {}",
                pair[0].code,
                pair[1].code
            );
        }
    }

    #[test]
    fn lookup_finds_every_code() {
        for info in REGISTRY {
            let found = lookup(info.code).unwrap();
            assert_eq!(found.name, info.name);
        }
        assert!(lookup(Code(999)).is_none());
    }

    #[test]
    fn docs_catalog_every_code() {
        let doc = include_str!("../../../docs/diagnostics.md");
        for info in REGISTRY {
            let code = format!("{}", info.code);
            assert!(doc.contains(&code), "docs/diagnostics.md is missing {code}");
            assert!(
                doc.contains(info.name),
                "docs/diagnostics.md is missing the name of {code} ({})",
                info.name
            );
        }
    }

    #[test]
    fn names_are_kebab_case() {
        for info in REGISTRY {
            assert!(
                info.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{}",
                info.name
            );
        }
    }
}
