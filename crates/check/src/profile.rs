//! Profile lints: metadata cross-checks.
//!
//! Profiles written by `sdbp profile` carry their provenance as `# key
//! value` header comments ([`BiasProfile::from_text`] skips comments, so
//! the header costs nothing downstream). [`parse_profile_text`] recovers
//! that metadata and re-parses the data lines with per-line diagnostics;
//! [`lint_profile_against_spec`] compares the metadata with the spec that
//! wants to consume the profile.

use crate::codes;
use crate::diag::{Diagnostic, Diagnostics, Span};
use sdbp_core::ExperimentSpec;
use sdbp_profiles::BiasProfile;

/// Provenance metadata recovered from a profile's header comments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileMetadata {
    /// `# benchmark <name>`.
    pub benchmark: Option<String>,
    /// `# input <train|ref>`.
    pub input: Option<String>,
    /// `# seed <n>`.
    pub seed: Option<u64>,
    /// `# instructions <n>`.
    pub instructions: Option<u64>,
}

impl ProfileMetadata {
    /// Renders the known fields as the `# key value` header lines
    /// [`parse_profile_text`] reads back — the header `sdbp profile` writes.
    pub fn header(&self) -> String {
        let mut out = String::new();
        let fields = [
            ("benchmark", self.benchmark.clone()),
            ("input", self.input.clone()),
            ("seed", self.seed.map(|n| n.to_string())),
            ("instructions", self.instructions.map(|n| n.to_string())),
        ];
        for (key, value) in fields {
            if let Some(value) = value {
                out.push_str(&format!("# {key} {value}\n"));
            }
        }
        out
    }
}

/// Parses a profile file: header metadata plus `"<hex pc> <executed>
/// <taken>"` data lines.
///
/// Data lines go through [`BiasProfile::parse_line`], the loader's own
/// grammar. Unlike [`BiasProfile::from_text`], which stops at the first bad
/// line, every malformed line is reported (SDBP035, naming the bad field)
/// and the well-formed remainder is still returned. An empty profile is
/// SDBP033.
pub fn parse_profile_text(text: &str, origin: &str) -> (BiasProfile, ProfileMetadata, Diagnostics) {
    let mut diags = Diagnostics::new();
    let mut profile = BiasProfile::new();
    let mut metadata = ProfileMetadata::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if let Some(comment) = line.strip_prefix('#') {
            if let Some((key, value)) = comment.trim().split_once(char::is_whitespace) {
                let value = value.trim();
                match key {
                    "benchmark" => metadata.benchmark = Some(value.to_string()),
                    "input" => metadata.input = Some(value.to_string()),
                    "seed" => metadata.seed = value.parse().ok(),
                    "instructions" => metadata.instructions = value.parse().ok(),
                    _ => {}
                }
            }
            continue;
        }
        match BiasProfile::parse_line(line) {
            Some(Ok((pc, stats))) => profile.insert(pc, stats),
            Some(Err(e)) => diags.push(
                Diagnostic::error(
                    codes::PROFILE_PARSE_ERROR,
                    format!("malformed profile line '{line}': {e}"),
                )
                .with_span(Span::line(origin, "profile", line_no))
                .with_note("expected '<hex pc> <executed> <taken>'"),
            ),
            None => {}
        }
    }
    if profile.is_empty() {
        diags.push(
            Diagnostic::warning(codes::EMPTY_PROFILE, "profile contains no branches")
                .with_span(Span::field(origin, "profile"))
                .with_suggestion("re-profile with a non-zero instruction budget"),
        );
    }
    (profile, metadata, diags)
}

/// Cross-checks a profile's provenance against the spec consuming it:
/// SDBP030 (benchmark mismatch — an error, the hints would describe a
/// different program), SDBP031 (seed mismatch), SDBP032 (budget mismatch).
///
/// Missing metadata is not reported; pre-header profiles stay usable.
pub fn lint_profile_against_spec(
    metadata: &ProfileMetadata,
    spec: &ExperimentSpec,
    origin: &str,
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    if let Some(benchmark) = &metadata.benchmark {
        if benchmark != spec.benchmark.name() {
            diags.push(
                Diagnostic::error(
                    codes::PROFILE_BENCHMARK_MISMATCH,
                    format!(
                        "profile was collected on {benchmark}, but the spec runs {}",
                        spec.benchmark.name()
                    ),
                )
                .with_span(Span::field(origin, "benchmark"))
                .with_note("hints from another program's branches are meaningless"),
            );
        }
    }
    if let Some(seed) = metadata.seed {
        if seed != spec.seed {
            diags.push(
                Diagnostic::warning(
                    codes::PROFILE_SEED_MISMATCH,
                    format!(
                        "profile was collected under seed {seed}, but the spec uses seed {}",
                        spec.seed
                    ),
                )
                .with_span(Span::field(origin, "seed"))
                .with_note("branch addresses differ across seeds; most hints will be stale"),
            );
        }
    }
    if let Some(instructions) = metadata.instructions {
        let expected = spec.profile_budget();
        if instructions != expected {
            diags.push(
                Diagnostic::warning(
                    codes::PROFILE_BUDGET_MISMATCH,
                    format!(
                        "profile covers {instructions} instructions, but the spec \
                         profiles {expected}"
                    ),
                )
                .with_span(Span::field(origin, "instructions")),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::{PredictorConfig, PredictorKind};
    use sdbp_profiles::SelectionScheme;
    use sdbp_workloads::Benchmark;

    fn codes_of(diags: &Diagnostics) -> Vec<u16> {
        diags.iter().map(|d| d.code.0).collect()
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::self_trained(
            Benchmark::Compress,
            PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap(),
            SelectionScheme::None,
        )
        .with_instructions(300_000)
    }

    #[test]
    fn parses_header_and_data() {
        let text = "\
# benchmark compress
# input ref
# seed 2000
# instructions 300000
100 1000 990
104 50 0
";
        let (profile, metadata, diags) = parse_profile_text(text, "<t>");
        assert!(diags.is_empty(), "{}", diags.render_text());
        assert_eq!(profile.len(), 2);
        assert_eq!(metadata.benchmark.as_deref(), Some("compress"));
        assert_eq!(metadata.input.as_deref(), Some("ref"));
        assert_eq!(metadata.seed, Some(2000));
        assert_eq!(metadata.instructions, Some(300_000));
        // The renderer writes exactly the header the parser read, and
        // leaves out the fields it does not know.
        assert_eq!(metadata.header(), text.split("100 ").next().unwrap());
        let partial = ProfileMetadata {
            seed: Some(7),
            ..ProfileMetadata::default()
        };
        assert_eq!(partial.header(), "# seed 7\n");
        assert_eq!(ProfileMetadata::default().header(), "");
    }

    #[test]
    fn malformed_lines_are_sdbp035_and_do_not_stop_the_parse() {
        let (profile, _, diags) = parse_profile_text("100 1000 990\nzzz\n104 10 20\n", "<t>");
        assert_eq!(codes_of(&diags), [35, 35]);
        assert_eq!(profile.len(), 1, "good lines survive");
        let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "malformed profile line 'zzz': bad pc",
                "malformed profile line '104 10 20': taken count 20 exceeds executed count 10",
            ]
        );
    }

    #[test]
    fn empty_profile_is_sdbp033() {
        let (_, _, diags) = parse_profile_text("# benchmark gcc\n", "<t>");
        assert_eq!(codes_of(&diags), [33]);
        assert!(!diags.has_errors());
    }

    #[test]
    fn metadata_mismatches_cross_check_against_the_spec() {
        let metadata = ProfileMetadata {
            benchmark: Some("gcc".to_string()),
            input: Some("ref".to_string()),
            seed: Some(1),
            instructions: Some(42),
        };
        let diags = lint_profile_against_spec(&metadata, &spec(), "<t>");
        assert_eq!(codes_of(&diags), [30, 31, 32]);
        assert_eq!(diags.errors(), 1, "only the benchmark mismatch is fatal");
    }

    #[test]
    fn matching_or_absent_metadata_is_clean() {
        let matching = ProfileMetadata {
            benchmark: Some("compress".to_string()),
            input: Some("ref".to_string()),
            seed: Some(2000),
            instructions: Some(300_000),
        };
        assert!(lint_profile_against_spec(&matching, &spec(), "<t>").is_empty());
        assert!(lint_profile_against_spec(&ProfileMetadata::default(), &spec(), "<t>").is_empty());
    }
}
