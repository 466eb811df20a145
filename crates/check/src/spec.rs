//! Spec-level lints: parsing and validating experiment descriptions.
//!
//! Two entry points:
//!
//! * [`parse_spec_fields`] parses `key value` fields — a spec file's lines
//!   ([`parse_spec_text`]) or any `sdbp` command's spec options — into an
//!   [`ExperimentSpec`], emitting coded diagnostics for unknown names,
//!   malformed values, and impossible predictor configurations — with
//!   did-you-mean suggestions.
//! * [`lint_spec`] checks an already-constructed spec for semantic problems.
//!   Its errors are [`ExperimentSpec::validate`]'s problems — out-of-range
//!   scheme parameters, zero budgets, warm-up swallowing the run — the rules
//!   every runner enforces. Its warnings and notes are its own: profiling
//!   starvation, `static_collide` on an opaque predictor, ineffective shift
//!   policies, and byte budgets the scheme cannot realize exactly.

use crate::codes;
use crate::diag::{Diagnostic, Diagnostics, Span};
use sdbp_core::{ExperimentSpec, ProfileSource, ShiftPolicy, SpecProblem};
use sdbp_predictors::{DynamicPredictor, PredictorConfig, PredictorKind};
use sdbp_profiles::{SelectionScheme, SCHEME_NAMES};
use sdbp_workloads::{Benchmark, InputSet};

/// The keys [`parse_spec_fields`] understands.
pub const SPEC_KEYS: &[&str] = &[
    "benchmark",
    "predictor",
    "size",
    "scheme",
    "shift",
    "training",
    "input",
    "seed",
    "instructions",
    "profile_instructions",
    "measure_instructions",
    "warmup",
];

/// Edit distance between two ASCII strings (classic two-row Levenshtein).
fn edit_distance(a: &str, b: &str) -> usize {
    let b_len = b.chars().count();
    let mut prev: Vec<usize> = (0..=b_len).collect();
    let mut cur = vec![0usize; b_len + 1];
    for (i, ca) in a.chars().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.chars().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b_len]
}

/// The closest candidate to `input`, if any is close enough to be a
/// plausible typo (distance ≤ ⌈len/3⌉, minimum 2), option names included.
pub fn closest<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let lower = input.to_ascii_lowercase();
    let budget = (lower.len().div_ceil(3)).max(2);
    candidates
        .iter()
        .map(|c| (edit_distance(&lower, c), *c))
        .filter(|(d, _)| *d <= budget)
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

fn suggest(diag: Diagnostic, input: &str, candidates: &[&str]) -> Diagnostic {
    match closest(input, candidates) {
        Some(c) => diag.with_suggestion(format!("did you mean '{c}'?")),
        None => diag,
    }
}

const SHIFT_NAMES: &[&str] = &["no-shift", "shift"];
const TRAINING_NAMES: &[&str] = &["self", "cross", "merged", "cross-merged"];
const INPUT_NAMES: &[&str] = &["train", "ref"];

/// Parses the `key value` spec-file format through [`parse_spec_fields`].
///
/// Lines are `key value` pairs; blank lines and `#` comments are skipped.
/// Diagnostics name the line a field came from.
pub fn parse_spec_text(text: &str, origin: &str) -> (Option<ExperimentSpec>, Diagnostics) {
    let lines = text.lines().map(str::trim).zip(1..);
    let fields = lines.filter(|(line, _)| !line.is_empty() && !line.starts_with('#'));
    let fields = fields.map(|(line, n)| {
        let (key, value) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        (key, value.trim(), Some(n))
    });
    parse_spec_fields(fields, origin)
}

/// Parses spec fields given as `(key, value, line)`, `line` being the
/// spec-file line a field came from (`None` for a command-line option).
///
/// Fields apply in order, so a later one wins. Unset keys take the defaults
/// (gcc, ref, seed 2000, gshare, 8192 bytes, scheme none, self-training, no
/// shift, no warm-up, workload-default budgets). `origin` names the source
/// in diagnostic spans. A spec is still constructed from whatever parsed
/// unless the predictor configuration itself is unusable (`None` then).
pub fn parse_spec_fields<'a>(
    fields: impl IntoIterator<Item = (&'a str, &'a str, Option<usize>)>,
    origin: &str,
) -> (Option<ExperimentSpec>, Diagnostics) {
    let mut diags = Diagnostics::new();
    let mut benchmark = Benchmark::Gcc;
    let mut kind = PredictorKind::Gshare;
    let mut kind_set: Option<usize> = None;
    let mut size: usize = 8192;
    let mut size_set: Option<usize> = None;
    let mut scheme = SelectionScheme::None;
    let mut shift = ShiftPolicy::NoShift;
    let mut training = ProfileSource::SelfTrained;
    let mut input = InputSet::Ref;
    let mut seed: u64 = 2000;
    let mut profile_instructions: Option<u64> = None;
    let mut measure_instructions: Option<u64> = None;
    let mut warmup: u64 = 0;
    let mut config_unusable = false;

    for (key, value, line) in fields {
        let span = |field: &str| match line {
            Some(n) => Span::line(origin, field, n),
            None => Span::field(origin, field),
        };
        let malformed = |field: &str, what: &str| {
            Diagnostic::error(
                codes::MALFORMED_FIELD_VALUE,
                format!("invalid {field} value '{value}': expected {what}"),
            )
            .with_span(span(field))
        };
        match key {
            "benchmark" => match value.parse::<Benchmark>() {
                Ok(b) => benchmark = b,
                Err(_) => {
                    let names = Benchmark::SYNTHETIC.map(Benchmark::name);
                    diags.push(suggest(
                        Diagnostic::error(
                            codes::UNKNOWN_BENCHMARK,
                            format!("unknown benchmark '{value}'"),
                        )
                        .with_span(span("benchmark"))
                        .with_note(format!("known benchmarks: {}", names.join(", "))),
                        value,
                        &names,
                    ))
                }
            },
            "predictor" => match value.parse::<PredictorKind>() {
                Ok(k) => {
                    kind = k;
                    kind_set = line;
                }
                Err(_) => {
                    config_unusable = true;
                    let names = PredictorKind::ALL.map(PredictorKind::name);
                    diags.push(suggest(
                        Diagnostic::error(
                            codes::UNKNOWN_PREDICTOR,
                            format!("unknown predictor '{value}'"),
                        )
                        .with_span(span("predictor"))
                        .with_note(format!("known predictors: {}", names.join(", "))),
                        value,
                        &names,
                    ));
                }
            },
            // Size and scheme go through the shared parsers of
            // sdbp-predictors and sdbp-profiles.
            "size" => match sdbp_predictors::parse_size_bytes(value) {
                Ok(s) => {
                    size = s;
                    size_set = line;
                }
                Err(_) => diags.push(malformed("size", "a size in bytes")),
            },
            "scheme" => match value.parse::<SelectionScheme>() {
                Ok(s) => scheme = s,
                Err(_) => {
                    // `static_<pct>` is a pattern, not a name to suggest.
                    let names: Vec<&str> = SCHEME_NAMES
                        .split(", ")
                        .filter(|n| !n.contains('<'))
                        .collect();
                    diags.push(suggest(
                        Diagnostic::error(
                            codes::UNKNOWN_SCHEME,
                            format!("unknown selection scheme '{value}'"),
                        )
                        .with_span(span("scheme"))
                        .with_note(format!("expected one of {SCHEME_NAMES}")),
                        value,
                        &names,
                    ))
                }
            },
            "shift" => match value.parse::<ShiftPolicy>() {
                Ok(s) => shift = s,
                Err(_) => diags.push(suggest(
                    malformed("shift", "shift or no-shift"),
                    value,
                    SHIFT_NAMES,
                )),
            },
            "training" => match value.parse::<ProfileSource>() {
                Ok(t) => training = t,
                Err(_) => diags.push(suggest(
                    malformed("training", "self, cross, merged, or cross-merged"),
                    value,
                    TRAINING_NAMES,
                )),
            },
            "input" => match value.parse::<InputSet>() {
                Ok(i) => input = i,
                Err(_) => diags.push(suggest(
                    malformed("input", "train or ref"),
                    value,
                    INPUT_NAMES,
                )),
            },
            "seed" => match value.parse::<u64>() {
                Ok(s) => seed = s,
                Err(_) => diags.push(malformed("seed", "an unsigned integer")),
            },
            "instructions" => match value.parse::<u64>() {
                Ok(n) => {
                    profile_instructions = Some(n);
                    measure_instructions = Some(n);
                }
                Err(_) => diags.push(malformed("instructions", "an unsigned integer")),
            },
            "profile_instructions" => match value.parse::<u64>() {
                Ok(n) => profile_instructions = Some(n),
                Err(_) => diags.push(malformed("profile_instructions", "an unsigned integer")),
            },
            "measure_instructions" => match value.parse::<u64>() {
                Ok(n) => measure_instructions = Some(n),
                Err(_) => diags.push(malformed("measure_instructions", "an unsigned integer")),
            },
            "warmup" => match value.parse::<u64>() {
                Ok(n) => warmup = n,
                Err(_) => diags.push(malformed("warmup", "an unsigned integer")),
            },
            other => diags.push(suggest(
                Diagnostic::warning(
                    codes::UNKNOWN_SPEC_FIELD,
                    format!("unknown spec field '{other}' ignored"),
                )
                .with_span(span(other)),
                other,
                SPEC_KEYS,
            )),
        }
    }

    let config = match PredictorConfig::new(kind, size) {
        Ok(config) => Some(config),
        Err(_) => {
            let line = size_set.or(kind_set);
            let span = match line {
                Some(n) => Span::line(origin, "size", n),
                None => Span::field(origin, "size"),
            };
            if !size.is_power_of_two() {
                let fix = size.max(1).next_power_of_two();
                diags.push(
                    Diagnostic::error(
                        codes::SIZE_NOT_POWER_OF_TWO,
                        format!("table size {size} bytes is not a power of two"),
                    )
                    .with_span(span)
                    .with_suggestion(format!("round up to {fix} bytes"))
                    .with_note(
                        "counter tables are indexed by bit masks, so budgets \
                         must be powers of two",
                    ),
                );
            } else {
                // Power of two but below the scheme's minimum.
                let min = (1..=64)
                    .map(|b| 1usize << b)
                    .find(|s| PredictorConfig::new(kind, *s).is_ok())
                    .unwrap_or(16);
                diags.push(
                    Diagnostic::error(
                        codes::SIZE_BELOW_MINIMUM,
                        format!("table size {size} bytes is below {kind}'s minimum of {min}"),
                    )
                    .with_span(span)
                    .with_suggestion(format!("use at least {min} bytes")),
                );
            }
            None
        }
    };

    let spec = config.filter(|_| !config_unusable).map(|config| {
        let mut spec = ExperimentSpec::self_trained(benchmark, config, scheme)
            .with_shift(shift)
            .with_profile(training)
            .with_measure_input(input)
            .with_seed(seed)
            .with_warmup(warmup);
        spec.profile_instructions = profile_instructions;
        spec.measure_instructions = measure_instructions;
        spec
    });
    (spec, diags)
}

/// Renders one [`ExperimentSpec::validate`] problem as its coded error:
/// SDBP008 for a zero budget, SDBP009 for the warm-up, SDBP007 for a scheme
/// or training parameter (the training problem is spanned as `training`,
/// its spec-file key).
fn problem_diagnostic(spec: &ExperimentSpec, problem: &SpecProblem, origin: &str) -> Diagnostic {
    let (code, field) = match problem.field {
        "profile_instructions" | "measure_instructions" => {
            (codes::ZERO_INSTRUCTION_BUDGET, problem.field)
        }
        "warmup_instructions" => (codes::WARMUP_EXCEEDS_BUDGET, problem.field),
        "profile" => (codes::SCHEME_PARAMETER_OUT_OF_RANGE, "training"),
        _ => (codes::SCHEME_PARAMETER_OUT_OF_RANGE, problem.field),
    };
    let diag =
        Diagnostic::error(code, problem.message.clone()).with_span(Span::field(origin, field));
    match field {
        "warmup_instructions" => {
            diag.with_suggestion("reduce warmup or raise measure_instructions")
        }
        "scheme" if matches!(spec.scheme, SelectionScheme::Bias { .. }) => {
            diag.with_note("the paper's Static_95 uses a cutoff of 0.95")
        }
        "training" => diag.with_note("the paper's Spike-style merge uses 0.05"),
        _ => diag,
    }
}

/// Lints a constructed spec.
pub fn lint_spec(spec: &ExperimentSpec, origin: &str) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let span = |field: &'static str| Span::field(origin, field);

    // SDBP007/008/009: the run-blocking rules every runner applies, one
    // error per problem. Fields are emitted in groups so the report keeps
    // its budget → SDBP010 → scheme → SDBP042 → training order.
    let problems = spec.validate().err().unwrap_or_default();
    let reject = |fields: &[&str], diags: &mut Diagnostics| {
        for problem in problems.iter().filter(|p| fields.contains(&p.field)) {
            diags.push(problem_diagnostic(spec, problem, origin));
        }
    };
    reject(
        &[
            "profile_instructions",
            "measure_instructions",
            "warmup_instructions",
        ],
        &mut diags,
    );

    // SDBP010: profiling starvation. Hints selected from a profile that
    // covers a sliver of the measured run generalize poorly (the paper's
    // cross-training problem in miniature, but self-inflicted).
    let measure = spec.measure_budget();
    let profile = spec.profile_budget();
    if spec.scheme != SelectionScheme::None
        && profile > 0
        && measure > 0
        && profile.saturating_mul(50) < measure
    {
        diags.push(
            Diagnostic::warning(
                codes::PROFILE_BUDGET_DWARFED,
                format!(
                    "profiling budget of {profile} instructions is under 2% of the \
                     measurement budget of {measure}"
                ),
            )
            .with_span(span("profile_instructions"))
            .with_suggestion("profile at least a few percent of the measured run"),
        );
    }

    reject(&["scheme"], &mut diags);
    // SDBP042: Static_Collide needs the predictor's index function.
    if spec.scheme.needs_interference_ranking() {
        let capability = spec.predictor.index_capability();
        if !capability.is_analyzable() {
            diags.push(
                Diagnostic::warning(
                    codes::COLLIDE_ON_OPAQUE_PREDICTOR,
                    format!(
                        "static_collide cannot rank interference on {}: its index \
                         function is {capability} to static analysis",
                        spec.predictor.kind()
                    ),
                )
                .with_span(span("scheme"))
                .with_suggestion(format!(
                    "use an analyzable predictor ({}), or select with static_col \
                     from a measured accuracy profile",
                    analyzable_predictors(spec.predictor.size_bytes()).join(", ")
                )),
            );
        }
    }
    reject(&["profile"], &mut diags);

    // SDBP011: shifting history into a predictor that keeps none.
    if spec.shift == ShiftPolicy::Shift && !spec.predictor.kind().uses_global_history() {
        diags.push(
            Diagnostic::warning(
                codes::SHIFT_POLICY_INEFFECTIVE,
                format!(
                    "shift policy has no effect: {} keeps no global history register",
                    spec.predictor.kind()
                ),
            )
            .with_span(span("shift"))
            .with_suggestion("use no-shift, or a global-history predictor"),
        );
    }

    // SDBP004 needs the built predictor. Only agree comes out larger than
    // its budget: its bias bits sit on top of the counters.
    let built = spec.predictor.build_any();
    let (realized, configured) = (built.size_bytes(), spec.predictor.size_bytes());
    if realized != configured {
        let why = if realized > configured {
            "its per-branch bias bits sit on top of the counter budget"
        } else {
            "bank split rounds down to powers of two"
        };
        diags.push(
            Diagnostic::note(
                codes::BUDGET_NOT_REALIZABLE,
                format!(
                    "{} realizes {realized} of the {configured} configured bytes ({why})",
                    spec.predictor.kind()
                ),
            )
            .with_span(span("size")),
        );
    }
    diags
}

/// The predictors some static index analysis applies to at `size_bytes`
/// (SDBP042's suggestion), in [`PredictorKind::ALL`] order.
fn analyzable_predictors(size_bytes: usize) -> Vec<&'static str> {
    PredictorKind::ALL
        .into_iter()
        .filter(|&kind| {
            PredictorConfig::new(kind, size_bytes)
                .is_ok_and(|config| config.index_capability().is_analyzable())
        })
        .map(PredictorKind::name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn codes_of(diags: &Diagnostics) -> Vec<u16> {
        diags.iter().map(|d| d.code.0).collect()
    }

    fn paper_spec() -> ExperimentSpec {
        ExperimentSpec::self_trained(
            Benchmark::Compress,
            PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap(),
            SelectionScheme::static_95(),
        )
        .with_instructions(300_000)
    }

    #[test]
    fn clean_spec_produces_no_diagnostics() {
        let diags = lint_spec(&paper_spec(), "<test>");
        assert!(diags.is_clean(), "{}", diags.render_text());
        assert!(diags.is_empty());
    }

    #[test]
    fn parses_a_full_spec_file() {
        let text = "\
# paper configuration
benchmark compress
predictor gshare
size 1024
scheme static_95
shift shift
training cross
input ref
seed 7
instructions 300000
warmup 1000
";
        let (spec, diags) = parse_spec_text(text, "<test>");
        assert!(diags.is_empty(), "{}", diags.render_text());
        let spec = spec.unwrap();
        assert_eq!(spec.benchmark, Benchmark::Compress);
        assert_eq!(spec.predictor.kind(), PredictorKind::Gshare);
        assert_eq!(spec.predictor.size_bytes(), 1024);
        assert_eq!(spec.scheme, SelectionScheme::static_95());
        assert_eq!(spec.shift, ShiftPolicy::Shift);
        assert_eq!(spec.profile, ProfileSource::CrossTrained);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.measure_instructions, Some(300_000));
        assert_eq!(spec.warmup_instructions, 1000);
    }

    #[test]
    fn defaults_mirror_the_cli() {
        // `sdbp` commands parse their options here too, so these are the
        // CLI's defaults as well.
        let (spec, diags) = parse_spec_text("", "<args>");
        assert!(diags.is_empty());
        let spec = spec.unwrap();
        assert_eq!(spec.benchmark, Benchmark::Gcc);
        assert_eq!(spec.predictor.kind(), PredictorKind::Gshare);
        assert_eq!(spec.predictor.size_bytes(), 8192);
        assert_eq!(spec.scheme, SelectionScheme::None);
        assert_eq!(spec.seed, 2000);
        assert_eq!(spec.measure_instructions, None, "the workload's budget");
    }

    #[test]
    fn option_fields_span_their_key_without_a_line() {
        let fields = [("benchmark", "compres", None), ("size", "3000", None)];
        let (spec, diags) = parse_spec_fields(fields, "<args>");
        assert!(spec.is_none());
        assert_eq!(codes_of(&diags), [13, 2]);
        let spans: Vec<String> = diags
            .iter()
            .map(|d| d.span.as_ref().unwrap().to_string())
            .collect();
        assert_eq!(spans, ["<args> (benchmark)", "<args> (size)"]);
        assert_eq!(
            diags.iter().next().unwrap().suggestion.as_deref(),
            Some("did you mean 'compress'?")
        );
    }

    #[test]
    fn a_later_field_wins() {
        let fields = [
            ("instructions", "1000", None),
            ("profile_instructions", "500", None),
            ("seed", "1", None),
            ("seed", "7", None),
        ];
        let spec = parse_spec_fields(fields, "<args>").0.unwrap();
        assert_eq!(spec.profile_instructions, Some(500));
        assert_eq!(spec.measure_instructions, Some(1000));
        assert_eq!(spec.seed, 7);
    }

    #[test]
    fn non_power_of_two_size_is_sdbp002_with_fix() {
        let (spec, diags) = parse_spec_text("size 3000\n", "<test>");
        assert!(spec.is_none());
        assert_eq!(codes_of(&diags), [2]);
        let d = diags.iter().next().unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.suggestion.as_deref(), Some("round up to 4096 bytes"));
        assert_eq!(d.span.as_ref().unwrap().line, Some(1));
    }

    #[test]
    fn undersized_hybrid_is_sdbp003() {
        let (spec, diags) = parse_spec_text("predictor tournament\nsize 8\n", "<test>");
        assert!(spec.is_none());
        assert_eq!(codes_of(&diags), [3]);
        assert!(
            diags
                .iter()
                .next()
                .unwrap()
                .message
                .contains("minimum of 16"),
            "{}",
            diags.render_text()
        );
    }

    #[test]
    fn both_spellings_of_merged_training_parse_cleanly() {
        for spelling in ["merged", "cross-merged"] {
            let (spec, diags) = parse_spec_text(&format!("training {spelling}\n"), "<test>");
            assert!(diags.is_empty(), "{spelling}: {}", diags.render_text());
            assert_eq!(
                spec.unwrap().profile,
                ProfileSource::MergedCrossTrained {
                    max_bias_change: 0.05
                },
                "{spelling}"
            );
        }
    }

    #[test]
    fn benchmark_suggestions_cover_every_synthetic_benchmark() {
        // `server_wev` is 1 edit from server_web and 3 from server_db, so
        // the suggestion does not depend on list order.
        let (_, diags) = parse_spec_text("benchmark server_wev\n", "<test>");
        assert_eq!(codes_of(&diags), [13]);
        let d = diags.iter().next().unwrap();
        assert_eq!(d.suggestion.as_deref(), Some("did you mean 'server_web'?"));
        for b in Benchmark::SYNTHETIC {
            assert!(d.notes[0].contains(b.name()), "{b} missing: {}", d.notes[0]);
        }
    }

    #[test]
    fn unknown_names_get_suggestions() {
        let (_, diags) = parse_spec_text(
            "benchmark compres\npredictor gshar\nscheme statik_95\n",
            "<test>",
        );
        assert_eq!(codes_of(&diags), [13, 1, 12]);
        let suggestions: Vec<&str> = diags
            .iter()
            .map(|d| d.suggestion.as_deref().unwrap())
            .collect();
        assert_eq!(
            suggestions,
            [
                "did you mean 'compress'?",
                "did you mean 'gshare'?",
                "did you mean 'static_95'?"
            ]
        );
    }

    #[test]
    fn unknown_key_is_a_warning_not_an_error() {
        let (spec, diags) = parse_spec_text("benchmork gcc\n", "<test>");
        assert!(spec.is_some(), "spec still constructed");
        assert_eq!(codes_of(&diags), [15]);
        assert!(!diags.has_errors());
        assert_eq!(
            diags.iter().next().unwrap().suggestion.as_deref(),
            Some("did you mean 'benchmark'?")
        );
    }

    #[test]
    fn malformed_values_are_sdbp014() {
        let (_, diags) = parse_spec_text("seed banana\nsize huge\nwarmup -3\n", "<test>");
        assert_eq!(codes_of(&diags), [14, 14, 14]);
    }

    #[test]
    fn zero_budget_lints_as_sdbp008() {
        let mut spec = paper_spec();
        spec.measure_instructions = Some(0);
        let diags = lint_spec(&spec, "<test>");
        assert_eq!(codes_of(&diags), [8]);
        assert!(diags.has_errors());
    }

    #[test]
    fn warmup_swallowing_the_run_is_sdbp009() {
        let spec = paper_spec().with_warmup(300_000);
        let diags = lint_spec(&spec, "<test>");
        assert_eq!(codes_of(&diags), [9]);
    }

    #[test]
    fn starved_profile_is_sdbp010() {
        let mut spec = paper_spec();
        spec.profile_instructions = Some(1_000);
        spec.measure_instructions = Some(300_000);
        let diags = lint_spec(&spec, "<test>");
        assert_eq!(codes_of(&diags), [10]);
        assert!(!diags.has_errors(), "a warning, not an error");
        // Without hint selection, profiling volume is irrelevant.
        let diags = lint_spec(&spec.with_scheme(SelectionScheme::None), "<test>");
        assert!(diags.is_empty());
    }

    #[test]
    fn out_of_range_scheme_parameters_are_sdbp007() {
        let spec = paper_spec().with_scheme(SelectionScheme::Bias { cutoff: 1.2 });
        assert_eq!(codes_of(&lint_spec(&spec, "<t>")), [7]);
        let spec = paper_spec().with_profile(ProfileSource::MergedCrossTrained {
            max_bias_change: 2.0,
        });
        assert_eq!(codes_of(&lint_spec(&spec, "<t>")), [7]);
    }

    #[test]
    fn sdbp004_names_why_the_size_misses() {
        let note = |kind| {
            let spec = ExperimentSpec::self_trained(
                Benchmark::Gcc,
                PredictorConfig::new(kind, 4096).unwrap(),
                SelectionScheme::None,
            );
            lint_spec(&spec, "<t>")
                .iter()
                .find(|d| d.code == codes::BUDGET_NOT_REALIZABLE)
                .map(|d| d.message.clone())
        };
        assert_eq!(
            note(PredictorKind::Agree).unwrap(),
            "agree realizes 6144 of the 4096 configured bytes (its per-branch \
             bias bits sit on top of the counter budget)"
        );
        for (kind, realized) in [
            (PredictorKind::Perceptron, 2176),
            (PredictorKind::TageLite, 3296),
        ] {
            assert_eq!(
                note(kind).unwrap(),
                format!(
                    "{kind} realizes {realized} of the 4096 configured bytes (bank split \
                     rounds down to powers of two)"
                )
            );
        }
        assert_eq!(note(PredictorKind::Gshare), None);
        // The larger-than-budget reason names agree's state, so agree must
        // stay the only kind that outgrows its budget.
        for kind in PredictorKind::ALL {
            for size in [1024, 4096, 65536] {
                let built = PredictorConfig::new(kind, size)
                    .unwrap()
                    .build_any()
                    .size_bytes();
                assert!(
                    built <= size || kind == PredictorKind::Agree,
                    "{kind} builds {built} of {size} bytes"
                );
            }
        }
    }

    #[test]
    fn collide_on_an_analyzable_predictor_is_clean() {
        for (kind, size) in [
            (PredictorKind::Gshare, 1024),
            (PredictorKind::Perceptron, 4096),
            (PredictorKind::TageLite, 4096),
        ] {
            let spec = ExperimentSpec::self_trained(
                Benchmark::Compress,
                PredictorConfig::new(kind, size).unwrap(),
                SelectionScheme::static_collide(),
            )
            .with_instructions(300_000);
            let diags = lint_spec(&spec, "<t>");
            // Frontier designs emit an SDBP004 realizability note; what
            // matters is that nothing warns or errors — no SDBP042.
            assert!(diags.is_clean(), "{kind}: {}", diags.render_text());
            assert!(
                !codes_of(&diags).contains(&42),
                "{kind}: {}",
                diags.render_text()
            );
        }
    }

    #[test]
    fn collide_on_an_opaque_predictor_is_sdbp042() {
        for kind in [PredictorKind::Tournament, PredictorKind::TwoBcGskew] {
            let spec = ExperimentSpec::self_trained(
                Benchmark::Compress,
                PredictorConfig::new(kind, 4096).unwrap(),
                SelectionScheme::static_collide(),
            )
            .with_instructions(300_000);
            let diags = lint_spec(&spec, "<t>");
            assert_eq!(codes_of(&diags), [42], "{}", diags.render_text());
            assert!(!diags.has_errors(), "a warning, not an error");
            assert!(!diags.passes(true), "fatal under --deny-warnings");
        }
    }

    #[test]
    fn sdbp042_suggests_the_analyzable_predictors() {
        // Derived from the capability source, never typed out: bi-mode is
        // linear, the opaque hybrids are not named.
        assert_eq!(
            analyzable_predictors(4096),
            [
                "bimodal",
                "ghist",
                "gshare",
                "bi-mode",
                "gselect",
                "perceptron",
                "tage-lite"
            ]
        );
        // The frontier designs need 32 bytes, so a 16-byte budget drops them.
        assert_eq!(
            analyzable_predictors(16),
            ["bimodal", "ghist", "gshare", "bi-mode", "gselect"]
        );
        let spec = ExperimentSpec::self_trained(
            Benchmark::Compress,
            PredictorConfig::new(PredictorKind::TwoBcGskew, 4096).unwrap(),
            SelectionScheme::static_collide(),
        )
        .with_instructions(300_000);
        let diags = lint_spec(&spec, "<t>");
        let suggestion = diags.iter().next().unwrap().suggestion.clone().unwrap();
        assert_eq!(
            suggestion,
            "use an analyzable predictor (bimodal, ghist, gshare, bi-mode, gselect, \
             perceptron, tage-lite), or select with static_col from a measured \
             accuracy profile"
        );
    }

    #[test]
    fn out_of_range_collide_parameters_are_sdbp007() {
        let spec = paper_spec().with_scheme(SelectionScheme::Collide {
            min_bias: 1.2,
            min_score_rate: 1.5,
        });
        assert_eq!(codes_of(&lint_spec(&spec, "<t>")), [7, 7]);
    }

    #[test]
    fn frontier_names_parse_in_spec_files() {
        let (spec, diags) = parse_spec_text(
            "predictor tage-lite\nsize 4096\nscheme static_collide\n",
            "<t>",
        );
        assert!(diags.is_empty(), "{}", diags.render_text());
        let spec = spec.unwrap();
        assert_eq!(spec.predictor.kind(), PredictorKind::TageLite);
        assert_eq!(spec.scheme, SelectionScheme::static_collide());
        let (spec, diags) = parse_spec_text("predictor perceptron\nsize 2048\n", "<t>");
        assert!(diags.is_empty(), "{}", diags.render_text());
        assert_eq!(spec.unwrap().predictor.kind(), PredictorKind::Perceptron);
    }

    #[test]
    fn handbook_covers_every_predictor_and_scheme() {
        // The predictor handbook must name every dynamic predictor and
        // every selection scheme — a new `PredictorKind` variant or scheme
        // name fails here until docs/predictors.md documents it.
        let doc = include_str!("../../../docs/predictors.md");
        for kind in PredictorKind::ALL {
            let quoted = format!("`{}`", kind.name());
            assert!(
                doc.contains(&quoted),
                "docs/predictors.md is missing predictor {quoted}"
            );
        }
        for scheme in SCHEME_NAMES.split(", ") {
            let quoted = format!("`{scheme}`");
            assert!(
                doc.contains(&quoted),
                "docs/predictors.md is missing scheme {quoted}"
            );
        }
    }

    #[test]
    fn diagnostics_doc_lists_every_spec_key() {
        // SDBP015's entry in docs/diagnostics.md lists the valid keys; a key
        // added here fails until the entry names it, in this order.
        let doc = include_str!("../../../docs/diagnostics.md");
        let entry = doc
            .split("`unknown-spec-field`")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("docs/diagnostics.md has an SDBP015 entry");
        let listed: Vec<&str> = entry.split('`').skip(1).step_by(2).collect();
        assert_eq!(listed, SPEC_KEYS);
    }

    #[test]
    fn shift_on_bimodal_is_sdbp011() {
        let spec = ExperimentSpec::self_trained(
            Benchmark::Gcc,
            PredictorConfig::new(PredictorKind::Bimodal, 1024).unwrap(),
            SelectionScheme::None,
        )
        .with_shift(ShiftPolicy::Shift);
        let diags = lint_spec(&spec, "<test>");
        assert_eq!(codes_of(&diags), [11]);
        assert!(!diags.has_errors());
    }

    #[test]
    fn unrealizable_budget_is_a_note() {
        let spec = ExperimentSpec::self_trained(
            Benchmark::Gcc,
            PredictorConfig::new(PredictorKind::Perceptron, 8192).unwrap(),
            SelectionScheme::None,
        );
        let diags = lint_spec(&spec, "<test>");
        assert_eq!(codes_of(&diags), [4]);
        assert!(diags.is_clean(), "notes keep a spec clean");
        assert!(diags.passes(true), "notes survive --deny-warnings");
    }

    #[test]
    fn a_history_line_is_an_unknown_field() {
        // The history length is derived from the size, so there is no
        // `history` key to declare it with.
        let (spec, diags) = parse_spec_text("predictor gshare\nhistory 12\n", "<test>");
        assert!(spec.is_some());
        assert_eq!(codes_of(&diags), [15]);
        assert!(!diags.has_errors());
    }

    #[test]
    fn edit_distance_behaves() {
        assert_eq!(edit_distance("gshare", "gshare"), 0);
        assert_eq!(edit_distance("gshar", "gshare"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        let names = PredictorKind::ALL.map(PredictorKind::name);
        assert_eq!(closest("gsahre", &names), Some("gshare"));
        assert_eq!(closest("zzzzzz", &names), None);
    }
}
