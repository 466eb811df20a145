//! Spec-level lints: parsing and validating experiment descriptions.
//!
//! Two entry points:
//!
//! * [`parse_spec_text`] parses the `key value` spec-file format (also fed
//!   by `sdbp check`'s inline options) into an [`ExperimentSpec`], emitting
//!   coded diagnostics for unknown names, malformed values, and impossible
//!   predictor configurations — with did-you-mean suggestions.
//! * [`lint_spec`] checks an already-constructed spec for semantic problems:
//!   out-of-range scheme parameters, zero budgets, warm-up swallowing the
//!   run, profiling starvation, ineffective shift policies, and byte budgets
//!   the scheme cannot realize exactly.

use crate::codes;
use crate::diag::{Diagnostic, Diagnostics, Span};
use sdbp_core::{ExperimentSpec, ProfileSource, ShiftPolicy};
use sdbp_predictors::{DynamicPredictor, PredictorConfig, PredictorKind};
use sdbp_profiles::SelectionScheme;
use sdbp_workloads::{Benchmark, InputSet};

/// A spec parsed from text, plus any side declarations that do not live on
/// [`ExperimentSpec`] itself.
#[derive(Debug, Clone, Default)]
pub struct ParsedSpec {
    /// The constructed spec; `None` when errors prevented construction.
    pub spec: Option<ExperimentSpec>,
    /// An explicit `history <bits>` declaration, checked against the
    /// predictor's derived history length by [`lint_spec_with_history`].
    pub declared_history: Option<u32>,
}

/// The keys [`parse_spec_text`] understands.
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
    "history",
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
/// plausible typo (distance ≤ ⌈len/3⌉, minimum 2).
pub(crate) fn closest<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
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

const SCHEME_NAMES: &[&str] = &[
    "none",
    "static_95",
    "static_acc",
    "static_col",
    "static_collide",
];
const SHIFT_NAMES: &[&str] = &["no-shift", "shift"];
const TRAINING_NAMES: &[&str] = &["self", "cross", "merged", "cross-merged"];
const INPUT_NAMES: &[&str] = &["train", "ref"];

/// Parses the `key value` spec-file format.
///
/// Lines are `key value` pairs; blank lines and `#` comments are skipped.
/// Unset keys take the CLI defaults (gcc, ref, seed 2000, gshare, 8192
/// bytes, scheme none, self-training, no shift, no warm-up, workload-default
/// budgets). `origin` names the source in diagnostic spans (a path, or
/// `<args>` for inline options).
///
/// Parse failures are reported per line; a spec is still constructed from
/// whatever parsed unless the predictor configuration itself is unusable.
pub fn parse_spec_text(text: &str, origin: &str) -> (ParsedSpec, Diagnostics) {
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
    let mut declared_history: Option<u32> = None;
    let mut config_unusable = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = match line.split_once(char::is_whitespace) {
            Some((k, v)) => (k, v.trim()),
            None => (line, ""),
        };
        let malformed = |field: &str, what: &str| {
            Diagnostic::error(
                codes::MALFORMED_FIELD_VALUE,
                format!("invalid {field} value '{value}': expected {what}"),
            )
            .with_span(Span::line(origin, field.to_string(), line_no))
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
                        .with_span(Span::line(origin, "benchmark", line_no))
                        .with_note(format!("known benchmarks: {}", names.join(", "))),
                        value,
                        &names,
                    ))
                }
            },
            "predictor" => match value.parse::<PredictorKind>() {
                Ok(k) => {
                    kind = k;
                    kind_set = Some(line_no);
                }
                Err(_) => {
                    config_unusable = true;
                    let names = PredictorKind::ALL.map(PredictorKind::name);
                    diags.push(suggest(
                        Diagnostic::error(
                            codes::UNKNOWN_PREDICTOR,
                            format!("unknown predictor '{value}'"),
                        )
                        .with_span(Span::line(origin, "predictor", line_no))
                        .with_note(format!("known predictors: {}", names.join(", "))),
                        value,
                        &names,
                    ));
                }
            },
            // Size and scheme go through the shared parsers the CLI uses
            // (sdbp-predictors / sdbp-profiles), so both front ends accept
            // and reject identical syntax.
            "size" => match sdbp_predictors::parse_size_bytes(value) {
                Ok(s) => {
                    size = s;
                    size_set = Some(line_no);
                }
                Err(_) => diags.push(malformed("size", "a size in bytes")),
            },
            "scheme" => match value.parse::<SelectionScheme>() {
                Ok(s) => scheme = s,
                Err(_) => diags.push(suggest(
                    Diagnostic::error(
                        codes::UNKNOWN_SCHEME,
                        format!("unknown selection scheme '{value}'"),
                    )
                    .with_span(Span::line(origin, "scheme", line_no))
                    .with_note(
                        "expected none, static_<pct>, static_acc, static_col, \
                         or static_collide",
                    ),
                    value,
                    SCHEME_NAMES,
                )),
            },
            "shift" => match value {
                "shift" => shift = ShiftPolicy::Shift,
                "no-shift" | "noshift" => shift = ShiftPolicy::NoShift,
                _ => diags.push(suggest(
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
            "history" => match value.parse::<u32>() {
                Ok(h) => declared_history = Some(h),
                Err(_) => diags.push(malformed("history", "a bit count")),
            },
            other => diags.push(suggest(
                Diagnostic::warning(
                    codes::UNKNOWN_SPEC_FIELD,
                    format!("unknown spec field '{other}' ignored"),
                )
                .with_span(Span::line(origin, other.to_string(), line_no)),
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
    (
        ParsedSpec {
            spec,
            declared_history,
        },
        diags,
    )
}

/// Lints a constructed spec (no `history` declaration).
pub fn lint_spec(spec: &ExperimentSpec, origin: &str) -> Diagnostics {
    lint_spec_with_history(spec, None, origin)
}

/// Lints a constructed spec, cross-checking an explicit `history <bits>`
/// declaration against the predictor the spec would actually build.
pub fn lint_spec_with_history(
    spec: &ExperimentSpec,
    declared_history: Option<u32>,
    origin: &str,
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let span = |field: &'static str| Span::field(origin, field);

    // SDBP008: zero budgets.
    if spec.profile_instructions == Some(0) {
        diags.push(
            Diagnostic::error(
                codes::ZERO_INSTRUCTION_BUDGET,
                "profiling budget is zero; no branch would be profiled",
            )
            .with_span(span("profile_instructions")),
        );
    }
    if spec.measure_instructions == Some(0) {
        diags.push(
            Diagnostic::error(
                codes::ZERO_INSTRUCTION_BUDGET,
                "measurement budget is zero; no branch would be measured",
            )
            .with_span(span("measure_instructions")),
        );
    }

    // SDBP009: warm-up swallowing the measured window.
    let measure = spec.measure_budget();
    if measure > 0 && spec.warmup_instructions >= measure {
        diags.push(
            Diagnostic::error(
                codes::WARMUP_EXCEEDS_BUDGET,
                format!(
                    "warm-up of {} instructions consumes the whole measurement budget of {measure}",
                    spec.warmup_instructions
                ),
            )
            .with_span(span("warmup_instructions"))
            .with_suggestion("reduce warmup or raise measure_instructions"),
        );
    }

    // SDBP010: profiling starvation. Hints selected from a profile that
    // covers a sliver of the measured run generalize poorly (the paper's
    // cross-training problem in miniature, but self-inflicted).
    let profile = spec.profile_budget();
    if spec.scheme != sdbp_profiles::SelectionScheme::None
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

    // SDBP007: scheme and training parameters out of range.
    match spec.scheme {
        sdbp_profiles::SelectionScheme::None | sdbp_profiles::SelectionScheme::VsAccuracy => {}
        sdbp_profiles::SelectionScheme::Bias { cutoff } => {
            if !(cutoff > 0.0 && cutoff < 1.0) {
                diags.push(
                    Diagnostic::error(
                        codes::SCHEME_PARAMETER_OUT_OF_RANGE,
                        format!("bias cutoff {cutoff} outside the open interval (0, 1)"),
                    )
                    .with_span(span("scheme"))
                    .with_note("the paper's Static_95 uses a cutoff of 0.95"),
                );
            }
        }
        sdbp_profiles::SelectionScheme::Factor { factor } => {
            if !(factor > 0.0 && factor.is_finite()) {
                diags.push(
                    Diagnostic::error(
                        codes::SCHEME_PARAMETER_OUT_OF_RANGE,
                        format!("accuracy factor {factor} must be positive and finite"),
                    )
                    .with_span(span("scheme")),
                );
            }
        }
        sdbp_profiles::SelectionScheme::CollisionAware {
            min_bias,
            min_collision_rate,
        } => {
            if !(min_bias > 0.0 && min_bias < 1.0) {
                diags.push(
                    Diagnostic::error(
                        codes::SCHEME_PARAMETER_OUT_OF_RANGE,
                        format!("minimum bias {min_bias} outside the open interval (0, 1)"),
                    )
                    .with_span(span("scheme")),
                );
            }
            if !(0.0..1.0).contains(&min_collision_rate) {
                diags.push(
                    Diagnostic::error(
                        codes::SCHEME_PARAMETER_OUT_OF_RANGE,
                        format!("minimum collision rate {min_collision_rate} outside [0, 1)"),
                    )
                    .with_span(span("scheme")),
                );
            }
        }
        sdbp_profiles::SelectionScheme::Collide {
            min_bias,
            min_score_rate,
        } => {
            if !(min_bias > 0.0 && min_bias < 1.0) {
                diags.push(
                    Diagnostic::error(
                        codes::SCHEME_PARAMETER_OUT_OF_RANGE,
                        format!("minimum bias {min_bias} outside the open interval (0, 1)"),
                    )
                    .with_span(span("scheme")),
                );
            }
            if !(0.0..1.0).contains(&min_score_rate) {
                diags.push(
                    Diagnostic::error(
                        codes::SCHEME_PARAMETER_OUT_OF_RANGE,
                        format!("minimum score rate {min_score_rate} outside [0, 1)"),
                    )
                    .with_span(span("scheme")),
                );
            }
            // SDBP042: Static_Collide needs the predictor's index function.
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
                    .with_suggestion(
                        "use an analyzable predictor (bimodal, ghist, gshare, gselect, \
                         e-gskew, perceptron, tage-lite), or select with static_col \
                         from a measured accuracy profile",
                    ),
                );
            }
        }
    }
    if let ProfileSource::MergedCrossTrained { max_bias_change } = spec.profile {
        if !(0.0..=1.0).contains(&max_bias_change) {
            diags.push(
                Diagnostic::error(
                    codes::SCHEME_PARAMETER_OUT_OF_RANGE,
                    format!("maximum bias change {max_bias_change} outside [0, 1]"),
                )
                .with_span(span("training"))
                .with_note("the paper's Spike-style merge uses 0.05"),
            );
        }
    }

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

    // SDBP004 + SDBP005/006 need the built predictor.
    let built = spec.predictor.build();
    if built.size_bytes() != spec.predictor.size_bytes() {
        diags.push(
            Diagnostic::note(
                codes::BUDGET_NOT_REALIZABLE,
                format!(
                    "{} realizes {} of the {} configured bytes (bank split \
                     rounds down to powers of two)",
                    spec.predictor.kind(),
                    built.size_bytes(),
                    spec.predictor.size_bytes()
                ),
            )
            .with_span(span("size")),
        );
    }
    if let Some(history) = declared_history {
        if !spec.predictor.kind().uses_global_history() {
            diags.push(
                Diagnostic::warning(
                    codes::HISTORY_ON_HISTORY_FREE,
                    format!(
                        "history length declared for {}, which keeps no global \
                         history register",
                        spec.predictor.kind()
                    ),
                )
                .with_span(span("history")),
            );
        } else {
            let derived = DynamicPredictor::history_bits(&*built);
            if history == 0 || history > 64 {
                diags.push(
                    Diagnostic::error(
                        codes::HISTORY_LENGTH_INVALID,
                        format!("history length {history} outside 1..=64"),
                    )
                    .with_span(span("history")),
                );
            } else if derived != 0 && history != derived {
                diags.push(
                    Diagnostic::error(
                        codes::HISTORY_LENGTH_INVALID,
                        format!(
                            "declared history length {history} does not match the \
                             {derived} bits {} derives from its {} byte budget",
                            spec.predictor.kind(),
                            spec.predictor.size_bytes()
                        ),
                    )
                    .with_span(span("history"))
                    .with_suggestion(format!(
                        "declare history {derived}, or drop the declaration"
                    )),
                );
            }
        }
    }
    diags
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
        let (parsed, diags) = parse_spec_text(text, "<test>");
        assert!(diags.is_empty(), "{}", diags.render_text());
        let spec = parsed.spec.unwrap();
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
        let (parsed, diags) = parse_spec_text("", "<args>");
        assert!(diags.is_empty());
        let spec = parsed.spec.unwrap();
        assert_eq!(spec.benchmark, Benchmark::Gcc);
        assert_eq!(spec.predictor.kind(), PredictorKind::Gshare);
        assert_eq!(spec.predictor.size_bytes(), 8192);
        assert_eq!(spec.scheme, SelectionScheme::None);
        assert_eq!(spec.seed, 2000);
    }

    #[test]
    fn non_power_of_two_size_is_sdbp002_with_fix() {
        let (parsed, diags) = parse_spec_text("size 3000\n", "<test>");
        assert!(parsed.spec.is_none());
        assert_eq!(codes_of(&diags), [2]);
        let d = diags.iter().next().unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.suggestion.as_deref(), Some("round up to 4096 bytes"));
        assert_eq!(d.span.as_ref().unwrap().line, Some(1));
    }

    #[test]
    fn undersized_hybrid_is_sdbp003() {
        let (parsed, diags) = parse_spec_text("predictor yags\nsize 8\n", "<test>");
        assert!(parsed.spec.is_none());
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
            let (parsed, diags) = parse_spec_text(&format!("training {spelling}\n"), "<test>");
            assert!(diags.is_empty(), "{spelling}: {}", diags.render_text());
            assert_eq!(
                parsed.spec.unwrap().profile,
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
        let (parsed, diags) = parse_spec_text("benchmork gcc\n", "<test>");
        assert!(parsed.spec.is_some(), "spec still constructed");
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
        for kind in [PredictorKind::BiMode, PredictorKind::TwoBcGskew] {
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
    fn out_of_range_collide_parameters_are_sdbp007() {
        let spec = paper_spec().with_scheme(SelectionScheme::Collide {
            min_bias: 1.2,
            min_score_rate: 1.5,
        });
        assert_eq!(codes_of(&lint_spec(&spec, "<t>")), [7, 7]);
    }

    #[test]
    fn frontier_names_parse_in_spec_files() {
        let (parsed, diags) = parse_spec_text(
            "predictor tage-lite\nsize 4096\nscheme static_collide\n",
            "<t>",
        );
        assert!(diags.is_empty(), "{}", diags.render_text());
        let spec = parsed.spec.unwrap();
        assert_eq!(spec.predictor.kind(), PredictorKind::TageLite);
        assert_eq!(spec.scheme, SelectionScheme::static_collide());
        let (parsed, diags) = parse_spec_text("predictor perceptron\nsize 2048\n", "<t>");
        assert!(diags.is_empty(), "{}", diags.render_text());
        assert_eq!(
            parsed.spec.unwrap().predictor.kind(),
            PredictorKind::Perceptron
        );
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
        for scheme in SCHEME_NAMES {
            let quoted = format!("`{scheme}`");
            assert!(
                doc.contains(&quoted),
                "docs/predictors.md is missing scheme {quoted}"
            );
        }
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
            PredictorConfig::new(PredictorKind::EGskew, 8192).unwrap(),
            SelectionScheme::None,
        );
        let diags = lint_spec(&spec, "<test>");
        assert_eq!(codes_of(&diags), [4]);
        assert!(diags.is_clean(), "notes keep a spec clean");
        assert!(diags.passes(true), "notes survive --deny-warnings");
    }

    #[test]
    fn history_declaration_checks_against_the_derived_length() {
        let spec = paper_spec().with_scheme(SelectionScheme::None);
        // gshare 1024 B = 4096 entries = 12 index bits of history.
        assert!(lint_spec_with_history(&spec, Some(12), "<t>").is_empty());
        let diags = lint_spec_with_history(&spec, Some(5), "<t>");
        assert_eq!(codes_of(&diags), [5]);
        assert!(diags.iter().next().unwrap().message.contains("12 bits"));
        assert_eq!(
            codes_of(&lint_spec_with_history(&spec, Some(0), "<t>")),
            [5]
        );
        assert_eq!(
            codes_of(&lint_spec_with_history(&spec, Some(65), "<t>")),
            [5]
        );
    }

    #[test]
    fn history_on_bimodal_is_sdbp006() {
        let spec = ExperimentSpec::self_trained(
            Benchmark::Gcc,
            PredictorConfig::new(PredictorKind::Bimodal, 1024).unwrap(),
            SelectionScheme::None,
        );
        let diags = lint_spec_with_history(&spec, Some(8), "<t>");
        assert_eq!(codes_of(&diags), [6]);
        assert!(!diags.has_errors());
    }

    #[test]
    fn history_on_an_opaque_scheme_only_range_checks() {
        let spec = ExperimentSpec::self_trained(
            Benchmark::Gcc,
            PredictorConfig::new(PredictorKind::BiMode, 4096).unwrap(),
            SelectionScheme::None,
        );
        assert!(lint_spec_with_history(&spec, Some(10), "<t>").is_empty());
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
