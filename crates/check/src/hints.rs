//! Hint-database lints: internal consistency and profile cross-checks.
//!
//! [`parse_hints_text`] parses the `"<hex pc> T|N"` format line by line
//! through [`HintDatabase::parse_line`] (rather than through
//! [`HintDatabase::from_text`], whose last-wins `HashMap` insert silently
//! swallows duplicates) so duplicate and conflicting entries are visible.
//! [`lint_hints_against_profile`] then cross-checks the surviving database
//! against a bias profile: hints for branches the profile never saw, hints
//! that contradict the profiled majority direction, and strongly biased hot
//! branches left without a hint.

use crate::codes;
use crate::diag::{Diagnostic, Diagnostics, Span};
use sdbp_profiles::{BiasProfile, HintDatabase};
use sdbp_trace::BranchAddr;
use std::collections::HashMap;

/// Parses hint text, reporting SDBP020/021/025 for duplicate, conflicting,
/// and malformed lines.
///
/// The returned database matches [`HintDatabase::from_text`]'s last-wins
/// semantics for every line that parses, so downstream consumers see the
/// same hints the simulator would.
pub fn parse_hints_text(text: &str, origin: &str) -> (HintDatabase, Diagnostics) {
    let mut diags = Diagnostics::new();
    let mut db = HintDatabase::new();
    let mut first_seen: HashMap<BranchAddr, (usize, bool)> = HashMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let Some(hint) = HintDatabase::parse_line(line) else {
            continue;
        };
        let Ok((pc, taken)) = hint else {
            diags.push(
                Diagnostic::error(
                    codes::HINT_PARSE_ERROR,
                    format!("malformed hint line '{}'", line.trim()),
                )
                .with_span(Span::line(origin, "hint", line_no))
                .with_note("expected '<hex pc> T|N'"),
            );
            continue;
        };
        match first_seen.get(&pc) {
            None => {
                first_seen.insert(pc, (line_no, taken));
            }
            Some((prev_line, prev_taken)) if *prev_taken == taken => {
                diags.push(
                    Diagnostic::warning(
                        codes::DUPLICATE_HINT,
                        format!("duplicate hint for branch {pc} (first at line {prev_line})"),
                    )
                    .with_span(Span::line(origin, "hint", line_no))
                    .with_suggestion("remove the duplicate line"),
                );
            }
            Some((prev_line, _)) => {
                diags.push(
                    Diagnostic::error(
                        codes::CONFLICTING_HINT,
                        format!(
                            "conflicting hints for branch {pc}: line {prev_line} says \
                             {}, line {line_no} says {}",
                            direction(!taken),
                            direction(taken)
                        ),
                    )
                    .with_span(Span::line(origin, "hint", line_no))
                    .with_note("the simulator would silently keep the last one"),
                );
            }
        }
        db.insert(pc, taken);
    }
    (db, diags)
}

fn direction(taken: bool) -> &'static str {
    if taken {
        "taken"
    } else {
        "not-taken"
    }
}

/// Minimum profiled bias for SDBP023 (hint contradicts profile): the
/// majority direction of a coin-flip branch is noise.
const BIAS_FLOOR: f64 = 0.60;
/// Minimum profiled bias for SDBP024 (coverage gap).
const COVERAGE_BIAS: f64 = 0.99;
/// Minimum executions for SDBP024.
const COVERAGE_EXECUTIONS: u64 = 1_000;
/// Cap on emitted SDBP024 notes (gaps beyond it are summarized).
const MAX_COVERAGE_NOTES: usize = 5;

/// Cross-checks a hint database against the bias profile it was (or should
/// have been) selected from: SDBP022/023/024.
///
/// A hint against a branch whose profiled bias is below 60% is never
/// reported as contradicting it; a branch with at least 99% bias and 1,000
/// executions but no hint is a coverage gap, and gaps beyond the five
/// busiest are summarized in one note.
pub fn lint_hints_against_profile(
    hints: &HintDatabase,
    profile: &BiasProfile,
    origin: &str,
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let mut entries: Vec<(BranchAddr, bool)> = hints.iter().collect();
    entries.sort_unstable_by_key(|(pc, _)| *pc);
    for (pc, taken) in entries {
        match profile.site(pc) {
            None => diags.push(
                Diagnostic::warning(
                    codes::STALE_HINT,
                    format!("hint for branch {pc} which the profile never observed"),
                )
                .with_span(Span::field(origin, "hints"))
                .with_note("the branch may have moved; re-profile and re-select"),
            ),
            Some(stats) => {
                if stats.executed > 0
                    && stats.bias() >= BIAS_FLOOR
                    && taken != stats.majority_taken()
                {
                    diags.push(
                        Diagnostic::warning(
                            codes::HINT_CONTRADICTS_PROFILE,
                            format!(
                                "hint predicts {} for branch {pc}, but the profile \
                                 is {:.1}% {}",
                                direction(taken),
                                100.0 * stats.bias(),
                                direction(stats.majority_taken())
                            ),
                        )
                        .with_span(Span::field(origin, "hints"))
                        .with_suggestion(
                            "a static hint against the bias misses every time it fires",
                        ),
                    );
                }
            }
        }
    }

    let mut gaps: Vec<(BranchAddr, u64, f64)> = profile
        .iter()
        .filter(|(pc, stats)| {
            !hints.contains(*pc)
                && stats.executed >= COVERAGE_EXECUTIONS
                && stats.bias() >= COVERAGE_BIAS
        })
        .map(|(pc, stats)| (pc, stats.executed, stats.bias()))
        .collect();
    gaps.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let total_gaps = gaps.len();
    for (pc, executed, bias) in gaps.into_iter().take(MAX_COVERAGE_NOTES) {
        diags.push(
            Diagnostic::note(
                codes::HINT_COVERAGE_GAP,
                format!(
                    "branch {pc} executed {executed} times at {:.1}% bias but has no hint",
                    100.0 * bias
                ),
            )
            .with_span(Span::field(origin, "hints")),
        );
    }
    if total_gaps > MAX_COVERAGE_NOTES {
        diags.push(
            Diagnostic::note(
                codes::HINT_COVERAGE_GAP,
                format!(
                    "{} more strongly biased branches have no hint",
                    total_gaps - MAX_COVERAGE_NOTES
                ),
            )
            .with_span(Span::field(origin, "hints")),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::SiteStats;

    fn codes_of(diags: &Diagnostics) -> Vec<u16> {
        diags.iter().map(|d| d.code.0).collect()
    }

    fn site(executed: u64, taken: u64) -> SiteStats {
        SiteStats { executed, taken }
    }

    #[test]
    fn clean_hints_parse_silently() {
        let (db, diags) = parse_hints_text("# header\n100 T\n104 N\n", "<t>");
        assert!(diags.is_empty(), "{}", diags.render_text());
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(BranchAddr(0x100)), Some(true));
    }

    #[test]
    fn duplicate_hint_is_sdbp020() {
        let (db, diags) = parse_hints_text("100 T\n100 T\n", "<t>");
        assert_eq!(codes_of(&diags), [20]);
        assert!(!diags.has_errors());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn conflicting_hint_is_sdbp021_and_an_error() {
        let (db, diags) = parse_hints_text("100 T\n104 N\n100 N\n", "<t>");
        assert_eq!(codes_of(&diags), [21]);
        assert!(diags.has_errors());
        let d = diags.iter().next().unwrap();
        assert!(d.message.contains("line 1"), "{}", d.message);
        assert_eq!(d.span.as_ref().unwrap().line, Some(3));
        // Last-wins, matching HintDatabase::from_text.
        assert_eq!(db.get(BranchAddr(0x100)), Some(false));
    }

    #[test]
    fn malformed_line_is_sdbp025() {
        let (db, diags) = parse_hints_text("zzz T\n100 X\n100\n", "<t>");
        assert_eq!(codes_of(&diags), [25, 25, 25]);
        assert!(db.is_empty());
    }

    #[test]
    fn stale_and_contradicting_hints_cross_check() {
        let mut profile = BiasProfile::new();
        profile.insert(BranchAddr(0x100), site(1000, 990)); // strongly taken
        profile.insert(BranchAddr(0x104), site(1000, 500)); // coin flip
        let mut hints = HintDatabase::new();
        hints.insert(BranchAddr(0x100), false); // contradicts
        hints.insert(BranchAddr(0x104), false); // against a coin flip: fine
        hints.insert(BranchAddr(0x200), true); // never profiled
        let diags = lint_hints_against_profile(&hints, &profile, "<t>");
        assert_eq!(codes_of(&diags), [23, 22]);
        assert!(!diags.has_errors());
    }

    #[test]
    fn coverage_gaps_are_capped_notes() {
        let mut profile = BiasProfile::new();
        for i in 0..MAX_COVERAGE_NOTES as u64 + 5 {
            profile.insert(BranchAddr(0x1000 + 4 * i), site(5000, 4999));
        }
        let hints = HintDatabase::new();
        let diags = lint_hints_against_profile(&hints, &profile, "<t>");
        assert_eq!(codes_of(&diags), [24; MAX_COVERAGE_NOTES + 1]);
        assert!(diags.is_clean(), "notes stay clean");
        let last = diags.iter().last().unwrap();
        assert!(last.message.contains("5 more"), "{}", last.message);
    }

    #[test]
    fn hinted_and_weak_branches_are_not_gaps() {
        let mut profile = BiasProfile::new();
        profile.insert(BranchAddr(0x100), site(5000, 4999)); // hinted
        profile.insert(BranchAddr(0x104), site(5000, 3000)); // weak bias
        profile.insert(BranchAddr(0x108), site(10, 10)); // cold
        let mut hints = HintDatabase::new();
        hints.insert(BranchAddr(0x100), true);
        let diags = lint_hints_against_profile(&hints, &profile, "<t>");
        assert!(diags.is_empty(), "{}", diags.render_text());
    }
}
