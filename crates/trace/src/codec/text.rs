//! Line-oriented text trace format.
//!
//! ```text
//! # comment lines and blank lines are ignored
//! !name gcc.train          (optional metadata directive)
//! 12000 T 6                (hex pc, T/N outcome, decimal gap)
//! 12010 N 2
//! 11ff0 T                  (gap defaults to 0)
//! ```
//!
//! This is the interchange format for feeding externally collected branch
//! traces (from Pin, DynamoRIO, QEMU plugins, …) into the simulator.

use crate::error::{RecordError, TraceError};
use crate::event::{BranchAddr, BranchEvent};
use crate::trace::Trace;
use std::io::Write;

/// One meaningful line of a text-format trace.
pub(crate) enum ParsedLine {
    /// A branch record.
    Event(BranchEvent),
    /// A `!name` metadata directive.
    Name(String),
    /// A comment, blank line, or unknown directive.
    Nothing,
}

/// Parses the direction token shared by the sdbp text and perf adapters.
pub(crate) fn parse_direction(token: &str) -> Option<bool> {
    match token {
        "T" | "t" | "1" | "taken" => Some(true),
        "N" | "n" | "0" | "not-taken" => Some(false),
        _ => None,
    }
}

/// Parses `pc outcome [gap]` record fields from a token iterator.
///
/// Shared by the sdbp text codec (which feeds the whole line) and the perf
/// adapter (which feeds the tokens after the perf prefix).
pub(crate) fn parse_record_fields<'a>(
    mut parts: impl Iterator<Item = &'a str>,
    lineno: usize,
) -> Result<BranchEvent, TraceError> {
    let bad = |kind| TraceError::BadRecord { line: lineno, kind };
    let pc_text = parts.next().ok_or_else(|| bad(RecordError::MissingPc))?;
    let pc = u64::from_str_radix(pc_text.trim_start_matches("0x"), 16).map_err(|e| {
        bad(RecordError::BadPc {
            text: pc_text.to_string(),
            source: e,
        })
    })?;
    let outcome = parts
        .next()
        .ok_or_else(|| bad(RecordError::MissingOutcome))?;
    let taken = parse_direction(outcome).ok_or_else(|| {
        bad(RecordError::BadOutcome {
            text: outcome.to_string(),
        })
    })?;
    let gap = match parts.next() {
        Some(g) => g.parse::<u32>().map_err(|e| {
            bad(RecordError::BadGap {
                text: g.to_string(),
                source: e,
            })
        })?,
        None => 0,
    };
    if let Some(extra) = parts.next() {
        return Err(bad(RecordError::TrailingField {
            text: extra.to_string(),
        }));
    }
    Ok(BranchEvent::new(BranchAddr(pc), taken, gap))
}

/// Whether `b` separates record fields for [`parse_record_bytes`]: a
/// space, tab or carriage return, all whitespace to `split_whitespace` too.
pub(crate) fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r')
}

fn skip_blanks(s: &[u8], mut i: usize) -> usize {
    while s.get(i).copied().is_some_and(is_blank) {
        i += 1;
    }
    i
}

/// A field of 1 to `max_len` digits in `radix` at `s[at..]`, ending at a
/// blank or at the end of `s`: its value and the index after it.
fn digits(s: &[u8], at: usize, radix: u32, max_len: usize) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut i = at;
    while let Some(&b) = s.get(i) {
        if is_blank(b) {
            break;
        }
        if i - at == max_len {
            return None;
        }
        value = value * u64::from(radix) + u64::from(char::from(b).to_digit(radix)?);
        i += 1;
    }
    (i > at).then_some((value, i))
}

/// The byte-level fast path of [`parse_record_fields`], for one line
/// without its `\n`: parses the common record shape
/// `<1-16 hex digits> T|t|N|n|1|0 [<1-9 decimal digits>]`, its fields
/// separated by spaces, tabs or carriage returns.
///
/// Returns `None` for anything else: every malformed line, and the records
/// only the full grammar accepts (a `0x` or `+` prefix, direction words,
/// longer numbers, other whitespace, non-ASCII bytes). Callers hand those
/// lines to [`parse_text_line`] or the perf parser, which stay the only
/// full grammar.
pub(crate) fn parse_record_bytes(s: &[u8]) -> Option<BranchEvent> {
    let (pc, i) = digits(s, skip_blanks(s, 0), 16, 16)?;
    let i = skip_blanks(s, i);
    let taken = match s.get(i)? {
        b'T' | b't' | b'1' => true,
        b'N' | b'n' | b'0' => false,
        _ => return None,
    };
    if s.get(i + 1).is_some_and(|&b| !is_blank(b)) {
        return None;
    }
    let mut i = skip_blanks(s, i + 1);
    let mut gap = 0;
    if i < s.len() {
        let (g, end) = digits(s, i, 10, 9)?;
        gap = g as u32;
        i = skip_blanks(s, end);
    }
    (i == s.len()).then(|| BranchEvent::new(BranchAddr(pc), taken, gap))
}

/// Parses one line of the sdbp text format.
///
/// Unknown `!` directives are ignored so the format can grow.
pub(crate) fn parse_text_line(line: &str, lineno: usize) -> Result<ParsedLine, TraceError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(ParsedLine::Nothing);
    }
    if let Some(directive) = line.strip_prefix('!') {
        if let Some(n) = directive.strip_prefix("name ") {
            return Ok(ParsedLine::Name(n.trim().to_string()));
        }
        return Ok(ParsedLine::Nothing);
    }
    parse_record_fields(line.split_whitespace(), lineno).map(ParsedLine::Event)
}

/// Writes `trace` in the text format.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
///
/// # Examples
///
/// ```
/// use sdbp_trace::{write_text, BranchAddr, BranchEvent, TraceBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TraceBuilder::named("demo");
/// b.push(BranchEvent::new(BranchAddr(0x1000), true, 4));
/// b.push(BranchEvent::new(BranchAddr(0x1008), false, 0));
/// let mut out = Vec::new();
/// write_text(&mut out, &b.finish())?;
/// assert_eq!(String::from_utf8(out)?, "!name demo\n1000 T 4\n1008 N 0\n");
/// # Ok(())
/// # }
/// ```
pub fn write_text<W: Write>(w: &mut W, trace: &Trace) -> Result<(), TraceError> {
    if !trace.meta().name.is_empty() {
        writeln!(w, "!name {}", trace.meta().name)?;
    }
    for e in trace.iter() {
        writeln!(
            w,
            "{:x} {} {}",
            e.pc.0,
            if e.taken { 'T' } else { 'N' },
            e.gap
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode;
    use crate::trace::TraceBuilder;
    use crate::TraceFormat;

    fn decode_text(text: &[u8]) -> Result<Trace, TraceError> {
        decode(TraceFormat::SdbpText, text)
    }

    #[test]
    fn roundtrip_with_name() {
        let mut b = TraceBuilder::named("perl.ref");
        b.push(BranchEvent::new(BranchAddr(0xabc), true, 3));
        b.push(BranchEvent::new(BranchAddr(0xac0), false, 0));
        let trace = b.finish();
        let mut buf = Vec::new();
        write_text(&mut buf, &trace).unwrap();
        let back = decode_text(&buf).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn comments_blanks_and_unknown_directives_are_ignored() {
        let text = "# header\n\n!future stuff\n10 T 1\n";
        let trace = decode_text(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].pc, BranchAddr(0x10));
    }

    #[test]
    fn gap_defaults_to_zero_and_accepts_aliases() {
        let text = "10 t\n14 1 5\n18 0\n";
        let trace = decode_text(text.as_bytes()).unwrap();
        assert_eq!(trace.events()[0].gap, 0);
        assert!(trace.events()[0].taken);
        assert!(trace.events()[1].taken);
        assert_eq!(trace.events()[1].gap, 5);
        assert!(!trace.events()[2].taken);
    }

    #[test]
    fn accepts_0x_prefixed_pcs() {
        let trace = decode_text("0x1000 T 2\n".as_bytes()).unwrap();
        assert_eq!(trace.events()[0].pc, BranchAddr(0x1000));
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let text = "10 T 1\nZZZ T 1\n";
        match decode_text(text.as_bytes()) {
            Err(TraceError::BadRecord {
                line: 2,
                kind: RecordError::BadPc { .. },
            }) => {}
            other => panic!("expected a bad-pc error at line 2, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_outcome_and_trailing_fields() {
        assert!(matches!(
            decode_text("10 X 1\n".as_bytes()),
            Err(TraceError::BadRecord {
                line: 1,
                kind: RecordError::BadOutcome { .. },
            })
        ));
        assert!(matches!(
            decode_text("10 T 1 junk\n".as_bytes()),
            Err(TraceError::BadRecord {
                kind: RecordError::TrailingField { .. },
                ..
            })
        ));
        assert!(matches!(
            decode_text("10\n".as_bytes()),
            Err(TraceError::BadRecord {
                kind: RecordError::MissingOutcome,
                ..
            })
        ));
        assert!(matches!(
            decode_text("10 T 4294967296\n".as_bytes()),
            Err(TraceError::BadRecord {
                kind: RecordError::BadGap { .. },
                ..
            })
        ));
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        let trace = decode_text("".as_bytes()).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.meta().total_instructions, 0);
    }
}
