//! Error type for trace I/O.

use std::fmt;
use std::io;
use std::num::ParseIntError;

/// Errors produced while encoding or decoding traces.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The input did not start with the expected magic bytes.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The format version is not supported by this build.
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
    },
    /// A varint ran past the end of the input or exceeded 64 bits.
    TruncatedVarint,
    /// The payload ended before the declared number of events.
    TruncatedEvents {
        /// Events promised by the header.
        expected: u64,
        /// Events actually decoded.
        decoded: u64,
    },
    /// A binary event record declares a gap that does not fit the `u32`
    /// of [`crate::BranchEvent::gap`] — corrupt input, not a long gap.
    GapOverflow {
        /// 0-based index of the offending event.
        event: u64,
        /// The declared gap.
        gap: u64,
    },
    /// The header declared a trace name longer than the decoder's sanity
    /// cap — corrupt input rather than a plausible name.
    NameTooLong {
        /// The declared length in bytes.
        declared: u64,
        /// The decoder's cap in bytes.
        limit: u64,
    },
    /// A line of a text-format trace is not a well-formed record.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What exactly was malformed.
        kind: RecordError,
    },
    /// No importer recognized the input (see [`crate::import::autodetect`]).
    UnknownFormat {
        /// The first bytes of the input, for the error message.
        prefix: Vec<u8>,
    },
}

/// What was wrong with a single text-format record line.
///
/// Field-level variants carry the offending token, and numeric ones chain
/// the underlying [`ParseIntError`] through
/// [`source()`](std::error::Error::source) — the same taxonomy the
/// artifacts-store errors follow.
#[derive(Debug)]
pub enum RecordError {
    /// The line has no pc field.
    MissingPc,
    /// The pc field is not valid hexadecimal.
    BadPc {
        /// The token as written.
        text: String,
        /// The integer-parse failure.
        source: ParseIntError,
    },
    /// The line has a pc but no outcome field.
    MissingOutcome,
    /// The outcome field is not one of the accepted direction tokens.
    BadOutcome {
        /// The token as written.
        text: String,
    },
    /// The gap field is not a decimal `u32`.
    BadGap {
        /// The token as written.
        text: String,
        /// The integer-parse failure.
        source: ParseIntError,
    },
    /// The line has extra fields after the record.
    TrailingField {
        /// The first unexpected token.
        text: String,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::MissingPc => f.write_str("missing pc field"),
            RecordError::BadPc { text, source } => write!(f, "bad pc '{text}': {source}"),
            RecordError::MissingOutcome => f.write_str("missing outcome field"),
            RecordError::BadOutcome { text } => {
                write!(f, "bad outcome '{text}', expected T or N")
            }
            RecordError::BadGap { text, source } => write!(f, "bad gap '{text}': {source}"),
            RecordError::TrailingField { text } => {
                write!(f, "unexpected trailing field '{text}'")
            }
        }
    }
}

impl std::error::Error for RecordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecordError::BadPc { source, .. } | RecordError::BadGap { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic { found } => {
                write!(f, "bad trace magic {found:?}, expected \"SDBT\"")
            }
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace format version {found}")
            }
            TraceError::TruncatedVarint => f.write_str("truncated or overlong varint"),
            TraceError::TruncatedEvents { expected, decoded } => write!(
                f,
                "trace payload truncated: expected {expected} events, decoded {decoded}"
            ),
            TraceError::GapOverflow { event, gap } => write!(
                f,
                "event {event} declares a gap of {gap} instructions, above the u32 limit"
            ),
            TraceError::NameTooLong { declared, limit } => write!(
                f,
                "declared trace name length {declared} exceeds the {limit}-byte cap"
            ),
            TraceError::BadRecord { line, kind } => {
                write!(f, "text trace parse error at line {line}: {kind}")
            }
            TraceError::UnknownFormat { prefix } => {
                write!(
                    f,
                    "unrecognized trace format (input starts with {prefix:?})"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::BadRecord { kind, .. } => Some(kind),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants_are_informative() {
        let e = TraceError::BadMagic { found: *b"XXXX" };
        assert!(e.to_string().contains("SDBT"));
        let e = TraceError::UnsupportedVersion { found: 9 };
        assert!(e.to_string().contains('9'));
        let e = TraceError::TruncatedEvents {
            expected: 10,
            decoded: 3,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('3'));
        let e = TraceError::BadRecord {
            line: 7,
            kind: RecordError::BadOutcome { text: "X".into() },
        };
        assert!(e.to_string().contains("line 7"));
        assert!(e.to_string().contains("'X'"));
        let e = TraceError::UnknownFormat {
            prefix: b"\x7fELF".to_vec(),
        };
        assert!(e.to_string().contains("unrecognized"));
    }

    #[test]
    fn io_error_is_source() {
        use std::error::Error as _;
        let inner = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        let e = TraceError::from(inner);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("eof"));
    }

    #[test]
    fn record_errors_chain_the_parse_failure() {
        use std::error::Error as _;
        let parse_err = "zz".parse::<u32>().unwrap_err();
        let e = TraceError::BadRecord {
            line: 3,
            kind: RecordError::BadGap {
                text: "zz".into(),
                source: parse_err,
            },
        };
        // BadRecord -> RecordError -> ParseIntError, matching the artifacts
        // error taxonomy where every wrapper exposes its cause.
        let kind = e.source().expect("BadRecord chains its kind");
        assert!(kind.source().is_some(), "kind chains the ParseIntError");
        let e = TraceError::BadRecord {
            line: 1,
            kind: RecordError::MissingOutcome,
        };
        assert!(e.source().expect("kind").source().is_none());
    }
}
