//! Typed errors for the artifact layer.
//!
//! Two error families, matching the two failure surfaces:
//!
//! * [`JsonError`] — a manifest line failed to parse as JSON,
//! * [`StoreError`] — the on-disk store failed, either at the OS level
//!   ([`StoreError::Io`]) or because a stored entry is damaged
//!   ([`StoreError::Corrupt`]).
//!
//! Both implement [`std::error::Error`]; `StoreError::source` chains to the
//! underlying I/O error so callers can walk the cause chain.

use std::fmt;
use std::sync::Arc;

/// A JSON parse failure, with the byte offset of the first bad character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Errors from the on-disk key-addressed store.
///
/// `Io` wraps the OS error in an [`Arc`] so the variant stays [`Clone`]
/// (sweep results fan one store failure out to many cells).
#[derive(Debug, Clone)]
pub enum StoreError {
    /// An operating-system error while reading or writing the store.
    Io {
        /// The path the operation touched.
        path: String,
        /// The underlying OS error.
        source: Arc<std::io::Error>,
    },
    /// A stored entry exists but fails validation: a body that no longer
    /// matches its header's digest, or a missing or foreign header line.
    Corrupt {
        /// The damaged entry's path.
        path: String,
        /// What validation failed.
        reason: String,
    },
}

impl StoreError {
    /// Builds an [`StoreError::Io`] from a path and an OS error.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        StoreError::Io {
            path: path.into(),
            source: Arc::new(source),
        }
    }
}

/// Compares by path plus error identity: [`std::io::Error`] itself is not
/// comparable, so `Io` variants compare by [`std::io::ErrorKind`].
impl PartialEq for StoreError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                StoreError::Io { path, source },
                StoreError::Io {
                    path: p2,
                    source: s2,
                },
            ) => path == p2 && source.kind() == s2.kind(),
            (
                StoreError::Corrupt { path, reason },
                StoreError::Corrupt {
                    path: p2,
                    reason: r2,
                },
            ) => path == p2 && reason == r2,
            _ => false,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "store I/O failure at {path}: {source}"),
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt artifact at {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source.as_ref()),
            StoreError::Corrupt { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn store_io_errors_compare_by_kind() {
        let not_found = || std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let a = StoreError::io("x", not_found());
        let b = StoreError::io("x", not_found());
        let c = StoreError::io("x", std::io::Error::other("boom"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(
            a,
            StoreError::Corrupt {
                path: "x".into(),
                reason: "no header line".into()
            }
        );
    }

    #[test]
    fn store_errors_chain_sources() {
        let e = StoreError::io("p", std::io::Error::other("disk on fire"));
        assert!(e.source().unwrap().to_string().contains("disk on fire"));
        let e = StoreError::Corrupt {
            path: "p".into(),
            reason: "body hashes to 1, header says 2".into(),
        };
        assert!(e.source().is_none(), "corruption is the root cause");
        assert!(e.to_string().contains("corrupt artifact at p: body hashes"));
    }

    #[test]
    fn json_error_displays_offset() {
        let e = JsonError {
            offset: 7,
            message: "expected ':'".into(),
        };
        assert_eq!(e.to_string(), "json error at byte 7: expected ':'");
    }
}
