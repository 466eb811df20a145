//! CLI failure classification: what went wrong decides the exit code.

use sdbp_core::ExperimentError;
use std::fmt;

/// A failed `sdbp` command, classified for the process exit code.
///
/// The shell contract: `2` means the *invocation* was wrong (fix the
/// command line), `3` means the on-disk artifact store is damaged (fix or
/// `sdbp artifact gc` the store), `1` means the command itself failed
/// (simulation error, failed check, unwritable output).
#[derive(Debug)]
pub enum CliError {
    /// The user asked for something unparseable: unknown command, bad
    /// option value, missing required option. Exit code 2.
    Usage(String),
    /// The durable artifact store (or a manifest in it) is corrupt.
    /// Exit code 3.
    Store(String),
    /// Everything else: I/O trouble, simulation failures, diagnostics
    /// that did not pass. Exit code 1.
    Failure(String),
}

impl CliError {
    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Store(_) => 3,
            CliError::Failure(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Store(msg) | CliError::Failure(msg) => {
                f.write_str(msg)
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failure(msg)
    }
}

impl From<ExperimentError> for CliError {
    fn from(e: ExperimentError) -> Self {
        match &e {
            ExperimentError::StoreCorrupt { .. } => CliError::Store(e.to_string()),
            _ => CliError::Failure(e.to_string()),
        }
    }
}

impl From<sdbp_artifacts::StoreError> for CliError {
    fn from(e: sdbp_artifacts::StoreError) -> Self {
        match &e {
            sdbp_artifacts::StoreError::Corrupt { .. } => CliError::Store(e.to_string()),
            _ => CliError::Failure(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_shell_contract() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Store("x".into()).exit_code(), 3);
        assert_eq!(CliError::Failure("x".into()).exit_code(), 1);
    }

    #[test]
    fn experiment_errors_classify_by_variant() {
        let corrupt = ExperimentError::StoreCorrupt {
            path: "objects/ab/cd".into(),
            reason: "missing '# <schema> <version>' header line".into(),
        };
        assert_eq!(CliError::from(corrupt).exit_code(), 3);
        let rejected = ExperimentError::Rejected {
            reason: "nope".into(),
        };
        assert_eq!(CliError::from(rejected).exit_code(), 1);
    }
}
