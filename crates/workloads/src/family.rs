//! Workload families: the taxonomy axis above individual benchmarks.
//!
//! The paper evaluates six SPECINT95 programs; ROADMAP item 2 asks where
//! static hints help on workloads the paper never saw. Families group
//! benchmarks whose branch streams are *comparable* — aggregating Mbr/s or
//! MISPs/KI across families would average incommensurable streams, so
//! `BENCH_families.json` reports per family.
//!
//! * [`WorkloadFamily::Spec95`] — the paper's six calibrated models.
//! * [`WorkloadFamily::Server`] — high CBR/KI, flat biases, and
//!   context-switch interleaving of several processes (the classic
//!   server-workload aliasing stressor).
//! * [`WorkloadFamily::H2p`] — hard-to-predict branches per Lin & Tarsa's
//!   taxonomy ("Branch Prediction Is Not a Solved Problem"): rare,
//!   data-dependent, history-resistant.
//! * [`WorkloadFamily::Imported`] — externally captured traces admitted
//!   through [`crate::imports`].

use std::fmt;
use std::str::FromStr;

/// The family a benchmark's branch stream belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadFamily {
    /// The six calibrated SPECINT95 models from the paper.
    Spec95,
    /// Server-style: high CBR/KI, flat biases, context-switch interleaving.
    Server,
    /// Hard-to-predict: rare, data-dependent, history-resistant branches.
    H2p,
    /// Externally captured traces ingested through the importer seam.
    Imported,
}

impl WorkloadFamily {
    /// All families, in report order.
    pub const ALL: [WorkloadFamily; 4] = [
        WorkloadFamily::Spec95,
        WorkloadFamily::Server,
        WorkloadFamily::H2p,
        WorkloadFamily::Imported,
    ];

    /// Stable lowercase name used in CLI flags, manifests, and reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadFamily::Spec95 => "spec95",
            WorkloadFamily::Server => "server",
            WorkloadFamily::H2p => "h2p",
            WorkloadFamily::Imported => "imported",
        }
    }
}

impl fmt::Display for WorkloadFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for WorkloadFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "spec95" | "specint95" => Ok(WorkloadFamily::Spec95),
            "server" => Ok(WorkloadFamily::Server),
            "h2p" => Ok(WorkloadFamily::H2p),
            "imported" => Ok(WorkloadFamily::Imported),
            other => Err(format!(
                "unknown workload family '{other}', expected spec95, server, h2p, or imported"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for f in WorkloadFamily::ALL {
            assert_eq!(f.name().parse::<WorkloadFamily>().unwrap(), f);
        }
        assert_eq!(
            "specint95".parse::<WorkloadFamily>().unwrap(),
            WorkloadFamily::Spec95
        );
        assert!("desktop".parse::<WorkloadFamily>().is_err());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(WorkloadFamily::H2p.to_string(), "h2p");
        assert_eq!(WorkloadFamily::Server.to_string(), "server");
    }
}
