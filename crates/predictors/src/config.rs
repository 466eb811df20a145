//! Declarative predictor configuration.
//!
//! The experiment harness sweeps predictor kind × size; [`PredictorConfig`]
//! is the serializable description of one point of that grid and
//! [`PredictorConfig::build`] instantiates the simulator.

use crate::{
    Agree, AnyPredictor, BiMode, Bimodal, DynamicPredictor, EGskew, Ghist, Gselect, Gshare, Local,
    Perceptron, TageLite, Tournament, TwoBcGskew, Yags,
};
use sdbp_trace::BranchAddr;
use std::fmt;
use std::str::FromStr;

/// The dynamic prediction schemes available to experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Per-address 2-bit counters ([`Bimodal`]).
    Bimodal,
    /// Pure global-history GAg ([`Ghist`]).
    Ghist,
    /// PC ⊕ history indexing ([`Gshare`]).
    Gshare,
    /// Choice + two direction banks ([`BiMode`]).
    BiMode,
    /// Bimodal + skewed vote + meta chooser ([`TwoBcGskew`]).
    TwoBcGskew,
    /// Bias-bit agreement counters ([`Agree`]).
    Agree,
    /// Tagged exception caches ([`Yags`]).
    Yags,
    /// Raw three-bank majority vote ([`EGskew`]).
    EGskew,
    /// Bimodal + gshare with a chooser, 21264-style ([`Tournament`]).
    Tournament,
    /// Two-level per-address history, PAg ([`Local`]).
    Local,
    /// Address ∥ history concatenated index ([`Gselect`]).
    Gselect,
    /// Hashed perceptron over global history ([`Perceptron`]).
    Perceptron,
    /// Tagged geometric-history tables ([`TageLite`]).
    TageLite,
}

impl PredictorKind {
    /// All kinds, in the order the paper's figures present them followed by
    /// the related-work extensions and the post-paper frontier designs.
    pub const ALL: [PredictorKind; 13] = [
        PredictorKind::Bimodal,
        PredictorKind::Ghist,
        PredictorKind::Gshare,
        PredictorKind::BiMode,
        PredictorKind::TwoBcGskew,
        PredictorKind::Agree,
        PredictorKind::Yags,
        PredictorKind::EGskew,
        PredictorKind::Tournament,
        PredictorKind::Local,
        PredictorKind::Gselect,
        PredictorKind::Perceptron,
        PredictorKind::TageLite,
    ];

    /// The five schemes evaluated in the paper (Figures 7–12, Table 2).
    pub const PAPER: [PredictorKind; 5] = [
        PredictorKind::Bimodal,
        PredictorKind::Ghist,
        PredictorKind::Gshare,
        PredictorKind::BiMode,
        PredictorKind::TwoBcGskew,
    ];

    /// The scheme name used in reports and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Bimodal => "bimodal",
            PredictorKind::Ghist => "ghist",
            PredictorKind::Gshare => "gshare",
            PredictorKind::BiMode => "bi-mode",
            PredictorKind::TwoBcGskew => "2bcgskew",
            PredictorKind::Agree => "agree",
            PredictorKind::Yags => "yags",
            PredictorKind::EGskew => "e-gskew",
            PredictorKind::Tournament => "tournament",
            PredictorKind::Local => "local",
            PredictorKind::Gselect => "gselect",
            PredictorKind::Perceptron => "perceptron",
            PredictorKind::TageLite => "tage-lite",
        }
    }

    /// Whether the scheme keeps a global history register (and therefore
    /// participates in the paper's shift-vs-no-shift question).
    pub fn uses_global_history(self) -> bool {
        !matches!(self, PredictorKind::Bimodal | PredictorKind::Local)
    }
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PredictorKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bimodal" => Ok(PredictorKind::Bimodal),
            "ghist" | "gag" => Ok(PredictorKind::Ghist),
            "gshare" => Ok(PredictorKind::Gshare),
            "bi-mode" | "bimode" => Ok(PredictorKind::BiMode),
            "2bcgskew" | "tbcgskew" => Ok(PredictorKind::TwoBcGskew),
            "agree" => Ok(PredictorKind::Agree),
            "yags" => Ok(PredictorKind::Yags),
            "e-gskew" | "egskew" => Ok(PredictorKind::EGskew),
            "tournament" | "21264" => Ok(PredictorKind::Tournament),
            "local" | "pag" => Ok(PredictorKind::Local),
            "gselect" => Ok(PredictorKind::Gselect),
            "perceptron" => Ok(PredictorKind::Perceptron),
            "tage-lite" | "tagelite" | "tage" => Ok(PredictorKind::TageLite),
            other => Err(ConfigError::UnknownKind(other.to_string())),
        }
    }
}

/// How far static aliasing analysis can see into a predictor's index
/// functions — the one capability source consulted by `sdbp check`, the
/// profiles crate and the CLI (see
/// [`PredictorConfig::index_capability`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexCapability {
    /// Every index bit is an XOR of PC/history bits plus a constant
    /// ([`DynamicPredictor::index_spec`] is `Some`): exact GF(2) analysis
    /// applies — collision classes can be *proven*, not sampled.
    Linear,
    /// Indices are pure functions of `(pc, history)` exposed through
    /// [`DynamicPredictor::probe_indices`] but hashed non-linearly
    /// (perceptron segment hashing, TAGE tag folding): only the sampled
    /// analysis applies.
    SampledOnly,
    /// No index function exposed at all — chooser-based hybrids and
    /// schemes indexed by mutable per-branch state.
    Opaque,
}

impl IndexCapability {
    /// Whether *any* static index analysis (exact or sampled) applies.
    pub fn is_analyzable(self) -> bool {
        !matches!(self, IndexCapability::Opaque)
    }

    /// Whether the exact GF(2) analysis applies.
    pub fn is_linear(self) -> bool {
        matches!(self, IndexCapability::Linear)
    }

    /// The capability name used in diagnostics (`linear`, `sampled-only`,
    /// `opaque`).
    pub fn name(self) -> &'static str {
        match self {
            IndexCapability::Linear => "linear",
            IndexCapability::SampledOnly => "sampled-only",
            IndexCapability::Opaque => "opaque",
        }
    }
}

impl fmt::Display for IndexCapability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from predictor configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The scheme name was not recognized.
    UnknownKind(String),
    /// The size is invalid for the scheme (must be a power of two and large
    /// enough for the scheme's bank split).
    BadSize {
        /// The scheme.
        kind: PredictorKind,
        /// The rejected size in bytes.
        size_bytes: usize,
    },
    /// A size value that is not a byte count at all (e.g. `--size huge`).
    BadSizeLiteral(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownKind(s) => write!(f, "unknown predictor kind '{s}'"),
            ConfigError::BadSize { kind, size_bytes } => {
                write!(f, "invalid size {size_bytes} bytes for {kind}")
            }
            ConfigError::BadSizeLiteral(s) => {
                write!(f, "size '{s}' is not a byte count")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// One predictor configuration: scheme plus byte budget.
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{PredictorConfig, PredictorKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = PredictorConfig::new(PredictorKind::Gshare, 16 * 1024)?;
/// let p = cfg.build();
/// assert_eq!(p.size_bytes(), 16 * 1024);
/// assert_eq!(p.name(), "gshare");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredictorConfig {
    kind: PredictorKind,
    size_bytes: usize,
}

impl PredictorConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadSize`] when `size_bytes` is not a power of two or
    /// is below the scheme's minimum (16 bytes for the multi-bank hybrids,
    /// so every bank has at least a handful of entries; 32 bytes for the
    /// frontier designs — one full perceptron weight row, or two entries in
    /// every tagged TAGE bank).
    pub fn new(kind: PredictorKind, size_bytes: usize) -> Result<Self, ConfigError> {
        let min = match kind {
            PredictorKind::Bimodal
            | PredictorKind::Ghist
            | PredictorKind::Gshare
            | PredictorKind::Gselect => 1,
            PredictorKind::Perceptron | PredictorKind::TageLite => 32,
            _ => 16,
        };
        if !size_bytes.is_power_of_two() || size_bytes < min {
            return Err(ConfigError::BadSize { kind, size_bytes });
        }
        Ok(Self { kind, size_bytes })
    }

    /// Parses a `(kind, size)` pair of command-line strings into a validated
    /// configuration — the one helper behind both the CLI's
    /// `--predictor`/`--size` options and `sdbp check`'s spec fields, so the
    /// two surfaces cannot drift.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownKind`] for an unrecognized scheme name,
    /// [`ConfigError::BadSizeLiteral`] when `size_bytes` is not an unsigned
    /// integer, and [`ConfigError::BadSize`] when the byte count is invalid
    /// for the scheme.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdbp_predictors::{PredictorConfig, PredictorKind};
    ///
    /// let cfg = PredictorConfig::parse("gshare", "16384").unwrap();
    /// assert_eq!(cfg.kind(), PredictorKind::Gshare);
    /// assert!(PredictorConfig::parse("gshare", "huge").is_err());
    /// ```
    pub fn parse(kind: &str, size_bytes: &str) -> Result<Self, ConfigError> {
        let kind: PredictorKind = kind.parse()?;
        let size = parse_size_bytes(size_bytes)?;
        Self::new(kind, size)
    }

    /// The scheme.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    /// The byte budget.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Classifies how much of this configuration's index structure static
    /// analysis can see, by building the predictor and interrogating
    /// [`DynamicPredictor::index_spec`] / [`DynamicPredictor::probe_indices`]
    /// — so the classification can never drift from what the simulators
    /// actually expose.
    pub fn index_capability(&self) -> IndexCapability {
        let predictor = self.build_any();
        if predictor.index_spec().is_some() {
            return IndexCapability::Linear;
        }
        let mut scratch = Vec::new();
        if predictor.probe_indices(BranchAddr(0), 0, &mut scratch) {
            IndexCapability::SampledOnly
        } else {
            IndexCapability::Opaque
        }
    }

    /// Instantiates the predictor simulator.
    ///
    /// For [`PredictorKind::EGskew`] the three banks split the power-of-two
    /// budget as closely as representable (each bank gets the largest power
    /// of two ≤ budget/3), so `size_bytes()` of the result may be slightly
    /// below the configured budget; every other scheme matches it exactly.
    pub fn build(&self) -> Box<dyn DynamicPredictor> {
        self.build_any().into_boxed()
    }

    /// Instantiates the predictor behind the enum-dispatched
    /// [`AnyPredictor`], the form the simulation hot path wants: the inner
    /// loop then resolves `predict_update` by discriminant match instead
    /// of a virtual call. Sizing rules are identical to
    /// [`PredictorConfig::build`].
    pub fn build_any(&self) -> AnyPredictor {
        match self.kind {
            PredictorKind::Bimodal => Bimodal::new(self.size_bytes).into(),
            PredictorKind::Ghist => Ghist::new(self.size_bytes).into(),
            PredictorKind::Gshare => Gshare::new(self.size_bytes).into(),
            PredictorKind::BiMode => BiMode::new(self.size_bytes).into(),
            PredictorKind::TwoBcGskew => TwoBcGskew::new(self.size_bytes).into(),
            PredictorKind::Agree => Agree::new(self.size_bytes).into(),
            PredictorKind::Yags => Yags::new(self.size_bytes).into(),
            PredictorKind::Gselect => Gselect::new(self.size_bytes).into(),
            PredictorKind::Tournament => Tournament::new(self.size_bytes).into(),
            PredictorKind::Local => Local::new(self.size_bytes).into(),
            PredictorKind::Perceptron => Perceptron::new(self.size_bytes).into(),
            PredictorKind::TageLite => TageLite::new(self.size_bytes).into(),
            PredictorKind::EGskew => {
                // Largest power-of-two bank that fits three times in budget.
                let per_bank = (self.size_bytes / 3).max(1);
                let per_bank = if per_bank.is_power_of_two() {
                    per_bank
                } else {
                    per_bank.next_power_of_two() >> 1
                };
                EGskew::new(3 * per_bank).into()
            }
        }
    }
}

/// Parses a byte-count literal (`"8192"`), rejecting anything that is not a
/// plain unsigned integer. Used by [`PredictorConfig::parse`] and by spec
/// parsers that need the raw count before validating it against a kind.
///
/// # Errors
///
/// [`ConfigError::BadSizeLiteral`] naming the rejected text.
pub fn parse_size_bytes(s: &str) -> Result<usize, ConfigError> {
    s.trim()
        .parse::<usize>()
        .map_err(|_| ConfigError::BadSizeLiteral(s.to_string()))
}

impl fmt::Display for PredictorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.size_bytes >= 1024 && self.size_bytes.is_multiple_of(1024) {
            write!(f, "{} {}KB", self.kind, self.size_bytes / 1024)
        } else {
            write!(f, "{} {}B", self.kind, self.size_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::BranchAddr;

    #[test]
    fn parses_all_kind_names() {
        for kind in PredictorKind::ALL {
            let parsed: PredictorKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert_eq!(
            "GAg".parse::<PredictorKind>().unwrap(),
            PredictorKind::Ghist
        );
        assert!("nonsense".parse::<PredictorKind>().is_err());
    }

    #[test]
    fn build_produces_working_predictors_of_declared_size() {
        for kind in PredictorKind::ALL {
            let cfg = PredictorConfig::new(kind, 4096).unwrap();
            let mut p = cfg.build();
            assert_eq!(p.name(), kind.name());
            // EGskew rounds its three banks down to powers of two and YAGS
            // spends part of its budget on tags; both stay within a factor
            // of two of the request. The plain table schemes match exactly.
            assert!(
                p.size_bytes() >= 2048 && p.size_bytes() <= 8192,
                "{kind}: {} bytes",
                p.size_bytes()
            );
            // Every predictor must resolve branches and shift history.
            for i in 0..100u64 {
                let pc = BranchAddr(0x1000 + 4 * (i % 10));
                p.predict_update(pc, i % 2 == 0);
                p.shift_history(i % 3 == 0);
            }
        }
    }

    #[test]
    fn parse_helper_matches_the_constructor() {
        assert_eq!(
            PredictorConfig::parse("gshare", "4096").unwrap(),
            PredictorConfig::new(PredictorKind::Gshare, 4096).unwrap()
        );
        assert_eq!(
            PredictorConfig::parse("nonsense", "4096").unwrap_err(),
            ConfigError::UnknownKind("nonsense".into())
        );
        assert_eq!(
            PredictorConfig::parse("gshare", "huge").unwrap_err(),
            ConfigError::BadSizeLiteral("huge".into())
        );
        assert!(matches!(
            PredictorConfig::parse("gshare", "3000").unwrap_err(),
            ConfigError::BadSize { .. }
        ));
        assert_eq!(parse_size_bytes(" 512 "), Ok(512));
        assert!(parse_size_bytes("-1").is_err());
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(PredictorConfig::new(PredictorKind::Gshare, 3000).is_err());
        assert!(PredictorConfig::new(PredictorKind::TwoBcGskew, 8).is_err());
        assert!(PredictorConfig::new(PredictorKind::Gshare, 0).is_err());
        assert!(PredictorConfig::new(PredictorKind::BiMode, 16).is_ok());
    }

    #[test]
    fn index_capability_classification() {
        // Linear: every index bit an XOR clause. Sampled-only: pure
        // (pc, history) functions with non-linear hashing. Opaque:
        // chooser-based hybrids and per-branch mutable state.
        for (kind, capability) in [
            (PredictorKind::Bimodal, IndexCapability::Linear),
            (PredictorKind::Ghist, IndexCapability::Linear),
            (PredictorKind::Gshare, IndexCapability::Linear),
            (PredictorKind::Gselect, IndexCapability::Linear),
            (PredictorKind::EGskew, IndexCapability::Linear),
            (PredictorKind::Perceptron, IndexCapability::SampledOnly),
            (PredictorKind::TageLite, IndexCapability::SampledOnly),
            (PredictorKind::BiMode, IndexCapability::Opaque),
            (PredictorKind::TwoBcGskew, IndexCapability::Opaque),
            (PredictorKind::Agree, IndexCapability::Opaque),
            (PredictorKind::Yags, IndexCapability::Opaque),
            (PredictorKind::Tournament, IndexCapability::Opaque),
            (PredictorKind::Local, IndexCapability::Opaque),
        ] {
            let config = PredictorConfig::new(kind, 4096).unwrap();
            assert_eq!(config.index_capability(), capability, "{kind}");
        }
        assert!(IndexCapability::Linear.is_analyzable());
        assert!(IndexCapability::SampledOnly.is_analyzable());
        assert!(!IndexCapability::Opaque.is_analyzable());
        assert!(IndexCapability::Linear.is_linear());
        assert!(!IndexCapability::SampledOnly.is_linear());
        assert_eq!(IndexCapability::SampledOnly.to_string(), "sampled-only");
    }

    #[test]
    fn history_usage_classification() {
        assert!(!PredictorKind::Bimodal.uses_global_history());
        assert!(PredictorKind::Gshare.uses_global_history());
        assert!(PredictorKind::TwoBcGskew.uses_global_history());
    }

    #[test]
    fn display_formats_sizes() {
        let cfg = PredictorConfig::new(PredictorKind::Gshare, 16 * 1024).unwrap();
        assert_eq!(cfg.to_string(), "gshare 16KB");
        let cfg = PredictorConfig::new(PredictorKind::Gshare, 512).unwrap();
        assert_eq!(cfg.to_string(), "gshare 512B");
    }

    #[test]
    fn paper_set_is_the_published_five() {
        let names: Vec<&str> = PredictorKind::PAPER.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["bimodal", "ghist", "gshare", "bi-mode", "2bcgskew"]);
    }
}
