//! # sdbp — Combining Static and Dynamic Branch Prediction to Reduce Destructive Aliasing
//!
//! A full Rust reproduction of Patil & Emer's HPCA 2000 study. Dynamic
//! branch predictors lose accuracy when two differently-behaving branches
//! share a counter (*destructive aliasing*); the paper shows that statically
//! predicting a profile-selected subset of branches — so they never touch
//! the dynamic tables — relieves that pressure. This workspace rebuilds the
//! whole experimental apparatus:
//!
//! * [`predictors`] — the five dynamic predictors the paper evaluates
//!   (bimodal, ghist/GAg, gshare, bi-mode, 2bcgskew) plus three
//!   related-work designs (agree, YAGS, e-gskew), all byte-budgeted and
//!   instrumented for collision counting;
//! * [`workloads`] — six synthetic SPECINT95-like benchmark models
//!   calibrated to the paper's Table 1/2/5 characteristics (the original
//!   Alpha binaries and Atom tracing are unavailable — see `DESIGN.md` §3);
//! * [`profiles`] — bias/accuracy profiling, the Spike-like mergeable
//!   profile database, and the `Static_95` / `Static_Acc` selection schemes
//!   (plus `Static_Fac` and the paper's future-work collision-aware
//!   scheme);
//! * [`core`] — the combined static+dynamic predictor, the MISPs/KI
//!   simulator with constructive/destructive collision classification, and
//!   the two-phase experiment runner;
//! * [`trace`] — the branch-event model, streaming sources, and trace
//!   codecs; [`passes`] — the composable streaming pass framework every
//!   trace consumer runs on (one traversal, many fused consumers);
//!   [`util`] — deterministic RNG and table rendering.
//!
//! The `sdbp-bench` crate regenerates every table and figure of the paper
//! through the `sdbp` CLI (`sdbp-cli`): `sdbp bench all_experiments`
//! writes them all, and the CLI's other commands drive individual
//! simulations.
//!
//! # Quickstart
//!
//! Measure how much `Static_Acc` hints help a 4 KB gshare on the gcc model:
//!
//! ```
//! use sdbp::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = ExperimentSpec::self_trained(
//!     Benchmark::Gcc,
//!     PredictorConfig::new(PredictorKind::Gshare, 4096)?,
//!     SelectionScheme::None,
//! )
//! .with_instructions(300_000);
//!
//! let baseline = run_experiment(&base)?;
//! let improved = run_experiment(&base.clone().with_scheme(SelectionScheme::static_acc()))?;
//!
//! assert!(improved.stats.misp_per_ki() < baseline.stats.misp_per_ki());
//! println!(
//!     "gshare 4KB on gcc: {:.2} -> {:.2} MISPs/KI",
//!     baseline.stats.misp_per_ki(),
//!     improved.stats.misp_per_ki()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sdbp_core as core;
pub use sdbp_passes as passes;
pub use sdbp_predictors as predictors;
pub use sdbp_profiles as profiles;
pub use sdbp_trace as trace;
pub use sdbp_util as util;
pub use sdbp_workloads as workloads;

/// The most commonly used items, re-exported flat.
///
/// ```
/// use sdbp::prelude::*;
///
/// let w = Workload::spec95(Benchmark::Compress);
/// assert_eq!(w.spec().name, "compress");
/// ```
pub mod prelude {
    pub use sdbp_core::{
        run_experiment, ArtifactCache, BranchAnalysis, BranchRecord, BranchResolution,
        CombinedPredictor, ExperimentSpec, Lab, ProfileSource, Report, ShiftPolicy, SimStats,
        Simulator, Sweep, SweepResult,
    };
    pub use sdbp_passes::{Pass, PassRunner};
    pub use sdbp_predictors::{
        Agree, BiMode, Bimodal, DynamicPredictor, EGskew, Ghist, Gselect, Gshare, Local,
        Prediction, PredictorConfig, PredictorKind, Tournament, TwoBcGskew, Yags,
    };
    pub use sdbp_profiles::{
        AccuracyProfile, BiasProfile, HintDatabase, ProfileDatabase, SelectionScheme,
    };
    pub use sdbp_trace::{
        BranchAddr, BranchEvent, BranchSource, Outcome, SliceSource, Trace, TraceBuilder,
        TraceStats,
    };
    pub use sdbp_workloads::{Benchmark, BranchBehavior, InputSet, Workload, WorkloadGenerator};
}
