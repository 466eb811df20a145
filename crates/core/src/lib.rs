//! Combined static + dynamic branch prediction — the paper's contribution.
//!
//! This crate assembles the substrates ([`sdbp_predictors`],
//! [`sdbp_profiles`], [`sdbp_workloads`], [`sdbp_trace`]) into the system
//! Patil & Emer evaluate:
//!
//! * [`CombinedPredictor`] — a dynamic predictor plus a static hint
//!   database. Statically predicted branches bypass the dynamic tables
//!   entirely (the aliasing-relief mechanism); a [`ShiftPolicy`] decides
//!   whether their outcomes still shift into the global history register
//!   (§4 / Table 4 of the paper).
//! * [`Simulator`] — drives a branch stream through a combined predictor,
//!   producing [`SimStats`]: MISPs/KI (the paper's headline metric),
//!   accuracy, and the constructive/destructive collision breakdown of
//!   Figures 1–6.
//! * [`ExperimentSpec`] / [`run_experiment`] / [`Lab`] — the two-phase
//!   experiment protocol (profile → select hints → measure) with
//!   self-trained, cross-trained, and merged-profile variants.
//! * [`ArtifactCache`] — thread-safe memoization of bias/accuracy profiles
//!   and generated event streams, keyed by
//!   `(benchmark, input set, seed, instruction count)`, with hit/miss
//!   counters and a bounded LRU trace store.
//! * [`Sweep`] — the parallel sweep engine that runs a grid of
//!   [`ExperimentSpec`]s across scoped worker threads sharing one
//!   [`ArtifactCache`], returning bit-identical results to a serial run,
//!   in deterministic spec order.
//! * [`RunStore`] / [`manifest`] — the durable artifact layer: an on-disk
//!   store caching profiles across processes in their text formats, one
//!   file per profile named by the digest of its run coordinates, plus an
//!   append-only `manifest.jsonl` of finished cells, each filed under its
//!   [`spec_digest`], that lets an interrupted sweep resume exactly where
//!   it stopped.
//!
//! # Examples
//!
//! A miniature of the paper's core comparison — gshare with and without
//! `Static_Acc` hints:
//!
//! ```
//! use sdbp_core::{run_experiment, ExperimentSpec, ShiftPolicy};
//! use sdbp_predictors::{PredictorConfig, PredictorKind};
//! use sdbp_profiles::SelectionScheme;
//! use sdbp_workloads::Benchmark;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = ExperimentSpec::self_trained(
//!     Benchmark::Gcc,
//!     PredictorConfig::new(PredictorKind::Gshare, 4096)?,
//!     SelectionScheme::None,
//! )
//! .with_instructions(400_000);
//! let with_static = base.clone().with_scheme(SelectionScheme::static_acc());
//!
//! let baseline = run_experiment(&base)?;
//! let improved = run_experiment(&with_static)?;
//! assert!(improved.stats.misp_per_ki() <= baseline.stats.misp_per_ki());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod combined;
pub mod experiment;
pub mod manifest;
pub mod metrics;
pub mod report;
pub mod simulator;
pub mod sweep;

#[cfg(test)]
mod proptests;

pub use analysis::{BranchAnalysis, BranchRecord};
pub use cache::{
    accuracy_profile_digest, bias_profile_digest, ArtifactCache, ArtifactKey, CacheStats,
};
pub use combined::{BranchResolution, CombinedPredictor, ShiftPolicy};
pub use experiment::{
    run_experiment, ExperimentError, ExperimentSpec, Lab, ProfileSource, SpecProblem,
};
pub use manifest::{spec_digest, ManifestEntry, ManifestError, RunManifest, RunStore};
pub use metrics::{CollisionStats, SimStats};
pub use report::Report;
pub use simulator::{MeasurePass, Simulator};
pub use sweep::{default_threads, Sweep, SweepCell, SweepResult};
