//! Dynamic branch predictor simulators with aliasing instrumentation.
//!
//! This crate implements the five dynamic predictors evaluated by Patil &
//! Emer (HPCA 2000) — [`Bimodal`], [`Ghist`] (GAg), [`Gshare`], [`BiMode`]
//! and [`TwoBcGskew`] — plus five period-appropriate designs used for
//! ablations: the related-work alias reducers [`Agree`], [`Yags`] and the
//! raw [`EGskew`] majority-vote hybrid, the 21264-style [`Tournament`]
//! combiner, and the two-level [`Local`] (PAg) predictor. Two post-paper
//! designs — the hashed [`Perceptron`] and the tagged [`TageLite`] — close
//! the "do static hints survive modern predictors?" frontier question
//! (ROADMAP item 4); see `docs/predictors.md` for the full handbook.
//!
//! All predictors:
//!
//! * are parameterized by their **hardware budget in bytes** exactly like the
//!   paper (2-bit saturating counters, so a 4 KB predictor holds 16K
//!   counters),
//! * share the [`DynamicPredictor`] trait — one `predict_update` per
//!   branch, plus `shift_history` so a combined static/dynamic scheme can
//!   decide whether statically predicted branches enter the global history
//!   (§4 of the paper),
//! * carry **collision instrumentation**: every counter has a tag recording
//!   the last branch that used it, and each lookup reports whether it aliased
//!   (the paper's simplified Young-et-al. collision definition).
//!
//! # Examples
//!
//! ```
//! use sdbp_predictors::{DynamicPredictor, Gshare};
//! use sdbp_trace::BranchAddr;
//!
//! let mut p = Gshare::new(4096); // a 4 KB gshare
//! let pc = BranchAddr(0x1200);
//! let pred = p.predict_update(pc, true);
//! assert!(pred.taken || !pred.taken); // some prediction was produced
//! assert_eq!(p.size_bytes(), 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agree;
pub mod bimodal;
pub mod bimode;
pub mod config;
pub mod counter;
pub mod dispatch;
pub mod ghist;
pub mod gselect;
pub mod gshare;
pub mod gskew;
pub mod history;
mod index_lut;
pub mod index_spec;
pub mod local;
pub mod perceptron;
pub mod skew;
pub mod table;
pub mod tage;
pub mod tbcgskew;
pub mod tournament;
pub mod traits;
pub mod yags;

pub use agree::Agree;
pub use bimodal::Bimodal;
pub use bimode::BiMode;
pub use config::{parse_size_bytes, ConfigError, IndexCapability, PredictorConfig, PredictorKind};
pub use counter::SaturatingCounter;
pub use dispatch::AnyPredictor;
pub use ghist::Ghist;
pub use gselect::Gselect;
pub use gshare::Gshare;
pub use gskew::EGskew;
pub use history::{fold_bits, HistoryRegister};
pub use index_spec::{IndexSpec, TableSpec, XorClause, MODELED_PC_BITS};
pub use local::Local;
pub use perceptron::Perceptron;
pub use table::{PredictionTable, ReferenceTable};
pub use tage::TageLite;
pub use tbcgskew::TwoBcGskew;
pub use tournament::Tournament;
pub use traits::{DynamicPredictor, Prediction};
pub use yags::Yags;

#[cfg(test)]
mod proptests;
