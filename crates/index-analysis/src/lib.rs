//! Exact GF(2) analysis of predictor index functions.
//!
//! Every classic predictor index function in this reproduction — bimodal,
//! ghist, gshare, gselect, bi-mode's three banks, the skewing hashes — is
//! affine over GF(2), and the paper's central quantity, destructive
//! aliasing, is entirely determined by those functions. This crate takes the symbolic
//! [`IndexSpec`] each linear predictor emits and derives *proofs* where
//! the sampling analyzer produces estimates:
//!
//! * [`gf2`] — the linear-algebra core: bit-mask vectors, [`Basis`]
//!   (echelonized subspaces with canonical coset representatives) and
//!   [`BitMatrix`] (row reduction, rank, kernel bases);
//! * [`facts`] — structural facts per table: guaranteed-collision PC
//!   classes (`A`'s kernel), dead history bits, rank-deficient tables,
//!   and all-history collision proofs for branch pairs;
//! * [`exact`] — the exact destructive-interference ranking, pinned
//!   bitwise-identical to `sdbp_profiles::rank_interference`'s sampled
//!   ranking on exhaustively enumerable histories.
//!
//! `sdbp check --index-analysis` renders the facts as `SDBP06x`
//! diagnostics; see `docs/index-analysis.md` for the model.
//!
//! [`IndexSpec`]: sdbp_predictors::IndexSpec

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod facts;
pub mod gf2;

pub use exact::{exact_interference, ExactHotspot, ExactRanking};
pub use facts::{analyze, proven_colliding, SpecFacts, TableFacts};
pub use gf2::{Basis, BitMatrix};
