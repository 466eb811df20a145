//! Foundation utilities for the `sdbp` simulation stack.
//!
//! The branch-prediction experiments in this workspace must be **bit-reproducible**:
//! a with-static-hints run and a without-static-hints run are only comparable when
//! they observe *exactly* the same branch stream. This crate therefore provides a
//! self-contained, seedable random-number generator ([`rng::Xoshiro256StarStar`])
//! together with the sampling distributions the synthetic workloads need
//! ([`dist`]), plus small helpers used across the workspace: online statistics
//! ([`stats`]) and plain-text table rendering ([`table`]) used by the
//! `sdbp bench` experiments.
//!
//! # Examples
//!
//! ```
//! use sdbp_util::rng::Xoshiro256StarStar;
//! use sdbp_util::dist::Zipf;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let zipf = Zipf::new(100, 0.8).expect("valid parameters");
//! let site = zipf.sample(&mut rng);
//! assert!(site < 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod rng;
pub mod stats;
pub mod table;

pub use dist::{Alias, Bernoulli, Normal, Zipf};
pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};
pub use stats::OnlineStats;
pub use table::TableWriter;
