//! Versioned artifacts and a key-addressed store.
//!
//! The paper's workflow is two-phase — a profiling pass produces artifacts
//! (bias profiles, accuracy profiles, hint databases) that a later
//! measurement pass consumes — and production-scale sweeps over predictor ×
//! size × scheme grids want those artifacts to be *durable*: computed once,
//! written to disk, and exchanged between runs rather than recomputed inside
//! every process. This crate is the substrate that makes them storable:
//!
//! * [`Store`] — one file per entry on disk (`objects/<aa>/<rest>`, named
//!   by the entry's key), with atomic temp-file-then-rename writes and
//!   corruption detection on read. An entry is one header line,
//!   `# <schema> <version> <body digest>`, then its text body (a profile's
//!   own text format), so a reader rejects other artifact types, other
//!   versions and bit rot with a typed [`StoreError`] instead of a panic or
//!   garbage data.
//! * [`Digest`] / [`Hasher`] — a cheap deterministic 128-bit digest (two
//!   independent FNV-1a lanes) used to key the store, to check entry bodies
//!   and to fingerprint experiment specs in run manifests.
//! * [`Json`] — a minimal JSON value with renderer and parser, used for the
//!   append-only `manifest.jsonl` run manifests (one JSON object per line),
//!   the `BENCH_*.json` records and `sdbp check --format json`.
//!
//! Like the workspace's offline `proptest` shim, everything
//! here is dependency-free by design: the build environment has no registry
//! access, so `serde` is not an option.
//!
//! # Examples
//!
//! ```
//! use sdbp_artifacts::{Digest, Store, StoreError};
//!
//! # fn main() -> Result<(), StoreError> {
//! let root = std::env::temp_dir().join(format!("sdbp-doc-store-{}", std::process::id()));
//! let store = Store::open(&root)?;
//! let key = Digest::of(b"point p");
//! store.put(key, "example-point", 1, "3 4\n")?;
//! assert_eq!(store.get(key, "example-point", 1)?.as_deref(), Some("3 4\n"));
//! // The header line names the schema; another reader's type is corruption.
//! assert!(store.get(key, "example-line", 1).is_err());
//! # std::fs::remove_dir_all(&root).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod error;
pub mod json;
pub mod store;

pub use digest::{Digest, Hasher};
pub use error::{JsonError, StoreError};
pub use json::Json;
pub use store::{Store, StoreEntry};
