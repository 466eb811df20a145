//! Versioned artifact serialization and a content-addressed store.
//!
//! The paper's workflow is two-phase — a profiling pass produces artifacts
//! (bias profiles, accuracy profiles, hint databases) that a later
//! measurement pass consumes — and production-scale sweeps over predictor ×
//! size × scheme grids want those artifacts to be *durable*: computed once,
//! written to disk, and exchanged between runs rather than recomputed inside
//! every process. This crate is the serialization substrate that makes the
//! rest of the workspace's types storable:
//!
//! * [`Codec`] — a derive-free, hand-rolled binary serialization trait.
//!   Every artifact travels in a self-describing envelope (`SDBA` magic,
//!   schema name, schema version, payload length, FNV-1a checksum), so a
//!   reader can reject foreign files, future schema versions, and bit rot
//!   with a typed [`CodecError`] instead of a panic or garbage data.
//! * [`Digest`] / [`Hasher`] — a cheap deterministic 128-bit content digest
//!   (two independent FNV-1a lanes) used to key the store and to fingerprint
//!   experiment specs in run manifests.
//! * [`Store`] — a content-addressed object store on disk
//!   (`objects/<aa>/<rest>`), with atomic temp-file-then-rename writes and
//!   corruption detection on read.
//! * [`Json`] — a minimal JSON value with renderer and parser, used for the
//!   append-only `manifest.jsonl` run manifests (one JSON object per line),
//!   the `BENCH_*.json` records and `sdbp check --format json`.
//!
//! Like the workspace's offline `proptest` shim, everything
//! here is dependency-free by design: the build environment has no registry
//! access, so `serde` is not an option. The codecs are small, explicit, and
//! schema-versioned so stored artifacts survive code evolution.
//!
//! # Examples
//!
//! ```
//! use sdbp_artifacts::{Codec, CodecError, Decoder, Encoder};
//!
//! struct Point {
//!     x: u64,
//!     y: u64,
//! }
//!
//! impl Codec for Point {
//!     const SCHEMA: &'static str = "example-point";
//!     const VERSION: u32 = 1;
//!     fn encode_payload(&self, e: &mut Encoder) {
//!         e.u64(self.x);
//!         e.u64(self.y);
//!     }
//!     fn decode_payload(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
//!         Ok(Point {
//!             x: d.u64("x")?,
//!             y: d.u64("y")?,
//!         })
//!     }
//! }
//!
//! let bytes = Point { x: 3, y: 4 }.to_bytes();
//! let back = Point::from_bytes(&bytes).unwrap();
//! assert_eq!((back.x, back.y), (3, 4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod digest;
pub mod error;
pub mod json;
pub mod store;

pub use codec::{peek_schema, Codec, Decoder, Encoder, MAGIC};
pub use digest::{Digest, Hasher};
pub use error::{CodecError, JsonError, StoreError};
pub use json::Json;
pub use store::{Store, StoreEntry};
