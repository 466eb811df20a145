//! Branch trace model for the `sdbp` simulation stack.
//!
//! The original study (Patil & Emer, HPCA 2000) instrumented Alpha binaries
//! with Atom and fed every executed conditional branch into a predictor
//! simulator. This crate is the equivalent substrate: it defines the **branch
//! event** observed by predictors — program counter, taken/not-taken outcome,
//! and the number of non-branch instructions retired since the previous
//! conditional branch — along with:
//!
//! * [`Trace`] / [`TraceBuilder`] — an in-memory trace with metadata,
//! * [`BranchSource`] — a streaming abstraction so multi-billion-instruction
//!   workloads never have to be materialized,
//! * [`codec`] — a compact varint binary format and a line-oriented text
//!   format for interchange with external tools,
//! * [`import`] — format autodetection and bounded-memory streaming
//!   importers (native binary, sdbp text, `perf script` branch records), so
//!   externally captured traces flow through the same [`BranchSource`]
//!   front door as the synthetic generators,
//! * [`stats`] — per-site and whole-trace statistics (bias, CBRs/KI, …) that
//!   feed both the profile database and the paper's Table 1 / Table 5.
//!
//! # Examples
//!
//! ```
//! use sdbp_trace::{BranchAddr, BranchEvent, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! b.push(BranchEvent::new(BranchAddr(0x1000), true, 7));
//! b.push(BranchEvent::new(BranchAddr(0x1040), false, 3));
//! let trace = b.finish();
//! assert_eq!(trace.len(), 2);
//! // 2 branches + 10 interleaved non-branch instructions.
//! assert_eq!(trace.meta().total_instructions, 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod import;
pub mod source;
pub mod stats;
pub mod trace;

mod error;

pub use codec::{write_binary, write_text};
pub use error::{RecordError, TraceError};
pub use event::{BranchAddr, BranchEvent, Outcome, PcHasher, PcMap, PcSet};
pub use import::{
    autodetect, import_trace, open_path, scan_path, write_perf_text, ImportStream, TraceFormat,
    TraceScan,
};
pub use source::{
    BranchSource, InterleaveSource, IterSource, SampleSource, SkipSource, SliceSource, TakeSource,
    TeeSource,
};
pub use stats::{SiteStats, TraceStats};
pub use trace::{Trace, TraceBuilder, TraceMeta};
