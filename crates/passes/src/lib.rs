//! Composable streaming passes over branch-event streams.
//!
//! Every consumer in the stack — bias profiling, accuracy profiling, the
//! measurement simulator, diagnostics probes — ultimately walks the same
//! kind of stream: a [`BranchSource`] producing [`BranchEvent`]s. Before
//! this crate each of them owned its private traversal loop, so collecting
//! a bias profile *and* three accuracy profiles over one run meant
//! generating (or re-reading) the stream four times.
//!
//! A [`Pass`] is a chunk-at-a-time consumer (`begin` / `consume` /
//! `finish`), and a [`PassRunner`] drives **one** traversal of a source
//! through any number of passes simultaneously — *pass fusion*. Because the
//! runner pulls bounded chunks through [`BranchSource::fill_events`] (or
//! borrows whole in-memory slices via
//! [`BranchSource::drain_as_slice`] at zero copies), peak memory is bounded
//! by the chunk size even for streams that could never be materialized —
//! *bounded-memory streaming*.
//!
//! # The chunk-invariance contract
//!
//! A pass must produce **bit-identical results regardless of how the event
//! sequence is split into chunks**: `consume(&[a, b])` must be equivalent
//! to `consume(&[a]); consume(&[b])`. All passes in this workspace satisfy
//! the contract (it is pinned by proptests), which is what makes fusion a
//! pure wall-clock optimization: a fused traversal is bit-identical to
//! running each pass on its own private traversal.
//!
//! # Examples
//!
//! Count events and instructions in one traversal alongside any other pass:
//!
//! ```
//! use sdbp_passes::{Pass, PassRunner};
//! use sdbp_trace::{BranchAddr, BranchEvent, SliceSource};
//!
//! struct TakenCount(u64);
//! impl Pass for TakenCount {
//!     fn consume(&mut self, events: &[BranchEvent]) {
//!         self.0 += events.iter().filter(|e| e.taken).count() as u64;
//!     }
//! }
//!
//! let events = [
//!     BranchEvent::new(BranchAddr(0x10), true, 1),
//!     BranchEvent::new(BranchAddr(0x14), false, 1),
//! ];
//! let mut taken = TakenCount(0);
//! let stats = PassRunner::new().run(SliceSource::new(&events), &mut [&mut taken]);
//! assert_eq!(stats.events, 2);
//! assert_eq!(taken.0, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdbp_trace::{BranchEvent, BranchSource};

/// A chunk-at-a-time consumer of a branch-event stream.
///
/// The trait is object-safe so a [`PassRunner`] can drive a heterogeneous
/// set of passes (`&mut [&mut dyn Pass]`) through one traversal. See the
/// [module docs](self) for the chunk-invariance contract every
/// implementation must uphold.
///
/// # Examples
///
/// Only [`consume`](Pass::consume) is required; a minimal pass is a struct
/// holding its accumulator:
///
/// ```
/// use sdbp_passes::Pass;
/// use sdbp_trace::{BranchAddr, BranchEvent};
///
/// #[derive(Default)]
/// struct Instructions(u64);
/// impl Pass for Instructions {
///     fn consume(&mut self, events: &[BranchEvent]) {
///         self.0 += events.iter().map(|e| 1 + u64::from(e.gap)).sum::<u64>();
///     }
///     fn name(&self) -> &str {
///         "instructions"
///     }
/// }
///
/// let mut pass = Instructions::default();
/// // Chunk-invariance: one chunk of two events...
/// pass.consume(&[
///     BranchEvent::new(BranchAddr(0x10), true, 3),
///     BranchEvent::new(BranchAddr(0x14), false, 5),
/// ]);
/// // ...must equal two chunks of one.
/// let mut split = Instructions::default();
/// split.consume(&[BranchEvent::new(BranchAddr(0x10), true, 3)]);
/// split.consume(&[BranchEvent::new(BranchAddr(0x14), false, 5)]);
/// assert_eq!(pass.0, split.0);
/// ```
pub trait Pass {
    /// Called once before the first chunk. Default: nothing.
    fn begin(&mut self) {}

    /// Feeds one chunk of consecutive events. Chunks arrive in stream
    /// order; their concatenation is exactly the event sequence of the
    /// traversed source.
    fn consume(&mut self, events: &[BranchEvent]);

    /// Called once after the last chunk. Default: nothing.
    fn finish(&mut self) {}

    /// A short label for diagnostics. Default: `"<pass>"`.
    fn name(&self) -> &str {
        "<pass>"
    }
}

impl<P: Pass + ?Sized> Pass for &mut P {
    fn begin(&mut self) {
        (**self).begin()
    }

    fn consume(&mut self, events: &[BranchEvent]) {
        (**self).consume(events)
    }

    fn finish(&mut self) {
        (**self).finish()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A [`Pass`] wrapping a per-chunk closure — the cheapest way to bolt ad-hoc
/// instrumentation onto a traversal next to the structured passes.
///
/// ```
/// use sdbp_passes::{FnPass, PassRunner};
/// use sdbp_trace::{BranchAddr, BranchEvent, SliceSource};
///
/// let events = [BranchEvent::new(BranchAddr(0x10), true, 3)];
/// let mut seen = 0u64;
/// let mut probe = FnPass::new("probe", |chunk: &[BranchEvent]| seen += chunk.len() as u64);
/// PassRunner::new().run(SliceSource::new(&events), &mut [&mut probe]);
/// drop(probe);
/// assert_eq!(seen, 1);
/// ```
pub struct FnPass<F> {
    name: String,
    f: F,
}

impl<F: FnMut(&[BranchEvent])> FnPass<F> {
    /// Wraps `f` with a diagnostic label.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        Self {
            name: name.into(),
            f,
        }
    }
}

impl<F: FnMut(&[BranchEvent])> Pass for FnPass<F> {
    fn consume(&mut self, events: &[BranchEvent]) {
        (self.f)(events)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// What one traversal covered, as observed by the runner itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Events fed to every pass.
    pub events: u64,
    /// Instructions those events account for (gap + the branch itself).
    pub instructions: u64,
    /// Chunks the stream was split into.
    pub chunks: u64,
    /// Passes driven.
    pub passes: usize,
}

/// Events pulled per chunk when the source is not slice-backed; also the
/// upper bound on chunk length handed to passes. Matches the simulator's
/// internal batch size so the batched predictor kernels run at full width.
pub const DEFAULT_CHUNK: usize = 4096;

/// Drives one traversal of a [`BranchSource`] through N [`Pass`]es.
///
/// In-memory sources hand over their whole remainder through
/// [`BranchSource::drain_as_slice`] and are re-chunked without copying;
/// everything else is pulled through [`BranchSource::fill_events`] into a
/// single reusable buffer of at most the chunk size — the traversal's peak
/// memory is `chunk_size * size_of::<BranchEvent>()` no matter how long the
/// stream runs.
#[derive(Debug, Clone)]
pub struct PassRunner {
    chunk: usize,
}

impl Default for PassRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl PassRunner {
    /// A runner with the default chunk size ([`DEFAULT_CHUNK`]).
    pub fn new() -> Self {
        Self {
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Overrides the chunk size (clamped to at least 1). Results are
    /// unaffected — passes are chunk-invariant — only memory/latency change.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// The configured chunk size.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Runs `source` to exhaustion through every pass, in order, and
    /// returns what the traversal covered.
    ///
    /// Each chunk is handed to the passes in slice order, so a pass never
    /// sees events out of stream order and all passes see identical chunks.
    pub fn run<S: BranchSource>(
        &self,
        mut source: S,
        passes: &mut [&mut dyn Pass],
    ) -> TraversalStats {
        let mut stats = TraversalStats {
            passes: passes.len(),
            ..TraversalStats::default()
        };
        for pass in passes.iter_mut() {
            pass.begin();
        }
        if let Some(events) = source.drain_as_slice() {
            for chunk in events.chunks(self.chunk) {
                self.feed(chunk, passes, &mut stats);
            }
        } else {
            let mut buf = Vec::with_capacity(self.chunk);
            loop {
                buf.clear();
                if source.fill_events(&mut buf, self.chunk) == 0 {
                    break;
                }
                self.feed(&buf, passes, &mut stats);
            }
        }
        for pass in passes.iter_mut() {
            pass.finish();
        }
        stats
    }

    fn feed(
        &self,
        chunk: &[BranchEvent],
        passes: &mut [&mut dyn Pass],
        stats: &mut TraversalStats,
    ) {
        stats.chunks += 1;
        stats.events += chunk.len() as u64;
        stats.instructions += chunk.iter().map(|e| e.instructions()).sum::<u64>();
        for pass in passes.iter_mut() {
            pass.consume(chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::{BranchAddr, BranchSource, SliceSource};

    fn ev(pc: u64, taken: bool, gap: u32) -> BranchEvent {
        BranchEvent::new(BranchAddr(pc), taken, gap)
    }

    /// Records every chunk boundary and the concatenated event sequence.
    #[derive(Default)]
    struct Recorder {
        began: u32,
        finished: u32,
        chunk_lens: Vec<usize>,
        events: Vec<BranchEvent>,
    }

    impl Pass for Recorder {
        fn begin(&mut self) {
            self.began += 1;
        }

        fn consume(&mut self, events: &[BranchEvent]) {
            self.chunk_lens.push(events.len());
            self.events.extend_from_slice(events);
        }

        fn finish(&mut self) {
            self.finished += 1;
        }

        fn name(&self) -> &str {
            "recorder"
        }
    }

    fn sample(n: usize) -> Vec<BranchEvent> {
        (0..n)
            .map(|i| ev(0x40 + (i as u64 % 7) * 4, i % 3 == 0, (i % 5) as u32))
            .collect()
    }

    #[test]
    fn lifecycle_runs_once_even_for_empty_streams() {
        let mut r = Recorder::default();
        let stats = PassRunner::new().run(SliceSource::new(&[]), &mut [&mut r]);
        assert_eq!((r.began, r.finished), (1, 1));
        assert!(r.chunk_lens.is_empty());
        assert_eq!(stats.events, 0);
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.passes, 1);
    }

    #[test]
    fn every_pass_sees_the_whole_stream_in_order() {
        let events = sample(100);
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        let stats = PassRunner::new()
            .with_chunk(7)
            .run(SliceSource::new(&events), &mut [&mut a, &mut b]);
        assert_eq!(a.events, events);
        assert_eq!(b.events, events);
        assert_eq!(a.chunk_lens, b.chunk_lens, "passes see identical chunks");
        assert_eq!(stats.events, 100);
        assert_eq!(stats.passes, 2);
        assert_eq!(
            stats.instructions,
            events.iter().map(|e| e.instructions()).sum::<u64>()
        );
    }

    #[test]
    fn slice_and_chunked_paths_deliver_the_same_sequence() {
        let events = sample(1000);
        let mut sliced = Recorder::default();
        let mut pulled = Recorder::default();
        let s1 = PassRunner::new()
            .with_chunk(64)
            .run(SliceSource::new(&events), &mut [&mut sliced]);
        // A budget cap is not slice-backed, so the runner pulls chunks.
        let s2 = PassRunner::new().with_chunk(64).run(
            SliceSource::new(&events).take_instructions(u64::MAX),
            &mut [&mut pulled],
        );
        assert_eq!(sliced.events, pulled.events);
        assert_eq!(s1, s2, "both paths report identical traversal stats");
        // 1000 events at chunk 64: 15 full chunks + a 40-event tail.
        assert_eq!(s1.chunks, 16);
    }

    #[test]
    fn chunk_size_is_an_upper_bound() {
        let events = sample(130);
        let mut r = Recorder::default();
        PassRunner::new()
            .with_chunk(50)
            .run(SliceSource::new(&events), &mut [&mut r]);
        assert!(r.chunk_lens.iter().all(|&n| n <= 50));
        assert_eq!(r.chunk_lens.iter().sum::<usize>(), 130);
    }

    #[test]
    fn zero_chunk_clamps_to_one() {
        let runner = PassRunner::new().with_chunk(0);
        assert_eq!(runner.chunk(), 1);
        let events = sample(3);
        let mut r = Recorder::default();
        let stats = runner.run(SliceSource::new(&events), &mut [&mut r]);
        assert_eq!(stats.chunks, 3, "one event per chunk");
        assert_eq!(r.events, events);
    }

    #[test]
    fn fn_pass_and_mut_ref_forwarding() {
        let events = sample(10);
        let mut seen = 0u64;
        let mut probe = FnPass::new("probe", |chunk: &[BranchEvent]| seen += chunk.len() as u64);
        {
            // Drive through the &mut forwarding impl.
            let mut by_ref: &mut dyn Pass = &mut probe;
            assert_eq!(by_ref.name(), "probe");
            PassRunner::new().run(SliceSource::new(&events), &mut [&mut by_ref]);
        }
        drop(probe);
        assert_eq!(seen, 10);
    }

    #[test]
    fn default_pass_name_is_anonymous() {
        struct Nop;
        impl Pass for Nop {
            fn consume(&mut self, _: &[BranchEvent]) {}
        }
        assert_eq!(Nop.name(), "<pass>");
    }

    #[test]
    fn lockstep_members_match_sequential_runs_exactly() {
        let events = sample(500);
        // Lockstep: three members ride one traversal.
        let mut m1 = Recorder::default();
        let mut m2 = Recorder::default();
        let mut m3 = Recorder::default();
        let shared = PassRunner::new()
            .with_chunk(13)
            .run(SliceSource::new(&events), &mut [&mut m1, &mut m2, &mut m3]);
        assert_eq!(shared.passes, 3);
        assert_eq!(shared.events, 500);
        // Sequential: each member gets a dedicated traversal.
        for member in [&m1, &m2, &m3] {
            let mut solo = Recorder::default();
            let stats = PassRunner::new()
                .with_chunk(13)
                .run(SliceSource::new(&events), &mut [&mut solo]);
            assert_eq!(member.events, solo.events, "event sequence diverged");
            assert_eq!(member.chunk_lens, solo.chunk_lens, "chunking diverged");
            assert_eq!((member.began, member.finished), (1, 1));
            assert_eq!(stats.events, shared.events);
            assert_eq!(stats.chunks, shared.chunks);
            assert_eq!(stats.instructions, shared.instructions);
        }
    }
}
