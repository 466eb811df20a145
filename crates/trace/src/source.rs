//! Streaming branch-event sources.
//!
//! The paper's runs cover up to 63 billion instructions; materializing such a
//! trace is out of the question. [`BranchSource`] is the pull-based stream
//! interface every simulator component consumes: workload generators
//! implement it directly, and in-memory traces adapt to it via
//! [`SliceSource`].

use crate::event::BranchEvent;
use crate::trace::Trace;

/// A pull-based stream of branch events.
///
/// Implementors produce events until the underlying workload is exhausted.
/// Unlike `Iterator`, the trait is object-safe with a tiny surface so
/// predicate simulators can hold `&mut dyn BranchSource`.
///
/// # Examples
///
/// ```
/// use sdbp_trace::{BranchAddr, BranchEvent, BranchSource, SliceSource};
///
/// let events = [BranchEvent::new(BranchAddr(0x10), true, 1)];
/// let mut src = SliceSource::new(&events);
/// assert!(src.next_event().is_some());
/// assert!(src.next_event().is_none());
/// ```
pub trait BranchSource {
    /// Produces the next branch event, or `None` when the stream ends.
    fn next_event(&mut self) -> Option<BranchEvent>;

    /// Appends up to `max` events to `buf`, returning how many were added.
    ///
    /// Returns 0 only when `max` is 0 or the stream is exhausted. The
    /// concatenation of the appended chunks is exactly the sequence repeated
    /// [`next_event`](BranchSource::next_event) calls would produce; the
    /// default implementation literally loops `next_event`, so existing
    /// sources inherit the chunked API for free. Sources with cheap bulk
    /// access (slices, the synthetic workload generators) override it so
    /// the simulator's hot loop amortizes per-event call overhead.
    ///
    /// Callers reuse one buffer across pulls (`clear()` between them) so
    /// the steady state allocates nothing.
    fn fill_events(&mut self, buf: &mut Vec<BranchEvent>, max: usize) -> usize {
        let mut filled = 0;
        while filled < max {
            match self.next_event() {
                Some(e) => {
                    buf.push(e);
                    filled += 1;
                }
                None => break,
            }
        }
        filled
    }

    /// Consumes the whole remaining stream, returning it as one borrowed
    /// slice — or `None` when the source is not slice-backed.
    ///
    /// The returned slice is exactly the sequence repeated
    /// [`next_event`](BranchSource::next_event) calls would have produced;
    /// afterwards the source is exhausted. Consumers with a per-event loop
    /// (the simulator) use this to skip chunked buffering entirely for
    /// in-memory traces. The default returns `None`, which is always
    /// correct: callers must fall back to
    /// [`fill_events`](BranchSource::fill_events).
    fn drain_as_slice(&mut self) -> Option<&[BranchEvent]> {
        None
    }

    /// A human-readable label for reports. Defaults to `"<anonymous>"`.
    fn label(&self) -> &str {
        "<anonymous>"
    }

    /// Caps this source at roughly `max_instructions` retired instructions.
    ///
    /// The stream ends at the first event that would push the running
    /// instruction total past the cap (that event is not emitted).
    fn take_instructions(self, max_instructions: u64) -> TakeSource<Self>
    where
        Self: Sized,
    {
        TakeSource {
            inner: self,
            remaining: max_instructions,
        }
    }

    /// Drops the stream's first `instructions` — the mirror image of
    /// [`take_instructions`](BranchSource::take_instructions), used to cut
    /// cold-start out of a profiling stream.
    ///
    /// Boundary rule (matching the simulator's warm-up attribution): an
    /// event is skipped iff the running instruction total *including it*
    /// stays ≤ the budget; the first event to cross the budget is emitted.
    /// Every event therefore lands in exactly one of the skipped and
    /// emitted windows.
    fn skip_instructions(self, instructions: u64) -> SkipSource<Self>
    where
        Self: Sized,
    {
        SkipSource {
            inner: self,
            remaining: instructions,
        }
    }

    /// Systematic 1-in-`period` sampling: emits the first event of every
    /// `period`-event window (a `period` of 0 or 1 is the identity).
    ///
    /// Sampling preserves per-branch *rates* (bias, taken-rate) in
    /// expectation but scales down every absolute count — use it to cheapen
    /// estimates, never for instruction-budget accounting.
    fn sample(self, period: u64) -> SampleSource<Self>
    where
        Self: Sized,
    {
        SampleSource {
            inner: self,
            period: period.max(1),
            pos: 0,
        }
    }

    /// Collects the whole stream into an in-memory [`Trace`].
    ///
    /// Intended for tests and small experiments; the instruction total of the
    /// result is recomputed from the collected events.
    fn collect_trace(mut self) -> Trace
    where
        Self: Sized,
    {
        let mut builder = crate::trace::TraceBuilder::named(self.label());
        while let Some(e) = self.next_event() {
            builder.push(e);
        }
        builder.finish()
    }
}

impl<S: BranchSource + ?Sized> BranchSource for &mut S {
    fn next_event(&mut self) -> Option<BranchEvent> {
        (**self).next_event()
    }

    fn fill_events(&mut self, buf: &mut Vec<BranchEvent>, max: usize) -> usize {
        (**self).fill_events(buf, max)
    }

    fn drain_as_slice(&mut self) -> Option<&[BranchEvent]> {
        (**self).drain_as_slice()
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

/// Adapts a slice of events (or an in-memory [`Trace`]) to [`BranchSource`].
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    events: &'a [BranchEvent],
    pos: usize,
    label: &'a str,
}

impl<'a> SliceSource<'a> {
    /// Streams over a borrowed slice of events.
    pub fn new(events: &'a [BranchEvent]) -> Self {
        Self {
            events,
            pos: 0,
            label: "<slice>",
        }
    }

    /// Streams over the events of a borrowed trace, inheriting its name.
    pub fn from_trace(trace: &'a Trace) -> Self {
        Self {
            events: trace.events(),
            pos: 0,
            label: &trace.meta().name,
        }
    }

    /// Events not yet consumed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.pos
    }
}

impl BranchSource for SliceSource<'_> {
    fn next_event(&mut self) -> Option<BranchEvent> {
        let e = self.events.get(self.pos)?;
        self.pos += 1;
        Some(*e)
    }

    fn fill_events(&mut self, buf: &mut Vec<BranchEvent>, max: usize) -> usize {
        let n = max.min(self.events.len() - self.pos);
        buf.extend_from_slice(&self.events[self.pos..self.pos + n]);
        self.pos += n;
        n
    }

    fn drain_as_slice(&mut self) -> Option<&[BranchEvent]> {
        let rest = &self.events[self.pos..];
        self.pos = self.events.len();
        Some(rest)
    }

    fn label(&self) -> &str {
        self.label
    }
}

/// A source capped at an instruction budget; see
/// [`BranchSource::take_instructions`].
#[derive(Debug, Clone)]
pub struct TakeSource<S> {
    inner: S,
    remaining: u64,
}

impl<S: BranchSource> BranchSource for TakeSource<S> {
    fn next_event(&mut self) -> Option<BranchEvent> {
        let e = self.inner.next_event()?;
        let cost = e.instructions();
        if cost > self.remaining {
            self.remaining = 0;
            return None;
        }
        self.remaining -= cost;
        Some(e)
    }

    fn fill_events(&mut self, buf: &mut Vec<BranchEvent>, max: usize) -> usize {
        if self.remaining == 0 {
            return 0;
        }
        let start = buf.len();
        let pulled = self.inner.fill_events(buf, max);
        for k in 0..pulled {
            let cost = buf[start + k].instructions();
            if cost > self.remaining {
                // The straddling event is consumed but not emitted — the
                // one-at-a-time contract. On a chunked pull the rest of the
                // chunk is likewise discarded; the *emitted* sequence is
                // identical either way.
                self.remaining = 0;
                buf.truncate(start + k);
                return k;
            }
            self.remaining -= cost;
        }
        pulled
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// A source dropping an instruction-budget prefix; see
/// [`BranchSource::skip_instructions`].
#[derive(Debug, Clone)]
pub struct SkipSource<S> {
    inner: S,
    remaining: u64,
}

impl<S: BranchSource> BranchSource for SkipSource<S> {
    fn next_event(&mut self) -> Option<BranchEvent> {
        loop {
            let e = self.inner.next_event()?;
            if self.remaining == 0 {
                return Some(e);
            }
            let cost = e.instructions();
            if cost > self.remaining {
                // The straddling event crosses the skip budget and is the
                // first emitted one — the simulator's warm-up rule.
                self.remaining = 0;
                return Some(e);
            }
            self.remaining -= cost;
        }
    }

    fn fill_events(&mut self, buf: &mut Vec<BranchEvent>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        if self.remaining > 0 {
            // Fast-forward event by event until the first emitted one, then
            // hand the rest of the pull to the inner bulk path.
            let Some(first) = self.next_event() else {
                return 0;
            };
            buf.push(first);
            return 1 + self.inner.fill_events(buf, max - 1);
        }
        self.inner.fill_events(buf, max)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// A source emitting one event per `period`-event window; see
/// [`BranchSource::sample`].
#[derive(Debug, Clone)]
pub struct SampleSource<S> {
    inner: S,
    period: u64,
    pos: u64,
}

impl<S: BranchSource> BranchSource for SampleSource<S> {
    fn next_event(&mut self) -> Option<BranchEvent> {
        loop {
            let e = self.inner.next_event()?;
            let emit = self.pos.is_multiple_of(self.period);
            self.pos += 1;
            if emit {
                return Some(e);
            }
        }
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// Round-robin context-switch interleaving of several sources; the
/// building block of the server workload family.
///
/// Each constituent source models one process; the interleave emits a
/// `quantum`-instruction burst from each in turn, the way a scheduler
/// timeslices processes onto one core — which is exactly what makes server
/// workloads alias-hostile: predictor state trained in one quantum is
/// clobbered during the next. Exhausted sources drop out of the rotation;
/// the stream ends when all are exhausted.
#[derive(Debug, Clone)]
pub struct InterleaveSource<S> {
    subs: Vec<S>,
    quantum: u64,
    current: usize,
    used: u64,
    label: String,
}

impl<S: BranchSource> InterleaveSource<S> {
    /// Interleaves `subs` with a scheduling quantum of `quantum`
    /// instructions (clamped to ≥ 1).
    pub fn new(subs: Vec<S>, quantum: u64) -> Self {
        let label = subs
            .first()
            .map(|s| s.label().to_string())
            .unwrap_or_else(|| "<interleave>".to_string());
        Self {
            subs,
            quantum: quantum.max(1),
            current: 0,
            used: 0,
            label,
        }
    }
}

impl<S: BranchSource> BranchSource for InterleaveSource<S> {
    fn next_event(&mut self) -> Option<BranchEvent> {
        loop {
            if self.subs.is_empty() {
                return None;
            }
            if self.current >= self.subs.len() {
                self.current = 0;
            }
            match self.subs[self.current].next_event() {
                Some(e) => {
                    self.used += e.instructions();
                    if self.used >= self.quantum {
                        // Quantum expired: context-switch to the next
                        // process after this event.
                        self.used = 0;
                        self.current += 1;
                        if self.current >= self.subs.len() {
                            self.current = 0;
                        }
                    }
                    return Some(e);
                }
                None => {
                    // Process exited; remove it and keep the rotation order.
                    self.subs.remove(self.current);
                    self.used = 0;
                }
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BranchAddr;
    use crate::trace::TraceBuilder;

    fn ev(pc: u64, gap: u32) -> BranchEvent {
        BranchEvent::new(BranchAddr(pc), true, gap)
    }

    #[test]
    fn slice_source_streams_in_order() {
        let events = [ev(0, 0), ev(4, 1), ev(8, 2)];
        let mut s = SliceSource::new(&events);
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.next_event(), Some(events[0]));
        assert_eq!(s.next_event(), Some(events[1]));
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.next_event(), Some(events[2]));
        assert_eq!(s.next_event(), None);
        assert_eq!(s.next_event(), None, "stays exhausted");
    }

    #[test]
    fn from_trace_inherits_label() {
        let mut b = TraceBuilder::named("go.train");
        b.push(ev(0, 0));
        let t = b.finish();
        let s = SliceSource::from_trace(&t);
        assert_eq!(s.label(), "go.train");
    }

    #[test]
    fn take_instructions_caps_the_stream() {
        // Each event costs gap+1 = 5 instructions.
        let events: Vec<BranchEvent> = (0..10).map(|i| ev(i * 4, 4)).collect();
        let src = SliceSource::new(&events);
        let mut capped = src.take_instructions(12);
        // 5 + 5 = 10 fits, the third event would reach 15 > 12.
        assert!(capped.next_event().is_some());
        assert!(capped.next_event().is_some());
        assert!(capped.next_event().is_none());
    }

    #[test]
    fn take_instructions_zero_is_empty() {
        let events = [ev(0, 0)];
        let mut capped = SliceSource::new(&events).take_instructions(0);
        assert!(capped.next_event().is_none());
    }

    #[test]
    fn collect_trace_rebuilds_accounting() {
        let events = [ev(0, 3), ev(4, 5)];
        let t = SliceSource::new(&events).collect_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t.meta().total_instructions, 4 + 6);
        assert_eq!(t.meta().name, "<slice>");
    }

    #[test]
    fn fill_events_matches_next_event_on_slices() {
        let events: Vec<BranchEvent> = (0..10).map(|i| ev(i * 4, i as u32)).collect();
        let mut chunked = SliceSource::new(&events);
        let mut single = SliceSource::new(&events);
        let mut buf = Vec::new();
        // Uneven chunk sizes cross the end of the stream.
        for chunk in [3usize, 1, 4, 9] {
            buf.clear();
            let n = chunked.fill_events(&mut buf, chunk);
            assert_eq!(n, buf.len());
            for e in &buf {
                assert_eq!(single.next_event().as_ref(), Some(e));
            }
        }
        assert!(single.next_event().is_none());
        assert_eq!(chunked.fill_events(&mut buf, 5), 0, "exhausted");
    }

    #[test]
    fn fill_events_appends_without_clearing() {
        let events = [ev(0, 0), ev(4, 0)];
        let mut s = SliceSource::new(&events);
        let mut buf = vec![ev(0xdead, 7)];
        assert_eq!(s.fill_events(&mut buf, 10), 2);
        assert_eq!(buf.len(), 3, "existing contents preserved");
        assert_eq!(buf[0], ev(0xdead, 7));
        assert_eq!(s.fill_events(&mut buf, 0), 0, "max 0 is a no-op");
    }

    #[test]
    fn take_source_chunked_matches_single_event_cap() {
        // Each event costs gap+1 = 5 instructions; the cap cuts mid-chunk.
        let events: Vec<BranchEvent> = (0..10).map(|i| ev(i * 4, 4)).collect();
        let mut chunked = SliceSource::new(&events).take_instructions(23);
        let mut buf = Vec::new();
        while chunked.fill_events(&mut buf, 3) > 0 {}
        let mut single = SliceSource::new(&events).take_instructions(23);
        let mut expect = Vec::new();
        while let Some(e) = single.next_event() {
            expect.push(e);
        }
        assert_eq!(buf, expect);
        assert_eq!(buf.len(), 4, "4 × 5 = 20 fits, a fifth would reach 25");
    }

    #[test]
    fn take_source_chunked_exact_budget() {
        let events: Vec<BranchEvent> = (0..4).map(|i| ev(i * 4, 4)).collect();
        let mut capped = SliceSource::new(&events).take_instructions(20);
        let mut buf = Vec::new();
        assert_eq!(capped.fill_events(&mut buf, 64), 4, "exact fit emits all");
        assert_eq!(capped.fill_events(&mut buf, 64), 0);
    }

    /// A source implementing only the required method, so every other
    /// method runs its trait default.
    struct NextOnly<'a>(SliceSource<'a>);

    impl BranchSource for NextOnly<'_> {
        fn next_event(&mut self) -> Option<BranchEvent> {
            self.0.next_event()
        }
    }

    #[test]
    fn default_fill_events_drives_next_event() {
        let events: Vec<BranchEvent> = (0..5).map(|i| ev(i * 4, 0)).collect();
        let mut s = NextOnly(SliceSource::new(&events));
        let mut buf = Vec::new();
        assert_eq!(s.fill_events(&mut buf, 3), 3);
        assert_eq!(s.fill_events(&mut buf, 3), 2);
        assert_eq!(buf.len(), 5);
        assert_eq!(buf[4].pc, BranchAddr(16));
    }

    #[test]
    fn drain_as_slice_returns_exactly_the_remainder() {
        let events: Vec<BranchEvent> = (0..6).map(|i| ev(i * 4, 0)).collect();
        let mut s = SliceSource::new(&events);
        let _ = s.next_event();
        let _ = s.next_event();
        assert_eq!(s.drain_as_slice(), Some(&events[2..]));
        assert_eq!(s.next_event(), None, "drained source is exhausted");
        assert_eq!(s.drain_as_slice(), Some(&events[6..]), "empty thereafter");
        // Non-slice-backed sources opt out.
        let mut it = NextOnly(SliceSource::new(&events));
        assert_eq!(it.drain_as_slice(), None);
        assert!(it.next_event().is_some(), "declining must not consume");
    }

    #[test]
    fn skip_instructions_complements_take() {
        // Each event costs 5 instructions. A skip budget of 12 drops the
        // first two (5, 10 ≤ 12) and emits the straddler (15 > 12) onward —
        // exactly the events a warm-up budget of 12 would measure.
        let events: Vec<BranchEvent> = (0..6).map(|i| ev(i * 4, 4)).collect();
        let mut s = SliceSource::new(&events).skip_instructions(12);
        let emitted: Vec<BranchEvent> = std::iter::from_fn(|| s.next_event()).collect();
        assert_eq!(emitted, events[2..]);
        // A budget ending exactly on an event boundary skips that event too.
        let mut s = SliceSource::new(&events).skip_instructions(10);
        assert_eq!(s.next_event(), Some(events[2]));
        // Zero skips nothing; a budget past the stream emits nothing.
        let mut s = SliceSource::new(&events).skip_instructions(0);
        assert_eq!(s.next_event(), Some(events[0]));
        let mut s = SliceSource::new(&events).skip_instructions(1_000);
        assert_eq!(s.next_event(), None);
    }

    #[test]
    fn skip_chunked_matches_single_event() {
        let events: Vec<BranchEvent> = (0..20).map(|i| ev(i * 4, (i % 4) as u32)).collect();
        for budget in [0u64, 3, 7, 10, 33, 200] {
            let mut single = SliceSource::new(&events).skip_instructions(budget);
            let mut expect = Vec::new();
            while let Some(e) = single.next_event() {
                expect.push(e);
            }
            let mut chunked = SliceSource::new(&events).skip_instructions(budget);
            let mut buf = Vec::new();
            while chunked.fill_events(&mut buf, 3) > 0 {}
            assert_eq!(buf, expect, "budget {budget}");
            assert_eq!(chunked.fill_events(&mut buf, 0), 0, "max 0 is a no-op");
        }
    }

    #[test]
    fn skip_then_take_windows_the_stream() {
        // Events cost 5 each; skip 10 then take 10 yields exactly two.
        let events: Vec<BranchEvent> = (0..8).map(|i| ev(i * 4, 4)).collect();
        let mut s = SliceSource::new(&events)
            .skip_instructions(10)
            .take_instructions(10);
        assert_eq!(s.next_event(), Some(events[2]));
        assert_eq!(s.next_event(), Some(events[3]));
        assert_eq!(s.next_event(), None);
    }

    #[test]
    fn sample_emits_one_event_per_period() {
        let events: Vec<BranchEvent> = (0..10).map(|i| ev(i * 4, 0)).collect();
        let mut s = SliceSource::new(&events).sample(3);
        let emitted: Vec<BranchEvent> = std::iter::from_fn(|| s.next_event()).collect();
        assert_eq!(emitted, vec![events[0], events[3], events[6], events[9]]);
        // Period 1 (and the clamped 0) is the identity.
        for period in [0u64, 1] {
            let mut s = SliceSource::new(&events).sample(period);
            let all: Vec<BranchEvent> = std::iter::from_fn(|| s.next_event()).collect();
            assert_eq!(all, events, "period {period}");
        }
    }

    #[test]
    fn sample_approximates_rates_not_counts() {
        // 1-in-2 sampling of an alternating branch keeps the taken-rate
        // visible while halving the event count.
        let events: Vec<BranchEvent> = (0..100).map(|i| ev(0x40, (i % 4) as u32)).collect();
        let mut s = SliceSource::new(&events).sample(2);
        let kept = std::iter::from_fn(|| s.next_event()).count();
        assert_eq!(kept, 50);
    }

    #[test]
    // The borrow is the point: it routes the call through the `&mut S`
    // blanket impl rather than `SliceSource`'s own.
    #[allow(clippy::needless_borrow)]
    fn mut_ref_forwards_fill_events() {
        let events = [ev(0, 0), ev(4, 0), ev(8, 0)];
        let mut s = SliceSource::new(&events);
        let mut buf = Vec::new();
        assert_eq!((&mut s).fill_events(&mut buf, 2), 2);
        assert_eq!(s.remaining(), 1, "the underlying source advanced");
    }

    #[test]
    fn interleave_round_robins_by_quantum() {
        // Two "processes" at distinct pcs, 1 instruction per event, quantum
        // of 2: the schedule is a a | b b | a a | b b | ...
        let a: Vec<BranchEvent> = (0..6).map(|i| ev(0x1000 + i * 4, 0)).collect();
        let b: Vec<BranchEvent> = (0..6).map(|i| ev(0x2000 + i * 4, 0)).collect();
        let mut s = InterleaveSource::new(vec![SliceSource::new(&a), SliceSource::new(&b)], 2);
        let emitted: Vec<BranchEvent> = std::iter::from_fn(|| s.next_event()).collect();
        assert_eq!(emitted.len(), 12, "nothing lost");
        let schedule: Vec<u64> = emitted.iter().map(|e| e.pc.0 >> 12).collect();
        assert_eq!(schedule, [1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2]);
        // Within each process, program order is preserved.
        let from_a: Vec<BranchEvent> = emitted
            .iter()
            .filter(|e| e.pc.0 < 0x2000)
            .copied()
            .collect();
        assert_eq!(from_a, a);
    }

    #[test]
    fn interleave_drops_exhausted_sources() {
        let a: Vec<BranchEvent> = (0..2).map(|i| ev(0x1000 + i * 4, 0)).collect();
        let b: Vec<BranchEvent> = (0..6).map(|i| ev(0x2000 + i * 4, 0)).collect();
        let mut s = InterleaveSource::new(vec![SliceSource::new(&a), SliceSource::new(&b)], 2);
        let emitted: Vec<BranchEvent> = std::iter::from_fn(|| s.next_event()).collect();
        assert_eq!(emitted.len(), 8);
        // Once a is exhausted the rest is b alone, in order.
        assert_eq!(emitted[4..].iter().filter(|e| e.pc.0 >= 0x2000).count(), 4);
        assert_eq!(s.next_event(), None, "stays exhausted");
    }

    #[test]
    fn interleave_labels_and_degenerate_cases() {
        let a = [ev(0, 0)];
        let s = InterleaveSource::new(vec![SliceSource::new(&a)], 0);
        assert_eq!(s.label(), "<slice>", "inherits the first source's label");
        let mut empty: InterleaveSource<SliceSource<'_>> = InterleaveSource::new(vec![], 8);
        assert_eq!(empty.label(), "<interleave>");
        assert_eq!(empty.next_event(), None);
        // A single source with quantum 1 is the identity stream.
        let events: Vec<BranchEvent> = (0..5).map(|i| ev(i * 4, 1)).collect();
        let mut s = InterleaveSource::new(vec![SliceSource::new(&events)], 1);
        let emitted: Vec<BranchEvent> = std::iter::from_fn(|| s.next_event()).collect();
        assert_eq!(emitted, events);
    }

    #[test]
    fn mut_ref_is_a_source() {
        fn drain(src: &mut dyn BranchSource) -> usize {
            let mut n = 0;
            while src.next_event().is_some() {
                n += 1;
            }
            n
        }
        let events = [ev(0, 0), ev(4, 0)];
        let mut s = SliceSource::new(&events);
        assert_eq!(drain(&mut s), 2);
    }
}
