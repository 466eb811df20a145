//! In-memory spans recorded around calls into each layer's public API.
//!
//! A [`Tracer`] keeps every span in one vector and hands it back when the
//! traced run ends. Spans nest per thread: a span opened while another is
//! open on the same thread becomes its child, so a layer's *self time* is
//! its duration minus the part of it that child spans cover
//! ([`self_times`]). [`TimedSource`] and [`TimedPass`] wrap the two traits
//! every traversal goes through, so a pass runner driven over them records
//! one span per pulled or consumed chunk without changing which code runs.

use sdbp_passes::Pass;
use sdbp_trace::{BranchEvent, BranchSource};
use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer the call belongs to (`workloads.gen`, `profiles.bias`, ...).
    pub name: &'static str,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Small per-process thread number.
    pub thread: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Branch events the call produced or consumed.
    pub events: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Open spans of this thread, innermost last. A thread records into one
    /// tracer at a time.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Records spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the returned guard drops.
    pub fn open(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let span = Span {
            name,
            parent,
            thread: THREAD.with(|t| *t),
            start_ns: self.now_ns(),
            end_ns: 0,
            events: 0,
        };
        let index = {
            let mut spans = self.spans.lock().expect("span log poisoned by a panic");
            spans.push(span);
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard {
            tracer: self,
            index,
            name: Cell::new(name),
            events: Cell::new(0),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.open(name);
        f()
    }

    /// Every span recorded so far, in opening order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panic")
            .clone()
    }
}

/// An open span; closing it records its end.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: usize,
    name: Cell<&'static str>,
    events: Cell<u64>,
}

impl SpanGuard<'_> {
    /// Records how many branch events the call handled.
    pub fn set_events(&self, events: u64) {
        self.events.set(events);
    }

    /// Files the span under another layer, for calls whose layer is known
    /// only once they return (a cache lookup that had to generate).
    pub fn rename(&self, name: &'static str) {
        self.name.set(name);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        // A poisoned log means another thread already panicked; dropping the
        // span is the only thing left to do here.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            let span = &mut spans[self.index];
            span.end_ns = end;
            span.name = self.name.get();
            span.events = self.events.get();
        }
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(span.start_ns),
                        spans[c].end_ns.min(span.end_ns),
                    )
                })
                .filter(|(s, e)| s < e)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Writes `spans` as JSON: a name table, then one
/// `[name, parent, thread, start_ns, end_ns, events]` row per span, with
/// `-1` for no parent. Streamed, since a paper-suite trace holds about
/// 200 000 spans.
pub fn write_json(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = BufWriter::new(File::create(path)?);
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    write!(out, "{{\"names\":[{}],\"spans\":[", quoted.join(","))?;
    for (i, s) in spans.iter().enumerate() {
        let name = names.binary_search(&s.name).expect("every name is listed");
        let parent = s.parent.map_or(-1, |p| p as i64);
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}[{name},{parent},{},{},{},{}]",
            s.thread, s.start_ns, s.end_ns, s.events
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// A [`BranchSource`] that records a span around every chunk pulled from
/// the source it wraps.
///
/// Every trait method is forwarded, so a pass runner takes the same path
/// (zero-copy slice hand-over or chunked pulls) as on the bare source.
/// `next_event` is forwarded untimed: the runner never calls it, and a span
/// per event would cost more than the event.
pub struct TimedSource<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    layer: &'static str,
}

impl<'t, S: BranchSource> TimedSource<'t, S> {
    /// Wraps `inner`, filing its pulls under `layer`.
    pub fn new(inner: S, tracer: &'t Tracer, layer: &'static str) -> Self {
        Self {
            inner,
            tracer,
            layer,
        }
    }
}

impl<S: BranchSource> BranchSource for TimedSource<'_, S> {
    fn next_event(&mut self) -> Option<BranchEvent> {
        self.inner.next_event()
    }

    fn fill_events(&mut self, buf: &mut Vec<BranchEvent>, max: usize) -> usize {
        let span = self.tracer.open(self.layer);
        let filled = self.inner.fill_events(buf, max);
        span.set_events(filled as u64);
        filled
    }

    fn drain_as_slice(&mut self) -> Option<&[BranchEvent]> {
        let span = self.tracer.open(self.layer);
        let slice = self.inner.drain_as_slice();
        span.set_events(slice.map_or(0, |s| s.len() as u64));
        slice
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// A [`Pass`] that records a span around every call into the pass it wraps.
pub struct TimedPass<'t, P> {
    inner: P,
    tracer: &'t Tracer,
    layer: &'static str,
}

impl<'t, P: Pass> TimedPass<'t, P> {
    /// Wraps `inner`, filing its calls under `layer`.
    pub fn new(inner: P, tracer: &'t Tracer, layer: &'static str) -> Self {
        Self {
            inner,
            tracer,
            layer,
        }
    }

    /// The wrapped pass.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: Pass> Pass for TimedPass<'_, P> {
    fn begin(&mut self) {
        self.tracer.span(self.layer, || self.inner.begin());
    }

    fn consume(&mut self, events: &[BranchEvent]) {
        let span = self.tracer.open(self.layer);
        span.set_events(events.len() as u64);
        self.inner.consume(events);
    }

    fn finish(&mut self) {
        self.tracer.span(self.layer, || self.inner.finish());
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_passes::{FnPass, PassRunner};
    use sdbp_trace::{BranchAddr, SliceSource};

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            thread: 0,
            start_ns,
            end_ns,
            events: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        // root [0, 100): children [10, 30) and [20, 50) overlap, [60, 70)
        // stands alone, and [90, 120) runs past the parent's end.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 60, 70),
            span("d", Some(0), 90, 120),
            span("a.leaf", Some(1), 12, 18),
            span("other-root", None, 200, 260),
        ];
        let selfs = self_times(&spans);
        // Covered: [10, 50) + [60, 70) + [90, 100) = 40 + 10 + 10.
        assert_eq!(selfs[0], 100 - 60);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[5], 6);
        assert_eq!(selfs[6], 60);
        // Sibling children never overlap in a real trace, so there the
        // self times of a tree sum to its root's duration.
        let tree = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("b.leaf", Some(2), 50, 60),
        ];
        assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn json_rows_round_trip() {
        let spans = vec![span("root", None, 0, 100), span("a", Some(0), 10, 30)];
        let path =
            crate::workloads::build_dir().join(format!("spans-test-{}.json", std::process::id()));
        write_json(&spans, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let json = sdbp_artifacts::Json::parse(text.trim()).unwrap();
        let names = json.get("names").and_then(|n| n.as_arr()).unwrap();
        assert_eq!(names.len(), 2);
        let rows = json.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(rows.len(), 2);
        let row: Vec<i64> = rows[1]
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap())
            .collect();
        // "a" sorts first; its parent is span 0.
        assert_eq!(row, [0, 0, 0, 10, 30, 0]);
    }

    #[test]
    fn nested_guards_record_parents_and_work() {
        let tracer = Tracer::new();
        tracer.span("outer", || {
            let inner = tracer.open("inner");
            inner.set_events(7);
            inner.rename("renamed");
        });
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].name, "renamed");
        assert_eq!(spans[1].events, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn timed_wrappers_forward_and_record_every_chunk() {
        let events: Vec<BranchEvent> = (0..10)
            .map(|i| BranchEvent::new(BranchAddr(0x40 + 4 * i), i % 2 == 0, 3))
            .collect();
        let tracer = Tracer::new();
        let mut seen = 0u64;
        // A slice source hands its remainder over in one zero-copy drain.
        {
            let pass = FnPass::new("count", |chunk: &[BranchEvent]| seen += chunk.len() as u64);
            let mut timed = TimedPass::new(pass, &tracer, "consume");
            let source = TimedSource::new(SliceSource::new(&events), &tracer, "pull");
            PassRunner::new()
                .with_chunk(4)
                .run(source, &mut [&mut timed]);
        }
        assert_eq!(seen, 10);
        let spans = tracer.snapshot();
        let pulls: Vec<&Span> = spans.iter().filter(|s| s.name == "pull").collect();
        assert_eq!(pulls.len(), 1, "one drain, no chunked pulls");
        assert_eq!(pulls[0].events, 10);
        let consumed: u64 = spans
            .iter()
            .filter(|s| s.name == "consume")
            .map(|s| s.events)
            .sum();
        assert_eq!(consumed, 10);
        // begin + three chunks + finish.
        assert_eq!(spans.iter().filter(|s| s.name == "consume").count(), 5);
    }
}
