//! In-memory branch traces.

use crate::event::BranchEvent;
use std::fmt;

/// Metadata accompanying a [`Trace`].
///
/// `total_instructions` counts every retired instruction — branch and
/// non-branch alike — which is the denominator of the paper's MISPs/KI
/// metric.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// Total retired instructions represented by the trace.
    pub total_instructions: u64,
    /// Free-form name of the originating workload (e.g. `"gcc.train"`).
    pub name: String,
}

impl TraceMeta {
    /// Creates metadata with a name and zero instructions.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            total_instructions: 0,
            name: name.into(),
        }
    }
}

/// An in-memory sequence of branch events plus metadata.
///
/// For multi-million-event workloads prefer streaming through
/// [`crate::BranchSource`]; `Trace` exists for tests, codecs, small
/// experiments, and external trace files.
///
/// # Examples
///
/// ```
/// use sdbp_trace::{BranchAddr, BranchEvent, Trace, TraceBuilder};
///
/// let mut b = TraceBuilder::named("demo");
/// for i in 0..4u64 {
///     b.push(BranchEvent::new(BranchAddr(0x100 + 4 * i), i % 2 == 0, 2));
/// }
/// let t: Trace = b.finish();
/// assert_eq!(t.len(), 4);
/// assert_eq!(t.meta().name, "demo");
/// assert_eq!(t.iter().filter(|e| e.taken).count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    meta: TraceMeta,
    events: Vec<BranchEvent>,
}

impl Trace {
    /// Creates a trace from parts.
    ///
    /// Most callers should use [`TraceBuilder`], which keeps
    /// `total_instructions` consistent with the events automatically.
    pub fn from_parts(meta: TraceMeta, events: Vec<BranchEvent>) -> Self {
        Self { meta, events }
    }

    /// The metadata block.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Number of branch events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events as a slice.
    pub fn events(&self) -> &[BranchEvent] {
        &self.events
    }

    /// Iterates over events by reference.
    pub fn iter(&self) -> std::slice::Iter<'_, BranchEvent> {
        self.events.iter()
    }

    /// Dynamic conditional branches per thousand instructions (the paper's
    /// CBRs/KI characterization metric). Returns `0.0` for an empty trace.
    pub fn cbrs_per_ki(&self) -> f64 {
        if self.meta.total_instructions == 0 {
            0.0
        } else {
            self.events.len() as f64 * 1000.0 / self.meta.total_instructions as f64
        }
    }
}

impl IntoIterator for Trace {
    type Item = BranchEvent;
    type IntoIter = std::vec::IntoIter<BranchEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a BranchEvent;
    type IntoIter = std::slice::Iter<'a, BranchEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace '{}': {} branches, {} instructions",
            self.meta.name,
            self.events.len(),
            self.meta.total_instructions
        )
    }
}

/// Incrementally builds a [`Trace`], keeping instruction accounting in sync.
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    meta: TraceMeta,
    events: Vec<BranchEvent>,
}

impl TraceBuilder {
    /// Creates an empty builder with an empty name.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with a workload name.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            meta: TraceMeta::named(name),
            events: Vec::new(),
        }
    }

    /// Appends one event, accumulating its instruction count.
    pub fn push(&mut self, event: BranchEvent) -> &mut Self {
        self.meta.total_instructions += event.instructions();
        self.events.push(event);
        self
    }

    /// Number of events so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been pushed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finalizes the trace.
    pub fn finish(self) -> Trace {
        Trace {
            meta: self.meta,
            events: self.events,
        }
    }
}

impl Extend<BranchEvent> for TraceBuilder {
    fn extend<T: IntoIterator<Item = BranchEvent>>(&mut self, iter: T) {
        for e in iter {
            self.push(e);
        }
    }
}

impl FromIterator<BranchEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = BranchEvent>>(iter: T) -> Self {
        let mut b = TraceBuilder::new();
        b.extend(iter);
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BranchAddr;

    fn ev(pc: u64, taken: bool, gap: u32) -> BranchEvent {
        BranchEvent::new(BranchAddr(pc), taken, gap)
    }

    #[test]
    fn builder_accumulates_instructions() {
        let mut b = TraceBuilder::new();
        b.push(ev(0x100, true, 9)).push(ev(0x104, false, 0));
        let t = b.finish();
        assert_eq!(t.meta().total_instructions, 11);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.cbrs_per_ki(), 0.0);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn cbrs_per_ki_matches_definition() {
        // 10 branches, each preceded by 99 non-branch instructions:
        // 1000 instructions total, so 10 CBRs/KI.
        let t: Trace = (0..10).map(|i| ev(0x200 + 4 * i, true, 99)).collect();
        assert!((t.cbrs_per_ki() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn from_iterator_and_into_iterator_roundtrip() {
        let events = vec![ev(0, true, 1), ev(4, false, 2), ev(8, true, 3)];
        let t: Trace = events.iter().copied().collect();
        let back: Vec<BranchEvent> = t.clone().into_iter().collect();
        assert_eq!(back, events);
        let refs: Vec<&BranchEvent> = (&t).into_iter().collect();
        assert_eq!(refs.len(), 3);
    }

    #[test]
    fn display_mentions_name_and_counts() {
        let mut b = TraceBuilder::named("gcc.train");
        b.push(ev(0, true, 0));
        let t = b.finish();
        let s = t.to_string();
        assert!(s.contains("gcc.train"));
        assert!(s.contains("1 branches"));
    }
}
