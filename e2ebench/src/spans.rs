//! An in-memory span recorder for the traced replay.
//!
//! A span has a name, a start and an end (nanoseconds from the
//! recorder's origin) and the span that caused it. Spans are kept in
//! memory and folded into per-name totals when the replay ends. A
//! span's *self* time is its duration minus the part of its interval
//! that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `apro.scan`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds from the recorder origin.
    pub start_ns: u64,
    /// End, nanoseconds from the recorder origin (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.push(name, now, now)
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-measured span (tests and synthetic spans).
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span without touching its end (pairs
    /// with [`Self::push`]).
    #[cfg(test)]
    pub fn pop(&mut self) {
        self.open.pop();
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(span.start_ns, span.end_ns),
                    s.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.duration_ns() - covered
    }

    /// Per-name totals of self time and call counts over every span.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let t = out.entry(span.name).or_default();
            t.self_ns += self.self_ns(id);
            t.calls += 1;
        }
        out
    }
}

/// Accumulated self time and calls for one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Total {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Spans recorded under the name.
    pub calls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new();
        let root = r.push("root", 0, 100);
        r.push("a", 10, 30);
        r.pop();
        let b = r.push("b", 40, 90);
        r.push("b.inner", 50, 60);
        r.pop();
        r.pop();
        r.pop();
        assert_eq!(r.self_ns(root), 100 - 20 - 50);
        assert_eq!(r.self_ns(b), 50 - 10);
        let totals = r.totals();
        assert_eq!(totals["root"].self_ns, 30);
        assert_eq!(totals["b.inner"].self_ns, 10);
        assert_eq!(totals["a"].calls, 1);
        // Self times partition the root's wall time exactly.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let mut r = Recorder::new();
        let root = r.push("root", 100, 200);
        r.push("x", 90, 130); // starts before the parent: clipped to 100
        r.pop();
        r.push("y", 120, 150); // overlaps x on 120..130
        r.pop();
        r.push("z", 190, 260); // ends after the parent: clipped to 200
        r.pop();
        r.pop();
        // Covered: 100..150 and 190..200 = 60.
        assert_eq!(r.self_ns(root), 40);
    }

    #[test]
    fn live_spans_nest_and_close() {
        let mut r = Recorder::new();
        let outer = r.enter("outer");
        let v = r.time("inner", || 7);
        r.exit(outer);
        assert_eq!(v, 7);
        assert_eq!(r.spans()[1].parent, Some(outer));
        assert!(r.self_ns(outer) <= r.spans()[outer].duration_ns());
        assert_eq!(
            r.self_ns(outer) + r.spans()[1].duration_ns(),
            r.spans()[outer].duration_ns()
        );
    }
}
