//! An in-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the benchmark's own calls into each
//! layer. A span's parent is the span open when it began, so a layer's
//! *self time* is its duration minus the time its direct children cover.
//! Counts are recorded at the same boundaries. Nothing is written until
//! the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

/// Handle of an open span.
#[must_use]
pub struct SpanId(usize);

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span (and any child left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let now = Instant::now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = Some(now);
            if top == id.0 {
                break;
            }
        }
    }

    /// Records a span timed elsewhere, outside any open span (the client's
    /// pipelined round trips overlap, so they cannot nest).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start,
            end: Some(end),
            parent: None,
        });
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Adds `by` to a named count.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    /// A named count (`0` when never recorded).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total self time of every closed span with this name, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), Some(end)) = (s.parent, s.end) {
                child_ms[p] += (end - s.start).as_secs_f64() * 1e3;
            }
        }
        self.spans
            .iter()
            .zip(&child_ms)
            .filter(|(s, _)| s.name == name)
            .filter_map(|(s, c)| s.end.map(|end| (end - s.start).as_secs_f64() * 1e3 - c))
            .sum()
    }

    /// Total wall time of every closed span with this name, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end.map(|end| (end - s.start).as_secs_f64() * 1e3))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end(outer);
        let inner = t.self_ms("inner");
        assert!(inner >= 20.0);
        assert!(t.self_ms("outer") < t.total_ms("outer") - 19.0);
        t.count("n", 2.0);
        assert_eq!(t.counted("n"), 2.0);
    }
}
