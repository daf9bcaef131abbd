//! In-memory spans recorded around the benchmark's calls into odcfp.
//!
//! Spans are opened and closed by the benchmark itself, never inside the
//! program. Spans of one operation share an op id; a span's parent is the
//! span open when it started. Self time is a span's duration minus the
//! durations of its direct children. Everything is held in memory and
//! written once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    op: u64,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Aggregated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: usize,
    /// Sum of their durations, milliseconds.
    pub total_ms: f64,
    /// Sum of their self times, milliseconds.
    pub self_ms: f64,
}

/// A span recorder; a disabled one records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records an already finished span of a new op (or of `parent`'s op)
    /// from explicit timestamps; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end).max(ns(start)));
        let op = match parent {
            Some(p) => {
                self.spans[p].child_ns += end_ns - start_ns;
                self.spans[p].op
            }
            None => {
                self.op += 1;
                self.op
            }
        };
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns,
            child_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new operation: later spans carry a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        let duration = end_ns - span.start_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += duration;
        }
        debug_assert_eq!(
            self.stack.last(),
            Some(&index),
            "spans close innermost first"
        );
        self.stack.pop();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let result = f();
        self.exit(open);
        result
    }

    /// Per-name totals of every closed span.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for span in &self.spans {
            let duration = span.end_ns - span.start_ns;
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ms += duration as f64 / 1e6;
            t.self_ms += duration.saturating_sub(span.child_ns) as f64 / 1e6;
        }
        out
    }

    /// Mean self time per span named `name`, milliseconds; 0 if none.
    pub fn self_ms_per_call(&self, name: &str) -> f64 {
        self.totals()
            .get(name)
            .map_or(0.0, |t| t.self_ms / t.count as f64)
    }

    /// Share of the time of spans named `name` that no child span covers;
    /// 0 if none.
    pub fn unattributed(&self, name: &str) -> f64 {
        self.totals()
            .get(name)
            .filter(|t| t.total_ms > 0.0)
            .map_or(0.0, |t| t.self_ms / t.total_ms)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.next_op();
        let root = t.enter("root");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(root);
        let totals = t.totals();
        let root = totals["root"];
        let child = totals["child"];
        assert!(child.total_ms >= 5.0);
        assert!((root.total_ms - root.self_ms - child.total_ms).abs() < 1e-6);
        assert!(t.to_jsonl().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", || 7), 7);
        assert!(t.totals().is_empty());
    }
}
