//! The tracer — builds a [`Span`] tree while a query runs, or does nothing.
//!
//! A disabled tracer is a `None` behind an immutable reference: every call is
//! an inlineable branch on a discriminant, no locking, no allocation, no
//! timestamps. The engine threads `&Tracer` through its operators and defaults
//! to the shared [`Tracer::off`] instance, so untraced execution pays only
//! that branch.
//!
//! An enabled tracer keeps a span *stack* behind a mutex. Operators push a
//! span, run, then pop with their row counts and counter deltas; popping
//! attaches the finished span to its parent. The engine is single-threaded at
//! operator granularity (parallelism lives inside operators, reported through
//! [`MorselSink`]s), so the mutex is uncontended — it exists to keep `Tracer`
//! `Sync` so one instance can be shared with worker threads.

use std::sync::Mutex;
use std::time::Instant;

use crate::span::Span;

/// A span in progress: label data plus the wall-clock start.
struct Open {
    span: Span,
    started: Instant,
}

/// Records a query's execution as a tree of [`Span`]s. See module docs.
pub struct Tracer {
    inner: Option<Mutex<Vec<Open>>>,
}

/// The shared disabled tracer, for default arguments (`Tracer::off()`).
static OFF: Tracer = Tracer::disabled();

impl Tracer {
    /// A tracer that records nothing. `const` so it can back a `static`.
    pub const fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer { inner: Some(Mutex::new(Vec::new())) }
    }

    /// A shared reference to the disabled tracer — the default for every
    /// execution path that was not asked to trace.
    pub fn off() -> &'static Tracer {
        &OFF
    }

    /// True when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span. Every `push` must be paired with exactly one
    /// [`Tracer::pop`] on the same tracer, in LIFO order.
    pub fn push(&self, op: &str, label: &str) {
        if let Some(stack) = &self.inner {
            let open = Open { span: Span::leaf(op, label), started: Instant::now() };
            stack.lock().unwrap().push(open);
        }
    }

    /// Closes the innermost open span with its observed totals and attaches
    /// it to the parent (or keeps it as a finished root).
    ///
    /// `counters` are the span's *inclusive* work-profile deltas — the
    /// caller measures profile-before vs profile-after around its subtree.
    pub fn pop(&self, rows_in: u64, rows_out: u64, counters: Vec<(String, u64)>) {
        if let Some(stack) = &self.inner {
            let mut stack = stack.lock().unwrap();
            let open = stack.pop().expect("Tracer::pop without matching push");
            let mut span = open.span;
            span.rows_in = rows_in;
            span.rows_out = rows_out;
            span.wall_ns = open.started.elapsed().as_nanos() as u64;
            span.counters = counters;
            match stack.last_mut() {
                Some(parent) => parent.span.children.push(span),
                None => {
                    // Finished root: park it as a closed sibling of the stack
                    // bottom so take_root can collect it.
                    let open = Open { span, started: Instant::now() };
                    stack.push(open);
                    // Mark as closed by convention: roots are only taken via
                    // take_root, which pops whatever remains.
                }
            }
        }
    }

    /// Attaches an already-built child span (e.g. merged morsel spans) to the
    /// innermost open span. No-op when disabled or when nothing is open.
    pub fn attach(&self, child: Span) {
        if let Some(stack) = &self.inner {
            if let Some(open) = stack.lock().unwrap().last_mut() {
                open.span.children.push(child);
            }
        }
    }

    /// A sink for per-morsel spans, enabled iff this tracer is. Workers
    /// record into it without touching the span stack (no ordering races);
    /// the operator merges the result deterministically afterwards.
    pub fn morsel_sink(&self) -> MorselSink {
        if self.is_enabled() {
            MorselSink { inner: Some(Mutex::new(Vec::new())) }
        } else {
            MorselSink { inner: None }
        }
    }

    /// Removes and returns the finished root span. Returns `None` when
    /// disabled or when nothing was recorded. Panics if a span is still open
    /// (push/pop mismatch).
    pub fn take_root(&self) -> Option<Span> {
        let stack = self.inner.as_ref()?;
        let mut stack = stack.lock().unwrap();
        match stack.len() {
            0 => None,
            1 => Some(stack.pop().unwrap().span),
            n => panic!("Tracer::take_root with {n} spans still open"),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

/// One morsel's execution record, produced by a worker thread.
#[derive(Debug, Clone, Copy)]
pub struct MorselSpan {
    /// Morsel index within the operator (determines merge order).
    pub index: usize,
    /// Rows the morsel processed.
    pub rows: u64,
    /// Worker that ran it (non-deterministic; kept for load inspection).
    pub worker: usize,
    /// Wall-clock nanoseconds the morsel took (non-deterministic).
    pub wall_ns: u64,
}

/// Collects [`MorselSpan`]s from worker threads. Disabled sinks (from a
/// disabled tracer) make [`record`](MorselSink::record) a no-op branch.
pub struct MorselSink {
    inner: Option<Mutex<Vec<MorselSpan>>>,
}

impl MorselSink {
    /// True when morsel spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one morsel's execution. Called from worker threads.
    pub fn record(&self, span: MorselSpan) {
        if let Some(buf) = &self.inner {
            buf.lock().unwrap().push(span);
        }
    }

    /// Drains the recorded morsels as child spans sorted by morsel index —
    /// the same order the engine merges morsel results, so the trace tree is
    /// as deterministic as the query output (only `wall_ns` and the `worker`
    /// counter vary between runs).
    pub fn into_spans(self) -> Vec<Span> {
        let Some(buf) = self.inner else { return Vec::new() };
        let mut morsels = buf.into_inner().unwrap();
        morsels.sort_by_key(|m| m.index);
        morsels
            .into_iter()
            .map(|m| {
                let mut s = Span::leaf("morsel", format!("{}", m.index));
                s.rows_in = m.rows;
                s.rows_out = m.rows;
                s.wall_ns = m.wall_ns;
                s.counters = vec![("worker".to_string(), m.worker as u64)];
                s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.push("scan", "x");
        t.pop(1, 1, vec![]);
        t.attach(Span::leaf("a", ""));
        assert!(t.take_root().is_none());
        assert!(!t.is_enabled());
        assert!(!Tracer::off().is_enabled());
    }

    #[test]
    fn nested_spans_build_a_tree() {
        let t = Tracer::enabled();
        t.push("query", "");
        t.push("filter", "p");
        t.push("scan", "lineitem");
        t.pop(0, 100, vec![("seq_read_bytes".into(), 800)]);
        t.pop(100, 40, vec![("cpu_ops".into(), 100), ("seq_read_bytes".into(), 800)]);
        t.pop(0, 40, vec![("cpu_ops".into(), 100), ("seq_read_bytes".into(), 800)]);
        let root = t.take_root().expect("root span");
        assert_eq!(root.op, "query");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].op, "filter");
        assert_eq!(root.children[0].children[0].op, "scan");
        assert_eq!(root.children[0].children[0].rows_out, 100);
        // take_root consumed it.
        assert!(t.take_root().is_none());
    }

    #[test]
    fn attach_adds_children_to_open_span() {
        let t = Tracer::enabled();
        t.push("aggregate", "");
        t.attach(Span::leaf("morsel", "0"));
        t.attach(Span::leaf("morsel", "1"));
        t.pop(10, 2, vec![]);
        let root = t.take_root().unwrap();
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[1].label, "1");
    }

    #[test]
    fn morsel_sink_sorts_by_index() {
        let t = Tracer::enabled();
        let sink = t.morsel_sink();
        assert!(sink.is_enabled());
        sink.record(MorselSpan { index: 2, rows: 30, worker: 1, wall_ns: 5 });
        sink.record(MorselSpan { index: 0, rows: 10, worker: 0, wall_ns: 7 });
        sink.record(MorselSpan { index: 1, rows: 20, worker: 1, wall_ns: 6 });
        let spans = sink.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].label, "0");
        assert_eq!(spans[0].rows_in, 10);
        assert_eq!(spans[2].label, "2");
        assert_eq!(spans[1].counter("worker"), 1);
    }

    #[test]
    fn disabled_sink_is_empty() {
        let sink = Tracer::disabled().morsel_sink();
        assert!(!sink.is_enabled());
        sink.record(MorselSpan { index: 0, rows: 1, worker: 0, wall_ns: 1 });
        assert!(sink.into_spans().is_empty());
    }
}
