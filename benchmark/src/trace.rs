//! The benchmark's own span recorder (choosing-metrics §4): one span per
//! call into a layer, kept in memory and written out when the run ends.
//!
//! A span is `(id, parent, name, start, end, request)`. Callers pass the
//! parent explicitly, so the two client threads of `wimpi24_serve` record
//! into one recorder without thread-local state. The engine's own operator
//! [`Span`](wimpi_obs::Span) trees carry durations but no start times; they
//! are [grafted](Recorder::graft) under the op that produced them with
//! children laid end to end, which is how the serial operators ran.
//!
//! Self time is a span's duration minus the part of it that its children
//! cover, so over any tree the self times add up to the root's duration.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// No span: the parent of a root, and every id a disabled recorder returns.
pub const NONE: u32 = 0;

/// One recorded span. `id` is its 1-based position in the recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub parent: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Spans of one request (one op of a pass) share this identifier.
    pub request: u64,
}

/// An in-memory span log. A disabled recorder does nothing, so the untraced
/// run pays one branch per call site.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Recorder {
    pub fn on() -> Self {
        Recorder { enabled: true, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn off() -> Self {
        Recorder { enabled: false, ..Recorder::on() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans.lock().expect("no recorder user panics while holding the lock")
    }

    /// Opens a span now and returns its id ([`NONE`] when disabled).
    pub fn open(&self, parent: u32, name: &str, request: u64) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        let mut log = self.log();
        log.push(SpanRec { parent, name: name.to_string(), start_ns, end_ns: start_ns, request });
        log.len() as u32
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&self, id: u32) {
        if id != NONE {
            let end_ns = self.now_ns();
            self.log()[id as usize - 1].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id as its children's
    /// parent.
    pub fn span<T>(&self, parent: u32, name: &str, request: u64, f: impl FnOnce(u32) -> T) -> T {
        let id = self.open(parent, name, request);
        let out = f(id);
        self.close(id);
        out
    }

    /// Start time of a recorded span.
    pub fn start_of(&self, id: u32) -> u64 {
        self.log()[id as usize - 1].start_ns
    }

    /// Grafts an engine operator tree under `parent`, starting at `start_ns`.
    /// Span names become `engine.exec.<layer>`; per-morsel children are
    /// dropped (they run in parallel and belong to their operator). Children
    /// are laid end to end and clipped to their parent, so measurement jitter
    /// can never produce a child that outlives its parent.
    pub fn graft(&self, parent: u32, request: u64, start_ns: u64, span: &wimpi_obs::Span) {
        if !self.enabled {
            return;
        }
        let mut log = self.log();
        let end_ns = start_ns + span.wall_ns;
        graft_into(&mut log, parent, request, start_ns, end_ns, span);
    }

    /// Seconds of self time per span name, over everything recorded.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let log = self.log();
        let mut out = BTreeMap::new();
        for (name, ns) in self_times(&log) {
            *out.entry(name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Checks that under every root the self times add up to the root's
    /// duration within `tolerance` (a share of the duration).
    pub fn check_roots(&self, tolerance: f64) -> Result<(), String> {
        let log = self.log();
        let selfs: Vec<u64> = self_times(&log).into_iter().map(|(_, ns)| ns).collect();
        let mut sum_by_root: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in selfs.iter().enumerate() {
            let mut id = i as u32 + 1;
            while log[id as usize - 1].parent != NONE {
                id = log[id as usize - 1].parent;
            }
            *sum_by_root.entry(id).or_insert(0) += s;
        }
        for (root, sum) in sum_by_root {
            let r = &log[root as usize - 1];
            let dur = r.end_ns - r.start_ns;
            if (sum as f64 - dur as f64).abs() > tolerance * dur as f64 {
                return Err(format!(
                    "root span {root} ({}): self times sum to {sum} ns, duration is {dur} ns",
                    r.name
                ));
            }
        }
        Ok(())
    }

    /// The whole log as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let log = self.log();
        let mut s = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, r) in log.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                i + 1,
                r.parent,
                r.name,
                r.start_ns,
                r.end_ns,
                r.request
            ));
        }
        s.push_str("\n]}\n");
        s
    }
}

/// The layer an engine operator span is charged to. The stage spans inside
/// an operator (`partials`, `predicates`, `build`, `probe`) are layers of
/// their own; what is left of a `join` is gathering its output columns.
pub fn engine_layer(op: &str) -> &'static str {
    match op {
        "scan" => "scan",
        "filter" | "predicates" => "filter",
        "eval" | "project" => "eval",
        "build" => "join_build",
        "probe" | "join" => "join_probe",
        "aggregate" | "partials" | "fused" => "aggregate",
        "sort" | "limit" => "sort",
        _ => "other",
    }
}

fn graft_into(
    log: &mut Vec<SpanRec>,
    parent: u32,
    request: u64,
    start_ns: u64,
    end_ns: u64,
    span: &wimpi_obs::Span,
) {
    let name = format!("engine.exec.{}", engine_layer(&span.op));
    log.push(SpanRec { parent, name, start_ns, end_ns, request });
    let id = log.len() as u32;
    let mut cursor = start_ns;
    for child in span.children.iter().filter(|c| c.op != "morsel") {
        let child_end = (cursor + child.wall_ns).min(end_ns);
        graft_into(log, id, request, cursor, child_end, child);
        cursor = child_end;
    }
}

/// `(name, self nanoseconds)` per span, in log order.
fn self_times(log: &[SpanRec]) -> Vec<(String, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); log.len()];
    for r in log {
        if r.parent != NONE {
            children[r.parent as usize - 1].push((r.start_ns, r.end_ns));
        }
    }
    log.iter()
        .zip(children)
        .map(|(r, mut kids)| {
            // Length of the union of the children's intervals inside the span.
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = r.start_ns;
            for (s, e) in kids {
                let (s, e) = (s.max(reach), e.min(r.end_ns));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (r.name.clone(), (r.end_ns - r.start_ns) - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(parent: u32, name: &str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { parent, name: name.to_string(), start_ns, end_ns, request: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let log = vec![
            rec(NONE, "root", 0, 100),
            rec(1, "a", 10, 40),
            rec(1, "b", 40, 70),
            rec(2, "leaf", 15, 25),
        ];
        let selfs = self_times(&log);
        assert_eq!(selfs[0], ("root".to_string(), 40));
        assert_eq!(selfs[1], ("a".to_string(), 20));
        assert_eq!(selfs[2], ("b".to_string(), 30));
        assert_eq!(selfs[3], ("leaf".to_string(), 10));
        assert_eq!(selfs.iter().map(|(_, ns)| ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let log = vec![rec(NONE, "root", 0, 100), rec(1, "a", 0, 60), rec(1, "b", 50, 90)];
        assert_eq!(self_times(&log)[0].1, 10);
    }

    #[test]
    fn grafted_children_are_clipped_to_their_parent() {
        let mut root = wimpi_obs::Span::leaf("query", "");
        root.wall_ns = 100;
        let mut join = wimpi_obs::Span::leaf("join", "");
        join.wall_ns = 90;
        let mut build = wimpi_obs::Span::leaf("build", "");
        build.wall_ns = 50;
        let mut probe = wimpi_obs::Span::leaf("probe", "");
        probe.wall_ns = 60; // 50 + 60 > 90: jitter
        let mut morsel = wimpi_obs::Span::leaf("morsel", "0");
        morsel.wall_ns = 55;
        probe.children = vec![morsel];
        join.children = vec![build, probe];
        root.children = vec![join];

        let r = Recorder::on();
        let op = r.open(NONE, "op", 7);
        r.graft(op, 7, 1000, &root);
        let log = r.log().clone();
        let names: Vec<&str> = log.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "op",
                "engine.exec.other",
                "engine.exec.join_probe",
                "engine.exec.join_build",
                "engine.exec.join_probe"
            ]
        );
        assert_eq!((log[3].start_ns, log[3].end_ns), (1000, 1050));
        assert_eq!((log[4].start_ns, log[4].end_ns), (1050, 1090));
        assert!(log.iter().all(|s| s.request == 7));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let r = Recorder::off();
        let id = r.span(NONE, "x", 0, |id| id);
        assert_eq!(id, NONE);
        assert!(r.self_seconds().is_empty());
    }

    #[test]
    fn roots_check_out_when_children_nest() {
        let r = Recorder::on();
        r.span(NONE, "root", 0, |root| {
            r.span(root, "child", 0, |_| std::hint::black_box(1 + 1));
        });
        r.check_roots(0.01).expect("nested spans add up");
        let doc = r.to_json("w");
        wimpi_core::trace_check::parse_json(&doc).expect("trace file is valid JSON");
    }
}
