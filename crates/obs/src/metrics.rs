//! A small metrics registry: named counters, gauges, and fixed-bucket
//! histograms behind one mutex. Dependency-free and deterministic — metric
//! names are kept in a `BTreeMap`, so snapshots and renderings are always in
//! lexicographic order regardless of registration order.
//!
//! Used by `cluster` (fault/recovery/backoff events), the query service and
//! the coordinator. Throughput is irrelevant at those call sites — events
//! are per-partition or per-query, not per-row — so a mutexed map is the
//! right trade against code size.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::span::{json_str, Span};

/// Bucket bounds for the `operator_peak_bytes` histogram: 4 KiB to 256 MiB
/// in ×16 steps — wimpy-node scratch sizes, per the paper's premise.
const PEAK_BOUNDS: [f64; 5] = [4096.0, 65536.0, 1048576.0, 16777216.0, 268435456.0];

/// One recorded metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonically increasing count of events.
    Counter(u64),
    /// Last-observed value.
    Gauge(f64),
    /// Observations bucketed against fixed upper bounds.
    Histogram(Histogram),
}

/// A histogram with fixed, caller-chosen bucket upper bounds plus an
/// implicit `+inf` bucket, tracking count and sum for mean recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// `counts[i]` = observations `<= bounds[i]` (non-cumulative);
    /// `counts[bounds.len()]` = observations above every bound.
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], count: 0, sum: 0.0 }
    }

    fn observe(&mut self, v: f64) {
        let slot = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[slot] = self.counts[slot].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum += v;
    }

    /// Observations above the last bound — the explicit overflow bucket.
    /// Rendered as the `+inf` line, `_overflow`, and the JSON `"overflow"`
    /// key, so saturation of the bucket layout is visible without
    /// subtracting bucket counts from the total.
    pub fn overflow(&self) -> u64 {
        self.counts.last().copied().unwrap_or(0)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the bucket holding the target rank — the standard
    /// fixed-bucket estimator. `None` for an empty histogram. A rank that
    /// lands in the overflow bucket reports the last bound (the estimate is
    /// then a *lower* bound; `overflow()` says how much mass sits there).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = seen + c;
            if (next as f64) >= rank && c > 0 {
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: unbounded above, so report the last
                    // finite bound as a conservative estimate.
                    return Some(self.bounds.last().copied().unwrap_or(f64::INFINITY));
                };
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let into = (rank - seen as f64) / c as f64;
                return Some(lower + (upper - lower) * into.clamp(0.0, 1.0));
            }
            seen = next;
        }
        Some(self.bounds.last().copied().unwrap_or(f64::INFINITY))
    }
}

/// A registry of named metrics. Interior-mutable so subsystems that only
/// hand out `&self` (e.g. `WimpiCluster::run`) can still record.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first. The add
    /// saturates at `u64::MAX`: a counter that would wrap instead pins,
    /// keeping "monotonically increasing" true even for pathological deltas.
    pub fn inc(&self, name: &str, delta: u64) {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c = c.saturating_add(delta),
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.metrics.lock().unwrap().insert(name.to_string(), Metric::Gauge(value));
    }

    /// Raises the named gauge to `value` if larger (creates it otherwise) —
    /// a high-water gauge.
    pub fn max_gauge(&self, name: &str, value: f64) {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_string()).or_insert(Metric::Gauge(value)) {
            Metric::Gauge(g) => *g = g.max(value),
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    /// Records the measured memory peaks of one query trace. The root span's
    /// inclusive `peak_bytes` (the query-wide reservation high-water mark)
    /// raises the `query_peak_bytes` gauge; every operator's *own* raise of
    /// the high-water mark (its self delta — the inclusive counter is a
    /// ratcheted maximum, so deltas attribute the growth) feeds the
    /// `operator_peak_bytes` histogram and a per-op `peak_bytes{op="..."}`
    /// high-water gauge.
    pub fn record_span_peaks(&self, span: &Span) {
        let total = span.counter("peak_bytes");
        if total > 0 {
            self.max_gauge("query_peak_bytes", total as f64);
        }
        self.walk_peaks(span);
    }

    fn walk_peaks(&self, span: &Span) {
        let own =
            span.self_counters().iter().find(|(n, _)| n == "peak_bytes").map_or(0, |&(_, v)| v);
        if own > 0 {
            self.observe("operator_peak_bytes", &PEAK_BOUNDS, own as f64);
            self.max_gauge(&format!("peak_bytes{{op=\"{}\"}}", span.op), own as f64);
        }
        for c in &span.children {
            self.walk_peaks(c);
        }
    }

    /// Records `value` into the named histogram, creating it with `bounds`
    /// on first use. Later calls ignore `bounds` (the first call wins).
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.observe(value),
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Current value of a counter (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Estimated `q`-quantile of the named histogram (`None` when absent,
    /// empty, or not a histogram) — see [`Histogram::quantile`]. Benches use
    /// this for p50/p99 tail-latency reporting.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Histogram(h)) => h.quantile(q),
            _ => None,
        }
    }

    /// Current value of a gauge (`None` when absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        self.metrics.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.lock().unwrap().is_empty()
    }

    /// Renders every metric as `name value` lines (histograms as
    /// `name{le=bound} count` plus `_count`/`_sum`), Prometheus-flavoured.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.snapshot() {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {c}\n")),
                Metric::Gauge(g) => out.push_str(&format!("{name} {g}\n")),
                Metric::Histogram(h) => {
                    for (i, c) in h.counts.iter().enumerate() {
                        let le = h
                            .bounds
                            .get(i)
                            .map(|b| b.to_string())
                            .unwrap_or_else(|| "+inf".to_string());
                        out.push_str(&format!("{name}{{le=\"{le}\"}} {c}\n"));
                    }
                    out.push_str(&format!("{name}_overflow {}\n", h.overflow()));
                    out.push_str(&format!("{name}_count {}\n", h.count));
                    out.push_str(&format!("{name}_sum {}\n", h.sum));
                }
            }
        }
        out
    }

    /// Serializes every metric as one JSON object
    /// (`{"name": 3, "g": 1.5, "h": {"bounds": [...], ...}}`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, metric)) in self.snapshot().into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json_str(&mut s, &name);
            s.push(':');
            match metric {
                Metric::Counter(c) => s.push_str(&c.to_string()),
                Metric::Gauge(g) => s.push_str(&json_f64(g)),
                Metric::Histogram(h) => {
                    s.push_str("{\"bounds\":[");
                    for (j, b) in h.bounds.iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        s.push_str(&json_f64(*b));
                    }
                    s.push_str("],\"counts\":[");
                    for (j, c) in h.counts.iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        s.push_str(&c.to_string());
                    }
                    s.push_str(&format!(
                        "],\"overflow\":{},\"count\":{},\"sum\":{}}}",
                        h.overflow(),
                        h.count,
                        json_f64(h.sum)
                    ));
                }
            }
        }
        s.push('}');
        s
    }
}

/// f64 → JSON number (JSON has no NaN/inf; map them to null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.inc("faults.crash", 1);
        r.inc("faults.crash", 2);
        assert_eq!(r.counter("faults.crash"), 3);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let r = Registry::new();
        r.inc("near_max", u64::MAX - 1);
        r.inc("near_max", 5);
        assert_eq!(r.counter("near_max"), u64::MAX, "saturates, never wraps");
        r.inc("near_max", 1);
        assert_eq!(r.counter("near_max"), u64::MAX, "stays pinned once saturated");
    }

    #[test]
    fn histogram_overflow_bucket_is_explicit() {
        let r = Registry::new();
        let bounds = [1.0, 10.0];
        r.observe("lat", &bounds, 0.5);
        r.observe("lat", &bounds, 50.0);
        r.observe("lat", &bounds, 1e9);
        let snap = r.snapshot();
        let (_, Metric::Histogram(h)) = &snap[0] else { panic!("expected histogram") };
        assert_eq!(h.overflow(), 2, "values above the last bound are countable directly");
        assert_eq!(h.overflow(), h.count - 1, "consistent with total minus bounded buckets");
        let text = r.render();
        assert!(text.contains("lat_overflow 2"), "render exposes the overflow line:\n{text}");
        let json = r.to_json();
        assert!(json.contains("\"overflow\":2"), "json exposes the overflow key:\n{json}");
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        r.set_gauge("coverage", 0.5);
        r.set_gauge("coverage", 0.9);
        assert_eq!(r.gauge("coverage"), Some(0.9));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let r = Registry::new();
        let bounds = [1.0, 10.0];
        r.observe("backoff_s", &bounds, 0.5);
        r.observe("backoff_s", &bounds, 1.0); // inclusive upper bound
        r.observe("backoff_s", &bounds, 5.0);
        r.observe("backoff_s", &bounds, 100.0); // +inf bucket
        let snap = r.snapshot();
        let (_, Metric::Histogram(h)) = &snap[0] else { panic!("expected histogram") };
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 106.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_is_sorted_and_render_stable() {
        let r = Registry::new();
        r.inc("z.last", 1);
        r.inc("a.first", 1);
        let names: Vec<_> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
        let text = r.render();
        assert!(text.find("a.first").unwrap() < text.find("z.last").unwrap());
    }

    #[test]
    fn span_peaks_feed_gauges_and_histogram() {
        // Root peak 1000 of which the child raised 600: the query gauge
        // reads the root, the per-op gauges read the self deltas.
        let mut child = Span::leaf("join", "");
        child.counters = vec![("peak_bytes".into(), 600)];
        let mut root = Span::leaf("query", "");
        root.counters = vec![("peak_bytes".into(), 1000)];
        root.children.push(child);
        let r = Registry::new();
        r.record_span_peaks(&root);
        assert_eq!(r.gauge("query_peak_bytes"), Some(1000.0));
        assert_eq!(r.gauge("peak_bytes{op=\"join\"}"), Some(600.0));
        assert_eq!(r.gauge("peak_bytes{op=\"query\"}"), Some(400.0));
        let snap = r.snapshot();
        let Some((_, Metric::Histogram(h))) = snap.iter().find(|(n, _)| n == "operator_peak_bytes")
        else {
            panic!("expected operator_peak_bytes histogram")
        };
        assert_eq!(h.count, 2);
        // A second, smaller query must not lower the high-water gauges.
        let mut small = Span::leaf("query", "");
        small.counters = vec![("peak_bytes".into(), 10)];
        r.record_span_peaks(&small);
        assert_eq!(r.gauge("query_peak_bytes"), Some(1000.0));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        let bounds = [1.0, 2.0, 4.0];
        // 4 observations in (1, 2], 4 in (2, 4]: p50 sits at the 2.0
        // boundary, p100 at the top of the last occupied bucket.
        for v in [1.5, 1.6, 1.7, 1.8, 2.5, 2.6, 3.0, 3.5] {
            r.observe("lat", &bounds, v);
        }
        let p50 = r.histogram_quantile("lat", 0.5).unwrap();
        assert!((p50 - 2.0).abs() < 1e-9, "p50 = {p50}");
        let p100 = r.histogram_quantile("lat", 1.0).unwrap();
        assert!((p100 - 4.0).abs() < 1e-9, "p100 = {p100}");
        let p25 = r.histogram_quantile("lat", 0.25).unwrap();
        assert!(p25 > 1.0 && p25 <= 2.0, "p25 = {p25}");
        assert_eq!(r.histogram_quantile("missing", 0.5), None);
    }

    #[test]
    fn quantile_overflow_reports_last_bound() {
        let r = Registry::new();
        r.observe("lat", &[1.0], 50.0);
        // All mass in the overflow bucket: the estimate is the last finite
        // bound — a documented lower bound, not an invented value.
        assert_eq!(r.histogram_quantile("lat", 0.99), Some(1.0));
    }

    #[test]
    fn json_is_an_object() {
        let r = Registry::new();
        assert_eq!(r.to_json(), "{}");
        r.inc("c", 2);
        r.set_gauge("g", 1.5);
        r.observe("h", &[1.0], 0.5);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"c\":2"));
        assert!(j.contains("\"g\":1.5"));
        assert!(j.contains("\"bounds\":[1]"));
    }
}
