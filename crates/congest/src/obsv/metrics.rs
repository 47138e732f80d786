//! The metrics registry: counters, gauges, and power-of-two-bucket
//! histograms, with deterministic snapshot ordering.
//!
//! Registries are plain values (no global state); the [`Simulation`]
//! builder populates one from a finished run and snapshots it into the
//! [`Outcome`]. Snapshots sort entries by name (`BTreeMap` iteration
//! order), so serialized metrics are byte-identical across thread counts —
//! the reproducibility contract the PR-2 pool established extends through
//! the observability layer.
//!
//! [`Simulation`]: crate::Simulation
//! [`Outcome`]: crate::Outcome

use crate::faults::FaultReport;
use crate::stats::RunStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A histogram over `u64` samples with power-of-two buckets: bucket `i`
/// counts samples whose bit length is `i` (bucket 0 holds exact zeros, so
/// bucket boundaries are `[2^(i-1), 2^i)`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(64 - v.leading_zeros()).or_default() += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`0.0 < q <= 1.0`): the
    /// inclusive upper edge of the power-of-two bucket holding the sample
    /// of that rank, clamped to the observed max. Exact to within one
    /// bucket — good enough for a `p99` line, with no per-sample storage.
    /// Returns 0 when the histogram is empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, c) in self.buckets() {
            seen += c;
            if seen >= rank {
                // Bucket `b` spans `[2^(b-1), 2^b)`; its inclusive upper
                // edge is `2^b - 1` (bucket 0 holds exact zeros).
                let edge = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
                return edge.min(self.max);
            }
        }
        self.max
    }

    /// `(bit_length, count)` pairs for the non-empty buckets, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(&b, &c)| (b, c))
    }

    /// The histogram as one JSON object.
    pub fn to_json(&self) -> String {
        let mut body = String::new();
        for (i, (b, c)) in self.buckets().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, r#""{b}":{c}"#);
        }
        format!(
            r#"{{"count":{},"sum":{},"min":{},"max":{},"buckets":{{{body}}}}}"#,
            self.count, self.sum, self.min, self.max
        )
    }
}

/// One metric value in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone count.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
    /// A sample distribution.
    Hist(Histogram),
}

impl MetricValue {
    fn to_json(&self) -> String {
        match self {
            MetricValue::Counter(v) => v.to_string(),
            // Fixed precision keeps gauge rendering platform-independent.
            MetricValue::Gauge(v) => format!("{v:.3}"),
            MetricValue::Hist(h) => h.to_json(),
        }
    }
}

/// A registry of named counters, gauges, and histograms.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name` (creating it at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_default() += by;
    }

    /// Sets gauge `name`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records a sample into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().observe(v);
    }

    /// Installs a pre-built histogram under `name` (merging by re-observe
    /// is lossy for min/max, so whole histograms move in one piece).
    pub fn install_hist(&mut self, name: &str, h: Histogram) {
        self.hists.insert(name.to_string(), h);
    }

    /// The standard registry for a finished run: traffic, congestion,
    /// fault, and transport series. Every backend's [`Outcome`] metrics
    /// snapshot starts from this set, so keys are stable across backends.
    ///
    /// [`Outcome`]: crate::Outcome
    pub fn from_run(stats: &RunStats, faults: &FaultReport) -> Metrics {
        let mut m = Metrics::new();
        m.inc("bits.total", stats.total_bits);
        m.inc("messages.total", stats.total_messages);
        m.inc("rounds.total", stats.rounds as u64);
        m.inc(
            "congestion.max_edge_round_bits",
            stats.max_edge_round_bits as u64,
        );
        m.set_gauge("bits.per_round.avg", stats.avg_bits_per_round());
        for &b in &stats.per_round_bits {
            m.observe("bits.per_round", b);
        }
        for &c in &stats.per_round_messages {
            m.observe("messages.per_round", c);
        }
        m.inc("faults.delivered", faults.delivered);
        m.inc("faults.dropped", faults.dropped);
        m.inc("faults.corrupted", faults.corrupted);
        m.inc("faults.crashed", faults.crashed.len() as u64);
        m.inc("transport.retransmissions", faults.retransmissions);
        m.inc("transport.given_up", faults.given_up);
        m.inc("transport.backoff_events", faults.backoff_events);
        // Per-round fault/transport series (present only when the run
        // tracked them): these localize *when* a loss burst happened —
        // under a Gilbert–Elliott bad state the per-round histograms go
        // bimodal while the end-of-run tallies only show the average.
        for &d in &faults.dropped_per_round {
            m.observe("faults.dropped.per_round", d);
        }
        for &c in &faults.corrupted_per_round {
            m.observe("faults.corrupted.per_round", c);
        }
        for &r in &faults.retransmissions_per_round {
            m.observe("transport.retransmissions.per_round", r);
        }
        // Per-link histogram: a single hot link (one flaky edge under a
        // localized outage) shows up as a heavy tail here while the
        // per-round series stays flat.
        for &r in &faults.retransmissions_per_link {
            m.observe("transport.retransmissions.per_link", r);
        }
        m
    }

    /// Freezes the registry into a deterministically ordered snapshot.
    /// Histograms with no samples (an empty one installed with
    /// [`Metrics::install_hist`]) are omitted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(String, MetricValue)> = Vec::new();
        for (k, &v) in &self.counters {
            entries.push((k.clone(), MetricValue::Counter(v)));
        }
        for (k, &v) in &self.gauges {
            entries.push((k.clone(), MetricValue::Gauge(v)));
        }
        for (k, h) in &self.hists {
            if h.count() > 0 {
                entries.push((k.clone(), MetricValue::Hist(h.clone())));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { entries }
    }
}

/// A frozen, name-sorted view of a [`Metrics`] registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The entries, sorted by name.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value by name (`None` if absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by name (`None` if absent or not a histogram).
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        match self.get(name)? {
            MetricValue::Hist(h) => Some(h),
            _ => None,
        }
    }

    /// Whether the snapshot has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The snapshot in Prometheus text-exposition format: a `# TYPE` line
    /// per metric, dotted names flattened to underscores, histograms as
    /// cumulative `_bucket{le="..."}` series (bucket edges are the
    /// power-of-two upper bounds) plus `_sum`/`_count`. Deterministic:
    /// entries render in snapshot (name-sorted) order.
    pub fn to_prometheus(&self) -> String {
        let sanitize = |name: &str| -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        };
        let mut out = String::new();
        for (k, v) in &self.entries {
            let name = sanitize(k);
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {g:.3}");
                }
                MetricValue::Hist(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (b, c) in h.buckets() {
                        cumulative += c;
                        let le = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// The snapshot as one JSON object (keys in sorted order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, r#""{}":{}"#, crate::json::escape(k), v.to_json());
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        let buckets: Vec<(u32, u64)> = h.buckets().collect();
        // 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1024 -> 11.
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
        assert!((h.mean() - 1034.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_upper_bound_brackets_the_rank_sample() {
        let mut h = Histogram::new();
        // 99 samples of 100 (bucket 7: [64,128)), one of 5000 (bucket 13).
        for _ in 0..99 {
            h.observe(100);
        }
        h.observe(5000);
        // p50 and p99 land in the dense bucket; its edge is 127.
        assert_eq!(h.quantile_upper_bound(0.5), 127);
        assert_eq!(h.quantile_upper_bound(0.99), 127);
        // p100 must cover the outlier, clamped to the observed max.
        assert_eq!(h.quantile_upper_bound(1.0), 5000);
        assert_eq!(Histogram::new().quantile_upper_bound(0.99), 0);
        // A single sample answers every quantile with its own bucket edge
        // clamped to itself.
        let mut one = Histogram::new();
        one.observe(7);
        assert_eq!(one.quantile_upper_bound(0.01), 7);
        assert_eq!(one.quantile_upper_bound(0.99), 7);
    }

    #[test]
    fn prometheus_exposition_renders_all_kinds() {
        let mut m = Metrics::new();
        m.inc("serve.queries", 3);
        m.set_gauge("bits.per_round.avg", 1.5);
        m.observe("latency", 100);
        m.observe("latency", 5000);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE bits_per_round_avg gauge\nbits_per_round_avg 1.500\n"));
        assert!(text.contains("# TYPE serve_queries counter\nserve_queries 3\n"));
        assert!(text.contains("# TYPE latency histogram\n"));
        // Buckets are cumulative: the 5000 sample's bucket counts both.
        assert!(text.contains("latency_bucket{le=\"127\"} 1\n"), "{text}");
        assert!(text.contains("latency_bucket{le=\"8191\"} 2\n"), "{text}");
        assert!(text.contains("latency_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("latency_sum 5100\n"));
        assert!(text.contains("latency_count 2\n"));
    }

    #[test]
    fn snapshot_sorted_and_queryable() {
        let mut m = Metrics::new();
        m.inc("z.last", 3);
        m.inc("a.first", 1);
        m.set_gauge("m.mid", 2.5);
        m.observe("h.hist", 7);
        let snap = m.snapshot();
        let names: Vec<&str> = snap.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a.first", "h.hist", "m.mid", "z.last"]);
        assert_eq!(snap.counter("z.last"), Some(3));
        assert_eq!(snap.counter("m.mid"), None, "gauge is not a counter");
        assert_eq!(snap.hist("h.hist").unwrap().count(), 1);
        assert!(snap.get("missing").is_none());
    }

    #[test]
    fn snapshot_json_shape() {
        let mut m = Metrics::new();
        m.inc("bits.total", 640);
        m.set_gauge("avg", 1.5);
        m.observe("per_round", 64);
        let json = m.snapshot().to_json();
        assert!(json.contains(r#""bits.total":640"#), "{json}");
        assert!(json.contains(r#""avg":1.500"#), "{json}");
        assert!(json.contains(r#""per_round":{"count":1"#), "{json}");
        let v = crate::json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert_eq!(v.get("per_round").unwrap().int::<u64>("count"), Ok(1));
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.inc("x", 2);
        m.inc("x", 5);
        assert_eq!(m.snapshot().counter("x"), Some(7));
    }
}
