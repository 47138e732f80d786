//! The batch service: accumulate queries, execute them as one batch over
//! the rayon pool, stream JSONL responses.
//!
//! # Determinism contract
//!
//! A batch's output bytes depend only on (request bytes, cache state at
//! batch start). Three mechanisms make that hold at any
//! `RAYON_NUM_THREADS`:
//!
//! 1. **Sequential resolve.** Cache lookups (graph generation, staged
//!    clique topologies) happen one query at a time, in request order,
//!    before anything executes — so hit/miss/build counters and LRU order
//!    never depend on execution interleaving.
//! 2. **Ordered parallel execute.** Resolved jobs run via the pool's
//!    ordered `map`/`collect`, so responses come back in request order
//!    no matter which worker finished first.
//! 3. **Explicit seeds.** Every query carries its own RNG seed; the
//!    simulator is deterministic given one.
//!
//! Malformed lines are answered immediately (they never make it into a
//! batch) and tallied in the next batch summary's `serve.errors`.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

use congest::{Histogram, MetricValue, Metrics, Prepared};
use graphlib::Graph;
use rayon::prelude::*;

use crate::cache::{address_hex, Cache};
use crate::json::{self, escape};
use crate::protocol::{
    parse_request, Query, Request, BATCH_SCHEMA, PROTOCOL_VERSION, RESPONSE_SCHEMA,
    TELEMETRY_SCHEMA,
};
use crate::scenario::{execute, prepare_clique, prepare_even_cycle, Job};
use crate::ScenarioSpec;

/// Cache capacities and telemetry knobs for a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Max generated graphs kept (LRU).
    pub graph_cache_cap: usize,
    /// Max staged clique topologies kept (LRU).
    pub prepared_cache_cap: usize,
    /// Emit one `congest.serve.telemetry` line after every N-th flush
    /// (`None` ⇒ only on an explicit `op:"telemetry"` request).
    pub telemetry_every: Option<u64>,
    /// Rewrite the cumulative metrics to this file, in Prometheus
    /// text-exposition format, after every flush.
    pub metrics_path: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            graph_cache_cap: 32,
            prepared_cache_cap: 32,
            telemetry_every: None,
            metrics_path: None,
        }
    }
}

/// A long-lived query service with content-addressed caches.
pub struct Service {
    graphs: Cache<Graph>,
    prepared: Cache<Prepared>,
    pending: Vec<Query>,
    pending_errors: u64,
    /// Cumulative service counters, folded from every batch summary. Kept
    /// separate from the wall-clock latency histogram so the counter
    /// registry — and with it every `"metrics"` object on the wire — stays
    /// a deterministic function of the request stream.
    telemetry: Metrics,
    /// Wall-clock per-query execution spans, microseconds.
    latency_us: Histogram,
    /// Flushes that emitted output (the telemetry cadence counter).
    batches: u64,
    telemetry_every: Option<u64>,
    metrics_path: Option<String>,
}

/// One query resolved against the caches, plus the bookkeeping the
/// response line reports.
struct ResolvedQuery {
    id: String,
    job: Job,
    graph_addr: String,
    graph_hit: bool,
    prepared_hit: Option<bool>,
}

impl Service {
    /// A service with the given cache capacities.
    pub fn new(cfg: ServiceConfig) -> Self {
        Service {
            graphs: Cache::new(cfg.graph_cache_cap),
            prepared: Cache::new(cfg.prepared_cache_cap),
            pending: Vec::new(),
            pending_errors: 0,
            telemetry: Metrics::new(),
            latency_us: Histogram::new(),
            batches: 0,
            telemetry_every: cfg.telemetry_every,
            metrics_path: cfg.metrics_path,
        }
    }

    /// Queries accumulated and not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The graph cache (counters are cumulative across batches).
    pub fn graph_cache(&self) -> &Cache<Graph> {
        &self.graphs
    }

    /// The staged-topology cache.
    pub fn prepared_cache(&self) -> &Cache<Prepared> {
        &self.prepared
    }

    /// Handles one input line. Returns the response lines to emit *now*:
    /// empty for an enqueued query, one error line for a malformed line,
    /// and responses-plus-summary for a flush.
    pub fn handle_line(&mut self, line: &str) -> Vec<String> {
        let line = line.trim();
        if line.is_empty() {
            return Vec::new();
        }
        let parsed = json::parse(line).and_then(|v| parse_request(&v));
        match parsed {
            Err(e) => {
                self.pending_errors += 1;
                vec![error_line(None, &e)]
            }
            Ok(Request::Query(q)) => {
                self.pending.push(q);
                Vec::new()
            }
            Ok(Request::Flush) => self.flush(),
            Ok(Request::Telemetry) => vec![self.telemetry_line()],
            Ok(Request::Stats) => self.stats_text().lines().map(str::to_string).collect(),
        }
    }

    /// Executes the pending batch: one response line per query in request
    /// order, then one `congest.serve.batch` summary line. Emits nothing
    /// when there is nothing to report (no queries, no errors).
    pub fn flush(&mut self) -> Vec<String> {
        if self.pending.is_empty() && self.pending_errors == 0 {
            return Vec::new();
        }
        let queries = std::mem::take(&mut self.pending);
        let errors = std::mem::take(&mut self.pending_errors);

        let cache_before = (
            self.graphs.hits(),
            self.graphs.misses(),
            self.graphs.evictions(),
            self.prepared.hits(),
            self.prepared.misses(),
            self.prepared.evictions(),
        );

        // Phase 1 — sequential resolve (deterministic cache traffic).
        let resolved: Vec<ResolvedQuery> = queries.into_iter().map(|q| self.resolve(q)).collect();

        // Phase 2 — ordered parallel execute. The shim's collect preserves
        // input order, so line order is request order. Each query carries
        // its wall-clock span back for the latency histogram; the span
        // never reaches the response line, so output bytes stay a pure
        // function of the request stream.
        let timed: Vec<(String, u64)> = resolved
            .into_par_iter()
            .map(|r| {
                let t = Instant::now();
                let line = match execute(&r.job) {
                    Ok(out) => {
                        let cache = cache_json(&r);
                        let report = compact_json(&out.report.to_json());
                        format!(
                            r#"{{"schema":"{RESPONSE_SCHEMA}","version":{PROTOCOL_VERSION},"id":"{}","status":"ok","detected":{},"cache":{cache},"report":{report}}}"#,
                            escape(&r.id),
                            out.detected,
                        )
                    }
                    Err(e) => error_line(Some(&r.id), &e.to_string()),
                };
                (line, t.elapsed().as_micros() as u64)
            })
            .collect();
        let mut executed = Vec::with_capacity(timed.len());
        for (line, micros) in timed {
            self.latency_us.observe(micros);
            executed.push(line);
        }

        // Batch summary: per-batch deltas for cache traffic, plus totals
        // aggregated from the per-query reports (sequentially, in order).
        let mut m = Metrics::new();
        m.inc("serve.queries", executed.len() as u64);
        m.inc("serve.errors", errors);
        m.inc(
            "serve.cache.graph_hits",
            self.graphs.hits() - cache_before.0,
        );
        m.inc("serve.graph.builds", self.graphs.misses() - cache_before.1);
        m.inc(
            "serve.cache.graph_evictions",
            self.graphs.evictions() - cache_before.2,
        );
        m.inc(
            "serve.cache.graph_misses",
            self.graphs.misses() - cache_before.1,
        );
        m.inc(
            "serve.cache.prepared_hits",
            self.prepared.hits() - cache_before.3,
        );
        m.inc(
            "serve.prepared.builds",
            self.prepared.misses() - cache_before.4,
        );
        m.inc(
            "serve.cache.prepared_misses",
            self.prepared.misses() - cache_before.4,
        );
        m.inc(
            "serve.cache.prepared_evictions",
            self.prepared.evictions() - cache_before.5,
        );
        for line in &executed {
            // The response embeds the totals; re-parse is cheaper than
            // threading a side channel and keeps this path self-checking.
            if let Ok(v) = json::parse(line) {
                if let Some(report) = v.get("report") {
                    for (key, metric) in [
                        ("rounds", "rounds.total"),
                        ("total_bits", "bits.total"),
                        ("total_messages", "messages.total"),
                    ] {
                        if let Some(n) = report.get(key).and_then(|x| x.as_u64()) {
                            m.inc(metric, n);
                        }
                    }
                }
            }
        }

        let mut out = executed;
        out.push(format!(
            r#"{{"schema":"{BATCH_SCHEMA}","version":{PROTOCOL_VERSION},"queries":{},"errors":{},"metrics":{}}}"#,
            out.len(),
            errors,
            m.snapshot().to_json(),
        ));

        // Fold the batch counters into the cumulative registry the
        // telemetry/stats verbs report from.
        self.batches += 1;
        for (name, value) in m.snapshot().entries() {
            if let MetricValue::Counter(v) = value {
                self.telemetry.inc(name, *v);
            }
        }
        self.telemetry.inc("serve.batches", 1);
        if self
            .telemetry_every
            .is_some_and(|every| every > 0 && self.batches.is_multiple_of(every))
        {
            out.push(self.telemetry_line());
        }
        if let Some(path) = self.metrics_path.clone() {
            if let Err(e) = std::fs::write(&path, self.stats_text()) {
                eprintln!("congest-serve: cannot write metrics to {path}: {e}");
            }
        }
        out
    }

    /// One `congest.serve.telemetry` line: cumulative counters (a
    /// deterministic function of the request stream) plus wall-clock
    /// query-latency percentiles. Consumers diffing telemetry across runs
    /// should strip the `*_ms` fields — they are the only
    /// non-deterministic bytes on the wire.
    pub fn telemetry_line(&self) -> String {
        format!(
            r#"{{"schema":"{TELEMETRY_SCHEMA}","version":{PROTOCOL_VERSION},"batches":{},"metrics":{},"p99_ms":{:.3},"mean_ms":{:.3}}}"#,
            self.batches,
            self.telemetry.snapshot().to_json(),
            self.latency_us.quantile_upper_bound(0.99) as f64 / 1000.0,
            self.latency_us.mean() / 1000.0,
        )
    }

    /// The cumulative registry — counters plus the `serve.latency_us`
    /// span histogram — in Prometheus text-exposition format.
    pub fn stats_text(&self) -> String {
        let mut m = self.telemetry.clone();
        if self.latency_us.count() > 0 {
            m.install_hist("serve.latency_us", self.latency_us.clone());
        }
        m.snapshot().to_prometheus()
    }

    fn resolve(&mut self, q: Query) -> ResolvedQuery {
        let key = q.graph.cache_key();
        let (graph, graph_hit) = self.graphs.get_or_insert_with(&key, || q.graph.build());
        let (prepared, prepared_hit) = match &q.scenario {
            ScenarioSpec::CliqueDetect { .. } => {
                // The staged topology depends on the graph alone (see
                // `scenario::prepare_clique`), so it shares the graph's
                // content address.
                let pkey = format!("prepared:clique:{key}");
                let (p, hit) = self
                    .prepared
                    .get_or_insert_with(&pkey, || prepare_clique(&graph));
                (Some(Prepared::clone(&p)), Some(hit))
            }
            ScenarioSpec::EvenCycle {
                k,
                edge_bound,
                faults,
                ..
            } => {
                if faults.is_none() {
                    // The clean-run staging is a pure function of the
                    // graph plus the topology knobs (k, edge bound) —
                    // seed and repetition budget ride in per run — so it
                    // is content-addressed by exactly those. Faulty and
                    // transport-wrapped runs rebuild their configuration
                    // per query and stay uncached.
                    let pkey = match edge_bound {
                        Some(m) => format!("prepared:evencycle:k{k}:m{m}:{key}"),
                        None => format!("prepared:evencycle:k{k}:{key}"),
                    };
                    let (p, hit) = self
                        .prepared
                        .get_or_insert_with(&pkey, || prepare_even_cycle(&graph, *k, *edge_bound));
                    (Some(Prepared::clone(&p)), Some(hit))
                } else {
                    (None, None)
                }
            }
        };
        ResolvedQuery {
            id: q.id,
            job: Job {
                graph: Arc::clone(&graph),
                prepared,
                scenario: q.scenario,
            },
            graph_addr: address_hex(&key),
            graph_hit,
            prepared_hit,
        }
    }

    /// Drives a whole session: read JSONL requests from `input`, write
    /// JSONL responses to `output`. End of input implies a final flush.
    pub fn serve<R: BufRead, W: Write>(&mut self, input: R, mut output: W) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            for resp in self.handle_line(&line) {
                writeln!(output, "{resp}")?;
            }
            output.flush()?;
        }
        for resp in self.flush() {
            writeln!(output, "{resp}")?;
        }
        output.flush()
    }
}

fn cache_json(r: &ResolvedQuery) -> String {
    let graph = if r.graph_hit { "hit" } else { "miss" };
    match r.prepared_hit {
        None => format!(r#"{{"graph":"{graph}","addr":"{}"}}"#, r.graph_addr),
        Some(hit) => format!(
            r#"{{"graph":"{graph}","prepared":"{}","addr":"{}"}}"#,
            if hit { "hit" } else { "miss" },
            r.graph_addr
        ),
    }
}

fn error_line(id: Option<&str>, msg: &str) -> String {
    let id = match id {
        Some(id) => format!(r#""{}""#, escape(id)),
        None => "null".to_string(),
    };
    format!(
        r#"{{"schema":"{RESPONSE_SCHEMA}","version":{PROTOCOL_VERSION},"id":{id},"status":"error","error":"{}"}}"#,
        escape(msg)
    )
}

/// Collapses a pretty-printed JSON document to one line. Safe because the
/// report writer escapes control characters, so no string literal ever
/// contains a raw newline — every line break is structural whitespace.
pub fn compact_json(pretty: &str) -> String {
    pretty.lines().map(str::trim).collect::<Vec<_>>().concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_line(id: &str, seed: u64) -> String {
        format!(
            r#"{{"schema":"congest.serve","version":1,"op":"query","id":"{id}",
                 "graph":{{"generator":"planted_c2k","n":64,"d":3,"k":2,"seed":5}},
                 "scenario":{{"kind":"triangle","seed":{seed}}}}}"#
        )
        .replace('\n', " ")
    }

    #[test]
    fn queries_enqueue_and_flush_answers_in_order() {
        let mut svc = Service::new(ServiceConfig::default());
        assert!(svc.handle_line(&query_line("a", 1)).is_empty());
        assert!(svc.handle_line(&query_line("b", 2)).is_empty());
        assert_eq!(svc.pending_len(), 2);
        let out = svc.handle_line(r#"{"schema":"congest.serve","version":1,"op":"flush"}"#);
        assert_eq!(out.len(), 3, "two responses + one summary");
        assert!(out[0].contains(r#""id":"a""#));
        assert!(out[1].contains(r#""id":"b""#));
        assert!(out[2].contains(r#""schema":"congest.serve.batch""#));
        // Second query reuses both the graph and the staged topology.
        assert!(out[0].contains(r#""graph":"miss","prepared":"miss""#));
        assert!(out[1].contains(r#""graph":"hit","prepared":"hit""#));
        let summary = json::parse(&out[2]).unwrap();
        let metrics = summary.get("metrics").unwrap();
        assert_eq!(metrics.get("serve.graph.builds").unwrap().as_u64(), Some(1));
        assert_eq!(
            metrics.get("serve.cache.graph_hits").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn telemetry_verb_reports_cumulative_counters_across_batches() {
        let mut svc = Service::new(ServiceConfig::default());
        svc.handle_line(&query_line("a", 1));
        svc.flush();
        svc.handle_line(&query_line("b", 2));
        svc.flush();
        let out = svc.handle_line(r#"{"schema":"congest.serve","version":1,"op":"telemetry"}"#);
        assert_eq!(out.len(), 1, "telemetry answers with exactly one line");
        let v = json::parse(&out[0]).unwrap();
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some("congest.serve.telemetry")
        );
        assert_eq!(v.get("batches").unwrap().as_u64(), Some(2));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("serve.queries").unwrap().as_u64(), Some(2));
        assert_eq!(m.get("serve.batches").unwrap().as_u64(), Some(2));
        assert!(
            v.get("p99_ms").is_some() && v.get("mean_ms").is_some(),
            "latency percentiles ride on the telemetry line"
        );
    }

    #[test]
    fn stats_verb_emits_prometheus_text() {
        let mut svc = Service::new(ServiceConfig::default());
        svc.handle_line(&query_line("a", 1));
        svc.flush();
        let text = svc
            .handle_line(r#"{"schema":"congest.serve","version":1,"op":"stats"}"#)
            .join("\n");
        assert!(text.contains("# TYPE serve_queries counter"), "{text}");
        assert!(text.contains("\nserve_queries 1"), "{text}");
        assert!(text.contains("# TYPE serve_latency_us histogram"), "{text}");
        assert!(text.contains("serve_latency_us_count 1"), "{text}");
        assert!(
            text.contains(r#"serve_latency_us_bucket{le="+Inf"} 1"#),
            "{text}"
        );
    }

    #[test]
    fn periodic_telemetry_rides_after_every_nth_flush() {
        let mut svc = Service::new(ServiceConfig {
            telemetry_every: Some(2),
            ..ServiceConfig::default()
        });
        svc.handle_line(&query_line("a", 1));
        let first = svc.flush();
        assert!(
            !first.last().unwrap().contains("congest.serve.telemetry"),
            "batch 1 of 2: no telemetry yet"
        );
        svc.handle_line(&query_line("b", 2));
        let second = svc.flush();
        let tail = second.last().unwrap();
        assert!(
            tail.contains(r#""schema":"congest.serve.telemetry""#),
            "{tail}"
        );
        assert!(tail.contains(r#""batches":2"#), "{tail}");
    }

    #[test]
    fn metrics_path_rewrites_prometheus_file_on_flush() {
        let path =
            std::env::temp_dir().join(format!("congest_serve_metrics_{}.prom", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut svc = Service::new(ServiceConfig {
            metrics_path: Some(path.to_string_lossy().into_owned()),
            ..ServiceConfig::default()
        });
        svc.handle_line(&query_line("a", 1));
        svc.flush();
        let text = std::fs::read_to_string(&path).expect("flush must write the metrics file");
        assert!(text.contains("serve_queries 1"), "{text}");
        assert!(text.contains("serve_batches 1"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_summary_reports_the_full_cache_counter_family() {
        // A capacity-1 prepared cache: two triangle queries on distinct
        // graphs stage two clique topologies, the second evicting the
        // first.
        let mut svc = Service::new(ServiceConfig {
            prepared_cache_cap: 1,
            ..ServiceConfig::default()
        });
        for (id, n) in [("a", 64), ("b", 72)] {
            let line = format!(
                r#"{{"schema":"congest.serve","version":1,"op":"query","id":"{id}","graph":{{"generator":"planted_c2k","n":{n},"d":3,"k":2,"seed":5}},"scenario":{{"kind":"triangle","seed":1}}}}"#
            );
            assert!(svc.handle_line(&line).is_empty());
        }
        let out = svc.flush();
        let summary = json::parse(out.last().unwrap()).unwrap();
        let m = summary.get("metrics").unwrap();
        for (key, want) in [
            ("serve.cache.graph_hits", 0),
            ("serve.cache.graph_misses", 2),
            ("serve.cache.graph_evictions", 0),
            ("serve.cache.prepared_hits", 0),
            ("serve.cache.prepared_misses", 2),
            ("serve.cache.prepared_evictions", 1),
        ] {
            assert_eq!(
                m.get(key).and_then(|x| x.as_u64()),
                Some(want),
                "counter {key}"
            );
        }
    }

    #[test]
    fn responses_embed_a_compact_v3_report() {
        let mut svc = Service::new(ServiceConfig::default());
        svc.handle_line(&query_line("q", 3));
        let out = svc.flush();
        let resp = json::parse(&out[0]).unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        let report = resp.get("report").unwrap();
        assert_eq!(
            report.get("schema").and_then(|s| s.as_str()),
            Some(congest::RUN_REPORT_SCHEMA)
        );
        assert!(report.get("rounds").unwrap().as_u64().unwrap() > 0);
        assert!(!out[0].contains('\n'), "response is one line");
    }

    #[test]
    fn malformed_lines_answer_immediately_and_count_in_the_summary() {
        let mut svc = Service::new(ServiceConfig::default());
        let err = svc.handle_line("this is not json");
        assert_eq!(err.len(), 1);
        assert!(err[0].contains(r#""status":"error""#));
        assert!(err[0].contains(r#""id":null"#));
        svc.handle_line(&query_line("ok", 1));
        let out = svc.flush();
        let summary = json::parse(out.last().unwrap()).unwrap();
        assert_eq!(summary.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(summary.get("queries").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn empty_flush_emits_nothing() {
        let mut svc = Service::new(ServiceConfig::default());
        assert!(svc.flush().is_empty());
        assert!(svc
            .handle_line(r#"{"schema":"congest.serve","version":1,"op":"flush"}"#)
            .is_empty());
    }

    #[test]
    fn serve_drives_a_whole_session_with_implicit_final_flush() {
        let mut svc = Service::new(ServiceConfig::default());
        let input = format!("{}\n{}\n", query_line("x", 1), query_line("y", 2));
        let mut out = Vec::new();
        svc.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "EOF flushed the batch");
        assert!(lines[2].contains("congest.serve.batch"));
    }

    #[test]
    fn compact_json_flattens_structural_whitespace_only() {
        let pretty = "{\n  \"a\": 1,\n  \"s\": \"x\\ny\"\n}";
        assert_eq!(compact_json(pretty), r#"{"a": 1,"s": "x\ny"}"#);
    }
}
