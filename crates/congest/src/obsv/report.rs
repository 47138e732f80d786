//! The machine-readable run report and the human summary table.
//!
//! A [`RunReport`] is the schema-versioned export of one simulation (or of
//! a multi-phase driver like the even-cycle detector): rounds, total and
//! per-round bits, max-edge congestion, fault tallies, a per-phase
//! breakdown, and the full metrics snapshot. The JSON it renders is built
//! from deterministic inputs only, so a seeded run's report is
//! byte-identical at any `RAYON_NUM_THREADS` — the property the golden and
//! cross-thread tests pin.

use crate::faults::FaultReport;
use crate::json;
use crate::obsv::analyze::CriticalPathSummary;
use crate::obsv::metrics::MetricsSnapshot;
use crate::simulation::Degraded;
use crate::stats::RunStats;
use std::fmt::Write as _;

/// Schema identifier embedded in every run-report JSON document.
pub const RUN_REPORT_SCHEMA: &str = "congest.run_report";
/// Version of the run-report schema. Bump when the JSON shape changes.
/// v2: per-round fault/retransmission arrays in `faults`, optional
/// `critical_path` block.
/// v3: transport-v2 tallies (`backoff_events`, `retransmissions_per_link`)
/// in `faults`, optional `degraded` block (surviving nodes + confidence).
pub const RUN_REPORT_VERSION: u32 = 3;

/// Round/bit totals of one named phase of a multi-phase driver (e.g. the
/// even-cycle detector's Phase I / Phase II).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (e.g. `"phase1"`).
    pub name: String,
    /// Rounds the phase executed (summed over repetitions).
    pub rounds: usize,
    /// Bits the phase sent (summed over repetitions).
    pub bits: u64,
}

impl PhaseStat {
    /// A phase stat.
    pub fn new(name: &str, rounds: usize, bits: u64) -> Self {
        PhaseStat {
            name: name.to_string(),
            rounds,
            bits,
        }
    }
}

/// Fault tallies of one run, flattened for export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Messages delivered intact.
    pub delivered: u64,
    /// Deliveries dropped.
    pub dropped: u64,
    /// Deliveries corrupted.
    pub corrupted: u64,
    /// Nodes crashed.
    pub crashed: u64,
    /// Transport retransmissions.
    pub retransmissions: u64,
    /// Transport retransmissions at backoff stage ≥ 2 (third or later
    /// attempt).
    pub backoff_events: u64,
    /// Transport frames given up on.
    pub given_up: u64,
    /// Drops per round (empty when the run tracked none).
    pub dropped_per_round: Vec<u64>,
    /// Transport retransmissions per physical round (empty when the run
    /// had no reliable transport).
    pub retransmissions_per_round: Vec<u64>,
    /// Transport retransmissions per directed link in CSR order (empty
    /// when the run had no reliable transport).
    pub retransmissions_per_link: Vec<u64>,
}

impl From<&FaultReport> for FaultTally {
    fn from(f: &FaultReport) -> Self {
        FaultTally {
            delivered: f.delivered,
            dropped: f.dropped,
            corrupted: f.corrupted,
            crashed: f.crashed.len() as u64,
            retransmissions: f.retransmissions,
            backoff_events: f.backoff_events,
            given_up: f.given_up,
            dropped_per_round: f.dropped_per_round.clone(),
            retransmissions_per_round: f.retransmissions_per_round.clone(),
            retransmissions_per_link: f.retransmissions_per_link.clone(),
        }
    }
}

/// The schema-versioned export of one run. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Free-form label naming the run (e.g. `"even_cycle_k2"`).
    pub label: String,
    /// Rounds executed.
    pub rounds: usize,
    /// Total bits over all edges and rounds.
    pub total_bits: u64,
    /// Total messages.
    pub total_messages: u64,
    /// Maximum bits on one directed edge in one round.
    pub max_edge_round_bits: usize,
    /// Whether the run halted before the round limit.
    pub completed: bool,
    /// Bits sent in each round.
    pub per_round_bits: Vec<u64>,
    /// Fault tallies.
    pub faults: FaultTally,
    /// Per-phase breakdown (empty for single-phase runs).
    pub phases: Vec<PhaseStat>,
    /// Critical-path analysis of the run's trace, when one was recorded
    /// (see [`crate::obsv::analyze`]; attach with
    /// [`Self::with_critical_path`]).
    pub critical_path: Option<CriticalPathSummary>,
    /// Graceful-degradation verdict, when the run degraded (attach with
    /// [`Self::with_degradation`]; `n` is carried alongside so the quorum
    /// bit renders without the topology).
    pub degraded: Option<(Degraded, usize)>,
    /// Full metrics snapshot.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// A report assembled from run products (no phase breakdown; attach one
    /// with [`Self::with_phases`]).
    pub fn from_stats(
        label: &str,
        stats: &RunStats,
        faults: &FaultReport,
        completed: bool,
        metrics: MetricsSnapshot,
    ) -> Self {
        RunReport {
            label: label.to_string(),
            rounds: stats.rounds,
            total_bits: stats.total_bits,
            total_messages: stats.total_messages,
            max_edge_round_bits: stats.max_edge_round_bits,
            completed,
            per_round_bits: stats.per_round_bits.clone(),
            faults: FaultTally::from(faults),
            phases: Vec::new(),
            critical_path: None,
            degraded: None,
            metrics,
        }
    }

    /// Attaches a per-phase breakdown.
    pub fn with_phases(mut self, phases: Vec<PhaseStat>) -> Self {
        self.phases = phases;
        self
    }

    /// Attaches a critical-path analysis (computed by
    /// [`crate::obsv::analyze::critical_path`] over the run's trace). The
    /// summary is deterministic, so it is safe in golden reports.
    pub fn with_critical_path(mut self, cp: CriticalPathSummary) -> Self {
        self.critical_path = Some(cp);
        self
    }

    /// Attaches the graceful-degradation verdict of a run over `n` nodes
    /// (no-op when the run completed cleanly). Confidence is rendered with
    /// fixed precision, so the block is safe in golden reports.
    pub fn with_degradation(mut self, degraded: Option<Degraded>, n: usize) -> Self {
        self.degraded = degraded.map(|d| (d, n));
        self
    }

    /// The report as one schema-versioned JSON document (trailing newline
    /// included). Built from deterministic inputs only — see module docs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, r#"  "schema": "{RUN_REPORT_SCHEMA}","#);
        let _ = writeln!(out, r#"  "version": {RUN_REPORT_VERSION},"#);
        let _ = writeln!(out, r#"  "label": "{}","#, json::escape(&self.label));
        let _ = writeln!(out, r#"  "rounds": {},"#, self.rounds);
        let _ = writeln!(out, r#"  "total_bits": {},"#, self.total_bits);
        let _ = writeln!(out, r#"  "total_messages": {},"#, self.total_messages);
        let _ = writeln!(
            out,
            r#"  "max_edge_round_bits": {},"#,
            self.max_edge_round_bits
        );
        let _ = writeln!(out, r#"  "completed": {},"#, self.completed);
        let series: Vec<String> = self.per_round_bits.iter().map(u64::to_string).collect();
        let _ = writeln!(out, r#"  "per_round_bits": [{}],"#, series.join(","));
        let f = &self.faults;
        let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let _ = writeln!(
            out,
            r#"  "faults": {{"delivered":{},"dropped":{},"corrupted":{},"crashed":{},"retransmissions":{},"backoff_events":{},"given_up":{},"dropped_per_round":[{}],"retransmissions_per_round":[{}],"retransmissions_per_link":[{}]}},"#,
            f.delivered,
            f.dropped,
            f.corrupted,
            f.crashed,
            f.retransmissions,
            f.backoff_events,
            f.given_up,
            join(&f.dropped_per_round),
            join(&f.retransmissions_per_round),
            join(&f.retransmissions_per_link)
        );
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    r#"{{"name":"{}","rounds":{},"bits":{}}}"#,
                    json::escape(&p.name),
                    p.rounds,
                    p.bits
                )
            })
            .collect();
        let _ = writeln!(out, r#"  "phases": [{}],"#, phases.join(","));
        if let Some(cp) = &self.critical_path {
            let _ = writeln!(out, r#"  "critical_path": {},"#, cp.to_json());
        }
        if let Some((d, n)) = &self.degraded {
            let surviving: Vec<String> = d.surviving.iter().map(usize::to_string).collect();
            let _ = writeln!(
                out,
                r#"  "degraded": {{"surviving":[{}],"confidence":{:.4},"quorum":{}}},"#,
                surviving.join(","),
                d.confidence,
                d.has_quorum(*n)
            );
        }
        let _ = writeln!(out, r#"  "metrics": {}"#, self.metrics.to_json());
        out.push_str("}\n");
        out
    }

    /// A compact human-readable summary table.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run report: {}", self.label);
        let w = 24;
        let mut row = |k: &str, v: String| {
            let _ = writeln!(out, "  {k:<w$} {v}");
        };
        row("rounds", self.rounds.to_string());
        row("total bits", self.total_bits.to_string());
        row("total messages", self.total_messages.to_string());
        row(
            "max edge congestion",
            format!("{} bits/round", self.max_edge_round_bits),
        );
        row("completed", self.completed.to_string());
        let f = &self.faults;
        row(
            "faults",
            format!(
                "{} delivered, {} dropped, {} corrupted, {} crashed",
                f.delivered, f.dropped, f.corrupted, f.crashed
            ),
        );
        if f.retransmissions > 0 || f.given_up > 0 {
            row(
                "transport",
                format!(
                    "{} retransmissions ({} backed off), {} given up",
                    f.retransmissions, f.backoff_events, f.given_up
                ),
            );
        }
        if let Some((d, n)) = &self.degraded {
            row(
                "degraded",
                format!(
                    "{} of {} nodes surviving (quorum: {}), confidence {:.4}",
                    d.surviving.len(),
                    n,
                    d.has_quorum(*n),
                    d.confidence
                ),
            );
        }
        for p in &self.phases {
            row(
                &format!("phase {}", p.name),
                format!("{} rounds, {} bits", p.rounds, p.bits),
            );
        }
        if let Some(cp) = &self.critical_path {
            for p in &cp.phases {
                row(
                    &format!("critical path {}", p.phase),
                    format!("{} bits over {} messages", p.max_path_bits, p.max_path_len),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obsv::metrics::Metrics;
    use graphlib::generators;

    fn sample_report() -> RunReport {
        let g = generators::cycle(4);
        let mut stats = RunStats::new(&g);
        stats.rounds = 2;
        stats.total_bits = 96;
        stats.total_messages = 8;
        stats.max_edge_round_bits = 12;
        stats.per_round_bits = vec![64, 32];
        stats.per_round_messages = vec![6, 2];
        let faults = FaultReport::default();
        let metrics = Metrics::from_run(&stats, &faults).snapshot();
        RunReport::from_stats("sample", &stats, &faults, true, metrics)
            .with_phases(vec![PhaseStat::new("phase1", 2, 96)])
    }

    #[test]
    fn json_is_schema_versioned_and_parses() {
        let json = sample_report().to_json();
        assert!(json.contains(r#""schema": "congest.run_report""#), "{json}");
        assert!(json.contains(&format!(r#""version": {RUN_REPORT_VERSION}"#)));
        assert!(json.contains(r#""per_round_bits": [64,32]"#));
        assert!(json.contains(r#""phases": [{"name":"phase1","rounds":2,"bits":96}]"#));
        assert!(json.contains(r#""dropped_per_round":[]"#), "{json}");
        assert!(json.contains(r#""bits.total":96"#));
        assert!(json.contains(r#""backoff_events":0"#), "{json}");
        assert!(json.contains(r#""retransmissions_per_link":[]"#), "{json}");
        assert!(!json.contains("critical_path"), "absent unless attached");
        assert!(!json.contains("degraded"), "absent unless attached");
        let v = json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert_eq!(
            v.get("schema").and_then(json::Value::as_str),
            Some(RUN_REPORT_SCHEMA)
        );
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn per_round_fault_arrays_and_critical_path_render() {
        let g = generators::cycle(4);
        let mut stats = RunStats::new(&g);
        stats.rounds = 2;
        let faults = FaultReport {
            dropped: 3,
            dropped_per_round: vec![2, 1],
            retransmissions: 4,
            retransmissions_per_round: vec![0, 4],
            ..FaultReport::default()
        };
        let metrics = Metrics::from_run(&stats, &faults).snapshot();
        let cp = crate::obsv::analyze::critical_path(&[]);
        let report =
            RunReport::from_stats("arq", &stats, &faults, true, metrics).with_critical_path(cp);
        let json = report.to_json();
        assert!(json.contains(r#""dropped_per_round":[2,1]"#), "{json}");
        assert!(
            json.contains(r#""retransmissions_per_round":[0,4]"#),
            "{json}"
        );
        assert!(
            json.contains(r#""critical_path": {"phases":[],"segments":[]}"#),
            "{json}"
        );
        let v = json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        let faults = v.get("faults").unwrap();
        assert_eq!(faults.int::<u64>("dropped"), Ok(3));
    }

    #[test]
    fn degraded_block_renders_with_fixed_precision() {
        let g = generators::cycle(4);
        let mut stats = RunStats::new(&g);
        stats.rounds = 3;
        let faults = FaultReport {
            retransmissions: 7,
            backoff_events: 2,
            retransmissions_per_link: vec![3, 0, 4, 0, 0, 0, 0, 0],
            given_up: 1,
            ..FaultReport::default()
        };
        let metrics = Metrics::from_run(&stats, &faults).snapshot();
        let report = RunReport::from_stats("degraded", &stats, &faults, false, metrics)
            .with_degradation(
                Some(Degraded {
                    surviving: vec![0, 1, 2],
                    confidence: 0.75,
                }),
                4,
            );
        let json = report.to_json();
        assert!(
            json.contains(r#""degraded": {"surviving":[0,1,2],"confidence":0.7500,"quorum":true}"#),
            "{json}"
        );
        assert!(json.contains(r#""backoff_events":2"#), "{json}");
        assert!(
            json.contains(r#""retransmissions_per_link":[3,0,4,0,0,0,0,0]"#),
            "{json}"
        );
        let v = json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        let degraded = v.get("degraded").unwrap();
        assert_eq!(
            degraded.get("confidence").and_then(json::Value::as_f64),
            Some(0.75)
        );
        let table = report.summary_table();
        assert!(table.contains("3 of 4 nodes surviving"), "{table}");
        assert!(table.contains("confidence 0.7500"), "{table}");
        assert!(table.contains("2 backed off"), "{table}");
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let s = sample_report().summary_table();
        assert!(s.contains("sample"));
        assert!(s.contains("96"));
        assert!(s.contains("phase phase1"), "{s}");
    }
}
