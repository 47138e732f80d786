//! Observability spine shared by every simulator backend.
//!
//! The paper's claims are quantitative — Theorem 1.1's round bound and
//! Theorem 5.1's bandwidth bound only mean something if rounds, bits, and
//! per-edge congestion are *measured* and *exportable*. This module tree is
//! the one instrumentation layer all backends feed:
//!
//! * [`collect`] — a zero-cost-when-disabled structured tracing layer: the
//!   [`Collector`] trait receives event records (round start/end,
//!   send/deliver/drop/corrupt/crash, transport tallies)
//!   from the CONGEST engine, the congested-clique engine, and the reliable
//!   transport, all in the one [`SimEvent`] schema. The stock collectors
//!   are the in-memory [`EventLog`], the bounded [`JsonlTrace`], and the
//!   [`flight::FlightRecorder`].
//! * [`metrics`] — a registry of counters/gauges/histograms with
//!   *deterministic snapshot ordering* (sorted by name), so metric output is
//!   byte-identical under the work-stealing pool at any thread count.
//! * [`report`] — exporters: the schema-versioned run-report JSON, a
//!   JSON-lines trace dump ([`JsonlTrace`]), and a human summary table.
//! * [`analyze`] — consumers of a recorded event stream: the happens-before
//!   DAG induced by the provenance on [`SimEvent::Send`], the weighted
//!   critical path through it, per-edge congestion heatmaps, a trace
//!   invariant checker, and a structural trace diff.
//! * [`profile`] — the engine self-profiler: cheap wall-clock spans around
//!   the engine's own stages (accounting, staging, delivery, node compute,
//!   ARQ retransmit scans), off unless a [`profile::Profiler`] is
//!   installed, exported as [`Metrics`] histograms or folded stacks.
//!
//! Determinism contract: every event the engines emit is recorded from
//! sequential code in node order and carries no wall-clock value, so a
//! run's event stream is a pure function of (graph, configuration, seed)
//! and collectors observe an identical stream at any `RAYON_NUM_THREADS`.
//! Wall-clock time is measured in one place only, the opt-in
//! [`profile::Profiler`], whose histograms never reach an event, a
//! deterministic run report or a golden file.

pub mod analyze;
pub mod collect;
pub mod flight;
pub mod metrics;
pub mod profile;
pub mod report;

pub use analyze::{
    check, critical_path, diff, heatmap, idle_tail, CriticalPathSummary, IdleTailSummary,
    PhasePath, SegmentIdleTail, SegmentPath,
};
pub use collect::{Collector, EventLog, Fanout, JsonlTrace, SimEvent};
pub use flight::{
    FlightConfig, FlightRecorder, FlightTotals, RoundAgg, TopEntry, FLIGHT_RECORD_SCHEMA,
    FLIGHT_RECORD_VERSION,
};
pub use metrics::{Histogram, MetricValue, Metrics, MetricsSnapshot};
pub use profile::{Profiler, Section};
pub use report::{PhaseStat, RunReport, RUN_REPORT_SCHEMA, RUN_REPORT_VERSION};
