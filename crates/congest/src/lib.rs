//! # congest — instrumented CONGEST and congested-clique simulators
//!
//! The paper's results are statements about rounds × bandwidth in the
//! CONGEST model (§2). This crate substitutes the abstract network with a
//! deterministic simulator that *enforces* the `B`-bit bandwidth bound per
//! edge per round and records exact traffic statistics (total bits, per-edge
//! bits, cut traffic), so every bound in the paper becomes a measurable
//! quantity.
//!
//! * [`Simulation`] — the one way to configure and run a simulation: a
//!   builder (with [`Prepared`] staging and per-run [`Overrides`]) routing
//!   to the CONGEST engine, the reliable transport, or the congested-clique
//!   engine. Every run returns the unified [`Outcome`] (decisions, stats,
//!   faults, metrics), fails with the one [`SimError`], and reports through
//!   the one [`SimEvent`] schema.
//! * [`engine`] — the sharded CONGEST round engine behind the builder,
//!   over a [`graphlib::Graph`] topology (set [`Bandwidth::Unbounded`] for
//!   the LOCAL model).
//! * [`cliquemodel`] — the congested-clique model (all-to-all topology,
//!   separate input graph) and its [`cliquemodel::CliqueAlgorithm`] trait.
//! * [`obsv`] — the observability spine: structured [`Collector`] tracing,
//!   the [`Metrics`] registry, and the schema-versioned [`RunReport`].
//! * [`chaos`] — the deterministic chaos-schedule fuzzer: seeded fault
//!   schedules over the model space, oracle-driven soundness checks, and
//!   delta-debugging shrink to minimal JSON reproducers.
//! * [`json`] — the workspace's one JSON reader and string escaper: every
//!   run report, event dump, flight record and `congest-serve` request is
//!   read back through [`json::parse`].
//! * [`message::BitSize`] — exact on-the-wire bit accounting.
//! * [`identifiers`] — namespace/id assignments (§4, §5 separate nodes from
//!   identifiers).

#![warn(missing_docs)]

pub mod chaos;
pub mod cliquemodel;
pub mod engine;
pub mod error;
pub mod faults;
pub mod identifiers;
pub mod json;
pub mod message;
pub mod node;
pub mod obsv;
pub mod reliable;
pub mod simulation;
pub mod stats;

pub use chaos::{ChaosEvent, ChaosFailure, ChaosSchedule};
pub use engine::Bandwidth;
pub use error::SimError;
pub use faults::{
    BitFlip, CrashStop, Delivery, DeliveryCtx, FaultModel, FaultReport, FaultSpec, GilbertElliott,
    IndependentLoss, LinkFailure, NoFaults, Outage,
};
pub use message::{bits_for_domain, BitSize, BitString};
pub use node::{Decision, Inbox, NodeAlgorithm, NodeContext, Outbox, Outgoing};
pub use obsv::{
    Collector, CriticalPathSummary, EventLog, Fanout, FlightConfig, FlightRecorder, FlightTotals,
    Histogram, JsonlTrace, MetricValue, Metrics, MetricsSnapshot, PhaseStat, Profiler, RoundAgg,
    RunReport, Section, SimEvent, FLIGHT_RECORD_SCHEMA, FLIGHT_RECORD_VERSION, RUN_REPORT_SCHEMA,
    RUN_REPORT_VERSION,
};
pub use reliable::{Reliable, ReliableConfig};
pub use simulation::{CliqueRun, Degraded, Outcome, Overrides, Prepared, RunResult, Simulation};
pub use stats::{EdgeTraffic, RunStats};
