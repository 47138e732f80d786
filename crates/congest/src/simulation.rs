//! The one front door to every simulator backend.
//!
//! [`Simulation`] is a builder covering the CONGEST engine, the reliable
//! transport, and the congested-clique engine behind a single fluent API:
//!
//! ```
//! use congest::{Bandwidth, Simulation};
//! # use congest::{Decision, Inbox, NodeAlgorithm, NodeContext, Outbox, Outgoing};
//! # use rand_chacha::ChaCha8Rng;
//! # struct Quiet;
//! # impl NodeAlgorithm for Quiet {
//! #     type Msg = u64;
//! #     fn init(&mut self, _: &NodeContext, _: &mut ChaCha8Rng) -> Outbox<u64> { Vec::new() }
//! #     fn on_round(&mut self, _: &NodeContext, _: &Inbox<u64>, _: &mut ChaCha8Rng) -> Outbox<u64> { Vec::new() }
//! #     fn halted(&self) -> bool { true }
//! #     fn decision(&self) -> Decision { Decision::Accept }
//! # }
//! let g = graphlib::generators::cycle(8);
//! let outcome = Simulation::on(&g)
//!     .bandwidth(Bandwidth::Bits(64))
//!     .seed(7)
//!     .run(|_| Quiet)
//!     .unwrap();
//! assert!(outcome.completed);
//! ```
//!
//! Configuration the selected backend cannot honor (faults on the clique
//! engine, reliable transport under broadcast-only, ...) surfaces as
//! [`SimError::Unsupported`] instead of being silently dropped.
//!
//! Every run returns a [`RunResult`] wrapping the unified [`Outcome`] (and,
//! for clique runs, the typed [`CliqueRun`]): per-node decisions, the exact
//! [`RunStats`], the [`FaultReport`], and a deterministic
//! [`MetricsSnapshot`]; [`RunResult::report`] renders all of it as one
//! schema-versioned [`RunReport`].
//!
//! # Batched runs: [`Simulation::prepare`]
//!
//! A one-shot `run` stages the topology (shard layout, reverse-port table)
//! and tears it down again. Batched workloads — many seeds over one graph,
//! one graph times many detectors — call [`Simulation::prepare`] once and
//! replay the staged [`Prepared`] topology with per-run [`Overrides`]
//! (seed, round cap, faults, collector):
//!
//! ```
//! # use congest::{Bandwidth, Simulation};
//! # use congest::{Decision, Inbox, NodeAlgorithm, NodeContext, Outbox, Outgoing};
//! # use rand_chacha::ChaCha8Rng;
//! # struct Quiet;
//! # impl NodeAlgorithm for Quiet {
//! #     type Msg = u64;
//! #     fn init(&mut self, _: &NodeContext, _: &mut ChaCha8Rng) -> Outbox<u64> { Vec::new() }
//! #     fn on_round(&mut self, _: &NodeContext, _: &Inbox<u64>, _: &mut ChaCha8Rng) -> Outbox<u64> { Vec::new() }
//! #     fn halted(&self) -> bool { true }
//! #     fn decision(&self) -> Decision { Decision::Accept }
//! # }
//! let g = graphlib::generators::cycle(8);
//! let prepared = Simulation::on(&g).bandwidth(Bandwidth::Bits(64)).prepare();
//! for seed in 0..4 {
//!     let out = prepared.run_seed(seed, |_| Quiet).unwrap();
//!     assert!(out.completed);
//! }
//! ```
//!
//! `Prepared` is `Clone + Send + Sync` (an `Arc` handle), so a service can
//! fan a batch of runs over the rayon pool against one staged topology.
//! Results are bit-for-bit identical to one-shot runs with the same
//! configuration — staging is purely an amortization.

use crate::cliquemodel::{CliqueAlgorithm, CliqueEngine, CliqueStats};
use crate::engine::{Bandwidth, Engine, EnginePlan};
use crate::error::SimError;
use crate::faults::{FaultReport, FaultSpec};
use crate::node::{Decision, NodeAlgorithm};
use crate::obsv::collect::{Collector, Fanout};
use crate::obsv::flight::FlightRecorder;
use crate::obsv::metrics::{Metrics, MetricsSnapshot};
use crate::obsv::profile::Profiler;
use crate::obsv::report::RunReport;
use crate::reliable::{run_reliable_impl, ReliableConfig};
use crate::stats::RunStats;
use graphlib::Graph;
use std::hash::Hash;
use std::sync::Arc;

/// Unified result of any [`Simulation`] run: per-node decisions, exact
/// traffic stats, the fault report, the degradation verdict, and the
/// frozen metrics snapshot. Clique runs produce it too (with an empty
/// decision vector — clique algorithms return typed outputs instead, see
/// [`CliqueRun`]).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Per-node decisions at the end of the run (empty for clique runs).
    pub decisions: Vec<Decision>,
    /// Exact traffic and round statistics.
    pub stats: RunStats,
    /// Whether the run ended before the round limit: every live node
    /// halted (crashed nodes count as halted — they can never halt
    /// voluntarily), or, under early termination, every live node was
    /// quiescent with nothing in flight.
    pub completed: bool,
    /// What the fault layer (and reliable transport) did to this run
    /// (all-zeros for fault-free runs).
    pub faults: FaultReport,
    /// `Some` when the run degraded instead of completing cleanly (round
    /// budget exhausted, transport give-ups, or crashed nodes); the
    /// decision then covers the surviving subgraph only, loss-soundly.
    pub degraded: Option<Degraded>,
    /// Deterministic, name-sorted metrics snapshot of the run.
    pub metrics: MetricsSnapshot,
}

impl Outcome {
    /// Whether this run degraded (see [`Degraded`]).
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Definition 1 semantics: the network "detects H" iff some node rejects.
    pub fn network_rejects(&self) -> bool {
        self.decisions.contains(&Decision::Reject)
    }

    /// Convenience inverse of [`Self::network_rejects`].
    pub fn network_accepts(&self) -> bool {
        !self.network_rejects()
    }

    /// Whether the run was cut off by the round limit rather than halting
    /// cleanly — the explicit negation of [`Self::completed`], so callers
    /// distinguish "all nodes halted" from "the simulation gave up".
    pub fn hit_round_limit(&self) -> bool {
        !self.completed
    }

    /// Whether some node that never crashed rejects. Under crash faults
    /// this is the meaningful detection signal: a crashed node's last
    /// decision is frozen pre-crash state, not an output of the protocol.
    pub fn surviving_node_rejects(&self) -> bool {
        let crashed = self.faults.crashed_nodes();
        self.decisions
            .iter()
            .enumerate()
            .any(|(v, d)| *d == Decision::Reject && crashed.binary_search(&v).is_err())
    }

    /// Exports the outcome as a schema-versioned [`RunReport`]. Degraded
    /// runs carry their graceful-degradation verdict into the report's
    /// `degraded` block.
    pub fn report(&self, label: &str) -> RunReport {
        RunReport::from_stats(
            label,
            &self.stats,
            &self.faults,
            self.completed,
            self.metrics.clone(),
        )
        .with_degradation(self.degraded.clone(), self.decisions.len())
    }

    /// (Re-)derives the degradation verdict from the current fault report
    /// and completion flag, for a network of `n` nodes. Called by the
    /// engine at the end of every run and again by the reliable transport
    /// after folding its give-up tallies in.
    pub(crate) fn assess_degradation(&mut self, n: usize) {
        let crashed = self.faults.crashed_nodes();
        if self.completed && crashed.is_empty() && self.faults.given_up == 0 {
            self.degraded = None;
            return;
        }
        let surviving: Vec<usize> = (0..n)
            .filter(|v| crashed.binary_search(v).is_err())
            .collect();
        let surviving_frac = if n == 0 {
            1.0
        } else {
            surviving.len() as f64 / n as f64
        };
        let attempts = self.faults.delivered + self.faults.dropped;
        let delivered_frac = if attempts == 0 {
            1.0
        } else {
            self.faults.delivered as f64 / attempts as f64
        };
        self.degraded = Some(Degraded {
            surviving,
            confidence: surviving_frac * delivered_frac,
        });
    }
}

/// Graceful-degradation verdict for a run that did not go perfectly:
/// the round-budget watchdog tripped (`max_rounds` hit), the transport
/// gave frames up, or nodes crashed. The decision is still usable — it
/// covers the *surviving* subgraph and stays loss-sound (faults only
/// remove information) — but the caller should know how much of the
/// network it speaks for.
#[derive(Debug, Clone, PartialEq)]
pub struct Degraded {
    /// Nodes that never crashed, in index order.
    pub surviving: Vec<usize>,
    /// Rough quality estimate in `[0, 1]`: the surviving-node fraction
    /// times the fraction of fault-layer deliveries that succeeded.
    pub confidence: f64,
}

impl Degraded {
    /// Whether a strict majority of the `n` nodes survived — the quorum
    /// under which a surviving-subgraph decision is conventionally
    /// considered representative.
    pub fn has_quorum(&self, n: usize) -> bool {
        2 * self.surviving.len() > n
    }
}

/// Result of a congested-clique run through the builder: the typed per-node
/// outputs and clique-specific stats, alongside the unified [`Outcome`].
#[derive(Debug)]
pub struct CliqueRun<O> {
    /// Per-node outputs of the clique algorithm.
    pub outputs: Vec<O>,
    /// Clique-specific statistics (per-ordered-pair congestion).
    pub stats: CliqueStats,
    /// The unified outcome (decisions empty; completion, traffic stats and
    /// metrics populated from the all-to-all topology accounting).
    pub outcome: Outcome,
}

/// The unified result enum every [`Simulation`] / [`Prepared`] entry point
/// returns: a CONGEST run's [`Outcome`], or a clique run's typed
/// [`CliqueRun`]. Both variants carry an [`Outcome`], and the enum derefs
/// to it, so callers that only read decisions/stats/metrics (or call
/// [`Outcome::report`]) never match on the backend.
#[derive(Debug)]
pub enum RunResult<O = ()> {
    /// A CONGEST-engine (or reliable-transport) run.
    Congest(Outcome),
    /// A congested-clique run with typed per-node outputs.
    Clique(CliqueRun<O>),
}

impl<O> RunResult<O> {
    /// The unified outcome, whichever backend ran.
    pub fn outcome(&self) -> &Outcome {
        match self {
            RunResult::Congest(o) => o,
            RunResult::Clique(c) => &c.outcome,
        }
    }

    /// Consumes the result into its unified outcome.
    pub fn into_outcome(self) -> Outcome {
        match self {
            RunResult::Congest(o) => o,
            RunResult::Clique(c) => c.outcome,
        }
    }

    /// The clique view, when the clique backend ran.
    pub fn as_clique(&self) -> Option<&CliqueRun<O>> {
        match self {
            RunResult::Clique(c) => Some(c),
            RunResult::Congest(_) => None,
        }
    }

    /// Consumes the result into its [`CliqueRun`].
    ///
    /// # Panics
    /// If this was a CONGEST run — only call on [`Simulation::run_clique`] /
    /// [`Prepared::run_clique`] results.
    pub fn into_clique(self) -> CliqueRun<O> {
        match self {
            RunResult::Clique(c) => c,
            RunResult::Congest(_) => panic!("RunResult::into_clique on a CONGEST run"),
        }
    }

    /// The common report path: [`Outcome::report`] of whichever backend ran.
    pub fn report(&self, label: &str) -> RunReport {
        self.outcome().report(label)
    }
}

impl<O> std::ops::Deref for RunResult<O> {
    type Target = Outcome;

    fn deref(&self) -> &Outcome {
        self.outcome()
    }
}

/// The graph a simulation runs over: borrowed for the classic
/// `Simulation::on(&g)` entry, or `Arc`-shared so [`Prepared`] (and caches
/// above it) can hold the topology without a deep copy.
enum GraphRef<'g> {
    Borrowed(&'g Graph),
    Shared(Arc<Graph>),
}

impl GraphRef<'_> {
    fn get(&self) -> &Graph {
        match self {
            GraphRef::Borrowed(g) => g,
            GraphRef::Shared(a) => a,
        }
    }

    /// The graph behind an `Arc`: free for `Shared`, one structural clone
    /// for `Borrowed` (the CSR offsets and packed-adjacency cache are
    /// already `Arc`-shared by `Graph::clone`).
    fn to_arc(&self) -> Arc<Graph> {
        match self {
            GraphRef::Borrowed(g) => Arc::new((*g).clone()),
            GraphRef::Shared(a) => Arc::clone(a),
        }
    }
}

/// Everything a run needs besides the topology. [`Simulation`] builds one;
/// [`Prepared`] snapshots it and applies per-run [`Overrides`] on top; the
/// engines read it directly. `None` fields take their defaults, which each
/// engine's constructor resolves once per run.
#[derive(Clone)]
pub(crate) struct SimConfig {
    pub(crate) bandwidth: Option<Bandwidth>,
    pub(crate) ids: Option<Arc<[u64]>>,
    pub(crate) max_rounds: Option<usize>,
    pub(crate) seed: u64,
    pub(crate) broadcast_only: bool,
    pub(crate) faults: FaultSpec,
    pub(crate) reliable: Option<ReliableConfig>,
    pub(crate) collector: Option<Arc<dyn Collector>>,
    pub(crate) flight: Option<Arc<FlightRecorder>>,
    pub(crate) profiler: Option<Arc<Profiler>>,
    pub(crate) shards: usize,
    pub(crate) early_termination: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            bandwidth: None,
            ids: None,
            max_rounds: None,
            seed: 0,
            broadcast_only: false,
            faults: FaultSpec::None,
            reliable: None,
            collector: None,
            flight: None,
            profiler: None,
            shards: 0,
            early_termination: false,
        }
    }
}

impl SimConfig {
    /// Checks a CONGEST run's configuration against its `n`-node topology
    /// before any run state is built, so a bad value is an error, not a
    /// panic mid-run: every fault probability, the identifier count, and
    /// the reliable transport's tuning and its need for unicasts.
    fn validate(&self, n: usize) -> Result<(), SimError> {
        self.faults.validate().map_err(SimError::Config)?;
        if let Some(ids) = &self.ids {
            if ids.len() != n {
                return Err(SimError::Config(format!(
                    "with_ids needs one identifier per node: got {}, the topology has {n}",
                    ids.len()
                )));
            }
        }
        if let Some(cfg) = self.reliable {
            if self.broadcast_only {
                return Err(SimError::Unsupported(
                    "reliable transport under broadcast-only (the ARQ envelope \
                     needs per-port unicasts)"
                        .into(),
                ));
            }
            cfg.validate().map_err(SimError::Config)?;
        }
        Ok(())
    }

    /// Every installed sink — the user collector and the flight recorder —
    /// as the one handle an engine records to.
    fn combined_collector(&self) -> Option<Arc<dyn Collector>> {
        let mut sinks: Vec<Arc<dyn Collector>> = Vec::new();
        if let Some(c) = &self.collector {
            sinks.push(Arc::clone(c));
        }
        if let Some(f) = &self.flight {
            sinks.push(Arc::clone(f) as Arc<dyn Collector>);
        }
        match sinks.len() {
            0 => None,
            1 => sinks.pop(),
            _ => Some(Arc::new(Fanout(sinks))),
        }
    }

    /// Snapshots the run's metrics into `outcome`, from a fresh registry.
    fn finish(&self, mut outcome: Outcome) -> Outcome {
        let mut m = Metrics::from_run(&outcome.stats, &outcome.faults);
        if let Some(p) = &self.profiler {
            p.install_into(&mut m);
        }
        // Surface collector capacity overflow (bounded `JsonlTrace`
        // truncation) — present only when non-zero, so untruncated runs
        // keep their exact metric set.
        if let Some(c) = &self.collector {
            let d = c.dropped_events();
            if d > 0 {
                m.inc("trace.dropped_events", d);
            }
        }
        // Flight-recorder occupancy: cumulative over the recorder's
        // lifetime (one recorder may span a batch of runs).
        if let Some(f) = &self.flight {
            m.inc("flight.sends.seen", f.sends_seen());
            m.inc("flight.sends.sampled", f.samples_len() as u64);
            m.inc("flight.ring.rounds", f.ring_len() as u64);
            let rd = f.ring_dropped_events();
            if rd > 0 {
                m.inc("flight.ring.dropped_events", rd);
            }
        }
        outcome.metrics = m.snapshot();
        // Black-box behavior: a degraded run (round budget exhausted,
        // transport give-ups, crashes) dumps the flight record.
        if outcome.degraded.is_some() {
            if let Some(f) = &self.flight {
                f.dump_on_failure("run degraded");
            }
        }
        outcome
    }

    fn run_with_nodes_impl<A, F>(
        &self,
        graph: &Graph,
        plan: Option<&EnginePlan>,
        make: F,
    ) -> Result<(Outcome, Vec<A>), SimError>
    where
        A: NodeAlgorithm,
        A::Msg: Hash,
        F: Fn(usize) -> A + Sync,
    {
        self.validate(graph.n())?;
        // Shard layout + reverse-port table: staged by `Prepared` across a
        // batch, or built here for a one-shot run — identical either way.
        let built;
        let plan = match plan {
            Some(p) => p,
            None => {
                built = EnginePlan::build(graph, self.shards);
                &built
            }
        };
        let engine = Engine::new(graph, plan, self, self.combined_collector());
        let result = match self.reliable {
            Some(cfg) => run_reliable_impl(&engine, cfg, make),
            None => engine.run(make),
        };
        let (outcome, nodes) = match result {
            Ok(v) => v,
            Err(e) => {
                // The run died mid-flight: the ring (including its open
                // partial round) is exactly the evidence to preserve.
                if let Some(f) = &self.flight {
                    f.dump_on_failure(&format!("run failed: {e}"));
                }
                return Err(e);
            }
        };
        Ok((self.finish(outcome), nodes))
    }

    fn run_clique_impl<A, F>(
        &self,
        graph: &Graph,
        make: F,
    ) -> Result<CliqueRun<A::Output>, SimError>
    where
        A: CliqueAlgorithm,
        F: Fn(usize) -> A + Sync,
    {
        // The CONGEST engine's own test: a plan with no delivery layer and
        // no crash is never consulted.
        if !self.faults.compile(graph, self.seed).is_empty() {
            return Err(SimError::Unsupported(
                "fault injection on the clique engine".into(),
            ));
        }
        if self.reliable.is_some() {
            return Err(SimError::Unsupported(
                "reliable transport on the clique engine".into(),
            ));
        }
        if self.broadcast_only {
            return Err(SimError::Unsupported(
                "broadcast-only mode on the clique engine".into(),
            ));
        }
        if self.ids.is_some() {
            return Err(SimError::Unsupported(
                "custom identifiers on the clique engine (indices are public)".into(),
            ));
        }
        if self.bandwidth == Some(Bandwidth::Unbounded) {
            return Err(SimError::Unsupported(
                "unbounded bandwidth on the clique engine".into(),
            ));
        }
        let mut run = CliqueEngine::new(graph, self, self.combined_collector()).run(make)?;
        run.outcome = self.finish(run.outcome);
        Ok(run)
    }
}

/// Builder over every simulator backend. See the module docs.
pub struct Simulation<'g> {
    graph: GraphRef<'g>,
    cfg: SimConfig,
}

impl<'g> Simulation<'g> {
    /// A simulation over `graph` — the topology for CONGEST runs, the
    /// *input* graph for clique runs (whose topology is all-to-all).
    /// Defaults: [`Bandwidth::log_of`]`(n)` bandwidth, identifiers
    /// `id(v) = v`, seed 0, a round cap of `16 (n + 2)²` (`4 (n + 2)²` for
    /// clique runs), no faults, no collector.
    pub fn on(graph: &'g Graph) -> Self {
        Simulation {
            graph: GraphRef::Borrowed(graph),
            cfg: SimConfig::default(),
        }
    }

    /// Like [`Self::on`], but over an `Arc`-shared graph, so
    /// [`Self::prepare`] (and caches above it, see `congest-serve`) reuse
    /// the handle instead of cloning the topology.
    pub fn on_shared(graph: Arc<Graph>) -> Simulation<'static> {
        Simulation {
            graph: GraphRef::Shared(graph),
            cfg: SimConfig::default(),
        }
    }

    /// Sets the per-edge bandwidth for CONGEST runs; a clique run takes
    /// `Bandwidth::Bits(b)` as its per-ordered-pair budget (and rejects
    /// `Bandwidth::Unbounded`).
    pub fn bandwidth(mut self, b: Bandwidth) -> Self {
        self.cfg.bandwidth = Some(b);
        self
    }

    /// Installs a fault model (see [`crate::faults`]). Every probability in
    /// the spec is checked when the run starts; one outside `[0, 1]` (or
    /// NaN) fails the run with [`SimError::Config`].
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.cfg.faults = spec;
        self
    }

    /// Runs the algorithm under the reliable ARQ transport (default
    /// tuning). Remember to budget bandwidth and rounds for the envelope:
    /// see [`ReliableConfig::required_bandwidth`] and
    /// [`ReliableConfig::physical_rounds`].
    pub fn reliable(mut self, on: bool) -> Self {
        self.cfg.reliable = if on {
            Some(ReliableConfig::default())
        } else {
            None
        };
        self
    }

    /// Runs under the reliable transport with explicit tuning (implies
    /// `reliable(true)`).
    pub fn reliable_config(mut self, cfg: ReliableConfig) -> Self {
        self.cfg.reliable = Some(cfg);
        self
    }

    /// Installs a structured-event [`Collector`] (see [`crate::obsv`]).
    pub fn collector<C: Collector + 'static>(self, c: C) -> Self {
        self.collector_arc(Arc::new(c))
    }

    /// Installs an already-shared [`Collector`] handle.
    pub fn collector_arc(mut self, c: Arc<dyn Collector>) -> Self {
        self.cfg.collector = Some(c);
        self
    }

    /// Installs a [`FlightRecorder`]:
    /// the bounded-memory streaming telemetry layer. Composes with any
    /// [`Self::collector`] through a [`Fanout`]; the run's metrics gain the
    /// `flight.*` counters, and a degraded or failed run writes the flight
    /// record to [`FlightConfig::dump_path`](crate::obsv::flight::FlightConfig)
    /// when one is configured. Unless the recorder asks for provenance, the
    /// engines skip building per-send `deps` sets while it is the only
    /// collector installed — that is what keeps it cheap enough to leave on.
    pub fn flight_recorder(mut self, f: Arc<FlightRecorder>) -> Self {
        self.cfg.flight = Some(f);
        self
    }

    /// Installs the engine self-profiler (see [`crate::obsv::profile`]):
    /// the run's accounting / staging / delivery / compute / ARQ sections
    /// are timed into the shared [`Profiler`], and its section histograms
    /// land in [`Outcome::metrics`] as `profile.*_nanos`. These are the
    /// only wall-clock (so non-deterministic) values a run produces; the
    /// engines pay one branch per section per round
    /// when no profiler is installed.
    pub fn profiler(mut self, p: Arc<Profiler>) -> Self {
        self.cfg.profiler = Some(p);
        self
    }

    /// Seeds all node RNGs (and the fault models). Node `v`'s RNG is a
    /// function of `(seed, v)` alone: `ChaCha8Rng::seed_from_u64(s0 ^ v ·
    /// 0x9E3779B97F4A7C15)` (wrapping multiply), where `s0` is the first
    /// `u64` drawn from `ChaCha8Rng::seed_from_u64(seed)`. No shard or
    /// thread count can change what a node draws.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Pins the CONGEST engine's shard count (0 = one shard per rayon
    /// worker, the default). The shard count is a parallel-grain knob
    /// only: every observable of the run — decisions, inboxes, traces,
    /// fault outcomes — is identical at any value.
    pub fn shards(mut self, s: usize) -> Self {
        self.cfg.shards = s;
        self
    }

    /// Enables causal early termination on the CONGEST engine: once
    /// nothing is in flight and every live node reports
    /// [`NodeAlgorithm::quiescent`], the remaining rounds are skipped.
    /// Decisions are unchanged; executed-round counts (and per-round
    /// series) reflect the truncated run. Off by default; intended for
    /// fault-free performance runs.
    pub fn early_termination(mut self, on: bool) -> Self {
        self.cfg.early_termination = on;
        self
    }

    /// Caps the number of communication rounds.
    pub fn max_rounds(mut self, r: usize) -> Self {
        self.cfg.max_rounds = Some(r);
        self
    }

    /// Sets the identifier assignment for CONGEST runs (must be `n`
    /// values, or the run fails with [`SimError::Config`]). Clique node
    /// indices are public, so clique runs reject this.
    pub fn with_ids(mut self, ids: Vec<u64>) -> Self {
        self.cfg.ids = Some(ids.into());
        self
    }

    /// Switches CONGEST runs to broadcast-CONGEST (unicasts rejected).
    pub fn broadcast_only(mut self, on: bool) -> Self {
        self.cfg.broadcast_only = on;
        self
    }

    /// Stages the topology for batched reuse: the graph behind an `Arc`,
    /// and the engine's shard layout and reverse-port routing table built
    /// once. The returned [`Prepared`] handle is
    /// cheap to clone and replays the staged state across any number of
    /// runs with per-run [`Overrides`]. See the module docs.
    pub fn prepare(&self) -> Prepared {
        let graph = self.graph.to_arc();
        let plan = EnginePlan::build(&graph, self.cfg.shards);
        Prepared {
            inner: Arc::new(PreparedInner {
                graph,
                plan,
                cfg: self.cfg.clone(),
            }),
        }
    }

    /// Runs `make(v)`-constructed nodes on the CONGEST engine (through the
    /// reliable transport when configured), returning the unified
    /// [`RunResult`].
    pub fn run<A, F>(&self, make: F) -> Result<RunResult, SimError>
    where
        A: NodeAlgorithm,
        A::Msg: Hash,
        F: Fn(usize) -> A + Sync,
    {
        self.run_with_nodes(make).map(|(result, _)| result)
    }

    /// Like [`Self::run`], but also hands back the final node states — for
    /// algorithms whose output is richer than accept/reject.
    pub fn run_with_nodes<A, F>(&self, make: F) -> Result<(RunResult, Vec<A>), SimError>
    where
        A: NodeAlgorithm,
        A::Msg: Hash,
        F: Fn(usize) -> A + Sync,
    {
        self.cfg
            .run_with_nodes_impl(self.graph.get(), None, make)
            .map(|(outcome, nodes)| (RunResult::Congest(outcome), nodes))
    }

    /// Runs a [`CliqueAlgorithm`] on the congested-clique engine, with the
    /// builder's graph as the *input* graph. Fault injection, the reliable
    /// transport, broadcast-only mode, and custom identifiers are CONGEST
    /// features — configuring any of them here is [`SimError::Unsupported`].
    pub fn run_clique<A, F>(&self, make: F) -> Result<RunResult<A::Output>, SimError>
    where
        A: CliqueAlgorithm,
        F: Fn(usize) -> A + Sync,
    {
        self.cfg
            .run_clique_impl(self.graph.get(), make)
            .map(RunResult::Clique)
    }
}

/// Per-run deltas applied on top of a [`Prepared`] topology's staged
/// configuration: the knobs a batched workload varies per query without
/// re-staging anything (seeds, round caps, fault models, collectors).
#[derive(Clone, Default)]
pub struct Overrides {
    seed: Option<u64>,
    max_rounds: Option<usize>,
    faults: Option<FaultSpec>,
    collector: Option<Arc<dyn Collector>>,
}

impl Overrides {
    /// No overrides: the run uses the staged configuration verbatim.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reseeds this run's node RNGs and fault models.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = Some(s);
        self
    }

    /// Caps this run's communication rounds.
    pub fn max_rounds(mut self, r: usize) -> Self {
        self.max_rounds = Some(r);
        self
    }

    /// Swaps this run's fault model (`FaultSpec::None` turns faults off).
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Installs a [`Collector`] for this run only.
    pub fn collector_arc(mut self, c: Arc<dyn Collector>) -> Self {
        self.collector = Some(c);
        self
    }
}

struct PreparedInner {
    graph: Arc<Graph>,
    plan: EnginePlan,
    cfg: SimConfig,
}

/// A staged, `Arc`-reusable topology: built once by [`Simulation::prepare`],
/// run many times with per-run [`Overrides`]. Cloning is an `Arc` clone, so
/// one `Prepared` can fan out over the rayon pool. See the module docs.
#[derive(Clone)]
pub struct Prepared {
    inner: Arc<PreparedInner>,
}

impl Prepared {
    /// The staged topology.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.inner.graph
    }

    fn effective(&self, ovr: &Overrides) -> SimConfig {
        let mut cfg = self.inner.cfg.clone();
        if let Some(s) = ovr.seed {
            cfg.seed = s;
        }
        if let Some(r) = ovr.max_rounds {
            cfg.max_rounds = Some(r);
        }
        if let Some(f) = &ovr.faults {
            cfg.faults = f.clone();
        }
        if let Some(c) = &ovr.collector {
            cfg.collector = Some(Arc::clone(c));
        }
        cfg
    }

    /// Runs with the staged configuration verbatim (see
    /// [`Simulation::run`]).
    pub fn run<A, F>(&self, make: F) -> Result<RunResult, SimError>
    where
        A: NodeAlgorithm,
        A::Msg: Hash,
        F: Fn(usize) -> A + Sync,
    {
        self.run_with(&Overrides::new(), make)
    }

    /// Runs with this seed, everything else staged — the common
    /// many-seeds × one-topology batch shape.
    pub fn run_seed<A, F>(&self, seed: u64, make: F) -> Result<RunResult, SimError>
    where
        A: NodeAlgorithm,
        A::Msg: Hash,
        F: Fn(usize) -> A + Sync,
    {
        self.run_with(&Overrides::new().seed(seed), make)
    }

    /// Runs with per-run [`Overrides`] applied over the staged
    /// configuration.
    pub fn run_with<A, F>(&self, ovr: &Overrides, make: F) -> Result<RunResult, SimError>
    where
        A: NodeAlgorithm,
        A::Msg: Hash,
        F: Fn(usize) -> A + Sync,
    {
        self.run_with_nodes(ovr, make).map(|(result, _)| result)
    }

    /// Like [`Self::run_with`], but also hands back the final node states.
    pub fn run_with_nodes<A, F>(
        &self,
        ovr: &Overrides,
        make: F,
    ) -> Result<(RunResult, Vec<A>), SimError>
    where
        A: NodeAlgorithm,
        A::Msg: Hash,
        F: Fn(usize) -> A + Sync,
    {
        self.effective(ovr)
            .run_with_nodes_impl(&self.inner.graph, Some(&self.inner.plan), make)
            .map(|(outcome, nodes)| (RunResult::Congest(outcome), nodes))
    }

    /// Runs a [`CliqueAlgorithm`] against the staged input graph (see
    /// [`Simulation::run_clique`]).
    pub fn run_clique<A, F>(
        &self,
        ovr: &Overrides,
        make: F,
    ) -> Result<RunResult<A::Output>, SimError>
    where
        A: CliqueAlgorithm,
        F: Fn(usize) -> A + Sync,
    {
        self.effective(ovr)
            .run_clique_impl(&self.inner.graph, make)
            .map(RunResult::Clique)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cliquemodel::CliqueContext;
    use crate::node::{Inbox, NodeContext, Outbox, Outgoing};
    use rand_chacha::ChaCha8Rng;

    /// Broadcast once, halt; reject iff a neighbor's id is larger.
    struct Beacon {
        done: bool,
        reject: bool,
    }

    impl NodeAlgorithm for Beacon {
        type Msg = u64;

        fn init(&mut self, ctx: &NodeContext, _rng: &mut ChaCha8Rng) -> Outbox<u64> {
            vec![Outgoing::Broadcast(ctx.id)]
        }

        fn on_round(
            &mut self,
            ctx: &NodeContext,
            inbox: &Inbox<u64>,
            _rng: &mut ChaCha8Rng,
        ) -> Outbox<u64> {
            self.reject = inbox.iter().any(|(_, id)| **id > ctx.id);
            self.done = true;
            Vec::new()
        }

        fn halted(&self) -> bool {
            self.done
        }

        fn decision(&self) -> Decision {
            if self.reject {
                Decision::Reject
            } else {
                Decision::Accept
            }
        }
    }

    fn beacon() -> Beacon {
        Beacon {
            done: false,
            reject: false,
        }
    }

    #[test]
    fn outcome_carries_metrics_and_report() {
        let g = graphlib::generators::cycle(5);
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .run(|_| beacon())
            .unwrap();
        assert_eq!(
            out.metrics.counter("bits.total"),
            Some(out.stats.total_bits)
        );
        assert_eq!(out.metrics.counter("rounds.total"), Some(1));
        let report = out.report("beacon");
        assert_eq!(report.rounds, 1);
        assert!(report.to_json().contains(r#""label": "beacon""#));
        assert!(report.summary_table().contains("total bits"));
    }

    #[test]
    fn reliable_route_folds_transport_tallies() {
        let g = graphlib::generators::path(4);
        let cfg = ReliableConfig::default();
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(cfg.required_bandwidth(64)))
            .max_rounds(cfg.physical_rounds(6))
            .reliable_config(cfg)
            .seed(3)
            .faults(FaultSpec::IndependentLoss(0.3))
            .run(|_| beacon())
            .unwrap();
        assert!(out.faults.retransmissions > 0, "loss should force resends");
        assert_eq!(
            out.metrics.counter("transport.retransmissions"),
            Some(out.faults.retransmissions)
        );
    }

    #[test]
    fn profiled_runs_export_section_histograms() {
        let g = graphlib::generators::cycle(4);
        let prof = Arc::new(Profiler::new());
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .profiler(prof.clone())
            .run(|_| beacon())
            .unwrap();
        // The round body (send sweep plus delivery) is timed under one
        // span; the clique backend's account and deliver sections stay
        // empty on a CONGEST run.
        for key in ["profile.fused_nanos", "profile.compute_nanos"] {
            assert!(out.metrics.hist(key).is_some(), "missing {key}");
        }
        for key in ["profile.account_nanos", "profile.deliver_nanos"] {
            assert!(out.metrics.hist(key).is_none(), "unexpected {key}");
        }
        assert!(out.metrics.hist("profile.arq_retransmit_nanos").is_none());
        assert!(!prof.folded_stacks("congest").is_empty());
        // Unprofiled runs carry no profile.* entries.
        let plain = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .run(|_| beacon())
            .unwrap();
        assert!(plain.metrics.hist("profile.compute_nanos").is_none());
    }

    #[test]
    fn profiled_reliable_run_times_the_arq_scan() {
        let g = graphlib::generators::path(3);
        let cfg = ReliableConfig::default();
        let prof = Arc::new(Profiler::new());
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(cfg.required_bandwidth(64)))
            .max_rounds(cfg.physical_rounds(4))
            .reliable_config(cfg)
            .profiler(prof)
            .run(|_| beacon())
            .unwrap();
        let h = out
            .metrics
            .hist("profile.arq_retransmit_nanos")
            .expect("ARQ scan must be timed under the reliable route");
        assert!(h.count() > 0);
    }

    /// Every node reports its input-degree to node 0.
    struct DegreeReport {
        acc: u64,
        done: bool,
    }

    impl CliqueAlgorithm for DegreeReport {
        type Msg = u32;
        type Output = u64;

        fn init(&mut self, ctx: &CliqueContext, _rng: &mut ChaCha8Rng) -> Vec<(u32, u32)> {
            if ctx.index == 0 {
                self.acc = ctx.input_neighbors.len() as u64;
                Vec::new()
            } else {
                vec![(0, ctx.input_neighbors.len() as u32)]
            }
        }

        fn on_round(
            &mut self,
            ctx: &CliqueContext,
            inbox: &[(u32, u32)],
            _rng: &mut ChaCha8Rng,
        ) -> Vec<(u32, u32)> {
            if ctx.index == 0 {
                self.acc += inbox.iter().map(|&(_, d)| d as u64).sum::<u64>();
            }
            self.done = true;
            Vec::new()
        }

        fn halted(&self) -> bool {
            self.done
        }

        fn output(&self) -> u64 {
            self.acc
        }
    }

    #[test]
    fn clique_route_returns_unified_outcome() {
        let g = graphlib::generators::cycle(6);
        let run = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(32))
            .run_clique(|_| DegreeReport {
                acc: 0,
                done: false,
            })
            .unwrap()
            .into_clique();
        assert_eq!(run.outputs[0], 2 * g.m() as u64);
        assert_eq!(run.stats.total_bits, 5 * 32);
        // The unified outcome mirrors the clique stats.
        assert_eq!(run.outcome.stats.total_bits, 5 * 32);
        assert!(run.outcome.decisions.is_empty());
        assert_eq!(run.outcome.faults.delivered, 5);
        assert_eq!(run.outcome.metrics.counter("bits.total"), Some(5 * 32));
        assert!(run
            .outcome
            .report("clique")
            .to_json()
            .contains("bits.total"));
    }

    #[test]
    fn unsupported_clique_configs_are_rejected() {
        let g = graphlib::generators::cycle(4);
        let mk = || DegreeReport {
            acc: 0,
            done: false,
        };
        let err = Simulation::on(&g)
            .faults(FaultSpec::IndependentLoss(0.5))
            .run_clique(|_| mk())
            .unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)), "{err}");
        let err = Simulation::on(&g)
            .reliable(true)
            .run_clique(|_| mk())
            .unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)));
        let err = Simulation::on(&g)
            .with_ids(vec![9, 8, 7, 6])
            .run_clique(|_| mk())
            .unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)));
        let err = Simulation::on(&g)
            .bandwidth(Bandwidth::Unbounded)
            .run_clique(|_| mk())
            .unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)));
    }

    #[test]
    fn clique_accepts_a_fault_free_stack() {
        // A stack of `None` layers compiles to an empty plan, the same test
        // the CONGEST engine uses to skip adjudication, so the clique
        // engine runs it exactly like the plain fault-free spec.
        let g = graphlib::generators::cycle(4);
        let run = |spec: FaultSpec| {
            let out = Simulation::on(&g)
                .bandwidth(Bandwidth::Bits(32))
                .faults(spec)
                .run_clique(|_| DegreeReport {
                    acc: 0,
                    done: false,
                })
                .unwrap()
                .into_clique();
            format!("{:?} {:?}", out.outputs, out.outcome)
        };
        let plain = run(FaultSpec::None);
        assert_eq!(run(FaultSpec::Stack(vec![FaultSpec::None])), plain);
        assert_eq!(
            run(FaultSpec::Stack(vec![
                FaultSpec::None,
                FaultSpec::Stack(vec![FaultSpec::None])
            ])),
            plain
        );
        let crash = Simulation::on(&g)
            .faults(FaultSpec::Stack(vec![
                FaultSpec::None,
                FaultSpec::CrashStop(crate::faults::CrashStop::at(vec![(0, 1)])),
            ]))
            .run_clique(|_| DegreeReport {
                acc: 0,
                done: false,
            })
            .unwrap_err();
        assert!(matches!(crash, SimError::Unsupported(_)), "{crash}");
    }

    #[test]
    fn reliable_under_broadcast_only_is_unsupported() {
        let g = graphlib::generators::path(3);
        let err = Simulation::on(&g)
            .broadcast_only(true)
            .reliable(true)
            .run(|_| beacon())
            .unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)));
    }

    #[test]
    fn bad_fault_probabilities_are_config_errors() {
        let g = graphlib::generators::cycle(4);
        let bad = [
            FaultSpec::IndependentLoss(1.5),
            FaultSpec::IndependentLoss(f64::NAN),
            FaultSpec::BitFlip(-0.1),
            FaultSpec::GilbertElliott(0.1, 0.4, 0.0, 1.2),
            FaultSpec::Stack(vec![
                FaultSpec::BitFlip(0.1),
                FaultSpec::IndependentLoss(2.0),
            ]),
        ];
        let prepared = Simulation::on(&g).bandwidth(Bandwidth::Bits(64)).prepare();
        for spec in bad {
            let one_shot = Simulation::on(&g)
                .bandwidth(Bandwidth::Bits(64))
                .faults(spec.clone())
                .run(|_| beacon())
                .unwrap_err();
            assert!(
                matches!(one_shot, SimError::Config(_)),
                "{spec:?}: {one_shot}"
            );
            let staged = prepared
                .run_with(&Overrides::new().faults(spec.clone()), |_| beacon())
                .unwrap_err();
            assert_eq!(staged, one_shot, "{spec:?}");
        }
        let cfg = ReliableConfig::default();
        let err = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(cfg.required_bandwidth(64)))
            .reliable_config(cfg)
            .faults(FaultSpec::IndependentLoss(1.5))
            .run(|_| beacon())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: independent loss rate must be a probability in [0, 1], got 1.5"
        );
    }

    #[test]
    fn wrong_identifier_count_is_a_config_error() {
        let g = graphlib::generators::cycle(4);
        let err = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .with_ids(vec![7, 8, 9])
            .run(|_| beacon())
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Config(
                "with_ids needs one identifier per node: got 3, the topology has 4".into()
            )
        );
    }

    fn gnp(n: usize, p: f64, seed: u64) -> graphlib::Graph {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        graphlib::generators::gnp(n, p, &mut rng)
    }

    #[test]
    fn prepared_runs_match_one_shot_runs() {
        let g = gnp(24, 0.2, 11);
        let prepared = Simulation::on(&g).bandwidth(Bandwidth::Bits(64)).prepare();
        for seed in [0u64, 1, 42] {
            let staged = prepared.run_seed(seed, |_| beacon()).unwrap();
            let fresh = Simulation::on(&g)
                .bandwidth(Bandwidth::Bits(64))
                .seed(seed)
                .run(|_| beacon())
                .unwrap();
            assert_eq!(staged.decisions, fresh.decisions, "seed {seed}");
            assert_eq!(staged.metrics, fresh.metrics, "seed {seed}");
            assert_eq!(
                staged.report("x").to_json(),
                fresh.report("x").to_json(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn prepared_runs_debug_dump_like_one_shot_runs() {
        // A faulty run first leaves histogram buckets (dropped deliveries
        // per round) that the clean run after it never fills; the clean
        // run's whole outcome must still print exactly like a one-shot
        // run's.
        let g = graphlib::generators::cycle(8);
        let prepared = Simulation::on(&g).bandwidth(Bandwidth::Bits(64)).prepare();
        let lossy = Overrides::new().faults(FaultSpec::IndependentLoss(0.5));
        prepared.run_with(&lossy, |_| beacon()).unwrap();
        let staged = prepared.run_seed(3, |_| beacon()).unwrap();
        let fresh = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .seed(3)
            .run(|_| beacon())
            .unwrap();
        assert_eq!(format!("{staged:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn prepared_overrides_match_reconfigured_one_shots() {
        let g = gnp(16, 0.3, 7);
        let prepared = Simulation::on(&g).bandwidth(Bandwidth::Bits(64)).prepare();
        let ovr = Overrides::new()
            .seed(9)
            .max_rounds(3)
            .faults(FaultSpec::IndependentLoss(0.4));
        let staged = prepared.run_with(&ovr, |_| beacon()).unwrap();
        let fresh = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .seed(9)
            .max_rounds(3)
            .faults(FaultSpec::IndependentLoss(0.4))
            .run(|_| beacon())
            .unwrap();
        assert_eq!(staged.decisions, fresh.decisions);
        assert_eq!(staged.faults, fresh.faults);
        assert_eq!(staged.metrics, fresh.metrics);
    }

    #[test]
    fn prepared_shares_topology_and_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + Clone>(_: &T) {}
        let g = graphlib::generators::cycle(6);
        let prepared = Simulation::on(&g).bandwidth(Bandwidth::Bits(16)).prepare();
        assert_send_sync(&prepared);
        let clone = prepared.clone();
        assert!(Arc::ptr_eq(prepared.graph(), clone.graph()));
    }

    #[test]
    fn on_shared_reuses_the_graph_handle() {
        let g = Arc::new(graphlib::generators::cycle(6));
        let prepared = Simulation::on_shared(Arc::clone(&g))
            .bandwidth(Bandwidth::Bits(64))
            .prepare();
        assert!(Arc::ptr_eq(prepared.graph(), &g));
        let out = prepared.run(|_| beacon()).unwrap();
        assert!(out.completed);
    }

    #[test]
    fn prepared_clique_runs_match_one_shots() {
        let g = graphlib::generators::cycle(6);
        let mk = || DegreeReport {
            acc: 0,
            done: false,
        };
        let prepared = Simulation::on(&g).bandwidth(Bandwidth::Bits(32)).prepare();
        let staged = prepared
            .run_clique(&Overrides::new(), |_| mk())
            .unwrap()
            .into_clique();
        let fresh = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(32))
            .run_clique(|_| mk())
            .unwrap()
            .into_clique();
        assert_eq!(staged.outputs, fresh.outputs);
        assert_eq!(staged.outcome.metrics, fresh.outcome.metrics);
    }

    #[test]
    fn run_result_unifies_backends() {
        let g = graphlib::generators::cycle(5);
        let congest = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .run(|_| beacon())
            .unwrap();
        assert!(congest.as_clique().is_none());
        let clique = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(32))
            .run_clique(|_| DegreeReport {
                acc: 0,
                done: false,
            })
            .unwrap();
        assert!(clique.as_clique().is_some());
        // One report path regardless of backend.
        for json in [congest.report("x").to_json(), clique.report("x").to_json()] {
            assert!(json.contains(r#""label": "x""#));
        }
        // Deref exposes the unified outcome on both variants.
        assert!(congest.completed && clique.completed);
        assert_eq!(clique.decisions.len(), 0);
    }
}
