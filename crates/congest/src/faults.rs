//! Fault injection for the CONGEST simulator.
//!
//! The paper's algorithms are analyzed in a failure-free synchronous model,
//! but a production message-passing substrate must survive lossy links,
//! crashed nodes, and corrupted payloads. This module extracts message
//! delivery into a [`FaultModel`] trait the engine consults once per
//! delivery, plus a [`FaultSpec`] value type describing model configurations
//! (cloneable, so detector drivers can re-run repetitions with fresh
//! engines), and the [`FaultReport`] the engine attaches to every
//! [`crate::Outcome`].
//!
//! Every model is a **deterministic function of the engine seed**: a run
//! with the same topology, algorithm, seed, and fault spec replays
//! byte-for-byte, which keeps chaos tests reproducible and failures
//! bisectable. Randomized detectors must stay *sound* under loss and
//! crashes — they can only miss, never hallucinate, a subgraph — and the
//! chaos suite in `tests/chaos.rs` exercises exactly that claim.

use graphlib::Graph;
use std::hash::{Hash, Hasher};

/// The fate of a single message delivery, as decided by a [`FaultModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver the message intact.
    Deliver,
    /// Silently drop the message (the sender is still charged the bits —
    /// they were put on the wire).
    Drop,
    /// Deliver a corrupted copy: flip the payload bit with this index
    /// (modulo the payload width; see [`crate::message::BitSize::corrupt_bit`]).
    Corrupt(usize),
}

/// Everything a fault model may condition a delivery decision on.
#[derive(Debug, Clone, Copy)]
pub struct DeliveryCtx {
    /// Engine seed (models must derive all randomness from it).
    pub seed: u64,
    /// Round the message is delivered in (1-based).
    pub round: usize,
    /// Sending node index.
    pub from: usize,
    /// Receiving node index.
    pub to: usize,
    /// Port of the receiver the message arrives on.
    pub to_port: usize,
    /// Directed-edge slot of the `from -> to` link in CSR order
    /// (`offsets[from] + from_port`) — a stable per-link key.
    pub link_slot: usize,
    /// Index of the message in the sender's outbox this round.
    pub msg_index: usize,
    /// Declared wire size of the message in bits.
    pub bits: usize,
}

/// Maps arbitrary keys to a uniform `[0, 1)` double, deterministically.
/// The single source of randomness for all stateless fault models.
pub fn unit_hash<K: Hash>(key: K) -> f64 {
    let mut h = graphlib::hash::FxHasher::default();
    key.hash(&mut h);
    (h.finish() >> 11) as f64 / (1u64 << 53) as f64
}

/// Like [`unit_hash`] but returns the raw 64-bit hash.
pub fn raw_hash<K: Hash>(key: K) -> u64 {
    let mut h = graphlib::hash::FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// A pluggable fault process over one engine run.
///
/// The engine calls [`FaultModel::reset`] once before round 1,
/// [`FaultModel::begin_round`] at the top of every round (single-threaded,
/// so stateful models may advance Markov chains here), then
/// [`FaultModel::delivery`] for every message delivery and
/// [`FaultModel::crashed`] for every node (both from the data-parallel
/// section, hence `&self` and `Send + Sync`).
pub trait FaultModel: Send + Sync {
    /// Re-initializes internal state for a fresh run over `topology`.
    fn reset(&mut self, topology: &Graph, seed: u64) {
        let _ = (topology, seed);
    }

    /// Advances per-round state (e.g. Gilbert–Elliott channel chains).
    fn begin_round(&mut self, round: usize) {
        let _ = round;
    }

    /// Decides the fate of one delivery.
    fn delivery(&self, ctx: &DeliveryCtx) -> Delivery {
        let _ = ctx;
        Delivery::Deliver
    }

    /// Whether `node` is crashed in `round` (crash-stop: once true for some
    /// round, it must stay true for all later rounds).
    fn crashed(&self, node: usize, round: usize, seed: u64) -> bool {
        let _ = (node, round, seed);
        false
    }

    /// Short human-readable name for traces and reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Independent loss
// ---------------------------------------------------------------------------

/// Each delivery is lost independently with probability `p` — the classic
/// packet-erasure channel (absorbs the engine's legacy `loss_rate` knob).
#[derive(Debug, Clone, PartialEq)]
pub struct IndependentLoss {
    /// Loss probability per delivery.
    pub p: f64,
}

impl IndependentLoss {
    /// A channel losing each message with probability `p`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss rate must be a probability");
        IndependentLoss { p }
    }
}

impl FaultModel for IndependentLoss {
    fn delivery(&self, ctx: &DeliveryCtx) -> Delivery {
        if self.p > 0.0
            // Keyed exactly as the engine's original `loss_rate` hash so
            // pre-existing seeded runs replay unchanged.
            && unit_hash((ctx.seed, ctx.round, ctx.to, ctx.to_port, ctx.msg_index)) < self.p
        {
            Delivery::Drop
        } else {
            Delivery::Deliver
        }
    }

    fn name(&self) -> &'static str {
        "independent-loss"
    }
}

// ---------------------------------------------------------------------------
// Bursty loss (Gilbert–Elliott)
// ---------------------------------------------------------------------------

/// Two-state Gilbert–Elliott channel per directed link: a `Good` state with
/// low loss and a `Bad` state with high loss, switching with the given
/// per-round transition probabilities. Models bursty real-network loss that
/// independent-loss models miss (consecutive rounds failing together).
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    /// P(Good -> Bad) per round.
    pub p_good_to_bad: f64,
    /// P(Bad -> Good) per round.
    pub p_bad_to_good: f64,
    /// Loss probability while Good.
    pub loss_good: f64,
    /// Loss probability while Bad.
    pub loss_bad: f64,
    /// Per-directed-link state for the current round (true = Bad), indexed
    /// by CSR link slot. Rebuilt by `reset`, advanced by `begin_round`.
    bad: Vec<bool>,
    seed: u64,
    round: usize,
}

impl GilbertElliott {
    /// A bursty channel. Transition and loss parameters must be
    /// probabilities.
    pub fn new(p_good_to_bad: f64, p_bad_to_good: f64, loss_good: f64, loss_bad: f64) -> Self {
        for p in [p_good_to_bad, p_bad_to_good, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "parameters must be probabilities");
        }
        GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
            bad: Vec::new(),
            seed: 0,
            round: 0,
        }
    }

    /// A typical bursty profile: rare 10%-per-round bursts losing 90% of
    /// traffic, against a clean good state.
    pub fn bursty() -> Self {
        GilbertElliott::new(0.1, 0.4, 0.0, 0.9)
    }

    /// Whether the link with CSR slot `slot` is in the Bad state this round.
    pub fn is_bad(&self, slot: usize) -> bool {
        self.bad.get(slot).copied().unwrap_or(false)
    }
}

impl FaultModel for GilbertElliott {
    fn reset(&mut self, topology: &Graph, seed: u64) {
        // One chain per directed edge slot; initial state drawn from the
        // chain's stationary distribution so short runs are not biased
        // toward Good.
        let slots = 2 * topology.m();
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        let stationary_bad = if denom > 0.0 {
            self.p_good_to_bad / denom
        } else {
            0.0
        };
        self.seed = seed;
        self.round = 0;
        self.bad = (0..slots)
            .map(|s| unit_hash((seed, "ge-init", s)) < stationary_bad)
            .collect();
    }

    fn begin_round(&mut self, round: usize) {
        // Advance every chain once per round (single-threaded section).
        if round <= self.round {
            return;
        }
        for r in (self.round + 1)..=round {
            for (s, state) in self.bad.iter_mut().enumerate() {
                let u = unit_hash((self.seed, "ge-step", r, s));
                *state = if *state {
                    u >= self.p_bad_to_good
                } else {
                    u < self.p_good_to_bad
                };
            }
        }
        self.round = round;
    }

    fn delivery(&self, ctx: &DeliveryCtx) -> Delivery {
        let p = if self.is_bad(ctx.link_slot) {
            self.loss_bad
        } else {
            self.loss_good
        };
        if p > 0.0 && unit_hash((ctx.seed, "ge-loss", ctx.round, ctx.link_slot, ctx.msg_index)) < p
        {
            Delivery::Drop
        } else {
            Delivery::Deliver
        }
    }

    fn name(&self) -> &'static str {
        "gilbert-elliott"
    }
}

// ---------------------------------------------------------------------------
// Crash-stop node faults
// ---------------------------------------------------------------------------

/// How crash victims and rounds are chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CrashPlan {
    /// An explicit schedule of `(node, round)` crashes.
    At(Vec<(usize, usize)>),
    /// Crash `count` seeded-random nodes at seeded-random rounds in
    /// `1..=within_rounds`.
    Random { count: usize, within_rounds: usize },
}

/// Nodes halt permanently at a scheduled or seeded round (crash-stop, no
/// recovery): from its crash round on, a node neither sends, receives, nor
/// steps, and its pending outbox is discarded.
///
/// The concrete per-node schedule is resolved at [`FaultModel::reset`]
/// (seeded choices need the topology size); [`CrashStop::crash_round`]
/// exposes it for tests and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashStop {
    plan: CrashPlan,
    /// `resolved[v]` = crash round of `v`, filled by `reset`.
    resolved: Vec<Option<usize>>,
}

impl CrashStop {
    /// Explicit crash schedule of `(node, round)` pairs.
    pub fn at(schedule: Vec<(usize, usize)>) -> Self {
        CrashStop {
            plan: CrashPlan::At(schedule),
            resolved: Vec::new(),
        }
    }

    /// `count` seeded-random crashes within the first `within_rounds`
    /// rounds.
    pub fn random(count: usize, within_rounds: usize) -> Self {
        CrashStop {
            plan: CrashPlan::Random {
                count,
                within_rounds: within_rounds.max(1),
            },
            resolved: Vec::new(),
        }
    }

    fn resolve_one(&self, node: usize, n: usize, seed: u64) -> Option<usize> {
        match &self.plan {
            CrashPlan::At(sched) => sched
                .iter()
                .filter(|&&(v, _)| v == node)
                .map(|&(_, r)| r)
                .min(),
            CrashPlan::Random {
                count,
                within_rounds,
            } => {
                if n == 0 || node >= n {
                    return None;
                }
                // Choose `count` distinct victims by ranking nodes by a
                // seeded hash; node crashes iff its rank is below count.
                let my_key = raw_hash((seed, "crash-victim", node));
                let rank = (0..n)
                    .filter(|&v| {
                        let k = raw_hash((seed, "crash-victim", v));
                        k < my_key || (k == my_key && v < node)
                    })
                    .count();
                if rank < *count {
                    Some(1 + (raw_hash((seed, "crash-round", node)) as usize) % *within_rounds)
                } else {
                    None
                }
            }
        }
    }

    /// The round `node` crashes at (network of `n` nodes, engine seed
    /// `seed`), if any.
    pub fn crash_round(&self, node: usize, n: usize, seed: u64) -> Option<usize> {
        self.resolve_one(node, n, seed)
    }
}

impl FaultModel for CrashStop {
    fn reset(&mut self, topology: &Graph, seed: u64) {
        let n = topology.n();
        self.resolved = (0..n).map(|v| self.resolve_one(v, n, seed)).collect();
    }

    fn crashed(&self, node: usize, round: usize, seed: u64) -> bool {
        match self.resolved.get(node) {
            Some(r) => r.is_some_and(|r| round >= r),
            // Standalone (un-reset) queries only resolve explicit
            // schedules; Random needs `n` from reset.
            None => self
                .resolve_one(node, usize::MAX, seed)
                .is_some_and(|r| round >= r),
        }
    }

    fn name(&self) -> &'static str {
        "crash-stop"
    }
}

// ---------------------------------------------------------------------------
// Link failures
// ---------------------------------------------------------------------------

/// One undirected link outage: the edge `{a, b}` is down (both directions)
/// for every round in `from_round..=to_round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// One endpoint.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// First round of the outage (1-based, inclusive).
    pub from_round: usize,
    /// Last round of the outage (inclusive).
    pub to_round: usize,
}

/// Scheduled link failures: each listed edge drops all traffic (both
/// directions) during its outage interval.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinkFailure {
    /// The outage schedule.
    pub outages: Vec<Outage>,
}

impl LinkFailure {
    /// A failure schedule from explicit outages.
    pub fn new(outages: Vec<Outage>) -> Self {
        LinkFailure { outages }
    }

    /// Convenience: a single outage.
    pub fn single(a: usize, b: usize, from_round: usize, to_round: usize) -> Self {
        LinkFailure {
            outages: vec![Outage {
                a,
                b,
                from_round,
                to_round,
            }],
        }
    }

    /// Whether the (undirected) edge `{u, v}` is down in `round`.
    pub fn is_down(&self, u: usize, v: usize, round: usize) -> bool {
        self.outages.iter().any(|o| {
            ((o.a == u && o.b == v) || (o.a == v && o.b == u))
                && round >= o.from_round
                && round <= o.to_round
        })
    }
}

impl FaultModel for LinkFailure {
    fn delivery(&self, ctx: &DeliveryCtx) -> Delivery {
        if self.is_down(ctx.from, ctx.to, ctx.round) {
            Delivery::Drop
        } else {
            Delivery::Deliver
        }
    }

    fn name(&self) -> &'static str {
        "link-failure"
    }
}

// ---------------------------------------------------------------------------
// Payload corruption
// ---------------------------------------------------------------------------

/// Seeded bit-flip corruption: each delivery is corrupted independently
/// with probability `rate`, flipping one seeded-random payload bit.
/// Only payloads that opt into corruption react (see
/// [`crate::message::BitSize::corrupt_bit`]; [`crate::BitString`] and the
/// reliable-transport envelope do) — others deliver intact, modeling
/// checksummed headers around an opaque body.
#[derive(Debug, Clone, PartialEq)]
pub struct BitFlip {
    /// Corruption probability per delivery.
    pub rate: f64,
}

impl BitFlip {
    /// A channel corrupting each delivery with probability `rate`.
    pub fn new(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        BitFlip { rate }
    }
}

impl FaultModel for BitFlip {
    fn delivery(&self, ctx: &DeliveryCtx) -> Delivery {
        if self.rate > 0.0
            && unit_hash((ctx.seed, "flip", ctx.round, ctx.link_slot, ctx.msg_index)) < self.rate
        {
            let bit = raw_hash((
                ctx.seed,
                "flip-bit",
                ctx.round,
                ctx.link_slot,
                ctx.msg_index,
            )) as usize;
            Delivery::Corrupt(bit)
        } else {
            Delivery::Deliver
        }
    }

    fn name(&self) -> &'static str {
        "bit-flip"
    }
}

// ---------------------------------------------------------------------------
// Composition + cloneable spec
// ---------------------------------------------------------------------------

/// A cloneable description of a fault configuration. Detector drivers store
/// a `FaultSpec` and build a fresh model per engine run, so repeated
/// repetitions stay independent and reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// No faults (the failure-free model).
    None,
    /// [`IndependentLoss`] with the given probability.
    IndependentLoss(f64),
    /// [`GilbertElliott`] with `(p_good_to_bad, p_bad_to_good, loss_good,
    /// loss_bad)`.
    GilbertElliott(f64, f64, f64, f64),
    /// [`CrashStop`] faults.
    CrashStop(CrashStop),
    /// [`LinkFailure`] outages.
    LinkFailure(LinkFailure),
    /// [`BitFlip`] corruption with the given rate.
    BitFlip(f64),
    /// All listed faults at once; for each delivery the first non-`Deliver`
    /// verdict wins (drops shadow corruption), and a node is crashed if any
    /// layer crashes it.
    Stack(Vec<FaultSpec>),
}

impl FaultSpec {
    /// Builds the runnable model this spec describes.
    pub fn build(&self) -> Box<dyn FaultModel> {
        match self {
            FaultSpec::None => Box::new(NoFaults),
            FaultSpec::IndependentLoss(p) => Box::new(IndependentLoss::new(*p)),
            FaultSpec::GilbertElliott(gb, bg, lg, lb) => {
                Box::new(GilbertElliott::new(*gb, *bg, *lg, *lb))
            }
            FaultSpec::CrashStop(c) => Box::new(c.clone()),
            FaultSpec::LinkFailure(l) => Box::new(l.clone()),
            FaultSpec::BitFlip(r) => Box::new(BitFlip::new(*r)),
            FaultSpec::Stack(specs) => Box::new(FaultStack {
                layers: specs.iter().map(|s| s.build()).collect(),
            }),
        }
    }

    /// Checks that every probability in the spec — including those inside
    /// [`FaultSpec::Stack`] layers — lies in `[0, 1]` (NaN does not), so a
    /// bad spec is reported before a run instead of panicking in
    /// [`Self::build`]. The simulator runs this before every CONGEST run.
    pub fn validate(&self) -> Result<(), String> {
        let check = |what: &str, p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{what} must be a probability in [0, 1], got {p}"))
            }
        };
        match self {
            FaultSpec::None | FaultSpec::CrashStop(_) | FaultSpec::LinkFailure(_) => Ok(()),
            FaultSpec::IndependentLoss(p) => check("independent loss rate", *p),
            FaultSpec::GilbertElliott(gb, bg, lg, lb) => {
                check("Gilbert-Elliott good-to-bad probability", *gb)?;
                check("Gilbert-Elliott bad-to-good probability", *bg)?;
                check("Gilbert-Elliott good-state loss", *lg)?;
                check("Gilbert-Elliott bad-state loss", *lb)
            }
            FaultSpec::BitFlip(r) => check("bit-flip rate", *r),
            FaultSpec::Stack(specs) => specs.iter().try_for_each(FaultSpec::validate),
        }
    }

    /// Whether this spec can ever affect a run.
    pub fn is_none(&self) -> bool {
        match self {
            FaultSpec::None => true,
            FaultSpec::Stack(v) => v.iter().all(FaultSpec::is_none),
            _ => false,
        }
    }
}

/// The failure-free model.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    fn name(&self) -> &'static str {
        "none"
    }
}

/// Several fault models applied together.
pub struct FaultStack {
    layers: Vec<Box<dyn FaultModel>>,
}

impl FaultStack {
    /// Stacks the given models.
    pub fn new(layers: Vec<Box<dyn FaultModel>>) -> Self {
        FaultStack { layers }
    }
}

impl FaultModel for FaultStack {
    fn reset(&mut self, topology: &Graph, seed: u64) {
        for l in &mut self.layers {
            l.reset(topology, seed);
        }
    }

    fn begin_round(&mut self, round: usize) {
        for l in &mut self.layers {
            l.begin_round(round);
        }
    }

    fn delivery(&self, ctx: &DeliveryCtx) -> Delivery {
        for l in &self.layers {
            match l.delivery(ctx) {
                Delivery::Deliver => continue,
                other => return other,
            }
        }
        Delivery::Deliver
    }

    fn crashed(&self, node: usize, round: usize, seed: u64) -> bool {
        self.layers.iter().any(|l| l.crashed(node, round, seed))
    }

    fn name(&self) -> &'static str {
        "stack"
    }
}

// ---------------------------------------------------------------------------
// Fault report
// ---------------------------------------------------------------------------

/// What the fault layer did to a run — attached to every
/// [`crate::Outcome`] so degradation is observable instead of silent.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Messages delivered intact.
    pub delivered: u64,
    /// Messages dropped by the fault layer.
    pub dropped: u64,
    /// Messages delivered with a corrupted payload.
    pub corrupted: u64,
    /// Drops per round (`dropped_per_round[r-1]` for round `r`).
    pub dropped_per_round: Vec<u64>,
    /// Corruptions per round.
    pub corrupted_per_round: Vec<u64>,
    /// `(node, round)` crash-stop events, in crash order.
    pub crashed: Vec<(usize, usize)>,
    /// Retransmissions performed by the reliable-transport layer (0 when
    /// the bare engine runs; filled by [`crate::reliable`]).
    pub retransmissions: u64,
    /// Retransmissions per physical round
    /// (`retransmissions_per_round[r-1]` for round `r`; empty for bare
    /// runs) — aligned with [`Self::dropped_per_round`] so loss bursts and
    /// the recovery traffic they force are visible on the same time axis.
    pub retransmissions_per_round: Vec<u64>,
    /// Retransmissions per directed link, in the CSR directed-edge order
    /// shared with [`crate::RunStats::directed_edge_bits`] (slot
    /// `offsets[v] + port` holds node `v`'s retransmissions on its port
    /// `port`; empty for bare runs). Unlike the per-round series, which
    /// concatenate across phases, per-link tallies *add elementwise* under
    /// [`Self::absorb`] — the links are the same links in every phase.
    pub retransmissions_per_link: Vec<u64>,
    /// Retransmissions sent at backoff stage ≥ 2 (third or later attempt)
    /// — the adaptive timeout's exponential-backoff activations (0 for
    /// bare runs).
    pub backoff_events: u64,
    /// Messages the reliable layer gave up on after exhausting its
    /// retransmission budget (0 for bare runs).
    pub given_up: u64,
}

impl FaultReport {
    /// Whether the fault layer affected the run at all.
    pub fn any_faults(&self) -> bool {
        self.dropped > 0 || self.corrupted > 0 || !self.crashed.is_empty()
    }

    /// Indices of crashed nodes (deduplicated, sorted).
    pub fn crashed_nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.crashed.iter().map(|&(n, _)| n).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Merges another report into this one (used by multi-phase drivers to
    /// aggregate across engine runs).
    pub fn absorb(&mut self, other: &FaultReport) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.retransmissions += other.retransmissions;
        self.backoff_events += other.backoff_events;
        self.given_up += other.given_up;
        self.crashed.extend_from_slice(&other.crashed);
        // Per-round series concatenate (phases run sequentially).
        self.dropped_per_round
            .extend_from_slice(&other.dropped_per_round);
        self.corrupted_per_round
            .extend_from_slice(&other.corrupted_per_round);
        self.retransmissions_per_round
            .extend_from_slice(&other.retransmissions_per_round);
        // Per-link tallies add elementwise — every phase runs over the
        // same topology, so slot `i` is the same directed link throughout.
        if self.retransmissions_per_link.len() < other.retransmissions_per_link.len() {
            self.retransmissions_per_link
                .resize(other.retransmissions_per_link.len(), 0);
        }
        for (slot, &c) in other.retransmissions_per_link.iter().enumerate() {
            self.retransmissions_per_link[slot] += c;
        }
    }

    /// Compact one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "delivered {}, dropped {}, corrupted {}, crashed {:?}, retransmissions {} \
             (busiest link {}), backoff events {}, given up {}",
            self.delivered,
            self.dropped,
            self.corrupted,
            self.crashed_nodes(),
            self.retransmissions,
            self.retransmissions_per_link.iter().max().unwrap_or(&0),
            self.backoff_events,
            self.given_up,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators;

    fn ctx(seed: u64, round: usize, slot: usize, idx: usize) -> DeliveryCtx {
        DeliveryCtx {
            seed,
            round,
            from: 0,
            to: 1,
            to_port: 0,
            link_slot: slot,
            msg_index: idx,
            bits: 8,
        }
    }

    #[test]
    fn independent_loss_extremes() {
        let never = IndependentLoss::new(0.0);
        let always = IndependentLoss::new(1.0);
        for i in 0..50 {
            assert_eq!(never.delivery(&ctx(1, 1, 0, i)), Delivery::Deliver);
            assert_eq!(always.delivery(&ctx(1, 1, 0, i)), Delivery::Drop);
        }
    }

    #[test]
    fn independent_loss_rate_roughly_honored() {
        let m = IndependentLoss::new(0.3);
        let drops = (0..10_000)
            .filter(|&i| m.delivery(&ctx(7, 1 + i / 100, i % 100, i)) == Delivery::Drop)
            .count();
        assert!((2500..3500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn gilbert_elliott_is_bursty_and_deterministic() {
        let g = generators::cycle(6);
        let mk = || {
            let mut m = GilbertElliott::new(0.2, 0.3, 0.0, 1.0);
            m.reset(&g, 99);
            m
        };
        let mut a = mk();
        let mut b = mk();
        let mut streak = 0usize;
        let mut max_streak = 0usize;
        for round in 1..=200 {
            a.begin_round(round);
            b.begin_round(round);
            assert_eq!(a.is_bad(0), b.is_bad(0), "chains are seeded");
            if a.is_bad(0) {
                streak += 1;
                max_streak = max_streak.max(streak);
            } else {
                streak = 0;
            }
        }
        // With p(bad->good) = 0.3, bursts of >= 2 consecutive bad rounds
        // appear with overwhelming probability over 200 rounds.
        assert!(max_streak >= 2, "expected a loss burst, got {max_streak}");
    }

    #[test]
    fn gilbert_elliott_loss_follows_state() {
        let g = generators::path(2);
        let mut m = GilbertElliott::new(1.0, 0.0, 0.0, 1.0); // instantly bad forever
        m.reset(&g, 5);
        m.begin_round(1);
        assert!(m.is_bad(0));
        assert_eq!(m.delivery(&ctx(5, 1, 0, 0)), Delivery::Drop);
    }

    #[test]
    fn crash_stop_schedule() {
        let m = CrashStop::at(vec![(2, 5), (0, 1)]);
        assert!(!m.crashed(2, 4, 0));
        assert!(m.crashed(2, 5, 0));
        assert!(m.crashed(2, 50, 0), "crash-stop is permanent");
        assert!(m.crashed(0, 1, 0));
        assert!(!m.crashed(1, 100, 0));
    }

    #[test]
    fn crash_stop_random_is_seeded_and_bounded() {
        let spec = CrashStop::random(3, 10);
        let n = 20;
        let victims: Vec<usize> = (0..n)
            .filter(|&v| spec.crash_round(v, n, 7).is_some())
            .collect();
        assert_eq!(victims.len(), 3);
        for &v in &victims {
            let r = spec.crash_round(v, n, 7).unwrap();
            assert!((1..=10).contains(&r));
            assert_eq!(spec.crash_round(v, n, 7), Some(r), "deterministic");
        }
        let victims2: Vec<usize> = (0..n)
            .filter(|&v| spec.crash_round(v, n, 8).is_some())
            .collect();
        assert_eq!(victims2.len(), 3);
    }

    #[test]
    fn link_failure_window() {
        let m = LinkFailure::single(1, 2, 3, 5);
        assert!(!m.is_down(1, 2, 2));
        assert!(m.is_down(1, 2, 3));
        assert!(m.is_down(2, 1, 5), "undirected");
        assert!(!m.is_down(1, 2, 6));
        assert!(!m.is_down(1, 3, 4));
    }

    #[test]
    fn bit_flip_produces_corruptions() {
        let m = BitFlip::new(1.0);
        for i in 0..10 {
            assert!(matches!(m.delivery(&ctx(3, 1, 0, i)), Delivery::Corrupt(_)));
        }
        let none = BitFlip::new(0.0);
        assert_eq!(none.delivery(&ctx(3, 1, 0, 0)), Delivery::Deliver);
    }

    #[test]
    fn stack_first_fault_wins() {
        let spec = FaultSpec::Stack(vec![
            FaultSpec::IndependentLoss(0.0),
            FaultSpec::BitFlip(1.0),
        ]);
        let m = spec.build();
        assert!(matches!(m.delivery(&ctx(3, 1, 0, 0)), Delivery::Corrupt(_)));
        let drop_wins = FaultSpec::Stack(vec![
            FaultSpec::IndependentLoss(1.0),
            FaultSpec::BitFlip(1.0),
        ])
        .build();
        assert_eq!(drop_wins.delivery(&ctx(3, 1, 0, 0)), Delivery::Drop);
    }

    #[test]
    fn validate_checks_every_probability() {
        assert!(FaultSpec::None.validate().is_ok());
        assert!(FaultSpec::IndependentLoss(1.0).validate().is_ok());
        assert!(FaultSpec::Stack(vec![
            FaultSpec::GilbertElliott(0.1, 0.4, 0.0, 0.9),
            FaultSpec::BitFlip(0.0),
            FaultSpec::CrashStop(CrashStop::random(2, 3)),
        ])
        .validate()
        .is_ok());
        for bad in [
            FaultSpec::IndependentLoss(1.5),
            FaultSpec::IndependentLoss(f64::NAN),
            FaultSpec::BitFlip(-0.5),
            FaultSpec::GilbertElliott(f64::NAN, 0.4, 0.0, 0.9),
            FaultSpec::GilbertElliott(0.1, 0.4, 0.0, 1.1),
            FaultSpec::Stack(vec![
                FaultSpec::None,
                FaultSpec::Stack(vec![FaultSpec::BitFlip(3.0)]),
            ]),
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
        assert_eq!(
            FaultSpec::IndependentLoss(1.5).validate(),
            Err("independent loss rate must be a probability in [0, 1], got 1.5".into())
        );
    }

    #[test]
    fn spec_is_none_detection() {
        assert!(FaultSpec::None.is_none());
        assert!(FaultSpec::Stack(vec![FaultSpec::None]).is_none());
        assert!(!FaultSpec::IndependentLoss(0.5).is_none());
    }

    #[test]
    fn report_absorb_accumulates() {
        let mut a = FaultReport {
            delivered: 5,
            dropped: 1,
            dropped_per_round: vec![1],
            ..Default::default()
        };
        let b = FaultReport {
            delivered: 2,
            corrupted: 3,
            crashed: vec![(4, 2)],
            dropped_per_round: vec![0, 0],
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.delivered, 7);
        assert_eq!(a.corrupted, 3);
        assert_eq!(a.crashed_nodes(), vec![4]);
        assert_eq!(a.dropped_per_round, vec![1, 0, 0]);
        assert!(a.any_faults());
    }

    #[test]
    fn report_absorb_carries_transport_tallies() {
        // Per-link tallies add elementwise (same links every phase) while
        // the scalar transport counters accumulate — a multi-repetition
        // driver must not under-report recovery cost.
        let mut a = FaultReport {
            retransmissions: 2,
            backoff_events: 1,
            given_up: 1,
            retransmissions_per_link: vec![2, 0],
            ..Default::default()
        };
        let b = FaultReport {
            retransmissions: 3,
            backoff_events: 2,
            retransmissions_per_link: vec![1, 1, 1],
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.retransmissions, 5);
        assert_eq!(a.backoff_events, 3);
        assert_eq!(a.given_up, 1);
        assert_eq!(a.retransmissions_per_link, vec![3, 1, 1]);
        assert_eq!(
            a.retransmissions_per_link.iter().sum::<u64>(),
            a.retransmissions,
            "per-link tallies must still sum to the total"
        );
        assert!(a.summary().contains("backoff events 3"));
    }
}
