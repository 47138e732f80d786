//! Fault injection for the CONGEST simulator.
//!
//! The paper's algorithms are analyzed in a failure-free synchronous model,
//! but a production message-passing substrate must survive lossy links,
//! crashed nodes, and corrupted payloads. A run is configured with one
//! [`FaultSpec`] value (cloneable, so detector drivers can re-run
//! repetitions with fresh engines). Each engine run compiles it with
//! [`FaultSpec::compile`] into one [`Faults`] plan, asks the plan for
//! every round's crashes and every delivery's fate, and attaches a
//! [`FaultReport`] to its [`crate::Outcome`]. An empty plan
//! ([`Faults::is_empty`]) is never asked about a delivery.
//!
//! Every plan is a **deterministic function of the engine seed**: a run
//! with the same topology, algorithm, seed, and fault spec replays
//! byte-for-byte, which keeps chaos tests reproducible and failures
//! bisectable. Randomized detectors must stay *sound* under loss and
//! crashes — they can only miss, never hallucinate, a subgraph — and the
//! chaos suite in `tests/chaos.rs` exercises exactly that claim.

use graphlib::Graph;
use std::hash::{Hash, Hasher};

/// The fate of a single message delivery, as decided by a [`Faults`] plan.
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

/// Everything a fault plan may condition a delivery decision on (the
/// engine seed is the plan's own).
#[derive(Debug, Clone, Copy)]
pub struct DeliveryCtx {
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
/// The concrete per-node schedule is resolved when a plan compiles
/// (seeded choices need the topology size); [`Faults::crash_round`]
/// exposes it for tests and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashStop {
    plan: CrashPlan,
}

impl CrashStop {
    /// Explicit crash schedule of `(node, round)` pairs.
    pub fn at(schedule: Vec<(usize, usize)>) -> Self {
        CrashStop {
            plan: CrashPlan::At(schedule),
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
        }
    }

    /// Folds this layer's crashes into `crash_at` (one entry per node),
    /// keeping each node's earliest round.
    fn resolve(&self, seed: u64, crash_at: &mut [Option<usize>]) {
        let n = crash_at.len();
        let mut crash = |v: usize, r: usize| {
            if let Some(at) = crash_at.get_mut(v) {
                *at = Some(at.map_or(r, |c| c.min(r)));
            }
        };
        match &self.plan {
            CrashPlan::At(sched) => sched.iter().for_each(|&(v, r)| crash(v, r)),
            CrashPlan::Random {
                count,
                within_rounds,
            } => {
                // The `count` victims are the nodes ranked lowest by a
                // seeded hash, ties broken by index.
                let mut ranked: Vec<(u64, usize)> = (0..n)
                    .map(|v| (raw_hash((seed, "crash-victim", v)), v))
                    .collect();
                ranked.sort_unstable();
                for &(_, v) in ranked.iter().take(*count) {
                    crash(
                        v,
                        1 + (raw_hash((seed, "crash-round", v)) as usize) % within_rounds,
                    );
                }
            }
        }
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

// ---------------------------------------------------------------------------
// The spec and its compiled plan
// ---------------------------------------------------------------------------

/// A cloneable description of a fault configuration — the one fault type a
/// run accepts. Detector drivers store a `FaultSpec`, and every engine run
/// compiles a fresh [`Faults`] plan from it, so repeated repetitions stay
/// independent and reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// No faults (the failure-free model).
    None,
    /// Each delivery is lost independently with this probability — the
    /// classic packet-erasure channel.
    IndependentLoss(f64),
    /// A two-state Gilbert–Elliott channel per directed link, with
    /// `(p_good_to_bad, p_bad_to_good, loss_good, loss_bad)`: a `Good`
    /// state with low loss and a `Bad` state with high loss, switching with
    /// the given per-round transition probabilities. Models bursty
    /// real-network loss that independent loss misses (consecutive rounds
    /// failing together).
    GilbertElliott(f64, f64, f64, f64),
    /// [`CrashStop`] faults.
    CrashStop(CrashStop),
    /// [`LinkFailure`] outages.
    LinkFailure(LinkFailure),
    /// Seeded bit-flip corruption: each delivery is corrupted independently
    /// with this probability, flipping one seeded-random payload bit. Only
    /// payloads that opt into corruption react (see
    /// [`crate::message::BitSize::corrupt_bit`]; [`crate::BitString`] and
    /// the reliable-transport envelope do) — others deliver intact,
    /// modeling checksummed headers around an opaque body.
    BitFlip(f64),
    /// All listed faults at once; for each delivery the first non-`Deliver`
    /// verdict wins (drops shadow corruption), and a node is crashed if any
    /// layer crashes it.
    Stack(Vec<FaultSpec>),
}

impl FaultSpec {
    /// Compiles the spec for one run over `g` with engine seed `seed`:
    /// nested stacks flatten into one list of delivery layers in stack
    /// order (`None` layers vanish), and every node's crash round is
    /// resolved once, the earliest over all crash layers. Probabilities are
    /// not checked here: [`Self::validate`] does that, and the simulator
    /// runs it before every CONGEST run.
    pub fn compile(&self, g: &Graph, seed: u64) -> Faults {
        let mut layers = Vec::new();
        // One entry per node, allocated by the first crash layer only.
        let mut crash_at = Vec::new();
        self.lower(g, seed, &mut layers, &mut crash_at);
        // A crash scheduled for round 0 takes effect in round 1, the first
        // round a node could send in.
        let mut crashes: Vec<(usize, usize)> = crash_at
            .iter()
            .enumerate()
            .filter_map(|(v, r)| r.map(|r| (r.max(1), v)))
            .collect();
        crashes.sort_unstable();
        Faults {
            seed,
            round: 0,
            layers,
            crashes,
        }
    }

    fn lower(
        &self,
        g: &Graph,
        seed: u64,
        layers: &mut Vec<Layer>,
        crash_at: &mut Vec<Option<usize>>,
    ) {
        match self {
            FaultSpec::None => {}
            FaultSpec::IndependentLoss(p) => layers.push(Layer::Loss(*p)),
            FaultSpec::GilbertElliott(gb, bg, lg, lb) => {
                // One chain per directed edge slot; initial state drawn
                // from the chain's stationary distribution so short runs
                // are not biased toward Good.
                let denom = gb + bg;
                let stationary_bad = if denom > 0.0 { gb / denom } else { 0.0 };
                layers.push(Layer::Burst {
                    p_good_to_bad: *gb,
                    p_bad_to_good: *bg,
                    loss_good: *lg,
                    loss_bad: *lb,
                    bad: (0..2 * g.m())
                        .map(|s| unit_hash((seed, "ge-init", s)) < stationary_bad)
                        .collect(),
                });
            }
            FaultSpec::CrashStop(c) => {
                crash_at.resize(g.n(), None);
                c.resolve(seed, crash_at);
            }
            FaultSpec::LinkFailure(l) => layers.push(Layer::Link(l.clone())),
            FaultSpec::BitFlip(r) => layers.push(Layer::Flip(*r)),
            FaultSpec::Stack(specs) => {
                for s in specs {
                    s.lower(g, seed, layers, crash_at);
                }
            }
        }
    }

    /// Checks that every probability in the spec — including those inside
    /// [`FaultSpec::Stack`] layers — lies in `[0, 1]` (NaN does not), so a
    /// bad spec is reported before a run. The simulator runs this before
    /// every CONGEST run.
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

    /// Whether this spec is made of `None` layers only.
    pub fn is_none(&self) -> bool {
        match self {
            FaultSpec::None => true,
            FaultSpec::Stack(v) => v.iter().all(FaultSpec::is_none),
            _ => false,
        }
    }
}

/// One delivery layer of a compiled plan.
#[derive(Debug)]
enum Layer {
    /// Independent loss with this probability.
    Loss(f64),
    /// A Gilbert–Elliott channel; `bad[slot]` is the current state of the
    /// directed link with that CSR slot.
    Burst {
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        loss_good: f64,
        loss_bad: f64,
        bad: Vec<bool>,
    },
    /// Scheduled link outages.
    Link(LinkFailure),
    /// Bit-flip corruption with this probability.
    Flip(f64),
}

impl Layer {
    fn delivery(&self, seed: u64, ctx: &DeliveryCtx) -> Delivery {
        let dropped = match self {
            // Keyed exactly as the engine's original `loss_rate` hash so
            // pre-existing seeded runs replay unchanged.
            Layer::Loss(p) => {
                *p > 0.0 && unit_hash((seed, ctx.round, ctx.to, ctx.to_port, ctx.msg_index)) < *p
            }
            Layer::Burst {
                loss_good,
                loss_bad,
                bad,
                ..
            } => {
                let p = if bad.get(ctx.link_slot).copied().unwrap_or(false) {
                    *loss_bad
                } else {
                    *loss_good
                };
                p > 0.0 && unit_hash((seed, "ge-loss", ctx.round, ctx.link_slot, ctx.msg_index)) < p
            }
            Layer::Link(l) => l.is_down(ctx.from, ctx.to, ctx.round),
            Layer::Flip(rate) => {
                if *rate > 0.0
                    && unit_hash((seed, "flip", ctx.round, ctx.link_slot, ctx.msg_index)) < *rate
                {
                    let key = (seed, "flip-bit", ctx.round, ctx.link_slot, ctx.msg_index);
                    return Delivery::Corrupt(raw_hash(key) as usize);
                }
                false
            }
        };
        if dropped {
            Delivery::Drop
        } else {
            Delivery::Deliver
        }
    }
}

/// A [`FaultSpec`] compiled for one run: the delivery layers in stack
/// order and every node's crash round. Built by [`FaultSpec::compile`].
///
/// The engine calls [`Faults::begin_round`] at the top of every round
/// (advancing the Gilbert–Elliott chains), applies
/// [`Faults::crashes`] for that round, then asks [`Faults::delivery`]
/// about every delivery to a live node — unless the plan
/// [`is_empty`](Faults::is_empty).
#[derive(Debug)]
pub struct Faults {
    seed: u64,
    /// The last round the chains were advanced to.
    round: usize,
    /// The delivery layers, in stack order.
    layers: Vec<Layer>,
    /// `(round, node)` for every node that crashes, sorted; each node
    /// appears at most once, with a round of at least 1.
    crashes: Vec<(usize, usize)>,
}

impl Faults {
    /// Whether the plan can affect no run: no delivery layer and no crash.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty() && self.crashes.is_empty()
    }

    /// Advances per-round state (every Gilbert–Elliott chain steps once
    /// per round) up to `round`; earlier rounds are a no-op.
    pub fn begin_round(&mut self, round: usize) {
        let seed = self.seed;
        for r in (self.round + 1)..=round {
            for layer in &mut self.layers {
                if let Layer::Burst {
                    p_good_to_bad,
                    p_bad_to_good,
                    bad,
                    ..
                } = layer
                {
                    for (s, state) in bad.iter_mut().enumerate() {
                        let u = unit_hash((seed, "ge-step", r, s));
                        *state = if *state {
                            u >= *p_bad_to_good
                        } else {
                            u < *p_good_to_bad
                        };
                    }
                }
            }
        }
        self.round = self.round.max(round);
    }

    /// Decides the fate of one delivery: the first layer's non-`Deliver`
    /// verdict, in stack order.
    pub fn delivery(&self, ctx: &DeliveryCtx) -> Delivery {
        for layer in &self.layers {
            match layer.delivery(self.seed, ctx) {
                Delivery::Deliver => continue,
                other => return other,
            }
        }
        Delivery::Deliver
    }

    /// The nodes that crash in `round`, ascending (crash-stop: each node
    /// crashes in one round at most and stays down from then on).
    pub fn crashes(&self, round: usize) -> impl Iterator<Item = usize> + '_ {
        let lo = self.crashes.partition_point(|&(r, _)| r < round);
        let hi = self.crashes.partition_point(|&(r, _)| r <= round);
        self.crashes[lo..hi].iter().map(|&(_, v)| v)
    }

    /// The round `node` crashes in, if it ever does.
    pub fn crash_round(&self, node: usize) -> Option<usize> {
        self.crashes
            .iter()
            .find(|&&(_, v)| v == node)
            .map(|&(r, _)| r)
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

    fn ctx(round: usize, slot: usize, idx: usize) -> DeliveryCtx {
        DeliveryCtx {
            round,
            from: 0,
            to: 1,
            to_port: 0,
            link_slot: slot,
            msg_index: idx,
        }
    }

    /// Whether the first Gilbert–Elliott layer's link `slot` is Bad.
    fn is_bad(f: &Faults, slot: usize) -> bool {
        match &f.layers[0] {
            Layer::Burst { bad, .. } => bad[slot],
            other => panic!("expected a Gilbert-Elliott layer, got {other:?}"),
        }
    }

    /// Whether `node` is down in `round` under plan `f`.
    fn crashed(f: &Faults, node: usize, round: usize) -> bool {
        f.crash_round(node).is_some_and(|r| round >= r)
    }

    #[test]
    fn independent_loss_extremes() {
        let g = generators::path(2);
        let never = FaultSpec::IndependentLoss(0.0).compile(&g, 1);
        let always = FaultSpec::IndependentLoss(1.0).compile(&g, 1);
        for i in 0..50 {
            assert_eq!(never.delivery(&ctx(1, 0, i)), Delivery::Deliver);
            assert_eq!(always.delivery(&ctx(1, 0, i)), Delivery::Drop);
        }
    }

    #[test]
    fn independent_loss_rate_roughly_honored() {
        let m = FaultSpec::IndependentLoss(0.3).compile(&generators::path(2), 7);
        let drops = (0..10_000)
            .filter(|&i| m.delivery(&ctx(1 + i / 100, i % 100, i)) == Delivery::Drop)
            .count();
        assert!((2500..3500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn gilbert_elliott_is_bursty_and_deterministic() {
        let g = generators::cycle(6);
        let mk = || FaultSpec::GilbertElliott(0.2, 0.3, 0.0, 1.0).compile(&g, 99);
        let mut a = mk();
        let mut b = mk();
        let mut streak = 0usize;
        let mut max_streak = 0usize;
        for round in 1..=200 {
            a.begin_round(round);
            b.begin_round(round);
            assert_eq!(is_bad(&a, 0), is_bad(&b, 0), "chains are seeded");
            if is_bad(&a, 0) {
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
        // Instantly bad forever.
        let mut m = FaultSpec::GilbertElliott(1.0, 0.0, 0.0, 1.0).compile(&g, 5);
        m.begin_round(1);
        assert!(is_bad(&m, 0));
        assert_eq!(m.delivery(&ctx(1, 0, 0)), Delivery::Drop);
    }

    #[test]
    fn crash_stop_schedule() {
        let m = FaultSpec::CrashStop(CrashStop::at(vec![(2, 5), (0, 1)]))
            .compile(&generators::path(4), 0);
        assert!(!crashed(&m, 2, 4));
        assert!(crashed(&m, 2, 5));
        assert!(crashed(&m, 2, 50), "crash-stop is permanent");
        assert!(crashed(&m, 0, 1));
        assert!(!crashed(&m, 1, 100));
        // The per-round lists name each crash once, in its round.
        assert_eq!(m.crashes(1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(m.crashes(5).collect::<Vec<_>>(), vec![2]);
        assert_eq!(m.crashes(6).count(), 0);
        // Round 0 takes effect in round 1; nodes outside the graph never
        // crash; a node's earliest scheduled round wins.
        let early = FaultSpec::CrashStop(CrashStop::at(vec![(3, 0), (9, 1), (1, 4), (1, 2)]))
            .compile(&generators::path(4), 0);
        assert_eq!(early.crashes(1).collect::<Vec<_>>(), vec![3]);
        assert_eq!(early.crash_round(1), Some(2));
        assert_eq!(early.crash_round(9), None);
    }

    #[test]
    fn crash_stop_random_is_seeded_and_bounded() {
        let spec = FaultSpec::CrashStop(CrashStop::random(3, 10));
        let n = 20;
        let g = generators::path(n);
        let plan = spec.compile(&g, 7);
        let victims: Vec<usize> = (0..n).filter(|&v| plan.crash_round(v).is_some()).collect();
        assert_eq!(victims.len(), 3);
        let again = spec.compile(&g, 7);
        for &v in &victims {
            let r = plan.crash_round(v).unwrap();
            assert!((1..=10).contains(&r));
            assert_eq!(again.crash_round(v), Some(r), "deterministic");
        }
        let plan2 = spec.compile(&g, 8);
        let victims2: Vec<usize> = (0..n).filter(|&v| plan2.crash_round(v).is_some()).collect();
        assert_eq!(victims2.len(), 3);
    }

    #[test]
    fn crash_stop_random_matches_rank_definition() {
        // The reference: node v crashes iff fewer than `count` nodes rank
        // below it by (victim hash, index), at round 1 + its round hash
        // modulo the window.
        let reference = |v: usize, n: usize, count: usize, within: usize, seed: u64| {
            let key = |u: usize| raw_hash((seed, "crash-victim", u));
            let rank = (0..n)
                .filter(|&u| key(u) < key(v) || (key(u) == key(v) && u < v))
                .count();
            (rank < count).then(|| 1 + (raw_hash((seed, "crash-round", v)) as usize) % within)
        };
        for n in [1usize, 2, 7, 40, 129] {
            let g = generators::path(n);
            for count in [0usize, 1, 3, n, n + 2] {
                for within in [1usize, 4, 10] {
                    for seed in [0u64, 1, 7, 12_345] {
                        let plan = FaultSpec::CrashStop(CrashStop::random(count, within))
                            .compile(&g, seed);
                        for v in 0..n {
                            assert_eq!(
                                plan.crash_round(v),
                                reference(v, n, count, within, seed),
                                "n {n}, count {count}, within {within}, seed {seed}, node {v}"
                            );
                        }
                    }
                }
            }
        }
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
        let g = generators::path(2);
        let m = FaultSpec::BitFlip(1.0).compile(&g, 3);
        for i in 0..10 {
            assert!(matches!(m.delivery(&ctx(1, 0, i)), Delivery::Corrupt(_)));
        }
        let none = FaultSpec::BitFlip(0.0).compile(&g, 3);
        assert_eq!(none.delivery(&ctx(1, 0, 0)), Delivery::Deliver);
    }

    #[test]
    fn stack_first_fault_wins() {
        let g = generators::path(2);
        let m = FaultSpec::Stack(vec![
            FaultSpec::IndependentLoss(0.0),
            FaultSpec::BitFlip(1.0),
        ])
        .compile(&g, 3);
        assert!(matches!(m.delivery(&ctx(1, 0, 0)), Delivery::Corrupt(_)));
        let drop_wins = FaultSpec::Stack(vec![
            FaultSpec::IndependentLoss(1.0),
            FaultSpec::BitFlip(1.0),
        ])
        .compile(&g, 3);
        assert_eq!(drop_wins.delivery(&ctx(1, 0, 0)), Delivery::Drop);
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
        // The compiled plan of a `None`-only spec is empty.
        let g = generators::path(3);
        for spec in [
            FaultSpec::None,
            FaultSpec::Stack(vec![
                FaultSpec::None,
                FaultSpec::Stack(vec![FaultSpec::None]),
            ]),
        ] {
            assert!(spec.compile(&g, 1).is_empty(), "{spec:?}");
        }
        assert!(!FaultSpec::IndependentLoss(0.5).compile(&g, 1).is_empty());
        assert!(!FaultSpec::CrashStop(CrashStop::at(vec![(0, 3)]))
            .compile(&g, 1)
            .is_empty());
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
