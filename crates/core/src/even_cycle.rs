//! Sublinear-round even-cycle detection — **Theorem 1.1** (§6 of the paper).
//!
//! For fixed `k >= 2`, detects a copy of `C_2k` in
//! `O(n^{1 - 1/(k(k-1))})` rounds, combining:
//!
//! * **Phase I** — color coding + pipelined color-coded BFS from every
//!   high-degree node (degree `>= n^δ`, `δ = 1/(k-1)`), with round budget
//!   `R1 = ceil(M / n^δ) + 2k` (Lemma 6.1), where `M >= ex(n, C_2k)` is the
//!   even-cycle Turán bound;
//! * **Phase II** — remove high-degree nodes, peel the remainder into
//!   `O(log n)` layers with up-degree at most `d`, then propagate
//!   properly-colored increasing/decreasing path prefixes that meet at the
//!   cycle midpoint (Claim 6.4).
//!
//! Each phase finds a properly-colored cycle with probability at least
//! `(2k)^{-2k}`; the driver repeats both phases with fresh colors to
//! amplify. A rejection is always sound: either an explicit properly-colored
//! `C_2k` was found, or a pipelining/peeling budget overflowed, which
//! certifies `|E(G)| > M >= ex(n, C_2k)` and hence the existence of a
//! `C_2k`.
//!
//! The paper notes the algorithm derandomizes "using standard techniques"
//! (explicit colorings from a perfect-hash-family, cf. its reference \[15\])
//! at an extra `O(log n)` factor; we implement the randomized version and
//! expose the repetition count instead.

use congest::{
    bits_for_domain, Bandwidth, BitSize, Collector, Decision, FaultReport, FaultSpec, Inbox,
    Metrics, NodeAlgorithm, NodeContext, Outbox, Outgoing, Overrides, PhaseStat, Profiler,
    ReliableConfig, RunReport, RunStats, SimError, SimEvent, Simulation,
};
use graphlib::decomposition::layer_budget;
use graphlib::turan::even_cycle_edge_bound;
use graphlib::Graph;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Parameters of the even-cycle detector.
#[derive(Debug, Clone, Copy)]
pub struct EvenCycleConfig {
    /// Detect `C_{2k}`; requires `k >= 2`.
    pub k: usize,
    /// Number of independent repetitions (color re-draws) of both phases.
    /// `Theta((2k)^{2k})` repetitions give constant success probability.
    pub repetitions: usize,
    /// Base seed for the per-repetition color draws.
    pub seed: u64,
    /// Override for the Turán edge bound `M` (mainly for tests/benches);
    /// `None` uses [`even_cycle_edge_bound`]. Using a smaller `M` keeps the
    /// schedule shorter but is only sound if `M >= ex(n, C_2k)` still holds
    /// for the inputs at hand.
    pub edge_bound_override: Option<usize>,
    /// Shard count for the round engine's parallel passes (0 = one shard
    /// per rayon lane). Purely a parallel-grain knob: every run is
    /// byte-identical at any value.
    pub shards: usize,
    /// Run the engine with causal early termination: once every live
    /// node is [`NodeAlgorithm::quiescent`] and no message is in flight,
    /// the remaining (purely clock-ticking) rounds of the phase schedule
    /// are skipped. Executed round counts (and the per-round stat series)
    /// reflect the truncated run, so leave this off for golden-file and
    /// referee comparisons. Fault-free decisions are unchanged. Under
    /// faults the cut also skips crashes scheduled after it, so a node
    /// that rejected before the cut stays a surviving rejecter; that can
    /// only add detections a full-length run would lose to a crash, never
    /// a false one.
    pub early_termination: bool,
}

impl EvenCycleConfig {
    /// Default configuration for cycle length `2k` with enough repetitions
    /// for constant success probability.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "C_2k detection requires k >= 2");
        EvenCycleConfig {
            k,
            repetitions: amplification_reps(k),
            seed: 0,
            edge_bound_override: None,
            shards: 0,
            early_termination: false,
        }
    }

    /// Sets the number of repetitions.
    pub fn repetitions(mut self, reps: usize) -> Self {
        self.repetitions = reps;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the edge bound `M`.
    pub fn edge_bound(mut self, m: usize) -> Self {
        self.edge_bound_override = Some(m);
        self
    }

    /// Sets the engine shard count (see [`EvenCycleConfig::shards`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables causal early termination (see
    /// [`EvenCycleConfig::early_termination`]).
    pub fn early_termination(mut self, on: bool) -> Self {
        self.early_termination = on;
        self
    }
}

/// `4 * (2k)^{2k}` capped to something finite — the paper's amplification
/// count for constant success probability.
pub fn amplification_reps(k: usize) -> usize {
    let base = (2 * k) as u64;
    let mut acc: u64 = 1;
    for _ in 0..(2 * k) {
        acc = acc.saturating_mul(base);
        if acc > 1 << 22 {
            return 1 << 22;
        }
    }
    (4 * acc) as usize
}

/// The schedule every node derives from the commonly-known `(n, k, M)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Cycle half-length.
    pub k: usize,
    /// Turán edge bound `M`.
    pub edge_bound: usize,
    /// High-degree threshold `ceil(n^δ)`, `δ = 1/(k-1)`.
    pub degree_threshold: usize,
    /// Phase I round budget `R1 = ceil(M / threshold) + 2k`.
    pub r1_rounds: usize,
    /// Peeling threshold `d` for Phase II layers.
    pub peel_threshold: usize,
    /// Number of peeling rounds `L`.
    pub peel_rounds: usize,
    /// Per-block send budgets of Phase II: `budgets[j]` is the number of
    /// rounds color-`(j+1)` / color-`(2k-1-j)` nodes get to flush their
    /// prefix queues (`j = 0` is the paper's step (2)).
    pub block_budgets: Vec<usize>,
    /// Total Phase II rounds.
    pub r2_rounds: usize,
    /// Bits needed to ship the largest Phase II message (a length-(k-1)
    /// prefix) — the bandwidth the algorithm assumes, `Θ(k log n)`.
    pub required_bandwidth: usize,
}

impl Schedule {
    /// Derives the schedule for a graph of `n` nodes.
    pub fn derive(n: usize, k: usize, edge_bound_override: Option<usize>) -> Schedule {
        assert!(k >= 2);
        let m = edge_bound_override.unwrap_or_else(|| even_cycle_edge_bound(n, k));
        let delta = 1.0 / (k as f64 - 1.0);
        let degree_threshold = ((n as f64).powf(delta).ceil() as usize).max(1);
        let r1_rounds = m.div_ceil(degree_threshold) + 2 * k;
        // Peeling with threshold 2 * ceil(2M/n) halves the remaining
        // vertices each step for any graph family whose every subgraph has
        // average degree <= 2M/n (true for C_2k-free graphs by the Turán
        // bound), so `layer_budget(n)` steps always complete.
        let peel_threshold = 2 * (2 * m).div_ceil(n.max(1)).max(1);
        let peel_rounds = layer_budget(n);
        // Block j (0-based) carries length-(j+1) prefixes; a node holds at
        // most `d * threshold^{j-1}` of them (up-degree d at the first hop,
        // then fan-out < degree_threshold per hop).
        let mut block_budgets = Vec::with_capacity(k - 1);
        let mut budget = peel_threshold;
        for j in 0..(k - 1) {
            if j > 0 {
                budget = budget.saturating_mul(degree_threshold);
            }
            block_budgets.push(budget);
        }
        // Rounds: 1 (alive bits land) happens inside peeling round 1;
        // layering occupies rounds 1..=L; color-0 broadcast at L+1; block j
        // sends occupy the following budget windows; one final round for
        // the last arrivals.
        let r2_rounds = peel_rounds + 1 + block_budgets.iter().sum::<usize>() + 1;
        let id_bits = bits_for_domain(n.max(2));
        let layer_bits = bits_for_domain(peel_rounds.max(2));
        // Largest message: origin + origin layer + up to (k-2) interior ids
        // + direction flag + 3-bit tag.
        let required_bandwidth = id_bits * (k - 1) + layer_bits + 1 + 3;
        Schedule {
            k,
            edge_bound: m,
            degree_threshold,
            r1_rounds,
            peel_rounds,
            peel_threshold,
            block_budgets,
            r2_rounds,
            required_bandwidth,
        }
    }

    /// First round in which block `j` (0-based) sends.
    pub fn block_send_start(&self, j: usize) -> usize {
        let mut start = self.peel_rounds + 2;
        for b in 0..j {
            start += self.block_budgets[b];
        }
        start
    }

    /// Last send round of block `j`.
    pub fn block_send_end(&self, j: usize) -> usize {
        self.block_send_start(j) + self.block_budgets[j] - 1
    }
}

// ---------------------------------------------------------------------------
// Phase I: pipelined color-coded BFS from high-degree nodes.
// ---------------------------------------------------------------------------

/// Phase I token: `(ColorBFS, origin, i)` of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CbToken {
    /// Identifier of the color-0 node that started the BFS.
    pub origin: u64,
    /// Hops taken so far (equals the color of the last holder).
    pub hops: u16,
    /// Declared wire size in bits (id bits + counter bits).
    bits: u32,
}

impl BitSize for CbToken {
    fn bit_size(&self) -> usize {
        self.bits as usize
    }
}

/// Phase I node algorithm.
pub struct ColorBfsNode {
    sched: Schedule,
    color: u16,
    queue: VecDeque<CbToken>,
    seen: graphlib::FxHashSet<(u64, u16)>,
    reject: bool,
    done: bool,
}

impl ColorBfsNode {
    /// A Phase I node for the given schedule.
    pub fn new(sched: Schedule) -> Self {
        ColorBfsNode {
            sched,
            color: 0,
            queue: VecDeque::new(),
            seen: graphlib::FxHashSet::default(),
            reject: false,
            done: false,
        }
    }

    fn token(&self, ctx: &NodeContext, origin: u64, hops: u16) -> CbToken {
        let bits = (bits_for_domain(ctx.n.max(2)) + bits_for_domain(2 * self.sched.k)) as u32;
        CbToken { origin, hops, bits }
    }

    fn pop_broadcast(&mut self) -> Outbox<CbToken> {
        match self.queue.pop_front() {
            Some(t) => vec![Outgoing::Broadcast(t)],
            None => Vec::new(),
        }
    }
}

impl NodeAlgorithm for ColorBfsNode {
    type Msg = CbToken;

    fn init(&mut self, ctx: &NodeContext, rng: &mut ChaCha8Rng) -> Outbox<CbToken> {
        self.color = rng.gen_range(0..2 * self.sched.k as u16);
        if self.color == 0 && ctx.degree() >= self.sched.degree_threshold {
            let t = self.token(ctx, ctx.id, 0);
            self.seen.insert((t.origin, t.hops));
            self.queue.push_back(t);
        }
        self.pop_broadcast()
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &Inbox<CbToken>,
        _rng: &mut ChaCha8Rng,
    ) -> Outbox<CbToken> {
        let two_k = 2 * self.sched.k as u16;
        for (_, t) in inbox {
            if t.origin == ctx.id && t.hops == two_k - 1 {
                // The token walked a properly-colored closed walk of length
                // 2k back to its origin: colors 0..2k-1 are distinct, so the
                // walk is a simple 2k-cycle.
                self.reject = true;
                continue;
            }
            if t.hops + 1 < two_k && self.color == t.hops + 1 {
                let fwd = self.token(ctx, t.origin, t.hops + 1);
                if self.seen.insert((fwd.origin, fwd.hops)) {
                    self.queue.push_back(fwd);
                }
            } else if t.hops == two_k - 1 && self.color == 0 {
                // A completed walk arriving at a *different* color-0 node:
                // not a detection (wrong origin); drop it.
            }
        }
        if ctx.round >= self.sched.r1_rounds {
            // Lemma 6.1: in a graph with |E| <= M all queues are empty by
            // now; a backlog certifies |E| > M and hence a C_2k.
            if !self.queue.is_empty() {
                self.reject = true;
            }
            self.done = true;
            return Vec::new();
        }
        self.pop_broadcast()
    }

    fn halted(&self) -> bool {
        self.done
    }

    /// With an empty token queue a Phase I node is purely reactive: it
    /// never emits on a clock, and the only decision change remaining at
    /// `r1_rounds` — the backlog rejection of Lemma 6.1 — requires a
    /// non-empty queue. So once every queue (and the network) drains, the
    /// rest of the `R1` schedule is dead time that early termination may
    /// skip.
    fn quiescent(&self) -> bool {
        self.done || self.queue.is_empty()
    }

    fn decision(&self) -> Decision {
        if self.reject {
            Decision::Reject
        } else {
            Decision::Accept
        }
    }
}

// ---------------------------------------------------------------------------
// Phase II: peel layers, then propagate increasing/decreasing prefixes.
// ---------------------------------------------------------------------------

/// Phase II message.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum P2Msg {
    /// "I am still unassigned" — an alive beacon active nodes rebroadcast
    /// every peeling round until they take a layer. Counting fresh beacons
    /// per round (instead of decrementing on retirement notices) keeps the
    /// peel *sound under message loss*: a lost beacon can only make
    /// neighbors retire earlier, never strand a node without a layer, so
    /// fault injection cannot trigger the density-certificate rejection on
    /// an `H`-free graph.
    Active,
    /// A color-0 node announcing `(id, layer)` — the paper's step (1).
    Zero {
        /// Originating node id.
        origin: u64,
        /// Its layer.
        layer: u32,
        /// Declared wire bits.
        bits: u32,
    },
    /// A properly-colored path prefix (origin, interiors..., sender). The
    /// sender is implicit (the receiving port identifies it), so `interior`
    /// holds the vertices strictly between the origin and the sender.
    Prefix {
        /// The color-0 endpoint the prefix starts at.
        origin: u64,
        /// Layer of the origin (every hop checks it is `>=` its own layer).
        origin_layer: u32,
        /// Interior vertices between origin and sender, in path order.
        interior: Vec<u64>,
        /// `true` for an increasing prefix (colors 0,1,2,...), `false` for
        /// a decreasing one (colors 0, 2k-1, 2k-2, ...).
        increasing: bool,
        /// Declared wire bits.
        bits: u32,
    },
}

impl BitSize for P2Msg {
    fn bit_size(&self) -> usize {
        match self {
            P2Msg::Active => 1,
            P2Msg::Zero { bits, .. } | P2Msg::Prefix { bits, .. } => *bits as usize,
        }
    }
}

/// A prefix held by a node, pending forwarding.
#[derive(Debug, Clone)]
struct HeldPrefix {
    origin: u64,
    origin_layer: u32,
    /// Interior including the node that delivered it to us (it becomes part
    /// of the interior once we forward).
    interior: Vec<u64>,
    increasing: bool,
}

/// Phase II node algorithm.
pub struct LayerPrefixNode {
    sched: Schedule,
    color: u16,
    active: bool,
    layer: Option<u32>,
    queue: VecDeque<HeldPrefix>,
    /// Midpoint bookkeeping: origins seen with an increasing / decreasing
    /// prefix (only used by color-k nodes).
    incr_origins: graphlib::FxHashSet<u64>,
    decr_origins: graphlib::FxHashSet<u64>,
    /// Last round this node was stepped in — the clock reference for
    /// [`NodeAlgorithm::quiescent`] (the schedule is round-indexed, and
    /// quiescence for a clock-driven node depends on which scheduled
    /// emissions are already behind it).
    round_seen: usize,
    reject: bool,
    done: bool,
}

impl LayerPrefixNode {
    /// A Phase II node for the given schedule.
    pub fn new(sched: Schedule) -> Self {
        LayerPrefixNode {
            sched,
            color: 0,
            active: false,
            layer: None,
            queue: VecDeque::new(),
            incr_origins: graphlib::FxHashSet::default(),
            decr_origins: graphlib::FxHashSet::default(),
            round_seen: 0,
            reject: false,
            done: false,
        }
    }

    /// The 0-based block this node's color sends in, if any.
    fn send_block(&self) -> Option<usize> {
        let k = self.sched.k as u16;
        let c = self.color;
        if (1..k).contains(&c) {
            Some((c - 1) as usize)
        } else if c > k && c < 2 * k {
            Some((2 * k - 1 - c) as usize)
        } else {
            None
        }
    }

    fn id_bits(&self, n: usize) -> u32 {
        bits_for_domain(n.max(2)) as u32
    }

    fn layer_bits(&self) -> u32 {
        bits_for_domain(self.sched.peel_rounds.max(2)) as u32
    }

    fn emit_prefix(&self, ctx: &NodeContext, p: &HeldPrefix) -> P2Msg {
        let bits = self.id_bits(ctx.n) * (1 + p.interior.len() as u32) + self.layer_bits() + 1 + 3;
        P2Msg::Prefix {
            origin: p.origin,
            origin_layer: p.origin_layer,
            interior: p.interior.clone(),
            increasing: p.increasing,
            bits,
        }
    }
}

impl NodeAlgorithm for LayerPrefixNode {
    type Msg = P2Msg;

    fn init(&mut self, ctx: &NodeContext, rng: &mut ChaCha8Rng) -> Outbox<P2Msg> {
        self.color = rng.gen_range(0..2 * self.sched.k as u16);
        self.active = ctx.degree() < self.sched.degree_threshold;
        if self.active {
            vec![Outgoing::Broadcast(P2Msg::Active)]
        } else {
            // High-degree nodes sat out already; they accept and halt at the
            // end of the schedule like everyone else (they still relay
            // nothing, so halting early is equivalent — we halt now).
            self.done = true;
            Vec::new()
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &Inbox<P2Msg>,
        _rng: &mut ChaCha8Rng,
    ) -> Outbox<P2Msg> {
        let s = &self.sched;
        let round = ctx.round;
        let k = s.k as u16;
        self.round_seen = round;

        // --- Ingest messages ---
        // Beacons received this round come from neighbors still unassigned
        // after the previous round; they are counted fresh every round.
        let mut alive = 0usize;
        for (port, msg) in inbox {
            match &**msg {
                P2Msg::Active => {
                    alive += 1;
                }
                P2Msg::Zero { origin, layer, .. } => {
                    // Step (2): colors 1 and 2k-1 pick up length-1 prefixes
                    // from equal-or-higher-layer color-0 neighbors.
                    if let Some(my_layer) = self.layer {
                        if (self.color == 1 || self.color == 2 * k - 1) && *layer >= my_layer {
                            self.queue.push_back(HeldPrefix {
                                origin: *origin,
                                origin_layer: *layer,
                                interior: Vec::new(),
                                increasing: self.color == 1,
                            });
                        }
                    }
                }
                P2Msg::Prefix {
                    origin,
                    origin_layer,
                    interior,
                    increasing,
                    ..
                } => {
                    let my_layer = match self.layer {
                        Some(l) => l,
                        None => continue,
                    };
                    if *origin_layer < my_layer {
                        continue; // u_0 must be on the highest layer
                    }
                    let sender = ctx.neighbor_ids[*port as usize];
                    // Path so far: origin, interior..., sender; we are the
                    // next vertex. Its length determines the color we must
                    // have to extend it.
                    let expect_len = interior.len() + 2;
                    let my_color_incr = expect_len as u16;
                    let my_color_decr = 2 * k - (expect_len as u16).min(2 * k);
                    if *increasing && self.color == my_color_incr && self.color < k {
                        let mut interior2 = interior.clone();
                        interior2.push(sender);
                        self.queue.push_back(HeldPrefix {
                            origin: *origin,
                            origin_layer: *origin_layer,
                            interior: interior2,
                            increasing: true,
                        });
                    } else if !*increasing && self.color == my_color_decr && self.color > k {
                        let mut interior2 = interior.clone();
                        interior2.push(sender);
                        self.queue.push_back(HeldPrefix {
                            origin: *origin,
                            origin_layer: *origin_layer,
                            interior: interior2,
                            increasing: false,
                        });
                    } else if self.color == k && expect_len == s.k {
                        // Midpoint: a length-k prefix (origin, k-2 interior
                        // hops, sender) ends at us. Record and match.
                        if *increasing {
                            self.incr_origins.insert(*origin);
                        } else {
                            self.decr_origins.insert(*origin);
                        }
                    }
                }
            }
        }

        // --- Layering rounds ---
        if round <= s.peel_rounds {
            let mut out: Outbox<P2Msg> = Vec::new();
            if self.active && self.layer.is_none() {
                if alive <= s.peel_threshold {
                    // Assign and stop beaconing in the same round, so
                    // neighbors see the reduced live-degree next step — this
                    // is exactly the synchronous peel of
                    // `graphlib::decomposition::peel_layers`. Under message
                    // loss the count can only shrink, so faults accelerate
                    // retirement instead of blocking it.
                    self.layer = Some((round - 1) as u32);
                } else if round < s.peel_rounds {
                    out.push(Outgoing::Broadcast(P2Msg::Active));
                }
            }
            return out;
        }

        // Entering the prefix stage: unassigned active nodes certify
        // density > the Turán bound — reject (Claim 6.4(a)).
        if self.active && self.layer.is_none() {
            self.reject = true;
            self.done = true;
            return Vec::new();
        }

        // --- Step (1): color-0 announcement ---
        if round == s.peel_rounds + 1 {
            if self.color == 0 {
                let bits = self.id_bits(ctx.n) + self.layer_bits() + 3;
                return vec![Outgoing::Broadcast(P2Msg::Zero {
                    origin: ctx.id,
                    layer: self.layer.unwrap_or(0),
                    bits,
                })];
            }
            return Vec::new();
        }

        // --- Block send windows ---
        let mut out: Outbox<P2Msg> = Vec::new();
        if let Some(block) = self.send_block() {
            let start = s.block_send_start(block);
            let end = s.block_send_end(block);
            if round >= start && round <= end {
                if let Some(p) = self.queue.pop_front() {
                    out.push(Outgoing::Broadcast(self.emit_prefix(ctx, &p)));
                }
            } else if round > end && !self.queue.is_empty() {
                // Budget overflow: more prefixes than a C_2k-free graph
                // can generate. Sound rejection.
                self.reject = true;
            }
        }

        // --- End of schedule ---
        if round >= s.r2_rounds {
            if self.color == k
                && self
                    .incr_origins
                    .iter()
                    .any(|o| self.decr_origins.contains(o))
            {
                // Some origin reached us along both a properly-colored
                // increasing and decreasing k-path: their union is a
                // properly-colored C_2k (all colors distinct).
                self.reject = true;
            }
            if let Some(block) = self.send_block() {
                if !self.queue.is_empty() && round > s.block_send_end(block) {
                    self.reject = true;
                }
            }
            self.done = true;
            return Vec::new();
        }
        out
    }

    fn halted(&self) -> bool {
        self.done
    }

    /// A Phase II node is clock-driven in three places, all of which must
    /// be behind it before it can be declared quiescent: the peeling
    /// beacons and the layer-assignment deadline (so it must hold a
    /// layer), the color-0 `Zero` announcement at round
    /// `peel_rounds + 1`, and the end-of-schedule checks at `r2_rounds` —
    /// a backlogged queue (budget overflow) or a matched midpoint origin
    /// would still flip the decision there. With a layer assigned, the
    /// announcement round past, an empty queue, and no pending midpoint
    /// match, every remaining round is an idle block-window tick.
    fn quiescent(&self) -> bool {
        self.done
            || (self.layer.is_some()
                && self.round_seen > self.sched.peel_rounds + 1
                && self.queue.is_empty()
                && !(self.color == self.sched.k as u16
                    && self
                        .incr_origins
                        .iter()
                        .any(|o| self.decr_origins.contains(o))))
    }

    fn decision(&self) -> Decision {
        if self.reject {
            Decision::Reject
        } else {
            Decision::Accept
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Merges one phase run's traffic statistics into the detector-wide
/// aggregate: scalar tallies add, the congestion peak takes the max, and
/// the per-round series concatenate (the aggregate time-series walks
/// through every executed phase in order). Both runs share the same
/// topology, so the directed-edge slots line up.
fn absorb_stats(acc: &mut RunStats, s: &RunStats) {
    acc.rounds += s.rounds;
    acc.total_bits += s.total_bits;
    acc.total_messages += s.total_messages;
    acc.max_edge_round_bits = acc.max_edge_round_bits.max(s.max_edge_round_bits);
    for (d, x) in acc.directed_edge_bits.iter_mut().zip(&s.directed_edge_bits) {
        *d += x;
    }
    acc.per_round_bits.extend_from_slice(&s.per_round_bits);
    acc.per_round_messages
        .extend_from_slice(&s.per_round_messages);
}

/// Tracks per-phase `(rounds, bits)` tallies across repetitions and
/// renders them as the `phases` section of a run report.
#[derive(Default)]
struct PhaseTally([(u64, u64); 2]);

impl PhaseTally {
    /// Adds one run of `phase` (1 or 2).
    fn add(&mut self, phase: u64, stats: &RunStats) {
        let t = &mut self.0[phase as usize - 1];
        t.0 += stats.rounds as u64;
        t.1 += stats.total_bits;
    }

    fn render(&self) -> Vec<PhaseStat> {
        let [(r1, b1), (r2, b2)] = self.0;
        vec![
            PhaseStat::new("phase1", r1 as usize, b1),
            PhaseStat::new("phase2", r2 as usize, b2),
        ]
    }
}

/// Result of running the even-cycle detector.
#[derive(Debug, Clone)]
pub struct EvenCycleReport {
    /// Whether any repetition rejected (i.e. a `C_2k` was detected or the
    /// graph was certified denser than `ex(n, C_2k)`).
    pub detected: bool,
    /// Repetitions actually executed (stops early on detection).
    pub repetitions_run: usize,
    /// Total rounds across all executed phases and repetitions.
    pub total_rounds: usize,
    /// Total bits across all executed phases and repetitions.
    pub total_bits: u64,
    /// The derived schedule (round budgets, thresholds).
    pub schedule: Schedule,
    /// Rounds of a single repetition (`R1 + R2`) — the quantity
    /// Theorem 1.1 bounds by `O(n^{1-1/(k(k-1))})`.
    pub rounds_per_repetition: usize,
    /// Traffic statistics aggregated over every executed phase run:
    /// scalar totals add up, `max_edge_round_bits` is the peak over all
    /// runs, and the per-round series are concatenated in execution
    /// order (Phase I of rep 0, Phase II of rep 0, Phase I of rep 1, …).
    pub stats: RunStats,
    /// Per-phase round/bit breakdown (`"phase1"` then `"phase2"`),
    /// aggregated over repetitions.
    pub phases: Vec<PhaseStat>,
}

impl EvenCycleReport {
    /// Renders the whole detector run as a schema-versioned
    /// [`RunReport`], with the Phase I / Phase II breakdown attached.
    /// Fault-free runs carry an all-zero fault tally.
    pub fn run_report(&self, label: &str) -> RunReport {
        let faults = FaultReport::default();
        let metrics = Metrics::from_run(&self.stats, &faults).snapshot();
        RunReport::from_stats(label, &self.stats, &faults, true, metrics)
            .with_phases(self.phases.clone())
    }
}

/// Observation hooks for an instrumented detector run.
///
/// An installed [`Collector`] receives the full structured event stream of
/// every phase simulation, *prefixed* with a [`SimEvent::Phase`] marker
/// (`"phase1"` / `"phase2"` plus the repetition index) before each engine
/// run, so the recorded trace segments carry phase attribution — this is
/// what lets [`congest::obsv::analyze::critical_path`] report the critical
/// path per phase. An installed [`Profiler`] times the engine's internal
/// stages across every phase run.
#[derive(Clone, Default)]
pub struct EvenCycleObserver {
    /// Structured-event sink shared by every phase simulation.
    pub collector: Option<Arc<dyn Collector>>,
    /// Engine self-profiler shared by every phase simulation.
    pub profiler: Option<Arc<Profiler>>,
}

impl EvenCycleObserver {
    /// An observer recording the event stream into `collector`.
    pub fn collecting<C: Collector + 'static>(collector: Arc<C>) -> Self {
        EvenCycleObserver {
            collector: Some(collector),
            profiler: None,
        }
    }

    /// Adds an engine self-profiler.
    pub fn with_profiler(mut self, p: Arc<Profiler>) -> Self {
        self.profiler = Some(p);
        self
    }

    fn mark_phase(&self, name: &str, repetition: usize) {
        if let Some(c) = &self.collector {
            c.record(&SimEvent::Phase {
                name: name.into(),
                repetition,
            });
        }
    }

    fn install<'g>(&self, mut sim: Simulation<'g>) -> Simulation<'g> {
        if let Some(c) = &self.collector {
            sim = sim.collector_arc(Arc::clone(c));
        }
        if let Some(p) = &self.profiler {
            sim = sim.profiler(Arc::clone(p));
        }
        sim
    }
}

/// Runs the Theorem 1.1 detector on `g`.
pub fn detect_even_cycle(g: &Graph, cfg: EvenCycleConfig) -> Result<EvenCycleReport, SimError> {
    detect_even_cycle_observed(g, cfg, &EvenCycleObserver::default())
}

/// Runs the Theorem 1.1 detector on `g` with observation hooks installed
/// on every phase simulation.
///
/// Identical to [`detect_even_cycle`] (same seeds, same schedule, same
/// decisions) except that the observer's collector — if any — sees a
/// `Phase` marker followed by the full event stream of each phase run,
/// and the observer's profiler — if any — accumulates engine-stage
/// timings across the whole amplification loop.
pub fn detect_even_cycle_observed(
    g: &Graph,
    cfg: EvenCycleConfig,
    obs: &EvenCycleObserver,
) -> Result<EvenCycleReport, SimError> {
    let prepared = obs
        .install(stage(g, &cfg, &FaultSpec::None, None))
        .prepare();
    amplify(&prepared, &cfg, None, obs, false).map(FaultyEvenCycleReport::fault_free)
}

/// The staged (but not yet prepared) detector simulation: every knob the
/// amplification loop fixes up front. These are the bandwidth (derived from
/// the schedule, widened to the ARQ envelope when a transport is
/// configured), the fault spec, the shard count and early termination. One
/// staged topology serves both phases of every repetition, which override
/// only seed and round cap per run; results are identical to per-phase
/// one-shot builds, so staging is pure amortization.
fn stage<'g>(
    g: &'g Graph,
    cfg: &EvenCycleConfig,
    faults: &FaultSpec,
    transport: Option<ReliableConfig>,
) -> Simulation<'g> {
    assert!(cfg.k >= 2);
    let inner = Schedule::derive(g.n(), cfg.k, cfg.edge_bound_override)
        .required_bandwidth
        .max(8);
    let sim = Simulation::on(g)
        .faults(faults.clone())
        .shards(cfg.shards)
        .early_termination(cfg.early_termination);
    match transport {
        None => sim.bandwidth(Bandwidth::Bits(inner)),
        Some(rcfg) => sim
            .bandwidth(Bandwidth::Bits(rcfg.required_bandwidth(inner)))
            .reliable_config(rcfg),
    }
}

/// Stages the fault-free detector's topology once, for reuse across many
/// [`detect_even_cycle_prepared`] calls. The staged configuration is a
/// pure function of the graph and the config's topology knobs (`k`,
/// `edge_bound_override`, `shards`, `early_termination`) —
/// `seed` and `repetitions` ride in per run — so a service can cache the returned
/// handle keyed on those and skip the plan rebuild per query.
pub fn prepare_even_cycle(g: &Graph, cfg: &EvenCycleConfig) -> congest::Prepared {
    stage(g, cfg, &FaultSpec::None, None).prepare()
}

/// Runs the amplification loop on an already-prepared topology from
/// [`prepare_even_cycle`]. Byte-identical to [`detect_even_cycle`] with
/// the same config — preparation is pure amortization — provided
/// `prepared` was staged from the same graph and the same topology knobs.
pub fn detect_even_cycle_prepared(
    cfg: EvenCycleConfig,
    prepared: &congest::Prepared,
) -> Result<EvenCycleReport, SimError> {
    amplify(prepared, &cfg, None, &EvenCycleObserver::default(), false)
        .map(FaultyEvenCycleReport::fault_free)
}

/// The seed of `phase` (1 or 2) in repetition `rep`: `seed ^ (2·rep + phase)`.
fn phase_seed(seed: u64, rep: u64, phase: u64) -> u64 {
    seed ^ rep.wrapping_mul(2).wrapping_add(phase)
}

/// The amplification loop of every driver: repeat (Phase I, Phase II) with
/// fresh per-repetition seeds on the staged topology until a *surviving*
/// node rejects or the repetition budget runs out. With nothing crashed
/// every node survives, so the fault-free drivers share the rule. Each
/// phase is capped at its budget plus two rounds, counted in physical
/// rounds when `transport` is the ARQ `prepared` was staged with. The
/// runs' fault reports are folded into the result only with
/// `keep_faults`: the fault-free drivers drop that tally, so they skip
/// building it.
fn amplify(
    prepared: &congest::Prepared,
    cfg: &EvenCycleConfig,
    transport: Option<ReliableConfig>,
    obs: &EvenCycleObserver,
    keep_faults: bool,
) -> Result<FaultyEvenCycleReport, SimError> {
    assert!(
        cfg.repetitions >= 1,
        "detector needs at least one repetition"
    );
    let sched = Schedule::derive(prepared.graph().n(), cfg.k, cfg.edge_bound_override);
    let cap = |budget: usize| transport.map_or(budget + 2, |t| t.physical_rounds(budget + 2));
    let mut agg: Option<RunStats> = None;
    let mut tally = PhaseTally::default();
    let mut faults = FaultReport::default();
    let mut degraded = None;
    let mut detected = false;
    let mut reps = 0usize;

    'reps: for rep in 0..cfg.repetitions {
        reps += 1;
        for phase in [1, 2] {
            let s = sched.clone();
            let ovr = Overrides::new().seed(phase_seed(cfg.seed, rep as u64, phase));
            let out = if phase == 1 {
                obs.mark_phase("phase1", rep);
                let ovr = ovr.max_rounds(cap(sched.r1_rounds));
                prepared.run_with(&ovr, move |_| ColorBfsNode::new(s.clone()))?
            } else {
                obs.mark_phase("phase2", rep);
                let ovr = ovr.max_rounds(cap(sched.r2_rounds));
                prepared.run_with(&ovr, move |_| LayerPrefixNode::new(s.clone()))?
            };
            tally.add(phase, &out.stats);
            match &mut agg {
                None => agg = Some(out.stats.clone()),
                Some(a) => absorb_stats(a, &out.stats),
            }
            if keep_faults {
                faults.absorb(&out.faults);
            }
            fold_degraded(&mut degraded, &out.degraded);
            if out.surviving_node_rejects() {
                detected = true;
                break 'reps;
            }
        }
    }

    let stats = agg.expect("at least one repetition ran");
    Ok(FaultyEvenCycleReport {
        detected,
        repetitions_run: reps,
        total_rounds: stats.rounds,
        total_bits: stats.total_bits,
        faults,
        schedule: sched,
        phases: tally.render(),
        stats,
        degraded,
    })
}

/// The Theorem 1.1 round bound `n^{1 - 1/(k(k-1))}` (without constants),
/// for plotting measured rounds against the predicted shape.
pub fn theorem_bound(n: usize, k: usize) -> f64 {
    (n as f64).powf(1.0 - 1.0 / (k as f64 * (k as f64 - 1.0)))
}

/// Runs *only Phase I* for one repetition — the ablation half that covers
/// cycles through high-degree nodes and nothing else.
pub fn run_phase1_once(g: &Graph, cfg: &EvenCycleConfig, rep: u64) -> Result<bool, SimError> {
    let sched = Schedule::derive(g.n(), cfg.k, cfg.edge_bound_override);
    let s = sched.clone();
    let out = stage(g, cfg, &FaultSpec::None, None)
        .seed(phase_seed(cfg.seed, rep, 1))
        .max_rounds(sched.r1_rounds + 2)
        .run(move |_| ColorBfsNode::new(s.clone()))?;
    Ok(out.network_rejects())
}

/// Runs *only Phase II* for one repetition — the ablation half that covers
/// cycles among low-degree nodes and nothing else.
pub fn run_phase2_once(g: &Graph, cfg: &EvenCycleConfig, rep: u64) -> Result<bool, SimError> {
    let sched = Schedule::derive(g.n(), cfg.k, cfg.edge_bound_override);
    let s = sched.clone();
    let out = stage(g, cfg, &FaultSpec::None, None)
        .seed(phase_seed(cfg.seed, rep, 2))
        .max_rounds(sched.r2_rounds + 2)
        .run(move |_| LayerPrefixNode::new(s.clone()))?;
    Ok(out.network_rejects())
}

// ---------------------------------------------------------------------------
// Fault-injected driver
// ---------------------------------------------------------------------------

/// Result of running the even-cycle detector under injected faults.
#[derive(Debug, Clone)]
pub struct FaultyEvenCycleReport {
    /// Whether any repetition ended with a *surviving* node rejecting
    /// (crashed nodes' frozen decisions are not protocol output).
    pub detected: bool,
    /// Repetitions actually executed (stops early on detection).
    pub repetitions_run: usize,
    /// Total physical rounds across all executed phases and repetitions
    /// (with a reliable transport this counts transport rounds, not
    /// virtual algorithm rounds).
    pub total_rounds: usize,
    /// Total bits across all executed phases and repetitions, including
    /// sequence-number/ack/checksum overhead when a transport is used.
    pub total_bits: u64,
    /// Fault counters aggregated over every executed engine run.
    pub faults: FaultReport,
    /// The derived schedule (round budgets, thresholds).
    pub schedule: Schedule,
    /// Traffic statistics aggregated over every executed phase run, same
    /// conventions as [`EvenCycleReport::stats`]. With a reliable
    /// transport these count physical traffic — headers, acks, and
    /// retransmissions included.
    pub stats: RunStats,
    /// Per-phase round/bit breakdown (`"phase1"` then `"phase2"`),
    /// aggregated over repetitions.
    pub phases: Vec<PhaseStat>,
    /// The weakest graceful-degradation verdict across all executed phase
    /// runs (`None` when every phase ran clean): the detector's answer is
    /// only as trustworthy as its least-healthy phase.
    pub degraded: Option<congest::Degraded>,
}

impl FaultyEvenCycleReport {
    /// Renders the whole faulty detector run as a schema-versioned
    /// [`RunReport`] carrying the aggregated fault tallies (including
    /// transport retransmission counters when an ARQ was used) and the
    /// degradation verdict, if any phase degraded.
    pub fn run_report(&self, label: &str) -> RunReport {
        let metrics = Metrics::from_run(&self.stats, &self.faults).snapshot();
        let n = self.stats.offsets.len().saturating_sub(1);
        RunReport::from_stats(
            label,
            &self.stats,
            &self.faults,
            self.degraded.is_none(),
            metrics,
        )
        .with_phases(self.phases.clone())
        .with_degradation(self.degraded.clone(), n)
    }

    /// The fault-free drivers' view of a run staged without faults: the
    /// fault tally (left empty, since `amplify` skips it for these drivers)
    /// and the degradation verdict are dropped.
    fn fault_free(self) -> EvenCycleReport {
        EvenCycleReport {
            detected: self.detected,
            repetitions_run: self.repetitions_run,
            total_rounds: self.total_rounds,
            total_bits: self.total_bits,
            rounds_per_repetition: self.schedule.r1_rounds + self.schedule.r2_rounds,
            schedule: self.schedule,
            stats: self.stats,
            phases: self.phases,
        }
    }
}

/// Keeps the weakest degradation verdict seen so far (lowest confidence
/// wins; any verdict beats none).
fn fold_degraded(acc: &mut Option<congest::Degraded>, next: &Option<congest::Degraded>) {
    if let Some(d) = next {
        if acc.as_ref().is_none_or(|a| d.confidence < a.confidence) {
            *acc = Some(d.clone());
        }
    }
}

/// Runs the Theorem 1.1 detector on `g` with fault injection.
///
/// Every engine run (both phases of every repetition) is subjected to a
/// fresh model built from `faults`, deterministically from the same
/// per-repetition seeds the fault-free [`detect_even_cycle`] uses. With
/// `transport: Some(..)` both phases run behind the
/// [`congest::Reliable`] ARQ adapter, which recovers lost or corrupted
/// messages at the cost of extra rounds and header bits.
///
/// Detection requires a *surviving* node to reject. Loss, crashes and
/// link failures can only remove information from the bare algorithm
/// (Phase I tokens vanish, Phase II beacons and prefixes vanish), so a
/// faulty run may miss a planted `C_2k` but never falsely rejects a
/// `C_2k`-free graph.
pub fn detect_even_cycle_faulty(
    g: &Graph,
    cfg: EvenCycleConfig,
    faults: &FaultSpec,
    transport: Option<ReliableConfig>,
) -> Result<FaultyEvenCycleReport, SimError> {
    detect_even_cycle_faulty_observed(g, cfg, faults, transport, &EvenCycleObserver::default())
}

/// [`detect_even_cycle_faulty`] with observation hooks installed on every
/// phase simulation — same contract as [`detect_even_cycle_observed`].
pub fn detect_even_cycle_faulty_observed(
    g: &Graph,
    cfg: EvenCycleConfig,
    faults: &FaultSpec,
    transport: Option<ReliableConfig>,
    obs: &EvenCycleObserver,
) -> Result<FaultyEvenCycleReport, SimError> {
    let prepared = obs.install(stage(g, &cfg, faults, transport)).prepare();
    amplify(&prepared, &cfg, transport, obs, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators;
    use rand::SeedableRng;

    fn chacha(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn schedule_sane_for_k2() {
        let s = Schedule::derive(100, 2, None);
        assert_eq!(s.degree_threshold, 100); // n^{1/(k-1)} = n
        assert_eq!(s.block_budgets.len(), 1);
        assert!(s.r1_rounds > 0 && s.r2_rounds > s.peel_rounds);
        assert!(s.required_bandwidth >= bits_for_domain(100));
    }

    #[test]
    fn schedule_blocks_for_k3() {
        let s = Schedule::derive(1000, 3, None);
        assert_eq!(s.block_budgets.len(), 2);
        // Block 1 budget multiplies by the degree threshold.
        assert_eq!(s.block_budgets[1], s.block_budgets[0] * s.degree_threshold);
        assert_eq!(
            s.block_send_start(1),
            s.block_send_start(0) + s.block_budgets[0]
        );
    }

    #[test]
    fn accepts_tree() {
        let mut rng = chacha(1);
        let g = generators::random_tree(60, &mut rng);
        let cfg = EvenCycleConfig::new(2).repetitions(40).seed(7);
        let rep = detect_even_cycle(&g, cfg).unwrap();
        assert!(!rep.detected, "trees are C4-free");
    }

    #[test]
    fn accepts_odd_cycle() {
        let g = generators::cycle(31);
        let cfg = EvenCycleConfig::new(2).repetitions(40).seed(3);
        let rep = detect_even_cycle(&g, cfg).unwrap();
        assert!(!rep.detected, "C31 contains no C4");
    }

    #[test]
    fn accepts_c4_free_incidence_graph() {
        let g = graphlib::turan::c4_free_incidence_graph(3);
        let cfg = EvenCycleConfig::new(2).repetitions(60).seed(11);
        let rep = detect_even_cycle(&g, cfg).unwrap();
        assert!(!rep.detected, "incidence graph is C4-free");
    }

    #[test]
    fn detects_c4_in_k23() {
        // K_{2,3} contains C4; every vertex has low degree relative to the
        // k=2 threshold, so Phase II must find it.
        let g = generators::complete_bipartite(2, 3);
        let cfg = EvenCycleConfig::new(2).repetitions(4000).seed(5);
        let rep = detect_even_cycle(&g, cfg).unwrap();
        assert!(rep.detected, "C4 in K_{{2,3}} must be detected");
        assert!(rep.repetitions_run <= 4000);
    }

    #[test]
    fn detects_planted_c4_in_sparse_graph() {
        let mut rng = chacha(9);
        let base = generators::random_tree(40, &mut rng);
        let (g, _) = generators::plant_cycle(&base, 4, &mut rng);
        let cfg = EvenCycleConfig::new(2).repetitions(4000).seed(13);
        let rep = detect_even_cycle(&g, cfg).unwrap();
        assert!(rep.detected);
    }

    #[test]
    fn detects_c6_with_k3() {
        // Tight edge-bound override keeps the per-repetition schedule short
        // (M = 8 >= ex(6, C6) = 6 edges is still a valid Turán bound here).
        let g = generators::cycle(6);
        let cfg = EvenCycleConfig::new(3)
            .repetitions(60_000)
            .seed(1)
            .edge_bound(8);
        let rep = detect_even_cycle(&g, cfg).unwrap();
        assert!(rep.detected, "C6 itself must be detected at k=3");
    }

    #[test]
    fn accepts_c5_with_k3() {
        let g = generators::cycle(5);
        let cfg = EvenCycleConfig::new(3).repetitions(50).seed(2);
        let rep = detect_even_cycle(&g, cfg).unwrap();
        assert!(!rep.detected);
    }

    #[test]
    fn phase1_detects_cycle_through_high_degree_node() {
        // A C4 whose nodes also have many pendant edges: degrees exceed the
        // k=2 threshold only if we force it via the edge-bound override.
        // Build: C4 on 0..4, each cycle node gets (n/4) pendant leaves.
        let n = 40;
        let mut b = graphlib::GraphBuilder::new(n);
        for i in 0..4 {
            b.add_edge(i, (i + 1) % 4);
        }
        let mut next = 4;
        for i in 0..4 {
            for _ in 0..8 {
                b.add_edge(i, next);
                next += 1;
            }
        }
        let g = b.build();
        // Degree threshold for k=2 is n, so shrink it by overriding M... the
        // threshold comes from n^delta, not M; instead run k=2 Phase II
        // normally — it handles this graph (all degrees < n). Just verify
        // end-to-end detection.
        let cfg = EvenCycleConfig::new(2).repetitions(4000).seed(21);
        let rep = detect_even_cycle(&g, cfg).unwrap();
        assert!(rep.detected);
    }

    #[test]
    fn rejects_overflow_on_dense_graph() {
        // A clique is far denser than the C4 Turán bound once n is large
        // enough; with a tiny edge-bound override the detector must reject
        // (and indeed K8 contains C4).
        let g = generators::clique(8);
        let cfg = EvenCycleConfig::new(2).repetitions(1).seed(4).edge_bound(4);
        let rep = detect_even_cycle(&g, cfg).unwrap();
        assert!(rep.detected, "overflow certifies density > M");
    }

    #[test]
    fn rounds_match_schedule() {
        let g = generators::cycle(20); // C4-free, so all reps run
        let cfg = EvenCycleConfig::new(2).repetitions(3).seed(8);
        let rep = detect_even_cycle(&g, cfg).unwrap();
        assert!(!rep.detected);
        assert_eq!(rep.repetitions_run, 3);
        assert_eq!(
            rep.rounds_per_repetition,
            rep.schedule.r1_rounds + rep.schedule.r2_rounds
        );
    }

    #[test]
    fn theorem_bound_shape() {
        // k=2: exponent 1/2; k=3: exponent 5/6.
        assert!((theorem_bound(10_000, 2) - 100.0).abs() < 1e-6);
        let r = theorem_bound(64, 3);
        assert!((r - 64f64.powf(5.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn phase1_is_a_broadcast_congest_algorithm() {
        // Phase I only ever broadcasts, so it runs unchanged in the
        // broadcast-CONGEST variant ([10]'s model in the related work).
        let g = generators::complete_bipartite(4, 4);
        let sched = Schedule::derive(g.n(), 2, Some(2 * g.m()));
        let s = sched.clone();
        let out = Simulation::on(&g)
            .broadcast_only(true)
            .bandwidth(Bandwidth::Bits(sched.required_bandwidth.max(8)))
            .max_rounds(sched.r1_rounds + 2)
            .seed(3)
            .run(move |_| ColorBfsNode::new(s.clone()))
            .expect("broadcast-only must be accepted");
        assert!(out.completed);
    }

    #[test]
    fn phase2_is_a_broadcast_congest_algorithm() {
        let g = generators::cycle(12);
        let sched = Schedule::derive(g.n(), 2, Some(2 * g.m()));
        let s = sched.clone();
        let out = Simulation::on(&g)
            .broadcast_only(true)
            .bandwidth(Bandwidth::Bits(sched.required_bandwidth.max(8)))
            .max_rounds(sched.r2_rounds + 2)
            .seed(4)
            .run(move |_| LayerPrefixNode::new(s.clone()))
            .expect("broadcast-only must be accepted");
        assert!(out.completed);
    }

    #[test]
    fn amplification_reps_values() {
        assert_eq!(amplification_reps(2), 4 * 256);
        assert!(amplification_reps(3) > amplification_reps(2));
    }

    #[test]
    fn observed_run_labels_phases_and_yields_a_critical_path() {
        let mut rng = chacha(9);
        let base = generators::random_tree(40, &mut rng);
        let (g, _) = generators::plant_cycle(&base, 4, &mut rng);
        let log = Arc::new(congest::EventLog::new());
        let obs = EvenCycleObserver::collecting(Arc::clone(&log));
        let cfg = EvenCycleConfig::new(2).repetitions(4000).seed(13);
        let rep = detect_even_cycle_observed(&g, cfg, &obs).unwrap();
        assert!(rep.detected);
        // Same seeds, same outcome as the unobserved driver.
        let plain = detect_even_cycle(&g, cfg).unwrap();
        assert_eq!(plain.repetitions_run, rep.repetitions_run);
        assert_eq!(plain.total_bits, rep.total_bits);

        let events = log.take();
        let labels: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::Phase { name, .. } => Some(&**name),
                _ => None,
            })
            .collect();
        assert!(labels.contains(&"phase1"));
        assert!(labels.contains(&"phase2"));

        let viol = congest::obsv::check(&events);
        assert!(viol.is_empty(), "trace invariants violated: {viol:?}");
        let cp = congest::obsv::critical_path(&events);
        assert!(!cp.segments.is_empty());
        // No node reaches the k=2 degree threshold (n), so Phase I is
        // silent here; Phase II does all the work and must show a
        // non-trivial dependent-message chain.
        assert!(cp.phases.iter().any(|p| p.phase == "phase1"));
        assert!(cp
            .phases
            .iter()
            .any(|p| p.phase == "phase2" && p.max_path_bits > 0 && p.max_path_len > 1));
    }

    #[test]
    fn early_termination_preserves_decisions_and_saves_rounds() {
        // The detector's Phase II schedule is dominated by mostly-idle
        // block windows; once queues drain, early termination may skip
        // them. Detection outcome, repetition count, and traffic must be
        // unchanged — only idle rounds disappear.
        let mut rng = chacha(9);
        let base = generators::random_tree(40, &mut rng);
        let (g, _) = generators::plant_cycle(&base, 4, &mut rng);
        let cfg = EvenCycleConfig::new(2).repetitions(50).seed(13);
        let full = detect_even_cycle(&g, cfg).unwrap();
        let cut = detect_even_cycle(&g, cfg.early_termination(true)).unwrap();
        assert_eq!(cut.detected, full.detected);
        assert_eq!(cut.repetitions_run, full.repetitions_run);
        assert_eq!(cut.total_bits, full.total_bits);
        assert!(
            cut.total_rounds < full.total_rounds,
            "expected an idle tail to be skipped: {} vs {}",
            cut.total_rounds,
            full.total_rounds
        );
    }

    #[test]
    fn faulty_driver_without_faults_matches_the_clean_driver() {
        let mut rng = chacha(9);
        let base = generators::random_tree(40, &mut rng);
        let planted = generators::plant_cycle(&base, 4, &mut rng).0;
        let c4_free = graphlib::turan::c4_free_incidence_graph(3);
        for g in [&planted, &c4_free] {
            for seed in 0..4 {
                for et in [false, true] {
                    let cfg = EvenCycleConfig::new(2)
                        .repetitions(6)
                        .seed(seed)
                        .early_termination(et);
                    let clean = detect_even_cycle(g, cfg).unwrap();
                    let faulty = detect_even_cycle_faulty(g, cfg, &FaultSpec::None, None).unwrap();
                    let at = format!("n = {}, seed {seed}, early termination {et}", g.n());
                    assert_eq!(faulty.detected, clean.detected, "{at}");
                    assert_eq!(faulty.repetitions_run, clean.repetitions_run, "{at}");
                    assert_eq!(faulty.total_rounds, clean.total_rounds, "{at}");
                    assert_eq!(faulty.total_bits, clean.total_bits, "{at}");
                    assert_eq!(
                        format!("{:?}", faulty.stats),
                        format!("{:?}", clean.stats),
                        "{at}"
                    );
                    assert!(
                        faulty.degraded.is_none() && !faulty.faults.any_faults(),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_path_matches_one_shot() {
        let mut rng = chacha(9);
        let base = generators::random_tree(40, &mut rng);
        let (g, _) = generators::plant_cycle(&base, 4, &mut rng);
        let cfg = EvenCycleConfig::new(2).repetitions(60).seed(13);
        let prepared = prepare_even_cycle(&g, &cfg);
        let a = detect_even_cycle_prepared(cfg, &prepared).unwrap();
        let b = detect_even_cycle(&g, cfg).unwrap();
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.repetitions_run, b.repetitions_run);
        assert_eq!(a.total_rounds, b.total_rounds);
        assert_eq!(a.total_bits, b.total_bits);
        // The staged handle replays: a second run is identical.
        let c = detect_even_cycle_prepared(cfg, &prepared).unwrap();
        assert_eq!(c.total_bits, a.total_bits);
    }

    #[test]
    fn phase1_node_basic_flow() {
        // Directly exercise the Phase I state machine on a star center.
        let sched = Schedule::derive(10, 2, Some(5));
        let mut node = ColorBfsNode::new(sched);
        let ctx = NodeContext {
            index: 0,
            id: 3,
            neighbor_ids: vec![1, 2, 4, 5, 6],
            n: 10,
            round: 0,
        };
        let mut rng = chacha(0);
        let _ = node.init(&ctx, &mut rng);
        assert!(!node.halted());
    }
}
