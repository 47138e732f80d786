//! The naive CONGEST round: the referee for the sharded engine.
//!
//! One sequential loop per round, written from the model's definition and
//! the public API alone (`FaultSpec::compile`, `Faults`, `DeliveryCtx`,
//! `Graph`, `NodeAlgorithm`); it shares no code with the engine. Each
//! round it
//!
//! 1. begins the round on the fault plan and crashes every live node whose
//!    crash round has come (a node crashing in round `r` loses the outbox
//!    it would send in `r`);
//! 2. numbers every outbox entry in node order (a broadcast gets one id);
//! 3. charges bits per sender, emitting `Send` events in outbox order and
//!    settling the bandwidth bound in port order, and stops at the first
//!    error (invalid port, forbidden unicast, bandwidth exceeded);
//! 4. builds each receiver's inbox by rescanning every neighbor's whole
//!    outbox — port ascending, sender outbox order within a port — and
//!    asks the fault plan about each delivery, even when the plan is empty
//!    (a crashed receiver loses everything without asking the plan, and
//!    each lost delivery is a `Drop` event like any other);
//! 5. steps every live node, lending it references into its inbox.
//!
//! Everything is recomputed from scratch every round: no arenas, no
//! staging, no shards, no reuse.

// Each test crate that includes this module reads a different subset of
// what a run reports.
#![allow(dead_code)]

use congest::{
    Bandwidth, BitSize, Delivery, DeliveryCtx, FaultSpec, NodeAlgorithm, NodeContext, Outbox,
    Outgoing, SimError, SimEvent,
};
use graphlib::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// What a naive run is configured with (the engine's defaults do not
/// apply: every field is explicit).
pub struct Config {
    pub bandwidth: Bandwidth,
    pub seed: u64,
    pub max_rounds: usize,
    pub faults: FaultSpec,
    pub broadcast_only: bool,
}

/// Traffic and fault tallies of a run that completed without error.
#[derive(Default)]
pub struct Tallies {
    pub total_bits: u64,
    pub per_round_bits: Vec<u64>,
    /// Bits per directed edge, indexed like `RunStats::directed_edge_bits`:
    /// the slot of `(v, p)` is `p` plus the degrees of all nodes before `v`.
    pub directed_edge_bits: Vec<u64>,
    pub delivered: u64,
    pub dropped: u64,
    pub corrupted: u64,
    pub dropped_per_round: Vec<u64>,
    pub corrupted_per_round: Vec<u64>,
    pub crashed: Vec<(usize, usize)>,
}

/// The event stream a run produced (up to and including the failing
/// round's `Send`s, on error) and its result.
pub struct Run {
    pub events: Vec<SimEvent>,
    pub result: Result<Tallies, SimError>,
}

/// Runs `make(v)` on every node of `g` for up to `cfg.max_rounds` rounds.
pub fn run<A, F>(g: &Graph, cfg: &Config, make: F) -> Run
where
    A: NodeAlgorithm,
    F: Fn(usize) -> A,
{
    let mut events = Vec::new();
    let result = rounds(g, cfg, make, &mut events);
    Run { events, result }
}

fn rounds<A, F>(
    g: &Graph,
    cfg: &Config,
    make: F,
    events: &mut Vec<SimEvent>,
) -> Result<Tallies, SimError>
where
    A: NodeAlgorithm,
    F: Fn(usize) -> A,
{
    let n = g.n();
    let seed = cfg.seed;
    let mut first_slot = vec![0usize; n];
    for v in 1..n {
        first_slot[v] = first_slot[v - 1] + g.degree(v - 1);
    }
    let port_of = |u: usize, v: usize| g.neighbors(u).iter().position(|&w| w as usize == v);
    let mut ctxs: Vec<NodeContext> = (0..n)
        .map(|v| NodeContext {
            index: v,
            id: v as u64,
            neighbor_ids: g.neighbors(v).iter().map(|&u| u as u64).collect(),
            n,
            round: 0,
        })
        .collect();
    // The documented per-node stream: a function of (seed, node) only.
    let mut rngs: Vec<ChaCha8Rng> = (0..n)
        .map(|v| {
            let s0: u64 = ChaCha8Rng::seed_from_u64(seed).gen();
            ChaCha8Rng::seed_from_u64(s0 ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15))
        })
        .collect();
    let mut nodes: Vec<A> = (0..n).map(make).collect();
    let mut faults = cfg.faults.compile(g, seed);

    events.push(SimEvent::Meta {
        n,
        bandwidth_bits: match cfg.bandwidth {
            Bandwidth::Bits(b) => b,
            Bandwidth::Unbounded => 0,
        },
        seed,
    });
    let mut outboxes: Vec<Outbox<A::Msg>> = (0..n)
        .map(|v| nodes[v].init(&ctxs[v], &mut rngs[v]))
        .collect();
    let mut t = Tallies {
        directed_edge_bits: vec![0; 2 * g.m()],
        ..Tallies::default()
    };
    let mut crashed = vec![false; n];
    // Ids delivered to each node last round: its sends' `deps` this round.
    let mut heard: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut next_id = 0u64;
    let mut completed = nodes.iter().all(|nd| nd.halted());

    for round in 1..=cfg.max_rounds {
        if completed && outboxes.iter().all(|o| o.is_empty()) {
            break;
        }
        events.push(SimEvent::RoundStart { round });

        // 1. Crashes.
        faults.begin_round(round);
        for v in 0..n {
            if !crashed[v] && faults.crash_round(v).is_some_and(|r| round >= r) {
                crashed[v] = true;
                outboxes[v].clear();
                t.crashed.push((v, round));
                events.push(SimEvent::Crash { round, node: v });
            }
        }

        // 2. Message ids, in node order.
        let mut first_id = vec![0u64; n];
        for v in 0..n {
            first_id[v] = next_id;
            next_id += outboxes[v].len() as u64;
        }

        // 3. Charge bits per sender: outbox order, then port order.
        let (mut round_bits, mut round_msgs) = (0u64, 0u64);
        for v in 0..n {
            if outboxes[v].is_empty() {
                continue;
            }
            let deg = g.degree(v);
            let deps: Arc<[u64]> = Arc::from(heard[v].as_slice());
            let mut port_bits = vec![0u64; deg];
            for (idx, out) in outboxes[v].iter().enumerate() {
                let (port, m) = match out {
                    Outgoing::Unicast(p, m) => {
                        let p = *p as usize;
                        if cfg.broadcast_only {
                            return Err(SimError::UnicastForbidden { node: v, round });
                        }
                        if p >= deg {
                            return Err(SimError::InvalidPort {
                                node: v,
                                port: p,
                                degree: deg,
                            });
                        }
                        port_bits[p] += m.bit_size() as u64;
                        round_msgs += 1;
                        (p, m)
                    }
                    Outgoing::Broadcast(m) => {
                        for b in port_bits.iter_mut() {
                            *b += m.bit_size() as u64;
                        }
                        round_msgs += deg as u64;
                        (usize::MAX, m)
                    }
                };
                events.push(SimEvent::Send {
                    round,
                    from: v,
                    port,
                    bits: m.bit_size(),
                    msg_id: first_id[v] + idx as u64,
                    deps: Arc::clone(&deps),
                });
            }
            for (p, &bits) in port_bits.iter().enumerate() {
                if let Bandwidth::Bits(limit) = cfg.bandwidth {
                    if bits > limit as u64 {
                        return Err(SimError::BandwidthExceeded {
                            node: v,
                            port: p,
                            attempted: bits as usize,
                            limit,
                            round,
                        });
                    }
                }
                t.directed_edge_bits[first_slot[v] + p] += bits;
                round_bits += bits;
            }
        }
        t.total_bits += round_bits;
        t.per_round_bits.push(round_bits);

        // 4. Inboxes: rescan every neighbor's whole outbox.
        let (mut round_dropped, mut round_corrupted) = (0u64, 0u64);
        let mut inboxes: Vec<Vec<(u32, A::Msg)>> = Vec::with_capacity(n);
        for v in 0..n {
            let mut inbox = Vec::new();
            heard[v].clear();
            for (p, &u) in g.neighbors(v).iter().enumerate() {
                let u = u as usize;
                let their_port = port_of(u, v).expect("adjacency is symmetric");
                for (idx, out) in outboxes[u].iter().enumerate() {
                    let m = match out {
                        Outgoing::Unicast(q, m) if *q as usize == their_port => m,
                        Outgoing::Broadcast(m) => m,
                        Outgoing::Unicast(..) => continue,
                    };
                    let ctx = DeliveryCtx {
                        round,
                        from: u,
                        to: v,
                        to_port: p,
                        link_slot: first_slot[u] + their_port,
                        msg_index: idx,
                    };
                    let (msg_id, from, to, port, bits) =
                        (first_id[u] + idx as u64, u, v, p, m.bit_size());
                    // A crashed receiver loses the delivery without the
                    // plan being asked.
                    let fate = if crashed[v] {
                        Delivery::Drop
                    } else {
                        faults.delivery(&ctx)
                    };
                    let (event, payload) = match fate {
                        Delivery::Deliver => (
                            SimEvent::Deliver {
                                round,
                                from,
                                to,
                                port,
                                bits,
                                msg_id,
                            },
                            Some(m.clone()),
                        ),
                        Delivery::Drop => (
                            SimEvent::Drop {
                                round,
                                from,
                                to,
                                port,
                                bits,
                                msg_id,
                            },
                            None,
                        ),
                        Delivery::Corrupt(bit) => {
                            let mut damaged = m.clone();
                            // A payload with no wire bits to flip arrives
                            // intact.
                            let event = if damaged.corrupt_bit(bit) {
                                SimEvent::Corrupt {
                                    round,
                                    from,
                                    to,
                                    port,
                                    bits,
                                    msg_id,
                                }
                            } else {
                                SimEvent::Deliver {
                                    round,
                                    from,
                                    to,
                                    port,
                                    bits,
                                    msg_id,
                                }
                            };
                            (event, Some(damaged))
                        }
                    };
                    match event {
                        SimEvent::Deliver { .. } => t.delivered += 1,
                        SimEvent::Drop { .. } => round_dropped += 1,
                        _ => round_corrupted += 1,
                    }
                    events.push(event);
                    // Corrupted payloads reach the node too, so they enter
                    // its causal deps.
                    if let Some(payload) = payload {
                        heard[v].push(msg_id);
                        inbox.push((p as u32, payload));
                    }
                }
            }
            inboxes.push(inbox);
        }
        t.dropped += round_dropped;
        t.corrupted += round_corrupted;
        t.dropped_per_round.push(round_dropped);
        t.corrupted_per_round.push(round_corrupted);

        // 5. Step the live nodes; halted and crashed nodes send nothing.
        for v in 0..n {
            outboxes[v].clear();
            if !crashed[v] && !nodes[v].halted() {
                ctxs[v].round = round;
                let inbox: Vec<(u32, &A::Msg)> = inboxes[v].iter().map(|(p, m)| (*p, m)).collect();
                outboxes[v] = nodes[v].on_round(&ctxs[v], &inbox, &mut rngs[v]);
            }
        }
        events.push(SimEvent::RoundEnd {
            round,
            bits: round_bits,
            messages: round_msgs,
            dropped: round_dropped,
            corrupted: round_corrupted,
        });
        completed = (0..n).all(|v| crashed[v] || nodes[v].halted());
    }
    Ok(t)
}
