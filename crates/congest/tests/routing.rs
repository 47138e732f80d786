//! Referee tests for the CSR routing arena in the CONGEST engine.
//!
//! * A property test drives scripted nodes through random unicast/broadcast
//!   mixes and checks that the engine's per-receiver delivery produces
//!   exactly the inboxes the naive engine in `naive/mod.rs` computes by
//!   rescanning every neighbor's whole outbox — the same `(port, payload)`
//!   pairs in the same order (port ascending, sender outbox order within a
//!   port).
//! * A corrupt-broadcast test pins the zero-copy contract: when one
//!   delivery of a broadcast is corrupted, that receiver gets its own
//!   copy while every other receiver reads the one pristine message.

mod naive;

use std::sync::{Arc, Mutex};

use congest::{
    Bandwidth, BitString, Decision, FaultSpec, Inbox, NodeAlgorithm, NodeContext, Outbox, Outgoing,
    Simulation,
};
use graphlib::{generators, Graph};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One node's received traffic: per round, the inbox as `(port, value)`.
type Log = Vec<Vec<(u32, u64)>>;

/// Replays a pre-built per-round send plan and records every inbox.
struct ScriptedNode {
    plan: Vec<Outbox<BitString>>,
    log: Arc<Mutex<Log>>,
    done: bool,
}

impl NodeAlgorithm for ScriptedNode {
    type Msg = BitString;

    fn init(&mut self, _ctx: &NodeContext, _rng: &mut ChaCha8Rng) -> Outbox<BitString> {
        self.plan.first().cloned().unwrap_or_default()
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &Inbox<BitString>,
        _rng: &mut ChaCha8Rng,
    ) -> Outbox<BitString> {
        self.log
            .lock()
            .unwrap()
            .push(inbox.iter().map(|(p, m)| (*p, m.to_uint())).collect());
        if ctx.round < self.plan.len() {
            self.plan[ctx.round].clone()
        } else {
            self.done = true;
            Vec::new()
        }
    }

    fn halted(&self) -> bool {
        self.done
    }

    fn decision(&self) -> Decision {
        Decision::Accept
    }
}

/// Encodes `(sender, round, index)` into a payload value so every staged
/// message is distinguishable.
fn payload(u: usize, r: usize, idx: usize) -> BitString {
    BitString::from_uint(((u as u64) << 16) | ((r as u64) << 8) | idx as u64, 32)
}

/// Random per-node, per-round send plans: each round stages 0..=4 messages,
/// each independently a unicast to a random port or a broadcast.
fn random_plans(g: &Graph, rounds: usize, seed: u64) -> Vec<Vec<Outbox<BitString>>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..g.n())
        .map(|u| {
            let deg = g.degree(u);
            (0..rounds)
                .map(|r| {
                    if deg == 0 {
                        return Vec::new();
                    }
                    let k = rng.gen_range(0..=4usize);
                    (0..k)
                        .map(|idx| {
                            let m = payload(u, r, idx);
                            if rng.gen_bool(0.4) {
                                Outgoing::Broadcast(m)
                            } else {
                                Outgoing::Unicast(rng.gen_range(0..deg) as u32, m)
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..12).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..30)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

fn check_routing_matches_reference(g: &Graph, rounds: usize, seed: u64) {
    let plans = random_plans(g, rounds, seed);
    let new_logs = || -> Vec<Arc<Mutex<Log>>> {
        (0..g.n())
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect()
    };
    let scripted = |logs: &[Arc<Mutex<Log>>], v: usize| ScriptedNode {
        plan: plans[v].clone(),
        log: Arc::clone(&logs[v]),
        done: false,
    };
    let logs = new_logs();
    Simulation::on(g)
        .bandwidth(Bandwidth::Unbounded)
        .max_rounds(rounds + 2)
        .run(|v| scripted(&logs, v))
        .unwrap();
    let expected = new_logs();
    let cfg = naive::Config {
        bandwidth: Bandwidth::Unbounded,
        seed: 0,
        max_rounds: rounds + 2,
        faults: FaultSpec::None,
        broadcast_only: false,
    };
    naive::run(g, &cfg, |v| scripted(&expected, v))
        .result
        .unwrap();
    for v in 0..g.n() {
        let got = logs[v].lock().unwrap().clone();
        let want = expected[v].lock().unwrap().clone();
        assert_eq!(got, want, "node {v} inbox mismatch (seed {seed})");
    }
}

proptest! {
    #[test]
    fn routed_inboxes_match_naive_reference(
        g in arb_graph(),
        rounds in 1usize..4,
        seed in any::<u64>(),
    ) {
        check_routing_matches_reference(&g, rounds, seed);
    }
}

#[test]
fn routing_matches_reference_on_fixed_topologies() {
    for (i, g) in [
        generators::cycle(8),
        generators::star(9),
        generators::clique(7),
        generators::path(6),
    ]
    .iter()
    .enumerate()
    {
        check_routing_matches_reference(g, 3, 1000 + i as u64);
    }
}

/// Broadcasts a fixed pattern once, from the star's center.
struct CorruptProbeCenter {
    pattern: BitString,
    done: bool,
}

/// What a leaf read during its round: the value, and the address the
/// inbox lent it at.
type Seen = Option<(BitString, usize)>;

/// A leaf that records what it was lent during its round.
struct CorruptProbeLeaf {
    got: Arc<Mutex<Seen>>,
    done: bool,
}

enum Probe {
    Center(CorruptProbeCenter),
    Leaf(CorruptProbeLeaf),
}

impl NodeAlgorithm for Probe {
    type Msg = BitString;

    fn init(&mut self, _ctx: &NodeContext, _rng: &mut ChaCha8Rng) -> Outbox<BitString> {
        match self {
            Probe::Center(c) => vec![Outgoing::Broadcast(c.pattern.clone())],
            Probe::Leaf(_) => Vec::new(),
        }
    }

    fn on_round(
        &mut self,
        _ctx: &NodeContext,
        inbox: &Inbox<BitString>,
        _rng: &mut ChaCha8Rng,
    ) -> Outbox<BitString> {
        match self {
            Probe::Center(c) => c.done = true,
            Probe::Leaf(l) => {
                if let Some(&(_, msg)) = inbox.first() {
                    let addr = msg as *const BitString as usize;
                    *l.got.lock().unwrap() = Some((msg.clone(), addr));
                }
                l.done = true;
            }
        }
        Vec::new()
    }

    fn halted(&self) -> bool {
        match self {
            Probe::Center(c) => c.done,
            Probe::Leaf(l) => l.done,
        }
    }

    fn decision(&self) -> Decision {
        Decision::Accept
    }
}

#[test]
fn corrupted_broadcast_is_deep_copied_exactly_once() {
    let leaves = 12;
    let g = generators::star(leaves); // n = leaves + 1; vertex 0 is the center
    let pattern = BitString::from_uint(0b1010_1100_0011_0101, 16);

    // Scan seeds for a run where the fault model corrupts exactly one of
    // the broadcast's deliveries (deterministic given the seed).
    let mut found = false;
    for seed in 0..200u64 {
        let cells: Vec<Arc<Mutex<Seen>>> =
            (0..=leaves).map(|_| Arc::new(Mutex::new(None))).collect();
        let cells_ref = &cells;
        let pattern_ref = &pattern;
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Unbounded)
            .faults(FaultSpec::BitFlip(0.15))
            .seed(seed)
            .max_rounds(3)
            .run(|v| {
                if v == 0 {
                    Probe::Center(CorruptProbeCenter {
                        pattern: pattern_ref.clone(),
                        done: false,
                    })
                } else {
                    Probe::Leaf(CorruptProbeLeaf {
                        got: Arc::clone(&cells_ref[v]),
                        done: false,
                    })
                }
            })
            .unwrap();
        if out.faults.corrupted != 1 {
            continue;
        }
        found = true;

        let seen: Vec<(BitString, usize)> = (1..=leaves)
            .map(|v| cells[v].lock().unwrap().clone().expect("leaf got nothing"))
            .collect();
        let (pristine, damaged): (Vec<_>, Vec<_>) =
            seen.iter().partition(|(value, _)| *value == pattern);

        // Exactly one receiver got a copy of its own; everyone else read
        // the one pristine broadcast at one address.
        assert_eq!(damaged.len(), 1, "seed {seed}");
        assert_eq!(pristine.len(), leaves - 1);
        let shared_addr = pristine[0].1;
        assert!(
            pristine.iter().all(|&&(_, addr)| addr == shared_addr),
            "pristine receivers must read one stored message"
        );
        assert_ne!(damaged[0].1, shared_addr, "the damaged copy is separate");
        // The corrupted copy differs from the pattern in exactly one bit.
        let hamming = pattern
            .bits()
            .iter()
            .zip(damaged[0].0.bits())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(hamming, 1, "bit-flip corruption flips exactly one bit");
        break;
    }
    assert!(found, "no seed in 0..200 corrupted exactly one delivery");
}
