//! The sharding and fusion referee: the sharded round engine must be
//! *byte-identical* to the 1-shard reference at every shard count, and the
//! fused single-sweep send pass must be byte-identical to the pre-fusion
//! account → stage → deliver reference.
//!
//! The shard count only changes how the send passes are parallelized, and
//! the fusion flag only changes how many sweeps they take; every
//! observable of a run — per-node inboxes (content *and* order), the full
//! structured event stream, fault tallies and their per-round series, and
//! the traffic stats — must not move. check.sh runs this suite under
//! `RAYON_NUM_THREADS=1` and `=4`, so the matrix covers shard counts ×
//! thread counts × {fused, pre-fusion}.

use congest::{
    Bandwidth, BitString, CrashStop, Decision, EventLog, FaultSpec, Inbox, NodeAlgorithm,
    NodeContext, Outbox, Outgoing, SimEvent, Simulation,
};
use graphlib::{generators, Graph};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};

/// One node's observed inboxes: per round, the `(index, port, payload)`
/// triples in arrival order.
type NodeLog = Arc<Mutex<Vec<Vec<(usize, u32, u64)>>>>;

/// Sends RNG-driven unicasts and broadcasts for `rounds` rounds while
/// logging every inbox it sees. Node RNG streams depend only on
/// `(seed, node)`, so the traffic pattern itself is shard-independent;
/// what this pins is the engine's routing, fault adjudication, and
/// inbox-merge order.
struct Gossip {
    rounds: usize,
    done: bool,
    log: NodeLog,
}

impl Gossip {
    fn chatter(&self, ctx: &NodeContext, rng: &mut ChaCha8Rng) -> Outbox<BitString> {
        let deg = ctx.degree();
        if deg == 0 {
            return Vec::new();
        }
        (0..rng.gen_range(0..=3usize))
            .map(|_| {
                let m = BitString::from_uint(rng.gen::<u64>() & 0xFFFF, 16);
                if rng.gen_bool(0.4) {
                    Outgoing::Broadcast(m)
                } else {
                    Outgoing::Unicast(rng.gen_range(0..deg) as u32, m)
                }
            })
            .collect()
    }
}

impl NodeAlgorithm for Gossip {
    type Msg = BitString;

    fn init(&mut self, ctx: &NodeContext, rng: &mut ChaCha8Rng) -> Outbox<BitString> {
        self.chatter(ctx, rng)
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &Inbox<BitString>,
        rng: &mut ChaCha8Rng,
    ) -> Outbox<BitString> {
        self.log.lock().unwrap().push(
            inbox
                .iter()
                .map(|(p, m)| (ctx.index, *p, m.to_uint()))
                .collect(),
        );
        if ctx.round >= self.rounds {
            self.done = true;
            return Vec::new();
        }
        self.chatter(ctx, rng)
    }

    fn halted(&self) -> bool {
        self.done
    }

    fn decision(&self) -> Decision {
        Decision::Accept
    }
}

/// Everything observable about one run, for exact comparison.
#[derive(PartialEq, Debug)]
struct Observed {
    inboxes: Vec<Vec<Vec<(usize, u32, u64)>>>,
    events: Vec<SimEvent>,
    total_bits: u64,
    per_round_bits: Vec<u64>,
    directed_edge_bits: Vec<u64>,
    delivered: u64,
    dropped: u64,
    corrupted: u64,
    dropped_per_round: Vec<u64>,
    corrupted_per_round: Vec<u64>,
    crashed: Vec<(usize, usize)>,
}

fn observe(
    g: &Graph,
    seed: u64,
    rounds: usize,
    faults: &FaultSpec,
    shards: usize,
    fused: bool,
) -> Observed {
    let logs: Vec<NodeLog> = (0..g.n())
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let events = Arc::new(EventLog::new());
    let out = Simulation::on(g)
        .bandwidth(Bandwidth::Bits(256))
        .seed(seed)
        .shards(shards)
        .fused(fused)
        .faults(faults.clone())
        .collector_arc(events.clone())
        .max_rounds(rounds + 2)
        .run(|v| Gossip {
            rounds,
            done: false,
            log: Arc::clone(&logs[v]),
        })
        .unwrap();
    Observed {
        inboxes: logs.iter().map(|l| l.lock().unwrap().clone()).collect(),
        events: events.take(),
        total_bits: out.stats.total_bits,
        per_round_bits: out.stats.per_round_bits.clone(),
        directed_edge_bits: out.stats.directed_edge_bits.clone(),
        delivered: out.faults.delivered,
        dropped: out.faults.dropped,
        corrupted: out.faults.corrupted,
        dropped_per_round: out.faults.dropped_per_round.clone(),
        corrupted_per_round: out.faults.corrupted_per_round.clone(),
        crashed: out.faults.crashed.clone(),
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..14).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..40)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The full referee: loss + corruption + a crash, inboxes, the raw
    // event stream, and every tally pinned across shard counts {1, 2, 7}.
    #[test]
    fn sharded_run_is_byte_identical_to_one_shard(
        g in arb_graph(),
        seed in any::<u64>(),
        rounds in 1usize..4,
        loss in 0.0f64..0.5,
        flip in 0.0f64..0.3,
    ) {
        let faults = FaultSpec::Stack(vec![
            FaultSpec::IndependentLoss(loss),
            FaultSpec::BitFlip(flip),
            FaultSpec::CrashStop(CrashStop::at(vec![(g.n() / 2, 2)])),
        ]);
        let reference = observe(&g, seed, rounds, &faults, 1, true);
        for shards in [2usize, 7] {
            let run = observe(&g, seed, rounds, &faults, shards, true);
            prop_assert_eq!(&run, &reference, "shards = {}", shards);
        }
    }

    // The fusion referee: the fused single-sweep send pass against the
    // pre-fusion three-pass reference, across shard counts, under the same
    // loss + corruption + crash stack. Any divergence in accounting order,
    // fault adjudication, or delivery interleaving shows up here.
    #[test]
    fn fused_run_is_byte_identical_to_prefusion_reference(
        g in arb_graph(),
        seed in any::<u64>(),
        rounds in 1usize..4,
        loss in 0.0f64..0.5,
        flip in 0.0f64..0.3,
    ) {
        let faults = FaultSpec::Stack(vec![
            FaultSpec::IndependentLoss(loss),
            FaultSpec::BitFlip(flip),
            FaultSpec::CrashStop(CrashStop::at(vec![(g.n() / 2, 2)])),
        ]);
        let reference = observe(&g, seed, rounds, &faults, 1, false);
        for shards in [1usize, 2, 7] {
            let run = observe(&g, seed, rounds, &faults, shards, true);
            prop_assert_eq!(&run, &reference, "fused, shards = {}", shards);
        }
    }
}

/// Deterministic spot-check at scale-ish sizes (larger than the proptest
/// graphs, more shards than nodes in one shard band), fault-free and
/// fault-heavy.
#[test]
fn shard_matrix_spot_check() {
    for (n, d) in [(64usize, 6usize), (257, 4)] {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::bounded_degree(n, d, &mut rng);
        for faults in [FaultSpec::None, FaultSpec::IndependentLoss(0.3)] {
            // The pre-fusion single-shard run anchors both referees: the
            // fused engine must match it at every shard count.
            let reference = observe(&g, 5, 3, &faults, 1, false);
            for shards in [1usize, 2, 7, 64, 1000] {
                let run = observe(&g, 5, 3, &faults, shards, true);
                assert_eq!(run, reference, "n = {n}, shards = {shards}");
            }
        }
    }
}
