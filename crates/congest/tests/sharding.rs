//! The engine referee: the sharded round engine must be *byte-identical*
//! to the naive CONGEST round in `naive/mod.rs` at every shard count.
//!
//! The naive engine is one sequential loop per round over the public API
//! only, so it shares no code with the sharded engine: no arenas, no
//! staging, no mailboxes, no fused send sweep. Every observable of a run —
//! per-node inboxes (content *and* order), the full structured event
//! stream, fault tallies and their per-round series, the traffic stats,
//! and on a failing run the first error and the events before it — must
//! match. The fault-free specs are in the matrix too: the engine never
//! asks an empty fault plan about a delivery, while the naive engine asks
//! it about every one. check.sh runs this suite under
//! `RAYON_NUM_THREADS=1` and `=4`, so the matrix covers shard counts ×
//! thread counts.

mod naive;

use congest::{
    Bandwidth, BitString, CrashStop, Decision, EventLog, FaultSpec, Inbox, NodeAlgorithm,
    NodeContext, Outbox, Outcome, Outgoing, SimError, SimEvent, Simulation,
};
use graphlib::{generators, Graph};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};

/// One node's observed inboxes: per round, the `(index, port, payload)`
/// triples in arrival order.
type NodeLog = Arc<Mutex<Vec<Vec<(usize, u32, u64)>>>>;

/// The per-edge bound of every run here: 16 default-width messages.
const BANDWIDTH: usize = 256;

/// A deliberate send error, made by one node in one round.
#[derive(Clone, Copy, Debug)]
enum Rogue {
    /// A unicast to port `degree`, one past the last port.
    BadPort,
    /// A broadcast wider than the bandwidth bound on its own.
    WideBroadcast,
    /// A unicast wider than the bandwidth bound, to port `pos % degree`.
    WideUnicast,
}

/// Sends RNG-driven unicasts and broadcasts for `rounds` rounds while
/// logging every inbox it sees. Node RNG streams depend only on
/// `(seed, node)`, so the traffic pattern itself is shard-independent;
/// what this pins is the engine's routing, fault adjudication, and
/// inbox-merge order.
struct Gossip {
    rounds: usize,
    done: bool,
    log: NodeLog,
    /// `(round, pos, kind)`: in `round` (0 = `init`), insert a `kind`
    /// entry at `pos` (mod the outbox length + 1) of the outbox.
    rogue: Option<(usize, usize, Rogue)>,
}

impl Gossip {
    fn chatter(&self, ctx: &NodeContext, rng: &mut ChaCha8Rng) -> Outbox<BitString> {
        let deg = ctx.degree();
        let mut out: Outbox<BitString> = if deg == 0 {
            Vec::new()
        } else {
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
        };
        if let Some((round, pos, kind)) = self.rogue {
            if round == ctx.round {
                let wide = BitString::from_bits(&[true; BANDWIDTH + 1]);
                let bad = match kind {
                    Rogue::BadPort => Outgoing::Unicast(deg as u32, BitString::from_uint(1, 16)),
                    Rogue::WideBroadcast => Outgoing::Broadcast(wide),
                    Rogue::WideUnicast => Outgoing::Unicast((pos % deg.max(1)) as u32, wide),
                };
                out.insert(pos % (out.len() + 1), bad);
            }
        }
        out
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

/// A failed run: its first error and the events recorded before it.
type Failed = (SimError, Vec<SimEvent>);

/// One run's setup, played by the sharded engine and the naive referee.
struct Setup<'a> {
    g: &'a Graph,
    seed: u64,
    rounds: usize,
    faults: FaultSpec,
    broadcast_only: bool,
    /// Per node, the send error it makes, if any.
    rogues: Vec<Option<(usize, usize, Rogue)>>,
}

impl<'a> Setup<'a> {
    fn new(g: &'a Graph, seed: u64, rounds: usize, faults: FaultSpec) -> Self {
        Setup {
            g,
            seed,
            rounds,
            faults,
            broadcast_only: false,
            rogues: vec![None; g.n()],
        }
    }

    fn logs(&self) -> Vec<NodeLog> {
        (0..self.g.n())
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect()
    }

    fn node(&self, v: usize, logs: &[NodeLog]) -> Gossip {
        Gossip {
            rounds: self.rounds,
            done: false,
            log: Arc::clone(&logs[v]),
            rogue: self.rogues[v],
        }
    }

    /// The sharded engine at `shards`, recording into `events` when given:
    /// the run's outcome and every node's inbox log.
    fn outcome(
        &self,
        shards: usize,
        events: Option<&Arc<EventLog>>,
    ) -> Result<(Outcome, Vec<NodeLog>), SimError> {
        let logs = self.logs();
        let mut sim = Simulation::on(self.g)
            .bandwidth(Bandwidth::Bits(BANDWIDTH))
            .seed(self.seed)
            .shards(shards)
            .broadcast_only(self.broadcast_only)
            .faults(self.faults.clone())
            .max_rounds(self.rounds + 2);
        if let Some(events) = events {
            sim = sim.collector_arc(events.clone());
        }
        let out = sim.run(|v| self.node(v, &logs))?;
        Ok((out.outcome().clone(), logs))
    }

    /// The sharded engine at `shards`, traced.
    fn engine(&self, shards: usize) -> Result<Observed, Failed> {
        let events = Arc::new(EventLog::new());
        let (out, logs) = self
            .outcome(shards, Some(&events))
            .map_err(|e| (e, events.take()))?;
        Ok(Observed {
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
        })
    }

    /// The naive referee.
    fn naive(&self) -> Result<Observed, Failed> {
        let logs = self.logs();
        let cfg = naive::Config {
            bandwidth: Bandwidth::Bits(BANDWIDTH),
            seed: self.seed,
            max_rounds: self.rounds + 2,
            faults: self.faults.clone(),
            broadcast_only: self.broadcast_only,
        };
        let run = naive::run(self.g, &cfg, |v| self.node(v, &logs));
        let t = match run.result {
            Ok(t) => t,
            Err(e) => return Err((e, run.events)),
        };
        Ok(Observed {
            inboxes: logs.iter().map(|l| l.lock().unwrap().clone()).collect(),
            events: run.events,
            total_bits: t.total_bits,
            per_round_bits: t.per_round_bits,
            directed_edge_bits: t.directed_edge_bits,
            delivered: t.delivered,
            dropped: t.dropped,
            corrupted: t.corrupted,
            dropped_per_round: t.dropped_per_round,
            corrupted_per_round: t.corrupted_per_round,
            crashed: t.crashed,
        })
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..14).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..40)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// The traced and the untraced engine run at `shards` print the same
/// outcome and fill the same inboxes.
fn assert_untraced_matches_traced(setup: &Setup, shards: usize) {
    let dump = |run: Result<(Outcome, Vec<NodeLog>), SimError>| {
        let (out, logs) = run.expect("the run succeeds");
        let inboxes: Vec<_> = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
        format!("{out:?} {inboxes:?}")
    };
    let traced = dump(setup.outcome(shards, Some(&Arc::new(EventLog::new()))));
    assert_eq!(
        dump(setup.outcome(shards, None)),
        traced,
        "shards = {shards}"
    );
}

/// Loss + corruption + one crash in round 2.
fn fault_stack(g: &Graph, loss: f64, flip: f64) -> FaultSpec {
    FaultSpec::Stack(vec![
        FaultSpec::IndependentLoss(loss),
        FaultSpec::BitFlip(flip),
        FaultSpec::CrashStop(CrashStop::at(vec![(g.n() / 2, 2)])),
    ])
}

/// The fault stacks of the ledger matrix; each includes crash-stop.
fn crash_stack(g: &Graph, which: usize, loss: f64, flip: f64) -> FaultSpec {
    match which {
        0 => FaultSpec::CrashStop(CrashStop::random(2, 3)),
        1 => FaultSpec::Stack(vec![
            FaultSpec::CrashStop(CrashStop::at(vec![(0, 1), (g.n() - 1, 2)])),
            FaultSpec::IndependentLoss(loss),
        ]),
        _ => fault_stack(g, loss, flip),
    }
}

/// Checks the delivery ledger of `congest::obsv::collect` on one run:
/// the `(round, msg_id, receiver)` attempts its `Send`s imply (a unicast
/// reaches the neighbor behind its port, a broadcast every neighbor) are
/// exactly the ones its fate events name, each once; every `RoundEnd`
/// tallies its round's `Drop` and `Corrupt` events; the fate totals are
/// the run's fault report; and `obsv::check` finds nothing.
fn assert_exact_ledger(g: &Graph, o: &Observed) {
    let mut implied = Vec::new();
    let mut fated = Vec::new();
    let (mut delivered, mut dropped, mut corrupted) = (0u64, 0u64, 0u64);
    let (mut round_dropped, mut round_corrupted) = (0u64, 0u64);
    for ev in &o.events {
        match ev {
            SimEvent::Send {
                round,
                from,
                port,
                msg_id,
                ..
            } => {
                let nbrs = g.neighbors(*from);
                let to: &[u32] = if *port == usize::MAX {
                    nbrs
                } else {
                    std::slice::from_ref(&nbrs[*port])
                };
                implied.extend(to.iter().map(|&v| (*round, *msg_id, v as usize)));
            }
            SimEvent::Deliver {
                round, msg_id, to, ..
            } => {
                delivered += 1;
                fated.push((*round, *msg_id, *to));
            }
            SimEvent::Drop {
                round, msg_id, to, ..
            } => {
                round_dropped += 1;
                fated.push((*round, *msg_id, *to));
            }
            SimEvent::Corrupt {
                round, msg_id, to, ..
            } => {
                round_corrupted += 1;
                fated.push((*round, *msg_id, *to));
            }
            SimEvent::RoundEnd {
                round,
                dropped: d,
                corrupted: c,
                ..
            } => {
                assert_eq!(
                    (*d, *c),
                    (round_dropped, round_corrupted),
                    "round {}",
                    round
                );
                dropped += round_dropped;
                corrupted += round_corrupted;
                (round_dropped, round_corrupted) = (0, 0);
            }
            _ => {}
        }
    }
    implied.sort_unstable();
    fated.sort_unstable();
    assert_eq!(implied, fated, "one fate per delivery attempt");
    assert_eq!(
        (delivered, dropped, corrupted),
        (o.delivered, o.dropped, o.corrupted)
    );
    let violations = congest::obsv::check(&o.events);
    assert!(violations.is_empty(), "{:?}", violations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The full referee: loss + corruption + a crash, and the fault-free
    // `None` and `Stack([None, None])`; inboxes, the raw event stream, and
    // every tally pinned at shard counts {1, 2, 7}, where an untraced run
    // must also match the traced one.
    #[test]
    fn sharded_run_is_byte_identical_to_naive_engine(
        g in arb_graph(),
        seed in any::<u64>(),
        rounds in 1usize..4,
        loss in 0.0f64..0.5,
        flip in 0.0f64..0.3,
    ) {
        for faults in [
            fault_stack(&g, loss, flip),
            FaultSpec::None,
            FaultSpec::Stack(vec![FaultSpec::None, FaultSpec::None]),
        ] {
            let setup = Setup::new(&g, seed, rounds, faults);
            let reference = setup.naive();
            prop_assert!(reference.is_ok(), "{:?}", reference.as_ref().err());
            for shards in [1usize, 2, 7] {
                prop_assert_eq!(
                    &setup.engine(shards),
                    &reference,
                    "{:?}, shards = {}",
                    setup.faults,
                    shards
                );
                assert_untraced_matches_traced(&setup, shards);
            }
        }
    }

    // Send-error identity: a few nodes send to port `degree` or over the
    // bound (and sometimes every unicast is forbidden), and the engine
    // must fail with the naive engine's first error — node, then outbox
    // entry, then port — after recording the same events.
    #[test]
    fn send_errors_match_naive_engine(
        g in arb_graph(),
        seed in any::<u64>(),
        rounds in 1usize..4,
        rogues in proptest::collection::vec((0usize..14, 0usize..3, 0usize..5, 0usize..3), 1..4),
        forbid in 0usize..4,
    ) {
        let mut setup = Setup::new(&g, seed, rounds, fault_stack(&g, 0.2, 0.1));
        setup.broadcast_only = forbid == 0;
        for (v, round, pos, kind) in rogues {
            let kind = [Rogue::BadPort, Rogue::WideBroadcast, Rogue::WideUnicast][kind];
            setup.rogues[v % g.n()] = Some((round, pos, kind));
        }
        let reference = setup.naive();
        for shards in [1usize, 2, 7] {
            prop_assert_eq!(&setup.engine(shards), &reference, "shards = {}", shards);
        }
    }

    // The event stream is an exact ledger, on the naive referee and on the
    // engine at shard counts {1, 2, 7}, under fault stacks with crash-stop
    // (whose lost deliveries to a crashed receiver are `Drop`s too).
    #[test]
    fn event_stream_is_an_exact_ledger(
        g in arb_graph(),
        seed in any::<u64>(),
        rounds in 1usize..5,
        which in 0usize..3,
        loss in 0.0f64..0.5,
        flip in 0.0f64..0.3,
    ) {
        let setup = Setup::new(&g, seed, rounds, crash_stack(&g, which, loss, flip));
        let reference = setup.naive();
        prop_assert!(reference.is_ok(), "{:?}", reference.as_ref().err());
        assert_exact_ledger(&g, reference.as_ref().unwrap());
        for shards in [1usize, 2, 7] {
            let run = setup.engine(shards);
            prop_assert!(run.is_ok(), "shards = {}: {:?}", shards, run.as_ref().err());
            assert_exact_ledger(&g, run.as_ref().unwrap());
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
            let setup = Setup::new(&g, 5, 3, faults);
            let reference = setup.naive();
            assert!(reference.is_ok(), "n = {n}");
            for shards in [1usize, 2, 7, 64, 1000] {
                assert_eq!(
                    setup.engine(shards),
                    reference,
                    "n = {n}, shards = {shards}"
                );
            }
        }
    }
}
