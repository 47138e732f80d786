//! Property-based tests of the simulators' accounting invariants.

use congest::{
    bits_for_domain, json, Bandwidth, BitSize, BitString, Collector, CrashStop, Decision, EventLog,
    FaultSpec, FlightConfig, FlightRecorder, Inbox, JsonlTrace, NodeAlgorithm, NodeContext, Outbox,
    Outgoing, SimEvent, Simulation,
};
use graphlib::{generators, Graph};
use proptest::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Broadcasts `payload_bits` of zeros for `rounds` rounds, then halts.
struct Chatter {
    rounds: usize,
    payload_bits: usize,
    done: bool,
}

impl NodeAlgorithm for Chatter {
    type Msg = BitString;

    fn init(&mut self, ctx: &NodeContext, _rng: &mut ChaCha8Rng) -> Outbox<BitString> {
        if ctx.degree() == 0 || self.rounds == 0 {
            self.done = true;
            return Vec::new();
        }
        vec![Outgoing::Broadcast(BitString::from_uint(
            0,
            self.payload_bits,
        ))]
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        _inbox: &Inbox<BitString>,
        _rng: &mut ChaCha8Rng,
    ) -> Outbox<BitString> {
        if ctx.round >= self.rounds {
            self.done = true;
            return Vec::new();
        }
        vec![Outgoing::Broadcast(BitString::from_uint(
            0,
            self.payload_bits,
        ))]
    }

    fn halted(&self) -> bool {
        self.done
    }

    fn decision(&self) -> Decision {
        Decision::Accept
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..16).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..40)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

proptest! {
    #[test]
    fn total_bits_equals_directed_sum(g in arb_graph(), rounds in 1usize..5, bits in 1usize..16) {
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(bits))
            .run(|_| Chatter { rounds, payload_bits: bits, done: false })
            .unwrap();
        let directed: u64 = out.stats.directed_edge_bits.iter().sum();
        prop_assert_eq!(directed, out.stats.total_bits);
        // Every live node broadcast `bits` on each port, `rounds` times.
        prop_assert_eq!(out.stats.total_bits, (2 * g.m() * bits * rounds) as u64);
        prop_assert!(out.stats.max_edge_round_bits <= bits);
    }

    #[test]
    fn engine_is_deterministic(g in arb_graph(), seed in any::<u64>()) {
        let run = || Simulation::on(&g)
            .seed(seed)
            .bandwidth(Bandwidth::Bits(8))
            .run(|_| Chatter { rounds: 2, payload_bits: 8, done: false })
            .unwrap();
        let (a, b) = (run(), run());
        prop_assert_eq!(a.stats.total_bits, b.stats.total_bits);
        prop_assert_eq!(a.stats.rounds, b.stats.rounds);
        prop_assert_eq!(a.decisions.len(), b.decisions.len());
    }

    #[test]
    fn bandwidth_violations_always_caught(bits in 9usize..64) {
        let g = generators::cycle(4);
        let res = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(8))
            .run(|_| Chatter { rounds: 1, payload_bits: bits, done: false });
        prop_assert!(res.is_err());
    }

    #[test]
    fn cut_traffic_never_exceeds_total(g in arb_graph(), mask in any::<u16>()) {
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(8))
            .run(|_| Chatter { rounds: 1, payload_bits: 8, done: false })
            .unwrap();
        let side: Vec<bool> = (0..g.n()).map(|v| mask >> (v % 16) & 1 == 1).collect();
        prop_assert!(out.stats.bits_across_cut(&g, &side) <= out.stats.total_bits);
    }

    #[test]
    fn bitstring_uint_roundtrip(value in any::<u64>(), width in 1usize..64) {
        let masked = value & ((1u64 << width) - 1);
        let b = BitString::from_uint(masked, width);
        prop_assert_eq!(b.len(), width);
        prop_assert_eq!(b.to_uint(), masked);
    }

    #[test]
    fn bits_for_domain_is_minimal(domain in 2usize..1_000_000) {
        let b = bits_for_domain(domain);
        prop_assert!(1usize << b >= domain, "2^{b} must cover {domain}");
        if b > 1 {
            prop_assert!(1usize << (b - 1) < domain, "b is minimal");
        }
    }

    #[test]
    fn prefix_code_of_fixed_width_strings(a in any::<u32>(), b in any::<u32>(), w in 1usize..32) {
        let mask = (1u64 << w) - 1;
        let x = BitString::from_uint(a as u64 & mask, w);
        let y = BitString::from_uint(b as u64 & mask, w);
        // Fixed-width strings form a prefix code: prefix implies equality.
        if x.is_prefix_of(&y) {
            prop_assert_eq!(x, y);
        }
    }

    #[test]
    fn bitstring_single_bit_corruption_is_detectable_and_invertible(
        value in any::<u64>(),
        width in 1usize..64,
        bit in any::<usize>(),
    ) {
        let masked = value & ((1u64 << width) - 1);
        let orig = BitString::from_uint(masked, width);
        let mut c = orig.clone();
        prop_assert!(c.corrupt_bit(bit), "non-empty strings must corrupt");
        // Detectable: the corrupted string differs in exactly one position,
        // so any parity bit over the payload catches it.
        let hamming = orig.bits().iter().zip(c.bits()).filter(|(a, b)| a != b).count();
        prop_assert_eq!(hamming, 1);
        prop_assert_ne!(c.to_uint(), masked);
        // Invertible: flipping the same wire bit restores the original —
        // corruption is an involution, not data loss.
        prop_assert!(c.corrupt_bit(bit));
        prop_assert_eq!(c.to_uint(), masked);
        prop_assert_eq!(c.bit_size(), width);
    }

    #[test]
    fn fault_streams_replay_byte_for_byte_from_seed(
        g in arb_graph(),
        seed in any::<u64>(),
        which in 0usize..5,
        p in 0.0f64..0.9,
        q in 0.05f64..0.9,
    ) {
        let spec = match which {
            0 => FaultSpec::IndependentLoss(p),
            1 => FaultSpec::GilbertElliott(p, q, p / 2.0, q),
            2 => FaultSpec::CrashStop(CrashStop::random(1, 2)),
            3 => FaultSpec::BitFlip(p),
            _ => FaultSpec::Stack(vec![
                FaultSpec::IndependentLoss(p / 2.0),
                FaultSpec::BitFlip(q),
            ]),
        };
        let run = || Simulation::on(&g)
            .seed(seed)
            .bandwidth(Bandwidth::Bits(8))
            .faults(spec.clone())
            .max_rounds(8)
            .run(|_| Chatter { rounds: 3, payload_bits: 8, done: false })
            .unwrap();
        let (a, b) = (run(), run());
        prop_assert_eq!(&a.faults, &b.faults, "fault streams must be a pure function of the seed");
        prop_assert_eq!(a.stats.total_bits, b.stats.total_bits);
        prop_assert_eq!(a.stats.rounds, b.stats.rounds);
        prop_assert_eq!(a.decisions, b.decisions);
        // Conservation: per-round series account for every counted fault.
        prop_assert_eq!(a.faults.dropped_per_round.iter().sum::<u64>(), a.faults.dropped);
        prop_assert_eq!(a.faults.corrupted_per_round.iter().sum::<u64>(), a.faults.corrupted);
    }

    // The flight recorder's streamed per-round aggregates must equal a
    // fold of the full trace on the same seeded run — the recorder never
    // sees per-event state it could disagree about — and its dump must be
    // byte-identical at any engine shard count. Crash-free fault specs on
    // purpose: a crashed receiver's undelivered messages count in the
    // `RoundEnd` drop tally without a per-message `Drop` event, so only
    // crash-free runs make the full trace an exact drop oracle.
    #[test]
    fn flight_aggregates_match_full_trace_fold(
        g in arb_graph(),
        seed in any::<u64>(),
        loss in 0.0f64..0.4,
        flip in 0.0f64..0.4,
    ) {
        let mut dumps = Vec::new();
        for shards in [1usize, 2, 7] {
            let trace = Arc::new(EventLog::new());
            let rec = Arc::new(FlightRecorder::new(FlightConfig {
                ring_rounds: 4,
                ring_events_per_round: 64,
                sample_capacity: 16,
                top_k: 4,
                ..FlightConfig::default()
            }));
            let out = Simulation::on(&g)
                .seed(seed)
                .bandwidth(Bandwidth::Bits(8))
                .faults(FaultSpec::Stack(vec![
                    FaultSpec::IndependentLoss(loss),
                    FaultSpec::BitFlip(flip),
                ]))
                .max_rounds(6)
                .shards(shards)
                .collector_arc(trace.clone())
                .flight_recorder(Arc::clone(&rec))
                .run(|_| Chatter { rounds: 3, payload_bits: 8, done: false })
                .unwrap();
            prop_assert_eq!(trace.dropped_events(), 0, "oracle trace must be complete");
            // Fold the full trace per round; compare against the recorder's
            // streamed aggregates.
            let events = trace.snapshot();
            let count_by_round = |pick: fn(&SimEvent) -> Option<usize>| {
                let mut by_round = std::collections::HashMap::new();
                for round in events.iter().filter_map(pick) {
                    *by_round.entry(round).or_insert(0u64) += 1;
                }
                by_round
            };
            let drops = count_by_round(|ev| match ev {
                SimEvent::Drop { round, .. } => Some(*round),
                _ => None,
            });
            let corrupts = count_by_round(|ev| match ev {
                SimEvent::Corrupt { round, .. } => Some(*round),
                _ => None,
            });
            let aggs = rec.aggregates();
            prop_assert_eq!(aggs.len() as u64, rec.totals().rounds);
            prop_assert_eq!(aggs.len(), out.stats.rounds);
            for agg in &aggs {
                prop_assert_eq!(
                    agg.dropped,
                    drops.get(&agg.round).copied().unwrap_or(0),
                    "round {} drop tally disagrees with the trace fold", agg.round
                );
                prop_assert_eq!(
                    agg.corrupted,
                    corrupts.get(&agg.round).copied().unwrap_or(0),
                    "round {} corruption tally disagrees with the trace fold", agg.round
                );
            }
            prop_assert_eq!(rec.totals().dropped, out.faults.dropped);
            prop_assert_eq!(rec.totals().corrupted, out.faults.corrupted);
            prop_assert_eq!(
                rec.sends_seen() as usize,
                events.iter().filter(|ev| matches!(ev, SimEvent::Send { .. })).count(),
                "every traced send must be offered to the reservoir"
            );
            prop_assert_eq!(
                rec.samples_len() as u64,
                rec.sends_seen().min(16),
                "reservoir law: exactly min(capacity, sends_seen) samples"
            );
            dumps.push(rec.dump());
        }
        prop_assert_eq!(&dumps[1], &dumps[0], "dump at 2 shards differs from 1");
        prop_assert_eq!(&dumps[2], &dumps[0], "dump at 7 shards differs from 1");
    }
}

/// A crashed receiver's lost deliveries are `Drop` events like any other:
/// star(5) whose centre crashes in round 1 loses the five leaves' round-1
/// broadcasts, and the trace carries exactly those five drops, matching
/// `faults.dropped` and the `RoundEnd` tally at every shard count.
#[test]
fn crashed_receiver_losses_are_drop_events() {
    let g = generators::star(5);
    for shards in [1usize, 2, 7] {
        let log = Arc::new(EventLog::new());
        let out = Simulation::on(&g)
            .seed(3)
            .bandwidth(Bandwidth::Bits(8))
            .faults(FaultSpec::CrashStop(CrashStop::at(vec![(0, 1)])))
            .max_rounds(4)
            .shards(shards)
            .collector_arc(log.clone())
            .run(|_| Chatter {
                rounds: 1,
                payload_bits: 8,
                done: false,
            })
            .unwrap();
        let events = log.take();
        let drops: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|ev| match *ev {
                SimEvent::Drop { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(drops, (1..=5).map(|leaf| (leaf, 0)).collect::<Vec<_>>());
        assert_eq!(out.faults.dropped, 5, "shards = {shards}");
        let tallied: u64 = events
            .iter()
            .map(|ev| match *ev {
                SimEvent::RoundEnd { dropped, .. } => dropped,
                _ => 0,
            })
            .sum();
        assert_eq!(tallied, 5, "shards = {shards}");
    }
}

/// Characters that stress the escaper: quotes, backslashes, braces,
/// control characters, and multi-byte and astral-plane scalars.
const NAME_CHARS: [char; 12] = [
    'a',
    'Z',
    '"',
    '\\',
    '/',
    '{',
    '\n',
    '\t',
    '\u{0}',
    '\u{1f}',
    '\u{e9}',
    '\u{1F600}',
];

/// One event of every `SimEvent` kind, built from the drawn values.
fn every_kind(name: &str, [a, b, c, d]: [u64; 4], port: usize, deps: &[u64]) -> Vec<SimEvent> {
    let (ua, ub, uc) = (a as usize, b as usize, c as usize);
    let delivery = |kind: usize| {
        let (round, from, to, bits, msg_id) = (ua, ub, uc, ub ^ uc, d);
        match kind {
            0 => SimEvent::Deliver {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            },
            1 => SimEvent::Drop {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            },
            _ => SimEvent::Corrupt {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            },
        }
    };
    vec![
        SimEvent::Meta {
            n: ua,
            bandwidth_bits: ub,
            seed: d,
        },
        SimEvent::Phase {
            name: name.into(),
            repetition: uc,
        },
        SimEvent::RoundStart { round: ua },
        SimEvent::RoundEnd {
            round: ua,
            bits: b,
            messages: c,
            dropped: d,
            corrupted: a,
        },
        SimEvent::Send {
            round: ua,
            from: ub,
            port,
            bits: uc,
            msg_id: d,
            deps: deps.into(),
        },
        delivery(0),
        delivery(1),
        delivery(2),
        SimEvent::Crash {
            round: ua,
            node: ub,
        },
        SimEvent::NodeCompute {
            round: ua,
            node: ub,
            nanos: d,
        },
        SimEvent::TransportSummary {
            retransmissions: a,
            given_up: b,
            backoff_events: c,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every emitter line parses back: each event kind, with arbitrary phase
    // names, integers past f64 precision, the broadcast port and empty or
    // non-empty deps, renders to a JSON line that decodes to an equal
    // event.
    #[test]
    fn every_event_renders_and_decodes_back(
        name in collection::vec(0usize..NAME_CHARS.len(), 0..12),
        ints in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        port in (any::<bool>(), any::<usize>()),
        deps in collection::vec(any::<u64>(), 0..5),
    ) {
        let name: String = name.into_iter().map(|i| NAME_CHARS[i]).collect();
        let port = if port.0 { usize::MAX } else { port.1 };
        let (a, b, c, d) = ints;
        for ev in every_kind(&name, [a, b, c, d], port, &deps) {
            let line = JsonlTrace::render(&ev);
            let parsed = json::parse(&line);
            prop_assert!(parsed.is_ok(), "{line}: {parsed:?}");
            prop_assert_eq!(JsonlTrace::decode(&parsed.unwrap()), Ok(ev), "{}", line);
        }
    }
}
