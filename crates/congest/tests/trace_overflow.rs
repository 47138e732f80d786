//! Bounded-collector overflow is surfaced, not silent: a [`JsonlTrace`]
//! past capacity reports its dropped-event count through the run's
//! [`MetricsSnapshot`] as `trace.dropped_events` — and with it through
//! every run report embedding one. Untruncated runs omit the key, so the
//! metric's presence *is* the overflow signal.
//!
//! [`JsonlTrace`]: congest::JsonlTrace
//! [`MetricsSnapshot`]: congest::MetricsSnapshot

use congest::{
    Bandwidth, BitString, Decision, Inbox, JsonlTrace, NodeAlgorithm, NodeContext, Outbox,
    Outgoing, Simulation,
};
use graphlib::generators;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Broadcasts 8 bits per round for `rounds` rounds, then halts.
struct Chatter {
    rounds: usize,
}

impl NodeAlgorithm for Chatter {
    type Msg = BitString;

    fn init(&mut self, _ctx: &NodeContext, _rng: &mut ChaCha8Rng) -> Outbox<BitString> {
        vec![Outgoing::Broadcast(BitString::from_uint(0, 8))]
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        _inbox: &Inbox<BitString>,
        _rng: &mut ChaCha8Rng,
    ) -> Outbox<BitString> {
        if ctx.round >= self.rounds {
            return Vec::new();
        }
        vec![Outgoing::Broadcast(BitString::from_uint(0, 8))]
    }

    fn halted(&self) -> bool {
        false
    }

    fn decision(&self) -> Decision {
        Decision::Accept
    }
}

fn run_with_capacity(capacity: usize) -> (congest::Outcome, Arc<JsonlTrace>) {
    let g = generators::cycle(8);
    let trace = Arc::new(JsonlTrace::new(capacity));
    let out = Simulation::on(&g)
        .bandwidth(Bandwidth::Bits(8))
        .max_rounds(4)
        .collector_arc(trace.clone())
        .run(|_| Chatter { rounds: 3 })
        .expect("run failed");
    (out.into_outcome(), trace)
}

#[test]
fn overflowing_trace_surfaces_dropped_events_in_the_metrics() {
    // 8 nodes broadcasting on a cycle: 8 sends and 16 deliveries per
    // round, 4 rounds — a 10-line trace overflows in round 1.
    let (out, trace) = run_with_capacity(10);
    assert!(trace.dropped() > 0, "buffer must have overflowed");
    assert_eq!(
        out.metrics.counter("trace.dropped_events"),
        Some(trace.dropped()),
        "the snapshot reports exactly the collector's truncation count"
    );
    // The run report embeds the snapshot, so the overflow reaches the
    // serialized document too.
    let report = congest::RunReport::from_stats(
        "overflow",
        &out.stats,
        &out.faults,
        true,
        out.metrics.clone(),
    );
    assert!(
        report.to_json().contains(r#""trace.dropped_events""#),
        "run report must carry the truncation counter"
    );
}

#[test]
fn untruncated_trace_omits_the_overflow_metric() {
    let (out, trace) = run_with_capacity(1 << 12);
    assert_eq!(trace.dropped(), 0);
    assert_eq!(
        out.metrics.counter("trace.dropped_events"),
        None,
        "untruncated runs keep their exact metric set"
    );
}
