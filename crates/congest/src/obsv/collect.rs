//! The structured tracing layer: events, the [`Collector`] trait, and the
//! stock collectors ([`Fanout`], [`JsonlTrace`], [`EventLog`]).
//!
//! Engines call [`Collector::record`] from *sequential* sections only, in
//! node order, so the event stream a collector sees is identical at any
//! thread count. Implementations still must be `Send + Sync` because a
//! collector handle may be shared with user threads.
//!
//! # Causal provenance
//!
//! Every message put on the wire carries a run-unique `msg_id`, assigned
//! in node order at accounting time, and every [`SimEvent::Send`] carries
//! `deps` — the ids of the messages the sending node *received* in the
//! previous round (its inbox when it computed this outbox). Together with
//! the explicit [`SimEvent::Deliver`] records this makes the event stream
//! a happens-before DAG over messages: `m1 → m2` iff `m1 ∈ deps(m2)`,
//! i.e. `m1` was delivered to `m2`'s sender one round before `m2` was
//! sent. Dropped deliveries never enter a `deps` set; corrupted ones do
//! (the corrupted payload still reached the algorithm). The DAG is what
//! [`crate::obsv::analyze`] walks to compute weighted critical paths.
//!
//! # The delivery ledger
//!
//! The stream is a complete ledger of the wire. Every delivery attempt is
//! one `(msg_id, receiver)` pair — a unicast has one receiver, a broadcast
//! (one id) has one per neighbor of its sender — and each attempt gets
//! exactly one fate event in the round of its send: [`SimEvent::Deliver`],
//! [`SimEvent::Drop`] (the fault model's loss, or a crashed receiver) or
//! [`SimEvent::Corrupt`]. A round's [`SimEvent::RoundEnd`] tallies
//! `dropped` and `corrupted` equal its `Drop` and `Corrupt` event counts.
//! [`crate::obsv::analyze::check`] rejects a trace that breaks either rule.

use crate::json::{self, Value};
use parking_lot::Mutex;
use std::sync::Arc;

/// One structured event from a simulator backend.
///
/// `port` carries the CONGEST port index (`usize::MAX` for a broadcast);
/// the congested-clique engine has no ports, so there it carries the
/// destination node index instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// Run header: emitted once per engine run, before any round, so a
    /// trace is self-describing (the invariant checker reads the bandwidth
    /// bound from here).
    Meta {
        /// Number of nodes in the topology.
        n: usize,
        /// Per-edge-per-round bandwidth bound in bits (`0` = unbounded).
        bandwidth_bits: usize,
        /// Seed the run was keyed with.
        seed: u64,
    },
    /// A phase marker from a multi-run driver (e.g. the even-cycle
    /// detector): all events until the next marker belong to this phase.
    Phase {
        /// Phase label, e.g. `"phase1"`.
        name: Arc<str>,
        /// Repetition index within the driver's amplification loop.
        repetition: usize,
    },
    /// A communication round is about to execute.
    RoundStart {
        /// Round number (1-based).
        round: usize,
    },
    /// A communication round finished, with its traffic totals.
    RoundEnd {
        /// Round number (1-based).
        round: usize,
        /// Bits charged this round.
        bits: u64,
        /// Messages sent this round.
        messages: u64,
        /// Deliveries dropped by the fault layer this round.
        dropped: u64,
        /// Deliveries corrupted by the fault layer this round.
        corrupted: u64,
    },
    /// A message was put on the wire.
    Send {
        /// Round of the send.
        round: usize,
        /// Sending node.
        from: usize,
        /// Port (or clique destination); `usize::MAX` for a broadcast.
        port: usize,
        /// Message size in bits.
        bits: usize,
        /// Run-unique message id, assigned in node order at accounting
        /// time (a broadcast has one id even though it costs every port).
        msg_id: u64,
        /// Ids of the messages delivered to the sender in the previous
        /// round — the causal inputs this send may depend on. Empty for
        /// round-1 sends (produced by `init`, before any delivery). All
        /// sends of one node in one round share one `Arc`.
        deps: Arc<[u64]>,
    },
    /// A message reached its receiver's inbox intact.
    Deliver {
        /// Round of the delivery.
        round: usize,
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Receiving port on the *receiver* (clique: the sender index).
        port: usize,
        /// Message size in bits.
        bits: usize,
        /// Id assigned to this message at send accounting.
        msg_id: u64,
    },
    /// A delivery was dropped by the fault model, or lost because its
    /// receiver has crashed.
    Drop {
        /// Round of the (failed) delivery.
        round: usize,
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Receiving port on the *receiver*.
        port: usize,
        /// Message size in bits.
        bits: usize,
        /// Id assigned to this message at send accounting.
        msg_id: u64,
    },
    /// A delivery was corrupted in flight (it still reaches the inbox, so
    /// it still enters the receiver's causal `deps`).
    Corrupt {
        /// Round of the delivery.
        round: usize,
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Receiving port on the *receiver*.
        port: usize,
        /// Message size in bits.
        bits: usize,
        /// Id assigned to this message at send accounting.
        msg_id: u64,
    },
    /// A node crashed (crash-stop).
    Crash {
        /// Round of the crash.
        round: usize,
        /// The crashed node.
        node: usize,
    },
    /// End-of-run tallies from the reliable transport.
    TransportSummary {
        /// Data frames retransmitted across all nodes.
        retransmissions: u64,
        /// Frames never acknowledged within their retry budget.
        given_up: u64,
        /// Retransmissions that had entered exponential backoff
        /// (attempt three or later) before succeeding or giving up.
        backoff_events: u64,
    },
}

/// A sink for structured simulator events.
///
/// The engines hold an `Option<Arc<dyn Collector>>`; with no collector
/// installed the instrumentation is skipped entirely (no event values are
/// built, no message ids are assigned), so tracing is zero-cost when
/// disabled.
pub trait Collector: Send + Sync {
    /// Receives one event. Called from sequential engine code, in
    /// deterministic order.
    fn record(&self, ev: &SimEvent);

    /// Whether this collector needs causal provenance — the `deps` sets on
    /// [`SimEvent::Send`]. Building them costs per-delivery id bookkeeping
    /// plus one `Arc<[u64]>` allocation per sender per round, so engines
    /// skip the work when no installed collector asks: sends then carry an
    /// empty `deps` (message ids are still assigned). Defaults to `true` —
    /// the full-trace collectors feed [`crate::obsv::analyze`], whose
    /// critical-path walk is provenance-driven. Bounded streaming
    /// collectors ([`crate::obsv::flight::FlightRecorder`]) opt out.
    fn wants_provenance(&self) -> bool {
        true
    }

    /// Events this collector discarded to honor a capacity bound. The
    /// simulation folds a non-zero total into the run metrics as
    /// `trace.dropped_events`, so truncation is reported instead of
    /// silent. Defaults to 0 (unbounded or non-buffering collectors).
    fn dropped_events(&self) -> u64 {
        0
    }
}

/// Broadcasts every event to several collectors.
pub struct Fanout(
    /// The collectors to fan out to, in record order.
    pub Vec<Arc<dyn Collector>>,
);

impl Collector for Fanout {
    fn record(&self, ev: &SimEvent) {
        for c in &self.0 {
            c.record(ev);
        }
    }

    fn wants_provenance(&self) -> bool {
        self.0.iter().any(|c| c.wants_provenance())
    }

    fn dropped_events(&self) -> u64 {
        self.0.iter().map(|c| c.dropped_events()).sum()
    }
}

/// An unbounded in-memory event collector: keeps every [`SimEvent`] as a
/// value, in record order. The natural input for the
/// [`crate::obsv::analyze`] functions when the trace never needs to leave
/// the process (referee tests, the `congest-trace --canonical` gates).
#[derive(Debug, Default)]
pub struct EventLog {
    events: Mutex<Vec<SimEvent>>,
}

impl EventLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the recorded events, leaving the log empty.
    pub fn take(&self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events.lock())
    }

    /// Clones the recorded events.
    pub fn snapshot(&self) -> Vec<SimEvent> {
        self.events.lock().clone()
    }
}

impl Collector for EventLog {
    fn record(&self, ev: &SimEvent) {
        self.events.lock().push(ev.clone());
    }
}

/// A bounded JSON-lines trace exporter: every event becomes one JSON
/// object per line, in the order recorded. The dump is byte-identical at
/// any thread count.
#[derive(Debug, Default)]
pub struct JsonlTrace {
    inner: Mutex<JsonlInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct JsonlInner {
    lines: Vec<String>,
    dropped: u64,
}

impl JsonlTrace {
    /// A trace keeping at most `capacity` lines (further events are
    /// counted, not stored).
    pub fn new(capacity: usize) -> Self {
        JsonlTrace {
            inner: Mutex::new(JsonlInner::default()),
            capacity,
        }
    }

    /// Lines recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().lines.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded after the capacity filled.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// The dump: one JSON object per line, trailing newline included when
    /// non-empty.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = inner.lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Renders one event as its JSONL line (no trailing newline). Public
    /// so external serializers (e.g. the `congest-trace` toolkit) produce
    /// the exact on-disk format.
    pub fn render(ev: &SimEvent) -> String {
        match ev {
            SimEvent::Meta {
                n,
                bandwidth_bits,
                seed,
            } => format!(r#"{{"ev":"meta","n":{n},"bandwidth":{bandwidth_bits},"seed":{seed}}}"#),
            SimEvent::Phase { name, repetition } => format!(
                r#"{{"ev":"phase","name":"{}","repetition":{repetition}}}"#,
                json::escape(name)
            ),
            SimEvent::RoundStart { round } => {
                format!(r#"{{"ev":"round_start","round":{round}}}"#)
            }
            SimEvent::RoundEnd {
                round,
                bits,
                messages,
                dropped,
                corrupted,
            } => format!(
                r#"{{"ev":"round_end","round":{round},"bits":{bits},"messages":{messages},"dropped":{dropped},"corrupted":{corrupted}}}"#
            ),
            SimEvent::Send {
                round,
                from,
                port,
                bits,
                msg_id,
                deps,
            } => {
                let mut out = format!(
                    r#"{{"ev":"send","round":{round},"from":{from},"port":{},"bits":{bits},"msg_id":{msg_id},"deps":["#,
                    PortRepr(*port)
                );
                for (i, d) in deps.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&d.to_string());
                }
                out.push_str("]}");
                out
            }
            SimEvent::Deliver {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            } => Self::delivery_line("deliver", *round, *from, *to, *port, *bits, *msg_id),
            SimEvent::Drop {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            } => Self::delivery_line("drop", *round, *from, *to, *port, *bits, *msg_id),
            SimEvent::Corrupt {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            } => Self::delivery_line("corrupt", *round, *from, *to, *port, *bits, *msg_id),
            SimEvent::Crash { round, node } => {
                format!(r#"{{"ev":"crash","round":{round},"node":{node}}}"#)
            }
            SimEvent::TransportSummary {
                retransmissions,
                given_up,
                backoff_events,
            } => format!(
                r#"{{"ev":"transport","retransmissions":{retransmissions},"given_up":{given_up},"backoff_events":{backoff_events}}}"#
            ),
        }
    }

    fn delivery_line(
        kind: &str,
        round: usize,
        from: usize,
        to: usize,
        port: usize,
        bits: usize,
        msg_id: u64,
    ) -> String {
        format!(
            r#"{{"ev":"{kind}","round":{round},"from":{from},"to":{to},"port":{},"bits":{bits},"msg_id":{msg_id}}}"#,
            PortRepr(port)
        )
    }

    /// Decodes one parsed JSONL line back into the event
    /// [`render`](Self::render) wrote it from; the round trip is exact for
    /// every event. Unknown `ev` tags are an error, so a trace from a newer
    /// schema fails loudly instead of being half-read.
    pub fn decode(v: &Value) -> Result<SimEvent, String> {
        let kind = v
            .get("ev")
            .and_then(Value::as_str)
            .ok_or("missing field \"ev\"")?;
        // The three delivery fates share one field set.
        macro_rules! delivery {
            ($fate:ident) => {
                SimEvent::$fate {
                    round: v.int("round")?,
                    from: v.int("from")?,
                    to: v.int("to")?,
                    port: port_field(v)?,
                    bits: v.int("bits")?,
                    msg_id: v.int("msg_id")?,
                }
            };
        }
        Ok(match kind {
            "meta" => SimEvent::Meta {
                n: v.int("n")?,
                bandwidth_bits: v.int("bandwidth")?,
                seed: v.int("seed")?,
            },
            "phase" => SimEvent::Phase {
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("missing string field \"name\"")?
                    .into(),
                repetition: v.int("repetition")?,
            },
            "round_start" => SimEvent::RoundStart {
                round: v.int("round")?,
            },
            "round_end" => SimEvent::RoundEnd {
                round: v.int("round")?,
                bits: v.int("bits")?,
                messages: v.int("messages")?,
                dropped: v.int("dropped")?,
                corrupted: v.int("corrupted")?,
            },
            "send" => send(v)?,
            "deliver" => delivery!(Deliver),
            "drop" => delivery!(Drop),
            "corrupt" => delivery!(Corrupt),
            "crash" => SimEvent::Crash {
                round: v.int("round")?,
                node: v.int("node")?,
            },
            "transport" => SimEvent::TransportSummary {
                retransmissions: v.int("retransmissions")?,
                given_up: v.int("given_up")?,
                backoff_events: v.int("backoff_events")?,
            },
            other => return Err(format!("unknown event kind \"{other}\"")),
        })
    }

    /// Decodes a flight record's reservoir line: a send line whose `ev`
    /// tag is `"sample"` (see [`FlightRecorder::dump`]).
    ///
    /// [`FlightRecorder::dump`]: crate::obsv::flight::FlightRecorder::dump
    pub fn decode_sample(v: &Value) -> Result<SimEvent, String> {
        match v.get("ev").and_then(Value::as_str) {
            Some("sample") => send(v),
            _ => Err("not a \"sample\" line".into()),
        }
    }
}

/// The fields of a `send` (or `sample`) line.
fn send(v: &Value) -> Result<SimEvent, String> {
    let deps = v
        .get("deps")
        .and_then(Value::as_array)
        .ok_or("missing array field \"deps\"")?
        .iter()
        .map(|d| d.as_u64().ok_or("non-integer id in \"deps\""))
        .collect::<Result<Vec<u64>, _>>()?;
    Ok(SimEvent::Send {
        round: v.int("round")?,
        from: v.int("from")?,
        port: port_field(v)?,
        bits: v.int("bits")?,
        msg_id: v.int("msg_id")?,
        deps: deps.into(),
    })
}

/// The `port` member of an event line or a flight-record sketch entry:
/// `-1`, which the writers put for the broadcast marker `usize::MAX`,
/// reads back as `usize::MAX`.
pub fn port_field(v: &Value) -> Result<usize, String> {
    match v.get("port") {
        Some(p) if p.as_f64() == Some(-1.0) => Ok(usize::MAX),
        _ => v.int("port"),
    }
}

/// Renders `usize::MAX` (the broadcast marker) as `-1` so the JSON stays
/// portable.
struct PortRepr(usize);

impl std::fmt::Display for PortRepr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == usize::MAX {
            f.write_str("-1")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl Collector for JsonlTrace {
    fn record(&self, ev: &SimEvent) {
        let mut inner = self.inner.lock();
        if inner.lines.len() < self.capacity {
            let line = Self::render(ev);
            inner.lines.push(line);
        } else {
            inner.dropped += 1;
        }
    }

    fn dropped_events(&self) -> u64 {
        self.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(round: usize, from: usize, port: usize, bits: usize, msg_id: u64) -> SimEvent {
        SimEvent::Send {
            round,
            from,
            port,
            bits,
            msg_id,
            deps: Arc::from([]),
        }
    }

    #[test]
    fn jsonl_lines_parse_back_to_the_recorded_events() {
        let t = JsonlTrace::new(16);
        let events = [
            SimEvent::RoundStart { round: 1 },
            send(1, 0, usize::MAX, 64, 0),
            SimEvent::Drop {
                round: 1,
                from: 1,
                to: 0,
                port: 0,
                bits: 8,
                msg_id: 1,
            },
            SimEvent::RoundEnd {
                round: 1,
                bits: 72,
                messages: 2,
                dropped: 1,
                corrupted: 0,
            },
        ];
        for ev in &events {
            t.record(ev);
        }
        let dump = t.to_jsonl();
        assert_eq!(dump.lines().count(), 4);
        assert!(dump.contains(r#""port":-1"#), "{dump}");
        for (line, ev) in dump.lines().zip(&events) {
            let v = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&JsonlTrace::decode(&v).unwrap(), ev, "{line}");
        }
    }

    #[test]
    fn jsonl_send_carries_provenance() {
        let t = JsonlTrace::new(4);
        t.record(&SimEvent::Send {
            round: 2,
            from: 3,
            port: 1,
            bits: 16,
            msg_id: 9,
            deps: Arc::from([4u64, 7]),
        });
        let dump = t.to_jsonl();
        assert!(dump.contains(r#""msg_id":9,"deps":[4,7]"#), "{dump}");
    }

    #[test]
    fn jsonl_bounded() {
        let t = JsonlTrace::new(1);
        t.record(&SimEvent::RoundStart { round: 1 });
        t.record(&SimEvent::RoundStart { round: 2 });
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn jsonl_capacity_eviction_keeps_dump_stable() {
        // Fill exactly to capacity, snapshot, then push more events: the
        // dump must not change and every overflow event must be counted.
        let t = JsonlTrace::new(3);
        for round in 1..=3 {
            t.record(&SimEvent::RoundStart { round });
        }
        assert_eq!(t.dropped(), 0, "at-capacity records are not drops");
        let at_boundary = t.to_jsonl();
        assert_eq!(at_boundary.lines().count(), 3);
        for round in 4..=8 {
            t.record(&SimEvent::RoundStart { round });
            t.record(&SimEvent::Crash { round, node: 0 });
        }
        assert_eq!(t.len(), 3, "capacity is a hard bound");
        assert_eq!(t.dropped(), 10);
        assert_eq!(t.to_jsonl(), at_boundary, "overflow must not evict");
    }

    #[test]
    fn zero_capacity_trace_counts_everything_as_dropped() {
        let t = JsonlTrace::new(0);
        t.record(&SimEvent::RoundStart { round: 1 });
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn fanout_reaches_all_and_merges_collector_wishes() {
        let a = Arc::new(JsonlTrace::new(1));
        let b = Arc::new(EventLog::new());
        let f = Fanout(vec![a.clone(), b.clone()]);
        assert!(
            f.wants_provenance(),
            "a full-trace collector wants provenance"
        );
        f.record(&SimEvent::RoundStart { round: 1 });
        f.record(&SimEvent::RoundStart { round: 2 });
        assert_eq!((a.len(), b.len()), (1, 2));
        assert_eq!(f.dropped_events(), 1, "truncation sums across sinks");
    }

    #[test]
    fn fanout_preserves_event_order_in_every_collector() {
        // Each collector must see the exact recorded sequence — fan-out
        // may not reorder, coalesce, or skip.
        let a = Arc::new(JsonlTrace::new(64));
        let b = Arc::new(JsonlTrace::new(64));
        let log = Arc::new(EventLog::new());
        let f = Fanout(vec![a.clone(), b.clone(), log.clone()]);
        let events = vec![
            SimEvent::RoundStart { round: 1 },
            send(1, 0, 1, 8, 0),
            send(1, 1, 0, 8, 1),
            SimEvent::Crash { round: 1, node: 2 },
            SimEvent::RoundEnd {
                round: 1,
                bits: 16,
                messages: 2,
                dropped: 0,
                corrupted: 0,
            },
        ];
        for ev in &events {
            f.record(ev);
        }
        let want: Vec<String> = events.iter().map(JsonlTrace::render).collect();
        let got_a: Vec<String> = a.to_jsonl().lines().map(str::to_string).collect();
        let got_b: Vec<String> = b.to_jsonl().lines().map(str::to_string).collect();
        assert_eq!(got_a, want, "first collector saw a different sequence");
        assert_eq!(got_b, want, "second collector saw a different sequence");
        assert_eq!(log.snapshot(), events, "event log saw a different sequence");
    }

    #[test]
    fn event_log_takes_and_resets() {
        let log = EventLog::new();
        log.record(&SimEvent::RoundStart { round: 1 });
        assert_eq!(log.len(), 1);
        assert_eq!(log.take(), vec![SimEvent::RoundStart { round: 1 }]);
        assert!(log.is_empty());
    }
}
