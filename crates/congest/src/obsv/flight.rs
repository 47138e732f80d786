//! The flight recorder: always-on, bounded-memory streaming telemetry.
//!
//! The full-trace collectors ([`EventLog`](crate::obsv::EventLog),
//! [`JsonlTrace`]) keep O(messages) state — exactly what an n = 10⁶
//! Theorem 1.1 run (billions of staged sends) or a long-lived
//! `congest-serve` process cannot afford. [`FlightRecorder`] is the
//! bounded replacement: it rides the same [`Collector`] seam but holds
//!
//! * a fixed-capacity **ring buffer** of the last K rounds of raw events
//!   (the "flight record" dumped when a run errors or degrades),
//! * **streaming per-round aggregates** — bits, messages, drops,
//!   corruptions folded from [`SimEvent::RoundEnd`] as each round closes,
//!   never materialized per event,
//! * a **space-saving top-k sketch** of the heaviest `(sender, port)`
//!   edges and senders by bits,
//! * a **seed-deterministic reservoir sample** of sends (Vitter's
//!   Algorithm R keyed off the run seed from [`SimEvent::Meta`]), so
//!   `congest-trace` analyses still have raw sends to chew on.
//!
//! Memory is O(K · ring_events_per_round + sample_capacity + top_k +
//! rounds), independent of message count.
//!
//! Determinism: engines record events from sequential code in node order,
//! so the recorder sees one fixed stream at any shards × threads. The
//! reservoir RNG is seeded from the run seed, therefore every field of
//! [`FlightRecorder::dump`] is byte-identical across thread counts —
//! wall-clock never enters the recorder.
//!
//! By default the recorder declines causal provenance
//! ([`Collector::wants_provenance`] returns `false`): engines then skip
//! building the per-send `deps` sets, the main lever on the recorder's
//! cost. That cost is not yet within the ≤5% always-on budget: the
//! release A/B in `crates/bench/tests/gates.rs` holds the whole E1 row to
//! +5 %, but on the detector alone the recorder adds about +50 % at
//! n = 512 (ROADMAP item 3(a)).

use crate::obsv::collect::{Collector, JsonlTrace, SimEvent};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Schema tag of a flight-record dump's header line.
pub const FLIGHT_RECORD_SCHEMA: &str = "congest.flight_record";
/// Version of the dump layout.
pub const FLIGHT_RECORD_VERSION: u32 = 1;

/// Salt xor-ed into the run seed for the reservoir RNG, so the sample
/// stream never aliases a node RNG stream.
const RESERVOIR_SALT: u64 = 0x666c_6967_6874; // "flight"

/// Capacity knobs for a [`FlightRecorder`]. The defaults bound the
/// recorder to a few hundred KiB regardless of run size.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// How many closed rounds of raw events the ring retains (K).
    pub ring_rounds: usize,
    /// Per-round cap on buffered raw events; overflow within a round is
    /// counted in `ring_dropped_events` (the round's `RoundStart` /
    /// `RoundEnd` brackets are always kept).
    pub ring_events_per_round: usize,
    /// Reservoir size for the seed-deterministic send sample.
    pub sample_capacity: usize,
    /// Number of counters in each space-saving sketch (heaviest edges,
    /// heaviest senders).
    pub top_k: usize,
    /// Whether the recorder asks engines for causal provenance (`deps` on
    /// sends). Off by default — provenance construction is the expensive
    /// part of tracing, and the recorder's analyses don't need it.
    pub provenance: bool,
    /// When set, the recorder dump is written here automatically on run
    /// error or fault-layer degradation (the "black box" behavior).
    pub dump_path: Option<String>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            ring_rounds: 8,
            ring_events_per_round: 2048,
            sample_capacity: 256,
            top_k: 8,
            provenance: false,
            dump_path: None,
        }
    }
}

/// Streaming aggregate of one closed round, folded from
/// [`SimEvent::RoundEnd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundAgg {
    /// Round number (1-based; restarts per trace segment).
    pub round: usize,
    /// Bits charged this round.
    pub bits: u64,
    /// Messages sent this round.
    pub messages: u64,
    /// Deliveries dropped by the fault layer this round.
    pub dropped: u64,
    /// Deliveries corrupted this round.
    pub corrupted: u64,
}

/// Running whole-run tallies maintained by the recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightTotals {
    /// Rounds closed (count of `RoundEnd` events).
    pub rounds: u64,
    /// Total bits across closed rounds.
    pub bits: u64,
    /// Total messages across closed rounds.
    pub messages: u64,
    /// Total fault-layer drops across closed rounds.
    pub dropped: u64,
    /// Total corruptions across closed rounds.
    pub corrupted: u64,
    /// Intact deliveries observed (streamed from `Deliver` events).
    pub delivered: u64,
    /// Node crashes observed.
    pub crashes: u64,
    /// Transport retransmissions (from `TransportSummary`).
    pub retransmissions: u64,
    /// Transport frames given up on.
    pub given_up: u64,
    /// Transport backoff events.
    pub backoff_events: u64,
}

/// One counter of a space-saving sketch: `(key, estimated count,
/// overestimation error)`. The true count is within `[count - err,
/// count]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopEntry<K> {
    /// The tracked key.
    pub key: K,
    /// Estimated total weight attributed to the key.
    pub count: u64,
    /// Maximum overestimation (the count the key inherited on eviction).
    pub err: u64,
}

/// Metwally et al.'s space-saving sketch over a fixed set of counters,
/// with deterministic (min count, then min key) eviction so the sketch
/// contents are identical for identical event streams.
#[derive(Debug, Clone)]
struct SpaceSaving<K> {
    cap: usize,
    entries: Vec<TopEntry<K>>,
}

impl<K: Ord + Copy> SpaceSaving<K> {
    fn new(cap: usize) -> Self {
        SpaceSaving {
            cap,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Adds `w` weight to `key`, evicting the lightest counter when full.
    fn observe(&mut self, key: K, w: u64) {
        if self.cap == 0 {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.count += w;
            return;
        }
        if self.entries.len() < self.cap {
            self.entries.push(TopEntry {
                key,
                count: w,
                err: 0,
            });
            return;
        }
        // Deterministic victim: smallest count, ties by smallest key.
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.count, e.key))
            .map(|(i, _)| i)
            .expect("sketch is non-empty when full");
        let old = self.entries[victim].count;
        self.entries[victim] = TopEntry {
            key,
            count: old + w,
            err: old,
        };
    }

    /// Counters sorted heaviest-first (ties by key, ascending) — a stable,
    /// deterministic order for export.
    fn sorted(&self) -> Vec<TopEntry<K>> {
        let mut out = self.entries.clone();
        out.sort_by_key(|e| (std::cmp::Reverse(e.count), e.key));
        out
    }
}

#[derive(Debug)]
struct FlightInner {
    /// Run header from the first `Meta` (n, bandwidth bits, seed).
    meta: Option<(usize, usize, u64)>,
    /// Reservoir RNG, seeded from the first `Meta`'s seed.
    rng: Option<ChaCha8Rng>,
    /// Events of the currently open (unclosed) round.
    open: Vec<SimEvent>,
    /// Events the open round's cap already discarded.
    open_truncated: u64,
    /// Closed rounds, oldest first; each entry is that round's (possibly
    /// truncated) event buffer.
    ring: VecDeque<Vec<SimEvent>>,
    /// Events discarded by the per-round cap, cumulative over the run
    /// (aging a whole round out of the ring is not a drop and is not
    /// counted here).
    ring_dropped: u64,
    /// Per-round aggregates in stream order.
    aggs: Vec<RoundAgg>,
    totals: FlightTotals,
    /// Reservoir sample of `Send` events (Algorithm R).
    reservoir: Vec<SimEvent>,
    /// Total sends offered to the reservoir.
    sends_seen: u64,
    top_edges: SpaceSaving<(usize, usize)>,
    top_senders: SpaceSaving<usize>,
}

/// The bounded-memory streaming telemetry collector. See the module docs.
///
/// Install via [`Simulation::flight_recorder`](crate::Simulation::flight_recorder)
/// (composed with any other collector through [`Fanout`]) or hand it to an
/// engine directly as a [`Collector`].
///
/// [`Fanout`]: crate::obsv::Fanout
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    inner: Mutex<FlightInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(FlightConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder with the given capacity knobs.
    pub fn new(cfg: FlightConfig) -> Self {
        FlightRecorder {
            inner: Mutex::new(FlightInner {
                meta: None,
                rng: None,
                open: Vec::new(),
                open_truncated: 0,
                ring: VecDeque::with_capacity(cfg.ring_rounds + 1),
                ring_dropped: 0,
                aggs: Vec::new(),
                totals: FlightTotals::default(),
                reservoir: Vec::with_capacity(cfg.sample_capacity),
                sends_seen: 0,
                top_edges: SpaceSaving::new(cfg.top_k),
                top_senders: SpaceSaving::new(cfg.top_k),
            }),
            cfg,
        }
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &FlightConfig {
        &self.cfg
    }

    /// The streaming per-round aggregates, in stream order.
    pub fn aggregates(&self) -> Vec<RoundAgg> {
        self.inner.lock().aggs.clone()
    }

    /// The running whole-run tallies.
    pub fn totals(&self) -> FlightTotals {
        self.inner.lock().totals
    }

    /// Sends offered to the reservoir so far.
    pub fn sends_seen(&self) -> u64 {
        self.inner.lock().sends_seen
    }

    /// Current reservoir occupancy (`min(sample_capacity, sends_seen)`).
    pub fn samples_len(&self) -> usize {
        self.inner.lock().reservoir.len()
    }

    /// Events the per-round ring cap discarded from retained rounds.
    pub fn ring_dropped_events(&self) -> u64 {
        let inner = self.inner.lock();
        inner.ring_dropped + inner.open_truncated
    }

    /// Closed rounds currently held in the ring.
    pub fn ring_len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// The heaviest `(sender, port)` pairs by bits, heaviest first.
    pub fn top_edges(&self) -> Vec<TopEntry<(usize, usize)>> {
        self.inner.lock().top_edges.sorted()
    }

    /// The heaviest senders by bits, heaviest first.
    pub fn top_senders(&self) -> Vec<TopEntry<usize>> {
        self.inner.lock().top_senders.sorted()
    }

    /// Serializes the recorder as a flight-record dump:
    ///
    /// 1. one header object (`"schema":"congest.flight_record"`) carrying
    ///    the run identity, streaming totals, and both top-k sketches,
    /// 2. the run's `meta` event line (when one was recorded),
    /// 3. the ring — raw event lines of the last K closed rounds plus any
    ///    open partial round (the crash case: an error mid-round leaves
    ///    its events in the partial tail),
    /// 4. the reservoir sample, one `"ev":"sample"` line per send, in
    ///    reservoir-slot order.
    ///
    /// Every line is JSONL in the [`JsonlTrace`] on-disk format (samples
    /// differ only in the `ev` tag). Byte-identical at any shards ×
    /// threads.
    pub fn dump(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        out.push_str(&Self::header_line(&self.cfg, &inner));
        out.push('\n');
        if let Some((n, bw, seed)) = inner.meta {
            let _ = writeln!(
                out,
                r#"{{"ev":"meta","n":{n},"bandwidth":{bw},"seed":{seed}}}"#
            );
        }
        for round in &inner.ring {
            for ev in round {
                out.push_str(&JsonlTrace::render(ev));
                out.push('\n');
            }
        }
        for ev in &inner.open {
            out.push_str(&JsonlTrace::render(ev));
            out.push('\n');
        }
        for ev in &inner.reservoir {
            let line = JsonlTrace::render(ev).replacen(r#""ev":"send""#, r#""ev":"sample""#, 1);
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Writes [`Self::dump`] to `path`.
    pub fn dump_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.dump())
    }

    /// The black-box hook: when [`FlightConfig::dump_path`] is set, write
    /// the dump there (logging, not propagating, any I/O failure — the
    /// recorder must never turn a degraded run into a failed one).
    pub(crate) fn dump_on_failure(&self, why: &str) {
        if let Some(path) = &self.cfg.dump_path {
            match self.dump_to(path) {
                Ok(()) => eprintln!("flight recorder: {why}; dump written to {path}"),
                Err(e) => eprintln!("flight recorder: {why}; FAILED to write {path}: {e}"),
            }
        }
    }

    fn header_line(cfg: &FlightConfig, inner: &FlightInner) -> String {
        let (n, bw, seed) = inner.meta.unwrap_or((0, 0, 0));
        let t = &inner.totals;
        let mut out = format!(
            r#"{{"schema":"{FLIGHT_RECORD_SCHEMA}","version":{FLIGHT_RECORD_VERSION},"n":{n},"bandwidth":{bw},"seed":{seed},"rounds":{},"bits":{},"messages":{},"dropped":{},"corrupted":{},"delivered":{},"crashes":{},"retransmissions":{},"given_up":{},"backoff_events":{},"ring_capacity":{},"ring_rounds":{},"ring_dropped_events":{},"sample_capacity":{},"samples":{},"sends_seen":{}"#,
            t.rounds,
            t.bits,
            t.messages,
            t.dropped,
            t.corrupted,
            t.delivered,
            t.crashes,
            t.retransmissions,
            t.given_up,
            t.backoff_events,
            cfg.ring_rounds,
            inner.ring.len(),
            inner.ring_dropped + inner.open_truncated,
            cfg.sample_capacity,
            inner.reservoir.len(),
            inner.sends_seen,
        );
        out.push_str(r#","top_edges":["#);
        for (i, e) in inner.top_edges.sorted().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let port: i64 = if e.key.1 == usize::MAX {
                -1
            } else {
                e.key.1 as i64
            };
            let _ = write!(
                out,
                r#"{{"from":{},"port":{port},"bits":{},"err":{}}}"#,
                e.key.0, e.count, e.err
            );
        }
        out.push_str(r#"],"top_senders":["#);
        for (i, e) in inner.top_senders.sorted().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#"{{"from":{},"bits":{},"err":{}}}"#,
                e.key, e.count, e.err
            );
        }
        out.push_str("]}");
        out
    }
}

impl FlightInner {
    /// Buffers a raw event into the open round, honoring the per-round cap.
    fn push_open(&mut self, cap: usize, ev: &SimEvent) {
        if self.open.len() < cap {
            self.open.push(ev.clone());
        } else {
            self.open_truncated += 1;
        }
    }
}

impl Collector for FlightRecorder {
    fn record(&self, ev: &SimEvent) {
        let mut inner = self.inner.lock();
        let cap = self.cfg.ring_events_per_round;
        match ev {
            SimEvent::Meta {
                n,
                bandwidth_bits,
                seed,
            } => {
                if inner.meta.is_none() {
                    inner.meta = Some((*n, *bandwidth_bits, *seed));
                    inner.rng = Some(ChaCha8Rng::seed_from_u64(*seed ^ RESERVOIR_SALT));
                }
            }
            SimEvent::Phase { .. } | SimEvent::NodeCompute { .. } => {}
            SimEvent::RoundStart { .. } => {
                // A fresh bracket; anything stranded in the open buffer
                // (events between runs) is dropped silently — only full
                // rounds and the final partial round are retained.
                inner.open.clear();
                inner.open_truncated = 0;
                inner.open.push(ev.clone());
            }
            SimEvent::Send {
                from, port, bits, ..
            } => {
                inner.sends_seen += 1;
                inner.top_edges.observe((*from, *port), *bits as u64);
                inner.top_senders.observe(*from, *bits as u64);
                // Vitter's Algorithm R: each send survives with
                // probability sample_capacity / sends_seen.
                let cap_s = self.cfg.sample_capacity;
                if inner.reservoir.len() < cap_s {
                    inner.reservoir.push(ev.clone());
                } else if cap_s > 0 {
                    let seen = inner.sends_seen;
                    if let Some(rng) = inner.rng.as_mut() {
                        let j = rng.gen_range(0..seen);
                        if (j as usize) < cap_s {
                            inner.reservoir[j as usize] = ev.clone();
                        }
                    }
                }
                inner.push_open(cap, ev);
            }
            SimEvent::Deliver { .. } => {
                inner.totals.delivered += 1;
                inner.push_open(cap, ev);
            }
            SimEvent::Drop { .. } | SimEvent::Corrupt { .. } => {
                inner.push_open(cap, ev);
            }
            SimEvent::Crash { .. } => {
                inner.totals.crashes += 1;
                inner.push_open(cap, ev);
            }
            SimEvent::RoundEnd {
                round,
                bits,
                messages,
                dropped,
                corrupted,
            } => {
                inner.aggs.push(RoundAgg {
                    round: *round,
                    bits: *bits,
                    messages: *messages,
                    dropped: *dropped,
                    corrupted: *corrupted,
                });
                inner.totals.rounds += 1;
                inner.totals.bits += bits;
                inner.totals.messages += messages;
                inner.totals.dropped += dropped;
                inner.totals.corrupted += corrupted;
                // Close the round: the bracket always lands in the ring
                // even when the cap truncated the round's interior.
                inner.open.push(ev.clone());
                let closed = std::mem::take(&mut inner.open);
                inner.ring_dropped += inner.open_truncated;
                inner.open_truncated = 0;
                inner.ring.push_back(closed);
                while inner.ring.len() > self.cfg.ring_rounds {
                    // Aging a whole round out is the ring working as
                    // designed, not data loss; `ring_dropped` only counts
                    // per-round-cap truncation, cumulatively over the
                    // recorder's lifetime (aged-out rounds keep their debt).
                    inner.ring.pop_front();
                }
            }
            SimEvent::TransportSummary {
                retransmissions,
                given_up,
                backoff_events,
            } => {
                inner.totals.retransmissions += retransmissions;
                inner.totals.given_up += given_up;
                inner.totals.backoff_events += backoff_events;
            }
        }
    }

    fn wants_provenance(&self) -> bool {
        self.cfg.provenance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::sync::Arc;

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

    fn round_end(round: usize, bits: u64, messages: u64) -> SimEvent {
        SimEvent::RoundEnd {
            round,
            bits,
            messages,
            dropped: 0,
            corrupted: 0,
        }
    }

    fn feed(rec: &FlightRecorder, rounds: usize, sends_per_round: usize) {
        rec.record(&SimEvent::Meta {
            n: 4,
            bandwidth_bits: 32,
            seed: 7,
        });
        for r in 1..=rounds {
            rec.record(&SimEvent::RoundStart { round: r });
            for s in 0..sends_per_round {
                rec.record(&send(r, s % 4, s % 3, 8, (r * 100 + s) as u64));
            }
            rec.record(&round_end(
                r,
                8 * sends_per_round as u64,
                sends_per_round as u64,
            ));
        }
    }

    #[test]
    fn ring_keeps_last_k_rounds() {
        let rec = FlightRecorder::new(FlightConfig {
            ring_rounds: 3,
            ..FlightConfig::default()
        });
        feed(&rec, 10, 2);
        assert_eq!(rec.ring_len(), 3);
        let dump = rec.dump();
        assert!(dump.contains(r#""ev":"round_start","round":8"#), "{dump}");
        assert!(!dump.contains(r#""ev":"round_start","round":7"#), "{dump}");
        assert_eq!(rec.ring_dropped_events(), 0);
    }

    #[test]
    fn per_round_cap_truncates_and_counts() {
        let rec = FlightRecorder::new(FlightConfig {
            ring_rounds: 4,
            ring_events_per_round: 3, // round_start + 2 sends
            ..FlightConfig::default()
        });
        feed(&rec, 2, 5);
        // 5 sends per round, 2 fit beside the bracket: 3 truncated each.
        assert_eq!(rec.ring_dropped_events(), 6);
        let dump = rec.dump();
        // RoundEnd survives truncation so brackets stay balanced.
        assert!(dump.contains(r#""ev":"round_end","round":2"#), "{dump}");
    }

    #[test]
    fn aggregates_fold_from_round_end() {
        let rec = FlightRecorder::default();
        feed(&rec, 3, 4);
        let aggs = rec.aggregates();
        assert_eq!(aggs.len(), 3);
        assert_eq!(
            aggs[1],
            RoundAgg {
                round: 2,
                bits: 32,
                messages: 4,
                dropped: 0,
                corrupted: 0
            }
        );
        let t = rec.totals();
        assert_eq!((t.rounds, t.bits, t.messages), (3, 96, 12));
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic() {
        let make = || {
            let rec = FlightRecorder::new(FlightConfig {
                sample_capacity: 16,
                ..FlightConfig::default()
            });
            feed(&rec, 20, 25);
            rec
        };
        let (a, b) = (make(), make());
        assert_eq!(a.samples_len(), 16);
        assert_eq!(a.sends_seen(), 500);
        assert_eq!(a.dump(), b.dump(), "identical streams, identical dumps");
    }

    #[test]
    fn space_saving_tracks_heavy_hitter_exactly_when_it_fits() {
        let mut sk = SpaceSaving::new(2);
        for _ in 0..10 {
            sk.observe(1usize, 8);
        }
        sk.observe(2, 8);
        sk.observe(3, 8); // evicts key 2 (count 8, smallest key wins tie? key 2 < nothing else at 8)
        let top = sk.sorted();
        assert_eq!(top[0].key, 1);
        assert_eq!(top[0].count, 80);
        assert_eq!(top[0].err, 0);
        assert_eq!(top[1].key, 3);
        assert_eq!(top[1].count, 16, "inherits the evicted count");
        assert_eq!(top[1].err, 8);
    }

    #[test]
    fn dump_header_is_first_line_and_valid_shape() {
        let rec = FlightRecorder::default();
        feed(&rec, 2, 3);
        rec.record(&SimEvent::TransportSummary {
            retransmissions: 5,
            given_up: 1,
            backoff_events: 2,
        });
        let dump = rec.dump();
        let header = dump.lines().next().unwrap();
        assert!(
            header.starts_with(r#"{"schema":"congest.flight_record","version":1"#),
            "{header}"
        );
        assert!(header.contains(r#""retransmissions":5"#), "{header}");
        assert!(header.contains(r#""top_edges":["#), "{header}");
        let lines: Vec<json::Value> = dump
            .lines()
            .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}")))
            .collect();
        assert_eq!(lines[0].int::<u64>("retransmissions"), Ok(5));
        // Sample lines use the sample tag, not send.
        assert!(dump.contains(r#""ev":"sample""#), "{dump}");
    }

    #[test]
    fn partial_open_round_lands_in_dump() {
        let rec = FlightRecorder::default();
        rec.record(&SimEvent::Meta {
            n: 2,
            bandwidth_bits: 8,
            seed: 1,
        });
        rec.record(&SimEvent::RoundStart { round: 1 });
        rec.record(&send(1, 0, 0, 8, 0));
        // No RoundEnd — the error-mid-round case.
        let dump = rec.dump();
        assert!(dump.contains(r#""ev":"round_start","round":1"#), "{dump}");
        assert!(dump.contains(r#""ev":"send","round":1"#), "{dump}");
    }

    #[test]
    fn recorder_declines_provenance_by_default() {
        assert!(!FlightRecorder::default().wants_provenance());
        let cfg = FlightConfig {
            provenance: true,
            ..FlightConfig::default()
        };
        assert!(FlightRecorder::new(cfg).wants_provenance());
    }
}
