//! Causal trace analysis: the happens-before DAG, critical paths,
//! congestion heatmaps, an invariant checker, and a structural diff.
//!
//! The provenance recorded on [`SimEvent::Send`] (`msg_id` plus the `deps`
//! set of ids delivered to the sender one round earlier) makes a recorded
//! event stream a weighted DAG over messages: `m1 → m2` iff
//! `m1 ∈ deps(m2)`. The *critical path* through that DAG — the dependent
//! message chain of maximum total bit weight — lower-bounds how much of the
//! run's communication was inherently sequential: no scheduler, bandwidth
//! increase, or extra parallelism can deliver the last message of the chain
//! before every bit of the chain has crossed a link.
//!
//! Traces may span several engine runs (the even-cycle drivers run one
//! simulation per phase per repetition). Each [`SimEvent::Meta`] header
//! starts a *segment*; a preceding [`SimEvent::Phase`] marker labels it.
//! Message ids restart per segment, so every analysis here is
//! per-segment, with per-phase aggregation on top.
//!
//! All functions take `&[SimEvent]` — feed them an
//! [`EventLog`](crate::obsv::collect::EventLog) snapshot or a re-parsed
//! JSONL dump (the `tracetools` crate ships the parser and the
//! `congest-trace` CLI over these functions).

use crate::json;
use crate::obsv::collect::{JsonlTrace, SimEvent};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// One message on a critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathHop {
    /// Round the message was sent in.
    pub round: usize,
    /// Sending node.
    pub from: usize,
    /// Port (or clique destination); `usize::MAX` for a broadcast.
    pub port: usize,
    /// Message size in bits.
    pub bits: usize,
    /// The message's id within its segment.
    pub msg_id: u64,
}

/// Critical path of one trace segment (one engine run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPath {
    /// Phase label (`"run"` when the trace has no phase markers).
    pub phase: String,
    /// Repetition index from the phase marker (0 when unlabeled).
    pub repetition: usize,
    /// Node count from the segment's `Meta` header.
    pub n: usize,
    /// Seed from the segment's `Meta` header.
    pub seed: u64,
    /// Rounds the segment executed (highest `RoundEnd`).
    pub rounds: usize,
    /// Messages sent in the segment.
    pub messages: u64,
    /// Total bits sent in the segment.
    pub total_bits: u64,
    /// Weight of the critical path in bits.
    pub path_bits: u64,
    /// Length of the critical path in messages.
    pub path_len: usize,
    /// The critical chain itself, in send order.
    pub chain: Vec<PathHop>,
}

/// Per-phase aggregation of segment critical paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasePath {
    /// Phase label.
    pub phase: String,
    /// Segments carrying this label.
    pub segments: usize,
    /// Heaviest critical path among them, in bits.
    pub max_path_bits: u64,
    /// Longest critical path among them, in messages.
    pub max_path_len: usize,
    /// Messages sent across all the phase's segments.
    pub messages: u64,
}

/// The full critical-path analysis of one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPathSummary {
    /// One entry per trace segment, in stream order.
    pub segments: Vec<SegmentPath>,
    /// Per-phase aggregates, in first-appearance order.
    pub phases: Vec<PhasePath>,
}

impl CriticalPathSummary {
    /// The summary as one compact JSON object (no chains — those are for
    /// the human rendering). Deterministic: built from the event stream
    /// only, so byte-identical at any thread count.
    pub fn to_json(&self) -> String {
        let mut out = String::from(r#"{"phases":["#);
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#"{{"name":"{}","segments":{},"max_path_bits":{},"max_path_len":{},"messages":{}}}"#,
                json::escape(&p.phase),
                p.segments,
                p.max_path_bits,
                p.max_path_len,
                p.messages
            );
        }
        out.push_str(r#"],"segments":["#);
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#"{{"phase":"{}","repetition":{},"rounds":{},"messages":{},"path_bits":{},"path_len":{}}}"#,
                json::escape(&s.phase),
                s.repetition,
                s.rounds,
                s.messages,
                s.path_bits,
                s.path_len
            );
        }
        out.push_str("]}");
        out
    }

    /// A human-readable rendering: per-phase table, then the heaviest
    /// segment's full chain.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.segments.is_empty() {
            out.push_str("no sends in trace\n");
            return out;
        }
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>14} {:>13} {:>10}",
            "phase", "segments", "max path bits", "max path len", "messages"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>14} {:>13} {:>10}",
                p.phase, p.segments, p.max_path_bits, p.max_path_len, p.messages
            );
        }
        if let Some(best) = self
            .segments
            .iter()
            .max_by_key(|s| (s.path_bits, std::cmp::Reverse(s.repetition)))
        {
            let _ = writeln!(
                out,
                "\ncritical chain ({} rep {}, {} bits over {} messages):",
                best.phase, best.repetition, best.path_bits, best.path_len
            );
            for hop in &best.chain {
                let port = if hop.port == usize::MAX {
                    "bcast".to_string()
                } else {
                    format!("p{}", hop.port)
                };
                let _ = writeln!(
                    out,
                    "  round {:>4}  node {:>4} -> {:<6} {:>6} bits  (msg {})",
                    hop.round, hop.from, port, hop.bits, hop.msg_id
                );
            }
        }
        out
    }
}

/// One trace segment: the label, the `Meta` header, and the event slice.
struct Segment<'a> {
    phase: String,
    repetition: usize,
    n: usize,
    bandwidth_bits: usize,
    seed: u64,
    events: &'a [SimEvent],
}

/// Splits an event stream into segments: each [`SimEvent::Meta`] starts
/// one, an immediately preceding [`SimEvent::Phase`] labels it. Events
/// before the first `Meta` (hand-built traces) form an implicit segment.
fn segments(events: &[SimEvent]) -> Vec<Segment<'_>> {
    /// An in-progress segment: header fields plus where its body started.
    struct Open {
        phase: String,
        repetition: usize,
        n: usize,
        bandwidth_bits: usize,
        seed: u64,
        start: usize,
    }
    fn close<'a>(
        open: Option<Open>,
        events: &'a [SimEvent],
        end: usize,
        segs: &mut Vec<Segment<'a>>,
    ) {
        if let Some(o) = open {
            segs.push(Segment {
                phase: o.phase,
                repetition: o.repetition,
                n: o.n,
                bandwidth_bits: o.bandwidth_bits,
                seed: o.seed,
                events: &events[o.start..end],
            });
        }
    }
    let mut segs: Vec<Segment<'_>> = Vec::new();
    let mut pending: Option<(String, usize)> = None;
    let mut open: Option<Open> = None;
    for (i, ev) in events.iter().enumerate() {
        match ev {
            SimEvent::Phase { name, repetition } => {
                close(open.take(), events, i, &mut segs);
                pending = Some((name.to_string(), *repetition));
            }
            SimEvent::Meta {
                n,
                bandwidth_bits,
                seed,
            } => {
                close(open.take(), events, i, &mut segs);
                let (phase, repetition) = pending.take().unwrap_or(("run".to_string(), 0));
                open = Some(Open {
                    phase,
                    repetition,
                    n: *n,
                    bandwidth_bits: *bandwidth_bits,
                    seed: *seed,
                    start: i + 1,
                });
            }
            _ => {
                if open.is_none() {
                    let (phase, repetition) = pending.take().unwrap_or(("run".to_string(), 0));
                    open = Some(Open {
                        phase,
                        repetition,
                        n: 0,
                        bandwidth_bits: 0,
                        seed: 0,
                        start: i,
                    });
                }
            }
        }
    }
    close(open, events, events.len(), &mut segs);
    segs
}

/// Computes the weighted critical path of a trace: per segment, the
/// dependent message chain of maximum total bit weight through the
/// happens-before DAG, plus per-phase aggregates. See the module docs for
/// the DAG definition.
pub fn critical_path(events: &[SimEvent]) -> CriticalPathSummary {
    let mut summary = CriticalPathSummary::default();
    for seg in segments(events) {
        let mut sends: Vec<PathHop> = Vec::new();
        // Per send: (path bits ending here, path length, predecessor index).
        let mut cp: Vec<(u64, usize, Option<usize>)> = Vec::new();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        let mut rounds = 0usize;
        let mut total_bits = 0u64;
        for ev in seg.events {
            match ev {
                SimEvent::Send {
                    round,
                    from,
                    port,
                    bits,
                    msg_id,
                    deps,
                } => {
                    let mut best: Option<usize> = None;
                    for d in deps.iter() {
                        if let Some(&j) = by_id.get(d) {
                            if best.is_none_or(|b| cp[j].0 > cp[b].0) {
                                best = Some(j);
                            }
                        }
                    }
                    let (pre_bits, pre_len) = best.map_or((0, 0), |b| (cp[b].0, cp[b].1));
                    let idx = sends.len();
                    cp.push((pre_bits + *bits as u64, pre_len + 1, best));
                    by_id.insert(*msg_id, idx);
                    sends.push(PathHop {
                        round: *round,
                        from: *from,
                        port: *port,
                        bits: *bits,
                        msg_id: *msg_id,
                    });
                    total_bits += *bits as u64;
                }
                SimEvent::RoundEnd { round, .. } => rounds = rounds.max(*round),
                _ => {}
            }
        }
        // Strict `>` keeps the earliest (smallest-id) endpoint on ties, so
        // the chain is deterministic.
        let mut end: Option<usize> = None;
        for i in 0..cp.len() {
            if end.is_none_or(|e| cp[i].0 > cp[e].0) {
                end = Some(i);
            }
        }
        let mut chain = Vec::new();
        let mut cur = end;
        while let Some(i) = cur {
            chain.push(sends[i].clone());
            cur = cp[i].2;
        }
        chain.reverse();
        summary.segments.push(SegmentPath {
            phase: seg.phase.clone(),
            repetition: seg.repetition,
            n: seg.n,
            seed: seg.seed,
            rounds,
            messages: sends.len() as u64,
            total_bits,
            path_bits: end.map_or(0, |e| cp[e].0),
            path_len: end.map_or(0, |e| cp[e].1),
            chain,
        });
    }
    for s in &summary.segments {
        match summary.phases.iter_mut().find(|p| p.phase == s.phase) {
            Some(p) => {
                p.segments += 1;
                p.max_path_bits = p.max_path_bits.max(s.path_bits);
                p.max_path_len = p.max_path_len.max(s.path_len);
                p.messages += s.messages;
            }
            None => summary.phases.push(PhasePath {
                phase: s.phase.clone(),
                segments: 1,
                max_path_bits: s.path_bits,
                max_path_len: s.path_len,
                messages: s.messages,
            }),
        }
    }
    summary
}

/// Checks the structural invariants of a trace, returning one line per
/// violation (empty means the trace is consistent):
///
/// * rounds start/end in strictly increasing, properly bracketed order;
/// * no `(round, sender, port)` exceeds the `Meta` bandwidth bound
///   (broadcast bits charge every port the sender also unicast on);
/// * message ids are unique within a segment;
/// * every `deps` entry of a send was actually delivered (or delivered
///   corrupted) to the sender in the previous round;
/// * the delivery ledger (see [`crate::obsv::collect`]): no `(msg_id,
///   receiver)` has more than one fate (`Deliver`, `Drop` or `Corrupt`),
///   and each `RoundEnd`'s `dropped` and `corrupted` tallies equal its
///   round's `Drop` and `Corrupt` events. A [`JsonlTrace`] that hits its
///   capacity cuts only the tail, so every round with a `RoundEnd` still
///   holds all of its events and equality is required even then.
///
/// [`JsonlTrace`]: crate::obsv::JsonlTrace
pub fn check(events: &[SimEvent]) -> Vec<String> {
    let mut out = Vec::new();
    for (si, seg) in segments(events).iter().enumerate() {
        let b = seg.bandwidth_bits;
        let mut in_round: Option<usize> = None;
        let mut last_round = 0usize;
        let mut seen_ids: HashSet<u64> = HashSet::new();
        let mut delivered_prev: HashMap<usize, HashSet<u64>> = HashMap::new();
        let mut delivered_cur: HashMap<usize, HashSet<u64>> = HashMap::new();
        // Per sender this round: (broadcast bits, unicast bits per port).
        let mut load: HashMap<usize, (usize, HashMap<usize, usize>)> = HashMap::new();
        let mut drops = 0u64;
        let mut corrupts = 0u64;
        // `(msg_id, receiver)` pairs that met their fate this round.
        let mut fates: HashSet<(u64, usize)> = HashSet::new();
        let viol = |msg: String, out: &mut Vec<String>| {
            out.push(format!("segment {si}: {msg}"));
        };
        for ev in seg.events {
            match ev {
                SimEvent::RoundStart { round } => {
                    if let Some(r) = in_round {
                        viol(format!("round {round} started inside round {r}"), &mut out);
                    }
                    if *round <= last_round {
                        viol(
                            format!("round {round} started after round {last_round}"),
                            &mut out,
                        );
                    }
                    in_round = Some(*round);
                    load.clear();
                    drops = 0;
                    corrupts = 0;
                    fates.clear();
                    delivered_prev = std::mem::take(&mut delivered_cur);
                }
                SimEvent::Send {
                    round,
                    from,
                    port,
                    bits,
                    msg_id,
                    deps,
                } => {
                    if in_round != Some(*round) {
                        viol(
                            format!("send (msg {msg_id}) in round {round} outside that round"),
                            &mut out,
                        );
                    }
                    if !seen_ids.insert(*msg_id) {
                        viol(format!("duplicate msg_id {msg_id}"), &mut out);
                    }
                    let entry = load.entry(*from).or_default();
                    if *port == usize::MAX {
                        entry.0 += bits;
                    } else {
                        *entry.1.entry(*port).or_default() += bits;
                    }
                    if let Some(bad) = deps
                        .iter()
                        .find(|d| !delivered_prev.get(from).is_some_and(|set| set.contains(d)))
                    {
                        viol(
                            format!(
                                "msg {msg_id} (round {round}, node {from}) depends on msg \
                                 {bad}, which was not delivered to node {from} in round {}",
                                round.saturating_sub(1)
                            ),
                            &mut out,
                        );
                    }
                }
                SimEvent::Deliver { to, msg_id, .. }
                | SimEvent::Drop { to, msg_id, .. }
                | SimEvent::Corrupt { to, msg_id, .. } => {
                    if !fates.insert((*msg_id, *to)) {
                        viol(
                            format!("msg {msg_id} met a second fate at node {to}"),
                            &mut out,
                        );
                    }
                    if let SimEvent::Drop { .. } = ev {
                        drops += 1;
                    } else {
                        // Corrupted payloads still reach the inbox.
                        corrupts += u64::from(matches!(ev, SimEvent::Corrupt { .. }));
                        delivered_cur.entry(*to).or_default().insert(*msg_id);
                    }
                }
                SimEvent::RoundEnd {
                    round,
                    dropped,
                    corrupted,
                    ..
                } => {
                    if in_round != Some(*round) {
                        viol(
                            format!("round {round} ended without a matching start"),
                            &mut out,
                        );
                    }
                    in_round = None;
                    last_round = *round;
                    if b > 0 {
                        for (from, (bcast, ports)) in &load {
                            if ports.is_empty() && *bcast > b {
                                viol(
                                    format!(
                                        "round {round}: node {from} broadcast {bcast} bits \
                                         (bandwidth {b})"
                                    ),
                                    &mut out,
                                );
                            }
                            let mut over: Vec<(usize, usize)> = ports
                                .iter()
                                .filter(|(_, &pb)| pb + bcast > b)
                                .map(|(&p, &pb)| (p, pb + bcast))
                                .collect();
                            over.sort_unstable();
                            for (p, total) in over {
                                viol(
                                    format!(
                                        "round {round}: node {from} port {p} carried {total} \
                                         bits (bandwidth {b})"
                                    ),
                                    &mut out,
                                );
                            }
                        }
                    }
                    if *dropped != drops {
                        viol(
                            format!(
                                "round {round}: {drops} drop events but RoundEnd says {dropped}"
                            ),
                            &mut out,
                        );
                    }
                    if *corrupted != corrupts {
                        viol(
                            format!(
                                "round {round}: {corrupts} corrupt events but RoundEnd says \
                                 {corrupted}"
                            ),
                            &mut out,
                        );
                    }
                }
                _ => {}
            }
        }
        if let Some(r) = in_round {
            viol(format!("round {r} never ended"), &mut out);
        }
    }
    out
}

/// Per-round traffic accumulator: message count, total bits, and bits
/// per `(sender, port)` pair.
type RoundTraffic = (u64, u64, HashMap<(usize, usize), u64>);

/// Renders a per-round congestion heatmap of a trace: per segment, a row
/// per round (messages, bits, the hottest `(sender, port)` pair, and —
/// when the segment's `Meta` carries a bandwidth bound — its utilization
/// as a percentage and bar), followed by the segment's hottest pairs
/// overall.
pub fn heatmap(events: &[SimEvent]) -> String {
    let mut out = String::new();
    for (si, seg) in segments(events).iter().enumerate() {
        let _ = writeln!(
            out,
            "segment {si} ({} rep {}): n={} bandwidth={} seed={}",
            seg.phase,
            seg.repetition,
            seg.n,
            if seg.bandwidth_bits == 0 {
                "unbounded".to_string()
            } else {
                format!("{} bits", seg.bandwidth_bits)
            },
            seg.seed
        );
        let mut rounds: BTreeMap<usize, RoundTraffic> = BTreeMap::new();
        let mut pair_total: HashMap<(usize, usize), u64> = HashMap::new();
        let mut drops_per_round: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for ev in seg.events {
            match ev {
                SimEvent::Send {
                    round,
                    from,
                    port,
                    bits,
                    ..
                } => {
                    let e = rounds.entry(*round).or_default();
                    e.0 += 1;
                    e.1 += *bits as u64;
                    *e.2.entry((*from, *port)).or_default() += *bits as u64;
                    *pair_total.entry((*from, *port)).or_default() += *bits as u64;
                }
                SimEvent::RoundEnd {
                    round,
                    dropped,
                    corrupted,
                    ..
                } => {
                    drops_per_round.insert(*round, (*dropped, *corrupted));
                }
                _ => {}
            }
        }
        let b = seg.bandwidth_bits;
        let _ = writeln!(
            out,
            "  {:<6} {:>6} {:>10} {:>16} {}",
            "round",
            "msgs",
            "bits",
            "hottest pair",
            if b > 0 { "util" } else { "" }
        );
        for (round, (msgs, bits, pairs)) in &rounds {
            let hottest = pairs
                .iter()
                .max_by_key(|(&(f, p), &bits)| (bits, std::cmp::Reverse((f, p))));
            let (pair_str, peak) = match hottest {
                Some((&(f, p), &pb)) => (format!("{f}->{}", PortName(p)), pb),
                None => ("-".to_string(), 0),
            };
            let util = if b > 0 {
                let pct = peak as f64 * 100.0 / b as f64;
                let bar = "#".repeat(((pct / 10.0).round() as usize).min(10));
                format!("{pct:>5.1}% {bar}")
            } else {
                String::new()
            };
            let mut row = format!("  {round:<6} {msgs:>6} {bits:>10} {pair_str:>16} {util}");
            if let Some((d, c)) = drops_per_round.get(round) {
                if *d > 0 || *c > 0 {
                    let _ = write!(row, "  ({d} dropped, {c} corrupted)");
                }
            }
            let _ = writeln!(out, "{}", row.trim_end());
        }
        let mut top: Vec<((usize, usize), u64)> = pair_total.into_iter().collect();
        top.sort_by_key(|&((f, p), bits)| (std::cmp::Reverse(bits), f, p));
        top.truncate(5);
        if !top.is_empty() {
            let _ = writeln!(out, "  hottest pairs over the segment:");
            for ((f, p), bits) in top {
                let _ = writeln!(out, "    {f}->{} {bits} bits", PortName(p));
            }
        }
    }
    if out.is_empty() {
        out.push_str("empty trace\n");
    }
    out
}

/// Displays a port index, naming the broadcast marker.
struct PortName(usize);

impl std::fmt::Display for PortName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == usize::MAX {
            f.write_str("bcast")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

/// Structurally compares two traces, returning difference descriptions
/// (empty means the traces are identical event-for-event). Reports the
/// first diverging event and per-trace totals.
pub fn diff(a: &[SimEvent], b: &[SimEvent]) -> Vec<String> {
    let mut out = Vec::new();
    let shared = a.len().min(b.len());
    for i in 0..shared {
        if a[i] != b[i] {
            out.push(format!("first divergence at event {i}:"));
            out.push(format!("  a: {}", JsonlTrace::render(&a[i])));
            out.push(format!("  b: {}", JsonlTrace::render(&b[i])));
            break;
        }
    }
    if out.is_empty() && a.len() != b.len() {
        out.push(format!(
            "traces agree on the first {shared} events, then lengths differ \
             (a: {}, b: {})",
            a.len(),
            b.len()
        ));
        let (label, extra) = if a.len() > b.len() {
            ("a", &a[shared])
        } else {
            ("b", &b[shared])
        };
        out.push(format!(
            "  first extra in {label}: {}",
            JsonlTrace::render(extra)
        ));
    }
    if !out.is_empty() {
        out.push(totals_line("a", a));
        out.push(totals_line("b", b));
    }
    out
}

/// Idle-tail profile of one trace segment: the trailing rounds that
/// carried no traffic at all — exactly the rounds causal early
/// termination (see `Simulation::early_termination`) skips when every
/// node is quiescent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentIdleTail {
    /// Phase label (`"run"` when the trace has no phase markers).
    pub phase: String,
    /// Repetition index from the phase marker (0 when unlabeled).
    pub repetition: usize,
    /// Rounds the segment executed (highest `RoundEnd`).
    pub rounds: usize,
    /// Last round that sent at least one message (0 if none did).
    pub last_busy_round: usize,
    /// `rounds - last_busy_round`: the silent clock-ticking tail.
    pub idle_tail_rounds: usize,
}

/// Idle-tail analysis of a whole trace — the early-termination headroom
/// report: how many executed rounds were pure clock ticks after the last
/// message of each segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdleTailSummary {
    /// One entry per trace segment, in stream order.
    pub segments: Vec<SegmentIdleTail>,
    /// Rounds executed across all segments.
    pub total_rounds: usize,
    /// Idle trailing rounds across all segments.
    pub total_idle_tail: usize,
}

impl IdleTailSummary {
    /// Fraction of executed rounds spent in idle tails (0.0 when the
    /// trace has no rounds).
    pub fn idle_fraction(&self) -> f64 {
        if self.total_rounds == 0 {
            0.0
        } else {
            self.total_idle_tail as f64 / self.total_rounds as f64
        }
    }

    /// A human-readable rendering: one line per segment, then the total.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.segments.is_empty() {
            out.push_str("no rounds in trace\n");
            return out;
        }
        let _ = writeln!(
            out,
            "{:<12} {:>4} {:>8} {:>10} {:>10}",
            "phase", "rep", "rounds", "last busy", "idle tail"
        );
        for s in &self.segments {
            let _ = writeln!(
                out,
                "{:<12} {:>4} {:>8} {:>10} {:>10}",
                s.phase, s.repetition, s.rounds, s.last_busy_round, s.idle_tail_rounds
            );
        }
        let _ = writeln!(
            out,
            "\ntotal: {} of {} rounds idle ({:.1}%)",
            self.total_idle_tail,
            self.total_rounds,
            100.0 * self.idle_fraction()
        );
        out
    }
}

/// Measures each segment's idle tail: rounds executed past the last
/// round with any message traffic. Run on a trace captured *without*
/// early termination, this quantifies exactly how many rounds the flag
/// would save on the same workload.
pub fn idle_tail(events: &[SimEvent]) -> IdleTailSummary {
    let mut summary = IdleTailSummary::default();
    for seg in segments(events) {
        let mut rounds = 0usize;
        let mut last_busy = 0usize;
        for ev in seg.events {
            if let SimEvent::RoundEnd {
                round, messages, ..
            } = ev
            {
                rounds = rounds.max(*round);
                if *messages > 0 {
                    last_busy = last_busy.max(*round);
                }
            }
        }
        summary.total_rounds += rounds;
        summary.total_idle_tail += rounds - last_busy;
        summary.segments.push(SegmentIdleTail {
            phase: seg.phase,
            repetition: seg.repetition,
            rounds,
            last_busy_round: last_busy,
            idle_tail_rounds: rounds - last_busy,
        });
    }
    summary
}

fn totals_line(label: &str, events: &[SimEvent]) -> String {
    let mut sends = 0u64;
    let mut bits = 0u64;
    let mut rounds = 0usize;
    let mut drops = 0u64;
    for ev in events {
        match ev {
            SimEvent::Send { bits: b, .. } => {
                sends += 1;
                bits += *b as u64;
            }
            SimEvent::RoundEnd { round, .. } => rounds = rounds.max(*round),
            SimEvent::Drop { .. } => drops += 1,
            _ => {}
        }
    }
    format!(
        "{label}: {} events, {sends} sends, {bits} bits, {rounds} rounds, {drops} drops",
        events.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn meta(n: usize, b: usize, seed: u64) -> SimEvent {
        SimEvent::Meta {
            n,
            bandwidth_bits: b,
            seed,
        }
    }

    fn send(round: usize, from: usize, bits: usize, msg_id: u64, deps: &[u64]) -> SimEvent {
        SimEvent::Send {
            round,
            from,
            port: 0,
            bits,
            msg_id,
            deps: Arc::from(deps),
        }
    }

    fn deliver(round: usize, from: usize, to: usize, bits: usize, msg_id: u64) -> SimEvent {
        SimEvent::Deliver {
            round,
            from,
            to,
            port: 0,
            bits,
            msg_id,
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

    /// round 1: node 0 sends msg 0 (8 bits) and node 1 sends msg 1
    /// (4 bits); both delivered to node 2. round 2: node 2 sends msg 2
    /// (16 bits) depending on both.
    fn two_round_chain() -> Vec<SimEvent> {
        vec![
            meta(3, 64, 7),
            SimEvent::RoundStart { round: 1 },
            send(1, 0, 8, 0, &[]),
            send(1, 1, 4, 1, &[]),
            deliver(1, 0, 2, 8, 0),
            deliver(1, 1, 2, 4, 1),
            round_end(1, 12, 2),
            SimEvent::RoundStart { round: 2 },
            send(2, 2, 16, 2, &[0, 1]),
            deliver(2, 2, 0, 16, 2),
            round_end(2, 16, 1),
        ]
    }

    #[test]
    fn critical_path_follows_the_heavier_dependency() {
        let s = critical_path(&two_round_chain());
        assert_eq!(s.segments.len(), 1);
        let seg = &s.segments[0];
        assert_eq!(seg.phase, "run");
        assert_eq!(seg.rounds, 2);
        assert_eq!(seg.messages, 3);
        assert_eq!(seg.total_bits, 28);
        // 8 (msg 0) + 16 (msg 2); the 4-bit msg 1 loses the max.
        assert_eq!(seg.path_bits, 24);
        assert_eq!(seg.path_len, 2);
        let ids: Vec<u64> = seg.chain.iter().map(|h| h.msg_id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn critical_path_matches_brute_force_on_a_random_dag() {
        // A layered DAG with arbitrary weights; the analyzer's streaming DP
        // must agree with explicit longest-path recursion.
        let mut events = vec![meta(4, 0, 0)];
        let mut deps_of: Vec<Vec<u64>> = Vec::new();
        let mut bits_of: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        let mut prev_layer: Vec<u64> = Vec::new();
        let weight = |id: u64| 3 + (id * 7 + 1) % 13;
        for round in 1..=5 {
            events.push(SimEvent::RoundStart { round });
            let mut layer = Vec::new();
            for v in 0..3usize {
                // Node v depends on a v-dependent subset of the previous
                // layer (deterministic, so the test is reproducible).
                let deps: Vec<u64> = prev_layer
                    .iter()
                    .copied()
                    .filter(|d| (d + v as u64).is_multiple_of(2))
                    .collect();
                let bits = weight(next_id);
                events.push(send(round, v, bits as usize, next_id, &deps));
                deps_of.push(deps);
                bits_of.push(bits);
                layer.push(next_id);
                next_id += 1;
            }
            events.push(round_end(round, 0, 3));
            prev_layer = layer;
        }
        fn longest(
            id: usize,
            deps_of: &[Vec<u64>],
            bits_of: &[u64],
            memo: &mut Vec<Option<u64>>,
        ) -> u64 {
            if let Some(v) = memo[id] {
                return v;
            }
            let best = deps_of[id]
                .iter()
                .map(|&d| longest(d as usize, deps_of, bits_of, memo))
                .max()
                .unwrap_or(0);
            let v = bits_of[id] + best;
            memo[id] = Some(v);
            v
        }
        let mut memo = vec![None; deps_of.len()];
        let brute = (0..deps_of.len())
            .map(|i| longest(i, &deps_of, &bits_of, &mut memo))
            .max()
            .unwrap();
        let s = critical_path(&events);
        assert_eq!(s.segments[0].path_bits, brute);
    }

    #[test]
    fn phases_label_segments_and_aggregate() {
        let mut events = Vec::new();
        for rep in 1..=2 {
            events.push(SimEvent::Phase {
                name: Arc::from("phase1"),
                repetition: rep,
            });
            events.extend(two_round_chain());
        }
        events.push(SimEvent::Phase {
            name: Arc::from("phase2"),
            repetition: 1,
        });
        events.extend(two_round_chain());
        let s = critical_path(&events);
        assert_eq!(s.segments.len(), 3);
        assert_eq!(s.segments[0].phase, "phase1");
        assert_eq!(s.segments[1].repetition, 2);
        assert_eq!(s.segments[2].phase, "phase2");
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[0].segments, 2);
        assert_eq!(s.phases[0].max_path_bits, 24);
        assert_eq!(s.phases[0].messages, 6);
        let json = s.to_json();
        assert!(json.contains(r#""name":"phase1","segments":2"#), "{json}");
        let v = json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        let phases = v.get("phases").and_then(json::Value::as_array).unwrap();
        assert_eq!(phases[0].int::<u64>("max_path_bits"), Ok(24));
        let human = s.render();
        assert!(human.contains("phase2"), "{human}");
        assert!(human.contains("critical chain"), "{human}");
    }

    #[test]
    fn check_passes_a_consistent_trace() {
        let v = check(&two_round_chain());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn check_flags_phantom_dependencies() {
        let mut events = two_round_chain();
        // msg 2 now claims a dep that was never delivered.
        events[8] = send(2, 2, 16, 2, &[0, 99]);
        let v = check(&events);
        assert!(v.iter().any(|m| m.contains("depends on msg 99")), "{v:?}");
    }

    #[test]
    fn check_flags_bandwidth_violation() {
        let events = vec![
            meta(2, 8, 0),
            SimEvent::RoundStart { round: 1 },
            send(1, 0, 6, 0, &[]),
            send(1, 0, 6, 1, &[]),
            round_end(1, 12, 2),
        ];
        let v = check(&events);
        assert!(v.iter().any(|m| m.contains("carried 12 bits")), "{v:?}");
    }

    #[test]
    fn check_flags_duplicate_ids_and_bad_rounds() {
        let events = vec![
            meta(2, 0, 0),
            SimEvent::RoundStart { round: 1 },
            send(1, 0, 4, 0, &[]),
            send(1, 1, 4, 0, &[]),
            round_end(1, 8, 2),
            SimEvent::RoundStart { round: 1 },
        ];
        let v = check(&events);
        assert!(v.iter().any(|m| m.contains("duplicate msg_id 0")), "{v:?}");
        assert!(
            v.iter().any(|m| m.contains("started after round 1")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("never ended")), "{v:?}");
    }

    #[test]
    fn check_flags_fault_tally_mismatch() {
        let events = vec![
            meta(2, 0, 0),
            SimEvent::RoundStart { round: 1 },
            send(1, 0, 4, 0, &[]),
            SimEvent::Drop {
                round: 1,
                from: 0,
                to: 1,
                port: 0,
                bits: 4,
                msg_id: 0,
            },
            round_end(1, 4, 1), // claims dropped: 0
        ];
        let v = check(&events);
        assert!(v.iter().any(|m| m.contains("1 drop events")), "{v:?}");
    }

    #[test]
    fn check_flags_a_ledger_with_a_missing_or_doubled_fate() {
        let drop = |msg_id| SimEvent::Drop {
            round: 1,
            from: 0,
            to: 1,
            port: 0,
            bits: 4,
            msg_id,
        };
        // Two sends lost, but only one `Drop` made it into the stream: the
        // old `RoundEnd.dropped ≥ #Drop` rule let this through.
        let mut events = vec![
            meta(2, 0, 0),
            SimEvent::RoundStart { round: 1 },
            send(1, 0, 4, 0, &[]),
            send(1, 0, 4, 1, &[]),
            drop(0),
            SimEvent::RoundEnd {
                round: 1,
                bits: 8,
                messages: 2,
                dropped: 2,
                corrupted: 0,
            },
        ];
        let v = check(&events);
        assert_eq!(v, ["segment 0: round 1: 1 drop events but RoundEnd says 2"]);
        // The missing fate filled in twice for the same receiver: the tally
        // now balances, but one delivery attempt met two fates.
        events.insert(5, deliver(1, 0, 1, 4, 1));
        events.insert(5, drop(1));
        let v = check(&events);
        assert_eq!(v, ["segment 0: msg 1 met a second fate at node 1"]);
    }

    #[test]
    fn diff_reports_first_divergence_and_totals() {
        let a = two_round_chain();
        assert!(diff(&a, &a).is_empty());
        let mut b = a.clone();
        b[2] = send(1, 0, 9, 0, &[]);
        let d = diff(&a, &b);
        assert!(d[0].contains("event 2"), "{d:?}");
        assert!(d.iter().any(|l| l.contains("28 bits")), "{d:?}");
        let mut c = a.clone();
        c.truncate(5);
        let d = diff(&a, &c);
        assert!(d[0].contains("lengths differ"), "{d:?}");
    }

    #[test]
    fn idle_tail_counts_silent_trailing_rounds() {
        // Two busy rounds, then three silent clock ticks.
        let mut events = two_round_chain();
        for round in 3..=5 {
            events.push(SimEvent::RoundStart { round });
            events.push(round_end(round, 0, 0));
        }
        let s = idle_tail(&events);
        assert_eq!(s.segments.len(), 1);
        assert_eq!(s.segments[0].rounds, 5);
        assert_eq!(s.segments[0].last_busy_round, 2);
        assert_eq!(s.segments[0].idle_tail_rounds, 3);
        assert_eq!(s.total_rounds, 5);
        assert_eq!(s.total_idle_tail, 3);
        assert!((s.idle_fraction() - 0.6).abs() < 1e-9);
        let human = s.render();
        assert!(human.contains("3 of 5 rounds idle"), "{human}");
        // A fully busy trace has no tail.
        let busy = idle_tail(&two_round_chain());
        assert_eq!(busy.total_idle_tail, 0);
        assert_eq!(idle_tail(&[]).render(), "no rounds in trace\n");
    }

    #[test]
    fn heatmap_renders_rounds_and_hot_pairs() {
        let h = heatmap(&two_round_chain());
        assert!(h.contains("segment 0 (run rep 0)"), "{h}");
        assert!(h.contains("bandwidth=64 bits"), "{h}");
        assert!(h.contains("hottest pairs"), "{h}");
        assert!(h.contains("2->p0 16 bits"), "{h}");
        assert_eq!(heatmap(&[]), "empty trace\n");
    }
}
