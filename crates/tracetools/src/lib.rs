//! Offline trace tooling for the `congest` simulators.
//!
//! The simulators export their structured event stream as JSON lines
//! (one [`SimEvent`] per line, rendered by
//! [`JsonlTrace::render`](congest::JsonlTrace::render)). This crate is the
//! other direction: [`parse_jsonl`] reads such a dump back into event
//! values so the [`congest::obsv::analyze`] consumers — invariant checker,
//! critical-path extractor, heatmap, diff — run against traces recorded in
//! a different process (or a different machine). The `congest-trace`
//! binary wraps the whole round trip as a command-line toolkit.
//!
//! The parser is hand-rolled against the exact renderer format (the repo
//! vendors no JSON library by design): flat objects, known keys, the only
//! nested value being the `deps` id array on `send` lines. Unknown `ev`
//! tags are an error — a trace from a newer schema should fail loudly, not
//! be silently half-read.

#![warn(missing_docs)]

use congest::SimEvent;
use std::sync::Arc;

/// A parse failure: line number (1-based) plus a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Extracts the raw text of a scalar field (`"key":value`) from a flat
/// JSON object line. Stops at `,`, `}` or `]`; quotes are stripped.
fn raw_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = obj[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

fn num<T: std::str::FromStr>(obj: &str, key: &str, line: usize) -> Result<T, ParseError> {
    raw_field(obj, key)
        .ok_or_else(|| err(line, format!("missing field \"{key}\"")))?
        .parse()
        .map_err(|_| err(line, format!("field \"{key}\" is not a number")))
}

/// A port field: `-1` encodes the broadcast marker `usize::MAX`.
fn port(obj: &str, line: usize) -> Result<usize, ParseError> {
    let raw = raw_field(obj, "port").ok_or_else(|| err(line, "missing field \"port\""))?;
    if raw == "-1" {
        Ok(usize::MAX)
    } else {
        raw.parse()
            .map_err(|_| err(line, "field \"port\" is not a number"))
    }
}

/// The `deps` id array of a `send` line.
fn deps(obj: &str, line: usize) -> Result<Arc<[u64]>, ParseError> {
    let pat = "\"deps\":[";
    let start = obj
        .find(pat)
        .ok_or_else(|| err(line, "missing field \"deps\""))?
        + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(']')
        .ok_or_else(|| err(line, "unterminated \"deps\" array"))?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Ok(Arc::from([]));
    }
    let ids: Result<Vec<u64>, _> = body.split(',').map(|s| s.trim().parse()).collect();
    ids.map(Arc::from)
        .map_err(|_| err(line, "non-numeric id in \"deps\""))
}

fn delivery(
    obj: &str,
    line: usize,
) -> Result<(usize, usize, usize, usize, usize, u64), ParseError> {
    Ok((
        num(obj, "round", line)?,
        num(obj, "from", line)?,
        num(obj, "to", line)?,
        port(obj, line)?,
        num(obj, "bits", line)?,
        num(obj, "msg_id", line)?,
    ))
}

/// Parses one JSONL line back into the event it was rendered from.
pub fn parse_line(obj: &str, line: usize) -> Result<SimEvent, ParseError> {
    let ev = raw_field(obj, "ev").ok_or_else(|| err(line, "missing field \"ev\""))?;
    match ev {
        "meta" => Ok(SimEvent::Meta {
            n: num(obj, "n", line)?,
            bandwidth_bits: num(obj, "bandwidth", line)?,
            seed: num(obj, "seed", line)?,
        }),
        "phase" => Ok(SimEvent::Phase {
            name: raw_field(obj, "name")
                .ok_or_else(|| err(line, "missing field \"name\""))?
                .into(),
            repetition: num(obj, "repetition", line)?,
        }),
        "round_start" => Ok(SimEvent::RoundStart {
            round: num(obj, "round", line)?,
        }),
        "round_end" => Ok(SimEvent::RoundEnd {
            round: num(obj, "round", line)?,
            bits: num(obj, "bits", line)?,
            messages: num(obj, "messages", line)?,
            dropped: num(obj, "dropped", line)?,
            corrupted: num(obj, "corrupted", line)?,
        }),
        "send" => Ok(SimEvent::Send {
            round: num(obj, "round", line)?,
            from: num(obj, "from", line)?,
            port: port(obj, line)?,
            bits: num(obj, "bits", line)?,
            msg_id: num(obj, "msg_id", line)?,
            deps: deps(obj, line)?,
        }),
        "deliver" => {
            let (round, from, to, port, bits, msg_id) = delivery(obj, line)?;
            Ok(SimEvent::Deliver {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            })
        }
        "drop" => {
            let (round, from, to, port, bits, msg_id) = delivery(obj, line)?;
            Ok(SimEvent::Drop {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            })
        }
        "corrupt" => {
            let (round, from, to, port, bits, msg_id) = delivery(obj, line)?;
            Ok(SimEvent::Corrupt {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            })
        }
        "crash" => Ok(SimEvent::Crash {
            round: num(obj, "round", line)?,
            node: num(obj, "node", line)?,
        }),
        "compute" => Ok(SimEvent::NodeCompute {
            round: num(obj, "round", line)?,
            node: num(obj, "node", line)?,
            nanos: num(obj, "nanos", line)?,
        }),
        "transport" => Ok(SimEvent::TransportSummary {
            retransmissions: num(obj, "retransmissions", line)?,
            given_up: num(obj, "given_up", line)?,
            backoff_events: num(obj, "backoff_events", line)?,
        }),
        other => Err(err(line, format!("unknown event kind \"{other}\""))),
    }
}

/// Parses a whole JSONL dump (empty lines skipped) back into the event
/// stream it was rendered from. The round trip through
/// [`JsonlTrace::render`](congest::JsonlTrace::render) is exact.
pub fn parse_jsonl(dump: &str) -> Result<Vec<SimEvent>, ParseError> {
    dump.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l.trim(), i + 1))
        .collect()
}

/// Renders an event stream as a JSONL dump (the inverse of
/// [`parse_jsonl`]; trailing newline included when non-empty).
pub fn render_jsonl(events: &[SimEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&congest::JsonlTrace::render(ev));
        out.push('\n');
    }
    out
}

/// Extracts a `"key": [..]` numeric array from a run-report document.
/// Returns `None` when the key is absent.
fn u64_array(doc: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\":");
    let start = doc.find(&pat)? + pat.len();
    let rest = doc[start..].trim_start().strip_prefix('[')?;
    let end = rest.find(']')?;
    let body = rest[..end].trim();
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|s| s.trim().parse().ok()).collect()
}

/// Structural invariant checks for a schema-versioned run-report JSON
/// document (`congest.run_report`). Returns human-readable violations;
/// empty means the document is internally consistent:
///
/// * schema tag and version are present, and the version is one this
///   toolkit understands;
/// * braces and brackets balance (cheap well-formedness);
/// * the scalar fault tallies match their per-round and per-link series
///   (`dropped` == sum of `dropped_per_round`, `retransmissions` == sum
///   of both `retransmissions_per_round` and `retransmissions_per_link`)
///   when the series are present;
/// * the `per_round_bits` series has one entry per executed round.
pub fn check_run_report(doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    match raw_field(doc, "schema") {
        None => out.push("missing \"schema\" field".into()),
        Some(s) if s != congest::RUN_REPORT_SCHEMA => {
            out.push(format!(
                "schema \"{s}\" is not \"{}\"",
                congest::RUN_REPORT_SCHEMA
            ));
        }
        Some(_) => {}
    }
    match raw_field(doc, "version").and_then(|v| v.parse::<u32>().ok()) {
        None => out.push("missing or non-numeric \"version\" field".into()),
        Some(v) if v == 0 || v > congest::RUN_REPORT_VERSION => out.push(format!(
            "version {v} outside the supported range 1..={}",
            congest::RUN_REPORT_VERSION
        )),
        Some(_) => {}
    }
    if doc.matches('{').count() != doc.matches('}').count()
        || doc.matches('[').count() != doc.matches(']').count()
    {
        out.push("unbalanced braces or brackets".into());
    }
    let scalar = |key: &str| raw_field(doc, key).and_then(|v| v.parse::<u64>().ok());
    for (total_key, series_key) in [
        ("dropped", "dropped_per_round"),
        ("retransmissions", "retransmissions_per_round"),
        ("retransmissions", "retransmissions_per_link"),
    ] {
        if let (Some(total), Some(series)) = (scalar(total_key), u64_array(doc, series_key)) {
            let sum: u64 = series.iter().sum();
            if !series.is_empty() && sum != total {
                out.push(format!(
                    "\"{total_key}\" is {total} but \"{series_key}\" sums to {sum}"
                ));
            }
        }
    }
    if let (Some(rounds), Some(series)) = (scalar("rounds"), u64_array(doc, "per_round_bits")) {
        if series.len() as u64 != rounds {
            out.push(format!(
                "\"per_round_bits\" has {} entries but \"rounds\" is {rounds}",
                series.len()
            ));
        }
    }
    out
}

/// One `(sender, port)` entry of a flight-record header's heavy-edge
/// sketch: `bits` is the space-saving count (an overestimate by at most
/// `err`), `port` is `usize::MAX` for broadcast (rendered `-1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightTopEdge {
    /// Sending node.
    pub from: usize,
    /// Outgoing port (`usize::MAX` = broadcast).
    pub port: usize,
    /// Estimated bits sent over the edge (count of the sketch entry).
    pub bits: u64,
    /// Maximum overestimation inherited from evicted entries.
    pub err: u64,
}

/// One sender entry of a flight-record header's heavy-sender sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightTopSender {
    /// Sending node.
    pub from: usize,
    /// Estimated bits sent by the node (count of the sketch entry).
    pub bits: u64,
    /// Maximum overestimation inherited from evicted entries.
    pub err: u64,
}

/// A parsed flight-recorder dump (`congest.flight_record` — see
/// [`congest::FlightRecorder`]): the header's identity + streaming totals +
/// top-k sketches, the raw ring events (meta, last-K closed rounds, open
/// partial tail) and the reservoir-sampled sends.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Dump format version (header `version`).
    pub version: u32,
    /// Node count of the run (0 when no meta event was recorded).
    pub n: usize,
    /// Per-edge bandwidth in bits (0 when no meta event was recorded).
    pub bandwidth_bits: usize,
    /// Run seed (0 when no meta event was recorded).
    pub seed: u64,
    /// Closed rounds folded into the streaming totals.
    pub rounds: u64,
    /// Total bits over all closed rounds.
    pub bits: u64,
    /// Total messages over all closed rounds (broadcast counts per port).
    pub messages: u64,
    /// Total dropped messages over all closed rounds.
    pub dropped: u64,
    /// Total corrupted messages over all closed rounds.
    pub corrupted: u64,
    /// Delivery events seen (streamed; includes an open partial round).
    pub delivered: u64,
    /// Crash events seen (streamed; includes an open partial round).
    pub crashes: u64,
    /// Transport retransmissions (folded from transport summaries).
    pub retransmissions: u64,
    /// Messages the transport gave up on.
    pub given_up: u64,
    /// Transport backoff events.
    pub backoff_events: u64,
    /// Configured ring capacity in rounds.
    pub ring_capacity: usize,
    /// Closed rounds actually retained in the ring.
    pub ring_rounds: usize,
    /// Events lost to the per-round cap (cumulative over the run).
    pub ring_dropped_events: u64,
    /// Configured reservoir capacity.
    pub sample_capacity: usize,
    /// Sends actually retained in the reservoir.
    pub samples: usize,
    /// Total send events observed by the sampler.
    pub sends_seen: u64,
    /// The heaviest `(sender, port)` pairs by bits, heaviest first.
    pub top_edges: Vec<FlightTopEdge>,
    /// The heaviest senders by bits, heaviest first.
    pub top_senders: Vec<FlightTopSender>,
    /// Raw body events: the meta line, then the ring (last K closed
    /// rounds), then any open partial round, in dump order.
    pub events: Vec<SimEvent>,
    /// The reservoir sample (each a [`SimEvent::Send`]), in slot order.
    pub sampled_sends: Vec<SimEvent>,
}

/// Splits a `"key":[{..},{..}]` array of flat objects into its object
/// bodies. The flight-header sketch arrays nest no further brackets, so
/// the first `]` closes the array.
fn obj_array<'a>(doc: &'a str, key: &str) -> Option<Vec<&'a str>> {
    let pat = format!("\"{key}\":[");
    let start = doc.find(&pat)? + pat.len();
    let rest = &doc[start..];
    let end = rest.find(']')?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    Some(body.split("},{").collect())
}

/// Parses a flight-recorder dump (first line `congest.flight_record`
/// header, then JSONL body) back into a [`FlightRecord`]. Sample lines
/// (`"ev":"sample"`) are send lines in disguise; they parse into
/// [`FlightRecord::sampled_sends`].
pub fn parse_flight(dump: &str) -> Result<FlightRecord, ParseError> {
    let mut lines = dump
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (hidx, header) = lines.next().ok_or_else(|| err(1, "empty flight record"))?;
    let hline = hidx + 1;
    match raw_field(header, "schema") {
        Some(s) if s == congest::FLIGHT_RECORD_SCHEMA => {}
        Some(s) => {
            return Err(err(
                hline,
                format!(
                    "schema \"{s}\" is not \"{}\"",
                    congest::FLIGHT_RECORD_SCHEMA
                ),
            ))
        }
        None => return Err(err(hline, "missing field \"schema\"")),
    }
    let version: u32 = num(header, "version", hline)?;
    if version == 0 || version > congest::FLIGHT_RECORD_VERSION {
        return Err(err(
            hline,
            format!(
                "version {version} outside the supported range 1..={}",
                congest::FLIGHT_RECORD_VERSION
            ),
        ));
    }
    let top_edges = obj_array(header, "top_edges")
        .ok_or_else(|| err(hline, "missing \"top_edges\" array"))?
        .into_iter()
        .map(|o| {
            Ok(FlightTopEdge {
                from: num(o, "from", hline)?,
                port: port(o, hline)?,
                bits: num(o, "bits", hline)?,
                err: num(o, "err", hline)?,
            })
        })
        .collect::<Result<Vec<_>, ParseError>>()?;
    let top_senders = obj_array(header, "top_senders")
        .ok_or_else(|| err(hline, "missing \"top_senders\" array"))?
        .into_iter()
        .map(|o| {
            Ok(FlightTopSender {
                from: num(o, "from", hline)?,
                bits: num(o, "bits", hline)?,
                err: num(o, "err", hline)?,
            })
        })
        .collect::<Result<Vec<_>, ParseError>>()?;
    let mut events = Vec::new();
    let mut sampled_sends = Vec::new();
    for (i, l) in lines {
        let l = l.trim();
        let lineno = i + 1;
        if l.contains(r#""ev":"sample""#) {
            let as_send = l.replacen(r#""ev":"sample""#, r#""ev":"send""#, 1);
            match parse_line(&as_send, lineno)? {
                ev @ SimEvent::Send { .. } => sampled_sends.push(ev),
                _ => return Err(err(lineno, "\"sample\" line is not a send")),
            }
        } else {
            events.push(parse_line(l, lineno)?);
        }
    }
    Ok(FlightRecord {
        version,
        n: num(header, "n", hline)?,
        bandwidth_bits: num(header, "bandwidth", hline)?,
        seed: num(header, "seed", hline)?,
        rounds: num(header, "rounds", hline)?,
        bits: num(header, "bits", hline)?,
        messages: num(header, "messages", hline)?,
        dropped: num(header, "dropped", hline)?,
        corrupted: num(header, "corrupted", hline)?,
        delivered: num(header, "delivered", hline)?,
        crashes: num(header, "crashes", hline)?,
        retransmissions: num(header, "retransmissions", hline)?,
        given_up: num(header, "given_up", hline)?,
        backoff_events: num(header, "backoff_events", hline)?,
        ring_capacity: num(header, "ring_capacity", hline)?,
        ring_rounds: num(header, "ring_rounds", hline)?,
        ring_dropped_events: num(header, "ring_dropped_events", hline)?,
        sample_capacity: num(header, "sample_capacity", hline)?,
        samples: num(header, "samples", hline)?,
        sends_seen: num(header, "sends_seen", hline)?,
        top_edges,
        top_senders,
        events,
        sampled_sends,
    })
}

/// Structural invariant checks for a flight-recorder dump. Returns
/// human-readable violations; empty means the dump is internally
/// consistent. The full-trace checker ([`congest::obsv::check`]) cannot
/// run here — the ring's causal deps reference messages that aged out —
/// so these are the invariants a *windowed* dump does guarantee:
///
/// * the header parses, with a supported schema/version, and braces and
///   brackets balance;
/// * ring rounds are properly bracketed (`round_start` / `round_end`
///   pairs, at most one open partial round at the tail) and their count
///   matches the header within the configured capacity;
/// * per-round event counts never exceed the closing `round_end` tallies
///   (they can undercount — the per-round cap truncates, broadcasts fan
///   out, and receiver-down drops carry no event — but never overcount);
/// * the reservoir is exactly `min(sample_capacity, sends_seen)` sends;
/// * streamed totals are mutually consistent when no round is open;
/// * both sketches are sorted heaviest-first with `err <= bits`.
pub fn check_flight(doc: &str) -> Vec<String> {
    let rec = match parse_flight(doc) {
        Ok(r) => r,
        Err(e) => return vec![e.to_string()],
    };
    let mut out = Vec::new();
    if doc.matches('{').count() != doc.matches('}').count()
        || doc.matches('[').count() != doc.matches(']').count()
    {
        out.push("unbalanced braces or brackets".into());
    }
    if rec.ring_rounds > rec.ring_capacity {
        out.push(format!(
            "header retains {} ring rounds but capacity is {}",
            rec.ring_rounds, rec.ring_capacity
        ));
    }
    if rec.rounds < rec.ring_rounds as u64 {
        out.push(format!(
            "header retains {} ring rounds but only {} rounds closed",
            rec.ring_rounds, rec.rounds
        ));
    }
    let expect_samples = rec.sends_seen.min(rec.sample_capacity as u64);
    if rec.samples as u64 != expect_samples {
        out.push(format!(
            "reservoir holds {} samples; min(capacity {}, sends_seen {}) is {expect_samples}",
            rec.samples, rec.sample_capacity, rec.sends_seen
        ));
    }
    if rec.sampled_sends.len() != rec.samples {
        out.push(format!(
            "header says {} samples but the body carries {}",
            rec.samples,
            rec.sampled_sends.len()
        ));
    }
    let mut open_round: Option<usize> = None;
    let mut closed_rounds = 0usize;
    let (mut sends, mut drops, mut corrupts) = (0u64, 0u64, 0u64);
    let mut meta_seen = false;
    for (i, ev) in rec.events.iter().enumerate() {
        match *ev {
            SimEvent::Meta { .. } => {
                if meta_seen {
                    out.push("duplicate meta line in the body".into());
                }
                if i != 0 {
                    out.push("meta line is not first in the body".into());
                }
                meta_seen = true;
            }
            SimEvent::RoundStart { round } => {
                if let Some(r) = open_round {
                    out.push(format!("round {round} starts while round {r} is open"));
                }
                open_round = Some(round);
                (sends, drops, corrupts) = (0, 0, 0);
            }
            SimEvent::Send { .. } => sends += 1,
            SimEvent::Drop { .. } => drops += 1,
            SimEvent::Corrupt { .. } => corrupts += 1,
            SimEvent::Deliver { .. } | SimEvent::Crash { .. } => {}
            SimEvent::RoundEnd {
                round,
                messages,
                dropped,
                corrupted,
                ..
            } => {
                match open_round.take() {
                    Some(r) if r == round => {}
                    Some(r) => out.push(format!("round_end for round {round} inside round {r}")),
                    None => out.push(format!("round_end for round {round} without a round_start")),
                }
                closed_rounds += 1;
                for (label, counted, tally) in [
                    ("send events", sends, messages),
                    ("drop events", drops, dropped),
                    ("corrupt events", corrupts, corrupted),
                ] {
                    if counted > tally {
                        out.push(format!(
                            "round {round}: {counted} {label} exceed the round_end tally {tally}"
                        ));
                    }
                }
            }
            _ => out.push(format!(
                "unexpected event kind in the ring (line-order index {i})"
            )),
        }
    }
    if closed_rounds != rec.ring_rounds {
        out.push(format!(
            "header says {} ring rounds but the body closes {closed_rounds}",
            rec.ring_rounds
        ));
    }
    // Streamed totals (delivered, sends_seen) include an open partial
    // round the folded totals don't — comparable only when none is open.
    if open_round.is_none() {
        if rec.delivered + rec.dropped + rec.corrupted > rec.messages {
            out.push(format!(
                "totals: delivered {} + dropped {} + corrupted {} exceeds messages {}",
                rec.delivered, rec.dropped, rec.corrupted, rec.messages
            ));
        }
        if rec.sends_seen > rec.messages {
            out.push(format!(
                "totals: {} sends seen but only {} messages accounted",
                rec.sends_seen, rec.messages
            ));
        }
    }
    for (name, entries) in [
        (
            "top_edges",
            rec.top_edges
                .iter()
                .map(|e| (e.bits, e.err))
                .collect::<Vec<_>>(),
        ),
        (
            "top_senders",
            rec.top_senders
                .iter()
                .map(|e| (e.bits, e.err))
                .collect::<Vec<_>>(),
        ),
    ] {
        if entries.windows(2).any(|w| w[0].0 < w[1].0) {
            out.push(format!("\"{name}\" is not sorted heaviest-first"));
        }
        if entries.iter().any(|&(bits, err)| err > bits) {
            out.push(format!("\"{name}\" has an entry with err > bits"));
        }
    }
    out
}

/// Renders a parsed flight record as the human-readable `tail` view: run
/// identity, streaming totals, the retained ring as per-round aggregate
/// lines (plus any open partial round), both top-k sketches, and the
/// sample count. Deterministic — derived entirely from the dump.
pub fn render_flight_tail(rec: &FlightRecord) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight record v{}: n={} bandwidth={}b seed={}",
        rec.version, rec.n, rec.bandwidth_bits, rec.seed
    );
    let _ = writeln!(
        out,
        "totals: {} rounds, {} bits, {} messages ({} delivered, {} dropped, {} corrupted, {} crashes)",
        rec.rounds, rec.bits, rec.messages, rec.delivered, rec.dropped, rec.corrupted, rec.crashes
    );
    if rec.retransmissions + rec.given_up + rec.backoff_events > 0 {
        let _ = writeln!(
            out,
            "transport: {} retransmissions, {} given up, {} backoff events",
            rec.retransmissions, rec.given_up, rec.backoff_events
        );
    }
    let _ = writeln!(
        out,
        "ring: last {} of {} rounds ({} events truncated by the per-round cap)",
        rec.ring_rounds, rec.rounds, rec.ring_dropped_events
    );
    let mut open_round: Option<usize> = None;
    let mut open_events = 0usize;
    for ev in &rec.events {
        match *ev {
            SimEvent::RoundStart { round } => {
                open_round = Some(round);
                open_events = 0;
            }
            SimEvent::RoundEnd {
                round,
                bits,
                messages,
                dropped,
                corrupted,
            } => {
                open_round = None;
                let _ = writeln!(
                    out,
                    "  round {round}: {messages} messages, {bits} bits, {dropped} dropped, {corrupted} corrupted"
                );
            }
            SimEvent::Meta { .. } => {}
            _ => open_events += 1,
        }
    }
    if let Some(round) = open_round {
        let _ = writeln!(
            out,
            "  round {round} (partial): {open_events} events buffered"
        );
    }
    if !rec.top_edges.is_empty() {
        let _ = writeln!(out, "top edges (bits, +err overestimate):");
        for e in &rec.top_edges {
            let port = if e.port == usize::MAX {
                "broadcast".to_string()
            } else {
                format!("port {}", e.port)
            };
            let _ = writeln!(
                out,
                "  node {} -> {}: {} (+{})",
                e.from, port, e.bits, e.err
            );
        }
    }
    if !rec.top_senders.is_empty() {
        let _ = writeln!(out, "top senders (bits, +err overestimate):");
        for e in &rec.top_senders {
            let _ = writeln!(out, "  node {}: {} (+{})", e.from, e.bits, e.err);
        }
    }
    let _ = writeln!(
        out,
        "samples: {} of {} sends (seeded reservoir)",
        rec.samples, rec.sends_seen
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<SimEvent> {
        vec![
            SimEvent::Meta {
                n: 9,
                bandwidth_bits: 32,
                seed: 7,
            },
            SimEvent::Phase {
                name: "phase1".into(),
                repetition: 3,
            },
            SimEvent::RoundStart { round: 1 },
            SimEvent::Send {
                round: 1,
                from: 0,
                port: usize::MAX,
                bits: 16,
                msg_id: 0,
                deps: Arc::from([]),
            },
            SimEvent::Send {
                round: 2,
                from: 1,
                port: 0,
                bits: 8,
                msg_id: 1,
                deps: Arc::from([0u64, 5]),
            },
            SimEvent::Deliver {
                round: 1,
                from: 0,
                to: 1,
                port: 0,
                bits: 16,
                msg_id: 0,
            },
            SimEvent::Drop {
                round: 1,
                from: 2,
                to: 3,
                port: 1,
                bits: 4,
                msg_id: 2,
            },
            SimEvent::Corrupt {
                round: 1,
                from: 3,
                to: 2,
                port: 0,
                bits: 4,
                msg_id: 3,
            },
            SimEvent::Crash { round: 2, node: 5 },
            SimEvent::NodeCompute {
                round: 2,
                node: 1,
                nanos: 12345,
            },
            SimEvent::RoundEnd {
                round: 2,
                bits: 28,
                messages: 3,
                dropped: 1,
                corrupted: 1,
            },
            SimEvent::TransportSummary {
                retransmissions: 4,
                given_up: 1,
                backoff_events: 2,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        let events = all_kinds();
        let dump = render_jsonl(&events);
        let back = parse_jsonl(&dump).expect("round trip must parse");
        assert_eq!(back, events);
        // And re-rendering is byte-identical.
        assert_eq!(render_jsonl(&back), dump);
    }

    #[test]
    fn broadcast_port_round_trips_through_minus_one() {
        let ev = SimEvent::Send {
            round: 1,
            from: 0,
            port: usize::MAX,
            bits: 8,
            msg_id: 0,
            deps: Arc::from([]),
        };
        let line = congest::JsonlTrace::render(&ev);
        assert!(line.contains(r#""port":-1"#));
        assert_eq!(parse_line(&line, 1).unwrap(), ev);
    }

    #[test]
    fn empty_and_blank_lines_are_skipped() {
        let dump = "\n{\"ev\":\"round_start\",\"round\":1}\n\n";
        assert_eq!(
            parse_jsonl(dump).unwrap(),
            vec![SimEvent::RoundStart { round: 1 }]
        );
        assert_eq!(parse_jsonl("").unwrap(), Vec::new());
    }

    #[test]
    fn unknown_event_kind_is_a_loud_error() {
        let e = parse_jsonl("{\"ev\":\"warp\",\"round\":1}").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("warp"), "{e}");
    }

    fn report_doc(dropped: u64, version: u32) -> String {
        format!(
            "{{\n  \"schema\": \"congest.run_report\",\n  \"version\": {version},\n  \
             \"rounds\": 2,\n  \"per_round_bits\": [8,8],\n  \"faults\": \
             {{\"delivered\":2,\"dropped\":{dropped},\"corrupted\":0,\"crashed\":0,\
             \"retransmissions\":3,\"given_up\":0,\"dropped_per_round\":[1,0],\
             \"retransmissions_per_round\":[2,1]}}\n}}\n"
        )
    }

    #[test]
    fn run_report_checker_accepts_consistent_documents() {
        assert_eq!(check_run_report(&report_doc(1, 2)), Vec::<String>::new());
    }

    #[test]
    fn run_report_checker_flags_tally_and_version_drift() {
        let v = check_run_report(&report_doc(2, 2));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("dropped_per_round"), "{v:?}");
        let v = check_run_report(&report_doc(1, 99));
        assert!(v.iter().any(|m| m.contains("version 99")), "{v:?}");
        let v = check_run_report("{\"version\": 2}");
        assert!(v.iter().any(|m| m.contains("schema")), "{v:?}");
    }

    #[test]
    fn run_report_checker_flags_per_link_drift() {
        // A v3 document whose per-link series disagrees with the scalar.
        let doc = report_doc(1, 3).replace(
            "\"retransmissions_per_round\":[2,1]",
            "\"retransmissions_per_round\":[2,1],\"retransmissions_per_link\":[2,2]",
        );
        let v = check_run_report(&doc);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("retransmissions_per_link"), "{v:?}");
    }

    #[test]
    fn run_report_checker_validates_the_canonical_reports() {
        for report in bench::canonical::canonical_run_reports() {
            let v = check_run_report(&report.to_json());
            assert_eq!(v, Vec::<String>::new(), "report {}", report.label);
        }
    }

    #[test]
    fn missing_field_reports_line_and_key() {
        let e = parse_jsonl("{\"ev\":\"round_start\"}").unwrap_err();
        assert!(e.message.contains("round"), "{e}");
        let two = "{\"ev\":\"round_start\",\"round\":1}\n{\"ev\":\"send\",\"round\":2}";
        assert_eq!(parse_jsonl(two).unwrap_err().line, 2);
    }

    #[test]
    fn canonical_flight_record_parses_and_checks_clean() {
        let dump = bench::canonical::canonical_flight_record();
        let rec = parse_flight(&dump).expect("canonical flight record must parse");
        assert_eq!(rec.version, congest::FLIGHT_RECORD_VERSION);
        assert_eq!(rec.n, 48);
        assert!(rec.rounds > 0 && rec.messages > 0);
        assert_eq!(rec.ring_rounds, 4, "small canonical ring retains 4 rounds");
        assert_eq!(rec.samples, 32, "the 32-slot reservoir must be full");
        assert_eq!(rec.sampled_sends.len(), 32);
        assert!(!rec.top_edges.is_empty() && !rec.top_senders.is_empty());
        assert_eq!(check_flight(&dump), Vec::<String>::new());
    }

    #[test]
    fn flight_tail_renders_totals_ring_and_sketches() {
        let dump = bench::canonical::canonical_flight_record();
        let rec = parse_flight(&dump).expect("canonical flight record must parse");
        let tail = render_flight_tail(&rec);
        assert!(tail.starts_with("flight record v1: n=48"), "{tail}");
        assert!(tail.contains("totals:"), "{tail}");
        assert!(tail.contains("ring: last 4 of"), "{tail}");
        assert!(tail.contains("top edges"), "{tail}");
        assert!(tail.contains("top senders"), "{tail}");
        assert!(tail.contains("samples: 32 of"), "{tail}");
    }

    #[test]
    fn flight_checker_flags_header_drift() {
        let dump = bench::canonical::canonical_flight_record();
        // Claim one more retained ring round than the body closes.
        let drifted = dump.replacen(r#""ring_rounds":4"#, r#""ring_rounds":5"#, 1);
        let v = check_flight(&drifted);
        assert!(
            v.iter().any(|m| m.contains("ring rounds")),
            "expected a ring-round violation, got {v:?}"
        );
        // Claim a sample count the reservoir law contradicts.
        let drifted = dump.replacen(r#""samples":32"#, r#""samples":31"#, 1);
        let v = check_flight(&drifted);
        assert!(
            v.iter().any(|m| m.contains("reservoir")),
            "expected a reservoir violation, got {v:?}"
        );
        // A wrong schema tag fails loudly at parse time.
        let bad = dump.replacen("congest.flight_record", "congest.black_box", 1);
        let v = check_flight(&bad);
        assert!(v.iter().any(|m| m.contains("schema")), "{v:?}");
    }

    #[test]
    fn flight_sample_lines_parse_as_sends() {
        let dump = bench::canonical::canonical_flight_record();
        let rec = parse_flight(&dump).expect("canonical flight record must parse");
        for ev in &rec.sampled_sends {
            assert!(matches!(ev, SimEvent::Send { .. }));
        }
        let e = parse_flight(
            "{\"schema\":\"congest.flight_record\",\"version\":1,\"n\":0,\"bandwidth\":0,\
             \"seed\":0,\"rounds\":0,\"bits\":0,\"messages\":0,\"dropped\":0,\"corrupted\":0,\
             \"delivered\":0,\"crashes\":0,\"retransmissions\":0,\"given_up\":0,\
             \"backoff_events\":0,\"ring_capacity\":4,\"ring_rounds\":0,\
             \"ring_dropped_events\":0,\"sample_capacity\":4,\"samples\":0,\"sends_seen\":0,\
             \"top_edges\":[],\"top_senders\":[]}\n{\"ev\":\"sample\",\"round\":1}",
        )
        .unwrap_err();
        assert_eq!(e.line, 2, "a malformed sample line reports its line");
    }

    #[test]
    fn flight_golden_matches_generator() {
        // The committed golden (tests/golden/flight_record.jsonl at the
        // workspace root) must match the generator byte-for-byte; the
        // root-package `flight_record` test owns regeneration
        // (UPDATE_GOLDEN=1 cargo test --test flight_record).
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/flight_record.jsonl");
        let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden {}; regenerate with UPDATE_GOLDEN=1 cargo test --test flight_record",
                path.display()
            )
        });
        assert_eq!(
            bench::canonical::canonical_flight_record(),
            want,
            "flight record drifted from its golden; if intentional, bump \
             FLIGHT_RECORD_VERSION and regenerate with UPDATE_GOLDEN=1"
        );
    }
}
