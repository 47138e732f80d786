//! Offline trace tooling for the `congest` simulators.
//!
//! The simulators export their structured event stream as JSON lines
//! (one [`SimEvent`] per line, rendered by
//! [`JsonlTrace::render`](congest::JsonlTrace::render)). This crate is the
//! other direction: [`parse_jsonl`] reads such a dump back into event
//! values so the [`congest::obsv::analyze`] consumers — invariant checker,
//! critical-path extractor, heatmap, diff — run against traces recorded in
//! a different process (or a different machine); [`parse_flight`] and
//! [`check_run_report`] do the same for flight records and run reports.
//! The `congest-trace` binary wraps the whole round trip as a command-line
//! toolkit.
//!
//! Every document is read through [`congest::json`], the workspace's one
//! JSON reader, so any valid JSON the writers could have produced parses
//! (key order, whitespace and string contents are free). Event lines decode
//! through [`JsonlTrace::decode`](congest::JsonlTrace::decode), which sits
//! beside the renderer that wrote them. Unknown `ev` tags are an error — a
//! trace from a newer schema should fail loudly, not be silently half-read.

#![warn(missing_docs)]

use congest::json::{self, Value};
use congest::obsv::collect::port_field;
use congest::obsv::TopEntry;
use congest::{JsonlTrace, SimEvent};

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

/// The non-blank lines of a dump, trimmed, with their 1-based numbers.
fn numbered_lines(dump: &str) -> impl Iterator<Item = (usize, &str)> {
    dump.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
}

/// Parses a whole JSONL dump (empty lines skipped) back into the event
/// stream it was rendered from. The round trip through
/// [`JsonlTrace::render`](congest::JsonlTrace::render) is exact.
pub fn parse_jsonl(dump: &str) -> Result<Vec<SimEvent>, ParseError> {
    numbered_lines(dump)
        .map(|(line, text)| {
            json::parse(text)
                .and_then(|v| JsonlTrace::decode(&v))
                .map_err(|m| err(line, m))
        })
        .collect()
}

/// Renders an event stream as a JSONL dump (the inverse of
/// [`parse_jsonl`]; trailing newline included when non-empty).
pub fn render_jsonl(events: &[SimEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&JsonlTrace::render(ev));
        out.push('\n');
    }
    out
}

/// Structural invariant checks for a schema-versioned run-report JSON
/// document (`congest.run_report`). Returns human-readable violations;
/// empty means the document is internally consistent:
///
/// * the document parses as JSON (otherwise the parser's message is the
///   one violation);
/// * schema tag and version are present, and the version is one this
///   toolkit understands;
/// * the scalar fault tallies match their per-round and per-link series
///   (`faults.dropped` == sum of `dropped_per_round`, `retransmissions` ==
///   sum of both `retransmissions_per_round` and
///   `retransmissions_per_link`) when the series are present;
/// * the `per_round_bits` series has one entry per executed round.
pub fn check_run_report(doc: &str) -> Vec<String> {
    let report = match json::parse(doc) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let mut out = Vec::new();
    match report.get("schema").and_then(Value::as_str) {
        None => out.push("missing \"schema\" field".into()),
        Some(s) if s != congest::RUN_REPORT_SCHEMA => {
            out.push(format!(
                "schema \"{s}\" is not \"{}\"",
                congest::RUN_REPORT_SCHEMA
            ));
        }
        Some(_) => {}
    }
    match report.int::<u32>("version") {
        Err(_) => out.push("missing or non-numeric \"version\" field".into()),
        Ok(v) if v == 0 || v > congest::RUN_REPORT_VERSION => out.push(format!(
            "version {v} outside the supported range 1..={}",
            congest::RUN_REPORT_VERSION
        )),
        Ok(_) => {}
    }
    let series = |obj: Option<&Value>, key: &str| -> Option<Vec<u64>> {
        obj?.get(key)?
            .as_array()?
            .iter()
            .map(Value::as_u64)
            .collect()
    };
    let faults = report.get("faults");
    for (total_key, series_key) in [
        ("dropped", "dropped_per_round"),
        ("retransmissions", "retransmissions_per_round"),
        ("retransmissions", "retransmissions_per_link"),
    ] {
        let total = faults
            .and_then(|f| f.get(total_key))
            .and_then(Value::as_u64);
        if let (Some(total), Some(series)) = (total, series(faults, series_key)) {
            let sum: u64 = series.iter().sum();
            if !series.is_empty() && sum != total {
                out.push(format!(
                    "\"{total_key}\" is {total} but \"{series_key}\" sums to {sum}"
                ));
            }
        }
    }
    let rounds = report.get("rounds").and_then(Value::as_u64);
    if let (Some(rounds), Some(series)) = (rounds, series(Some(&report), "per_round_bits")) {
        if series.len() as u64 != rounds {
            out.push(format!(
                "\"per_round_bits\" has {} entries but \"rounds\" is {rounds}",
                series.len()
            ));
        }
    }
    out
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
    pub top_edges: Vec<TopEntry<(usize, usize)>>,
    /// The heaviest senders by bits, heaviest first.
    pub top_senders: Vec<TopEntry<usize>>,
    /// Raw body events: the meta line, then the ring (last K closed
    /// rounds), then any open partial round, in dump order.
    pub events: Vec<SimEvent>,
    /// The reservoir sample (each a [`SimEvent::Send`]), in slot order.
    pub sampled_sends: Vec<SimEvent>,
}

/// Reads a flight-record header line: schema tag, version, streaming
/// totals and both sketches (the body vectors are left empty).
fn flight_header(h: &Value) -> Result<FlightRecord, String> {
    match h.get("schema").and_then(Value::as_str) {
        Some(congest::FLIGHT_RECORD_SCHEMA) => {}
        Some(s) => {
            return Err(format!(
                "schema \"{s}\" is not \"{}\"",
                congest::FLIGHT_RECORD_SCHEMA
            ))
        }
        None => return Err("missing field \"schema\"".into()),
    }
    let version: u32 = h.int("version")?;
    if version == 0 || version > congest::FLIGHT_RECORD_VERSION {
        return Err(format!(
            "version {version} outside the supported range 1..={}",
            congest::FLIGHT_RECORD_VERSION
        ));
    }
    let sketch = |key: &str| {
        h.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("missing \"{key}\" array"))
    };
    let top_edges = sketch("top_edges")?
        .iter()
        .map(|e| {
            Ok(TopEntry {
                key: (e.int("from")?, port_field(e)?),
                count: e.int("bits")?,
                err: e.int("err")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let top_senders = sketch("top_senders")?
        .iter()
        .map(|e| {
            Ok(TopEntry {
                key: e.int("from")?,
                count: e.int("bits")?,
                err: e.int("err")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(FlightRecord {
        version,
        n: h.int("n")?,
        bandwidth_bits: h.int("bandwidth")?,
        seed: h.int("seed")?,
        rounds: h.int("rounds")?,
        bits: h.int("bits")?,
        messages: h.int("messages")?,
        dropped: h.int("dropped")?,
        corrupted: h.int("corrupted")?,
        delivered: h.int("delivered")?,
        crashes: h.int("crashes")?,
        retransmissions: h.int("retransmissions")?,
        given_up: h.int("given_up")?,
        backoff_events: h.int("backoff_events")?,
        ring_capacity: h.int("ring_capacity")?,
        ring_rounds: h.int("ring_rounds")?,
        ring_dropped_events: h.int("ring_dropped_events")?,
        sample_capacity: h.int("sample_capacity")?,
        samples: h.int("samples")?,
        sends_seen: h.int("sends_seen")?,
        top_edges,
        top_senders,
        events: Vec::new(),
        sampled_sends: Vec::new(),
    })
}

/// Parses a flight-recorder dump (first line `congest.flight_record`
/// header, then JSONL body) back into a [`FlightRecord`]. Sample lines
/// (`"ev":"sample"`) decode through
/// [`JsonlTrace::decode_sample`](congest::JsonlTrace::decode_sample) into
/// [`FlightRecord::sampled_sends`]; every other line is a ring event.
pub fn parse_flight(dump: &str) -> Result<FlightRecord, ParseError> {
    let mut lines = numbered_lines(dump);
    let (hline, header) = lines.next().ok_or_else(|| err(1, "empty flight record"))?;
    let mut rec = json::parse(header)
        .and_then(|h| flight_header(&h))
        .map_err(|m| err(hline, m))?;
    for (line, text) in lines {
        let v = json::parse(text).map_err(|m| err(line, m))?;
        if v.get("ev").and_then(Value::as_str) == Some("sample") {
            let ev = JsonlTrace::decode_sample(&v).map_err(|m| err(line, m))?;
            rec.sampled_sends.push(ev);
        } else {
            rec.events
                .push(JsonlTrace::decode(&v).map_err(|m| err(line, m))?);
        }
    }
    Ok(rec)
}

/// Structural invariant checks for a flight-recorder dump. Returns
/// human-readable violations; empty means the dump is internally
/// consistent. The full-trace checker ([`congest::obsv::check`]) cannot
/// run here — the ring's causal deps reference messages that aged out —
/// so these are the invariants a *windowed* dump does guarantee:
///
/// * every line parses, and the header has a supported schema/version
///   (otherwise the parse error is the one violation);
/// * ring rounds are properly bracketed (`round_start` / `round_end`
///   pairs, at most one open partial round at the tail) and their count
///   matches the header within the configured capacity;
/// * per-round event counts never exceed the closing `round_end` tallies
///   (they can undercount — the per-round cap truncates and a broadcast
///   is one send event charged on every port — but never overcount);
/// * the reservoir is exactly `min(sample_capacity, sends_seen)` sends;
/// * streamed totals are mutually consistent when no round is open;
/// * both sketches are sorted heaviest-first with `err <= bits`.
pub fn check_flight(doc: &str) -> Vec<String> {
    let rec = match parse_flight(doc) {
        Ok(r) => r,
        Err(e) => return vec![e.to_string()],
    };
    let mut out = Vec::new();
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
    sketch_law("top_edges", &rec.top_edges, &mut out);
    sketch_law("top_senders", &rec.top_senders, &mut out);
    out
}

/// A top-k sketch is sorted heaviest-first and no entry's overestimate
/// exceeds its count.
fn sketch_law<K>(name: &str, entries: &[TopEntry<K>], out: &mut Vec<String>) {
    if entries.windows(2).any(|w| w[0].count < w[1].count) {
        out.push(format!("\"{name}\" is not sorted heaviest-first"));
    }
    if entries.iter().any(|e| e.err > e.count) {
        out.push(format!("\"{name}\" has an entry with err > bits"));
    }
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
        for &TopEntry {
            key: (from, port),
            count,
            err,
        } in &rec.top_edges
        {
            let port = if port == usize::MAX {
                "broadcast".to_string()
            } else {
                format!("port {port}")
            };
            let _ = writeln!(out, "  node {from} -> {port}: {count} (+{err})");
        }
    }
    if !rec.top_senders.is_empty() {
        let _ = writeln!(out, "top senders (bits, +err overestimate):");
        for e in &rec.top_senders {
            let _ = writeln!(out, "  node {}: {} (+{})", e.key, e.count, e.err);
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

    #[test]
    fn canonical_trace_round_trips() {
        // Every event kind, with arbitrary values, is pinned by the
        // render/decode proptest in `congest`; this pins the dump-level
        // wrapper on a real run.
        let (_, events) = bench::canonical::canonical_fault_free_traced();
        let dump = render_jsonl(&events);
        let back = parse_jsonl(&dump).expect("round trip must parse");
        assert_eq!(back, events);
        // And re-rendering is byte-identical.
        assert_eq!(render_jsonl(&back), dump);
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

    /// The fault-free golden run report, as committed.
    fn golden_report() -> String {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/run_report_even_cycle_fault_free.json");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn run_report_checker_accepts_a_brace_in_the_label() {
        let doc = golden_report().replacen(
            r#""label": "even_cycle_fault_free""#,
            r#""label": "probe{1""#,
            1,
        );
        assert!(doc.contains("probe{1"));
        assert_eq!(check_run_report(&doc), Vec::<String>::new());
    }

    #[test]
    fn run_report_checker_accepts_spaced_separators() {
        let doc = golden_report()
            .replace("\": ", "\":")
            .replace("\":", "\" : ");
        assert!(doc.contains(r#""schema" : "congest.run_report""#));
        assert_eq!(check_run_report(&doc), Vec::<String>::new());
        // The spaced document is still checked, not waved through.
        let drifted = doc.replacen(r#""rounds" : 2272"#, r#""rounds" : 2271"#, 1);
        let v = check_run_report(&drifted);
        assert!(v.iter().any(|m| m.contains("per_round_bits")), "{v:?}");
    }

    #[test]
    fn run_report_checker_reports_the_parse_error() {
        let doc = golden_report();
        let truncated = &doc[..doc.len() - 3];
        let v = check_run_report(truncated);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("not valid JSON: "), "{v:?}");
        assert!(v[0].contains("at byte"), "{v:?}");
        let nested = format!("{}{}", "[".repeat(1000), "]".repeat(1000));
        let v = check_run_report(&nested);
        assert!(v[0].contains("nesting deeper"), "{v:?}");
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
