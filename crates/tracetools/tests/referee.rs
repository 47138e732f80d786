//! Referee test for the critical-path analyzer (the ISSUE 5 acceptance
//! gate): on the canonical planted-`C_4` even-cycle run, an *independent*
//! reconstruction of the happens-before DAG — built here from nothing but
//! the `Send` events, with its own brute-force longest-path search — must
//! agree with `congest::obsv::critical_path` on every segment, and the
//! chains the analyzer reports must be valid causal chains achieving the
//! optimum. The trace is also round-tripped through the JSONL
//! serialization first, so the referee exercises exactly what the
//! `congest-trace` binary would read off disk.

use congest::SimEvent;
use std::collections::HashMap;

/// One segment's sends, keyed by msg_id, plus its phase label.
struct Segment {
    phase: String,
    repetition: usize,
    /// msg_id -> (bits, deps)
    sends: HashMap<u64, (u64, Vec<u64>)>,
}

/// Splits a trace on `Meta` headers, labeling each segment with the
/// nearest preceding `Phase` marker — independent of the analyzer's own
/// segmentation code.
fn split_segments(events: &[SimEvent]) -> Vec<Segment> {
    let mut out: Vec<Segment> = Vec::new();
    let mut pending: Option<(String, usize)> = None;
    for ev in events {
        match ev {
            SimEvent::Phase { name, repetition } => {
                pending = Some((name.to_string(), *repetition));
            }
            SimEvent::Meta { .. } => {
                let (phase, repetition) = pending.take().unwrap_or(("run".into(), 0));
                out.push(Segment {
                    phase,
                    repetition,
                    sends: HashMap::new(),
                });
            }
            SimEvent::Send {
                bits, msg_id, deps, ..
            } => {
                let seg = out.last_mut().expect("send before any Meta header");
                let prev = seg
                    .sends
                    .insert(*msg_id, (*bits as u64, deps.iter().copied().collect()));
                assert!(prev.is_none(), "duplicate msg_id {msg_id} in a segment");
            }
            _ => {}
        }
    }
    out
}

/// Brute-force longest weighted path ending at `id`: bits of the message
/// plus the heaviest chain among its causal dependencies. Memoized
/// recursion — correct by induction, no relation to the analyzer's
/// streaming DP.
fn longest_ending_at(
    id: u64,
    sends: &HashMap<u64, (u64, Vec<u64>)>,
    memo: &mut HashMap<u64, u64>,
) -> u64 {
    if let Some(&w) = memo.get(&id) {
        return w;
    }
    let (bits, deps) = &sends[&id];
    let best_dep = deps
        .iter()
        .filter(|d| sends.contains_key(d))
        .map(|d| longest_ending_at(*d, sends, memo))
        .max()
        .unwrap_or(0);
    let w = bits + best_dep;
    memo.insert(id, w);
    w
}

#[test]
fn analyzer_critical_path_matches_brute_force_on_the_canonical_run() {
    let (_, events) = bench::canonical::canonical_fault_free_traced();
    assert!(!events.is_empty(), "canonical run recorded no events");

    // Round-trip through the on-disk format first: the analyzer input is
    // what `congest-trace` would parse back from a written trace.
    let events = tracetools::parse_jsonl(&tracetools::render_jsonl(&events))
        .expect("canonical trace must round-trip");

    let violations = congest::obsv::check(&events);
    assert!(
        violations.is_empty(),
        "trace invariants violated: {violations:?}"
    );

    let summary = congest::obsv::critical_path(&events);
    let segments = split_segments(&events);
    assert_eq!(
        summary.segments.len(),
        segments.len(),
        "analyzer and referee disagree on segmentation"
    );

    let mut saw_messages = false;
    for (seg, ours) in summary.segments.iter().zip(&segments) {
        assert_eq!(seg.phase, ours.phase);
        assert_eq!(seg.repetition, ours.repetition);
        assert_eq!(seg.messages, ours.sends.len() as u64);

        // Brute-force optimum over every possible chain endpoint.
        let mut memo = HashMap::new();
        let brute: u64 = ours
            .sends
            .keys()
            .map(|&id| longest_ending_at(id, &ours.sends, &mut memo))
            .max()
            .unwrap_or(0);
        assert_eq!(
            seg.path_bits, brute,
            "segment {}/{}: analyzer path_bits != brute-force longest path",
            seg.phase, seg.repetition
        );

        // The reported chain must be a real causal chain of that weight.
        assert_eq!(seg.chain.len(), seg.path_len);
        let chain_bits: u64 = seg.chain.iter().map(|h| h.bits as u64).sum();
        assert_eq!(chain_bits, seg.path_bits, "chain weight mismatch");
        for pair in seg.chain.windows(2) {
            let (_, deps) = &ours.sends[&pair[1].msg_id];
            assert!(
                deps.contains(&pair[0].msg_id),
                "chain hop {} is not a causal dep of {}",
                pair[0].msg_id,
                pair[1].msg_id
            );
        }
        if seg.messages > 0 {
            saw_messages = true;
        }
    }
    assert!(saw_messages, "canonical run sent no messages at all");

    // Phase attribution: both detector phases appear, and each phase
    // aggregate is exactly the max over its segments.
    for want in ["phase1", "phase2"] {
        let agg = summary
            .phases
            .iter()
            .find(|p| p.phase == want)
            .unwrap_or_else(|| panic!("phase {want} missing from summary"));
        let max_bits = summary
            .segments
            .iter()
            .filter(|s| s.phase == want)
            .map(|s| s.path_bits)
            .max()
            .unwrap_or(0);
        assert_eq!(agg.max_path_bits, max_bits);
    }
    // Phase II does the detecting on this instance; its critical path is
    // a non-trivial dependent-message chain.
    let p2 = summary.phases.iter().find(|p| p.phase == "phase2").unwrap();
    assert!(p2.max_path_bits > 0 && p2.max_path_len > 1);
}
