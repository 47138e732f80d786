//! Deterministic chaos-schedule fuzzing for the fault layer.
//!
//! A [`ChaosSchedule`] is a seeded, cloneable recipe of fault ingredients
//! (loss, burstiness, crash timing, link outages, corruption) that compiles
//! to a [`FaultSpec`] stack. [`enumerate`] walks the model space with seeded
//! hashes — same base seed, same schedules, on every machine — and [`fuzz`]
//! runs each schedule through a caller-supplied *oracle* (typically: run a
//! detector under the spec, then check soundness invariants over its trace
//! and outcome). Any failing schedule is [`shrink`]-ed to a locally minimal
//! reproducer by greedy delta debugging and dumped as a JSON document via
//! [`ChaosFailure::to_json`], so a CI failure ships its own repro.
//!
//! The oracle is a closure (`Fn(&FaultSpec, u64) -> Vec<String>`) rather
//! than a trait object over detector types because detectors live in
//! downstream crates; `congest` only owns the schedule algebra. An empty
//! violation list means the run was sound.

use crate::faults::{raw_hash, CrashStop, FaultSpec, LinkFailure, Outage};
use std::fmt::Write as _;

/// One fault ingredient in a chaos schedule. Each variant compiles to one
/// layer of a [`FaultSpec::Stack`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// Independent per-delivery loss with probability `p`.
    Loss {
        /// Drop probability per delivery.
        p: f64,
    },
    /// Bursty (Gilbert–Elliott) loss: lossless good state, `loss_bad`
    /// drop rate in the bad state, seeded two-state Markov switching.
    Burst {
        /// Probability of entering the bad state per slot.
        p_enter: f64,
        /// Probability of leaving the bad state per slot.
        p_exit: f64,
        /// Drop probability while the link is in the bad state.
        loss_bad: f64,
    },
    /// Node `node` crash-stops at `round`.
    Crash {
        /// The crashing node.
        node: usize,
        /// The round it halts at (1-based).
        round: usize,
    },
    /// The undirected link `{a, b}` is down for `from_round..=to_round`.
    LinkOut {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
        /// First round of the outage (1-based, inclusive).
        from_round: usize,
        /// Last round of the outage (inclusive).
        to_round: usize,
    },
    /// Seeded single-bit corruption with probability `rate` per delivery.
    Flip {
        /// Corruption probability per delivery.
        rate: f64,
    },
}

impl ChaosEvent {
    /// The fault-spec layer this event compiles to.
    pub fn spec(&self) -> FaultSpec {
        match *self {
            ChaosEvent::Loss { p } => FaultSpec::IndependentLoss(p),
            ChaosEvent::Burst {
                p_enter,
                p_exit,
                loss_bad,
            } => FaultSpec::GilbertElliott(p_enter, p_exit, 0.0, loss_bad),
            ChaosEvent::Crash { node, round } => {
                FaultSpec::CrashStop(CrashStop::at(vec![(node, round)]))
            }
            ChaosEvent::LinkOut {
                a,
                b,
                from_round,
                to_round,
            } => FaultSpec::LinkFailure(LinkFailure::new(vec![Outage {
                a,
                b,
                from_round,
                to_round,
            }])),
            ChaosEvent::Flip { rate } => FaultSpec::BitFlip(rate),
        }
    }

    /// The event as one JSON object (fixed-precision floats, so repro
    /// documents are byte-stable).
    pub fn to_json(&self) -> String {
        match *self {
            ChaosEvent::Loss { p } => format!(r#"{{"kind":"loss","p":{p:.4}}}"#),
            ChaosEvent::Burst {
                p_enter,
                p_exit,
                loss_bad,
            } => format!(
                r#"{{"kind":"burst","p_enter":{p_enter:.4},"p_exit":{p_exit:.4},"loss_bad":{loss_bad:.4}}}"#
            ),
            ChaosEvent::Crash { node, round } => {
                format!(r#"{{"kind":"crash","node":{node},"round":{round}}}"#)
            }
            ChaosEvent::LinkOut {
                a,
                b,
                from_round,
                to_round,
            } => format!(
                r#"{{"kind":"link_out","a":{a},"b":{b},"from_round":{from_round},"to_round":{to_round}}}"#
            ),
            ChaosEvent::Flip { rate } => format!(r#"{{"kind":"flip","rate":{rate:.4}}}"#),
        }
    }
}

/// A seeded fault schedule: the engine seed plus the event stack. Two runs
/// of the same schedule are byte-identical, which is what makes a shrunk
/// reproducer worth shipping.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Engine seed the schedule runs under.
    pub seed: u64,
    /// The fault ingredients, applied as one stack (first non-deliver
    /// verdict wins, see [`FaultSpec::Stack`]).
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Compiles the schedule to a runnable fault spec. Empty schedules are
    /// the fault-free model.
    pub fn spec(&self) -> FaultSpec {
        if self.events.is_empty() {
            FaultSpec::None
        } else {
            FaultSpec::Stack(self.events.iter().map(ChaosEvent::spec).collect())
        }
    }

    /// The schedule as one JSON object.
    pub fn to_json(&self) -> String {
        let events: Vec<String> = self.events.iter().map(ChaosEvent::to_json).collect();
        format!(
            r#"{{"seed":{},"events":[{}]}}"#,
            self.seed,
            events.join(",")
        )
    }
}

/// The loss-rate menu [`enumerate`] draws from.
const LOSS_RATES: [f64; 4] = [0.1, 0.2, 0.3, 0.5];
/// The burst-severity menu: `(p_enter, p_exit, loss_bad)`.
const BURSTS: [(f64, f64, f64); 3] = [(0.1, 0.4, 0.9), (0.2, 0.3, 1.0), (0.3, 0.5, 0.7)];
/// The bit-flip-rate menu.
const FLIP_RATES: [f64; 3] = [0.05, 0.1, 0.2];

/// Enumerates `count` seeded schedules over a network of `n` nodes,
/// covering the loss-rate × burstiness × crash-timing × link-outage ×
/// corruption space. Deterministic in `base_seed`: schedule `i` is a pure
/// function of `(base_seed, i, n)`.
///
/// Each schedule stacks one to three events; dimensions are picked by
/// seeded hash so consecutive schedules decorrelate. Crash and outage
/// coordinates are drawn from `0..n` — a listed outage on a non-edge is a
/// no-op, which keeps the enumerator topology-agnostic.
pub fn enumerate(base_seed: u64, n: usize, count: usize) -> Vec<ChaosSchedule> {
    assert!(n >= 2, "chaos schedules need at least two nodes");
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let pick = |dim: &str| raw_hash((base_seed, "chaos", i, dim));
        let n_events = 1 + (pick("len") % 3) as usize;
        let mut events = Vec::with_capacity(n_events);
        for e in 0..n_events {
            let kind = raw_hash((base_seed, "chaos", i, "kind", e)) % 5;
            let draw = |dim: &str| raw_hash((base_seed, "chaos", i, dim, e));
            events.push(match kind {
                0 => ChaosEvent::Loss {
                    p: LOSS_RATES[draw("loss") as usize % LOSS_RATES.len()],
                },
                1 => {
                    let (p_enter, p_exit, loss_bad) = BURSTS[draw("burst") as usize % BURSTS.len()];
                    ChaosEvent::Burst {
                        p_enter,
                        p_exit,
                        loss_bad,
                    }
                }
                2 => ChaosEvent::Crash {
                    node: draw("crash-node") as usize % n,
                    round: 1 + draw("crash-round") as usize % 8,
                },
                3 => {
                    let a = draw("out-a") as usize % n;
                    let b = (a + 1 + draw("out-b") as usize % (n - 1)) % n;
                    let from_round = 1 + draw("out-from") as usize % 6;
                    ChaosEvent::LinkOut {
                        a,
                        b,
                        from_round,
                        to_round: from_round + draw("out-len") as usize % 8,
                    }
                }
                _ => ChaosEvent::Flip {
                    rate: FLIP_RATES[draw("flip") as usize % FLIP_RATES.len()],
                },
            });
        }
        out.push(ChaosSchedule {
            seed: raw_hash((base_seed, "chaos-seed", i)),
            events,
        });
    }
    out
}

/// A soundness violation the fuzzer found, with its shrunk reproducer.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The schedule that first triggered the violation.
    pub schedule: ChaosSchedule,
    /// The violations the oracle reported for the *shrunk* schedule.
    pub violations: Vec<String>,
    /// The minimal reproducer: a sub-schedule that still violates, from
    /// which no single event can be removed without the violation
    /// disappearing.
    pub shrunk: ChaosSchedule,
}

impl ChaosFailure {
    /// The failure as one schema-tagged JSON reproducer document
    /// (trailing newline included). Paste the `shrunk` block back into a
    /// test to replay the violation.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, r#"  "schema": "congest.chaos_reproducer","#);
        let _ = writeln!(out, r#"  "schedule": {},"#, self.schedule.to_json());
        let _ = writeln!(out, r#"  "shrunk": {},"#, self.shrunk.to_json());
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", crate::json::escape(v)))
            .collect();
        let _ = writeln!(out, r#"  "violations": [{}]"#, violations.join(","));
        out.push_str("}\n");
        out
    }
}

/// Shrinks a failing schedule to a locally minimal reproducer by greedy
/// delta debugging: repeatedly try dropping each event (front to back);
/// keep any drop under which the oracle still reports violations; stop at
/// a fixed point where every single-event removal makes the violation
/// vanish. Deterministic, and runs the oracle O(events²) times in the
/// worst case.
pub fn shrink<F>(failing: &ChaosSchedule, oracle: &F) -> ChaosSchedule
where
    F: Fn(&FaultSpec, u64) -> Vec<String>,
{
    let mut current = failing.clone();
    loop {
        let mut reduced = None;
        for i in 0..current.events.len() {
            let mut candidate = current.clone();
            candidate.events.remove(i);
            if !oracle(&candidate.spec(), candidate.seed).is_empty() {
                reduced = Some(candidate);
                break;
            }
        }
        match reduced {
            Some(c) => current = c,
            None => return current,
        }
    }
}

/// Runs `oracle` against every schedule and returns one [`ChaosFailure`]
/// (with shrunk reproducer) per violating schedule, in input order. An
/// empty result is the pass verdict: every schedule ran sound.
pub fn fuzz<F>(schedules: &[ChaosSchedule], oracle: F) -> Vec<ChaosFailure>
where
    F: Fn(&FaultSpec, u64) -> Vec<String>,
{
    let mut failures = Vec::new();
    for schedule in schedules {
        if oracle(&schedule.spec(), schedule.seed).is_empty() {
            continue;
        }
        let shrunk = shrink(schedule, &oracle);
        let violations = oracle(&shrunk.spec(), shrunk.seed);
        failures.push(ChaosFailure {
            schedule: schedule.clone(),
            violations,
            shrunk,
        });
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_deterministic_and_covers_the_space() {
        let a = enumerate(7, 8, 64);
        let b = enumerate(7, 8, 64);
        assert_eq!(a, b, "same base seed, same schedules");
        assert_ne!(a, enumerate(8, 8, 64), "seed moves the schedules");
        assert_eq!(a.len(), 64);
        // Over 64 schedules every event kind should appear.
        let mut kinds = [false; 5];
        for s in &a {
            assert!(!s.events.is_empty() && s.events.len() <= 3);
            for e in &s.events {
                let k = match e {
                    ChaosEvent::Loss { .. } => 0,
                    ChaosEvent::Burst { .. } => 1,
                    ChaosEvent::Crash { node, round } => {
                        assert!(*node < 8 && *round >= 1);
                        2
                    }
                    ChaosEvent::LinkOut {
                        a,
                        b,
                        from_round,
                        to_round,
                    } => {
                        assert!(a != b && *a < 8 && *b < 8);
                        assert!(from_round >= &1 && to_round >= from_round);
                        3
                    }
                    ChaosEvent::Flip { .. } => 4,
                };
                kinds[k] = true;
            }
        }
        assert_eq!(kinds, [true; 5], "all five fault kinds enumerated");
    }

    #[test]
    fn schedules_compile_to_stacked_specs() {
        let s = ChaosSchedule {
            seed: 1,
            events: vec![
                ChaosEvent::Loss { p: 0.3 },
                ChaosEvent::Crash { node: 2, round: 4 },
            ],
        };
        match s.spec() {
            FaultSpec::Stack(layers) => {
                assert_eq!(layers.len(), 2);
                assert_eq!(layers[0], FaultSpec::IndependentLoss(0.3));
            }
            other => panic!("expected a stack, got {other:?}"),
        }
        assert_eq!(
            ChaosSchedule {
                seed: 1,
                events: vec![]
            }
            .spec(),
            FaultSpec::None
        );
    }

    #[test]
    fn shrink_reaches_a_minimal_reproducer() {
        // Synthetic oracle: violates iff the stack crashes node 0.
        let oracle = |spec: &FaultSpec, _seed: u64| -> Vec<String> {
            let g = graphlib::generators::path(8);
            if spec.compile(&g, 1).crash_round(0).is_some() {
                vec!["node 0 lost".into()]
            } else {
                vec![]
            }
        };
        let noisy = ChaosSchedule {
            seed: 5,
            events: vec![
                ChaosEvent::Loss { p: 0.5 },
                ChaosEvent::Crash { node: 0, round: 2 },
                ChaosEvent::Flip { rate: 0.2 },
                ChaosEvent::LinkOut {
                    a: 1,
                    b: 2,
                    from_round: 1,
                    to_round: 3,
                },
            ],
        };
        let failures = fuzz(std::slice::from_ref(&noisy), oracle);
        assert_eq!(failures.len(), 1);
        let f = &failures[0];
        assert_eq!(f.schedule, noisy);
        assert_eq!(
            f.shrunk.events,
            vec![ChaosEvent::Crash { node: 0, round: 2 }],
            "shrinks to the one event that matters"
        );
        assert_eq!(f.violations, vec!["node 0 lost".to_string()]);
        // Shrinking again is a fixed point.
        assert_eq!(shrink(&f.shrunk, &oracle), f.shrunk);
    }

    #[test]
    fn clean_schedules_produce_no_failures() {
        let schedules = enumerate(3, 6, 16);
        let failures = fuzz(&schedules, |_, _| Vec::new());
        assert!(failures.is_empty());
    }

    #[test]
    fn reproducer_json_parses_and_is_tagged() {
        let f = ChaosFailure {
            schedule: ChaosSchedule {
                seed: 9,
                events: vec![
                    ChaosEvent::Burst {
                        p_enter: 0.1,
                        p_exit: 0.4,
                        loss_bad: 0.9,
                    },
                    ChaosEvent::Crash { node: 1, round: 3 },
                ],
            },
            violations: vec!["decision flipped on \"C4\"".into()],
            shrunk: ChaosSchedule {
                seed: 9,
                events: vec![ChaosEvent::Crash { node: 1, round: 3 }],
            },
        };
        let json = f.to_json();
        assert!(json.contains(r#""schema": "congest.chaos_reproducer""#));
        assert!(
            json.contains(r#"{"kind":"burst","p_enter":0.1000,"p_exit":0.4000,"loss_bad":0.9000}"#),
            "{json}"
        );
        assert!(json.contains(r#"{"kind":"crash","node":1,"round":3}"#));
        assert!(json.contains(r#"\"C4\""#), "violations are escaped");
        let v = crate::json::parse(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        let violations = v.get("violations").and_then(|v| v.as_array()).unwrap();
        assert_eq!(violations[0].as_str(), Some("decision flipped on \"C4\""));
        assert!(json.ends_with("}\n"));
    }
}
