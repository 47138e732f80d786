//! The in-process workloads: the Theorem 1.1 `C_4` detector (k = 2)
//! called through its public driver functions, on hosts from the
//! `graphlib` generators.
//!
//! A run first builds its inputs; each graph build plus staging is one
//! `setup_s` sample. It warms up with call 0, then calls the detector on
//! the inputs in turn, call `i` with its own seed, until its time is up;
//! after each call it sets up inputs again, for more `setup_s` samples
//! spread over the whole window.
//! Call 0 runs again inside the window, and each of the first calls runs
//! once more in a child process at one pool lane: every repeat must count
//! the same rounds, bits, messages and transport events. A traced run
//! follows each call with the same call through the observed entry point, with
//! a [`RoundClock`] installed.

use std::sync::Arc;
use std::time::Instant;

use congest::{Bandwidth, FaultSpec, Prepared, ReliableConfig, RunReport, Simulation};
use graphlib::{generators, turan, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use subgraph_detection::even_cycle::theorem_bound;
use subgraph_detection::{
    detect_even_cycle, detect_even_cycle_faulty_observed, detect_even_cycle_observed,
    detect_even_cycle_prepared, prepare_even_cycle, EvenCycleConfig, EvenCycleObserver,
    EvenCycleReport, FaultyEvenCycleReport, Schedule,
};

use crate::clock::{RoundClock, RoundSplit};
use crate::metrics::Report;
use crate::stats::{mean, median, ratio, tail};
use crate::{derive, one_lane_counts, peak_rss_mb, OneLane, RunOpts};

/// Prime order of the point–line incidence graph of `dense_negative`:
/// n = 2q² = 1922 nodes and m = q³ = 29 791 edges, extremal and
/// `C_4`-free. At q = 61 (n = 7442) the run-to-run spread on a shared
/// 2-CPU host was 23 %, against 6 % here: the larger host's traffic no
/// longer fits in cache and takes on the neighbours' memory noise.
const DENSE_Q: usize = 31;
/// Repetition budget of a `dense_negative` call. The host has no `C_4`,
/// so the detector never rejects and every call runs all of them.
const DENSE_REPS: usize = 16;
/// Nodes of the streaming degree-4 planted-`C_4` host of `sparse_positive`.
const SPARSE_N: usize = 3_000;
/// Repetition budget of a `sparse_positive` call. It only bounds a miss:
/// detection comes far earlier. A host whose only `C_4` is the planted
/// one is found by a repetition with probability about 1/12, so a budget
/// of 32 misses about one call in 16 on such a host, while 256 misses
/// about one in 4·10⁹.
const SPARSE_REPS: usize = 256;
/// Prime order of the incidence graph of `lossy_arq` (n = 98, m = 343).
const ARQ_Q: usize = 7;
/// Independent per-message loss under the ARQ.
const ARQ_LOSS: f64 = 0.1;
/// Inputs a run calls the detector on, in turn.
const INSTANCES: usize = 5;
/// Set-ups after each call, cycling over the inputs and dropped at once.
/// `setup_s` is the median of every set-up of a run: interleaved with the
/// calls, no one noisy moment on the host sets it.
const SETUPS_PER_CALL: usize = 4;
/// Calls, from the first, that a child process repeats at one lane. The
/// children's peak RSS depends a little on the call's seed; `peak_rss_mb`
/// is their median.
const ONE_LANE_CALLS: u64 = 5;
/// Seed stream of the inputs (see [`derive`]).
const INPUT_SEEDS: u64 = 1;
/// Seed stream of the detector calls.
const CALL_SEEDS: u64 = 2;
/// Label of the run reports whose rendering is timed.
const LABEL: &str = "perfbench";

/// One of the in-process workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Extremal `C_4`-free host, fault-free: the whole budget runs.
    DenseNegative,
    /// Planted `C_4` in a sparse host, fault-free: an early verdict.
    SparsePositive,
    /// Small `C_4`-free host behind the ARQ under loss.
    LossyArq,
}

impl Workload {
    /// The workload with this benchmark name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "dense_negative" => Some(Workload::DenseNegative),
            "sparse_positive" => Some(Workload::SparsePositive),
            "lossy_arq" => Some(Workload::LossyArq),
            _ => None,
        }
    }

    /// The right verdict: only the planted host holds a `C_4`, and the
    /// detector's error is one-sided.
    fn expects_detection(self) -> bool {
        self == Workload::SparsePositive
    }

    /// Detector configuration of a call. The fault-free workloads run with
    /// causal early termination, the production tuning of the scale
    /// experiments; the faulty driver ignores it.
    fn config(self, seed: u64) -> EvenCycleConfig {
        let (reps, early) = match self {
            Workload::DenseNegative => (DENSE_REPS, true),
            Workload::SparsePositive => (SPARSE_REPS, true),
            Workload::LossyArq => (1, false),
        };
        EvenCycleConfig::new(2)
            .repetitions(reps)
            .seed(seed)
            .early_termination(early)
    }
}

fn loss() -> FaultSpec {
    FaultSpec::IndependentLoss(ARQ_LOSS)
}

/// One input: a host graph and its staged topology, with the time each
/// took.
struct Input {
    graph: Graph,
    prepared: Prepared,
    build_s: f64,
    prepare_s: f64,
}

impl Input {
    /// Builds input `j` of workload `w` for run seed `seed`.
    fn build(w: Workload, seed: u64, j: u64) -> Input {
        let t = Instant::now();
        let graph = match w {
            Workload::DenseNegative => turan::c4_free_incidence_graph(DENSE_Q),
            Workload::SparsePositive => {
                let mut rng = ChaCha8Rng::seed_from_u64(derive(seed, INPUT_SEEDS, j));
                generators::planted_c2k(SPARSE_N, 4, 2, &mut rng).0
            }
            Workload::LossyArq => turan::c4_free_incidence_graph(ARQ_Q),
        };
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let prepared = match w {
            // The faulty driver stages inside every call. Staging the same
            // configuration here (the loss model plus the ARQ envelope's
            // bandwidth) measures what that costs.
            Workload::LossyArq => {
                let inner = Schedule::derive(graph.n(), 2, None)
                    .required_bandwidth
                    .max(8);
                let arq = ReliableConfig::default();
                Simulation::on(&graph)
                    .faults(loss())
                    .bandwidth(Bandwidth::Bits(arq.required_bandwidth(inner)))
                    .reliable_config(arq)
                    .prepare()
            }
            _ => prepare_even_cycle(&graph, &w.config(0)),
        };
        let prepare_s = t.elapsed().as_secs_f64();
        Input {
            graph,
            prepared,
            build_s,
            prepare_s,
        }
    }
}

/// A finished detector call.
enum Verdict {
    Clean(EvenCycleReport),
    Faulty(FaultyEvenCycleReport),
}

/// What a detector call counted. The determinism cross-check compares
/// these: any field that differs between two calls on the same input and
/// seed is a failure.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counts {
    detected: bool,
    repetitions: usize,
    rounds: usize,
    active_rounds: usize,
    messages: u64,
    bits: u64,
    retransmissions: u64,
    given_up: u64,
    backoff_events: u64,
    dropped: u64,
    corrupted: u64,
}

impl Verdict {
    fn counts(&self) -> Counts {
        let (detected, repetitions, stats) = match self {
            Verdict::Clean(r) => (r.detected, r.repetitions_run, &r.stats),
            Verdict::Faulty(r) => (r.detected, r.repetitions_run, &r.stats),
        };
        let mut c = Counts {
            detected,
            repetitions,
            rounds: stats.rounds,
            active_rounds: stats.per_round_messages.iter().filter(|&&m| m > 0).count(),
            messages: stats.total_messages,
            bits: stats.total_bits,
            ..Counts::default()
        };
        if let Verdict::Faulty(r) = self {
            c.retransmissions = r.faults.retransmissions;
            c.given_up = r.faults.given_up;
            c.backoff_events = r.faults.backoff_events;
            c.dropped = r.faults.dropped;
            c.corrupted = r.faults.corrupted;
        }
        c
    }

    fn report(&self) -> RunReport {
        match self {
            Verdict::Clean(r) => r.run_report(LABEL),
            Verdict::Faulty(r) => r.run_report(LABEL),
        }
    }
}

/// Calls the detector on `input` with seed `seed` — through the observed
/// driver when `obs` is given — and returns the verdict with the call's
/// wall time in seconds.
fn call(
    w: Workload,
    input: &Input,
    seed: u64,
    obs: Option<&EvenCycleObserver>,
) -> Result<(Verdict, f64), String> {
    let cfg = w.config(seed);
    let t = Instant::now();
    let verdict = match (w, obs) {
        (Workload::LossyArq, _) => Verdict::Faulty(
            detect_even_cycle_faulty_observed(
                &input.graph,
                cfg,
                &loss(),
                Some(ReliableConfig::default()),
                obs.unwrap_or(&EvenCycleObserver::default()),
            )
            .map_err(|e| e.to_string())?,
        ),
        (_, None) => Verdict::Clean(
            detect_even_cycle_prepared(cfg, &input.prepared).map_err(|e| e.to_string())?,
        ),
        (_, Some(obs)) => Verdict::Clean(
            detect_even_cycle_observed(&input.graph, cfg, obs).map_err(|e| e.to_string())?,
        ),
    };
    Ok((verdict, t.elapsed().as_secs_f64()))
}

/// Every set-up of a run: the build and staging time of each, and the
/// wall time they took together.
#[derive(Default)]
struct SetUps {
    builds: Vec<f64>,
    prepares: Vec<f64>,
    secs: f64,
}

impl SetUps {
    /// Builds the next input of workload `w` for run seed `seed`, cycling
    /// over the [`INSTANCES`] inputs.
    fn next(&mut self, w: Workload, seed: u64) -> Input {
        let t = Instant::now();
        let j = (self.builds.len() % INSTANCES) as u64;
        let input = Input::build(w, seed, j);
        self.builds.push(input.build_s);
        self.prepares.push(input.prepare_s);
        self.secs += t.elapsed().as_secs_f64();
        input
    }

    /// Build plus staging time of each set-up.
    fn totals(&self) -> Vec<f64> {
        self.builds
            .iter()
            .zip(&self.prepares)
            .map(|(b, p)| b + p)
            .collect()
    }
}

/// Everything a run's calls added up.
#[derive(Default)]
struct Acc {
    /// Wall time of each plain call, in seconds.
    walls: Vec<f64>,
    /// Rounds per second of each plain call.
    round_rates: Vec<f64>,
    calls: f64,
    repetitions: f64,
    rounds: f64,
    active_rounds: f64,
    messages: f64,
    bits: f64,
    retransmissions: f64,
    given_up: f64,
    backoff_events: f64,
    dropped: f64,
    corrupted: f64,
    /// Rounds per repetition over the Theorem 1.1 bound, per call.
    over_bound: Vec<f64>,
    // Traced runs only.
    traced_walls: Vec<f64>,
    paired_walls: Vec<f64>,
    split: RoundSplit,
    render_us: Vec<f64>,
    traced_rounds: f64,
    fault_free_rounds: f64,
}

impl Acc {
    fn add(&mut self, c: &Counts, secs: f64, bound: f64) {
        self.walls.push(secs);
        self.round_rates.push(c.rounds as f64 / secs);
        self.calls += 1.0;
        self.repetitions += c.repetitions as f64;
        self.rounds += c.rounds as f64;
        self.active_rounds += c.active_rounds as f64;
        self.messages += c.messages as f64;
        self.bits += c.bits as f64;
        self.retransmissions += c.retransmissions as f64;
        self.given_up += c.given_up as f64;
        self.backoff_events += c.backoff_events as f64;
        self.dropped += c.dropped as f64;
        self.corrupted += c.corrupted as f64;
        self.over_bound
            .push(ratio(c.rounds as f64, c.repetitions as f64) / bound);
    }
}

/// Runs workload `w`, named `name`, as `opts` asks.
pub fn run(w: Workload, name: &str, opts: &RunOpts) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = SetUps::default();
    let inputs: Vec<Input> = (0..INSTANCES).map(|_| setups.next(w, opts.seed)).collect();
    let n = inputs[0].graph.n();
    let bound = theorem_bound(n, 2);
    let (first, _) = call(w, &inputs[0], derive(opts.seed, CALL_SEEDS, 0), None)?;
    let reference = first.counts();
    report.note(format!(
        "{name}: n = {n}, m = {}, call 0 counted {reference:?}",
        inputs[0].graph.m(),
    ));

    // The window's time leaves out the set-ups made inside it.
    let mut acc = Acc::default();
    let mut first_calls = Vec::new();
    let start = Instant::now();
    let before = setups.secs;
    let window = |setups: &SetUps| start.elapsed().as_secs_f64() - (setups.secs - before);
    let mut i = 0u64;
    while i == 0 || window(&setups) < opts.seconds {
        let input = &inputs[i as usize % INSTANCES];
        let seed = derive(opts.seed, CALL_SEEDS, i);
        let outcome = call(w, input, seed, None);
        if let Some((verdict, secs)) = report.tally.check_result(&format!("call {i}"), outcome) {
            let c = verdict.counts();
            report.tally.check(c.detected == w.expects_detection(), || {
                format!("call {i}: detected = {}", c.detected)
            });
            if i == 0 {
                report.tally.check(c == reference, || {
                    format!("call 0 counted {c:?} when repeated")
                });
            }
            if i < ONE_LANE_CALLS {
                first_calls.push((i, c.clone()));
            }
            acc.add(&c, secs, bound);
            if opts.trace {
                traced(w, input, seed, (&c, secs), &mut acc, &mut report)?;
            }
        }
        for _ in 0..SETUPS_PER_CALL {
            drop(setups.next(w, opts.seed));
        }
        i += 1;
    }
    let elapsed = window(&setups);
    let mut rss = Vec::with_capacity(first_calls.len());
    for (i, c) in &first_calls {
        let one_lane = one_lane_counts(name, opts.seed, &["--call", &i.to_string()])?;
        report.tally.check(one_lane.counts == format!("{c:?}"), || {
            format!("call {i} counted {} at one lane", one_lane.counts)
        });
        rss.push(one_lane.peak_rss_mb);
    }

    let (pct, tail_s) = tail(&acc.walls);
    let setup = setups.totals();
    report.note(format!(
        "{} calls in {elapsed:.3} s; the verdict tail is p{pct}; {} set-ups",
        acc.walls.len(),
        setup.len()
    ));
    report.set("verdict_p50_ms", median(&acc.walls) * 1e3);
    report.set("verdict_tail_ms", tail_s * 1e3);
    report.set("queries_per_s", acc.calls / elapsed);
    report.set("rounds_per_s", median(&acc.round_rates));
    report.set("setup_s", median(&setup));
    report.set("peak_rss_mb", median(&rss));
    if opts.trace {
        set_layers(&mut report, &acc, &setups);
    }
    Ok(report)
}

/// The traced half of an iteration: the same call again through the
/// observed driver with a round clock installed, the rendering of its run
/// report timed, and for the faulty workload the fault-free rounds of the
/// same seed counted. `plain` is the untraced call's counts and time.
fn traced(
    w: Workload,
    input: &Input,
    seed: u64,
    plain: (&Counts, f64),
    acc: &mut Acc,
    report: &mut Report,
) -> Result<(), String> {
    let clock = Arc::new(RoundClock::default());
    let obs = EvenCycleObserver::collecting(Arc::clone(&clock));
    let (verdict, secs) = call(w, input, seed, Some(&obs))?;
    acc.split.add(&clock.take());
    let counts = verdict.counts();
    report.tally.check(counts == *plain.0, || {
        format!("the traced call counted {counts:?}")
    });
    let run_report = verdict.report();
    let t = Instant::now();
    std::hint::black_box(serve::compact_json(&run_report.to_json()));
    acc.render_us.push(t.elapsed().as_secs_f64() * 1e6);
    acc.traced_walls.push(secs);
    acc.paired_walls.push(plain.1);
    acc.traced_rounds += counts.rounds as f64;
    acc.fault_free_rounds += match w {
        Workload::LossyArq => {
            let cfg = EvenCycleConfig::new(2).repetitions(1).seed(seed);
            detect_even_cycle(&input.graph, cfg)
                .map_err(|e| e.to_string())?
                .total_rounds as f64
        }
        _ => counts.rounds as f64,
    };
    Ok(())
}

/// The per-layer metrics of a traced run.
fn set_layers(report: &mut Report, acc: &Acc, setups: &SetUps) {
    let per_call = |x: f64| ratio(x, acc.calls);
    let busy: f64 = acc.walls.iter().sum();
    let split = &acc.split;
    let staging_s = median(&setups.prepares);
    report.set("graphlib.build_ms", median(&setups.builds) * 1e3);
    report.set("congest.prepare_ms", staging_s * 1e3);
    report.set("congest.engine.rounds", per_call(acc.rounds));
    report.set("congest.engine.active_rounds", per_call(acc.active_rounds));
    report.set(
        "congest.engine.idle_rounds",
        per_call(acc.rounds - acc.active_rounds),
    );
    report.set("congest.engine.messages", per_call(acc.messages));
    report.set("congest.engine.bits", per_call(acc.bits));
    split.report_rounds(report);
    report.set("congest.engine.rounds_per_s", ratio(acc.rounds, busy));
    report.set("congest.engine.bits_per_s", ratio(acc.bits, busy));
    report.set("congest.reliable.physical_rounds", per_call(acc.rounds));
    report.set(
        "congest.reliable.retransmissions",
        per_call(acc.retransmissions),
    );
    report.set(
        "congest.reliable.backoff_events",
        per_call(acc.backoff_events),
    );
    report.set("congest.reliable.given_up", per_call(acc.given_up));
    report.set(
        "congest.reliable.round_inflation",
        ratio(acc.traced_rounds, acc.fault_free_rounds),
    );
    report.set(
        "congest.reliable.retransmit_ratio",
        ratio(acc.retransmissions, acc.messages),
    );
    report.set(
        "congest.reliable.given_up_frac",
        ratio(acc.given_up, acc.messages),
    );
    report.set("congest.faults.dropped", per_call(acc.dropped));
    report.set("congest.faults.corrupted", per_call(acc.corrupted));
    report.set("core.repetitions_run", per_call(acc.repetitions));
    let traced = acc.traced_walls.len() as f64;
    report.set(
        "core.phase1_ms",
        ratio(split.phase1_ns as f64, traced) / 1e6,
    );
    report.set(
        "core.phase2_ms",
        ratio(split.phase2_ns as f64, traced) / 1e6,
    );
    report.set("core.rounds_over_bound", mean(&acc.over_bound));
    report.set("obsv.report_render_us", median(&acc.render_us));
    report.not_exercised("serve.");
    report.set(
        "trace.overhead_frac",
        median(&acc.traced_walls) / median(&acc.paired_walls) - 1.0,
    );
    // The layers of a traced call, each its own span: staging (the
    // observed entry points stage inside the call; timed apart on the same
    // input), the engine's rounds, and the engine's per-run set-up inside
    // a phase (from each phase marker to the phase's last engine event,
    // less the rounds). The residual is what the detector does outside
    // them: before the first marker beyond staging, between a phase's
    // last engine event and the next marker, and after the last one.
    // It is taken on the traced calls, whose layers carry the trace
    // overhead; scaled by 1 / (1 + trace.overhead_frac) the same split
    // holds for the untraced calls.
    let traced_s: f64 = acc.traced_walls.iter().sum();
    let rounds_s = (split.active_ns + split.idle_ns) as f64 / 1e9;
    let between_rounds_s = (split.phase1_ns + split.phase2_ns) as f64 / 1e9 - rounds_s;
    let attributed = traced * staging_s + rounds_s + between_rounds_s;
    report.set(
        "trace.residual_frac",
        ratio(traced_s - attributed, traced_s),
    );
}

/// The one-lane cross-check: what call `i` of workload `w` counts for run
/// seed `seed`, and the peak RSS of building its input and calling it.
pub fn counts_only(w: Workload, seed: u64, i: u64) -> Result<OneLane, String> {
    let input = Input::build(w, seed, i % INSTANCES as u64);
    let (verdict, _) = call(w, &input, derive(seed, CALL_SEEDS, i), None)?;
    Ok(OneLane {
        counts: format!("{:?}", verdict.counts()),
        peak_rss_mb: peak_rss_mb("/proc/self/status")?,
    })
}
