//! The canonical observability scenarios: seeded, thread-count-independent
//! detector runs whose run reports, traces and flight records are pinned
//! by the goldens in `tests/golden/` and driven by `congest-trace`
//! (`dump`, `critical-path`, `idle-tail`, `profile`).

use crate::experiments as exp;
use congest::{
    EventLog, FaultSpec, FlightConfig, FlightRecorder, Profiler, ReliableConfig, RunReport,
    SimEvent,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use subgraph_detection as detection;

/// The canonical planted-`C_4` instance and detector config shared by the
/// fault-free report, the `congest-trace --canonical` gates, and the
/// referee tests.
fn canonical_fault_free_scenario() -> (graphlib::Graph, detection::EvenCycleConfig) {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let base = graphlib::generators::gnp(48, 0.05, &mut rng);
    let (g, _) = graphlib::generators::plant_cycle(&base, 4, &mut rng);
    let cfg = detection::EvenCycleConfig::new(2).repetitions(4).seed(17);
    (g, cfg)
}

/// The canonical fault-free observability scenario: the Theorem 1.1
/// detector on a seeded planted-`C_4` instance, run with the structured
/// collector installed. Returns the run report — critical-path summary
/// embedded (run-report schema v2) — together with the full recorded
/// event stream. Deterministic for any thread count, so both the report
/// JSON and the trace are byte-stable (goldens live in `tests/golden/`).
pub fn canonical_fault_free_traced() -> (RunReport, Vec<SimEvent>) {
    let (g, cfg) = canonical_fault_free_scenario();
    let log = Arc::new(EventLog::new());
    let obs = detection::EvenCycleObserver::collecting(Arc::clone(&log));
    let rep = detection::detect_even_cycle_observed(&g, cfg, &obs).expect("detector run failed");
    let events = log.take();
    let cp = congest::obsv::critical_path(&events);
    let report = rep
        .run_report("even_cycle_fault_free")
        .with_critical_path(cp);
    (report, events)
}

/// The canonical fault-free run report (see [`canonical_fault_free_traced`]).
pub fn canonical_fault_free_report() -> RunReport {
    canonical_fault_free_traced().0
}

/// The canonical flight-recorder scenario: the fault-free planted-`C_4`
/// detector run with a small-capacity [`FlightRecorder`] installed (4-round
/// ring, 64 events per round, 32-slot reservoir, top-4 sketches) and the
/// dump rendered. Small caps on purpose — the scenario exercises both ring
/// eviction and reservoir replacement, and the golden stays reviewable.
/// Byte-identical at any shards × threads (`tests/golden/flight_record.jsonl`).
pub fn canonical_flight_record() -> String {
    let (g, cfg) = canonical_fault_free_scenario();
    let rec = Arc::new(FlightRecorder::new(FlightConfig {
        ring_rounds: 4,
        ring_events_per_round: 64,
        sample_capacity: 32,
        top_k: 4,
        ..FlightConfig::default()
    }));
    let obs = detection::EvenCycleObserver::collecting(Arc::clone(&rec));
    detection::detect_even_cycle_observed(&g, cfg, &obs).expect("detector run failed");
    rec.dump()
}

/// The EXPERIMENTS.md walkthrough scenario: the E3-scale instance (the
/// streaming degree-4 planted-`C_4` graph at `n`) run through the
/// Theorem 1.1 detector under 20 % independent message loss, with a
/// default-capacity [`FlightRecorder`] riding along, rendered as a dump.
/// The black box of a *faulty* census-size run: the ring retains the last
/// rounds before the run ended, the sketches name the hottest edges and
/// senders, and the totals carry the loss tally. Deterministic for any
/// thread count (`congest-trace dump --flight-faulty [n]` is the CLI
/// entry; n = 10^5 is the documented walkthrough size).
pub fn faulty_flight_record(n: usize) -> String {
    let g = exp::scale_graph(n, 42);
    let cfg = detection::EvenCycleConfig::new(2).repetitions(1).seed(42);
    let rec = Arc::new(FlightRecorder::new(FlightConfig::default()));
    let obs = detection::EvenCycleObserver::collecting(Arc::clone(&rec));
    detection::detect_even_cycle_faulty_observed(
        &g,
        cfg,
        &FaultSpec::IndependentLoss(0.2),
        None,
        &obs,
    )
    .expect("faulty detector run failed");
    rec.dump()
}

/// The canonical faulty observability scenario: the same detector behind
/// the stop-and-wait ARQ with 30 % independent message loss. The report
/// carries the transport's retransmission tallies next to the physical
/// traffic numbers. Deterministic for any thread count.
pub fn canonical_arq_loss_report() -> RunReport {
    let g = graphlib::generators::cycle(12);
    let cfg = detection::EvenCycleConfig::new(2).repetitions(2).seed(7);
    let rep = detection::detect_even_cycle_faulty(
        &g,
        cfg,
        &FaultSpec::IndependentLoss(0.3),
        Some(ReliableConfig::default()),
    )
    .expect("faulty detector run failed");
    rep.run_report("even_cycle_arq_loss30")
}

/// The canonical bursty-loss planted-`C_4` instance: a sparse G(n,p) with
/// a planted 4-cycle under Gilbert–Elliott loss that is lossless in the
/// good state and drops *everything* in the bad state (stationary bad
/// probability 30 %). The scenario the sliding-window-vs-stop-and-wait
/// round-count comparison is pinned on.
fn canonical_bursty_scenario() -> (graphlib::Graph, detection::EvenCycleConfig, FaultSpec) {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let base = graphlib::generators::gnp(16, 0.1, &mut rng);
    let (g, _) = graphlib::generators::plant_cycle(&base, 4, &mut rng);
    let cfg = detection::EvenCycleConfig::new(2).repetitions(4).seed(13);
    (g, cfg, FaultSpec::GilbertElliott(0.3, 0.7, 0.0, 1.0))
}

/// The canonical bursty-loss scenario behind the transport at ARQ window
/// `window` (1 = stop-and-wait, the [`ReliableConfig::default`] window =
/// the pipelined golden). Deterministic for any thread count.
pub fn canonical_bursty_report(window: usize) -> RunReport {
    let (g, cfg, faults) = canonical_bursty_scenario();
    let rcfg = ReliableConfig {
        window,
        ..ReliableConfig::default()
    };
    let rep = detection::detect_even_cycle_faulty(&g, cfg, &faults, Some(rcfg))
        .expect("bursty detector run failed");
    let label = if window == 1 {
        "even_cycle_bursty_stopwait".to_string()
    } else {
        format!("even_cycle_bursty_w{window}")
    };
    rep.run_report(&label)
}

/// All canonical run reports, in a fixed order — the golden-file tests
/// (`tests/run_report.rs`) and `congest-trace dump --summary` share this
/// list. The
/// third entry is the bursty-loss scenario at the default (windowed) ARQ;
/// its stop-and-wait counterpart is regenerated on the fly by the
/// round-count-ratio test rather than committed.
pub fn canonical_run_reports() -> Vec<RunReport> {
    vec![
        canonical_fault_free_report(),
        canonical_arq_loss_report(),
        canonical_bursty_report(ReliableConfig::default().window),
    ]
}

/// Runs both canonical scenarios with the engine self-profiler installed
/// and returns `(folded_stacks, summary_table)`. The fault-free run times
/// the engine's accounting/staging/delivery/compute stages; the ARQ run
/// additionally exercises the transport's retransmit-scan span. Wall-clock
/// numbers, so the output is *not* deterministic — it never feeds goldens.
pub fn profile_canonical() -> (String, String) {
    let profiler = Arc::new(Profiler::new());
    let obs = detection::EvenCycleObserver::default().with_profiler(Arc::clone(&profiler));
    let (g, cfg) = canonical_fault_free_scenario();
    detection::detect_even_cycle_observed(&g, cfg, &obs).expect("detector run failed");
    let g2 = graphlib::generators::cycle(12);
    let cfg2 = detection::EvenCycleConfig::new(2).repetitions(2).seed(7);
    detection::detect_even_cycle_faulty_observed(
        &g2,
        cfg2,
        &FaultSpec::IndependentLoss(0.3),
        Some(ReliableConfig::default()),
        &obs,
    )
    .expect("faulty detector run failed");
    (profiler.folded_stacks("congest"), profiler.summary_table())
}
