//! Machine-readable perf baselines.
//!
//! The criterion benches time micro-kernels; this module times the
//! *end-to-end* experiments the thread pool is supposed to speed up (E1
//! even-cycle detection, E2 superlinear-family simulation, E3-scale — the
//! sharded engine at `n = 10^5`) and renders the wall-clock numbers as a
//! small JSON document, so the repo's perf trajectory is recorded in-tree
//! (`BENCH_<date>.json` at the workspace root, one file per measurement
//! day).
//!
//! The pool sizes itself once per process from `RAYON_NUM_THREADS`, so a
//! multi-thread-count report needs one subprocess per count — that
//! orchestration lives in the `perf` binary (`src/bin/perf.rs`) and
//! `scripts/bench.sh`; this module is the in-process part: run the
//! workloads at the *current* thread count and serialize entries.

use crate::experiments as exp;
use congest::{
    EventLog, FaultSpec, FlightConfig, FlightRecorder, Profiler, ReliableConfig, RunReport,
    SimEvent,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;
use subgraph_detection as detection;

/// Schema tag of the perf-baseline document ([`render_report`]).
pub const PERF_REPORT_SCHEMA: &str = "congest.perf_report";
/// Version of the perf-baseline document layout. v2 added the optional
/// `shards` and `peak_rss_kb` columns (E3-scale entries); v3 added the
/// optional `p99_ms` column (serve-QPS entries); v4 added the optional
/// `recorder` flag (the flight-recorder on/off A/B pair `e1_flight` /
/// `e1_even_cycle`). Older documents still parse — the new fields default
/// to 0/absent.
pub const PERF_REPORT_VERSION: u32 = 4;

/// One timed workload: `experiment` at size `n` took `wall_ms` on a pool of
/// `threads` lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// Experiment tag (`"e1_even_cycle"`, `"e2_superlinear"`,
    /// `"e3_scale"`).
    pub experiment: String,
    /// Instance size (nodes for E1/E3-scale, disjointness side length for
    /// E2).
    pub n: usize,
    /// Wall-clock time of the workload, milliseconds.
    pub wall_ms: f64,
    /// Parallelism lanes the pool used (`rayon::current_num_threads`).
    pub threads: usize,
    /// Whether the pool had more lanes than the host has CPUs — such
    /// numbers measure scheduler thrash, not speedup, and are excluded
    /// from speedup summaries and regression comparisons.
    pub oversubscribed: bool,
    /// Engine shard count of the run (0 = not recorded / pre-v2 entry;
    /// the engine's auto mode resolves to one shard per pool lane).
    pub shards: usize,
    /// Process peak RSS (`VmHWM`) in KiB *after* the workload ran, 0 when
    /// not recorded. The high-water mark is monotone within a process, so
    /// only the largest workload of an `--emit` run (E3-scale, which runs
    /// last) records it — earlier entries would just echo their own noise.
    pub peak_rss_kb: u64,
    /// 99th-percentile single-query latency in milliseconds, 0.0 when not
    /// recorded (v3 column; only the serve-QPS workload measures it). For
    /// those entries `wall_ms` is the whole batch, so throughput is
    /// `n / (wall_ms / 1000)` queries/sec *at* this tail latency — the
    /// regression gate compares both.
    pub p99_ms: f64,
    /// Whether a production-config flight recorder rode the run (v4
    /// column; the `e1_flight` entry). Paired with the bare
    /// `e1_even_cycle` entry at the same `(n, threads)`, this is the
    /// recorder-overhead A/B the [`recorder_overhead_gate`] checks.
    pub recorder: bool,
}

impl PerfEntry {
    /// The entry as one JSON object. The `oversubscribed` flag and the v2
    /// columns (`shards`, `peak_rss_kb`) are emitted only when set,
    /// keeping the common case identical to older reports.
    pub fn to_json(&self) -> String {
        let flag = if self.oversubscribed {
            r#","oversubscribed":true"#
        } else {
            ""
        };
        let shards = if self.shards > 0 {
            format!(r#","shards":{}"#, self.shards)
        } else {
            String::new()
        };
        let rss = if self.peak_rss_kb > 0 {
            format!(r#","peak_rss_kb":{}"#, self.peak_rss_kb)
        } else {
            String::new()
        };
        let p99 = if self.p99_ms > 0.0 {
            format!(r#","p99_ms":{:.3}"#, self.p99_ms)
        } else {
            String::new()
        };
        let recorder = if self.recorder {
            r#","recorder":true"#
        } else {
            ""
        };
        format!(
            r#"{{"experiment":"{}","n":{},"wall_ms":{:.3},"threads":{}{flag}{shards}{rss}{p99}{recorder}}}"#,
            self.experiment, self.n, self.wall_ms, self.threads
        )
    }
}

/// Process peak RSS (`VmHWM` from `/proc/self/status`) in KiB, 0 when the
/// proc file is unavailable (non-Linux hosts).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Default workload sizes (E1 node counts, E2 side lengths, E3-scale node
/// counts).
pub const FULL_SIZES: (&[usize], &[usize], &[usize]) =
    (&[128, 256, 512], &[16, 36, 64], &[100_000]);
/// Reduced sizes for the smoke-test variant of the regression gate.
pub const SMOKE_SIZES: (&[usize], &[usize], &[usize]) = (&[128], &[16], &[10_000]);
/// Serve-QPS batch sizes (queries per batch) for the full run.
pub const SERVE_FULL_SIZES: &[usize] = &[100];
/// Serve-QPS batch size for the smoke variant.
pub const SERVE_SMOKE_SIZES: &[usize] = &[20];

/// Runs the timed workloads at the current pool size. Sizes are chosen so
/// one pass stays under ~a minute in release mode while still being large
/// enough for the round loop (not process startup) to dominate.
pub fn run_workloads() -> Vec<PerfEntry> {
    run_sized_workloads(FULL_SIZES.0, FULL_SIZES.1, FULL_SIZES.2, SERVE_FULL_SIZES)
}

/// The smoke variant: smallest size of each experiment only.
pub fn run_smoke_workloads() -> Vec<PerfEntry> {
    run_sized_workloads(
        SMOKE_SIZES.0,
        SMOKE_SIZES.1,
        SMOKE_SIZES.2,
        SERVE_SMOKE_SIZES,
    )
}

/// Repetitions per timed workload. The *minimum* wall time across reps is
/// reported: a deterministic workload cannot run faster than its true cost,
/// but unrelated host load can easily make any one rep slower, so the min
/// is the noise-robust estimator (the same convention as criterion's
/// lower-bound reporting).
const TIMING_REPS: usize = 3;

/// Times `work` `reps` times and returns the minimum in ms.
fn min_wall_ms_over(reps: usize, mut work: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times `work` [`TIMING_REPS`] times and returns the minimum in ms.
fn min_wall_ms(work: impl FnMut()) -> f64 {
    min_wall_ms_over(TIMING_REPS, work)
}

/// One `congest-serve` request line of the QPS workload (all queries hit
/// one planted-`C_4` graph; kinds and fault injection alternate by index,
/// the same mix as the golden session but sized by the caller).
fn serve_request_line(idx: usize) -> String {
    let graph = r#"{"generator":"planted_c2k","n":96,"d":3,"k":2,"seed":7}"#;
    let seed = idx / 4;
    let scenario = match idx % 4 {
        0 => format!(r#"{{"kind":"even_cycle","k":2,"repetitions":2,"seed":{seed}}}"#),
        1 => format!(
            r#"{{"kind":"even_cycle","k":2,"repetitions":2,"seed":{seed},"faults":{{"kind":"independent_loss","p":0.25}}}}"#
        ),
        2 => format!(r#"{{"kind":"triangle","seed":{seed}}}"#),
        _ => format!(
            r#"{{"kind":"triangle","seed":{seed},"faults":{{"kind":"independent_loss","p":0.25}}}}"#
        ),
    };
    format!(
        r#"{{"schema":"congest.serve","version":1,"op":"query","id":"q{idx}","graph":{graph},"scenario":{scenario}}}"#
    )
}

/// Times the `congest-serve` batch path: `queries` detection queries over
/// one cached graph, executed as a single batch. `wall_ms` is the batch
/// (throughput = `queries / wall_ms` kqps); `p99_ms` is the tail of the
/// single-query latency distribution measured on the same warm service.
/// Caches are warmed first — this times query execution, not graph
/// generation (the cache's job, asserted elsewhere).
pub fn serve_qps_workload(queries: usize) -> PerfEntry {
    let threads = rayon::current_num_threads();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lines: Vec<String> = (0..queries).map(serve_request_line).collect();

    let mut svc = serve::Service::new(serve::ServiceConfig::default());
    // Warm pass: populates the graph/topology caches (and the allocator).
    for l in &lines {
        assert!(svc.handle_line(l).is_empty(), "query must enqueue");
    }
    assert_eq!(svc.flush().len(), queries + 1);

    // Tail latency: single-query batches, sequentially, on the warm service.
    let mut latencies: Vec<f64> = lines
        .iter()
        .map(|l| {
            let start = Instant::now();
            assert!(svc.handle_line(l).is_empty());
            assert_eq!(svc.flush().len(), 2);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p99_idx = ((latencies.len() as f64 * 0.99).ceil() as usize).clamp(1, latencies.len()) - 1;
    let p99_ms = latencies[p99_idx];

    // Throughput: the whole batch through the pool, min over reps.
    let wall_ms = min_wall_ms(|| {
        for l in &lines {
            assert!(svc.handle_line(l).is_empty());
        }
        assert_eq!(svc.flush().len(), queries + 1);
    });

    PerfEntry {
        experiment: "serve_qps".into(),
        n: queries,
        wall_ms,
        threads,
        oversubscribed: threads > host_cpus,
        shards: 0,
        peak_rss_kb: 0,
        p99_ms,
        recorder: false,
    }
}

fn run_sized_workloads(
    e1_sizes: &[usize],
    e2_sizes: &[usize],
    e3_sizes: &[usize],
    serve_sizes: &[usize],
) -> Vec<PerfEntry> {
    let threads = rayon::current_num_threads();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oversubscribed = threads > host_cpus;
    let mut entries = Vec::new();
    for &n in e1_sizes {
        let wall_ms = min_wall_ms(|| {
            let rows = exp::e1_even_cycle(2, &[n], 1, 42);
            assert_eq!(rows.len(), 1);
        });
        entries.push(PerfEntry {
            experiment: "e1_even_cycle".into(),
            n,
            wall_ms,
            threads,
            oversubscribed,
            shards: 0,
            peak_rss_kb: 0,
            p99_ms: 0.0,
            recorder: false,
        });
    }
    // Engine-tuning A/B at the largest E1 size: the pre-fusion three-pass
    // send loop and the fused loop without early termination. Together
    // with the production `e1_even_cycle` entry they decompose the speedup
    // into its fusion and ET parts; the referee suites pin all three
    // tunings to byte-identical decisions.
    if let Some(&n) = e1_sizes.last() {
        for (tag, fused, et) in [("e1_prefusion", false, false), ("e1_noearly", true, false)] {
            let wall_ms = min_wall_ms(|| {
                let rows = exp::e1_even_cycle_tuned(2, &[n], 1, 42, fused, et);
                assert_eq!(rows.len(), 1);
            });
            entries.push(PerfEntry {
                experiment: tag.into(),
                n,
                wall_ms,
                threads,
                oversubscribed,
                shards: 0,
                peak_rss_kb: 0,
                p99_ms: 0.0,
                recorder: false,
            });
        }
        // Flight-recorder A/B at the same size: the production workload
        // with an always-on-config recorder riding every phase run. The
        // bare `e1_even_cycle` entry above is the other arm;
        // `recorder_overhead_gate` holds their gap to a few percent.
        let wall_ms = min_wall_ms(|| {
            let rec = Arc::new(FlightRecorder::new(FlightConfig::default()));
            let obs = detection::EvenCycleObserver::collecting(rec);
            let rows = exp::e1_even_cycle_instrumented(2, &[n], 1, 42, true, true, Some(&obs));
            assert_eq!(rows.len(), 1);
        });
        entries.push(PerfEntry {
            experiment: "e1_flight".into(),
            n,
            wall_ms,
            threads,
            oversubscribed,
            shards: 0,
            peak_rss_kb: 0,
            p99_ms: 0.0,
            recorder: true,
        });
    }
    for &nc in e2_sizes {
        let wall_ms = min_wall_ms(|| {
            let rows = exp::e2_superlinear(2, &[nc], 7);
            assert_eq!(rows.len(), 1);
        });
        entries.push(PerfEntry {
            experiment: "e2_superlinear".into(),
            n: nc,
            wall_ms,
            threads,
            oversubscribed,
            shards: 0,
            peak_rss_kb: 0,
            p99_ms: 0.0,
            recorder: false,
        });
    }
    for &q in serve_sizes {
        entries.push(serve_qps_workload(q));
    }
    // E3-scale runs last (largest workload) so its VmHWM reading is the
    // run's true high-water mark, not an echo of a later allocation. The
    // graph is built once outside the timed region — the column times the
    // sharded round loop, not the generator.
    for &n in e3_sizes {
        let g = exp::scale_graph(n, 42);
        // One timing rep: the workload runs for tens of seconds at the
        // full size, so startup noise is in the per-mille range and a
        // 3-rep minimum would triple the bench for nothing.
        let wall_ms = min_wall_ms_over(1, || {
            let row = exp::e3_scale_on(&g, 0, 42);
            assert_eq!(row.n, n);
        });
        entries.push(PerfEntry {
            experiment: "e3_scale".into(),
            n,
            wall_ms,
            threads,
            oversubscribed,
            // Auto mode resolves to one shard per pool lane.
            shards: threads.min(n.max(1)),
            peak_rss_kb: peak_rss_kb(),
            p99_ms: 0.0,
            recorder: false,
        });
    }
    entries
}

/// Budgeted E3-scale: walk the scale experiment up by doubling `n` from
/// `start_n`, stopping before the run that would blow a `budget_secs`
/// wall-clock budget (projected as ~2.4× the last run — the workload is
/// slightly superlinear in `n`) or past `cap_n`. Graph construction counts
/// against the budget; each entry's `wall_ms` is still the round loop
/// alone, comparable with the full `e3_scale` entries. This is how CI
/// checks the `n = 10^6` trajectory without hard-coding a ten-minute run:
/// the sweep reaches whatever size the budget affords and reports it.
pub fn e3_budget_entries(budget_secs: f64, start_n: usize, cap_n: usize) -> Vec<PerfEntry> {
    let threads = rayon::current_num_threads();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut entries = Vec::new();
    let mut n = start_n;
    let budget = Instant::now();
    // Worst per-node cost seen so far, for projecting the next (doubled)
    // size. Early termination makes wall time vary a lot between sizes —
    // one size may quiesce almost immediately while the next churns — so
    // projecting from the *last* run alone badly overshoots the budget;
    // the running worst is the conservative estimator.
    let mut worst_ms_per_node = 0.0f64;
    loop {
        let g = exp::scale_graph(n, 42);
        let t = Instant::now();
        let row = exp::e3_scale_on(&g, 0, 42);
        assert_eq!(row.n, n);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        entries.push(PerfEntry {
            experiment: "e3_budget".into(),
            n,
            wall_ms,
            threads,
            oversubscribed: threads > host_cpus,
            shards: threads.min(n.max(1)),
            peak_rss_kb: peak_rss_kb(),
            p99_ms: 0.0,
            recorder: false,
        });
        worst_ms_per_node = worst_ms_per_node.max(wall_ms / n as f64);
        n *= 2;
        let spent = budget.elapsed().as_secs_f64();
        // The per-node rate itself roughly doubles per doubling of n
        // (the round schedule grows with n too), so project the next size
        // at ~2.4× the worst rate seen so far.
        let projected = 2.4 * worst_ms_per_node * n as f64 / 1e3;
        if n > cap_n || spent + projected > budget_secs {
            break;
        }
    }
    entries
}

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

/// All canonical run reports, in a fixed order — the `perf` binary's
/// `--run-reports` export and the golden-file tests share this list. The
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

/// `YYYY-MM-DD` for a Unix timestamp (civil-from-days, proleptic
/// Gregorian) — enough calendar for a file name, no date crate needed.
pub fn date_stamp(secs_since_epoch: u64) -> String {
    let z = (secs_since_epoch / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Extracts the raw text of a scalar JSON field from a flat object
/// fragment. Hand-rolled on purpose (no serde in-tree): good enough for
/// the perf documents this module itself writes.
fn json_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = obj[start..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parses the `host_cpus` field of a perf-baseline document.
pub fn parse_host_cpus(doc: &str) -> Option<usize> {
    json_field(doc, "host_cpus")?.parse().ok()
}

/// Parses every entry object of a perf-baseline document (or a bare
/// stream of entry lines, as `--emit` prints). Tolerates older documents
/// without `schema`/`version`/`oversubscribed` fields; entries it cannot
/// parse are skipped.
pub fn parse_entries(doc: &str) -> Vec<PerfEntry> {
    doc.lines()
        .filter(|l| l.contains(r#""experiment""#))
        .filter_map(|l| {
            Some(PerfEntry {
                experiment: json_field(l, "experiment")?.to_string(),
                n: json_field(l, "n")?.parse().ok()?,
                wall_ms: json_field(l, "wall_ms")?.parse().ok()?,
                threads: json_field(l, "threads")?.parse().ok()?,
                oversubscribed: json_field(l, "oversubscribed") == Some("true"),
                shards: json_field(l, "shards")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0),
                peak_rss_kb: json_field(l, "peak_rss_kb")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0),
                p99_ms: json_field(l, "p99_ms")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0.0),
                recorder: json_field(l, "recorder") == Some("true"),
            })
        })
        .collect()
}

/// Result of a perf-regression comparison.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Entries compared against a baseline.
    pub checked: usize,
    /// Human-readable notes for entries that could not be compared.
    pub skipped: Vec<String>,
    /// Regressions above tolerance (empty = gate passes).
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares `current` timings against a committed baseline document.
///
/// An entry fails when its wall clock exceeds the matching baseline entry
/// (same experiment, size, and thread count) by more than `tolerance_pct`
/// percent. Comparisons are skipped — never failed — when the baseline was
/// recorded on a host with a different CPU count, or when either side is
/// oversubscribed (threads > host CPUs measure scheduler thrash, not the
/// engine). Baselines predating the `oversubscribed` flag are classified
/// from their own recorded `host_cpus`.
pub fn regression_gate(
    baseline_doc: &str,
    current: &[PerfEntry],
    host_cpus: usize,
    tolerance_pct: f64,
) -> GateOutcome {
    let mut out = GateOutcome::default();
    let baseline_host = parse_host_cpus(baseline_doc);
    if baseline_host != Some(host_cpus) {
        out.skipped.push(format!(
            "baseline host_cpus {baseline_host:?} != current {host_cpus}: nothing comparable"
        ));
        return out;
    }
    let baseline = parse_entries(baseline_doc);
    for cur in current {
        let tag = format!("{} n={} threads={}", cur.experiment, cur.n, cur.threads);
        if cur.oversubscribed || cur.threads > host_cpus {
            out.skipped.push(format!("{tag}: oversubscribed run"));
            continue;
        }
        let base = baseline.iter().find(|b| {
            b.experiment == cur.experiment
                && b.n == cur.n
                && b.threads == cur.threads
                && !b.oversubscribed
                && b.threads <= host_cpus
        });
        match base {
            None => out
                .skipped
                .push(format!("{tag}: no comparable baseline entry")),
            Some(b) => {
                out.checked += 1;
                let limit = b.wall_ms * (1.0 + tolerance_pct / 100.0);
                if cur.wall_ms > limit {
                    out.failures.push(format!(
                        "{tag}: {:.3} ms vs baseline {:.3} ms (limit {limit:.3} ms at +{tolerance_pct}%)",
                        cur.wall_ms, b.wall_ms
                    ));
                }
                // Serve-QPS entries additionally gate the tail: the
                // throughput number only means something *at* its p99, so
                // both must hold (skipped when either side predates v3).
                if cur.p99_ms > 0.0 && b.p99_ms > 0.0 {
                    let p99_limit = b.p99_ms * (1.0 + tolerance_pct / 100.0);
                    if cur.p99_ms > p99_limit {
                        out.failures.push(format!(
                            "{tag}: p99 {:.3} ms vs baseline {:.3} ms (limit {p99_limit:.3} ms at +{tolerance_pct}%)",
                            cur.p99_ms, b.p99_ms
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Wall-clock deltas below this are timer noise, not recorder cost: the
/// min-over-reps estimator still jitters by a few hundred µs on a loaded
/// host, so percentage gates only fire once the absolute gap clears it.
pub const RECORDER_NOISE_FLOOR_MS: f64 = 0.5;

/// The flight-recorder overhead check: for every `(n, threads)` with both
/// an `e1_flight` and a bare `e1_even_cycle` entry *in the same report*,
/// the recorder arm must cost at most `max_pct` percent over the bare arm
/// (absolute gaps under [`RECORDER_NOISE_FLOOR_MS`] always pass). The two
/// arms come from the same process minutes apart, so no baseline document
/// or host matching is involved — the A/B is self-contained.
pub fn recorder_overhead_gate(entries: &[PerfEntry], max_pct: f64) -> GateOutcome {
    let mut out = GateOutcome::default();
    for flight in entries.iter().filter(|e| e.experiment == "e1_flight") {
        let tag = format!("e1_flight n={} threads={}", flight.n, flight.threads);
        let Some(bare) = entries.iter().find(|b| {
            b.experiment == "e1_even_cycle" && b.n == flight.n && b.threads == flight.threads
        }) else {
            out.skipped
                .push(format!("{tag}: no bare e1 arm to compare"));
            continue;
        };
        out.checked += 1;
        let delta = flight.wall_ms - bare.wall_ms;
        let limit = bare.wall_ms * max_pct / 100.0;
        if delta > RECORDER_NOISE_FLOOR_MS && delta > limit {
            out.failures.push(format!(
                "{tag}: recorder overhead {delta:.3} ms over {:.3} ms bare (+{:.1}%, limit +{max_pct}%)",
                bare.wall_ms,
                100.0 * delta / bare.wall_ms
            ));
        }
    }
    out
}

/// Per-workload speedup lines relative to the 1-thread entries.
/// Oversubscribed entries are reported as skipped rather than folded into
/// a meaningless "speedup".
pub fn speedup_summary(entries: &[PerfEntry], host_cpus: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for base in entries.iter().filter(|e| e.threads == 1) {
        for multi in entries
            .iter()
            .filter(|e| e.experiment == base.experiment && e.n == base.n && e.threads > 1)
        {
            let tag = format!(
                "{} n={} @{} threads",
                multi.experiment, multi.n, multi.threads
            );
            if multi.oversubscribed || multi.threads > host_cpus {
                lines.push(format!("{tag}: skipped (oversubscribed)"));
            } else {
                lines.push(format!(
                    "{tag}: {:.2}x over 1 thread ({:.3} ms -> {:.3} ms)",
                    base.wall_ms / multi.wall_ms,
                    base.wall_ms,
                    multi.wall_ms
                ));
            }
        }
    }
    lines
}

/// Renders the full report document from pre-rendered entry objects (one
/// JSON object string each, as produced by [`PerfEntry::to_json`]) gathered
/// across thread counts.
pub fn render_report(date: &str, host_cpus: usize, entry_jsons: &[String]) -> String {
    let body: Vec<String> = entry_jsons.iter().map(|e| format!("    {e}")).collect();
    format!(
        "{{\n  \"schema\": \"{PERF_REPORT_SCHEMA}\",\n  \"version\": {PERF_REPORT_VERSION},\n  \"date\": \"{date}\",\n  \"host_cpus\": {host_cpus},\n  \"entries\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_stamp_is_civil() {
        assert_eq!(date_stamp(0), "1970-01-01");
        assert_eq!(date_stamp(86_400), "1970-01-02");
        // 2026-08-06 00:00:00 UTC.
        assert_eq!(date_stamp(1_785_974_400), "2026-08-06");
        // Leap day.
        assert_eq!(date_stamp(1_709_164_800), "2024-02-29");
    }

    fn entry(experiment: &str, n: usize, wall_ms: f64, threads: usize) -> PerfEntry {
        PerfEntry {
            experiment: experiment.into(),
            n,
            wall_ms,
            threads,
            oversubscribed: false,
            shards: 0,
            peak_rss_kb: 0,
            p99_ms: 0.0,
            recorder: false,
        }
    }

    #[test]
    fn report_is_valid_json_shape() {
        let entries = [
            entry("e1_even_cycle", 128, 12.5, 1),
            PerfEntry {
                oversubscribed: true,
                ..entry("e2_superlinear", 16, 3.25, 4)
            },
        ];
        let jsons: Vec<String> = entries.iter().map(PerfEntry::to_json).collect();
        let doc = render_report("2026-08-06", 4, &jsons);
        assert!(
            doc.contains(r#""experiment":"e1_even_cycle","n":128,"wall_ms":12.500,"threads":1"#)
        );
        assert!(doc.contains(r#""threads":4,"oversubscribed":true"#));
        assert!(doc.contains(r#""host_cpus": 4"#));
        assert!(doc.contains(r#""schema": "congest.perf_report""#));
        assert!(doc.contains(r#""version": 4"#));
        // Balanced braces/brackets, trailing newline — cheap well-formedness.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(doc.ends_with('\n'));
    }

    #[test]
    fn entries_roundtrip_through_render_and_parse() {
        let entries = vec![
            entry("e1_even_cycle", 256, 75.23, 1),
            PerfEntry {
                oversubscribed: true,
                ..entry("e1_even_cycle", 256, 300.0, 4)
            },
            PerfEntry {
                shards: 4,
                peak_rss_kb: 184_320,
                ..entry("e3_scale", 100_000, 4_200.5, 4)
            },
        ];
        let jsons: Vec<String> = entries.iter().map(PerfEntry::to_json).collect();
        let doc = render_report("2026-08-06", 1, &jsons);
        assert_eq!(parse_entries(&doc), entries);
        assert_eq!(parse_host_cpus(&doc), Some(1));
    }

    #[test]
    fn parser_tolerates_old_schema_less_documents() {
        // PR 2-era documents: no schema/version, no oversubscribed flags.
        let doc = concat!(
            "{\n  \"date\": \"2026-08-06\",\n  \"host_cpus\": 1,\n  \"entries\": [\n",
            "    {\"experiment\":\"e1_even_cycle\",\"n\":512,\"wall_ms\":181.187,\"threads\":1},\n",
            "    {\"experiment\":\"e1_even_cycle\",\"n\":512,\"wall_ms\":702.577,\"threads\":4}\n",
            "  ]\n}\n"
        );
        let parsed = parse_entries(doc);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].wall_ms, 181.187);
        assert!(!parsed[0].oversubscribed && !parsed[1].oversubscribed);
        assert_eq!(parse_host_cpus(doc), Some(1));
    }

    #[test]
    fn v2_columns_are_emitted_only_when_set() {
        let plain = entry("e1_even_cycle", 128, 1.0, 1).to_json();
        assert!(!plain.contains("shards") && !plain.contains("peak_rss_kb"));
        let scale = PerfEntry {
            shards: 2,
            peak_rss_kb: 1024,
            ..entry("e3_scale", 10_000, 9.0, 2)
        }
        .to_json();
        assert!(scale.contains(r#""shards":2"#));
        assert!(scale.contains(r#""peak_rss_kb":1024"#));
    }

    #[test]
    fn p99_column_round_trips_and_gates() {
        let serve = PerfEntry {
            p99_ms: 12.345,
            ..entry("serve_qps", 100, 400.0, 1)
        };
        let json = serve.to_json();
        assert!(json.contains(r#""p99_ms":12.345"#));
        let plain = entry("e1_even_cycle", 128, 1.0, 1).to_json();
        assert!(!plain.contains("p99_ms"), "absent when not recorded");
        let doc = render_report("2026-08-09", 1, &[json]);
        assert_eq!(parse_entries(&doc), vec![serve.clone()]);
        // Same wall clock but a blown tail must fail the gate.
        let slow_tail = PerfEntry {
            p99_ms: 20.0,
            ..serve.clone()
        };
        let gate = regression_gate(&doc, &[slow_tail], 1, 20.0);
        assert!(!gate.passed());
        assert!(gate.failures[0].contains("p99"));
        let ok = regression_gate(&doc, &[serve], 1, 20.0);
        assert!(ok.passed());
    }

    #[test]
    fn recorder_column_round_trips_and_is_absent_when_off() {
        let flight = PerfEntry {
            recorder: true,
            ..entry("e1_flight", 512, 105.0, 1)
        };
        let json = flight.to_json();
        assert!(json.contains(r#""recorder":true"#));
        let bare = entry("e1_even_cycle", 512, 100.0, 1).to_json();
        assert!(!bare.contains("recorder"), "absent when off");
        let doc = render_report("2026-08-09", 1, &[json, bare]);
        let parsed = parse_entries(&doc);
        assert_eq!(parsed[0], flight);
        assert!(!parsed[1].recorder);
    }

    #[test]
    fn recorder_overhead_gate_pairs_arms_and_applies_the_floor() {
        let pair = |bare_ms: f64, flight_ms: f64| {
            vec![
                entry("e1_even_cycle", 512, bare_ms, 1),
                PerfEntry {
                    recorder: true,
                    ..entry("e1_flight", 512, flight_ms, 1)
                },
            ]
        };
        // 3% over: passes a 5% gate.
        let ok = recorder_overhead_gate(&pair(100.0, 103.0), 5.0);
        assert!(ok.passed());
        assert_eq!(ok.checked, 1);
        // 10% over: fails.
        let bad = recorder_overhead_gate(&pair(100.0, 110.0), 5.0);
        assert!(!bad.passed());
        assert!(bad.failures[0].contains("e1_flight n=512"));
        // Sub-floor absolute gap passes even at a huge percentage — 0.4 ms
        // over a 1 ms run is timer noise, not recorder cost.
        let tiny = recorder_overhead_gate(&pair(1.0, 1.4), 5.0);
        assert!(tiny.passed());
        // Unpaired flight entry (different thread count): skipped.
        let unpaired = vec![
            entry("e1_even_cycle", 512, 100.0, 4),
            PerfEntry {
                recorder: true,
                ..entry("e1_flight", 512, 200.0, 1)
            },
        ];
        let skip = recorder_overhead_gate(&unpaired, 5.0);
        assert!(skip.passed());
        assert_eq!(skip.checked, 0);
        assert!(skip.skipped[0].contains("no bare e1 arm"));
    }

    #[test]
    fn peak_rss_reader_reports_this_process() {
        // Any live Linux process has a nonzero high-water mark; elsewhere
        // the reader degrades to 0 instead of failing.
        let kb = peak_rss_kb();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(kb > 0, "VmHWM should be readable, got {kb}");
        }
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_above() {
        let baseline = render_report(
            "2026-08-06",
            1,
            &[entry("e1_even_cycle", 512, 100.0, 1).to_json()],
        );
        let ok = regression_gate(&baseline, &[entry("e1_even_cycle", 512, 115.0, 1)], 1, 20.0);
        assert!(ok.passed());
        assert_eq!(ok.checked, 1);
        let bad = regression_gate(&baseline, &[entry("e1_even_cycle", 512, 125.0, 1)], 1, 20.0);
        assert!(!bad.passed());
        assert!(bad.failures[0].contains("e1_even_cycle n=512"));
    }

    #[test]
    fn gate_skips_host_mismatch_and_oversubscription() {
        let baseline = render_report(
            "2026-08-06",
            1,
            &[
                entry("e1_even_cycle", 512, 100.0, 1).to_json(),
                // Unmarked 4-thread entry from a 1-CPU host (old format):
                // classified as incomparable from host_cpus, not the flag.
                entry("e1_even_cycle", 512, 700.0, 4).to_json(),
            ],
        );
        // Different host: everything skipped, gate passes vacuously.
        let other_host = regression_gate(
            &baseline,
            &[entry("e1_even_cycle", 512, 9_999.0, 1)],
            8,
            20.0,
        );
        assert!(other_host.passed());
        assert_eq!(other_host.checked, 0);
        // Same 1-CPU host: the current 4-thread run is oversubscribed and
        // must be skipped even though the baseline has a 4-thread entry.
        let cur = PerfEntry {
            oversubscribed: true,
            ..entry("e1_even_cycle", 512, 9_999.0, 4)
        };
        let over = regression_gate(&baseline, &[cur], 1, 20.0);
        assert!(over.passed());
        assert_eq!(over.checked, 0);
        assert!(over.skipped[0].contains("oversubscribed"));
    }

    #[test]
    fn speedups_skip_oversubscribed_entries() {
        let entries = vec![
            entry("e1_even_cycle", 512, 100.0, 1),
            entry("e1_even_cycle", 512, 50.0, 2),
            PerfEntry {
                oversubscribed: true,
                ..entry("e1_even_cycle", 512, 400.0, 4)
            },
        ];
        let lines = speedup_summary(&entries, 2);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("2.00x"));
        assert!(lines[1].contains("skipped (oversubscribed)"));
    }
}
