//! The `serve_mixed` workload: the real `congest-serve` binary over its
//! Unix socket, driven by one client connection in a closed loop. The
//! server takes one connection at a time, and its clients wait for each
//! batch summary before sending more.
//!
//! Each request is a batch of [`BATCH`] queries closed by a flush. The mix
//! is the traffic of the service's golden session — a planted-`C_4` host
//! at n = 96; `even_cycle` with 2 repetitions and `triangle`, each clean
//! and at 25 % loss — with one query in four naming a cold graph. Every
//! batch pairs an `even_cycle` query with a `triangle` query, so every
//! batch costs about the same.
//!
//! A traced run times a one-line telemetry request after each batch on
//! the same connection, for the socket's own cost, then replays the same
//! request stream in process: the real [`Service`] times each batch
//! whole, and a mirror of its pipeline built from the public `serve`
//! functions times each layer and must agree with the service's answers.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use congest::{Collector, FaultSpec, Overrides, Prepared, ReliableConfig};
use graphlib::Graph;
use rayon::prelude::*;
use serve::scenario::{clique_horizon, execute, prepare_clique, prepare_even_cycle, Job};
use serve::{
    compact_json, json, parse_request, Cache, Query, QueryOutcome, Request, ScenarioSpec, Service,
    ServiceConfig,
};
use subgraph_detection::clique_detect::CliqueDetectNode;
use subgraph_detection::even_cycle::theorem_bound;
use subgraph_detection::{
    detect_even_cycle_faulty_observed, detect_even_cycle_observed, EvenCycleConfig,
    EvenCycleObserver,
};

use crate::client::{check_batch, Conn, Server, FLUSH};
use crate::clock::{RoundClock, RoundSplit};
use crate::metrics::Report;
use crate::stats::{mean, median, ratio, tail};
use crate::{one_lane_counts, RunOpts};

/// Queries per batch.
pub const BATCH: u64 = 2;
/// Nodes of every host graph in the mix.
const HOST_N: usize = 96;
/// Seed of the graph every warm query names (the golden session's).
const WARM_GRAPH_SEED: u64 = 7;
/// Cold queries cycle through this many graphs, more than the server's
/// cache holds (32), so under LRU each cold query misses, builds, stages
/// and evicts.
const COLD_GRAPHS: u64 = 40;
/// Batches of the window between two extra server starts. Each start,
/// like the first, is one `setup_s` sample, so the samples spread over
/// the whole window.
const SETUP_EVERY: u64 = 50;
/// Pool lanes of the server.
const SERVER_LANES: usize = 2;
/// Batches, from the first, whose answer bytes a one-lane in-process
/// replay must reproduce.
const CHECK_BATCHES: u64 = 200;
/// Batches a traced run replays in process, at most.
const REPLAY_BATCHES: u64 = 500;
/// Batches of the replay that also run under the round clock.
const CLOCKED_BATCHES: u64 = 100;
/// Where server sockets go, relative to the working directory.
const SOCKET_DIR: &str = ".perfbench_run";
/// The `serve.execute_us.*` metrics, indexed by [`kind_index`].
const EXECUTE_METRICS: [&str; 4] = [
    "serve.execute_us.even_cycle",
    "serve.execute_us.even_cycle_lossy",
    "serve.execute_us.triangle",
    "serve.execute_us.triangle_lossy",
];

/// Query `idx` of the request stream of run seed `seed`.
pub fn query_line(seed: u64, idx: u64) -> String {
    let graph_seed = if matches!(idx % 16, 0 | 5 | 10 | 15) {
        1000 + seed.wrapping_add(idx / 4) % COLD_GRAPHS
    } else {
        WARM_GRAPH_SEED
    };
    // Under 2^53, so the seed survives the protocol's JSON numbers.
    let qseed = ((seed & 0xF_FFFF) << 32) | (idx & 0xFFFF_FFFF);
    let lossy = r#","faults":{"kind":"independent_loss","p":0.25}"#;
    let scenario = match idx % 4 {
        0 => format!(r#"{{"kind":"even_cycle","k":2,"repetitions":2,"seed":{qseed}}}"#),
        1 => format!(r#"{{"kind":"triangle","seed":{qseed}}}"#),
        2 => format!(r#"{{"kind":"even_cycle","k":2,"repetitions":2,"seed":{qseed}{lossy}}}"#),
        _ => format!(r#"{{"kind":"triangle","seed":{qseed}{lossy}}}"#),
    };
    format!(
        r#"{{"schema":"congest.serve","version":1,"op":"query","id":"q{idx}","graph":{{"generator":"planted_c2k","n":{HOST_N},"d":3,"k":2,"seed":{graph_seed}}},"scenario":{scenario}}}"#
    )
}

/// The query lines of batch `b`.
pub fn batch_lines(seed: u64, b: u64) -> Vec<String> {
    (b * BATCH..(b + 1) * BATCH)
        .map(|i| query_line(seed, i))
        .collect()
}

/// The query ids of batch `b`, in request order.
pub fn batch_ids(b: u64) -> Vec<String> {
    (b * BATCH..(b + 1) * BATCH)
        .map(|i| format!("q{i}"))
        .collect()
}

/// A running FNV-1a digest over answer lines, each newline-terminated.
#[derive(Debug, Clone, Copy)]
pub struct Transcript(u64);

impl Default for Transcript {
    fn default() -> Self {
        Transcript(0xcbf2_9ce4_8422_2325)
    }
}

impl Transcript {
    /// Adds one answer line.
    pub fn add(&mut self, line: &str) {
        for b in line.bytes().chain([b'\n']) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest of the answers to batches `0..batches` from an in-process
/// [`Service`] with the binary's default configuration: what a socket
/// session's first batches must reproduce byte for byte.
pub fn replay_digest(seed: u64, batches: u64) -> String {
    let mut service = Service::new(ServiceConfig::default());
    let mut digest = Transcript::default();
    for b in 0..batches {
        for line in batch_lines(seed, b)
            .iter()
            .map(String::as_str)
            .chain([FLUSH])
        {
            for answer in service.handle_line(line) {
                digest.add(&answer);
            }
        }
    }
    digest.hex()
}

/// Counters summed over batch summaries.
#[derive(Debug, Default)]
struct Summaries {
    batches: f64,
    graph_hits: f64,
    graph_misses: f64,
    prepared_hits: f64,
    prepared_misses: f64,
    evictions: f64,
}

impl Summaries {
    /// Adds one batch summary; returns the batch's rounds.
    fn add(&mut self, summary: &json::Value) -> f64 {
        let metrics = summary.get("metrics");
        let get = |key: &str| {
            metrics
                .and_then(|m| m.get(key))
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0)
        };
        self.batches += 1.0;
        self.graph_hits += get("serve.cache.graph_hits");
        self.graph_misses += get("serve.cache.graph_misses");
        self.prepared_hits += get("serve.cache.prepared_hits");
        self.prepared_misses += get("serve.cache.prepared_misses");
        self.evictions +=
            get("serve.cache.graph_evictions") + get("serve.cache.prepared_evictions");
        get("rounds.total")
    }
}

/// Starts a server on `socket`, connects, and has warm-up batch 0
/// answered: one `setup_s` sample. Returns the session, the answer and
/// the time it took.
fn start_session(
    bin: &Path,
    socket: &Path,
    seed: u64,
) -> std::io::Result<(Server, Conn, Vec<String>, f64)> {
    let t = Instant::now();
    let mut server = Server::spawn(bin, socket, SERVER_LANES)?;
    let mut conn = server.connect()?;
    let answer = conn.batch(&batch_lines(seed, 0))?;
    Ok((server, conn, answer, t.elapsed().as_secs_f64()))
}

/// Runs `serve_mixed` against the `congest-serve` binary at `bin`.
pub fn run(opts: &RunOpts, bin: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    std::fs::create_dir_all(SOCKET_DIR).map_err(|e| format!("cannot create {SOCKET_DIR}: {e}"))?;
    let socket =
        |k: usize| Path::new(SOCKET_DIR).join(format!("serve-{}-{k}.sock", std::process::id()));
    let io = |e: std::io::Error| format!("congest-serve: {e}");

    let (server, mut conn, warm_up, secs) =
        start_session(bin, &socket(0), opts.seed).map_err(io)?;
    let mut setup = vec![secs];
    report
        .tally
        .check_result("warm-up batch", check_batch(&batch_ids(0), &warm_up));
    let mut transcript = Transcript::default();
    warm_up.iter().for_each(|l| transcript.add(l));

    // A traced run spends half its time on the socket, half replaying.
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut round_trips = Vec::new();
    let mut round_rates = Vec::new();
    let mut ipc = Vec::new();
    let mut sums = Summaries::default();
    let start = Instant::now();
    // Wall time of the extra server starts, which the window leaves out.
    let mut starts_s = 0.0;
    let mut b = 1;
    while b == 1 || start.elapsed().as_secs_f64() - starts_s < window {
        let queries = batch_lines(opts.seed, b);
        let t = Instant::now();
        let answer = conn.batch(&queries).map_err(io)?;
        let secs = t.elapsed().as_secs_f64();
        round_trips.push(secs);
        let checked = check_batch(&batch_ids(b), &answer);
        if let Some(summary) = report.tally.check_result(&format!("batch {b}"), checked) {
            round_rates.push(sums.add(&summary) / secs);
        }
        if b < CHECK_BATCHES {
            answer.iter().for_each(|l| transcript.add(l));
        }
        if opts.trace {
            let t = Instant::now();
            let probe = conn.telemetry().map_err(|e| e.to_string());
            let secs = t.elapsed().as_secs_f64();
            if report
                .tally
                .check_result("telemetry probe", probe)
                .is_some()
            {
                ipc.push(secs);
            }
        }
        if b % SETUP_EVERY == 0 {
            let t = Instant::now();
            let (extra, extra_conn, answer, secs) =
                start_session(bin, &socket(setup.len()), opts.seed).map_err(io)?;
            setup.push(secs);
            report
                .tally
                .check_result("warm-up batch", check_batch(&batch_ids(0), &answer));
            drop(extra_conn);
            drop(extra);
            starts_s += t.elapsed().as_secs_f64();
        }
        b += 1;
    }
    let elapsed = start.elapsed().as_secs_f64() - starts_s;
    let batches = b;
    let rss = server.peak_rss_mb()?;
    drop(conn);
    drop(server);

    let checked = batches.min(CHECK_BATCHES);
    let one_lane = one_lane_counts(
        "serve_mixed",
        opts.seed,
        &["--batches", &checked.to_string()],
    )?;
    report.tally.check(one_lane.counts == transcript.hex(), || {
        format!("the first {checked} batches differ from a one-lane in-process replay")
    });

    let (pct, tail_s) = tail(&round_trips);
    report.note(format!(
        "serve_mixed: {} batches of {BATCH} in {elapsed:.3} s; the round-trip tail is p{pct}; \
         {} server starts",
        round_trips.len(),
        setup.len()
    ));
    report.set("verdict_p50_ms", median(&round_trips) * 1e3);
    report.set("verdict_tail_ms", tail_s * 1e3);
    report.set(
        "queries_per_s",
        round_trips.len() as f64 * BATCH as f64 / elapsed,
    );
    report.set("rounds_per_s", median(&round_rates));
    report.set("setup_s", median(&setup));
    report.set("peak_rss_mb", rss);
    if opts.trace {
        let socket = Socket {
            round_trips: &round_trips,
            ipc: &ipc,
            sums: &sums,
        };
        layers(opts.seed, batches, &socket, &mut report)?;
    }
    Ok(report)
}

/// `json::parse` and `parse_request` of one query line.
fn parse_query(line: &str) -> Result<Query, String> {
    match json::parse(line).and_then(|v| parse_request(&v))? {
        Request::Query(q) => Ok(q),
        other => Err(format!("expected a query, parsed {other:?}")),
    }
}

/// Index of a scenario's `serve.execute_us.*` metric.
fn kind_index(s: &ScenarioSpec) -> usize {
    match s {
        ScenarioSpec::EvenCycle { faults: None, .. } => 0,
        ScenarioSpec::EvenCycle { .. } => 1,
        ScenarioSpec::CliqueDetect { faults: None, .. } => 2,
        ScenarioSpec::CliqueDetect { .. } => 3,
    }
}

/// How one cache access went: a hit or a miss, its wall time, and on a
/// miss the time of the build inside it (seconds).
#[derive(Debug, Clone, Copy)]
struct Access {
    hit: bool,
    secs: f64,
    build_secs: f64,
}

/// `cache.get_or_insert_with`, timed.
fn timed_get<V>(cache: &mut Cache<V>, key: &str, build: impl FnOnce() -> V) -> (Arc<V>, Access) {
    let mut build_secs = 0.0;
    let t = Instant::now();
    let (value, hit) = cache.get_or_insert_with(key, || {
        let b = Instant::now();
        let v = build();
        build_secs = b.elapsed().as_secs_f64();
        v
    });
    let secs = t.elapsed().as_secs_f64();
    (
        value,
        Access {
            hit,
            secs,
            build_secs,
        },
    )
}

/// What the service answered, or the mirror saw, for one query: its
/// cache provenance and its verdict.
#[derive(Debug, PartialEq, Eq)]
struct Seen {
    graph_hit: bool,
    prepared_hit: Option<bool>,
    detected: bool,
}

impl Seen {
    /// Reads one response line of the service.
    fn of_response(line: &str) -> Option<Seen> {
        let v = json::parse(line).ok()?;
        let cache = v.get("cache")?;
        let hit = |key: &str| {
            cache
                .get(key)
                .and_then(json::Value::as_str)
                .map(|s| s == "hit")
        };
        Some(Seen {
            graph_hit: hit("graph")?,
            prepared_hit: hit("prepared"),
            detected: v.get("detected")?.as_bool()?,
        })
    }
}

/// Wall-time samples of a traced replay.
#[derive(Default)]
struct Samples {
    build_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
    resolve_hit_us: Vec<f64>,
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    service_ms: Vec<f64>,
    /// Per batch, the sum of its parse, resolve, execute and render spans,
    /// in milliseconds.
    spans_ms: Vec<f64>,
    execute_us: [Vec<f64>; 4],
    /// Wall time of the batches' parallel execute steps, in seconds.
    execute_s: f64,
    rounds: f64,
    bits: f64,
}

fn since_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The service's pipeline rebuilt from public `serve` functions — parse,
/// resolve against caches of the same capacities under the same keys,
/// execute over the pool, render — so that each layer can be timed. A
/// traced replay checks its hits, misses and verdicts against the
/// service's answers to the same batch.
struct Mirror {
    graphs: Cache<Graph>,
    prepared: Cache<Prepared>,
}

impl Default for Mirror {
    fn default() -> Self {
        let cfg = ServiceConfig::default();
        Mirror {
            graphs: Cache::new(cfg.graph_cache_cap),
            prepared: Cache::new(cfg.prepared_cache_cap),
        }
    }
}

impl Mirror {
    /// The service's resolve step: the graph, then the staged topology
    /// for the scenarios the service stages.
    fn resolve(&mut self, q: &Query) -> (Job, Access, Option<Access>) {
        let key = q.graph.cache_key();
        let (graph, graph_access) = timed_get(&mut self.graphs, &key, || q.graph.build());
        let g = Arc::clone(&graph);
        let staged = match &q.scenario {
            ScenarioSpec::CliqueDetect { .. } => Some(timed_get(
                &mut self.prepared,
                &format!("prepared:clique:{key}"),
                move || prepare_clique(&g),
            )),
            ScenarioSpec::EvenCycle {
                k,
                edge_bound,
                faults: None,
                ..
            } => {
                let pkey = match edge_bound {
                    Some(m) => format!("prepared:evencycle:k{k}:m{m}:{key}"),
                    None => format!("prepared:evencycle:k{k}:{key}"),
                };
                Some(timed_get(&mut self.prepared, &pkey, move || {
                    prepare_even_cycle(&g, *k, *edge_bound)
                }))
            }
            ScenarioSpec::EvenCycle { .. } => None,
        };
        let (prepared, prepared_access) = match staged {
            Some((p, access)) => (Some(Prepared::clone(&p)), Some(access)),
            None => (None, None),
        };
        let job = Job {
            graph,
            prepared,
            scenario: q.scenario.clone(),
        };
        (job, graph_access, prepared_access)
    }

    /// Executes `jobs` over the pool, as the service does, each with its
    /// wall time in microseconds.
    fn execute(jobs: &[Job]) -> Vec<(f64, Result<QueryOutcome, String>)> {
        jobs.par_iter()
            .map(|job| {
                let t = Instant::now();
                let out = execute(job).map_err(|e| e.to_string());
                (since_us(t), out)
            })
            .collect()
    }

    /// One batch without per-layer spans: the untraced side of
    /// `trace.overhead_frac`.
    fn plain(&mut self, lines: &[String]) -> Result<(), String> {
        let jobs = lines
            .iter()
            .map(|l| parse_query(l).map(|q| self.resolve(&q).0))
            .collect::<Result<Vec<_>, _>>()?;
        for (_, out) in Mirror::execute(&jobs) {
            std::hint::black_box(compact_json(&out?.report.to_json()));
        }
        Ok(())
    }

    /// One batch with a span around each layer, recorded into `s`.
    /// Returns the resolved jobs and what each query saw.
    fn traced(
        &mut self,
        lines: &[String],
        s: &mut Samples,
    ) -> Result<(Vec<Job>, Vec<Seen>), String> {
        let mut jobs = Vec::with_capacity(lines.len());
        let mut seen = Vec::with_capacity(lines.len());
        let mut spans_us = 0.0;
        for line in lines {
            let t = Instant::now();
            let q = parse_query(line)?;
            let parse_us = since_us(t);
            s.parse_us.push(parse_us);
            let t = Instant::now();
            let (job, graph, prepared) = self.resolve(&q);
            spans_us += parse_us + since_us(t);
            seen.push(Seen {
                graph_hit: graph.hit,
                prepared_hit: prepared.map(|p| p.hit),
                detected: false,
            });
            let builds = [(graph, &mut s.build_ms)];
            for (access, misses) in builds
                .into_iter()
                .chain(prepared.map(|p| (p, &mut s.prepare_ms)))
            {
                if access.hit {
                    s.resolve_hit_us.push(access.secs * 1e6);
                } else {
                    misses.push(access.build_secs * 1e3);
                }
            }
            jobs.push(job);
        }
        let t = Instant::now();
        let outcomes = Mirror::execute(&jobs);
        let execute_s = t.elapsed().as_secs_f64();
        s.execute_s += execute_s;
        spans_us += execute_s * 1e6;
        for ((job, seen), (exec_us, out)) in jobs.iter().zip(&mut seen).zip(outcomes) {
            let out = out?;
            seen.detected = out.detected;
            s.execute_us[kind_index(&job.scenario)].push(exec_us);
            s.rounds += out.rounds as f64;
            s.bits += out.total_bits as f64;
            let t = Instant::now();
            std::hint::black_box(compact_json(&out.report.to_json()));
            let render_us = since_us(t);
            s.render_us.push(render_us);
            spans_us += render_us;
        }
        s.spans_ms.push(spans_us / 1e3);
        Ok((jobs, seen))
    }
}

/// Totals of the queries run again under the round clock.
#[derive(Default)]
struct Clocked {
    batches: f64,
    split: RoundSplit,
    dropped: f64,
    corrupted: f64,
    even_cycles: f64,
    repetitions: f64,
    over_bound: Vec<f64>,
}

/// Runs `job` again with the round clock installed: the service's
/// `execute`, with the observed driver entry points in place of the plain
/// ones (same seeds, same observables).
fn clocked(job: &Job, clock: &Arc<RoundClock>, c: &mut Clocked) -> Result<(), String> {
    match &job.scenario {
        ScenarioSpec::EvenCycle {
            k,
            repetitions,
            seed,
            edge_bound,
            faults,
            reliable,
        } => {
            let mut cfg = EvenCycleConfig::new(*k)
                .repetitions(*repetitions)
                .seed(*seed);
            if let Some(m) = edge_bound {
                cfg = cfg.edge_bound(*m);
            }
            let obs = EvenCycleObserver::collecting(Arc::clone(clock));
            let (reps, rounds) = match faults {
                None => {
                    let r = detect_even_cycle_observed(&job.graph, cfg, &obs)
                        .map_err(|e| e.to_string())?;
                    (r.repetitions_run, r.total_rounds)
                }
                Some(spec) => {
                    let transport = reliable.then(ReliableConfig::default);
                    let r =
                        detect_even_cycle_faulty_observed(&job.graph, cfg, spec, transport, &obs)
                            .map_err(|e| e.to_string())?;
                    c.dropped += r.faults.dropped as f64;
                    c.corrupted += r.faults.corrupted as f64;
                    (r.repetitions_run, r.total_rounds)
                }
            };
            c.even_cycles += 1.0;
            c.repetitions += reps as f64;
            c.over_bound
                .push(ratio(rounds as f64, reps as f64) / theorem_bound(job.graph.n(), *k));
        }
        ScenarioSpec::CliqueDetect { s, seed, faults } => {
            let prepared = job
                .prepared
                .as_ref()
                .ok_or("a clique job without its staged topology")?;
            let (s, horizon) = (*s, clique_horizon(&job.graph));
            let collector: Arc<dyn Collector> = Arc::clone(clock) as Arc<dyn Collector>;
            let ovr = Overrides::new()
                .seed(*seed)
                .faults(faults.clone().unwrap_or(FaultSpec::None))
                .collector_arc(collector);
            let out = prepared
                .run_with(&ovr, move |_| CliqueDetectNode::new(s, horizon))
                .map_err(|e| e.to_string())?;
            c.dropped += out.faults.dropped as f64;
            c.corrupted += out.faults.corrupted as f64;
        }
    }
    // Closing the clock here keeps a clique run out of the last phase.
    c.split.add(&clock.take());
    Ok(())
}

/// What a traced run measured on the socket.
struct Socket<'a> {
    /// Batch round trips, in seconds.
    round_trips: &'a [f64],
    /// Telemetry round trips on the same connection, in seconds.
    ipc: &'a [f64],
    /// The server's batch summaries, summed.
    sums: &'a Summaries,
}

/// The per-layer split of the socket session, from an in-process replay
/// of its first batches (at most [`REPLAY_BATCHES`]).
fn layers(seed: u64, batches: u64, socket: &Socket, report: &mut Report) -> Result<(), String> {
    let replayed = batches.min(REPLAY_BATCHES);
    let mut service = Service::new(ServiceConfig::default());
    let (mut plain, mut traced) = (Mirror::default(), Mirror::default());
    let clock = Arc::new(RoundClock::default());
    let mut s = Samples::default();
    let mut c = Clocked::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for b in 0..replayed {
        let lines = batch_lines(seed, b);
        let t = Instant::now();
        let answers: Vec<String> = lines
            .iter()
            .map(String::as_str)
            .chain([FLUSH])
            .flat_map(|line| service.handle_line(line))
            .collect();
        s.service_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        plain.plain(&lines)?;
        plain_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (jobs, seen) = traced.traced(&lines, &mut s)?;
        traced_s += t.elapsed().as_secs_f64();
        // The mirror must time what the service does: the same hits and
        // misses, the same verdicts.
        let said: Vec<Option<Seen>> = answers
            .iter()
            .take(lines.len())
            .map(|l| Seen::of_response(l))
            .collect();
        let agrees =
            said.len() == seen.len() && said.iter().zip(&seen).all(|(a, b)| a.as_ref() == Some(b));
        report.tally.check(agrees, || {
            format!("replayed batch {b}: the mirror saw {seen:?}, the service answered {said:?}")
        });

        if b < CLOCKED_BATCHES {
            for job in &jobs {
                clocked(job, &clock, &mut c)?;
            }
            c.batches += 1.0;
        }
    }

    let per_batch = |x: f64| ratio(x, c.batches);
    let split = &c.split;
    let rounds = (split.active_rounds + split.idle_rounds) as f64;
    report.set("graphlib.build_ms", median(&s.build_ms));
    report.set("congest.prepare_ms", median(&s.prepare_ms));
    report.set("congest.engine.rounds", per_batch(rounds));
    report.set(
        "congest.engine.active_rounds",
        per_batch(split.active_rounds as f64),
    );
    report.set(
        "congest.engine.idle_rounds",
        per_batch(split.idle_rounds as f64),
    );
    report.set("congest.engine.messages", per_batch(split.messages as f64));
    report.set("congest.engine.bits", per_batch(split.bits as f64));
    split.report_rounds(report);
    report.set("congest.engine.rounds_per_s", ratio(s.rounds, s.execute_s));
    report.set("congest.engine.bits_per_s", ratio(s.bits, s.execute_s));
    // No query of the mix runs behind the ARQ: every round is a physical
    // round of the algorithm itself.
    report.set("congest.reliable.physical_rounds", per_batch(rounds));
    report.set("congest.reliable.round_inflation", 1.0);
    report.not_exercised("congest.reliable.");
    report.set("congest.faults.dropped", per_batch(c.dropped));
    report.set("congest.faults.corrupted", per_batch(c.corrupted));
    report.set("core.repetitions_run", ratio(c.repetitions, c.even_cycles));
    report.set("core.phase1_ms", per_batch(split.phase1_ns as f64) / 1e6);
    report.set("core.phase2_ms", per_batch(split.phase2_ns as f64) / 1e6);
    report.set("core.rounds_over_bound", mean(&c.over_bound));
    report.set("obsv.report_render_us", median(&s.render_us));
    report.set("serve.parse_us", median(&s.parse_us));
    report.set("serve.resolve_hit_us", median(&s.resolve_hit_us));
    for (&name, xs) in EXECUTE_METRICS.iter().zip(&s.execute_us) {
        report.set(name, median(xs));
    }
    let (round_trip_ms, ipc_ms) = (median(socket.round_trips) * 1e3, median(socket.ipc) * 1e3);
    report.set("serve.service_ms", median(&s.service_ms));
    report.set("serve.ipc_ms", ipc_ms);
    let sums = socket.sums;
    report.set(
        "serve.cache.graph_hit_ratio",
        ratio(sums.graph_hits, sums.graph_hits + sums.graph_misses),
    );
    report.set(
        "serve.cache.prepared_hit_ratio",
        ratio(
            sums.prepared_hits,
            sums.prepared_hits + sums.prepared_misses,
        ),
    );
    report.set("serve.cache.evictions", ratio(sums.evictions, sums.batches));
    report.set("trace.overhead_frac", ratio(traced_s, plain_s) - 1.0);
    // A round trip is the socket's cost plus the service's layers: parse,
    // resolve (with cold builds and staging), execute and render, each a
    // span of the traced mirror. What is left of the median round trip —
    // response and summary formatting, pool dispatch, host drift between
    // the socket session and the replay — is the residual.
    report.set(
        "trace.residual_frac",
        ratio(round_trip_ms - ipc_ms - median(&s.spans_ms), round_trip_ms),
    );
    Ok(())
}
