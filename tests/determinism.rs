//! Determinism across thread counts.
//!
//! The vendored rayon pool guarantees that chunk boundaries — and therefore
//! per-index work assignment — depend only on input length, never on the
//! number of worker threads. Combined with per-node RNG streams and
//! node-order trace recording, a seeded run must produce *byte-identical*
//! results whether it executes sequentially or on four workers.
//!
//! The pool is process-global and sizes itself once from
//! `RAYON_NUM_THREADS`, so each thread count needs its own process: the
//! visible test re-runs this test binary against the `#[ignore]`d fixture
//! dump below with the variable set to `1`, `4`, and unset, and compares
//! the dumps.

use congest::{Bandwidth, CrashStop, EventLog, FaultSpec};
use distributed_subgraph_detection::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::process::Command;

const BEGIN: &str = "BEGIN_DETERMINISM_FIXTURE";
const END: &str = "END_DETERMINISM_FIXTURE";

/// Everything a run can observably produce, as one `Debug` dump: the
/// even-cycle detector's report on a planted instance, and a chaos run's
/// full `Outcome` (decisions, stats, fault report, metrics) plus its event
/// stream.
fn fixture_dump() -> String {
    use std::fmt::Write as _;
    let mut dump = String::new();

    // Scenario 1: the Theorem 1.1 detector, fault-free, on a planted C4.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let base = graphlib::generators::gnp(48, 0.05, &mut rng);
    let (g, _) = graphlib::generators::plant_cycle(&base, 4, &mut rng);
    let cfg = detection::EvenCycleConfig::new(2).repetitions(4).seed(17);
    let rep = detection::detect_even_cycle(&g, cfg).expect("detector run failed");
    writeln!(dump, "even_cycle: {rep:?}").unwrap();

    // Scenario 2: a chaos run — loss + corruption + crashes stacked — with
    // a trace attached, exercising every fault path of the engine.
    let mut rng2 = ChaCha8Rng::seed_from_u64(23);
    let g2 = graphlib::generators::gnp(40, 0.12, &mut rng2);
    let sched = detection::even_cycle::Schedule::derive(g2.n(), 2, None);
    let bandwidth = Bandwidth::Bits(sched.required_bandwidth.max(8));
    let max_rounds = sched.r1_rounds + 2;
    let trace = std::sync::Arc::new(EventLog::new());
    let out = Simulation::on(&g2)
        .bandwidth(bandwidth)
        .seed(99)
        .max_rounds(max_rounds)
        .faults(FaultSpec::Stack(vec![
            FaultSpec::IndependentLoss(0.15),
            FaultSpec::BitFlip(0.1),
            FaultSpec::CrashStop(CrashStop::random(2, 3)),
        ]))
        .collector_arc(trace.clone())
        .run(move |_| detection::even_cycle::ColorBfsNode::new(sched.clone()))
        .expect("chaos run failed");
    writeln!(dump, "chaos_outcome: {out:?}").unwrap();
    for ev in trace.take() {
        writeln!(dump, "chaos_trace: {ev:?}").unwrap();
    }
    dump
}

/// Helper, not run directly: prints the fixture between markers so the
/// parent test can extract and compare it. (`#[ignore]` keeps it out of the
/// normal run; the parent invokes it with `--ignored`.)
#[test]
#[ignore = "subprocess helper for determinism_across_thread_counts"]
fn dump_determinism_fixture() {
    println!("{BEGIN}");
    print!("{}", fixture_dump());
    println!("{END}");
}

#[test]
fn determinism_across_thread_counts() {
    let exe = std::env::current_exe().expect("cannot locate test binary");
    let mut dumps: Vec<(String, String)> = Vec::new();
    for threads in [Some("1"), Some("4"), None] {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--ignored",
            "--exact",
            "--nocapture",
            "dump_determinism_fixture",
        ]);
        cmd.env_remove("RAYON_NUM_THREADS");
        if let Some(t) = threads {
            cmd.env("RAYON_NUM_THREADS", t);
        }
        let label = threads.unwrap_or("unset").to_string();
        let out = cmd.output().expect("failed to spawn fixture subprocess");
        let stdout = String::from_utf8(out.stdout).expect("fixture dump not UTF-8");
        assert!(
            out.status.success(),
            "fixture subprocess failed at RAYON_NUM_THREADS={label}:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let begin = stdout
            .find(BEGIN)
            .unwrap_or_else(|| panic!("no fixture marker at RAYON_NUM_THREADS={label}"))
            + BEGIN.len();
        let end = stdout.find(END).expect("fixture end marker missing");
        dumps.push((label, stdout[begin..end].trim().to_string()));
    }
    let (ref_label, reference) = &dumps[0];
    assert!(!reference.is_empty(), "fixture produced an empty dump");
    for (label, dump) in &dumps[1..] {
        assert_eq!(
            dump, reference,
            "run at RAYON_NUM_THREADS={label} differs from RAYON_NUM_THREADS={ref_label}"
        );
    }
}
