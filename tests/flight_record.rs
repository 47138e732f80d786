//! Golden-file, determinism, and black-box tests for the flight recorder
//! (`congest::obsv::flight`).
//!
//! The canonical flight record — the fault-free planted-`C_4` detector run
//! with a small-capacity recorder, rendered by
//! `bench::perf::canonical_flight_record()` — is compared byte-for-byte
//! against `tests/golden/flight_record.jsonl`. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test flight_record`.
//!
//! Determinism is the recorder's headline contract: engines feed it from
//! sequential code in node order and its reservoir RNG is seeded from the
//! run seed, so the dump must be byte-identical at any shards × threads.
//! The shard axis is checked in-process; the thread axis re-runs this test
//! binary per `RAYON_NUM_THREADS` (the pool sizes itself once per
//! process).

use congest::{Bandwidth, CrashStop, FaultSpec, FlightConfig, FlightRecorder, Simulation};
use distributed_subgraph_detection::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

const BEGIN: &str = "BEGIN_FLIGHT_FIXTURE";
const END: &str = "END_FLIGHT_FIXTURE";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/flight_record.jsonl")
}

/// A chaos run (loss + corruption + crashes) with a flight recorder riding
/// along, at a pinned engine shard count. Returns the rendered dump.
fn faulty_flight_dump(shards: usize) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let g = graphlib::generators::gnp(40, 0.12, &mut rng);
    let sched = detection::even_cycle::Schedule::derive(g.n(), 2, None);
    let bandwidth = Bandwidth::Bits(sched.required_bandwidth.max(8));
    let max_rounds = sched.r1_rounds + 2;
    let rec = Arc::new(FlightRecorder::new(FlightConfig {
        ring_rounds: 3,
        ring_events_per_round: 48,
        sample_capacity: 24,
        top_k: 4,
        ..FlightConfig::default()
    }));
    Simulation::on(&g)
        .bandwidth(bandwidth)
        .seed(99)
        .max_rounds(max_rounds)
        .shards(shards)
        .faults(FaultSpec::Stack(vec![
            FaultSpec::IndependentLoss(0.15),
            FaultSpec::BitFlip(0.1),
            FaultSpec::CrashStop(CrashStop::random(2, 3)),
        ]))
        .flight_recorder(Arc::clone(&rec))
        .run(move |_| detection::even_cycle::ColorBfsNode::new(sched.clone()))
        .expect("chaos run failed");
    rec.dump()
}

#[test]
fn canonical_flight_record_matches_golden() {
    let dump = bench::perf::canonical_flight_record();
    assert!(
        dump.starts_with(&format!(
            r#"{{"schema":"{}","version":{}"#,
            congest::FLIGHT_RECORD_SCHEMA,
            congest::FLIGHT_RECORD_VERSION
        )),
        "header line must lead with the schema tag"
    );
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &dump).expect("failed to write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; regenerate with UPDATE_GOLDEN=1 cargo test --test flight_record",
            path.display()
        )
    });
    assert_eq!(
        dump, want,
        "flight record drifted from its golden; if intentional, bump \
         FLIGHT_RECORD_VERSION and regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn flight_dump_identical_across_shard_counts() {
    let reference = faulty_flight_dump(1);
    assert!(!reference.is_empty());
    for shards in [2, 7] {
        assert_eq!(
            faulty_flight_dump(shards),
            reference,
            "flight dump at {shards} shards differs from 1 shard"
        );
    }
}

#[test]
fn degraded_run_writes_black_box_dump() {
    // The black-box behavior: a degraded run (here: seeded crashes) writes
    // the flight record to `dump_path` without the caller asking.
    let path = std::env::temp_dir().join(format!("flight_blackbox_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let g = graphlib::generators::gnp(40, 0.12, &mut rng);
    let sched = detection::even_cycle::Schedule::derive(g.n(), 2, None);
    let bandwidth = Bandwidth::Bits(sched.required_bandwidth.max(8));
    let max_rounds = sched.r1_rounds + 2;
    let rec = Arc::new(FlightRecorder::new(FlightConfig {
        ring_rounds: 3,
        ring_events_per_round: 48,
        sample_capacity: 24,
        top_k: 4,
        dump_path: Some(path.to_string_lossy().into_owned()),
        ..FlightConfig::default()
    }));
    let out = Simulation::on(&g)
        .bandwidth(bandwidth)
        .seed(99)
        .max_rounds(max_rounds)
        .faults(FaultSpec::CrashStop(CrashStop::random(2, 3)))
        .flight_recorder(Arc::clone(&rec))
        .run({
            let sched = sched.clone();
            move |_| detection::even_cycle::ColorBfsNode::new(sched.clone())
        })
        .expect("crash run failed");
    assert!(out.is_degraded(), "crashes must degrade the run");
    let dump = std::fs::read_to_string(&path).expect("degraded run must write the black box");
    assert!(dump.starts_with(r#"{"schema":"congest.flight_record""#));
    assert_eq!(dump, rec.dump(), "the black box is the recorder's dump");
    // Bounded: a 3-round × 48-event ring plus 24 samples stays small no
    // matter how long the run was.
    assert!(
        dump.len() < 64 * 1024,
        "black-box dump is {} bytes — not bounded?",
        dump.len()
    );
    let _ = std::fs::remove_file(&path);
}

/// Helper, not run directly: prints the canonical and the faulty sharded
/// dumps between markers so the parent test can compare across thread
/// counts.
#[test]
#[ignore = "subprocess helper for flight_dump_identical_across_thread_counts"]
fn dump_flight_fixture() {
    println!("{BEGIN}");
    print!("{}", bench::perf::canonical_flight_record());
    for shards in [1, 2, 7] {
        print!("{}", faulty_flight_dump(shards));
    }
    println!("{END}");
}

#[test]
fn flight_dump_identical_across_thread_counts() {
    let exe = std::env::current_exe().expect("cannot locate test binary");
    let mut dumps: Vec<(String, String)> = Vec::new();
    for threads in [Some("1"), Some("4"), None] {
        let mut cmd = Command::new(&exe);
        cmd.args(["--ignored", "--exact", "--nocapture", "dump_flight_fixture"]);
        cmd.env_remove("RAYON_NUM_THREADS");
        if let Some(t) = threads {
            cmd.env("RAYON_NUM_THREADS", t);
        }
        let label = threads.unwrap_or("unset").to_string();
        let out = cmd.output().expect("failed to spawn flight subprocess");
        let stdout = String::from_utf8(out.stdout).expect("flight dump not UTF-8");
        assert!(
            out.status.success(),
            "flight subprocess failed at RAYON_NUM_THREADS={label}:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let begin = stdout
            .find(BEGIN)
            .unwrap_or_else(|| panic!("no flight marker at RAYON_NUM_THREADS={label}"))
            + BEGIN.len();
        let end = stdout.find(END).expect("flight end marker missing");
        dumps.push((label, stdout[begin..end].trim().to_string()));
    }
    let (ref_label, reference) = &dumps[0];
    assert!(
        !reference.is_empty(),
        "flight fixture produced an empty dump"
    );
    for (label, dump) in &dumps[1..] {
        assert_eq!(
            dump, reference,
            "flight dump at RAYON_NUM_THREADS={label} differs from RAYON_NUM_THREADS={ref_label}"
        );
    }
}
