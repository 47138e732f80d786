//! Golden-file and thread-count stability tests for the run-report
//! exporter (the `obsv` layer's schema-versioned JSON).
//!
//! Three canonical scenarios — a fault-free `detect_even_cycle` run, the
//! same detector behind the ARQ transport at 30 % message loss, and a
//! planted-`C_4` instance under bursty Gilbert–Elliott loss behind the
//! windowed transport — are rendered by
//! `bench::canonical::canonical_run_reports()` (the same generator
//! `congest-trace dump --summary` renders) and compared byte-for-byte
//! against the checked-in goldens in `tests/golden/`. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test run_report`.
//!
//! The pool sizes itself once per process from `RAYON_NUM_THREADS`, so the
//! cross-thread-count check re-runs this test binary against the
//! `#[ignore]`d dump below, once per thread count, and compares outputs.

use congest::{RUN_REPORT_SCHEMA, RUN_REPORT_VERSION};
use std::path::PathBuf;
use std::process::Command;

const BEGIN: &str = "BEGIN_RUN_REPORT_FIXTURE";
const END: &str = "END_RUN_REPORT_FIXTURE";

fn golden_path(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("run_report_{label}.json"))
}

#[test]
fn canonical_run_reports_match_goldens() {
    let reports = bench::canonical::canonical_run_reports();
    assert_eq!(reports.len(), 3);
    for report in &reports {
        let json = report.to_json();
        // Schema versioning is the contract that makes goldens meaningful.
        assert!(json.contains(&format!(r#""schema": "{RUN_REPORT_SCHEMA}""#)));
        assert!(json.contains(&format!(r#""version": {RUN_REPORT_VERSION}"#)));
        let path = golden_path(&report.label);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &json).expect("failed to write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden {}; regenerate with UPDATE_GOLDEN=1 cargo test --test run_report",
                path.display()
            )
        });
        assert_eq!(
            json, want,
            "run report '{}' drifted from its golden; if intentional, bump \
             RUN_REPORT_VERSION and regenerate with UPDATE_GOLDEN=1",
            report.label
        );
    }
}

#[test]
fn fault_free_report_has_phase_breakdown() {
    let report = bench::canonical::canonical_fault_free_report();
    let json = report.to_json();
    assert!(json.contains(r#""name":"phase1""#));
    assert!(json.contains(r#""name":"phase2""#));
    assert!(json.contains(r#""congestion.max_edge_round_bits""#));
    // Fault-free: the tally section exists and is all zeros.
    assert!(json.contains(r#""dropped":0"#));
}

#[test]
fn arq_loss_report_carries_transport_tallies() {
    let report = bench::canonical::canonical_arq_loss_report();
    assert!(
        report.faults.retransmissions > 0,
        "30% loss must force retransmissions"
    );
    assert_eq!(
        report.metrics.counter("transport.retransmissions"),
        Some(report.faults.retransmissions)
    );
}

#[test]
fn windowed_arq_beats_stop_and_wait_on_bursty_loss() {
    // The PR's headline number: on the canonical bursty planted-C4
    // scenario, the sliding-window transport must finish in at most 0.6x
    // the physical rounds of its stop-and-wait (window=1) counterpart,
    // read from the run reports' round counts.
    let windowed =
        bench::canonical::canonical_bursty_report(congest::ReliableConfig::default().window);
    let stop_and_wait = bench::canonical::canonical_bursty_report(1);
    assert!(
        windowed.rounds > 0 && stop_and_wait.rounds > 0,
        "both variants must actually run"
    );
    assert!(
        5 * windowed.rounds <= 3 * stop_and_wait.rounds,
        "windowed ARQ took {} rounds vs stop-and-wait {} (ratio {:.3} > 0.6)",
        windowed.rounds,
        stop_and_wait.rounds,
        windowed.rounds as f64 / stop_and_wait.rounds as f64
    );
    // Burst loss must actually have exercised the retransmit machinery.
    assert!(windowed.faults.retransmissions > 0);
    assert_eq!(
        windowed.faults.retransmissions,
        windowed.faults.retransmissions_per_link.iter().sum::<u64>(),
        "per-link retransmit tallies must sum to the scalar"
    );
}

/// Helper, not run directly: prints both rendered reports between markers
/// so the parent test can extract and compare them across thread counts.
#[test]
#[ignore = "subprocess helper for run_reports_identical_across_thread_counts"]
fn dump_run_reports() {
    println!("{BEGIN}");
    for report in bench::canonical::canonical_run_reports() {
        print!("{}", report.to_json());
    }
    println!("{END}");
}

#[test]
fn run_reports_identical_across_thread_counts() {
    let exe = std::env::current_exe().expect("cannot locate test binary");
    let mut dumps: Vec<(String, String)> = Vec::new();
    for threads in [Some("1"), Some("4"), None] {
        let mut cmd = Command::new(&exe);
        cmd.args(["--ignored", "--exact", "--nocapture", "dump_run_reports"]);
        cmd.env_remove("RAYON_NUM_THREADS");
        if let Some(t) = threads {
            cmd.env("RAYON_NUM_THREADS", t);
        }
        let label = threads.unwrap_or("unset").to_string();
        let out = cmd.output().expect("failed to spawn report subprocess");
        let stdout = String::from_utf8(out.stdout).expect("report dump not UTF-8");
        assert!(
            out.status.success(),
            "report subprocess failed at RAYON_NUM_THREADS={label}:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let begin = stdout
            .find(BEGIN)
            .unwrap_or_else(|| panic!("no report marker at RAYON_NUM_THREADS={label}"))
            + BEGIN.len();
        let end = stdout.find(END).expect("report end marker missing");
        dumps.push((label, stdout[begin..end].trim().to_string()));
    }
    let (ref_label, reference) = &dumps[0];
    assert!(!reference.is_empty(), "report dump came out empty");
    for (label, dump) in &dumps[1..] {
        assert_eq!(
            dump, reference,
            "run report at RAYON_NUM_THREADS={label} differs from RAYON_NUM_THREADS={ref_label}"
        );
    }
}
