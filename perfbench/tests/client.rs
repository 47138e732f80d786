//! The socket client against a real `congest-serve`: batch framing, a
//! malformed request counted as a failure, and the byte-for-byte match
//! between a socket session and the in-process replay that a run's
//! one-lane cross-check uses.
//!
//! Needs the binary: `CONGEST_SERVE_BIN`, or `release/congest-serve`
//! under `CARGO_TARGET_DIR` (default: the repository's `target`).
//! `python3 perfbench/run.py --self-test` builds it and runs these tests.

use std::path::{Path, PathBuf};

use perfbench::client::{check_batch, Server};
use perfbench::serve_mix::{batch_ids, batch_lines, replay_digest, Transcript};
use perfbench::stats::Tally;

fn serve_bin() -> PathBuf {
    if let Some(bin) = std::env::var_os("CONGEST_SERVE_BIN") {
        return bin.into();
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../target"));
    let bin = target.join("release/congest-serve");
    assert!(
        bin.exists(),
        "{} is missing: build congest-serve first",
        bin.display()
    );
    bin
}

/// A server started on a socket of the calling test's own.
fn server(name: &str) -> Server {
    let dir = Path::new(".perfbench_run");
    std::fs::create_dir_all(dir).unwrap();
    let socket = dir.join(format!("{name}-{}.sock", std::process::id()));
    Server::spawn(&serve_bin(), &socket, 2).unwrap()
}

#[test]
fn batches_come_back_framed_and_in_order() {
    let mut server = server("framing");
    let mut conn = server.connect().unwrap();
    for b in 0..4 {
        let answer = conn.batch(&batch_lines(3, b)).unwrap();
        let summary = check_batch(&batch_ids(b), &answer).unwrap();
        let queries = summary.get("queries").and_then(|q| q.as_u64());
        assert_eq!(queries, Some(2));
        // The one-line probe between batches leaves the framing intact.
        assert!(conn.telemetry().unwrap().contains(r#""batches":"#));
    }
    assert!(server.peak_rss_mb().unwrap() > 0.0);
}

#[test]
fn a_malformed_request_fails_the_batch_check() {
    let mut server = server("malformed");
    let mut conn = server.connect().unwrap();
    let good = batch_lines(3, 0)[0].clone();
    let answer = conn.batch(&[good, "not json".to_string()]).unwrap();
    // The bad line is answered at once and the flush still closes the
    // batch, so the framing holds and the next batch is unaffected.
    assert_eq!(answer.len(), 3);
    let mut tally = Tally::default();
    assert!(tally
        .check_result("batch 0", check_batch(&batch_ids(0), &answer))
        .is_none());
    assert_eq!((tally.attempted, tally.failed), (1, 1));
    let next = conn.batch(&batch_lines(3, 1)).unwrap();
    assert!(check_batch(&batch_ids(1), &next).is_ok());
}

#[test]
fn a_socket_session_matches_the_in_process_replay() {
    let mut server = server("replay");
    let mut conn = server.connect().unwrap();
    let mut digest = Transcript::default();
    for b in 0..12 {
        for line in conn.batch(&batch_lines(9, b)).unwrap() {
            digest.add(&line);
        }
    }
    assert_eq!(digest.hex(), replay_digest(9, 12));
}
