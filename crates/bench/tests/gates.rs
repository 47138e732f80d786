//! Release-mode timing gates over the paper's experiments.
//!
//! Both gates are `#[ignore]`d — they time real runs and mean nothing in a
//! debug build. `scripts/check.sh` runs them as
//!
//! ```text
//! cargo test --release -q -p bench --test gates -- --ignored --test-threads=1
//! ```
//!
//! with one test thread, so the E3-scale run cannot overlap the recorder
//! A/B. Add `--nocapture` to see the measured numbers.
//!
//! The recorder A/B times the whole E1 row, which includes the gather
//! baseline (run without the recorder), so it understates the recorder's
//! cost to the detector alone; see ROADMAP item 3(a).

use bench::experiments as exp;
use congest::{FlightConfig, FlightRecorder};
use std::sync::Arc;
use std::time::Instant;
use subgraph_detection::EvenCycleObserver;

/// Most the flight recorder may add to the E1 row, in percent.
const MAX_RECORDER_OVERHEAD_PCT: f64 = 5.0;
/// Gaps below this are timer noise, not recorder cost: a percentage gate
/// only fires once the absolute gap (median bare time × the median
/// overhead ratio) clears it.
const RECORDER_NOISE_FLOOR_MS: f64 = 0.5;
/// Interleaved bare/recorder pairs per A/B; odd, so the median is a pair.
const PAIRS: usize = 21;
/// E1 row size of the A/B.
const E1_N: usize = 512;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The overhead verdict over `(bare_ms, recorder_ms)` pairs: the median of
/// the per-pair ratios must stay within `max_pct`, unless the gap it
/// implies on the median bare run is under [`RECORDER_NOISE_FLOOR_MS`].
/// `Ok` and `Err` both carry the one-line measurement.
fn recorder_overhead_gate(pairs: &[(f64, f64)], max_pct: f64) -> Result<String, String> {
    let bare_ms = median(pairs.iter().map(|p| p.0).collect());
    let ratio = median(pairs.iter().map(|p| p.1 / p.0).collect());
    let pct = 100.0 * (ratio - 1.0);
    let gap_ms = bare_ms * (ratio - 1.0);
    let line = format!(
        "recorder overhead {pct:+.1}% (median of {} per-pair ratios; bare median {bare_ms:.3} ms, gap {gap_ms:.3} ms; limit +{max_pct}% above a {RECORDER_NOISE_FLOOR_MS} ms floor)",
        pairs.len()
    );
    if gap_ms > RECORDER_NOISE_FLOOR_MS && pct > max_pct {
        Err(line)
    } else {
        Ok(line)
    }
}

/// Wall time of one E1 row at [`E1_N`], with a default-config flight
/// recorder riding the detector when `recorder` is set. The recorder is
/// built inside the timed region: its setup is part of what it costs.
fn time_e1_row(recorder: bool) -> f64 {
    let start = Instant::now();
    let obs = recorder.then(|| {
        EvenCycleObserver::collecting(Arc::new(FlightRecorder::new(FlightConfig::default())))
    });
    let rows = exp::e1_even_cycle(2, &[E1_N], 1, 42, obs.as_ref());
    assert_eq!(rows.len(), 1);
    start.elapsed().as_secs_f64() * 1e3
}

#[test]
#[ignore = "release-mode timing gate; run with --release -- --ignored --test-threads=1"]
fn flight_recorder_overhead_on_e1_stays_within_five_percent() {
    // One warm-up run per arm, then pairs whose order alternates so
    // neither arm always runs on a warmer cache.
    time_e1_row(false);
    time_e1_row(true);
    let pairs: Vec<(f64, f64)> = (0..PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                let bare = time_e1_row(false);
                (bare, time_e1_row(true))
            } else {
                let rec = time_e1_row(true);
                (time_e1_row(false), rec)
            }
        })
        .collect();
    match recorder_overhead_gate(&pairs, MAX_RECORDER_OVERHEAD_PCT) {
        Ok(line) => eprintln!("e1 n={E1_N}: {line}"),
        Err(line) => panic!("e1 n={E1_N}: {line}"),
    }
}

#[test]
#[ignore = "release-mode smoke; run with --release -- --ignored --test-threads=1"]
fn e3_scale_runs_at_ten_thousand_nodes() {
    let start = Instant::now();
    let row = exp::e3_scale(10_000, 0, 42);
    eprintln!(
        "e3_scale n={}: {} rounds, {} bits in {:.2} s",
        row.n,
        row.rounds,
        row.total_bits,
        start.elapsed().as_secs_f64()
    );
    assert_eq!(row.n, 10_000);
    assert!(row.rounds > 0, "the scale run executed no rounds");
}

#[test]
fn recorder_overhead_gate_pairs_arms_and_applies_the_floor() {
    let same = |bare_ms: f64, rec_ms: f64| vec![(bare_ms, rec_ms); 5];
    // 3% over: passes a 5% gate.
    assert!(recorder_overhead_gate(&same(100.0, 103.0), 5.0).is_ok());
    // 10% over: fails, and says by how much.
    let bad = recorder_overhead_gate(&same(100.0, 110.0), 5.0).unwrap_err();
    assert!(bad.contains("+10.0%"), "{bad}");
    // Sub-floor absolute gap passes even at a huge percentage — 0.4 ms
    // over a 1 ms run is timer noise, not recorder cost.
    assert!(recorder_overhead_gate(&same(1.0, 1.4), 5.0).is_ok());
    // The estimator is the median of per-pair ratios: two wild pairs out
    // of five (a descheduled bare run, a descheduled recorder run) move
    // neither arm's verdict.
    let noisy = [
        (100.0, 102.0),
        (100.0, 103.0),
        (100.0, 101.0),
        (300.0, 102.0),
        (100.0, 400.0),
    ];
    let ok = recorder_overhead_gate(&noisy, 5.0).unwrap();
    assert!(ok.contains("+2.0%"), "{ok}");
    let mut slow = noisy;
    for p in &mut slow[..3] {
        p.1 = 110.0;
    }
    assert!(recorder_overhead_gate(&slow, 5.0).is_err());
}
