//! The repository benchmark: four workloads that drive the Theorem 1.1
//! detector, the ARQ transport and `congest-serve` through their public
//! entry points and time them from outside. `README.md` beside this crate
//! describes the workloads, the metrics and how to run them.

pub mod client;
pub mod clock;
pub mod inproc;
pub mod metrics;
pub mod serve_mix;
pub mod stats;

use std::process::{Command, Stdio};

/// The workloads, by the names the command line and `BENCHMARK.json` use.
pub const WORKLOADS: [&str; 4] = [
    "dense_negative",
    "sparse_positive",
    "lossy_arq",
    "serve_mixed",
];

/// What one benchmark run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Length of the measuring window, in seconds.
    pub seconds: f64,
    /// Measure the per-layer split instead of the end-to-end metrics.
    pub trace: bool,
}

/// Seed `i` of input stream `stream` for run seed `seed`: a SplitMix64
/// finalizer, so neighbouring indices give unrelated seeds.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size (`VmHWM`) read from a `/proc/<pid>/status`
/// file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path)
        .map_err(|e| format!("cannot read {status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {status_path}"))
}

/// What the one-lane child of a run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct OneLane {
    /// The counts (or digest) the run compares with its own.
    pub counts: String,
    /// The child's peak resident set size, in MiB.
    pub peak_rss_mb: f64,
}

impl OneLane {
    /// The child's output: the counts line, then the peak RSS line.
    pub fn render(&self) -> String {
        format!("{}\n{}\n", self.counts, self.peak_rss_mb)
    }

    fn parse(text: &str) -> Option<OneLane> {
        let (counts, rss) = text.trim().rsplit_once('\n')?;
        Some(OneLane {
            counts: counts.to_string(),
            peak_rss_mb: rss.parse().ok()?,
        })
    }
}

/// Runs this program's `--counts-only` mode for `workload` and `seed` in
/// a child process at one pool lane and returns what it reported. A run
/// compares the counts with what it counted itself at two lanes.
pub fn one_lane_counts(workload: &str, seed: u64, extra: &[&str]) -> Result<OneLane, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--counts-only",
        ])
        .args(extra)
        .env("RAYON_NUM_THREADS", "1")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the one-lane check: {e}"))?;
    if !out.status.success() {
        return Err(format!("the one-lane check failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    OneLane::parse(&text).ok_or_else(|| format!("the one-lane check printed {text:?}"))
}
