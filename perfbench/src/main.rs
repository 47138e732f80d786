//! Command line of the repository benchmark; see `README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--serve-bin PATH]
//! perfbench --workload NAME --seed N --counts-only [--call I | --batches B]
//! ```
//!
//! `--counts-only` prints what a run's one-lane cross-check compares.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::inproc::{self, Workload};
use perfbench::{peak_rss_mb, serve_mix, OneLane, RunOpts, WORKLOADS};

struct Args {
    workload: String,
    opts: RunOpts,
    serve_bin: Option<PathBuf>,
    counts_only: bool,
    call: u64,
    batches: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        opts: RunOpts {
            seed: 0,
            seconds: 10.0,
            trace: false,
        },
        serve_bin: None,
        counts_only: false,
        call: 0,
        batches: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, not {s}"));
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value()?)),
            "--counts-only" => args.counts_only = true,
            "--call" => {
                args.call = value()?.parse().map_err(|e| format!("--call: {e}"))?;
            }
            "--batches" => {
                args.batches = value()?.parse().map_err(|e| format!("--batches: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<String, String> {
    let name = args.workload.as_str();
    let kind = Workload::parse(name);
    if args.counts_only {
        let one_lane = match kind {
            Some(w) => inproc::counts_only(w, args.opts.seed, args.call)?,
            None => OneLane {
                counts: serve_mix::replay_digest(args.opts.seed, args.batches),
                peak_rss_mb: peak_rss_mb("/proc/self/status")?,
            },
        };
        return Ok(one_lane.render());
    }
    let report = match kind {
        Some(w) => inproc::run(w, name, &args.opts)?,
        None => {
            let bin = args
                .serve_bin
                .as_deref()
                .ok_or("serve_mixed needs --serve-bin")?;
            serve_mix::run(&args.opts, bin)?
        }
    };
    report.render(args.opts.trace)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
