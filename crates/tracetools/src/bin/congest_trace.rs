//! `congest-trace` — the command-line front end of the trace toolkit.
//!
//! Usage:
//!   congest-trace check <trace.jsonl | run_report.json | flight.jsonl>
//!       Verify trace invariants (bandwidth bound respected, fault
//!       accounting consistent, rounds monotone, causal deps resolvable)
//!       or, for a `.json` run report, its structural invariants
//!       (schema/version, tallies vs per-round series). A flight-recorder
//!       dump (first line tagged `congest.flight_record`) gets the
//!       windowed-dump checks instead — the full-trace checker cannot run
//!       on a ring whose causal deps aged out. Exit 1 on any violation.
//!   congest-trace critical-path <trace.jsonl>
//!   congest-trace critical-path --canonical
//!       Print the weighted critical path — the heaviest chain of causally
//!       dependent messages — per trace segment and per phase, as one
//!       compact JSON line followed by a human table. `--canonical` runs
//!       the canonical planted-C4 even-cycle scenario in-process and
//!       analyzes its trace (deterministic at any thread count — the
//!       `scripts/check.sh` determinism gate diffs this output across
//!       `RAYON_NUM_THREADS` values).
//!   congest-trace heatmap <trace.jsonl>
//!       Per-round, per-sender congestion heatmap with bandwidth
//!       utilization bars and the hottest sender/port pairs.
//!   congest-trace diff <a.jsonl> <b.jsonl>
//!       Structural diff of two traces: first diverging event, length and
//!       total mismatches. Exit 1 when the traces differ.
//!   congest-trace idle-tail <trace.jsonl | --canonical>
//!       Per-segment idle-tail report: rounds each segment kept ticking
//!       after its last message. Run on a trace recorded *without* early
//!       termination (the canonical scenario qualifies), this is exactly
//!       the round count `Simulation::early_termination` saves.
//!   congest-trace tail <flight.jsonl>
//!       Human-readable view of a flight-recorder dump: run identity,
//!       streaming totals, the retained ring as per-round aggregate lines,
//!       both top-k sketches, and the reservoir-sample count.
//!   congest-trace dump --canonical
//!       Render the canonical planted-C4 even-cycle scenario's trace as
//!       JSONL on stdout — the producer side of the `diff` gate in
//!       `scripts/check.sh`, which compares the current engine's canonical
//!       trace against the committed pre-fusion golden.
//!   congest-trace dump --flight-canonical
//!       Render the canonical flight record (the same scenario with a
//!       small-capacity flight recorder riding along) on stdout — the
//!       producer side of the flight-golden and cross-thread-count
//!       determinism gates in `scripts/check.sh`.
//!   congest-trace dump --flight-faulty \[n\]
//!       Render the flight record of a *faulty* census-size run (the
//!       E3-scale planted-C4 instance at n, default 10^5, under 20%
//!       independent loss) — the EXPERIMENTS.md walkthrough producer.
//!       Expect about a minute at the default size.
//!   congest-trace profile
//!       Run the canonical scenarios with the engine self-profiler
//!       installed; folded stacks on stdout (flamegraph input), summary
//!       table on stderr.

use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: congest-trace <command> [args]\n\
  check <trace.jsonl | run_report.json | flight.jsonl>\n\
  critical-path <trace.jsonl | --canonical>\n\
  heatmap <trace.jsonl>\n\
  diff <a.jsonl> <b.jsonl>\n\
  idle-tail <trace.jsonl | --canonical>\n\
  tail <flight.jsonl>\n\
  dump --canonical | --flight-canonical | --flight-faulty [n]\n\
  profile\n";

/// Write to stdout, exiting with the conventional SIGPIPE status (141)
/// when the reader has gone away (`congest-trace ... | head` must not
/// panic). Rust maps SIGPIPE to an `ErrorKind::BrokenPipe` write error
/// instead of killing the process, so the exit has to be explicit.
fn out(text: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("error writing to stdout: {e}");
        std::process::exit(1);
    }
}

macro_rules! outln {
    ($($arg:tt)*) => { out(format_args!("{}\n", format_args!($($arg)*))) };
}

macro_rules! outp {
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_events(path: &str) -> Result<Vec<congest::SimEvent>, String> {
    let dump = read(path)?;
    tracetools::parse_jsonl(&dump).map_err(|e| format!("{path}: {e}"))
}

/// Whether a document is a flight-recorder dump: its first non-empty line
/// leads with the `congest.flight_record` header.
fn is_flight_dump(doc: &str) -> bool {
    doc.lines().find(|l| !l.trim().is_empty()).is_some_and(|l| {
        l.trim_start()
            .starts_with(r#"{"schema":"congest.flight_record""#)
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [cmd, path] if cmd == "check" => {
            let doc = read(path)?;
            let violations = if is_flight_dump(&doc) {
                tracetools::check_flight(&doc)
            } else if path.ends_with(".json") {
                tracetools::check_run_report(&doc)
            } else {
                let events = tracetools::parse_jsonl(&doc).map_err(|e| format!("{path}: {e}"))?;
                congest::obsv::check(&events)
            };
            if violations.is_empty() {
                outln!("{path}: OK");
                Ok(ExitCode::SUCCESS)
            } else {
                for v in &violations {
                    outln!("{path}: {v}");
                }
                Ok(ExitCode::FAILURE)
            }
        }
        [cmd, source] if cmd == "critical-path" => {
            let events = if source == "--canonical" {
                bench::perf::canonical_fault_free_traced().1
            } else {
                load_events(source)?
            };
            let cp = congest::obsv::critical_path(&events);
            outln!("{}", cp.to_json());
            outp!("{}", cp.render());
            Ok(ExitCode::SUCCESS)
        }
        [cmd, path] if cmd == "heatmap" => {
            outp!("{}", congest::obsv::heatmap(&load_events(path)?));
            Ok(ExitCode::SUCCESS)
        }
        [cmd, a, b] if cmd == "diff" => {
            let lines = congest::obsv::diff(&load_events(a)?, &load_events(b)?);
            if lines.is_empty() {
                outln!("traces identical ({a} vs {b})");
                Ok(ExitCode::SUCCESS)
            } else {
                for l in &lines {
                    outln!("{l}");
                }
                Ok(ExitCode::FAILURE)
            }
        }
        [cmd, source] if cmd == "idle-tail" => {
            let events = if source == "--canonical" {
                bench::perf::canonical_fault_free_traced().1
            } else {
                load_events(source)?
            };
            outp!("{}", congest::obsv::idle_tail(&events).render());
            Ok(ExitCode::SUCCESS)
        }
        [cmd, path] if cmd == "tail" => {
            let doc = read(path)?;
            let rec = tracetools::parse_flight(&doc).map_err(|e| format!("{path}: {e}"))?;
            outp!("{}", tracetools::render_flight_tail(&rec));
            Ok(ExitCode::SUCCESS)
        }
        [cmd, source] if cmd == "dump" && source == "--canonical" => {
            let (_, events) = bench::perf::canonical_fault_free_traced();
            outp!("{}", tracetools::render_jsonl(&events));
            Ok(ExitCode::SUCCESS)
        }
        [cmd, source] if cmd == "dump" && source == "--flight-canonical" => {
            outp!("{}", bench::perf::canonical_flight_record());
            Ok(ExitCode::SUCCESS)
        }
        [cmd, source, rest @ ..] if cmd == "dump" && source == "--flight-faulty" => {
            let n = match rest {
                [] => 100_000,
                [n] => n
                    .parse()
                    .map_err(|_| format!("--flight-faulty: not a size: {n}\n{USAGE}"))?,
                _ => return Err(USAGE.to_string()),
            };
            outp!("{}", bench::perf::faulty_flight_record(n));
            Ok(ExitCode::SUCCESS)
        }
        [cmd] if cmd == "profile" => {
            let (folded, table) = bench::perf::profile_canonical();
            eprintln!("==> engine self-profile over the canonical scenarios");
            eprint!("{table}");
            outp!("{folded}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprint!("{msg}");
            if !msg.ends_with('\n') {
                eprintln!();
            }
            ExitCode::from(2)
        }
    }
}
