//! The metrics a run reports, by name and unit, and the run's output:
//! log lines, then one result line.

use std::fmt::Write as _;

use crate::stats::Tally;

/// End-to-end metrics: every workload reports each of them with tracing
/// off. A request is one detector call in process, or one batch over the
/// socket.
pub const END_TO_END: &[(&str, &str)] = &[
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every workload reports each of them with tracing
/// on. Counts are per request; a layer the workload does not exercise
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graphlib.build_ms", "ms"),
    ("congest.prepare_ms", "ms"),
    ("congest.engine.rounds", "count"),
    ("congest.engine.active_rounds", "count"),
    ("congest.engine.idle_rounds", "count"),
    ("congest.engine.messages", "count"),
    ("congest.engine.bits", "count"),
    ("congest.engine.active_round_us", "us"),
    ("congest.engine.idle_round_us", "us"),
    ("congest.engine.idle_time_frac", "ratio"),
    ("congest.engine.rounds_per_s", "1/s"),
    ("congest.engine.bits_per_s", "bit/s"),
    ("congest.reliable.physical_rounds", "count"),
    ("congest.reliable.retransmissions", "count"),
    ("congest.reliable.backoff_events", "count"),
    ("congest.reliable.given_up", "count"),
    ("congest.reliable.round_inflation", "ratio"),
    ("congest.reliable.retransmit_ratio", "ratio"),
    ("congest.reliable.given_up_frac", "ratio"),
    ("congest.faults.dropped", "count"),
    ("congest.faults.corrupted", "count"),
    ("core.repetitions_run", "count"),
    ("core.phase1_ms", "ms"),
    ("core.phase2_ms", "ms"),
    ("core.rounds_over_bound", "ratio"),
    ("obsv.report_render_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.resolve_hit_us", "us"),
    ("serve.execute_us.even_cycle", "us"),
    ("serve.execute_us.even_cycle_lossy", "us"),
    ("serve.execute_us.triangle", "us"),
    ("serve.execute_us.triangle_lossy", "us"),
    ("serve.service_ms", "ms"),
    ("serve.ipc_ms", "ms"),
    ("serve.cache.graph_hit_ratio", "ratio"),
    ("serve.cache.prepared_hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
];

/// Metric values, notes and the failure tally of one run.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

impl Report {
    /// Records `name = value`; a later value for the same name wins.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records 0 for every per-layer metric under `prefix` not set yet:
    /// the workload does not exercise that layer.
    pub fn not_exercised(&mut self, prefix: &str) {
        for &(name, _) in PER_LAYER {
            if name.starts_with(prefix) && !self.values.iter().any(|&(n, _)| n == name) {
                self.values.push((name, 0.0));
            }
        }
    }

    /// Adds a line to the log printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The run's output: notes, failures and the declared metrics
    /// (per-layer when `traced`, else end-to-end) as log lines, then the
    /// result line. A declared metric the run did not measure, or one
    /// that is not a finite number, is an error.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let t = &self.tally;
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        for line in &t.failures {
            let _ = writeln!(out, "# FAILED {line}");
        }
        let _ = writeln!(
            out,
            "# failed_frac = {} ({} of {} operations)",
            t.failed_frac(),
            t.failed,
            t.attempted
        );
        let mut fields = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = self
                .values
                .iter()
                .rev()
                .find(|&&(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let _ = writeln!(out, "{name} = {value} {unit}");
            fields.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
        }
        let _ = writeln!(
            out,
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            t.failed == 0,
            t.attempted,
            t.failed,
            fields.join(",")
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_end_to_end(value: f64) -> Report {
        let mut r = Report::default();
        for &(name, _) in END_TO_END {
            r.set(name, value);
        }
        r
    }

    #[test]
    fn the_result_line_carries_every_declared_metric() {
        let mut r = all_end_to_end(1.5);
        r.tally.check(true, String::new);
        let out = r.render(false).unwrap();
        let last = out.lines().last().unwrap();
        assert!(
            last.starts_with(
                r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"verdict_p50_ms":{"value":1.5,"unit":"ms"},"#
            ),
            "{last}"
        );
        for (name, unit) in END_TO_END {
            assert!(out.contains(&format!("\n{name} = 1.5 {unit}\n")), "{out}");
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let r = Report::default();
        assert!(r.render(false).unwrap_err().contains("verdict_p50_ms"));
        let mut r = all_end_to_end(1.0);
        r.set("setup_s", f64::NAN);
        assert!(r.render(false).unwrap_err().contains("setup_s"));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = all_end_to_end(1.0);
        r.tally.check(false, || "call 3: detected = true".into());
        let out = r.render(false).unwrap();
        assert!(out.contains("# FAILED call 3: detected = true"));
        assert!(out
            .lines()
            .last()
            .unwrap()
            .starts_with(r#"{"correct":false,"attempted":1,"failed":1,"#));
    }

    #[test]
    fn unexercised_layers_report_zero_without_overwriting() {
        let mut r = Report::default();
        r.set("serve.parse_us", 3.0);
        r.not_exercised("serve.");
        let serve: Vec<_> = r
            .values
            .iter()
            .filter(|(n, _)| n.starts_with("serve."))
            .collect();
        let declared = PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("serve."))
            .count();
        assert_eq!(serve.len(), declared);
        assert!(serve.contains(&&("serve.parse_us", 3.0)));
        assert!(serve.contains(&&("serve.service_ms", 0.0)));
    }
}
