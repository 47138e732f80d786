//! The engine self-profiler: cheap wall-clock spans around the hot
//! sections of both simulator backends and the ARQ transport.
//!
//! Off by default — the engines hold an `Option<Arc<Profiler>>` and the
//! disabled path is a single branch per section per round, so profiling
//! costs nothing measurable when not requested. When enabled, each
//! section's span durations accumulate into a [`Histogram`] (per round, or
//! per node per round for the ARQ scan), which feeds `profile.*_nanos`
//! metrics and a folded-stack export consumable by standard flamegraph
//! tools (`flamegraph.pl`, inferno, speedscope).
//!
//! Wall-clock values are inherently non-deterministic, so profiler output
//! never feeds an event, the deterministic run report or the golden files:
//! the profiler is the engines' only clock (see the determinism contract in
//! [`crate::obsv`]).

use crate::obsv::metrics::{Histogram, Metrics};
use parking_lot::Mutex;
use std::time::Instant;

/// The instrumented sections of the simulator hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `cliquemodel.rs`: per-round send accounting (bandwidth checks,
    /// traffic counters, trace emission).
    Account,
    /// `cliquemodel.rs`: delivery — merging sent messages into inboxes.
    Deliver,
    /// `engine.rs`: the CONGEST round body — the send sweep (accounting
    /// and staging in one outbox drain), then transpose + delivery with
    /// fault adjudication, all under one span.
    Fused,
    /// Both backends: the node-compute section (`init`/`on_round` over all
    /// nodes, parallel schedule included).
    Compute,
    /// `reliable.rs`: the per-node ARQ retransmit scan (timeout checks and
    /// frame re-sends). Recorded from parallel node steps.
    ArqRetransmit,
}

/// All sections, in display order.
pub const SECTIONS: [Section; 5] = [
    Section::Account,
    Section::Deliver,
    Section::Fused,
    Section::Compute,
    Section::ArqRetransmit,
];

impl Section {
    /// Stable lowercase name, used in metric keys and folded stacks.
    pub fn name(self) -> &'static str {
        match self {
            Section::Account => "account",
            Section::Deliver => "deliver",
            Section::Fused => "fused",
            Section::Compute => "compute",
            Section::ArqRetransmit => "arq_retransmit",
        }
    }

    /// Position in [`SECTIONS`] (the declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulates wall-clock span durations per [`Section`].
///
/// Shared behind an `Arc` between the caller and the engines; `record` may
/// be called from parallel sections (the ARQ scan), hence the per-section
/// mutex. Lock contention is irrelevant at profiling granularity — spans
/// are recorded once per round (or per node-round), not per message.
#[derive(Debug, Default)]
pub struct Profiler {
    sections: [Mutex<SectionStats>; 5],
}

#[derive(Debug, Default)]
struct SectionStats {
    hist: Histogram,
    total_nanos: u64,
}

impl Profiler {
    /// A fresh profiler with empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span. Pair with [`Self::record`].
    #[inline]
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Closes a span opened by [`Self::start`], crediting `section`.
    #[inline]
    pub fn record(&self, section: Section, start: Instant) {
        self.record_nanos(section, start.elapsed().as_nanos() as u64);
    }

    /// Credits `section` with an already-measured duration.
    pub fn record_nanos(&self, section: Section, nanos: u64) {
        let mut s = self.sections[section.index()].lock();
        s.hist.observe(nanos);
        s.total_nanos += nanos;
    }

    /// Snapshot of one section's span histogram.
    pub fn histogram(&self, section: Section) -> Histogram {
        self.sections[section.index()].lock().hist.clone()
    }

    /// Total nanoseconds credited to one section.
    pub fn total_nanos(&self, section: Section) -> u64 {
        self.sections[section.index()].lock().total_nanos
    }

    /// Installs one `profile.<section>_nanos` histogram per non-empty
    /// section into `metrics`: present only when measured, never in
    /// deterministic reports.
    pub fn install_into(&self, metrics: &mut Metrics) {
        for section in SECTIONS {
            let hist = self.histogram(section);
            if hist.count() > 0 {
                metrics.install_hist(&format!("profile.{}_nanos", section.name()), hist);
            }
        }
    }

    /// The folded-stack export: one `frame;frame;frame value` line per
    /// non-empty section, value = total nanoseconds. Feed directly to
    /// `flamegraph.pl` / `inferno-flamegraph`.
    pub fn folded_stacks(&self, root: &str) -> String {
        let mut out = String::new();
        for section in SECTIONS {
            let total = self.total_nanos(section);
            if total > 0 {
                let parent = match section {
                    Section::ArqRetransmit => "transport",
                    _ => "engine",
                };
                out.push_str(&format!("{root};{parent};{} {total}\n", section.name()));
            }
        }
        out
    }

    /// A human-readable per-section summary table (spans, total, mean).
    pub fn summary_table(&self) -> String {
        let mut out = String::from("section          spans      total_ms    mean_us\n");
        for section in SECTIONS {
            let (count, total) = {
                let s = self.sections[section.index()].lock();
                (s.hist.count(), s.total_nanos)
            };
            if count == 0 {
                continue;
            }
            let mean_us = total as f64 / count as f64 / 1_000.0;
            out.push_str(&format!(
                "{:<16} {:>6} {:>12.3} {:>10.2}\n",
                section.name(),
                count,
                total as f64 / 1_000_000.0,
                mean_us
            ));
        }
        out
    }
}

/// Opens a span when a profiler is installed; see [`prof_record`].
#[inline]
pub(crate) fn prof_start(prof: Option<&Profiler>) -> Option<Instant> {
    prof.map(|p| p.start())
}

/// Closes a span opened by [`prof_start`] (no-op when disabled).
#[inline]
pub(crate) fn prof_record(prof: Option<&Profiler>, section: Section, start: Option<Instant>) {
    if let (Some(p), Some(t)) = (prof, start) {
        p.record(section, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_per_section() {
        let p = Profiler::new();
        p.record_nanos(Section::Fused, 1_000);
        p.record_nanos(Section::Fused, 3_000);
        p.record_nanos(Section::Deliver, 500);
        assert_eq!(p.histogram(Section::Fused).count(), 2);
        assert_eq!(p.total_nanos(Section::Fused), 4_000);
        assert_eq!(p.histogram(Section::Deliver).count(), 1);
        assert_eq!(p.histogram(Section::Account).count(), 0);
    }

    #[test]
    fn folded_stacks_skip_empty_sections() {
        let p = Profiler::new();
        p.record_nanos(Section::Compute, 42);
        p.record_nanos(Section::Fused, 9);
        p.record_nanos(Section::ArqRetransmit, 7);
        let folded = p.folded_stacks("congest");
        assert_eq!(
            folded,
            "congest;engine;fused 9\ncongest;engine;compute 42\ncongest;transport;arq_retransmit 7\n"
        );
    }

    #[test]
    fn metrics_installation_is_gated_on_observations() {
        let p = Profiler::new();
        p.record_nanos(Section::Account, 10);
        let mut m = Metrics::new();
        p.install_into(&mut m);
        let snap = m.snapshot();
        assert!(snap.get("profile.account_nanos").is_some());
        assert!(snap.get("profile.fused_nanos").is_none());
    }

    #[test]
    fn summary_table_lists_only_active_sections() {
        let p = Profiler::new();
        p.record_nanos(Section::Fused, 2_000_000);
        let table = p.summary_table();
        assert!(table.contains("fused"), "{table}");
        assert!(!table.contains("deliver"), "{table}");
    }

    #[test]
    fn disabled_helpers_are_noops() {
        assert!(prof_start(None).is_none());
        prof_record(None, Section::Fused, None);
        let p = Profiler::new();
        let t = prof_start(Some(&p));
        prof_record(Some(&p), Section::Fused, t);
        assert_eq!(p.histogram(Section::Fused).count(), 1);
    }
}
