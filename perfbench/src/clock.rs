//! Engine time split by round kind and driver phase, read off the
//! simulator's structured event stream.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use congest::{Collector, SimEvent};

use crate::metrics::Report;
use crate::stats::ratio;

/// What a [`RoundClock`] measured.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RoundSplit {
    /// Rounds whose `RoundEnd` carried at least one message.
    pub active_rounds: u64,
    /// Wall time of the active rounds, in nanoseconds.
    pub active_ns: u64,
    /// Rounds whose `RoundEnd` carried no message.
    pub idle_rounds: u64,
    /// Wall time of the idle rounds, in nanoseconds.
    pub idle_ns: u64,
    /// Messages the rounds carried.
    pub messages: u64,
    /// Bits the rounds carried.
    pub bits: u64,
    /// Wall time from each `phase1` marker to the phase's last engine
    /// event — its run header, once the engine has set the run up, or the
    /// end of its last round — in nanoseconds. The detector's work after
    /// that, up to the next marker or [`RoundClock::take`], is left out.
    pub phase1_ns: u64,
    /// The same for `phase2` markers.
    pub phase2_ns: u64,
}

impl RoundSplit {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &RoundSplit) {
        self.active_rounds += o.active_rounds;
        self.active_ns += o.active_ns;
        self.idle_rounds += o.idle_rounds;
        self.idle_ns += o.idle_ns;
        self.messages += o.messages;
        self.bits += o.bits;
        self.phase1_ns += o.phase1_ns;
        self.phase2_ns += o.phase2_ns;
    }

    /// Records the engine's per-round costs: the mean wall time of an
    /// active and of an idle round, and the idle rounds' share of round
    /// time.
    pub fn report_rounds(&self, report: &mut Report) {
        let (active, idle) = (self.active_ns as f64, self.idle_ns as f64);
        report.set(
            "congest.engine.active_round_us",
            ratio(active, self.active_rounds as f64) / 1e3,
        );
        report.set(
            "congest.engine.idle_round_us",
            ratio(idle, self.idle_rounds as f64) / 1e3,
        );
        report.set("congest.engine.idle_time_frac", ratio(idle, active + idle));
    }
}

#[derive(Default)]
struct State {
    split: RoundSplit,
    round_start: Option<Instant>,
    /// The open phase: whether it is `phase1`, and when it began.
    phase: Option<(bool, Instant)>,
    /// When the open phase's last engine event came.
    phase_end: Option<Instant>,
}

impl State {
    fn close_phase(&mut self) {
        let end = self.phase_end.take();
        if let Some((first, start)) = self.phase.take() {
            let ns = end.map_or(0, |end| nanos(end - start));
            if first {
                self.split.phase1_ns += ns;
            } else {
                self.split.phase2_ns += ns;
            }
        }
    }
}

/// A [`Collector`] that timestamps `Phase`, `Meta`, `RoundStart` and
/// `RoundEnd` events and drops every other event unread. It declines causal
/// provenance, so the engine skips building per-send dependency sets.
#[derive(Default)]
pub struct RoundClock {
    state: Mutex<State>,
}

impl RoundClock {
    /// Closes the open phase and returns what was measured since the last
    /// call, starting afresh.
    pub fn take(&self) -> RoundSplit {
        let mut s = self.state.lock().expect("round clock lock poisoned");
        s.close_phase();
        std::mem::take(&mut *s).split
    }
}

impl Collector for RoundClock {
    fn record(&self, ev: &SimEvent) {
        if !matches!(
            ev,
            SimEvent::Phase { .. }
                | SimEvent::Meta { .. }
                | SimEvent::RoundStart { .. }
                | SimEvent::RoundEnd { .. }
        ) {
            return;
        }
        let now = Instant::now();
        let mut s = self.state.lock().expect("round clock lock poisoned");
        match ev {
            SimEvent::Phase { name, .. } => {
                s.close_phase();
                s.phase = Some((&**name == "phase1", now));
            }
            SimEvent::Meta { .. } => s.phase_end = Some(now),
            SimEvent::RoundStart { .. } => s.round_start = Some(now),
            SimEvent::RoundEnd { messages, bits, .. } => {
                if let Some(start) = s.round_start.take() {
                    s.phase_end = Some(now);
                    let ns = nanos(now - start);
                    let split = &mut s.split;
                    if *messages == 0 {
                        split.idle_rounds += 1;
                        split.idle_ns += ns;
                    } else {
                        split.active_rounds += 1;
                        split.active_ns += ns;
                    }
                    split.messages += messages;
                    split.bits += bits;
                }
            }
            _ => {}
        }
    }

    fn wants_provenance(&self) -> bool {
        false
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rounds_split_by_traffic_and_phases_by_marker() {
        let clock = RoundClock::default();
        let phase = |name: &str| SimEvent::Phase {
            name: Arc::from(name),
            repetition: 0,
        };
        let end = |round, messages| SimEvent::RoundEnd {
            round,
            bits: 8 * messages,
            messages,
            dropped: 0,
            corrupted: 0,
        };
        clock.record(&phase("phase1"));
        clock.record(&SimEvent::RoundStart { round: 1 });
        clock.record(&end(1, 3));
        clock.record(&SimEvent::Meta {
            n: 4,
            bandwidth_bits: 8,
            seed: 0,
        });
        clock.record(&phase("phase2"));
        clock.record(&SimEvent::RoundStart { round: 1 });
        clock.record(&end(1, 0));
        clock.record(&SimEvent::RoundStart { round: 2 });
        clock.record(&end(2, 1));
        let s = clock.take();
        assert_eq!(
            (s.active_rounds, s.idle_rounds, s.messages, s.bits),
            (2, 1, 4, 32)
        );
        assert!(s.phase2_ns >= s.idle_ns, "phase 2 spans its idle round");
        clock.record(&phase("phase1"));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            clock.take().phase1_ns,
            0,
            "a phase ends at its last engine event, not at take"
        );
        assert_eq!(clock.take(), RoundSplit::default(), "take starts afresh");
        assert!(!clock.wants_provenance());
    }
}
