//! Referee for the receive window: random operation sequences drive a
//! [`RecvLink`] and a small `BTreeMap` reference model of the same link
//! (an out-of-order buffer and an in-order delivered map), and after every
//! step the two must agree on everything the transport reads.

use super::{RecvLink, FAR_AHEAD, MAX_WINDOW};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The reference semantics, one map per role.
#[derive(Default)]
struct Reference {
    next_needed: u32,
    buffer: BTreeMap<u32, Vec<u64>>,
    delivered: BTreeMap<u32, Vec<u64>>,
    fin_at: Option<u32>,
    consecutive_skips: usize,
    dead: bool,
}

impl Reference {
    fn new() -> Self {
        Reference {
            next_needed: 1,
            ..Reference::default()
        }
    }

    fn advance(&mut self) -> bool {
        let mut moved = false;
        while let Some(bundle) = self.buffer.remove(&self.next_needed) {
            self.delivered.insert(self.next_needed, bundle);
            self.next_needed += 1;
            moved = true;
        }
        moved
    }

    fn arrive(&mut self, seq: u32, fin: bool, payload: &[u64]) -> bool {
        if self.dead || seq < self.next_needed {
            return false;
        }
        if fin {
            self.fin_at = Some(self.fin_at.map_or(seq, |f| f.min(seq)));
        }
        self.buffer.entry(seq).or_insert_with(|| payload.to_vec());
        if self.advance() {
            self.consecutive_skips = 0;
        }
        true
    }

    fn skip(&mut self) {
        self.delivered.insert(self.next_needed, Vec::new());
        self.next_needed += 1;
        self.advance();
        self.consecutive_skips += 1;
        if self.consecutive_skips >= 2 {
            self.dead = true;
        }
    }

    fn ready(&self, v: u32) -> bool {
        self.dead || self.delivered.contains_key(&v) || self.fin_at.is_some_and(|f| v > f)
    }

    fn take(&mut self, v: u32) -> Vec<u64> {
        self.delivered.remove(&v).unwrap_or_default()
    }

    fn sack(&self) -> u16 {
        let mut sack = 0;
        for i in 0..MAX_WINDOW as u32 {
            if self.buffer.contains_key(&(self.next_needed + i)) {
                sack |= 1 << i;
            }
        }
        sack
    }

    fn closed(&self) -> bool {
        self.dead || self.fin_at.is_some_and(|f| self.next_needed > f)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recv_window_matches_btreemap_reference(
        ops in proptest::collection::vec((0u8..10, 0u32..48, any::<bool>()), 1..300),
    ) {
        let mut window: RecvLink<u64> = RecvLink::new();
        let mut reference = Reference::new();
        // The next virtual round the inner algorithm takes.
        let mut inner_next = 1u32;
        for (step, &(kind, offset, flag)) in ops.iter().enumerate() {
            let nn = reference.next_needed;
            let arrival = match kind {
                // Near the next needed frame: in order, out of order, and
                // duplicates of buffered frames.
                0 | 1 => Some(nn + offset % 6),
                // Up to 47 ahead: past the sack's reach, as from a sender
                // that gave frames up and ran ahead.
                2 => Some(nn + offset),
                // Stale: already delivered or skipped.
                3 => Some(nn.saturating_sub(1 + offset % 8).max(1)),
                // A corrupted header whose checksum collided.
                4 => Some(nn + FAR_AHEAD + offset),
                _ => None,
            };
            if let Some(seq) = arrival {
                let fin = flag && offset % 5 == 0;
                // Duplicates carry a different payload: the first copy wins.
                let payload = vec![u64::from(seq), u64::from(offset)];
                let fresh = window.arrive(seq, fin, &Arc::new(payload.clone()));
                prop_assert_eq!(fresh, reference.arrive(seq, fin, &payload), "step {}", step);
            } else if kind < 7 {
                // The watchdog only skips a link that blocks the inner step.
                if !reference.ready(inner_next) {
                    window.skip();
                    reference.skip();
                }
            } else if reference.ready(inner_next) {
                let got = window.take(inner_next).map(|b| b.to_vec()).unwrap_or_default();
                prop_assert_eq!(got, reference.take(inner_next), "step {}", step);
                inner_next += 1;
                prop_assert!(window.base >= inner_next.min(window.next_needed), "step {}", step);
            }
            prop_assert_eq!(window.ready(inner_next), reference.ready(inner_next), "step {}", step);
            prop_assert_eq!(window.next_needed, reference.next_needed, "step {}", step);
            prop_assert_eq!(window.closed(), reference.closed(), "step {}", step);
            prop_assert_eq!(window.sack(), reference.sack(), "step {}", step);
            prop_assert_eq!(window.dead, reference.dead, "step {}", step);
            prop_assert_eq!(window.consecutive_skips, reference.consecutive_skips, "step {}", step);
            // The window spans only the frames in flight: nothing before
            // the last taken round (see above), nothing past the farthest
            // buffered one.
            let past_needed = window.slots.len() as u32 - (window.next_needed - window.base);
            prop_assert!(past_needed <= 48, "step {}: {} slots", step, window.slots.len());
        }
    }
}
