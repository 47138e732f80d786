//! Reliable transport over a faulty CONGEST network.
//!
//! [`Reliable<A>`] wraps any [`NodeAlgorithm`] in a per-link sliding-window
//! selective-repeat ARQ (automatic repeat request) layer. Each *virtual*
//! round of the inner algorithm becomes one sequence-numbered data frame
//! per link (empty frames included — the stream is self-clocking), and up
//! to [`ReliableConfig::window`] frames ride each link unacknowledged.
//! Receivers return cumulative acks with a 16-bit selective-ack bitmap, so
//! one loss no longer stalls the frames behind it. Retransmission timing is
//! adaptive: each link keeps a smoothed RTT estimate from ack round-trips,
//! and every retry backs off exponentially (capped at [`RTO_CAP`]) with
//! deterministic seeded jitter so synchronized losses do not retransmit in
//! lockstep. A round's expirations are batched per link — everything that
//! fits the per-edge bit budget goes out together, oldest frame first.
//!
//! The protocol overhead is charged through the normal engine accounting —
//! headers, acks, and retransmissions all cost real bits, so [`RunStats`]
//! of a reliable run reflect the true price of reliability.
//!
//! **Graceful degradation** instead of deadlock: a receiver blocked too
//! long on a missing frame *skips* it (delivering an empty bundle — losses
//! only remove information, so sound detectors stay sound), a sender
//! exhausting `max_retries` gives the frame up, and two consecutive
//! give-ups declare the link dead so crashed neighbors stop costing
//! timeouts. All of it is tallied ([`Reliable::given_up`],
//! [`Reliable::retransmissions`], [`Reliable::backoff_events`]) and folded
//! into the run's [`FaultReport`](crate::faults::FaultReport), where it
//! triggers the engine's `Degraded` outcome assessment.
//!
//! Limits: the adapter converts broadcasts into per-port sends, so it
//! cannot run under a `broadcast_only` engine; and reliability is
//! best-effort — a frame whose every transmission is lost is given up, not
//! blocked on forever.
//!
//! [`RunStats`]: crate::stats::RunStats

use crate::engine::{Bandwidth, Engine};
use crate::error::SimError;
use crate::faults::raw_hash;
use crate::message::BitSize;
use crate::node::{reuse_view, Decision, Inbox, NodeAlgorithm, NodeContext, Outbox, Outgoing};
use crate::obsv::profile::{prof_record, prof_start, Profiler, Section};
use crate::simulation::Outcome;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Wire envelope of the reliable layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RMsg<M> {
    /// A data frame: every inner message the sender addressed to this port
    /// in virtual round `seq`, plus a payload checksum.
    Data {
        /// Sequence number (equal to the virtual round the bundle belongs
        /// to — the stream is self-clocking, one frame per virtual round).
        seq: u32,
        /// 16-bit checksum over `(seq, fin, payload)`.
        check: u16,
        /// Whether this is the sender's final frame on this link (its
        /// inner algorithm halted after producing this bundle).
        fin: bool,
        /// The bundled inner messages, behind an `Arc` shared with the
        /// sender's retransmission queue — a retransmitted frame re-sends
        /// the same allocation instead of deep-copying the bundle. Sound
        /// because fault corruption only ever flips header bits (see
        /// [`BitSize::corrupt_bit`] below), never payload contents.
        payload: Arc<Vec<M>>,
    },
    /// Cumulative + selective acknowledgement for one link.
    Ack {
        /// Highest sequence number below which everything was received
        /// (or skipped) in order.
        cum: u32,
        /// Selective-ack bitmap: bit `i` set means frame `cum + 1 + i` is
        /// buffered out of order.
        sack: u16,
        /// 16-bit checksum over `(cum, sack)`.
        check: u16,
    },
}

/// Header cost of a data frame in bits: 1 (tag) + 32 (seq) + 16 (checksum)
/// + 1 (fin) + 8 (bundle length).
pub const DATA_HEADER_BITS: usize = 1 + 32 + 16 + 1 + 8;
/// Cost of an ack in bits: 1 (tag) + 32 (cum) + 16 (sack) + 16 (checksum).
pub const ACK_BITS: usize = 1 + 32 + 16 + 16;
/// Largest permitted send window (the sack bitmap covers 16 frames).
pub const MAX_WINDOW: usize = 16;
/// Retransmission-timeout cap in rounds: exponential backoff never waits
/// longer than this (plus one round of jitter) between attempts.
pub const RTO_CAP: usize = 8;

/// Inner steps the transport may run in one physical round while catching
/// up after a stall (arrivals beyond the stalled frame are buffered, so a
/// repaired gap can release several virtual rounds at once).
const MAX_CATCHUP: usize = 4;

/// How far past the next needed frame a receiver buffers. A sender runs
/// ahead of its receiver only by its window plus the frames it gave up,
/// so a frame this far ahead can only be a corrupted header whose
/// checksum collided. It is dropped rather than buffered, which also keeps
/// a receive window from growing to a corrupted sequence number.
const FAR_AHEAD: u32 = 1 << 16;

impl<M: BitSize> BitSize for RMsg<M> {
    fn bit_size(&self) -> usize {
        match self {
            RMsg::Data { payload, .. } => {
                DATA_HEADER_BITS + payload.iter().map(BitSize::bit_size).sum::<usize>()
            }
            RMsg::Ack { .. } => ACK_BITS,
        }
    }

    fn corrupt_bit(&mut self, bit_index: usize) -> bool {
        // The envelope's header fields are literal wire bits, so the
        // reliable layer is corruptible even when the inner payload is a
        // structured value. Every flip lands in a checksummed field
        // (sequence number, fin flag, or the checksum itself), so the
        // receiver detects it and retransmission repairs it — exactly the
        // failure mode ARQ exists for.
        match self {
            RMsg::Data {
                seq, check, fin, ..
            } => {
                match bit_index % 49 {
                    b @ 0..=31 => *seq ^= 1 << b,
                    b @ 32..=47 => *check ^= 1 << (b - 32),
                    _ => *fin = !*fin,
                }
                true
            }
            RMsg::Ack { cum, sack, check } => {
                match bit_index % 64 {
                    b @ 0..=31 => *cum ^= 1 << b,
                    b @ 32..=47 => *sack ^= 1 << (b - 32),
                    b => *check ^= 1 << (b - 48),
                }
                true
            }
        }
    }
}

fn data_check<M: Hash>(seq: u32, fin: bool, payload: &[M]) -> u16 {
    let mut h = graphlib::hash::FxHasher::default();
    seq.hash(&mut h);
    fin.hash(&mut h);
    payload.len().hash(&mut h);
    for m in payload {
        m.hash(&mut h);
    }
    (h.finish() >> 48) as u16
}

fn ack_check(cum: u32, sack: u16) -> u16 {
    let mut h = graphlib::hash::FxHasher::default();
    "ack".hash(&mut h);
    cum.hash(&mut h);
    sack.hash(&mut h);
    (h.finish() >> 48) as u16
}

fn payload_bits<M: BitSize>(payload: &[M]) -> usize {
    payload.iter().map(BitSize::bit_size).sum()
}

/// Retransmission timeout for the given attempt: smoothed-RTT-based
/// exponential backoff capped at [`RTO_CAP`], plus one seeded jitter round
/// so synchronized links do not retransmit in lockstep.
fn rto(srtt: usize, attempt: usize, seed: u64, node: usize, port: usize, seq: u32) -> usize {
    let base = ((srtt + 1) << (attempt - 1)).min(RTO_CAP);
    base + (raw_hash((seed, "arq-jitter", node, port, seq, attempt)) & 1) as usize
}

/// Tuning of the reliable layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Frames that may ride a link unacknowledged (1 = stop-and-wait;
    /// at most [`MAX_WINDOW`], the reach of the sack bitmap).
    pub window: usize,
    /// Initial smoothed-RTT estimate in rounds (the ack round-trip of a
    /// lossless link is 2); per-link estimates adapt from there.
    pub ack_timeout: usize,
    /// Retransmissions per frame after the initial send before the sender
    /// gives the frame up.
    pub max_retries: usize,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            window: 8,
            ack_timeout: 2,
            max_retries: 4,
        }
    }
}

impl ReliableConfig {
    /// Validated constructor (panics on invalid tuning; fallible callers
    /// should use [`ReliableConfig::validate`] via the
    /// [`Simulation`](crate::Simulation) builder instead).
    pub fn new(window: usize, ack_timeout: usize, max_retries: usize) -> Self {
        let cfg = ReliableConfig {
            window,
            ack_timeout,
            max_retries,
        };
        if let Err(e) = cfg.validate() {
            panic!("invalid ReliableConfig: {e}");
        }
        cfg
    }

    /// Checks the tuning for values that would hang or livelock the
    /// transport. Returns a human-readable description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("window must be at least 1 (0 can never send)".into());
        }
        if self.window > MAX_WINDOW {
            return Err(format!(
                "window {} exceeds MAX_WINDOW {MAX_WINDOW} (the sack bitmap width)",
                self.window
            ));
        }
        if self.ack_timeout == 0 {
            return Err("ack_timeout must be at least 1 round".into());
        }
        if self.max_retries == 0 {
            return Err("max_retries must be at least 1 (0 gives up on first loss)".into());
        }
        Ok(())
    }

    /// Engine bandwidth needed to carry `inner_bits` of inner per-port
    /// traffic per virtual round (the worst round carries one full data
    /// frame plus one ack).
    pub fn required_bandwidth(&self, inner_bits: usize) -> usize {
        DATA_HEADER_BITS + inner_bits + ACK_BITS
    }

    /// Rounds a blocked receiver waits for a missing frame before skipping
    /// it — generous enough to cover the sender's full retry schedule.
    pub fn give_up_after(&self) -> usize {
        (self.max_retries + 1) * (RTO_CAP + 1) + 4
    }

    /// Physical engine rounds sufficient for `virtual_rounds` inner rounds
    /// even in worst-case degraded operation (a safe `max_rounds`; healthy
    /// runs halt far earlier and the engine exits on completion).
    pub fn physical_rounds(&self, virtual_rounds: usize) -> usize {
        (virtual_rounds + 2) * (self.give_up_after() + 2)
    }
}

/// One outgoing frame and its retransmission state.
#[derive(Debug, Clone)]
struct SendFrame<M> {
    seq: u32,
    fin: bool,
    check: u16,
    /// Bundle payload, shared with every transmission of this frame (the
    /// wire message holds the same `Arc`, so a retransmission is a pointer
    /// bump, not a deep copy of the bundle).
    payload: Arc<Vec<M>>,
    /// Cached wire size of the full frame (`DATA_HEADER_BITS` + payload
    /// bits), computed once when the frame is queued. The send pass charges
    /// each (re)transmission against the budget with this one number — one
    /// accounting touch per link per round instead of a payload walk per
    /// attempt.
    bits: usize,
    /// Transmissions so far (0 = queued, never sent).
    attempt: usize,
    /// Round of the first transmission (RTT sampling; Karn's rule — only
    /// frames acked on their first attempt contribute a sample).
    sent_round: usize,
    /// Round the current attempt times out.
    expires: usize,
    acked: bool,
    given_up: bool,
}

impl<M> SendFrame<M> {
    fn resolved(&self) -> bool {
        self.acked || self.given_up
    }
}

/// Sender state for one outgoing link.
#[derive(Debug, Clone)]
struct SendLink<M> {
    frames: VecDeque<SendFrame<M>>,
    next_seq: u32,
    /// Smoothed RTT estimate in rounds (integer EWMA).
    srtt: usize,
    consecutive_given_up: usize,
    /// Two consecutive give-ups declare the link dead: later frames
    /// resolve instantly instead of burning full retry schedules.
    dead: bool,
}

impl<M> SendLink<M> {
    fn new(srtt0: usize) -> Self {
        SendLink {
            frames: VecDeque::new(),
            next_seq: 1,
            srtt: srtt0,
            consecutive_given_up: 0,
            dead: false,
        }
    }

    fn pop_resolved(&mut self) {
        while self.frames.front().is_some_and(SendFrame::resolved) {
            self.frames.pop_front();
        }
    }

    fn all_resolved(&self) -> bool {
        self.frames.iter().all(SendFrame::resolved)
    }
}

/// Receiver state for one incoming link.
///
/// The receive window is one `VecDeque` of bundle slots indexed by
/// sequence number: slot `i` is frame `base + i`. Frames below
/// `next_needed` are delivered in order and wait for the inner algorithm
/// (`None`: skipped, delivered empty); frames from `next_needed` on are
/// buffered out of order (`None`: not arrived yet). A slot holds the
/// sender's `Arc` bundle itself, so an arrival copies no payload. The
/// inner algorithm takes rounds in increasing order, and taking round `v`
/// drops every slot before it, so the window spans only the frames in
/// flight.
#[derive(Debug, Clone)]
struct RecvLink<M> {
    /// Lowest sequence number not yet received or skipped.
    next_needed: u32,
    /// Sequence number of `slots[0]`; never above `next_needed`, and every
    /// frame in `base..next_needed` has a slot.
    base: u32,
    slots: VecDeque<Option<Arc<Vec<M>>>>,
    /// Sequence number of the peer's final frame, once seen; frames past
    /// it resolve as empty without any wire traffic.
    fin_at: Option<u32>,
    /// Consecutive rounds the inner algorithm was blocked on this link
    /// with nothing arriving.
    blocked_rounds: usize,
    /// An ack is owed (new data, a duplicate, or a skip changed the
    /// receive state this round).
    ack_dirty: bool,
    consecutive_skips: usize,
    /// Two consecutive skips declare the link dead: every future frame
    /// resolves as empty immediately.
    dead: bool,
}

impl<M> RecvLink<M> {
    fn new() -> Self {
        RecvLink {
            next_needed: 1,
            base: 1,
            slots: VecDeque::new(),
            fin_at: None,
            blocked_rounds: 0,
            ack_dirty: false,
            consecutive_skips: 0,
            dead: false,
        }
    }

    /// The bundle stored for frame `seq`, if any.
    fn slot(&self, seq: u32) -> Option<&Arc<Vec<M>>> {
        let i = seq.checked_sub(self.base)?;
        self.slots.get(i as usize)?.as_ref()
    }

    /// Moves `next_needed` past the frames buffered in order behind it.
    fn advance(&mut self) -> bool {
        let start = self.next_needed;
        while self.slot(self.next_needed).is_some() {
            self.next_needed += 1;
        }
        self.next_needed != start
    }

    /// Files a checksum-valid data frame. Returns `false` if it is stale:
    /// the link is dead, or the frame was already delivered or skipped
    /// (loss-sound — a skipped frame stays skipped). A duplicate of a
    /// buffered frame keeps the first copy.
    fn arrive(&mut self, seq: u32, fin: bool, payload: &Arc<Vec<M>>) -> bool {
        if self.dead || seq < self.next_needed {
            return false;
        }
        if fin {
            self.fin_at = Some(self.fin_at.map_or(seq, |f| f.min(seq)));
        }
        if seq - self.next_needed >= FAR_AHEAD {
            return true;
        }
        let i = (seq - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i].get_or_insert_with(|| Arc::clone(payload));
        if self.advance() {
            self.consecutive_skips = 0;
        }
        true
    }

    /// Receiver watchdog: gives up on the missing frame `next_needed`,
    /// delivering it empty (losses only remove information). Two
    /// consecutive skips declare the link dead.
    fn skip(&mut self) {
        if (self.next_needed - self.base) as usize == self.slots.len() {
            self.slots.push_back(None);
        }
        self.next_needed += 1;
        self.advance();
        self.blocked_rounds = 0;
        self.consecutive_skips += 1;
        if self.consecutive_skips >= 2 {
            self.dead = true;
        }
        self.ack_dirty = true;
    }

    /// Whether the bundle for virtual round `v` — the next one the inner
    /// algorithm takes — is available: delivered, past the peer's fin, or
    /// the link is dead (the latter two resolve as empty).
    fn ready(&self, v: u32) -> bool {
        self.dead || v < self.next_needed || self.fin_at.is_some_and(|f| v > f)
    }

    /// Takes the bundle of virtual round `v` (`None`: empty). Rounds are
    /// taken in increasing order, so the delivered slots before `v` are
    /// dropped unread.
    fn take(&mut self, v: u32) -> Option<Arc<Vec<M>>> {
        while self.base < v.min(self.next_needed) {
            self.slots.pop_front();
            self.base += 1;
        }
        if self.base == v && v < self.next_needed {
            self.base += 1;
            self.slots.pop_front().flatten()
        } else {
            None
        }
    }

    /// Selective-ack bitmap: bit `i` set iff frame `next_needed + i` (the
    /// ack's `cum + 1 + i`) is buffered.
    fn sack(&self) -> u16 {
        (0..MAX_WINDOW as u32)
            .filter(|&i| self.slot(self.next_needed + i).is_some())
            .fold(0, |sack, i| sack | 1 << i)
    }

    /// Whether nothing more is owed on this link: the peer's final frame
    /// was seen and fully received (so the peer's sender can resolve), or
    /// the link was declared dead.
    fn closed(&self) -> bool {
        self.dead || self.fin_at.is_some_and(|f| self.next_needed > f)
    }
}

/// A [`NodeAlgorithm`] adapter adding sliding-window selective-repeat ARQ
/// with adaptive backoff and graceful degradation on top of any inner
/// algorithm (see the module docs for the protocol).
#[derive(Clone)]
pub struct Reliable<A: NodeAlgorithm> {
    inner: A,
    cfg: ReliableConfig,
    /// Engine seed, for deterministic retransmission jitter (never the
    /// node's own rng — the inner algorithm's stream must match a bare
    /// run exactly).
    seed: u64,
    /// Per-edge-per-round bit budget (usize::MAX when unbounded), for
    /// batching a round's sends against what actually fits.
    budget: usize,
    node_index: usize,
    send: Vec<SendLink<A::Msg>>,
    recv: Vec<RecvLink<A::Msg>>,
    /// Next virtual round of the inner algorithm to step.
    inner_next: u32,
    /// Consecutive rounds with no valid arrival — the linger gate that
    /// keeps a finished node acking until its peers are demonstrably done.
    idle_rounds: usize,
    /// Set by any loss symptom (retransmission, duplicate, corruption,
    /// give-up); switches the halt linger from 2 rounds to `RTO_CAP + 2`
    /// so retransmitted acks are not orphaned by an early exit.
    saw_trouble: bool,
    retransmissions: u64,
    retrans_per_round: Vec<u64>,
    retrans_per_port: Vec<u64>,
    backoff_events: u64,
    given_up: u64,
    profiler: Option<Arc<Profiler>>,
    /// The one empty bundle every empty frame of this node shares.
    empty: Arc<Vec<A::Msg>>,
    /// Per-round scratch, reused so a round allocates none of it: the
    /// per-port bundles being queued, which ports carried data, the
    /// bundles taken from the receive windows for one virtual step (kept
    /// alive while the inner algorithm reads them), the virtual-step inbox
    /// view over those bundles (typed for no live borrow between steps),
    /// and the virtual-step context (the physical one with the virtual
    /// round, built once at `init`).
    bundles: Vec<Vec<A::Msg>>,
    data_on: Vec<bool>,
    taken: Vec<(u32, Arc<Vec<A::Msg>>)>,
    vinbox: Vec<(u32, &'static A::Msg)>,
    vctx: NodeContext,
}

impl<A: NodeAlgorithm> Reliable<A>
where
    A::Msg: Hash,
{
    /// Wraps `inner` with the given transport tuning.
    pub fn new(inner: A, cfg: ReliableConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ReliableConfig: {e}");
        }
        Reliable {
            inner,
            cfg,
            seed: 0,
            budget: usize::MAX,
            node_index: 0,
            send: Vec::new(),
            recv: Vec::new(),
            inner_next: 1,
            idle_rounds: 0,
            saw_trouble: false,
            retransmissions: 0,
            retrans_per_round: Vec::new(),
            retrans_per_port: Vec::new(),
            backoff_events: 0,
            given_up: 0,
            profiler: None,
            empty: Arc::new(Vec::new()),
            bundles: Vec::new(),
            data_on: Vec::new(),
            taken: Vec::new(),
            vinbox: Vec::new(),
            vctx: NodeContext {
                index: 0,
                id: 0,
                neighbor_ids: Vec::new(),
                n: 0,
                round: 0,
            },
        }
    }

    /// Seeds the deterministic retransmission jitter (the engine seed;
    /// wired automatically on the [`Simulation`](crate::Simulation) route).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-edge-per-round bit budget the batched send pass packs
    /// against (the engine bandwidth; wired automatically on the
    /// [`Simulation`](crate::Simulation) route).
    pub fn with_budget(mut self, bits: usize) -> Self {
        self.budget = bits;
        self
    }

    /// Attaches the engine self-profiler so the ARQ send/retransmit scan
    /// is timed under [`Section::ArqRetransmit`].
    pub fn with_profiler(mut self, p: Arc<Profiler>) -> Self {
        self.profiler = Some(p);
        self
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwraps the inner algorithm.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// Data frames this node retransmitted.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Retransmissions by physical round (entry `r - 1` for round `r`),
    /// grown lazily — empty until the first retransmission.
    pub fn retransmissions_per_round(&self) -> &[u64] {
        &self.retrans_per_round
    }

    /// Retransmissions by outgoing port (directed link), indexed by port.
    pub fn retransmissions_per_port(&self) -> &[u64] {
        &self.retrans_per_port
    }

    /// Retransmissions sent at backoff stage ≥ 2 (third or later attempt)
    /// — each one is a frame the adaptive timeout had to back off for.
    pub fn backoff_events(&self) -> u64 {
        self.backoff_events
    }

    /// Frames abandoned by the transport: sender frames that exhausted
    /// `max_retries`, plus receiver-side skips of frames that never
    /// arrived. Any nonzero count marks the run as degraded.
    pub fn given_up(&self) -> u64 {
        self.given_up
    }

    /// Splits an inner outbox into per-port bundles and queues them as
    /// frame `seq` on every link (empty bundles included — the stream is
    /// self-clocking).
    fn queue(&mut self, inner_out: Outbox<A::Msg>, seq: u32, fin: bool) {
        let ports = self.send.len();
        self.bundles.resize_with(ports, Vec::new);
        for og in inner_out {
            match og {
                Outgoing::Unicast(p, m) => self.bundles[p as usize].push(m),
                Outgoing::Broadcast(m) => {
                    for b in self.bundles.iter_mut() {
                        b.push(m.clone());
                    }
                }
            }
        }
        for p in 0..ports {
            let payload = std::mem::take(&mut self.bundles[p]);
            let check = data_check(seq, fin, &payload);
            let bits = DATA_HEADER_BITS + payload_bits(&payload);
            let payload = if payload.is_empty() {
                Arc::clone(&self.empty)
            } else {
                Arc::new(payload)
            };
            self.send[p].frames.push_back(SendFrame {
                seq,
                fin,
                check,
                payload,
                bits,
                attempt: 0,
                sent_round: 0,
                expires: 0,
                acked: false,
                given_up: false,
            });
            self.send[p].next_seq = seq + 1;
        }
    }

    /// The batched per-link send pass: one ack (if owed), then expired
    /// retransmits and window-admitted new frames oldest-first, packing
    /// everything that fits the per-edge bit budget.
    fn pump(&mut self, round: usize, out: &mut Outbox<RMsg<A::Msg>>) {
        let t_arq = prof_start(self.profiler.as_deref());
        let ports = self.send.len();
        for p in 0..ports {
            let mut budget = self.budget;
            // 1. Ack first: the receiver side is what unblocks the peer.
            let rl = &mut self.recv[p];
            if rl.ack_dirty && budget >= ACK_BITS {
                let cum = rl.next_needed - 1;
                let sack = rl.sack();
                out.push(Outgoing::Unicast(
                    p as u32,
                    RMsg::Ack {
                        cum,
                        sack,
                        check: ack_check(cum, sack),
                    },
                ));
                budget = budget.saturating_sub(ACK_BITS);
                rl.ack_dirty = false;
            }
            // 2. Sender scan, oldest frame first.
            let sl = &mut self.send[p];
            sl.pop_resolved();
            let mut gave_up = 0u64;
            let mut retrans = 0u64;
            let mut backoffs = 0u64;
            if sl.dead {
                for f in sl.frames.iter_mut() {
                    if !f.resolved() {
                        f.given_up = true;
                        gave_up += 1;
                    }
                }
            } else {
                let base = sl.frames.front().map_or(sl.next_seq, |f| f.seq);
                let window_end = base + self.cfg.window as u32;
                let srtt = sl.srtt;
                for f in sl.frames.iter_mut() {
                    if f.resolved() {
                        continue;
                    }
                    if f.attempt == 0 {
                        // New frame: admitted by the window, sent if it fits.
                        if f.seq >= window_end {
                            break;
                        }
                        if f.bits > budget {
                            break;
                        }
                        out.push(Outgoing::Unicast(
                            p as u32,
                            RMsg::Data {
                                seq: f.seq,
                                check: f.check,
                                fin: f.fin,
                                payload: Arc::clone(&f.payload),
                            },
                        ));
                        budget -= f.bits;
                        f.attempt = 1;
                        f.sent_round = round;
                        f.expires = round + rto(srtt, 1, self.seed, self.node_index, p, f.seq);
                    } else if round >= f.expires {
                        if f.attempt > self.cfg.max_retries {
                            // Retry budget exhausted: abandon the frame.
                            f.given_up = true;
                            gave_up += 1;
                        } else {
                            // Catch-up retransmit: charged with the cached
                            // frame size — no per-attempt payload walk or
                            // bundle copy even when several expired frames
                            // on this link go out together.
                            if f.bits <= budget {
                                out.push(Outgoing::Unicast(
                                    p as u32,
                                    RMsg::Data {
                                        seq: f.seq,
                                        check: f.check,
                                        fin: f.fin,
                                        payload: Arc::clone(&f.payload),
                                    },
                                ));
                                budget -= f.bits;
                                f.attempt += 1;
                                f.expires = round
                                    + rto(srtt, f.attempt, self.seed, self.node_index, p, f.seq);
                                retrans += 1;
                                if f.attempt >= 3 {
                                    backoffs += 1;
                                }
                            }
                            // Over budget: the frame stays expired and is
                            // retried next round.
                        }
                    }
                }
                sl.consecutive_given_up += gave_up as usize;
                if sl.consecutive_given_up >= 2 {
                    sl.dead = true;
                }
            }
            sl.pop_resolved();
            self.given_up += gave_up;
            self.retransmissions += retrans;
            self.retrans_per_port[p] += retrans;
            self.backoff_events += backoffs;
            if gave_up > 0 || retrans > 0 {
                self.saw_trouble = true;
                if retrans > 0 && round > 0 {
                    if self.retrans_per_round.len() < round {
                        self.retrans_per_round.resize(round, 0);
                    }
                    self.retrans_per_round[round - 1] += retrans;
                }
            }
        }
        prof_record(self.profiler.as_deref(), Section::ArqRetransmit, t_arq);
    }

    /// Rounds of post-completion lingering before the wrapper reports
    /// halted — long enough to cover one full backed-off retransmission
    /// gap when the run saw any loss symptom.
    fn linger(&self) -> usize {
        if self.saw_trouble {
            RTO_CAP + 2
        } else {
            2
        }
    }
}

impl<A: NodeAlgorithm> NodeAlgorithm for Reliable<A>
where
    A::Msg: Hash,
{
    type Msg = RMsg<A::Msg>;

    fn init(&mut self, ctx: &NodeContext, rng: &mut ChaCha8Rng) -> Outbox<Self::Msg> {
        let ports = ctx.neighbor_ids.len();
        self.node_index = ctx.index;
        self.send = (0..ports)
            .map(|_| SendLink::new(self.cfg.ack_timeout))
            .collect();
        self.recv = (0..ports).map(|_| RecvLink::new()).collect();
        self.retrans_per_port = vec![0; ports];
        self.data_on = vec![false; ports];
        self.vctx = ctx.clone();
        self.inner_next = 1;
        let inner_out = self.inner.init(ctx, rng);
        let fin = self.inner.halted();
        self.queue(inner_out, 1, fin);
        let mut out = Vec::new();
        self.pump(0, &mut out);
        out
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &Inbox<Self::Msg>,
        rng: &mut ChaCha8Rng,
    ) -> Outbox<Self::Msg> {
        let round = ctx.round;
        let mut arrived = false;
        self.data_on.fill(false);

        // 1. Process arrivals: buffer checksum-valid data (acking
        //    duplicates too — our earlier ack may have been lost) and
        //    resolve acked sender frames.
        for (port, msg) in inbox {
            let p = &(*port as usize);
            match &**msg {
                RMsg::Data {
                    seq,
                    check,
                    fin,
                    payload,
                } => {
                    if *check != data_check(*seq, *fin, payload) {
                        // Corrupted in flight: stay silent, the sender's
                        // timeout repairs it.
                        self.saw_trouble = true;
                        continue;
                    }
                    arrived = true;
                    self.data_on[*p] = true;
                    let rl = &mut self.recv[*p];
                    rl.ack_dirty = true;
                    if !rl.arrive(*seq, *fin, payload) {
                        // Stale or post-skip data: discarded but acked, so
                        // the sender stops retransmitting.
                        self.saw_trouble = true;
                    }
                }
                RMsg::Ack { cum, sack, check } => {
                    if *check != ack_check(*cum, *sack) {
                        self.saw_trouble = true;
                        continue;
                    }
                    arrived = true;
                    let sl = &mut self.send[*p];
                    let mut fresh = false;
                    for f in sl.frames.iter_mut() {
                        let offset = f.seq.wrapping_sub(*cum);
                        let covered = f.seq <= *cum
                            || (offset >= 1
                                && offset <= MAX_WINDOW as u32
                                && (*sack >> (offset - 1)) & 1 == 1);
                        if covered && !f.acked {
                            f.acked = true;
                            if !f.given_up {
                                fresh = true;
                                if f.attempt == 1 {
                                    // Karn's rule: only first-attempt acks
                                    // are unambiguous RTT samples.
                                    let sample = round.saturating_sub(f.sent_round);
                                    sl.srtt = (3 * sl.srtt + sample) / 4;
                                }
                            }
                        }
                    }
                    if fresh {
                        sl.consecutive_given_up = 0;
                    }
                    sl.pop_resolved();
                }
            }
        }
        self.idle_rounds = if arrived { 0 } else { self.idle_rounds + 1 };

        // 2. Inner catch-up: step every virtual round whose bundles are
        //    all available (a repaired gap can release several at once).
        let mut steps = 0;
        while steps < MAX_CATCHUP
            && !self.inner.halted()
            && self.recv.iter().all(|rl| rl.ready(self.inner_next))
        {
            for (p, rl) in self.recv.iter_mut().enumerate() {
                if let Some(bundle) = rl.take(self.inner_next) {
                    self.taken.push((p as u32, bundle));
                }
            }
            let mut vinbox = reuse_view(std::mem::take(&mut self.vinbox));
            vinbox.extend(
                self.taken
                    .iter()
                    .flat_map(|(p, bundle)| bundle.iter().map(move |m| (*p, m))),
            );
            self.vctx.round = self.inner_next as usize;
            let inner_out = self.inner.on_round(&self.vctx, &vinbox, rng);
            self.vinbox = reuse_view(vinbox);
            self.taken.clear();
            let fin = self.inner.halted();
            let next = self.inner_next + 1;
            self.queue(inner_out, next, fin);
            self.inner_next = next;
            steps += 1;
        }

        // 3. Receiver watchdog: a link that has blocked the inner
        //    algorithm too long gets its missing frame skipped (delivered
        //    empty — losses only remove information); two consecutive
        //    skips declare the link dead.
        if !self.inner.halted() {
            for (rl, &had_data) in self.recv.iter_mut().zip(&self.data_on) {
                if rl.ready(self.inner_next) || had_data {
                    rl.blocked_rounds = 0;
                    continue;
                }
                rl.blocked_rounds += 1;
                let patience = if rl.consecutive_skips > 0 {
                    RTO_CAP + 2
                } else {
                    self.cfg.give_up_after()
                };
                if rl.blocked_rounds >= patience {
                    rl.skip();
                    self.given_up += 1;
                    self.saw_trouble = true;
                }
            }
        }

        // 4. Batched send pass: acks, then retransmits and new frames.
        let mut out = Vec::new();
        self.pump(round, &mut out);
        out
    }

    fn halted(&self) -> bool {
        self.inner.halted()
            && self.send.iter().all(SendLink::all_resolved)
            && self.recv.iter().all(RecvLink::closed)
            && self.idle_rounds >= self.linger()
    }

    fn decision(&self) -> Decision {
        self.inner.decision()
    }
}

/// The transport run behind
/// [`Simulation`](crate::Simulation)'s reliable route (the single public
/// entry point, via `Simulation::reliable_config(cfg).run(make)`). Emits a
/// [`SimEvent::TransportSummary`](crate::obsv::SimEvent) through the
/// engine's collector once the tallies are known, and re-assesses the
/// outcome's degradation verdict with the transport's give-ups included.
pub(crate) fn run_reliable_impl<A, F>(
    engine: &Engine<'_>,
    cfg: ReliableConfig,
    make: F,
) -> Result<(Outcome, Vec<A>), SimError>
where
    A: NodeAlgorithm,
    A::Msg: Hash,
    F: Fn(usize) -> A + Sync,
{
    let prof = engine.cfg.profiler.clone();
    let seed = engine.cfg.seed;
    let budget = match engine.bandwidth {
        Bandwidth::Bits(b) => b,
        Bandwidth::Unbounded => usize::MAX,
    };
    let (mut outcome, nodes) = engine.run(|v| {
        let node = Reliable::new(make(v), cfg)
            .with_seed(seed)
            .with_budget(budget);
        match &prof {
            Some(p) => node.with_profiler(Arc::clone(p)),
            None => node,
        }
    })?;
    outcome.faults.retransmissions = nodes.iter().map(Reliable::retransmissions).sum();
    outcome.faults.given_up = nodes.iter().map(Reliable::given_up).sum();
    outcome.faults.backoff_events = nodes.iter().map(Reliable::backoff_events).sum();
    // Fold the per-node, per-physical-round retransmission counts into one
    // run-wide series aligned with `dropped_per_round` (padded with zeros
    // out to the executed round count).
    let mut per_round = vec![0u64; outcome.stats.rounds];
    for nd in &nodes {
        for (i, &c) in nd.retransmissions_per_round().iter().enumerate() {
            if let Some(slot) = per_round.get_mut(i) {
                *slot += c;
            }
        }
    }
    outcome.faults.retransmissions_per_round = per_round;
    // Per-link tallies, in the CSR directed-edge order shared with
    // `RunStats::directed_edge_bits` (slot `offsets[v] + port`).
    let offsets = Arc::clone(&outcome.stats.offsets);
    let slots = offsets.last().copied().unwrap_or(0) as usize;
    let mut per_link = vec![0u64; slots];
    for (v, nd) in nodes.iter().enumerate() {
        for (p, &c) in nd.retransmissions_per_port().iter().enumerate() {
            per_link[offsets[v] as usize + p] += c;
        }
    }
    outcome.faults.retransmissions_per_link = per_link;
    let n = nodes.len();
    outcome.assess_degradation(n);
    if let Some(c) = &engine.collector {
        c.record(&crate::obsv::SimEvent::TransportSummary {
            retransmissions: outcome.faults.retransmissions,
            given_up: outcome.faults.given_up,
            backoff_events: outcome.faults.backoff_events,
        });
    }
    Ok((
        outcome,
        nodes.into_iter().map(Reliable::into_inner).collect(),
    ))
}

#[cfg(test)]
mod window_referee;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use crate::simulation::Simulation;
    use graphlib::generators;

    /// Each node broadcasts its id for `depth` virtual rounds, collecting
    /// the set of ids heard; rejects iff it heard every other id. On a
    /// path, hearing everyone requires `n - 1` relay rounds to succeed
    /// end-to-end — a protocol that is very fragile under loss.
    #[derive(Debug, Clone)]
    struct Gossip {
        heard: Vec<u64>,
        rounds_left: usize,
        n: usize,
        done: bool,
    }

    impl Gossip {
        fn new(n: usize) -> Self {
            Gossip {
                heard: Vec::new(),
                rounds_left: 2 * n,
                n,
                done: false,
            }
        }

        fn absorb(&mut self, id: u64) {
            if !self.heard.contains(&id) {
                self.heard.push(id);
            }
        }
    }

    impl NodeAlgorithm for Gossip {
        type Msg = Vec<u64>;

        fn init(&mut self, ctx: &NodeContext, _rng: &mut ChaCha8Rng) -> Outbox<Vec<u64>> {
            self.absorb(ctx.id);
            vec![Outgoing::Broadcast(self.heard.clone())]
        }

        fn on_round(
            &mut self,
            _ctx: &NodeContext,
            inbox: &Inbox<Vec<u64>>,
            _rng: &mut ChaCha8Rng,
        ) -> Outbox<Vec<u64>> {
            for (_, ids) in inbox {
                for &id in ids.iter() {
                    self.absorb(id);
                }
            }
            self.rounds_left -= 1;
            if self.rounds_left == 0 {
                self.done = true;
                return Vec::new();
            }
            vec![Outgoing::Broadcast(self.heard.clone())]
        }

        fn halted(&self) -> bool {
            self.done
        }

        fn decision(&self) -> Decision {
            if self.heard.len() == self.n {
                Decision::Reject // "heard everyone" is the detection event
            } else {
                Decision::Accept
            }
        }
    }

    fn gossip_sim(g: &graphlib::Graph, cfg: ReliableConfig, n: usize) -> Simulation<'_> {
        Simulation::on(g)
            .bandwidth(Bandwidth::Bits(cfg.required_bandwidth(64 * n)))
            .max_rounds(cfg.physical_rounds(2 * n + 1))
            .reliable_config(cfg)
    }

    #[test]
    fn lossless_reliable_matches_bare_run() {
        let n = 5;
        let g = generators::path(n);
        let cfg = ReliableConfig::default();
        let bare = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64 * n))
            .run(|_| Gossip::new(n))
            .unwrap();
        let (rel, nodes) = gossip_sim(&g, cfg, n)
            .run_with_nodes(|_| Gossip::new(n))
            .unwrap();
        assert_eq!(bare.decisions, rel.decisions);
        assert!(nodes.iter().all(|nd| nd.heard.len() == n));
        assert_eq!(rel.faults.retransmissions, 0);
        assert!(rel.completed);
        assert!(rel.degraded.is_none(), "a clean run is not degraded");
    }

    #[test]
    fn windowed_pipeline_beats_stop_and_wait() {
        // The acceptance property in miniature: stop-and-wait (window 1)
        // pays two physical rounds per virtual round even losslessly; a
        // window ≥ 2 self-clocks at one round per virtual round.
        let n = 5;
        let g = generators::path(n);
        let windowed = gossip_sim(&g, ReliableConfig::default(), n)
            .run(|_| Gossip::new(n))
            .unwrap();
        let sw_cfg = ReliableConfig {
            window: 1,
            ..ReliableConfig::default()
        };
        let sw = gossip_sim(&g, sw_cfg, n).run(|_| Gossip::new(n)).unwrap();
        assert_eq!(windowed.decisions, sw.decisions);
        assert!(
            2 * windowed.stats.rounds <= sw.stats.rounds + 10,
            "windowed {} rounds vs stop-and-wait {}",
            windowed.stats.rounds,
            sw.stats.rounds
        );
    }

    #[test]
    fn reliable_charges_header_overhead() {
        let n = 3;
        let g = generators::path(n);
        let cfg = ReliableConfig::default();
        let bare = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64 * n))
            .run(|_| Gossip::new(n))
            .unwrap();
        let rel = gossip_sim(&g, cfg, n).run(|_| Gossip::new(n)).unwrap();
        assert!(
            rel.stats.total_bits > bare.stats.total_bits,
            "headers and acks must cost bits: {} vs {}",
            rel.stats.total_bits,
            bare.stats.total_bits
        );
    }

    /// A single-shot relay along a path: node 0 launches a token, every
    /// inner node forwards it exactly once, the last node rejects on
    /// receipt. One lost hop kills the whole run — the most fragile
    /// protocol possible, and exactly what ARQ exists to repair.
    #[derive(Debug, Clone)]
    struct Relay {
        forwarded: bool,
        got: bool,
        done: bool,
    }

    impl Relay {
        fn new() -> Self {
            Relay {
                forwarded: false,
                got: false,
                done: false,
            }
        }
    }

    impl NodeAlgorithm for Relay {
        type Msg = u8;

        fn init(&mut self, ctx: &NodeContext, _rng: &mut ChaCha8Rng) -> Outbox<u8> {
            if ctx.index == 0 {
                self.done = true;
                vec![Outgoing::Unicast(0, 1)]
            } else {
                Vec::new()
            }
        }

        fn on_round(
            &mut self,
            ctx: &NodeContext,
            inbox: &Inbox<u8>,
            _rng: &mut ChaCha8Rng,
        ) -> Outbox<u8> {
            if self.done || inbox.is_empty() {
                return Vec::new();
            }
            self.done = true;
            // Path adjacency is sorted, so the port toward the higher
            // neighbor is the last one; a degree-1 non-zero node is the
            // end of the line.
            if ctx.degree() == 1 {
                self.got = true;
                Vec::new()
            } else {
                self.forwarded = true;
                vec![Outgoing::Unicast(1, 1)]
            }
        }

        fn halted(&self) -> bool {
            self.done
        }

        fn decision(&self) -> Decision {
            if self.got {
                Decision::Reject
            } else {
                Decision::Accept
            }
        }
    }

    #[test]
    fn reliable_recovers_relay_under_loss() {
        let n = 6;
        let g = generators::path(n);
        let loss = FaultSpec::IndependentLoss(0.3);
        // Bare run under 30% loss: the token must survive 5 independent
        // hops (P ≈ 0.17); verify this seed actually breaks it.
        let bare = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(8))
            .max_rounds(4 * n)
            .seed(5)
            .faults(loss.clone())
            .run(|_| Relay::new())
            .unwrap();
        assert!(
            !bare.network_rejects(),
            "seed 5 should break the bare run (got {:?})",
            bare.decisions
        );

        let cfg = ReliableConfig::default();
        let rel = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(cfg.required_bandwidth(8)))
            .max_rounds(cfg.physical_rounds(2 * n))
            .seed(5)
            .faults(loss)
            .reliable_config(cfg)
            .run(|_| Relay::new())
            .unwrap();
        assert!(
            rel.network_rejects(),
            "reliable transport should repair the relay: {}",
            rel.faults.summary()
        );
        assert!(rel.faults.retransmissions > 0);
        assert!(rel.completed, "all nodes should halt once the token lands");
        // The per-round series is aligned with the executed rounds and sums
        // back to the run total.
        assert_eq!(rel.faults.retransmissions_per_round.len(), rel.stats.rounds);
        assert_eq!(
            rel.faults.retransmissions_per_round.iter().sum::<u64>(),
            rel.faults.retransmissions
        );
        // So does the per-link series (CSR directed-edge order).
        assert_eq!(rel.faults.retransmissions_per_link.len(), 2 * (n - 1));
        assert_eq!(
            rel.faults.retransmissions_per_link.iter().sum::<u64>(),
            rel.faults.retransmissions
        );
    }

    #[test]
    fn reliable_survives_corruption() {
        let n = 4;
        let g = generators::path(n);
        let cfg = ReliableConfig::default();
        // Corrupt 30% of frames: checksums catch them, retransmits repair.
        let (rel, nodes) = gossip_sim(&g, cfg, n)
            .seed(2)
            .faults(FaultSpec::BitFlip(0.3))
            .run_with_nodes(|_| Gossip::new(n))
            .unwrap();
        assert!(rel.network_rejects(), "{}", rel.faults.summary());
        assert!(nodes.iter().all(|nd| nd.heard.len() == n));
        assert!(rel.faults.corrupted > 0, "{}", rel.faults.summary());
        assert!(rel.faults.retransmissions > 0);
    }

    #[test]
    fn reliable_run_is_seed_deterministic() {
        let n = 5;
        let g = generators::path(n);
        let cfg = ReliableConfig::default();
        let run = || {
            gossip_sim(&g, cfg, n)
                .seed(77)
                .faults(FaultSpec::IndependentLoss(0.25))
                .run(|_| Gossip::new(n))
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.stats.total_bits, b.stats.total_bits);
    }

    #[test]
    fn backoff_tallies_fire_under_heavy_loss() {
        let n = 5;
        let g = generators::path(n);
        let cfg = ReliableConfig::default();
        let rel = gossip_sim(&g, cfg, n)
            .seed(12)
            .faults(FaultSpec::IndependentLoss(0.6))
            .run(|_| Gossip::new(n))
            .unwrap();
        assert!(rel.faults.retransmissions > 0);
        assert!(
            rel.faults.backoff_events > 0,
            "60% loss should force third-or-later attempts: {}",
            rel.faults.summary()
        );
    }

    #[test]
    fn rmsg_bit_sizes_are_exact() {
        let data: RMsg<u64> = RMsg::Data {
            seq: 1,
            check: 0,
            fin: false,
            payload: Arc::new(vec![7, 8]),
        };
        assert_eq!(data.bit_size(), DATA_HEADER_BITS + 128);
        let ack: RMsg<u64> = RMsg::Ack {
            cum: 1,
            sack: 0,
            check: 0,
        };
        assert_eq!(ack.bit_size(), ACK_BITS);
    }

    #[test]
    fn retransmissions_reuse_the_queued_bundle() {
        // The send pass must charge the cached frame size and re-send the
        // same payload allocation — a retransmission is an Arc bump, never
        // a deep copy or a second payload walk.
        let mut rel = Reliable::new(Gossip::new(2), ReliableConfig::default());
        rel.send = vec![SendLink::new(2)];
        rel.recv = vec![RecvLink::new()];
        rel.retrans_per_port = vec![0];
        rel.queue(vec![Outgoing::Unicast(0, vec![1u64, 2, 3])], 1, false);
        let f = &rel.send[0].frames[0];
        assert_eq!(f.bits, DATA_HEADER_BITS + payload_bits(&f.payload));
        let queued = Arc::clone(&f.payload);
        let mut first = Vec::new();
        rel.pump(0, &mut first);
        let mut second = Vec::new();
        rel.pump(100, &mut second); // well past the RTO: forces a retransmit
        assert_eq!(rel.retransmissions, 1);
        let sent = |out: &Outbox<RMsg<Vec<u64>>>| match &out[0] {
            Outgoing::Unicast(0, RMsg::Data { payload, .. }) => Arc::clone(payload),
            other => panic!("expected a data frame on port 0, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&queued, &sent(&first)));
        assert!(Arc::ptr_eq(&queued, &sent(&second)));
    }

    #[test]
    fn corrupted_frames_fail_their_checksums() {
        let payload = vec![1u64, 2, 3];
        let check = data_check(4, false, &payload);
        for bit in [0, 9, 33, 48] {
            let mut msg: RMsg<u64> = RMsg::Data {
                seq: 4,
                check,
                fin: false,
                payload: Arc::new(payload.clone()),
            };
            assert!(msg.corrupt_bit(bit));
            match msg {
                RMsg::Data {
                    seq,
                    check,
                    fin,
                    payload,
                } => assert_ne!(
                    check,
                    data_check(seq, fin, &payload),
                    "flip of bit {bit} must be detected"
                ),
                _ => unreachable!(),
            }
        }
        for bit in [0, 35, 50] {
            let mut ack: RMsg<u64> = RMsg::Ack {
                cum: 9,
                sack: 0b101,
                check: ack_check(9, 0b101),
            };
            assert!(ack.corrupt_bit(bit));
            match ack {
                RMsg::Ack { cum, sack, check } => assert_ne!(
                    check,
                    ack_check(cum, sack),
                    "ack flip of bit {bit} must be detected"
                ),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_tunings() {
        assert!(ReliableConfig::default().validate().is_ok());
        let bad = [
            ReliableConfig {
                window: 0,
                ack_timeout: 2,
                max_retries: 4,
            },
            ReliableConfig {
                window: MAX_WINDOW + 1,
                ack_timeout: 2,
                max_retries: 4,
            },
            ReliableConfig {
                window: 8,
                ack_timeout: 0,
                max_retries: 4,
            },
            ReliableConfig {
                window: 8,
                ack_timeout: 2,
                max_retries: 0,
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} should be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "invalid ReliableConfig")]
    fn constructor_panics_on_zero_window() {
        let _ = ReliableConfig::new(0, 2, 4);
    }
}
