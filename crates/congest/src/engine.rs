//! The synchronous sharded round engine.
//!
//! Drives a [`NodeAlgorithm`] over a topology, enforcing the CONGEST
//! bandwidth bound per directed edge per round and recording exact traffic
//! statistics. Nodes are partitioned into contiguous *shards*, each owning
//! its own staging arena and inbox slab, so the send sweep (bandwidth
//! accounting and staging in one outbox drain), delivery, and the node
//! step all run shard-parallel over the rayon pool with zero cross-shard
//! locking (see the private `Shard` struct for the layout and the
//! determinism argument).
//!
//! Instrumentation flows through the [`Collector`] trait
//! (see [`crate::obsv`]): with no collector installed, no event values are
//! even built. All events are buffered per shard and drained from
//! sequential code in shard (= node) order, so a collector observes an
//! identical stream at any thread count and any shard count. With a
//! collector installed the engine also assigns every message a run-unique
//! `msg_id` (in node order, at accounting time) and stamps each send with
//! the ids delivered to its sender one round earlier — the causal
//! provenance that makes the trace a happens-before DAG (see
//! [`crate::obsv::collect`]). An optional
//! [`Profiler`](crate::obsv::Profiler) adds wall-clock spans around the
//! round body (send sweep plus delivery) and the compute section; with
//! none installed each section costs one branch per round.
//!
//! The engine itself is crate-private: the [`Simulation`](crate::Simulation)
//! builder is the one way to configure and run it, and it returns the
//! unified [`Outcome`].

use crate::error::SimError;
use crate::faults::{Delivery, DeliveryCtx, FaultReport, Faults};
use crate::message::BitSize;
use crate::node::{reuse_view, NodeAlgorithm, NodeContext, Outbox, Outgoing};
use crate::obsv::collect::{Collector, SimEvent};
use crate::obsv::metrics::MetricsSnapshot;
use crate::obsv::profile::{prof_record, prof_start, Section};
use crate::simulation::{Outcome, SimConfig};
use crate::stats::RunStats;
use graphlib::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::sync::{Arc, Mutex};

/// One shard of the sharded round engine: a contiguous node range with its
/// own staging arenas, routing buffers, tallies, and event buffers, reused
/// across rounds.
///
/// Nodes are partitioned into `S` contiguous ranges (`starts[k] = k·n/S`),
/// so a shard also owns a contiguous band of receiver-side directed-edge
/// slots (`offsets[start]..offsets[end]` — the CSR offsets are monotone).
/// The send sweep, delivery, and the node step each run one job per shard
/// with zero cross-shard locking; the only data crossing a shard boundary are the
/// per-`(src, dst)` mailboxes, which the destination shard merges in source
/// shard order.
///
/// Why sharding is invisible in the output: a receiver-side slot identifies
/// exactly one sender (one directed edge), and that sender lives in exactly
/// one shard, so every slot bucket lists that sender's messages in outbox
/// order no matter how mailboxes were concatenated. Fault randomness is a
/// pure function of absolute [`DeliveryCtx`] coordinates, per-node RNG
/// streams depend only on `(seed, node)`, and all tallies/events are
/// reduced sequentially in shard (= node) order. Decisions, stats, fault
/// streams, and traces are therefore byte-identical at any shard count and
/// any thread count.
///
/// Every message of a round is stored once, by value, until the next
/// round's send sweep: a broadcast in its sender's staging list, a unicast
/// in the `unicasts` arena of its receiver's shard, and a fault-damaged
/// copy in the receiver shard's `damaged` arena. Delivery writes only
/// `(port, `[`Src`]`)` index pairs into the inbox slab (see [`Routing`]);
/// the step job resolves each receiver's window into a `(port, &M)` view
/// over those arenas, which nothing writes while nodes compute. So a
/// delivery costs no clone, no reference count and no allocation, and the
/// borrow checker, not a reference count, keeps a view from outliving its
/// round.
struct Shard<M: 'static> {
    /// First node of the range.
    start: u32,
    /// One past the last node of the range.
    end: u32,
    /// First receiver-side slot of the range (`offsets[start]`); all slot
    /// indices below are relative to it.
    slot_base: u32,
    /// The routing arrays and inbox slab, borrowed from the run's
    /// [`EnginePlan`] and handed back when the run ends.
    route: Routing,
    /// Staged unicasts addressed to this shard, concatenated in source
    /// shard order: `(sender outbox index, payload)`.
    unicasts: Vec<(u32, M)>,
    /// Shard-relative receiver slot of each staged unicast, parallel to
    /// `unicasts`.
    slots: Vec<u32>,
    /// Copies a fault corrupted this round, one per damaged delivery.
    damaged: Vec<M>,
    /// The step job's inbox view, emptied between nodes; kept here (typed
    /// for no live borrow) only so its allocation is reused every round.
    view: Vec<(u32, &'static M)>,
    /// This round's deliveries to the shard's receivers, indexed by
    /// [`Fate`]: delivered, dropped, corrupted.
    tally: [u64; 3],
    /// Delivery events buffered in local receiver order; drained
    /// sequentially in shard order (= node order) after the parallel pass.
    events: Vec<SimEvent>,
    /// Ids delivered to each local node last round (provenance-tracing
    /// only) — the `deps` set of its sends this round.
    prev_ids: Vec<Vec<u64>>,
    /// Ids delivered this round (provenance-tracing only); swapped into
    /// `prev_ids` at the end of the delivery pass.
    cur_ids: Vec<Vec<u64>>,
    /// Accounting scratch: per-port *unicast* bit sums of the sender being
    /// accounted, in `u64` words. Broadcast bits are batched separately in
    /// a single scalar accumulator (every port carries the same broadcast
    /// load), so a broadcast-only sender never touches this array at all.
    port_bits: Vec<u64>,
    /// `Send` events buffered during shard-parallel accounting.
    acct_events: Vec<SimEvent>,
    /// Accounting tallies, merged sequentially after the parallel pass.
    acct_bits: u64,
    acct_msgs: u64,
    acct_max: usize,
    /// First error this shard's accounting hit (the merge keeps only the
    /// lowest shard's, which is the lowest node's).
    acct_err: Option<SimError>,
}

/// Where a delivered message is stored for the rest of its round.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// `broadcasts[sender][i]`: one copy shared by all its receivers.
    Broadcast(u32, u32),
    /// `unicasts[i]` of the receiver's shard.
    Unicast(u32),
    /// `damaged[i]` of the receiver's shard.
    Damaged(u32),
}

/// One shard's inbox slab: `(port, source)` pairs, receiver by receiver.
type Slab = Vec<(u32, Src)>;

/// A sender's staged broadcasts this round: `(outbox index, message)`.
type Broadcasts<M> = Vec<(u32, M)>;

/// A unicast crossing (or staying inside) a shard boundary: `(receiver,
/// receiver-side absolute slot, sender outbox index, payload)`. Payloads
/// move through the mailbox — they are never cloned.
type Mail<M> = Vec<(u32, u32, u32, M)>;

/// One shard's routing buffers, which depend only on the plan's shard
/// layout and not on the message type, so [`EnginePlan`] keeps them
/// between runs.
///
/// Unicasts are bucketed by shard-relative receiver slot with a counting
/// sort into a flat CSR index whose descriptors are *epoch-stamped*: slots
/// untouched this round are never visited, not even to be zeroed. The
/// epoch travels with the stamps from run to run; restarting it would let
/// a stamp left by an earlier run pass for a live bucket. The inbox is one
/// slab per shard (`inbox` plus per-node bounds), so a round allocates
/// nothing per receiver in steady state.
#[derive(Debug)]
struct Routing {
    /// Per-slot bucket start into `order`, valid only when the slot's
    /// epoch stamp is current.
    slot_start: Vec<u32>,
    /// Per-slot bucket length (same validity rule).
    slot_len: Vec<u32>,
    /// Scatter cursor scratch (same validity rule).
    slot_cursor: Vec<u32>,
    /// Round stamp of each slot's bucket descriptor.
    slot_epoch: Vec<u64>,
    /// Slots touched this round, deduplicated in first-touch order.
    touched: Vec<u32>,
    /// Indices into `unicasts`, bucketed by slot; the counting sort is
    /// stable, so outbox order is preserved within each bucket.
    order: Vec<u32>,
    /// Round stamp per local receiver: current iff some staged message is
    /// addressed to it, letting delivery skip idle receivers without
    /// scanning their ports.
    active: Vec<u64>,
    /// Current round stamp (bumped once per delivery pass, never reset).
    epoch: u64,
    /// Every local receiver's `(port, source)` pairs for this round, back
    /// to back.
    inbox: Slab,
    /// Per local node `(start, end)` window into `inbox`. Written for
    /// every node each round before the step reads it.
    inbox_bounds: Vec<(u32, u32)>,
}

impl Routing {
    fn new(nodes: usize, nslots: usize) -> Self {
        Routing {
            slot_start: vec![0; nslots],
            slot_len: vec![0; nslots],
            slot_cursor: vec![0; nslots],
            slot_epoch: vec![0; nslots],
            touched: Vec::new(),
            order: Vec::new(),
            active: vec![0; nodes],
            epoch: 0,
            inbox: Vec::new(),
            inbox_bounds: vec![(0, 0); nodes],
        }
    }

    /// Counting sort of one shard's staged unicasts by shard-relative
    /// receiver slot, stamped with the current epoch: bucket sizes on first
    /// touch, one contiguous region per touched slot, then a stable
    /// scatter. O(staged messages) — untouched slots are never visited
    /// (not even to be zeroed) thanks to the epoch stamps.
    fn index_slots(&mut self, slots: &[u32]) {
        let epoch = self.epoch;
        self.touched.clear();
        for &s in slots {
            let s = s as usize;
            if self.slot_epoch[s] != epoch {
                self.slot_epoch[s] = epoch;
                self.slot_len[s] = 0;
                self.touched.push(s as u32);
            }
            self.slot_len[s] += 1;
        }
        let mut cum = 0u32;
        for &s in self.touched.iter() {
            let s = s as usize;
            self.slot_start[s] = cum;
            self.slot_cursor[s] = cum;
            cum += self.slot_len[s];
        }
        self.order.resize(slots.len(), 0);
        for (i, &s) in slots.iter().enumerate() {
            let c = &mut self.slot_cursor[s as usize];
            self.order[*c as usize] = i as u32;
            *c += 1;
        }
    }
}

impl<M> Shard<M> {
    fn new(start: u32, end: u32, slot_base: u32, route: Routing, provenance: bool) -> Self {
        let len = (end - start) as usize;
        Shard {
            start,
            end,
            slot_base,
            route,
            unicasts: Vec::new(),
            slots: Vec::new(),
            damaged: Vec::new(),
            view: Vec::new(),
            tally: [0; 3],
            events: Vec::new(),
            prev_ids: if provenance {
                vec![Vec::new(); len]
            } else {
                Vec::new()
            },
            cur_ids: if provenance {
                vec![Vec::new(); len]
            } else {
                Vec::new()
            },
            port_bits: Vec::new(),
            acct_events: Vec::new(),
            acct_bits: 0,
            acct_msgs: 0,
            acct_max: 0,
            acct_err: None,
        }
    }
}

/// The message `src` names, in the arenas of the round being stepped.
#[inline]
fn resolve<'r, M>(
    src: Src,
    broadcasts: &'r [Broadcasts<M>],
    unicasts: &'r [(u32, M)],
    damaged: &'r [M],
) -> &'r M {
    match src {
        Src::Broadcast(u, i) => &broadcasts[u as usize][i as usize].1,
        Src::Unicast(i) => &unicasts[i as usize].1,
        Src::Damaged(i) => &damaged[i as usize],
    }
}

/// Which shard owns node `v`, given the `S + 1` ascending shard boundaries.
#[inline]
fn shard_of(starts: &[u32], v: u32) -> usize {
    starts.partition_point(|&s| s <= v) - 1
}

/// Splits `data` into consecutive per-shard windows delimited by `bounds`
/// (ascending, `bounds[0] = 0`, last entry = `data.len()`), so each shard
/// job owns a disjoint `&mut` view of a global per-node or per-slot array.
fn split_by_bounds<'a, T>(mut data: &'a mut [T], bounds: &[u32]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    for w in bounds.windows(2) {
        let (head, tail) = data.split_at_mut((w[1] - w[0]) as usize);
        out.push(head);
        data = tail;
    }
    out
}

/// The staged unicasts addressed to shard-relative slot `rel_slot`, as
/// indices into the shard's `unicasts` arena, in sender outbox order.
#[inline]
fn bucket<'a>(
    epoch: u64,
    rel_slot: usize,
    slot_epoch: &[u64],
    slot_start: &[u32],
    slot_len: &[u32],
    order: &'a [u32],
) -> &'a [u32] {
    if slot_epoch[rel_slot] != epoch {
        return &[];
    }
    let start = slot_start[rel_slot] as usize;
    &order[start..start + slot_len[rel_slot] as usize]
}

/// What one delivery came to once the fault verdict is applied: it indexes
/// a shard's tallies and names the delivery's event.
#[derive(Clone, Copy)]
enum Fate {
    Delivered,
    Dropped,
    Corrupted,
}

impl Fate {
    fn event(
        self,
        round: usize,
        from: usize,
        to: usize,
        port: usize,
        bits: usize,
        msg_id: u64,
    ) -> SimEvent {
        match self {
            Fate::Delivered => SimEvent::Deliver {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            },
            Fate::Dropped => SimEvent::Drop {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            },
            Fate::Corrupted => SimEvent::Corrupt {
                round,
                from,
                to,
                port,
                bits,
                msg_id,
            },
        }
    }
}

/// Merges one destination shard's incoming mailboxes (in source shard
/// order), adjudicates every delivery through the run's fault plan (none
/// when the plan is empty), and fills the shard's inbox slab with
/// `(port, source)` pairs. Sequential within the shard; the engine runs one
/// such job per shard in parallel. Every [`DeliveryCtx`] field is absolute
/// (node indices, ports, link slots), so the fault stream is independent of
/// both the shard count and the thread count. No message is cloned except a
/// copy a fault damages.
#[allow(clippy::too_many_arguments)]
fn deliver_shard<M: BitSize + Clone>(
    shard: &mut Shard<M>,
    mail_col: &mut [Mail<M>],
    g: &Graph,
    offsets: &[u32],
    rev_port: &[u32],
    broadcasts: &[Broadcasts<M>],
    bcasters: &[Vec<u32>],
    faults: &Faults,
    crashed: &[Option<usize>],
    id_base: &[u64],
    tracing: bool,
    provenance: bool,
    round: usize,
) {
    let clean = faults.is_empty();
    shard.route.epoch += 1;
    let ep = shard.route.epoch;
    let (start, end, slot_base) = (shard.start, shard.end, shard.slot_base);
    shard.unicasts.clear();
    shard.slots.clear();
    shard.damaged.clear();
    shard.route.inbox.clear();
    shard.tally = [0; 3];
    shard.events.clear();
    // Concatenate the incoming mailboxes in source shard order. Each slot's
    // bucket still ends up in that (single) sender's outbox order, so the
    // concatenation order never shows in the output.
    for col in mail_col.iter_mut() {
        for (to, slot, obx, payload) in col.drain(..) {
            shard.route.active[(to - start) as usize] = ep;
            shard.slots.push(slot - slot_base);
            shard.unicasts.push((obx, payload));
        }
    }
    // Broadcast receiver activity: a sender's neighbors inside this shard
    // form one contiguous run of its sorted adjacency list.
    for list in bcasters {
        for &u in list {
            let nbrs = g.neighbors(u as usize);
            let lo = nbrs.partition_point(|&x| x < start);
            let hi = nbrs.partition_point(|&x| x < end);
            for &v in &nbrs[lo..hi] {
                shard.route.active[(v - start) as usize] = ep;
            }
        }
    }
    shard.route.index_slots(&shard.slots);
    // Per-receiver merge, identical logic (and byte-identical outcomes) to
    // the pre-sharding router: each port's unicast bucket is interleaved
    // with the sending neighbor's broadcast list by sender outbox index, so
    // a receiver sees sends in exactly the order the sender produced them.
    let Shard {
        route,
        unicasts,
        damaged,
        tally,
        events,
        prev_ids,
        cur_ids,
        ..
    } = shard;
    let Routing {
        slot_start,
        slot_len,
        slot_epoch,
        order,
        active,
        inbox,
        inbox_bounds,
        ..
    } = route;
    for local in 0..(end - start) as usize {
        let v = start as usize + local;
        let bstart = inbox.len() as u32;
        if provenance {
            cur_ids[local].clear();
        }
        if active[local] == ep {
            let receiver_down = crashed[v].is_some();
            for (p, &u) in g.neighbors(v).iter().enumerate() {
                let rel_slot = (offsets[v] - slot_base) as usize + p;
                let uni = bucket(ep, rel_slot, slot_epoch, slot_start, slot_len, order);
                let bcs: &[(u32, M)] = &broadcasts[u as usize];
                if uni.is_empty() && bcs.is_empty() {
                    continue;
                }
                let their_port = rev_port[offsets[v] as usize + p] as usize;
                let (mut i, mut j) = (0usize, 0usize);
                while i < uni.len() || j < bcs.len() {
                    let from_uni = match (uni.get(i), bcs.get(j)) {
                        (Some(&ui), Some(&(bidx, _))) => unicasts[ui as usize].0 < bidx,
                        (Some(_), None) => true,
                        _ => false,
                    };
                    let (idx, m, src) = if from_uni {
                        let (idx, ref m) = unicasts[uni[i] as usize];
                        let src = Src::Unicast(uni[i]);
                        i += 1;
                        (idx, m, src)
                    } else {
                        let (idx, ref m) = bcs[j];
                        let src = Src::Broadcast(u, j as u32);
                        j += 1;
                        (idx, m, src)
                    };
                    let u = u as usize;
                    // The id the accounting pass assigned this outbox entry
                    // (only meaningful when tracing; `id_base` is empty
                    // otherwise).
                    let msg_id = if tracing { id_base[u] + idx as u64 } else { 0 };
                    // Messages to a crashed node are lost, and the loss is
                    // an event like any other drop. An empty plan is never
                    // asked.
                    let verdict = if receiver_down {
                        Delivery::Drop
                    } else if clean {
                        Delivery::Deliver
                    } else {
                        faults.delivery(&DeliveryCtx {
                            round,
                            from: u,
                            to: v,
                            to_port: p,
                            link_slot: offsets[u] as usize + their_port,
                            msg_index: idx as usize,
                        })
                    };
                    let (fate, entry) = match verdict {
                        Delivery::Deliver => (Fate::Delivered, Some(src)),
                        Delivery::Drop => (Fate::Dropped, None),
                        Delivery::Corrupt(bit) => {
                            // The one copy delivery makes: the damaged
                            // bits reach this receiver alone, while every
                            // other receiver of a broadcast still reads
                            // the sender's pristine message. A payload with
                            // no materialized wire bits to flip is
                            // delivered intact.
                            let mut copy = m.clone();
                            if copy.corrupt_bit(bit) {
                                damaged.push(copy);
                                let at = Src::Damaged(damaged.len() as u32 - 1);
                                (Fate::Corrupted, Some(at))
                            } else {
                                (Fate::Delivered, Some(src))
                            }
                        }
                    };
                    tally[fate as usize] += 1;
                    if let Some(entry) = entry {
                        inbox.push((p as u32, entry));
                        // Corrupted payloads reach the algorithm too, so
                        // they enter the receiver's causal deps.
                        if provenance {
                            cur_ids[local].push(msg_id);
                        }
                    }
                    if tracing {
                        events.push(fate.event(round, u, v, p, m.bit_size(), msg_id));
                    }
                }
            }
        }
        inbox_bounds[local] = (bstart, inbox.len() as u32);
        if provenance {
            // This round's deliveries become the node's deps next round.
            std::mem::swap(&mut prev_ids[local], &mut cur_ids[local]);
        }
    }
}

/// Per-edge-per-round bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bandwidth {
    /// CONGEST with `B` bits per directed edge per round.
    Bits(usize),
    /// The LOCAL model: unbounded messages (traffic is still counted).
    Unbounded,
}

impl Bandwidth {
    /// The standard `B = Θ(log n)` setting (exactly `ceil(log2 n)`, min 1).
    pub fn log_of(n: usize) -> Bandwidth {
        Bandwidth::Bits(crate::message::bits_for_domain(n.max(2)))
    }
}

/// Staged, topology-only routing state: everything a run would otherwise
/// recompute that depends only on `(graph, shards knob)`.
/// [`Prepared`](crate::Prepared) builds one and replays it across a batch;
/// a plan built for a one-shot run is bit-for-bit the same, so staging
/// never changes results.
#[derive(Debug)]
pub(crate) struct EnginePlan {
    /// Shard boundaries: `starts[k] = k·n/S`, length `S + 1`.
    pub(crate) starts: Vec<u32>,
    /// Reverse-port table: `rev_port[slot(v, p)]` is the port of `v` in the
    /// adjacency list of `v`'s `p`-th neighbor (unicast routing).
    pub(crate) rev_port: Vec<u32>,
    /// The routing buffers of a finished run, one [`Routing`] per shard,
    /// emptied. The next run on this plan takes them, whatever its message
    /// type, so a batch of runs on a prepared topology allocates its
    /// O(slots) routing arrays and grows its largest inbox slab once
    /// instead of once per run, and its peak memory does not depend on
    /// where the allocator can fit them run after run.
    routing: Mutex<Option<Vec<Routing>>>,
}

impl EnginePlan {
    /// Builds the plan for `g`. A `shards` knob of `0` uses one shard per
    /// rayon worker thread; any value is clamped to `1..=n`.
    pub(crate) fn build(g: &Graph, shards: usize) -> Self {
        let n = g.n();
        let nshards = if shards == 0 {
            rayon::current_num_threads().clamp(1, n.max(1))
        } else {
            shards.clamp(1, n.max(1))
        };
        let starts: Vec<u32> = (0..=nshards).map(|k| (k * n / nshards) as u32).collect();
        let rev_port: Vec<u32> = (0..n)
            .into_par_iter()
            .flat_map_iter(|v| {
                g.neighbors(v).iter().map(move |&u| {
                    g.neighbors(u as usize)
                        .binary_search(&(v as u32))
                        .expect("undirected adjacency must be symmetric") as u32
                })
            })
            .collect();
        EnginePlan {
            starts,
            rev_port,
            routing: Mutex::new(None),
        }
    }

    /// The shard count the plan was built for.
    pub(crate) fn nshards(&self) -> usize {
        self.starts.len() - 1
    }

    /// One [`Routing`] per shard: the ones a finished run handed back,
    /// else new ones for shard slot bands `slot_bounds[k]..slot_bounds[k + 1]`.
    fn take_routing(&self, slot_bounds: &[u32]) -> Vec<Routing> {
        let kept = self
            .routing
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        kept.unwrap_or_else(|| {
            (0..self.nshards())
                .map(|k| {
                    Routing::new(
                        (self.starts[k + 1] - self.starts[k]) as usize,
                        (slot_bounds[k + 1] - slot_bounds[k]) as usize,
                    )
                })
                .collect()
        })
    }

    /// Hands a finished run's routing buffers back, emptied, unless a
    /// concurrent run already did. Their epochs and stamps go with them.
    fn return_routing(&self, mut routing: Vec<Routing>) {
        for r in &mut routing {
            r.inbox.clear();
        }
        let mut kept = self.routing.lock().unwrap_or_else(|e| e.into_inner());
        kept.get_or_insert(routing);
    }
}

/// One CONGEST run: the topology, its routing plan, and the run's
/// [`SimConfig`] with its defaults resolved. Built by the
/// [`Simulation`](crate::Simulation) builder, once per run.
pub(crate) struct Engine<'a> {
    topology: &'a Graph,
    plan: &'a EnginePlan,
    /// The run's configuration, read directly; seed, faults, ids, shards,
    /// early termination, broadcast-only mode and the profiler all come
    /// from here.
    pub(crate) cfg: &'a SimConfig,
    /// The per-edge bound: the configured one, else `Θ(log n)`.
    pub(crate) bandwidth: Bandwidth,
    /// The round cap: the configured one, else `16 (n + 2)²`.
    max_rounds: usize,
    /// Every installed sink (user collector, flight recorder) behind one
    /// handle; `None` means no event is even built.
    pub(crate) collector: Option<Arc<dyn Collector>>,
}

impl<'a> Engine<'a> {
    /// Resolves the run's defaults against `topology`. The caller
    /// guarantees `plan` was built by [`EnginePlan::build`] for this
    /// topology and `cfg`'s shard knob, and that `cfg` passed validation.
    pub(crate) fn new(
        topology: &'a Graph,
        plan: &'a EnginePlan,
        cfg: &'a SimConfig,
        collector: Option<Arc<dyn Collector>>,
    ) -> Self {
        let n = topology.n();
        Engine {
            topology,
            plan,
            cfg,
            bandwidth: cfg.bandwidth.unwrap_or_else(|| Bandwidth::log_of(n)),
            max_rounds: cfg.max_rounds.unwrap_or(16 * (n + 2) * (n + 2)),
            collector,
        }
    }

    /// The round loop. Node `v`'s identifier is `cfg.ids[v]`, or `v` when
    /// no assignment was configured.
    pub(crate) fn run<A, F>(&self, make: F) -> Result<(Outcome, Vec<A>), SimError>
    where
        A: NodeAlgorithm,
        F: Fn(usize) -> A + Sync,
    {
        let g = self.topology;
        let n = g.n();
        let cfg = self.cfg;
        let mut stats = RunStats::new(g);
        let collector = self.collector.as_deref();
        let tracing = collector.is_some();
        // Provenance (per-send `deps` sets) is the expensive half of
        // tracing: per-delivery id bookkeeping plus one `Arc<[u64]>` per
        // active sender per round. Bounded streaming collectors (the
        // flight recorder) decline it, so sends then carry this one shared
        // empty set while ids and every event keep flowing.
        let provenance = collector.is_some_and(Collector::wants_provenance);
        let empty_deps: Arc<[u64]> = Arc::from([]);
        let rec = |ev: SimEvent| {
            if let Some(c) = collector {
                c.record(&ev);
            }
        };

        // Shard layout + reverse-port table (see [`EnginePlan`]). Any shard
        // count is observationally identical (see [`Shard`]); it only
        // changes the parallel grain.
        let plan = self.plan;
        let nshards = plan.nshards();
        let starts: &[u32] = &plan.starts;
        let rev_port: &[u32] = &plan.rev_port;

        let id = |v: usize| cfg.ids.as_deref().map_or(v as u64, |ids| ids[v]);
        let mut contexts: Vec<NodeContext> = (0..n)
            .map(|v| NodeContext {
                index: v,
                id: id(v),
                neighbor_ids: g.neighbors(v).iter().map(|&u| id(u as usize)).collect(),
                n,
                round: 0,
            })
            .collect();

        let mut rngs: Vec<ChaCha8Rng> = (0..n)
            .map(|v| {
                let mut seeder = ChaCha8Rng::seed_from_u64(cfg.seed);
                let salt: u64 = seeder.gen::<u64>() ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15);
                ChaCha8Rng::seed_from_u64(salt)
            })
            .collect();

        let mut nodes: Vec<A> = (0..n).map(&make).collect();

        // One fault plan per run: the Gilbert–Elliott chains and the crash
        // schedule derive everything from (topology, seed).
        let mut faults = cfg.faults.compile(g, cfg.seed);
        let mut report = FaultReport::default();
        // crashed[v] = round v crashed at; crash-stop, so never cleared.
        let mut crashed: Vec<Option<usize>> = vec![None; n];

        let prof = cfg.profiler.as_deref();

        // Run header so the trace is self-describing (the invariant
        // checker reads the bandwidth bound and node count from it).
        if tracing {
            rec(SimEvent::Meta {
                n,
                bandwidth_bits: match self.bandwidth {
                    Bandwidth::Bits(b) => b,
                    Bandwidth::Unbounded => 0,
                },
                seed: cfg.seed,
            });
        }

        // Round 0: init.
        let t_init = prof_start(prof);
        let mut outboxes: Vec<Outbox<A::Msg>> = nodes
            .par_iter_mut()
            .zip(contexts.par_iter())
            .zip(rngs.par_iter_mut())
            .map(|((node, ctx), rng)| node.init(ctx, rng))
            .collect();
        prof_record(prof, Section::Compute, t_init);

        let mut completed = nodes.iter().all(|nd| nd.halted());

        // Per-shard state, allocated once and reused (cleared in place)
        // every round, so steady-state rounds do not allocate; the routing
        // buffers come from the plan and go back to it at the end, so the
        // next run on a prepared plan reuses them too. Each shard owns its
        // slot band's routing arrays, its node range's inbox slab, its
        // message arenas, tallies, and event buffers. The mailbox matrix
        // and its transpose scratch swap Vec headers every round, so
        // mailbox capacity survives the transpose too.
        let slot_bounds: Vec<u32> = starts.iter().map(|&s| stats.offsets[s as usize]).collect();
        let mut shards: Vec<Shard<A::Msg>> = plan
            .take_routing(&slot_bounds)
            .into_iter()
            .enumerate()
            .map(|(k, route)| {
                Shard::new(starts[k], starts[k + 1], slot_bounds[k], route, provenance)
            })
            .collect();
        let mut mail: Vec<Vec<Mail<A::Msg>>> = (0..nshards)
            .map(|_| (0..nshards).map(|_| Vec::new()).collect())
            .collect();
        let mut mail_t: Vec<Vec<Mail<A::Msg>>> = (0..nshards)
            .map(|_| (0..nshards).map(|_| Vec::new()).collect())
            .collect();
        let mut broadcasts: Vec<Broadcasts<A::Msg>> = (0..n).map(|_| Vec::new()).collect();
        let mut bcasters: Vec<Vec<u32>> = (0..nshards).map(|_| Vec::new()).collect();
        let mut staged_counts: Vec<usize> = vec![0; nshards];
        let mut refill_counts: Vec<usize> = vec![0; nshards];

        // Causal provenance (tracing only): every outbox entry gets a
        // run-unique id at accounting time, in node order, and each shard's
        // `prev_ids` holds the ids that reached its nodes' inboxes last
        // round — the `deps` sets stamped on their sends this round.
        let mut next_msg_id: u64 = 0;
        let mut id_base: Vec<u64> = Vec::new();

        // Amortized quiescence-scan cursor: the node that blocked the last
        // early-termination attempt. Schedule-driven algorithms keep the
        // same node non-quiescent across long idle stretches, so probing it
        // first turns the usual failed check into O(1); only the final,
        // successful check (and the rare blocker hand-offs) pay O(n). The
        // break condition "every live node quiescent" is scan-order
        // independent, so the cut round is unchanged.
        let mut et_cursor = 0usize;
        // True while the inbox slabs are known-empty (set by an idle
        // round's reset, invalidated by any delivery), so back-to-back
        // idle rounds skip the O(slots) reset.
        let mut inboxes_clear = false;
        // Number of nonempty outboxes, maintained incrementally (init
        // fills, the send sweep drains, `on_round` refills, a crash
        // discards), so the per-round all-idle test is O(1) instead of an
        // O(n) header scan — and an all-idle round can skip the send
        // sweep entirely.
        let mut outbox_nonempty: usize = outboxes.iter().filter(|o| !o.is_empty()).count();
        for round in 1..=self.max_rounds {
            if outbox_nonempty == 0 {
                if completed {
                    break;
                }
                // Causal early termination: nothing is in flight and every
                // live node is quiescent, so every remaining round would
                // deliver nothing and change nothing — skip them. Checked
                // only on all-idle rounds, so the scan runs exactly where
                // it can pay for itself. Every decision is final, so the
                // run completed: it is not cut by the round limit.
                if cfg.early_termination {
                    let blocker = (et_cursor..n)
                        .chain(0..et_cursor)
                        .find(|&v| crashed[v].is_none() && !nodes[v].quiescent());
                    match blocker {
                        None => {
                            completed = true;
                            break;
                        }
                        Some(v) => et_cursor = v,
                    }
                }
            }
            rec(SimEvent::RoundStart { round });

            // Single-threaded fault bookkeeping: advance the plan's
            // per-round state, then apply this round's crashes. A node
            // crashing in round r sends nothing from round r on — its
            // pending outbox (produced at the end of round r-1) is
            // discarded before accounting, so crashed nodes are charged no
            // bits.
            faults.begin_round(round);
            for v in faults.crashes(round) {
                crashed[v] = Some(round);
                if !outboxes[v].is_empty() {
                    outbox_nonempty -= 1;
                }
                outboxes[v].clear();
                report.crashed.push((v, round));
                rec(SimEvent::Crash { round, node: v });
            }

            // Assign this round's message ids: one per outbox entry (a
            // broadcast gets one id even though it costs every port), in
            // node order, so the id sequence is schedule-independent.
            if tracing {
                id_base.clear();
                let mut next = next_msg_id;
                for ob in &outboxes {
                    id_base.push(next);
                    next += ob.len() as u64;
                }
                next_msg_id = next;
            }

            // The send sweep: account traffic, enforce bandwidth, buffer
            // `Send` events and stage the payloads for this round's sends,
            // one job per source shard. Each job owns its shard's window of
            // the per-slot counters (disjoint splits of one flat array) and
            // drains each sender's outbox once, moving payloads into the
            // mailboxes / broadcast lists in the same touch — see
            // [`Engine::fused_send_shard`]. When every outbox is empty the
            // sweep would only walk empty headers, and the shard `acct_*`
            // fields still hold the last busy round's already-merged
            // values, so both the sweep and the merge are skipped.
            let before_bits = stats.total_bits;
            let before_msgs = stats.total_messages;
            let t_fused = prof_start(prof);
            let staged: usize = if outbox_nonempty == 0 {
                0
            } else {
                let RunStats {
                    offsets,
                    directed_edge_bits,
                    ..
                } = &mut stats;
                let offsets: &[u32] = offsets;
                let bit_windows = split_by_bounds(directed_edge_bits, &slot_bounds);
                let ob_windows = split_by_bounds(&mut outboxes, starts);
                let bc_windows = split_by_bounds(&mut broadcasts, starts);
                let id_base_ref = &id_base;
                let empty_deps_ref = &empty_deps;
                shards
                    .par_iter_mut()
                    .zip(bit_windows.into_par_iter())
                    .zip(mail.par_iter_mut())
                    .zip(bcasters.par_iter_mut())
                    .zip(staged_counts.par_iter_mut())
                    .zip(ob_windows.into_par_iter())
                    .zip(bc_windows.into_par_iter())
                    .for_each(
                        |((((((shard, ebits), mail_row), bcst), count), obs), bcs)| {
                            *count = self.fused_send_shard(
                                shard,
                                obs,
                                bcs,
                                mail_row,
                                bcst,
                                offsets,
                                rev_port,
                                starts,
                                ebits,
                                round,
                                tracing,
                                provenance,
                                empty_deps_ref,
                                id_base_ref,
                            );
                        },
                    );
                // Merge in shard (= node) order: totals, buffered Send
                // events, and the lowest shard's error. Event buffers of
                // shards past the erroring one are discarded — a sequential
                // scan would never have reached those nodes.
                for shard in shards.iter_mut() {
                    stats.total_bits += shard.acct_bits;
                    stats.total_messages += shard.acct_msgs;
                    stats.max_edge_round_bits = stats.max_edge_round_bits.max(shard.acct_max);
                    for ev in shard.acct_events.drain(..) {
                        rec(ev);
                    }
                    if let Some(e) = shard.acct_err.take() {
                        prof_record(prof, Section::Fused, t_fused);
                        return Err(e);
                    }
                }
                staged_counts.iter().sum()
            };
            let round_bits = stats.total_bits - before_bits;
            let round_msgs = stats.total_messages - before_msgs;
            stats.per_round_bits.push(round_bits);
            stats.per_round_messages.push(round_msgs);
            stats.rounds = round;

            // Deliver shard-parallel: each destination shard merges its
            // incoming mailboxes (in source shard order), adjudicates every
            // delivery through the fault plan, and fills its inbox slab —
            // see [`deliver_shard`]. Fault randomness is a deterministic
            // function of the engine seed and absolute coordinates, so the
            // run stays reproducible; per-shard fault counts and structured
            // events are reduced *after* the parallel section, in shard
            // (= node) order, so any collector sees the same stream at any
            // thread count and any shard count.
            let (mut round_dropped, mut round_corrupted) = (0u64, 0u64);
            if staged == 0 {
                // All-idle round (nodes computing, nothing in flight):
                // skip the delivery pass entirely. Nothing was delivered,
                // so next round's sends have empty deps sets. Consecutive
                // idle rounds skip even the slab reset — the inboxes were
                // already cleared by the previous idle round.
                if !inboxes_clear {
                    shards.par_iter_mut().for_each(|shard| {
                        shard.route.inbox.clear();
                        for b in shard.route.inbox_bounds.iter_mut() {
                            *b = (0, 0);
                        }
                        for prev in shard.prev_ids.iter_mut() {
                            prev.clear();
                        }
                    });
                    inboxes_clear = true;
                }
            } else {
                inboxes_clear = false;
                // Transpose the mailbox matrix (Vec-header swaps only) so
                // each destination shard owns its incoming column.
                for s in 0..nshards {
                    for d in 0..nshards {
                        std::mem::swap(&mut mail_t[d][s], &mut mail[s][d]);
                    }
                }
                {
                    let offsets: &[u32] = &stats.offsets;
                    let broadcasts_ref = &broadcasts;
                    let bcasters_ref = &bcasters;
                    let crashed_ref = &crashed;
                    let id_base_ref = &id_base;
                    let faults_ref = &faults;
                    let rev_port_ref = &rev_port;
                    shards
                        .par_iter_mut()
                        .zip(mail_t.par_iter_mut())
                        .for_each(|(shard, col)| {
                            deliver_shard(
                                shard,
                                col,
                                g,
                                offsets,
                                rev_port_ref,
                                broadcasts_ref,
                                bcasters_ref,
                                faults_ref,
                                crashed_ref,
                                id_base_ref,
                                tracing,
                                provenance,
                                round,
                            );
                        });
                }
                // Swap the (now drained) mailboxes back so their capacity
                // is reused next round.
                for s in 0..nshards {
                    for d in 0..nshards {
                        std::mem::swap(&mut mail[s][d], &mut mail_t[d][s]);
                    }
                }
                // Reduce tallies and drain events in shard (= node) order.
                for shard in shards.iter_mut() {
                    let [delivered, dropped, corrupted] = shard.tally;
                    report.delivered += delivered;
                    round_dropped += dropped;
                    round_corrupted += corrupted;
                    for ev in shard.events.drain(..) {
                        rec(ev);
                    }
                }
            }
            prof_record(prof, Section::Fused, t_fused);
            report.dropped += round_dropped;
            report.corrupted += round_corrupted;
            report.dropped_per_round.push(round_dropped);
            report.corrupted_per_round.push(round_corrupted);

            // Step all live (non-halted, non-crashed) nodes, writing each
            // node's new outbox in place (staging drained the old ones, so
            // no per-round collect is needed). One job per shard: each job
            // resolves its receivers' slab windows, one node at a time,
            // into `(port, &M)` views over this round's arenas (the
            // broadcast lists and the shard's unicast and damaged arenas,
            // none of which is written until the next round's send sweep)
            // and owns its node range's windows of the per-node arrays.
            // The shared context is updated in place (`round` is its only
            // per-round field) instead of being cloned per node per round.
            let t_step = prof_start(prof);
            {
                let crashed_ref = &crashed;
                let broadcasts_ref: &[Broadcasts<A::Msg>] = &broadcasts;
                let node_windows = split_by_bounds(&mut nodes, starts);
                let ob_windows = split_by_bounds(&mut outboxes, starts);
                let ctx_windows = split_by_bounds(&mut contexts, starts);
                let rng_windows = split_by_bounds(&mut rngs, starts);
                shards
                    .par_iter_mut()
                    .zip(node_windows.into_par_iter())
                    .zip(ob_windows.into_par_iter())
                    .zip(ctx_windows.into_par_iter())
                    .zip(rng_windows.into_par_iter())
                    .zip(refill_counts.par_iter_mut())
                    .for_each(|(((((shard, nds), obs), ctxs), rgs), refill)| {
                        let Shard {
                            start,
                            route,
                            unicasts,
                            damaged,
                            view,
                            ..
                        } = shard;
                        let mut inbox = reuse_view(std::mem::take(view));
                        // The send passes drained every outbox, so the
                        // shard's nonempty count is exactly the nodes whose
                        // `on_round` returns sends this round.
                        let mut cnt = 0usize;
                        for (local, node) in nds.iter_mut().enumerate() {
                            let v = *start as usize + local;
                            if !node.halted() && crashed_ref[v].is_none() {
                                ctxs[local].round = round;
                                let (b0, b1) = route.inbox_bounds[local];
                                inbox.clear();
                                // Most nodes of a quiet round hear nothing;
                                // they skip the resolve loop altogether.
                                if b0 != b1 {
                                    let window = &route.inbox[b0 as usize..b1 as usize];
                                    inbox.extend(window.iter().map(|&(p, src)| {
                                        (p, resolve(src, broadcasts_ref, unicasts, damaged))
                                    }));
                                }
                                obs[local] = node.on_round(&ctxs[local], &inbox, &mut rgs[local]);
                                if !obs[local].is_empty() {
                                    cnt += 1;
                                }
                            }
                        }
                        *view = reuse_view(inbox);
                        *refill = cnt;
                    });
            }
            outbox_nonempty = refill_counts.iter().sum();
            prof_record(prof, Section::Compute, t_step);

            rec(SimEvent::RoundEnd {
                round,
                bits: round_bits,
                messages: round_msgs,
                dropped: round_dropped,
                corrupted: round_corrupted,
            });

            completed = nodes
                .iter()
                .zip(crashed.iter())
                .all(|(nd, down)| nd.halted() || down.is_some());
        }

        plan.return_routing(shards.into_iter().map(|shard| shard.route).collect());
        let mut outcome = Outcome {
            decisions: nodes.iter().map(|nd| nd.decision()).collect(),
            stats,
            completed,
            faults: report,
            degraded: None,
            metrics: MetricsSnapshot::default(),
        };
        outcome.assess_degradation(n);
        Ok((outcome, nodes))
    }

    /// The fused account+stage job of one source shard: a single drain of
    /// each sender's outbox validates the port, charges the bits, buffers
    /// the `Send` event, and moves the payload into its destination
    /// mailbox (or the sender's broadcast `Arc` list) — one touch per
    /// message.
    ///
    /// Bit accounting is word-parallel: broadcast bits accumulate in a
    /// single `u64` (every port carries the same broadcast load — O(1) per
    /// broadcast instead of O(degree)), unicast bits in the lazy `u64`
    /// per-port scratch, and the settlement loop for a broadcast-only
    /// sender is one limit check plus a vectorizable `+=` over its
    /// contiguous `directed_edge_bits` window.
    ///
    /// First error wins in the order node, then outbox entry, then port:
    /// per-entry errors (forbidden unicast, invalid port) fire in outbox
    /// order, bandwidth violations in port order after the sender's
    /// entries, and the `Send` events buffered before the error are kept —
    /// the caller's in-order merge then reproduces the sequential
    /// first-error semantics (refereed against the naive engine in
    /// `tests/sharding.rs`).
    /// Returns the staged-entry count (unicasts plus broadcasts).
    #[allow(clippy::too_many_arguments)]
    fn fused_send_shard<M: BitSize>(
        &self,
        shard: &mut Shard<M>,
        outboxes: &mut [Outbox<M>],
        bcasts: &mut [Broadcasts<M>],
        mail_row: &mut [Mail<M>],
        bcasters: &mut Vec<u32>,
        offsets: &[u32],
        rev_port: &[u32],
        starts: &[u32],
        edge_bits: &mut [u64],
        round: usize,
        tracing: bool,
        provenance: bool,
        empty_deps: &Arc<[u64]>,
        id_base: &[u64],
    ) -> usize {
        let g = self.topology;
        let broadcast_only = self.cfg.broadcast_only;
        let limit = match self.bandwidth {
            Bandwidth::Bits(b) => Some(b as u64),
            Bandwidth::Unbounded => None,
        };
        let Shard {
            start,
            slot_base,
            prev_ids,
            port_bits,
            acct_events,
            acct_bits,
            acct_msgs,
            acct_max,
            acct_err,
            ..
        } = shard;
        *acct_bits = 0;
        *acct_msgs = 0;
        *acct_max = 0;
        *acct_err = None;
        acct_events.clear();
        bcasters.clear();
        let start = *start as usize;
        let slot_base = *slot_base as usize;
        let mut staged = 0usize;
        for (local, outbox) in outboxes.iter_mut().enumerate() {
            let bc = &mut bcasts[local];
            bc.clear();
            if outbox.is_empty() {
                continue;
            }
            let v = start + local;
            let deg = g.degree(v);
            let mut bcast_bits = 0u64;
            let mut have_uni = false;
            let mut msgs = 0u64;
            // All of v's sends this round read the same inbox, so they
            // share one deps set (one Arc per active sender per round);
            // without provenance every send shares the one empty set.
            let sender_prov: Option<(u64, Arc<[u64]>)> = if tracing {
                let deps = if provenance {
                    Arc::from(prev_ids[local].as_slice())
                } else {
                    Arc::clone(empty_deps)
                };
                Some((id_base[v], deps))
            } else {
                None
            };
            for (idx, out) in outbox.drain(..).enumerate() {
                match out {
                    Outgoing::Unicast(p, m) => {
                        if broadcast_only {
                            *acct_err = Some(SimError::UnicastForbidden { node: v, round });
                            return staged;
                        }
                        let p = p as usize;
                        if p >= deg {
                            *acct_err = Some(SimError::InvalidPort {
                                node: v,
                                port: p,
                                degree: deg,
                            });
                            return staged;
                        }
                        if !have_uni {
                            have_uni = true;
                            port_bits.clear();
                            port_bits.resize(deg, 0);
                        }
                        let sz = m.bit_size();
                        port_bits[p] += sz as u64;
                        msgs += 1;
                        if let Some((base, deps)) = &sender_prov {
                            acct_events.push(SimEvent::Send {
                                round,
                                from: v,
                                port: p,
                                bits: sz,
                                msg_id: base + idx as u64,
                                deps: Arc::clone(deps),
                            });
                        }
                        let to = g.neighbors(v)[p] as usize;
                        let to_port = rev_port[offsets[v] as usize + p];
                        let slot = offsets[to] + to_port;
                        let dst = shard_of(starts, to as u32);
                        mail_row[dst].push((to as u32, slot, idx as u32, m));
                        staged += 1;
                    }
                    Outgoing::Broadcast(m) => {
                        let sz = m.bit_size();
                        bcast_bits += sz as u64;
                        msgs += deg as u64;
                        if let Some((base, deps)) = &sender_prov {
                            acct_events.push(SimEvent::Send {
                                round,
                                from: v,
                                port: usize::MAX,
                                bits: sz,
                                msg_id: base + idx as u64,
                                deps: Arc::clone(deps),
                            });
                        }
                        bc.push((idx as u32, m));
                        staged += 1;
                    }
                }
            }
            // Settle the sender's bandwidth in port order (a degree-0
            // sender has no ports, hence nothing to check or charge).
            let ebase = offsets[v] as usize - slot_base;
            if !have_uni {
                if deg > 0 {
                    if let Some(limit) = limit {
                        if bcast_bits > limit {
                            *acct_err = Some(SimError::BandwidthExceeded {
                                node: v,
                                port: 0,
                                attempted: bcast_bits as usize,
                                limit: limit as usize,
                                round,
                            });
                            return staged;
                        }
                    }
                    for eb in &mut edge_bits[ebase..ebase + deg] {
                        *eb += bcast_bits;
                    }
                    *acct_bits += bcast_bits * deg as u64;
                    *acct_max = (*acct_max).max(bcast_bits as usize);
                }
            } else {
                for (p, pb) in port_bits.iter().enumerate() {
                    let total = pb + bcast_bits;
                    if let Some(limit) = limit {
                        if total > limit {
                            *acct_err = Some(SimError::BandwidthExceeded {
                                node: v,
                                port: p,
                                attempted: total as usize,
                                limit: limit as usize,
                                round,
                            });
                            return staged;
                        }
                    }
                    edge_bits[ebase + p] += total;
                    *acct_bits += total;
                    *acct_max = (*acct_max).max(total as usize);
                }
            }
            *acct_msgs += msgs;
            if !bc.is_empty() {
                bcasters.push(v as u32);
            }
        }
        staged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use crate::node::{Decision, Inbox};
    use crate::obsv::{EventLog, JsonlTrace};
    use crate::simulation::Simulation;
    use graphlib::generators;

    /// Flood: every node broadcasts its id once; after one round, each node
    /// has heard all neighbor ids and halts, rejecting iff some neighbor id
    /// is larger than its own.
    struct Flood {
        sent: bool,
        done: bool,
        reject: bool,
    }

    impl NodeAlgorithm for Flood {
        type Msg = u64;

        fn init(&mut self, ctx: &NodeContext, _rng: &mut ChaCha8Rng) -> Outbox<u64> {
            self.sent = true;
            if ctx.degree() == 0 {
                self.done = true;
                return Vec::new();
            }
            vec![Outgoing::Broadcast(ctx.id)]
        }

        fn on_round(
            &mut self,
            ctx: &NodeContext,
            inbox: &Inbox<u64>,
            _rng: &mut ChaCha8Rng,
        ) -> Outbox<u64> {
            self.reject = inbox.iter().any(|(_, id)| **id > ctx.id);
            self.done = true;
            Vec::new()
        }

        fn halted(&self) -> bool {
            self.done
        }

        fn decision(&self) -> Decision {
            if self.reject {
                Decision::Reject
            } else {
                Decision::Accept
            }
        }
    }

    fn flood() -> Flood {
        Flood {
            sent: false,
            done: false,
            reject: false,
        }
    }

    #[test]
    fn flood_on_cycle() {
        let g = generators::cycle(5);
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .run(|_| flood())
            .unwrap();
        assert!(out.completed);
        assert_eq!(out.stats.rounds, 1);
        // Every node except the max-id one rejects.
        let rejects = out
            .decisions
            .iter()
            .filter(|d| **d == Decision::Reject)
            .count();
        assert_eq!(rejects, 4);
        // 5 nodes broadcast 64 bits over 2 ports each.
        assert_eq!(out.stats.total_bits, 5 * 2 * 64);
        assert_eq!(out.stats.total_messages, 10);
    }

    #[test]
    fn bandwidth_enforced() {
        let g = generators::cycle(4);
        let err = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(8))
            .run(|_| flood())
            .unwrap_err();
        match err {
            SimError::BandwidthExceeded {
                attempted, limit, ..
            } => {
                assert_eq!(attempted, 64);
                assert_eq!(limit, 8);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn local_model_unbounded() {
        let g = generators::star(50);
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Unbounded)
            .run(|_| flood())
            .unwrap();
        assert!(out.completed);
    }

    #[test]
    fn custom_ids_visible() {
        // With descending ids, the first node holds the max id and accepts.
        let g = generators::path(3);
        let ids = vec![100, 50, 10];
        let out = Simulation::on(&g)
            .with_ids(ids)
            .bandwidth(Bandwidth::Bits(64))
            .run(|_| flood())
            .unwrap();
        assert_eq!(out.decisions[0], Decision::Accept);
        assert_eq!(out.decisions[1], Decision::Reject);
        assert_eq!(out.decisions[2], Decision::Reject);
    }

    /// Ping-pong along one edge: checks unicast routing + round counting.
    struct PingPong {
        hops_left: usize,
        done: bool,
    }

    impl NodeAlgorithm for PingPong {
        type Msg = u32;

        fn init(&mut self, ctx: &NodeContext, _rng: &mut ChaCha8Rng) -> Outbox<u32> {
            if ctx.index == 0 {
                vec![Outgoing::Unicast(0, self.hops_left as u32)]
            } else {
                Vec::new()
            }
        }

        fn on_round(
            &mut self,
            _ctx: &NodeContext,
            inbox: &Inbox<u32>,
            _rng: &mut ChaCha8Rng,
        ) -> Outbox<u32> {
            if let Some((port, hops)) = inbox.first() {
                if **hops == 0 {
                    self.done = true;
                    return Vec::new();
                }
                return vec![Outgoing::Unicast(*port, **hops - 1)];
            }
            // A node with nothing to do halts once the token passed it.
            Vec::new()
        }

        fn halted(&self) -> bool {
            self.done
        }

        fn decision(&self) -> Decision {
            Decision::Accept
        }
    }

    #[test]
    fn ping_pong_rounds() {
        let g = generators::path(2);
        let hops = 6;
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(32))
            .max_rounds(100)
            .run(|_| PingPong {
                hops_left: hops,
                done: false,
            })
            .unwrap();
        // Token makes `hops + 1` trips (counting down 6..=0).
        assert_eq!(out.stats.total_messages, hops as u64 + 1);
    }

    #[test]
    fn round_limit_reported() {
        // PingPong on a path never sets `done` for node 1... give it a huge
        // hop count and a tiny round limit instead.
        let g = generators::path(2);
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(32))
            .max_rounds(3)
            .run(|_| PingPong {
                hops_left: 1000,
                done: false,
            })
            .unwrap();
        assert!(!out.completed);
        assert_eq!(out.stats.rounds, 3);
    }

    #[test]
    fn per_round_series_sums_to_total() {
        let g = generators::cycle(5);
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .run(|_| flood())
            .unwrap();
        assert_eq!(
            out.stats.per_round_bits.iter().sum::<u64>(),
            out.stats.total_bits
        );
        assert_eq!(out.stats.per_round_bits.len(), out.stats.rounds);
        assert_eq!(out.stats.per_round_bits[0], 5 * 2 * 64);
        // The message series is aligned with the bit series.
        assert_eq!(
            out.stats.per_round_messages.iter().sum::<u64>(),
            out.stats.total_messages
        );
        assert_eq!(out.stats.per_round_messages.len(), out.stats.rounds);
    }

    #[test]
    fn full_loss_delivers_nothing() {
        let g = generators::cycle(5);
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .faults(FaultSpec::IndependentLoss(1.0))
            .run(|_| flood())
            .unwrap();
        // Bits were still charged...
        assert_eq!(out.stats.total_bits, 5 * 2 * 64);
        // ...but nobody heard a larger id, so everyone accepts.
        assert!(out.decisions.iter().all(|d| *d == Decision::Accept));
        // The fault report shows the losses instead of hiding them.
        assert_eq!(out.faults.dropped, 10);
        assert_eq!(out.faults.delivered, 0);
        assert!(out.faults.any_faults());
    }

    #[test]
    fn partial_loss_is_deterministic_and_partial() {
        let g = generators::clique(8);
        let run = || {
            Simulation::on(&g)
                .bandwidth(Bandwidth::Bits(64))
                .seed(9)
                .faults(FaultSpec::IndependentLoss(0.5))
                .run(|_| flood())
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.decisions, b.decisions, "loss is seeded");
        // With 56 deliveries at 50% loss, some but not all rejections of
        // the loss-free run should survive.
        let rejects = a
            .decisions
            .iter()
            .filter(|d| **d == Decision::Reject)
            .count();
        assert!(rejects > 0 && rejects <= 7, "rejects = {rejects}");
    }

    #[test]
    fn zero_loss_matches_default() {
        let g = generators::cycle(6);
        let a = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .run(|_| flood())
            .unwrap();
        let b = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .faults(FaultSpec::None)
            .run(|_| flood())
            .unwrap();
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn trace_captures_sends() {
        let g = generators::cycle(3);
        let log = Arc::new(EventLog::new());
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .collector_arc(log.clone())
            .run(|_| flood())
            .unwrap();
        assert!(out.completed);
        // Three broadcasts, one send event each.
        let sends: Vec<_> = log
            .snapshot()
            .into_iter()
            .filter_map(|ev| match ev {
                SimEvent::Send {
                    round, port, bits, ..
                } => Some((round, port, bits)),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![(1, usize::MAX, 64); 3]);
    }

    #[test]
    fn bounded_trace_overflows_gracefully_under_fault_load() {
        // A 2-line trace on a clique flood with heavy loss: the engine
        // emits far more events than fit, and the trace must cap its
        // memory while still counting the overflow.
        let g = generators::clique(5);
        let trace = Arc::new(JsonlTrace::new(2));
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .faults(FaultSpec::IndependentLoss(0.5))
            .seed(3)
            .collector_arc(trace.clone())
            .run(|_| flood())
            .unwrap();
        assert!(out.faults.dropped > 0, "the loss model should have fired");
        assert_eq!(trace.len(), 2);
        assert!(trace.dropped() > 0);
        assert_eq!(
            out.metrics.counter("trace.dropped_events"),
            Some(trace.dropped())
        );
    }

    #[test]
    fn drop_events_are_traced_with_kind() {
        let g = generators::path(2);
        let log = Arc::new(EventLog::new());
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .faults(FaultSpec::IndependentLoss(1.0))
            .collector_arc(log.clone())
            .max_rounds(3)
            .run(|_| flood())
            .unwrap();
        assert_eq!(out.faults.delivered, 0);
        let drops = log
            .snapshot()
            .iter()
            .filter(|ev| matches!(ev, SimEvent::Drop { .. }))
            .count();
        assert_eq!(drops, out.faults.dropped as usize);
        assert!(drops > 0);
    }

    #[test]
    fn broadcast_only_rejects_unicast() {
        let g = generators::path(2);
        let err = Simulation::on(&g)
            .broadcast_only(true)
            .bandwidth(Bandwidth::Bits(32))
            .run(|_| PingPong {
                hops_left: 3,
                done: false,
            })
            .unwrap_err();
        assert!(matches!(err, SimError::UnicastForbidden { .. }));
    }

    #[test]
    fn broadcast_only_allows_broadcasts() {
        let g = generators::cycle(4);
        let out = Simulation::on(&g)
            .broadcast_only(true)
            .bandwidth(Bandwidth::Bits(64))
            .run(|_| flood())
            .unwrap();
        assert!(out.completed);
    }

    #[test]
    fn plan_keeps_routing_buffers_between_runs() {
        // A run takes the buffers the last finished run handed back,
        // whatever its message type: emptied, with their capacity and
        // their epoch. A concurrent run gets fresh ones.
        let g = generators::cycle(6);
        let plan = EnginePlan::build(&g, 2);
        let bounds = [0, 6, 12];
        let mut routing = plan.take_routing(&bounds);
        assert_eq!(routing.len(), 2);
        assert_eq!(routing[1].slot_epoch.len(), 6);
        routing[0].inbox.push((0, Src::Unicast(0)));
        routing[0].epoch = 7;
        let cap = routing[0].inbox.capacity();
        plan.return_routing(routing);
        let reused = plan.take_routing(&bounds);
        assert!(reused[0].inbox.is_empty());
        assert_eq!(reused[0].inbox.capacity(), cap);
        assert_eq!(reused[0].epoch, 7, "the epoch travels with its stamps");
        let fresh = plan.take_routing(&bounds);
        assert_eq!((fresh[0].epoch, fresh[0].inbox.capacity()), (0, 0));
    }

    /// A message type [`Chatter`] can send: two integer widths serve.
    trait ChatMsg:
        Clone + Send + Sync + BitSize + From<u32> + Into<u64> + std::hash::Hash + 'static
    {
    }

    impl<M: Clone + Send + Sync + BitSize + From<u32> + Into<u64> + std::hash::Hash + 'static>
        ChatMsg for M
    {
    }

    /// Unicasts a value on a seed-dependent subset of ports (and now and
    /// then broadcasts one) for a few rounds, folding everything it hears
    /// into its decision — so a stale routing bucket changes the outcome.
    struct Chatter<M> {
        rounds: usize,
        heard: u64,
        _msg: std::marker::PhantomData<M>,
    }

    impl<M: ChatMsg> Chatter<M> {
        fn new(rounds: usize) -> Self {
            Chatter {
                rounds,
                heard: 0,
                _msg: std::marker::PhantomData,
            }
        }

        fn talk(&self, ctx: &NodeContext, rng: &mut ChaCha8Rng) -> Outbox<M> {
            if ctx.round >= self.rounds {
                return Vec::new();
            }
            let mut out = Vec::new();
            for p in 0..ctx.degree() as u32 {
                if rng.gen_bool(0.3) {
                    out.push(Outgoing::Unicast(p, M::from(rng.gen_range(0..1000))));
                }
            }
            if rng.gen_bool(0.2) {
                out.push(Outgoing::Broadcast(M::from(ctx.id as u32)));
            }
            out
        }
    }

    impl<M: ChatMsg> NodeAlgorithm for Chatter<M> {
        type Msg = M;

        fn init(&mut self, ctx: &NodeContext, rng: &mut ChaCha8Rng) -> Outbox<M> {
            self.talk(ctx, rng)
        }

        fn on_round(
            &mut self,
            ctx: &NodeContext,
            inbox: &Inbox<M>,
            rng: &mut ChaCha8Rng,
        ) -> Outbox<M> {
            for &(p, m) in inbox {
                let x: u64 = m.clone().into();
                self.heard = self.heard.wrapping_mul(31).wrapping_add(x ^ p as u64);
            }
            self.talk(ctx, rng)
        }

        fn halted(&self) -> bool {
            false
        }

        fn decision(&self) -> Decision {
            if self.heard % 2 == 1 {
                Decision::Reject
            } else {
                Decision::Accept
            }
        }
    }

    #[test]
    fn plan_reuse_matches_fresh_plan() {
        // Runs of two message types and three seeds, interleaved on one
        // prepared plan (so each run inherits the routing buffers, epoch
        // stamps included, of a run with other traffic), must match runs
        // that each build a fresh plan: outcome and event stream alike.
        use crate::simulation::Overrides;
        let g = generators::gnp(24, 0.3, &mut ChaCha8Rng::seed_from_u64(5));
        let sim = || {
            Simulation::on(&g)
                .bandwidth(Bandwidth::Unbounded)
                .shards(3)
                .max_rounds(12)
        };
        let prepared = sim().prepare();
        fn check<M: ChatMsg>(
            prepared: &crate::simulation::Prepared,
            fresh: Simulation<'_>,
            seed: u64,
        ) {
            let (reused_log, fresh_log) = (Arc::new(EventLog::new()), Arc::new(EventLog::new()));
            let ovr = Overrides::new()
                .seed(seed)
                .collector_arc(reused_log.clone());
            let reused = prepared.run_with(&ovr, |_| Chatter::<M>::new(10)).unwrap();
            let fresh = fresh
                .seed(seed)
                .collector_arc(fresh_log.clone())
                .run(|_| Chatter::<M>::new(10))
                .unwrap();
            assert!(reused.stats.total_messages > 0);
            // Every field but the metrics through `Debug`; the metrics
            // through their `PartialEq`, which ignores the zeroed buckets
            // a prepared topology's reused registry keeps.
            let fields = |o: &Outcome| {
                format!(
                    "{:?}",
                    (&o.decisions, &o.stats, o.completed, &o.faults, &o.degraded)
                )
            };
            assert_eq!(fields(&reused), fields(&fresh), "seed {seed}");
            assert_eq!(reused.metrics, fresh.metrics, "seed {seed}");
            assert_eq!(reused_log.snapshot(), fresh_log.snapshot(), "seed {seed}");
        }
        for seed in 1..=3 {
            check::<u64>(&prepared, sim(), seed);
            check::<u32>(&prepared, sim(), seed);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let g = generators::cycle(7);
        let run = || {
            Simulation::on(&g)
                .seed(42)
                .bandwidth(Bandwidth::Bits(64))
                .run(|_| flood())
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.stats.total_bits, b.stats.total_bits);
        assert_eq!(a.metrics, b.metrics, "metric snapshots are deterministic");
    }

    #[test]
    fn shard_count_is_invisible() {
        // The shard count is a parallel-grain knob, never an observable:
        // decisions, traffic totals, and fault outcomes must be
        // byte-identical at every shard count (the dedicated referee in
        // tests/sharding.rs additionally pins inboxes and trace streams).
        let g = generators::clique(8);
        let run_with = |shards: usize| {
            Simulation::on(&g)
                .bandwidth(Bandwidth::Bits(64))
                .seed(9)
                .shards(shards)
                .faults(FaultSpec::IndependentLoss(0.5))
                .run(|_| flood())
                .unwrap()
        };
        let reference = run_with(1);
        for shards in [2, 3, 7, 64] {
            let out = run_with(shards);
            assert_eq!(out.decisions, reference.decisions, "shards={shards}");
            assert_eq!(
                out.stats.total_bits, reference.stats.total_bits,
                "shards={shards}"
            );
            assert_eq!(out.faults.dropped, reference.faults.dropped);
            assert_eq!(out.faults.delivered, reference.faults.delivered);
            assert_eq!(
                out.faults.dropped_per_round, reference.faults.dropped_per_round,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn hit_round_limit_distinguishes_clean_halt() {
        let g = generators::cycle(5);
        let clean = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .run(|_| flood())
            .unwrap();
        assert!(clean.completed && !clean.hit_round_limit());

        let g2 = generators::path(2);
        let cut = Simulation::on(&g2)
            .bandwidth(Bandwidth::Bits(32))
            .max_rounds(3)
            .run(|_| PingPong {
                hops_left: 1000,
                done: false,
            })
            .unwrap();
        assert!(!cut.completed && cut.hit_round_limit());
    }

    /// Broadcasts once, then idles until a scheduled halt round far in the
    /// future — but declares itself quiescent from round 1 on, since the
    /// idle tail neither sends nor changes the decision.
    struct IdleTail {
        halt_round: usize,
        started: bool,
        done: bool,
    }

    impl NodeAlgorithm for IdleTail {
        type Msg = u64;

        fn init(&mut self, ctx: &NodeContext, _rng: &mut ChaCha8Rng) -> Outbox<u64> {
            vec![Outgoing::Broadcast(ctx.id)]
        }

        fn on_round(
            &mut self,
            ctx: &NodeContext,
            _inbox: &Inbox<u64>,
            _rng: &mut ChaCha8Rng,
        ) -> Outbox<u64> {
            self.started = true;
            if ctx.round >= self.halt_round {
                self.done = true;
            }
            Vec::new()
        }

        fn halted(&self) -> bool {
            self.done
        }

        fn quiescent(&self) -> bool {
            self.started
        }

        fn decision(&self) -> Decision {
            Decision::Accept
        }
    }

    #[test]
    fn early_termination_skips_quiescent_tail() {
        let g = generators::cycle(6);
        let halt_round = 50;
        let run_with = |et: bool| {
            Simulation::on(&g)
                .bandwidth(Bandwidth::Bits(64))
                .early_termination(et)
                .run(|_| IdleTail {
                    halt_round,
                    started: false,
                    done: false,
                })
                .unwrap()
        };
        let full = run_with(false);
        let cut = run_with(true);
        // The full run clock-ticks to the scheduled halt; the terminated
        // run stops as soon as the network drains (round 1's broadcasts
        // deliver in round 1; round 2 finds everything idle).
        assert_eq!(full.stats.rounds, halt_round);
        assert!(cut.stats.rounds <= 2, "rounds = {}", cut.stats.rounds);
        // Traffic and decisions are unchanged — only the idle tail went,
        // and a quiescent cut is a clean completion, not a degraded run.
        assert!(cut.completed && cut.degraded.is_none());
        assert_eq!(cut.decisions, full.decisions);
        assert_eq!(cut.stats.total_bits, full.stats.total_bits);
        assert_eq!(cut.stats.total_messages, full.stats.total_messages);
    }

    #[test]
    fn early_termination_waits_for_pending_decisions() {
        // With the default `quiescent` (= halted), early termination can
        // only fire where the engine would stop anyway: the clock-driven
        // PingPong run is byte-identical with the flag on.
        let g = generators::path(2);
        let run_with = |et: bool| {
            Simulation::on(&g)
                .bandwidth(Bandwidth::Bits(32))
                .early_termination(et)
                .max_rounds(100)
                .run(|_| PingPong {
                    hops_left: 6,
                    done: false,
                })
                .unwrap()
        };
        let full = run_with(false);
        let cut = run_with(true);
        assert_eq!(cut.stats.rounds, full.stats.rounds);
        assert_eq!(cut.stats.total_messages, full.stats.total_messages);
    }

    #[test]
    fn crash_stop_silences_node_and_is_reported() {
        use crate::faults::CrashStop;
        // Star center crashes before round 1: no message ever flows, and
        // every leaf (degree 1, only neighbor dead) hears nothing.
        let g = generators::star(5); // center 0 + 5 leaves
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .faults(FaultSpec::CrashStop(CrashStop::at(vec![(0, 1)])))
            .run(|_| flood())
            .unwrap();
        // The center's round-0 broadcast is discarded before accounting:
        // only the 5 leaves are charged for their (lost) broadcasts.
        assert_eq!(out.stats.total_bits, 5 * 64);
        assert_eq!(out.faults.crashed, vec![(0, 1)]);
        assert_eq!(out.faults.crashed_nodes(), vec![0]);
        // Leaves heard nothing, so all decisions are Accept; node 0 is
        // crashed so it cannot be a "surviving" rejecter either.
        assert!(!out.surviving_node_rejects());
        // The leaves' sends toward the dead center count as dropped.
        assert_eq!(out.faults.dropped, 5);
        // Crashed nodes count as halted, so the run still completes.
        assert!(out.completed);
    }

    #[test]
    fn crash_events_traced() {
        use crate::faults::CrashStop;
        let g = generators::cycle(4);
        let log = Arc::new(EventLog::new());
        Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .collector_arc(log.clone())
            .faults(FaultSpec::CrashStop(CrashStop::at(vec![(2, 1)])))
            .run(|_| flood())
            .unwrap();
        let events = log.snapshot();
        let crashes: Vec<_> = events
            .iter()
            .filter_map(|ev| match *ev {
                SimEvent::Crash { round, node } => Some((node, round)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, vec![(2, 1)]);
        assert!(events.iter().any(|ev| matches!(ev, SimEvent::Send { .. })));
    }

    #[test]
    fn link_failure_blocks_exactly_that_edge() {
        use crate::faults::LinkFailure;
        // Path 0-1-2 with ids 0 < 1 < 2. Fault-free, nodes 0 and 1 reject.
        // Severing {1, 2} in round 1 hides id 2 from node 1, so only node 0
        // (which still hears id 1) rejects.
        let g = generators::path(3);
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .faults(FaultSpec::LinkFailure(LinkFailure::single(1, 2, 1, 1)))
            .run(|_| flood())
            .unwrap();
        assert_eq!(out.decisions[0], Decision::Reject);
        assert_eq!(out.decisions[1], Decision::Accept);
        assert_eq!(out.decisions[2], Decision::Accept);
        // Both directions of the severed edge dropped.
        assert_eq!(out.faults.dropped, 2);
        assert_eq!(out.faults.delivered, 2);
    }

    /// Node 0 broadcasts a fixed 16-bit pattern; every other node rejects
    /// iff it receives something different (a corruption detector).
    struct PatternCheck {
        pattern: u64,
        corrupted: bool,
        done: bool,
    }

    impl NodeAlgorithm for PatternCheck {
        type Msg = crate::message::BitString;

        fn init(
            &mut self,
            ctx: &NodeContext,
            _rng: &mut ChaCha8Rng,
        ) -> Outbox<crate::message::BitString> {
            if ctx.index == 0 {
                self.done = true;
                vec![Outgoing::Broadcast(crate::message::BitString::from_uint(
                    self.pattern,
                    16,
                ))]
            } else {
                Vec::new()
            }
        }

        fn on_round(
            &mut self,
            _ctx: &NodeContext,
            inbox: &Inbox<crate::message::BitString>,
            _rng: &mut ChaCha8Rng,
        ) -> Outbox<crate::message::BitString> {
            for (_, m) in inbox {
                if m.to_uint() != self.pattern {
                    self.corrupted = true;
                }
            }
            self.done = true;
            Vec::new()
        }

        fn halted(&self) -> bool {
            self.done
        }

        fn decision(&self) -> Decision {
            if self.corrupted {
                Decision::Reject
            } else {
                Decision::Accept
            }
        }
    }

    #[test]
    fn bit_flip_corrupts_bitstring_payloads() {
        let g = generators::star(4); // node 0 center, 4 leaves
        let mk = || PatternCheck {
            pattern: 0xA5A5,
            corrupted: false,
            done: false,
        };
        let clean = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .run(|_| mk())
            .unwrap();
        assert!(clean.network_accepts());
        assert_eq!(clean.faults.corrupted, 0);

        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .seed(11)
            .faults(FaultSpec::BitFlip(1.0))
            .run(|_| mk())
            .unwrap();
        // Every delivery corrupted: all four leaves see a damaged pattern.
        assert_eq!(out.faults.corrupted, 4);
        assert!(out.network_rejects());
    }

    #[test]
    fn fault_runs_reproducible_from_seed() {
        use crate::faults::CrashStop;
        let g = generators::clique(9);
        // Crashes land in round 1 (the flood only runs one real round).
        let spec = FaultSpec::Stack(vec![
            FaultSpec::GilbertElliott(0.2, 0.3, 0.05, 0.9),
            FaultSpec::CrashStop(CrashStop::random(2, 1)),
            FaultSpec::BitFlip(0.1),
        ]);
        let run = |seed: u64| {
            Simulation::on(&g)
                .bandwidth(Bandwidth::Bits(64))
                .seed(seed)
                .faults(spec.clone())
                .run(|_| flood())
                .unwrap()
        };
        let (a, b) = (run(13), run(13));
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.stats.total_bits, b.stats.total_bits);
        assert_eq!(a.faults.crashed_nodes().len(), 2);
        // A different seed crashes (almost surely) different nodes or at
        // least produces a different delivery history.
        let c = run(14);
        assert!(
            c.faults != a.faults,
            "distinct seeds should give distinct fault histories"
        );
    }

    #[test]
    fn per_round_fault_series_match_rounds() {
        let g = generators::clique(6);
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .seed(3)
            .faults(FaultSpec::IndependentLoss(0.4))
            .run(|_| flood())
            .unwrap();
        assert_eq!(out.faults.dropped_per_round.len(), out.stats.rounds);
        assert_eq!(out.faults.corrupted_per_round.len(), out.stats.rounds);
        assert_eq!(
            out.faults.dropped_per_round.iter().sum::<u64>(),
            out.faults.dropped
        );
        assert_eq!(
            out.faults.delivered + out.faults.dropped,
            out.stats.total_messages
        );
    }

    #[test]
    fn round_events_bracket_every_round() {
        use crate::obsv::JsonlTrace;
        let g = generators::cycle(4);
        let trace = std::sync::Arc::new(JsonlTrace::new(1 << 12));
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(64))
            .collector_arc(trace.clone())
            .run(|_| flood())
            .unwrap();
        let dump = trace.to_jsonl();
        let starts = dump.matches(r#""ev":"round_start""#).count();
        let ends = dump.matches(r#""ev":"round_end""#).count();
        assert_eq!(starts, out.stats.rounds);
        assert_eq!(ends, out.stats.rounds);
    }
}
