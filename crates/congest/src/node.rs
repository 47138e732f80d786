//! The node-algorithm interface of the simulator.
//!
//! A distributed algorithm is a per-node state machine. Each node sees only
//! its own identifier, its degree, the identifiers of its neighbors (indexed
//! by *port*), and the messages arriving on its ports.

use crate::message::BitSize;
use rand_chacha::ChaCha8Rng;

/// What a node knows about itself and its surroundings.
///
/// Ports number a node's incident edges `0..degree`; port `p` of node `v`
/// leads to `v`'s `p`-th neighbor in the topology's (sorted) adjacency list.
#[derive(Debug, Clone)]
pub struct NodeContext {
    /// Index of this node in the topology (simulation-internal; algorithms
    /// that follow the paper's §4/§5 setting should not base decisions on
    /// it, only on `id`).
    pub index: usize,
    /// The identifier assigned to this node.
    pub id: u64,
    /// Identifiers of the neighbors, `neighbor_ids[p]` = id across port `p`.
    pub neighbor_ids: Vec<u64>,
    /// Number of nodes in the network (`n` is commonly known in CONGEST).
    pub n: usize,
    /// Current round, starting at 1 for the first communication round
    /// (0 during `init`).
    pub round: usize,
}

impl NodeContext {
    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbor_ids.len()
    }
}

/// A message handed to the engine for delivery next round.
///
/// Ports are `u32` — the engine stores one staging slot per directed edge in
/// a `u32`-indexed arena, so a port (bounded by a node's degree, itself
/// bounded by the `u32` CSR of [`graphlib::Graph`]) always fits.
#[derive(Debug, Clone)]
pub enum Outgoing<M> {
    /// Send to a single port.
    Unicast(u32, M),
    /// Send the same message on every port. In CONGEST this still costs the
    /// message size on *each* edge.
    Broadcast(M),
}

/// The messages a node emits in one round.
pub type Outbox<M> = Vec<Outgoing<M>>;

/// The messages a node receives in one round: `(port, message)` pairs in
/// deterministic port-merge order, each message borrowed for the one
/// [`NodeAlgorithm::on_round`] call that reads it.
///
/// The engine stores every message of a round once, in arenas that stay
/// read-only while nodes compute: a broadcast in its sender's staging
/// list (however many neighbors hear it), a unicast in its receiving
/// shard's arena, and a fault-damaged copy in a per-shard arena of its
/// own. Each receiver's inbox is a window of references into them, so a
/// delivery costs no clone, no reference count and no allocation.
/// Algorithm bodies read a message through `&&M` exactly as through `&M`:
/// `msg.field`, method calls and `**msg` work unchanged, and pattern
/// matches use `&**msg`.
///
/// A node keeps what it needs by copying it out; the borrow checker
/// refuses to let a reference outlive the call, so no receiver can hold
/// a view into next round's arenas:
///
/// ```
/// use congest::{Decision, Inbox, NodeAlgorithm, NodeContext, Outbox};
/// use rand_chacha::ChaCha8Rng;
///
/// struct Keeper {
///     kept: Vec<u32>,
/// }
///
/// impl NodeAlgorithm for Keeper {
///     type Msg = u32;
///     fn init(&mut self, _: &NodeContext, _: &mut ChaCha8Rng) -> Outbox<u32> {
///         Vec::new()
///     }
///     fn on_round(&mut self, _: &NodeContext, inbox: &Inbox<u32>, _: &mut ChaCha8Rng) -> Outbox<u32> {
///         self.kept.extend(inbox.iter().map(|&(_, m)| *m));
///         Vec::new()
///     }
///     fn halted(&self) -> bool {
///         true
///     }
///     fn decision(&self) -> Decision {
///         Decision::Accept
///     }
/// }
/// ```
///
/// while keeping the references themselves does not compile:
///
/// ```compile_fail
/// use congest::{Decision, Inbox, NodeAlgorithm, NodeContext, Outbox};
/// use rand_chacha::ChaCha8Rng;
///
/// struct Hoarder {
///     kept: Vec<&'static u32>,
/// }
///
/// impl NodeAlgorithm for Hoarder {
///     type Msg = u32;
///     fn init(&mut self, _: &NodeContext, _: &mut ChaCha8Rng) -> Outbox<u32> {
///         Vec::new()
///     }
///     fn on_round(&mut self, _: &NodeContext, inbox: &Inbox<u32>, _: &mut ChaCha8Rng) -> Outbox<u32> {
///         self.kept.extend(inbox.iter().map(|&(_, m)| m));
///         Vec::new()
///     }
///     fn halted(&self) -> bool {
///         true
///     }
///     fn decision(&self) -> Decision {
///         Decision::Accept
///     }
/// }
/// ```
pub type Inbox<'r, M> = [(u32, &'r M)];

/// Empties an inbox view and hands its allocation back typed for a borrow
/// of another lifetime, so the engine and the ARQ transport rebuild every
/// step's view in one reused buffer. Both element types have the same
/// layout, so the in-place collect keeps the allocation.
pub(crate) fn reuse_view<'b, M>(mut view: Vec<(u32, &M)>) -> Vec<(u32, &'b M)> {
    view.clear();
    view.into_iter()
        .map(|_| -> (u32, &'b M) { unreachable!("the view was emptied") })
        .collect()
}

/// Accept/reject output of a node (Definition 1 semantics: the network
/// rejects — "H found" — iff some node rejects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The node believes the graph is H-free.
    Accept,
    /// The node has detected (evidence of) a copy of H.
    Reject,
}

/// A per-node distributed algorithm.
///
/// The engine drives each node through `init` (round 0, no messages yet)
/// and then `on_round` once per communication round until every node has
/// halted or the round limit is reached.
///
/// Under fault injection (see [`crate::faults`]) the engine may silently
/// drop or corrupt individual deliveries, and a crash-stopped node is
/// frozen: it stops being stepped, its pending outbox is discarded, and
/// its last `decision()` is *not* treated as protocol output (see
/// [`Outcome::surviving_node_rejects`](crate::Outcome::surviving_node_rejects)).
/// Implementations should therefore never rely on a message having arrived
/// to make a *reject* decision — rejection must be backed by positive
/// evidence that survives lost messages, or wrapped in the
/// [`crate::Reliable`] transport.
pub trait NodeAlgorithm: Send {
    /// Message type exchanged by this algorithm: an owned value, which the
    /// engine stores in its arenas and lends to receivers (see [`Inbox`]).
    type Msg: Clone + Send + Sync + BitSize + 'static;

    /// Called once before communication starts; returns the messages to be
    /// delivered in round 1.
    fn init(&mut self, ctx: &NodeContext, rng: &mut ChaCha8Rng) -> Outbox<Self::Msg>;

    /// Called once per round with the messages received in this round;
    /// returns messages to be delivered next round.
    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &Inbox<Self::Msg>,
        rng: &mut ChaCha8Rng,
    ) -> Outbox<Self::Msg>;

    /// Whether this node has halted (it will not be stepped again, and its
    /// pending outbox still gets delivered). The engine stops when all nodes
    /// have halted.
    fn halted(&self) -> bool;

    /// Whether this node is *causally quiescent*: given empty inboxes for
    /// every remaining round, it will never send another message and never
    /// change its [`Self::decision`] — i.e. the rest of the repetition is
    /// pure clock-ticking as far as this node is concerned.
    ///
    /// A clock-driven node (one that emits or decides at a scheduled future
    /// round even without input) must return `false` until that schedule is
    /// exhausted. The default is [`Self::halted`], which is always a sound
    /// answer.
    ///
    /// Only consulted when the engine runs with early termination enabled
    /// (see `Simulation::early_termination`), where an all-quiescent network
    /// with nothing in flight short-circuits the remaining rounds. The
    /// executed-round count (and with it per-round stat/fault series) then
    /// reflects the truncated run; decisions are unchanged.
    fn quiescent(&self) -> bool {
        self.halted()
    }

    /// The node's current output.
    fn decision(&self) -> Decision;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reused_view_keeps_its_allocation() {
        let (a, b, c) = (1u32, 2u32, 3u32);
        let mut view: Vec<(u32, &u32)> = Vec::with_capacity(8);
        view.extend([(0, &a), (1, &b)]);
        let (cap, ptr) = (view.capacity(), view.as_ptr() as usize);
        let mut again = reuse_view(view);
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
        again.push((2, &c));
        assert_eq!(again.as_ptr() as usize, ptr);
    }

    #[test]
    fn context_degree() {
        let ctx = NodeContext {
            index: 0,
            id: 7,
            neighbor_ids: vec![1, 2, 3],
            n: 4,
            round: 0,
        };
        assert_eq!(ctx.degree(), 3);
    }
}
