//! The congested-clique model.
//!
//! `n` nodes with an all-to-all communication topology; each ordered pair
//! may exchange `B` bits per round (classically `B = O(log n)`). The input
//! graph is separate from the communication topology: node `v` initially
//! knows its own adjacency row of the input graph. This is the model of the
//! paper's `K_s`-listing bound (§1.1, Lemma 1.3).

use crate::engine::Bandwidth;
use crate::error::SimError;
use crate::faults::FaultReport;
use crate::message::BitSize;
use crate::obsv::collect::{Collector, SimEvent};
use crate::obsv::metrics::MetricsSnapshot;
use crate::obsv::profile::{prof_record, prof_start, Section};
use crate::simulation::{CliqueRun, Outcome, SimConfig};
use crate::stats::RunStats;
use graphlib::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::sync::Arc;

/// One node's outbox for a round: `(destination, message)` pairs. Node
/// indices are `u32` on the wire (matching the `u32` CSR of
/// [`graphlib::Graph`] and the CONGEST engine's port ids), halving the
/// per-message routing footprint at clique scale.
type PairOutbox<M> = Vec<(u32, M)>;

/// What a congested-clique node knows.
#[derive(Debug, Clone)]
pub struct CliqueContext {
    /// This node's index in `0..n` (indices are public in this model).
    pub index: usize,
    /// Number of nodes.
    pub n: usize,
    /// This node's adjacency row in the *input* graph.
    pub input_neighbors: Vec<u32>,
    /// Current round (0 during init).
    pub round: usize,
}

/// A congested-clique per-node algorithm.
pub trait CliqueAlgorithm: Send {
    /// Message type.
    type Msg: Clone + Send + Sync + BitSize;
    /// Per-node output when the algorithm halts.
    type Output: Send;

    /// Messages to deliver in round 1, as `(destination, payload)` pairs.
    fn init(&mut self, ctx: &CliqueContext, rng: &mut ChaCha8Rng) -> Vec<(u32, Self::Msg)>;

    /// Step with this round's received `(source, payload)` messages.
    fn on_round(
        &mut self,
        ctx: &CliqueContext,
        inbox: &[(u32, Self::Msg)],
        rng: &mut ChaCha8Rng,
    ) -> Vec<(u32, Self::Msg)>;

    /// Whether this node has halted.
    fn halted(&self) -> bool;

    /// Final output.
    fn output(&self) -> Self::Output;
}

/// Statistics for a congested-clique run.
#[derive(Debug, Clone)]
pub struct CliqueStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Total bits over all ordered pairs and rounds.
    pub total_bits: u64,
    /// Total messages.
    pub total_messages: u64,
    /// Maximum bits on one ordered pair in one round.
    pub max_pair_round_bits: usize,
}

/// One congested-clique run over an input graph, with the run's
/// [`SimConfig`] defaults resolved. Built by the
/// [`Simulation`](crate::Simulation) builder, once per run.
pub(crate) struct CliqueEngine<'a> {
    input: &'a Graph,
    cfg: &'a SimConfig,
    /// The per-ordered-pair bound: the configured `Bandwidth::Bits(b)`,
    /// else `ceil(log2 n)` (the builder rejects `Bandwidth::Unbounded`).
    bandwidth_bits: usize,
    /// The round cap: the configured one, else `4 (n + 2)²`.
    max_rounds: usize,
    /// Every installed sink behind one handle. Clique events carry the
    /// destination node index in the `port` field.
    collector: Option<Arc<dyn Collector>>,
}

impl<'a> CliqueEngine<'a> {
    /// Resolves the run's defaults against the `input` graph.
    pub(crate) fn new(
        input: &'a Graph,
        cfg: &'a SimConfig,
        collector: Option<Arc<dyn Collector>>,
    ) -> Self {
        let n = input.n();
        CliqueEngine {
            input,
            cfg,
            bandwidth_bits: match cfg.bandwidth {
                Some(Bandwidth::Bits(b)) => b,
                _ => crate::message::bits_for_domain(n.max(2)),
            },
            max_rounds: cfg.max_rounds.unwrap_or(4 * (n + 2) * (n + 2)),
            collector,
        }
    }

    /// The round loop. Also builds a [`RunStats`] over the complete
    /// topology (node `u`'s slot for destination `v` skips `u` itself), so
    /// clique runs export the same per-round series and congestion numbers
    /// CONGEST runs do. The returned outcome's metrics are left empty for
    /// the builder to fill.
    pub(crate) fn run<A, F>(&self, make: F) -> Result<CliqueRun<A::Output>, SimError>
    where
        A: CliqueAlgorithm,
        F: Fn(usize) -> A + Sync,
    {
        let n = self.input.n();
        let collector = self.collector.as_deref();
        let tracing = collector.is_some();
        // Mirrors `engine.rs`: deps construction is skipped when no
        // collector asks for provenance; ids and events keep flowing.
        let provenance = collector.is_some_and(Collector::wants_provenance);
        let empty_deps: Arc<[u64]> = Arc::from([]);
        let prof = self.cfg.profiler.as_deref();
        let rec = |ev: SimEvent| {
            if let Some(c) = collector {
                c.record(&ev);
            }
        };
        if tracing {
            rec(SimEvent::Meta {
                n,
                bandwidth_bits: self.bandwidth_bits,
                seed: self.cfg.seed,
            });
        }
        let mut contexts: Vec<CliqueContext> = (0..n)
            .map(|v| CliqueContext {
                index: v,
                n,
                input_neighbors: self.input.neighbors(v).to_vec(),
                round: 0,
            })
            .collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..n)
            .map(|v| {
                let mut seeder = ChaCha8Rng::seed_from_u64(self.cfg.seed);
                let salt: u64 = seeder.gen::<u64>() ^ (v as u64).wrapping_mul(0xD1B54A32D192ED03);
                ChaCha8Rng::seed_from_u64(salt)
            })
            .collect();
        let mut nodes: Vec<A> = (0..n).map(&make).collect();
        let mut stats = CliqueStats {
            rounds: 0,
            total_bits: 0,
            total_messages: 0,
            max_pair_round_bits: 0,
        };
        let mut traffic = RunStats::complete(n);

        let t_init = prof_start(prof);
        let mut outboxes: Vec<PairOutbox<A::Msg>> = nodes
            .par_iter_mut()
            .zip(contexts.par_iter())
            .zip(rngs.par_iter_mut())
            .map(|((node, ctx), rng)| node.init(ctx, rng))
            .collect();
        prof_record(prof, Section::Compute, t_init);

        let mut completed = nodes.iter().all(|nd| nd.halted());

        // Per-run buffers, reused every round: inboxes (cleared in place)
        // and the per-destination accounting scratch. Destination
        // membership is a packed u64 bitmap (`seen_words`) with a
        // word-granular dirty list (`touched_words`, one entry per
        // 64-destination block actually hit), so both the reset and the
        // settlement sweep cost O(distinct destination blocks), not O(n),
        // and settlement walks set bits with `trailing_zeros` instead of a
        // per-destination branch.
        let mut inboxes: Vec<Vec<(u32, A::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        let mut dest_bits: Vec<usize> = vec![0; n];
        let mut seen_words: Vec<u64> = vec![0; n.div_ceil(64)];
        let mut touched_words: Vec<u32> = Vec::new();

        // Causal provenance (tracing only), mirroring `engine.rs`: ids in
        // node order at accounting time, previous-round delivery sets as
        // the deps stamped on this round's sends.
        let mut next_msg_id: u64 = 0;
        let mut id_base: Vec<u64> = Vec::new();
        let mut prev_delivered: Vec<Vec<u64>> = if provenance {
            (0..n).map(|_| Vec::new()).collect()
        } else {
            Vec::new()
        };
        let mut cur_delivered: Vec<Vec<u64>> = prev_delivered.clone();

        for round in 1..=self.max_rounds {
            if completed && outboxes.iter().all(|o| o.is_empty()) {
                break;
            }
            rec(SimEvent::RoundStart { round });
            let before_bits = traffic.total_bits;
            let before_msgs = traffic.total_messages;

            if tracing {
                id_base.clear();
                let mut next = next_msg_id;
                for ob in &outboxes {
                    id_base.push(next);
                    next += ob.len() as u64;
                }
                next_msg_id = next;
            }

            // Bandwidth accounting per ordered pair. Settlement walks the
            // touched 64-destination blocks in ascending order and the set
            // bits within each word via `trailing_zeros`, so per-pair sums
            // are settled in ascending destination order — in particular,
            // when one outbox overflows several pairs at once the reported
            // `BandwidthExceeded` names the lowest-indexed destination.
            let t_acct = prof_start(prof);
            for (from, outbox) in outboxes.iter().enumerate() {
                if outbox.is_empty() {
                    continue;
                }
                let sender_deps: Option<Arc<[u64]>> = if tracing {
                    if provenance {
                        Some(Arc::from(prev_delivered[from].as_slice()))
                    } else {
                        Some(Arc::clone(&empty_deps))
                    }
                } else {
                    None
                };
                for (idx, (to, m)) in outbox.iter().enumerate() {
                    let to = *to as usize;
                    if to >= n || to == from {
                        return Err(SimError::InvalidDestination { from, to });
                    }
                    let w = to >> 6;
                    if seen_words[w] == 0 {
                        touched_words.push(w as u32);
                    }
                    seen_words[w] |= 1u64 << (to & 63);
                    dest_bits[to] += m.bit_size();
                    stats.total_messages += 1;
                    traffic.total_messages += 1;
                    if let Some(deps) = &sender_deps {
                        rec(SimEvent::Send {
                            round,
                            from,
                            port: to,
                            bits: m.bit_size(),
                            msg_id: id_base[from] + idx as u64,
                            deps: Arc::clone(deps),
                        });
                    }
                }
                touched_words.sort_unstable();
                for &w in &touched_words {
                    let mut word = seen_words[w as usize];
                    seen_words[w as usize] = 0;
                    while word != 0 {
                        let to = ((w as usize) << 6) + word.trailing_zeros() as usize;
                        word &= word - 1;
                        let bits = dest_bits[to];
                        dest_bits[to] = 0;
                        if bits > self.bandwidth_bits {
                            return Err(SimError::PairBandwidthExceeded {
                                from,
                                to,
                                attempted: bits,
                                limit: self.bandwidth_bits,
                                round,
                            });
                        }
                        stats.total_bits += bits as u64;
                        stats.max_pair_round_bits = stats.max_pair_round_bits.max(bits);
                        traffic.total_bits += bits as u64;
                        traffic.max_edge_round_bits = traffic.max_edge_round_bits.max(bits);
                        // Node `from`'s slot row has `n - 1` entries, one
                        // per other node, in index order with `from` itself
                        // skipped.
                        let slot =
                            traffic.offsets[from] as usize + if to < from { to } else { to - 1 };
                        traffic.directed_edge_bits[slot] += bits as u64;
                    }
                }
                touched_words.clear();
            }
            stats.rounds = round;
            traffic.rounds = round;
            let round_bits = traffic.total_bits - before_bits;
            let round_msgs = traffic.total_messages - before_msgs;
            traffic.per_round_bits.push(round_bits);
            traffic.per_round_messages.push(round_msgs);
            prof_record(prof, Section::Account, t_acct);

            // Deliver: bucket messages by destination into the reused
            // inboxes. Accounting already read every payload above, so
            // delivery *moves* the messages instead of cloning them, and
            // sender-ascending push order keeps inboxes deterministic.
            let t_deliver = prof_start(prof);
            for inbox in inboxes.iter_mut() {
                inbox.clear();
            }
            if provenance {
                for d in cur_delivered.iter_mut() {
                    d.clear();
                }
            }
            for (from, outbox) in outboxes.iter_mut().enumerate() {
                for (idx, (to, m)) in outbox.drain(..).enumerate() {
                    let to = to as usize;
                    if tracing {
                        let msg_id = id_base[from] + idx as u64;
                        // Clique delivery events reuse `port` for the
                        // sender index (the inbox pairs payloads with their
                        // source, not an incident port).
                        rec(SimEvent::Deliver {
                            round,
                            from,
                            to,
                            port: from,
                            bits: m.bit_size(),
                            msg_id,
                        });
                        if provenance {
                            cur_delivered[to].push(msg_id);
                        }
                    }
                    inboxes[to].push((from as u32, m));
                }
            }
            if provenance {
                std::mem::swap(&mut prev_delivered, &mut cur_delivered);
            }
            prof_record(prof, Section::Deliver, t_deliver);

            // Step, writing each node's new outbox in place (the old ones
            // were drained above) — no per-round collect.
            let t_step = prof_start(prof);
            nodes
                .par_iter_mut()
                .zip(outboxes.par_iter_mut())
                .zip(contexts.par_iter_mut())
                .zip(rngs.par_iter_mut())
                .zip(inboxes.par_iter())
                .for_each(|((((node, outbox), ctx), rng), inbox)| {
                    if !node.halted() {
                        // Update the round in place; cloning the context
                        // would copy `input_neighbors` every round.
                        ctx.round = round;
                        *outbox = node.on_round(ctx, inbox, rng);
                    }
                });
            prof_record(prof, Section::Compute, t_step);

            rec(SimEvent::RoundEnd {
                round,
                bits: round_bits,
                messages: round_msgs,
                dropped: 0,
                corrupted: 0,
            });

            completed = nodes.iter().all(|nd| nd.halted());
        }

        // No fault layer on the clique: everything sent was delivered.
        let faults = FaultReport {
            delivered: traffic.total_messages,
            ..FaultReport::default()
        };
        Ok(CliqueRun {
            outputs: nodes.iter().map(|nd| nd.output()).collect(),
            stats,
            outcome: Outcome {
                decisions: Vec::new(),
                stats: traffic,
                completed,
                faults,
                degraded: None,
                metrics: MetricsSnapshot::default(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators;

    /// Each node sends its degree to node 0, which sums them up.
    struct DegreeSum {
        acc: u64,
        done: bool,
    }

    impl CliqueAlgorithm for DegreeSum {
        type Msg = u32;
        type Output = u64;

        fn init(&mut self, ctx: &CliqueContext, _rng: &mut ChaCha8Rng) -> Vec<(u32, u32)> {
            if ctx.index == 0 {
                self.acc = ctx.input_neighbors.len() as u64;
                Vec::new()
            } else {
                vec![(0, ctx.input_neighbors.len() as u32)]
            }
        }

        fn on_round(
            &mut self,
            ctx: &CliqueContext,
            inbox: &[(u32, u32)],
            _rng: &mut ChaCha8Rng,
        ) -> Vec<(u32, u32)> {
            if ctx.index == 0 {
                self.acc += inbox.iter().map(|&(_, d)| d as u64).sum::<u64>();
            }
            self.done = true;
            Vec::new()
        }

        fn halted(&self) -> bool {
            self.done
        }

        fn output(&self) -> u64 {
            self.acc
        }
    }

    #[test]
    fn degree_sum_counts_edges_twice() {
        let g = generators::cycle(6);
        let run = crate::simulation::Simulation::on(&g)
            .bandwidth(crate::Bandwidth::Bits(32))
            .run_clique(|_| DegreeSum {
                acc: 0,
                done: false,
            })
            .unwrap()
            .into_clique();
        assert!(run.outcome.completed);
        assert_eq!(run.outputs[0], 2 * g.m() as u64);
        // 5 nodes each sent one 32-bit message to node 0.
        assert_eq!(run.stats.total_bits, 5 * 32);
        // The all-to-all traffic stats agree with the clique stats, and the
        // per-pair slots pin exactly who talked to whom.
        assert_eq!(run.outcome.stats.total_bits, 5 * 32);
        assert_eq!(run.outcome.stats.per_round_bits, vec![5 * 32]);
        // Node 1's slot toward node 0 (slot index 0 of its row).
        assert_eq!(run.outcome.stats.edge_bits(1, 0), 32);
        // Node 0 sent nothing.
        assert_eq!(run.outcome.stats.node_bits(0), 0);
    }

    #[test]
    fn clique_bandwidth_enforced() {
        let g = generators::cycle(4);
        let err = crate::simulation::Simulation::on(&g)
            .bandwidth(crate::Bandwidth::Bits(8))
            .run_clique(|_| DegreeSum {
                acc: 0,
                done: false,
            })
            .unwrap_err();
        assert!(matches!(err, SimError::PairBandwidthExceeded { .. }));
    }

    #[test]
    fn self_message_rejected() {
        struct SelfSender;
        impl CliqueAlgorithm for SelfSender {
            type Msg = u32;
            type Output = ();
            fn init(&mut self, ctx: &CliqueContext, _r: &mut ChaCha8Rng) -> Vec<(u32, u32)> {
                vec![(ctx.index as u32, 1)]
            }
            fn on_round(
                &mut self,
                _c: &CliqueContext,
                _i: &[(u32, u32)],
                _r: &mut ChaCha8Rng,
            ) -> Vec<(u32, u32)> {
                Vec::new()
            }
            fn halted(&self) -> bool {
                false
            }
            fn output(&self) {}
        }
        let g = generators::cycle(3);
        let err = crate::simulation::Simulation::on(&g)
            .run_clique(|_| SelfSender)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidDestination { .. }));
    }
}
