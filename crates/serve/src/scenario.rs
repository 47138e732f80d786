//! Query execution: a resolved [`Job`] (graph handle + optional staged
//! topology, both possibly cache hits) runs to a [`QueryOutcome`].
//!
//! Resolution and execution are deliberately split: the service resolves
//! caches *sequentially* (so hit/miss accounting is deterministic), then
//! executes resolved jobs *in parallel* over the rayon pool. Nothing in
//! here touches the caches — a `Job` owns shared handles to everything it
//! needs, so executions are independent and order-free, and every query is
//! seeded explicitly, so a batch's answers are byte-identical at any
//! thread count.

use std::sync::Arc;

use congest::{
    bits_for_domain, Bandwidth, FaultSpec, Prepared, ReliableConfig, RunReport, SimError,
    Simulation,
};
use graphlib::Graph;
use subgraph_detection::clique_detect::CliqueDetectNode;
use subgraph_detection::{
    detect_even_cycle, detect_even_cycle_faulty, detect_even_cycle_prepared, EvenCycleConfig,
};

use crate::protocol::ScenarioSpec;

/// One resolved, ready-to-run query.
pub struct Job {
    /// The (cached) input graph.
    pub graph: Arc<Graph>,
    /// The staged clique topology, when the scenario uses one.
    pub prepared: Option<Prepared>,
    /// What to run.
    pub scenario: ScenarioSpec,
}

/// What a query produced, before response formatting.
pub struct QueryOutcome {
    /// The detector's verdict.
    pub detected: bool,
    /// Rounds the run(s) consumed.
    pub rounds: usize,
    /// Total bits over all edges and rounds.
    pub total_bits: u64,
    /// Total messages.
    pub total_messages: u64,
    /// The schema-versioned run report for the response line.
    pub report: RunReport,
}

/// Stages the clique-scenario topology for `graph`: bandwidth and round
/// budget are functions of the topology alone (`Θ(log n)` bits, `Δ + 3`
/// rounds), so one `Prepared` serves every `K_s` query — any `s`, any
/// seed, any fault override — against the same graph.
pub fn prepare_clique(graph: &Arc<Graph>) -> Prepared {
    let horizon = clique_horizon(graph);
    Simulation::on_shared(Arc::clone(graph))
        .bandwidth(Bandwidth::Bits(bits_for_domain(graph.n().max(2))))
        .max_rounds(horizon + 2)
        .prepare()
}

/// The streaming horizon [`CliqueDetectNode`] needs: `Δ + 1`.
pub fn clique_horizon(graph: &Graph) -> usize {
    graph.max_degree() + 1
}

/// Stages the even-cycle topology for `graph`: the staged configuration is
/// a pure function of the graph plus `(k, edge_bound)` (bandwidth and
/// shard layout come from the schedule, which ignores seed and repetition
/// count), so one `Prepared` serves every clean `C_{2k}` query against the
/// same graph — any seed, any repetition budget.
pub fn prepare_even_cycle(graph: &Arc<Graph>, k: usize, edge_bound: Option<usize>) -> Prepared {
    let mut cfg = EvenCycleConfig::new(k);
    if let Some(m) = edge_bound {
        cfg = cfg.edge_bound(m);
    }
    subgraph_detection::prepare_even_cycle(graph, &cfg)
}

/// Runs a resolved job. Pure function of the job — no shared mutable
/// state, safe to call from any rayon worker.
pub fn execute(job: &Job) -> Result<QueryOutcome, SimError> {
    let label = job.scenario.label();
    match &job.scenario {
        ScenarioSpec::EvenCycle {
            k,
            repetitions,
            seed,
            edge_bound,
            faults,
            reliable,
        } => {
            let mut cfg = EvenCycleConfig::new(*k)
                .repetitions(*repetitions)
                .seed(*seed);
            if let Some(m) = edge_bound {
                cfg = cfg.edge_bound(*m);
            }
            let (detected, report, stats) = match faults {
                None => {
                    // A cached staging (resolved by the service) skips the
                    // per-query bandwidth/shard setup; the run itself is
                    // byte-identical to the unstaged path.
                    let rep = match &job.prepared {
                        Some(p) => detect_even_cycle_prepared(cfg, p)?,
                        None => detect_even_cycle(&job.graph, cfg)?,
                    };
                    (rep.detected, rep.run_report(&label), rep.stats)
                }
                Some(spec) => {
                    let transport = reliable.then(ReliableConfig::default);
                    let rep = detect_even_cycle_faulty(&job.graph, cfg, spec, transport)?;
                    (rep.detected, rep.run_report(&label), rep.stats)
                }
            };
            Ok(QueryOutcome {
                detected,
                rounds: stats.rounds,
                total_bits: stats.total_bits,
                total_messages: stats.total_messages,
                report,
            })
        }
        ScenarioSpec::CliqueDetect { s, seed, faults } => {
            let prepared = job
                .prepared
                .as_ref()
                .expect("clique jobs carry a staged topology");
            let horizon = clique_horizon(&job.graph);
            let s = *s;
            let ovr = congest::Overrides::new()
                .seed(*seed)
                .faults(faults.clone().unwrap_or(FaultSpec::None));
            let out = prepared.run_with(&ovr, move |_| CliqueDetectNode::new(s, horizon))?;
            // Only surviving nodes' rejects count as protocol output — the
            // even-cycle drivers' convention; with nothing crashed every
            // node survives.
            Ok(QueryOutcome {
                detected: out.surviving_node_rejects(),
                rounds: out.stats.rounds,
                total_bits: out.stats.total_bits,
                total_messages: out.stats.total_messages,
                report: out.report(&label),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::GraphSpec;

    fn job(graph: GraphSpec, scenario: ScenarioSpec) -> Job {
        let graph = Arc::new(graph.build());
        let prepared =
            matches!(scenario, ScenarioSpec::CliqueDetect { .. }).then(|| prepare_clique(&graph));
        Job {
            graph,
            prepared,
            scenario,
        }
    }

    #[test]
    fn triangle_detects_on_a_clique_and_not_on_a_cycle() {
        let hit = execute(&job(
            GraphSpec::CliqueGraph { n: 6 },
            ScenarioSpec::CliqueDetect {
                s: 3,
                seed: 1,
                faults: None,
            },
        ))
        .unwrap();
        assert!(hit.detected);
        let miss = execute(&job(
            GraphSpec::Cycle { n: 12 },
            ScenarioSpec::CliqueDetect {
                s: 3,
                seed: 1,
                faults: None,
            },
        ))
        .unwrap();
        assert!(!miss.detected);
        assert!(miss.total_bits > 0);
    }

    #[test]
    fn even_cycle_detects_a_planted_c4() {
        let out = execute(&job(
            GraphSpec::PlantedC2k {
                n: 48,
                d: 3,
                k: 2,
                seed: 7,
            },
            ScenarioSpec::EvenCycle {
                k: 2,
                // The detector is randomized with small per-repetition
                // success probability; amplification does the work (it
                // early-exits on the first detecting repetition).
                repetitions: 6000,
                seed: 11,
                edge_bound: None,
                faults: None,
                reliable: false,
            },
        ))
        .unwrap();
        assert!(out.detected, "planted C4 should be found");
    }

    #[test]
    fn shared_prepared_matches_detect_clique_driver() {
        let spec = GraphSpec::Gnp {
            n: 40,
            p: 0.15,
            seed: 21,
        };
        let g = spec.build();
        let reference = subgraph_detection::clique_detect::detect_clique(&g, 3).unwrap();
        let out = execute(&job(
            spec,
            ScenarioSpec::CliqueDetect {
                s: 3,
                seed: 0,
                faults: None,
            },
        ))
        .unwrap();
        assert_eq!(out.detected, reference.detected);
        assert_eq!(out.rounds, reference.rounds);
        assert_eq!(out.total_bits, reference.total_bits);
    }

    #[test]
    fn one_prepared_serves_many_seeds_and_fault_overrides() {
        let graph = Arc::new(
            GraphSpec::PlantedC2k {
                n: 64,
                d: 3,
                k: 2,
                seed: 5,
            }
            .build(),
        );
        let prepared = prepare_clique(&graph);
        for seed in 0..3u64 {
            for faults in [None, Some(FaultSpec::IndependentLoss(0.3))] {
                let j = Job {
                    graph: Arc::clone(&graph),
                    prepared: Some(prepared.clone()),
                    scenario: ScenarioSpec::CliqueDetect {
                        s: 3,
                        seed,
                        faults: faults.clone(),
                    },
                };
                let a = execute(&j).unwrap();
                let b = execute(&j).unwrap();
                assert_eq!(a.detected, b.detected, "reruns must agree");
                assert_eq!(a.report.to_json(), b.report.to_json());
            }
        }
    }
}
