//! The paper's experiments, E1–E8. Every function is deterministic given
//! its seed; the `report` binary prints the same series EXPERIMENTS.md
//! records.

use graphlib::{generators, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use subgraph_detection as detection;

/// One row of the E1 sweep.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Number of nodes.
    pub n: usize,
    /// Rounds of one repetition of the Theorem 1.1 detector.
    pub detector_rounds: usize,
    /// The theoretical shape `n^{1-1/(k(k-1))}`.
    pub bound: f64,
    /// Rounds of the gather-at-leader baseline on the same graph.
    pub baseline_rounds: usize,
    /// Whether the planted cycle was detected in the measured repetitions.
    pub detected: bool,
}

/// E1 — Theorem 1.1: `C_2k` detection rounds vs `n`, against the linear
/// baseline. `sizes` are the `n` values; detection uses `reps` repetitions.
/// Runs the engine's production tuning (fused send pass + causal early
/// termination); the reported `detector_rounds` is the *schedule's*
/// per-repetition round count, so the series is tuning-independent.
/// `obs`, when given, rides every detector run (the flight-recorder arm of
/// the overhead gate in `tests/gates.rs`); `None` is the bare run — same
/// instances, same seeds, same decisions.
pub fn e1_even_cycle(
    k: usize,
    sizes: &[usize],
    reps: usize,
    seed: u64,
    obs: Option<&detection::EvenCycleObserver>,
) -> Vec<E1Row> {
    sizes
        .iter()
        .map(|&n| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ n as u64);
            let base = generators::random_tree(n, &mut rng);
            let (g, _) = generators::plant_cycle(&base, 2 * k, &mut rng);
            let cfg = detection::EvenCycleConfig::new(k)
                .repetitions(reps)
                .seed(seed)
                .early_termination(true);
            let rep = match obs {
                Some(o) => detection::detect_even_cycle_observed(&g, cfg, o).expect("engine"),
                None => detection::detect_even_cycle(&g, cfg).expect("engine"),
            };
            let cyc = generators::cycle(2 * k);
            let baseline = detection::detect_gather(&g, &cyc).expect("engine");
            E1Row {
                n,
                detector_rounds: rep.rounds_per_repetition,
                bound: detection::even_cycle::theorem_bound(n, k),
                baseline_rounds: baseline.rounds,
                detected: rep.detected,
            }
        })
        .collect()
}

/// Least-squares slope of `log(rounds)` against `log(n)` — the measured
/// exponent of a sweep.
pub fn fitted_exponent(points: &[(usize, usize)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, r)| ((n as f64).ln(), (r.max(1) as f64).ln()))
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// One row of the E2 sweep.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Disjointness side length (universe `[n]²`).
    pub n_copies: usize,
    /// Vertices of `G_{k,n}` (must be `Θ(n)`).
    pub graph_size: usize,
    /// Diameter (must be 3).
    pub diameter: usize,
    /// Measured directed cut size.
    pub cut: usize,
    /// Theoretical cut bound `Θ(k n^{1/k})`.
    pub cut_bound: usize,
    /// Bits the two-party simulation of the gather algorithm exchanged.
    pub sim_bits: u64,
    /// Rounds the gather algorithm took.
    pub rounds: usize,
    /// The implied lower bound on rounds for *any* algorithm,
    /// `Ω(n²) / (cut · B)`.
    pub implied_round_lb: f64,
    /// Lemma 3.1 verified on this instance (characterization vs input).
    pub lemma31_ok: bool,
}

/// E2 — Theorem 1.2: build `G_{k,n}`, check Property 1 and Lemma 3.1,
/// simulate a real detection algorithm two-party style, and report the
/// implied round bound.
pub fn e2_superlinear(k: usize, copies: &[usize], seed: u64) -> Vec<E2Row> {
    use lowerbounds::{FamilyLayout, HkGraph};
    copies
        .iter()
        .map(|&nc| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ nc as u64);
            let lay = FamilyLayout::new(k, nc);
            let inst =
                commlb::DisjointnessInstance::random_intersecting(nc, 1.0 / nc as f64, &mut rng);
            let g = lay.build(&inst.x_pairs(), &inst.y_pairs());
            let parts = lay.partition();
            let diameter = graphlib::diameter::diameter(&g).unwrap_or(usize::MAX);
            // Lemma 3.1 on this instance: characterization vs the input.
            let lemma31_ok =
                FamilyLayout::contains_hk(&inst.x_pairs(), &inst.y_pairs()) != inst.disjoint();
            // Two-party simulation of the gather detector for H_k.
            let hk = HkGraph::build(k).graph;
            let bw = congest::Bandwidth::Bits(2 * congest::bits_for_domain(g.n()) + 2);
            let pattern = hk.clone();
            let (outcome, sim) = commlb::simulate_two_party(
                &g,
                &parts,
                bw,
                16 * (g.n() + g.m() + 4),
                seed,
                move |_| detection::generic::GatherNode::new(pattern.clone()),
            )
            .expect("engine");
            let bbits = 2 * congest::bits_for_domain(g.n()) + 2;
            E2Row {
                n_copies: nc,
                graph_size: g.n(),
                diameter,
                cut: sim.cut_size(),
                cut_bound: lay.cut_bound(),
                sim_bits: sim.bits_exchanged,
                rounds: outcome.stats.rounds,
                implied_round_lb: lowerbounds::implied_round_lower_bound(nc, sim.cut_size(), bbits),
                lemma31_ok,
            }
        })
        .collect()
}

/// One row of E3.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Digest width `c`.
    pub bits: usize,
    /// Distinct transcripts observed over all `n³` triangles.
    pub transcript_classes: usize,
    /// Largest transcript class.
    pub largest_class: usize,
    /// The §4 floor `n³ / 2^{6(C+1)}` with `C = 2c`.
    pub class_floor: f64,
    /// Whether the adversary produced a fooling hexagon.
    pub fooled: bool,
}

/// E3 — Theorem 4.1: adversary sweep over digest widths.
pub fn e3_fooling(n: usize) -> Vec<E3Row> {
    let max_bits = congest::bits_for_domain(n);
    (1..=max_bits)
        .map(|c| {
            let rep = lowerbounds::run_adversary(&lowerbounds::IdHashAlgo { bits: c }, n);
            assert!(rep.all_triangles_rejected, "Claim 4.3");
            E3Row {
                bits: c,
                transcript_classes: rep.transcript_classes,
                largest_class: rep.largest_bucket,
                class_floor: (n * n * n) as f64 / 2f64.powi((6 * (2 * c + 1)) as i32),
                fooled: rep.witness.is_some(),
            }
        })
        .collect()
}

/// One row of E4.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Entries each node may forward (`usize::MAX` = full input).
    pub budget: usize,
    /// Message size in bits (per edge).
    pub message_bits: usize,
    /// Detection error over μ.
    pub error: f64,
    /// Empirical `I(X_bc; messages reaching v_a | X_ab = X_ac = 1)`.
    pub information: f64,
    /// The Lemma 5.4 leakage bound.
    pub leakage_bound: f64,
}

/// E4 — Theorem 5.1: error and information vs one-round message budget on
/// the μ distribution with pendant-set size `n`.
pub fn e4_one_round(n: usize, trials: usize, seed: u64) -> Vec<E4Row> {
    use detection::triangle::{message_bits, OneRoundStrategy};
    let namespace = ((3 * n + 3) as u64).pow(3);
    let mut budgets: Vec<usize> = vec![0, 1, 2, 4];
    let mut b = 8;
    while b < n + 2 {
        budgets.push(b);
        b *= 2;
    }
    budgets.push(n + 2);
    budgets
        .into_iter()
        .map(|budget| {
            let strategy = if budget >= n + 2 {
                OneRoundStrategy::Full
            } else {
                OneRoundStrategy::Prefix(budget)
            };
            let error = lowerbounds::detection_error(n, strategy, trials, seed);
            let information =
                lowerbounds::information_about_xbc(n, strategy, trials, seed ^ 0x5A5A);
            E4Row {
                budget: budget.min(n + 2),
                message_bits: message_bits(budget.min(n + 2), namespace),
                error,
                information,
                leakage_bound: lowerbounds::template::lemma_5_4_bound(n, budget.min(n + 2)),
            }
        })
        .collect()
}

/// One row of E5.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Clique size `s`.
    pub s: usize,
    /// Graph size.
    pub n: usize,
    /// Listed clique count (verified exact against centralized listing).
    pub cliques: usize,
    /// Rounds used by the congested-clique listing.
    pub rounds: usize,
    /// The shape bound `n^{1-2/s}`.
    pub bound: f64,
    /// Lemma 1.3 ratio `#K_s / m^{s/2}` (must stay `O(1)`).
    pub lemma_ratio: f64,
    /// The information-counting lower-bound certificate for this instance
    /// (`rounds` must exceed it).
    pub certificate: f64,
    /// Whether the distributed listing matched centralized enumeration.
    pub exact: bool,
}

/// E5 — Lemma 1.3 + `K_s` listing: sweep `n` for each `s`.
pub fn e5_listing(s: usize, sizes: &[usize], p: f64, seed: u64) -> Vec<E5Row> {
    sizes
        .iter()
        .map(|&n| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (s * 1000 + n) as u64);
            let g = generators::gnp(n, p, &mut rng);
            let rep = lowerbounds::list_cliques_congested(&g, s, seed).expect("engine");
            let mut truth = graphlib::cliques::list_ksub(&g, s, usize::MAX);
            truth.sort();
            let (_, _, ratio) = lowerbounds::clique_count_ratio(&g, s);
            let certificate = lowerbounds::listing::listing_lower_bound_certificate(
                n,
                s,
                rep.cliques.len() as u64,
                congest::bits_for_domain(n.max(2)),
            );
            E5Row {
                s,
                n,
                cliques: rep.cliques.len(),
                rounds: rep.rounds,
                bound: rep.round_bound,
                lemma_ratio: ratio,
                certificate,
                exact: rep.cliques == truth,
            }
        })
        .collect()
}

/// One row of E6.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// Cycle half-length `k`.
    pub k: usize,
    /// Repetitions measured.
    pub reps: usize,
    /// Empirical per-repetition success probability of the Theorem 1.1
    /// detector on a graph that is exactly one `C_2k`.
    pub empirical_success: f64,
    /// The paper's per-repetition guarantee `(2k)^{-2k}`.
    pub guarantee: f64,
}

/// E6 — color-coding amplification: per-repetition success probability vs
/// the `(2k)^{-2k}` guarantee.
pub fn e6_color_coding(k: usize, reps: usize, seed: u64) -> E6Row {
    let g = generators::cycle(2 * k);
    let mut successes = 0usize;
    for r in 0..reps {
        let cfg = detection::EvenCycleConfig::new(k)
            .repetitions(1)
            .seed(seed ^ r as u64)
            .edge_bound(4 * k);
        let rep = detection::detect_even_cycle(&g, cfg).expect("engine");
        if rep.detected {
            successes += 1;
        }
    }
    E6Row {
        k,
        reps,
        empirical_success: successes as f64 / reps as f64,
        guarantee: (2.0 * k as f64).powi(-2 * k as i32),
    }
}

/// One row of E7.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Graph size.
    pub n: usize,
    /// Edges of the dense `C_4`-free incidence graph.
    pub m: usize,
    /// The algorithm's bound `M(n, 2)`.
    pub edge_bound: usize,
    /// Nodes of degree `>= n^δ` in the incidence graph.
    pub high_degree_nodes: usize,
    /// The Phase-I pipelining cap `⌈M / n^δ⌉`.
    pub high_degree_cap: usize,
}

/// E7 — the Turán prerequisite of §6: dense even-cycle-free graphs stay
/// under `M(n, k)`, and the number of high-degree nodes under `M/n^δ`.
pub fn e7_turan(primes: &[usize]) -> Vec<E7Row> {
    primes
        .iter()
        .map(|&q| {
            let g = graphlib::turan::c4_free_incidence_graph(q);
            let n = g.n();
            let m_bound = graphlib::turan::even_cycle_edge_bound(n, 2);
            let sched = detection::Schedule::derive(n, 2, None);
            let thr = sched.degree_threshold;
            let high = (0..n).filter(|&v| g.degree(v) >= thr).count();
            E7Row {
                n,
                m: g.m(),
                edge_bound: m_bound,
                high_degree_nodes: high,
                high_degree_cap: m_bound.div_ceil(thr),
            }
        })
        .collect()
}

/// E7b — the Phase-I pipelining cap on hub-heavy graphs: for `k = 3`
/// (`δ = 1/2`) a preferential-attachment graph has genuine high-degree
/// nodes, and their count must stay under `⌈M/n^δ⌉` whenever
/// `|E| <= M(n, 3)` (Lemma 6.1's premise).
pub fn e7b_high_degree(sizes: &[usize], seed: u64) -> Vec<E7Row> {
    sizes
        .iter()
        .map(|&n| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ n as u64);
            let g = generators::preferential_attachment(n, 3, &mut rng);
            let m_bound = graphlib::turan::even_cycle_edge_bound(n, 3);
            let sched = detection::Schedule::derive(n, 3, None);
            let thr = sched.degree_threshold;
            let high = (0..n).filter(|&v| g.degree(v) >= thr).count();
            E7Row {
                n,
                m: g.m(),
                edge_bound: m_bound,
                high_degree_nodes: high,
                high_degree_cap: m_bound.div_ceil(thr),
            }
        })
        .collect()
}

/// One row of E8.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// Graph size.
    pub n: usize,
    /// Rounds per repetition of the color-coded tree detector.
    pub tree_rounds: usize,
    /// Rounds of the LOCAL ball collector for the same pattern.
    pub local_rounds: usize,
    /// Whether detection agreed with ground truth.
    pub correct: bool,
}

/// E8 — constant-round tree detection across `n` (pattern: the 4-path).
pub fn e8_tree(sizes: &[usize], reps: usize, seed: u64) -> Vec<E8Row> {
    let pat_graph = generators::path(4);
    let pattern = detection::TreePattern::path(4);
    sizes
        .iter()
        .map(|&n| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ n as u64);
            let g = generators::gnm(n, 2 * n, &mut rng);
            let truth = graphlib::iso::contains_subgraph(&pat_graph, &g);
            let rep = detection::detect_tree(&g, &pattern, reps, seed).expect("engine");
            let local = detection::detect_local(&g, &pat_graph).expect("engine");
            E8Row {
                n,
                tree_rounds: rep.rounds_per_repetition,
                local_rounds: local.rounds,
                correct: rep.detected == truth,
            }
        })
        .collect()
}

/// One row of the E1 ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Detection rate of Phase I alone over the repetitions.
    pub phase1_rate: f64,
    /// Detection rate of Phase II alone.
    pub phase2_rate: f64,
    /// Repetitions per phase.
    pub reps: usize,
}

/// The hub-cycle graph: a `C_6` whose six vertices each carry `hubs`
/// pendant leaves — every cycle vertex is high-degree for the `k = 3`
/// threshold `n^{1/2}`.
pub fn hub_cycle_graph(hubs: usize) -> Graph {
    let n = 6 + 6 * hubs;
    let mut b = graphlib::GraphBuilder::new(n);
    for i in 0..6 {
        b.add_edge(i, (i + 1) % 6);
    }
    let mut next = 6;
    for i in 0..6 {
        for _ in 0..hubs {
            b.add_edge(i, next);
            next += 1;
        }
    }
    b.build()
}

/// E1 ablation (DESIGN.md): each phase alone covers only its half of the
/// cycle space. On the hub cycle only Phase I can fire (Phase II removes
/// every cycle vertex); on a low-degree planted cycle only Phase II can
/// (no node clears the Phase-I degree threshold). Uses a calibrated edge
/// bound (`2m >= |E|`, still a valid Turán stand-in for these sparse
/// graphs) to keep schedules short.
pub fn e1_ablation(reps: usize, seed: u64) -> Vec<AblationRow> {
    let k = 3;
    // Scenario A: cycle through hubs.
    let hub = hub_cycle_graph(14); // n = 90, threshold = ceil(sqrt(90)) = 10
                                   // Scenario B: cycle among low-degree nodes.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let base = generators::random_tree(90, &mut rng);
    let (low, _) = generators::plant_cycle(&base, 6, &mut rng);

    let run = |g: &Graph, name: &'static str| {
        let cfg = detection::EvenCycleConfig::new(k)
            .seed(seed)
            .edge_bound(2 * g.m());
        let mut p1 = 0usize;
        let mut p2 = 0usize;
        for r in 0..reps {
            if detection::even_cycle::run_phase1_once(g, &cfg, r as u64).expect("engine") {
                p1 += 1;
            }
            if detection::even_cycle::run_phase2_once(g, &cfg, r as u64).expect("engine") {
                p2 += 1;
            }
        }
        AblationRow {
            scenario: name,
            phase1_rate: p1 as f64 / reps as f64,
            phase2_rate: p2 as f64 / reps as f64,
            reps,
        }
    };
    vec![run(&hub, "C6 through hubs"), run(&low, "C6 low-degree")]
}

/// E2b — §3.4 bipartite variant: structural metrics per size.
#[derive(Debug, Clone)]
pub struct E2bRow {
    /// Copies per direction.
    pub n_copies: usize,
    /// Family graph size.
    pub graph_size: usize,
    /// Whether the family graph is bipartite.
    pub bipartite: bool,
    /// Undirected player-crossing edges (the cut).
    pub cut: usize,
    /// `m = k⌈n^{1/k}⌉` gadgets per side.
    pub gadgets: usize,
    /// The §3.4 bound `n^{2-1/k-1/s}/(Bk)` at `B = log n`, `s = 2`.
    pub bound: f64,
}

/// E2b — the bipartite family sweep.
pub fn e2b_bipartite(k: usize, copies: &[usize]) -> Vec<E2bRow> {
    use lowerbounds::bipartite::{bipartite_round_bound, BipartiteFamily};
    copies
        .iter()
        .map(|&nc| {
            let fam = BipartiteFamily::new(k, nc);
            let g = fam.build(&[(0, nc - 1)], &[(0, nc - 1)]);
            let parts = fam.partition();
            let cut = g
                .edges()
                .filter(|&(u, v)| parts[u as usize] != parts[v as usize])
                .count();
            E2bRow {
                n_copies: nc,
                graph_size: g.n(),
                bipartite: graphlib::components::is_bipartite(&g),
                cut,
                gadgets: fam.m_gadgets,
                bound: bipartite_round_bound(nc, 2, k, congest::bits_for_domain(nc)),
            }
        })
        .collect()
}

/// One row of E9.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// Scenario name.
    pub scenario: &'static str,
    /// Probe rounds given to the tester.
    pub probes: usize,
    /// Tester detection probability.
    pub tester_detection: f64,
    /// Exact detector found the triangle (always, by exactness).
    pub exact_detects: bool,
    /// Exact neighbor-exchange rounds on the same graph (`Δ + 1`).
    pub exact_rounds: usize,
}

/// A single triangle hidden among three hubs: hubs `0,1,2` form a triangle
/// and each carries `fan` pendant leaves, so a tester probe at a hub hits
/// the triangle pair with probability only `1/C(fan+2, 2)`. The graph is
/// *not* ε-far from triangle-free (one deletion suffices) — the regime the
/// relaxation gives away and the paper's exact setting keeps.
pub fn hidden_triangle_graph(fan: usize) -> Graph {
    let n = 3 + 3 * fan;
    let mut b = graphlib::GraphBuilder::new(n);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 0);
    let mut next = 3;
    for hub in 0..3 {
        for _ in 0..fan {
            b.add_edge(hub, next);
            next += 1;
        }
    }
    b.build()
}

/// E9 — the property-testing relaxation (§1.2 contrast): near-perfect on a
/// far graph with one probe, but blind to a single hidden triangle that the
/// exact detectors always find.
pub fn e9_property_testing(trials: usize, seed: u64) -> Vec<E9Row> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let far = generators::gnp(120, 0.25, &mut rng); // triangle-dense: ε-far
    let hidden = hidden_triangle_graph(40);
    let mut rows = Vec::new();
    for (name, g) in [("eps-far G(n,.25)", &far), ("hidden triangle", &hidden)] {
        let exact = detection::detect_triangle(g).expect("engine");
        for &probes in &[1usize, 4, 16] {
            let p = detection::property_testing::detection_probability(g, probes, trials, seed);
            rows.push(E9Row {
                scenario: name,
                probes,
                tester_detection: p,
                exact_detects: exact.detected,
                exact_rounds: exact.rounds,
            });
        }
    }
    rows
}

/// One run of the scale experiment (E3-scale; `tests/gates.rs` runs it at
/// `n = 10^4` as a release smoke).
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Number of nodes.
    pub n: usize,
    /// Engine rounds across both phases of the single repetition.
    pub rounds: usize,
    /// Total bits on the wire.
    pub total_bits: u64,
    /// Whether the planted `C_4` was found (one repetition only, so this
    /// is a coin toss by design — the workload is the round loop, not the
    /// amplification).
    pub detected: bool,
    /// Shard count the engine was asked for (0 = one shard per lane).
    pub shards: usize,
}

/// The scale-experiment instance: a degree-`4`-bounded sparse graph with a
/// planted `C_4`, built by the streaming generator (peak memory stays
/// `O(n·d)`, no quadratic scratch).
pub fn scale_graph(n: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ n as u64);
    generators::planted_c2k(n, 4, 2, &mut rng).0
}

/// E3-scale — the sharded round engine at census sizes: ONE repetition of
/// the Theorem 1.1 `C_4` detector on [`scale_graph`] (`n = 10^5` is the
/// documented walkthrough size). There is no gather baseline here (its
/// round count is linear in `n`, which is the whole point of the theorem).
pub fn e3_scale(n: usize, shards: usize, seed: u64) -> ScaleRow {
    let g = scale_graph(n, seed);
    // Production tuning: fused send pass (the default) plus causal early
    // termination — the mostly-idle Phase II block windows are exactly the
    // rounds ET exists to skip, and at census sizes they dominate.
    let cfg = detection::EvenCycleConfig::new(2)
        .repetitions(1)
        .seed(seed)
        .shards(shards)
        .early_termination(true);
    let rep = detection::detect_even_cycle(&g, cfg).expect("engine");
    ScaleRow {
        n: g.n(),
        rounds: rep.total_rounds,
        total_bits: rep.total_bits,
        detected: rep.detected,
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_exponent_of_perfect_power() {
        let pts: Vec<(usize, usize)> = (5..10)
            .map(|e| {
                let n = 1usize << e;
                (n, ((n as f64).powf(0.5)) as usize)
            })
            .collect();
        let s = fitted_exponent(&pts);
        assert!((s - 0.5).abs() < 0.05, "slope = {s}");
    }

    #[test]
    fn e1_rows_are_sublinear_in_shape() {
        let rows = e1_even_cycle(2, &[64, 256], 1, 3, None);
        assert_eq!(rows.len(), 2);
        // Quadrupling n must far less than quadruple the detector rounds.
        let ratio = rows[1].detector_rounds as f64 / rows[0].detector_rounds as f64;
        assert!(ratio < 3.0, "ratio = {ratio}");
    }

    #[test]
    fn e3_has_threshold() {
        let rows = e3_fooling(8);
        assert!(rows.first().unwrap().fooled, "1 bit must be foolable");
        assert!(!rows.last().unwrap().fooled, "log n bits must be safe");
    }

    #[test]
    fn e6_success_rate_at_least_guarantee() {
        let row = e6_color_coding(2, 600, 5);
        assert!(
            row.empirical_success >= row.guarantee,
            "{} < {}",
            row.empirical_success,
            row.guarantee
        );
    }

    #[test]
    fn ablation_negative_directions_are_deterministic() {
        // Phase II can never see the hub cycle (its vertices are removed);
        // Phase I can never fire on the low-degree graph (nothing clears
        // the threshold, and the calibrated M prevents overflow rejects).
        let rows = e1_ablation(400, 3);
        let hub = &rows[0];
        let low = &rows[1];
        assert_eq!(hub.phase2_rate, 0.0, "hub cycle invisible to Phase II");
        assert_eq!(
            low.phase1_rate, 0.0,
            "low-degree cycle invisible to Phase I"
        );
    }

    #[test]
    fn hub_cycle_graph_shape() {
        let g = hub_cycle_graph(5);
        assert_eq!(g.n(), 36);
        for i in 0..6 {
            assert_eq!(g.degree(i), 7);
        }
        assert!(graphlib::cycles::has_cycle(&g, 6));
    }

    #[test]
    fn e7_counts_within_caps() {
        let rows = e7_turan(&[3, 5]);
        for r in rows {
            assert!(r.m <= r.edge_bound);
            assert!(r.high_degree_nodes <= r.high_degree_cap);
        }
    }

    #[test]
    fn e9_contrast_between_far_and_hidden() {
        let rows = e9_property_testing(60, 7);
        let far_1probe = rows
            .iter()
            .find(|r| r.scenario.starts_with("eps") && r.probes == 1)
            .unwrap();
        let hidden_16 = rows
            .iter()
            .find(|r| r.scenario.starts_with("hidden") && r.probes == 16)
            .unwrap();
        assert!(far_1probe.tester_detection > 0.9, "far graphs are easy");
        assert!(
            hidden_16.tester_detection < 0.5,
            "a single hidden triangle evades the tester"
        );
        assert!(
            hidden_16.exact_detects,
            "the exact detector always finds it"
        );
    }

    #[test]
    fn hidden_triangle_graph_has_one_triangle() {
        let g = hidden_triangle_graph(10);
        assert_eq!(graphlib::cliques::count_triangles(&g), 1);
    }

    #[test]
    fn e8_rounds_constant() {
        let rows = e8_tree(&[32, 128], 50, 2);
        assert_eq!(rows[0].tree_rounds, rows[1].tree_rounds);
    }
}
