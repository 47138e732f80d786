//! Cross-algorithm agreement: every detector in the workspace must agree
//! with centralized ground truth (and hence with each other) on a matrix
//! of random graphs.

use distributed_subgraph_detection::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn triangle_detectors_agree_on_random_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for trial in 0..8 {
        let p = 0.08 + 0.04 * trial as f64;
        let g = graphlib::generators::gnp(22, p, &mut rng);
        let truth = graphlib::cliques::count_triangles(&g) > 0;
        let exch = detection::detect_triangle(&g).unwrap();
        assert_eq!(exch.detected, truth, "neighbor exchange, trial {trial}");
        let one =
            detection::detect_triangle_one_round(&g, detection::OneRoundStrategy::Full, trial)
                .unwrap();
        assert_eq!(one.detected, truth, "one-round full, trial {trial}");
        let local = detection::detect_local(&g, &graphlib::generators::cycle(3)).unwrap();
        assert_eq!(local.detected, truth, "LOCAL, trial {trial}");
    }
}

#[test]
fn even_cycle_detector_agrees_with_ground_truth() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for trial in 0..5 {
        let g = graphlib::generators::gnm(36, 40 + 2 * trial, &mut rng);
        let truth = graphlib::cycles::has_cycle(&g, 4);
        let cfg = detection::EvenCycleConfig::new(2)
            .repetitions(6000)
            .seed(trial as u64);
        let rep = detection::detect_even_cycle(&g, cfg).unwrap();
        if truth {
            assert!(rep.detected, "missed C4, trial {trial}");
        } else {
            assert!(!rep.detected, "false positive, trial {trial}");
        }
    }
}

#[test]
fn gather_detects_arbitrary_connected_patterns() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let base = graphlib::generators::random_tree(24, &mut rng);
    let (g, _) = graphlib::generators::plant_cycle(&base, 5, &mut rng);
    for (pat, expect) in [
        (graphlib::generators::cycle(5), true),
        (
            graphlib::generators::clique(3),
            graphlib::cliques::count_triangles(&g) > 0,
        ),
        (graphlib::generators::star(2), true),
    ] {
        let r = detection::detect_gather(&g, &pat).unwrap();
        assert_eq!(r.detected, expect);
    }
}

#[test]
fn congest_bandwidth_separates_local_from_gather() {
    // The same pattern search: LOCAL finishes in O(|H|) rounds but needs
    // huge per-edge bandwidth; gather keeps B = O(log n) but pays rounds.
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let g = graphlib::generators::gnp(48, 0.3, &mut rng);
    let pat = graphlib::generators::cycle(4);
    let local = detection::detect_local(&g, &pat).unwrap();
    let gather = detection::detect_gather(&g, &pat).unwrap();
    assert_eq!(local.detected, gather.detected);
    assert!(local.rounds < gather.rounds);
    assert!(local.max_edge_round_bits > gather.max_edge_round_bits);
}

#[test]
fn tree_detector_agrees_with_vf2() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let star4 = graphlib::generators::star(4);
    for trial in 0..4 {
        let g = graphlib::generators::gnm(20, 18 + 3 * trial, &mut rng);
        let truth = graphlib::iso::contains_subgraph(&star4, &g);
        let pattern = detection::TreePattern::star(4);
        let rep = detection::detect_tree(&g, &pattern, 40_000, trial as u64).unwrap();
        assert_eq!(rep.detected, truth, "trial {trial}");
    }
}

#[test]
fn detectors_stay_sound_under_message_loss() {
    // Failure injection: with every delivery dropped independently, a
    // detector may miss copies but must never hallucinate one.
    use distributed_subgraph_detection::detection::clique_detect::CliqueDetectNode;
    let g = graphlib::generators::complete_bipartite(6, 6); // triangle-free
    for loss in [0.3, 0.7, 1.0] {
        let horizon = g.max_degree() + 1;
        let out = Simulation::on(&g)
            .bandwidth(Bandwidth::Bits(congest::bits_for_domain(g.n())))
            .faults(congest::FaultSpec::IndependentLoss(loss))
            .max_rounds(horizon + 2)
            .run(|_| CliqueDetectNode::new(3, horizon))
            .unwrap();
        assert!(
            out.network_accepts(),
            "loss {loss}: lost messages cannot create a triangle"
        );
    }
    // And on a real triangle with no loss, detection still works.
    let tri = graphlib::generators::clique(3);
    let out = Simulation::on(&tri)
        .bandwidth(Bandwidth::Bits(congest::bits_for_domain(3)))
        .faults(congest::FaultSpec::None)
        .max_rounds(5)
        .run(|_| CliqueDetectNode::new(3, 3))
        .unwrap();
    assert!(out.network_rejects());
}

#[test]
fn clique_detection_matrix() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let g = graphlib::generators::gnp(26, 0.5, &mut rng);
    for s in 3..=6 {
        let truth = graphlib::cliques::count_ksub(&g, s) > 0;
        let rep = detection::detect_clique(&g, s).unwrap();
        assert_eq!(rep.detected, truth, "s={s}");
    }
}
