//! Property-based tests of the graph substrate's core invariants.

use graphlib::combinatorics::{ceil_root, rank_ksubset, unrank_ksubset};
use graphlib::{cliques, components, cycles, decomposition, generators, graph::Graph, iso};
use proptest::prelude::*;

/// An arbitrary graph as (n, edge list with endpoints folded into range).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// The VF2 referee: a plain backtracking search over injections of the
/// pattern's vertices (in index order) into the host's, with no refinement
/// and no candidate filtering. Each pattern edge is checked once, when its
/// later endpoint is placed. The only early exit is the first complete
/// embedding, so `None` means every injection was tried.
fn brute_force_embedding(pat: &Graph, host: &Graph) -> Option<Vec<u32>> {
    fn extend(pat: &Graph, host: &Graph, phi: &mut Vec<u32>, used: &mut [bool]) -> bool {
        let u = phi.len();
        if u == pat.n() {
            return true;
        }
        for t in 0..host.n() {
            let edges_hold = pat
                .neighbors(u)
                .iter()
                .filter(|&&w| (w as usize) < u)
                .all(|&w| host.has_edge(t, phi[w as usize] as usize));
            if used[t] || !edges_hold {
                continue;
            }
            used[t] = true;
            phi.push(t as u32);
            if extend(pat, host, phi, used) {
                return true;
            }
            phi.pop();
            used[t] = false;
        }
        false
    }
    let mut phi = Vec::with_capacity(pat.n());
    let mut used = vec![false; host.n()];
    extend(pat, host, &mut phi, &mut used).then_some(phi)
}

proptest! {
    #[test]
    fn degree_sum_is_twice_edges(g in arb_graph(24, 80)) {
        let sum: usize = (0..g.n()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.m());
    }

    #[test]
    fn neighbor_lists_sorted_dedup(g in arb_graph(24, 80)) {
        for v in 0..g.n() {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!nb.contains(&(v as u32)), "no self-loops");
        }
    }

    #[test]
    fn adjacency_is_symmetric(g in arb_graph(20, 60)) {
        for u in 0..g.n() {
            for v in 0..g.n() {
                prop_assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn edges_iterator_matches_has_edge(g in arb_graph(18, 50)) {
        let listed: std::collections::HashSet<(u32, u32)> = g.edges().collect();
        prop_assert_eq!(listed.len(), g.m());
        for &(u, v) in &listed {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u as usize, v as usize));
        }
    }

    #[test]
    fn induced_subgraph_keeps_only_kept(g in arb_graph(16, 40), mask in proptest::collection::vec(any::<bool>(), 16)) {
        let keep: Vec<bool> = (0..g.n()).map(|v| mask[v % mask.len()]).collect();
        let (h, map) = g.induced_subgraph(&keep);
        // Every edge of h pulls back to an edge of g between kept vertices.
        let back: Vec<usize> = {
            let mut b = vec![usize::MAX; h.n()];
            for (old, m) in map.iter().enumerate() {
                if let Some(new) = m {
                    b[*new as usize] = old;
                }
            }
            b
        };
        for (u, v) in h.edges() {
            prop_assert!(g.has_edge(back[u as usize], back[v as usize]));
        }
        prop_assert!(h.m() <= g.m());
    }

    #[test]
    fn components_partition_vertices(g in arb_graph(20, 40)) {
        let c = components::connected_components(&g);
        prop_assert_eq!(c.label.len(), g.n());
        prop_assert!(c.count >= 1 || g.n() == 0);
        for (u, v) in g.edges() {
            prop_assert_eq!(c.label[u as usize], c.label[v as usize]);
        }
        let used: std::collections::HashSet<usize> = c.label.iter().copied().collect();
        prop_assert_eq!(used.len(), c.count);
    }

    #[test]
    fn bfs_distances_are_lipschitz_on_edges(g in arb_graph(20, 50)) {
        let d = graphlib::bfs::distances(&g, 0);
        for (u, v) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != graphlib::bfs::UNREACHABLE && dv != graphlib::bfs::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                prop_assert_eq!(du, dv, "edge endpoints share reachability");
            }
        }
    }

    #[test]
    fn unrank_rank_roundtrip(rank in 0u64..5000, k in 1usize..5) {
        let s = unrank_ksubset(rank, k);
        prop_assert_eq!(s.len(), k);
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(rank_ksubset(&s), rank);
    }

    #[test]
    fn ceil_root_is_exact(n in 1u64..1_000_000, k in 1u32..6) {
        let r = ceil_root(n, k);
        prop_assert!(r.checked_pow(k).is_none_or(|p| p >= n));
        if r > 1 {
            prop_assert!((r - 1).checked_pow(k).is_some_and(|p| p < n));
        }
    }

    #[test]
    fn girth_consistent_with_cycle_search(g in arb_graph(14, 26)) {
        match cycles::girth(&g) {
            None => {
                // Forest: no cycle of any length.
                for k in 3..=g.n().max(3) {
                    prop_assert!(!cycles::has_cycle(&g, k));
                }
            }
            Some(girth) => {
                prop_assert!(cycles::has_cycle(&g, girth), "girth cycle exists");
                for k in 3..girth {
                    prop_assert!(!cycles::has_cycle(&g, k), "nothing shorter");
                }
            }
        }
    }

    #[test]
    fn clique_count_matches_listing(g in arb_graph(14, 40), s in 3usize..5) {
        let listed = cliques::list_ksub(&g, s, usize::MAX);
        prop_assert_eq!(listed.len() as u64, cliques::count_ksub(&g, s));
    }

    #[test]
    fn clique_count_monotone_under_edge_addition(g in arb_graph(12, 24)) {
        // Add one edge: K_s count never decreases.
        let before = cliques::count_ksub(&g, 3);
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        // Find a non-edge.
        'outer: for u in 0..g.n() {
            for v in (u + 1)..g.n() {
                if !g.has_edge(u, v) {
                    edges.push((u as u32, v as u32));
                    break 'outer;
                }
            }
        }
        let g2 = Graph::from_edges(g.n(), &edges);
        prop_assert!(cliques::count_ksub(&g2, 3) >= before);
    }

    #[test]
    fn pattern_embeds_in_itself(g in arb_graph(12, 24)) {
        prop_assert!(iso::contains_subgraph(&g, &g));
    }

    #[test]
    fn embedding_survives_supergraph(g in arb_graph(10, 18)) {
        // g embeds into g + extra isolated vertices + extra edges.
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        let n2 = g.n() + 3;
        edges.push((g.n() as u32, (g.n() + 1) as u32));
        let big = Graph::from_edges(n2, &edges);
        prop_assert!(iso::contains_subgraph(&g, &big));
        if let Some(phi) = iso::find_subgraph(&g, &big) {
            prop_assert!(iso::verify_embedding(&g, &big, &phi));
        } else {
            prop_assert!(false, "witness must exist");
        }
    }

    #[test]
    fn vf2_agrees_with_brute_force(pat in arb_graph(6, 10), tgt in arb_graph(12, 30)) {
        let oracle = brute_force_embedding(&pat, &tgt);
        let vf2 = iso::find_subgraph(&pat, &tgt);
        prop_assert_eq!(vf2.is_some(), oracle.is_some());
        prop_assert_eq!(iso::contains_subgraph(&pat, &tgt), oracle.is_some());
        if let Some(phi) = vf2 {
            prop_assert!(iso::verify_embedding(&pat, &tgt, &phi));
        }
    }

    #[test]
    fn peel_layers_respect_threshold(g in arb_graph(20, 60), d in 1usize..6) {
        let lay = decomposition::peel_layers(&g, d, decomposition::layer_budget(g.n()) + 4);
        for v in 0..g.n() {
            if lay.layer[v].is_some() {
                prop_assert!(lay.up_degree(&g, v) <= d, "v={v}");
            }
        }
    }

    #[test]
    fn gnm_has_exact_edges(n in 4usize..30, mfrac in 0usize..100) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(n as u64);
        let max = n * (n - 1) / 2;
        let m = mfrac * max / 100;
        let g = generators::gnm(n, m, &mut rng);
        prop_assert_eq!(g.m(), m);
    }

    #[test]
    fn random_tree_is_acyclic_connected(n in 1usize..60, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let t = generators::random_tree(n, &mut rng);
        prop_assert_eq!(t.m(), n - 1);
        prop_assert!(components::is_connected(&t));
        prop_assert_eq!(cycles::girth(&t), None);
    }

    #[test]
    fn bipartition_is_proper(a in 1usize..8, b in 1usize..8, p in 0.0f64..1.0) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64((a * 31 + b) as u64);
        let g = generators::random_bipartite(a, b, p, &mut rng);
        let side = components::bipartition(&g).expect("bipartite by construction");
        for (u, v) in g.edges() {
            prop_assert_ne!(side[u as usize], side[v as usize]);
        }
    }
}
