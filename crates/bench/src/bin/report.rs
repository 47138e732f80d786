//! Prints the paper-shaped series for each experiment (see EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p bench --bin report -- [e1|e2|e2b|e3|e4|e5|e6|e7|e8|e9|all]`

use bench::experiments as exp;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    if all || which == "e1" {
        e1();
    }
    if all || which == "e2" {
        e2();
    }
    if all || which == "e2b" {
        e2b();
    }
    if all || which == "e3" {
        e3();
    }
    if all || which == "e4" {
        e4();
    }
    if all || which == "e5" {
        e5();
    }
    if all || which == "e6" {
        e6();
    }
    if all || which == "e7" {
        e7();
    }
    if all || which == "e8" {
        e8();
    }
    if all || which == "e9" {
        e9();
    }
}

fn e1() {
    println!("\n=== E1: Theorem 1.1 — C_2k detection is sublinear ===");
    for k in [2usize, 3] {
        let sizes: Vec<usize> = (6..=11).map(|e| 1usize << e).collect();
        let rows = exp::e1_even_cycle(k, &sizes, 1, 42, None);
        println!(
            "k={k}: target exponent 1-1/(k(k-1)) = {:.3}",
            1.0 - 1.0 / (k as f64 * (k as f64 - 1.0))
        );
        println!(
            "{:>8} {:>16} {:>14} {:>16}",
            "n", "detector rounds", "bound shape", "baseline rounds"
        );
        for r in &rows {
            println!(
                "{:>8} {:>16} {:>14.1} {:>16}",
                r.n, r.detector_rounds, r.bound, r.baseline_rounds
            );
        }
        let pts: Vec<(usize, usize)> = rows.iter().map(|r| (r.n, r.detector_rounds)).collect();
        let base_pts: Vec<(usize, usize)> = rows.iter().map(|r| (r.n, r.baseline_rounds)).collect();
        println!(
            "fitted exponent: detector {:.3} (target {:.3}), baseline {:.3} (linear ~1)",
            exp::fitted_exponent(&pts),
            1.0 - 1.0 / (k as f64 * (k as f64 - 1.0)),
            exp::fitted_exponent(&base_pts)
        );
    }
    println!("\nablation (k=3, 20000 reps/phase): each phase covers only its half");
    println!(
        "{:>18} {:>14} {:>14}",
        "scenario", "Phase I rate", "Phase II rate"
    );
    for r in exp::e1_ablation(20_000, 31) {
        println!(
            "{:>18} {:>14.5} {:>14.5}",
            r.scenario, r.phase1_rate, r.phase2_rate
        );
    }
}

fn e2() {
    println!("\n=== E2: Theorem 1.2 — the near-quadratic family G_{{k,n}} ===");
    for k in [2usize, 3] {
        let copies: Vec<usize> = [16usize, 36, 64, 100, 144].to_vec();
        let rows = exp::e2_superlinear(k, &copies, 7);
        println!("k={k}: round LB shape n^(2-1/k)/(Bk)");
        println!(
            "{:>6} {:>8} {:>6} {:>8} {:>10} {:>12} {:>10} {:>14} {:>8}",
            "n", "|V(G)|", "diam", "cut", "cut bound", "sim bits", "rounds", "implied R LB", "L3.1"
        );
        for r in &rows {
            println!(
                "{:>6} {:>8} {:>6} {:>8} {:>10} {:>12} {:>10} {:>14.1} {:>8}",
                r.n_copies,
                r.graph_size,
                r.diameter,
                r.cut,
                r.cut_bound,
                r.sim_bits,
                r.rounds,
                r.implied_round_lb,
                r.lemma31_ok
            );
        }
    }
}

fn e2b() {
    println!("\n=== E2b: §3.4 — the bipartite variant (skeleton metrics) ===");
    let rows = exp::e2b_bipartite(2, &[16, 64, 144, 256]);
    println!(
        "{:>6} {:>8} {:>10} {:>8} {:>9} {:>14}",
        "n", "|V(G)|", "bipartite", "cut", "gadgets", "bound (s=2)"
    );
    for r in &rows {
        println!(
            "{:>6} {:>8} {:>10} {:>8} {:>9} {:>14.1}",
            r.n_copies, r.graph_size, r.bipartite, r.cut, r.gadgets, r.bound
        );
    }
}

fn e3() {
    println!("\n=== E3: Theorem 4.1 — fooling deterministic triangle detectors ===");
    for n in [16usize, 32] {
        println!("namespace 3 x {n}:");
        println!(
            "{:>7} {:>13} {:>14} {:>14} {:>8}",
            "c bits", "transcripts", "largest class", "class floor", "fooled"
        );
        for r in exp::e3_fooling(n) {
            println!(
                "{:>7} {:>13} {:>14} {:>14.2} {:>8}",
                r.bits, r.transcript_classes, r.largest_class, r.class_floor, r.fooled
            );
        }
    }
}

fn e4() {
    println!("\n=== E4: Theorem 5.1 — one-round triangle detection needs B = Ω(Δ) ===");
    for n in [12usize, 24] {
        println!("pendants per special node: n = {n} (Δ = n + 2)");
        println!(
            "{:>8} {:>12} {:>10} {:>12} {:>14}",
            "budget", "msg bits", "error", "I(Xbc;M)", "L5.4 bound"
        );
        for r in exp::e4_one_round(n, 3000, 11) {
            println!(
                "{:>8} {:>12} {:>10.4} {:>12.4} {:>14.4}",
                r.budget, r.message_bits, r.error, r.information, r.leakage_bound
            );
        }
    }
}

fn e5() {
    println!("\n=== E5: Lemma 1.3 + congested-clique K_s listing ===");
    for (s, p) in [(3usize, 0.25), (4, 0.3), (5, 0.4)] {
        let sizes = [32usize, 48, 64, 96];
        let rows = exp::e5_listing(s, &sizes, p, 13);
        println!("s={s} (G(n, {p})); round shape n^(1-2/{s})");
        println!(
            "{:>6} {:>9} {:>8} {:>10} {:>12} {:>10} {:>7}",
            "n", "cliques", "rounds", "bound", "L1.3 ratio", "LB cert", "exact"
        );
        for r in &rows {
            println!(
                "{:>6} {:>9} {:>8} {:>10.1} {:>12.4} {:>10.3} {:>7}",
                r.n, r.cliques, r.rounds, r.bound, r.lemma_ratio, r.certificate, r.exact
            );
        }
    }
}

fn e6() {
    println!("\n=== E6: §6 — color-coding success amplification ===");
    println!(
        "{:>4} {:>8} {:>20} {:>18}",
        "k", "reps", "empirical success", "guarantee (2k)^-2k"
    );
    for k in [2usize, 3] {
        let r = exp::e6_color_coding(k, if k == 2 { 3000 } else { 60000 }, 17);
        println!(
            "{:>4} {:>8} {:>20.5} {:>18.6}",
            r.k, r.reps, r.empirical_success, r.guarantee
        );
    }
}

fn e7() {
    println!("\n=== E7: §6 prerequisite — the even-cycle Turán bound ===");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "n", "m (C4-free)", "M(n,2)", "high-deg", "cap M/n^δ"
    );
    for r in exp::e7_turan(&[3, 5, 7, 11, 13]) {
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>10}",
            r.n, r.m, r.edge_bound, r.high_degree_nodes, r.high_degree_cap
        );
    }
    println!("hub-heavy graphs, k=3 (δ = 1/2): high-degree count vs the Phase-I cap");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "n", "m (PA graph)", "M(n,3)", "high-deg", "cap M/n^δ"
    );
    for r in exp::e7b_high_degree(&[64, 256, 1024, 4096], 23) {
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>10}",
            r.n, r.m, r.edge_bound, r.high_degree_nodes, r.high_degree_cap
        );
    }
}

fn e9() {
    println!("\n=== E9: §1.2 contrast — the property-testing relaxation ===");
    println!(
        "{:>18} {:>8} {:>18} {:>14} {:>14}",
        "scenario", "probes", "tester detection", "exact detects", "exact rounds"
    );
    for r in exp::e9_property_testing(300, 29) {
        println!(
            "{:>18} {:>8} {:>18.3} {:>14} {:>14}",
            r.scenario, r.probes, r.tester_detection, r.exact_detects, r.exact_rounds
        );
    }
}

fn e8() {
    println!("\n=== E8: constant-round tree detection ([12]) ===");
    println!(
        "{:>8} {:>14} {:>14} {:>9}",
        "n", "tree rounds", "LOCAL rounds", "correct"
    );
    for r in exp::e8_tree(&[32, 64, 128, 256, 512], 2000, 19) {
        println!(
            "{:>8} {:>14} {:>14} {:>9}",
            r.n, r.tree_rounds, r.local_rounds, r.correct
        );
    }
}
