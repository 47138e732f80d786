//! Property tests of [`FaultSpec::Stack`] composition semantics, over
//! the compiled [`Faults`] plan.
//!
//! The stack contract is *order-sensitive first-fault-wins*: for every
//! delivery the layers are consulted in stack order and the first
//! non-`Deliver` verdict is final (so a drop in an early layer shadows a
//! corruption in a later one), and a node is crashed iff any layer crashes
//! it. These properties pin that contract: the plan compiled from a stack
//! is checked against a manual fold over its layers compiled one by one,
//! all driven through identical `begin_round` sequences so stateful layers
//! (Gilbert–Elliott chains) stay in lockstep. Everything here is a pure
//! function of the engine seed, so the suite must pass bit-identically at
//! any `RAYON_NUM_THREADS` — `scripts/check.sh` runs it at 1 and 4.

use congest::{CrashStop, Delivery, DeliveryCtx, FaultSpec, Faults, LinkFailure, Outage};
use graphlib::generators;
use proptest::prelude::*;

/// The menu of layer specs the properties draw stacks from: every model
/// kind, including an inert layer and an explicit crash.
fn menu(idx: usize) -> FaultSpec {
    match idx % 7 {
        0 => FaultSpec::None,
        1 => FaultSpec::IndependentLoss(0.4),
        2 => FaultSpec::GilbertElliott(0.2, 0.3, 0.05, 0.9),
        3 => FaultSpec::CrashStop(CrashStop::random(2, 3)),
        4 => FaultSpec::LinkFailure(LinkFailure::new(vec![Outage {
            a: 0,
            b: 1,
            from_round: 1,
            to_round: 4,
        }])),
        5 => FaultSpec::BitFlip(0.3),
        _ => FaultSpec::IndependentLoss(0.15),
    }
}

/// Compiles each layer of `specs` separately and the stacked plan over all
/// of them, then drives every plan through the same
/// `begin_round(1..=rounds)` schedule so their internal chains agree.
fn build_in_lockstep(
    specs: &[FaultSpec],
    g: &graphlib::Graph,
    seed: u64,
    rounds: usize,
) -> (Faults, Vec<Faults>) {
    let mut stack = FaultSpec::Stack(specs.to_vec()).compile(g, seed);
    let mut layers: Vec<Faults> = specs.iter().map(|s| s.compile(g, seed)).collect();
    for r in 1..=rounds {
        stack.begin_round(r);
        for l in &mut layers {
            l.begin_round(r);
        }
    }
    (stack, layers)
}

/// The reference semantics: fold the layers in order, first non-`Deliver`
/// verdict wins.
fn manual_first_fault(layers: &[Faults], ctx: &DeliveryCtx) -> Delivery {
    for l in layers {
        match l.delivery(ctx) {
            Delivery::Deliver => continue,
            other => return other,
        }
    }
    Delivery::Deliver
}

/// Whether `node` is down in `round` under plan `f`.
fn crashed(f: &Faults, node: usize, round: usize) -> bool {
    f.crash_round(node).is_some_and(|r| round >= r)
}

/// Every delivery context over the clique's directed edges in `round`.
fn contexts(n: usize, round: usize) -> Vec<DeliveryCtx> {
    let mut out = Vec::new();
    let mut slot = 0usize;
    for from in 0..n {
        for (port, to) in (0..n).filter(|&v| v != from).enumerate() {
            out.push(DeliveryCtx {
                round,
                from,
                to,
                to_port: port,
                link_slot: slot,
                msg_index: 0,
            });
            slot += 1;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Stack verdicts equal the manual first-non-`Deliver` fold over the
    // same layers, for every link of the topology and several rounds.
    #[test]
    fn stack_matches_manual_fold(
        picks in proptest::collection::vec(0usize..7, 1..5),
        seed in 0u64..1_000,
        rounds in 1usize..6,
    ) {
        let g = generators::clique(6);
        let specs: Vec<FaultSpec> = picks.iter().map(|&i| menu(i)).collect();
        let (stack, layers) = build_in_lockstep(&specs, &g, seed, rounds);
        for ctx in contexts(g.n(), rounds) {
            prop_assert_eq!(
                stack.delivery(&ctx),
                manual_first_fault(&layers, &ctx),
                "stack {:?} diverged from the ordered fold at {:?}",
                specs,
                ctx
            );
        }
        // Crash semantics: any layer crashing the node crashes it in the
        // stack, in every round up to the horizon, and the stack's
        // per-round crash list names exactly the nodes going down then.
        for v in 0..g.n() {
            for r in 1..=rounds {
                prop_assert_eq!(
                    crashed(&stack, v, r),
                    layers.iter().any(|l| crashed(l, v, r))
                );
            }
        }
        for r in 1..=rounds {
            let going_down: Vec<usize> = (0..g.n())
                .filter(|&v| crashed(&stack, v, r) && !crashed(&stack, v, r - 1))
                .collect();
            prop_assert_eq!(stack.crashes(r).collect::<Vec<_>>(), going_down);
        }
    }

    // Rebuilding the same stack from the same spec replays the exact
    // verdict stream: composition is a pure function of (spec, seed).
    #[test]
    fn stack_is_deterministic_across_builds(
        picks in proptest::collection::vec(0usize..7, 1..5),
        seed in 0u64..1_000,
    ) {
        let g = generators::clique(5);
        let specs: Vec<FaultSpec> = picks.iter().map(|&i| menu(i)).collect();
        let (a, _) = build_in_lockstep(&specs, &g, seed, 3);
        let (b, _) = build_in_lockstep(&specs, &g, seed, 3);
        for ctx in contexts(g.n(), 3) {
            prop_assert_eq!(a.delivery(&ctx), b.delivery(&ctx));
        }
        for v in 0..g.n() {
            prop_assert_eq!(crashed(&a, v, 3), crashed(&b, v, 3));
        }
    }
}

#[test]
fn stack_order_is_observable() {
    // A certain drop before a certain corruption yields Drop; swapping the
    // layers yields Corrupt — composition order is part of the contract,
    // not an implementation detail.
    let g = generators::clique(4);
    let drop_first = [FaultSpec::IndependentLoss(1.0), FaultSpec::BitFlip(1.0)];
    let flip_first = [FaultSpec::BitFlip(1.0), FaultSpec::IndependentLoss(1.0)];
    let (df, _) = build_in_lockstep(&drop_first, &g, 7, 1);
    let (ff, _) = build_in_lockstep(&flip_first, &g, 7, 1);
    for ctx in contexts(g.n(), 1) {
        assert_eq!(df.delivery(&ctx), Delivery::Drop);
        assert!(matches!(ff.delivery(&ctx), Delivery::Corrupt(_)));
    }
}

#[test]
fn inert_layers_never_mask_or_add_faults() {
    // `None` layers anywhere in the stack are transparent.
    let g = generators::clique(5);
    let bare = [FaultSpec::IndependentLoss(0.5)];
    let padded = [
        FaultSpec::None,
        FaultSpec::IndependentLoss(0.5),
        FaultSpec::None,
    ];
    let (b, _) = build_in_lockstep(&bare, &g, 42, 2);
    let (p, _) = build_in_lockstep(&padded, &g, 42, 2);
    for ctx in contexts(g.n(), 2) {
        assert_eq!(b.delivery(&ctx), p.delivery(&ctx));
    }
    // And a stack of only inert layers delivers everything.
    let all_clear = FaultSpec::Stack(vec![FaultSpec::None, FaultSpec::None]).compile(&g, 1);
    assert!(FaultSpec::Stack(vec![FaultSpec::None, FaultSpec::None]).is_none());
    assert!(all_clear.is_empty());
    for ctx in contexts(g.n(), 1) {
        assert_eq!(all_clear.delivery(&ctx), Delivery::Deliver);
    }
}
