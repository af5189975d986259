//! Supervised-runtime end-to-end tests: the open-node memory watchdog
//! on the sequential and parallel drivers, and reproducible supervised
//! pipeline runs — the robustness layer exercised as a whole, from the
//! engine up through the solver and pipeline front ends.

use mutree::bnb::{MemoryBudget, StopReason};
use mutree::core::{CompactPipeline, MutSolver, SearchBackend};
use mutree::distmat::{gen, DistanceMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn matrix(seed: u64) -> DistanceMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::perturbed_ultrametric(12, 60.0, 0.08, &mut rng)
}

/// The sequential watchdog invariant, measured rather than assumed: the
/// frontier never grows past the cap by more than one branching batch
/// (`peak_pool` is sampled right after each absorb, *before* the shed),
/// the search terminates with `MemoryExhausted`, and the best incumbent
/// survives.
#[test]
fn watchdog_caps_the_sequential_frontier_within_one_batch() {
    let m = matrix(2);
    let cap = 4u64;
    let sol = MutSolver::new()
        .backend(SearchBackend::Sequential)
        .memory_budget(MemoryBudget::new(cap))
        .solve(&m)
        .unwrap();
    assert_eq!(sol.stop, StopReason::MemoryExhausted);
    assert!(sol.stats.nodes_shed > 0, "the cap must actually bind");
    // One branching batch for a 12-taxon MUT search is at most 2n-3
    // insertion positions.
    let batch = 2 * m.len() as u64;
    assert!(
        sol.stats.peak_pool <= cap + batch,
        "frontier peaked at {} (cap {cap} + batch {batch})",
        sol.stats.peak_pool
    );
    // The shed search still returns its best incumbent — never worse
    // than the UPGMM warm start it began from.
    let mut upgmm = mutree::tree::cluster(&m, mutree::tree::Linkage::Maximum);
    let upgmm_w = upgmm.fit_heights(&m);
    assert!(sol.weight <= upgmm_w + 1e-9);
    assert!(sol.tree.is_feasible_for(&m, 1e-9));
}

/// The parallel watchdog: same contract, sharded frontier.
#[test]
fn watchdog_sheds_the_parallel_frontier_and_keeps_the_incumbent() {
    let m = matrix(26);
    let sol = MutSolver::new()
        .backend(SearchBackend::Parallel { workers: 4 })
        .memory_budget(MemoryBudget::new(2))
        .solve(&m)
        .unwrap();
    assert_eq!(sol.stop, StopReason::MemoryExhausted);
    assert!(sol.stats.nodes_shed > 0);
    assert!(sol.weight.is_finite());
    assert!(sol.tree.is_feasible_for(&m, 1e-9));
}

/// A generous budget never trips: the solve completes exactly as without
/// a watchdog, at the identical optimum.
#[test]
fn unbound_watchdog_is_invisible() {
    let m = matrix(9);
    let capped = MutSolver::new()
        .memory_budget(MemoryBudget::new(u64::MAX))
        .solve(&m)
        .unwrap();
    let clean = MutSolver::new().solve(&m).unwrap();
    assert!(capped.is_complete());
    assert_eq!(capped.stats.nodes_shed, 0);
    assert_eq!(capped.weight.to_bits(), clean.weight.to_bits());
}

/// Fixed fault seed ⇒ identical result and provenance on repeated runs:
/// the deterministic-supervision property from the issue, at the full
/// pipeline level.
#[test]
fn supervised_runs_are_reproducible() {
    let m = matrix(11);
    let run = || {
        CompactPipeline::new()
            .threshold(6)
            .solver(
                MutSolver::new()
                    .panic_on_taxa(usize::MAX) // never fires: clean but armed
                    .memory_budget(MemoryBudget::new(64)),
            )
            .solve(&m)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.weight.to_bits(), b.weight.to_bits());
    assert_eq!(a.degraded, b.degraded);
    assert_eq!(a.stats.nodes_shed, b.stats.nodes_shed);
}
