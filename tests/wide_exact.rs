//! End-to-end coverage of the lifted exact-search ceiling: matrices in
//! the 64 < n ≤ 256 range solve as *single* exact searches — under time
//! and branch budgets like any other anytime solve — instead of being
//! rejected (`TooManyTaxa`) or force-decomposed by the pipeline
//! (`NotDecomposable { max: 64 }`) as before the const-generic leaf
//! bitsets.

use mutree::core::{
    CompactPipeline, MutError, MutSolver, SearchBackend, StopReason, MAX_EXACT_TAXA,
};
use mutree::distmat::{gen, DistanceMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An 80-taxon clustered (ultrametric) matrix solves exactly — proven
/// optimal, all 80 leaves, exact distance reproduction — on both the
/// sequential and pooled-parallel drivers.
#[test]
fn eighty_taxa_solves_exactly_without_decomposition() {
    let mut rng = StdRng::seed_from_u64(80);
    let m = gen::random_ultrametric(80, 100.0, &mut rng);
    let sol = MutSolver::new().solve(&m).unwrap();
    assert!(sol.is_complete());
    assert_eq!(sol.stop, StopReason::Completed);
    assert_eq!(sol.tree.leaf_count(), 80);
    assert_eq!(sol.tree.distance_matrix().max_relative_deviation(&m), 0.0);

    let par = MutSolver::new()
        .backend(SearchBackend::Parallel { workers: 4 })
        .solve(&m)
        .unwrap();
    assert!(par.is_complete());
    assert!((par.weight - sol.weight).abs() < 1e-9);
}

/// A *perturbed* 80-taxon matrix under a small branch budget is an
/// anytime solve, not an error: it returns a feasible incumbent and
/// reports `Completed` or `BudgetExhausted`.
#[test]
fn eighty_taxa_under_branch_budget_is_anytime_not_an_error() {
    let mut rng = StdRng::seed_from_u64(81);
    let m = gen::perturbed_ultrametric(80, 50.0, 0.05, &mut rng);
    let sol = MutSolver::new().max_branches(2_000).solve(&m).unwrap();
    assert!(
        matches!(
            sol.stop,
            StopReason::Completed | StopReason::BudgetExhausted
        ),
        "unexpected stop: {:?}",
        sol.stop
    );
    assert_eq!(sol.tree.leaf_count(), 80);
    assert!(sol.tree.is_feasible_for(&m, 1e-9));
}

/// With the ceiling at `MAX_EXACT_TAXA`, a pipeline whose threshold
/// admits the whole matrix takes the undecomposed `whole` stage for
/// every n in (64, 128] instead of erroring out or forcing recursion.
#[test]
fn pipeline_no_longer_forces_decomposition_up_to_128() {
    for n in [65usize, 100, 128] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let m = gen::random_ultrametric(n, 100.0, &mut rng);
        let sol = CompactPipeline::new().threshold(128).solve(&m).unwrap();
        assert_eq!(sol.tree.leaf_count(), n, "n = {n}");
        assert!(sol.tree.is_feasible_for(&m, 1e-9), "n = {n}");
        // One group ⇒ the plain whole-matrix exact path, no fan-out.
        if sol.groups.len() == 1 {
            assert_eq!(sol.timings.len(), 1, "n = {n}");
            assert_eq!(sol.timings[0].stage, "whole", "n = {n}");
            assert!(sol.degraded.is_empty(), "n = {n}");
        }
    }
}

/// The ceiling still exists — it just moved to the dispatcher's widest
/// width — and both the solver and the undecomposable-pipeline error
/// report it.
#[test]
fn the_new_ceiling_is_reported_by_solver_and_pipeline() {
    let m = DistanceMatrix::zeros(MAX_EXACT_TAXA + 1).unwrap();
    match MutSolver::new().solve(&m) {
        Err(MutError::TooManyTaxa { n, max }) => {
            assert_eq!(n, MAX_EXACT_TAXA + 1);
            assert_eq!(max, MAX_EXACT_TAXA);
        }
        other => panic!("expected TooManyTaxa, got {other:?}"),
    }
    // An all-zero matrix has no compact structure to decompose along, so
    // the pipeline reports NotDecomposable with the same engine limit.
    match CompactPipeline::new().solve(&m) {
        Err(MutError::NotDecomposable { max, .. }) => assert_eq!(max, MAX_EXACT_TAXA),
        other => panic!("expected NotDecomposable, got {other:?}"),
    }
}
