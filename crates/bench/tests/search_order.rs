//! The search order changes how fast the exact search proves its
//! optimum, never which optimum it proves: on random, clustered and
//! HMDNA matrices with n ≤ 12, a solve in the default order (maxmin
//! improved by pair swaps) weighs what a solve in plain maxmin order
//! weighs within the search tolerance, on every backend.

use mutree_bench::data;
use mutree_bnb::TOL;
use mutree_clustersim::ClusterSpec;
use mutree_core::{MutSolver, SearchBackend};
use mutree_distmat::DistanceMatrix;
use proptest::prelude::*;

/// A matrix of one of the three families with at most 12 taxa.
fn matrix(family: u8, n: usize, seed: u64) -> DistanceMatrix {
    match family {
        0 => data::random_species_matrix(n, seed),
        1 => data::clustered_matrix(2 + n % 2, 2 + n % 3, seed),
        _ => data::hmdna_matrix(n, seed),
    }
}

fn backends() -> [SearchBackend; 3] {
    [
        SearchBackend::Sequential,
        SearchBackend::Parallel { workers: 3 },
        SearchBackend::SimulatedCluster {
            spec: ClusterSpec::with_slaves(3),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn default_order_proves_the_maxmin_order_optimum(
        family in 0u8..3,
        n in 4usize..13,
        seed in any::<u64>(),
    ) {
        let m = matrix(family, n, seed);
        let maxmin = m.maxmin_permutation().apply(&m);
        for backend in backends() {
            let default = MutSolver::new().backend(backend.clone()).solve(&m).unwrap();
            let reference = MutSolver::new()
                .without_maxmin()
                .backend(backend.clone())
                .solve(&maxmin)
                .unwrap();
            prop_assert!(default.is_complete() && reference.is_complete());
            prop_assert!(
                (default.weight - reference.weight).abs() <= TOL * reference.weight.max(1.0),
                "family {} n {} seed {} {:?}: {} vs {}",
                family, m.len(), seed, backend, default.weight, reference.weight
            );
            prop_assert!(default.tree.is_feasible_for(&m, TOL));
        }
    }
}
