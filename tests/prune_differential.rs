//! Oracle test of the exact search under the full 3-3 rule.
//!
//! `ThreeThree::Full` restricts the search to topologies that resolve
//! every leaf triple the way the matrix nominates (its strict close
//! pair), and propagates those fixed relations: insertion sites are
//! pre-filtered by future-leaf confinement masks, and a node whose
//! confinements contradict is pruned. None of that may change the
//! answer. So for small `n` the test enumerates all `(2n − 3)!!`
//! topologies by leaf insertion, keeps those the matrix's triple
//! relations admit — checked with `mutree_tree::triples`, the tree-side
//! R(P) relation, not the search's own filter — and requires every
//! driver at every leaf-bitset width to find the minimum weight among
//! them.

use mutree::clustersim::ClusterSpec;
use mutree::core::{half_distances, MutSolver, PartialTree, SearchBackend, ThreeThree};
use mutree::distmat::{gen, DistanceMatrix};
use mutree::seqgen;
use mutree::tree::triples;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(2k − 1)(2k + 1)⋯(2n − 3)`: the number of ways to complete a
/// topology on `k` leaves to one on `n` — for `k = 2`, the `(2n − 3)!!`
/// rooted binary topologies on `n` leaves.
fn completions(k: usize, n: usize) -> usize {
    (k..n).map(|j| 2 * j - 1).product()
}

/// Whether the partial tree resolves every triple that involves its
/// newest leaf the way the matrix nominates. A triple's resolution never
/// changes as later leaves insert, so checking each triple once, when
/// its last leaf arrives, checks the whole topology.
fn newest_leaf_consistent(t: &PartialTree, m: &DistanceMatrix) -> bool {
    let s = t.leaves_inserted() - 1;
    let tree = t.to_ultrametric();
    (0..s).all(|j| (0..j).all(|i| triples::is_consistent(&tree, m, i, j, s)))
}

/// Enumerates every topology of `m` by leaf insertion and returns the
/// minimum weight among those consistent with the matrix on every
/// triple (`None` when no topology is). An inconsistent prefix is cut
/// with all its completions counted, and the count must come to
/// `(2n − 3)!!`.
fn oracle(m: &DistanceMatrix) -> Option<f64> {
    let n = m.len();
    let mut visited = 0;
    let mut best: Option<f64> = None;
    let half = half_distances(m);
    let mut stack = vec![PartialTree::<1>::cherry(m, &half)];
    while let Some(t) = stack.pop() {
        if t.leaves_inserted() > 2 && !newest_leaf_consistent(&t, m) {
            visited += completions(t.leaves_inserted(), n);
            continue;
        }
        if t.is_complete() {
            visited += 1;
            assert_eq!(triples::contradictions(&t.to_ultrametric(), m), 0);
            best = Some(best.map_or(t.weight(), |b| b.min(t.weight())));
            continue;
        }
        for site in t.insertion_sites() {
            stack.push(t.insert_next(&half, site));
        }
    }
    assert_eq!(visited, completions(2, n));
    best
}

/// Small instances of three families: short-sequence HMDNA-like
/// matrices (integer distances, so tied triples leave several
/// topologies admitted), near-ultrametric matrices (every triple
/// strictly resolved, so at most one topology is admitted) and uniform
/// metrics (usually contradictory, so none is).
fn instances() -> Vec<DistanceMatrix> {
    let mut out = Vec::new();
    for n in 6..=8 {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(0x3e3 + 10 * n as u64 + seed);
            out.push(seqgen::hmdna_like_matrix(n, 40, &mut rng));
            out.push(gen::perturbed_ultrametric(n, 60.0, 0.02, &mut rng));
            out.push(gen::uniform_metric(n, 1.0, 100.0, &mut rng));
        }
    }
    out
}

/// Checks one solver configuration against the oracle. The UPGMM
/// incumbent is switched off: it need not respect the 3-3 rule, so with
/// it on the answer would be the better of the heuristic and the search.
fn assert_matches_oracle(m: &DistanceMatrix, best: Option<f64>, solver: MutSolver, what: &str) {
    let result = solver
        .three_three(ThreeThree::Full)
        .without_upgmm()
        .solve(m);
    match best {
        Some(want) => {
            let sol = result.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(sol.is_complete(), "{what}");
            assert!(
                (sol.weight - want).abs() <= 1e-9 * want.max(1.0),
                "{what}: search found {}, oracle {want}",
                sol.weight
            );
            assert_eq!(triples::contradictions(&sol.tree, m), 0, "{what}");
        }
        None => assert!(result.is_err(), "{what}: no topology is admitted"),
    }
}

#[test]
fn full_three_three_matches_the_topology_oracle_at_every_width() {
    let (mut admitted, mut rejected) = (0, 0);
    for (i, m) in instances().iter().enumerate() {
        let best = oracle(m);
        match best {
            Some(_) => admitted += 1,
            None => rejected += 1,
        }
        for words in [1usize, 2, 4] {
            let what = format!("instance {i} (n = {}), K = {words}", m.len());
            assert_matches_oracle(m, best, MutSolver::new().leaf_words(words), &what);
        }
    }
    // The instance families cover both oracle outcomes.
    assert!(
        admitted > 0 && rejected > 0,
        "{admitted} admitted, {rejected} rejected"
    );
}

#[test]
fn parallel_and_simulated_drivers_match_the_topology_oracle() {
    let backends = [
        SearchBackend::Parallel { workers: 2 },
        SearchBackend::Parallel { workers: 4 },
        SearchBackend::SimulatedCluster {
            spec: ClusterSpec::with_slaves(3),
        },
    ];
    for (i, m) in instances().iter().enumerate() {
        let best = oracle(m);
        for backend in &backends {
            for words in [1usize, 2, 4] {
                let what = format!("instance {i} (n = {}), {backend:?}, K = {words}", m.len());
                let solver = MutSolver::new().backend(backend.clone()).leaf_words(words);
                assert_matches_oracle(m, best, solver, &what);
            }
        }
    }
}

/// Sequence-derived workloads under `Full` 3-3 (with the default UPGMM
/// incumbent), where the triple relations carry real close-pair
/// structure: the wipeout stage prunes nodes that survived the weight
/// bound — nodes the 3-3 filter alone would still have branched — and
/// every driver returns the same optimum.
#[test]
fn propagation_shrinks_the_search_on_sequence_workloads() {
    let mut propagation_pruned = 0;
    for (n, len) in [(11usize, 40usize), (14, 150)] {
        for seed in 90..110u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = seqgen::hmdna_like_matrix(n, len, &mut rng);
            let seq = MutSolver::new()
                .three_three(ThreeThree::Full)
                .solve(&m)
                .unwrap();
            assert!(seq.is_complete());
            propagation_pruned += seq.stats.propagation_pruned;
            for backend in [
                SearchBackend::Parallel { workers: 4 },
                SearchBackend::SimulatedCluster {
                    spec: ClusterSpec::with_slaves(3),
                },
            ] {
                let sol = MutSolver::new()
                    .three_three(ThreeThree::Full)
                    .backend(backend.clone())
                    .solve(&m)
                    .unwrap();
                let what = format!("n = {n}, seed {seed}, {backend:?}");
                assert!(sol.is_complete(), "{what}");
                assert_eq!(seq.weight.to_bits(), sol.weight.to_bits(), "{what}");
            }
        }
    }
    assert!(propagation_pruned > 0, "no confinement wipeout fired");
}
