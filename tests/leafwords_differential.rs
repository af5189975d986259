//! Differential agreement between the monomorphized leaf-bitset widths:
//! on any matrix that fits in one word (n ≤ 64), solving with forced
//! K = 1 and forced K = 2 must be *the same search* — identical optimum
//! weight, identical topology, and identical `SearchStats.branched`
//! (sequentially, the drivers expand the same nodes in the same order;
//! widening the bitset may not change a single decision).
//!
//! Widths are forced with the `MutSolver::leaf_words` builder.

use mutree::clustersim::ClusterSpec;
use mutree::core::{MutSolver, SearchBackend};
use mutree::distmat::{gen, DistanceMatrix};
use mutree::seqgen;
use mutree::tree::compare::robinson_foulds;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small sweep of matrix families: random metric, near-ultrametric,
/// sequence-derived, and the full-word 64-taxon boundary.
fn matrices() -> Vec<DistanceMatrix> {
    let mut out = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        out.push(gen::uniform_metric(7 + seed as usize, 1.0, 100.0, &mut rng));
    }
    for seed in [21u64, 22] {
        let mut rng = StdRng::seed_from_u64(seed);
        out.push(gen::perturbed_ultrametric(9, 50.0, 0.1, &mut rng));
    }
    let mut rng = StdRng::seed_from_u64(31);
    out.push(seqgen::hmdna_like_matrix(10, 120, &mut rng));
    let mut rng = StdRng::seed_from_u64(64);
    out.push(gen::random_ultrametric(64, 100.0, &mut rng));
    out
}

/// Weight, topology and branch-count agreement on the sequential driver,
/// where the expansion order is deterministic.
#[test]
fn forced_widths_agree_bit_for_bit_sequentially() {
    for (mi, m) in matrices().iter().enumerate() {
        let narrow = MutSolver::new().leaf_words(1).solve(m).unwrap();
        let wide = MutSolver::new().leaf_words(2).solve(m).unwrap();
        assert!(narrow.is_complete() && wide.is_complete(), "matrix {mi}");
        assert_eq!(narrow.weight, wide.weight, "matrix {mi}: weight differs");
        assert_eq!(
            narrow.stats.branched, wide.stats.branched,
            "matrix {mi}: branch counts differ"
        );
        assert_eq!(
            narrow.stats.pruned, wide.stats.pruned,
            "matrix {mi}: prune counts differ"
        );
        assert_eq!(
            robinson_foulds(&narrow.tree, &wide.tree).unwrap(),
            0,
            "matrix {mi}: topologies differ"
        );
    }
}

/// The same agreement across the thread-parallel and simulated-cluster
/// drivers (parallel branch counts are scheduling-dependent, so there the
/// contract is optimum + completeness; the deterministic sim keeps the
/// full bit-for-bit contract).
#[test]
fn forced_widths_agree_on_all_drivers() {
    let mut rng = StdRng::seed_from_u64(77);
    let m = seqgen::hmdna_like_matrix(11, 150, &mut rng);
    let reference = MutSolver::new().leaf_words(1).solve(&m).unwrap();
    for words in [1usize, 2] {
        let par = MutSolver::new()
            .leaf_words(words)
            .backend(SearchBackend::Parallel { workers: 4 })
            .solve(&m)
            .unwrap();
        assert!(par.is_complete(), "parallel width {words}");
        assert!((par.weight - reference.weight).abs() < 1e-9);

        let sim = MutSolver::new()
            .leaf_words(words)
            .backend(SearchBackend::SimulatedCluster {
                spec: ClusterSpec::with_slaves(4),
            })
            .solve(&m)
            .unwrap();
        assert!(sim.is_complete(), "sim width {words}");
        assert!((sim.weight - reference.weight).abs() < 1e-9);
    }
    let sim1 = MutSolver::new()
        .leaf_words(1)
        .backend(SearchBackend::SimulatedCluster {
            spec: ClusterSpec::with_slaves(4),
        })
        .solve(&m)
        .unwrap();
    let sim2 = MutSolver::new()
        .leaf_words(2)
        .backend(SearchBackend::SimulatedCluster {
            spec: ClusterSpec::with_slaves(4),
        })
        .solve(&m)
        .unwrap();
    assert_eq!(sim1.stats.branched, sim2.stats.branched);
    assert_eq!(robinson_foulds(&sim1.tree, &sim2.tree).unwrap(), 0);
}

/// A builder-set width forces the wide path, and a forced width can never
/// narrow the dispatch below what the matrix needs.
#[test]
fn forced_width_widens_but_never_narrows() {
    let mut rng = StdRng::seed_from_u64(5);
    let m = gen::uniform_metric(8, 1.0, 100.0, &mut rng);
    let solver = MutSolver::new();
    assert_eq!(solver.dispatch_leaf_words(m.len()), Some(1));
    assert_eq!(
        solver.clone().leaf_words(2).dispatch_leaf_words(m.len()),
        Some(2)
    );
    assert_eq!(solver.clone().leaf_words(4).dispatch_leaf_words(8), Some(4));
    assert_eq!(
        solver.clone().leaf_words(1).dispatch_leaf_words(65),
        Some(2)
    );

    let forced = solver.clone().leaf_words(2).solve(&m).unwrap();
    let baseline = solver.leaf_words(1).solve(&m).unwrap();
    assert_eq!(forced.weight, baseline.weight);
    assert_eq!(forced.stats.branched, baseline.stats.branched);
    assert_eq!(robinson_foulds(&forced.tree, &baseline.tree).unwrap(), 0);
}
