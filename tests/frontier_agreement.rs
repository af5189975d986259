//! Three-driver agreement over the sharded work-stealing frontier: the
//! sequential search, the thread-parallel driver (on spawned threads
//! without an executor and on an attached executor) and the simulated
//! cluster must all find the same optimum on the same matrices, at every
//! worker count.
//!
//! The parallel driver runs at workers {1, 2, 8}; the shard count
//! follows the worker count, so 8 workers steal across 8 shards, and on
//! a small host they oversubscribe the cores, which maximises donation,
//! steal and park interleavings.

use mutree::clustersim::ClusterSpec;
use mutree::core::{CompactPipeline, Executor, MutSolver, SearchBackend, SearchMode};
use mutree::distmat::{gen, DistanceMatrix};
use mutree::seqgen;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parallel worker (and simulated slave) counts.
const WORKERS: [usize; 3] = [1, 2, 8];

/// Near-ultrametric matrices, which the UPGMM incumbent settles at the
/// root, and random metrics, whose searches branch hundreds of times so
/// the frontier carries real steal and donation traffic.
fn matrices() -> Vec<DistanceMatrix> {
    let mut out = Vec::new();
    for seed in [11u64, 12, 13] {
        let mut rng = StdRng::seed_from_u64(seed);
        out.push(seqgen::hmdna_like_matrix(11, 150, &mut rng));
    }
    for (n, seed) in [(11usize, 3u64), (12, 1)] {
        let mut rng = StdRng::seed_from_u64(seed);
        out.push(gen::uniform_metric(n, 1.0, 100.0, &mut rng));
    }
    out
}

#[test]
fn sequential_parallel_and_cluster_sim_agree() {
    let mut branched = 0;
    for (mi, m) in matrices().iter().enumerate() {
        let seq = MutSolver::new()
            .backend(SearchBackend::Sequential)
            .solve(m)
            .unwrap();
        assert!(seq.is_complete());
        branched += seq.stats.branched;
        for workers in WORKERS {
            let ctx = format!("matrix {mi}, workers {workers}");
            let parallel = MutSolver::new().backend(SearchBackend::Parallel { workers });
            // No executor attached: one spawned thread per worker.
            let spawned = parallel.solve(m).unwrap();
            assert!(spawned.is_complete(), "{ctx}");
            assert!(
                (spawned.weight - seq.weight).abs() < 1e-9,
                "spawned parallel disagrees: {ctx}: {} vs {}",
                spawned.weight,
                seq.weight
            );

            let pooled = parallel.executor(Executor::new(workers)).solve(m).unwrap();
            assert!(pooled.is_complete(), "{ctx}");
            assert!(
                (pooled.weight - seq.weight).abs() < 1e-9,
                "pooled parallel disagrees: {ctx}: {} vs {}",
                pooled.weight,
                seq.weight
            );

            let sim = MutSolver::new()
                .backend(SearchBackend::SimulatedCluster {
                    spec: ClusterSpec::with_slaves(workers),
                })
                .solve(m)
                .unwrap();
            assert!(sim.is_complete(), "{ctx}");
            assert!(
                (sim.weight - seq.weight).abs() < 1e-9,
                "cluster sim disagrees: {ctx}: {} vs {}",
                sim.weight,
                seq.weight
            );
        }
    }
    assert!(branched > 0, "no matrix sends work through the frontier");
}

#[test]
fn all_optimal_sets_agree_across_drivers() {
    // Equidistant taxa give genuine co-optima; every driver must
    // enumerate the same number of optimal topologies.
    let m = DistanceMatrix::from_rows(&[
        vec![0.0, 6.0, 6.0, 6.0],
        vec![6.0, 0.0, 6.0, 6.0],
        vec![6.0, 6.0, 0.0, 6.0],
        vec![6.0, 6.0, 6.0, 0.0],
    ])
    .unwrap();
    let seq = MutSolver::new()
        .mode(SearchMode::AllOptimal)
        .solve(&m)
        .unwrap();
    for workers in WORKERS {
        let par = MutSolver::new()
            .mode(SearchMode::AllOptimal)
            .backend(SearchBackend::Parallel { workers })
            .solve(&m)
            .unwrap();
        assert!((par.weight - seq.weight).abs() < 1e-9);
        assert_eq!(
            par.trees.len(),
            seq.trees.len(),
            "co-optimum count differs at {workers} workers"
        );
    }
}

#[test]
fn pipeline_on_an_executor_agrees() {
    // The compact-set pipeline runs its group solves on the executor
    // whenever one is attached. Its exact pieces must reproduce the
    // inline run's optimum regardless of thread count.
    let mut rng = StdRng::seed_from_u64(99);
    let m = seqgen::hmdna_like_matrix(14, 150, &mut rng);
    let base = CompactPipeline::new().threshold(8).solve(&m).unwrap();
    assert!(base.tree.is_feasible_for(&m, 1e-9));
    for workers in WORKERS {
        let pooled = CompactPipeline::new()
            .threshold(8)
            .executor(Executor::new(workers))
            .solve(&m)
            .unwrap();
        assert!(pooled.tree.is_feasible_for(&m, 1e-9));
        assert!(
            (base.tree.weight() - pooled.tree.weight()).abs() < 1e-9,
            "{workers} workers"
        );
    }
}
