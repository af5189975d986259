//! Three-driver agreement over the sharded work-stealing frontier: the
//! sequential search, the thread-parallel driver (on spawned threads
//! without an executor and on an attached executor) and the simulated
//! cluster must all find the same optimum on the same matrices, at every
//! worker count.
//!
//! Worker counts default to {1, 2, 8}; when `MUTREE_PIPELINE_THREADS` is
//! set (the CI stress pass pins it to 8 with `RUST_TEST_THREADS=1`), the
//! suite uses that count instead, so the stress run drives exactly the
//! configuration under test.
//!
//! The whole matrix additionally runs at both monomorphized leaf-bitset
//! widths (K = 1 and forced K = 2): the sharded frontier must find the
//! same optimum regardless of how wide the per-node leaf masks are.

use mutree::clustersim::ClusterSpec;
use mutree::core::{CompactPipeline, Executor, MutSolver, SearchBackend, SearchMode};
use mutree::distmat::DistanceMatrix;
use mutree::seqgen;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn worker_counts() -> Vec<usize> {
    match std::env::var_os("MUTREE_PIPELINE_THREADS") {
        Some(v) => vec![v
            .to_string_lossy()
            .trim()
            .parse()
            .expect("MUTREE_PIPELINE_THREADS is numeric")],
        None => vec![1, 2, 8],
    }
}

fn matrices() -> Vec<DistanceMatrix> {
    let mut out = Vec::new();
    for seed in [11u64, 12, 13] {
        let mut rng = StdRng::seed_from_u64(seed);
        out.push(seqgen::hmdna_like_matrix(11, 150, &mut rng));
    }
    out
}

#[test]
fn sequential_parallel_and_cluster_sim_agree() {
    for (mi, m) in matrices().iter().enumerate() {
        let seq = MutSolver::new()
            .backend(SearchBackend::Sequential)
            .solve(m)
            .unwrap();
        assert!(seq.is_complete());
        for words in [1usize, 2] {
            let wseq = MutSolver::new()
                .leaf_words(words)
                .backend(SearchBackend::Sequential)
                .solve(m)
                .unwrap();
            // The widths run the same search: same weight, same counters.
            assert_eq!(wseq.stats.branched, seq.stats.branched, "matrix {mi}");
            assert!((wseq.weight - seq.weight).abs() < 1e-9, "matrix {mi}");
            for workers in worker_counts() {
                let ctx = format!("matrix {mi}, workers {workers}, width {words}");
                // No executor attached: one spawned thread per worker.
                let spawned = MutSolver::new()
                    .leaf_words(words)
                    .backend(SearchBackend::Parallel { workers })
                    .solve(m)
                    .unwrap();
                assert!(spawned.is_complete(), "{ctx}");
                assert!(
                    (spawned.weight - seq.weight).abs() < 1e-9,
                    "spawned parallel disagrees: {ctx}: {} vs {}",
                    spawned.weight,
                    seq.weight
                );

                let pooled = MutSolver::new()
                    .leaf_words(words)
                    .backend(SearchBackend::Parallel { workers })
                    .executor(Executor::new(workers))
                    .solve(m)
                    .unwrap();
                assert!(pooled.is_complete(), "{ctx}");
                assert!(
                    (pooled.weight - seq.weight).abs() < 1e-9,
                    "pooled parallel disagrees: {ctx}: {} vs {}",
                    pooled.weight,
                    seq.weight
                );

                let sim = MutSolver::new()
                    .leaf_words(words)
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
    }
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
    for words in [1usize, 2] {
        for workers in worker_counts() {
            let par = MutSolver::new()
                .leaf_words(words)
                .mode(SearchMode::AllOptimal)
                .backend(SearchBackend::Parallel { workers })
                .solve(&m)
                .unwrap();
            assert!((par.weight - seq.weight).abs() < 1e-9);
            assert_eq!(
                par.trees.len(),
                seq.trees.len(),
                "co-optimum count differs at {workers} workers, width {words}"
            );
        }
    }
}

#[test]
fn pipeline_honors_thread_env_and_agrees() {
    // The compact-set pipeline runs its group solves' parallel search on
    // the executor whenever one is attached — including the
    // process-wide one forced by MUTREE_PIPELINE_THREADS. Its exact
    // pieces must reproduce the sequential optimum of each piece's
    // submatrix regardless of thread count.
    let mut rng = StdRng::seed_from_u64(99);
    let m = seqgen::hmdna_like_matrix(14, 150, &mut rng);
    let base = CompactPipeline::new().threshold(8).solve(&m).unwrap();
    let pooled = CompactPipeline::new()
        .threshold(8)
        .executor(Executor::new(worker_counts()[0]))
        .solve(&m)
        .unwrap();
    assert!(base.tree.is_feasible_for(&m, 1e-9));
    assert!(pooled.tree.is_feasible_for(&m, 1e-9));
    assert!((base.tree.weight() - pooled.tree.weight()).abs() < 1e-9);
}
