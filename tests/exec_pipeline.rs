//! Determinism and fault isolation of the task-graph pipeline.
//!
//! The compact-set pipeline declares its stages as a task DAG and runs
//! them either inline or on a shared [`Executor`] worker pool. These
//! tests pin the two properties that make that safe:
//!
//! * **Determinism** — a 4-worker executor run produces the same weight,
//!   groups and (index-ordered) degradation records as the sequential
//!   run, under any scheduling;
//! * **Fault isolation** — a group solve that panics degrades only its
//!   own group, while sibling groups on the same pool complete exactly.

use mutree::bnb::StopReason;
use mutree::core::{CompactPipeline, DegradeReason, Executor, MutSolver, SearchBackend};
use mutree::distmat::{gen, DistanceMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Weight, groups and feasibility agree between the inline pipeline
    /// and the same pipeline fanned out over a 4-worker executor.
    #[test]
    fn executor_pipeline_matches_sequential(
        n in 10usize..=20,
        seed in any::<u64>(),
        threshold in 4usize..=7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::perturbed_ultrametric(n, 60.0, 0.05, &mut rng);
        let seq = CompactPipeline::new().threshold(threshold).solve(&m).unwrap();
        let par = CompactPipeline::new()
            .threshold(threshold)
            .executor(Executor::new(4))
            .solve(&m)
            .unwrap();
        prop_assert!(par.tree.is_feasible_for(&m, 1e-9));
        prop_assert!(
            (seq.weight - par.weight).abs() < 1e-9,
            "inline {} vs pooled {}", seq.weight, par.weight
        );
        prop_assert_eq!(&seq.groups, &par.groups);
        prop_assert_eq!(&seq.degraded, &par.degraded);
    }

    /// Degradation records stay deterministic when *every* stage degrades
    /// (zero budget, no initial incumbent): the executor run reports the
    /// identical stage-path-ordered set the inline run does.
    #[test]
    fn degraded_sets_agree_under_concurrency(
        n in 12usize..=20,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::perturbed_ultrametric(n, 60.0, 0.08, &mut rng);
        let starved = || MutSolver::new().without_upgmm().max_branches(0);
        let seq = CompactPipeline::new()
            .threshold(5)
            .solver(starved())
            .solve(&m)
            .unwrap();
        let par = CompactPipeline::new()
            .threshold(5)
            .solver(starved())
            .executor(Executor::new(4))
            .solve(&m)
            .unwrap();
        prop_assert!(par.tree.is_feasible_for(&m, 1e-9));
        prop_assert!((seq.weight - par.weight).abs() < 1e-9);
        prop_assert_eq!(&seq.degraded, &par.degraded);
        prop_assert_eq!(seq.stop, par.stop);
    }
}

/// Three tight clusters of sizes 3, 4 and 5: an ultrametric matrix whose
/// compact sets are exactly the clusters, so a threshold of 6 yields
/// three groups of known sizes.
fn three_cluster_matrix() -> DistanceMatrix {
    let sizes = [3usize, 4, 5];
    let cluster_of: Vec<usize> = sizes
        .iter()
        .enumerate()
        .flat_map(|(c, &s)| std::iter::repeat_n(c, s))
        .collect();
    let n = cluster_of.len();
    let mut rows = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            rows[i][j] = if cluster_of[i] == cluster_of[j] {
                2.0 + cluster_of[i] as f64
            } else {
                100.0
            };
        }
    }
    DistanceMatrix::from_rows(&rows).unwrap()
}

/// One poisoned group solve (injected panic on every 4-taxon matrix)
/// degrades only its own group; the sibling groups running on the same
/// worker pool still solve exactly, and the merged tree stays feasible.
#[test]
fn panicking_group_degrades_alone_on_shared_pool() {
    let m = three_cluster_matrix();
    let solver = MutSolver::new()
        .backend(SearchBackend::Parallel { workers: 2 })
        .panic_on_taxa(4);
    let pipe = CompactPipeline::new()
        .threshold(6)
        .executor(Executor::new(4))
        .solver(solver)
        .solve(&m)
        .unwrap();

    assert_eq!(pipe.groups.len(), 3);
    let poisoned: Vec<usize> = pipe
        .groups
        .iter()
        .enumerate()
        .filter(|(_, g)| g.len() == 4)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(poisoned.len(), 1);

    assert_eq!(pipe.degraded.len(), 1, "{:?}", pipe.degraded);
    let d = &pipe.degraded[0];
    assert_eq!(d.group, Some(poisoned[0]));
    assert_eq!(d.reason, DegradeReason::Panicked);
    assert_eq!(d.stage, format!("group {}", poisoned[0]));
    assert_eq!(pipe.stop, StopReason::WorkerPanicked);

    // The merged tree is whole and feasible: the poisoned group got the
    // agglomerative stand-in, the siblings' subtrees are exact.
    assert_eq!(pipe.tree.leaf_count(), m.len());
    assert!(pipe.tree.is_feasible_for(&m, 1e-9));
}

/// The same injected fault without an executor (inline DAG) behaves
/// identically — the degradation ladder is executor-independent.
#[test]
fn panicking_group_degrades_alone_inline() {
    let m = three_cluster_matrix();
    let pipe = CompactPipeline::new()
        .threshold(6)
        .solver(MutSolver::new().panic_on_taxa(4))
        .solve(&m)
        .unwrap();
    assert_eq!(pipe.degraded.len(), 1);
    assert_eq!(pipe.degraded[0].reason, DegradeReason::Panicked);
    assert!(pipe.tree.is_feasible_for(&m, 1e-9));
}

/// Creating and dropping executors must never hang. Dropping one joins
/// its workers after setting the shutdown flag; that flag has to be
/// published under the queue lock the workers check it under, or a
/// worker between its check and its wait misses the wakeup and the join
/// blocks forever (about once per hundred drops before the fix). The
/// loop runs on its own thread so a hang fails the test instead of
/// wedging the suite.
#[test]
fn dropping_executors_never_hangs() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..200 {
            drop(Executor::new(2));
        }
        let _ = done.send(());
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("an executor drop hung joining its workers");
}
