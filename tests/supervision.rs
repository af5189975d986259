//! Supervised-runtime end-to-end tests: crash-safe checkpoint/resume
//! across all three search drivers, the open-node memory watchdog, and
//! reproducible supervised pipeline runs — the robustness layer
//! exercised as a whole, from the engine up through the solver and
//! pipeline front ends.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutree::bnb::checkpoint;
use mutree::bnb::fault::{FaultSpec, FaultyProblem};
use mutree::bnb::{
    solve_parallel, CheckpointPolicy, ChildBuf, MemoryBudget, Problem, SearchMode, SearchOptions,
    SpawnPool, StopReason,
};
use mutree::clustersim::ClusterSpec;
use mutree::core::{CompactPipeline, MutSolver, SearchBackend};
use mutree::distmat::{gen, DistanceMatrix};
use mutree::tree::compare::robinson_foulds;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn matrix(seed: u64) -> DistanceMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::perturbed_ultrametric(12, 60.0, 0.08, &mut rng)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mutree-sup-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn backends() -> [(&'static str, SearchBackend); 3] {
    [
        ("sequential", SearchBackend::Sequential),
        ("parallel", SearchBackend::Parallel { workers: 4 }),
        (
            "simulated",
            SearchBackend::SimulatedCluster {
                spec: ClusterSpec::with_slaves(4),
            },
        ),
    ]
}

/// The headline crash-safety property: a run killed mid-search leaves a
/// durable snapshot, and resuming from it reaches the *bit-identical*
/// optimum (weight and RF-0 topology) of an uninterrupted run — on every
/// driver.
#[test]
fn interrupted_solve_resumes_to_the_bit_identical_optimum() {
    let m = matrix(5);
    let dir = tmpdir("resume");
    for (name, backend) in backends() {
        let clean = MutSolver::new().backend(backend.clone()).solve(&m).unwrap();
        assert!(clean.is_complete(), "{name}: clean run must complete");

        // "Kill" the first run early: a tiny branch budget interrupts the
        // search mid-way, and the snapshot keeps its best incumbent.
        let ckpt = dir.join(format!("{name}.ckpt"));
        let interrupted = MutSolver::new()
            .backend(backend.clone())
            .max_branches(2)
            .checkpoint_to(&ckpt)
            .solve(&m)
            .unwrap();
        assert!(
            !interrupted.is_complete(),
            "{name}: 2 branches cannot finish 12 taxa"
        );
        assert!(
            interrupted.stats.checkpoints >= 1,
            "{name}: the interrupted run must leave a snapshot"
        );
        assert!(ckpt.exists(), "{name}: snapshot file missing");

        let resumed = MutSolver::new()
            .backend(backend.clone())
            .resume_from(&ckpt)
            .solve(&m)
            .unwrap();
        assert!(resumed.is_complete(), "{name}: resumed run must complete");
        assert_eq!(
            clean.weight.to_bits(),
            resumed.weight.to_bits(),
            "{name}: resume must reach the bit-identical optimum ({} vs {})",
            clean.weight,
            resumed.weight
        );
        assert_eq!(
            robinson_foulds(&clean.tree, &resumed.tree).unwrap(),
            0,
            "{name}: resumed topology differs"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming from a checkpoint of a *different* (relabeled) run is still
/// safe: the snapshot payload is stored in original taxon indexing, so
/// the warm start survives the maxmin permutation changing between runs.
#[test]
fn resume_survives_solver_configuration_changes() {
    let m = matrix(6);
    let dir = tmpdir("reconf");
    let ckpt = dir.join("solve.ckpt");
    // Checkpoint under the parallel driver, resume sequentially with the
    // 3-3 rule on: the incumbent must still decode and warm-start.
    MutSolver::new()
        .backend(SearchBackend::Parallel { workers: 4 })
        .max_branches(4)
        .checkpoint_to(&ckpt)
        .solve(&m)
        .unwrap();
    let resumed = MutSolver::new()
        .backend(SearchBackend::Sequential)
        .three_three(mutree::core::ThreeThree::InitialOnly)
        .resume_from(&ckpt)
        .solve(&m)
        .unwrap();
    let clean = MutSolver::new().solve(&m).unwrap();
    assert!(resumed.is_complete());
    assert_eq!(clean.weight.to_bits(), resumed.weight.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

/// The sequential watchdog invariant, measured rather than assumed: the
/// frontier never grows past the cap by more than one branching batch
/// (`peak_pool` is sampled right after each absorb, *before* the shed),
/// the search terminates with `MemoryExhausted`, and the best incumbent
/// survives.
#[test]
fn watchdog_caps_the_sequential_frontier_within_one_batch() {
    let m = matrix(7);
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

/// The parallel watchdog: same contract, sharded frontier. The matrix
/// is searched in plain maxmin order, relabeled by hand with the
/// solver's own relabeling off: in the solver's search order this
/// instance finishes before its frontier outgrows the cap.
#[test]
fn watchdog_sheds_the_parallel_frontier_and_keeps_the_incumbent() {
    let m = matrix(8);
    let m = m.maxmin_permutation().apply(&m);
    let sol = MutSolver::new()
        .without_maxmin()
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

// --- Engine-level kill/checkpoint/resume property --------------------

/// Minimize weighted ones over binary strings (optimum all-false = 0),
/// with an all-true initial incumbent and a byte codec for snapshots.
#[derive(Clone)]
struct WeightedBits {
    weights: Vec<f64>,
    resume: Option<(Vec<bool>, f64)>,
}

impl WeightedBits {
    fn new(n: usize) -> Self {
        WeightedBits {
            weights: (0..n).map(|i| 1.0 + (i % 3) as f64).collect(),
            resume: None,
        }
    }
}

impl Problem for WeightedBits {
    type Node = Vec<bool>;
    type Solution = Vec<bool>;

    fn root(&self) -> Vec<bool> {
        Vec::new()
    }
    fn lower_bound(&self, node: &Vec<bool>) -> f64 {
        node.iter()
            .zip(&self.weights)
            .map(|(&b, &w)| if b { w } else { 0.0 })
            .sum()
    }
    fn solution(&self, node: &Vec<bool>) -> Option<(Vec<bool>, f64)> {
        (node.len() == self.weights.len()).then(|| (node.clone(), self.lower_bound(node)))
    }
    fn branch(&self, node: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
        for b in [true, false] {
            let mut c = node.clone();
            c.push(b);
            out.push(c);
        }
    }
    fn initial_incumbent(&self) -> Option<(Vec<bool>, f64)> {
        let hint = (vec![true; self.weights.len()], self.weights.iter().sum());
        match &self.resume {
            Some((bits, v)) if *v < hint.1 => Some((bits.clone(), *v)),
            _ => Some(hint),
        }
    }
    fn encode_solution(&self, solution: &Vec<bool>) -> Option<Vec<u8>> {
        Some(solution.iter().map(|&b| b as u8).collect())
    }
}

/// Kill a worker mid-search while snapshotting every branch; the last
/// durable snapshot must decode to a feasible incumbent, and warm-starting
/// a fresh search from it reaches the clean-run optimum.
#[test]
fn killed_search_leaves_a_resumable_snapshot() {
    let dir = tmpdir("kill");
    let ckpt = dir.join("bits.ckpt");
    let killed = FaultyProblem::new(WeightedBits::new(14), FaultSpec::new(3).kill_after(40));
    let opts = SearchOptions::new(SearchMode::BestOne)
        .checkpoint(CheckpointPolicy::new(&ckpt).interval(1));
    let start = Instant::now();
    let out = solve_parallel(Arc::new(killed), &opts, 4, &SpawnPool, ());
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "kill hung the pool"
    );
    assert_eq!(out.stop, StopReason::WorkerPanicked);
    assert!(out.stats.checkpoints > 0, "snapshots must precede the kill");

    let file = checkpoint::read(&ckpt).expect("snapshot must be readable");
    let bits: Vec<bool> = file.payload.iter().map(|&b| b != 0).collect();
    assert_eq!(bits.len(), 14, "payload decodes to a full assignment");
    let mut resumed = WeightedBits::new(14);
    let value = resumed.lower_bound(&bits);
    assert!(
        (value - file.best_value).abs() < 1e-9,
        "snapshot value must match its payload"
    );
    resumed.resume = Some((bits, value));
    let opts = SearchOptions::new(SearchMode::BestOne);
    let clean = solve_parallel(Arc::new(WeightedBits::new(14)), &opts, 4, &SpawnPool, ());
    let warm = solve_parallel(Arc::new(resumed), &opts, 4, &SpawnPool, ());
    assert!(warm.is_complete());
    assert_eq!(warm.best_value, clean.best_value);
    assert_eq!(warm.best_value, Some(0.0));
    std::fs::remove_dir_all(&dir).ok();
}
