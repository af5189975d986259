//! Work-stealing conservation properties: steal-half must never lose or
//! duplicate a node, with and without a panicking worker in the pool.
//!
//! The oracle is a counting wrapper that records every node handed to
//! [`Problem::branch`] in a shared map. On a tree where nothing prunes
//! (all weights zero, `AllOptimal` mode), a correct driver branches each
//! internal node exactly once and sees each leaf exactly once — any lost
//! batch shows up as a missing count, any duplicated batch as a count of
//! two.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mutree_bnb::fault::{FaultSpec, FaultyProblem};
use mutree_bnb::{
    solve_parallel, ChildBuf, Problem, SearchMode, SearchOptions, SpawnPool, StopReason,
};

/// A full binary tree of the given depth; every complete string has
/// value 0, so under `AllOptimal` no node is ever pruned.
struct ZeroTree {
    depth: usize,
}

impl Problem for ZeroTree {
    type Node = Vec<bool>;
    type Solution = Vec<bool>;

    fn root(&self) -> Vec<bool> {
        Vec::new()
    }
    fn lower_bound(&self, _node: &Vec<bool>) -> f64 {
        0.0
    }
    fn solution(&self, node: &Vec<bool>) -> Option<(Vec<bool>, f64)> {
        (node.len() == self.depth).then(|| (node.clone(), 0.0))
    }
    fn branch(&self, node: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
        for b in [false, true] {
            let mut c = node.clone();
            c.push(b);
            out.push(c);
        }
    }
}

/// Records every node passed to `branch` so the test can assert each was
/// expanded exactly once.
struct Counting<P: Problem> {
    inner: P,
    branched: Mutex<HashMap<Vec<bool>, u32>>,
}

impl<P: Problem> Counting<P> {
    fn new(inner: P) -> Self {
        Counting {
            inner,
            branched: Mutex::new(HashMap::new()),
        }
    }
}

impl<P: Problem<Node = Vec<bool>>> Problem for Counting<P> {
    type Node = Vec<bool>;
    type Solution = P::Solution;

    fn root(&self) -> Vec<bool> {
        self.inner.root()
    }
    fn lower_bound(&self, node: &Vec<bool>) -> f64 {
        self.inner.lower_bound(node)
    }
    fn solution(&self, node: &Vec<bool>) -> Option<(P::Solution, f64)> {
        self.inner.solution(node)
    }
    fn branch(&self, node: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
        *self
            .branched
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(node.clone())
            .or_insert(0) += 1;
        self.inner.branch(node, out);
    }
}

#[test]
fn steal_half_never_loses_or_duplicates_a_node() {
    let depth = 11usize;
    let opts = SearchOptions::new(SearchMode::AllOptimal);
    for workers in [2, 4, 8] {
        let p = Arc::new(Counting::new(ZeroTree { depth }));
        let out = solve_parallel(Arc::clone(&p), &opts, workers, &SpawnPool, ());
        assert!(out.is_complete(), "workers = {workers}");
        // Every leaf seen exactly once…
        assert_eq!(
            out.stats.solutions_seen,
            1u64 << depth,
            "workers = {workers}"
        );
        let branched = p.branched.lock().unwrap();
        // …and every internal node branched exactly once: counts prove
        // no duplication, the total proves no loss.
        assert_eq!(branched.len(), (1usize << depth) - 1, "workers = {workers}");
        assert!(
            branched.values().all(|&c| c == 1),
            "a node was expanded more than once at {workers} workers"
        );
    }
}

#[test]
fn conservation_holds_with_a_panicking_worker() {
    // Inject deterministic panics into ~0.2% of callbacks: the search
    // must stop with WorkerPanicked, never hang, and — the conservation
    // half — still never hand the same node to two workers, panics and
    // steals notwithstanding.
    let depth = 11usize;
    let opts = SearchOptions::new(SearchMode::AllOptimal);
    let mut saw_panic = false;
    for seed in 0..6u64 {
        let p = Arc::new(Counting::new(FaultyProblem::new(
            ZeroTree { depth },
            FaultSpec::new(seed).panic_rate(0.002),
        )));
        let out = solve_parallel(Arc::clone(&p), &opts, 8, &SpawnPool, ());
        let branched = p.branched.lock().unwrap_or_else(|e| e.into_inner());
        assert!(
            branched.values().all(|&c| c == 1),
            "a node was expanded more than once under faults (seed {seed})"
        );
        match out.stop {
            StopReason::WorkerPanicked => {
                saw_panic = true;
                // Partial run: nothing can exceed the full tree.
                assert!(branched.len() < (1usize << depth));
            }
            StopReason::Completed => {
                // The injected rate happened to miss every call slot the
                // run used; the run must then be a perfect enumeration.
                assert_eq!(branched.len(), (1usize << depth) - 1);
                assert_eq!(out.stats.solutions_seen, 1u64 << depth);
            }
            other => panic!("unexpected stop reason {other:?} (seed {seed})"),
        }
    }
    assert!(saw_panic, "no seed triggered a panic; raise the rate");
}

#[test]
fn contention_counters_reach_the_outcome() {
    // A tree deep enough that 8 workers on few cores must steal at least
    // once; the steal/donate/park counters must surface in the merged
    // stats. A 1-worker run steals its seeds from the overflow shards
    // but never donates or parks: it has no peer to share with.
    let depth = 13usize;
    let opts = SearchOptions::new(SearchMode::AllOptimal);
    let p = Arc::new(ZeroTree { depth });
    let solo = solve_parallel(Arc::clone(&p), &opts, 1, &SpawnPool, ());
    assert!(solo.is_complete());
    assert_eq!(solo.stats.donations, 0);
    assert_eq!(solo.stats.parks, 0);
    let crowd = solve_parallel(p, &opts, 8, &SpawnPool, ());
    assert!(crowd.is_complete());
    // Every worker starts with an empty stack and the 16 seeds sit in the
    // overflow shards: the search can only have started via steals.
    assert!(
        crowd.stats.steals > 0,
        "8 workers finished a 2^13 tree without a single steal"
    );
}
