//! Fault-injection integration tests: the search drivers must survive
//! panicking, lying, and slow [`Problem`] implementations without
//! hanging, losing incumbents, or reporting a wrong stop reason.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mutree_bnb::fault::{FaultSpec, FaultyProblem};
use mutree_bnb::{
    solve_parallel, solve_sequential, ChildBuf, MemoryBudget, Problem, SearchMode, SearchOptions,
    SearchOutcome, SpawnPool, StopReason,
};

/// The parallel driver at four workers, on freshly spawned threads.
fn par4<P: Problem + Send + Sync + 'static>(
    p: P,
    opts: &SearchOptions,
) -> SearchOutcome<P::Solution> {
    solve_parallel(Arc::new(p), opts, 4, &SpawnPool, ())
}

/// Minimize the weighted ones-count over binary strings; the all-false
/// string (value 0) is always optimal, and an initial incumbent (all-true)
/// guarantees a feasible answer exists before the search starts.
struct WeightedBits {
    weights: Vec<f64>,
}

impl WeightedBits {
    fn new(n: usize) -> Self {
        WeightedBits {
            weights: (0..n).map(|i| 1.0 + (i % 3) as f64).collect(),
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
        Some((vec![true; self.weights.len()], self.weights.iter().sum()))
    }
}

/// A panicking worker must not deadlock the pool, the outcome must say
/// `WorkerPanicked`, and the initial incumbent (at minimum) must survive.
#[test]
fn worker_panic_reports_and_keeps_incumbent() {
    let total: f64 = WeightedBits::new(14).weights.iter().sum();
    let mut saw_panic = false;
    for seed in 0..20u64 {
        let p = FaultyProblem::new(WeightedBits::new(14), FaultSpec::new(seed).panic_rate(0.05));
        let start = Instant::now();
        let out = par4(p, &SearchOptions::new(SearchMode::BestOne));
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "seed {seed}: search took pathologically long"
        );
        let v = out
            .best_value
            .expect("the initial incumbent can never be lost");
        assert!(v <= total + 1e-9, "seed {seed}: incumbent worse than hint");
        assert!(!out.solutions.is_empty(), "seed {seed}: no solution kept");
        match out.stop {
            StopReason::WorkerPanicked => {
                saw_panic = true;
                // Early stop: value is an upper bound, not a certificate.
            }
            StopReason::Completed => assert_eq!(v, 0.0, "seed {seed}"),
            other => panic!("seed {seed}: unexpected stop reason {other:?}"),
        }
    }
    assert!(saw_panic, "5% panic rate never fired across 20 seeds");
}

/// Panic rate 1: the very first branch (in master seeding) panics; the
/// caller still gets a clean outcome carrying the initial incumbent.
#[test]
fn certain_panic_in_seeding_degrades_cleanly() {
    let p = FaultyProblem::new(WeightedBits::new(10), FaultSpec::new(3).panic_rate(1.0));
    let out = par4(p, &SearchOptions::new(SearchMode::BestOne));
    assert_eq!(out.stop, StopReason::WorkerPanicked);
    let total: f64 = WeightedBits::new(10).weights.iter().sum();
    assert_eq!(out.best_value, Some(total));
}

/// NaN and +∞ lower bounds are injected at a high rate; the search must
/// still terminate and never prune the optimum away on garbage bounds
/// (NaN is normalized to -∞ = "no information"). ∞ bounds *can* wrongly
/// prune (the problem is lying), so only feasibility is asserted there.
#[test]
fn nan_bounds_never_lose_the_optimum() {
    for seed in 0..10u64 {
        let p = FaultyProblem::new(
            WeightedBits::new(10),
            FaultSpec::new(seed).nan_bound_rate(0.3),
        );
        let seq = solve_sequential(&p, &SearchOptions::new(SearchMode::BestOne));
        assert_eq!(seq.best_value, Some(0.0), "seed {seed} (sequential)");
        assert!(seq.is_complete());
        let par = par4(p, &SearchOptions::new(SearchMode::BestOne));
        assert_eq!(par.best_value, Some(0.0), "seed {seed} (parallel)");
        assert!(par.is_complete());
    }
}

#[test]
fn inf_bounds_still_terminate_with_feasible_output() {
    let total: f64 = WeightedBits::new(10).weights.iter().sum();
    for seed in 0..10u64 {
        let p = FaultyProblem::new(
            WeightedBits::new(10),
            FaultSpec::new(seed).inf_bound_rate(0.3),
        );
        let out = par4(p, &SearchOptions::new(SearchMode::BestOne));
        let v = out.best_value.expect("initial incumbent survives");
        assert!(
            (0.0..=total + 1e-9).contains(&v),
            "seed {seed}: infeasible value {v}"
        );
    }
}

/// Slow branches + a short deadline: the search must respect the deadline
/// within a small overshoot, not run to exhaustion.
#[test]
fn deadline_interrupts_slow_branches() {
    let p = FaultyProblem::new(
        WeightedBits::new(22),
        FaultSpec::new(9).slow_branches(0.5, Duration::from_millis(2)),
    );
    let start = Instant::now();
    let opts = SearchOptions::new(SearchMode::BestOne).timeout(Duration::from_millis(50));
    let out = par4(p, &opts);
    let elapsed = start.elapsed();
    assert!(
        matches!(
            out.stop,
            StopReason::DeadlineExpired | StopReason::Completed
        ),
        "unexpected stop reason {:?}",
        out.stop
    );
    // Generous overshoot allowance: one slow branch per worker past the
    // deadline check plus scheduling noise.
    assert!(
        elapsed < Duration::from_secs(10),
        "deadline ignored: ran {elapsed:?}"
    );
    assert!(out.best_value.is_some());
}

/// A worker killed mid-search (every branch call from #k on panics) must
/// not hang the pool: the survivors drain or the pool unwinds, the stop
/// reason says `WorkerPanicked`, and the incumbent survives.
#[test]
fn killed_worker_does_not_hang_the_pool() {
    let total: f64 = WeightedBits::new(14).weights.iter().sum();
    for kill_at in [0u64, 1, 5, 50] {
        let p = FaultyProblem::new(WeightedBits::new(14), FaultSpec::new(7).kill_after(kill_at));
        let start = Instant::now();
        let out = par4(p, &SearchOptions::new(SearchMode::BestOne));
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "kill at #{kill_at}: hang"
        );
        assert_eq!(out.stop, StopReason::WorkerPanicked, "kill at #{kill_at}");
        let v = out.best_value.expect("incumbent lost");
        assert!((0.0..=total + 1e-9).contains(&v), "kill at #{kill_at}: {v}");
    }
}

/// Memory-pressure injection (duplicated child sets) against the
/// open-node watchdog: the frontier is inflated on purpose, the budget
/// forces shedding, and the outcome must say so — with a feasible
/// incumbent and a nonzero shed counter — instead of ballooning.
#[test]
fn memory_pressure_trips_the_watchdog() {
    let total: f64 = WeightedBits::new(16).weights.iter().sum();
    let p = FaultyProblem::new(
        WeightedBits::new(16),
        FaultSpec::new(11).memory_pressure(0.9, 3),
    );
    let opts = SearchOptions::new(SearchMode::BestOne).memory_budget(MemoryBudget::new(8));
    let out = par4(p, &opts);
    assert_eq!(out.stop, StopReason::MemoryExhausted);
    assert!(out.stats.nodes_shed > 0, "shedding must be accounted");
    let v = out.best_value.expect("incumbent lost");
    assert!((0.0..=total + 1e-9).contains(&v), "infeasible value {v}");
}

/// Duplicated children are correctness-preserving: without a budget the
/// pressured search still finds the true optimum, sequentially and in
/// parallel.
#[test]
fn memory_pressure_alone_preserves_the_optimum() {
    for seed in 0..5u64 {
        let p = FaultyProblem::new(
            WeightedBits::new(10),
            FaultSpec::new(seed).memory_pressure(0.5, 2),
        );
        let seq = solve_sequential(&p, &SearchOptions::new(SearchMode::BestOne));
        assert_eq!(seq.best_value, Some(0.0), "seed {seed} (sequential)");
        assert!(seq.is_complete());
        let par = par4(p, &SearchOptions::new(SearchMode::BestOne));
        assert_eq!(par.best_value, Some(0.0), "seed {seed} (parallel)");
        assert!(par.is_complete());
    }
}

/// Long injected sleeps must not blow through a deadline: `FaultSpec`
/// sleeps in slices and polls its deadline, so a 300 ms stall under a
/// 50 ms budget returns in far less than one full sleep.
#[test]
fn sliced_sleeps_respect_the_deadline_under_a_driver() {
    let deadline = Instant::now() + Duration::from_millis(50);
    let p = FaultyProblem::new(
        WeightedBits::new(22),
        FaultSpec::new(13)
            .slow_branches(1.0, Duration::from_millis(300))
            .deadline(deadline),
    );
    let opts = SearchOptions::new(SearchMode::BestOne).deadline(deadline);
    let start = Instant::now();
    let out = par4(p, &opts);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(5_000),
        "sleeps ignored the deadline: {elapsed:?}"
    );
    assert!(matches!(
        out.stop,
        StopReason::DeadlineExpired | StopReason::Completed
    ));
    assert!(out.best_value.is_some());
}

/// All faults at once, many seeds: the search must always return, always
/// with a feasible incumbent and an accurate stop reason.
#[test]
fn combined_fault_storm_never_hangs_or_loses_incumbents() {
    let total: f64 = WeightedBits::new(12).weights.iter().sum();
    for seed in 0..15u64 {
        let p = FaultyProblem::new(
            WeightedBits::new(12),
            FaultSpec::new(seed)
                .panic_rate(0.02)
                .nan_bound_rate(0.1)
                .inf_bound_rate(0.05)
                .slow_branches(0.01, Duration::from_micros(200)),
        );
        let opts = SearchOptions::new(SearchMode::BestOne).timeout(Duration::from_secs(5));
        let start = Instant::now();
        let out = par4(p, &opts);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "seed {seed}: hang"
        );
        let v = out.best_value.expect("incumbent lost");
        assert!(
            (0.0..=total + 1e-9).contains(&v),
            "seed {seed}: infeasible value {v}"
        );
        assert!(
            matches!(
                out.stop,
                StopReason::Completed | StopReason::WorkerPanicked | StopReason::DeadlineExpired
            ),
            "seed {seed}: unexpected stop reason {:?}",
            out.stop
        );
    }
}
