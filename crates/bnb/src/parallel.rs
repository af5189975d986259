use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::frontier::{ShardedFrontier, WorkerFrontier};
use crate::kernel::{
    sanitize_lb, AtomicBudget, BreadthFirstFrontier, Expander, Frontier, IncumbentSink, Incumbents,
    SearchObserver, Step,
};
use crate::pool::{PoolJob, WorkerPool};
use crate::{
    Problem, SearchMode, SearchOptions, SearchOutcome, SearchStats, SharedBound, StopReason,
};

/// Compact first-wins encoding of the early-stop reason; `0` = running.
const STOP_NONE: u8 = 0;

fn encode_stop(r: StopReason) -> u8 {
    match r {
        StopReason::Completed => STOP_NONE,
        StopReason::BudgetExhausted => 1,
        StopReason::DeadlineExpired => 2,
        StopReason::Cancelled => 3,
        StopReason::WorkerPanicked => 4,
        StopReason::MemoryExhausted => 5,
    }
}

fn decode_stop(v: u8) -> StopReason {
    match v {
        1 => StopReason::BudgetExhausted,
        2 => StopReason::DeadlineExpired,
        3 => StopReason::Cancelled,
        4 => StopReason::WorkerPanicked,
        5 => StopReason::MemoryExhausted,
        _ => StopReason::Completed,
    }
}

/// Everything one parallel search shares between its workers: the
/// work-stealing frontier, the atomic bound, the global branch budget,
/// the stop flag and the publish-immediately solution list.
struct Shared<N, S> {
    frontier: ShardedFrontier<N>,
    bound: SharedBound,
    branches: AtomicU64,
    /// First early-stop reason to fire, `STOP_NONE` while running.
    stop: AtomicU8,
    /// Set once any worker sheds nodes for the memory watchdog: the
    /// search keeps draining the capped frontier, but a "natural"
    /// exhaustion afterwards is no longer a proof of optimality, so the
    /// final stop reason becomes [`StopReason::MemoryExhausted`].
    shed: AtomicBool,
    /// Incumbents are published here the moment they are accepted, so a
    /// worker that later panics loses none of its finds.
    found: Mutex<Vec<(f64, S)>>,
}

impl<N, S> Shared<N, S> {
    fn new(frontier: ShardedFrontier<N>, bound: SharedBound, branches: AtomicU64) -> Self {
        Shared {
            frontier,
            bound,
            branches,
            stop: AtomicU8::new(STOP_NONE),
            shed: AtomicBool::new(false),
            found: Mutex::new(Vec::new()),
        }
    }

    /// Records `reason` if no earlier stop fired, then closes the
    /// frontier, which wakes every parked worker. Safe to call from a
    /// panic's unwind path: the frontier's in-flight counter needs no
    /// repair, because closing overrides it.
    fn request_stop(&self, reason: StopReason) {
        let _ = self.stop.compare_exchange(
            STOP_NONE,
            encode_stop(reason),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.frontier.close();
    }

    /// The final stop reason: the first explicit stop to fire, except
    /// that a run which shed nodes can no longer claim `Completed`.
    fn stop_reason(&self) -> StopReason {
        let stop = decode_stop(self.stop.load(Ordering::Acquire));
        if matches!(stop, StopReason::Completed) && self.shed.load(Ordering::Acquire) {
            StopReason::MemoryExhausted
        } else {
            stop
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire) != STOP_NONE
    }

    /// Marks that the memory watchdog dropped open nodes somewhere.
    fn note_shed(&self) {
        self.shed.store(true, Ordering::Release);
    }

    fn publish(&self, value: f64, solution: S) {
        self.found
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((value, solution));
    }

    fn take_found(&self) -> Vec<(f64, S)> {
        std::mem::take(&mut self.found.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// The master's seeding-phase sink: a local [`Incumbents`] plus the shared
/// atomic bound that workers will later prune against.
struct SeedSink<'a, S> {
    inc: &'a mut Incumbents<S>,
    bound: &'a SharedBound,
}

impl<S: Clone> IncumbentSink<S> for SeedSink<'_, S> {
    fn current_ub(&self) -> f64 {
        self.bound.get()
    }

    fn accept(&mut self, value: f64, solution: S) -> bool {
        let improved = self.inc.offer(value, solution);
        if improved {
            self.bound.try_improve(value);
        }
        improved
    }
}

/// A worker's sink: prunes against a shared atomic bound and publishes
/// accepted solutions immediately, so a later panic loses nothing.
struct WorkerSink<'a, S, F: Fn(f64, S)> {
    bound: &'a SharedBound,
    publish: F,
    opts: &'a SearchOptions,
    _marker: std::marker::PhantomData<S>,
}

impl<'a, S, F: Fn(f64, S)> WorkerSink<'a, S, F> {
    fn new(bound: &'a SharedBound, opts: &'a SearchOptions, publish: F) -> Self {
        WorkerSink {
            bound,
            publish,
            opts,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S, F: Fn(f64, S)> IncumbentSink<S> for WorkerSink<'_, S, F> {
    fn current_ub(&self) -> f64 {
        self.bound.get()
    }

    fn accept(&mut self, value: f64, solution: S) -> bool {
        match self.opts.mode {
            SearchMode::BestOne => {
                if self.bound.try_improve(value) {
                    (self.publish)(value, solution);
                    true
                } else {
                    false
                }
            }
            SearchMode::AllOptimal => {
                let ub = self.bound.get();
                if value <= ub + self.opts.eps(ub) {
                    (self.publish)(value, solution);
                    self.bound.try_improve(value)
                } else {
                    false
                }
            }
        }
    }
}

/// Master/slave parallel branch-and-bound (the paper's Table 1 algorithm,
/// with threads standing in for cluster nodes), run on a borrowed
/// [`WorkerPool`]:
///
/// 1. the master applies the initial incumbent (Step 3) and pre-branches
///    the tree breadth-first until at least `2 × workers` open nodes exist
///    (Step 5);
/// 2. open nodes are sorted by lower bound and seeded round-robin into
///    the [sharded frontier](crate::frontier)'s overflow shards, so each
///    shard's front holds its most promising node (Step 6);
/// 3. `workers − 1` worker loops are submitted to `pool` as jobs and one
///    runs on the calling thread; every worker steals its first batch,
///    then runs depth-first on its local stack (Step 7), pruning against
///    the *shared* upper bound, which any improvement updates atomically
///    — the thread analogue of broadcasting the global UB;
/// 4. load balancing is work stealing: a worker whose stack drains
///    steals half a batch from an overflow shard, and a loaded worker
///    donates its shallowest nodes in batches whenever a peer is parked
///    — nobody idles while work remains, and the per-node fast path never
///    touches a lock;
/// 5. when the frontier's in-flight node counter reaches zero the search
///    is exhausted; the last worker closes the frontier and the master
///    gathers solutions (Step 8).
///
/// Both the seeding phase and the workers run the shared
/// [expansion kernel](crate::kernel); only the scheduling around it (the
/// frontier, the shared bound, the stop flags) lives here. The observer
/// is cloned once per worker (plus once for the seeding phase), so each
/// thread owns its copy and no locking is added to the hot path.
///
/// The problem is `Arc`-shared because pool jobs are `'static` and may
/// outlive this stack frame (they self-terminate once the search ends).
/// Termination needs no worker registration: the in-flight counter
/// reaches zero when the tree is exhausted, whether one thread drained it
/// or eight did, so the search completes even if the pool is too busy to
/// ever run some jobs (the calling thread alone suffices), and a job
/// arriving after the search drained exits immediately on the closed
/// frontier. Pass [`SpawnPool`](crate::SpawnPool) when no executor is at
/// hand.
///
/// With `workers == 1` this degenerates to (slightly buffered) sequential
/// search; completed runs always agree in optimum value with
/// [`solve_sequential`](crate::solve_sequential).
///
/// # Robustness
///
/// The search is anytime and fault-isolated:
///
/// * deadline and cancellation (see [`SearchOptions`]) are checked
///   cooperatively by every worker; the first to notice stops the whole
///   search, and the outcome keeps the best incumbent published so far;
/// * a panic in one worker (i.e. in the [`Problem`] implementation) is
///   caught; the worker closes the frontier on its way out, which wakes
///   every parked peer, and the run drains cleanly with
///   [`StopReason::WorkerPanicked`] — never a deadlock, and never losing
///   incumbents already published, because workers publish each accepted
///   solution immediately;
/// * NaN lower bounds never prune (they are treated as `-∞`) and NaN
///   objective values are rejected, so a numerically degenerate problem
///   degrades to extra work instead of wrong answers.
pub fn solve_parallel<P, O>(
    problem: Arc<P>,
    opts: &SearchOptions,
    workers: usize,
    pool: &dyn WorkerPool,
    observer: O,
) -> SearchOutcome<P::Solution>
where
    P: Problem + Send + Sync + 'static,
    O: SearchObserver + Clone + Send + 'static,
{
    assert!(workers >= 1, "need at least one worker");
    let mut master_inc = Incumbents::new(opts);
    let bound = SharedBound::unbounded();
    let branches = AtomicU64::new(0);
    let mut master_obs = observer.clone();
    let seed = seed_phase(
        &*problem,
        opts,
        workers,
        &mut master_inc,
        &bound,
        &branches,
        &mut master_obs,
    );

    if seed.frontier.is_empty() || seed.early_stop.is_some() {
        return gather(
            opts,
            seed.stats,
            master_inc.solutions,
            seed.early_stop.unwrap_or(StopReason::Completed),
        );
    }

    // Seeds go to the overflow shards, most promising first, so the first
    // steal each worker performs grabs the best available batch.
    let mut seeds: Vec<(f64, P::Node)> = seed
        .frontier
        .into_vec()
        .into_iter()
        .map(|n| (sanitize_lb(problem.lower_bound(&n)), n))
        .collect();
    seeds.sort_by(|a, b| a.0.total_cmp(&b.0));

    let shared: Arc<Shared<P::Node, P::Solution>> = Arc::new(Shared::new(
        ShardedFrontier::for_workers(workers),
        bound,
        branches,
    ));
    shared
        .frontier
        .seed(seeds.into_iter().map(|(_, n)| n).collect());

    let opts_shared = Arc::new(opts.clone());
    let pooled_stats: Arc<Mutex<Vec<SearchStats>>> = Arc::new(Mutex::new(Vec::new()));
    let jobs: Vec<PoolJob> = (1..workers)
        .map(|_| {
            let problem = Arc::clone(&problem);
            let shared = Arc::clone(&shared);
            let opts = Arc::clone(&opts_shared);
            let stats = Arc::clone(&pooled_stats);
            let mut obs = observer.clone();
            Box::new(move || {
                // A late starter skips a search that already drained.
                if shared.frontier.is_closed() {
                    return;
                }
                match catch_unwind(AssertUnwindSafe(|| {
                    run_worker(&*problem, &opts, &shared, &mut obs)
                })) {
                    Ok(st) => stats.lock().unwrap_or_else(|e| e.into_inner()).push(st),
                    Err(_) => shared.request_stop(StopReason::WorkerPanicked),
                }
            }) as PoolJob
        })
        .collect();

    let mut caller_stats: Option<SearchStats> = None;
    let mut caller_obs = observer;
    pool.run_all(
        jobs,
        Box::new(|| {
            caller_stats = match catch_unwind(AssertUnwindSafe(|| {
                run_worker(&*problem, opts, &shared, &mut caller_obs)
            })) {
                Ok(st) => Some(st),
                Err(_) => {
                    shared.request_stop(StopReason::WorkerPanicked);
                    None
                }
            };
        }),
    );

    let mut stats = seed.stats;
    if let Some(cs) = &caller_stats {
        stats.merge(cs);
    }
    for ws in pooled_stats
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
    {
        stats.merge(ws);
    }
    let mut all = master_inc.solutions;
    all.append(&mut shared.take_found());
    gather(opts, stats, all, shared.stop_reason())
}

/// What the master's seeding phase hands to the worker phase.
struct SeedOutcome<N> {
    frontier: BreadthFirstFrontier<N>,
    early_stop: Option<StopReason>,
    stats: SearchStats,
}

/// Master seeding phase: breadth-first until `2 × workers` open nodes.
/// The problem's callbacks run on the calling thread, so the phase gets
/// the same panic isolation as the workers: a panic mid-seeding yields
/// whatever incumbent exists with `WorkerPanicked` instead of unwinding
/// through the caller.
fn seed_phase<P: Problem, O: SearchObserver>(
    problem: &P,
    opts: &SearchOptions,
    workers: usize,
    master_inc: &mut Incumbents<P::Solution>,
    bound: &SharedBound,
    branches: &AtomicU64,
    observer: &mut O,
) -> SeedOutcome<P::Node> {
    let mut exp = Expander::new(problem, opts);
    {
        let mut sink = SeedSink {
            inc: master_inc,
            bound,
        };
        exp.offer_initial(&mut sink);
    }
    let mut frontier = BreadthFirstFrontier::new();
    let mut early_stop: Option<StopReason> = None;
    let seeding = catch_unwind(AssertUnwindSafe(|| {
        let target = 2 * workers;
        exp.push_root(&mut frontier);
        while frontier.len() < target {
            if let Some(reason) = exp.poll_stop(observer) {
                early_stop = Some(reason);
                break;
            }
            let Some(node) = frontier.pop() else {
                break;
            };
            let mut sink = SeedSink {
                inc: master_inc,
                bound,
            };
            let mut budget = AtomicBudget::new(branches, opts.max_branches);
            match exp.expand(&node, &mut sink, &mut budget, &mut frontier, observer) {
                Step::Stopped(reason) => {
                    early_stop = Some(reason);
                    break;
                }
                _ => exp.recycle(node),
            }
        }
    }));
    if seeding.is_err() {
        early_stop = Some(StopReason::WorkerPanicked);
        frontier = BreadthFirstFrontier::new();
    }
    SeedOutcome {
        frontier,
        early_stop,
        stats: exp.stats(),
    }
}

/// Reduces collected `(value, solution)` pairs to the final outcome.
fn gather<S>(
    opts: &SearchOptions,
    stats: SearchStats,
    all: Vec<(f64, S)>,
    stop: StopReason,
) -> SearchOutcome<S> {
    let best = all
        .iter()
        .map(|(v, _)| *v)
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.min(v)))
        });
    match best {
        Some(bv) => {
            let eps = opts.eps(bv);
            let mut solutions: Vec<S> = all
                .into_iter()
                .filter(|(v, _)| *v <= bv + eps)
                .map(|(_, s)| s)
                .collect();
            if matches!(opts.mode, SearchMode::BestOne) {
                solutions.truncate(1);
            }
            SearchOutcome {
                best_value: Some(bv),
                solutions,
                stats,
                stop,
            }
        }
        None => SearchOutcome {
            best_value: None,
            solutions: Vec::new(),
            stats,
            stop,
        },
    }
}

/// One worker's scheduling loop around the expansion kernel: dive
/// depth-first on the local stack; when it drains (or before the first
/// node, since every worker starts empty), steal from the
/// frontier's overflow shards or park; after every expansion, donate
/// surplus if a peer is parked. The per-node fast path (pop → expand →
/// finish) performs no mutex acquisition — shared state is touched only
/// at steal/donate batch boundaries.
fn run_worker<P: Problem, O: SearchObserver>(
    problem: &P,
    opts: &SearchOptions,
    shared: &Shared<P::Node, P::Solution>,
    observer: &mut O,
) -> SearchStats {
    let mut exp = Expander::new(problem, opts);
    let mut frontier = WorkerFrontier::new(&shared.frontier);
    let mut budget = AtomicBudget::new(&shared.branches, opts.max_branches);
    let mut sink = WorkerSink::new(&shared.bound, opts, |v, s| shared.publish(v, s));
    loop {
        if shared.stopping() {
            break;
        }
        if let Some(reason) = exp.poll_stop(observer) {
            shared.request_stop(reason);
            break;
        }
        let node = match frontier.pop() {
            Some(n) => n,
            None => match frontier.acquire(observer) {
                Some(n) => n,
                None => break,
            },
        };
        let step = exp.expand(&node, &mut sink, &mut budget, &mut frontier, observer);
        // The node's expansion is complete: convert its in-flight unit
        // into the absorbed children's, in one netted atomic transition.
        // The worker whose settle takes the counter to zero ends the
        // whole search.
        frontier.settle();
        match step {
            Step::Stopped(reason) => {
                shared.request_stop(reason);
                break;
            }
            Step::Branched { .. } => {
                exp.recycle(node);
                // Memory watchdog: the frontier's in-flight counter is the
                // exact global open-node count, so checking it here — after
                // settle, before donating — bounds any overshoot to the
                // children of one expansion batch per worker. Shedding
                // drops this worker's worst-bound local nodes; the search
                // continues on the capped frontier and the incumbent is
                // untouched, but optimality can no longer be certified.
                if let Some(mb) = &opts.memory {
                    let open = shared.frontier.in_flight();
                    if open > mb.max_open_nodes {
                        let excess = (open - mb.max_open_nodes) as usize;
                        let dropped = frontier.shed_local(excess, &mut |n| problem.lower_bound(n));
                        if dropped > 0 {
                            exp.note_shed(dropped, observer);
                            shared.note_shed();
                        }
                    }
                }
                frontier.maybe_donate(observer);
            }
            _ => exp.recycle(node),
        }
    }
    let mut stats = exp.stats();
    stats.steals = frontier.steals;
    stats.donations = frontier.donations;
    stats.parks = frontier.parks;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ChildBuf;
    use crate::{solve_sequential, CancelToken, SpawnPool};
    use std::time::Instant;

    /// Minimize the weighted ones-count over binary strings, with values
    /// crafted so the tree is big enough to exercise the pools.
    struct WeightedBits {
        weights: Vec<f64>,
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
    }

    fn problem(n: usize) -> WeightedBits {
        WeightedBits {
            weights: (0..n).map(|i| 1.0 + (i % 3) as f64).collect(),
        }
    }

    #[test]
    fn matches_sequential_optimum() {
        let p = Arc::new(problem(10));
        for workers in [1, 2, 4] {
            let opts = SearchOptions::new(SearchMode::BestOne);
            let seq = solve_sequential(&*p, &opts);
            let par = solve_parallel(Arc::clone(&p), &opts, workers, &SpawnPool, ());
            assert_eq!(seq.best_value, par.best_value, "workers = {workers}");
            assert_eq!(par.solutions.len(), 1);
            assert!(par.is_complete());
        }
    }

    #[test]
    fn all_optimal_matches_sequential_set() {
        // Two zero-weight bits → 4 co-optimal solutions.
        let p = Arc::new(WeightedBits {
            weights: vec![0.0, 1.0, 0.0, 2.0, 1.0],
        });
        let opts = SearchOptions::new(SearchMode::AllOptimal);
        let seq = solve_sequential(&*p, &opts);
        let par = solve_parallel(p, &opts, 3, &SpawnPool, ());
        let norm = |mut v: Vec<Vec<bool>>| {
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(seq.best_value, par.best_value);
        let par_sols = norm(par.solutions);
        assert_eq!(norm(seq.solutions), par_sols);
        assert_eq!(par_sols.len(), 4);
    }

    #[test]
    fn single_worker_agrees() {
        let p = Arc::new(problem(8));
        let opts = SearchOptions::new(SearchMode::AllOptimal);
        let seq = solve_sequential(&*p, &opts);
        let par = solve_parallel(p, &opts, 1, &SpawnPool, ());
        assert_eq!(seq.best_value, par.best_value);
        assert_eq!(seq.solutions.len(), par.solutions.len());
    }

    #[test]
    fn more_workers_than_nodes() {
        let opts = SearchOptions::new(SearchMode::BestOne);
        let par = solve_parallel(Arc::new(problem(2)), &opts, 16, &SpawnPool, ());
        assert_eq!(par.best_value, Some(0.0));
    }

    #[test]
    fn budget_abort_is_reported() {
        let opts = SearchOptions::new(SearchMode::BestOne).max_branches(10);
        let par = solve_parallel(Arc::new(problem(18)), &opts, 4, &SpawnPool, ());
        assert_eq!(par.stop, StopReason::BudgetExhausted);
        assert!(!par.is_complete());
    }

    #[test]
    fn expired_deadline_returns_quickly() {
        let opts = SearchOptions::new(SearchMode::BestOne).deadline(Instant::now());
        let par = solve_parallel(Arc::new(problem(20)), &opts, 4, &SpawnPool, ());
        assert_eq!(par.stop, StopReason::DeadlineExpired);
    }

    #[test]
    fn pre_cancelled_token_stops_immediately() {
        let token = CancelToken::new();
        token.cancel();
        let opts = SearchOptions::new(SearchMode::BestOne).cancel_token(token);
        let par = solve_parallel(Arc::new(problem(20)), &opts, 4, &SpawnPool, ());
        assert_eq!(par.stop, StopReason::Cancelled);
    }

    #[test]
    fn tree_that_collapses_during_seeding() {
        struct Hinted(WeightedBits);
        impl Problem for Hinted {
            type Node = Vec<bool>;
            type Solution = Vec<bool>;
            fn root(&self) -> Vec<bool> {
                Vec::new()
            }
            fn lower_bound(&self, n: &Vec<bool>) -> f64 {
                self.0.lower_bound(n)
            }
            fn solution(&self, n: &Vec<bool>) -> Option<(Vec<bool>, f64)> {
                self.0.solution(n)
            }
            fn branch(&self, n: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
                self.0.branch(n, out)
            }
            fn initial_incumbent(&self) -> Option<(Vec<bool>, f64)> {
                Some((vec![false; self.0.weights.len()], 0.0))
            }
        }
        let p = Arc::new(Hinted(problem(6)));
        let out = solve_parallel(
            p,
            &SearchOptions::new(SearchMode::BestOne),
            4,
            &SpawnPool,
            (),
        );
        assert_eq!(out.best_value, Some(0.0));
        assert_eq!(out.solutions.len(), 1);
        assert!(out.is_complete());
    }

    #[test]
    fn stress_many_runs_no_deadlock() {
        let p = Arc::new(problem(9));
        let opts = SearchOptions::new(SearchMode::BestOne);
        for _ in 0..25 {
            let out = solve_parallel(Arc::clone(&p), &opts, 4, &SpawnPool, ());
            assert_eq!(out.best_value, Some(0.0));
        }
    }

    #[test]
    fn eight_worker_stress_conserves_the_tree() {
        // With every weight zero and AllOptimal pruning (`lb > ub + ε`
        // never fires at lb = ub = 0), nothing prunes: the driver must
        // expand the complete binary tree, so the counters give an exact
        // conservation oracle across steals and donations — no node
        // lost, none expanded twice.
        let depth = 12u32;
        let p = Arc::new(WeightedBits {
            weights: vec![0.0; depth as usize],
        });
        let opts = SearchOptions::new(SearchMode::AllOptimal);
        for _ in 0..5 {
            let out = solve_parallel(Arc::clone(&p), &opts, 8, &SpawnPool, ());
            assert!(out.is_complete());
            assert_eq!(out.stats.solutions_seen, 1u64 << depth);
            assert_eq!(out.stats.branched, (1u64 << depth) - 1);
            assert_eq!(out.solutions.len(), 1 << depth);
        }
    }

    #[test]
    fn nan_lower_bounds_do_not_break_the_search() {
        /// Wraps `WeightedBits` but reports NaN bounds for half the nodes;
        /// the optimum must still be found (NaN = "no information").
        struct NanBounds(WeightedBits);
        impl Problem for NanBounds {
            type Node = Vec<bool>;
            type Solution = Vec<bool>;
            fn root(&self) -> Vec<bool> {
                Vec::new()
            }
            fn lower_bound(&self, n: &Vec<bool>) -> f64 {
                if n.len() % 2 == 1 {
                    f64::NAN
                } else {
                    self.0.lower_bound(n)
                }
            }
            fn solution(&self, n: &Vec<bool>) -> Option<(Vec<bool>, f64)> {
                self.0.solution(n)
            }
            fn branch(&self, n: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
                self.0.branch(n, out)
            }
        }
        let p = Arc::new(NanBounds(problem(8)));
        let opts = SearchOptions::new(SearchMode::BestOne);
        let seq = solve_sequential(&*p, &opts);
        let par = solve_parallel(p, &opts, 4, &SpawnPool, ());
        assert_eq!(seq.best_value, Some(0.0));
        assert_eq!(par.best_value, Some(0.0));
        assert!(par.is_complete());
    }
}
