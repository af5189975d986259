use std::time::{Duration, Instant};

use crate::checkpoint::CheckpointPolicy;
use crate::kernel::ChildBuf;
use crate::CancelToken;

/// A minimization problem searchable by branch-and-bound.
///
/// Nodes are partial solutions; [`branch`](Problem::branch) refines a node
/// into children, [`solution`](Problem::solution) recognizes complete nodes,
/// and [`lower_bound`](Problem::lower_bound) must never exceed the value of
/// any complete solution reachable from the node (admissibility) — pruning
/// correctness depends on it.
///
/// Bound arithmetic is the hot path of every driver: profiles of the
/// minimum-ultrametric problem put it ahead of frontier bookkeeping at
/// every thread count. Implementations should therefore treat
/// `lower_bound` as a *cached read* — compute the bound once while
/// branching (where the problem's data structures are already hot) and
/// store it on the node; `lower_bound` itself should never re-derive
/// anything per call.
pub trait Problem: Sync {
    /// A partial solution.
    type Node: Clone + Send;
    /// A complete solution payload.
    type Solution: Clone + Send;

    /// The root of the search tree.
    fn root(&self) -> Self::Node;

    /// An admissible lower bound on every complete solution below `node`.
    fn lower_bound(&self, node: &Self::Node) -> f64;

    /// When `node` is complete, its solution and exact objective value.
    fn solution(&self, node: &Self::Node) -> Option<(Self::Solution, f64)>;

    /// Expands an incomplete node, pushing its children into `out`
    /// (empty on entry).
    ///
    /// `out` also carries a spare pool of retired nodes: implementations
    /// that can overwrite an old node in place should prefer
    /// [`ChildBuf::recycle`] over allocating, which makes the hot path
    /// allocation-free once the pool is warm.
    fn branch(&self, node: &Self::Node, out: &mut ChildBuf<Self::Node>);

    /// An optional heuristic incumbent used as the initial upper bound
    /// (the paper's UPGMM step). Defaults to none.
    fn initial_incumbent(&self) -> Option<(Self::Solution, f64)> {
        None
    }

    /// Serializes a solution into an opaque payload for crash-safe
    /// checkpointing (see [`SearchOptions::checkpoint`]). The default
    /// returns `None`, which disables periodic snapshots for problems
    /// that have no durable representation.
    fn encode_solution(&self, _solution: &Self::Solution) -> Option<Vec<u8>> {
        None
    }

    /// Second prune stage: constraint propagation (see
    /// [`propagate`](crate::propagate)). Called by the expansion kernel
    /// on every node that survived the weight-bound prune, with the
    /// incumbent value `ub` current at that moment. Returning `true`
    /// prunes the node (counted in
    /// [`SearchStats::propagation_pruned`] and reported as
    /// [`PruneReason::Propagation`](crate::PruneReason::Propagation)).
    ///
    /// Implementations must be *sound*: prune only nodes provably unable
    /// to change the search's answer under `opts.mode`. The default
    /// never prunes, so problems without a propagation stage are
    /// unaffected.
    fn propagate(&self, _node: &Self::Node, _ub: f64, _opts: &SearchOptions) -> bool {
        false
    }
}

/// What to collect during the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Find one optimal solution (prune `LB ≥ UB`; fastest).
    BestOne,
    /// Enumerate **all** optimal solutions (prune only `LB > UB`, keep
    /// co-optimal ties).
    AllOptimal,
}

/// Node-selection strategy of the sequential driver.
///
/// The parallel and simulated drivers always run depth-first within each
/// worker, as the papers do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Depth-first: cheap memory, reaches complete solutions fast —
    /// Algorithm BBU's published strategy.
    #[default]
    DepthFirst,
    /// Best-first: always expand the open node with the smallest lower
    /// bound. Branches the provably minimal number of nodes in
    /// [`SearchMode::BestOne`], at the price of a pool as large as the
    /// frontier.
    BestFirst,
}

/// Why a search run stopped.
///
/// Every stop mode is *anytime*: the outcome still carries the best
/// incumbent found so far, only [`StopReason::Completed`] certifies it as a
/// proven optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The search space was exhausted; the incumbent is a proven optimum.
    Completed,
    /// [`SearchOptions::max_branches`] branch operations were spent.
    BudgetExhausted,
    /// The wall-clock [`SearchOptions::deadline`] passed.
    DeadlineExpired,
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// The open-node count breached the [`MemoryBudget`]; the watchdog
    /// shed the worst-bound open nodes and the remaining (capped) search
    /// drained. The incumbent is the best over the subtrees actually
    /// explored — a valid upper bound, not a proven optimum.
    MemoryExhausted,
    /// A parallel worker panicked; the search drained cleanly and kept
    /// every incumbent published before the panic.
    WorkerPanicked,
}

impl StopReason {
    /// Whether the incumbent is a proven optimum.
    pub fn is_complete(self) -> bool {
        matches!(self, StopReason::Completed)
    }

    /// Of two stop reasons from merged sub-searches, the more severe one
    /// (anything beats `Completed`; panics dominate everything).
    pub fn worst(self, other: StopReason) -> StopReason {
        fn rank(r: StopReason) -> u8 {
            match r {
                StopReason::Completed => 0,
                StopReason::BudgetExhausted => 1,
                StopReason::DeadlineExpired => 2,
                StopReason::Cancelled => 3,
                StopReason::MemoryExhausted => 4,
                StopReason::WorkerPanicked => 5,
            }
        }
        if rank(other) > rank(self) {
            other
        } else {
            self
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::Completed => "completed",
            StopReason::BudgetExhausted => "branch budget exhausted",
            StopReason::DeadlineExpired => "deadline expired",
            StopReason::Cancelled => "cancelled",
            StopReason::MemoryExhausted => "memory budget exhausted",
            StopReason::WorkerPanicked => "worker panicked",
        })
    }
}

/// A cap on the number of *open* nodes a search may hold at once —
/// queued in any frontier plus currently expanding.
///
/// When the count breaches the cap, the memory watchdog sheds the
/// worst-bound open nodes back under it (at batch boundaries, so the
/// overshoot is bounded by one branching batch per worker), keeps the
/// incumbent, and the run finishes with [`StopReason::MemoryExhausted`]
/// instead of growing without bound. Shedding drops whole subtrees, so
/// the result is an anytime upper bound, not a proven optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Maximum open nodes allowed at once (at least 1).
    pub max_open_nodes: u64,
}

impl MemoryBudget {
    /// A budget of `max_open_nodes` simultaneously open nodes (clamped up
    /// to 1 — a search always needs room for the node it is expanding).
    pub fn new(max_open_nodes: u64) -> Self {
        MemoryBudget {
            max_open_nodes: max_open_nodes.max(1),
        }
    }
}

/// Search configuration.
///
/// No longer `Copy` (the cancel token is reference-counted); clone freely.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Whether to find one optimum or all of them.
    pub mode: SearchMode,
    /// Node-selection strategy for the sequential driver.
    pub strategy: Strategy,
    /// Relative tolerance used when comparing objective values: values
    /// within `tol × max(1, |UB|)` count as equal.
    pub tol: f64,
    /// Stop after this many branch operations (safety valve for
    /// experiments; `u64::MAX` means unlimited). When the search stops
    /// early the outcome reports [`StopReason::BudgetExhausted`] and the
    /// incumbent is only an upper bound.
    pub max_branches: u64,
    /// Wall-clock instant after which the search stops with
    /// [`StopReason::DeadlineExpired`]. Checked cooperatively every few
    /// hundred nodes, so overshoot is bounded by a handful of branch
    /// operations. `None` means no deadline.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag, checked on every node. `None` means
    /// the search cannot be cancelled externally.
    pub cancel: Option<CancelToken>,
    /// Open-node memory watchdog. `None` means unbounded (the default).
    pub memory: Option<MemoryBudget>,
    /// Periodic crash-safe incumbent snapshots. `None` disables them (the
    /// default). Requires the problem to implement
    /// [`Problem::encode_solution`].
    pub checkpoint: Option<CheckpointPolicy>,
    /// Overrides the parallel drivers' work-stealing shard count (clamped
    /// to the frontier's maximum). `None` uses the worker-derived default.
    /// Callers resolve the `MUTREE_FRONTIER_SHARDS` environment hook into
    /// this field; this crate itself never reads the environment.
    pub frontier_shards: Option<usize>,
}

impl SearchOptions {
    /// Options with the given mode, depth-first strategy, default
    /// tolerance `1e-9`, no branch limit, no deadline, no cancel token.
    pub fn new(mode: SearchMode) -> Self {
        SearchOptions {
            mode,
            strategy: Strategy::DepthFirst,
            tol: 1e-9,
            max_branches: u64::MAX,
            deadline: None,
            cancel: None,
            memory: None,
            checkpoint: None,
            frontier_shards: None,
        }
    }

    /// Sets the branch-operation budget.
    pub fn max_branches(mut self, limit: u64) -> Self {
        self.max_branches = limit;
        self
    }

    /// Sets the sequential node-selection strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline to `timeout` from now.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Attaches a cancellation token (keep a clone to trigger it).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps the number of simultaneously open nodes (see [`MemoryBudget`]).
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory = Some(budget);
        self
    }

    /// Enables periodic crash-safe incumbent snapshots (see
    /// [`CheckpointPolicy`]).
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Overrides the parallel drivers' work-stealing shard count (see
    /// [`SearchOptions::frontier_shards`]).
    pub fn frontier_shards(mut self, shards: usize) -> Self {
        self.frontier_shards = Some(shards);
        self
    }

    /// Whether the deadline (if any) has passed. Public so custom drivers
    /// (e.g. the simulated-cluster backend) can share the stop policy.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the cancel token (if any) has fired.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The absolute comparison slack at upper bound `ub`:
    /// `tol × max(1, |ub|)`, or `0` while the bound is still infinite
    /// (`∞ − ∞` would be NaN). Public so custom drivers share the exact
    /// pruning arithmetic of the built-in ones.
    pub fn eps(&self, ub: f64) -> f64 {
        if ub.is_finite() {
            self.tol * 1f64.max(ub.abs())
        } else {
            // Before any incumbent exists the bound is ∞; a zero epsilon
            // keeps `ub - eps` well-defined (∞ − ∞ would be NaN).
            0.0
        }
    }
}

/// Counters describing a finished search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes expanded by [`Problem::branch`].
    pub branched: u64,
    /// Children discarded because their lower bound could not beat the
    /// incumbent.
    pub pruned: u64,
    /// Nodes discarded by the constraint-propagation stage
    /// ([`Problem::propagate`]), e.g. a triple-domain wipeout that beat
    /// the weight bound to the prune. Counted in
    /// [`pruned`](SearchStats::pruned) as well — this field attributes
    /// the subset the second stage caught.
    pub propagation_pruned: u64,
    /// Complete solutions encountered (including non-improving ones).
    pub solutions_seen: u64,
    /// Times the incumbent improved.
    pub incumbent_updates: u64,
    /// Largest number of nodes simultaneously alive in the pools.
    pub peak_pool: u64,
    /// Work-stealing traffic: batches stolen from overflow shards by
    /// starved workers (parallel drivers only; zero elsewhere).
    pub steals: u64,
    /// Work-stealing traffic: surplus batches donated to overflow shards
    /// for parked peers (parallel drivers only; zero elsewhere).
    pub donations: u64,
    /// Times a worker parked with every shard empty — high values mean
    /// the search is starved for parallelism, not compute.
    pub parks: u64,
    /// Stage attempts re-run by the pipeline's retry supervisor (zero for
    /// plain solves — retries happen at the pipeline layer, not here).
    pub retries: u64,
    /// Open nodes dropped by the memory watchdog (see [`MemoryBudget`]).
    pub nodes_shed: u64,
    /// Checkpoint snapshots durably written (see
    /// [`SearchOptions::checkpoint`]).
    pub checkpoints: u64,
    /// Group solves answered from the content-addressed cache without
    /// searching (always zero for plain solves — caching happens at the
    /// pipeline layer, not here).
    pub cache_hits: u64,
    /// Group solves that consulted the cache and searched from scratch.
    pub cache_misses: u64,
    /// Group solves warm-started from an ε-close cached optimum (counted
    /// in [`cache_misses`](SearchStats::cache_misses) too: the search
    /// still ran).
    pub cache_warm_seeds: u64,
    /// Cache entries discarded because their checksum no longer matched
    /// their contents; each one degraded to a cold solve.
    pub cache_poisoned: u64,
}

impl SearchStats {
    /// Element-wise sum, for merging per-worker stats.
    pub fn merge(&mut self, other: &SearchStats) {
        self.branched += other.branched;
        self.pruned += other.pruned;
        self.propagation_pruned += other.propagation_pruned;
        self.solutions_seen += other.solutions_seen;
        self.incumbent_updates += other.incumbent_updates;
        self.peak_pool = self.peak_pool.max(other.peak_pool);
        self.steals += other.steals;
        self.donations += other.donations;
        self.parks += other.parks;
        self.retries += other.retries;
        self.nodes_shed += other.nodes_shed;
        self.checkpoints += other.checkpoints;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_warm_seeds += other.cache_warm_seeds;
        self.cache_poisoned += other.cache_poisoned;
    }
}

/// The result of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct SearchOutcome<S> {
    /// The best objective value found, when any solution exists. A proven
    /// optimum only when [`SearchOutcome::stop`] is
    /// [`StopReason::Completed`]; otherwise the best incumbent at the time
    /// the search stopped.
    pub best_value: Option<f64>,
    /// The best solutions found: one in [`SearchMode::BestOne`], all known
    /// co-optima in [`SearchMode::AllOptimal`].
    pub solutions: Vec<S>,
    /// Search counters.
    pub stats: SearchStats,
    /// Why the search stopped.
    pub stop: StopReason,
}

impl<S> SearchOutcome<S> {
    /// Whether the search space was exhausted, certifying the incumbent as
    /// a proven optimum.
    pub fn is_complete(&self) -> bool {
        self.stop.is_complete()
    }
}
