//! The unified expansion kernel shared by every branch-and-bound driver.
//!
//! Sequential search, the thread-parallel master/slave driver and the
//! discrete-event cluster simulator all run the *same* per-node sequence:
//! sanitize the lower bound, prune against the incumbent, recognize and
//! offer complete solutions, spend branch budget, expand, prune the
//! children, update stats. This module owns that sequence — once — in
//! [`Expander::expand`], and exposes the three seams the drivers differ
//! in:
//!
//! * **node selection** — the [`Frontier`] trait ([`DepthFirstFrontier`],
//!   [`BreadthFirstFrontier`]);
//! * **incumbent storage** — the [`IncumbentSink`] trait (a local
//!   [`Incumbents`] tracker, a shared atomic bound, a simulated slave's
//!   view of the global bound);
//! * **branch budget** — the [`BranchBudget`] trait ([`LocalBudget`] for
//!   single-threaded drivers, [`AtomicBudget`] for a counter shared across
//!   worker threads).
//!
//! The kernel also owns the stop-condition *cadence*: [`StopPoller`]
//! checks cancellation on every call and the wall clock every
//! `TIME_CHECK_INTERVAL` (128) calls, so every driver pays the same
//! bounded overshoot.
//!
//! An optional [`SearchObserver`] receives structured [`SearchEvent`]s
//! (node expanded, pruned-with-reason, incumbent improved, stopped) — the
//! seam tracing and observability hooks plug into without touching the
//! drivers. Pass `&mut ()` (the no-op observer) when you don't care.
//!
//! Finally, [`ChildBuf`] makes the hot path allocation-free: pruned
//! children and consumed parents are retired into a spare pool that
//! [`Problem::branch`] implementations can [`recycle`](ChildBuf::recycle)
//! into the next generation of children instead of allocating fresh nodes.
//! It also carries the child-prune cutoff, so a problem that can bound a
//! child from its parent builds only the children that can survive (see
//! the cutoff contract on [`ChildBuf`]).
//!
//! The kernel deliberately owns *no* bound arithmetic: it consumes
//! whatever [`Problem::lower_bound`] cached on the node during
//! branching, and the cutoff it lends is only the incumbent and the
//! prune rule, so the per-node math lives entirely with the problem and
//! all three drivers inherit any change to it without a driver-side
//! edit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::problem::slack;
use crate::{Problem, SearchMode, SearchOptions, SearchOutcome, SearchStats, StopReason, TOL};

/// How often (in processed nodes) the drivers look at the wall clock for
/// deadline checks. Cancel flags are atomics and are checked every node.
pub(crate) const TIME_CHECK_INTERVAL: u64 = 128;

/// How many retired nodes a [`ChildBuf`] keeps for reuse. Enough for the
/// widest expansions we see (a 256-taxon tree — the exact solver's
/// ceiling — branches 511 ways) while bounding memory held by idle
/// buffers.
const SPARE_CAP: usize = 1024;

/// Normalizes a lower bound coming from [`Problem::lower_bound`] so a
/// buggy or degenerate bound can never prune a live subtree: NaN (which
/// would poison every comparison) becomes `-∞`, i.e. "no information".
///
/// This is the single NaN policy for *all* drivers; the regression tests
/// assert a NaN bound never prunes anywhere.
pub fn sanitize_lb(lb: f64) -> f64 {
    if lb.is_nan() {
        f64::NEG_INFINITY
    } else {
        lb
    }
}

/// Whether a node with (sanitized) lower bound `lb` can be discarded
/// against upper bound `ub` under `mode`: `lb ≥ ub − ε` when one optimum
/// suffices, `lb > ub + ε` when all co-optima must be kept
/// (ε = [`SearchOptions::eps`]).
pub fn prunable(lb: f64, ub: f64, mode: SearchMode) -> bool {
    let eps = slack(ub);
    match mode {
        SearchMode::BestOne => lb >= ub - eps,
        SearchMode::AllOptimal => lb > ub + eps,
    }
}

/// Tracks the incumbent value and the solutions worth keeping under the
/// current [`SearchMode`]. The sequential, thread-parallel and simulated
/// drivers all build on it; custom drivers (e.g. simulations with their
/// own scheduling) can too.
pub struct Incumbents<S> {
    /// The best objective value seen so far (`+∞` before any solution).
    pub ub: f64,
    /// Kept solutions with their values (pruned of dominated entries as
    /// the bound improves).
    pub solutions: Vec<(f64, S)>,
    mode: SearchMode,
}

impl<S: Clone> Incumbents<S> {
    /// An empty tracker configured from the search options.
    pub fn new(opts: &SearchOptions) -> Self {
        Incumbents {
            ub: f64::INFINITY,
            solutions: Vec::new(),
            mode: opts.mode,
        }
    }

    /// Offers a complete solution; returns whether it improved the bound.
    ///
    /// A NaN value is rejected outright: it cannot be ordered against the
    /// incumbent and accepting it would poison every later comparison.
    pub fn offer(&mut self, value: f64, solution: S) -> bool {
        if value.is_nan() {
            return false;
        }
        let eps = slack(self.ub);
        if value < self.ub - eps {
            self.ub = value;
            match self.mode {
                SearchMode::BestOne => {
                    self.solutions.clear();
                    self.solutions.push((value, solution));
                }
                SearchMode::AllOptimal => {
                    let eps = TOL * 1f64.max(value.abs());
                    self.solutions.retain(|(v, _)| *v <= value + eps);
                    self.solutions.push((value, solution));
                }
            }
            true
        } else if matches!(self.mode, SearchMode::AllOptimal) && value <= self.ub + eps {
            self.solutions.push((value, solution));
            false
        } else {
            false
        }
    }

    /// Final solutions: exactly those within tolerance of `best`.
    pub fn finish(self, best: f64) -> Vec<S> {
        let eps = TOL * 1f64.max(best.abs());
        self.solutions
            .into_iter()
            .filter(|(v, _)| *v <= best + eps)
            .map(|(_, s)| s)
            .collect()
    }

    /// Folds the tracker into a final [`SearchOutcome`] with the given
    /// counters and stop reason.
    pub fn into_outcome(self, stats: SearchStats, stop: StopReason) -> SearchOutcome<S> {
        let best_value = self
            .solutions
            .iter()
            .map(|(v, _)| *v)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            });
        match best_value {
            Some(bv) => SearchOutcome {
                best_value: Some(bv),
                solutions: self.finish(bv),
                stats,
                stop,
            },
            None => SearchOutcome {
                best_value: None,
                solutions: Vec::new(),
                stats,
                stop,
            },
        }
    }
}

/// Where the kernel reads and publishes the incumbent upper bound.
///
/// The sequential driver uses a plain [`Incumbents`]; the parallel driver
/// plugs in the shared atomic bound plus the publish-immediately solution
/// list; the cluster simulator plugs in each slave's *delayed view* of the
/// global bound — the whole point of the simulation.
pub trait IncumbentSink<S> {
    /// The upper bound the kernel should prune against *right now*.
    fn current_ub(&self) -> f64;

    /// Offers a complete solution (never NaN — the kernel filters those);
    /// returns whether it improved this sink's bound.
    fn accept(&mut self, value: f64, solution: S) -> bool;
}

impl<S: Clone> IncumbentSink<S> for Incumbents<S> {
    fn current_ub(&self) -> f64 {
        self.ub
    }

    fn accept(&mut self, value: f64, solution: S) -> bool {
        self.offer(value, solution)
    }
}

/// Where branch operations are debited. Checked *before* every branch;
/// an exhausted budget stops the search with
/// [`StopReason::BudgetExhausted`].
pub trait BranchBudget {
    /// Takes one branch operation; `false` means the budget is exhausted
    /// and the branch must not run.
    fn try_take(&mut self) -> bool;
}

/// A driver-local branch budget (sequential and simulated drivers).
#[derive(Debug)]
pub struct LocalBudget {
    used: u64,
    limit: u64,
}

impl LocalBudget {
    /// A budget of `limit` branch operations (`u64::MAX` = unlimited).
    pub fn new(limit: u64) -> Self {
        LocalBudget { used: 0, limit }
    }
}

impl BranchBudget for LocalBudget {
    fn try_take(&mut self) -> bool {
        if self.used >= self.limit {
            false
        } else {
            self.used += 1;
            true
        }
    }
}

/// A branch budget shared across worker threads via an atomic counter
/// (the parallel driver; the master's seeding phase uses it too so the
/// budget is global across both phases).
#[derive(Debug)]
pub struct AtomicBudget<'a> {
    counter: &'a AtomicU64,
    limit: u64,
}

impl<'a> AtomicBudget<'a> {
    /// Wraps a shared counter with the given limit.
    pub fn new(counter: &'a AtomicU64, limit: u64) -> Self {
        AtomicBudget { counter, limit }
    }
}

impl BranchBudget for AtomicBudget<'_> {
    fn try_take(&mut self) -> bool {
        self.counter.fetch_add(1, AtomicOrdering::Relaxed) < self.limit
    }
}

/// Why the kernel discarded a node or child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// A popped node's bound could not beat the incumbent.
    Node,
    /// A freshly generated child's bound could not beat the incumbent.
    Child,
    /// A complete node reported a NaN objective value (unorderable; the
    /// solution is dropped rather than poisoning the bound).
    NanObjective,
}

/// A structured event emitted by the kernel as the search runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchEvent {
    /// A node was branched: `children` generated, `kept` survived the
    /// child-prune pass into the frontier.
    NodeExpanded {
        /// Children generated by [`Problem::branch`]: those it built
        /// plus those it [skipped](ChildBuf::skip) against the cutoff.
        children: usize,
        /// Children that survived pruning into the frontier.
        kept: usize,
    },
    /// A node, child or NaN solution was discarded.
    Pruned {
        /// Why it was discarded.
        reason: PruneReason,
    },
    /// The incumbent improved to `value`.
    IncumbentImproved {
        /// The new upper bound.
        value: f64,
    },
    /// The search is stopping early.
    Stopped {
        /// Why the search is stopping.
        reason: StopReason,
    },
    /// A starved worker stole a batch of open nodes from an overflow
    /// shard (parallel drivers only).
    Stolen {
        /// Nodes taken — half the victim shard's queue, at least one.
        nodes: usize,
    },
    /// A loaded worker donated surplus open nodes to its overflow shard
    /// because a peer was parked waiting for work.
    Donated {
        /// Nodes donated — the bottom half of the worker's local stack.
        nodes: usize,
    },
    /// A worker found every shard empty and parked on the frontier's
    /// eventcount until the next donation or the end of the search.
    Parked,
    /// The memory watchdog dropped `nodes` worst-bound open nodes to get
    /// back under the configured
    /// [`MemoryBudget`](crate::MemoryBudget) — the search will finish
    /// with [`StopReason::MemoryExhausted`].
    Shed {
        /// Open nodes dropped (whole subtrees abandoned).
        nodes: usize,
    },
}

/// Receives [`SearchEvent`]s from the kernel. The unit type `()` is the
/// no-op observer: pass `&mut ()` when you don't need the hook.
pub trait SearchObserver {
    /// Called once per event, synchronously, on the searching thread.
    fn on_event(&mut self, event: SearchEvent);
}

impl SearchObserver for () {
    fn on_event(&mut self, _event: SearchEvent) {}
}

/// The shared stop-condition cadence: cancellation is checked on every
/// poll, the wall-clock deadline only every `TIME_CHECK_INTERVAL` polls
/// (including the very first, so an already-expired deadline stops a
/// search before it expands anything).
#[derive(Debug, Default)]
pub struct StopPoller {
    ticks: u64,
}

impl StopPoller {
    /// A poller starting at tick zero.
    pub fn new() -> Self {
        StopPoller::default()
    }

    /// Polls the stop conditions; `Some` means stop now with that reason.
    pub fn poll(&mut self, opts: &SearchOptions) -> Option<StopReason> {
        if opts.cancelled() {
            return Some(StopReason::Cancelled);
        }
        if self.ticks.is_multiple_of(TIME_CHECK_INTERVAL) && opts.deadline_expired() {
            return Some(StopReason::DeadlineExpired);
        }
        self.ticks += 1;
        None
    }
}

/// The buffer [`Problem::branch`] writes children into, plus a bounded
/// spare pool of retired nodes for allocation-free branching, and the
/// child-prune cutoff that lets `branch` skip building children the
/// kernel would discard.
///
/// A `branch` implementation calls [`recycle`](ChildBuf::recycle) to pull
/// a retired node whose buffers it can overwrite in place (e.g. via a
/// `clone_from`-style copy) instead of allocating, then
/// [`push`](ChildBuf::push)es the finished child. Children it generates
/// but discards itself (e.g. filtered by a feasibility rule) go back via
/// [`retire`](ChildBuf::retire). The kernel retires pruned children and
/// consumed parents automatically.
///
/// **The cutoff contract.** Just before calling `branch`, the kernel
/// records the incumbent it pruned the parent against. A problem that can
/// bound a child before building it asks [`admits`](ChildBuf::admits)
/// with a value that never exceeds the child's eventual
/// [`Problem::lower_bound`]; on `false` it calls
/// [`skip`](ChildBuf::skip) instead of building the child. The kernel
/// counts and reports every skipped child exactly as a pruned one
/// ([`SearchStats::pruned`], one [`PruneReason::Child`] event, and in
/// [`SearchEvent::NodeExpanded`]'s `children`), so skipping is invisible
/// in every count. The cutoff defaults to `+∞`, so a buffer used outside
/// the kernel admits every finite bound. A wrapper problem that
/// redefines `lower_bound` must call [`admit_all`](ChildBuf::admit_all)
/// before delegating to the inner `branch`: the inner problem's bound is
/// then no longer the one the kernel prunes by.
pub struct ChildBuf<N> {
    out: Vec<N>,
    spare: Vec<N>,
    /// The incumbent children are judged against.
    cutoff: f64,
    /// The prune rule children are judged under.
    mode: SearchMode,
    skipped: usize,
    scratch: Vec<f64>,
}

impl<N> Default for ChildBuf<N> {
    fn default() -> Self {
        ChildBuf::new()
    }
}

impl<N> ChildBuf<N> {
    /// An empty buffer with an empty spare pool and no cutoff.
    pub fn new() -> Self {
        ChildBuf {
            out: Vec::new(),
            spare: Vec::new(),
            cutoff: f64::INFINITY,
            mode: SearchMode::BestOne,
            skipped: 0,
            scratch: Vec::new(),
        }
    }

    /// Records the incumbent `ub` the next `branch` call's children are
    /// judged against under `mode`'s prune rule.
    pub(crate) fn set_cutoff(&mut self, ub: f64, mode: SearchMode) {
        self.cutoff = ub;
        self.mode = mode;
    }

    /// Whether a child whose lower bound is at least `lb` could survive
    /// the kernel's child prune: exactly `!prunable(sanitize_lb(lb), ub)`
    /// against the recorded cutoff, so a NaN `lb` is always admitted.
    pub fn admits(&self, lb: f64) -> bool {
        !prunable(sanitize_lb(lb), self.cutoff, self.mode)
    }

    /// Counts one child that [`admits`](ChildBuf::admits) rejected and
    /// was therefore never built; the kernel reports it as pruned.
    pub fn skip(&mut self) {
        self.skipped += 1;
    }

    /// Lifts the cutoff to `+∞` for the rest of this `branch` call, so
    /// [`admits`](ChildBuf::admits) accepts every finite bound. Wrappers
    /// that redefine [`Problem::lower_bound`] call this before
    /// delegating.
    pub fn admit_all(&mut self) {
        self.cutoff = f64::INFINITY;
    }

    /// Lends the buffer's reusable `f64` scratch (contents unspecified),
    /// so per-branch working arrays need no allocation once warm. Hand it
    /// back with [`restore_scratch`](ChildBuf::restore_scratch).
    pub fn take_scratch(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.scratch)
    }

    /// Returns the scratch lent by [`take_scratch`](ChildBuf::take_scratch).
    pub fn restore_scratch(&mut self, scratch: Vec<f64>) {
        self.scratch = scratch;
    }

    /// Appends a finished child.
    pub fn push(&mut self, child: N) {
        self.out.push(child);
    }

    /// Takes a retired node to overwrite, if one is available.
    pub fn recycle(&mut self) -> Option<N> {
        self.spare.pop()
    }

    /// Returns a node to the spare pool (dropped once the pool is full).
    pub fn retire(&mut self, node: N) {
        if self.spare.len() < SPARE_CAP {
            self.spare.push(node);
        }
    }

    /// Number of children currently staged.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether no children are staged.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// The staged children.
    pub fn as_slice(&self) -> &[N] {
        &self.out
    }

    /// Drops all staged children (they do *not* go to the spare pool) and
    /// resets the skipped count.
    pub fn clear(&mut self) {
        self.out.clear();
        self.skipped = 0;
    }
}

/// An open-node pool. Implementations decide both the pop order and how a
/// batch of surviving children (in branch order, with their sanitized
/// bounds) is inserted — which is what preserves each driver's exact
/// historical expansion order.
pub trait Frontier<N> {
    /// Removes and returns the next node to expand.
    fn pop(&mut self) -> Option<N>;

    /// Absorbs surviving children. `staged` is in branch order and is
    /// drained; implementations choose their own insertion order.
    fn absorb(&mut self, staged: &mut Vec<(f64, N)>);

    /// Number of open nodes.
    fn len(&self) -> usize;

    /// Whether no nodes are open.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops up to `excess` of the *worst-bound* open nodes (largest
    /// sanitized lower bound, ties broken deterministically), returning
    /// how many were dropped. The memory watchdog calls this on budget
    /// breach; the default — for frontiers that cannot shed — drops
    /// nothing.
    fn shed(&mut self, excess: usize, lb: &mut dyn FnMut(&N) -> f64) -> usize {
        let _ = (excess, lb);
        0
    }
}

/// Removes the `excess` entries of `stack` with the largest bound (ties:
/// the deeper/later entry sheds first), preserving the relative order of
/// the survivors. Shared by every stack-shaped frontier's
/// [`Frontier::shed`].
pub(crate) fn shed_worst_from_stack<N>(
    stack: &mut Vec<N>,
    excess: usize,
    lb: &mut dyn FnMut(&N) -> f64,
) -> usize {
    let len = stack.len();
    let excess = excess.min(len);
    if excess == 0 {
        return 0;
    }
    let bounds: Vec<f64> = stack.iter().map(|n| sanitize_lb(lb(n))).collect();
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(b.cmp(&a)));
    let mut keep = vec![true; len];
    for &i in order.iter().take(excess) {
        keep[i] = false;
    }
    let mut i = 0;
    stack.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
    excess
}

/// LIFO stack: children are inserted in reverse branch order so the
/// *first* child is explored first (problems tune branch order for good
/// early incumbents).
#[derive(Debug, Default)]
pub struct DepthFirstFrontier<N> {
    stack: Vec<N>,
}

impl<N> DepthFirstFrontier<N> {
    /// An empty stack.
    pub fn new() -> Self {
        DepthFirstFrontier { stack: Vec::new() }
    }

    /// Pushes a single node on top of the stack.
    pub fn push(&mut self, node: N) {
        self.stack.push(node);
    }

    /// Removes the *bottom* (most promising, for a pool seeded
    /// best-bound-last) node — the one donated to other workers.
    pub fn steal_oldest(&mut self) -> Option<N> {
        if self.stack.is_empty() {
            None
        } else {
            Some(self.stack.remove(0))
        }
    }
}

impl<N> Frontier<N> for DepthFirstFrontier<N> {
    fn pop(&mut self) -> Option<N> {
        self.stack.pop()
    }

    fn absorb(&mut self, staged: &mut Vec<(f64, N)>) {
        for (_, node) in staged.drain(..).rev() {
            self.stack.push(node);
        }
    }

    fn len(&self) -> usize {
        self.stack.len()
    }

    fn shed(&mut self, excess: usize, lb: &mut dyn FnMut(&N) -> f64) -> usize {
        shed_worst_from_stack(&mut self.stack, excess, lb)
    }
}

/// FIFO queue — the masters' breadth-first *seeding* frontier (children
/// are absorbed in branch order and popped oldest-first).
#[derive(Debug, Default)]
pub struct BreadthFirstFrontier<N> {
    queue: VecDeque<N>,
}

impl<N> BreadthFirstFrontier<N> {
    /// An empty queue.
    pub fn new() -> Self {
        BreadthFirstFrontier {
            queue: VecDeque::new(),
        }
    }

    /// Consumes the frontier in FIFO order, for dealing seeds to workers.
    pub fn into_vec(self) -> Vec<N> {
        self.queue.into_iter().collect()
    }
}

impl<N> Frontier<N> for BreadthFirstFrontier<N> {
    fn pop(&mut self) -> Option<N> {
        self.queue.pop_front()
    }

    fn absorb(&mut self, staged: &mut Vec<(f64, N)>) {
        for (_, node) in staged.drain(..) {
            self.queue.push_back(node);
        }
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// What [`Expander::expand`] did with a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// The node's bound could not beat the incumbent; it was discarded.
    Pruned,
    /// The node was a complete solution (possibly non-improving).
    Solution {
        /// Its objective value.
        value: f64,
        /// Whether it improved the sink's incumbent.
        improved: bool,
    },
    /// The node was branched; `kept` children entered the frontier.
    Branched {
        /// Children that survived pruning.
        kept: usize,
    },
    /// A stop condition fired *before* the node was processed (budget
    /// exhausted); the node was not expanded.
    Stopped(StopReason),
}

/// The expansion kernel: one value owning the per-node search sequence
/// and its counters. Drivers construct one `Expander` per independent
/// stats scope (one for a sequential run, one per parallel worker, one
/// for a whole simulated cluster) and run their scheduling loop around
/// [`expand`](Expander::expand).
pub struct Expander<'a, P: Problem> {
    problem: &'a P,
    opts: &'a SearchOptions,
    children: ChildBuf<P::Node>,
    staged: Vec<(f64, P::Node)>,
    poller: StopPoller,
    stats: SearchStats,
}

impl<'a, P: Problem> Expander<'a, P> {
    /// A fresh kernel for `problem` under `opts`.
    pub fn new(problem: &'a P, opts: &'a SearchOptions) -> Self {
        Expander {
            problem,
            opts,
            children: ChildBuf::new(),
            staged: Vec::new(),
            poller: StopPoller::new(),
            stats: SearchStats::default(),
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Offers the problem's [initial incumbent](Problem::initial_incumbent)
    /// (the paper's UPGMM upper bound) to the sink, counting an incumbent
    /// update if it was accepted. NaN hints are dropped.
    pub fn offer_initial<K: IncumbentSink<P::Solution>>(&mut self, sink: &mut K) {
        if let Some((s, v)) = self.problem.initial_incumbent() {
            if v.is_nan() {
                return;
            }
            if sink.accept(v, s) {
                self.stats.incumbent_updates += 1;
            }
        }
    }

    /// Records nodes dropped by the memory watchdog: counts them and
    /// emits a [`SearchEvent::Shed`]. Drivers call this right after a
    /// successful [`Frontier::shed`].
    pub fn note_shed<O: SearchObserver>(&mut self, nodes: usize, observer: &mut O) {
        if nodes == 0 {
            return;
        }
        self.stats.nodes_shed += nodes as u64;
        observer.on_event(SearchEvent::Shed { nodes });
    }

    /// Pushes the root node (with its sanitized bound) into the frontier.
    pub fn push_root<F: Frontier<P::Node>>(&mut self, frontier: &mut F) {
        let root = self.problem.root();
        let lb = sanitize_lb(self.problem.lower_bound(&root));
        self.staged.clear();
        self.staged.push((lb, root));
        frontier.absorb(&mut self.staged);
        self.stats.peak_pool = self.stats.peak_pool.max(frontier.len() as u64);
    }

    /// Polls cancellation/deadline at the kernel's cadence, emitting a
    /// [`SearchEvent::Stopped`] when a condition fires. Call once per
    /// scheduling step, before [`expand`](Expander::expand).
    pub fn poll_stop<O: SearchObserver>(&mut self, observer: &mut O) -> Option<StopReason> {
        let stop = self.poller.poll(self.opts);
        if let Some(reason) = stop {
            observer.on_event(SearchEvent::Stopped { reason });
        }
        stop
    }

    /// Processes one node: prune, or record its solution, or branch it —
    /// the single authoritative copy of the expansion sequence.
    ///
    /// The node is passed by reference so schedulers can still inspect it
    /// afterwards (the cluster simulator charges virtual time by
    /// `branch_ops(node)`); pass it to [`recycle`](Expander::recycle) when
    /// done with it.
    pub fn expand<K, B, F, O>(
        &mut self,
        node: &P::Node,
        sink: &mut K,
        budget: &mut B,
        frontier: &mut F,
        observer: &mut O,
    ) -> Step
    where
        K: IncumbentSink<P::Solution>,
        B: BranchBudget,
        F: Frontier<P::Node>,
        O: SearchObserver,
    {
        let ub = sink.current_ub();
        let lb = sanitize_lb(self.problem.lower_bound(node));
        if prunable(lb, ub, self.opts.mode) {
            self.stats.pruned += 1;
            observer.on_event(SearchEvent::Pruned {
                reason: PruneReason::Node,
            });
            return Step::Pruned;
        }
        if let Some((s, v)) = self.problem.solution(node) {
            self.stats.solutions_seen += 1;
            if v.is_nan() {
                // Unorderable objective: drop it rather than poison the
                // bound.
                observer.on_event(SearchEvent::Pruned {
                    reason: PruneReason::NanObjective,
                });
                return Step::Solution {
                    value: v,
                    improved: false,
                };
            }
            let improved = sink.accept(v, s);
            if improved {
                self.stats.incumbent_updates += 1;
                observer.on_event(SearchEvent::IncumbentImproved { value: v });
            }
            return Step::Solution { value: v, improved };
        }
        if !budget.try_take() {
            observer.on_event(SearchEvent::Stopped {
                reason: StopReason::BudgetExhausted,
            });
            return Step::Stopped(StopReason::BudgetExhausted);
        }
        self.stats.branched += 1;
        debug_assert!(self.children.is_empty(), "branch buffer not drained");
        self.children.set_cutoff(ub, self.opts.mode);
        self.problem.branch(node, &mut self.children);
        // Children `branch` skipped against the cutoff are pruned children
        // that were never built: count and report them as such.
        let skipped = std::mem::take(&mut self.children.skipped);
        self.stats.pruned += skipped as u64;
        for _ in 0..skipped {
            observer.on_event(SearchEvent::Pruned {
                reason: PruneReason::Child,
            });
        }
        let generated = self.children.len() + skipped;
        // Re-read the bound: another worker may have tightened it while
        // `branch` ran (for single-threaded sinks this is the same value).
        // The shared bound only decreases, so every skip above is also a
        // prune at this value.
        let ub = sink.current_ub();
        let mut out = std::mem::take(&mut self.children.out);
        self.staged.clear();
        for child in out.drain(..) {
            let clb = sanitize_lb(self.problem.lower_bound(&child));
            if prunable(clb, ub, self.opts.mode) {
                self.stats.pruned += 1;
                observer.on_event(SearchEvent::Pruned {
                    reason: PruneReason::Child,
                });
                self.children.retire(child);
            } else {
                self.staged.push((clb, child));
            }
        }
        self.children.out = out;
        let kept = self.staged.len();
        frontier.absorb(&mut self.staged);
        self.stats.peak_pool = self.stats.peak_pool.max(frontier.len() as u64);
        observer.on_event(SearchEvent::NodeExpanded {
            children: generated,
            kept,
        });
        Step::Branched { kept }
    }

    /// Retires a consumed node into the spare pool, making its buffers
    /// available to the next [`ChildBuf::recycle`] call.
    pub fn recycle(&mut self, node: P::Node) {
        self.children.retire(node);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use super::*;
    use crate::solve_sequential_observed;

    /// A uniform tree of depth `depth`: node `(depth, id, cost)`, child `i`
    /// adds a pseudo-random positive step to the cost, which is also the
    /// (admissible) lower bound. With `skip`, `branch` scores each child
    /// before building it and skips it when the cutoff rejects it; with
    /// `nan_first`, the first child's score is NaN.
    struct Steps {
        depth: u32,
        skip: bool,
        nan_first: bool,
        skips: AtomicUsize,
    }

    impl Steps {
        fn new(skip: bool, nan_first: bool) -> Self {
            Steps {
                depth: 6,
                skip,
                nan_first,
                skips: AtomicUsize::new(0),
            }
        }
    }

    impl Problem for Steps {
        type Node = (u32, u64, f64);
        type Solution = u64;

        fn root(&self) -> Self::Node {
            (0, 1, 0.0)
        }
        fn lower_bound(&self, node: &Self::Node) -> f64 {
            node.2
        }
        fn solution(&self, node: &Self::Node) -> Option<(u64, f64)> {
            (node.0 == self.depth).then_some((node.1, node.2))
        }
        fn initial_incumbent(&self) -> Option<(u64, f64)> {
            // Far below the mean path cost (4.5 per level), so the cutoff
            // fires on children as well as on popped nodes.
            Some((0, 2.5 * self.depth as f64))
        }
        fn branch(&self, node: &Self::Node, out: &mut ChildBuf<Self::Node>) {
            for i in 0..3u64 {
                let id = node.1 * 3 + i;
                let step = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as f64 + 1.0;
                let child = (node.0 + 1, id, node.2 + step);
                let est = if self.nan_first && i == 0 {
                    f64::NAN
                } else {
                    child.2
                };
                if self.skip && !out.admits(est) {
                    self.skips.fetch_add(1, AtomicOrdering::Relaxed);
                    out.skip();
                    continue;
                }
                out.push(child);
            }
        }
    }

    #[derive(Default)]
    struct Record(Vec<SearchEvent>);

    impl SearchObserver for Record {
        fn on_event(&mut self, event: SearchEvent) {
            self.0.push(event);
        }
    }

    fn run(p: &Steps, opts: &SearchOptions) -> (SearchOutcome<u64>, Vec<SearchEvent>) {
        let mut rec = Record::default();
        let out = solve_sequential_observed(p, opts, &mut rec);
        (out, rec.0)
    }

    #[test]
    fn skipped_children_count_exactly_as_pruned_ones() {
        for mode in [SearchMode::BestOne, SearchMode::AllOptimal] {
            let opts = SearchOptions::new(mode);
            let (built, built_events) = run(&Steps::new(false, false), &opts);
            let skipping = Steps::new(true, false);
            let (skipped, skipped_events) = run(&skipping, &opts);
            assert!(
                skipping.skips.load(AtomicOrdering::Relaxed) > 0,
                "{mode:?}: the cutoff never fired"
            );
            assert_eq!(built.stats, skipped.stats, "{mode:?}");
            assert_eq!(built.best_value, skipped.best_value);
            assert_eq!(built.solutions, skipped.solutions);
            assert_eq!(built_events, skipped_events, "{mode:?}");
        }
    }

    #[test]
    fn nan_scores_are_never_skipped() {
        let opts = SearchOptions::new(SearchMode::BestOne);
        let (built, built_events) = run(&Steps::new(false, true), &opts);
        let nan = Steps::new(true, true);
        let (skipped, skipped_events) = run(&nan, &opts);
        assert_eq!(built.stats, skipped.stats);
        assert_eq!(built_events, skipped_events);

        let mut buf = ChildBuf::<u32>::new();
        buf.set_cutoff(10.0, SearchMode::BestOne);
        assert!(buf.admits(f64::NAN));
        assert!(buf.admits(5.0));
        assert!(!buf.admits(10.0));
        assert!(!buf.admits(f64::INFINITY));
    }

    #[test]
    fn the_cutoff_defaults_open_and_admit_all_lifts_it() {
        let mut buf = ChildBuf::<u32>::new();
        assert!(buf.admits(1e300));
        buf.set_cutoff(10.0, SearchMode::AllOptimal);
        // AllOptimal keeps ties: only a strictly worse bound is rejected.
        assert!(buf.admits(10.0));
        assert!(!buf.admits(11.0));
        buf.admit_all();
        assert!(buf.admits(11.0));
        buf.skip();
        assert_eq!(buf.skipped, 1);
        buf.clear();
        assert_eq!(buf.skipped, 0);
    }
}
