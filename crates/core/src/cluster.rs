//! Deterministic discrete-event simulation of the paper's cluster runs.
//!
//! The papers time their parallel branch-and-bound on a 16-node Linux PC
//! cluster. To reproduce those experiments without the hardware (and
//! deterministically, on any host), this module replays the master/slave
//! protocol on a simulated cluster: every branch operation consumes
//! virtual compute time, and every message — upper-bound broadcasts, work
//! requests, work transfers and pool donations — pays the
//! [`NetworkModel`](mutree_clustersim::NetworkModel)'s
//! `latency + bytes/bandwidth`.
//!
//! The search logic is *identical* to the real drivers — both the master's
//! seeding phase and the slaves' node processing run the shared
//! [expansion kernel](mutree_bnb::kernel) (same nodes, same bounds, same
//! pruning), so the simulated optimum always matches the sequential one;
//! only the timeline is modeled. Super-linear speedup emerges naturally: a
//! slave that stumbles on a good incumbent early broadcasts it, and every
//! other slave skips work the sequential search would have performed.
//!
//! Protocol, one virtual step per BBT node (the paper's Step 7 loop):
//!
//! * a slave pops from its local pool depth-first, prunes against its
//!   *current view* of the global upper bound, branches otherwise;
//! * an improving solution updates the slave's view immediately and is
//!   broadcast to the master and all other slaves;
//! * after every few branches a loaded slave donates its most promising
//!   pending node to the master's global pool (the paper's "send the last
//!   UT in sorted LP to GP"), which serves waiting slaves;
//! * a slave with an empty pool sends a work request to the master and
//!   waits;
//! * the run ends when every slave is waiting, the global pool is empty
//!   and no message is in flight.

use std::collections::VecDeque;

use mutree_bnb::kernel::{
    sanitize_lb, BreadthFirstFrontier, DepthFirstFrontier, Expander, Frontier, IncumbentSink,
    LocalBudget, Step, StopPoller,
};
use mutree_bnb::{
    Incumbents, Problem, SearchMode, SearchObserver, SearchOptions, SearchOutcome, SearchStats,
    StopReason,
};
use mutree_clustersim::{ClusterSpec, EventQueue, NodeMetrics, SimReport};

use crate::MutProblem;

/// Cost-model hooks the simulation needs on top of [`Problem`].
pub trait SimCost: Problem {
    /// Work units consumed by branching `node` (child generation plus
    /// bound evaluation).
    fn branch_ops(&self, node: &Self::Node) -> f64;

    /// Serialized size of `node` in bytes, for work-transfer messages.
    fn node_bytes(&self, node: &Self::Node) -> u64;
}

impl SimCost for MutProblem {
    fn branch_ops(&self, node: &Self::Node) -> f64 {
        // 2k−1 children, each an O(k) height-path update, plus the
        // look-ahead rows a branch copies and refreshes: 2(k−1) rows of
        // n−k lanes.
        let k = node.leaves_inserted() as f64;
        let lanes = (node.taxon_count() - node.leaves_inserted()) as f64;
        (2.0 * k - 1.0) * k + 2.0 * (k - 1.0) * lanes
    }

    fn node_bytes(&self, node: &Self::Node) -> u64 {
        node.heap_bytes()
    }
}

/// Result of a simulated run: the search outcome plus the virtual-time
/// report.
#[derive(Debug, Clone)]
pub struct SimulatedOutcome<S> {
    /// What the search found (identical in value to the real drivers).
    pub outcome: SearchOutcome<S>,
    /// Virtual-time measurements: makespan, per-slave busy time, message
    /// and byte counts.
    pub report: SimReport,
}

/// Control-message payload size (an upper bound value or a request).
const CTRL_BYTES: u64 = 16;
/// Work units charged for popping-and-pruning or accepting a solution.
const TOUCH_OPS: f64 = 1.0;
/// A slave donates to the global pool every this many branches…
const DONATE_EVERY: u64 = 4;
/// …as long as it keeps at least this many nodes for itself.
const MIN_KEEP: usize = 3;

enum Ev<N> {
    /// Slave `i` is ready to process its next pool node.
    Ready(usize),
    /// A message arrives at slave `i`.
    AtSlave(usize, SlaveMsg<N>),
    /// A message from slave `i` arrives at the master.
    AtMaster(usize, MasterMsg<N>),
}

enum SlaveMsg<N> {
    Ub(f64),
    Work(Vec<N>),
}

enum MasterMsg<N> {
    Request,
    Donate(N),
    /// Bound broadcasts also reach the master (it only observes them, but
    /// the message still costs wire time).
    Ub,
}

struct Slave<N, S> {
    lp: DepthFirstFrontier<N>,
    ub: f64,
    waiting: bool,
    branches_since_donate: u64,
    found: Vec<(f64, S)>,
    metrics: NodeMetrics,
}

/// A simulated slave's sink: its *delayed view* of the global upper bound
/// (updated only when a broadcast arrives), plus a local list of found
/// solutions gathered by the master at the end.
struct SlaveSink<'a, S> {
    ub: &'a mut f64,
    found: &'a mut Vec<(f64, S)>,
    opts: &'a SearchOptions,
}

impl<S> IncumbentSink<S> for SlaveSink<'_, S> {
    fn current_ub(&self) -> f64 {
        *self.ub
    }

    fn accept(&mut self, value: f64, solution: S) -> bool {
        let eps = self.opts.eps(*self.ub);
        let improved = value < *self.ub - eps;
        let keep = match self.opts.mode {
            SearchMode::BestOne => improved,
            SearchMode::AllOptimal => value <= *self.ub + eps,
        };
        if keep {
            self.found.push((value, solution));
        }
        if improved {
            *self.ub = value;
        }
        improved
    }
}

/// Runs the search on a simulated cluster. See the module docs for the
/// protocol. Deterministic: same inputs, same outcome, same timings.
pub fn solve_simulated<P: SimCost>(
    problem: &P,
    opts: &SearchOptions,
    spec: &ClusterSpec,
) -> SimulatedOutcome<P::Solution> {
    solve_simulated_observed(problem, opts, spec, &mut ())
}

/// [`solve_simulated`] with a [`SearchObserver`] receiving the kernel's
/// structured events (the whole simulation runs on one thread, so a
/// single observer sees every event in deterministic order).
pub fn solve_simulated_observed<P: SimCost, O: SearchObserver>(
    problem: &P,
    opts: &SearchOptions,
    spec: &ClusterSpec,
    observer: &mut O,
) -> SimulatedOutcome<P::Solution> {
    let p = spec.slave_count();
    // One kernel instance carries the counters for the whole simulated
    // cluster (per-slave sums and pool peaks commute with the merge the
    // real parallel driver performs).
    let mut exp = Expander::new(problem, opts);
    let mut master_inc: Incumbents<P::Solution> = Incumbents::new(opts);
    exp.offer_initial(&mut master_inc);
    // The branch budget spans seeding and the event loop, like the real
    // parallel driver's shared counter.
    let mut budget = LocalBudget::new(opts.max_branches);

    // --- Master seeding (the paper's Steps 1–5), charged to the master.
    // Under strong pruning this loop can drain the whole search, so it
    // honors (real-world) cancellation and deadlines like the event loop.
    let mut seed_ops = 0.0;
    let target = 2 * p;
    let mut frontier = BreadthFirstFrontier::new();
    exp.push_root(&mut frontier);
    let mut seed_stop: Option<StopReason> = None;
    while frontier.len() < target {
        if let Some(reason) = exp.poll_stop(observer) {
            seed_stop = Some(reason);
            break;
        }
        let Some(node) = frontier.pop() else {
            break;
        };
        match exp.expand(&node, &mut master_inc, &mut budget, &mut frontier, observer) {
            Step::Stopped(reason) => {
                seed_stop = Some(reason);
                break;
            }
            Step::Branched { .. } => {
                seed_ops += problem.branch_ops(&node);
                exp.recycle(node);
            }
            _ => {
                seed_ops += TOUCH_OPS;
                exp.recycle(node);
            }
        }
    }

    let t0 = seed_ops / spec.master_ops_per_sec();
    if let Some(reason) = seed_stop {
        return gather(
            master_inc,
            exp.stats(),
            reason,
            SimReport {
                makespan: t0,
                per_node: vec![NodeMetrics::default(); p],
            },
            Vec::new(),
        );
    }
    if frontier.is_empty() {
        return gather(
            master_inc,
            exp.stats(),
            StopReason::Completed,
            SimReport {
                makespan: t0,
                per_node: vec![NodeMetrics::default(); p],
            },
            Vec::new(),
        );
    }

    // --- Sort seeds by lower bound and deal cyclically (Step 6).
    let mut seeds: Vec<(f64, P::Node)> = frontier
        .into_vec()
        .into_iter()
        .map(|n| (sanitize_lb(problem.lower_bound(&n)), n))
        .collect();
    seeds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut deals: Vec<Vec<P::Node>> = (0..p).map(|_| Vec::new()).collect();
    for (i, (_, node)) in seeds.into_iter().enumerate() {
        deals[i % p].push(node);
    }

    let seed_ub = master_inc.ub;
    let mut slaves: Vec<Slave<P::Node, P::Solution>> = (0..p)
        .map(|_| Slave {
            lp: DepthFirstFrontier::new(),
            ub: seed_ub,
            waiting: false,
            branches_since_donate: 0,
            found: Vec::new(),
            metrics: NodeMetrics::default(),
        })
        .collect();

    let mut q: EventQueue<Ev<P::Node>> = EventQueue::new();
    let mut master_metrics = NodeMetrics::default();
    master_metrics.record_busy(t0, seed_ops as u64);
    for (i, mut batch) in deals.into_iter().enumerate() {
        // Local pools are stacks: reverse so the best bound pops first.
        batch.reverse();
        let bytes: u64 = CTRL_BYTES + batch.iter().map(|n| problem.node_bytes(n)).sum::<u64>();
        master_metrics.record_send(bytes);
        let arrival = t0 + spec.master_slave_delay(i, bytes);
        if batch.is_empty() {
            q.schedule(arrival, Ev::Ready(i));
        } else {
            q.schedule(arrival, Ev::AtSlave(i, SlaveMsg::Work(batch)));
        }
    }

    // --- Event loop.
    let mut gp: Vec<P::Node> = Vec::new();
    let mut pending_requests: VecDeque<usize> = VecDeque::new();
    let mut stop = StopReason::Completed;
    let mut makespan = t0;
    // Fresh cadence for the event loop (events, not nodes, are the tick
    // unit here — many events process no node at all).
    let mut poller = StopPoller::new();

    while let Some((now, ev)) = q.pop() {
        makespan = makespan.max(now);
        if !stop.is_complete() {
            continue; // drain remaining events
        }
        // The simulation advances virtual time, but the *host* running it
        // still honors real-world deadlines and cancellation: a simulated
        // experiment that explodes combinatorially must stay interruptible.
        if let Some(reason) = poller.poll(opts) {
            stop = reason;
            continue;
        }
        match ev {
            Ev::AtSlave(i, SlaveMsg::Ub(v)) => {
                let s = &mut slaves[i];
                if v < s.ub {
                    s.ub = v;
                }
            }
            Ev::AtSlave(i, SlaveMsg::Work(batch)) => {
                // Work arrives either as the initial seeding delivery (the
                // slave has no Ready event yet) or in response to a
                // request (the slave is waiting); either way it can start.
                let s = &mut slaves[i];
                for n in batch {
                    s.lp.push(n);
                }
                s.waiting = false;
                q.schedule(now, Ev::Ready(i));
            }
            Ev::AtMaster(i, MasterMsg::Request) => {
                pending_requests.push_back(i);
                serve_requests(
                    now,
                    spec,
                    &mut q,
                    &mut gp,
                    &mut pending_requests,
                    &mut master_metrics,
                    |n| problem.node_bytes(n),
                );
            }
            Ev::AtMaster(_, MasterMsg::Donate(node)) => {
                gp.push(node);
                serve_requests(
                    now,
                    spec,
                    &mut q,
                    &mut gp,
                    &mut pending_requests,
                    &mut master_metrics,
                    |n| problem.node_bytes(n),
                );
            }
            Ev::AtMaster(_, MasterMsg::Ub) => {
                // The master only observes; slaves broadcast directly.
            }
            Ev::Ready(i) => {
                let Some(node) = slaves[i].lp.pop() else {
                    let s = &mut slaves[i];
                    if !s.waiting {
                        s.waiting = true;
                        s.metrics.record_send(CTRL_BYTES);
                        q.schedule(
                            now + spec.master_slave_delay(i, CTRL_BYTES),
                            Ev::AtMaster(i, MasterMsg::Request),
                        );
                    }
                    continue;
                };
                let step = {
                    let Slave { lp, ub, found, .. } = &mut slaves[i];
                    let mut sink = SlaveSink { ub, found, opts };
                    exp.expand(&node, &mut sink, &mut budget, lp, observer)
                };
                match step {
                    Step::Pruned => {
                        let s = &mut slaves[i];
                        let dt = spec.compute_time(i, TOUCH_OPS);
                        s.metrics.record_busy(dt, TOUCH_OPS as u64);
                        q.schedule(now + dt, Ev::Ready(i));
                        exp.recycle(node);
                    }
                    Step::Solution { value, improved } => {
                        {
                            let s = &mut slaves[i];
                            let dt = spec.compute_time(i, TOUCH_OPS);
                            s.metrics.record_busy(dt, TOUCH_OPS as u64);
                            q.schedule(now + dt, Ev::Ready(i));
                        }
                        if improved {
                            // Broadcast the new bound to everyone.
                            for other in 0..p {
                                if other != i {
                                    slaves[i].metrics.record_send(CTRL_BYTES);
                                    q.schedule(
                                        now + spec.slave_slave_delay(i, other, CTRL_BYTES),
                                        Ev::AtSlave(other, SlaveMsg::Ub(value)),
                                    );
                                }
                            }
                            slaves[i].metrics.record_send(CTRL_BYTES);
                            q.schedule(
                                now + spec.master_slave_delay(i, CTRL_BYTES),
                                Ev::AtMaster(i, MasterMsg::Ub),
                            );
                        }
                        exp.recycle(node);
                    }
                    Step::Branched { .. } => {
                        let ops = problem.branch_ops(&node);
                        let dt = spec.compute_time(i, ops);
                        let s = &mut slaves[i];
                        s.metrics.record_busy(dt, ops as u64);
                        s.branches_since_donate += 1;
                        // Keep the global pool stocked (the paper's
                        // donation rule).
                        if s.branches_since_donate >= DONATE_EVERY && s.lp.len() > MIN_KEEP {
                            s.branches_since_donate = 0;
                            if let Some(donated) = s.lp.steal_oldest() {
                                let bytes = CTRL_BYTES + problem.node_bytes(&donated);
                                s.metrics.record_send(bytes);
                                q.schedule(
                                    now + dt + spec.master_slave_delay(i, bytes),
                                    Ev::AtMaster(i, MasterMsg::Donate(donated)),
                                );
                            }
                        }
                        q.schedule(now + dt, Ev::Ready(i));
                        exp.recycle(node);
                    }
                    Step::Stopped(reason) => {
                        stop = reason;
                    }
                }
            }
        }
    }

    let report = SimReport {
        makespan,
        per_node: slaves.iter().map(|s| s.metrics).collect(),
    };
    let mut found = Vec::new();
    for s in slaves {
        found.extend(s.found);
    }
    gather(master_inc, exp.stats(), stop, report, found)
}

fn serve_requests<N>(
    now: f64,
    spec: &ClusterSpec,
    q: &mut EventQueue<Ev<N>>,
    gp: &mut Vec<N>,
    pending: &mut VecDeque<usize>,
    master_metrics: &mut NodeMetrics,
    node_bytes: impl Fn(&N) -> u64,
) {
    while !pending.is_empty() && !gp.is_empty() {
        let req = pending.pop_front().expect("checked non-empty");
        let node = gp.pop().expect("checked non-empty");
        let bytes = CTRL_BYTES + node_bytes(&node);
        master_metrics.record_send(bytes);
        q.schedule(
            now + spec.master_slave_delay(req, bytes),
            Ev::AtSlave(req, SlaveMsg::Work(vec![node])),
        );
    }
}

fn gather<S: Clone>(
    mut inc: Incumbents<S>,
    stats: SearchStats,
    stop: StopReason,
    report: SimReport,
    found: Vec<(f64, S)>,
) -> SimulatedOutcome<S> {
    for (v, s) in found {
        inc.offer(v, s);
    }
    SimulatedOutcome {
        outcome: inc.into_outcome(stats, stop),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreeThree;
    use mutree_bnb::{solve_parallel, solve_sequential, ChildBuf, SpawnPool};
    use mutree_distmat::{gen, DistanceMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn m6() -> DistanceMatrix {
        let mut rng = StdRng::seed_from_u64(77);
        gen::uniform_metric(6, 0.0, 100.0, &mut rng)
    }

    #[test]
    fn cost_model_charges_tree_work_and_look_ahead_rows() {
        let m = m6();
        let p = MutProblem::new(&m, ThreeThree::Off, true);
        let root = p.root();
        // k = 2, n = 6: 3 children of a 2-node path, plus 2·1·4 lanes.
        assert_eq!(p.branch_ops(&root), 3.0 * 2.0 + 8.0);
        assert_eq!(p.node_bytes(&root), root.heap_bytes());
        let mut kids = ChildBuf::new();
        p.branch(&root, &mut kids);
        let child = &kids.as_slice()[0];
        // k = 3: 5·3 tree steps plus 2·2·3 lanes.
        assert_eq!(p.branch_ops(child), 15.0 + 12.0);
    }

    #[test]
    fn simulated_matches_sequential_value() {
        let m = m6();
        let pm = m.maxmin_permutation().apply(&m);
        let p = MutProblem::new(&pm, ThreeThree::Off, true);
        let opts = SearchOptions::new(SearchMode::BestOne);
        let seq = solve_sequential(&p, &opts);
        for slaves in [1, 2, 4, 16] {
            let sim = solve_simulated(&p, &opts, &ClusterSpec::with_slaves(slaves));
            assert_eq!(seq.best_value, sim.outcome.best_value, "slaves = {slaves}");
            assert!(sim.outcome.is_complete());
            assert!(sim.report.makespan > 0.0);
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let m = m6();
        let pm = m.maxmin_permutation().apply(&m);
        let p = MutProblem::new(&pm, ThreeThree::Off, true);
        let opts = SearchOptions::new(SearchMode::BestOne);
        let spec = ClusterSpec::with_slaves(4);
        let a = solve_simulated(&p, &opts, &spec);
        let b = solve_simulated(&p, &opts, &spec);
        assert_eq!(a.report, b.report);
        assert_eq!(a.outcome.best_value, b.outcome.best_value);
    }

    #[test]
    fn more_slaves_do_not_change_the_answer() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = gen::perturbed_ultrametric(8, 40.0, 0.1, &mut rng);
        let pm = m.maxmin_permutation().apply(&m);
        let p = MutProblem::new(&pm, ThreeThree::Off, true);
        let opts = SearchOptions::new(SearchMode::BestOne);
        let base = solve_simulated(&p, &opts, &ClusterSpec::with_slaves(1));
        for slaves in [3, 8] {
            let sim = solve_simulated(&p, &opts, &ClusterSpec::with_slaves(slaves));
            assert_eq!(base.outcome.best_value, sim.outcome.best_value);
        }
    }

    #[test]
    fn parallelism_reduces_makespan_on_nontrivial_instances() {
        let mut rng = StdRng::seed_from_u64(123);
        let m = gen::uniform_metric(10, 0.0, 100.0, &mut rng);
        let pm = m.maxmin_permutation().apply(&m);
        // Without the UPGMM hint the search cannot collapse during the
        // master's seeding phase, so the slaves really run.
        let p = MutProblem::new(&pm, ThreeThree::Off, false);
        let opts = SearchOptions::new(SearchMode::BestOne);
        let t1 = solve_simulated(&p, &opts, &ClusterSpec::with_slaves(1))
            .report
            .makespan;
        let t8 = solve_simulated(&p, &opts, &ClusterSpec::with_slaves(8))
            .report
            .makespan;
        assert!(
            t8 < t1,
            "8 slaves ({t8:.6}s) should beat 1 slave ({t1:.6}s)"
        );
    }

    #[test]
    fn metrics_account_messages() {
        let m = m6();
        let pm = m.maxmin_permutation().apply(&m);
        let p = MutProblem::new(&pm, ThreeThree::Off, false);
        let opts = SearchOptions::new(SearchMode::BestOne);
        let sim = solve_simulated(&p, &opts, &ClusterSpec::with_slaves(4));
        // Slaves at least request more work once they drain.
        assert!(sim.report.total_messages() > 0);
        assert!(sim.report.total_ops() > 0);
        assert_eq!(sim.report.per_node.len(), 4);
    }

    #[test]
    fn budget_abort_reports_incomplete() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = gen::uniform_metric(12, 0.0, 100.0, &mut rng);
        let pm = m.maxmin_permutation().apply(&m);
        let p = MutProblem::new(&pm, ThreeThree::Off, false);
        let opts = SearchOptions::new(SearchMode::BestOne).max_branches(20);
        let sim = solve_simulated(&p, &opts, &ClusterSpec::with_slaves(4));
        assert_eq!(sim.outcome.stop, StopReason::BudgetExhausted);
        assert!(!sim.outcome.is_complete());
    }

    #[test]
    fn pre_cancelled_token_stops_the_simulation() {
        let m = m6();
        let pm = m.maxmin_permutation().apply(&m);
        let p = MutProblem::new(&pm, ThreeThree::Off, true);
        let token = mutree_bnb::CancelToken::new();
        token.cancel();
        let opts = SearchOptions::new(SearchMode::BestOne).cancel_token(token);
        let sim = solve_simulated(&p, &opts, &ClusterSpec::with_slaves(4));
        assert_eq!(sim.outcome.stop, StopReason::Cancelled);
        // The UPGMM incumbent survives the interruption.
        assert!(sim.outcome.best_value.is_some());
    }

    #[test]
    fn all_optimal_set_matches_sequential() {
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 6.0, 6.0],
            vec![6.0, 0.0, 6.0],
            vec![6.0, 6.0, 0.0],
        ])
        .unwrap();
        let p = MutProblem::new(&m, ThreeThree::Off, false);
        let opts = SearchOptions::new(SearchMode::AllOptimal);
        let seq = solve_sequential(&p, &opts);
        let sim = solve_simulated(&p, &opts, &ClusterSpec::with_slaves(2));
        assert_eq!(seq.best_value, sim.outcome.best_value);
        assert_eq!(seq.solutions.len(), sim.outcome.solutions.len());
    }

    /// Wraps a problem but reports NaN for every lower bound. The kernel's
    /// NaN→−∞ policy must make this equivalent to "no pruning", never to
    /// "prune everything", in the simulated driver too.
    struct NanLb(MutProblem);

    impl Problem for NanLb {
        type Node = <MutProblem as Problem>::Node;
        type Solution = <MutProblem as Problem>::Solution;

        fn root(&self) -> Self::Node {
            self.0.root()
        }
        fn lower_bound(&self, _: &Self::Node) -> f64 {
            f64::NAN
        }
        fn solution(&self, n: &Self::Node) -> Option<(Self::Solution, f64)> {
            self.0.solution(n)
        }
        fn branch(&self, n: &Self::Node, out: &mut ChildBuf<Self::Node>) {
            // This wrapper redefines the bound the kernel prunes by, so
            // the inner problem must not skip children against its own.
            out.admit_all();
            self.0.branch(n, out)
        }
    }

    impl SimCost for NanLb {
        fn branch_ops(&self, node: &Self::Node) -> f64 {
            self.0.branch_ops(node)
        }
        fn node_bytes(&self, node: &Self::Node) -> u64 {
            self.0.node_bytes(node)
        }
    }

    #[test]
    fn nan_lower_bounds_never_prune_in_the_simulated_driver() {
        let m = m6();
        let pm = m.maxmin_permutation().apply(&m);
        let exact = MutProblem::new(&pm, ThreeThree::Off, false);
        let nan = NanLb(MutProblem::new(&pm, ThreeThree::Off, false));
        let opts = SearchOptions::new(SearchMode::BestOne);
        let reference = solve_sequential(&exact, &opts);
        let sim = solve_simulated(&nan, &opts, &ClusterSpec::with_slaves(3));
        assert_eq!(reference.best_value, sim.outcome.best_value);
        assert!(sim.outcome.is_complete());
        // With no usable bounds nothing may be pruned at all.
        assert_eq!(sim.outcome.stats.pruned, 0);
    }

    #[test]
    fn all_three_drivers_agree_on_the_optimum() {
        for seed in [11u64, 42, 99] {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = gen::uniform_metric(7, 0.0, 50.0, &mut rng);
            let pm = m.maxmin_permutation().apply(&m);
            let p = Arc::new(MutProblem::new(&pm, ThreeThree::Off, true));
            let opts = SearchOptions::new(SearchMode::BestOne);
            let seq = solve_sequential(&*p, &opts);
            let par = solve_parallel(Arc::clone(&p), &opts, 4, &SpawnPool, ());
            let sim = solve_simulated(&*p, &opts, &ClusterSpec::with_slaves(4));
            assert_eq!(seq.best_value, par.best_value, "seed {seed} (parallel)");
            assert_eq!(
                seq.best_value, sim.outcome.best_value,
                "seed {seed} (simulated)"
            );
            assert!(par.is_complete() && sim.outcome.is_complete());
        }
    }
}
