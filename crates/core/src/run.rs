//! The spine's final leg: executing a
//! [`SolveRequest`](mutree_engine::SolveRequest) / [`SolvePlan`]
//! and folding either solve path's outcome into one [`SolveReport`].
//!
//! ```text
//! SolveRequest ──resolve──▶ SolvePlan ──solve_plan──▶ SolveReport
//! ```
//!
//! [`solve_plan`] runs a resolved plan, and [`solve_plan_hooked`] runs
//! it under a serving front end's [`SolveHooks`]. Either way the request
//! alone configures the solve: nothing on this path reads the
//! environment. Every cached lookup on this path, and in the pipeline
//! beneath it, is gated by the one
//! [`MutSolver::cache_sig_interruptible`]. The
//! `From` conversions below are the only place the exact solver's
//! [`MutSolution`] and the pipeline's [`PipelineSolution`] are reconciled
//! into the shared report shape.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mutree_clustersim::ClusterSpec;
use mutree_distmat::DistanceMatrix;
use mutree_engine::{
    BackendSpec, GroupCache, MatrixSource, SolveKind, SolvePlan, SolveReport, StageTiming,
};

use crate::memo::{memoized, Answer};
use crate::pipeline::{CompactPipeline, PipelineSolution};
use crate::solver::{MutSolution, MutSolver, SearchBackend};
use crate::{CancelToken, Executor, MutError};

impl From<MutSolution> for SolveReport {
    /// An exact solve's report. The caller owns wall-clock measurement:
    /// `timings` starts empty ([`solve_plan`] adds the synthetic `exact`
    /// entry with the measured seconds).
    fn from(sol: MutSolution) -> Self {
        SolveReport {
            tree: sol.tree,
            weight: sol.weight,
            trees: sol.trees,
            stats: sol.stats,
            stop: sol.stop,
            degraded: Vec::new(),
            timings: Vec::new(),
            groups: None,
            compact_sets: None,
            sim: sol.sim,
        }
    }
}

impl From<PipelineSolution> for SolveReport {
    fn from(sol: PipelineSolution) -> Self {
        SolveReport {
            trees: vec![sol.tree.clone()],
            tree: sol.tree,
            weight: sol.weight,
            stats: sol.stats,
            stop: sol.stop,
            degraded: sol.degraded,
            timings: sol.timings,
            groups: Some(sol.groups),
            compact_sets: Some(sol.compact_sets),
            sim: None,
        }
    }
}

/// The process-wide cache used by plan execution whenever a plan enables
/// caching, and the only process-wide [`GroupCache`] in the workspace.
/// One shared instance keyed by content means repeated
/// [`solve_plan`] calls in the same process (benches replaying a batch,
/// a long-lived service) hit each other's entries; distinct
/// configurations cannot collide because the solver signature is part of
/// every cache key.
fn shared_cache() -> Arc<GroupCache> {
    static GLOBAL: OnceLock<Arc<GroupCache>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(GroupCache::new())))
}

/// Supervision hooks a serving front end layers onto a plan's execution.
///
/// A [`SolveRequest`](mutree_engine::SolveRequest) is deliberately
/// env-free and serializable, so it cannot carry process-local live objects: the `mutree serve` daemon's
/// per-request [`CancelToken`] (wired to client disconnect), the
/// admission controller's *absolute* deadline (queue wait must count
/// against a request's budget, so the daemon converts the request's
/// relative `timeout` to an instant at admission), the shared
/// [`Executor`] every connection's solves run on, and the chaos-test
/// fault injection. [`solve_plan_hooked`] threads these into the solver
/// as it translates the plan; `SolveHooks::default()` makes it
/// equivalent to [`solve_plan`].
#[derive(Debug, Clone, Default)]
pub struct SolveHooks {
    /// Absolute wall-clock deadline. Overrides the request's relative
    /// `timeout` (which [`plan_solver`] measures from solver build time,
    /// not admission time).
    pub deadline: Option<Instant>,
    /// Cancel token observed by the search; sticky and level-triggered.
    pub cancel: Option<CancelToken>,
    /// Shared worker pool for the solve (and the pipeline, for
    /// decomposed requests). When present, no per-solve pool is built.
    pub executor: Option<Executor>,
    /// Fault-injection test hook: panic on subproblems of exactly this
    /// many taxa (see [`MutSolver::panic_on_taxa`]).
    pub panic_on_taxa: Option<usize>,
}

/// Loads the request's matrix: inline matrices are cloned, PHYLIP paths
/// are read and parsed.
fn load_matrix(source: &MatrixSource) -> Result<DistanceMatrix, MutError> {
    match source {
        MatrixSource::Inline(m) => Ok(m.clone()),
        MatrixSource::PhylipPath(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| MutError::Input {
                message: format!("cannot read {}: {e}", path.display()),
            })?;
            mutree_distmat::io::parse_phylip(&text).map_err(|e| MutError::Input {
                message: format!("cannot parse {}: {e}", path.display()),
            })
        }
    }
}

/// Builds the solver a plan prescribes: pure request-to-builder
/// translation. Public so a caller can read the plan's cache signature
/// ([`MutSolver::cache_sig_interruptible`]) without running a solve.
pub fn plan_solver(plan: &SolvePlan) -> MutSolver {
    hooked_solver(plan, &SolveHooks::default())
}

/// [`plan_solver`] with `hooks` applied. The hooks' executor, when
/// present, serves the search in place of the per-solve pool, which is
/// then never built: a request's `threads` cannot make a daemon spawn
/// threads.
fn hooked_solver(plan: &SolvePlan, hooks: &SolveHooks) -> MutSolver {
    let req = &plan.request;
    let mut s = MutSolver::new()
        .backend(match req.backend {
            BackendSpec::Sequential => SearchBackend::Sequential,
            BackendSpec::Parallel { workers } => SearchBackend::Parallel { workers },
            BackendSpec::SimulatedCluster { slaves } => SearchBackend::SimulatedCluster {
                spec: ClusterSpec::with_slaves(slaves),
            },
        })
        .mode(req.mode)
        .three_three(req.three_three)
        .max_branches(req.max_branches);
    if !req.use_maxmin {
        s = s.without_maxmin();
    }
    if !req.use_upgmm {
        s = s.without_upgmm();
    }
    if let Some(t) = req.timeout {
        s = s.timeout(t);
    }
    if let Some(budget) = req.memory {
        s = s.memory_budget(budget);
    }
    if let Some(level) = req.trace {
        s = s.trace(crate::LoggingObserver::new(level));
    }
    // A hooks pool serves the solve whatever the request says. Otherwise,
    // for an exact solve, `threads` means "run the search itself on a
    // shared pool" (the pipeline owns the pool for decomposed solves, so
    // attaching one here too would double the budget). Only the Parallel
    // backend borrows pool workers, and `Executor::new` spawns its
    // threads eagerly, so other backends get none.
    if let Some(exec) = &hooks.executor {
        s = s.executor(exec.clone());
    } else if req.kind == SolveKind::Exact && matches!(req.backend, BackendSpec::Parallel { .. }) {
        if let Some(t) = req.threads {
            s = s.executor(Executor::new(t));
        }
    }
    if let Some(d) = hooks.deadline {
        s = s.deadline(d);
    }
    if let Some(token) = &hooks.cancel {
        s = s.cancel_token(token.clone());
    }
    if let Some(n) = hooks.panic_on_taxa {
        s = s.panic_on_taxa(n);
    }
    s
}

/// Builds the pipeline a plan prescribes around `solver`, with an
/// optional shared pool in place of the plan's own `Executor::new`.
fn pipeline_with_solver(
    plan: &SolvePlan,
    solver: MutSolver,
    shared: Option<&Executor>,
) -> CompactPipeline {
    let req = &plan.request;
    let mut p = CompactPipeline::new()
        .threshold(req.threshold.max(2))
        .linkage(req.linkage)
        .max_depth(req.max_depth)
        .solver(solver);
    if let Some(exec) = shared {
        p = p.executor(exec.clone());
    } else if let Some(threads) = req.threads {
        p = p.executor(Executor::new(threads));
    }
    if plan.cache_enabled {
        p = p.cache(shared_cache());
    }
    p
}

/// Executes a resolved plan and reports the outcome.
///
/// # Errors
///
/// [`MutError::Input`] when a PHYLIP source cannot be read or parsed,
/// plus anything the underlying solver or pipeline returns.
pub fn solve_plan(plan: &SolvePlan) -> Result<SolveReport, MutError> {
    solve_plan_hooked(plan, &SolveHooks::default())
}

/// [`solve_plan`] with [`SolveHooks`] threaded into the solver — the
/// serving daemon's entry point. The hooks' executor stands in for every
/// per-solve `Executor::new`, which is then never built, so all requests
/// share one pool. The hooks' deadline and cancel token leave the cache
/// on, as [`MutSolver::cache_sig_interruptible`] explains.
///
/// # Errors
///
/// See [`solve_plan`].
pub fn solve_plan_hooked(plan: &SolvePlan, hooks: &SolveHooks) -> Result<SolveReport, MutError> {
    let req = &plan.request;
    let m = load_matrix(&req.source)?;
    match req.kind {
        SolveKind::Exact => {
            let solver = hooked_solver(plan, hooks);
            // Whole-solve memoization; the signature gate keeps
            // constrained solves live.
            let cache = plan.cache_enabled.then(shared_cache);
            let started = Instant::now();
            let memo = memoized(
                cache.as_deref().zip(solver.cache_sig_interruptible()),
                &m,
                true,
                |seed| match seed {
                    Some(tree) => solver.seed_incumbent(tree).solve(&m),
                    None => solver.solve(&m),
                },
                |sol| sol.is_complete().then_some((&sol.tree, sol.weight)),
            )?;
            let (sol, stage) = match memo.answer {
                Answer::Hit { tree, weight } => (
                    MutSolution {
                        trees: vec![tree.clone()],
                        tree,
                        weight,
                        stats: crate::SearchStats::default(),
                        stop: crate::StopReason::Completed,
                        sim: None,
                    },
                    "cached",
                ),
                Answer::Solved(sol) => (sol, "exact"),
            };
            let mut report = SolveReport::from(sol);
            report.stats.merge(&memo.stats);
            report.timings = vec![StageTiming {
                stage: stage.to_string(),
                seconds: started.elapsed().as_secs_f64(),
                provenance: memo.provenance,
            }];
            Ok(report)
        }
        SolveKind::Decompose => {
            let solver = hooked_solver(plan, hooks);
            let pipeline = pipeline_with_solver(plan, solver, hooks.executor.as_ref());
            Ok(SolveReport::from(pipeline.solve(&m)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_distmat::gen;
    use mutree_engine::{EnvOverrides, SolveRequest, StageProvenance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn matrix(n: usize, seed: u64) -> DistanceMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::perturbed_ultrametric(n, 60.0, 0.05, &mut rng)
    }

    #[test]
    fn exact_request_matches_direct_solver() {
        let m = matrix(10, 5);
        let report = solve_plan(&SolvePlan::resolve(
            SolveRequest::exact(m.clone()),
            &EnvOverrides::none(),
        ))
        .unwrap();
        let direct = MutSolver::new().solve(&m).unwrap();
        assert_eq!(report.weight.to_bits(), direct.weight.to_bits());
        assert!(report.is_complete());
        assert_eq!(report.timings.len(), 1);
        assert_eq!(report.timings[0].stage, "exact");
        assert!(report.groups.is_none());
    }

    #[test]
    fn decompose_request_matches_direct_pipeline() {
        let m = matrix(16, 7);
        let report = solve_plan(&SolvePlan::resolve(
            SolveRequest::decompose(m.clone()),
            &EnvOverrides::none(),
        ))
        .unwrap();
        let direct = CompactPipeline::new().solve(&m).unwrap();
        assert_eq!(report.weight.to_bits(), direct.weight.to_bits());
        assert_eq!(report.groups.as_deref(), Some(direct.groups.as_slice()));
        assert_eq!(report.compact_sets, Some(direct.compact_sets));
        assert!(!report.timings.is_empty());
    }

    #[test]
    fn explicit_cache_replays_exact_solves_bit_identically() {
        let m = matrix(9, 11);
        let req = || SolveRequest::exact(m.clone()).cache(true);
        let plan = SolvePlan::resolve(req(), &EnvOverrides::none());
        let cold = solve_plan(&plan).unwrap();
        let warm = solve_plan(&plan).unwrap();
        assert_eq!(warm.weight.to_bits(), cold.weight.to_bits());
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.timings[0].provenance, StageProvenance::Cached);
        assert_eq!(
            mutree_tree::compare::robinson_foulds(&warm.tree, &cold.tree).unwrap(),
            0
        );
    }

    #[test]
    fn only_parallel_exact_plans_get_an_executor() {
        // `Executor::new` spawns its threads at once, and only the
        // Parallel backend borrows them.
        let m = matrix(6, 3);
        let solver = |backend| {
            plan_solver(&SolvePlan::resolve(
                SolveRequest::exact(m.clone()).backend(backend).threads(4),
                &EnvOverrides::none(),
            ))
        };
        assert!(solver(BackendSpec::Sequential).executor_handle().is_none());
        assert!(solver(BackendSpec::SimulatedCluster { slaves: 3 })
            .executor_handle()
            .is_none());
        assert!(solver(BackendSpec::Parallel { workers: 2 })
            .executor_handle()
            .is_some());
    }

    #[test]
    fn request_knobs_reach_the_builders() {
        // The request alone configures the builders: its text form's
        // knob lines reach the solver and the pipeline, and without them
        // both fall back to the built-in defaults.
        let builders = |text: &str| {
            let plan =
                SolvePlan::resolve(SolveRequest::decode(text).unwrap(), &EnvOverrides::none());
            let solver = plan_solver(&plan);
            (solver.clone(), pipeline_with_solver(&plan, solver, None))
        };
        let (solver, pipeline) = builders(
            "mutree-request v1\nkind decompose\nthreads 3\nmaxmin false\nmatrix phylip unread.phy\n",
        );
        assert_eq!(
            solver.cache_sig_interruptible(),
            MutSolver::new().without_maxmin().cache_sig_interruptible()
        );
        assert!(pipeline.executor_handle().is_some());
        let (solver, pipeline) =
            builders("mutree-request v1\nkind decompose\nmatrix phylip unread.phy\n");
        assert_eq!(
            solver.cache_sig_interruptible(),
            MutSolver::new().cache_sig_interruptible()
        );
        assert!(pipeline.executor_handle().is_none());
    }

    #[test]
    fn missing_phylip_file_is_an_input_error() {
        let req = SolveRequest::new(MatrixSource::PhylipPath(
            "/nonexistent/mutree-test.phy".into(),
        ));
        let err = solve_plan(&SolvePlan::resolve(req, &EnvOverrides::none())).unwrap_err();
        assert!(matches!(err, MutError::Input { .. }), "{err}");
    }

    #[test]
    fn hooked_solve_matches_bare_solve_bit_identically() {
        let m = matrix(10, 17);
        let plan = SolvePlan::resolve(SolveRequest::exact(m.clone()), &EnvOverrides::none());
        let bare = solve_plan(&plan).unwrap();
        let hooks = SolveHooks {
            cancel: Some(CancelToken::new()),
            executor: Some(Executor::new(2)),
            deadline: Some(Instant::now() + std::time::Duration::from_secs(600)),
            panic_on_taxa: None,
        };
        let hooked = solve_plan_hooked(&plan, &hooks).unwrap();
        assert_eq!(hooked.weight.to_bits(), bare.weight.to_bits());
        assert!(hooked.is_complete());
    }

    #[test]
    fn hooked_cancel_token_stops_the_solve() {
        let m = matrix(12, 19);
        let plan = SolvePlan::resolve(SolveRequest::exact(m), &EnvOverrides::none());
        let token = CancelToken::new();
        token.cancel();
        let hooks = SolveHooks {
            cancel: Some(token),
            ..SolveHooks::default()
        };
        let report = solve_plan_hooked(&plan, &hooks).unwrap();
        assert_eq!(report.stop, crate::StopReason::Cancelled);
    }

    #[test]
    fn hooked_requests_still_share_the_whole_solve_memo() {
        // A daemon attaches a cancel token to every request; the relaxed
        // signature gate must keep the cache live for them, and a replay
        // must come back `Cached` with the identical optimum.
        let m = matrix(9, 23);
        let plan = SolvePlan::resolve(
            SolveRequest::exact(m.clone()).cache(true),
            &EnvOverrides::none(),
        );
        let hooks = SolveHooks {
            cancel: Some(CancelToken::new()),
            ..SolveHooks::default()
        };
        let cold = solve_plan_hooked(&plan, &hooks).unwrap();
        let warm = solve_plan_hooked(&plan, &hooks).unwrap();
        assert_eq!(warm.weight.to_bits(), cold.weight.to_bits());
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.timings[0].provenance, StageProvenance::Cached);
    }

    #[test]
    fn deadlined_requests_replay_from_the_cache() {
        // A `timeout` becomes a solver deadline; it only stops a search
        // early, so a completed deadlined solve is filed and its replay
        // comes back `Cached` with the identical optimum.
        let m = matrix(9, 29);
        let mut req = SolveRequest::exact(m).cache(true);
        req.timeout = Some(std::time::Duration::from_secs(600));
        let plan = SolvePlan::resolve(req, &EnvOverrides::none());
        let cold = solve_plan(&plan).unwrap();
        let warm = solve_plan(&plan).unwrap();
        assert!(cold.is_complete());
        assert_eq!(cold.stats.cache_misses, 1);
        assert_eq!(warm.weight.to_bits(), cold.weight.to_bits());
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.timings[0].provenance, StageProvenance::Cached);
    }

    #[test]
    fn constrained_requests_are_never_served_from_cache() {
        let m = matrix(9, 13);
        // Same matrix as a cacheable request may have filed, but with a
        // branch budget: the signature gate must force a live solve.
        let mut req = SolveRequest::exact(m.clone()).cache(true);
        req.max_branches = 10;
        let report = solve_plan(&SolvePlan::resolve(req, &EnvOverrides::none())).unwrap();
        assert_eq!(report.stats.cache_hits + report.stats.cache_misses, 0);
    }
}
