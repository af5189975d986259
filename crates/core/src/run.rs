//! The spine's final leg: executing a [`SolveRequest`] / [`SolvePlan`]
//! and folding either solve path's outcome into one [`SolveReport`].
//!
//! ```text
//! SolveRequest ──resolve(env)──▶ SolvePlan ──solve_plan──▶ SolveReport
//! ```
//!
//! [`solve_request`] resolves the live environment
//! ([`EnvOverrides::capture`]) and runs the plan; [`solve_plan`] runs an
//! already-resolved plan, so tests can pin the environment to
//! [`EnvOverrides::none`] and exercise precedence deterministically. The
//! `From` conversions below are the only place the exact solver's
//! [`MutSolution`] and the pipeline's [`PipelineSolution`] are reconciled
//! into the shared report shape.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mutree_clustersim::ClusterSpec;
use mutree_distmat::DistanceMatrix;
use mutree_engine::{
    BackendSpec, CacheOutcome, GroupCache, MatrixSource, SolveKind, SolvePlan, SolveReport,
    SolveRequest, StageProvenance, StageTiming,
};

use crate::pipeline::{CompactPipeline, PipelineSolution};
use crate::solver::{MutSolution, MutSolver, SearchBackend, LEAF_WIDTHS};
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
            leaf_words: None,
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
            leaf_words: None,
        }
    }
}

/// The process-wide cache used by plan execution whenever a plan enables
/// caching. One shared instance keyed by content means repeated
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
/// A [`SolveRequest`] is deliberately env-free and serializable, so it
/// cannot carry process-local live objects: the `mutree serve` daemon's
/// per-request [`CancelToken`] (wired to client disconnect), the
/// admission controller's *absolute* deadline (queue wait must count
/// against a request's budget, so the daemon converts the request's
/// relative `timeout` to an instant at admission), the shared
/// [`Executor`] every connection's solves run on, and the chaos-test
/// fault injection. [`solve_plan_hooked`] threads these into the solver
/// after plan translation; `SolveHooks::default()` makes it equivalent
/// to [`solve_plan`].
#[derive(Debug, Clone, Default)]
pub struct SolveHooks {
    /// Absolute wall-clock deadline. Overrides the request's relative
    /// `timeout` (which [`plan_solver`] measures from solver build time,
    /// not admission time).
    pub deadline: Option<Instant>,
    /// Cancel token observed by the search; sticky and level-triggered.
    pub cancel: Option<CancelToken>,
    /// Shared worker pool for the solve (and the pipeline, for
    /// decomposed requests) instead of a per-solve `Executor::new`.
    pub executor: Option<Executor>,
    /// Fault-injection test hook: panic on subproblems of exactly this
    /// many taxa (see [`MutSolver::panic_on_taxa`]).
    pub panic_on_taxa: Option<usize>,
}

impl SolveHooks {
    fn is_empty(&self) -> bool {
        self.deadline.is_none()
            && self.cancel.is_none()
            && self.executor.is_none()
            && self.panic_on_taxa.is_none()
    }

    fn apply(&self, mut s: MutSolver) -> MutSolver {
        if let Some(d) = self.deadline {
            s = s.deadline(d);
        }
        if let Some(token) = &self.cancel {
            s = s.cancel_token(token.clone());
        }
        if let Some(exec) = &self.executor {
            s = s.executor(exec.clone());
        }
        if let Some(n) = self.panic_on_taxa {
            s = s.panic_on_taxa(n);
        }
        s
    }
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

/// Builds the solver a plan prescribes. Pure plan-to-builder translation:
/// every environment override was already folded in by
/// [`SolvePlan::resolve`], so nothing here reads the environment. Public
/// so front ends that need a builder tweak the plan cannot express (the
/// CLI's fault-injection test hook) can still construct through the
/// spine.
pub fn plan_solver(plan: &SolvePlan) -> MutSolver {
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
        .strategy(req.strategy)
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
    // An unsupported forced width behaves as unset, same as the solver's
    // own treatment of the environment hook.
    if let Some(w) = plan.leaf_words.filter(|w| LEAF_WIDTHS.contains(w)) {
        s = s.leaf_words(w);
    }
    if let Some(shards) = plan.frontier_shards {
        s = s.frontier_shards(shards);
    }
    if let Some(budget) = req.memory {
        s = s.memory_budget(budget);
    }
    if let Some(cp) = &req.checkpoint {
        s = s.checkpoint_to(&cp.path).checkpoint_interval(cp.interval);
    }
    if let Some(path) = &req.resume {
        s = s.resume_from(path);
    }
    if let Some(level) = req.trace {
        s = s.trace(crate::LoggingObserver::new(level));
    }
    // For an exact solve, `threads` means "run the search itself on a
    // shared pool" (the pipeline owns the pool for decomposed solves, so
    // attaching one here too would double the budget).
    if req.kind == SolveKind::Exact {
        if let Some(t) = plan.threads {
            s = s.executor(Executor::new(t));
        }
    }
    s
}

/// Builds the pipeline a plan prescribes around [`plan_solver`]'s solver.
/// See [`plan_solver`] for why this is public.
pub fn plan_pipeline(plan: &SolvePlan) -> CompactPipeline {
    pipeline_with_solver(plan, plan_solver(plan), None)
}

/// [`plan_pipeline`] with an already-tweaked solver and an optional
/// shared pool in place of the plan's own `Executor::new`.
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
    if let Some(policy) = &req.retry {
        p = p.retry(policy.clone());
    }
    if let Some(exec) = shared {
        p = p.executor(exec.clone());
    } else if let Some(threads) = plan.threads {
        p = p.executor(Executor::new(threads));
    }
    if plan.cache_enabled {
        if plan.cache_explicit {
            // Explicitly requested: attach the shared cache, which also
            // arms whole-run memoization.
            p = p.cache(shared_cache());
        }
        // Environment-enabled: `CompactPipeline::new()` already picked up
        // the ambient cache (stage-level only).
    } else if plan.cache_explicit {
        // Explicitly disabled: shed even an ambient environment cache.
        p = p.no_cache();
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
/// serving daemon's entry point. Two deliberate differences from the
/// bare path:
///
/// * The whole-solve memo gate relaxes from
///   [`MutSolver::cache_sig`] to
///   [`MutSolver::cache_sig_interruptible`]: a daemon wires a cancel
///   token into *every* request, and strict gating would silently turn
///   the shared cache off for all of them. Sound because entries are
///   only filed from completed solves and a hit returns the stored
///   proven optimum (see `cache_sig_interruptible`'s contract).
/// * The hooks' executor replaces any per-solve `Executor::new`, so all
///   requests share one pool.
///
/// # Errors
///
/// See [`solve_plan`].
pub fn solve_plan_hooked(plan: &SolvePlan, hooks: &SolveHooks) -> Result<SolveReport, MutError> {
    let req = &plan.request;
    let m = load_matrix(&req.source)?;
    match req.kind {
        SolveKind::Exact => {
            let solver = hooks.apply(plan_solver(plan));
            let leaf_words = solver.dispatch_leaf_words(m.len());
            // Whole-solve memoization for explicitly cache-enabled exact
            // requests; the signature gate keeps constrained solves live.
            let sig = if hooks.is_empty() {
                solver.cache_sig()
            } else {
                solver.cache_sig_interruptible()
            };
            let cache = (plan.cache_enabled && plan.cache_explicit)
                .then(shared_cache)
                .zip(sig);
            let started = Instant::now();
            let mut pending = None;
            let mut solver = solver;
            let mut stats_extra = crate::SearchStats::default();
            let mut provenance = StageProvenance::Solved;
            if let Some((cache, sig)) = &cache {
                let probe = cache.probe(&m, *sig);
                stats_extra.cache_poisoned += probe.poisoned;
                match probe.outcome {
                    CacheOutcome::Hit { tree, weight } => {
                        let mut stats = stats_extra;
                        stats.cache_hits = 1;
                        return Ok(SolveReport {
                            trees: vec![tree.clone()],
                            tree,
                            weight,
                            stats,
                            stop: crate::StopReason::Completed,
                            degraded: Vec::new(),
                            timings: vec![StageTiming {
                                stage: "cached".to_string(),
                                seconds: started.elapsed().as_secs_f64(),
                                attempts: 1,
                                provenance: StageProvenance::Cached,
                            }],
                            groups: None,
                            compact_sets: None,
                            sim: None,
                            leaf_words,
                        });
                    }
                    CacheOutcome::Seed { tree, query, .. } => {
                        stats_extra.cache_misses += 1;
                        stats_extra.cache_warm_seeds += 1;
                        provenance = StageProvenance::WarmSeeded;
                        solver = solver.seed_incumbent(tree);
                        pending = Some(query);
                    }
                    CacheOutcome::Miss(query) => {
                        stats_extra.cache_misses += 1;
                        pending = Some(query);
                    }
                }
            }
            let sol = solver.solve(&m)?;
            if let (Some((cache, _)), Some(query)) = (&cache, pending) {
                if sol.stop.is_complete() {
                    cache.insert(query, &sol.tree, sol.weight);
                }
            }
            let mut report = SolveReport::from(sol);
            report.stats.cache_hits += stats_extra.cache_hits;
            report.stats.cache_misses += stats_extra.cache_misses;
            report.stats.cache_warm_seeds += stats_extra.cache_warm_seeds;
            report.stats.cache_poisoned += stats_extra.cache_poisoned;
            report.timings = vec![StageTiming {
                stage: "exact".to_string(),
                seconds: started.elapsed().as_secs_f64(),
                attempts: 1,
                provenance,
            }];
            report.leaf_words = leaf_words;
            Ok(report)
        }
        SolveKind::Decompose => {
            let solver = hooks.apply(plan_solver(plan));
            let pipeline = pipeline_with_solver(plan, solver, hooks.executor.as_ref());
            Ok(SolveReport::from(pipeline.solve(&m)?))
        }
    }
}

/// Resolves `request` against the live process environment and executes
/// it: the whole spine in one call. Equivalent to
/// `solve_plan(&SolvePlan::resolve_from_env(request))`.
///
/// # Errors
///
/// See [`solve_plan`].
pub fn solve_request(request: SolveRequest) -> Result<SolveReport, MutError> {
    solve_plan(&SolvePlan::resolve_from_env(request))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_distmat::gen;
    use mutree_engine::EnvOverrides;
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
        assert!(report.leaf_words.is_some());
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
        let direct = CompactPipeline::new().no_cache().solve(&m).unwrap();
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
