//! The compact-set decomposition pipeline — the PaCT 2005 contribution.
//!
//! Exact minimum-ultrametric-tree search is exponential in the number of
//! species, so the paper splits the distance matrix along its compact
//! sets: groups of species provably closer to each other than to anything
//! outside. The pipeline (paper §3):
//!
//! 1. find all compact sets (minimum spanning tree + merge test) and cut
//!    the laminar family at a size threshold, yielding a partition into
//!    small groups;
//! 2. build a *condensed* matrix over the groups under a linkage rule —
//!    the paper studies **maximum** linkage, which by Lemma 2 guarantees
//!    the merged tree is a feasible ultrametric tree; *minimum* and
//!    *average* are implemented for ablation;
//! 3. solve every group matrix and the condensed matrix exactly with the
//!    (parallel) branch-and-bound solver;
//! 4. graft each group subtree onto its group's leaf in the condensed
//!    tree and refit heights against the original matrix.
//!
//! The result is near-optimal (a few percent in the paper's experiments,
//! and measured in `EXPERIMENTS.md` here) at a tiny fraction of the
//! undecomposed search time, and the compact sets guarantee that species
//! grouped together really do share a lowest common ancestor below any
//! outside species, so the phylogenetic relations are preserved.
//!
//! # Execution as a fork-join
//!
//! Steps 3–4 are one fork-join: one job per ≥3-member group solve and one
//! job for the condensed meta-matrix (which may recurse through the
//! pipeline — on the *same* executor, never a nested pool) fan out
//! together, and the merge/refit runs on the calling thread once all of
//! them are back. With an [`Executor`] attached
//! ([`CompactPipeline::executor`]) the independent solves run
//! concurrently on its shared worker pool, and Parallel-backend solvers
//! borrow the same workers ([`solve_parallel`](mutree_bnb::solve_parallel))
//! instead of spawning threads per solve, so one `--threads` budget covers
//! both levels of parallelism. Without an executor the same jobs run in
//! order on the calling thread. Either way results are aggregated in job
//! order — never completion order — so the solution, its degradation
//! records and its merged statistics are deterministic.

use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use mutree_bnb::StopReason;
use mutree_distmat::DistanceMatrix;
use mutree_engine::{DegradeReason, DegradedGroup, GroupCache, StageProvenance, StageTiming};
use mutree_graph::CompactSets;
use mutree_tree::{cluster, Linkage, UltrametricTree};

use crate::exec::{fan_out, Executor, FanJob};
use crate::memo::{memoized, Answer};
use crate::{MutError, MutSolver, SearchStats};

/// A solved pipeline instance.
#[derive(Debug, Clone)]
pub struct PipelineSolution {
    /// The merged, height-refit ultrametric tree over all species.
    pub tree: UltrametricTree,
    /// Its weight (compare against [`MutSolution::weight`](crate::MutSolution::weight)
    /// for the cost penalty of decomposition).
    pub weight: f64,
    /// The species groups the compact sets induced (singletons included).
    pub groups: Vec<Vec<usize>>,
    /// Merged search statistics over the condensed and group solves.
    pub stats: SearchStats,
    /// Number of proper compact sets the matrix had.
    pub compact_sets: usize,
    /// The most severe stop reason any sub-search reported
    /// ([`StopReason::Completed`] when every search exhausted its space).
    pub stop: StopReason,
    /// Stages that fell back from a proven-optimal exact solve — truncated
    /// incumbents and agglomerative stand-ins — in pipeline order. Empty
    /// on a fully exact run.
    pub degraded: Vec<DegradedGroup>,
    /// Per-stage wall-clock times, in pipeline order (recursive condensed
    /// solves contribute their stages inline, path-qualified).
    pub timings: Vec<StageTiming>,
}

impl PipelineSolution {
    /// Whether every sub-solve ran to proven optimality with no fallback
    /// (the weight is then the pipeline's true optimum for this
    /// decomposition).
    pub fn is_complete(&self) -> bool {
        self.stop.is_complete() && self.degraded.is_empty()
    }

    /// The `count` slowest stages, most expensive first.
    pub fn slowest_stages(&self, count: usize) -> Vec<&StageTiming> {
        let mut by_time: Vec<&StageTiming> = self.timings.iter().collect();
        by_time.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        by_time.truncate(count);
        by_time
    }
}

/// Configuration for the compact-set decomposition pipeline.
///
/// ```
/// use mutree_distmat::gen;
/// use mutree_core::CompactPipeline;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let m = gen::perturbed_ultrametric(14, 60.0, 0.05, &mut rng);
/// let sol = CompactPipeline::new().solve(&m).unwrap();
/// assert!(sol.tree.is_feasible_for(&m, 1e-9));
/// ```
#[derive(Debug, Clone)]
pub struct CompactPipeline {
    threshold: usize,
    linkage: Linkage,
    solver: MutSolver,
    max_depth: usize,
    executor: Option<Executor>,
    cache: Option<Arc<GroupCache>>,
}

impl Default for CompactPipeline {
    fn default() -> Self {
        CompactPipeline::new()
    }
}

impl CompactPipeline {
    /// A pipeline cutting compact sets at 12 species, condensing under
    /// maximum linkage (the paper's studied variant) and solving pieces
    /// with a default sequential [`MutSolver`]. The stage solves run
    /// inline; no executor and no cache is attached.
    pub fn new() -> Self {
        CompactPipeline {
            threshold: 12,
            linkage: Linkage::Maximum,
            solver: MutSolver::new(),
            max_depth: 8,
            executor: None,
            cache: None,
        }
    }

    /// Sets the largest group size solved exactly.
    ///
    /// # Panics
    ///
    /// Panics when `threshold < 2`.
    pub fn threshold(mut self, threshold: usize) -> Self {
        assert!(threshold >= 2, "threshold must be at least 2");
        self.threshold = threshold;
        self
    }

    /// Sets the linkage used for the condensed matrix. Only
    /// [`Linkage::Maximum`] guarantees a feasible merged tree; the others
    /// are for the ablation experiments.
    pub fn linkage(mut self, linkage: Linkage) -> Self {
        self.linkage = linkage;
        self
    }

    /// Sets the solver used for group and condensed matrices (pick a
    /// parallel backend here to mirror the paper's setup).
    pub fn solver(mut self, solver: MutSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Fans the stage solves out on `exec`: group solves and the meta
    /// solve run concurrently on its worker pool, and any Parallel-backend
    /// solver without its own executor borrows the same workers, so
    /// group-level and intra-solve parallelism share one thread budget.
    pub fn executor(mut self, exec: Executor) -> Self {
        self.executor = Some(exec);
        self
    }

    /// The attached executor, if any.
    pub fn executor_handle(&self) -> Option<&Executor> {
        self.executor.as_ref()
    }

    /// Caps the recursive condensed-solve depth (the meta matrix recurses
    /// through the pipeline while it is larger than the threshold, up to
    /// this many levels).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Attaches a content-addressed [`GroupCache`]: every cacheable group
    /// and meta solve probes it before searching (an exact hit returns
    /// the memoized optimum, a near-hit warm-seeds the search), and whole
    /// pipeline runs are memoized too. Both lookups are gated by
    /// [`MutSolver::cache_sig_interruptible`]: a deadline or cancel token
    /// keeps the cache on, a branch or memory budget turns it off.
    pub fn cache(mut self, cache: Arc<GroupCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The solver clone handed to each stage job: when the pipeline has
    /// an executor and the solver does not, the solver borrows the
    /// pipeline's pool (a no-op for non-Parallel backends).
    fn task_solver(&self) -> MutSolver {
        match &self.executor {
            Some(exec) if self.solver.executor_handle().is_none() => {
                self.solver.clone().executor(exec.clone())
            }
            _ => self.solver.clone(),
        }
    }

    /// Runs the pipeline.
    ///
    /// # Errors
    ///
    /// [`MutError::NotDecomposable`] when even recursive decomposition
    /// cannot bring every exact solve within the engine's taxa ceiling
    /// ([`MAX_EXACT_TAXA`](crate::MAX_EXACT_TAXA), 256), and any error
    /// from the underlying solver.
    pub fn solve(&self, m: &DistanceMatrix) -> Result<PipelineSolution, MutError> {
        let cache = self.cache.as_deref().zip(
            self.solver
                .cache_sig_interruptible()
                .map(|sig| self.pipeline_sig(sig)),
        );
        let started = Instant::now();
        // A near hit cannot seed a decomposed run (the stage lookups seed
        // per group), so it counts as a plain miss.
        let memo = memoized(
            cache,
            m,
            false,
            |_| self.solve_at_depth(m, 0, ""),
            |sol| sol.is_complete().then_some((&sol.tree, sol.weight)),
        )?;
        let mut sol = match memo.answer {
            Answer::Solved(sol) => sol,
            Answer::Hit { tree, weight } => {
                let cs = CompactSets::find(m);
                PipelineSolution {
                    tree,
                    weight,
                    groups: cs.partition(self.threshold),
                    stats: SearchStats::default(),
                    compact_sets: cs.len(),
                    stop: StopReason::Completed,
                    degraded: Vec::new(),
                    timings: vec![StageTiming {
                        stage: "cached".to_string(),
                        seconds: started.elapsed().as_secs_f64(),
                        provenance: StageProvenance::Cached,
                    }],
                }
            }
        };
        sol.stats.merge(&memo.stats);
        Ok(sol)
    }

    /// The whole-run cache signature: the solver's answer-affecting
    /// configuration extended with the pipeline knobs that shape the
    /// decomposition, and a marker separating pipeline entries from plain
    /// solver entries over the same matrix.
    fn pipeline_sig(&self, solver_sig: u64) -> u64 {
        use mutree_bnb::hash::{fnv1a, fnv1a_continue};
        let mut h = fnv1a(b"mutree-pipeline-sig-v1");
        h = fnv1a_continue(h, &solver_sig.to_le_bytes());
        h = fnv1a_continue(h, &(self.threshold as u64).to_le_bytes());
        h = fnv1a_continue(
            h,
            &[match self.linkage {
                Linkage::Maximum => 0u8,
                Linkage::Minimum => 1,
                Linkage::Average => 2,
            }],
        );
        fnv1a_continue(h, &(self.max_depth as u64).to_le_bytes())
    }

    fn solve_at_depth(
        &self,
        m: &DistanceMatrix,
        depth: usize,
        prefix: &str,
    ) -> Result<PipelineSolution, MutError> {
        let n = m.len();
        let cs = CompactSets::find(m);
        let groups = cs.partition(self.threshold);

        // When decomposition does nothing (all singletons or one group),
        // fall back to the plain exact solver.
        let effective = groups.iter().filter(|g| g.len() >= 2).count();
        if effective == 0 || groups.len() == 1 {
            let limit = self.solver.max_taxa();
            if n > limit {
                return Err(MutError::NotDecomposable {
                    groups: groups.len(),
                    max: limit,
                });
            }
            let stage = format!("{prefix}whole");
            let started = Instant::now();
            let st = solve_stage(&self.task_solver(), m, None, &stage, self.cache.as_deref());
            let timings = vec![StageTiming {
                stage,
                seconds: started.elapsed().as_secs_f64(),
                provenance: st.provenance,
            }];
            let mut tree = st.tree;
            let weight = tree.fit_heights(m);
            return Ok(PipelineSolution {
                tree,
                weight,
                groups,
                stats: st.stats,
                compact_sets: cs.len(),
                stop: st.stop,
                degraded: st.degraded,
                timings,
            });
        }

        // --- Fork: one job per nontrivial group solve, then the meta job.
        // Degradation stays per stage (one stuck or broken group must not
        // take the whole tree down) because `solve_stage` absorbs every
        // solver failure into a fallback tree.
        let g = groups.len();
        let condensed = condense(m, &groups, self.linkage)?;
        // Meta heights are refit against the *maximum*-linkage condensed
        // matrix before grafting: by Lemma 2, every attachment point then
        // sits above its subtree (Min(C, !C) > Max(C)), so grafting cannot
        // fail even when the topology came from a different linkage.
        let max_condensed = if matches!(self.linkage, Linkage::Maximum) {
            condensed.clone()
        } else {
            condense(m, &groups, Linkage::Maximum)?
        };

        let task_solver = self.task_solver();
        let mut jobs: Vec<FanJob<StageData>> = Vec::new();
        // Per group job, in job order: its group index and stage label.
        let mut solved: Vec<(usize, String)> = Vec::new();
        // Subtrees by group index; the solved ones arrive after the join.
        let mut subtrees: Vec<Option<UltrametricTree>> = Vec::with_capacity(g);
        for (gi, group) in groups.iter().enumerate() {
            subtrees.push(match group.len() {
                1 => Some(UltrametricTree::leaf(group[0])),
                2 => {
                    let h = m.get(group[0], group[1]) / 2.0;
                    Some(UltrametricTree::cherry(group[0], group[1], h))
                }
                _ => {
                    let sub = m.submatrix(group)?;
                    let stage = format!("{prefix}group {gi}");
                    let solver = task_solver.clone();
                    let task_group = group.clone();
                    let task_stage = stage.clone();
                    let task_cache = self.cache.clone();
                    jobs.push(Box::new(move || {
                        let mut st = solve_stage(
                            &solver,
                            &sub,
                            Some(gi),
                            &task_stage,
                            task_cache.as_deref(),
                        );
                        // Solver taxa are submatrix-relative; map back.
                        st.tree.map_taxa(|local| task_group[local]);
                        StageData::Group(st)
                    }));
                    solved.push((gi, stage));
                    None
                }
            });
        }

        // The condensed matrix is itself a (strictly smaller) instance:
        // solve it exactly when it fits under the threshold, recurse
        // through the pipeline — on the same executor — otherwise.
        // Recursion terminates because the group count strictly decreases
        // whenever any group has ≥ 2 members, and the no-structure case
        // errors out above.
        let meta_stage = format!("{prefix}meta");
        let recurse = g > self.solver.max_taxa() || (g > self.threshold && depth < self.max_depth);
        if recurse {
            let pipeline = self.clone();
            let child_prefix = format!("{prefix}meta[{}]/", depth + 1);
            jobs.push(Box::new(move || {
                let rec = pipeline.solve_at_depth(&condensed, depth + 1, &child_prefix);
                StageData::Meta(rec.map(|rec| {
                    MetaOut {
                        tree: rec.tree,
                        stats: rec.stats,
                        stop: rec.stop,
                        // The recursive run's group indices refer to *its*
                        // groups, not ours; the stage path says which.
                        degraded: rec
                            .degraded
                            .into_iter()
                            .map(|mut d| {
                                d.group = None;
                                d
                            })
                            .collect(),
                        timings: rec.timings,
                        provenance: StageProvenance::Solved,
                    }
                }))
            }));
        } else {
            let solver = task_solver.clone();
            let task_stage = meta_stage.clone();
            let task_cache = self.cache.clone();
            jobs.push(Box::new(move || {
                let st = solve_stage(
                    &solver,
                    &condensed,
                    None,
                    &task_stage,
                    task_cache.as_deref(),
                );
                StageData::Meta(Ok(MetaOut {
                    tree: st.tree,
                    stats: st.stats,
                    stop: st.stop,
                    degraded: st.degraded,
                    timings: Vec::new(),
                    provenance: st.provenance,
                }))
            }));
        }

        let mut results = fan_out(self.executor.as_ref(), jobs);

        // --- Join, in job order (never completion order): stats, stop
        // severity, degradations and timings all come out identical under
        // any scheduling, which is the pipeline's determinism rule.
        let (meta, meta_elapsed) = results.pop().expect("the meta job is last");
        let mut stats = SearchStats::default();
        let mut stop = StopReason::Completed;
        let mut degraded: Vec<DegradedGroup> = Vec::new();
        let mut timings: Vec<StageTiming> = Vec::with_capacity(results.len() + 2);
        for ((result, elapsed), (gi, stage)) in results.into_iter().zip(solved) {
            let mut timing = StageTiming {
                stage,
                seconds: elapsed.as_secs_f64(),
                provenance: StageProvenance::Solved,
            };
            subtrees[gi] = Some(match result {
                Some(StageData::Group(st)) => {
                    timing.provenance = st.provenance;
                    stats.merge(&st.stats);
                    stop = stop.worst(st.stop);
                    degraded.extend(st.degraded);
                    st.tree
                }
                _ => {
                    // The job itself died (solver panics are already
                    // absorbed inside `solve_stage`, so this is the outer
                    // safety net): stand in the agglomerative tree.
                    stop = stop.worst(StopReason::WorkerPanicked);
                    degraded.push(DegradedGroup {
                        group: Some(gi),
                        stage: timing.stage.clone(),
                        reason: DegradeReason::Panicked,
                    });
                    let mut t = cluster(&m.submatrix(&groups[gi])?, Linkage::Maximum);
                    t.map_taxa(|local| groups[gi][local]);
                    t
                }
            });
            timings.push(timing);
        }
        let meta = match meta {
            Some(StageData::Meta(Ok(out))) => out,
            Some(StageData::Meta(Err(e))) => return Err(e),
            _ => {
                return Err(MutError::Interrupted {
                    reason: StopReason::WorkerPanicked,
                })
            }
        };
        timings.push(StageTiming {
            stage: meta_stage,
            seconds: meta_elapsed.as_secs_f64(),
            provenance: meta.provenance,
        });
        stats.merge(&meta.stats);
        stop = stop.worst(meta.stop);
        degraded.extend(meta.degraded);
        timings.extend(meta.timings);

        // --- Merge: graft each group subtree onto its meta leaf and refit
        // against the original matrix (minimal feasible heights for the
        // merged topology — never worse, often better).
        let started = Instant::now();
        let mut tree = meta.tree;
        tree.fit_heights(&max_condensed);
        // Move meta taxa out of the way of original ids, then graft.
        tree.map_taxa(|group| n + group);
        for (gi, subtree) in subtrees.into_iter().enumerate() {
            tree.graft(n + gi, subtree.expect("every group has a subtree"))?;
        }
        let weight = tree.fit_heights(m);
        timings.push(StageTiming {
            stage: format!("{prefix}merge"),
            seconds: started.elapsed().as_secs_f64(),
            provenance: StageProvenance::Solved,
        });

        Ok(PipelineSolution {
            tree,
            weight,
            groups,
            stats,
            compact_sets: cs.len(),
            stop,
            degraded,
            timings,
        })
    }
}

/// One solved stage: a feasible tree plus its accounting.
struct StageTree {
    tree: UltrametricTree,
    stats: SearchStats,
    stop: StopReason,
    degraded: Vec<DegradedGroup>,
    provenance: StageProvenance,
}

/// The meta stage's payload: an exact solve's [`StageTree`] fields, or a
/// recursive pipeline run flattened into them (plus its inner timings).
struct MetaOut {
    tree: UltrametricTree,
    stats: SearchStats,
    stop: StopReason,
    degraded: Vec<DegradedGroup>,
    timings: Vec<StageTiming>,
    provenance: StageProvenance,
}

/// What one fan-out job returns; the variant is fixed per stage kind.
enum StageData {
    Group(StageTree),
    Meta(Result<MetaOut, MutError>),
}

/// Produces a feasible ultrametric tree for one pipeline stage, degrading
/// instead of failing:
///
/// 1. exact solve, when nothing has gone wrong;
/// 2. the exact search's best incumbent, when it stopped early (budget,
///    deadline, cancellation, worker panic) — an incumbent is always a
///    feasible tree for its submatrix;
/// 3. the max-linkage agglomerative tree (UPGMM), when the deadline or
///    cancel already fired before the solve, the solver errored, or it
///    panicked — panics are contained with `catch_unwind` so one bad
///    stage cannot poison the rest of the pipeline.
///
/// Every non-exact outcome is recorded in the returned `degraded` set
/// (with `group` as the top-level group index, `None` for
/// meta/whole-matrix stages, and `stage` as the depth-qualified path) and
/// folded into the returned `stop` reason.
///
/// Each stage is solved once. Every solve is deterministic, so a stage
/// that panicked or errored would fail the same way again: it degrades
/// straight to step 3.
///
/// With a [`GroupCache`] and a cacheable solver
/// ([`MutSolver::cache_sig_interruptible`] returns `Some`, as it does
/// under a deadline or cancel token), the stage probes the cache first: an exact
/// hit skips the solve entirely (provenance `Cached`), a near-hit seeds
/// the search with the cached tree as an advisory incumbent (provenance
/// `WarmSeeded`), and any solve that then completes to proven optimality
/// is inserted back. Degraded or interrupted trees are never cached.
fn solve_stage(
    solver: &MutSolver,
    sub: &DistanceMatrix,
    group: Option<usize>,
    stage: &str,
    cache: Option<&GroupCache>,
) -> StageTree {
    let memo = memoized(
        cache.zip(solver.cache_sig_interruptible()),
        sub,
        true,
        |seed| {
            Ok::<_, Infallible>(match seed {
                Some(tree) => {
                    let seeded = solver.clone().seed_incumbent(tree);
                    attempt_stage(&seeded, sub, group, stage)
                }
                None => attempt_stage(solver, sub, group, stage),
            })
        },
        // The tree is still submatrix-local here, matching the probe's
        // indexing.
        |(st, weight)| {
            weight
                .filter(|_| st.degraded.is_empty())
                .map(|w| (&st.tree, w))
        },
    )
    .unwrap_or_else(|never| match never {});
    match memo.answer {
        Answer::Hit { tree, .. } => StageTree {
            tree,
            stats: memo.stats,
            stop: StopReason::Completed,
            degraded: Vec::new(),
            provenance: StageProvenance::Cached,
        },
        Answer::Solved((mut st, _)) => {
            st.stats.merge(&memo.stats);
            st.provenance = memo.provenance;
            st
        }
    }
}

/// [`solve_stage`] without the cache: one contained solve, degraded on
/// any failure. Returns the stage tree plus its proven-optimal weight
/// (`None` unless the solve completed).
fn attempt_stage(
    solver: &MutSolver,
    sub: &DistanceMatrix,
    group: Option<usize>,
    stage: &str,
) -> (StageTree, Option<f64>) {
    let degraded = |reason| {
        vec![DegradedGroup {
            group,
            stage: stage.to_string(),
            reason,
        }]
    };
    let reason = match solver.stop_requested() {
        Some(reason) => DegradeReason::Stopped(reason),
        None => match catch_unwind(AssertUnwindSafe(|| solver.solve(sub))) {
            Ok(Ok(sol)) => {
                let complete = sol.stop.is_complete();
                let st = StageTree {
                    tree: sol.tree,
                    stats: sol.stats,
                    stop: sol.stop,
                    degraded: if complete {
                        Vec::new()
                    } else {
                        degraded(DegradeReason::Stopped(sol.stop))
                    },
                    provenance: StageProvenance::Solved,
                };
                return (st, complete.then_some(sol.weight));
            }
            // Stopped before any incumbent existed (UPGMM disabled):
            // same deal as an early stop, minus a usable incumbent.
            Ok(Err(MutError::Interrupted { reason })) => DegradeReason::Stopped(reason),
            Ok(Err(e)) => DegradeReason::Error(e.to_string()),
            Err(_) => DegradeReason::Panicked,
        },
    };
    let stop = match reason {
        DegradeReason::Stopped(reason) => reason,
        DegradeReason::Panicked => StopReason::WorkerPanicked,
        DegradeReason::Error(_) => StopReason::Completed,
    };
    let st = StageTree {
        tree: cluster(sub, Linkage::Maximum),
        stats: SearchStats::default(),
        stop,
        degraded: degraded(reason),
        provenance: StageProvenance::Solved,
    };
    (st, None)
}

/// Builds the condensed matrix: entry `(a, b)` is the maximum / minimum /
/// size-weighted average distance between members of group `a` and group
/// `b` (the paper's three small-matrix types, §3.1).
fn condense(
    m: &DistanceMatrix,
    groups: &[Vec<usize>],
    linkage: Linkage,
) -> Result<DistanceMatrix, MutError> {
    let g = groups.len();
    let mut out = DistanceMatrix::zeros(g)?;
    for a in 1..g {
        for b in 0..a {
            let mut acc = match linkage {
                Linkage::Maximum => 0.0f64,
                Linkage::Minimum => f64::INFINITY,
                Linkage::Average => 0.0f64,
            };
            for &x in &groups[a] {
                for &y in &groups[b] {
                    let d = m.get(x, y);
                    acc = match linkage {
                        Linkage::Maximum => acc.max(d),
                        Linkage::Minimum => acc.min(d),
                        Linkage::Average => acc + d,
                    };
                }
            }
            if matches!(linkage, Linkage::Average) {
                acc /= (groups[a].len() * groups[b].len()) as f64;
            }
            out.set(a, b, acc);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_distmat::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The 6-taxon compact-structured instance from the graph crate tests.
    fn structured6() -> DistanceMatrix {
        DistanceMatrix::from_rows(&[
            vec![0.0, 3.0, 1.0, 7.0, 4.5, 6.5],
            vec![3.0, 0.0, 3.5, 7.2, 4.2, 6.8],
            vec![1.0, 3.5, 0.0, 7.5, 4.0, 6.9],
            vec![7.0, 7.2, 7.5, 0.0, 6.0, 2.0],
            vec![4.5, 4.2, 4.0, 6.0, 0.0, 5.0],
            vec![6.5, 6.8, 6.9, 2.0, 5.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn condense_maximum_matches_paper_rule() {
        let m = structured6();
        let groups = vec![vec![0, 1, 2], vec![3, 5], vec![4]];
        let c = condense(&m, &groups, Linkage::Maximum).unwrap();
        assert_eq!(c.get(0, 1), 7.5); // max over {0,1,2}×{3,5}
        assert_eq!(c.get(0, 2), 4.5); // max over {0,1,2}×{4}
        assert_eq!(c.get(1, 2), 6.0);
        let cmin = condense(&m, &groups, Linkage::Minimum).unwrap();
        assert_eq!(cmin.get(0, 1), 6.5);
        let cavg = condense(&m, &groups, Linkage::Average).unwrap();
        assert!((cavg.get(0, 2) - (4.5 + 4.2 + 4.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pipeline_tree_is_feasible_and_near_exact() {
        let m = structured6();
        let exact = MutSolver::new().solve(&m).unwrap();
        let pipe = CompactPipeline::new().threshold(4).solve(&m).unwrap();
        assert!(pipe.tree.is_feasible_for(&m, 1e-9));
        assert!(pipe.weight >= exact.weight - 1e-9);
        // On this strongly structured instance decomposition is lossless
        // or nearly so.
        assert!(
            pipe.weight <= exact.weight * 1.10,
            "pipeline {} vs exact {}",
            pipe.weight,
            exact.weight
        );
        assert_eq!(pipe.compact_sets, 4);
        assert!(pipe.is_complete());
    }

    #[test]
    fn pipeline_groups_partition_taxa() {
        let mut rng = StdRng::seed_from_u64(21);
        let m = gen::perturbed_ultrametric(15, 60.0, 0.08, &mut rng);
        let pipe = CompactPipeline::new().threshold(6).solve(&m).unwrap();
        let mut all: Vec<usize> = pipe.groups.concat();
        all.sort_unstable();
        assert_eq!(all, (0..15).collect::<Vec<_>>());
        assert_eq!(pipe.tree.leaf_count(), 15);
        assert!(pipe.tree.validate().is_ok());
    }

    #[test]
    fn pipeline_on_clustered_data_beats_nothing_feasibility_wise() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..3 {
            let m = gen::perturbed_ultrametric(12, 50.0, 0.1, &mut rng);
            let pipe = CompactPipeline::new().threshold(5).solve(&m).unwrap();
            assert!(pipe.tree.is_feasible_for(&m, 1e-9));
        }
    }

    #[test]
    fn all_linkages_produce_feasible_trees_after_refit() {
        let m = structured6();
        for linkage in [Linkage::Maximum, Linkage::Minimum, Linkage::Average] {
            let pipe = CompactPipeline::new()
                .threshold(4)
                .linkage(linkage)
                .solve(&m)
                .unwrap();
            assert!(
                pipe.tree.is_feasible_for(&m, 1e-9),
                "{linkage:?} produced an infeasible tree"
            );
        }
    }

    #[test]
    fn unstructured_matrix_falls_back_to_exact() {
        // Equal distances: no compact sets at all.
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 5.0, 5.0, 5.0],
            vec![5.0, 0.0, 5.0, 5.0],
            vec![5.0, 5.0, 0.0, 5.0],
            vec![5.0, 5.0, 5.0, 0.0],
        ])
        .unwrap();
        let pipe = CompactPipeline::new().solve(&m).unwrap();
        let exact = MutSolver::new().solve(&m).unwrap();
        assert!((pipe.weight - exact.weight).abs() < 1e-9);
        assert_eq!(pipe.compact_sets, 0);
        // The undecomposable path is a single "whole" stage.
        assert_eq!(pipe.timings.len(), 1);
        assert_eq!(pipe.timings[0].stage, "whole");
    }

    #[test]
    fn ultrametric_input_is_reconstructed_exactly() {
        let mut rng = StdRng::seed_from_u64(31);
        let m = gen::random_ultrametric(18, 80.0, &mut rng);
        let pipe = CompactPipeline::new().threshold(8).solve(&m).unwrap();
        // An ultrametric matrix is its own optimal tree; the pipeline must
        // recover it exactly (compact sets match the tree's clusters).
        assert_eq!(pipe.tree.distance_matrix().max_relative_deviation(&m), 0.0);
    }

    #[test]
    fn timings_name_every_stage() {
        let m = structured6();
        let pipe = CompactPipeline::new().threshold(4).solve(&m).unwrap();
        let stages: Vec<&str> = pipe.timings.iter().map(|t| t.stage.as_str()).collect();
        // At least one group solve, the meta solve and the merge join.
        assert!(stages.iter().any(|s| s.starts_with("group ")), "{stages:?}");
        assert!(stages.contains(&"meta"), "{stages:?}");
        assert!(stages.contains(&"merge"), "{stages:?}");
        assert!(pipe.timings.iter().all(|t| t.seconds >= 0.0));
        assert_eq!(
            pipe.slowest_stages(2).len(),
            2.min(pipe.timings.len()),
            "slowest_stages truncates to the requested count"
        );
    }

    #[test]
    fn expired_deadline_degrades_to_feasible_agglomerative_tree() {
        use std::time::{Duration, Instant};
        let mut rng = StdRng::seed_from_u64(17);
        let m = gen::perturbed_ultrametric(16, 70.0, 0.06, &mut rng);
        let solver = MutSolver::new().deadline(Instant::now() - Duration::from_millis(1));
        let pipe = CompactPipeline::new()
            .threshold(6)
            .solver(solver)
            .solve(&m)
            .unwrap();
        // Degraded, not dead: the merged tree is still a feasible
        // ultrametric tree over every species.
        assert!(pipe.tree.is_feasible_for(&m, 1e-9));
        assert_eq!(pipe.tree.leaf_count(), 16);
        assert_eq!(pipe.stop, mutree_bnb::StopReason::DeadlineExpired);
        assert!(!pipe.is_complete());
        assert!(
            !pipe.degraded.is_empty(),
            "expired deadline must report the degraded stages"
        );
        for d in &pipe.degraded {
            assert_eq!(
                d.reason,
                DegradeReason::Stopped(mutree_bnb::StopReason::DeadlineExpired)
            );
            assert!(!d.stage.is_empty());
            if let Some(gi) = d.group {
                assert!(gi < pipe.groups.len());
            }
        }
    }

    #[test]
    fn cancelled_pipeline_reports_cancellation_per_group() {
        let mut rng = StdRng::seed_from_u64(23);
        let m = gen::perturbed_ultrametric(14, 60.0, 0.05, &mut rng);
        let token = mutree_bnb::CancelToken::new();
        token.cancel();
        let pipe = CompactPipeline::new()
            .threshold(5)
            .solver(MutSolver::new().cancel_token(token))
            .solve(&m)
            .unwrap();
        assert!(pipe.tree.is_feasible_for(&m, 1e-9));
        assert_eq!(pipe.stop, mutree_bnb::StopReason::Cancelled);
        assert!(!pipe.degraded.is_empty());
    }

    #[test]
    fn budget_exhausted_stages_fall_back_and_are_reported() {
        let mut rng = StdRng::seed_from_u64(29);
        let m = gen::perturbed_ultrametric(16, 70.0, 0.08, &mut rng);
        // Zero branch budget *and* no UPGMM incumbent: every nontrivial
        // exact solve stops with nothing, forcing the agglomerative
        // fallback for each degraded stage.
        let pipe = CompactPipeline::new()
            .threshold(6)
            .solver(MutSolver::new().without_upgmm().max_branches(0))
            .solve(&m)
            .unwrap();
        assert!(pipe.tree.is_feasible_for(&m, 1e-9));
        assert_eq!(pipe.tree.leaf_count(), 16);
        assert!(pipe.weight.is_finite());
        assert_eq!(pipe.stop, mutree_bnb::StopReason::BudgetExhausted);
        assert!(!pipe.is_complete());
        assert!(!pipe.degraded.is_empty());
        assert!(pipe
            .degraded
            .iter()
            .all(|d| d.reason == DegradeReason::Stopped(mutree_bnb::StopReason::BudgetExhausted)));
    }

    #[test]
    fn deep_threshold_recursion_terminates() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = gen::random_ultrametric(30, 100.0, &mut rng);
        // Tiny threshold forces many groups and a recursive condensed
        // solve.
        let pipe = CompactPipeline::new().threshold(3).solve(&m).unwrap();
        assert_eq!(pipe.tree.leaf_count(), 30);
        assert!(pipe.tree.is_feasible_for(&m, 1e-9));
    }

    #[test]
    fn recursive_degradations_carry_depth_qualified_stage_paths() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = gen::random_ultrametric(30, 100.0, &mut rng);
        // Tiny threshold forces recursion; zero budget without UPGMM
        // degrades every exact stage, including recursive ones.
        let pipe = CompactPipeline::new()
            .threshold(3)
            .solver(MutSolver::new().without_upgmm().max_branches(0))
            .solve(&m)
            .unwrap();
        assert!(pipe.tree.is_feasible_for(&m, 1e-9));
        let nested: Vec<&DegradedGroup> = pipe
            .degraded
            .iter()
            .filter(|d| d.stage.starts_with("meta[1]/"))
            .collect();
        assert!(
            !nested.is_empty(),
            "recursive degradations must be stage-qualified: {:?}",
            pipe.degraded
        );
        // Anything below the recursion reports no (ambiguous) group index.
        assert!(nested.iter().all(|d| d.group.is_none()));
        // And the recursion's stage timings are flattened into ours.
        assert!(pipe.timings.iter().any(|t| t.stage.starts_with("meta[1]/")));
    }

    #[test]
    fn panicked_stage_falls_back_to_the_upgmm_tree() {
        let m = structured6();
        // threshold(4) splits structured6 into {0,1,2,4} and {3,5}: only
        // the 4-taxon group solve hits the injected fault.
        let sub = m.submatrix(&[0, 1, 2, 4]).unwrap();
        let solver = MutSolver::new().panic_on_taxa(4);
        let (st, weight) = attempt_stage(&solver, &sub, Some(0), "group 0");
        let upgmm = cluster(&sub, Linkage::Maximum);
        assert_eq!(
            mutree_tree::codec::encode_tree(&st.tree),
            mutree_tree::codec::encode_tree(&upgmm)
        );
        assert_eq!(weight, None);
        assert_eq!(st.stop, StopReason::WorkerPanicked);
        assert_eq!(
            st.degraded,
            vec![DegradedGroup {
                group: Some(0),
                stage: "group 0".to_string(),
                reason: DegradeReason::Panicked,
            }]
        );
        // The whole pipeline degrades that one stage and nothing else.
        let pipe = CompactPipeline::new()
            .threshold(4)
            .solver(solver)
            .solve(&m)
            .unwrap();
        assert_eq!(pipe.stop, StopReason::WorkerPanicked);
        assert_eq!(pipe.degraded.len(), 1);
        assert_eq!(pipe.degraded[0].reason, DegradeReason::Panicked);
        assert!(pipe.tree.is_feasible_for(&m, 1e-9));
    }

    #[test]
    fn executor_pipeline_matches_inline_pipeline() {
        let mut rng = StdRng::seed_from_u64(77);
        let m = gen::perturbed_ultrametric(18, 80.0, 0.06, &mut rng);
        let inline = CompactPipeline::new().threshold(5).solve(&m).unwrap();
        let pooled = CompactPipeline::new()
            .threshold(5)
            .executor(Executor::new(4))
            .solve(&m)
            .unwrap();
        assert_eq!(inline.weight.to_bits(), pooled.weight.to_bits());
        assert_eq!(inline.groups, pooled.groups);
        assert_eq!(inline.degraded, pooled.degraded);
        assert!(pooled.tree.is_feasible_for(&m, 1e-9));
    }
}
