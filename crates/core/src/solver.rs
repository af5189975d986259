use std::sync::Arc;
use std::time::{Duration, Instant};

use mutree_bnb::{
    solve_parallel, solve_sequential_observed, CancelToken, LoggingObserver, MemoryBudget,
    SearchMode, SearchOptions, SearchStats, SpawnPool, StopReason, WorkerPool,
};
use mutree_clustersim::{ClusterSpec, SimReport};
use mutree_distmat::DistanceMatrix;
use mutree_tree::{newick, UltrametricTree};

use crate::{solve_simulated_observed, Executor, MutError, MutProblem, ThreeThree};

/// Taxa ceiling of a single exact search, a memory policy: every open
/// node carries look-ahead rows of `16(k − 1)(n − k)` bytes, which peak
/// near `k = n/2` at about `4n²` bytes, 260 KB per node at 256 taxa.
/// Nothing in a node's layout needs the ceiling. Matrices beyond it go
/// through [`CompactPipeline`](crate::CompactPipeline).
pub const MAX_EXACT_TAXA: usize = 256;

/// Which execution backend runs the branch-and-bound search.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchBackend {
    /// Single-threaded depth-first search (Algorithm BBU as published).
    Sequential,
    /// Master/slave thread-parallel search with global and local pools.
    Parallel {
        /// Number of worker threads (the paper's slave computing nodes).
        workers: usize,
    },
    /// Deterministic discrete-event simulation of the paper's PC cluster;
    /// produces identical optima plus virtual-time measurements.
    SimulatedCluster {
        /// The simulated cluster configuration.
        spec: ClusterSpec,
    },
}

/// A solved minimum ultrametric tree instance.
#[derive(Debug, Clone)]
pub struct MutSolution {
    /// An optimal ultrametric tree, taxa in the *original* matrix indexing.
    pub tree: UltrametricTree,
    /// Its weight — the minimum over all ultrametric trees for the matrix.
    pub weight: f64,
    /// All optimal trees when solving with [`SearchMode::AllOptimal`]
    /// (deduplicated by topology); otherwise just the one tree.
    pub trees: Vec<UltrametricTree>,
    /// Search counters (branched, pruned, incumbent updates, …).
    pub stats: SearchStats,
    /// Why the search stopped. Anything other than
    /// [`StopReason::Completed`] means `weight` is only an upper bound.
    pub stop: StopReason,
    /// Virtual-time measurements when the simulated-cluster backend ran.
    pub sim: Option<SimReport>,
}

impl MutSolution {
    /// Whether the search space was exhausted, making `weight` the proven
    /// minimum.
    pub fn is_complete(&self) -> bool {
        self.stop.is_complete()
    }
}

/// Builder-style front end for exact minimum ultrametric tree search.
///
/// ```
/// use mutree_distmat::DistanceMatrix;
/// use mutree_core::{MutSolver, SearchBackend, SearchMode};
///
/// let m = DistanceMatrix::from_rows(&[
///     vec![0.0, 3.0, 8.0],
///     vec![3.0, 0.0, 7.0],
///     vec![8.0, 7.0, 0.0],
/// ]).unwrap();
/// let sol = MutSolver::new()
///     .backend(SearchBackend::Parallel { workers: 2 })
///     .mode(SearchMode::AllOptimal)
///     .solve(&m)
///     .unwrap();
/// assert!(sol.tree.is_feasible_for(&m, 1e-9));
/// ```
#[derive(Debug, Clone)]
pub struct MutSolver {
    backend: SearchBackend,
    mode: SearchMode,
    three_three: ThreeThree,
    max_branches: u64,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    use_maxmin: bool,
    use_upgmm: bool,
    executor: Option<Executor>,
    trace: Option<LoggingObserver>,
    panic_on_taxa: Option<usize>,
    memory: Option<MemoryBudget>,
    seed: Option<UltrametricTree>,
}

impl Default for MutSolver {
    fn default() -> Self {
        MutSolver::new()
    }
}

impl MutSolver {
    /// A sequential, best-one solver that relabels into the search order
    /// (maxmin improved by pair swaps), with the UPGMM initial bound and
    /// no 3-3 rule — Algorithm BBU's published configuration, with the
    /// order's swaps added.
    pub fn new() -> Self {
        MutSolver {
            backend: SearchBackend::Sequential,
            mode: SearchMode::BestOne,
            three_three: ThreeThree::Off,
            max_branches: u64::MAX,
            deadline: None,
            cancel: None,
            use_maxmin: true,
            use_upgmm: true,
            executor: None,
            trace: None,
            panic_on_taxa: None,
            memory: None,
            seed: None,
        }
    }

    /// Selects the execution backend.
    pub fn backend(mut self, backend: SearchBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Find one optimum or enumerate all of them.
    pub fn mode(mut self, mode: SearchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the 3-3 relationship pruning strength.
    pub fn three_three(mut self, rule: ThreeThree) -> Self {
        self.three_three = rule;
        self
    }

    /// Caps the number of branch operations; an exceeded cap is reported
    /// via [`MutSolution::stop`].
    pub fn max_branches(mut self, limit: u64) -> Self {
        self.max_branches = limit;
        self
    }

    /// Sets an absolute wall-clock deadline; a search past it stops with
    /// [`StopReason::DeadlineExpired`] and returns its best incumbent.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline to `timeout` from now.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Attaches a cancellation token (keep a clone to trigger it from
    /// another thread).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps the number of simultaneously open search nodes (the dominant
    /// memory consumer). On breach the watchdog sheds the worst-bound
    /// open nodes and the solve finishes with
    /// [`StopReason::MemoryExhausted`]: the tree returned is the best
    /// found, an upper bound rather than a proven optimum. Applies to the
    /// sequential and thread-parallel backends; the simulated cluster
    /// models the paper's machines, which had no such guard.
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory = Some(budget);
        self
    }

    /// Seeds the search with a known-feasible incumbent tree (original
    /// taxon indexing, all `n` taxa). Its heights are re-fit to dominate
    /// the matrix and it competes with the UPGMM tree for the initial
    /// upper bound — the better one wins, so a seed can speed the search
    /// up but never change the optimum. The group-solve cache uses this
    /// to warm-start ε-near re-solves. A seed over the wrong taxa is
    /// discarded rather than erroring: it is an optimization hint, not
    /// an input.
    pub fn seed_incumbent(mut self, tree: UltrametricTree) -> Self {
        self.seed = Some(tree);
        self
    }

    /// Whether an attached deadline or cancel token already demands a
    /// stop. The pipeline uses this to skip doomed exact solves and jump
    /// straight to the agglomerative fallback.
    pub(crate) fn stop_requested(&self) -> Option<StopReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            Some(StopReason::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(StopReason::DeadlineExpired)
        } else {
            None
        }
    }

    /// Borrows worker threads from `exec` for the thread-parallel backend
    /// instead of spawning fresh threads per solve ([`SpawnPool`]), so
    /// many concurrent solves (the compact-set pipeline's group stages)
    /// share one thread budget. Ignored by the other backends.
    pub fn executor(mut self, exec: Executor) -> Self {
        self.executor = Some(exec);
        self
    }

    /// The attached executor, if any.
    pub fn executor_handle(&self) -> Option<&Executor> {
        self.executor.as_ref()
    }

    /// Logs structured kernel events ([`SearchEvent`]s) to stderr while
    /// solving, on every backend. See [`LoggingObserver`].
    ///
    /// [`SearchEvent`]: mutree_bnb::SearchEvent
    pub fn trace(mut self, observer: LoggingObserver) -> Self {
        self.trace = Some(observer);
        self
    }

    /// Test-only fault injection: `solve` panics on any `n`-taxon matrix.
    /// The pipeline fault tests use this to prove that one poisoned group
    /// solve degrades alone while its siblings complete on the same pool.
    #[doc(hidden)]
    pub fn panic_on_taxa(mut self, n: usize) -> Self {
        self.panic_on_taxa = Some(n);
        self
    }

    /// The taxa ceiling for one exact solve ([`MAX_EXACT_TAXA`]). The
    /// compact-set pipeline reads the limit from here instead of
    /// hard-coding it.
    pub fn max_taxa(&self) -> usize {
        MAX_EXACT_TAXA
    }

    /// The content-addressing signature of this solver's *answer*, or
    /// `None` when its solves must not be cached: the one cache gate of
    /// every cached lookup (a plan's exact solve, the pipeline's
    /// whole-run memo and each pipeline stage).
    ///
    /// Two solvers with the same signature produce the same optimum for
    /// the same matrix, so a [`GroupCache`](crate::GroupCache) entry
    /// filed under one can answer the other. The signature hashes every
    /// knob that changes *which* answer comes back (the 3-3 rule, the
    /// maxmin/UPGMM heuristics, the backend family) and deliberately
    /// omits the worker count, which the differential tests pin as
    /// answer-neutral.
    ///
    /// A deadline or cancel token is tolerated: an interrupt can only
    /// stop a search *early*; it never changes what a **completed**
    /// search answers. Every caller files entries only from completed,
    /// undegraded solves and serves a hit as the stored proven optimum,
    /// so a hit for a deadlined request just returns the exact answer
    /// sooner than the deadline required. Every other constraint gives
    /// `None`: anything but a [`SearchMode::BestOne`] search, a branch
    /// or memory budget, tracing or fault injection can return a
    /// non-optimal incumbent or carries side effects a cache hit would
    /// silently skip.
    pub fn cache_sig_interruptible(&self) -> Option<u64> {
        let unconstrained = self.mode == SearchMode::BestOne
            && self.max_branches == u64::MAX
            && self.memory.is_none()
            && self.trace.is_none()
            && self.panic_on_taxa.is_none();
        if !unconstrained {
            return None;
        }
        use mutree_bnb::hash::{fnv1a, fnv1a_continue};
        let mut h = fnv1a(b"mutree-solver-sig-v4");
        h = fnv1a_continue(
            h,
            &[
                match self.three_three {
                    ThreeThree::Off => 0u8,
                    ThreeThree::InitialOnly => 1,
                },
                u8::from(self.use_maxmin),
                u8::from(self.use_upgmm),
                match self.backend {
                    SearchBackend::Sequential => 0,
                    SearchBackend::Parallel { .. } => 1,
                    SearchBackend::SimulatedCluster { .. } => 2,
                },
            ],
        );
        Some(h)
    }

    /// Disables the relabeling into the search order, maxmin improved by
    /// pair swaps ([`SearchOrder`](mutree_distmat::SearchOrder)): the
    /// root pair and the order of the pendant terms follow the input
    /// order (ablation; hurts the lower bound).
    pub fn without_maxmin(mut self) -> Self {
        self.use_maxmin = false;
        self
    }

    /// Disables the UPGMM initial incumbent (ablation; the first bound
    /// then comes from the first completed leaf).
    pub fn without_upgmm(mut self) -> Self {
        self.use_upgmm = false;
        self
    }

    /// Solves the minimum ultrametric tree problem for `m`.
    ///
    /// # Errors
    ///
    /// [`MutError::TooManyTaxa`] beyond [`MAX_EXACT_TAXA`] taxa — use
    /// [`CompactPipeline`](crate::CompactPipeline) there.
    pub fn solve(&self, m: &DistanceMatrix) -> Result<MutSolution, MutError> {
        let n = m.len();
        if n > MAX_EXACT_TAXA {
            return Err(MutError::TooManyTaxa {
                n,
                max: MAX_EXACT_TAXA,
            });
        }
        if self.panic_on_taxa == Some(n) {
            panic!("injected fault: {n}-taxon solve");
        }

        // Step 1: relabel into the search order, maxmin improved by pair
        // swaps (`SearchOrder`). When the order is the identity there is
        // nothing to relabel: search `m` directly — no matrix clone going
        // in, no taxon remap coming out. `order = None` encodes the
        // identity.
        let pm_owned: DistanceMatrix;
        let (pm, order): (&DistanceMatrix, Option<Vec<usize>>) = if self.use_maxmin {
            let perm = m.search_order();
            if perm.order().iter().enumerate().all(|(i, &o)| i == o) {
                (m, None)
            } else {
                pm_owned = perm.apply(m);
                (&pm_owned, Some(perm.order().to_vec()))
            }
        } else {
            (m, None)
        };

        let mut problem = MutProblem::new(pm, self.three_three, self.use_upgmm);
        if let Some(seed) = &self.seed {
            // A cache-provided warm start (original indexing). It is
            // advisory: a seed over the wrong taxa is dropped, and its
            // weight is re-derived by fitting minimal feasible heights
            // against this matrix rather than trusted.
            if seed.leaf_count() == n && seed.taxa().all(|t| t < n) {
                let mut tree = seed.clone();
                // The problem searches the permuted matrix, so map through
                // the inverse permutation.
                if let Some(order) = &order {
                    let mut inv = vec![0usize; n];
                    for (permuted, &original) in order.iter().enumerate() {
                        inv[original] = permuted;
                    }
                    tree.map_taxa(|original| inv[original]);
                }
                let w = tree.fit_heights(pm);
                problem.seed(tree, w);
            }
        }
        let mut opts = SearchOptions::new(self.mode).max_branches(self.max_branches);
        opts.deadline = self.deadline;
        opts.cancel = self.cancel.clone();
        opts.memory = self.memory;

        let (outcome, sim) = match &self.backend {
            SearchBackend::Sequential => (
                solve_sequential_observed(&problem, &opts, &mut self.trace.clone()),
                None,
            ),
            SearchBackend::Parallel { workers } => {
                // Borrowed workers: the caller's shared executor if one is
                // attached, else one freshly spawned thread per worker.
                let pool: &dyn WorkerPool = match &self.executor {
                    Some(exec) => exec,
                    None => &SpawnPool,
                };
                let out = solve_parallel(Arc::new(problem), &opts, *workers, pool, self.trace);
                (out, None)
            }
            SearchBackend::SimulatedCluster { spec } => {
                let out = solve_simulated_observed(&problem, &opts, spec, &mut self.trace.clone());
                (out.outcome, Some(out.report))
            }
        };

        // With UPGMM on, an incumbent exists from the start, so a missing
        // value can only mean the search was stopped before finding any
        // leaf with the initial bound disabled.
        let weight = match outcome.best_value {
            Some(w) => w,
            None => {
                return Err(MutError::Interrupted {
                    reason: outcome.stop,
                })
            }
        };

        // Map taxa back to the original indexing and deduplicate by
        // topology (the UPGMM incumbent can coincide with a search tree).
        let mut trees: Vec<UltrametricTree> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for mut t in outcome.solutions {
            if let Some(order) = &order {
                t.map_taxa(|permuted| order[permuted]);
            }
            let canon = canonical_form(&t);
            if seen.insert(canon) {
                trees.push(t);
            }
        }
        assert!(!trees.is_empty(), "search returned a value but no tree");
        let tree = trees[0].clone();
        Ok(MutSolution {
            tree,
            weight,
            trees,
            stats: outcome.stats,
            stop: outcome.stop,
            sim,
        })
    }
}

/// A topology-canonical string: Newick with children ordered by smallest
/// descendant taxon and no branch lengths. Two trees get the same form iff
/// they have the same leaf-labeled topology.
fn canonical_form(t: &UltrametricTree) -> String {
    fn rec(t: &UltrametricTree, id: mutree_tree::NodeId) -> (usize, String) {
        match t.kind(id) {
            mutree_tree::NodeKind::Leaf(taxon) => (taxon, format!("{taxon}")),
            mutree_tree::NodeKind::Internal(a, b) => {
                let (ma, sa) = rec(t, a);
                let (mb, sb) = rec(t, b);
                if ma <= mb {
                    (ma, format!("({sa},{sb})"))
                } else {
                    (mb, format!("({sb},{sa})"))
                }
            }
        }
    }
    rec(t, t.root()).1
}

/// Formats a solution's tree as Newick with the matrix's taxon labels.
pub fn solution_newick(sol: &MutSolution, m: &DistanceMatrix) -> String {
    newick::to_newick_with(&sol.tree, |t| m.label(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_distmat::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m5() -> DistanceMatrix {
        DistanceMatrix::from_rows(&[
            vec![0.0, 9.0, 4.0, 6.0, 5.0],
            vec![9.0, 0.0, 7.0, 8.0, 6.0],
            vec![4.0, 7.0, 0.0, 3.0, 5.0],
            vec![6.0, 8.0, 3.0, 0.0, 5.0],
            vec![5.0, 6.0, 5.0, 5.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn backends_agree_on_optimum() {
        let m = m5();
        let seq = MutSolver::new().solve(&m).unwrap();
        let par = MutSolver::new()
            .backend(SearchBackend::Parallel { workers: 3 })
            .solve(&m)
            .unwrap();
        let sim = MutSolver::new()
            .backend(SearchBackend::SimulatedCluster {
                spec: ClusterSpec::with_slaves(4),
            })
            .solve(&m)
            .unwrap();
        assert!((seq.weight - par.weight).abs() < 1e-9);
        assert!((seq.weight - sim.weight).abs() < 1e-9);
        assert!(sim.sim.is_some());
        assert!(seq.tree.is_feasible_for(&m, 1e-9));
        assert!(par.tree.is_feasible_for(&m, 1e-9));
        assert!(sim.tree.is_feasible_for(&m, 1e-9));
    }

    #[test]
    fn backends_agree_on_random_matrices() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..5 {
            let m = gen::uniform_metric(8, 0.0, 100.0, &mut rng);
            let seq = MutSolver::new().solve(&m).unwrap();
            let par = MutSolver::new()
                .backend(SearchBackend::Parallel { workers: 4 })
                .solve(&m)
                .unwrap();
            assert!(
                (seq.weight - par.weight).abs() < 1e-6,
                "trial {trial}: {} vs {}",
                seq.weight,
                par.weight
            );
        }
    }

    #[test]
    fn all_optimal_sets_agree_across_backends() {
        let m = m5();
        let solve = |backend| {
            let mut sol = MutSolver::new()
                .backend(backend)
                .mode(SearchMode::AllOptimal)
                .solve(&m)
                .unwrap();
            let mut forms: Vec<String> = sol.trees.iter().map(super::canonical_form).collect();
            forms.sort();
            sol.trees.clear();
            (sol.weight, forms)
        };
        let (w_seq, seq) = solve(SearchBackend::Sequential);
        let (w_par, par) = solve(SearchBackend::Parallel { workers: 3 });
        let (w_sim, sim) = solve(SearchBackend::SimulatedCluster {
            spec: ClusterSpec::with_slaves(3),
        });
        assert!((w_seq - w_par).abs() < 1e-9);
        assert!((w_seq - w_sim).abs() < 1e-9);
        assert_eq!(seq, par);
        assert_eq!(seq, sim);
        assert!(!seq.is_empty());
    }

    /// A matrix already in search order takes the identity fast path (no
    /// clone, no output remap) and must still solve identically.
    #[test]
    fn already_relabeled_matrix_takes_identity_fast_path() {
        let m = m5();
        let pm = m.search_order().apply(&m);
        // The search order of the relabeled matrix is the identity, which
        // is what triggers the fast path.
        let again = pm.search_order();
        assert!(again.order().iter().enumerate().all(|(i, &o)| i == o));
        let direct = MutSolver::new().solve(&pm).unwrap();
        let via_original = MutSolver::new().solve(&m).unwrap();
        assert!((direct.weight - via_original.weight).abs() < 1e-9);
        assert!(direct.tree.is_feasible_for(&pm, 1e-9));
    }

    #[test]
    fn maxmin_off_still_correct() {
        let m = m5();
        let a = MutSolver::new().solve(&m).unwrap();
        let b = MutSolver::new().without_maxmin().solve(&m).unwrap();
        assert!((a.weight - b.weight).abs() < 1e-9);
    }

    #[test]
    fn upgmm_off_still_correct_but_slower() {
        let m = m5();
        let a = MutSolver::new().solve(&m).unwrap();
        let b = MutSolver::new().without_upgmm().solve(&m).unwrap();
        assert!((a.weight - b.weight).abs() < 1e-9);
        assert!(b.stats.branched >= a.stats.branched);
    }

    #[test]
    fn two_taxa_instance() {
        let m = DistanceMatrix::from_rows(&[vec![0.0, 4.0], vec![4.0, 0.0]]).unwrap();
        let sol = MutSolver::new().solve(&m).unwrap();
        assert_eq!(sol.weight, 4.0);
        assert_eq!(sol.tree.leaf_count(), 2);
    }

    #[test]
    fn sixty_four_taxa_boundary_works() {
        // An ultrametric input keeps the search trivial so this stays
        // fast.
        let mut rng = StdRng::seed_from_u64(64);
        let m = gen::random_ultrametric(64, 100.0, &mut rng);
        let sol = MutSolver::new().solve(&m).unwrap();
        assert_eq!(sol.tree.leaf_count(), 64);
        assert_eq!(sol.tree.distance_matrix().max_relative_deviation(&m), 0.0);
    }

    #[test]
    fn too_many_taxa_is_an_error() {
        let m = DistanceMatrix::zeros(MAX_EXACT_TAXA + 1).unwrap();
        assert!(matches!(
            MutSolver::new().solve(&m),
            Err(MutError::TooManyTaxa { n, max }) if n == MAX_EXACT_TAXA + 1 && max == MAX_EXACT_TAXA
        ));
    }

    /// 65 taxa used to be a hard error; it solves exactly.
    #[test]
    fn sixty_five_taxa_crosses_the_word_boundary() {
        let mut rng = StdRng::seed_from_u64(65);
        let m = gen::random_ultrametric(65, 100.0, &mut rng);
        let sol = MutSolver::new().solve(&m).unwrap();
        assert!(sol.is_complete());
        assert_eq!(sol.tree.leaf_count(), 65);
        assert_eq!(sol.tree.distance_matrix().max_relative_deviation(&m), 0.0);
    }

    #[test]
    fn optimum_on_ultrametric_matrix_reproduces_it() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = gen::random_ultrametric(9, 50.0, &mut rng);
        let sol = MutSolver::new().solve(&m).unwrap();
        // The generating tree is itself feasible with weight equal to the
        // matrix's own ultrametric tree; the optimum reproduces exact
        // distances.
        assert_eq!(sol.tree.distance_matrix().max_relative_deviation(&m), 0.0);
    }

    #[test]
    fn newick_output_uses_labels() {
        let mut m = m5();
        m.set_labels(["a", "b", "c", "d", "e"]);
        let sol = MutSolver::new().solve(&m).unwrap();
        let nw = solution_newick(&sol, &m);
        for l in ["a", "b", "c", "d", "e"] {
            assert!(nw.contains(l), "{nw}");
        }
    }

    #[test]
    fn canonical_form_distinguishes_topologies() {
        let t1 = UltrametricTree::join(
            UltrametricTree::cherry(0, 1, 1.0),
            UltrametricTree::leaf(2),
            2.0,
        );
        let t2 = UltrametricTree::join(
            UltrametricTree::cherry(0, 2, 1.0),
            UltrametricTree::leaf(1),
            2.0,
        );
        let t1_flipped = UltrametricTree::join(
            UltrametricTree::leaf(2),
            UltrametricTree::cherry(1, 0, 1.0),
            9.0,
        );
        assert_ne!(canonical_form(&t1), canonical_form(&t2));
        assert_eq!(canonical_form(&t1), canonical_form(&t1_flipped));
    }
}
