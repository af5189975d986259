//! Minimum ultrametric tree (MUT) construction — the primary contribution
//! of *"A Fast Technique for Constructing Evolutionary Tree with the
//! Application of Compact Sets"* (Yu et al., PaCT 2005) and its companion
//! *"Parallel Branch-and-Bound Algorithm for Constructing Evolutionary
//! Trees from Distance Matrix"* (HPC Asia 2005).
//!
//! Given an `n × n` distance matrix `M`, a *minimum ultrametric tree* is a
//! rooted, edge-weighted binary tree whose leaves are the species, whose
//! root-to-leaf paths all have equal length, whose leaf-pair distances
//! dominate `M`, and whose total edge weight is minimal. The problem is
//! NP-hard; this crate provides:
//!
//! * [`MutSolver`] — exact search via **Algorithm BBU** (Wu–Chao–Tang
//!   1999): maxmin species relabeling, UPGMM initial upper bound,
//!   branch-and-bound over leaf-insertion topologies. Three backends:
//!   sequential DFS, thread-parallel master/slave with global/local pools
//!   ([`SearchBackend::Parallel`]), and a **deterministic discrete-event
//!   cluster simulation** ([`SearchBackend::SimulatedCluster`]) that
//!   reproduces the paper's 16-node speedup experiments on any host;
//! * [`ThreeThree`] — the 3-3 relationship pruning rule (companion paper,
//!   Step 4), at the paper's initial-step strength;
//! * [`CompactPipeline`] — the PaCT 2005 technique: split `M` into small
//!   matrices along its [compact sets](mutree_graph::CompactSets), solve
//!   each exactly, and graft the subtrees back together, obtaining a
//!   near-optimal ultrametric tree orders of magnitude faster.
//!
//! ```
//! use mutree_distmat::DistanceMatrix;
//! use mutree_core::{MutSolver, SearchBackend};
//!
//! let m = DistanceMatrix::from_rows(&[
//!     vec![0.0, 2.0, 8.0, 8.0],
//!     vec![2.0, 0.0, 8.0, 8.0],
//!     vec![8.0, 8.0, 0.0, 4.0],
//!     vec![8.0, 8.0, 4.0, 0.0],
//! ]).unwrap();
//! let sol = MutSolver::new().backend(SearchBackend::Sequential).solve(&m).unwrap();
//! assert_eq!(sol.weight, 11.0);
//! assert!(sol.tree.is_feasible_for(&m, 1e-9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod error;
pub mod exec;
mod memo;
mod node;
mod pipeline;
mod problem;
mod run;
mod solver;

pub use cluster::{solve_simulated, solve_simulated_observed, SimCost, SimulatedOutcome};
pub use error::MutError;
pub use exec::{Executor, QueueStats};
pub use node::{half_distances, PartialTree};
pub use pipeline::{CompactPipeline, PipelineSolution};
pub use problem::MutProblem;
pub use run::{plan_solver, solve_plan, solve_plan_hooked, SolveHooks};
pub use solver::{solution_newick, MutSolution, MutSolver, SearchBackend, MAX_EXACT_TAXA};

pub use mutree_bnb::{
    CancelToken, LoggingObserver, MemoryBudget, SearchMode, SearchStats, StopReason, TraceLevel,
    WorkerPool,
};
// The bit-exact tree codec (cache payloads, wire trees) and the shared
// FNV hash primitives live downstack; re-export them at their
// historical paths.
pub use mutree_bnb::hash;
pub use mutree_tree::codec;
pub use mutree_tree::Linkage;
// The engine spine: requests, plans, reports, and the group-solve cache.
pub use mutree_engine::{
    BackendSpec, CacheOutcome, CacheProbe, CacheQuery, DegradeReason, DegradedGroup, EnvOverrides,
    GroupCache, MatrixSource, SolveKind, SolvePlan, SolveReport, SolveRequest, StageProvenance,
    StageTiming, ThreeThree,
};
