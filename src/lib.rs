//! `mutree` — minimum ultrametric evolutionary trees from distance matrices.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`distmat`] — distance matrices, predicates, permutations, generators;
//! * [`graph`] — **compact sets** and their laminar forest;
//! * [`tree`] — ultrametric trees, UPGMA/UPGMM, Newick, tree metrics;
//! * [`bnb`] — the generic sequential / thread-parallel branch-and-bound
//!   engine with global and local pools;
//! * [`clustersim`] — a discrete-event PC-cluster simulator used to
//!   reproduce the paper's 16-node speedup experiments;
//! * [`seqgen`] — synthetic molecular sequence data and edit distances;
//! * [`engine`] — the solve spine: serializable
//!   [`SolveRequest`](engine::SolveRequest)s, resolved
//!   [`SolvePlan`](engine::SolvePlan)s, unified
//!   [`SolveReport`](engine::SolveReport)s, and the content-addressed
//!   group-solve cache;
//! * [`serve`] — the solve daemon: length-prefixed TCP framing for the
//!   engine-spine codecs, earliest-deadline-first admission control, and
//!   the process-wide shared cache behind every connection;
//! * [`core`] — the PaCT 2005 contribution: exact minimum-ultrametric-tree
//!   search (Algorithm BBU, sequential, parallel and simulated-cluster), the
//!   3-3 relationship pruning rule, and the compact-set decomposition
//!   pipeline.
//!
//! See the repository `README.md` for a tour and `DESIGN.md` for the mapping
//! from the paper's sections, tables and figures to modules and benchmarks.
//!
//! # Quickstart
//!
//! ```
//! use mutree::distmat::DistanceMatrix;
//! use mutree::core::{MutSolver, SearchBackend};
//!
//! let m = DistanceMatrix::from_rows(&[
//!     vec![0.0, 2.0, 8.0, 8.0],
//!     vec![2.0, 0.0, 8.0, 8.0],
//!     vec![8.0, 8.0, 0.0, 4.0],
//!     vec![8.0, 8.0, 4.0, 0.0],
//! ]).unwrap();
//! let solution = MutSolver::new().backend(SearchBackend::Sequential).solve(&m).unwrap();
//! assert_eq!(solution.tree.weight(), 11.0);
//! ```

#![forbid(unsafe_code)]

pub use mutree_bnb as bnb;
pub use mutree_clustersim as clustersim;
pub use mutree_core as core;
pub use mutree_distmat as distmat;
pub use mutree_engine as engine;
pub use mutree_graph as graph;
pub use mutree_seqgen as seqgen;
pub use mutree_serve as serve;
pub use mutree_tree as tree;
