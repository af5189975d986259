//! Symmetric distance matrices for phylogenetic reconstruction.
//!
//! This crate provides the [`DistanceMatrix`] type used throughout `mutree`,
//! together with the matrix-level operations the PaCT 2005 paper relies on:
//!
//! * predicates — [`DistanceMatrix::is_metric`] (triangle inequality) and
//!   [`DistanceMatrix::is_ultrametric`] (three-point condition),
//! * repair — [`DistanceMatrix::metric_closure`] (Floyd–Warshall shortest
//!   paths, turning an arbitrary non-negative symmetric matrix into a metric),
//! * orderings — [`DistanceMatrix::maxmin_permutation`], the species
//!   relabeling of the Wu–Chao–Tang branch-and-bound, and
//!   [`DistanceMatrix::search_order`], maxmin improved by pair swaps until
//!   no swap raises the static root bound [`DistanceMatrix::root_bound`]:
//!   the order the exact search uses,
//! * slicing — [`DistanceMatrix::submatrix`] and
//!   [`DistanceMatrix::permute`], used by the compact-set decomposition,
//! * blocked layout — [`SolverMatrix`], a row-major, padded,
//!   cache-line-aligned copy (no longer on the solve path; kept for
//!   layout benchmarks),
//! * I/O — PHYLIP-style square matrix parsing and formatting ([`io`]),
//! * workload generation — random metric and perturbed-ultrametric matrices
//!   ([`gen`]), matching the paper's "randomly generated species matrix"
//!   experiments (values 0–100, triangle inequality enforced).
//!
//! # Example
//!
//! ```
//! use mutree_distmat::DistanceMatrix;
//!
//! let m = DistanceMatrix::from_rows(&[
//!     vec![0.0, 2.0, 6.0],
//!     vec![2.0, 0.0, 6.0],
//!     vec![6.0, 6.0, 0.0],
//! ]).unwrap();
//! assert!(m.is_metric(1e-9));
//! assert!(m.is_ultrametric(1e-9));
//! assert_eq!(m.max_pair(), (0, 2, 6.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;
mod ops;
mod solver;

pub mod gen;
pub mod io;

pub use error::MatrixError;
pub use matrix::DistanceMatrix;
pub use ops::{MaxminPermutation, SearchOrder};
pub use solver::{SolverMatrix, LANE_BLOCK, WORD_LANES};
