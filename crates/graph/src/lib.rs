//! Compact sets of a distance matrix.
//!
//! A *compact set* of a complete weighted graph `G = (V, E, w)` is a vertex
//! subset `C` whose largest internal distance is smaller than its smallest
//! escaping distance:
//!
//! ```text
//! Max(C) < Min(C, V \ C)
//! ```
//!
//! Compact sets are the decomposition device of the PaCT 2005 paper: they
//! nest into a laminar family (Lemma 3), every compact set induces a subtree
//! of the minimum spanning tree (Lemma 4), and — crucially for evolutionary
//! trees — the species inside a compact set share a lowest common ancestor
//! below every species outside it (Lemma 1), so solving each compact set
//! separately preserves the true phylogenetic relations.
//!
//! The detection algorithm here is the paper's §3.1 in `O(n²)`: build an
//! MST by dense Prim straight over the matrix, process its edges in
//! ascending weight order merging components, and test each component's
//! compactness at the merge that consumes it, whose weight is its crossing
//! minimum by the cut property. Internal maxima are maintained
//! incrementally and the laminar forest is read off the merges; see
//! [`CompactSets::find`].
//!
//! ```
//! use mutree_distmat::DistanceMatrix;
//! use mutree_graph::CompactSets;
//!
//! let m = DistanceMatrix::from_rows(&[
//!     vec![0.0, 1.0, 9.0, 9.0],
//!     vec![1.0, 0.0, 9.0, 9.0],
//!     vec![9.0, 9.0, 0.0, 2.0],
//!     vec![9.0, 9.0, 2.0, 0.0],
//! ]).unwrap();
//! let cs = CompactSets::find(&m);
//! let members: Vec<_> = cs.iter().map(|s| s.members().to_vec()).collect();
//! assert!(members.contains(&vec![0, 1]));
//! assert!(members.contains(&vec![2, 3]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compact;

pub use compact::{CompactSet, CompactSets, LaminarForest, LaminarNode};
