use std::fmt;

use mutree_distmat::MatrixError;
use mutree_tree::TreeError;

/// Errors from the MUT solver and the compact-set pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MutError {
    /// The exact search encodes leaf sets as fixed-width bitsets, the
    /// widest monomorphized width being [`MAX_EXACT_TAXA`] taxa
    /// (`crate::MAX_EXACT_TAXA`); matrices beyond that must go through
    /// the compact-set pipeline (which decomposes them) or be reduced
    /// some other way.
    ///
    /// [`MAX_EXACT_TAXA`]: crate::MAX_EXACT_TAXA
    TooManyTaxa {
        /// Number of taxa requested.
        n: usize,
        /// The supported maximum for a single exact search.
        max: usize,
    },
    /// The pipeline could not reduce the problem below the exact-search
    /// limit: the matrix has too little compact structure.
    NotDecomposable {
        /// Number of groups the best decomposition produced.
        groups: usize,
        /// The exact-search limit the groups must fit within.
        max: usize,
    },
    /// The search was stopped (deadline, cancellation, …) before *any*
    /// feasible tree existed — possible only when the UPGMM initial
    /// incumbent is disabled; with it on, an interrupted solve still
    /// returns that incumbent.
    Interrupted {
        /// Why the search stopped.
        reason: mutree_bnb::StopReason,
    },
    /// A solve request's input could not be loaded — the matrix file was
    /// missing or failed to parse, or the request itself was malformed.
    Input {
        /// What went wrong.
        message: String,
    },
    /// An underlying matrix error.
    Matrix(MatrixError),
    /// An underlying tree error.
    Tree(TreeError),
}

impl fmt::Display for MutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutError::TooManyTaxa { n, max } => {
                write!(f, "exact search supports at most {max} taxa, got {n}")
            }
            MutError::NotDecomposable { groups, max } => write!(
                f,
                "compact-set decomposition still leaves {groups} groups (limit {max})"
            ),
            MutError::Interrupted { reason } => {
                write!(
                    f,
                    "search stopped ({reason}) before any feasible tree was found"
                )
            }
            MutError::Input { message } => write!(f, "input error: {message}"),
            MutError::Matrix(e) => write!(f, "matrix error: {e}"),
            MutError::Tree(e) => write!(f, "tree error: {e}"),
        }
    }
}

impl std::error::Error for MutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutError::Matrix(e) => Some(e),
            MutError::Tree(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MatrixError> for MutError {
    fn from(e: MatrixError) -> Self {
        MutError::Matrix(e)
    }
}

impl From<TreeError> for MutError {
    fn from(e: TreeError) -> Self {
        MutError::Tree(e)
    }
}
