use std::fmt;

/// Errors produced when constructing or parsing a [`DistanceMatrix`].
///
/// [`DistanceMatrix`]: crate::DistanceMatrix
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// The matrix has fewer than two taxa.
    TooSmall {
        /// Number of taxa supplied.
        n: usize,
    },
    /// The matrix has more taxa than its packed storage can address.
    TooLarge {
        /// Number of taxa supplied.
        n: usize,
    },
    /// A row does not have the expected number of columns.
    RaggedRow {
        /// Index of the offending row.
        row: usize,
        /// Expected number of columns.
        expected: usize,
        /// Number of columns found.
        found: usize,
    },
    /// A diagonal entry is non-zero.
    NonZeroDiagonal {
        /// Index of the offending diagonal entry.
        index: usize,
        /// The non-zero value found.
        value: f64,
    },
    /// Entries `(i, j)` and `(j, i)` disagree.
    Asymmetric {
        /// Row index of the offending pair.
        i: usize,
        /// Column index of the offending pair.
        j: usize,
    },
    /// An off-diagonal entry is negative.
    InvalidDistance {
        /// Row index of the entry.
        i: usize,
        /// Column index of the entry.
        j: usize,
        /// The invalid value found.
        value: f64,
    },
    /// An off-diagonal entry is NaN or infinite. Reported separately from
    /// [`MatrixError::InvalidDistance`] because non-finite values usually
    /// point at an upstream computation bug (0/0 alignment scores, overflow)
    /// rather than bad data, and they would poison every downstream
    /// comparison the solvers make.
    NotFinite {
        /// Row index of the entry.
        i: usize,
        /// Column index of the entry.
        j: usize,
        /// The non-finite value found.
        value: f64,
    },
    /// Failure while parsing a PHYLIP-style matrix.
    Parse {
        /// 1-based line number where parsing failed.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::TooSmall { n } => {
                write!(f, "a distance matrix needs at least 2 taxa, got {n}")
            }
            MatrixError::TooLarge { n } => {
                write!(f, "a {n}-taxon distance matrix is too large to store")
            }
            MatrixError::RaggedRow {
                row,
                expected,
                found,
            } => write!(f, "row {row} has {found} entries, expected {expected}"),
            MatrixError::NonZeroDiagonal { index, value } => {
                write!(
                    f,
                    "diagonal entry ({index}, {index}) is {value}, expected 0"
                )
            }
            MatrixError::Asymmetric { i, j } => {
                write!(f, "entries ({i}, {j}) and ({j}, {i}) disagree")
            }
            MatrixError::InvalidDistance { i, j, value } => {
                write!(f, "entry ({i}, {j}) = {value} is negative")
            }
            MatrixError::NotFinite { i, j, value } => {
                write!(f, "entry ({i}, {j}) = {value} is not finite")
            }
            MatrixError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}
