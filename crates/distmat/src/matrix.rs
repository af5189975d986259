use crate::MatrixError;

/// A symmetric `n × n` matrix of pairwise distances between taxa.
///
/// Distances are stored as a packed strict lower triangle (`n(n-1)/2`
/// entries), so symmetry and a zero diagonal hold by construction. All
/// distances must be finite and non-negative.
///
/// Taxa are identified by index `0..n`; optional human-readable labels can be
/// attached with [`DistanceMatrix::set_labels`] and survive permutation and
/// submatrix extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Strict lower triangle, row-major: entry `(i, j)` with `j < i` lives at
    /// `i(i-1)/2 + j`.
    data: Vec<f64>,
    labels: Option<Vec<String>>,
}

/// The `n(n − 1)/2` entries of an `n`-taxon packed triangle, or
/// [`MatrixError::TooLarge`] when they overflow the address space.
fn packed_len(n: usize) -> Result<usize, MatrixError> {
    n.checked_mul(n.saturating_sub(1))
        .map(|twice| twice / 2)
        .filter(|&len| len <= isize::MAX as usize / std::mem::size_of::<f64>())
        .ok_or(MatrixError::TooLarge { n })
}

#[inline]
fn tri_index(i: usize, j: usize) -> usize {
    debug_assert!(j < i);
    i * (i - 1) / 2 + j
}

impl DistanceMatrix {
    /// Creates a zero matrix over `n` taxa.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::TooSmall`] when `n < 2` and
    /// [`MatrixError::TooLarge`] when the `n(n − 1)/2` packed entries
    /// overflow the address space.
    pub fn zeros(n: usize) -> Result<Self, MatrixError> {
        if n < 2 {
            return Err(MatrixError::TooSmall { n });
        }
        Ok(DistanceMatrix {
            n,
            data: vec![0.0; packed_len(n)?],
            labels: None,
        })
    }

    /// Builds a matrix from full square rows.
    ///
    /// # Errors
    ///
    /// Returns an error when the rows are ragged, the diagonal is non-zero,
    /// the matrix is asymmetric, any entry is negative
    /// ([`MatrixError::InvalidDistance`]) or NaN/infinite
    /// ([`MatrixError::NotFinite`]).
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MatrixError> {
        let n = rows.len();
        let mut m = DistanceMatrix::zeros(n)?;
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(MatrixError::RaggedRow {
                    row: i,
                    expected: n,
                    found: row.len(),
                });
            }
            if row[i] != 0.0 {
                return Err(MatrixError::NonZeroDiagonal {
                    index: i,
                    value: row[i],
                });
            }
            for (j, &v) in row.iter().enumerate().take(i) {
                if !v.is_finite() {
                    return Err(MatrixError::NotFinite { i, j, value: v });
                }
                if v < 0.0 {
                    return Err(MatrixError::InvalidDistance { i, j, value: v });
                }
                if (v - rows[j][i]).abs() > 1e-12 * (1.0 + v.abs()) {
                    return Err(MatrixError::Asymmetric { i, j });
                }
                m.set(i, j, v);
            }
        }
        Ok(m)
    }

    /// Builds a matrix from its packed strict lower triangle
    /// (row-major: `(1,0), (2,0), (2,1), (3,0), …`).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::TooSmall`] when `n < 2`,
    /// [`MatrixError::TooLarge`] when `n(n-1)/2` overflows,
    /// [`MatrixError::RaggedRow`] when `condensed.len() != n(n-1)/2`,
    /// [`MatrixError::InvalidDistance`] for negative entries and
    /// [`MatrixError::NotFinite`] for NaN/infinite entries.
    pub fn from_condensed(n: usize, condensed: Vec<f64>) -> Result<Self, MatrixError> {
        if n < 2 {
            return Err(MatrixError::TooSmall { n });
        }
        let expected = packed_len(n)?;
        if condensed.len() != expected {
            return Err(MatrixError::RaggedRow {
                row: 0,
                expected,
                found: condensed.len(),
            });
        }
        for (k, &v) in condensed.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                // Recover (i, j) from the packed index for the error report.
                let mut i = 1;
                while tri_index(i + 1, 0) <= k {
                    i += 1;
                }
                let j = k - tri_index(i, 0);
                return Err(if v.is_finite() {
                    MatrixError::InvalidDistance { i, j, value: v }
                } else {
                    MatrixError::NotFinite { i, j, value: v }
                });
            }
        }
        Ok(DistanceMatrix {
            n,
            data: condensed,
            labels: None,
        })
    }

    /// Number of taxa.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: a matrix has at least two taxa.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Distance between taxa `i` and `j` (zero when `i == j`).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "taxon index out of bounds");
        match i.cmp(&j) {
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => self.data[tri_index(i, j)],
            std::cmp::Ordering::Less => self.data[tri_index(j, i)],
        }
    }

    /// Sets the distance between distinct taxa `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds, when `i == j`, or when `value`
    /// is negative or non-finite.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "taxon index out of bounds");
        assert!(i != j, "cannot set a diagonal entry");
        assert!(
            value.is_finite() && value >= 0.0,
            "distances must be finite and non-negative"
        );
        let idx = if i > j {
            tri_index(i, j)
        } else {
            tri_index(j, i)
        };
        self.data[idx] = value;
    }

    /// The packed strict lower triangle, row-major.
    #[inline]
    pub fn condensed(&self) -> &[f64] {
        &self.data
    }

    /// Attaches taxon labels.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len() != self.len()`.
    pub fn set_labels<I, S>(&mut self, labels: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        assert_eq!(labels.len(), self.n, "one label per taxon required");
        self.labels = Some(labels);
    }

    /// Taxon labels, if any were attached.
    #[inline]
    pub fn labels(&self) -> Option<&[String]> {
        self.labels.as_deref()
    }

    /// Label of taxon `i`, or its index rendered as `t<i>` when unlabeled.
    pub fn label(&self, i: usize) -> String {
        match &self.labels {
            Some(l) => l[i].clone(),
            None => format!("t{i}"),
        }
    }

    /// Iterates over all unordered pairs `(i, j, distance)` with `i < j`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (1..self.n).flat_map(move |i| (0..i).map(move |j| (j, i, self.data[tri_index(i, j)])))
    }

    /// The pair of taxa at maximum distance, as `(i, j, distance)` with
    /// `i < j`. Ties break toward the lexicographically smallest pair.
    pub fn max_pair(&self) -> (usize, usize, f64) {
        let mut best = (0, 1, self.get(0, 1));
        for (i, j, d) in self.pairs() {
            if d > best.2 {
                best = (i, j, d);
            }
        }
        best
    }

    /// The smallest off-diagonal distance.
    pub fn min_distance(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The largest off-diagonal distance.
    pub fn max_distance(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// Whether the triangle inequality `M[i,j] + M[j,k] ≥ M[i,k]` holds for
    /// all triples, within additive tolerance `tol`.
    pub fn is_metric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let dij = self.get(i, j);
                for k in (j + 1)..self.n {
                    let dik = self.get(i, k);
                    let djk = self.get(j, k);
                    if dij + djk + tol < dik || dij + dik + tol < djk || dik + djk + tol < dij {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Whether the three-point condition
    /// `M[i,j] ≤ max(M[i,k], M[j,k])` holds for all triples, within additive
    /// tolerance `tol`. Ultrametric matrices correspond exactly to
    /// ultrametric trees whose leaf distances equal the matrix.
    pub fn is_ultrametric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let dij = self.get(i, j);
                for k in (j + 1)..self.n {
                    let dik = self.get(i, k);
                    let djk = self.get(j, k);
                    // In an ultrametric the two largest of the three pairwise
                    // distances are equal; equivalently each distance is at
                    // most the max of the other two.
                    if dij > dik.max(djk) + tol
                        || dik > dij.max(djk) + tol
                        || djk > dij.max(dik) + tol
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Metric closure: replaces every distance with the shortest-path
    /// distance in the complete weighted graph (Floyd–Warshall, `O(n³)`).
    ///
    /// The result satisfies the triangle inequality and never exceeds the
    /// original entrywise. Distances of an already-metric matrix are
    /// unchanged.
    pub fn metric_closure(&self) -> DistanceMatrix {
        let n = self.n;
        let mut full: Vec<f64> = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                full.push(self.get(i, j));
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = full[i * n + k];
                for j in 0..n {
                    let through = dik + full[k * n + j];
                    if through < full[i * n + j] {
                        full[i * n + j] = through;
                    }
                }
            }
        }
        let mut out = self.clone();
        for i in 1..n {
            for j in 0..i {
                out.data[tri_index(i, j)] = full[i * n + j];
            }
        }
        out
    }

    /// Returns the matrix reindexed so that new taxon `k` is old taxon
    /// `perm[k]`. Labels are carried along.
    ///
    /// # Panics
    ///
    /// Panics when `perm` is not a permutation of `0..n`.
    pub fn permute(&self, perm: &[usize]) -> DistanceMatrix {
        assert_eq!(perm.len(), self.n, "permutation length must equal n");
        let mut seen = vec![false; self.n];
        for &p in perm {
            assert!(p < self.n && !seen[p], "not a permutation of 0..n");
            seen[p] = true;
        }
        let mut out = DistanceMatrix::zeros(self.n).expect("n >= 2");
        for i in 1..self.n {
            for j in 0..i {
                out.data[tri_index(i, j)] = self.get(perm[i], perm[j]);
            }
        }
        if let Some(labels) = &self.labels {
            out.labels = Some(perm.iter().map(|&p| labels[p].clone()).collect());
        }
        out
    }

    /// Extracts the submatrix over the given taxa, in the given order.
    /// Labels are carried along.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::TooSmall`] when fewer than two taxa are
    /// selected.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds or repeated.
    pub fn submatrix(&self, taxa: &[usize]) -> Result<DistanceMatrix, MatrixError> {
        if taxa.len() < 2 {
            return Err(MatrixError::TooSmall { n: taxa.len() });
        }
        let mut seen = vec![false; self.n];
        for &t in taxa {
            assert!(
                t < self.n && !seen[t],
                "taxa must be distinct and in bounds"
            );
            seen[t] = true;
        }
        let mut out = DistanceMatrix::zeros(taxa.len())?;
        for i in 1..taxa.len() {
            for j in 0..i {
                out.data[tri_index(i, j)] = self.get(taxa[i], taxa[j]);
            }
        }
        if let Some(labels) = &self.labels {
            out.labels = Some(taxa.iter().map(|&t| labels[t].clone()).collect());
        }
        Ok(out)
    }

    /// Maximum relative deviation `|a − b| / max(1, |a|)` against another
    /// matrix of the same size; useful for comparing reconstructions.
    ///
    /// # Panics
    ///
    /// Panics when the sizes differ.
    pub fn max_relative_deviation(&self, other: &DistanceMatrix) -> f64 {
        assert_eq!(self.n, other.n, "matrices must have the same size");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs() / 1f64.max(a.abs()))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistanceMatrix {
        // The 6-taxon example matrix style of the paper's Fig. 1.
        DistanceMatrix::from_rows(&[
            vec![0.0, 4.0, 2.0, 9.0, 5.0, 8.0],
            vec![4.0, 0.0, 4.0, 9.0, 5.0, 8.0],
            vec![2.0, 4.0, 0.0, 9.0, 5.0, 8.0],
            vec![9.0, 9.0, 9.0, 0.0, 9.0, 3.0],
            vec![5.0, 5.0, 5.0, 9.0, 0.0, 8.0],
            vec![8.0, 8.0, 8.0, 3.0, 8.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn zeros_rejects_tiny() {
        assert!(matches!(
            DistanceMatrix::zeros(1),
            Err(MatrixError::TooSmall { n: 1 })
        ));
        assert!(DistanceMatrix::zeros(2).is_ok());
    }

    #[test]
    fn sizes_that_overflow_storage_are_rejected() {
        // n(n − 1) wraps for the first; the second's entries fit a usize
        // but not the address space. Neither may allocate or panic.
        for n in [usize::MAX, 1 << 32] {
            assert_eq!(
                DistanceMatrix::zeros(n).unwrap_err(),
                MatrixError::TooLarge { n }
            );
            assert_eq!(
                DistanceMatrix::from_condensed(n, Vec::new()).unwrap_err(),
                MatrixError::TooLarge { n }
            );
        }
    }

    #[test]
    fn get_set_roundtrip_symmetric() {
        let mut m = DistanceMatrix::zeros(4).unwrap();
        m.set(1, 3, 7.5);
        assert_eq!(m.get(1, 3), 7.5);
        assert_eq!(m.get(3, 1), 7.5);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_diagonal_panics() {
        let mut m = DistanceMatrix::zeros(3).unwrap();
        m.set(1, 1, 1.0);
    }

    #[test]
    fn from_rows_detects_asymmetry() {
        let err = DistanceMatrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]).unwrap_err();
        assert!(matches!(err, MatrixError::Asymmetric { i: 1, j: 0 }));
    }

    #[test]
    fn from_rows_detects_bad_diagonal_and_negative() {
        let err = DistanceMatrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 0.0]]).unwrap_err();
        assert!(matches!(err, MatrixError::NonZeroDiagonal { index: 0, .. }));

        let err = DistanceMatrix::from_rows(&[vec![0.0, -1.0], vec![-1.0, 0.0]]).unwrap_err();
        assert!(matches!(err, MatrixError::InvalidDistance { .. }));
    }

    #[test]
    fn non_finite_entries_are_rejected_with_their_own_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = DistanceMatrix::from_rows(&[vec![0.0, bad], vec![bad, 0.0]]).unwrap_err();
            assert!(
                matches!(err, MatrixError::NotFinite { i: 1, j: 0, .. }),
                "{bad}: {err:?}"
            );
            let err = DistanceMatrix::from_condensed(3, vec![1.0, bad, 2.0]).unwrap_err();
            assert!(
                matches!(err, MatrixError::NotFinite { i: 2, j: 0, .. }),
                "{bad}: {err:?}"
            );
        }
        // Negative stays a plain invalid distance, not NotFinite.
        let err = DistanceMatrix::from_condensed(3, vec![1.0, -2.0, 2.0]).unwrap_err();
        assert!(matches!(
            err,
            MatrixError::InvalidDistance { i: 2, j: 0, .. }
        ));
    }

    #[test]
    fn from_condensed_roundtrip() {
        let m = sample();
        let again = DistanceMatrix::from_condensed(6, m.condensed().to_vec()).unwrap();
        assert_eq!(m, again);
    }

    #[test]
    fn from_condensed_length_check() {
        assert!(DistanceMatrix::from_condensed(4, vec![1.0; 5]).is_err());
        assert!(DistanceMatrix::from_condensed(4, vec![1.0; 6]).is_ok());
    }

    #[test]
    fn pairs_enumerates_all() {
        let m = sample();
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs.len(), 15);
        assert!(pairs.iter().all(|&(i, j, _)| i < j));
        assert!(pairs.iter().any(|&(i, j, d)| (i, j, d) == (0, 2, 2.0)));
    }

    #[test]
    fn max_pair_and_extremes() {
        let m = sample();
        let (i, j, d) = m.max_pair();
        assert_eq!(d, 9.0);
        assert!(i < j);
        assert_eq!(m.min_distance(), 2.0);
        assert_eq!(m.max_distance(), 9.0);
    }

    #[test]
    fn metric_and_ultrametric_predicates() {
        let m = sample();
        assert!(m.is_metric(1e-9));

        let um = DistanceMatrix::from_rows(&[
            vec![0.0, 2.0, 8.0, 8.0],
            vec![2.0, 0.0, 8.0, 8.0],
            vec![8.0, 8.0, 0.0, 4.0],
            vec![8.0, 8.0, 4.0, 0.0],
        ])
        .unwrap();
        assert!(um.is_ultrametric(1e-9));
        assert!(um.is_metric(1e-9));

        let mut not_um = um.clone();
        not_um.set(0, 2, 20.0);
        assert!(!not_um.is_ultrametric(1e-9));
    }

    #[test]
    fn closure_fixes_triangle_violations() {
        let mut m = DistanceMatrix::zeros(3).unwrap();
        m.set(0, 1, 1.0);
        m.set(1, 2, 1.0);
        m.set(0, 2, 10.0); // violates triangle inequality
        assert!(!m.is_metric(1e-9));
        let c = m.metric_closure();
        assert!(c.is_metric(1e-9));
        assert_eq!(c.get(0, 2), 2.0);
        assert_eq!(c.get(0, 1), 1.0);
    }

    #[test]
    fn closure_is_identity_on_metrics() {
        let m = sample();
        assert_eq!(m.metric_closure(), m);
    }

    #[test]
    fn permute_moves_labels_and_distances() {
        let mut m = sample();
        m.set_labels((0..6).map(|i| format!("sp{i}")));
        let perm = [5, 4, 3, 2, 1, 0];
        let p = m.permute(&perm);
        assert_eq!(p.get(0, 1), m.get(5, 4));
        assert_eq!(p.label(0), "sp5");
        // Double reversal is the identity.
        assert_eq!(p.permute(&perm), m);
    }

    #[test]
    fn submatrix_extracts_in_order() {
        let m = sample();
        let s = m.submatrix(&[3, 5, 0]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0, 1), m.get(3, 5));
        assert_eq!(s.get(1, 2), m.get(5, 0));
        assert!(m.submatrix(&[2]).is_err());
    }

    #[test]
    fn deviation_zero_on_self() {
        let m = sample();
        assert_eq!(m.max_relative_deviation(&m), 0.0);
    }
}
