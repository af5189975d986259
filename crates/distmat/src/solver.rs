//! A blocked row-major copy of a [`DistanceMatrix`].
//!
//! [`DistanceMatrix`] stores a packed strict lower triangle. A
//! [`SolverMatrix`] trades that compactness for locality:
//!
//! * **full square rows** — `row(i)` is one contiguous `&[f64]`;
//!   symmetry is traded for locality,
//! * **rows padded to the leaf-word stride** — every row holds
//!   `ceil(n/64)·64` lanes, so 64-bit leaf-mask word `w` always covers
//!   lanes `64w..64(w+1)` of the row,
//! * **cache-line-aligned blocks** — the buffer is over-allocated and
//!   offset so every row starts on a 64-byte boundary; a row is then a
//!   whole number of 8-lane blocks, each one cache line,
//! * **poisoned padding** — lanes `n..stride` of each row are `NaN` in
//!   debug builds (zero in release), so a reader that lets padding leak
//!   into a result produces `NaN`.
//!
//! No solve reads this layout: the branch-and-bound search reads the
//! packed [`DistanceMatrix`] directly. The type stays for layout
//! benchmarks.

use crate::DistanceMatrix;

/// Lanes per block: 8 `f64`s = one 64-byte cache line.
pub const LANE_BLOCK: usize = 8;

/// Lanes covered by one 64-bit leaf-mask word; rows are padded to a
/// multiple of this so mask words and row blocks share one stride.
pub const WORD_LANES: usize = 64;

/// A blocked, row-major, padded copy of a [`DistanceMatrix`] (see the
/// module docs).
///
/// Read-only after construction. Row `i` is the full symmetric row
/// `M[i, 0..n]` (diagonal zero) followed by padding lanes up to
/// [`stride`](SolverMatrix::stride).
#[derive(Debug, Clone)]
pub struct SolverMatrix {
    n: usize,
    stride: usize,
    /// `off..off + n·stride` is the aligned payload; `0..off` is the
    /// alignment slack of the allocation.
    off: usize,
    buf: Vec<f64>,
}

impl SolverMatrix {
    /// Copies `m` into the blocked layout in `O(n²)` time and space.
    /// This is not on the solve path: the search reads the packed
    /// [`DistanceMatrix`] directly.
    pub fn new(m: &DistanceMatrix) -> Self {
        let n = m.len();
        let stride = n.div_ceil(WORD_LANES) * WORD_LANES;
        // Padding lanes must never reach a result: poison them in debug
        // builds so any leak is a NaN, not a silently-absorbed zero.
        let pad = if cfg!(debug_assertions) {
            f64::NAN
        } else {
            0.0
        };
        // Over-allocate by one cache line of lanes and slide the payload
        // forward so every row starts 64-byte aligned (rows stay aligned
        // because `stride` is a multiple of LANE_BLOCK).
        let mut buf = vec![pad; n * stride + LANE_BLOCK];
        let addr = buf.as_ptr() as usize;
        debug_assert_eq!(addr % std::mem::align_of::<f64>(), 0);
        let off = (addr.next_multiple_of(64) - addr) / std::mem::size_of::<f64>();
        for i in 0..n {
            let base = off + i * stride;
            for j in 0..n {
                buf[base + j] = m.get(i, j);
            }
        }
        SolverMatrix {
            n,
            stride,
            off,
            buf,
        }
    }

    /// Number of taxa (valid lanes per row).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: built from a matrix with at least two taxa.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Lanes per row including padding: `ceil(n/64)·64`, a whole number
    /// of cache-line blocks and of leaf-mask words.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i` including its padding lanes, as one contiguous 64-byte
    /// aligned slice of [`stride`](SolverMatrix::stride) lanes. Lanes
    /// `n..stride` are padding: zero in release builds, `NaN` in debug
    /// builds — readers must mask them out, never absorb them.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.n, "taxon index out of bounds");
        let base = self.off + i * self.stride;
        &self.buf[base..base + self.stride]
    }

    /// Distance between taxa `i` and `j` — same value, bit for bit, as
    /// the source matrix's `get`.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "taxon index out of bounds");
        self.buf[self.off + i * self.stride + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistanceMatrix {
        DistanceMatrix::from_rows(&[
            vec![0.0, 4.0, 2.0, 9.0],
            vec![4.0, 0.0, 4.0, 9.0],
            vec![2.0, 4.0, 0.0, 9.0],
            vec![9.0, 9.0, 9.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn round_trips_every_entry() {
        let m = sample();
        let s = SolverMatrix::new(&m);
        assert_eq!(s.len(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(s.get(i, j).to_bits(), m.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn rows_are_padded_to_the_word_stride_and_aligned() {
        let m = sample();
        let s = SolverMatrix::new(&m);
        assert_eq!(s.stride(), WORD_LANES);
        for i in 0..4 {
            let row = s.row(i);
            assert_eq!(row.len(), s.stride());
            assert_eq!(row.as_ptr() as usize % 64, 0, "row {i} misaligned");
            assert_eq!(row[i], 0.0, "diagonal of row {i}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn padding_is_nan_poisoned_in_debug() {
        let m = sample();
        let s = SolverMatrix::new(&m);
        for i in 0..4 {
            for &lane in &s.row(i)[4..] {
                assert!(lane.is_nan());
            }
        }
    }

    #[test]
    fn stride_crosses_word_boundaries() {
        for (n, want) in [(2usize, 64usize), (64, 64), (65, 128), (130, 192)] {
            let m = DistanceMatrix::zeros(n).unwrap();
            let s = SolverMatrix::new(&m);
            assert_eq!(s.stride(), want, "n = {n}");
            assert_eq!(s.row(n - 1).len(), want);
        }
    }
}
