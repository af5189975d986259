//! Wu–Chao–Tang bound tables and the 3-3 close-pair encoding.
//!
//! The minimum-ultrametric problem precomputes matrix-only tables per
//! solve. Two live here, as free functions over plain values: the
//! pendant-edge suffix ([`pendant_suffix`]) and the 3-3 close-pair codes
//! of every leaf triple ([`close_pair_code`] at [`triple_index`]), so
//! the triple-relation domains in [`crate::propagate`] share the same
//! arm encoding and index.
//!
//! The suffix is Wu–Chao–Tang's static bound, `ω + suffix[k]`: every
//! uninserted species adds at least half its distance to the nearest
//! earlier one. The search prunes with a look-ahead bound built on it
//! (`mutree_core::MutProblem`): it charges one future species its
//! cheapest exact insertion into the partial tree, then the suffix of
//! the rest with that species counted as present, and takes the best
//! future species. Its tables and per-node passes depend on the tree
//! encoding, so they live with the problem; the static bound stays its
//! floor.

/// `suffix[t] = Σ_{u ≥ t} minrow[u] / 2` with `suffix[n] = 0`, summed
/// from the back (`minrow[t]` is `min_{i<t} M[i, t]`; entries `0` and
/// `1` are never read and stay at `0.0`).
pub fn pendant_suffix(minrow: &[f64]) -> Vec<f64> {
    let n = minrow.len();
    let mut suffix = vec![0.0; n + 1];
    for t in (2..n).rev() {
        suffix[t] = suffix[t + 1] + minrow[t] / 2.0;
    }
    suffix
}

/// No strict close pair: the triple constrains nothing.
pub const CLOSE_NONE: u8 = 0;
/// The close pair is `(i, j)` — the earlier two species.
pub const CLOSE_EARLIER: u8 = 1;
/// The close pair is `(i, s)` — the newest species with the lower one.
pub const CLOSE_WITH_LOW: u8 = 2;
/// The close pair is `(j, s)` — the newest species with the higher one.
pub const CLOSE_WITH_HIGH: u8 = 3;

/// Flat index of the sorted triple `i < j < s`: triples with maximum
/// element `< s` occupy the first `C(s,3)` slots, those with maximum `s`
/// and middle `< j` the next `C(j,2)`, then `i` picks the slot.
#[inline]
pub fn triple_index(i: usize, j: usize, s: usize) -> usize {
    debug_assert!(i < j && j < s);
    s * (s - 1) * (s - 2) / 6 + j * (j - 1) / 2 + i
}

/// Number of entries a close-pair table over `n` taxa needs: `C(n,3)`.
#[inline]
pub fn close_pair_table_len(n: usize) -> usize {
    n * n.saturating_sub(1) * n.saturating_sub(2) / 6
}

/// Classifies the triple with distances `d_ij`, `d_is`, `d_js` (for
/// `i < j < s`): the code of the pair whose distance is strictly smaller
/// than both others, or [`CLOSE_NONE`] on ties — the matrix then does
/// not constrain the triple. Matches
/// `mutree_tree::triples::close_pair_in_matrix` decision for decision.
#[inline]
pub fn close_pair_code(d_ij: f64, d_is: f64, d_js: f64) -> u8 {
    if d_ij < d_is && d_ij < d_js {
        CLOSE_EARLIER
    } else if d_is < d_ij && d_is < d_js {
        CLOSE_WITH_LOW
    } else if d_js < d_ij && d_js < d_is {
        CLOSE_WITH_HIGH
    } else {
        CLOSE_NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pendant_suffix_matches_reference_recurrence() {
        // minrow for the 5-taxon matrix used across the problem tests:
        // minrow[2] = 4, minrow[3] = 3, minrow[4] = 5.
        let suffix = pendant_suffix(&[0.0, 0.0, 4.0, 3.0, 5.0]);
        assert_eq!(suffix.len(), 6);
        assert!((suffix[2] - 6.0).abs() < 1e-12);
        assert!((suffix[4] - 2.5).abs() < 1e-12);
        assert_eq!(suffix[5], 0.0);
    }

    #[test]
    fn close_pair_codes_cover_all_arms() {
        assert_eq!(close_pair_code(1.0, 5.0, 5.0), CLOSE_EARLIER);
        assert_eq!(close_pair_code(5.0, 1.0, 5.0), CLOSE_WITH_LOW);
        assert_eq!(close_pair_code(5.0, 5.0, 1.0), CLOSE_WITH_HIGH);
        assert_eq!(close_pair_code(5.0, 5.0, 5.0), CLOSE_NONE);
        assert_eq!(close_pair_code(1.0, 1.0, 5.0), CLOSE_NONE);
    }

    #[test]
    fn triple_index_is_a_bijection_onto_the_table() {
        let n = 9;
        let mut seen = vec![false; close_pair_table_len(n)];
        for s in 2..n {
            for j in 1..s {
                for i in 0..j {
                    let idx = triple_index(i, j, s);
                    assert!(!seen[idx], "({i},{j},{s}) collides");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
