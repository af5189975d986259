//! The 3-3 close-pair encoding.
//!
//! For a leaf triple `i < j < s`, the matrix may nominate a strict close
//! pair: one distance smaller than both others. The 3-3 rule
//! (`mutree_engine::ThreeThree`) keeps only the topologies that resolve
//! the triple the same way. [`close_pair_code`] classifies a triple into
//! one of four codes.
//!
//! The search's bound tables (the pendant terms and the look-ahead) live
//! with the problem (`mutree_core::MutProblem`), because they follow the
//! tree encoding and the placed set of each node.

/// No strict close pair: the triple constrains nothing.
pub const CLOSE_NONE: u8 = 0;
/// The close pair is `(i, j)` — the earlier two species.
pub const CLOSE_EARLIER: u8 = 1;
/// The close pair is `(i, s)` — the newest species with the lower one.
pub const CLOSE_WITH_LOW: u8 = 2;
/// The close pair is `(j, s)` — the newest species with the higher one.
pub const CLOSE_WITH_HIGH: u8 = 3;

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
    fn close_pair_codes_cover_all_arms() {
        assert_eq!(close_pair_code(1.0, 5.0, 5.0), CLOSE_EARLIER);
        assert_eq!(close_pair_code(5.0, 1.0, 5.0), CLOSE_WITH_LOW);
        assert_eq!(close_pair_code(5.0, 5.0, 1.0), CLOSE_WITH_HIGH);
        assert_eq!(close_pair_code(5.0, 5.0, 5.0), CLOSE_NONE);
        assert_eq!(close_pair_code(1.0, 1.0, 5.0), CLOSE_NONE);
    }
}
