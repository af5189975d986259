//! Constraint propagation over fixed leaf-triple relations — the
//! second prune stage of the expansion kernel under the full 3-3 rule.
//!
//! The Wu–Chao–Tang search prunes on a weight lower bound (partial
//! weight + pendant suffix) and, optionally, the 3-3 close-pair checks.
//! Moore & Prosser's ultrametric-constraint model observes that every
//! leaf triple of an ultrametric tree resolves to a *(low, low, high)*
//! pattern, and that fixing one triple's relation forces others
//! transitively, long before any weight arithmetic notices. Under
//! `ThreeThree::Full` the matrix fixes the relation of every triple with
//! a strict close pair, so those relations are part of the problem
//! semantics and propagating them is a pure look-ahead of checks the
//! filter applies anyway. This module holds the arena-independent half:
//!
//! * [`TripleDomains`] — the matrix-derived triple-relation domain:
//!   packed 2-bit states over the same triangular index as the 3-3
//!   close-pair table, reusing
//!   [`close_pair_code`](crate::bound::close_pair_code)'s arm encoding;
//! * [`Arm`] — the decoded relation.
//!
//! The *arm* side of the propagation — confining a future leaf to a
//! subtree when its triple relations are fixed, and wiping out when two
//! confinements contradict — needs the leaf-bitset arena and therefore
//! lives with the tree (`mutree-core`).

use crate::bound::{CLOSE_EARLIER, CLOSE_NONE, CLOSE_WITH_HIGH, CLOSE_WITH_LOW};

/// A fixed triple relation, decoded from the 2-bit domain state.
///
/// For a triple `(i, j, s)` with `i < j < s`, the arm names which pair
/// is the *(low)* — deepest-LCA — pair of the ultrametric pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Unresolved: the matrix has no strict minimum pair, so all three
    /// resolutions remain in the domain.
    Open,
    /// `(i, j)` is the close pair (`CLOSE_EARLIER`).
    Earlier,
    /// `(i, s)` is the close pair (`CLOSE_WITH_LOW`).
    WithLow,
    /// `(j, s)` is the close pair (`CLOSE_WITH_HIGH`).
    WithHigh,
}

/// The triple-relation domain: one packed 2-bit state per leaf triple,
/// over the same triangular index as the 3-3 close-pair table
/// ([`triple_index`](crate::bound::triple_index)), reusing
/// [`close_pair_code`](crate::bound::close_pair_code)'s arm encoding
/// (`CLOSE_NONE`/`EARLIER`/`WITH_LOW`/`WITH_HIGH`).
///
/// Packing four states per byte quarters the table against the unpacked
/// close-pair bytes: at the 256-taxon engine ceiling the full
/// `C(256,3)` domain is ~690 KiB instead of ~2.7 MiB, and the search
/// walks it read-only — the per-node mutable state is the future-leaf
/// confinement masks, which live in the tree arena and ride the
/// `ChildBuf` spare pool.
#[derive(Debug, Clone, Default)]
pub struct TripleDomains {
    words: Vec<u8>,
    len: usize,
}

impl TripleDomains {
    /// Packs an unpacked arm table (one byte per triple, as built by the
    /// 3-3 sweep) into 2-bit states. `codes.len()` must be
    /// [`close_pair_table_len`](crate::bound::close_pair_table_len)`(n)`
    /// for some `n`.
    pub fn pack(codes: &[u8]) -> Self {
        let mut words = vec![0u8; codes.len().div_ceil(4)];
        for (t, &code) in codes.iter().enumerate() {
            debug_assert!(code <= CLOSE_WITH_HIGH, "arm code out of range");
            words[t >> 2] |= (code & 0b11) << ((t & 3) * 2);
        }
        TripleDomains {
            words,
            len: codes.len(),
        }
    }

    /// Number of triples in the domain.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the domain covers no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw 2-bit state of triple `t` (a
    /// [`triple_index`](crate::bound::triple_index) value).
    #[inline]
    pub fn code(&self, t: usize) -> u8 {
        debug_assert!(t < self.len);
        (self.words[t >> 2] >> ((t & 3) * 2)) & 0b11
    }

    /// The decoded arm of triple `t`.
    #[inline]
    pub fn arm(&self, t: usize) -> Arm {
        match self.code(t) {
            CLOSE_NONE => Arm::Open,
            CLOSE_EARLIER => Arm::Earlier,
            CLOSE_WITH_LOW => Arm::WithLow,
            CLOSE_WITH_HIGH => Arm::WithHigh,
            _ => unreachable!("2-bit state"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::{close_pair_code, close_pair_table_len, triple_index};

    #[test]
    fn domains_pack_and_decode_every_arm() {
        // An asymmetric toy matrix: d(i,j) = |i-j| + 10*min(i,j) gives a
        // strict minimum pair for most triples.
        let n = 7;
        let d = |i: usize, j: usize| (i.abs_diff(j)) as f64 + 10.0 * i.min(j) as f64;
        let mut codes = vec![0u8; close_pair_table_len(n)];
        for s in 2..n {
            for j in 1..s {
                for i in 0..j {
                    codes[triple_index(i, j, s)] = close_pair_code(d(i, j), d(i, s), d(j, s));
                }
            }
        }
        let dom = TripleDomains::pack(&codes);
        assert_eq!(dom.len(), codes.len());
        for (t, &code) in codes.iter().enumerate() {
            assert_eq!(dom.code(t), code, "triple {t}");
            let arm = match code {
                CLOSE_NONE => Arm::Open,
                CLOSE_EARLIER => Arm::Earlier,
                CLOSE_WITH_LOW => Arm::WithLow,
                _ => Arm::WithHigh,
            };
            assert_eq!(dom.arm(t), arm, "triple {t}");
        }
    }

    #[test]
    fn empty_domain_is_empty() {
        let dom = TripleDomains::default();
        assert!(dom.is_empty());
        assert_eq!(dom.len(), 0);
    }
}
