//! Fixed-width leaf bitsets for [`PartialTree`](crate::PartialTree).
//!
//! A [`LeafWords<K>`] packs a set of leaf indices into `K` inline 64-bit
//! words, so a `PartialTree<K>` arena stays a flat `Copy` buffer and
//! cloning a search node remains a straight `memcpy` — the property the
//! kernel's allocation-free branching relies on. The solver monomorphizes
//! the search for K = 1, 2, 4 and picks the narrowest width that fits the
//! matrix (see [`leaf_words_for`](crate::leaf_words_for)), so the
//! historical single-`u64` case compiles to exactly the code it always
//! was.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

/// A set of leaf indices `0..64·K`, stored as `K` inline 64-bit words.
///
/// The representation is plain old data: `Copy`, no heap, word `w` holds
/// bits `64w..64(w+1)`. All operations are word-parallel loops that the
/// compiler fully unrolls for the small fixed `K`s the solver uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafWords<const K: usize> {
    words: [u64; K],
}

impl<const K: usize> LeafWords<K> {
    /// Highest number of leaves this width can represent.
    pub const CAPACITY: usize = 64 * K;

    /// The empty set.
    pub const EMPTY: Self = LeafWords { words: [0; K] };

    /// The set containing exactly leaf `i`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `i >= CAPACITY`.
    #[inline]
    pub fn singleton(i: usize) -> Self {
        let mut s = Self::EMPTY;
        s.insert(i);
        s
    }

    /// Adds leaf `i` to the set.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < Self::CAPACITY, "leaf {i} out of range for K = {K}");
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Whether leaf `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < Self::CAPACITY, "leaf {i} out of range for K = {K}");
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// The set without leaf `i` (a no-op when `i` is absent).
    #[inline]
    pub fn without(mut self, i: usize) -> Self {
        debug_assert!(i < Self::CAPACITY, "leaf {i} out of range for K = {K}");
        self.words[i >> 6] &= !(1u64 << (i & 63));
        self
    }

    /// Set union.
    #[inline]
    pub fn union(mut self, other: Self) -> Self {
        for w in 0..K {
            self.words[w] |= other.words[w];
        }
        self
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(mut self, other: Self) -> Self {
        for w in 0..K {
            self.words[w] &= other.words[w];
        }
        self
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of leaves in the set (popcount over all words).
    #[inline]
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the two sets share no leaf.
    #[inline]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        (0..K).all(|w| self.words[w] & other.words[w] == 0)
    }

    /// Whether every member of `self` is also in `other`.
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        (0..K).all(|w| self.words[w] & !other.words[w] == 0)
    }

    /// Whether the two sets share at least one leaf.
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        !self.is_disjoint(other)
    }

    /// Iterates the members in ascending order: word by word, peeling the
    /// lowest set bit with `trailing_zeros` — for K = 1 this is exactly
    /// the classic single-`u64` scan.
    #[inline]
    pub fn iter(&self) -> LeafIter<K> {
        LeafIter {
            words: self.words,
            word: 0,
        }
    }
}

impl<const K: usize> Default for LeafWords<K> {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl<const K: usize> BitOr for LeafWords<K> {
    type Output = Self;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl<const K: usize> BitOrAssign for LeafWords<K> {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        *self = self.union(rhs);
    }
}

impl<const K: usize> BitAnd for LeafWords<K> {
    type Output = Self;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        self.intersection(rhs)
    }
}

impl<const K: usize> IntoIterator for LeafWords<K> {
    type Item = usize;
    type IntoIter = LeafIter<K>;
    fn into_iter(self) -> LeafIter<K> {
        self.iter()
    }
}

impl<const K: usize> fmt::Debug for LeafWords<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending-order iterator over a [`LeafWords`] set.
#[derive(Clone, Debug)]
pub struct LeafIter<const K: usize> {
    words: [u64; K],
    word: usize,
}

impl<const K: usize> Iterator for LeafIter<K> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word < K {
            let w = self.words[self.word];
            if w != 0 {
                self.words[self.word] = w & (w - 1);
                return Some((self.word << 6) | w.trailing_zeros() as usize);
            }
            self.word += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_contains_across_words() {
        for i in [0usize, 1, 63, 64, 65, 127] {
            let s = LeafWords::<2>::singleton(i);
            assert_eq!(s.count(), 1);
            for j in 0..128 {
                assert_eq!(s.contains(j), i == j, "bit {j} of singleton({i})");
            }
        }
    }

    #[test]
    fn union_without_and_iteration_order() {
        let mut s = LeafWords::<4>::EMPTY;
        for i in [200usize, 3, 64, 128, 63, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 63, 64, 128, 199, 200]);
        let t = s.without(64).without(3);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![63, 128, 199, 200]);
        assert_eq!(s.union(t), s);
        assert!(t.intersects(&s));
        assert!(t.is_disjoint(&LeafWords::singleton(64)));
        assert!(t.is_subset(&s));
        assert!(!s.is_subset(&t));
        assert!(s.is_subset(&s));
        assert!(LeafWords::<4>::EMPTY.is_subset(&t));
    }

    #[test]
    fn k1_matches_raw_u64_semantics() {
        let mut s = LeafWords::<1>::EMPTY;
        let mut raw = 0u64;
        for i in [5usize, 0, 63, 17] {
            s.insert(i);
            raw |= 1 << i;
        }
        assert_eq!(s.count(), raw.count_ones());
        let mut bits = Vec::new();
        let mut w = raw;
        while w != 0 {
            bits.push(w.trailing_zeros() as usize);
            w &= w - 1;
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), bits);
    }
}
