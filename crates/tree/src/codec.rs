//! Byte codec for ultrametric trees in checkpoint and cache payloads.
//!
//! Checkpoint files (`mutree_bnb::checkpoint`) carry an opaque solution
//! payload, and the engine's group-solve cache stores memoized optima;
//! for MUT solves both payloads are an [`UltrametricTree`] in the
//! **original** (respectively canonical) matrix indexing, serialized by
//! this module. The encoding is a pre-order walk: a leaf is a tag byte
//! plus its taxon as `u64` little-endian; an internal node is a tag byte,
//! its height as IEEE-754 bits little-endian, then the two child
//! encodings. Bit-exact heights round-trip, so a resumed search warm
//! starts from *exactly* the incumbent the interrupted run had.
//!
//! The decoder validates structure (join heights must dominate subtree
//! heights, taxa must be distinct) and returns `None` rather than
//! panicking on malformed bytes — the checksum in the checkpoint file
//! catches corruption first, but the decoder never trusts that.

use crate::tree::PostOrder;
use crate::{NodeId, NodeKind, UltrametricTree};

const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;

/// Serializes `tree` into the checkpoint payload byte layout.
///
/// Walks the tree in pre-order on an explicit stack, so a caterpillar of
/// any depth encodes without exhausting the call stack.
pub fn encode_tree(tree: &UltrametricTree) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 * tree.node_count());
    let mut todo = vec![tree.root()];
    while let Some(id) = todo.pop() {
        match tree.kind(id) {
            NodeKind::Leaf(taxon) => {
                out.push(TAG_LEAF);
                out.extend_from_slice(&(taxon as u64).to_le_bytes());
            }
            NodeKind::Internal(a, b) => {
                out.push(TAG_INTERNAL);
                out.extend_from_slice(&tree.height_of(id).to_bits().to_le_bytes());
                todo.extend([b, a]);
            }
        }
    }
    out
}

/// Parses a payload produced by [`encode_tree`]. Returns `None` on any
/// structural problem: truncation, trailing bytes, unknown tags, a join
/// height below a subtree height, or duplicate taxa.
///
/// Reads the payload in one pass on an explicit stack, appending each
/// node once, so neither a caterpillar-shaped tree nor hostile nesting
/// depth can exhaust the call stack. Nodes are numbered in post-order,
/// exactly as nested [`UltrametricTree::join`]s would number them.
pub fn decode_tree(bytes: &[u8]) -> Option<UltrametricTree> {
    // Every node is a tag byte plus one 8-byte word.
    let mut tree = PostOrder::with_capacity(bytes.len() / 9);
    // Internal nodes still reading their children: the join height, and
    // the left child's root once that subtree is finished.
    let mut open: Vec<(f64, Option<NodeId>)> = Vec::new();
    let mut pos = 0;
    loop {
        let tag = *bytes.get(pos)?;
        let word = u64::from_le_bytes(bytes.get(pos + 1..pos + 9)?.try_into().ok()?);
        pos += 9;
        let mut done = match tag {
            TAG_LEAF => tree.leaf(usize::try_from(word).ok()?)?,
            TAG_INTERNAL => {
                open.push((f64::from_bits(word), None));
                continue;
            }
            _ => return None,
        };
        // Close every internal node the finished subtree completes.
        loop {
            match open.last_mut() {
                None => return (pos == bytes.len()).then(|| tree.finish()),
                Some((_, left @ None)) => {
                    *left = Some(done);
                    break;
                }
                Some(&mut (height, Some(left))) => {
                    open.pop();
                    done = tree.join(left, done, height)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The join-based recursive decoder `decode_tree` replaced, kept as
    /// the reference the linear decoder must agree with.
    fn reference_decode(bytes: &[u8]) -> Option<UltrametricTree> {
        fn dec(bytes: &[u8], pos: &mut usize) -> Option<UltrametricTree> {
            let tag = *bytes.get(*pos)?;
            *pos += 1;
            let mut take8 = || -> Option<[u8; 8]> {
                let s = bytes.get(*pos..*pos + 8)?;
                *pos += 8;
                s.try_into().ok()
            };
            match tag {
                TAG_LEAF => {
                    let taxon = u64::from_le_bytes(take8()?);
                    Some(UltrametricTree::leaf(usize::try_from(taxon).ok()?))
                }
                TAG_INTERNAL => {
                    let height = f64::from_bits(u64::from_le_bytes(take8()?));
                    let left = dec(bytes, pos)?;
                    let right = dec(bytes, pos)?;
                    if !(height >= left.height() && height >= right.height()) {
                        return None;
                    }
                    if left.taxa().any(|t| right.leaf_of(t).is_some()) {
                        return None;
                    }
                    Some(UltrametricTree::join(left, right, height))
                }
                _ => None,
            }
        }
        let mut pos = 0;
        let tree = dec(bytes, &mut pos)?;
        (pos == bytes.len()).then_some(tree)
    }

    /// Node-for-node, bit-for-bit equality of two trees' layouts.
    fn assert_same_nodes(a: &UltrametricTree, b: &UltrametricTree) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.root(), b.root());
        // Both are laid out in post-order: ids 0, 1, 2, … in walk order.
        let ids = a.post_order();
        assert!(ids.iter().map(|id| id.index()).eq(0..a.node_count()));
        for id in ids {
            assert_eq!(a.kind(id), b.kind(id), "{id:?}");
            assert_eq!(a.parent(id), b.parent(id), "{id:?}");
            assert_eq!(a.height_of(id).to_bits(), b.height_of(id).to_bits());
        }
        assert!(a.taxa().eq(b.taxa()));
        assert!(a.taxa().all(|t| a.leaf_of(t) == b.leaf_of(t)));
        assert_eq!(a.weight().to_bits(), b.weight().to_bits());
    }

    /// A random tree over `joins.len() + 1` scattered taxa: each word
    /// joins two random subtrees of the forest at a random height above
    /// both (ties included).
    fn random_tree(joins: &[u64]) -> UltrametricTree {
        let mut forest: Vec<UltrametricTree> = (0..=joins.len())
            .map(|i| UltrametricTree::leaf(i * 7 + 3))
            .collect();
        for &w in joins {
            let a = forest.swap_remove(w as usize % forest.len());
            let b = forest.swap_remove((w >> 16) as usize % forest.len());
            let height = a.height().max(b.height()) + (w >> 40) as f64 * 1e-3;
            forest.push(UltrametricTree::join(a, b, height));
        }
        forest.pop().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The linear decoder lays out every node, parent link and height
        /// bit exactly as the join-based one did, and refuses exactly the
        /// byte strings it refused: one flipped byte or a cut payload.
        #[test]
        fn decoder_agrees_with_the_join_based_reference(
            joins in proptest::collection::vec(any::<u64>(), 0..48),
            at in any::<u64>(),
            mask in 1u8..=255,
        ) {
            let bytes = encode_tree(&random_tree(&joins));
            let decoded = decode_tree(&bytes).expect("a valid payload decodes");
            assert_same_nodes(&decoded, &reference_decode(&bytes).unwrap());
            prop_assert_eq!(encode_tree(&decoded), bytes.clone());
            let at = at as usize % bytes.len();
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            for bad in [&flipped[..], &bytes[..at]] {
                match (decode_tree(bad), reference_decode(bad)) {
                    (Some(a), Some(b)) => assert_same_nodes(&a, &b),
                    (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
                }
            }
        }
    }

    #[test]
    fn deep_nesting_is_refused_without_recursion() {
        // 200 000 nested internal tags and no leaf: a recursive decoder
        // overflows a test thread's stack long before it finds the cut.
        const DEPTH: usize = 200_000;
        let mut bytes = Vec::with_capacity(9 * DEPTH);
        for _ in 0..DEPTH {
            bytes.push(TAG_INTERNAL);
            bytes.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        }
        assert!(decode_tree(&bytes).is_none());
        // Completed into a valid caterpillar of the same depth, it decodes.
        for (i, node) in bytes.chunks_mut(9).enumerate() {
            let height = (DEPTH - i) as f64;
            node[1..].copy_from_slice(&height.to_bits().to_le_bytes());
        }
        for taxon in 0..=DEPTH as u64 {
            bytes.push(TAG_LEAF);
            bytes.extend_from_slice(&taxon.to_le_bytes());
        }
        let tree = decode_tree(&bytes).expect("a deep caterpillar decodes");
        assert_eq!(tree.leaf_count(), DEPTH + 1);
        assert_eq!(tree.height(), DEPTH as f64);
    }

    #[test]
    fn deep_caterpillar_encodes_and_prints_without_recursion() {
        // The 200 001-taxon caterpillar the decoder accepts above: a
        // recursive walker overflows a test thread's stack on it.
        const DEPTH: usize = 200_000;
        let mut bytes = Vec::with_capacity(9 * (2 * DEPTH + 1));
        for i in 0..DEPTH {
            bytes.push(TAG_INTERNAL);
            bytes.extend_from_slice(&((DEPTH - i) as f64).to_bits().to_le_bytes());
        }
        for taxon in 0..=DEPTH as u64 {
            bytes.push(TAG_LEAF);
            bytes.extend_from_slice(&taxon.to_le_bytes());
        }
        let tree = decode_tree(&bytes).expect("a deep caterpillar decodes");
        assert_eq!(encode_tree(&tree), bytes);
        let text = crate::newick::to_newick(&tree);
        assert_eq!(text.matches('(').count(), DEPTH);
        assert!(text.starts_with("(((") && text.contains("(t0:1,t1:1):1,t2:2):1,t3:3)"));
        assert!(text.ends_with(",t200000:200000);"));
    }

    fn sample() -> UltrametricTree {
        UltrametricTree::join(
            UltrametricTree::cherry(0, 3, 1.5),
            UltrametricTree::join(
                UltrametricTree::cherry(1, 4, 0.25),
                UltrametricTree::leaf(2),
                2.0,
            ),
            7.125,
        )
    }

    #[test]
    fn round_trips_bit_exactly() {
        let t = sample();
        let decoded = decode_tree(&encode_tree(&t)).unwrap();
        assert_eq!(decoded.weight().to_bits(), t.weight().to_bits());
        assert_eq!(decoded.height().to_bits(), t.height().to_bits());
        assert_eq!(
            decoded.taxa().collect::<Vec<_>>(),
            t.taxa().collect::<Vec<_>>()
        );
        for a in t.taxa() {
            for b in t.taxa().filter(|&b| b > a) {
                assert_eq!(
                    decoded.leaf_distance(a, b).unwrap().to_bits(),
                    t.leaf_distance(a, b).unwrap().to_bits(),
                    "distance ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn single_leaf_round_trips() {
        let t = UltrametricTree::leaf(7);
        let decoded = decode_tree(&encode_tree(&t)).unwrap();
        assert_eq!(decoded.taxa().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn malformed_bytes_are_rejected_not_panicked() {
        let good = encode_tree(&sample());
        // Truncations at every prefix length.
        for len in 0..good.len() {
            assert!(decode_tree(&good[..len]).is_none(), "prefix {len}");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_tree(&long).is_none());
        // Unknown tag.
        let mut bad = good.clone();
        bad[0] = 9;
        assert!(decode_tree(&bad).is_none());
        // A join height below its subtrees (flip sign bit of the root
        // height) must be refused, not panicked on.
        let mut neg = good;
        neg[8] ^= 0x80;
        assert!(decode_tree(&neg).is_none());
        // Duplicate taxa.
        let dup = encode_tree(&UltrametricTree::cherry(0, 1, 1.0));
        let mut twice = vec![TAG_INTERNAL];
        twice.extend_from_slice(&2.0f64.to_bits().to_le_bytes());
        twice.extend_from_slice(&dup);
        twice.extend_from_slice(&dup);
        assert!(decode_tree(&twice).is_none());
    }
}
