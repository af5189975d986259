//! Topological comparison of leaf-labeled trees.
//!
//! The Robinson–Foulds distance counts the clades (leaf subsets under an
//! internal node) present in one tree but not the other. Zero means the
//! topologies are identical; the maximum for two rooted binary trees on
//! `n` shared leaves is `2(n − 2)`. It is the standard way to score a
//! reconstructed phylogeny against the true genealogy.

use std::collections::{HashMap, HashSet};

use crate::{NodeKind, TreeError, UltrametricTree};

/// Visits the nontrivial clades of `tree`, the leaf sets of its internal
/// nodes other than the root, as `(lo, hi, size)`: the least and greatest
/// rank of their taxa under `rank`, and how many taxa they hold. One
/// post-order pass, `O(n)` besides the ranks.
fn clade_spans(
    tree: &UltrametricTree,
    rank: impl Fn(usize) -> usize,
    mut visit: impl FnMut(usize, usize, usize),
) {
    let mut span = vec![(0, 0, 0); tree.node_count()];
    let root = tree.root();
    for id in tree.post_order() {
        span[id.index()] = match tree.kind(id) {
            NodeKind::Leaf(t) => (rank(t), rank(t), 1),
            NodeKind::Internal(a, b) => {
                let (a, b) = (span[a.index()], span[b.index()]);
                let s = (a.0.min(b.0), a.1.max(b.1), a.2 + b.2);
                if id != root {
                    visit(s.0, s.1, s.2);
                }
                s
            }
        };
    }
}

/// The Robinson–Foulds distance between two trees on the same taxa: the
/// size of the symmetric difference of their nontrivial clade sets.
///
/// Day's algorithm, in linear time and space: ranked by their order in
/// `a`'s post-order, the taxa of each clade of `a` form an interval, so a
/// clade of `b` is one of `a`'s exactly when its taxa fill an interval
/// that `a` has as a clade. No clade is listed taxon by taxon, so a
/// caterpillar of any size compares in `O(n)`.
///
/// # Errors
///
/// [`TreeError::UnknownTaxon`] when the taxon sets differ (reported for
/// the first taxon present in one tree but not the other).
pub fn robinson_foulds(a: &UltrametricTree, b: &UltrametricTree) -> Result<usize, TreeError> {
    let ta: Vec<usize> = a.taxa().collect();
    let tb: Vec<usize> = b.taxa().collect();
    if ta != tb {
        let missing = ta
            .iter()
            .find(|t| !tb.contains(t))
            .or_else(|| tb.iter().find(|t| !ta.contains(t)))
            .copied()
            .unwrap_or(0);
        return Err(TreeError::UnknownTaxon { taxon: missing });
    }
    let order = a
        .post_order()
        .into_iter()
        .filter_map(|id| match a.kind(id) {
            NodeKind::Leaf(t) => Some(t),
            NodeKind::Internal(..) => None,
        });
    let rank: HashMap<usize, usize> = order.enumerate().map(|(r, t)| (t, r)).collect();
    let mut in_a = HashSet::new();
    clade_spans(
        a,
        |t| rank[&t],
        |lo, hi, _| {
            in_a.insert((lo, hi));
        },
    );
    let (mut in_b, mut shared) = (0, 0);
    clade_spans(
        b,
        |t| rank[&t],
        |lo, hi, size| {
            in_b += 1;
            if hi - lo + 1 == size && in_a.contains(&(lo, hi)) {
                shared += 1;
            }
        },
    );
    Ok(in_a.len() + in_b - 2 * shared)
}

/// The Robinson–Foulds distance normalized by its maximum `2(n − 2)`,
/// in `[0, 1]`. Trees with fewer than 3 leaves are always at distance 0.
///
/// # Errors
///
/// [`TreeError::UnknownTaxon`] when the taxon sets differ.
pub fn robinson_foulds_normalized(
    a: &UltrametricTree,
    b: &UltrametricTree,
) -> Result<f64, TreeError> {
    let rf = robinson_foulds(a, b)?;
    let n = a.leaf_count();
    if n < 3 {
        return Ok(0.0);
    }
    Ok(rf as f64 / (2 * (n - 2)) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caterpillar(order: &[usize]) -> UltrametricTree {
        let mut t = UltrametricTree::cherry(order[0], order[1], 1.0);
        for (k, &taxon) in order.iter().enumerate().skip(2) {
            let root = t.root();
            t.insert_leaf(taxon, root);
            // Keep heights valid without a matrix: refit manually.
            let _ = k;
        }
        t
    }

    fn balanced4() -> UltrametricTree {
        UltrametricTree::join(
            UltrametricTree::cherry(0, 1, 1.0),
            UltrametricTree::cherry(2, 3, 1.0),
            2.0,
        )
    }

    #[test]
    fn identical_trees_are_at_distance_zero() {
        let t = balanced4();
        assert_eq!(robinson_foulds(&t, &t).unwrap(), 0);
        assert_eq!(robinson_foulds_normalized(&t, &t).unwrap(), 0.0);
    }

    #[test]
    fn different_pairings_differ_maximally_on_four_taxa() {
        let a = balanced4(); // clades {0,1}, {2,3}
        let b = UltrametricTree::join(
            UltrametricTree::cherry(0, 2, 1.0),
            UltrametricTree::cherry(1, 3, 1.0),
            2.0,
        ); // clades {0,2}, {1,3}
        assert_eq!(robinson_foulds(&a, &b).unwrap(), 4);
        assert_eq!(robinson_foulds_normalized(&a, &b).unwrap(), 1.0);
    }

    #[test]
    fn caterpillar_vs_balanced() {
        let a = balanced4();
        let c = caterpillar(&[0, 1, 2, 3]); // clades {0,1}, {0,1,2}
                                            // Shared clade {0,1}; unique: {2,3} vs {0,1,2} → RF = 2.
        assert_eq!(robinson_foulds(&a, &c).unwrap(), 2);
    }

    #[test]
    fn branch_lengths_do_not_matter() {
        let a = balanced4();
        let b = UltrametricTree::join(
            UltrametricTree::cherry(0, 1, 0.25),
            UltrametricTree::cherry(2, 3, 1.9),
            77.0,
        );
        assert_eq!(robinson_foulds(&a, &b).unwrap(), 0);
    }

    #[test]
    fn mismatched_taxa_error() {
        let a = balanced4();
        let b = UltrametricTree::cherry(0, 9, 1.0);
        assert!(matches!(
            robinson_foulds(&a, &b),
            Err(TreeError::UnknownTaxon { .. })
        ));
    }

    /// The clade-set definition, listing each clade's taxa: the
    /// reference the linear algorithm must agree with.
    fn reference_rf(a: &UltrametricTree, b: &UltrametricTree) -> usize {
        fn clades(tree: &UltrametricTree) -> std::collections::BTreeSet<Vec<usize>> {
            let mut sets: Vec<Vec<usize>> = vec![Vec::new(); tree.node_count()];
            let mut out = std::collections::BTreeSet::new();
            for id in tree.post_order() {
                sets[id.index()] = match tree.kind(id) {
                    NodeKind::Leaf(t) => vec![t],
                    NodeKind::Internal(l, r) => {
                        let mut set = [sets[l.index()].clone(), sets[r.index()].clone()].concat();
                        set.sort_unstable();
                        if id != tree.root() {
                            out.insert(set.clone());
                        }
                        set
                    }
                };
            }
            out
        }
        clades(a).symmetric_difference(&clades(b)).count()
    }

    #[test]
    fn linear_rf_matches_the_clade_set_definition() {
        // Random trees over scattered taxon ids, by random joins.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 2..=12usize {
            for _ in 0..20 {
                let mut trees = Vec::new();
                for _ in 0..2 {
                    let mut forest: Vec<UltrametricTree> =
                        (0..n).map(|i| UltrametricTree::leaf(5 * i + 2)).collect();
                    while forest.len() > 1 {
                        let x = forest.swap_remove(next() as usize % forest.len());
                        let y = forest.swap_remove(next() as usize % forest.len());
                        let h = x.height().max(y.height()) + 1.0;
                        forest.push(UltrametricTree::join(x, y, h));
                    }
                    trees.push(forest.pop().unwrap());
                }
                let (a, b) = (&trees[0], &trees[1]);
                assert_eq!(
                    robinson_foulds(a, b).unwrap(),
                    reference_rf(a, b),
                    "n = {n}"
                );
                assert_eq!(
                    robinson_foulds(b, a).unwrap(),
                    reference_rf(b, a),
                    "n = {n}"
                );
                assert_eq!(robinson_foulds(a, a).unwrap(), 0);
            }
        }
    }

    #[test]
    fn two_leaves_distance_zero() {
        let a = UltrametricTree::cherry(3, 5, 1.0);
        let b = UltrametricTree::cherry(3, 5, 9.0);
        assert_eq!(robinson_foulds(&a, &b).unwrap(), 0);
        assert_eq!(robinson_foulds_normalized(&a, &b).unwrap(), 0.0);
    }
}
