use mutree_bnb::bound::triple_index;
use mutree_bnb::propagate::{Arm, TripleDomains};
use mutree_distmat::DistanceMatrix;
use mutree_tree::UltrametricTree;

use crate::leafset::LeafWords;

const NONE: u32 = u32::MAX;

/// `max_{y ∈ mask} M[s, y]`, floored at `0.0` (distances are
/// non-negative; the floor makes the empty mask well-defined) — the
/// pendant-height candidate of one ancestor in the insertion walk.
#[inline]
fn max_to_mask<const K: usize>(m: &DistanceMatrix, s: usize, mask: &LeafWords<K>) -> f64 {
    let mut best = 0.0f64;
    for y in mask.iter() {
        best = best.max(m.get(s, y));
    }
    best
}

/// The triple-domain arm index: for every leaf pair `(s, u)` with
/// `s < u`, the partition of the earlier leaves `i < s` by the fixed arm
/// of triple `(i, s, u)` — one `[Earlier, WithLow, WithHigh]` mask trio
/// per pair, decoded once per problem from the packed
/// [`TripleDomains`]. [`prop_advance`](PartialTree::prop_advance) folds
/// constraints level by level along the new leaf's root path, and every
/// leaf at one level contributes the *same* region mask per arm, so
/// three `intersects` tests per level replace a per-triple arm decode
/// (folding a region twice is idempotent, see the laminar argument at
/// the fold).
#[derive(Debug, Clone, Default)]
pub(crate) struct ArmIndex<const K: usize> {
    masks: Vec<[LeafWords<K>; 3]>,
}

impl<const K: usize> ArmIndex<K> {
    /// Decodes the packed domain into per-pair arm masks. An empty
    /// domain yields an empty (inactive) index.
    pub(crate) fn build(n: usize, domains: &TripleDomains) -> Self {
        if domains.is_empty() {
            return ArmIndex::default();
        }
        let mut masks = vec![[LeafWords::EMPTY; 3]; n * n.saturating_sub(1) / 2];
        for u in 2..n {
            for s in 1..u {
                // triple_index is linear in its first argument, so the
                // codes for fixed (s, u) are contiguous from base.
                let base = triple_index(0, s, u);
                let slot = &mut masks[Self::pair(s, u)];
                for i in 0..s {
                    match domains.arm(base + i) {
                        Arm::Open => {}
                        Arm::Earlier => slot[0].insert(i),
                        Arm::WithLow => slot[1].insert(i),
                        Arm::WithHigh => slot[2].insert(i),
                    }
                }
            }
        }
        ArmIndex { masks }
    }

    /// Whether the index carries no pairs (propagation inactive).
    pub(crate) fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    #[inline]
    fn pair(s: usize, u: usize) -> usize {
        debug_assert!(s < u);
        u * (u - 1) / 2 + s
    }

    /// The `[Earlier, WithLow, WithHigh]` masks of pair `(s, u)`.
    #[inline]
    fn masks(&self, s: usize, u: usize) -> &[LeafWords<K>; 3] {
        &self.masks[Self::pair(s, u)]
    }
}

/// A node of the branch-and-bound tree (BBT): an ultrametric tree over the
/// first `k` species of a (maxmin-relabeled) matrix, with minimal heights.
///
/// The encoding is a flat arena sized for the complete tree so that clones
/// — the dominant cost of branching — are straight `memcpy`s:
///
/// * node ids `0..n` are the leaves (id = taxon); ids `n..2n-1` are
///   internal nodes, allocated in insertion order (inserting taxon `s`
///   creates internal node `n + s − 1`);
/// * each node stores its parent, children, height, and the
///   [`LeafWords<K>`] bitset of leaves below it. `K` fixes the taxa
///   ceiling at `64·K`; the solver monomorphizes K = 1, 2, 4 and
///   dispatches on the matrix size (see
///   [`leaf_words_for`](crate::leaf_words_for)), so the default `K = 1`
///   compiles to the historical single-`u64` arena.
///
/// Heights are kept *minimal* for the topology at all times: inserting a
/// leaf only updates heights along its root path, using the leaf masks to
/// find the cross pairs each ancestor newly separates.
#[derive(Debug)]
pub struct PartialTree<const K: usize = 1> {
    parent: Vec<u32>,
    left: Vec<u32>,
    right: Vec<u32>,
    height: Vec<f64>,
    leafset: Vec<LeafWords<K>>,
    root: u32,
    k: u32,
    n: u32,
    weight: f64,
    lb: f64,
    /// Future-leaf confinement masks for the propagation stage, indexed
    /// by taxon: `prop_inside[u]` is the leafset of the current subtree
    /// `u` must insert into (its edge included), `prop_outside[u]` the
    /// leafset of the current subtree `u` must not insert strictly
    /// inside. `EMPTY` means unconstrained; the vectors are empty — no
    /// per-node cost at all — unless the problem propagates (the full
    /// 3-3 rule).
    prop_inside: Vec<LeafWords<K>>,
    prop_outside: Vec<LeafWords<K>>,
    /// Some future leaf's confinements contradict: every completion of
    /// this node dies in a later 3-3 check, so the kernel prunes it.
    prop_wiped: bool,
    /// Per-level (sibling, ancestor) leafsets along the newest leaf's
    /// root path — scratch for [`prop_advance`](Self::prop_advance),
    /// kept on the node so a recycled tree re-fills it without
    /// allocating. Contents are meaningless between calls, so clones
    /// don't copy it (and `clone_from` leaves the capacity in place).
    prop_scratch: Vec<(LeafWords<K>, LeafWords<K>)>,
}

impl<const K: usize> Clone for PartialTree<K> {
    fn clone(&self) -> Self {
        PartialTree {
            parent: self.parent.clone(),
            left: self.left.clone(),
            right: self.right.clone(),
            height: self.height.clone(),
            leafset: self.leafset.clone(),
            root: self.root,
            k: self.k,
            n: self.n,
            weight: self.weight,
            lb: self.lb,
            prop_inside: self.prop_inside.clone(),
            prop_outside: self.prop_outside.clone(),
            prop_wiped: self.prop_wiped,
            prop_scratch: Vec::new(),
        }
    }

    /// Overwrites `self` without reallocating: the arena vectors of a
    /// retired tree from the same matrix already have the right capacity,
    /// so this is a handful of `memcpy`s — five arena vectors plus the
    /// two confinement-mask vectors when propagation is on. This is what
    /// makes [`insert_next_into`](PartialTree::insert_next_into)
    /// allocation-free.
    fn clone_from(&mut self, source: &Self) {
        self.parent.clone_from(&source.parent);
        self.left.clone_from(&source.left);
        self.right.clone_from(&source.right);
        self.height.clone_from(&source.height);
        self.leafset.clone_from(&source.leafset);
        self.root = source.root;
        self.k = source.k;
        self.n = source.n;
        self.weight = source.weight;
        self.lb = source.lb;
        self.prop_inside.clone_from(&source.prop_inside);
        self.prop_outside.clone_from(&source.prop_outside);
        self.prop_wiped = source.prop_wiped;
        // prop_scratch deliberately untouched: its contents are dead
        // between prop_advance calls and the retained capacity is the
        // point of recycling.
    }
}

impl<const K: usize> PartialTree<K> {
    /// Taxa ceiling of this leaf-bitset width: `64·K` leaves fit in the
    /// per-node [`LeafWords<K>`] mask.
    pub const MAX_TAXA: usize = LeafWords::<K>::CAPACITY;

    /// The root BBT node: the unique topology over taxa `{0, 1}`, with
    /// height `M[0,1] / 2`.
    ///
    /// # Panics
    ///
    /// Panics when the matrix exceeds [`MAX_TAXA`](Self::MAX_TAXA) taxa
    /// (enforce via [`MutSolver`](crate::MutSolver), which dispatches to a
    /// wide-enough width and returns an error beyond the widest).
    pub fn cherry(m: &DistanceMatrix) -> Self {
        let n = m.len();
        assert!(
            n <= Self::MAX_TAXA,
            "PartialTree with {K} leaf words supports at most {} taxa, got {n}",
            Self::MAX_TAXA
        );
        let cap = 2 * n - 1;
        let mut t = PartialTree {
            parent: vec![NONE; cap],
            left: vec![NONE; cap],
            right: vec![NONE; cap],
            height: vec![0.0; cap],
            leafset: vec![LeafWords::EMPTY; cap],
            root: n as u32,
            k: 2,
            n: n as u32,
            weight: 0.0,
            lb: 0.0,
            prop_inside: Vec::new(),
            prop_outside: Vec::new(),
            prop_wiped: false,
            prop_scratch: Vec::new(),
        };
        for leaf in 0..n {
            t.leafset[leaf] = LeafWords::singleton(leaf);
        }
        let r = n; // first internal node
        t.left[r] = 0;
        t.right[r] = 1;
        t.parent[0] = r as u32;
        t.parent[1] = r as u32;
        t.leafset[r] = LeafWords::singleton(0).union(LeafWords::singleton(1));
        t.height[r] = m.get(0, 1) / 2.0;
        t.weight = m.get(0, 1);
        t
    }

    /// Number of species inserted so far.
    pub fn leaves_inserted(&self) -> usize {
        self.k as usize
    }

    /// Total number of species of the underlying matrix.
    pub fn taxon_count(&self) -> usize {
        self.n as usize
    }

    /// Whether all species are inserted.
    pub fn is_complete(&self) -> bool {
        self.k == self.n
    }

    /// Current tree weight `ω` (minimal for the topology).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The cached lower bound (weight plus the insertion-cost suffix;
    /// maintained by [`MutProblem`](crate::MutProblem)).
    pub fn lower_bound(&self) -> f64 {
        self.lb
    }

    pub(crate) fn set_lower_bound(&mut self, lb: f64) {
        self.lb = lb;
    }

    /// All current insertion sites: inserting "above node `v`" splits the
    /// edge from `v` to its parent (or roots a new node above the whole
    /// tree when `v` is the root). A tree over `k` leaves has `2k − 1`
    /// sites.
    pub fn insertion_sites(&self) -> impl Iterator<Item = u32> + '_ {
        let n = self.n as usize;
        let k = self.k as usize;
        (0..k).chain(n..n + k - 1).map(|v| v as u32)
    }

    /// Returns a copy of this tree with the next species (`taxon = k`)
    /// inserted above node `site`, with heights and weight updated.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the tree is already complete or
    /// `site` is not a live node.
    pub fn insert_next(&self, m: &DistanceMatrix, site: u32) -> PartialTree<K> {
        let mut t = self.clone();
        t.insert_in_place(m, site);
        t
    }

    /// Like [`insert_next`](PartialTree::insert_next), but writes the child
    /// into `scratch` (typically a retired sibling from the same search)
    /// instead of allocating a fresh tree. With a warmed-up scratch this is
    /// allocation-free: `clone_from` reuses the arena vectors in place.
    pub fn insert_next_into(&self, m: &DistanceMatrix, site: u32, scratch: &mut PartialTree<K>) {
        scratch.clone_from(self);
        scratch.insert_in_place(m, site);
    }

    /// Inserts the next species above `site`, mutating `self` (which must
    /// be a copy of the parent node).
    fn insert_in_place(&mut self, m: &DistanceMatrix, site: u32) {
        debug_assert!(!self.is_complete(), "tree is already complete");
        let s = self.k as usize; // the taxon being inserted
        let n = self.n as usize;
        let e = site as usize;
        debug_assert!(
            e < s || (n..n + s - 1).contains(&e),
            "site {e} is not a live node"
        );
        let j = n + s - 1; // the new internal node
        let p = self.parent[e];
        let sbit = LeafWords::singleton(s);

        self.left[j] = e as u32;
        self.right[j] = s as u32;
        self.parent[j] = p;
        self.parent[e] = j as u32;
        self.parent[s] = j as u32;
        self.leafset[j] = self.leafset[e].union(sbit);
        let cand = max_to_mask(m, s, &self.leafset[e]) / 2.0;
        self.height[j] = self.height[e].max(cand);
        if p == NONE {
            self.root = j as u32;
        } else {
            let p = p as usize;
            if self.left[p] == site {
                self.left[p] = j as u32;
            } else {
                debug_assert_eq!(self.right[p], site);
                self.right[p] = j as u32;
            }
        }

        // Walk up from the new node, folding in the pairs (s, y) newly
        // separated at each ancestor: exactly the leaves of the sibling
        // subtree at that ancestor.
        let mut child = j;
        let mut a = p;
        while a != NONE {
            let ai = a as usize;
            self.leafset[ai] |= sbit;
            let sibling = if self.left[ai] == child as u32 {
                self.right[ai]
            } else {
                self.left[ai]
            } as usize;
            let cand = max_to_mask(m, s, &self.leafset[sibling]) / 2.0;
            self.height[ai] = self.height[ai].max(self.height[child]).max(cand);
            child = ai;
            a = self.parent[ai];
        }

        self.k += 1;
        self.weight = self.recompute_weight();
    }

    fn recompute_weight(&self) -> f64 {
        let n = self.n as usize;
        let k = self.k as usize;
        let mut w = 0.0;
        for v in (0..k).chain(n..n + k - 1) {
            let p = self.parent[v];
            if p != NONE {
                w += self.height[p as usize] - self.height[v];
            }
        }
        w
    }

    /// For the freshly inserted leaf `s = k − 1`, computes each earlier
    /// leaf's position along `s`'s root path: `order[y]` is `0` for leaves
    /// sharing `s`'s deepest ancestor, `1` for the next ancestor up, and so
    /// on. Two leaves share their LCA with `s` iff their orders are equal,
    /// and `LCA(y1, s)` is strictly below `LCA(y2, s)` iff
    /// `order[y1] < order[y2]` — which is all the 3-3 rule needs.
    pub fn root_path_orders(&self) -> Vec<u32> {
        let s = (self.k - 1) as usize;
        let mut order = vec![0u32; s];
        let mut level = 0u32;
        let mut child = self.parent[s]; // the joint node above s
        debug_assert_ne!(child, NONE);
        // At the joint node, the sibling subtree is everything under the
        // joint except s itself.
        let mut a = child;
        while a != NONE {
            let ai = a as usize;
            let mut sib_mask = self.leafset[ai].without(s);
            if child != a {
                let sibling = if self.left[ai] == child {
                    self.right[ai]
                } else {
                    self.left[ai]
                } as usize;
                sib_mask = self.leafset[sibling];
            }
            for y in sib_mask.iter() {
                if y < s {
                    order[y] = level;
                }
            }
            // Only count leaves not yet assigned at deeper levels: the
            // masks above are disjoint by construction (each ancestor
            // contributes exactly its sibling subtree), except the joint
            // node which contributes s's first siblings.
            child = a;
            a = self.parent[ai];
            level += 1;
        }
        order
    }

    /// Whether confinement masks are maintained on this node.
    pub(crate) fn prop_is_active(&self) -> bool {
        !self.prop_inside.is_empty()
    }

    /// Whether a confinement contradiction was detected — every
    /// completion of this node dies in a later 3-3 check, so the
    /// kernel's propagation stage prunes it.
    pub fn prop_wiped(&self) -> bool {
        self.prop_wiped
    }

    /// Starts maintaining confinement masks on this node (the search
    /// root). Masks start unset; [`prop_advance`](Self::prop_advance)
    /// fills them in as leaves insert.
    pub(crate) fn prop_activate(&mut self) {
        self.prop_inside.clear();
        self.prop_inside.resize(self.n as usize, LeafWords::EMPTY);
        self.prop_outside.clear();
        self.prop_outside.resize(self.n as usize, LeafWords::EMPTY);
        self.prop_wiped = false;
    }

    /// Whether the confinement masks of the *next* leaf to insert allow
    /// placing it above arena node `site`. By the time leaf `u` inserts,
    /// every triple `(i, j, u)` has both earlier leaves placed, so `u`'s
    /// masks are a complete fold of all its arm constraints — a rejected
    /// site is a pure look-ahead of the child's own 3-3 check, letting
    /// the branching skip the arena copy for children the filter would
    /// discard anyway. (The converse need not hold: an allowed site can
    /// still fail the check, so the filter keeps running on survivors.)
    pub(crate) fn prop_allows(&self, site: u32) -> bool {
        let u = self.k as usize;
        let lx = self.leafset[site as usize];
        // Inside: u must insert within the `ins` subtree, its top edge
        // included — the site's leafset must not escape it.
        let ins = self.prop_inside[u];
        if !ins.is_empty() && !lx.is_subset(&ins) {
            return false;
        }
        // Outside: u must not insert strictly inside the `outs`
        // subtree; its own top edge stays legal.
        let outs = self.prop_outside[u];
        !(!outs.is_empty() && lx.is_subset(&outs) && lx != outs)
    }

    /// Advances the confinement masks after the newest leaf's insertion:
    /// refreshes the subtree each stored mask names, then folds in the
    /// constraints of the triples `(i, s, u)` this insertion fixed —
    /// `s = k − 1` just placed, `i < s` placed earlier, `u > s` future.
    /// Sets the wiped flag the moment some `u` has no legal region left.
    ///
    /// Each mask is the leafset of a *current* node, so the family is
    /// laminar: two masks are nested or disjoint, which is what the
    /// intersection (inside) and keep-the-largest (outside) rules and
    /// the `inside ⊊ outside` wipe test rely on. On insertion of `s`
    /// above node `e`, exactly the subtrees whose leafsets contain
    /// `leafset(e)` gain the new leaf. An inside mask names "the i-side
    /// child of the triple's LCA", a node the insertion *replaces* when
    /// `e` is that child itself, so inside masks refresh on
    /// `leafset(e) ⊆ M`; an outside mask names the LCA node, whose
    /// identity survives an insertion directly above it, so outside
    /// masks refresh only on the strict `leafset(e) ⊊ M`.
    pub(crate) fn prop_advance(&mut self, arms: &ArmIndex<K>) {
        debug_assert!(self.prop_is_active() && !self.prop_wiped);
        let s = (self.k - 1) as usize;
        let n = self.n as usize;
        let joint = self.parent[s] as usize;
        let e = if self.left[joint] == s as u32 {
            self.right[joint]
        } else {
            self.left[joint]
        } as usize;
        let sb = self.leafset[e];
        let sbit = LeafWords::singleton(s);

        // The new constraints need, per root-path level of s, the
        // ancestor's leafset and its off-path child subtree: all i at
        // the same level share LCA(i, s) and therefore the same region
        // masks. The walk fills the node-recycled scratch, so after the
        // child pool warms up this whole routine allocates nothing.
        let mut levels = std::mem::take(&mut self.prop_scratch);
        levels.clear();
        levels.push((sb, self.leafset[joint]));
        let mut child = joint as u32;
        let mut a = self.parent[joint];
        while a != NONE {
            let ai = a as usize;
            let sibling = if self.left[ai] == child {
                self.right[ai]
            } else {
                self.left[ai]
            } as usize;
            levels.push((self.leafset[sibling], self.leafset[ai]));
            child = a;
            a = self.parent[ai];
        }

        // The sibling masks partition the placed leaves `0..s`, and
        // every leaf at one level contributes the same region mask per
        // arm, so three intersection tests per level fold exactly what
        // the per-triple walk would; the fold outcome is
        // order-independent (the inside chain keeps its minimum, the
        // outside chain its maximum, a disjoint pair wipes under any
        // order, and re-folding a region is idempotent).
        'future: for u in (s + 1)..n {
            let mut ins = self.prop_inside[u];
            let mut outs = self.prop_outside[u];
            // Refresh first: inserting s grew exactly the subtrees whose
            // leafsets contain `leafset(e)`. An inside mask names a node
            // the insertion may *replace* (the e-side child of the
            // triple's LCA), so it refreshes on the non-strict subset;
            // an outside mask names the LCA itself, whose identity
            // survives an insertion directly above it, so it refreshes
            // only on the strict one. Masks of already-placed leaves
            // (`u ≤ s`) are dead and deliberately skipped.
            let mut touched = false;
            if !ins.is_empty() && sb.is_subset(&ins) {
                ins |= sbit;
                touched = true;
            }
            if !outs.is_empty() && sb.is_subset(&outs) && outs != sb {
                outs |= sbit;
                touched = true;
            }

            let &[earlier, with_low, with_high] = arms.masks(s, u);
            let constrained = earlier.union(with_low).union(with_high);
            let mut folded = false;
            if !constrained.is_empty() {
                for (lvl, &(sib, anc)) in levels.iter().enumerate() {
                    if !sib.intersects(&constrained) {
                        continue;
                    }
                    // (i, s) close and both placed: u must not insert
                    // strictly inside their LCA's subtree. Keep the
                    // largest such region — it subsumes nested ones.
                    if sib.intersects(&earlier) && (outs.is_empty() || outs.is_subset(&anc)) {
                        outs = anc;
                        folded = true;
                    }
                    // (i, u) close ⇒ u inside the i-side child of
                    // LCA(i, s); (s, u) close ⇒ inside the s-side child.
                    // Inside regions intersect: laminar, so either
                    // nested (keep the smaller) or disjoint (wipeout).
                    let below = if lvl == 0 { sbit } else { levels[lvl - 1].1 };
                    let folds = [
                        sib.intersects(&with_low).then_some(sib),
                        sib.intersects(&with_high).then_some(below),
                    ];
                    for m in folds.into_iter().flatten() {
                        if ins.is_empty() || m.is_subset(&ins) {
                            ins = m;
                            folded = true;
                        } else if !ins.is_subset(&m) {
                            self.prop_wiped = true;
                            break 'future;
                        }
                    }
                }
            }
            if folded {
                // Wipe when the required region sits strictly inside
                // the forbidden one; equality still leaves the site on
                // the region's own top edge. A refresh alone cannot
                // create the strict containment, so only a fold needs
                // the test.
                if !ins.is_empty() && !outs.is_empty() && ins.is_subset(&outs) && ins != outs {
                    self.prop_wiped = true;
                    break 'future;
                }
            }
            if touched || folded {
                self.prop_inside[u] = ins;
                self.prop_outside[u] = outs;
            }
        }
        self.prop_scratch = levels;
    }

    /// Converts to a full [`UltrametricTree`] (taxa keep their ids in the
    /// matrix this tree was built against).
    pub fn to_ultrametric(&self) -> UltrametricTree {
        fn build<const K: usize>(t: &PartialTree<K>, v: usize) -> UltrametricTree {
            if v < t.n as usize {
                UltrametricTree::leaf(v)
            } else {
                let l = build(t, t.left[v] as usize);
                let r = build(t, t.right[v] as usize);
                UltrametricTree::join(l, r, t.height[v])
            }
        }
        build(self, self.root as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m5() -> DistanceMatrix {
        DistanceMatrix::from_rows(&[
            vec![0.0, 9.0, 4.0, 6.0, 5.0],
            vec![9.0, 0.0, 7.0, 8.0, 6.0],
            vec![4.0, 7.0, 0.0, 3.0, 5.0],
            vec![6.0, 8.0, 3.0, 0.0, 5.0],
            vec![5.0, 6.0, 5.0, 5.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn cherry_weight_and_sites() {
        let m = m5();
        let t = PartialTree::<1>::cherry(&m);
        assert_eq!(t.leaves_inserted(), 2);
        assert_eq!(t.weight(), 9.0);
        assert_eq!(t.insertion_sites().count(), 3);
        assert!(!t.is_complete());
    }

    #[test]
    fn insertion_site_count_grows_correctly() {
        let m = m5();
        let mut t = PartialTree::<1>::cherry(&m);
        for expect in [3usize, 5, 7] {
            assert_eq!(t.insertion_sites().count(), expect);
            let site = t.insertion_sites().next().unwrap();
            t = t.insert_next(&m, site);
        }
        assert!(t.is_complete());
    }

    /// Every topology reachable by insertions must have the same weight as
    /// the same topology built as an `UltrametricTree` and refit.
    #[test]
    fn weight_matches_fit_heights_everywhere() {
        let m = m5();
        // Depth-first over all insertion sequences.
        let mut stack = vec![PartialTree::<1>::cherry(&m)];
        let mut seen = 0;
        while let Some(t) = stack.pop() {
            if t.is_complete() {
                seen += 1;
                let mut ut = t.to_ultrametric();
                let w = ut.fit_heights(&m);
                assert!(
                    (w - t.weight()).abs() < 1e-9,
                    "incremental weight {} != refit {}",
                    t.weight(),
                    w
                );
                assert!(ut.is_feasible_for(&m, 1e-9));
                continue;
            }
            let sites: Vec<u32> = t.insertion_sites().collect();
            for site in sites {
                stack.push(t.insert_next(&m, site));
            }
        }
        // A(5) = 3 * 5 * 7 = 105 distinct insertion sequences/topologies.
        assert_eq!(seen, 105);
    }

    #[test]
    fn weight_never_decreases_with_insertions() {
        let m = m5();
        let t = PartialTree::<1>::cherry(&m);
        for site in t.insertion_sites().collect::<Vec<_>>() {
            let t2 = t.insert_next(&m, site);
            assert!(t2.weight() >= t.weight() - 1e-12);
            for site2 in t2.insertion_sites().collect::<Vec<_>>() {
                let t3 = t2.insert_next(&m, site2);
                assert!(t3.weight() >= t2.weight() - 1e-12);
            }
        }
    }

    #[test]
    fn to_ultrametric_is_valid() {
        let m = m5();
        let mut t = PartialTree::<1>::cherry(&m);
        while !t.is_complete() {
            let site = t.insertion_sites().last().unwrap();
            t = t.insert_next(&m, site);
        }
        let ut = t.to_ultrametric();
        assert!(ut.validate().is_ok());
        assert_eq!(ut.leaf_count(), 5);
        assert!(ut.is_feasible_for(&m, 1e-9));
    }

    /// `insert_next_into` over a dirty scratch must produce a tree
    /// bit-identical to a fresh `insert_next`.
    #[test]
    fn insert_next_into_matches_insert_next() {
        let m = m5();
        let base = PartialTree::<1>::cherry(&m).insert_next(&m, 1);
        let mut scratch = PartialTree::<1>::cherry(&m); // deliberately stale state
        for site in base.insertion_sites().collect::<Vec<_>>() {
            let fresh = base.insert_next(&m, site);
            base.insert_next_into(&m, site, &mut scratch);
            assert_eq!(format!("{fresh:?}"), format!("{scratch:?}"), "site {site}");
        }
    }

    #[test]
    fn root_path_orders_reflect_topology() {
        let m = m5();
        // Build ((0,2),1): insert 2 above leaf 0.
        let t = PartialTree::<1>::cherry(&m).insert_next(&m, 0);
        // s = 2; path: joint above {0,2}, then root. 0 shares the joint
        // (order 0); 1 hangs off the root (order 1).
        let order = t.root_path_orders();
        assert_eq!(order, vec![0, 1]);

        // Build (0,(1,2)): insert 2 above leaf 1.
        let t = PartialTree::<1>::cherry(&m).insert_next(&m, 1);
        assert_eq!(t.root_path_orders(), vec![1, 0]);

        // Insert 2 above the root: both 0 and 1 are one level up.
        let t = PartialTree::<1>::cherry(&m).insert_next(&m, 5);
        assert_eq!(t.root_path_orders(), vec![0, 0]);
    }

    #[test]
    fn heights_are_minimal_after_each_insertion() {
        let m = m5();
        let mut stack = vec![PartialTree::<1>::cherry(&m)];
        while let Some(t) = stack.pop() {
            let mut ut = t.to_ultrametric();
            let refit = ut.fit_heights(&m);
            assert!(
                (refit - t.weight()).abs() < 1e-9,
                "partial tree at k = {} not minimal",
                t.leaves_inserted()
            );
            if t.leaves_inserted() < 4 {
                for site in t.insertion_sites().collect::<Vec<_>>() {
                    stack.push(t.insert_next(&m, site));
                }
            }
        }
    }

    /// Same matrix, different widths: each insertion must produce the
    /// same topology, heights and weight regardless of K.
    #[test]
    fn widths_agree_on_every_insertion_path() {
        let m = m5();
        let mut stack = vec![(PartialTree::<1>::cherry(&m), PartialTree::<2>::cherry(&m))];
        while let Some((t1, t2)) = stack.pop() {
            assert_eq!(t1.weight(), t2.weight());
            assert_eq!(
                format!("{:?}", t1.to_ultrametric()),
                format!("{:?}", t2.to_ultrametric())
            );
            if !t1.is_complete() {
                for site in t1.insertion_sites().collect::<Vec<_>>() {
                    stack.push((t1.insert_next(&m, site), t2.insert_next(&m, site)));
                }
            }
        }
    }

    #[test]
    fn prop_masks_track_confinements_across_insertions() {
        use mutree_bnb::bound::{close_pair_table_len, CLOSE_WITH_HIGH, CLOSE_WITH_LOW};
        let m = m5();
        // Hand-built domains: only the (0, 1, u) triples constrain.
        let mut codes = vec![0u8; close_pair_table_len(5)];
        codes[triple_index(0, 1, 2)] = CLOSE_WITH_LOW; // 2 inside the 0-side of LCA(0,1)
        codes[triple_index(0, 1, 3)] = CLOSE_WITH_HIGH; // 3 inside the 1-side of LCA(0,1)
        let dom = ArmIndex::<1>::build(5, &TripleDomains::pack(&codes));

        let mut t = PartialTree::<1>::cherry(&m);
        t.prop_activate();
        t.prop_advance(&dom);
        assert!(!t.prop_wiped());
        assert_eq!(t.prop_inside[2], LeafWords::singleton(0));
        assert_eq!(t.prop_inside[3], LeafWords::singleton(1));
        assert!(t.prop_inside[4].is_empty());

        // Inserting 2 above leaf 1 replaces leaf 1 — the subtree 3 is
        // confined to — with the node {1, 2}: the mask must follow.
        let mut above_leaf = t.insert_next(&m, 1);
        above_leaf.prop_advance(&dom);
        assert!(!above_leaf.prop_wiped());
        let grown = LeafWords::singleton(1).union(LeafWords::singleton(2));
        assert_eq!(above_leaf.prop_inside[3], grown);
        assert_eq!(above_leaf.prop_inside[2], LeafWords::singleton(0));

        // Inserting 2 above the root leaves both LCA children intact:
        // no mask moves.
        let mut above_root = t.insert_next(&m, 5);
        above_root.prop_advance(&dom);
        assert!(!above_root.prop_wiped());
        assert_eq!(above_root.prop_inside[3], LeafWords::singleton(1));
        assert_eq!(above_root.prop_inside[2], LeafWords::singleton(0));
    }

    #[test]
    fn prop_wipes_on_disjoint_confinements() {
        use mutree_bnb::bound::{close_pair_table_len, CLOSE_WITH_HIGH, CLOSE_WITH_LOW};
        let m = m5();
        let mut codes = vec![0u8; close_pair_table_len(5)];
        // 3 inside the 0-side of LCA(0,1) = {0} ...
        codes[triple_index(0, 1, 3)] = CLOSE_WITH_LOW;
        // ... but also inside the 2-side of LCA(0,2), which after
        // inserting 2 above leaf 1 is the node {1, 2}: disjoint regions.
        codes[triple_index(0, 2, 3)] = CLOSE_WITH_HIGH;
        let dom = ArmIndex::<1>::build(5, &TripleDomains::pack(&codes));

        let mut t = PartialTree::<1>::cherry(&m);
        t.prop_activate();
        t.prop_advance(&dom);
        assert!(!t.prop_wiped());
        assert_eq!(t.prop_inside[3], LeafWords::singleton(0));

        let mut child = t.insert_next(&m, 1);
        child.prop_advance(&dom);
        assert!(child.prop_wiped());
    }

    #[test]
    fn prop_activation_survives_clones() {
        let m = m5();
        let mut t = PartialTree::<1>::cherry(&m);
        assert!(!t.prop_is_active());
        t.prop_activate();
        assert!(t.prop_is_active());
        let cloned = t.clone();
        assert!(cloned.prop_is_active());
        assert!(!cloned.prop_wiped());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The invariant `root_path_orders` relies on (noted at the sibling
        /// walk above): after any insertion sequence, the sibling masks
        /// along the new leaf's root path are pairwise disjoint, every
        /// node's leafset is the union of its children's, and popcounts add
        /// up.
        #[test]
        fn sibling_masks_stay_disjoint(n in 4usize..12, seed in any::<u64>()) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let m = mutree_distmat::gen::uniform_metric(n, 1.0, 50.0, &mut rng);
            let mut t = PartialTree::<2>::cherry(&m);
            while !t.is_complete() {
                let sites: Vec<u32> = t.insertion_sites().collect();
                let site = sites[rng.gen_range(0..sites.len())];
                t = t.insert_next(&m, site);

                // Check the consistency invariants on the whole arena.
                let s = t.leaves_inserted() - 1;
                let live: Vec<usize> = (0..=s).chain(n..n + s).collect();
                for &v in &live {
                    if v < n {
                        prop_assert_eq!(t.leafset[v], LeafWords::singleton(v));
                        continue;
                    }
                    let l = t.leafset[t.left[v] as usize];
                    let r = t.leafset[t.right[v] as usize];
                    prop_assert!(l.is_disjoint(&r), "children of {} overlap", v);
                    prop_assert_eq!(l.union(r), t.leafset[v]);
                    prop_assert_eq!(l.count() + r.count(), t.leafset[v].count());
                }

                // Walk s's root path and collect the sibling masks the 3-3
                // order computation consumes: pairwise disjoint, union =
                // all earlier leaves.
                let mut masks: Vec<LeafWords<2>> = Vec::new();
                let joint = t.parent[s] as usize;
                masks.push(t.leafset[joint].without(s));
                let mut child = joint;
                let mut a = t.parent[joint];
                while a != NONE {
                    let ai = a as usize;
                    let sib = if t.left[ai] == child as u32 { t.right[ai] } else { t.left[ai] };
                    masks.push(t.leafset[sib as usize]);
                    child = ai;
                    a = t.parent[ai];
                }
                for (i, a) in masks.iter().enumerate() {
                    for b in &masks[i + 1..] {
                        prop_assert!(a.is_disjoint(b));
                    }
                }
                let all = masks.iter().fold(LeafWords::EMPTY, |acc, &mk| acc.union(mk));
                prop_assert_eq!(all.count() as usize, s);
            }
        }
    }
}
