use mutree_bnb::bound::triple_index;
use mutree_bnb::propagate::{Arm, TripleDomains};
use mutree_distmat::DistanceMatrix;
use mutree_tree::UltrametricTree;

use crate::leafset::LeafWords;

const NONE: u32 = u32::MAX;

/// What [`PartialTree::site_weights`] writes for a cut site. Every score
/// is a sum of non-negative terms, so the mark cannot be mistaken for
/// one; `∞` could not serve, as `∞ − margin(∞)` is NaN, which a bound
/// check admits.
pub(crate) const SITE_CUT: f64 = -1.0;

/// The `n × n` table `max(M[y, f], 0) / 2`, in rows of `n`: row `y`
/// holds leaf `y`'s half-distances to every other leaf contiguously. A
/// leaf's pendant heights and its look-ahead rows (see
/// [`PartialTree`]) are slices of its row; every tree operation that
/// inserts a leaf or bounds a node takes this table.
pub fn half_distances(m: &DistanceMatrix) -> Vec<f64> {
    let n = m.len();
    let mut half = vec![0.0; n * n];
    for (y, row) in half.chunks_exact_mut(n).enumerate() {
        for (f, h) in row.iter_mut().enumerate() {
            *h = 0f64.max(m.get(y, f)) / 2.0;
        }
    }
    half
}

/// `min(a, b)` by one plain comparison. `f64::min` also returns the
/// non-NaN operand when one of them is NaN, which costs every lane a NaN
/// fix-up after the `minpd`; this lowers to the bare `minpd`. The lanes
/// never see a NaN: [`DistanceMatrix`] rejects NaN and infinite entries,
/// so every half-distance, height and row lane is finite and
/// non-negative (and `m − h` of two finite heights is finite). For
/// non-NaN operands the two functions differ at most in the sign of a
/// zero, which no comparison distinguishes and which leaves every sum
/// with a non-zero term unchanged.
#[inline(always)]
pub(crate) fn fmin(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// `max(a, b)` by one plain comparison; exact on the lanes for the
/// reasons given at [`fmin`].
#[inline(always)]
pub(crate) fn fmax(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// Row `v` of `table` (rows of width `w`), mutable, and a reader for
/// every other row.
#[inline]
fn row_and_rest<'a>(
    table: &'a mut [f64],
    w: usize,
    v: usize,
) -> (&'a mut [f64], impl Fn(usize) -> &'a [f64]) {
    let (before, rest) = table.split_at_mut(v * w);
    let (row, after) = rest.split_at_mut(w);
    let (before, after): (&[f64], &[f64]) = (before, after);
    let other = move |c: usize| {
        debug_assert_ne!(c, v);
        if c < v {
            &before[c * w..(c + 1) * w]
        } else {
            &after[(c - v - 1) * w..(c - v) * w]
        }
    };
    (row, other)
}

/// One internal node's look-ahead rows from its children's. `out` holds
/// the node's `mx_f` row then its `sub_f` row; `l` and `r` are the
/// children's `(mx_f, sub_f)` rows (a leaf passes its `half` row for
/// both). With `m = max(h, mx_f)`: `mx_f` is the larger child `mx_f`,
/// and `sub_f = min(m, (m − h) + min(sub_l, sub_r))`.
#[inline]
fn join_rows(out: &mut [f64], h: f64, l: (&[f64], &[f64]), r: (&[f64], &[f64])) {
    let (mx, sub) = out.split_at_mut(out.len() / 2);
    let lanes = mx.iter_mut().zip(sub).zip(l.0).zip(r.0).zip(l.1).zip(r.1);
    for (((((x, d), &ml), &mr), &sl), &sr) in lanes {
        *x = fmax(ml, mr);
        let m = fmax(h, *x);
        *d = fmin(m, (m - h) + fmin(sl, sr));
    }
}

/// One node of a child's root path in
/// [`PartialTree::child_min_insertions`]. `out` holds the path child's
/// `sub_f` and `other` the other child's (leaf `s`'s row at the joint
/// node, the unchanged sibling's above it); the node now sits at height
/// `h` over `mx`'s leaves plus the new leaf (`hs`). Turns `out` into the
/// node's `sub_f`, or, at the root, into `min_site Δ_f`: the root's raise
/// counts twice. The same lanes as [`join_rows`] followed by
/// [`PartialTree::min_insertions`], so the results agree bit for bit.
#[inline]
fn child_path_step(out: &mut [f64], h: f64, mx: &[f64], hs: &[f64], other: &[f64], root: bool) {
    let lanes = out.iter_mut().zip(mx).zip(hs).zip(other);
    if root {
        for (((o, &x), &y), &b) in lanes {
            let m = fmax(h, fmax(x, y));
            *o = (m - h) + fmin(m, (m - h) + fmin(*o, b));
        }
    } else {
        for (((o, &x), &y), &b) in lanes {
            let m = fmax(h, fmax(x, y));
            *o = fmin(m, (m - h) + fmin(*o, b));
        }
    }
}

/// Debug check that every lane's cheapest insertion is at least the
/// static pendant term it replaces: half the distance from future leaf
/// `lo + i` to the nearest placed leaf, `0..lo`.
#[inline]
fn debug_assert_lanes_reach_static_term(half: &[f64], n: usize, lo: usize, lanes: &[f64]) {
    debug_assert!(
        lanes.iter().enumerate().all(|(i, &cheapest)| {
            let nearest = (0..lo)
                .map(|y| half[y * n + lo + i])
                .fold(f64::INFINITY, f64::min);
            cheapest >= nearest
        }),
        "a lane's cheapest insertion fell below its static pendant term"
    );
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
/// The encoding is a flat arena sized for the complete tree, plus the
/// node's look-ahead rows, so that the copy behind every built child is
/// a straight `memcpy` of the arena and one of each row (branching scores
/// every insertion site from the parent first, in one pass — see
/// [`site_weight`](PartialTree::site_weight) — and copies only the
/// children that survive the bound):
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
/// leaf only updates heights along its root path, each ancestor rising to
/// the pendant height of the new leaf over its leaves (lane `k` of its
/// look-ahead rows).
///
/// The look-ahead rows hold, for each internal node `v` and each future
/// leaf `f ∈ k..n` (one `f64` lane per leaf, stride `n − k`):
///
/// * `mx_f[v] = max_{y ∈ L(v)} M[f, y] / 2`, the height a node joining
///   `f` to `v`'s leaves needs at least — lane `f = k` is the pendant
///   height of the next leaf at `v`;
/// * `sub_f[v]`, the cheapest insertion of `f` at a site in `v`'s
///   subtree, counting the height raises inside the subtree only: with
///   `m = max(h_v, mx_f[v])`, it is `m` for the site above `v` and
///   `m − h_v` plus a child's `sub_f` for a site below it.
///
/// A leaf's row of either kind is its row of the
/// [`half_distances`] table, so only internal nodes store rows: `mx_f`
/// then `sub_f` for node `n + i` at offset `2i·(n − k)`, `2(k − 1)(n − k)`
/// `f64`s in all (see [`heap_bytes`](PartialTree::heap_bytes)). An
/// insertion changes them only on the new leaf's root path: the child
/// copies the rest without lane `k` and recomputes that path alone.
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
    /// The look-ahead rows of the internal nodes (layout above).
    rows: Vec<f64>,
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
    /// don't copy it (and an insertion into a recycled tree leaves the
    /// capacity in place).
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
            rows: self.rows.clone(),
            prop_inside: self.prop_inside.clone(),
            prop_outside: self.prop_outside.clone(),
            prop_wiped: self.prop_wiped,
            prop_scratch: Vec::new(),
        }
    }
}

impl<const K: usize> PartialTree<K> {
    /// Taxa ceiling of this leaf-bitset width: `64·K` leaves fit in the
    /// per-node [`LeafWords<K>`] mask.
    pub const MAX_TAXA: usize = LeafWords::<K>::CAPACITY;

    /// The root BBT node: the unique topology over taxa `{0, 1}`, with
    /// height `M[0,1] / 2`, and its look-ahead rows. `half` is `m`'s
    /// [`half_distances`] table.
    ///
    /// # Panics
    ///
    /// Panics when the matrix exceeds [`MAX_TAXA`](Self::MAX_TAXA) taxa
    /// (enforce via [`MutSolver`](crate::MutSolver), which dispatches to a
    /// wide-enough width and returns an error beyond the widest).
    pub fn cherry(m: &DistanceMatrix, half: &[f64]) -> Self {
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
            rows: vec![0.0; 2 * (n - 2)],
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
        let leaf = |y: usize| (&half[y * n + 2..y * n + n], &half[y * n + 2..y * n + n]);
        join_rows(&mut t.rows, t.height[r], leaf(0), leaf(1));
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

    /// The cached lower bound on every completion: the look-ahead bound
    /// built from [`min_insertions`](Self::min_insertions), never below
    /// the weight plus the static pendant suffix (maintained by
    /// [`MutProblem`](crate::MutProblem)).
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
    /// inserted above node `site`, with heights, weight and look-ahead
    /// rows updated. `half` is the matrix's [`half_distances`] table.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the tree is already complete or
    /// `site` is not a live node.
    pub fn insert_next(&self, half: &[f64], site: u32) -> PartialTree<K> {
        let mut t = self.clone();
        t.insert_from(self, half, site);
        t
    }

    /// Like [`insert_next`](PartialTree::insert_next), but writes the child
    /// into `scratch` (typically a retired sibling from the same search)
    /// instead of allocating a fresh tree. With a warmed-up scratch this is
    /// allocation-free: the copy reuses the arena and row vectors in
    /// place.
    pub fn insert_next_into(&self, half: &[f64], site: u32, scratch: &mut PartialTree<K>) {
        scratch.insert_from(self, half, site);
    }

    /// The look-ahead lanes of this tree: one per future leaf `k..n`.
    fn lanes(&self) -> usize {
        (self.n - self.k) as usize
    }

    /// Lane `k` of node `v`'s `mx` row: `max_{y ∈ L(v)} M[k, y] / 2`,
    /// the height the next species needs to join `v`'s leaves — read
    /// from `half` for a leaf.
    #[inline]
    fn site_height(&self, half: &[f64], v: usize) -> f64 {
        let n = self.n as usize;
        if v < n {
            half[v * n + self.k as usize]
        } else {
            self.rows[2 * (v - n) * self.lanes()]
        }
    }

    /// `max(h_v, mx_k[v])`: the height node `v` rises to when the next
    /// species inserts below it, and the height of the joint node when
    /// it inserts right above `v`.
    #[inline]
    fn raised_height(&self, half: &[f64], v: usize) -> f64 {
        fmax(self.height[v], self.site_height(half, v))
    }

    /// Overwrites `self` with the child of `from` that inserting the next
    /// species above `site` produces. The arena and the confinement masks
    /// copy as they are, a handful of `memcpy`s that reuse `self`'s
    /// buffers; `prop_scratch` is left alone, as its contents are dead
    /// between [`prop_advance`](Self::prop_advance) calls and its
    /// capacity is the point of recycling.
    fn insert_from(&mut self, from: &Self, half: &[f64], site: u32) {
        debug_assert!(!from.is_complete(), "tree is already complete");
        self.parent.clone_from(&from.parent);
        self.left.clone_from(&from.left);
        self.right.clone_from(&from.right);
        self.height.clone_from(&from.height);
        self.leafset.clone_from(&from.leafset);
        self.root = from.root;
        self.k = from.k;
        self.n = from.n;
        self.weight = from.weight;
        self.lb = from.lb;
        self.prop_inside.clone_from(&from.prop_inside);
        self.prop_outside.clone_from(&from.prop_outside);
        self.prop_wiped = from.prop_wiped;

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
        self.height[j] = from.raised_height(half, e);
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

        // Walk up from the new node: each ancestor gains s and rises to
        // s's pendant height over its leaves, which covers the pairs
        // (s, y) it newly separates.
        let mut a = p;
        while a != NONE {
            let ai = a as usize;
            self.leafset[ai] |= sbit;
            self.height[ai] = from.raised_height(half, ai);
            a = self.parent[ai];
        }

        self.k += 1;
        self.weight = self.recompute_weight();
        self.refresh_rows(from, half, s);
    }

    /// Fills this child's look-ahead rows, lanes `s + 1..n`, from the
    /// parent's, lanes `s..n`, after leaf `s` inserted: copies every row
    /// without lane `s`, then recomputes the rows of `s`'s root path,
    /// joint node first. Every other subtree is unchanged, and so are its
    /// rows.
    fn refresh_rows(&mut self, from: &Self, half: &[f64], s: usize) {
        let n = self.n as usize;
        let w = self.lanes();
        self.rows.clear();
        if w == 0 {
            return;
        }
        for row in from.rows.chunks_exact(w + 1) {
            self.rows.extend_from_slice(&row[1..]);
        }
        self.rows.resize(2 * s * w, 0.0);
        let lo = s + 1;
        let leaf = |y: usize| (&half[y * n + lo..y * n + n], &half[y * n + lo..y * n + n]);
        let mut v = self.parent[s];
        while v != NONE {
            let vi = v as usize;
            let (out, other) = row_and_rest(&mut self.rows, 2 * w, vi - n);
            let pick = |c: u32| {
                let c = c as usize;
                if c < n {
                    leaf(c)
                } else {
                    other(c - n).split_at(w)
                }
            };
            join_rows(
                out,
                self.height[vi],
                pick(self.left[vi]),
                pick(self.right[vi]),
            );
            v = self.parent[vi];
        }
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

    /// The bytes of heap this node's contents occupy: the arena's
    /// `2n − 1` slots (three `u32` links, an `f64` height and a
    /// `LeafWords<K>` each), the `2(k − 1)(n − k)` `f64`s of look-ahead
    /// rows, and, when propagation is on, two `LeafWords<K>` confinement
    /// masks per taxon. A recycled node may hold spare capacity beyond
    /// this.
    pub fn heap_bytes(&self) -> u64 {
        let words = std::mem::size_of::<LeafWords<K>>();
        let bytes = self.parent.len() * (3 * 4 + 8 + words)
            + self.rows.len() * 8
            + (self.prop_inside.len() + self.prop_outside.len()) * words;
        bytes as u64
    }

    /// The weight of the child that inserting the next species above
    /// `site` would produce, computed from this tree's heights and the
    /// pendant heights in lane `k` of its rows — without building the
    /// child. One root walk per call: the single-site reference that
    /// branching's one-pass `site_weights`, which scores every site at
    /// once, must equal bit for bit.
    ///
    /// `ω = Σ internal heights + root height`. The insertion adds the new
    /// internal node `j` at `h_j = max(h_site, mx[site])` and raises each
    /// ancestor `a` of the site by `Δh_a = max(h_a, mx[a]) − h_a`, so the
    /// child weighs `(ω + c) + h_j`, where `c = Σ Δh_a` over the site's
    /// ancestors, summed from the root down with the root's `Δh` counted
    /// twice (`ω` counts the root height twice); above the root it weighs
    /// `ω − h_site + 2h_j`. This is the summation order of the top-down
    /// pass. Every height is bit-identical to the built child's, but the
    /// order is not the one [`weight`](Self::weight) uses, so the two can
    /// differ by a few ulps (see
    /// [`site_weight_margin`](Self::site_weight_margin)).
    pub fn site_weight(&self, half: &[f64], site: u32) -> f64 {
        let e = site as usize;
        let hj = self.raised_height(half, e);
        if self.parent[e] == NONE {
            return self.weight - self.height[e] + 2.0 * hj;
        }
        (self.weight + self.raise_sum(half, e)) + hj
    }

    /// `c` of non-root node `v`: the raises of its ancestors, summed from
    /// the root down, the root's counted twice.
    fn raise_sum(&self, half: &[f64], v: usize) -> f64 {
        let p = self.parent[v] as usize;
        let dh = self.raised_height(half, p) - self.height[p];
        if self.parent[p] == NONE {
            2.0 * dh
        } else {
            self.raise_sum(half, p) + dh
        }
    }

    /// [`site_weight`](Self::site_weight) of every insertion site, in one
    /// pre-order walk from the root: `scores[i]` belongs to the `i`-th
    /// site of [`insertion_sites`](Self::insertion_sites), so `scores`
    /// needs `2k − 1` entries. The walk carries `c`, the raise sum of a
    /// node's ancestors, down the tree, so each site costs `O(1)` and the
    /// scores equal the reference's bit for bit.
    ///
    /// `keep` decides whether a site's score is worth having, and must be
    /// monotone: a score it rejects, it rejects for every larger one. A
    /// site scores `(ω + c) + h_j`, and every site below it adds more
    /// non-negative raises to its `c`, so all of them score at least the
    /// prefix `ω + c`. When `keep` rejects the prefix, the walk marks the
    /// site and its whole subtree [`SITE_CUT`] without scoring them; each
    /// of them `keep` rejects on its own score too. The root's site,
    /// scored by its own formula, is never cut. The walk keeps no stack:
    /// it descends left first and climbs parent links to the next right
    /// subtree.
    pub(crate) fn site_weights(
        &self,
        half: &[f64],
        keep: impl Fn(f64) -> bool,
        scores: &mut [f64],
    ) {
        let n = self.n as usize;
        let k = self.k as usize;
        let slot = |v: u32| {
            let v = v as usize;
            if v < n {
                v
            } else {
                v - n + k
            }
        };
        let root = self.root;
        let r = root as usize;
        let hj = self.raised_height(half, r);
        scores[slot(root)] = self.weight - self.height[r] + 2.0 * hj;
        // Until a node is visited, its slot holds its `c` (or the cut
        // mark), written by its parent.
        let c = 2.0 * (hj - self.height[r]);
        scores[slot(self.left[r])] = c;
        scores[slot(self.right[r])] = c;
        let mut v = self.left[r];
        loop {
            let vi = v as usize;
            let at = slot(v);
            let c = scores[at];
            let prefix = self.weight + c;
            let below = if c != SITE_CUT && keep(prefix) {
                let hj = self.raised_height(half, vi);
                scores[at] = prefix + hj;
                c + (hj - self.height[vi])
            } else {
                scores[at] = SITE_CUT;
                SITE_CUT
            };
            if vi >= n {
                scores[slot(self.left[vi])] = below;
                scores[slot(self.right[vi])] = below;
                v = self.left[vi];
                continue;
            }
            // A leaf ends a left-first descent: climb to the nearest
            // ancestor whose right subtree is still unwalked.
            loop {
                let p = self.parent[v as usize];
                let pi = p as usize;
                if self.left[pi] == v {
                    v = self.right[pi];
                    break;
                }
                if p == root {
                    return;
                }
                v = p;
            }
        }
    }

    /// How far [`site_weight`](Self::site_weight)'s `est` may sit from
    /// the built child's [`weight`](Self::weight): `4n·ε·est`. Both are
    /// sums of at most `2n` non-negative terms, and so is the parent
    /// weight the estimate starts from, so their rounding errors together
    /// stay below `3n·ε` of the total.
    pub fn site_weight_margin(&self, est: f64) -> f64 {
        4.0 * self.n as f64 * f64::EPSILON * est
    }

    /// The look-ahead rows a fresh post-order pass over this tree
    /// computes, in the carried rows' layout: the oracle the rows an
    /// insertion refreshes must equal bit for bit.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn fresh_rows(&self, half: &[f64]) -> Vec<f64> {
        fn fill<const K: usize>(t: &PartialTree<K>, half: &[f64], v: usize, rows: &mut [f64]) {
            let n = t.n as usize;
            let w = t.lanes();
            let (l, r) = (t.left[v] as usize, t.right[v] as usize);
            for c in [l, r] {
                if c >= n {
                    fill(t, half, c, rows);
                }
            }
            let lo = t.k as usize;
            let (out, other) = row_and_rest(rows, 2 * w, v - n);
            let pick = |c: usize| {
                if c < n {
                    (&half[c * n + lo..c * n + n], &half[c * n + lo..c * n + n])
                } else {
                    other(c - n).split_at(w)
                }
            };
            join_rows(out, t.height[v], pick(l), pick(r));
        }
        let mut rows = vec![f64::NAN; self.rows.len()];
        if self.lanes() > 0 {
            fill(self, half, self.root as usize, &mut rows);
        }
        rows
    }

    /// The carried look-ahead rows, for comparison with
    /// [`fresh_rows`](Self::fresh_rows).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn rows(&self) -> &[f64] {
        &self.rows
    }

    /// `min_site Δ_f` of this tree for every future leaf `f ≥ k`, written
    /// to `out[f − k]`, from the root's look-ahead rows. `Δ_f` at a site
    /// is the exact weight increase of inserting `f` there, height raises
    /// included; the root's raise counts twice, as `ω` counts the root
    /// height twice.
    pub fn min_insertions(&self, half: &[f64], out: &mut [f64]) {
        let n = self.n as usize;
        let w = self.lanes();
        let at = 2 * (self.root as usize - n) * w;
        let h = self.height[self.root as usize];
        let (mx_r, sub_r) = self.rows[at..at + 2 * w].split_at(w);
        for ((o, &x), &b) in out[..w].iter_mut().zip(mx_r).zip(sub_r) {
            *o = (fmax(h, x) - h) + b;
        }
        debug_assert_lanes_reach_static_term(half, n, self.k as usize, &out[..w]);
    }

    /// `min_site Δ_f` of the child that inserting the next species `s`
    /// above `site` would produce, for every future leaf `f > s`, written
    /// to `out[f − s − 1]` — without building the child, from this tree's
    /// rows past lane `s`.
    ///
    /// The child differs from this tree only on its root path `j` (the
    /// new joint node), then the site's ancestors: each gets `s` in its
    /// leafset, so `mx_f` rises to at least `half[s][f]`, and its height
    /// to `max(h_a, mx_s[a])` (bit-identical to the built child's, see
    /// [`site_weight`](Self::site_weight)). Every subtree hanging off
    /// that path is unchanged, and so is its `sub_f` row. So one walk up
    /// the path folds `sub_f` of the child's root, `O(depth · (n − s))`
    /// per child — the walk the built child's own row refresh repeats.
    pub fn child_min_insertions(&self, half: &[f64], site: u32, out: &mut [f64]) {
        let n = self.n as usize;
        let s = self.k as usize;
        let lo = s + 1;
        let w = n - s;
        let out = &mut out[..w - 1];
        // Lanes `s + 1..n` of node `v`'s `mx` (`kind` 0) or `sub` (1) row.
        let row = |v: usize, kind: usize| {
            if v < n {
                &half[v * n + lo..v * n + n]
            } else {
                let at = (2 * (v - n) + kind) * w;
                &self.rows[at + 1..at + w]
            }
        };
        let hs = &half[s * n + lo..s * n + n];
        // The joint node: the site's subtree and leaf `s` below it.
        let e = site as usize;
        out.copy_from_slice(row(e, 1));
        let mut a = self.parent[e];
        let h = self.raised_height(half, e);
        child_path_step(out, h, row(e, 0), hs, hs, a == NONE);
        let mut child = site;
        while a != NONE {
            let ai = a as usize;
            let sibling = if self.left[ai] == child {
                self.right[ai]
            } else {
                self.left[ai]
            } as usize;
            let up = self.parent[ai];
            let h = self.raised_height(half, ai);
            child_path_step(out, h, row(ai, 0), hs, row(sibling, 1), up == NONE);
            child = a;
            a = up;
        }
        debug_assert_lanes_reach_static_term(half, n, lo, out);
    }

    /// [`root_path_orders`](Self::root_path_orders) of the child that
    /// inserting the next species above `site` would produce, written
    /// into `order[..k]` without building the child. Leaves under `site`
    /// share the new joint node (order `0`); the sibling subtree at the
    /// site's `ℓ`-th ancestor gets order `ℓ`. Orders are small integers,
    /// exact in `f64` — which lets them share the `f64` scratch the
    /// branching borrows.
    pub fn site_orders(&self, site: u32, order: &mut [f64]) {
        let e = site as usize;
        for y in self.leafset[e].iter() {
            order[y] = 0.0;
        }
        let mut level = 1.0;
        let mut child = site;
        let mut a = self.parent[e];
        while a != NONE {
            let ai = a as usize;
            let sibling = if self.left[ai] == child {
                self.right[ai]
            } else {
                self.left[ai]
            };
            for y in self.leafset[sibling as usize].iter() {
                order[y] = level;
            }
            level += 1.0;
            child = a;
            a = self.parent[ai];
        }
    }

    /// For the freshly inserted leaf `s = k − 1`, computes each earlier
    /// leaf's position along `s`'s root path: `order[y]` is `0` for leaves
    /// sharing `s`'s deepest ancestor, `1` for the next ancestor up, and so
    /// on. Two leaves share their LCA with `s` iff their orders are equal,
    /// and `LCA(y1, s)` is strictly below `LCA(y2, s)` iff
    /// `order[y1] < order[y2]` — which is all the 3-3 rule needs.
    ///
    /// The search checks the rule before building a child, with
    /// [`site_orders`](Self::site_orders) on the parent; this built-child
    /// form is the reference that is tested against.
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
        let h = half_distances(&m);
        let t = PartialTree::<1>::cherry(&m, &h);
        assert_eq!(t.leaves_inserted(), 2);
        assert_eq!(t.weight(), 9.0);
        assert_eq!(t.insertion_sites().count(), 3);
        assert!(!t.is_complete());
    }

    #[test]
    fn insertion_site_count_grows_correctly() {
        let m = m5();
        let h = half_distances(&m);
        let mut t = PartialTree::<1>::cherry(&m, &h);
        for expect in [3usize, 5, 7] {
            assert_eq!(t.insertion_sites().count(), expect);
            let site = t.insertion_sites().next().unwrap();
            t = t.insert_next(&h, site);
        }
        assert!(t.is_complete());
    }

    /// Every topology reachable by insertions must have the same weight as
    /// the same topology built as an `UltrametricTree` and refit.
    #[test]
    fn weight_matches_fit_heights_everywhere() {
        let m = m5();
        let h = half_distances(&m);
        // Depth-first over all insertion sequences.
        let mut stack = vec![PartialTree::<1>::cherry(&m, &h)];
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
                stack.push(t.insert_next(&h, site));
            }
        }
        // A(5) = 3 * 5 * 7 = 105 distinct insertion sequences/topologies.
        assert_eq!(seen, 105);
    }

    #[test]
    fn weight_never_decreases_with_insertions() {
        let m = m5();
        let h = half_distances(&m);
        let t = PartialTree::<1>::cherry(&m, &h);
        for site in t.insertion_sites().collect::<Vec<_>>() {
            let t2 = t.insert_next(&h, site);
            assert!(t2.weight() >= t.weight() - 1e-12);
            for site2 in t2.insertion_sites().collect::<Vec<_>>() {
                let t3 = t2.insert_next(&h, site2);
                assert!(t3.weight() >= t2.weight() - 1e-12);
            }
        }
    }

    #[test]
    fn to_ultrametric_is_valid() {
        let m = m5();
        let h = half_distances(&m);
        let mut t = PartialTree::<1>::cherry(&m, &h);
        while !t.is_complete() {
            let site = t.insertion_sites().last().unwrap();
            t = t.insert_next(&h, site);
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
        let h = half_distances(&m);
        let base = PartialTree::<1>::cherry(&m, &h).insert_next(&h, 1);
        let mut scratch = PartialTree::<1>::cherry(&m, &h); // deliberately stale state
        for site in base.insertion_sites().collect::<Vec<_>>() {
            let fresh = base.insert_next(&h, site);
            base.insert_next_into(&h, site, &mut scratch);
            assert_eq!(format!("{fresh:?}"), format!("{scratch:?}"), "site {site}");
        }
    }

    #[test]
    fn root_path_orders_reflect_topology() {
        let m = m5();
        let h = half_distances(&m);
        // Build ((0,2),1): insert 2 above leaf 0.
        let t = PartialTree::<1>::cherry(&m, &h).insert_next(&h, 0);
        // s = 2; path: joint above {0,2}, then root. 0 shares the joint
        // (order 0); 1 hangs off the root (order 1).
        let order = t.root_path_orders();
        assert_eq!(order, vec![0, 1]);

        // Build (0,(1,2)): insert 2 above leaf 1.
        let t = PartialTree::<1>::cherry(&m, &h).insert_next(&h, 1);
        assert_eq!(t.root_path_orders(), vec![1, 0]);

        // Insert 2 above the root: both 0 and 1 are one level up.
        let t = PartialTree::<1>::cherry(&m, &h).insert_next(&h, 5);
        assert_eq!(t.root_path_orders(), vec![0, 0]);
    }

    #[test]
    fn heights_are_minimal_after_each_insertion() {
        let m = m5();
        let h = half_distances(&m);
        let mut stack = vec![PartialTree::<1>::cherry(&m, &h)];
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
                    stack.push(t.insert_next(&h, site));
                }
            }
        }
    }

    /// Same matrix, different widths: each insertion must produce the
    /// same topology, heights and weight regardless of K.
    #[test]
    fn widths_agree_on_every_insertion_path() {
        let m = m5();
        let h = half_distances(&m);
        let mut stack = vec![(
            PartialTree::<1>::cherry(&m, &h),
            PartialTree::<2>::cherry(&m, &h),
        )];
        while let Some((t1, t2)) = stack.pop() {
            assert_eq!(t1.weight(), t2.weight());
            assert_eq!(
                format!("{:?}", t1.to_ultrametric()),
                format!("{:?}", t2.to_ultrametric())
            );
            if !t1.is_complete() {
                for site in t1.insertion_sites().collect::<Vec<_>>() {
                    stack.push((t1.insert_next(&h, site), t2.insert_next(&h, site)));
                }
            }
        }
    }

    #[test]
    fn prop_masks_track_confinements_across_insertions() {
        use mutree_bnb::bound::{close_pair_table_len, CLOSE_WITH_HIGH, CLOSE_WITH_LOW};
        let m = m5();
        let h = half_distances(&m);
        // Hand-built domains: only the (0, 1, u) triples constrain.
        let mut codes = vec![0u8; close_pair_table_len(5)];
        codes[triple_index(0, 1, 2)] = CLOSE_WITH_LOW; // 2 inside the 0-side of LCA(0,1)
        codes[triple_index(0, 1, 3)] = CLOSE_WITH_HIGH; // 3 inside the 1-side of LCA(0,1)
        let dom = ArmIndex::<1>::build(5, &TripleDomains::pack(&codes));

        let mut t = PartialTree::<1>::cherry(&m, &h);
        t.prop_activate();
        t.prop_advance(&dom);
        assert!(!t.prop_wiped());
        assert_eq!(t.prop_inside[2], LeafWords::singleton(0));
        assert_eq!(t.prop_inside[3], LeafWords::singleton(1));
        assert!(t.prop_inside[4].is_empty());

        // Inserting 2 above leaf 1 replaces leaf 1 — the subtree 3 is
        // confined to — with the node {1, 2}: the mask must follow.
        let mut above_leaf = t.insert_next(&h, 1);
        above_leaf.prop_advance(&dom);
        assert!(!above_leaf.prop_wiped());
        let grown = LeafWords::singleton(1).union(LeafWords::singleton(2));
        assert_eq!(above_leaf.prop_inside[3], grown);
        assert_eq!(above_leaf.prop_inside[2], LeafWords::singleton(0));

        // Inserting 2 above the root leaves both LCA children intact:
        // no mask moves.
        let mut above_root = t.insert_next(&h, 5);
        above_root.prop_advance(&dom);
        assert!(!above_root.prop_wiped());
        assert_eq!(above_root.prop_inside[3], LeafWords::singleton(1));
        assert_eq!(above_root.prop_inside[2], LeafWords::singleton(0));
    }

    #[test]
    fn prop_wipes_on_disjoint_confinements() {
        use mutree_bnb::bound::{close_pair_table_len, CLOSE_WITH_HIGH, CLOSE_WITH_LOW};
        let m = m5();
        let h = half_distances(&m);
        let mut codes = vec![0u8; close_pair_table_len(5)];
        // 3 inside the 0-side of LCA(0,1) = {0} ...
        codes[triple_index(0, 1, 3)] = CLOSE_WITH_LOW;
        // ... but also inside the 2-side of LCA(0,2), which after
        // inserting 2 above leaf 1 is the node {1, 2}: disjoint regions.
        codes[triple_index(0, 2, 3)] = CLOSE_WITH_HIGH;
        let dom = ArmIndex::<1>::build(5, &TripleDomains::pack(&codes));

        let mut t = PartialTree::<1>::cherry(&m, &h);
        t.prop_activate();
        t.prop_advance(&dom);
        assert!(!t.prop_wiped());
        assert_eq!(t.prop_inside[3], LeafWords::singleton(0));

        let mut child = t.insert_next(&h, 1);
        child.prop_advance(&dom);
        assert!(child.prop_wiped());
    }

    #[test]
    fn prop_activation_survives_clones() {
        let m = m5();
        let h = half_distances(&m);
        let mut t = PartialTree::<1>::cherry(&m, &h);
        assert!(!t.prop_is_active());
        t.prop_activate();
        assert!(t.prop_is_active());
        let cloned = t.clone();
        assert!(cloned.prop_is_active());
        assert!(!cloned.prop_wiped());
    }

    /// A test matrix of family `family`: 0 = uniform random metric,
    /// 1 = four tight clusters at a common distance (ties across
    /// clusters), 2 = integer distances in 1..=3 (ties everywhere). The
    /// scale spreads magnitudes so the margin is tested relative to them.
    fn family_matrix(family: usize, n: usize, rng: &mut StdRng) -> DistanceMatrix {
        use rand::Rng;
        let scale = [1e-3, 1.0, 1e4][rng.gen_range(0..3usize)];
        if family == 0 {
            let m = mutree_distmat::gen::uniform_metric(n, 1.0, 100.0, rng);
            let mut out = m.clone();
            for (i, j, d) in m.pairs() {
                out.set(i, j, d * scale);
            }
            return out;
        }
        let mut m = DistanceMatrix::zeros(n).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = match family {
                    1 if i % 4 == j % 4 => rng.gen_range(2.0..8.0),
                    1 => 100.0,
                    _ => rng.gen_range(1..=3u32) as f64,
                };
                m.set(i, j, d * scale);
            }
        }
        m
    }

    /// Walks one random insertion sequence and, at every step, scores
    /// every site from the parent and builds its child: the estimate must
    /// sit within the margin of the stored weight, and the at-site orders
    /// must equal the built child's.
    fn check_site_scores<const K: usize>(m: &DistanceMatrix, rng: &mut StdRng) {
        use rand::Rng;
        let n = m.len();
        let h = half_distances(m);
        let mut t = PartialTree::<K>::cherry(m, &h);
        let mut order = vec![f64::NAN; n];
        while !t.is_complete() {
            let sites: Vec<u32> = t.insertion_sites().collect();
            for &site in &sites {
                let child = t.insert_next(&h, site);
                let est = t.site_weight(&h, site);
                let margin = t.site_weight_margin(est);
                assert!(
                    (child.weight() - est).abs() <= margin,
                    "K = {K}, k = {}, site {site}: estimate {est:e} vs weight {:e} (margin {margin:e})",
                    t.leaves_inserted(),
                    child.weight()
                );
                t.site_orders(site, &mut order);
                let built: Vec<f64> = child.root_path_orders().iter().map(|&o| o as f64).collect();
                assert_eq!(&order[..t.leaves_inserted()], &built[..], "site {site}");
            }
            t = t.insert_next(&h, sites[rng.gen_range(0..sites.len())]);
        }
    }

    /// Walks one random insertion sequence. At every step, each lane of
    /// the tree's own `min_insertions` must equal the cheapest site score
    /// of that future leaf, found by swapping it into the next slot of
    /// the matrix and scoring every site; and each child's lanes, folded
    /// from the parent's rows, must equal the lanes the built child's
    /// carried rows give, bit for bit.
    fn check_look_ahead<const K: usize>(m: &DistanceMatrix, rng: &mut StdRng) {
        use rand::Rng;
        let n = m.len();
        let half = half_distances(m);
        let mut t = PartialTree::<K>::cherry(m, &half);
        let mut path = Vec::new();
        while !t.is_complete() {
            let s = t.leaves_inserted();
            let mut own = vec![f64::NAN; n - s];
            t.min_insertions(&half, &mut own);
            for f in s..n {
                let mut perm: Vec<usize> = (0..n).collect();
                perm.swap(s, f);
                let mp = m.permute(&perm);
                let hp = half_distances(&mp);
                let mut u = PartialTree::<K>::cherry(&mp, &hp);
                for &site in &path {
                    u = u.insert_next(&hp, site);
                }
                let cheapest = u
                    .insertion_sites()
                    .map(|e| u.site_weight(&hp, e))
                    .fold(f64::INFINITY, f64::min);
                let brute = cheapest - u.weight();
                assert!(
                    (brute - own[f - s]).abs() <= 16.0 * n as f64 * f64::EPSILON * cheapest,
                    "K = {K}, k = {s}, f = {f}: lane {:e} vs scored {brute:e}",
                    own[f - s]
                );
            }

            let lo = s + 1;
            let sites: Vec<u32> = t.insertion_sites().collect();
            for &site in &sites {
                let mut lanes = vec![f64::NAN; n - lo];
                t.child_min_insertions(&half, site, &mut lanes);
                let child = t.insert_next(&half, site);
                let mut carried = vec![f64::NAN; n - lo];
                child.min_insertions(&half, &mut carried);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&lanes),
                    bits(&carried),
                    "K = {K}, k = {s}, site {site}"
                );
            }
            let site = sites[rng.gen_range(0..sites.len())];
            path.push(site);
            t = t.insert_next(&half, site);
        }
    }

    /// Scores every site of `t` with the top-down pass, once keeping
    /// every score and once under a random cutoff: each kept score must
    /// equal the single-site reference bit for bit, and each cut site's
    /// own reference score must fail the cutoff. Returns how many sites
    /// the pass cut.
    fn check_site_weights_at<const K: usize>(
        t: &PartialTree<K>,
        h: &[f64],
        rng: &mut StdRng,
    ) -> usize {
        use rand::Rng;
        let sites: Vec<u32> = t.insertion_sites().collect();
        let reference: Vec<f64> = sites.iter().map(|&e| t.site_weight(h, e)).collect();
        let mut scores = vec![f64::NAN; sites.len()];
        t.site_weights(h, |_| true, &mut scores);
        for (i, &site) in sites.iter().enumerate() {
            assert_eq!(
                scores[i].to_bits(),
                reference[i].to_bits(),
                "K = {K}, k = {}, site {site}: pass {:e} vs reference {:e}",
                t.leaves_inserted(),
                scores[i],
                reference[i]
            );
        }
        // Cutoffs between the parent weight and the dearest site, so that
        // some subtrees are cut and some are not.
        let top = reference.iter().fold(t.weight(), |a, &b| a.max(b));
        let cutoff = t.weight() + rng.gen_range(0.0..=1.0) * (top - t.weight());
        let keep = |est: f64| est < cutoff;
        let mut scores = vec![f64::NAN; sites.len()];
        t.site_weights(h, keep, &mut scores);
        let mut cut = 0;
        for (i, &site) in sites.iter().enumerate() {
            if scores[i] == SITE_CUT {
                cut += 1;
                assert!(
                    !keep(reference[i]),
                    "K = {K}, site {site} cut at {cutoff:e} but scores {:e}",
                    reference[i]
                );
            } else {
                assert_eq!(scores[i].to_bits(), reference[i].to_bits(), "site {site}");
            }
        }
        cut
    }

    /// [`check_site_weights_at`] at every node of one random insertion
    /// path.
    fn check_site_weights<const K: usize>(m: &DistanceMatrix, rng: &mut StdRng) {
        use rand::Rng;
        let h = half_distances(m);
        let mut t = PartialTree::<K>::cherry(m, &h);
        while !t.is_complete() {
            check_site_weights_at(&t, &h, rng);
            let sites: Vec<u32> = t.insertion_sites().collect();
            t = t.insert_next(&h, sites[rng.gen_range(0..sites.len())]);
        }
    }

    /// A caterpillar 220 leaves deep: each leaf inserts above the one
    /// before it, so the pass descends and climbs root paths of every
    /// length up to `n − 1`, at the widest leaf bitsets.
    #[test]
    fn site_pass_matches_reference_on_a_deep_caterpillar() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut cut = 0;
        for family in 0..3 {
            let m = family_matrix(family, 220, &mut rng);
            let h = half_distances(&m);
            let mut t = PartialTree::<4>::cherry(&m, &h);
            while !t.is_complete() {
                cut += check_site_weights_at(&t, &h, &mut rng);
                let newest = t.leaves_inserted() as u32 - 1;
                t = t.insert_next(&h, newest);
            }
        }
        assert!(cut > 0, "no cutoff ever cut a subtree");
    }

    #[test]
    fn heap_bytes_counts_arena_rows_and_masks() {
        // n = 24 at K = 1: 47 slots of 12 + 8 + 8 bytes; the cherry
        // carries 2·1·22 row lanes, a 12-leaf tree 2·11·12.
        let m = family_matrix(0, 24, &mut StdRng::seed_from_u64(7));
        let h = half_distances(&m);
        let mut t = PartialTree::<1>::cherry(&m, &h);
        assert_eq!(t.heap_bytes(), 47 * 28 + 44 * 8);
        while t.leaves_inserted() < 12 {
            t = t.insert_next(&h, t.root);
        }
        assert_eq!(t.heap_bytes(), 47 * 28 + 264 * 8);
        // Propagation adds two 8-byte masks per taxon.
        t.prop_activate();
        assert_eq!(t.heap_bytes(), 47 * 28 + 264 * 8 + 2 * 24 * 8);

        // n = 256 at K = 4: 511 slots of 12 + 8 + 32 bytes; at k = 128
        // the rows peak at 2·127·128 lanes.
        let m = family_matrix(0, 256, &mut StdRng::seed_from_u64(7));
        let h = half_distances(&m);
        let mut t = PartialTree::<4>::cherry(&m, &h);
        assert_eq!(t.heap_bytes(), 511 * 52 + 2 * 254 * 8);
        while t.leaves_inserted() < 128 {
            t = t.insert_next(&h, t.root);
        }
        assert_eq!(t.heap_bytes(), 511 * 52 + 2 * 127 * 128 * 8);
        while !t.is_complete() {
            t = t.insert_next(&h, t.root);
        }
        assert_eq!(t.heap_bytes(), 511 * 52);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The look-ahead lanes are the exact cheapest insertions, and a
        /// child's lanes folded from its parent equal its carried rows',
        /// over random, clustered and tie-heavy matrices at two widths.
        #[test]
        fn look_ahead_lanes_are_the_cheapest_insertions(
            n in 3usize..=24,
            family in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = family_matrix(family, n, &mut rng);
            check_look_ahead::<1>(&m, &mut rng);
            check_look_ahead::<2>(&m, &mut rng);
        }

        /// Site scoring agrees with building the child, for every site of
        /// random insertion paths over random, clustered and tie-heavy
        /// matrices, at every leaf-bitset width.
        #[test]
        fn site_scores_match_built_children(
            n in 3usize..=40,
            family in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = family_matrix(family, n, &mut rng);
            check_site_scores::<1>(&m, &mut rng);
            check_site_scores::<2>(&m, &mut rng);
            check_site_scores::<4>(&m, &mut rng);
        }

        /// The top-down site pass equals the single-site reference bit
        /// for bit, and cuts only sites the cutoff rejects on their own
        /// scores, over random, clustered and tie-heavy matrices at every
        /// leaf-bitset width.
        #[test]
        fn site_pass_matches_reference_and_cuts_soundly(
            n in 3usize..=40,
            family in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = family_matrix(family, n, &mut rng);
            check_site_weights::<1>(&m, &mut rng);
            check_site_weights::<2>(&m, &mut rng);
            check_site_weights::<4>(&m, &mut rng);
        }

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
            let h = half_distances(&m);
            let mut t = PartialTree::<2>::cherry(&m, &h);
            while !t.is_complete() {
                let sites: Vec<u32> = t.insertion_sites().collect();
                let site = sites[rng.gen_range(0..sites.len())];
                t = t.insert_next(&h, site);

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
