use mutree_distmat::DistanceMatrix;
use mutree_tree::UltrametricTree;

use crate::MAX_EXACT_TAXA;

const NONE: u32 = u32::MAX;

/// What [`PartialTree::site_weights`] writes for a cut site. Every score
/// is a sum of non-negative terms, so the mark cannot be mistaken for
/// one; `∞` could not serve, as `∞ − margin(∞)` is NaN, which a bound
/// check admits.
pub(crate) const SITE_CUT: f64 = -1.0;

/// The `n × n` table `max(M[y, f], 0) / 2`, in rows of `n`: row `y`
/// holds leaf `y`'s half-distances to every other leaf contiguously. A
/// leaf's pendant heights and its look-ahead rows (see
/// [`PartialTree`]) are read from its row; every tree operation that
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

/// Leaf `y`'s look-ahead row over the lanes `taxa`: `out[i] =
/// half[y][taxa[i]]`.
#[inline]
fn gather(half: &[f64], n: usize, y: usize, taxa: &[u32], out: &mut [f64]) {
    let row = &half[y * n..(y + 1) * n];
    for (o, &t) in out.iter_mut().zip(taxa) {
        *o = row[t as usize];
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
/// children's `(mx_f, sub_f)` rows (a leaf passes its gathered `half`
/// row for both). With `m = max(h, mx_f)`: `mx_f` is the larger child
/// `mx_f`, and `sub_f = min(m, (m − h) + min(sub_l, sub_r))`.
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
/// static pendant term it replaces: half the distance from the lane's
/// taxon to the nearest leaf of `placed`. `lanes` yields `(taxon,
/// cheapest)` pairs.
#[inline]
fn debug_assert_lanes_reach_static_term<P: Iterator<Item = usize> + Clone>(
    half: &[f64],
    n: usize,
    placed: P,
    mut lanes: impl Iterator<Item = (usize, f64)>,
) {
    debug_assert!(
        lanes.all(|(f, cheapest)| {
            let nearest = placed
                .clone()
                .map(|y| half[y * n + f])
                .fold(f64::INFINITY, f64::min);
            cheapest >= nearest
        }),
        "a lane's cheapest insertion fell below its static pendant term"
    );
}

/// A node of the branch-and-bound tree (BBT): an ultrametric tree over
/// the *placed* species of a (search-order-relabeled) matrix, with
/// minimal heights, and the species its children insert next.
///
/// The encoding is a flat arena sized for the complete tree, plus the
/// node's look-ahead rows, so that the copy behind every built child is
/// a straight `memcpy` of the arena and one of each row (branching scores
/// every insertion site from the parent first, in one pass — see
/// [`site_weight`](PartialTree::site_weight) — and copies only the
/// children that survive the bound):
///
/// * node ids `0..n` are the leaves (id = taxon); ids `n..2n-1` are
///   internal nodes, allocated in insertion order (the `k`-th leaf to
///   insert creates internal node `n + k − 2`, the cherry node `n`);
/// * each node stores its parent, children and height. A leaf is placed
///   iff it has a parent; a node's leaves are never stored, as no
///   operation reads them.
///
/// The *remaining* taxa, in ascending order of the matrix, are the
/// node's lanes: lane `i` is the `i`-th remaining taxon. One lane is the
/// *next* leaf, the one every child of this node inserts. A cherry or a
/// built child defaults it to its smallest remaining taxon, so a tree
/// grown by [`insert_next`](PartialTree::insert_next) alone inserts the
/// taxa in matrix order; [`MutProblem`](crate::MutProblem) sets it per
/// node to the leaf that attains the look-ahead bound.
///
/// Heights are kept *minimal* for the topology at all times: inserting a
/// leaf only updates heights along its root path, each ancestor rising to
/// the pendant height of the new leaf over its leaves (the next leaf's
/// lane of its look-ahead rows).
///
/// The look-ahead rows hold, for each internal node `v` and each
/// remaining taxon `f` (one `f64` lane per taxon, stride `n − k`):
///
/// * `mx_f[v] = max_{y ∈ L(v)} M[f, y] / 2`, the height a node joining
///   `f` to `v`'s leaves needs at least — the next leaf's lane is its
///   pendant height at `v`;
/// * `sub_f[v]`, the cheapest insertion of `f` at a site in `v`'s
///   subtree, counting the height raises inside the subtree only: with
///   `m = max(h_v, mx_f[v])`, it is `m` for the site above `v` and
///   `m − h_v` plus a child's `sub_f` for a site below it.
///
/// A leaf's row of either kind is its [`half_distances`] row gathered
/// over the remaining taxa, so only internal nodes store rows: `mx_f`
/// then `sub_f` for node `n + i` at offset `2i·(n − k)`, `2(k − 1)(n − k)`
/// `f64`s in all (see [`heap_bytes`](PartialTree::heap_bytes)). An
/// insertion changes them only on the new leaf's root path: the child
/// copies the rest without the inserted leaf's lane and recomputes that
/// path alone.
///
/// Each lane also carries its *pendant term* `base[t]`: half the
/// distance from taxon `t` to the nearest placed taxon or remaining taxon
/// before it. Summed over the lanes they are Wu–Chao–Tang's static bound
/// on what the remaining taxa add, inserted in ascending order.
#[derive(Debug)]
pub struct PartialTree {
    parent: Vec<u32>,
    left: Vec<u32>,
    right: Vec<u32>,
    height: Vec<f64>,
    root: u32,
    k: u32,
    n: u32,
    /// The next leaf's lane.
    next: u32,
    weight: f64,
    lb: f64,
    /// The remaining taxa, ascending: lane `i` is taxon `rem[i]`.
    rem: Vec<u32>,
    /// The pendant term of each lane (see above).
    base: Vec<f64>,
    /// The look-ahead rows of the internal nodes (layout above).
    rows: Vec<f64>,
    /// Two gathered leaf rows, scratch for the row refresh of an
    /// insertion. Kept on the node so a recycled tree re-fills it without
    /// allocating; clones do not copy it.
    gathered: Vec<f64>,
}

impl Clone for PartialTree {
    fn clone(&self) -> Self {
        PartialTree {
            parent: self.parent.clone(),
            left: self.left.clone(),
            right: self.right.clone(),
            height: self.height.clone(),
            root: self.root,
            k: self.k,
            n: self.n,
            next: self.next,
            weight: self.weight,
            lb: self.lb,
            rem: self.rem.clone(),
            base: self.base.clone(),
            rows: self.rows.clone(),
            gathered: Vec::new(),
        }
    }
}

impl PartialTree {
    /// The root BBT node: the unique topology over taxa `{0, 1}`, with
    /// height `M[0,1] / 2`, its look-ahead rows and pendant terms, and
    /// taxon `2` as its next leaf. `half` is `m`'s [`half_distances`]
    /// table.
    ///
    /// # Panics
    ///
    /// Panics when the matrix exceeds [`MAX_EXACT_TAXA`] taxa (enforce
    /// via [`MutSolver`](crate::MutSolver), which returns an error
    /// instead).
    pub fn cherry(m: &DistanceMatrix, half: &[f64]) -> Self {
        let n = m.len();
        assert!(
            n <= MAX_EXACT_TAXA,
            "PartialTree supports at most {MAX_EXACT_TAXA} taxa, got {n}"
        );
        let cap = 2 * n - 1;
        let rem: Vec<u32> = (2..n as u32).collect();
        let base = rem
            .iter()
            .map(|&t| {
                let t = t as usize;
                (0..t).map(|i| half[i * n + t]).fold(f64::INFINITY, fmin)
            })
            .collect();
        let mut t = PartialTree {
            parent: vec![NONE; cap],
            left: vec![NONE; cap],
            right: vec![NONE; cap],
            height: vec![0.0; cap],
            root: n as u32,
            k: 2,
            n: n as u32,
            next: 0,
            weight: 0.0,
            lb: 0.0,
            rem,
            base,
            rows: vec![0.0; 2 * (n - 2)],
            gathered: Vec::new(),
        };
        let r = n; // first internal node
        t.left[r] = 0;
        t.right[r] = 1;
        t.parent[0] = r as u32;
        t.parent[1] = r as u32;
        t.height[r] = m.get(0, 1) / 2.0;
        t.weight = m.get(0, 1);
        let w = n - 2;
        let mut leaves = vec![0.0; 2 * w];
        let (l0, l1) = leaves.split_at_mut(w);
        gather(half, n, 0, &t.rem, l0);
        gather(half, n, 1, &t.rem, l1);
        join_rows(&mut t.rows, t.height[r], (l0, l0), (l1, l1));
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

    /// The placed species, ascending: the leaves with a parent.
    pub fn placed(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.n as usize).filter(|&y| self.parent[y] != NONE)
    }

    /// The species this node's children insert.
    ///
    /// # Panics
    ///
    /// Panics when the tree is complete.
    pub fn next_leaf(&self) -> usize {
        self.rem[self.next as usize] as usize
    }

    /// The remaining species, ascending: the taxa of the lanes.
    pub(crate) fn remaining(&self) -> &[u32] {
        &self.rem
    }

    /// The next leaf's lane.
    pub(crate) fn next_lane(&self) -> usize {
        self.next as usize
    }

    /// Makes the remaining taxon of lane `lane` the next leaf.
    pub(crate) fn set_next_lane(&mut self, lane: usize) {
        debug_assert!(lane < self.rem.len());
        self.next = lane as u32;
    }

    /// The pendant term of each lane.
    pub(crate) fn pendant_terms(&self) -> &[f64] {
        &self.base
    }

    /// The pendant terms every child of this node carries, one per lane
    /// but the next leaf's, into `out[..n − k − 1]`. All children insert
    /// the next leaf `s`: each lane before it is lowered to `half[s][t]`
    /// when that is smaller (`s` now precedes every remaining taxon), and
    /// the lanes after it already counted `s`.
    pub(crate) fn child_pendant_terms(&self, half: &[f64], out: &mut [f64]) {
        let n = self.n as usize;
        let (i, s) = (self.next_lane(), self.next_leaf());
        let hs = &half[s * n..(s + 1) * n];
        let lower = out[..i].iter_mut().zip(&self.base[..i]).zip(&self.rem[..i]);
        for ((o, &b), &t) in lower {
            *o = fmin(b, hs[t as usize]);
        }
        out[i..self.base.len() - 1].copy_from_slice(&self.base[i + 1..]);
    }

    /// The most recently inserted species: the leaf child of the newest
    /// internal node.
    #[cfg(test)]
    pub(crate) fn newest_leaf(&self) -> usize {
        self.right[self.n as usize + self.k as usize - 2] as usize
    }

    /// The cached lower bound on every completion: the look-ahead bound
    /// built from [`min_insertions`](Self::min_insertions), never below
    /// the weight plus the pendant terms (maintained by
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
    /// sites: the placed leaves in ascending order, then the internal
    /// nodes in the order they were made.
    pub fn insertion_sites(&self) -> impl Iterator<Item = u32> + '_ {
        let n = self.n as usize;
        let k = self.k as usize;
        self.placed().chain(n..n + k - 1).map(|v| v as u32)
    }

    /// Returns a copy of this tree with the next species
    /// ([`next_leaf`](Self::next_leaf)) inserted above node `site`, with
    /// heights, weight, look-ahead rows and pendant terms updated; the
    /// copy's next leaf is its smallest remaining taxon. `half` is the
    /// matrix's [`half_distances`] table.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the tree is already complete or
    /// `site` is not a live node.
    pub fn insert_next(&self, half: &[f64], site: u32) -> PartialTree {
        let mut t = self.clone();
        t.insert_from(self, half, site);
        t
    }

    /// Like [`insert_next`](PartialTree::insert_next), but writes the child
    /// into `scratch` (typically a retired sibling from the same search)
    /// instead of allocating a fresh tree. With a warmed-up scratch this is
    /// allocation-free: the copy reuses the arena and row vectors in
    /// place.
    pub fn insert_next_into(&self, half: &[f64], site: u32, scratch: &mut PartialTree) {
        scratch.insert_from(self, half, site);
    }

    /// The look-ahead lanes of this tree: one per remaining taxon.
    fn lanes(&self) -> usize {
        self.rem.len()
    }

    /// The next leaf's lane of node `v`'s `mx` row: `max_{y ∈ L(v)}
    /// M[s, y] / 2` for next leaf `s`, the height it needs to join `v`'s
    /// leaves — read from `half` for a leaf.
    #[inline]
    fn site_height(&self, half: &[f64], v: usize) -> f64 {
        let n = self.n as usize;
        if v < n {
            half[v * n + self.next_leaf()]
        } else {
            self.rows[2 * (v - n) * self.lanes() + self.next_lane()]
        }
    }

    /// `max(h_v, mx_s[v])`: the height node `v` rises to when the next
    /// species inserts below it, and the height of the joint node when
    /// it inserts right above `v`.
    #[inline]
    fn raised_height(&self, half: &[f64], v: usize) -> f64 {
        fmax(self.height[v], self.site_height(half, v))
    }

    /// Overwrites `self` with the child of `from` that inserting its next
    /// species above `site` produces. The arena copies as it is, a
    /// handful of `memcpy`s that reuse `self`'s buffers.
    fn insert_from(&mut self, from: &Self, half: &[f64], site: u32) {
        debug_assert!(!from.is_complete(), "tree is already complete");
        self.parent.clone_from(&from.parent);
        self.left.clone_from(&from.left);
        self.right.clone_from(&from.right);
        self.height.clone_from(&from.height);
        self.root = from.root;
        self.k = from.k;
        self.n = from.n;
        self.weight = from.weight;
        self.lb = from.lb;

        let i = from.next_lane();
        let s = from.next_leaf(); // the taxon being inserted
        let n = self.n as usize;
        let e = site as usize;
        let j = n + self.k as usize - 1; // the new internal node
        debug_assert!(
            (e < n && from.parent[e] != NONE) || (n..j).contains(&e),
            "site {e} is not a live node"
        );
        let p = self.parent[e];

        self.left[j] = e as u32;
        self.right[j] = s as u32;
        self.parent[j] = p;
        self.parent[e] = j as u32;
        self.parent[s] = j as u32;
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
            self.height[ai] = from.raised_height(half, ai);
            a = self.parent[ai];
        }

        self.k += 1;
        self.weight = self.recompute_weight();
        self.rem.clone_from(&from.rem);
        self.rem.remove(i);
        self.base.resize(self.rem.len(), 0.0);
        from.child_pendant_terms(half, &mut self.base);
        self.next = 0;
        self.refresh_rows(from, half, i, s);
    }

    /// Fills this child's look-ahead rows from the parent's after leaf
    /// `s`, the parent's lane `i`, inserted: copies every row without
    /// lane `i`, then recomputes the rows of `s`'s root path, joint node
    /// first. Every other subtree is unchanged, and so are its rows.
    fn refresh_rows(&mut self, from: &Self, half: &[f64], i: usize, s: usize) {
        let n = self.n as usize;
        let w = self.lanes();
        self.rows.clear();
        if w == 0 {
            return;
        }
        for row in from.rows.chunks_exact(w + 1) {
            self.rows.extend_from_slice(&row[..i]);
            self.rows.extend_from_slice(&row[i + 1..]);
        }
        self.rows.resize(2 * (self.k as usize - 1) * w, 0.0);
        // Leaf s's row, and one slot for the other leaf a path node may
        // have as a child.
        let mut gathered = std::mem::take(&mut self.gathered);
        gathered.clear();
        gathered.resize(2 * w, 0.0);
        let (hs, hy) = gathered.split_at_mut(w);
        gather(half, n, s, &self.rem, hs);
        let mut v = self.parent[s];
        while v != NONE {
            let vi = v as usize;
            let (l, r) = (self.left[vi] as usize, self.right[vi] as usize);
            for c in [l, r] {
                if c < n && c != s {
                    gather(half, n, c, &self.rem, hy);
                }
            }
            let (hs, hy) = (&*hs, &*hy);
            let (out, other) = row_and_rest(&mut self.rows, 2 * w, vi - n);
            let pick = |c: usize| {
                if c == s {
                    (hs, hs)
                } else if c < n {
                    (hy, hy)
                } else {
                    other(c - n).split_at(w)
                }
            };
            join_rows(out, self.height[vi], pick(l), pick(r));
            v = self.parent[vi];
        }
        self.gathered = gathered;
    }

    /// `Σ (h_parent − h_v)` over the live nodes with a parent, placed
    /// leaves first, then the internal nodes in the order they were made.
    /// The unplaced leaves and the root have no parent.
    fn recompute_weight(&self) -> f64 {
        let live = self.n as usize + self.k as usize - 1;
        let mut w = 0.0;
        for (&p, &h) in self.parent[..live].iter().zip(&self.height) {
            if p != NONE {
                w += self.height[p as usize] - h;
            }
        }
        w
    }

    /// The bytes of heap this node's contents occupy: the arena's
    /// `2n − 1` slots (three `u32` links and an `f64` height each), the
    /// `2(k − 1)(n − k)` `f64`s of look-ahead rows, and a `u32` taxon and
    /// an `f64` pendant term per lane. A recycled node may hold spare
    /// capacity beyond this.
    pub fn heap_bytes(&self) -> u64 {
        let bytes =
            self.parent.len() * (3 * 4 + 8) + self.rows.len() * 8 + self.rem.len() * (4 + 8);
        bytes as u64
    }

    /// The weight of the child that inserting the next species above
    /// `site` would produce, computed from this tree's heights and the
    /// pendant heights in the next leaf's lane of its rows — without
    /// building the child. One root walk per call: the single-site
    /// reference that branching's one-pass `site_weights`, which scores
    /// every site at once, must equal bit for bit.
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
    /// pre-order walk from the root: `scores[v]` belongs to the site above
    /// node `v`, so `scores` needs `n + k − 1` entries (the slots of
    /// remaining leaves are left alone). The walk carries `c`, the raise
    /// sum of a node's ancestors, down the tree, so each site costs
    /// `O(1)` and the scores equal the reference's bit for bit.
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
        let root = self.root;
        let r = root as usize;
        let hj = self.raised_height(half, r);
        scores[r] = self.weight - self.height[r] + 2.0 * hj;
        // Until a node is visited, its slot holds its `c` (or the cut
        // mark), written by its parent.
        let c = 2.0 * (hj - self.height[r]);
        scores[self.left[r] as usize] = c;
        scores[self.right[r] as usize] = c;
        let mut v = self.left[r];
        loop {
            let vi = v as usize;
            let c = scores[vi];
            let prefix = self.weight + c;
            let below = if c != SITE_CUT && keep(prefix) {
                let hj = self.raised_height(half, vi);
                scores[vi] = prefix + hj;
                c + (hj - self.height[vi])
            } else {
                scores[vi] = SITE_CUT;
                SITE_CUT
            };
            if vi >= n {
                scores[self.left[vi] as usize] = below;
                scores[self.right[vi] as usize] = below;
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
        fn fill(t: &PartialTree, half: &[f64], v: usize, rows: &mut [f64]) {
            let n = t.n as usize;
            let w = t.lanes();
            let (l, r) = (t.left[v] as usize, t.right[v] as usize);
            for c in [l, r] {
                if c >= n {
                    fill(t, half, c, rows);
                }
            }
            let leaf = |c: usize| {
                let mut row = vec![0.0; w];
                if c < n {
                    gather(half, n, c, &t.rem, &mut row);
                }
                row
            };
            let (lrow, rrow) = (leaf(l), leaf(r));
            let (out, other) = row_and_rest(rows, 2 * w, v - n);
            let lr = if l < n {
                (&lrow[..], &lrow[..])
            } else {
                other(l - n).split_at(w)
            };
            let rr = if r < n {
                (&rrow[..], &rrow[..])
            } else {
                other(r - n).split_at(w)
            };
            join_rows(out, t.height[v], lr, rr);
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

    /// `min_site Δ_f` of this tree for every remaining taxon `f`, written
    /// to `out[i]` for lane `i`, from the root's look-ahead rows. `Δ_f` at
    /// a site is the exact weight increase of inserting `f` there, height
    /// raises included; the root's raise counts twice, as `ω` counts the
    /// root height twice.
    pub fn min_insertions(&self, half: &[f64], out: &mut [f64]) {
        let n = self.n as usize;
        let w = self.lanes();
        let at = 2 * (self.root as usize - n) * w;
        let h = self.height[self.root as usize];
        let (mx_r, sub_r) = self.rows[at..at + 2 * w].split_at(w);
        for ((o, &x), &b) in out[..w].iter_mut().zip(mx_r).zip(sub_r) {
            *o = (fmax(h, x) - h) + b;
        }
        let lanes = self
            .rem
            .iter()
            .map(|&f| f as usize)
            .zip(out[..w].iter().copied());
        debug_assert_lanes_reach_static_term(half, n, self.placed(), lanes);
    }

    /// `min_site Δ_f` of the child that inserting the next species `s`
    /// above `site` would produce, for every remaining taxon `f` of the
    /// child, written to `out[..n − k − 1]` in the child's lanes —
    /// without building the child, from this tree's rows. `out` takes
    /// `n − k` entries, as the fold runs over this tree's lanes and drops
    /// `s`'s afterwards; `scratch` takes `2(n − k)`, for gathered leaf
    /// rows.
    ///
    /// The child differs from this tree only on its root path `j` (the
    /// new joint node), then the site's ancestors: each gains leaf `s`,
    /// so `mx_f` rises to at least `half[s][f]`, and its height
    /// to `max(h_a, mx_s[a])` (bit-identical to the built child's, see
    /// [`site_weight`](Self::site_weight)). Every subtree hanging off
    /// that path is unchanged, and so is its `sub_f` row. So one walk up
    /// the path folds `sub_f` of the child's root, `O(depth · (n − k))`
    /// per child — the walk the built child's own row refresh repeats.
    pub fn child_min_insertions(
        &self,
        half: &[f64],
        site: u32,
        scratch: &mut [f64],
        out: &mut [f64],
    ) {
        let n = self.n as usize;
        let w = self.lanes();
        let i = self.next_lane();
        let s = self.next_leaf();
        let out = &mut out[..w];
        let (hs, hy) = scratch[..2 * w].split_at_mut(w);
        gather(half, n, s, &self.rem, hs);
        // Node `v`'s `mx` (`kind` 0) or `sub` (1) row, for an internal `v`.
        let row = |v: usize, kind: usize| {
            let at = (2 * (v - n) + kind) * w;
            &self.rows[at..at + w]
        };
        // The joint node: the site's subtree and leaf `s` below it.
        let e = site as usize;
        let mut a = self.parent[e];
        let h = self.raised_height(half, e);
        if e < n {
            gather(half, n, e, &self.rem, hy);
            out.copy_from_slice(hy);
            child_path_step(out, h, hy, hs, hs, a == NONE);
        } else {
            out.copy_from_slice(row(e, 1));
            child_path_step(out, h, row(e, 0), hs, hs, a == NONE);
        }
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
            let other = if sibling < n {
                gather(half, n, sibling, &self.rem, hy);
                &*hy
            } else {
                row(sibling, 1)
            };
            child_path_step(out, h, row(ai, 0), hs, other, up == NONE);
            child = a;
            a = up;
        }
        out.copy_within(i + 1.., i);
        let taxa = self.rem.iter().enumerate().filter(|&(l, _)| l != i);
        let lanes = taxa.map(|(_, &f)| f as usize).zip(out.iter().copied());
        let placed = self.placed().chain(std::iter::once(s));
        debug_assert_lanes_reach_static_term(half, n, placed, lanes);
    }

    /// Converts to a full [`UltrametricTree`] (taxa keep their ids in the
    /// matrix this tree was built against).
    pub fn to_ultrametric(&self) -> UltrametricTree {
        fn build(t: &PartialTree, v: usize) -> UltrametricTree {
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
        let t = PartialTree::cherry(&m, &h);
        assert_eq!(t.leaves_inserted(), 2);
        assert_eq!(t.weight(), 9.0);
        assert_eq!(t.insertion_sites().count(), 3);
        assert!(!t.is_complete());
    }

    #[test]
    fn insertion_site_count_grows_correctly() {
        let m = m5();
        let h = half_distances(&m);
        let mut t = PartialTree::cherry(&m, &h);
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
        let mut stack = vec![PartialTree::cherry(&m, &h)];
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
        let t = PartialTree::cherry(&m, &h);
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
        let mut t = PartialTree::cherry(&m, &h);
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
        let base = PartialTree::cherry(&m, &h).insert_next(&h, 1);
        let mut scratch = PartialTree::cherry(&m, &h); // deliberately stale state
        for site in base.insertion_sites().collect::<Vec<_>>() {
            let fresh = base.insert_next(&h, site);
            base.insert_next_into(&h, site, &mut scratch);
            assert_eq!(format!("{fresh:?}"), format!("{scratch:?}"), "site {site}");
        }
    }

    #[test]
    fn heights_are_minimal_after_each_insertion() {
        let m = m5();
        let h = half_distances(&m);
        let mut stack = vec![PartialTree::cherry(&m, &h)];
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

    /// Makes a random remaining taxon `t`'s next leaf, so the walks below
    /// insert the taxa in a random order rather than the default one.
    fn pick_next(t: &mut PartialTree, rng: &mut StdRng) {
        use rand::Rng;
        let lanes = t.remaining().len();
        t.set_next_lane(rng.gen_range(0..lanes));
    }

    /// Walks one random insertion sequence, in a random leaf order, and,
    /// at every step, scores every site from the parent and builds its
    /// child: the estimate must sit within the margin of the stored
    /// weight, and the weight must be the refit weight of the topology.
    fn check_site_scores(m: &DistanceMatrix, rng: &mut StdRng) {
        use rand::Rng;
        let h = half_distances(m);
        let mut t = PartialTree::cherry(m, &h);
        while !t.is_complete() {
            pick_next(&mut t, rng);
            let sites: Vec<u32> = t.insertion_sites().collect();
            for &site in &sites {
                let child = t.insert_next(&h, site);
                let est = t.site_weight(&h, site);
                let margin = t.site_weight_margin(est);
                assert!(
                    (child.weight() - est).abs() <= margin,
                    "k = {}, site {site}: estimate {est:e} vs weight {:e} (margin {margin:e})",
                    t.leaves_inserted(),
                    child.weight()
                );
                assert_eq!(child.newest_leaf(), t.next_leaf());
            }
            t = t.insert_next(&h, sites[rng.gen_range(0..sites.len())]);
        }
        let mut ut = t.to_ultrametric();
        let refit = ut.fit_heights(m);
        assert!((refit - t.weight()).abs() <= 1e-9 * refit.max(1.0));
    }

    /// Walks one random insertion sequence in a random leaf order. At
    /// every step, each lane of the tree's own `min_insertions` must equal
    /// the cheapest site score of that remaining taxon, found by making it
    /// the next leaf and scoring every site; and each child's lanes,
    /// folded from the parent's rows, must equal the lanes the built
    /// child's carried rows give, bit for bit.
    fn check_look_ahead(m: &DistanceMatrix, rng: &mut StdRng) {
        use rand::Rng;
        let n = m.len();
        let half = half_distances(m);
        let mut t = PartialTree::cherry(m, &half);
        let mut scratch = vec![f64::NAN; 2 * n];
        while !t.is_complete() {
            let w = t.remaining().len();
            let mut own = vec![f64::NAN; w];
            t.min_insertions(&half, &mut own);
            for (lane, &lanes_own) in own.iter().enumerate() {
                let mut u = t.clone();
                u.set_next_lane(lane);
                let cheapest = u
                    .insertion_sites()
                    .map(|e| u.site_weight(&half, e))
                    .fold(f64::INFINITY, f64::min);
                let brute = cheapest - u.weight();
                assert!(
                    (brute - lanes_own).abs() <= 16.0 * n as f64 * f64::EPSILON * cheapest,
                    "k = {}, lane {lane}: lane {lanes_own:e} vs scored {brute:e}",
                    t.leaves_inserted()
                );
            }

            pick_next(&mut t, rng);
            let sites: Vec<u32> = t.insertion_sites().collect();
            for &site in &sites {
                let mut lanes = vec![f64::NAN; w];
                t.child_min_insertions(&half, site, &mut scratch, &mut lanes);
                let child = t.insert_next(&half, site);
                let mut carried = vec![f64::NAN; w - 1];
                child.min_insertions(&half, &mut carried);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&lanes[..w - 1]),
                    bits(&carried),
                    "k = {}, site {site}",
                    t.leaves_inserted()
                );
                assert_eq!(
                    bits(child.rows()),
                    bits(&child.fresh_rows(&half)),
                    "k = {}, site {site}: rows",
                    t.leaves_inserted()
                );
            }
            t = t.insert_next(&half, sites[rng.gen_range(0..sites.len())]);
        }
    }

    /// The pendant terms a built child carries are the definition's:
    /// half the distance from each remaining taxon to the nearest placed
    /// taxon or remaining taxon before it, along a random leaf order.
    #[test]
    fn pendant_terms_follow_the_placed_set() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        for family in 0..3 {
            let m = family_matrix(family, 14, &mut rng);
            let n = m.len();
            let h = half_distances(&m);
            let mut t = PartialTree::cherry(&m, &h);
            while !t.is_complete() {
                let placed: Vec<usize> = t.placed().collect();
                for (lane, &f) in t.remaining().iter().enumerate() {
                    let f = f as usize;
                    let want = (0..n)
                        .filter(|&y| placed.contains(&y) || y < f)
                        .map(|y| h[y * n + f])
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(
                        t.pendant_terms()[lane].to_bits(),
                        want.to_bits(),
                        "taxon {f}"
                    );
                }
                pick_next(&mut t, &mut rng);
                let sites: Vec<u32> = t.insertion_sites().collect();
                t = t.insert_next(&h, sites[rng.gen_range(0..sites.len())]);
            }
        }
    }

    /// Scores every site of `t` with the top-down pass, once keeping
    /// every score and once under a random cutoff: each kept score must
    /// equal the single-site reference bit for bit, and each cut site's
    /// own reference score must fail the cutoff. Returns how many sites
    /// the pass cut.
    fn check_site_weights_at(t: &PartialTree, h: &[f64], rng: &mut StdRng) -> usize {
        use rand::Rng;
        let sites: Vec<u32> = t.insertion_sites().collect();
        let reference: Vec<f64> = sites.iter().map(|&e| t.site_weight(h, e)).collect();
        let slots = t.taxon_count() + t.leaves_inserted() - 1;
        let mut scores = vec![f64::NAN; slots];
        t.site_weights(h, |_| true, &mut scores);
        for (i, &site) in sites.iter().enumerate() {
            let s = site as usize;
            assert_eq!(
                scores[s].to_bits(),
                reference[i].to_bits(),
                "k = {}, site {site}: pass {:e} vs reference {:e}",
                t.leaves_inserted(),
                scores[s],
                reference[i]
            );
        }
        // Cutoffs between the parent weight and the dearest site, so that
        // some subtrees are cut and some are not.
        let top = reference.iter().fold(t.weight(), |a, &b| a.max(b));
        let cutoff = t.weight() + rng.gen_range(0.0..=1.0) * (top - t.weight());
        let keep = |est: f64| est < cutoff;
        let mut scores = vec![f64::NAN; slots];
        t.site_weights(h, keep, &mut scores);
        let mut cut = 0;
        for (i, &site) in sites.iter().enumerate() {
            let s = site as usize;
            if scores[s] == SITE_CUT {
                cut += 1;
                assert!(
                    !keep(reference[i]),
                    "site {site} cut at {cutoff:e} but scores {:e}",
                    reference[i]
                );
            } else {
                assert_eq!(scores[s].to_bits(), reference[i].to_bits(), "site {site}");
            }
        }
        cut
    }

    /// [`check_site_weights_at`] at every node of one random insertion
    /// path, in a random leaf order.
    fn check_site_weights(m: &DistanceMatrix, rng: &mut StdRng) {
        use rand::Rng;
        let h = half_distances(m);
        let mut t = PartialTree::cherry(m, &h);
        while !t.is_complete() {
            pick_next(&mut t, rng);
            check_site_weights_at(&t, &h, rng);
            let sites: Vec<u32> = t.insertion_sites().collect();
            t = t.insert_next(&h, sites[rng.gen_range(0..sites.len())]);
        }
    }

    /// A caterpillar 220 leaves deep: each leaf inserts above the one
    /// before it, so the pass descends and climbs root paths of every
    /// length up to `n − 1`.
    #[test]
    fn site_pass_matches_reference_on_a_deep_caterpillar() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut cut = 0;
        for family in 0..3 {
            let m = family_matrix(family, 220, &mut rng);
            let h = half_distances(&m);
            let mut t = PartialTree::cherry(&m, &h);
            while !t.is_complete() {
                cut += check_site_weights_at(&t, &h, &mut rng);
                let newest = t.leaves_inserted() as u32 - 1;
                t = t.insert_next(&h, newest);
            }
        }
        assert!(cut > 0, "no cutoff ever cut a subtree");
    }

    #[test]
    fn heap_bytes_counts_arena_rows_and_lanes() {
        // n = 24: 47 slots of 12 + 8 bytes; the cherry carries 2·1·22
        // row lanes, a 12-leaf tree 2·11·12, and each lane a 4-byte taxon
        // and an 8-byte pendant term.
        let m = family_matrix(0, 24, &mut StdRng::seed_from_u64(7));
        let h = half_distances(&m);
        let mut t = PartialTree::cherry(&m, &h);
        assert_eq!(t.heap_bytes(), 47 * 20 + 44 * 8 + 22 * 12);
        while t.leaves_inserted() < 12 {
            t = t.insert_next(&h, t.root);
        }
        assert_eq!(t.heap_bytes(), 47 * 20 + 264 * 8 + 12 * 12);

        // n = 256: 511 slots of 12 + 8 bytes; at k = 128 the rows peak at
        // 2·127·128 lanes.
        let m = family_matrix(0, 256, &mut StdRng::seed_from_u64(7));
        let h = half_distances(&m);
        let mut t = PartialTree::cherry(&m, &h);
        assert_eq!(t.heap_bytes(), 511 * 20 + 2 * 254 * 8 + 254 * 12);
        while t.leaves_inserted() < 128 {
            t = t.insert_next(&h, t.root);
        }
        assert_eq!(t.heap_bytes(), 511 * 20 + 2 * 127 * 128 * 8 + 128 * 12);
        while !t.is_complete() {
            t = t.insert_next(&h, t.root);
        }
        assert_eq!(t.heap_bytes(), 511 * 20);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The look-ahead lanes are the exact cheapest insertions, and a
        /// child's lanes folded from its parent equal its carried rows',
        /// over random, clustered and tie-heavy matrices.
        #[test]
        fn look_ahead_lanes_are_the_cheapest_insertions(
            n in 3usize..=24,
            family in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = family_matrix(family, n, &mut rng);
            check_look_ahead(&m, &mut rng);
        }

        /// Site scoring agrees with building the child, for every site of
        /// random insertion paths over random, clustered and tie-heavy
        /// matrices.
        #[test]
        fn site_scores_match_built_children(
            n in 3usize..=40,
            family in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = family_matrix(family, n, &mut rng);
            check_site_scores(&m, &mut rng);
        }

        /// The top-down site pass equals the single-site reference bit
        /// for bit, and cuts only sites the cutoff rejects on their own
        /// scores, over random, clustered and tie-heavy matrices.
        #[test]
        fn site_pass_matches_reference_and_cuts_soundly(
            n in 3usize..=40,
            family in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = family_matrix(family, n, &mut rng);
            check_site_weights(&m, &mut rng);
        }

        /// After any insertion sequence, in a random leaf order, the arena
        /// is consistent: parent and child links agree on every live node,
        /// the inserted leaf and the `k` placed leaves all reach the root,
        /// the unplaced leaves and the spare slots are unlinked, and the
        /// tree converts to an ultrametric tree over `k` leaves.
        #[test]
        fn arena_links_stay_consistent(n in 4usize..12, seed in any::<u64>()) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let m = mutree_distmat::gen::uniform_metric(n, 1.0, 50.0, &mut rng);
            let h = half_distances(&m);
            let mut t = PartialTree::cherry(&m, &h);
            while !t.is_complete() {
                pick_next(&mut t, &mut rng);
                let sites: Vec<u32> = t.insertion_sites().collect();
                let site = sites[rng.gen_range(0..sites.len())];
                t = t.insert_next(&h, site);

                let k = t.leaves_inserted();
                let root = t.root as usize;
                let placed: Vec<usize> = t.placed().collect();
                prop_assert_eq!(placed.len(), k);
                prop_assert!(placed.contains(&t.newest_leaf()));
                prop_assert_eq!(t.parent[root], NONE);
                for v in n..n + k - 1 {
                    for c in [t.left[v], t.right[v]] {
                        prop_assert_eq!(t.parent[c as usize], v as u32, "child {} of {}", c, v);
                    }
                    if v != root {
                        let p = t.parent[v] as usize;
                        prop_assert!(t.left[p] == v as u32 || t.right[p] == v as u32);
                    }
                }
                for &y in &placed {
                    let (mut v, mut steps) = (y, 0);
                    while t.parent[v] != NONE {
                        v = t.parent[v] as usize;
                        steps += 1;
                        prop_assert!(steps < k, "leaf {} loops", y);
                    }
                    prop_assert_eq!(v, root, "leaf {} misses the root", y);
                }
                for v in n + k - 1..2 * n - 1 {
                    prop_assert_eq!(t.parent[v], NONE);
                }
                prop_assert_eq!(t.to_ultrametric().leaf_count(), k);
            }
        }
    }
}
