use mutree_bnb::bound::{close_pair_code, CLOSE_EARLIER, CLOSE_NONE, CLOSE_WITH_LOW};
use mutree_bnb::{ChildBuf, Problem};
use mutree_distmat::DistanceMatrix;
use mutree_tree::{cluster, Linkage, UltrametricTree};

use mutree_engine::ThreeThree;

use crate::node::{fmin, half_distances, SITE_CUT};
use crate::{PartialTree, MAX_EXACT_TAXA};

/// The metric minimum ultrametric tree problem as a branch-and-bound
/// [`Problem`], following Wu–Chao–Tang's Algorithm BBU.
///
/// The matrix **should already be relabeled into the search order** for
/// the lower bound to prune well (the bound stays admissible for any
/// species order); [`MutSolver`](crate::MutSolver) handles the
/// relabeling. The order fixes the root pair `{0, 1}` and the order in
/// which the pendant terms below count the remaining species.
///
/// * **Nodes** — [`PartialTree`]s over the placed species, with minimal
///   heights for their topology, each naming the next leaf its children
///   insert.
/// * **Branching** — insert the node's next leaf at each of the `2k − 1`
///   sites; under [`ThreeThree::InitialOnly`] the root's three sites are
///   filtered by the 3-3 rule on the triple `(0, 1, next)`.
/// * **Lower bound** — the look-ahead bound
///   `ω(partial) + max_f [min_site Δ_f + adj(f)]` over the remaining
///   species `f`, less a rounding margin. Insert `f` first: the
///   completion restricted to the placed leaves plus `f` weighs at least
///   `ω + min_site Δ_f`, the cheapest exact insertion of `f`. Every other
///   remaining leaf `t`, taken in ascending order, then adds at least half
///   its distance to the nearest leaf already present, and `f` now counts
///   as present: with the node's pendant terms `base[t]` (see
///   [`PartialTree`]), `adj(f) = Σ_{t<f} min(base[t], ½M[f,t]) +
///   Σ_{t>f} base[t]`. Each `f` is admissible for any placed set, and
///   the term of the first remaining `f` is at least the static
///   `ω + Σ base`, which the cached bound never falls below. Branching
///   computes `adj` once for all children of a node (they share their
///   placed set), in `O(m²)` over the `m` remaining species. Every node
///   carries its look-ahead rows: the root fills them once, and a built
///   child refreshes only the new leaf's root path. Branching makes one
///   `O(k)` top-down pass over the parent that scores all `2k − 1` sites
///   (the scores of [`PartialTree::site_weight`]) and cuts every subtree
///   of sites whose common score prefix the incumbent already rejects.
///   Each surviving site's child is then bounded from the parent's rows,
///   before it is built, by folding the child's root path
///   ([`PartialTree::child_min_insertions`]). The site pass is the only
///   step of a branch that visits the whole tree.
/// * **Next leaf** — the fold that bounds a child also picks the child's
///   next leaf: the first remaining species, in lane order, that attains
///   the maximum (fail-first). The root picks its own the same way.
/// * **Initial incumbent** — the UPGMM tree (complete-linkage
///   agglomeration) with its own linkage heights, whose distances
///   dominate the matrix — exactly the paper's Step 3 upper bound.
pub struct MutProblem {
    /// Owned so a problem can be `Arc`-shared across executor tasks whose
    /// lifetimes outlive the caller's stack frame (see `mutree_core::exec`).
    m: DistanceMatrix,
    /// `half[y·n + f] = max(M[y,f], 0) / 2` ([`half_distances`]): row
    /// `y` holds leaf `y`'s half-distances to every other leaf
    /// contiguously, a leaf's pendant heights and look-ahead rows.
    half: Vec<f64>,
    three_three: ThreeThree,
    use_upgmm: bool,
    /// A warm-start incumbent (the cache's warm seed), already in
    /// *permuted* indexing. Competes with the UPGMM tree in
    /// [`initial_incumbent`](Problem::initial_incumbent); the better
    /// bound wins.
    seed: Option<(UltrametricTree, f64)>,
}

/// `adj(g)` of every lane `g` of a node with pendant terms `base`, whose
/// lane `g` is taxon `taxon(g)`, into `adj[..base.len()]`; returns
/// `Σ base`. Both sum from the last lane down, the order of
/// Wu–Chao–Tang's pendant suffix.
fn pendant_adj(
    half: &[f64],
    n: usize,
    taxon: impl Fn(usize) -> usize,
    base: &[f64],
    adj: &mut [f64],
) -> f64 {
    let mut tail = 0.0;
    for g in (0..base.len()).rev() {
        let hg = &half[taxon(g) * n..(taxon(g) + 1) * n];
        let mut acc = tail;
        for t in (0..g).rev() {
            acc += fmin(base[t], hg[taxon(t)]);
        }
        adj[g] = acc;
        tail += base[g];
    }
    tail
}

/// `Σ base`, summed as [`pendant_adj`] sums it.
fn pendant_sum(base: &[f64]) -> f64 {
    base.iter().rev().fold(0.0, |acc, &b| acc + b)
}

/// `max_g [lanes[g] + adj[g]]`, what the look-ahead adds to `ω`, and the
/// first lane that attains it. Every term is non-negative, so `0` is a
/// safe start, and it is the answer for a complete tree.
fn look_ahead_gain(lanes: &[f64], adj: &[f64]) -> (f64, usize) {
    let mut best = (0.0, 0);
    for (g, (&d, &a)) in lanes.iter().zip(adj).enumerate() {
        if d + a > best.0 {
            best = (d + a, g);
        }
    }
    best
}

impl MutProblem {
    /// Wraps a (relabeled) matrix. `use_upgmm` controls whether the UPGMM
    /// heuristic seeds the upper bound (disable to ablate Step 3).
    ///
    /// # Panics
    ///
    /// Panics when the matrix exceeds [`MAX_EXACT_TAXA`] taxa
    /// ([`MutSolver`](crate::MutSolver) returns an error instead).
    pub fn new(m: &DistanceMatrix, three_three: ThreeThree, use_upgmm: bool) -> Self {
        let n = m.len();
        assert!(
            n <= MAX_EXACT_TAXA,
            "MutProblem supports at most {MAX_EXACT_TAXA} taxa, got {n}"
        );
        // The node's lane kernels compare without a NaN guard (see
        // `node::fmin`), which is exact only on what `DistanceMatrix`
        // promises: finite, non-negative entries.
        debug_assert!(
            m.pairs().all(|(_, _, d)| d.is_finite() && d >= 0.0),
            "distances must be finite and non-negative"
        );
        MutProblem {
            m: m.clone(),
            half: half_distances(m),
            three_three,
            use_upgmm,
            seed: None,
        }
    }

    /// The matrix this problem searches over.
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.m
    }

    /// Injects a warm-start incumbent (in this problem's own, i.e.
    /// permuted, indexing). It competes with the UPGMM heuristic in
    /// [`Problem::initial_incumbent`]; whichever bound is lower seeds the
    /// search, so a seed can only tighten the warm start, never loosen
    /// it.
    pub fn seed(&mut self, tree: UltrametricTree, weight: f64) {
        self.seed = Some((tree, weight));
    }

    /// `lb` less `8n·ε·lb`. The look-ahead bound adds `ω` (or the site
    /// score standing in for it), a root-path sum of raises and an `adj`
    /// entry: at most `4n` non-negative terms between them, and a
    /// completion's stored weight is another `2n`. The margin covers
    /// their rounding together, so rounding never lifts the bound above
    /// a completion's stored weight.
    fn less_margin(&self, lb: f64) -> f64 {
        lb - 8.0 * self.m.len() as f64 * f64::EPSILON * lb
    }

    /// Whether inserting leaf `s` above `site` of the search root, the
    /// cherry `(0, 1)`, resolves the triple `(0, 1, s)` the way the matrix
    /// nominates: the 3-3 rule of the companion paper's Step 4. Above
    /// leaf 0 the close pair is `(0, s)`, above leaf 1 it is `(1, s)`,
    /// above the root `(0, 1)`; a triple without a strict close pair
    /// admits every site.
    fn three_three_ok(&self, s: usize, site: u32) -> bool {
        let m = &self.m;
        match close_pair_code(m.get(0, 1), m.get(0, s), m.get(1, s)) {
            CLOSE_NONE => true,
            CLOSE_EARLIER => site as usize == m.len(),
            CLOSE_WITH_LOW => site == 0,
            _ => site == 1,
        }
    }
}

impl Problem for MutProblem {
    type Node = PartialTree;
    type Solution = UltrametricTree;

    fn root(&self) -> PartialTree {
        let n = self.m.len();
        let mut t = PartialTree::cherry(&self.m, &self.half);
        let w = n - 2;
        let mut lanes = vec![0.0; 2 * w];
        let (lanes, adj) = lanes.split_at_mut(w);
        t.min_insertions(&self.half, lanes);
        let rem = t.remaining();
        let floor = pendant_adj(&self.half, n, |g| rem[g] as usize, t.pendant_terms(), adj);
        let (gain, next) = look_ahead_gain(lanes, adj);
        if w > 0 {
            t.set_next_lane(next);
        }
        let look_ahead = self.less_margin(t.weight() + gain);
        t.set_lower_bound(look_ahead.max(t.weight() + floor));
        t
    }

    fn lower_bound(&self, node: &PartialTree) -> f64 {
        node.lower_bound()
    }

    fn solution(&self, node: &PartialTree) -> Option<(UltrametricTree, f64)> {
        node.is_complete()
            .then(|| (node.to_ultrametric(), node.weight()))
    }

    fn branch(&self, node: &PartialTree, out: &mut ChildBuf<PartialTree>) {
        let half = &self.half;
        let n = self.m.len();
        let k = node.leaves_inserted();
        let s = node.next_leaf();
        let filter = matches!(self.three_three, ThreeThree::InitialOnly) && k == 2;
        // The node's lanes, and its children's: all but the next leaf's.
        let w = n - k;
        let wc = w - 1;
        // One borrowed buffer, no per-branch allocation once warm: the
        // children's pendant terms and `adj`, one child's lanes, leaf rows
        // for the fold, then every site's score. The look-ahead rows live
        // on the node.
        let mut scratch = out.take_scratch();
        scratch.resize(2 * wc + 3 * w + n + k - 1, 0.0);
        let (base, rest) = scratch.split_at_mut(wc);
        let (adj, rest) = rest.split_at_mut(wc);
        let (lanes, rest) = rest.split_at_mut(w);
        let (rows, scores) = rest.split_at_mut(2 * w);
        node.child_pendant_terms(half, base);
        let floor = pendant_sum(base);
        // `adj` is the same for every child; fill it for the first child
        // that gets as far as its look-ahead.
        let mut adj_ready = false;
        let (rem, i) = (node.remaining(), node.next_lane());
        let child_taxon = |g: usize| rem[g + usize::from(g >= i)] as usize;
        // Score every site from the parent in one pass; build only what
        // can survive the kernel's child prune. The margin keeps a score
        // at or below the built child's weight, so a skipped child is one
        // the kernel would have pruned, and the test is monotone in the
        // score, so the pass may cut whole subtrees of sites on a prefix.
        let admits = |out: &ChildBuf<PartialTree>, est: f64| {
            out.admits(est - node.site_weight_margin(est) + floor)
        };
        node.site_weights(half, |est| admits(out, est), scores);
        for site in node.insertion_sites() {
            if filter && !self.three_three_ok(s, site) {
                continue;
            }
            let est = scores[site as usize];
            debug_assert!(
                if est == SITE_CUT {
                    !admits(out, node.site_weight(half, site))
                } else {
                    est.to_bits() == node.site_weight(half, site).to_bits()
                },
                "site {site}: pass score {est} vs reference {}",
                node.site_weight(half, site)
            );
            if est == SITE_CUT || !admits(out, est) {
                out.skip();
                continue;
            }
            // Then the look-ahead bound, still without building the child,
            // and the child's next leaf with it.
            let (look_ahead, next) = if wc == 0 {
                (f64::NEG_INFINITY, 0)
            } else {
                if !adj_ready {
                    pendant_adj(half, n, child_taxon, base, adj);
                    adj_ready = true;
                }
                node.child_min_insertions(half, site, rows, lanes);
                let (gain, next) = look_ahead_gain(&lanes[..wc], adj);
                (self.less_margin(est + gain), next)
            };
            if !out.admits(look_ahead) {
                out.skip();
                continue;
            }
            // Overwrite a retired sibling when one is available: after the
            // pool warms up, branching allocates nothing.
            let mut child = match out.recycle() {
                Some(mut spare) => {
                    node.insert_next_into(half, site, &mut spare);
                    spare
                }
                None => node.insert_next(half, site),
            };
            debug_assert!(
                (child.weight() - est).abs() <= node.site_weight_margin(est),
                "site {site}: estimate {est} vs built weight {}",
                child.weight()
            );
            // The refreshed rows must be the ones a fresh pass over the
            // child computes, and give the lanes it was admitted on; its
            // pendant terms must be the ones its bound was built from.
            #[cfg(debug_assertions)]
            {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(child.rows()),
                    bits(&child.fresh_rows(half)),
                    "site {site}: carried rows differ from a fresh pass"
                );
                let mut carried = vec![0.0; wc];
                child.min_insertions(half, &mut carried);
                assert_eq!(bits(&carried), bits(&lanes[..wc]), "site {site}: lanes");
                assert_eq!(bits(child.pendant_terms()), bits(base), "site {site}: base");
            }
            if wc > 0 {
                child.set_next_lane(next);
            }
            child.set_lower_bound(look_ahead.max(child.weight() + floor));
            out.push(child);
        }
        out.restore_scratch(scratch);
    }

    fn initial_incumbent(&self) -> Option<(UltrametricTree, f64)> {
        // Paper-faithful: the UPGMM tree with its complete-linkage heights
        // (Wu–Chao–Tang Step 3 uses the heuristic's own cost as UB; the
        // search quickly re-derives the minimal heights for good
        // topologies anyway).
        let upgmm = self.use_upgmm.then(|| {
            let t = cluster(&self.m, Linkage::Maximum);
            let w = t.weight();
            (t, w)
        });
        // A seeded incumbent competes with the heuristic: the lower bound
        // wins, so a seed never weakens the warm start.
        match (upgmm, self.seed.clone()) {
            (Some(u), Some(s)) => Some(if s.1 < u.1 { s } else { u }),
            (u, s) => u.or(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_bnb::{solve_sequential, SearchMode, SearchOptions};
    use mutree_tree::triples;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Brute force: minimal weight over all 105 topologies.
    fn brute_force(m: &DistanceMatrix) -> f64 {
        let p = MutProblem::new(m, ThreeThree::Off, false);
        let mut best = f64::INFINITY;
        let mut stack = vec![p.root()];
        while let Some(t) = stack.pop() {
            if t.is_complete() {
                best = best.min(t.weight());
                continue;
            }
            for site in t.insertion_sites().collect::<Vec<_>>() {
                stack.push(t.insert_next(&p.half, site));
            }
        }
        best
    }

    #[test]
    fn bbu_finds_the_brute_force_optimum() {
        let m = m5();
        let p = MutProblem::new(&m, ThreeThree::Off, true);
        let out = solve_sequential(&p, &SearchOptions::new(SearchMode::BestOne));
        assert!((out.best_value.unwrap() - brute_force(&m)).abs() < 1e-9);
        let tree = &out.solutions[0];
        assert!(tree.is_feasible_for(&m, 1e-9));
        assert!((tree.weight() - out.best_value.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_is_admissible_along_paths() {
        let m = m5();
        let p = MutProblem::new(&m, ThreeThree::Off, false);
        let root = p.root();
        assert!(root.lower_bound() <= lightest_checking_bounds(&p, &root));
    }

    /// An integer matrix with entries in `1..=8` of family `family`:
    /// 0 = uniform, 1 = three clusters (1..=3 inside, 6..=8 across),
    /// 2 = tie-heavy (1..=2).
    fn integer_matrix(family: usize, n: usize, rng: &mut StdRng) -> DistanceMatrix {
        let mut m = DistanceMatrix::zeros(n).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = match family {
                    0 => rng.gen_range(1..=8u32),
                    1 if i % 3 == j % 3 => rng.gen_range(1..=3u32),
                    1 => rng.gen_range(6..=8u32),
                    _ => rng.gen_range(1..=2u32),
                };
                m.set(i, j, d as f64);
            }
        }
        m
    }

    /// Enumerates every completion of `t` through `branch` (no incumbent,
    /// so every child is built) and returns the lightest. On the way back
    /// up, each child's cached bound must sit at or below its lightest
    /// completion and at or above the static `ω + Σ base`.
    fn lightest_checking_bounds(p: &MutProblem, t: &PartialTree) -> f64 {
        if t.is_complete() {
            return t.weight();
        }
        let mut kids = ChildBuf::new();
        p.branch(t, &mut kids);
        assert_eq!(kids.len(), 2 * t.leaves_inserted() - 1);
        let mut best = f64::INFINITY;
        for c in kids.as_slice() {
            let lightest = lightest_checking_bounds(p, c);
            let lb = c.lower_bound();
            let static_lb = c.weight() + pendant_sum(c.pendant_terms());
            assert!(
                lb <= lightest,
                "k = {}: LB {lb} above completion {lightest}",
                c.leaves_inserted()
            );
            assert!(lb >= static_lb, "LB {lb} below the static {static_lb}");
            best = best.min(lightest);
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The look-ahead bound is admissible at every node branching
        /// reaches and never weaker than the static bound, on random,
        /// clustered and tie-heavy integer matrices.
        #[test]
        fn look_ahead_bound_is_admissible_everywhere(
            n in 4usize..=8,
            family in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = integer_matrix(family, n, &mut rng);
            let p = MutProblem::new(&m, ThreeThree::Off, false);
            let root = p.root();
            let best = lightest_checking_bounds(&p, &root);
            prop_assert!(root.lower_bound() <= best);
            prop_assert!(root.lower_bound() >= root.weight() + pendant_sum(root.pendant_terms()));
        }
    }

    /// A `family` test matrix over `n` taxa: 0 = uniform random metric,
    /// 1 = four tight clusters at one common distance, 2 = integer
    /// distances in `1..=3` (ties everywhere).
    fn family_matrix(family: usize, n: usize, rng: &mut StdRng) -> DistanceMatrix {
        if family == 0 {
            return mutree_distmat::gen::uniform_metric(n, 1.0, 100.0, rng);
        }
        let mut m = DistanceMatrix::zeros(n).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = match family {
                    1 if i % 4 == j % 4 => rng.gen_range(2.0..8.0),
                    1 => 100.0,
                    _ => rng.gen_range(1..=3u32) as f64,
                };
                m.set(i, j, d);
            }
        }
        m
    }

    /// Walks two random insertion paths and branches every node of the
    /// second; every child `branch` builds must carry rows bit-identical
    /// to a fresh pass over it. Before each branch, a node from the first
    /// path that is deeper, and one that is shallower, go into the spare
    /// pool, so the first two children are written over stale rows of
    /// both shapes.
    fn check_branch_rows(m: &DistanceMatrix, rng: &mut StdRng) {
        let n = m.len();
        let p = MutProblem::new(m, ThreeThree::Off, false);
        let mut first = vec![p.root()];
        while !first.last().unwrap().is_complete() {
            let t = first.last().unwrap();
            let sites: Vec<u32> = t.insertion_sites().collect();
            first.push(t.insert_next(&p.half, sites[rng.gen_range(0..sites.len())]));
        }
        let mut t = p.root();
        let mut kids = ChildBuf::new();
        while !t.is_complete() {
            let k = t.leaves_inserted();
            kids.clear();
            kids.retire(first[n - 2 - (n - 1 - k) / 2].clone());
            kids.retire(first[(k - 2) / 2].clone());
            p.branch(&t, &mut kids);
            assert_eq!(kids.len(), 2 * k - 1);
            for c in kids.as_slice() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(c.rows()),
                    bits(&c.fresh_rows(&p.half)),
                    "n = {n}, k = {k}"
                );
            }
            t = kids.as_slice()[rng.gen_range(0..kids.len())].clone();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Branching's row refresh is exact: each built child's carried
        /// rows equal a fresh pass over it, recycled spares included, on
        /// random, clustered and tie-heavy matrices.
        #[test]
        fn branch_children_carry_fresh_rows(
            n in 3usize..=24,
            family in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = family_matrix(family, n, &mut rng);
            check_branch_rows(&m, &mut rng);
        }
    }

    #[test]
    fn upgmm_incumbent_upper_bounds_optimum() {
        let m = m5();
        let p = MutProblem::new(&m, ThreeThree::Off, true);
        let (tree, w) = p.initial_incumbent().unwrap();
        assert!(tree.is_feasible_for(&m, 1e-9));
        assert!(w >= brute_force(&m) - 1e-9);
    }

    #[test]
    fn three_three_preserves_the_optimum_here() {
        let m = m5();
        let base = solve_sequential(
            &MutProblem::new(&m, ThreeThree::Off, true),
            &SearchOptions::new(SearchMode::BestOne),
        );
        let constrained = solve_sequential(
            &MutProblem::new(&m, ThreeThree::InitialOnly, true),
            &SearchOptions::new(SearchMode::BestOne),
        );
        assert_eq!(base.best_value, constrained.best_value);
    }

    #[test]
    fn three_three_reduces_branching() {
        let m = m5();
        let p_off = MutProblem::new(&m, ThreeThree::Off, false);
        let p_initial = MutProblem::new(&m, ThreeThree::InitialOnly, false);
        let node = p_off.root();
        let mut kids_off = ChildBuf::new();
        let mut kids_initial = ChildBuf::new();
        // Expand two levels and compare the generated child counts.
        p_off.branch(&node, &mut kids_off);
        p_initial.branch(&node, &mut kids_initial);
        let count = |kids: &ChildBuf<PartialTree>, p: &MutProblem| -> usize {
            let mut total = kids.len();
            let mut grand = ChildBuf::new();
            for k in kids.as_slice() {
                grand.clear();
                p.branch(k, &mut grand);
                total += grand.len();
            }
            total
        };
        assert!(count(&kids_initial, &p_initial) < count(&kids_off, &p_off));
    }

    #[test]
    fn all_optimal_enumerates_distinct_cooptima() {
        // An ultrametric matrix with a tie: leaves 2 and 3 are symmetric,
        // so at least... actually symmetric taxa still give one topology.
        // Use a matrix with genuinely tied resolutions instead: equidistant
        // triple.
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 6.0, 6.0],
            vec![6.0, 0.0, 6.0],
            vec![6.0, 6.0, 0.0],
        ])
        .unwrap();
        let p = MutProblem::new(&m, ThreeThree::Off, false);
        let out = solve_sequential(&p, &SearchOptions::new(SearchMode::AllOptimal));
        // All three resolutions of the triple cost the same: both internal
        // nodes sit at height 3, so ω = 3 + 3 + 3 + 0.
        assert_eq!(out.solutions.len(), 3);
        assert!((out.best_value.unwrap() - 9.0).abs() < 1e-9);
    }

    /// The root's 3-3 filter keeps exactly the sites whose child
    /// resolves the triple `(0, 1, s)` as the matrix nominates, for every
    /// possible next leaf `s`, ties included.
    #[test]
    fn initial_three_three_keeps_the_consistent_root_sites() {
        let tied = DistanceMatrix::from_rows(&[
            vec![0.0, 6.0, 6.0, 2.0],
            vec![6.0, 0.0, 6.0, 7.0],
            vec![6.0, 6.0, 0.0, 4.0],
            vec![2.0, 7.0, 4.0, 0.0],
        ])
        .unwrap();
        for m in [m5(), tied] {
            let p = MutProblem::new(&m, ThreeThree::InitialOnly, false);
            for lane in 0..m.len() - 2 {
                let mut root = p.root();
                root.set_next_lane(lane);
                let s = root.next_leaf();
                for site in root.insertion_sites() {
                    let child = root.insert_next(&p.half, site);
                    let consistent = triples::is_consistent(&child.to_ultrametric(), &m, 0, 1, s);
                    assert_eq!(
                        p.three_three_ok(s, site),
                        consistent,
                        "s = {s}, site {site}"
                    );
                }
            }
        }
    }

    #[test]
    fn root_bound_and_next_leaf_match_the_definition() {
        let m = m5();
        let p = MutProblem::new(&m, ThreeThree::Off, false);
        let root = p.root();
        // base[t] = ½ min_{i<t} M[i,t]: ½ min(4,7) = 2, ½ min(6,8,3) = 1.5,
        // ½ min(5,6,5,5) = 2.5; Σ = 6.
        let base: Vec<f64> = root.pendant_terms().to_vec();
        assert_eq!(base, vec![2.0, 1.5, 2.5]);
        // The static root bound would be 9 + 6 = 15. Look-ahead at the
        // cherry (0, 1), root height 4.5: a future leaf's cheapest site
        // is above leaf 0 (half-distance, no root raise), so
        //   f = 2: min Δ = 4/2 = 2,   adj = 1.5 + 2.5 = 4              → 6;
        //   f = 3: min Δ = 6/2 = 3,   adj = min(2, 1.5) + 2.5 = 4      → 7;
        //   f = 4: min Δ = 5/2 = 2.5, adj = min(2, 2.5) + min(1.5, 2.5) → 6.
        // Root LB = 9 + 7, and f = 3 attains it.
        let mut adj = vec![0.0; 3];
        let sum = pendant_adj(&p.half, 5, |g| g + 2, &base, &mut adj);
        assert_eq!(sum, 6.0);
        assert_eq!(adj, vec![4.0, 4.0, 3.5]);
        assert!((root.lower_bound() - 16.0).abs() < 1e-12);
        assert_eq!(root.next_leaf(), 3);
        assert!(root.lower_bound() <= brute_force(&m));
        // A child of the root inserts 3: taxon 2's term drops to
        // min(2, ½M[3,2]) = 1.5, taxon 4's stays.
        let mut kids = ChildBuf::new();
        p.branch(&root, &mut kids);
        for c in kids.as_slice() {
            assert_eq!(c.newest_leaf(), 3);
            assert_eq!(c.pendant_terms(), &[1.5, 2.5]);
        }
    }

    /// On a tie-free matrix, the search's node counts and optimum do not
    /// depend on how the taxa are labeled: the solver relabels into the
    /// same search order, and ties between lanes break by lane order.
    #[test]
    fn relabeled_copies_search_the_same_tree() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = mutree_distmat::gen::uniform_metric(11, 1.0, 100.0, &mut rng);
        let solve = |m: &DistanceMatrix| {
            let pm = m.search_order().apply(m);
            let out = solve_sequential(
                &MutProblem::new(&pm, ThreeThree::Off, true),
                &SearchOptions::new(SearchMode::BestOne),
            );
            (
                out.stats.branched,
                out.stats.pruned,
                out.best_value.unwrap().to_bits(),
            )
        };
        let want = solve(&m);
        for _ in 0..4 {
            let mut perm: Vec<usize> = (0..m.len()).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            assert_eq!(solve(&m.permute(&perm)), want);
        }
    }
}
