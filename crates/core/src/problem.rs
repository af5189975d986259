use mutree_bnb::bound::{self, triple_index, CLOSE_EARLIER, CLOSE_NONE, CLOSE_WITH_LOW};
use mutree_bnb::{ChildBuf, Problem, SearchOptions, TripleDomains};
use mutree_distmat::DistanceMatrix;
use mutree_tree::{cluster, Linkage, UltrametricTree};

use mutree_engine::ThreeThree;

use crate::node::{fmax, half_distances, ArmIndex, SITE_CUT};
use crate::PartialTree;

/// The metric minimum ultrametric tree problem as a branch-and-bound
/// [`Problem`], following Wu–Chao–Tang's Algorithm BBU.
///
/// The matrix **must already be maxmin-relabeled** for the lower bound to
/// prune well (the bound stays admissible for any species order);
/// [`MutSolver`](crate::MutSolver) handles the relabeling.
///
/// * **Nodes** — [`PartialTree`]s over the first `k` species, with minimal
///   heights for their topology.
/// * **Branching** — insert species `k` at each of the `2k − 1` sites,
///   optionally filtered by the [`ThreeThree`] rule. Under
///   [`ThreeThree::Full`] the fixed triple relations also propagate:
///   each node carries future-leaf confinement masks that pre-filter
///   insertion sites and prune the node when two confinements
///   contradict (see [`Problem::propagate`]).
/// * **Lower bound** — the look-ahead bound
///   `ω(partial) + max_{f ≥ k} [min_site Δ_f + adj[k][f]]`, less a
///   rounding margin. Insert future leaf `f` first:
///   the completion restricted to the placed leaves plus `f` weighs at
///   least `ω + min_site Δ_f`, the cheapest exact insertion of `f`. Every
///   other remaining leaf `t` then adds at least half its distance to
///   the nearest leaf already present, and `f` now counts as present:
///   `adj[k][f] = Σ_{k ≤ t < f} ½ min(minrow[t], M[f,t]) + suffix[f+1]`,
///   where `minrow[t] = min_{i<t} M[i,t]` and `suffix` is Wu–Chao–Tang's
///   pendant suffix. Each `f` is admissible, and the `f = k` term is at
///   least the static `ω + suffix[k]`, which the cached bound never
///   falls below. The `half` and `adj` tables are precomputed in
///   `O(n²)`. Every node carries its look-ahead rows (see
///   [`PartialTree`]): the root fills them once, and a built child
///   refreshes only the new leaf's root path. Branching makes one `O(k)`
///   top-down pass over the parent that scores all `2k − 1` sites (the
///   scores of [`PartialTree::site_weight`]) and cuts every subtree of sites
///   whose common score prefix the incumbent already rejects. Each
///   surviving site's child is then bounded from the parent's rows,
///   before it is built, by folding the child's root path
///   ([`PartialTree::child_min_insertions`]). The site pass is the only
///   step of a branch that visits the whole tree.
/// * **Initial incumbent** — the UPGMM tree (complete-linkage
///   agglomeration) with its own linkage heights, whose distances
///   dominate the matrix — exactly the paper's Step 3 upper bound.
pub struct MutProblem<const K: usize = 1> {
    /// Owned so a problem can be `Arc`-shared across executor tasks whose
    /// lifetimes outlive the caller's stack frame (see `mutree_core::exec`).
    m: DistanceMatrix,
    /// `suffix[k]` = Σ_{t=k}^{n−1} min_{i<t} M[i,t] / 2; `suffix[n]` = 0.
    suffix: Vec<f64>,
    /// `half[y·n + f] = max(M[y,f], 0) / 2` ([`half_distances`]): row
    /// `y` (a placed leaf) holds the half-distances to every future leaf
    /// `f` contiguously, a leaf's pendant heights and look-ahead rows.
    half: Vec<f64>,
    /// `adj[k·n + f]` for `2 ≤ k ≤ f < n`: the pendant suffix of a tree
    /// over `k` leaves once future leaf `f` is inserted first (see the
    /// lower bound above); other entries are unused.
    adj: Vec<f64>,
    /// Memoized 3-3 close pairs, one byte per triple `i < j < s` at index
    /// `C(s,3) + C(j,2) + i` (see [`triple_index`]); empty when the rule
    /// is [`ThreeThree::Off`]. The matrix never changes after
    /// construction, so `close_pair_in_matrix` is pure — one `O(n³)`
    /// precompute here replaces a distance-comparison triple per checked
    /// topology per node expansion.
    close_pairs: Vec<u8>,
    three_three: ThreeThree,
    use_upgmm: bool,
    /// Per-pair `[Earlier, WithLow, WithHigh]` arm masks for the
    /// propagation stage's future-leaf confinements, decoded from the
    /// packed 2-bit [`TripleDomains`] at construction — the form
    /// [`PartialTree::prop_advance`] folds with three intersection tests
    /// per root-path level instead of a per-triple decode. Empty unless
    /// the 3-3 rule is [`ThreeThree::Full`] — only then is the arm set
    /// part of the problem semantics, making a confinement wipeout a
    /// pure look-ahead of checks the filter applies anyway.
    arms: ArmIndex<K>,
    /// Permuted-index → original-index taxon map for checkpoint payloads;
    /// `None` means the identity (no maxmin relabeling was applied).
    /// Checkpoints always store original indexing so a resumed run is
    /// independent of the relabeling that produced the snapshot.
    taxon_map: Option<Vec<usize>>,
    /// A warm-start incumbent recovered from a checkpoint, already in
    /// *permuted* indexing. Competes with the UPGMM tree in
    /// [`initial_incumbent`](Problem::initial_incumbent); the better
    /// bound wins.
    resume: Option<(UltrametricTree, f64)>,
}

impl<const K: usize> MutProblem<K> {
    /// Wraps a (relabeled) matrix. `use_upgmm` controls whether the UPGMM
    /// heuristic seeds the upper bound (disable to ablate Step 3).
    ///
    /// # Panics
    ///
    /// Panics when the matrix exceeds the `64·K` taxa this width's leaf
    /// bitsets can hold ([`MutSolver`](crate::MutSolver) dispatches to a
    /// wide-enough width automatically).
    pub fn new(m: &DistanceMatrix, three_three: ThreeThree, use_upgmm: bool) -> Self {
        let n = m.len();
        assert!(
            n <= PartialTree::<K>::MAX_TAXA,
            "MutProblem with {K} leaf words supports at most {} taxa, got {n}",
            PartialTree::<K>::MAX_TAXA
        );
        // The node's lane kernels compare without a NaN guard (see
        // `node::fmin`), which is exact only on what `DistanceMatrix`
        // promises: finite, non-negative entries.
        debug_assert!(
            m.pairs().all(|(_, _, d)| d.is_finite() && d >= 0.0),
            "distances must be finite and non-negative"
        );
        // minrow[t] = min_{i<t} M[i,t]; entries below t = 2 stay 0 and are
        // never read by the suffix recurrence.
        let mut minrow = vec![0.0; n];
        for (t, slot) in minrow.iter_mut().enumerate().skip(2) {
            *slot = (0..t).map(|i| m.get(i, t)).fold(f64::INFINITY, f64::min);
        }
        let suffix = bound::pendant_suffix(&minrow);
        let half = half_distances(m);
        // adj[k][f] = adj[k + 1][f] + ½ min(minrow[k], M[f,k]), from
        // adj[f][f] = suffix[f + 1] down to k = 2.
        let mut adj = vec![0.0; n * n];
        for f in 2..n {
            adj[f * n + f] = suffix[f + 1];
            for k in (2..f).rev() {
                adj[k * n + f] = adj[(k + 1) * n + f] + minrow[k].min(m.get(f, k)) / 2.0;
            }
        }
        let close_pairs = if matches!(three_three, ThreeThree::Off) {
            Vec::new()
        } else {
            let mut table = vec![CLOSE_NONE; bound::close_pair_table_len(n)];
            for s in 2..n {
                for j in 1..s {
                    let d_js = m.get(j, s);
                    for i in 0..j {
                        table[triple_index(i, j, s)] =
                            bound::close_pair_code(m.get(i, j), m.get(i, s), d_js);
                    }
                }
            }
            table
        };
        // The confinement domains reuse the close-pair table verbatim —
        // they are the same arm codes, packed — but only under the Full
        // rule is pruning on them answer-preserving.
        let arms = if matches!(three_three, ThreeThree::Full) {
            ArmIndex::build(n, &TripleDomains::pack(&close_pairs))
        } else {
            ArmIndex::default()
        };
        MutProblem {
            m: m.clone(),
            suffix,
            half,
            adj,
            close_pairs,
            three_three,
            use_upgmm,
            arms,
            taxon_map: None,
            resume: None,
        }
    }

    /// The matrix this problem searches over.
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.m
    }

    /// Sets the permuted→original taxon map applied when encoding
    /// checkpoint payloads (see [`Problem::encode_solution`]). Without it,
    /// payloads use the problem's own (permuted) indexing.
    pub fn set_taxon_map(&mut self, map: Vec<usize>) {
        self.taxon_map = Some(map);
    }

    /// Injects a checkpoint-recovered incumbent (in this problem's own,
    /// i.e. permuted, indexing). It competes with the UPGMM heuristic in
    /// [`Problem::initial_incumbent`]; whichever bound is lower seeds the
    /// search, so a resume can only tighten the warm start, never loosen
    /// it.
    pub fn set_resume_incumbent(&mut self, tree: UltrametricTree, weight: f64) {
        self.resume = Some((tree, weight));
    }

    /// `max_{f ≥ k} [lanes[f − k] + adj[k][f]]`: what the look-ahead
    /// adds to `ω` for a tree over `k` leaves whose `min_site Δ_f` are
    /// `lanes`. Every term is non-negative, so `0` is a safe start, and it
    /// is the answer for a complete tree.
    fn look_ahead_gain(&self, k: usize, lanes: &[f64]) -> f64 {
        let n = self.m.len();
        if k == n {
            return 0.0;
        }
        let adj = &self.adj[k * n + k..k * n + n];
        lanes
            .iter()
            .zip(adj)
            .fold(0.0, |acc, (&d, &a)| fmax(acc, d + a))
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

    /// Checks the 3-3 rule for species `s` placed with root-path `order`
    /// (see [`PartialTree::site_orders`]): every triple `(i, j, s)` with a
    /// strict matrix close pair must be resolved the same way by the
    /// topology. `O(s²)` table lookups — the close pairs themselves were
    /// memoized at construction, so no distance comparison runs per node
    /// expansion.
    fn three_three_ok(&self, s: usize, order: &[f64]) -> bool {
        for i in 0..s {
            for j in (i + 1)..s {
                let ok = match self.close_pairs[triple_index(i, j, s)] {
                    CLOSE_NONE => continue,
                    CLOSE_EARLIER => order[i] == order[j],
                    CLOSE_WITH_LOW => order[i] < order[j],
                    _ => order[j] < order[i],
                };
                if !ok {
                    return false;
                }
            }
        }
        true
    }
}

impl<const K: usize> Problem for MutProblem<K> {
    type Node = PartialTree<K>;
    type Solution = UltrametricTree;

    fn root(&self) -> PartialTree<K> {
        let mut t = PartialTree::<K>::cherry(&self.m, &self.half);
        let mut lanes = vec![0.0; self.m.len() - 2];
        t.min_insertions(&self.half, &mut lanes);
        let look_ahead = self.less_margin(t.weight() + self.look_ahead_gain(2, &lanes));
        t.set_lower_bound(look_ahead.max(t.weight() + self.suffix[2]));
        if !self.arms.is_empty() {
            t.prop_activate();
            t.prop_advance(&self.arms);
        }
        t
    }

    fn lower_bound(&self, node: &PartialTree<K>) -> f64 {
        node.lower_bound()
    }

    fn solution(&self, node: &PartialTree<K>) -> Option<(UltrametricTree, f64)> {
        node.is_complete()
            .then(|| (node.to_ultrametric(), node.weight()))
    }

    fn branch(&self, node: &PartialTree<K>, out: &mut ChildBuf<PartialTree<K>>) {
        let half = &self.half;
        let filter = match self.three_three {
            ThreeThree::Off => false,
            ThreeThree::InitialOnly => node.leaves_inserted() == 2,
            ThreeThree::Full => true,
        };
        // With live confinement masks, the next leaf's fold is complete
        // (every triple it joins has both earlier leaves placed), so a
        // mask-rejected site's child is guaranteed to fail its own 3-3
        // check — skip it before scoring it.
        let confine = filter && node.prop_is_active() && !node.prop_wiped();
        let s = node.leaves_inserted();
        let suffix = self.suffix[s + 1];
        // Future leaves of the children: `s + 1..n`, one lane each.
        let lo = s + 1;
        let w = self.m.len() - lo;
        // One borrowed buffer, no per-branch allocation once warm: (under
        // the rule) the at-site root-path orders, one child's lanes, then
        // every site's score. The pendant heights and look-ahead rows live
        // on the node.
        let order_len = if filter { s } else { 0 };
        let mut scratch = out.take_scratch();
        scratch.resize(order_len + w + 2 * s - 1, 0.0);
        let (order, rest) = scratch.split_at_mut(order_len);
        let (lanes, scores) = rest.split_at_mut(w);
        // Score every site from the parent in one pass; build only what
        // can survive the kernel's child prune. The margin keeps a score
        // at or below the built child's weight, so a skipped child is one
        // the kernel would have pruned, and the test is monotone in the
        // score, so the pass may cut whole subtrees of sites on a prefix.
        let admits = |out: &ChildBuf<PartialTree<K>>, est: f64| {
            out.admits(est - node.site_weight_margin(est) + suffix)
        };
        node.site_weights(half, |est| admits(out, est), scores);
        for (site, &est) in node.insertion_sites().zip(scores.iter()) {
            if confine && !node.prop_allows(site) {
                continue;
            }
            if filter {
                node.site_orders(site, order);
                if !self.three_three_ok(s, order) {
                    continue;
                }
            }
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
            // Then the look-ahead bound, still without building the child.
            let look_ahead = if w == 0 {
                f64::NEG_INFINITY
            } else {
                node.child_min_insertions(half, site, lanes);
                self.less_margin(est + self.look_ahead_gain(lo, lanes))
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
            // child computes, and give the lanes it was admitted on.
            #[cfg(debug_assertions)]
            {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(child.rows()),
                    bits(&child.fresh_rows(half)),
                    "site {site}: carried rows differ from a fresh pass"
                );
                let mut carried = vec![0.0; w];
                child.min_insertions(half, &mut carried);
                assert_eq!(bits(&carried), bits(&lanes[..]), "site {site}: lanes");
            }
            child.set_lower_bound(look_ahead.max(child.weight() + suffix));
            if child.prop_is_active() {
                child.prop_advance(&self.arms);
            }
            out.push(child);
        }
        out.restore_scratch(scratch);
    }

    fn propagate(&self, node: &PartialTree<K>, _ub: f64, _opts: &SearchOptions) -> bool {
        // A confinement wipeout is ub-independent: every completion of
        // the node dies in a later 3-3 check, so pruning it now only
        // skips work, never a solution.
        node.prop_wiped()
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
        // A checkpoint-recovered incumbent competes with the heuristic:
        // the lower bound wins, so resuming never weakens the warm start.
        match (upgmm, self.resume.clone()) {
            (Some(u), Some(r)) => Some(if r.1 < u.1 { r } else { u }),
            (u, r) => u.or(r),
        }
    }

    fn encode_solution(&self, solution: &UltrametricTree) -> Option<Vec<u8>> {
        // Checkpoints store original taxon indexing: remap before
        // serializing when the matrix was maxmin-relabeled.
        match &self.taxon_map {
            Some(map) => {
                let mut t = solution.clone();
                t.map_taxa(|permuted| map[permuted]);
                Some(crate::codec::encode_tree(&t))
            }
            None => Some(crate::codec::encode_tree(solution)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_bnb::bound::CLOSE_WITH_HIGH;
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
        let p = MutProblem::<1>::new(m, ThreeThree::Off, false);
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
        let p = MutProblem::<1>::new(&m, ThreeThree::Off, true);
        let out = solve_sequential(&p, &SearchOptions::new(SearchMode::BestOne));
        assert!((out.best_value.unwrap() - brute_force(&m)).abs() < 1e-9);
        let tree = &out.solutions[0];
        assert!(tree.is_feasible_for(&m, 1e-9));
        assert!((tree.weight() - out.best_value.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_is_admissible_along_paths() {
        let m = m5();
        let p = MutProblem::<1>::new(&m, ThreeThree::Off, false);
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
    /// completion and at or above the static `ω + suffix[k]`.
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
            let static_lb = c.weight() + p.suffix[c.leaves_inserted()];
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
            let p = MutProblem::<1>::new(&m, ThreeThree::Off, false);
            let root = p.root();
            let best = lightest_checking_bounds(&p, &root);
            prop_assert!(root.lower_bound() <= best);
            prop_assert!(root.lower_bound() >= root.weight() + p.suffix[2]);
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
    fn check_branch_rows<const K: usize>(m: &DistanceMatrix, rng: &mut StdRng) {
        let n = m.len();
        let p = MutProblem::<K>::new(m, ThreeThree::Off, false);
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
                    "K = {K}, n = {n}, k = {k}"
                );
            }
            t = kids.as_slice()[rng.gen_range(0..kids.len())].clone();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Branching's row refresh is exact: each built child's carried
        /// rows equal a fresh pass over it, recycled spares included, on
        /// random, clustered and tie-heavy matrices at every width.
        #[test]
        fn branch_children_carry_fresh_rows(
            n in 3usize..=24,
            family in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = family_matrix(family, n, &mut rng);
            check_branch_rows::<1>(&m, &mut rng);
            check_branch_rows::<2>(&m, &mut rng);
            check_branch_rows::<4>(&m, &mut rng);
        }
    }

    #[test]
    fn upgmm_incumbent_upper_bounds_optimum() {
        let m = m5();
        let p = MutProblem::<1>::new(&m, ThreeThree::Off, true);
        let (tree, w) = p.initial_incumbent().unwrap();
        assert!(tree.is_feasible_for(&m, 1e-9));
        assert!(w >= brute_force(&m) - 1e-9);
    }

    #[test]
    fn three_three_preserves_the_optimum_here() {
        let m = m5();
        let base = solve_sequential(
            &MutProblem::<1>::new(&m, ThreeThree::Off, true),
            &SearchOptions::new(SearchMode::BestOne),
        );
        for mode in [ThreeThree::InitialOnly, ThreeThree::Full] {
            let constrained = solve_sequential(
                &MutProblem::<1>::new(&m, mode, true),
                &SearchOptions::new(SearchMode::BestOne),
            );
            assert_eq!(base.best_value, constrained.best_value, "{mode:?}");
        }
    }

    #[test]
    fn three_three_reduces_branching() {
        let m = m5();
        let p_off = MutProblem::<1>::new(&m, ThreeThree::Off, false);
        let p_full = MutProblem::<1>::new(&m, ThreeThree::Full, false);
        let node = p_off.root();
        let mut kids_off = ChildBuf::new();
        let mut kids_full = ChildBuf::new();
        // Expand two levels and compare the generated child counts.
        p_off.branch(&node, &mut kids_off);
        p_full.branch(&node, &mut kids_full);
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
        assert!(count(&kids_full, &p_full) < count(&kids_off, &p_off));
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
        let p = MutProblem::<1>::new(&m, ThreeThree::Off, false);
        let out = solve_sequential(&p, &SearchOptions::new(SearchMode::AllOptimal));
        // All three resolutions of the triple cost the same: both internal
        // nodes sit at height 3, so ω = 3 + 3 + 3 + 0.
        assert_eq!(out.solutions.len(), 3);
        assert!((out.best_value.unwrap() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn close_pair_table_matches_direct_computation() {
        // Include a matrix with ties so the CLOSE_NONE arm is exercised.
        let tied = DistanceMatrix::from_rows(&[
            vec![0.0, 6.0, 6.0, 2.0],
            vec![6.0, 0.0, 6.0, 7.0],
            vec![6.0, 6.0, 0.0, 4.0],
            vec![2.0, 7.0, 4.0, 0.0],
        ])
        .unwrap();
        for m in [m5(), tied] {
            let p = MutProblem::<1>::new(&m, ThreeThree::Full, false);
            for s in 2..m.len() {
                for j in 1..s {
                    for i in 0..j {
                        let expected = match triples::close_pair_in_matrix(&m, i, j, s) {
                            None => CLOSE_NONE,
                            Some(cp) if cp == (i, j) => CLOSE_EARLIER,
                            Some(cp) if cp == (i, s) => CLOSE_WITH_LOW,
                            Some(_) => CLOSE_WITH_HIGH,
                        };
                        assert_eq!(
                            p.close_pairs[triple_index(i, j, s)],
                            expected,
                            "triple ({i},{j},{s})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn suffix_bound_matches_definition() {
        let m = m5();
        let p = MutProblem::<1>::new(&m, ThreeThree::Off, false);
        // minrow[2] = min(4,7) = 4; minrow[3] = min(6,8,3) = 3;
        // minrow[4] = min(5,6,5,5) = 5. suffix[2] = (4+3+5)/2 = 6.
        assert!((p.suffix[2] - 6.0).abs() < 1e-12);
        assert!((p.suffix[4] - 2.5).abs() < 1e-12);
        assert_eq!(p.suffix[5], 0.0);
        // The static root bound would be 9 + 6 = 15. Look-ahead at the
        // cherry (0, 1), root height 4.5: a future leaf's cheapest site
        // is above leaf 0 (half-distance, no root raise), so
        //   f = 2: min Δ = 4/2 = 2,   adj = suffix[3] = 4          → 6;
        //   f = 3: min Δ = 6/2 = 3,   adj = min(4, 3)/2 + 2.5 = 4  → 7;
        //   f = 4: min Δ = 5/2 = 2.5, adj = 4/2 + 3/2 = 3.5        → 6.
        // Root LB = 9 + 7.
        assert!((p.adj[2 * 5 + 3] - 4.0).abs() < 1e-12);
        assert!((p.adj[2 * 5 + 4] - 3.5).abs() < 1e-12);
        assert!((p.root().lower_bound() - 16.0).abs() < 1e-12);
        assert!(p.root().lower_bound() <= brute_force(&m));
    }
}
