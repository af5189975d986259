use mutree_bnb::bound::{self, triple_index, CLOSE_EARLIER, CLOSE_NONE, CLOSE_WITH_LOW};
use mutree_bnb::{ChildBuf, Problem, SearchOptions, TripleDomains};
use mutree_distmat::DistanceMatrix;
use mutree_tree::{cluster, Linkage, UltrametricTree};

use mutree_engine::ThreeThree;

use crate::node::ArmIndex;
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
/// * **Lower bound** — `ω(partial) + ½ Σ_{t>k} min_{i<t} M[i,t]`: each
///   remaining species `t` eventually hangs from an ancestor of height at
///   least `½ min_{i<t} M[i,t]` (its parent separates it from some earlier
///   species), and those pendant edges are pairwise disjoint. The suffix
///   sums are precomputed.
/// * **Initial incumbent** — the UPGMM tree (complete-linkage
///   agglomeration) with its own linkage heights, whose distances
///   dominate the matrix — exactly the paper's Step 3 upper bound.
pub struct MutProblem<const K: usize = 1> {
    /// Owned so a problem can be `Arc`-shared across executor tasks whose
    /// lifetimes outlive the caller's stack frame (see `mutree_core::exec`).
    m: DistanceMatrix,
    /// `suffix[k]` = Σ_{t=k}^{n−1} min_{i<t} M[i,t] / 2; `suffix[n]` = 0.
    suffix: Vec<f64>,
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
        // minrow[t] = min_{i<t} M[i,t]; entries below t = 2 stay 0 and are
        // never read by the suffix recurrence.
        let mut minrow = vec![0.0; n];
        for (t, slot) in minrow.iter_mut().enumerate().skip(2) {
            *slot = (0..t).map(|i| m.get(i, t)).fold(f64::INFINITY, f64::min);
        }
        let suffix = bound::pendant_suffix(&minrow);
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

    fn bound_of(&self, t: &PartialTree<K>) -> f64 {
        t.weight() + self.suffix[t.leaves_inserted()]
    }

    /// Checks the 3-3 rule for the species inserted last: every triple
    /// `(i, j, s)` with a strict matrix close pair must be resolved the
    /// same way by the topology. `O(k²)` table lookups via the root-path
    /// orders of `s` — the close pairs themselves were memoized at
    /// construction, so no distance comparison runs per node expansion.
    fn three_three_ok(&self, t: &PartialTree<K>) -> bool {
        let s = t.leaves_inserted() - 1;
        let order = t.root_path_orders();
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
        let mut t = PartialTree::<K>::cherry(&self.m);
        let lb = self.bound_of(&t);
        t.set_lower_bound(lb);
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
        let m = &self.m;
        let filter = match self.three_three {
            ThreeThree::Off => false,
            ThreeThree::InitialOnly => node.leaves_inserted() == 2,
            ThreeThree::Full => true,
        };
        // With live confinement masks, the next leaf's fold is complete
        // (every triple it joins has both earlier leaves placed), so a
        // mask-rejected site's child is guaranteed to fail its own 3-3
        // check — skip it before paying for the arena copy.
        let confine = filter && node.prop_is_active() && !node.prop_wiped();
        for site in node.insertion_sites() {
            if confine && !node.prop_allows(site) {
                continue;
            }
            // Overwrite a retired sibling when one is available: after the
            // pool warms up, branching allocates nothing.
            let mut child = match out.recycle() {
                Some(mut scratch) => {
                    node.insert_next_into(m, site, &mut scratch);
                    scratch
                }
                None => node.insert_next(m, site),
            };
            if filter && !self.three_three_ok(&child) {
                out.retire(child);
                continue;
            }
            let lb = self.bound_of(&child);
            child.set_lower_bound(lb);
            if child.prop_is_active() {
                child.prop_advance(&self.arms);
            }
            out.push(child);
        }
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
                stack.push(t.insert_next(m, site));
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
        // For every partial tree, LB must not exceed the weight of any
        // completion reachable from it.
        fn walk(p: &MutProblem, t: &PartialTree) -> f64 {
            if t.is_complete() {
                return t.weight();
            }
            let mut best = f64::INFINITY;
            let mut kids = ChildBuf::new();
            p.branch(t, &mut kids);
            for k in kids.as_slice() {
                let completion = walk(p, k);
                assert!(
                    k.lower_bound() <= completion + 1e-9,
                    "LB {} exceeds a completion of weight {}",
                    k.lower_bound(),
                    completion
                );
                best = best.min(completion);
            }
            best
        }
        let root = p.root();
        let best = walk(&p, &root);
        assert!(root.lower_bound() <= best + 1e-9);
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
        // Root LB = 9 + 6.
        assert!((p.root().lower_bound() - 15.0).abs() < 1e-12);
    }
}
