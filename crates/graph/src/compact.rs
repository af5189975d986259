use std::cmp::Ordering;

use mutree_distmat::DistanceMatrix;

/// An edge `(u, v)`, `u < v`, of the complete graph over a matrix,
/// weighing the matrix entry.
#[derive(Debug, Clone, Copy)]
struct Edge {
    u: usize,
    v: usize,
    weight: f64,
}

/// A compact set: a vertex subset whose largest internal distance is smaller
/// than its smallest escaping distance (`Max(C) < Min(C, V ∖ C)`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompactSet {
    members: Vec<usize>,
    max_internal: f64,
    min_crossing: f64,
}

impl CompactSet {
    /// The member vertices, sorted ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Compact sets always have at least two members here, so this is
    /// always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `Max(C)`: the largest pairwise distance inside the set.
    pub fn max_internal(&self) -> f64 {
        self.max_internal
    }

    /// `Min(C, V ∖ C)`: the smallest distance from a member to a
    /// non-member.
    pub fn min_crossing(&self) -> f64 {
        self.min_crossing
    }

    /// Whether `other ⊆ self`.
    pub fn contains_set(&self, other: &CompactSet) -> bool {
        // Both member lists are sorted.
        let mut it = self.members.iter().peekable();
        'outer: for x in &other.members {
            for y in it.by_ref() {
                match y.cmp(x) {
                    Ordering::Equal => continue 'outer,
                    Ordering::Greater => return false,
                    Ordering::Less => {}
                }
            }
            return false;
        }
        true
    }
}

/// All *proper* compact sets of a distance matrix: sets with at least two
/// members and fewer than all of them. Singletons and the full vertex set
/// are compact by convention and are omitted.
///
/// Sets are stored in *canonical order*: ascending by the height of the
/// merge that formed the set (its heaviest minimum-spanning-tree edge),
/// then by size, then by smallest member. The order is total (two sets with
/// the same smallest member intersect, so they nest, and then equal sizes
/// make them equal), it does not depend on which minimum spanning tree tied
/// weights select, and it places every set after all of its subsets.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactSets {
    n: usize,
    sets: Vec<CompactSet>,
    forest: LaminarForest,
}

/// A set accepted by [`CompactSets::find`], before the canonical sort.
struct Accepted {
    /// Position in acceptance order, which `children` refer to.
    id: usize,
    set: CompactSet,
    /// Weight of the merge that formed the set.
    height: f64,
    /// Acceptance ids of the maximal accepted sets strictly inside.
    children: Vec<usize>,
}

impl Accepted {
    /// The canonical order of [`CompactSets`].
    fn cmp_canonical(&self, other: &Accepted) -> Ordering {
        self.height
            .partial_cmp(&other.height)
            .expect("distances are finite")
            .then(self.set.len().cmp(&other.set.len()))
            .then(self.set.members[0].cmp(&other.set.members[0]))
    }
}

impl CompactSets {
    /// Runs the paper's compact-set algorithm (§3.1) in `O(n²)` time:
    ///
    /// 1. build a minimum spanning tree with dense Prim straight over the
    ///    matrix (no edge list) and sort its `n − 1` edges by
    ///    `(weight, u, v)`;
    /// 2. process the edges in that order, merging their endpoint
    ///    components;
    /// 3. at the merge that *consumes* a component `A`, with edge weight
    ///    `w`, test `Max(A) < w` — when it holds, `A` is compact.
    ///
    /// Every MST edge inside `A` is merged before `A` exists and none
    /// leaving it is, so the consuming edge is the lightest MST edge
    /// leaving `A`. By the cut property its weight is the lightest of all
    /// distances leaving `A`: `w = Min(A, !A)`, the very matrix entry, so
    /// the crossing minimum costs nothing. `Max` is maintained
    /// incrementally, `Max(A ∪ B) = max(Max A, Max B, cross-max(A, B))`,
    /// which reads every pair once over the whole run. Prim is `O(n²)`, the
    /// cross maxima read `n(n − 1)/2` entries, and member lists and forest
    /// links cost `O(n)` per merge, so the total is `O(n²)`.
    ///
    /// Correctness: every compact set `C` induces a connected subtree of
    /// any MST whose internal edges all weigh less than every edge escaping
    /// `C` (Lemmas 2 and 4), so in ascending order the component equals
    /// exactly `C` from its last internal MST edge until its first escaping
    /// one — and the test fires there. Hence **all** compact sets are found,
    /// whichever MST tied weights select.
    ///
    /// The laminar forest is read off the merges: each component keeps the
    /// list of its topmost accepted sets, accepting a component makes that
    /// list the new set's children, and a merge concatenates the two lists.
    pub fn find(m: &DistanceMatrix) -> Self {
        let n = m.len();
        let mut edges = dense_prim(m);
        edges.sort_by(|a, b| {
            a.weight
                .partial_cmp(&b.weight)
                .expect("distances are finite")
                .then(a.u.cmp(&b.u))
                .then(a.v.cmp(&b.v))
        });

        // comp[v] = current component id of v. Per component: its members
        // (sorted), Max, the weight of the merge that formed it and the
        // acceptance ids of its topmost accepted sets.
        let mut comp: Vec<usize> = (0..n).collect();
        let mut members: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
        let mut max_internal = vec![0.0f64; n];
        let mut height = vec![0.0f64; n];
        let mut tops: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut accepted: Vec<Accepted> = Vec::new();
        let mut merged = Vec::with_capacity(n);

        for e in &edges {
            let (ca, cb) = (comp[e.u], comp[e.v]);
            debug_assert_ne!(ca, cb, "MST edges join distinct components");
            // This merge consumes both components, so `e.weight` is the
            // crossing minimum of each.
            for c in [ca, cb] {
                if members[c].len() >= 2 && max_internal[c] < e.weight {
                    let id = accepted.len();
                    accepted.push(Accepted {
                        id,
                        set: CompactSet {
                            members: members[c].clone(),
                            max_internal: max_internal[c],
                            min_crossing: e.weight,
                        },
                        height: height[c],
                        children: std::mem::replace(&mut tops[c], vec![id]),
                    });
                }
            }
            // Merge smaller into larger to bound relabeling cost.
            let (keep, drop) = if members[ca].len() >= members[cb].len() {
                (ca, cb)
            } else {
                (cb, ca)
            };
            // The smaller side outermost: with `keep` sorted, each inner
            // loop reads one taxon's distances in ascending address order.
            let mut cross_max = 0.0f64;
            for &x in &members[drop] {
                for &y in &members[keep] {
                    cross_max = cross_max.max(m.get(x, y));
                }
            }
            for &y in &members[drop] {
                comp[y] = keep;
            }
            merge_sorted(&members[keep], &members[drop], &mut merged);
            std::mem::swap(&mut members[keep], &mut merged);
            members[drop] = Vec::new();
            max_internal[keep] = max_internal[keep].max(max_internal[drop]).max(cross_max);
            height[keep] = e.weight;
            let moved = std::mem::take(&mut tops[drop]);
            tops[keep].extend(moved);
        }
        let roots = std::mem::take(&mut tops[comp[0]]);
        Self::canonical(n, accepted, roots)
    }

    /// Sorts the accepted sets into canonical order and relabels the forest
    /// links from acceptance ids to positions in that order.
    fn canonical(n: usize, mut accepted: Vec<Accepted>, roots: Vec<usize>) -> Self {
        accepted.sort_by(Accepted::cmp_canonical);
        debug_assert!(
            accepted
                .windows(2)
                .all(|w| w[0].cmp_canonical(&w[1]) == Ordering::Less),
            "compact sets are strictly ascending in canonical order"
        );
        let mut rank = vec![0; accepted.len()];
        for (r, a) in accepted.iter().enumerate() {
            rank[a.id] = r;
        }
        let relabel = |ids: Vec<usize>| {
            let mut out: Vec<usize> = ids.into_iter().map(|id| rank[id]).collect();
            out.sort_unstable();
            out
        };
        let mut parent = vec![None; accepted.len()];
        let mut sets = Vec::with_capacity(accepted.len());
        let mut nodes = Vec::with_capacity(accepted.len());
        for (r, a) in accepted.into_iter().enumerate() {
            let children = relabel(a.children);
            for &c in &children {
                parent[c] = Some(r);
            }
            sets.push(a.set);
            nodes.push(LaminarNode {
                set: r,
                parent: None,
                children,
            });
        }
        for (node, p) in nodes.iter_mut().zip(parent) {
            node.parent = p;
        }
        let forest = LaminarForest {
            n,
            nodes,
            roots: relabel(roots),
        };
        CompactSets { n, sets, forest }
    }

    /// Number of taxa in the underlying matrix.
    pub fn taxon_count(&self) -> usize {
        self.n
    }

    /// Number of proper compact sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether no proper compact set exists.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Iterates the sets in canonical order (ascending merge height, then
    /// size, then smallest member; subsets before supersets).
    pub fn iter(&self) -> impl Iterator<Item = &CompactSet> {
        self.sets.iter()
    }

    /// The sets as a slice, in canonical order (see [`CompactSets`]).
    pub fn as_slice(&self) -> &[CompactSet] {
        &self.sets
    }

    /// The maximal proper compact sets: those contained in no other proper
    /// compact set, i.e. the forest's roots, in canonical order. They are
    /// pairwise disjoint (Lemma 3).
    pub fn maximal(&self) -> Vec<&CompactSet> {
        self.forest.roots.iter().map(|&r| &self.sets[r]).collect()
    }

    /// The laminar containment forest over the proper compact sets,
    /// recorded by [`CompactSets::find`] during its merges.
    pub fn forest(&self) -> &LaminarForest {
        &self.forest
    }

    /// Partitions the taxa for decomposition: descend the laminar forest and
    /// cut at the largest compact sets with at most `max_size` members;
    /// every taxon not covered by such a set becomes a singleton group.
    ///
    /// Groups are returned sorted by their smallest member; members inside a
    /// group are sorted ascending. The groups always partition `0..n`.
    ///
    /// # Panics
    ///
    /// Panics when `max_size < 2` (no set could ever be cut).
    pub fn partition(&self, max_size: usize) -> Vec<Vec<usize>> {
        assert!(max_size >= 2, "max_size must be at least 2");
        let forest = &self.forest;
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut covered = vec![false; self.n];
        // Iterative DFS from the roots.
        let mut stack: Vec<usize> = forest.roots.clone();
        while let Some(node) = stack.pop() {
            let set = &self.sets[forest.nodes[node].set];
            if set.len() <= max_size {
                groups.push(set.members().to_vec());
                for &v in set.members() {
                    covered[v] = true;
                }
            } else {
                stack.extend(forest.nodes[node].children.iter().copied());
            }
        }
        for (v, &is_covered) in covered.iter().enumerate() {
            if !is_covered {
                groups.push(vec![v]);
            }
        }
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

/// A minimum spanning tree of the complete graph over `m` by dense Prim:
/// `O(n²)`, reading each entry once and building no edge list. Each edge
/// has `u < v` and carries the matrix entry `m.get(u, v)` as its weight.
fn dense_prim(m: &DistanceMatrix) -> Vec<Edge> {
    let n = m.len();
    // Vertices outside the tree: (vertex, nearest tree vertex, distance).
    let mut outside: Vec<(usize, usize, f64)> = (1..n).map(|v| (v, 0, m.get(0, v))).collect();
    let mut edges = Vec::with_capacity(n - 1);
    while !outside.is_empty() {
        let mut best = 0;
        for (i, o) in outside.iter().enumerate().skip(1) {
            if o.2 < outside[best].2 {
                best = i;
            }
        }
        let (v, link, weight) = outside.swap_remove(best);
        edges.push(Edge {
            u: v.min(link),
            v: v.max(link),
            weight,
        });
        for o in &mut outside {
            let d = m.get(v, o.0);
            if d < o.2 {
                *o = (o.0, v, d);
            }
        }
    }
    edges
}

/// Writes the merge of two ascending lists into `out`.
fn merge_sorted(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// One node of a [`LaminarForest`]: a compact set with its containment
/// parent and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaminarNode {
    /// Index of this node's set within the originating [`CompactSets`].
    pub set: usize,
    /// Index of the smallest strictly-containing set, if any.
    pub parent: Option<usize>,
    /// Indices of the maximal strictly-contained sets.
    pub children: Vec<usize>,
}

/// The containment forest of a laminar family of compact sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaminarForest {
    n: usize,
    /// One node per proper compact set, indexed like the originating
    /// [`CompactSets`].
    pub nodes: Vec<LaminarNode>,
    /// Nodes with no parent (the maximal proper compact sets).
    pub roots: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 6-vertex instance shaped like the paper's running example
    /// (Figs. 3–5): MST edge order (0,2), (3,5), (0,1), (2,4), (4,5) and
    /// compact sets {0,2}, {3,5}, {0,1,2}, {0,1,2,4}.
    fn paper_like() -> DistanceMatrix {
        DistanceMatrix::from_rows(&[
            vec![0.0, 3.0, 1.0, 7.0, 4.5, 6.5],
            vec![3.0, 0.0, 3.5, 7.2, 4.2, 6.8],
            vec![1.0, 3.5, 0.0, 7.5, 4.0, 6.9],
            vec![7.0, 7.2, 7.5, 0.0, 6.0, 2.0],
            vec![4.5, 4.2, 4.0, 6.0, 0.0, 5.0],
            vec![6.5, 6.8, 6.9, 2.0, 5.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn finds_paper_example_sets() {
        let cs = CompactSets::find(&paper_like());
        let members: Vec<Vec<usize>> = cs.iter().map(|s| s.members().to_vec()).collect();
        assert_eq!(
            members,
            vec![vec![0, 2], vec![3, 5], vec![0, 1, 2], vec![0, 1, 2, 4],]
        );
    }

    #[test]
    fn lemma2_holds_on_every_set() {
        let cs = CompactSets::find(&paper_like());
        for s in cs.iter() {
            assert!(
                s.max_internal() < s.min_crossing(),
                "set {:?} violates Lemma 2",
                s.members()
            );
        }
    }

    #[test]
    fn laminar_nesting() {
        let cs = CompactSets::find(&paper_like());
        // Every pair of sets is nested or disjoint (Lemma 3).
        for a in cs.iter() {
            for b in cs.iter() {
                let inter = a
                    .members()
                    .iter()
                    .filter(|x| b.members().contains(x))
                    .count();
                let nested = a.contains_set(b) || b.contains_set(a);
                assert!(inter == 0 || nested);
            }
        }
    }

    #[test]
    fn maximal_sets_are_disjoint_cover() {
        let cs = CompactSets::find(&paper_like());
        let maximal = cs.maximal();
        let members: Vec<Vec<usize>> = maximal.iter().map(|s| s.members().to_vec()).collect();
        assert_eq!(members, vec![vec![3, 5], vec![0, 1, 2, 4]]);
    }

    #[test]
    fn forest_structure() {
        let cs = CompactSets::find(&paper_like());
        let forest = cs.forest();
        assert_eq!(forest.roots.len(), 2);
        // {0,1,2,4} is the parent of {0,1,2}, which is the parent of {0,2}.
        let idx_of = |ms: &[usize]| {
            cs.as_slice()
                .iter()
                .position(|s| s.members() == ms)
                .unwrap()
        };
        let big = idx_of(&[0, 1, 2, 4]);
        let mid = idx_of(&[0, 1, 2]);
        let small = idx_of(&[0, 2]);
        assert_eq!(forest.nodes[mid].parent, Some(big));
        assert_eq!(forest.nodes[small].parent, Some(mid));
        assert_eq!(forest.nodes[big].parent, None);
    }

    #[test]
    fn partition_cuts_at_threshold() {
        let cs = CompactSets::find(&paper_like());
        // Threshold 4: take {0,1,2,4} and {3,5} whole.
        assert_eq!(cs.partition(4), vec![vec![0, 1, 2, 4], vec![3, 5]]);
        // Threshold 3: {0,1,2,4} is too big, descend to {0,1,2}; 4 is loose.
        assert_eq!(cs.partition(3), vec![vec![0, 1, 2], vec![3, 5], vec![4]]);
        // Threshold 2: descend further to {0,2}.
        assert_eq!(
            cs.partition(2),
            vec![vec![0, 2], vec![1], vec![3, 5], vec![4]]
        );
    }

    #[test]
    fn partition_is_a_partition() {
        let cs = CompactSets::find(&paper_like());
        for t in 2..=6 {
            let groups = cs.partition(t);
            let mut all: Vec<usize> = groups.concat();
            all.sort_unstable();
            assert_eq!(all, (0..6).collect::<Vec<_>>(), "threshold {t}");
        }
    }

    #[test]
    fn uniform_matrix_has_no_proper_compact_sets() {
        // All distances equal: the strict inequality never fires.
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 5.0, 5.0],
            vec![5.0, 0.0, 5.0],
            vec![5.0, 5.0, 0.0],
        ])
        .unwrap();
        let cs = CompactSets::find(&m);
        assert!(cs.is_empty());
        // Partition degrades to singletons.
        assert_eq!(cs.partition(3), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn two_taxa_no_proper_sets() {
        let m = DistanceMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        assert!(CompactSets::find(&m).is_empty());
    }

    #[test]
    fn ultrametric_matrix_yields_deep_hierarchy() {
        // Perfect binary ultrametric: ((0,1),(2,3)) far from ((4,5),(6,7)).
        let mut m = DistanceMatrix::zeros(8).unwrap();
        for i in 0..8 {
            for j in (i + 1)..8 {
                let d = if i / 4 != j / 4 {
                    16.0
                } else if i / 2 != j / 2 {
                    8.0
                } else {
                    2.0
                };
                m.set(i, j, d);
            }
        }
        let cs = CompactSets::find(&m);
        let members: Vec<Vec<usize>> = cs.iter().map(|s| s.members().to_vec()).collect();
        assert!(members.contains(&vec![0, 1]));
        assert!(members.contains(&vec![6, 7]));
        assert!(members.contains(&vec![0, 1, 2, 3]));
        assert!(members.contains(&vec![4, 5, 6, 7]));
        assert_eq!(cs.len(), 6);
    }
}
