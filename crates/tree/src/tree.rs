use std::collections::BTreeMap;

use mutree_distmat::DistanceMatrix;

use crate::TreeError;

/// Index of a node within an [`UltrametricTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a node is: a labeled leaf or an internal node with two children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A leaf carrying a taxon id.
    Leaf(usize),
    /// An internal node with exactly two children.
    Internal(NodeId, NodeId),
}

#[derive(Debug, Clone)]
struct NodeData {
    kind: NodeKind,
    parent: Option<NodeId>,
    /// Distance from this node down to any leaf of its subtree. Zero for
    /// leaves; strictly positive and monotone increasing toward the root in
    /// a valid tree (non-strict: equal heights are allowed).
    height: f64,
}

/// A rooted, leaf-labeled, edge-weighted binary tree in which every
/// root-to-leaf path has the same length — an ultrametric tree.
///
/// The tree is stored via node *heights* rather than edge lengths: the
/// length of the edge from `parent(v)` to `v` is
/// `height(parent(v)) − height(v)`, the distance between two leaves is
/// `2 · height(lca)`, and the total weight is the sum of all edge lengths.
///
/// Taxa are arbitrary `usize` ids (they need not be contiguous), so
/// subtrees over a subset of species — as produced by the compact-set
/// decomposition — are first-class values that can later be
/// [grafted](UltrametricTree::graft) together.
#[derive(Debug, Clone)]
pub struct UltrametricTree {
    nodes: Vec<NodeData>,
    root: NodeId,
    leaf_of_taxon: BTreeMap<usize, NodeId>,
}

/// Builds an [`UltrametricTree`] one node at a time, children before
/// parents, refusing what [`UltrametricTree::join`] would panic on. Fed a
/// post-order walk (left subtree, right subtree, parent), it lays the
/// nodes out exactly as nested `join`s do, so every [`NodeId`] matches.
pub(crate) struct PostOrder {
    nodes: Vec<NodeData>,
    leaf_of_taxon: BTreeMap<usize, NodeId>,
}

impl PostOrder {
    /// An empty builder with room for `nodes` nodes.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        PostOrder {
            nodes: Vec::with_capacity(nodes),
            leaf_of_taxon: BTreeMap::new(),
        }
    }

    /// Appends a leaf; `None` when `taxon` is already in the tree.
    pub(crate) fn leaf(&mut self, taxon: usize) -> Option<NodeId> {
        let id = NodeId(self.nodes.len());
        if self.leaf_of_taxon.insert(taxon, id).is_some() {
            return None;
        }
        self.nodes.push(NodeData {
            kind: NodeKind::Leaf(taxon),
            parent: None,
            height: 0.0,
        });
        Some(id)
    }

    /// Appends the parent of two finished subtree roots; `None` when
    /// `height` is below either child's height (or is NaN).
    pub(crate) fn join(&mut self, left: NodeId, right: NodeId, height: f64) -> Option<NodeId> {
        if !(height >= self.nodes[left.0].height && height >= self.nodes[right.0].height) {
            return None;
        }
        let id = NodeId(self.nodes.len());
        self.nodes[left.0].parent = Some(id);
        self.nodes[right.0].parent = Some(id);
        self.nodes.push(NodeData {
            kind: NodeKind::Internal(left, right),
            parent: None,
            height,
        });
        Some(id)
    }

    /// The finished tree, rooted at the last node appended.
    pub(crate) fn finish(self) -> UltrametricTree {
        UltrametricTree {
            root: NodeId(self.nodes.len() - 1),
            nodes: self.nodes,
            leaf_of_taxon: self.leaf_of_taxon,
        }
    }
}

impl UltrametricTree {
    /// A single-leaf tree (height zero). Useful as the degenerate case of
    /// the decomposition pipeline.
    pub fn leaf(taxon: usize) -> Self {
        let nodes = vec![NodeData {
            kind: NodeKind::Leaf(taxon),
            parent: None,
            height: 0.0,
        }];
        let mut leaf_of_taxon = BTreeMap::new();
        leaf_of_taxon.insert(taxon, NodeId(0));
        UltrametricTree {
            nodes,
            root: NodeId(0),
            leaf_of_taxon,
        }
    }

    /// The two-leaf tree on distinct taxa `a` and `b` with the given root
    /// height.
    ///
    /// # Panics
    ///
    /// Panics when `a == b` or `height` is negative or non-finite.
    pub fn cherry(a: usize, b: usize, height: f64) -> Self {
        assert_ne!(a, b, "cherry taxa must be distinct");
        assert!(height.is_finite() && height >= 0.0, "invalid height");
        let nodes = vec![
            NodeData {
                kind: NodeKind::Leaf(a),
                parent: Some(NodeId(2)),
                height: 0.0,
            },
            NodeData {
                kind: NodeKind::Leaf(b),
                parent: Some(NodeId(2)),
                height: 0.0,
            },
            NodeData {
                kind: NodeKind::Internal(NodeId(0), NodeId(1)),
                parent: None,
                height,
            },
        ];
        let mut leaf_of_taxon = BTreeMap::new();
        leaf_of_taxon.insert(a, NodeId(0));
        leaf_of_taxon.insert(b, NodeId(1));
        UltrametricTree {
            nodes,
            root: NodeId(2),
            leaf_of_taxon,
        }
    }

    /// Joins two trees under a new root of the given height.
    ///
    /// # Panics
    ///
    /// Panics when the taxa overlap or `height` is below either root height.
    pub fn join(left: UltrametricTree, right: UltrametricTree, height: f64) -> Self {
        assert!(
            height >= left.height() && height >= right.height(),
            "join height must dominate both subtree heights"
        );
        let mut nodes = left.nodes;
        let offset = nodes.len();
        let mut leaf_of_taxon = left.leaf_of_taxon;
        for (taxon, id) in right.leaf_of_taxon {
            let prev = leaf_of_taxon.insert(taxon, NodeId(id.0 + offset));
            assert!(prev.is_none(), "taxon {taxon} appears in both trees");
        }
        nodes.extend(right.nodes.into_iter().map(|mut nd| {
            nd.parent = nd.parent.map(|p| NodeId(p.0 + offset));
            if let NodeKind::Internal(a, b) = nd.kind {
                nd.kind = NodeKind::Internal(NodeId(a.0 + offset), NodeId(b.0 + offset));
            }
            nd
        }));
        let new_root = NodeId(nodes.len());
        let left_root = left.root;
        let right_root = NodeId(right.root.0 + offset);
        nodes.push(NodeData {
            kind: NodeKind::Internal(left_root, right_root),
            parent: None,
            height,
        });
        nodes[left_root.0].parent = Some(new_root);
        nodes[right_root.0].parent = Some(new_root);
        UltrametricTree {
            nodes,
            root: new_root,
            leaf_of_taxon,
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_of_taxon.len()
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The taxa at the leaves, ascending.
    pub fn taxa(&self) -> impl Iterator<Item = usize> + '_ {
        self.leaf_of_taxon.keys().copied()
    }

    /// The leaf node carrying `taxon`, if present.
    pub fn leaf_of(&self, taxon: usize) -> Option<NodeId> {
        self.leaf_of_taxon.get(&taxon).copied()
    }

    /// The kind of a node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.0].kind
    }

    /// A node's parent, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].parent
    }

    /// A node's height (distance down to any leaf of its subtree).
    pub fn height_of(&self, id: NodeId) -> f64 {
        self.nodes[id.0].height
    }

    /// The root height — half the largest leaf-pair distance.
    pub fn height(&self) -> f64 {
        self.nodes[self.root.0].height
    }

    /// Iterates `(parent, child, length)` over all edges. Nodes detached
    /// by [`graft`](Self::graft) have no parent and are skipped.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes.iter().enumerate().filter_map(move |(i, nd)| {
            nd.parent.map(|p| {
                let len = self.nodes[p.0].height - nd.height;
                (p, NodeId(i), len)
            })
        })
    }

    /// Total edge weight `ω(T)`.
    pub fn weight(&self) -> f64 {
        self.edges().map(|(_, _, len)| len).sum()
    }

    /// All node ids in a post-order traversal (children before parents).
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        // Iterative post-order with an explicit stack.
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                out.push(id);
                continue;
            }
            match self.nodes[id.0].kind {
                NodeKind::Leaf(_) => out.push(id),
                NodeKind::Internal(a, b) => {
                    stack.push((id, true));
                    stack.push((b, false));
                    stack.push((a, false));
                }
            }
        }
        out
    }

    /// The lowest common ancestor of two taxa.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownTaxon`] when either taxon is absent.
    pub fn lca(&self, a: usize, b: usize) -> Result<NodeId, TreeError> {
        let la = self
            .leaf_of(a)
            .ok_or(TreeError::UnknownTaxon { taxon: a })?;
        let lb = self
            .leaf_of(b)
            .ok_or(TreeError::UnknownTaxon { taxon: b })?;
        if a == b {
            return Ok(la);
        }
        let mut seen = std::collections::HashSet::new();
        let mut cur = Some(la);
        while let Some(id) = cur {
            seen.insert(id);
            cur = self.nodes[id.0].parent;
        }
        let mut cur = Some(lb);
        while let Some(id) = cur {
            if seen.contains(&id) {
                return Ok(id);
            }
            cur = self.nodes[id.0].parent;
        }
        unreachable!("two leaves of one tree always share the root")
    }

    /// Tree distance between two taxa: `2 · height(lca)`.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownTaxon`] when either taxon is absent.
    pub fn leaf_distance(&self, a: usize, b: usize) -> Result<f64, TreeError> {
        if a == b {
            return Ok(0.0);
        }
        Ok(2.0 * self.nodes[self.lca(a, b)?.0].height)
    }

    /// The matrix of pairwise leaf distances. Requires the taxa to be
    /// exactly `0..leaf_count()`; the result is always ultrametric.
    ///
    /// # Panics
    ///
    /// Panics when the taxa are not contiguous from zero or there are fewer
    /// than two leaves.
    pub fn distance_matrix(&self) -> DistanceMatrix {
        let n = self.leaf_count();
        assert!(self.taxa().eq(0..n), "distance_matrix requires taxa 0..{n}");
        let mut m = DistanceMatrix::zeros(n).expect("two or more leaves required");
        // One post-order pass: at each internal node, all pairs split by it
        // are at distance 2 * height.
        let mut leafsets: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for id in self.post_order() {
            match self.nodes[id.0].kind {
                NodeKind::Leaf(t) => leafsets[id.0].push(t),
                NodeKind::Internal(a, b) => {
                    let d = 2.0 * self.nodes[id.0].height;
                    for &x in &leafsets[a.0] {
                        for &y in &leafsets[b.0] {
                            m.set(x, y, d);
                        }
                    }
                    let bset = std::mem::take(&mut leafsets[b.0]);
                    let aset = std::mem::take(&mut leafsets[a.0]);
                    leafsets[id.0].extend(aset);
                    leafsets[id.0].extend(bset);
                }
            }
        }
        m
    }

    /// Whether this tree is a *feasible* ultrametric tree for `m`:
    /// `d_T(i, j) ≥ M[i, j] − tol` for every leaf pair. (The MUT problem
    /// minimizes weight over feasible trees.)
    ///
    /// # Panics
    ///
    /// Panics when some taxon of the tree is outside the matrix.
    pub fn is_feasible_for(&self, m: &DistanceMatrix, tol: f64) -> bool {
        let taxa: Vec<usize> = self.taxa().collect();
        for (ai, &a) in taxa.iter().enumerate() {
            for &b in &taxa[ai + 1..] {
                let d = self
                    .leaf_distance(a, b)
                    .expect("taxa listed by the tree exist");
                if d + tol < m.get(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Assigns the minimal heights that make the tree feasible for `m`
    /// while keeping the current topology, and returns the resulting
    /// weight. This is the exact inner optimum: every internal node gets
    /// `max(max cross-pair M/2, children heights)`.
    ///
    /// # Panics
    ///
    /// Panics when some taxon of the tree is outside the matrix.
    pub fn fit_heights(&mut self, m: &DistanceMatrix) -> f64 {
        let order = self.post_order();
        let mut leafsets: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for id in order {
            match self.nodes[id.0].kind {
                NodeKind::Leaf(t) => {
                    assert!(t < m.len(), "taxon {t} outside matrix of size {}", m.len());
                    self.nodes[id.0].height = 0.0;
                    leafsets[id.0].push(t);
                }
                NodeKind::Internal(a, b) => {
                    let mut h = self.nodes[a.0].height.max(self.nodes[b.0].height);
                    for &x in &leafsets[a.0] {
                        for &y in &leafsets[b.0] {
                            h = h.max(m.get(x, y) / 2.0);
                        }
                    }
                    self.nodes[id.0].height = h;
                    let bset = std::mem::take(&mut leafsets[b.0]);
                    let aset = std::mem::take(&mut leafsets[a.0]);
                    leafsets[id.0].extend(aset);
                    leafsets[id.0].extend(bset);
                }
            }
        }
        self.weight()
    }

    /// Inserts a new leaf for `taxon` by splitting the edge above node `on`
    /// (when `on` is the root, a new root is created above it). Heights of
    /// the new internal node are provisional; call
    /// [`fit_heights`](Self::fit_heights) afterwards.
    ///
    /// # Panics
    ///
    /// Panics when `taxon` is already present.
    pub fn insert_leaf(&mut self, taxon: usize, on: NodeId) {
        assert!(
            !self.leaf_of_taxon.contains_key(&taxon),
            "taxon {taxon} is already in the tree"
        );
        let leaf = NodeId(self.nodes.len());
        self.nodes.push(NodeData {
            kind: NodeKind::Leaf(taxon),
            parent: None, // set below
            height: 0.0,
        });
        let joint = NodeId(self.nodes.len());
        let parent = self.nodes[on.0].parent;
        let provisional = match parent {
            Some(p) => (self.nodes[p.0].height + self.nodes[on.0].height) / 2.0,
            None => self.nodes[on.0].height + 1.0,
        };
        self.nodes.push(NodeData {
            kind: NodeKind::Internal(on, leaf),
            parent,
            height: provisional,
        });
        self.nodes[leaf.0].parent = Some(joint);
        self.nodes[on.0].parent = Some(joint);
        match parent {
            Some(p) => {
                let NodeKind::Internal(a, b) = self.nodes[p.0].kind else {
                    unreachable!("parents are internal")
                };
                self.nodes[p.0].kind = if a == on {
                    NodeKind::Internal(joint, b)
                } else {
                    NodeKind::Internal(a, joint)
                };
            }
            None => self.root = joint,
        }
        self.leaf_of_taxon.insert(taxon, leaf);
    }

    /// Replaces the leaf carrying `taxon` with an entire subtree (the merge
    /// step of the compact-set pipeline). The subtree hangs from the
    /// replaced leaf's position, so its root height must not exceed the
    /// height of the leaf's parent.
    ///
    /// When the leaf is the whole tree, the subtree simply replaces it.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownTaxon`] when `taxon` is absent,
    /// [`TreeError::GraftTooTall`] when the subtree does not fit under the
    /// attachment edge.
    ///
    /// # Panics
    ///
    /// Panics when the subtree shares taxa with the rest of this tree.
    pub fn graft(&mut self, taxon: usize, subtree: UltrametricTree) -> Result<(), TreeError> {
        let leaf = self
            .leaf_of(taxon)
            .ok_or(TreeError::UnknownTaxon { taxon })?;
        let parent = self.nodes[leaf.0].parent;
        if let Some(p) = parent {
            let attach_height = self.nodes[p.0].height;
            if subtree.height() > attach_height {
                return Err(TreeError::GraftTooTall {
                    subtree_height: subtree.height(),
                    attach_height,
                });
            }
        }
        if parent.is_none() {
            *self = subtree;
            return Ok(());
        }
        self.leaf_of_taxon.remove(&taxon);
        let offset = self.nodes.len();
        for (t, id) in &subtree.leaf_of_taxon {
            let prev = self.leaf_of_taxon.insert(*t, NodeId(id.0 + offset));
            assert!(prev.is_none(), "taxon {t} already present in host tree");
        }
        let sub_root = NodeId(subtree.root.0 + offset);
        self.nodes.extend(subtree.nodes.into_iter().map(|mut nd| {
            nd.parent = nd.parent.map(|p| NodeId(p.0 + offset));
            if let NodeKind::Internal(a, b) = nd.kind {
                nd.kind = NodeKind::Internal(NodeId(a.0 + offset), NodeId(b.0 + offset));
            }
            nd
        }));
        let p = parent.expect("non-root leaf has a parent");
        self.nodes[sub_root.0].parent = Some(p);
        let NodeKind::Internal(a, b) = self.nodes[p.0].kind else {
            unreachable!("parents are internal")
        };
        self.nodes[p.0].kind = if a == leaf {
            NodeKind::Internal(sub_root, b)
        } else {
            NodeKind::Internal(a, sub_root)
        };
        // The replaced leaf node stays allocated but unreachable; detach it
        // so edge iteration never counts its old parent edge. Ids are never
        // reused, so existing NodeIds stay valid.
        self.nodes[leaf.0].parent = None;
        Ok(())
    }

    /// Renames every taxon through `f`. Used to undo the maxmin relabeling
    /// after a search over a permuted matrix.
    ///
    /// # Panics
    ///
    /// Panics when `f` maps two taxa to the same id.
    pub fn map_taxa<F: FnMut(usize) -> usize>(&mut self, mut f: F) {
        let mut new_map = BTreeMap::new();
        for (taxon, id) in std::mem::take(&mut self.leaf_of_taxon) {
            let new_taxon = f(taxon);
            let NodeKind::Leaf(ref mut t) = self.nodes[id.0].kind else {
                unreachable!("leaf map points at leaves")
            };
            *t = new_taxon;
            let prev = new_map.insert(new_taxon, id);
            assert!(prev.is_none(), "taxon map is not injective");
        }
        self.leaf_of_taxon = new_map;
    }

    /// Checks the structural invariants: parent/child links agree, leaf
    /// heights are zero, heights never decrease toward the root, and the
    /// leaf map is exact. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut reachable = vec![false; self.nodes.len()];
        let mut leaves_seen = 0usize;
        for id in self.post_order() {
            reachable[id.0] = true;
            let nd = &self.nodes[id.0];
            match nd.kind {
                NodeKind::Leaf(t) => {
                    leaves_seen += 1;
                    if nd.height != 0.0 {
                        return Err(format!("leaf {t} has height {}", nd.height));
                    }
                    if self.leaf_of(t) != Some(id) {
                        return Err(format!("leaf map wrong for taxon {t}"));
                    }
                }
                NodeKind::Internal(a, b) => {
                    for c in [a, b] {
                        if self.nodes[c.0].parent != Some(id) {
                            return Err(format!("child {} has wrong parent", c.0));
                        }
                        if self.nodes[c.0].height > nd.height {
                            return Err(format!(
                                "height inversion at node {} ({} above {})",
                                id.0, nd.height, self.nodes[c.0].height
                            ));
                        }
                    }
                }
            }
        }
        if self.nodes[self.root.0].parent.is_some() {
            return Err("root has a parent".into());
        }
        if leaves_seen != self.leaf_of_taxon.len() {
            return Err(format!(
                "leaf map has {} taxa but {} leaves are reachable",
                self.leaf_of_taxon.len(),
                leaves_seen
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um4() -> DistanceMatrix {
        DistanceMatrix::from_rows(&[
            vec![0.0, 2.0, 8.0, 8.0],
            vec![2.0, 0.0, 8.0, 8.0],
            vec![8.0, 8.0, 0.0, 4.0],
            vec![8.0, 8.0, 4.0, 0.0],
        ])
        .unwrap()
    }

    /// Builds ((0,1),(2,3)) by insertion and fits to `um4`.
    fn fitted4() -> UltrametricTree {
        let mut t = UltrametricTree::cherry(0, 1, 1.0);
        let leaf0 = t.leaf_of(0).unwrap();
        let root = t.root();
        t.insert_leaf(2, root); // new root above everything
        t.insert_leaf(3, t.leaf_of(2).unwrap());
        let _ = leaf0;
        t.fit_heights(&um4());
        t
    }

    #[test]
    fn cherry_basics() {
        let t = UltrametricTree::cherry(3, 7, 2.5);
        assert_eq!(t.leaf_count(), 2);
        assert_eq!(t.height(), 2.5);
        assert_eq!(t.weight(), 5.0);
        assert_eq!(t.leaf_distance(3, 7).unwrap(), 5.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn fit_heights_recovers_ultrametric_exactly() {
        let t = fitted4();
        assert!(t.validate().is_ok());
        assert_eq!(t.height(), 4.0);
        assert_eq!(t.leaf_distance(0, 1).unwrap(), 2.0);
        assert_eq!(t.leaf_distance(2, 3).unwrap(), 4.0);
        assert_eq!(t.leaf_distance(0, 3).unwrap(), 8.0);
        // ω = (4-1)+(4-2) for the two internal edges + 1+1+2+2 for leaves.
        assert_eq!(t.weight(), 11.0);
        assert!(t.is_feasible_for(&um4(), 1e-9));
    }

    #[test]
    fn distance_matrix_roundtrip() {
        let t = fitted4();
        let m = t.distance_matrix();
        assert!(m.is_ultrametric(1e-9));
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(2, 3), 4.0);
        assert_eq!(m.get(1, 2), 8.0);
    }

    #[test]
    fn fit_heights_dominates_matrix_on_bad_topology() {
        // Pair the far taxa: topology ((0,2),(1,3)) against um4.
        let mut t = UltrametricTree::cherry(0, 2, 1.0);
        t.insert_leaf(1, t.root());
        t.insert_leaf(3, t.leaf_of(1).unwrap());
        let w = t.fit_heights(&um4());
        assert!(t.is_feasible_for(&um4(), 1e-9));
        // The good topology weighs 11; this one must be worse.
        assert!(w > 11.0);
    }

    #[test]
    fn lca_and_relations() {
        let t = fitted4();
        let l01 = t.lca(0, 1).unwrap();
        let l23 = t.lca(2, 3).unwrap();
        let l03 = t.lca(0, 3).unwrap();
        assert_eq!(t.height_of(l01), 1.0);
        assert_eq!(t.height_of(l23), 2.0);
        assert_eq!(l03, t.root());
        assert!(matches!(
            t.lca(0, 9),
            Err(TreeError::UnknownTaxon { taxon: 9 })
        ));
    }

    #[test]
    fn insert_leaf_on_internal_edge() {
        let mut t = UltrametricTree::cherry(0, 1, 1.0);
        t.insert_leaf(2, t.root());
        t.insert_leaf(3, t.lca(0, 1).unwrap()); // split the edge above (0,1)
        assert_eq!(t.leaf_count(), 4);
        assert!(t.validate().is_ok());
        // 3 now shares its LCA with {0,1} below the LCA with 2.
        let l03 = t.lca(0, 3).unwrap();
        let l02 = t.lca(0, 2).unwrap();
        assert!(t.height_of(l03) <= t.height_of(l02));
    }

    #[test]
    fn join_offsets_ids() {
        let a = UltrametricTree::cherry(0, 1, 1.0);
        let b = UltrametricTree::cherry(2, 3, 2.0);
        let t = UltrametricTree::join(a, b, 5.0);
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.height(), 5.0);
        assert_eq!(t.leaf_distance(0, 3).unwrap(), 10.0);
        assert_eq!(t.leaf_distance(2, 3).unwrap(), 4.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "both trees")]
    fn join_rejects_shared_taxa() {
        let a = UltrametricTree::cherry(0, 1, 1.0);
        let b = UltrametricTree::cherry(1, 2, 1.0);
        let _ = UltrametricTree::join(a, b, 3.0);
    }

    #[test]
    fn graft_replaces_leaf() {
        let mut t = fitted4(); // heights: lca(0,1)=1, lca(2,3)=2, root 4
        let sub = UltrametricTree::cherry(10, 11, 1.5);
        t.graft(2, sub).unwrap();
        assert_eq!(t.leaf_count(), 5);
        assert!(t.leaf_of(2).is_none());
        assert_eq!(t.leaf_distance(10, 11).unwrap(), 3.0);
        // 10 hangs where 2 was: distance to 3 is the old 2-3 distance.
        assert_eq!(t.leaf_distance(10, 3).unwrap(), 4.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn graft_too_tall_is_rejected() {
        let mut t = fitted4();
        let sub = UltrametricTree::cherry(10, 11, 100.0);
        assert!(matches!(
            t.graft(2, sub),
            Err(TreeError::GraftTooTall { .. })
        ));
    }

    #[test]
    fn graft_onto_single_leaf_tree() {
        let mut t = UltrametricTree::leaf(5);
        t.graft(5, UltrametricTree::cherry(1, 2, 3.0)).unwrap();
        assert_eq!(t.leaf_count(), 2);
        assert_eq!(t.height(), 3.0);
    }

    #[test]
    fn map_taxa_relabels() {
        let mut t = fitted4();
        let perm = [9, 8, 7, 6];
        t.map_taxa(|old| perm[old]);
        assert_eq!(t.taxa().collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(t.leaf_distance(9, 8).unwrap(), 2.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn post_order_visits_children_first() {
        let t = fitted4();
        let order = t.post_order();
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for id in &order {
            if let NodeKind::Internal(a, b) = t.kind(*id) {
                assert!(pos[&a] < pos[id]);
                assert!(pos[&b] < pos[id]);
            }
        }
        assert_eq!(order.len(), t.node_count());
    }
}
