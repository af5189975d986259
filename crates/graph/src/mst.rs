use crate::{Edge, GraphError, UnionFind, WeightedGraph};

/// A minimum spanning tree: `n − 1` edges and their total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Mst {
    edges: Vec<Edge>,
    weight: f64,
}

impl Mst {
    /// The tree edges. For [`kruskal`] they are sorted by ascending weight,
    /// ties by `(u, v)` — the processing order of the paper's compact-set
    /// algorithm (§3.1, Step 2), which [`CompactSets::find`] reaches by
    /// sorting the `n − 1` edges of a dense Prim tree instead.
    ///
    /// [`CompactSets::find`]: crate::CompactSets::find
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Total weight of the tree.
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

/// Kruskal's algorithm: sort all edges by weight, greedily add those joining
/// distinct components. `O(m log m)`.
///
/// Ties in weight break by edge endpoints `(u, v)`, so the result is
/// deterministic (the paper notes multiple MSTs may coexist when weights tie
/// — Fig. 7; this implementation always picks the lexicographically first).
///
/// # Errors
///
/// [`GraphError::Empty`] for a vertexless graph, [`GraphError::Disconnected`]
/// when no spanning tree exists.
pub fn kruskal(g: &WeightedGraph) -> Result<Mst, GraphError> {
    let n = g.vertex_count();
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut order: Vec<&Edge> = g.edges().iter().collect();
    order.sort_by(|a, b| {
        a.weight
            .partial_cmp(&b.weight)
            .expect("weights are finite")
            .then(a.u.cmp(&b.u))
            .then(a.v.cmp(&b.v))
    });
    let mut uf = UnionFind::new(n);
    let mut edges = Vec::with_capacity(n - 1);
    let mut weight = 0.0;
    for e in order {
        if uf.union(e.u, e.v).is_some() {
            edges.push(*e);
            weight += e.weight;
            if edges.len() == n - 1 {
                break;
            }
        }
    }
    if edges.len() != n - 1 {
        return Err(GraphError::Disconnected);
    }
    Ok(Mst { edges, weight })
}

/// Prim's algorithm (array-based, `O(n²)`), suited to the complete graphs
/// built from distance matrices. Used in tests as an independent check of
/// [`kruskal`].
///
/// # Errors
///
/// [`GraphError::Empty`] for a vertexless graph, [`GraphError::Disconnected`]
/// when no spanning tree exists.
pub fn prim(g: &WeightedGraph) -> Result<Mst, GraphError> {
    let n = g.vertex_count();
    if n == 0 {
        return Err(GraphError::Empty);
    }
    // Adjacency matrix of best edge weights (multi-edges collapse to min).
    let mut adj = vec![f64::INFINITY; n * n];
    for e in g.edges() {
        let w = adj[e.u * n + e.v].min(e.weight);
        adj[e.u * n + e.v] = w;
        adj[e.v * n + e.u] = w;
    }
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![usize::MAX; n];
    in_tree[0] = true;
    for v in 1..n {
        best[v] = adj[v];
        best_from[v] = 0;
    }
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut weight = 0.0;
    for _ in 1..n {
        let mut pick = usize::MAX;
        for v in 0..n {
            if !in_tree[v] && (pick == usize::MAX || best[v] < best[pick]) {
                pick = v;
            }
        }
        if pick == usize::MAX || !best[pick].is_finite() {
            return Err(GraphError::Disconnected);
        }
        in_tree[pick] = true;
        let (u, v) = (best_from[pick].min(pick), best_from[pick].max(pick));
        edges.push(Edge {
            u,
            v,
            weight: best[pick],
        });
        weight += best[pick];
        for x in 0..n {
            if !in_tree[x] && adj[pick * n + x] < best[x] {
                best[x] = adj[pick * n + x];
                best_from[x] = pick;
            }
        }
    }
    edges.sort_by(|a, b| {
        a.weight
            .partial_cmp(&b.weight)
            .expect("weights are finite")
            .then(a.u.cmp(&b.u))
            .then(a.v.cmp(&b.v))
    });
    Ok(Mst { edges, weight })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_distmat::DistanceMatrix;

    fn square_with_diagonal() -> WeightedGraph {
        // 0-1-2-3 square (weight 1 sides) plus heavy diagonals.
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 0, 2.0);
        g.add_edge(0, 2, 5.0);
        g.add_edge(1, 3, 5.0);
        g
    }

    #[test]
    fn kruskal_picks_light_edges() {
        let mst = kruskal(&square_with_diagonal()).unwrap();
        assert_eq!(mst.weight(), 3.0);
        assert_eq!(mst.edges().len(), 3);
    }

    #[test]
    fn kruskal_edges_sorted_ascending() {
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 7.0, 1.0, 6.0],
            vec![7.0, 0.0, 7.0, 2.0],
            vec![1.0, 7.0, 0.0, 3.0],
            vec![6.0, 2.0, 3.0, 0.0],
        ])
        .unwrap();
        let mst = kruskal(&WeightedGraph::from_matrix(&m)).unwrap();
        let ws: Vec<f64> = mst.edges().iter().map(|e| e.weight).collect();
        assert_eq!(ws, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn prim_agrees_with_kruskal_on_weight() {
        let g = square_with_diagonal();
        assert_eq!(prim(&g).unwrap().weight(), kruskal(&g).unwrap().weight());
    }

    #[test]
    fn disconnected_is_an_error() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        assert_eq!(kruskal(&g), Err(GraphError::Disconnected));
        assert_eq!(prim(&g), Err(GraphError::Disconnected));
    }

    #[test]
    fn empty_graph_is_an_error() {
        let g = WeightedGraph::new(0);
        assert_eq!(kruskal(&g), Err(GraphError::Empty));
        assert_eq!(prim(&g), Err(GraphError::Empty));
    }

    #[test]
    fn single_vertex_has_empty_mst() {
        let g = WeightedGraph::new(1);
        let mst = kruskal(&g).unwrap();
        assert!(mst.edges().is_empty());
        assert_eq!(mst.weight(), 0.0);
    }

    #[test]
    fn deterministic_under_ties() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.0);
        let a = kruskal(&g).unwrap();
        let b = kruskal(&g).unwrap();
        assert_eq!(a, b);
        // Lexicographically first tie-break: (0,1) then (0,2).
        assert_eq!((a.edges()[0].u, a.edges()[0].v), (0, 1));
        assert_eq!((a.edges()[1].u, a.edges()[1].v), (0, 2));
    }
}
