use crate::DistanceMatrix;

/// A maxmin permutation of the taxa of a matrix, as required by the
/// Wu–Chao–Tang branch-and-bound lower bound (their Step 1, "relabel the
/// species such that (1, 2, …, n) is a maxmin permutation").
///
/// A permutation `π` is *maxmin* when `M[π₀, π₁]` is the maximum distance in
/// the matrix and, for every `k ≥ 2`, taxon `π_k` maximizes
/// `min_{i < k} M[π_i, π_k]` among the remaining taxa. Inserting species in
/// this order makes the per-species lower-bound contributions as large as
/// possible as early as possible, which tightens pruning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxminPermutation {
    order: Vec<usize>,
}

impl MaxminPermutation {
    /// Computes a maxmin permutation greedily in `O(n²)`.
    ///
    /// Ties break toward smaller taxon indices, so the result is
    /// deterministic.
    pub fn compute(m: &DistanceMatrix) -> Self {
        let n = m.len();
        let (a, b, _) = m.max_pair();
        let mut order = Vec::with_capacity(n);
        order.push(a);
        order.push(b);
        let mut chosen = vec![false; n];
        chosen[a] = true;
        chosen[b] = true;
        // min_to_chosen[t] = min distance from t to any already-chosen taxon.
        let mut min_to_chosen: Vec<f64> = (0..n).map(|t| m.get(t, a).min(m.get(t, b))).collect();
        for _ in 2..n {
            let mut best: Option<usize> = None;
            for t in 0..n {
                if chosen[t] {
                    continue;
                }
                match best {
                    None => best = Some(t),
                    Some(cur) if min_to_chosen[t] > min_to_chosen[cur] => best = Some(t),
                    _ => {}
                }
            }
            let t = best.expect("unchosen taxon exists");
            chosen[t] = true;
            order.push(t);
            for u in 0..n {
                if !chosen[u] {
                    min_to_chosen[u] = min_to_chosen[u].min(m.get(u, t));
                }
            }
        }
        MaxminPermutation { order }
    }

    /// The permutation: `order()[k]` is the original index of the taxon that
    /// becomes taxon `k` after relabeling.
    #[inline]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Applies the permutation to the matrix it was computed from.
    pub fn apply(&self, m: &DistanceMatrix) -> DistanceMatrix {
        m.permute(&self.order)
    }

    /// The inverse permutation: `inverse()[t]` is the relabeled index of
    /// original taxon `t`. Mapping a tree built in relabeled indexing
    /// back to original taxa goes through [`order`](Self::order); mapping
    /// an original-indexed tree *into* relabeled indexing (checkpoint
    /// resume, cache warm seeds) goes through this.
    pub fn inverse(&self) -> Vec<usize> {
        let mut inv = vec![0usize; self.order.len()];
        for (k, &orig) in self.order.iter().enumerate() {
            inv[orig] = k;
        }
        inv
    }

    /// Checks the maxmin property on a matrix, within additive tolerance
    /// `tol`. Mostly useful in tests.
    pub fn is_maxmin_for(&self, m: &DistanceMatrix, tol: f64) -> bool {
        let n = m.len();
        if self.order.len() != n {
            return false;
        }
        let o = &self.order;
        if m.get(o[0], o[1]) + tol < m.max_distance() {
            return false;
        }
        for k in 2..n {
            let mink = (0..k)
                .map(|i| m.get(o[i], o[k]))
                .fold(f64::INFINITY, f64::min);
            for t in (k + 1)..n {
                let mint = (0..k)
                    .map(|i| m.get(o[i], o[t]))
                    .fold(f64::INFINITY, f64::min);
                if mint > mink + tol {
                    return false;
                }
            }
        }
        true
    }
}

/// The order the exact search inserts taxa in: a maxmin permutation
/// improved by pair swaps until no swap raises the static root bound
/// [`DistanceMatrix::root_bound`].
///
/// Maxmin is a one-pass greedy for that bound; this finishes the job. Starting
/// from [`MaxminPermutation::compute`], a sweep tries swapping every two
/// positions `i < j` in ascending `(i, j)` order, the leading pair
/// included, and keeps a swap at once when it raises the bound by more
/// than a relative `1e-9`. Sweeps repeat until one keeps nothing, so no
/// single swap of the result raises the bound further.
///
/// Before the first sweep, the maxmin order's leading pair is oriented so
/// that its first taxon is the one farther from the third. The bound does
/// not depend on that orientation, but the sweep's order of trials does,
/// and maxmin's own orientation follows the input labeling. From then on
/// every step reads only distances between positions, so on a matrix
/// without tied distances a relabeled copy gets an order naming the same
/// taxa.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOrder {
    order: Vec<usize>,
}

/// A swap must raise the bound by more than this fraction of it.
const SWAP_GAIN: f64 = 1e-9;

impl SearchOrder {
    /// Computes the order in `O(n³)` per sweep.
    ///
    /// A swap of positions `i < j` changes only the bound terms at
    /// `i..=j`: the prefix before `i` is untouched, and every later taxon
    /// keeps the same set of predecessors. For a taxon between the two,
    /// the minimum over its predecessors other than `i` does not depend
    /// on `j`. Kept per `i`, from a table of window minima, it makes a
    /// trial cost `O(j − i)`, and a trial that could not pass the
    /// threshold even if every such taxon gained all it can is skipped in
    /// `O(1)`. An accepted swap rebuilds only the minima that reach
    /// position `j`. A sweep that comes back to the last kept swap
    /// without keeping another stops there: every pair after it was
    /// already tried on the same order.
    pub fn compute(m: &DistanceMatrix) -> Self {
        let mut order = MaxminPermutation::compute(m).order;
        let n = order.len();
        if n < 3 {
            return SearchOrder { order };
        }
        // `d[p * n + q]` is the distance between the taxa at positions p
        // and q; a swap of positions swaps two rows and two columns.
        let mut position = vec![0; n];
        for (p, &taxon) in order.iter().enumerate() {
            position[taxon] = p;
        }
        let mut d = vec![0.0; n * n];
        for (a, b, dist) in m.pairs() {
            let (p, q) = (position[a], position[b]);
            d[p * n + q] = dist;
            d[q * n + p] = dist;
        }
        // The bound's weight per position: the leading pair in full,
        // every later taxon's distance to its nearest predecessor in half.
        let weight: Vec<f64> = (0..n)
            .map(|t| match t {
                0 => 0.0,
                1 => 1.0,
                _ => 0.5,
            })
            .collect();
        // term[t] = min over s < t of d[s][t] (infinite at t = 0).
        let mut term: Vec<f64> = (0..n).map(|t| column_min(&d, n, 0..t, t)).collect();
        let bound = |term: &[f64]| (1..n).map(|t| weight[t] * term[t]).sum::<f64>();
        let mut b = bound(&term);
        orient_leading_pair(&mut order, &mut d, n);
        // prefix[p] = min over s < i of d[s][p].
        let mut prefix = vec![f64::INFINITY; n];
        // window[i * n + t] = min over i < s < t of d[s][t], for t > i.
        let mut window = vec![f64::INFINITY; n * n];
        // rest[t] = min over s < t, s ≠ i, of d[s][t], for t > i.
        let mut rest = vec![f64::INFINITY; n];
        // The last swap kept. Once a sweep reaches it again without
        // keeping another, every pair has been tried on the final order.
        let mut last = None;
        loop {
            let mut improved = false;
            prefix.fill(f64::INFINITY);
            fill_window(&d, &mut window, n, 0..n - 1, 0);
            for i in 0..n - 1 {
                for t in i + 1..n {
                    rest[t] = prefix[t].min(window[i * n + t]);
                }
                // reach = min over i < s < j of d[i][s].
                let mut reach = f64::INFINITY;
                // room = Σ over i < t < j of weight[t] · (rest[t] − term[t]),
                // at least what the span between i and j can gain.
                let mut room = 0.0;
                for j in i + 1..n {
                    let row_j = &d[j * n..(j + 1) * n];
                    let at_i = if i > 0 {
                        weight[i] * (prefix[j] - term[i])
                    } else {
                        0.0
                    };
                    let at_j = weight[j] * (prefix[i].min(row_j[i]).min(reach) - term[j]);
                    let threshold = SWAP_GAIN * b;
                    // The span is summed in another order than `room`, so
                    // only skip it with a margin far above rounding.
                    let accept = at_i + room + at_j > 0.5 * threshold && {
                        let span = span_gain(
                            &rest[i + 1..j],
                            &row_j[i + 1..j],
                            &term[i + 1..j],
                            &weight[i + 1..j],
                        );
                        span + at_i + at_j > threshold
                    };
                    if !accept {
                        if !improved && last == Some((i, j)) {
                            return SearchOrder { order };
                        }
                        reach = reach.min(d[i * n + j]);
                        room += weight[j] * (rest[j] - term[j]);
                        continue;
                    }
                    swap_positions(&mut order, &mut d, n, i, j);
                    prefix.swap(i, j);
                    for (t, slot) in (i..=j).zip(&mut term[i..=j]) {
                        *slot = column_min(&d, n, 0..t, t);
                    }
                    b = bound(&term);
                    improved = true;
                    last = Some((i, j));
                    // Windows from rows i..j that reach past j held the
                    // old taxon at j.
                    fill_window(&d, &mut window, n, i..j, j);
                    for t in j..n {
                        rest[t] = prefix[t].min(window[i * n + t]);
                    }
                    reach = column_min(&d, n, i + 1..j + 1, i);
                    room = (i + 1..=j).map(|t| weight[t] * (rest[t] - term[t])).sum();
                }
                for p in 0..n {
                    prefix[p] = prefix[p].min(d[i * n + p]);
                }
            }
            if !improved {
                return SearchOrder { order };
            }
        }
    }

    /// The order: `order()[k]` is the original index of the taxon the
    /// search inserts `k`-th, and of taxon `k` after relabeling.
    #[inline]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Applies the order to the matrix it was computed from.
    pub fn apply(&self, m: &DistanceMatrix) -> DistanceMatrix {
        m.permute(&self.order)
    }
}

/// The minimum of `d[s][t]` over the positions `s` in `range`, read along
/// row `t` of the symmetric table.
fn column_min(d: &[f64], n: usize, range: std::ops::Range<usize>, t: usize) -> f64 {
    d[t * n + range.start..t * n + range.end]
        .iter()
        .fold(f64::INFINITY, |acc, &x| acc.min(x))
}

/// Rebuilds `window[i * n + t] = min over i < s < t of d[s][t]` for the
/// rows `i` in `rows` and the columns `t ≥ from`, bottom row first: each
/// row is the one below it plus one more position. The row below `rows`
/// must be current.
fn fill_window(d: &[f64], window: &mut [f64], n: usize, rows: std::ops::Range<usize>, from: usize) {
    for i in rows.rev() {
        for t in from.max(i + 1)..n {
            window[i * n + t] = if t == i + 1 {
                f64::INFINITY
            } else {
                window[(i + 1) * n + t].min(d[(i + 1) * n + t])
            };
        }
    }
}

/// `Σ weight[t] · (min(rest[t], row[t]) − term[t])`: what a swap changes
/// between its two positions.
fn span_gain(rest: &[f64], row: &[f64], term: &[f64], weight: &[f64]) -> f64 {
    rest.iter()
        .zip(row)
        .zip(term.iter().zip(weight))
        .map(|((r, x), (t, w))| w * (r.min(*x) - t))
        .sum()
}

/// Swaps positions `i` and `j` of the order and of its distance table.
fn swap_positions(order: &mut [usize], d: &mut [f64], n: usize, i: usize, j: usize) {
    order.swap(i, j);
    for p in 0..n {
        d.swap(p * n + i, p * n + j);
    }
    for q in 0..n {
        d.swap(i * n + q, j * n + q);
    }
}

/// Puts first the leading-pair taxon farther from the third taxon. Ties
/// keep the pair as it is.
fn orient_leading_pair(order: &mut [usize], d: &mut [f64], n: usize) {
    if d[n + 2] > d[2] {
        swap_positions(order, d, n, 0, 1);
    }
}

impl DistanceMatrix {
    /// Convenience wrapper around [`MaxminPermutation::compute`].
    pub fn maxmin_permutation(&self) -> MaxminPermutation {
        MaxminPermutation::compute(self)
    }

    /// Convenience wrapper around [`SearchOrder::compute`].
    pub fn search_order(&self) -> SearchOrder {
        SearchOrder::compute(self)
    }

    /// The static root bound of searching the taxa in `order`: the
    /// weight of the tree over the leading pair plus, for every later
    /// taxon, half its distance to the nearest taxon before it,
    /// `B(o) = M[o₀, o₁] + ½ Σ_{t ≥ 2} min_{s < t} M[o_s, o_t]`.
    ///
    /// Every ultrametric tree over all the taxa weighs at least `B(o)`,
    /// whatever the order: inserting `o_t` into a tree over its
    /// predecessors adds at least half its distance to the nearest of
    /// them. The order decides only how much of the optimum `B` sees at
    /// the root.
    ///
    /// # Panics
    ///
    /// Panics when `order` is shorter than two or names a taxon out of
    /// range.
    pub fn root_bound(&self, order: &[usize]) -> f64 {
        let mut b = self.get(order[0], order[1]);
        for t in 2..order.len() {
            let nearest = order[..t]
                .iter()
                .map(|&s| self.get(s, order[t]))
                .fold(f64::INFINITY, f64::min);
            b += 0.5 * nearest;
        }
        b
    }

    /// The *subdominant ultrametric* of the matrix: the largest ultrametric
    /// dominated by it, given by minimax path distances
    /// `d'(i, j) = min over paths p from i to j of max edge on p`
    /// (a Floyd–Warshall pass with `(max, min)` in place of `(+, min)`).
    ///
    /// This is exactly the leaf-distance matrix of the single-linkage
    /// dendrogram, and it lower-bounds every ultrametric matrix below `M` —
    /// the classical dual of the minimum ultrametric tree problem (which
    /// asks for a cheap ultrametric *above* `M`).
    pub fn subdominant_ultrametric(&self) -> DistanceMatrix {
        let n = self.len();
        let mut full: Vec<f64> = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                full.push(self.get(i, j));
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = full[i * n + k];
                for j in 0..n {
                    let through = dik.max(full[k * n + j]);
                    if through < full[i * n + j] {
                        full[i * n + j] = through;
                    }
                }
            }
        }
        let mut out = self.clone();
        for i in 1..n {
            for j in 0..i {
                out.set(i, j, full[i * n + j]);
            }
        }
        out
    }

    /// Whether the matrix satisfies the **four-point condition** — for
    /// every quadruple, the two largest of the three pairings
    /// `d(i,j)+d(k,l)`, `d(i,k)+d(j,l)`, `d(i,l)+d(j,k)` are equal within
    /// `tol`. Additive matrices are exactly those realizable by an
    /// edge-weighted tree (neighbor joining recovers them exactly);
    /// every ultrametric matrix is additive. `O(n⁴)`.
    pub fn is_additive(&self, tol: f64) -> bool {
        let n = self.len();
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    for l in (k + 1)..n {
                        let mut s = [
                            self.get(i, j) + self.get(k, l),
                            self.get(i, k) + self.get(j, l),
                            self.get(i, l) + self.get(j, k),
                        ];
                        s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                        if (s[2] - s[1]).abs() > tol {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistanceMatrix {
        DistanceMatrix::from_rows(&[
            vec![0.0, 4.0, 2.0, 9.0, 5.0, 8.0],
            vec![4.0, 0.0, 4.0, 9.0, 5.0, 8.0],
            vec![2.0, 4.0, 0.0, 9.0, 5.0, 8.0],
            vec![9.0, 9.0, 9.0, 0.0, 9.0, 3.0],
            vec![5.0, 5.0, 5.0, 9.0, 0.0, 8.0],
            vec![8.0, 8.0, 8.0, 3.0, 8.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn starts_with_max_pair() {
        let m = sample();
        let p = m.maxmin_permutation();
        let o = p.order();
        assert_eq!(m.get(o[0], o[1]), 9.0);
    }

    #[test]
    fn satisfies_maxmin_property() {
        let m = sample();
        let p = m.maxmin_permutation();
        assert!(p.is_maxmin_for(&m, 1e-9));
    }

    #[test]
    fn is_a_permutation() {
        let m = sample();
        let p = m.maxmin_permutation();
        let mut sorted = p.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn apply_matches_permute() {
        let m = sample();
        let p = m.maxmin_permutation();
        assert_eq!(p.apply(&m), m.permute(p.order()));
    }

    #[test]
    fn detects_non_maxmin() {
        let m = sample();
        let bad = MaxminPermutation {
            order: vec![0, 1, 2, 3, 4, 5],
        };
        // (0, 1) has distance 4 < max distance 9.
        assert!(!bad.is_maxmin_for(&m, 1e-9));
    }

    #[test]
    fn root_bound_charges_the_leading_pair_in_full_and_the_rest_in_half() {
        let m = sample();
        // M[3, 0] + ½ (min(M[1,3], M[1,0]) + min(M[5,3], M[5,0], M[5,1])).
        assert_eq!(m.root_bound(&[3, 0, 1, 5]), 9.0 + 0.5 * (4.0 + 3.0));
    }

    #[test]
    fn search_order_swaps_past_maxmin_when_the_bound_rises() {
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 2.0, 8.0, 4.0, 1.0],
            vec![2.0, 0.0, 9.0, 9.0, 9.0],
            vec![8.0, 9.0, 0.0, 4.0, 3.0],
            vec![4.0, 9.0, 4.0, 0.0, 9.0],
            vec![1.0, 9.0, 3.0, 9.0, 0.0],
        ])
        .unwrap();
        let maxmin = m.maxmin_permutation();
        assert_eq!(maxmin.order(), &[1, 2, 3, 4, 0]);
        assert_eq!(m.root_bound(maxmin.order()), 13.0);
        // Taxon 4 ties taxon 2 for the farthest pair, and once placed
        // with taxon 1 it leaves taxon 3 a nearest distance of 9, not 4.
        let order = m.search_order();
        assert_eq!(order.order(), &[1, 4, 3, 2, 0]);
        assert_eq!(m.root_bound(order.order()), 15.5);
        assert_eq!(order.apply(&m), m.permute(order.order()));
    }

    #[test]
    fn subdominant_is_ultrametric_and_dominated() {
        let m = sample();
        let u = m.subdominant_ultrametric();
        assert!(u.is_ultrametric(1e-9));
        for (i, j, d) in u.pairs() {
            assert!(d <= m.get(i, j) + 1e-12);
        }
        // Idempotent on ultrametric input.
        assert_eq!(u.subdominant_ultrametric(), u);
    }

    #[test]
    fn subdominant_uses_minimax_paths() {
        let mut m = DistanceMatrix::zeros(3).unwrap();
        m.set(0, 1, 1.0);
        m.set(1, 2, 2.0);
        m.set(0, 2, 10.0); // the path 0-1-2 has max edge 2
        let u = m.subdominant_ultrametric();
        assert_eq!(u.get(0, 2), 2.0);
        assert_eq!(u.get(0, 1), 1.0);
    }

    #[test]
    fn four_point_condition() {
        // An additive (tree-realizable) but non-ultrametric matrix.
        let additive = DistanceMatrix::from_rows(&[
            vec![0.0, 5.0, 9.0, 9.0],
            vec![5.0, 0.0, 10.0, 10.0],
            vec![9.0, 10.0, 0.0, 8.0],
            vec![9.0, 10.0, 8.0, 0.0],
        ])
        .unwrap();
        assert!(additive.is_additive(1e-9));
        assert!(!additive.is_ultrametric(1e-9));

        // Ultrametric ⊂ additive.
        let um = DistanceMatrix::from_rows(&[
            vec![0.0, 2.0, 8.0, 8.0],
            vec![2.0, 0.0, 8.0, 8.0],
            vec![8.0, 8.0, 0.0, 4.0],
            vec![8.0, 8.0, 4.0, 0.0],
        ])
        .unwrap();
        assert!(um.is_additive(1e-9));

        // Perturbing a distance that participates in the two dominant
        // pairing sums breaks the condition.
        let mut bad = additive.clone();
        bad.set(0, 2, 12.0);
        assert!(!bad.is_additive(1e-9));
    }

    #[test]
    fn two_taxa_trivial() {
        let m = DistanceMatrix::from_rows(&[vec![0.0, 5.0], vec![5.0, 0.0]]).unwrap();
        let p = m.maxmin_permutation();
        assert!(p.is_maxmin_for(&m, 1e-9));
        assert_eq!(p.order().len(), 2);
    }

    #[test]
    fn inverse_inverts_order() {
        let p = sample().maxmin_permutation();
        let inv = p.inverse();
        for (k, &orig) in p.order().iter().enumerate() {
            assert_eq!(inv[orig], k);
        }
    }
}
