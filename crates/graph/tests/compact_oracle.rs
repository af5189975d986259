//! `CompactSets::find` against two oracles that do not share its code:
//!
//! * the textbook `O(n³)` form of the paper's §3.1 algorithm — Kruskal over
//!   every edge of the complete graph, a crossing minimum rescanned after
//!   each merge, and the laminar forest rebuilt by containment scans — on
//!   tie-heavy, clustered and HMDNA-like matrices, n = 3..48;
//! * exhaustive enumeration of all 2ⁿ vertex subsets against the definition
//!   `Max(C) < Min(C, V ∖ C)`, for n ≤ 10 on tie-heavy matrices.

use std::collections::HashMap;

use mutree_distmat::{gen, DistanceMatrix};
use mutree_graph::CompactSets;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `O(n³)` compact-set algorithm: the parity oracle.
mod cubic {
    use super::*;

    /// One compact set with the weight of the merge that formed it.
    pub struct Set {
        pub members: Vec<usize>,
        pub max_internal: f64,
        pub min_crossing: f64,
        pub height: f64,
    }

    /// Every edge `(weight, u, v)`, `u < v`, of the complete graph over
    /// `m`, by ascending weight, ties by `(u, v)`.
    fn sorted_edges(m: &DistanceMatrix) -> Vec<(f64, usize, usize)> {
        let n = m.len();
        let mut edges: Vec<_> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (m.get(u, v), u, v)))
            .collect();
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        edges
    }

    /// Kruskal over the complete graph: every edge in ascending order
    /// whose endpoints lie in different components is a tree edge and
    /// merges them. After each merge `A`, rescan `Min(A, !A)` and test
    /// `Max(A) < Min(A, !A)`. Sets come out in detection order.
    pub fn find(m: &DistanceMatrix) -> Vec<Set> {
        let n = m.len();
        let mut comp: Vec<usize> = (0..n).collect();
        let mut members: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
        let mut max_internal: Vec<f64> = vec![0.0; n];
        let mut sets = Vec::new();
        for (weight, u, v) in sorted_edges(m) {
            let (ca, cb) = (comp[u], comp[v]);
            if ca == cb {
                continue;
            }
            let (keep, drop) = if members[ca].len() >= members[cb].len() {
                (ca, cb)
            } else {
                (cb, ca)
            };
            let mut cross_max = 0.0f64;
            for &x in &members[keep] {
                for &y in &members[drop] {
                    cross_max = cross_max.max(m.get(x, y));
                }
            }
            let dropped = std::mem::take(&mut members[drop]);
            for &y in &dropped {
                comp[y] = keep;
            }
            members[keep].extend(dropped);
            max_internal[keep] = max_internal[keep].max(max_internal[drop]).max(cross_max);
            if members[keep].len() < n {
                let mut inside = vec![false; n];
                for &x in &members[keep] {
                    inside[x] = true;
                }
                let mut min_crossing = f64::INFINITY;
                for &x in &members[keep] {
                    for (y, &is_in) in inside.iter().enumerate() {
                        if !is_in {
                            min_crossing = min_crossing.min(m.get(x, y));
                        }
                    }
                }
                if max_internal[keep] < min_crossing {
                    let mut ms = members[keep].clone();
                    ms.sort_unstable();
                    sets.push(Set {
                        members: ms,
                        max_internal: max_internal[keep],
                        min_crossing,
                        height: weight,
                    });
                }
            }
        }
        sets
    }

    fn contains(big: &[usize], small: &[usize]) -> bool {
        small.iter().all(|x| big.binary_search(x).is_ok())
    }

    /// Each set's smallest strict superset, by containment scan.
    pub fn parents(sets: &[Set]) -> Vec<Option<usize>> {
        (0..sets.len())
            .map(|i| {
                (0..sets.len())
                    .filter(|&j| {
                        sets[j].members.len() > sets[i].members.len()
                            && contains(&sets[j].members, &sets[i].members)
                    })
                    .min_by_key(|&j| sets[j].members.len())
            })
            .collect()
    }

    /// The largest sets with at most `max_size` members, plus singletons
    /// for every uncovered taxon, sorted by smallest member.
    pub fn partition(n: usize, sets: &[Set], max_size: usize) -> Vec<Vec<usize>> {
        let parents = parents(sets);
        let mut groups: Vec<Vec<usize>> = (0..sets.len())
            .filter(|&i| {
                sets[i].members.len() <= max_size
                    && parents[i].is_none_or(|p| sets[p].members.len() > max_size)
            })
            .map(|i| sets[i].members.clone())
            .collect();
        let mut covered = vec![false; n];
        for &v in groups.iter().flatten() {
            covered[v] = true;
        }
        groups.extend((0..n).filter(|&v| !covered[v]).map(|v| vec![v]));
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

/// Integer distances in 1..=8: many ties, no metric structure.
fn tie_heavy(n: usize, seed: u64) -> DistanceMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = DistanceMatrix::zeros(n).unwrap();
    for i in 0..n {
        for j in (i + 1)..n {
            m.set(i, j, f64::from(rng.gen_range(1u8..=8)));
        }
    }
    m
}

/// Blocks of `size` taxa, random 2–8 inside a block, 100 across blocks.
fn clustered(n: usize, seed: u64) -> DistanceMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let size: usize = rng.gen_range(2..=6);
    let mut m = DistanceMatrix::zeros(n).unwrap();
    for i in 0..n {
        for j in (i + 1)..n {
            let d = if i / size == j / size {
                rng.gen_range(2.0..8.0)
            } else {
                100.0
            };
            m.set(i, j, d);
        }
    }
    m
}

/// Near-ultrametric integer distances, like edit distances between
/// sequences evolved on a clock-like tree.
fn hmdna_like(n: usize, seed: u64) -> DistanceMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let u = gen::perturbed_ultrametric(n, 40.0, 0.1, &mut rng);
    let mut m = DistanceMatrix::zeros(n).unwrap();
    for (i, j, d) in u.pairs() {
        m.set(i, j, d.round().max(1.0));
    }
    m
}

fn has_tied_distances(m: &DistanceMatrix) -> bool {
    let mut d = m.condensed().to_vec();
    d.sort_by(f64::total_cmp);
    d.windows(2).any(|w| w[0] == w[1])
}

/// Asserts that `find` reports the oracle's sets with bit-equal statistics,
/// the same partition at every threshold and the same forest, in strictly
/// ascending canonical order.
fn assert_parity(m: &DistanceMatrix) {
    let n = m.len();
    let cs = CompactSets::find(m);
    let oracle = cubic::find(m);
    let oracle_parents = cubic::parents(&oracle);
    let by_members: HashMap<&[usize], usize> = oracle
        .iter()
        .enumerate()
        .map(|(i, s)| (s.members.as_slice(), i))
        .collect();

    assert_eq!(cs.len(), oracle.len(), "set count");
    let mut matched = Vec::with_capacity(cs.len());
    for s in cs.iter() {
        let i = *by_members
            .get(s.members())
            .unwrap_or_else(|| panic!("{:?} reported but not found by the oracle", s.members()));
        let o = &oracle[i];
        assert_eq!(s.max_internal().to_bits(), o.max_internal.to_bits());
        assert_eq!(s.min_crossing().to_bits(), o.min_crossing.to_bits());
        matched.push(i);
    }

    for t in 2..=n {
        assert_eq!(
            cs.partition(t),
            cubic::partition(n, &oracle, t),
            "threshold {t}"
        );
    }

    let forest = cs.forest();
    let roots: Vec<usize> = (0..cs.len())
        .filter(|&i| forest.nodes[i].parent.is_none())
        .collect();
    assert_eq!(&forest.roots, &roots);
    for (node, &i) in forest.nodes.iter().zip(&matched) {
        let parent = node.parent.map(|p| cs.as_slice()[p].members());
        let expected = oracle_parents[i].map(|p| oracle[p].members.as_slice());
        assert_eq!(parent, expected, "parent of {:?}", &oracle[i].members);
        for &c in &node.children {
            assert_eq!(forest.nodes[c].parent, Some(node.set));
        }
    }
    let maximal: Vec<&[usize]> = cs.maximal().iter().map(|s| s.members()).collect();
    let roots_members: Vec<&[usize]> = roots.iter().map(|&r| cs.as_slice()[r].members()).collect();
    assert_eq!(maximal, roots_members);

    // Canonical order: ascending (formation height, size, smallest member).
    let key = |i: usize| {
        (
            oracle[i].height,
            oracle[i].members.len(),
            oracle[i].members[0],
        )
    };
    for w in matched.windows(2) {
        assert!(
            key(w[0]) < key(w[1]),
            "{:?} listed before {:?}",
            &oracle[w[0]].members,
            &oracle[w[1]].members
        );
    }
    // Without ties the canonical order is the detection order.
    if !has_tied_distances(m) {
        assert_eq!(matched, (0..oracle.len()).collect::<Vec<_>>());
    }
}

/// Every proper compact set by enumerating all 2ⁿ subsets, each with its
/// `Max(C)` and `Min(C, V ∖ C)`, sorted by members.
fn exhaustive(m: &DistanceMatrix) -> Vec<(Vec<usize>, f64, f64)> {
    let n = m.len();
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) - 1 {
        if mask.count_ones() < 2 {
            continue;
        }
        let inside = |v: usize| mask & (1 << v) != 0;
        let mut max_in = 0.0f64;
        let mut min_out = f64::INFINITY;
        for a in (0..n).filter(|&a| inside(a)) {
            for b in 0..n {
                if !inside(b) {
                    min_out = min_out.min(m.get(a, b));
                } else if b > a {
                    max_in = max_in.max(m.get(a, b));
                }
            }
        }
        if max_in < min_out {
            let members: Vec<usize> = (0..n).filter(|&v| inside(v)).collect();
            out.push((members, max_in, min_out));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn find_matches_cubic_oracle_on_tie_heavy(n in 3usize..=48, seed in any::<u64>()) {
        assert_parity(&tie_heavy(n, seed));
    }

    #[test]
    fn find_matches_cubic_oracle_on_clustered(n in 3usize..=48, seed in any::<u64>()) {
        assert_parity(&clustered(n, seed));
    }

    #[test]
    fn find_matches_cubic_oracle_on_hmdna_like(n in 3usize..=48, seed in any::<u64>()) {
        assert_parity(&hmdna_like(n, seed));
    }

    #[test]
    fn find_reports_every_compact_subset(n in 3usize..=10, seed in any::<u64>()) {
        let m = tie_heavy(n, seed);
        let mut found: Vec<(Vec<usize>, f64, f64)> = CompactSets::find(&m)
            .iter()
            .map(|s| (s.members().to_vec(), s.max_internal(), s.min_crossing()))
            .collect();
        found.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(found, exhaustive(&m));
    }
}
