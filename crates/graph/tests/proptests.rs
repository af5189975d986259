//! Property tests: compact sets against their definition and against an
//! independent minimum spanning tree.

use mutree_distmat::{gen, DistanceMatrix};
use mutree_graph::CompactSets;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The edges of a minimum spanning tree of the complete graph over `m`,
/// by Kruskal's rule: every edge in ascending order that joins two
/// components, components kept as labels.
fn mst(m: &DistanceMatrix) -> Vec<(usize, usize)> {
    let n = m.len();
    let mut edges: Vec<_> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    edges.sort_by(|a, b| m.get(a.0, a.1).total_cmp(&m.get(b.0, b.1)));
    let mut comp: Vec<usize> = (0..n).collect();
    edges.retain(|&(u, v)| {
        let (cu, cv) = (comp[u], comp[v]);
        for c in comp.iter_mut().filter(|c| **c == cv) {
            *c = cu;
        }
        cu != cv
    });
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Brute-force definition check: a set is compact iff its internal max
    /// is below its crossing min. Every set the algorithm reports must
    /// satisfy it, and every 2-element compact set must be reported.
    #[test]
    fn compact_sets_match_definition(n in 3usize..10, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::perturbed_ultrametric(n, 40.0, 0.15, &mut rng);
        let cs = CompactSets::find(&m);
        let is_compact = |members: &[usize]| {
            let mut max_in = 0.0f64;
            let mut min_out = f64::INFINITY;
            for &a in members {
                for b in 0..n {
                    if members.contains(&b) {
                        if b > a {
                            max_in = max_in.max(m.get(a, b));
                        }
                    } else {
                        min_out = min_out.min(m.get(a, b));
                    }
                }
            }
            max_in < min_out
        };
        for s in cs.iter() {
            prop_assert!(is_compact(s.members()), "{:?} reported but not compact", s.members());
        }
        // Completeness for pairs.
        for a in 0..n {
            for b in (a + 1)..n {
                if is_compact(&[a, b]) {
                    prop_assert!(
                        cs.iter().any(|s| s.members() == [a, b]),
                        "compact pair ({a}, {b}) missed"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_respects_threshold(n in 4usize..14, seed in any::<u64>(), threshold in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::perturbed_ultrametric(n, 40.0, 0.1, &mut rng);
        let cs = CompactSets::find(&m);
        let groups = cs.partition(threshold);
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        for g in &groups {
            prop_assert!(g.len() <= threshold.max(1));
        }
    }

    /// Lemma 4: every compact set induces a subtree of a minimum
    /// spanning tree — its members are joined by exactly `|C| − 1` tree
    /// edges, as a cheaper tree would exist otherwise.
    #[test]
    fn compact_sets_induce_subtrees_of_the_mst(n in 3usize..12, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::perturbed_ultrametric(n, 40.0, 0.15, &mut rng);
        let mst = mst(&m);
        prop_assert_eq!(mst.len(), n - 1);
        for s in CompactSets::find(&m).iter() {
            let inside = mst
                .iter()
                .filter(|&&(u, v)| s.members().contains(&u) && s.members().contains(&v))
                .count();
            prop_assert_eq!(inside, s.len() - 1, "{:?}", s.members());
        }
    }
}

#[test]
fn compact_sets_on_perfect_clusters() {
    // Two tight clusters far apart: both must be compact.
    let m = DistanceMatrix::from_rows(&[
        vec![0.0, 1.0, 1.2, 50.0, 50.0],
        vec![1.0, 0.0, 1.1, 50.0, 50.0],
        vec![1.2, 1.1, 0.0, 50.0, 50.0],
        vec![50.0, 50.0, 50.0, 0.0, 2.0],
        vec![50.0, 50.0, 50.0, 2.0, 0.0],
    ])
    .unwrap();
    let cs = CompactSets::find(&m);
    let members: Vec<Vec<usize>> = cs.iter().map(|s| s.members().to_vec()).collect();
    assert!(members.contains(&vec![0, 1, 2]));
    assert!(members.contains(&vec![3, 4]));
}
