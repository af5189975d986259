//! Property tests of the distance-matrix invariants.

use mutree_distmat::{gen, io, DistanceMatrix, MaxminPermutation, SearchOrder, SolverMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_matrix(max_n: usize) -> impl Strategy<Value = DistanceMatrix> {
    (2..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = DistanceMatrix::zeros(n).unwrap();
        for i in 1..n {
            for j in 0..i {
                m.set(i, j, rand::Rng::gen_range(&mut rng, 0.5..100.0));
            }
        }
        m
    })
}

/// Whether no two off-diagonal distances of `m` are equal.
fn tie_free(m: &DistanceMatrix) -> bool {
    let mut bits: Vec<u64> = m.condensed().iter().map(|d| d.to_bits()).collect();
    bits.sort_unstable();
    bits.windows(2).all(|w| w[0] != w[1])
}

/// `m` with every distance rounded up to a multiple of 10: a matrix full
/// of ties, as integer HMDNA distances are.
fn with_ties(m: &DistanceMatrix) -> DistanceMatrix {
    let mut tied = m.clone();
    for (i, j, d) in m.pairs() {
        tied.set(i, j, (d / 10.0).ceil() * 10.0);
    }
    tied
}

/// `m` with its taxa relabeled by a seeded Fisher–Yates permutation,
/// and the permutation (`perm[k]` = the taxon of `m` that `k` names).
fn relabeled(m: &DistanceMatrix, seed: u64) -> (DistanceMatrix, Vec<usize>) {
    let mut perm: Vec<usize> = (0..m.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..perm.len()).rev() {
        let j = rand::Rng::gen_range(&mut rng, 0..=i);
        perm.swap(i, j);
    }
    (m.permute(&perm), perm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn condensed_roundtrip(m in arb_matrix(12)) {
        let again = DistanceMatrix::from_condensed(m.len(), m.condensed().to_vec()).unwrap();
        prop_assert_eq!(&m, &again);
    }

    #[test]
    fn permutation_composes_to_identity(m in arb_matrix(10), seed in any::<u64>()) {
        let n = m.len();
        let mut perm: Vec<usize> = (0..n).collect();
        // Fisher–Yates with the seeded rng.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rand::Rng::gen_range(&mut rng, 0..=i);
            perm.swap(i, j);
        }
        let permuted = m.permute(&perm);
        // Inverse permutation restores the original.
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        prop_assert_eq!(permuted.permute(&inv), m);
    }

    #[test]
    fn closure_is_idempotent_and_dominated(m in arb_matrix(10)) {
        let c1 = m.metric_closure();
        let c2 = c1.metric_closure();
        prop_assert!(c1.is_metric(1e-9));
        // Idempotent up to floating-point ulps: a second pass may shave a
        // last-bit triangle violation left by summation rounding.
        prop_assert!(c1.max_relative_deviation(&c2) < 1e-12);
        for (i, j, d) in c1.pairs() {
            prop_assert!(d <= m.get(i, j) + 1e-12);
        }
    }

    #[test]
    fn submatrix_preserves_entries(m in arb_matrix(10)) {
        let n = m.len();
        if n < 4 {
            return Ok(());
        }
        let taxa = [0usize, n / 2, n - 1];
        let s = m.submatrix(&taxa).unwrap();
        for (a, &ta) in taxa.iter().enumerate() {
            for (b, &tb) in taxa.iter().enumerate() {
                prop_assert_eq!(s.get(a, b), m.get(ta, tb));
            }
        }
    }

    #[test]
    fn phylip_roundtrip(m in arb_matrix(8)) {
        let mut labeled = m.clone();
        labeled.set_labels((0..m.len()).map(|i| format!("sp{i}")));
        let text = io::to_phylip(&labeled);
        let parsed = io::parse_phylip(&text).unwrap();
        prop_assert_eq!(parsed.len(), labeled.len());
        for (i, j, d) in labeled.pairs() {
            prop_assert!((parsed.get(i, j) - d).abs() < 1e-5);
        }
    }

    #[test]
    fn maxmin_is_maxmin(n in 2usize..12, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::uniform_metric(n, 1.0, 50.0, &mut rng);
        let p = MaxminPermutation::compute(&m);
        prop_assert!(p.is_maxmin_for(&m, 1e-9));
    }

    #[test]
    fn ultrametric_generator_beats_its_own_check(n in 2usize..16, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::random_ultrametric(n, 30.0, &mut rng);
        prop_assert!(m.is_ultrametric(1e-9));
        prop_assert!(m.is_metric(1e-9));
    }

    /// A solver matrix built from the maxmin-permuted matrix round-trips
    /// bit-for-bit under the inverse permutation: `sm[i][j]` of the
    /// permuted copy equals `m[order[i]][order[j]]` of the original. Its
    /// padding lanes stay poisoned (NaN in debug builds) / zeroed
    /// (release) and never leak into the payload columns.
    #[test]
    fn solver_matrix_roundtrips_under_inverse_maxmin(m in arb_matrix(70)) {
        let n = m.len();
        let perm = m.maxmin_permutation();
        let pm = perm.apply(&m);
        let sm = SolverMatrix::new(&pm);
        let order = perm.order();
        prop_assert_eq!(sm.len(), n);
        prop_assert_eq!(sm.stride() % 64, 0);
        prop_assert!(sm.stride() >= n);
        for i in 0..n {
            let row = sm.row(i);
            prop_assert_eq!(row.len(), sm.stride());
            for j in 0..n {
                // Three ways to the same bits: blocked row, blocked
                // getter, original matrix through the inverse relabeling.
                prop_assert_eq!(row[j].to_bits(), sm.get(i, j).to_bits());
                prop_assert_eq!(row[j].to_bits(), pm.get(i, j).to_bits());
                prop_assert_eq!(row[j].to_bits(), m.get(order[i], order[j]).to_bits());
            }
            for pad in &row[n..] {
                if cfg!(debug_assertions) {
                    prop_assert!(pad.is_nan(), "padding must stay poisoned");
                } else {
                    prop_assert_eq!(pad.to_bits(), 0.0f64.to_bits());
                }
            }
        }
    }

    #[test]
    fn search_order_is_a_permutation(m in arb_matrix(40)) {
        let mut sorted = SearchOrder::compute(&m).order().to_vec();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..m.len()).collect::<Vec<_>>());
    }

    /// The swaps only ever raise the static root bound, so the order
    /// starts the search at least as high as maxmin does.
    #[test]
    fn search_order_bound_is_at_least_maxmins(m in arb_matrix(40)) {
        for m in [with_ties(&m), m] {
            let swapped = m.root_bound(SearchOrder::compute(&m).order());
            let maxmin = m.root_bound(MaxminPermutation::compute(&m).order());
            prop_assert!(swapped >= maxmin, "{} < {}", swapped, maxmin);
        }
    }

    /// The order is a local optimum: swapping any two positions, the
    /// leading pair included, raises the bound by no more than the
    /// relative 1e-9 a swap must beat (plus rounding of the direct sum).
    #[test]
    fn no_pair_swap_raises_the_search_order_bound(m in arb_matrix(16)) {
        for m in [with_ties(&m), m] {
            let order = SearchOrder::compute(&m).order().to_vec();
            let b = m.root_bound(&order);
            for i in 0..order.len() {
                for j in i + 1..order.len() {
                    let mut o = order.clone();
                    o.swap(i, j);
                    let swapped = m.root_bound(&o);
                    prop_assert!(
                        swapped <= b * (1.0 + 1e-9 + 1e-12),
                        "swap ({}, {}): {} > {}", i, j, swapped, b
                    );
                }
            }
        }
    }

    /// On a matrix without tied distances, the order depends on the
    /// distances alone: a relabeled copy's order names the same taxa, in
    /// the same order. (Two taxa have no third to orient the pair by.)
    #[test]
    fn search_order_names_the_same_taxa_after_relabeling(m in arb_matrix(40), seed in any::<u64>()) {
        if m.len() < 3 || !tie_free(&m) {
            return Ok(());
        }
        let (r, perm) = relabeled(&m, seed);
        let original = SearchOrder::compute(&m).order().to_vec();
        let via_copy: Vec<usize> = SearchOrder::compute(&r).order().iter().map(|&k| perm[k]).collect();
        prop_assert_eq!(via_copy, original);
    }
}
