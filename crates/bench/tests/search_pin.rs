//! Pins the exact search: node counts are the portable measure of a
//! branch-and-bound's work, so a change that claims to make the search
//! faster without changing it must reproduce, bit for bit, the branched
//! and pruned counts and the optimum weight pinned here. `pruned`
//! counts every child the bound rejects, built or skipped, so a
//! miscounted skip shows there even when `branched` holds.
//!
//! Each instance is pinned twice. The *default* pins solve the matrix as
//! given, so they follow the search order (maxmin improved by pair
//! swaps). The *maxmin* pins solve the matrix permuted into its maxmin
//! order with relabeling off: the search the kernel ran before the swaps
//! existed, so those pins still prove that the kernel itself did not
//! change when the order does.
//!
//! The node counts are this test's own: they are the look-ahead bound's,
//! and the `branched` column of `perfbench/catalog.txt` still records the
//! static bound and maxmin order the catalog was screened under. The
//! weight bits still equal the catalog's — a tighter bound or a better
//! order may only prove the same optimum sooner. Neither follows the
//! catalog if it is regenerated.
//!
//! Every pin holds at every leaf-bitset width: widening the per-node
//! leaf masks may not change a single search decision.

use mutree_bench::data;
use mutree_core::{solve_plan, EnvOverrides, SolvePlan, SolveRequest, ThreeThree, LEAF_WIDTHS};
use mutree_distmat::DistanceMatrix;

/// Which order a pinned solve searches in.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// The solver's own relabeling of the matrix as given.
    Default,
    /// The maxmin order, applied by hand, with the solver's relabeling off.
    Maxmin,
}

/// `(branched, pruned, weight bits)` of an exact solve of `m` under
/// `rule` on `words`-word leaf bitsets, searched in `order`.
fn solve(m: &DistanceMatrix, rule: ThreeThree, words: usize, order: Order) -> (u64, u64, u64) {
    let mut request = match order {
        Order::Default => SolveRequest::exact(m.clone()),
        Order::Maxmin => {
            let mut request = SolveRequest::exact(m.maxmin_permutation().apply(m));
            request.use_maxmin = false;
            request
        }
    }
    .leaf_words(words);
    request.three_three = rule;
    let report =
        solve_plan(&SolvePlan::resolve(request, &EnvOverrides::none())).expect("exact solve");
    assert!(report.is_complete());
    assert_eq!(report.leaf_words, Some(words));
    (
        report.stats.branched,
        report.stats.pruned,
        report.weight.to_bits(),
    )
}

/// Checks every pin of `pins`, `(seed, branched, pruned, weight bits)`,
/// at every width.
fn check(
    family: &str,
    matrix: impl Fn(u64) -> DistanceMatrix,
    rule: ThreeThree,
    order: Order,
    pins: &[(u64, u64, u64, u64)],
) {
    for &(seed, branched, pruned, bits) in pins {
        let m = matrix(seed);
        for words in LEAF_WIDTHS {
            assert_eq!(
                solve(&m, rule, words, order),
                (branched, pruned, bits),
                "{family} {seed} {rule:?} {order:?}, K = {words}: (branched, pruned, weight bits)"
            );
        }
    }
}

#[test]
fn exact_instances_reproduce_their_pinned_counts_and_weights() {
    check(
        "exact 20",
        |seed| data::random_species_matrix(20, seed),
        ThreeThree::Off,
        Order::Default,
        &[
            (48, 459, 8185, 0x407e23b3ff858ef9),
            (62, 608, 9102, 0x40800e9bc424575c),
        ],
    );
}

#[test]
fn exact_instances_in_maxmin_order_reproduce_their_pinned_counts_and_weights() {
    check(
        "exact 20",
        |seed| data::random_species_matrix(20, seed),
        ThreeThree::Off,
        Order::Maxmin,
        &[
            (48, 459, 8185, 0x407e23b3ff858ef9),
            (62, 782, 12007, 0x40800e9bc424575c),
        ],
    );
}

#[test]
fn clustered_instances_reproduce_their_pinned_counts_and_weights() {
    check(
        "clustered 16",
        |seed| data::clustered_matrix(4, 4, seed),
        ThreeThree::Off,
        Order::Default,
        &[
            (47, 0, 1, 0x406c37d7185f2ee0),
            (43, 0, 1, 0x406c76c04c18b908),
        ],
    );
}

#[test]
fn clustered_instances_in_maxmin_order_reproduce_their_pinned_counts_and_weights() {
    check(
        "clustered 16",
        |seed| data::clustered_matrix(4, 4, seed),
        ThreeThree::Off,
        Order::Maxmin,
        &[
            (47, 64, 555, 0x406c37d7185f2ee0),
            (43, 49, 375, 0x406c76c04c18b908),
        ],
    );
}

/// Under the full 3-3 rule, branching filters a site by the rule (and
/// the confinement masks) before the bound may skip it: a filtered child
/// is never counted, a skipped one is counted as pruned. Swapping the two
/// moves `pruned`.
#[test]
fn full_rule_instance_reproduces_its_pinned_counts_and_weight() {
    check(
        "clustered 16",
        |seed| data::clustered_matrix(4, 4, seed),
        ThreeThree::Full,
        Order::Default,
        &[(88, 139, 15, 0x406c67a1ab55121a)],
    );
}

#[test]
fn full_rule_instance_in_maxmin_order_reproduces_its_pinned_counts_and_weight() {
    check(
        "clustered 16",
        |seed| data::clustered_matrix(4, 4, seed),
        ThreeThree::Full,
        Order::Maxmin,
        &[(88, 169, 15, 0x406c67a1ab55121a)],
    );
}

/// The full 3-3 rule is a heuristic, not an exact restriction: on these
/// n = 20 random-species instances it branches only the search root and
/// returns the UPGMM incumbent, heavier than the proven optimum. Pinned
/// so no document can claim the rule preserves the optimum.
#[test]
fn full_rule_loses_the_optimum_on_random_species_at_n_20() {
    for seed in [5, 62] {
        let m = data::random_species_matrix(20, seed);
        let (_, _, exact) = solve(&m, ThreeThree::Off, 1, Order::Default);
        let (branched, _, full) = solve(&m, ThreeThree::Full, 1, Order::Default);
        let (exact, full) = (f64::from_bits(exact), f64::from_bits(full));
        assert!(
            full > exact,
            "seed {seed}: full 3-3 weight {full} is not heavier than the optimum {exact}"
        );
        assert_eq!(
            branched, 1,
            "seed {seed}: full 3-3 branched more than the root"
        );
    }
}
