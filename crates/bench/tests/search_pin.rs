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
//! order with relabeling off: the static order fixes only the root pair
//! and the order in which the pendant terms count the remaining species,
//! as each node picks the leaf its children insert, so those pins prove
//! that the kernel itself did not change when the static order does.
//!
//! The node counts are this test's own: they are the look-ahead bound's
//! with the per-node leaf choice, and the `branched` column of
//! `perfbench/catalog.txt` still records the static bound and maxmin
//! order the catalog was screened under. The weight bits equal the
//! catalog's, or sit one ulp from them (`exact 20` seed 62 in the search
//! order: a different insertion order sums the same heights in a
//! different order) — a tighter bound or a better order may only prove
//! the same optimum sooner. Neither follows the catalog if it is
//! regenerated.

use mutree_bench::data;
use mutree_core::{solve_plan, EnvOverrides, SolvePlan, SolveRequest, ThreeThree};
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
/// `rule`, searched in `order`.
fn solve(m: &DistanceMatrix, rule: ThreeThree, order: Order) -> (u64, u64, u64) {
    let mut request = match order {
        Order::Default => SolveRequest::exact(m.clone()),
        Order::Maxmin => {
            let mut request = SolveRequest::exact(m.maxmin_permutation().apply(m));
            request.use_maxmin = false;
            request
        }
    };
    request.three_three = rule;
    let report =
        solve_plan(&SolvePlan::resolve(request, &EnvOverrides::none())).expect("exact solve");
    assert!(report.is_complete());
    (
        report.stats.branched,
        report.stats.pruned,
        report.weight.to_bits(),
    )
}

/// Checks every pin of `pins`, `(seed, branched, pruned, weight bits)`.
fn check(
    family: &str,
    matrix: impl Fn(u64) -> DistanceMatrix,
    rule: ThreeThree,
    order: Order,
    pins: &[(u64, u64, u64, u64)],
) {
    for &(seed, branched, pruned, bits) in pins {
        assert_eq!(
            solve(&matrix(seed), rule, order),
            (branched, pruned, bits),
            "{family} {seed} {rule:?} {order:?}: (branched, pruned, weight bits)"
        );
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
            (48, 120, 1593, 0x407e23b3ff858ef9),
            (62, 466, 6420, 0x40800e9bc424575b),
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
            (48, 120, 1593, 0x407e23b3ff858ef9),
            (62, 514, 7543, 0x40800e9bc424575c),
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
            (47, 22, 153, 0x406c37d7185f2ee0),
            (43, 64, 555, 0x406c76c04c18b908),
        ],
    );
}

/// The full 3-3 rule is retired: a request that asks for it is refused
/// by line, not solved under another rule.
#[test]
fn a_request_for_the_full_three_three_rule_is_refused() {
    let text = "mutree-request v1\nkind exact\nthree-three full\nmatrix phylip x.phy\n";
    let err = SolveRequest::decode(text).unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.to_string().contains("request line 3"), "{err}");
    assert!(err.message.contains("\"full\""), "{err}");
}
