//! Pins the exact search: node counts are the portable measure of a
//! branch-and-bound's work, so a change that claims to make the search
//! faster without changing it must reproduce, bit for bit, the branched
//! and pruned counts and the optimum weight pinned here. `pruned`
//! counts every child the bound rejects, built or skipped, so a
//! miscounted skip shows there even when `branched` holds.
//!
//! The node counts are this test's own: they are the look-ahead bound's,
//! and the `branched` column of `perfbench/catalog.txt` still records the
//! static bound the catalog was screened under. The weight bits still
//! equal the catalog's — a tighter bound may only prove the same optimum
//! sooner. Neither follows the catalog if it is regenerated.
//!
//! Every pin holds at every leaf-bitset width: widening the per-node
//! leaf masks may not change a single search decision.

use mutree_bench::data;
use mutree_core::{solve_plan, EnvOverrides, SolvePlan, SolveRequest, ThreeThree, LEAF_WIDTHS};
use mutree_distmat::DistanceMatrix;

/// `(branched, pruned, weight bits)` of an exact solve of `m` under
/// `rule` on `words`-word leaf bitsets.
fn solve(m: &DistanceMatrix, rule: ThreeThree, words: usize) -> (u64, u64, u64) {
    let mut request = SolveRequest::exact(m.clone()).leaf_words(words);
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
    pins: &[(u64, u64, u64, u64)],
) {
    for &(seed, branched, pruned, bits) in pins {
        let m = matrix(seed);
        for words in LEAF_WIDTHS {
            assert_eq!(
                solve(&m, rule, words),
                (branched, pruned, bits),
                "{family} {seed} {rule:?}, K = {words}: (branched, pruned, weight bits)"
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
        let (_, _, exact) = solve(&m, ThreeThree::Off, 1);
        let (branched, _, full) = solve(&m, ThreeThree::Full, 1);
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
