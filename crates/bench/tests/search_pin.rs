//! Pins the exact search: node counts are the portable measure of a
//! branch-and-bound's work, so a change that claims to make the search
//! faster without changing it must reproduce, bit for bit, the node count
//! and optimum weight pinned here.
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
use mutree_core::{solve_plan, EnvOverrides, SolvePlan, SolveRequest, LEAF_WIDTHS};
use mutree_distmat::DistanceMatrix;

/// `(branched, weight bits)` of an exact solve of `m` on `words`-word
/// leaf bitsets.
fn solve(m: &DistanceMatrix, words: usize) -> (u64, u64) {
    let report = solve_plan(&SolvePlan::resolve(
        SolveRequest::exact(m.clone()).leaf_words(words),
        &EnvOverrides::none(),
    ))
    .expect("exact solve");
    assert!(report.is_complete());
    assert_eq!(report.leaf_words, Some(words));
    (report.stats.branched, report.weight.to_bits())
}

#[test]
fn exact_instances_reproduce_their_pinned_counts_and_weights() {
    for (seed, branched, bits) in [(48, 459, 0x407e23b3ff858ef9), (62, 782, 0x40800e9bc424575c)] {
        let m = data::random_species_matrix(20, seed);
        for words in LEAF_WIDTHS {
            assert_eq!(
                solve(&m, words),
                (branched, bits),
                "exact 20 {seed}, K = {words}: (branched, weight bits)"
            );
        }
    }
}

#[test]
fn clustered_instances_reproduce_their_pinned_counts_and_weights() {
    for (seed, branched, bits) in [(47, 64, 0x406c37d7185f2ee0), (43, 49, 0x406c76c04c18b908)] {
        let m = data::clustered_matrix(4, 4, seed);
        for words in LEAF_WIDTHS {
            assert_eq!(
                solve(&m, words),
                (branched, bits),
                "clustered 16 {seed}, K = {words}: (branched, weight bits)"
            );
        }
    }
}
