//! Pins the exact search: node counts are the portable measure of a
//! branch-and-bound's work, so a change that claims to make the search
//! faster without changing it must reproduce, bit for bit, the node count
//! and optimum weight the benchmark catalog screened these instances at.
//! The values are copied from `perfbench/catalog.txt` on purpose — this
//! test must not follow the file if it is regenerated.

use mutree_bench::data;
use mutree_core::{solve_plan, EnvOverrides, SolvePlan, SolveRequest};
use mutree_distmat::DistanceMatrix;

fn solve(m: DistanceMatrix) -> (u64, u64) {
    let report = solve_plan(&SolvePlan::resolve(
        SolveRequest::exact(m),
        &EnvOverrides::none(),
    ))
    .expect("exact solve");
    assert!(report.is_complete());
    (report.stats.branched, report.weight.to_bits())
}

#[test]
fn exact_instances_reproduce_their_catalog_counts_and_weights() {
    for (seed, branched, bits) in [
        (48, 2530, 0x407e23b3ff858ef9),
        (62, 3026, 0x40800e9bc424575c),
    ] {
        let got = solve(data::random_species_matrix(20, seed));
        assert_eq!(
            got,
            (branched, bits),
            "exact 20 {seed}: (branched, weight bits)"
        );
    }
}

#[test]
fn clustered_instances_reproduce_their_catalog_counts_and_weights() {
    for (seed, branched, bits) in [(47, 94, 0x406c37d7185f2ee0), (43, 109, 0x406c76c04c18b908)] {
        let got = solve(data::clustered_matrix(4, 4, seed));
        assert_eq!(
            got,
            (branched, bits),
            "clustered 16 {seed}: (branched, weight bits)"
        );
    }
}
