//! Runs every experiment in sequence (the full evaluation).
use mutree_bench::experiments::{ablations, cache, frontier, hpcasia, leafwords, pact};

fn main() {
    let tables = [
        pact::fig08(),
        pact::fig09(),
        pact::fig10(),
        pact::fig11(),
        pact::fig12(),
        pact::fig13(),
        hpcasia::pfig1(),
        hpcasia::pfig2(),
        hpcasia::pfig3(),
        hpcasia::pfig4(),
        hpcasia::pfig5(),
        hpcasia::pfig6(),
        hpcasia::pfig7(),
        hpcasia::pfig8(),
        ablations::abl_linkage(),
        ablations::abl_threshold(),
        ablations::abl_bound(),
        ablations::abl_33(),
        ablations::abl_strategy(),
        ablations::exp_superlinear(),
        ablations::exp_grid(),
        ablations::exp_baselines(),
        ablations::exp_taskgraph(),
        frontier::exp_frontier(),
        leafwords::exp_leafwords(),
        cache::exp_cache(),
    ];
    for t in tables {
        t.emit(None).expect("write results");
    }
}
