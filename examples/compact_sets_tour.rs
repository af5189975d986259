//! A guided tour of the paper's §3 machinery on its running example:
//! compact sets → laminar forest → condensed matrices → merged
//! ultrametric tree.
//!
//! ```text
//! cargo run --release --example compact_sets_tour
//! ```

use mutree::core::CompactPipeline;
use mutree::distmat::DistanceMatrix;
use mutree::graph::CompactSets;
use mutree::tree::newick;

fn main() {
    // A 6-species instance shaped like the paper's Figs. 3–5 example:
    // vertices {0,2}, {0,1,2}, {0,1,2,4} and {3,5} form nested compact
    // sets.
    let m = DistanceMatrix::from_rows(&[
        vec![0.0, 3.0, 1.0, 7.0, 4.5, 6.5],
        vec![3.0, 0.0, 3.5, 7.2, 4.2, 6.8],
        vec![1.0, 3.5, 0.0, 7.5, 4.0, 6.9],
        vec![7.0, 7.2, 7.5, 0.0, 6.0, 2.0],
        vec![4.5, 4.2, 4.0, 6.0, 0.0, 5.0],
        vec![6.5, 6.8, 6.9, 2.0, 5.0, 0.0],
    ])
    .expect("valid matrix");

    // Steps 1–2 (paper §3.1): `find` builds the minimum spanning tree of
    // the complete distance graph, merges along its edges in ascending
    // weight order and tests Max(A) < Min(A, !A) at each merge.
    let cs = CompactSets::find(&m);
    println!("compact sets (canonical order):");
    for s in cs.iter() {
        println!(
            "  {:?}  Max = {}, Min(out) = {}",
            s.members(),
            s.max_internal(),
            s.min_crossing()
        );
    }

    // The laminar structure: which set nests in which.
    let forest = cs.forest();
    println!("\nlaminar forest ({} roots):", forest.roots.len());
    for node in &forest.nodes {
        let members = cs.as_slice()[node.set].members();
        match node.parent {
            Some(p) => println!(
                "  {:?} inside {:?}",
                members,
                cs.as_slice()[forest.nodes[p].set].members()
            ),
            None => println!("  {members:?} (maximal)"),
        }
    }

    // Step 3: cut into groups and show the paper's three condensed-matrix
    // flavors through the pipeline's linkage knob.
    for threshold in [4usize, 3, 2] {
        println!(
            "\nthreshold {threshold}: groups {:?}",
            cs.partition(threshold)
        );
    }

    // Step 4: the full fast construction.
    let sol = CompactPipeline::new()
        .threshold(4)
        .solve(&m)
        .expect("pipeline");
    println!(
        "\nmerged ultrametric tree (weight {}):\n{}",
        sol.weight,
        newick::to_newick(&sol.tree)
    );
    assert!(sol.tree.is_feasible_for(&m, 1e-9));
}
