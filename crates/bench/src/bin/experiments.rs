//! Single dispatcher for every individual experiment:
//!
//! ```text
//! cargo run --release -p mutree-bench --bin experiments -- fig08
//! cargo run --release -p mutree-bench --bin experiments -- pfig3 abl_33
//! cargo run --release -p mutree-bench --bin experiments -- --list
//! ```
//!
//! Replaces the former one-binary-per-figure stubs; `all_experiments`
//! still runs the full evaluation in one go.

use std::process::ExitCode;

use mutree_bench::experiments::{ablations, cache, frontier, hpcasia, leafwords, pact, serve};
use mutree_bench::report::{results_dir, Table};

/// Builds the `NAMES` table and the dispatch function in one place, so a
/// new experiment added here is automatically listed and runnable.
macro_rules! experiments {
    ($($name:literal => $path:expr),+ $(,)?) => {
        const NAMES: &[&str] = &[$($name),+];

        fn run(name: &str) -> Option<Table> {
            match name {
                $($name => Some($path()),)+
                _ => None,
            }
        }
    };
}

experiments! {
    "fig08" => pact::fig08,
    "fig09" => pact::fig09,
    "fig10" => pact::fig10,
    "fig11" => pact::fig11,
    "fig12" => pact::fig12,
    "fig13" => pact::fig13,
    "pfig1" => hpcasia::pfig1,
    "pfig2" => hpcasia::pfig2,
    "pfig3" => hpcasia::pfig3,
    "pfig4" => hpcasia::pfig4,
    "pfig5" => hpcasia::pfig5,
    "pfig6" => hpcasia::pfig6,
    "pfig7" => hpcasia::pfig7,
    "pfig8" => hpcasia::pfig8,
    "abl_linkage" => ablations::abl_linkage,
    "abl_threshold" => ablations::abl_threshold,
    "abl_bound" => ablations::abl_bound,
    "abl_33" => ablations::abl_33,
    "abl_strategy" => ablations::abl_strategy,
    "exp_superlinear" => ablations::exp_superlinear,
    "exp_grid" => ablations::exp_grid,
    "exp_baselines" => ablations::exp_baselines,
    "exp_taskgraph" => ablations::exp_taskgraph,
    "exp_frontier" => frontier::exp_frontier,
    "exp_leafwords" => leafwords::exp_leafwords,
    "exp_cache" => cache::exp_cache,
    "exp_serve" => serve::exp_serve,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: experiments [--list] <name>...");
        eprintln!("names: {}", NAMES.join(" "));
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--list") {
        // Every experiment writes `results/<name>.csv` and `.json` via
        // `Table::emit`; list the destination next to each name so the
        // output of a run is discoverable without grepping the sources.
        let dir = results_dir();
        let width = NAMES.iter().map(|n| n.len()).max().unwrap_or(0);
        for name in NAMES {
            println!(
                "{name:<width$}  {dir}/{name}.csv  {dir}/{name}.json",
                dir = dir.display()
            );
        }
        return ExitCode::SUCCESS;
    }
    for name in &args {
        let Some(table) = run(name) else {
            eprintln!("unknown experiment {name:?}; try --list");
            return ExitCode::from(2);
        };
        table.emit(None).expect("write results");
    }
    ExitCode::SUCCESS
}
