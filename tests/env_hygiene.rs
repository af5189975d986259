//! Grep-enforced configuration hygiene: `mutree_engine::plan` is the
//! *only* module allowed to touch `MUTREE_*` environment variables, and
//! it reads only the two `mutree serve` deployment knobs. A solve is
//! configured by its [`SolveRequest`](mutree::engine::SolveRequest)
//! alone. No other file reads (`var`, `var_os`), sets (`set_var`) or
//! removes (`remove_var`) a `MUTREE_*` variable, tests included.
//!
//! A second scan keeps retired search paths retired: the forced-kernel
//! and forced-prune knobs, the ambient cache switch, the three former
//! per-solve environment knobs (pipeline threads, forced leaf width,
//! frontier shards), the types that selected between bound kernels and
//! prune strategies, the global-mutex parallel driver, best-first node
//! selection with the ablation that priced it, the forced frontier
//! shard count (the builder and the request keyword), the task-DAG
//! runner the fork-join pipeline replaced, the stage re-run policy
//! with its CLI flag, its jitter helper and its recovering test fault,
//! the per-node leaf bitsets with the width knob, the request and report
//! lines and the experiment that picked among their widths, and the
//! graph library (Kruskal's MST and its disjoint-set forest) that no
//! solve called must not reappear in any Rust source or in the CI
//! workflow.

use std::path::{Path, PathBuf};

/// Recursively collects every `.rs` file in the workspace, skipping
/// build output and VCS metadata.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read workspace dir") {
        let entry = entry.expect("dir entry");
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            rust_sources(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_plan_resolution_reads_mutree_env_vars() {
    // Assembled at runtime so this file's own source never matches.
    let needles: Vec<String> = ["var", "var_os", "set_var", "remove_var"]
        .iter()
        .map(|call| format!("{call}(\"{}", "MUTREE_"))
        .collect();
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root, &mut sources);
    assert!(
        sources.len() > 40,
        "workspace scan found only {} .rs files — wrong root?",
        sources.len()
    );
    let offenders: Vec<&PathBuf> = sources
        .iter()
        .filter(|path| !path.ends_with("crates/engine/src/plan.rs"))
        .filter(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            needles.iter().any(|needle| text.contains(needle.as_str()))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "MUTREE_* environment access outside mutree_engine::plan: {offenders:?}\n\
         configure the solve through its SolveRequest instead"
    );
}

/// Names of retired search paths and the knobs that forced them. Each is
/// split in two so this file's own source never matches.
const RETIRED: [[&str; 2]; 46] = [
    ["MUTREE_FORCE_", "BOUND_KERNEL"],
    ["MUTREE_FORCE_", "PRUNE"],
    ["MUTREE_", "CACHE"],
    ["MUTREE_PIPELINE_", "THREADS"],
    ["MUTREE_FORCE_", "LEAF_WORDS"],
    ["MUTREE_FRONTIER_", "SHARDS"],
    ["Prune", "Strategy"],
    ["Bound", "Kernel"],
    ["Dist", "Source"],
    ["solve_parallel_", "global"],
    ["solve_parallel_", "pooled"],
    ["solve_parallel_", "observed"],
    ["Best", "First"],
    ["frontier_", "shards"],
    ["frontier-", "shards"],
    ["abl_", "strategy"],
    ["Task", "Dag"],
    ["run_", "inline"],
    ["Retry", "Policy"],
    ["--re", "tries"],
    ["unit_", "fraction"],
    ["panic_on_taxa_", "times"],
    ["ThreeThree::", "Full"],
    ["Triple", "Domains"],
    ["Arm", "Index"],
    ["prop_", "advance"],
    ["prune_", "differential"],
    ["Leaf", "Words"],
    ["leaf_", "words"],
    ["leaf-", "words"],
    ["LEAF_", "WIDTHS"],
    ["exp_", "leafwords"],
    ["krus", "kal"],
    ["Union", "Find"],
    ["MUT", "CKPT"],
    ["Checkpoint", "Policy"],
    ["Checkpoint", "File"],
    ["Checkpoint", "Error"],
    ["checkpoint", "_to"],
    ["resume", "_from"],
    ["encode", "_solution"],
    ["Check", "pointed"],
    ["cache_sig", "()"],
    ["plan_", "pipeline"],
    ["solve_", "request"],
    ["Align", "Params"],
];

#[test]
fn retired_search_paths_stay_retired() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root, &mut files);
    files.push(root.join(".github/workflows/ci.yml"));
    let needles: Vec<String> = RETIRED.iter().map(|parts| parts.concat()).collect();
    let mut offenders = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for needle in &needles {
            if text.contains(needle.as_str()) {
                offenders.push(format!("{}: {needle}", path.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "retired search paths reappeared: {offenders:?}"
    );
}
