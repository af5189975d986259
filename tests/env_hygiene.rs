//! Grep-enforced configuration hygiene: `mutree_engine::plan` is the
//! *only* module allowed to read `MUTREE_*` environment variables. Every
//! other layer receives its knobs through a resolved
//! [`SolvePlan`](mutree::engine::SolvePlan), so the builder > env >
//! default precedence rules live (and are tested) in exactly one place.
//!
//! Tests that need to *mutate* the environment (save/restore around
//! `set_var`) use `std::env::var_os`, which this scan deliberately does
//! not match: writes and save/restore are fine, reads are not.
//!
//! A second scan keeps retired search paths retired: the forced-kernel
//! and forced-prune knobs, the types that selected between bound kernels
//! and prune strategies, and the global-mutex parallel driver must not
//! reappear in any Rust source or in the CI workflow.

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
    let needle = format!("::var(\"{}", "MUTREE_");
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
            std::fs::read_to_string(path)
                .unwrap_or_default()
                .contains(&needle)
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "MUTREE_* environment reads outside mutree_engine::plan: {offenders:?}\n\
         route the knob through SolveRequest / SolvePlan::resolve instead"
    );
}

/// Names of retired search paths and the knobs that forced them. Each is
/// split in two so this file's own source never matches.
const RETIRED: [[&str; 2]; 6] = [
    ["MUTREE_FORCE_", "BOUND_KERNEL"],
    ["MUTREE_FORCE_", "PRUNE"],
    ["Prune", "Strategy"],
    ["Bound", "Kernel"],
    ["Dist", "Source"],
    ["solve_parallel_", "global"],
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
