//! End-to-end tests of the `mutree` command-line tool.

use std::io::Write;
use std::process::{Command, Stdio};

fn mutree() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mutree"))
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = mutree().args(args).output().expect("spawn mutree");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn run_with_stdin(args: &[&str], input: &str) -> (String, bool) {
    let mut child = mutree()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mutree");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

const MATRIX: &str = "\
4
alpha  0 2 8 8
beta   2 0 8 8
gamma  8 8 0 4
delta  8 8 4 0
";

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("compact-set"));
}

#[test]
fn missing_subcommand_fails_with_usage() {
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("missing subcommand"));
}

#[test]
fn solve_reads_stdin_and_prints_newick() {
    let (stdout, ok) = run_with_stdin(&["solve", "-"], MATRIX);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("weight: 11"));
    assert!(stdout.contains("alpha"));
    assert!(stdout.contains(";"));
    // Diagnostics name the leaf width in play (its value depends on the
    // ambient MUTREE_FORCE_LEAF_WORDS hook CI pins, so assert the line,
    // not the dispatch) and the propagation stage's prune count.
    assert!(stdout.contains("leaf words: "), "{stdout}");
    assert!(stdout.contains("propagation pruned: "), "{stdout}");
}

#[test]
fn solve_full_three_three_agrees_with_default() {
    let (base, ok) = run_with_stdin(&["solve", "-"], MATRIX);
    assert!(ok);
    let weight = base.lines().find(|l| l.starts_with("weight:")).unwrap();
    let (stdout, ok) = run_with_stdin(&["solve", "-", "--33", "full"], MATRIX);
    assert!(ok, "{stdout}");
    assert!(stdout.contains(weight), "{stdout}");
    assert!(stdout.contains("propagation pruned: "), "{stdout}");
}

#[test]
fn solve_all_enumerates_cooptima() {
    let (stdout, ok) = run_with_stdin(&["solve", "-", "--all"], MATRIX);
    assert!(ok);
    // This matrix has a unique optimum; the flag still works.
    assert_eq!(stdout.matches(';').count(), 1);
}

#[test]
fn solve_with_simulated_backend_reports_makespan() {
    let (stdout, ok) = run_with_stdin(&["solve", "-", "--backend", "sim:4"], MATRIX);
    assert!(ok);
    assert!(stdout.contains("virtual makespan"));
}

#[test]
fn solve_rejects_bad_backend() {
    let (_, stderr, ok) = run(&["solve", "/nonexistent", "--backend", "gpu"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
}

#[test]
fn fast_prints_groups() {
    let (stdout, ok) = run_with_stdin(&["fast", "-", "--threshold", "2"], MATRIX);
    assert!(ok);
    assert!(stdout.contains("groups:"));
    assert!(stdout.contains("weight:"));
}

#[test]
fn sets_lists_compact_sets() {
    let (stdout, ok) = run_with_stdin(&["sets", "-"], MATRIX);
    assert!(ok);
    assert!(stdout.contains("alpha, beta"));
    assert!(stdout.contains("Max="));
}

#[test]
fn heur_reports_feasibility() {
    let (stdout, ok) = run_with_stdin(&["heur", "-", "--linkage", "max"], MATRIX);
    assert!(ok);
    assert!(stdout.contains("feasible: true"));
}

#[test]
fn gen_produces_parsable_phylip() {
    let (stdout, _, ok) = run(&["gen", "hmdna", "6", "--seed", "9"]);
    assert!(ok);
    let m = mutree_distmat::io::parse_phylip(&stdout).expect("generated matrix parses");
    assert_eq!(m.len(), 6);
    // Determinism: same seed, same matrix.
    let (again, _, _) = run(&["gen", "hmdna", "6", "--seed", "9"]);
    assert_eq!(stdout, again);
}

#[test]
fn gen_random_family_works_too() {
    let (stdout, _, ok) = run(&["gen", "random", "5"]);
    assert!(ok);
    let m = mutree_distmat::io::parse_phylip(&stdout).unwrap();
    // PHYLIP output carries 6 decimals, so a triangle the metric closure
    // left exactly tight can be off by ~1e-6 after rounding.
    assert!(m.is_metric(1e-5));
}

#[test]
fn nj_prints_unrooted_tree() {
    let (stdout, ok) = run_with_stdin(&["nj", "-"], MATRIX);
    assert!(ok);
    assert!(stdout.contains("total length:"));
    assert!(stdout.contains("mean distortion: 0.000000")); // ultrametric input
    assert!(stdout.contains("alpha"));
}

#[test]
fn rf_compares_two_trees() {
    let dir = std::env::temp_dir().join(format!("mutree-rf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.nwk");
    let b = dir.join("b.nwk");
    std::fs::write(&a, "((x:1,y:1):3,(z:2,w:2):2);").unwrap();
    std::fs::write(&b, "((x:1,z:1):3,(y:2,w:2):2);").unwrap();
    let (stdout, _, ok) = run(&["rf", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("robinson-foulds: 4"));
    assert!(stdout.contains("normalized: 1.0000"));
    let (stdout, _, ok) = run(&["rf", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("robinson-foulds: 0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rf_rejects_mismatched_leaves() {
    let dir = std::env::temp_dir().join(format!("mutree-rf2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.nwk");
    let b = dir.join("b.nwk");
    std::fs::write(&a, "(x:1,y:1);").unwrap();
    std::fs::write(&b, "(x:1,q:1);").unwrap();
    let (_, stderr, ok) = run(&["rf", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("same leaf names"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_subcommand_fails() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
}

/// Like [`run_with_stdin`] but returns the raw exit code and stderr too.
fn run_full(args: &[&str], input: &str) -> (String, String, Option<i32>) {
    let mut child = mutree()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mutree");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn bad_matrix_reports_parse_error() {
    let (_, stderr, code) = run_full(&["solve", "-"], "not a matrix");
    assert_eq!(code, Some(3), "input errors exit 3");
    assert!(stderr.contains("parsing"));
    // Data errors get a one-line diagnostic, not the whole usage screed.
    assert!(!stderr.contains("USAGE"));
}

#[test]
fn usage_errors_exit_2_with_usage_text() {
    let (_, stderr, code) = run_full(&["solve", "-", "--backend", "bogus"], MATRIX);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown backend"));
    assert!(stderr.contains("USAGE"));

    let out = mutree().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "missing subcommand exits 2");
}

#[test]
fn timeout_zero_still_prints_a_feasible_tree_and_exits_5() {
    let (stdout, stderr, code) = run_full(&["solve", "-", "--timeout", "0"], MATRIX);
    assert_eq!(code, Some(5), "interrupted-but-usable exits 5\n{stderr}");
    assert!(stdout.contains("weight:"), "{stdout}");
    assert!(stdout.contains(";"), "a tree must still be printed");
    assert!(stderr.contains("deadline expired"), "{stderr}");
}

#[test]
fn fast_with_zero_timeout_degrades_and_exits_5() {
    let (stdout, stderr, code) = run_full(&["fast", "-", "--timeout", "0"], MATRIX);
    assert_eq!(code, Some(5), "{stderr}");
    assert!(stdout.contains("weight:"), "{stdout}");
    assert!(stdout.contains(";"));
    assert!(stderr.contains("degraded"), "{stderr}");
}

#[test]
fn bad_timeout_is_a_usage_error() {
    let (_, stderr, code) = run_full(&["solve", "-", "--timeout", "never"], MATRIX);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("bad timeout"));
}

#[test]
fn trailing_timeout_without_value_is_a_usage_error() {
    let (_, stderr, code) = run_full(&["solve", "-", "--timeout"], MATRIX);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("requires a value"), "{stderr}");
}

#[test]
fn generous_timeout_still_completes_with_exit_0() {
    let (stdout, _, code) = run_full(&["solve", "-", "--timeout", "60"], MATRIX);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("weight: 11"));
}

#[test]
fn solve_with_threads_uses_shared_pool_and_agrees() {
    let (stdout, stderr, code) = run_full(&["solve", "-", "--threads", "2"], MATRIX);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("weight: 11"), "{stdout}");
}

#[test]
fn fast_with_threads_reports_slowest_stages() {
    let (stdout, stderr, code) = run_full(&["fast", "-", "--threads", "2"], MATRIX);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("weight:"), "{stdout}");
    assert!(stderr.contains("slowest stages:"), "{stderr}");
}

#[test]
fn fast_degradation_diagnostics_include_stage_paths() {
    let (_, stderr, code) = run_full(&["fast", "-", "--timeout", "0"], MATRIX);
    assert_eq!(code, Some(5), "{stderr}");
    assert!(stderr.contains("degraded stage"), "{stderr}");
}

#[test]
fn trace_search_logs_structured_events() {
    let (stdout, stderr, code) = run_full(&["solve", "-", "--trace-search", "all"], MATRIX);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("weight: 11"));
    assert!(stderr.contains("trace: event="), "{stderr}");
}

#[test]
fn bad_trace_level_is_a_usage_error() {
    let (_, stderr, code) = run_full(&["solve", "-", "--trace-search", "verbose"], MATRIX);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown trace level"), "{stderr}");
}

#[test]
fn zero_threads_is_a_usage_error() {
    let (_, stderr, code) = run_full(&["fast", "-", "--threads", "0"], MATRIX);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("at least one thread"), "{stderr}");
}

/// A deterministic 10-taxon matrix noisy enough that the exact search
/// keeps a nontrivial open frontier (the 4-taxon MATRIX above can be
/// solved without ever holding two open nodes).
fn gen_matrix() -> String {
    let (stdout, _, ok) = run(&["gen", "random", "10", "--seed", "3"]);
    assert!(ok, "gen must succeed");
    stdout
}

#[test]
fn memory_budget_sheds_nodes_and_exits_5() {
    let m = gen_matrix();
    let (stdout, stderr, code) = run_full(&["solve", "-", "--max-open-nodes", "1"], &m);
    assert_eq!(code, Some(5), "shedding is an incomplete search\n{stderr}");
    assert!(stdout.contains("weight:"), "{stdout}");
    assert!(
        stdout.contains(";"),
        "a feasible tree must still be printed"
    );
    assert!(stderr.contains("memory budget exhausted"), "{stderr}");
    let shed: u64 = stdout
        .lines()
        .find(|l| l.starts_with("retries:"))
        .and_then(|l| l.split("nodes shed:").nth(1))
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("stats line carries nodes shed");
    assert!(shed > 0, "watchdog must report shed nodes:\n{stdout}");
}

#[test]
fn zero_max_open_nodes_is_a_usage_error() {
    let (_, stderr, code) = run_full(&["solve", "-", "--max-open-nodes", "0"], MATRIX);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--max-open-nodes"), "{stderr}");
}

#[test]
fn checkpoint_and_resume_round_trip_preserves_the_weight() {
    let dir = std::env::temp_dir().join(format!("mutree-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("solve.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let m = gen_matrix();

    let (first, stderr, code) = run_full(&["solve", "-", "--checkpoint", ckpt], &m);
    assert_eq!(code, Some(0), "{stderr}");
    let weight_line = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("weight:"))
            .map(str::to_owned)
            .expect("weight line")
    };
    let ckpts: u64 = first
        .lines()
        .find(|l| l.starts_with("retries:"))
        .and_then(|l| l.split("checkpoints:").nth(1))
        .and_then(|s| s.trim().parse().ok())
        .expect("stats line carries checkpoints");
    assert!(
        ckpts >= 1,
        "at least the final snapshot is written:\n{first}"
    );

    let (resumed, stderr, code) = run_full(&["solve", "-", "--resume", ckpt], &m);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        weight_line(&first),
        weight_line(&resumed),
        "resume must reach the identical optimum"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_resume_file_is_an_input_error() {
    let dir = std::env::temp_dir().join(format!("mutree-ckpt-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("garbage.ckpt");
    std::fs::write(&ckpt, b"not a checkpoint at all").unwrap();
    let (_, stderr, code) = run_full(&["solve", "-", "--resume", ckpt.to_str().unwrap()], MATRIX);
    assert_eq!(
        code,
        Some(3),
        "corrupt snapshots are input errors\n{stderr}"
    );
    assert!(stderr.contains("checkpoint"), "{stderr}");
    assert!(!stderr.contains("USAGE"), "data errors stay one-line");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_interval_without_checkpoint_is_a_usage_error() {
    let (_, stderr, code) = run_full(&["solve", "-", "--checkpoint-interval", "64"], MATRIX);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--checkpoint"), "{stderr}");
}

#[test]
fn retry_exhausted_stage_degrades_and_exits_5() {
    // threshold 2 leaves a 2-taxon condensed meta solve; injecting a panic
    // there with one retry exhausts the policy and degrades the stage.
    let (stdout, stderr, code) = run_full(
        &[
            "fast",
            "-",
            "--threshold",
            "2",
            "--inject-panic-taxa",
            "2",
            "--retries",
            "1",
        ],
        MATRIX,
    );
    assert_eq!(code, Some(5), "retry-exhausted is incomplete\n{stderr}");
    assert!(
        stdout.contains(";"),
        "a feasible tree must still be printed"
    );
    assert!(stderr.contains("solver panicked"), "{stderr}");
    assert!(
        stdout.contains("retries: 1"),
        "the spent retry must be reported:\n{stdout}"
    );
}

#[test]
fn retried_fast_run_stays_exit_0_when_the_fault_is_absent() {
    let (stdout, stderr, code) = run_full(&["fast", "-", "--retries", "2"], MATRIX);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("retries: 0"), "{stdout}");
}

/// Parses the `cache: hits H  misses M  warm-seeds W` stats line.
fn cache_counts(stdout: &str) -> (u64, u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("cache:"))
        .unwrap_or_else(|| panic!("no cache line in:\n{stdout}"));
    let nums: Vec<u64> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    assert_eq!(nums.len(), 3, "malformed cache line: {line}");
    (nums[0], nums[1], nums[2])
}

/// Like [`run_with_stdin`] with the ambient cache switch scrubbed, so
/// the assertion on "no cache" holds even under the CI leg that exports
/// MUTREE_CACHE=1 for the whole suite.
fn run_without_ambient_cache(args: &[&str], input: &str) -> (String, bool) {
    let mut child = mutree()
        .args(args)
        .env_remove("MUTREE_CACHE")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mutree");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

#[test]
fn solve_cache_flag_reports_the_lookup() {
    // A fresh process starts with an empty cache: the solve files its
    // result as one miss, and the answer is still the proven optimum.
    let (stdout, ok) = run_with_stdin(&["solve", "-", "--cache"], MATRIX);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("weight: 11"), "{stdout}");
    assert_eq!(cache_counts(&stdout), (0, 1, 0), "{stdout}");
}

#[test]
fn solve_without_cache_reports_zero_lookups() {
    let (stdout, ok) = run_without_ambient_cache(&["solve", "-"], MATRIX);
    assert!(ok, "{stdout}");
    assert_eq!(cache_counts(&stdout), (0, 0, 0), "{stdout}");
}

#[test]
fn fast_cache_flag_reports_group_lookups() {
    let (stdout, ok) = run_with_stdin(&["fast", "-", "--threshold", "2", "--cache"], MATRIX);
    assert!(ok, "{stdout}");
    let (hits, misses, _) = cache_counts(&stdout);
    assert!(
        hits + misses > 0,
        "cacheable group solves must be counted:\n{stdout}"
    );
}

#[test]
fn fast_without_cache_reports_zero_lookups() {
    let (stdout, ok) = run_without_ambient_cache(&["fast", "-", "--threshold", "2"], MATRIX);
    assert!(ok, "{stdout}");
    assert_eq!(cache_counts(&stdout), (0, 0, 0), "{stdout}");
}
