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
    feed_stdin(mutree().args(args), input)
}

fn feed_stdin(cmd: &mut Command, input: &str) -> (String, bool) {
    let mut child = cmd
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
    // Diagnostics name the search's counts.
    assert!(stdout.contains("branched: "), "{stdout}");
}

#[test]
fn former_environment_knobs_are_inert() {
    // The solve is configured by its flags alone: variables that once
    // forced the pipeline pool, the leaf width and the frontier shards
    // change nothing. Names are assembled at runtime so no source file
    // spells them.
    let (clean, ok) = run_with_stdin(&["solve", "-"], MATRIX);
    assert!(ok, "{clean}");
    let mut cmd = mutree();
    for (name, value) in [
        ("PIPELINE_THREADS", "4"),
        ("FORCE_LEAF_WORDS", "2"),
        ("FRONTIER_SHARDS", "8"),
    ] {
        cmd.env(format!("MUTREE_{name}"), value);
    }
    let (stdout, ok) = feed_stdin(cmd.args(["solve", "-"]), MATRIX);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("branched: "), "{stdout}");
    assert_eq!(stdout, clean);
}

#[test]
fn solve_initial_three_three_agrees_with_default() {
    let (base, ok) = run_with_stdin(&["solve", "-"], MATRIX);
    assert!(ok);
    let weight = base.lines().find(|l| l.starts_with("weight:")).unwrap();
    let (stdout, ok) = run_with_stdin(&["solve", "-", "--33", "initial"], MATRIX);
    assert!(ok, "{stdout}");
    assert!(stdout.contains(weight), "{stdout}");
}

#[test]
fn the_retired_full_three_three_rule_is_refused() {
    let (stdout, stderr, code) = run_full(&["solve", "-", "--33", "full"], MATRIX);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(
        stderr.contains("--33: unknown 3-3 mode \"full\""),
        "{stderr}"
    );
    assert!(!stdout.contains("weight:"), "{stdout}");
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

/// A deep caterpillar file compares instead of killing the process: the
/// parser walks on explicit stacks, and the comparison never lists a
/// clade's taxa, so neither the stack nor the memory grows with depth².
#[test]
fn rf_compares_deep_caterpillars() {
    const DEPTH: usize = 100_000;
    let caterpillar = |name: &dyn Fn(usize) -> String| {
        let mut text = "(".repeat(DEPTH);
        text.push_str(&format!("{}:1,{}:1)", name(0), name(1)));
        for i in 2..=DEPTH {
            text.push_str(&format!(":1,{}:{i})", name(i)));
        }
        text + ";"
    };
    let dir = std::env::temp_dir().join(format!("mutree-rf3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.nwk");
    let b = dir.join("b.nwk");
    std::fs::write(&a, caterpillar(&|i| format!("t{i}"))).unwrap();
    std::fs::write(&b, caterpillar(&|i| format!("t{}", DEPTH - i))).unwrap();
    let (stdout, stderr, ok) = run(&["rf", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    // Reversed, the two caterpillars share no clade but the root's.
    assert!(
        stdout.contains(&format!("robinson-foulds: {}", 2 * (DEPTH - 1))),
        "{stdout}"
    );
    let (stdout, _, ok) = run(&["rf", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("robinson-foulds: 0"), "{stdout}");
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
        .find(|l| l.starts_with("nodes shed:"))
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
fn injected_stage_panic_degrades_and_exits_5() {
    // threshold 2 leaves a 2-taxon condensed meta solve; a panic injected
    // there degrades the stage to its UPGMM stand-in.
    let (stdout, stderr, code) = run_full(
        &["fast", "-", "--threshold", "2", "--inject-panic-taxa", "2"],
        MATRIX,
    );
    assert_eq!(code, Some(5), "a degraded stage is incomplete\n{stderr}");
    assert!(
        stdout.contains(";"),
        "a feasible tree must still be printed"
    );
    assert!(stderr.contains("solver panicked"), "{stderr}");
    assert!(stdout.contains("nodes shed: 0\n"), "{stdout}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    for args in [
        ["fast", "-", concat!("--re", "tries"), "1"],
        ["solve", "-", "--thresold", "2"],
        ["fast", "-", "--bogus", "3"],
    ] {
        // Flags are checked before stdin is read: send nothing, so the
        // early exit cannot break the pipe mid-write.
        let (_, stderr, code) = run_full(&args, "");
        assert_eq!(code, Some(2), "{args:?}\n{stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {:?}", args[2])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn snapshot_flags_are_unknown() {
    // No flag names a snapshot file: each is unknown, refused before
    // any file is read or written.
    for args in [
        ["solve", "-", "--checkpoint", "solve.snap"],
        ["solve", "-", "--checkpoint-interval", "64"],
        ["solve", "-", "--resume", "solve.snap"],
    ] {
        let (_, stderr, code) = run_full(&args, "");
        assert_eq!(code, Some(2), "{args:?}\n{stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {:?}", args[2])),
            "{args:?}: {stderr}"
        );
    }
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
    let (stdout, ok) = run_with_stdin(&["solve", "-"], MATRIX);
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
    let (stdout, ok) = run_with_stdin(&["fast", "-", "--threshold", "2"], MATRIX);
    assert!(ok, "{stdout}");
    assert_eq!(cache_counts(&stdout), (0, 0, 0), "{stdout}");
}
