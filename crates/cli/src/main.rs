//! `mutree` — construct minimum ultrametric evolutionary trees from
//! distance matrices (the project report's "user-friendly tool system").
//!
//! ```text
//! mutree solve  <matrix.phy> [--backend seq|par:N|sim:N] [--all] [--33 off|initial]
//! mutree fast   <matrix.phy> [--threshold K] [--linkage max|min|avg]
//! mutree sets   <matrix.phy>
//! mutree heur   <matrix.phy> [--linkage max|avg|min]
//! mutree nj     <matrix.phy>
//! mutree rf     <a.nwk> <b.nwk>
//! mutree gen    random|hmdna <n> [--seed S]
//! mutree serve  <addr> [--queue-depth N] [--serve-workers N] [--no-cache]
//! mutree serve  --send <addr> <matrix.phy> [--decompose] [--timeout SECS]
//! mutree serve  --drain <addr>
//! ```
//!
//! Matrices are PHYLIP square format; `-` reads standard input. Trees are
//! printed as Newick with branch lengths.
//!
//! # Exit codes
//!
//! | code | meaning                                                        |
//! |------|----------------------------------------------------------------|
//! | 0    | success (search ran to proven optimality where applicable)     |
//! | 2    | usage error (unknown subcommand or flag, or a bad argument)    |
//! | 3    | input error (unreadable file, malformed matrix or tree)        |
//! | 4    | solver error (no feasible output could be produced)            |
//! | 5    | incomplete but usable: a `--timeout` (or branch budget)        |
//! |      | stopped the search early, `--max-open-nodes` shed frontier     |
//! |      | nodes, or a pipeline stage degraded; a feasible tree was still |
//! |      | printed                                                        |

use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;

use mutree_core::{
    solve_plan, solve_plan_hooked, BackendSpec, EnvOverrides, MemoryBudget, MutError, SearchMode,
    SolveHooks, SolvePlan, SolveReport, SolveRequest, ThreeThree, TraceLevel, MAX_EXACT_TAXA,
};
use mutree_distmat::{io as mio, DistanceMatrix};
use mutree_graph::CompactSets;
use mutree_tree::{cluster, newick, Linkage};

/// A classified CLI failure; the variant decides the exit code.
enum CliError {
    /// Bad invocation: unknown subcommand, flag or malformed argument (2).
    Usage(String),
    /// Unreadable or malformed input data (3).
    Input(String),
    /// The solver could not produce any feasible output (4).
    Solver(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Input(_) => ExitCode::from(3),
            CliError::Solver(_) => ExitCode::from(4),
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Input(m) | CliError::Solver(m) => m,
        }
    }
}

/// Exit code for a search that was interrupted (deadline, budget, …) but
/// still produced a feasible tree.
const EXIT_INCOMPLETE: u8 = 5;

fn usage<S: Into<String>>(msg: S) -> CliError {
    CliError::Usage(msg.into())
}

const USAGE: &str = "\
mutree — minimum ultrametric evolutionary trees (PaCT 2005 reproduction)

USAGE:
  mutree solve <matrix.phy> [--backend seq|par:N|sim:N] [--all] [--33 off|initial]
               [--timeout SECS] [--threads N] [--trace-search incumbents|all]
               [--max-open-nodes N] [--cache]
        Exact minimum ultrametric tree via branch-and-bound.
  mutree fast <matrix.phy> [--threshold K] [--linkage max|min|avg] [--timeout SECS]
               [--threads N] [--trace-search incumbents|all] [--max-open-nodes N]
               [--cache]
        Near-optimal tree via compact-set decomposition (the fast technique).
  mutree sets <matrix.phy>
        List the compact sets of the distance graph.
  mutree heur <matrix.phy> [--linkage max|avg|min]
        Heuristic tree (UPGMM / UPGMA / single linkage).
  mutree nj <matrix.phy>
        Neighbor-joining tree (unrooted, clock-free baseline).
  mutree rf <a.nwk> <b.nwk>
        Robinson-Foulds distance between two ultrametric Newick trees.
  mutree gen random|hmdna <n> [--seed S]
        Print a synthetic PHYLIP matrix of either workload family.
  mutree serve <addr> [--queue-depth N] [--serve-workers N] [--threads N] [--no-cache]
        Run the solve daemon on <addr> (port 0 picks an ephemeral port;
        the actual address is printed as 'listening on HOST:PORT').
  mutree serve --send <addr> <matrix.phy> [--decompose] [--timeout SECS] [--no-cache]
        Send one solve request to a running daemon and print its report.
  mutree serve --drain <addr>
        Gracefully drain a running daemon: admission stops, queued and
        in-flight requests finish, and its lifetime counters are printed.

  <matrix.phy> is PHYLIP square format; use '-' for standard input.

  --timeout stops the search at a wall-clock deadline; the best tree found
  so far is still printed and the exit code becomes 5.

  --threads N runs on one shared N-thread worker pool: 'fast' fans its
  group and condensed solves out on it, and parallel branch-and-bound
  borrows the same workers ('solve' defaults to the par:N backend when
  --backend is not given).

  --trace-search logs structured search events to stderr: 'incumbents'
  prints incumbent updates and stops, 'all' adds every expansion/prune.

  --max-open-nodes caps the live search frontier: past the cap the search
  sheds its worst-bound open nodes, keeps the best tree found and exits 5.

  --cache enables the content-addressed group-solve cache: a solve whose
  canonical matrix bytes match a stored solve is answered from the cache
  bit for bit, and a near-miss (same quantization bucket) warm-starts
  the search from the stored tree.

  serve runs requests on one shared worker pool behind a bounded
  earliest-deadline-first queue (--queue-depth, default 64, or
  MUTREE_SERVE_QUEUE_DEPTH; --serve-workers, default 2, or
  MUTREE_SERVE_WORKERS; flags win over the environment) with the
  group-solve cache shared across every connection unless --no-cache.
  There is no SIGTERM hook; drain with 'mutree serve --drain'.

EXIT CODES:
  0  success            2  usage error       3  bad input
  4  solver failed      5  incomplete (early stop, shed nodes, or a
                           degraded stage), but a feasible tree was printed
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            // One line on stderr, machine-scrapeable; the full usage text
            // only for invocation mistakes, not data or solver failures.
            eprintln!("mutree: error: {}", e.message());
            if matches!(e, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            e.exit_code()
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(cmd) = args.first() else {
        return Err(usage("missing subcommand"));
    };
    match cmd.as_str() {
        "solve" => solve(&args[1..]),
        "fast" => fast(&args[1..]),
        "sets" => sets(&args[1..]),
        "heur" => heur(&args[1..]),
        "nj" => nj(&args[1..]),
        "rf" => rf(&args[1..]),
        "gen" => gen(&args[1..]),
        "serve" => serve(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(usage(format!("unknown subcommand {other:?}"))),
    }
}

fn read_matrix(path: &str) -> Result<DistanceMatrix, CliError> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| CliError::Input(format!("reading stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Input(format!("reading {path}: {e}")))?
    };
    mio::parse_phylip(&text).map_err(|e| CliError::Input(format!("parsing {path}: {e}")))
}

/// Parses an optional `--timeout <seconds>` flag into a wall-clock budget.
fn parse_timeout(args: &[String]) -> Result<Option<Duration>, CliError> {
    let Some(spec) = flag_value(args, "--timeout") else {
        // A trailing `--timeout` with nothing after it must not be
        // silently ignored — the user asked for a deadline.
        if args.iter().any(|a| a == "--timeout") {
            return Err(usage("--timeout requires a value in seconds"));
        }
        return Ok(None);
    };
    let secs: f64 = spec
        .parse()
        .map_err(|_| usage(format!("bad timeout {spec:?} (seconds)")))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(usage(format!(
            "timeout must be a non-negative number of seconds, got {spec:?}"
        )));
    }
    Ok(Some(Duration::from_secs_f64(secs)))
}

/// Parses an optional `--threads <N>` flag into a shared worker budget.
fn parse_threads(args: &[String]) -> Result<Option<usize>, CliError> {
    let Some(spec) = flag_value(args, "--threads") else {
        if args.iter().any(|a| a == "--threads") {
            return Err(usage("--threads requires a worker count"));
        }
        return Ok(None);
    };
    let n: usize = spec
        .parse()
        .map_err(|_| usage(format!("bad thread count {spec:?}")))?;
    if n == 0 {
        return Err(usage("need at least one thread"));
    }
    Ok(Some(n))
}

/// Parses an optional `--trace-search <level>` flag.
fn parse_trace(args: &[String]) -> Result<Option<TraceLevel>, CliError> {
    let Some(spec) = flag_value(args, "--trace-search") else {
        if args.iter().any(|a| a == "--trace-search") {
            return Err(usage("--trace-search requires a level (incumbents | all)"));
        }
        return Ok(None);
    };
    TraceLevel::parse(spec)
        .map(Some)
        .ok_or_else(|| usage(format!("unknown trace level {spec:?} (incumbents | all)")))
}

/// Parses an optional numeric flag (`--flag <N>`), rejecting a trailing
/// flag with no value and non-numeric values.
fn parse_count(args: &[String], flag: &str) -> Result<Option<u64>, CliError> {
    let Some(spec) = flag_value(args, flag) else {
        if args.iter().any(|a| a == flag) {
            return Err(usage(format!("{flag} requires a value")));
        }
        return Ok(None);
    };
    spec.parse::<u64>()
        .map(Some)
        .map_err(|_| usage(format!("bad {flag} value {spec:?}")))
}

/// Parses the watchdog cap: `--max-open-nodes <N>` (N ≥ 1).
fn parse_memory_budget(args: &[String]) -> Result<Option<MemoryBudget>, CliError> {
    match parse_count(args, "--max-open-nodes")? {
        None => Ok(None),
        Some(0) => Err(usage("--max-open-nodes must be at least 1")),
        Some(n) => Ok(Some(MemoryBudget::new(n))),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The flags a subcommand reads, each with whether it takes a value.
type Flags = &'static [(&'static str, bool)];

const SOLVE_FLAGS: Flags = &[
    ("--backend", true),
    ("--all", false),
    ("--33", true),
    ("--timeout", true),
    ("--threads", true),
    ("--trace-search", true),
    ("--max-open-nodes", true),
    ("--cache", false),
];
const FAST_FLAGS: Flags = &[
    ("--threshold", true),
    ("--linkage", true),
    ("--timeout", true),
    ("--threads", true),
    ("--trace-search", true),
    ("--max-open-nodes", true),
    ("--cache", false),
    ("--inject-panic-taxa", true),
];
const HEUR_FLAGS: Flags = &[("--linkage", true)];
const GEN_FLAGS: Flags = &[("--seed", true)];
const SERVE_FLAGS: Flags = &[
    ("--queue-depth", true),
    ("--serve-workers", true),
    ("--threads", true),
    ("--no-cache", false),
];
const SEND_FLAGS: Flags = &[
    ("--send", true),
    ("--decompose", false),
    ("--timeout", true),
    ("--no-cache", false),
];
const DRAIN_FLAGS: Flags = &[("--drain", true)];

/// Rejects any `--flag` the subcommand does not read: a mistyped or
/// retired flag must not be silently ignored. A flag that takes a value
/// consumes the argument after it, as [`flag_value`] does.
fn check_flags(args: &[String], known: Flags) -> Result<(), CliError> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match known.iter().find(|(flag, _)| flag == arg) {
            Some((_, true)) => {
                rest.next();
            }
            Some((_, false)) => {}
            None => return Err(usage(format!("unknown flag {arg:?}"))),
        }
    }
    Ok(())
}

fn solve(args: &[String]) -> Result<ExitCode, CliError> {
    check_flags(args, SOLVE_FLAGS)?;
    let path = args
        .first()
        .ok_or_else(|| usage("solve needs a matrix file"))?;
    let m = read_matrix(path)?;
    let mut req = SolveRequest::exact(m.clone());
    if let Some(backend) = flag_value(args, "--backend") {
        req = req.backend(parse_backend(backend)?);
    }
    if let Some(threads) = parse_threads(args)? {
        // One shared pool; without an explicit backend, --threads implies
        // the thread-parallel search borrowing from that pool.
        if flag_value(args, "--backend").is_none() {
            req = req.backend(BackendSpec::Parallel { workers: threads });
        }
        req = req.threads(threads);
    }
    req.trace = parse_trace(args)?;
    if args.iter().any(|a| a == "--all") {
        req = req.mode(SearchMode::AllOptimal);
    }
    if let Some(rule) = flag_value(args, "--33") {
        req.three_three = match rule {
            "off" => ThreeThree::Off,
            "initial" => ThreeThree::InitialOnly,
            other => return Err(usage(format!("--33: unknown 3-3 mode {other:?}"))),
        };
    }
    req.timeout = parse_timeout(args)?;
    req.memory = parse_memory_budget(args)?;
    if args.iter().any(|a| a == "--cache") {
        req = req.cache(true);
    }
    // Refuse matrices beyond the engine's taxa ceiling up front, with a
    // pointer to the pipeline.
    if m.len() > MAX_EXACT_TAXA {
        return Err(CliError::Solver(format!(
            "matrix has {} taxa; engine limit is {MAX_EXACT_TAXA} (use the pipeline: mutree fast)",
            m.len()
        )));
    }
    // The request is the whole configuration; execute it through the
    // engine spine.
    let plan = SolvePlan::resolve(req, &EnvOverrides::none());
    let report = solve_plan(&plan).map_err(|e| match e {
        MutError::Input { .. } => CliError::Input(e.to_string()),
        e => CliError::Solver(e.to_string()),
    })?;
    println!("weight: {}", report.weight);
    println!(
        "branched: {}  pruned: {}  solutions seen: {}  incumbent updates: {}  peak pool: {}",
        report.stats.branched,
        report.stats.pruned,
        report.stats.solutions_seen,
        report.stats.incumbent_updates,
        report.stats.peak_pool
    );
    // Work-stealing contention counters (all zero for sequential runs):
    // high park counts mean workers starve, high steal/donation counts
    // mean the load balancer is actually moving batches.
    println!(
        "steals: {}  donations: {}  parks: {}",
        report.stats.steals, report.stats.donations, report.stats.parks
    );
    // Supervision counter: open nodes the memory watchdog shed.
    println!("nodes shed: {}", report.stats.nodes_shed);
    print_cache_stats(&report);
    if let Some(sim) = &report.sim {
        println!(
            "virtual makespan: {:.6}s  messages: {}",
            sim.makespan,
            sim.total_messages()
        );
    }
    for tree in &report.trees {
        println!("{}", newick::to_newick_with(tree, |t| m.label(t)));
    }
    if report.is_complete() {
        Ok(ExitCode::SUCCESS)
    } else {
        // The tree above is feasible but only an upper bound; tell both
        // the human (stderr) and the script (exit code).
        eprintln!(
            "mutree: warning: search stopped early ({}); weight is an upper bound",
            report.stop
        );
        Ok(ExitCode::from(EXIT_INCOMPLETE))
    }
}

/// The cache counters, printed for every solve (all zero when no cache
/// is enabled) so scripts can scrape the line unconditionally.
fn print_cache_stats(report: &SolveReport) {
    println!(
        "cache: hits {}  misses {}  warm-seeds {}",
        report.stats.cache_hits, report.stats.cache_misses, report.stats.cache_warm_seeds
    );
}

fn fast(args: &[String]) -> Result<ExitCode, CliError> {
    check_flags(args, FAST_FLAGS)?;
    let path = args
        .first()
        .ok_or_else(|| usage("fast needs a matrix file"))?;
    let m = read_matrix(path)?;
    let mut req = SolveRequest::decompose(m.clone());
    if let Some(threshold) = flag_value(args, "--threshold") {
        let k: usize = threshold
            .parse()
            .map_err(|_| usage(format!("bad threshold {threshold:?}")))?;
        if k < 2 {
            return Err(usage("threshold must be at least 2"));
        }
        req.threshold = k;
    }
    if let Some(linkage) = flag_value(args, "--linkage") {
        req.linkage = parse_linkage(linkage)?;
    }
    req.timeout = parse_timeout(args)?;
    req.trace = parse_trace(args)?;
    req.memory = parse_memory_budget(args)?;
    if let Some(threads) = parse_threads(args)? {
        // One shared pool for everything: the pipeline fans its stage
        // tasks out on it, and each stage's thread-parallel search
        // borrows the same workers.
        req = req
            .backend(BackendSpec::Parallel { workers: threads })
            .threads(threads);
    }
    if args.iter().any(|a| a == "--cache") {
        req = req.cache(true);
    }
    let plan = SolvePlan::resolve(req, &EnvOverrides::none());
    // Undocumented test hook for the exit-code contract tests: makes
    // every n-taxon stage solve panic, exercising the degrade path (the
    // stage falls back to UPGMM and the run exits 5). A request cannot
    // express it, so it rides in as a solve hook.
    let hooks = SolveHooks {
        panic_on_taxa: parse_count(args, "--inject-panic-taxa")?.map(|n| n as usize),
        ..SolveHooks::default()
    };
    let report = solve_plan_hooked(&plan, &hooks).map_err(|e| CliError::Solver(e.to_string()))?;
    println!("weight: {}", report.weight);
    println!("compact sets: {}", report.compact_sets.unwrap_or(0));
    let groups: Vec<String> = report
        .groups
        .as_deref()
        .unwrap_or_default()
        .iter()
        .map(|g| {
            let names: Vec<String> = g.iter().map(|&t| m.label(t)).collect();
            format!("{{{}}}", names.join(", "))
        })
        .collect();
    println!("groups: {}", groups.join(" "));
    println!("nodes shed: {}", report.stats.nodes_shed);
    print_cache_stats(&report);
    println!("{}", newick::to_newick_with(&report.tree, |t| m.label(t)));
    let slowest: Vec<String> = report
        .slowest_stages(3)
        .iter()
        .map(|t| format!("{} {:.3}s", t.stage, t.seconds))
        .collect();
    eprintln!("mutree: slowest stages: {}", slowest.join(", "));
    if report.is_complete() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "mutree: warning: pipeline degraded ({}; {} stage{} fell back); tree is feasible but heuristic",
            report.stop,
            report.degraded.len(),
            if report.degraded.len() == 1 { "" } else { "s" }
        );
        for d in &report.degraded {
            eprintln!("mutree: degraded stage {}: {}", d.stage, d.reason);
        }
        Ok(ExitCode::from(EXIT_INCOMPLETE))
    }
}

fn sets(args: &[String]) -> Result<ExitCode, CliError> {
    check_flags(args, &[])?;
    let path = args
        .first()
        .ok_or_else(|| usage("sets needs a matrix file"))?;
    let m = read_matrix(path)?;
    let cs = CompactSets::find(&m);
    if cs.is_empty() {
        println!("no proper compact sets");
        return Ok(ExitCode::SUCCESS);
    }
    for s in cs.iter() {
        let names: Vec<String> = s.members().iter().map(|&t| m.label(t)).collect();
        println!(
            "{{{}}}  Max={}  Min(out)={}",
            names.join(", "),
            s.max_internal(),
            s.min_crossing()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn heur(args: &[String]) -> Result<ExitCode, CliError> {
    check_flags(args, HEUR_FLAGS)?;
    let path = args
        .first()
        .ok_or_else(|| usage("heur needs a matrix file"))?;
    let m = read_matrix(path)?;
    let linkage = match flag_value(args, "--linkage") {
        None => Linkage::Maximum,
        Some(l) => parse_linkage(l)?,
    };
    let mut tree = cluster(&m, linkage);
    let weight = tree.fit_heights(&m);
    println!("weight: {weight}");
    println!("feasible: {}", tree.is_feasible_for(&m, 1e-9));
    println!("{}", newick::to_newick_with(&tree, |t| m.label(t)));
    Ok(ExitCode::SUCCESS)
}

fn nj(args: &[String]) -> Result<ExitCode, CliError> {
    check_flags(args, &[])?;
    let path = args
        .first()
        .ok_or_else(|| usage("nj needs a matrix file"))?;
    let m = read_matrix(path)?;
    let tree = mutree_tree::nj::neighbor_joining(&m);
    println!("total length: {}", tree.total_length());
    println!("mean distortion: {:.6}", tree.mean_distortion(&m));
    println!("{}", tree.to_newick_with(|t| m.label(t)));
    Ok(ExitCode::SUCCESS)
}

fn rf(args: &[String]) -> Result<ExitCode, CliError> {
    check_flags(args, &[])?;
    let (pa, pb) = match args {
        [a, b, ..] => (a, b),
        _ => return Err(usage("rf needs two Newick files")),
    };
    let read_tree = |path: &str| -> Result<(mutree_tree::UltrametricTree, Vec<String>), CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Input(format!("reading {path}: {e}")))?;
        newick::parse_newick(&text).map_err(|e| CliError::Input(format!("parsing {path}: {e}")))
    };
    let (ta, names_a) = read_tree(pa)?;
    let (mut tb, names_b) = read_tree(pb)?;
    // Align b's taxa to a's by leaf name.
    let mut name_to_a = std::collections::HashMap::new();
    for (taxon, name) in names_a.iter().enumerate() {
        name_to_a.insert(name.clone(), taxon);
    }
    if names_b.len() != names_a.len() || !names_b.iter().all(|n| name_to_a.contains_key(n)) {
        return Err(CliError::Input(
            "the two trees must share the same leaf names".into(),
        ));
    }
    tb.map_taxa(|t| name_to_a[&names_b[t]]);
    let rf = mutree_tree::compare::robinson_foulds(&ta, &tb)
        .map_err(|e| CliError::Input(e.to_string()))?;
    let nrf = mutree_tree::compare::robinson_foulds_normalized(&ta, &tb)
        .map_err(|e| CliError::Input(e.to_string()))?;
    println!("robinson-foulds: {rf}");
    println!("normalized: {nrf:.4}");
    Ok(ExitCode::SUCCESS)
}

fn gen(args: &[String]) -> Result<ExitCode, CliError> {
    check_flags(args, GEN_FLAGS)?;
    let family = args
        .first()
        .ok_or_else(|| usage("gen needs a family (random|hmdna)"))?;
    let n: usize = args
        .get(1)
        .ok_or_else(|| usage("gen needs a species count"))?
        .parse()
        .map_err(|_| usage("species count must be a number"))?;
    if n < 2 {
        return Err(usage("need at least 2 species"));
    }
    let seed: u64 = match flag_value(args, "--seed") {
        None => 0,
        Some(s) => s.parse().map_err(|_| usage(format!("bad seed {s:?}")))?,
    };
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let m = match family.as_str() {
        "random" => {
            let mut m = mutree_distmat::gen::perturbed_ultrametric(n, 50.0, 0.2, &mut rng);
            m.set_labels((0..n).map(|i| format!("sp{i:02}")));
            m
        }
        "hmdna" => mutree_seqgen::hmdna_like_matrix(n, 200, &mut rng),
        other => return Err(usage(format!("unknown family {other:?}"))),
    };
    print!("{}", mio::to_phylip(&m));
    Ok(ExitCode::SUCCESS)
}

/// `mutree serve`: daemon mode, plus the `--send` / `--drain` client
/// modes (so scripts need no second binary to talk to the daemon).
fn serve(args: &[String]) -> Result<ExitCode, CliError> {
    if args.iter().any(|a| a == "--send") {
        return serve_send(args);
    }
    if args.iter().any(|a| a == "--drain") {
        check_flags(args, DRAIN_FLAGS)?;
        let addr = flag_value(args, "--drain")
            .ok_or_else(|| usage("--drain requires the daemon's address"))?;
        let mut client = mutree_serve::Client::connect(addr)
            .map_err(|e| CliError::Input(format!("connecting to {addr}: {e}")))?;
        let summary = client
            .drain()
            .map_err(|e| CliError::Solver(format!("draining {addr}: {e}")))?;
        println!(
            "drained: served {}  shed {}  cancelled {}  panicked {}  errors {}",
            summary.served, summary.shed, summary.cancelled, summary.panicked, summary.errors
        );
        return Ok(ExitCode::SUCCESS);
    }
    check_flags(args, SERVE_FLAGS)?;
    let addr = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| usage("serve needs a listen address (e.g. 127.0.0.1:7465)"))?;
    let queue_depth = parse_count(args, "--queue-depth")?.map(|n| n as usize);
    if queue_depth == Some(0) {
        return Err(usage("--queue-depth must be at least 1"));
    }
    let workers = parse_count(args, "--serve-workers")?.map(|n| n as usize);
    if workers == Some(0) {
        return Err(usage("--serve-workers must be at least 1"));
    }
    // Knob precedence: flag > MUTREE_SERVE_* environment > default.
    let mut config = mutree_serve::ServeConfig::resolve(queue_depth, workers);
    if let Some(threads) = parse_threads(args)? {
        config.threads = threads;
    }
    if args.iter().any(|a| a == "--no-cache") {
        config.cache_default = false;
    }
    let server = mutree_serve::Server::bind(addr.as_str(), config)
        .map_err(|e| CliError::Input(format!("binding {addr}: {e}")))?;
    // The one line scripts parse to learn the ephemeral port.
    println!("listening on {}", server.local_addr());
    let summary = server.join();
    println!(
        "drained: served {}  shed {}  cancelled {}  panicked {}  errors {}",
        summary.served, summary.shed, summary.cancelled, summary.panicked, summary.errors
    );
    Ok(ExitCode::SUCCESS)
}

/// `mutree serve --send`: one request over the socket, report printed in
/// the same shape as the in-process subcommands (same exit-code
/// contract: 0 complete, 5 incomplete-but-feasible).
fn serve_send(args: &[String]) -> Result<ExitCode, CliError> {
    check_flags(args, SEND_FLAGS)?;
    let addr =
        flag_value(args, "--send").ok_or_else(|| usage("--send requires the daemon's address"))?;
    let path = args
        .iter()
        .position(|a| a == "--send")
        .and_then(|i| args.get(i + 2))
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| usage("--send needs a matrix file after the address"))?;
    let m = read_matrix(path)?;
    // The daemon only accepts inline matrices (it never reads
    // server-side paths), so the file is parsed here and shipped.
    let mut req = if args.iter().any(|a| a == "--decompose") {
        SolveRequest::decompose(m.clone())
    } else {
        SolveRequest::exact(m.clone())
    };
    req.timeout = parse_timeout(args)?;
    if args.iter().any(|a| a == "--no-cache") {
        req = req.cache(false);
    }
    let mut client = mutree_serve::Client::connect(addr)
        .map_err(|e| CliError::Input(format!("connecting to {addr}: {e}")))?;
    let report = client.solve(&req).map_err(|e| match e {
        mutree_serve::ClientError::Server(err) => {
            CliError::Solver(format!("daemon refused the request: {err}"))
        }
        other => CliError::Solver(other.to_string()),
    })?;
    println!("weight: {}", report.weight);
    print_cache_stats(&report);
    for tree in &report.trees {
        println!("{}", newick::to_newick_with(tree, |t| m.label(t)));
    }
    if report.is_complete() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "mutree: warning: daemon stopped the search early ({}); weight is an upper bound",
            report.stop
        );
        Ok(ExitCode::from(EXIT_INCOMPLETE))
    }
}

fn parse_backend(spec: &str) -> Result<BackendSpec, CliError> {
    if spec == "seq" {
        return Ok(BackendSpec::Sequential);
    }
    if let Some(workers) = spec.strip_prefix("par:") {
        let w: usize = workers
            .parse()
            .map_err(|_| usage(format!("bad worker count {workers:?}")))?;
        if w == 0 {
            return Err(usage("need at least one worker"));
        }
        return Ok(BackendSpec::Parallel { workers: w });
    }
    if let Some(slaves) = spec.strip_prefix("sim:") {
        let s: usize = slaves
            .parse()
            .map_err(|_| usage(format!("bad slave count {slaves:?}")))?;
        if s == 0 {
            return Err(usage("need at least one slave"));
        }
        return Ok(BackendSpec::SimulatedCluster { slaves: s });
    }
    Err(usage(format!(
        "unknown backend {spec:?} (seq | par:N | sim:N)"
    )))
}

fn parse_linkage(spec: &str) -> Result<Linkage, CliError> {
    match spec {
        "max" => Ok(Linkage::Maximum),
        "min" => Ok(Linkage::Minimum),
        "avg" => Ok(Linkage::Average),
        other => Err(usage(format!(
            "unknown linkage {other:?} (max | min | avg)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flag table each `mutree ...` line of [`USAGE`] is checked
    /// against, chosen by the words after `mutree`.
    fn table_for(line: &str) -> Flags {
        let mut words = line.split_whitespace().skip(1);
        match (words.next(), words.next()) {
            (Some("solve"), _) => SOLVE_FLAGS,
            (Some("fast"), _) => FAST_FLAGS,
            (Some("heur"), _) => HEUR_FLAGS,
            (Some("gen"), _) => GEN_FLAGS,
            (Some("serve"), Some("--send")) => SEND_FLAGS,
            (Some("serve"), Some("--drain")) => DRAIN_FLAGS,
            (Some("serve"), _) => SERVE_FLAGS,
            _ => &[],
        }
    }

    #[test]
    fn every_flag_usage_lists_is_accepted_with_its_arity() {
        let mut table: Flags = &[];
        let mut seen = 0;
        for line in USAGE.lines() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("mutree ") && line.starts_with("  mutree") {
                table = table_for(trimmed);
            } else if !trimmed.starts_with('[') {
                continue;
            }
            // Bracketed options: `[--flag]` or `[--flag VALUE]`.
            for option in trimmed.split('[').skip(1) {
                let option = option.split(']').next().unwrap();
                let mut parts = option.split_whitespace();
                let flag = parts.next().unwrap();
                let takes_value = parts.next().is_some();
                let args: Vec<String> = std::iter::once(flag)
                    .chain(takes_value.then_some("1"))
                    .map(String::from)
                    .collect();
                assert!(
                    check_flags(&args, table).is_ok(),
                    "{flag} is listed in USAGE but rejected"
                );
                assert_eq!(
                    table.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v),
                    Some(takes_value),
                    "{flag}: USAGE and the flag table disagree on its value"
                );
                seen += 1;
            }
        }
        assert!(seen >= 24, "parsed only {seen} flags from USAGE");
    }

    #[test]
    fn a_flag_value_is_never_read_as_a_flag() {
        let args: Vec<String> = ["-", "--backend", "--cache", "--all"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(check_flags(&args, SOLVE_FLAGS).is_ok());
        let err = check_flags(&args[..2], FAST_FLAGS).unwrap_err();
        assert_eq!(err.message(), "unknown flag \"--backend\"");
    }
}
