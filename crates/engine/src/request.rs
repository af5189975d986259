//! [`SolveRequest`]: an owned, serializable description of one solve.
//!
//! A request carries the matrix (inline or as a PHYLIP path) and every
//! knob the solver and the decomposition pipeline understand, with
//! `None` / default meaning "let the plan resolution decide" (see
//! [`SolvePlan::resolve`](crate::SolvePlan::resolve)). Requests never
//! read the process environment — that is the plan's job — so a request
//! [`encode`](SolveRequest::encode)d on one machine and
//! [`decode`](SolveRequest::decode)d on another describes the same solve.
//!
//! The text encoding stores inline matrices as exact IEEE-754 bit
//! patterns (the PHYLIP pretty-printer rounds to six decimals, which
//! would silently change the optimum), so round-tripping a request is
//! lossless.

use std::path::PathBuf;
use std::time::Duration;

use mutree_bnb::{CheckpointPolicy, MemoryBudget, SearchMode, Strategy, TraceLevel};
use mutree_distmat::DistanceMatrix;
use mutree_tree::Linkage;

/// How aggressively to apply the 3-3 relationship rule during branching.
///
/// For a species triple the matrix may nominate a strict *close pair*
/// (one distance smaller than both others); the rule discards topologies
/// that resolve the triple differently. It is a heuristic: in the
/// companion paper's experiments the surviving optima coincide with the
/// unconstrained ones, but no proof guarantees it in general.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreeThree {
    /// Do not use the rule (the PaCT paper's baseline configuration).
    #[default]
    Off,
    /// Apply it only when inserting the third species — the companion
    /// paper's Step 4.
    InitialOnly,
    /// Apply it at every insertion, checking all triples involving the new
    /// species — the companion paper's proposed future-work extension.
    Full,
}

/// Retry-with-backoff for faulted pipeline stages.
///
/// A stage whose exact solve **panics** or **errors** may be transient
/// (a poisoned worker thread, a flaky filesystem under a checkpoint); the
/// pipeline can re-attempt it before dropping down the degradation
/// ladder. Deterministic stops — deadline, cancellation, branch budget —
/// are *never* retried: re-running them would fail identically and burn
/// wall-clock the caller bounded on purpose.
///
/// Backoff between attempts is exponential with deterministic jitter:
/// attempt `a` of stage `s` sleeps
/// `base·2^(a−1) · (0.5 + 0.5·u(seed, s, a))` where `u` hashes the seed,
/// the stage path and the attempt number — so a given configuration
/// retries at identical times on every run, and no two stages thundering
/// herd on the same schedule.
///
/// Retries are bounded twice: [`max_attempts`](RetryPolicy::max_attempts)
/// per stage, and [`budget`](RetryPolicy::budget) total retries per
/// pipeline run (shared across all stages, including recursive meta
/// solves), so a systematically broken solver cannot multiply work
/// unboundedly.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per stage, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further attempt
    /// (capped at 64× to keep sleeps sane).
    pub base_backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Total retries (not attempts) the whole pipeline run may spend.
    pub budget: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new()
    }
}

impl RetryPolicy {
    /// Three attempts per stage, 1 ms base backoff, a 32-retry pipeline
    /// budget.
    pub fn new() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            seed: 0,
            budget: 32,
        }
    }

    /// Sets the per-stage attempt cap (clamped up to 1).
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the base backoff duration.
    pub fn base_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the pipeline-wide retry budget.
    pub fn budget(mut self, budget: u32) -> Self {
        self.budget = budget;
        self
    }

    /// The deterministic backoff before retrying `stage` after `attempt`
    /// failed attempts.
    pub fn backoff(&self, stage: &str, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(6);
        let base = self.base_backoff.saturating_mul(1 << exp);
        let h = mutree_bnb::hash::fnv1a(stage.as_bytes());
        let z = mutree_bnb::hash::splitmix64(h ^ self.seed ^ u64::from(attempt));
        base.mul_f64(0.5 + 0.5 * mutree_bnb::hash::unit_fraction(z))
    }
}

/// Where the distance matrix comes from.
#[derive(Debug, Clone)]
pub enum MatrixSource {
    /// The matrix itself, owned by the request.
    Inline(DistanceMatrix),
    /// A PHYLIP square-format file, read when the plan executes.
    PhylipPath(PathBuf),
}

/// Which solve path to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveKind {
    /// One exact branch-and-bound search over the whole matrix.
    #[default]
    Exact,
    /// The compact-set decomposition pipeline (groups + condensed meta
    /// matrix + graft/refit).
    Decompose,
}

/// The search backend, in serializable form (the simulated cluster is
/// identified by its slave count; heterogeneous specs stay programmatic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// Single-threaded depth-first search.
    #[default]
    Sequential,
    /// Master/slave thread-parallel search.
    Parallel {
        /// Worker threads.
        workers: usize,
    },
    /// Deterministic discrete-event cluster simulation.
    SimulatedCluster {
        /// Simulated slave computing nodes.
        slaves: usize,
    },
}

/// An owned, environment-free description of one solve. See the
/// [module docs](self) and [`SolvePlan`](crate::SolvePlan).
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The distance matrix to solve.
    pub source: MatrixSource,
    /// Exact search or decomposition pipeline.
    pub kind: SolveKind,
    /// Find one optimum or all of them.
    pub mode: SearchMode,
    /// Sequential node-selection strategy.
    pub strategy: Strategy,
    /// 3-3 relationship pruning strength.
    pub three_three: ThreeThree,
    /// Which driver runs the branch-and-bound search.
    pub backend: BackendSpec,
    /// Numeric tolerance; also the cache's quantization quantum.
    pub tol: f64,
    /// Branch-operation budget (`u64::MAX` = unbounded).
    pub max_branches: u64,
    /// Wall-clock budget, applied from the moment the solve starts.
    pub timeout: Option<Duration>,
    /// Maxmin relabeling (off only for ablations).
    pub use_maxmin: bool,
    /// UPGMM initial incumbent (off only for ablations).
    pub use_upgmm: bool,
    /// Pipeline executor threads. `None` defers to
    /// `MUTREE_PIPELINE_THREADS`, then to inline execution.
    pub threads: Option<usize>,
    /// Forced leaf-bitset width in 64-bit words. `None` defers to
    /// `MUTREE_FORCE_LEAF_WORDS`, then to the narrowest fit.
    pub leaf_words: Option<usize>,
    /// Forced work-stealing shard count. `None` defers to
    /// `MUTREE_FRONTIER_SHARDS`, then to the worker-derived policy.
    pub frontier_shards: Option<usize>,
    /// Open-node cap for the memory watchdog.
    pub memory: Option<MemoryBudget>,
    /// Crash-safe incumbent snapshots while solving.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Warm-start from a checkpoint written by a previous run.
    pub resume: Option<PathBuf>,
    /// Retry faulted pipeline stages before degrading.
    pub retry: Option<RetryPolicy>,
    /// Largest group the pipeline solves exactly.
    pub threshold: usize,
    /// Condensed-matrix linkage.
    pub linkage: Linkage,
    /// Maximum recursion depth of the pipeline's meta solves.
    pub max_depth: usize,
    /// Group-solve cache: `Some(true)` forces it on (with whole-solve
    /// memoization), `Some(false)` forces it off, `None` defers to
    /// `MUTREE_CACHE` (stage-level only).
    pub cache: Option<bool>,
    /// Structured kernel-event tracing to stderr.
    pub trace: Option<TraceLevel>,
}

impl SolveRequest {
    /// A request with Algorithm BBU's published defaults: sequential
    /// exact best-one search, maxmin relabeling, UPGMM incumbent, no
    /// limits, pipeline knobs at their paper values (threshold 12,
    /// maximum linkage, depth 8).
    pub fn new(source: MatrixSource) -> Self {
        SolveRequest {
            source,
            kind: SolveKind::Exact,
            mode: SearchMode::BestOne,
            strategy: Strategy::DepthFirst,
            three_three: ThreeThree::Off,
            backend: BackendSpec::Sequential,
            tol: 1e-9,
            max_branches: u64::MAX,
            timeout: None,
            use_maxmin: true,
            use_upgmm: true,
            threads: None,
            leaf_words: None,
            frontier_shards: None,
            memory: None,
            checkpoint: None,
            resume: None,
            retry: None,
            threshold: 12,
            linkage: Linkage::Maximum,
            max_depth: 8,
            cache: None,
            trace: None,
        }
    }

    /// A request solving `m` exactly.
    pub fn exact(m: DistanceMatrix) -> Self {
        SolveRequest::new(MatrixSource::Inline(m))
    }

    /// A request running `m` through the decomposition pipeline.
    pub fn decompose(m: DistanceMatrix) -> Self {
        let mut r = SolveRequest::new(MatrixSource::Inline(m));
        r.kind = SolveKind::Decompose;
        r
    }

    /// Sets the solve kind.
    pub fn kind(mut self, kind: SolveKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the search backend.
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the search mode.
    pub fn mode(mut self, mode: SearchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the pipeline executor thread count (overrides the
    /// environment).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Forces the leaf-bitset width (overrides the environment).
    pub fn leaf_words(mut self, words: usize) -> Self {
        self.leaf_words = Some(words);
        self
    }

    /// Forces the frontier shard count (overrides the environment).
    pub fn frontier_shards(mut self, shards: usize) -> Self {
        self.frontier_shards = Some(shards);
        self
    }

    /// Forces the group-solve cache on or off (overrides the
    /// environment).
    pub fn cache(mut self, enabled: bool) -> Self {
        self.cache = Some(enabled);
        self
    }

    /// Serializes the request to its line-based text form. Inline
    /// matrices are stored as exact IEEE-754 bit patterns, so
    /// [`decode`](SolveRequest::decode) reproduces the same solve to the
    /// bit.
    pub fn encode(&self) -> String {
        let mut out = String::from("mutree-request v1\n");
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!(
            "kind {}",
            match self.kind {
                SolveKind::Exact => "exact",
                SolveKind::Decompose => "decompose",
            }
        ));
        line(format!(
            "mode {}",
            match self.mode {
                SearchMode::BestOne => "best-one",
                SearchMode::AllOptimal => "all-optimal",
            }
        ));
        line(format!(
            "strategy {}",
            match self.strategy {
                Strategy::DepthFirst => "depth-first",
                Strategy::BestFirst => "best-first",
            }
        ));
        line(format!(
            "three-three {}",
            match self.three_three {
                ThreeThree::Off => "off",
                ThreeThree::InitialOnly => "initial",
                ThreeThree::Full => "full",
            }
        ));
        line(match self.backend {
            BackendSpec::Sequential => "backend seq".into(),
            BackendSpec::Parallel { workers } => format!("backend par {workers}"),
            BackendSpec::SimulatedCluster { slaves } => format!("backend sim {slaves}"),
        });
        line(format!("tol {:016x}", self.tol.to_bits()));
        line(format!("max-branches {}", self.max_branches));
        if let Some(t) = self.timeout {
            line(format!("timeout-ns {}", t.as_nanos()));
        }
        line(format!("maxmin {}", self.use_maxmin));
        line(format!("upgmm {}", self.use_upgmm));
        if let Some(t) = self.threads {
            line(format!("threads {t}"));
        }
        if let Some(w) = self.leaf_words {
            line(format!("leaf-words {w}"));
        }
        if let Some(s) = self.frontier_shards {
            line(format!("frontier-shards {s}"));
        }
        if let Some(m) = self.memory {
            line(format!("memory-nodes {}", m.max_open_nodes));
        }
        if let Some(cp) = &self.checkpoint {
            line(format!("checkpoint {} {}", cp.interval, cp.path.display()));
        }
        if let Some(p) = &self.resume {
            line(format!("resume {}", p.display()));
        }
        if let Some(r) = &self.retry {
            line(format!(
                "retry {} {} {} {}",
                r.max_attempts,
                r.base_backoff.as_nanos(),
                r.seed,
                r.budget
            ));
        }
        line(format!("threshold {}", self.threshold));
        line(format!(
            "linkage {}",
            match self.linkage {
                Linkage::Maximum => "maximum",
                Linkage::Minimum => "minimum",
                Linkage::Average => "average",
            }
        ));
        line(format!("max-depth {}", self.max_depth));
        if let Some(c) = self.cache {
            line(format!("cache {}", if c { "on" } else { "off" }));
        }
        if let Some(t) = self.trace {
            line(format!(
                "trace {}",
                match t {
                    TraceLevel::Incumbents => "incumbents",
                    TraceLevel::All => "all",
                }
            ));
        }
        match &self.source {
            MatrixSource::PhylipPath(p) => line(format!("matrix phylip {}", p.display())),
            MatrixSource::Inline(m) => {
                let n = m.len();
                line(format!("matrix inline {n}"));
                if m.labels().is_some() {
                    for i in 0..n {
                        line(format!("label {}", m.label(i)));
                    }
                }
                // Strict lower triangle, one row per line, exact bits.
                let packed = m.condensed();
                let mut at = 0;
                for i in 1..n {
                    let row: Vec<String> = packed[at..at + i]
                        .iter()
                        .map(|d| format!("{:016x}", d.to_bits()))
                        .collect();
                    at += i;
                    line(format!("row {}", row.join(" ")));
                }
            }
        }
        out
    }

    /// Parses the text form produced by [`encode`](SolveRequest::encode).
    ///
    /// # Errors
    ///
    /// [`RequestError`] naming the offending line on any malformed input.
    pub fn decode(text: &str) -> Result<SolveRequest, RequestError> {
        let fail = |line: usize, message: String| RequestError {
            line: line + 1,
            message,
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "mutree-request v1")) => {}
            other => {
                return Err(fail(
                    0,
                    format!("expected \"mutree-request v1\" header, found {other:?}"),
                ))
            }
        }
        // Start from a placeholder source; the matrix section replaces it.
        let mut req = SolveRequest::new(MatrixSource::PhylipPath(PathBuf::new()));
        let mut have_source = false;
        while let Some((ln, raw)) = lines.next() {
            let raw = raw.trim_end();
            if raw.is_empty() {
                continue;
            }
            let (keyword, rest) = raw.split_once(' ').unwrap_or((raw, ""));
            let usize_arg = || -> Result<usize, RequestError> {
                rest.trim()
                    .parse()
                    .map_err(|_| fail(ln, format!("{keyword}: bad count {rest:?}")))
            };
            let bits_of = |tok: &str| -> Result<f64, RequestError> {
                u64::from_str_radix(tok, 16)
                    .map(f64::from_bits)
                    .map_err(|_| fail(ln, format!("bad hex float {tok:?}")))
            };
            match keyword {
                "kind" => {
                    req.kind = match rest.trim() {
                        "exact" => SolveKind::Exact,
                        "decompose" => SolveKind::Decompose,
                        other => return Err(fail(ln, format!("unknown kind {other:?}"))),
                    }
                }
                "mode" => {
                    req.mode = match rest.trim() {
                        "best-one" => SearchMode::BestOne,
                        "all-optimal" => SearchMode::AllOptimal,
                        other => return Err(fail(ln, format!("unknown mode {other:?}"))),
                    }
                }
                "strategy" => {
                    req.strategy = match rest.trim() {
                        "depth-first" => Strategy::DepthFirst,
                        "best-first" => Strategy::BestFirst,
                        other => return Err(fail(ln, format!("unknown strategy {other:?}"))),
                    }
                }
                "three-three" => {
                    req.three_three = match rest.trim() {
                        "off" => ThreeThree::Off,
                        "initial" => ThreeThree::InitialOnly,
                        "full" => ThreeThree::Full,
                        other => return Err(fail(ln, format!("unknown 3-3 strength {other:?}"))),
                    }
                }
                "backend" => {
                    let mut parts = rest.split_whitespace();
                    req.backend = match (parts.next(), parts.next()) {
                        (Some("seq"), None) => BackendSpec::Sequential,
                        (Some("par"), Some(w)) => BackendSpec::Parallel {
                            workers: w
                                .parse()
                                .map_err(|_| fail(ln, format!("bad worker count {w:?}")))?,
                        },
                        (Some("sim"), Some(s)) => BackendSpec::SimulatedCluster {
                            slaves: s
                                .parse()
                                .map_err(|_| fail(ln, format!("bad slave count {s:?}")))?,
                        },
                        _ => return Err(fail(ln, format!("unknown backend {rest:?}"))),
                    }
                }
                "tol" => req.tol = bits_of(rest.trim())?,
                "max-branches" => {
                    req.max_branches = rest
                        .trim()
                        .parse()
                        .map_err(|_| fail(ln, format!("bad branch budget {rest:?}")))?
                }
                "timeout-ns" => {
                    let ns: u128 = rest
                        .trim()
                        .parse()
                        .map_err(|_| fail(ln, format!("bad timeout {rest:?}")))?;
                    req.timeout =
                        Some(Duration::from_nanos(u64::try_from(ns).map_err(|_| {
                            fail(ln, format!("timeout overflows: {rest:?}"))
                        })?));
                }
                "maxmin" => req.use_maxmin = rest.trim() == "true",
                "upgmm" => req.use_upgmm = rest.trim() == "true",
                "threads" => req.threads = Some(usize_arg()?),
                "leaf-words" => req.leaf_words = Some(usize_arg()?),
                "frontier-shards" => req.frontier_shards = Some(usize_arg()?),
                "memory-nodes" => {
                    let nodes: u64 = rest
                        .trim()
                        .parse()
                        .map_err(|_| fail(ln, format!("bad node cap {rest:?}")))?;
                    req.memory = Some(MemoryBudget::new(nodes));
                }
                "checkpoint" => {
                    let (interval, path) = rest
                        .split_once(' ')
                        .ok_or_else(|| fail(ln, "checkpoint needs interval and path".into()))?;
                    let interval: u64 = interval
                        .parse()
                        .map_err(|_| fail(ln, format!("bad checkpoint interval {interval:?}")))?;
                    req.checkpoint = Some(CheckpointPolicy::new(path).interval(interval));
                }
                "resume" => req.resume = Some(PathBuf::from(rest)),
                "retry" => {
                    let parts: Vec<&str> = rest.split_whitespace().collect();
                    let [attempts, backoff_ns, seed, budget] = parts[..] else {
                        return Err(fail(ln, format!("bad retry spec {rest:?}")));
                    };
                    let num = |tok: &str| -> Result<u64, RequestError> {
                        tok.parse()
                            .map_err(|_| fail(ln, format!("bad retry field {tok:?}")))
                    };
                    req.retry = Some(
                        RetryPolicy::new()
                            .max_attempts(num(attempts)? as u32)
                            .base_backoff(Duration::from_nanos(num(backoff_ns)?))
                            .seed(num(seed)?)
                            .budget(num(budget)? as u32),
                    );
                }
                "threshold" => req.threshold = usize_arg()?,
                "linkage" => {
                    req.linkage = match rest.trim() {
                        "maximum" => Linkage::Maximum,
                        "minimum" => Linkage::Minimum,
                        "average" => Linkage::Average,
                        other => return Err(fail(ln, format!("unknown linkage {other:?}"))),
                    }
                }
                "max-depth" => req.max_depth = usize_arg()?,
                "cache" => {
                    req.cache = Some(match rest.trim() {
                        "on" => true,
                        "off" => false,
                        other => return Err(fail(ln, format!("unknown cache switch {other:?}"))),
                    })
                }
                "trace" => {
                    req.trace = Some(
                        TraceLevel::parse(rest.trim())
                            .ok_or_else(|| fail(ln, format!("unknown trace level {rest:?}")))?,
                    )
                }
                "matrix" => {
                    let (shape, arg) = rest
                        .split_once(' ')
                        .ok_or_else(|| fail(ln, format!("bad matrix line {rest:?}")))?;
                    match shape {
                        "phylip" => req.source = MatrixSource::PhylipPath(PathBuf::from(arg)),
                        "inline" => {
                            let n: usize = arg
                                .parse()
                                .map_err(|_| fail(ln, format!("bad taxon count {arg:?}")))?;
                            let mut labels: Vec<String> = Vec::new();
                            let mut m = DistanceMatrix::zeros(n).map_err(|e| {
                                fail(ln, format!("cannot build {n}-taxon matrix: {e}"))
                            })?;
                            let mut i = 1;
                            for (ln, raw) in lines.by_ref() {
                                let raw = raw.trim_end();
                                if let Some(label) = raw.strip_prefix("label ") {
                                    labels.push(label.to_string());
                                    continue;
                                }
                                let Some(row) = raw.strip_prefix("row ") else {
                                    return Err(fail(
                                        ln,
                                        format!("expected matrix row, found {raw:?}"),
                                    ));
                                };
                                let toks: Vec<&str> = row.split_whitespace().collect();
                                if toks.len() != i {
                                    return Err(fail(
                                        ln,
                                        format!("row {i} has {} entries, wants {i}", toks.len()),
                                    ));
                                }
                                for (j, tok) in toks.iter().enumerate() {
                                    let d =
                                        u64::from_str_radix(tok, 16).map(f64::from_bits).map_err(
                                            |_| fail(ln, format!("bad hex distance {tok:?}")),
                                        )?;
                                    m.set(i, j, d);
                                }
                                i += 1;
                                if i == n {
                                    break;
                                }
                            }
                            if i != n {
                                return Err(fail(0, format!("matrix ended at row {i} of {n}")));
                            }
                            if !labels.is_empty() {
                                if labels.len() != n {
                                    return Err(fail(
                                        0,
                                        format!("{} labels for {n} taxa", labels.len()),
                                    ));
                                }
                                m.set_labels(labels);
                            }
                            req.source = MatrixSource::Inline(m);
                        }
                        other => return Err(fail(ln, format!("unknown matrix shape {other:?}"))),
                    }
                    have_source = true;
                }
                other => return Err(fail(ln, format!("unknown keyword {other:?}"))),
            }
        }
        if !have_source {
            return Err(fail(0, "request has no matrix line".into()));
        }
        Ok(req)
    }
}

/// Why a request failed to [`decode`](SolveRequest::decode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// 1-based line number of the offending line (0 when the problem is
    /// the overall shape, e.g. a truncated matrix).
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RequestError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> DistanceMatrix {
        let mut m = DistanceMatrix::from_rows(&[
            vec![0.0, 3.25, 8.0625],
            vec![3.25, 0.0, 7.000000000000001],
            vec![8.0625, 7.000000000000001, 0.0],
        ])
        .unwrap();
        m.set_labels(["alpha", "beta", "gamma"]);
        m
    }

    #[test]
    fn round_trips_every_field_bit_exactly() {
        let mut req = SolveRequest::decompose(sample_matrix())
            .backend(BackendSpec::Parallel { workers: 3 })
            .mode(SearchMode::AllOptimal)
            .threads(8)
            .leaf_words(2)
            .frontier_shards(16)
            .cache(true);
        req.strategy = Strategy::BestFirst;
        req.three_three = ThreeThree::Full;
        req.tol = 1e-7;
        req.max_branches = 123_456;
        req.timeout = Some(Duration::from_millis(1500));
        req.use_maxmin = false;
        req.memory = Some(MemoryBudget::new(9999));
        req.checkpoint = Some(CheckpointPolicy::new("/tmp/ck pt.bin").interval(64));
        req.resume = Some(PathBuf::from("/tmp/old.ckpt"));
        req.retry = Some(RetryPolicy::new().max_attempts(5).seed(7).budget(11));
        req.threshold = 6;
        req.linkage = Linkage::Average;
        req.max_depth = 3;
        req.trace = Some(TraceLevel::Incumbents);

        let text = req.encode();
        let back = SolveRequest::decode(&text).expect("decodes");
        // The text form is canonical: a decoded request re-encodes to the
        // identical bytes, which covers every field including the exact
        // matrix bits.
        assert_eq!(back.encode(), text);
        assert_eq!(back.mode, SearchMode::AllOptimal);
        assert_eq!(back.timeout, Some(Duration::from_millis(1500)));
        assert_eq!(back.cache, Some(true));
        let MatrixSource::Inline(m) = &back.source else {
            panic!("inline matrix expected");
        };
        assert_eq!(m.get(0, 2).to_bits(), 8.0625f64.to_bits());
        assert_eq!(m.get(1, 2).to_bits(), 7.000000000000001f64.to_bits());
        assert_eq!(m.label(1), "beta");
    }

    #[test]
    fn defaults_round_trip_minimally() {
        let req = SolveRequest::exact(sample_matrix());
        let back = SolveRequest::decode(&req.encode()).unwrap();
        assert_eq!(back.encode(), req.encode());
        assert_eq!(back.kind, SolveKind::Exact);
        assert_eq!(back.threads, None);
        assert_eq!(back.cache, None);
        assert_eq!(back.tol.to_bits(), 1e-9f64.to_bits());
    }

    #[test]
    fn phylip_source_round_trips() {
        let req = SolveRequest::new(MatrixSource::PhylipPath("data/hm dna.phy".into()));
        let back = SolveRequest::decode(&req.encode()).unwrap();
        let MatrixSource::PhylipPath(p) = &back.source else {
            panic!("path source expected");
        };
        assert_eq!(p, &PathBuf::from("data/hm dna.phy"));
    }

    #[test]
    fn malformed_requests_name_the_line() {
        assert!(SolveRequest::decode("").is_err());
        let err = SolveRequest::decode("mutree-request v1\nbogus 3\n").unwrap_err();
        assert_eq!(err.line, 2);
        let truncated = "mutree-request v1\nmatrix inline 4\nrow 0000000000000000\n";
        assert!(SolveRequest::decode(truncated).is_err());
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy::new()
            .seed(7)
            .base_backoff(Duration::from_millis(2));
        assert_eq!(p.backoff("group 1", 1), p.backoff("group 1", 1));
        assert_ne!(p.backoff("group 1", 1), p.backoff("group 2", 1));
        for attempt in 1..4 {
            let d = p.backoff("meta", attempt);
            let base = Duration::from_millis(2) * (1 << (attempt - 1));
            assert!(d >= base / 2 && d <= base, "attempt {attempt}: {d:?}");
        }
    }
}
