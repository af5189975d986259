//! [`SolveRequest`]: an owned, serializable description of one solve.
//!
//! A request carries the matrix (inline or as a PHYLIP path) and every
//! knob the solver and the decomposition pipeline understand, with
//! `None` / default meaning "the built-in default" (see
//! [`SolvePlan::resolve`](crate::SolvePlan::resolve)). Nothing reads the
//! process environment to fill a knob, so a request
//! [`encode`](SolveRequest::encode)d on one machine and
//! [`decode`](SolveRequest::decode)d on another describes the same solve.
//!
//! The text encoding stores inline matrices as exact IEEE-754 bit
//! patterns (the PHYLIP pretty-printer rounds to six decimals, which
//! would silently change the optimum), so round-tripping a request is
//! lossless.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use mutree_bnb::{CheckpointPolicy, MemoryBudget, SearchMode, TraceLevel};
use mutree_distmat::{DistanceMatrix, MatrixError};
use mutree_tree::Linkage;

use crate::hex;

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
    ///
    /// A heuristic that can lose the optimum: on n = 20 random-species
    /// matrices it often branches only the search root and returns the
    /// UPGMM incumbent, heavier than the optimum (for
    /// `random_species_matrix(20, 5)`, 518.974 against 518.696).
    Full,
}

/// Leaf-bitset widths (in 64-bit words) the exact search is
/// monomorphized for, narrowest first. Each width `K` handles up to
/// `64·K` taxa; the solver dispatches to the narrowest fit, and a
/// request's `leaf-words` line must name one of these.
pub const LEAF_WIDTHS: [usize; 3] = [1, 2, 4];

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
    /// 3-3 relationship pruning strength.
    pub three_three: ThreeThree,
    /// Which driver runs the branch-and-bound search.
    pub backend: BackendSpec,
    /// The tolerance a caller checks the answer against (e.g. the
    /// returned tree's feasibility). It configures nothing: the search
    /// and the group-solve cache compare at [`mutree_bnb::TOL`].
    pub tol: f64,
    /// Branch-operation budget (`u64::MAX` = unbounded).
    pub max_branches: u64,
    /// Wall-clock budget, applied from the moment the solve starts.
    pub timeout: Option<Duration>,
    /// Relabel the taxa into the search order before searching: maxmin
    /// improved by pair swaps (`mutree_distmat::SearchOrder`). Off only
    /// for ablations and for callers that supply their own order; the
    /// search then inserts taxa in input order.
    pub use_maxmin: bool,
    /// UPGMM initial incumbent (off only for ablations).
    pub use_upgmm: bool,
    /// Executor threads: the pipeline's worker pool for a decomposed
    /// solve, the search's borrowed pool for a parallel exact one.
    /// `None` means inline execution (and one spawned thread per worker
    /// for a parallel search).
    pub threads: Option<usize>,
    /// Forced leaf-bitset width in 64-bit words, one of
    /// [`LEAF_WIDTHS`]. `None` means the narrowest fit.
    pub leaf_words: Option<usize>,
    /// Open-node cap for the memory watchdog.
    pub memory: Option<MemoryBudget>,
    /// Crash-safe incumbent snapshots while solving.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Warm-start from a checkpoint written by a previous run.
    pub resume: Option<PathBuf>,
    /// Largest group the pipeline solves exactly.
    pub threshold: usize,
    /// Condensed-matrix linkage.
    pub linkage: Linkage,
    /// Maximum recursion depth of the pipeline's meta solves.
    pub max_depth: usize,
    /// Group-solve cache: `Some(true)` attaches the process-wide cache
    /// (stage lookups plus whole-solve memoization); `Some(false)` and
    /// `None` leave it off. `None` means "unsaid", so a front end such as
    /// the daemon can fill in its own default.
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
            three_three: ThreeThree::Off,
            backend: BackendSpec::Sequential,
            tol: mutree_bnb::TOL,
            max_branches: u64::MAX,
            timeout: None,
            use_maxmin: true,
            use_upgmm: true,
            threads: None,
            leaf_words: None,
            memory: None,
            checkpoint: None,
            resume: None,
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

    /// Sets the executor thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Forces the leaf-bitset width.
    pub fn leaf_words(mut self, words: usize) -> Self {
        self.leaf_words = Some(words);
        self
    }

    /// Turns the group-solve cache on or off for this request.
    pub fn cache(mut self, enabled: bool) -> Self {
        self.cache = Some(enabled);
        self
    }

    /// Serializes the request to its line-based text form. Inline
    /// matrices are stored as exact IEEE-754 bit patterns, so
    /// [`decode`](SolveRequest::decode) reproduces the same solve to the
    /// bit.
    pub fn encode(&self) -> String {
        // A capacity hint: the matrix rows dominate an inline request.
        let entries = match &self.source {
            MatrixSource::Inline(m) => m.len() * m.len().saturating_sub(1) / 2,
            MatrixSource::PhylipPath(_) => 0,
        };
        let mut out = String::with_capacity(1024 + 17 * entries);
        self.write_lines(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// The body of [`encode`](SolveRequest::encode).
    fn write_lines(&self, out: &mut String) -> std::fmt::Result {
        out.push_str("mutree-request v1\n");
        writeln!(
            out,
            "kind {}",
            match self.kind {
                SolveKind::Exact => "exact",
                SolveKind::Decompose => "decompose",
            }
        )?;
        writeln!(
            out,
            "mode {}",
            match self.mode {
                SearchMode::BestOne => "best-one",
                SearchMode::AllOptimal => "all-optimal",
            }
        )?;
        writeln!(
            out,
            "three-three {}",
            match self.three_three {
                ThreeThree::Off => "off",
                ThreeThree::InitialOnly => "initial",
                ThreeThree::Full => "full",
            }
        )?;
        match self.backend {
            BackendSpec::Sequential => writeln!(out, "backend seq")?,
            BackendSpec::Parallel { workers } => writeln!(out, "backend par {workers}")?,
            BackendSpec::SimulatedCluster { slaves } => writeln!(out, "backend sim {slaves}")?,
        }
        out.push_str("tol ");
        hex::push_u64(out, self.tol.to_bits());
        writeln!(out, "\nmax-branches {}", self.max_branches)?;
        if let Some(t) = self.timeout {
            writeln!(out, "timeout-ns {}", t.as_nanos())?;
        }
        writeln!(out, "maxmin {}", self.use_maxmin)?;
        writeln!(out, "upgmm {}", self.use_upgmm)?;
        if let Some(t) = self.threads {
            writeln!(out, "threads {t}")?;
        }
        if let Some(w) = self.leaf_words {
            writeln!(out, "leaf-words {w}")?;
        }
        if let Some(m) = self.memory {
            writeln!(out, "memory-nodes {}", m.max_open_nodes)?;
        }
        if let Some(cp) = &self.checkpoint {
            writeln!(out, "checkpoint {} {}", cp.interval, cp.path.display())?;
        }
        if let Some(p) = &self.resume {
            writeln!(out, "resume {}", p.display())?;
        }
        writeln!(out, "threshold {}", self.threshold)?;
        writeln!(
            out,
            "linkage {}",
            match self.linkage {
                Linkage::Maximum => "maximum",
                Linkage::Minimum => "minimum",
                Linkage::Average => "average",
            }
        )?;
        writeln!(out, "max-depth {}", self.max_depth)?;
        if let Some(c) = self.cache {
            writeln!(out, "cache {}", if c { "on" } else { "off" })?;
        }
        if let Some(t) = self.trace {
            writeln!(
                out,
                "trace {}",
                match t {
                    TraceLevel::Incumbents => "incumbents",
                    TraceLevel::All => "all",
                }
            )?;
        }
        match &self.source {
            MatrixSource::PhylipPath(p) => writeln!(out, "matrix phylip {}", p.display())?,
            MatrixSource::Inline(m) => {
                let n = m.len();
                writeln!(out, "matrix inline {n}")?;
                if m.labels().is_some() {
                    for i in 0..n {
                        writeln!(out, "label {}", m.label(i))?;
                    }
                }
                // Strict lower triangle, one row per line, exact bits.
                let packed = m.condensed();
                let mut at = 0;
                for i in 1..n {
                    out.push_str("row");
                    for d in &packed[at..at + i] {
                        out.push(' ');
                        hex::push_u64(out, d.to_bits());
                    }
                    out.push('\n');
                    at += i;
                }
            }
        }
        Ok(())
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
                hex::parse_u64(tok)
                    .map(f64::from_bits)
                    .ok_or_else(|| fail(ln, format!("bad hex float {tok:?}")))
            };
            let bool_arg = || match rest.trim() {
                "true" => Ok(true),
                "false" => Ok(false),
                other => Err(fail(
                    ln,
                    format!("{keyword}: expected true or false, found {other:?}"),
                )),
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
                // Depth-first is the only node order; requests encoded
                // before the line was dropped still carry it.
                "strategy" => match rest.trim() {
                    "depth-first" => {}
                    other => return Err(fail(ln, format!("unknown strategy {other:?}"))),
                },
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
                    // Zero workers or slaves would panic in the solve.
                    let count = |tok: &str, what: &str| match tok.parse() {
                        Ok(0) => Err(fail(ln, format!("need at least one {what}"))),
                        Ok(n) => Ok(n),
                        Err(_) => Err(fail(ln, format!("bad {what} count {tok:?}"))),
                    };
                    req.backend = match (parts.next(), parts.next()) {
                        (Some("seq"), None) => BackendSpec::Sequential,
                        (Some("par"), Some(w)) => BackendSpec::Parallel {
                            workers: count(w, "worker")?,
                        },
                        (Some("sim"), Some(s)) => BackendSpec::SimulatedCluster {
                            slaves: count(s, "slave")?,
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
                "maxmin" => req.use_maxmin = bool_arg()?,
                "upgmm" => req.use_upgmm = bool_arg()?,
                "threads" => req.threads = Some(usize_arg()?),
                "leaf-words" => {
                    let words = usize_arg()?;
                    if !LEAF_WIDTHS.contains(&words) {
                        return Err(fail(
                            ln,
                            format!("leaf-words: {words} is not one of {LEAF_WIDTHS:?}"),
                        ));
                    }
                    req.leaf_words = Some(words);
                }
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
                "threshold" => {
                    req.threshold = usize_arg()?;
                    if req.threshold < 2 {
                        return Err(fail(ln, "threshold must be at least 2".into()));
                    }
                }
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
                            let cannot_build = |e: MatrixError| {
                                fail(ln, format!("cannot build {n}-taxon matrix: {e}"))
                            };
                            if n < 2 {
                                return Err(cannot_build(MatrixError::TooSmall { n }));
                            }
                            // Collect the packed lower triangle as rows
                            // arrive — the frame cap bounds them — and size
                            // the matrix only once all `n` rows are in: the
                            // count alone is untrusted.
                            let mut labels: Vec<String> = Vec::new();
                            let mut packed: Vec<f64> = Vec::new();
                            let mut toks: Vec<&str> = Vec::new();
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
                                toks.clear();
                                toks.extend(row.split_ascii_whitespace());
                                if toks.len() != i {
                                    return Err(fail(
                                        ln,
                                        format!("row {i} has {} entries, wants {i}", toks.len()),
                                    ));
                                }
                                for tok in &toks {
                                    let bits = hex::parse_u64(tok).ok_or_else(|| {
                                        fail(ln, format!("bad hex distance {tok:?}"))
                                    })?;
                                    packed.push(f64::from_bits(bits));
                                }
                                i += 1;
                                if i == n {
                                    break;
                                }
                            }
                            if i != n {
                                return Err(fail(0, format!("matrix ended at row {i} of {n}")));
                            }
                            let mut m =
                                DistanceMatrix::from_condensed(n, packed).map_err(cannot_build)?;
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
            .cache(true);
        req.three_three = ThreeThree::Full;
        req.tol = 1e-7;
        req.max_branches = 123_456;
        req.timeout = Some(Duration::from_millis(1500));
        req.use_maxmin = false;
        req.memory = Some(MemoryBudget::new(9999));
        req.checkpoint = Some(CheckpointPolicy::new("/tmp/ck pt.bin").interval(64));
        req.resume = Some(PathBuf::from("/tmp/old.ckpt"));
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
    fn hex_floats_must_be_the_canonical_sixteen_digits() {
        // The encoder writes `{:016x}`: a short, long, signed or
        // uppercase token is corruption, rejected by its line.
        for tok in [
            "3ff",
            "+3ff000000000000",
            "+3ff0000000000000",
            "3FF0000000000000",
            "03ff0000000000000",
        ] {
            let text = format!(
                "mutree-request v1\nmatrix inline 3\nrow 4000000000000000\n\
                 row 4000000000000000 {tok}\n"
            );
            let err = SolveRequest::decode(&text).unwrap_err();
            assert_eq!(err.line, 4, "{tok}: {err}");
            assert_eq!(err.message, format!("bad hex distance {tok:?}"));
            let text = format!("mutree-request v1\ntol {tok}\nmatrix phylip x.phy\n");
            let err = SolveRequest::decode(&text).unwrap_err();
            assert_eq!(err.line, 2, "{tok}: {err}");
            assert_eq!(err.message, format!("bad hex float {tok:?}"));
        }
    }

    #[test]
    fn invalid_inline_distances_are_errors_not_panics() {
        // NaN, -1.0 and +inf: `DistanceMatrix::set` would assert on each.
        for bits in ["7ff8000000000000", "bff0000000000000", "7ff0000000000000"] {
            let text = format!(
                "mutree-request v1\nmatrix inline 3\nrow 4000000000000000\n\
                 row 4000000000000000 {bits}\n"
            );
            let err = SolveRequest::decode(&text).unwrap_err();
            assert_eq!(err.line, 2, "{bits}: {err}");
            assert!(
                err.message
                    .starts_with("cannot build 3-taxon matrix: entry (2, 1)"),
                "{bits}: {err}"
            );
        }
    }

    #[test]
    fn boolean_switches_accept_only_true_or_false() {
        for keyword in ["maxmin", "upgmm"] {
            for (value, expect) in [("true", true), ("false", false)] {
                let text = format!("mutree-request v1\n{keyword} {value}\nmatrix phylip x.phy\n");
                let req = SolveRequest::decode(&text).unwrap();
                let got = if keyword == "maxmin" {
                    req.use_maxmin
                } else {
                    req.use_upgmm
                };
                assert_eq!(got, expect, "{keyword} {value}");
            }
            // A typo must not silently switch the heuristic off.
            for value in ["yes", "TRUE", "1", ""] {
                let text = format!("mutree-request v1\nmode best-one\n{keyword} {value}\n");
                let err = SolveRequest::decode(&text).unwrap_err();
                assert_eq!(err.line, 3, "{keyword} {value:?}");
                assert_eq!(
                    err.message,
                    format!("{keyword}: expected true or false, found {value:?}")
                );
            }
        }
    }

    #[test]
    fn retired_search_knobs_are_rejected() {
        // Every request encoded before the node order was fixed carries
        // this line; it still decodes. The line that asked for stage
        // re-runs is gone (a failed deterministic stage fails again), so
        // it is refused.
        let old = "mutree-request v1\nstrategy depth-first\nmatrix phylip x.phy\n";
        assert!(SolveRequest::decode(old).is_ok());
        for (line, message) in [
            ("strategy best-first", "unknown strategy \"best-first\""),
            (
                concat!("frontier", "-shards 8"),
                concat!("unknown keyword \"frontier", "-shards\""),
            ),
            (
                concat!("re", "try 3 0 0 1"),
                concat!("unknown keyword \"re", "try\""),
            ),
        ] {
            let text = format!("mutree-request v1\nmode best-one\n{line}\nmatrix phylip x.phy\n");
            let err = SolveRequest::decode(&text).unwrap_err();
            assert_eq!(err.line, 3, "{line}");
            assert_eq!(err.message, message, "{line}");
        }
    }

    #[test]
    fn inline_taxon_counts_are_not_trusted_before_the_rows_arrive() {
        // A bare count must not size anything: 200000 taxa would ask for
        // 160 GB up front, and u64::MAX would wrap the entry count to one
        // slot that the second row overruns.
        let rows = "row 4000000000000000\nrow 4000000000000000 4000000000000000\n";
        for n in ["200000", "18446744073709551615"] {
            let text = format!("mutree-request v1\nmatrix inline {n}\n{rows}");
            let err = SolveRequest::decode(&text).unwrap_err();
            assert_eq!(err.message, format!("matrix ended at row 3 of {n}"), "{n}");
        }
        let err = SolveRequest::decode("mutree-request v1\nmatrix inline 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message.starts_with("cannot build 1-taxon matrix"),
            "{err}"
        );
    }

    #[test]
    fn zero_worker_and_slave_counts_are_rejected() {
        // Zero workers or slaves would panic inside the solve; the decoder
        // must turn them away with the line that asked for them.
        for (backend, message) in [
            ("par 0", "need at least one worker"),
            ("sim 0", "need at least one slave"),
        ] {
            let text = format!("mutree-request v1\nmode best-one\nbackend {backend}\n");
            let err = SolveRequest::decode(&text).unwrap_err();
            assert_eq!(err.line, 3, "{backend}");
            assert_eq!(err.message, message, "{backend}");
        }
        let ok = "mutree-request v1\nbackend par 1\nmatrix phylip x.phy\n";
        assert!(SolveRequest::decode(ok).is_ok());
    }

    #[test]
    fn thresholds_below_two_and_unsupported_leaf_widths_are_rejected() {
        for (line, message) in [
            ("threshold 0", "threshold must be at least 2".to_string()),
            ("threshold 1", "threshold must be at least 2".to_string()),
            (
                "leaf-words 0",
                format!("leaf-words: 0 is not one of {LEAF_WIDTHS:?}"),
            ),
            (
                "leaf-words 3",
                format!("leaf-words: 3 is not one of {LEAF_WIDTHS:?}"),
            ),
            (
                "leaf-words 8",
                format!("leaf-words: 8 is not one of {LEAF_WIDTHS:?}"),
            ),
        ] {
            let text = format!("mutree-request v1\nmode best-one\n{line}\nmatrix phylip x.phy\n");
            let err = SolveRequest::decode(&text).unwrap_err();
            assert_eq!(err.line, 3, "{line}");
            assert_eq!(err.message, message, "{line}");
        }
        let text = "mutree-request v1\nthreshold 2\nmatrix phylip x.phy\n";
        assert_eq!(SolveRequest::decode(text).unwrap().threshold, 2);
        for words in LEAF_WIDTHS {
            let text = format!("mutree-request v1\nleaf-words {words}\nmatrix phylip x.phy\n");
            assert_eq!(SolveRequest::decode(&text).unwrap().leaf_words, Some(words));
        }
    }
}
