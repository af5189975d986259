//! Wire codecs for the serve daemon: `mutree-report v1` and
//! `mutree-error v1`.
//!
//! The daemon (`crates/serve`) carries the existing [`SolveRequest`]
//! text codec over length-prefixed frames; this module adds the response
//! side. A [`SolveReport`] serializes to the same line-based keyword
//! style as the request codec, with every `f64` written as its IEEE-754
//! bit pattern in hex, so a report decoded on the client is **bit
//! identical** to the one the server computed: weights, per-stage
//! seconds, tree heights, search statistics, stop reasons and
//! degradation provenance all survive the round trip exactly.
//!
//! Trees ride along as the hex of the checkpoint byte codec
//! ([`mutree_tree::codec`]), which already guarantees bit-exact heights
//! and validates structure on decode.
//!
//! One field does not cross the wire: `sim`, the discrete-event
//! statistics of the simulated-cluster backend. It is a diagnostic of
//! the *server's* run, not part of the answer, and its nested report has
//! no stability contract; `decode` always leaves it `None`.
//!
//! [`ServeError`] is the structured error frame: a stable machine-readable
//! [`code`](ServeError::code) (the admission controller's `overloaded`
//! shed, `malformed` input, a `panicked` worker, ...) plus a free-text
//! message.
//!
//! [`SolveRequest`]: crate::SolveRequest

use std::fmt::Write as _;

use mutree_bnb::{SearchStats, StopReason};
use mutree_tree::codec as tree_codec;

use crate::hex;
use crate::report::{DegradeReason, DegradedGroup, SolveReport, StageProvenance, StageTiming};

/// First line of every serialized request (the codec in
/// [`SolveRequest::encode`](crate::SolveRequest::encode)).
pub const REQUEST_HEADER: &str = "mutree-request v1";
/// First line of every serialized report.
pub const REPORT_HEADER: &str = "mutree-report v1";
/// First line of every serialized error frame.
pub const ERROR_HEADER: &str = "mutree-error v1";
/// Payload a client sends to ask the daemon for a graceful drain.
pub const SHUTDOWN_HEADER: &str = "mutree-shutdown v1";

/// A malformed `mutree-report v1` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "report line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ReportError {}

fn stop_token(stop: StopReason) -> &'static str {
    match stop {
        StopReason::Completed => "completed",
        StopReason::BudgetExhausted => "budget",
        StopReason::DeadlineExpired => "deadline",
        StopReason::Cancelled => "cancelled",
        StopReason::MemoryExhausted => "memory",
        StopReason::WorkerPanicked => "worker-panic",
    }
}

fn parse_stop(tok: &str) -> Option<StopReason> {
    Some(match tok {
        "completed" => StopReason::Completed,
        "budget" => StopReason::BudgetExhausted,
        "deadline" => StopReason::DeadlineExpired,
        "cancelled" => StopReason::Cancelled,
        "memory" => StopReason::MemoryExhausted,
        "worker-panic" => StopReason::WorkerPanicked,
        _ => return None,
    })
}

fn provenance_token(p: StageProvenance) -> &'static str {
    match p {
        StageProvenance::Solved => "solved",
        StageProvenance::Cached => "cached",
        StageProvenance::WarmSeeded => "warm-seeded",
    }
}

fn parse_provenance(tok: &str) -> Option<StageProvenance> {
    Some(match tok {
        "solved" => StageProvenance::Solved,
        "cached" => StageProvenance::Cached,
        "warm-seeded" => StageProvenance::WarmSeeded,
        _ => return None,
    })
}

/// The search statistics in a fixed wire order. Every counter crosses the
/// wire; a new counter appended here stays decodable by older readers
/// because unknown `stat` names are an explicit decode error (the codec
/// is versioned, not sloppy) while *missing* ones default to zero.
const STAT_FIELDS: [&str; 16] = [
    "branched",
    "pruned",
    "propagation-pruned",
    "solutions-seen",
    "incumbent-updates",
    "peak-pool",
    "steals",
    "donations",
    "parks",
    "retries",
    "nodes-shed",
    "checkpoints",
    "cache-hits",
    "cache-misses",
    "cache-warm-seeds",
    "cache-poisoned",
];

fn stat_values(s: &SearchStats) -> [u64; 16] {
    [
        s.branched,
        s.pruned,
        s.propagation_pruned,
        s.solutions_seen,
        s.incumbent_updates,
        s.peak_pool,
        s.steals,
        s.donations,
        s.parks,
        s.retries,
        s.nodes_shed,
        s.checkpoints,
        s.cache_hits,
        s.cache_misses,
        s.cache_warm_seeds,
        s.cache_poisoned,
    ]
}

fn set_stat(s: &mut SearchStats, name: &str, v: u64) -> bool {
    match name {
        "branched" => s.branched = v,
        "pruned" => s.pruned = v,
        "propagation-pruned" => s.propagation_pruned = v,
        "solutions-seen" => s.solutions_seen = v,
        "incumbent-updates" => s.incumbent_updates = v,
        "peak-pool" => s.peak_pool = v,
        "steals" => s.steals = v,
        "donations" => s.donations = v,
        "parks" => s.parks = v,
        "retries" => s.retries = v,
        "nodes-shed" => s.nodes_shed = v,
        "checkpoints" => s.checkpoints = v,
        "cache-hits" => s.cache_hits = v,
        "cache-misses" => s.cache_misses = v,
        "cache-warm-seeds" => s.cache_warm_seeds = v,
        "cache-poisoned" => s.cache_poisoned = v,
        _ => return false,
    }
    true
}

/// Appends a newline-free free-text tail: embedded newlines would
/// smuggle extra protocol lines into the document, so they are flattened
/// to spaces.
fn push_flat(out: &mut String, text: &str) {
    for (i, piece) in text.split(['\n', '\r']).enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(piece);
    }
}

impl SolveReport {
    /// Serializes the report to its `mutree-report v1` line form.
    ///
    /// Everything except `sim` crosses the wire (see the module docs);
    /// [`decode`](SolveReport::decode) reproduces the same report to the
    /// bit — weights and stage seconds as IEEE-754 bit patterns, tree
    /// heights through the checkpoint byte codec.
    pub fn encode(&self) -> String {
        let trees: Vec<Vec<u8>> = std::iter::once(&self.tree)
            .chain(&self.trees)
            .map(tree_codec::encode_tree)
            .collect();
        // A capacity hint: the tree lines dominate a report.
        let tree_hex: usize = trees.iter().map(|t| 2 * t.len() + 6).sum();
        let mut out = String::with_capacity(1024 + tree_hex);
        self.write_lines(&trees, &mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// The body of [`encode`](SolveReport::encode): `trees` holds the codec
    /// bytes of the best tree, then of every returned tree.
    fn write_lines(&self, trees: &[Vec<u8>], out: &mut String) -> std::fmt::Result {
        out.push_str(REPORT_HEADER);
        out.push_str("\nweight ");
        hex::push_u64(out, self.weight.to_bits());
        writeln!(out, "\nstop {}", stop_token(self.stop))?;
        for (name, value) in STAT_FIELDS.iter().zip(stat_values(&self.stats)) {
            writeln!(out, "stat {name} {value}")?;
        }
        if let Some(w) = self.leaf_words {
            writeln!(out, "leaf-words {w}")?;
        }
        if let Some(c) = self.compact_sets {
            writeln!(out, "compact-sets {c}")?;
        }
        if let Some(groups) = &self.groups {
            writeln!(out, "groups {}", groups.len())?;
            for g in groups {
                out.push_str("group");
                for taxon in g {
                    write!(out, " {taxon}")?;
                }
                out.push('\n');
            }
        }
        for t in &self.timings {
            write!(
                out,
                "timing {} {} ",
                t.attempts,
                provenance_token(t.provenance)
            )?;
            hex::push_u64(out, t.seconds.to_bits());
            out.push(' ');
            push_flat(out, &t.stage);
            out.push('\n');
        }
        for d in &self.degraded {
            match d.group {
                Some(g) => write!(out, "degraded {g} {} ", d.attempts)?,
                None => write!(out, "degraded - {} ", d.attempts)?,
            }
            match &d.reason {
                DegradeReason::Stopped(r) => write!(out, "stopped {}", stop_token(*r))?,
                DegradeReason::Error(msg) => {
                    out.push_str("error ");
                    push_flat(out, msg);
                }
                DegradeReason::Panicked => out.push_str("panicked"),
            }
            out.push_str("\ndegraded-stage ");
            push_flat(out, &d.stage);
            out.push('\n');
        }
        for (i, bytes) in trees.iter().enumerate() {
            out.push_str(if i == 0 { "best " } else { "tree " });
            hex::push_bytes(out, bytes);
            out.push('\n');
        }
        Ok(())
    }

    /// Parses the text form produced by [`encode`](SolveReport::encode).
    ///
    /// # Errors
    ///
    /// [`ReportError`] naming the offending line on any malformed input:
    /// a wrong header, unknown keywords or tokens, bad hex, undecodable
    /// tree bytes, a dangling `degraded` record, or a missing mandatory
    /// field (`weight`, `stop`, `best`, at least one `tree`).
    pub fn decode(text: &str) -> Result<SolveReport, ReportError> {
        let fail = |line: usize, message: String| ReportError {
            line: line + 1,
            message,
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, line)) if line == REPORT_HEADER => {}
            other => {
                return Err(fail(
                    0,
                    format!("expected {REPORT_HEADER:?} header, found {other:?}"),
                ))
            }
        }
        let mut weight: Option<f64> = None;
        let mut stop: Option<StopReason> = None;
        let mut stats = SearchStats::default();
        let mut leaf_words = None;
        let mut compact_sets = None;
        let mut groups: Option<Vec<Vec<usize>>> = None;
        let mut group_count = 0usize;
        let mut timings: Vec<StageTiming> = Vec::new();
        let mut degraded: Vec<DegradedGroup> = Vec::new();
        let mut stage_pending = false;
        let mut best = None;
        let mut trees = Vec::new();
        for (ln, raw) in lines {
            let raw = raw.trim_end();
            if raw.is_empty() {
                continue;
            }
            let (keyword, rest) = raw.split_once(' ').unwrap_or((raw, ""));
            let bits_of = |tok: &str| -> Result<f64, ReportError> {
                // Exactly 16 digits, matching the canonical `{:016x}`
                // encoding — a short token is corruption, not leniency.
                hex::parse_u64(tok)
                    .map(f64::from_bits)
                    .ok_or_else(|| fail(ln, format!("bad hex float {tok:?}")))
            };
            let tree_of = |tok: &str| -> Result<_, ReportError> {
                hex::parse_bytes(tok)
                    .and_then(|b| tree_codec::decode_tree(&b))
                    .ok_or_else(|| fail(ln, format!("{keyword}: undecodable tree bytes")))
            };
            if stage_pending && keyword != "degraded-stage" {
                return Err(fail(
                    ln,
                    "degraded record is missing its degraded-stage line".to_string(),
                ));
            }
            match keyword {
                "weight" => weight = Some(bits_of(rest.trim())?),
                "stop" => {
                    stop = Some(parse_stop(rest.trim()).ok_or_else(|| {
                        fail(ln, format!("unknown stop reason {:?}", rest.trim()))
                    })?)
                }
                "stat" => {
                    let (name, value) = rest
                        .trim()
                        .split_once(' ')
                        .ok_or_else(|| fail(ln, format!("stat: missing value in {rest:?}")))?;
                    let value: u64 = value
                        .trim()
                        .parse()
                        .map_err(|_| fail(ln, format!("stat {name}: bad count {value:?}")))?;
                    if !set_stat(&mut stats, name, value) {
                        return Err(fail(ln, format!("unknown stat {name:?}")));
                    }
                }
                "leaf-words" => {
                    leaf_words = Some(
                        rest.trim()
                            .parse::<usize>()
                            .map_err(|_| fail(ln, format!("leaf-words: bad count {rest:?}")))?,
                    )
                }
                "compact-sets" => {
                    compact_sets = Some(
                        rest.trim()
                            .parse::<usize>()
                            .map_err(|_| fail(ln, format!("compact-sets: bad count {rest:?}")))?,
                    )
                }
                "groups" => {
                    group_count = rest
                        .trim()
                        .parse()
                        .map_err(|_| fail(ln, format!("groups: bad count {rest:?}")))?;
                    // The count is untrusted: the group lines that follow
                    // grow the list, the count only checks it.
                    groups = Some(Vec::new());
                }
                "group" => {
                    let list = groups
                        .as_mut()
                        .ok_or_else(|| fail(ln, "group before groups count".to_string()))?;
                    let taxa = rest
                        .split_whitespace()
                        .map(|t| {
                            t.parse::<usize>()
                                .map_err(|_| fail(ln, format!("group: bad taxon {t:?}")))
                        })
                        .collect::<Result<Vec<usize>, ReportError>>()?;
                    list.push(taxa);
                }
                "timing" => {
                    let mut toks = rest.splitn(4, ' ');
                    let attempts = toks
                        .next()
                        .and_then(|t| t.parse::<u32>().ok())
                        .ok_or_else(|| fail(ln, format!("timing: bad attempts in {rest:?}")))?;
                    let provenance = toks
                        .next()
                        .and_then(parse_provenance)
                        .ok_or_else(|| fail(ln, format!("timing: bad provenance in {rest:?}")))?;
                    let seconds = bits_of(toks.next().unwrap_or(""))?;
                    let stage = toks.next().unwrap_or("").to_string();
                    timings.push(StageTiming {
                        stage,
                        seconds,
                        attempts,
                        provenance,
                    });
                }
                "degraded" => {
                    let mut toks = rest.splitn(3, ' ');
                    let group = match toks.next() {
                        Some("-") => None,
                        Some(g) => Some(
                            g.parse::<usize>()
                                .map_err(|_| fail(ln, format!("degraded: bad group {g:?}")))?,
                        ),
                        None => return Err(fail(ln, "degraded: missing group".to_string())),
                    };
                    let attempts = toks
                        .next()
                        .and_then(|t| t.parse::<u32>().ok())
                        .ok_or_else(|| fail(ln, format!("degraded: bad attempts in {rest:?}")))?;
                    let reason = match toks.next().map(|r| r.split_once(' ').unwrap_or((r, ""))) {
                        Some(("stopped", tok)) => {
                            DegradeReason::Stopped(parse_stop(tok.trim()).ok_or_else(|| {
                                fail(ln, format!("degraded: unknown stop reason {tok:?}"))
                            })?)
                        }
                        Some(("error", msg)) => DegradeReason::Error(msg.to_string()),
                        Some(("panicked", "")) => DegradeReason::Panicked,
                        other => {
                            return Err(fail(ln, format!("degraded: unknown reason {other:?}")))
                        }
                    };
                    degraded.push(DegradedGroup {
                        group,
                        stage: String::new(),
                        reason,
                        attempts,
                    });
                    stage_pending = true;
                }
                "degraded-stage" => {
                    if !stage_pending {
                        return Err(fail(ln, "degraded-stage without degraded".to_string()));
                    }
                    degraded
                        .last_mut()
                        .expect("stage_pending implies a record")
                        .stage = rest.to_string();
                    stage_pending = false;
                }
                "best" => best = Some(tree_of(rest.trim())?),
                "tree" => trees.push(tree_of(rest.trim())?),
                other => return Err(fail(ln, format!("unknown keyword {other:?}"))),
            }
        }
        // A whole-document error names the line after the last one; only
        // a failing decode counts the lines.
        let at_end = |message: String| fail(text.lines().count(), message);
        if stage_pending {
            return Err(at_end(
                "degraded record is missing its degraded-stage line".to_string(),
            ));
        }
        let missing = |what: &str| at_end(format!("missing {what}"));
        if let Some(groups) = &groups {
            if groups.len() != group_count {
                return Err(at_end(format!(
                    "groups: expected {group_count}, found {}",
                    groups.len()
                )));
            }
        }
        if trees.is_empty() {
            return Err(missing("tree"));
        }
        Ok(SolveReport {
            tree: best.ok_or_else(|| missing("best"))?,
            weight: weight.ok_or_else(|| missing("weight"))?,
            trees,
            stats,
            stop: stop.ok_or_else(|| missing("stop"))?,
            degraded,
            timings,
            groups,
            compact_sets,
            sim: None,
            leaf_words,
        })
    }
}

/// Machine-readable class of a [`ServeError`] frame. The token set is
/// part of the `mutree-error v1` contract: clients branch on the code,
/// never on the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeErrorCode {
    /// The frame's payload was not a well-formed request (bad header,
    /// codec error, oversized or truncated frame, non-UTF-8 bytes, or a
    /// matrix source the daemon refuses, such as server-local paths).
    Malformed,
    /// The admission controller shed the request: the pending queue was
    /// at its configured depth, or the request's deadline had already
    /// passed when it would have been dispatched.
    Overloaded,
    /// The daemon is draining and accepts no new work.
    Draining,
    /// The request's `CancelToken` fired (its client disconnected)
    /// before a report could be produced.
    Cancelled,
    /// The solve panicked; the daemon and its pool survived, this
    /// request alone failed.
    Panicked,
    /// The solver returned an error (bad matrix, unresumable checkpoint,
    /// ...), carried in the message.
    Solver,
}

impl ServeErrorCode {
    /// The stable wire token for this code.
    pub fn token(self) -> &'static str {
        match self {
            ServeErrorCode::Malformed => "malformed",
            ServeErrorCode::Overloaded => "overloaded",
            ServeErrorCode::Draining => "draining",
            ServeErrorCode::Cancelled => "cancelled",
            ServeErrorCode::Panicked => "panicked",
            ServeErrorCode::Solver => "solver",
        }
    }

    /// Parses a wire token back to a code.
    pub fn parse(tok: &str) -> Option<ServeErrorCode> {
        Some(match tok.trim() {
            "malformed" => ServeErrorCode::Malformed,
            "overloaded" => ServeErrorCode::Overloaded,
            "draining" => ServeErrorCode::Draining,
            "cancelled" => ServeErrorCode::Cancelled,
            "panicked" => ServeErrorCode::Panicked,
            "solver" => ServeErrorCode::Solver,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ServeErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// The structured error frame a daemon sends instead of a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// What class of failure this is.
    pub code: ServeErrorCode,
    /// Human-readable detail (single line; newlines are flattened on
    /// encode).
    pub message: String,
}

impl ServeError {
    /// Builds an error frame.
    pub fn new(code: ServeErrorCode, message: impl Into<String>) -> ServeError {
        ServeError {
            code,
            message: message.into(),
        }
    }

    /// Serializes to the `mutree-error v1` line form.
    pub fn encode(&self) -> String {
        let mut out = format!("{ERROR_HEADER}\ncode {}\nmessage ", self.code.token());
        push_flat(&mut out, &self.message);
        out.push('\n');
        out
    }

    /// Parses the text form produced by [`encode`](ServeError::encode).
    ///
    /// # Errors
    ///
    /// [`ReportError`] on a wrong header, an unknown code, or a missing
    /// code line.
    pub fn decode(text: &str) -> Result<ServeError, ReportError> {
        let fail = |line: usize, message: String| ReportError { line, message };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, line)) if line == ERROR_HEADER => {}
            other => {
                return Err(fail(
                    1,
                    format!("expected {ERROR_HEADER:?} header, found {other:?}"),
                ))
            }
        }
        let mut code = None;
        let mut message = String::new();
        for (ln, raw) in lines {
            let raw = raw.trim_end();
            if raw.is_empty() {
                continue;
            }
            let (keyword, rest) = raw.split_once(' ').unwrap_or((raw, ""));
            match keyword {
                "code" => {
                    code = Some(ServeErrorCode::parse(rest).ok_or_else(|| {
                        fail(ln + 1, format!("unknown error code {:?}", rest.trim()))
                    })?)
                }
                "message" => message = rest.to_string(),
                other => return Err(fail(ln + 1, format!("unknown keyword {other:?}"))),
            }
        }
        Ok(ServeError {
            code: code.ok_or_else(|| fail(text.lines().count(), "missing code".to_string()))?,
            message,
        })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_tree::UltrametricTree;

    fn tree(n: usize) -> UltrametricTree {
        let mut t = UltrametricTree::leaf(0);
        for taxon in 1..n {
            let h = taxon as f64 * 1.25;
            t = UltrametricTree::join(t, UltrametricTree::leaf(taxon), h);
        }
        t
    }

    fn report() -> SolveReport {
        let t = tree(5);
        SolveReport {
            tree: t.clone(),
            weight: 12.345678901234567,
            trees: vec![t.clone(), tree(5)],
            stats: SearchStats {
                branched: 11,
                pruned: 7,
                propagation_pruned: 3,
                cache_hits: 2,
                cache_poisoned: 1,
                ..SearchStats::default()
            },
            stop: StopReason::DeadlineExpired,
            degraded: vec![
                DegradedGroup {
                    group: Some(3),
                    stage: "meta[1]/group 0".to_string(),
                    reason: DegradeReason::Stopped(StopReason::Cancelled),
                    attempts: 2,
                },
                DegradedGroup {
                    group: None,
                    stage: "meta".to_string(),
                    reason: DegradeReason::Error("solver error: bad matrix".to_string()),
                    attempts: 1,
                },
            ],
            timings: vec![StageTiming {
                stage: "group 0".to_string(),
                seconds: 0.001953125,
                attempts: 3,
                provenance: StageProvenance::WarmSeeded,
            }],
            groups: Some(vec![vec![0, 1], vec![2, 3, 4], vec![]]),
            compact_sets: Some(3),
            sim: None,
            leaf_words: Some(2),
        }
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let r = report();
        let decoded = SolveReport::decode(&r.encode()).unwrap();
        assert_eq!(decoded.weight.to_bits(), r.weight.to_bits());
        assert_eq!(decoded.stop, r.stop);
        assert_eq!(decoded.stats, r.stats);
        assert_eq!(decoded.degraded, r.degraded);
        assert_eq!(decoded.timings, r.timings);
        assert_eq!(decoded.groups, r.groups);
        assert_eq!(decoded.compact_sets, r.compact_sets);
        assert_eq!(decoded.leaf_words, r.leaf_words);
        assert_eq!(decoded.trees.len(), r.trees.len());
        assert_eq!(
            tree_codec::encode_tree(&decoded.tree),
            tree_codec::encode_tree(&r.tree)
        );
    }

    #[test]
    fn header_is_mandatory() {
        let err = SolveReport::decode("mutree-report v2\nweight 0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(ServeError::decode("not an error frame").is_err());
    }

    #[test]
    fn unknown_keyword_and_bad_hex_are_rejected() {
        let good = report().encode();
        let with_junk = format!("{good}bogus 1\n");
        assert!(SolveReport::decode(&with_junk).is_err());
        let bad_hex = good.replace("weight ", "weight zz");
        assert!(SolveReport::decode(&bad_hex).is_err());
    }

    #[test]
    fn truncated_document_is_rejected() {
        let good = report().encode();
        let no_best: String = good
            .lines()
            .filter(|l| !l.starts_with("best"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = SolveReport::decode(&no_best).unwrap_err();
        assert!(err.message.contains("missing best"), "{err}");
    }

    #[test]
    fn dangling_degraded_record_is_rejected() {
        let text = format!(
            "{REPORT_HEADER}\nweight 3ff0000000000000\nstop completed\ndegraded - 1 panicked\n"
        );
        let err = SolveReport::decode(&text).unwrap_err();
        assert!(err.message.contains("degraded-stage"), "{err}");
    }

    #[test]
    fn error_frame_round_trips() {
        let e = ServeError::new(ServeErrorCode::Overloaded, "queue full (depth 4)");
        assert_eq!(ServeError::decode(&e.encode()).unwrap(), e);
        let empty = ServeError::new(ServeErrorCode::Cancelled, "");
        assert_eq!(ServeError::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn newlines_in_messages_cannot_smuggle_lines() {
        let e = ServeError::new(ServeErrorCode::Solver, "two\nlines");
        let decoded = ServeError::decode(&e.encode()).unwrap();
        assert_eq!(decoded.message, "two lines");
    }
}
