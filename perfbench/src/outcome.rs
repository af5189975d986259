//! What a run reports: end-to-end metrics from the untraced run, and
//! per-layer metrics from the traced one.

use std::fmt::Write as _;

use mutree_core::{QueueStats, SearchStats, SolveReport, StageTiming};
use mutree_serve::ServeSummary;

use crate::stats::{median, tail, Tail};
use crate::trace::Tracer;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context for the record (tail percentiles, sample counts, ...).
    pub notes: Vec<(String, String)>,
    pub mismatches: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// The result as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}, \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {}", json_string(k), json_string(v));
        }
        s.push_str("}}");
        s
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The measurements behind the end-to-end metrics of an untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds of each repeated set-up.
    pub setups: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds of the timed phase.
    pub elapsed: f64,
    /// Completed solves per second, as the workload estimates it.
    pub throughput: f64,
    /// How the throughput was estimated, for the record.
    pub throughput_kind: &'static str,
    /// Latency samples in seconds (per instance or per request).
    pub latencies: Vec<f64>,
    /// What one latency sample is, for the record.
    pub sample_kind: &'static str,
    /// Peak resident memory in MiB, read where the workload chose to.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn into_outcome(self) -> Outcome {
        let completed = self.attempted - self.failed;
        // A run whose every request failed has no latency to report.
        let latencies = if self.latencies.is_empty() {
            vec![0.0]
        } else {
            self.latencies
        };
        let t: Tail = tail(&latencies);
        let mut out = Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: median(&self.setups),
                },
                Metric {
                    name: "solves_per_s",
                    unit: "1/s",
                    value: self.throughput,
                },
                Metric {
                    name: "latency_p50_ms",
                    unit: "ms",
                    value: median(&latencies) * 1e3,
                },
                Metric {
                    name: "latency_tail_ms",
                    unit: "ms",
                    value: t.value * 1e3,
                },
                Metric {
                    name: "completed_frac",
                    unit: "ratio",
                    value: completed as f64 / self.attempted.max(1) as f64,
                },
                Metric {
                    name: "peak_rss_mb",
                    unit: "MiB",
                    value: self.peak_rss_mb,
                },
            ],
            ..Outcome::default()
        };
        out.note("latency_tail_percentile", t.percentile);
        out.note("latency_tail_samples", t.samples);
        out.note("latency_tail_beyond", t.beyond);
        out.note("latency_sample", self.sample_kind);
        out.note("setup_repeats", self.setups.len());
        out.note(
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        out.note("elapsed_s", self.elapsed);
        out.note("throughput_estimate", self.throughput_kind);
        out.note("overall_solves_per_s", completed as f64 / self.elapsed);
        out
    }
}

/// Counters read from reports and executors during a traced run.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests the traced phase completed a round for.
    pub requests: u64,
    pub stats: SearchStats,
    /// Solver seconds known from reports (decompose stages, daemon
    /// replies); exact in-process solves take theirs from spans.
    pub solver_s: f64,
    pub decomposed: u64,
    pub group_s: f64,
    pub meta_s: f64,
    pub other_s: f64,
    pub degraded: u64,
    pub compact_sets: u64,
    pub groups: u64,
    pub queue: QueueStats,
    pub exact_requests: u64,
    pub cache_hits: u64,
    pub request_bytes: u64,
    pub report_bytes: u64,
    /// Daemon round trips and their overhead over the report's own solve
    /// time, in seconds.
    pub rtts: Vec<f64>,
    pub overheads: Vec<f64>,
    pub summary: ServeSummary,
    /// Median latency of the untraced phase the traced one is compared to.
    pub untraced_p50_s: Option<f64>,
}

/// Whether a stage path ends in a stage that ran a search itself.
fn is_solve_stage(stage: &str, all: &[StageTiming]) -> bool {
    let last = stage.rsplit('/').next().unwrap_or(stage);
    if last.starts_with("group") || last == "whole" {
        return true;
    }
    // A meta stage searched itself unless the pipeline recursed below it.
    let prefix = &stage[..stage.len() - last.len()];
    let child = format!("{prefix}meta[");
    last == "meta" && !all.iter().any(|t| t.stage.starts_with(&child))
}

impl Counters {
    /// Folds in one decomposed report whose pipeline call took `wall`
    /// seconds, where the caller could time the call itself.
    pub fn pipeline_report(&mut self, report: &SolveReport, wall: Option<f64>) {
        self.decomposed += 1;
        self.degraded += report.degraded.len() as u64;
        self.compact_sets += report.compact_sets.unwrap_or(0) as u64;
        self.groups += report.groups.as_ref().map_or(0, |g| g.len()) as u64;
        let top = report.timings.iter().filter(|t| !t.stage.contains('/'));
        let (mut groups, mut slowest_group, mut meta, mut merge) = (0.0, 0.0f64, 0.0, 0.0);
        for t in top {
            if t.stage.starts_with("group") {
                groups += t.seconds;
                slowest_group = slowest_group.max(t.seconds);
            } else if t.stage == "meta" || t.stage == "whole" {
                meta += t.seconds;
            } else if t.stage == "merge" {
                merge += t.seconds;
            }
        }
        self.group_s += groups;
        self.meta_s += meta;
        // Time off the critical stage path: compact sets, condensation,
        // submatrix copies and task-graph overhead.
        if let Some(wall) = wall {
            self.other_s += wall - (slowest_group.max(meta) + merge);
        }
        self.solver_s += report
            .timings
            .iter()
            .filter(|t| is_solve_stage(&t.stage, &report.timings))
            .map(|t| t.seconds)
            .sum::<f64>();
    }

    /// Every per-layer metric, from the counters and the spans.
    pub fn per_layer(&self, spans: &Tracer) -> Vec<Metric> {
        let layers = spans.layers();
        let self_s = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s);
        let req = self.requests.max(1) as f64;
        let per_req = |x: f64| x / req;
        let solver_s = self.solver_s + self_s("core.solver");
        let s = &self.stats;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let per_decomposed = |x: f64| x / self.decomposed.max(1) as f64;
        let root = spans.durations("request");
        let ms_median = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) * 1e3 };
        let overhead_tail = if self.overheads.is_empty() {
            0.0
        } else {
            tail(&self.overheads).value * 1e3
        };
        let trace_overhead = match (self.untraced_p50_s, root.is_empty()) {
            (Some(base), false) if base > 0.0 => (median(&root) / base - 1.0) * 100.0,
            _ => 0.0,
        };
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("bnb.branched", "count", per_req(s.branched as f64)),
            m("bnb.pruned", "count", per_req(s.pruned as f64)),
            m(
                "bnb.propagation_pruned",
                "count",
                per_req(s.propagation_pruned as f64),
            ),
            m(
                "bnb.pruned_per_branch",
                "ratio",
                ratio(s.pruned, s.branched),
            ),
            m(
                "bnb.incumbent_updates",
                "count",
                per_req(s.incumbent_updates as f64),
            ),
            m("bnb.peak_pool", "count", s.peak_pool as f64),
            m(
                "bnb.knodes_per_s",
                "knodes/s",
                if solver_s > 0.0 {
                    s.branched as f64 / solver_s / 1e3
                } else {
                    0.0
                },
            ),
            m("bnb.steals", "count", per_req(s.steals as f64)),
            m("bnb.donations", "count", per_req(s.donations as f64)),
            m("bnb.parks", "count", per_req(s.parks as f64)),
            m("distmat.maxmin_s", "s", per_req(self_s("distmat.maxmin"))),
            m(
                "distmat.solver_matrix_s",
                "s",
                per_req(self_s("distmat.solver_matrix")),
            ),
            m("tree.upgmm_s", "s", per_req(self_s("tree.upgmm"))),
            m(
                "tree.fit_heights_s",
                "s",
                per_req(self_s("tree.fit_heights")),
            ),
            m(
                "graph.compact_sets_s",
                "s",
                per_decomposed(self_s("graph.compact_sets")),
            ),
            m(
                "graph.partition_s",
                "s",
                per_decomposed(self_s("graph.partition")),
            ),
            m(
                "graph.compact_sets",
                "count",
                per_decomposed(self.compact_sets as f64),
            ),
            m("graph.groups", "count", per_decomposed(self.groups as f64)),
            m("solver.solve_s", "s", per_req(solver_s)),
            m("pipeline.group_s", "s", per_decomposed(self.group_s)),
            m("pipeline.meta_s", "s", per_decomposed(self.meta_s)),
            m("pipeline.other_s", "s", per_decomposed(self.other_s)),
            m("pipeline.degraded", "count", self.degraded as f64),
            m(
                "exec.submitted",
                "count",
                per_req(self.queue.submitted as f64),
            ),
            m("exec.peak_depth", "count", self.queue.peak_depth as f64),
            // Per plan resolve: the batch workloads resolve once per
            // instance at set-up, the daemon once per request.
            m(
                "engine.plan_s",
                "s",
                layers
                    .get("engine.plan")
                    .map_or(0.0, |l| l.self_s / l.calls as f64),
            ),
            m(
                "engine.cache_probe_s",
                "s",
                per_req(self_s("engine.cache_probe")),
            ),
            m(
                "engine.cache_insert_s",
                "s",
                per_req(self_s("engine.cache_insert")),
            ),
            m(
                "engine.cache_hit_rate",
                "ratio",
                ratio(self.cache_hits, self.exact_requests),
            ),
            m(
                "engine.request_encode_s",
                "s",
                per_req(self_s("engine.request_encode")),
            ),
            m(
                "engine.request_decode_s",
                "s",
                per_req(self_s("engine.request_decode")),
            ),
            m(
                "engine.report_encode_s",
                "s",
                per_req(self_s("engine.report_encode")),
            ),
            m(
                "engine.report_decode_s",
                "s",
                per_req(self_s("engine.report_decode")),
            ),
            m(
                "engine.request_bytes",
                "bytes",
                ratio(self.request_bytes, self.requests),
            ),
            m(
                "engine.report_bytes",
                "bytes",
                ratio(self.report_bytes, self.requests),
            ),
            m("serve.rtt_p50_ms", "ms", ms_median(&self.rtts)),
            m("serve.overhead_p50_ms", "ms", ms_median(&self.overheads)),
            m("serve.overhead_tail_ms", "ms", overhead_tail),
            m("serve.served", "count", self.summary.served as f64),
            m("serve.shed", "count", self.summary.shed as f64),
            m("serve.cancelled", "count", self.summary.cancelled as f64),
            m("serve.errors", "count", self.summary.errors as f64),
            m("trace.overhead_pct", "%", trace_overhead),
        ]
    }
}
