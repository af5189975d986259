//! The batch workloads: `exact_seq`, `exact_par` and `decompose`.
//!
//! Each takes a fixed set of screened matrices (see [`catalog`]); the
//! seed orders the batch and relabels the taxa of tie-free matrices. A run
//! resolves one plan per matrix (set-up), then solves the whole batch in
//! passes of about two seconds until the run's time is spent. Every
//! untraced solve is followed by a calibration slice, and its latency is
//! host-scaled by it (see [`crate::stats::calibration_slice`]). Each
//! instance's latency is the median over its passes of those scaled
//! times, so every run
//! reports its percentiles over the same instances, and throughput is the
//! instance count over the sum of those medians: the rate of a typical
//! pass on the reference host. The host's speed changes by a third in
//! stretches of tens of seconds; wall-time figures followed it, while a
//! solve and the slice right after it slow together.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mutree_core::{
    solve_plan, solve_plan_hooked, BackendSpec, EnvOverrides, Executor, Linkage, SolveHooks,
    SolvePlan, SolveReport, SolveRequest,
};
use mutree_distmat::{DistanceMatrix, SolverMatrix};
use mutree_graph::CompactSets;
use mutree_tree::{cluster, UltrametricTree};

use crate::catalog::{self, Family};
use crate::gate::Gate;
use crate::outcome::{Counters, EndToEnd, Outcome};
use crate::stats::{host_scaled, median, mix, peak_rss_mb};
use crate::trace::Tracer;
use crate::{in_parallel, Scale, TOL};

/// Generator seeds of the clustered 16×12 matrices in a decompose batch:
/// the 14 fastest of seeds 0–39 on a 2-core host (110–180 ms each; the
/// others take up to 560 ms). They are the slowest instances of the
/// batch, and with the 37 HMDNA matrices taken from the pool the tail
/// percentile (p80, 10 instances beyond) falls among them rather than on
/// the boundary between the two kinds.
const DECOMPOSE_CLUSTERED_SEEDS: [u64; 14] = [1, 4, 5, 7, 8, 12, 13, 15, 16, 21, 26, 28, 34, 38];
/// Every this many entries of the HMDNA pool, by node count, join a
/// decompose batch.
const DECOMPOSE_HMDNA_EVERY: usize = 4;
/// Worker threads of the shared executor (`exact_par`, `decompose`).
pub const THREADS: usize = 2;
/// Set-ups per untraced run; the median is reported.
pub const SETUP_REPEATS: usize = 31;
/// Runaway guard of every decompose request: a branch budget per stage
/// solve and a wall-clock deadline.
const STAGE_BUDGET: u64 = 1_000_000;
const DEADLINE: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ExactSeq,
    ExactPar,
    Decompose,
}

struct Item {
    key: String,
    matrix: DistanceMatrix,
    request: SolveRequest,
    /// The proven optimum from the catalog, for exact instances.
    reference: Option<f64>,
}

fn exact_request(kind: Kind, m: DistanceMatrix) -> SolveRequest {
    let req = SolveRequest::exact(m);
    if kind == Kind::ExactPar {
        req.backend(BackendSpec::Parallel { workers: THREADS })
    } else {
        req
    }
}

fn decompose_request(m: DistanceMatrix) -> SolveRequest {
    let mut req = SolveRequest::decompose(m);
    req.max_branches = STAGE_BUDGET;
    req.timeout = Some(DEADLINE);
    req
}

fn items(kind: Kind, seed: u64, scale: Scale) -> Vec<Item> {
    let item = |key: String, matrix: DistanceMatrix, reference: Option<f64>| {
        let request = match kind {
            Kind::Decompose => decompose_request(matrix.clone()),
            _ => exact_request(kind, matrix.clone()),
        };
        Item {
            key,
            matrix,
            request,
            reference,
        }
    };
    let all = catalog::entries();
    let batch = match (kind, scale) {
        // Relabeling keeps the search the same only where no distances
        // tie: random-species distances never do, while integer HMDNA
        // distances and the equal cross-cluster distances of clustered
        // matrices break ties by taxon index, and a relabeled copy can
        // search far longer than the screened original. Those keep their
        // labels; the seed still orders the batch.
        (Kind::ExactSeq | Kind::ExactPar, Scale::Full) => {
            catalog::pool(&all, Family::Exact, &catalog::EXACT_SIZES)
                .into_iter()
                .enumerate()
                .map(|(i, e)| {
                    let m = catalog::relabeled(&e.matrix(), mix(seed, 0x1abe1, i as u64));
                    item(e.label(), m, Some(e.weight))
                })
                .collect()
        }
        (Kind::Decompose, Scale::Full) => {
            let clustered = DECOMPOSE_CLUSTERED_SEEDS.iter().map(|&s| {
                let m = mutree_bench::data::clustered_matrix(16, 12, s);
                item(format!("clustered(16, 12, {s})"), m, None)
            });
            let pool = catalog::pool(&all, Family::Hmdna, &catalog::DECOMPOSE_SIZES);
            let hmdna = catalog::thinned(&pool, DECOMPOSE_HMDNA_EVERY)
                .into_iter()
                .map(|e| item(e.label(), e.matrix(), None));
            clustered.chain(hmdna).collect()
        }
        (Kind::ExactSeq | Kind::ExactPar, Scale::Tiny) => (0..4)
            .map(|i| {
                let s = mix(seed, 0x71, i);
                let m = mutree_bench::data::random_species_matrix(9, s);
                item(format!("random(9, {s})"), m, None)
            })
            .collect(),
        (Kind::Decompose, Scale::Tiny) => (0..3)
            .map(|i| {
                let s = mix(seed, 0x72, i);
                let m = mutree_bench::data::clustered_matrix(3, 5, s);
                item(format!("clustered(3, 5, {s})"), m, None)
            })
            .collect(),
    };
    catalog::shuffled(batch, seed)
}

struct Setup {
    plans: Vec<SolvePlan>,
    hooks: SolveHooks,
}

/// Ends a set-up, dropping its plans but not its executor. Dropping an
/// `Executor` can hang: its drop sets the shutdown flag and notifies the
/// workers without holding the queue's lock, so a worker between its
/// shutdown check and its wait misses the wakeup and the join never
/// returns. Set-ups dropped right after they were made hit this within
/// a few hundred; the idle workers of a forgotten executor end with the
/// process.
fn discard(setup: Setup) {
    std::mem::forget(setup.hooks);
}

/// A fresh copy of every instance's request, for one set-up. Copying is
/// the benchmark's own work and stays outside the timed set-up: the
/// decompose batch holds about 10 MB of matrices, and the C allocator
/// served those copies from fresh or reused pages depending on the order
/// the seed gave the batch, which moved the set-up time fourfold between
/// seeds.
fn requests(items: &[Item]) -> Vec<SolveRequest> {
    items.iter().map(|item| item.request.clone()).collect()
}

/// Program set-up: the shared executor and one resolved plan per
/// instance. A traced set-up records a span per plan.
fn set_up(kind: Kind, requests: Vec<SolveRequest>, mut tracer: Option<&mut Tracer>) -> Setup {
    let executor = (kind != Kind::ExactSeq).then(|| Executor::new(THREADS));
    let env = EnvOverrides::none();
    let mut plans = Vec::with_capacity(requests.len());
    for (i, request) in requests.into_iter().enumerate() {
        let resolve = || SolvePlan::resolve(request, &env);
        plans.push(match tracer.as_deref_mut() {
            Some(tr) => tr.time("engine.plan", None, i as u64, resolve),
            None => resolve(),
        });
    }
    Setup {
        plans,
        hooks: SolveHooks {
            executor,
            ..SolveHooks::default()
        },
    }
}

/// Times layer calls the solve makes internally, on the same inputs,
/// each in its own span under the request's id.
fn probe_layers(tr: &mut Tracer, kind: Kind, m: &DistanceMatrix, report: &SolveReport, id: u64) {
    let mut searched: Vec<DistanceMatrix> = Vec::new();
    if kind == Kind::Decompose {
        let cs = tr.time("graph.compact_sets", None, id, || CompactSets::find(m));
        black_box(tr.time("graph.partition", None, id, || cs.partition(12)));
        for group in report.groups.iter().flatten().filter(|g| g.len() >= 3) {
            searched.push(m.submatrix(group).expect("group taxa are in range"));
        }
    } else {
        searched.push(m.clone());
    }
    for sub in &searched {
        probe_search_inputs(tr, sub, id);
    }
    let mut tree: UltrametricTree = report.tree.clone();
    black_box(tr.time("tree.fit_heights", None, id, || tree.fit_heights(m)));
}

/// The per-solve preparation every exact search does: maxmin relabeling,
/// the blocked solver matrix and the UPGMM incumbent.
pub fn probe_search_inputs(tr: &mut Tracer, m: &DistanceMatrix, id: u64) {
    let pm = tr.time("distmat.maxmin", None, id, || {
        let perm = m.maxmin_permutation();
        perm.apply(m)
    });
    black_box(tr.time("distmat.solver_matrix", None, id, || SolverMatrix::new(&pm)));
    black_box(tr.time("tree.upgmm", None, id, || cluster(&pm, Linkage::Maximum)));
}

struct Phase {
    /// Completed-solve latencies per instance, in seconds.
    latencies: Vec<Vec<f64>>,
    /// The same latencies host-scaled by the calibration slice run right
    /// after each solve (untraced phases only; see [`host_scaled`]).
    scaled: Vec<Vec<f64>>,
    /// Seconds of every calibration slice.
    slices: Vec<f64>,
    solves: u64,
    failed: u64,
    elapsed: f64,
}

/// Solves the batch in whole passes until `budget` seconds have passed
/// (at least one pass). Answers are gated: the first pass in full after
/// the clock stops, later passes bit for bit against the first.
fn run_phase(
    kind: Kind,
    items: &[Item],
    setup: &Setup,
    budget: f64,
    mut tracer: Option<&mut Tracer>,
    gate: &mut Gate,
    counters: &mut Counters,
) -> Phase {
    let layer = if kind == Kind::Decompose {
        "core.pipeline"
    } else {
        "core.solver"
    };
    let mut phase = Phase {
        latencies: vec![Vec::new(); items.len()],
        scaled: vec![Vec::new(); items.len()],
        slices: Vec::new(),
        solves: 0,
        failed: 0,
        elapsed: 0.0,
    };
    let mut first: Vec<Option<SolveReport>> = vec![None; items.len()];
    let t0 = Instant::now();
    for pass in 0.. {
        for (i, (item, plan)) in items.iter().zip(&setup.plans).enumerate() {
            let id = (pass * items.len() + i) as u64;
            let solve = || solve_plan_hooked(plan, &setup.hooks);
            let started = Instant::now();
            let result = match tracer.as_deref_mut() {
                Some(tr) => {
                    let root = tr.open("request", None, id);
                    let r = tr.time(layer, Some(root), id, solve);
                    tr.close(root);
                    r
                }
                None => solve(),
            };
            let seconds = started.elapsed().as_secs_f64();
            phase.solves += 1;
            let report = match result {
                Ok(report) if report.is_complete() => report,
                _ => {
                    phase.failed += 1;
                    continue;
                }
            };
            phase.latencies[i].push(seconds);
            if tracer.is_none() {
                let (scaled, slice) = host_scaled(seconds);
                phase.scaled[i].push(scaled);
                phase.slices.push(slice);
            }
            if let Some(tr) = tracer.as_deref_mut() {
                counters.requests += 1;
                counters.stats.merge(&report.stats);
                if kind == Kind::Decompose {
                    counters.pipeline_report(&report, Some(seconds));
                }
                probe_layers(tr, kind, &item.matrix, &report, id);
            }
            if first[i].is_none() {
                first[i] = Some(report);
            } else {
                gate.same(&item.key, report.weight);
            }
        }
        if t0.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    phase.elapsed = t0.elapsed().as_secs_f64();
    for (item, report) in items.iter().zip(&first) {
        let Some(r) = report else { continue };
        gate.answer(&item.key, &item.matrix, &r.tree, r.weight, item.request.tol);
        if let Some(reference) = item.reference {
            gate.reference(&item.key, r.weight, reference, TOL);
        }
    }
    phase
}

/// The in-process sequential answer for every instance of a parallel
/// batch, which the parallel answers must match bit for bit.
fn sequential_references(items: &[Item], gate: &mut Gate) {
    let env = EnvOverrides::none();
    let answers = in_parallel(items, |item| {
        let req = exact_request(Kind::ExactSeq, item.matrix.clone());
        solve_plan(&SolvePlan::resolve(req, &env))
            .ok()
            .filter(|r| r.is_complete())
            .map(|r| r.weight)
    });
    for (item, answer) in items.iter().zip(answers) {
        match answer {
            Some(w) => gate.same(&item.key, w),
            None => gate.fail(format!(
                "{}: the sequential reference did not complete",
                item.key
            )),
        }
    }
}

/// Runs one batch workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    let items = items(kind, seed, scale);
    let mut gate = Gate::default();
    let mut counters = Counters::default();
    let mut out = if traced {
        // Untraced half first, for the tracing overhead; then the traced
        // half on a fresh set-up.
        let setup = set_up(kind, requests(&items), None);
        let plain = run_phase(
            kind,
            &items,
            &setup,
            seconds / 2.0,
            None,
            &mut gate,
            &mut counters,
        );
        discard(setup);
        let all: Vec<f64> = plain.latencies.iter().flatten().copied().collect();
        counters.untraced_p50_s = (!all.is_empty()).then(|| median(&all));
        let mut tr = Tracer::new(Instant::now());
        let setup = set_up(kind, requests(&items), Some(&mut tr));
        let phase = run_phase(
            kind,
            &items,
            &setup,
            seconds / 2.0,
            Some(&mut tr),
            &mut gate,
            &mut counters,
        );
        if let Some(exec) = &setup.hooks.executor {
            counters.queue = exec.queue_stats();
        }
        discard(setup);
        let mut out = Outcome {
            attempted: phase.solves,
            failed: phase.failed,
            metrics: counters.per_layer(&tr),
            ..Outcome::default()
        };
        out.note("traced_passes", phase.solves / items.len() as u64);
        out.spans = Some(tr);
        out
    } else {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut setup = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(s) = setup.take() {
                discard(s);
            }
            let requests = requests(&items);
            let t = Instant::now();
            setup = Some(set_up(kind, requests, None));
            setups.push(host_scaled(t.elapsed().as_secs_f64()).0);
        }
        let setup = setup.expect("at least one set-up");
        let phase = run_phase(
            kind,
            &items,
            &setup,
            seconds,
            None,
            &mut gate,
            &mut counters,
        );
        discard(setup);
        let medians = |per_instance: &[Vec<f64>]| -> Vec<f64> {
            per_instance
                .iter()
                .filter(|l| !l.is_empty())
                .map(|l| median(l))
                .collect()
        };
        let rate = |xs: &[f64]| {
            let pass: f64 = xs.iter().sum();
            if pass > 0.0 {
                xs.len() as f64 / pass
            } else {
                0.0
            }
        };
        let (scaled, wall) = (medians(&phase.scaled), medians(&phase.latencies));
        let e2e = EndToEnd {
            setups,
            attempted: phase.solves,
            failed: phase.failed,
            elapsed: phase.elapsed,
            throughput: rate(&scaled),
            throughput_kind: "completed instances over the sum of their host-scaled latencies",
            latencies: scaled,
            sample_kind: "instance median over passes of host-scaled latency",
            peak_rss_mb: peak_rss_mb(),
        };
        let mut out = e2e.into_outcome();
        out.note("passes", phase.solves / items.len() as u64);
        out.note("wall_solves_per_s", rate(&wall));
        if !wall.is_empty() {
            out.note("wall_latency_p50_ms", median(&wall) * 1e3);
        }
        if !phase.slices.is_empty() {
            out.note("calibration_slice_ms", median(&phase.slices) * 1e3);
        }
        out
    };
    if kind == Kind::ExactPar {
        sequential_references(&items, &mut gate);
    }
    out.note("instances", items.len());
    out.note("gate_checked", gate.checked());
    out.mismatches = gate.mismatches().to_vec();
    out
}
