//! The `serve_mixed` workload: an in-process daemon with the default
//! configuration, driven over loopback by two closed-loop clients.
//!
//! Each client sends its own seeded stream: 12- and 16-taxon clustered
//! exact requests, about half of which repeat one of the client's earlier
//! matrices, and every 200th request an HMDNA n = 64 decomposition. A client
//! only repeats a matrix it already has an answer for, so every repeat
//! must be a cache hit and every first-time matrix a miss: the observed
//! hit count must equal the designed repeat count exactly. The daemon's
//! cache is process-wide and cannot be cleared, so each run is a fresh
//! process and each phase of a run draws matrices from its own stream.
//!
//! Each client gates every answer as it arrives, after the request's
//! clock has stopped, and keeps only what the figures need, not the
//! tree. The process's peak memory is read once both clients together
//! have completed [`RSS_AT_REQUESTS`] requests, so that it measures a
//! fixed amount of work rather than how much work fit in the run.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mutree_core::{
    plan_solver, solve_plan, CacheOutcome, EnvOverrides, GroupCache, QueueStats, SearchStats,
    SolvePlan, SolveReport, SolveRequest, StageProvenance,
};
use mutree_distmat::DistanceMatrix;
use mutree_graph::CompactSets;
use mutree_serve::{Client, ServeConfig, ServeSummary, Server};

use crate::batch::{probe_search_inputs, SETUP_REPEATS};
use crate::catalog::{self, Family};
use crate::gate::Gate;
use crate::outcome::{Counters, EndToEnd, Outcome};
use crate::stats::{host_scaled, median, mix, peak_rss_mb, unit, window_rates};
use crate::trace::Tracer;
use crate::{in_parallel, Scale, TOL};

const CLIENTS: usize = 2;
/// Answered requests, both clients together, after which the peak
/// resident memory is read: about three seconds into a run on a 2-core
/// host. A run that answers fewer reads it when its clients stop.
const RSS_AT_REQUESTS: u64 = 4_000;
/// Width of the windows whose completion counts give the throughput, the
/// median over windows.
const WINDOW_S: f64 = 0.5;
/// Every this many requests of a client, one is an HMDNA decomposition.
/// A fixed period rather than a seeded share: one decomposition costs as
/// much as a few hundred exact requests, so a drawn count would move the
/// throughput from seed to seed, and a 0.5% share keeps p99 among the
/// exact requests rather than on the boundary between the two kinds.
const DECOMPOSE_EVERY: u64 = 200;
/// Share of exact requests that repeat an earlier matrix of the client.
const REPEAT_SHARE: f64 = 0.5;
/// Share of first-time exact matrices with 16 rather than 12 taxa.
const SIXTEEN_SHARE: f64 = 0.25;
/// Runaway guard: every request carries this deadline.
const DEADLINE: Duration = Duration::from_secs(30);

/// What a request asks for, by index into its client's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ask {
    Fresh(usize),
    Repeat(usize),
    Decompose(usize),
}

/// One client's seeded request stream.
struct Stream {
    seed: u64,
    /// Distinct per client and phase; each kind of draw (repeat or not,
    /// which repeat, size, matrix) reads its own sub-stream
    /// `stream * 8 + purpose`.
    stream: u64,
    sent: u64,
    fresh: Vec<DistanceMatrix>,
    decompose: Vec<(String, DistanceMatrix)>,
    /// Screened 16-taxon matrices; a first-time 16-taxon request is one
    /// of them rescaled: new to the cache, the same search. (Relabeling
    /// would not keep the search: the tied cross-cluster distances break
    /// ties by taxon index.)
    sixteen: Vec<DistanceMatrix>,
}

impl Stream {
    fn next(&mut self) -> Ask {
        let k = self.sent;
        self.sent += 1;
        if k % DECOMPOSE_EVERY == DECOMPOSE_EVERY - 1 {
            return Ask::Decompose((k / DECOMPOSE_EVERY) as usize % self.decompose.len());
        }
        if !self.fresh.is_empty() && unit(self.seed, self.stream * 8 + 1, k) < REPEAT_SHARE {
            let pick = mix(self.seed, self.stream * 8 + 2, k) % self.fresh.len() as u64;
            return Ask::Repeat(pick as usize);
        }
        let s = mix(self.seed, self.stream * 8 + 4, k);
        let m = if unit(self.seed, self.stream * 8 + 3, k) < SIXTEEN_SHARE {
            let base = &self.sixteen[(s % self.sixteen.len() as u64) as usize];
            catalog::scaled(base, catalog::scale_factor(s))
        } else {
            mutree_bench::data::clustered_matrix(4, 3, s)
        };
        self.fresh.push(m);
        Ask::Fresh(self.fresh.len() - 1)
    }

    fn key(&self, ask: Ask) -> String {
        match ask {
            Ask::Fresh(i) | Ask::Repeat(i) => format!("stream {:x} matrix {i}", self.stream),
            Ask::Decompose(i) => self.decompose[i].0.clone(),
        }
    }

    fn matrix(&self, ask: Ask) -> &DistanceMatrix {
        match ask {
            Ask::Fresh(i) | Ask::Repeat(i) => &self.fresh[i],
            Ask::Decompose(i) => &self.decompose[i].1,
        }
    }

    fn request(&self, ask: Ask) -> SolveRequest {
        let m = self.matrix(ask).clone();
        let mut req = match ask {
            Ask::Decompose(_) => SolveRequest::decompose(m),
            _ => SolveRequest::exact(m),
        };
        req.timeout = Some(DEADLINE);
        req
    }
}

/// What a client keeps of a reply once its answer has been gated (the
/// gate keeps the weight bits).
struct Reply {
    complete: bool,
    stats: SearchStats,
    /// Seconds of the first stage, and whether it came from the cache.
    first_stage: Option<(f64, bool)>,
    /// A decomposition's whole report, for the pipeline counters.
    pipeline: Option<SolveReport>,
}

impl Reply {
    fn new(report: SolveReport, ask: Ask) -> Reply {
        Reply {
            complete: report.is_complete(),
            stats: report.stats,
            first_stage: report
                .timings
                .first()
                .map(|t| (t.seconds, t.provenance == StageProvenance::Cached)),
            pipeline: matches!(ask, Ask::Decompose(_)).then_some(report),
        }
    }

    fn cache_hit(&self) -> bool {
        self.stats.cache_hits > 0
    }
}

/// One answered (or failed) request.
struct Sent {
    ask: Ask,
    seconds: f64,
    /// When the answer arrived, in seconds since the phase began.
    done_at: f64,
    reply: Result<Reply, String>,
    request_bytes: usize,
    report_bytes: usize,
}

struct ClientRun {
    stream: Stream,
    sent: Vec<Sent>,
    gate: Gate,
    tracer: Option<Tracer>,
}

/// Shared by the clients of a phase: answered requests, and the peak
/// resident memory read at [`RSS_AT_REQUESTS`].
#[derive(Default)]
struct Footprint {
    /// A plain count that publishes no other data, hence `Relaxed`; the
    /// `OnceLock` orders the memory reading itself.
    answered: AtomicU64,
    peak_rss_mb: OnceLock<f64>,
}

impl Footprint {
    fn count(&self) {
        if self.answered.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_REQUESTS {
            self.peak_rss_mb.get_or_init(peak_rss_mb);
        }
    }
}

/// Matrices generated before timing, and the stream settings.
struct Inputs {
    seed: u64,
    /// Decompose matrices; each client cycles through its half.
    decompose: Vec<(String, DistanceMatrix)>,
    /// Screened 16-taxon matrices (see [`Stream`]).
    sixteen: Vec<DistanceMatrix>,
    /// Requests each client sends at least, whatever the time budget.
    min_requests: u64,
}

fn inputs(seed: u64, scale: Scale) -> Inputs {
    let all = catalog::entries();
    let mut sixteen = catalog::pool(&all, Family::Clustered, &[catalog::SERVE_CLUSTERED_SIZE]);
    match scale {
        Scale::Full => Inputs {
            seed,
            decompose: catalog::shuffled(
                catalog::pool(&all, Family::Hmdna, &[catalog::SERVE_HMDNA_SIZE]),
                seed,
            )
            .into_iter()
            .map(|e| (e.label(), e.matrix()))
            .collect(),
            sixteen: sixteen.iter().map(catalog::Entry::matrix).collect(),
            min_requests: 0,
        },
        Scale::Tiny => {
            sixteen.sort_by_key(|e| e.branched);
            Inputs {
                seed,
                decompose: (0..CLIENTS as u64)
                    .map(|i| {
                        let s = mix(seed, 0x73, i);
                        let m = mutree_bench::data::clustered_matrix(3, 5, s);
                        (format!("clustered(3, 5, {s})"), m)
                    })
                    .collect(),
                sixteen: sixteen.iter().take(2).map(catalog::Entry::matrix).collect(),
                min_requests: 24,
            }
        }
    }
}

fn set_up() -> (Server, Vec<Client>) {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind the daemon");
    let addr = server.local_addr();
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(addr).expect("connect a client"))
        .collect();
    (server, clients)
}

/// Drains the daemon: the reply comes once every admitted request has
/// been answered. The daemon is then forgotten rather than joined or
/// dropped: `Server::join` can wait forever, because a dispatch worker
/// that reads the drain flag just before `drain` notifies the workers
/// misses the wakeup and sleeps on, and dropping the daemon's executor
/// can hang the same way (see `batch::discard`). Such a worker holds no
/// work and no CPU, and ends with the process.
fn shut_down(server: Server, clients: Vec<Client>) -> (ServeSummary, QueueStats) {
    let queue = server.executor_stats();
    let mut clients = clients.into_iter();
    let summary = clients
        .next()
        .expect("a client")
        .drain()
        .expect("drain the daemon");
    drop(clients);
    std::mem::forget(server);
    (summary, queue)
}

/// One client's closed loop: send, wait for the answer, repeat, until
/// `budget` has passed and at least `min_requests` were sent.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    mut client: Client,
    mut stream: Stream,
    t0: Instant,
    budget: f64,
    min_requests: u64,
    mut tracer: Option<Tracer>,
    cache: &GroupCache,
    footprint: &Footprint,
) -> ClientRun {
    let env = EnvOverrides::none();
    let sig = plan_solver(&SolvePlan::resolve(
        SolveRequest::exact(mutree_bench::data::clustered_matrix(4, 3, 0)),
        &env,
    ))
    .cache_sig_interruptible()
    .expect("plain exact requests are cacheable");
    let mut sent = Vec::new();
    let mut gate = Gate::default();
    while t0.elapsed().as_secs_f64() < budget || (sent.len() as u64) < min_requests {
        let ask = stream.next();
        let req = stream.request(ask);
        let id = stream.sent | (stream.stream << 32);
        let mut request_bytes = 0;
        let mut probe = None;
        if let Some(tr) = tracer.as_mut() {
            let text = tr.time("engine.request_encode", None, id, || req.encode());
            request_bytes = text.len();
            let decoded = tr
                .time("engine.request_decode", None, id, || {
                    SolveRequest::decode(&text)
                })
                .expect("a request decodes from its own encoding");
            black_box(tr.time("engine.plan", None, id, || {
                SolvePlan::resolve(decoded.cache(true), &env)
            }));
            if !matches!(ask, Ask::Decompose(_)) {
                let m = stream.matrix(ask);
                probe = Some(tr.time("engine.cache_probe", None, id, || cache.probe(m, sig)));
            }
        }
        let started = Instant::now();
        let result = match tracer.as_mut() {
            Some(tr) => {
                let root = tr.open("request", None, id);
                let r = client.solve(&req);
                tr.close(root);
                r
            }
            None => client.solve(&req),
        };
        let seconds = started.elapsed().as_secs_f64();
        let done_at = t0.elapsed().as_secs_f64();
        footprint.count();
        let result = result.map_err(|e| e.to_string());
        let mut report_bytes = 0;
        if let (Some(tr), Ok(report)) = (tracer.as_mut(), &result) {
            let text = tr.time("engine.report_encode", None, id, || report.encode());
            report_bytes = text.len();
            black_box(tr.time("engine.report_decode", None, id, || {
                SolveReport::decode(&text)
            }))
            .expect("a report decodes from its own encoding");
            if let Some(p) = probe {
                if let CacheOutcome::Miss(query) | CacheOutcome::Seed { query, .. } = p.outcome {
                    tr.time("engine.cache_insert", None, id, || {
                        cache.insert(query, &report.tree, report.weight)
                    });
                }
            }
            let m = stream.matrix(ask);
            match ask {
                Ask::Fresh(_) => {
                    probe_search_inputs(tr, m, id);
                    let mut tree = report.tree.clone();
                    black_box(tr.time("tree.fit_heights", None, id, || tree.fit_heights(m)));
                }
                Ask::Decompose(_) => {
                    let cs = tr.time("graph.compact_sets", None, id, || CompactSets::find(m));
                    black_box(tr.time("graph.partition", None, id, || cs.partition(12)));
                }
                Ask::Repeat(_) => {}
            }
        }
        if let Some(report) = result.as_ref().ok().filter(|r| r.is_complete()) {
            gate.answer(
                &stream.key(ask),
                stream.matrix(ask),
                &report.tree,
                report.weight,
                TOL,
            );
        }
        sent.push(Sent {
            ask,
            seconds,
            done_at,
            reply: result.map(|report| Reply::new(report, ask)),
            request_bytes,
            report_bytes,
        });
    }
    ClientRun {
        stream,
        sent,
        gate,
        tracer,
    }
}

struct Phase {
    runs: Vec<ClientRun>,
    elapsed: f64,
    summary: ServeSummary,
    queue: QueueStats,
    /// Peak resident memory in MiB, and the answered requests it was
    /// read at.
    peak_rss_mb: f64,
    rss_at_requests: u64,
}

fn run_phase(
    inputs: &Inputs,
    phase: u64,
    (server, clients): (Server, Vec<Client>),
    budget: f64,
    traced: bool,
) -> Phase {
    let epoch = Instant::now();
    let cache = Arc::new(GroupCache::new());
    let pool = &inputs.decompose;
    let per_client = pool.len() / CLIENTS;
    let footprint = Footprint::default();
    let t0 = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let stream = Stream {
                    seed: inputs.seed,
                    stream: (phase << 8) | c as u64,
                    sent: 0,
                    fresh: Vec::new(),
                    decompose: pool[c * per_client..(c + 1) * per_client].to_vec(),
                    sixteen: inputs.sixteen.clone(),
                };
                let tracer = traced.then(|| Tracer::new(epoch));
                let cache = Arc::clone(&cache);
                let min_requests = inputs.min_requests;
                let footprint = &footprint;
                scope.spawn(move || {
                    client_loop(
                        client,
                        stream,
                        t0,
                        budget,
                        min_requests,
                        tracer,
                        &cache,
                        footprint,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let answered = footprint.answered.load(Ordering::Relaxed);
    let peak_rss_mb = *footprint.peak_rss_mb.get_or_init(peak_rss_mb);
    let addr: SocketAddr = server.local_addr();
    let drain_client = Client::connect(addr).expect("connect the drain client");
    let (summary, queue) = shut_down(server, vec![drain_client]);
    Phase {
        runs,
        elapsed,
        summary,
        queue,
        peak_rss_mb,
        rss_at_requests: answered.min(RSS_AT_REQUESTS),
    }
}

/// What the gate found in a phase.
#[derive(Default)]
struct Checked {
    attempted: u64,
    failed: u64,
    /// Latencies and arrival times of the completed requests, in seconds.
    latencies: Vec<f64>,
    done_at: Vec<f64>,
}

/// Gates every answer, checks the cache saw exactly the designed
/// repeats, and compares every matrix's answers with an in-process
/// solve.
fn check_phase(phase: &Phase, gate: &mut Gate) -> Checked {
    let mut checked = Checked::default();
    let mut references: Vec<(String, SolveRequest)> = Vec::new();
    for run in &phase.runs {
        gate.absorb(&run.gate);
        let s = &run.stream;
        let (mut repeats, mut hits) = (0u64, 0u64);
        let mut answered_fresh = vec![false; s.fresh.len()];
        let mut answered_decompose = vec![false; s.decompose.len()];
        for sent in &run.sent {
            checked.attempted += 1;
            let reply = match &sent.reply {
                Ok(r) if r.complete => r,
                _ => {
                    checked.failed += 1;
                    continue;
                }
            };
            checked.latencies.push(sent.seconds);
            checked.done_at.push(sent.done_at);
            let hit = reply.cache_hit();
            match sent.ask {
                Ask::Fresh(i) => {
                    answered_fresh[i] = true;
                    if hit {
                        gate.fail(format!(
                            "{}: a first-time matrix hit the cache; the cache was warm",
                            s.key(sent.ask)
                        ));
                    }
                }
                Ask::Repeat(_) => {
                    repeats += 1;
                    hits += u64::from(hit);
                }
                Ask::Decompose(i) => answered_decompose[i] = true,
            }
        }
        if hits != repeats {
            gate.fail(format!(
                "stream {:x}: {hits} cache hits for {repeats} designed repeats",
                s.stream
            ));
        }
        for (i, m) in s
            .fresh
            .iter()
            .enumerate()
            .filter(|&(i, _)| answered_fresh[i])
        {
            references.push((s.key(Ask::Fresh(i)), SolveRequest::exact(m.clone())));
        }
        for (i, (key, m)) in s.decompose.iter().enumerate() {
            if answered_decompose[i] {
                references.push((key.clone(), SolveRequest::decompose(m.clone())));
            }
        }
    }
    // Every matrix's in-process answer, with the cache off, which every
    // daemon answer for it (cache hits included) must match bit for bit.
    let env = EnvOverrides::none();
    let answers = in_parallel(&references, |(_, req)| {
        solve_plan(&SolvePlan::resolve(req.clone().cache(false), &env))
            .ok()
            .filter(|r| r.is_complete())
            .map(|r| r.weight)
    });
    for ((key, _), answer) in references.iter().zip(answers) {
        match answer {
            Some(w) => gate.same(key, w),
            None => gate.fail(format!("{key}: the in-process reference did not complete")),
        }
    }
    checked
}

/// Per-layer counters from a traced phase's replies.
fn count_phase(phase: &Phase, counters: &mut Counters) {
    for run in &phase.runs {
        for sent in &run.sent {
            let Ok(reply) = &sent.reply else { continue };
            counters.requests += 1;
            counters.stats.merge(&reply.stats);
            counters.request_bytes += sent.request_bytes as u64;
            counters.report_bytes += sent.report_bytes as u64;
            counters.rtts.push(sent.seconds);
            if let Some(report) = &reply.pipeline {
                counters.pipeline_report(report, None);
                continue;
            }
            counters.exact_requests += 1;
            if reply.cache_hit() {
                counters.cache_hits += 1;
            } else if let Some((seconds, false)) = reply.first_stage {
                counters.solver_s += seconds;
            }
            if let Some((seconds, _)) = reply.first_stage {
                counters.overheads.push(sent.seconds - seconds);
            }
        }
    }
    counters.summary = phase.summary;
    counters.queue = phase.queue;
}

/// Runs `serve_mixed`.
pub fn run(seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    let inputs = inputs(seed, scale);
    let mut gate = Gate::default();
    let mut out = if traced {
        // Untraced half first, for the tracing overhead; then the traced
        // half on a fresh daemon, with a stream of its own.
        let plain = run_phase(&inputs, 0, set_up(), seconds / 2.0, false);
        let plain = check_phase(&plain, &mut gate).latencies;
        let mut phase = run_phase(&inputs, 1, set_up(), seconds / 2.0, true);
        let checked = check_phase(&phase, &mut gate);
        let mut counters = Counters {
            untraced_p50_s: (!plain.is_empty()).then(|| median(&plain)),
            ..Counters::default()
        };
        count_phase(&phase, &mut counters);
        let mut spans = Tracer::new(Instant::now());
        for run in &mut phase.runs {
            if let Some(t) = run.tracer.take() {
                spans.absorb(t);
            }
        }
        let metrics = counters.per_layer(&spans);
        Outcome {
            attempted: checked.attempted,
            failed: checked.failed,
            metrics,
            spans: Some(spans),
            ..Outcome::default()
        }
    } else {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut ready = None;
        for _ in 0..SETUP_REPEATS {
            if let Some((server, clients)) = ready.take() {
                shut_down(server, clients);
            }
            // Set-up runs alone, so unlike the timed phase it can be
            // host-scaled like the batch workloads' set-up.
            let t = Instant::now();
            ready = Some(set_up());
            setups.push(host_scaled(t.elapsed().as_secs_f64()).0);
        }
        let phase = run_phase(
            &inputs,
            0,
            ready.expect("at least one set-up"),
            seconds,
            false,
        );
        let checked = check_phase(&phase, &mut gate);
        let windows = window_rates(&checked.done_at, phase.elapsed, WINDOW_S);
        let e2e = EndToEnd {
            setups,
            attempted: checked.attempted,
            failed: checked.failed,
            elapsed: phase.elapsed,
            throughput: median(&windows),
            throughput_kind: "median over 0.5 s windows of completed requests per second",
            latencies: checked.latencies,
            sample_kind: "request",
            peak_rss_mb: phase.peak_rss_mb,
        };
        let mut out = e2e.into_outcome();
        out.note("throughput_windows", windows.len());
        out.note("peak_rss_at_requests", phase.rss_at_requests);
        out.note("shed", phase.summary.shed);
        out
    };
    out.note("clients", CLIENTS);
    out.note("gate_checked", gate.checked());
    out.mismatches = gate.mismatches().to_vec();
    out
}
