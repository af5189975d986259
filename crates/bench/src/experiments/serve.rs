//! `exp_serve` — the daemon under replayed load.
//!
//! The serve crate's promise is that putting the spine behind a socket
//! costs framing and scheduling, not answers: a daemon report is
//! bit-identical to the in-process one, and the process-wide cache makes
//! a replayed batch as cheap over TCP as it is in memory. This
//! experiment prices that promise on a 400-solve clustered batch (20
//! sixteen-taxon and 380 twelve-taxon matrices), driven over a real
//! socket by concurrent replay clients:
//!
//! * **cold** — first full pass at concurrency 1 (files every solve
//!   into the shared cache).
//! * **warm cN** — full replays at client concurrency 1, 4 and 8; every
//!   request must hit the cache (hit rate 1.0), so these rows measure
//!   the transport + scheduling floor: sustained requests per second
//!   and p50/p99 latency.
//! * **overload** — a deliberately starved daemon (1 dispatch worker,
//!   queue depth 2, cache off) bursted by 16 clients: admission control
//!   must shed rather than queue without bound, and every shed request
//!   must be answered with a clean `overloaded` error frame.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutree_core::{SolveReport, SolveRequest};
use mutree_engine::ServeErrorCode;
use mutree_serve::{Client, ClientError, ServeConfig, Server};

use crate::data;
use crate::report::{fmt_secs, Table};

/// Instances per batch: 20 sixteen-taxon + 380 twelve-taxon.
const BATCH: usize = 400;

fn workload() -> Vec<SolveRequest> {
    (0..20)
        .map(|i| data::clustered_matrix(4, 4, 0x5eed + i as u64))
        .chain((0..380).map(|i| data::clustered_matrix(4, 3, 0xfade + i as u64)))
        .map(SolveRequest::exact)
        .collect()
}

struct Pass {
    seconds: f64,
    latencies: Vec<Duration>,
    reports: Vec<SolveReport>,
    shed: u64,
}

/// Replays the whole batch against `addr` from `concurrency` client
/// threads, each owning one connection and pulling the next instance
/// from a shared counter (so the division of labor adapts to per-solve
/// cost, like a real replay driver).
fn replay(addr: std::net::SocketAddr, requests: &[SolveRequest], concurrency: usize) -> Pass {
    let next = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    let outcomes: Vec<(Vec<Duration>, Vec<SolveReport>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                let next = Arc::clone(&next);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect replay client");
                    let mut latencies = Vec::new();
                    let mut reports = Vec::new();
                    let mut shed = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        let t = Instant::now();
                        match client.solve(req) {
                            Ok(report) => {
                                latencies.push(t.elapsed());
                                reports.push(report);
                            }
                            Err(ClientError::Server(e)) if e.code == ServeErrorCode::Overloaded => {
                                shed += 1;
                            }
                            Err(e) => panic!("replay request {i} failed: {e}"),
                        }
                    }
                    (latencies, reports, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let seconds = t0.elapsed().as_secs_f64();
    let mut pass = Pass {
        seconds,
        latencies: Vec::new(),
        reports: Vec::new(),
        shed: 0,
    };
    for (lat, rep, shed) in outcomes {
        pass.latencies.extend(lat);
        pass.reports.extend(rep);
        pass.shed += shed;
    }
    pass
}

/// The q-th percentile (0–100) of a latency sample, in milliseconds.
fn percentile_ms(latencies: &mut [Duration], q: usize) -> f64 {
    assert!(!latencies.is_empty());
    latencies.sort_unstable();
    let idx = (latencies.len() * q / 100).min(latencies.len() - 1);
    latencies[idx].as_secs_f64() * 1e3
}

/// `exp_serve` — sustained req/s, p50/p99 latency and cache hit rate of
/// the daemon replaying the 400-solve clustered batch over TCP at
/// increasing client concurrency, plus the shed count of an overloaded
/// daemon.
pub fn exp_serve() -> Table {
    let mut t = Table::new(
        "exp_serve",
        "solve daemon replaying the 400-solve clustered batch over TCP: sustained req/s and tail latency at increasing client concurrency, plus load shedding under deliberate overload",
        &[
            "pass",
            "clients",
            "seconds",
            "served",
            "req_per_s",
            "p50_ms",
            "p99_ms",
            "hits",
            "hit_rate",
            "shed",
        ],
    );
    let requests = workload();
    assert_eq!(requests.len(), BATCH);

    // Main daemon: defaults (cache on for every request), 4 dispatch
    // workers so concurrency-8 clients actually queue a little.
    let config = ServeConfig {
        workers: 4,
        threads: 4,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind daemon");
    let addr = server.local_addr();

    let row = |t: &mut Table, pass: &str, clients: usize, mut p: Pass| {
        let hits: u64 = p.reports.iter().map(|r| r.stats.cache_hits).sum();
        let served = p.reports.len();
        t.push(vec![
            pass.into(),
            clients.to_string(),
            fmt_secs(p.seconds),
            served.to_string(),
            format!("{:.1}", served as f64 / p.seconds.max(1e-12)),
            format!("{:.3}", percentile_ms(&mut p.latencies, 50)),
            format!("{:.3}", percentile_ms(&mut p.latencies, 99)),
            hits.to_string(),
            format!("{:.3}", hits as f64 / served.max(1) as f64),
            p.shed.to_string(),
        ]);
    };

    row(&mut t, "cold", 1, replay(addr, &requests, 1));
    for clients in [1usize, 4, 8] {
        let pass = replay(addr, &requests, clients);
        assert!(
            pass.reports.iter().all(|r| r.stats.cache_hits == 1),
            "warm replay must be answered from the shared cache"
        );
        row(&mut t, &format!("warm c{clients}"), clients, pass);
    }
    Client::connect(addr)
        .expect("connect drain client")
        .drain()
        .expect("drain daemon");
    server.join();

    // Overload leg: one dispatch worker, a two-deep queue and no cache,
    // bursted by 16 clients. Admission control must shed (every shed
    // request gets a clean `overloaded` frame, counted by the client),
    // and everything admitted must still come back correct.
    let overload_config = ServeConfig {
        queue_depth: 2,
        workers: 1,
        threads: 1,
        cache_default: false,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", overload_config).expect("bind overloaded daemon");
    let addr = server.local_addr();
    let pass = replay(addr, &requests, 16);
    assert!(
        pass.shed > 0,
        "a two-deep queue bursted by 16 clients must shed"
    );
    row(&mut t, "overload", 16, pass);
    Client::connect(addr)
        .expect("connect drain client")
        .drain()
        .expect("drain overloaded daemon");
    server.join();
    t
}
