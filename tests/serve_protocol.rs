//! Black-box protocol tests of the solve daemon: a real `Server` on an
//! ephemeral port, driven by raw sockets and the replay [`Client`].
//!
//! The contract under test, end to end over TCP:
//!
//! * a daemon answer is **bit-identical** to an in-process `solve_plan`
//!   of the same request;
//! * a replayed request, exact or decomposed, is answered from the
//!   process-wide shared cache, provenance `Cached`, bit-identical to
//!   the filing solve;
//! * malformed, truncated and oversized frames get clean error frames
//!   and never kill the daemon; a request carrying invalid distances
//!   leaves its connection serving;
//! * a request line naming a server-side file to write or read is
//!   refused, and the file is left untouched;
//! * a client disconnect cancels its in-flight request;
//! * concurrent clients all get correct answers;
//! * a drain finishes queued and in-flight work before acknowledging.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use mutree::core::{
    codec, solve_plan, EnvOverrides, SolvePlan, SolveReport, SolveRequest, StageProvenance,
};
use mutree::distmat::{gen, DistanceMatrix};
use mutree::engine::wire::{ERROR_HEADER, REPORT_HEADER};
use mutree::engine::ServeErrorCode;
use mutree::serve::{read_frame, write_frame, Client, ClientError, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic near-ultrametric test matrix; distinct seeds give
/// distinct matrices (and distinct cache keys, so tests sharing the
/// process-wide cache cannot contaminate each other).
fn matrix(n: usize, seed: u64) -> DistanceMatrix {
    gen::perturbed_ultrametric(n, 50.0, 0.2, &mut StdRng::seed_from_u64(seed))
}

/// Bit-level equality of two reports' answers: optimum bits, stop reason
/// and every returned tree's canonical codec bytes. Search counters are
/// left to the callers, since a cache replay's differ by design. (Full
/// struct equality would also compare wall-clock stage timings, which
/// legitimately differ between two runs of the same search.)
fn assert_bit_identical(a: &SolveReport, b: &SolveReport) {
    assert_eq!(a.weight.to_bits(), b.weight.to_bits());
    assert_eq!(a.stop, b.stop);
    assert_eq!(codec::encode_tree(&a.tree), codec::encode_tree(&b.tree));
    assert_eq!(a.trees.len(), b.trees.len());
    for (x, y) in a.trees.iter().zip(&b.trees) {
        assert_eq!(codec::encode_tree(x), codec::encode_tree(y));
    }
}

#[test]
fn daemon_answers_bit_identically_to_in_process_solve_plan() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for seed in [11u64, 12, 13] {
        // Explicit cache choice so the daemon's cache-by-default policy
        // cannot make the two plans differ.
        let req = SolveRequest::exact(matrix(8, seed)).cache(false);
        let local = solve_plan(&SolvePlan::resolve(req.clone(), &EnvOverrides::none()))
            .expect("in-process solve");
        let remote = client.solve(&req).expect("daemon solve");
        assert_bit_identical(&remote, &local);
        assert_eq!(remote.stats, local.stats);
    }
    client.drain().expect("drain");
    server.join();
}

#[test]
fn cache_hit_replay_is_cached_and_bit_identical() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Request leaves `cache` unset: the daemon's cache-by-default policy
    // is itself under test here.
    let req = SolveRequest::exact(matrix(9, 0xcac4e));
    let first = client.solve(&req).expect("filing solve");
    assert_eq!(first.stats.cache_hits, 0);
    assert_eq!(first.stats.cache_misses, 1);
    // The replay comes over a *different* connection: the cache is
    // process-wide, not per-client.
    let mut other = Client::connect(server.local_addr()).expect("connect second client");
    let replay = other.solve(&req).expect("replayed solve");
    assert_eq!(replay.stats.cache_hits, 1);
    assert_eq!(replay.timings.len(), 1);
    assert_eq!(replay.timings[0].provenance, StageProvenance::Cached);
    assert_bit_identical(&replay, &first);
    client.drain().expect("drain");
    server.join();
}

#[test]
fn decompose_replay_is_cached_and_bit_identical() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let m = matrix(24, 0xdec0);
    let local = solve_plan(&SolvePlan::resolve(
        SolveRequest::decompose(m.clone()).cache(false),
        &EnvOverrides::none(),
    ))
    .expect("in-process solve");
    assert!(local.is_complete());
    assert!(local.groups.as_ref().is_some_and(|g| g.len() > 1));
    // Request leaves `cache` unset: the daemon's cache-by-default policy
    // holds for decompositions too, although every daemon solve carries
    // a cancel token.
    let req = SolveRequest::decompose(m);
    let first = client.solve(&req).expect("filing solve");
    let replay = client.solve(&req).expect("replayed solve");
    assert!(first.stats.cache_misses >= 1);
    assert!(replay.stats.cache_hits >= 1);
    assert_eq!(replay.timings[0].provenance, StageProvenance::Cached);
    assert_bit_identical(&first, &local);
    assert_bit_identical(&replay, &local);
    client.drain().expect("drain");
    server.join();
}

/// Reads one frame's payload as text, panicking on transport trouble.
fn read_text(stream: &mut TcpStream) -> (u32, String) {
    let (tag, payload) = read_frame(stream).expect("read frame").expect("a frame");
    (tag, String::from_utf8(payload).expect("utf-8 payload"))
}

#[test]
fn malformed_frames_get_error_frames_and_do_not_kill_the_daemon() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();

    // An unknown payload header: error frame, connection stays usable.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    write_frame(&mut raw, 5, b"definitely not a request\n").expect("write");
    let (tag, text) = read_text(&mut raw);
    assert_eq!(tag, 5);
    let err = mutree::engine::ServeError::decode(&text).expect("error frame");
    assert_eq!(err.code, ServeErrorCode::Malformed);

    // A request frame whose body fails the request codec: same deal, on
    // the same still-alive connection.
    write_frame(&mut raw, 6, b"mutree-request v1\nmatrix inline bogus\n").expect("write");
    let (tag, text) = read_text(&mut raw);
    assert_eq!(tag, 6);
    let err = mutree::engine::ServeError::decode(&text).expect("error frame");
    assert_eq!(err.code, ServeErrorCode::Malformed);

    // A server-side path source is refused: the daemon does not read
    // local files on a client's say-so.
    let req = SolveRequest::new(mutree::engine::MatrixSource::PhylipPath(
        "/etc/hosts".into(),
    ));
    write_frame(&mut raw, 7, req.encode().as_bytes()).expect("write");
    let (tag, text) = read_text(&mut raw);
    assert_eq!(tag, 7);
    let err = mutree::engine::ServeError::decode(&text).expect("error frame");
    assert_eq!(err.code, ServeErrorCode::Malformed);

    // A truncated frame (header promises more than ever arrives): the
    // daemon names the problem before giving up on the stream.
    let mut truncated = TcpStream::connect(addr).expect("connect truncated");
    truncated.write_all(&100u32.to_be_bytes()).expect("len");
    truncated.write_all(&9u32.to_be_bytes()).expect("tag");
    truncated
        .write_all(b"only a little")
        .expect("partial payload");
    truncated
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let (tag, text) = read_text(&mut truncated);
    assert_eq!(tag, 9);
    let err = mutree::engine::ServeError::decode(&text).expect("error frame");
    assert_eq!(err.code, ServeErrorCode::Malformed);

    // An oversized length prefix: refused without allocation, answered,
    // connection closed (no resync is possible mid-payload).
    let mut oversized = TcpStream::connect(addr).expect("connect oversized");
    oversized.write_all(&u32::MAX.to_be_bytes()).expect("len");
    oversized.write_all(&77u32.to_be_bytes()).expect("tag");
    let (tag, text) = read_text(&mut oversized);
    assert_eq!(tag, 77);
    let err = mutree::engine::ServeError::decode(&text).expect("error frame");
    assert_eq!(err.code, ServeErrorCode::Malformed);

    // After all of that abuse the daemon still solves.
    let mut client = Client::connect(addr).expect("connect healthy client");
    let report = client
        .solve(&SolveRequest::exact(matrix(7, 0xab5e)))
        .expect("healthy solve after abuse");
    assert!(report.is_complete());
    client.drain().expect("drain");
    server.join();
}

#[test]
fn snapshot_path_lines_are_refused_and_touch_no_file() {
    let dir = std::env::temp_dir().join(format!("mutree-serve-paths-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let victim = dir.join("victim.txt");
    let original = b"a file the daemon's user can replace\n";
    std::fs::write(&victim, original).expect("write victim");
    let absent = dir.join("absent.bin");

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    // A well-formed request with one extra line right after the header.
    let body = SolveRequest::exact(matrix(7, 0x5a9e)).cache(false).encode();
    let (header, rest) = body.split_once('\n').expect("header line");
    let lines = [
        format!("checkpoint 1 {}", victim.display()),
        format!("checkpoint 1 {}", absent.display()),
        format!("resume {}", victim.display()),
    ];
    for (tag, line) in (1u32..).zip(&lines) {
        let text = format!("{header}\n{line}\n{rest}");
        write_frame(&mut raw, tag, text.as_bytes()).expect("write");
        let (got, reply) = read_text(&mut raw);
        assert_eq!(got, tag);
        let err = mutree::engine::ServeError::decode(&reply)
            .unwrap_or_else(|_| panic!("{line}: expected an error frame, got {reply}"));
        assert_eq!(err.code, ServeErrorCode::Malformed, "{line}");
        let keyword = line.split(' ').next().unwrap();
        assert!(
            err.message
                .contains(&format!("line 2: unknown keyword {keyword:?}")),
            "{line}: {}",
            err.message
        );
        assert_eq!(
            std::fs::read(&victim).expect("victim still readable"),
            original,
            "{line}: the existing file changed"
        );
        assert!(!absent.exists(), "{line}: a file was created");
    }
    drop(raw);
    let summary = Client::connect(addr)
        .expect("connect drain client")
        .drain()
        .expect("drain");
    assert_eq!(summary.errors, 3);
    assert_eq!(summary.served, 0);
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_inline_distances_get_an_error_frame_and_the_connection_lives_on() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut raw = TcpStream::connect(addr).expect("connect raw");

    // A NaN distance in an inline matrix is answered with an error frame;
    // decoding it must not take down the connection thread.
    let nan = "mutree-request v1\nmatrix inline 3\nrow 4000000000000000\n\
               row 4000000000000000 7ff8000000000000\n";
    write_frame(&mut raw, 1, nan.as_bytes()).expect("write");
    let (tag, text) = read_text(&mut raw);
    assert_eq!(tag, 1);
    let err = mutree::engine::ServeError::decode(&text).expect("error frame");
    assert_eq!(err.code, ServeErrorCode::Malformed);

    // The same connection then serves a good request.
    let req = SolveRequest::exact(matrix(6, 0x7a17)).cache(false);
    write_frame(&mut raw, 2, req.encode().as_bytes()).expect("write");
    let (tag, text) = read_text(&mut raw);
    assert_eq!(tag, 2);
    let remote = SolveReport::decode(&text).expect("report frame");
    let local = solve_plan(&SolvePlan::resolve(req, &EnvOverrides::none())).expect("local");
    assert_bit_identical(&remote, &local);
    assert_eq!(remote.stats, local.stats);
    drop(raw);

    let summary = Client::connect(addr)
        .expect("connect drain client")
        .drain()
        .expect("drain");
    assert_eq!(summary.errors, 1);
    assert_eq!(summary.served, 1);
    server.join();
}

#[test]
fn client_disconnect_mid_solve_cancels_the_request() {
    // The stall hook parks every solve in a cancellable wait, making the
    // mid-solve window deterministic without a huge matrix.
    let config = ServeConfig {
        stall: Some(Duration::from_secs(10)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    {
        let mut doomed = TcpStream::connect(addr).expect("connect doomed client");
        let req = SolveRequest::exact(matrix(8, 0xd15c));
        write_frame(&mut doomed, 1, req.encode().as_bytes()).expect("send");
        // Give the daemon time to dispatch into the stall, then vanish.
        std::thread::sleep(Duration::from_millis(200));
    }
    // The drain must return promptly — a cancellation that did not take
    // would hold it for the full 10 s stall.
    let t0 = std::time::Instant::now();
    let summary = Client::connect(addr)
        .expect("connect drain client")
        .drain()
        .expect("drain");
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "drain waited out the stall: the disconnect did not cancel"
    );
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.served, 0);
    server.join();
}

#[test]
fn eight_concurrent_clients_all_get_correct_answers() {
    // An oversubscribed shared pool, and half the requests searching in
    // input order: every answer must still match the local reference bit
    // for bit.
    let config = ServeConfig {
        workers: 4,
        threads: 8,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for c in 0..8u64 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for k in 0..3u64 {
                    let seed = 0xc0_0000 + c * 100 + k;
                    let mut req = SolveRequest::exact(matrix(7, seed)).cache(false);
                    req.use_maxmin = (c + k) % 2 == 0;
                    let local = solve_plan(&SolvePlan::resolve(req.clone(), &EnvOverrides::none()))
                        .expect("local solve");
                    let remote = client.solve(&req).expect("daemon solve");
                    assert_bit_identical(&remote, &local);
                    assert_eq!(remote.stats, local.stats);
                }
            });
        }
    });
    let summary = Client::connect(addr)
        .expect("connect drain client")
        .drain()
        .expect("drain");
    assert_eq!(summary.served, 24);
    assert_eq!(
        summary.shed + summary.cancelled + summary.panicked + summary.errors,
        0
    );
    server.join();
}

#[test]
fn drain_finishes_in_flight_work_before_acknowledging() {
    let config = ServeConfig {
        stall: Some(Duration::from_millis(400)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .solve(&SolveRequest::exact(matrix(8, 0xd4a1)))
            .expect("in-flight request must be answered despite the drain")
    });
    // Let the request reach its stall, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    let summary = Client::connect(addr)
        .expect("connect drain client")
        .drain()
        .expect("drain");
    assert_eq!(summary.served, 1, "the drain must wait for in-flight work");
    let report = worker.join().expect("client thread");
    assert!(report.is_complete());
    // Admission is closed for good: new connections are refused once the
    // acceptor has exited (give its poll loop a beat to notice).
    server.join();
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        TcpStream::connect(addr).is_err(),
        "daemon must stop listening after a drain"
    );
}

#[test]
fn requests_racing_a_drain_get_clean_draining_frames() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    Client::connect(addr)
        .expect("connect drain client")
        .drain()
        .expect("drain");
    // The already-open connection is still readable, but admission is
    // closed: the daemon says so instead of hanging or dropping the
    // frame. (It may instead have torn the connection down already —
    // both are clean outcomes; what is banned is an accepted solve.)
    match client.solve(&SolveRequest::exact(matrix(6, 0xdead))) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ServeErrorCode::Draining),
        Err(ClientError::Io(_)) => {}
        other => panic!("a draining daemon accepted a solve: {other:?}"),
    }
    server.join();
}

/// The response headers the daemon can legally emit, pinned here so a
/// codec rename cannot silently change the wire.
#[test]
fn response_headers_are_the_documented_constants() {
    assert_eq!(REPORT_HEADER, "mutree-report v4");
    assert_eq!(ERROR_HEADER, "mutree-error v1");
    assert_eq!(mutree::serve::DRAIN_HEADER, "mutree-drain v1");
}

/// Bind/drain/join cycles must never hang. A drain wakes the dispatch
/// workers after setting the draining flag; that flag has to be
/// published under the scheduler lock the workers check it under, or a
/// worker between its check and its wait misses the wakeup and
/// `Server::join` blocks forever. Workers only pass through that window
/// while they are busy, so each cycle drains under live traffic from two
/// clients. The cycles run on their own thread under a watchdog.
#[test]
fn bind_drain_join_cycles_never_hang() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for cycle in 0..200u64 {
            let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
            let addr = server.local_addr();
            let traffic: Vec<_> = (0..2u64)
                .map(|c| {
                    let mut client = Client::connect(addr).expect("connect");
                    let req = SolveRequest::exact(matrix(4, 2 * cycle + c)).cache(false);
                    // Solve until the drain turns requests away.
                    std::thread::spawn(move || while client.solve(&req).is_ok() {})
                })
                .collect();
            std::thread::sleep(Duration::from_millis(2));
            Client::connect(addr)
                .expect("connect")
                .drain()
                .expect("drain");
            for t in traffic {
                t.join().expect("traffic client");
            }
            server.join();
        }
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("a drained daemon hung in join");
}
