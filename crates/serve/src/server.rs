//! The daemon: listener, admission control, dispatch workers, drain.
//!
//! ```text
//! client ──frame──▶ connection thread ──admit──▶ pending queue (EDF, bounded)
//!                                                      │
//!                              dispatch workers ◀──────┘
//!                                │  solve_plan_hooked(plan, {deadline, cancel,
//!                                │                           shared executor})
//!                                ▼
//!                        response frame (report | error)
//! ```
//!
//! **Admission control.** The pending queue is bounded
//! ([`ServeConfig::queue_depth`]); a request arriving at a full queue is
//! shed immediately with an `overloaded` error frame rather than queued
//! into a latency cliff. Dispatch is earliest-deadline-first: each
//! request's relative `timeout` becomes an absolute deadline *at
//! admission* (queue wait counts against the request's budget, exactly
//! as a client experiences it), deadline-less requests sort last, and
//! ties dispatch FIFO. A request whose deadline has already passed when
//! a worker picks it up is shed as `overloaded` too — starting it could
//! only waste pool time the live requests need. A request whose deadline
//! expires *mid-solve* is not an error: the anytime search returns its
//! best incumbent and the report says `stop deadline`.
//!
//! **Cancellation.** Every admitted request gets a
//! [`CancelToken`] owned by its connection;
//! when the connection's read loop sees EOF or an I/O error, it cancels
//! every token it handed out. A queued request is then dropped at
//! dispatch; an in-flight solve observes the token at its next bound
//! check and stops.
//!
//! **Shared state.** All connections solve through one process-wide
//! [`Executor`] and — because requests default to `cache on` under the
//! daemon ([`ServeConfig::cache_default`]) — one process-wide
//! [`GroupCache`](mutree_core::GroupCache) (the same instance
//! `solve_plan` uses in-process, so a daemon answer is bit-identical to
//! a local one). Replayed matrices are answered from memory with
//! `StageProvenance::Cached`.
//!
//! **Drain.** A `mutree-shutdown v1` frame stops admission (and the
//! acceptor), lets every queued and in-flight request finish, then
//! answers with a `mutree-drain v1` summary carrying the daemon's
//! lifetime counters. [`Server::join`] returns once the workers exit.
//! SIGTERM cannot be hooked from std without `unsafe`, so process
//! supervisors should send the shutdown frame (`mutree serve --drain`)
//! and SIGTERM only as the escalation.

use std::collections::BinaryHeap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mutree_core::{
    solve_plan_hooked, CancelToken, EnvOverrides, Executor, MatrixSource, QueueStats, SolveHooks,
    SolvePlan, SolveRequest, StopReason,
};
use mutree_engine::plan::{env_serve_queue_depth, env_serve_workers};
use mutree_engine::wire::{REQUEST_HEADER, SHUTDOWN_HEADER};
use mutree_engine::{ServeError, ServeErrorCode};

use crate::frame::{self, FrameError};

/// First line of the drain acknowledgement payload.
pub const DRAIN_HEADER: &str = "mutree-drain v1";

/// How often the acceptor polls its non-blocking listener for new
/// connections and the drain flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// Slice width for the cancellable stall test hook.
const STALL_POLL: Duration = Duration::from_millis(5);

/// Daemon configuration. Knob precedence is the spine's usual
/// **caller > environment > default** — [`ServeConfig::resolve`] folds
/// the `MUTREE_SERVE_*` variables (read in `mutree_engine::plan`, the
/// workspace's single environment reader) under explicit values.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most requests that may wait in the pending queue; one more is
    /// shed. Default 64.
    pub queue_depth: usize,
    /// Dispatch workers: the number of requests solved concurrently.
    /// Default 2.
    pub workers: usize,
    /// Threads in the shared [`Executor`] that parallel-backend and
    /// decomposed solves borrow. Default: same as `workers`.
    pub threads: usize,
    /// Whether requests that do not say `cache on|off` themselves run
    /// with the shared cache (the daemon's reason to exist is serving
    /// repeated matrices from memory, so the default is `true`; a
    /// request's explicit choice always wins).
    pub cache_default: bool,
    /// Test hook: sleep this long (in cancellable slices) before each
    /// solve, so protocol tests can deterministically hit the
    /// mid-solve window for disconnects and drains.
    #[doc(hidden)]
    pub stall: Option<Duration>,
    /// Test hook: inject the solver's `panic_on_taxa` fault (via
    /// `SolveHooks`) into every solve, so chaos tests can prove a
    /// panicking request fails alone.
    #[doc(hidden)]
    pub fault_taxa: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 64,
            workers: 2,
            threads: 2,
            cache_default: true,
            stall: None,
            fault_taxa: None,
        }
    }
}

impl ServeConfig {
    /// Resolves a config from optional explicit values (CLI flags) over
    /// the `MUTREE_SERVE_QUEUE_DEPTH` / `MUTREE_SERVE_WORKERS`
    /// environment knobs over the defaults. `threads` follows the
    /// resolved worker count unless explicitly set later.
    pub fn resolve(queue_depth: Option<usize>, workers: Option<usize>) -> ServeConfig {
        let defaults = ServeConfig::default();
        let workers = workers
            .or_else(env_serve_workers)
            .unwrap_or(defaults.workers)
            .max(1);
        ServeConfig {
            queue_depth: queue_depth
                .or_else(env_serve_queue_depth)
                .unwrap_or(defaults.queue_depth)
                .max(1),
            workers,
            threads: workers,
            ..defaults
        }
    }
}

/// Lifetime counters of a daemon, reported in the drain acknowledgement.
/// Every admitted or refused request lands in exactly one counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered with a report frame (including anytime reports
    /// whose deadline expired mid-solve).
    pub served: u64,
    /// Requests shed by admission control: queue full, or deadline
    /// already unmeetable at dispatch.
    pub shed: u64,
    /// Requests cancelled by client disconnect (queued or mid-solve).
    pub cancelled: u64,
    /// Requests whose solve panicked (the daemon survived).
    pub panicked: u64,
    /// Requests answered with a `malformed`, `draining` or `solver`
    /// error frame.
    pub errors: u64,
}

impl ServeSummary {
    /// Serializes to the `mutree-drain v1` line form.
    pub fn encode(&self) -> String {
        format!(
            "{DRAIN_HEADER}\nserved {}\nshed {}\ncancelled {}\npanicked {}\nerrors {}\n",
            self.served, self.shed, self.cancelled, self.panicked, self.errors
        )
    }

    /// Parses the text form produced by [`encode`](ServeSummary::encode).
    /// `None` on a wrong header or malformed counter line.
    pub fn decode(text: &str) -> Option<ServeSummary> {
        let mut lines = text.lines();
        if lines.next() != Some(DRAIN_HEADER) {
            return None;
        }
        let mut summary = ServeSummary::default();
        for raw in lines {
            let raw = raw.trim_end();
            if raw.is_empty() {
                continue;
            }
            let (keyword, rest) = raw.split_once(' ')?;
            let value: u64 = rest.trim().parse().ok()?;
            match keyword {
                "served" => summary.served = value,
                "shed" => summary.shed = value,
                "cancelled" => summary.cancelled = value,
                "panicked" => summary.panicked = value,
                "errors" => summary.errors = value,
                _ => return None,
            }
        }
        Some(summary)
    }
}

struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    errors: AtomicU64,
}

impl Counters {
    fn new() -> Counters {
        Counters {
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> ServeSummary {
        ServeSummary {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// The write half of a connection. Responses from dispatch workers and
/// admission errors from the read loop interleave through one mutex, so
/// frames never tear.
struct Conn {
    writer: Mutex<TcpStream>,
}

impl Conn {
    /// Best-effort response: a client that already disconnected makes
    /// the write fail, which is not the daemon's problem.
    fn send(&self, tag: u32, payload: &str) -> bool {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        frame::write_frame(&mut *w, tag, payload.as_bytes()).is_ok()
    }

    fn send_error(&self, tag: u32, code: ServeErrorCode, message: impl Into<String>) -> bool {
        self.send(tag, &ServeError::new(code, message).encode())
    }
}

struct Job {
    plan: SolvePlan,
    /// Absolute deadline fixed at admission (queue wait counts).
    deadline: Option<Instant>,
    /// Admission order, the EDF tie-break.
    seq: u64,
    cancel: CancelToken,
    conn: Arc<Conn>,
    tag: u32,
}

/// EDF ordering for the max-heap: earliest deadline is "greatest",
/// deadline-less jobs sort last, FIFO within ties.
struct QueueEntry(Job);

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let by_deadline = match (self.0.deadline, other.0.deadline) {
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (None, None) => std::cmp::Ordering::Equal,
        };
        by_deadline.then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

struct Sched {
    pending: BinaryHeap<QueueEntry>,
    in_flight: usize,
    next_seq: u64,
}

struct Shared {
    state: Mutex<Sched>,
    /// Wakes dispatch workers: new pending work, or drain.
    work_cv: Condvar,
    /// Wakes drain waiters: pending and in-flight both hit zero.
    idle_cv: Condvar,
    draining: AtomicBool,
    exec: Executor,
    env: EnvOverrides,
    config: ServeConfig,
    counters: Counters,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running daemon. Binding spawns the acceptor and the dispatch
/// workers; [`join`](Server::join) blocks until a shutdown frame drains
/// the daemon.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving. The environment ([`EnvOverrides::capture`]) is captured
    /// once, here: every request this daemon runs resolves against the
    /// daemon's environment, exactly like `solve_request` in-process.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listener.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(Sched {
                pending: BinaryHeap::new(),
                in_flight: 0,
                next_seq: 0,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            exec: Executor::new(config.threads.max(1)),
            env: EnvOverrides::capture(),
            config,
            counters: Counters::new(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mutree-serve-accept".to_string())
                .spawn(move || acceptor_loop(&shared, &listener))
                .expect("spawn acceptor")
        };
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mutree-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn dispatch worker")
            })
            .collect();
        Ok(Server {
            shared,
            addr,
            acceptor,
            workers,
        })
    }

    /// The bound address (with the actual port when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counter snapshot (the drain ack carries the final one).
    pub fn summary(&self) -> ServeSummary {
        self.shared.counters.snapshot()
    }

    /// Queue counters of the shared executor all solves ran on.
    pub fn executor_stats(&self) -> QueueStats {
        self.shared.exec.queue_stats()
    }

    /// Waits for a drain (triggered by a client's shutdown frame) and
    /// returns the final counters.
    pub fn join(self) -> ServeSummary {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        self.shared.counters.snapshot()
    }
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.draining.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("mutree-serve-conn".to_string())
                    .spawn(move || connection_loop(&shared, stream));
                // Out of threads: refuse this connection, keep serving.
                drop(spawned);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            // Transient accept errors (aborted handshakes) are not fatal.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn {
        writer: Mutex::new(write_half),
    });
    let mut reader = stream;
    // Tokens of every request this connection admitted; cancelled in
    // bulk when the client goes away (sticky tokens make cancelling
    // already-answered requests harmless).
    let mut tokens: Vec<CancelToken> = Vec::new();
    loop {
        match frame::read_frame(&mut reader) {
            Ok(None) | Err(FrameError::Io(_)) => break,
            Err(FrameError::Truncated(tag)) => {
                // The read half died mid-frame but the write half may
                // still be up (a half-close): name the problem, then
                // treat the connection as gone.
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                conn.send_error(
                    tag.unwrap_or(0),
                    ServeErrorCode::Malformed,
                    "truncated frame",
                );
                break;
            }
            Err(e @ FrameError::Oversized { tag, .. }) => {
                // The oversized payload was never read, so the stream
                // position is inside it: no resync is possible, answer
                // and close.
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                conn.send_error(tag, ServeErrorCode::Malformed, e.to_string());
                break;
            }
            Ok(Some((tag, payload))) => {
                let Ok(text) = String::from_utf8(payload) else {
                    // Framing is intact, so the conversation can go on.
                    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                    conn.send_error(tag, ServeErrorCode::Malformed, "payload is not UTF-8");
                    continue;
                };
                let header = text.lines().next().unwrap_or("").trim_end();
                if header == SHUTDOWN_HEADER {
                    drain(shared);
                    conn.send(tag, &shared.counters.snapshot().encode());
                    break;
                } else if header == REQUEST_HEADER {
                    admit(shared, &conn, tag, &text, &mut tokens);
                } else {
                    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                    conn.send_error(
                        tag,
                        ServeErrorCode::Malformed,
                        format!("unknown payload header {header:?}"),
                    );
                }
            }
        }
    }
    for token in tokens {
        token.cancel();
    }
}

fn admit(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    tag: u32,
    text: &str,
    tokens: &mut Vec<CancelToken>,
) {
    if shared.draining.load(Ordering::Acquire) {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        conn.send_error(tag, ServeErrorCode::Draining, "daemon is draining");
        return;
    }
    let mut req = match SolveRequest::decode(text) {
        Ok(req) => req,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            conn.send_error(tag, ServeErrorCode::Malformed, e.to_string());
            return;
        }
    };
    // Validation-strict: the daemon solves what the client sent, it does
    // not read server-local files on a client's say-so.
    if matches!(req.source, MatrixSource::PhylipPath(_)) {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        conn.send_error(
            tag,
            ServeErrorCode::Malformed,
            "the daemon accepts inline matrices only (matrix inline …), not server-side paths",
        );
        return;
    }
    if req.cache.is_none() && shared.config.cache_default {
        req = req.cache(true);
    }
    let deadline = req.timeout.map(|t| Instant::now() + t);
    let plan = SolvePlan::resolve(req, &shared.env);
    let token = CancelToken::new();
    {
        let mut st = shared.lock();
        // The check above is a fast path; this one decides. A drain that
        // began since then may already have seen an empty queue and
        // released the workers, so a job queued now would never run.
        // `drain` sets the flag under this lock, so either it is visible
        // here or the job is queued before the drain looks.
        if shared.draining.load(Ordering::Acquire) {
            drop(st);
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            conn.send_error(tag, ServeErrorCode::Draining, "daemon is draining");
            return;
        }
        if st.pending.len() >= shared.config.queue_depth {
            drop(st);
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            conn.send_error(
                tag,
                ServeErrorCode::Overloaded,
                format!("pending queue full (depth {})", shared.config.queue_depth),
            );
            return;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push(QueueEntry(Job {
            plan,
            deadline,
            seq,
            cancel: token.clone(),
            conn: Arc::clone(conn),
            tag,
        }));
        shared.work_cv.notify_one();
    }
    tokens.push(token);
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if let Some(entry) = st.pending.pop() {
                    st.in_flight += 1;
                    break Some(entry.0);
                }
                if shared.draining.load(Ordering::Acquire) {
                    break None;
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        run_job(shared, &job);
        let st = shared.lock();
        let idle = {
            let mut st = st;
            st.in_flight -= 1;
            st.in_flight == 0 && st.pending.is_empty()
        };
        if idle {
            shared.idle_cv.notify_all();
        }
    }
}

fn run_job(shared: &Arc<Shared>, job: &Job) {
    let c = &shared.counters;
    if job.cancel.is_cancelled() {
        // The client disconnected while the job was still queued.
        c.cancelled.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if let Some(d) = job.deadline {
        if Instant::now() >= d {
            c.shed.fetch_add(1, Ordering::Relaxed);
            job.conn.send_error(
                job.tag,
                ServeErrorCode::Overloaded,
                "deadline already unmeetable at dispatch",
            );
            return;
        }
    }
    if let Some(stall) = shared.config.stall {
        let end = Instant::now() + stall;
        while Instant::now() < end {
            if job.cancel.is_cancelled() {
                c.cancelled.fetch_add(1, Ordering::Relaxed);
                job.conn
                    .send_error(job.tag, ServeErrorCode::Cancelled, "client disconnected");
                return;
            }
            std::thread::sleep(STALL_POLL);
        }
    }
    let hooks = SolveHooks {
        deadline: job.deadline,
        cancel: Some(job.cancel.clone()),
        executor: Some(shared.exec.clone()),
        panic_on_taxa: shared.config.fault_taxa,
    };
    match catch_unwind(AssertUnwindSafe(|| solve_plan_hooked(&job.plan, &hooks))) {
        Err(_) => {
            // The request died; the daemon, its pool and every other
            // request did not.
            c.panicked.fetch_add(1, Ordering::Relaxed);
            job.conn.send_error(
                job.tag,
                ServeErrorCode::Panicked,
                "the solve panicked; this request failed, the daemon is unharmed",
            );
        }
        Ok(Err(e)) => {
            c.errors.fetch_add(1, Ordering::Relaxed);
            job.conn
                .send_error(job.tag, ServeErrorCode::Solver, e.to_string());
        }
        Ok(Ok(report)) => {
            if report.stop == StopReason::Cancelled && job.cancel.is_cancelled() {
                c.cancelled.fetch_add(1, Ordering::Relaxed);
                job.conn
                    .send_error(job.tag, ServeErrorCode::Cancelled, "client disconnected");
            } else {
                c.served.fetch_add(1, Ordering::Relaxed);
                job.conn.send(job.tag, &report.encode());
            }
        }
    }
}

/// Stops admission, waits for queued + in-flight work to finish.
fn drain(shared: &Arc<Shared>) {
    // Publish the flag under the state lock: `worker_loop` checks it
    // while holding that lock, so a worker is either before its check
    // (and sees the flag) or already waiting (and gets the notification).
    // Stored without the lock, a worker between its check and its wait
    // would sleep forever and `Server::join` would hang.
    let mut st = shared.lock();
    shared.draining.store(true, Ordering::Release);
    shared.work_cv.notify_all();
    while st.in_flight > 0 || !st.pending.is_empty() {
        st = shared.idle_cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_round_trips() {
        let s = ServeSummary {
            served: 400,
            shed: 13,
            cancelled: 2,
            panicked: 1,
            errors: 5,
        };
        assert_eq!(ServeSummary::decode(&s.encode()), Some(s));
        assert_eq!(ServeSummary::decode("mutree-drain v2\n"), None);
        assert_eq!(ServeSummary::decode("mutree-drain v1\nserved x\n"), None);
    }

    #[test]
    fn edf_orders_by_deadline_then_fifo() {
        let now = Instant::now();
        let job = |seq: u64, deadline: Option<Duration>| {
            let mut m = mutree_distmat::DistanceMatrix::zeros(3).unwrap();
            m.set(1, 0, 2.0);
            m.set(2, 0, 4.0);
            m.set(2, 1, 4.0);
            QueueEntry(Job {
                plan: SolvePlan::resolve(SolveRequest::exact(m), &EnvOverrides::none()),
                deadline: deadline.map(|d| now + d),
                seq,
                cancel: CancelToken::new(),
                conn: Arc::new(Conn {
                    writer: Mutex::new(loopback_pair().0),
                }),
                tag: seq as u32,
            })
        };
        let mut heap = BinaryHeap::new();
        heap.push(job(0, None));
        heap.push(job(1, Some(Duration::from_secs(30))));
        heap.push(job(2, Some(Duration::from_secs(5))));
        heap.push(job(3, Some(Duration::from_secs(5))));
        heap.push(job(4, None));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.0.seq)).collect();
        // Earliest deadline first (5 s before 30 s), FIFO within the tie
        // (2 before 3), deadline-less last in FIFO order (0 before 4).
        assert_eq!(order, vec![2, 3, 1, 0, 4]);
    }

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }
}
