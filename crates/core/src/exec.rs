//! Shared work pool and fan-out helper for the compact-set pipeline.
//!
//! The pipeline decomposes one big matrix into many independent solves
//! (one per compact group, plus a condensed meta-matrix) and then merges
//! them: one fork-join. Before this module each of those solves either
//! ran serially or spawned its own `thread::scope`, so an 8-group
//! instance on 8 cores used the machine badly: either one core, or 8 × N
//! oversubscribed threads.
//!
//! [`Executor`] owns N long-lived worker threads fed from one queue; the
//! crate-private `fan_out` runs a batch of jobs on it (or inline, without
//! one) and hands their results back. Together they give the pipeline
//! *one* thread budget shared by group-level parallelism and intra-solve
//! B&B parallelism (the executor also implements [`WorkerPool`], so
//! [`solve_parallel`](mutree_bnb::solve_parallel) borrows the same
//! workers).
//!
//! # Design rules
//!
//! * **Jobs are `'static`.** A queued job may run on a pool thread long
//!   after the submitting stack frame is gone, so jobs own (or
//!   `Arc`-share) their data. This is why [`MutProblem`](crate::MutProblem)
//!   owns its matrix.
//! * **Blocking waits help.** A wait on pool work ([`WorkerPool::run_all`],
//!   and so `fan_out`) executes queued jobs on the waiting thread instead
//!   of sleeping. A one-thread executor therefore completes any fan-out,
//!   including jobs that recursively fan out again or run pooled B&B
//!   searches on the same executor — there is always at least one thread
//!   making progress.
//! * **Panics are contained.** A panicking job yields `None` in its
//!   result slot and never takes down a worker thread or a waiter.
//! * **Results are positional.** Fan-out results come back in job order,
//!   never completion order, so callers that aggregate (the pipeline
//!   merging stats and degradation records) stay deterministic under any
//!   scheduling.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mutree_bnb::{PoolJob, WorkerPool};

/// How long a helping waiter sleeps when the queue is momentarily empty
/// but its wait condition has not fired yet. Bounds the staleness window
/// between "a new job was queued" and "the helper notices it" when every
/// pool worker is busy; pool workers themselves block on the queue condvar
/// and wake immediately.
const HELP_POLL: Duration = Duration::from_millis(2);

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

struct PoolQueue {
    jobs: Mutex<VecDeque<PoolJob>>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Jobs ever pushed (queue instrumentation; see [`QueueStats`]).
    submitted: AtomicU64,
    /// Jobs popped for execution (by a worker or a helping waiter).
    started: AtomicU64,
    /// High-water mark of jobs simultaneously queued.
    peak_depth: AtomicUsize,
}

impl PoolQueue {
    /// Non-blocking pop, used by helping waiters.
    fn try_pop(&self) -> Option<PoolJob> {
        let job = self
            .jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front();
        if job.is_some() {
            self.started.fetch_add(1, Ordering::Relaxed);
        }
        job
    }

    /// Blocking pop, used by pool workers; `None` means shut down.
    fn next_job(&self) -> Option<PoolJob> {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = jobs.pop_front() {
                self.started.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            jobs = self.cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn push(&self, job: PoolJob) {
        let depth = {
            let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            jobs.push_back(job);
            jobs.len()
        };
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.peak_depth.fetch_max(depth, Ordering::Relaxed);
        self.cv.notify_one();
    }
}

/// A snapshot of an [`Executor`]'s queue counters, for admission-control
/// observability: a long-lived daemon reports these at drain so sustained
/// load (jobs submitted), progress (jobs started) and backlog pressure
/// (the deepest the queue ever got) are visible without tracing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs ever pushed onto the pool queue.
    pub submitted: u64,
    /// Jobs popped for execution (by a pool worker or a helping waiter).
    /// `submitted - started` is the backlog at snapshot time.
    pub started: u64,
    /// High-water mark of jobs simultaneously queued.
    pub peak_depth: usize,
}

fn worker_loop(queue: &PoolQueue) {
    while let Some(job) = queue.next_job() {
        // A panicking job must not kill the worker; latch accounting is
        // done by a Drop guard inside the job itself, which runs during
        // this unwind.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Owns the threads; dropping the last [`Executor`] handle shuts the pool
/// down and joins them.
struct ExecutorCore {
    queue: Arc<PoolQueue>,
    threads: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for ExecutorCore {
    fn drop(&mut self) {
        // Publish the flag under the queue lock: `next_job` checks it
        // while holding that lock, so a worker is either before its
        // check (and sees the flag) or already waiting (and gets the
        // notification). Stored without the lock, a worker between its
        // check and its wait would sleep forever and the join would hang.
        {
            let _jobs = self.queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
            self.queue.shutdown.store(true, Ordering::Release);
        }
        self.queue.cv.notify_all();
        for handle in self
            .handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

/// A fixed-size pool of worker threads fed from one shared queue.
///
/// Cheap to clone (a handle); the threads live until the last handle
/// drops. Submitted jobs are `'static` and panic-isolated. Blocking
/// waits ([`WorkerPool::run_all`]) have the help-while-wait property
/// described in the module docs.
#[derive(Clone)]
pub struct Executor {
    core: Arc<ExecutorCore>,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.core.threads)
            .finish()
    }
}

impl Executor {
    /// Spawns a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Executor {
        let threads = threads.max(1);
        let queue = Arc::new(PoolQueue {
            jobs: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            started: AtomicU64::new(0),
            peak_depth: AtomicUsize::new(0),
        });
        let handles = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("mutree-exec-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            core: Arc::new(ExecutorCore {
                queue,
                threads,
                handles: Mutex::new(handles),
            }),
        }
    }

    /// A snapshot of the pool queue's lifetime counters.
    pub fn queue_stats(&self) -> QueueStats {
        let q = &self.core.queue;
        QueueStats {
            submitted: q.submitted.load(Ordering::Relaxed),
            started: q.started.load(Ordering::Relaxed),
            peak_depth: q.peak_depth.load(Ordering::Relaxed),
        }
    }

    fn spawn_job(&self, job: PoolJob) {
        self.core.queue.push(job);
    }

    /// Runs queued jobs on the calling thread until `latch` releases.
    fn help_latch(&self, latch: &Latch) {
        while !latch.is_done() {
            match self.core.queue.try_pop() {
                Some(job) => {
                    let _ = catch_unwind(AssertUnwindSafe(job));
                }
                None => latch.wait_briefly(),
            }
        }
    }
}

impl WorkerPool for Executor {
    fn run_all(&self, jobs: Vec<PoolJob>, main: Box<dyn FnOnce() + '_>) {
        let latch = Arc::new(Latch::new(jobs.len()));
        for job in jobs {
            let guard_latch = Arc::clone(&latch);
            self.spawn_job(Box::new(move || {
                // Drop guard: the latch releases even if the job panics.
                let _guard = LatchGuard(guard_latch);
                job();
            }));
        }
        main();
        self.help_latch(&latch);
    }
}

/// Counts outstanding work; releases waiters at zero.
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new(n: usize) -> Latch {
        Latch {
            remaining: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    fn done_one(&self) {
        let mut r = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *r -= 1;
        if *r == 0 {
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().unwrap_or_else(|e| e.into_inner()) == 0
    }

    /// Sleeps until a completion notification or the short poll interval,
    /// whichever comes first (the poll bounds the window in which a newly
    /// queued job could otherwise go unnoticed by a helping waiter).
    fn wait_briefly(&self) {
        let guard = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        if *guard > 0 {
            let _ = self
                .cv
                .wait_timeout(guard, HELP_POLL)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct LatchGuard(Arc<Latch>);

impl Drop for LatchGuard {
    fn drop(&mut self) {
        self.0.done_one();
    }
}

// ---------------------------------------------------------------------------
// Fan-out
// ---------------------------------------------------------------------------

/// One [`fan_out`] job: owns (or `Arc`-shares) its data and returns its
/// result.
pub(crate) type FanJob<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// What one [`fan_out`] job produced: its result (`None` if it panicked)
/// and how long it ran.
pub(crate) type FanResult<T> = (Option<T>, Duration);

/// Runs every job and returns one [`FanResult`] per job, in job order —
/// never completion order. With an executor the jobs run on its pool
/// through [`WorkerPool::run_all`], so the caller helps while it waits;
/// without one they run in order on the calling thread. Either way each
/// job runs under `catch_unwind` and is timed.
pub(crate) fn fan_out<T: Send + 'static>(
    exec: Option<&Executor>,
    jobs: Vec<FanJob<T>>,
) -> Vec<FanResult<T>> {
    let Some(exec) = exec else {
        return jobs.into_iter().map(run_timed).collect();
    };
    let slots: Arc<[Mutex<Option<FanResult<T>>>]> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let pool_jobs: Vec<PoolJob> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| {
            let slots = Arc::clone(&slots);
            Box::new(move || {
                let out = run_timed(job);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            }) as PoolJob
        })
        .collect();
    exec.run_all(pool_jobs, Box::new(|| {}));
    slots
        .iter()
        .map(|slot| {
            slot.lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("run_all returns after every job")
        })
        .collect()
}

fn run_timed<T>(job: FanJob<T>) -> FanResult<T> {
    let started = Instant::now();
    let value = catch_unwind(AssertUnwindSafe(job)).ok();
    (value, started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_executes_every_job() {
        let exec = Executor::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<PoolJob> = (0..20)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }) as PoolJob
            })
            .collect();
        let mut main_ran = false;
        exec.run_all(jobs, Box::new(|| main_ran = true));
        assert!(main_ran);
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn run_all_survives_panicking_jobs() {
        let exec = Executor::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut jobs: Vec<PoolJob> = Vec::new();
        for i in 0..10 {
            let c = Arc::clone(&counter);
            jobs.push(Box::new(move || {
                if i % 2 == 0 {
                    panic!("injected");
                }
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        exec.run_all(jobs, Box::new(|| {}));
        assert_eq!(counter.load(Ordering::Relaxed), 5);
        // The pool is still usable afterwards.
        let c = Arc::clone(&counter);
        exec.run_all(
            vec![Box::new(move || {
                c.fetch_add(10, Ordering::Relaxed);
            })],
            Box::new(|| {}),
        );
        assert_eq!(counter.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn one_thread_executor_completes_nested_run_all() {
        // The inner run_all's jobs can only make progress because blocked
        // waiters help; a sleeping wait would deadlock this test.
        let exec = Executor::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        let inner_exec = exec.clone();
        let c = Arc::clone(&counter);
        let outer: PoolJob = Box::new(move || {
            let c2 = Arc::clone(&c);
            inner_exec.run_all(
                vec![Box::new(move || {
                    c2.fetch_add(1, Ordering::Relaxed);
                })],
                Box::new(|| {
                    c.fetch_add(1, Ordering::Relaxed);
                }),
            );
        });
        exec.run_all(vec![outer], Box::new(|| {}));
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn executor_as_worker_pool_runs_pooled_search() {
        use mutree_bnb::{
            solve_parallel, solve_sequential, ChildBuf, Problem, SearchMode, SearchOptions,
        };

        struct Bits;
        impl Problem for Bits {
            type Node = Vec<bool>;
            type Solution = Vec<bool>;
            fn root(&self) -> Vec<bool> {
                Vec::new()
            }
            fn lower_bound(&self, n: &Vec<bool>) -> f64 {
                n.iter().filter(|&&b| b).count() as f64
            }
            fn solution(&self, n: &Vec<bool>) -> Option<(Vec<bool>, f64)> {
                (n.len() == 10).then(|| (n.clone(), self.lower_bound(n)))
            }
            fn branch(&self, n: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
                for b in [true, false] {
                    let mut c = n.clone();
                    c.push(b);
                    out.push(c);
                }
            }
        }

        let opts = SearchOptions::new(SearchMode::BestOne);
        let seq = solve_sequential(&Bits, &opts);
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let pooled = solve_parallel(Arc::new(Bits), &opts, 4, &exec, ());
            assert_eq!(pooled.best_value, seq.best_value, "threads = {threads}");
            assert!(pooled.is_complete());
        }
    }

    #[test]
    fn queue_stats_count_submissions_and_starts() {
        let exec = Executor::new(2);
        assert_eq!(exec.queue_stats(), QueueStats::default());
        let jobs: Vec<PoolJob> = (0..12).map(|_| Box::new(|| {}) as PoolJob).collect();
        exec.run_all(jobs, Box::new(|| {}));
        let stats = exec.queue_stats();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.started, 12);
        assert!(stats.peak_depth >= 1);
        assert!(stats.peak_depth <= 12);
    }

    fn jobs<T: Send + 'static>(
        bodies: impl IntoIterator<Item = impl FnOnce() -> T + Send + 'static>,
    ) -> Vec<FanJob<T>> {
        bodies
            .into_iter()
            .map(|body| Box::new(body) as FanJob<T>)
            .collect()
    }

    #[test]
    fn fan_out_results_are_positional() {
        // Earlier jobs sleep longer, so on four workers they finish last.
        let exec = Executor::new(4);
        let out = fan_out(
            Some(&exec),
            jobs((0..8u64).map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(2 * (8 - i)));
                    i
                }
            })),
        );
        let values: Vec<Option<u64>> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, (0..8).map(Some).collect::<Vec<_>>());
        for (i, (_, elapsed)) in out.iter().enumerate() {
            assert!(*elapsed >= Duration::from_millis(2 * (8 - i as u64)));
        }
    }

    #[test]
    fn fan_out_panicking_job_yields_none_alone() {
        let exec = Executor::new(2);
        for pool in [None, Some(&exec)] {
            let out = fan_out(
                pool,
                jobs((0..5u64).map(|i| {
                    move || {
                        if i == 2 {
                            std::thread::sleep(Duration::from_millis(5));
                            panic!("injected");
                        }
                        i * 10
                    }
                })),
            );
            let values: Vec<Option<u64>> = out.iter().map(|(v, _)| *v).collect();
            assert_eq!(values, [Some(0), Some(10), None, Some(30), Some(40)]);
            assert!(
                out[2].1 >= Duration::from_millis(4),
                "the dead job is timed"
            );
        }
    }

    #[test]
    fn fan_out_inline_and_pooled_agree() {
        let make = || jobs((0..16u64).map(|i| move || i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let exec = Executor::new(4);
        let inline: Vec<Option<u64>> = fan_out(None, make()).into_iter().map(|r| r.0).collect();
        let pooled: Vec<Option<u64>> = fan_out(Some(&exec), make())
            .into_iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(inline, pooled);
    }

    #[test]
    fn nested_fan_out_completes_on_one_thread() {
        // The pipeline's recursive meta solve fans out again on the same
        // executor from inside a job; only help-while-wait lets the inner
        // jobs run when the pool's one worker is the outer job.
        let exec = Executor::new(1);
        let inner = exec.clone();
        let out = fan_out(
            Some(&exec),
            jobs([move || {
                fan_out(Some(&inner), jobs((1..=4u64).map(|i| move || i)))
                    .into_iter()
                    .map(|(v, _)| v.unwrap())
                    .sum::<u64>()
            }]),
        );
        assert_eq!(out[0].0, Some(10));
    }

    #[test]
    fn fan_out_stress_on_one_shared_executor() {
        let exec = Executor::new(4);
        for round in 0..25u64 {
            let out = fan_out(Some(&exec), jobs((0..8u64).map(|i| move || round * 8 + i)));
            let values: Vec<u64> = out.into_iter().map(|(v, _)| v.unwrap()).collect();
            assert_eq!(values, (round * 8..round * 8 + 8).collect::<Vec<_>>());
        }
        let stats = exec.queue_stats();
        assert_eq!(stats.submitted, 25 * 8);
        assert_eq!(stats.started, stats.submitted);
    }
}
