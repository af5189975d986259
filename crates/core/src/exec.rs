//! Shared work pool and task-DAG runner for the compact-set pipeline.
//!
//! The pipeline decomposes one big matrix into many independent solves
//! (one per compact group, plus a condensed meta-matrix, plus a merge).
//! Before this module each of those solves either ran serially or spawned
//! its own `thread::scope`, so an 8-group instance on 8 cores used the
//! machine badly: either one core, or 8 × N oversubscribed threads.
//!
//! [`Executor`] owns N long-lived worker threads fed from one queue;
//! [`TaskDag`] declares a set of labelled tasks with dependencies and runs
//! them on an executor. Together they give the pipeline *one* thread
//! budget shared by group-level parallelism and intra-solve B&B
//! parallelism (the executor also implements
//! [`WorkerPool`], so
//! [`solve_parallel`](mutree_bnb::solve_parallel) borrows the same
//! workers).
//!
//! # Design rules
//!
//! * **Tasks are `'static`.** A queued task may run on a pool thread long
//!   after the submitting stack frame is gone, so tasks own (or
//!   `Arc`-share) their data. This is why [`MutProblem`](crate::MutProblem)
//!   owns its matrix.
//! * **Blocking waits help.** Any wait on pool work (`run_all`, DAG
//!   [`run`](TaskDag::run)) executes queued jobs on the waiting thread
//!   instead of sleeping. A one-thread executor therefore completes any
//!   DAG, including DAGs whose tasks recursively run nested DAGs or pooled
//!   B&B searches on the same executor — there is always at least one
//!   thread making progress.
//! * **Panics are contained.** A panicking task marks its slot as failed
//!   (observable to dependents and in the [`StageReport`]) and never takes
//!   down a worker thread or a waiter.
//! * **Results are positional.** DAG results come back indexed by
//!   [`TaskId`] in insertion order, never completion order, so callers
//!   that aggregate (the pipeline merging stats and degradation records)
//!   stay deterministic under any scheduling.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
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
        // A panicking job must not kill the worker; accounting (latches,
        // DAG slots) is done by Drop guards inside the job itself, which
        // run during this unwind.
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
/// operations ([`WorkerPool::run_all`], [`TaskDag::run`]) have the
/// help-while-wait property described in the module docs.
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
// Task DAG
// ---------------------------------------------------------------------------

/// Index of a task within its [`TaskDag`], in insertion order.
pub type TaskId = usize;

type Body<T> = Box<dyn FnOnce(&DagCtx<'_, T>) -> T + Send + 'static>;

struct Finished<T> {
    /// `None` when the task body panicked.
    value: Option<T>,
    elapsed: Duration,
}

/// Read-only view of completed dependencies, passed to each task body.
pub struct DagCtx<'a, T> {
    slots: &'a [OnceLock<Finished<T>>],
}

impl<T> DagCtx<'_, T> {
    /// The result of dependency `id`, or `None` if that task panicked.
    ///
    /// Only declared dependencies are guaranteed to have finished; asking
    /// for anything else returns `None` rather than a torn read.
    pub fn dep(&self, id: TaskId) -> Option<&T> {
        self.slots
            .get(id)
            .and_then(|slot| slot.get())
            .and_then(|fin| fin.value.as_ref())
    }
}

/// One task's outcome: its label, its return value (`None` if the body
/// panicked), and how long the body ran.
#[derive(Debug)]
pub struct StageReport<T> {
    /// The label given to [`TaskDag::add`].
    pub label: String,
    /// What the body returned; `None` means it panicked.
    pub result: Option<T>,
    /// Wall-clock time the body ran for.
    pub elapsed: Duration,
}

/// A set of labelled tasks with dependencies, run either on an
/// [`Executor`] ([`run`](TaskDag::run)) or serially on the calling thread
/// ([`run_inline`](TaskDag::run_inline)) — same results either way, which
/// is what the pipeline's determinism tests check.
///
/// Dependencies must point at already-added tasks, so every DAG is
/// acyclic by construction and insertion order is a topological order.
pub struct TaskDag<T: Send + Sync + 'static> {
    labels: Vec<String>,
    deps: Vec<Vec<TaskId>>,
    bodies: Vec<Body<T>>,
}

impl<T: Send + Sync + 'static> Default for TaskDag<T> {
    fn default() -> Self {
        TaskDag::new()
    }
}

impl<T: Send + Sync + 'static> TaskDag<T> {
    /// An empty DAG.
    pub fn new() -> Self {
        TaskDag {
            labels: Vec::new(),
            deps: Vec::new(),
            bodies: Vec::new(),
        }
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Whether the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// Adds a task that runs `body` once every task in `deps` has
    /// finished (panicked dependencies count as finished). Returns the
    /// task's id, which is also its index in the result vector.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id has not been added yet.
    pub fn add<F>(&mut self, label: impl Into<String>, deps: &[TaskId], body: F) -> TaskId
    where
        F: FnOnce(&DagCtx<'_, T>) -> T + Send + 'static,
    {
        let id = self.bodies.len();
        for &d in deps {
            assert!(d < id, "dependency {d} of task {id} not added yet");
        }
        self.labels.push(label.into());
        self.deps.push(deps.to_vec());
        self.bodies.push(Box::new(body));
        id
    }

    /// Runs every task on `exec`, helping from the calling thread, and
    /// returns one [`StageReport`] per task in insertion order.
    pub fn run(self, exec: &Executor) -> Vec<StageReport<T>> {
        let n = self.bodies.len();
        if n == 0 {
            return Vec::new();
        }
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (id, ds) in self.deps.iter().enumerate() {
            for &d in ds {
                dependents[d].push(id);
            }
        }
        let roots: Vec<TaskId> = (0..n).filter(|&id| self.deps[id].is_empty()).collect();
        let state = Arc::new(DagState {
            slots: (0..n).map(|_| OnceLock::new()).collect(),
            waiting: self
                .deps
                .iter()
                .map(|d| AtomicUsize::new(d.len()))
                .collect(),
            dependents,
            bodies: self
                .bodies
                .into_iter()
                .map(|b| Mutex::new(Some(b)))
                .collect(),
            latch: Latch::new(n),
            exec: exec.clone(),
        });
        for id in roots {
            schedule(&state, id);
        }
        exec.help_latch(&state.latch);

        // The latch releases inside `execute`, a hair before the last job
        // closure drops its `Arc` clone; spin the gap out.
        let mut state = state;
        let state = loop {
            match Arc::try_unwrap(state) {
                Ok(inner) => break inner,
                Err(again) => {
                    state = again;
                    std::thread::yield_now();
                }
            }
        };
        finish(self.labels, state.slots)
    }

    /// Runs every task serially on the calling thread, in insertion
    /// order (a valid topological order by construction). Reference
    /// implementation for [`run`](TaskDag::run); same panic isolation.
    pub fn run_inline(self) -> Vec<StageReport<T>> {
        let n = self.bodies.len();
        let slots: Vec<OnceLock<Finished<T>>> = (0..n).map(|_| OnceLock::new()).collect();
        for (id, body) in self.bodies.into_iter().enumerate() {
            let started = Instant::now();
            let value = {
                let ctx = DagCtx { slots: &slots };
                catch_unwind(AssertUnwindSafe(|| body(&ctx))).ok()
            };
            let set = slots[id].set(Finished {
                value,
                elapsed: started.elapsed(),
            });
            debug_assert!(set.is_ok());
        }
        finish(self.labels, slots)
    }
}

fn finish<T>(labels: Vec<String>, slots: Vec<OnceLock<Finished<T>>>) -> Vec<StageReport<T>> {
    labels
        .into_iter()
        .zip(slots)
        .map(|(label, slot)| {
            let fin = slot.into_inner().expect("every task ran");
            StageReport {
                label,
                result: fin.value,
                elapsed: fin.elapsed,
            }
        })
        .collect()
}

struct DagState<T: Send + Sync + 'static> {
    slots: Vec<OnceLock<Finished<T>>>,
    waiting: Vec<AtomicUsize>,
    dependents: Vec<Vec<TaskId>>,
    bodies: Vec<Mutex<Option<Body<T>>>>,
    latch: Latch,
    exec: Executor,
}

fn schedule<T: Send + Sync + 'static>(state: &Arc<DagState<T>>, id: TaskId) {
    let task_state = Arc::clone(state);
    state
        .exec
        .spawn_job(Box::new(move || execute(&task_state, id)));
}

fn execute<T: Send + Sync + 'static>(state: &Arc<DagState<T>>, id: TaskId) {
    let body = state.bodies[id]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .expect("a task is scheduled exactly once");
    let started = Instant::now();
    let value = {
        let ctx = DagCtx {
            slots: &state.slots,
        };
        catch_unwind(AssertUnwindSafe(|| body(&ctx))).ok()
    };
    let set = state.slots[id].set(Finished {
        value,
        elapsed: started.elapsed(),
    });
    debug_assert!(set.is_ok());
    // Publish the slot before waking dependents, then count down.
    for &dep in &state.dependents[id] {
        if state.waiting[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
            schedule(state, dep);
        }
    }
    state.latch.done_one();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn dag_runs_in_dependency_order_and_reports_in_insertion_order() {
        let exec = Executor::new(4);
        let mut dag: TaskDag<u64> = TaskDag::new();
        let a = dag.add("a", &[], |_| 3);
        let b = dag.add("b", &[], |_| 4);
        let sum = dag.add("sum", &[a, b], move |ctx| {
            ctx.dep(a).copied().unwrap() + ctx.dep(b).copied().unwrap()
        });
        let reports = dag.run(&exec);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].label, "a");
        assert_eq!(reports[1].label, "b");
        assert_eq!(reports[2].label, "sum");
        assert_eq!(reports[sum].result, Some(7));
    }

    #[test]
    fn dag_inline_matches_executor_run() {
        let build = || {
            let mut dag: TaskDag<u64> = TaskDag::new();
            let roots: Vec<TaskId> = (0..6)
                .map(|i| dag.add(format!("r{i}"), &[], move |_| i))
                .collect();
            let join_deps = roots.clone();
            dag.add("join", &roots, move |ctx| {
                join_deps
                    .iter()
                    .map(|&r| ctx.dep(r).copied().unwrap())
                    .sum()
            });
            dag
        };
        let exec = Executor::new(4);
        let par: Vec<Option<u64>> = build().run(&exec).into_iter().map(|r| r.result).collect();
        let seq: Vec<Option<u64>> = build().run_inline().into_iter().map(|r| r.result).collect();
        assert_eq!(par, seq);
        assert_eq!(par.last().unwrap(), &Some(15));
    }

    #[test]
    fn panicking_task_fails_alone_and_dependents_still_run() {
        let exec = Executor::new(2);
        let mut dag: TaskDag<u64> = TaskDag::new();
        let good = dag.add("good", &[], |_| 1);
        let bad = dag.add("bad", &[], |_| -> u64 { panic!("injected") });
        let join = dag.add("join", &[good, bad], move |ctx| {
            assert!(ctx.dep(bad).is_none());
            ctx.dep(good).copied().unwrap() + 100
        });
        let reports = dag.run(&exec);
        assert_eq!(reports[good].result, Some(1));
        assert_eq!(reports[bad].result, None);
        assert_eq!(reports[join].result, Some(101));
    }

    #[test]
    fn deep_dag_on_one_thread() {
        // A chain forces strict ordering; one thread forces the helper
        // path to schedule each link.
        let exec = Executor::new(1);
        let mut dag: TaskDag<u64> = TaskDag::new();
        let mut prev = dag.add("t0", &[], |_| 0);
        for i in 1..64u64 {
            let p = prev;
            prev = dag.add(format!("t{i}"), &[p], move |ctx| {
                ctx.dep(p).copied().unwrap() + 1
            });
        }
        let reports = dag.run(&exec);
        assert_eq!(reports[prev].result, Some(63));
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

    #[test]
    fn dag_timings_are_recorded() {
        let exec = Executor::new(2);
        let mut dag: TaskDag<()> = TaskDag::new();
        dag.add("sleep", &[], |_| {
            std::thread::sleep(Duration::from_millis(5));
        });
        let reports = dag.run(&exec);
        assert!(reports[0].elapsed >= Duration::from_millis(4));
    }

    #[test]
    fn stress_shared_executor_across_many_dags() {
        let exec = Executor::new(4);
        let total = Arc::new(AtomicU64::new(0));
        for round in 0..25u64 {
            let mut dag: TaskDag<u64> = TaskDag::new();
            let ids: Vec<TaskId> = (0..8)
                .map(|i| dag.add(format!("w{i}"), &[], move |_| round + i))
                .collect();
            let join_deps = ids.clone();
            dag.add("join", &ids, move |ctx| {
                join_deps
                    .iter()
                    .map(|&t| ctx.dep(t).copied().unwrap())
                    .sum()
            });
            let reports = dag.run(&exec);
            total.fetch_add(reports.last().unwrap().result.unwrap(), Ordering::Relaxed);
        }
        assert!(total.load(Ordering::Relaxed) > 0);
    }
}
