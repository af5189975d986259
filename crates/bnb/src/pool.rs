//! Borrowed-worker abstraction for the thread-parallel driver.
//!
//! [`solve_parallel`](crate::solve_parallel) does not own threads: it
//! submits its worker loops as jobs to a caller-supplied [`WorkerPool`],
//! runs one loop on the calling thread, and relies on the pool's
//! [`run_all`](WorkerPool::run_all) contract for progress. A scheduling
//! layer above the solver (the compact-set pipeline) lends the same pool
//! to many concurrent solves, so group-level and intra-solve parallelism
//! share one thread budget instead of oversubscribing the machine.
//!
//! Two implementations exist:
//!
//! * `mutree_core::exec::Executor`, the persistent pool the pipeline, the
//!   daemon and `--threads` share (the trait lives here so the solver
//!   crate does not depend on the pipeline crate);
//! * [`SpawnPool`], for callers that own no pool: one fresh thread per
//!   job, joined before `run_all` returns.

/// An owned unit of work submitted to a [`WorkerPool`].
///
/// Jobs are `'static`: they must own (or `Arc`-share) everything they
/// touch, because the pool's threads outlive the submitting stack frame.
pub type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A pool of worker threads that can execute owned jobs on behalf of a
/// caller.
pub trait WorkerPool {
    /// Submits `jobs` for concurrent execution, runs `main` on the calling
    /// thread, and returns only after **every** submitted job has finished.
    ///
    /// Contract, required for deadlock-freedom when jobs coordinate with
    /// `main` (as the search driver's worker loops do):
    ///
    /// * `jobs` are made available to the pool's threads *before* `main`
    ///   runs, so they can proceed in parallel with it;
    /// * while waiting for stragglers after `main` returns, the calling
    ///   thread either executes queued work itself ("help-while-wait") or
    ///   every job already has a thread of its own, so progress is
    ///   guaranteed even on a one-thread pool whose only worker is the
    ///   caller;
    /// * a panicking job must not take down a pool thread or abort the
    ///   wait: the pool isolates it and still counts the job as finished.
    fn run_all(&self, jobs: Vec<PoolJob>, main: Box<dyn FnOnce() + '_>);
}

/// A [`WorkerPool`] that spawns one thread per job and joins them all:
/// the pool for callers with no executor of their own. Every job has its
/// own thread from the start, so waiting needs no help, and a panicking
/// job only ends its own thread (its join error is ignored).
pub struct SpawnPool;

impl WorkerPool for SpawnPool {
    fn run_all(&self, jobs: Vec<PoolJob>, main: Box<dyn FnOnce() + '_>) {
        let handles: Vec<_> = jobs.into_iter().map(std::thread::spawn).collect();
        main();
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn spawn_pool_runs_every_job_and_isolates_panics() {
        let done = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<PoolJob> = (0..8)
            .map(|i| {
                let done = Arc::clone(&done);
                Box::new(move || {
                    if i == 3 {
                        panic!("injected job panic");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    done.fetch_add(1, Ordering::SeqCst);
                }) as PoolJob
            })
            .collect();
        let mut main_ran = false;
        SpawnPool.run_all(jobs, Box::new(|| main_ran = true));
        assert!(main_ran);
        // run_all returned only after every surviving job finished, and
        // the panicking one neither escaped nor stopped its siblings.
        assert_eq!(done.load(Ordering::SeqCst), 7);
    }
}
