//! A hooked solve runs on the hooks' pool and builds none of its own.
//!
//! `SolveRequest::threads` is an unbounded count a daemon client
//! chooses, and `Executor::new` spawns its threads eagerly. So when
//! `SolveHooks` supply a shared executor, the per-solve pool must never
//! be constructed, not merely replaced afterwards. This binary holds one
//! test: it counts the process's `mutree-exec-*` threads (the
//! executor's worker names) while hooked solves run, so no other test
//! can add pools to the count.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutree_core::{
    solve_plan_hooked, BackendSpec, EnvOverrides, Executor, SolveHooks, SolvePlan, SolveRequest,
};
use mutree_distmat::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Live executor workers in this process, by thread name.
fn executor_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.starts_with("mutree-exec-"))
        })
        .count()
}

#[test]
fn hooked_parallel_plan_builds_no_pool_of_its_own() {
    let m = gen::perturbed_ultrametric(10, 60.0, 0.05, &mut StdRng::seed_from_u64(3));
    let plan = SolvePlan::resolve(
        SolveRequest::exact(m)
            .backend(BackendSpec::Parallel { workers: 2 })
            .threads(256),
        &EnvOverrides::none(),
    );
    let hooks = SolveHooks {
        executor: Some(Executor::new(2)),
        ..SolveHooks::default()
    };
    // Workers name themselves once running; wait for the hooks' two.
    let named = Instant::now() + Duration::from_secs(10);
    while executor_threads() < 2 && Instant::now() < named {
        std::thread::yield_now();
    }
    assert_eq!(executor_threads(), 2, "only the hooks' pool is alive");

    // A watcher samples the worker count for as long as the solves run;
    // a per-solve pool of 256 threads lives for milliseconds, far longer
    // than one sample takes.
    let done = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let watcher = {
        let (done, peak) = (Arc::clone(&done), Arc::clone(&peak));
        std::thread::spawn(move || loop {
            peak.fetch_max(executor_threads(), Ordering::Relaxed);
            if done.load(Ordering::Acquire) {
                break;
            }
        })
    };
    for _ in 0..5 {
        let report = solve_plan_hooked(&plan, &hooks).unwrap();
        assert!(report.is_complete());
    }
    done.store(true, Ordering::Release);
    watcher.join().unwrap();
    assert_eq!(
        peak.load(Ordering::Relaxed),
        2,
        "a hooked solve spawned executor workers beyond the hooks' pool"
    );
}
