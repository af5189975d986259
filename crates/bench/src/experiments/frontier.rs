//! `exp_frontier` — the sharded work-stealing frontier with a fresh
//! thread scope per solve against the same frontier on a persistent
//! executor, on a batch of block-clustered instances, at 1/2/4/8 worker
//! threads.
//!
//! The workload mirrors how the parallel driver is actually used: the
//! compact-set pipeline dispatches *many* group-sized subproblem solves,
//! not one giant search. Two drivers run the identical batch:
//!
//! * `scoped` — the sharded work-stealing frontier, with a fresh
//!   `thread::scope` spawn per solve;
//! * `pooled` — the sharded frontier on a persistent [`Executor`], the
//!   production configuration: a batch handoff to already-parked
//!   workers instead of a spawn-and-join cycle per solve.
//!
//! Both drivers must report the same optimum on every instance. The
//! retired global-mutex driver's column is preserved in the committed
//! `results/exp_frontier.json` and `results/BENCH_frontier.json`.

use std::sync::Arc;
use std::time::Instant;

use mutree_bnb::{solve_parallel, solve_parallel_pooled, SearchMode, SearchOptions};
use mutree_core::{Executor, MutProblem, ThreeThree};

use crate::data;
use crate::report::{fmt_secs, Table};

/// Instances per batch (20 sixteen-taxon + 380 twelve-taxon). Large
/// enough that per-solve dispatch costs are sampled many times, small
/// enough that one batch stays near a second.
const BATCH: usize = 400;

/// Interleaved repetitions per thread count; each driver's cell is the
/// best of its reps, and the drivers alternate within a rep so slow host
/// phases hit both equally.
const REPS: usize = 4;

/// One timed batch run, folded into a running best-of; returns the
/// per-instance optima for the agreement check.
fn timed_batch<F: FnMut(&Arc<MutProblem>) -> Option<f64>>(
    best: &mut f64,
    problems: &[Arc<MutProblem>],
    mut solve: F,
) -> Vec<Option<f64>> {
    let t0 = Instant::now();
    let optima: Vec<Option<f64>> = problems.iter().map(&mut solve).collect();
    *best = best.min(t0.elapsed().as_secs_f64());
    optima
}

/// `exp_frontier` — batch wall-clock for the scoped and pooled drivers
/// at 1/2/4/8 workers, plus the pooled driver's contention counters.
pub fn exp_frontier() -> Table {
    let mut t = Table::new(
        "exp_frontier",
        "parallel frontier: per-solve thread scope vs persistent executor, batch of 400 clustered solves (interleaved best of 4)",
        &[
            "threads",
            "scoped",
            "pooled",
            "speedup",
            "same_optimum",
            "steals",
            "donations",
            "parks",
        ],
    );

    // Pipeline-scale instances — the compact-set pipeline dispatches
    // group solves of roughly threshold size, so the batch mixes a few
    // 16-taxon matrices with many 12-taxon ones, maxmin relabeling and
    // the UPGMM initial incumbent on (the production bound
    // configuration), a different seed per instance.
    let build = |clusters: usize, size: usize, seed: u64| {
        let m = data::clustered_matrix(clusters, size, seed);
        let pm = m.maxmin_permutation().apply(&m);
        Arc::new(MutProblem::new(&pm, ThreeThree::Off, true))
    };
    let problems: Vec<Arc<MutProblem>> = (0..20)
        .map(|i| build(4, 4, 0x5eed + i as u64))
        .chain((0..380).map(|i| build(4, 3, 0xfade + i as u64)))
        .collect();
    assert_eq!(problems.len(), BATCH);
    let opts = SearchOptions::new(SearchMode::BestOne);

    for threads in [1usize, 2, 4, 8] {
        let exec = Executor::new(threads);
        let (mut scoped_s, mut pooled_s) = (f64::INFINITY, f64::INFINITY);
        let mut scoped_opt = Vec::new();
        let mut pooled_opt = Vec::new();
        let (mut steals, mut donations, mut parks) = (0u64, 0u64, 0u64);
        for _ in 0..REPS {
            scoped_opt = timed_batch(&mut scoped_s, &problems, |p| {
                solve_parallel(&**p, &opts, threads).best_value
            });
            // Counters are reported for the production (pooled) driver,
            // summed over the batch of the last repetition.
            (steals, donations, parks) = (0, 0, 0);
            pooled_opt = timed_batch(&mut pooled_s, &problems, |p| {
                let out = solve_parallel_pooled(Arc::clone(p), &opts, threads, &exec, ());
                steals += out.stats.steals;
                donations += out.stats.donations;
                parks += out.stats.parks;
                out.best_value
            });
        }
        let same = scoped_opt.len() == BATCH
            && (0..BATCH).all(|i| match (scoped_opt[i], pooled_opt[i]) {
                (Some(s), Some(p)) => (s - p).abs() < 1e-9,
                _ => false,
            });
        t.push(vec![
            threads.to_string(),
            fmt_secs(scoped_s),
            fmt_secs(pooled_s),
            format!("{:.2}", scoped_s / pooled_s.max(1e-12)),
            same.to_string(),
            steals.to_string(),
            donations.to_string(),
            parks.to_string(),
        ]);
    }
    t
}
