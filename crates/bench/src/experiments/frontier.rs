//! `exp_frontier` — the parallel driver on freshly spawned threads per
//! solve against the same driver on a persistent executor, on a batch of
//! block-clustered instances, at 1/2/4/8 worker threads.
//!
//! The workload mirrors how the parallel driver is actually used: the
//! compact-set pipeline dispatches *many* group-sized subproblem solves,
//! not one giant search. The one driver runs the identical batch on two
//! pools:
//!
//! * `spawned` — [`SpawnPool`], a spawn-and-join cycle per solve (what a
//!   solver without an attached executor does);
//! * `pooled` — a persistent [`Executor`], the production configuration:
//!   a batch handoff to already-parked workers.
//!
//! Both columns must report the same optimum on every instance. The
//! retired global-mutex and scoped drivers' columns are preserved in the
//! committed `results/exp_frontier.json` and `results/BENCH_frontier.json`.

use std::sync::Arc;
use std::time::Instant;

use mutree_bnb::{solve_parallel, SearchMode, SearchOptions, SpawnPool};
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

/// `exp_frontier` — batch wall-clock on spawned threads and on a
/// persistent executor at 1/2/4/8 workers, plus the pooled runs'
/// contention counters.
pub fn exp_frontier() -> Table {
    let mut t = Table::new(
        "exp_frontier",
        "parallel frontier: per-solve spawned threads vs persistent executor, batch of 400 clustered solves (interleaved best of 4)",
        &[
            "threads",
            "spawned",
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
        let (mut spawned_s, mut pooled_s) = (f64::INFINITY, f64::INFINITY);
        let mut spawned_opt = Vec::new();
        let mut pooled_opt = Vec::new();
        let (mut steals, mut donations, mut parks) = (0u64, 0u64, 0u64);
        for _ in 0..REPS {
            spawned_opt = timed_batch(&mut spawned_s, &problems, |p| {
                solve_parallel(Arc::clone(p), &opts, threads, &SpawnPool, ()).best_value
            });
            // Counters are reported for the production (pooled) runs,
            // summed over the batch of the last repetition.
            (steals, donations, parks) = (0, 0, 0);
            pooled_opt = timed_batch(&mut pooled_s, &problems, |p| {
                let out = solve_parallel(Arc::clone(p), &opts, threads, &exec, ());
                steals += out.stats.steals;
                donations += out.stats.donations;
                parks += out.stats.parks;
                out.best_value
            });
        }
        let same = spawned_opt.len() == BATCH
            && (0..BATCH).all(|i| match (spawned_opt[i], pooled_opt[i]) {
                (Some(s), Some(p)) => (s - p).abs() < 1e-9,
                _ => false,
            });
        t.push(vec![
            threads.to_string(),
            fmt_secs(spawned_s),
            fmt_secs(pooled_s),
            format!("{:.2}", spawned_s / pooled_s.max(1e-12)),
            same.to_string(),
            steals.to_string(),
            donations.to_string(),
            parks.to_string(),
        ]);
    }
    t
}
