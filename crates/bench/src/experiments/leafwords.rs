//! `exp_leafwords` — the cost of the const-generic leaf-bitset widths.
//!
//! The solver monomorphizes the exact search for K = 1, 2, 4 leaf words
//! and dispatches on taxa count, promising that the K = 1 hot path
//! compiles to exactly the historical single-`u64` code. This experiment
//! watches that promise: a 400-solve clustered batch runs once per width
//! on the parallel driver over a persistent executor at 1/2/4/8 workers,
//! and the `ratio` column (K=2 over K=1) is the price of doubling every
//! leafset word — expected a few percent, paid only by matrices that
//! actually need the width.
//!
//! Correctness rides along: both widths must report the same optimum on
//! every instance, and a sequential pre-pass asserts branch-for-branch
//! identical search trees (`same_branched`). A final `wide` row solves an
//! 80-taxon instance — impossible before the width dispatcher — at its
//! native K = 2.

use std::sync::Arc;
use std::time::Instant;

use mutree_bnb::{solve_parallel, solve_sequential, SearchMode, SearchOptions};
use mutree_core::{Executor, MutProblem, ThreeThree};

use crate::data;
use crate::report::{fmt_secs, Table};

/// Instances per batch: 20 sixteen-taxon + 380 twelve-taxon clustered
/// matrices, the mix `exp_serve` replays too.
const BATCH: usize = 400;

/// Interleaved repetitions per thread count; each width's cell is the
/// best of its reps, and the widths alternate within a rep so slow host
/// phases hit both equally.
const REPS: usize = 4;

/// One timed batch run, folded into a running best-of; returns the
/// per-instance optima for the agreement check.
fn timed_batch<P, F: FnMut(&Arc<P>) -> Option<f64>>(
    best: &mut f64,
    problems: &[Arc<P>],
    mut solve: F,
) -> Vec<Option<f64>> {
    let t0 = Instant::now();
    let optima: Vec<Option<f64>> = problems.iter().map(&mut solve).collect();
    *best = best.min(t0.elapsed().as_secs_f64());
    optima
}

/// `exp_leafwords` — K=1 vs K=2 batch wall-clock at 1/2/4/8 workers, plus
/// the 80-taxon wide solve the dispatcher unlocked.
pub fn exp_leafwords() -> Table {
    let mut t = Table::new(
        "exp_leafwords",
        "leaf-bitset width: K=1 vs forced K=2 on the 400-solve clustered batch (pooled driver, interleaved best of 4)",
        &[
            "threads",
            "k1",
            "k2",
            "ratio",
            "same_optimum",
            "same_branched",
        ],
    );

    // The clustered batch, constructed once per width from the same
    // matrices (maxmin relabeling included, the production bound
    // configuration).
    let matrices: Vec<_> = (0..20)
        .map(|i| data::clustered_matrix(4, 4, 0x5eed + i as u64))
        .chain((0..380).map(|i| data::clustered_matrix(4, 3, 0xfade + i as u64)))
        .map(|m| m.maxmin_permutation().apply(&m))
        .collect();
    assert_eq!(matrices.len(), BATCH);
    let k1: Vec<Arc<MutProblem<1>>> = matrices
        .iter()
        .map(|pm| Arc::new(MutProblem::<1>::new(pm, ThreeThree::Off, true)))
        .collect();
    let k2: Vec<Arc<MutProblem<2>>> = matrices
        .iter()
        .map(|pm| Arc::new(MutProblem::<2>::new(pm, ThreeThree::Off, true)))
        .collect();
    let opts = SearchOptions::new(SearchMode::BestOne);

    // Sequential pre-pass: the widths must branch identically, not just
    // agree on the optimum — the search trees are the same trees.
    let same_branched = (0..BATCH).all(|i| {
        let a = solve_sequential(&*k1[i], &opts);
        let b = solve_sequential(&*k2[i], &opts);
        a.stats.branched == b.stats.branched
            && match (a.best_value, b.best_value) {
                (Some(x), Some(y)) => (x - y).abs() < 1e-9,
                _ => false,
            }
    });

    for threads in [1usize, 2, 4, 8] {
        let exec = Executor::new(threads);
        let (mut k1_s, mut k2_s) = (f64::INFINITY, f64::INFINITY);
        let mut k1_opt = Vec::new();
        let mut k2_opt = Vec::new();
        for _ in 0..REPS {
            k1_opt = timed_batch(&mut k1_s, &k1, |p| {
                solve_parallel(Arc::clone(p), &opts, threads, &exec, ()).best_value
            });
            k2_opt = timed_batch(&mut k2_s, &k2, |p| {
                solve_parallel(Arc::clone(p), &opts, threads, &exec, ()).best_value
            });
        }
        let same = k1_opt.len() == BATCH
            && (0..BATCH).all(|i| match (k1_opt[i], k2_opt[i]) {
                (Some(a), Some(b)) => (a - b).abs() < 1e-9,
                _ => false,
            });
        t.push(vec![
            threads.to_string(),
            fmt_secs(k1_s),
            fmt_secs(k2_s),
            format!("{:.3}", k2_s / k1_s.max(1e-12)),
            same.to_string(),
            same_branched.to_string(),
        ]);
    }

    // The payoff row: a single 80-taxon exact solve at its native width —
    // a size the engine rejected outright before the dispatcher.
    let wide = data::wide_exact_matrix(80, 0xd15c);
    let pm = wide.maxmin_permutation().apply(&wide);
    let wp = Arc::new(MutProblem::<2>::new(&pm, ThreeThree::Off, true));
    let mut wide_s = f64::INFINITY;
    let mut complete = false;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = solve_sequential(&*wp, &opts);
        wide_s = wide_s.min(t0.elapsed().as_secs_f64());
        complete = out.best_value.is_some() && out.stop.is_complete();
    }
    t.push(vec![
        "wide80".into(),
        "-".into(),
        fmt_secs(wide_s),
        "-".into(),
        complete.to_string(),
        "-".into(),
    ]);
    t
}
