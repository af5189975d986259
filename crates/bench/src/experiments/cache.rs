//! `exp_cache` — the content-addressed group-solve cache on a replayed
//! batch.
//!
//! The engine spine's [`GroupCache`](mutree_core::GroupCache) remembers
//! finished solves keyed by the canonical (maxmin-permuted,
//! tolerance-quantized) matrix bytes plus a solver signature. Real
//! batches repeat themselves — bootstrap replicates, parameter sweeps,
//! incremental re-runs — so this experiment prices exactly that: the
//! 400-solve clustered batch of `exp_frontier` is run
//! twice through cache-enabled [`mutree_core::solve_plan`] requests. The **cold** pass solves and files every instance; the
//! **warm** replay must answer every instance from the cache — hit rate
//! 1.0 — with optima bit-identical to the cold pass (weight bits and
//! topology both), at a wall-clock speedup that is the whole point of
//! the cache.

use std::time::Instant;

use mutree_core::{solve_plan, EnvOverrides, SolvePlan, SolveReport, SolveRequest};
use mutree_tree::compare::robinson_foulds;

use crate::data;
use crate::report::{fmt_secs, Table};

/// Instances per batch — identical mix to `exp_frontier` (20 sixteen-taxon
/// + 380 twelve-taxon), so the experiments watch the same hot path.
const BATCH: usize = 400;

/// Runs the whole batch once through the spine, returning the reports
/// and the wall-clock seconds.
fn run_batch(plans: &[SolvePlan]) -> (Vec<SolveReport>, f64) {
    let t0 = Instant::now();
    let reports: Vec<SolveReport> = plans
        .iter()
        .map(|p| solve_plan(p).expect("batch solve"))
        .collect();
    (reports, t0.elapsed().as_secs_f64())
}

/// Sums one cache counter over a pass.
fn total(reports: &[SolveReport], f: impl Fn(&SolveReport) -> u64) -> u64 {
    reports.iter().map(f).sum()
}

/// `exp_cache` — cold-then-warm replay of the 400-solve clustered batch
/// through cache-enabled solve plans: hit rate, replay speedup, and
/// bit-identity of the replayed optima.
pub fn exp_cache() -> Table {
    let mut t = Table::new(
        "exp_cache",
        "content-addressed group-solve cache: the 400-solve clustered batch solved cold then replayed warm through cache-enabled solve plans",
        &[
            "pass",
            "seconds",
            "solves",
            "hits",
            "misses",
            "warm_seeds",
            "hit_rate",
            "speedup",
            "bit_identical",
        ],
    );

    let matrices: Vec<_> = (0..20)
        .map(|i| data::clustered_matrix(4, 4, 0x5eed + i as u64))
        .chain((0..380).map(|i| data::clustered_matrix(4, 3, 0xfade + i as u64)))
        .collect();
    assert_eq!(matrices.len(), BATCH);
    // One resolved plan per instance; the environment is pinned so the
    // bench measures the cache, not the ambient configuration.
    let plans: Vec<SolvePlan> = matrices
        .iter()
        .map(|m| {
            SolvePlan::resolve(
                SolveRequest::exact(m.clone()).cache(true),
                &EnvOverrides::none(),
            )
        })
        .collect();

    let (cold, cold_s) = run_batch(&plans);
    let (warm, warm_s) = run_batch(&plans);

    let bit_identical = cold.iter().zip(&warm).all(|(c, w)| {
        c.weight.to_bits() == w.weight.to_bits()
            && robinson_foulds(&c.tree, &w.tree).expect("same taxa") == 0
    });
    let hit_rate = |reports: &[SolveReport]| {
        total(reports, |r| r.stats.cache_hits) as f64 / reports.len() as f64
    };
    let mut row = |pass: &str, reports: &[SolveReport], secs: f64, speedup: f64, bits: String| {
        t.push(vec![
            pass.into(),
            fmt_secs(secs),
            reports.len().to_string(),
            total(reports, |r| r.stats.cache_hits).to_string(),
            total(reports, |r| r.stats.cache_misses).to_string(),
            total(reports, |r| r.stats.cache_warm_seeds).to_string(),
            format!("{:.3}", hit_rate(reports)),
            format!("{speedup:.1}"),
            bits,
        ]);
    };
    row("cold", &cold, cold_s, 1.0, "-".into());
    row(
        "warm",
        &warm,
        warm_s,
        cold_s / warm_s.max(1e-12),
        bit_identical.to_string(),
    );
    t
}
