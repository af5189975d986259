//! The one group-solve cache lookup shared by every cached solve path:
//! the exact solve of a plan, the pipeline's whole-run memo and each
//! pipeline stage.
//!
//! The sequence is always the same: probe the [`GroupCache`]; answer an
//! exact hit from memory; on a near hit hand the stored tree to the
//! solve as a warm-start incumbent; otherwise solve cold; then file the
//! result only when it is a completed, undegraded solve. All three are
//! gated by [`MutSolver::cache_sig_interruptible`](crate::MutSolver::cache_sig_interruptible)
//! (the pipeline's whole-run memo extends it with its own knobs); the
//! callers differ only in what a "solve" is and how they report a hit.

use mutree_distmat::DistanceMatrix;
use mutree_engine::{CacheOutcome, GroupCache, StageProvenance};
use mutree_tree::UltrametricTree;

use crate::SearchStats;

/// How a [`memoized`] solve was answered.
pub(crate) enum Answer<T> {
    /// An exact hit: the stored optimum, in the probed matrix's taxon
    /// indexing. The solve did not run.
    Hit { tree: UltrametricTree, weight: f64 },
    /// The solve ran, cold or warm-seeded.
    Solved(T),
}

/// A [`memoized`] solve's answer plus the lookup's accounting.
pub(crate) struct Memo<T> {
    pub(crate) answer: Answer<T>,
    /// The lookup's `cache_*` counters, every other field zero: merge it
    /// into the answer's statistics.
    pub(crate) stats: SearchStats,
    /// `Cached` for a hit, `WarmSeeded` when the solve got a seed,
    /// `Solved` otherwise (including when no cache was consulted).
    pub(crate) provenance: StageProvenance,
}

/// Runs `solve` behind `cache`, a cache plus the caller's signature for
/// this solve (`None` when no cache is attached or the solver is not
/// cacheable; then `solve(None)` just runs).
///
/// `solve` receives a near hit's tree when `warm_start` is set, and
/// `None` otherwise; a near hit that cannot seed counts as a plain miss.
/// `proven` names the tree and weight to file, and must return `None`
/// for any stopped, degraded or otherwise unproven result: only proven
/// optima may answer a later probe. An error from `solve` files nothing.
pub(crate) fn memoized<T, E>(
    cache: Option<(&GroupCache, u64)>,
    m: &DistanceMatrix,
    warm_start: bool,
    solve: impl FnOnce(Option<UltrametricTree>) -> Result<T, E>,
    proven: impl FnOnce(&T) -> Option<(&UltrametricTree, f64)>,
) -> Result<Memo<T>, E> {
    let mut stats = SearchStats::default();
    let Some((cache, sig)) = cache else {
        return Ok(Memo {
            answer: Answer::Solved(solve(None)?),
            stats,
            provenance: StageProvenance::Solved,
        });
    };
    let probe = cache.probe(m, sig);
    stats.cache_poisoned = probe.poisoned;
    let (seed, query) = match probe.outcome {
        CacheOutcome::Hit { tree, weight } => {
            stats.cache_hits = 1;
            return Ok(Memo {
                answer: Answer::Hit { tree, weight },
                stats,
                provenance: StageProvenance::Cached,
            });
        }
        CacheOutcome::Seed { tree, query, .. } if warm_start => (Some(tree), query),
        CacheOutcome::Seed { query, .. } | CacheOutcome::Miss(query) => (None, query),
    };
    stats.cache_misses = 1;
    let provenance = if seed.is_some() {
        stats.cache_warm_seeds = 1;
        StageProvenance::WarmSeeded
    } else {
        StageProvenance::Solved
    };
    let sol = solve(seed)?;
    if let Some((tree, weight)) = proven(&sol) {
        cache.insert(query, tree, weight);
    }
    Ok(Memo {
        answer: Answer::Solved(sol),
        stats,
        provenance,
    })
}
