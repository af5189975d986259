//! [`SolveReport`]: the unified outcome of a solve.
//!
//! The exact solver and the decomposition pipeline used to return two
//! unrelated result structs, leaving the CLI, the benches and the tests
//! to reconcile them field by field. A report carries everything either
//! path produces — tree(s), weight, merged search statistics, per-stage
//! timings with cache provenance, degradation records, the most severe
//! stop reason — in one shape.

use mutree_bnb::{SearchStats, StopReason};
use mutree_clustersim::SimReport;
use mutree_tree::UltrametricTree;

/// Where a pipeline stage's tree came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StageProvenance {
    /// A live exact (or degraded-fallback) solve produced it.
    #[default]
    Solved,
    /// The group-solve cache answered it outright: the canonical matrix
    /// bytes matched a stored solve bit for bit, so the stored optimum
    /// was returned without searching.
    Cached,
    /// The cache held a solve of an ε-close matrix (same quantization
    /// bucket, different bits); its tree seeded the incumbent and a full
    /// exact search still ran — faster, but live.
    WarmSeeded,
}

impl std::fmt::Display for StageProvenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StageProvenance::Solved => "solved",
            StageProvenance::Cached => "cached",
            StageProvenance::WarmSeeded => "warm-seeded",
        })
    }
}

/// Why a pipeline stage fell short of a proven-optimal exact solve.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradeReason {
    /// The exact solve stopped early (budget, deadline, cancellation or a
    /// worker panic) and its best incumbent — still a feasible subtree —
    /// was used.
    Stopped(StopReason),
    /// The exact solve returned an error; the max-linkage agglomerative
    /// fallback tree was used instead.
    Error(String),
    /// The exact solve panicked; the max-linkage agglomerative fallback
    /// tree was used instead.
    Panicked,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::Stopped(r) => write!(f, "search stopped early: {r}"),
            DegradeReason::Error(e) => write!(f, "solver error: {e}"),
            DegradeReason::Panicked => f.write_str("solver panicked"),
        }
    }
}

/// A pipeline stage that did not run to proven optimality.
///
/// The merged tree is still feasible — Lemma 2 guarantees any feasible
/// subtree over a compact group merges under the max-linkage attachment —
/// but the affected piece is a heuristic, not an optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedGroup {
    /// Index into the pipeline's group list for a top-level group stage,
    /// or `None` when the condensed meta-matrix solve, a stage below a
    /// recursive meta solve, or an undecomposable whole-matrix solve was
    /// the degraded stage.
    pub group: Option<usize>,
    /// Depth-qualified stage path, e.g. `group 3`, `meta`, or
    /// `meta[1]/group 0` for a stage inside the first recursive condensed
    /// solve — so recursive degradations are no longer ambiguous.
    pub stage: String,
    /// What happened.
    pub reason: DegradeReason,
    /// How many solve attempts the stage made before degrading (1 when
    /// no [`RetryPolicy`](crate::RetryPolicy) was configured or the first
    /// attempt's outcome was non-retryable).
    pub attempts: u32,
}

/// Wall-clock time one pipeline stage took.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Depth-qualified stage path (same scheme as
    /// [`DegradedGroup::stage`]), plus `merge` for the join stage.
    pub stage: String,
    /// Seconds the stage ran for (including any retry backoff).
    pub seconds: f64,
    /// Solve attempts the stage made (1 unless a
    /// [`RetryPolicy`](crate::RetryPolicy) re-attempted a panicked or
    /// errored solve). Always 1 for the `merge` join, which is not a
    /// solve.
    pub attempts: u32,
    /// Whether the stage's tree was solved live, answered from the
    /// group-solve cache, or warm-seeded by it.
    pub provenance: StageProvenance,
}

/// The unified outcome of a solve, whichever path produced it.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The (best) ultrametric tree, in original taxon indexing.
    pub tree: UltrametricTree,
    /// Its weight.
    pub weight: f64,
    /// Every optimal tree, when the search mode asked for all of them;
    /// otherwise just the best one. Never empty.
    pub trees: Vec<UltrametricTree>,
    /// Merged search statistics across every sub-search that ran.
    pub stats: SearchStats,
    /// The most severe stop reason any sub-search reported
    /// ([`StopReason::Completed`] when every search exhausted its space).
    pub stop: StopReason,
    /// Pipeline stages that fell back from a proven-optimal solve.
    /// Always empty for an exact (non-pipeline) solve.
    pub degraded: Vec<DegradedGroup>,
    /// Per-stage wall-clock times in pipeline order; a single synthetic
    /// entry for an exact solve.
    pub timings: Vec<StageTiming>,
    /// The species groups the compact sets induced (pipeline solves
    /// only).
    pub groups: Option<Vec<Vec<usize>>>,
    /// Number of proper compact sets the matrix had (pipeline solves
    /// only).
    pub compact_sets: Option<usize>,
    /// Discrete-event statistics when the simulated-cluster backend ran.
    pub sim: Option<SimReport>,
    /// The leaf-bitset width the solve dispatched to, in 64-bit words
    /// (exact solves only).
    pub leaf_words: Option<usize>,
}

impl SolveReport {
    /// Whether the solve ran to proven optimality everywhere: every
    /// search exhausted its space and no pipeline stage degraded.
    pub fn is_complete(&self) -> bool {
        self.stop.is_complete() && self.degraded.is_empty()
    }

    /// Total cache interactions: hits + misses (zero when no cache was
    /// attached or no stage was cacheable).
    pub fn cache_lookups(&self) -> u64 {
        self.stats.cache_hits + self.stats.cache_misses
    }

    /// The `count` slowest stages, most expensive first.
    pub fn slowest_stages(&self, count: usize) -> Vec<&StageTiming> {
        let mut by_time: Vec<&StageTiming> = self.timings.iter().collect();
        by_time.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        by_time.truncate(count);
        by_time
    }
}
