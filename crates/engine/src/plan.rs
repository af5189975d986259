//! [`SolvePlan`]: a [`SolveRequest`] with every environment override
//! resolved.
//!
//! This module holds every read of the `MUTREE_*` environment variables
//! (a hygiene test greps the source tree for strays). Each knob resolves
//! with the same precedence rule:
//!
//! | priority | source | example |
//! |---|---|---|
//! | 1 (wins) | explicit request field / builder call | [`SolveRequest::threads`] |
//! | 2 | environment variable | `MUTREE_PIPELINE_THREADS` |
//! | 3 | built-in default | inline execution |
//!
//! The recognized variables:
//!
//! | variable | request field | effect |
//! |---|---|---|
//! | `MUTREE_PIPELINE_THREADS` | `threads` | pipeline executor thread count |
//! | `MUTREE_FORCE_LEAF_WORDS` | `leaf_words` | leaf-bitset width in 64-bit words |
//! | `MUTREE_FRONTIER_SHARDS` | `frontier_shards` | work-stealing shard count |
//! | `MUTREE_SERVE_QUEUE_DEPTH` | — (daemon knob) | `mutree serve` admission-queue depth |
//! | `MUTREE_SERVE_WORKERS` | — (daemon knob) | `mutree serve` concurrent solve workers |
//!
//! The two `MUTREE_SERVE_*` variables configure the serve daemon rather
//! than a single solve, so they have no [`SolveRequest`] field; the
//! daemon's config resolves them here (flag > environment > default) so
//! this module stays the only environment reader.
//!
//! Unparseable or out-of-range values are ignored (the variable behaves
//! as unset) rather than aborting a solve over a typo; width validation
//! against the compiled-in widths happens downstream where the widths
//! are known.
//!
//! Resolution captures the environment through [`EnvOverrides`], a plain
//! struct, so every precedence rule is testable without mutating the
//! process environment: tests build the overrides by hand and call
//! [`SolvePlan::resolve`] directly.
//!
//! The plan is not the only *caller* of these readers, though. Three
//! `mutree-core` builders fall back to the environment themselves when
//! their knob is unset: `MutSolver::dispatch_leaf_words`
//! (`MUTREE_FORCE_LEAF_WORDS`), `MutSolver::solve`'s frontier
//! (`MUTREE_FRONTIER_SHARDS`) and `CompactPipeline::new`'s executor
//! (`MUTREE_PIPELINE_THREADS`). So [`EnvOverrides::none`] pins the plan,
//! not a builder: a plan that leaves one of those knobs unset still
//! picks the variable up downstream. The whole-suite CI legs rely on
//! that fallback to push every test through the forced paths.
//!
//! The group-solve cache has no variable: only
//! [`SolveRequest::cache`] attaches it.

use crate::request::SolveRequest;

/// Pipeline executor threads from `MUTREE_PIPELINE_THREADS` (positive
/// integer; anything else is ignored).
pub fn env_pipeline_threads() -> Option<usize> {
    std::env::var("MUTREE_PIPELINE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
}

/// Forced leaf-bitset width from `MUTREE_FORCE_LEAF_WORDS`, unvalidated
/// — the solver checks it against the widths it was compiled with and
/// ignores unsupported values.
pub fn env_forced_leaf_words() -> Option<usize> {
    std::env::var("MUTREE_FORCE_LEAF_WORDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
}

/// Forced work-stealing shard count from `MUTREE_FRONTIER_SHARDS`
/// (integer ≥ 1; the frontier clamps to its compiled-in maximum).
pub fn env_frontier_shards() -> Option<usize> {
    std::env::var("MUTREE_FRONTIER_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&s| s >= 1)
}

/// `mutree serve` admission-queue depth from `MUTREE_SERVE_QUEUE_DEPTH`
/// (integer ≥ 1; anything else is ignored). A daemon knob, not a
/// per-solve knob — it never appears in a [`SolveRequest`] or a
/// [`SolvePlan`]; the env read lives here so `tests/env_hygiene.rs`
/// keeps holding for the whole workspace.
pub fn env_serve_queue_depth() -> Option<usize> {
    std::env::var("MUTREE_SERVE_QUEUE_DEPTH")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&d| d >= 1)
}

/// `mutree serve` concurrent solve-worker count from
/// `MUTREE_SERVE_WORKERS` (integer ≥ 1; anything else is ignored). Same
/// daemon-knob caveat as [`env_serve_queue_depth`].
pub fn env_serve_workers() -> Option<usize> {
    std::env::var("MUTREE_SERVE_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w >= 1)
}

/// A snapshot of the `MUTREE_*` environment overrides, decoupled from
/// the process environment so precedence is testable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvOverrides {
    /// `MUTREE_PIPELINE_THREADS`.
    pub pipeline_threads: Option<usize>,
    /// `MUTREE_FORCE_LEAF_WORDS` (raw, validated downstream).
    pub leaf_words: Option<usize>,
    /// `MUTREE_FRONTIER_SHARDS`.
    pub frontier_shards: Option<usize>,
}

impl EnvOverrides {
    /// No overrides — resolution falls straight through to the request
    /// and the defaults. The honest baseline for tests.
    pub fn none() -> Self {
        EnvOverrides::default()
    }

    /// Reads the live process environment.
    pub fn capture() -> Self {
        EnvOverrides {
            pipeline_threads: env_pipeline_threads(),
            leaf_words: env_forced_leaf_words(),
            frontier_shards: env_frontier_shards(),
        }
    }
}

/// A request with the environment folded in: what will actually run.
///
/// Fields that stay `None` after resolution mean "use the built-in
/// default", decided downstream where the defaults live (e.g. the
/// narrowest fitting leaf width is picked by the solver, which knows
/// the matrix size).
#[derive(Debug, Clone)]
pub struct SolvePlan {
    /// The originating request, unmodified.
    pub request: SolveRequest,
    /// Resolved pipeline executor threads.
    pub threads: Option<usize>,
    /// Resolved forced leaf width (still unvalidated).
    pub leaf_words: Option<usize>,
    /// Resolved frontier shard override.
    pub frontier_shards: Option<usize>,
    /// Whether the group-solve cache is attached (the request said
    /// `cache(true)`; no environment variable turns it on).
    pub cache_enabled: bool,
}

impl SolvePlan {
    /// Folds `env` into `request` under the **builder > environment >
    /// default** rule. This is the single point where the environment
    /// influences a solve.
    pub fn resolve(request: SolveRequest, env: &EnvOverrides) -> SolvePlan {
        let threads = request.threads.or(env.pipeline_threads);
        let leaf_words = request.leaf_words.or(env.leaf_words);
        let frontier_shards = request.frontier_shards.or(env.frontier_shards);
        let cache_enabled = request.cache.unwrap_or(false);
        SolvePlan {
            request,
            threads,
            leaf_words,
            frontier_shards,
            cache_enabled,
        }
    }

    /// Resolves against the live process environment
    /// ([`EnvOverrides::capture`]).
    pub fn resolve_from_env(request: SolveRequest) -> SolvePlan {
        SolvePlan::resolve(request, &EnvOverrides::capture())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_distmat::DistanceMatrix;

    fn request() -> SolveRequest {
        let mut m = DistanceMatrix::zeros(3).unwrap();
        m.set(1, 0, 2.0);
        m.set(2, 0, 4.0);
        m.set(2, 1, 4.0);
        SolveRequest::exact(m)
    }

    #[test]
    fn defaults_without_request_or_env() {
        let plan = SolvePlan::resolve(request(), &EnvOverrides::none());
        assert_eq!(plan.threads, None);
        assert_eq!(plan.leaf_words, None);
        assert_eq!(plan.frontier_shards, None);
        assert!(!plan.cache_enabled);
    }

    #[test]
    fn environment_fills_unset_fields() {
        let env = EnvOverrides {
            pipeline_threads: Some(8),
            leaf_words: Some(2),
            frontier_shards: Some(4),
        };
        let plan = SolvePlan::resolve(request(), &env);
        assert_eq!(plan.threads, Some(8));
        assert_eq!(plan.leaf_words, Some(2));
        assert_eq!(plan.frontier_shards, Some(4));
        assert!(
            !plan.cache_enabled,
            "no environment variable attaches the cache"
        );
    }

    #[test]
    fn builder_beats_environment_on_every_knob() {
        let env = EnvOverrides {
            pipeline_threads: Some(8),
            leaf_words: Some(4),
            frontier_shards: Some(64),
        };
        let req = request()
            .threads(2)
            .leaf_words(1)
            .frontier_shards(3)
            .cache(false);
        let plan = SolvePlan::resolve(req, &env);
        assert_eq!(plan.threads, Some(2));
        assert_eq!(plan.leaf_words, Some(1));
        assert_eq!(plan.frontier_shards, Some(3));
        assert!(!plan.cache_enabled);
    }

    #[test]
    fn only_the_request_attaches_the_cache() {
        let plan = SolvePlan::resolve(request().cache(true), &EnvOverrides::none());
        assert!(plan.cache_enabled);
    }
}
