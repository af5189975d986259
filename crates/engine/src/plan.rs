//! [`SolvePlan`]: a [`SolveRequest`] resolved into what will run, and
//! the workspace's only reader of `MUTREE_*` environment variables.
//!
//! A solve is configured by its request alone. Every per-solve knob
//! (threads, cache) resolves by one rule, **request > default**: a field
//! the request sets wins, and an unset field means the built-in default,
//! decided downstream where the defaults live (inline execution, no
//! cache). The frontier shard count is no knob: it follows the worker
//! count. No environment variable reaches a [`SolvePlan`] or a builder.
//!
//! The environment configures only the `mutree serve` deployment:
//!
//! | variable | effect |
//! |---|---|
//! | `MUTREE_SERVE_QUEUE_DEPTH` | `mutree serve` admission-queue depth |
//! | `MUTREE_SERVE_WORKERS` | `mutree serve` concurrent solve workers |
//!
//! They configure the daemon rather than a single solve, so they have no
//! [`SolveRequest`] field; the daemon's config resolves them here (flag >
//! environment > default) so this module stays the only environment
//! reader (a hygiene test greps the source tree for strays). Unparseable
//! or out-of-range values are ignored (the variable behaves as unset)
//! rather than aborting over a typo.

use crate::request::SolveRequest;

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

/// Environment overrides for a single solve. There are none: a solve is
/// configured by its [`SolveRequest`] alone. The type stays so callers
/// written against [`SolvePlan::resolve`] keep compiling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvOverrides;

impl EnvOverrides {
    /// No overrides.
    pub fn none() -> Self {
        EnvOverrides
    }
}

/// A request resolved into what will actually run.
#[derive(Debug, Clone)]
pub struct SolvePlan {
    /// The originating request, unmodified. Its unset knobs mean the
    /// built-in defaults.
    pub request: SolveRequest,
    /// Whether the group-solve cache is attached (the request said
    /// `cache(true)`).
    pub cache_enabled: bool,
}

impl SolvePlan {
    /// Resolves `request` under the **request > default** rule. `env`
    /// carries nothing; no environment variable influences a solve.
    pub fn resolve(request: SolveRequest, _env: &EnvOverrides) -> SolvePlan {
        let cache_enabled = request.cache.unwrap_or(false);
        SolvePlan {
            request,
            cache_enabled,
        }
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
    fn only_the_request_attaches_the_cache() {
        let plan = SolvePlan::resolve(request().cache(true), &EnvOverrides::none());
        assert!(plan.cache_enabled);
    }
}
