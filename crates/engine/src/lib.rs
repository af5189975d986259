//! The solve-engine spine: **request → plan → report**.
//!
//! Every way of running a minimum-ultrametric-tree solve — the CLI, the
//! benches, the tests — used to assemble its configuration ad hoc from
//! builder calls sprinkled with `MUTREE_*` environment reads scattered
//! across three crates. This crate pulls that into one explicit
//! three-stage spine:
//!
//! 1. [`SolveRequest`] — an owned, serializable description of *what* to
//!    solve: the matrix (inline or a PHYLIP path) plus every knob (mode,
//!    strategy, tolerance, budget, deadline, threads, forced leaf width,
//!    retry / checkpoint / memory policies, pipeline depth and
//!    threshold). Nothing in a request depends on the process
//!    environment.
//! 2. [`SolvePlan`] — the request with every environment override
//!    resolved, in exactly one place ([`SolvePlan::resolve`]). The
//!    precedence rule is uniform and tested: **builder > environment >
//!    default**. The `MUTREE_*` variables are captured by
//!    [`EnvOverrides::capture`], and every read lives in [`plan`] (a
//!    hygiene test greps for strays). Three `mutree-core` builders still
//!    call those readers as a fallback for an unset knob (forced leaf
//!    width, frontier shards, pipeline executor), so
//!    [`EnvOverrides::none`] does not shield a builder from the
//!    environment; see [`plan`].
//! 3. [`SolveReport`] — the unified outcome: tree(s), weight, merged
//!    [`SearchStats`](mutree_bnb::SearchStats), stage timings,
//!    degradation provenance and stop reasons, whichever path (exact
//!    solver or decomposition pipeline) produced it.
//!
//! The [`cache`] module adds the content-addressed group-solve cache the
//! decomposition pipeline consults per stage: solves keyed by the FNV
//! hash of the canonical (maxmin-permuted, tolerance-quantized) matrix
//! bytes, answering exact re-solves from memory and warm-seeding ε-close
//! ones.
//!
//! The [`wire`] module carries the spine over a socket: the
//! `mutree-report v1` codec serializes a [`SolveReport`] in the same
//! bit-exact line style as the request codec, and [`ServeError`] is the
//! structured error frame the `mutree serve` daemon answers with when a
//! request is shed, malformed, cancelled or failed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod plan;
pub mod report;
pub mod request;
pub mod wire;

pub use cache::{CacheOutcome, CacheProbe, CacheQuery, GroupCache};
pub use plan::{EnvOverrides, SolvePlan};
pub use report::{DegradeReason, DegradedGroup, SolveReport, StageProvenance, StageTiming};
pub use request::{
    BackendSpec, MatrixSource, RequestError, RetryPolicy, SolveKind, SolveRequest, ThreeThree,
};
pub use wire::{ReportError, ServeError, ServeErrorCode};
