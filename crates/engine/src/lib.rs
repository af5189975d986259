//! The solve-engine spine: **request → plan → report**.
//!
//! Every way of running a minimum-ultrametric-tree solve — the CLI, the
//! daemon, the benches, the tests — describes it as one value and runs
//! it through one explicit three-stage spine:
//!
//! 1. [`SolveRequest`] — an owned, serializable description of *what* to
//!    solve: the matrix (inline or a PHYLIP path) plus every knob (mode,
//!    budget, deadline, threads, forced leaf width, retry / checkpoint /
//!    memory policies, pipeline depth and threshold). Nothing in a
//!    request depends on the process environment. Its `tol` is only the
//!    tolerance a caller checks answers against: the search and the
//!    cache compare at the one constant [`mutree_bnb::TOL`].
//! 2. [`SolvePlan`] — the request resolved into what will run
//!    ([`SolvePlan::resolve`]), under one rule: **request > default**.
//!    No environment variable configures a solve; the only `MUTREE_*`
//!    variables are the two `mutree serve` deployment knobs, read in
//!    [`plan`] (a hygiene test greps for strays).
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
mod hex;
pub mod plan;
pub mod report;
pub mod request;
pub mod wire;

pub use cache::{CacheOutcome, CacheProbe, CacheQuery, GroupCache};
pub use plan::{EnvOverrides, SolvePlan};
pub use report::{DegradeReason, DegradedGroup, SolveReport, StageProvenance, StageTiming};
pub use request::{
    BackendSpec, MatrixSource, RequestError, RetryPolicy, SolveKind, SolveRequest, ThreeThree,
    LEAF_WIDTHS,
};
pub use wire::{ReportError, ServeError, ServeErrorCode};
