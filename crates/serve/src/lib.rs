//! Solve-as-a-service: the `mutree` daemon and its replay client.
//!
//! This crate puts the engine spine behind a TCP socket. The wire
//! format reuses the spine's existing text codecs — a request frame
//! carries a `mutree-request v1` document, a response frame carries a
//! `mutree-report v4` or `mutree-error v1` document — wrapped in
//! minimal length-prefixed binary frames ([`frame`]). Because both
//! codecs are bit-exact (f64s travel as `{:016x}` bit patterns, trees
//! as the tree codec's bytes), a report that crossed the socket
//! is **bit-identical** to the [`SolveReport`](mutree_core::SolveReport)
//! the daemon computed, which is in turn bit-identical to an in-process
//! `solve_plan` of the same request: the daemon adds availability, not
//! a second answer-defining code path.
//!
//! The three layers:
//!
//! * [`frame`] — length-prefixed frames with a correlation tag and a
//!   hard size limit checked before allocation.
//! * [`server`] — the daemon: bounded pending queue,
//!   earliest-deadline-first dispatch, load shedding, per-request
//!   cancellation wired to client disconnect, one shared
//!   [`Executor`](mutree_core::Executor) and process-wide group-solve
//!   cache, graceful drain with a final counter summary.
//! * [`client`] — a blocking request/response client used by the CLI's
//!   `--send`/`--drain` modes, the protocol tests, and the `exp_serve`
//!   replay bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;

pub use client::{Client, ClientError};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use server::{ServeConfig, ServeSummary, Server, DRAIN_HEADER};
