//! Implementations of every reproduced figure and ablation.
//!
//! * [`pact`] — the PaCT 2005 evaluation (Figs. 8–13): compact sets vs
//!   plain parallel branch-and-bound, on random and HMDNA-like data.
//! * [`hpcasia`] — the companion parallel-B&B evaluation (Figs. 1–8):
//!   simulated 16-node cluster times, single-node times, speedups and the
//!   3-3 relationship effect.
//! * [`ablations`] — design-choice studies: condensed-matrix linkage,
//!   group-size threshold, bound ingredients (maxmin, UPGMM), and the
//!   3-3 rule's strength.
//! * [`serve`] — the solve daemon replaying the clustered batch over a
//!   real TCP socket at increasing client concurrency: sustained req/s,
//!   p50/p99 latency, cache hit rate, and shed count under overload.

pub mod ablations;
pub mod hpcasia;
pub mod pact;
pub mod serve;
