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
//! * [`frontier`] — the sharded work-stealing frontier with a per-solve
//!   thread scope against a persistent executor, at 1/2/4/8 threads.
//! * [`leafwords`] — the const-generic leaf-bitset widths: K=1 vs K=2 on
//!   the frontier batch (hot-path regression watch), plus the 80-taxon
//!   wide solve the width dispatcher unlocked.
//! * [`cache`] — the content-addressed group-solve cache: the frontier
//!   batch solved cold then replayed warm through cache-enabled solve
//!   plans (hit rate, replay speedup, bit-identity).
//! * [`serve`] — the solve daemon replaying the frontier batch over a
//!   real TCP socket at increasing client concurrency: sustained req/s,
//!   p50/p99 latency, cache hit rate, and shed count under overload.

pub mod ablations;
pub mod cache;
pub mod frontier;
pub mod hpcasia;
pub mod leafwords;
pub mod pact;
pub mod serve;
