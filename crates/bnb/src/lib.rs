//! A generic branch-and-bound engine.
//!
//! Branch-and-bound explores a tree of partial solutions (*nodes*), pruning
//! every subtree whose [lower bound](Problem::lower_bound) cannot beat the
//! best complete solution found so far (the *upper bound* or *incumbent*).
//! This crate separates the search machinery from the problem:
//!
//! * implement [`Problem`] for your optimization problem;
//! * every driver runs the same audited per-node expansion sequence,
//!   owned once by the [`kernel`] module ([`kernel::Expander`]) and
//!   parameterized by a frontier (node-selection order), an incumbent
//!   sink and a branch budget — drivers are thin schedulers around it;
//! * run [`solve_sequential`] for the classic depth-first search, or
//!   [`solve_parallel`] for the master/slave scheme of the PaCT 2005 /
//!   HPC Asia 2005 papers — a shared atomic upper bound every worker sees
//!   immediately, per-worker *local stacks* searched depth-first, and a
//!   [sharded work-stealing frontier](frontier) for load balancing: the
//!   master pre-branches until `2 × workers` open nodes exist, sorts them
//!   by lower bound and seeds them round-robin into the frontier's
//!   overflow shards; every worker steals its first batch from there, a
//!   worker whose stack drains steals half a batch again, and a loaded
//!   worker donates its shallowest nodes in batches whenever a peer is
//!   parked waiting. The per-node expansion fast path acquires no lock,
//!   and termination is an atomic in-flight node counter with eventcount
//!   parking — no timed polling anywhere;
//! * the parallel driver owns no threads: its workers run on a borrowed
//!   [`WorkerPool`] — a shared executor, or [`SpawnPool`] (one thread per
//!   worker) for a standalone solve.
//!
//! Because a better incumbent found by *any* worker immediately tightens
//! pruning in *all* workers, the parallel search can visit strictly fewer
//! nodes than the sequential one — the super-linear speedups reported in
//! the paper. [`SearchOutcome::stats`] exposes node counts so experiments
//! can observe exactly that effect.
//!
//! # Anytime operation and fault isolation
//!
//! Both drivers are *anytime*: they can be stopped by a branch budget, a
//! wall-clock deadline ([`SearchOptions::deadline`]) or a [`CancelToken`],
//! and always return the best incumbent found with an accurate
//! [`StopReason`] in [`SearchOutcome::stop`]. The parallel driver also
//! isolates panics raised inside [`Problem`] callbacks: a panicking worker
//! closes the frontier on its way out, waking every parked peer, so the
//! run drains without deadlocking and reports
//! [`StopReason::WorkerPanicked`] while keeping
//! all previously published incumbents. The [`fault`] module provides a
//! deterministic fault-injection wrapper used to test exactly these
//! properties.
//!
//! # Example: subset-sum as branch-and-bound
//!
//! ```
//! use mutree_bnb::{ChildBuf, Problem, SearchMode, SearchOptions, solve_sequential};
//!
//! /// Choose a subset of `items` minimizing |sum - target|.
//! struct Closest { items: Vec<f64>, target: f64 }
//!
//! #[derive(Clone)]
//! struct Pick { taken: Vec<bool>, sum: f64 }
//!
//! impl Problem for Closest {
//!     type Node = Pick;
//!     type Solution = Vec<bool>;
//!
//!     fn root(&self) -> Pick { Pick { taken: vec![], sum: 0.0 } }
//!     fn lower_bound(&self, n: &Pick) -> f64 {
//!         // Remaining items can only add weight: if sum already exceeds
//!         // the target the gap can only grow.
//!         if n.sum > self.target { n.sum - self.target } else { 0.0 }
//!     }
//!     fn solution(&self, n: &Pick) -> Option<(Vec<bool>, f64)> {
//!         (n.taken.len() == self.items.len())
//!             .then(|| (n.taken.clone(), (n.sum - self.target).abs()))
//!     }
//!     fn branch(&self, n: &Pick, out: &mut ChildBuf<Pick>) {
//!         let i = n.taken.len();
//!         for take in [false, true] {
//!             let mut c = n.clone();
//!             c.taken.push(take);
//!             if take { c.sum += self.items[i]; }
//!             out.push(c);
//!         }
//!     }
//! }
//!
//! let p = Closest { items: vec![3.0, 5.0, 9.0, 14.0], target: 17.0 };
//! let out = solve_sequential(&p, &SearchOptions::new(SearchMode::BestOne));
//! assert_eq!(out.best_value.unwrap(), 0.0); // 3 + 14 = 17
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
mod cancel;
pub mod fault;
pub mod frontier;
pub mod hash;
pub mod kernel;
mod parallel;
mod pool;
mod problem;
mod sequential;
mod shared_bound;
mod trace;

pub use cancel::CancelToken;
pub use frontier::{ShardedFrontier, WorkerFrontier};
pub use kernel::{sanitize_lb, ChildBuf, Incumbents, PruneReason, SearchEvent, SearchObserver};
pub use parallel::solve_parallel;
pub use pool::{PoolJob, SpawnPool, WorkerPool};
pub use problem::{
    MemoryBudget, Problem, SearchMode, SearchOptions, SearchOutcome, SearchStats, StopReason, TOL,
};
pub use sequential::{solve_sequential, solve_sequential_observed};
pub use shared_bound::SharedBound;
pub use trace::{LoggingObserver, TraceLevel};
