//! The sharded work-stealing frontier behind the thread-parallel driver.
//!
//! The first-generation parallel driver kept every open node in one
//! `Mutex<Vec<N>>` guarded by a single condvar: every donation and every
//! starved worker serialized on the same lock, and a worker that found
//! the pool empty fell back to a fixed 25 ms timed poll. This module
//! replaces that with the scheme the HPC Asia 2005 master/slave design
//! points at — keep work local, touch shared state only at batch
//! boundaries:
//!
//! * each worker owns a **local LIFO stack** ([`WorkerFrontier`], a
//!   [`Frontier`] impl) and dives depth-first on its own children, so the
//!   per-node expansion fast path acquires **no mutex at all**;
//! * surplus nodes are **donated in batches** to one of `S` sharded
//!   overflow pools (`S` chosen from the worker count), and only when a
//!   peer is actually parked waiting for work;
//! * a starved worker sweeps the shards in a **randomized victim order**
//!   (seeded deterministically from its worker ordinal) and **steals half
//!   a victim's batch** in one lock acquisition;
//! * **termination** is an atomic *in-flight* node counter — queued plus
//!   currently-expanding nodes — that hits zero exactly when the search
//!   tree is exhausted, replacing the old `idle == alive` condvar dance;
//! * a worker that finds every shard empty **parks on an eventcount**
//!   (an atomic generation counter plus a condvar) instead of polling.
//!
//! # The parking protocol has no missed wakeups
//!
//! The old 25 ms poll existed to bound the cost of a lost notification.
//! The eventcount removes the race entirely, so the missed-wakeup bound
//! is **zero** and no timed wait remains anywhere in the driver. Proof
//! sketch (all four accesses are `SeqCst`, so they have one total order):
//!
//! 1. a parker loads the generation `e = events`, re-sweeps every shard,
//!    and only then sleeps — and it re-checks `events == e` *under the
//!    park mutex* before every wait;
//! 2. a donor publishes its batch (shard mutex), *then* increments
//!    `events`, *then* reads `sleepers` and notifies under the park mutex
//!    if anyone is registered.
//!
//! If the donor's increment lands before the parker's final check, the
//! parker observes `events != e` and never sleeps. If it lands after,
//! then in the `SeqCst` total order the parker's earlier
//! `sleepers += 1` precedes the donor's `sleepers` read, so the donor
//! sees a sleeper and takes the park mutex to notify — and since the
//! parker only releases that mutex atomically with going to sleep, the
//! notification cannot fall between check and wait. Either way the
//! parker wakes, re-sweeps, and finds the donated batch.
//!
//! Termination is live for the same reason: if `in_flight > 0` and every
//! worker is parked, the outstanding node must sit in a shard (a local
//! stack or an in-progress expansion implies a non-parked worker), and
//! whichever donor put it there either prevented a sleep or woke a
//! sleeper. When `in_flight` reaches zero the last decrement closes the
//! frontier and wakes everyone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::kernel::{shed_worst_from_stack, Frontier, SearchEvent, SearchObserver};

/// Hard ceiling on the shard count of [`ShardedFrontier::new`]. More
/// shards than this buys nothing: steals sweep every shard, so the sweep
/// cost is linear in it.
const MAX_SHARDS: usize = 64;

/// A worker only donates when its local stack holds at least this many
/// nodes, so it always keeps a meaningful depth-first runway for itself.
const DONATE_MIN_LOCAL: usize = 4;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking worker holds no broken invariant: every structure here
    // is a plain work list, safe to keep using after poison.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The shared half of the work-stealing frontier: sharded overflow
/// pools, the in-flight termination counter and the eventcount parking
/// lot. One instance is shared by all workers of one search.
pub struct ShardedFrontier<N> {
    /// Overflow pools. Donors append batches at the back; thieves drain
    /// from the front, so within a shard the oldest (most promising,
    /// shallowest) donations leave first.
    shards: Vec<Mutex<Vec<N>>>,
    /// Open nodes anywhere (shards + local stacks) plus nodes currently
    /// being expanded. Zero ⇔ the search tree is exhausted.
    in_flight: AtomicU64,
    /// Nodes currently sitting in the overflow shards. Donors use this to
    /// throttle: once a batch is available for the parked workers, nobody
    /// donates again until it has been consumed. Without the throttle a
    /// single slow-to-wake sleeper (common when threads outnumber cores)
    /// draws a donation from every running worker on every expansion.
    pooled: AtomicU64,
    /// Set once: either `in_flight` hit zero or a stop was requested.
    closed: AtomicBool,
    /// Eventcount generation, bumped by every donation, seed and close.
    events: AtomicU64,
    /// Workers currently inside [`park`](ShardedFrontier::park).
    sleepers: AtomicU64,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// Worker-ordinal allocator; seeds each worker's victim-order RNG.
    next_worker: AtomicU64,
}

impl<N> ShardedFrontier<N> {
    /// A frontier with exactly `shards` overflow pools (clamped to
    /// `1..=MAX_SHARDS`).
    pub fn new(shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        ShardedFrontier {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            in_flight: AtomicU64::new(0),
            pooled: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            events: AtomicU64::new(0),
            sleepers: AtomicU64::new(0),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            next_worker: AtomicU64::new(0),
        }
    }

    /// A frontier sized for `workers` threads: the next power of two ≥
    /// `workers`, capped at 16 — enough that donors rarely collide on a
    /// shard, small enough that a steal sweep stays cheap.
    pub fn for_workers(workers: usize) -> Self {
        ShardedFrontier::new(shard_count_for(workers))
    }

    /// Number of overflow shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Open nodes anywhere right now: queued in shards, on workers'
    /// local stacks, or mid-expansion. The memory watchdog compares this
    /// against the configured [`MemoryBudget`](crate::MemoryBudget) cap.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Seeds the shards round-robin with `nodes` (already sorted most
    /// promising first, so each shard's front holds its best seed) and
    /// charges them in flight. Workers start with empty local stacks and
    /// steal their first batch. Must happen before any worker starts, so
    /// the counter can never transiently read zero mid-search.
    pub fn seed(&self, nodes: Vec<N>) {
        if nodes.is_empty() {
            return;
        }
        let n = nodes.len() as u64;
        self.in_flight.fetch_add(n, Ordering::SeqCst);
        self.pooled.fetch_add(n, Ordering::SeqCst);
        for (i, node) in nodes.into_iter().enumerate() {
            lock(&self.shards[i % self.shards.len()]).push(node);
        }
        self.events.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks one in-flight node finished (its expansion is done and its
    /// surviving children, if any, were charged separately). The worker
    /// whose decrement reaches zero closes the frontier and wakes every
    /// parked peer: the search is over.
    pub fn finish_node(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.close();
        }
    }

    /// Atomically converts one finished parent's in-flight unit into
    /// `kept` child units — the netted form of adding `kept` followed by
    /// [`finish_node`](Self::finish_node). The counter moves in a single
    /// transition, so it still can never transiently read zero under a
    /// live expansion, and in the common tight-search case of exactly one
    /// surviving child the fast path touches no shared state at all.
    pub fn settle(&self, kept: u64) {
        match kept {
            1 => {}
            0 => self.finish_node(),
            k => {
                self.in_flight.fetch_add(k - 1, Ordering::SeqCst);
            }
        }
    }

    /// Closes the frontier (idempotent) and wakes all parked workers.
    /// Called on natural exhaustion and on every early stop — including a
    /// worker panic, which is why the in-flight counter never needs
    /// repairing on the unwind path.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.events.fetch_add(1, Ordering::SeqCst);
        let _g = lock(&self.park_lock);
        self.park_cv.notify_all();
    }

    /// Whether the search is over (exhausted or stopped).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Appends a donated batch to shard `shard` and wakes a parked worker
    /// if any is registered. The sleeper check keeps the fast path cheap:
    /// when nobody is parked, a donation is one shard lock plus one
    /// atomic increment.
    fn donate(&self, shard: usize, batch: Vec<N>) {
        self.pooled.fetch_add(batch.len() as u64, Ordering::SeqCst);
        lock(&self.shards[shard]).extend(batch);
        self.events.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = lock(&self.park_lock);
            self.park_cv.notify_all();
        }
    }

    /// Blocks until the eventcount generation moves past `seen` or the
    /// frontier closes. See the module docs for why this cannot miss a
    /// wakeup (and therefore needs no timeout).
    fn park(&self, seen: u64) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        {
            let mut g = lock(&self.park_lock);
            while self.events.load(Ordering::SeqCst) == seen && !self.is_closed() {
                g = self.park_cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shard count policy: the next power of two ≥ `workers`, capped at 16.
fn shard_count_for(workers: usize) -> usize {
    workers.clamp(1, 16).next_power_of_two()
}

/// One worker's view of a [`ShardedFrontier`]: the local LIFO stack (a
/// [`Frontier`], so [`Expander::expand`](crate::kernel::Expander::expand)
/// absorbs children straight into it) plus the steal/donate/park
/// machinery and this worker's contention counters.
pub struct WorkerFrontier<'a, N> {
    shared: &'a ShardedFrontier<N>,
    /// Depth-first stack; the top is the most recently staged child.
    local: Vec<N>,
    /// The shard this worker donates to (its ordinal modulo the count).
    home: usize,
    /// SplitMix64 state for the randomized victim order; seeded from the
    /// worker ordinal so runs are reproducible thread-for-thread.
    rng: u64,
    /// Children absorbed since the last [`settle`](Self::settle) — their
    /// in-flight charge is netted against the parent's release there.
    pending: u64,
    /// Batches stolen from overflow shards.
    pub steals: u64,
    /// Surplus batches donated to the home shard.
    pub donations: u64,
    /// Times this worker parked with every shard empty.
    pub parks: u64,
}

impl<'a, N> WorkerFrontier<'a, N> {
    /// Registers a worker with `shared`, starting from an empty local
    /// stack: its first node comes from a steal.
    pub fn new(shared: &'a ShardedFrontier<N>) -> Self {
        let ordinal = shared.next_worker.fetch_add(1, Ordering::Relaxed);
        WorkerFrontier {
            shared,
            local: Vec::new(),
            home: (ordinal as usize) % shared.shards.len(),
            // Any non-degenerate per-ordinal seed works; the golden-ratio
            // stride keeps consecutive ordinals' victim orders unrelated.
            rng: ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            pending: 0,
            steals: 0,
            donations: 0,
            parks: 0,
        }
    }

    /// SplitMix64 step — cheap, deterministic, and good enough to
    /// decorrelate victim orders across workers.
    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Blocks until a node is available (steal) or the search is over
    /// (`None`). Call only when the local stack is empty.
    pub fn acquire<O: SearchObserver>(&mut self, observer: &mut O) -> Option<N> {
        loop {
            if self.shared.is_closed() {
                return None;
            }
            if let Some(n) = self.try_steal(observer) {
                return Some(n);
            }
            // Record the generation, then sweep once more: any donation
            // that the sweep misses must have bumped `events` past
            // `seen`, so the park below will not sleep on it.
            let seen = self.shared.events.load(Ordering::SeqCst);
            if self.shared.is_closed() {
                return None;
            }
            if let Some(n) = self.try_steal(observer) {
                return Some(n);
            }
            self.parks += 1;
            observer.on_event(SearchEvent::Parked);
            self.shared.park(seen);
        }
    }

    /// Sweeps the shards in this worker's randomized order and steals
    /// half the first non-empty one (at least one node) in a single lock
    /// acquisition. The batch lands on the local stack with the victim's
    /// oldest (most promising) node on top.
    fn try_steal<O: SearchObserver>(&mut self, observer: &mut O) -> Option<N> {
        let nshards = self.shared.shards.len();
        let start = (self.next_rand() as usize) % nshards;
        for k in 0..nshards {
            let shard = &self.shared.shards[(start + k) % nshards];
            let mut pool = lock(shard);
            let len = pool.len();
            if len == 0 {
                continue;
            }
            let take = len.div_ceil(2);
            let batch: Vec<N> = pool.drain(..take).collect();
            drop(pool);
            self.shared.pooled.fetch_sub(take as u64, Ordering::SeqCst);
            self.steals += 1;
            observer.on_event(SearchEvent::Stolen { nodes: take });
            // Reverse so batch[0] — the shard's oldest entry — ends on
            // top of the stack and is expanded first.
            self.local.extend(batch.into_iter().rev());
            return self.local.pop();
        }
        None
    }

    /// Donates the bottom half of the local stack — the shallowest nodes,
    /// i.e. the largest subtrees — to the home shard, but only when a
    /// peer is actually parked, the overflow pools are dry (one batch at
    /// a time is enough: a parker swept every shard before sleeping, so
    /// anything pooled is already spoken for) and this worker keeps at
    /// least `DONATE_MIN_LOCAL / 2` nodes of runway. Call at the batch
    /// boundary after an expansion; the checks are plain atomic loads, so
    /// the per-node fast path stays lock-free.
    pub fn maybe_donate<O: SearchObserver>(&mut self, observer: &mut O) {
        if self.local.len() < DONATE_MIN_LOCAL {
            return;
        }
        if self.shared.sleepers.load(Ordering::SeqCst) == 0
            || self.shared.pooled.load(Ordering::SeqCst) > 0
        {
            return;
        }
        let half = self.local.len() / 2;
        let batch: Vec<N> = self.local.drain(..half).collect();
        self.donations += 1;
        observer.on_event(SearchEvent::Donated { nodes: half });
        self.shared.donate(self.home, batch);
    }

    /// Settles the just-finished expansion with the shared in-flight
    /// counter: the parent's unit converts into the children absorbed
    /// since the last settle, in one atomic transition (or none, when
    /// exactly one child survived). Call once per expanded node, before
    /// [`maybe_donate`](Self::maybe_donate) — a child must be counted
    /// before it can reach a shard where a thief could finish it.
    pub fn settle(&mut self) {
        let kept = self.pending;
        self.pending = 0;
        self.shared.settle(kept);
    }

    /// Nodes currently on the local stack.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Memory-watchdog shedding: drops up to `excess` worst-bound nodes
    /// from the *local* stack and releases their in-flight units. Each
    /// worker trims its own stack when it notices a budget breach, so
    /// the global count converges back under the cap without any
    /// cross-worker coordination; nodes parked in overflow shards are
    /// trimmed by whichever worker steals them next. Call only between
    /// expansions (after [`settle`](Self::settle)) — the released units
    /// may close the frontier if nothing else is in flight.
    pub fn shed_local(&mut self, excess: usize, lb: &mut dyn FnMut(&N) -> f64) -> usize {
        debug_assert_eq!(self.pending, 0, "shed_local called mid-expansion");
        let dropped = shed_worst_from_stack(&mut self.local, excess, lb);
        for _ in 0..dropped {
            self.shared.finish_node();
        }
        dropped
    }
}

impl<N> Frontier<N> for WorkerFrontier<'_, N> {
    fn pop(&mut self) -> Option<N> {
        self.local.pop()
    }

    fn absorb(&mut self, staged: &mut Vec<(f64, N)>) {
        // Record the children locally; the shared counter is updated in
        // one netted transition by `settle`, while the parent's own
        // in-flight unit is still outstanding — the counter cannot dip
        // to zero under a live expansion, and the per-node fast path
        // pays at most one atomic RMW.
        self.pending += staged.len() as u64;
        // Reverse branch order so the first child — the one the problem
        // tuned to find good incumbents early — pops first.
        for (_, node) in staged.drain(..).rev() {
            self.local.push(node);
        }
    }

    fn len(&self) -> usize {
        self.local.len()
    }

    fn shed(&mut self, excess: usize, lb: &mut dyn FnMut(&N) -> f64) -> usize {
        self.shed_local(excess, lb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn shard_count_policy() {
        assert_eq!(shard_count_for(0), 1);
        assert_eq!(shard_count_for(1), 1);
        assert_eq!(shard_count_for(3), 4);
        assert_eq!(shard_count_for(8), 8);
        assert_eq!(shard_count_for(100), 16);
        assert_eq!(ShardedFrontier::<u32>::new(0).shard_count(), 1);
        assert_eq!(ShardedFrontier::<u32>::new(1000).shard_count(), 64);
    }

    #[test]
    fn in_flight_zero_closes() {
        let f: ShardedFrontier<u32> = ShardedFrontier::new(2);
        f.seed(vec![1, 2, 3]);
        assert!(!f.is_closed());
        f.finish_node();
        f.finish_node();
        assert!(!f.is_closed());
        f.finish_node();
        assert!(f.is_closed());
    }

    #[test]
    fn steal_half_takes_the_front() {
        let f: ShardedFrontier<u32> = ShardedFrontier::new(1);
        f.seed(vec![10, 11, 12, 13]);
        let mut w = WorkerFrontier::new(&f);
        // 4 queued: the thief takes ⌈4/2⌉ = 2 from the front and returns
        // the oldest first.
        assert_eq!(w.try_steal(&mut ()), Some(10));
        assert_eq!(w.pop(), Some(11));
        assert_eq!(w.pop(), None);
        assert_eq!(w.steals, 1);
        // The remaining half is still in the shard.
        assert_eq!(lock(&f.shards[0]).len(), 2);
    }

    #[test]
    fn steal_conserves_nodes_across_workers() {
        let f: ShardedFrontier<u64> = ShardedFrontier::new(4);
        let total: u64 = 100;
        f.seed((0..total).collect());
        let seen_sum = AtomicU64::new(0);
        let seen_count = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut w = WorkerFrontier::new(&f);
                    let mut obs = ();
                    loop {
                        let node = match w.pop() {
                            Some(n) => n,
                            None => match w.acquire(&mut obs) {
                                Some(n) => n,
                                None => break,
                            },
                        };
                        seen_sum.fetch_add(node, Ordering::Relaxed);
                        seen_count.fetch_add(1, Ordering::Relaxed);
                        f.finish_node();
                    }
                });
            }
        });
        // Every seeded node consumed exactly once: count and checksum
        // both match, so nothing was lost or duplicated.
        assert_eq!(seen_count.load(Ordering::Relaxed) as u64, total);
        assert_eq!(seen_sum.load(Ordering::Relaxed), total * (total - 1) / 2);
        assert!(f.is_closed());
    }

    #[test]
    fn park_wakes_on_close() {
        let f: ShardedFrontier<u32> = ShardedFrontier::new(1);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let mut w = WorkerFrontier::new(&f);
                // Blocks until close; must return None, not hang.
                w.acquire(&mut ())
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            f.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }

    #[test]
    fn park_wakes_on_donation() {
        let f: ShardedFrontier<u32> = ShardedFrontier::new(2);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let mut w = WorkerFrontier::new(&f);
                w.acquire(&mut ())
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            // The donor stages four children of a phantom parent; settling
            // charges them in flight, which keeps the frontier open while
            // the consumer waits for the late donation.
            let mut donor = WorkerFrontier::new(&f);
            donor.absorb(&mut vec![(0.0, 7), (0.0, 8), (0.0, 9), (0.0, 10)]);
            donor.settle();
            assert_eq!(donor.local_len(), 4);
            // The sleeper registered; a donation must hand it work.
            while f.sleepers.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            donor.maybe_donate(&mut ());
            assert_eq!(donor.donations, 1);
            let got = h.join().unwrap();
            assert!(got.is_some());
            f.close();
        });
    }
}
