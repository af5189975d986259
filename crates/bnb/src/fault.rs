//! Deterministic fault injection for robustness testing.
//!
//! [`FaultyProblem`] wraps any [`Problem`] and injects failures the search
//! drivers must survive: panics inside `branch`, NaN or `+∞` lower bounds,
//! artificially slow branch operations, a hard "worker kill" after a fixed
//! call count, and memory pressure (duplicated children that inflate the
//! open set without changing the optimum). Faults fire pseudo-randomly but
//! *deterministically*: each callback invocation hashes a seeded counter,
//! so a given `(seed, rates)` configuration always faults at the same call
//! sequence numbers — a failing test reproduces exactly.
//!
//! Injected sleeps are *interruptible*: they run in short slices and poll
//! the spec's optional [`CancelToken`] and deadline between slices, so a
//! solve under `--timeout` overshoots by at most one slice, never by the
//! whole injected duration. The sleeping primitive itself is injectable
//! ([`FaultSpec::sleep_with`]) so tests can use a virtual clock.
//!
//! This module is part of the public API (rather than test-only code) so
//! downstream crates — the pipeline, the CLI, benches — can reuse the same
//! harness for their own robustness tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::kernel::ChildBuf;
use crate::{CancelToken, Problem};

/// The injectable sleeping primitive used for slow-branch faults: called
/// once per slice with the slice duration. Defaults to
/// `std::thread::sleep`; tests substitute a virtual clock.
pub type SleepFn = Arc<dyn Fn(Duration) + Send + Sync>;

/// How finely an injected sleep is sliced between cancellation/deadline
/// polls.
const SLEEP_SLICE: Duration = Duration::from_micros(500);

/// Which faults to inject, and how often.
///
/// Rates are probabilities in `[0, 1]` evaluated independently per
/// callback invocation. All default to zero (no faults).
#[derive(Clone)]
pub struct FaultSpec {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Probability that a `branch` call panics.
    pub panic_rate: f64,
    /// Probability that a `lower_bound` call returns NaN.
    pub nan_bound_rate: f64,
    /// Probability that a `lower_bound` call returns `+∞` (which, taken at
    /// face value, would wrongly prune a live subtree).
    pub inf_bound_rate: f64,
    /// Probability that a `branch` call sleeps for
    /// [`slow_duration`](FaultSpec::slow_duration) first.
    pub slow_branch_rate: f64,
    /// How long a slow branch sleeps.
    pub slow_duration: Duration,
    /// Branch call number at which the worker is "killed": every `branch`
    /// whose call index is `>= kill_after` panics unconditionally,
    /// simulating a process that dies mid-search and stays dead.
    pub kill_after: Option<u64>,
    /// Probability that a `branch` call injects memory pressure by
    /// emitting its child set [`pressure_copies`](FaultSpec::pressure_copies)
    /// extra times. Duplicated children preserve the optimum (each copy
    /// explores the same subtree) while inflating the open set — exactly
    /// the load a memory watchdog must absorb.
    pub pressure_rate: f64,
    /// Extra copies of the child set emitted per pressure fault.
    pub pressure_copies: u32,
    /// Optional cancellation token polled between sleep slices, so an
    /// injected sleep cannot outlive a cancelled search.
    pub cancel: Option<CancelToken>,
    /// Optional deadline polled between sleep slices, so an injected sleep
    /// cannot overshoot a solve timeout by more than one slice.
    pub deadline: Option<Instant>,
    /// The sleeping primitive (defaults to `std::thread::sleep`).
    pub sleep: SleepFn,
}

impl std::fmt::Debug for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultSpec")
            .field("seed", &self.seed)
            .field("panic_rate", &self.panic_rate)
            .field("nan_bound_rate", &self.nan_bound_rate)
            .field("inf_bound_rate", &self.inf_bound_rate)
            .field("slow_branch_rate", &self.slow_branch_rate)
            .field("slow_duration", &self.slow_duration)
            .field("kill_after", &self.kill_after)
            .field("pressure_rate", &self.pressure_rate)
            .field("pressure_copies", &self.pressure_copies)
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl FaultSpec {
    /// A spec with the given seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            panic_rate: 0.0,
            nan_bound_rate: 0.0,
            inf_bound_rate: 0.0,
            slow_branch_rate: 0.0,
            slow_duration: Duration::from_millis(1),
            kill_after: None,
            pressure_rate: 0.0,
            pressure_copies: 1,
            cancel: None,
            deadline: None,
            sleep: Arc::new(std::thread::sleep),
        }
    }

    /// Sets the branch-panic rate.
    pub fn panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Sets the NaN lower-bound rate.
    pub fn nan_bound_rate(mut self, rate: f64) -> Self {
        self.nan_bound_rate = rate;
        self
    }

    /// Sets the infinite lower-bound rate.
    pub fn inf_bound_rate(mut self, rate: f64) -> Self {
        self.inf_bound_rate = rate;
        self
    }

    /// Sets the slow-branch rate and sleep duration.
    pub fn slow_branches(mut self, rate: f64, duration: Duration) -> Self {
        self.slow_branch_rate = rate;
        self.slow_duration = duration;
        self
    }

    /// Kills the worker at branch call `n`: that call and every later one
    /// panic unconditionally.
    pub fn kill_after(mut self, n: u64) -> Self {
        self.kill_after = Some(n);
        self
    }

    /// Sets the memory-pressure rate and how many extra copies of the
    /// child set each pressure fault emits (clamped up to 1).
    pub fn memory_pressure(mut self, rate: f64, copies: u32) -> Self {
        self.pressure_rate = rate;
        self.pressure_copies = copies.max(1);
        self
    }

    /// Makes injected sleeps poll `token` between slices and return early
    /// once it is cancelled.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Makes injected sleeps poll `deadline` between slices and return
    /// early once it has passed.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replaces the sleeping primitive — tests substitute a virtual clock
    /// that records requested durations instead of blocking.
    pub fn sleep_with(mut self, sleep: SleepFn) -> Self {
        self.sleep = sleep;
        self
    }

    /// Whether an injected sleep should stop early (cancelled or past the
    /// deadline).
    fn interrupted(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Sleeps `total`, in slices, polling for interruption between them.
    fn sliced_sleep(&self, total: Duration) {
        let mut remaining = total;
        while !remaining.is_zero() {
            if self.interrupted() {
                return;
            }
            let slice = remaining.min(SLEEP_SLICE);
            (self.sleep)(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

/// A [`Problem`] wrapper injecting the faults described by a [`FaultSpec`].
///
/// See the [module docs](self) for the determinism contract.
pub struct FaultyProblem<P> {
    inner: P,
    spec: FaultSpec,
    calls: AtomicU64,
}

impl<P> FaultyProblem<P> {
    /// Wraps `inner` with the given fault configuration.
    pub fn new(inner: P, spec: FaultSpec) -> Self {
        FaultyProblem {
            inner,
            spec,
            calls: AtomicU64::new(0),
        }
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// How many faultable callbacks have run so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Draws a uniform value in `[0, 1)` for the next call slot.
    fn roll(&self) -> f64 {
        self.roll_indexed().1
    }

    /// Draws a uniform value in `[0, 1)` and returns it with the call
    /// index it was drawn for — the index drives count-triggered faults
    /// like [`FaultSpec::kill_after`].
    fn roll_indexed(&self) -> (u64, f64) {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let r = (splitmix(self.spec.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11) as f64
            * (1.0 / (1u64 << 53) as f64);
        (n, r)
    }
}

/// SplitMix64 finalizer: one well-mixed u64 per input.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<P: Problem> Problem for FaultyProblem<P> {
    type Node = P::Node;
    type Solution = P::Solution;

    fn root(&self) -> P::Node {
        self.inner.root()
    }

    fn lower_bound(&self, node: &P::Node) -> f64 {
        let r = self.roll();
        if r < self.spec.nan_bound_rate {
            return f64::NAN;
        }
        if r < self.spec.nan_bound_rate + self.spec.inf_bound_rate {
            return f64::INFINITY;
        }
        self.inner.lower_bound(node)
    }

    fn solution(&self, node: &P::Node) -> Option<(P::Solution, f64)> {
        self.inner.solution(node)
    }

    fn branch(&self, node: &P::Node, out: &mut ChildBuf<P::Node>) {
        let (n, r) = self.roll_indexed();
        if self.spec.kill_after.is_some_and(|k| n >= k) {
            panic!("injected fault: worker killed (call #{n})");
        }
        if r < self.spec.panic_rate {
            panic!("injected fault: branch panicked (call #{})", self.calls());
        }
        // The stacked-interval trick keeps one roll per call: each fault
        // type claims a disjoint sub-interval of [0, 1).
        if r < self.spec.panic_rate + self.spec.slow_branch_rate {
            self.spec.sliced_sleep(self.spec.slow_duration);
        }
        // Faulty bounds replace the inner problem's as the ones the kernel
        // prunes by, so the inner `branch` must build every child.
        if self.spec.nan_bound_rate > 0.0 || self.spec.inf_bound_rate > 0.0 {
            out.admit_all();
        }
        self.inner.branch(node, out);
        if r >= self.spec.panic_rate + self.spec.slow_branch_rate
            && r < self.spec.panic_rate + self.spec.slow_branch_rate + self.spec.pressure_rate
        {
            // Memory pressure: emit the child set again. Duplicates are
            // redundant work, never wrong answers.
            for _ in 0..self.spec.pressure_copies {
                self.inner.branch(node, out);
            }
        }
    }

    fn initial_incumbent(&self) -> Option<(P::Solution, f64)> {
        self.inner.initial_incumbent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountDown(u32);
    impl Problem for CountDown {
        type Node = u32;
        type Solution = u32;
        fn root(&self) -> u32 {
            self.0
        }
        fn lower_bound(&self, _: &u32) -> f64 {
            0.0
        }
        fn solution(&self, n: &u32) -> Option<(u32, f64)> {
            (*n == 0).then_some((0, 0.0))
        }
        fn branch(&self, n: &u32, out: &mut ChildBuf<u32>) {
            out.push(n - 1);
        }
    }

    /// Scores every child at 1.0 and skips it when the cutoff rejects
    /// that score.
    struct Scored;
    impl Problem for Scored {
        type Node = u32;
        type Solution = u32;
        fn root(&self) -> u32 {
            2
        }
        fn lower_bound(&self, _: &u32) -> f64 {
            1.0
        }
        fn solution(&self, n: &u32) -> Option<(u32, f64)> {
            (*n == 0).then_some((0, 1.0))
        }
        fn branch(&self, n: &u32, out: &mut ChildBuf<u32>) {
            if out.admits(1.0) {
                out.push(n - 1);
            } else {
                out.skip();
            }
        }
    }

    #[test]
    fn bound_faults_lift_the_inner_cutoff() {
        let mode = crate::SearchMode::BestOne;
        // Faulty bounds replace the inner ones: the inner score must not
        // skip a child the faulty bound might keep.
        let p = FaultyProblem::new(Scored, FaultSpec::new(1).nan_bound_rate(1.0));
        let mut out = ChildBuf::new();
        out.set_cutoff(0.5, mode);
        p.branch(&2, &mut out);
        assert_eq!(out.len(), 1);
        // Without bound faults the inner cutoff stands: the child is
        // skipped, not built.
        let p = FaultyProblem::new(Scored, FaultSpec::new(1));
        let mut out = ChildBuf::new();
        out.set_cutoff(0.5, mode);
        p.branch(&2, &mut out);
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn fault_stream_is_deterministic() {
        let spec = FaultSpec::new(42).nan_bound_rate(0.5);
        let a = FaultyProblem::new(CountDown(5), spec.clone());
        let b = FaultyProblem::new(CountDown(5), spec);
        let bounds_a: Vec<f64> = (0..64).map(|_| a.lower_bound(&1)).collect();
        let bounds_b: Vec<f64> = (0..64).map(|_| b.lower_bound(&1)).collect();
        for (x, y) in bounds_a.iter().zip(&bounds_b) {
            assert_eq!(x.is_nan(), y.is_nan());
            if !x.is_nan() {
                assert_eq!(x, y);
            }
        }
        assert!(bounds_a.iter().any(|x| x.is_nan()));
        assert!(bounds_a.iter().any(|x| !x.is_nan()));
    }

    #[test]
    fn zero_rates_are_transparent() {
        let p = FaultyProblem::new(CountDown(3), FaultSpec::new(7));
        let out =
            crate::solve_sequential(&p, &crate::SearchOptions::new(crate::SearchMode::BestOne));
        assert_eq!(out.best_value, Some(0.0));
        assert!(out.is_complete());
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_rate_one_always_panics() {
        let p = FaultyProblem::new(CountDown(3), FaultSpec::new(1).panic_rate(1.0));
        let mut out = ChildBuf::new();
        p.branch(&2, &mut out);
    }

    #[test]
    fn kill_after_spares_earlier_calls() {
        let p = FaultyProblem::new(CountDown(9), FaultSpec::new(3).kill_after(2));
        let mut out = ChildBuf::new();
        p.branch(&9, &mut out);
        p.branch(&8, &mut out);
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = ChildBuf::new();
            p.branch(&7, &mut out);
        }));
        assert!(killed.is_err(), "call #2 must be killed");
        // The worker stays dead: later calls panic too.
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = ChildBuf::new();
            p.branch(&6, &mut out);
        }));
        assert!(again.is_err());
    }

    #[test]
    fn memory_pressure_duplicates_children() {
        let p = FaultyProblem::new(CountDown(5), FaultSpec::new(11).memory_pressure(1.0, 2));
        let mut out = ChildBuf::new();
        p.branch(&5, &mut out);
        // CountDown pushes one child; pressure adds two extra copies.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn sliced_sleep_respects_deadline_and_cancel() {
        use std::sync::Mutex;

        // Virtual clock: record requested slices instead of blocking.
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&slept);
        let spec = FaultSpec::new(0)
            .slow_branches(1.0, Duration::from_secs(3600))
            .deadline(Instant::now())
            .sleep_with(Arc::new(move |d| record.lock().unwrap().push(d)));
        let p = FaultyProblem::new(CountDown(3), spec);
        let mut out = ChildBuf::new();
        p.branch(&3, &mut out);
        // The deadline was already expired, so not a single slice slept.
        assert!(slept.lock().unwrap().is_empty());

        // A cancellation mid-sleep stops the loop at the next slice.
        let slept2: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let record2 = Arc::clone(&slept2);
        let token = CancelToken::new();
        let cancel_at_third = {
            let token = token.clone();
            let count = AtomicU64::new(0);
            Arc::new(move |d: Duration| {
                record2.lock().unwrap().push(d);
                if count.fetch_add(1, Ordering::Relaxed) + 1 == 3 {
                    token.cancel();
                }
            })
        };
        let spec = FaultSpec::new(0)
            .slow_branches(1.0, Duration::from_secs(3600))
            .cancel_token(token)
            .sleep_with(cancel_at_third);
        let p = FaultyProblem::new(CountDown(3), spec);
        let mut out = ChildBuf::new();
        p.branch(&3, &mut out);
        let n = slept2.lock().unwrap().len();
        assert_eq!(n, 3, "sleep must stop at the slice that cancelled it");
    }
}
