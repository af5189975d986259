//! Property tests of the branch-and-bound engine on randomized problem
//! instances: all drivers must agree with exhaustive enumeration, and the
//! sequential driver must reproduce a recorded expansion-order oracle.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mutree_bnb::{
    solve_parallel, solve_sequential, CancelToken, ChildBuf, Problem, SearchMode, SearchOptions,
    SpawnPool, StopReason,
};
use proptest::prelude::*;

/// Minimize `Σ chosen weights` over all binary strings of length `n`,
/// with a per-node admissible bound (sum so far). Weights may be zero,
/// which creates co-optimal plateaus.
#[derive(Debug, Clone)]
struct SubsetCost {
    weights: Vec<f64>,
}

impl Problem for SubsetCost {
    type Node = Vec<bool>;
    type Solution = Vec<bool>;

    fn root(&self) -> Vec<bool> {
        Vec::new()
    }
    fn lower_bound(&self, node: &Vec<bool>) -> f64 {
        node.iter()
            .zip(&self.weights)
            .map(|(&b, &w)| if b { w } else { 0.0 })
            .sum()
    }
    fn solution(&self, node: &Vec<bool>) -> Option<(Vec<bool>, f64)> {
        (node.len() == self.weights.len()).then(|| (node.clone(), self.lower_bound(node)))
    }
    fn branch(&self, node: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
        for b in [true, false] {
            let mut c = node.clone();
            c.push(b);
            out.push(c);
        }
    }
}

/// `SubsetCost` with an expansion log: `branch` records the node it was
/// called on, fingerprinting the exact node-visit order.
struct Logged {
    weights: Vec<f64>,
    log: Mutex<Vec<String>>,
}

impl Problem for Logged {
    type Node = Vec<bool>;
    type Solution = Vec<bool>;

    fn root(&self) -> Vec<bool> {
        Vec::new()
    }
    fn lower_bound(&self, node: &Vec<bool>) -> f64 {
        node.iter()
            .zip(&self.weights)
            .map(|(&b, &w)| if b { w } else { 0.0 })
            .sum()
    }
    fn solution(&self, node: &Vec<bool>) -> Option<(Vec<bool>, f64)> {
        (node.len() == self.weights.len()).then(|| (node.clone(), self.lower_bound(node)))
    }
    fn branch(&self, node: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
        let s: String = node.iter().map(|&b| if b { '1' } else { '0' }).collect();
        self.log.lock().unwrap().push(s);
        for b in [true, false] {
            let mut c = node.clone();
            c.push(b);
            out.push(c);
        }
    }
}

/// SplitMix-ish deterministic weights in `[0, 8)`.
fn oracle_weights(seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z >> 40) % 64) as f64 / 8.0
        })
        .collect()
}

/// The sequential driver's exact behavior, recorded before the expansion
/// loop moved into the shared kernel: per-(seed, mode) counters
/// plus an FNV-1a hash of the comma-joined expansion order. Any change to
/// pop order, child staging order, pruning policy, or stats accounting
/// shows up here as a diff against a known-good trace.
#[test]
fn sequential_driver_matches_recorded_oracle() {
    // (seed, mode, branched, pruned, seen, updates, peak, hash)
    #[rustfmt::skip]
    #[allow(clippy::type_complexity)]
    let oracle: &[(u64, SearchMode, u64, u64, u64, u64, u64, u64)] = &[
        (1, SearchMode::BestOne,    89, 68, 22, 22, 10, 0xbcd4_7df4_5d10_975a),
        (1, SearchMode::AllOptimal, 89, 68, 22, 22, 10, 0xbcd4_7df4_5d10_975a),
        (2, SearchMode::BestOne,    89, 67, 23, 23, 10, 0xb676_1cd7_989b_0d6c),
        (2, SearchMode::AllOptimal, 89, 67, 23, 23, 10, 0xb676_1cd7_989b_0d6c),
        (3, SearchMode::BestOne,    84, 43, 42, 42, 10, 0x86ee_7384_84e4_7cb7),
        (3, SearchMode::AllOptimal, 89, 41, 49, 42, 10, 0x28b4_756d_cace_1f62),
    ];
    for &(seed, mode, branched, pruned, seen, updates, peak, hash) in oracle {
        let p = Logged {
            weights: oracle_weights(seed, 9),
            log: Mutex::new(Vec::new()),
        };
        let out = solve_sequential(&p, &SearchOptions::new(mode));
        let ctx = format!("seed={seed} mode={mode:?}");
        assert_eq!(out.stats.branched, branched, "{ctx}");
        assert_eq!(out.stats.pruned, pruned, "{ctx}");
        assert_eq!(out.stats.solutions_seen, seen, "{ctx}");
        assert_eq!(out.stats.incumbent_updates, updates, "{ctx}");
        assert_eq!(out.stats.peak_pool, peak, "{ctx}");
        assert_eq!(out.best_value, Some(0.0), "{ctx}");
        let joined = p.log.lock().unwrap().join(",");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in joined.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(h, hash, "{ctx}: expansion order diverged from oracle");
    }
}

/// A problem whose lower bound is always NaN: under the NaN→−∞ sanitize
/// policy *nothing* may ever be pruned, in any driver.
struct NanBound(SubsetCost);

impl Problem for NanBound {
    type Node = Vec<bool>;
    type Solution = Vec<bool>;

    fn root(&self) -> Vec<bool> {
        self.0.root()
    }
    fn lower_bound(&self, _: &Vec<bool>) -> f64 {
        f64::NAN
    }
    fn solution(&self, n: &Vec<bool>) -> Option<(Vec<bool>, f64)> {
        self.0.solution(n)
    }
    fn branch(&self, n: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
        self.0.branch(n, out)
    }
}

#[test]
fn nan_lower_bounds_never_prune_in_any_driver() {
    let weights = vec![1.0, 2.0, 3.0, 1.5, 0.5, 2.5];
    let optimum = exhaustive_min(&weights);
    let opts = SearchOptions::new(SearchMode::BestOne);
    let p = NanBound(SubsetCost {
        weights: weights.clone(),
    });
    let out = solve_sequential(&p, &opts);
    assert_eq!(out.best_value, Some(optimum), "sequential");
    assert!(out.is_complete(), "sequential");
    assert_eq!(out.stats.pruned, 0, "sequential: NaN bound pruned a node");
    // With no pruning the search is exhaustive: every internal node of
    // the full binary tree branches.
    assert_eq!(out.stats.branched, (1 << weights.len()) - 1, "sequential");
    let p = Arc::new(NanBound(SubsetCost { weights }));
    let par = solve_parallel(p, &opts, 4, &SpawnPool, ());
    assert_eq!(par.best_value, Some(optimum), "parallel");
    assert!(par.is_complete(), "parallel");
    assert_eq!(par.stats.pruned, 0, "parallel: NaN bound pruned a node");
}

fn exhaustive_min(weights: &[f64]) -> f64 {
    // The minimum is all-false = 0 unless we force some... it is always 0;
    // make it interesting by requiring bit0 XOR bit1 via a penalty.
    let n = weights.len();
    let mut best = f64::INFINITY;
    for mask in 0u32..(1 << n) {
        let mut cost = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cost += w;
            }
        }
        best = best.min(cost);
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_matches_exhaustive(weights in proptest::collection::vec(0.0f64..10.0, 1..10)) {
        let p = SubsetCost { weights: weights.clone() };
        let out = solve_sequential(&p, &SearchOptions::new(SearchMode::BestOne));
        prop_assert!((out.best_value.unwrap() - exhaustive_min(&weights)).abs() < 1e-9);
        prop_assert!(out.is_complete());
    }

    #[test]
    fn parallel_matches_sequential(
        weights in proptest::collection::vec(0.0f64..10.0, 1..10),
        workers in 1usize..5,
    ) {
        let p = SubsetCost { weights };
        let opts = SearchOptions::new(SearchMode::BestOne);
        let seq = solve_sequential(&p, &opts);
        let par = solve_parallel(Arc::new(p), &opts, workers, &SpawnPool, ());
        prop_assert_eq!(seq.best_value, par.best_value);
        prop_assert!(par.is_complete());
    }

    #[test]
    fn all_optimal_counts_plateaus(zero_bits in 0usize..5, extra in 1usize..4) {
        // `zero_bits` free bits → 2^zero_bits co-optimal solutions.
        let mut weights = vec![0.0; zero_bits];
        weights.extend(std::iter::repeat_n(3.5, extra));
        let p = SubsetCost { weights };
        let opts = SearchOptions::new(SearchMode::AllOptimal);
        let seq = solve_sequential(&p, &opts);
        prop_assert_eq!(seq.solutions.len(), 1 << zero_bits);
        let par = solve_parallel(Arc::new(p), &opts, 3, &SpawnPool, ());
        let mut a = seq.solutions.clone();
        let mut b = par.solutions.clone();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn budget_caps_branches(weights in proptest::collection::vec(0.0f64..10.0, 8..12), cap in 1u64..20) {
        let p = SubsetCost { weights };
        let out = solve_sequential(&p, &SearchOptions::new(SearchMode::BestOne).max_branches(cap));
        prop_assert!(out.stats.branched <= cap);
        prop_assert!(!out.is_complete());
        prop_assert_eq!(out.stop, StopReason::BudgetExhausted);
    }

    // --- Anytime properties: cancellation and deadlines. -----------------

    #[test]
    fn cancel_mid_search_never_hangs_and_reports_accurately(
        weights in proptest::collection::vec(0.0f64..10.0, 10..14),
        workers in 1usize..5,
        delay_us in 0u64..500,
    ) {
        // Cancel from another thread at a random point during the search;
        // the solve must return (the test harness itself is the hang
        // detector), the incumbent must be a real solution value, and the
        // stop reason must be either Cancelled or — when the search beat
        // the cancel to the finish line — Completed. Nothing else.
        let p = SubsetCost { weights };
        let token = CancelToken::new();
        let canceller = token.clone();
        let opts = SearchOptions::new(SearchMode::BestOne).cancel_token(token);
        let out = std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_micros(delay_us));
                canceller.cancel();
            });
            solve_parallel(Arc::new(p), &opts, workers, &SpawnPool, ())
        });
        prop_assert!(matches!(out.stop, StopReason::Cancelled | StopReason::Completed));
        if let Some(v) = out.best_value {
            // Any reported incumbent must be feasible: a finite sum of
            // non-negative weights.
            prop_assert!(v.is_finite() && v >= 0.0);
            prop_assert!(!out.solutions.is_empty());
        }
    }

    #[test]
    fn expired_deadline_returns_initial_incumbent(
        weights in proptest::collection::vec(0.0f64..10.0, 8..12),
        workers in 1usize..4,
    ) {
        /// The wrapped problem, plus a deliberately bad (but feasible)
        /// initial incumbent: all bits set.
        struct Hinted(SubsetCost);
        impl Problem for Hinted {
            type Node = Vec<bool>;
            type Solution = Vec<bool>;
            fn root(&self) -> Vec<bool> { self.0.root() }
            fn lower_bound(&self, n: &Vec<bool>) -> f64 { self.0.lower_bound(n) }
            fn solution(&self, n: &Vec<bool>) -> Option<(Vec<bool>, f64)> { self.0.solution(n) }
            fn branch(&self, n: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) { self.0.branch(n, out) }
            fn initial_incumbent(&self) -> Option<(Vec<bool>, f64)> {
                let all = vec![true; self.0.weights.len()];
                let v = self.0.weights.iter().sum();
                Some((all, v))
            }
        }
        let total: f64 = weights.iter().sum();
        let p = Hinted(SubsetCost { weights });
        // Deadline already in the past: with zero time budget the search
        // must hand back exactly the initial incumbent, untouched.
        let opts = SearchOptions::new(SearchMode::BestOne)
            .deadline(Instant::now() - Duration::from_millis(1));
        let seq = solve_sequential(&p, &opts);
        prop_assert_eq!(seq.stop, StopReason::DeadlineExpired);
        prop_assert_eq!(seq.best_value, Some(total));
        prop_assert_eq!(seq.stats.branched, 0);
        let par = solve_parallel(Arc::new(p), &opts, workers, &SpawnPool, ());
        prop_assert_eq!(par.stop, StopReason::DeadlineExpired);
        prop_assert_eq!(par.best_value, Some(total));
    }
}
