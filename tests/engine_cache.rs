//! Property tests of the engine spine's group-solve cache contract:
//!
//! * an **exact hit** replays the filing solve bit for bit — same
//!   optimum bits, same topology (RF = 0), provenance `Cached` — on all
//!   three search drivers;
//! * a **warm seed** (ε-close matrix in the same quantization bucket)
//!   never makes the search worse: the seeded solve still completes and
//!   still proves the same optimum;
//! * a **poisoned** entry fails its checksum, is evicted, and the solve
//!   degrades to a cold search with the corruption counted — never a
//!   wrong answer.

use std::sync::Arc;

use mutree::core::{
    solve_plan, BackendSpec, CacheOutcome, CompactPipeline, EnvOverrides, GroupCache, MutSolver,
    SearchBackend, SolvePlan, SolveRequest, StageProvenance, ThreeThree,
};
use mutree::distmat::gen;
use mutree::tree::compare::robinson_foulds;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BACKENDS: [BackendSpec; 3] = [
    BackendSpec::Sequential,
    BackendSpec::Parallel { workers: 3 },
    BackendSpec::SimulatedCluster { slaves: 3 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Solving the same cache-enabled plan twice answers the second run
    /// from the cache, bit-identical to the run that filed the entry, on
    /// every driver (the solver signature includes the backend, so each
    /// driver files and hits its own entries).
    #[test]
    fn cache_hits_replay_bit_identically_on_every_driver(
        n in 6usize..10,
        seed in any::<u64>(),
        which in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::perturbed_ultrametric(n, 60.0, 0.05, &mut rng);
        let backend = BACKENDS[which];
        let plan = SolvePlan::resolve(
            SolveRequest::exact(m.clone()).backend(backend).cache(true),
            &EnvOverrides::none(),
        );
        let reference = solve_plan(&SolvePlan::resolve(
            SolveRequest::exact(m.clone()).backend(backend).cache(false),
            &EnvOverrides::none(),
        ))
        .unwrap();
        let filing = solve_plan(&plan).unwrap();
        let warm = solve_plan(&plan).unwrap();
        prop_assert_eq!(warm.stats.cache_hits, 1, "second run must hit");
        prop_assert_eq!(warm.timings[0].provenance, StageProvenance::Cached);
        prop_assert!(warm.is_complete());
        // Bit-identical to the solve that filed the entry…
        prop_assert_eq!(warm.weight.to_bits(), filing.weight.to_bits());
        prop_assert_eq!(robinson_foulds(&warm.tree, &filing.tree).unwrap(), 0);
        // …and the stored optimum is the true one.
        prop_assert!((warm.weight - reference.weight).abs() < 1e-9);
    }

    /// Seeding the incumbent from an ε-close cached solve can speed the
    /// search up but never change its answer: the seeded solve still
    /// completes and proves the same optimum as a cold solve.
    #[test]
    fn warm_seed_never_worsens_the_optimum(n in 5usize..9, seed in any::<u64>()) {
        let quantum = 1e-3;
        let cache = GroupCache::with_quantum(quantum);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = gen::perturbed_ultrametric(n, 60.0, 0.05, &mut rng);
        // Snap every distance to its bin center so the perturbation
        // below cannot cross a quantization boundary.
        let snapped: Vec<(usize, usize, f64)> = m
            .pairs()
            .map(|(i, j, d)| (i, j, (d / quantum).floor() * quantum + 0.5 * quantum))
            .collect();
        for (i, j, d) in snapped {
            m.set(i, j, d);
        }
        let solver = MutSolver::new();
        let sig = solver.cache_sig().expect("unconstrained solver is cacheable");
        let cold = solver.solve(&m).unwrap();
        let query = match cache.probe(&m, sig).outcome {
            CacheOutcome::Miss(q) => q,
            _ => {
                prop_assert!(false, "fresh cache must miss");
                unreachable!()
            }
        };
        cache.insert(query, &cold.tree, cold.weight);

        let mut near = m.clone();
        near.set(0, 1, m.get(0, 1) + quantum / 4.0);
        let near_cold = solver.solve(&near).unwrap();
        let seed_tree = match cache.probe(&near, sig).outcome {
            CacheOutcome::Seed { tree, .. } => tree,
            _ => {
                prop_assert!(false, "ε-perturbed matrix must warm-seed");
                unreachable!()
            }
        };
        let seeded = solver.clone().seed_incumbent(seed_tree).solve(&near).unwrap();
        prop_assert!(seeded.is_complete(), "seeded search must still prove optimality");
        prop_assert!(
            seeded.weight <= near_cold.weight + 1e-9,
            "seeded {} vs cold {}",
            seeded.weight,
            near_cold.weight
        );
        prop_assert!((seeded.weight - near_cold.weight).abs() < 1e-9);
        prop_assert!(seeded.tree.is_feasible_for(&near, 1e-9));
    }
}

/// Solvers that differ only in the 3-3 rule must never share a cache
/// entry: the rule can change which optimum comes back, and cached
/// reports replay the filing solve's search statistics (branched and
/// propagation-pruned counts), which differ per rule. Answer-neutral
/// knobs — the leaf-bitset width and the worker count — stay unhashed,
/// so their solves share entries.
#[test]
fn cache_sig_separates_three_three_modes() {
    let modes = [ThreeThree::Off, ThreeThree::InitialOnly, ThreeThree::Full];
    let sigs: Vec<u64> = modes
        .iter()
        .map(|&rule| {
            MutSolver::new()
                .three_three(rule)
                .cache_sig()
                .expect("unconstrained solver is cacheable")
        })
        .collect();
    for (i, a) in sigs.iter().enumerate() {
        for (j, b) in sigs.iter().enumerate() {
            if i != j {
                assert_ne!(a, b, "{:?} and {:?} share a signature", modes[i], modes[j]);
            }
        }
    }
    assert_eq!(
        MutSolver::new().leaf_words(1).cache_sig(),
        MutSolver::new().leaf_words(2).cache_sig()
    );
    assert_eq!(
        MutSolver::new()
            .backend(SearchBackend::Parallel { workers: 2 })
            .cache_sig(),
        MutSolver::new()
            .backend(SearchBackend::Parallel { workers: 4 })
            .cache_sig()
    );
}

/// A corrupted cache entry fails its checksum on probe: it is evicted,
/// counted in `cache_poisoned`, and the solve degrades to a cold search
/// that reproduces the original optimum exactly.
#[test]
fn poisoned_cache_degrades_to_cold_solve() {
    let cache = Arc::new(GroupCache::new());
    let mut rng = StdRng::seed_from_u64(1234);
    let m = gen::perturbed_ultrametric(12, 60.0, 0.05, &mut rng);
    let pipeline = || {
        CompactPipeline::new()
            .threshold(6)
            .cache(Arc::clone(&cache))
    };
    let cold = pipeline().solve(&m).unwrap();
    assert!(!cache.is_empty(), "cold run must file its solves");
    cache.poison_all();
    let replay = pipeline().solve(&m).unwrap();
    assert!(
        replay.stats.cache_poisoned > 0,
        "checksum mismatches must be counted: {:?}",
        replay.stats
    );
    assert!(
        replay.is_complete(),
        "a poisoned cache costs time, never completeness"
    );
    assert_eq!(
        replay.weight.to_bits(),
        cold.weight.to_bits(),
        "the re-solve must reproduce the optimum"
    );
    assert_eq!(robinson_foulds(&replay.tree, &cold.tree).unwrap(), 0);
    assert!(
        replay
            .timings
            .iter()
            .all(|t| t.provenance != StageProvenance::Cached),
        "no stage may be served from a poisoned cache: {:?}",
        replay.timings
    );
}
