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
//!   wrong answer;
//! * one cache **shared** by pipelines on a pooled executor, probed and
//!   filed from several threads at once, never changes an answer.

use std::sync::Arc;

use mutree::core::{
    solve_plan, BackendSpec, CacheOutcome, CompactPipeline, DegradeReason, EnvOverrides, Executor,
    GroupCache, MutSolver, PipelineSolution, SearchBackend, SolvePlan, SolveRequest,
    StageProvenance, ThreeThree,
};
use mutree::distmat::{gen, DistanceMatrix};
use mutree::seqgen;
use mutree::tree::compare::robinson_foulds;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        let sig = solver.cache_sig_interruptible().expect("unconstrained solver is cacheable");
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
/// pruned counts), which differ per rule. The answer-neutral worker
/// count stays unhashed, so its solves share entries.
#[test]
fn cache_sig_separates_three_three_modes() {
    let modes = [ThreeThree::Off, ThreeThree::InitialOnly];
    let sigs: Vec<u64> = modes
        .iter()
        .map(|&rule| {
            MutSolver::new()
                .three_three(rule)
                .cache_sig_interruptible()
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
        MutSolver::new()
            .backend(SearchBackend::Parallel { workers: 2 })
            .cache_sig_interruptible(),
        MutSolver::new()
            .backend(SearchBackend::Parallel { workers: 4 })
            .cache_sig_interruptible()
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

/// Clustered, HMDNA-like and tie-heavy matrices, plus one exact repeat:
/// random float groups whose canonical order is not the identity, integer
/// ties, and a whole instance the pipeline memo must answer.
fn shared_cache_batch() -> Vec<DistanceMatrix> {
    let mut rng = StdRng::seed_from_u64(0x5ca1e);
    let mut batch = Vec::new();
    for _ in 0..3 {
        // Three tight clusters of five taxa, far apart.
        let mut m = DistanceMatrix::zeros(15).unwrap();
        for i in 0..15 {
            for j in (i + 1)..15 {
                let d = if i / 5 == j / 5 {
                    rng.gen_range(2.0..8.0)
                } else {
                    rng.gen_range(90.0..110.0)
                };
                m.set(i, j, d);
            }
        }
        batch.push(m);
    }
    for _ in 0..3 {
        batch.push(seqgen::hmdna_like_matrix(16, 150, &mut rng));
    }
    for _ in 0..3 {
        let mut m = DistanceMatrix::zeros(12).unwrap();
        for i in 0..12 {
            for j in (i + 1)..12 {
                m.set(i, j, f64::from(rng.gen_range(1..=3u32)));
            }
        }
        batch.push(m);
    }
    batch.push(batch[0].clone());
    batch
}

fn assert_unchanged(pass: &str, reference: &[PipelineSolution], got: &[PipelineSolution]) {
    for (i, (want, got)) in reference.iter().zip(got).enumerate() {
        assert!(
            got.is_complete(),
            "{pass}, instance {i}: {:?}",
            got.degraded
        );
        assert_eq!(
            got.weight.to_bits(),
            want.weight.to_bits(),
            "{pass}, instance {i}: weight {} vs uncached {}",
            got.weight,
            want.weight
        );
        assert_eq!(
            robinson_foulds(&got.tree, &want.tree).unwrap(),
            0,
            "{pass}, instance {i}: topology differs from the uncached run"
        );
        assert_eq!(got.stats.cache_poisoned, 0, "{pass}, instance {i}");
    }
}

/// One `GroupCache` shared by pipelines on an 8-worker executor answers
/// every instance exactly as the uncached pipeline does: cold, warm, and
/// with several threads probing and filing at once. Stages that fail
/// under a cacheable signature file nothing.
#[test]
fn shared_cache_never_changes_a_pipeline_answer() {
    let exec = Executor::new(8);
    let batch = shared_cache_batch();
    let pipeline = || CompactPipeline::new().threshold(5).executor(exec.clone());
    let reference: Vec<PipelineSolution> =
        batch.iter().map(|m| pipeline().solve(m).unwrap()).collect();
    let cached = |cache: &Arc<GroupCache>| pipeline().cache(Arc::clone(cache));
    let pass = |cache: &Arc<GroupCache>| -> Vec<PipelineSolution> {
        batch
            .iter()
            .map(|m| cached(cache).solve(m).unwrap())
            .collect()
    };

    // Zero parallel workers trip the driver's worker assertion, so every
    // stage panics and degrades to its agglomerative fallback. The worker
    // count is answer-neutral and left out of the signature, so these
    // stages probe and could file under a healthy parallel solver's key.
    let cache = Arc::new(GroupCache::new());
    let broken = MutSolver::new().backend(SearchBackend::Parallel { workers: 0 });
    assert!(broken.cache_sig_interruptible().is_some());
    for m in &batch {
        let sol = cached(&cache).solver(broken.clone()).solve(m).unwrap();
        assert!(
            sol.degraded
                .iter()
                .any(|d| d.reason == DegradeReason::Panicked),
            "the broken solver must degrade its stages"
        );
    }
    assert!(cache.is_empty(), "degraded stages were filed: {cache:?}");

    let cold = pass(&cache);
    assert_unchanged("cold", &reference, &cold);
    let warm = pass(&cache);
    assert_unchanged("warm", &reference, &warm);
    let hits: u64 = warm.iter().map(|s| s.stats.cache_hits).sum();
    assert!(hits > 0, "the warm pass must hit");
    assert!(
        warm.iter()
            .all(|s| s.timings[0].provenance == StageProvenance::Cached),
        "every warm run is a whole-run memo hit"
    );
    // Another depth cap changes the whole-run key but no stage key, so
    // this pass misses the whole-run memo and answers from stage hits.
    let staged: Vec<PipelineSolution> = batch
        .iter()
        .map(|m| cached(&cache).max_depth(7).solve(m).unwrap())
        .collect();
    assert_unchanged("stage-warm", &reference, &staged);
    assert!(
        staged.iter().all(|s| s.stats.cache_hits > 0),
        "every instance has a stage answered from the cache"
    );

    // A fresh cache, probed and filed by three threads at once, each
    // walking the batch from a different offset.
    let shared = Arc::new(GroupCache::new());
    std::thread::scope(|scope| {
        let runs: Vec<_> = (0..3)
            .map(|t| {
                let shared = &shared;
                let batch = &batch;
                let cached = &cached;
                scope.spawn(move || {
                    let k = batch.len();
                    let mut out: Vec<Option<PipelineSolution>> = vec![None; k];
                    for step in 0..k {
                        let i = (step + t * k / 3) % k;
                        out[i] = Some(cached(shared).solve(&batch[i]).unwrap());
                    }
                    out.into_iter().map(Option::unwrap).collect::<Vec<_>>()
                })
            })
            .collect();
        for run in runs {
            assert_unchanged("concurrent", &reference, &run.join().unwrap());
        }
    });
}
