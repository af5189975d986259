//! Property-based tests of the core invariants, across crates.

use mutree::bnb::{SearchMode, SearchOptions};
use mutree::core::{CompactPipeline, MutProblem, MutSolver, ThreeThree};
use mutree::distmat::{gen, DistanceMatrix, MaxminPermutation};
use mutree::graph::CompactSets;
use mutree::seqgen::{edit_distance, DnaSeq};
use mutree::tree::nj::neighbor_joining;
use mutree::tree::{cluster, newick, Linkage};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A strategy producing small random metric matrices (via closure).
fn metric_matrix(max_n: usize) -> impl Strategy<Value = DistanceMatrix> {
    (3..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::uniform_metric(n, 1.0, 100.0, &mut rng)
    })
}

/// A strategy producing small near-ultrametric matrices.
fn clustered_matrix(max_n: usize) -> impl Strategy<Value = DistanceMatrix> {
    (4..=max_n, any::<u64>(), 0u8..3).prop_map(|(n, seed, noise)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::perturbed_ultrametric(n, 50.0, noise as f64 * 0.08, &mut rng)
    })
}

/// The *subdominant ultrametric* of `m`: the largest ultrametric
/// dominated by it, given by minimax path distances `d'(i, j) = min over
/// paths p from i to j of max edge on p` (a Floyd–Warshall pass with
/// `(max, min)` in place of `(+, min)`).
fn subdominant_ultrametric(m: &DistanceMatrix) -> DistanceMatrix {
    let mut out = m.clone();
    let n = m.len();
    for k in 0..n {
        for i in 0..n {
            for j in 0..i {
                let through = out.get(i, k).max(out.get(k, j));
                if through < out.get(i, j) {
                    out.set(i, j, through);
                }
            }
        }
    }
    out
}

/// Whether `m` satisfies the four-point condition within `tol`: for every
/// quadruple, the two largest of the three pairing sums are equal.
/// Additive matrices are exactly those an edge-weighted tree realizes.
fn is_additive(m: &DistanceMatrix, tol: f64) -> bool {
    let n = m.len();
    let d = |i, j| m.get(i, j);
    (0..n).all(|i| {
        (i + 1..n).all(|j| {
            (j + 1..n).all(|k| {
                (k + 1..n).all(|l| {
                    let mut s = [d(i, j) + d(k, l), d(i, k) + d(j, l), d(i, l) + d(j, k)];
                    s.sort_by(f64::total_cmp);
                    (s[2] - s[1]).abs() <= tol
                })
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn metric_closure_yields_metrics(n in 3usize..10, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = DistanceMatrix::zeros(n).unwrap();
        for i in 1..n {
            for j in 0..i {
                m.set(i, j, rand::Rng::gen_range(&mut rng, 0.1..100.0));
            }
        }
        let c = m.metric_closure();
        prop_assert!(c.is_metric(1e-9));
        // Closure never increases distances.
        for (i, j, d) in c.pairs() {
            prop_assert!(d <= m.get(i, j) + 1e-12);
        }
    }

    #[test]
    fn maxmin_permutation_property(m in metric_matrix(10)) {
        let p = MaxminPermutation::compute(&m);
        prop_assert!(p.is_maxmin_for(&m, 1e-9));
    }

    #[test]
    fn compact_sets_satisfy_lemmas(m in clustered_matrix(14)) {
        let cs = CompactSets::find(&m);
        // Lemma 2: strict separation.
        for s in cs.iter() {
            prop_assert!(s.max_internal() < s.min_crossing());
        }
        // Lemma 3: laminar family.
        for a in cs.iter() {
            for b in cs.iter() {
                let inter = a.members().iter().filter(|x| b.members().contains(x)).count();
                prop_assert!(inter == 0 || a.contains_set(b) || b.contains_set(a));
            }
        }
        // Partitions really partition.
        let groups = cs.partition(5);
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        prop_assert_eq!(all, (0..m.len()).collect::<Vec<_>>());
    }

    #[test]
    fn upgmm_is_feasible_and_bounds_the_optimum(m in metric_matrix(9)) {
        let mut t = cluster(&m, Linkage::Maximum);
        prop_assert!(t.is_feasible_for(&m, 1e-9));
        let w = t.fit_heights(&m);
        prop_assert!(t.is_feasible_for(&m, 1e-9));
        let sol = MutSolver::new().solve(&m).unwrap();
        prop_assert!(sol.weight <= w + 1e-9);
        prop_assert!(sol.tree.is_feasible_for(&m, 1e-9));
    }

    #[test]
    fn root_lower_bound_is_admissible(m in metric_matrix(9)) {
        let pm = m.maxmin_permutation().apply(&m);
        let p = MutProblem::new(&pm, ThreeThree::Off, false);
        let sol = MutSolver::new().solve(&m).unwrap();
        let root = mutree::bnb::Problem::root(&p);
        prop_assert!(root.lower_bound() <= sol.weight + 1e-9);
    }

    #[test]
    fn parallel_equals_sequential(m in metric_matrix(8)) {
        let opts = SearchOptions::new(SearchMode::BestOne);
        let _ = opts;
        let seq = MutSolver::new().solve(&m).unwrap();
        let par = MutSolver::new()
            .backend(mutree::core::SearchBackend::Parallel { workers: 3 })
            .solve(&m)
            .unwrap();
        prop_assert!((seq.weight - par.weight).abs() < 1e-6 * (1.0 + seq.weight));
    }

    #[test]
    fn simulated_equals_sequential(m in clustered_matrix(9)) {
        let seq = MutSolver::new().solve(&m).unwrap();
        let sim = MutSolver::new()
            .backend(mutree::core::SearchBackend::SimulatedCluster {
                spec: mutree::clustersim::ClusterSpec::with_slaves(4),
            })
            .solve(&m)
            .unwrap();
        prop_assert!((seq.weight - sim.weight).abs() < 1e-6 * (1.0 + seq.weight));
    }

    #[test]
    fn pipeline_is_feasible_and_dominated_by_exact(m in clustered_matrix(12)) {
        let exact = MutSolver::new().solve(&m).unwrap();
        let pipe = CompactPipeline::new().threshold(6).solve(&m).unwrap();
        prop_assert!(pipe.tree.is_feasible_for(&m, 1e-9));
        prop_assert!(exact.weight <= pipe.weight + 1e-9);
        prop_assert_eq!(pipe.tree.leaf_count(), m.len());
    }

    #[test]
    fn solver_output_roundtrips_newick(m in metric_matrix(8)) {
        let sol = MutSolver::new().solve(&m).unwrap();
        let text = newick::to_newick(&sol.tree);
        let (parsed, _) = newick::parse_newick(&text).unwrap();
        prop_assert_eq!(parsed.leaf_count(), m.len());
        prop_assert!((parsed.weight() - sol.weight).abs() < 1e-6 * (1.0 + sol.weight));
    }

    #[test]
    fn exact_solver_reproduces_ultrametric_matrices(n in 4usize..12, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::random_ultrametric(n, 50.0, &mut rng);
        let sol = MutSolver::new().solve(&m).unwrap();
        prop_assert!(sol.tree.distance_matrix().max_relative_deviation(&m) < 1e-9);
    }

    #[test]
    fn three_three_is_a_sound_restriction(m in clustered_matrix(9)) {
        // The 3-3 rule restricts the search space, so its optimum can
        // never beat the unconstrained one — but property testing showed
        // it CAN be worse (the rule may prune every optimal topology when
        // the data strays from a strict clock), which is why the papers
        // only claim *empirical* preservation on their datasets. The
        // guaranteed properties are dominance and feasibility.
        let off = MutSolver::new().solve(&m).unwrap();
        let initial = MutSolver::new().three_three(ThreeThree::InitialOnly).solve(&m).unwrap();
        prop_assert!(initial.weight >= off.weight - 1e-6 * (1.0 + off.weight));
        prop_assert!(initial.tree.is_feasible_for(&m, 1e-9));
    }

    #[test]
    fn edit_distance_is_a_metric(a in "[ACGT]{0,30}", b in "[ACGT]{0,30}", c in "[ACGT]{0,30}") {
        let (a, b, c): (DnaSeq, DnaSeq, DnaSeq) =
            (a.parse().unwrap(), b.parse().unwrap(), c.parse().unwrap());
        let ab = edit_distance(&a, &b);
        let ba = edit_distance(&b, &a);
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(edit_distance(&a, &a), 0);
        let ac = edit_distance(&a, &c);
        let cb = edit_distance(&c, &b);
        prop_assert!(ab <= ac + cb);
        // Length difference is a lower bound.
        prop_assert!(ab >= a.len().abs_diff(b.len()));
    }

    #[test]
    fn nj_recovers_additive_matrices(n in 4usize..12, seed in any::<u64>()) {
        // Star-lengthening an ultrametric keeps it additive but breaks
        // ultrametricity: d'(i,j) = d(i,j) + e_i + e_j.
        let mut rng = StdRng::seed_from_u64(seed);
        let um = gen::random_ultrametric(n, 40.0, &mut rng);
        let offsets: Vec<f64> = (0..n)
            .map(|_| rand::Rng::gen_range(&mut rng, 0.0..10.0))
            .collect();
        let mut m = um.clone();
        for (i, j, d) in um.pairs() {
            m.set(i, j, d + offsets[i] + offsets[j]);
        }
        prop_assert!(is_additive(&m, 1e-9));
        let t = neighbor_joining(&m);
        prop_assert!(t.distance_matrix().max_relative_deviation(&m) < 1e-9);
        prop_assert!(t.mean_distortion(&m) < 1e-12);
    }

    #[test]
    fn subdominant_matches_single_linkage(n in 3usize..12, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen::uniform_metric(n, 1.0, 100.0, &mut rng);
        let sub = subdominant_ultrametric(&m);
        prop_assert!(sub.is_ultrametric(1e-9));
        // Single-linkage tree distances equal the subdominant ultrametric.
        let t = cluster(&m, Linkage::Minimum);
        prop_assert!(t.distance_matrix().max_relative_deviation(&sub) < 1e-9);
        // And it sandwiches the exact MUT: subdominant ≤ M ≤ d_T(optimal).
        for (i, j, d) in sub.pairs() {
            prop_assert!(d <= m.get(i, j) + 1e-12);
        }
    }

    #[test]
    fn robinson_foulds_is_a_metric_on_topologies(m in metric_matrix(8)) {
        use mutree::tree::compare::robinson_foulds;
        let exact = MutSolver::new().solve(&m).unwrap();
        let upgmm = {
            let mut t = cluster(&m, Linkage::Maximum);
            t.fit_heights(&m);
            t
        };
        let upgma = cluster(&m, Linkage::Average);
        let ab = robinson_foulds(&exact.tree, &upgmm).unwrap();
        let ba = robinson_foulds(&upgmm, &exact.tree).unwrap();
        prop_assert_eq!(ab, ba); // symmetry
        prop_assert_eq!(robinson_foulds(&exact.tree, &exact.tree).unwrap(), 0); // identity
        // Triangle inequality over the three topologies.
        let bc = robinson_foulds(&upgmm, &upgma).unwrap();
        let ac = robinson_foulds(&exact.tree, &upgma).unwrap();
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn generated_trees_have_ultrametric_distance_matrices(n in 2usize..15, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = mutree::seqgen::random_coalescent(n, 1.0, &mut rng);
        let m = t.distance_matrix();
        prop_assert!(m.is_ultrametric(1e-9));
        prop_assert!((t.height() - m.max_distance() / 2.0).abs() < 1e-9);
    }
}
