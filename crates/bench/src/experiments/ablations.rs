//! Ablation studies for the design choices DESIGN.md calls out.

use std::time::Instant;

use mutree_clustersim::ClusterSpec;
use mutree_core::{CompactPipeline, Executor, Linkage, MutSolver, SearchBackend, ThreeThree};

use crate::data;
use crate::report::{fmt_secs, Table};

const BUDGET: u64 = 400_000;

/// `exp_superlinear` — per-instance 16-vs-1 simulated speedup with and
/// without the UPGMM bound. The paper's super-linear ratios come from
/// bound sharing shrinking the explored set; that needs slack in the
/// initial bound, so the effect is strongest with UPGMM disabled (and
/// still appears with it on some instances).
pub fn exp_superlinear() -> Table {
    let mut t = Table::new(
        "exp_superlinear",
        "per-instance 16-vs-1 simulated speedup, with and without the UPGMM bound (random, 20 species)",
        &[
            "seed",
            "upgmm_speedup",
            "noupgmm_speedup",
            "noupgmm_branched_1p",
            "noupgmm_branched_16p",
        ],
    );
    for seed in 0..8u64 {
        let m = data::random_species_matrix(20, seed);
        let run = |upgmm: bool, slaves: usize| {
            let mut solver = MutSolver::new().backend(SearchBackend::SimulatedCluster {
                spec: ClusterSpec::with_slaves(slaves),
            });
            if !upgmm {
                solver = solver.without_upgmm();
            }
            solver.max_branches(BUDGET).solve(&m).expect("solve")
        };
        let speedup = |upgmm: bool| {
            let s1 = run(upgmm, 1);
            let s16 = run(upgmm, 16);
            (
                s1.sim.as_ref().expect("sim report").makespan
                    / s16.sim.as_ref().expect("sim report").makespan,
                s1.stats.branched,
                s16.stats.branched,
            )
        };
        let (with, _, _) = speedup(true);
        let (without, b1, b16) = speedup(false);
        t.push(vec![
            seed.to_string(),
            format!("{with:.2}"),
            format!("{without:.2}"),
            b1.to_string(),
            b16.to_string(),
        ]);
    }
    t
}

/// `exp_baselines` — positions the exact and compact-set constructions
/// against the classical distance methods the papers cite: UPGMA
/// (Sneath–Sokal), UPGMM (the feasible variant), and neighbor joining
/// (Saitou–Nei). Reports total tree length, mean relative distortion of
/// tree distances vs the matrix, and MUT-feasibility.
pub fn exp_baselines() -> Table {
    use mutree_tree::{cluster, nj, Linkage, UltrametricTree};

    let mut t = Table::new(
        "exp_baselines",
        "reconstruction methods on one HMDNA (n=24) and one random (n=16) matrix",
        &[
            "family",
            "method",
            "tree_length",
            "mean_distortion",
            "mut_feasible",
        ],
    );
    let distortion_ut = |tree: &UltrametricTree, m: &mutree_distmat::DistanceMatrix| {
        let mut total = 0.0;
        let mut count = 0usize;
        for (i, j, d) in m.pairs() {
            if d > 0.0 {
                let dt = tree.leaf_distance(i, j).expect("leaf");
                total += (dt - d).abs() / d;
                count += 1;
            }
        }
        total / count.max(1) as f64
    };
    for (family, m) in [
        ("HMDNA", data::hmdna_matrix(24, 0)),
        ("random", data::random_species_matrix(16, 0)),
    ] {
        let push_ut = |name: &str, tree: &UltrametricTree, t: &mut Table| {
            t.push(vec![
                family.into(),
                name.into(),
                format!("{:.1}", tree.weight()),
                format!("{:.4}", distortion_ut(tree, &m)),
                tree.is_feasible_for(&m, 1e-9).to_string(),
            ]);
        };
        let upgma = cluster(&m, Linkage::Average);
        push_ut("UPGMA", &upgma, &mut t);
        let upgmm = cluster(&m, Linkage::Maximum);
        push_ut("UPGMM", &upgmm, &mut t);
        let exact = MutSolver::new()
            .max_branches(BUDGET)
            .solve(&m)
            .expect("solve");
        push_ut("exact MUT", &exact.tree, &mut t);
        let pipe = CompactPipeline::new()
            .threshold(10)
            .solve(&m)
            .expect("pipeline");
        push_ut("compact pipeline", &pipe.tree, &mut t);
        let njt = nj::neighbor_joining(&m);
        t.push(vec![
            family.into(),
            "neighbor joining".into(),
            format!("{:.1}", njt.total_length()),
            format!("{:.4}", njt.mean_distortion(&m)),
            "n/a (unrooted)".into(),
        ]);
    }
    t
}

/// `exp_grid` — the project report's third evaluation (NCS 2005 /
/// 應用網格 paper, Table 6): the same 20-species data sets solved on the
/// 16-node PC cluster, on a 16-node *grid* (slower CPUs, WAN links), and
/// on a 24-node grid. The report's finding: at equal node counts the grid
/// is slightly slower than the cluster, but a 24-node grid beats the
/// 16-node cluster.
pub fn exp_grid() -> Table {
    let mut t = Table::new(
        "exp_grid",
        "virtual computing time (s): 16-node cluster vs 16- and 24-node grid (random, 20 species)",
        &["data_set", "cluster16", "grid16", "grid24"],
    );
    for seed in 0..8u64 {
        let m = data::random_species_matrix(20, seed);
        let run = |spec: ClusterSpec| {
            MutSolver::new()
                .backend(SearchBackend::SimulatedCluster { spec })
                .max_branches(BUDGET)
                .solve(&m)
                .expect("solve")
                .sim
                .expect("sim report")
                .makespan
        };
        t.push(vec![
            (seed + 1).to_string(),
            fmt_secs(run(ClusterSpec::paper_cluster())),
            fmt_secs(run(ClusterSpec::paper_grid(16))),
            fmt_secs(run(ClusterSpec::paper_grid(24))),
        ]);
    }
    t
}

/// `abl_linkage` — the paper builds its condensed matrices under
/// *maximum* linkage and leaves *minimum*/*average* unstudied. This
/// ablation compares tree cost across all three (after the final height
/// refit all are feasible, so cost is comparable).
pub fn abl_linkage() -> Table {
    let mut t = Table::new(
        "abl_linkage",
        "pipeline tree cost by condensed-matrix linkage (HMDNA and random)",
        &["family", "species", "maximum", "minimum", "average"],
    );
    let cases: Vec<(&str, mutree_distmat::DistanceMatrix)> = vec![
        ("HMDNA", data::hmdna_matrix(26, 0)),
        ("HMDNA", data::hmdna_matrix(30, 0)),
        ("random", data::random_species_matrix(20, 0)),
        ("random", data::random_species_matrix(24, 0)),
    ];
    for (family, m) in cases {
        let cost = |linkage| {
            CompactPipeline::new()
                .threshold(10)
                .linkage(linkage)
                .solver(MutSolver::new().max_branches(BUDGET))
                .solve(&m)
                .expect("pipeline solve")
                .weight
        };
        t.push(vec![
            family.into(),
            m.len().to_string(),
            format!("{:.1}", cost(Linkage::Maximum)),
            format!("{:.1}", cost(Linkage::Minimum)),
            format!("{:.1}", cost(Linkage::Average)),
        ]);
    }
    t
}

/// `abl_threshold` — the group-size threshold trades solve time against
/// tree cost: larger groups mean more exact work but fewer lossy merges.
pub fn abl_threshold() -> Table {
    let mut t = Table::new(
        "abl_threshold",
        "pipeline time/cost vs compact-set group threshold (random, 24 species)",
        &["threshold", "time_s", "cost", "groups"],
    );
    let m = data::random_species_matrix(24, 1);
    for threshold in [4usize, 6, 8, 10, 12, 16] {
        let pipeline = CompactPipeline::new()
            .threshold(threshold)
            .solver(MutSolver::new().max_branches(BUDGET));
        let start = Instant::now();
        let sol = pipeline.solve(&m).expect("pipeline solve");
        t.push(vec![
            threshold.to_string(),
            fmt_secs(start.elapsed().as_secs_f64()),
            format!("{:.1}", sol.weight),
            sol.groups.len().to_string(),
        ]);
    }
    t
}

/// Seeds per size in [`abl_bound`].
const ABL_BOUND_SEEDS: u64 = 12;

/// `abl_bound` — Algorithm BBU's two bound ingredients: the search
/// order (tightens the suffix lower bound) and the UPGMM initial
/// incumbent (tightens the upper bound before the search starts),
/// ablated per node size on random matrices with `ThreeThree::Off`.
/// `full` searches in the solver's own order, maxmin improved by pair
/// swaps; `maxmin_only` permutes the matrix into its plain maxmin order
/// by hand and turns the solver's relabeling off. Each cell is the total
/// over seeds `0..ABL_BOUND_SEEDS`, in branch operations, the
/// machine-independent cost.
pub fn abl_bound() -> Table {
    let mut t = Table::new(
        "abl_bound",
        &format!(
            "branch operations by bound configuration, total over {ABL_BOUND_SEEDS} seeds (random)"
        ),
        &[
            "species",
            "full",
            "maxmin_only",
            "no_maxmin",
            "no_upgmm",
            "neither",
        ],
    );
    let branched = |m: &_, solver: MutSolver| {
        solver
            .max_branches(BUDGET)
            .solve(m)
            .expect("solve")
            .stats
            .branched
    };
    for n in [9usize, 12, 16] {
        let mut totals = [0u64; 5];
        for seed in 0..ABL_BOUND_SEEDS {
            let m = data::random_species_matrix(n, seed);
            let maxmin = m.maxmin_permutation().apply(&m);
            let runs = [
                branched(&m, MutSolver::new()),
                branched(&maxmin, MutSolver::new().without_maxmin()),
                branched(&m, MutSolver::new().without_maxmin()),
                branched(&m, MutSolver::new().without_upgmm()),
                branched(&m, MutSolver::new().without_maxmin().without_upgmm()),
            ];
            for (total, b) in totals.iter_mut().zip(runs) {
                *total += b;
            }
        }
        let mut row = vec![n.to_string()];
        row.extend(totals.iter().map(u64::to_string));
        t.push(row);
    }
    t
}

/// `abl_33` — the 3-3 relationship at its three strengths: off, the
/// paper's initial-step use, and the proposed full-insertion extension.
/// Reports branch operations and the optimum (to confirm the heuristic
/// preserved it).
pub fn abl_33() -> Table {
    let mut t = Table::new(
        "abl_33",
        "3-3 rule strength: branch operations and optimum weight (random data)",
        &[
            "species",
            "off_branched",
            "initial_branched",
            "full_branched",
            "off_w",
            "initial_w",
            "full_w",
        ],
    );
    for n in [10usize, 12, 14] {
        let m = data::random_species_matrix(n, 3);
        let run = |rule| {
            let sol = MutSolver::new()
                .three_three(rule)
                .max_branches(BUDGET)
                .solve(&m)
                .expect("solve");
            (sol.stats.branched, sol.weight)
        };
        let (b_off, w_off) = run(ThreeThree::Off);
        let (b_ini, w_ini) = run(ThreeThree::InitialOnly);
        let (b_ful, w_ful) = run(ThreeThree::Full);
        t.push(vec![
            n.to_string(),
            b_off.to_string(),
            b_ini.to_string(),
            b_ful.to_string(),
            format!("{w_off:.1}"),
            format!("{w_ini:.1}"),
            format!("{w_ful:.1}"),
        ]);
    }
    t
}

/// `exp_taskgraph` — the compact-set pipeline with its group and meta
/// solves run inline vs fanned out on a shared 4-worker [`Executor`], on
/// block-clustered instances whose compact sets form 8+ groups. Both runs
/// solve the same stages and must report the bit-identical tree weight;
/// the wall-clock ratio depends on the host's core count.
pub fn exp_taskgraph() -> Table {
    let mut t = Table::new(
        "exp_taskgraph",
        "fork-join pipeline: inline stage solves vs shared 4-worker executor (clustered data)",
        &[
            "clusters",
            "taxa",
            "groups",
            "inline",
            "pool4",
            "ratio",
            "weight_match",
        ],
    );
    for clusters in [8usize, 10, 12] {
        let size = 7;
        let m = data::clustered_matrix(clusters, size, 0xda6 + clusters as u64);

        let t0 = Instant::now();
        let inline = CompactPipeline::new()
            .threshold(size + 1)
            .solve(&m)
            .expect("inline pipeline");
        let inline_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let pooled = CompactPipeline::new()
            .threshold(size + 1)
            .executor(Executor::new(4))
            .solve(&m)
            .expect("pooled pipeline");
        let pooled_s = t0.elapsed().as_secs_f64();

        assert!(
            inline.groups.len() >= 8,
            "workload must decompose into 8+ groups, got {}",
            inline.groups.len()
        );
        t.push(vec![
            clusters.to_string(),
            m.len().to_string(),
            inline.groups.len().to_string(),
            fmt_secs(inline_s),
            fmt_secs(pooled_s),
            format!("{:.2}", inline_s / pooled_s.max(1e-12)),
            (inline.weight.to_bits() == pooled.weight.to_bits()).to_string(),
        ]);
    }
    t
}
