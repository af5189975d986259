//! Criterion benches for the ablation studies, plus micro-benches of the
//! individual substrates (compact-set detection, UPGMM, edit distance)
//! so substrate regressions are visible independently of the full
//! pipelines.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use mutree_bench::data;
use mutree_core::{CompactPipeline, Linkage, MutSolver, ThreeThree};
use mutree_graph::CompactSets;
use mutree_seqgen::{edit_distance, random_root_sequence};
use mutree_tree::cluster;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    g
}

/// `abl_linkage` — condensed-matrix linkage choice.
fn bench_abl_linkage(c: &mut Criterion) {
    let m = data::hmdna_matrix(24, 0);
    let mut g = quick(c, "abl_linkage");
    for (name, linkage) in [
        ("maximum", Linkage::Maximum),
        ("minimum", Linkage::Minimum),
        ("average", Linkage::Average),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                CompactPipeline::new()
                    .threshold(10)
                    .linkage(linkage)
                    .solve(&m)
                    .unwrap()
                    .weight
            })
        });
    }
    g.finish();
}

/// `abl_threshold` — group-size threshold.
fn bench_abl_threshold(c: &mut Criterion) {
    let m = data::random_species_matrix(18, 1);
    let mut g = quick(c, "abl_threshold");
    for threshold in [4usize, 8, 12] {
        g.bench_function(format!("threshold_{threshold}"), |b| {
            b.iter(|| {
                CompactPipeline::new()
                    .threshold(threshold)
                    .solver(MutSolver::new().max_branches(60_000))
                    .solve(&m)
                    .unwrap()
                    .weight
            })
        });
    }
    g.finish();
}

/// `abl_bound` — maxmin relabeling and UPGMM incumbent on vs off.
fn bench_abl_bound(c: &mut Criterion) {
    let m = data::random_species_matrix(12, 2);
    let mut g = quick(c, "abl_bound");
    g.bench_function("full", |b| {
        b.iter(|| MutSolver::new().solve(&m).unwrap().weight)
    });
    g.bench_function("no_maxmin", |b| {
        b.iter(|| MutSolver::new().without_maxmin().solve(&m).unwrap().weight)
    });
    g.bench_function("no_upgmm", |b| {
        b.iter(|| MutSolver::new().without_upgmm().solve(&m).unwrap().weight)
    });
    g.finish();
}

/// `abl_33` — the 3-3 rule strength.
fn bench_abl_33(c: &mut Criterion) {
    let m = data::random_species_matrix(12, 3);
    let mut g = quick(c, "abl_33");
    for (name, rule) in [
        ("off", ThreeThree::Off),
        ("initial", ThreeThree::InitialOnly),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| MutSolver::new().three_three(rule).solve(&m).unwrap().weight)
        });
    }
    g.finish();
}

/// Substrate micro-benches.
fn bench_substrates(c: &mut Criterion) {
    let m = data::hmdna_matrix(32, 0);
    let mut g = quick(c, "substrates");
    g.bench_function("compact_sets_n32", |b| {
        b.iter(|| CompactSets::find(&m).len())
    });
    g.bench_function("upgmm_n32", |b| {
        b.iter(|| cluster(&m, Linkage::Maximum).weight())
    });
    let mut rng = StdRng::seed_from_u64(5);
    let a = random_root_sequence(500, &mut rng);
    let b2 = random_root_sequence(500, &mut rng);
    g.bench_function("edit_distance_500", |b| b.iter(|| edit_distance(&a, &b2)));
    g.finish();
}

criterion_group!(
    ablations,
    bench_abl_linkage,
    bench_abl_threshold,
    bench_abl_bound,
    bench_abl_33,
    bench_substrates
);
criterion_main!(ablations);
