//! Criterion bench of the exact search's order construction: maxmin
//! improved by pair swaps (`SearchOrder`), against plain maxmin, on
//! random-species and HMDNA matrices at n = 24, 64 and 128. Every exact
//! solve and every group and meta solve of the pipeline pays this once,
//! so its cost must stay far below a solve's: at most ~15 µs at n = 24
//! and ~10 ms at n = 128.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mutree_bench::data;
use mutree_distmat::DistanceMatrix;

fn bench_search_order(c: &mut Criterion) {
    let mut g = c.benchmark_group("search_order");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for n in [24usize, 64, 128] {
        let families: [(&str, DistanceMatrix); 2] = [
            ("random", data::random_species_matrix(n, 0)),
            ("hmdna", data::hmdna_matrix(n, 0)),
        ];
        for (family, m) in &families {
            g.bench_function(format!("{family}_{n}/swaps"), |b| {
                b.iter(|| black_box(m.search_order()))
            });
            g.bench_function(format!("{family}_{n}/maxmin"), |b| {
                b.iter(|| black_box(m.maxmin_permutation()))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_search_order);
criterion_main!(benches);
