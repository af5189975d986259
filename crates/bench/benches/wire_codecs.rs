//! Criterion benches of the daemon's wire layer, where it dominates: the
//! request and report text codecs and the frame writer and reader, at
//! the sizes the daemon serves (12- and 16-taxon exact solves, a 64-taxon
//! decomposition). A daemon round trip encodes and decodes one of each
//! document and writes and reads two frames; these costs are microseconds,
//! far below what a batch of solves can resolve.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mutree_bench::data;
use mutree_core::{solve_plan, EnvOverrides, SolvePlan, SolveReport, SolveRequest};
use mutree_distmat::DistanceMatrix;
use mutree_serve::{read_frame, write_frame};

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

/// `(n, request, its report)`: the daemon's request shapes, each solved
/// once so the report carries a real tree, stats and timings.
fn cases() -> Vec<(usize, SolveRequest, SolveReport)> {
    let shapes: [(usize, DistanceMatrix, bool); 3] = [
        (12, data::clustered_matrix(3, 4, 1), false),
        (16, data::clustered_matrix(4, 4, 47), false),
        (64, data::hmdna_matrix(64, 0), true),
    ];
    shapes
        .into_iter()
        .map(|(n, m, decompose)| {
            let request = if decompose {
                SolveRequest::decompose(m)
            } else {
                SolveRequest::exact(m)
            };
            let plan = SolvePlan::resolve(request.clone(), &EnvOverrides::none());
            let report = solve_plan(&plan).expect("solve");
            (n, request, report)
        })
        .collect()
}

fn bench_codecs(c: &mut Criterion) {
    let mut g = quick(c, "wire_codecs");
    for (n, request, report) in cases() {
        let request_text = request.encode();
        let report_text = report.encode();
        g.bench_function(format!("request_encode_n{n}"), |b| {
            b.iter(|| black_box(&request).encode())
        });
        g.bench_function(format!("request_decode_n{n}"), |b| {
            b.iter(|| SolveRequest::decode(black_box(&request_text)).unwrap())
        });
        g.bench_function(format!("report_encode_n{n}"), |b| {
            b.iter(|| black_box(&report).encode())
        });
        g.bench_function(format!("report_decode_n{n}"), |b| {
            b.iter(|| SolveReport::decode(black_box(&report_text)).unwrap())
        });
        // One request frame and one report frame through a buffer, as a
        // round trip writes and reads them.
        let mut buf = Vec::with_capacity(request_text.len() + report_text.len() + 16);
        g.bench_function(format!("frames_n{n}"), |b| {
            b.iter(|| {
                buf.clear();
                write_frame(&mut buf, 1, request_text.as_bytes()).unwrap();
                write_frame(&mut buf, 1, report_text.as_bytes()).unwrap();
                let mut r = buf.as_slice();
                let request = read_frame(&mut r).unwrap().unwrap();
                let report = read_frame(&mut r).unwrap().unwrap();
                request.1.len() + report.1.len()
            })
        });
    }
    g.finish();
}

criterion_group!(wire, bench_codecs);
criterion_main!(wire);
