//! WAH bitmap kernels (the FastBit comparator's): construction, `or`,
//! run walks and serialization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mloc_bitmap::{or, WahBitmap};
use std::hint::black_box;

fn sparse_positions(n: u64, every: u64) -> Vec<u64> {
    (0..n).step_by(every as usize).collect()
}

fn bench_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("wah_construction");
    let n = 1_000_000u64;
    for density in [1000u64, 100, 10] {
        let pos = sparse_positions(n, density);
        g.throughput(Throughput::Elements(pos.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("from_sorted_positions", format!("1/{density}")),
            &pos,
            |b, pos| b.iter(|| black_box(WahBitmap::from_sorted_positions(n, pos))),
        );
    }
    g.finish();
}

fn bench_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("wah_ops");
    let n = 1_000_000u64;
    let a = WahBitmap::from_sorted_positions(n, &sparse_positions(n, 37));
    let bmp = WahBitmap::from_sorted_positions(n, &sparse_positions(n, 41));
    g.bench_function("or_1M", |b| b.iter(|| black_box(or(&a, &bmp))));
    // Run walk: one visit per run of ones, so a dense bitmap's long
    // one-fills cost a visit each, not a step per point.
    let dense =
        WahBitmap::from_sorted_positions(n, &(0..n).filter(|x| x % 1000 != 0).collect::<Vec<_>>());
    for (name, m) in [
        ("for_each_one_run_1M", &a),
        ("for_each_one_run_dense_1M", &dense),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut ones = 0u64;
                black_box(m.as_ref().for_each_one_run(|_, _, len| ones += len));
                black_box(ones)
            })
        });
    }
    g.finish();
}

fn bench_serialization(c: &mut Criterion) {
    let n = 1_000_000u64;
    let a = WahBitmap::from_sorted_positions(n, &sparse_positions(n, 53));
    let bytes = a.to_bytes();
    let mut g = c.benchmark_group("wah_serde");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("to_bytes", |b| b.iter(|| black_box(a.to_bytes())));
    g.bench_function("from_bytes", |b| {
        b.iter(|| black_box(WahBitmap::from_bytes(&bytes).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_construction, bench_ops, bench_serialization);
criterion_main!(benches);
