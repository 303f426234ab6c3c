//! Reconstruct-stage kernels: the run-aware bulk fast path against
//! the per-point general path, over the query shapes that dominate
//! exploration sessions (wide value constraints, aligned region
//! retrieval, reduced PLoD levels).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mloc::config::PlodLevel;
use mloc::prelude::*;
use mloc::query::plan::make_plan;
use mloc_datagen::gts_like_2d;
use mloc_pfs::MemBackend;
use std::hint::black_box;

fn fixture(be: &MemBackend) -> MlocStore<'_> {
    let values = gts_like_2d(128, 128, 17).into_values();
    let config = MlocConfig::builder(vec![128, 128])
        .chunk_shape(vec![32, 32])
        .num_bins(16)
        .build();
    build_variable(be, "bench", "t", &values, &config).unwrap();
    MlocStore::open(be, "bench", "t").unwrap()
}

fn bench_reconstruct_paths(c: &mut Criterion) {
    let be = MemBackend::new();
    let store = fixture(&be);
    let exec = ParallelExecutor::serial();

    let mut queries = vec![
        ("values_full", Query::values_in(Region::full(&[128, 128]))),
        ("values_wide_vc", Query::values_where(-1e9, 1e9)),
        ("positions_wide_vc", Query::region(-1e9, 1e9)),
    ];
    let mut plod2 = Query::values_in(Region::full(&[128, 128]));
    plod2.plod = PlodLevel::new(2).unwrap();
    queries.push(("values_plod2", plod2));

    let mut g = c.benchmark_group("reconstruct");
    for (name, q) in &queries {
        let plan = make_plan(&store, q).unwrap();
        for (path, general) in [("fast", false), ("general", true)] {
            g.bench_with_input(BenchmarkId::new(path, name), q, |b, q| {
                let mut req = ExecRequest::planned(q, &plan, None);
                req.force_general_reconstruct = general;
                b.iter(|| black_box(exec.run(&store, req).unwrap()))
            });
        }
    }
    g.finish();
}

fn bench_position_filter(c: &mut Criterion) {
    // Sorted-slice galloping intersection (the multi-variable fetch
    // path) at several filter densities.
    let be = MemBackend::new();
    let store = fixture(&be);
    let exec = ParallelExecutor::serial();
    let q = Query::values_in(Region::full(&[128, 128]));
    let plan = make_plan(&store, &q).unwrap();
    let n = 128u64 * 128;

    let mut g = c.benchmark_group("reconstruct_position_filter");
    for every in [2u64, 16, 256] {
        let filter: Vec<u64> = (0..n).step_by(every as usize).collect();
        g.bench_with_input(
            BenchmarkId::new("gallop", format!("1/{every}")),
            &filter,
            |b, f| b.iter(|| black_box(exec.execute_plan(&store, &q, &plan, Some(f)).unwrap())),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_reconstruct_paths, bench_position_filter);
criterion_main!(benches);
