//! Reconstruct-stage kernels: the run-aware bulk fast path against
//! the per-point general path, over the query shapes that dominate
//! exploration sessions (wide value constraints, aligned region
//! retrieval, reduced PLoD levels), and the assembly of an answer
//! from the ranks' sorted runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mloc::config::PlodLevel;
use mloc::prelude::*;
use mloc::query::plan::make_plan;
use mloc_datagen::gts_like_2d;
use mloc_pfs::{CostModel, MemBackend};
use std::hint::black_box;
use std::sync::Arc;

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

/// Answer assembly at the repo benchmark's geometry (1024² field, 128²
/// chunks, 100 bins): warm SC value queries over 1 % and 10 % of the
/// field, on 1 and 8 ranks. Every block is a cache hit, so what is
/// timed is the rest — reconstruct, the row-major emission of the
/// deferred chunks, and the gather's merge of the ranks' sorted runs
/// (one run, moved, on one rank).
fn bench_assemble(c: &mut Criterion) {
    let be = MemBackend::new();
    let n = 1024;
    let values = gts_like_2d(n, n, 42).into_values();
    let config = MlocConfig::builder(vec![n, n])
        .chunk_shape(vec![128, 128])
        .num_bins(100)
        .build();
    build_variable(&be, "bench", "field", &values, &config).unwrap();
    let store = MlocStore::open(&be, "bench", "field")
        .unwrap()
        .with_cache(Arc::new(BlockCache::with_budget_mb(256)));

    let mut g = c.benchmark_group("assemble");
    for (name, side) in [("sc_1", 102usize), ("sc_10", 324)] {
        let q = Query::values_in(Region::new(vec![(200, 200 + side), (300, 300 + side)]));
        let plan = make_plan(&store, &q).unwrap();
        for nranks in [1, 8] {
            let exec = ParallelExecutor::new(nranks, CostModel::default());
            // Fill the cache: the timed runs are warm.
            exec.execute_plan(&store, &q, &plan, None).unwrap();
            g.bench_with_input(
                BenchmarkId::new(name, format!("{nranks}_ranks")),
                &q,
                |b, q| b.iter(|| black_box(exec.execute_plan(&store, q, &plan, None).unwrap())),
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_reconstruct_paths,
    bench_position_filter,
    bench_assemble
);
criterion_main!(benches);
