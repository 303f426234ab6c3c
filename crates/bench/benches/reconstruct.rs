//! Reconstruct-stage kernels: the run-aware deferred scatter over the
//! query shapes that dominate exploration sessions (wide value
//! constraints, aligned region retrieval, reduced PLoD levels),
//! position filters and membership probes merged against each unit's
//! runs, and the assembly of an answer from the ranks' sorted runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mloc::config::PlodLevel;
use mloc::prelude::*;
use mloc::query::plan::make_plan;
use mloc_datagen::{gts_like_2d, s3d_like_3d};
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
        g.bench_with_input(BenchmarkId::from_parameter(name), q, |b, q| {
            let req = ExecRequest::planned(q, &plan, None);
            b.iter(|| black_box(exec.run(&store, req).unwrap()))
        });
    }
    g.finish();
}

fn bench_position_filter(c: &mut Criterion) {
    // A sorted position filter (the multi-variable fetch path) merged
    // against every unit's runs, at several filter densities.
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
            BenchmarkId::new("merge", format!("1/{every}")),
            &filter,
            |b, f| b.iter(|| black_box(exec.execute_plan(&store, &q, &plan, Some(f)).unwrap())),
        );
    }
    g.finish();
}

/// A membership probe at the repo benchmark's geometry (1024² field,
/// 128² chunks, 100 bins) as its `explore_cold` workload runs one:
/// 4,096 points, one per 256 positions, VC 10 %, positions only, no
/// cache — every byte is read and decoded on each run.
fn bench_membership(c: &mut Criterion) {
    let be = MemBackend::new();
    let n = 1024;
    let values = gts_like_2d(n, n, 42).into_values();
    let config = MlocConfig::builder(vec![n, n])
        .chunk_shape(vec![128, 128])
        .num_bins(100)
        .build();
    build_variable(&be, "bench", "field", &values, &config).unwrap();
    let store = MlocStore::open(&be, "bench", "field").unwrap();
    let mut sorted = values;
    sorted.sort_by(f64::total_cmp);
    let (lo, hi) = (sorted[n * n * 45 / 100], sorted[n * n * 55 / 100]);
    let points = (0..4096u64).map(|i| i * 256 + (i * 97) % 256).collect();
    let q = Query::membership_where(lo, hi, points);
    let plan = make_plan(&store, &q).unwrap();
    let exec = ParallelExecutor::serial();

    let mut g = c.benchmark_group("reconstruct_membership");
    g.bench_with_input(BenchmarkId::from_parameter("vc_10"), &q, |b, q| {
        b.iter(|| black_box(exec.execute_plan(&store, q, &plan, None).unwrap()))
    });
    g.finish();
}

/// Answer assembly at the repo benchmark's geometry (1024² field, 128²
/// chunks, 100 bins): warm SC value queries over 1 % and 10 % of the
/// field, a value filter inside straddled chunks (VC 10 % ∧ SC 1 %),
/// and a 3-D region over eight straddled chunks (1 % of a 96³ field,
/// 32³ chunks, 50 bins), on 1 and 8 ranks. Every block is a cache hit,
/// so what is timed is the rest — reconstruct, the row-major emission
/// of the deferred chunks, and the gather's merge of the ranks' sorted
/// runs (one run, moved, on one rank).
fn bench_assemble(c: &mut Criterion) {
    let be = MemBackend::new();
    let n = 1024;
    let values = gts_like_2d(n, n, 42).into_values();
    let config = MlocConfig::builder(vec![n, n])
        .chunk_shape(vec![128, 128])
        .num_bins(100)
        .build();
    build_variable(&be, "bench", "field", &values, &config).unwrap();
    let field3 = s3d_like_3d(96, 96, 96, 42);
    let config3 = MlocConfig::builder(vec![96, 96, 96])
        .chunk_shape(vec![32, 32, 32])
        .num_bins(50)
        .build();
    build_variable(&be, "bench3", "field", field3.values(), &config3).unwrap();
    let open = |dataset| {
        MlocStore::open(&be, dataset, "field")
            .unwrap()
            .with_cache(Arc::new(BlockCache::with_budget_mb(256)))
    };
    let (store, store3) = (open("bench"), open("bench3"));
    // VC 10 %: the middle decile of the field's values.
    let mut sorted = values;
    sorted.sort_by(f64::total_cmp);
    let (lo, hi) = (sorted[n * n * 45 / 100], sorted[n * n * 55 / 100]);
    let sc = |side: usize| Region::new(vec![(200, 200 + side), (300, 300 + side)]);
    let cases = [
        ("sc_1", &store, Query::values_in(sc(102))),
        ("sc_10", &store, Query::values_in(sc(324))),
        (
            "sc_1_vc",
            &store,
            Query::values_where(lo, hi).with_region(sc(102)),
        ),
        (
            "sc_1_3d",
            &store3,
            Query::values_in(Region::new(vec![(20, 41); 3])),
        ),
    ];

    let mut g = c.benchmark_group("assemble");
    for (name, store, q) in &cases {
        let plan = make_plan(store, q).unwrap();
        for nranks in [1, 8] {
            let exec = ParallelExecutor::new(nranks, CostModel::default());
            // Fill the cache: the timed runs are warm.
            exec.execute_plan(store, q, &plan, None).unwrap();
            g.bench_with_input(
                BenchmarkId::new(name, format!("{nranks}_ranks")),
                q,
                |b, q| b.iter(|| black_box(exec.execute_plan(store, q, &plan, None).unwrap())),
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_reconstruct_paths,
    bench_position_filter,
    bench_membership,
    bench_assemble
);
criterion_main!(benches);
