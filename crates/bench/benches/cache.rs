//! Session replay with and without the decompressed-block cache.
//!
//! An exploratory session replays overlapping queries — the same
//! region at shifting value windows and precision levels — exactly the
//! workload the cache targets. "cold" runs the session against a store
//! with no cache; "warm" runs it against a store whose cache was
//! primed by one prior replay, so every block is a hit.
//!
//! Beyond wall-clock, the setup verifies the acceptance bar: the warm
//! replay's summed `io_s + decompress_s` must be at least 5x below the
//! cold replay's, with byte-identical results and not one cache miss.
//! The session asks for a region at PLoD level 2 before asking for it
//! at full precision, so the priming pass extends each unit's cached
//! prefix rather than only reusing it.

use criterion::{criterion_group, criterion_main, Criterion};
use mloc::prelude::*;
use mloc_datagen::{gts_like_2d, QueryGen};
use mloc_pfs::MemBackend;
use std::hint::black_box;
use std::sync::Arc;

const SHAPE: [usize; 2] = [256, 256];

fn build(be: &MemBackend) -> Vec<f64> {
    let field = gts_like_2d(SHAPE[0], SHAPE[1], 23);
    let config = MlocConfig::builder(SHAPE.to_vec())
        .chunk_shape(vec![64, 64])
        .num_bins(16)
        .build();
    build_variable(be, "sess", "v", field.values(), &config).unwrap();
    field.into_values()
}

/// The replayed session: overlapping value windows, a spatial window
/// at two precision levels (coarse first), and a positions-only region
/// query.
fn session(values: &[f64]) -> Vec<Query> {
    let mut gen = QueryGen::new(values.to_vec(), SHAPE.to_vec(), 7);
    let mut queries = Vec::new();
    for _ in 0..3 {
        let (lo, hi) = gen.value_constraint(0.15);
        queries.push(Query::values_where(lo, hi));
        queries.push(Query::region(lo, hi));
    }
    let region = Region::new(vec![(32, 160), (64, 224)]);
    queries.push(Query::values_in(region.clone()).with_plod(PlodLevel::new(2).unwrap()));
    queries.push(Query::values_in(region));
    queries
}

/// Run the whole session, returning results plus summed io+decompress
/// and cache misses.
fn replay(store: &MlocStore<'_>, queries: &[Query]) -> (Vec<QueryResult>, f64, u64) {
    let mut results = Vec::with_capacity(queries.len());
    let (mut cost, mut misses) = (0.0, 0);
    for q in queries {
        let (res, m) = store.query_with_metrics(q).unwrap();
        cost += m.io_s + m.decompress_s;
        misses += m.cache_misses;
        results.push(res);
    }
    (results, cost, misses)
}

fn bench_session_replay(c: &mut Criterion) {
    let be = MemBackend::new();
    let values = build(&be);
    let queries = session(&values);

    let cold_store = MlocStore::open(&be, "sess", "v").unwrap();
    let warm_store = MlocStore::open(&be, "sess", "v")
        .unwrap()
        .with_cache(Arc::new(BlockCache::with_budget_mb(256)));

    // Acceptance check (outside the timed loops): prime the cache with
    // one replay, then compare simulated+measured cost per replay.
    let (cold_res, cold_cost, _) = replay(&cold_store, &queries);
    let _ = replay(&warm_store, &queries); // priming pass
    let (warm_res, warm_cost, warm_misses) = replay(&warm_store, &queries);
    assert_eq!(cold_res, warm_res, "cached replay changed results");
    assert_eq!(warm_misses, 0, "the primed replay missed the cache");
    assert!(
        warm_cost * 5.0 <= cold_cost,
        "warm replay not 5x cheaper: cold {cold_cost:.6}s vs warm {warm_cost:.6}s"
    );
    println!(
        "session of {} queries: cold io+decompress {:.4}s, warm {:.6}s ({:.0}x)",
        queries.len(),
        cold_cost,
        warm_cost,
        cold_cost / warm_cost.max(1e-12)
    );

    let mut g = c.benchmark_group("session_replay");
    g.sample_size(10);
    g.bench_function("cold_no_cache", |b| {
        b.iter(|| black_box(replay(&cold_store, &queries)))
    });
    g.bench_function("warm_cached", |b| {
        b.iter(|| black_box(replay(&warm_store, &queries)))
    });
    // Cold *caching* pass: every query misses then inserts — the price
    // of filling the cache relative to not having one at all.
    g.bench_function("cold_filling_cache", |b| {
        b.iter(|| {
            let store = MlocStore::open(&be, "sess", "v")
                .unwrap()
                .with_cache(Arc::new(BlockCache::with_budget_mb(256)));
            black_box(replay(&store, &queries))
        })
    });
    // Same warm replay with profiling on: the gap to `warm_cached` is
    // the live-collector overhead on this session.
    let profiled = ParallelExecutor::serial().profiled(true);
    g.bench_function("warm_cached_profiled", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(profiled.run(&warm_store, ExecRequest::new(q)).unwrap());
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_session_replay);
criterion_main!(benches);
