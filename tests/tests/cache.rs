//! Behavioral tests for the decompressed-block cache: concurrency
//! safety under the threaded executor, warm-hit accounting, and the
//! zero-budget degradation guarantee.

use mloc::exec::ParallelExecutor;
use mloc::prelude::*;
use mloc_datagen::{gts_like_2d, QueryGen};
use mloc_pfs::{CostModel, MemBackend};
use std::sync::Arc;

const SHAPE: [usize; 2] = [128, 128];

fn build(be: &MemBackend) -> Vec<f64> {
    let field = gts_like_2d(SHAPE[0], SHAPE[1], 29);
    let config = MlocConfig::builder(SHAPE.to_vec())
        .chunk_shape(vec![32, 32])
        .num_bins(12)
        .build();
    build_variable(be, "cb", "v", field.values(), &config).unwrap();
    field.into_values()
}

#[test]
fn concurrent_overlapping_queries_share_one_cache() {
    let be = MemBackend::new();
    let values = build(&be);

    // Overlapping workload; every thread runs all of it, so after the
    // first touch each block is a hit for everyone else.
    let mut gen = QueryGen::new(values.clone(), SHAPE.to_vec(), 13);
    let mut queries = Vec::new();
    for _ in 0..3 {
        let (lo, hi) = gen.value_constraint(0.2);
        queries.push(Query::values_where(lo, hi));
        queries.push(Query::region(lo, hi));
    }
    queries.push(Query::values_in(Region::new(vec![(16, 112), (0, 64)])));

    let plain = MlocStore::open(&be, "cb", "v").unwrap();
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|q| plain.query_serial(q).unwrap())
        .collect();

    let cache = Arc::new(BlockCache::with_budget_mb(128));
    std::thread::scope(|s| {
        for t in 0..6 {
            let cache = Arc::clone(&cache);
            let be = &be;
            let queries = &queries;
            let reference = &reference;
            s.spawn(move || {
                // Each thread drives the threaded (spmd) executor over
                // its own store view of the shared cache.
                let store = MlocStore::open(be, "cb", "v").unwrap().with_cache(cache);
                let exec = ParallelExecutor::new(4, CostModel::default()).threaded(true);
                for round in 0..3 {
                    for (i, q) in queries.iter().enumerate() {
                        let (res, _) = exec.execute(&store, q).unwrap();
                        assert_eq!(
                            &res, &reference[i],
                            "thread {t} round {round} query {i} diverged"
                        );
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    assert!(stats.hits > 0, "no hits across 6 threads x 3 rounds");
    assert!(stats.insertions > 0);
    assert!(stats.resident_bytes <= 128 << 20);
}

#[test]
fn warm_pass_is_all_hits_and_reads_nothing() {
    let be = MemBackend::new();
    build(&be);
    let store = MlocStore::open(&be, "cb", "v")
        .unwrap()
        .with_cache(Arc::new(BlockCache::with_budget_mb(64)));
    let q = Query::values_where(-1e18, 1e18);

    let (cold_res, cold) = store.query_with_metrics(&q).unwrap();
    assert_eq!(cold.cache_hits, 0);
    assert!(cold.cache_misses > 0);
    assert!(cold.bytes_read > 0);

    let (warm_res, warm) = store.query_with_metrics(&q).unwrap();
    assert_eq!(warm_res, cold_res);
    assert_eq!(warm.cache_misses, 0, "warm pass still missed");
    assert_eq!(
        warm.cache_hits, cold.cache_misses,
        "every probe should now hit"
    );
    assert_eq!(warm.bytes_read, 0, "warm pass touched the backend");
    assert_eq!(
        warm.io_s, 0.0,
        "cached extents must be free in the simulator"
    );
    assert_eq!(warm.bytes_saved, cold.bytes_read);
}

/// FNV-1a over `bytes`, folded into `h`: a stable digest for pins.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One answer as a digest of its positions and value bits.
fn answer_digest(r: &QueryResult) -> String {
    let mut h = fnv(0xCBF2_9CE4_8422_2325, &(r.len() as u64).to_le_bytes());
    for p in r.positions() {
        h = fnv(h, &p.to_le_bytes());
    }
    for v in r.values().unwrap_or(&[]) {
        h = fnv(h, &v.to_bits().to_le_bytes());
    }
    format!("n={} digest={h:016x}", r.len())
}

/// Run the mixed-level session once on `store`, appending to `out`
/// everything that must not depend on how the cache keys its blocks:
/// each answer's bits, `bytes_read`, `bytes_saved`, the `io_s` bits and
/// the full trace of every one-shot query; each ladder step's figures
/// (a ladder's reads are priced into its steps' `io_s`). Returns the
/// session's bytes read and cache misses.
fn mixed_session(store: &MlocStore<'_>, values: &[f64], out: &mut String) -> (u64, u64) {
    use std::fmt::Write;
    let exec = ParallelExecutor::serial();
    let region = Region::new(vec![(20, 75), (40, 100)]);
    let mut gen = QueryGen::new(values.to_vec(), SHAPE.to_vec(), 5);
    let (lo, hi) = gen.value_constraint(0.1);
    let (mut bytes_read, mut misses) = (0, 0);
    let one_shots = [
        (
            "sc plod 2",
            Query::values_in(region.clone()).with_plod(PlodLevel::new(2).unwrap()),
        ),
        ("sc full", Query::values_in(region.clone())),
    ];
    for (label, q) in &one_shots {
        let run = exec.run(store, ExecRequest::new(q)).unwrap();
        let m = &run.metrics;
        writeln!(out, "## {label} {}", answer_digest(&run.result)).unwrap();
        writeln!(
            out,
            "bytes_read={} bytes_saved={} io_s={:016x}",
            m.bytes_read,
            m.bytes_saved,
            m.io_s.to_bits()
        )
        .unwrap();
        for op in run.traces.iter().flatten() {
            writeln!(out, "{} {} {} {}", op.file, op.offset, op.len, op.cached).unwrap();
        }
        bytes_read += m.bytes_read;
        misses += m.cache_misses;
    }
    let mut ladder = exec.progressive(store, &Query::values_in(region)).unwrap();
    ladder.run_to_target_error(1e-6).unwrap();
    writeln!(out, "## ladder {}", answer_digest(ladder.result())).unwrap();
    for s in ladder.steps() {
        writeln!(
            out,
            "step {} level {} bound={:016x} bytes_read={} bytes_saved={} io_s={:016x}",
            s.step,
            s.level.num_parts(),
            s.error_bound.to_bits(),
            s.bytes_read,
            s.bytes_saved,
            s.io_s.to_bits()
        )
        .unwrap();
    }
    bytes_read += ladder.metrics().bytes_read;
    misses += ladder.metrics().cache_misses;

    let q = Query::values_where(lo, hi);
    let run = exec.run(store, ExecRequest::new(&q)).unwrap();
    let m = &run.metrics;
    writeln!(out, "## vc values {}", answer_digest(&run.result)).unwrap();
    writeln!(
        out,
        "bytes_read={} bytes_saved={} io_s={:016x}",
        m.bytes_read,
        m.bytes_saved,
        m.io_s.to_bits()
    )
    .unwrap();
    for op in run.traces.iter().flatten() {
        writeln!(out, "{} {} {} {}", op.file, op.offset, op.len, op.cached).unwrap();
    }
    (bytes_read + m.bytes_read, misses + m.cache_misses)
}

/// A session that mixes precision levels over one region — a level-2
/// query, the same region at full precision, a progressive ladder to
/// 1e-6, a value query — then replays itself warm. Every answer, byte
/// count, `io_s` and trace is pinned: how the cache keys and groups the
/// blocks it holds must not show in any of them. The warm replay reads
/// nothing and misses nothing.
#[test]
fn a_mixed_level_session_is_pinned_cold_and_warm() {
    let be = MemBackend::new();
    let values = build(&be);
    let store = MlocStore::open(&be, "cb", "v")
        .unwrap()
        .with_cache(Arc::new(BlockCache::with_budget_mb(64)));
    let mut got = String::new();
    let (cold_read, _) = mixed_session(&store, &values, &mut got);
    got.push_str("# warm replay\n");
    let (warm_read, warm_misses) = mixed_session(&store, &values, &mut got);
    assert_eq!((warm_read, warm_misses), (0, 0), "the replay must be warm");
    assert_eq!(cold_read, SESSION_COLD_BYTES);
    let digest = fnv(0xCBF2_9CE4_8422_2325, got.as_bytes());
    if digest != SESSION_DIGEST {
        let path = std::env::temp_dir().join("mixed_session.txt");
        std::fs::write(&path, &got).unwrap();
        panic!(
            "session digest {digest:016x} != {SESSION_DIGEST:016x}; rendering in {}",
            path.display()
        );
    }
}

/// Bytes the cold pass of the mixed session reads: 122,609 in format
/// v5, whose bin files held the chunk summaries and whose plans kept
/// units no hit could be in; 108,998 in format v6, whose unit parts
/// were self-describing streams.
const SESSION_COLD_BYTES: u64 = 88_922;
/// Digest of the whole rendering of both passes (re-pinned for format
/// v7; every answer digest in the rendering is unchanged).
const SESSION_DIGEST: u64 = 0xC08A_16E6_0A21_CCCF;

#[test]
fn zero_budget_cache_degrades_to_uncached_metrics() {
    let be = MemBackend::new();
    let values = build(&be);
    let plain = MlocStore::open(&be, "cb", "v").unwrap();
    let cache = Arc::new(BlockCache::with_budget_bytes(0));
    let starved = MlocStore::open(&be, "cb", "v")
        .unwrap()
        .with_cache(Arc::clone(&cache));

    let mut gen = QueryGen::new(values, SHAPE.to_vec(), 31);
    for i in 0..4 {
        let (lo, hi) = gen.value_constraint(0.15);
        for q in [
            Query::region(lo, hi),
            Query::values_where(lo, hi),
            Query::values_in(Region::new(gen.region(0.1))),
        ] {
            let (r0, m0) = plain.query_with_metrics(&q).unwrap();
            let (r1, m1) = starved.query_with_metrics(&q).unwrap();
            assert_eq!(r1, r0, "query {i}: results diverged");
            // Every I/O-side metric must be exactly the uncached value;
            // only the probe counters may differ (misses are counted).
            assert_eq!(m1.bytes_read, m0.bytes_read, "query {i}");
            assert_eq!(m1.index_bytes, m0.index_bytes, "query {i}");
            assert_eq!(m1.data_bytes, m0.data_bytes, "query {i}");
            assert_eq!(m1.seeks, m0.seeks, "query {i}");
            assert_eq!(m1.io_s, m0.io_s, "query {i}: simulated io drifted");
            assert_eq!(m1.cache_hits, 0, "query {i}: hit with a 0-byte budget");
            assert_eq!(m1.bytes_saved, 0, "query {i}");
            assert!(
                m1.cache_misses > 0,
                "query {i}: probes should count as misses"
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(
        stats.insertions, 0,
        "0-byte budget must reject every insert"
    );
    assert_eq!(stats.resident_bytes, 0);
    assert_eq!(stats.resident_blocks, 0);
    assert_eq!(stats.hits, 0);
}
