//! Integration tests for the query-path observability layer: replay
//! and threaded execution must produce structurally identical profiles,
//! and profile spans/counters must reconcile exactly with the
//! [`QueryMetrics`] the same execution returns. One fixed session also
//! pins the `hotpath.copy_bytes` counter.
//!
//! These tests run WITHOUT a block cache unless stated otherwise: a
//! shared cache makes hit/miss counts depend on which rank touches a
//! shared block first, which is scheduling-dependent in threaded mode.

use mloc::obs::Label;
use mloc::prelude::*;
use mloc_pfs::{CostModel, MemBackend};

/// Plan and run `q` on a profiled executor.
fn profiled(
    exec: &ParallelExecutor,
    store: &MlocStore<'_>,
    q: &Query,
) -> (QueryResult, mloc::QueryMetrics, mloc::obs::Profile) {
    let out = exec.run(store, ExecRequest::new(q)).unwrap();
    (out.result, out.metrics, out.profile)
}

fn fixture(be: &MemBackend) -> MlocStore<'_> {
    let values: Vec<f64> = (0..4096).map(|i| ((i * 53) % 4096) as f64 * 0.5).collect();
    let config = MlocConfig::builder(vec![64, 64])
        .chunk_shape(vec![16, 16])
        .num_bins(8)
        .build();
    build_variable(be, "obs", "v", &values, &config).unwrap();
    MlocStore::open(be, "obs", "v").unwrap()
}

#[test]
fn replay_and_threaded_profiles_are_identical() {
    let be = MemBackend::new();
    let store = fixture(&be);
    let q = Query::region(100.0, 1500.0);

    let replay = ParallelExecutor::new(4, CostModel::default()).profiled(true);
    let threaded = replay.clone().threaded(true);
    let (res_r, m_r, p_r) = profiled(&replay, &store, &q);
    let (res_t, m_t, p_t) = profiled(&threaded, &store, &q);

    assert_eq!(res_r, res_t);
    // Same span tree, same per-span counts, same counter values, same
    // histogram buckets — only the measured floats may differ.
    assert_eq!(p_r.structure(), p_t.structure());
    assert_eq!(p_r.counters, p_t.counters);
    // Byte accounting is identical too (integers, not timings).
    assert_eq!(m_r.bytes_read, m_t.bytes_read);
    assert_eq!(m_r.index_bytes, m_t.index_bytes);
    assert_eq!(m_r.data_bytes, m_t.data_bytes);
    assert_eq!(m_r.seeks, m_t.seeks);

    // With every bin dealt to several ranks the two modes still agree,
    // down to each rank's full read trace: each rank reads the fixed
    // blocks of the bins it was dealt itself.
    let replay = ParallelExecutor::new(8, CostModel::default()).profiled(true);
    let threaded = replay.clone().threaded(true);
    let r = replay.run(&store, ExecRequest::new(&q)).unwrap();
    let t = threaded.run(&store, ExecRequest::new(&q)).unwrap();
    assert_eq!(r.result, t.result);
    assert_eq!(r.traces, t.traces);
    assert_eq!(r.profile.structure(), t.profile.structure());
    assert_eq!(r.profile.counters, t.profile.counters);
    assert_eq!(r.metrics.per_rank_io, t.metrics.per_rank_io);
}

#[test]
fn profile_spans_reconcile_with_metrics_exactly() {
    let be = MemBackend::new();
    let store = fixture(&be);
    let q = Query::region(0.0, 2047.0);
    let exec = ParallelExecutor::new(3, CostModel::default()).profiled(true);
    let (_, m, p) = profiled(&exec, &store, &q);

    // The stage spans carry the very same floats as the metrics: the
    // engine records each measured interval into both, and the I/O
    // span is folded from the same per-rank simulator output.
    let io = p.span(&["io"]).expect("io span");
    assert_eq!(io.max_rank_seconds, m.io_s);
    let dec = p.span(&["rank", "decompress"]).expect("decompress span");
    assert_eq!(dec.max_rank_seconds, m.decompress_s);
    let rec = p.span(&["rank", "reconstruct"]).expect("reconstruct span");
    assert_eq!(rec.max_rank_seconds, m.reconstruct_s);
    // Span sums equal the per-rank metric sums.
    assert_eq!(io.seconds, m.per_rank_io.iter().sum::<f64>());

    // Byte/seek counters mirror the metrics.
    assert_eq!(p.counter("io.bytes", Label::None), m.bytes_read);
    assert_eq!(p.counter("io.seeks", Label::None), m.seeks);
    assert_eq!(p.counter_total("bin.index.bytes"), m.index_bytes);
    assert_eq!(p.counter_total("bin.data.bytes"), m.data_bytes);
    assert_eq!(p.counter("plan.bins", Label::None), m.bins_touched as u64);
    assert_eq!(
        p.counter("plan.chunks", Label::None),
        m.chunks_touched as u64
    );
    // Per-rank byte attribution sums back to the total.
    assert_eq!(p.counter_total("rank.io.bytes"), m.bytes_read);

    // The io sub-spans are *device-service* seconds (striping lets them
    // exceed the wall-clock `io` span; queueing lets them fall below),
    // so they don't sum to the span — but they do follow the cost model
    // exactly: every charged seek/open costs its model constant.
    let model = exec.cost_model();
    let seek_span = p.span(&["io", "seek"]).expect("seek sub-span");
    assert!(
        (seek_span.seconds - m.seeks as f64 * model.seek_s).abs() < 1e-9,
        "seek service time {} != {} seeks at {}s",
        seek_span.seconds,
        m.seeks,
        model.seek_s
    );
    let open_span = p.span(&["io", "open"]).expect("open sub-span");
    let opens = p.counter("io.opens", Label::None);
    assert!((open_span.seconds - opens as f64 * model.open_s).abs() < 1e-9);
    assert!(
        p.span(&["io", "transfer"])
            .expect("transfer sub-span")
            .seconds
            > 0.0
    );

    // Plan + gather bookkeeping spans appear exactly once.
    assert_eq!(p.span(&["plan"]).expect("plan span").count, 1);
    assert_eq!(p.span(&["gather"]).expect("gather span").count, 1);
    assert_eq!(p.span(&["rank"]).expect("rank span").count, 3);
}

#[test]
fn cache_counters_match_metrics_in_serial_mode() {
    let be = MemBackend::new();
    let mut store = fixture(&be);
    store.set_cache(Some(std::sync::Arc::new(BlockCache::with_budget_mb(64))));
    let q = Query::region(200.0, 900.0);

    // Cold pass fills the cache, warm pass hits it.
    let exec = ParallelExecutor::serial().profiled(true);
    profiled(&exec, &store, &q);
    let (_, m, p) = profiled(&exec, &store, &q);

    assert!(m.cache_hits > 0, "warm pass should hit the cache");
    assert_eq!(p.counter("cache.hits", Label::None), m.cache_hits);
    assert_eq!(p.counter("cache.misses", Label::None), m.cache_misses);
    assert_eq!(p.counter("cache.bytes_saved", Label::None), m.bytes_saved);
    // Warm pass inserts nothing new; the resident footprint is visible.
    assert_eq!(p.counter("cache.insertions", Label::None), 0);
    assert!(p.counter("cache.resident_bytes", Label::None) > 0);
}

#[test]
fn integrity_checks_have_their_own_span() {
    let be = MemBackend::new();
    let mut store = fixture(&be);
    store.set_cache(Some(std::sync::Arc::new(BlockCache::with_budget_mb(64))));
    let q = Query::region(0.0, 2047.0);
    let exec = ParallelExecutor::serial().profiled(true);
    let (_, _, cold) = profiled(&exec, &store, &q);
    let (_, _, warm) = profiled(&exec, &store, &q);

    // One `verify` per read span, nested inside it (so the parent's
    // self time is the read itself), cold or warm: the profile's shape
    // must not depend on what the cache absorbed.
    for stage in ["index-read", "data-read"] {
        for (pass, p) in [("cold", &cold), ("warm", &warm)] {
            let read = p.span(&["rank", stage]).expect(stage);
            let verify = p.span(&["rank", stage, "verify"]).expect("verify span");
            assert_eq!(verify.count, read.count, "{pass} {stage}");
            assert!(verify.seconds <= read.seconds, "{pass} {stage}");
        }
        // Every extent of the cold pass was checksummed; cache hits
        // skip the check, so the warm pass spends nothing there.
        assert!(cold.span(&["rank", stage, "verify"]).unwrap().seconds > 0.0);
        assert_eq!(warm.span(&["rank", stage, "verify"]).unwrap().seconds, 0.0);
    }
    let spans = |p: &mloc::obs::Profile| -> Vec<String> {
        let all = p.structure();
        let rank = all.lines().filter(|l| l.starts_with("span rank"));
        rank.map(String::from).collect()
    };
    assert_eq!(spans(&cold), spans(&warm));
}

/// DESIGN §9's zero-copy discipline as a number: `hotpath.copy_bytes`
/// over one pass of a fixed 22-query session (128² GTS-like field, 32²
/// chunks, 16 bins, seed 42; ten value scans, ten region scans and a
/// spatial value query at full and at 2-byte precision) on a one-rank
/// executor with no cache.
///
/// Two places are allowed to materialize bytes, and the counter is
/// their sum: the decoder, once per unit part it decompresses (the
/// decoded block is new bytes by construction), and PLoD assembly,
/// 8 bytes per kept point — a point of a data-bearing unit inside the
/// query's region. Fetches, cache inserts, fuser fan-out, index views,
/// bitmap walks and whole-value (non-PLoD) reconstruction copy nothing.
/// A larger figure therefore means a new copy on the hot path — decide
/// it and re-pin it here; it is never noise.
///
/// The two spatial value queries cover (16..112)², 9,216 points in 16
/// chunks. While a chunk the region straddles assembled its units
/// whole, each of them assembled all 16,384 points of its chunks, and
/// the pin was 2 × (16,384 − 9,216) × 8 = 114,688 bytes higher:
/// 1,310,752. Until the planner culled with the chunk summaries, the
/// units of straddled chunks whose points all lie outside the region
/// were decompressed too, and kept nothing: 2,475 bytes more,
/// 1,196,064. Until format v7 read a raw part in place, every part was
/// decoded into a fresh buffer: 440,899 bytes more, 1,193,589.
#[test]
fn hot_path_copy_bytes_of_a_fixed_session_are_pinned() {
    let shape = vec![128, 128];
    let field = mloc_datagen::gts_like_2d(shape[0], shape[1], 42);
    let config = MlocConfig::builder(shape.clone())
        .chunk_shape(vec![32, 32])
        .num_bins(16)
        .build();
    let be = MemBackend::new();
    build_variable(&be, "obs", "v", field.values(), &config).unwrap();
    let store = MlocStore::open(&be, "obs", "v").unwrap();

    let mut gen = mloc_datagen::QueryGen::new(field.values().to_vec(), shape.clone(), 42);
    let mut session = Vec::new();
    for _ in 0..10 {
        let (lo, hi) = gen.value_constraint(0.15);
        session.push(Query::values_where(lo, hi));
        session.push(Query::region(lo, hi));
    }
    let region = Region::new(shape.iter().map(|&e| (e / 8, e * 7 / 8)).collect());
    session.push(Query::values_in(region.clone()));
    session.push(Query::values_in(region).with_plod(PlodLevel::new(2).unwrap()));

    let exec = ParallelExecutor::new(1, CostModel::default()).profiled(true);
    let copied: u64 = session
        .iter()
        .map(|q| {
            profiled(&exec, &store, q)
                .2
                .counter_total("hotpath.copy_bytes")
        })
        .sum();
    assert_eq!(copied, 752_690);
}

/// On the benchmark's geometry in small (256² GTS-like field, 32²
/// chunks, 50 bins), a warm SC 1 % value op over four straddled chunks
/// assembles exactly its in-region points: every part is a cache hit,
/// so nothing is decompressed and `hotpath.copy_bytes` is 8 bytes per
/// point of the answer. Assembling a straddled chunk's units whole
/// would count every point of the four chunks.
#[test]
fn a_warm_straddling_op_assembles_only_its_region() {
    let n = 256;
    let values = mloc_datagen::gts_like_2d(n, n, 11).into_values();
    let config = MlocConfig::builder(vec![n, n])
        .chunk_shape(vec![32, 32])
        .num_bins(50)
        .build();
    let be = MemBackend::new();
    build_variable(&be, "obs", "v", &values, &config).unwrap();
    let mut store = MlocStore::open(&be, "obs", "v").unwrap();
    store.set_cache(Some(std::sync::Arc::new(BlockCache::with_budget_mb(64))));
    let q = Query::values_in(Region::new(vec![(50, 76), (115, 141)]));
    let exec = ParallelExecutor::new(1, CostModel::default()).profiled(true);
    let (cold, _, _) = profiled(&exec, &store, &q);
    let (warm, m, p) = profiled(&exec, &store, &q);
    assert_eq!(warm, cold);
    assert_eq!(m.cache_misses, 0, "the op must be fully warm");
    assert_eq!(warm.len(), 26 * 26);
    assert_eq!(p.counter_total("hotpath.copy_bytes"), 8 * warm.len() as u64);
}

#[test]
fn per_codec_decompress_units_are_counted() {
    let be = MemBackend::new();
    let store = fixture(&be);
    let q = Query::region(0.0, 2047.0);
    let (_, _, p) = profiled(&ParallelExecutor::serial().profiled(true), &store, &q);
    assert!(p.counter("decompress.units", Label::Name("deflate")) > 0);
    // Per-bin unit counts sum to the planned unit total.
    assert_eq!(
        p.counter_total("bin.units"),
        p.counter("plan.units", Label::None)
    );
}

#[test]
fn profiled_and_unprofiled_executions_agree() {
    // Profiling must be an observer: same results, same byte
    // accounting, whether the collectors are live or no-op.
    let be = MemBackend::new();
    let store = fixture(&be);
    let q = Query::region(100.0, 300.0);
    let exec = ParallelExecutor::serial();
    let plan = mloc::query::plan::make_plan(&store, &q).unwrap();
    let (res_a, m_a) = exec.execute_plan(&store, &q, &plan, None).unwrap();
    let out = exec
        .profiled(true)
        .run(&store, ExecRequest::planned(&q, &plan, None))
        .unwrap();
    let (res_b, m_b, p) = (out.result, out.metrics, out.profile);
    assert_eq!(res_a, res_b);
    assert_eq!(m_a.bytes_read, m_b.bytes_read);
    assert_eq!(m_a.seeks, m_b.seeks);
    assert!(!p.is_empty());
    // A pre-built plan skips planning, so no plan span exists.
    assert!(p.span(&["plan"]).is_none());
}
