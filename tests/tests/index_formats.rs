//! Differential tests for the two index formats: a v1 dataset
//! (produced by downgrading a v2 build in place) must answer every
//! query byte-identically to the v2 dataset it came from, in every
//! execution mode — serial, threaded, cached cold/warm, and fused.
//! Membership queries are part of the workload, and are additionally
//! checked against the general reconstruction path and the naive scan.
//! A second, banded field pins how often the v2 summary level and the
//! rank/select directories actually fire inside a query, and what the
//! directories cost in the built files.

use mloc::exec::ParallelExecutor;
use mloc::index::{downgrade_variable_to_v1, BinIndex};
use mloc::prelude::*;
use mloc_bitmap::WahRef;
use mloc_compress::CodecKind;
use mloc_datagen::{gts_like_2d, QueryGen};
use mloc_pfs::{CostModel, MemBackend, StorageBackend};
use std::sync::Arc;

const SHAPE: [usize; 2] = [96, 96];
const DS: &str = "fmt";
const VAR: &str = "v";

fn build(be: &MemBackend) -> Vec<f64> {
    let field = gts_like_2d(SHAPE[0], SHAPE[1], 41);
    let config = MlocConfig::builder(SHAPE.to_vec())
        .chunk_shape(vec![24, 24])
        .num_bins(10)
        .codec(CodecKind::Deflate)
        .build();
    build_variable(be, DS, VAR, field.values(), &config).unwrap();
    field.into_values()
}

const BANDED_SIDE: usize = 256;
const BANDED_BINS: usize = 16;

/// A field on which both v2 index levels matter. 4x4 chunk grid: ten
/// chunks are one flat band (value 10), four are noise in [0, 1), and
/// two are noise in [20, 21). The flat band makes the equal-frequency
/// edges collapse onto its value, so a single *interior* bin holds all
/// ten band chunks with all-ones bitmaps — the chunk-summary level can
/// answer for most of the grid without reading a bitmap. The noisy
/// chunks spread across the low/high bins with literal-heavy bitmaps
/// long enough to earn rank/select samples.
fn build_banded(be: &MemBackend) -> Vec<f64> {
    let chunk = BANDED_SIDE / 4;
    let mut rng: u64 = 42 | 1;
    let mut noise = |base: f64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        base + (rng >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut values: Vec<f64> = Vec::with_capacity(BANDED_SIDE * BANDED_SIDE);
    for row in 0..BANDED_SIDE {
        for col in 0..BANDED_SIDE {
            values.push(match (row / chunk) * 4 + col / chunk {
                1 | 5 | 9 | 13 => noise(0.0),
                7 | 15 => noise(20.0),
                _ => 10.0,
            });
        }
    }
    let config = MlocConfig::builder(vec![BANDED_SIDE, BANDED_SIDE])
        .chunk_shape(vec![chunk, chunk])
        .num_bins(BANDED_BINS)
        .codec(CodecKind::Deflate)
        .build();
    build_variable(be, DS, VAR, &values, &config).unwrap();
    values
}

/// The band region sits on exact bin edges, so every bin it touches is
/// aligned and every chunk it touches is full.
fn band_region(store: &MlocStore<'_>) -> Query {
    let bounds = store.bins().bounds();
    Query::region(bounds[BANDED_BINS - 2], bounds[BANDED_BINS - 1])
}

/// Scans plus membership probes, with overlap so cached modes see both
/// cold and warm blocks.
fn workload(values: &[f64]) -> Vec<Query> {
    let mut gen = QueryGen::new(values.to_vec(), SHAPE.to_vec(), 11);
    let n = values.len() as u64;
    let mut queries = Vec::new();
    for i in 0..3 {
        let (lo, hi) = gen.value_constraint(0.08 + 0.04 * i as f64);
        queries.push(Query::region(lo, hi));
        queries.push(Query::values_where(lo, hi));
        queries.push(Query::values_in(Region::new(gen.region(0.1))));
        queries.push(Query::membership((0..n).step_by(7 + i).collect()));
        queries.push(Query::membership_where(lo, hi, (0..n).step_by(5).collect()));
        queries.push(Query::membership_where(lo, hi, (0..n).step_by(3).collect()).with_values());
    }
    queries
}

fn bitwise_eq(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert_eq!(a.positions(), b.positions(), "{ctx}: positions");
    match (a.values(), b.values()) {
        (None, None) => {}
        (Some(av), Some(bv)) => {
            assert_eq!(av.len(), bv.len(), "{ctx}: value count");
            for (x, y) in av.iter().zip(bv) {
                assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: value bits");
            }
        }
        _ => panic!("{ctx}: one side has values, the other does not"),
    }
}

/// Two backends with the same logical data: a v2 build and its
/// in-place v1 downgrade. The build is deterministic, so any observable
/// difference between the two is the index format's doing.
fn v2_and_v1() -> (MemBackend, MemBackend, Vec<f64>) {
    v2_and_v1_of(build, 10)
}

fn v2_and_v1_of(
    build: fn(&MemBackend) -> Vec<f64>,
    bins: usize,
) -> (MemBackend, MemBackend, Vec<f64>) {
    let v2 = MemBackend::new();
    let values = build(&v2);
    let v1 = MemBackend::new();
    build(&v1);
    let rewritten = downgrade_variable_to_v1(&v1, DS, VAR).unwrap();
    assert_eq!(rewritten, bins);
    // Sanity: the two formats really differ on disk (version byte).
    let name = format!("{DS}/{VAR}/bin0000.idx");
    assert_eq!(v1.read(&name, 0, 5).unwrap()[4], 1);
    assert_eq!(v2.read(&name, 0, 5).unwrap()[4], 2);
    (v2, v1, values)
}

#[test]
fn v1_and_v2_reads_are_byte_identical_in_every_mode() {
    let (v2, v1, values) = v2_and_v1();
    let queries = workload(&values);

    let plain2 = MlocStore::open(&v2, DS, VAR).unwrap();
    let plain1 = MlocStore::open(&v1, DS, VAR).unwrap();
    let cached2 = MlocStore::open(&v2, DS, VAR)
        .unwrap()
        .with_cache(Arc::new(BlockCache::with_budget_mb(64)));
    let cached1 = MlocStore::open(&v1, DS, VAR)
        .unwrap()
        .with_cache(Arc::new(BlockCache::with_budget_mb(64)));
    let fuser2 = Arc::new(ExtentFuser::with_window_mb(4));
    let fuser1 = Arc::new(ExtentFuser::with_window_mb(4));
    let fused2 = MlocStore::open(&v2, DS, VAR)
        .unwrap()
        .with_fusion(Arc::clone(&fuser2));
    let fused1 = MlocStore::open(&v1, DS, VAR)
        .unwrap()
        .with_fusion(Arc::clone(&fuser1));
    let threaded = ParallelExecutor::new(4, CostModel::default()).threaded(true);

    for (i, q) in queries.iter().enumerate() {
        let reference = plain2.query_serial(q).unwrap();
        let r1 = plain1.query_serial(q).unwrap();
        bitwise_eq(&r1, &reference, &format!("query {i}: serial v1 vs v2"));

        let (t2, _) = threaded.execute(&plain2, q).unwrap();
        let (t1, _) = threaded.execute(&plain1, q).unwrap();
        bitwise_eq(&t2, &reference, &format!("query {i}: threaded v2"));
        bitwise_eq(&t1, &reference, &format!("query {i}: threaded v1"));

        for (tag, store) in [("v2", &cached2), ("v1", &cached1)] {
            let (cold, _) = store.query_with_metrics(q).unwrap();
            bitwise_eq(&cold, &reference, &format!("query {i}: cached cold {tag}"));
            let (warm, m) = store.query_with_metrics(q).unwrap();
            bitwise_eq(&warm, &reference, &format!("query {i}: cached warm {tag}"));
            assert!(m.cache_hits > 0, "query {i}: warm {tag} pass had no hits");
        }

        for (tag, store, fuser) in [("v2", &fused2, &fuser2), ("v1", &fused1, &fuser1)] {
            fuser.begin_window();
            let r = store.query_serial(q).unwrap();
            bitwise_eq(&r, &reference, &format!("query {i}: fused {tag}"));
        }
    }
}

#[test]
fn membership_matches_scan_and_general_path_on_both_formats() {
    let (v2, v1, values) = v2_and_v1();
    let n = values.len() as u64;
    let points: Vec<u64> = (0..n).step_by(11).collect();
    let mut gen = QueryGen::new(values.clone(), SHAPE.to_vec(), 23);
    let (lo, hi) = gen.value_constraint(0.3);

    let want: Vec<u64> = points
        .iter()
        .copied()
        .filter(|&p| {
            let v = values[p as usize];
            v >= lo && v < hi
        })
        .collect();
    let q = Query::membership_where(lo, hi, points.clone()).with_values();

    for (tag, be) in [("v2", &v2), ("v1", &v1)] {
        let store = MlocStore::open(be, DS, VAR).unwrap();
        let fast = store.query_serial(&q).unwrap();
        assert_eq!(fast.positions(), &want[..], "{tag}: naive mismatch");
        for (&p, &v) in fast.positions().iter().zip(fast.values().unwrap()) {
            assert_eq!(v.to_bits(), values[p as usize].to_bits(), "{tag}: value");
        }
        let mut req = ExecRequest::new(&q);
        req.force_general_reconstruct = true;
        let general = ParallelExecutor::serial().run(&store, req).unwrap();
        bitwise_eq(
            &general.result,
            &fast,
            &format!("{tag}: general vs probe path"),
        );
    }
}

#[test]
fn plain_membership_is_answered_from_the_index_alone() {
    let (v2, v1, values) = v2_and_v1();
    let points: Vec<u64> = (0..values.len() as u64).step_by(13).collect();
    let membership = Query::membership(points.clone());
    for (tag, be) in [("v2", &v2), ("v1", &v1)] {
        let store = MlocStore::open(be, DS, VAR).unwrap();
        let (res, m) = store.query_with_metrics(&membership).unwrap();
        assert_eq!(res.positions(), &points[..], "{tag}: membership positions");
        assert_eq!(m.data_bytes, 0, "{tag}: membership touched data");
        assert!(m.index_bytes > 0, "{tag}: no index reads recorded");
    }

    // So is a region query whose bounds are bin edges.
    let (v2, v1, values) = v2_and_v1_of(build_banded, BANDED_BINS);
    for (tag, be) in [("v2", &v2), ("v1", &v1)] {
        let store = MlocStore::open(be, DS, VAR).unwrap();
        let q = band_region(&store);
        let (res, m) = store.query_with_metrics(&q).unwrap();
        let (lo, hi) = q.vc.unwrap();
        let want = values.iter().filter(|&&v| v >= lo && v < hi).count();
        assert_eq!(res.positions().len(), want, "{tag}: band positions");
        assert_eq!(m.data_bytes, 0, "{tag}: aligned region touched data");
        assert!(m.index_bytes > 0, "{tag}: no index reads recorded");
    }
}

/// The only gates on the summary level and the rank directories
/// actually firing inside a query. The counts are exact functions of
/// the banded field, the planner and the index format: a change means
/// one of those changed (re-derive and say why), never noise.
#[test]
fn summaries_skip_and_directories_probe_inside_queries() {
    let (v2, v1, values) = v2_and_v1_of(build_banded, BANDED_BINS);
    let store2 = MlocStore::open(&v2, DS, VAR).unwrap();
    let store1 = MlocStore::open(&v1, DS, VAR).unwrap();
    let n = values.len() as u64;
    // The band region, a partial noisy region, a data-touching scan,
    // and the two membership flavors.
    let pass = [
        band_region(&store2),
        Query::region(0.1, 0.35),
        Query::values_where(0.2, 0.6),
        Query::membership((0..n).step_by(13).collect()),
        Query::membership_where(0.25, 0.75, (0..n).step_by(7).collect()).with_values(),
    ];
    let exec = ParallelExecutor::new(1, CostModel::default()).profiled(true);
    let profile_of = |store: &MlocStore<'_>| {
        let runs = pass.iter().map(|q| exec.run(store, ExecRequest::new(q)));
        mloc::obs::Profile::merge(runs.map(|out| out.unwrap().profile))
    };
    let (p2, p1) = (profile_of(&store2), profile_of(&store1));
    assert_eq!(p2.counter_total("index.summary_skips"), 20);
    assert_eq!(p2.counter_total("index.summary_hits"), 51);
    assert_eq!(p2.counter_total("index.rank_calls"), 10_965);
    assert_eq!(
        p1.counter_total("index.summary_skips"),
        0,
        "v1 stores no summaries"
    );

    // What the directories cost in the built v2 files, against the WAH
    // bytes they accelerate (the bitmap-level bound is wah.rs's
    // `dir_overhead_is_bounded`).
    let (mut wah, mut dir) = (0usize, 0usize);
    let mut scratch: Vec<u32> = Vec::new();
    for bin in 0..BANDED_BINS {
        let name = mloc::fileorg::index_file(DS, VAR, bin);
        let raw = v2.read(&name, 0, v2.len(&name).unwrap()).unwrap();
        let idx = BinIndex::decode_header(&raw).unwrap();
        for (rank, entry) in idx.chunks.iter().enumerate() {
            let start = idx.bitmap_file_offset(rank) as usize;
            let extent = &raw[start..start + entry.bitmap_len as usize];
            if !extent.is_empty() {
                let (_, used) = WahRef::decode_into(extent, &mut scratch).unwrap();
                wah += used;
                dir += extent.len() - used;
            }
        }
    }
    assert_eq!((dir, wah), (480, 11_232));
    assert!(
        dir * 20 <= wah,
        "rank/select directories exceed 5% of bitmap bytes"
    );
}
