//! Format v6, as `mloc upgrade`'s input. Nothing writes v6 any more,
//! and nothing but the upgrade reads it: `tests/golden/v6_dataset` is
//! a dataset written once, by a CLI this tree no longer has. It
//! upgrades, read-only off its directory and from an in-memory copy,
//! to a store byte-identical, file for file, to a fresh (v7) build of
//! the same field, and answers every query identically to it in every
//! execution mode — serial, threaded at 4 and 8 ranks, cached
//! cold/warm, and fused. Membership queries are part of the workload,
//! and are additionally checked against the naive scan. A second,
//! banded field pins how often the summary level and the membership
//! probes actually fire inside a query, and what the stored run lists
//! cost in the built files against the WAH streams of format v3.

use mloc::dataset::Dataset;
use mloc::exec::ParallelExecutor;
use mloc::prelude::*;
use mloc::upgrade::upgrade;
use mloc_bitmap::{RunListRef, WahBitmap};
use mloc_compress::CodecKind;
use mloc_datagen::{gts_like_2d, QueryGen};
use mloc_integration::{fixture, fixture_dir, load_fixture};
use mloc_pfs::{CostModel, MemBackend, StorageBackend};
use std::sync::Arc;

#[path = "../../crates/core/tests/support/oracle.rs"]
mod oracle;

const SHAPE: [usize; 2] = [64, 64];
const DS: &str = "fmt";
const VAR: &str = "v";

/// The fixture's field and configuration: `gts_like_2d(64, 64, 41)`,
/// 16² chunks, 8 bins, deflate with PLoD byte columns.
fn build_fresh(be: &MemBackend) -> Vec<f64> {
    let field = gts_like_2d(SHAPE[0], SHAPE[1], 41);
    let config = MlocConfig::builder(SHAPE.to_vec())
        .chunk_shape(vec![16, 16])
        .num_bins(8)
        .codec(CodecKind::Deflate)
        .plod(true)
        .build();
    let ds = Dataset::create(be, DS, config).unwrap();
    ds.add_variable(VAR, field.values()).unwrap();
    field.into_values()
}

/// A fresh (v7) build of the fixture's field.
fn fresh() -> (MemBackend, Vec<f64>) {
    let be = MemBackend::new();
    let values = build_fresh(&be);
    (be, values)
}

/// A fixture copied into memory.
fn fixture_mem(version: u8) -> MemBackend {
    let mem = MemBackend::new();
    load_fixture(version, &mem);
    mem
}

/// The fixture of `version`, upgraded from its read-only directory.
fn upgraded(version: u8) -> MemBackend {
    let new = MemBackend::new();
    upgrade(&fixture(version), &new, DS).unwrap();
    new
}

/// The fixtures: format v6 alone, the upgrade's one input.
const FIXTURES: [u8; 1] = [6];

/// Every store: the fresh build first, then each fixture upgraded.
struct Sources {
    fresh: MemBackend,
    upgraded: [MemBackend; 1],
}

impl Sources {
    fn new() -> (Sources, Vec<f64>) {
        let (fresh, values) = fresh();
        let sources = Sources {
            fresh,
            upgraded: FIXTURES.map(upgraded),
        };
        (sources, values)
    }

    fn all(&self) -> [(&'static str, &dyn StorageBackend); 2] {
        [("v7", &self.fresh), ("upgraded v6", &self.upgraded[0])]
    }
}

fn whole(be: &dyn StorageBackend, f: &str) -> Vec<u8> {
    be.read(f, 0, be.len(f).unwrap()).unwrap()
}

/// A fixture's bytes are pinned like `built_files.txt`: file count,
/// then length and `crc32` per file.
fn manifest(version: u8) -> String {
    let dir = fixture_dir(version);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut got = format!("v{version}_dataset {} files\n", names.len());
    for name in &names {
        let bytes = std::fs::read(std::path::Path::new(&dir).join(name)).unwrap();
        let crc = mloc::integrity::crc32(&bytes);
        got.push_str(&format!(
            "v{version}_dataset {name} {} {crc:08x}\n",
            bytes.len()
        ));
    }
    got
}

/// The v6 fixture is pinned (65,333 bytes in 10 files). It was
/// written once, at the commit before format v7 (`a0307bd`), by that
/// commit's release CLI upgrading the v5 fixture — which that commit
/// checked to be byte for byte a fresh v6 build of the same field, and
/// whose upgrades of the v1 to v4 fixtures were `diff -r`-identical to
/// it:
///
/// ```text
/// mloc upgrade --dir tests/golden/v5_dataset --name fmt --out <out>
/// ```
///
/// It differs from a fresh build in its unit parts alone: the meta
/// differs in its version byte (6: parts as self-describing streams),
/// the catalog not at all, and each bin file in its header's version
/// byte and its data table and parts — its bitmaps are a fresh build's
/// byte for byte.
#[test]
fn v6_fixture_is_pinned() {
    assert_eq!(manifest(6), include_str!("../golden/v6_dataset.txt"));
    let v6 = fixture(6);
    let (fresh, _) = fresh();
    assert_eq!(whole(&v6, "fmt/catalog"), whole(&fresh, "fmt/catalog"));
    let mut meta = payload(&fresh, "fmt/v/meta");
    assert_eq!(meta[4], 7);
    meta[4] = 6;
    assert_eq!(payload(&v6, "fmt/v/meta"), meta);
    let store = MlocStore::open(&fresh, DS, VAR).unwrap();
    for bin in 0..8 {
        let file = mloc::fileorg::bin_file(DS, VAR, bin);
        let (old, new) = (whole(&v6, &file), whole(&fresh, &file));
        let fixed = store.parse_fixed(bin, &new).unwrap();
        // The tables' sizes follow from the counts, so the bitmaps sit
        // at the same offsets in both.
        let bitmaps = fixed.footer.extent(1).0 as usize..fixed.data.unwrap().extent(0).0 as usize;
        assert_eq!((old[4], new[4]), (6, 7), "bin {bin}");
        assert_eq!(old[5..14], new[5..14], "bin {bin}");
        assert_eq!(old[bitmaps.clone()], new[bitmaps], "bin {bin}");
        assert!(old.len() > new.len(), "bin {bin}");
    }
}

/// A tail-footered file's payload.
fn payload(be: &dyn StorageBackend, f: &str) -> Vec<u8> {
    let raw = whole(be, f);
    mloc::ExtentFooter::split_verified(&raw, f)
        .unwrap()
        .to_vec()
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

/// The v6 fixture upgrades — read-only off its directory, and from an
/// in-memory copy — to a fresh build's files byte for byte (catalog,
/// meta, 8 bin files), and the upgraded store answers the workload
/// identically to it in every execution mode: serial, replay and
/// threaded at 4 and 8 ranks (which also trace the same reads), cached
/// cold and warm, and fused. (The name is from when the fixtures were
/// formats v1 and v2.)
#[test]
fn v1_and_v2_reads_are_byte_identical_in_every_mode() {
    let (sources, values) = Sources::new();
    let files = |be: &dyn StorageBackend| -> Vec<(String, Vec<u8>)> {
        let mut names = be.list();
        names.sort();
        names
            .into_iter()
            .map(|f| {
                let bytes = whole(be, &f);
                (f, bytes)
            })
            .collect()
    };
    let want = files(&sources.fresh);
    assert_eq!(want.len(), 10);
    for version in FIXTURES {
        let from_mem = MemBackend::new();
        upgrade(&fixture_mem(version), &from_mem, DS).unwrap();
        assert!(files(&from_mem) == want, "v{version} from memory");
    }
    for (tag, be) in &sources.all()[1..] {
        assert!(files(*be) == want, "{tag}");
    }

    let queries = workload(&values);
    let reference_store = MlocStore::open(&sources.fresh, DS, VAR).unwrap();
    let references: Vec<QueryResult> = queries
        .iter()
        .map(|q| reference_store.query_serial(q).unwrap())
        .collect();
    let parallel = |n: usize, threaded: bool| {
        ParallelExecutor::new(n, CostModel::default()).threaded(threaded)
    };

    for (tag, be) in sources.all() {
        let plain = MlocStore::open(be, DS, VAR).unwrap();
        let cached = MlocStore::open(be, DS, VAR)
            .unwrap()
            .with_cache(Arc::new(BlockCache::with_budget_mb(64)));
        let fuser = Arc::new(ExtentFuser::with_window_mb(4));
        let fused = MlocStore::open(be, DS, VAR)
            .unwrap()
            .with_fusion(Arc::clone(&fuser));

        for (i, (q, reference)) in queries.iter().zip(&references).enumerate() {
            let r = plain.query_serial(q).unwrap();
            bitwise_eq(&r, reference, &format!("query {i}: serial {tag}"));

            for n in [4, 8] {
                let [replay, threaded] = [false, true].map(|threaded| {
                    let out = parallel(n, threaded).run(&plain, ExecRequest::new(q));
                    let out = out.unwrap();
                    let ctx = format!("query {i}: {n} ranks threaded={threaded} {tag}");
                    bitwise_eq(&out.result, reference, &ctx);
                    out
                });
                let ctx = format!("query {i}: {n} ranks {tag}");
                assert_eq!(replay.traces, threaded.traces, "{ctx}: replay vs threaded");
            }

            let (cold, _) = cached.query_with_metrics(q).unwrap();
            bitwise_eq(&cold, reference, &format!("query {i}: cached cold {tag}"));
            let (warm, m) = cached.query_with_metrics(q).unwrap();
            bitwise_eq(&warm, reference, &format!("query {i}: cached warm {tag}"));
            assert!(m.cache_hits > 0, "query {i}: warm {tag} pass had no hits");

            fuser.begin_window();
            let r = fused.query_serial(q).unwrap();
            bitwise_eq(&r, reference, &format!("query {i}: fused {tag}"));
        }
    }
}

#[test]
fn membership_matches_scan_and_general_path_on_both_formats() {
    let (sources, values) = Sources::new();
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

    for (tag, be) in sources.all() {
        let store = MlocStore::open(be, DS, VAR).unwrap();
        let fast = store.query_serial(&q).unwrap();
        assert_eq!(fast.positions(), &want[..], "{tag}: naive mismatch");
        for (&p, &v) in fast.positions().iter().zip(fast.values().unwrap()) {
            assert_eq!(v.to_bits(), values[p as usize].to_bits(), "{tag}: value");
        }
        let plan = mloc::query::plan::make_plan(&store, &q).unwrap();
        let want = oracle::expected(&store, &values, &q, &plan.units, None);
        assert!(oracle::same(&fast, &want), "{tag}: oracle vs probe path");
    }
}

#[test]
fn plain_membership_is_answered_from_the_index_alone() {
    let (sources, values) = Sources::new();
    let points: Vec<u64> = (0..values.len() as u64).step_by(13).collect();
    let membership = Query::membership(points.clone());
    for (tag, be) in sources.all() {
        let store = MlocStore::open(be, DS, VAR).unwrap();
        let (res, m) = store.query_with_metrics(&membership).unwrap();
        assert_eq!(res.positions(), &points[..], "{tag}: membership positions");
        assert_eq!(m.data_bytes, 0, "{tag}: membership touched data");
        assert!(m.index_bytes > 0, "{tag}: no index reads recorded");

        // So is a region query whose bounds are bin edges.
        let bounds = store.bins().bounds();
        let q = Query::region(bounds[2], bounds[5]);
        let (res, m) = store.query_with_metrics(&q).unwrap();
        let want = values
            .iter()
            .filter(|&&v| v >= bounds[2] && v < bounds[5])
            .count();
        assert_eq!(res.positions().len(), want, "{tag}: aligned positions");
        assert_eq!(m.data_bytes, 0, "{tag}: aligned region touched data");
        assert!(m.index_bytes > 0, "{tag}: no index reads recorded");
    }

    // On the banded field every chunk the band region touches is full.
    let banded = MemBackend::new();
    let values = build_banded(&banded);
    let store = MlocStore::open(&banded, DS, VAR).unwrap();
    let q = band_region(&store);
    let (res, m) = store.query_with_metrics(&q).unwrap();
    let (lo, hi) = q.vc.unwrap();
    let want = values.iter().filter(|&&v| v >= lo && v < hi).count();
    assert_eq!(res.positions().len(), want, "band positions");
    assert_eq!(m.data_bytes, 0, "aligned band region touched data");
}

/// The only gates on the summary level and the membership probes
/// actually firing inside a query (`index.rank_calls`: probes answered
/// from a stored run list). The counts are exact functions of the
/// banded field, the planner and the index format: a change means one
/// of those changed (re-derive and say why), never noise. (The planner
/// took one hit away in format v6, 51 to 50: a membership unit none of
/// whose chunk's probes lies in its summary span, which probed no run
/// then either, is culled.)
#[test]
fn summaries_skip_and_directories_probe_inside_queries() {
    let banded = MemBackend::new();
    let values = build_banded(&banded);
    let store = MlocStore::open(&banded, DS, VAR).unwrap();
    let n = values.len() as u64;
    let exec = ParallelExecutor::new(1, CostModel::default()).profiled(true);
    let profile_of = |store: &MlocStore<'_>, pass: &[Query]| {
        let runs = pass.iter().map(|q| exec.run(store, ExecRequest::new(q)));
        mloc::obs::Profile::merge(runs.map(|out| out.unwrap().profile))
    };
    // The band region, a partial noisy region, a data-touching scan,
    // and the two membership flavors.
    let pass = [
        band_region(&store),
        Query::region(0.1, 0.35),
        Query::values_where(0.2, 0.6),
        Query::membership((0..n).step_by(13).collect()),
        Query::membership_where(0.25, 0.75, (0..n).step_by(7).collect()).with_values(),
    ];
    let p = profile_of(&store, &pass);
    assert_eq!(p.counter_total("index.summary_skips"), 20);
    assert_eq!(p.counter_total("index.summary_hits"), 50);
    assert_eq!(p.counter_total("index.rank_calls"), 10_965);

    // The same kinds of pass over the fixture's field: every store
    // consults summaries (no chunk of this field is full, so none is
    // skipped) — the upgraded v6 fixture too.
    let (sources, values) = Sources::new();
    let n = values.len() as u64;
    for (tag, be) in sources.all() {
        let store = MlocStore::open(be, DS, VAR).unwrap();
        let bounds = store.bins().bounds();
        let pass = [
            Query::region(bounds[2], bounds[5]),
            Query::values_where(bounds[1], bounds[3]),
            Query::membership((0..n).step_by(13).collect()),
            Query::membership_where(bounds[3], bounds[6], (0..n).step_by(7).collect()),
        ];
        let p = profile_of(&store, &pass);
        let summaries = (
            p.counter_total("index.summary_hits"),
            p.counter_total("index.summary_skips"),
        );
        assert!(summaries.0 > 0, "{tag}: no summary consulted");
    }

    // What the run lists cost in the built files, against the WAH
    // streams format v3 stored for the same positions. This field is
    // the run lists' worst case: its noise chunks scatter each bin's
    // points one by one, two bytes a point, where a WAH literal spends
    // four bytes on 31 positions. The benchmark's smooth fields are the
    // opposite case (ROADMAP item 11). The rank/select directories v3
    // appended to those streams added 480 bytes more; no writer of them
    // remains, so that figure is no longer recomputed here.
    let (mut runs, mut wah) = (0usize, 0usize);
    for bin in 0..BANDED_BINS {
        let file = mloc::fileorg::bin_file(DS, VAR, bin);
        let raw = whole(&banded, &file);
        let geometry = (store.grid().num_chunks(), store.config().num_parts());
        let idx = store.parse_fixed(bin, &raw).unwrap();
        for rank in 0..geometry.0 {
            let Some((start, len)) = idx.bitmap(rank) else {
                continue;
            };
            let pairs = &raw[start as usize..(start + u64::from(len)) as usize];
            let points = store.grid().chunk_points(store.order().cell_at(rank)) as u64;
            let list = RunListRef::stored(
                pairs,
                u64::from(store.summaries().get(bin, rank).count),
                points,
            )
            .unwrap();
            let positions: Vec<u64> = list.iter().flat_map(|(at, _, n)| at..at + n).collect();
            let bitmap = WahBitmap::from_sorted_positions(points, &positions);
            runs += pairs.len();
            wah += bitmap.to_bytes().len();
        }
    }
    assert_eq!((runs, wah), (33_057, 11_232));
}
