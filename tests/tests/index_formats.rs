//! The formats before v6, as `mloc upgrade` inputs. Nothing writes v1
//! to v5 any more, and nothing but the upgrade reads them:
//! `tests/golden/v1_dataset` to `v5_dataset` are datasets written once
//! each, by writers this tree no longer has. Each upgrades, read-only
//! off its directory and from an in-memory copy, to a store
//! byte-identical, file for file, to a fresh (v6) build of the same
//! field, and answers every query identically to it in every execution
//! mode — serial, threaded at 4 and 8 ranks, cached cold/warm, and
//! fused. Membership queries are part of the workload, and are
//! additionally checked against the naive scan. A second, banded field
//! pins how often the summary level and the membership probes actually
//! fire inside a query, and what the stored run lists cost in the built
//! files against the WAH streams and rank/select directories of v3.

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

/// The fixtures' field and configuration: `gts_like_2d(64, 64, 41)`,
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

/// A fresh (v6) build of the fixtures' field.
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

/// The fixtures, newest first.
const FIXTURES: [u8; 5] = [5, 4, 3, 2, 1];

/// Every store: the fresh build first, then each fixture upgraded.
struct Sources {
    fresh: MemBackend,
    upgraded: [MemBackend; 5],
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

    fn all(&self) -> [(&'static str, &dyn StorageBackend); 6] {
        [
            ("v6", &self.fresh),
            ("upgraded v5", &self.upgraded[0]),
            ("upgraded v4", &self.upgraded[1]),
            ("upgraded v3", &self.upgraded[2]),
            ("upgraded v2", &self.upgraded[3]),
            ("upgraded v1", &self.upgraded[4]),
        ]
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

/// The v1 fixture is pinned (78,374 bytes in 18 files), and it is
/// exactly what the deleted v1 writer made of a v2 build: every file
/// but the bin indexes is byte-identical to the v2 fixture, and the
/// indexes differ by format alone. It was written once, at the commit
/// before that writer was deleted (`eb3f7cf`), by
///
/// ```text
/// let be = DirBackend::new(out).unwrap();
/// let ds = Dataset::create(&be, "fmt", config).unwrap(); // as in build_fresh
/// ds.add_variable("v", gts_like_2d(64, 64, 41).values()).unwrap();
/// assert_eq!(downgrade_variable_to_v1(&be, "fmt", "v").unwrap(), 8);
/// ```
///
/// run as a one-off integration test (`MLOC_V1_OUT=<out> cargo test -p
/// mloc-integration --test write_v1_fixture`). A format change adds a
/// new fixture; it never rewrites this one.
#[test]
fn v1_fixture_is_pinned_and_differs_from_v2_only_in_its_indexes() {
    assert_eq!(manifest(1), include_str!("../golden/v1_dataset.txt"));
    let (v1, v2) = (fixture(1), fixture(2));
    assert_eq!(v1.list(), v2.list());
    for f in v2.list() {
        let (old, new) = (whole(&v1, &f), whole(&v2, &f));
        if f.ends_with(".idx") {
            // The header's version byte; v1 has no summaries.
            assert_eq!((old[4], new[4]), (1, 2), "{f}");
            assert!(old.len() < new.len(), "{f}");
        } else {
            assert_eq!(old, new, "{f}");
        }
    }
}

/// The v2 fixture is pinned too (79,654 bytes in 18 files). It was
/// written once, at the commit before format v3 (`5b89f0d`), by
///
/// ```text
/// let be = DirBackend::new(out).unwrap();
/// let ds = Dataset::create(&be, "fmt", config).unwrap(); // as in build_fresh
/// ds.add_variable("v", gts_like_2d(64, 64, 41).values()).unwrap();
/// ```
///
/// run as a one-off integration test (`MLOC_V2_OUT=<out> cargo test -p
/// mloc-integration --test write_v2_fixture`). It differs from a fresh
/// build in layout alone: each bin's data file payload is the fresh bin
/// file's unit section byte for byte, the meta differs in its version
/// byte (2: two files per bin), and the catalog not at all.
#[test]
fn v2_fixture_is_pinned() {
    assert_eq!(manifest(2), include_str!("../golden/v2_dataset.txt"));
    let v2 = fixture(2);
    agrees_with_a_fresh_build(&v2, 2, |bin| {
        payload(&v2, &format!("{DS}/{VAR}/bin{bin:04}.dat"))
    });
}

/// The v3 fixture is pinned too (79,494 bytes in 10 files). It was
/// written once, at the commit before format v4 (`8b9f6ed`), by that
/// commit's release CLI upgrading the v2 fixture — which that commit
/// checked to be byte for byte a fresh v3 build of the same field:
///
/// ```text
/// mloc upgrade --dir tests/golden/v2_dataset --name fmt --out <out>
/// ```
///
/// It differs from a fresh build in its bitmaps alone: each bin file's
/// unit section is the fresh one's byte for byte, the meta differs in
/// its version byte (3: WAH bitmaps), and the catalog not at all.
#[test]
fn v3_fixture_is_pinned() {
    assert_eq!(manifest(3), include_str!("../golden/v3_dataset.txt"));
    let v3 = fixture(3);
    agrees_with_a_fresh_build(&v3, 3, |bin| {
        units(
            &whole(&v3, &mloc::fileorg::bin_file(DS, VAR, bin)),
            OLD_FRONT,
        )
        .to_vec()
    });
}

/// The v4 fixture is pinned too (77,749 bytes in 10 files). It was
/// written once, at the commit before format v5 (`70401a5`), by that
/// commit's release CLI upgrading the v3 fixture — which that commit
/// checked to be byte for byte a fresh v4 build of the same field:
///
/// ```text
/// mloc upgrade --dir tests/golden/v3_dataset --name fmt --out <out>
/// ```
///
/// It differs from a fresh build in its fixed blocks alone: each bin
/// file's unit section is the fresh one's byte for byte, the meta
/// differs in its version byte (4: a chunk directory in every header),
/// and the catalog not at all.
#[test]
fn v4_fixture_is_pinned() {
    assert_eq!(manifest(4), include_str!("../golden/v4_dataset.txt"));
    let v4 = fixture(4);
    agrees_with_a_fresh_build(&v4, 4, |bin| {
        units(
            &whole(&v4, &mloc::fileorg::bin_file(DS, VAR, bin)),
            OLD_FRONT,
        )
        .to_vec()
    });
}

/// The v5 fixture is pinned too (65,461 bytes in 10 files). It was
/// written once, at the commit before format v6 (`1f2704c`), by that
/// commit's release CLI upgrading the v4 fixture — which that commit
/// checked to be byte for byte a fresh v5 build of the same field:
///
/// ```text
/// mloc upgrade --dir tests/golden/v4_dataset --name fmt --out <out>
/// ```
///
/// It differs from a fresh build in its fixed blocks alone: each bin
/// file's unit section is the fresh one's byte for byte, the meta
/// differs in its version byte (5: the summaries in every bin file) and
/// in holding no summaries, and the catalog not at all.
#[test]
fn v5_fixture_is_pinned() {
    assert_eq!(manifest(5), include_str!("../golden/v5_dataset.txt"));
    let v5 = fixture(5);
    agrees_with_a_fresh_build(&v5, 5, |bin| {
        units(&whole(&v5, &mloc::fileorg::bin_file(DS, VAR, bin)), FRONT).to_vec()
    });
}

/// A tail-footered file's payload.
fn payload(be: &dyn StorageBackend, f: &str) -> Vec<u8> {
    let raw = whole(be, f);
    mloc::ExtentFooter::split_verified(&raw, f)
        .unwrap()
        .to_vec()
}

/// Where the tables of an old one-file bin of the fixtures' geometry
/// (16 chunks, 7 parts) begin: after a v3/v4 header with its directory
/// (100-byte entries) and 9-byte summary records, and after a v5
/// header and 13-byte records; each summary extent ends in the two
/// tables' sizes.
const OLD_FRONT: usize = 14 + 16 * 100 + 8 + 16 * 9 + 8;
const FRONT: usize = 14 + 8 + 16 * 13 + 8;

/// The bytes of the meta's summary sections: 8 bins of 16 chunks.
const SECTIONS: usize = 8 * (8 + 16 * 13);

/// The unit section of `raw`, a whole old one-file bin whose tables
/// begin at `front`: the data table's extents, which end at the end
/// marker.
fn units(raw: &[u8], front: usize) -> &[u8] {
    let word = |at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().unwrap()) as usize;
    let (n_index, n_data) = (word(front - 8), word(front - 4));
    let data_at = front + 8 * n_index + 4;
    let total: usize = (0..n_data).map(|i| word(data_at + 8 * i)).sum();
    let end = raw.len() - 12;
    &raw[end - total..end]
}

/// `old`, a fixture of meta version `version`, has a fresh build's
/// catalog, its meta but for the version byte and the summary sections
/// that end it, and — `old_units(bin)` — each bin's unit section.
fn agrees_with_a_fresh_build(
    old: &dyn StorageBackend,
    version: u8,
    old_units: impl Fn(usize) -> Vec<u8>,
) {
    let (fresh, _) = fresh();
    assert_eq!(whole(old, "fmt/catalog"), whole(&fresh, "fmt/catalog"));
    let mut meta = payload(&fresh, "fmt/v/meta");
    assert_eq!(meta[4], 6);
    meta[4] = version;
    meta.truncate(meta.len() - SECTIONS);
    assert_eq!(payload(old, "fmt/v/meta"), meta);
    let store = MlocStore::open(&fresh, DS, VAR).unwrap();
    for bin in 0..8 {
        let raw = whole(&fresh, &mloc::fileorg::bin_file(DS, VAR, bin));
        let data = store.parse_fixed(bin, &raw).unwrap().data.unwrap();
        let units = &raw[data.extent(0).0 as usize..raw.len() - 12];
        assert_eq!(units, &old_units(bin)[..], "bin {bin}");
    }
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

/// Every fixture upgrades — read-only off its directory, and from an
/// in-memory copy — to a fresh build's files byte for byte (catalog,
/// meta, 8 bin files), and the upgraded stores answer the workload
/// identically to it in every execution mode: serial, replay and
/// threaded at 4 and 8 ranks (which also trace the same reads), cached
/// cold and warm, and fused.
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

    // The same kinds of pass over the fixtures' field: every store
    // consults summaries (no chunk of this field is full, so none is
    // skipped) — the upgraded v1 fixture too, whose summaries the
    // upgrade derived.
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
