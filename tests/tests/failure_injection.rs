//! Failure injection: randomly corrupt on-disk bytes and verify that
//! queries either fail cleanly or still return correct results —
//! never panic, never silently return wrong answers for lossless
//! layouts with checksummed payloads. The v1/v2 tail-footer reads run
//! on the checked-in v2 dataset.

use mloc::prelude::*;
use mloc_datagen::gts_like_2d;
use mloc_pfs::{MemBackend, StorageBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build<'a>(be: &'a MemBackend) -> (Vec<f64>, MlocStore<'a>) {
    let field = gts_like_2d(64, 64, 13);
    let config = MlocConfig::builder(vec![64, 64])
        .chunk_shape(vec![16, 16])
        .num_bins(6)
        .build();
    build_variable(be, "fz", "v", field.values(), &config).unwrap();
    (field.into_values(), MlocStore::open(be, "fz", "v").unwrap())
}

fn corrupt_one_byte(be: &MemBackend, file: &str, pos: u64, mask: u8) {
    let len = be.len(file).unwrap();
    let mut data = be.read(file, 0, len).unwrap();
    data[pos as usize] ^= mask;
    be.create(file).unwrap();
    be.append(file, &data).unwrap();
}

/// A query touching everything: exercises every bin and chunk.
fn full_query(store: &MlocStore<'_>) -> mloc::Result<QueryResult> {
    store.query_serial(&Query::values_where(f64::MIN, f64::MAX))
}

#[test]
fn corrupted_data_files_never_panic_or_lie() {
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..30 {
        let be = MemBackend::new();
        let (values, _) = build(&be);
        // Pick a random bin file and flip a random byte.
        let files: Vec<String> = be
            .list()
            .into_iter()
            .filter(|f| f.ends_with(".bin") && be.len(f).unwrap() > 0)
            .collect();
        let file = &files[rng.random_range(0..files.len())];
        let pos = rng.random_range(0..be.len(file).unwrap());
        let mask = 1u8 << rng.random_range(0..8);
        corrupt_one_byte(&be, file, pos, mask);

        let store = MlocStore::open(&be, "fz", "v").unwrap();
        match store.query_with_metrics(&Query::values_where(f64::MIN, f64::MAX)) {
            // Clean failure is one expected outcome.
            Err(_) => {}
            // The query may also complete: either untouched (the flip
            // landed in an extent this query never read) or gracefully
            // degraded when a non-base PLoD byte group was damaged. In
            // both cases positions must be exact, and values must be
            // bit-exact unless degradation was *reported* — silently
            // wrong answers are never acceptable.
            Ok((res, metrics)) => {
                assert_eq!(res.len(), values.len(), "trial {trial}: wrong cardinality");
                let bound = metrics.degradation.error_bound();
                for (&p, &v) in res.positions().iter().zip(res.values().unwrap()) {
                    let truth = values[p as usize];
                    if v.to_bits() == truth.to_bits() {
                        continue;
                    }
                    assert!(
                        metrics.degradation.is_degraded(),
                        "trial {trial}: silent corruption at {p}: {v} != {truth}"
                    );
                    let rel = if truth != 0.0 {
                        ((v - truth) / truth).abs()
                    } else {
                        v.abs()
                    };
                    assert!(
                        rel <= bound * (1.0 + 1e-9),
                        "trial {trial}: degraded value at {p} outside reported \
                         bound: {v} vs {truth} (rel {rel:e}, bound {bound:e})"
                    );
                }
            }
        }
    }
}

#[test]
fn corrupted_index_files_never_panic() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..30 {
        let be = MemBackend::new();
        build(&be);
        let files: Vec<String> = be
            .list()
            .into_iter()
            .filter(|f| f.ends_with(".bin"))
            .collect();
        let file = &files[rng.random_range(0..files.len())];
        let pos = rng.random_range(0..be.len(file).unwrap());
        corrupt_one_byte(&be, file, pos, 1u8 << rng.random_range(0..8));

        let store = MlocStore::open(&be, "fz", "v").unwrap();
        // Any outcome except a panic is acceptable for index bitmaps
        // (positions are not checksummed); the engine's structural
        // validation catches offset/length corruption.
        let _ = full_query(&store);
        let _ = store.query_serial(&Query::region(0.0, 1e6));
    }
}

#[test]
fn truncated_files_fail_cleanly() {
    let be = MemBackend::new();
    build(&be);
    for file in be.list() {
        if !file.ends_with(".bin") {
            continue;
        }
        let len = be.len(&file).unwrap();
        if len < 2 {
            continue;
        }
        let data = be.read(&file, 0, len / 2).unwrap();
        be.create(&file).unwrap();
        be.append(&file, &data).unwrap();
    }
    let store = MlocStore::open(&be, "fz", "v").unwrap();
    assert!(full_query(&store).is_err());
}

#[test]
fn missing_bin_file_fails_cleanly() {
    let be = MemBackend::new();
    build(&be);
    // Simulate a lost bin file by replacing it with an empty one.
    be.create("fz/v/bin0002.bin").unwrap();
    let store = MlocStore::open(&be, "fz", "v").unwrap();
    assert!(full_query(&store).is_err());
}

/// Replace `file` with `data`.
fn rewrite(be: &MemBackend, file: &str, data: &[u8]) {
    be.create(file).unwrap();
    be.append(file, data).unwrap();
}

/// The checked-in v2 dataset, in memory.
fn v2_fixture() -> MemBackend {
    let be = MemBackend::new();
    mloc_integration::load_fixture(2, &be);
    be
}

/// Serial, replay and threaded at 4 and 8 ranks, and a cached pair of
/// passes over the v2 fixture: every way the engine fetches a bin's
/// tail footer.
fn outcomes(be: &MemBackend, q: &Query) -> Vec<(String, mloc::Result<ExecOutput>)> {
    use mloc_pfs::CostModel;
    let store = MlocStore::open(be, "fmt", "v").unwrap();
    let mut out = vec![(
        "serial".to_string(),
        ParallelExecutor::serial()
            .profiled(true)
            .run(&store, ExecRequest::new(q)),
    )];
    for n in [4, 8] {
        for threaded in [false, true] {
            let exec = ParallelExecutor::new(n, CostModel::default())
                .threaded(threaded)
                .profiled(true);
            out.push((
                format!("{n} ranks threaded={threaded}"),
                exec.run(&store, ExecRequest::new(q)),
            ));
        }
    }
    let cached = MlocStore::open(be, "fmt", "v")
        .unwrap()
        .with_cache(std::sync::Arc::new(BlockCache::with_budget_mb(64)));
    for pass in 0..2 {
        let exec = ParallelExecutor::new(4, CostModel::default()).profiled(true);
        out.push((
            format!("cached pass {pass}"),
            exec.run(&cached, ExecRequest::new(q)),
        ));
    }
    out
}

/// A file cut inside its checksum table has table bytes where its
/// trailer should be. The footer read starts where the directory says
/// the payload ends, finds no trailer at the end of what it read, and
/// reports exactly what the trailer-then-table sequence did.
#[test]
fn a_file_cut_inside_its_table_names_the_missing_trailer() {
    for name in ["fmt/v/bin0001.idx", "fmt/v/bin0001.dat"] {
        let be = v2_fixture();
        let raw = be.read(name, 0, be.len(name).unwrap()).unwrap();
        let payload = mloc::ExtentFooter::split_verified(&raw, name)
            .unwrap()
            .len();
        let table = raw.len() - 24 - payload;
        assert!(table >= 16, "{name}: a table to cut into");
        let cut = payload + table / 2;
        rewrite(&be, name, &raw[..cut]);
        for (mode, got) in outcomes(&be, &Query::values_where(f64::MIN, f64::MAX)) {
            match got {
                Err(mloc::MlocError::CorruptExtent {
                    file,
                    offset,
                    len,
                    what,
                }) => assert_eq!(
                    (file.as_str(), offset, len, what.as_str()),
                    (
                        name,
                        cut as u64 - 24,
                        24,
                        "missing checksum footer (incomplete build?)"
                    ),
                    "{name} ({mode})"
                ),
                Err(other) => panic!("{name} ({mode}): wrong error: {other}"),
                Ok(_) => panic!("{name} ({mode}): a cut file answered a query"),
            }
        }
    }
}

/// A well-formed file whose directory overstates where its payload
/// ends (here: the last bitmap's length, for a chunk the query never
/// touches, with the checksums recomputed) still has its footer found
/// by its trailer: the answer is the clean one in every mode.
#[test]
fn a_directory_overstating_its_payload_still_finds_its_footer() {
    let be = v2_fixture();
    // One chunk's worth of space, in every bin.
    let q = Query::values_in(Region::new(vec![(0, 16), (0, 16)]));
    let clean = MlocStore::open(&be, "fmt", "v")
        .unwrap()
        .query_serial(&q)
        .unwrap();

    let name = "fmt/v/bin0001.idx";
    let raw = be.read(name, 0, be.len(name).unwrap()).unwrap();
    let mut payload = mloc::ExtentFooter::split_verified(&raw, name)
        .unwrap()
        .to_vec();
    let footer = mloc::ExtentFooter::decode(&raw[payload.len()..], raw.len() as u64, name).unwrap();
    let extents: Vec<u32> = (0..footer.num_extents())
        .map(|i| footer.extent(i).1)
        .collect();
    let index = mloc::index::HeaderView::parse(&payload[..]).unwrap();
    let last = (0..index.num_chunks())
        .max_by_key(|&r| index.bitmap_file_offset(r) + u64::from(index.bitmap_len(r)))
        .unwrap();
    let num_parts = MlocStore::open(&be, "fmt", "v")
        .unwrap()
        .config()
        .num_parts();
    let at = 14 + last * (16 + 12 * num_parts) + 12;
    let longer = index.bitmap_len(last) + 8;
    payload[at..at + 4].copy_from_slice(&longer.to_le_bytes());
    let mut crafted = payload.clone();
    crafted.extend(mloc::ExtentFooter::compute(&payload, &extents).encode());
    rewrite(&be, name, &crafted);

    for (mode, got) in outcomes(&be, &q) {
        let out = got.unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert_eq!(out.result, clean, "{mode}");
    }
}
