//! Failure injection: randomly corrupt on-disk bytes and verify that
//! queries either fail cleanly or still return correct results —
//! never panic, never silently return wrong answers for lossless
//! layouts with checksummed payloads. A damaged copy of the checked-in
//! v2 dataset fails `mloc upgrade` the same way.

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

/// The checked-in v6 dataset, in memory.
fn v6_fixture() -> MemBackend {
    let be = MemBackend::new();
    mloc_integration::load_fixture(6, &be);
    be
}

/// Upgrade `be` into a fresh store: the outcome, and whether the new
/// store holds a committed variable.
fn upgraded(be: &MemBackend) -> (mloc::Result<()>, bool) {
    let new = MemBackend::new();
    let got = mloc::upgrade::upgrade(be, &new, "fmt").map(drop);
    let fsck = mloc::repair::fsck(&new, "fmt").unwrap();
    (got, !fsck.committed.is_empty())
}

/// A file cut inside its checksum table has table bytes where its
/// trailer should be: the upgrade finds no trailer at the end of the
/// file, says so, and commits nothing. (Of a v6 store, the meta is the
/// tail-footered file.)
#[test]
fn a_file_cut_inside_its_table_names_the_missing_trailer() {
    let name = "fmt/v/meta";
    let be = v6_fixture();
    let raw = be.read(name, 0, be.len(name).unwrap()).unwrap();
    let payload = mloc::ExtentFooter::split_verified(&raw, name)
        .unwrap()
        .len();
    let table = raw.len() - 24 - payload;
    assert!(table >= 8, "{name}: a table to cut into");
    let cut = payload + table / 2;
    rewrite(&be, name, &raw[..cut]);
    match upgraded(&be) {
        (
            Err(mloc::MlocError::CorruptExtent {
                file,
                offset,
                len,
                what,
            }),
            false,
        ) => assert_eq!(
            (file.as_str(), offset, len, what.as_str()),
            (
                name,
                cut as u64 - 24,
                24,
                "missing checksum footer (incomplete build?)"
            ),
            "{name}"
        ),
        other => panic!("{name}: {other:?}"),
    }
}

/// A well-formed bin file whose directory — its data table, which
/// locates every unit part — overstates where its parts end (here: the
/// last part's length, with the table's own checksum recomputed) still
/// has its tables found, and then fails the upgrade on the part that
/// runs into the end marker: nothing is committed.
#[test]
fn a_directory_overstating_its_payload_fails_the_upgrade() {
    let be = v6_fixture();
    assert!(matches!(upgraded(&be), (Ok(()), true)));

    let name = "fmt/v/bin0001.bin";
    let mut raw = be.read(name, 0, be.len(name).unwrap()).unwrap();
    let le = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    // A table is `{len, crc}` rows, then the rows' CRC: the index
    // table starts after the 14-byte header, and its size is the one
    // whose rows' CRC follows them.
    let rows_crc =
        |at: usize, n: usize| mloc::integrity::crc32(&raw[at..at + 8 * n]) == le(&raw, at + 8 * n);
    let n_index = (1..=17).find(|&n| rows_crc(14, n)).unwrap();
    let data_at = 14 + 8 * n_index + 4;
    let n_data = 7 * (n_index - 1);
    assert!(rows_crc(data_at, n_data));
    let last = data_at + 8 * (n_data - 1);
    let len = le(&raw, last);
    raw[last..last + 4].copy_from_slice(&(len + 8).to_le_bytes());
    let crc = mloc::integrity::crc32(&raw[data_at..data_at + 8 * n_data]);
    raw[data_at + 8 * n_data..][..4].copy_from_slice(&crc.to_le_bytes());
    rewrite(&be, name, &raw);

    let unit_at = raw.len() as u64 - 12 - u64::from(len);
    match upgraded(&be) {
        (Err(mloc::MlocError::CorruptExtent { file, offset, .. }), false) => {
            assert_eq!((file.as_str(), offset), (name, unit_at))
        }
        other => panic!("{other:?}"),
    }
}
