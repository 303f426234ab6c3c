//! The parallel write path, end to end: byte-determinism across
//! thread counts, order-independence of the streaming builder, and its
//! error paths.

use mloc::build::StreamingBuilder;
use mloc::config::LevelOrder;
use mloc::dataset::Dataset;
use mloc::prelude::*;
use mloc::ChunkGrid;
use mloc_compress::CodecKind;
use mloc_datagen::gts_like_2d;
use mloc_pfs::{MemBackend, StorageBackend};
use std::collections::BTreeMap;

const SHAPE: [usize; 2] = [64, 64];
const CHUNK: [usize; 2] = [16, 16];

fn field() -> Vec<f64> {
    gts_like_2d(SHAPE[0], SHAPE[1], 77).into_values()
}

fn config(order: LevelOrder, codec: CodecKind, plod: bool, threads: usize) -> MlocConfig {
    MlocConfig::builder(SHAPE.to_vec())
        .chunk_shape(CHUNK.to_vec())
        .num_bins(6)
        .level_order(order)
        .codec(codec)
        .plod(plod)
        .build_threads(threads)
        .build()
}

fn all_files(be: &MemBackend) -> BTreeMap<String, Vec<u8>> {
    be.list()
        .into_iter()
        .map(|f| {
            let len = be.len(&f).unwrap();
            let bytes = be.read(&f, 0, len).unwrap();
            (f, bytes)
        })
        .collect()
}

/// Build, and hold the report's byte counts to the bytes on disk:
/// data, index and meta bytes sum to exactly what was stored.
fn build_all(values: &[f64], config: &MlocConfig) -> BTreeMap<String, Vec<u8>> {
    let be = MemBackend::new();
    let report = build_variable(&be, "d", "v", values, config).unwrap();
    let files = all_files(&be);
    let on_disk: usize = files.values().map(Vec::len).sum();
    assert_eq!(
        report.data_bytes + report.index_bytes + report.meta_bytes,
        on_disk as u64
    );
    files
}

/// Acceptance matrix: 1, 2, and 8 build threads must produce
/// byte-identical bin files for every level order ×
/// codec × PLoD combination the configuration accepts (ISABELA is
/// lossy, so it cannot drive PLoD byte columns).
#[test]
fn thread_count_never_changes_bytes() {
    let values = field();
    let cases: Vec<(CodecKind, bool)> = vec![
        (CodecKind::Deflate, true),
        (CodecKind::Deflate, false),
        (CodecKind::Isobar, true),
        (CodecKind::Isobar, false),
        (CodecKind::Isabela { error_bound: 1e-3 }, false),
    ];
    for order in [LevelOrder::Vms, LevelOrder::Vsm] {
        for &(codec, plod) in &cases {
            let reference = build_all(&values, &config(order, codec, plod, 1));
            assert!(
                reference.keys().any(|f| f.ends_with(".bin")),
                "build produced no bin files"
            );
            for threads in [2usize, 8] {
                let got = build_all(&values, &config(order, codec, plod, threads));
                assert_eq!(
                    reference,
                    got,
                    "bytes differ: {threads} threads vs serial \
                     ({order:?}, {} codec, plod={plod})",
                    codec.name()
                );
            }
        }
    }
}

/// Queries against a parallel build read back the same answers as
/// against a serial build (belt to the byte-identity suspenders).
#[test]
fn parallel_build_is_queryable() {
    let values = field();
    let be = MemBackend::new();
    build_variable(
        &be,
        "d",
        "v",
        &values,
        &config(LevelOrder::Vms, CodecKind::Deflate, true, 8),
    )
    .unwrap();
    let store = MlocStore::open(&be, "d", "v").unwrap();
    let res = store
        .query_serial(&Query::values_where(500.0, 2500.0))
        .unwrap();
    let want: Vec<u64> = values
        .iter()
        .enumerate()
        .filter(|(_, &v)| (500.0..2500.0).contains(&v))
        .map(|(i, _)| i as u64)
        .collect();
    assert_eq!(res.positions(), want);
}

fn chunk_values(values: &[f64], grid: &ChunkGrid, chunk: usize) -> Vec<f64> {
    grid.chunk_linear_indices(chunk)
        .iter()
        .map(|&l| values[l as usize])
        .collect()
}

/// Chunks pushed in a scrambled order land in the same bytes as
/// in-order pushes: physical layout is always curve-rank order.
#[test]
fn out_of_order_push_is_byte_identical() {
    let values = field();
    let config = config(LevelOrder::Vms, CodecKind::Deflate, true, 2);
    let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());
    let n = grid.num_chunks();

    let build_in_order = |order: &[usize]| {
        let be = MemBackend::new();
        let mut b = StreamingBuilder::new(&be, "d", "v", &config, &values).unwrap();
        for &chunk in order {
            b.push_chunk(chunk, &chunk_values(&values, &grid, chunk))
                .unwrap();
        }
        b.finish().unwrap();
        all_files(&be)
    };

    let in_order: Vec<usize> = (0..n).collect();
    // Deterministic scramble: odd chunks backwards, then even chunks.
    let mut scrambled: Vec<usize> = (0..n).filter(|c| c % 2 == 1).rev().collect();
    scrambled.extend((0..n).filter(|c| c % 2 == 0));
    assert_ne!(in_order, scrambled);
    assert_eq!(
        build_in_order(&in_order),
        build_in_order(&scrambled),
        "push order leaked into the layout"
    );
}

/// Every StreamingBuilder error path, each leaving the builder usable.
#[test]
fn streaming_builder_error_paths() {
    let values = field();
    let config = config(LevelOrder::Vms, CodecKind::Deflate, true, 1);
    let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());
    let be = MemBackend::new();
    let mut b = StreamingBuilder::new(&be, "d", "v", &config, &values).unwrap();

    // Out-of-range chunk id.
    let err = b
        .push_chunk(grid.num_chunks(), &chunk_values(&values, &grid, 0))
        .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");

    // Wrong value count.
    let err = b.push_chunk(0, &values[..7]).unwrap_err();
    assert!(err.to_string().contains("expected"), "{err}");

    // Duplicate push.
    b.push_chunk(0, &chunk_values(&values, &grid, 0)).unwrap();
    let err = b
        .push_chunk(0, &chunk_values(&values, &grid, 0))
        .unwrap_err();
    assert!(err.to_string().contains("twice"), "{err}");

    // Failed pushes left exactly one chunk filed.
    assert_eq!(b.chunks_pushed(), 1);

    // finish() with missing chunks reports progress.
    let err = b.finish().unwrap_err();
    assert!(err.to_string().contains("chunks pushed"), "{err}");
    // A failed finish consumed the builder; no bin files were written.
    assert!(!be.exists("d/v/meta"));

    // A fresh builder completes despite the sibling's failures, and
    // the result matches a one-shot build with the same sample.
    let mut b2 = StreamingBuilder::new(&be, "d", "w", &config, &values).unwrap();
    for chunk in 0..grid.num_chunks() {
        b2.push_chunk(chunk, &chunk_values(&values, &grid, chunk))
            .unwrap();
    }
    let report = b2.finish().unwrap();
    assert!(be.exists("d/w/meta"));
    assert_eq!(
        report.per_bin_points.iter().sum::<u64>(),
        values.len() as u64
    );
}

/// The in-situ wave path through the Dataset API: batched pushes with
/// a worker pool register the variable and answer queries identically
/// to chunk-wise pushes.
#[test]
fn dataset_stream_waves_match_chunkwise() {
    let values = field();
    let be = MemBackend::new();
    let mut cfg = config(LevelOrder::Vms, CodecKind::Deflate, true, 4);
    cfg.build_threads = 4;
    let ds = Dataset::create(&be, "sim", cfg).unwrap();
    let sample: Vec<f64> = values.iter().step_by(13).copied().collect();

    // Chunk-wise.
    let mut one = ds.stream_variable("a", &sample).unwrap();
    let grid = one.grid().clone();
    for chunk in 0..grid.num_chunks() {
        one.push_chunk(chunk, &chunk_values(&values, &grid, chunk))
            .unwrap();
    }
    one.finish().unwrap();

    // Two waves, each batched.
    let mut batched = ds.stream_variable("b", &sample).unwrap();
    let half = grid.num_chunks() / 2;
    for wave in [0..half, half..grid.num_chunks()] {
        batched
            .push_chunks(wave.map(|c| (c, chunk_values(&values, &grid, c))).collect())
            .unwrap();
    }
    batched.finish().unwrap();

    let fa = all_files(&be);
    for (f, bytes) in fa.iter().filter(|(f, _)| f.starts_with("sim/a/")) {
        let twin = f.replace("sim/a/", "sim/b/");
        // meta embeds the variable name; bin files must match.
        if f.ends_with("meta") {
            continue;
        }
        assert_eq!(
            Some(bytes),
            fa.get(&twin),
            "file {f} differs between chunk-wise and batched stream"
        );
    }
    assert_eq!(ds.variables().unwrap(), vec!["a", "b"]);
}

/// Every stored byte of one small store per codec × PLoD setting,
/// pinned as file count, length and `crc32` per file. The golden was
/// written by the commit before the encode kernel was rebuilt (stored
/// blocks decided by size, array package-merge, reused LZ77 tables),
/// so any encoder change that moves a byte on disk fails here; it was
/// re-derived three times since, when bins became one v3 file each,
/// when format v5 dropped the chunk directory, and when format v6 moved
/// the chunk summaries into the meta (every compressed unit byte kept
/// each time: v5's files are 6,144 bytes a bin shorter with PLoD, 1,536
/// without; v6's are 856 bytes a bin shorter — the 840-byte summary
/// section, its table entry and the two table sizes — and the meta 840
/// bytes a bin longer). ISABELA cannot drive PLoD byte columns, which
/// leaves five stores.
#[test]
fn built_files_are_pinned() {
    let values = gts_like_2d(256, 256, 42).into_values();
    let cases: [(&str, CodecKind, bool); 5] = [
        ("deflate+plod", CodecKind::Deflate, true),
        ("deflate", CodecKind::Deflate, false),
        ("isobar+plod", CodecKind::Isobar, true),
        ("isobar", CodecKind::Isobar, false),
        ("isabela", CodecKind::Isabela { error_bound: 1e-3 }, false),
    ];
    let mut got = String::new();
    for (name, codec, plod) in cases {
        let config = MlocConfig::builder(vec![256, 256])
            .chunk_shape(vec![32, 32])
            .num_bins(16)
            .codec(codec)
            .plod(plod)
            .build_threads(2)
            .build();
        let files = build_all(&values, &config);
        got.push_str(&format!("{name} {} files\n", files.len()));
        for (file, bytes) in &files {
            let crc = mloc::integrity::crc32(bytes);
            got.push_str(&format!("{name} {file} {} {crc:08x}\n", bytes.len()));
        }
    }
    let want = include_str!("../golden/built_files.txt");
    if got != want {
        // Written out so a deliberate format change can diff the two.
        let path = std::env::temp_dir().join("mloc_built_files.got.txt");
        std::fs::write(&path, &got).unwrap();
        panic!(
            "built files moved; actual manifest written to {}",
            path.display()
        );
    }
}
