//! Fetch-stage constants: what the engine pays per bin to locate its
//! chunks in the index directory, and per want to be served by the
//! block cache.
//!
//! Both are sized like the repo benchmark's store — 64 chunks × 7 PLoD
//! parts per bin, of which an aligned query touches about 3 — where
//! these constants, not bytes or decompression, are the warm op.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use mloc::binfile::BinFileBuilder;
use mloc::cache::{BlockCache, BlockKey, BlockPart, ByteView, CachedBlock};
use mloc::index::{header_size, HeaderView, UnitLoc};
use mloc_bitmap::RunList;
use mloc_pfs::{MemBackend, RankIo};
use std::hint::black_box;
use std::sync::Arc;

const CHUNKS: usize = 64;
const PARTS: usize = 7;
/// The chunk ranks one query touches in the bin.
const TOUCHED: [usize; 3] = [9, 10, 41];

/// Bins one op's plan visits; each timed sample covers this many.
const BINS: usize = 64;

/// Everything the engine reads of a bin's touched entries, through the
/// view it uses.
fn index_entry_lookup(g: &mut BenchmarkGroup<'_>) {
    let mut b = BinFileBuilder::new(0, CHUNKS, PARTS);
    for rank in 0..CHUNKS {
        let positions: Vec<u64> = (rank as u64 % 5..16_384).step_by(97).collect();
        let locs: Vec<UnitLoc> = (0..PARTS as u64)
            .map(|p| UnitLoc {
                offset: (rank as u64 * 7 + p) * 300,
                clen: 300,
            })
            .collect();
        let runs = RunList::from_sorted_positions(16_384, &positions);
        b.set_chunk(rank, runs.as_ref(), &locs);
    }
    let units = vec![0u8; CHUNKS * PARTS * 300];
    let file = b.finish(&units, &[300; CHUNKS * PARTS]).bytes;
    let hdr = &file[..header_size(CHUNKS, PARTS) as usize];

    g.bench_function("index_entry_lookup/view/x64", |bench| {
        bench.iter(|| {
            let mut sum = 0u64;
            for _ in 0..BINS {
                let index = HeaderView::parse(black_box(hdr)).unwrap();
                for rank in TOUCHED {
                    sum += u64::from(index.count(rank)) + u64::from(index.bitmap_len(rank));
                    sum += index.bitmap_file_offset(rank);
                    for part in 0..PARTS {
                        let loc = index.unit(rank, part);
                        sum += loc.offset + u64::from(loc.clen);
                    }
                }
            }
            sum
        })
    });
}

/// One cached want, as the fetcher serves it: build the key, probe the
/// cache, record the hit in the rank's trace. Reported per 1,024 wants
/// of one bin file (the trace's drop is part of the price).
fn warm_want(g: &mut BenchmarkGroup<'_>) {
    const WANTS: u32 = 1024;
    let cache = BlockCache::with_budget_mb(64);
    let scope: Arc<str> = Arc::from("bench/v");
    let key = |i: u32| BlockKey {
        scope: Arc::clone(&scope),
        bin: 3,
        chunk_rank: i / PARTS as u32,
        part: BlockPart::PlodPart((i % PARTS as u32) as u8),
    };
    let block = ByteView::from(vec![7u8; 300]);
    for i in 0..WANTS {
        assert!(cache.insert(key(i), CachedBlock::Bytes(block.clone())));
    }
    let be = MemBackend::new();
    let file: Arc<str> = Arc::from("bench/v/bin0003.bin");

    g.bench_function("warm_want/x1024", |bench| {
        bench.iter(|| {
            let mut io = RankIo::new(&be);
            let mut bytes = 0usize;
            for i in 0..WANTS {
                let hit = cache.get(&key(i)).expect("filled above");
                io.record_cached(Arc::clone(&file), u64::from(i) * 300, 300);
                bytes += hit.as_bytes().map_or(0, |b| b.len());
            }
            black_box((bytes, io.into_trace()))
        })
    });
}

fn bench_fetch(c: &mut Criterion) {
    let mut g = c.benchmark_group("fetch");
    g.sample_size(50);
    index_entry_lookup(&mut g);
    warm_want(&mut g);
    g.finish();
}

criterion_group!(benches, bench_fetch);
criterion_main!(benches);
