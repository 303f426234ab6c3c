//! Compression/decompression throughput of every codec on
//! scientific-like data (the paper's §III-B.4 pluggable-codec level).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mloc_compress::CodecKind;
use mloc_datagen::gts_like_2d;
use std::hint::black_box;

fn sample_values() -> Vec<f64> {
    gts_like_2d(256, 256, 9).into_values()
}

fn bench_float_codecs(c: &mut Criterion) {
    let values = sample_values();
    let bytes = (values.len() * 8) as u64;
    let mut g = c.benchmark_group("float_codecs");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    for kind in [
        CodecKind::Deflate,
        CodecKind::Isobar,
        CodecKind::Fpc,
        CodecKind::Isabela { error_bound: 0.001 },
    ] {
        let codec = kind.float_codec();
        g.bench_with_input(
            BenchmarkId::new("compress", kind.name()),
            &values,
            |b, v| b.iter(|| black_box(codec.compress_f64(v))),
        );
        let compressed = codec.compress_f64(&values);
        g.bench_with_input(
            BenchmarkId::new("decompress", kind.name()),
            &compressed,
            |b, cdata| b.iter(|| black_box(codec.decompress_f64(cdata).unwrap())),
        );
    }
    g.finish();
}

fn bench_byte_columns(c: &mut Criterion) {
    // The MLOC-COL hot path: DEFLATE over a PLoD byte column.
    let values = sample_values();
    let parts = mloc::plod::split(&values);
    let codec = CodecKind::Deflate.byte_codec();
    let mut g = c.benchmark_group("byte_column_deflate");
    g.sample_size(10);
    for (i, part) in parts.iter().enumerate().take(3) {
        g.throughput(Throughput::Bytes(part.len() as u64));
        g.bench_with_input(BenchmarkId::new("compress_part", i), part, |b, p| {
            b.iter(|| black_box(codec.compress(p)))
        });
    }
    g.finish();
}

fn bench_crc32(c: &mut Criterion) {
    // The per-extent integrity check at the extent sizes a cold query
    // verifies: a bitmap, a PLoD part, a coalesced run. One iteration
    // checksums a whole 1 MiB buffer extent by extent, so the timer's
    // resolution does not drown a 64-byte call.
    let buf: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let mut g = c.benchmark_group("crc32");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(buf.len() as u64));
    for extent in [64usize, 512, 2048, 64 << 10] {
        g.bench_with_input(BenchmarkId::from_parameter(extent), &buf, |b, buf| {
            b.iter(|| {
                buf.chunks(extent)
                    .fold(0u32, |acc, e| acc ^ mloc::integrity::crc32(black_box(e)))
            })
        });
    }
    g.finish();
}

fn bench_deflate_decode_small_units(c: &mut Criterion) {
    // Decode cost at storage-unit size (DESIGN §9): a unit is ~164
    // points, so a PLoD part is 164 or 328 stored bytes and per-block
    // fixed costs — not bytes — set the time. Part 0 (sign, exponent,
    // top mantissa bits) Huffman-codes once a unit is large enough to
    // amortize the code-length table; part 6 (low mantissa bits) is
    // noise and always takes stored blocks. Values are sorted first:
    // a unit holds one value bin's points, not a slice of the field.
    // One iteration decodes up to 256 distinct units.
    let mut values = sample_values();
    values.sort_by(f64::total_cmp);
    let parts = mloc::plod::split(&values);
    let codec = CodecKind::Deflate.byte_codec();
    let mut g = c.benchmark_group("deflate_decode_small_units");
    g.sample_size(20);
    for p in [0usize, 6] {
        let (part, width) = (&parts[p], mloc::plod::PART_BYTES[p]);
        for points in [164usize, 328, 2048] {
            let units: Vec<Vec<u8>> = part
                .chunks(points * width)
                .take(256)
                .map(|u| codec.compress(u))
                .collect();
            // Byte 16 of an MDF1 stream is its first block's kind.
            let huffman = units.iter().filter(|u| u[16] == 1).count();
            let id = BenchmarkId::new(
                format!("part{p}/{points}pts"),
                format!("{huffman}of{}huffman", units.len()),
            );
            g.throughput(Throughput::Bytes((units.len() * points * width) as u64));
            g.bench_with_input(id, &units, |b, units| {
                b.iter(|| {
                    units
                        .iter()
                        .map(|u| codec.decompress(black_box(u)).unwrap().len())
                        .sum::<usize>()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_float_codecs,
    bench_byte_columns,
    bench_crc32,
    bench_deflate_decode_small_units
);
criterion_main!(benches);
