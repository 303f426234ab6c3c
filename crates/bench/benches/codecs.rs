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

fn bench_deflate_encode_small_units(c: &mut Criterion) {
    // Encode cost at storage-unit size (DESIGN §7), the write-side twin
    // of the group above. Three byte distributions: 4 symbols (matches
    // everywhere, Huffman-coded from ~230 bytes), 64 skewed symbols
    // (stored until a block amortizes its 158-byte tables) and all 256
    // (always stored). At 164 bytes every input is stored unseen, so
    // that row is the stream framing and the checksum; from 328 bytes
    // on it is tokenization plus two package-merges whatever the
    // outcome. One iteration encodes 256 distinct units.
    use mloc_compress::deflate::{huffman, lz77};
    let mut x = 0x9E37_79B9u32;
    let mut words = |n: usize| -> Vec<u32> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect()
    };
    let sym4 = |x: &u32| (x >> 24) as u8 & 3;
    let sym64 = |x: &u32| 0x20 + ((x >> 8) & 63).min((x >> 16) & 63) as u8;
    let sym256 = |x: &u32| (x >> 24) as u8;
    let codec = CodecKind::Deflate.byte_codec();
    let mut g = c.benchmark_group("deflate_encode_small_units");
    g.sample_size(20);
    for len in [164usize, 328, 573] {
        let words = words(256 * len);
        for (name, data) in [
            ("sym4", words.iter().map(sym4).collect::<Vec<u8>>()),
            ("sym64", words.iter().map(sym64).collect()),
            ("sym256", words.iter().map(sym256).collect()),
        ] {
            let huffman = data
                .chunks(len)
                .filter(|u| codec.compress(u)[16] == 1)
                .count();
            let id = BenchmarkId::new(format!("{name}/{len}B"), format!("{huffman}of256huffman"));
            g.throughput(Throughput::Bytes(data.len() as u64));
            g.bench_with_input(id, &data, |b, data| {
                b.iter(|| {
                    data.chunks(len)
                        .map(|u| codec.compress(black_box(u)).len())
                        .sum::<usize>()
                })
            });
        }
    }

    // The two pieces under it, on one unit's worth of input: the code
    // construction over a full literal/length and a full distance
    // alphabet, and the tokenizer on 164 bytes through the thread's
    // reused tables.
    let mut litlen = [1u32; 286];
    for b in words(573).iter().map(sym256) {
        litlen[b as usize] += 1;
    }
    let dist: [u32; 30] = std::array::from_fn(|i| 1 + (i as u32 * 7) % 11);
    for (name, freqs) in [("litlen286", &litlen[..]), ("dist30", &dist[..])] {
        let mut lens = vec![0u8; freqs.len()];
        g.throughput(Throughput::Elements(freqs.len() as u64));
        g.bench_function(BenchmarkId::new("code_lengths", name), |b| {
            b.iter(|| {
                huffman::code_lengths(black_box(freqs), huffman::MAX_CODE_LEN, &mut lens);
                lens[0]
            })
        });
    }
    let unit: Vec<u8> = words(164).iter().map(sym64).collect();
    g.throughput(Throughput::Bytes(unit.len() as u64));
    g.bench_function(BenchmarkId::new("tokenize", "x164"), |b| {
        b.iter(|| lz77::tokenize(black_box(&unit)).len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_float_codecs,
    bench_byte_columns,
    bench_crc32,
    bench_deflate_decode_small_units,
    bench_deflate_encode_small_units
);
criterion_main!(benches);
