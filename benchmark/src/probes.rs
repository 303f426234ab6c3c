//! Kernel probes: each times one public function of one layer on
//! inputs taken from the workload's own data — the storage units of a
//! real chunk (its points partitioned by the dataset's value bins), a
//! real bin bitmap over the whole field, the workload's SC regions.
//! They run only in the traced run and report rates, not end-to-end
//! effects: a probe row is the ceiling of what its kernel can save.

use crate::common::{geometry_of, BINS, BUILD_THREADS, CHUNK_N};
use crate::gen::QueryGen;
use crate::metrics::Values;
use crate::stats;
use crate::sut::{self, Variant};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const MIB: f64 = (1 << 20) as f64;

/// Seconds of the median of `reps` runs of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// One storage unit: the points of one chunk that fall in one bin.
struct Unit {
    locals: Vec<u64>,
    values: Vec<f64>,
}

/// Values of the chunk at grid position (`cr`, `cc`) of a `side`²
/// row-major field.
fn chunk_values(raw: &[f64], side: usize, cr: usize, cc: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(CHUNK_N * CHUNK_N);
    for r in cr * CHUNK_N..(cr + 1) * CHUNK_N {
        let row = r * side + cc * CHUNK_N;
        out.extend_from_slice(&raw[row..row + CHUNK_N]);
    }
    out
}

fn units_of(chunk: &[f64], bins: &sut::Bins) -> Vec<Unit> {
    let mut units: Vec<Unit> = (0..BINS)
        .map(|_| Unit {
            locals: Vec::new(),
            values: Vec::new(),
        })
        .collect();
    for (i, &v) in chunk.iter().enumerate() {
        let u = &mut units[bins.bin_of(v)];
        u.locals.push(i as u64);
        u.values.push(v);
    }
    units.retain(|u| !u.locals.is_empty());
    units
}

/// `raw` is the workload's `side`² field, `regions` its SC regions.
pub fn run_all(
    metrics: &mut Values,
    raw: &[f64],
    side: usize,
    regions: &[Vec<(usize, usize)>],
    seed: u64,
) {
    // The dataset's own binning, from the same 1-in-64 sample size the
    // build path uses.
    let sample: Vec<f64> = raw.iter().step_by(raw.len() / (1 << 16)).copied().collect();
    metrics.set(
        "binning.build_ms",
        1e3 * time_median(5, || sut::bins_build(&sample, BINS)),
    );
    let bins = sut::bins_build(&sample, BINS);
    let grid = side / CHUNK_N;
    let chunk = chunk_values(raw, side, grid / 2, grid / 2);
    let bin_of_s = time_median(5, || chunk.iter().map(|&v| bins.bin_of(v)).sum::<usize>());
    metrics.set("binning.bin_of_ns", 1e9 * bin_of_s / chunk.len() as f64);
    let units = units_of(&chunk, &bins);
    let points: usize = units.iter().map(|u| u.locals.len()).sum();
    let raw_bytes = (points * 8) as f64;

    // compress: encode and decode every unit of the chunk.
    for (variant, codec) in [
        (Variant::Col, "deflate"),
        (Variant::Iso, "isobar"),
        (Variant::Isa, "isabela"),
    ] {
        let encode = || -> Vec<Vec<Vec<u8>>> {
            units
                .iter()
                .map(|u| sut::codec_encode(variant, &u.values))
                .collect()
        };
        let enc_s = time_median(3, encode);
        let encoded = encode();
        let dec_s = time_median(3, || {
            encoded
                .iter()
                .map(|streams| sut::codec_decode(variant, streams).expect("probe decode"))
                .sum::<usize>()
        });
        let stored: usize = encoded.iter().flatten().map(Vec::len).sum();
        metrics.set(
            &format!("compress.{codec}_enc_mib_s"),
            raw_bytes / MIB / enc_s,
        );
        metrics.set(
            &format!("compress.{codec}_dec_mib_s"),
            raw_bytes / MIB / dec_s,
        );
        metrics.set(
            &format!("compress.{codec}_ratio"),
            stored as f64 / raw_bytes,
        );
    }

    // bitmap: the per-chunk positional bitmaps of those units.
    let chunk_bits = chunk.len() as u64;
    let build = || -> Vec<sut::Bitmap> {
        units
            .iter()
            .map(|u| sut::bitmap_build(chunk_bits, &u.locals))
            .collect()
    };
    let build_s = time_median(5, build);
    let bitmaps = build();
    let scan_s = time_median(5, || bitmaps.iter().map(sut::Bitmap::scan).sum::<u64>());
    const RANKS: u64 = 64;
    let rank_s = time_median(5, || {
        bitmaps
            .iter()
            .map(|b| {
                (0..RANKS)
                    .map(|k| b.rank(k * chunk_bits / RANKS))
                    .sum::<u64>()
            })
            .sum::<u64>()
    });
    let bitmap_bytes: usize = bitmaps.iter().map(sut::Bitmap::bytes).sum();
    metrics.set("bitmap.build_mpts_s", points as f64 / 1e6 / build_s);
    metrics.set("bitmap.scan_mpts_s", points as f64 / 1e6 / scan_s);
    metrics.set(
        "bitmap.rank_ns",
        1e9 * rank_s / (bitmaps.len() as u64 * RANKS) as f64,
    );
    metrics.set(
        "bitmap.bytes_per_point",
        bitmap_bytes as f64 / points as f64,
    );

    // index: sampled-directory rank over one bin's whole-field bitmap
    // (long enough to carry a directory, as membership probes meet).
    let mid_bin = bins.bin_of(sample[sample.len() / 2]);
    let field_positions: Vec<u64> = raw
        .iter()
        .enumerate()
        .filter(|(_, &v)| bins.bin_of(v) == mid_bin)
        .map(|(i, _)| i as u64)
        .collect();
    let field_bitmap = sut::bitmap_build(raw.len() as u64, &field_positions);
    const PROBES: u64 = 4096;
    let stride = raw.len() as u64 / PROBES;
    let probe_s = time_median(5, || {
        (0..PROBES)
            .map(|k| field_bitmap.rank_sampled(k * stride))
            .sum::<u64>()
    });
    metrics.set("index.rank_probe_ns", 1e9 * probe_s / PROBES as f64);

    // plod: split the chunk's values, reassemble at 2 bytes and in full.
    let chunk_mib = (chunk.len() * 8) as f64 / MIB;
    metrics.set(
        "plod.split_mib_s",
        chunk_mib / time_median(5, || sut::plod_split(&chunk)),
    );
    let parts = sut::plod_split(&chunk);
    metrics.set(
        "plod.assemble2_mib_s",
        chunk_mib / time_median(5, || sut::plod_assemble(&parts, 1)),
    );
    metrics.set(
        "plod.assemble_full_mib_s",
        chunk_mib / time_median(5, || sut::plod_assemble(&parts, 7)),
    );

    // hilbert: curve build, and the seeks (contiguous runs) each curve
    // costs the workload's SC regions on the dataset's chunk grid and
    // on a 4x4x4 grid.
    let geo = geometry_of(side);
    let extents_2d = [grid, grid];
    let build_s = time_median(21, || sut::curve_build(&extents_2d, "hilbert"));
    metrics.set("hilbert.order_build_us", 1e6 * build_s);
    let shape_3d = [64usize, 64, 64];
    let chunk_3d = [16usize, 16, 16];
    let mut g3 = QueryGen::new(&sample, shape_3d.to_vec(), seed);
    let regions_3d: Vec<Vec<(usize, usize)>> = (0..regions.len().max(1))
        .map(|k| g3.region([0.001, 0.01, 0.1][k % 3], k, regions.len().max(1)))
        .collect();
    for curve in sut::CURVES {
        let mean_runs = |extents: &[usize], cells: Vec<Vec<usize>>| -> f64 {
            let order = sut::curve_build(extents, curve);
            let runs: Vec<f64> = cells.iter().map(|c| order.runs(c) as f64).collect();
            stats::mean(&runs)
        };
        let cells_2d = regions
            .iter()
            .map(|r| sut::chunks_in_region(&geo.shape, &geo.chunk, r))
            .collect();
        let cells_3d = regions_3d
            .iter()
            .map(|r| sut::chunks_in_region(&shape_3d, &chunk_3d, r))
            .collect();
        metrics.set(
            &format!("hilbert.runs_per_region.{curve}.2d"),
            mean_runs(&extents_2d, cells_2d),
        );
        metrics.set(
            &format!("hilbert.runs_per_region.{curve}.3d"),
            mean_runs(&[4, 4, 4], cells_3d),
        );
    }

    // runtime: fixed cost of one fan-out and of one SPMD launch+gather.
    const LAUNCHES: usize = 200;
    let pmap_s = time_median(3, || {
        (0..LAUNCHES)
            .map(|_| sut::pmap_noop(BUILD_THREADS, 64))
            .sum::<usize>()
    });
    metrics.set("runtime.pmap_overhead_us", 1e6 * pmap_s / LAUNCHES as f64);
    let spmd_s = time_median(3, || {
        (0..LAUNCHES).map(|_| sut::spmd_gather(2)).sum::<usize>()
    });
    metrics.set("runtime.spmd_gather_us", 1e6 * spmd_s / LAUNCHES as f64);

    // obs: one begin/end pair, collector off and on.
    const SPANS: usize = 200_000;
    metrics.set(
        "obs.span_disabled_ns",
        1e9 * time_median(3, || sut::obs_spans(false, SPANS)) / SPANS as f64,
    );
    metrics.set(
        "obs.span_enabled_ns",
        1e9 * time_median(3, || sut::obs_spans(true, SPANS)) / SPANS as f64,
    );

    // cache: insert and hit cost of one 4 KiB block, budget never hit.
    const BLOCKS: u32 = 8192;
    let block = Arc::new(vec![0u8; 4096]);
    let cache = sut::probe_cache(256 << 20);
    let insert_s = time_median(1, || {
        (0..BLOCKS).filter(|&i| cache.insert(i, &block)).count()
    });
    let get_s = time_median(5, || (0..BLOCKS).filter(|&i| cache.get(i)).count());
    metrics.set("cache.insert_ns", 1e9 * insert_s / f64::from(BLOCKS));
    metrics.set("cache.get_ns", 1e9 * get_s / f64::from(BLOCKS));
}
