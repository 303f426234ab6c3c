//! Hierarchical-index driver: measures what the two-level succinct
//! bin index (v2 chunk summaries + sampled rank/select directories)
//! buys over the flat v1 format, and emits `BENCH_index.json`.
//!
//! The dataset is built so both index levels matter: even chunks carry
//! one narrow value band each (the whole chunk lands in a single bin,
//! so its bitmap is all ones and the chunk summary can skip it), odd
//! chunks carry noisy values spread over the low bins (their bitmaps
//! are literal-heavy and long enough to earn rank/select samples).
//! The same build is then downgraded in place to v1, and the identical
//! workload runs against both formats.
//!
//! Checked, mirroring the acceptance bar:
//!
//! 1. **Format identity** — every query answers byte-identically on
//!    v1 and v2.
//! 2. **Summary skips** — region queries over the banded range skip
//!    full-chunk bitmaps on v2 (`index.summary_skips > 0`) and never
//!    on v1; membership probes drive the rank directories
//!    (`index.rank_calls > 0`).
//! 3. **Index-only answers** — plain membership and aligned region
//!    queries read zero data bytes on both formats.
//! 4. **Overhead** — rank/select directories cost at most 5% of the
//!    compressed bitmap bytes they accelerate.
//!
//! Run with: `cargo run --release -p mloc-bench --bin index_bench`
//! (`--scale large` for a 512² field, `--queries N` for the pass
//! count).

use mloc::index::{downgrade_variable_to_v1, BinIndex};
use mloc::obs::Profile;
use mloc::prelude::*;
use mloc_bench::report::{note, title};
use mloc_bench::HarnessArgs;
use mloc_bitmap::WahRef;
use mloc_compress::CodecKind;
use mloc_pfs::{CostModel, MemBackend, StorageBackend};
use std::hint::black_box;
use std::time::Instant;

const DS: &str = "ib";
const VAR: &str = "v";
const NUM_BINS: usize = 16;

/// 4x4 chunk grid: ten chunks are one flat band (value 10), four are
/// noise in [0, 1), and two are noise in [20, 21). The flat band makes
/// the equal-frequency edges collapse onto its value, so a single
/// *interior* bin holds all ten band chunks with all-ones bitmaps —
/// the chunk-summary level can answer for most of the grid without
/// reading a bitmap. The noisy chunks spread across the low/high bins
/// with literal-heavy bitmaps long enough to earn rank/select samples.
fn field(side: usize, seed: u64) -> Vec<f64> {
    let chunk = side / 4;
    let mut rng: u64 = seed | 1;
    let mut noise = |base: f64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        base + (rng >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut v: Vec<f64> = Vec::with_capacity(side * side);
    for row in 0..side {
        for col in 0..side {
            let c = (row / chunk) * 4 + col / chunk;
            v.push(match c {
                1 | 5 | 9 | 13 => noise(0.0),
                7 | 15 => noise(20.0),
                _ => 10.0,
            });
        }
    }
    v
}

fn build(be: &MemBackend, side: usize, seed: u64) -> Vec<f64> {
    let values = field(side, seed);
    let config = MlocConfig::builder(vec![side, side])
        .chunk_shape(vec![side / 4, side / 4])
        .num_bins(NUM_BINS)
        .codec(CodecKind::Deflate)
        .build();
    build_variable(be, DS, VAR, &values, &config).unwrap();
    values
}

/// Band-aligned region (on exact bin edges, so every touched bin is
/// aligned and every touched chunk is full), partial noisy region, a
/// data-touching scan, and the two membership flavors.
fn workload(n: u64, bounds: &[f64]) -> Vec<Query> {
    vec![
        Query::region(bounds[NUM_BINS - 2], bounds[NUM_BINS - 1]),
        Query::region(0.1, 0.35),
        Query::values_where(0.2, 0.6),
        Query::membership((0..n).step_by(13).collect()),
        Query::membership_where(0.25, 0.75, (0..n).step_by(7).collect()).with_values(),
    ]
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

/// Byte accounting over the v2 index files: WAH payload vs appended
/// rank/select directories vs chunk-summary sections.
fn index_accounting(be: &MemBackend) -> (u64, u64, u64) {
    let (mut wah, mut dir, mut summary) = (0u64, 0u64, 0u64);
    let mut scratch: Vec<u32> = Vec::new();
    for bin in 0..NUM_BINS {
        let name = mloc::fileorg::index_file(DS, VAR, bin);
        let raw = be.read(&name, 0, be.len(&name).unwrap()).unwrap();
        let idx = BinIndex::decode_header(&raw).unwrap();
        assert_eq!(idx.version, 2, "bin {bin}: expected a v2 index");
        summary += idx.summary_bytes;
        for (rank, entry) in idx.chunks.iter().enumerate() {
            if entry.bitmap_len == 0 {
                continue;
            }
            let start = idx.bitmap_file_offset(rank) as usize;
            let ext = &raw[start..start + entry.bitmap_len as usize];
            let (_, used) = WahRef::decode_into(ext, &mut scratch).unwrap();
            wah += used as u64;
            dir += (ext.len() - used) as u64;
        }
    }
    (wah, dir, summary)
}

/// Run `passes` full workloads profiled; returns wall seconds and the
/// merged profile.
fn run_passes(
    exec: &ParallelExecutor,
    store: &MlocStore<'_>,
    queries: &[Query],
    passes: usize,
) -> (f64, Profile) {
    let exec = exec.clone().profiled(true);
    let mut merged = Profile::default();
    let t = Instant::now();
    for _ in 0..passes {
        for q in queries {
            let out = exec.run(store, ExecRequest::new(q)).unwrap();
            black_box((out.result, out.metrics));
            merged.merge_from(out.profile);
        }
    }
    (t.elapsed().as_secs_f64(), merged)
}

fn counter(p: &Profile, name: &str) -> u64 {
    p.counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

fn main() {
    let args = HarnessArgs::parse();
    let side = if args.large { 512 } else { 256 };
    let passes = args.queries.max(3);

    let v2 = MemBackend::new();
    let values = build(&v2, side, args.seed);
    let v1 = MemBackend::new();
    build(&v1, side, args.seed);
    let rewritten = downgrade_variable_to_v1(&v1, DS, VAR).unwrap();
    assert_eq!(rewritten, NUM_BINS, "downgrade missed bins");

    let store2 = MlocStore::open(&v2, DS, VAR).unwrap();
    let store1 = MlocStore::open(&v1, DS, VAR).unwrap();
    let queries = workload(values.len() as u64, store2.bins().bounds());

    title(&format!(
        "Hierarchical index: {side}x{side} field, {NUM_BINS} bins, {} queries x{passes} passes",
        queries.len(),
    ));

    // 1. Format identity: v1 and v2 answer every query byte-identically.
    for (i, q) in queries.iter().enumerate() {
        let r2 = store2.query_serial(q).unwrap();
        let r1 = store1.query_serial(q).unwrap();
        bitwise_eq(&r1, &r2, &format!("query {i}: v1 vs v2"));
    }
    note("v1 and v2 answers are byte-identical across the workload");

    // 4. Directory overhead against the bitmaps it accelerates.
    let (wah_bytes, dir_bytes, summary_bytes) = index_accounting(&v2);
    let dir_overhead_pct = dir_bytes as f64 / wah_bytes as f64 * 100.0;
    note(&format!(
        "index bytes: {wah_bytes} WAH, {dir_bytes} rank/select \
         ({dir_overhead_pct:.2}% overhead), {summary_bytes} chunk summaries"
    ));
    assert!(
        dir_overhead_pct <= 5.0,
        "rank/select directories cost {dir_overhead_pct:.2}% of bitmap bytes (bound: 5%)"
    );

    // 3. Index-only answers: the aligned band region and the plain
    // membership probe never touch data files, on either format.
    let mut band_bytes = [0u64; 2];
    let mut band_io = [0f64; 2];
    for (fi, (tag, store)) in [("v2", &store2), ("v1", &store1)].into_iter().enumerate() {
        for (what, q) in [("band region", &queries[0]), ("membership", &queries[3])] {
            let (res, m) = store.query_with_metrics(q).unwrap();
            black_box(res);
            assert_eq!(m.data_bytes, 0, "{tag}: {what} read data bytes");
            assert!(m.index_bytes > 0, "{tag}: {what} recorded no index reads");
            if what == "band region" {
                band_bytes[fi] = m.index_bytes;
                band_io[fi] = m.io_s;
            }
        }
    }
    note("band region and plain membership are answered from the index alone");
    note(&format!(
        "band region index reads: v2 {} bytes / {:.6}s simulated IO \
         vs v1 {} bytes / {:.6}s",
        band_bytes[0], band_io[0], band_bytes[1], band_io[1]
    ));

    // 2. Summary skips and rank probes, plus the timing comparison.
    let exec = ParallelExecutor::new(1, CostModel::default());
    run_passes(&exec, &store2, &queries, 1); // warmup
    run_passes(&exec, &store1, &queries, 1);
    let (wall2, prof2) = run_passes(&exec, &store2, &queries, passes);
    let (wall1, prof1) = run_passes(&exec, &store1, &queries, passes);

    let skips2 = counter(&prof2, "index.summary_skips") / passes as u64;
    let skips1 = counter(&prof1, "index.summary_skips");
    let hits2 = counter(&prof2, "index.summary_hits") / passes as u64;
    let rank2 = counter(&prof2, "index.rank_calls") / passes as u64;
    assert!(skips2 > 0, "v2 never skipped a full-chunk bitmap");
    assert_eq!(skips1, 0, "v1 has no summaries yet reported skips");
    assert!(rank2 > 0, "membership probes never consulted a directory");

    let stage = |p: &Profile| {
        let s = |path: &[&str]| p.span(path).map_or(0.0, |sp| sp.seconds);
        s(&["plan"]) + s(&["rank", "index-read"])
    };
    let (plan_index2, plan_index1) = (stage(&prof2), stage(&prof1));
    note(&format!(
        "per pass: {skips2} summary skips, {hits2} summary hits, {rank2} rank calls"
    ));
    note(&format!(
        "plan+index-read x{passes}: v2 {plan_index2:.4}s vs v1 {plan_index1:.4}s; \
         wall v2 {wall2:.4}s vs v1 {wall1:.4}s"
    ));

    // The summary level's win in isolation: the band-aligned region is
    // where full-chunk bitmaps dominate, so v2 answers it without ever
    // reading or decoding them.
    let band = &queries[..1];
    let band_passes = passes * 10;
    let (_, band_prof2) = run_passes(&exec, &store2, band, band_passes);
    let (_, band_prof1) = run_passes(&exec, &store1, band, band_passes);
    let (band_pi2, band_pi1) = (stage(&band_prof2), stage(&band_prof1));
    note(&format!(
        "band region plan+index-read x{band_passes}: v2 {band_pi2:.4}s vs v1 {band_pi1:.4}s \
         ({:+.1}%)",
        (band_pi2 / band_pi1 - 1.0) * 100.0
    ));

    // Membership throughput on the two-level index.
    let probe = &queries[4];
    let npoints = (values.len() as u64).div_ceil(7);
    let t = Instant::now();
    for _ in 0..passes {
        black_box(store2.query_serial(probe).unwrap());
    }
    let member_pps = npoints as f64 * passes as f64 / t.elapsed().as_secs_f64();
    note(&format!(
        "membership-with-values: {member_pps:.0} probe points/s over {npoints} points"
    ));

    let json = format!(
        "{{\n  \"bench\": \"index\",\n  \"shape\": [{side}, {side}],\n  \
         \"bins\": {NUM_BINS},\n  \"passes\": {passes},\n  \
         \"wah_bytes\": {wah_bytes},\n  \"dir_bytes\": {dir_bytes},\n  \
         \"dir_overhead_pct\": {dir_overhead_pct:.3},\n  \
         \"summary_bytes\": {summary_bytes},\n  \
         \"summary_skips_per_pass\": {skips2},\n  \
         \"summary_hits_per_pass\": {hits2},\n  \
         \"rank_calls_per_pass\": {rank2},\n  \
         \"plan_index_read_seconds_v2\": {plan_index2:.6},\n  \
         \"plan_index_read_seconds_v1\": {plan_index1:.6},\n  \
         \"band_region_plan_index_read_seconds_v2\": {band_pi2:.6},\n  \
         \"band_region_plan_index_read_seconds_v1\": {band_pi1:.6},\n  \
         \"wall_seconds_v2\": {wall2:.6},\n  \"wall_seconds_v1\": {wall1:.6},\n  \
         \"membership_points_per_sec\": {member_pps:.0},\n  \
         \"profile\": {}\n}}\n",
        prof2.to_json(),
    );
    std::fs::write("BENCH_index.json", &json).expect("cannot write BENCH_index.json");
    note("wrote BENCH_index.json");
}
