//! Progressive-retrieval driver: measures what the byte-group ladder
//! buys for interactive exploration and emits `BENCH_progressive.json`.
//!
//! Checked, mirroring the acceptance bar:
//!
//! 1. **Step-0 footprint** — the ladder's first answer reads exactly
//!    the bytes of a one-shot level-1 query (index + base parts), not
//!    a byte of the higher byte groups.
//! 2. **Byte parity** — the cold ladder's per-step reads sum to the
//!    one-shot full-precision query's `bytes_read`.
//! 3. **Warm refinement** — behind a shared cache warmed to level L,
//!    a full ladder reads nothing for parts below L and only the new
//!    byte groups above it.
//! 4. **Early exit** — reaching a 1e-6 worst-case relative bound costs
//!    a fraction of the full fetch, in bytes and simulated seconds.
//!
//! Run with: `cargo run --release -p mloc-bench --bin progressive_bench`
//! (`--scale large` for a 512² field).

use mloc::obs::Profile;
use mloc::prelude::*;
use mloc_bench::report::{note, title};
use mloc_bench::HarnessArgs;
use mloc_compress::CodecKind;
use mloc_datagen::gts_like_2d;
use mloc_pfs::MemBackend;
use std::sync::Arc;

const DS: &str = "pb";
const VAR: &str = "v";
const NUM_BINS: usize = 16;
const EPS: f64 = 1e-6;

fn build(be: &MemBackend, side: usize, seed: u64) -> usize {
    let field = gts_like_2d(side, side, seed);
    let config = MlocConfig::builder(vec![side, side])
        .chunk_shape(vec![side / 8, side / 8])
        .num_bins(NUM_BINS)
        .codec(CodecKind::Deflate)
        .build();
    build_variable(be, DS, VAR, field.values(), &config).unwrap();
    field.values().len()
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
    let be = MemBackend::new();
    build(&be, side, args.seed);
    let store = MlocStore::open(&be, DS, VAR).unwrap();

    // A spatial value query over a quarter of the domain: every
    // touched bin is refinable (no value constraint to re-check).
    let region = Region::new(vec![(0, side / 2), (0, side / 2)]);
    let q = Query::values_in(region.clone());

    title(&format!(
        "Progressive ladder: {side}x{side} field, {NUM_BINS} bins, {} points in scope",
        side * side / 4
    ));

    // 1. Step 0 reads exactly what a one-shot base-level query reads.
    let (_, m_base) = store
        .query_with_metrics(&q.clone().with_plod(PlodLevel::new(1).unwrap()))
        .unwrap();
    let (res_full, m_full) = store.query_with_metrics(&q).unwrap();

    let mut pq = store.query_progressive(&q).unwrap();
    let step0_bytes = pq.steps()[0].bytes_read;
    assert_eq!(
        step0_bytes, m_base.bytes_read,
        "step 0 must read only index + base-part bytes"
    );
    pq.run_to_completion().unwrap();
    let steps = pq.steps().to_vec();
    let bytes_per_step: Vec<u64> = steps.iter().map(|s| s.bytes_read).collect();
    let bound_per_step: Vec<f64> = steps.iter().map(|s| s.error_bound).collect();
    let ladder_total: u64 = bytes_per_step.iter().sum();

    // 2. Cold byte parity with the one-shot query.
    assert_eq!(
        ladder_total, m_full.bytes_read,
        "cold ladder bytes must sum to the one-shot read"
    );
    for (a, b) in pq
        .result()
        .values()
        .unwrap()
        .iter()
        .zip(res_full.values().unwrap())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "final step drifted from one-shot");
    }
    note(&format!(
        "step 0: {} of {} one-shot bytes ({:.1}%), bound {:.3e}",
        step0_bytes,
        m_full.bytes_read,
        step0_bytes as f64 / m_full.bytes_read as f64 * 100.0,
        bound_per_step[0]
    ));
    note(&format!("per-step bytes: {bytes_per_step:?}"));

    // 4. Early exit at the target bound.
    let to_eps = steps
        .iter()
        .position(|s| s.error_bound <= EPS)
        .expect("EPS is reachable");
    let bytes_to_eps: u64 = bytes_per_step[..=to_eps].iter().sum();
    let io_to_eps: f64 = steps[..=to_eps].iter().map(|s| s.io_s).sum();
    let ladder_io: f64 = steps.iter().map(|s| s.io_s).sum();
    assert!(
        bytes_to_eps < m_full.bytes_read,
        "reaching {EPS:e} should cost less than the full fetch"
    );
    note(&format!(
        "to bound {EPS:e}: {} steps, {bytes_to_eps} bytes ({:.1}% of full), \
         {io_to_eps:.4}s sim IO ({:.1}% of ladder total {ladder_io:.4}s)",
        to_eps + 1,
        bytes_to_eps as f64 / m_full.bytes_read as f64 * 100.0,
        io_to_eps / ladder_io * 100.0
    ));

    // 3. Warm refinement behind a shared cache: warm to level 4, then
    // ladder to full — parts below the warmed level are cache-served,
    // only the genuinely new byte groups are read.
    let mut warm_store = MlocStore::open(&be, DS, VAR).unwrap();
    warm_store.set_cache(Some(Arc::new(BlockCache::with_budget_mb(256))));
    const WARM_LEVEL: u8 = 4;
    warm_store
        .query_serial(&q.clone().with_plod(PlodLevel::new(WARM_LEVEL).unwrap()))
        .unwrap();
    let mut warm = warm_store.query_progressive(&q).unwrap();
    warm.run_to_completion().unwrap();
    let mut warm_below = 0u64;
    let mut warm_above = 0u64;
    for s in warm.steps().iter().skip(1) {
        // Refinement step k applies part k (level k+1).
        if s.level.level() <= WARM_LEVEL {
            warm_below += s.bytes_read;
        } else {
            warm_above += s.bytes_read;
        }
    }
    assert_eq!(warm_below, 0, "warm refinements re-read cached byte groups");
    assert!(warm_above > 0, "cold byte groups were never read");
    note(&format!(
        "warm (cache at level {WARM_LEVEL}): 0 bytes re-read below, \
         {warm_above} bytes of new byte groups above"
    ));

    // Obs counters on a profiled ladder.
    let exec = ParallelExecutor::serial().profiled(true);
    let mut prof_pq = exec.progressive(&store, &q).unwrap();
    prof_pq.run_to_completion().unwrap();
    let profile = prof_pq.profile().clone();
    assert_eq!(
        counter(&profile, "progressive.steps"),
        steps.len() as u64,
        "progressive.steps counter disagrees with the step log"
    );
    assert_eq!(
        counter(&profile, "progressive.bytes_per_step"),
        ladder_total,
        "bytes_per_step counters must sum to the ladder total"
    );

    let fmt_u64s = |v: &[u64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let bounds_json = bound_per_step
        .iter()
        .map(|b| format!("{b:e}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"progressive\",\n  \"shape\": [{side}, {side}],\n  \
         \"bins\": {NUM_BINS},\n  \
         \"step0_bytes\": {step0_bytes},\n  \
         \"oneshot_level1_bytes\": {},\n  \
         \"oneshot_full_bytes\": {},\n  \
         \"ladder_total_bytes\": {ladder_total},\n  \
         \"bytes_per_step\": [{}],\n  \
         \"bound_per_step\": [{bounds_json}],\n  \
         \"eps\": {EPS:e},\n  \"steps_to_eps\": {},\n  \
         \"bytes_to_eps\": {bytes_to_eps},\n  \
         \"io_seconds_to_eps\": {io_to_eps:.6},\n  \
         \"ladder_io_seconds\": {ladder_io:.6},\n  \
         \"warm_refine_bytes_below_cached_level\": {warm_below},\n  \
         \"warm_refine_bytes_above_cached_level\": {warm_above},\n  \
         \"profile\": {}\n}}\n",
        m_base.bytes_read,
        m_full.bytes_read,
        fmt_u64s(&bytes_per_step),
        to_eps + 1,
        profile.to_json(),
    );
    std::fs::write("BENCH_progressive.json", &json).expect("cannot write BENCH_progressive.json");
    note("wrote BENCH_progressive.json");
}
