//! Property-based and fault-injection tests for the progressive
//! byte-group ladder:
//!
//! * the per-step error bound is monotonically non-increasing;
//! * a cold ladder's per-step `bytes_read` sum to exactly the one-shot
//!   query's `bytes_read` (same extents, different order), and step 0
//!   alone reads what a one-shot level-1 query reads;
//! * the final step is byte-identical to the one-shot answer in every
//!   execution mode (serial, threaded, cached, fused);
//! * with no value constraint, every step is the one-shot answer at the
//!   step's level, bit for bit, and step 0 reads what a one-shot
//!   level-1 query reads, record for record — at 1, 4 and 8 ranks,
//!   replayed and threaded, cold and behind a warm shared cache; with
//!   one, every step has the one-shot answer's positions;
//! * a damaged non-base part extent caps the ladder through the
//!   degradation path, matching the one-shot degraded query's report
//!   and result bit for bit;
//! * on one fixed store, the bytes of every step, the bytes to a 1e-6
//!   bound, warm refinement behind a level-4 cache and the
//!   `progressive.*` counters are pinned exactly.

use mloc::prelude::*;
use mloc::{MlocStore, QueryResult};
use mloc_pfs::{
    BitFlip, CostModel, FaultBackend, FaultPlan, MemBackend, RetryPolicy, StorageBackend,
};
use proptest::prelude::*;
use std::sync::Arc;

const DS: &str = "pg";
const VAR: &str = "v";

/// Deterministic field with enough value spread to fill every bin.
fn field(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Mixed magnitudes and signs, no zeros or subnormals.
            let m = 1.0 + (state % 1_000_000) as f64 / 1_000_000.0;
            let e = ((state >> 20) % 13) as i32 - 6;
            let s = if state & (1 << 40) != 0 { -1.0 } else { 1.0 };
            s * m * 2f64.powi(e)
        })
        .collect()
}

fn build_into(be: &impl StorageBackend, seed: u64) -> Vec<f64> {
    let values = field(seed, 32 * 32);
    let config = MlocConfig::builder(vec![32, 32])
        .chunk_shape(vec![8, 8])
        .num_bins(4)
        .build();
    build_variable(be, DS, VAR, &values, &config).unwrap();
    values
}

fn bits(res: &QueryResult) -> (Vec<u64>, Vec<u64>) {
    (
        res.positions().to_vec(),
        res.values()
            .map(|vs| vs.iter().map(|v| v.to_bits()).collect())
            .unwrap_or_default(),
    )
}

/// A family of value-bearing queries with varied constraint shapes.
fn query_strategy() -> impl Strategy<Value = Query> {
    let regions = (0usize..16, 1usize..17, 0usize..16, 1usize..17).prop_map(|(a, la, b, lb)| {
        Region::new(vec![
            (a * 2, (a * 2 + la * 2).min(32)),
            (b * 2, (b * 2 + lb * 2).min(32)),
        ])
    });
    let levels = 1u8..=7;
    (0u8..3, regions, 0.0f64..32.0, levels).prop_map(|(kind, region, pivot, lvl)| {
        let plod = PlodLevel::new(lvl).unwrap();
        let lo = -pivot - 0.5;
        let hi = pivot + 0.25;
        match kind {
            0 => Query::values_in(region).with_plod(plod),
            1 => Query::values_where(lo, hi).with_plod(plod),
            _ => Query::values_where(lo, hi)
                .with_region(region)
                .with_plod(plod),
        }
    })
}

/// Run the ladder to completion, checking monotonicity along the way.
/// Returns the total bytes read and the final result.
fn drain(pq: &mut mloc::ProgressiveQuery<'_, '_>) -> u64 {
    let mut total = pq.steps()[0].bytes_read;
    let mut prev = f64::INFINITY;
    for s in pq.steps() {
        assert!(s.error_bound <= prev, "bound grew at step {}", s.step);
        prev = s.error_bound;
    }
    while let Some(s) = pq.next_refinement().unwrap() {
        assert!(
            s.error_bound <= prev,
            "bound grew at step {}: {} > {}",
            s.step,
            s.error_bound,
            prev
        );
        prev = s.error_bound;
        total += s.bytes_read;
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold serial ladder: byte-sum parity with the one-shot query and
    /// bit parity of the final answer; warm cached ladder: refinements
    /// read nothing the one-shot warm-up didn't already cache.
    #[test]
    fn ladder_matches_one_shot(seed in 1u64..5_000, q in query_strategy()) {
        let be = MemBackend::new();
        build_into(&be, seed);
        let store = MlocStore::open(&be, DS, VAR).unwrap();
        let (oneshot, om) = store.query_with_metrics(&q).unwrap();
        let want = bits(&oneshot);

        let mut pq = store.query_progressive(&q).unwrap();
        // Step 0 is the base-level answer: with no value constraint
        // (so no value-filtered bin, which step 0 must fetch at the
        // target precision) it reads what a one-shot level-1 query
        // reads, not a byte of the higher byte groups.
        if q.vc.is_none() {
            let base = q.clone().with_plod(PlodLevel::new(1).unwrap());
            let (_, bm) = store.query_with_metrics(&base).unwrap();
            prop_assert_eq!(pq.steps()[0].bytes_read, bm.bytes_read, "step-0 footprint");
        }
        let total = drain(&mut pq);
        prop_assert!(pq.is_done());
        prop_assert_eq!(total, om.bytes_read, "cold ladder byte-sum parity");
        prop_assert_eq!(pq.metrics().bytes_read, om.bytes_read);
        prop_assert_eq!(bits(pq.result()), want.clone());
        // The bound lands exactly on the query's target level.
        let target_bound = if q.wants_values() {
            mloc::plod::relative_error_bound(q.plod)
        } else {
            0.0
        };
        prop_assert_eq!(pq.current_error_bound(), target_bound);

        // Warm ladder behind a shared cache: after a one-shot warm-up,
        // refinement steps are served from the cache (data extents are
        // cached per part, so only never-fetched bytes would be read).
        let mut warm_store = MlocStore::open(&be, DS, VAR).unwrap();
        warm_store.set_cache(Some(Arc::new(BlockCache::with_budget_mb(64))));
        warm_store.query_serial(&q).unwrap();
        let mut warm = warm_store.query_progressive(&q).unwrap();
        drain(&mut warm);
        prop_assert_eq!(bits(warm.result()), want);
        let refine_read: u64 = warm.steps().iter().skip(1).map(|s| s.bytes_read).sum();
        prop_assert_eq!(refine_read, 0, "warm refinements must be cache-served");
    }

    /// The final result is byte-identical across every execution mode.
    #[test]
    fn final_step_is_identical_in_every_exec_mode(seed in 1u64..5_000, q in query_strategy()) {
        let be = MemBackend::new();
        build_into(&be, seed);
        let store = MlocStore::open(&be, DS, VAR).unwrap();
        let want = bits(&store.query_serial(&q).unwrap());

        // Serial, threaded(4), cached, fused — one ladder each.
        let run = |store: &MlocStore<'_>, exec: &ParallelExecutor| {
            let mut pq = exec.progressive(store, &q).unwrap();
            pq.run_to_completion().unwrap();
            bits(pq.result())
        };
        prop_assert_eq!(run(&store, &ParallelExecutor::serial()), want.clone());
        let threaded = ParallelExecutor::new(4, CostModel::default()).threaded(true);
        prop_assert_eq!(run(&store, &threaded), want.clone());
        let mut cached = MlocStore::open(&be, DS, VAR).unwrap();
        cached.set_cache(Some(Arc::new(BlockCache::with_budget_mb(64))));
        prop_assert_eq!(run(&cached, &ParallelExecutor::serial()), want.clone());
        // Run the cached ladder again: now every refinement is warm.
        prop_assert_eq!(run(&cached, &ParallelExecutor::serial()), want.clone());
        let mut fused = MlocStore::open(&be, DS, VAR).unwrap();
        fused.set_fusion(Some(Arc::new(ExtentFuser::with_window_mb(16))));
        prop_assert_eq!(run(&fused, &ParallelExecutor::serial()), want);
    }

    /// Step 0 is the one-shot engine at level 1, and each pull lands on
    /// the one-shot answer at its level: with no value constraint, the
    /// positions and value bits of every step, and step 0's every read
    /// record per rank; with one (its value-filtered bins answered at
    /// the target level from step 0 on), the positions of every step.
    /// At 1, 4 and 8 ranks, replayed and threaded, cold and warm.
    #[test]
    fn every_step_is_the_one_shot_answer_at_its_level(
        seed in 1u64..5_000,
        q in query_strategy(),
    ) {
        let be = MemBackend::new();
        build_into(&be, seed);
        let store = MlocStore::open(&be, DS, VAR).unwrap();
        let vc_free = q.vc.is_none();
        let level = |l: u8| PlodLevel::new(l).unwrap();
        // The one-shot answer at each level the ladder can stop at.
        let oneshot: Vec<_> = (1..=7)
            .map(|l| bits(&store.query_serial(&q.clone().with_plod(level(l))).unwrap()))
            .collect();
        let base = q.clone().with_plod(level(1));
        for (ranks, threaded) in [(1, false), (4, false), (8, false), (4, true), (8, true)] {
            let exec = ParallelExecutor::new(ranks, CostModel::default()).threaded(threaded);
            let mut cached = MlocStore::open(&be, DS, VAR).unwrap();
            cached.set_cache(Some(Arc::new(BlockCache::with_budget_mb(64))));
            // Warm the cache with the level-1 answer's blocks.
            exec.run(&cached, ExecRequest::new(&base)).unwrap();
            for (mode, store) in [("cold", &store), ("warm", &cached)] {
                let tag = format!("{mode}, {ranks} ranks, threaded {threaded}");
                let mut pq = exec.progressive(store, &q).unwrap();
                let base_run = exec.run(store, ExecRequest::new(&base)).unwrap();
                if vc_free {
                    prop_assert_eq!(pq.step0_traces(), &base_run.traces[..], "{}", tag);
                }
                loop {
                    let step = pq.steps().last().unwrap();
                    let want = &oneshot[step.level.level() as usize - 1];
                    if vc_free {
                        prop_assert_eq!(&bits(pq.result()), want, "{}, step {}", tag, step.step);
                    } else {
                        let target = &oneshot[q.plod.level() as usize - 1];
                        prop_assert_eq!(pq.result().positions(), &target.0[..], "{}", tag);
                    }
                    if pq.next_refinement().unwrap().is_none() {
                        break;
                    }
                }
            }
        }
    }
}

/// What the ladder costs on one fixed store (256² GTS-like field, 32²
/// chunks, 16 bins, deflate, seed 42; `values_in` over the quarter
/// domain, so every touched bin is refinable). The byte counts are
/// exact functions of the built files and the ladder planner: a change
/// in either re-derives them deliberately, never as noise. (Format v3
/// did once: step 0 read 198,200 bytes when each of the 16 bins had two
/// 24-byte footer trailers, 197,688 with its table sizes and two table
/// CRCs in their place — 32 bytes fewer per bin. Format v4 did too:
/// 190,034, the same bitmaps read as run lists, 7,654 bytes fewer. And
/// format v5: 91,730, each bin's 6,400-byte chunk directory gone and a
/// 4-byte count per chunk in its summary, 6,144 bytes fewer a bin. And
/// format v6: 78,034, each bin's summary extent — now in the meta — its
/// table entry and the two table sizes gone, 856 bytes fewer a bin; the
/// region holds whole chunks, so the planner culls only units with no
/// points, which read nothing before either. And format v7: 65,955,
/// each unit part its payload alone — every part of the noisy low
/// byte groups is its raw bytes, so a pull reads exactly one byte a
/// point, 16,384, where each part's stream framing made it 19,786.)
#[test]
fn ladder_bytes_on_a_fixed_store_are_pinned() {
    const SIDE: usize = 256;
    let be = MemBackend::new();
    let field = mloc_datagen::gts_like_2d(SIDE, SIDE, 42);
    let config = MlocConfig::builder(vec![SIDE, SIDE])
        .chunk_shape(vec![SIDE / 8, SIDE / 8])
        .num_bins(16)
        .codec(mloc_compress::CodecKind::Deflate)
        .build();
    build_variable(&be, DS, VAR, field.values(), &config).unwrap();
    let store = MlocStore::open(&be, DS, VAR).unwrap();
    let q = Query::values_in(Region::new(vec![(0, SIDE / 2), (0, SIDE / 2)]));

    // Cold: the base answer, then one byte group per pull.
    let mut pq = store.query_progressive(&q).unwrap();
    pq.run_to_completion().unwrap();
    let bytes_per_step: Vec<u64> = pq.steps().iter().map(|s| s.bytes_read).collect();
    assert_eq!(
        bytes_per_step,
        [65_955, 16_384, 16_384, 16_384, 16_384, 16_384, 16_384]
    );
    // Early exit: a 1e-6 worst-case relative bound takes three steps.
    let steps_to_eps = 1 + pq
        .steps()
        .iter()
        .position(|s| s.error_bound <= 1e-6)
        .unwrap();
    assert_eq!(steps_to_eps, 3);
    assert_eq!(bytes_per_step[..steps_to_eps].iter().sum::<u64>(), 98_723);
    // What each step costs on the simulated PFS, and the cumulative
    // figures: a pull is priced like a one-rank run, so the ladder's
    // per-rank vector carries every step it took.
    let io_bits: Vec<u64> = pq.steps().iter().map(|s| s.io_s.to_bits()).collect();
    let pull = 0x3fc3_7686_8bbc_7de8;
    assert_eq!(
        io_bits,
        [0x3fd1_ef1f_3cdc_2960, pull, pull, pull, pull, pull, pull]
    );
    let m = pq.metrics();
    assert_eq!(
        (m.nranks, m.seeks, m.index_bytes, m.data_bytes),
        (1, 128, 13_890, 150_369)
    );
    assert_eq!((m.cache_hits, m.cache_misses), (0, 0));
    assert_eq!(m.per_rank_io.iter().sum::<f64>(), m.io_s);

    // Warm: behind a cache holding levels 1–4, the refinements up to
    // level 4 read nothing and the rest read only the new byte groups.
    const WARM_LEVEL: u8 = 4;
    let mut warm_store = MlocStore::open(&be, DS, VAR).unwrap();
    warm_store.set_cache(Some(Arc::new(BlockCache::with_budget_mb(256))));
    warm_store
        .query_serial(&q.clone().with_plod(PlodLevel::new(WARM_LEVEL).unwrap()))
        .unwrap();
    let mut warm = warm_store.query_progressive(&q).unwrap();
    warm.run_to_completion().unwrap();
    let (mut below, mut above) = (0u64, 0u64);
    for s in warm.steps().iter().skip(1) {
        if s.level.level() <= WARM_LEVEL {
            below += s.bytes_read;
        } else {
            above += s.bytes_read;
        }
    }
    assert_eq!((below, above), (0, 49_152));

    // The profile's `progressive.*` counters are the step log.
    let exec = ParallelExecutor::serial().profiled(true);
    let mut profiled = exec.progressive(&store, &q).unwrap();
    profiled.run_to_completion().unwrap();
    let profile = profiled.profile();
    assert_eq!(
        profile.counter_total("progressive.steps"),
        profiled.steps().len() as u64
    );
    assert_eq!(
        profile.counter_total("progressive.bytes_per_step"),
        bytes_per_step.iter().sum::<u64>()
    );
}

/// Locate the on-disk extent of one non-base PLoD part unit.
fn part_extent(be: &impl StorageBackend, bin: usize, part: usize) -> (String, u64, u32) {
    let file = format!("{DS}/{VAR}/bin{bin:04}.bin");
    let raw = be.read(&file, 0, be.len(&file).unwrap()).unwrap();
    let store = MlocStore::open(be, DS, VAR).unwrap();
    let idx = store.parse_fixed(bin, &raw).unwrap();
    let rank = (0..store.grid().num_chunks())
        .find(|&r| store.summaries().get(bin, r).count > 0)
        .expect("bin has a populated chunk");
    let loc = idx.unit(rank, part).unwrap();
    assert!(loc.clen > 0, "part unit is empty");
    (file, loc.offset, loc.clen)
}

/// A damaged non-base part extent caps the ladder instead of failing
/// it, and the capped ladder matches the one-shot degraded query:
/// same events, same (nonzero) error bound, bit-identical values.
#[test]
fn faulted_extent_caps_ladder_matching_one_shot_degradation() {
    let clean = MemBackend::new();
    build_into(&clean, 77);
    const PART: usize = 4;
    let (dat, off, clen) = part_extent(&clean, 1, PART);

    let mut plan = FaultPlan::none();
    plan.flips.push(BitFlip {
        file: dat,
        // Mid-extent: inside the checksummed payload.
        offset: off + u64::from(clen) / 2,
        mask: 0x20,
    });
    let fb = FaultBackend::new(MemBackend::new(), plan);
    build_into(&fb, 77);

    let store = MlocStore::open(&fb, DS, VAR).unwrap();
    let q = Query::values_where(f64::MIN, f64::MAX);
    let (oneshot, om) = store.query_with_metrics(&q).unwrap();
    assert!(om.degradation.is_degraded(), "flip missed the read path");
    assert!(om.degradation.error_bound() > 0.0);

    let mut pq = store.query_progressive(&q).unwrap();
    pq.run_to_completion().unwrap();
    let m = pq.metrics();
    assert!(m.degradation.is_degraded());
    // The ladder reports the same loss with the same bound...
    assert_eq!(m.degradation.error_bound(), om.degradation.error_bound());
    assert_eq!(
        m.degradation.affected_points(),
        om.degradation.affected_points()
    );
    let key = |e: &mloc::DegradationEvent| (e.bin, e.chunk_rank, e.lost_part);
    let mut got: Vec<_> = m.degradation.events.iter().map(key).collect();
    let mut want: Vec<_> = om.degradation.events.iter().map(key).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
    // ...the final bound is frozen at the capped level, not 0...
    assert_eq!(pq.current_error_bound(), om.degradation.error_bound());
    assert!(pq.steps().last().unwrap().capped_units > 0);
    // ...and the degraded values are bit-identical to the one-shot
    // degraded assembly.
    assert_eq!(bits(pq.result()), bits(&oneshot));
}

/// With degradation disallowed, the ladder fails on the damaged
/// refinement exactly like the one-shot query does.
#[test]
fn faulted_extent_fails_ladder_when_degradation_disallowed() {
    let clean = MemBackend::new();
    build_into(&clean, 78);
    let (dat, off, clen) = part_extent(&clean, 0, 3);
    let mut plan = FaultPlan::none();
    plan.flips.push(BitFlip {
        file: dat,
        offset: off + u64::from(clen) / 2,
        mask: 0x02,
    });
    let fb = FaultBackend::new(MemBackend::new(), plan);
    build_into(&fb, 78);

    let store = MlocStore::open(&fb, DS, VAR).unwrap();
    let q = Query::values_where(f64::MIN, f64::MAX);
    let exec = ParallelExecutor::serial().allow_degraded(false);
    assert!(exec.execute(&store, &q).is_err());
    // The ladder surfaces the same corruption — at step 0 if the
    // damaged extent falls inside a coalesced base read, otherwise on
    // the refinement pull that needs it.
    let err = match exec.progressive(&store, &q) {
        Err(e) => e,
        Ok(mut pq) => pq.run_to_completion().unwrap_err(),
    };
    assert!(err.is_corruption(), "wrong error class: {err}");
}

/// A refinement pull whose reads run out of retry budget caps its
/// units *and* reports the abandoned reads: the ladder's cumulative
/// `retries_exhausted` counts exactly the units capped for that reason
/// (one abandoned per-want read each), like a one-shot execution's.
#[test]
fn ladder_counts_reads_abandoned_for_lack_of_retry_budget() {
    // One bin, so a pull is one coalesced read plus its per-want
    // fallback, and the whole ladder is refinable.
    let build = |be: &dyn StorageBackend| {
        let config = MlocConfig::builder(vec![16, 16])
            .chunk_shape(vec![8, 8])
            .num_bins(1)
            .build();
        build_variable(be, DS, VAR, &field(91, 16 * 16), &config).unwrap();
    };
    let clean = MemBackend::new();
    build(&clean);
    // Every read fails twice before it succeeds.
    let fb = FaultBackend::new(MemBackend::new(), FaultPlan::transient(5, 1.0, 2));
    build(&fb);

    // Warm a shared cache with everything step 0 needs from the clean
    // twin, so only refinement pulls meet the faults.
    let cache = Arc::new(BlockCache::with_budget_mb(16));
    let q = Query::values_in(Region::full(&[16, 16]));
    let base = q.clone().with_plod(PlodLevel::new(1).unwrap());
    let warm = MlocStore::open(&clean, DS, VAR)
        .unwrap()
        .with_cache(Arc::clone(&cache));
    warm.query_serial(&base).unwrap();

    let store = (0..4)
        .find_map(|_| MlocStore::open(&fb, DS, VAR).ok())
        .expect("the open outlasts its transient faults")
        .with_cache(cache);
    // Two attempts: the merged read fails after its one retry (1 ms of
    // backoff). The budget has no room for a second backoff, so every
    // per-want fallback read is abandoned on its first failure.
    let policy = RetryPolicy::with_attempts(2).with_budget_s(1.5e-3);
    let mut pq = ParallelExecutor::serial()
        .with_retry(policy)
        .progressive(&store, &q)
        .unwrap();
    assert_eq!(pq.metrics().bytes_read, 0, "step 0 was meant to be warm");
    pq.run_to_completion().unwrap();

    let m = pq.metrics();
    let starved = m
        .degradation
        .events
        .iter()
        .filter(|e| e.reason.contains("retry budget exhausted"))
        .count() as u64;
    assert_eq!(starved, 4, "all four units lose part 1 to the budget");
    assert_eq!(m.retries_exhausted, starved);
    assert_eq!(m.degraded_units, starved);
    assert_eq!(pq.steps().last().unwrap().capped_units, starved);
}
