//! The two single-client query workloads.
//!
//! Both are closed loops with one client: the next op is issued only
//! when the previous one has returned. Queries run on a single-rank
//! replay executor, so the system under test uses one thread.

use crate::common::{
    self, geometry, Arm, Built, Ctx, Op, Outcome, Phase, Schedule, Setups, FIELD_N,
    FULL_CHECK_EVERY, SETUP_REPEATS,
};
use crate::gen::{QueryGen, QuerySpec, Rng, Zipf};
use crate::ledger::{self, Marks, PfsMark};
use crate::metrics::Values;
use crate::oracle::Oracle;
use crate::probes;
use crate::stats;
use crate::sut::{self, Backend, Exec, Variant};
use crate::trace::Recorder;
use std::sync::Arc;

/// `explore_cold`: mix cycles in the op list. One cycle is 16 ops.
const COLD_CYCLES: usize = 20;
/// `explore_warm`: hot pool sizes and the op-list length.
const WARM_SC_POOL: usize = 64;
const WARM_VC_POOL: usize = 32;
const WARM_OPS: usize = 400;
/// `explore_warm`: block-cache budget; the working set fits.
const WARM_CACHE_MB: u64 = 256;
/// Points of one membership probe.
const MEMBERSHIP_POINTS: usize = 4096;

/// A workload's fixed op list: `pool` holds the distinct ops,
/// `warmup` and `sequence` index into it.
struct OpList {
    pool: Vec<Op>,
    /// Untimed pass run once per arm before the timed phase.
    warmup: Vec<usize>,
    /// The timed lap, walked cyclically in slices of `slice` ops.
    sequence: Vec<usize>,
    slice: usize,
}

/// The paper's Tables II/III/V mix: per cycle seven query kinds on
/// both COL and ISO (the same query on each), two reduced-precision
/// PLoD reads on COL — 16 ops.
fn cold_ops(oracle: &Oracle<'_>, sorted: &[f64], seed: u64) -> OpList {
    let mut g = QueryGen::new(sorted, geometry().shape, seed);
    let mut pool = Vec::new();
    let n = COLD_CYCLES;
    for k in 0..n {
        let both = |pool: &mut Vec<Op>, kind: &'static str, spec: QuerySpec| {
            pool.push(Op::new(oracle, kind, Variant::Col, spec.clone(), false));
            pool.push(Op::new(oracle, kind, Variant::Iso, spec, false));
        };
        both(
            &mut pool,
            "vc_region_1",
            QuerySpec::vc_region(g.value_constraint(0.01, k, n)),
        );
        both(
            &mut pool,
            "vc_region_10",
            QuerySpec::vc_region(g.value_constraint(0.10, k, n)),
        );
        both(
            &mut pool,
            "vc_values_1",
            QuerySpec::vc_values(g.value_constraint(0.01, k, n)),
        );
        both(
            &mut pool,
            "sc_values_0.1",
            QuerySpec::sc_values(g.region(0.001, k, n)),
        );
        both(
            &mut pool,
            "sc_values_1",
            QuerySpec::sc_values(g.region(0.01, k, n)),
        );
        both(
            &mut pool,
            "sc_values_10",
            QuerySpec::sc_values(g.region(0.10, k, n)),
        );
        // PLoD level 1 keeps 2 bytes per value, level 2 keeps 3.
        for (kind, level) in [("sc_plod2_10", 1), ("sc_plod3_10", 2)] {
            let spec = QuerySpec::sc_plod(g.region(0.10, k, n), level);
            pool.push(Op::new(oracle, kind, Variant::Col, spec, false));
        }
        let vc = g.value_constraint(0.10, k, n);
        both(
            &mut pool,
            "membership",
            QuerySpec::membership(vc, g.points(MEMBERSHIP_POINTS)),
        );
    }
    let sequence: Vec<usize> = (0..pool.len()).collect();
    OpList {
        slice: pool.len() / n,
        pool,
        warmup: Vec::new(),
        sequence,
    }
}

/// A revisiting analyst: a hot pool of 64 SC 1 % regions and 32 VC 1 %
/// constraints on COL, drawn Zipf(1.0); every 10th op climbs a
/// progressive ladder over one of the SC regions.
fn warm_ops(oracle: &Oracle<'_>, sorted: &[f64], seed: u64) -> OpList {
    let mut g = QueryGen::new(sorted, geometry().shape, seed);
    let mut pool = Vec::new();
    // Interleave so the Zipf head holds both kinds: two SC, one VC.
    let (mut sc, mut vc) = (0, 0);
    let mut sc_items = Vec::new();
    while sc < WARM_SC_POOL || vc < WARM_VC_POOL {
        for _ in 0..2 {
            if sc < WARM_SC_POOL {
                let spec = QuerySpec::sc_values(g.region(0.01, sc, WARM_SC_POOL));
                sc_items.push(spec.clone());
                pool.push(Op::new(oracle, "sc_values_1", Variant::Col, spec, false));
                sc += 1;
            }
        }
        if vc < WARM_VC_POOL {
            let c = g.value_constraint(0.01, vc, WARM_VC_POOL);
            let (kind, spec) = if vc % 2 == 0 {
                ("vc_region_1", QuerySpec::vc_region(c))
            } else {
                ("vc_values_1", QuerySpec::vc_values(c))
            };
            pool.push(Op::new(oracle, kind, Variant::Col, spec, false));
            vc += 1;
        }
    }
    let hot = pool.len();
    let warmup: Vec<usize> = (0..hot).collect();
    // The ladders revisit the same SC regions.
    for spec in sc_items {
        pool.push(Op::new(
            oracle,
            "progressive_sc_1",
            Variant::Col,
            spec,
            true,
        ));
    }
    let zipf_hot = Zipf::new(hot, 1.0);
    let zipf_sc = Zipf::new(WARM_SC_POOL, 1.0);
    let mut rng = Rng::new(seed ^ 0x5EED_0F21);
    let sequence = (0..WARM_OPS)
        .map(|j| {
            if j % 10 == 9 {
                hot + zipf_sc.sample(&mut rng)
            } else {
                zipf_hot.sample(&mut rng)
            }
        })
        .collect();
    OpList {
        pool,
        warmup,
        sequence,
        slice: 10,
    }
}

/// The SC regions a workload issues, for the curve probe.
fn sc_regions(list: &OpList) -> Vec<Vec<(usize, usize)>> {
    list.pool
        .iter()
        .filter_map(|op| op.spec.sc.clone())
        .collect()
}

fn run(
    ctx: &Ctx,
    variants: &[Variant],
    cache_mb: Option<u64>,
    make_ops: impl FnOnce(&Oracle<'_>, &[f64], u64) -> OpList,
) -> Result<Outcome, String> {
    let mut setups = Setups::new(ctx, variants);
    let Built { raw, dir, builds } = setups.run()?;
    let mut sorted = raw.clone();
    sorted.sort_by(f64::total_cmp);
    let oracle = Oracle::new(&raw, &sorted, vec![FIELD_N, FIELD_N]);
    let list = make_ops(&oracle, &sorted, ctx.seed);

    // Arm 0 is untraced; `--trace 1` adds the traced arm.
    let rec = ctx.trace.then(|| Arc::new(Recorder::new()));
    let plain = Backend::open(&dir, None)?;
    let timed = match &rec {
        Some(r) => Some(Backend::open(&dir, Some(Arc::clone(r)))?),
        None => None,
    };
    let open_all = |b| -> Result<Vec<_>, String> {
        variants
            .iter()
            .map(|&v| Ok((v, sut::open(b, v, cache_mb)?)))
            .collect()
    };
    let mut arms = vec![Arm::new(None, open_all(&plain)?)];
    if let Some(b) = &timed {
        arms.push(Arm::new(rec.clone(), open_all(b)?));
    }
    let exec = Exec::one_rank();

    for arm in &mut arms {
        for (i, &op) in list.warmup.iter().enumerate() {
            arm.run_op(
                &exec,
                &oracle,
                &list.pool[op],
                op,
                Phase::WarmUp,
                i.is_multiple_of(FULL_CHECK_EVERY),
            );
        }
    }

    let traced = arms.len() - 1;
    let mark = |arm: &Arm<'_>| match (&rec, &timed) {
        (Some(r), Some(b)) => (
            PfsMark::take(r, b),
            arm.stores[0].1.cache().unwrap_or_default(),
        ),
        _ => Default::default(),
    };
    let mut marks = Marks::default();
    (marks.start, marks.cache_start) = mark(&arms[traced]);
    let slices = list.sequence.len() / list.slice;
    let mut schedule = Schedule::new(arms.len(), slices);
    let mut run_slice = |a: usize, slice: usize, lap: usize| {
        let arm = &mut arms[a];
        let before = arm.records.len();
        for i in slice * list.slice..(slice + 1) * list.slice {
            let op = list.sequence[i];
            arm.run_op(
                &exec,
                &oracle,
                &list.pool[op],
                op,
                Phase::of_lap(lap),
                (i + lap).is_multiple_of(FULL_CHECK_EVERY),
            );
        }
        if a == traced && lap == 0 && slice == slices - 1 {
            marks.first = mark(arm).0;
        }
        Ok(arm.records[before..].iter().map(|r| r.wall_s).sum())
    };
    // The timed phase, in as many segments as the run sets up, with the
    // remaining set-ups in between; at least one full lap in all.
    let segment_s = ctx.seconds / SETUP_REPEATS as f64;
    for k in 1..=SETUP_REPEATS {
        let min_done = if k == SETUP_REPEATS { slices } else { 0 };
        schedule.run_for(segment_s, min_done, &mut run_slice)?;
        if k < SETUP_REPEATS {
            setups.run()?;
        }
    }
    (marks.end, marks.cache_end) = mark(&arms[traced]);

    let mut metrics = Values::default();
    let mut notes = Vec::new();
    // One latency sample per op of the timed lap: its pool op's fastest.
    let best_by_pool = |arm: &Arm<'_>| common::best_walls(&arm.records, list.pool.len());
    let samples = |best: &[Option<f64>]| -> Vec<f64> {
        list.sequence.iter().filter_map(|&op| best[op]).collect()
    };
    if let Some(r) = &rec {
        let arm = &arms[traced];
        notes.extend(ledger::set_query_ledger(
            &mut metrics,
            &arm.records,
            r,
            &marks,
        ));
        common::set_build_metrics(&mut metrics, &builds);
        probes::run_all(&mut metrics, &raw, FIELD_N, &sc_regions(&list), ctx.seed);
        metrics.set(
            "trace.overhead_pct",
            common::overhead_pct(
                &samples(&best_by_pool(&arms[0])),
                &samples(&best_by_pool(arm)),
            ),
        );
        notes.extend(common::finish_trace(ctx, r)?);
    } else {
        let arm = &arms[0];
        let best = best_by_pool(arm);
        let walls = samples(&best);
        common::set_latency_metrics(&mut metrics, &walls);
        // Latency by op kind: the median of each kind's ops.
        let mut kinds: Vec<&'static str> = list.pool.iter().map(|op| op.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        for kind in kinds {
            let of: Vec<f64> = (list.sequence.iter())
                .filter(|&&op| list.pool[op].kind == kind)
                .filter_map(|&op| best[op].map(|s| s * 1e3))
                .collect();
            notes.push(format!(
                "  {kind:<18} p50 {:>9.3} ms over {} ops",
                stats::percentile(&of, 50.0),
                of.len()
            ));
        }
        // Counts over the reference session: warm-up plus first lap.
        let reference: Vec<_> = arm.records.iter().filter(|r| r.phase.reference()).collect();
        let io: Vec<f64> = reference.iter().map(|r| r.m.io_s).collect();
        let bytes: Vec<f64> = reference.iter().map(|r| r.m.bytes_read as f64).collect();
        metrics.set("sim_io_s", stats::mean(&io));
        metrics.set("read_bytes_per_op", stats::mean(&bytes));
        setups.set_metrics(&mut metrics, &builds);
        let timed_walls: Vec<f64> = arm
            .records
            .iter()
            .filter(|r| r.phase.timed())
            .map(|r| r.wall_s)
            .collect();
        let laps: Vec<String> = timed_walls
            .chunks(list.sequence.len())
            .map(|lap| format!("{:.1}", lap.len() as f64 / lap.iter().sum::<f64>()))
            .collect();
        notes.push(format!("ops/s by lap: {}", laps.join(" ")));
        notes.push(format!(
            "{} latency samples ({} beyond p95), each the fastest of its op's runs in \
             {:.1} laps; counts over a reference session of {} ops",
            walls.len(),
            walls.len() / 20,
            timed_walls.len() as f64 / list.sequence.len() as f64,
            reference.len()
        ));
    }

    let attempted = arms.iter().map(|a| a.records.len() as u64).sum();
    let failures: Vec<String> = arms.iter().flat_map(|a| a.failures.clone()).collect();
    for f in failures.iter().take(10) {
        notes.push(format!("FAILED {f}"));
    }
    drop(arms);
    metrics.set("peak_rss_mib", common::peak_rss_mib());
    Ok(Outcome {
        attempted,
        failed: failures.len() as u64,
        metrics,
        notes,
    })
}

/// Tables II/III/V mix with nothing to hide behind: no cache, no
/// fuser, every byte crosses pfs → index → decompress → reconstruct.
pub fn explore_cold(ctx: &Ctx) -> Result<Outcome, String> {
    run(ctx, &[Variant::Col, Variant::Iso], None, cold_ops)
}

/// A hot pool under a cache it fits in: pfs and decompress idle; plan,
/// cache lookup, reconstruct and gather do the work.
pub fn explore_warm(ctx: &Ctx) -> Result<Outcome, String> {
    run(ctx, &[Variant::Col], Some(WARM_CACHE_MB), warm_ops)
}
