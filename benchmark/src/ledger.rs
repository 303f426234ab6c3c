//! The layer ledger of the single-client query workloads
//! (`explore_cold`, `explore_warm`): per-layer rows derived from the
//! traced arm's op records, the storage shim's counters and the fields
//! the public calls already return.
//!
//! With one client and one rank nothing overlaps, so by construction
//!
//! ```text
//! plan + pfs.read_busy + decompress + reconstruct + engine.other
//!     = mean op latency
//! ```
//!
//! and `engine.other_share` is the part the outside view cannot name.

use crate::common::{OpRecord, Phase};
use crate::metrics::Values;
use crate::sut::{Backend, CacheCounters};
use crate::trace::{self, Recorder};

/// Storage counters at one instant of the traced arm.
#[derive(Debug, Clone, Copy, Default)]
pub struct PfsMark {
    requests: u64,
    bytes: u64,
    busy_ns: u64,
    batch_calls: u64,
    batch_requests: u64,
    opens: u64,
}

impl PfsMark {
    pub fn take(rec: &Recorder, backend: &Backend) -> PfsMark {
        PfsMark {
            requests: rec.read_requests(),
            bytes: rec.read_bytes(),
            busy_ns: rec.read_busy_ns(),
            batch_calls: rec.totals(trace::READ_BATCH).calls,
            batch_requests: rec.batch_requests(),
            opens: backend.opens(),
        }
    }
}

/// Marks around the traced arm's timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marks {
    /// When the timed phase starts (after any warm-up).
    pub start: PfsMark,
    /// When the first timed lap ends.
    pub first: PfsMark,
    /// When the timed phase ends.
    pub end: PfsMark,
    pub cache_start: CacheCounters,
    pub cache_end: CacheCounters,
}

fn mean(records: &[&OpRecord], f: impl Fn(&OpRecord) -> f64) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().map(|r| f(r)).sum::<f64>() / records.len() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fill the `pfs`, `plan`, `index`, `engine`, `cache` and
/// `progressive` rows; returns the human-readable ledger lines.
pub fn set_query_ledger(
    metrics: &mut Values,
    records: &[OpRecord],
    rec: &Recorder,
    marks: &Marks,
) -> Vec<String> {
    let first: Vec<&OpRecord> = records.iter().filter(|r| r.phase == Phase::First).collect();
    let timed: Vec<&OpRecord> = records.iter().filter(|r| r.phase.timed()).collect();
    let n_first = first.len() as f64;
    let n_timed = timed.len() as f64;

    // pfs: counts over the first timed lap, busy time over every timed op.
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    metrics.set(
        "pfs.read_calls_per_op",
        ratio(d(marks.first.requests, marks.start.requests), n_first),
    );
    metrics.set(
        "pfs.read_bytes_per_op",
        ratio(d(marks.first.bytes, marks.start.bytes), n_first),
    );
    let pfs_ms = ratio(d(marks.end.busy_ns, marks.start.busy_ns) * 1e-6, n_timed);
    metrics.set("pfs.read_busy_ms_per_op", pfs_ms);
    metrics.set(
        "pfs.batch_depth_mean",
        ratio(
            d(marks.first.batch_requests, marks.start.batch_requests),
            d(marks.first.batch_calls, marks.start.batch_calls),
        ),
    );
    metrics.set("pfs.files_per_op", mean(&first, |r| r.files as f64));
    metrics.set("pfs.opens", d(marks.end.opens, marks.start.opens));
    metrics.set("pfs.sim_seeks_per_op", mean(&first, |r| r.m.seeks as f64));
    metrics.set("pfs.errors", rec.errors() as f64);

    // plan: only ops the harness planned itself (a progressive ladder
    // plans inside its start call).
    let planned_first: Vec<&OpRecord> = first.iter().copied().filter(|r| !r.progressive).collect();
    let planned_timed: Vec<&OpRecord> = timed.iter().copied().filter(|r| !r.progressive).collect();
    let plan_ms = mean(&timed, |r| r.plan_s * 1e3);
    metrics.set(
        "plan.busy_ms_per_op",
        mean(&planned_timed, |r| r.plan_s * 1e3),
    );
    metrics.set(
        "plan.units_per_op",
        mean(&planned_first, |r| r.plan_units as f64),
    );
    metrics.set(
        "plan.bins_per_op",
        mean(&planned_first, |r| r.plan_bins as f64),
    );
    metrics.set(
        "plan.aligned_bins_per_op",
        mean(&planned_first, |r| r.plan_aligned as f64),
    );
    metrics.set(
        "plan.chunks_per_op",
        mean(&planned_first, |r| r.plan_chunks as f64),
    );

    metrics.set(
        "index.bytes_per_op",
        mean(&first, |r| r.m.index_bytes as f64),
    );

    // engine: the program's own component times, plus the residual.
    let dec_ms = mean(&timed, |r| r.m.decompress_s * 1e3);
    let rec_ms = mean(&timed, |r| r.m.reconstruct_s * 1e3);
    let wall_ms = mean(&timed, |r| r.wall_s * 1e3);
    let other_ms = wall_ms - plan_ms - pfs_ms - dec_ms - rec_ms;
    metrics.set("engine.decompress_ms_per_op", dec_ms);
    metrics.set("engine.reconstruct_ms_per_op", rec_ms);
    metrics.set(
        "engine.data_bytes_per_op",
        mean(&first, |r| r.m.data_bytes as f64),
    );
    let logical: f64 = first
        .iter()
        .map(|r| (r.m.bytes_read + r.m.bytes_saved + r.m.fused_bytes_saved) as f64)
        .sum();
    metrics.set(
        "engine.bytes_per_hit",
        ratio(logical, first.iter().map(|r| r.hits as f64).sum()),
    );
    metrics.set("engine.other_ms_per_op", other_ms);
    metrics.set("engine.other_share", ratio(other_ms, wall_ms));

    // cache: the traced arm's own cache over its timed phase.
    let hits = d(marks.cache_end.hits, marks.cache_start.hits);
    let misses = d(marks.cache_end.misses, marks.cache_start.misses);
    metrics.set("cache.hit_ratio", ratio(hits, hits + misses));
    metrics.set(
        "cache.evictions",
        d(marks.cache_end.evictions, marks.cache_start.evictions),
    );
    metrics.set(
        "cache.resident_mib",
        marks.cache_end.resident_bytes as f64 / (1 << 20) as f64,
    );
    metrics.set(
        "cache.bytes_saved_per_op",
        mean(&first, |r| r.m.bytes_saved as f64),
    );

    // progressive: the ladders among the timed ops.
    let ladders_first: Vec<&OpRecord> = first.iter().copied().filter(|r| r.progressive).collect();
    let ladders_timed: Vec<&OpRecord> = timed.iter().copied().filter(|r| r.progressive).collect();
    metrics.set(
        "progressive.steps_per_op",
        mean(&ladders_first, |r| r.steps as f64),
    );
    metrics.set(
        "progressive.bytes_to_eps",
        mean(&ladders_first, |r| r.ladder_bytes as f64),
    );
    metrics.set(
        "progressive.step0_ms",
        mean(&ladders_timed, |r| r.step0_s * 1e3),
    );

    vec![
        format!(
            "ledger over {} traced timed ops (counts over the first {}):",
            timed.len(),
            first.len()
        ),
        format!("  plan                 {plan_ms:>9.4} ms/op"),
        format!("  pfs.read_busy        {pfs_ms:>9.4} ms/op"),
        format!("  engine.decompress    {dec_ms:>9.4} ms/op"),
        format!("  engine.reconstruct   {rec_ms:>9.4} ms/op"),
        format!(
            "  engine.other         {other_ms:>9.4} ms/op  (share {:.3})",
            ratio(other_ms, wall_ms)
        ),
        format!("  = mean op latency    {wall_ms:>9.4} ms/op"),
    ]
}
