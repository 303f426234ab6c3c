//! Discrete-event replay of I/O traces against the cost model.
//!
//! Every rank's recorded [`ReadOp`]s are replayed in order. A read is
//! split at stripe boundaries into per-OST segments; all segments of
//! one op are issued concurrently (Lustre clients fetch stripes in
//! parallel), each OST serves its queue FIFO, and a segment pays a
//! seek when it does not continue exactly where that OST's head left
//! off. The rank's clock advances to the completion of the slowest
//! segment, which yields both single-stream behaviour (seeks + bytes /
//! aggregate bandwidth) and the contention plateau the paper observes
//! when many processes share a fixed set of OSTs (Fig. 7). A cached
//! record ([`ReadOp::cached`]) touches no device and costs nothing.

use crate::backend::ReadOp;
use crate::cost::CostModel;
use std::collections::HashSet;

/// Result of simulating one parallel I/O phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated I/O seconds per rank (completion of its last op).
    pub per_rank_seconds: Vec<f64>,
    /// Total bytes transferred across all ranks.
    pub total_bytes: u64,
    /// Number of seeks paid across all OSTs.
    pub total_seeks: u64,
    /// Number of file opens charged.
    pub total_opens: u64,
    /// Per-rank cost decomposition (same length as `per_rank_seconds`).
    pub per_rank: Vec<RankIoBreakdown>,
}

/// Where one rank's simulated I/O cost went.
///
/// `seek_s`/`open_s`/`transfer_s` are *device-service* seconds summed
/// over this rank's stripe segments. Because segments of one op are
/// served by many OSTs concurrently, their sum can exceed the rank's
/// wall-clock `seconds` (striping parallelism) or fall below it
/// (queueing behind other ranks) — the gap between the two is exactly
/// the parallelism-vs-contention signal the paper's Fig. 7 plots.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankIoBreakdown {
    /// Wall-clock completion of this rank's last op (mirrors
    /// `per_rank_seconds`).
    pub seconds: f64,
    /// Bytes transferred for this rank.
    pub bytes: u64,
    /// Seeks charged to segments this rank issued.
    pub seeks: u64,
    /// File opens charged to this rank.
    pub opens: u64,
    /// Device seconds spent seeking for this rank's segments.
    pub seek_s: f64,
    /// Seconds spent opening files.
    pub open_s: f64,
    /// Device seconds spent transferring this rank's bytes.
    pub transfer_s: f64,
}

impl SimReport {
    /// Wall-clock of the I/O phase: the slowest rank.
    pub fn elapsed(&self) -> f64 {
        self.per_rank_seconds.iter().copied().fold(0.0, f64::max)
    }

    /// Mean per-rank I/O time.
    pub fn mean(&self) -> f64 {
        if self.per_rank_seconds.is_empty() {
            0.0
        } else {
            self.per_rank_seconds.iter().sum::<f64>() / self.per_rank_seconds.len() as f64
        }
    }

    /// Aggregate throughput in bytes/second over the phase.
    pub fn throughput(&self) -> f64 {
        let e = self.elapsed();
        if e > 0.0 {
            self.total_bytes as f64 / e
        } else {
            0.0
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
struct OstState {
    free_at: f64,
    last_file: u64,
    last_end: u64,
    touched: bool,
}

/// Replay `traces` (one op list per rank) against `model`.
pub fn simulate_reads(traces: &[Vec<ReadOp>], model: &CostModel) -> SimReport {
    let nranks = traces.len();
    let mut clocks = vec![0.0f64; nranks];
    let mut osts = vec![
        OstState {
            free_at: 0.0,
            last_file: 0,
            last_end: 0,
            touched: false
        };
        model.num_osts
    ];
    let mut opened: HashSet<(usize, u64)> = HashSet::new();

    let mut total_bytes = 0u64;
    let mut total_seeks = 0u64;
    let mut total_opens = 0u64;
    let mut per_rank = vec![RankIoBreakdown::default(); nranks];
    let window = model.client_parallelism.max(1);

    // Per-rank cursor state. Segments are the event granularity: the
    // global loop always serves the segment with the earliest issue
    // time, so concurrent ranks interleave correctly on the OSTs.
    struct Cursor {
        op_idx: usize,
        /// Name hash of the op in progress: computed once at op start,
        /// it keys the open set and the OST heads and picks the
        /// starting OST of every stripe segment.
        file_hash: u64,
        /// Whether the op at `op_idx` has started: its open charged and
        /// its segments under way. Not implied by `seg_off`, which is
        /// also 0 while a started op at file offset 0 waits its turn.
        started: bool,
        seg_off: u64,
        op_start: f64,
        op_completion: f64,
        inflight: std::collections::VecDeque<f64>,
    }
    let mut cursors: Vec<Cursor> = (0..nranks)
        .map(|_| Cursor {
            op_idx: 0,
            file_hash: 0,
            started: false,
            seg_off: 0,
            op_start: 0.0,
            op_completion: 0.0,
            inflight: std::collections::VecDeque::with_capacity(window),
        })
        .collect();

    // Advance a cursor past zero-length ops and op boundaries; charge
    // open costs at op start. Returns the issue time of the rank's
    // next segment, or None when the trace is exhausted.
    let prepare = |r: usize,
                   cur: &mut Cursor,
                   clocks: &mut [f64],
                   opened: &mut HashSet<(usize, u64)>,
                   total_opens: &mut u64,
                   per_rank: &mut [RankIoBreakdown]|
     -> Option<f64> {
        loop {
            let op = traces[r].get(cur.op_idx)?;
            if !cur.started {
                // Starting a new op: it begins when the previous op's
                // segments have all completed. Cache-served extents
                // never reach the disks — free, like zero-length ops.
                if op.len == 0 || op.cached {
                    cur.op_idx += 1;
                    continue;
                }
                let mut start = clocks[r];
                cur.file_hash = CostModel::file_hash(&op.file);
                if opened.insert((r, cur.file_hash)) {
                    start += model.open_s;
                    *total_opens += 1;
                    per_rank[r].opens += 1;
                    per_rank[r].open_s += model.open_s;
                }
                cur.op_start = start;
                cur.op_completion = start;
                cur.started = true;
                cur.seg_off = op.offset;
                cur.inflight.clear();
            }
            if cur.seg_off >= op.offset + op.len {
                // Op finished: its completion gates the next op.
                clocks[r] = cur.op_completion;
                cur.op_idx += 1;
                cur.started = false;
                continue;
            }
            // A full window issues when its oldest segment completes.
            let issue = match cur.inflight.front() {
                Some(&oldest) if cur.inflight.len() >= window => oldest.max(cur.op_start),
                _ => cur.op_start,
            };
            return Some(issue);
        }
    };

    loop {
        // Pick the rank whose next segment issues earliest.
        let mut pick: Option<(usize, f64)> = None;
        for (r, cur) in cursors.iter_mut().enumerate() {
            if let Some(issue) = prepare(
                r,
                cur,
                &mut clocks,
                &mut opened,
                &mut total_opens,
                &mut per_rank,
            ) {
                if pick.is_none_or(|(_, best)| issue < best) {
                    pick = Some((r, issue));
                }
            }
        }
        // Nothing left to issue: every trace is exhausted.
        let Some((r, issue)) = pick else {
            break;
        };
        let cur = &mut cursors[r];
        let op = &traces[r][cur.op_idx];
        let fh = cur.file_hash;

        // Serve one stripe segment.
        let off = cur.seg_off;
        let end = op.offset + op.len;
        let stripe_end = (off / model.stripe_size + 1) * model.stripe_size;
        let seg_end = stripe_end.min(end);
        let seg_len = seg_end - off;
        let ost = model.ost_of_hashed(fh, off);
        let st = &mut osts[ost];

        // Physical position on the OST: it stores every `num_osts`-th
        // stripe of the file contiguously.
        let phys = (off / model.stripe_size / model.num_osts as u64) * model.stripe_size
            + off % model.stripe_size;

        let begin = st.free_at.max(issue);
        let sequential = st.touched && st.last_file == fh && st.last_end == phys;
        let transfer = seg_len as f64 / model.ost_bw;
        let mut cost = transfer;
        per_rank[r].transfer_s += transfer;
        if !sequential {
            cost += model.seek_s;
            total_seeks += 1;
            per_rank[r].seeks += 1;
            per_rank[r].seek_s += model.seek_s;
        }
        st.free_at = begin + cost;
        st.last_file = fh;
        st.last_end = phys + seg_len;
        st.touched = true;

        if cur.inflight.len() >= window {
            cur.inflight.pop_front();
        }
        cur.inflight.push_back(st.free_at);
        cur.op_completion = cur.op_completion.max(st.free_at);
        cur.seg_off = seg_end;
        total_bytes += seg_len;
        per_rank[r].bytes += seg_len;
    }

    for (b, &t) in per_rank.iter_mut().zip(clocks.iter()) {
        b.seconds = t;
    }
    SimReport {
        per_rank_seconds: clocks,
        total_bytes,
        total_seeks,
        total_opens,
        per_rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(file: &str, offset: u64, len: u64) -> ReadOp {
        ReadOp::new(file, offset, len)
    }

    fn model() -> CostModel {
        CostModel::lens_2012()
    }

    #[test]
    fn empty_trace() {
        let rep = simulate_reads(&[vec![]], &model());
        assert_eq!(rep.elapsed(), 0.0);
        assert_eq!(rep.total_bytes, 0);
    }

    #[test]
    fn single_scan_is_limited_by_client_parallelism() {
        let m = model();
        let size = 1u64 << 30; // 1 GiB
        let rep = simulate_reads(&[vec![op("big", 0, size)]], &m);
        // A single client streams at client_parallelism × OST bandwidth
        // (the paper's sequential scan: ~420 MB/s on Lens), far below
        // the aggregate.
        let ideal = size as f64 / (m.ost_bw * m.client_parallelism as f64);
        let t = rep.elapsed();
        assert!(t > ideal * 0.9, "t={t} vs single-client ideal={ideal}");
        assert!(t < ideal * 1.5 + 0.5, "t={t} too far above ideal={ideal}");
        assert!(
            t > size as f64 / m.aggregate_bw() * 2.0,
            "t={t} too close to aggregate"
        );
        assert_eq!(rep.total_seeks, m.num_osts as u64);
        assert_eq!(rep.total_opens, 1);
    }

    #[test]
    fn many_ranks_reach_aggregate_bandwidth() {
        // Enough concurrent clients saturate all OSTs.
        let m = model();
        let total = 1u64 << 30;
        let nranks = 16u64;
        let share = total / nranks;
        let traces: Vec<Vec<ReadOp>> = (0..nranks)
            .map(|r| vec![op(&format!("f{r}"), 0, share)])
            .collect();
        let t = simulate_reads(&traces, &m).elapsed();
        // Aggregate transfer plus the interleave-seek floor.
        let ideal = total as f64 / m.aggregate_bw();
        assert!(t < ideal * 4.0, "t={t} vs aggregate ideal={ideal}");
        // Far faster than a single client could go.
        let single = total as f64 / (m.ost_bw * m.client_parallelism as f64);
        assert!(t < single * 0.6, "t={t} vs single-client {single}");
    }

    #[test]
    fn scattered_reads_pay_seeks() {
        let m = model();
        // 100 random 4-KiB reads spread megabytes apart: seek-bound.
        let trace: Vec<ReadOp> = (0..100)
            .map(|i| op("f", i * 16 * (1 << 20), 4096))
            .collect();
        let t = simulate_reads(&[trace], &m).elapsed();
        assert!(t >= 100.0 * m.seek_s, "t={t}");
    }

    #[test]
    fn sequential_chunks_do_not_pay_seeks() {
        let m = model();
        // Contiguous 1 MiB reads stripe across OSTs; after each OST's
        // first touch, accesses continue where it left off.
        let trace: Vec<ReadOp> = (0..64).map(|i| op("f", i * (1 << 20), 1 << 20)).collect();
        let rep = simulate_reads(&[trace], &m);
        assert_eq!(rep.total_seeks, m.num_osts as u64);
    }

    #[test]
    fn contention_slows_shared_reads() {
        let m = model();
        let size = 256u64 << 20;
        let solo = simulate_reads(&[vec![op("f", 0, size)]], &m).elapsed();
        // Two ranks scanning the same extent: same OSTs serve twice the
        // bytes and interleaved positions also cost seeks.
        let duo = simulate_reads(&[vec![op("f", 0, size)], vec![op("f", 0, size)]], &m).elapsed();
        assert!(duo > solo * 1.6, "duo={duo} solo={solo}");
    }

    #[test]
    fn io_plateaus_with_more_ranks() {
        // Fixed total work divided over more ranks: elapsed I/O stops
        // improving once OSTs saturate — the Fig. 7 plateau.
        let m = model();
        let total = 1u64 << 30;
        let time_with = |nranks: u64| {
            let share = total / nranks;
            let traces: Vec<Vec<ReadOp>> = (0..nranks)
                .map(|r| vec![op(&format!("bin{r}"), 0, share)])
                .collect();
            simulate_reads(&traces, &m).elapsed()
        };
        let t8 = time_with(8);
        let t32 = time_with(32);
        let t128 = time_with(128);
        assert!(t32 <= t8 * 1.1, "t32={t32} t8={t8}");
        // Diminishing returns: 128 ranks gain little over 32.
        assert!(t128 > t32 * 0.5, "t128={t128} t32={t32}");
    }

    #[test]
    fn different_files_parallelize() {
        let m = model();
        let size = 64u64 << 20;
        // Two ranks on two different files mostly use disjoint OST
        // phases; way faster than double the single time.
        let solo = simulate_reads(&[vec![op("a", 0, size)]], &m).elapsed();
        let duo = simulate_reads(&[vec![op("a", 0, size)], vec![op("b", 0, size)]], &m).elapsed();
        assert!(duo < solo * 2.2, "duo={duo} solo={solo}");
    }

    #[test]
    fn cached_ops_are_free() {
        let m = model();
        let mut cached = op("f", 0, 256 << 20);
        cached.cached = true;
        let rep = simulate_reads(&[vec![cached]], &m);
        assert_eq!(rep.elapsed(), 0.0);
        assert_eq!(rep.total_bytes, 0);
        assert_eq!(rep.total_seeks, 0);
        assert_eq!(rep.total_opens, 0);
        // Mixed trace: only the uncached op is charged.
        let mut warm = op("f", 0, 1 << 20);
        warm.cached = true;
        let mixed = simulate_reads(&[vec![warm, op("f", 1 << 20, 1 << 20)]], &m);
        let cold_only = simulate_reads(&[vec![op("f", 1 << 20, 1 << 20)]], &m);
        assert_eq!(mixed.per_rank_seconds, cold_only.per_rank_seconds);
        assert_eq!(mixed.total_bytes, 1 << 20);
    }

    #[test]
    fn zero_len_ops_are_free() {
        let rep = simulate_reads(&[vec![op("f", 0, 0)]], &model());
        assert_eq!(rep.elapsed(), 0.0);
        assert_eq!(rep.total_opens, 0);
    }

    #[test]
    fn per_rank_breakdown_reconciles_with_totals() {
        let m = model();
        let traces = vec![
            vec![op("a", 0, 8 << 20), op("a", 32 << 20, 4 << 20)],
            vec![op("b", 0, 16 << 20)],
            vec![], // idle rank stays all-zero
        ];
        let rep = simulate_reads(&traces, &m);
        assert_eq!(rep.per_rank.len(), 3);
        assert_eq!(
            rep.per_rank.iter().map(|b| b.bytes).sum::<u64>(),
            rep.total_bytes
        );
        assert_eq!(
            rep.per_rank.iter().map(|b| b.seeks).sum::<u64>(),
            rep.total_seeks
        );
        assert_eq!(
            rep.per_rank.iter().map(|b| b.opens).sum::<u64>(),
            rep.total_opens
        );
        for (b, &t) in rep.per_rank.iter().zip(rep.per_rank_seconds.iter()) {
            assert_eq!(b.seconds, t);
            assert!((b.seek_s - b.seeks as f64 * m.seek_s).abs() < 1e-12);
            assert!((b.open_s - b.opens as f64 * m.open_s).abs() < 1e-12);
            assert!((b.transfer_s - b.bytes as f64 / m.ost_bw).abs() < 1e-9);
        }
        assert_eq!(rep.per_rank[2], RankIoBreakdown::default());
    }

    /// A recorded multi-rank, multi-file trace with stripe-crossing
    /// reads, sequential continuations, re-opened files, cached and
    /// zero-length ops. The expected report was captured before the
    /// simulator started carrying each op's file hash with its cursor,
    /// and must not move except on purpose: `sim_io_s` is a gated
    /// benchmark metric. It moved once, when an op at file offset 0 of a
    /// rank served after another stopped losing its open's 1.5 ms: ranks
    /// 1 and 3 each start so, and rank 0 queues behind rank 3 on a shared
    /// OST, so those three end one `open_s` later; bytes, seeks, opens
    /// and device seconds did not move.
    #[test]
    fn recorded_trace_report_is_pinned() {
        let m = model();
        let mib = 1u64 << 20;
        let cached = |file: &str, offset: u64, len: u64| ReadOp {
            cached: true,
            ..op(file, offset, len)
        };
        let traces = vec![
            vec![
                op("ds/v/bin0.idx", 0, 1358),
                op("ds/v/bin0.idx", 1358, 584),
                op("ds/v/bin0.dat", mib / 2, 3 * mib),
                cached("ds/v/bin0.dat", 0, 4096),
                op("ds/v/bin0.dat", 7 * mib / 2, 300),
                op("ds/v/bin1.dat", 40 * mib + 17, 2 * mib),
            ],
            vec![
                op("ds/v/bin1.idx", 0, 1358),
                op("ds/v/bin1.dat", 0, 0),
                op("ds/v/bin1.dat", 40 * mib, 5 * mib / 2),
                op("ds/v/bin0.idx", 9000, 120),
                op("ds/v/bin0.idx", 9120, 120),
            ],
            vec![cached("ds/v/bin2.idx", 0, 1358)],
            vec![
                op("ds/v/bin0.dat", 0, 20 * mib),
                op("ds/v/bin2.dat", 123_456, 789),
            ],
        ];
        let rank = |seconds, bytes, seeks, opens, seek_s, open_s, transfer_s| RankIoBreakdown {
            seconds,
            bytes,
            seeks,
            opens,
            seek_s,
            open_s,
            transfer_s,
        };
        let golden = SimReport {
            per_rank_seconds: vec![0.06473891333333333, 0.04174820666666666, 0.0, 0.12745969],
            total_bytes: 28_840_469,
            total_seeks: 31,
            total_opens: 8,
            per_rank: vec![
                rank(
                    0.06473891333333333,
                    5_245_122,
                    8,
                    3,
                    0.064,
                    0.0045000000000000005,
                    0.01748374,
                ),
                rank(
                    0.04174820666666666,
                    2_623_038,
                    5,
                    3,
                    0.04,
                    0.0045000000000000005,
                    0.008743459999999998,
                ),
                RankIoBreakdown::default(),
                rank(
                    0.12745969,
                    20_972_309,
                    18,
                    2,
                    0.14400000000000007,
                    0.003,
                    0.06990769666666671,
                ),
            ],
        };
        assert_eq!(simulate_reads(&traces, &m), golden);
    }

    /// Two ranks open a file each and read it from offset 0, on OSTs of
    /// their own. Both are ready at the same instant and rank 0 is served
    /// first; rank 1's op, prepared but not picked, must still start
    /// after its open — offset 0 once read as "not started" and dropped
    /// the open's latency while counting the open.
    #[test]
    fn an_open_at_offset_zero_is_charged_when_its_rank_waits_its_turn() {
        let m = model();
        let first = "f0";
        let second = (1..)
            .map(|i| format!("f{i}"))
            .find(|f| m.ost_of(f, 0) != m.ost_of(first, 0))
            .unwrap();
        let traces = vec![vec![op(first, 0, 4096)], vec![op(&second, 0, 4096)]];
        let rep = simulate_reads(&traces, &m);
        for (r, trace) in traces.iter().enumerate() {
            let solo = simulate_reads(std::slice::from_ref(trace), &m);
            assert_eq!(rep.per_rank[r], solo.per_rank[0], "rank {r}");
            let b = rep.per_rank[r];
            assert_eq!(b.seconds, b.open_s + b.seek_s + b.transfer_s, "rank {r}");
        }
    }

    #[test]
    fn throughput_and_mean() {
        let m = model();
        let rep = simulate_reads(&[vec![op("f", 0, 1 << 20)], vec![op("g", 0, 1 << 20)]], &m);
        assert!(rep.throughput() > 0.0);
        assert!(rep.mean() <= rep.elapsed());
    }
}
