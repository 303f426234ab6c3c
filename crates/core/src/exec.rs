//! Parallel query execution over the MPI-like runtime.
//!
//! Mirrors the paper's Fig. 5 workflow: the plan's (bin, chunk) blocks
//! are assigned to ranks in *column order* (equal counts, fewest bin
//! files per rank), every rank fetches/decompresses/filters its blocks,
//! and the root gathers partial results. I/O time is charged by the
//! PFS simulator from the per-rank read traces; decompression and
//! reconstruction are measured.

use crate::metrics::{Meter, QueryMetrics};
use crate::query::engine::{process_units, RankJob, RankOutput, Refinement};
use crate::query::plan::{make_plan, Plan, WorkUnit};
use crate::query::{Query, QueryResult};
use crate::store::MlocStore;
use crate::{MlocError, Result};
use mloc_obs::{Collector, Label, Profile};
use mloc_pfs::{CostModel, ReadOp, RetryPolicy};
use mloc_runtime::spmd;
use std::time::Instant;

/// Executes queries over `nranks` ranks with a PFS cost model.
///
/// Two execution modes produce identical results:
///
/// * **replay** (default): each rank's work is executed in turn on the
///   calling thread. Per-rank CPU component times are then exact even
///   on oversubscribed machines, which matters for the scalability
///   analysis (Fig. 7) where per-rank decompression time must reflect
///   that rank's own work, not time-slicing noise.
/// * **threaded**: ranks run concurrently on the MPI-like runtime
///   (`mloc-runtime`), with the root gathering partial results — the
///   paper's actual deployment shape.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    nranks: usize,
    pub(crate) cost_model: CostModel,
    threaded: bool,
    pub(crate) retry: RetryPolicy,
    pub(crate) allow_degraded: bool,
    pub(crate) profiled: bool,
}

/// One execution request for [`ParallelExecutor::run`].
#[derive(Debug, Clone, Copy)]
pub struct ExecRequest<'r> {
    pub query: &'r Query,
    /// A pre-built plan for `query`; `None` plans it as part of the
    /// run (a profiled run then times planning as the `plan` span).
    pub plan: Option<&'r Plan>,
    /// Keep only these global positions (multi-variable retrieval,
    /// §III-D.4). Must be strictly increasing and inside the domain
    /// ([`ParallelExecutor::run`] refuses it otherwise): each rank
    /// merges the points inside a chunk against every unit's runs, in
    /// one forward pass.
    pub position_filter: Option<&'r [u64]>,
    /// Record a [`crate::query::engine::RefineUnit`] for every
    /// refinable unit — PLoD data-bearing, values wanted, no value
    /// filter, no position filter — and where its points' values land,
    /// for a progressive query (see
    /// [`crate::progressive::ProgressiveQuery`]). Emitted positions and
    /// values, and the reads, are identical with and without capture.
    /// A capturing request has no position filter.
    pub(crate) capture_refine: bool,
}

impl<'r> ExecRequest<'r> {
    /// Plan and run `query` with no position filter.
    pub fn new(query: &'r Query) -> Self {
        ExecRequest {
            query,
            plan: None,
            position_filter: None,
            capture_refine: false,
        }
    }

    /// Run a pre-built plan, optionally position-filtered.
    pub fn planned(query: &'r Query, plan: &'r Plan, position_filter: Option<&'r [u64]>) -> Self {
        ExecRequest {
            plan: Some(plan),
            position_filter,
            ..ExecRequest::new(query)
        }
    }
}

/// What [`ParallelExecutor::run`] hands back.
#[derive(Debug)]
pub struct ExecOutput {
    pub result: QueryResult,
    pub metrics: QueryMetrics,
    /// The ranks' merged profiles and the run's price restated;
    /// empty unless the executor is [`ParallelExecutor::profiled`].
    /// Rank order is the merge order, so replay and threaded modes
    /// yield structurally identical profiles.
    pub profile: Profile,
    /// Every rank's logical reads in issue order, as priced: what it
    /// read and what a cache served. Without a cache, a function of the
    /// plan and the stored bytes alone — the same in replay and
    /// threaded mode.
    pub traces: Vec<Vec<ReadOp>>,
    /// Captured refinement state, units in rank order, answer indices
    /// into `result`.
    pub(crate) refine: Refinement,
}

impl ParallelExecutor {
    /// Single-rank executor with the default (Lens-like) cost model.
    pub fn serial() -> Self {
        ParallelExecutor::new(1, CostModel::default())
    }

    /// Executor with an explicit rank count and cost model.
    pub fn new(nranks: usize, cost_model: CostModel) -> Self {
        assert!(nranks > 0);
        ParallelExecutor {
            nranks,
            cost_model,
            threaded: false,
            retry: RetryPolicy::none(),
            allow_degraded: true,
            profiled: false,
        }
    }

    /// Run ranks concurrently on the thread-backed runtime instead of
    /// deterministic replay.
    pub fn threaded(mut self, threaded: bool) -> Self {
        self.threaded = threaded;
        self
    }

    /// Retry transient storage errors per `policy` on every rank's
    /// reads (default: no retries). Backoff time is simulated and
    /// reported in [`QueryMetrics::retry_wait_s`], never slept.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Whether queries may complete at reduced PLoD precision when a
    /// *non-base* byte-group extent of a value-filterless unit is
    /// unreadable or corrupt after retries (default: true): the unit
    /// is reconstructed from the parts before the loss (exact
    /// positions, coarser values) and the loss is recorded in
    /// [`QueryMetrics::degradation`]. Index headers, bitmaps, base
    /// parts, value-filtered units, and the footers themselves always
    /// fail loudly — degrading any of those could silently change
    /// *which* points match. When disabled, any unreadable extent
    /// fails the query.
    pub fn allow_degraded(mut self, allow: bool) -> Self {
        self.allow_degraded = allow;
        self
    }

    /// Record a span/counter [`Profile`] of every run (default: off,
    /// at the cost of one branch per call site).
    pub fn profiled(mut self, profiled: bool) -> Self {
        self.profiled = profiled;
        self
    }

    /// The PFS cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Plan and execute a query.
    pub fn execute(
        &self,
        store: &MlocStore<'_>,
        query: &Query,
    ) -> Result<(QueryResult, QueryMetrics)> {
        let out = self.run(store, ExecRequest::new(query))?;
        Ok((out.result, out.metrics))
    }

    /// Execute a pre-built plan, optionally restricting output to a
    /// strictly increasing set of global positions inside the domain.
    pub fn execute_plan(
        &self,
        store: &MlocStore<'_>,
        query: &Query,
        plan: &Plan,
        position_filter: Option<&[u64]>,
    ) -> Result<(QueryResult, QueryMetrics)> {
        let out = self.run(store, ExecRequest::planned(query, plan, position_filter))?;
        Ok((out.result, out.metrics))
    }

    /// Execute a request: assign the plan's units to ranks in column
    /// order, run every rank's fetch → decode → reconstruct pipeline,
    /// price the read traces on the simulated PFS, and gather.
    ///
    /// A position filter that is not strictly increasing, or holds a
    /// position outside the domain, is [`MlocError::Invalid`].
    pub fn run(&self, store: &MlocStore<'_>, req: ExecRequest<'_>) -> Result<ExecOutput> {
        if let Some(filter) = req.position_filter {
            if filter.windows(2).any(|w| w[0] >= w[1]) {
                return Err(MlocError::Invalid(
                    "position filter must be strictly increasing".into(),
                ));
            }
            if filter
                .last()
                .is_some_and(|&p| p >= store.grid().num_points() as u64)
            {
                return Err(MlocError::Invalid(
                    "position filter point outside the domain".into(),
                ));
            }
        }
        let mut profile = Profile::default();
        let planned;
        let plan = match req.plan {
            Some(plan) => plan,
            None => {
                let t = Instant::now();
                planned = make_plan(store, req.query)?;
                if self.profiled {
                    profile.record_path(&["plan"], t.elapsed().as_secs_f64());
                }
                &planned
            }
        };
        let assignment = plan.deal(self.nranks);
        let cache_before = store.cache().filter(|_| self.profiled).map(|c| c.stats());
        let meter = Meter::start(store.backend());

        // Every rank reads and verifies the fixed blocks of the bins it
        // was dealt itself: ranks share no state but the store.
        let run_rank = |rank: usize| -> Result<(RankOutput, Profile)> {
            let units: Vec<WorkUnit> = assignment.per_rank[rank]
                .iter()
                .map(|&i| plan.units[i])
                .collect();
            let job = RankJob {
                store,
                req,
                units: &units,
                retry: self.retry,
                allow_degraded: self.allow_degraded,
            };
            let mut obs = Collector::new(self.profiled);
            obs.begin("rank");
            let out = process_units(&job, &mut obs)?;
            obs.end();
            Ok((out, obs.finish()))
        };
        let rank_results: Vec<Result<(RankOutput, Profile)>> = if self.threaded {
            spmd(self.nranks, |comm| run_rank(comm.rank()))
        } else {
            (0..self.nranks).map(run_rank).collect()
        };

        // Rank order is the merge order in both executor modes — this
        // is what makes replay and threaded profiles identical.
        let mut outputs = Vec::with_capacity(self.nranks);
        for r in rank_results {
            let (out, rank_profile) = r?;
            outputs.push(out);
            profile.merge_from(rank_profile);
        }
        // Every rank's answer arrives as one rising run: one merge, no
        // sort.
        let mut gather = Collector::new(self.profiled);
        gather.begin("gather");
        let with_values = req.query.wants_values();
        let answers = outputs.iter_mut().map(|out| {
            let values = std::mem::take(&mut out.values);
            QueryResult::from_sorted(
                std::mem::take(&mut out.positions),
                with_values.then_some(values),
            )
        });
        let (result, landing) =
            QueryResult::merge(answers.collect(), with_values, req.capture_refine);
        // Captured answer indices follow their rank's entries.
        let mut refine = Refinement::default();
        for (k, out) in outputs.iter_mut().enumerate() {
            refine.absorb(std::mem::take(&mut out.refine), &landing, k);
        }
        gather.end();
        profile.merge_from(gather.finish());

        let profiled = self.profiled.then_some(&mut profile);
        let (metrics, traces) = meter.price(&mut outputs, &self.cost_model, plan, profiled);
        // Shared-cache churn over the whole query (insert/evict are
        // cache-wide, unlike the per-rank hit/miss counters).
        if let (Some(before), Some(cache)) = (cache_before, store.cache()) {
            let after = cache.stats();
            for (name, value) in [
                ("cache.insertions", after.insertions - before.insertions),
                ("cache.evictions", after.evictions - before.evictions),
                ("cache.resident_bytes", after.resident_bytes),
                ("cache.resident_blocks", after.resident_blocks),
            ] {
                profile.add_counter(name, Label::None, value);
            }
        }

        Ok(ExecOutput {
            result,
            metrics,
            profile,
            traces,
            refine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Region;
    use crate::build::build_variable;
    use crate::config::MlocConfig;
    use mloc_pfs::MemBackend;

    fn fixture(be: &MemBackend) -> (Vec<f64>, MlocStore<'_>) {
        // Deterministic but non-trivial values over a 64x64 grid.
        let values: Vec<f64> = (0..4096).map(|i| ((i * 37) % 4096) as f64 * 0.25).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(10)
            .build();
        build_variable(be, "ds", "v", &values, &config).unwrap();
        let store = MlocStore::open(be, "ds", "v").unwrap();
        (values, store)
    }

    fn naive_region(values: &[f64], lo: f64, hi: f64) -> Vec<u64> {
        values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v >= lo && v < hi)
            .map(|(i, _)| i as u64)
            .collect()
    }

    #[test]
    fn region_query_matches_naive_scan() {
        let be = MemBackend::new();
        let (values, store) = fixture(&be);
        for (lo, hi) in [
            (10.0, 50.0),
            (0.0, 1024.0),
            (900.0, 901.0),
            (2000.0, 1000.0),
        ] {
            let q = Query::region(lo, hi);
            let (res, metrics) = store.query_with_metrics(&q).unwrap();
            assert_eq!(
                res.positions(),
                naive_region(&values, lo, hi),
                "vc [{lo},{hi})"
            );
            assert!(res.values().is_none());
            if lo < hi {
                assert!(metrics.io_s > 0.0);
            }
        }
    }

    #[test]
    fn value_query_matches_naive_scan() {
        let be = MemBackend::new();
        let (values, store) = fixture(&be);
        let region = Region::new(vec![(5, 30), (10, 50)]);
        let q = Query::values_in(region.clone());
        let (res, _) = store.query_with_metrics(&q).unwrap();

        let mut want: Vec<(u64, f64)> = Vec::new();
        for r in 5..30 {
            for c in 10..50 {
                let lin = (r * 64 + c) as u64;
                want.push((lin, values[lin as usize]));
            }
        }
        want.sort_unstable_by_key(|&(p, _)| p);
        assert_eq!(res.len(), want.len());
        assert_eq!(
            res.positions(),
            want.iter().map(|&(p, _)| p).collect::<Vec<_>>()
        );
        assert_eq!(
            res.values().unwrap(),
            want.iter().map(|&(_, v)| v).collect::<Vec<_>>()
        );
    }

    #[test]
    fn combined_vc_sc_query() {
        let be = MemBackend::new();
        let (values, store) = fixture(&be);
        let region = Region::new(vec![(0, 32), (0, 64)]);
        let q = Query::values_where(100.0, 400.0).with_region(region);
        let (res, _) = store.query_with_metrics(&q).unwrap();
        let want: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i / 64 < 32 && (100.0..400.0).contains(&v))
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(res.positions(), want);
        for (&p, &v) in res.positions().iter().zip(res.values().unwrap()) {
            assert_eq!(v, values[p as usize]);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::values_where(50.0, 800.0);
        let (serial, _) = ParallelExecutor::serial().execute(&store, &q).unwrap();
        for nranks in [2, 4, 8] {
            let exec = ParallelExecutor::new(nranks, CostModel::default());
            let (par, metrics) = exec.execute(&store, &q).unwrap();
            assert_eq!(par, serial, "nranks {nranks}");
            assert_eq!(metrics.nranks, nranks);
            assert_eq!(metrics.per_rank_io.len(), nranks);
        }
    }

    #[test]
    fn threaded_matches_replay() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::values_where(10.0, 600.0);
        let replay = ParallelExecutor::new(4, CostModel::default());
        let threaded = replay.clone().threaded(true);
        let (a, ma) = replay.execute(&store, &q).unwrap();
        let (b, mb) = threaded.execute(&store, &q).unwrap();
        assert_eq!(a, b);
        // Simulated I/O is trace-driven and identical in both modes.
        assert_eq!(ma.io_s, mb.io_s);
        assert_eq!(ma.bytes_read, mb.bytes_read);

        // At 8 ranks most bins are dealt to several ranks, and each of
        // them reads the bin's fixed blocks itself: the traces follow
        // from the deal, not from which thread got there first.
        let replay = ParallelExecutor::new(8, CostModel::default());
        let threaded = replay.clone().threaded(true);
        let a = replay.run(&store, ExecRequest::new(&q)).unwrap();
        for _ in 0..4 {
            let b = threaded.run(&store, ExecRequest::new(&q)).unwrap();
            assert_eq!(a.result, b.result);
            assert_eq!(a.traces, b.traces);
            assert_eq!(a.metrics.per_rank_io, b.metrics.per_rank_io);
        }
        assert_eq!(a.metrics.fused_reads, 0);
    }

    /// A rank of an n-rank request reads exactly what it would alone:
    /// each trace equals, record for record, the trace of its dealt
    /// units run by `process_units` on their own, and nothing counts as
    /// fused.
    #[test]
    fn each_rank_of_a_request_reads_what_it_would_alone() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        for q in [
            Query::values_where(10.0, 600.0),
            Query::region(100.0, 900.0),
            Query::values_in(Region::new(vec![(5, 30), (10, 50)])),
        ] {
            let plan = make_plan(&store, &q).unwrap();
            for nranks in [2, 4, 8] {
                let exec = ParallelExecutor::new(nranks, CostModel::default());
                let out = exec.run(&store, ExecRequest::new(&q)).unwrap();
                assert_eq!(out.metrics.fused_bytes_saved, 0);
                let lone: Vec<Vec<ReadOp>> = plan
                    .deal(nranks)
                    .per_rank
                    .iter()
                    .map(|dealt| {
                        let units: Vec<WorkUnit> = dealt.iter().map(|&i| plan.units[i]).collect();
                        let job = RankJob {
                            store: &store,
                            req: ExecRequest::planned(&q, &plan, None),
                            units: &units,
                            retry: RetryPolicy::none(),
                            allow_degraded: true,
                        };
                        process_units(&job, &mut Collector::disabled())
                            .unwrap()
                            .io
                            .trace
                    })
                    .collect();
                assert_eq!(out.traces, lone, "{q:?} on {nranks} ranks");
            }
        }
    }

    #[test]
    fn aligned_bins_skip_data_reads() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        // Wide VC: most bins aligned, little data read.
        let q = Query::region(100.0, 900.0);
        let (_, metrics) = store.query_with_metrics(&q).unwrap();
        assert!(metrics.aligned_bins > 0);
        // A narrow VC inside one bin reads data for that bin only.
        let q2 = Query::region(500.0, 505.0);
        let (_, m2) = store.query_with_metrics(&q2).unwrap();
        assert!(m2.bins_touched <= 2);
        // Data bytes for the narrow query come only from boundary bins,
        // strictly fewer than the wide query's misaligned reads.
        assert!(
            m2.data_bytes < metrics.data_bytes,
            "narrow {} vs wide {}",
            m2.data_bytes,
            metrics.data_bytes
        );
    }

    #[test]
    fn empty_result_is_ok() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::region(1e9, 2e9);
        let (res, _) = store.query_with_metrics(&q).unwrap();
        // The top bin is a candidate (clamping) but nothing matches.
        assert!(res.is_empty());
    }

    #[test]
    fn position_filter_restricts_output() {
        let be = MemBackend::new();
        let (values, store) = fixture(&be);
        let q = Query::values_in(Region::full(&[64, 64]));
        let plan = crate::query::plan::make_plan(&store, &q).unwrap();
        let filter = [3u64, 77, 4000];
        let (res, _) = ParallelExecutor::serial()
            .execute_plan(&store, &q, &plan, Some(&filter))
            .unwrap();
        assert_eq!(res.positions(), &[3, 77, 4000]);
        assert_eq!(
            res.values().unwrap(),
            &[values[3], values[77], values[4000]]
        );
    }

    /// A position filter out of order, with a duplicate, or past the
    /// domain is refused before any rank runs — in a release build too,
    /// where no debug assertion would catch it — on 1 and 4 ranks.
    #[test]
    fn a_position_filter_out_of_order_or_range_is_invalid() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::values_in(Region::full(&[64, 64]));
        let plan = make_plan(&store, &q).unwrap();
        for filter in [&[77u64, 3, 4000][..], &[3, 77, 77], &[3, 77, 4096]] {
            for nranks in [1, 4] {
                let exec = ParallelExecutor::new(nranks, CostModel::default());
                let err = exec.execute_plan(&store, &q, &plan, Some(filter));
                assert!(
                    matches!(err, Err(crate::MlocError::Invalid(_))),
                    "{filter:?} on {nranks} ranks: {err:?}"
                );
            }
        }
    }

    /// A random grid whose chunks are clipped at the domain edge in
    /// every dimension: per dimension a chunk edge, a count of whole
    /// chunks and a remainder in `1..edge`.
    fn clipped_grid() -> impl proptest::Strategy<Value = (Vec<usize>, Vec<usize>)> {
        use proptest::prelude::*;
        (2usize..=3).prop_flat_map(|dims| {
            // 3-D grids stay small: every case runs 18 ways per query.
            let (edge, whole) = if dims == 2 { (8usize, 3usize) } else { (4, 2) };
            proptest::collection::vec((2..=edge, 1..=whole, any::<usize>()), dims).prop_map(
                |spec| {
                    let chunk: Vec<usize> = spec.iter().map(|&(c, _, _)| c).collect();
                    let shape = spec.iter().map(|&(c, k, r)| k * c + 1 + r % (c - 1));
                    (shape.collect(), chunk)
                },
            )
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        /// Every rank's positions rise strictly, for every query kind,
        /// and every answer equals the oracle's — computed from the raw
        /// field — bit for bit: SC, VC, values and positions, PLoD,
        /// membership, position-filtered and progressive queries, on 1,
        /// 3 and 8 ranks of both executors, cached cold, cached warm and
        /// fused.
        #[test]
        fn answers_arrive_in_position_order(
            (shape, chunk) in clipped_grid(),
            num_bins in 2usize..=8,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use crate::cache::BlockCache;
            use crate::config::PlodLevel;
            use crate::fusion::ExtentFuser;
            use crate::oracle;
            use crate::query::QueryOutput;
            use std::sync::Arc;

            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let n: usize = shape.iter().product();
            let values: Vec<f64> = (0..n).map(|_| (next() % 10_000) as f64 * 0.37 - 1850.0).collect();
            let be = MemBackend::new();
            let config = MlocConfig::builder(shape.clone())
                .chunk_shape(chunk)
                .num_bins(num_bins)
                .build();
            build_variable(&be, "ds", "v", &values, &config).unwrap();
            let mut store = MlocStore::open(&be, "ds", "v").unwrap();

            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let (a, b) = (next() as usize % n, next() as usize % n);
            let (lo, hi) = (sorted[a.min(b)], sorted[a.max(b)]);
            let region = Region::new(
                shape.iter().map(|&e| {
                    let s = next() as usize % e;
                    (s, s + 1 + next() as usize % (e - s))
                }).collect(),
            );
            let level = PlodLevel::new(1 + (next() % 7) as u8).unwrap();
            let every = 2 + next() % 5;
            let points: Vec<u64> = (0..n as u64).filter(|_| next() % 3 == 0).collect();
            let filter: Vec<u64> = (next() % every..n as u64).step_by(every as usize).collect();
            let sc_positions = Query::new(None, Some(region.clone()), PlodLevel::FULL, QueryOutput::Positions);
            let queries: Vec<(Query, Option<&[u64]>)> = vec![
                (Query::values_in(region.clone()), None),
                (sc_positions, None),
                (Query::values_in(region.clone()).with_plod(level), None),
                (Query::region(lo, hi), None),
                (Query::values_where(lo, hi), None),
                (Query::values_where(lo, hi).with_region(region.clone()).with_plod(level), None),
                (Query::membership(points.clone()), None),
                (Query::membership_where(lo, hi, points).with_values(), None),
                (Query::values_in(region.clone()), Some(&filter[..])),
                (Query::region(lo, hi), Some(&filter[..])),
            ];
            let progressive = [Query::values_in(region), Query::values_where(lo, hi)];

            // Each query's answer, with every rank's positions rising;
            // then each progressive query's step 0: the base level for
            // the bins it refines, the target for the value-filtered ones.
            let mut expected = Vec::new();
            for (q, filter) in &queries {
                let plan = make_plan(&store, q).unwrap();
                expected.push(oracle::expected(&store, &values, q, &plan.units, *filter));
                for nranks in [1, 3, 8] {
                    for (rank, dealt) in plan.deal(nranks).per_rank.iter().enumerate() {
                        let units: Vec<WorkUnit> = dealt.iter().map(|&i| plan.units[i]).collect();
                        let job = RankJob {
                            store: &store,
                            req: ExecRequest::planned(q, &plan, *filter),
                            units: &units,
                            retry: RetryPolicy::none(),
                            allow_degraded: true,
                        };
                        let out = process_units(&job, &mut Collector::disabled()).unwrap();
                        proptest::prop_assert!(
                            out.positions.windows(2).all(|w| w[0] < w[1]),
                            "{:?}: rank {} of {} not rising", q, rank, nranks
                        );
                    }
                }
            }
            for q in &progressive {
                let plan = make_plan(&store, q).unwrap();
                let (refined, target): (Vec<WorkUnit>, Vec<WorkUnit>) =
                    plan.units.iter().partition(|u| !u.value_filter);
                let base = q.clone().with_plod(PlodLevel::new(1).unwrap());
                let (mut p, v) = oracle::expected(&store, &values, &base, &refined, None);
                let (tp, tv) = oracle::expected(&store, &values, q, &target, None);
                p.extend(tp);
                let mut v = v.unwrap();
                v.extend(tv.unwrap());
                let step0 = QueryResult::from_parts(p, Some(v));
                expected.push((step0.positions().to_vec(), step0.values().map(<[f64]>::to_vec)));
            }

            for nranks in [1, 3, 8] {
                for threaded in [false, true] {
                    let exec = ParallelExecutor::new(nranks, CostModel::default()).threaded(threaded);
                    let fuser = Arc::new(ExtentFuser::with_window_mb(8));
                    for mode in ["cached cold", "cached warm", "fused"] {
                        match mode {
                            "cached cold" => store.set_cache(Some(Arc::new(BlockCache::with_budget_mb(8)))),
                            "fused" => {
                                store.set_cache(None);
                                store.set_fusion(Some(Arc::clone(&fuser)));
                                fuser.begin_window();
                            }
                            _ => {}
                        }
                        let runs = queries.iter().map(|(q, filter)| {
                            let plan = make_plan(&store, q).unwrap();
                            exec.run(&store, ExecRequest::planned(q, &plan, *filter)).unwrap().result
                        });
                        let ladders = progressive.iter().map(|q| {
                            exec.progressive(&store, q).unwrap().into_outcome().0
                        });
                        for (k, got) in runs.chain(ladders).enumerate() {
                            let pos = got.positions();
                            proptest::prop_assert!(
                                pos.windows(2).all(|w| w[0] < w[1]),
                                "query {k}, {nranks} ranks, threaded {threaded}, {mode}: not rising"
                            );
                            proptest::prop_assert!(
                                oracle::same(&got, &expected[k]),
                                "query {k}, {nranks} ranks, threaded {threaded}, {mode}"
                            );
                        }
                    }
                    store.set_fusion(None);
                }
            }
        }
    }
}
