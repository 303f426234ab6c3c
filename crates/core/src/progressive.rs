//! Progressive streaming retrieval: a coarse answer now, precision
//! later, with a live error bound at every step.
//!
//! PLoD stores each double as seven byte-group parts, so a value query
//! does not have to fetch its full precision target in one shot. A
//! [`ProgressiveQuery`] plans the byte-group ladder once: step 0 runs
//! the ordinary engine at the base level (part 0 only) and returns a
//! usable result immediately; each [`ProgressiveQuery::next_refinement`]
//! pull then fetches exactly the next part's extents and merges them
//! into the already-returned values in place via [`plod::refine_into`]
//! — one byte per value, no reassembly, and no re-reading of index
//! headers, bitmaps, positions, or checksum tables.
//!
//! Step 0 costs what a one-shot level-1 query costs: it *is* one, with
//! capture on. Its refinable units defer to the per-chunk scatter like
//! every other unit no position filter restricts; the deferred walk
//! records each kept point's value index and marks the point's slot in
//! its chunk with its place in the record, and emission writes each
//! marked point's output index to that place. The gather's merge, and
//! the merge of the base and target sub-plans below, report where each
//! part's entries landed (`query::Landing`), so the indices follow
//! their points with no search. A refinable unit keeps
//! its bin's shared fixed blocks ([`RefineUnit::fixed`]), from which a
//! pull reads its part locations and checksum table.
//!
//! Two invariants tie the ladder to the one-shot engine:
//!
//! * **Byte parity** — cold, the per-step `bytes_read` sum to exactly
//!   the one-shot query's `bytes_read`: both read the same extent set,
//!   just in a different order. Warm (shared cache/fuser), refinement
//!   pulls re-enter the block cache and extent fuser, so a step costs
//!   only the byte groups nobody has fetched yet.
//! * **Bit parity** — after the final step the result is
//!   byte-identical to the one-shot query in every execution mode.
//!
//! Value-*filtered* bins (misaligned against the value constraint) are
//! fetched at the target precision in step 0: refining them later
//! could change *which* points match, the same reason degradation
//! never touches them. Their bins are disjoint from the refinable
//! bins, so no extent is read twice.
//!
//! Degradation composes: a damaged non-base extent discovered during a
//! refinement pull caps that unit's ladder through the usual
//! [`crate::DegradationReport`] path instead of failing the query, and the
//! per-step error bound accounts for every capped unit.

use crate::cache::CachedBlock;
use crate::config::PlodLevel;
use crate::exec::{ExecRequest, ParallelExecutor};
use crate::metrics::{Meter, QueryMetrics};
use crate::plod;
use crate::query::engine::{
    read_parts, Decoder, Fetcher, PartRange, RankOutput, RefineUnit, Refinement,
};
use crate::query::plan::{candidate_bins, make_plan, Plan, WorkUnit};
use crate::query::{Query, QueryResult};
use crate::store::MlocStore;
use crate::{MlocError, Result};
use mloc_obs::{Collector, Label, Profile};
use mloc_pfs::ReadOp;
use std::time::Instant;

/// One step of a progressive query: what arrived, what it cost, and
/// how precise the result now is.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveStep {
    /// 0 = the initial coarse answer; `k` = the k-th refinement pull.
    pub step: usize,
    /// PLoD level the refinable values sit at after this step (capped
    /// units may be coarser — the bound accounts for them).
    pub level: PlodLevel,
    /// Worst-case relative error bound over all returned values after
    /// this step (0.0 once everything is at full precision).
    pub error_bound: f64,
    /// Physical bytes this step read from the PFS.
    pub bytes_read: u64,
    /// Bytes this step served from the block cache instead.
    pub bytes_saved: u64,
    /// Bytes another session's in-flight read served (extent fusion).
    pub fused_bytes_saved: u64,
    /// Simulated PFS seconds for this step's reads.
    pub io_s: f64,
    /// Units whose ladder damaged extents have capped so far
    /// (cumulative).
    pub capped_units: u64,
    /// Whether the ladder is complete after this step.
    pub done: bool,
}

impl ProgressiveStep {
    /// The step's logical footprint — `bytes_read` plus bytes the
    /// cache and fuser kept off the PFS (the serve layer meters
    /// budgets in logical bytes, invariant across cache state).
    pub fn logical_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_saved + self.fused_bytes_saved
    }
}

/// Per-unit refinement state: the unit step 0 captured plus its
/// precision ceiling.
struct RefineState {
    unit: RefineUnit,
    /// Parts this unit can still reach: a damaged extent at part `p`
    /// sets `cap = p`, freezing the unit at level `p` forever (parts
    /// after a loss are undecodable by construction).
    cap: usize,
}

/// A pull-based progressive query handle. See the module docs.
///
/// Produced by [`ParallelExecutor::progressive`] (any rank count /
/// threading mode — step 0 runs through the normal executor) or
/// [`MlocStore::query_progressive`].
pub struct ProgressiveQuery<'s, 'a> {
    store: &'s MlocStore<'a>,
    exec: ParallelExecutor,
    query: Query,
    /// Parts the query's target level uses.
    target_parts: usize,
    /// Next tail part index to fetch == parts applied to refinable
    /// units so far.
    next_part: usize,
    result: QueryResult,
    units: Vec<RefineState>,
    /// Per captured point, unit by unit: its value index within its
    /// unit, and its index in `result` (see [`Refinement`]).
    val_idx: Vec<u32>,
    result_idx: Vec<usize>,
    steps: Vec<ProgressiveStep>,
    /// Step 0's logical reads, per rank.
    step0_traces: Vec<Vec<ReadOp>>,
    /// Cumulative metrics over all steps so far: byte counters are
    /// summed; component times are summed too (steps are sequential
    /// pulls, not parallel ranks), and each pull — priced as a one-rank
    /// run — adds to rank 0 of the per-rank vectors.
    metrics: QueryMetrics,
    /// Merged profile over all steps (empty unless the executor is
    /// profiled).
    profile: Profile,
    done: bool,
}

impl<'s, 'a> ProgressiveQuery<'s, 'a> {
    pub(crate) fn start(
        exec: ParallelExecutor,
        store: &'s MlocStore<'a>,
        query: &Query,
    ) -> Result<Self> {
        let t = Instant::now();
        let plan = make_plan(store, query)?;
        let target_parts = query.plod.num_parts();
        // The ladder needs a PLoD layout, a value output to refine,
        // scan semantics (membership probes read a handful of points;
        // a ladder saves nothing, and a filtered request captures
        // nothing),
        // and a target above the base level.
        let ladder = store.config().plod
            && query.wants_values()
            && query.points.is_none()
            && target_parts > 1;

        // Split the plan by bin class: refinable bins start at the
        // base level and climb; value-filtered bins go straight to the
        // target level — their membership decision needs full-
        // precision values — and so does everything when there is no
        // ladder to climb (one step at the target, done immediately).
        // `value_filter` is a per-bin property (all units of a
        // misaligned bin carry it), so each sub-plan owns whole bins
        // and the two executions touch disjoint files. A candidate bin
        // is refinable when it is aligned: its units carry no value
        // filter.
        let (base_units, target_units): (Vec<WorkUnit>, Vec<WorkUnit>) =
            plan.units.iter().partition(|u| ladder && !u.value_filter);
        let refinable = candidate_bins(store, query).map(|(_, aligned)| ladder && aligned);
        let target_plan = plan.of_bins(target_units, refinable.clone().map(|r| !r));
        let target = ExecRequest::planned(query, &target_plan, None);
        let (first, second) = if ladder {
            let base_query = query.clone().with_plod(PlodLevel::new(1)?);
            let base_plan = plan.of_bins(base_units, refinable);
            let mut req = ExecRequest::planned(&base_query, &base_plan, None);
            req.capture_refine = true;
            let base = exec.run(store, req)?;
            let rest = (!target_plan.units.is_empty()).then(|| exec.run(store, target));
            (base, rest.transpose()?)
        } else {
            (exec.run(store, target)?, None)
        };

        let mut answers = vec![first.result];
        let (mut metrics, mut profile) = (first.metrics, first.profile);
        let (mut captured, mut step0_traces) = (first.refine, first.traces);
        if let Some(run) = second {
            for (trace, more) in step0_traces.iter_mut().zip(run.traces) {
                trace.extend(more);
            }
            answers.push(run.result);
            metrics.accumulate(&run.metrics);
            profile.merge_from(run.profile);
        }
        // The plan shape describes the whole ladder, not the sum of
        // its sub-plans.
        metrics.bins_touched = plan.bins_touched;
        metrics.aligned_bins = plan.aligned_bins;
        metrics.chunks_touched = plan.chunks_touched;
        // Each sub-plan's result is sorted: the two merge, never sort,
        // and the captured points follow the base part's entries.
        let track = !captured.units.is_empty();
        let (result, landing) = QueryResult::merge(answers, query.wants_values(), track);
        landing.translate(0, &mut captured.result_idx);
        let Refinement {
            mut units,
            val_idx,
            result_idx,
        } = captured;
        // Deterministic order regardless of rank assignment, and
        // maximal read coalescing per refinement pull.
        units.sort_by_key(|u| (u.bin, u.chunk_rank));
        let units: Vec<RefineState> = (units.into_iter())
            .map(|unit| RefineState {
                unit,
                cap: target_parts,
            })
            .collect();
        let next_part = if units.is_empty() { target_parts } else { 1 };
        let mut pq = ProgressiveQuery {
            store,
            exec,
            query: query.clone(),
            target_parts,
            next_part,
            result,
            units,
            val_idx,
            result_idx,
            steps: Vec::new(),
            step0_traces,
            metrics,
            profile,
            done: next_part >= target_parts,
        };
        let cost = pq.metrics.clone();
        pq.record_step(&cost, t.elapsed().as_secs_f64(), "step0")?;
        Ok(pq)
    }

    /// Fetch the next byte-group part for every refinable unit and
    /// merge it into the result in place. Returns `None` once the
    /// ladder is complete (target reached, or every unit capped).
    ///
    /// A pull is the one-shot retrieval restricted to part `p`: the
    /// engine's data stage (block cache, extent fuser, retries, checksum
    /// verification, decode) asked for parts `p..p + 1`, so a warm
    /// refinement step costs only the bytes nobody has fetched yet, and
    /// it is priced and profiled as a one-rank run's output. A
    /// damaged extent caps the affected unit's ladder (when the
    /// executor allows degradation) and is recorded in the cumulative
    /// [`QueryMetrics::degradation`] report.
    pub fn next_refinement(&mut self) -> Result<Option<ProgressiveStep>> {
        if self.done {
            return Ok(None);
        }
        let t = Instant::now();
        let p = self.next_part;
        debug_assert!(p >= 1 && p < self.target_parts);
        let store = self.store;
        let meter = Meter::start(store.backend());
        let mut obs = Collector::new(self.exec.profiled);
        let mut fetcher = Fetcher::new(store, self.exec.retry, obs.is_enabled());
        let mut decoder = Decoder::new(store.config().codec);
        // What the pull cost; it emits no positions of its own.
        let mut out = RankOutput::default();
        // (unit index, its part `p`) pending application.
        let mut parts: Vec<(usize, CachedBlock)> = Vec::new();

        // Walk the still-climbing units bin by bin (they are sorted), so
        // each bin's extents coalesce into as few physical reads as the
        // one-shot engine would issue. A lost part caps its unit's
        // ladder. `live` holds (bin, unit index).
        let live: Vec<(usize, usize)> = (self.units.iter().enumerate())
            .filter(|(_, s)| s.cap > p && s.unit.count > 0)
            .map(|(k, s)| (s.unit.bin, k))
            .collect();
        let (mut got, mut eff) = (Vec::new(), Vec::new());
        for group in live.chunk_by(|a, b| a.0 == b.0) {
            got.resize(group.len(), None);
            eff.resize(group.len(), p + 1);
            let range = PartRange {
                bin: group[0].0,
                fixed: &self.units[group[0].1].unit.fixed,
                parts: p..p + 1,
                allow_degraded: self.exec.allow_degraded,
                out: &mut got,
                eff: &mut eff,
                degradation: &mut out.degradation,
            };
            let units = (group.iter().enumerate())
                .map(|(slot, &(_, k))| (slot, self.units[k].unit.chunk_rank, false));
            out.decompress_s += read_parts(&mut fetcher, &mut decoder, range, units, |_, _| {})?;
            for (&(_, k), part) in group.iter().zip(got.drain(..)) {
                match part {
                    Some(part) => parts.push((k, part)),
                    None => self.units[k].cap = p,
                }
            }
            eff.clear();
        }

        // Apply the deltas in place: one byte merged per value.
        let tr = Instant::now();
        if !parts.is_empty() {
            let values = self
                .result
                .values_mut()
                .ok_or(MlocError::Corrupt("progressive ladder without values"))?;
            for (k, block) in &parts {
                let points = self.units[*k].unit.points.clone();
                let part = block
                    .as_bytes()
                    .ok_or(MlocError::Corrupt("missing PLoD part"))?;
                let (out_idx, val_idx) = (&self.result_idx[points.clone()], &self.val_idx[points]);
                plod::refine_into(values, out_idx, val_idx, part, p)?;
            }
        }
        out.reconstruct_s = tr.elapsed().as_secs_f64();

        obs.count("hotpath.copy_bytes", decoder.copy_bytes);
        fetcher.record_verify(&mut obs);
        out.io = fetcher.finish();
        self.profile.merge_from(obs.finish());
        let profile = self.exec.profiled.then_some(&mut self.profile);
        let (cost, _) = meter.price(
            std::slice::from_mut(&mut out),
            &self.exec.cost_model,
            &Plan::default(),
            profile,
        );
        self.metrics.accumulate(&cost);

        self.next_part = p + 1;
        // Done when the target is reached, or when damage has capped
        // every unit at or below the applied level (nothing left to
        // fetch — the bound is frozen).
        self.done = self.next_part >= self.target_parts
            || self.units.iter().all(|s| s.cap <= self.next_part);
        self.record_step(&cost, t.elapsed().as_secs_f64(), "refine")
            .map(Some)
    }

    /// Pull refinements until the error bound is ≤ `target_error` or
    /// the ladder ends (target level reached / every unit capped).
    pub fn run_to_target_error(&mut self, target_error: f64) -> Result<()> {
        while !self.done && self.current_error_bound() > target_error {
            self.next_refinement()?;
        }
        Ok(())
    }

    /// Pull every remaining refinement step.
    pub fn run_to_completion(&mut self) -> Result<()> {
        while self.next_refinement()?.is_some() {}
        Ok(())
    }

    /// The result at its current precision (positions are final from
    /// step 0 on; values sharpen with each refinement step).
    pub fn result(&self) -> &QueryResult {
        &self.result
    }

    /// Cumulative metrics over all steps so far (byte counters and
    /// component times summed across steps).
    pub fn metrics(&self) -> &QueryMetrics {
        &self.metrics
    }

    /// Every step taken so far, in order (step 0 first).
    pub fn steps(&self) -> &[ProgressiveStep] {
        &self.steps
    }

    /// Every rank's logical reads in step 0, in issue order, as
    /// [`crate::ExecOutput::traces`] lists a run's: a rank's base-level
    /// reads, then its target-level reads of the value-filtered bins.
    /// With no value constraint, the traces of a one-shot level-1 query.
    pub fn step0_traces(&self) -> &[Vec<ReadOp>] {
        &self.step0_traces
    }

    /// Merged profile over all steps (empty unless the executor that
    /// started the query is profiled).
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Worst-case relative error bound of the current result.
    pub fn current_error_bound(&self) -> f64 {
        self.steps.last().map_or(0.0, |s| s.error_bound)
    }

    /// Whether the ladder is complete.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Decompose into the final result, cumulative metrics, step log,
    /// and profile.
    pub fn into_outcome(self) -> (QueryResult, QueryMetrics, Vec<ProgressiveStep>, Profile) {
        (self.result, self.metrics, self.steps, self.profile)
    }

    /// Worst-case relative bound once `applied` parts have been merged
    /// into the refinable units: the coarsest unit governs — a capped
    /// unit sits at `min(cap, applied)` parts, everything served at
    /// the target sits there unless a lost extent degraded it.
    /// Monotonically non-increasing in `applied` because caps only
    /// freeze levels, never lower them.
    fn bound_after(&self, applied: usize) -> Result<f64> {
        if !self.query.wants_values() {
            // Positions are exact at any PLoD level: bitmaps decide
            // membership, and misaligned bins filter at the target.
            return Ok(0.0);
        }
        let mut worst = self.target_parts;
        for s in &self.units {
            worst = worst.min(s.cap.min(applied));
        }
        let level = if worst == self.target_parts {
            self.query.plod
        } else {
            PlodLevel::new(worst.max(1) as u8)?
        };
        Ok(plod::relative_error_bound(level).max(self.metrics.degradation.error_bound()))
    }

    /// Log the step that just ran, whose reads cost `cost`.
    fn record_step(
        &mut self,
        cost: &QueryMetrics,
        wall_s: f64,
        span: &'static str,
    ) -> Result<ProgressiveStep> {
        let applied = self.next_part.min(self.target_parts);
        let step = ProgressiveStep {
            step: self.steps.len(),
            level: if self.units.is_empty() {
                self.query.plod
            } else {
                PlodLevel::new(applied as u8)?
            },
            error_bound: self.bound_after(applied)?,
            bytes_read: cost.bytes_read,
            bytes_saved: cost.bytes_saved,
            fused_bytes_saved: cost.fused_bytes_saved,
            io_s: cost.io_s,
            // Every degradation event caps exactly one unit's ladder.
            capped_units: self.metrics.degraded_units,
            done: self.done,
        };
        if self.exec.profiled {
            self.profile.record_path(&["progressive", span], wall_s);
            self.profile
                .add_counter("progressive.steps", Label::None, 1);
            self.profile.add_counter(
                "progressive.bytes_per_step",
                Label::Index(step.step as u32),
                step.bytes_read,
            );
        }
        self.steps.push(step.clone());
        Ok(step)
    }
}

impl ParallelExecutor {
    /// Start a progressive (pull-based) query: the returned handle's
    /// step 0 is already served at the base precision; call
    /// [`ProgressiveQuery::next_refinement`] to sharpen it one byte
    /// group at a time. Step 0 runs through this executor (any rank
    /// count, replay or threaded); refinement pulls are single-rank
    /// reads costed by the same PFS model. A profiled executor makes
    /// the handle accumulate a merged [`Profile`] (per-step spans plus
    /// `progressive.steps` / `progressive.bytes_per_step` counters).
    pub fn progressive<'s, 'a>(
        &self,
        store: &'s MlocStore<'a>,
        query: &Query,
    ) -> Result<ProgressiveQuery<'s, 'a>> {
        ProgressiveQuery::start(self.clone(), store, query)
    }
}

impl<'a> MlocStore<'a> {
    /// Start a serial progressive query against this store.
    pub fn query_progressive(&self, query: &Query) -> Result<ProgressiveQuery<'_, 'a>> {
        ParallelExecutor::serial().progressive(self, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_variable;
    use crate::config::MlocConfig;
    use mloc_pfs::MemBackend;

    fn fixture(be: &MemBackend) -> (Vec<f64>, MlocStore<'_>) {
        let values: Vec<f64> = (0..4096)
            .map(|i| ((i * 37) % 4096) as f64 * 0.25 + 3.1)
            .collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(10)
            .build();
        build_variable(be, "ds", "v", &values, &config).unwrap();
        let store = MlocStore::open(be, "ds", "v").unwrap();
        (values, store)
    }

    #[test]
    fn ladder_refines_to_one_shot_result() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        for q in [
            Query::values_where(50.0, 800.0),
            Query::values_in(crate::array::Region::new(vec![(3, 40), (5, 60)])),
            Query::values_where(10.0, 900.0)
                .with_region(crate::array::Region::new(vec![(0, 33), (10, 64)])),
        ] {
            let (oneshot, om) = store.query_with_metrics(&q).unwrap();
            let mut pq = store.query_progressive(&q).unwrap();
            // Positions are final from step 0.
            assert_eq!(pq.result().positions(), oneshot.positions());
            let mut total_bytes = pq.steps()[0].bytes_read;
            let mut prev_bound = f64::INFINITY;
            for s in pq.steps() {
                assert!(s.error_bound <= prev_bound);
                prev_bound = s.error_bound;
            }
            while let Some(step) = pq.next_refinement().unwrap() {
                assert!(step.error_bound <= prev_bound, "bound must not grow");
                prev_bound = step.error_bound;
                total_bytes += step.bytes_read;
            }
            assert!(pq.is_done());
            assert_eq!(pq.current_error_bound(), 0.0);
            // Cold ladder bytes sum to the one-shot read exactly.
            assert_eq!(total_bytes, om.bytes_read);
            assert_eq!(pq.metrics().bytes_read, om.bytes_read);
            // Final step is byte-identical to the one-shot result.
            let p = pq.result();
            assert_eq!(p.positions(), oneshot.positions());
            let (pv, ov) = (p.values().unwrap(), oneshot.values().unwrap());
            assert_eq!(pv.len(), ov.len());
            for (a, b) in pv.iter().zip(ov) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn step0_bound_matches_base_level() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::values_in(crate::array::Region::new(vec![(0, 16), (0, 16)]));
        let pq = store.query_progressive(&q).unwrap();
        assert_eq!(
            pq.steps()[0].error_bound,
            plod::relative_error_bound(PlodLevel::new(1).unwrap())
        );
        assert_eq!(pq.steps()[0].level, PlodLevel::new(1).unwrap());
        assert!(!pq.steps()[0].done);
    }

    #[test]
    fn coarse_target_finishes_early() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let lvl = PlodLevel::new(3).unwrap();
        let q = Query::values_where(100.0, 500.0).with_plod(lvl);
        let (oneshot, om) = store.query_with_metrics(&q).unwrap();
        let mut pq = store.query_progressive(&q).unwrap();
        let mut total = pq.steps()[0].bytes_read;
        let mut n = 0;
        while let Some(s) = pq.next_refinement().unwrap() {
            total += s.bytes_read;
            n += 1;
        }
        assert_eq!(n, 2); // levels 2 and 3
        assert_eq!(total, om.bytes_read);
        assert_eq!(pq.current_error_bound(), plod::relative_error_bound(lvl));
        let (pv, ov) = (pq.result().values().unwrap(), oneshot.values().unwrap());
        for (a, b) in pv.iter().zip(ov) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn positions_only_query_is_single_step() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::region(10.0, 50.0);
        let (oneshot, om) = store.query_with_metrics(&q).unwrap();
        let mut pq = store.query_progressive(&q).unwrap();
        assert!(pq.is_done());
        assert_eq!(pq.steps().len(), 1);
        assert_eq!(pq.steps()[0].error_bound, 0.0);
        assert_eq!(pq.steps()[0].bytes_read, om.bytes_read);
        assert_eq!(pq.result().positions(), oneshot.positions());
        assert!(pq.next_refinement().unwrap().is_none());
    }

    #[test]
    fn membership_query_is_single_step() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::membership(vec![0, 17, 4000]).with_values();
        let (oneshot, _) = store.query_with_metrics(&q).unwrap();
        let mut pq = store.query_progressive(&q).unwrap();
        assert!(pq.is_done());
        assert_eq!(pq.result(), &oneshot);
        assert!(pq.next_refinement().unwrap().is_none());
    }

    #[test]
    fn run_to_target_error_stops_at_bound() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let q = Query::values_where(50.0, 800.0);
        let mut pq = store.query_progressive(&q).unwrap();
        let eps = 1e-7;
        pq.run_to_target_error(eps).unwrap();
        assert!(pq.current_error_bound() <= eps);
        assert!(!pq.is_done(), "1e-7 is reachable before full precision");
        // The previous step's bound was above eps: we stopped ASAP.
        let n = pq.steps().len();
        assert!(pq.steps()[n - 2].error_bound > eps);
    }
}
