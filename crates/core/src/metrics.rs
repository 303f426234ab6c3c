//! Query performance metrics, decomposed as in the paper's Fig. 6:
//! I/O (simulated PFS time), decompression, and reconstruction
//! (filtering + assembling results). `Meter::price` is the one place
//! a query's cost is computed — for an executor run and for a
//! progressive refinement pull alike.

use crate::degrade::DegradationReport;
use crate::query::engine::RankOutput;
use crate::query::plan::Plan;
use mloc_obs::{Label, Profile};
use mloc_pfs::{simulate_reads, CostModel, ReadOp, ReplicaAccess, StorageBackend};

/// Per-query metrics. Component times are critical-path values (the
/// slowest rank); per-rank detail is kept for scalability plots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryMetrics {
    /// Simulated I/O seconds (max over ranks).
    pub io_s: f64,
    /// Measured decompression seconds (max over ranks).
    pub decompress_s: f64,
    /// Measured reconstruction/filtering seconds (max over ranks).
    pub reconstruct_s: f64,
    /// Response time: max over ranks of that rank's io + cpu.
    pub response_s: f64,
    /// Total bytes read (index + data).
    pub bytes_read: u64,
    /// Bytes read from bin files' index sections.
    pub index_bytes: u64,
    /// Bytes read from bin files' data sections.
    pub data_bytes: u64,
    /// Seeks paid in the simulated PFS.
    pub seeks: u64,
    /// Bins touched by the query.
    pub bins_touched: usize,
    /// Bins answered from the index alone.
    pub aligned_bins: usize,
    /// Chunks touched by the query.
    pub chunks_touched: usize,
    /// Ranks used.
    pub nranks: usize,
    /// Block-cache probes that found their block, across all ranks (0
    /// without a cache) — as `BlockCache::stats` counts them; one hit
    /// may serve every part of a PLoD unit.
    pub cache_hits: u64,
    /// Block-cache probes that did not, across all ranks (0 without a
    /// cache).
    pub cache_misses: u64,
    /// Compressed bytes the cache kept off the PFS. These extents stay
    /// visible in the trace (flagged cached) but are excluded from
    /// `bytes_read` and cost nothing in the simulator.
    pub bytes_saved: u64,
    /// Wants served by another session's physical read through the
    /// extent fuser (0 without fusion).
    pub fused_reads: u64,
    /// Bytes those fused wants kept off the PFS. Like cache-served
    /// bytes, they stay visible in the trace (flagged cached) but are
    /// excluded from `bytes_read` and cost nothing in the simulator —
    /// `bytes_read + bytes_saved + fused_bytes_saved` is a query's
    /// logical footprint, invariant across cache and fusion state.
    pub fused_bytes_saved: u64,
    /// Transient read errors retried away across all ranks.
    pub retries: u64,
    /// Simulated backoff seconds (max over ranks, like `io_s`).
    pub retry_wait_s: f64,
    /// Reads masked by falling through to a replica shard (0 without
    /// replication).
    pub read_repairs: u64,
    /// Compressed units answered at reduced PLoD precision because a
    /// non-base byte-group extent stayed unreadable after retries.
    pub degraded_units: u64,
    /// Per-unit detail of any precision degradation.
    pub degradation: DegradationReport,
    /// Per-rank simulated I/O seconds.
    pub per_rank_io: Vec<f64>,
    /// Per-rank measured CPU seconds (decompress + reconstruct).
    pub per_rank_cpu: Vec<f64>,
}

impl QueryMetrics {
    /// Sum of the component critical paths — a pessimistic response
    /// estimate used when components are reported separately.
    pub fn component_sum(&self) -> f64 {
        self.io_s + self.decompress_s + self.reconstruct_s
    }

    /// Merge another query's metrics into an accumulating average
    /// (used by the experiment harness to average over 100 queries, and
    /// by a ladder to sum its steps); `nranks` becomes the widest seen.
    pub fn accumulate(&mut self, other: &QueryMetrics) {
        self.io_s += other.io_s;
        self.decompress_s += other.decompress_s;
        self.reconstruct_s += other.reconstruct_s;
        self.response_s += other.response_s;
        self.bytes_read += other.bytes_read;
        self.index_bytes += other.index_bytes;
        self.data_bytes += other.data_bytes;
        self.seeks += other.seeks;
        self.bins_touched += other.bins_touched;
        self.aligned_bins += other.aligned_bins;
        self.chunks_touched += other.chunks_touched;
        self.nranks = self.nranks.max(other.nranks);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bytes_saved += other.bytes_saved;
        self.fused_reads += other.fused_reads;
        self.fused_bytes_saved += other.fused_bytes_saved;
        self.retries += other.retries;
        self.retry_wait_s += other.retry_wait_s;
        self.read_repairs += other.read_repairs;
        self.degraded_units += other.degraded_units;
        self.degradation.merge(&other.degradation);
        // Element-wise accumulation keeps per-rank scalability data
        // through averaged runs. Rank counts can differ between queries
        // (e.g. a mixed harness); grow to the widest seen.
        accumulate_per_rank(&mut self.per_rank_io, &other.per_rank_io);
        accumulate_per_rank(&mut self.per_rank_cpu, &other.per_rank_cpu);
    }

    /// Divide accumulated sums by a query count. Integer counters round
    /// to nearest so small averages don't truncate to zero.
    pub fn scale(&mut self, queries: usize) {
        let q = queries.max(1) as f64;
        let avg = |v: u64| (v as f64 / q).round() as u64;
        self.io_s /= q;
        self.decompress_s /= q;
        self.reconstruct_s /= q;
        self.response_s /= q;
        self.bytes_read = avg(self.bytes_read);
        self.index_bytes = avg(self.index_bytes);
        self.data_bytes = avg(self.data_bytes);
        self.seeks = avg(self.seeks);
        self.bins_touched = (self.bins_touched as f64 / q).round() as usize;
        self.aligned_bins = (self.aligned_bins as f64 / q).round() as usize;
        self.chunks_touched = (self.chunks_touched as f64 / q).round() as usize;
        self.cache_hits = avg(self.cache_hits);
        self.cache_misses = avg(self.cache_misses);
        self.bytes_saved = avg(self.bytes_saved);
        self.fused_reads = avg(self.fused_reads);
        self.fused_bytes_saved = avg(self.fused_bytes_saved);
        self.retries = avg(self.retries);
        self.retry_wait_s /= q;
        self.read_repairs = avg(self.read_repairs);
        self.degraded_units = avg(self.degraded_units);
        for v in self
            .per_rank_io
            .iter_mut()
            .chain(self.per_rank_cpu.iter_mut())
        {
            *v /= q;
        }
    }
}

fn accumulate_per_rank(acc: &mut Vec<f64>, other: &[f64]) {
    if acc.len() < other.len() {
        acc.resize(other.len(), 0.0);
    }
    for (a, &o) in acc.iter_mut().zip(other.iter()) {
        *a += o;
    }
}

/// Prices one query. Started before its ranks run: the backend counts
/// replica-masked reads itself (the router can't attribute them to
/// ranks), so a query reports the delta over its run.
pub(crate) struct Meter<'b> {
    replicas: Option<&'b dyn ReplicaAccess>,
    masked_before: u64,
}

impl<'b> Meter<'b> {
    pub fn start(backend: &'b dyn StorageBackend) -> Self {
        let replicas = backend.replica_access();
        let masked_before = replicas.map_or(0, |r| r.read_repair_count());
        Meter {
            replicas,
            masked_before,
        }
    }

    /// Price the ranks' reports — an executor run's under its `plan`, or
    /// a progressive pull's as one rank under the empty plan (a pull
    /// plans nothing). The read traces are taken out of the reports,
    /// simulated on `model`, and handed back in rank order. Given a
    /// profile, restate the price in it: the one place a profile
    /// restates [`QueryMetrics`] (the ranks' own collectors hold only
    /// what the metrics do not carry).
    pub fn price(
        self,
        ranks: &mut [RankOutput],
        model: &CostModel,
        plan: &Plan,
        profile: Option<&mut Profile>,
    ) -> (QueryMetrics, Vec<Vec<ReadOp>>) {
        let traces: Vec<Vec<ReadOp>> = ranks
            .iter_mut()
            .map(|out| std::mem::take(&mut out.io.trace))
            .collect();
        let sim = simulate_reads(&traces, model);
        let mut m = QueryMetrics {
            nranks: ranks.len(),
            seeks: sim.total_seeks,
            bins_touched: plan.bins_touched,
            aligned_bins: plan.aligned_bins,
            chunks_touched: plan.chunks_touched,
            per_rank_io: sim.per_rank_seconds.clone(),
            read_repairs: (self.replicas)
                .map_or(0, |r| r.read_repair_count())
                .saturating_sub(self.masked_before),
            ..Default::default()
        };
        for (out, &io) in ranks.iter().zip(&sim.per_rank_seconds) {
            let cpu = out.decompress_s + out.reconstruct_s;
            m.per_rank_cpu.push(cpu);
            m.io_s = m.io_s.max(io);
            m.decompress_s = m.decompress_s.max(out.decompress_s);
            m.reconstruct_s = m.reconstruct_s.max(out.reconstruct_s);
            m.response_s = m.response_s.max(io + cpu);
            let f = &out.io;
            m.index_bytes += f.index_bytes;
            m.data_bytes += f.data_bytes;
            m.cache_hits += f.cache_hits;
            m.cache_misses += f.cache_misses;
            m.bytes_saved += f.bytes_saved;
            m.fused_reads += f.fused_reads;
            m.fused_bytes_saved += f.fused_bytes;
            m.retries += f.retries;
            m.retry_wait_s = m.retry_wait_s.max(f.retry_wait_s);
            m.degraded_units += out.degradation.events.len() as u64;
            m.degradation.merge(&out.degradation);
        }
        m.bytes_read = m.index_bytes + m.data_bytes;
        let Some(profile) = profile else {
            return (m, traces);
        };
        // Simulated I/O is attributed per rank after the fact: the
        // span's max-over-ranks is `io_s`.
        profile.record_over_ranks(&["io"], &m.per_rank_io);
        for (rank, b) in sim.per_rank.iter().enumerate() {
            profile.record_over_ranks(&["io", "seek"], &[b.seek_s]);
            profile.record_over_ranks(&["io", "open"], &[b.open_s]);
            profile.record_over_ranks(&["io", "transfer"], &[b.transfer_s]);
            profile.add_counter("rank.io.bytes", Label::Index(rank as u32), b.bytes);
        }
        let rejected = ranks.iter().map(|out| out.io.cache_rejected).sum();
        for (name, value) in [
            ("io.bytes", sim.total_bytes),
            ("io.seeks", m.seeks),
            ("io.opens", sim.total_opens),
            ("cache.hits", m.cache_hits),
            ("cache.misses", m.cache_misses),
            ("cache.bytes_saved", m.bytes_saved),
            ("cache.rejected_inserts", rejected),
            ("plan.units", plan.units.len() as u64),
            ("plan.bins", m.bins_touched as u64),
            ("plan.aligned_bins", m.aligned_bins as u64),
            ("plan.chunks", m.chunks_touched as u64),
        ] {
            profile.add_counter(name, Label::None, value);
        }
        // Submission-queue shape: how many batches went down and how
        // deep each one was.
        let depths = || ranks.iter().flat_map(|out| &out.io.batch_depths);
        if depths().next().is_some() {
            profile.add_counter("io.batches", Label::None, depths().count() as u64);
            let h = profile.histogram_mut("io.batch_depth", Label::None);
            depths().for_each(|&d| h.observe(d as f64));
        }
        // `fusion.*`: wants fused with another session's read.
        if m.fused_reads > 0 {
            profile.add_counter("fusion.reads", Label::None, m.fused_reads);
            profile.add_counter("fusion.bytes_saved", Label::None, m.fused_bytes_saved);
        }
        for (name, value) in [
            ("pfs.retries", m.retries),
            ("io.read_repair", m.read_repairs),
            ("degraded.units", m.degraded_units),
        ] {
            if value > 0 {
                profile.add_counter(name, Label::None, value);
            }
        }
        // Per-shard PFS breakdown: attribute every traced op to the
        // shard that owns its file (sharded backends only).
        if let Some(layout) = self.replicas.filter(|l| l.shard_count() > 1) {
            for op in traces.iter().flatten().filter(|op| !op.cached) {
                let shard = layout.shard_of(&op.file) as u32;
                profile.add_counter("pfs.shard.reads", Label::Index(shard), 1);
                profile.add_counter("pfs.shard.bytes", Label::Index(shard), op.len);
            }
        }
        (m, traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_scale() {
        let mut acc = QueryMetrics::default();
        for _ in 0..4 {
            acc.accumulate(&QueryMetrics {
                io_s: 2.0,
                decompress_s: 1.0,
                reconstruct_s: 0.5,
                response_s: 3.5,
                bytes_read: 100,
                index_bytes: 40,
                data_bytes: 60,
                seeks: 8,
                bins_touched: 3,
                aligned_bins: 1,
                chunks_touched: 5,
                nranks: 2,
                per_rank_io: vec![2.0, 1.0],
                per_rank_cpu: vec![1.5, 0.5],
                ..Default::default()
            });
        }
        acc.scale(4);
        assert_eq!(acc.io_s, 2.0);
        assert_eq!(acc.response_s, 3.5);
        assert_eq!(acc.bytes_read, 100);
        assert_eq!(acc.bins_touched, 3);
        assert_eq!(acc.nranks, 2);
        assert_eq!(acc.component_sum(), 3.5);
        // Per-rank vectors survive averaging element-wise.
        assert_eq!(acc.per_rank_io, vec![2.0, 1.0]);
        assert_eq!(acc.per_rank_cpu, vec![1.5, 0.5]);
    }

    #[test]
    fn scale_rounds_instead_of_truncating() {
        let mut acc = QueryMetrics::default();
        for _ in 0..3 {
            acc.accumulate(&QueryMetrics {
                bytes_read: 2,
                seeks: 2,
                cache_hits: 1,
                ..Default::default()
            });
        }
        acc.scale(4);
        // 6/4 = 1.5 rounds to 2 (ties away from zero); 3/4 rounds to 1.
        // The old truncating cast reported 1 and 0.
        assert_eq!(acc.bytes_read, 2);
        assert_eq!(acc.seeks, 2);
        assert_eq!(acc.cache_hits, 1);
    }

    #[test]
    fn accumulate_grows_to_widest_rank_count() {
        let mut acc = QueryMetrics::default();
        acc.accumulate(&QueryMetrics {
            per_rank_io: vec![1.0],
            per_rank_cpu: vec![0.5],
            ..Default::default()
        });
        acc.accumulate(&QueryMetrics {
            per_rank_io: vec![1.0, 3.0],
            per_rank_cpu: vec![0.5, 0.25],
            ..Default::default()
        });
        acc.scale(2);
        assert_eq!(acc.per_rank_io, vec![1.0, 1.5]);
        assert_eq!(acc.per_rank_cpu, vec![0.5, 0.125]);
    }
}
