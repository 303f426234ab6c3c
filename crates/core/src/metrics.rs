//! Query performance metrics, decomposed as in the paper's Fig. 6:
//! I/O (simulated PFS time), decompression, and reconstruction
//! (filtering + assembling results).

use crate::degrade::DegradationReport;
use crate::query::engine::FetchReport;

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
    /// Bytes read from index files.
    pub index_bytes: u64,
    /// Bytes read from data files.
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
    /// Block-cache hits across all ranks (0 without a cache).
    pub cache_hits: u64,
    /// Block-cache misses across all ranks (0 without a cache).
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
    /// Reads abandoned because the per-query retry backoff budget ran
    /// out, across all ranks.
    pub retries_exhausted: u64,
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

    /// Fold one rank's fetch counters in: byte and event counts sum
    /// over ranks, simulated backoff is a critical-path maximum (like
    /// `io_s`), and `bytes_read` stays the index + data total.
    pub(crate) fn add_rank_io(&mut self, io: &FetchReport) {
        self.index_bytes += io.index_bytes;
        self.data_bytes += io.data_bytes;
        self.bytes_read = self.index_bytes + self.data_bytes;
        self.cache_hits += io.cache_hits;
        self.cache_misses += io.cache_misses;
        self.bytes_saved += io.bytes_saved;
        self.fused_reads += io.fused_reads;
        self.fused_bytes_saved += io.fused_bytes;
        self.retries += io.retries;
        self.retry_wait_s = self.retry_wait_s.max(io.retry_wait_s);
        self.retries_exhausted += io.retries_exhausted;
    }

    /// Merge another query's metrics into an accumulating average
    /// (used by the experiment harness to average over 100 queries).
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
        self.nranks = other.nranks;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bytes_saved += other.bytes_saved;
        self.fused_reads += other.fused_reads;
        self.fused_bytes_saved += other.fused_bytes_saved;
        self.retries += other.retries;
        self.retry_wait_s += other.retry_wait_s;
        self.retries_exhausted += other.retries_exhausted;
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
        self.retries_exhausted = avg(self.retries_exhausted);
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
