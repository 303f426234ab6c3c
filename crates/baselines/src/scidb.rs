//! SciDB-style chunked array store.
//!
//! SciDB (Brown, 2010; ArrayStore, SIGMOD'11) stores multi-dimensional
//! arrays as regular chunks, replicating cells along chunk boundaries
//! ("overlap") so window operations avoid neighbour fetches — which is
//! why Table I reports its stored size *above* raw. Sub-volume (value
//! query) access reads the intersecting chunks; value-constrained
//! queries must scan every chunk.
//!
//! SciDB executes queries through its chunk-iterator machinery, whose
//! per-chunk cost on the paper's testbed dominates scans: Table II has
//! SciDB at 206.8 s for a full scan of 256 chunks (~0.8 s per chunk,
//! an order of magnitude above the raw I/O). We model that documented
//! behaviour with a per-chunk overhead charge
//! ([`SciDb::with_chunk_overhead`], default 0.8 s) added to the
//! simulated response — the actual filtering work is still executed
//! and measured.

use crate::{Answer, QueryEngine};
use mloc::array::{ChunkGrid, Region};
use mloc::{MlocError, Result};
use mloc_pfs::{RankIo, StorageBackend};
use std::time::Instant;

/// Default per-chunk query-processing overhead (seconds), fitted from
/// the paper's Table II (206.8 s / 256 chunks).
pub const DEFAULT_CHUNK_OVERHEAD_S: f64 = 0.8;

/// The SciDB-like engine.
pub struct SciDb<'a> {
    backend: &'a dyn StorageBackend,
    file: String,
    grid: ChunkGrid,
    /// Halo width in cells replicated around each chunk.
    overlap: usize,
    /// Per-chunk offsets/lengths (in bytes) within the store file.
    chunk_locs: Vec<(u64, u64)>,
    chunk_overhead_s: f64,
}

impl<'a> SciDb<'a> {
    /// Build a chunked store with overlap replication.
    ///
    /// `chunk_shape` should match the MLOC configuration under
    /// comparison (the paper applies "the same chunking sizes").
    pub fn build(
        backend: &'a dyn StorageBackend,
        name: &str,
        values: &[f64],
        shape: Vec<usize>,
        chunk_shape: Vec<usize>,
        overlap: usize,
    ) -> Result<SciDb<'a>> {
        let grid = ChunkGrid::new(shape.clone(), chunk_shape);
        assert_eq!(values.len(), grid.num_points(), "shape/value mismatch");

        let file = format!("scidb/{name}.dat");
        backend.create(&file)?;
        let mut chunk_locs = Vec::with_capacity(grid.num_chunks());
        let mut offset = 0u64;
        for chunk in 0..grid.num_chunks() {
            let halo = Self::halo_region(&grid, chunk, overlap);
            let mut buf = Vec::with_capacity(halo.num_points() * 8);
            for coords in region_coords(&halo) {
                let mut lin = 0u64;
                for (d, &c) in coords.iter().enumerate() {
                    lin = lin * shape[d] as u64 + c as u64;
                }
                buf.extend_from_slice(&values[lin as usize].to_le_bytes());
            }
            backend.append(&file, &buf)?;
            chunk_locs.push((offset, buf.len() as u64));
            offset += buf.len() as u64;
        }
        Ok(SciDb {
            backend,
            file,
            grid,
            overlap,
            chunk_locs,
            chunk_overhead_s: DEFAULT_CHUNK_OVERHEAD_S,
        })
    }

    /// Override the modeled per-chunk overhead.
    pub fn with_chunk_overhead(mut self, seconds: f64) -> Self {
        self.chunk_overhead_s = seconds;
        self
    }

    /// A chunk's region extended by the overlap halo (clamped).
    fn halo_region(grid: &ChunkGrid, chunk: usize, overlap: usize) -> Region {
        let core = grid.chunk_region(chunk);
        Region::new(
            core.ranges()
                .iter()
                .zip(grid.shape())
                .map(|(&(s, e), &extent)| (s.saturating_sub(overlap), (e + overlap).min(extent)))
                .collect(),
        )
    }

    /// Scan one stored chunk, pushing the *core* cells that pass the
    /// filters (halo cells belong to neighbouring chunks' cores).
    #[allow(clippy::too_many_arguments)]
    fn scan_chunk(
        &self,
        chunk: usize,
        buf: &[u8],
        vc: Option<(f64, f64)>,
        sc: Option<&Region>,
        want_values: bool,
        positions: &mut Vec<u64>,
        values: &mut Vec<f64>,
    ) {
        let core = self.grid.chunk_region(chunk);
        let halo = Self::halo_region(&self.grid, chunk, self.overlap);
        for (i, coords) in region_coords(&halo).enumerate() {
            if !core.contains(&coords) {
                continue;
            }
            if let Some(region) = sc {
                if !region.contains(&coords) {
                    continue;
                }
            }
            let v = f64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
            if let Some((lo, hi)) = vc {
                if !(v >= lo && v < hi) {
                    continue;
                }
            }
            let mut lin = 0u64;
            for (d, &c) in coords.iter().enumerate() {
                lin = lin * self.grid.shape()[d] as u64 + c as u64;
            }
            positions.push(lin);
            if want_values {
                values.push(v);
            }
        }
    }

    fn run_chunks(
        &self,
        chunks: &[usize],
        vc: Option<(f64, f64)>,
        sc: Option<&Region>,
        want_values: bool,
    ) -> Result<Answer> {
        let mut io = RankIo::new(self.backend);
        let mut positions = Vec::new();
        let mut values = Vec::new();
        let mut cpu_s = 0.0;
        for &chunk in chunks {
            let (off, len) = self.chunk_locs[chunk];
            let buf = io.read(self.file.as_str(), off, len)?;
            let t = Instant::now();
            self.scan_chunk(
                chunk,
                &buf,
                vc,
                sc,
                want_values,
                &mut positions,
                &mut values,
            );
            cpu_s += t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        let mut pairs_sorted = positions;
        let values = if want_values {
            let mut pairs: Vec<(u64, f64)> = pairs_sorted.drain(..).zip(values).collect();
            pairs.sort_unstable_by_key(|&(p, _)| p);
            let (p, v): (Vec<u64>, Vec<f64>) = pairs.into_iter().unzip();
            pairs_sorted = p;
            Some(v)
        } else {
            pairs_sorted.sort_unstable();
            None
        };
        cpu_s += t.elapsed().as_secs_f64();
        Ok(Answer {
            positions: pairs_sorted,
            values,
            cpu_s,
            overhead_s: self.chunk_overhead_s * chunks.len() as f64,
            traces: vec![io.into_trace()],
        })
    }
}

/// Iterate a region's coordinates in row-major order.
fn region_coords(region: &Region) -> impl Iterator<Item = Vec<usize>> + '_ {
    let ranges = region.ranges().to_vec();
    let dims = ranges.len();
    let mut coords: Vec<usize> = ranges.iter().map(|&(s, _)| s).collect();
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let out = coords.clone();
        let mut d = dims;
        loop {
            if d == 0 {
                done = true;
                break;
            }
            d -= 1;
            coords[d] += 1;
            if coords[d] < ranges[d].1 {
                break;
            }
            coords[d] = ranges[d].0;
        }
        Some(out)
    })
}

impl QueryEngine for SciDb<'_> {
    fn name(&self) -> &'static str {
        "scidb"
    }

    fn data_bytes(&self) -> u64 {
        self.backend.len(&self.file).unwrap_or(0)
    }

    fn index_bytes(&self) -> u64 {
        0
    }

    fn region_query(&self, lo: f64, hi: f64) -> Result<Answer> {
        // Value constraints require a full scan of every chunk.
        let chunks: Vec<usize> = (0..self.grid.num_chunks()).collect();
        self.run_chunks(&chunks, Some((lo, hi)), None, false)
    }

    fn value_query(&self, region: &Region) -> Result<Answer> {
        if region.dims() != self.grid.dims()
            || !Region::full(self.grid.shape()).contains_region(region)
        {
            return Err(MlocError::Invalid("region out of domain".into()));
        }
        let chunks = self.grid.chunks_intersecting(region);
        self.run_chunks(&chunks, None, Some(region), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mloc_pfs::MemBackend;

    fn fixture(be: &MemBackend) -> (Vec<f64>, SciDb<'_>) {
        let values: Vec<f64> = (0..1024).map(|i| ((i * 7) % 311) as f64).collect();
        let db = SciDb::build(be, "t", &values, vec![32, 32], vec![8, 8], 1)
            .unwrap()
            .with_chunk_overhead(0.01);
        (values, db)
    }

    #[test]
    fn overlap_inflates_storage() {
        let be = MemBackend::new();
        let (values, db) = fixture(&be);
        let raw = values.len() as u64 * 8;
        assert!(
            db.data_bytes() > raw,
            "stored {} raw {raw}",
            db.data_bytes()
        );
        // 8x8 chunks with 1-cell halo: up to (10/8)^2 ≈ 1.56x.
        assert!(db.data_bytes() < raw * 8 / 5);
    }

    #[test]
    fn region_query_exact_despite_replication() {
        let be = MemBackend::new();
        let (values, db) = fixture(&be);
        let ans = db.region_query(50.0, 120.0).unwrap();
        let want: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| (50.0..120.0).contains(&v))
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(ans.positions, want);
        // Full scan: overhead charged for all 16 chunks.
        assert!((ans.overhead_s - 0.16).abs() < 1e-9);
        assert_eq!(ans.bytes_read(), db.data_bytes());
    }

    #[test]
    fn value_query_reads_only_intersecting_chunks() {
        let be = MemBackend::new();
        let (values, db) = fixture(&be);
        let region = Region::new(vec![(0, 8), (0, 8)]);
        let ans = db.value_query(&region).unwrap();
        assert_eq!(ans.positions.len(), 64);
        for (&p, &v) in ans.positions.iter().zip(ans.values.as_ref().unwrap()) {
            assert_eq!(v, values[p as usize]);
        }
        // One chunk read (plus halo), one overhead unit.
        assert!((ans.overhead_s - 0.01).abs() < 1e-9);
        assert_eq!(ans.traces[0].len(), 1);
    }

    #[test]
    fn cross_chunk_value_query() {
        let be = MemBackend::new();
        let (values, db) = fixture(&be);
        let region = Region::new(vec![(4, 20), (6, 26)]);
        let ans = db.value_query(&region).unwrap();
        assert_eq!(ans.positions.len(), 16 * 20);
        for (&p, &v) in ans.positions.iter().zip(ans.values.as_ref().unwrap()) {
            assert_eq!(v, values[p as usize]);
        }
    }

    #[test]
    fn halo_region_clamps_at_domain_edge() {
        let grid = ChunkGrid::new(vec![32, 32], vec![8, 8]);
        let h = SciDb::halo_region(&grid, 0, 2);
        assert_eq!(h.ranges(), &[(0, 10), (0, 10)]);
        let h_last = SciDb::halo_region(&grid, 15, 2);
        assert_eq!(h_last.ranges(), &[(22, 32), (22, 32)]);
    }
}
