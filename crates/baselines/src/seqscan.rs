//! Naive sequential scan over a row-major raw file.

use crate::{Answer, QueryEngine};
use mloc::array::Region;
use mloc::{MlocError, Result};
use mloc_pfs::{RankIo, StorageBackend};
use std::time::Instant;

/// The sequential-scan baseline: data linearized row-major on disk,
/// accesses computed from file offsets (paper §IV-A.2).
pub struct SeqScan<'a> {
    backend: &'a dyn StorageBackend,
    file: String,
    shape: Vec<usize>,
    total_points: u64,
}

impl<'a> SeqScan<'a> {
    /// Write `values` (row-major over `shape`) as a raw file.
    pub fn build(
        backend: &'a dyn StorageBackend,
        name: &str,
        values: &[f64],
        shape: Vec<usize>,
    ) -> Result<SeqScan<'a>> {
        let n: usize = shape.iter().product();
        assert_eq!(n, values.len(), "shape/value mismatch");
        let file = format!("seqscan/{name}.raw");
        backend.create(&file)?;
        // Append in bounded slabs to keep the copy buffer small.
        for slab in values.chunks(1 << 20) {
            let mut buf = Vec::with_capacity(slab.len() * 8);
            for v in slab {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            backend.append(&file, &buf)?;
        }
        Ok(SeqScan {
            backend,
            file,
            shape,
            total_points: n as u64,
        })
    }

    /// Open a previously built raw file.
    pub fn open(
        backend: &'a dyn StorageBackend,
        name: &str,
        shape: Vec<usize>,
    ) -> Result<SeqScan<'a>> {
        let file = format!("seqscan/{name}.raw");
        let n: u64 = shape.iter().map(|&e| e as u64).product();
        let bytes = backend.len(&file)?;
        if bytes != n * 8 {
            return Err(MlocError::Corrupt("raw file size mismatch"));
        }
        Ok(SeqScan {
            backend,
            file,
            shape,
            total_points: n,
        })
    }
}

fn decode_values(buf: &[u8]) -> Vec<f64> {
    buf.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

impl QueryEngine for SeqScan<'_> {
    fn name(&self) -> &'static str {
        "seqscan"
    }

    fn data_bytes(&self) -> u64 {
        self.total_points * 8
    }

    fn index_bytes(&self) -> u64 {
        0
    }

    fn region_query(&self, lo: f64, hi: f64) -> Result<Answer> {
        // Must scan the entire dataset.
        let mut io = RankIo::new(self.backend);
        let mut positions = Vec::new();
        let mut cpu_s = 0.0;
        // Scan in slabs so memory stays bounded; the trace still shows
        // one long sequential read pattern.
        let slab = 8u64 << 20;
        let total = self.total_points * 8;
        let mut off = 0u64;
        while off < total {
            let len = slab.min(total - off);
            let buf = io.read(self.file.as_str(), off, len)?;
            let t = Instant::now();
            let base = off / 8;
            for (i, v) in decode_values(&buf).into_iter().enumerate() {
                if v >= lo && v < hi {
                    positions.push(base + i as u64);
                }
            }
            cpu_s += t.elapsed().as_secs_f64();
            off += len;
        }
        Ok(Answer {
            positions,
            values: None,
            cpu_s,
            overhead_s: 0.0,
            traces: vec![io.into_trace()],
        })
    }

    fn value_query(&self, region: &Region) -> Result<Answer> {
        if region.dims() != self.shape.len() || !Region::full(&self.shape).contains_region(region) {
            return Err(MlocError::Invalid("region out of domain".into()));
        }
        let mut io = RankIo::new(self.backend);
        let mut positions = Vec::new();
        let mut values = Vec::new();
        let mut cpu_s = 0.0;
        // Row runs, merged into readahead-sized extents.
        let runs = crate::runs::region_runs(&self.shape, region);
        let extents = crate::runs::coalesce_runs(&runs, crate::runs::READAHEAD_GAP_BYTES);
        let mut run_idx = 0usize;
        for (start, len) in extents {
            let buf = io.read(self.file.as_str(), start * 8, len * 8)?;
            let t = Instant::now();
            let end = start + len;
            while run_idx < runs.len() && runs[run_idx].0 < end {
                let (rs, rl) = runs[run_idx];
                let off = ((rs - start) * 8) as usize;
                for (i, c) in buf[off..off + rl as usize * 8].chunks_exact(8).enumerate() {
                    positions.push(rs + i as u64);
                    values.push(f64::from_le_bytes(c.try_into().unwrap()));
                }
                run_idx += 1;
            }
            cpu_s += t.elapsed().as_secs_f64();
        }
        Ok(Answer {
            positions,
            values: Some(values),
            cpu_s,
            overhead_s: 0.0,
            traces: vec![io.into_trace()],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mloc_pfs::MemBackend;

    fn fixture(be: &MemBackend) -> (Vec<f64>, SeqScan<'_>) {
        let values: Vec<f64> = (0..1024).map(|i| (i % 97) as f64).collect();
        let scan = SeqScan::build(be, "t", &values, vec![32, 32]).unwrap();
        (values, scan)
    }

    #[test]
    fn region_query_scans_everything() {
        let be = MemBackend::new();
        let (values, scan) = fixture(&be);
        let ans = scan.region_query(10.0, 20.0).unwrap();
        let want: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| (10.0..20.0).contains(&v))
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(ans.positions, want);
        assert_eq!(ans.bytes_read(), 1024 * 8);
    }

    #[test]
    fn value_query_reads_only_region_rows() {
        let be = MemBackend::new();
        let (values, scan) = fixture(&be);
        let region = Region::new(vec![(4, 8), (10, 20)]);
        let ans = scan.value_query(&region).unwrap();
        assert_eq!(ans.positions.len(), 40);
        for (&p, &v) in ans.positions.iter().zip(ans.values.as_ref().unwrap()) {
            assert_eq!(v, values[p as usize]);
            let (r, c) = (p / 32, p % 32);
            assert!((4..8).contains(&(r as usize)) && (10..20).contains(&(c as usize)));
        }
        // Rows are close together: readahead merges them into one
        // extent spanning first-run start to last-run end.
        assert_eq!(ans.traces[0].len(), 1);
        let span = (7 * 32 + 20) - (4 * 32 + 10);
        assert_eq!(ans.bytes_read(), span * 8);
    }

    #[test]
    fn open_rejects_bad_size() {
        let be = MemBackend::new();
        fixture(&be);
        assert!(SeqScan::open(&be, "t", vec![32, 32]).is_ok());
        assert!(SeqScan::open(&be, "t", vec![32, 33]).is_err());
    }

    #[test]
    fn value_query_3d() {
        let be = MemBackend::new();
        let values: Vec<f64> = (0..512).map(|i| i as f64).collect();
        let scan = SeqScan::build(&be, "t3", &values, vec![8, 8, 8]).unwrap();
        let region = Region::new(vec![(1, 3), (2, 4), (0, 8)]);
        let ans = scan.value_query(&region).unwrap();
        assert_eq!(ans.positions.len(), 2 * 2 * 8);
        // The tiny domain coalesces into a single readahead extent.
        assert_eq!(ans.traces[0].len(), 1);
    }

    #[test]
    fn rejects_out_of_domain() {
        let be = MemBackend::new();
        let (_, scan) = fixture(&be);
        assert!(scan
            .value_query(&Region::new(vec![(0, 40), (0, 32)]))
            .is_err());
    }
}
