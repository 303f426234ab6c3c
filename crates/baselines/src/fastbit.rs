//! FastBit-style binned bitmap index.
//!
//! FastBit (Wu, 2005) answers value-range queries with per-bin
//! WAH-compressed bitmaps over the global point order. Two classic
//! encodings are provided:
//!
//! * [`BitmapEncoding::Equality`] — bitmap `k` marks the points whose
//!   value falls in bin `k` (sparse bitmaps, range queries OR many).
//! * [`BitmapEncoding::Range`] — bitmap `k` marks points with bin
//!   `<= k` (cumulative): a range query needs only two bitmaps.
//!
//! Either way, the paper's observation holds and is reproduced here:
//! the index must be read from disk in full before each query, and
//! boundary-bin candidates must be checked against the raw data.
//!
//! The index file ends in a CRC-32 of everything before it, checked on
//! every load, so a damaged index fails the query instead of answering
//! it wrongly.

use crate::{Answer, QueryEngine};
use mloc::array::Region;
use mloc::binning::BinSpec;
use mloc::integrity::{crc32, crc32_extend};
use mloc::{MlocError, Result};
use mloc_bitmap::{andnot, or, or_many, WahBitmap};
use mloc_pfs::{RankIo, StorageBackend};
use std::time::Instant;

/// Bitmap index encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitmapEncoding {
    /// One sparse bitmap per bin.
    Equality,
    /// Cumulative bitmaps (`bin <= k`), FastBit's production choice.
    Range,
}

/// The FastBit-like engine.
pub struct FastBit<'a> {
    backend: &'a dyn StorageBackend,
    index_file: String,
    data_file: String,
    spec: BinSpec,
    encoding: BitmapEncoding,
    shape: Vec<usize>,
    total_points: u64,
}

impl<'a> FastBit<'a> {
    /// Build the binned bitmap index plus a raw data copy with the
    /// equality encoding (pair with a fine "precision" bin count, as
    /// FastBit's precision binning produces).
    pub fn build(
        backend: &'a dyn StorageBackend,
        name: &str,
        values: &[f64],
        shape: Vec<usize>,
        num_bins: usize,
    ) -> Result<FastBit<'a>> {
        Self::build_with_encoding(
            backend,
            name,
            values,
            shape,
            num_bins,
            BitmapEncoding::Equality,
        )
    }

    /// Build with an explicit bitmap encoding.
    pub fn build_with_encoding(
        backend: &'a dyn StorageBackend,
        name: &str,
        values: &[f64],
        shape: Vec<usize>,
        num_bins: usize,
        encoding: BitmapEncoding,
    ) -> Result<FastBit<'a>> {
        let n: usize = shape.iter().product();
        assert_eq!(n, values.len(), "shape/value mismatch");

        let spec = BinSpec::equal_frequency(values, num_bins);
        let bins: Vec<usize> = values.iter().map(|&v| spec.bin_of(v)).collect();

        let index_file = format!("fastbit/{name}.idx");
        backend.create(&index_file)?;
        let mut header = Vec::new();
        header.extend_from_slice(&(num_bins as u32).to_le_bytes());
        header.push(match encoding {
            BitmapEncoding::Equality => 0,
            BitmapEncoding::Range => 1,
        });
        for b in spec.bounds() {
            header.extend_from_slice(&b.to_le_bytes());
        }
        backend.append(&index_file, &header)?;
        let mut crc = crc32(&header);

        for k in 0..num_bins {
            let bm = match encoding {
                BitmapEncoding::Equality => {
                    let pos: Vec<u64> = bins
                        .iter()
                        .enumerate()
                        .filter(|(_, &b)| b == k)
                        .map(|(i, _)| i as u64)
                        .collect();
                    WahBitmap::from_sorted_positions(n as u64, &pos)
                }
                BitmapEncoding::Range => {
                    let pos: Vec<u64> = bins
                        .iter()
                        .enumerate()
                        .filter(|(_, &b)| b <= k)
                        .map(|(i, _)| i as u64)
                        .collect();
                    WahBitmap::from_sorted_positions(n as u64, &pos)
                }
            };
            let bytes = bm.to_bytes();
            let mut rec = Vec::with_capacity(8 + bytes.len());
            rec.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            rec.extend_from_slice(&bytes);
            crc = crc32_extend(crc, &rec);
            backend.append(&index_file, &rec)?;
        }
        backend.append(&index_file, &crc.to_le_bytes())?;

        // Raw data copy for candidate checks and value output.
        let data_file = format!("fastbit/{name}.dat");
        backend.create(&data_file)?;
        for slab in values.chunks(1 << 20) {
            let mut raw = Vec::with_capacity(slab.len() * 8);
            for v in slab {
                raw.extend_from_slice(&v.to_le_bytes());
            }
            backend.append(&data_file, &raw)?;
        }

        Ok(FastBit {
            backend,
            index_file,
            data_file,
            spec,
            encoding,
            shape,
            total_points: n as u64,
        })
    }

    /// Read and decode the entire index file (FastBit's per-query
    /// index load). Returns the per-bin bitmaps in stored encoding.
    ///
    /// A damaged index is [`MlocError::Corrupt`]: one whose last four
    /// bytes are not the CRC-32 of the rest, and — should damage still
    /// pass it — a bin count other than the bin spec's (which indexes
    /// the maps), a record that runs past the file, or a bitmap that is
    /// refused, is not its whole record, or is not `total_points` long
    /// (the logical ops need equal lengths).
    fn load_index(&self, io: &mut RankIo<'_>) -> Result<Vec<WahBitmap>> {
        let stored = io.read_all(&self.index_file)?;
        let Some((raw, &crc)) = stored.split_last_chunk::<4>() else {
            return Err(MlocError::Corrupt("index truncated"));
        };
        if crc32(raw) != u32::from_le_bytes(crc) {
            return Err(MlocError::Corrupt("index checksum mismatch"));
        }
        // The `len` bytes at `at`, if the file holds them.
        let field = |at: usize, len: usize| {
            at.checked_add(len)
                .and_then(|end| raw.get(at..end))
                .ok_or(MlocError::Corrupt("index truncated"))
        };
        let le = |b: &[u8]| b.iter().rev().fold(0u64, |v, &x| v << 8 | u64::from(x));
        let num_bins = le(field(0, 4)?);
        if num_bins != self.spec.num_bins() as u64 {
            return Err(MlocError::Corrupt(
                "index bin count disagrees with its bins",
            ));
        }
        let mut pos = 5 + (self.spec.num_bins() + 1) * 8;
        let mut maps = Vec::with_capacity(self.spec.num_bins());
        for _ in 0..num_bins {
            let len = usize::try_from(le(field(pos, 8)?))
                .map_err(|_| MlocError::Corrupt("index truncated"))?;
            let record = field(pos + 8, len)?;
            pos += 8 + len;
            let bm = match WahBitmap::from_bytes(record) {
                Ok((bm, used)) if used == len && bm.len() == self.total_points => bm,
                _ => return Err(MlocError::Corrupt("index bitmap damaged")),
            };
            maps.push(bm);
        }
        Ok(maps)
    }

    /// Equality bitmap of bin `k` from the loaded index.
    fn equality_bitmap(&self, maps: &[WahBitmap], k: usize) -> WahBitmap {
        match self.encoding {
            BitmapEncoding::Equality => maps[k].clone(),
            BitmapEncoding::Range => {
                if k == 0 {
                    maps[0].clone()
                } else {
                    andnot(&maps[k], &maps[k - 1])
                }
            }
        }
    }

    /// Read raw values at sorted candidate positions, coalescing
    /// nearby candidates into single reads.
    fn read_values_at(&self, io: &mut RankIo<'_>, positions: &[u64]) -> Result<Vec<f64>> {
        let runs: Vec<(u64, u64)> = positions.iter().map(|&p| (p, 1)).collect();
        let extents = crate::runs::coalesce_runs(&runs, crate::runs::READAHEAD_GAP_BYTES);
        let mut out = Vec::with_capacity(positions.len());
        let mut idx = 0usize;
        for (start, len) in extents {
            let buf = io.read(self.data_file.as_str(), start * 8, len * 8)?;
            let end = start + len;
            while idx < positions.len() && positions[idx] < end {
                let off = ((positions[idx] - start) * 8) as usize;
                out.push(f64::from_le_bytes(buf[off..off + 8].try_into().unwrap()));
                idx += 1;
            }
        }
        Ok(out)
    }
}

impl QueryEngine for FastBit<'_> {
    fn name(&self) -> &'static str {
        "fastbit"
    }

    fn data_bytes(&self) -> u64 {
        self.backend.len(&self.data_file).unwrap_or(0)
    }

    fn index_bytes(&self) -> u64 {
        self.backend.len(&self.index_file).unwrap_or(0)
    }

    fn region_query(&self, lo: f64, hi: f64) -> Result<Answer> {
        let mut io = RankIo::new(self.backend);
        let maps = self.load_index(&mut io)?;

        let t = Instant::now();
        let (aligned, boundary) = self.spec.split_candidates(lo, hi);
        let mut result = match (self.encoding, aligned.first(), aligned.last()) {
            // Contiguous aligned bins resolve with two cumulative maps.
            (BitmapEncoding::Range, Some(&first), Some(&last)) => {
                if first == 0 {
                    maps[last].clone()
                } else {
                    andnot(&maps[last], &maps[first - 1])
                }
            }
            (BitmapEncoding::Equality, Some(_), Some(_)) => {
                let covered: Vec<WahBitmap> = aligned.iter().map(|&k| maps[k].clone()).collect();
                or_many(&covered, self.total_points)
            }
            _ => WahBitmap::zeros(self.total_points),
        };
        let mut cpu_s = t.elapsed().as_secs_f64();

        // Boundary bins: candidates verified against the raw data.
        for k in boundary {
            let t = Instant::now();
            let candidates = self.equality_bitmap(&maps, k).to_positions();
            cpu_s += t.elapsed().as_secs_f64();
            let values = self.read_values_at(&mut io, &candidates)?;
            let t = Instant::now();
            let hits: Vec<u64> = candidates
                .iter()
                .zip(&values)
                .filter(|(_, &v)| v >= lo && v < hi)
                .map(|(&p, _)| p)
                .collect();
            let hit_map = WahBitmap::from_sorted_positions(self.total_points, &hits);
            result = or(&result, &hit_map);
            cpu_s += t.elapsed().as_secs_f64();
        }

        let t = Instant::now();
        let positions = result.to_positions();
        cpu_s += t.elapsed().as_secs_f64();
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
        // FastBit is a value index: spatially-constrained queries still
        // pay the full index load (paper: "performance … similar to
        // region queries as it must still load the entire index"),
        // then fetch the raw rows of the region.
        let mut io = RankIo::new(self.backend);
        let _maps = self.load_index(&mut io)?;

        let runs = crate::runs::region_runs(&self.shape, region);
        let extents = crate::runs::coalesce_runs(&runs, crate::runs::READAHEAD_GAP_BYTES);
        let mut positions = Vec::new();
        let mut values = Vec::new();
        let mut cpu_s = 0.0;
        let mut run_idx = 0usize;
        for (start, len) in extents {
            let buf = io.read(self.data_file.as_str(), start * 8, len * 8)?;
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

    fn fixture(be: &MemBackend, encoding: BitmapEncoding) -> (Vec<f64>, FastBit<'_>) {
        let values: Vec<f64> = (0..2048).map(|i| ((i * 31) % 503) as f64).collect();
        let fb =
            FastBit::build_with_encoding(be, "t", &values, vec![64, 32], 16, encoding).unwrap();
        (values, fb)
    }

    #[test]
    fn region_query_is_exact_both_encodings() {
        for enc in [BitmapEncoding::Equality, BitmapEncoding::Range] {
            let be = MemBackend::new();
            let (values, fb) = fixture(&be, enc);
            for (lo, hi) in [(100.0, 200.0), (0.0, 503.0), (250.0, 251.0)] {
                let ans = fb.region_query(lo, hi).unwrap();
                let want: Vec<u64> = values
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v >= lo && v < hi)
                    .map(|(i, _)| i as u64)
                    .collect();
                assert_eq!(ans.positions, want, "{enc:?} [{lo},{hi})");
            }
        }
    }

    #[test]
    fn every_query_loads_the_whole_index() {
        let be = MemBackend::new();
        let (_, fb) = fixture(&be, BitmapEncoding::Range);
        let idx_size = fb.index_bytes();
        assert!(idx_size > 0);
        let ans = fb.region_query(100.0, 110.0).unwrap();
        // First trace op is the full index read.
        assert_eq!(ans.traces[0][0].len, idx_size);
    }

    #[test]
    fn index_sizes_are_substantial() {
        // On oscillatory data both encodings produce a heavyweight
        // index comparable to the raw data (paper Table I behaviour);
        // their relative size depends on the data's smoothness.
        let be1 = MemBackend::new();
        let be2 = MemBackend::new();
        let (values, eq) = fixture(&be1, BitmapEncoding::Equality);
        let (_, rg) = fixture(&be2, BitmapEncoding::Range);
        let raw = values.len() as u64 * 8;
        assert!(
            eq.index_bytes() * 8 > raw,
            "eq idx {} raw {raw}",
            eq.index_bytes()
        );
        assert!(
            rg.index_bytes() * 8 > raw,
            "rg idx {} raw {raw}",
            rg.index_bytes()
        );
    }

    #[test]
    fn value_query_is_exact_and_loads_index() {
        let be = MemBackend::new();
        let (values, fb) = fixture(&be, BitmapEncoding::Range);
        let region = Region::new(vec![(10, 20), (5, 25)]);
        let ans = fb.value_query(&region).unwrap();
        assert_eq!(ans.positions.len(), 200);
        for (&p, &v) in ans.positions.iter().zip(ans.values.as_ref().unwrap()) {
            assert_eq!(v, values[p as usize]);
        }
        assert!(ans.bytes_read() > fb.index_bytes());
    }

    /// Every truncation and every single-bit flip of a small index, in
    /// either encoding, fails the query as `Corrupt`: the checksum that
    /// ends the index covers every byte, the bitmaps' words included.
    #[test]
    fn a_damaged_index_answers_or_is_corrupt() {
        for enc in [BitmapEncoding::Equality, BitmapEncoding::Range] {
            let be = MemBackend::new();
            let values: Vec<f64> = (0..256).map(|i| ((i * 31) % 97) as f64).collect();
            let fb = FastBit::build_with_encoding(&be, "d", &values, vec![16, 16], 6, enc).unwrap();
            let (lo, hi) = (20.0, 60.0);
            let want = fb.region_query(lo, hi).unwrap().positions;
            let index = be.read(&fb.index_file, 0, fb.index_bytes()).unwrap();
            let query = |bytes: &[u8]| {
                be.create(&fb.index_file).unwrap();
                be.append(&fb.index_file, bytes).unwrap();
                let got = fb.region_query(lo, hi);
                if let Err(e) = &got {
                    assert!(matches!(e, MlocError::Corrupt(_)), "{enc:?}: {e}");
                }
                got.ok().map(|a| a.positions)
            };
            assert_eq!(query(&index), Some(want), "{enc:?}: undamaged");
            for cut in 0..index.len() {
                assert_eq!(query(&index[..cut]), None, "{enc:?}: cut at {cut}");
            }
            for bit in 0..index.len() * 8 {
                let mut flipped = index.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(query(&flipped), None, "{enc:?}: flip of bit {bit}");
            }
        }
    }

    #[test]
    fn empty_range() {
        let be = MemBackend::new();
        let (_, fb) = fixture(&be, BitmapEncoding::Range);
        let ans = fb.region_query(1e9, 2e9).unwrap();
        assert!(ans.positions.is_empty());
    }
}
