//! The index section of a bin: chunk directory, chunk summaries,
//! positional bitmaps, and the compressed-unit locator.
//!
//! A bin's index holds, per chunk (in curve-rank order):
//!
//! * the number of the bin's points inside that chunk,
//! * the chunk-local *positions* of those points as a run list — the
//!   "light-weight index" that lets region queries answer aligned bins
//!   without touching data ([`mloc_bitmap::runs`]), and
//! * the location of each compressed unit (one per PLoD byte group, or
//!   a single unit when PLoD is off).
//!
//! The header + directory is fixed-size given the chunk count, so a
//! query reads it with a single sequential read and then fetches only
//! the bitmaps/units of the chunks it needs.
//!
//! # Format versions
//!
//! Every version keeps the header + directory byte layout of v1; only
//! the version byte, where offsets count from and what a bitmap extent
//! holds differ.
//!
//! * **v1** — header, then WAH bitmaps, in an index file of its own
//!   next to the bin's data file.
//! * **v2** — adds a **chunk-summary section** between the header and
//!   the bitmaps, holding per-chunk `(min_pos, max_pos, all_of_chunk)`
//!   so a query classifies chunks as full / empty / partial in O(1) and
//!   skips the bitmap read for full and empty chunks; and a rank/select
//!   directory appended to each WAH bitmap (`bitmap_len` covers both).
//! * **v3** — the index section of a one-file bin ([`crate::binfile`]):
//!   the v2 structures, with the summary extent followed by the sizes of
//!   the file's two checksum tables, and bitmap and unit offsets stored
//!   as absolute file offsets.
//! * **v4** — v3 with each bitmap extent holding the chunk's run list
//!   pairs alone: no WAH words, no rank/select directory. The set-bit
//!   count is the entry's, the length the chunk's point count.
//!
//! Only v4 is read here. Nothing writes v1–v3 any more, and nothing but
//! `mloc upgrade` ([`crate::upgrade`]) reads them: it copies a v1–v3
//! store out as v4, deriving v1's missing summaries from its bitmaps.
//! `tests/golden/v1_dataset`, `v2_dataset` and `v3_dataset` are its
//! inputs.

//! # One writer, one reader
//!
//! [`crate::binfile::BinFileBuilder`] is the only writer of the format
//! and [`HeaderView`] / [`SummaryView`] are the only readers. Every
//! directory field sits at an offset fixed by the chunk and part
//! counts, so nothing materializes the directory: `parse` checks the
//! prologue and the declared size once, each accessor then decodes one
//! field of one chunk in place. A query touching 3 of a bin's 64
//! chunks pays for 3.

use crate::wire::Reader;
use crate::{MlocError, Result};
use std::ops::Deref;

pub(crate) const MAGIC: u32 = 0x5844_494D; // "MIDX"
/// The index format version (v4 = the index section of a one-file bin,
/// its bitmaps stored as run lists), the only one [`HeaderView`] reads.
pub const VERSION: u8 = 4;
pub(crate) const SUMMARY_MAGIC: u32 = 0x4D55_534D; // "MSUM"
/// The two checksum tables' entry counts (`u32` each) that end the
/// summary extent, since v3.
pub const TABLE_SIZES: u64 = 8;

/// Location of one compressed unit in the bin's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitLoc {
    /// Byte offset within the bin file (within the units handed to
    /// [`crate::binfile::BinFileBuilder::finish`], while building).
    pub offset: u64,
    /// Compressed length in bytes (0 = empty unit).
    pub clen: u32,
}

/// Coarse per-chunk classification record of the summary section.
///
/// Together with [`HeaderView::count`] this classifies a chunk without
/// touching its bitmap: `count == 0` → empty, `all_of_chunk` → every
/// position belongs to this bin (the bitmap is one run), otherwise
/// partial with set positions confined to `[min_pos, max_pos]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Smallest chunk-local set position (`u32::MAX` when empty).
    pub min_pos: u32,
    /// Largest chunk-local set position (0 when empty).
    pub max_pos: u32,
    /// True when every position of the chunk belongs to this bin.
    pub all_of_chunk: bool,
}

impl ChunkSummary {
    /// The sentinel written for chunks with no points in this bin.
    pub const EMPTY: ChunkSummary = ChunkSummary {
        min_pos: u32::MAX,
        max_pos: 0,
        all_of_chunk: false,
    };
}

/// Size in bytes of the serialized header + directory for a given
/// geometry — queries use this to issue an exact-size first read.
pub fn header_size(num_chunks: usize, num_parts: usize) -> u64 {
    HEADER_PROLOGUE + num_chunks as u64 * entry_size(num_parts)
}

/// magic(4) version(1) bin(4) num_chunks(4) num_parts(1)
pub(crate) const HEADER_PROLOGUE: u64 = 14;
/// Fixed part of a directory entry: count(4) bitmap_off(8) bitmap_len(4)
pub(crate) const ENTRY_FIXED: u64 = 16;
/// One unit locator: offset(8) clen(4)
pub(crate) const UNIT_LOC: u64 = 12;

fn entry_size(num_parts: usize) -> u64 {
    ENTRY_FIXED + num_parts as u64 * UNIT_LOC
}

/// Where chunk `rank`'s directory entry sits in the header — for the
/// builder that writes it and the view that reads it.
pub(crate) fn entry_range(rank: usize, num_parts: usize) -> std::ops::Range<usize> {
    let size = entry_size(num_parts) as usize;
    let at = HEADER_PROLOGUE as usize + rank * size;
    at..at + size
}

/// magic(4) num_chunks(4)
const SUMMARY_PROLOGUE: u64 = 8;
/// One summary record: min_pos(4) max_pos(4) flags(1)
const SUMMARY_RECORD: u64 = 9;

pub(crate) fn le_u32(b: &[u8], at: usize) -> u32 {
    let b = &b[at..at + 4];
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

pub(crate) fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from(le_u32(b, at)) | u64::from(le_u32(b, at + 4)) << 32
}

/// Exact size in bytes of the chunk-summary section.
pub(crate) fn summary_size(num_chunks: usize) -> u64 {
    SUMMARY_PROLOGUE + num_chunks as u64 * SUMMARY_RECORD
}

/// Zero-copy view of a chunk-summary section over any byte holder
/// (`&[u8]`, or the engine's cached [`crate::cache::ByteView`]).
#[derive(Debug, Clone)]
pub struct SummaryView<B> {
    data: B,
    num_chunks: usize,
}

impl<B: Deref<Target = [u8]>> SummaryView<B> {
    /// Check a summary section: magic, that the recorded chunk count
    /// is `num_chunks` (from the header), the declared size, and every
    /// record's flag byte — so [`Self::get`] cannot fail afterwards.
    pub fn parse(data: B, num_chunks: usize) -> Result<Self> {
        let mut r = Reader::new(&data);
        if r.u32()? != SUMMARY_MAGIC {
            return Err(MlocError::Corrupt("bad summary magic"));
        }
        if r.u32()? as usize != num_chunks {
            return Err(MlocError::Corrupt("summary chunk count mismatch"));
        }
        if summary_size(num_chunks) > data.len() as u64 {
            return Err(MlocError::Corrupt("summary truncated"));
        }
        let records = &data[SUMMARY_PROLOGUE as usize..summary_size(num_chunks) as usize];
        if records
            .chunks_exact(SUMMARY_RECORD as usize)
            .any(|rec| rec[8] > 1)
        {
            return Err(MlocError::Corrupt("bad summary flags"));
        }
        Ok(SummaryView { data, num_chunks })
    }

    /// The summary of chunk `rank`.
    ///
    /// # Panics
    /// Panics when `rank` is not below the section's chunk count.
    pub fn get(&self, rank: usize) -> ChunkSummary {
        assert!(rank < self.num_chunks, "chunk rank out of range");
        let at = (SUMMARY_PROLOGUE + rank as u64 * SUMMARY_RECORD) as usize;
        let rec = &self.data[at..at + SUMMARY_RECORD as usize];
        ChunkSummary {
            min_pos: le_u32(rec, 0),
            max_pos: le_u32(rec, 4),
            all_of_chunk: rec[8] == 1,
        }
    }
}

/// Zero-copy view of a bin index header + directory over any byte
/// holder (`&[u8]`, or the engine's cached [`crate::cache::ByteView`]).
///
/// [`Self::parse`] is O(1): it checks the prologue and that the
/// directory it declares fits the buffer. The per-chunk accessors then
/// read fixed-offset fields on demand and allocate nothing.
///
/// # Panics
/// Accessors taking a `rank` (or `part`) panic when it is not below
/// the header's chunk (or part) count, like slice indexing.
#[derive(Debug, Clone)]
pub struct HeaderView<B> {
    data: B,
    num_chunks: usize,
    num_parts: usize,
}

impl<B: Deref<Target = [u8]>> HeaderView<B> {
    /// Check a header: magic, version, part count, and that the
    /// declared directory fits in `data` (which may extend past it).
    pub fn parse(data: B) -> Result<Self> {
        let mut r = Reader::new(&data);
        if r.u32()? != MAGIC {
            return Err(MlocError::Corrupt("bad index magic"));
        }
        if r.u8()? != VERSION {
            return Err(MlocError::Corrupt("unsupported index version"));
        }
        let _bin = r.u32()?; // the file name already says which bin
        let num_chunks = r.u32()? as usize;
        let num_parts = r.u8()? as usize;
        if num_parts == 0 || num_parts > 16 {
            return Err(MlocError::Corrupt("bad part count"));
        }
        // The directory must fit in the supplied buffer: this is what
        // makes every in-range accessor below panic-free.
        if header_size(num_chunks, num_parts) > data.len() as u64 {
            return Err(MlocError::Corrupt("header truncated"));
        }
        Ok(HeaderView {
            data,
            num_chunks,
            num_parts,
        })
    }

    /// Number of chunks in the directory.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Number of unit parts per chunk.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Require the geometry the store was opened with: a header that
    /// parses but describes another chunk grid or part count would
    /// otherwise send the engine's rank and part indices out of range.
    pub fn with_geometry(self, num_chunks: usize, num_parts: usize) -> Result<Self> {
        if (self.num_chunks, self.num_parts) != (num_chunks, num_parts) {
            return Err(MlocError::Corrupt("index geometry mismatch"));
        }
        Ok(self)
    }

    /// Size of the header + directory region in bytes.
    pub fn header_bytes(&self) -> u64 {
        header_size(self.num_chunks, self.num_parts)
    }

    /// Size of the summary extent that follows the header: the
    /// chunk-summary section, then the checksum table sizes.
    pub fn summary_bytes(&self) -> u64 {
        summary_size(self.num_chunks) + TABLE_SIZES
    }

    /// Absolute file offset of the summary extent.
    pub fn summary_file_offset(&self) -> u64 {
        self.header_bytes()
    }

    /// The directory entry of chunk `rank`, as stored.
    fn entry(&self, rank: usize) -> &[u8] {
        assert!(rank < self.num_chunks, "chunk rank out of range");
        &self.data[entry_range(rank, self.num_parts)]
    }

    /// Number of the bin's points inside chunk `rank`.
    pub fn count(&self, rank: usize) -> u32 {
        le_u32(self.entry(rank), 0)
    }

    /// Stored run-list length in bytes (0 when the chunk has no points
    /// here).
    pub fn bitmap_len(&self, rank: usize) -> u32 {
        le_u32(self.entry(rank), 12)
    }

    /// Absolute file offset of the chunk's bitmap.
    pub fn bitmap_file_offset(&self, rank: usize) -> u64 {
        le_u64(self.entry(rank), 4)
    }

    /// File location of part `part` of the chunk's unit.
    pub fn unit(&self, rank: usize, part: usize) -> UnitLoc {
        assert!(part < self.num_parts, "part out of range");
        let at = (ENTRY_FIXED + part as u64 * UNIT_LOC) as usize;
        let e = self.entry(rank);
        UnitLoc {
            offset: le_u64(e, at),
            clen: le_u32(e, at + 8),
        }
    }

    /// Every part location of the chunk's unit, in part order.
    pub fn units(&self, rank: usize) -> impl Iterator<Item = UnitLoc> + '_ {
        (0..self.num_parts).map(move |part| self.unit(rank, part))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfile::{summary_extent_len, BinFileBuilder, END_LEN};
    use crate::integrity::table_len;
    use mloc_bitmap::{RunList, RunListBuf};

    /// The run list of `positions` in `len` points.
    fn runs(len: u64, positions: &[u64]) -> RunList {
        RunList::from_sorted_positions(len, positions)
    }

    /// A full chunk of `len` points.
    fn full(len: u64) -> RunList {
        runs(len, &(0..len).collect::<Vec<_>>())
    }

    /// A built bin file with no unit bytes (every unit location set is
    /// empty).
    fn finish(b: BinFileBuilder) -> Vec<u8> {
        b.finish(&[], &[]).bytes
    }

    #[test]
    fn header_roundtrip() {
        let mut b = BinFileBuilder::new(5, 4, 3);
        let bm1 = runs(100, &[1, 5, 99]);
        let bm2 = runs(50, &[0]);
        b.set_chunk(
            1,
            bm1.as_ref(),
            &[
                UnitLoc {
                    offset: 0,
                    clen: 10,
                },
                UnitLoc {
                    offset: 10,
                    clen: 20,
                },
                UnitLoc {
                    offset: 30,
                    clen: 5,
                },
            ],
        );
        b.set_chunk(3, bm2.as_ref(), &[UnitLoc::default(); 3]);
        let units: Vec<u8> = (0..35).collect();
        let bytes = b.finish(&units, &[10, 20, 5]).bytes;

        let hdr_len = header_size(4, 3) as usize;
        let idx = HeaderView::parse(&bytes[..hdr_len]).unwrap();
        assert_eq!(le_u32(&bytes, 5), 5, "bin id");
        assert_eq!(idx.num_chunks(), 4);
        assert_eq!(idx.units(0).count(), 3);
        assert_eq!(idx.count(1), 3);
        assert_eq!(idx.count(3), 1);
        assert_eq!(idx.count(0), 0);
        // Unit offsets are absolute: the units end where the end
        // marker begins.
        let units_at = bytes.len() as u64 - END_LEN - 35;
        assert_eq!(
            idx.unit(1, 1),
            UnitLoc {
                offset: units_at + 10,
                clen: 20
            }
        );
        let part = idx.unit(1, 2);
        assert_eq!(bytes[part.offset as usize], 30);

        // Run lists are stored as they are, at their recorded offsets.
        let start = idx.bitmap_file_offset(1) as usize;
        let stored = &bytes[start..start + idx.bitmap_len(1) as usize];
        assert_eq!(stored, bm1.as_ref().pairs());
        let mut buf = RunListBuf::new();
        let at = buf.push_stored(stored, 3, 100).unwrap();
        let got: Vec<_> = buf.get(at).unwrap().iter().collect();
        assert_eq!(got, [(1, 0, 1), (5, 1, 1), (99, 2, 1)]);
    }

    #[test]
    fn header_size_is_exact() {
        let bytes = finish(BinFileBuilder::new(0, 7, 7));
        // An all-empty bin is exactly its fixed blocks — header,
        // summary, an index table of header and summary, an empty data
        // table — and the end marker: no bitmaps, no units.
        let fixed = header_size(7, 7) + summary_extent_len(7) + table_len(2) + table_len(0);
        assert_eq!(bytes.len() as u64, fixed + END_LEN);
        let idx = HeaderView::parse(&bytes[..header_size(7, 7) as usize]).unwrap();
        assert_eq!(bytes[4], VERSION);
        assert_eq!(idx.summary_bytes(), summary_extent_len(7));
        let summaries =
            SummaryView::parse(&bytes[idx.summary_file_offset() as usize..], 7).unwrap();
        assert!((0..7).all(|rank| summaries.get(rank) == ChunkSummary::EMPTY));
    }

    #[test]
    fn summary_tracks_chunk_shape() {
        let mut b = BinFileBuilder::new(0, 3, 1);
        // Partial chunk: bits 2..=7 of 20.
        b.set_chunk(0, runs(20, &[2, 3, 7]).as_ref(), &[UnitLoc::default()]);
        // Full chunk: all 20 bits.
        b.set_chunk(1, full(20).as_ref(), &[UnitLoc::default()]);
        let bytes = finish(b);
        let hdr = HeaderView::parse(&bytes[..header_size(3, 1) as usize]).unwrap();
        let start = hdr.summary_file_offset() as usize;
        let summaries =
            SummaryView::parse(&bytes[start..start + hdr.summary_bytes() as usize], 3).unwrap();
        assert_eq!(
            summaries.get(0),
            ChunkSummary {
                min_pos: 2,
                max_pos: 7,
                all_of_chunk: false
            }
        );
        assert_eq!(
            summaries.get(1),
            ChunkSummary {
                min_pos: 0,
                max_pos: 19,
                all_of_chunk: true
            }
        );
        assert_eq!(summaries.get(2), ChunkSummary::EMPTY);
    }

    #[test]
    fn rejects_corrupt_headers() {
        let bytes = finish(BinFileBuilder::new(0, 2, 1));
        assert!(HeaderView::parse(&bytes[..5]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(HeaderView::parse(&bad[..]).is_err());
        let mut bad2 = bytes;
        bad2[4] = 99; // version
        assert!(HeaderView::parse(&bad2[..]).is_err());
    }

    /// The eager decoders and the eager form they filled, as they were
    /// before the views existed, kept verbatim as the differential
    /// oracle: same checks, same order, same messages — but for the
    /// rules added since: one version alone (now 4), and a summary
    /// extent that ends in the table sizes.
    mod oracle {
        use super::super::*;

        /// Directory entry of one chunk within one bin.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct ChunkEntry {
            pub count: u32,
            pub bitmap_off: u64,
            pub bitmap_len: u32,
            pub units: Vec<UnitLoc>,
        }

        /// The parsed header + directory of a bin index file.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct BinIndex {
            pub chunks: Vec<ChunkEntry>,
            pub header_bytes: u64,
            pub summary_bytes: u64,
        }

        pub fn decode_summary(data: &[u8], num_chunks: usize) -> Result<Vec<ChunkSummary>> {
            let mut r = Reader::new(data);
            if r.u32()? != SUMMARY_MAGIC {
                return Err(MlocError::Corrupt("bad summary magic"));
            }
            if r.u32()? as usize != num_chunks {
                return Err(MlocError::Corrupt("summary chunk count mismatch"));
            }
            if summary_size(num_chunks) > data.len() as u64 {
                return Err(MlocError::Corrupt("summary truncated"));
            }
            let mut out = Vec::with_capacity(num_chunks);
            for _ in 0..num_chunks {
                let min_pos = r.u32()?;
                let max_pos = r.u32()?;
                let flags = r.u8()?;
                if flags > 1 {
                    return Err(MlocError::Corrupt("bad summary flags"));
                }
                out.push(ChunkSummary {
                    min_pos,
                    max_pos,
                    all_of_chunk: flags == 1,
                });
            }
            Ok(out)
        }

        pub fn decode_header(data: &[u8]) -> Result<BinIndex> {
            let mut r = Reader::new(data);
            if r.u32()? != MAGIC {
                return Err(MlocError::Corrupt("bad index magic"));
            }
            if r.u8()? != 4 {
                return Err(MlocError::Corrupt("unsupported index version"));
            }
            let _bin = r.u32()?;
            let num_chunks = r.u32()? as usize;
            let num_parts = r.u8()? as usize;
            if num_parts == 0 || num_parts > 16 {
                return Err(MlocError::Corrupt("bad part count"));
            }
            if header_size(num_chunks, num_parts) > data.len() as u64 {
                return Err(MlocError::Corrupt("header truncated"));
            }
            let mut chunks = Vec::with_capacity(num_chunks);
            for _ in 0..num_chunks {
                let count = r.u32()?;
                let bitmap_off = r.u64()?;
                let bitmap_len = r.u32()?;
                let mut units = Vec::with_capacity(num_parts);
                for _ in 0..num_parts {
                    units.push(UnitLoc {
                        offset: r.u64()?,
                        clen: r.u32()?,
                    });
                }
                chunks.push(ChunkEntry {
                    count,
                    bitmap_off,
                    bitmap_len,
                    units,
                });
            }
            Ok(BinIndex {
                chunks,
                header_bytes: header_size(num_chunks, num_parts),
                summary_bytes: summary_size(num_chunks) + 8,
            })
        }
    }

    fn message<T>(r: &Result<T>) -> Option<String> {
        r.as_ref().err().map(|e| e.to_string())
    }

    /// The header view against the oracle on the same bytes: the same
    /// verdict and message; when both accept, every accessor of every
    /// in-range rank (none may panic) agrees with the eager form.
    fn check_header(bytes: &[u8]) {
        let want = oracle::decode_header(bytes);
        let got = HeaderView::parse(bytes);
        assert_eq!(message(&got), message(&want));
        let (Ok(view), Ok(want)) = (got, want) else {
            return;
        };
        assert_eq!(view.num_chunks(), want.chunks.len());
        assert_eq!(view.header_bytes(), want.header_bytes);
        assert_eq!(view.summary_bytes(), want.summary_bytes);
        assert_eq!(view.summary_file_offset(), want.header_bytes);
        for (rank, e) in want.chunks.iter().enumerate() {
            assert_eq!(view.count(rank), e.count);
            assert_eq!(view.bitmap_file_offset(rank), e.bitmap_off);
            assert_eq!(view.bitmap_len(rank), e.bitmap_len);
            assert_eq!(view.units(rank).collect::<Vec<_>>(), e.units);
            for (part, u) in e.units.iter().enumerate() {
                assert_eq!(view.unit(rank, part), *u);
            }
        }
    }

    /// Likewise for the summary view.
    fn check_summary(bytes: &[u8], num_chunks: usize) {
        let want = oracle::decode_summary(bytes, num_chunks);
        let got = SummaryView::parse(bytes, num_chunks);
        assert_eq!(message(&got), message(&want));
        let (Ok(view), Ok(want)) = (got, want) else {
            return;
        };
        for (rank, s) in want.iter().enumerate() {
            assert_eq!(view.get(rank), *s);
        }
    }

    /// Built bin files covering the shapes the engine meets: 1 and 7
    /// parts; empty, partial and all-of-chunk chunks; an all-empty bin.
    fn built_payloads() -> Vec<(Vec<u8>, usize, usize)> {
        let mut out = Vec::new();
        for num_parts in [1usize, 7] {
            let locs = |seed: u64| -> Vec<UnitLoc> {
                (0..num_parts as u64)
                    .map(|p| UnitLoc {
                        offset: seed * 1000 + p * 37,
                        clen: (seed * 7 + p) as u32,
                    })
                    .collect()
            };
            let mut b = BinFileBuilder::new(9, 6, num_parts);
            b.set_chunk(0, runs(300, &[0, 1, 2, 64, 299]).as_ref(), &locs(1));
            b.set_chunk(2, full(300).as_ref(), &locs(2));
            let sparse: Vec<u64> = (0..40_000).step_by(11).collect();
            b.set_chunk(3, runs(40_000, &sparse).as_ref(), &locs(3));
            b.set_chunk(5, full(17).as_ref(), &locs(4));
            out.push((b.finish(&[7; 64], &[64]).bytes, 6, num_parts));
            out.push((finish(BinFileBuilder::new(0, 4, num_parts)), 4, num_parts));
        }
        out
    }

    /// splitmix64: deterministic arbitrary bytes without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn views_equal_the_eager_decode_on_built_indexes() {
        for (file, num_chunks, num_parts) in built_payloads() {
            // The engine's exact-size header read, and the whole file
            // (a header buffer may extend past the directory).
            check_header(&file[..header_size(num_chunks, num_parts) as usize]);
            check_header(&file);
            let hdr = HeaderView::parse(&file[..])
                .unwrap()
                .with_geometry(num_chunks, num_parts)
                .unwrap();
            let start = hdr.summary_file_offset() as usize;
            check_summary(
                &file[start..start + hdr.summary_bytes() as usize],
                num_chunks,
            );
            check_summary(&file[start..], num_chunks);
        }
    }

    #[test]
    fn views_reject_exactly_what_the_eager_decode_rejected() {
        let mut rng = 0x5eed_u64;
        let damaged = |block: &[u8], rng: &mut u64| {
            let mut bad = block.to_vec();
            for _ in 0..1 + next(rng) % 8 {
                let at = next(rng) as usize % bad.len();
                bad[at] = next(rng) as u8;
            }
            bad
        };
        for (payload, num_chunks, num_parts) in built_payloads() {
            let hdr_len = header_size(num_chunks, num_parts) as usize;
            let header = &payload[..hdr_len];
            let summary_len = HeaderView::parse(header).unwrap().summary_bytes() as usize;
            // The table sizes end it.
            let summary = &payload[hdr_len..hdr_len + summary_len];
            // Every truncation.
            for cut in 0..=header.len() {
                check_header(&header[..cut]);
            }
            for cut in 0..=summary.len() {
                check_summary(&summary[..cut], num_chunks);
            }
            // Every single-bit flip (the prologue fields — magic,
            // version, counts — and every directory and record byte).
            for (block, is_header) in [(header, true), (summary, false)] {
                for bit in 0..block.len() * 8 {
                    let mut bad = block.to_vec();
                    bad[bit / 8] ^= 1 << (bit % 8);
                    if is_header {
                        check_header(&bad);
                    } else {
                        check_summary(&bad, num_chunks);
                        // A count the header does not vouch for.
                        check_summary(&bad, num_chunks + 1);
                    }
                }
            }
            // Valid prologues over arbitrary directories, and random
            // multi-byte damage anywhere.
            for _ in 0..200 {
                check_header(&damaged(header, &mut rng));
                if !summary.is_empty() {
                    check_summary(&damaged(summary, &mut rng), num_chunks);
                }
            }
        }
        // Arbitrary bytes, with and without a plausible prologue.
        for round in 0..2000 {
            let len = next(&mut rng) as usize % 400;
            let mut bytes: Vec<u8> = (0..len).map(|_| next(&mut rng) as u8).collect();
            if round % 2 == 0 && len >= 14 {
                bytes[..4].copy_from_slice(&MAGIC.to_le_bytes());
                bytes[4] = VERSION;
                bytes[9..13].copy_from_slice(&((next(&mut rng) % 12) as u32).to_le_bytes());
                bytes[13] = (next(&mut rng) % 18) as u8;
            }
            check_header(&bytes);
            if round % 2 == 0 && len >= 8 {
                bytes[..4].copy_from_slice(&SUMMARY_MAGIC.to_le_bytes());
                bytes[4..8].copy_from_slice(&((next(&mut rng) % 40) as u32).to_le_bytes());
            }
            for num_chunks in [0, 1, 7, 39] {
                check_summary(&bytes, num_chunks);
            }
        }
        // Field values at their extremes: no accessor may overflow.
        let mut extreme = finish(BinFileBuilder::new(0, 3, 7));
        let hdr_len = header_size(3, 7) as usize;
        extreme[14..hdr_len].fill(0xff);
        check_header(&extreme);
        check_header(&extreme[..hdr_len]);
        // A chunk count near u32::MAX must fail the size check, not
        // drive an allocation or wrap an offset.
        let mut huge = finish(BinFileBuilder::new(0, 2, 7));
        huge[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        check_header(&huge);
        assert_eq!(
            message(&HeaderView::parse(&huge[..])),
            Some(MlocError::Corrupt("header truncated").to_string())
        );
    }

    #[test]
    fn header_geometry_must_be_the_stores() {
        let bytes = finish(BinFileBuilder::new(3, 16, 7));
        let parse = || HeaderView::parse(&bytes[..]).unwrap();
        assert!(parse().with_geometry(16, 7).is_ok());
        for (num_chunks, num_parts) in [(16, 1), (15, 7), (64, 7), (0, 0)] {
            assert_eq!(
                message(&parse().with_geometry(num_chunks, num_parts)),
                Some(MlocError::Corrupt("index geometry mismatch").to_string())
            );
        }
    }

    #[test]
    #[should_panic(expected = "chunk rank out of range")]
    fn header_rank_past_the_directory_panics_like_a_slice() {
        // The buffer extends past the directory (a whole file), so the
        // bytes exist — the rank is still refused.
        let bytes = finish(BinFileBuilder::new(0, 2, 1));
        HeaderView::parse(&bytes[..]).unwrap().count(2);
    }

    #[test]
    #[should_panic]
    fn setting_chunk_twice_panics() {
        let mut b = BinFileBuilder::new(0, 2, 1);
        let bm = runs(10, &[0]);
        b.set_chunk(0, bm.as_ref(), &[UnitLoc::default()]);
        b.set_chunk(0, bm.as_ref(), &[UnitLoc::default()]);
    }
}
