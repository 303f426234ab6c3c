//! Per-bin index files: chunk directory, positional bitmaps, and the
//! compressed-unit locator.
//!
//! Each bin has one index file next to its data file (Figure 4). The
//! index holds, per chunk (in curve-rank order):
//!
//! * the number of the bin's points inside that chunk,
//! * the chunk-local *positions* of those points as a WAH bitmap — the
//!   "light-weight index" that lets region queries answer aligned bins
//!   without touching data, and
//! * the data-file location of each compressed unit (one per PLoD byte
//!   group, or a single unit when PLoD is off).
//!
//! The header + directory is fixed-size given the chunk count, so a
//! query reads it with a single sequential read and then fetches only
//! the bitmaps/units of the chunks it needs.
//!
//! # Format v2: the two-level succinct index
//!
//! Version 2 keeps the header + directory byte layout of v1 (only the
//! version byte differs, so the engine's exact-size first read works
//! for both) and adds two levels on top of the flat WAH bitmaps:
//!
//! * a **chunk-summary section** — its own checksummed extent between
//!   the header and the bitmaps — holding per-chunk
//!   `(min_pos, max_pos, all_of_chunk)` so a query classifies chunks
//!   as full / empty / partial in O(1) and skips the bitmap read
//!   entirely for full and empty chunks, and
//! * a **rank/select directory** ([`mloc_bitmap::RankSelectDir`])
//!   appended to each encoded bitmap (`bitmap_len` covers both; WAH is
//!   self-delimiting, the remainder is the directory), giving
//!   membership probes O(log samples + S) rank/select instead of a
//!   linear word walk.
//!
//! v1 files (no summary, no directories) remain fully readable.
//!
//! # Reading: views first
//!
//! Every directory field sits at an offset fixed by the chunk and part
//! counts, so the query engine never materializes the directory: it
//! reads the header through a [`HeaderView`] and the summary through a
//! [`SummaryView`] — `parse` checks the prologue and the declared size
//! once, each accessor then decodes one field of one chunk in place. A
//! query touching 3 of a bin's 64 chunks pays for 3. The eager
//! [`BinIndex`] / `Vec<ChunkSummary>` forms (`verify`, `fsck`, tools,
//! tests) are collected *from* the views, so the layout is written
//! down once.

use crate::integrity::ExtentFooter;
use crate::wire::{Reader, Writer};
use crate::{MlocError, Result};
use mloc_bitmap::{RankSelectDir, WahBitmap};
use mloc_pfs::StorageBackend;
use std::ops::Deref;

const MAGIC: u32 = 0x5844_494D; // "MIDX"
/// Current index format version (v2 = summary section + rank/select
/// directories). v1 files are still readable.
pub const VERSION: u8 = 2;
const SUMMARY_MAGIC: u32 = 0x4D55_534D; // "MSUM"

/// Location of one compressed unit in the bin's data file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitLoc {
    /// Byte offset within the data file.
    pub offset: u64,
    /// Compressed length in bytes (0 = empty unit).
    pub clen: u32,
}

/// Directory entry of one chunk within one bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Number of the bin's points inside this chunk.
    pub count: u32,
    /// Byte offset of the positional bitmap in the bitmap section.
    pub bitmap_off: u64,
    /// Encoded bitmap length (0 when the chunk has no points here).
    pub bitmap_len: u32,
    /// Per-part unit locations.
    pub units: Vec<UnitLoc>,
}

/// Coarse per-chunk classification record of the v2 summary section.
///
/// Together with [`ChunkEntry::count`] this classifies a chunk without
/// touching its bitmap: `count == 0` → empty, `all_of_chunk` → every
/// position belongs to this bin (the bitmap is all ones), otherwise
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

/// The parsed header + directory of a bin index file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinIndex {
    /// Format version of the file this header came from (1 or 2).
    pub version: u8,
    /// Bin id.
    pub bin: u32,
    /// Directory entries indexed by *curve rank*.
    pub chunks: Vec<ChunkEntry>,
    /// Number of PLoD parts per unit.
    pub num_parts: usize,
    /// Size of the header + directory region in bytes.
    pub header_bytes: u64,
    /// Size of the chunk-summary section that follows the header
    /// (0 for v1 files; bitmaps follow the summary).
    pub summary_bytes: u64,
}

/// Size in bytes of the serialized header + directory for a given
/// geometry — queries use this to issue an exact-size first read.
/// Identical for v1 and v2 (only the version byte differs).
pub fn header_size(num_chunks: usize, num_parts: usize) -> u64 {
    HEADER_PROLOGUE + num_chunks as u64 * entry_size(num_parts)
}

/// magic(4) version(1) bin(4) num_chunks(4) num_parts(1)
const HEADER_PROLOGUE: u64 = 14;
/// Fixed part of a directory entry: count(4) bitmap_off(8) bitmap_len(4)
const ENTRY_FIXED: u64 = 16;
/// One unit locator: offset(8) clen(4)
const UNIT_LOC: u64 = 12;

fn entry_size(num_parts: usize) -> u64 {
    ENTRY_FIXED + num_parts as u64 * UNIT_LOC
}

/// magic(4) num_chunks(4)
const SUMMARY_PROLOGUE: u64 = 8;
/// One summary record: min_pos(4) max_pos(4) flags(1)
const SUMMARY_RECORD: u64 = 9;

fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4-byte field"))
}

fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8-byte field"))
}

/// Exact size in bytes of the v2 chunk-summary section.
pub fn summary_size(num_chunks: usize) -> u64 {
    SUMMARY_PROLOGUE + num_chunks as u64 * SUMMARY_RECORD
}

/// Serialize the summary section.
pub fn encode_summary(summaries: &[ChunkSummary]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(SUMMARY_MAGIC);
    w.u32(summaries.len() as u32);
    for s in summaries {
        w.u32(s.min_pos);
        w.u32(s.max_pos);
        w.u8(u8::from(s.all_of_chunk));
    }
    debug_assert_eq!(w.len() as u64, summary_size(summaries.len()));
    w.finish()
}

/// Zero-copy view of a v2 chunk-summary section over any byte holder
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

    /// Every chunk's summary, in rank order.
    pub fn iter(&self) -> impl Iterator<Item = ChunkSummary> + '_ {
        (0..self.num_chunks).map(|rank| self.get(rank))
    }
}

/// Parse a summary section into its eager form (a collected
/// [`SummaryView`]); `num_chunks` comes from the header and must match
/// the recorded count.
pub fn decode_summary(data: &[u8], num_chunks: usize) -> Result<Vec<ChunkSummary>> {
    Ok(SummaryView::parse(data, num_chunks)?.iter().collect())
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
    version: u8,
    bin: u32,
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
        let version = r.u8()?;
        if version != 1 && version != VERSION {
            return Err(MlocError::Corrupt("unsupported index version"));
        }
        let bin = r.u32()?;
        let num_chunks = r.u32()? as usize;
        let num_parts = r.u8()? as usize;
        if num_parts == 0 || num_parts > 16 {
            return Err(MlocError::Corrupt("bad part count"));
        }
        // The directory must fit in the supplied buffer: this is what
        // makes every in-range accessor below panic-free, and what
        // bounds the eager collect's allocation.
        if header_size(num_chunks, num_parts) > data.len() as u64 {
            return Err(MlocError::Corrupt("header truncated"));
        }
        Ok(HeaderView {
            data,
            version,
            bin,
            num_chunks,
            num_parts,
        })
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
    fn header_bytes(&self) -> u64 {
        header_size(self.num_chunks, self.num_parts)
    }

    /// Size of the chunk-summary section that follows the header (0
    /// for v1 files; bitmaps follow the summary).
    pub fn summary_bytes(&self) -> u64 {
        if self.version >= 2 {
            summary_size(self.num_chunks)
        } else {
            0
        }
    }

    /// Absolute file offset of the chunk-summary section (v2 only).
    pub fn summary_file_offset(&self) -> u64 {
        self.header_bytes()
    }

    /// The directory entry of chunk `rank`, as stored.
    fn entry(&self, rank: usize) -> &[u8] {
        assert!(rank < self.num_chunks, "chunk rank out of range");
        let size = entry_size(self.num_parts) as usize;
        let at = HEADER_PROLOGUE as usize + rank * size;
        &self.data[at..at + size]
    }

    /// Number of the bin's points inside chunk `rank`.
    pub fn count(&self, rank: usize) -> u32 {
        le_u32(self.entry(rank), 0)
    }

    /// Byte offset of the chunk's bitmap within the bitmap section.
    fn bitmap_off(&self, rank: usize) -> u64 {
        le_u64(self.entry(rank), 4)
    }

    /// Encoded bitmap length (0 when the chunk has no points here).
    pub fn bitmap_len(&self, rank: usize) -> u32 {
        le_u32(self.entry(rank), 12)
    }

    /// Absolute file offset of the chunk's bitmap (bitmaps follow the
    /// header + directory and, in v2, the summary section). A stored
    /// offset too large to add saturates: `u64::MAX` lies past every
    /// file, so the read fails instead of aliasing another extent.
    pub fn bitmap_file_offset(&self, rank: usize) -> u64 {
        (self.header_bytes() + self.summary_bytes()).saturating_add(self.bitmap_off(rank))
    }

    /// Data-file location of part `part` of the chunk's unit.
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

    /// File offset at which the index file's last bitmap ends — where
    /// its checksum footer starts, since the extents tile the payload.
    /// One pass over the directory; offsets saturate like
    /// [`Self::bitmap_file_offset`].
    pub fn bitmaps_end(&self) -> u64 {
        (0..self.num_chunks)
            .map(|rank| {
                self.bitmap_file_offset(rank)
                    .saturating_add(u64::from(self.bitmap_len(rank)))
            })
            .max()
            .unwrap_or(0)
            .max(self.header_bytes() + self.summary_bytes())
    }

    /// Data-file offset at which the bin's last compressed unit ends —
    /// where the data file's checksum footer starts. One pass over the
    /// directory.
    pub fn units_end(&self) -> u64 {
        (0..self.num_chunks)
            .flat_map(|rank| self.units(rank))
            .map(|loc| loc.offset.saturating_add(u64::from(loc.clen)))
            .max()
            .unwrap_or(0)
    }

    /// The eager form: every entry collected.
    pub fn to_index(&self) -> BinIndex {
        BinIndex {
            version: self.version,
            bin: self.bin,
            chunks: (0..self.num_chunks)
                .map(|rank| ChunkEntry {
                    count: self.count(rank),
                    bitmap_off: self.bitmap_off(rank),
                    bitmap_len: self.bitmap_len(rank),
                    units: self.units(rank).collect(),
                })
                .collect(),
            num_parts: self.num_parts,
            header_bytes: self.header_bytes(),
            summary_bytes: self.summary_bytes(),
        }
    }
}

impl BinIndex {
    /// Serialize header + directory (bitmap bytes are appended by the
    /// builder).
    pub fn encode_header(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u8(self.version);
        w.u32(self.bin);
        w.u32(self.chunks.len() as u32);
        w.u8(self.num_parts as u8);
        for e in &self.chunks {
            w.u32(e.count);
            w.u64(e.bitmap_off);
            w.u32(e.bitmap_len);
            debug_assert_eq!(e.units.len(), self.num_parts);
            for u in &e.units {
                w.u64(u.offset);
                w.u32(u.clen);
            }
        }
        debug_assert_eq!(
            w.len() as u64,
            header_size(self.chunks.len(), self.num_parts)
        );
        w.finish()
    }

    /// Parse a header + directory previously encoded with
    /// [`Self::encode_header`] into its eager form (a collected
    /// [`HeaderView`]).
    pub fn decode_header(data: &[u8]) -> Result<BinIndex> {
        Ok(HeaderView::parse(data)?.to_index())
    }

    /// Absolute file offset of the chunk-summary section (v2 only).
    pub fn summary_file_offset(&self) -> u64 {
        self.header_bytes
    }

    /// Absolute file offset of a chunk's bitmap (bitmaps follow the
    /// header + directory and, in v2, the summary section).
    pub fn bitmap_file_offset(&self, rank: usize) -> u64 {
        self.header_bytes + self.summary_bytes + self.chunks[rank].bitmap_off
    }

    /// Total points recorded in this bin.
    pub fn total_points(&self) -> u64 {
        self.chunks.iter().map(|e| u64::from(e.count)).sum()
    }
}

/// Incremental builder for one bin's index file contents (format v2).
#[derive(Debug)]
pub struct BinIndexBuilder {
    bin: u32,
    num_parts: usize,
    chunks: Vec<ChunkEntry>,
    summaries: Vec<ChunkSummary>,
    bitmaps: Vec<u8>,
    /// Encoded bitmap lengths in file (append) order — the logical
    /// extents of the bitmap section, for the checksum footer.
    bitmap_lens: Vec<u32>,
}

impl BinIndexBuilder {
    /// Start building for a bin over `num_chunks` chunks.
    pub fn new(bin: u32, num_chunks: usize, num_parts: usize) -> Self {
        let empty = ChunkEntry {
            count: 0,
            bitmap_off: 0,
            bitmap_len: 0,
            units: vec![UnitLoc::default(); num_parts],
        };
        BinIndexBuilder {
            bin,
            num_parts,
            chunks: vec![empty; num_chunks],
            summaries: vec![ChunkSummary::EMPTY; num_chunks],
            bitmaps: Vec::new(),
            bitmap_lens: Vec::new(),
        }
    }

    /// Record a chunk's positional bitmap and unit locations. The locs
    /// are copied into the entry's preallocated slots, so callers keep
    /// ownership and no per-chunk allocation happens here. The chunk's
    /// summary (min/max set position, all-of-chunk flag) and its
    /// rank/select directory are derived here in the same pass.
    ///
    /// # Panics
    /// Panics when called twice for the same rank or with a unit count
    /// mismatch.
    pub fn set_chunk(&mut self, rank: usize, bitmap: &WahBitmap, units: &[UnitLoc]) {
        assert_eq!(units.len(), self.num_parts, "unit count mismatch");
        let e = &mut self.chunks[rank];
        assert_eq!(e.count, 0, "chunk rank {rank} set twice");
        let encoded = bitmap.to_bytes();
        let dir_bytes = RankSelectDir::build(bitmap.as_ref()).to_bytes();
        let count = bitmap.count_ones();
        e.count = count as u32;
        e.bitmap_off = self.bitmaps.len() as u64;
        e.bitmap_len = (encoded.len() + dir_bytes.len()) as u32;
        e.units.copy_from_slice(units);
        self.bitmap_lens.push(e.bitmap_len);
        self.bitmaps.extend_from_slice(&encoded);
        self.bitmaps.extend_from_slice(&dir_bytes);
        if count > 0 {
            let mut min_pos = u32::MAX;
            let mut max_pos = 0u32;
            for (start, len, bit) in bitmap.iter_runs() {
                if bit {
                    if min_pos == u32::MAX {
                        min_pos = start as u32;
                    }
                    max_pos = (start + len - 1) as u32;
                }
            }
            self.summaries[rank] = ChunkSummary {
                min_pos,
                max_pos,
                all_of_chunk: count == bitmap.len(),
            };
        }
    }

    /// Finish: returns the full index file contents.
    pub fn finish(self) -> Vec<u8> {
        self.finish_with_extents().0
    }

    /// Finish, also returning the file's logical extent lengths in
    /// file order (header + summary + each encoded bitmap) for the
    /// checksum footer.
    pub fn finish_with_extents(self) -> (Vec<u8>, Vec<u32>) {
        let num_chunks = self.chunks.len();
        let index = BinIndex {
            version: VERSION,
            bin: self.bin,
            num_parts: self.num_parts,
            header_bytes: header_size(num_chunks, self.num_parts),
            summary_bytes: summary_size(num_chunks),
            chunks: self.chunks,
        };
        let mut out = index.encode_header();
        let summary = encode_summary(&self.summaries);
        let mut extents = Vec::with_capacity(2 + self.bitmap_lens.len());
        extents.push(out.len() as u32);
        extents.push(summary.len() as u32);
        extents.extend_from_slice(&self.bitmap_lens);
        out.extend_from_slice(&summary);
        out.extend_from_slice(&self.bitmaps);
        (out, extents)
    }
}

/// Rewrite a v2 index file payload (no footer) as v1: drop the summary
/// section and the per-bitmap rank/select directories, keep the WAH
/// bytes verbatim, and recompute offsets. Returns the v1 payload and
/// its extent lengths. Used by differential tests and benches to prove
/// v1-read vs v2-read byte-identity on the same logical data.
pub fn downgrade_payload_to_v1(payload: &[u8]) -> Result<(Vec<u8>, Vec<u32>)> {
    let idx = BinIndex::decode_header(payload)?;
    if idx.version != 2 {
        return Err(MlocError::Corrupt("not a v2 index"));
    }
    // Preserve file order: walk entries by their stored offsets.
    let mut order: Vec<usize> = (0..idx.chunks.len())
        .filter(|&r| idx.chunks[r].bitmap_len > 0)
        .collect();
    order.sort_by_key(|&r| idx.chunks[r].bitmap_off);
    let mut chunks = idx.chunks.clone();
    let mut bitmaps = Vec::new();
    let mut bitmap_lens = Vec::with_capacity(order.len());
    for &r in &order {
        let start = idx.bitmap_file_offset(r) as usize;
        let end = start + idx.chunks[r].bitmap_len as usize;
        if end > payload.len() {
            return Err(MlocError::Corrupt("bitmap extent out of bounds"));
        }
        // The WAH stream is self-delimiting; the remainder of the
        // extent is the rank/select directory we drop.
        let (_, consumed) = WahBitmap::from_bytes(&payload[start..end])
            .map_err(|_| MlocError::Corrupt("bad bitmap in v2 index"))?;
        chunks[r].bitmap_off = bitmaps.len() as u64;
        chunks[r].bitmap_len = consumed as u32;
        bitmaps.extend_from_slice(&payload[start..start + consumed]);
        bitmap_lens.push(consumed as u32);
    }
    let v1 = BinIndex {
        version: 1,
        bin: idx.bin,
        num_parts: idx.num_parts,
        header_bytes: idx.header_bytes,
        summary_bytes: 0,
        chunks,
    };
    let mut out = v1.encode_header();
    let mut extents = Vec::with_capacity(1 + bitmap_lens.len());
    extents.push(out.len() as u32);
    extents.extend_from_slice(&bitmap_lens);
    out.extend_from_slice(&bitmaps);
    Ok((out, extents))
}

/// Downgrade every index file of a variable to format v1 in place
/// (payload rewritten, footer recomputed). Data files and meta are
/// untouched. Returns the number of files rewritten.
pub fn downgrade_variable_to_v1(
    backend: &dyn StorageBackend,
    dataset: &str,
    var: &str,
) -> Result<usize> {
    let prefix = format!("{dataset}/{var}/");
    let mut rewritten = 0;
    let mut names: Vec<String> = backend
        .list()
        .into_iter()
        .filter(|n| n.starts_with(&prefix) && n.ends_with(".idx"))
        .collect();
    names.sort();
    for name in names {
        let raw = backend.read(&name, 0, backend.len(&name)?)?;
        let payload = ExtentFooter::split_verified(&raw, &name)?;
        let (v1, extents) = downgrade_payload_to_v1(payload)?;
        let footer = ExtentFooter::compute(&v1, &extents).encode();
        backend.create(&name)?;
        backend.append(&name, &v1)?;
        backend.append(&name, &footer)?;
        rewritten += 1;
    }
    Ok(rewritten)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let mut b = BinIndexBuilder::new(5, 4, 3);
        let bm1 = WahBitmap::from_sorted_positions(100, &[1, 5, 99]);
        let bm2 = WahBitmap::from_sorted_positions(50, &[0]);
        b.set_chunk(
            1,
            &bm1,
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
        b.set_chunk(3, &bm2, &[UnitLoc::default(); 3]);
        let bytes = b.finish();

        let hdr_len = header_size(4, 3) as usize;
        let idx = BinIndex::decode_header(&bytes[..hdr_len]).unwrap();
        assert_eq!(idx.bin, 5);
        assert_eq!(idx.chunks.len(), 4);
        assert_eq!(idx.num_parts, 3);
        assert_eq!(idx.chunks[1].count, 3);
        assert_eq!(idx.chunks[3].count, 1);
        assert_eq!(idx.chunks[0].count, 0);
        assert_eq!(idx.total_points(), 4);
        assert_eq!(
            idx.chunks[1].units[1],
            UnitLoc {
                offset: 10,
                clen: 20
            }
        );

        // Bitmaps decode from their recorded offsets.
        let e = &idx.chunks[1];
        let start = idx.bitmap_file_offset(1) as usize;
        let (bm, _) = WahBitmap::from_bytes(&bytes[start..start + e.bitmap_len as usize]).unwrap();
        assert_eq!(bm.to_positions(), vec![1, 5, 99]);
    }

    #[test]
    fn header_size_is_exact() {
        let b = BinIndexBuilder::new(0, 7, 7);
        let bytes = b.finish();
        // An all-empty bin is exactly header + summary: no bitmaps.
        assert_eq!(bytes.len() as u64, header_size(7, 7) + summary_size(7));
        let idx = BinIndex::decode_header(&bytes[..header_size(7, 7) as usize]).unwrap();
        assert_eq!(idx.version, VERSION);
        assert_eq!(idx.summary_bytes, summary_size(7));
        let summaries = decode_summary(&bytes[idx.header_bytes as usize..], 7).unwrap();
        assert_eq!(summaries, vec![ChunkSummary::EMPTY; 7]);
    }

    #[test]
    fn summary_tracks_chunk_shape() {
        let mut b = BinIndexBuilder::new(0, 3, 1);
        // Partial chunk: bits 2..=7 of 20.
        b.set_chunk(
            0,
            &WahBitmap::from_sorted_positions(20, &[2, 3, 7]),
            &[UnitLoc::default()],
        );
        // Full chunk: all 20 bits.
        b.set_chunk(1, &WahBitmap::ones(20), &[UnitLoc::default()]);
        let bytes = b.finish();
        let hdr = BinIndex::decode_header(&bytes[..header_size(3, 1) as usize]).unwrap();
        let start = hdr.summary_file_offset() as usize;
        let summaries =
            decode_summary(&bytes[start..start + hdr.summary_bytes as usize], 3).unwrap();
        assert_eq!(
            summaries[0],
            ChunkSummary {
                min_pos: 2,
                max_pos: 7,
                all_of_chunk: false
            }
        );
        assert_eq!(
            summaries[1],
            ChunkSummary {
                min_pos: 0,
                max_pos: 19,
                all_of_chunk: true
            }
        );
        assert_eq!(summaries[2], ChunkSummary::EMPTY);
    }

    #[test]
    fn downgrade_strips_summary_and_directories() {
        let mut b = BinIndexBuilder::new(2, 3, 1);
        // Large sparse bitmap so a non-empty rank/select directory is
        // appended in v2 (many literal words).
        let pos: Vec<u64> = (0..40_000).step_by(7).collect();
        let big = WahBitmap::from_sorted_positions(40_000, &pos);
        b.set_chunk(0, &big, &[UnitLoc::default()]);
        b.set_chunk(2, &WahBitmap::ones(50), &[UnitLoc::default()]);
        let (v2, v2_extents) = b.finish_with_extents();
        let (v1, v1_extents) = downgrade_payload_to_v1(&v2).unwrap();
        assert!(v1.len() < v2.len());
        assert_eq!(v1_extents.len() + 1, v2_extents.len()); // summary gone
        let idx = BinIndex::decode_header(&v1[..header_size(3, 1) as usize]).unwrap();
        assert_eq!(idx.version, 1);
        assert_eq!(idx.summary_bytes, 0);
        // Bitmaps decode identically from both files.
        let v2_idx = BinIndex::decode_header(&v2[..header_size(3, 1) as usize]).unwrap();
        for rank in [0usize, 2] {
            let s1 = idx.bitmap_file_offset(rank) as usize;
            let s2 = v2_idx.bitmap_file_offset(rank) as usize;
            let (b1, used1) = WahBitmap::from_bytes(&v1[s1..]).unwrap();
            let (b2, _) = WahBitmap::from_bytes(&v2[s2..]).unwrap();
            assert_eq!(b1, b2);
            // v1 extents hold exactly the WAH bytes, no directory.
            assert_eq!(used1 as u32, idx.chunks[rank].bitmap_len);
        }
        // Downgrading a v1 payload is rejected.
        assert!(downgrade_payload_to_v1(&v1).is_err());
    }

    #[test]
    fn rejects_corrupt_headers() {
        let bytes = BinIndexBuilder::new(0, 2, 1).finish();
        assert!(BinIndex::decode_header(&bytes[..5]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(BinIndex::decode_header(&bad).is_err());
        let mut bad2 = bytes;
        bad2[4] = 99; // version
        assert!(BinIndex::decode_header(&bad2).is_err());
    }

    /// The eager decoders as they were before the views existed, kept
    /// verbatim as the differential oracle: same checks, same order,
    /// same messages.
    mod oracle {
        use super::super::*;

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
            let version = r.u8()?;
            if version != 1 && version != VERSION {
                return Err(MlocError::Corrupt("unsupported index version"));
            }
            let bin = r.u32()?;
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
                version,
                bin,
                chunks,
                num_parts,
                header_bytes: header_size(num_chunks, num_parts),
                summary_bytes: if version >= 2 {
                    summary_size(num_chunks)
                } else {
                    0
                },
            })
        }
    }

    fn message<T>(r: &Result<T>) -> Option<String> {
        r.as_ref().err().map(|e| e.to_string())
    }

    /// The header view against the oracle on the same bytes: the same
    /// verdict and message; when both accept, every accessor of every
    /// in-range rank (none may panic) and the eager collect agree.
    fn check_header(bytes: &[u8]) {
        let want = oracle::decode_header(bytes);
        let got = HeaderView::parse(bytes);
        assert_eq!(message(&got), message(&want));
        assert_eq!(message(&BinIndex::decode_header(bytes)), message(&want));
        let (Ok(view), Ok(want)) = (got, want) else {
            return;
        };
        assert_eq!(view.to_index(), want);
        assert_eq!(view.header_bytes(), want.header_bytes);
        assert_eq!(view.summary_bytes(), want.summary_bytes);
        assert_eq!(view.summary_file_offset(), want.summary_file_offset());
        for (rank, e) in want.chunks.iter().enumerate() {
            assert_eq!(view.count(rank), e.count);
            assert_eq!(view.bitmap_off(rank), e.bitmap_off);
            assert_eq!(view.bitmap_len(rank), e.bitmap_len);
            // Stored offsets are untrusted: where the eager form's
            // plain sum would overflow, the view saturates.
            assert_eq!(
                view.bitmap_file_offset(rank),
                (want.header_bytes + want.summary_bytes).saturating_add(e.bitmap_off)
            );
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
        assert_eq!(message(&decode_summary(bytes, num_chunks)), message(&want));
        let (Ok(view), Ok(want)) = (got, want) else {
            return;
        };
        assert_eq!(view.iter().collect::<Vec<_>>(), want);
        for (rank, s) in want.iter().enumerate() {
            assert_eq!(view.get(rank), *s);
        }
    }

    /// Built v2 payloads covering the shapes the engine meets: 1 and 7
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
            let mut b = BinIndexBuilder::new(9, 6, num_parts);
            b.set_chunk(
                0,
                &WahBitmap::from_sorted_positions(300, &[0, 1, 2, 64, 299]),
                &locs(1),
            );
            b.set_chunk(2, &WahBitmap::ones(300), &locs(2));
            let sparse: Vec<u64> = (0..40_000).step_by(11).collect();
            b.set_chunk(
                3,
                &WahBitmap::from_sorted_positions(40_000, &sparse),
                &locs(3),
            );
            b.set_chunk(5, &WahBitmap::ones(17), &locs(4));
            out.push((b.finish(), 6, num_parts));
            out.push((BinIndexBuilder::new(0, 4, num_parts).finish(), 4, num_parts));
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
        for (v2, num_chunks, num_parts) in built_payloads() {
            let (v1, _) = downgrade_payload_to_v1(&v2).unwrap();
            for payload in [&v2, &v1] {
                // The engine's exact-size header read, and the whole
                // file (a header buffer may extend past the directory).
                check_header(&payload[..header_size(num_chunks, num_parts) as usize]);
                check_header(payload);
            }
            let hdr = HeaderView::parse(&v2[..])
                .unwrap()
                .with_geometry(num_chunks, num_parts)
                .unwrap();
            let start = hdr.summary_file_offset() as usize;
            check_summary(&v2[start..start + hdr.summary_bytes() as usize], num_chunks);
            check_summary(&v2[start..], num_chunks);
            // A v1 file has no summary section.
            assert_eq!(HeaderView::parse(&v1[..]).unwrap().summary_bytes(), 0);
        }
    }

    #[test]
    fn views_reject_exactly_what_the_eager_decode_rejected() {
        let mut rng = 0x5eed_u64;
        for (v2, num_chunks, num_parts) in built_payloads() {
            let hdr_len = header_size(num_chunks, num_parts) as usize;
            let header = &v2[..hdr_len];
            let summary = &v2[hdr_len..hdr_len + summary_size(num_chunks) as usize];
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
                let mut bad = header.to_vec();
                for _ in 0..1 + next(&mut rng) % 8 {
                    let at = next(&mut rng) as usize % bad.len();
                    bad[at] = next(&mut rng) as u8;
                }
                check_header(&bad);
                let mut bad = summary.to_vec();
                for _ in 0..1 + next(&mut rng) % 8 {
                    let at = next(&mut rng) as usize % bad.len();
                    bad[at] = next(&mut rng) as u8;
                }
                check_summary(&bad, num_chunks);
            }
        }
        // Arbitrary bytes, with and without a plausible prologue.
        for round in 0..2000 {
            let len = next(&mut rng) as usize % 400;
            let mut bytes: Vec<u8> = (0..len).map(|_| next(&mut rng) as u8).collect();
            if round % 2 == 0 && len >= 14 {
                bytes[..4].copy_from_slice(&MAGIC.to_le_bytes());
                bytes[4] = 1 + (next(&mut rng) % 2) as u8;
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
        let mut extreme = BinIndexBuilder::new(0, 3, 7).finish();
        let hdr_len = header_size(3, 7) as usize;
        extreme[14..hdr_len].fill(0xff);
        check_header(&extreme);
        check_header(&extreme[..hdr_len]);
        // A chunk count near u32::MAX must fail the size check, not
        // drive an allocation or wrap an offset.
        let mut huge = BinIndexBuilder::new(0, 2, 7).finish();
        huge[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        check_header(&huge);
        assert_eq!(
            message(&HeaderView::parse(&huge[..])),
            Some(MlocError::Corrupt("header truncated").to_string())
        );
    }

    #[test]
    fn header_geometry_must_be_the_stores() {
        let bytes = BinIndexBuilder::new(3, 16, 7).finish();
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
        let bytes = BinIndexBuilder::new(0, 2, 1).finish();
        HeaderView::parse(&bytes[..]).unwrap().count(2);
    }

    #[test]
    #[should_panic]
    fn setting_chunk_twice_panics() {
        let mut b = BinIndexBuilder::new(0, 2, 1);
        let bm = WahBitmap::from_sorted_positions(10, &[0]);
        b.set_chunk(0, &bm, &[UnitLoc::default()]);
        b.set_chunk(0, &bm, &[UnitLoc::default()]);
    }
}
