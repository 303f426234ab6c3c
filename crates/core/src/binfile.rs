//! Bin file format v7: one file per bin, with every fixed block at its
//! front, storing only what cannot be derived.
//!
//! ```text
//! [0, 14)      header: magic, version 7, bin, chunk and   index extent 0
//!              part counts
//! [14, T)      index-extent table: n_index × {len, crc}, then its CRC
//! [T, B)       data-extent table:  n_data × {len, crc}, then its CRC
//! [B, U)       positional bitmaps as run lists, one per   index extents 1..
//!              set chunk, in curve-rank order
//! [U, E)       unit parts' payloads, in the level order   data extents
//! [E, E+12)    end marker: the file's length (u64), then "MEND"
//! ```
//!
//! The bin's chunk summaries — per chunk, its count of the bin's points,
//! the span of their positions and whether they fill the chunk — are
//! not in the file: they are the bin's section of the variable's meta
//! ([`crate::index::Summaries`]), checked with it, and held by every
//! open store. A *set* chunk is one whose count is not zero. Nothing
//! says where a bitmap or a unit part is; [`Rows`] derives it from the
//! counts:
//!
//! * chunk `rank`'s bitmap is index extent `1 + k`, where `k` is the
//!   number of set chunks before `rank`;
//! * the unit parts are the data table's rows, in the level order:
//!   part-major for V-M-S (row `p · n_set + k` is part `p` of the
//!   `k`-th set chunk), chunk-major for V-S-M (row `k · parts + p`).
//!
//! Every extent's offset is a prefix sum of its table's lengths
//! ([`ExtentFooter`]), so a lookup is one row of a table already read.
//! This holds only if every set chunk has exactly one bitmap and one
//! non-empty extent per part: the builder refuses an empty part
//! ([`MlocError::EmptyUnit`]).
//!
//! A chunk's bitmap extent is its run list's LEB128 `(gap, len − 1)`
//! pairs and nothing else ([`mloc_bitmap::runs`]): the set-bit count is
//! the summary's, and the length is the chunk's point count, from the
//! geometry. A reader takes the pairs as they are after one validating
//! walk ([`mloc_bitmap::RunListBuf::push_stored`]).
//!
//! The tables' sizes follow from the counts too — `n_index = 1 + n_set`
//! and `n_data = n_set · parts` ([`Tables::of`]) — so a reader that holds
//! the summaries gets every fixed block of a file it opens in **one
//! read** from offset 0: the header and the index table, and the data
//! table when the bin's units read data. A positions-only query reads
//! the index table alone. This is the superblock idiom: fixed metadata
//! at a computed offset, never a probe of the file's tail — and nothing
//! stored that the meta or the geometry gives. A file whose tables are
//! not the sizes its summaries give fails the tables' own checksums.
//! Without the summaries — `verify` of a variable whose meta is lost —
//! the tables are found by those checksums alone (`Tables::find`).
//!
//! A unit part is its codec's payload alone ([`mloc_compress::Codec`]):
//! its raw length is the chunk's count times the part's width, so a
//! part stored at that length is the raw bytes, read in place, and
//! nothing frames a coded one. v6 had this layout with each part a
//! self-describing stream (magic, lengths, Adler-32); `mloc upgrade`
//! ([`crate::upgrade`]) rewrites it. v5 and before are read by no
//! reader of this crate.
//!
//! A bin file is written with one `create`, one `append` and one
//! `sync`. The variable's meta is the build's commit record, written
//! only after every bin file is synced. A torn bin file has no valid
//! end marker — its last 12 bytes do not state its length — and a page
//! that never reached the device fails its extent's checksum, so damage
//! is detected either way and never served. Queries never read the end
//! marker; `verify`, `fsck` and `repair`, which read whole files, do.

use crate::array::ChunkGrid;
use crate::cache::{ByteView, FixedBlocks};
use crate::config::{LevelOrder, MlocConfig};
use crate::index::{
    check_header, check_header_of, encode_summaries, le_u32, le_u64, parse_header_of, ChunkSummary,
    Summaries, SummaryView, UnitLoc, HEADER_LEN, MAGIC, VERSION,
};
use crate::integrity::{corrupt_extent, crc32, crc32_extend, table_len, ExtentFooter};
use crate::wire::Writer;
use crate::{MlocError, Result};
use mloc_bitmap::{RunListRef, RunsError};
use std::ops::Deref;
use std::sync::Arc;

/// Bytes of the end marker: the file's length, then its magic.
pub const END_LEN: u64 = 12;
const END_MAGIC: u32 = 0x444E_454D; // "MEND"

/// A bin's chunk count and unit parts per chunk: what locates every
/// fixed block of a bin file.
pub type Geometry = (usize, usize);

/// What a whole-file check holds a variable's bin files to: the
/// geometry that locates their fixed blocks, the level order that
/// places their unit parts, each chunk's point count, the length every
/// stored run list of the chunk must fit, and — when the variable's
/// meta gave them — every bin's chunk summaries.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    pub geometry: Geometry,
    pub level_order: LevelOrder,
    /// Points of the chunk at each curve rank.
    points: Vec<u64>,
    summaries: Option<Summaries>,
}

impl Layout {
    /// The layout a build configuration gives every bin.
    pub fn of(config: &MlocConfig) -> Layout {
        let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());
        let order = config.chunk_order(&grid);
        let points = (0..grid.num_chunks())
            .map(|rank| grid.chunk_points(order.cell_at(rank)) as u64)
            .collect();
        Layout {
            geometry: (grid.num_chunks(), config.num_parts()),
            level_order: config.level_order,
            points,
            summaries: None,
        }
    }

    /// The layout, with the bins' chunk summaries a verified meta holds.
    pub fn with_summaries(self, summaries: Summaries) -> Layout {
        Layout {
            summaries: Some(summaries),
            ..self
        }
    }

    /// Points of the chunk at curve rank `rank`.
    pub fn points(&self, rank: usize) -> u64 {
        self.points.get(rank).copied().unwrap_or(0)
    }

    /// Bin `bin`'s chunk summaries, when the layout holds them.
    pub fn summaries(&self, bin: usize) -> Option<SummaryView<ByteView>> {
        let summaries = self.summaries.as_ref()?;
        (bin < summaries.num_bins()).then(|| summaries.bin(bin))
    }
}

/// Index extents in front of a bin file's bitmaps: the header.
const FIXED_EXTENTS: usize = 1;

/// Where a bin file's two checksum tables are and how many entries each
/// holds: right after the header, sized by the bin's set
/// chunks ([`Self::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tables {
    /// File offset of the index table.
    pub(crate) at: u64,
    pub(crate) n_index: u32,
    pub(crate) n_data: u32,
}

impl Tables {
    /// The tables of a bin file with `n_set` set chunks of
    /// `num_parts` parts each.
    pub fn of(n_set: usize, num_parts: usize) -> Tables {
        Tables {
            at: HEADER_LEN,
            n_index: 1 + n_set as u32,
            n_data: (n_set * num_parts) as u32,
        }
    }

    /// The tables of `raw`, a whole bin file of `geometry`, found by
    /// their own checksums alone: the one index table size from the
    /// header's extent alone to one bitmap per chunk whose stored CRC
    /// holds — kept piece by piece, so the search is one pass over the
    /// table — and whose data table then holds its CRC too. `None` when
    /// no size does (a damaged table, a torn file).
    pub(crate) fn find(raw: &[u8], (num_chunks, num_parts): Geometry) -> Option<Tables> {
        let entries = raw.get(HEADER_LEN as usize..)?;
        let mut crc = 0;
        for n_set in 0..=num_chunks {
            let end = 8 * (n_set + 1);
            crc = crc32_extend(crc, entries.get(end - 8..end)?);
            if entries.get(end..end + 4)? != crc.to_le_bytes() {
                continue;
            }
            let tables = Tables::of(n_set, num_parts);
            let (at, len) = tables.data_span();
            let data = span(raw, (at, len))?;
            let (rows, stored) = data.split_at(data.len() - 4);
            if crc32(rows).to_le_bytes() == stored {
                return Some(tables);
            }
        }
        None
    }

    /// `(offset, length)` of the index table.
    pub fn index_span(&self) -> (u64, u64) {
        (self.at, table_len(self.n_index))
    }

    /// `(offset, length)` of the data table, right after the index
    /// table.
    pub fn data_span(&self) -> (u64, u64) {
        (self.at + table_len(self.n_index), table_len(self.n_data))
    }

    /// Where the bitmaps begin: right after both tables.
    pub(crate) fn bitmaps_at(&self) -> u64 {
        let (at, len) = self.data_span();
        at + len
    }

    /// The index table's runs: the header from offset 0, the bitmaps
    /// from where they begin.
    pub(crate) fn index_runs(&self) -> [(usize, u64); 2] {
        [(0, 0), (FIXED_EXTENTS, self.bitmaps_at())]
    }

    /// Parse the index table of a bin file from `bytes`, all of
    /// [`Self::index_span`].
    pub fn decode_index(&self, bytes: &[u8], file: &str) -> Result<ExtentFooter> {
        ExtentFooter::decode_table(bytes, self.at, &self.index_runs(), file)
    }

    /// Parse the data table from `bytes`, all of [`Self::data_span`].
    /// The units begin where `index`'s last bitmap ends.
    pub fn decode_data(
        &self,
        bytes: &[u8],
        index: &ExtentFooter,
        file: &str,
    ) -> Result<ExtentFooter> {
        let units_at = index.extents_end().max(self.bitmaps_at());
        ExtentFooter::decode_table(bytes, self.data_span().0, &[(0, units_at)], file)
    }
}

/// A chunk rank with no points in the bin: no bitmap, no unit.
const UNSET: u32 = u32::MAX;

/// Which table row holds each bitmap and unit part of a bin file,
/// derived from its summaries' counts (see the module docs). Lookups are
/// O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    /// Per chunk rank: the number of set chunks before it, or [`UNSET`].
    slot: Vec<u32>,
    /// The set chunks' ranks, rising.
    set: Vec<u32>,
    num_parts: usize,
    part_major: bool,
}

impl Rows {
    /// Derive the rows of a bin file of `num_parts` parts per chunk laid
    /// out in `order` from its verified `summaries`.
    pub fn derive<B: Deref<Target = [u8]>>(
        summaries: &SummaryView<B>,
        num_parts: usize,
        order: LevelOrder,
    ) -> Rows {
        let mut slot = Vec::with_capacity(summaries.num_chunks());
        let mut set = Vec::new();
        for rank in 0..summaries.num_chunks() {
            if summaries.count(rank) == 0 {
                slot.push(UNSET);
            } else {
                slot.push(set.len() as u32);
                set.push(rank as u32);
            }
        }
        Rows {
            slot,
            set,
            num_parts,
            part_major: order == LevelOrder::Vms,
        }
    }

    /// Where the file's tables are, and how many entries each holds.
    pub fn tables(&self) -> Tables {
        Tables::of(self.set.len(), self.num_parts)
    }

    /// The set chunk index of `rank`, when it has points.
    fn slot(&self, rank: usize) -> Option<usize> {
        let k = *self.slot.get(rank)?;
        (k != UNSET).then_some(k as usize)
    }

    /// The index-table row of chunk `rank`'s bitmap; `None` when the
    /// chunk has no points.
    pub fn bitmap_row(&self, rank: usize) -> Option<usize> {
        Some(1 + self.slot(rank)?)
    }

    /// The data-table row of part `part` of chunk `rank`'s unit; `None`
    /// when the chunk has no points or there is no such part.
    pub fn unit_row(&self, rank: usize, part: usize) -> Option<usize> {
        let k = self.slot(rank).filter(|_| part < self.num_parts)?;
        Some(if self.part_major {
            part * self.set.len() + k
        } else {
            k * self.num_parts + part
        })
    }

    /// The chunk rank whose bitmap is index-table row `row`.
    pub fn chunk_of_bitmap(&self, row: usize) -> Option<usize> {
        let k = row.checked_sub(1)?;
        self.set.get(k).map(|&rank| rank as usize)
    }

    /// The chunk rank and part stored at data-table row `row`.
    pub fn unit_of_row(&self, row: usize) -> Option<(usize, usize)> {
        let n_set = self.set.len();
        let (k, part) = match n_set {
            0 => return None,
            _ if self.part_major => (row % n_set, row / n_set),
            _ => (row / self.num_parts, row % self.num_parts),
        };
        let rank = *self.set.get(k).filter(|_| part < self.num_parts)?;
        Some((rank as usize, part))
    }

    /// Chunk `rank`'s bitmap extent `(offset, length)` in `index`, its
    /// file's index table; `None` when the chunk has no points.
    pub fn bitmap(&self, index: &ExtentFooter, rank: usize) -> Option<(u64, u32)> {
        let (offset, len, _) = index.extent(self.bitmap_row(rank)?);
        Some((offset, len))
    }

    /// Where part `part` of chunk `rank`'s unit is, by `data`, its
    /// file's data table; `None` when the chunk has no points.
    pub fn unit(&self, data: &ExtentFooter, rank: usize, part: usize) -> Option<UnitLoc> {
        let (offset, clen, _) = data.extent(self.unit_row(rank, part)?);
        Some(UnitLoc { offset, clen })
    }
}

/// A bin file's fixed blocks parsed in place, without verifying a
/// checksum: how tools that inspect a file — `mloc stats`, tests that
/// edit one — find its bitmaps and units, through the lookups a query
/// uses. `summaries` are the bin's, from its variable's meta; `raw`
/// must hold the file from its start at least to the end of its data
/// table. Queries and checks never take this route: they verify every
/// block before trusting it.
pub fn parse_fixed(
    raw: &[u8],
    summaries: &SummaryView<ByteView>,
    num_parts: usize,
    order: LevelOrder,
    file: &str,
) -> Result<FixedBlocks> {
    check_header(raw, (summaries.num_chunks(), num_parts))?;
    let short = || corrupt_extent(file, 0, raw.len() as u64, "file shorter than its tables");
    let rows = Rows::derive(summaries, num_parts, order);
    let tables = rows.tables();
    let index = tables.decode_index(span(raw, tables.index_span()).ok_or_else(short)?, file)?;
    let data = span(raw, tables.data_span()).ok_or_else(short)?;
    let data = tables.decode_data(data, &index, file)?;
    Ok(FixedBlocks {
        footer: Arc::new(index),
        data: Some(Arc::new(data)),
        rows,
    })
}

/// Incremental builder of one bin file — the only writer of the
/// format. Chunks arrive in curve-rank order, each with its run list
/// and its unit's parts; [`Self::finish`] lays the parts out in the
/// level order and writes the file around them.
#[derive(Debug)]
pub struct BinFileBuilder<'u> {
    bin: u32,
    num_parts: usize,
    level_order: LevelOrder,
    summaries: Vec<ChunkSummary>,
    bitmaps: Vec<u8>,
    /// Encoded bitmap lengths in file (rank) order — the bitmap
    /// extents of the index table.
    bitmap_lens: Vec<u32>,
    /// The set chunks' ranks, rising.
    set: Vec<usize>,
    /// Set-chunk-major: part `p` of the `k`-th set chunk at
    /// `k · num_parts + p`.
    parts: Vec<&'u [u8]>,
}

/// A finished bin file.
#[derive(Debug)]
pub struct BinFile {
    /// The file's bytes.
    pub bytes: Vec<u8>,
    /// Bytes of its data section: the data table and the units. The
    /// rest is the index section.
    pub data_bytes: u64,
    /// The bin's chunk-summary section, for the variable's meta.
    pub summary: Vec<u8>,
}

impl<'u> BinFileBuilder<'u> {
    /// Start building bin `bin` over `num_chunks` chunks, each unit of
    /// `num_parts` parts laid out in `level_order`.
    pub fn new(bin: u32, num_chunks: usize, num_parts: usize, level_order: LevelOrder) -> Self {
        BinFileBuilder {
            bin,
            num_parts,
            level_order,
            summaries: vec![ChunkSummary::EMPTY; num_chunks],
            bitmaps: Vec::new(),
            bitmap_lens: Vec::new(),
            set: Vec::new(),
            parts: Vec::new(),
        }
    }

    /// Record a chunk's positional bitmap — its run list, whose pairs
    /// are the stored extent — and its unit's compressed parts, in part
    /// order. The chunk's summary (count, min/max set position,
    /// all-of-chunk flag) is taken from the runs.
    ///
    /// # Panics
    /// Panics when called out of rank order (or twice for a rank), for
    /// a list with no set bit, or with a part count mismatch.
    pub fn set_chunk(&mut self, rank: usize, runs: RunListRef<'_>, parts: &[&'u [u8]]) {
        assert_eq!(parts.len(), self.num_parts, "unit part count mismatch");
        let rising = self.set.last().is_none_or(|&last| last < rank);
        assert!(rising, "chunk rank {rank} set out of rank order");
        let (first, last) = (runs.iter().next(), runs.iter().last());
        let (Some((min_pos, _, _)), Some((start, _, len))) = (first, last) else {
            panic!("chunk rank {rank} set with no points");
        };
        let pairs = runs.pairs();
        self.set.push(rank);
        self.bitmap_lens.push(pairs.len() as u32);
        self.bitmaps.extend_from_slice(pairs);
        self.parts.extend_from_slice(parts);
        self.summaries[rank] = ChunkSummary {
            count: runs.count() as u32,
            min_pos: min_pos as u32,
            max_pos: (start + len - 1) as u32,
            all_of_chunk: runs.count() == runs.len(),
        };
    }

    /// The parts in the level order, with their set chunk indices.
    fn level_ordered(&self) -> Vec<(usize, usize)> {
        let (n_set, n_parts) = (self.set.len(), self.num_parts);
        match self.level_order {
            // Part-major: all chunks' part 0, then part 1, …
            LevelOrder::Vms => (0..n_parts)
                .flat_map(|p| (0..n_set).map(move |k| (k, p)))
                .collect(),
            // Chunk-major: each chunk's parts together.
            LevelOrder::Vsm => (0..n_set)
                .flat_map(|k| (0..n_parts).map(move |p| (k, p)))
                .collect(),
        }
    }

    /// Finish the file: the units' parts laid out in the level order
    /// behind the bitmaps, both tables computed over the image, and the
    /// bin's summary section encoded for the meta. A set chunk's part
    /// that compressed to nothing would have no data-table row to derive
    /// its location from: it fails as [`MlocError::EmptyUnit`], and
    /// nothing is built.
    pub fn finish(self) -> Result<BinFile> {
        let num_chunks = self.summaries.len();
        if let Some(at) = self.parts.iter().position(|p| p.is_empty()) {
            return Err(MlocError::EmptyUnit {
                bin: self.bin,
                chunk_rank: self.set[at / self.num_parts],
                part: at % self.num_parts,
            });
        }
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u8(VERSION);
        w.u32(self.bin);
        w.u32(num_chunks as u32);
        w.u8(self.num_parts as u8);
        let header = w.finish();
        debug_assert_eq!(header.len() as u64, HEADER_LEN);

        let tables = Tables::of(self.set.len(), self.num_parts);
        let bitmaps_at = tables.bitmaps_at();
        let order = self.level_ordered();
        let units_len: usize = self.parts.iter().map(|p| p.len()).sum();
        let file_len = bitmaps_at + (self.bitmaps.len() + units_len) as u64 + END_LEN;
        let mut image = Vec::with_capacity(file_len as usize);
        image.extend_from_slice(&header);
        image.resize(bitmaps_at as usize, 0); // the tables, below
        image.extend_from_slice(&self.bitmaps);
        let units_at = image.len() as u64;
        let mut unit_lens = Vec::with_capacity(order.len());
        for &(k, p) in &order {
            let part = self.parts[k * self.num_parts + p];
            image.extend_from_slice(part);
            unit_lens.push(part.len() as u32);
        }
        image.extend_from_slice(&file_len.to_le_bytes());
        image.extend_from_slice(&END_MAGIC.to_le_bytes());
        debug_assert_eq!(image.len() as u64, file_len);

        let mut index_lens = vec![HEADER_LEN as u32];
        index_lens.extend_from_slice(&self.bitmap_lens);
        let (index_at, data_at) = (tables.index_span().0, tables.data_span().0);
        let index =
            ExtentFooter::compute_table(&image, index_at, &tables.index_runs(), &index_lens);
        let data = ExtentFooter::compute_table(&image, data_at, &[(0, units_at)], &unit_lens);
        for (table, span) in [(index, tables.index_span()), (data, tables.data_span())] {
            debug_assert_eq!(table.span(), span);
            let (at, len) = span;
            image[at as usize..(at + len) as usize].copy_from_slice(&table.encode_table());
        }
        let mut summary = Writer::new();
        encode_summaries(&self.summaries, &mut summary);
        Ok(BinFile {
            bytes: image,
            data_bytes: tables.data_span().1 + units_len as u64,
            summary: summary.finish(),
        })
    }
}

/// A whole bin file, every checksum recomputed — how `verify`, `fsck`
/// and `repair` read one.
pub(crate) struct Checked {
    /// Where the tables are: sized by the bin's summaries, or found by
    /// their own checksums.
    pub tables: Option<Tables>,
    /// The index table, when it decoded.
    pub index: Option<ExtentFooter>,
    /// The data table, when it decoded: where the units are.
    pub data: Option<ExtentFooter>,
    /// The table rows of every bitmap and unit part, when the bin's
    /// summaries were given and the header verified: what may label the
    /// damage chunk by chunk.
    pub rows: Option<Rows>,
    /// Extents whose checksum was recomputed.
    pub extents: u64,
    /// Every failure found: tables not found or bad, bad extents, a
    /// missing end marker, and — held to a [`Layout`] — a header of
    /// another geometry and run lists that disagree with their counts.
    pub damage: Vec<MlocError>,
}

/// Check all of `raw`, the whole file `file` of bin `bin`. Held to
/// `layout` — the variable's, when its meta (or else its dataset's
/// catalog) says — the header must state the layout's geometry; with
/// the bin's summaries, which a verified meta gives, the tables are
/// sized by them and every bitmap is taken as a run list of its chunk's
/// count within its chunk's points, as a query takes it. Without
/// summaries the tables are found by their own checksums, and the
/// damage is located by them alone. Without a layout the geometry is
/// the one the header states.
pub(crate) fn check(raw: &[u8], file: &str, layout: Option<&Layout>, bin: usize) -> Checked {
    check_of(raw, file, layout, bin, VERSION)
}

/// [`check`] of a bin file of format `version`: the current one, or v6
/// for `mloc upgrade` — laid out alike, the two differ in their unit
/// parts' bytes alone.
pub(crate) fn check_of(
    raw: &[u8],
    file: &str,
    layout: Option<&Layout>,
    bin: usize,
    version: u8,
) -> Checked {
    let summaries = layout.and_then(|l| l.summaries(bin));
    let geometry = layout.map_or_else(|| parse_header_of(raw, version), |l| Ok(l.geometry));
    let tables = geometry.and_then(|geometry| {
        let not_found = || {
            let len = (raw.len() as u64).saturating_sub(HEADER_LEN + END_LEN);
            corrupt_extent(file, HEADER_LEN, len, "checksum tables not found")
        };
        match &summaries {
            Some(summaries) => Ok(Tables::of(summaries.set_chunks(), geometry.1)),
            None => Tables::find(raw, geometry).ok_or_else(not_found),
        }
    });
    let mut out = check_extents(raw, file, tables);
    if let Some(layout) = layout {
        check_geometry(raw, file, layout, version, &mut out);
        if let Some(summaries) = summaries {
            check_rows(raw, file, layout, &summaries, &mut out);
        }
    }
    out
}

/// The checksums, tables and end marker of `raw` alone, its tables
/// where `tables` says: what [`check`] checks first.
fn check_extents(raw: &[u8], file: &str, tables: Result<Tables>) -> Checked {
    let mut out = Checked {
        tables: None,
        index: None,
        data: None,
        rows: None,
        extents: 0,
        damage: Vec::new(),
    };
    let whole = |what: &str| corrupt_extent(file, 0, raw.len() as u64, what);
    let table = |(at, len)| {
        span(raw, (at, len))
            .ok_or_else(|| corrupt_extent(file, at, len, "checksum table past end of file"))
    };
    // A bad index table leaves the units unlocated too: it is the one
    // finding then.
    let checked = tables.and_then(|tables| {
        out.tables = Some(tables);
        let index = table(tables.index_span()).and_then(|b| tables.decode_index(b, file))?;
        let data = table(tables.data_span()).and_then(|b| tables.decode_data(b, &index, file));
        Ok((index, data))
    });
    let verify = |table: &ExtentFooter, out: &mut Checked| {
        table.verify_all(raw, file, |verdict| {
            out.extents += 1;
            out.damage.extend(verdict.err());
        })
    };
    match checked {
        Ok((index, data)) => {
            verify(&index, &mut out);
            match data {
                Ok(data) => {
                    verify(&data, &mut out);
                    out.data = Some(data);
                }
                Err(e) => out.damage.push(e),
            }
            out.index = Some(index);
        }
        Err(e @ MlocError::CorruptExtent { .. }) => out.damage.push(e),
        Err(e) => out
            .damage
            .push(whole(&format!("index header unreadable: {e}"))),
    }
    if let Err(e) = end_marker(raw, file) {
        out.damage.push(e);
    }
    out
}

/// Once the header's extent verified (a damaged header may say
/// anything), hold it to the layout's geometry: one that states another
/// is damage to the header.
fn check_geometry(raw: &[u8], file: &str, layout: &Layout, version: u8, out: &mut Checked) {
    let damaged = |e: &MlocError| matches!(e, MlocError::CorruptExtent { offset: 0, .. });
    if out.index.is_none() || out.damage.iter().any(damaged) {
        return;
    }
    if let Err(e) = check_header_of(raw, layout.geometry, version) {
        let what = format!("header: {e}");
        out.damage.push(corrupt_extent(file, 0, HEADER_LEN, &what));
    }
}

/// Derive the rows from the bin's summaries — the meta's, verified
/// apart from the file — and, once the index table decoded, take every
/// bitmap whose extent verified as a run list of its chunk's count
/// within its chunk.
fn check_rows(
    raw: &[u8],
    file: &str,
    layout: &Layout,
    summaries: &SummaryView<ByteView>,
    out: &mut Checked,
) {
    let Some(index) = out.index.as_ref() else {
        return;
    };
    let damaged = |at: u64| {
        let at_extent =
            |e: &MlocError| matches!(e, MlocError::CorruptExtent { offset, .. } if *offset == at);
        out.damage.iter().any(at_extent)
    };
    let rows = Rows::derive(summaries, layout.geometry.1, layout.level_order);
    let mut refused = Vec::new();
    for rank in 0..layout.geometry.0 {
        let Some((at, len)) = rows.bitmap(index, rank) else {
            continue;
        };
        if damaged(at) {
            continue;
        }
        let (count, points) = (summaries.count(rank), layout.points(rank));
        refused.extend(match span(raw, (at, u64::from(len))) {
            None => Some(corrupt_extent(
                file,
                at,
                len.into(),
                "run list past end of file",
            )),
            Some(pairs) => RunListRef::stored(pairs, count.into(), points)
                .err()
                .map(|e| refused_runs(file, (at, len), e, count, points)),
        });
    }
    out.damage.extend(refused);
    out.rows = Some(rows);
}

/// The error of a stored run list — the extent `(at, len)` of `file` —
/// that the validator refused as `e`: one of `count` set bits in
/// `points`, its summary said. A query that reads it and `verify` give
/// the same one.
pub(crate) fn refused_runs(
    file: &str,
    (at, len): (u64, u32),
    e: RunsError,
    count: u32,
    points: u64,
) -> MlocError {
    let what = format!("{e} (summary: {count} of {points} points)");
    corrupt_extent(file, at, u64::from(len), &what)
}

/// Check a whole bin file; the first damage found, if any.
pub(crate) fn verified(raw: &[u8], file: &str, layout: Option<&Layout>, bin: usize) -> Result<()> {
    check(raw, file, layout, bin)
        .damage
        .into_iter()
        .next()
        .map_or(Ok(()), Err)
}

/// `raw[at..at + len]`, when the file holds all of it.
pub(crate) fn span(raw: &[u8], (at, len): (u64, u64)) -> Option<&[u8]> {
    let start = usize::try_from(at).ok()?;
    raw.get(start..start.checked_add(usize::try_from(len).ok()?)?)
}

/// A complete write ends in its own length, then the end magic.
fn end_marker(raw: &[u8], file: &str) -> Result<()> {
    let at = raw.len().saturating_sub(END_LEN as usize);
    let tail = &raw[at..];
    let complete = tail.len() as u64 == END_LEN
        && le_u32(tail, 8) == END_MAGIC
        && le_u64(tail, 0) == raw.len() as u64;
    if complete {
        return Ok(());
    }
    Err(corrupt_extent(
        file,
        at as u64,
        tail.len() as u64,
        "missing end marker (incomplete build?)",
    ))
}

/// Recompute the index table of `raw`, a whole bin file whose tables
/// are `tables`, over its extents as they are now: a test edits a
/// header or a bitmap and keeps every checksum holding.
#[cfg(test)]
pub(crate) fn reseal_index(raw: &mut [u8], tables: Tables, file: &str) {
    let (at, len) = tables.index_span();
    let span = at as usize..(at + len) as usize;
    let index = tables.decode_index(&raw[span.clone()], file).unwrap();
    let lens: Vec<u32> = (0..index.num_extents())
        .map(|i| index.extent(i).1)
        .collect();
    let table = ExtentFooter::compute_table(raw, at, &tables.index_runs(), &lens);
    raw[span].copy_from_slice(&table.encode_table());
}

#[cfg(test)]
mod tests {
    use super::*;
    use mloc_bitmap::RunList;
    use proptest::prelude::*;

    /// `chunks` chunks of 16 points, `parts` parts each, held to the
    /// bins' `summaries` when given.
    fn layout((chunks, parts): Geometry, level_order: LevelOrder) -> Layout {
        Layout {
            geometry: (chunks, parts),
            level_order,
            points: vec![16; chunks],
            summaries: None,
        }
    }

    /// The layout of [`built`]'s bin 0, with its summary section.
    fn held(summary: &[u8], order: LevelOrder) -> Layout {
        let summaries = Summaries::parse(summary.to_vec(), 1, 4).unwrap();
        layout((4, 3), order).with_summaries(summaries)
    }

    /// Part `part` of chunk `rank`'s unit in [`built`]: `5 + part`
    /// bytes of `16 · rank + part`.
    fn part_bytes(rank: usize, part: usize) -> Vec<u8> {
        vec![rank as u8 * 16 + part as u8; 5 + part]
    }

    /// A small bin file: 4 chunks × 3 parts, three chunks with points
    /// and units, laid out in `order`; and its summary section.
    fn built_in(order: LevelOrder) -> (Vec<u8>, Vec<u8>) {
        let parts: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|rank| (0..3).map(|part| part_bytes(rank, part)).collect())
            .collect();
        let mut b = BinFileBuilder::new(2, 4, 3, order);
        for (rank, positions) in [(0usize, &[1u64, 5, 9][..]), (1, &[0]), (3, &[2, 3])] {
            let runs = RunList::from_sorted_positions(16, positions);
            let unit: Vec<&[u8]> = parts[rank].iter().map(Vec::as_slice).collect();
            b.set_chunk(rank, runs.as_ref(), &unit);
        }
        let file = b.finish().unwrap();
        (file.bytes, file.summary)
    }

    fn built() -> (Vec<u8>, Vec<u8>) {
        built_in(LevelOrder::Vms)
    }

    /// The checked file's tables, index table, data table and rows, all
    /// of them clean.
    fn rows_of(
        raw: &[u8],
        summary: &[u8],
        order: LevelOrder,
    ) -> (Tables, ExtentFooter, ExtentFooter, Rows) {
        let checked = check(raw, "f", Some(&held(summary, order)), 0);
        assert!(checked.damage.is_empty(), "{:?}", checked.damage);
        let rows = checked.rows.unwrap();
        let (index, data) = (checked.index.unwrap(), checked.data.unwrap());
        (checked.tables.unwrap(), index, data, rows)
    }

    /// The end-marker decoder written apart from the one under test.
    fn oracle_end_marker(raw: &[u8], file: &str) -> Result<()> {
        let n = raw.len();
        if n >= 12 && raw[n - 4..] == *b"MEND" && raw[n - 12..n - 4] == (n as u64).to_le_bytes() {
            return Ok(());
        }
        let at = n.saturating_sub(12);
        Err(corrupt_extent(
            file,
            at as u64,
            (n - at) as u64,
            "missing end marker (incomplete build?)",
        ))
    }

    /// The end-marker decoder against the oracle's, on one buffer: the
    /// same verdict and message.
    fn agree(raw: &[u8]) {
        let (got, want) = (end_marker(raw, "f"), oracle_end_marker(raw, "f"));
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn a_built_file_checks_clean_and_its_sections_add_up() {
        let (raw, summary) = built();
        let with = held(&summary, LevelOrder::Vms);
        let without = layout((4, 3), LevelOrder::Vms);
        for stated in [Some(&with), Some(&without), None] {
            let checked = check(&raw, "f", stated, 0);
            assert!(checked.damage.is_empty(), "{:?}", checked.damage);
            // Header, three bitmaps; nine units.
            assert_eq!(checked.extents, 4 + 9);
            // Sized by the summaries or found by the checksums: the
            // same tables.
            assert_eq!(checked.tables, Some(Tables::of(3, 3)));
        }
        let tables = rows_of(&raw, &summary, LevelOrder::Vms).0;
        let summaries = Summaries::parse(summary, 1, 4).unwrap().bin(0);
        let fixed = parse_fixed(&raw, &summaries, 3, LevelOrder::Vms, "f").unwrap();
        let (index, data) = fixed.section_bytes().unwrap();
        assert_eq!(index + data, raw.len() as u64);
        assert_eq!(data, tables.data_span().1 + (5 + 6 + 7) * 3);
        // The tables follow the header, itself the prologue alone.
        assert_eq!(HEADER_LEN, 14);
        assert_eq!(tables.index_span(), (HEADER_LEN, table_len(4)));
    }

    /// Every bitmap and unit part is where its derived row says, in
    /// either level order, and the inverse lookups name it back.
    #[test]
    fn derived_rows_locate_every_bitmap_and_part_in_either_level_order() {
        for order in [LevelOrder::Vms, LevelOrder::Vsm] {
            let (raw, summary) = built_in(order);
            let (_, index, data, rows) = rows_of(&raw, &summary, order);
            for (rank, positions) in [(0usize, &[1u64, 5, 9][..]), (1, &[0]), (3, &[2, 3])] {
                let (at, len) = rows.bitmap(&index, rank).unwrap();
                let runs = RunList::from_sorted_positions(16, positions);
                let stored = &raw[at as usize..(at + u64::from(len)) as usize];
                assert_eq!(stored, runs.as_ref().pairs(), "{order:?} rank {rank}");
                assert_eq!(
                    rows.chunk_of_bitmap(rows.bitmap_row(rank).unwrap()),
                    Some(rank)
                );
                for part in 0..3 {
                    let loc = rows.unit(&data, rank, part).unwrap();
                    let got = &raw[loc.offset as usize..loc.offset as usize + loc.clen as usize];
                    assert_eq!(got, part_bytes(rank, part), "{order:?} {rank}/{part}");
                    let row = rows.unit_row(rank, part).unwrap();
                    assert_eq!(rows.unit_of_row(row), Some((rank, part)));
                }
            }
            assert_eq!(rows.bitmap(&index, 2), None);
            assert_eq!(rows.unit(&data, 2, 0), None);
            assert_eq!(rows.unit(&data, 0, 3), None);
            assert_eq!(rows.unit_of_row(9), None);
            assert_eq!(rows.chunk_of_bitmap(0), None, "the header's row");
        }
        // Part-major and chunk-major differ only in where the parts are.
        let (vms, vsm) = (built_in(LevelOrder::Vms), built_in(LevelOrder::Vsm));
        assert_eq!(vms.0.len(), vsm.0.len());
        assert_eq!(vms.1, vsm.1, "the same summaries");
        let units_at = rows_of(&vms.0, &vms.1, LevelOrder::Vms).2.extent(0).0 as usize;
        assert_eq!(vms.0[..HEADER_LEN as usize], vsm.0[..HEADER_LEN as usize]);
        assert_ne!(vms.0[units_at..], vsm.0[units_at..]);
    }

    /// Every prefix of a built file and every single-bit flip of it:
    /// the end-marker decoder agrees with the oracle, nothing panics,
    /// and the whole-file check finds damage in each, held to the
    /// summaries, to the geometry alone, or to nothing — every byte of
    /// a bin file is under a checksum or is its end marker.
    #[test]
    fn every_truncation_and_bit_flip_is_found_and_never_panics() {
        let (raw, summary) = built();
        let with = held(&summary, LevelOrder::Vms);
        let without = layout((4, 3), LevelOrder::Vms);
        for cut in 0..raw.len() {
            agree(&raw[..cut]);
            for stated in [Some(&with), Some(&without), None] {
                let checked = check(&raw[..cut], "f", stated, 0);
                assert!(!checked.damage.is_empty(), "cut at {cut} passed");
            }
        }
        for bit in 0..raw.len() * 8 {
            let mut bad = raw.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            agree(&bad);
            for stated in [Some(&with), Some(&without)] {
                let checked = check(&bad, "f", stated, 0);
                assert!(!checked.damage.is_empty(), "flip of bit {bit} passed");
            }
            let _ = check(&bad, "f", None, 0);
        }
    }

    /// Found by their checksums alone, the tables are the ones the
    /// summaries size, for every count of set chunks; a damaged index
    /// or data table is found by nothing.
    #[test]
    fn tables_are_found_by_their_checksums_alone() {
        for set in 0..=4usize {
            let mut b = BinFileBuilder::new(0, 4, 2, LevelOrder::Vms);
            for rank in 0..set {
                let runs = RunList::from_sorted_positions(16, &[rank as u64]);
                b.set_chunk(rank, runs.as_ref(), &[b"ab", b"c"]);
            }
            let raw = b.finish().unwrap().bytes;
            let tables = Tables::of(set, 2);
            assert_eq!(Tables::find(&raw, (4, 2)), Some(tables), "{set} set");
            for at in [tables.index_span().0, tables.data_span().0] {
                let mut bad = raw.clone();
                bad[at as usize] ^= 0x04;
                assert_eq!(Tables::find(&bad, (4, 2)), None, "{set} set, flip at {at}");
            }
        }
    }

    /// A run list edited under a resealed checksum table passes every
    /// checksum: held to the summaries, the check names it, at its
    /// extent; held to nothing, it cannot.
    #[test]
    fn a_resealed_run_list_that_disagrees_with_its_entry_is_found() {
        let (raw, summary) = built();
        let (tables, index, _, rows) = rows_of(&raw, &summary, LevelOrder::Vms);
        // Chunk 0's runs are 1, 5, 9: lengthen the last run by one.
        let (at, len) = rows.bitmap(&index, 0).unwrap();
        assert_eq!(len, 6, "three one-byte pairs");
        let mut bad = raw.clone();
        bad[at as usize + 5] = 1;
        reseal_index(&mut bad, tables, "f");
        assert!(check(&bad, "f", None, 0).damage.is_empty());
        let damage = check(&bad, "f", Some(&held(&summary, LevelOrder::Vms)), 0).damage;
        let [MlocError::CorruptExtent {
            offset,
            len: n,
            what,
            ..
        }] = &damage[..]
        else {
            panic!("{damage:?}");
        };
        assert_eq!((*offset, *n), (at, u64::from(len)));
        assert_eq!(
            what,
            "run list disagrees with its count (summary: 3 of 16 points)"
        );
    }

    /// Summaries that set one chunk more or fewer than the file has
    /// bitmaps for size its tables wrong: the index table fails its own
    /// checksum, named at the span the summaries give it.
    #[test]
    fn tables_whose_rows_disagree_with_the_summary_are_named() {
        let (raw, summary) = built();
        let count_at = |rank: usize| 8 + 13 * rank;
        // Chunk 2 gains a point; chunk 1 loses its only one.
        for (rank, count, set) in [(2usize, 1u32, 4usize), (1, 0, 2)] {
            let mut other = summary.clone();
            other[count_at(rank)..count_at(rank) + 4].copy_from_slice(&count.to_le_bytes());
            let damage = check(&raw, "f", Some(&held(&other, LevelOrder::Vms)), 0).damage;
            let MlocError::CorruptExtent {
                offset, len, what, ..
            } = &damage[0]
            else {
                panic!("{damage:?}");
            };
            assert_eq!((*offset, *len), Tables::of(set, 3).index_span(), "{what}");
            assert_eq!(what, "checksum table corrupt");
        }
    }

    /// Tables read at sizes one row off what the summaries' set chunks
    /// give — a data row or a bitmap row too many or too few — are
    /// refused by their own checksums, naming the table read.
    #[test]
    fn rows_refuse_table_sizes_other_than_the_summarys() {
        let (raw, _) = built();
        let right = Tables::of(3, 3);
        let index = right
            .decode_index(span(&raw, right.index_span()).unwrap(), "f")
            .unwrap();
        for (n_index, n_data) in [(5, 9), (3, 9), (4, 10), (4, 8)] {
            let tables = Tables {
                at: HEADER_LEN,
                n_index,
                n_data,
            };
            let read = |(at, len)| span(&raw, (at, len)).unwrap();
            let got = match n_index == right.n_index {
                true => tables.decode_data(read(tables.data_span()), &index, "f"),
                false => tables.decode_index(read(tables.index_span()), "f"),
            };
            let span = match n_index == right.n_index {
                true => tables.data_span(),
                false => tables.index_span(),
            };
            match got {
                Err(MlocError::CorruptExtent {
                    offset, len, what, ..
                }) => {
                    assert_eq!((offset, len), span, "{what}");
                    assert_eq!(what, "checksum table corrupt");
                }
                other => panic!("{n_index}, {n_data}: {other:?}"),
            }
        }
    }

    /// A set chunk's part that compressed to nothing fails the build
    /// with a typed error, whichever chunk and part it is.
    #[test]
    fn an_empty_part_of_a_set_chunk_is_refused() {
        let runs = RunList::from_sorted_positions(16, &[3]);
        for (rank, part) in [(0usize, 0usize), (1, 2), (3, 1)] {
            let mut b = BinFileBuilder::new(7, 4, 3, LevelOrder::Vsm);
            for r in [0, 1, 3] {
                let mut unit: [&[u8]; 3] = [b"a", b"b", b"c"];
                if r == rank {
                    unit[part] = b"";
                }
                b.set_chunk(r, runs.as_ref(), &unit);
            }
            match b.finish() {
                Err(MlocError::EmptyUnit {
                    bin: 7,
                    chunk_rank,
                    part: p,
                }) => assert_eq!((chunk_rank, p), (rank, part)),
                other => panic!("{other:?}"),
            }
        }
    }

    proptest! {
        /// Arbitrary buffers, and a built file with arbitrary bytes
        /// written over it: no decoder panics, the end-marker decoder
        /// agrees with the oracle, and the whole-file check allocates
        /// nothing the buffer does not bound.
        #[test]
        fn arbitrary_bytes_never_panic(
            junk in proptest::collection::vec(any::<u8>(), 0..600),
            at in any::<usize>(),
            over in proptest::collection::vec(any::<u8>(), 1..16),
            chunks in 0usize..6,
            parts in 1usize..4,
        ) {
            agree(&junk);
            let _ = check(&junk, "f", Some(&layout((chunks, parts), LevelOrder::Vms)), 0);
            let _ = check(&junk, "f", None, 0);
            let (mut raw, summary) = built();
            let at = at % raw.len();
            let end = (at + over.len()).min(raw.len());
            raw[at..end].copy_from_slice(&over[..end - at]);
            agree(&raw);
            let checked = check(&raw, "f", Some(&held(&summary, LevelOrder::Vms)), 0);
            prop_assert!(checked.extents <= raw.len() as u64);
            let _ = check(&raw, "f", None, 0);
        }
    }
}
