//! Bin file format v5: one file per bin, with every fixed block at its
//! front, storing only what cannot be derived.
//!
//! ```text
//! [0, 14)      header: magic, version 5, bin, chunk and   index extent 0
//!              part counts
//! [14, T)      chunk summaries {count, min, max, flags},  index extent 1
//!              then n_index: u32, n_data: u32 (the two
//!              tables' sizes)
//! [T, T+Li)    index-extent table: n_index × {len, crc}, then its CRC
//! [T+Li, B)    data-extent table:  n_data × {len, crc}, then its CRC
//! [B, U)       positional bitmaps as run lists, one per   index extents 2..
//!              set chunk, in curve-rank order
//! [U, E)       compressed unit parts, in the level order  data extents
//! [E, E+12)    end marker: the file's length (u64), then "MEND"
//! ```
//!
//! A *set* chunk is one whose summary count is not zero. Nothing else
//! says where a bitmap or a unit part is; [`Rows`] derives it:
//!
//! * chunk `rank`'s bitmap is index extent `2 + k`, where `k` is the
//!   number of set chunks before `rank`;
//! * the unit parts are the data table's rows, in the level order:
//!   part-major for V-M-S (row `p · n_set + k` is part `p` of the
//!   `k`-th set chunk), chunk-major for V-S-M (row `k · parts + p`).
//!
//! Every extent's offset is a prefix sum of its table's lengths
//! ([`ExtentFooter`]), so a lookup is one row of a table already read.
//! This holds only if every set chunk has exactly one bitmap and one
//! non-empty extent per part: the builder refuses an empty part
//! ([`MlocError::EmptyUnit`]), and a reader refuses, as a corrupt
//! extent, an index table whose bitmap rows are not the set chunks or
//! a data table whose rows are not set chunks × parts.
//!
//! A chunk's bitmap extent is its run list's LEB128 `(gap, len − 1)`
//! pairs and nothing else ([`mloc_bitmap::runs`]): the set-bit count is
//! the summary's, and the length is the chunk's point count, from the
//! geometry. A reader takes the pairs as they are after one validating
//! walk ([`mloc_bitmap::RunListBuf::push_stored`]).
//!
//! `T` follows from the chunk count alone, the table lengths
//! `Li = 8 n_index + 4` and `Ld = 8 n_data + 4` from the two sizes that
//! end the summary extent. A query therefore gets every fixed block
//! with one seek: the header, then the summary and then the tables it
//! needs, each continuing where the last read ended. A positions-only
//! query reads the index table alone. This is the superblock idiom:
//! fixed metadata at a computed offset, read in one seek, never a probe
//! of the file's tail — and nothing stored that the geometry gives.
//!
//! v3 and v4 had this layout with a dense chunk directory in the header
//! (each chunk's count, bitmap offset and length, and every unit part's
//! offset and length) and 9-byte summary records; v3 stored WAH bitmaps.
//! `mloc upgrade` ([`crate::upgrade`]) rewrites both.
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
    check_header, encode_summaries, le_u32, le_u64, parse_header, summary_size, ChunkSummary,
    SummaryView, UnitLoc, HEADER_LEN, MAGIC, TABLE_SIZES, VERSION,
};
use crate::integrity::{corrupt_extent, table_len, ExtentFooter};
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
/// places their unit parts, and each chunk's point count, the length
/// every stored run list of the chunk must fit.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    pub geometry: Geometry,
    pub level_order: LevelOrder,
    /// Points of the chunk at each curve rank.
    points: Vec<u64>,
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
        }
    }

    /// Points of the chunk at curve rank `rank`.
    pub fn points(&self, rank: usize) -> u64 {
        self.points.get(rank).copied().unwrap_or(0)
    }
}

/// Length of the summary extent: the chunk summaries, then the two
/// table sizes.
pub fn summary_extent_len(num_chunks: usize) -> u64 {
    summary_size(num_chunks) + TABLE_SIZES
}

/// The lengths of a bin file's header and summary extent — the two
/// fixed blocks in front of its tables — for a geometry.
pub(crate) type FrontLens = fn(Geometry) -> (u64, u64);

/// [`FrontLens`] of format v5.
pub(crate) fn front_lens((num_chunks, _): Geometry) -> (u64, u64) {
    (HEADER_LEN, summary_extent_len(num_chunks))
}

/// Where a bin file's two checksum tables are, read off the end of its
/// summary extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tables {
    /// File offset of the index table: where the summary extent ends.
    at: u64,
    n_index: u32,
    n_data: u32,
}

impl Tables {
    /// Read the table sizes off `summary`, the whole summary extent as
    /// read from `header_len`, and hold them to the geometry: besides
    /// the header and the summary, at most one index extent per chunk
    /// (its bitmap) and one data extent per chunk and part. Sizes past
    /// those bounds are damage, never a read size.
    pub fn parse(
        summary: &[u8],
        header_len: u64,
        geometry: Geometry,
        file: &str,
    ) -> Result<Tables> {
        let want = summary_extent_len(geometry.0);
        Self::parse_sized(summary, header_len, want, geometry, file)
    }

    /// [`Self::parse`] for a summary extent of `want` bytes — v5's, or
    /// the older formats' the upgrade reads.
    pub(crate) fn parse_sized(
        summary: &[u8],
        header_len: u64,
        want: u64,
        (num_chunks, num_parts): Geometry,
        file: &str,
    ) -> Result<Tables> {
        let corrupt = |what| corrupt_extent(file, header_len, summary.len() as u64, what);
        let whole = summary.len() as u64 == want;
        let sizes = summary.split_last_chunk::<{ TABLE_SIZES as usize }>();
        let Some((_, &[i0, i1, i2, i3, d0, d1, d2, d3])) = sizes.filter(|_| whole) else {
            return Err(corrupt("summary extent truncated"));
        };
        let n_index = u32::from_le_bytes([i0, i1, i2, i3]);
        let n_data = u32::from_le_bytes([d0, d1, d2, d3]);
        let index_ok = (2..=2 + num_chunks as u64).contains(&u64::from(n_index));
        if !index_ok || u64::from(n_data) > num_chunks as u64 * num_parts as u64 {
            return Err(corrupt("checksum table sizes out of range"));
        }
        Ok(Tables {
            at: header_len + summary.len() as u64,
            n_index,
            n_data,
        })
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

    /// The index table's runs: header and summary from offset 0, the
    /// bitmaps from where they begin.
    pub(crate) fn index_runs(&self) -> [(usize, u64); 2] {
        [(0, 0), (2, self.bitmaps_at())]
    }

    /// Parse the index table from `bytes`, all of [`Self::index_span`].
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
/// derived from its summary's counts once its tables' sizes have been
/// held to them (see the module docs). Lookups are O(1).
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
    /// Derive the rows of a bin file from its verified `summaries`, and
    /// refuse tables whose sizes disagree with them: an index table
    /// whose bitmap rows are not the set chunks, or a data table whose
    /// rows are not set chunks × `num_parts`, names its table as a
    /// corrupt extent of `file`.
    pub fn derive<B: Deref<Target = [u8]>>(
        summaries: &SummaryView<B>,
        tables: &Tables,
        num_parts: usize,
        order: LevelOrder,
        file: &str,
    ) -> Result<Rows> {
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
        let n_set = set.len() as u64;
        let refuse =
            |(at, len): (u64, u64), what: String| Err(corrupt_extent(file, at, len, &what));
        if u64::from(tables.n_index) != 2 + n_set {
            let rows = tables.n_index - 2;
            let what = format!("index table has {rows} bitmap rows for {n_set} set chunks");
            return refuse(tables.index_span(), what);
        }
        if u64::from(tables.n_data) != n_set * num_parts as u64 {
            let rows = tables.n_data;
            let what =
                format!("data table has {rows} rows for {n_set} set chunks of {num_parts} parts");
            return refuse(tables.data_span(), what);
        }
        Ok(Rows {
            slot,
            set,
            num_parts,
            part_major: order == LevelOrder::Vms,
        })
    }

    /// The set chunk index of `rank`, when it has points.
    fn slot(&self, rank: usize) -> Option<usize> {
        let k = *self.slot.get(rank)?;
        (k != UNSET).then_some(k as usize)
    }

    /// The index-table row of chunk `rank`'s bitmap; `None` when the
    /// chunk has no points.
    pub fn bitmap_row(&self, rank: usize) -> Option<usize> {
        Some(2 + self.slot(rank)?)
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
        let k = row.checked_sub(2)?;
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
/// uses. `raw` must hold the file from its start at least to the end of
/// its data table, which the result holds. Queries and checks never
/// take this route: they verify every block before trusting it.
pub fn parse_fixed(
    raw: &[u8],
    geometry: Geometry,
    order: LevelOrder,
    file: &str,
) -> Result<FixedBlocks> {
    check_header(raw, geometry)?;
    let short = || corrupt_extent(file, 0, raw.len() as u64, "file shorter than its tables");
    let summary = span(raw, (HEADER_LEN, summary_extent_len(geometry.0))).ok_or_else(short)?;
    let tables = Tables::parse(summary, HEADER_LEN, geometry, file)?;
    let index = tables.decode_index(span(raw, tables.index_span()).ok_or_else(short)?, file)?;
    let data = span(raw, tables.data_span()).ok_or_else(short)?;
    let data = tables.decode_data(data, &index, file)?;
    let summaries = SummaryView::parse(ByteView::from(summary.to_vec()), geometry.0)?;
    let rows = Rows::derive(&summaries, &tables, geometry.1, order, file)?;
    Ok(FixedBlocks {
        summaries,
        footer: Arc::new(index),
        data: Some(Arc::new(data)),
        tables,
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
    /// behind the bitmaps, both tables computed over the image. A set
    /// chunk's part that compressed to nothing would have no data-table
    /// row to derive its location from: it fails as
    /// [`MlocError::EmptyUnit`], and nothing is built.
    pub fn finish(self) -> Result<BinFile> {
        let num_chunks = self.summaries.len();
        if let Some(at) = self.parts.iter().position(|p| p.is_empty()) {
            return Err(MlocError::EmptyUnit {
                bin: self.bin,
                chunk_rank: self.set[at / self.num_parts],
                part: at % self.num_parts,
            });
        }
        let n_index = 2 + self.set.len() as u32;
        let n_data = self.parts.len() as u32;
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u8(VERSION);
        w.u32(self.bin);
        w.u32(num_chunks as u32);
        w.u8(self.num_parts as u8);
        encode_summaries(&self.summaries, &mut w);
        w.u32(n_index);
        w.u32(n_data);
        let front = w.finish();
        let summary_len = summary_extent_len(num_chunks);
        debug_assert_eq!(front.len() as u64, HEADER_LEN + summary_len);

        let tables = Tables {
            at: front.len() as u64,
            n_index,
            n_data,
        };
        let bitmaps_at = tables.bitmaps_at();
        let order = self.level_ordered();
        let units_len: usize = self.parts.iter().map(|p| p.len()).sum();
        let file_len = bitmaps_at + (self.bitmaps.len() + units_len) as u64 + END_LEN;
        let mut image = Vec::with_capacity(file_len as usize);
        image.extend_from_slice(&front);
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

        let mut index_lens = vec![HEADER_LEN as u32, summary_len as u32];
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
        Ok(BinFile {
            bytes: image,
            data_bytes: tables.data_span().1 + units_len as u64,
        })
    }
}

/// A whole bin file, every checksum recomputed — how `verify`, `fsck`
/// and `repair` read one.
pub(crate) struct Checked {
    /// Where the tables are, when the summary extent said.
    pub tables: Option<Tables>,
    /// The index table, when it decoded.
    pub index: Option<ExtentFooter>,
    /// The data table, when it decoded: where the units are.
    pub data: Option<ExtentFooter>,
    /// The table rows of every bitmap and unit part, when the header
    /// and summary verified, held to a [`Layout`], and the tables'
    /// sizes agree with the summary: what may label the damage.
    pub rows: Option<Rows>,
    /// Extents whose checksum was recomputed.
    pub extents: u64,
    /// Every failure found: unreadable fixed blocks, bad tables, bad
    /// extents, a missing end marker, tables whose sizes disagree with
    /// the summary, and — held to a [`Layout`] — a header of another
    /// geometry and run lists that disagree with their counts.
    pub damage: Vec<MlocError>,
}

/// Check all of `raw`, the whole bin file `file`. Held to `layout` —
/// the variable's, when its meta (or else its dataset's catalog) says —
/// its fixed blocks are located with the layout's geometry, the header
/// must state it, and every bitmap is taken as a run list of its
/// chunk's count within its chunk's points, as a query takes it.
/// Without one, the fixed blocks are located with the counts the header
/// states, and the header is then checked like every other extent.
/// Either way the tables' sizes are held to the summary's set chunks.
pub(crate) fn check(raw: &[u8], file: &str, layout: Option<&Layout>) -> Checked {
    let mut out = check_extents(raw, file, layout.map(|l| l.geometry), front_lens);
    check_rows(raw, file, layout, &mut out);
    out
}

/// The checksums, tables and end marker of `raw` alone, its header and
/// summary extent as long as `front` says: what [`check`] checks first,
/// and all `mloc upgrade` checks of a format-v3 or -v4 file.
pub(crate) fn check_extents(
    raw: &[u8],
    file: &str,
    geometry: Option<Geometry>,
    front: FrontLens,
) -> Checked {
    let mut out = Checked {
        tables: None,
        index: None,
        data: None,
        rows: None,
        extents: 0,
        damage: Vec::new(),
    };
    let whole = |what: &str| corrupt_extent(file, 0, raw.len() as u64, what);
    let tables = geometry
        .map_or_else(|| parse_header(raw), Ok)
        .and_then(|geometry| {
            let (header_len, summary_len) = front(geometry);
            let summary = span(raw, (header_len, summary_len))
                .ok_or_else(|| whole("file shorter than its fixed blocks (torn write?)"))?;
            Tables::parse_sized(summary, header_len, summary_len, geometry, file)
        });
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

/// Once the header and summary extents verified (damaged ones may say
/// anything): hold the header to the layout's geometry, the tables'
/// sizes to the summary's set chunks, and — held to a layout — take
/// every bitmap whose extent verified as a run list of its chunk's
/// count within its chunk.
fn check_rows(raw: &[u8], file: &str, layout: Option<&Layout>, out: &mut Checked) {
    let (Some(index), Some(tables)) = (out.index.as_ref(), out.tables) else {
        return;
    };
    let damaged = |at: u64| {
        let at_extent =
            |e: &MlocError| matches!(e, MlocError::CorruptExtent { offset, .. } if *offset == at);
        out.damage.iter().any(at_extent)
    };
    if index.num_extents() < 2 || damaged(0) || damaged(HEADER_LEN) {
        return;
    }
    let geometry = match layout {
        Some(layout) => {
            if let Err(e) = check_header(raw, layout.geometry) {
                let what = format!("header: {e}");
                out.damage.push(corrupt_extent(file, 0, HEADER_LEN, &what));
                return;
            }
            layout.geometry
        }
        None => match parse_header(raw) {
            Ok(geometry) => geometry,
            Err(_) => return,
        },
    };
    let (off, len, _) = index.extent(1);
    let summary = span(raw, (off, u64::from(len)))
        .and_then(|bytes| SummaryView::parse(bytes, geometry.0).ok());
    let Some(summary) = summary else {
        let what = "summary unreadable";
        out.damage.push(corrupt_extent(file, off, len.into(), what));
        return;
    };
    let order = layout.map_or(LevelOrder::Vms, |l| l.level_order);
    let rows = match Rows::derive(&summary, &tables, geometry.1, order, file) {
        Ok(rows) => rows,
        Err(e) => return out.damage.push(e),
    };
    let Some(layout) = layout else {
        return;
    };
    let mut refused = Vec::new();
    for rank in 0..geometry.0 {
        let Some((at, len)) = rows.bitmap(index, rank) else {
            continue;
        };
        if damaged(at) {
            continue;
        }
        let (count, points) = (summary.count(rank), layout.points(rank));
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
pub(crate) fn verified(raw: &[u8], file: &str, layout: Option<&Layout>) -> Result<()> {
    check(raw, file, layout)
        .damage
        .into_iter()
        .next()
        .map_or(Ok(()), Err)
}

/// `raw[at..at + len]`, when the file holds all of it.
fn span(raw: &[u8], (at, len): (u64, u64)) -> Option<&[u8]> {
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

/// Recompute the index table of `raw`, a whole bin file of `front`'s
/// format, over its extents as they are now: a test edits a header, a
/// summary or a bitmap and keeps every checksum holding.
#[cfg(test)]
pub(crate) fn reseal_index(raw: &mut [u8], geometry: Geometry, front: FrontLens, file: &str) {
    let (header_len, summary_len) = front(geometry);
    let summary = &raw[header_len as usize..(header_len + summary_len) as usize];
    let tables = Tables::parse_sized(summary, header_len, summary_len, geometry, file).unwrap();
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

    /// `chunks` chunks of 16 points, `parts` parts each.
    fn layout((chunks, parts): Geometry, level_order: LevelOrder) -> Layout {
        Layout {
            geometry: (chunks, parts),
            level_order,
            points: vec![16; chunks],
        }
    }

    /// Part `part` of chunk `rank`'s unit in [`built`]: `5 + part`
    /// bytes of `16 · rank + part`.
    fn part_bytes(rank: usize, part: usize) -> Vec<u8> {
        vec![rank as u8 * 16 + part as u8; 5 + part]
    }

    /// A small bin file: 4 chunks × 3 parts, three chunks with points
    /// and units, laid out in `order`.
    fn built_in(order: LevelOrder) -> (Vec<u8>, Geometry) {
        let parts: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|rank| (0..3).map(|part| part_bytes(rank, part)).collect())
            .collect();
        let mut b = BinFileBuilder::new(2, 4, 3, order);
        for (rank, positions) in [(0usize, &[1u64, 5, 9][..]), (1, &[0]), (3, &[2, 3])] {
            let runs = RunList::from_sorted_positions(16, positions);
            let unit: Vec<&[u8]> = parts[rank].iter().map(Vec::as_slice).collect();
            b.set_chunk(rank, runs.as_ref(), &unit);
        }
        (b.finish().unwrap().bytes, (4, 3))
    }

    fn built() -> (Vec<u8>, Geometry) {
        built_in(LevelOrder::Vms)
    }

    fn summary_extent(raw: &[u8], (chunks, _): Geometry) -> (&[u8], u64) {
        let at = HEADER_LEN;
        let end = (at + summary_extent_len(chunks)).min(raw.len() as u64);
        (&raw[(at as usize).min(raw.len())..end as usize], at)
    }

    /// The checked file's tables, summary and rows, all of them clean.
    fn rows_of(raw: &[u8], order: LevelOrder) -> (Tables, ExtentFooter, ExtentFooter, Rows) {
        let geometry = (4, 3);
        let checked = check(raw, "f", Some(&layout(geometry, order)));
        assert!(checked.damage.is_empty(), "{:?}", checked.damage);
        let rows = checked.rows.unwrap();
        let (index, data) = (checked.index.unwrap(), checked.data.unwrap());
        (checked.tables.unwrap(), index, data, rows)
    }

    /// Eager decoders of the preamble and the end marker, written apart
    /// from the ones under test.
    mod oracle {
        use super::super::*;

        pub fn tables(
            summary: &[u8],
            header_len: u64,
            (chunks, parts): Geometry,
            file: &str,
        ) -> Result<(u64, u32, u32)> {
            let bad =
                |what: &str| Err(corrupt_extent(file, header_len, summary.len() as u64, what));
            let want = 8 + 13 * chunks + 8;
            if summary.len() != want {
                return bad("summary extent truncated");
            }
            let word = |at: usize| u32::from_le_bytes(summary[at..at + 4].try_into().unwrap());
            let (n_index, n_data) = (word(want - 8), word(want - 4));
            let index_max = 2 + chunks as u64;
            if n_index < 2
                || u64::from(n_index) > index_max
                || u64::from(n_data) > (chunks * parts) as u64
            {
                return bad("checksum table sizes out of range");
            }
            Ok((header_len + want as u64, n_index, n_data))
        }

        pub fn end_marker(raw: &[u8], file: &str) -> Result<()> {
            let n = raw.len();
            if n >= 12 && raw[n - 4..] == *b"MEND" && raw[n - 12..n - 4] == (n as u64).to_le_bytes()
            {
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
    }

    /// The preamble and end-marker decoders against the oracle's, on
    /// one buffer: the same verdict and message, the same tables.
    fn agree(raw: &[u8], geometry: Geometry) {
        let (summary, at) = summary_extent(raw, geometry);
        let got = Tables::parse(summary, at, geometry, "f").map(|t| {
            let (index_at, index_len) = t.index_span();
            (
                index_at,
                ((index_len - 4) / 8) as u32,
                ((t.data_span().1 - 4) / 8) as u32,
            )
        });
        let want = oracle::tables(summary, at, geometry, "f");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        let (got, want) = (end_marker(raw, "f"), oracle::end_marker(raw, "f"));
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn a_built_file_checks_clean_and_its_sections_add_up() {
        let (raw, geometry) = built();
        for stated in [Some(&layout(geometry, LevelOrder::Vms)), None] {
            let checked = check(&raw, "f", stated);
            assert!(checked.damage.is_empty(), "{:?}", checked.damage);
            // Header, summary, three bitmaps; nine units.
            assert_eq!(checked.extents, 5 + 9);
        }
        let tables = rows_of(&raw, LevelOrder::Vms).0;
        let fixed = parse_fixed(&raw, geometry, LevelOrder::Vms, "f").unwrap();
        let (index, data) = fixed.section_bytes().unwrap();
        assert_eq!(index + data, raw.len() as u64);
        assert_eq!(data, tables.data_span().1 + (5 + 6 + 7) * 3);
        // The header is the prologue alone.
        assert_eq!(HEADER_LEN, 14);
        assert_eq!(tables.index_span().0, HEADER_LEN + summary_extent_len(4));
    }

    /// Every bitmap and unit part is where its derived row says, in
    /// either level order, and the inverse lookups name it back.
    #[test]
    fn derived_rows_locate_every_bitmap_and_part_in_either_level_order() {
        for order in [LevelOrder::Vms, LevelOrder::Vsm] {
            let (raw, _) = built_in(order);
            let (_, index, data, rows) = rows_of(&raw, order);
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
        }
        // Part-major and chunk-major differ only in where the parts are.
        let (vms, vsm) = (built_in(LevelOrder::Vms).0, built_in(LevelOrder::Vsm).0);
        assert_eq!(vms.len(), vsm.len());
        let units_at = rows_of(&vms, LevelOrder::Vms).2.extent(0).0 as usize;
        assert_eq!(vms[..HEADER_LEN as usize], vsm[..HEADER_LEN as usize]);
        assert_ne!(vms[units_at..], vsm[units_at..]);
    }

    /// Every prefix of a built file and every single-bit flip of it:
    /// the decoders agree with the oracle, nothing panics, and the
    /// whole-file check finds damage in each — every byte of a bin file
    /// is under a checksum or is its end marker.
    #[test]
    fn every_truncation_and_bit_flip_is_found_and_never_panics() {
        let (raw, geometry) = built();
        let layout = layout(geometry, LevelOrder::Vms);
        for cut in 0..raw.len() {
            agree(&raw[..cut], geometry);
            for stated in [Some(&layout), None] {
                let checked = check(&raw[..cut], "f", stated);
                assert!(!checked.damage.is_empty(), "cut at {cut} passed");
            }
        }
        for bit in 0..raw.len() * 8 {
            let mut bad = raw.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            agree(&bad, geometry);
            let checked = check(&bad, "f", Some(&layout));
            assert!(!checked.damage.is_empty(), "flip of bit {bit} passed");
            let _ = check(&bad, "f", None);
        }
    }

    /// A run list edited under a resealed checksum table passes every
    /// checksum: held to the layout, the check names it, at its extent;
    /// held to nothing, it cannot.
    #[test]
    fn a_resealed_run_list_that_disagrees_with_its_entry_is_found() {
        let (raw, geometry) = built();
        let (_, index, _, rows) = rows_of(&raw, LevelOrder::Vms);
        // Chunk 0's runs are 1, 5, 9: lengthen the last run by one.
        let (at, len) = rows.bitmap(&index, 0).unwrap();
        assert_eq!(len, 6, "three one-byte pairs");
        let mut bad = raw.clone();
        bad[at as usize + 5] = 1;
        reseal_index(&mut bad, geometry, front_lens, "f");
        assert!(check(&bad, "f", None).damage.is_empty());
        let damage = check(&bad, "f", Some(&layout(geometry, LevelOrder::Vms))).damage;
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

    /// A summary that sets one chunk more or fewer than the tables have
    /// rows for, resealed so every checksum holds, is named at the table
    /// whose size disagrees — held to a layout or not.
    #[test]
    fn tables_whose_rows_disagree_with_the_summary_are_named() {
        let (raw, geometry) = built();
        let (tables, ..) = rows_of(&raw, LevelOrder::Vms);
        let count_at = |rank: usize| (HEADER_LEN + 8 + 13 * rank as u64) as usize;
        // Chunk 2 gains a point; chunk 1 loses its only one.
        for (rank, count) in [(2usize, 1u32), (1, 0)] {
            let mut bad = raw.clone();
            bad[count_at(rank)..count_at(rank) + 4].copy_from_slice(&count.to_le_bytes());
            reseal_index(&mut bad, geometry, front_lens, "f");
            for stated in [Some(&layout(geometry, LevelOrder::Vms)), None] {
                let damage = check(&bad, "f", stated).damage;
                let [MlocError::CorruptExtent { offset, what, .. }] = &damage[..] else {
                    panic!("{damage:?}");
                };
                assert_eq!(*offset, tables.index_span().0, "{what}");
                assert!(what.contains("bitmap rows for"), "{what}");
            }
        }
    }

    /// Table sizes one row off what the summary's set chunks need — a
    /// data row or a bitmap row too many or too few — are refused when
    /// the rows are derived, naming the table whose size is wrong.
    #[test]
    fn rows_refuse_table_sizes_other_than_the_summarys() {
        let (raw, geometry) = built();
        let (summary, at) = summary_extent(&raw, geometry);
        let summaries = SummaryView::parse(summary, geometry.0).unwrap();
        let end = summary.len();
        for (field, delta) in [(end - 4, 1i64), (end - 4, -1), (end - 8, 1), (end - 8, -1)] {
            let mut bad = summary.to_vec();
            let stated = i64::from(le_u32(&bad, field)) + delta;
            bad[field..field + 4].copy_from_slice(&(stated as u32).to_le_bytes());
            let tables = Tables::parse(&bad, at, geometry, "f").unwrap();
            let got = Rows::derive(&summaries, &tables, geometry.1, LevelOrder::Vms, "f");
            let span = match field == end - 4 {
                true => tables.data_span(),
                false => tables.index_span(),
            };
            match got {
                Err(MlocError::CorruptExtent {
                    offset, len, what, ..
                }) => {
                    assert_eq!((offset, len), span, "{what}");
                    assert!(what.contains("rows for 3 set chunks"), "{what}");
                }
                other => panic!("{other:?}"),
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
        /// written over it: no decoder panics, the preamble and end
        /// marker decoders agree with the oracle, and the whole-file
        /// check allocates nothing the buffer does not bound.
        #[test]
        fn arbitrary_bytes_never_panic(
            junk in proptest::collection::vec(any::<u8>(), 0..600),
            at in any::<usize>(),
            over in proptest::collection::vec(any::<u8>(), 1..16),
            chunks in 0usize..6,
            parts in 1usize..4,
        ) {
            agree(&junk, (chunks, parts));
            let _ = check(&junk, "f", Some(&layout((chunks, parts), LevelOrder::Vms)));
            let _ = check(&junk, "f", None);
            let (mut raw, geometry) = built();
            let at = at % raw.len();
            let end = (at + over.len()).min(raw.len());
            raw[at..end].copy_from_slice(&over[..end - at]);
            agree(&raw, geometry);
            let checked = check(&raw, "f", Some(&layout(geometry, LevelOrder::Vms)));
            prop_assert!(checked.extents <= raw.len() as u64);
        }
    }
}
