//! Bin file format v3: one file per bin, with every fixed block at its
//! front.
//!
//! ```text
//! [0, H)       header + directory, version 3            index extent 0
//! [H, T)       chunk summary, then n_index: u32,        index extent 1
//!              n_data: u32 (the two tables' sizes)
//! [T, T+Li)    index-extent table: n_index × {len, crc}, then its CRC
//! [T+Li, B)    data-extent table:  n_data × {len, crc}, then its CRC
//! [B, U)       positional bitmaps, in curve-rank order  index extents 2..
//! [U, E)       compressed units, in the level order     data extents
//! [E, E+12)    end marker: the file's length (u64), then "MEND"
//! ```
//!
//! `H` and `T` follow from the bin's geometry (chunk and part counts)
//! alone, the table lengths `Li = 8 n_index + 4` and `Ld = 8 n_data + 4`
//! from the two sizes that end the summary extent. A query therefore
//! gets every fixed block with one seek: the header (the exact-size
//! first read every index version shares), then the summary and then
//! the tables it needs, each continuing where the last read ended. A
//! positions-only query reads the index table alone. The directory's
//! bitmap and unit offsets are absolute file offsets. This is the
//! superblock idiom: fixed metadata at a computed offset, read in one
//! seek, never a probe of the file's tail.
//!
//! A bin file is written with one `create`, one `append` and one
//! `sync`. The variable's meta is the build's commit record, written
//! only after every bin file is synced. A torn bin file has no valid
//! end marker — its last 12 bytes do not state its length — and a page
//! that never reached the device fails its extent's checksum, so damage
//! is detected either way and never served. Queries never read the end
//! marker; `verify`, `fsck` and `repair`, which read whole files, do.

use crate::array::ChunkGrid;
use crate::config::MlocConfig;
use crate::index::{
    entry_range, header_size, le_u32, le_u64, summary_size, ChunkSummary, HeaderView, UnitLoc,
    ENTRY_FIXED, MAGIC, SUMMARY_MAGIC, TABLE_SIZES, UNIT_LOC, VERSION,
};
use crate::integrity::{corrupt_extent, table_len, ExtentFooter};
use crate::wire::Writer;
use crate::{MlocError, Result};
use mloc_bitmap::{RankSelectDir, WahBitmap};
use std::ops::Deref;

/// Bytes of the end marker: the file's length, then its magic.
pub const END_LEN: u64 = 12;
const END_MAGIC: u32 = 0x444E_454D; // "MEND"

/// A bin's chunk count and unit parts per chunk: what locates every
/// fixed block of a v3 bin file.
pub type Geometry = (usize, usize);

/// The geometry a build configuration gives every bin.
pub fn geometry(config: &MlocConfig) -> Geometry {
    let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());
    (grid.num_chunks(), config.num_parts())
}

/// Length of a v3 summary extent: the chunk summaries, then the two
/// table sizes.
pub fn summary_extent_len(num_chunks: usize) -> u64 {
    summary_size(num_chunks) + TABLE_SIZES
}

/// Where a v3 bin file's two checksum tables are, read off the end of
/// its summary extent.
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
        (num_chunks, num_parts): Geometry,
        file: &str,
    ) -> Result<Tables> {
        let corrupt = |what| corrupt_extent(file, header_len, summary.len() as u64, what);
        let whole = summary.len() as u64 == summary_extent_len(num_chunks);
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
    fn bitmaps_at(&self) -> u64 {
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

/// How a v3 bin file's bytes split between its index section (header,
/// summary, index table, bitmaps, end marker) and its data section
/// (data table, units): `(index, data)`, from its header and table
/// sizes alone.
pub fn section_bytes<B: Deref<Target = [u8]>>(
    index: &HeaderView<B>,
    tables: &Tables,
) -> (u64, u64) {
    let ranks = 0..index.num_chunks();
    let bitmaps: u64 = ranks.clone().map(|r| u64::from(index.bitmap_len(r))).sum();
    let units: u64 = ranks
        .flat_map(|r| index.units(r))
        .map(|u| u64::from(u.clen))
        .sum();
    (
        tables.at + table_len(tables.n_index) + bitmaps + END_LEN,
        table_len(tables.n_data) + units,
    )
}

/// Incremental builder of one bin file — the only writer of the
/// format. The header + directory is serialized in place as chunks
/// arrive: every entry sits at the fixed offset [`HeaderView`] reads it
/// from, and starts zeroed (no points, no bitmap, empty units). Its
/// offsets become absolute in [`Self::finish`], once the sizes of
/// everything in front of the bitmaps and the units are known.
#[derive(Debug)]
pub struct BinFileBuilder {
    num_parts: usize,
    header: Vec<u8>,
    summaries: Vec<ChunkSummary>,
    bitmaps: Vec<u8>,
    /// Encoded bitmap lengths in file (append) order — the bitmap
    /// extents of the index table.
    bitmap_lens: Vec<u32>,
    /// Chunk ranks set so far, whose offsets are still relative.
    set: Vec<usize>,
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

impl BinFileBuilder {
    /// Start building bin `bin` over `num_chunks` chunks.
    pub fn new(bin: u32, num_chunks: usize, num_parts: usize) -> Self {
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u8(VERSION);
        w.u32(bin);
        w.u32(num_chunks as u32);
        w.u8(num_parts as u8);
        let mut header = w.finish();
        header.resize(header_size(num_chunks, num_parts) as usize, 0);
        BinFileBuilder {
            num_parts,
            header,
            summaries: vec![ChunkSummary::EMPTY; num_chunks],
            bitmaps: Vec::new(),
            bitmap_lens: Vec::new(),
            set: Vec::new(),
        }
    }

    /// Record a chunk's positional bitmap and unit locations, the
    /// units' offsets relative to the bin's unit section (the bytes
    /// later handed to [`Self::finish`]). The locs are copied into the
    /// entry's bytes, so callers keep ownership. The chunk's summary
    /// (min/max set position, all-of-chunk flag) and its rank/select
    /// directory are derived here in the same pass.
    ///
    /// # Panics
    /// Panics when called twice for the same rank or with a unit count
    /// mismatch.
    pub fn set_chunk(&mut self, rank: usize, bitmap: &WahBitmap, units: &[UnitLoc]) {
        assert_eq!(units.len(), self.num_parts, "unit count mismatch");
        let entry = &mut self.header[entry_range(rank, self.num_parts)];
        // A set entry always has a bitmap: its stored form is never empty.
        assert_eq!(le_u32(entry, 12), 0, "chunk rank {rank} set twice");
        let encoded = bitmap.to_bytes();
        let dir_bytes = RankSelectDir::build(bitmap.as_ref()).to_bytes();
        let count = bitmap.count_ones();
        let bitmap_len = (encoded.len() + dir_bytes.len()) as u32;
        let mut put = |at: usize, field: &[u8]| entry[at..at + field.len()].copy_from_slice(field);
        put(0, &(count as u32).to_le_bytes());
        put(4, &(self.bitmaps.len() as u64).to_le_bytes());
        put(12, &bitmap_len.to_le_bytes());
        for (part, u) in units.iter().enumerate() {
            let at = (ENTRY_FIXED + part as u64 * UNIT_LOC) as usize;
            put(at, &u.offset.to_le_bytes());
            put(at + 8, &u.clen.to_le_bytes());
        }
        self.set.push(rank);
        self.bitmap_lens.push(bitmap_len);
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

    /// Finish the file around `units`, the bin's compressed units laid
    /// out as the recorded locations say, whose extents have the
    /// lengths `unit_lens` in file order.
    pub fn finish(mut self, units: &[u8], unit_lens: &[u32]) -> BinFile {
        let num_chunks = self.summaries.len();
        let n_index = 2 + self.bitmap_lens.len() as u32;
        let n_data = unit_lens.iter().filter(|&&len| len > 0).count() as u32;
        let mut w = Writer::new();
        w.u32(SUMMARY_MAGIC);
        w.u32(num_chunks as u32);
        for s in &self.summaries {
            w.u32(s.min_pos);
            w.u32(s.max_pos);
            w.u8(u8::from(s.all_of_chunk));
        }
        w.u32(n_index);
        w.u32(n_data);
        let summary = w.finish();
        debug_assert_eq!(summary.len() as u64, summary_extent_len(num_chunks));

        let header_len = self.header.len() as u64;
        let tables = Tables {
            at: header_len + summary.len() as u64,
            n_index,
            n_data,
        };
        let bitmaps_at = tables.bitmaps_at();
        let units_at = bitmaps_at + self.bitmaps.len() as u64;
        for &rank in &self.set {
            let entry = &mut self.header[entry_range(rank, self.num_parts)];
            let fields = (0..self.num_parts).map(|p| (ENTRY_FIXED + p as u64 * UNIT_LOC) as usize);
            for (at, base) in
                std::iter::once((4, bitmaps_at)).chain(fields.map(|at| (at, units_at)))
            {
                let absolute = le_u64(entry, at) + base;
                entry[at..at + 8].copy_from_slice(&absolute.to_le_bytes());
            }
        }

        let file_len = units_at + units.len() as u64 + END_LEN;
        let mut image = Vec::with_capacity(file_len as usize);
        image.extend_from_slice(&self.header);
        image.extend_from_slice(&summary);
        image.resize(bitmaps_at as usize, 0); // the tables, below
        image.extend_from_slice(&self.bitmaps);
        image.extend_from_slice(units);
        image.extend_from_slice(&file_len.to_le_bytes());
        image.extend_from_slice(&END_MAGIC.to_le_bytes());

        let mut index_lens = vec![header_len as u32, summary.len() as u32];
        index_lens.extend_from_slice(&self.bitmap_lens);
        let (index_at, data_at) = (tables.index_span().0, tables.data_span().0);
        let index =
            ExtentFooter::compute_table(&image, index_at, &tables.index_runs(), &index_lens);
        let data = ExtentFooter::compute_table(&image, data_at, &[(0, units_at)], unit_lens);
        for (table, span) in [(index, tables.index_span()), (data, tables.data_span())] {
            debug_assert_eq!(table.span(), span);
            let (at, len) = span;
            image[at as usize..(at + len) as usize].copy_from_slice(&table.encode_table());
        }
        BinFile {
            bytes: image,
            data_bytes: tables.data_span().1 + units.len() as u64,
        }
    }
}

/// A whole v3 bin file, every checksum recomputed — how `verify`,
/// `fsck` and `repair` read one.
pub(crate) struct Checked {
    /// Where the tables are, when the summary extent said.
    pub tables: Option<Tables>,
    /// The index table, when it decoded: what the header is checked
    /// against, and so what may label the damage.
    pub index: Option<ExtentFooter>,
    /// Extents whose checksum was recomputed.
    pub extents: u64,
    /// Every failure found: unreadable fixed blocks, bad tables, bad
    /// extents, a missing end marker.
    pub damage: Vec<MlocError>,
}

/// Check all of `raw`, the whole bin file `file`. Its fixed blocks are
/// located with `geometry` — the variable's, when its meta says — or
/// else with the counts the header states; the header itself is then
/// checked like every other extent.
pub(crate) fn check(raw: &[u8], file: &str, geometry: Option<Geometry>) -> Checked {
    let mut out = Checked {
        tables: None,
        index: None,
        extents: 0,
        damage: Vec::new(),
    };
    let whole = |what: &str| corrupt_extent(file, 0, raw.len() as u64, what);
    let stated = || HeaderView::parse(raw).map(|h| (h.num_chunks(), h.num_parts()));
    let tables = geometry.map_or_else(stated, Ok).and_then(|geometry| {
        let header_len = header_size(geometry.0, geometry.1);
        let summary_len = summary_extent_len(geometry.0);
        let summary = span(raw, (header_len, summary_len))
            .ok_or_else(|| whole("file shorter than its fixed blocks (torn write?)"))?;
        Tables::parse(summary, header_len, geometry, file)
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
                Ok(data) => verify(&data, &mut out),
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

/// Check a whole bin file; the first damage found, if any.
pub(crate) fn verified(raw: &[u8], file: &str, geometry: Option<Geometry>) -> Result<()> {
    check(raw, file, geometry)
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

/// Recompute the index table of `raw`, a whole bin file, over its
/// extents as they are now: a test edits a header or a bitmap and keeps
/// every checksum holding.
#[cfg(test)]
pub(crate) fn reseal_index(raw: &mut [u8], geometry: Geometry, file: &str) {
    let header_len = header_size(geometry.0, geometry.1);
    let summary = &raw[header_len as usize..(header_len + summary_extent_len(geometry.0)) as usize];
    let tables = Tables::parse(summary, header_len, geometry, file).unwrap();
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
    use proptest::prelude::*;

    /// A small bin file: 4 chunks × 3 parts, three chunks with points
    /// and units.
    fn built() -> (Vec<u8>, Geometry) {
        let mut b = BinFileBuilder::new(2, 4, 3);
        let mut units = Vec::new();
        let mut lens = Vec::new();
        for (rank, positions) in [(0usize, &[1u64, 5, 9][..]), (1, &[0]), (3, &[2, 3])] {
            let locs: Vec<UnitLoc> = (0..3u8)
                .map(|part| {
                    let bytes = vec![rank as u8 * 16 + part; 5 + usize::from(part)];
                    let loc = UnitLoc {
                        offset: units.len() as u64,
                        clen: bytes.len() as u32,
                    };
                    units.extend_from_slice(&bytes);
                    lens.push(loc.clen);
                    loc
                })
                .collect();
            b.set_chunk(
                rank,
                &WahBitmap::from_sorted_positions(16, positions),
                &locs,
            );
        }
        (b.finish(&units, &lens).bytes, (4, 3))
    }

    fn summary_extent(raw: &[u8], (chunks, parts): Geometry) -> (&[u8], u64) {
        let at = header_size(chunks, parts);
        let end = (at + summary_extent_len(chunks)).min(raw.len() as u64);
        (&raw[(at as usize).min(raw.len())..end as usize], at)
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
            let want = 8 + 9 * chunks + 8;
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
        for stated in [Some(geometry), None] {
            let checked = check(&raw, "f", stated);
            assert!(checked.damage.is_empty(), "{:?}", checked.damage);
            // Header, summary, three bitmaps; nine units.
            assert_eq!(checked.extents, 5 + 9);
        }
        let (summary, at) = summary_extent(&raw, geometry);
        let tables = Tables::parse(summary, at, geometry, "f").unwrap();
        let header = HeaderView::parse(&raw[..]).unwrap();
        let (index, data) = section_bytes(&header, &tables);
        assert_eq!(index + data, raw.len() as u64);
        assert_eq!(data, tables.data_span().1 + (5 + 6 + 7) * 3);
    }

    /// Every prefix of a built file and every single-bit flip of it:
    /// the decoders agree with the oracle, nothing panics, and the
    /// whole-file check finds damage in each — every byte of a bin file
    /// is under a checksum or is its end marker.
    #[test]
    fn every_truncation_and_bit_flip_is_found_and_never_panics() {
        let (raw, geometry) = built();
        for cut in 0..raw.len() {
            agree(&raw[..cut], geometry);
            for stated in [Some(geometry), None] {
                let checked = check(&raw[..cut], "f", stated);
                assert!(!checked.damage.is_empty(), "cut at {cut} passed");
            }
        }
        for bit in 0..raw.len() * 8 {
            let mut bad = raw.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            agree(&bad, geometry);
            let checked = check(&bad, "f", Some(geometry));
            assert!(!checked.damage.is_empty(), "flip of bit {bit} passed");
            let _ = check(&bad, "f", None);
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
            let _ = check(&junk, "f", Some((chunks, parts)));
            let _ = check(&junk, "f", None);
            let (mut raw, geometry) = built();
            let at = at % raw.len();
            let end = (at + over.len()).min(raw.len());
            raw[at..end].copy_from_slice(&over[..end - at]);
            agree(&raw, geometry);
            let checked = check(&raw, "f", Some(geometry));
            prop_assert!(checked.extents <= raw.len() as u64);
        }
    }
}
