//! The index section of a bin: its header, the chunk summaries, and
//! the positional bitmaps.
//!
//! A bin's index holds, per chunk (in curve-rank order):
//!
//! * the number of the bin's points inside that chunk, with the
//!   chunk-local range they span — its summary record, and
//! * the chunk-local *positions* of those points as a run list — the
//!   "light-weight index" that lets region queries answer aligned bins
//!   without touching data ([`mloc_bitmap::runs`]).
//!
//! The summary records are the index's coarse level, and they live in
//! the variable's meta, every bin's section back to back
//! ([`Summaries`]), under the meta's checksum: a store holds them from
//! the moment it is opened, so the planner culls with them before any
//! bin file is opened ([`crate::query::plan`]). The run lists stay in
//! the bin files. Where each bitmap and each compressed unit part is
//! stored is not written down: it follows from the counts and the
//! file's checksum tables ([`crate::binfile::Rows`]). So the header is
//! a 14-byte prologue, followed directly by the tables.
//!
//! # Format versions
//!
//! * **v1** — a header with a dense chunk directory (per chunk: count,
//!   bitmap offset and length, and every unit part's offset and length),
//!   then WAH bitmaps, in an index file of its own next to the bin's
//!   data file.
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
//!   pairs alone: no WAH words, no rank/select directory.
//! * **v5** — v4 without the directory: the header is its prologue, each
//!   chunk's count joins its summary record, and every bitmap and unit
//!   location is derived from the counts and the checksum tables.
//! * **v6** — v5 with the summary sections moved into the meta: a bin
//!   file is its header, its two tables (sized by the counts) and its
//!   extents.
//!
//! * **v7** — v6 with each unit part its codec's payload alone
//!   ([`mloc_compress::Codec`]): no per-part magic, lengths or checksum,
//!   and a part as long as its raw bytes is those bytes.
//!
//! Only v7 is read here. Nothing writes v1–v6 any more, and nothing but
//! `mloc upgrade` ([`crate::upgrade`]) reads v6: it copies a v6 store
//! out as v7, re-encoding every lossless part. `tests/golden/v6_dataset`
//! is its input. v1–v5 are read by no reader of this crate: the
//! `mloc upgrade` of the CLI at commit a0307bd copies them out as v6.

//! # One writer, one reader
//!
//! [`crate::binfile::BinFileBuilder`] is the only writer of the format
//! and [`parse_header`] / [`SummaryView`] are the only readers of its
//! fixed blocks. Every summary record sits at an offset fixed by the
//! chunk count, so nothing materializes the section: `parse` checks the
//! prologue, the declared size and the flags once, each accessor then
//! decodes one field of one chunk in place.

use crate::cache::ByteView;
use crate::wire::Reader;
use crate::{MlocError, Result};
use std::ops::Deref;
use std::sync::Arc;

pub(crate) const MAGIC: u32 = 0x5844_494D; // "MIDX"
/// The index format version (v7 = v6's bin files whose unit parts hold
/// only their payloads), the only one this crate's readers accept.
pub const VERSION: u8 = 7;
pub(crate) const SUMMARY_MAGIC: u32 = 0x4D55_534D; // "MSUM"

/// Bytes of the header, index extent 0: magic(4) version(1) bin(4)
/// num_chunks(4) num_parts(1).
pub const HEADER_LEN: u64 = 14;

/// Location of one compressed unit part in a bin file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitLoc {
    /// Byte offset within the bin file.
    pub offset: u64,
    /// Compressed length in bytes.
    pub clen: u32,
}

/// Per-chunk record of the summary section.
///
/// It classifies a chunk without touching its bitmap: `count == 0` →
/// empty, `all_of_chunk` → every position belongs to this bin (the
/// bitmap is one run), otherwise partial with set positions confined to
/// `[min_pos, max_pos]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Number of the bin's points inside the chunk.
    pub count: u32,
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
        count: 0,
        min_pos: u32::MAX,
        max_pos: 0,
        all_of_chunk: false,
    };
}

/// Check a header — magic, version, part count — and return the chunk
/// and part counts it declares. `data` may extend past the header.
pub fn parse_header(data: &[u8]) -> Result<(usize, usize)> {
    parse_header_of(data, VERSION)
}

/// [`parse_header`] of a header of format `version`: the current one,
/// or v6 for `mloc upgrade`, whose bin files are laid out alike.
pub(crate) fn parse_header_of(data: &[u8], version: u8) -> Result<(usize, usize)> {
    let mut r = Reader::new(data);
    if r.u32()? != MAGIC {
        return Err(MlocError::Corrupt("bad index magic"));
    }
    if r.u8()? != version {
        return Err(MlocError::Corrupt("unsupported index version"));
    }
    let _bin = r.u32()?; // the file name already says which bin
    let num_chunks = r.u32()? as usize;
    let num_parts = r.u8()? as usize;
    if num_parts == 0 || num_parts > 16 {
        return Err(MlocError::Corrupt("bad part count"));
    }
    Ok((num_chunks, num_parts))
}

/// [`parse_header`], requiring the geometry the store was opened with:
/// a header that parses but describes another chunk grid or part count
/// would otherwise send the engine's rank and part indices out of range.
pub fn check_header(data: &[u8], geometry: (usize, usize)) -> Result<()> {
    check_header_of(data, geometry, VERSION)
}

/// [`check_header`] of a header of format `version`.
pub(crate) fn check_header_of(data: &[u8], geometry: (usize, usize), version: u8) -> Result<()> {
    if parse_header_of(data, version)? != geometry {
        return Err(MlocError::Corrupt("index geometry mismatch"));
    }
    Ok(())
}

/// magic(4) num_chunks(4)
const SUMMARY_PROLOGUE: u64 = 8;
/// One summary record: count(4) min_pos(4) max_pos(4) flags(1)
const SUMMARY_RECORD: u64 = 13;

pub(crate) fn le_u32(b: &[u8], at: usize) -> u32 {
    let b = &b[at..at + 4];
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

pub(crate) fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from(le_u32(b, at)) | u64::from(le_u32(b, at + 4)) << 32
}

/// Exact size in bytes of one bin's chunk-summary section.
pub fn summary_size(num_chunks: usize) -> u64 {
    // Saturating: a damaged meta may state any chunk count, and the
    // size it then gives must fail a length check, not overflow.
    SUMMARY_PROLOGUE.saturating_add((num_chunks as u64).saturating_mul(SUMMARY_RECORD))
}

/// Append the summary section of `summaries` to `out`.
pub(crate) fn encode_summaries(summaries: &[ChunkSummary], out: &mut crate::wire::Writer) {
    out.u32(SUMMARY_MAGIC);
    out.u32(summaries.len() as u32);
    for s in summaries {
        out.u32(s.count);
        out.u32(s.min_pos);
        out.u32(s.max_pos);
        out.u8(u8::from(s.all_of_chunk));
    }
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
            .any(|rec| rec[12] > 1)
        {
            return Err(MlocError::Corrupt("bad summary flags"));
        }
        Ok(SummaryView { data, num_chunks })
    }

    /// Number of chunks in the section.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// The record of chunk `rank`.
    ///
    /// # Panics
    /// Panics when `rank` is not below the section's chunk count.
    fn record(&self, rank: usize) -> &[u8] {
        assert!(rank < self.num_chunks, "chunk rank out of range");
        let at = (SUMMARY_PROLOGUE + rank as u64 * SUMMARY_RECORD) as usize;
        &self.data[at..at + SUMMARY_RECORD as usize]
    }

    /// Number of chunks with points in the bin.
    pub fn set_chunks(&self) -> usize {
        (0..self.num_chunks)
            .filter(|&rank| self.count(rank) > 0)
            .count()
    }

    /// Number of the bin's points inside chunk `rank`.
    ///
    /// # Panics
    /// Panics when `rank` is not below the section's chunk count.
    pub fn count(&self, rank: usize) -> u32 {
        le_u32(self.record(rank), 0)
    }

    /// The summary of chunk `rank`.
    ///
    /// # Panics
    /// Panics when `rank` is not below the section's chunk count.
    pub fn get(&self, rank: usize) -> ChunkSummary {
        decode_record(self.record(rank))
    }
}

/// Every bin's chunk-summary section of one variable, back to back, as
/// its meta stores them: bin `b`'s section is bytes
/// `b · summary_size(num_chunks)` onward. Checked whole when parsed, so
/// a view of one bin is an `Arc` bump and a lookup decodes one record.
#[derive(Debug, Clone, PartialEq)]
pub struct Summaries {
    data: Arc<Vec<u8>>,
    num_chunks: usize,
}

impl Summaries {
    /// No bin at all: what a meta of a format before v6 held.
    pub(crate) fn none() -> Summaries {
        Summaries {
            data: Arc::new(Vec::new()),
            num_chunks: 0,
        }
    }

    /// Check `data` as `num_bins` sections of `num_chunks` chunks each —
    /// its length exactly, then every section as [`SummaryView::parse`]
    /// checks one.
    pub fn parse(data: Vec<u8>, num_bins: usize, num_chunks: usize) -> Result<Summaries> {
        let size = summary_size(num_chunks);
        if size.checked_mul(num_bins as u64) != Some(data.len() as u64) {
            return Err(MlocError::Corrupt("summary sections truncated"));
        }
        for section in data.chunks_exact(size as usize) {
            SummaryView::parse(section, num_chunks)?;
        }
        Ok(Summaries {
            data: Arc::new(data),
            num_chunks,
        })
    }

    /// The sections' stored bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        let size = summary_size(self.num_chunks) as usize;
        self.data.len().checked_div(size).unwrap_or(0)
    }

    /// Bin `bin`'s section, viewed in place.
    ///
    /// # Panics
    /// Panics when `bin` is not below the bin count.
    pub fn bin(&self, bin: usize) -> SummaryView<ByteView> {
        let size = summary_size(self.num_chunks) as usize;
        SummaryView {
            data: ByteView::slice(Arc::clone(&self.data), bin * size, size),
            num_chunks: self.num_chunks,
        }
    }

    /// The summary of chunk `rank` in bin `bin`.
    ///
    /// # Panics
    /// Panics when `bin` or `rank` is out of range.
    pub fn get(&self, bin: usize, rank: usize) -> ChunkSummary {
        assert!(rank < self.num_chunks, "chunk rank out of range");
        let size = summary_size(self.num_chunks) as usize;
        let at = bin * size + (SUMMARY_PROLOGUE + rank as u64 * SUMMARY_RECORD) as usize;
        decode_record(&self.data[at..at + SUMMARY_RECORD as usize])
    }
}

/// One summary record, as stored.
fn decode_record(rec: &[u8]) -> ChunkSummary {
    ChunkSummary {
        count: le_u32(rec, 0),
        min_pos: le_u32(rec, 4),
        max_pos: le_u32(rec, 8),
        all_of_chunk: rec[12] == 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfile::{BinFile, BinFileBuilder, END_LEN};
    use crate::config::LevelOrder;
    use crate::integrity::table_len;
    use mloc_bitmap::RunList;

    /// The run list of `positions` in `len` points.
    fn runs(len: u64, positions: &[u64]) -> RunList {
        RunList::from_sorted_positions(len, positions)
    }

    /// A full chunk of `len` points.
    fn full(len: u64) -> RunList {
        runs(len, &(0..len).collect::<Vec<_>>())
    }

    fn builder(bin: u32, chunks: usize, parts: usize) -> BinFileBuilder<'static> {
        BinFileBuilder::new(bin, chunks, parts, LevelOrder::Vms)
    }

    fn finish(b: BinFileBuilder<'_>) -> BinFile {
        b.finish().unwrap()
    }

    /// The summary section of a built bin of `chunks` chunks.
    fn summary_of(file: &BinFile, chunks: usize) -> SummaryView<&[u8]> {
        assert_eq!(file.summary.len() as u64, summary_size(chunks));
        SummaryView::parse(&file.summary[..], chunks).unwrap()
    }

    #[test]
    fn header_roundtrip() {
        let mut b = builder(5, 4, 3);
        b.set_chunk(1, runs(100, &[1, 5, 99]).as_ref(), &[b"a", b"bc", b"d"]);
        b.set_chunk(3, runs(50, &[0]).as_ref(), &[b"e", b"f", b"g"]);
        let file = finish(b);
        let bytes = &file.bytes;
        assert_eq!(parse_header(&bytes[..HEADER_LEN as usize]).unwrap(), (4, 3));
        assert_eq!(le_u32(bytes, 5), 5, "bin id");
        let summaries = summary_of(&file, 4);
        let counts: Vec<u32> = (0..4).map(|r| summaries.count(r)).collect();
        assert_eq!(counts, [0, 3, 0, 1]);
        assert_eq!(summaries.get(1).count, 3);
        assert!(parse_header(&bytes[..HEADER_LEN as usize - 1]).is_err());
    }

    #[test]
    fn header_size_is_exact() {
        let file = finish(builder(0, 7, 7));
        let bytes = &file.bytes;
        // An all-empty bin file is exactly its fixed blocks — header,
        // an index table of the header alone, an empty data table — and
        // the end marker: no bitmaps, no units. Its summary section,
        // all sentinels, goes to the meta.
        let fixed = HEADER_LEN + table_len(1) + table_len(0);
        assert_eq!(bytes.len() as u64, fixed + END_LEN);
        assert_eq!(bytes[4], VERSION);
        let summaries = summary_of(&file, 7);
        assert!((0..7).all(|rank| summaries.get(rank) == ChunkSummary::EMPTY));
    }

    #[test]
    fn summary_tracks_chunk_shape() {
        let mut b = builder(0, 3, 1);
        // Partial chunk: bits 2..=7 of 20.
        b.set_chunk(0, runs(20, &[2, 3, 7]).as_ref(), &[b"x"]);
        // Full chunk: all 20 bits.
        b.set_chunk(1, full(20).as_ref(), &[b"y"]);
        let file = finish(b);
        let summaries = summary_of(&file, 3);
        assert_eq!(
            summaries.get(0),
            ChunkSummary {
                count: 3,
                min_pos: 2,
                max_pos: 7,
                all_of_chunk: false
            }
        );
        assert_eq!(
            summaries.get(1),
            ChunkSummary {
                count: 20,
                min_pos: 0,
                max_pos: 19,
                all_of_chunk: true
            }
        );
        assert_eq!(summaries.get(2), ChunkSummary::EMPTY);
    }

    #[test]
    fn rejects_corrupt_headers() {
        let bytes = finish(builder(0, 2, 1)).bytes;
        assert!(parse_header(&bytes[..5]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(parse_header(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = 5; // the format before this one
        assert!(parse_header(&bad).is_err());
        let mut bad = bytes;
        bad[13] = 0; // no parts
        assert!(parse_header(&bad).is_err());
    }

    /// The eager decoders, as they were before the views existed, kept
    /// as the differential oracle: same checks, same order, same
    /// messages — for the prologue and 13-byte summary records.
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
                let count = r.u32()?;
                let min_pos = r.u32()?;
                let max_pos = r.u32()?;
                let flags = r.u8()?;
                if flags > 1 {
                    return Err(MlocError::Corrupt("bad summary flags"));
                }
                out.push(ChunkSummary {
                    count,
                    min_pos,
                    max_pos,
                    all_of_chunk: flags == 1,
                });
            }
            Ok(out)
        }

        pub fn decode_header(data: &[u8]) -> Result<(usize, usize)> {
            let mut r = Reader::new(data);
            if r.u32()? != MAGIC {
                return Err(MlocError::Corrupt("bad index magic"));
            }
            if r.u8()? != 7 {
                return Err(MlocError::Corrupt("unsupported index version"));
            }
            let _bin = r.u32()?;
            let num_chunks = r.u32()? as usize;
            let num_parts = r.u8()? as usize;
            if num_parts == 0 || num_parts > 16 {
                return Err(MlocError::Corrupt("bad part count"));
            }
            Ok((num_chunks, num_parts))
        }
    }

    fn message<T>(r: &Result<T>) -> Option<String> {
        r.as_ref().err().map(|e| e.to_string())
    }

    /// The header parser against the oracle on the same bytes.
    fn agree_header(bytes: &[u8]) {
        let (got, want) = (parse_header(bytes), oracle::decode_header(bytes));
        assert_eq!(message(&got), message(&want));
        assert_eq!(got.ok(), want.ok());
    }

    /// The summary view against the oracle: the same verdict and
    /// message; when both accept, every in-range record agrees.
    fn check_summary(bytes: &[u8], num_chunks: usize) {
        let want = oracle::decode_summary(bytes, num_chunks);
        let got = SummaryView::parse(bytes, num_chunks);
        assert_eq!(message(&got), message(&want));
        let (Ok(view), Ok(want)) = (got, want) else {
            return;
        };
        for (rank, s) in want.iter().enumerate() {
            assert_eq!(view.get(rank), *s);
            assert_eq!(view.count(rank), s.count);
        }
    }

    /// Built bins covering the shapes the engine meets: 1 and 7 parts;
    /// empty, partial and all-of-chunk chunks; an all-empty bin.
    fn built_payloads() -> Vec<(BinFile, usize)> {
        let mut out = Vec::new();
        let part: &[u8] = &[7; 9];
        for num_parts in [1usize, 7] {
            let parts = vec![part; num_parts];
            let mut b = builder(9, 6, num_parts);
            b.set_chunk(0, runs(300, &[0, 1, 2, 64, 299]).as_ref(), &parts);
            b.set_chunk(2, full(300).as_ref(), &parts);
            let sparse: Vec<u64> = (0..40_000).step_by(11).collect();
            b.set_chunk(3, runs(40_000, &sparse).as_ref(), &parts);
            b.set_chunk(5, full(17).as_ref(), &parts);
            out.push((finish(b), 6));
            out.push((finish(builder(0, 4, num_parts)), 4));
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
        for (file, num_chunks) in built_payloads() {
            agree_header(&file.bytes[..HEADER_LEN as usize]);
            agree_header(&file.bytes);
            check_summary(&file.summary, num_chunks);
            // A section with bytes after it, as the meta holds it.
            check_summary(&[&file.summary[..], &file.bytes].concat(), num_chunks);
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
        for (payload, num_chunks) in built_payloads() {
            let header = &payload.bytes[..HEADER_LEN as usize];
            let summary = &payload.summary[..];
            for cut in 0..=header.len() {
                agree_header(&header[..cut]);
            }
            for cut in 0..=summary.len() {
                check_summary(&summary[..cut], num_chunks);
            }
            // Every single-bit flip (the prologue fields — magic,
            // version, counts — and every record byte).
            for bit in 0..header.len() * 8 {
                let mut bad = header.to_vec();
                bad[bit / 8] ^= 1 << (bit % 8);
                agree_header(&bad);
            }
            for bit in 0..summary.len() * 8 {
                let mut bad = summary.to_vec();
                bad[bit / 8] ^= 1 << (bit % 8);
                check_summary(&bad, num_chunks);
                // A count the header does not vouch for.
                check_summary(&bad, num_chunks + 1);
            }
            for _ in 0..200 {
                agree_header(&damaged(header, &mut rng));
                check_summary(&damaged(summary, &mut rng), num_chunks);
            }
        }
        // Arbitrary bytes, with and without a plausible prologue.
        for round in 0..2000 {
            let len = next(&mut rng) as usize % 400;
            let mut bytes: Vec<u8> = (0..len).map(|_| next(&mut rng) as u8).collect();
            if round % 2 == 0 && len >= 14 {
                bytes[..4].copy_from_slice(&MAGIC.to_le_bytes());
                bytes[4] = VERSION;
                bytes[13] = (next(&mut rng) % 18) as u8;
            }
            agree_header(&bytes);
            if round % 2 == 0 && len >= 8 {
                bytes[..4].copy_from_slice(&SUMMARY_MAGIC.to_le_bytes());
                bytes[4..8].copy_from_slice(&((next(&mut rng) % 40) as u32).to_le_bytes());
            }
            for num_chunks in [0, 1, 7, 39] {
                check_summary(&bytes, num_chunks);
            }
        }
        // A chunk count near u32::MAX must fail the size check, not
        // drive an allocation or wrap an offset.
        let built = finish(builder(0, 2, 7));
        let mut huge = built.summary.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            message(&SummaryView::parse(&huge[..], u32::MAX as usize)),
            Some(MlocError::Corrupt("summary truncated").to_string())
        );
    }

    #[test]
    fn header_geometry_must_be_the_stores() {
        let bytes = finish(builder(3, 16, 7)).bytes;
        assert!(check_header(&bytes, (16, 7)).is_ok());
        for geometry in [(16, 1), (15, 7), (64, 7), (0, 0)] {
            assert_eq!(
                message(&check_header(&bytes, geometry)),
                Some(MlocError::Corrupt("index geometry mismatch").to_string())
            );
        }
    }

    #[test]
    #[should_panic]
    fn setting_chunk_twice_panics() {
        let mut b = builder(0, 2, 1);
        let bm = runs(10, &[0]);
        b.set_chunk(0, bm.as_ref(), &[b"x"]);
        b.set_chunk(0, bm.as_ref(), &[b"x"]);
    }

    /// The meta's sections back to back: every bin's view and record
    /// lookup is its own section's, and a length other than the bins'
    /// sections, or a damaged section, is refused whole.
    #[test]
    fn summaries_view_each_bin_in_place_and_refuse_a_bad_section() {
        let files: Vec<BinFile> = built_payloads()
            .into_iter()
            .filter(|(_, chunks)| *chunks == 6)
            .map(|(f, _)| f)
            .collect();
        let data: Vec<u8> = files.iter().flat_map(|f| f.summary.clone()).collect();
        let all = Summaries::parse(data.clone(), files.len(), 6).unwrap();
        assert_eq!(all.num_bins(), files.len());
        assert_eq!(all.as_bytes(), &data[..]);
        for (bin, file) in files.iter().enumerate() {
            let own = summary_of(file, 6);
            for rank in 0..6 {
                assert_eq!(all.bin(bin).get(rank), own.get(rank));
                assert_eq!(all.get(bin, rank), own.get(rank));
            }
        }
        let short = Summaries::parse(data[..data.len() - 1].to_vec(), files.len(), 6);
        assert!(short.is_err());
        let mut bad = data;
        bad[8 + 12] = 2; // the first record's flags
        assert!(Summaries::parse(bad, files.len(), 6).is_err());
    }

    #[test]
    #[should_panic(expected = "chunk rank out of range")]
    fn summary_rank_past_the_section_panics_like_a_slice() {
        // The buffer extends past the section (the next bin's, in a
        // meta), so the bytes exist — the rank is still refused.
        let file = finish(builder(0, 2, 1));
        let bytes = [&file.summary[..], &file.summary].concat();
        SummaryView::parse(&bytes[..], 2).unwrap().count(2);
    }
}
