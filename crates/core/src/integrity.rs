//! Per-extent integrity: CRC32 checksum tables over every stored file.
//!
//! Every stored file carries one CRC32 per *logical extent* — the index
//! header, the chunk summary, each positional bitmap, each compressed
//! unit — in file order. The query engine verifies exactly the extents
//! it reads (they are the same extents the build wrote, so no read has
//! to be widened to a checksum boundary), and `mloc verify` recomputes
//! every entry offline to pinpoint damage. An [`ExtentFooter`] is one
//! such table, parsed, with the file span it was stored at.
//!
//! A table is stored in one of two forms.
//!
//! **Tail footer** — the meta file (and the v1/v2 bin files
//! [`crate::upgrade`] reads):
//!
//! ```text
//! payload                       (the pre-existing file contents)
//! table: n × { len: u32, crc: u32 }   (extents in file order)
//! trailer (24 bytes):
//!   table_crc: u32    CRC32 of the table bytes
//!   payload_len: u64
//!   n_entries: u32
//!   version: u32      (1)
//!   magic: u32        "MFTR"
//! ```
//!
//! Extent offsets are not stored: entries are contiguous from offset
//! 0, so offsets are prefix sums of the lengths. The trailer sits at a
//! fixed position from the end of the file, which makes it double as
//! the file's validity marker: a torn write that truncates the file
//! destroys the trailer, so an incomplete file can never verify.
//!
//! **Front table** — the two tables of a bin file (formats v3–v6)
//! ([`crate::binfile`]), stored ahead of the extents they cover:
//!
//! ```text
//! n × { len: u32, crc: u32 }   (extents in file order)
//! table_crc: u32               CRC32 of the entries
//! ```
//!
//! The entry count and where the extents begin are the bin file's
//! layout, not the table's: extents follow each other from the start
//! of each *run*, `(first entry, file offset)`.

use crate::{MlocError, Result};

/// Trailer magic: "MFTR" little-endian.
const FOOTER_MAGIC: u32 = 0x5254_464D;
const FOOTER_VERSION: u32 = 1;

/// Size of the fixed trailer at the end of a footered file.
pub const TRAILER_LEN: u64 = 24;

/// Slicing-by-16 tables for the reflected IEEE polynomial 0xEDB88320,
/// built at compile time (16 KiB of read-only data). `[0]` is the
/// classic byte-at-a-time table; `[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so sixteen lookups advance the state
/// over sixteen input bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 (IEEE, reflected, poly 0xEDB88320) over `data`.
///
/// Slicing-by-16: the body is consumed as 16-byte blocks, sixteen
/// independent table lookups per block, with a bytewise tail. Extents
/// are a few hundred bytes each and every cold byte is checked, so the
/// per-byte cost of this loop is a first-order term of cold latency
/// (DESIGN §12). The values are the standard CRC-32's, bit for bit.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// The CRC32 of `a` followed by `data`, from `crc`, the CRC32 of `a`:
/// `crc32_extend(crc32(a), b) == crc32(a ++ b)`, so a checksum can be
/// kept over bytes that arrive piece by piece.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let (blocks, tail) = data.as_chunks::<16>();
    for b in blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in tail {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One parsed checksum table: per-extent offsets, lengths and CRCs,
/// and where in its file the table itself is stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentFooter {
    /// File offset of the stored table (for a tail footer: the payload
    /// length).
    at: u64,
    /// Stored bytes of the table (a tail footer's include its trailer).
    stored_len: u64,
    /// Extent start offsets, one per entry, ascending.
    offsets: Vec<u64>,
    /// Extent lengths, parallel to `offsets`.
    lens: Vec<u32>,
    /// Extent CRC32s, parallel to `offsets`.
    crcs: Vec<u32>,
}

/// Stored bytes of a front table of `n` entries.
pub fn table_len(n: u32) -> u64 {
    u64::from(n) * 8 + 4
}

/// The little-endian `u32` at `at` in `bytes`; `None` past their end.
fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(*bytes.get(at..)?.first_chunk()?))
}

/// Split stored `{len, crc}` entries into extents placed run by run:
/// `runs` lists `(first entry, file offset)`, ascending by entry and
/// starting at entry 0, and within a run each extent starts where the
/// one before it ended. `what` builds the error for a bad entry.
fn parse_entries(
    entries: &[u8],
    runs: &[(usize, u64)],
    what: impl Fn(&str) -> MlocError,
) -> Result<(Vec<u64>, Vec<u32>, Vec<u32>)> {
    let (entries, _) = entries.as_chunks::<8>();
    let n = entries.len();
    let (mut offsets, mut lens, mut crcs) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut off = 0u64;
    let mut next_run = runs.iter().peekable();
    for (i, &[l0, l1, l2, l3, c0, c1, c2, c3]) in entries.iter().enumerate() {
        if let Some(&(_, start)) = next_run.next_if(|(first, _)| *first == i) {
            off = start;
        }
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        if len == 0 {
            return Err(what("zero-length extent entry"));
        }
        offsets.push(off);
        lens.push(len);
        crcs.push(u32::from_le_bytes([c0, c1, c2, c3]));
        off = off
            .checked_add(u64::from(len))
            .ok_or_else(|| what("extent offsets overflow"))?;
    }
    Ok((offsets, lens, crcs))
}

impl ExtentFooter {
    /// Compute the tail footer for `payload` divided into extents of
    /// the given lengths, in file order. The lengths must sum to the
    /// payload length (extents cover the file completely, no gaps);
    /// zero-length extents are left out.
    ///
    /// # Panics
    /// Panics when the lengths do not tile the payload — build-time
    /// misuse, not a data-dependent condition.
    pub fn compute(payload: &[u8], extent_lens: &[u32]) -> ExtentFooter {
        let table = Self::compute_table(payload, 0, &[(0, 0)], extent_lens);
        let payload_len = payload.len() as u64;
        assert_eq!(
            table.extents_end(),
            payload_len,
            "extents do not tile payload"
        );
        ExtentFooter {
            at: payload_len,
            stored_len: table.lens.len() as u64 * 8 + TRAILER_LEN,
            ..table
        }
    }

    /// Compute a front table, to be stored at `at`, over the extents
    /// of `image` (a whole file as it will be stored) with the given
    /// lengths, placed by `runs` as [`Self::decode_table`] places them.
    /// Zero-length extents are left out, and `runs` counts the entries
    /// that remain.
    ///
    /// # Panics
    /// Panics when an extent lies past the end of `image`.
    pub(crate) fn compute_table(
        image: &[u8],
        at: u64,
        runs: &[(usize, u64)],
        extent_lens: &[u32],
    ) -> ExtentFooter {
        let mut footer = ExtentFooter {
            at,
            stored_len: 0,
            offsets: Vec::with_capacity(extent_lens.len()),
            lens: Vec::with_capacity(extent_lens.len()),
            crcs: Vec::with_capacity(extent_lens.len()),
        };
        let mut off = 0u64;
        let mut next_run = runs.iter().peekable();
        for &len in extent_lens.iter().filter(|&&len| len > 0) {
            let entry = footer.lens.len();
            if let Some(&(_, start)) = next_run.next_if(|(first, _)| *first == entry) {
                off = start;
            }
            let extent = &image[off as usize..off as usize + len as usize];
            footer.offsets.push(off);
            footer.lens.push(len);
            footer.crcs.push(crc32(extent));
            off += u64::from(len);
        }
        footer.stored_len = table_len(footer.lens.len() as u32);
        footer
    }

    /// Serialize table + trailer (the bytes appended after the
    /// payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.encode_entries(self.stored_len as usize);
        let table_crc = crc32(&out);
        out.extend_from_slice(&table_crc.to_le_bytes());
        out.extend_from_slice(&self.at.to_le_bytes());
        out.extend_from_slice(&(self.lens.len() as u32).to_le_bytes());
        out.extend_from_slice(&FOOTER_VERSION.to_le_bytes());
        out.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
        out
    }

    /// Serialize as a front table: the entries, then their CRC.
    pub(crate) fn encode_table(&self) -> Vec<u8> {
        let mut out = self.encode_entries(self.stored_len as usize);
        let table_crc = crc32(&out);
        out.extend_from_slice(&table_crc.to_le_bytes());
        out
    }

    fn encode_entries(&self, capacity: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(capacity);
        for (&len, &crc) in self.lens.iter().zip(&self.crcs) {
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&crc.to_le_bytes());
        }
        out
    }

    /// Where the table itself is stored: `(file offset, length)`. For a
    /// tail footer the offset is the payload length, and the length
    /// includes the trailer.
    pub fn span(&self) -> (u64, u64) {
        (self.at, self.stored_len)
    }

    /// Number of checksummed extents.
    pub fn num_extents(&self) -> usize {
        self.lens.len()
    }

    /// Extent geometry by table position: `(offset, len, crc)`.
    pub fn extent(&self, i: usize) -> (u64, u32, u32) {
        (self.offsets[i], self.lens[i], self.crcs[i])
    }

    /// The table position of the extent that starts at `offset`.
    pub(crate) fn position(&self, offset: u64) -> Option<usize> {
        let i = self.offsets.partition_point(|&o| o < offset);
        (self.offsets.get(i) == Some(&offset)).then_some(i)
    }

    /// Where the table's last extent ends (0 for an empty table).
    pub fn extents_end(&self) -> u64 {
        match (self.offsets.last(), self.lens.last()) {
            (Some(&off), Some(&len)) => off + u64::from(len),
            _ => 0,
        }
    }

    /// Parse the trailer of a file of `file_len` bytes (`trailer` is
    /// its last [`TRAILER_LEN`] bytes) and return `(payload_len,
    /// table_len)` for the follow-up table read.
    pub fn decode_trailer(trailer: &[u8], file_len: u64, file: &str) -> Result<(u64, u64)> {
        let corrupt = |what: &str| {
            corrupt_extent(
                file,
                file_len.saturating_sub(TRAILER_LEN),
                TRAILER_LEN,
                what,
            )
        };
        let Ok(trailer) = <&[u8; TRAILER_LEN as usize]>::try_from(trailer) else {
            return Err(corrupt("trailer truncated"));
        };
        // Every field lies inside the fixed-size trailer.
        let u32_at = |i: usize| u32_at(trailer, i).unwrap_or_default();
        if u32_at(20) != FOOTER_MAGIC {
            return Err(corrupt("missing checksum footer (incomplete build?)"));
        }
        if u32_at(16) != FOOTER_VERSION {
            return Err(corrupt("unsupported footer version"));
        }
        let payload_len = trailer[4..]
            .first_chunk()
            .map_or(0, |b| u64::from_le_bytes(*b));
        let n_entries = u64::from(u32_at(12));
        let table_len = n_entries * 8;
        if payload_len
            .checked_add(table_len)
            .and_then(|v| v.checked_add(TRAILER_LEN))
            != Some(file_len)
        {
            return Err(corrupt("footer geometry inconsistent with file size"));
        }
        Ok((payload_len, table_len))
    }

    /// Parse table + trailer read from `payload_len` onward. `bytes`
    /// is the whole footer region (`table_len + TRAILER_LEN` bytes).
    pub fn decode(bytes: &[u8], file_len: u64, file: &str) -> Result<ExtentFooter> {
        if (bytes.len() as u64) < TRAILER_LEN {
            return Err(corrupt_extent(
                file,
                0,
                bytes.len() as u64,
                "footer truncated",
            ));
        }
        let trailer = &bytes[bytes.len() - TRAILER_LEN as usize..];
        let (payload_len, table_len) = Self::decode_trailer(trailer, file_len, file)?;
        let table = &bytes[..bytes.len() - TRAILER_LEN as usize];
        if table.len() as u64 != table_len {
            return Err(corrupt_extent(
                file,
                payload_len,
                bytes.len() as u64,
                "footer table length mismatch",
            ));
        }
        let corrupt = |what: &str| corrupt_extent(file, payload_len, table_len, what);
        if Some(crc32(table)) != u32_at(trailer, 0) {
            return Err(corrupt("checksum table corrupt"));
        }
        let (offsets, lens, crcs) = parse_entries(table, &[(0, 0)], corrupt)?;
        let footer = ExtentFooter {
            at: payload_len,
            stored_len: bytes.len() as u64,
            offsets,
            lens,
            crcs,
        };
        if footer.extents_end() != payload_len {
            return Err(corrupt("extents do not tile payload"));
        }
        Ok(footer)
    }

    /// Parse a front table stored at `at`: `bytes` is all of it (the
    /// caller read exactly the length its layout declares), and `runs`
    /// places its extents — see [`parse_entries`].
    pub(crate) fn decode_table(
        bytes: &[u8],
        at: u64,
        runs: &[(usize, u64)],
        file: &str,
    ) -> Result<ExtentFooter> {
        let corrupt = |what: &str| corrupt_extent(file, at, bytes.len() as u64, what);
        let split = bytes
            .split_last_chunk()
            .filter(|(entries, _)| entries.len() % 8 == 0);
        let Some((entries, stored_crc)) = split else {
            return Err(corrupt("checksum table truncated"));
        };
        if crc32(entries) != u32::from_le_bytes(*stored_crc) {
            return Err(corrupt("checksum table corrupt"));
        }
        let (offsets, lens, crcs) = parse_entries(entries, runs, corrupt)?;
        Ok(ExtentFooter {
            at,
            stored_len: bytes.len() as u64,
            offsets,
            lens,
            crcs,
        })
    }

    /// Verify one read extent against its recorded checksum. The read
    /// must match a build-time extent exactly (engine reads are the
    /// extents the build wrote); a lookup miss means the index that
    /// produced the read is itself inconsistent with this file.
    pub fn verify(&self, file: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        let len = bytes.len() as u64;
        let i = self.offsets.partition_point(|&o| o < offset);
        if i >= self.offsets.len() || self.offsets[i] != offset || u64::from(self.lens[i]) != len {
            return Err(corrupt_extent(
                file,
                offset,
                len,
                "extent not in checksum table",
            ));
        }
        if crc32(bytes) != self.crcs[i] {
            return Err(corrupt_extent(file, offset, len, "checksum mismatch"));
        }
        Ok(())
    }

    /// [`Self::verify`], adding the seconds it took to `clock` when
    /// the caller keeps one (a profiled rank's `verify` span). Without
    /// a clock no time is read.
    pub(crate) fn verify_timed(
        &self,
        file: &str,
        offset: u64,
        bytes: &[u8],
        clock: Option<&mut f64>,
    ) -> Result<()> {
        let Some(clock) = clock else {
            return self.verify(file, offset, bytes);
        };
        let t = std::time::Instant::now();
        let verdict = self.verify(file, offset, bytes);
        *clock += t.elapsed().as_secs_f64();
        verdict
    }

    /// Every extent of `raw` (a whole file) that this table covers,
    /// verified in table order, each verdict handed to `verdict`. An
    /// extent past the end of `raw` fails as truncated.
    pub(crate) fn verify_all(&self, raw: &[u8], file: &str, mut verdict: impl FnMut(Result<()>)) {
        for (&off, &len) in self.offsets.iter().zip(&self.lens) {
            let extent = usize::try_from(off)
                .ok()
                .and_then(|start| raw.get(start..start.checked_add(len as usize)?));
            verdict(match extent {
                Some(bytes) => self.verify(file, off, bytes),
                None => Err(corrupt_extent(
                    file,
                    off,
                    u64::from(len),
                    "extent past end of file (torn write?)",
                )),
            });
        }
    }

    /// Split a fully read tail-footered file (the meta file, a v1/v2
    /// bin file) into its verified payload: parse the footer from the
    /// tail, check the table, and verify every extent.
    pub fn split_verified<'a>(raw: &'a [u8], file: &str) -> Result<&'a [u8]> {
        let file_len = raw.len() as u64;
        if file_len < TRAILER_LEN {
            return Err(corrupt_extent(
                file,
                0,
                file_len,
                "file shorter than footer trailer",
            ));
        }
        let trailer = &raw[raw.len() - TRAILER_LEN as usize..];
        let (payload_len, _) = Self::decode_trailer(trailer, file_len, file)?;
        let footer = Self::decode(&raw[payload_len as usize..], file_len, file)?;
        let payload = &raw[..payload_len as usize];
        let mut first = Ok(());
        footer.verify_all(payload, file, |v| {
            if first.is_ok() {
                first = v;
            }
        });
        first.map(|()| payload)
    }
}

/// Build a [`MlocError::CorruptExtent`] with context.
pub(crate) fn corrupt_extent(file: &str, offset: u64, len: u64, what: &str) -> MlocError {
    MlocError::CorruptExtent {
        file: file.to_string(),
        offset,
        len,
        what: what.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// A checksum kept piece by piece is the one-shot checksum, for
    /// every split of the input.
    #[test]
    fn crc32_extends_over_every_split() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 % 251) as u8).collect();
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_extend(crc32(a), b), crc32(&data), "cut at {cut}");
        }
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_alignment() {
        // One shared buffer, so a start offset is a real change of
        // alignment against the 16-byte block loop, and every length
        // 0..=70 puts the block/tail boundary at every position.
        let buf: Vec<u8> = (0..96u32).map(|i| (i * 151 + 7) as u8).collect();
        for start in 0..16 {
            for len in 0..=70 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_and_built_footers_are_pinned() {
        // Values and bytes captured from the commit before `crc32`
        // became word-at-a-time: files that commit built must verify
        // now, so neither a checksum nor a footer byte may move.
        let ramp: Vec<u8> = (0..=255u8).collect();
        let pinned = [
            (1usize, 0xD202_EF8Du32),
            (7, 0xAD58_09F9),
            (8, 0x88AA_689F),
            (9, 0xBCE1_4302),
            (64, 0x100E_CE8C),
            (255, 0xD32F_9BA0),
            (256, 0x2905_8C73),
        ];
        for (n, crc) in pinned {
            assert_eq!(crc32(&ramp[..n]), crc, "ramp[..{n}]");
        }

        // And every file the v6 fixture holds — written by a CLI of
        // that format — verifies: the meta's tail footer, each bin
        // file's two tables over its extents.
        let old = crate::fixtures::mem(6);
        let (_, meta) = crate::store::VariableMeta::decode_any(
            ExtentFooter::split_verified(
                &crate::fileorg::read_file(&old, "fmt/v/meta").unwrap(),
                "meta",
            )
            .unwrap(),
        )
        .unwrap();
        let layout = crate::binfile::Layout::of(&meta.config).with_summaries(meta.summaries);
        let mut extents = 0;
        for bin in 0..8 {
            let file = crate::fileorg::bin_file("fmt", "v", bin);
            let raw = crate::fileorg::read_file(&old, &file).unwrap();
            let checked = crate::binfile::check_of(&raw, &file, Some(&layout), bin, 6);
            assert!(checked.damage.is_empty(), "{file}: {:?}", checked.damage);
            extents += checked.extents;
        }
        // 8 headers, 124 set chunks' run lists and 7 parts each.
        assert_eq!(extents, 8 + 124 + 7 * 124);
    }

    fn sample() -> (Vec<u8>, Vec<u32>) {
        let payload: Vec<u8> = (0..200u8).collect();
        let lens = vec![14u32, 0, 86, 100];
        (payload, lens)
    }

    #[test]
    fn footer_roundtrip_and_verify() {
        let (payload, lens) = sample();
        let footer = ExtentFooter::compute(&payload, &lens);
        assert_eq!(footer.num_extents(), 3, "zero-length extents dropped");
        let mut file = payload.clone();
        file.extend_from_slice(&footer.encode());
        let (at, len) = footer.span();
        assert_eq!((at, at + len), (payload.len() as u64, file.len() as u64));

        let decoded = ExtentFooter::decode(&file[payload.len()..], file.len() as u64, "f").unwrap();
        assert_eq!(decoded, footer);
        decoded.verify("f", 0, &payload[0..14]).unwrap();
        decoded.verify("f", 14, &payload[14..100]).unwrap();
        decoded.verify("f", 100, &payload[100..200]).unwrap();
        assert_eq!(
            ExtentFooter::split_verified(&file, "f").unwrap(),
            &payload[..]
        );
    }

    #[test]
    fn verify_rejects_wrong_geometry_and_corruption() {
        let (payload, lens) = sample();
        let footer = ExtentFooter::compute(&payload, &lens);
        // Not an extent boundary.
        assert!(footer.verify("f", 1, &payload[1..15]).is_err());
        // Right offset, wrong length.
        assert!(footer.verify("f", 0, &payload[0..10]).is_err());
        // Flipped byte.
        let mut bad = payload[14..100].to_vec();
        bad[3] ^= 0x40;
        let err = footer.verify("f", 14, &bad).unwrap_err();
        match err {
            MlocError::CorruptExtent { offset, len, .. } => {
                assert_eq!((offset, len), (14, 86));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn torn_or_tampered_footer_is_detected() {
        let (payload, lens) = sample();
        let footer = ExtentFooter::compute(&payload, &lens);
        let mut file = payload.clone();
        file.extend_from_slice(&footer.encode());

        // Truncation destroys the trailer.
        for cut in [1usize, 10, 23, 30] {
            let torn = &file[..file.len() - cut];
            assert!(
                ExtentFooter::split_verified(torn, "f").is_err(),
                "cut {cut}"
            );
        }
        // A payload flip fails extent verification.
        let mut flipped = file.clone();
        flipped[50] ^= 0x01;
        assert!(ExtentFooter::split_verified(&flipped, "f").is_err());
        // A table flip fails the table CRC.
        let mut bad_table = file.clone();
        bad_table[payload.len() + 2] ^= 0x01;
        assert!(ExtentFooter::split_verified(&bad_table, "f").is_err());
        // A trailer flip fails magic/geometry/CRC checks.
        for i in 0..TRAILER_LEN as usize {
            let mut bad = file.clone();
            let pos = bad.len() - 1 - i;
            bad[pos] ^= 0x80;
            assert!(
                ExtentFooter::split_verified(&bad, "f").is_err(),
                "trailer byte {i} flip undetected"
            );
        }
    }

    #[test]
    fn empty_payload_footer() {
        let footer = ExtentFooter::compute(&[], &[]);
        let file = footer.encode();
        assert_eq!(file.len() as u64, TRAILER_LEN);
        let decoded = ExtentFooter::decode(&file, file.len() as u64, "f").unwrap();
        assert_eq!(decoded.num_extents(), 0);
        assert_eq!(
            ExtentFooter::split_verified(&file, "f").unwrap(),
            &[] as &[u8]
        );
    }

    #[test]
    fn front_table_roundtrip_and_runs() {
        let image: Vec<u8> = (0..=255u8).cycle().take(600).collect();
        // Two extents from 0, a zero-length one left out, then three
        // more from 400.
        let runs = [(0, 0), (2, 400)];
        let table = ExtentFooter::compute_table(&image, 100, &runs, &[40, 60, 0, 50, 100, 50]);
        assert_eq!(table.span(), (100, table_len(5)));
        let starts: Vec<u64> = (0..5).map(|i| table.extent(i).0).collect();
        assert_eq!(starts, [0, 40, 400, 450, 550]);
        assert_eq!(table.extents_end(), 600);
        let bytes = table.encode_table();
        assert_eq!(bytes.len() as u64, table_len(5));
        let decoded = ExtentFooter::decode_table(&bytes, 100, &runs, "f").unwrap();
        assert_eq!(decoded, table);
        decoded.verify_all(&image, "f", |v| v.unwrap());
        // Cut short, an extent fails as torn; a flipped byte as damage.
        let mut failed = Vec::new();
        decoded.verify_all(&image[..500], "f", |v| failed.extend(v.err()));
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(
            failed[0].to_string().contains("torn write"),
            "{}",
            failed[0]
        );
        let mut bad = bytes.clone();
        bad[13] ^= 0x01;
        let err = ExtentFooter::decode_table(&bad, 100, &runs, "f").unwrap_err();
        assert!(err.to_string().contains("checksum table corrupt"), "{err}");
    }

    /// Eager decoders of both stored forms, written apart from the ones
    /// under test: what the never-panics sweeps hold every verdict,
    /// message and parsed extent to.
    mod oracle {
        use super::super::*;

        /// `(offset, len, crc)` of every extent, in table order.
        pub type Extents = Vec<(u64, u32, u32)>;

        fn word(b: &[u8], at: usize) -> u32 {
            u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
        }

        pub fn decode_trailer(trailer: &[u8], file_len: u64, file: &str) -> Result<(u64, u64)> {
            let at = file_len.saturating_sub(TRAILER_LEN);
            let bad = |what: &str| Err(corrupt_extent(file, at, TRAILER_LEN, what));
            if trailer.len() != 24 {
                return bad("trailer truncated");
            }
            if word(trailer, 20) != 0x5254_464D {
                return bad("missing checksum footer (incomplete build?)");
            }
            if word(trailer, 16) != 1 {
                return bad("unsupported footer version");
            }
            let payload_len = u64::from(word(trailer, 4)) | u64::from(word(trailer, 8)) << 32;
            let table_len = u64::from(word(trailer, 12)) * 8;
            if u128::from(payload_len) + u128::from(table_len) + 24 != u128::from(file_len) {
                return bad("footer geometry inconsistent with file size");
            }
            Ok((payload_len, table_len))
        }

        fn entries(
            table: &[u8],
            runs: &[(usize, u64)],
        ) -> std::result::Result<Extents, &'static str> {
            let mut out = Vec::new();
            let mut off = 0u64;
            for i in 0..table.len() / 8 {
                if let Some(&(_, start)) = runs.iter().find(|(first, _)| *first == i) {
                    off = start;
                }
                let (len, crc) = (word(table, 8 * i), word(table, 8 * i + 4));
                if len == 0 {
                    return Err("zero-length extent entry");
                }
                out.push((off, len, crc));
                off = off
                    .checked_add(u64::from(len))
                    .ok_or("extent offsets overflow")?;
            }
            Ok(out)
        }

        pub fn decode(bytes: &[u8], file_len: u64, file: &str) -> Result<((u64, u64), Extents)> {
            if bytes.len() < 24 {
                let len = bytes.len() as u64;
                return Err(corrupt_extent(file, 0, len, "footer truncated"));
            }
            let (table, trailer) = bytes.split_at(bytes.len() - 24);
            let (payload_len, table_len) = decode_trailer(trailer, file_len, file)?;
            if table.len() as u64 != table_len {
                let len = bytes.len() as u64;
                return Err(corrupt_extent(
                    file,
                    payload_len,
                    len,
                    "footer table length mismatch",
                ));
            }
            let bad = |what: &str| corrupt_extent(file, payload_len, table_len, what);
            if crc32(table) != word(trailer, 0) {
                return Err(bad("checksum table corrupt"));
            }
            let extents = entries(table, &[(0, 0)]).map_err(bad)?;
            let end = extents
                .last()
                .map_or(0, |&(off, len, _)| off + u64::from(len));
            if end != payload_len {
                return Err(bad("extents do not tile payload"));
            }
            Ok(((payload_len, bytes.len() as u64), extents))
        }

        pub fn decode_table(
            bytes: &[u8],
            at: u64,
            runs: &[(usize, u64)],
            file: &str,
        ) -> Result<((u64, u64), Extents)> {
            let bad = |what: &str| corrupt_extent(file, at, bytes.len() as u64, what);
            if bytes.len() < 4 || !(bytes.len() - 4).is_multiple_of(8) {
                return Err(bad("checksum table truncated"));
            }
            let (table, stored) = bytes.split_at(bytes.len() - 4);
            if crc32(table) != word(stored, 0) {
                return Err(bad("checksum table corrupt"));
            }
            Ok(((at, bytes.len() as u64), entries(table, runs).map_err(bad)?))
        }
    }

    /// A decode against the oracle's: the same verdict and message, or
    /// the same table — and never more entries allocated than `input`
    /// has room for.
    fn agrees(
        got: Result<ExtentFooter>,
        want: Result<((u64, u64), oracle::Extents)>,
        input: usize,
    ) {
        match (got, want) {
            (Ok(got), Ok((span, extents))) => {
                assert_eq!(got.span(), span);
                let parsed: oracle::Extents =
                    (0..got.num_extents()).map(|i| got.extent(i)).collect();
                assert_eq!(parsed, extents);
                assert!(
                    got.offsets.capacity() * 8 <= input,
                    "allocated past the input"
                );
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
            (got, want) => panic!("decoder {got:?} vs oracle {want:?}"),
        }
    }

    /// Every decode of a tail-footered `file` as a reader meets it: the
    /// trailer (last 24 bytes, or fewer), and the footer region from
    /// wherever the trailer — or, when it does not parse, `guess` —
    /// says the payload ends.
    fn sweep_tail(file: &[u8], guess: usize) {
        let file_len = file.len() as u64;
        let trailer = &file[file.len().saturating_sub(24)..];
        let got = ExtentFooter::decode_trailer(trailer, file_len, "f");
        let want = oracle::decode_trailer(trailer, file_len, "f");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        let from = match got {
            Ok((payload_len, _)) => payload_len as usize,
            Err(_) => guess.min(file.len()),
        };
        let region = &file[from..];
        agrees(
            ExtentFooter::decode(region, file_len, "f"),
            oracle::decode(region, file_len, "f"),
            region.len(),
        );
    }

    /// Both table decoders against the oracle on every truncation and
    /// every single-bit flip of a well-formed input, then on arbitrary
    /// buffers.
    #[test]
    fn table_decoders_never_panic_and_match_the_oracle() {
        let (payload, lens) = sample();
        let mut file = payload.clone();
        file.extend_from_slice(&ExtentFooter::compute(&payload, &lens).encode());
        let image: Vec<u8> = (0..=255u8).cycle().take(600).collect();
        let runs = [(0, 0), (2, 400)];
        let front =
            ExtentFooter::compute_table(&image, 100, &runs, &[40, 60, 50, 100, 50]).encode_table();
        let front_sweep = |bytes: &[u8]| {
            for runs in [&runs[..], &[(0, u64::MAX - 8)], &[]] {
                agrees(
                    ExtentFooter::decode_table(bytes, 100, runs, "f"),
                    oracle::decode_table(bytes, 100, runs, "f"),
                    bytes.len(),
                );
            }
        };
        for cut in 0..=file.len() {
            sweep_tail(&file[..cut], payload.len());
        }
        for cut in 0..=front.len() {
            front_sweep(&front[..cut]);
        }
        for bit in 0..file.len() * 8 {
            let mut bad = file.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            sweep_tail(&bad, payload.len());
        }
        for bit in 0..front.len() * 8 {
            let mut bad = front.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            front_sweep(&bad);
        }
    }

    mod corruption_props {
        use super::*;
        use proptest::prelude::*;

        /// A checksummed file image: random payload split into two
        /// extents, footer appended.
        fn image(payload: &[u8], cut: usize) -> Vec<u8> {
            let lens = [cut as u32, (payload.len() - cut) as u32];
            let footer = ExtentFooter::compute(payload, &lens);
            let mut file = payload.to_vec();
            file.extend_from_slice(&footer.encode());
            file
        }

        proptest! {
            #[test]
            fn crc32_matches_bytewise_oracle(
                data in proptest::collection::vec(any::<u8>(), 0..2100),
            ) {
                prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
            }

            // CRC32 detects every single-byte corruption, wherever it
            // lands: payload (extent CRC), table (table CRC), or
            // trailer (magic/version/geometry/CRC checks).
            #[test]
            fn any_single_byte_flip_is_detected(
                payload in proptest::collection::vec(any::<u8>(), 1..300),
                split in any::<usize>(),
                pos in any::<usize>(),
                mask in 1u8..=255u8,
            ) {
                let mut file = image(&payload, split % (payload.len() + 1));
                prop_assert!(ExtentFooter::split_verified(&file, "f").is_ok());
                let pos = pos % file.len();
                file[pos] ^= mask;
                prop_assert!(
                    ExtentFooter::split_verified(&file, "f").is_err(),
                    "flip at {pos} of {} undetected", file.len()
                );
            }

            // Any strict truncation (a torn write) is detected.
            #[test]
            fn any_truncation_is_detected(
                payload in proptest::collection::vec(any::<u8>(), 1..300),
                split in any::<usize>(),
                keep in any::<usize>(),
            ) {
                let mut file = image(&payload, split % (payload.len() + 1));
                file.truncate(keep % file.len());
                prop_assert!(ExtentFooter::split_verified(&file, "f").is_err());
            }

            // Arbitrary junk never decodes as a valid footer and never
            // panics (a 2^-32 CRC collision would also need valid
            // magic, version, and geometry), and every decoder agrees
            // with the oracle on it — with the trailer's own magic and
            // version planted half the time, so the checks past them
            // run too.
            #[test]
            fn arbitrary_bytes_never_panic(
                mut junk in proptest::collection::vec(any::<u8>(), 0..400),
                plant in any::<bool>(),
                file_len in any::<u64>(),
                at in any::<u64>(),
            ) {
                if plant && junk.len() >= 24 {
                    let n = junk.len();
                    junk[n - 8..n - 4].copy_from_slice(&FOOTER_VERSION.to_le_bytes());
                    junk[n - 4..].copy_from_slice(&FOOTER_MAGIC.to_le_bytes());
                }
                let _ = ExtentFooter::split_verified(&junk, "f");
                for len in [junk.len() as u64, file_len] {
                    agrees(
                        ExtentFooter::decode(&junk, len, "f"),
                        oracle::decode(&junk, len, "f"),
                        junk.len(),
                    );
                    let got = ExtentFooter::decode_trailer(&junk, len, "f");
                    let want = oracle::decode_trailer(&junk, len, "f");
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                }
                if plant && junk.len() >= 4 {
                    // A table whose CRC holds, over arbitrary entries.
                    let n = junk.len() - 4 - (junk.len() - 4) % 8;
                    junk.truncate(n + 4);
                    let crc = crc32(&junk[..n]);
                    junk[n..].copy_from_slice(&crc.to_le_bytes());
                }
                for runs in [&[(0usize, at)][..], &[(0, 0), (2, at)]] {
                    agrees(
                        ExtentFooter::decode_table(&junk, at, runs, "f"),
                        oracle::decode_table(&junk, at, runs, "f"),
                        junk.len(),
                    );
                }
            }
        }
    }
}
