//! Per-extent integrity: CRC32 checksum footers on every stored file.
//!
//! Each bin data/index file (and the variable meta file) ends with an
//! [`ExtentFooter`]: one CRC32 per *logical extent* — the index
//! header, each positional bitmap, each compressed unit — in file
//! order, covering the payload completely. The query engine verifies
//! exactly the extents it reads (they are the same extents the build
//! wrote, so no read has to be widened to a checksum boundary), and
//! `mloc verify` recomputes every entry offline to pinpoint damage.
//!
//! File layout:
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
//! the build's validity marker: a torn write that truncates the file
//! destroys the trailer, so an incomplete file can never verify.

use crate::{MlocError, Result};

/// Trailer magic: "MFTR" little-endian.
const FOOTER_MAGIC: u32 = 0x5254_464D;
const FOOTER_VERSION: u32 = 1;

/// Size of the fixed trailer at the end of a footered file.
pub const TRAILER_LEN: u64 = 24;

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320,
/// built at compile time (8 KiB of read-only data). `[0]` is the
/// classic byte-at-a-time table; `[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight lookups advance the state
/// over eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
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
    while k < 8 {
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
/// Slicing-by-8: the body is consumed as little-endian 64-bit words,
/// eight table lookups per word, with a bytewise tail. Extents are a
/// few hundred bytes each and every cold byte is checked, so the
/// per-byte cost of this loop is a first-order term of cold latency
/// (DESIGN §12). The values are the standard CRC-32's, bit for bit.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        let lo = (w as u32) ^ c;
        let hi = (w >> 32) as u32;
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Parsed checksum footer of one file: per-extent CRCs plus the
/// payload geometry needed to locate them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentFooter {
    /// Bytes of payload the extents cover.
    payload_len: u64,
    /// Extent start offsets (prefix sums), one per entry.
    offsets: Vec<u64>,
    /// Extent lengths, parallel to `offsets`.
    lens: Vec<u32>,
    /// Extent CRC32s, parallel to `offsets`.
    crcs: Vec<u32>,
}

impl ExtentFooter {
    /// Compute the footer for `payload` divided into extents of the
    /// given lengths, in file order. The lengths must sum to the
    /// payload length (extents cover the file completely, no gaps).
    ///
    /// # Panics
    /// Panics when the lengths do not tile the payload — build-time
    /// misuse, not a data-dependent condition.
    pub fn compute(payload: &[u8], extent_lens: &[u32]) -> ExtentFooter {
        let mut offsets = Vec::with_capacity(extent_lens.len());
        let mut lens = Vec::with_capacity(extent_lens.len());
        let mut crcs = Vec::with_capacity(extent_lens.len());
        let mut off = 0u64;
        for &len in extent_lens {
            if len == 0 {
                continue;
            }
            let start = off as usize;
            let end = start + len as usize;
            assert!(end <= payload.len(), "extent past payload end");
            offsets.push(off);
            lens.push(len);
            crcs.push(crc32(&payload[start..end]));
            off += u64::from(len);
        }
        assert_eq!(off, payload.len() as u64, "extents do not tile payload");
        ExtentFooter {
            payload_len: payload.len() as u64,
            offsets,
            lens,
            crcs,
        }
    }

    /// Serialize table + trailer (the bytes appended after the
    /// payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        for (&len, &crc) in self.lens.iter().zip(&self.crcs) {
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&crc.to_le_bytes());
        }
        let table_crc = crc32(&out);
        out.extend_from_slice(&table_crc.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&(self.lens.len() as u32).to_le_bytes());
        out.extend_from_slice(&FOOTER_VERSION.to_le_bytes());
        out.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
        out
    }

    /// Total bytes [`Self::encode`] appends (table + trailer).
    pub fn encoded_len(&self) -> u64 {
        self.lens.len() as u64 * 8 + TRAILER_LEN
    }

    /// Payload length recorded in the trailer (= the footer's file
    /// offset).
    pub fn payload_len(&self) -> u64 {
        self.payload_len
    }

    /// Number of checksummed extents.
    pub fn num_extents(&self) -> usize {
        self.lens.len()
    }

    /// Extent geometry by table position: `(offset, len, crc)`.
    pub fn extent(&self, i: usize) -> (u64, u32, u32) {
        (self.offsets[i], self.lens[i], self.crcs[i])
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
        if trailer.len() as u64 != TRAILER_LEN {
            return Err(corrupt("trailer truncated"));
        }
        let u32_at = |i: usize| u32::from_le_bytes(trailer[i..i + 4].try_into().expect("4 bytes"));
        if u32_at(20) != FOOTER_MAGIC {
            return Err(corrupt("missing checksum footer (incomplete build?)"));
        }
        if u32_at(16) != FOOTER_VERSION {
            return Err(corrupt("unsupported footer version"));
        }
        let payload_len = u64::from_le_bytes(trailer[4..12].try_into().expect("8 bytes"));
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
        let stored_crc = u32::from_le_bytes(trailer[0..4].try_into().expect("4 bytes"));
        if crc32(table) != stored_crc {
            return Err(corrupt_extent(
                file,
                payload_len,
                table_len,
                "checksum table corrupt",
            ));
        }
        let n = table.len() / 8;
        let mut offsets = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(n);
        let mut crcs = Vec::with_capacity(n);
        let mut off = 0u64;
        for i in 0..n {
            let len = u32::from_le_bytes(table[i * 8..i * 8 + 4].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(table[i * 8 + 4..i * 8 + 8].try_into().expect("4 bytes"));
            if len == 0 {
                return Err(corrupt_extent(
                    file,
                    payload_len,
                    table_len,
                    "zero-length extent entry",
                ));
            }
            offsets.push(off);
            lens.push(len);
            crcs.push(crc);
            off += u64::from(len);
        }
        if off != payload_len {
            return Err(corrupt_extent(
                file,
                payload_len,
                table_len,
                "extents do not tile payload",
            ));
        }
        Ok(ExtentFooter {
            payload_len,
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

    /// Split a fully read file into its verified payload: parse the
    /// footer from the tail, check the table, and verify every extent.
    /// Used for whole-file reads (the meta file, offline verification).
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
        let (payload_len, table_len) = Self::decode_trailer(trailer, file_len, file)?;
        let footer = Self::decode(&raw[payload_len as usize..], file_len, file)?;
        let _ = table_len;
        let payload = &raw[..payload_len as usize];
        for i in 0..footer.num_extents() {
            let (off, len, _) = footer.extent(i);
            footer.verify(
                file,
                off,
                &payload[off as usize..(off + u64::from(len)) as usize],
            )?;
        }
        Ok(payload)
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
        // alignment against the 8-byte word loop, and every length
        // 0..=70 puts the word/tail boundary at every position.
        let buf: Vec<u8> = (0..96u32).map(|i| (i * 151 + 7) as u8).collect();
        for start in 0..8 {
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
        use crate::build::build_variable;
        use crate::config::MlocConfig;
        use crate::store::MlocStore;
        use mloc_pfs::{MemBackend, StorageBackend};
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

        let be = MemBackend::new();
        let values: Vec<f64> = (0..1024).map(|i| ((i * 37) % 1024) as f64 * 0.25).collect();
        let config = MlocConfig::builder(vec![32, 32])
            .chunk_shape(vec![16, 16])
            .num_bins(2)
            .build();
        build_variable(&be, "ds", "v", &values, &config).unwrap();
        let store = MlocStore::open(&be, "ds", "v").unwrap();
        let idx = "9e010000d70486182c000000f07a9d2734000000e22ebe6b340000004047c980\
                   340000007e3142293400000035366cdf6367c4759a0200000000000006000000\
                   010000004d465452";
        let dat = "ec000000f6ec2dc2ef000000f645c7c1f0000000efb70b87f0000000290510ae\
                   910000002fd1876a9500000095071a0f9600000071b8b68c990000008f1c41cb\
                   91000000aa6abf1795000000bde4ce9d960000001e919a26990000005aed5613\
                   91000000aa6abf1795000000bde4ce9d960000001e919a26990000005aed5613\
                   91000000aa6abf1795000000bde4ce9d960000001e919a26990000005aed5613\
                   91000000aa6abf1795000000bde4ce9d960000001e919a26990000005aed5613\
                   91000000aa6abf1795000000bde4ce9d960000001e919a26990000005aed5613\
                   419064d6b9110000000000001c000000010000004d465452";
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        for (file, payload_len, footer) in [
            (store.index_file(1), 666, idx),
            (store.data_file(1), 4537, dat),
        ] {
            let raw = be.read(&file, 0, be.len(&file).unwrap()).unwrap();
            let payload = ExtentFooter::split_verified(&raw, &file).unwrap();
            assert_eq!(payload.len(), payload_len, "{file}");
            assert_eq!(hex(&raw[payload_len..]), footer, "{file}");
        }
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
        assert_eq!(
            file.len() as u64,
            footer.payload_len() + footer.encoded_len()
        );

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
            // magic, version, and geometry).
            #[test]
            fn arbitrary_bytes_never_panic(
                junk in proptest::collection::vec(any::<u8>(), 0..400),
            ) {
                let _ = ExtentFooter::split_verified(&junk, "f");
                let _ = ExtentFooter::decode(&junk, junk.len() as u64, "f");
                let _ = ExtentFooter::decode_trailer(&junk, junk.len() as u64, "f");
            }
        }
    }
}
