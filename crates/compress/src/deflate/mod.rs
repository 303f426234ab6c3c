//! A DEFLATE-style byte codec: LZ77 + canonical Huffman coding.
//!
//! The container format ("MDF1") is our own, but the machinery is the
//! same as zlib's: hash-chain LZ77 with a 32 KiB window, length/distance
//! symbol alphabets with extra bits (RFC 1951's tables), per-block
//! canonical Huffman codes, and a stored-block fallback when entropy
//! coding does not pay off.

pub mod huffman;
pub mod lz77;

use crate::bitio::{BitReader, BitWriter};
use crate::{Codec, CodecError};
use huffman::{code_lengths, Decoder, Encoder, MAX_CODE_LEN, MAX_TABLE_LEN};
use lz77::Token;

const MAGIC: u32 = 0x3146_444D; // "MDF1"
/// Independent-block size: bounds memory and enables random access at
/// a coarser granularity if needed.
const BLOCK_SIZE: usize = 128 * 1024;

/// Adler-32 checksum (the integrity check zlib uses). Protects against
/// corrupt streams that would otherwise decode to plausible garbage.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    // Process in chunks small enough that the sums cannot overflow.
    for chunk in data.chunks(5_552) {
        // A little-endian word at a time: byte i of the word is added
        // to `b` once for itself and once for each byte after it, 8 − i
        // times, and `a` as it stood before the word eight times. The
        // even and the odd bytes sit in four 16-bit lanes each; one
        // multiply sums the lanes, weighted, into the top lane (at most
        // 255 · 20, so no lane carries into the next).
        const LANES: u64 = 0x00FF_00FF_00FF_00FF;
        const ONES: u64 = 1 | 1 << 16 | 1 << 32 | 1 << 48;
        const EVEN: u64 = 2 | 4 << 16 | 6 << 32 | 8 << 48;
        const ODD: u64 = 1 | 3 << 16 | 5 << 32 | 7 << 48;
        let mut words = chunk.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
            let (even, odd) = (word & LANES, (word >> 8) & LANES);
            let sum = (even + odd).wrapping_mul(ONES) >> 48;
            let weighted = (even.wrapping_mul(EVEN) >> 48) + (odd.wrapping_mul(ODD) >> 48);
            b += 8 * a + weighted as u32;
            a += sum as u32;
        }
        for &byte in words.remainder() {
            a += u32::from(byte);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Literal/length alphabet size: 256 literals + EOB + 29 length codes.
const NUM_LITLEN: usize = 286;
/// Distance alphabet size.
const NUM_DIST: usize = 30;
// The two code-length tables are stored as one run of nibble pairs.
const _: () = assert!((NUM_LITLEN + NUM_DIST).is_multiple_of(2));
/// Bytes in front of the first block: magic, length, checksum.
const STREAM_HEADER: usize = 16;
/// Bytes in front of a block's body: kind and decoded length.
const BLOCK_HEADER: usize = 5;

/// `(extra_bits, base)` per length code 257..=285 (RFC 1951).
const LENGTH_CODES: [(u32, u16); 29] = [
    (0, 3),
    (0, 4),
    (0, 5),
    (0, 6),
    (0, 7),
    (0, 8),
    (0, 9),
    (0, 10),
    (1, 11),
    (1, 13),
    (1, 15),
    (1, 17),
    (2, 19),
    (2, 23),
    (2, 27),
    (2, 31),
    (3, 35),
    (3, 43),
    (3, 51),
    (3, 59),
    (4, 67),
    (4, 83),
    (4, 99),
    (4, 115),
    (5, 131),
    (5, 163),
    (5, 195),
    (5, 227),
    (0, 258),
];

/// `(extra_bits, base)` per distance code 0..=29 (RFC 1951).
const DIST_CODES: [(u32, u16); 30] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 4),
    (1, 5),
    (1, 7),
    (2, 9),
    (2, 13),
    (3, 17),
    (3, 25),
    (4, 33),
    (4, 49),
    (5, 65),
    (5, 97),
    (6, 129),
    (6, 193),
    (7, 257),
    (7, 385),
    (8, 513),
    (8, 769),
    (9, 1025),
    (9, 1537),
    (10, 2049),
    (10, 3073),
    (11, 4097),
    (11, 6145),
    (12, 8193),
    (12, 12289),
    (13, 16385),
    (13, 24577),
];

/// Index of the last code in `codes` whose base is at most `value`.
const fn code_index(codes: &[(u32, u16)], value: u16) -> u8 {
    let mut idx = codes.len() - 1;
    while codes[idx].1 > value {
        idx -= 1;
    }
    idx as u8
}

/// Length code index per match length `3..=258`.
const LENGTH_INDEX: [u8; lz77::MAX_MATCH + 1] = {
    let mut table = [0u8; lz77::MAX_MATCH + 1];
    let mut len = lz77::MIN_MATCH;
    while len <= lz77::MAX_MATCH {
        table[len] = code_index(&LENGTH_CODES, len as u16);
        len += 1;
    }
    table
};

/// Distance code index, zlib's two-range table: entry `d - 1` for
/// distances up to 256, entry `256 + ((d - 1) >> 7)` beyond — from
/// distance 257 on every code starts on a multiple of 128, plus one.
const DIST_INDEX: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut i = 0;
    while i < 256 {
        table[i] = code_index(&DIST_CODES, i as u16 + 1);
        table[256 + i] = code_index(&DIST_CODES, ((i as u16) << 7) + 1);
        i += 1;
    }
    table
};

fn length_symbol(len: u16) -> (usize, u32, u32) {
    debug_assert!((3..=258).contains(&len));
    let idx = LENGTH_INDEX[len as usize] as usize;
    let (extra, base) = LENGTH_CODES[idx];
    (257 + idx, extra, u32::from(len - base))
}

fn dist_symbol(dist: u16) -> (usize, u32, u32) {
    debug_assert!((1..=lz77::MAX_DIST).contains(&(dist as usize)));
    let d = dist as usize - 1;
    let idx = DIST_INDEX[if d < 256 { d } else { 256 + (d >> 7) }] as usize;
    let (extra, base) = DIST_CODES[idx];
    (idx, extra, u32::from(dist - base))
}

/// Bytes of the packed code-length tables a Huffman block opens with.
const TABLE_BYTES: usize = (NUM_LITLEN + NUM_DIST) / 2;
/// Largest block that is stored without looking at it: the Huffman
/// estimate is payload + tables + 8 bytes of framing and a block is
/// stored unless that is smaller than the block, which an empty
/// payload already is not at this size.
const STORED_UP_TO: usize = TABLE_BYTES + 8;

/// The DEFLATE-style codec. Stateless; `Default` gives the standard
/// configuration.
#[derive(Debug, Default, Clone, Copy)]
pub struct Deflate;

fn stored_block(block: &[u8], out: &mut Vec<u8>) {
    out.push(0);
    out.extend_from_slice(&(block.len() as u32).to_le_bytes());
    out.extend_from_slice(block);
}

impl Deflate {
    /// Append `block` to `out` as a stored or a Huffman block.
    ///
    /// Most blocks are a storage unit's few hundred bytes and end up
    /// stored (DESIGN §7), so the decision is taken as early as it is
    /// exact: by size alone up to [`STORED_UP_TO`] bytes, otherwise
    /// from the two frequency tables and their code lengths — the
    /// encoder tables and the bit stream exist only for a block that
    /// is Huffman-coded, and go straight into `out`.
    fn compress_block(&self, block: &[u8], out: &mut Vec<u8>) {
        if block.len() <= STORED_UP_TO {
            return stored_block(block, out);
        }
        let tokens = lz77::tokenize(block);

        // Gather symbol frequencies and the extra bits of the matches.
        let mut lit_freq = [0u32; NUM_LITLEN];
        let mut dist_freq = [0u32; NUM_DIST];
        let mut extra_bits = 0u64;
        lit_freq[EOB] = 1;
        for &t in &tokens {
            match t {
                Token::Literal(b) => lit_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    let (ls, le, _) = length_symbol(len);
                    let (ds, de, _) = dist_symbol(dist);
                    lit_freq[ls] += 1;
                    dist_freq[ds] += 1;
                    extra_bits += u64::from(le + de);
                }
            }
        }
        // Code-length tables, litlen then dist, as they are stored.
        let mut lens = [0u8; NUM_LITLEN + NUM_DIST];
        let (lit_lens, dist_lens) = lens.split_at_mut(NUM_LITLEN);
        code_lengths(&lit_freq, MAX_CODE_LEN, lit_lens);
        code_lengths(&dist_freq, MAX_CODE_LEN, dist_lens);

        // Estimate the compressed size; fall back to a stored block if
        // Huffman coding does not pay off. The estimate counts every
        // token's code and extra bits but not the end-of-block code.
        let code_bits = |freq: &[u32], lens: &[u8]| {
            let each = freq.iter().zip(lens);
            each.map(|(&f, &l)| u64::from(f) * u64::from(l))
                .sum::<u64>()
        };
        let bits = code_bits(&lit_freq, lit_lens) - u64::from(lit_lens[EOB])
            + code_bits(&dist_freq, dist_lens)
            + extra_bits;
        let huff_bytes = (bits as usize).div_ceil(8) + TABLE_BYTES + 8;
        if huff_bytes >= block.len() {
            return stored_block(block, out);
        }

        out.push(1); // huffman
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        let lit_enc = Encoder::from_lengths(lit_lens);
        let dist_enc = Encoder::from_lengths(dist_lens);
        out.extend(lens.chunks_exact(2).map(|pair| pair[0] | (pair[1] << 4)));
        // The payload's length goes in front of it, once it is known.
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]);

        let mut w = BitWriter::appending_to(std::mem::take(out));
        for &t in &tokens {
            match t {
                Token::Literal(b) => lit_enc.write(&mut w, b as usize),
                Token::Match { len, dist } => {
                    let (ls, le, lx) = length_symbol(len);
                    lit_enc.write(&mut w, ls);
                    if le > 0 {
                        w.write_bits(lx, le);
                    }
                    let (ds, de, dx) = dist_symbol(dist);
                    dist_enc.write(&mut w, ds);
                    if de > 0 {
                        w.write_bits(dx, de);
                    }
                }
            }
        }
        lit_enc.write(&mut w, EOB);
        *out = w.finish();
        let payload_len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
    }

    /// Decode a whole MDF1 stream into the empty `out`, which never
    /// grows past the length the stream header declares.
    fn decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        let mut pos = 0usize;
        let header = take(input, &mut pos, STREAM_HEADER)?;
        if le_u32(header) != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let total = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let total = usize::try_from(total).map_err(|_| CodecError::Corrupt("length overflow"))?;
        let checksum = le_u32(&header[12..]);
        // `total` is untrusted: pre-reserve only a bounded amount.
        out.reserve_exact(total.min(16 << 20));
        while out.len() < total {
            Self::decompress_block(input, &mut pos, total - out.len(), out)?;
        }
        if adler32(out) != checksum {
            return Err(CodecError::Corrupt("checksum mismatch"));
        }
        Ok(())
    }

    /// Decode the block at `*pos`, appending at most `room` bytes (what
    /// the stream header says is still missing) to `out`.
    fn decompress_block(
        data: &[u8],
        pos: &mut usize,
        room: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let header = take(data, pos, BLOCK_HEADER)?;
        let kind = header[0];
        let orig_len = le_u32(&header[1..]) as usize;
        // Every encoder cuts its input into `BLOCK_SIZE` blocks; holding
        // the decoder to that, and to what the stream still owes, caps
        // what one block header can make `out` grow by.
        if orig_len > room.min(BLOCK_SIZE) {
            return Err(CodecError::Corrupt("block length out of range"));
        }
        match kind {
            0 => {
                out.extend_from_slice(take(data, pos, orig_len)?);
                Ok(())
            }
            1 => {
                // Code-length tables: packed nibbles, litlen then dist.
                let mut lens = [0u8; NUM_LITLEN + NUM_DIST];
                let packed = take(data, pos, lens.len().div_ceil(2))?;
                for (pair, &b) in lens.chunks_exact_mut(2).zip(packed) {
                    pair[0] = b & 0xF;
                    pair[1] = b >> 4;
                }
                let (lit_lens, dist_lens) = lens.split_at(NUM_LITLEN);
                let payload_len = le_u32(take(data, pos, 4)?) as usize;
                let payload = take(data, pos, payload_len)?;

                let block_start = out.len();
                out.resize(block_start + orig_len, 0);
                let dst = &mut out[block_start..];

                let mut lit_table = [0u16; MAX_TABLE_LEN];
                let lit_dec = Decoder::from_lengths(lit_lens, &mut lit_table)?;
                // A block of literals only carries an all-zero distance
                // alphabet: build nothing for it.
                if dist_lens.iter().all(|&l| l == 0) {
                    return inflate(&lit_dec, None, payload, dst);
                }
                let mut dist_table = [0u16; MAX_TABLE_LEN];
                let dist_dec = Decoder::from_lengths(dist_lens, &mut dist_table)?;
                inflate(&lit_dec, Some(&dist_dec), payload, dst)
            }
            _ => Err(CodecError::Corrupt("unknown block type")),
        }
    }
}

/// The next `n` bytes of `data` at `*pos`, advancing `*pos` past them.
fn take<'a>(data: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CodecError> {
    let end = pos.checked_add(n).ok_or(CodecError::Truncated)?;
    let bytes = data.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    Ok(bytes)
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

/// Decode one Huffman block's symbols from `payload` into `dst`, the
/// block's whole output. The slice is the bound: the first literal or
/// match that would pass its end fails the block, so a few bytes of
/// crafted matches cannot expand without limit.
fn inflate(
    lit_dec: &Decoder<'_>,
    dist_dec: Option<&Decoder<'_>>,
    payload: &[u8],
    dst: &mut [u8],
) -> Result<(), CodecError> {
    const OVERRUN: CodecError = CodecError::Corrupt("block output exceeds its declared length");
    let mut r = BitReader::new(payload);
    let mut pos = 0usize;
    loop {
        let sym = lit_dec.read(&mut r)?;
        match sym {
            0..=255 => {
                *dst.get_mut(pos).ok_or(OVERRUN)? = sym as u8;
                pos += 1;
            }
            EOB => break,
            257..=285 => {
                let (extra, base) = LENGTH_CODES[sym - 257];
                let len = base as usize + r.read_bits(extra)? as usize;
                let dsym = match dist_dec {
                    Some(d) => d.read(&mut r)?,
                    None => return Err(CodecError::Corrupt("invalid Huffman code")),
                };
                let (dextra, dbase) = DIST_CODES[dsym];
                let dist = dbase as usize + r.read_bits(dextra)? as usize;
                if dist > pos {
                    return Err(CodecError::Corrupt("distance reaches before block start"));
                }
                if len > dst.len() - pos {
                    return Err(OVERRUN);
                }
                // A match longer than its distance repeats its own
                // output with period `dist`, so everything from `start`
                // on is a valid source: each pass copies all of it and
                // doubles the span (one pass when `dist >= len`).
                let (start, end) = (pos - dist, pos + len);
                while pos < end {
                    let n = (end - pos).min(pos - start);
                    dst.copy_within(start..start + n, pos);
                    pos += n;
                }
            }
            _ => return Err(CodecError::Corrupt("bad literal/length symbol")),
        }
    }
    if pos != dst.len() {
        return Err(CodecError::LengthMismatch {
            expected: dst.len(),
            actual: pos,
        });
    }
    Ok(())
}

impl Codec for Deflate {
    fn name(&self) -> &'static str {
        "deflate"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        // A unit-sized input becomes one stored block: size it exactly.
        let mut out = Vec::with_capacity(if input.len() <= STORED_UP_TO {
            STREAM_HEADER + BLOCK_HEADER + input.len()
        } else {
            input.len() / 2 + 64
        });
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        out.extend_from_slice(&adler32(input).to_le_bytes());
        for block in input.chunks(BLOCK_SIZE) {
            self.compress_block(block, &mut out);
        }
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        Self::decompress_into(input, &mut out)?;
        Ok(out)
    }
}

/// The encoder as it stood before it was sized for storage units,
/// kept verbatim as the differential oracle of the one above: linear
/// symbol scans, a full tokenization and two code constructions for
/// every block, the stored decision last.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub fn length_symbol(len: u16) -> (usize, u32, u32) {
        debug_assert!((3..=258).contains(&len));
        // Find the last code whose base <= len.
        let mut idx = LENGTH_CODES.len() - 1;
        for (i, &(_, base)) in LENGTH_CODES.iter().enumerate() {
            if base > len {
                idx = i - 1;
                break;
            }
        }
        let (extra, base) = LENGTH_CODES[idx];
        (257 + idx, extra, u32::from(len - base))
    }

    pub fn dist_symbol(dist: u16) -> (usize, u32, u32) {
        debug_assert!(dist >= 1);
        let mut idx = DIST_CODES.len() - 1;
        for (i, &(_, base)) in DIST_CODES.iter().enumerate() {
            if base > dist {
                idx = i - 1;
                break;
            }
        }
        let (extra, base) = DIST_CODES[idx];
        (idx, extra, u32::from(dist - base))
    }

    fn compress_block(block: &[u8], out: &mut Vec<u8>) {
        let tokens = lz77::oracle::tokenize(block);

        // Gather symbol frequencies.
        let mut lit_freq = vec![0u64; NUM_LITLEN];
        let mut dist_freq = vec![0u64; NUM_DIST];
        lit_freq[EOB] = 1;
        for &t in &tokens {
            match t {
                Token::Literal(b) => lit_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    lit_freq[length_symbol(len).0] += 1;
                    dist_freq[dist_symbol(dist).0] += 1;
                }
            }
        }
        let lit_lens = huffman::oracle::code_lengths(&lit_freq, MAX_CODE_LEN);
        let dist_lens = huffman::oracle::code_lengths(&dist_freq, MAX_CODE_LEN);
        let lit_enc = Encoder::from_lengths(&lit_lens);
        let dist_enc = Encoder::from_lengths(&dist_lens);

        // Estimate the compressed size; fall back to a stored block if
        // Huffman coding does not pay off.
        let mut bits = 0u64;
        for &t in &tokens {
            match t {
                Token::Literal(b) => bits += u64::from(lit_enc.len_of(b as usize)),
                Token::Match { len, dist } => {
                    let (ls, le, _) = length_symbol(len);
                    let (ds, de, _) = dist_symbol(dist);
                    bits += u64::from(lit_enc.len_of(ls)) + u64::from(le);
                    bits += u64::from(dist_enc.len_of(ds)) + u64::from(de);
                }
            }
        }
        let table_bytes = (NUM_LITLEN + NUM_DIST).div_ceil(2);
        let huff_bytes = (bits as usize).div_ceil(8) + table_bytes + 8;
        if huff_bytes >= block.len() {
            out.push(0); // stored
            out.extend_from_slice(&(block.len() as u32).to_le_bytes());
            out.extend_from_slice(block);
            return;
        }

        out.push(1); // huffman
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        // Code-length tables: packed nibbles, litlen then dist.
        let mut nibbles = Vec::with_capacity(NUM_LITLEN + NUM_DIST);
        nibbles.extend_from_slice(&lit_lens);
        nibbles.extend_from_slice(&dist_lens);
        for pair in nibbles.chunks(2) {
            let lo = pair[0];
            let hi = pair.get(1).copied().unwrap_or(0);
            out.push(lo | (hi << 4));
        }

        let mut w = BitWriter::new();
        for &t in &tokens {
            match t {
                Token::Literal(b) => lit_enc.write(&mut w, b as usize),
                Token::Match { len, dist } => {
                    let (ls, le, lx) = length_symbol(len);
                    lit_enc.write(&mut w, ls);
                    if le > 0 {
                        w.write_bits(lx, le);
                    }
                    let (ds, de, dx) = dist_symbol(dist);
                    dist_enc.write(&mut w, ds);
                    if de > 0 {
                        w.write_bits(dx, de);
                    }
                }
            }
        }
        lit_enc.write(&mut w, EOB);
        let payload = w.finish();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }

    /// Bytewise Adler-32, as it stood before it took a word at a time.
    pub fn adler32(data: &[u8]) -> u32 {
        const MOD: u32 = 65_521;
        let mut a: u32 = 1;
        let mut b: u32 = 0;
        // Process in chunks small enough that the sums cannot overflow.
        for chunk in data.chunks(5_552) {
            for &byte in chunk {
                a += u32::from(byte);
                b += a;
            }
            a %= MOD;
            b %= MOD;
        }
        (b << 16) | a
    }

    /// `Deflate::compress` over the routines above.
    pub fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 64);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        out.extend_from_slice(&adler32(input).to_le_bytes());
        for block in input.chunks(BLOCK_SIZE) {
            compress_block(block, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = Deflate.compress(data);
        assert_eq!(Deflate.decompress(&c).unwrap(), data, "roundtrip failed");
        c.len()
    }

    #[test]
    fn empty_input() {
        assert!(roundtrip(b"") <= 16);
    }

    #[test]
    fn adler32_known_values() {
        // Reference values from the zlib specification.
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        // Captured from the bytewise loop at the commit before the
        // word-at-a-time one: a long input for the modular-reduction
        // chunking, and the 0..=255 ramp cut around a word or two and
        // around one 5,552-byte chunk.
        assert_eq!(adler32(&vec![0xABu8; 1_000_000]), 0xB146_D9A0);
        let ramp: Vec<u8> = (0..5_553usize).map(|i| i as u8).collect();
        for (n, sum) in [
            (1usize, 0x0001_0001u32),
            (15, 0x023F_006A),
            (16, 0x02B8_0079),
            (17, 0x0341_0089),
            (5_551, 0xC77E_B190),
            (5_552, 0x79CC_B23F),
            (5_553, 0x2CCA_B2EF),
        ] {
            assert_eq!(adler32(&ramp[..n]), sum, "ramp[..{n}]");
        }
    }

    #[test]
    fn adler32_matches_the_bytewise_loop() {
        // Every word count and tail length at every start alignment,
        // on bytes heavy enough to fill the lanes.
        let data = xorshift_bytes(608, |x| (x >> 24) as u8 | 0x80);
        for offset in 0..8 {
            for len in 0..=600 {
                let slice = &data[offset..offset + len];
                assert_eq!(adler32(slice), oracle::adler32(slice), "{offset}+{len}");
            }
        }
        let long = xorshift_bytes(3 * 5_552 + 7, |x| (x >> 16) as u8);
        assert_eq!(adler32(&long), oracle::adler32(&long));
        let ones = vec![0xFFu8; 2 * 5_552 + 1];
        assert_eq!(adler32(&ones), oracle::adler32(&ones));
    }

    #[test]
    fn bitflips_are_detected() {
        let data = b"scientific data is precious and must not rot ".repeat(200);
        let c = Deflate.compress(&data);
        // Flip one bit in every region of the stream: header, tables,
        // payload. Every case must error, never return wrong bytes.
        for pos in [16usize, 30, c.len() / 2, c.len() - 2] {
            let mut bad = c.clone();
            bad[pos] ^= 0x04;
            match Deflate.decompress(&bad) {
                Err(_) => {}
                Ok(out) => assert_eq!(out, data, "undetected corruption at {pos}"),
            }
        }
        // Corrupting the stored checksum itself must error.
        let mut bad = c.clone();
        bad[13] ^= 0xFF;
        assert!(Deflate.decompress(&bad).is_err());
    }

    #[test]
    fn small_inputs() {
        roundtrip(b"a");
        roundtrip(b"hello, world");
        roundtrip(&[0u8; 3]);
    }

    fn xorshift_bytes(n: usize, byte: impl Fn(u32) -> u8) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                byte(x)
            })
            .collect()
    }

    #[test]
    fn roundtrips_at_unit_and_block_boundaries() {
        // 164 points is the benchmark's mean storage unit, 163..=328
        // bytes its PLoD parts, 573 the mean Huffman block; 128 KiB is
        // the block size.
        for n in [
            0,
            1,
            163,
            164,
            328,
            573,
            BLOCK_SIZE - 1,
            BLOCK_SIZE,
            BLOCK_SIZE + 1,
        ] {
            // Like a PLoD part: few distinct values, no long repeats —
            // Huffman-coded, mostly literals.
            let part = xorshift_bytes(n, |x| 0x40 + (x % 7) as u8 * (x >> 29) as u8);
            let c = Deflate.compress(&part);
            assert_eq!(Deflate.decompress(&c).unwrap(), part, "part, {n} bytes");
            // Incompressible bytes take the stored-block path.
            let noise = xorshift_bytes(n, |x| (x >> 8) as u8);
            let c = Deflate.compress(&noise);
            assert_eq!(Deflate.decompress(&c).unwrap(), noise, "noise, {n} bytes");
            if n >= 573 {
                let kind = |data: &[u8]| Deflate.compress(data)[16];
                assert_eq!((kind(&part), kind(&noise)), (1, 0), "{n} bytes");
            }
        }
    }

    /// A hand-built MDF1 stream of one Huffman block: the header
    /// declares `total` bytes (all zero, for the checksum), the block
    /// `block_len`, coded with `lens`.
    fn one_block_stream(total: u64, block_len: u32, lens: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut s = Vec::new();
        s.extend_from_slice(&MAGIC.to_le_bytes());
        s.extend_from_slice(&total.to_le_bytes());
        s.extend_from_slice(&adler32(&vec![0; total as usize]).to_le_bytes());
        s.push(1);
        s.extend_from_slice(&block_len.to_le_bytes());
        s.extend(lens.chunks(2).map(|p| p[0] | (p[1] << 4)));
        s.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        s.extend_from_slice(payload);
        s
    }

    /// A stream whose payload is one literal followed by `matches`
    /// length-258/distance-1 matches (two bits each) and the
    /// end-of-block code.
    fn match_bomb(total: u64, block_len: u32, matches: usize) -> Vec<u8> {
        let mut lens = [0u8; NUM_LITLEN + NUM_DIST];
        lens[0] = 2; // literal 0
        lens[EOB] = 2;
        lens[285] = 1; // length 258, no extra bits
        lens[NUM_LITLEN] = 1; // distance 1, no extra bits
        let lit_enc = Encoder::from_lengths(&lens[..NUM_LITLEN]);
        let dist_enc = Encoder::from_lengths(&lens[NUM_LITLEN..]);
        let mut w = BitWriter::new();
        lit_enc.write(&mut w, 0);
        for _ in 0..matches {
            lit_enc.write(&mut w, 285);
            dist_enc.write(&mut w, 0);
        }
        lit_enc.write(&mut w, EOB);
        one_block_stream(total, block_len, &lens, &w.finish())
    }

    #[test]
    fn output_is_bounded_by_the_declared_length() {
        // The builder makes decodable streams: one literal and one
        // match, declared as the 259 bytes they are.
        let ok = match_bomb(259, 259, 1);
        assert_eq!(Deflate.decompress(&ok), Ok(vec![0; 259]));

        // 16 bytes declared, ~1 MiB encoded in ~1 KiB of matches: the
        // first match already passes the block's end.
        let bomb = match_bomb(16, 16, 4064);
        assert!(bomb.len() < 1300);
        let mut out = Vec::new();
        assert_eq!(
            Deflate::decompress_into(&bomb, &mut out),
            Err(CodecError::Corrupt(
                "block output exceeds its declared length"
            ))
        );
        assert!(out.capacity() <= 16, "grew to {}", out.capacity());

        // The same payload in a block that owns up to its size is
        // refused before a symbol is decoded: it cannot fit the stream.
        // Nor may a block exceed the block size, whatever the stream
        // declares.
        for (total, block_len) in [(16, 1 << 20), (1 << 20, 1 << 20)] {
            let bomb = match_bomb(total, block_len, 4064);
            let mut out = Vec::new();
            assert_eq!(
                Deflate::decompress_into(&bomb, &mut out),
                Err(CodecError::Corrupt("block length out of range"))
            );
            assert!(out.is_empty() && out.capacity() as u64 <= total);
        }

        // A literal past the end is caught like a match: three
        // literals in a block (and a stream) of two.
        let mut lens = [0u8; NUM_LITLEN + NUM_DIST];
        (lens[0], lens[EOB]) = (1, 1);
        let enc = Encoder::from_lengths(&lens[..NUM_LITLEN]);
        let mut w = BitWriter::new();
        for sym in [0, 0, 0, EOB] {
            enc.write(&mut w, sym);
        }
        assert_eq!(
            Deflate.decompress(&one_block_stream(2, 2, &lens, &w.finish())),
            Err(CodecError::Corrupt(
                "block output exceeds its declared length"
            ))
        );
    }

    /// The three byte distributions the encoder is held to its oracle
    /// on: 4 symbols (2 bits per byte, dense in matches), 64 skewed
    /// symbols (Huffman-coded once a block amortizes its tables), and
    /// all 256 (stored at any size).
    fn distributions(n: usize) -> [Vec<u8>; 3] {
        [
            xorshift_bytes(n, |x| (x >> 24) as u8 & 3),
            xorshift_bytes(n, |x| 0x20 + ((x >> 8) & 63).min((x >> 16) & 63) as u8),
            xorshift_bytes(n, |x| (x >> 24) as u8),
        ]
    }

    #[test]
    fn encoder_matches_oracle_at_every_unit_length() {
        let full = distributions(700);
        let mut kinds = [[0usize; 2]; 3];
        for n in 0..=700 {
            for (d, data) in full.iter().enumerate() {
                // Slide the window so that lengths differ in content.
                let data = &data[(700 - n) / 2..][..n];
                let got = Deflate.compress(data);
                assert_eq!(got, oracle::compress(data), "distribution {d}, {n} bytes");
                if n > 0 {
                    kinds[d][got[STREAM_HEADER] as usize] += 1;
                }
            }
        }
        // Both branches were taken where they can be: noise is stored
        // throughout, the other two switch to Huffman blocks.
        assert!(kinds[0][0] > STORED_UP_TO && kinds[0][1] > 300, "{kinds:?}");
        assert!(kinds[1][0] > STORED_UP_TO && kinds[1][1] > 0, "{kinds:?}");
        assert_eq!(kinds[2], [700, 0]);
    }

    #[test]
    fn encoder_matches_oracle_around_the_block_size() {
        for n in [BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1] {
            for (d, data) in distributions(n).iter().enumerate() {
                assert_eq!(
                    Deflate.compress(data),
                    oracle::compress(data),
                    "distribution {d}, {n} bytes"
                );
            }
        }
    }

    #[test]
    fn blocks_up_to_the_table_size_are_stored_unseen() {
        // The most compressible input there is — one literal and one
        // match, two payload bytes — is still stored at 166 bytes: the
        // tables alone outweigh it. It pays from 169 bytes on.
        assert_eq!(STORED_UP_TO, 166);
        let kind = |n: usize| Deflate.compress(&vec![7u8; n])[STREAM_HEADER];
        let first_huffman = (1..400).find(|&n| kind(n) == 1);
        assert_eq!(first_huffman, Some(169));
    }

    #[test]
    fn compresses_text() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(500);
        let size = roundtrip(&data);
        assert!(
            size < data.len() / 5,
            "ratio too poor: {size} vs {}",
            data.len()
        );
    }

    #[test]
    fn compresses_runs() {
        let data = vec![42u8; 1_000_000];
        let size = roundtrip(&data);
        assert!(size < 5_000, "run compression too poor: {size}");
    }

    #[test]
    fn random_data_falls_back_to_stored() {
        let mut x = 0x243F_6A88u32;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect();
        let size = roundtrip(&data);
        // Incompressible data must not blow up: stored fallback bounds
        // overhead to the per-block header.
        assert!(size <= data.len() + 16 + 5 * 2, "size {size}");
    }

    #[test]
    fn multi_block_input() {
        let data: Vec<u8> = (0..400_000).map(|i| ((i / 100) % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut c = Deflate.compress(b"hello");
        c[0] ^= 0x5A;
        assert_eq!(Deflate.decompress(&c), Err(CodecError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let c = Deflate.compress(&b"some compressible data ".repeat(100));
        for cut in [4, 12, 15, c.len() - 1] {
            assert!(Deflate.decompress(&c[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn length_symbol_table_is_consistent() {
        for len in 3..=258u16 {
            let (sym, extra, extra_val) = length_symbol(len);
            assert_eq!((sym, extra, extra_val), oracle::length_symbol(len));
            assert!((257..=285).contains(&sym));
            let (e, base) = LENGTH_CODES[sym - 257];
            assert_eq!(e, extra);
            assert_eq!(u32::from(len) - u32::from(base), extra_val);
            assert!(extra_val < (1 << e.max(1)));
        }
    }

    #[test]
    fn dist_symbol_table_is_consistent() {
        for dist in 1..=32768u32 {
            let (sym, extra, extra_val) = dist_symbol(dist as u16);
            assert_eq!((sym, extra, extra_val), oracle::dist_symbol(dist as u16));
            if dist > u16::MAX as u32 {
                continue;
            }
            assert!(sym < 30);
            let (e, base) = DIST_CODES[sym];
            assert_eq!(e, extra);
            assert_eq!(dist - u32::from(base), extra_val);
            if e > 0 {
                assert!(extra_val < (1 << e));
            } else {
                assert_eq!(extra_val, 0);
            }
        }
    }
}
