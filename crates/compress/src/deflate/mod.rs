//! A DEFLATE-style byte codec: LZ77 + canonical Huffman coding.
//!
//! The machinery is zlib's: hash-chain LZ77 with a 32 KiB window,
//! length/distance symbol alphabets with extra bits and RFC 1951's
//! three block kinds — stored, fixed code (§3.2.6's code lengths, no
//! table) and dynamic code (the block's own canonical codes). Only the
//! framing is our own, and it is none: a payload is the blocks alone.
//!
//! A payload encodes a known number of raw bytes (a bin file derives it
//! from the unit's count), cut into [`BLOCK_SIZE`] blocks, the last one
//! possibly shorter. Each block is a kind byte and its body:
//!
//! * `0` stored — the block's bytes;
//! * `1` fixed — the coded symbols up to the end-of-block code, padded
//!   to a byte;
//! * `2` dynamic — the two code-length tables as nibbles
//!   ([`TABLE_BYTES`]), then the coded symbols as for `1`.
//!
//! The encoder keeps the smallest kind of each block, and the raw
//! bytes themselves when the blocks would not be shorter (the raw rule
//! of [`Codec`]). No length, magic or checksum is stored: a bin file's
//! data table checksums every part, and a payload must decode to
//! exactly its raw length and be consumed whole.

pub mod huffman;
pub mod lz77;

use crate::bitio::{BitReader, BitWriter};
use crate::{Codec, CodecError};
use huffman::{code_lengths, Decoder, Encoder, MAX_CODE_LEN, MAX_TABLE_LEN};
use lz77::Token;
use std::sync::OnceLock;

/// Raw bytes per block: bounds what one block makes a decoder write.
pub(crate) const BLOCK_SIZE: usize = 128 * 1024;

/// Block kinds.
const STORED: u8 = 0;
const FIXED: u8 = 1;
const DYNAMIC: u8 = 2;

/// End-of-block symbol in the literal/length alphabet.
pub(crate) const EOB: usize = 256;
/// Literal/length alphabet size: 256 literals + EOB + 29 length codes.
pub(crate) const NUM_LITLEN: usize = 286;
/// Distance alphabet size.
pub(crate) const NUM_DIST: usize = 30;
// The two code-length tables are stored as one run of nibble pairs.
const _: () = assert!((NUM_LITLEN + NUM_DIST).is_multiple_of(2));

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

/// Bytes of the packed code-length tables a dynamic block opens with.
pub(crate) const TABLE_BYTES: usize = (NUM_LITLEN + NUM_DIST) / 2;

/// RFC 1951's fixed code lengths (§3.2.6), literal/length then
/// distance. Its literal/length symbols 286 and 287 and distance
/// symbols 30 and 31 never occur, so the alphabets stop before them;
/// the canonical codes of the others are the RFC's.
const FIXED_LENS: [u8; NUM_LITLEN + NUM_DIST] = {
    let mut lens = [5u8; NUM_LITLEN + NUM_DIST];
    let mut sym = 0;
    while sym < NUM_LITLEN {
        lens[sym] = match sym {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
        sym += 1;
    }
    lens
};

/// The fixed code's encoders, built once.
fn fixed_encoders() -> &'static (Encoder, Encoder) {
    static FIXED_ENC: OnceLock<(Encoder, Encoder)> = OnceLock::new();
    FIXED_ENC.get_or_init(|| {
        let (lit, dist) = FIXED_LENS.split_at(NUM_LITLEN);
        (Encoder::from_lengths(lit), Encoder::from_lengths(dist))
    })
}

/// The fixed code's decoders, built once: a fixed block decodes from
/// these static tables and builds none of its own.
fn fixed_decoders() -> &'static (Decoder<'static>, Decoder<'static>) {
    static FIXED_DEC: OnceLock<(Decoder<'static>, Decoder<'static>)> = OnceLock::new();
    FIXED_DEC.get_or_init(|| {
        let (lit, dist) = FIXED_LENS.split_at(NUM_LITLEN);
        let table = || Box::leak(Box::new([0u16; MAX_TABLE_LEN]));
        let lit = Decoder::from_lengths(lit, table()).expect("RFC 1951's code");
        let dist = Decoder::from_lengths(dist, table()).expect("RFC 1951's code");
        (lit, dist)
    })
}

/// The DEFLATE-style codec. Stateless; `Default` gives the standard
/// configuration.
#[derive(Debug, Default, Clone, Copy)]
pub struct Deflate;

/// Bits of `freq` coded with `lens`.
fn code_bits(freq: &[u32], lens: &[u8]) -> u64 {
    let each = freq.iter().zip(lens);
    each.map(|(&f, &l)| u64::from(f) * u64::from(l)).sum()
}

/// Append `block` to `out` as the smallest of its three kinds, unless
/// that would make `out` reach `limit` bytes — the payload's raw
/// length, past which the raw bytes are stored instead: then write
/// nothing and return `false`.
///
/// Every size is exact and comes from the tokens' two frequency tables:
/// the fixed code's from its static lengths, the dynamic code's from
/// the lengths built for the block — which only a block whose fixed
/// code outweighs a table builds. Ties go to the kind cheaper to decode
/// (stored, then fixed). `out` is sized for `limit` bytes once, so it
/// never grows again.
fn encode_block(block: &[u8], out: &mut Vec<u8>, limit: usize) -> bool {
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
    let body_bytes = |lens: &[u8]| {
        let (lit, dist) = lens.split_at(NUM_LITLEN);
        let bits = code_bits(&lit_freq, lit) + code_bits(&dist_freq, dist) + extra_bits;
        bits.div_ceil(8) as usize
    };
    let stored = block.len();
    let fixed = body_bytes(&FIXED_LENS);
    // Code-length tables, litlen then dist, as they are stored.
    let mut lens = [0u8; NUM_LITLEN + NUM_DIST];
    let dynamic = if fixed.min(stored) > TABLE_BYTES + 1 {
        let (lit_lens, dist_lens) = lens.split_at_mut(NUM_LITLEN);
        code_lengths(&lit_freq, MAX_CODE_LEN, lit_lens);
        code_lengths(&dist_freq, MAX_CODE_LEN, dist_lens);
        TABLE_BYTES + body_bytes(&lens)
    } else {
        usize::MAX
    };

    if out.len() + 1 + stored.min(fixed).min(dynamic) >= limit {
        return false;
    }
    if out.capacity() == 0 {
        out.reserve_exact(limit);
    }
    if stored <= fixed.min(dynamic) {
        out.push(STORED);
        out.extend_from_slice(block);
    } else if fixed <= dynamic {
        out.push(FIXED);
        let (lit_enc, dist_enc) = fixed_encoders();
        write_symbols(&tokens, lit_enc, dist_enc, out);
    } else {
        out.push(DYNAMIC);
        out.extend(lens.chunks_exact(2).map(|pair| pair[0] | (pair[1] << 4)));
        let (lit_lens, dist_lens) = lens.split_at(NUM_LITLEN);
        let lit_enc = Encoder::from_lengths(lit_lens);
        let dist_enc = Encoder::from_lengths(dist_lens);
        write_symbols(&tokens, &lit_enc, &dist_enc, out);
    }
    true
}

/// Append `tokens` and the end-of-block code to `out`, coded with the
/// two encoders, padded to a byte.
fn write_symbols(tokens: &[Token], lit_enc: &Encoder, dist_enc: &Encoder, out: &mut Vec<u8>) {
    let mut w = BitWriter::appending_to(std::mem::take(out));
    for &t in tokens {
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
}

/// The next `n` bytes of `data` at `*pos`, advancing `*pos` past them.
pub(crate) fn take<'a>(data: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CodecError> {
    let end = pos.checked_add(n).ok_or(CodecError::Truncated)?;
    let bytes = data.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    Ok(bytes)
}

/// Decode the coded symbols at the start of `data` — a block body
/// after its tables — into `dst`, the block's whole output, with the
/// code-length tables `tables` (packed nibbles, literal/length then
/// distance), or RFC 1951's fixed code when `tables` is `None`.
/// Returns the bytes of `data` the symbols took, up to the byte the
/// end-of-block code ends in.
pub(crate) fn inflate_block(
    tables: Option<&[u8]>,
    data: &[u8],
    dst: &mut [u8],
) -> Result<usize, CodecError> {
    let Some(packed) = tables else {
        let (lit, dist) = fixed_decoders();
        return inflate(lit, Some(dist), data, dst);
    };
    let mut lens = [0u8; NUM_LITLEN + NUM_DIST];
    for (pair, &b) in lens.chunks_exact_mut(2).zip(packed) {
        pair[0] = b & 0xF;
        pair[1] = b >> 4;
    }
    let (lit_lens, dist_lens) = lens.split_at(NUM_LITLEN);
    let mut lit_table = [0u16; MAX_TABLE_LEN];
    let lit_dec = Decoder::from_lengths(lit_lens, &mut lit_table)?;
    // A block of literals only carries an all-zero distance alphabet:
    // build nothing for it.
    if dist_lens.iter().all(|&l| l == 0) {
        return inflate(&lit_dec, None, data, dst);
    }
    let mut dist_table = [0u16; MAX_TABLE_LEN];
    let dist_dec = Decoder::from_lengths(dist_lens, &mut dist_table)?;
    inflate(&lit_dec, Some(&dist_dec), data, dst)
}

/// Decode one Huffman block's symbols from `data` into `dst`, the
/// block's whole output, and return the bytes they took. The slice is
/// the bound: the first literal or match that would pass its end fails
/// the block, so a few bytes of crafted matches cannot expand without
/// limit.
fn inflate(
    lit_dec: &Decoder<'_>,
    dist_dec: Option<&Decoder<'_>>,
    data: &[u8],
    dst: &mut [u8],
) -> Result<usize, CodecError> {
    const OVERRUN: CodecError = CodecError::Corrupt("block output exceeds its declared length");
    let mut r = BitReader::new(data);
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
    Ok(r.bytes_consumed())
}

impl Codec for Deflate {
    fn name(&self) -> &'static str {
        "deflate"
    }

    fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for block in input.chunks(BLOCK_SIZE) {
            if !encode_block(block, &mut out, input.len()) {
                return input.to_vec();
            }
        }
        out
    }

    fn expand(&self, payload: &[u8], raw_len: usize) -> Result<Vec<u8>, CodecError> {
        // `raw_len` may be untrusted: the output grows a block at a
        // time, as blocks decode.
        let mut out = Vec::with_capacity(raw_len.min(BLOCK_SIZE));
        let mut pos = 0usize;
        while out.len() < raw_len {
            let n = (raw_len - out.len()).min(BLOCK_SIZE);
            let kind = *take(payload, &mut pos, 1)?.first().expect("one byte");
            if kind == STORED {
                out.extend_from_slice(take(payload, &mut pos, n)?);
                continue;
            }
            let tables = match kind {
                FIXED => None,
                DYNAMIC => Some(take(payload, &mut pos, TABLE_BYTES)?),
                _ => return Err(CodecError::Corrupt("unknown block type")),
            };
            let start = out.len();
            out.resize(start + n, 0);
            pos += inflate_block(tables, &payload[pos..], &mut out[start..])?;
        }
        if pos != payload.len() {
            return Err(CodecError::Corrupt("payload continues past its last block"));
        }
        Ok(out)
    }
}

/// The format-v6 (`MDF1`) encoder as it stood before it was sized for
/// storage units, kept verbatim as the differential oracle of the
/// dynamic blocks above — whose body is this encoder's Huffman block
/// without its lengths — and as the writer of the streams the v6
/// reader is tested on: linear symbol scans, a full tokenization and
/// two code constructions for every block, the stored decision last.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::v6::DEFLATE_MAGIC as MAGIC;

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
    use crate::v6;

    fn roundtrip(data: &[u8]) -> usize {
        let c = Deflate.compress(data);
        assert_eq!(Deflate.decompress(&c).unwrap(), data, "roundtrip failed");
        c.len()
    }

    /// The kind byte of `data`'s payload, or `None` when it is raw.
    fn kind(data: &[u8]) -> Option<u8> {
        let payload = Deflate.encode(data);
        (payload.len() < data.len()).then(|| payload[0])
    }

    #[test]
    fn empty_input() {
        assert_eq!(Deflate.encode(b""), b"");
        assert_eq!(roundtrip(b""), 1);
    }

    #[test]
    fn adler32_known_values() {
        use v6::adler32;
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
        use v6::adler32;
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

    /// A v6 stream carries its checksum: a flipped bit anywhere — header,
    /// tables, coded symbols — fails the v6 reader, never returns wrong
    /// bytes. (A v7 payload carries none: the bin file's data table
    /// checksums it.)
    #[test]
    fn bitflips_are_detected() {
        let data = b"scientific data is precious and must not rot ".repeat(200);
        let c = oracle::compress(&data);
        assert_eq!(v6::deflate(&c).unwrap(), data);
        for pos in [16usize, 30, c.len() / 2, c.len() - 2] {
            let mut bad = c.clone();
            bad[pos] ^= 0x04;
            match v6::deflate(&bad) {
                Err(_) => {}
                Ok(out) => assert_eq!(out, data, "undetected corruption at {pos}"),
            }
        }
        // Corrupting the stored checksum itself must error.
        let mut bad = c.clone();
        bad[13] ^= 0xFF;
        assert!(v6::deflate(&bad).is_err());
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
            // Incompressible bytes are stored raw, as they are.
            let noise = xorshift_bytes(n, |x| (x >> 8) as u8);
            assert_eq!(Deflate.encode(&noise), noise, "noise, {n} bytes");
            let c = Deflate.compress(&noise);
            assert_eq!(Deflate.decompress(&c).unwrap(), noise, "noise, {n} bytes");
            if n >= 163 {
                assert!(matches!(kind(&part), Some(FIXED | DYNAMIC)), "{n} bytes");
            }
        }
    }

    /// A hand-built v6 stream of one Huffman block: the header declares
    /// `total` bytes (all zero, for the checksum), the block
    /// `block_len`, coded with `lens`.
    fn one_block_stream(total: u64, block_len: u32, lens: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut s = Vec::new();
        s.extend_from_slice(&v6::DEFLATE_MAGIC.to_le_bytes());
        s.extend_from_slice(&total.to_le_bytes());
        s.extend_from_slice(&v6::adler32(&vec![0; total as usize]).to_le_bytes());
        s.push(1);
        s.extend_from_slice(&block_len.to_le_bytes());
        s.extend(lens.chunks(2).map(|p| p[0] | (p[1] << 4)));
        s.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        s.extend_from_slice(payload);
        s
    }

    /// The code lengths and coded symbols of one literal followed by
    /// `matches` length-258/distance-1 matches (two bits each) and the
    /// end-of-block code.
    fn match_bomb(matches: usize) -> ([u8; NUM_LITLEN + NUM_DIST], Vec<u8>) {
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
        (lens, w.finish())
    }

    /// The same symbols as a v7 dynamic block.
    fn dynamic_bomb(matches: usize) -> Vec<u8> {
        let (lens, coded) = match_bomb(matches);
        let mut payload = vec![DYNAMIC];
        payload.extend(lens.chunks(2).map(|p| p[0] | (p[1] << 4)));
        payload.extend_from_slice(&coded);
        payload
    }

    #[test]
    fn output_is_bounded_by_the_declared_length() {
        // The builders make decodable blocks: one literal and one
        // match, declared as the 259 bytes they are.
        let (lens, coded) = match_bomb(1);
        assert_eq!(
            v6::deflate(&one_block_stream(259, 259, &lens, &coded)),
            Ok(vec![0; 259])
        );
        assert_eq!(Deflate.expand(&dynamic_bomb(1), 259), Ok(vec![0; 259]));

        // 16 bytes declared, ~1 MiB encoded in ~1 KiB of matches: the
        // first match already passes the block's end.
        let overrun = Err(CodecError::Corrupt(
            "block output exceeds its declared length",
        ));
        let (lens, coded) = match_bomb(4064);
        let bomb = one_block_stream(16, 16, &lens, &coded);
        assert!(bomb.len() < 1300);
        assert_eq!(v6::deflate(&bomb), overrun);
        assert_eq!(Deflate.expand(&dynamic_bomb(4064), 16), overrun);

        // The same payload in a v6 block that owns up to its size is
        // refused before a symbol is decoded: it cannot fit the stream.
        // Nor may a block exceed the block size, whatever the stream
        // declares.
        for (total, block_len) in [(16, 1 << 20), (1 << 20, 1 << 20)] {
            let bomb = one_block_stream(total, block_len, &lens, &coded);
            assert_eq!(
                v6::deflate(&bomb),
                Err(CodecError::Corrupt("block length out of range"))
            );
        }

        // A literal past the end is caught like a match: three
        // literals in a block of two.
        let mut lens = [0u8; NUM_LITLEN + NUM_DIST];
        (lens[0], lens[EOB]) = (1, 1);
        let enc = Encoder::from_lengths(&lens[..NUM_LITLEN]);
        let mut w = BitWriter::new();
        for sym in [0, 0, 0, EOB] {
            enc.write(&mut w, sym);
        }
        assert_eq!(
            v6::deflate(&one_block_stream(2, 2, &lens, &w.finish())),
            overrun
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

    /// `block` as one v7 block, its kind byte first.
    fn one_block(block: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        assert!(encode_block(
            block,
            &mut out,
            2 * block.len() + TABLE_BYTES + 2
        ));
        out
    }

    /// The v6 oracle's Huffman block for `block` without its lengths —
    /// tables then coded symbols — or `None` when it stores the block.
    fn oracle_body(block: &[u8]) -> Option<Vec<u8>> {
        let s = oracle::compress(block);
        (s.get(16) == Some(&1)).then(|| [&s[21..21 + TABLE_BYTES], &s[25 + TABLE_BYTES..]].concat())
    }

    /// A v7 block's kind, and where it is dynamic and the oracle codes
    /// the block too, that the two bodies are one.
    fn check_block(block: &[u8], ctx: &str) -> u8 {
        let got = one_block(block);
        if got[0] == DYNAMIC {
            if let Some(body) = oracle_body(block) {
                assert_eq!(got[1..], body[..], "{ctx}");
            }
        }
        got[0]
    }

    #[test]
    fn encoder_matches_oracle_at_every_unit_length() {
        let full = distributions(700);
        let mut kinds = [[0usize; 3]; 3];
        for n in 1..=700 {
            for (d, data) in full.iter().enumerate() {
                // Slide the window so that lengths differ in content.
                let data = &data[(700 - n) / 2..][..n];
                let kind = check_block(data, &format!("distribution {d}, {n} bytes"));
                kinds[d][kind as usize] += 1;
                // A payload is the block, or the raw bytes when the
                // block is not shorter.
                let payload = Deflate.encode(data);
                let block = one_block(data);
                assert!(payload == block && block.len() < n || payload == data);
            }
        }
        // The branches were taken where they can be: noise is stored
        // throughout, the dense input takes the fixed code from a few
        // bytes on, and the skewed one — bytes the fixed code spends 8
        // bits on — is stored until it amortizes a table.
        assert_eq!(kinds[2], [700, 0, 0], "{kinds:?}");
        assert!(kinds[0][0] < 30 && kinds[0][1] > 600, "{kinds:?}");
        assert!(kinds[1][0] > 300 && kinds[1][2] > 100, "{kinds:?}");
    }

    #[test]
    fn encoder_matches_oracle_around_the_block_size() {
        for n in [BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1] {
            for (d, data) in distributions(n).iter().enumerate() {
                let blocks: Vec<u8> = data.chunks(BLOCK_SIZE).flat_map(one_block).collect();
                let payload = Deflate.encode(data);
                assert!(payload == blocks || payload == *data, "distribution {d}");
                for block in data.chunks(BLOCK_SIZE) {
                    check_block(block, &format!("distribution {d}, {n} bytes"));
                }
                assert_eq!(Deflate.expand(&blocks, n).unwrap(), *data);
            }
        }
    }

    #[test]
    fn blocks_up_to_the_table_size_never_carry_a_table() {
        // The most compressible input there is — one literal and one
        // match — takes the fixed code from 6 bytes on; a table never
        // pays below its own size.
        let first_fixed = (1..400).find(|&n| kind(&vec![7u8; n]) == Some(FIXED));
        assert_eq!(first_fixed, Some(6));
        for n in 1..=TABLE_BYTES + 8 {
            for data in distributions(n) {
                assert_ne!(kind(&data), Some(DYNAMIC), "{n} bytes");
            }
        }
    }

    #[test]
    fn fixed_blocks_build_no_decode_tables() {
        let built = || huffman::TABLES_BUILT.with(std::cell::Cell::get);
        let data = xorshift_bytes(300, |x| 0x40 + (x % 7) as u8 * (x >> 29) as u8);
        let payload = Deflate.encode(&data);
        assert_eq!(payload[0], FIXED);
        fixed_decoders();
        let before = built();
        assert_eq!(Deflate.expand(&payload, data.len()).unwrap(), data);
        assert_eq!(built(), before, "a fixed block built a table");
        // A dynamic block builds its own.
        let skewed = &distributions(700)[1];
        let payload = Deflate.encode(skewed);
        assert_eq!(payload[0], DYNAMIC);
        assert_eq!(Deflate.expand(&payload, skewed.len()).unwrap(), *skewed);
        assert!(built() > before);
    }

    #[test]
    fn payloads_are_refused_unless_consumed_whole_at_their_length() {
        let data = xorshift_bytes(300, |x| 0x40 + (x % 7) as u8 * (x >> 29) as u8);
        let payload = Deflate.encode(&data);
        let mut longer = payload.clone();
        longer.push(0);
        assert!(Deflate.expand(&longer, data.len()).is_err());
        assert!(Deflate.expand(&payload, data.len() - 1).is_err());
        assert!(Deflate.expand(&payload, data.len() + 1).is_err());
        assert!(Deflate.decode(&[1, 2, 3], 2).is_err());
        assert_eq!(Deflate.decode(&[1, 2, 3], 3).unwrap(), [1, 2, 3]);
        let mut unknown = payload;
        unknown[0] = 3;
        assert!(Deflate.expand(&unknown, data.len()).is_err());
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
        // Incompressible data is its own payload: the stream adds its
        // length alone.
        assert_eq!(size, data.len() + 3);
    }

    #[test]
    fn multi_block_input() {
        let data: Vec<u8> = (0..400_000).map(|i| ((i / 100) % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut c = oracle::compress(b"hello");
        assert_eq!(v6::deflate(&c).unwrap(), b"hello");
        c[0] ^= 0x5A;
        assert_eq!(v6::deflate(&c), Err(CodecError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let data = b"some compressible data ".repeat(100);
        let c = Deflate.compress(&data);
        for cut in [1, 4, 12, 15, c.len() - 1] {
            assert!(Deflate.decompress(&c[..cut]).is_err(), "cut at {cut}");
        }
        let c = oracle::compress(&data);
        for cut in [4, 12, 15, c.len() - 1] {
            assert!(v6::deflate(&c[..cut]).is_err(), "v6 cut at {cut}");
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
