//! The part streams of format v6, read only: what `mloc upgrade`
//! decodes a v6 store's lossless unit parts with before it encodes them
//! again as v7 payloads. Nothing writes these streams any more.
//!
//! * `MDF1` ([`deflate`]): magic, the raw length (`u64`), the raw
//!   bytes' Adler-32, then blocks of at most 128 KiB: a kind byte and
//!   the block's raw length (`u32`), then the bytes (kind 0) or the
//!   code-length nibbles, the coded length (`u32`) and the coded
//!   symbols (kind 1, the v7 dynamic block's body with a length).
//! * `MISB` ([`isobar_bytes`]): magic, a flag, then the raw bytes (0) or
//!   an `MDF1` stream (1).
//! * `MISO` ([`isobar_f64`]): magic, the value count (`u64`), then per
//!   byte column a flag, the stored length (`u64`) and the column, raw
//!   (0) or as an `MDF1` stream (1).
//!
//! The Huffman blocks decode through the v7 decoder's
//! `inflate_block`, so both formats share one symbol loop.

use crate::deflate::{inflate_block, take, BLOCK_SIZE, TABLE_BYTES};
use crate::CodecError;

pub(crate) const DEFLATE_MAGIC: u32 = 0x3146_444D; // "MDF1"
const ISOBAR_F64_MAGIC: u32 = 0x4F53_494D; // "MISO"
const ISOBAR_BYTES_MAGIC: u32 = 0x4253_494D; // "MISB"

/// Adler-32 checksum, the integrity check an `MDF1` stream carries.
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

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Decode a whole `MDF1` stream. The output never grows past the
/// length its header declares, and is held to its checksum.
pub fn deflate(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut pos = 0usize;
    let header = take(input, &mut pos, 16)?;
    if le_u32(header) != DEFLATE_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let total = usize::try_from(le_u64(&header[4..]))
        .map_err(|_| CodecError::Corrupt("length overflow"))?;
    let checksum = le_u32(&header[12..]);
    // `total` is untrusted: pre-reserve only a bounded amount.
    let mut out = Vec::with_capacity(total.min(16 << 20));
    while out.len() < total {
        let block = take(input, &mut pos, 5)?;
        let orig_len = le_u32(&block[1..]) as usize;
        // Every encoder cut its input into 128 KiB blocks; holding the
        // decoder to that, and to what the stream still owes, caps what
        // one block header can make `out` grow by.
        if orig_len > (total - out.len()).min(BLOCK_SIZE) {
            return Err(CodecError::Corrupt("block length out of range"));
        }
        match block[0] {
            0 => out.extend_from_slice(take(input, &mut pos, orig_len)?),
            1 => {
                let tables = take(input, &mut pos, TABLE_BYTES)?;
                let coded_len = le_u32(take(input, &mut pos, 4)?) as usize;
                let coded = take(input, &mut pos, coded_len)?;
                let start = out.len();
                out.resize(start + orig_len, 0);
                inflate_block(Some(tables), coded, &mut out[start..])?;
            }
            _ => return Err(CodecError::Corrupt("unknown block type")),
        }
    }
    if adler32(&out) != checksum {
        return Err(CodecError::Corrupt("checksum mismatch"));
    }
    Ok(out)
}

/// Decode a whole `MISB` stream (one ISOBAR byte column).
pub fn isobar_bytes(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    if input.len() < 5 {
        return Err(CodecError::Truncated);
    }
    if le_u32(input) != ISOBAR_BYTES_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let payload = &input[5..];
    match input[4] {
        0 => Ok(payload.to_vec()),
        1 => deflate(payload),
        _ => Err(CodecError::Corrupt("bad stream flag")),
    }
}

/// Decode a whole `MISO` stream (an ISOBAR float unit).
pub fn isobar_f64(input: &[u8]) -> Result<Vec<f64>, CodecError> {
    let mut pos = 0usize;
    let header = take(input, &mut pos, 12)?;
    if le_u32(header) != ISOBAR_F64_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let n = usize::try_from(le_u64(&header[4..]))
        .map_err(|_| CodecError::Corrupt("length overflow"))?;
    let mut columns: Vec<Vec<u8>> = Vec::with_capacity(8);
    for _ in 0..8 {
        let head = take(input, &mut pos, 9)?;
        let len = usize::try_from(le_u64(&head[1..]))
            .map_err(|_| CodecError::Corrupt("length overflow"))?;
        let body = take(input, &mut pos, len)?;
        let col = match head[0] {
            0 => body.to_vec(),
            1 => deflate(body)?,
            _ => return Err(CodecError::Corrupt("bad column flag")),
        };
        if col.len() != n {
            return Err(CodecError::LengthMismatch {
                expected: n,
                actual: col.len(),
            });
        }
        columns.push(col);
    }
    Ok((0..n)
        .map(|i| f64::from_le_bytes(std::array::from_fn(|j| columns[j][i])))
        .collect())
}
