//! LSB-first bit-level I/O used by the DEFLATE-style codec.

use crate::CodecError;

/// Writes bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    bit_buf: u64,
    bit_count: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to `out`, which [`Self::finish`] gives
    /// back: the bit stream lands after the bytes already there.
    pub fn appending_to(out: Vec<u8>) -> Self {
        BitWriter {
            out,
            ..Self::default()
        }
    }

    /// Write the low `count` bits of `bits` (LSB first). `count <= 32`.
    #[inline]
    pub fn write_bits(&mut self, bits: u32, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || bits < (1u32 << count));
        self.bit_buf |= u64::from(bits) << self.bit_count;
        self.bit_count += count;
        while self.bit_count >= 8 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Pad to a byte boundary with zero bits.
    pub fn align_byte(&mut self) {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf = 0;
            self.bit_count = 0;
        }
    }

    /// Write raw bytes; the writer must be byte-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.bit_count, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Finish writing and return the byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bit_buf: u64,
    bit_count: u32,
}

impl<'a> BitReader<'a> {
    /// New reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Top the buffer up to 57..=64 bits, or to the end of the data.
    /// Bits at and above `bit_count` stay zero, which is what lets
    /// [`Self::peek_padded`] hand out a zero-padded tail.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            // One unaligned little-endian word load; keep the whole
            // bytes that fit above the `bit_count` bits already held.
            let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
            let bytes = (64 - self.bit_count) / 8;
            let kept = if bytes == 8 {
                word
            } else {
                word & ((1u64 << (bytes * 8)) - 1)
            };
            self.bit_buf |= kept << self.bit_count;
            self.pos += bytes as usize;
            self.bit_count += bytes * 8;
            return;
        }
        while self.bit_count <= 56 && self.pos < self.data.len() {
            self.bit_buf |= u64::from(self.data[self.pos]) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
    }

    /// Read `count` bits (`<= 32`), LSB-first.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u32, CodecError> {
        debug_assert!(count <= 32);
        if self.bit_count < count {
            self.refill();
            if self.bit_count < count {
                return Err(CodecError::Truncated);
            }
        }
        let v = (self.bit_buf & ((1u64 << count) - 1)) as u32;
        self.bit_buf >>= count;
        self.bit_count -= count;
        Ok(v)
    }

    /// Read a single bit.
    #[cfg(test)]
    pub fn read_bit(&mut self) -> Result<u32, CodecError> {
        self.read_bits(1)
    }

    /// The next `count` bits (`<= 32`) without consuming them, zero-
    /// padded past the end of the stream, and how many buffered bits
    /// are real. A table decoder indexes with the first and checks the
    /// matched code's length against the second, so the last symbols
    /// of a stream decode by lookup like every other.
    #[inline]
    pub fn peek_padded(&mut self, count: u32) -> (u32, u32) {
        debug_assert!(count <= 32);
        if self.bit_count < count {
            self.refill();
        }
        (
            (self.bit_buf & ((1u64 << count) - 1)) as u32,
            self.bit_count,
        )
    }

    /// Peek at the next `count` bits without consuming them, or `None`
    /// when fewer than `count` bits remain in the stream.
    #[cfg(test)]
    pub fn peek_bits(&mut self, count: u32) -> Option<u32> {
        let (bits, avail) = self.peek_padded(count);
        (avail >= count).then_some(bits)
    }

    /// Bits not yet consumed, buffered or not.
    pub fn bits_left(&self) -> usize {
        self.bit_count as usize + 8 * (self.data.len() - self.pos)
    }

    /// Bytes of the data consumed so far, a partly consumed byte
    /// counted whole.
    pub fn bytes_consumed(&self) -> usize {
        self.pos - (self.bit_count / 8) as usize
    }

    /// Consume `count` bits previously seen via [`Self::peek_padded`].
    #[inline]
    pub fn consume_bits(&mut self, count: u32) {
        debug_assert!(self.bit_count >= count);
        self.bit_buf >>= count;
        self.bit_count -= count;
    }

    /// Discard buffered bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.bit_count % 8;
        self.bit_buf >>= drop;
        self.bit_count -= drop;
    }

    /// Read `n` raw bytes; the reader must be byte-aligned.
    pub fn read_bytes(&mut self, n: usize) -> Result<Vec<u8>, CodecError> {
        assert_eq!(self.bit_count % 8, 0, "read_bytes requires byte alignment");
        let mut out = Vec::with_capacity(n);
        // Drain buffered whole bytes first.
        while self.bit_count >= 8 && out.len() < n {
            out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
        let remaining = n - out.len();
        if self.pos + remaining > self.data.len() {
            return Err(CodecError::Truncated);
        }
        out.extend_from_slice(&self.data[self.pos..self.pos + remaining]);
        self.pos += remaining;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(0x12345, 20);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bit().unwrap(), 0);
        assert_eq!(r.read_bits(20).unwrap(), 0x12345);
    }

    #[test]
    fn byte_alignment_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_byte();
        w.write_bytes(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align_byte();
        assert_eq!(r.read_bytes(3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn truncation_detected() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert_eq!(r.read_bits(1), Err(CodecError::Truncated));
    }

    #[test]
    fn read_bytes_after_bit_reads() {
        let mut w = BitWriter::new();
        w.write_bits(0xA, 4);
        w.align_byte();
        w.write_bytes(&[9, 8, 7, 6]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0xA);
        r.align_byte();
        // Force the buffered path: the refill may have eaten the bytes.
        assert_eq!(r.read_bytes(4).unwrap(), vec![9, 8, 7, 6]);
    }
}
