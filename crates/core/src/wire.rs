//! Little-endian binary serialization helpers for on-disk headers.

use crate::MlocError;

/// Append primitives to a byte buffer.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }

    /// Length-prefixed `usize` vector (stored as u64).
    pub fn usize_vec(&mut self, v: &[usize]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x as u64);
        }
    }

    /// Length-prefixed `f64` vector.
    pub fn f64_vec(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f64(x);
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over a byte slice.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MlocError> {
        // checked_add: a hostile length near usize::MAX must not wrap
        // past the bounds check.
        let end = self
            .pos
            .checked_add(n)
            .ok_or(MlocError::Corrupt("header truncated"))?;
        if end > self.data.len() {
            return Err(MlocError::Corrupt("header truncated"));
        }
        let s = &self.data[self.pos..end];
        self.pos += n;
        Ok(s)
    }

    /// Bound a count of `elem_size`-byte elements against the bytes
    /// actually left, so a corrupt length prefix fails fast instead of
    /// driving a near-4G-iteration decode loop.
    fn bounded_len(&self, n: usize, elem_size: usize) -> Result<usize, MlocError> {
        let need = n
            .checked_mul(elem_size)
            .ok_or(MlocError::Corrupt("header truncated"))?;
        if need > self.data.len() - self.pos {
            return Err(MlocError::Corrupt("header truncated"));
        }
        Ok(n)
    }

    pub fn u8(&mut self) -> Result<u8, MlocError> {
        Ok(self.take(1)?[0])
    }

    /// The next `N` bytes, as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], MlocError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub fn u32(&mut self) -> Result<u32, MlocError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, MlocError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn f64(&mut self) -> Result<f64, MlocError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    pub fn string(&mut self) -> Result<String, MlocError> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| MlocError::Corrupt("bad utf-8"))
    }

    pub fn usize_vec(&mut self) -> Result<Vec<usize>, MlocError> {
        let n = self.u32()? as usize;
        let n = self.bounded_len(n, 8)?;
        (0..n).map(|_| self.u64().map(|v| v as usize)).collect()
    }

    pub fn f64_vec(&mut self) -> Result<Vec<f64>, MlocError> {
        let n = self.u32()? as usize;
        let n = self.bounded_len(n, 8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_everything() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(70_000);
        w.u64(1 << 40);
        w.f64(-2.5);
        w.string("hello");
        w.usize_vec(&[1, 2, 3]);
        w.f64_vec(&[0.5, 1.5]);
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert_eq!(r.string().unwrap(), "hello");
        assert_eq!(r.usize_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.f64_vec().unwrap(), vec![0.5, 1.5]);
        assert!(r.remaining().is_empty());
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = Writer::new();
        w.u64(1);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..4]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn hostile_length_prefixes_error_without_wrapping() {
        // A length prefix of u32::MAX must not overflow `pos + n` or
        // spin a 4-billion-iteration decode loop.
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        assert!(Reader::new(&buf).string().is_err());
        assert!(Reader::new(&buf).usize_vec().is_err());
        assert!(Reader::new(&buf).f64_vec().is_err());
        assert!(Reader::new(&buf).take(usize::MAX).is_err());

        // Large-but-not-wrapping lengths fail too.
        let mut buf = 1_000_000u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        assert!(Reader::new(&buf).usize_vec().is_err());
        assert!(Reader::new(&buf).f64_vec().is_err());
    }

    mod corruption_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Decoding arbitrary bytes must return Ok or Err — never
            // panic, never read out of bounds, never spin on a hostile
            // length prefix.
            #[test]
            fn reader_never_panics_on_arbitrary_bytes(
                data in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let _ = Reader::new(&data).u8();
                let _ = Reader::new(&data).u32();
                let _ = Reader::new(&data).u64();
                let _ = Reader::new(&data).f64();
                let _ = Reader::new(&data).string();
                let _ = Reader::new(&data).usize_vec();
                let _ = Reader::new(&data).f64_vec();
                let mut r = Reader::new(&data);
                while r.u64().is_ok() {}
                prop_assert!(r.remaining().len() < 8);
            }

            // A valid header with one byte flipped and/or a truncated
            // tail decodes to an error or to (possibly different)
            // values — never a panic.
            #[test]
            fn mutated_headers_never_panic(
                flip in any::<usize>(),
                mask in 1u8..=255u8,
                cut in any::<usize>(),
            ) {
                let mut w = Writer::new();
                w.string("temperature");
                w.usize_vec(&[64, 64, 32]);
                w.f64_vec(&[0.0, 0.25, 0.5, 1.0]);
                w.u64(1 << 33);
                let mut buf = w.finish();
                let pos = flip % buf.len();
                buf[pos] ^= mask;
                buf.truncate(cut % (buf.len() + 1));
                let mut r = Reader::new(&buf);
                let _ = r.string();
                let _ = r.usize_vec();
                let _ = r.f64_vec();
                let _ = r.u64();
            }
        }
    }
}
