//! FPC-style predictive lossless floating-point compression.
//!
//! Implements the FCM/DFCM dual-predictor scheme of Burtscher &
//! Ratanaworabhan ("FPC: A High-Speed Compressor for Double-Precision
//! Floating-Point Data"). Each double is XORed with the better of two
//! hash-table predictions; the result's leading zero bytes are elided
//! and a 4-bit code records the predictor choice and the count.
//!
//! This codec stands in for FPZip as MLOC's "fast lossless FP codec"
//! plug-in: high throughput, modest ratio on smooth scientific data.

//!
//! A payload is the `MFPC` stream — magic, value count, the code
//! nibbles, the residual bytes — or, under the raw rule of
//! [`crate::Codec`], the values' bytes when the stream is not shorter.

use crate::{CodecError, FloatCodec};
use std::cell::RefCell;

const MAGIC: u32 = 0x4350_464D; // "MFPC"
const TABLE_BITS: u32 = 16;
const TABLE_SIZE: usize = 1 << TABLE_BITS;

/// The FPC codec. `Default` uses 2^16-entry predictor tables.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fpc;

/// The two predictor tables, kept from one call to the next on a
/// thread: a storage unit is a few hundred values, far fewer than the
/// 1 MiB it costs to allocate and zero the tables. Each call zeroes,
/// first, the entries the call before it wrote — so a table reads as
/// fresh whatever that call did, a panic in it included.
struct Tables {
    fcm: Vec<u64>,
    dfcm: Vec<u64>,
    /// Indices written since the tables were last zeroed, up to
    /// [`TABLE_SIZE`] of them: past that, zeroing fills the tables.
    written: Vec<u16>,
}

impl Tables {
    fn new() -> Self {
        Tables {
            fcm: vec![0; TABLE_SIZE],
            dfcm: vec![0; TABLE_SIZE],
            written: Vec::new(),
        }
    }

    /// Zero what the last user wrote.
    fn clear(&mut self) {
        if self.written.len() >= TABLE_SIZE {
            self.fcm.fill(0);
            self.dfcm.fill(0);
        } else {
            for &i in &self.written {
                self.fcm[usize::from(i)] = 0;
                self.dfcm[usize::from(i)] = 0;
            }
        }
        self.written.clear();
    }

    /// Note that index `i` of either table was written.
    #[inline]
    fn wrote(&mut self, i: usize) {
        if self.written.len() < TABLE_SIZE {
            self.written.push(i as u16);
        }
    }
}

thread_local! {
    static TABLES: RefCell<Tables> = RefCell::new(Tables::new());
}

/// Run `f` over this thread's tables, zeroed.
fn with_tables<R>(f: impl FnOnce(&mut Tables) -> R) -> R {
    TABLES.with(|t| {
        let mut t = t.borrow_mut();
        t.clear();
        f(&mut t)
    })
}

struct Predictors<'t> {
    tables: &'t mut Tables,
    fcm_hash: usize,
    dfcm_hash: usize,
    last: u64,
}

impl<'t> Predictors<'t> {
    fn new(tables: &'t mut Tables) -> Self {
        Predictors {
            tables,
            fcm_hash: 0,
            dfcm_hash: 0,
            last: 0,
        }
    }

    /// Current predictions `(fcm, dfcm)`.
    #[inline]
    fn predict(&self) -> (u64, u64) {
        (
            self.tables.fcm[self.fcm_hash],
            self.tables.dfcm[self.dfcm_hash].wrapping_add(self.last),
        )
    }

    /// Update both predictor tables with the true value.
    #[inline]
    fn update(&mut self, bits: u64) {
        let t = &mut *self.tables;
        t.fcm[self.fcm_hash] = bits;
        t.wrote(self.fcm_hash);
        self.fcm_hash = (((self.fcm_hash << 6) as u64) ^ (bits >> 48)) as usize & (TABLE_SIZE - 1);
        let delta = bits.wrapping_sub(self.last);
        t.dfcm[self.dfcm_hash] = delta;
        t.wrote(self.dfcm_hash);
        self.dfcm_hash =
            (((self.dfcm_hash << 2) as u64) ^ (delta >> 40)) as usize & (TABLE_SIZE - 1);
        self.last = bits;
    }
}

/// Map a leading-zero-byte count (0..=8) to its 3-bit code. Count 4 is
/// folded into 3 (FPC's trick: 4 is rare, and folding keeps the code in
/// 3 bits).
#[inline]
fn lzb_to_code(lzb: u32) -> u32 {
    match lzb {
        0..=3 => lzb,
        4 => 3,
        _ => lzb - 1,
    }
}

/// Inverse of [`lzb_to_code`].
#[inline]
fn code_to_lzb(code: u32) -> u32 {
    if code >= 4 {
        code + 1
    } else {
        code
    }
}

impl FloatCodec for Fpc {
    fn name(&self) -> &'static str {
        "fpc"
    }

    fn is_lossy(&self) -> bool {
        false
    }

    fn encode_f64(&self, input: &[f64]) -> Vec<u8> {
        let stream = with_tables(|t| encode_stream(input, t));
        if stream.len() < 8 * input.len() {
            stream
        } else {
            crate::f64s_to_bytes(input)
        }
    }

    fn expand_f64(&self, payload: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let values = with_tables(|t| decode_stream(payload, t))?;
        if values.len() != n {
            return Err(CodecError::LengthMismatch {
                expected: n,
                actual: values.len(),
            });
        }
        Ok(values)
    }
}

/// The `MFPC` stream of `input`, predicted through `tables` (zeroed).
fn encode_stream(input: &[f64], tables: &mut Tables) -> Vec<u8> {
    let n = input.len();
    let mut codes = Vec::with_capacity(n.div_ceil(2));
    let mut residuals = Vec::with_capacity(n * 4);
    let mut pred = Predictors::new(tables);

    let mut pending: Option<u8> = None;
    for &v in input {
        let bits = v.to_bits();
        let (p_fcm, p_dfcm) = pred.predict();
        let x_fcm = bits ^ p_fcm;
        let x_dfcm = bits ^ p_dfcm;
        let (sel, xor) = if x_fcm.leading_zeros() >= x_dfcm.leading_zeros() {
            (0u32, x_fcm)
        } else {
            (1u32, x_dfcm)
        };
        pred.update(bits);

        let lzb = (xor.leading_zeros() / 8).min(8);
        let code = (sel << 3) | lzb_to_code(lzb);
        match pending.take() {
            None => pending = Some(code as u8),
            Some(first) => codes.push(first | ((code as u8) << 4)),
        }
        let keep = 8 - code_to_lzb(lzb_to_code(lzb)) as usize;
        // Emit the low `keep` bytes of the XOR (big-endian order of
        // significance is irrelevant; we use LE consistently).
        residuals.extend_from_slice(&xor.to_le_bytes()[..keep]);
    }
    if let Some(first) = pending {
        codes.push(first);
    }

    let mut out = Vec::with_capacity(16 + codes.len() + residuals.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&codes);
    out.extend_from_slice(&residuals);
    out
}

/// Decode an `MFPC` stream, predicted through `tables` (zeroed). At
/// most twice as many values as the stream has bytes, plus 16.
fn decode_stream(input: &[u8], tables: &mut Tables) -> Result<Vec<f64>, CodecError> {
    if input.len() < 12 {
        return Err(CodecError::Truncated);
    }
    if u32::from_le_bytes(input[0..4].try_into().unwrap()) != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let n = u64::from_le_bytes(input[4..12].try_into().unwrap()) as usize;
    let code_bytes = n.div_ceil(2);
    if input.len() < 12 + code_bytes {
        return Err(CodecError::Truncated);
    }
    let codes = &input[12..12 + code_bytes];
    let mut res_pos = 12 + code_bytes;

    // `n` is untrusted, but each value consumes at least the code
    // nibble, so it cannot plausibly exceed twice the input size.
    if n > input.len().saturating_mul(2) + 16 {
        return Err(CodecError::Corrupt("implausible value count"));
    }
    let mut out = Vec::with_capacity(n);
    let mut pred = Predictors::new(tables);
    for i in 0..n {
        let code_pair = codes[i / 2];
        let code = if i % 2 == 0 {
            code_pair & 0xF
        } else {
            code_pair >> 4
        };
        let sel = (code >> 3) & 1;
        let lzb = code_to_lzb(u32::from(code & 0x7));
        let keep = 8 - lzb as usize;
        if res_pos + keep > input.len() {
            return Err(CodecError::Truncated);
        }
        let mut xb = [0u8; 8];
        xb[..keep].copy_from_slice(&input[res_pos..res_pos + keep]);
        res_pos += keep;
        let xor = u64::from_le_bytes(xb);

        let (p_fcm, p_dfcm) = pred.predict();
        let bits = xor ^ if sel == 0 { p_fcm } else { p_dfcm };
        pred.update(bits);
        out.push(f64::from_bits(bits));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f64]) -> usize {
        let c = Fpc.compress_f64(data);
        let d = Fpc.decompress_f64(&c).unwrap();
        assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(&d) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact roundtrip required");
        }
        c.len()
    }

    #[test]
    fn empty() {
        assert!(roundtrip(&[]) <= 12);
    }

    #[test]
    fn exact_on_specials() {
        roundtrip(&[
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
        ]);
        // NaN needs bit-level comparison, done in roundtrip().
        roundtrip(&[f64::NAN, 1.0, f64::NAN]);
    }

    #[test]
    fn compresses_smooth_series() {
        let data: Vec<f64> = (0..100_000).map(|i| (i as f64 * 0.001).sin()).collect();
        let size = roundtrip(&data);
        assert!(
            size < data.len() * 8 * 9 / 10,
            "smooth data should compress: {size} vs {}",
            data.len() * 8
        );
    }

    #[test]
    fn constant_series_compresses_well() {
        let data = vec![std::f64::consts::PI; 10_000];
        let size = roundtrip(&data);
        // Constant data: predictor hits, ~0.5 bytes/value + header.
        assert!(size < 10_000, "size {size}");
    }

    #[test]
    fn survives_random_bits() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let data: Vec<f64> = (0..10_001)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits(x)
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn lzb_code_mapping() {
        for lzb in 0..=8u32 {
            let c = lzb_to_code(lzb);
            assert!(c < 8);
            if lzb != 4 {
                assert_eq!(code_to_lzb(c), lzb);
            } else {
                assert_eq!(code_to_lzb(c), 3, "4 folds to 3 (stores one extra byte)");
            }
        }
    }

    #[test]
    fn rejects_corruption() {
        let data: Vec<f64> = (0..300).map(|i| (i as f64 * 0.01).sin()).collect();
        let payload = Fpc.encode_f64(&data);
        assert!(payload.len() < 300 * 8, "a smooth series is coded");
        assert_eq!(
            Fpc.decode_f64(&payload[..4], 300),
            Err(CodecError::Truncated)
        );
        let mut bad = payload.clone();
        bad[0] ^= 1;
        assert_eq!(Fpc.decode_f64(&bad, 300), Err(CodecError::BadMagic));
        assert!(Fpc.decode_f64(&payload, 299).is_err());
    }

    /// Seeded series of unit sizes: smooth, noisy, constant, and
    /// specials.
    fn series(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match seed % 4 {
                    0 => (i as f64 * 0.01).sin() * 100.0,
                    1 => f64::from_bits(x),
                    2 => 42.0,
                    _ => [0.0, -0.0, f64::NAN, 1e300, (x >> 11) as f64][i % 5],
                }
            })
            .collect()
    }

    /// The tables a thread keeps give what fresh tables give — today's
    /// per-call allocation, the oracle — in every call of a sequence,
    /// so nothing one call writes reaches the next; a call large
    /// enough to write more entries than the tables hold is followed
    /// by one on zeroed tables too.
    #[test]
    fn kept_tables_match_fresh_tables() {
        for seed in 0..24u64 {
            let n = [0, 1, 50, 333, 2_000, 70_000][seed as usize % 6];
            let values = series(seed, n);
            let stream = with_tables(|t| encode_stream(&values, t));
            assert_eq!(
                stream,
                encode_stream(&values, &mut Tables::new()),
                "seed {seed}"
            );
            let back = with_tables(|t| decode_stream(&stream, t)).unwrap();
            let fresh = decode_stream(&stream, &mut Tables::new()).unwrap();
            assert_eq!(back.len(), n);
            assert!(back
                .iter()
                .zip(&fresh)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(back
                .iter()
                .zip(&values)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        TABLES.with(|t| {
            let mut t = t.borrow_mut();
            t.clear();
            assert!(t.fcm.iter().chain(&t.dfcm).all(|&e| e == 0));
        });
    }
}
