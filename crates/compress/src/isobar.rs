//! ISOBAR-style lossless compression for double-precision data.
//!
//! ISOBAR (Schendel et al., ICDE 2012) is a *preconditioner*: it
//! identifies which parts of hard-to-compress floating-point data are
//! actually compressible and routes only those through a standard
//! compressor, storing the rest raw. Turbulent scientific data has
//! highly compressible sign/exponent/leading-mantissa bytes and
//! essentially random trailing mantissa bytes, so the byte-column
//! decomposition used here captures the published behaviour: the codec
//! transposes values into 8 byte columns, measures each column's
//! empirical entropy, compresses columns below the threshold with the
//! DEFLATE-style codec, and stores the others verbatim.

use crate::deflate::Deflate;
use crate::{Codec, CodecError, FloatCodec};

const MAGIC: u32 = 0x4F53_494D; // "MISO"
const BYTE_MAGIC: u32 = 0x4253_494D; // "MISB"

/// Entropy threshold (bits/byte) above which a byte column is
/// considered incompressible and stored raw. DEFLATE needs a margin
/// below 8.0 to win after its own overhead.
const ENTROPY_THRESHOLD: f64 = 7.0;

/// The ISOBAR-style codec. Stateless, like [`Deflate`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Isobar;

/// Empirical Shannon entropy of a byte slice, in bits per byte.
pub fn byte_entropy(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    let n = data.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// ISOBAR applied to a single byte stream (one PLoD byte column):
/// entropy-test the stream and either DEFLATE it or store it raw. This
/// is the codec MLOC pairs with PLoD — each byte group is already a
/// homogeneous column, so the per-column compressibility test is
/// exactly the published preconditioner with one column.
impl Codec for Isobar {
    fn name(&self) -> &'static str {
        "isobar"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        out.extend_from_slice(&BYTE_MAGIC.to_le_bytes());
        if byte_entropy(input) <= ENTROPY_THRESHOLD {
            let payload = Deflate.compress(input);
            if payload.len() < input.len() {
                out.push(1);
                out.extend_from_slice(&payload);
                return out;
            }
        }
        out.push(0);
        out.extend_from_slice(input);
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if input.len() < 5 {
            return Err(CodecError::Truncated);
        }
        if u32::from_le_bytes(input[0..4].try_into().unwrap()) != BYTE_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let payload = &input[5..];
        match input[4] {
            0 => Ok(payload.to_vec()),
            1 => Deflate.decompress(payload),
            _ => Err(CodecError::Corrupt("bad stream flag")),
        }
    }
}

impl FloatCodec for Isobar {
    fn name(&self) -> &'static str {
        "isobar"
    }

    fn is_lossy(&self) -> bool {
        false
    }

    fn compress_f64(&self, input: &[f64]) -> Vec<u8> {
        let n = input.len();
        // Transpose into byte columns (LE byte j of every value).
        let mut columns: Vec<Vec<u8>> = (0..8).map(|_| Vec::with_capacity(n)).collect();
        for v in input {
            let b = v.to_le_bytes();
            for (j, col) in columns.iter_mut().enumerate() {
                col.push(b[j]);
            }
        }

        let mut out = Vec::with_capacity(n * 8 / 2 + 64);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        let deflate = Deflate;
        for col in &columns {
            let compressible = byte_entropy(col) <= ENTROPY_THRESHOLD;
            if compressible {
                let payload = deflate.compress(col);
                if payload.len() < col.len() {
                    out.push(1);
                    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                    out.extend_from_slice(&payload);
                    continue;
                }
            }
            out.push(0);
            out.extend_from_slice(&(col.len() as u64).to_le_bytes());
            out.extend_from_slice(col);
        }
        out
    }

    fn decompress_f64(&self, input: &[u8]) -> Result<Vec<f64>, CodecError> {
        if input.len() < 12 {
            return Err(CodecError::Truncated);
        }
        if u32::from_le_bytes(input[0..4].try_into().unwrap()) != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let n = u64::from_le_bytes(input[4..12].try_into().unwrap()) as usize;
        let mut pos = 12usize;
        let mut columns: Vec<Vec<u8>> = Vec::with_capacity(8);
        let deflate = Deflate;
        for _ in 0..8 {
            if pos + 9 > input.len() {
                return Err(CodecError::Truncated);
            }
            let flag = input[pos];
            let len = u64::from_le_bytes(input[pos + 1..pos + 9].try_into().unwrap()) as usize;
            pos += 9;
            if pos + len > input.len() {
                return Err(CodecError::Truncated);
            }
            let payload = &input[pos..pos + len];
            pos += len;
            let col = match flag {
                0 => payload.to_vec(),
                1 => deflate.decompress(payload)?,
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

        // `n` was validated against every decompressed column above.
        let mut out = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)] // gathers across columns
        for i in 0..n {
            let mut b = [0u8; 8];
            for (j, bj) in b.iter_mut().enumerate() {
                *bj = columns[j][i];
            }
            out.push(f64::from_le_bytes(b));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f64]) -> usize {
        let c = Isobar.compress_f64(data);
        let d = Isobar.decompress_f64(&c).unwrap();
        assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(&d) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        c.len()
    }

    #[test]
    fn empty_and_small() {
        roundtrip(&[]);
        roundtrip(&[1.0]);
        roundtrip(&[f64::NAN, -0.0, f64::INFINITY]);
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(byte_entropy(&[]), 0.0);
        assert_eq!(byte_entropy(&[5u8; 100]), 0.0);
        let uniform: Vec<u8> = (0..=255).collect();
        assert!((byte_entropy(&uniform) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn smooth_data_compresses() {
        // Smooth fields have near-constant exponent bytes: the upper
        // columns compress, the mantissa tail stays raw.
        let data: Vec<f64> = (0..50_000)
            .map(|i| 100.0 + (i as f64 * 1e-4).sin())
            .collect();
        let size = roundtrip(&data);
        assert!(
            size < data.len() * 8 * 8 / 10,
            "expected < 80% of raw, got {size} / {}",
            data.len() * 8
        );
    }

    #[test]
    fn random_mantissas_do_not_blow_up() {
        let mut x = 0xDEADBEEFu64;
        let data: Vec<f64> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1.0 + (x % 1_000_000) as f64 * 1e-15
            })
            .collect();
        let size = roundtrip(&data);
        // Headers only: 12 + 8 * 9 bytes of fixed overhead.
        assert!(size <= data.len() * 8 + 12 + 8 * 9);
    }

    #[test]
    fn highly_compressible_constant_data_roundtrips() {
        // Regression: a constant stream compresses ~400x; the decoder
        // must not mistake the honest value count for corruption.
        let data = vec![42.0f64; 200_000];
        let size = roundtrip(&data);
        assert!(size < data.len() * 8 / 100, "size {size}");
    }

    #[test]
    fn byte_stream_roundtrips_any_length() {
        // PLoD byte columns are one byte per value — never 8-aligned.
        let codec: &dyn Codec = &Isobar;
        for len in [0usize, 1, 7, 9, 1000, 4097] {
            let data: Vec<u8> = (0..len).map(|i| (i % 7) as u8).collect();
            assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
        }
        // Incompressible stream: stored raw with a 5-byte header.
        let mut x = 0x12345678u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let c = codec.compress(&noise);
        assert_eq!(c.len(), noise.len() + 5);
        assert_eq!(codec.decompress(&c).unwrap(), noise);
        // Compressible stream: beats raw.
        let flat = vec![3u8; 4096];
        assert!(codec.compress(&flat).len() < flat.len() / 10);
    }

    /// Both ISOBAR containers over the DEFLATE encoder as it stood
    /// before it was sized for storage units (`deflate::oracle`).
    fn oracle_bytes(input: &[u8]) -> Vec<u8> {
        let mut out = BYTE_MAGIC.to_le_bytes().to_vec();
        let payload = crate::deflate::oracle::compress(input);
        if byte_entropy(input) <= ENTROPY_THRESHOLD && payload.len() < input.len() {
            out.push(1);
            out.extend_from_slice(&payload);
        } else {
            out.push(0);
            out.extend_from_slice(input);
        }
        out
    }

    fn oracle_f64(input: &[f64]) -> Vec<u8> {
        let mut out = MAGIC.to_le_bytes().to_vec();
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        for j in 0..8 {
            let col: Vec<u8> = input.iter().map(|v| v.to_le_bytes()[j]).collect();
            let payload = crate::deflate::oracle::compress(&col);
            let deflated = byte_entropy(&col) <= ENTROPY_THRESHOLD && payload.len() < col.len();
            let body = if deflated { &payload } else { &col };
            out.push(u8::from(deflated));
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
            out.extend_from_slice(body);
        }
        out
    }

    #[test]
    fn unit_sized_streams_match_the_oracle_encoder() {
        // A value bin's points: close values, so the top byte columns
        // deflate and the low ones are noise.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let values: Vec<f64> = (0..700)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1500.0 + (i / 40) as f64 + (x >> 40) as f64 * 1e-9
            })
            .collect();
        let (mut deflated, mut raw) = (0, 0);
        for n in (0..=700)
            .step_by(7)
            .chain([163, 164, 165, 166, 167, 328, 573])
        {
            let unit = &values[..n];
            let got = Isobar.compress_f64(unit);
            assert_eq!(got, oracle_f64(unit), "{n} values");
            for j in 0..8 {
                let col: Vec<u8> = unit.iter().map(|v| v.to_be_bytes()[j]).collect();
                let got = Codec::compress(&Isobar, &col);
                assert_eq!(got, oracle_bytes(&col), "{n} values, byte {j}");
                match got[4] {
                    1 => deflated += 1,
                    _ => raw += 1,
                }
            }
        }
        assert!(
            deflated > 100 && raw > 100,
            "{deflated} deflated, {raw} raw"
        );
    }

    #[test]
    fn byte_stream_rejects_corruption() {
        let codec: &dyn Codec = &Isobar;
        let c = codec.compress(&[1, 2, 3]);
        assert!(codec.decompress(&c[..4]).is_err());
        let mut bad_magic = c.clone();
        bad_magic[0] ^= 0xFF;
        assert!(codec.decompress(&bad_magic).is_err());
        let mut bad_flag = c;
        bad_flag[4] = 9;
        assert!(codec.decompress(&bad_flag).is_err());
    }

    #[test]
    fn rejects_corruption() {
        let c = Isobar.compress_f64(&[1.0, 2.0]);
        assert!(Isobar.decompress_f64(&c[..8]).is_err());
        let mut bad = c.clone();
        bad[2] ^= 0x40;
        assert!(Isobar.decompress_f64(&bad).is_err());
    }
}
