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

//!
//! A float unit's payload is one mask byte (bit `j` set: byte column
//! `j` is compressed), the LEB128 length of each compressed column, then
//! the eight columns in order — a compressed one as its DEFLATE
//! payload, a raw one as its `n` bytes. Under the raw rule of
//! [`crate::Codec`] a unit that would not be shorter than its values is
//! stored as their bytes.

use crate::deflate::Deflate;
use crate::{read_varint, write_varint, Codec, CodecError, FloatCodec};

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
/// exactly the published preconditioner with one column. A payload is
/// raw bytes or a DEFLATE payload.
impl Codec for Isobar {
    fn name(&self) -> &'static str {
        "isobar"
    }

    fn encode(&self, input: &[u8]) -> Vec<u8> {
        if byte_entropy(input) <= ENTROPY_THRESHOLD {
            Deflate.encode(input)
        } else {
            input.to_vec()
        }
    }

    fn expand(&self, payload: &[u8], raw_len: usize) -> Result<Vec<u8>, CodecError> {
        Deflate.expand(payload, raw_len)
    }
}

impl FloatCodec for Isobar {
    fn name(&self) -> &'static str {
        "isobar"
    }

    fn is_lossy(&self) -> bool {
        false
    }

    fn encode_f64(&self, input: &[f64]) -> Vec<u8> {
        let n = input.len();
        // Transpose into byte columns (LE byte j of every value).
        let mut columns: [Vec<u8>; 8] = std::array::from_fn(|_| Vec::with_capacity(n));
        for v in input {
            let b = v.to_le_bytes();
            for (col, &byte) in columns.iter_mut().zip(&b) {
                col.push(byte);
            }
        }
        let bodies = columns.map(|col| {
            if byte_entropy(&col) <= ENTROPY_THRESHOLD {
                let payload = Deflate.encode(&col);
                if payload.len() < n {
                    return payload;
                }
            }
            col
        });
        let mut out = Vec::with_capacity(8 * n);
        let mask = (0..8).filter(|&j| bodies[j].len() < n);
        out.push(mask.clone().fold(0u8, |m, j| m | 1 << j));
        for j in mask {
            write_varint(&mut out, bodies[j].len() as u64);
        }
        for body in &bodies {
            out.extend_from_slice(body);
        }
        if out.len() < 8 * n {
            out
        } else {
            crate::f64s_to_bytes(input)
        }
    }

    fn expand_f64(&self, payload: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let mask = *payload.first().ok_or(CodecError::Truncated)?;
        let mut pos = 1usize;
        let mut lens = [n; 8];
        for (j, len) in lens.iter_mut().enumerate() {
            if mask & (1 << j) != 0 {
                // A compressed column is shorter than its raw bytes.
                *len = usize::try_from(read_varint(payload, &mut pos)?)
                    .ok()
                    .filter(|&len| len < n)
                    .ok_or(CodecError::Corrupt("column length out of range"))?;
            }
        }
        let mut columns: Vec<std::borrow::Cow<'_, [u8]>> = Vec::with_capacity(8);
        for (j, &len) in lens.iter().enumerate() {
            let body = crate::deflate::take(payload, &mut pos, len)?;
            columns.push(if mask & (1 << j) != 0 {
                Deflate.expand(body, n)?.into()
            } else {
                body.into()
            });
        }
        if pos != payload.len() {
            return Err(CodecError::Corrupt("payload continues past its columns"));
        }
        Ok((0..n)
            .map(|i| f64::from_le_bytes(std::array::from_fn(|j| columns[j][i])))
            .collect())
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
        // Incompressible stream: stored raw, the stream adds its length.
        let mut x = 0x12345678u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        assert_eq!(codec.encode(&noise), noise);
        let c = codec.compress(&noise);
        assert_eq!(c.len(), noise.len() + 2);
        assert_eq!(codec.decompress(&c).unwrap(), noise);
        // Compressible stream: beats raw.
        let flat = vec![3u8; 4096];
        assert!(codec.compress(&flat).len() < flat.len() / 10);
    }

    /// A value bin's points: close values, so the top byte columns
    /// deflate and the low ones are noise.
    fn unit_values(n: usize) -> Vec<f64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1500.0 + (i / 40) as f64 + (x >> 40) as f64 * 1e-9
            })
            .collect()
    }

    /// A unit's payload is its mask, the compressed columns' lengths and
    /// the columns — each compressed exactly when its entropy passes and
    /// its DEFLATE payload is shorter — or the values' bytes when that
    /// is not shorter; the v6 oracle's stream of the same unit decodes,
    /// through the v6 reader, to the same values.
    #[test]
    fn unit_sized_streams_match_the_oracle_encoder() {
        let values = unit_values(700);
        let (mut deflated, mut raw) = (0, 0);
        for n in (0..=700)
            .step_by(7)
            .chain([163, 164, 165, 166, 167, 328, 573])
        {
            let unit = &values[..n];
            let mut want = Vec::new();
            let mut mask = 0u8;
            let mut bodies = Vec::new();
            for j in 0..8 {
                let col: Vec<u8> = unit.iter().map(|v| v.to_le_bytes()[j]).collect();
                let payload = Deflate.encode(&col);
                if byte_entropy(&col) <= ENTROPY_THRESHOLD && payload.len() < n {
                    mask |= 1 << j;
                    write_varint(&mut want, payload.len() as u64);
                    bodies.push(payload);
                    deflated += 1;
                } else {
                    bodies.push(col);
                    raw += 1;
                }
            }
            want.insert(0, mask);
            want.extend(bodies.concat());
            if want.len() >= 8 * n {
                want = crate::f64s_to_bytes(unit);
            }
            let got = Isobar.encode_f64(unit);
            assert_eq!(got, want, "{n} values");
            let back = Isobar.decode_f64(&got, n).unwrap();
            assert!(back
                .iter()
                .zip(unit)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            let v6 = oracle_f64(unit);
            assert_eq!(crate::v6::isobar_f64(&v6).unwrap(), back, "{n} values");
            for j in 0..8 {
                let col: Vec<u8> = unit.iter().map(|v| v.to_be_bytes()[j]).collect();
                assert_eq!(crate::v6::isobar_bytes(&oracle_bytes(&col)).unwrap(), col);
            }
        }
        assert!(
            deflated > 100 && raw > 100,
            "{deflated} deflated, {raw} raw"
        );
    }

    /// Both v6 ISOBAR containers, over the v6 DEFLATE encoder
    /// (`deflate::oracle`).
    fn oracle_bytes(input: &[u8]) -> Vec<u8> {
        let mut out = 0x4253_494Du32.to_le_bytes().to_vec();
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
        let mut out = 0x4F53_494Du32.to_le_bytes().to_vec();
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
    fn byte_stream_rejects_corruption() {
        let codec: &dyn Codec = &Isobar;
        let flat = vec![3u8; 400];
        let c = codec.compress(&flat);
        assert!(c.len() < 50);
        // Cut, extended, or with an unknown block kind: refused.
        assert!(codec.decompress(&c[..c.len() - 1]).is_err());
        let mut longer = c.clone();
        longer.push(0);
        assert!(codec.decompress(&longer).is_err());
        let mut bad_kind = c;
        bad_kind[2] = 9;
        assert!(codec.decompress(&bad_kind).is_err());
    }

    #[test]
    fn rejects_corruption() {
        let values = unit_values(300);
        let c = Isobar.compress_f64(&values);
        assert!(c.len() < 300 * 8);
        assert!(Isobar.decompress_f64(&c[..8]).is_err());
        // A column length past its raw length, a mask bit of a raw
        // column, a byte too many: refused.
        let payload = Isobar.encode_f64(&values);
        let mut long_column = payload.clone();
        long_column[1] = 0xFF;
        assert!(Isobar.decode_f64(&long_column, 300).is_err());
        let mut mask = payload.clone();
        mask[0] |= 0x01;
        assert!(Isobar.decode_f64(&mask, 300).is_err());
        let mut longer = payload;
        longer.push(0);
        assert!(Isobar.decode_f64(&longer, 300).is_err());
    }
}
