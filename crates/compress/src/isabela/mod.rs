//! ISABELA-style lossy compression with a point-wise error guarantee.
//!
//! Following Lakshminarasimhan et al. (Euro-Par 2011): the input is cut
//! into fixed windows; each window is *sorted* (making it a smooth
//! monotone curve), fitted with a cubic B-spline, and stored as
//!
//! * the spline coefficients,
//! * the sort permutation (packed `ceil(log2 W)`-bit integers), and
//! * quantized per-point corrections that bound the reconstruction
//!   error, with an exact-value escape for pathological points.
//!
//! The error guarantee is **unconditional**: every decoded value `v'`
//! satisfies `|v' - v| <= eps * max(|v|, floor)` where `floor` is a
//! per-window absolute noise floor, because the encoder verifies the
//! bound per point and escapes to the exact value when quantization
//! alone cannot meet it.
//!
//! A payload is the `MISA` stream, or, under the raw rule of
//! [`crate::Codec`], the values' bytes when the stream is not shorter.

pub mod bspline;

use crate::{read_varint, write_varint, CodecError, FloatCodec};
use bspline::BSpline;

const MAGIC: u32 = 0x4153_494D; // "MISA"
/// Default window length.
const WINDOW: usize = 1024;
/// Default number of spline coefficients per window.
const COEFFS: usize = 32;

/// The ISABELA-style lossy codec.
#[derive(Debug, Clone, Copy)]
pub struct Isabela {
    /// Point-wise relative error bound.
    pub error_bound: f64,
    /// Window length (values per independently coded window).
    pub window: usize,
    /// Spline coefficients per window.
    pub coeffs: usize,
}

impl Isabela {
    /// Codec with the given relative error bound and default window
    /// geometry (1024-value windows, 32 coefficients).
    pub fn new(error_bound: f64) -> Self {
        assert!(
            error_bound.is_finite() && error_bound > 0.0,
            "error bound must be positive"
        );
        Isabela {
            error_bound,
            window: WINDOW,
            coeffs: COEFFS,
        }
    }

    /// Override the window geometry.
    pub fn with_geometry(mut self, window: usize, coeffs: usize) -> Self {
        assert!(window >= coeffs && coeffs >= 4);
        assert!(window <= u16::MAX as usize + 1);
        self.window = window;
        self.coeffs = coeffs;
        self
    }
}

impl Default for Isabela {
    fn default() -> Self {
        Isabela::new(0.001)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bits needed to store indices `0..n`.
fn index_bits(n: usize) -> u32 {
    (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1)
}

fn pack_indices(indices: &[u32], bits: u32, out: &mut Vec<u8>) {
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &idx in indices {
        acc |= u64::from(idx) << nbits;
        nbits += bits;
        while nbits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

fn unpack_indices(
    data: &[u8],
    pos: &mut usize,
    count: usize,
    bits: u32,
) -> Result<Vec<u32>, CodecError> {
    let total_bits = count as u64 * u64::from(bits);
    let nbytes = total_bits.div_ceil(8) as usize;
    if *pos + nbytes > data.len() {
        return Err(CodecError::Truncated);
    }
    let src = &data[*pos..*pos + nbytes];
    *pos += nbytes;
    let mut out = Vec::with_capacity(count);
    let mut acc = 0u64;
    let mut nbits = 0u32;
    let mut byte_idx = 0usize;
    let mask = (1u64 << bits) - 1;
    for _ in 0..count {
        while nbits < bits {
            acc |= u64::from(src[byte_idx]) << nbits;
            byte_idx += 1;
            nbits += 8;
        }
        out.push((acc & mask) as u32);
        acc >>= bits;
        nbits -= bits;
    }
    Ok(out)
}

impl FloatCodec for Isabela {
    fn name(&self) -> &'static str {
        "isabela"
    }

    fn is_lossy(&self) -> bool {
        true
    }

    fn encode_f64(&self, input: &[f64]) -> Vec<u8> {
        let stream = self.encode_stream(input);
        if stream.len() < 8 * input.len() {
            stream
        } else {
            crate::f64s_to_bytes(input)
        }
    }

    fn expand_f64(&self, payload: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let values = Self::decode_stream(payload)?;
        if values.len() != n {
            return Err(CodecError::LengthMismatch {
                expected: n,
                actual: values.len(),
            });
        }
        Ok(values)
    }
}

impl Isabela {
    /// The `MISA` stream of `input`: magic, value count, window, error
    /// bound, then the windows.
    fn encode_stream(&self, input: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() * 2 + 64);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.window as u32).to_le_bytes());
        out.extend_from_slice(&self.error_bound.to_le_bytes());

        for win in input.chunks(self.window) {
            self.compress_window(win, &mut out);
        }
        out
    }

    /// Decode an `MISA` stream: at most one value per stream byte (a
    /// stored window takes 8 bytes a value, a fitted one a varint).
    fn decode_stream(input: &[u8]) -> Result<Vec<f64>, CodecError> {
        if input.len() < 24 {
            return Err(CodecError::Truncated);
        }
        if u32::from_le_bytes(input[0..4].try_into().unwrap()) != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let total = u64::from_le_bytes(input[4..12].try_into().unwrap()) as usize;
        let window = u32::from_le_bytes(input[12..16].try_into().unwrap()) as usize;
        let eps = f64::from_le_bytes(input[16..24].try_into().unwrap());
        if window == 0 || !eps.is_finite() {
            return Err(CodecError::Corrupt("bad header"));
        }
        let mut pos = 24usize;
        // `total` is untrusted: pre-reserve only a bounded amount.
        let mut out = Vec::with_capacity(total.min(2 << 20));
        while out.len() < total {
            let n = (total - out.len()).min(window);
            Self::decompress_window(input, &mut pos, n, eps, &mut out)?;
        }
        Ok(out)
    }

    fn compress_window(&self, win: &[f64], out: &mut Vec<u8>) {
        let n = win.len();
        // Windows too small to fit, or containing non-finite values,
        // are stored raw (flag 0).
        if n < self.coeffs.max(4) || win.iter().any(|v| !v.is_finite()) {
            out.push(0);
            for v in win {
                out.extend_from_slice(&v.to_le_bytes());
            }
            return;
        }

        // Sort: perm[sorted_pos] = original index.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by(|&a, &b| win[a as usize].partial_cmp(&win[b as usize]).unwrap());
        let sorted: Vec<f64> = perm.iter().map(|&i| win[i as usize]).collect();

        let spline = BSpline::fit(&sorted, self.coeffs);
        let approx = spline.eval_all();

        // Per-window absolute noise floor below which "relative" error
        // is meaningless.
        let max_abs = sorted.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let floor = (max_abs * 1e-12).max(1e-300);

        // Quantize residuals; escape points the bound cannot cover.
        let mut qstream: Vec<u8> = Vec::with_capacity(n);
        let mut escapes: Vec<(u32, f64)> = Vec::new();
        for i in 0..n {
            let v = sorted[i];
            let s = approx[i];
            let step = self.error_bound * s.abs().max(floor);
            let q = ((v - s) / step).round();
            let (q, recon) = if q.abs() > 1e15 {
                (0.0, s)
            } else {
                (q, s + q * step)
            };
            if (recon - v).abs() <= self.error_bound * v.abs().max(floor) {
                write_varint(&mut qstream, zigzag(q as i64));
            } else {
                write_varint(&mut qstream, zigzag(0));
                escapes.push((i as u32, v));
            }
        }

        out.push(1);
        out.extend_from_slice(&(n as u16).to_le_bytes());
        out.extend_from_slice(&(self.coeffs as u16).to_le_bytes());
        out.extend_from_slice(&floor.to_le_bytes());
        for c in spline.coeffs() {
            out.extend_from_slice(&c.to_le_bytes());
        }
        let bits = index_bits(n);
        pack_indices(&perm, bits, out);
        out.extend_from_slice(&(qstream.len() as u32).to_le_bytes());
        out.extend_from_slice(&qstream);
        out.extend_from_slice(&(escapes.len() as u32).to_le_bytes());
        for (i, v) in &escapes {
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decompress_window(
        data: &[u8],
        pos: &mut usize,
        n: usize,
        eps: f64,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let flag = *data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        match flag {
            0 => {
                if *pos + n * 8 > data.len() {
                    return Err(CodecError::Truncated);
                }
                for i in 0..n {
                    let off = *pos + i * 8;
                    out.push(f64::from_le_bytes(data[off..off + 8].try_into().unwrap()));
                }
                *pos += n * 8;
                Ok(())
            }
            1 => {
                let need = |p: usize, k: usize| {
                    if p + k > data.len() {
                        Err(CodecError::Truncated)
                    } else {
                        Ok(())
                    }
                };
                need(*pos, 12)?;
                let stored_n =
                    u16::from_le_bytes(data[*pos..*pos + 2].try_into().unwrap()) as usize;
                let k = u16::from_le_bytes(data[*pos + 2..*pos + 4].try_into().unwrap()) as usize;
                let floor = f64::from_le_bytes(data[*pos + 4..*pos + 12].try_into().unwrap());
                *pos += 12;
                if stored_n != n {
                    return Err(CodecError::LengthMismatch {
                        expected: n,
                        actual: stored_n,
                    });
                }
                if k < 4 || k > n {
                    return Err(CodecError::Corrupt("bad coefficient count"));
                }
                need(*pos, k * 8)?;
                let mut coeffs = Vec::with_capacity(k);
                for i in 0..k {
                    let off = *pos + i * 8;
                    coeffs.push(f64::from_le_bytes(data[off..off + 8].try_into().unwrap()));
                }
                *pos += k * 8;

                let bits = index_bits(n);
                let perm = unpack_indices(data, pos, n, bits)?;
                if perm.iter().any(|&p| p as usize >= n) {
                    return Err(CodecError::Corrupt("permutation index out of range"));
                }

                need(*pos, 4)?;
                let qlen = u32::from_le_bytes(data[*pos..*pos + 4].try_into().unwrap()) as usize;
                *pos += 4;
                need(*pos, qlen)?;
                let qdata = &data[*pos..*pos + qlen];
                *pos += qlen;

                let spline = BSpline::from_coeffs(coeffs, n);
                let mut recon_sorted = Vec::with_capacity(n);
                let mut qpos = 0usize;
                for i in 0..n {
                    let s = spline.eval(i);
                    let q = unzigzag(read_varint(qdata, &mut qpos)?) as f64;
                    let step = eps * s.abs().max(floor);
                    recon_sorted.push(s + q * step);
                }

                need(*pos, 4)?;
                let nesc = u32::from_le_bytes(data[*pos..*pos + 4].try_into().unwrap()) as usize;
                *pos += 4;
                need(*pos, nesc * 12)?;
                for _ in 0..nesc {
                    let i = u32::from_le_bytes(data[*pos..*pos + 4].try_into().unwrap()) as usize;
                    let v = f64::from_le_bytes(data[*pos + 4..*pos + 12].try_into().unwrap());
                    *pos += 12;
                    if i >= n {
                        return Err(CodecError::Corrupt("escape index out of range"));
                    }
                    recon_sorted[i] = v;
                }

                // Scatter back to original order.
                let base = out.len();
                out.resize(base + n, 0.0);
                for (sorted_pos, &orig) in perm.iter().enumerate() {
                    out[base + orig as usize] = recon_sorted[sorted_pos];
                }
                Ok(())
            }
            _ => Err(CodecError::Corrupt("unknown window flag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bound(data: &[f64], eps: f64) -> usize {
        let codec = Isabela::new(eps);
        let c = codec.compress_f64(data);
        let d = codec.decompress_f64(&c).unwrap();
        assert_eq!(d.len(), data.len());
        let max_abs = data.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let floor = (max_abs * 1e-12).max(1e-300);
        for (i, (a, b)) in data.iter().zip(&d).enumerate() {
            let tol = eps * a.abs().max(floor) * (1.0 + 1e-9);
            assert!(
                (a - b).abs() <= tol,
                "point {i}: |{a} - {b}| = {} > {tol}",
                (a - b).abs()
            );
        }
        c.len()
    }

    fn noisy_series(n: usize) -> Vec<f64> {
        let mut x = 0xCAFEBABE_12345678u64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let noise = (x % 10_000) as f64 / 10_000.0;
                100.0 * ((i as f64) * 0.01).sin() + noise * 10.0
            })
            .collect()
    }

    #[test]
    fn error_bound_on_noisy_data() {
        let data = noisy_series(8192);
        let size = check_bound(&data, 0.001);
        assert!(
            size < data.len() * 8 * 45 / 100,
            "ISABELA ratio too poor: {size} vs {}",
            data.len() * 8
        );
    }

    #[test]
    fn looser_bound_compresses_more() {
        let data = noisy_series(8192);
        let tight = Isabela::new(1e-4).compress_f64(&data).len();
        let loose = Isabela::new(1e-2).compress_f64(&data).len();
        assert!(loose <= tight, "loose {loose} vs tight {tight}");
    }

    #[test]
    fn partial_window_and_tiny_inputs() {
        check_bound(&noisy_series(1024 + 17), 0.001);
        check_bound(&[1.0, 2.0, 3.0], 0.001); // below min window: raw
        check_bound(&[], 0.001);
    }

    #[test]
    fn non_finite_values_stored_exactly() {
        let mut data = noisy_series(1024);
        data[100] = f64::INFINITY;
        data[500] = f64::NAN;
        let codec = Isabela::new(0.001);
        let d = codec.decompress_f64(&codec.compress_f64(&data)).unwrap();
        assert!(d[100].is_infinite());
        assert!(d[500].is_nan());
    }

    #[test]
    fn zeros_and_negatives() {
        let data: Vec<f64> = (0..2048)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    -((i % 100) as f64) * 0.5
                }
            })
            .collect();
        check_bound(&data, 0.001);
    }

    #[test]
    fn constant_window() {
        let data = vec![42.0; 2048];
        let size = check_bound(&data, 0.001);
        assert!(size < 2048 * 8 / 2);
    }

    #[test]
    fn rejects_corruption() {
        let codec = Isabela::new(0.001);
        let c = codec.compress_f64(&noisy_series(2048));
        assert!(codec.decompress_f64(&c[..10]).is_err());
        let mut bad = c.clone();
        bad[1] ^= 0xFF;
        assert!(codec.decompress_f64(&bad).is_err());
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for v in [-1_000_000i64, -1, 0, 1, 12345, i64::MAX / 2, i64::MIN / 2] {
            let mut buf = Vec::new();
            write_varint(&mut buf, zigzag(v));
            let mut pos = 0;
            assert_eq!(unzigzag(read_varint(&buf, &mut pos).unwrap()), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn pack_unpack_indices_roundtrip() {
        let idx: Vec<u32> = (0..1000u32).map(|i| (i * 37) % 1000).collect();
        let bits = index_bits(1000);
        let mut buf = Vec::new();
        pack_indices(&idx, bits, &mut buf);
        let mut pos = 0;
        let back = unpack_indices(&buf, &mut pos, 1000, bits).unwrap();
        assert_eq!(back, idx);
    }
}
