//! Compression suite for MLOC.
//!
//! The paper (§III-B.4) treats compression as a first-class layout
//! level with pluggable codecs. This crate provides from-scratch
//! implementations of every codec family the paper exercises:
//!
//! * [`deflate`] — a DEFLATE-style LZ77 + canonical-Huffman byte codec
//!   (the paper's "standard Zlib compression", used by MLOC-COL on
//!   PLoD byte columns).
//! * [`isobar`] — an ISOBAR-style lossless preconditioner for
//!   double-precision data: byte columns are analyzed for
//!   compressibility, compressible columns are routed through the
//!   DEFLATE-style codec and incompressible ones stored raw
//!   (MLOC-ISO).
//! * [`isabela`] — an ISABELA-style lossy codec: values are sorted per
//!   window, the monotone curve is fitted with a cubic B-spline, and a
//!   quantized error correction bounds the per-point relative error
//!   (MLOC-ISA).
//! * [`fpc`] — an FPC-style predictive lossless floating-point codec
//!   (FCM/DFCM predictors + leading-zero suppression), standing in for
//!   FPZip as "a fast lossless FP codec plug-in".
//! * [`raw`] — the identity codec (sequential-scan baseline storage).
//! * [`v6`] — the readers of format v6's self-describing part streams,
//!   which `mloc upgrade` decodes before encoding the parts again.
//!
//! Byte-oriented codecs implement [`Codec`]; float-oriented codecs
//! implement [`FloatCodec`]. [`CodecKind`] is the serializable selector
//! the MLOC configuration uses.

//! # Example
//!
//! ```
//! use mloc_compress::{Codec, CodecKind, FloatCodec};
//!
//! let values: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin()).collect();
//!
//! // Lossless: bit-exact roundtrip.
//! let codec = CodecKind::Isobar.float_codec();
//! let packed = codec.compress_f64(&values);
//! assert_eq!(codec.decompress_f64(&packed).unwrap(), values);
//!
//! // Lossy with a guaranteed relative error bound.
//! let lossy = CodecKind::Isabela { error_bound: 1e-3 }.float_codec();
//! let packed = lossy.compress_f64(&values);
//! let approx = lossy.decompress_f64(&packed).unwrap();
//! assert!(values.iter().zip(&approx).all(|(a, b)| (a - b).abs() <= 1e-3 * a.abs().max(1e-9)));
//! ```

pub mod deflate;
pub mod fpc;
pub mod isabela;
pub mod isobar;
pub mod raw;
pub mod v6;

mod bitio;

pub use deflate::Deflate;
pub use fpc::Fpc;
pub use isabela::Isabela;
pub use isobar::Isobar;
pub use raw::RawCodec;

/// Errors arising while decoding compressed streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the encoded stream was complete.
    Truncated,
    /// Magic number or format tag mismatch.
    BadMagic,
    /// Structurally invalid stream.
    Corrupt(&'static str),
    /// Decoded length differs from the expected length.
    LengthMismatch { expected: usize, actual: usize },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed stream truncated"),
            CodecError::BadMagic => write!(f, "bad codec magic"),
            CodecError::Corrupt(why) => write!(f, "corrupt stream: {why}"),
            CodecError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A byte-stream compressor/decompressor.
///
/// What a codec stores for an input is its *payload*. The raw rule
/// holds for every codec: a payload as long as its input is the input
/// itself, so the encoder returns the input unchanged whenever coding
/// would not make it shorter, and a reader that knows the raw length —
/// a bin file derives it from the unit's count and the part's width —
/// uses a raw payload in place, without calling the codec.
pub trait Codec: Send + Sync {
    /// Stable codec name for reports and file headers.
    fn name(&self) -> &'static str;

    /// The payload of `input`: shorter than `input`, or `input` itself.
    fn encode(&self, input: &[u8]) -> Vec<u8>;

    /// Decode `payload`, shorter than its raw length `raw_len`, to
    /// exactly `raw_len` bytes, consuming all of it.
    fn expand(&self, payload: &[u8], raw_len: usize) -> Result<Vec<u8>, CodecError>;

    /// Decode any payload of `raw_len` bytes: a raw one is copied, a
    /// longer one refused, a shorter one expanded.
    fn decode(&self, payload: &[u8], raw_len: usize) -> Result<Vec<u8>, CodecError> {
        match payload.len().cmp(&raw_len) {
            std::cmp::Ordering::Equal => Ok(payload.to_vec()),
            std::cmp::Ordering::Greater => Err(LONGER_THAN_RAW),
            std::cmp::Ordering::Less => self.expand(payload, raw_len),
        }
    }

    /// A self-contained stream: the raw length (LEB128), then the
    /// payload.
    fn compress(&self, input: &[u8]) -> Vec<u8> {
        framed(input.len(), self.encode(input))
    }

    /// Decode a stream produced by [`Codec::compress`].
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let (raw_len, payload) = unframe(input)?;
        self.decode(payload, raw_len)
    }
}

/// A double-precision-array compressor/decompressor.
///
/// Lossy codecs (ISABELA) bound the per-point *relative* error instead
/// of reproducing bits exactly. The raw rule of [`Codec`] holds with
/// the values' little-endian bytes (8 per value) as the raw form.
pub trait FloatCodec: Send + Sync {
    /// Stable codec name for reports and file headers.
    fn name(&self) -> &'static str;

    /// Whether decompression reproduces inputs only approximately.
    fn is_lossy(&self) -> bool;

    /// The payload of `input`: shorter than its 8 bytes per value, or
    /// those bytes.
    fn encode_f64(&self, input: &[f64]) -> Vec<u8>;

    /// Decode `payload`, shorter than `8 * n` bytes, to exactly `n`
    /// values, consuming all of it.
    fn expand_f64(&self, payload: &[u8], n: usize) -> Result<Vec<f64>, CodecError>;

    /// Decode any payload of `n` values (see [`Codec::decode`]).
    fn decode_f64(&self, payload: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        let raw_len = n.checked_mul(8).ok_or(LONGER_THAN_RAW)?;
        match payload.len().cmp(&raw_len) {
            std::cmp::Ordering::Equal => bytes_to_f64s(payload),
            std::cmp::Ordering::Greater => Err(LONGER_THAN_RAW),
            std::cmp::Ordering::Less => self.expand_f64(payload, n),
        }
    }

    /// A self-contained stream: the value count (LEB128), then the
    /// payload.
    fn compress_f64(&self, input: &[f64]) -> Vec<u8> {
        framed(input.len(), self.encode_f64(input))
    }

    /// Decode a stream produced by [`FloatCodec::compress_f64`].
    fn decompress_f64(&self, input: &[u8]) -> Result<Vec<f64>, CodecError> {
        let (n, payload) = unframe(input)?;
        self.decode_f64(payload, n)
    }
}

/// A payload longer than the raw bytes it stands for: no encoder
/// writes one.
const LONGER_THAN_RAW: CodecError = CodecError::Corrupt("payload longer than its raw length");

/// `len` as LEB128, then `payload`.
fn framed(len: usize, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 10);
    write_varint(&mut out, len as u64);
    out.extend_from_slice(&payload);
    out
}

/// The length and the payload of a stream written by [`framed`].
fn unframe(input: &[u8]) -> Result<(usize, &[u8]), CodecError> {
    let mut pos = 0;
    let len = read_varint(input, &mut pos)?;
    let len = usize::try_from(len).map_err(|_| CodecError::Corrupt("length overflow"))?;
    Ok((len, &input[pos..]))
}

/// Append `v` as LEB128.
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// The LEB128 value at `*pos`, advancing `*pos` past it.
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint too long"));
        }
    }
}

/// View a `f64` slice as little-endian bytes.
pub fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Inverse of [`f64s_to_bytes`].
pub fn bytes_to_f64s(bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(CodecError::Corrupt("byte length not a multiple of 8"));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Serializable codec selector used in MLOC dataset configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecKind {
    /// No compression.
    Raw,
    /// DEFLATE-style byte compression (MLOC-COL's per-column codec).
    Deflate,
    /// ISOBAR-style lossless FP compression (MLOC-ISO).
    Isobar,
    /// ISABELA-style lossy FP compression with the given point-wise
    /// relative error bound (MLOC-ISA).
    Isabela {
        /// Point-wise relative error bound (e.g. `0.001` for 0.1 %).
        error_bound: f64,
    },
    /// FPC-style predictive lossless FP compression.
    Fpc,
}

impl CodecKind {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Raw => "raw",
            CodecKind::Deflate => "deflate",
            CodecKind::Isobar => "isobar",
            CodecKind::Isabela { .. } => "isabela",
            CodecKind::Fpc => "fpc",
        }
    }

    /// Whether this codec loses information.
    pub fn is_lossy(self) -> bool {
        matches!(self, CodecKind::Isabela { .. })
    }

    /// Instantiate the byte-stream codec for this kind.
    ///
    /// ISOBAR is natively byte-level (it entropy-routes any byte
    /// stream), so it serves byte columns directly. The remaining
    /// float-only codecs compress the little-endian byte image of the
    /// values via the [`FloatCodec`] adapter, so every kind can serve
    /// byte streams (MLOC compresses byte *columns* with byte codecs
    /// and whole-value streams with float codecs).
    pub fn byte_codec(self) -> Box<dyn Codec> {
        match self {
            CodecKind::Raw => Box::new(RawCodec),
            CodecKind::Deflate => Box::new(Deflate),
            CodecKind::Isobar => Box::new(Isobar),
            CodecKind::Isabela { error_bound } => Box::new(FloatAsByte(Isabela::new(error_bound))),
            CodecKind::Fpc => Box::new(FloatAsByte(Fpc)),
        }
    }

    /// Instantiate the float codec for this kind.
    pub fn float_codec(self) -> Box<dyn FloatCodec> {
        match self {
            CodecKind::Raw => Box::new(ByteAsFloat(RawCodec)),
            CodecKind::Deflate => Box::new(ByteAsFloat(Deflate)),
            CodecKind::Isobar => Box::new(Isobar),
            CodecKind::Isabela { error_bound } => Box::new(Isabela::new(error_bound)),
            CodecKind::Fpc => Box::new(Fpc),
        }
    }

    /// Encode the kind as a `(tag, param)` pair for binary headers.
    pub fn to_tag(self) -> (u8, f64) {
        match self {
            CodecKind::Raw => (0, 0.0),
            CodecKind::Deflate => (1, 0.0),
            CodecKind::Isobar => (2, 0.0),
            CodecKind::Isabela { error_bound } => (3, error_bound),
            CodecKind::Fpc => (4, 0.0),
        }
    }

    /// Decode a `(tag, param)` pair written by [`Self::to_tag`].
    pub fn from_tag(tag: u8, param: f64) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => CodecKind::Raw,
            1 => CodecKind::Deflate,
            2 => CodecKind::Isobar,
            3 => CodecKind::Isabela { error_bound: param },
            4 => CodecKind::Fpc,
            _ => return Err(CodecError::Corrupt("unknown codec tag")),
        })
    }
}

/// Adapter exposing a [`FloatCodec`] as a byte [`Codec`].
///
/// The byte stream must be a whole number of little-endian doubles.
struct FloatAsByte<C: FloatCodec>(C);

impl<C: FloatCodec> Codec for FloatAsByte<C> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn encode(&self, input: &[u8]) -> Vec<u8> {
        let values = bytes_to_f64s(input).expect("float codec requires an 8-byte-aligned stream");
        self.0.encode_f64(&values)
    }

    fn expand(&self, payload: &[u8], raw_len: usize) -> Result<Vec<u8>, CodecError> {
        if !raw_len.is_multiple_of(8) {
            return Err(CodecError::Corrupt("byte length not a multiple of 8"));
        }
        Ok(f64s_to_bytes(&self.0.expand_f64(payload, raw_len / 8)?))
    }
}

/// Adapter exposing a byte [`Codec`] as a [`FloatCodec`] by compressing
/// the little-endian byte image.
struct ByteAsFloat<C: Codec>(C);

impl<C: Codec> FloatCodec for ByteAsFloat<C> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn is_lossy(&self) -> bool {
        false
    }

    fn encode_f64(&self, input: &[f64]) -> Vec<u8> {
        self.0.encode(&f64s_to_bytes(input))
    }

    fn expand_f64(&self, payload: &[u8], n: usize) -> Result<Vec<f64>, CodecError> {
        bytes_to_f64s(&self.0.expand(payload, n * 8)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_byte_roundtrip() {
        let vals = [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 3.125];
        let bytes = f64s_to_bytes(&vals);
        assert_eq!(bytes.len(), 40);
        assert_eq!(bytes_to_f64s(&bytes).unwrap(), vals);
    }

    #[test]
    fn bytes_to_f64s_rejects_ragged() {
        assert!(bytes_to_f64s(&[0u8; 9]).is_err());
    }

    #[test]
    fn codec_kind_tags_roundtrip() {
        for kind in [
            CodecKind::Raw,
            CodecKind::Deflate,
            CodecKind::Isobar,
            CodecKind::Isabela { error_bound: 0.01 },
            CodecKind::Fpc,
        ] {
            let (t, p) = kind.to_tag();
            assert_eq!(CodecKind::from_tag(t, p).unwrap(), kind);
        }
        assert!(CodecKind::from_tag(99, 0.0).is_err());
    }

    #[test]
    fn only_isabela_is_lossy() {
        assert!(CodecKind::Isabela { error_bound: 0.001 }.is_lossy());
        assert!(!CodecKind::Deflate.is_lossy());
        assert!(!CodecKind::Isobar.is_lossy());
        assert!(!CodecKind::Fpc.is_lossy());
        assert!(!CodecKind::Raw.is_lossy());
    }
}
