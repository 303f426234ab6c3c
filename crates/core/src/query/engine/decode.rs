//! Stage 2 — decode: a PLoD byte-group part decodes to bytes, a
//! whole-value unit to doubles. A part's raw length is its unit's point
//! count times the part's width, so a part stored at that length is
//! its raw bytes (the codecs' raw rule): it reaches reconstruct as the
//! fetched view itself, with no codec call and no copy. A coded part
//! must decode to exactly that length, so a damaged one can neither
//! poison the cache nor index out of range at reconstruction.

use crate::cache::{ByteView, CachedBlock};
use crate::plod;
use crate::Result;
use mloc_compress::{Codec, CodecKind, FloatCodec};
use std::sync::Arc;

/// One rank's decompressors plus its materialized-bytes count.
pub(crate) struct Decoder {
    byte_codec: Box<dyn Codec>,
    float_codec: Box<dyn FloatCodec>,
    /// Allocation proxy: bytes materialized into fresh buffers by
    /// decompression, and by laying a unit's parts back to back for
    /// the cache (fetches, raw parts and cache hits copy nothing).
    pub copy_bytes: u64,
}

impl Decoder {
    pub fn new(codec: CodecKind) -> Self {
        Decoder {
            byte_codec: codec.byte_codec(),
            float_codec: codec.float_codec(),
            copy_bytes: 0,
        }
    }

    /// PLoD part `p` of a unit holding `count` points, as fetched.
    pub fn part(&mut self, stored: ByteView, p: usize, count: usize) -> Result<ByteView> {
        let raw_len = count * plod::PART_BYTES[p];
        if stored.len() == raw_len {
            return Ok(stored);
        }
        let bytes = self.byte_codec.decode(&stored, raw_len)?;
        self.copy_bytes += bytes.len() as u64;
        Ok(ByteView::from(bytes))
    }

    /// A whole-value unit holding `count` points.
    pub fn floats(&mut self, stored: &[u8], count: usize) -> Result<CachedBlock> {
        let vals = self.float_codec.decode_f64(stored, count)?;
        let block = CachedBlock::Floats(Arc::new(vals));
        self.copy_bytes += block.cost();
        Ok(block)
    }

    /// Lay a unit's decoded parts `0..k` back to back: the prefix block
    /// the cache keeps of the unit (see [`plod::part_range`]).
    pub fn prefix(&mut self, parts: &[&[u8]]) -> CachedBlock {
        let block = parts.concat();
        self.copy_bytes += block.len() as u64;
        CachedBlock::Bytes(ByteView::from(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A raw part comes back as the fetched view — the same buffer, no
    /// byte copied — without a codec call: these bytes are no DEFLATE
    /// payload (block kind 7), so a decode would fail. A coded part is
    /// decoded and counted.
    #[test]
    fn a_raw_part_reaches_reconstruct_as_the_fetched_buffer() {
        let mut decoder = Decoder::new(CodecKind::Deflate);
        let fetched = Arc::new(vec![7u8; 64]);
        let view = ByteView::slice(Arc::clone(&fetched), 8, 2 * plod::PART_BYTES[0]);
        let got = decoder.part(view, 0, 2).unwrap();
        assert!(std::ptr::eq(
            got.as_slice(),
            &fetched[8..8 + 2 * plod::PART_BYTES[0]]
        ));
        assert_eq!(decoder.copy_bytes, 0);
        assert!(Codec::decode(&mloc_compress::Deflate, &fetched[..10], 12).is_err());

        let part = vec![9u8; 40];
        let payload = mloc_compress::Deflate.encode(&part);
        assert!(payload.len() < part.len());
        let got = decoder.part(ByteView::from(payload), 1, 40).unwrap();
        assert_eq!(got.as_slice(), &part[..]);
        assert_eq!(decoder.copy_bytes, 40);
        // A coded part that decodes to another length is refused.
        let short = mloc_compress::Deflate.encode(&part[..39]);
        assert!(decoder.part(ByteView::from(short), 1, 40).is_err());
    }
}
