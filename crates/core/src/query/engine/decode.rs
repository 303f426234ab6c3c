//! Stage 2 — decode: a PLoD byte-group part decompresses to bytes, a
//! whole-value unit to doubles. The decoded length is checked against
//! the unit's point count before the block is used or offered to the
//! cache, so a damaged stream can neither poison the cache nor index
//! out of range at reconstruction.

use crate::cache::{ByteView, CachedBlock};
use crate::plod;
use crate::{MlocError, Result};
use mloc_compress::{Codec, CodecKind, FloatCodec};
use std::sync::Arc;

/// One rank's decompressors plus its materialized-bytes count.
pub(crate) struct Decoder {
    byte_codec: Box<dyn Codec>,
    float_codec: Box<dyn FloatCodec>,
    /// Allocation proxy: bytes materialized into fresh buffers by
    /// decompression, and by laying a unit's parts back to back for
    /// the cache (fetches and cache hits copy nothing).
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

    /// Decompress PLoD part `p` of a unit holding `count` points and
    /// check its decoded length.
    pub fn part(&mut self, raw: &[u8], p: usize, count: usize) -> Result<ByteView> {
        let bytes = self.byte_codec.decompress(raw)?;
        if bytes.len() != count * plod::PART_BYTES[p] {
            return Err(MlocError::Corrupt("unit length mismatch"));
        }
        self.copy_bytes += bytes.len() as u64;
        Ok(ByteView::from(bytes))
    }

    /// Decompress a whole-value unit holding `count` points and check
    /// its length.
    pub fn floats(&mut self, raw: &[u8], count: usize) -> Result<CachedBlock> {
        let vals = self.float_codec.decompress_f64(raw)?;
        if vals.len() != count {
            return Err(MlocError::Corrupt("unit length mismatch"));
        }
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
