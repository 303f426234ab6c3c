//! Stage 2 — decode: a PLoD byte-group part decompresses to bytes, a
//! whole-value unit to doubles. The decoded length is checked against
//! the unit's point count before the block is offered to the cache,
//! so a damaged stream can neither poison the cache nor index out of
//! range at reconstruction.

use super::fetch::Fetcher;
use crate::cache::{BlockKey, BlockPart, ByteView, CachedBlock};
use crate::plod;
use crate::{MlocError, Result};
use mloc_compress::{Codec, CodecKind, FloatCodec};
use std::sync::Arc;

/// One rank's decompressors plus its materialized-bytes count.
pub(crate) struct Decoder {
    byte_codec: Box<dyn Codec>,
    float_codec: Box<dyn FloatCodec>,
    /// Allocation proxy: bytes materialized into fresh buffers by
    /// decompression (fetches and cache inserts copy nothing).
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

    /// Decompress the stored bytes of the data block `key` names — of
    /// a unit holding `count` points — check the decoded length, and
    /// publish the block to the cache.
    pub fn decode(
        &mut self,
        fetcher: &mut Fetcher<'_, '_>,
        key: BlockKey,
        raw: &[u8],
        count: usize,
    ) -> Result<CachedBlock> {
        let (block, decoded_len, want_len) = match key.part {
            BlockPart::PlodPart(p) => {
                let bytes = self.byte_codec.decompress(raw)?;
                let len = bytes.len();
                let block = CachedBlock::Bytes(ByteView::from(bytes));
                (block, len, count * plod::PART_BYTES[usize::from(p)])
            }
            BlockPart::Floats => {
                let vals = self.float_codec.decompress_f64(raw)?;
                let len = vals.len();
                (CachedBlock::Floats(Arc::new(vals)), len, count)
            }
            _ => return Err(MlocError::Corrupt("not a data block")),
        };
        if decoded_len != want_len {
            return Err(MlocError::Corrupt("unit length mismatch"));
        }
        self.copy_bytes += block.cost();
        fetcher.publish(key, block.clone());
        Ok(block)
    }
}
