//! Identity codec: stores bytes unchanged (sequential-scan baseline).

use crate::{Codec, CodecError};

/// The identity codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct RawCodec;

impl Codec for RawCodec {
    fn name(&self) -> &'static str {
        "raw"
    }

    fn encode(&self, input: &[u8]) -> Vec<u8> {
        input.to_vec()
    }

    /// Every payload of this codec is raw: a shorter one is damage.
    fn expand(&self, _payload: &[u8], _raw_len: usize) -> Result<Vec<u8>, CodecError> {
        Err(CodecError::Corrupt(
            "raw payload shorter than its raw length",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity() {
        let data = b"anything at all".to_vec();
        assert_eq!(RawCodec.encode(&data), data);
        let c = RawCodec.compress(&data);
        assert_eq!(c[1..], data);
        assert_eq!(RawCodec.decompress(&c).unwrap(), data);
        assert!(RawCodec.decode(&data[1..], data.len()).is_err());
    }
}
