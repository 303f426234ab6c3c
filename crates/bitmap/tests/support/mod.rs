//! A bitmap's stored extent as formats v1–v3 wrote it, written here
//! because no writer of those formats remains: its WAH stream, then —
//! past 64 words — its rank/select directory.

use mloc_bitmap::WahBitmap;

/// Words per directory checkpoint.
const SAMPLE_WORDS: usize = 64;

/// `b`'s stored extent: its stream, then its directory — the sample
/// count and the stride (`u32` each), then, after every 64 words
/// strictly inside the stream, the `(bits, ones)` the words so far
/// cover and hold (`u32` each). A stream of at most 64 words has no
/// directory, as in a v1 extent.
pub fn stored(b: &WahBitmap) -> Vec<u8> {
    let mut bytes = b.to_bytes();
    let words: Vec<u32> = bytes[16..]
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
        .collect();
    let (mut bits, mut ones, mut samples) = (0u32, 0u32, Vec::new());
    for (i, &w) in words.iter().enumerate() {
        if w & 0x8000_0000 != 0 {
            let n = (w & 0x3FFF_FFFF) * 31;
            bits += n;
            if w & 0x4000_0000 != 0 {
                ones += n;
            }
        } else {
            bits += 31;
            ones += w.count_ones();
        }
        if (i + 1) % SAMPLE_WORDS == 0 && i + 1 < words.len() {
            samples.push((bits, ones));
        }
    }
    if !samples.is_empty() {
        bytes.extend_from_slice(&(samples.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&(SAMPLE_WORDS as u32).to_le_bytes());
        for (bits, ones) in samples {
            bytes.extend_from_slice(&bits.to_le_bytes());
            bytes.extend_from_slice(&ones.to_le_bytes());
        }
    }
    bytes
}
