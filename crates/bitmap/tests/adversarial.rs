//! Adversarial decode: a stored bitmap extent — a WAH stream, then its
//! rank/select directory — is disk bytes, and the decoders that read it
//! must never panic or allocate past what the bytes can hold. Every
//! input gives `Ok`, `Err` or `None`.

use mloc_bitmap::{RankSelectDir, WahBitmap, WahBuilder, WahRef, RANK_SAMPLE_WORDS};
use proptest::prelude::*;

/// Positions probed per decoded stream: every one below this, and the
/// last declared one (declared lengths of damaged streams run to 2^64).
const PROBED: u64 = 4096;

/// Decode a directory from `bytes`: whatever it decodes to, it holds
/// no more than the bytes it came from.
fn dir_of(bytes: &[u8]) -> RankSelectDir {
    match RankSelectDir::from_bytes(bytes) {
        Ok((dir, n)) => {
            assert!(n <= bytes.len() && dir.size_in_bytes() <= bytes.len());
            dir
        }
        Err(_) => RankSelectDir::empty(),
    }
}

/// Decode `data` the way the membership probe does — the stream, then
/// the directory in the bytes after it — and probe every position the
/// declared length allows, up to [`PROBED`], and the last one.
fn decode_and_probe(data: &[u8]) {
    dir_of(data);
    let mut scratch = Vec::new();
    let Ok((r, used)) = WahRef::decode_into(data, &mut scratch) else {
        return;
    };
    assert!(used <= data.len());
    let dir = dir_of(&data[used..]);
    let len = r.len();
    for pos in (0..len.min(PROBED)).chain(len.checked_sub(1)).chain([len]) {
        if r.rank_bit_with(&dir, pos).is_some() {
            assert!(pos < len, "answered past the declared length");
        }
    }
    // One word per 4 input bytes (a vector's smallest allocation is 4).
    assert!(scratch.capacity() <= (data.len() / 4).max(4));
}

/// A stream long enough to carry a real directory: literals of both
/// densities and fills of both polarities.
fn sampled_bitmap(seed: u64, groups: u64) -> WahBitmap {
    let mut x = seed | 1;
    let mut b = WahBuilder::new();
    for g in 0..groups {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match g % 9 {
            4 => b.append_run(x & 1 == 1, 31 * (1 + x % 4)),
            _ => {
                for j in 0..31 {
                    b.push((x >> (j % 61)) & 1 == 1);
                }
            }
        }
    }
    b.finish()
}

/// The stored form of a bitmap: its stream, then its directory.
fn stored(b: &WahBitmap) -> Vec<u8> {
    let dir = RankSelectDir::build(b.as_ref());
    assert!(!dir.is_empty(), "no directory to damage");
    let mut bytes = b.to_bytes();
    bytes.extend_from_slice(&dir.to_bytes());
    bytes
}

#[test]
fn every_truncation_and_bit_flip_of_a_stored_bitmap_decodes_or_fails() {
    let b = sampled_bitmap(7, 80);
    assert!(b.words().len() > RANK_SAMPLE_WORDS);
    let bytes = stored(&b);
    decode_and_probe(&bytes);
    for cut in 0..bytes.len() {
        decode_and_probe(&bytes[..cut]);
    }
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        decode_and_probe(&flipped);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, most behind a valid magic so they reach the
    /// word and directory decoders, some with a plausible word count.
    #[test]
    fn arbitrary_bytes_decode_or_fail(
        mut data in proptest::collection::vec(any::<u8>(), 0..600),
        magic in any::<bool>(),
        words in 0u32..160,
    ) {
        if magic && data.len() >= 16 {
            data[..4].copy_from_slice(&WahBitmap::zeros(0).to_bytes()[..4]);
            if words % 2 == 0 {
                data[12..16].copy_from_slice(&words.to_le_bytes());
            }
        }
        decode_and_probe(&data);
    }

    /// A stored bitmap with random bytes overwritten: damage anywhere,
    /// several places at once.
    #[test]
    fn damaged_stored_bitmaps_decode_or_fail(
        seed in any::<u64>(),
        hits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..6),
    ) {
        let mut bytes = stored(&sampled_bitmap(seed, 90));
        let n = bytes.len();
        for (at, v) in hits {
            bytes[usize::from(at) % n] = v;
        }
        decode_and_probe(&bytes);
    }
}
