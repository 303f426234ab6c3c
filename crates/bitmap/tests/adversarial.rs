//! Adversarial decode: a stored bitmap extent — a WAH stream, then its
//! rank/select directory — is disk bytes, and the decoders that read it
//! must never panic or allocate past what the bytes can hold. Every
//! input gives `Ok` or `Err`; a run list the decoder accepts never
//! holds a run past its length or more ones than it declares, and a
//! damaged copy of a valid extent that still declares the valid one's
//! count and length — what a reader checks it against — holds the
//! valid one's runs.
//!
//! The vendored proptest does not shrink: the damage properties are
//! functions of one seed, and a failing seed becomes a replay row.

use mloc_bitmap::{RankSelectDir, RunListBuf, WahBitmap, WahBuilder, RANK_SAMPLE_WORDS};
use proptest::prelude::*;

/// Decode a directory from `bytes`: whatever it decodes to, it holds
/// no more than the bytes it came from.
fn dir_of(bytes: &[u8]) {
    if let Ok((dir, n)) = RankSelectDir::from_bytes(bytes) {
        assert!(n <= bytes.len() && dir.size_in_bytes() <= bytes.len());
    }
}

/// What a decoded extent declares and holds.
#[derive(Debug, PartialEq)]
struct Decoded {
    count: u64,
    len: u64,
    runs: Vec<(u64, u64, u64)>,
}

/// Decode `data` as a reader does — the stream, then the directory in
/// the bytes after it — into a run list, and walk it: the runs rise,
/// each with its rank, none past the declared length, their lengths
/// summing to the declared count, in no more bytes than the input can
/// account for.
fn decode_and_walk(data: &[u8]) -> Option<Decoded> {
    dir_of(data);
    let mut buf = RunListBuf::new();
    let at = buf.push_wah(data).ok()?;
    let list = buf.get(at)?;
    let runs: Vec<(u64, u64, u64)> = list.iter().collect();
    let (mut ones, mut end) = (0u64, 0u64);
    for &(start, ones_before, len) in &runs {
        assert!(len > 0 && start >= end, "runs out of order");
        assert_eq!(ones_before, ones, "a run's rank");
        ones += len;
        end = start + len;
    }
    assert!(end <= list.len(), "a run past the declared length");
    assert_eq!(ones, list.count(), "more or fewer ones than declared");
    // Two one-byte varints per run, at most sixteen runs a literal word,
    // and a long gap once a fill.
    assert!(list.to_list().heap_bytes() <= 8 * data.len() as u64 + 20);
    Some(Decoded {
        count: list.count(),
        len: list.len(),
        runs,
    })
}

/// Decode a damaged copy of `valid`: an error, or a list that is not
/// what a reader expects (another count or length), or `valid`'s runs.
fn damaged(data: &[u8], valid: &Decoded) {
    if let Some(d) = decode_and_walk(data) {
        if (d.count, d.len) == (valid.count, valid.len) {
            assert_eq!(d.runs, valid.runs, "same declarations, other runs");
        }
    }
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
    // A stream with a directory, and one with none (a v1 extent).
    for b in [
        sampled_bitmap(7, 80),
        WahBitmap::from_sorted_positions(300, &[0, 5, 6, 7, 64, 299]),
    ] {
        let bytes = if b.words().len() > RANK_SAMPLE_WORDS {
            stored(&b)
        } else {
            b.to_bytes()
        };
        let valid = decode_and_walk(&bytes).expect("the stored bitmap decodes");
        let want: Vec<u64> = valid.runs.iter().flat_map(|r| r.0..r.0 + r.2).collect();
        assert_eq!(want, b.to_positions());
        for cut in 0..bytes.len() {
            damaged(&bytes[..cut], &valid);
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            damaged(&flipped, &valid);
        }
    }
}

/// A stored bitmap of seed `seed`, with a few random bytes overwritten.
fn overwrite(seed: u64) {
    let bytes = stored(&sampled_bitmap(seed, 90));
    let valid = decode_and_walk(&bytes).expect("the stored bitmap decodes");
    let mut x = seed | 1;
    let mut copy = bytes.clone();
    for _ in 0..1 + seed % 5 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        copy[(x % bytes.len() as u64) as usize] = (x >> 32) as u8;
    }
    let d = decode_and_walk(&copy);
    // Several bytes at once may cancel out in the declarations (not a
    // single flip's guarantee), but never break a walk's invariants.
    if let Some(d) = d.filter(|d| (d.count, d.len) == (valid.count, valid.len)) {
        assert!(
            d.runs.iter().all(|r| r.0 + r.2 <= valid.len),
            "seed {seed:#x}"
        );
    }
}

/// Seeds of [`overwrite`] to replay: add the seed a failing run prints.
const REPLAY: &[u64] = &[0, 1, 7, 0xDEAD_BEEF, u64::MAX];

#[test]
fn replayed_damage_seeds_decode_or_fail() {
    for &seed in REPLAY {
        overwrite(seed);
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
        decode_and_walk(&data);
    }

    /// A stored bitmap with random bytes overwritten: damage anywhere,
    /// several places at once.
    #[test]
    fn damaged_stored_bitmaps_decode_or_fail(seed in any::<u64>()) {
        overwrite(seed);
    }
}
