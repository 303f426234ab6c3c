//! Adversarial decode: a serialized WAH bitmap — the FastBit
//! comparator's index records — is disk bytes, and its reader
//! (`WahBitmap::from_bytes`) must never panic or allocate past what
//! the bytes can hold. Every input gives `Ok` or `Err`; a bitmap the
//! reader accepts ORs with a valid bitmap of its length without a
//! panic and walks runs of ones that never pass its length, and a
//! damaged copy of a valid stream that still holds the valid one's
//! count and length holds the valid one's runs.
//!
//! A bin file's bitmap extent — a stored run list — is disk bytes too: every
//! truncation, bit flip and one-byte extension of one is taken or
//! refused without a panic, and a list that is taken holds exactly the
//! count its entry declares.
//!
//! The vendored proptest does not shrink: the damage properties are
//! functions of one seed, and a failing seed becomes a replay row.

use mloc_bitmap::{or, RunList, RunListBuf, WahBitmap, WahBuilder};
use proptest::prelude::*;

/// What a read bitmap declares and holds.
#[derive(Debug, PartialEq)]
struct Decoded {
    count: u64,
    len: u64,
    runs: Vec<(u64, u64, u64)>,
}

/// Read `data` as the FastBit comparator reads an index bitmap, and
/// walk it: refused, or a bitmap, in no more than the bytes, that ORs
/// without a panic with a valid bitmap of its length — `valid` when
/// that is its length — and whose runs of ones rise, each with its
/// rank, none past the declared length, in no more runs than its words
/// can hold.
fn decode_and_walk(data: &[u8], valid: Option<&WahBitmap>) -> Option<Decoded> {
    let (b, used) = WahBitmap::from_bytes(data).ok()?;
    assert!(used <= data.len());
    let other = match valid {
        Some(v) if v.len() == b.len() => v.clone(),
        _ => WahBitmap::zeros(b.len()),
    };
    assert_eq!(or(&b, &other).len(), b.len());
    let (mut runs, mut at) = (Vec::new(), 0u64);
    let ones = b.as_ref().for_each_one_run(|gap, before, len| {
        runs.push((at + gap, before, len));
        at += gap + len;
    });
    let (mut counted, mut end) = (0u64, 0u64);
    for &(start, ones_before, len) in &runs {
        assert!(len > 0 && start >= end, "runs out of order");
        assert_eq!(ones_before, counted, "a run's rank");
        counted += len;
        end = start + len;
    }
    assert!(end <= b.len(), "a run past the declared length");
    assert_eq!(ones, counted, "the walk's count");
    // At most sixteen runs a literal word, one a fill.
    assert!(runs.len() <= 16 * data.len() / 4 + 1);
    Some(Decoded {
        count: ones,
        len: b.len(),
        runs,
    })
}

/// Read a damaged copy of `valid`, serialized from `b`: an error, or a
/// bitmap that is not what a reader expects (another count or length),
/// or `valid`'s runs.
fn damaged(data: &[u8], valid: &Decoded, b: &WahBitmap) {
    if let Some(d) = decode_and_walk(data, Some(b)) {
        if (d.count, d.len) == (valid.count, valid.len) {
            assert_eq!(d.runs, valid.runs, "same declarations, other runs");
        }
    }
}

/// A long stream: literals of both densities and fills of both
/// polarities.
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

#[test]
fn every_truncation_and_bit_flip_of_a_stored_bitmap_decodes_or_fails() {
    // A long stream and a short one.
    for b in [
        sampled_bitmap(7, 80),
        WahBitmap::from_sorted_positions(300, &[0, 5, 6, 7, 64, 299]),
    ] {
        let bytes = b.to_bytes();
        let valid = decode_and_walk(&bytes, Some(&b)).expect("the stored bitmap decodes");
        let want: Vec<u64> = valid.runs.iter().flat_map(|r| r.0..r.0 + r.2).collect();
        assert_eq!(want, b.to_positions());
        for cut in 0..bytes.len() {
            damaged(&bytes[..cut], &valid, &b);
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            damaged(&flipped, &valid, &b);
        }
    }
}

/// A stored bitmap of seed `seed`, with a few random bytes overwritten.
fn overwrite(seed: u64) {
    let b = sampled_bitmap(seed, 90);
    let bytes = b.to_bytes();
    let valid = decode_and_walk(&bytes, Some(&b)).expect("the stored bitmap decodes");
    let mut x = seed | 1;
    let mut copy = bytes.clone();
    for _ in 0..1 + seed % 5 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        copy[(x % bytes.len() as u64) as usize] = (x >> 32) as u8;
    }
    let d = decode_and_walk(&copy, Some(&b));
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
    /// word decoder, some with a plausible word count.
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
        decode_and_walk(&data, None);
    }

    /// A stored bitmap with random bytes overwritten: damage anywhere,
    /// several places at once.
    #[test]
    fn damaged_stored_bitmaps_decode_or_fail(seed in any::<u64>()) {
        overwrite(seed);
    }
}

/// Take `pairs` as a stored run list of `count` set bits in `len`, as
/// a reader does, and walk it: refused, or runs that rise, each with
/// its rank, inside the length, exactly `count` ones in all.
fn take_stored(pairs: &[u8], count: u64, len: u64) -> Option<Vec<(u64, u64, u64)>> {
    let mut buf = RunListBuf::new();
    let at = buf.push_stored(pairs, count, len).ok()?;
    let list = buf.get(at)?;
    let (mut ones, mut end) = (0u64, 0u64);
    let runs: Vec<(u64, u64, u64)> = list.iter().collect();
    for (i, &(start, ones_before, run)) in runs.iter().enumerate() {
        assert!(run > 0 && start >= end, "runs out of order");
        assert!(i == 0 || start > end, "runs not maximal");
        assert_eq!(ones_before, ones, "a run's rank");
        ones += run;
        end = start + run;
    }
    assert!(end <= len, "a run past the length");
    assert_eq!(ones, count, "more or fewer ones than declared");
    assert_eq!(list.to_list().heap_bytes(), pairs.len() as u64);
    Some(runs)
}

/// Stored lists of three shapes — scattered ones, a dense run past two
/// LEB128 bytes, a full chunk — with every byte flipped bit by bit, cut
/// at every length and extended by every byte value: nothing panics,
/// and whatever is accepted holds exactly its declared count. A list
/// whose pairs changed but whose declarations did not is never taken
/// for the valid one's runs unless it is them.
#[test]
fn every_mutation_of_a_stored_run_list_is_taken_or_refused() {
    let lists = [
        (300u64, vec![0u64, 5, 6, 7, 64, 299]),
        (40_000, (100..20_000).chain([39_999]).collect()),
        (4_096, (0..4_096).collect()),
    ];
    for (len, positions) in lists {
        let encoded = RunList::from_sorted_positions(len, &positions);
        let (pairs, count) = (encoded.as_ref().pairs(), positions.len() as u64);
        let valid = take_stored(pairs, count, len).expect("the encoded list is taken");
        for (probe_count, probe_len) in [(count, len), (count + 1, len), (count, len - 1)] {
            for cut in 0..pairs.len() {
                assert!(take_stored(&pairs[..cut], probe_count, probe_len).is_none());
            }
            for bit in 0..pairs.len() * 8 {
                let mut flipped = pairs.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let got = take_stored(&flipped, probe_count, probe_len);
                if (probe_count, probe_len) == (count, len) {
                    assert_ne!(got.as_ref(), Some(&valid), "flip of bit {bit}");
                }
            }
            for extra in 0..=255u8 {
                let mut longer = pairs.to_vec();
                longer.push(extra);
                assert!(take_stored(&longer, probe_count, probe_len).is_none());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes under arbitrary declarations: taken or refused,
    /// never a panic, never more ones than declared.
    #[test]
    fn arbitrary_stored_run_lists_are_taken_or_refused(
        pairs in proptest::collection::vec(any::<u8>(), 0..64),
        count in 0u64..200,
        len in 0u64..400,
    ) {
        take_stored(&pairs, count, len);
    }
}
