//! Property-based tests: WAH bitmaps behave exactly like plain bit
//! vectors under construction, query, serialization, and logical ops;
//! a run list decoded from a stored bitmap holds exactly its runs of
//! ones, and a walk from wants visits exactly the wanted ones; a run
//! list encoded from positions and taken back as stored walks like the
//! position set it came from.
//!
//! The vendored proptest does not shrink, so the run-list properties
//! are functions of one seed: a failure names its seed, and the seed
//! becomes a row of the property's replay list (`stored_runs.replay`
//! for the stored lists).

use mloc_bitmap::{
    and, andnot, or, or_many, RankSelectDir, RunList, RunListBuf, WahBitmap, WahBuilder,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn positions(bits: &[bool]) -> Vec<u64> {
    bits.iter()
        .enumerate()
        .filter_map(|(i, &b)| b.then_some(i as u64))
        .collect()
}

proptest! {
    #[test]
    fn construction_matches_naive(bits in proptest::collection::vec(any::<bool>(), 0..400)) {
        let bm = WahBitmap::from_bools(&bits);
        prop_assert_eq!(bm.len(), bits.len() as u64);
        prop_assert_eq!(bm.to_positions(), positions(&bits));
        prop_assert_eq!(bm.count_ones(), positions(&bits).len() as u64);
    }

    #[test]
    fn sorted_positions_equals_bools(bits in proptest::collection::vec(any::<bool>(), 1..300)) {
        let pos = positions(&bits);
        let a = WahBitmap::from_sorted_positions(bits.len() as u64, &pos);
        let b = WahBitmap::from_bools(&bits);
        prop_assert_eq!(a.to_positions(), b.to_positions());
    }

    #[test]
    fn serde_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
        let bm = WahBitmap::from_bools(&bits);
        let (back, n) = WahBitmap::from_bytes(&bm.to_bytes()).unwrap();
        prop_assert_eq!(n, bm.to_bytes().len());
        prop_assert_eq!(back, bm);
    }

    #[test]
    fn ops_match_naive(
        a in proptest::collection::vec(any::<bool>(), 100),
        b in proptest::collection::vec(any::<bool>(), 100),
    ) {
        let ba = WahBitmap::from_bools(&a);
        let bb = WahBitmap::from_bools(&b);
        let want_and: Vec<u64> = (0..100).filter(|&i| a[i] && b[i]).map(|i| i as u64).collect();
        let want_or: Vec<u64> = (0..100).filter(|&i| a[i] || b[i]).map(|i| i as u64).collect();
        let want_nd: Vec<u64> = (0..100).filter(|&i| a[i] && !b[i]).map(|i| i as u64).collect();
        prop_assert_eq!(and(&ba, &bb).to_positions(), want_and);
        prop_assert_eq!(or(&ba, &bb).to_positions(), want_or);
        prop_assert_eq!(andnot(&ba, &bb).to_positions(), want_nd);
    }

    #[test]
    fn or_many_matches_fold(
        maps in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 64), 0..6)
    ) {
        let bms: Vec<WahBitmap> = maps.iter().map(|m| WahBitmap::from_bools(m)).collect();
        let got = or_many(&bms, 64);
        let mut want = vec![false; 64];
        for m in &maps {
            for (w, &b) in want.iter_mut().zip(m) {
                *w |= b;
            }
        }
        prop_assert_eq!(got.to_positions(), positions(&want));
    }

    #[test]
    fn iter_runs_equals_iter_ones(bits in proptest::collection::vec(any::<bool>(), 0..500)) {
        let bm = WahBitmap::from_bools(&bits);
        // Expanding one-runs reproduces iter_ones exactly; run lengths
        // tile the whole bitmap with alternating bits.
        let mut from_runs: Vec<u64> = Vec::new();
        let mut cursor = 0u64;
        let mut last_bit: Option<bool> = None;
        for (start, len, bit) in bm.iter_runs() {
            prop_assert_eq!(start, cursor);
            prop_assert!(len > 0);
            prop_assert_ne!(Some(bit), last_bit, "adjacent runs share a bit");
            if bit {
                from_runs.extend(start..start + len);
            }
            cursor += len;
            last_bit = Some(bit);
        }
        prop_assert_eq!(cursor, bm.len());
        prop_assert_eq!(from_runs.len() as u64, bm.count_ones());
        prop_assert_eq!(from_runs, bm.iter_ones().collect::<Vec<u64>>());
    }

    #[test]
    fn iter_runs_equals_iter_ones_with_long_fills(
        segments in proptest::collection::vec((any::<bool>(), 1u64..5_000), 1..12)
    ) {
        // Long fill runs (many whole groups) plus odd-length tails that
        // end in partial literals.
        let mut b = mloc_bitmap::WahBuilder::new();
        for &(bit, n) in &segments {
            b.append_run(bit, n);
        }
        let bm = b.finish();
        let mut from_runs: Vec<u64> = Vec::new();
        let mut cursor = 0u64;
        for (start, len, bit) in bm.iter_runs() {
            prop_assert_eq!(start, cursor);
            if bit {
                from_runs.extend(start..start + len);
            }
            cursor += len;
        }
        prop_assert_eq!(cursor, bm.len());
        prop_assert_eq!(from_runs, bm.iter_ones().collect::<Vec<u64>>());
    }

    #[test]
    fn for_each_one_run_equals_iter_ones(bits in proptest::collection::vec(any::<bool>(), 0..500)) {
        let bm = WahBitmap::from_bools(&bits);
        // `(gap, ones_before, len)` visits reproduce iter_ones exactly:
        // gaps accumulate into the next run's start, `ones_before` is
        // the running rank, and runs are non-empty (though trailing
        // zeros are never reported and runs need not be maximal).
        let mut from_runs: Vec<u64> = Vec::new();
        let mut cursor = 0u64;
        let mut rank = 0u64;
        bm.as_ref().for_each_one_run(|gap, ones_before, len| {
            cursor += gap;
            assert_eq!(ones_before, rank, "ones_before must be the running rank");
            assert!(len > 0, "empty one-run reported");
            from_runs.extend(cursor..cursor + len);
            cursor += len;
            rank += len;
        });
        prop_assert!(cursor <= bm.len());
        prop_assert_eq!(rank, bm.count_ones());
        prop_assert_eq!(from_runs, bm.iter_ones().collect::<Vec<u64>>());
    }

    #[test]
    fn for_each_one_run_with_long_fills(
        segments in proptest::collection::vec((any::<bool>(), 1u64..5_000), 1..12)
    ) {
        let mut b = mloc_bitmap::WahBuilder::new();
        for &(bit, n) in &segments {
            b.append_run(bit, n);
        }
        let bm = b.finish();
        let mut from_runs: Vec<u64> = Vec::new();
        let mut cursor = 0u64;
        bm.as_ref().for_each_one_run(|gap, _, len| {
            cursor += gap;
            from_runs.extend(cursor..cursor + len);
            cursor += len;
        });
        prop_assert!(cursor <= bm.len());
        prop_assert_eq!(from_runs, bm.iter_ones().collect::<Vec<u64>>());
    }

    #[test]
    fn rank_select_match_naive(bits in proptest::collection::vec(any::<bool>(), 1..300)) {
        let bm = WahBitmap::from_bools(&bits);
        let ones = positions(&bits);
        for (k, &p) in ones.iter().enumerate() {
            prop_assert_eq!(bm.select(k as u64), Some(p));
        }
        prop_assert_eq!(bm.select(ones.len() as u64), None);
        for pos in 0..=bits.len() {
            let want = bits[..pos].iter().filter(|&&b| b).count() as u64;
            prop_assert_eq!(bm.rank(pos as u64), want);
        }
    }

    #[test]
    fn dir_rank_select_match_naive(bits in proptest::collection::vec(any::<bool>(), 1..400)) {
        let bm = WahBitmap::from_bools(&bits);
        let dir = RankSelectDir::build(bm.as_ref());
        let r = bm.as_ref();
        let ones = positions(&bits);
        for (k, &p) in ones.iter().enumerate() {
            prop_assert_eq!(r.select_with(&dir, k as u64), Some(p));
            prop_assert_eq!(r.rank_with(&dir, r.select_with(&dir, k as u64).unwrap()), k as u64);
        }
        prop_assert_eq!(r.select_with(&dir, ones.len() as u64), None);
        for pos in 0..=bits.len() {
            let want = bits[..pos].iter().filter(|&&b| b).count() as u64;
            prop_assert_eq!(r.rank_with(&dir, pos as u64), want);
        }
    }

    #[test]
    fn dir_rank_select_with_long_fills(
        segments in proptest::collection::vec((any::<bool>(), 1u64..9_000), 1..16)
    ) {
        // Multi-group fills and trailing partial groups: bitmaps long
        // enough here to carry real (non-empty) sampled directories.
        let mut b = mloc_bitmap::WahBuilder::new();
        for &(bit, n) in &segments {
            b.append_run(bit, n);
        }
        let bm = b.finish();
        let dir = RankSelectDir::build(bm.as_ref());
        let r = bm.as_ref();
        let total = bm.count_ones();
        let step = (bm.len() / 97).max(1);
        let mut pos = 0;
        while pos <= bm.len() {
            prop_assert_eq!(r.rank_with(&dir, pos), bm.rank(pos));
            pos += step;
        }
        let kstep = (total / 97).max(1);
        let mut k = 0;
        while k < total {
            let p = r.select_with(&dir, k);
            prop_assert_eq!(p, bm.select(k));
            prop_assert_eq!(r.rank_with(&dir, p.unwrap()), k, "rank(select(k)) roundtrip");
            k += kstep;
        }
        prop_assert_eq!(r.select_with(&dir, total), None);
        // Serialized directory survives a roundtrip and stays bounded.
        let bytes = dir.to_bytes();
        let (back, n) = RankSelectDir::from_bytes(&bytes).unwrap();
        prop_assert_eq!(n, bytes.len());
        prop_assert_eq!(&back, &dir);
        prop_assert!(dir.size_in_bytes() == 0 || dir.size_in_bytes() * 20 <= bm.size_in_bytes() + 160);
    }

    #[test]
    fn sparse_bitmaps_stay_small(n_ones in 0usize..20) {
        let n = 1_000_000u64;
        let pos: Vec<u64> = (0..n_ones as u64).map(|i| i * 40_000).collect();
        let bm = WahBitmap::from_sorted_positions(n, &pos);
        // Each set bit costs at most ~3 words plus constant overhead.
        prop_assert!(bm.size_in_bytes() <= 24 + n_ones * 12);
        prop_assert_eq!(bm.to_positions(), pos);
    }
}

/// xorshift64*: the run-list properties' one source of cases.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15 | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A bitmap of `len` bits from `rng`: alternating runs, mostly a few
/// bits long (scattered set bits, mixed literals), some many groups
/// long (fills of both kinds).
fn bitmap_of(rng: &mut Rng, len: u64) -> WahBitmap {
    let mut b = WahBuilder::new();
    let mut bit = rng.below(2) == 1;
    while b.len() < len {
        let run = match rng.below(8) {
            0 => 31 + rng.below(31 * 40),
            1 | 2 => 1 + rng.below(31),
            _ => 1 + rng.below(4),
        };
        b.append_run(bit, run.min(len - b.len()));
        bit = !bit;
    }
    b.finish()
}

/// `b`'s stored extent (its stream, then its directory) decoded into a
/// run list in `buf`.
fn decode(buf: &mut RunListBuf, b: &WahBitmap) -> usize {
    let mut extent = b.to_bytes();
    extent.extend_from_slice(&RankSelectDir::build(b.as_ref()).to_bytes());
    buf.push_wah(&extent).expect("a stored bitmap decodes")
}

/// The run list of a bitmap of `len` bits is `iter_runs`'s runs of
/// ones, each with its rank, and carries the bitmap's count and length.
fn runs_match_iter_runs(seed: u64, len: u64) {
    let mut rng = Rng::new(seed);
    let b = bitmap_of(&mut rng, len);
    let mut buf = RunListBuf::new();
    let at = decode(&mut buf, &b);
    let list = buf.get(at).unwrap();
    let mut ones = 0;
    let want: Vec<(u64, u64, u64)> = b
        .iter_runs()
        .filter(|&(_, _, bit)| bit)
        .map(|(start, len, _)| {
            ones += len;
            (start, ones - len, len)
        })
        .collect();
    let got: Vec<(u64, u64, u64)> = list.iter().collect();
    assert_eq!(got, want, "seed {seed:#x}");
    assert_eq!(
        (list.count(), list.len()),
        (b.count_ones(), len),
        "seed {seed:#x}"
    );
    let mut visited = Vec::new();
    list.for_each_run(|start, ones_before, len| visited.push((start, ones_before, len)));
    assert_eq!(visited, want, "seed {seed:#x}");
}

/// A chunk of `extents` offsets per dimension, row-major, and a box in
/// it: every offset the box holds, in order.
fn box_offsets(extents: &[u64], lo: &[u64], hi: &[u64]) -> Vec<u64> {
    let points: u64 = extents.iter().product();
    (0..points)
        .filter(|&p| {
            let mut rest = p;
            (0..extents.len()).rev().all(|d| {
                let c = rest % extents[d];
                rest /= extents[d];
                (lo[d]..hi[d]).contains(&c)
            })
        })
        .collect()
}

/// A walk that wants only a box — the next wanted offset at or after
/// the end of each visited run — visits every set bit the box holds,
/// each run with its exact rank, in order, none wholly before its want,
/// and nothing once the box is past.
fn walk_visits_the_box(seed: u64, extents: &[u64]) {
    let mut rng = Rng::new(seed);
    let points: u64 = extents.iter().product();
    let b = bitmap_of(&mut rng, points);
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    for &e in extents {
        let a = rng.below(e);
        lo.push(a);
        hi.push(a + 1 + rng.below(e - a));
    }
    let wanted = box_offsets(extents, &lo, &hi);
    let next = |at: u64| {
        let i = wanted.partition_point(|&p| p < at);
        wanted.get(i).copied().unwrap_or(u64::MAX)
    };
    let mut buf = RunListBuf::new();
    let at = decode(&mut buf, &b);
    let list = buf.get(at).unwrap();
    let ones: Vec<u64> = b.iter_ones().collect();
    let (mut got, mut want_at, mut last_end) = (Vec::<u64>::new(), next(0), 0u64);
    list.for_each_run_from(want_at, |start, ones_before, len| {
        assert!(
            len > 0 && start >= last_end,
            "seed {seed:#x}: runs out of order"
        );
        assert!(
            start + len > want_at,
            "seed {seed:#x}: a run wholly before its want"
        );
        assert!(
            start + len <= points,
            "seed {seed:#x}: a run past the chunk"
        );
        let rank = ones.partition_point(|&p| p < start) as u64;
        assert_eq!(ones_before, rank, "seed {seed:#x}");
        let i = wanted.partition_point(|&p| p < start);
        got.extend(wanted[i..].iter().take_while(|&&p| p < start + len));
        last_end = start + len;
        want_at = next(last_end);
        want_at
    });
    let want: Vec<u64> = ones
        .iter()
        .copied()
        .filter(|p| wanted.binary_search(p).is_ok())
        .collect();
    assert_eq!(
        got, want,
        "seed {seed:#x}, box {lo:?}..{hi:?} of {extents:?}"
    );
}

/// Seeds of the run-list properties to replay, each once a failure or
/// an edge worth keeping: add the seed a failing run prints.
const REPLAY: &[u64] = &[0, 1, 2, 42, 0xDEAD_BEEF, u64::MAX];

#[test]
fn replayed_seeds_hold_every_run_list_property() {
    for &seed in REPLAY {
        for len in [1, 30, 31, 32, 16_384] {
            runs_match_iter_runs(seed, len);
        }
        for extents in [&[500][..], &[128, 128], &[9, 7, 31]] {
            walk_visits_the_box(seed, extents);
        }
    }
}

/// A 64³ chunk has 262,144 points: offsets, gaps and runs past 16 bits.
#[test]
fn a_64_cubed_chunk_walks_past_sixteen_bits() {
    for &seed in REPLAY {
        runs_match_iter_runs(seed, 64 * 64 * 64);
        walk_visits_the_box(seed, &[64, 64, 64]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn runs_equal_the_bitmaps_runs_of_ones(seed in any::<u64>(), len in 1u64..20_000) {
        runs_match_iter_runs(seed, len);
    }

    #[test]
    fn for_each_run_from_visits_every_wanted_one(
        seed in any::<u64>(),
        extents in proptest::collection::vec(1u64..40, 1..4),
    ) {
        walk_visits_the_box(seed, &extents);
    }
}

/// A sorted position set of `len` bits from `rng`: runs of set bits
/// between clear stretches, both mostly short, some long.
fn positions_of(rng: &mut Rng, len: u64) -> BTreeSet<u64> {
    let mut set = BTreeSet::new();
    let mut at = rng.below(4);
    while at < len {
        let run = match rng.below(8) {
            0 => 1 + rng.below(500),
            _ => 1 + rng.below(4),
        };
        set.extend(at..(at + run).min(len));
        let clear = if rng.below(4) == 0 { 2_000 } else { 6 };
        at += run + 1 + rng.below(clear);
    }
    set
}

/// Positions encoded, stored and taken back as a reader takes them:
/// the runs are the oracle set's, a walk from wants over a random span
/// visits exactly the span's members with their ranks, and a merge of
/// sorted probes against the runs finds exactly the probes in the set.
fn stored_runs_match_the_set(seed: u64, len: u64) {
    let mut rng = Rng::new(seed);
    let set = positions_of(&mut rng, len);
    let sorted: Vec<u64> = set.iter().copied().collect();
    let encoded = RunList::from_sorted_positions(len, &sorted);
    let mut buf = RunListBuf::new();
    let at = buf
        .push_stored(encoded.as_ref().pairs(), sorted.len() as u64, len)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: an encoded list refused: {e}"));
    let list = buf.get(at).unwrap();
    let rank = |p: u64| sorted.partition_point(|&q| q < p) as u64;

    let mut expanded = Vec::new();
    for (start, ones_before, run) in list.iter() {
        assert_eq!(ones_before, rank(start), "seed {seed:#x}");
        expanded.extend(start..start + run);
    }
    assert_eq!(expanded, sorted, "seed {seed:#x}");

    // A range walk: the members of [lo, hi), run by run.
    let lo = rng.below(len);
    let hi = lo + 1 + rng.below(len - lo);
    let mut got = Vec::new();
    list.for_each_run_from(lo, |start, ones_before, run| {
        assert_eq!(ones_before, rank(start), "seed {seed:#x}");
        got.extend((start..start + run).filter(|p| (lo..hi).contains(p)));
        if start + run < hi {
            start + run
        } else {
            u64::MAX
        }
    });
    let want: Vec<u64> = set.range(lo..hi).copied().collect();
    assert_eq!(got, want, "seed {seed:#x}: range {lo}..{hi}");

    // A membership merge: sorted probes, each found or not.
    let mut probes: Vec<u64> = (0..1 + rng.below(200)).map(|_| rng.below(len)).collect();
    probes.sort_unstable();
    probes.dedup();
    let mut hits = Vec::new();
    let mut k = 0;
    let first = probes.first().copied().unwrap_or(u64::MAX);
    list.for_each_run_from(first, |start, ones_before, run| {
        while k < probes.len() && probes[k] < start + run {
            if probes[k] >= start {
                hits.push((probes[k], ones_before + probes[k] - start));
            }
            k += 1;
        }
        probes.get(k).copied().unwrap_or(u64::MAX)
    });
    let want: Vec<(u64, u64)> = probes
        .iter()
        .filter(|p| set.contains(p))
        .map(|&p| (p, rank(p)))
        .collect();
    assert_eq!(hits, want, "seed {seed:#x}: membership");
}

/// Seeds of [`stored_runs_match_the_set`] to replay, one a line: add
/// the seed a failing run prints.
const STORED_REPLAY: &str = include_str!("stored_runs.replay");

#[test]
fn replayed_seeds_hold_the_stored_run_list_properties() {
    let seeds = STORED_REPLAY
        .lines()
        .map(|l| l.trim())
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    for seed in seeds {
        let seed = match seed.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).unwrap(),
            None => seed.parse().unwrap(),
        };
        for len in [1, 2, 31, 4_096, 16_384, 262_144] {
            stored_runs_match_the_set(seed, len);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stored_runs_walk_like_their_position_set(seed in any::<u64>(), len in 1u64..40_000) {
        stored_runs_match_the_set(seed, len);
    }
}
