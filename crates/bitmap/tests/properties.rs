//! Property-based tests: WAH bitmaps behave exactly like plain bit
//! vectors under construction, query, serialization, and logical ops.

use mloc_bitmap::{and, andnot, or, or_many, RankSelectDir, WahBitmap};
use proptest::prelude::*;

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
        prop_assert_eq!(from_runs.len() as u64, bm.as_ref().count_ones());
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
        prop_assert_eq!(rank, bm.as_ref().count_ones());
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
            if pos < bits.len() {
                prop_assert_eq!(r.rank_bit_with(&dir, pos as u64), Some((want, bits[pos])));
            }
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
            if pos < bm.len() {
                prop_assert_eq!(r.rank_bit_with(&dir, pos), Some((bm.rank(pos), bm.get(pos))));
            }
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
