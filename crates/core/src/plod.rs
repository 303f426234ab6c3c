//! Precision-based Level of Detail (PLoD): byte-group decomposition of
//! doubles.
//!
//! Paper §III-B.3 / Figure 3: each IEEE-754 double is split into seven
//! parts — the first holds the two most significant bytes (sign, the
//! full exponent and the leading mantissa bits), the remaining six one
//! byte each. Bytes at the same position across all values are stored
//! contiguously, so fetching the first `L` parts reconstructs every
//! value at reduced precision. Missing bytes are filled with `0x7F`
//! (first) and `0xFF` (rest) rather than zeros: zeros would always
//! underestimate the magnitude, while the midpoint fill halves the
//! expected error.

use crate::config::{PlodLevel, NUM_PARTS};
use crate::{MlocError, Result};

/// Byte width of each PLoD part (most significant first).
pub const PART_BYTES: [usize; NUM_PARTS] = [2, 1, 1, 1, 1, 1, 1];

/// Byte offset of each part within the big-endian representation —
/// and, times a unit's point count, within the unit's parts laid back
/// to back (see [`part_range`]).
pub const PART_OFFSETS: [usize; NUM_PARTS] = [0, 2, 3, 4, 5, 6, 7];

/// Where part `p` of a unit of `count` values lies when the unit's
/// parts are laid back to back, most significant first: the cache's
/// prefix block of a unit.
pub fn part_range(count: usize, p: usize) -> std::ops::Range<usize> {
    count * PART_OFFSETS[p]..count * (PART_OFFSETS[p] + PART_BYTES[p])
}

/// How many leading parts `k` a back-to-back block of `len` bytes holds
/// for a unit of `count` values: `len == count × (k + 1)`, `1 ≤ k ≤ 7`.
/// `None` for any other length.
pub fn prefix_parts(count: usize, len: usize) -> Option<usize> {
    if count == 0 || !len.is_multiple_of(count) {
        return None;
    }
    let k = (len / count).checked_sub(1)?;
    (1..=NUM_PARTS).contains(&k).then_some(k)
}

/// Split values into the seven PLoD byte-group buffers.
///
/// Part `p` of value `i` lives at `parts[p][i * PART_BYTES[p]..]`, in
/// big-endian (most-significant-first) byte order.
///
/// The kernel writes each part contiguously in one streaming pass
/// (output-major instead of value-major): the destination slice of a
/// part is carved out once per part, so the inner loop is a bounds-
/// check-free byte gather.
pub fn split(values: &[f64]) -> Vec<Vec<u8>> {
    let n = values.len();
    let mut parts: Vec<Vec<u8>> = PART_BYTES.iter().map(|&w| vec![0u8; n * w]).collect();
    // Part 0: the two most significant bytes of every value.
    for (dst, &v) in parts[0].chunks_exact_mut(2).zip(values) {
        let be = v.to_be_bytes();
        dst[0] = be[0];
        dst[1] = be[1];
    }
    // Parts 1..7: one byte per value, contiguous per part.
    for (p, part) in parts.iter_mut().enumerate().skip(1) {
        let off = PART_OFFSETS[p];
        for (dst, &v) in part.iter_mut().zip(values) {
            *dst = v.to_be_bytes()[off];
        }
    }
    parts
}

/// The midpoint fill pattern for a value keeping `filled_bytes` bytes,
/// as raw big-endian `f64` bits: first dummy byte `0x7F`, the rest
/// `0xFF` (≈ the middle of the truncated range).
fn fill_bits(filled_bytes: usize) -> u64 {
    if filled_bytes >= 8 {
        return 0;
    }
    let mut be = [0u8; 8];
    be[filled_bytes] = 0x7F;
    for b in be.iter_mut().skip(filled_bytes + 1) {
        *b = 0xFF;
    }
    u64::from_be_bytes(be)
}

/// Reassemble values from the first `level.num_parts()` byte-group
/// buffers; missing bytes get the midpoint fill.
///
/// # Panics
/// Panics if fewer buffers than the level requires are supplied or
/// their lengths disagree.
pub fn assemble(parts: &[&[u8]], level: PlodLevel) -> Vec<f64> {
    let mut out = Vec::new();
    assemble_into(parts, level, &mut out);
    out
}

/// [`assemble`] writing into a caller-owned buffer (cleared first), so
/// a per-chunk loop reuses one scratch allocation instead of growing a
/// fresh `Vec<f64>` per chunk. The kernel is [`UnitParts`]'s.
///
/// # Panics
/// Panics if fewer buffers than the level requires are supplied or
/// their lengths disagree.
pub fn assemble_into(parts: &[&[u8]], level: PlodLevel, out: &mut Vec<f64>) {
    let n = parts.first().map_or(0, |p| p.len() / PART_BYTES[0]);
    match UnitParts::new(parts, level, n) {
        Ok(unit) => unit.assemble_into(out),
        Err(e) => panic!("{e}"),
    }
}

/// A unit's leading PLoD parts, checked once against its value count,
/// from which the whole unit or any range of its values is assembled.
///
/// This is the query engine's kernel: a unit of a chunk the query's
/// region straddles assembles only its row segments inside the region,
/// each straight into its place in the chunk's scatter block. The parts
/// come from disk, so a part of the wrong length or a range past the
/// unit is [`MlocError::Corrupt`], never a panic.
///
/// The kernel is value-major: every value's bits are built in a
/// register from the fill pattern plus one byte per tail part, then
/// stored exactly once. The number of tail parts is a compile-time
/// constant of each kernel instance (one per level), and every part is
/// sliced to the range once, so the per-value loop has no bounds checks
/// and no loop over the parts.
#[derive(Clone, Copy)]
pub struct UnitParts<'p> {
    p0: &'p [u8],
    /// The tail parts in use, then empty slices.
    tails: [&'p [u8]; NUM_PARTS - 1],
    n_tails: usize,
    /// The level's fill pattern.
    base: u64,
    count: usize,
}

impl<'p> UnitParts<'p> {
    /// The first `level.num_parts()` of `parts`, each of which must
    /// hold `count` values.
    pub fn new(parts: &[&'p [u8]], level: PlodLevel, count: usize) -> Result<Self> {
        let used = level.num_parts();
        let parts = parts
            .get(..used)
            .ok_or(MlocError::Corrupt("too few PLoD parts"))?;
        let sized =
            |(p, part): (usize, &&[u8])| Some(part.len()) == count.checked_mul(PART_BYTES[p]);
        if !parts.iter().enumerate().all(sized) {
            return Err(MlocError::Corrupt("PLoD part length mismatch"));
        }
        let mut tails: [&[u8]; NUM_PARTS - 1] = [&[]; NUM_PARTS - 1];
        tails[..used - 1].copy_from_slice(&parts[1..]);
        Ok(UnitParts {
            p0: parts[0],
            tails,
            n_tails: used - 1,
            base: fill_bits(level.num_bytes()),
            count,
        })
    }

    /// The whole unit into `out` (cleared first), in one pass.
    pub fn assemble_into(&self, out: &mut Vec<f64>) {
        out.clear();
        match self.n_tails {
            0 => out.extend(self.values::<0>(0, self.count)),
            1 => out.extend(self.values::<1>(0, self.count)),
            2 => out.extend(self.values::<2>(0, self.count)),
            3 => out.extend(self.values::<3>(0, self.count)),
            4 => out.extend(self.values::<4>(0, self.count)),
            5 => out.extend(self.values::<5>(0, self.count)),
            _ => out.extend(self.values::<6>(0, self.count)),
        }
    }

    /// Values `first..first + out.len()` of the unit, into `out`.
    #[inline]
    pub fn assemble_range(&self, first: usize, out: &mut [f64]) -> Result<()> {
        let end = first
            .checked_add(out.len())
            .filter(|&end| end <= self.count)
            .ok_or(MlocError::Corrupt("PLoD range past its unit"))?;
        fn store(out: &mut [f64], vals: impl Iterator<Item = f64>) {
            out.iter_mut().zip(vals).for_each(|(o, v)| *o = v);
        }
        match self.n_tails {
            0 => store(out, self.values::<0>(first, end)),
            1 => store(out, self.values::<1>(first, end)),
            2 => store(out, self.values::<2>(first, end)),
            3 => store(out, self.values::<3>(first, end)),
            4 => store(out, self.values::<4>(first, end)),
            5 => store(out, self.values::<5>(first, end)),
            _ => store(out, self.values::<6>(first, end)),
        }
        Ok(())
    }

    /// Values `first..end` (within the unit) with `T` tail parts.
    #[inline(always)]
    fn values<const T: usize>(
        &self,
        first: usize,
        end: usize,
    ) -> impl Iterator<Item = f64> + use<'p, T> {
        let (base, p0) = (self.base, &self.p0[2 * first..2 * end]);
        let tails: [&[u8]; T] = std::array::from_fn(|p| &self.tails[p][first..end]);
        (0..end - first).map(move |i| {
            let mut bits = base | (u64::from(u16::from_be_bytes([p0[2 * i], p0[2 * i + 1]])) << 48);
            for (p, t) in tails.iter().enumerate() {
                bits |= u64::from(t[i]) << (8 * (7 - PART_OFFSETS[p + 1]));
            }
            f64::from_bits(bits)
        })
    }
}

/// Reassemble with zero fill instead of midpoint fill — kept only for
/// the design-choice ablation (the paper explicitly rejects zero fill).
///
/// Unlike the hot-path [`assemble_into`] (whose inputs come from
/// length-checked decompression and may assert), this takes arbitrary
/// caller slices and validates them: too few parts, a ragged base
/// part, or a tail part disagreeing with the base part's value count
/// is [`MlocError::Corrupt`], never a panic or silently dropped tail.
pub fn assemble_zero_fill(parts: &[&[u8]], level: PlodLevel) -> Result<Vec<f64>> {
    let used = level.num_parts();
    if parts.len() < used {
        return Err(MlocError::Corrupt("too few PLoD parts"));
    }
    if !parts[0].len().is_multiple_of(PART_BYTES[0]) {
        return Err(MlocError::Corrupt("ragged PLoD base part"));
    }
    let n = parts[0].len() / PART_BYTES[0];
    for (p, part) in parts.iter().enumerate().take(used) {
        if part.len() != n * PART_BYTES[p] {
            return Err(MlocError::Corrupt("PLoD part length mismatch"));
        }
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut be = [0u8; 8];
        for p in 0..used {
            let w = PART_BYTES[p];
            be[PART_OFFSETS[p]..PART_OFFSETS[p] + w].copy_from_slice(&parts[p][i * w..(i + 1) * w]);
        }
        out.push(f64::from_be_bytes(be));
    }
    Ok(out)
}

/// Refine already-assembled values in place from `part_idx` parts to
/// `part_idx + 1` parts: each affected value gets its true byte at the
/// part's offset (replacing the `0x7F` fill seed) and the fill pattern
/// re-seeded one byte further down — one byte merged per value, no
/// access to earlier parts, no full reassembly.
///
/// `out_idx[i]` addresses the value in `values` and `val_idx[i]` its
/// byte in `part` (tail parts are one byte per value): a progressive
/// query's sorted result interleaves many units, so refinement routes
/// each unit's part bytes through the mapping captured at step 0.
/// After refining parts `1..L` in order, a value is bit-identical to
/// [`assemble`] at level `L`.
pub fn refine_into(
    values: &mut [f64],
    out_idx: &[usize],
    val_idx: &[u32],
    part: &[u8],
    part_idx: usize,
) -> Result<()> {
    if part_idx == 0 || part_idx >= NUM_PARTS {
        return Err(MlocError::Corrupt("refined part index out of range"));
    }
    if out_idx.len() != val_idx.len() {
        return Err(MlocError::Corrupt("refinement index lists disagree"));
    }
    debug_assert_eq!(PART_BYTES[part_idx], 1);
    let off = PART_OFFSETS[part_idx];
    let shift = (8 * (7 - off)) as u32;
    for (&oi, &vi) in out_idx.iter().zip(val_idx) {
        let b = *part
            .get(vi as usize)
            .ok_or(MlocError::Corrupt("refinement byte index out of range"))?;
        let v = values
            .get_mut(oi)
            .ok_or(MlocError::Corrupt("refinement value index out of range"))?;
        let mut bits = v.to_bits();
        bits = (bits & !(0xFFu64 << shift)) | (u64::from(b) << shift);
        if off + 1 < 8 {
            // The next byte down flips from all-ones padding to the
            // new level's 0x7F fill seed.
            let s2 = (8 * (7 - (off + 1))) as u32;
            bits = (bits & !(0xFFu64 << s2)) | (0x7Fu64 << s2);
        }
        *v = f64::from_bits(bits);
    }
    Ok(())
}

/// Upper bound on the relative reconstruction error of a PLoD level
/// for normal doubles.
///
/// A level keeps `k = 4 + 8·(level − 1)` mantissa bits. The midpoint
/// fill replaces the dropped low field with (just below) its midpoint,
/// so the absolute significand error is at most half the weight of the
/// first missing mantissa bit — `2^(52−k−1)` ulps — and the relative
/// error at most `2^-(k+1)` against the implicit leading one. The
/// bound is tight: a value whose kept mantissa bits are zero and whose
/// dropped bits are all ones reaches within a factor `1/(1 + 2^-k)`
/// of it (asserted under randomized test below).
pub fn relative_error_bound(level: PlodLevel) -> f64 {
    if level.is_full() {
        return 0.0;
    }
    // Bytes kept: 2 + (level-1) ⇒ mantissa bits kept: 4 + 8*(level-1).
    let mantissa_bits = 4 + 8 * (level.level() as i32 - 1);
    2f64.powi(-(mantissa_bits + 1))
}

/// Error bound of the rejected zero-fill strategy at the same level:
/// the full weight of the dropped field, `2^-k` — twice the midpoint
/// bound. Kept alongside [`assemble_zero_fill`] for the ablation.
pub fn zero_fill_error_bound(level: PlodLevel) -> f64 {
    if level.is_full() {
        return 0.0;
    }
    let mantissa_bits = 4 + 8 * (level.level() as i32 - 1);
    2f64.powi(-mantissa_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlodLevel;

    /// Every prefix of a unit's parts laid back to back says how many
    /// parts it holds, and each part sits where `part_range` says.
    #[test]
    fn a_back_to_back_prefix_locates_its_parts() {
        let values = sample_values();
        let n = values.len();
        let parts = split(&values);
        for k in 1..=NUM_PARTS {
            let block: Vec<u8> = parts[..k].concat();
            assert_eq!(prefix_parts(n, block.len()), Some(k));
            for (p, part) in parts[..k].iter().enumerate() {
                assert_eq!(&block[part_range(n, p)], &part[..], "k {k} part {p}");
            }
        }
        for len in [0, n, n * 9, n * 2 + 1] {
            assert_eq!(prefix_parts(n, len), None, "{len} bytes");
        }
        assert_eq!(prefix_parts(0, 0), None);
    }

    fn sample_values() -> Vec<f64> {
        vec![
            0.0,
            1.0,
            -1.0,
            std::f64::consts::PI,
            -2.718281828459045e10,
            6.02214076e23,
            -1.602176634e-19,
            1234.5678,
        ]
    }

    #[test]
    fn full_precision_roundtrip() {
        let values = sample_values();
        let parts = split(&values);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let back = assemble(&refs, PlodLevel::FULL);
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn part_sizes() {
        let values = sample_values();
        let parts = split(&values);
        assert_eq!(parts.len(), NUM_PARTS);
        assert_eq!(parts[0].len(), values.len() * 2);
        for part in parts.iter().skip(1) {
            assert_eq!(part.len(), values.len());
        }
        // Total bytes = 8 per value.
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, values.len() * 8);
    }

    #[test]
    fn error_shrinks_with_level() {
        let values: Vec<f64> = (1..1000).map(|i| (i as f64).sqrt() * 100.0).collect();
        let parts = split(&values);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let mut prev_err = f64::MAX;
        for level in 1..=7u8 {
            let lvl = PlodLevel::new(level).unwrap();
            let approx = assemble(&refs[..lvl.num_parts()], lvl);
            let err = values
                .iter()
                .zip(&approx)
                .map(|(a, b)| ((a - b) / a).abs())
                .fold(0.0f64, f64::max);
            assert!(err <= prev_err, "level {level}: {err} > {prev_err}");
            assert!(
                err <= relative_error_bound(lvl) * (1.0 + 1e-12),
                "level {level}: err {err} exceeds bound {}",
                relative_error_bound(lvl)
            );
            prev_err = err;
        }
    }

    #[test]
    fn three_bytes_is_paper_accurate() {
        // Paper: PLoD level 2 (3 bytes) has max relative error ~0.008%.
        let values: Vec<f64> = (1..100_000).map(|i| 300.0 + (i as f64) * 0.017).collect();
        let parts = split(&values);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let lvl = PlodLevel::new(2).unwrap();
        let approx = assemble(&refs[..2], lvl);
        let max_rel = values
            .iter()
            .zip(&approx)
            .map(|(a, b)| ((a - b) / a).abs())
            .fold(0.0f64, f64::max);
        assert!(max_rel < 2.5e-4, "max_rel {max_rel}");
        // Mean-value analysis error far below the point-wise bound.
        let mean_orig: f64 = values.iter().sum::<f64>() / values.len() as f64;
        let mean_plod: f64 = approx.iter().sum::<f64>() / approx.len() as f64;
        assert!(((mean_orig - mean_plod) / mean_orig).abs() < 1e-4);
    }

    #[test]
    fn midpoint_fill_beats_zero_fill() {
        let values: Vec<f64> = (1..5000).map(|i| (i as f64) * 0.37 + 11.1).collect();
        let parts = split(&values);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let lvl = PlodLevel::new(2).unwrap();
        let mid = assemble(&refs[..2], lvl);
        let zero = assemble_zero_fill(&refs[..2], lvl).unwrap();
        let err = |approx: &[f64]| {
            values
                .iter()
                .zip(approx)
                .map(|(a, b)| ((a - b) / a).abs())
                .sum::<f64>()
        };
        let (e_mid, e_zero) = (err(&mid), err(&zero));
        assert!(
            e_mid < e_zero / 1.5,
            "midpoint {e_mid} not clearly better than zero {e_zero}"
        );
        // Zero fill always underestimates the magnitude, and stays
        // within its own (doubled) bound.
        assert!(values.iter().zip(&zero).all(|(a, b)| b.abs() <= a.abs()));
        let max_zero = values
            .iter()
            .zip(&zero)
            .map(|(a, b)| ((a - b) / a).abs())
            .fold(0.0f64, f64::max);
        assert!(max_zero <= zero_fill_error_bound(lvl));
        assert_eq!(zero_fill_error_bound(lvl), 2.0 * relative_error_bound(lvl));
        assert_eq!(zero_fill_error_bound(PlodLevel::FULL), 0.0);
    }

    #[test]
    fn zero_fill_validates_part_lengths() {
        let values: Vec<f64> = (0..16).map(|i| i as f64 + 0.5).collect();
        let parts = split(&values);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let lvl = PlodLevel::new(3).unwrap();
        assert_eq!(
            assemble_zero_fill(&refs[..3], lvl).unwrap().len(),
            values.len()
        );
        // Too few parts for the level.
        assert!(assemble_zero_fill(&refs[..2], lvl).is_err());
        // Ragged base part (odd byte count).
        let bad0 = &parts[0][..parts[0].len() - 1];
        assert!(assemble_zero_fill(&[bad0, &parts[1], &parts[2]], lvl).is_err());
        // Tail part shorter than the base part implies: before the fix
        // this indexed out of bounds (panic), now it is a Corrupt error.
        let short1 = &parts[1][..values.len() - 1];
        assert!(assemble_zero_fill(&[&parts[0], short1, &parts[2]], lvl).is_err());
        // Tail part longer than the base part implies: before the fix
        // the extra bytes were silently ignored.
        let mut long2 = parts[2].clone();
        long2.push(0xAB);
        assert!(assemble_zero_fill(&[&parts[0], &parts[1], &long2], lvl).is_err());
    }

    /// Deterministic xorshift64* generator for the randomized tests.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn error_bound_is_tight_but_safe() {
        // Safe: no normal double, over a wide range of exponents and
        // random mantissas, ever exceeds the bound. Tight: adversarial
        // mantissas (kept bits zero, dropped bits all ones) get within
        // 10% of it. Exhaustive over every non-full level.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut values: Vec<f64> = Vec::new();
        for _ in 0..20_000 {
            let r = xorshift(&mut state);
            // Random sign/mantissa, exponent clamped to normal range.
            let exp = 1 + (r >> 52) % 2046;
            let bits = (r & 0x800F_FFFF_FFFF_FFFF) | (exp << 52);
            values.push(f64::from_bits(bits));
        }
        for level in 1..7u8 {
            let lvl = PlodLevel::new(level).unwrap();
            let bound = relative_error_bound(lvl);
            let kept = 4 + 8 * (i32::from(level) - 1);
            // Adversarial values for this level: kept mantissa bits
            // zero, dropped bits all ones (both signs, varied exponent).
            let dropped_ones = (1u64 << (52 - kept)) - 1;
            let mut adversarial = Vec::new();
            for exp in [1u64, 512, 1023, 1536, 2046] {
                adversarial.push(f64::from_bits((exp << 52) | dropped_ones));
                adversarial.push(f64::from_bits((1u64 << 63) | (exp << 52) | dropped_ones));
            }
            let all: Vec<f64> = values.iter().chain(&adversarial).copied().collect();
            let parts = split(&all);
            let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            let approx = assemble(&refs[..lvl.num_parts()], lvl);
            let max_rel = all
                .iter()
                .zip(&approx)
                .map(|(a, b)| ((a - b) / a).abs())
                .fold(0.0f64, f64::max);
            assert!(
                max_rel <= bound,
                "level {level}: err {max_rel:e} exceeds bound {bound:e}"
            );
            assert!(
                max_rel >= 0.9 * bound,
                "level {level}: bound {bound:e} not tight (max err {max_rel:e})"
            );
        }
        assert_eq!(relative_error_bound(PlodLevel::FULL), 0.0);
    }

    #[test]
    fn refine_matches_assemble_at_each_level() {
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut values: Vec<f64> = Vec::new();
        for _ in 0..997 {
            let r = xorshift(&mut state);
            let exp = 1 + (r >> 52) % 2046;
            values.push(f64::from_bits((r & 0x800F_FFFF_FFFF_FFFF) | (exp << 52)));
        }
        let parts = split(&values);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let out_idx: Vec<usize> = (0..values.len()).collect();
        let val_idx: Vec<u32> = (0..values.len() as u32).collect();
        let mut current = assemble(&refs[..1], PlodLevel::new(1).unwrap());
        for (p, part) in parts.iter().enumerate().skip(1) {
            refine_into(&mut current, &out_idx, &val_idx, part, p).unwrap();
            let lvl = PlodLevel::new((p + 1) as u8).unwrap();
            let direct = assemble(&refs[..lvl.num_parts()], lvl);
            for (i, (a, b)) in current.iter().zip(&direct).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "part {p}, value {i}");
            }
        }
        // Full ladder ends bit-identical to the originals.
        for (a, b) in current.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn refine_addresses_scattered_values() {
        // Refinement through a (result index, byte index) mapping:
        // refine only the odd values of an interleaved result.
        let values: Vec<f64> = (1..=8).map(|i| (i as f64) * 3.7 + 0.123).collect();
        let parts = split(&values);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let coarse = assemble(&refs[..1], PlodLevel::new(1).unwrap());
        // Result holds the unit's values reversed.
        let mut result: Vec<f64> = coarse.iter().rev().copied().collect();
        let out_idx: Vec<usize> = (0..8).map(|i| 7 - i).collect();
        let val_idx: Vec<u32> = (0..8).collect();
        refine_into(&mut result, &out_idx, &val_idx, &parts[1], 1).unwrap();
        let direct = assemble(&refs[..2], PlodLevel::new(2).unwrap());
        for (i, d) in direct.iter().enumerate() {
            assert_eq!(result[7 - i].to_bits(), d.to_bits());
        }
    }

    #[test]
    fn refine_validates_inputs() {
        let mut vals = vec![1.0f64; 4];
        let part = vec![0u8; 4];
        // Part 0 is never refined; out-of-range parts rejected.
        assert!(refine_into(&mut vals, &[0], &[0], &part, 0).is_err());
        assert!(refine_into(&mut vals, &[0], &[0], &part, NUM_PARTS).is_err());
        // Mismatched index lists.
        assert!(refine_into(&mut vals, &[0, 1], &[0], &part, 1).is_err());
        // Out-of-range byte / value indices.
        assert!(refine_into(&mut vals, &[0], &[9], &part, 1).is_err());
        assert!(refine_into(&mut vals, &[9], &[0], &part, 1).is_err());
        assert!(refine_into(&mut vals, &[3], &[3], &part, 1).is_ok());
    }

    #[test]
    fn negative_values_keep_sign() {
        let values: Vec<f64> = (1..100).map(|i| -(i as f64) * 2.5).collect();
        let parts = split(&values);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        for level in 1..=7u8 {
            let lvl = PlodLevel::new(level).unwrap();
            let approx = assemble(&refs[..lvl.num_parts()], lvl);
            assert!(approx.iter().all(|&v| v < 0.0), "level {level} lost signs");
        }
    }

    #[test]
    fn assemble_into_reuses_scratch_across_chunks() {
        let a: Vec<f64> = (0..2000).map(|i| (i as f64) * 1.5 - 7.0).collect();
        let b: Vec<f64> = (0..17).map(|i| (i as f64).exp()).collect();
        let mut scratch = Vec::new();
        for values in [&a, &b] {
            let parts = split(values);
            let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            for level in 1..=7u8 {
                let lvl = PlodLevel::new(level).unwrap();
                assemble_into(&refs[..lvl.num_parts()], lvl, &mut scratch);
                assert_eq!(scratch, assemble(&refs[..lvl.num_parts()], lvl));
                assert_eq!(scratch.len(), values.len());
            }
        }
    }

    /// The whole-unit and range kernels agree with a value-at-a-time
    /// oracle — the original bits, with the bytes past the level's
    /// replaced by the fill pattern — on a 997-value unit: whole, and on
    /// every sub-range up to 64 values long (every start), every prefix
    /// and every suffix, at every level. A part of the wrong length,
    /// too few parts and a range past the unit are `Corrupt`.
    #[test]
    fn a_range_assembles_as_the_whole_unit_does() {
        let mut state = 0x0BAD_5EED_1234_5678u64;
        let values: Vec<f64> = (0..997)
            .map(|_| {
                let r = xorshift(&mut state);
                let exp = 1 + (r >> 52) % 2046;
                f64::from_bits((r & 0x800F_FFFF_FFFF_FFFF) | (exp << 52))
            })
            .collect();
        let n = values.len();
        let parts = split(&values);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let (mut whole, mut got) = (Vec::new(), vec![0.0; n]);
        for level in 1..=7u8 {
            let lvl = PlodLevel::new(level).unwrap();
            let used = lvl.num_parts();
            let kept = !0u64 << ((8 * (8 - lvl.num_bytes())) % 64);
            let fill = fill_bits(lvl.num_bytes());
            let oracle: Vec<u64> = values.iter().map(|v| (v.to_bits() & kept) | fill).collect();
            let unit = UnitParts::new(&refs, lvl, n).unwrap();
            unit.assemble_into(&mut whole);
            assert!(whole.iter().map(|v| v.to_bits()).eq(oracle.iter().copied()));
            let short = (0..n).flat_map(|a| (a..=(a + 64).min(n)).map(move |b| (a, b)));
            let ends = (0..=n).flat_map(|k| [(0, k), (k, n)]);
            for (a, b) in short.chain(ends) {
                unit.assemble_range(a, &mut got[..b - a]).unwrap();
                let same = got[..b - a]
                    .iter()
                    .zip(&oracle[a..b])
                    .all(|(x, &y)| x.to_bits() == y);
                assert!(same, "level {level}, values {a}..{b}");
            }
            assert!(unit.assemble_range(n - 3, &mut got[..4]).is_err());
            assert!(unit.assemble_range(usize::MAX, &mut got[..1]).is_err());
            assert!(UnitParts::new(&refs[..used - 1], lvl, n).is_err());
            assert!(UnitParts::new(&refs[..used], lvl, n + 1).is_err());
            let mut cut = refs[..used].to_vec();
            cut[used - 1] = &cut[used - 1][1..];
            assert!(UnitParts::new(&cut, lvl, n).is_err());
        }
    }

    #[test]
    fn block_boundaries_are_seamless() {
        // Lengths around power-of-two boundaries (where a blocked or
        // vectorized kernel would switch to a tail loop) must not
        // disturb the split/assemble roundtrip.
        for n in [1023, 1024, 1025, 2051] {
            let values: Vec<f64> = (0..n).map(|i| (i as f64) * 0.013 - 4.2).collect();
            let parts = split(&values);
            let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            let back = assemble(&refs, PlodLevel::FULL);
            for (x, y) in values.iter().zip(&back) {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn empty_input() {
        let parts = split(&[]);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        assert!(assemble(&refs, PlodLevel::FULL).is_empty());
    }
}
