//! The WAH bitmap representation, builder, rank and serialization.

/// Number of data bits per WAH group (31 for 32-bit words).
pub const GROUP_BITS: u64 = 31;
pub(crate) const LITERAL_MASK: u32 = 0x7FFF_FFFF;
pub(crate) const FILL_FLAG: u32 = 0x8000_0000;
pub(crate) const FILL_BIT: u32 = 0x4000_0000;
pub(crate) const FILL_COUNT_MASK: u32 = 0x3FFF_FFFF;
/// Maximum group count representable by one fill word.
const MAX_FILL_GROUPS: u32 = FILL_COUNT_MASK;

pub(crate) const MAGIC: u32 = 0x4841_574D; // "MWAH"

/// A WAH-compressed bitmap of fixed logical length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WahBitmap {
    words: Vec<u32>,
    num_bits: u64,
}

impl WahBitmap {
    /// An all-zero bitmap of `num_bits` bits.
    pub fn zeros(num_bits: u64) -> Self {
        let mut b = WahBuilder::new();
        b.append_run(false, num_bits);
        b.finish()
    }

    /// Build a bitmap of `num_bits` bits with exactly the given
    /// positions set. `positions` must be strictly increasing.
    ///
    /// # Panics
    /// Panics if positions are out of range or not strictly increasing.
    pub fn from_sorted_positions(num_bits: u64, positions: &[u64]) -> Self {
        let mut b = WahBuilder::new();
        let mut cursor = 0u64;
        for &p in positions {
            assert!(p >= cursor, "positions must be strictly increasing");
            assert!(p < num_bits, "position {p} out of range {num_bits}");
            b.append_run(false, p - cursor);
            b.push(true);
            cursor = p + 1;
        }
        b.append_run(false, num_bits - cursor);
        b.finish()
    }

    /// Logical number of bits.
    pub fn len(&self) -> u64 {
        self.num_bits
    }

    /// True when the bitmap has zero logical bits.
    pub fn is_empty(&self) -> bool {
        self.num_bits == 0
    }

    /// Compressed size in bytes (words only, excluding the length field).
    pub fn size_in_bytes(&self) -> usize {
        self.words.len() * 4 + 8
    }

    /// Number of set bits in `[0, pos)`: [`WahRef::rank_with`] through
    /// no directory, a walk from word 0.
    ///
    /// # Panics
    /// Panics if `pos` exceeds the bitmap length.
    pub fn rank(&self, pos: u64) -> u64 {
        self.as_ref().rank_with(&RankSelectDir::default(), pos)
    }

    /// Borrowed view of this bitmap (same queries, no ownership).
    pub fn as_ref(&self) -> WahRef<'_> {
        WahRef {
            words: &self.words,
            num_bits: self.num_bits,
        }
    }

    /// Collect set-bit positions into a vector.
    pub fn to_positions(&self) -> Vec<u64> {
        let (mut out, mut at) = (Vec::new(), 0u64);
        self.as_ref().for_each_one_run(|gap, _, len| {
            at += gap;
            out.extend(at..at + len);
            at += len;
        });
        out
    }

    pub(crate) fn runs(&self) -> RunIter<'_> {
        RunIter {
            words: &self.words,
            idx: 0,
        }
    }

    /// Override the logical length (used by group-aligned operations to
    /// restore the unpadded length). Must not exceed the padded length.
    pub(crate) fn set_len(&mut self, num_bits: u64) {
        debug_assert!(num_bits <= self.num_bits);
        self.num_bits = num_bits;
    }

    /// Serialize to a little-endian byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.words.len() * 4);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.num_bits.to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize [`Self::to_bytes`] output, refusing words that cover
    /// fewer bits than the declared length or a whole group more
    /// (`check_cover`): two bitmaps it accepts with one length walk
    /// the same groups, so the logical ops never see them diverge.
    ///
    /// Returns the bitmap and the number of bytes consumed.
    pub fn from_bytes(data: &[u8]) -> Result<(Self, usize), BitmapError> {
        let (num_bits, body) = container(data)?;
        let words: Vec<u32> = body.chunks_exact(4).map(|w| le_u32(w, 0)).collect();
        let mut covered = 0u64;
        for &w in &words {
            let bits = if w & FILL_FLAG != 0 {
                u64::from(w & FILL_COUNT_MASK) * GROUP_BITS
            } else {
                GROUP_BITS
            };
            covered = covered.checked_add(bits).ok_or(BitmapError::PastEnd)?;
        }
        check_cover(covered, num_bits)?;
        Ok((WahBitmap { words, num_bits }, 16 + body.len()))
    }
}

/// The serialized container at the start of `data` — magic, the
/// declared length (`u64`), the word count (`u32`), then the words —
/// as the declared length and the words' bytes. Bytes after the words
/// are not looked at.
pub(crate) fn container(data: &[u8]) -> Result<(u64, &[u8]), BitmapError> {
    if data.len() < 16 {
        return Err(BitmapError::Truncated);
    }
    let magic = le_u32(data, 0);
    if magic != MAGIC {
        return Err(BitmapError::BadMagic(magic));
    }
    let num_bits = u64::from(le_u32(data, 4)) | u64::from(le_u32(data, 8)) << 32;
    let end = (le_u32(data, 12) as usize)
        .checked_mul(4)
        .and_then(|n| n.checked_add(16))
        .filter(|&end| end <= data.len())
        .ok_or(BitmapError::Truncated)?;
    Ok((num_bits, &data[16..end]))
}

/// Words covering `covered` bits hold a bitmap of `len` bits when they
/// reach the length and stop short of a whole group past it.
pub(crate) fn check_cover(covered: u64, len: u64) -> Result<(), BitmapError> {
    if covered < len {
        return Err(BitmapError::Truncated);
    }
    if covered - len >= GROUP_BITS {
        return Err(BitmapError::PastEnd);
    }
    Ok(())
}

/// Errors from bitmap deserialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitmapError {
    /// Input ended before the encoded length.
    Truncated,
    /// Magic number mismatch.
    BadMagic(u32),
    /// A set bit at or past the declared length, or words a whole group
    /// past it.
    PastEnd,
    /// A rank/select directory that is not whole or disagrees with the
    /// words it samples.
    Directory,
}

impl std::fmt::Display for BitmapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitmapError::Truncated => write!(f, "bitmap byte stream truncated"),
            BitmapError::BadMagic(m) => write!(f, "bad bitmap magic {m:#x}"),
            BitmapError::PastEnd => write!(f, "bitmap runs past its length"),
            BitmapError::Directory => write!(f, "rank/select directory disagrees with its bitmap"),
        }
    }
}

impl std::error::Error for BitmapError {}

/// A decoded WAH run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Run {
    /// `groups` repetitions of an all-`bit` 31-bit group.
    Fill { bit: bool, groups: u32 },
    /// One 31-bit literal group (bit 0 = first position).
    Literal(u32),
}

pub(crate) struct RunIter<'a> {
    words: &'a [u32],
    idx: usize,
}

impl Iterator for RunIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let w = *self.words.get(self.idx)?;
        self.idx += 1;
        if w & FILL_FLAG != 0 {
            Some(Run::Fill {
                bit: w & FILL_BIT != 0,
                groups: w & FILL_COUNT_MASK,
            })
        } else {
            Some(Run::Literal(w))
        }
    }
}

/// A borrowed WAH bitmap view.
#[derive(Debug, Clone, Copy)]
pub struct WahRef<'a> {
    words: &'a [u32],
    num_bits: u64,
}

impl WahRef<'_> {
    /// Visit every run of set bits as `f(gap, ones_before, len)` in
    /// position order, where `gap` is the number of clear bits since
    /// the previous visited run (or the start), `ones_before` the
    /// number of set bits strictly before the run (the rank of its
    /// first position — exactly the index of its first value in a
    /// densely packed value block), and `len` the run length.
    ///
    /// Runs are *not* guaranteed maximal: adjacent set runs may be
    /// reported separately (e.g. a one fill followed by a literal
    /// starting with ones). Dropping the merge lookahead and folding
    /// clear gaps into the next visit makes this the cheapest way to
    /// walk a bitmap — one closure call and one shift/`trailing_zeros`
    /// pair per set run inside literal words, no iterator state
    /// machine. Trailing clear bits are never reported. Returns the
    /// number of set bits, so a walk checks the bitmap against an
    /// expected count for free.
    #[inline]
    pub fn for_each_one_run(&self, mut f: impl FnMut(u64, u64, u64)) -> u64 {
        let mut ones_before = 0u64;
        let mut gap = 0u64;
        let mut remaining = self.num_bits;
        for &w in self.words {
            if remaining == 0 {
                break;
            }
            if w & FILL_FLAG != 0 {
                let len = (u64::from(w & FILL_COUNT_MASK) * GROUP_BITS).min(remaining);
                remaining -= len;
                if w & FILL_BIT != 0 {
                    f(gap, ones_before, len);
                    gap = 0;
                    ones_before += len;
                } else {
                    gap += len;
                }
            } else {
                let nbits = GROUP_BITS.min(remaining);
                remaining -= nbits;
                // Bit 0 of the literal is the lowest position; peel
                // alternating zero/one stretches off the low end.
                let mut m = w & LITERAL_MASK;
                if nbits < GROUP_BITS {
                    m &= (1u32 << nbits) - 1;
                }
                let mut consumed = 0u64;
                while m != 0 {
                    let z = u64::from(m.trailing_zeros());
                    m >>= z;
                    let o = u64::from((!m).trailing_zeros());
                    f(gap + z, ones_before, o);
                    gap = 0;
                    ones_before += o;
                    m >>= o;
                    consumed += z + o;
                }
                gap += nbits - consumed;
            }
        }
        ones_before
    }

    /// Number of set bits in `[0, pos)` via the sampled directory:
    /// binary search to the nearest checkpoint, then walk at most one
    /// sample stride of words (fills resolved arithmetically, literals
    /// by masked popcount).
    ///
    /// # Panics
    /// Panics if `pos` exceeds the bitmap length.
    pub fn rank_with(&self, dir: &RankSelectDir, pos: u64) -> u64 {
        assert!(pos <= self.num_bits, "rank position {pos} out of range");
        let (start, mut bits, mut ones) = dir.seek_bits(pos);
        for &w in &self.words[start.min(self.words.len())..] {
            if w & FILL_FLAG != 0 {
                let nbits = u64::from(w & FILL_COUNT_MASK) * GROUP_BITS;
                if pos < bits + nbits {
                    if w & FILL_BIT != 0 {
                        ones += pos - bits;
                    }
                    return ones;
                }
                bits += nbits;
                if w & FILL_BIT != 0 {
                    ones += nbits;
                }
            } else {
                if pos < bits + GROUP_BITS {
                    let mask = (1u32 << (pos - bits)) - 1;
                    return ones + u64::from((w & LITERAL_MASK & mask).count_ones());
                }
                bits += GROUP_BITS;
                // Canonical padding bits are clear, so the whole-word
                // popcount is exact even for the trailing group.
                ones += u64::from((w & LITERAL_MASK).count_ones());
            }
        }
        ones
    }
}

/// Words per sampled checkpoint in a [`RankSelectDir`].
///
/// 64 words = 256 bitmap bytes per 8-byte sample, so a directory costs
/// ~3.1% of the compressed bitmap it describes.
pub const RANK_SAMPLE_WORDS: usize = 64;

/// Little-endian `u32` at `at` of a slice known to hold it.
pub(crate) fn le_u32(b: &[u8], at: usize) -> u32 {
    let b = &b[at..at + 4];
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Sampled rank directory over an encoded WAH word stream.
///
/// `samples[j]` holds the cumulative `(bits, ones)` totals of the first
/// `(j + 1) * RANK_SAMPLE_WORDS` encoded words (padded group bits for
/// `bits`; exact for `ones` because canonical encodings keep padding
/// bits clear). [`WahRef::rank_with`] binary searches the samples and
/// then peels at most one sample stride of words, turning the linear
/// walk of [`WahBitmap::rank`] into O(log samples + S) probes.
///
/// Bitmaps of at most `RANK_SAMPLE_WORDS` words get an empty directory
/// (the default: `rank_with` degrades to a bounded linear walk).
/// Directories are also left empty when cumulative totals would
/// overflow the `u32` samples (bitmaps beyond 4 Gbit).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankSelectDir {
    sample_every: u32,
    samples: Vec<(u32, u32)>,
}

impl RankSelectDir {
    /// Build a directory for `b` in one pass over its encoded words.
    pub fn build(b: WahRef<'_>) -> Self {
        let every = RANK_SAMPLE_WORDS;
        let nwords = b.words.len();
        if nwords <= every {
            return Self::default();
        }
        let mut samples = Vec::with_capacity(nwords / every);
        let mut bits = 0u64;
        let mut ones = 0u64;
        for (i, &w) in b.words.iter().enumerate() {
            if w & FILL_FLAG != 0 {
                let nbits = u64::from(w & FILL_COUNT_MASK) * GROUP_BITS;
                bits += nbits;
                if w & FILL_BIT != 0 {
                    ones += nbits;
                }
            } else {
                bits += GROUP_BITS;
                ones += u64::from(w.count_ones());
            }
            if (i + 1) % every == 0 && i + 1 < nwords {
                if bits > u64::from(u32::MAX) || ones > u64::from(u32::MAX) {
                    return Self::default();
                }
                samples.push((bits as u32, ones as u32));
            }
        }
        RankSelectDir {
            sample_every: every as u32,
            samples,
        }
    }

    /// Start state `(word_idx, bits, ones)` for a walk that must reach
    /// bit position `pos`: the last checkpoint with `bits <= pos`.
    fn seek_bits(&self, pos: u64) -> (usize, u64, u64) {
        let idx = self.samples.partition_point(|s| u64::from(s.0) <= pos);
        if idx == 0 {
            (0, 0, 0)
        } else {
            let (bits, ones) = self.samples[idx - 1];
            (
                idx * self.sample_every as usize,
                u64::from(bits),
                u64::from(ones),
            )
        }
    }
}

/// Incremental WAH bitmap builder.
#[derive(Debug, Default)]
pub struct WahBuilder {
    words: Vec<u32>,
    /// Bits accumulated into the current (incomplete) group.
    active: u32,
    active_bits: u32,
    num_bits: u64,
}

impl WahBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        if bit {
            self.active |= 1 << self.active_bits;
        }
        self.active_bits += 1;
        self.num_bits += 1;
        if u64::from(self.active_bits) == GROUP_BITS {
            self.flush_group();
        }
    }

    /// Append `count` copies of `bit`.
    pub fn append_run(&mut self, bit: bool, mut count: u64) {
        // Fill the current partial group first.
        while self.active_bits != 0 && count > 0 {
            self.push(bit);
            count -= 1;
        }
        // Emit whole groups as fills.
        let groups = count / GROUP_BITS;
        if groups > 0 {
            self.emit_fill(bit, groups);
            self.num_bits += groups * GROUP_BITS;
            count -= groups * GROUP_BITS;
        }
        // Remainder goes into the new partial group.
        for _ in 0..count {
            self.push(bit);
        }
    }

    fn flush_group(&mut self) {
        let g = self.active & LITERAL_MASK;
        self.active = 0;
        self.active_bits = 0;
        if g == 0 {
            self.emit_fill(false, 1);
        } else if g == LITERAL_MASK {
            self.emit_fill(true, 1);
        } else {
            self.words.push(g);
        }
    }

    fn emit_fill(&mut self, bit: bool, mut groups: u64) {
        // Merge with a preceding fill of the same kind when possible.
        if let Some(last) = self.words.last_mut() {
            if *last & FILL_FLAG != 0 && (*last & FILL_BIT != 0) == bit {
                let existing = u64::from(*last & FILL_COUNT_MASK);
                let merged = existing + groups;
                if merged <= u64::from(MAX_FILL_GROUPS) {
                    *last = FILL_FLAG
                        | if bit { FILL_BIT } else { 0 }
                        | (merged as u32 & FILL_COUNT_MASK);
                    return;
                }
                // Top up the existing fill, emit the rest below.
                let room = u64::from(MAX_FILL_GROUPS) - existing;
                *last = FILL_FLAG | if bit { FILL_BIT } else { 0 } | MAX_FILL_GROUPS;
                groups -= room;
            }
        }
        while groups > 0 {
            let take = groups.min(u64::from(MAX_FILL_GROUPS));
            self.words
                .push(FILL_FLAG | if bit { FILL_BIT } else { 0 } | (take as u32));
            groups -= take;
        }
    }

    /// Append a whole 31-bit group at once. Only valid when the builder
    /// is group-aligned (no partial bits pending).
    ///
    /// # Panics
    /// Panics if bits have been pushed since the last group boundary.
    pub(crate) fn push_group(&mut self, group: u32) {
        assert_eq!(self.active_bits, 0, "push_group requires group alignment");
        let g = group & LITERAL_MASK;
        self.num_bits += GROUP_BITS;
        if g == 0 {
            self.emit_fill(false, 1);
        } else if g == LITERAL_MASK {
            self.emit_fill(true, 1);
        } else {
            self.words.push(g);
        }
    }

    /// Finish building; a trailing partial group is stored as a literal.
    pub fn finish(mut self) -> WahBitmap {
        if self.active_bits > 0 {
            // Store the partial group as a literal (padding bits zero).
            self.words.push(self.active & LITERAL_MASK);
            self.active = 0;
            self.active_bits = 0;
        }
        WahBitmap {
            words: self.words,
            num_bits: self.num_bits,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A bitmap of `n` bits, all set.
    fn all_ones(n: u64) -> WahBitmap {
        let mut b = WahBuilder::new();
        b.append_run(true, n);
        b.finish()
    }

    /// A bitmap's stream, then its directory, as formats v2 and v3
    /// stored them: what a directory costs next to its stream.
    pub(crate) fn stored(b: &WahBitmap) -> Vec<u8> {
        let mut bytes = b.to_bytes();
        let dir = RankSelectDir::build(b.as_ref());
        if !dir.samples.is_empty() {
            bytes.extend_from_slice(&(dir.samples.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&dir.sample_every.to_le_bytes());
            for (bits, ones) in dir.samples {
                bytes.extend_from_slice(&bits.to_le_bytes());
                bytes.extend_from_slice(&ones.to_le_bytes());
            }
        }
        bytes
    }

    /// A bitmap of `bits`, pushed one by one.
    fn of_bools(bits: &[bool]) -> WahBitmap {
        let mut b = WahBuilder::new();
        for &bit in bits {
            b.push(bit);
        }
        b.finish()
    }

    /// Set bits of `[0, pos)` among sorted `positions`.
    fn rank_of(positions: &[u64], pos: u64) -> u64 {
        positions.partition_point(|&p| p < pos) as u64
    }

    #[test]
    fn empty_bitmap() {
        let b = WahBuilder::new().finish();
        assert_eq!(b.len(), 0);
        assert_eq!(b.rank(0), 0);
        assert!(b.to_positions().is_empty());
    }

    #[test]
    fn from_bools_roundtrip() {
        let bits: Vec<bool> = (0..200).map(|i| i % 7 == 0).collect();
        let b = of_bools(&bits);
        assert_eq!(b.len(), 200);
        let expect: Vec<u64> = (0..200).filter(|i| i % 7 == 0).collect();
        assert_eq!(b.to_positions(), expect);
        for pos in 0..=200 {
            assert_eq!(b.rank(pos), rank_of(&expect, pos), "rank at {pos}");
        }
    }

    #[test]
    fn long_zero_run_compresses() {
        let b = WahBitmap::from_sorted_positions(1_000_000, &[0, 999_999]);
        assert!(b.size_in_bytes() < 64, "size {}", b.size_in_bytes());
        assert_eq!(b.to_positions(), vec![0, 999_999]);
    }

    #[test]
    fn long_one_run_compresses() {
        let b = all_ones(1_000_000);
        assert!(b.size_in_bytes() < 64);
        assert_eq!(b.rank(1_000_000), 1_000_000);
        assert_eq!(b.to_positions(), (0..1_000_000).collect::<Vec<_>>());
    }

    #[test]
    fn padding_bits_are_not_ones() {
        // 33 bits = one full group + 2 bits: padding must not count.
        let b = all_ones(33);
        assert_eq!(b.rank(33), 33);
        assert_eq!(b.to_positions().len(), 33);
    }

    #[test]
    fn from_sorted_positions_matches_bools() {
        let pos = [3u64, 31, 32, 62, 63, 64, 100];
        let a = WahBitmap::from_sorted_positions(128, &pos);
        let bits: Vec<bool> = (0..128u64).map(|i| pos.contains(&i)).collect();
        assert_eq!(a, of_bools(&bits));
        assert_eq!(a.to_positions(), pos);
    }

    #[test]
    fn serialization_roundtrip() {
        let b = WahBitmap::from_sorted_positions(10_000, &[5, 93, 94, 95, 9_999]);
        let bytes = b.to_bytes();
        let (b2, consumed) = WahBitmap::from_bytes(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(b, b2);
    }

    #[test]
    fn serialization_rejects_garbage() {
        assert_eq!(
            WahBitmap::from_bytes(&[1, 2, 3]),
            Err(BitmapError::Truncated)
        );
        let mut bytes = all_ones(10).to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            WahBitmap::from_bytes(&bytes),
            Err(BitmapError::BadMagic(_))
        ));
    }

    /// Words that do not cover the declared length, padded to a whole
    /// group, are refused: one fill word more (the word count bumped to
    /// match), or one literal word under a longer length.
    #[test]
    fn words_that_miss_the_declared_length_are_refused() {
        let bytes = WahBitmap::from_sorted_positions(100, &[3, 64]).to_bytes();
        let mut longer = bytes.clone();
        longer[12] += 1;
        longer.extend_from_slice(&(FILL_FLAG | 1).to_le_bytes());
        assert_eq!(WahBitmap::from_bytes(&longer), Err(BitmapError::PastEnd));
        let mut shorter = bytes;
        shorter[4..12].copy_from_slice(&1_000u64.to_le_bytes());
        assert_eq!(WahBitmap::from_bytes(&shorter), Err(BitmapError::Truncated));
    }

    #[test]
    fn append_run_mixed() {
        let mut b = WahBuilder::new();
        b.append_run(false, 10);
        b.append_run(true, 50);
        b.append_run(false, 3);
        b.push(true);
        let bm = b.finish();
        assert_eq!(bm.len(), 64);
        let want: Vec<u64> = (10..60).chain([63]).collect();
        assert_eq!(bm.to_positions(), want);
    }

    /// `rank` inverts `select` — the `k`-th set position, read off the
    /// positions the bitmap was built from.
    #[test]
    fn rank_select_roundtrip() {
        let pos = [3u64, 31, 32, 62, 63, 64, 100, 9_999];
        let b = WahBitmap::from_sorted_positions(10_000, &pos);
        for (k, &p) in pos.iter().enumerate() {
            assert_eq!(b.rank(p), k as u64);
            assert_eq!(b.rank(p + 1), k as u64 + 1);
        }
        assert_eq!(b.rank(0), 0);
        assert_eq!(b.rank(b.len()), pos.len() as u64);
    }

    #[test]
    fn dir_small_bitmap_is_empty_and_costless() {
        let b = WahBitmap::from_sorted_positions(1_000, &[1, 500, 999]);
        assert!(b.words.len() <= RANK_SAMPLE_WORDS);
        let dir = RankSelectDir::build(b.as_ref());
        assert_eq!(dir, RankSelectDir::default());
        assert_eq!(stored(&b), b.to_bytes(), "no directory bytes");
        // Queries still work through the empty directory.
        assert_eq!(b.as_ref().rank_with(&dir, 501), 2);
    }

    /// A bitmap long enough to carry samples: alternating literal noise
    /// and multi-group fills of both polarities, with its positions.
    fn sampled_case() -> (WahBitmap, Vec<u64>) {
        let (mut bld, mut positions, mut at) = (WahBuilder::new(), Vec::new(), 0u64);
        let mut push = |bld: &mut WahBuilder, bit: bool, n: u64| {
            bld.append_run(bit, n);
            if bit {
                positions.extend(at..at + n);
            }
            at += n;
        };
        for i in 0..200u64 {
            match i % 4 {
                0 => (0..31).for_each(|j| push(&mut bld, (i + j) % 3 == 0, 1)),
                1 => push(&mut bld, false, 31 * (1 + i % 5)),
                2 => push(&mut bld, true, 31 * (1 + i % 7)),
                _ => (0..17).for_each(|j| push(&mut bld, (i + j) % 2 == 0, 1)),
            }
        }
        (bld.finish(), positions)
    }

    #[test]
    fn dir_rank_select_match_linear() {
        let (b, positions) = sampled_case();
        assert!(b.words.len() > RANK_SAMPLE_WORDS, "case too small");
        let dir = RankSelectDir::build(b.as_ref());
        assert!(!dir.samples.is_empty());
        let r = b.as_ref();
        for pos in (0..b.len()).step_by(13).chain([b.len()]) {
            let want = rank_of(&positions, pos);
            assert_eq!(r.rank_with(&dir, pos), want, "rank at {pos}");
            assert_eq!(b.rank(pos), want, "linear rank at {pos}");
        }
        // rank(select(k)) = k, select read off the positions.
        for (k, &p) in positions.iter().enumerate().step_by(11) {
            assert_eq!(r.rank_with(&dir, p), k as u64, "rank(select({k}))");
        }
    }

    #[test]
    fn dir_overhead_is_bounded() {
        let (b, _) = sampled_case();
        let dir_bytes = stored(&b).len() - b.to_bytes().len();
        let frac = dir_bytes as f64 / b.size_in_bytes() as f64;
        assert!(frac <= 0.05, "directory overhead {frac:.3} > 5%");
    }

    #[test]
    fn giant_fill_merging() {
        // Force multiple merge paths in emit_fill.
        let mut b = WahBuilder::new();
        for _ in 0..10 {
            b.append_run(false, 31 * 1000);
        }
        let bm = b.finish();
        assert_eq!(bm.len(), 31 * 10_000);
        assert!(bm.to_positions().is_empty());
        // All merged into a single fill word.
        assert_eq!(bm.words.len(), 1);
    }
}
