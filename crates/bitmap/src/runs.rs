//! Run lists: a chunk bitmap's runs of set bits, stored as they are
//! walked.
//!
//! A query needs neither a bitmap's words nor a rank/select directory:
//! it needs where each run of set bits starts, how long it is, and the
//! rank of its first bit. A run list keeps exactly that, as LEB128
//! `(gap, len − 1)` pairs — `gap` the clear bits since the previous run
//! ended — plus the set-bit count and the bitmap's length. This is the
//! compressed position set of "Hierarchical Bitmap Indexing for Range
//! and Membership Queries on Multidimensional Arrays": one structure
//! answers a range walk (visit the runs a box wants) and a membership
//! probe (merge sorted probes against the runs).
//!
//! A bin file (formats v4 to v7) stores each chunk's positional bitmap
//! as its pairs and nothing else: the count is in the chunk's summary
//! record (in v4, its directory entry) and the length is the chunk's
//! point count. A build encodes the pairs straight from a bin's sorted
//! chunk-local positions ([`RunList::from_sorted_positions`]); a reader
//! takes a stored extent as it is ([`RunListBuf::push_stored`]) after
//! one validating walk, which refuses ([`RunsError`]):
//!
//! * a LEB128 value cut off by the end of the extent, or a gap with no
//!   length after it;
//! * a LEB128 value in more bytes than it needs (a zero last byte), or
//!   past 64 bits — so every list has one encoding;
//! * a zero gap between two runs — runs are maximal;
//! * a run ending past the length;
//! * run lengths that do not sum to the count;
//! * bytes after the pair that completes the count.
//!
//! Whatever it accepts is a well-formed run list, so the walks check
//! nothing again.
//!

/// Append `v` as LEB128: seven bits a byte, low first.
#[inline]
fn put_leb(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 value at `*at`, moving past it; `None` at the end.
#[inline]
fn get_leb(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let b = *bytes.get(*at)?;
    *at += 1;
    if b < 0x80 {
        return Some(u64::from(b));
    }
    let (mut v, mut shift) = (u64::from(b & 0x7F), 7);
    loop {
        let b = *bytes.get(*at)?;
        *at += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 || shift >= 63 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Read one canonical LEB128 value at `*at`, moving past it: the
/// stored-list validator's reader. The walks read the same values with
/// [`get_leb`].
#[inline]
fn get_leb_strict(bytes: &[u8], at: &mut usize) -> Result<u64, RunsError> {
    let b = *bytes.get(*at).ok_or(RunsError::Truncated)?;
    if b < 0x80 {
        *at += 1;
        return Ok(u64::from(b));
    }
    let (mut v, mut shift) = (0u64, 0u32);
    loop {
        let b = *bytes.get(*at).ok_or(RunsError::Truncated)?;
        *at += 1;
        let low = u64::from(b & 0x7F);
        // The tenth byte holds bit 63 alone.
        if shift == 63 && low > 1 {
            return Err(RunsError::Overlong);
        }
        v |= low << shift;
        if b < 0x80 {
            return match (b, shift) {
                (0, 1..) => Err(RunsError::Overlong),
                _ => Ok(v),
            };
        }
        shift += 7;
        if shift > 63 {
            return Err(RunsError::Overlong);
        }
    }
}

/// Why a stored run list was refused: see [`RunListBuf::push_stored`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunsError {
    /// A LEB128 value cut off by the end of the extent, or a gap with
    /// no length after it.
    Truncated,
    /// A LEB128 value in more bytes than it needs, or past 64 bits.
    Overlong,
    /// Two runs with no clear bit between them.
    ZeroGap,
    /// A run ending past the bitmap's length.
    PastEnd,
    /// Run lengths that do not sum to the declared count.
    Count,
    /// Bytes after the pair that completes the count.
    Trailing,
}

impl std::fmt::Display for RunsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunsError::Truncated => "run list truncated",
            RunsError::Overlong => "run list value overlong",
            RunsError::ZeroGap => "run list has a zero gap between runs",
            RunsError::PastEnd => "run list runs past its length",
            RunsError::Count => "run list disagrees with its count",
            RunsError::Trailing => "run list has trailing bytes",
        })
    }
}

impl std::error::Error for RunsError {}

/// Check that `pairs` is the one encoding of a run list of `count` set
/// bits in `len`: see the module docs for what is refused.
fn validate(pairs: &[u8], count: u64, len: u64) -> Result<(), RunsError> {
    let (mut at, mut end, mut ones) = (0usize, 0u64, 0u64);
    while ones < count {
        if at == pairs.len() {
            return Err(RunsError::Count);
        }
        let gap = get_leb_strict(pairs, &mut at)?;
        let more = get_leb_strict(pairs, &mut at)?;
        if gap == 0 && ones > 0 {
            return Err(RunsError::ZeroGap);
        }
        let run_end = end
            .checked_add(gap)
            .and_then(|start| start.checked_add(more))
            .and_then(|last| last.checked_add(1))
            .filter(|&run_end| run_end <= len)
            .ok_or(RunsError::PastEnd)?;
        // Runs are disjoint inside the length, so this cannot overflow.
        ones += more + 1;
        if ones > count {
            return Err(RunsError::Count);
        }
        end = run_end;
    }
    if at != pairs.len() {
        return Err(RunsError::Trailing);
    }
    Ok(())
}

/// Collects runs of set bits into pairs, merging a run that begins
/// where the open one ends (a fill of ones then a literal that starts
/// with ones), so every encoded run is maximal. Runs arrive in rising
/// position order.
struct Encoder<'o> {
    out: &'o mut Vec<u8>,
    /// The run not yet encoded, `[start, end)`; empty at first.
    start: u64,
    end: u64,
    /// End of the last encoded run.
    encoded: u64,
    /// Set bits of the encoded runs.
    count: u64,
}

impl Encoder<'_> {
    /// Add the `n` set bits from position `at`, at or past the open
    /// run's end.
    #[inline]
    fn ones(&mut self, at: u64, n: u64) {
        if at != self.end {
            self.flush();
            self.start = at;
        }
        self.end = at + n;
    }

    /// Encode the open run, if it holds a bit.
    #[inline]
    fn flush(&mut self) {
        if self.end == self.start {
            return;
        }
        let (gap, more) = (self.start - self.encoded, self.end - self.start - 1);
        if gap < 0x80 && more < 0x80 {
            self.out.extend_from_slice(&[gap as u8, more as u8]);
        } else {
            put_leb(self.out, gap);
            put_leb(self.out, more);
        }
        self.count += self.end - self.start;
        self.encoded = self.end;
    }
}

/// A borrowed run list: the runs of set bits of a bitmap of
/// [`len`](Self::len) bits, [`count`](Self::count) of them set. Only
/// the encoder and the validator build one, so its
/// pairs are well formed, its runs lie inside the length and their
/// lengths sum to the count.
#[derive(Debug, Clone, Copy)]
pub struct RunListRef<'a> {
    bytes: &'a [u8],
    count: u64,
    len: u64,
}

impl<'a> RunListRef<'a> {
    /// A stored run list — a format-v4 bitmap extent — of `count` set
    /// bits in `len`, in place, after one validating walk: see the
    /// module docs for what is refused.
    pub fn stored(pairs: &'a [u8], count: u64, len: u64) -> Result<Self, RunsError> {
        validate(pairs, count, len)?;
        Ok(RunListRef {
            bytes: pairs,
            count,
            len,
        })
    }

    /// Number of set bits.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Length of the bitmap in bits: for a positional bitmap, its
    /// chunk's points.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded pairs: a format-v4 bitmap extent, byte for byte.
    pub fn pairs(&self) -> &'a [u8] {
        self.bytes
    }

    /// The runs of set bits in position order, each as `(start,
    /// ones_before, len)`: its first position, the number of set bits
    /// before it (the rank of its first bit — the index of its first
    /// value in a densely packed value block), and its length. Runs are
    /// maximal and non-empty.
    pub fn iter(&self) -> RunIter<'a> {
        RunIter {
            bytes: self.bytes,
            at: 0,
            end: 0,
            ones: 0,
        }
    }

    /// Visit every run as `f(start, ones_before, len)` (see
    /// [`iter`](Self::iter)).
    #[inline]
    pub fn for_each_run(&self, mut f: impl FnMut(u64, u64, u64)) {
        for (start, ones_before, len) in self.iter() {
            f(start, ones_before, len);
        }
    }

    /// Visit the runs that end past position `want` as `f(start,
    /// ones_before, len)`, which returns the next position it wants.
    /// A run ending at or before `want` costs one pair decode; a
    /// visited run may begin before `want`. The walk stops as soon as
    /// `want` is at or past the length — `u64::MAX` says "nothing
    /// more" — without decoding the pairs after it.
    #[inline]
    pub fn for_each_run_from(&self, mut want: u64, mut f: impl FnMut(u64, u64, u64) -> u64) {
        let mut runs = self.iter();
        while want < self.len {
            let Some((start, ones_before, len)) = runs.next() else {
                return;
            };
            if start + len > want {
                want = f(start, ones_before, len);
            }
        }
    }

    /// An owned copy, its pairs in an allocation of exactly their size.
    pub fn to_list(&self) -> RunList {
        RunList {
            bytes: self.bytes.to_vec(),
            count: self.count,
            len: self.len,
        }
    }
}

/// Iterator over a run list's runs: see [`RunListRef::iter`].
#[derive(Debug, Clone)]
pub struct RunIter<'a> {
    bytes: &'a [u8],
    at: usize,
    /// End of the previous run.
    end: u64,
    /// Set bits before the next run.
    ones: u64,
}

impl Iterator for RunIter<'_> {
    type Item = (u64, u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64, u64)> {
        let gap = get_leb(self.bytes, &mut self.at)?;
        let len = get_leb(self.bytes, &mut self.at)? + 1;
        let (start, ones_before) = (self.end + gap, self.ones);
        self.end = start + len;
        self.ones += len;
        Some((start, ones_before, len))
    }
}

/// An owned run list, as a block cache keeps one: see [`RunListRef`].
#[derive(Debug)]
pub struct RunList {
    bytes: Vec<u8>,
    count: u64,
    len: u64,
}

impl RunList {
    /// The run list of a bitmap of `len` bits whose set bits are
    /// `positions`.
    ///
    /// # Panics
    /// Panics unless `positions` is strictly increasing and below `len`.
    pub fn from_sorted_positions(len: u64, positions: &[u64]) -> RunList {
        let mut bytes = Vec::new();
        let mut enc = Encoder {
            out: &mut bytes,
            start: 0,
            end: 0,
            encoded: 0,
            count: 0,
        };
        let mut next = 0u64;
        for &p in positions {
            assert!(p >= next, "positions must be strictly increasing");
            assert!(p < len, "position {p} out of range {len}");
            enc.ones(p, 1);
            next = p + 1;
        }
        enc.flush();
        let count = enc.count;
        bytes.shrink_to_fit();
        RunList { bytes, count, len }
    }

    /// The borrowed view every walk goes through.
    pub fn as_ref(&self) -> RunListRef<'_> {
        RunListRef {
            bytes: &self.bytes,
            count: self.count,
            len: self.len,
        }
    }

    /// Heap bytes the list holds: what a cache charges for it.
    pub fn heap_bytes(&self) -> u64 {
        self.bytes.capacity() as u64
    }
}

/// One list of a [`RunListBuf`]: its pairs' byte range, count, length.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: usize,
    end: usize,
    count: u64,
    len: u64,
}

/// Run lists back to back in one reused buffer: a reader decodes a
/// bin's bitmaps here, and clears the buffer for the next bin instead
/// of allocating a list per bitmap.
#[derive(Debug, Default)]
pub struct RunListBuf {
    bytes: Vec<u8>,
    lists: Vec<Entry>,
}

impl RunListBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every list, keeping the capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.lists.clear();
    }

    /// Take a stored run list — a format-v4 bitmap extent — of `count`
    /// set bits in `len` as it is, after one validating walk
    /// ([`RunListRef::stored`]), and append it, returning the list's
    /// index. Refused, the extent leaves the buffer as it was.
    pub fn push_stored(&mut self, pairs: &[u8], count: u64, len: u64) -> Result<usize, RunsError> {
        let list = RunListRef::stored(pairs, count, len)?;
        let start = self.bytes.len();
        self.bytes.extend_from_slice(list.bytes);
        Ok(self.push(start, count, len))
    }

    /// Append the run list of a bitmap of `len` bits all set — one run
    /// — returning its index.
    pub fn push_full(&mut self, len: u64) -> usize {
        let start = self.bytes.len();
        if len > 0 {
            put_leb(&mut self.bytes, 0);
            put_leb(&mut self.bytes, len - 1);
        }
        self.push(start, len, len)
    }

    fn push(&mut self, start: usize, count: u64, len: u64) -> usize {
        let end = self.bytes.len();
        self.lists.push(Entry {
            start,
            end,
            count,
            len,
        });
        self.lists.len() - 1
    }

    /// List `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<RunListRef<'_>> {
        let e = self.lists.get(i)?;
        Some(RunListRef {
            bytes: self.bytes.get(e.start..e.end)?,
            count: e.count,
            len: e.len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WahBitmap, WahBuilder};

    fn runs(list: RunListRef<'_>) -> Vec<(u64, u64, u64)> {
        list.iter().collect()
    }

    #[test]
    fn leb128_round_trips_at_every_width() {
        let values = [
            0,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            262_143,
            u64::MAX >> 1,
            u64::MAX,
        ];
        let mut bytes = Vec::new();
        for &v in &values {
            put_leb(&mut bytes, v);
        }
        let mut at = 0;
        for &v in &values {
            assert_eq!(get_leb(&bytes, &mut at), Some(v));
        }
        assert_eq!((at, get_leb(&bytes, &mut at)), (bytes.len(), None));
    }

    #[test]
    fn runs_are_maximal_with_their_ranks() {
        let mut b = WahBuilder::new();
        b.append_run(false, 3);
        b.append_run(true, 31 * 4 + 5); // a fill of ones, then a literal
        b.append_run(false, 40);
        b.push(true);
        let bm = b.finish();
        let list = RunList::from_sorted_positions(bm.len(), &bm.to_positions());
        let list = list.as_ref();
        assert_eq!(runs(list), vec![(3, 0, 129), (172, 129, 1)]);
        assert_eq!((list.count(), list.len()), (130, bm.len()));
    }

    #[test]
    fn a_full_bitmap_is_one_run_and_an_empty_one_none() {
        let mut buf = RunListBuf::new();
        let (full, empty) = (buf.push_full(262_144), buf.push_full(0));
        assert_eq!(runs(buf.get(full).unwrap()), vec![(0, 0, 262_144)]);
        assert!(runs(buf.get(empty).unwrap()).is_empty());
        assert!(buf.get(2).is_none());
        buf.clear();
        assert!(buf.get(0).is_none());
    }

    /// Words that cover fewer bits than the declared length — one
    /// literal word under 1,000 declared bits — are refused by the one
    /// WAH reader left, FastBit's, through the same cover check the
    /// upgrade's WAH decoder used; so is a whole group of words past
    /// the length.
    #[test]
    fn words_short_of_the_declared_length_are_refused() {
        let mut bytes = WahBitmap::from_sorted_positions(31, &[3]).to_bytes();
        bytes[4..12].copy_from_slice(&1_000u64.to_le_bytes());
        assert_eq!(
            WahBitmap::from_bytes(&bytes),
            Err(crate::wah::BitmapError::Truncated)
        );
        bytes[4..12].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            WahBitmap::from_bytes(&bytes),
            Err(crate::wah::BitmapError::PastEnd)
        );
    }

    /// A stored run whose last set bit is at the declared length is
    /// past the chunk, and leaves the buffer as it was.
    #[test]
    fn a_set_bit_past_the_length_is_refused() {
        let mut buf = RunListBuf::new();
        buf.push_full(5);
        // A run of one at position 20 in a list of 20 bits.
        assert_eq!(buf.push_stored(&[20, 0], 1, 20), Err(RunsError::PastEnd));
        assert_eq!((buf.bytes.len(), buf.lists.len()), (2, 1));
        assert_eq!(buf.push_stored(&[19, 0], 1, 20), Ok(1));
    }

    /// A stored list as positions encode it: the pairs of the runs of
    /// ones a WAH extent of the same bitmap decodes to, taken back as
    /// they are.
    #[test]
    fn positions_encode_the_pairs_a_wah_extent_decodes_to() {
        let cases: [(u64, &[u64]); 5] = [
            (1, &[0]),
            (100, &[1, 2, 10, 50, 51, 99]),
            (300, &[]),
            (40_000, &[0, 1, 2, 3, 31, 32, 33, 20_000, 39_999]),
            (262_144, &[200_000]),
        ];
        for (len, positions) in cases {
            let encoded = RunList::from_sorted_positions(len, positions);
            let bytes = WahBitmap::from_sorted_positions(len, positions).to_bytes();
            let (wah, _) = WahBitmap::from_bytes(&bytes).unwrap();
            let (mut wah_runs, mut end) = (Vec::new(), 0);
            wah.as_ref().for_each_one_run(|gap, before, n| {
                wah_runs.push((end + gap, before, n));
                end += gap + n;
            });
            assert_eq!(runs(encoded.as_ref()), wah_runs, "{positions:?}");
            let decoded = encoded.as_ref();
            let count = positions.len() as u64;
            assert_eq!(
                (encoded.as_ref().count(), encoded.as_ref().len()),
                (count, len)
            );
            let mut taken = RunListBuf::new();
            let stored = taken.push_stored(decoded.pairs(), count, len).unwrap();
            assert_eq!(runs(taken.get(stored).unwrap()), runs(decoded));
        }
    }

    /// One extent of each class the validator refuses, each leaving the
    /// buffer as it was; `(count, len)` is what the entry declares.
    #[test]
    fn each_refused_class_of_stored_list_is_named() {
        let cases: [(&[u8], u64, u64, RunsError); 13] = [
            (&[0x80], 1, 10, RunsError::Truncated),
            (&[0x03], 1, 10, RunsError::Truncated),
            (&[0x03, 0x81], 2, 200, RunsError::Truncated),
            (&[0x80, 0x00, 0x00], 1, 10, RunsError::Overlong),
            (&[0x00, 0x81, 0x00], 2, 10, RunsError::Overlong),
            (&[0xFF; 11], 1, 10, RunsError::Overlong),
            (
                &[
                    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0x00,
                ],
                1,
                10,
                RunsError::Overlong,
            ),
            (&[0x00, 0x00, 0x00, 0x00], 2, 10, RunsError::ZeroGap),
            (&[0x05, 0x05], 6, 10, RunsError::PastEnd),
            (
                &[
                    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00,
                ],
                1,
                10,
                RunsError::PastEnd,
            ),
            (&[0x00, 0x00], 2, 10, RunsError::Count),
            (&[0x00, 0x02], 2, 10, RunsError::Count),
            (&[0x00, 0x00, 0x01], 1, 10, RunsError::Trailing),
        ];
        let mut buf = RunListBuf::new();
        buf.push_full(5);
        for (pairs, count, len, want) in cases {
            assert_eq!(
                buf.push_stored(pairs, count, len),
                Err(want),
                "{pairs:02x?}"
            );
            assert_eq!((buf.bytes.len(), buf.lists.len()), (2, 1));
        }
        // Nothing to walk but bytes: trailing too.
        assert_eq!(buf.push_stored(&[0], 0, 10), Err(RunsError::Trailing));
        // An empty list of an empty entry, and a full one, are whole.
        assert_eq!(buf.push_stored(&[], 0, 10), Ok(1));
        assert_eq!(buf.push_stored(&[0x00, 0x09], 10, 10), Ok(2));
        assert_eq!(runs(buf.get(2).unwrap()), vec![(0, 0, 10)]);
    }

    #[test]
    fn a_walk_from_a_want_stops_past_the_length() {
        let list = RunList::from_sorted_positions(100, &[1, 2, 10, 50, 51, 99]);
        let list = list.as_ref();
        let mut seen = Vec::new();
        list.for_each_run_from(5, |start, ones_before, len| {
            seen.push((start, ones_before, len));
            if start < 50 {
                50
            } else {
                u64::MAX
            }
        });
        assert_eq!(seen, vec![(10, 2, 1), (50, 3, 2)]);
        let owned = list.to_list();
        assert_eq!(runs(owned.as_ref()), runs(list));
        assert_eq!(owned.heap_bytes(), 8, "four one-byte pairs");
    }
}
