//! Canonical Huffman coding with length-limited codes (package-merge).

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;

/// Maximum code length. 12 bits keeps the decoder to a single-level
/// 4096-entry lookup table while staying within ~0.1 % of the
/// unrestricted Huffman cost on byte data.
pub const MAX_CODE_LEN: u32 = 12;

/// Compute length-limited code lengths for the given symbol
/// frequencies using the package-merge algorithm, into `lens`: one
/// length per symbol, zero-frequency symbols get length 0.
///
/// A storage unit is a few hundred bytes, so this runs twice per ~300
/// input bytes (DESIGN §7) and works on fixed stack arrays. Level
/// `k`'s list is the stable merge of the weight-sorted leaves with the
/// packages paired off level `k − 1`, a leaf going first on equal
/// weight; only the previous level's weights and one is-leaf bit per
/// slot are kept. The lengths fall out of one backward pass: of the
/// `take` cheapest slots of a level, each leaf costs its symbol one
/// more bit and each package stands for two slots of the level below.
///
/// # Panics
/// Panics if `freqs` and `lens` differ in length, the alphabet exceeds
/// [`MAX_SYMBOLS`], `max_len` exceeds [`MAX_CODE_LEN`], or `max_len`
/// bits cannot code the used symbols.
pub fn code_lengths(freqs: &[u32], max_len: u32, lens: &mut [u8]) {
    assert_eq!(freqs.len(), lens.len(), "one length per symbol");
    assert!(freqs.len() <= MAX_SYMBOLS, "alphabet too large");
    assert!(max_len <= MAX_CODE_LEN, "max_len {max_len} too large");
    lens.fill(0);

    // The used symbols by ascending weight, equal weights by ascending
    // symbol: a total order, so an unstable sort gives the one answer.
    let mut leaves = [(0u32, 0u16); MAX_SYMBOLS];
    let mut n = 0usize;
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            leaves[n] = (f, sym as u16);
            n += 1;
        }
    }
    let leaves = &mut leaves[..n];
    match n {
        0 => return,
        1 => {
            lens[leaves[0].1 as usize] = 1;
            return;
        }
        _ => {}
    }
    assert!(
        (1usize << max_len) >= n,
        "max_len {max_len} too small for {n} symbols"
    );
    leaves.sort_unstable();

    // A level holds the n leaves plus half the level before: under 2n
    // slots. A package of level k sums at most 2^(k-1) leaves.
    const MAX_SLOTS: usize = 2 * MAX_SYMBOLS;
    let mut is_leaf = [[0u64; MAX_SLOTS / 64]; MAX_CODE_LEN as usize];
    let is_leaf = &mut is_leaf[..max_len as usize];
    let (mut prev, mut cur) = (&mut [0u64; MAX_SLOTS], &mut [0u64; MAX_SLOTS]);
    let mut slots = 0usize;
    for flags in is_leaf.iter_mut() {
        let pairs = slots / 2;
        let (mut leaf, mut pair) = (0usize, 0usize);
        slots = 0;
        while leaf < n || pair < pairs {
            let package = || prev[2 * pair] + prev[2 * pair + 1];
            if leaf < n && (pair == pairs || u64::from(leaves[leaf].0) <= package()) {
                cur[slots] = u64::from(leaves[leaf].0);
                flags[slots / 64] |= 1 << (slots % 64);
                leaf += 1;
            } else {
                cur[slots] = package();
                pair += 1;
            }
            slots += 1;
        }
        std::mem::swap(&mut prev, &mut cur);
    }

    let mut take = slots.min(2 * (n - 1));
    for flags in is_leaf.iter().rev() {
        let (words, bits) = (take / 64, take % 64);
        let mut taken_leaves: u32 = flags[..words].iter().map(|w| w.count_ones()).sum();
        if bits > 0 {
            taken_leaves += (flags[words] & ((1 << bits) - 1)).count_ones();
        }
        for &(_, sym) in &leaves[..taken_leaves as usize] {
            lens[sym as usize] += 1;
        }
        take = 2 * (take - taken_leaves as usize);
    }
}

/// A canonical Huffman encoder table: per-symbol `(code, length)` with
/// the code bits pre-reversed for LSB-first emission.
#[derive(Debug, Clone)]
pub struct Encoder {
    codes: Vec<(u32, u8)>,
}

impl Encoder {
    /// Build the canonical code from code lengths.
    pub fn from_lengths(lens: &[u8]) -> Self {
        let max = lens.iter().copied().max().unwrap_or(0) as u32;
        let mut bl_count = vec![0u32; max as usize + 1];
        for &l in lens {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        let mut next_code = vec![0u32; max as usize + 2];
        let mut code = 0u32;
        for bits in 1..=max {
            code = (code + bl_count[bits as usize - 1]) << 1;
            next_code[bits as usize] = code;
        }
        let codes = lens
            .iter()
            .map(|&l| {
                if l == 0 {
                    (0u32, 0u8)
                } else {
                    let c = next_code[l as usize];
                    next_code[l as usize] += 1;
                    (reverse_bits(c, l as u32), l)
                }
            })
            .collect();
        Encoder { codes }
    }

    /// Emit the code for `symbol`.
    #[inline]
    pub fn write(&self, w: &mut BitWriter, symbol: usize) {
        let (code, len) = self.codes[symbol];
        debug_assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(code, len as u32);
    }

    /// Code length of a symbol in bits (0 = unused symbol).
    pub fn len_of(&self, symbol: usize) -> u8 {
        self.codes[symbol].1
    }
}

fn reverse_bits(code: u32, len: u32) -> u32 {
    code.reverse_bits() >> (32 - len)
}

/// Entries of the largest decode table: one per `MAX_CODE_LEN`-bit
/// pattern.
pub const MAX_TABLE_LEN: usize = 1 << MAX_CODE_LEN;

/// Largest alphabet a [`Decoder`] is built for (the literal/length
/// alphabet has 286 symbols).
pub const MAX_SYMBOLS: usize = 288;

/// A canonical Huffman decoder: one lookup table indexed by the next
/// `bits` stream bits (LSB-first), where `bits` is the longest code
/// the block actually uses. Each entry packs `(symbol << 4) |
/// code_len`; `code_len == 0` marks a pattern no code is assigned to.
///
/// A storage unit decodes to a few hundred bytes, so building the
/// tables is most of a block's cost (DESIGN §9). The table therefore
/// lives in caller-provided storage, is filled without allocating,
/// and covers `2^bits` entries instead of a fixed `2^12`.
#[derive(Debug)]
pub struct Decoder<'t> {
    table: &'t [u16],
    bits: u32,
}

impl<'t> Decoder<'t> {
    /// Build the decoder for code lengths `lens` (one per symbol, at
    /// most [`MAX_SYMBOLS`]) into `storage`.
    ///
    /// Returns an error when a length exceeds [`MAX_CODE_LEN`] or the
    /// lengths are not a prefix code (over-subscribed Kraft sum).
    pub fn from_lengths(
        lens: &[u8],
        storage: &'t mut [u16; MAX_TABLE_LEN],
    ) -> Result<Self, CodecError> {
        assert!(lens.len() <= MAX_SYMBOLS, "alphabet too large");
        #[cfg(test)]
        TABLES_BUILT.with(|n| n.set(n.get() + 1));
        // One pass over the alphabet: collect the coded symbols and
        // their length histogram. Small blocks use a handful of the
        // 286 literal/length symbols, so unused ones are skipped here
        // and everything after works on the coded few.
        let mut coded = [0u16; MAX_SYMBOLS];
        let mut n_coded = 0usize;
        let mut count = [0u16; MAX_CODE_LEN as usize + 1];
        for (group, group_lens) in lens.chunks(16).enumerate() {
            if group_lens.iter().fold(0, |any, &l| any | l) == 0 {
                continue;
            }
            for (i, &l) in group_lens.iter().enumerate() {
                if l == 0 {
                    continue;
                }
                match count.get_mut(l as usize) {
                    Some(c) => *c += 1,
                    None => return Err(CodecError::Corrupt("code length exceeds maximum")),
                }
                coded[n_coded] = (group * 16 + i) as u16;
                n_coded += 1;
            }
        }
        let mut bits = 0u32;
        let mut kraft = 0u32;
        for len in 1..=MAX_CODE_LEN {
            let n = u32::from(count[len as usize]);
            if n > 0 {
                bits = len;
                kraft += n << (MAX_CODE_LEN - len);
            }
        }
        if kraft > 1 << MAX_CODE_LEN {
            return Err(CodecError::Corrupt("over-subscribed Huffman code"));
        }

        // Counting sort: coded symbols by code length, ascending symbol
        // within a length — the order canonical codes are assigned in.
        let mut sorted = [0u16; MAX_SYMBOLS];
        let mut next = [0u16; MAX_CODE_LEN as usize + 2];
        for len in 1..=MAX_CODE_LEN as usize {
            next[len + 1] = next[len] + count[len];
        }
        for &sym in &coded[..n_coded] {
            let slot = &mut next[lens[sym as usize] as usize];
            sorted[*slot as usize] = sym;
            *slot += 1;
        }

        // Grow the table one code length at a time. Doubling it first
        // replicates every shorter code across the new top index bit
        // (a code of length l owns all indices whose low l bits are
        // its bit-reversed value); the codes of the new length then
        // own one slot each.
        let table = &mut storage[..1 << bits];
        table[0] = 0;
        let mut code = 0u32;
        let mut first = 0usize;
        for len in 1..=bits {
            let half = 1usize << (len - 1);
            table.copy_within(..half, half);
            code <<= 1;
            let n = usize::from(count[len as usize]);
            for &sym in &sorted[first..first + n] {
                let idx = code.reverse_bits() >> (32 - len);
                table[idx as usize] = (sym << 4) | len as u16;
                code += 1;
            }
            first += n;
        }
        Ok(Decoder { table, bits })
    }

    /// Decode one symbol.
    ///
    /// The lookup is zero-padded past the end of the stream, so the
    /// final symbols of a block resolve here too; a code that would
    /// need padding bits to complete is a truncated stream. With fewer
    /// than [`MAX_CODE_LEN`] bits left an unassigned pattern also
    /// reports `Truncated`: the tail is too short to tell a cut stream
    /// from a damaged one.
    #[inline]
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<usize, CodecError> {
        let (idx, avail) = r.peek_padded(self.bits);
        let entry = self.table[idx as usize];
        let len = u32::from(entry & 0xF);
        if len == 0 || len > avail {
            return Err(if r.bits_left() < MAX_CODE_LEN as usize {
                CodecError::Truncated
            } else {
                CodecError::Corrupt("invalid Huffman code")
            });
        }
        r.consume_bits(len);
        Ok(usize::from(entry >> 4))
    }
}

#[cfg(test)]
thread_local! {
    /// Decode tables this thread has built: what a test holds a decode
    /// path's table builds to.
    pub(crate) static TABLES_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The package-merge [`code_lengths`] replaced, verbatim, as its
/// differential oracle: every package carries the multiset of symbols
/// inside it and every level clones and re-sorts the list.
#[cfg(test)]
pub(super) mod oracle {
    pub fn code_lengths(freqs: &[u64], max_len: u32) -> Vec<u8> {
        let n = freqs.len();
        let mut lens = vec![0u8; n];
        let active: Vec<u16> = (0..n as u16).filter(|&s| freqs[s as usize] > 0).collect();
        match active.len() {
            0 => return lens,
            1 => {
                lens[active[0] as usize] = 1;
                return lens;
            }
            _ => {}
        }
        assert!(
            (1usize << max_len) >= active.len(),
            "max_len {max_len} too small for {} symbols",
            active.len()
        );

        // Package-merge: `prev` holds the package list of the previous
        // level; each package carries the multiset of symbols inside it.
        let mut singletons: Vec<(u64, Vec<u16>)> = active
            .iter()
            .map(|&s| (freqs[s as usize], vec![s]))
            .collect();
        singletons.sort_by_key(|(w, _)| *w);

        let mut prev: Vec<(u64, Vec<u16>)> = Vec::new();
        for _ in 0..max_len {
            let mut cur = singletons.clone();
            for pair in prev.chunks_exact(2) {
                let w = pair[0].0 + pair[1].0;
                let mut syms = pair[0].1.clone();
                syms.extend_from_slice(&pair[1].1);
                cur.push((w, syms));
            }
            cur.sort_by_key(|(w, _)| *w);
            prev = cur;
        }

        let take = 2 * (active.len() - 1);
        for (_, syms) in prev.into_iter().take(take) {
            for s in syms {
                lens[s as usize] += 1;
            }
        }
        lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lengths(freqs: &[u32], max_len: u32) -> Vec<u8> {
        let mut lens = vec![0xEE; freqs.len()];
        code_lengths(freqs, max_len, &mut lens);
        lens
    }

    #[test]
    fn lengths_satisfy_kraft() {
        let freqs = vec![5u32, 9, 12, 13, 16, 45, 0, 1];
        let lens = lengths(&freqs, MAX_CODE_LEN);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft {kraft}");
        assert_eq!(lens[6], 0, "zero-frequency symbol must stay unused");
    }

    #[test]
    fn lengths_are_optimal_for_uniform() {
        let freqs = vec![1u32; 8];
        let lens = lengths(&freqs, MAX_CODE_LEN);
        assert!(lens.iter().all(|&l| l == 3));
    }

    #[test]
    fn single_symbol_gets_length_one() {
        let mut freqs = vec![0u32; 10];
        freqs[4] = 100;
        let lens = lengths(&freqs, MAX_CODE_LEN);
        assert_eq!(lens[4], 1);
        assert_eq!(lens.iter().filter(|&&l| l > 0).count(), 1);
    }

    #[test]
    fn length_limit_is_respected() {
        // Fibonacci-like frequencies force deep Huffman trees.
        let mut freqs = vec![0u32; 30];
        let (mut a, mut b) = (1u32, 1u32);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = lengths(&freqs, 8);
        assert!(lens.iter().all(|&l| l as u32 <= 8));
        let kraft: f64 = lens
            .iter()
            .map(|&l| if l > 0 { 2f64.powi(-(l as i32)) } else { 0.0 })
            .sum();
        assert!(kraft <= 1.0 + 1e-12);
    }

    /// The decoder [`Decoder`] replaced, kept as its differential
    /// oracle: a fixed 2¹²-entry table filled per symbol from an
    /// [`Encoder`], with a bit-at-a-time walk over the last bits of a
    /// stream.
    struct OracleDecoder {
        table: Vec<u32>,
    }

    impl OracleDecoder {
        fn from_lengths(lens: &[u8]) -> Result<Self, CodecError> {
            let mut kraft = 0u64;
            for &l in lens {
                if l > 0 {
                    if l as u32 > MAX_CODE_LEN {
                        return Err(CodecError::Corrupt("code length exceeds maximum"));
                    }
                    kraft += 1u64 << (MAX_CODE_LEN - l as u32);
                }
            }
            if kraft > 1u64 << MAX_CODE_LEN {
                return Err(CodecError::Corrupt("over-subscribed Huffman code"));
            }
            let enc = Encoder::from_lengths(lens);
            let mut table = vec![0u32; 1 << MAX_CODE_LEN];
            for (sym, &(code, len)) in enc.codes.iter().enumerate() {
                if len == 0 {
                    continue;
                }
                let step = 1u32 << len;
                let mut idx = code;
                while (idx as usize) < table.len() {
                    table[idx as usize] = ((sym as u32) << 4) | len as u32;
                    idx += step;
                }
            }
            Ok(OracleDecoder { table })
        }

        fn read(&self, r: &mut BitReader<'_>) -> Result<usize, CodecError> {
            match r.peek_bits(MAX_CODE_LEN) {
                Some(bits) => {
                    let entry = self.table[bits as usize];
                    let len = entry & 0xF;
                    if len == 0 {
                        return Err(CodecError::Corrupt("invalid Huffman code"));
                    }
                    r.consume_bits(len);
                    Ok((entry >> 4) as usize)
                }
                None => self.read_slow(r),
            }
        }

        fn read_slow(&self, r: &mut BitReader<'_>) -> Result<usize, CodecError> {
            let mut bits = 0u32;
            for i in 0..MAX_CODE_LEN {
                bits |= r.read_bit()? << i;
                let entry = self.table[bits as usize];
                if entry & 0xF == i + 1 {
                    return Ok((entry >> 4) as usize);
                }
            }
            Err(CodecError::Corrupt("invalid Huffman code"))
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let freqs = vec![50u32, 30, 10, 5, 3, 1, 1, 0, 7, 19];
        let lens = lengths(&freqs, MAX_CODE_LEN);
        let enc = Encoder::from_lengths(&lens);
        let mut storage = [0u16; MAX_TABLE_LEN];
        let dec = Decoder::from_lengths(&lens, &mut storage).unwrap();
        let symbols = [0usize, 1, 2, 3, 4, 5, 6 /*skip 7*/, 8, 9, 0, 0, 9, 5];
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.read(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn table_is_sized_to_the_longest_used_code() {
        let mut storage = [0u16; MAX_TABLE_LEN];
        // Lengths {1, 2, 3, 3}: a complete code, longest 3 bits.
        let dec = Decoder::from_lengths(&[2, 0, 1, 3, 0, 3], &mut storage).unwrap();
        assert_eq!((dec.bits, dec.table.len()), (3, 8));
        assert!(dec.table.iter().all(|&e| e & 0xF != 0), "complete code");
        // No symbol at all: one entry, unassigned.
        let dec = Decoder::from_lengths(&[0; 30], &mut storage).unwrap();
        assert_eq!((dec.bits, dec.table), (0, &[0u16][..]));
    }

    #[test]
    fn bad_lengths_rejected() {
        let mut storage = [0u16; MAX_TABLE_LEN];
        assert!(Decoder::from_lengths(&[1, 1, 1], &mut storage).is_err());
        assert!(Decoder::from_lengths(&[1, 13], &mut storage).is_err());
    }

    #[test]
    fn decoder_rejects_unused_code() {
        // Only symbol 0 has a code (single bit 0); reading a stream of
        // ones must fail rather than loop.
        let mut storage = [0u16; MAX_TABLE_LEN];
        let dec = Decoder::from_lengths(&[1, 0], &mut storage).unwrap();
        let data = vec![0xFFu8; 4];
        let mut r = BitReader::new(&data);
        assert_eq!(
            dec.read(&mut r),
            Err(CodecError::Corrupt("invalid Huffman code"))
        );
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Decode `stream` with both decoders until one fails (or
        /// `max_reads` symbols) and require identical outcomes, errors
        /// included.
        fn assert_same_decode(lens: &[u8], stream: &[u8], max_reads: usize) {
            let mut storage = [0u16; MAX_TABLE_LEN];
            let new = Decoder::from_lengths(lens, &mut storage);
            let old = OracleDecoder::from_lengths(lens);
            let (new, old) = match (new, old) {
                (Ok(n), Ok(o)) => (n, o),
                (n, o) => {
                    assert_eq!(n.err(), o.err(), "lens {lens:?}");
                    return;
                }
            };
            let (mut rn, mut ro) = (BitReader::new(stream), BitReader::new(stream));
            for i in 0..max_reads {
                let (got, want) = (new.read(&mut rn), old.read(&mut ro));
                assert_eq!(got, want, "symbol {i}, lens {lens:?}, stream {stream:?}");
                if got.is_err() {
                    break;
                }
            }
        }

        /// A valid length table over `freqs.len()` symbols: package-
        /// merge lengths limited to `max_len` bits, then — to make the
        /// code incomplete — the symbols `drop` selects lose theirs.
        fn valid_lengths(freqs: &[u32], max_len: u32, drop: &[bool]) -> Vec<u8> {
            let mut lens = lengths(freqs, max_len.max(feasibility_floor(freqs)));
            for (l, &d) in lens.iter_mut().zip(drop) {
                if d {
                    *l = 0;
                }
            }
            lens
        }

        /// Fewest bits that can code the used symbols of `freqs`.
        fn feasibility_floor(freqs: &[u32]) -> u32 {
            let active = freqs.iter().filter(|&&f| f > 0).count();
            active.next_power_of_two().trailing_zeros().max(1)
        }

        /// [`code_lengths`] against the routine it replaced, for every
        /// limit from the feasibility floor to 12 bits.
        fn assert_same_lengths(freqs: &[u32]) {
            let wide: Vec<u64> = freqs.iter().map(|&f| u64::from(f)).collect();
            for max_len in feasibility_floor(freqs)..=MAX_CODE_LEN {
                assert_eq!(
                    lengths(freqs, max_len),
                    oracle::code_lengths(&wide, max_len),
                    "max_len {max_len}, freqs {freqs:?}"
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            // Frequencies spread over 2^0..2^31 (and zero) give deep,
            // skewed trees that hit the 12-bit limit; `drop` leaves
            // holes in the code space; `n` goes down to one symbol and
            // an all-zero `freqs` is the empty alphabet. The stream is
            // the encoded symbols followed by arbitrary bytes, so both
            // decoders run through valid codes, unassigned codes (when
            // the code is incomplete) and the zero-padded tail.
            #[test]
            fn new_decoder_matches_oracle(
                raw in proptest::collection::vec((any::<u32>(), 0u32..40), 1..=MAX_SYMBOLS),
                max_len in 1u32..=MAX_CODE_LEN,
                drop_one_in in 1u64..40,
                picks in proptest::collection::vec(any::<u16>(), 0..300),
                junk in proptest::collection::vec(any::<u8>(), 0..12),
                drop_seed in any::<u64>(),
            ) {
                let freqs: Vec<u32> = raw
                    .iter()
                    .map(|&(f, s)| if s >= 32 { 0 } else { f >> s })
                    .collect();
                let mut x = drop_seed | 1;
                let drop: Vec<bool> = freqs
                    .iter()
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        drop_one_in < 20 && x % drop_one_in == 0
                    })
                    .collect();
                let lens = valid_lengths(&freqs, max_len, &drop);
                let coded: Vec<usize> = (0..lens.len()).filter(|&s| lens[s] > 0).collect();
                let enc = Encoder::from_lengths(&lens);
                let mut w = BitWriter::new();
                if !coded.is_empty() {
                    for &p in &picks {
                        enc.write(&mut w, coded[p as usize % coded.len()]);
                    }
                }
                let mut stream = w.finish();
                stream.extend_from_slice(&junk);
                assert_same_decode(&lens, &stream, picks.len() + 200);
            }

            // The same frequency spread, lengths only: ties (the small
            // shifted values collide often) must break as the oracle's
            // stable sort broke them.
            #[test]
            fn code_lengths_match_oracle(
                raw in proptest::collection::vec((any::<u32>(), 0u32..40), 1..=MAX_SYMBOLS),
            ) {
                let freqs: Vec<u32> = raw
                    .iter()
                    .map(|&(f, s)| if s >= 32 { 0 } else { f >> s })
                    .collect();
                assert_same_lengths(&freqs);
            }

            // Long runs of equal weights: what a unit's byte histogram
            // looks like, and where leaf-before-package matters most.
            #[test]
            fn code_lengths_match_oracle_on_runs_of_equal_weights(
                runs in proptest::collection::vec((0u32..6, 1usize..40), 1..12),
                scale in 0u32..20,
            ) {
                let mut freqs: Vec<u32> = runs
                    .iter()
                    .flat_map(|&(w, n)| std::iter::repeat_n(w << scale, n))
                    .collect();
                freqs.truncate(MAX_SYMBOLS);
                assert_same_lengths(&freqs);
            }

            // Arbitrary nibbles: mostly over-subscribed tables, which
            // both decoders must reject alike, plus whatever happens
            // to be a prefix code.
            #[test]
            fn arbitrary_lengths_agree(
                lens in proptest::collection::vec(0u8..16, 0..40),
                stream in proptest::collection::vec(any::<u8>(), 0..40),
            ) {
                assert_same_decode(&lens, &stream, 400);
            }
        }

        #[test]
        fn code_lengths_match_oracle_on_fixed_ladders() {
            // Fibonacci ladders of every length that fits a u32, up
            // and down the alphabet, want a tree as deep as the ladder.
            let mut fib = vec![1u32, 1];
            while let Some(next) = fib[fib.len() - 1].checked_add(fib[fib.len() - 2]) {
                fib.push(next);
            }
            for n in 1..=fib.len() {
                assert_same_lengths(&fib[..n]);
                let down: Vec<u32> = fib[..n].iter().rev().copied().collect();
                assert_same_lengths(&down);
            }
            // Powers of two, all-equal alphabets of every size, and
            // the two alphabets the encoder uses, full and uniform.
            let pow2: Vec<u32> = (0..32).map(|i| 1 << i).collect();
            assert_same_lengths(&pow2);
            for n in 1..=MAX_SYMBOLS {
                assert_same_lengths(&vec![7; n]);
            }
            // One heavy symbol over a flat floor; zeros interleaved.
            let mut skew = vec![1u32; 286];
            skew[256] = u32::MAX;
            assert_same_lengths(&skew);
            let holes: Vec<u32> = (0..288)
                .map(|i| if i % 3 == 0 { 0 } else { i / 5 })
                .collect();
            assert_same_lengths(&holes);
        }

        #[test]
        fn twelve_bit_codes_are_exercised() {
            // Fibonacci frequencies over 30 symbols want a 29-deep
            // tree; the limit caps it at exactly MAX_CODE_LEN.
            let mut freqs = vec![0u32; 30];
            let (mut a, mut b) = (1u32, 1u32);
            for f in freqs.iter_mut() {
                *f = a;
                (a, b) = (b, a + b);
            }
            let lens = lengths(&freqs, MAX_CODE_LEN);
            assert_eq!(u32::from(*lens.iter().max().unwrap()), MAX_CODE_LEN);
            let enc = Encoder::from_lengths(&lens);
            let mut w = BitWriter::new();
            for s in (0..30).chain((0..30).rev()) {
                enc.write(&mut w, s);
            }
            let stream = w.finish();
            assert_same_decode(&lens, &stream, 100);
            let mut storage = [0u16; MAX_TABLE_LEN];
            let dec = Decoder::from_lengths(&lens, &mut storage).unwrap();
            let mut r = BitReader::new(&stream);
            for s in (0..30).chain((0..30).rev()) {
                assert_eq!(dec.read(&mut r), Ok(s));
            }
        }
    }
}
