//! Greedy LZ77 match finder with hash chains (DEFLATE-style).

use std::cell::RefCell;

/// Minimum match length worth encoding.
pub const MIN_MATCH: usize = 3;
/// Maximum match length (matches DEFLATE's 258).
pub const MAX_MATCH: usize = 258;
/// Maximum back-reference distance (32 KiB window).
pub const MAX_DIST: usize = 32 * 1024;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// How many chain links to follow before giving up.
const MAX_CHAIN: usize = 64;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Match length in `MIN_MATCH..=MAX_MATCH`.
        len: u16,
        /// Distance in `1..=MAX_DIST`.
        dist: u16,
    },
}

#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    let v =
        u32::from(data[pos]) | (u32::from(data[pos + 1]) << 8) | (u32::from(data[pos + 2]) << 16);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// The hash-chain tables, kept from one [`tokenize`] call to the next
/// on a thread: a storage unit is a few hundred bytes, far less than
/// it costs to allocate and zero 256 KiB of tables (DESIGN §7).
/// Entries are stamped instead of cleared: a call stores position `p`
/// as `base + p + 1` and then raises `base` past everything it stored,
/// so whatever an earlier call left reads as "none" exactly as a
/// zeroed table would.
struct Scratch {
    /// `head[h]` = most recent position with hash `h`.
    head: Vec<u32>,
    /// `prev[p & (MAX_DIST - 1)]` = the position before `p` in its
    /// chain. Only read at positions the current call inserted.
    prev: Vec<u32>,
    base: u32,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Tokenize `data` with greedy hash-chain matching (with one-byte lazy
/// evaluation, as in zlib's default strategy). After a thread's first
/// call the only allocation is the returned vector.
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    SCRATCH.with(|s| s.borrow_mut().tokenize(data))
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            head: vec![0; HASH_SIZE],
            prev: vec![0; MAX_DIST],
            base: 0,
        }
    }

    #[inline]
    fn insert(&mut self, data: &[u8], pos: usize) {
        let h = hash3(data, pos);
        self.prev[pos & (MAX_DIST - 1)] = self.head[h];
        self.head[h] = self.base + pos as u32 + 1;
    }

    fn find_match(&self, data: &[u8], pos: usize) -> Option<(usize, usize)> {
        let n = data.len();
        let max_len = (n - pos).min(MAX_MATCH);
        if max_len < MIN_MATCH {
            return None;
        }
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut cand = self.head[hash3(data, pos)];
        let mut chain = MAX_CHAIN;
        while cand > self.base && chain > 0 {
            let cpos = (cand - self.base) as usize - 1;
            if pos - cpos > MAX_DIST {
                break;
            }
            if cpos < pos {
                // Quick reject on the byte past the current best.
                if pos + best_len < n && data[cpos + best_len] == data[pos + best_len] {
                    let mut l = 0usize;
                    while l < max_len && data[cpos + l] == data[pos + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = pos - cpos;
                        if l == max_len {
                            break;
                        }
                    }
                }
            }
            cand = self.prev[cpos & (MAX_DIST - 1)];
            chain -= 1;
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    }

    fn tokenize(&mut self, data: &[u8]) -> Vec<Token> {
        let n = data.len();
        // A token covers at least one byte: sized once, never regrown.
        let mut tokens = Vec::with_capacity(n);
        if n < MIN_MATCH {
            tokens.extend(data.iter().map(|&b| Token::Literal(b)));
            return tokens;
        }
        // This call stamps up to `base + n`. When that no longer fits,
        // start over from a zeroed `head` (`prev` needs no clearing: a
        // slot is written before the chain can reach it).
        let span = u32::try_from(n).expect("tokenize input under 4 GiB");
        if self.base.checked_add(span).is_none() {
            self.head.fill(0);
            self.base = 0;
        }

        let mut pos = 0usize;
        while pos < n {
            if pos + MIN_MATCH > n {
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
                continue;
            }
            match self.find_match(data, pos) {
                Some((len, dist)) => {
                    // Lazy matching: if the next position has a strictly
                    // longer match, emit a literal instead.
                    self.insert(data, pos);
                    let lazy = pos + 1 + MIN_MATCH <= n
                        && matches!(self.find_match(data, pos + 1), Some((nlen, _)) if nlen > len);
                    if lazy {
                        tokens.push(Token::Literal(data[pos]));
                        pos += 1;
                    } else {
                        tokens.push(Token::Match {
                            len: len as u16,
                            dist: dist as u16,
                        });
                        // Insert hash entries for the skipped positions.
                        let end = (pos + len).min(n.saturating_sub(MIN_MATCH - 1));
                        for p in pos + 1..end {
                            self.insert(data, p);
                        }
                        pos += len;
                    }
                }
                None => {
                    self.insert(data, pos);
                    tokens.push(Token::Literal(data[pos]));
                    pos += 1;
                }
            }
        }
        self.base += span;
        tokens
    }
}

/// Expand tokens back into bytes (used by tests; the decoder inlines
/// this during bitstream decoding).
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

/// The tokenizer [`tokenize`] replaced, verbatim, as its differential
/// oracle: fresh zeroed tables for every call.
#[cfg(test)]
pub(super) mod oracle {
    use super::*;

    pub fn tokenize(data: &[u8]) -> Vec<Token> {
        let n = data.len();
        let mut tokens = Vec::with_capacity(n / 2 + 16);
        if n < MIN_MATCH {
            tokens.extend(data.iter().map(|&b| Token::Literal(b)));
            return tokens;
        }

        // head[h] = most recent position with hash h (+1; 0 = none).
        let mut head = vec![0u32; HASH_SIZE];
        // prev[i & (MAX_DIST-1)] = previous position in the chain (+1).
        let mut prev = vec![0u32; MAX_DIST];

        let insert = |head: &mut [u32], prev: &mut [u32], pos: usize| {
            let h = hash3(data, pos);
            prev[pos & (MAX_DIST - 1)] = head[h];
            head[h] = pos as u32 + 1;
        };

        let find_match = |head: &[u32], prev: &[u32], pos: usize| -> Option<(usize, usize)> {
            let max_len = (n - pos).min(MAX_MATCH);
            if max_len < MIN_MATCH {
                return None;
            }
            let mut best_len = MIN_MATCH - 1;
            let mut best_dist = 0usize;
            let mut cand = head[hash3(data, pos)];
            let mut chain = MAX_CHAIN;
            while cand != 0 && chain > 0 {
                let cpos = cand as usize - 1;
                if pos - cpos > MAX_DIST {
                    break;
                }
                if cpos < pos {
                    // Quick reject on the byte past the current best.
                    if pos + best_len < n && data[cpos + best_len] == data[pos + best_len] {
                        let mut l = 0usize;
                        while l < max_len && data[cpos + l] == data[pos + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_dist = pos - cpos;
                            if l == max_len {
                                break;
                            }
                        }
                    }
                }
                cand = prev[cpos & (MAX_DIST - 1)];
                chain -= 1;
            }
            (best_len >= MIN_MATCH).then_some((best_len, best_dist))
        };

        let mut pos = 0usize;
        while pos < n {
            if pos + MIN_MATCH > n {
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
                continue;
            }
            match find_match(&head, &prev, pos) {
                Some((len, dist)) => {
                    // Lazy matching: if the next position has a strictly
                    // longer match, emit a literal instead.
                    let lazy = if pos + 1 + MIN_MATCH <= n {
                        insert(&mut head, &mut prev, pos);
                        let next = find_match(&head, &prev, pos + 1);
                        matches!(next, Some((nlen, _)) if nlen > len)
                    } else {
                        insert(&mut head, &mut prev, pos);
                        false
                    };
                    if lazy {
                        tokens.push(Token::Literal(data[pos]));
                        pos += 1;
                    } else {
                        tokens.push(Token::Match {
                            len: len as u16,
                            dist: dist as u16,
                        });
                        // Insert hash entries for the skipped positions.
                        let end = (pos + len).min(n.saturating_sub(MIN_MATCH - 1));
                        for p in pos + 1..end {
                            insert(&mut head, &mut prev, p);
                        }
                        pos += len;
                    }
                }
                None => {
                    insert(&mut head, &mut prev, pos);
                    tokens.push(Token::Literal(data[pos]));
                    pos += 1;
                }
            }
        }
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let data = b"abcabcabcabcabcabc".to_vec();
        let tokens = tokenize(&data);
        assert_eq!(expand(&tokens), data);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "repetitive data should produce matches"
        );
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            let tokens = tokenize(data);
            assert_eq!(expand(&tokens), data);
        }
    }

    #[test]
    fn roundtrip_random() {
        // Pseudo-random bytes: few matches, but must stay correct.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect();
        assert_eq!(expand(&tokenize(&data)), data);
    }

    #[test]
    fn roundtrip_runs() {
        let data = vec![7u8; 100_000];
        let tokens = tokenize(&data);
        assert_eq!(expand(&tokens), data);
        // A long run should compress into very few tokens.
        assert!(tokens.len() < 1000, "got {} tokens", tokens.len());
    }

    #[test]
    fn overlapping_match_expansion() {
        // "aaaa..." relies on overlapping copies (dist 1, len > 1).
        let data = b"aaaaaaaaaaaaaaaaaaaaaaa".to_vec();
        assert_eq!(expand(&tokenize(&data)), data);
    }

    fn xorshift_bytes(n: usize, seed: u32, byte: impl Fn(u32) -> u8) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                byte(x)
            })
            .collect()
    }

    /// Inputs chosen to leave as much behind in the tables as they
    /// can for the next one to trip over: a long one fills every hash
    /// bucket and wraps `prev`, the short ones that follow share its
    /// trigrams.
    fn stale_scratch_sequence() -> Vec<Vec<u8>> {
        vec![
            xorshift_bytes(3 * MAX_DIST, 0x9E37_79B9, |x| (x >> 24) as u8 & 3),
            b"\x01\x02\x03".to_vec(),
            vec![1u8; 328],
            Vec::new(),
            xorshift_bytes(164, 7, |x| (x >> 24) as u8 & 3),
            b"\x01\x02".to_vec(),
            xorshift_bytes(128 * 1024, 0x2545_F491, |x| (x >> 24) as u8 & 15),
            xorshift_bytes(164, 7, |x| (x >> 24) as u8 & 3),
        ]
    }

    #[test]
    fn one_reused_scratch_matches_fresh_tables() {
        let mut scratch = Scratch::new();
        for (i, data) in stale_scratch_sequence().iter().enumerate() {
            let tokens = scratch.tokenize(data);
            assert_eq!(
                tokens,
                oracle::tokenize(data),
                "input {i}, {} bytes",
                data.len()
            );
            assert_eq!(expand(&tokens), *data);
        }
        // The free function goes through this thread's scratch.
        for data in stale_scratch_sequence() {
            assert_eq!(tokenize(&data), oracle::tokenize(&data));
        }
    }

    #[test]
    fn scratch_starts_over_when_the_stamp_would_wrap() {
        // Stamps from before the wrap are large; after it they must
        // not be taken for positions of the current input.
        let inputs = stale_scratch_sequence();
        let mut scratch = Scratch::new();
        scratch.base = u32::MAX - 400;
        for data in [&inputs[4], &inputs[2], &inputs[4], &inputs[0], &inputs[4]] {
            assert_eq!(scratch.tokenize(data), oracle::tokenize(data));
        }
        assert!(scratch.base < u32::MAX / 2, "base {}", scratch.base);
        // Exactly at the edge: `base + n` still fits, then does not.
        let data = &inputs[4];
        scratch.base = u32::MAX - data.len() as u32;
        assert_eq!(scratch.tokenize(data), oracle::tokenize(data));
        assert_eq!(scratch.base, u32::MAX);
        assert_eq!(scratch.tokenize(data), oracle::tokenize(data));
        assert_eq!(scratch.base, data.len() as u32);
    }

    #[test]
    fn match_constraints_hold() {
        let data: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
        for t in tokenize(&data) {
            if let Token::Match { len, dist } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
                assert!((1..=MAX_DIST).contains(&(dist as usize)));
            }
        }
    }
}
