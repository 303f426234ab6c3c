//! Logical operations on WAH bitmaps, performed directly on the
//! compressed run representation (no full decompression).

use crate::wah::{Run, WahBitmap, WahBuilder, GROUP_BITS};

/// A span of identical content: either a repeated fill group or a
/// single literal group.
#[derive(Debug, Clone, Copy)]
enum Span {
    Fill { bit: bool, groups: u64 },
    Literal(u32),
}

/// Streams a bitmap's runs as group-aligned spans.
struct SpanCursor<I: Iterator<Item = Run>> {
    runs: I,
    pending: Option<Span>,
}

impl<I: Iterator<Item = Run>> SpanCursor<I> {
    fn new(runs: I) -> Self {
        SpanCursor {
            runs,
            pending: None,
        }
    }

    fn peek(&mut self) -> Option<Span> {
        while self.pending.is_none() {
            self.pending = match self.runs.next()? {
                // A fill of no groups covers nothing.
                Run::Fill { groups: 0, .. } => None,
                Run::Fill { bit, groups } => Some(Span::Fill {
                    bit,
                    groups: u64::from(groups),
                }),
                Run::Literal(w) => Some(Span::Literal(w)),
            };
        }
        self.pending
    }

    /// Consume `groups` groups from the current span (must not exceed it).
    fn consume(&mut self, groups: u64) {
        match self.pending.take() {
            Some(Span::Fill { bit, groups: g }) => {
                debug_assert!(groups <= g);
                if g > groups {
                    self.pending = Some(Span::Fill {
                        bit,
                        groups: g - groups,
                    });
                }
            }
            Some(Span::Literal(_)) => debug_assert_eq!(groups, 1),
            None => panic!("consume past end of bitmap"),
        }
    }
}

const LITERAL_MASK: u32 = 0x7FFF_FFFF;

fn fill_word(bit: bool) -> u32 {
    if bit {
        LITERAL_MASK
    } else {
        0
    }
}

/// Apply a 31-bit-group boolean function to two equal-length bitmaps.
fn binary_op(a: &WahBitmap, b: &WahBitmap, f: impl Fn(u32, u32) -> u32) -> WahBitmap {
    assert_eq!(a.len(), b.len(), "bitmap length mismatch");
    let mut ca = SpanCursor::new(a.runs());
    let mut cb = SpanCursor::new(b.runs());
    let mut out = WahBuilder::new();

    loop {
        let (sa, sb) = match (ca.peek(), cb.peek()) {
            (Some(x), Some(y)) => (x, y),
            (None, None) => break,
            // Equal-length bitmaps cover the same groups: `WahBuilder`
            // pads to the next group and `from_bytes` refuses any other
            // cover.
            _ => panic!("bitmap group streams diverge"),
        };
        match (sa, sb) {
            (
                Span::Fill {
                    bit: b1,
                    groups: g1,
                },
                Span::Fill {
                    bit: b2,
                    groups: g2,
                },
            ) => {
                let take = g1.min(g2);
                let w = f(fill_word(b1), fill_word(b2)) & LITERAL_MASK;
                if w == 0 {
                    out.append_run(false, take * GROUP_BITS);
                } else if w == LITERAL_MASK {
                    out.append_run(true, take * GROUP_BITS);
                } else {
                    for _ in 0..take {
                        out.push_group(w);
                    }
                }
                ca.consume(take);
                cb.consume(take);
            }
            (Span::Literal(w1), Span::Fill { bit: b2, .. }) => {
                out.push_group(f(w1, fill_word(b2)) & LITERAL_MASK);
                ca.consume(1);
                cb.consume(1);
            }
            (Span::Fill { bit: b1, .. }, Span::Literal(w2)) => {
                out.push_group(f(fill_word(b1), w2) & LITERAL_MASK);
                ca.consume(1);
                cb.consume(1);
            }
            (Span::Literal(w1), Span::Literal(w2)) => {
                out.push_group(f(w1, w2) & LITERAL_MASK);
                ca.consume(1);
                cb.consume(1);
            }
        }
    }
    let mut res = out.finish();
    res.set_len(a.len());
    res
}

/// Bitwise OR of two equal-length bitmaps.
pub fn or(a: &WahBitmap, b: &WahBitmap) -> WahBitmap {
    binary_op(a, b, |x, y| x | y)
}

/// Bits set in `a` but not in `b` (`a AND NOT b`).
pub fn andnot(a: &WahBitmap, b: &WahBitmap) -> WahBitmap {
    binary_op(a, b, |x, y| x & !y)
}

/// OR of many bitmaps; returns an all-zero bitmap of `num_bits` when
/// the input is empty.
///
/// Bins adjacent in value tend to have similar run structure, so a
/// simple balanced fold keeps intermediate results compressed.
pub fn or_many(maps: &[WahBitmap], num_bits: u64) -> WahBitmap {
    match maps.len() {
        0 => WahBitmap::zeros(num_bits),
        1 => maps[0].clone(),
        _ => {
            let mid = maps.len() / 2;
            or(
                &or_many(&maps[..mid], num_bits),
                &or_many(&maps[mid..], num_bits),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(n: u64, pos: &[u64]) -> Vec<bool> {
        let mut v = vec![false; n as usize];
        for &p in pos {
            v[p as usize] = true;
        }
        v
    }

    #[test]
    fn and_or_andnot_small() {
        let n = 200u64;
        let pa: Vec<u64> = (0..n).filter(|i| i % 3 == 0).collect();
        let pb: Vec<u64> = (0..n).filter(|i| i % 5 == 0).collect();
        let a = WahBitmap::from_sorted_positions(n, &pa);
        let b = WahBitmap::from_sorted_positions(n, &pb);
        let (va, vb) = (naive(n, &pa), naive(n, &pb));

        // AND is `a ANDNOT (a ANDNOT b)`.
        let got_and = andnot(&a, &andnot(&a, &b)).to_positions();
        let want_and: Vec<u64> = (0..n)
            .filter(|&i| va[i as usize] && vb[i as usize])
            .collect();
        assert_eq!(got_and, want_and);

        let got_or = or(&a, &b).to_positions();
        let want_or: Vec<u64> = (0..n)
            .filter(|&i| va[i as usize] || vb[i as usize])
            .collect();
        assert_eq!(got_or, want_or);

        let got_nd = andnot(&a, &b).to_positions();
        let want_nd: Vec<u64> = (0..n)
            .filter(|&i| va[i as usize] && !vb[i as usize])
            .collect();
        assert_eq!(got_nd, want_nd);
    }

    #[test]
    fn ops_preserve_length() {
        let a = WahBitmap::from_sorted_positions(100, &[1, 50]);
        let b = WahBitmap::from_sorted_positions(100, &[50, 99]);
        assert_eq!(andnot(&a, &b).len(), 100);
        assert_eq!(or(&a, &b).len(), 100);
    }

    #[test]
    fn ops_on_long_fills() {
        let n = 1_000_000u64;
        let a = WahBitmap::from_sorted_positions(n, &[0, 500_000]);
        let mut ones = WahBuilder::new();
        ones.append_run(true, n);
        let b = ones.finish();
        assert!(andnot(&a, &b).to_positions().is_empty());
        assert_eq!(or(&a, &b).rank(n), n);
        assert_eq!(andnot(&b, &a).rank(n), n - 2);
        // Results stay compressed.
        assert!(or(&a, &b).size_in_bytes() < 64);
    }

    /// A fill of no groups — never written, but a damaged stream may
    /// hold one — covers nothing, wherever it sits.
    #[test]
    fn empty_fills_are_skipped() {
        let with_empty = |b: &WahBitmap, at: usize| {
            let mut bytes = b.to_bytes();
            bytes[12] += 1;
            let w = 16 + 4 * at;
            bytes.splice(w..w, crate::wah::FILL_FLAG.to_le_bytes());
            WahBitmap::from_bytes(&bytes).unwrap().0
        };
        let a = WahBitmap::from_sorted_positions(100, &[3, 40, 99]);
        let b = WahBitmap::from_sorted_positions(100, &[40, 41]);
        for at in 0..=2 {
            let a2 = with_empty(&a, at);
            assert_eq!(or(&a2, &b).to_positions(), [3, 40, 41, 99]);
            assert_eq!(andnot(&b, &a2).to_positions(), [41]);
        }
    }

    #[test]
    fn or_many_folds() {
        let n = 10_000u64;
        let maps: Vec<WahBitmap> = (0..10)
            .map(|k| {
                let pos: Vec<u64> = (0..n).filter(|i| i % 10 == k).collect();
                WahBitmap::from_sorted_positions(n, &pos)
            })
            .collect();
        let all = or_many(&maps, n);
        assert_eq!(all.rank(n), n);
        let none = or_many(&[], n);
        assert!(none.to_positions().is_empty());
        assert_eq!(none.len(), n);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let a = WahBitmap::zeros(10);
        let b = WahBitmap::zeros(20);
        or(&a, &b);
    }
}
