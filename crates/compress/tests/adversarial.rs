//! Adversarial decode: a unit part is disk bytes, and every decoder
//! that reads one — the v7 DEFLATE payload decoder, the v7 ISOBAR unit
//! decoder, the v6 stream readers `mloc upgrade` keeps, and ISABELA's
//! and FPC's streams — must take damage without a panic. Each is fed
//! encoded units of 50 to 2,000 values, then every single-byte flip,
//! every truncation and seeded extensions of them. A result is `Err`,
//! or `Ok` at exactly the length the input declares: the raw length a
//! payload decoder is handed, the length a v6 stream's header states,
//! the value count in front of an ISABELA or FPC stream — never more
//! than a bound the input's own length sets (ISABELA: one value per
//! stream byte; FPC: two per byte, plus 16).
//!
//! The vendored proptest does not shrink: the extension property is a
//! function of one seed, and a failing seed becomes a row of
//! `adversarial.replay`.

use mloc_compress::deflate::lz77;
use mloc_compress::{v6, Codec, Deflate, Fpc, Isabela, Isobar};
use mloc_compress::{CodecError, FloatCodec};
use proptest::prelude::*;

/// The unit sizes every decoder is fed: a unit's few hundred points,
/// and the ends of the range.
const SIZES: [usize; 4] = [50, 164, 573, 2_000];

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// A value bin's points: close values, so the high byte columns code
/// and the low ones are noise.
fn unit(n: usize, seed: u64) -> Vec<f64> {
    let mut next = xorshift(seed);
    (0..n)
        .map(|i| 1500.0 + (i / 40) as f64 + (next() >> 40) as f64 * 1e-9)
        .collect()
}

/// The PLoD byte parts of `values`: the top two bytes, then each lower
/// byte, as a build splits them.
fn parts(values: &[f64]) -> Vec<Vec<u8>> {
    let mut parts = vec![Vec::new(); 7];
    for v in values {
        let b = v.to_be_bytes();
        parts[0].extend_from_slice(&b[..2]);
        for p in 1..7 {
            parts[p].push(b[p + 1]);
        }
    }
    parts
}

/// Every single-byte flip, every truncation, and `extensions` seeded
/// extensions of `input`, each handed to `check`.
fn damage(input: &[u8], extensions: u64, mut check: impl FnMut(&[u8])) {
    for at in 0..input.len() {
        for mask in [0xFF, 1 << (at % 8)] {
            let mut bad = input.to_vec();
            bad[at] ^= mask;
            check(&bad);
        }
    }
    for cut in 0..input.len() {
        check(&input[..cut]);
    }
    for seed in 0..extensions {
        extend(input, seed, &mut check);
    }
}

/// `input` with 1 to 16 seeded bytes appended.
fn extend(input: &[u8], seed: u64, check: &mut impl FnMut(&[u8])) {
    let mut next = xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut bad = input.to_vec();
    let n = 1 + next() % 16;
    bad.extend((0..n).map(|_| next() as u8));
    check(&bad);
}

/// A v7 payload of `raw_len` bytes decodes to exactly that many, or
/// fails.
fn payload_ok(payload: &[u8], raw_len: usize) {
    if let Ok(out) = Deflate.decode(payload, raw_len) {
        assert_eq!(out.len(), raw_len);
    }
}

/// The length a v6 DEFLATE stream's header declares.
fn declared(stream: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(stream.get(4..12)?.try_into().ok()?))
}

/// A v6 DEFLATE stream decodes to the length its header declares, or
/// fails.
fn mdf1_ok(stream: &[u8]) {
    if let Ok(out) = v6::deflate(stream) {
        assert_eq!(Some(out.len() as u64), declared(stream));
    }
}

/// RFC 1951's fixed code lengths as a v6 block's nibble table.
fn fixed_table() -> Vec<u8> {
    let mut lens = [5u8; 316];
    for (sym, len) in lens.iter_mut().enumerate().take(286) {
        *len = match sym {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    lens.chunks(2).map(|p| p[0] | (p[1] << 4)).collect()
}

/// The v6 stream of `raw`, built from its one-block v7 payload: a v7
/// block's body is a v6 block's without its lengths, and a fixed one's
/// table is the RFC's.
fn mdf1(raw: &[u8]) -> Vec<u8> {
    assert!(raw.len() <= 128 * 1024, "one block");
    let payload = Deflate.encode(raw);
    let mut s = 0x3146_444Du32.to_le_bytes().to_vec();
    s.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    s.extend_from_slice(&v6::adler32(raw).to_le_bytes());
    if raw.is_empty() {
        return s;
    }
    let block_len = (raw.len() as u32).to_le_bytes();
    if payload.len() == raw.len() {
        s.push(0);
        s.extend_from_slice(&block_len);
        s.extend_from_slice(raw);
        return s;
    }
    let (table, coded) = match payload[0] {
        1 => (fixed_table(), &payload[1..]),
        _ => (payload[1..159].to_vec(), &payload[159..]),
    };
    s.push(1);
    s.extend_from_slice(&block_len);
    s.extend_from_slice(&table);
    s.extend_from_slice(&(coded.len() as u32).to_le_bytes());
    s.extend_from_slice(coded);
    s
}

/// The v6 ISOBAR streams of one column (`MISB`) and of a float unit
/// (`MISO`), over [`mdf1`].
fn misb(column: &[u8]) -> Vec<u8> {
    let mut s = 0x4253_494Du32.to_le_bytes().to_vec();
    let stream = mdf1(column);
    if stream.len() < column.len() {
        s.push(1);
        s.extend_from_slice(&stream);
    } else {
        s.push(0);
        s.extend_from_slice(column);
    }
    s
}

fn miso(values: &[f64]) -> Vec<u8> {
    let mut s = 0x4F53_494Du32.to_le_bytes().to_vec();
    s.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for j in 0..8 {
        let col: Vec<u8> = values.iter().map(|v| v.to_le_bytes()[j]).collect();
        let stream = mdf1(&col);
        let (flag, body) = if stream.len() < col.len() {
            (1, stream)
        } else {
            (0, col)
        };
        s.push(flag);
        s.extend_from_slice(&(body.len() as u64).to_le_bytes());
        s.extend_from_slice(&body);
    }
    s
}

/// The value count in front of an ISABELA or FPC stream.
fn count(stream: &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &b) in stream.iter().take(10).enumerate() {
        v |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// A float stream decodes to the count in front of it, within `bound`
/// values of the stream's length, or fails.
fn floats_ok(codec: &dyn FloatCodec, stream: &[u8], bound: impl Fn(usize) -> usize) {
    if let Ok(out) = codec.decompress_f64(stream) {
        assert_eq!(Some(out.len() as u64), count(stream));
        assert!(out.len() <= bound(stream.len()), "{} values", out.len());
    }
}

#[test]
fn damaged_deflate_payloads_decode_or_fail() {
    let mut kinds = [0usize; 3];
    for (k, &n) in SIZES.iter().enumerate() {
        for part in parts(&unit(n, k as u64)) {
            let payload = Deflate.encode(&part);
            if payload.len() == part.len() {
                continue;
            }
            kinds[usize::from(payload[0])] += 1;
            assert_eq!(Deflate.decode(&payload, part.len()).unwrap(), part);
            damage(&payload, 8, |bad| payload_ok(bad, part.len()));
        }
    }
    // Both Huffman kinds were damaged.
    assert!(kinds[1] > 0 && kinds[2] > 0, "{kinds:?}");
}

#[test]
fn damaged_isobar_units_decode_or_fail() {
    for (k, &n) in SIZES.iter().enumerate() {
        let values = unit(n, 10 + k as u64);
        let payload = Isobar.encode_f64(&values);
        assert!(
            payload.len() < 8 * n && payload[0] != 0,
            "{n}: a coded unit"
        );
        damage(&payload, 8, |bad| {
            if let Ok(out) = Isobar.decode_f64(bad, n) {
                assert_eq!(out.len(), n);
            }
        });
        for part in parts(&values) {
            let payload = Codec::encode(&Isobar, &part);
            damage(&payload, 2, |bad| {
                if let Ok(out) = Codec::decode(&Isobar, bad, part.len()) {
                    assert_eq!(out.len(), part.len());
                }
            });
        }
    }
}

#[test]
fn damaged_v6_streams_decode_or_fail() {
    for (k, &n) in SIZES[..3].iter().enumerate() {
        let values = unit(n, 20 + k as u64);
        for part in parts(&values) {
            let stream = mdf1(&part);
            assert_eq!(v6::deflate(&stream).unwrap(), part);
            damage(&stream, 4, mdf1_ok);
            let misb = misb(&part);
            assert_eq!(v6::isobar_bytes(&misb).unwrap(), part);
            damage(&misb, 2, |bad| {
                if let Ok(out) = v6::isobar_bytes(bad) {
                    let stated = match bad[4] {
                        0 => Some(bad.len() as u64 - 5),
                        _ => declared(&bad[5..]),
                    };
                    assert_eq!(Some(out.len() as u64), stated);
                }
            });
        }
        let stream = miso(&values);
        assert_eq!(v6::isobar_f64(&stream).unwrap(), values);
        damage(&stream, 4, |bad| {
            if let Ok(out) = v6::isobar_f64(bad) {
                let stated = u64::from_le_bytes(bad[4..12].try_into().unwrap());
                assert_eq!(out.len() as u64, stated);
            }
        });
    }
}

#[test]
fn damaged_isabela_and_fpc_streams_decode_or_fail() {
    let isabela = Isabela::new(1e-3);
    for (k, &n) in SIZES.iter().enumerate() {
        let values = unit(n, 30 + k as u64);
        for (codec, bound) in [
            (
                &isabela as &dyn FloatCodec,
                (|len| len) as fn(usize) -> usize,
            ),
            (&Fpc, |len| 2 * len + 16),
        ] {
            let stream = codec.compress_f64(&values);
            assert_eq!(codec.decompress_f64(&stream).unwrap().len(), n);
            damage(&stream, 4, |bad| floats_ok(codec, bad, bound));
        }
    }
}

/// Seeds of [`extended_units_decode_or_fail`] to replay, read from
/// `adversarial.replay`.
fn replay_seeds() -> Vec<u64> {
    include_str!("adversarial.replay")
        .lines()
        .map(|l| l.split('#').next().unwrap().trim())
        .filter(|l| !l.is_empty())
        .map(|l| match l.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).unwrap(),
            None => l.parse().unwrap(),
        })
        .collect()
}

/// One seed: a unit of 50 to 2,000 values, each decoder's input for it
/// extended by the seed's bytes.
fn extended_units_decode_or_fail(seed: u64) {
    let n = 50 + (seed % 1_951) as usize;
    let values = unit(n, seed);
    let check_payload = |part: &[u8], payload: &[u8]| {
        extend(payload, seed, &mut |bad: &[u8]| payload_ok(bad, part.len()));
    };
    for part in parts(&values) {
        check_payload(&part, &Deflate.encode(&part));
        extend(&mdf1(&part), seed, &mut |bad: &[u8]| mdf1_ok(bad));
    }
    extend(&Isobar.encode_f64(&values), seed, &mut |bad: &[u8]| {
        if let Ok(out) = Isobar.decode_f64(bad, n) {
            assert_eq!(out.len(), n);
        }
    });
    let fpc = Fpc.compress_f64(&values);
    extend(&fpc, seed, &mut |bad: &[u8]| {
        floats_ok(&Fpc, bad, |len| 2 * len + 16)
    });
    assert!(matches!(
        Deflate.decode(&[3], 10),
        Err(CodecError::Corrupt(_))
    ));
    // The tokenizer underneath is untouched by any of this.
    assert!(!lz77::tokenize(&parts(&values)[0]).is_empty());
}

#[test]
fn replayed_seeds_decode_or_fail() {
    let seeds = replay_seeds();
    assert!(!seeds.is_empty());
    for seed in seeds {
        extended_units_decode_or_fail(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn extended_units_of_any_seed_decode_or_fail(seed in any::<u64>()) {
        extended_units_decode_or_fail(seed);
    }
}
