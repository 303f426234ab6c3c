//! Property-based tests: every lossless codec roundtrips arbitrary
//! inputs bit-exactly; ISABELA always honours its error bound.

use mloc_compress::{Codec, CodecKind, Deflate, FloatCodec, Fpc, Isabela, Isobar};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deflate_roundtrips_bytes(data in proptest::collection::vec(any::<u8>(), 0..5000)) {
        let c = Deflate.compress(&data);
        prop_assert_eq!(Deflate.decompress(&c).unwrap(), data);
    }

    #[test]
    fn deflate_roundtrips_structured(seed in any::<u8>(), n in 0usize..4000) {
        // Repetitive data with varying periods exercises the LZ paths.
        let data: Vec<u8> = (0..n).map(|i| ((i / (1 + seed as usize % 17)) % 251) as u8).collect();
        let c = Deflate.compress(&data);
        prop_assert_eq!(Deflate.decompress(&c).unwrap(), data);
    }

    #[test]
    fn fpc_roundtrips_floats(data in proptest::collection::vec(any::<f64>(), 0..2000)) {
        let c = Fpc.compress_f64(&data);
        let d = Fpc.decompress_f64(&c).unwrap();
        prop_assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(&d) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn isobar_roundtrips_floats(data in proptest::collection::vec(any::<f64>(), 0..2000)) {
        let codec = Isobar;
        let c = codec.compress_f64(&data);
        let d = codec.decompress_f64(&c).unwrap();
        prop_assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(&d) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn isabela_honours_error_bound(
        data in proptest::collection::vec(-1e6f64..1e6, 0..3000),
        eps_exp in 1u32..5,
    ) {
        let eps = 10f64.powi(-(eps_exp as i32));
        let codec = Isabela::new(eps);
        let c = codec.compress_f64(&data);
        let d = codec.decompress_f64(&c).unwrap();
        prop_assert_eq!(d.len(), data.len());
        let max_abs = data.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let floor = (max_abs * 1e-12).max(1e-300);
        for (a, b) in data.iter().zip(&d) {
            let tol = eps * a.abs().max(floor) * (1.0 + 1e-9);
            prop_assert!((a - b).abs() <= tol, "|{} - {}| > {}", a, b, tol);
        }
    }

    #[test]
    fn byte_codec_adapters_roundtrip(values in proptest::collection::vec(any::<f64>(), 0..500)) {
        // Every lossless CodecKind must roundtrip through the byte-codec API.
        let bytes = mloc_compress::f64s_to_bytes(&values);
        for kind in [CodecKind::Raw, CodecKind::Deflate, CodecKind::Isobar, CodecKind::Fpc] {
            let codec = kind.byte_codec();
            let c = codec.compress(&bytes);
            prop_assert_eq!(&codec.decompress(&c).unwrap(), &bytes, "codec {}", kind.name());
        }
    }

    // Damaged streams — flipped bytes anywhere (the length, block
    // kinds, code-length nibbles, coded symbols, stored bytes), then a
    // cut — are refused or decode to exactly the length their frame
    // declares; they never panic and never outgrow that length.
    #[test]
    fn deflate_survives_mutation_and_truncation(
        seed in any::<u8>(),
        n in 0usize..3000,
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        keep in any::<usize>(),
        cut in any::<bool>(),
    ) {
        // Small alphabet, short period: Huffman blocks with matches.
        let data: Vec<u8> = (0..n).map(|i| ((i * i / (1 + seed as usize % 23)) % 11) as u8).collect();
        let mut c = Deflate.compress(&data);
        for &(pos, mask) in &flips {
            let pos = pos % c.len();
            c[pos] ^= mask;
        }
        if cut {
            c.truncate(keep % (c.len() + 1));
        }
        if let Ok(out) = Deflate.decompress(&c) {
            prop_assert_eq!(out.len() as u64, declared(&c));
        }
    }

    // Arbitrary bytes behind a frame and a block kind (so the
    // code-length tables and the coded symbols are what gets fuzzed,
    // not just the kind byte), and behind a v6 stream header and a
    // plausible v6 block header, for the v6 reader.
    #[test]
    fn deflate_survives_junk(
        total in 0u64..5000,
        kind in 0u8..3,
        block_len in 0u32..6000,
        junk in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut c = Vec::new();
        leb(&mut c, total);
        c.push(kind);
        c.extend_from_slice(&junk);
        if let Ok(out) = Deflate.decompress(&c) {
            prop_assert_eq!(out.len() as u64, total);
        }
        let mut c = 0x3146_444Du32.to_le_bytes().to_vec();
        c.extend_from_slice(&total.to_le_bytes());
        c.extend_from_slice(&1u32.to_le_bytes());
        c.push(kind);
        c.extend_from_slice(&block_len.to_le_bytes());
        c.extend_from_slice(&junk);
        if let Ok(out) = mloc_compress::v6::deflate(&c) {
            prop_assert_eq!(out.len() as u64, total);
        }
    }

    /// Every codec kind, through its byte codec and its float codec,
    /// compresses non-empty input to non-empty output. A bin file
    /// locates each unit part by its row in the file's data table, and
    /// only a part of at least one byte has a row (the bin-file builder
    /// refuses an empty one), so a build must never meet one.
    #[test]
    fn every_codec_emits_bytes_for_nonempty_input(
        bytes in proptest::collection::vec(any::<u8>(), 1..600),
        floats in proptest::collection::vec(any::<f64>(), 1..300),
        finite in proptest::collection::vec(-1e6f64..1e6, 1..300),
    ) {
        for kind in [
            CodecKind::Raw,
            CodecKind::Deflate,
            CodecKind::Isobar,
            CodecKind::Isabela { error_bound: 1e-3 },
            CodecKind::Fpc,
        ] {
            // The lossy codec bounds a relative error, so it is handed
            // finite values; the float-backed byte codecs whole doubles.
            let values = if kind.is_lossy() { &finite } else { &floats };
            let float = kind.float_codec().compress_f64(values);
            prop_assert!(!float.is_empty(), "{} float codec", kind.name());
            let input = match kind {
                CodecKind::Isabela { .. } | CodecKind::Fpc => mloc_compress::f64s_to_bytes(values),
                _ => bytes.clone(),
            };
            let byte = kind.byte_codec().compress(&input);
            prop_assert!(!byte.is_empty(), "{} byte codec", kind.name());
        }
    }
}

/// `v` as LEB128.
fn leb(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The raw length a stream's frame declares (LEB128; 0 if unreadable).
fn declared(stream: &[u8]) -> u64 {
    let mut v = 0u64;
    for (i, &b) in stream.iter().take(10).enumerate() {
        v |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            return v;
        }
    }
    0
}
