//! Property tests for the migration field codec: serialize → ship → decode
//! must be *bit*-identical for arbitrary
//! dimensions within the byte budget, including ghost layers and arbitrary
//! f64 bit patterns (NaN payloads, signed zeros, subnormals).

use eutectica_blockgrid::codec::{
    crc32, decode_soa, encode_soa, validate_field_dims, CodecError, DEFAULT_FIELD_BYTE_BUDGET,
};
use eutectica_blockgrid::field::SoaField;
use eutectica_blockgrid::GridDims;
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = GridDims> {
    (1usize..8, 1usize..8, 1usize..8, 1usize..4)
        .prop_map(|(nx, ny, nz, g)| GridDims::new(nx, ny, nz, g))
}

/// Arbitrary f64 *bit patterns* — the codec must preserve every one of the
/// 2^64 possible values, not just the numerically well-behaved ones.
fn fill_bits<const NC: usize>(raw: &mut [f64], seed: u64) {
    let mut s = seed | 1;
    for v in raw.iter_mut() {
        // xorshift64* — deterministic, covers specials by construction below.
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        *v = f64::from_bits(s.wrapping_mul(0x2545_f491_4f6c_dd1d));
    }
    if raw.len() >= 4 {
        raw[0] = f64::from_bits(0x7ff8_0000_0000_0001); // NaN with payload
        raw[1] = -0.0;
        raw[2] = f64::NEG_INFINITY;
        raw[3] = f64::from_bits(1); // smallest subnormal
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SoA serialize → migrate → deserialize is bit-identical, ghosts
    /// included, for arbitrary in-budget dims.
    #[test]
    fn soa_roundtrip_bit_identical(dims in arb_dims(), seed in any::<u64>()) {
        let mut f = SoaField::<4>::new(dims, [0.0; 4]);
        fill_bits::<4>(f.raw_mut(), seed);
        let bytes = encode_soa(&f);
        let back = decode_soa::<4>(&bytes, DEFAULT_FIELD_BYTE_BUDGET).unwrap();
        prop_assert_eq!(back.dims(), dims);
        for (a, b) in f.raw().iter().zip(back.raw()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The codec commutes with the layout conversion: a field that went
    /// through the wire converts to the same AoS bits as one that did not —
    /// the wire format hides no layout-dependent transformation.
    #[test]
    fn layouts_commute_with_codec(dims in arb_dims(), seed in any::<u64>()) {
        let mut f = SoaField::<3>::new(dims, [0.0; 3]);
        fill_bits::<3>(f.raw_mut(), seed);
        let via_wire = decode_soa::<3>(&encode_soa(&f), DEFAULT_FIELD_BYTE_BUDGET)
            .unwrap()
            .to_aos();
        for (a, b) in via_wire.raw().iter().zip(f.to_aos().raw()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Any single-bit flip anywhere in the encoded stream is detected —
    /// the decode fails rather than resuming physics on corrupted bits.
    #[test]
    fn single_bit_flip_never_decodes(dims in arb_dims(), seed in any::<u64>(), flip in any::<u64>()) {
        let mut f = SoaField::<2>::new(dims, [0.0; 2]);
        fill_bits::<2>(f.raw_mut(), seed);
        let mut bytes = encode_soa(&f);
        let pos = flip as usize % (bytes.len() * 8);
        bytes[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(decode_soa::<2>(&bytes, DEFAULT_FIELD_BYTE_BUDGET).is_err());
    }

    /// Truncation at any point is detected.
    #[test]
    fn truncation_never_decodes(dims in arb_dims(), seed in any::<u64>(), cut in any::<u64>()) {
        let mut f = SoaField::<1>::new(dims, [0.0]);
        fill_bits::<1>(f.raw_mut(), seed);
        let bytes = encode_soa(&f);
        let keep = cut as usize % bytes.len(); // strictly shorter than full
        prop_assert!(decode_soa::<1>(&bytes[..keep], DEFAULT_FIELD_BYTE_BUDGET).is_err());
    }

    /// Dimension validation accepts exactly the in-budget headers and
    /// rejects over-budget ones before allocation.
    #[test]
    fn budget_gate_is_exact(nx in 1u64..64, ny in 1u64..64, nz in 1u64..64, g in 0u64..4, nc in 1u64..8) {
        let vol = (nx + 2 * g) * (ny + 2 * g) * (nz + 2 * g);
        let bytes = vol * nc * 8;
        prop_assert!(validate_field_dims(nx, ny, nz, g, nc, bytes).is_ok());
        prop_assert!(matches!(
            validate_field_dims(nx, ny, nz, g, nc, bytes - 1),
            Err(CodecError::InsaneDims { .. })
        ));
    }
}

/// The textbook CRC32: one bit at a time, no table.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xffff_ffff
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The eight-bytes-per-step CRC equals the bitwise loop for every
    /// length (so every head/tail remainder) and every start alignment.
    #[test]
    fn sliced_crc_equals_the_bitwise_loop(len in 0usize..4097, align in 0usize..16, seed in any::<u64>()) {
        let mut buf = vec![0u8; len + align];
        let mut s = seed | 1;
        for chunk in buf.chunks_mut(8) {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let word = s.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        let data = &buf[align..];
        prop_assert_eq!(crc32(data), crc32_bitwise(data));
    }
}

#[test]
fn crc_matches_reference_vectors() {
    // Same IEEE polynomial/vectors the checkpoint format asserts — the two
    // subsystems must stay interoperable.
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414f_a339
    );
}
