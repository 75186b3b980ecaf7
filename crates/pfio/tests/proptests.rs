//! Property-based tests of the checkpoint formats (block files at both
//! precisions and the checkpoint-set manifest).

use eutectica_blockgrid::codec::crc32;
use eutectica_blockgrid::decomp::DomainSpec;
use eutectica_blockgrid::GridDims;
use eutectica_core::simplex::project_to_simplex;
use eutectica_core::state::BlockState;
use eutectica_pfio::ckpt::{
    block_file_size, decode_block, decode_manifest, encode_block, encode_manifest, BlockEntry,
    Manifest, Precision, DEFAULT_BYTE_BUDGET,
};
use proptest::prelude::*;

fn make_state(nx: usize, ny: usize, nz: usize, origin: [usize; 3], seed: u64) -> BlockState {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dims = GridDims::new(nx, ny, nz, 1);
    let mut s = BlockState::new(dims, origin);
    for (x, y, z) in dims.interior_iter() {
        let raw: [f64; 4] = core::array::from_fn(|_| rng.random_range(0.0..1.0));
        s.phi_src.set_cell(x, y, z, project_to_simplex(raw));
        s.mu_src.set_cell(
            x,
            y,
            z,
            [rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0)],
        );
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Round-trip through the single-precision checkpoint reproduces every
    /// interior value to f32 accuracy, and the file size matches the
    /// documented layout exactly.
    #[test]
    fn checkpoint_roundtrip(
        nx in 1usize..8,
        ny in 1usize..8,
        nz in 1usize..8,
        ox in 0usize..100,
        oz in 0usize..1000,
        seed in any::<u64>(),
        time in 0.0..1e6f64,
    ) {
        let s = make_state(nx, ny, nz, [ox, 0, oz], seed);
        let buf = encode_block(&s, seed, time, Precision::F32);
        prop_assert_eq!(buf.len(), block_file_size(s.dims, Precision::F32));
        let back = decode_block(&buf, DEFAULT_BYTE_BUDGET).unwrap();
        prop_assert_eq!((back.id, back.time), (seed, time));
        let s2 = back.state;
        prop_assert_eq!(s2.dims, s.dims);
        prop_assert_eq!(s2.origin, s.origin);
        for (x, y, z) in s.dims.interior_iter() {
            for c in 0..4 {
                let a = s.phi_src.at(c, x, y, z);
                let b = s2.phi_src.at(c, x, y, z);
                prop_assert!((a - b).abs() <= a.abs() * 1e-7 + 1e-7);
            }
            for c in 0..2 {
                let a = s.mu_src.at(c, x, y, z);
                let b = s2.mu_src.at(c, x, y, z);
                prop_assert!((a - b).abs() <= a.abs() * 1e-7 + 1e-7);
            }
        }
    }

    /// Truncated checkpoints are rejected, never mis-read.
    #[test]
    fn truncation_is_detected(cut in 0usize..200, seed in any::<u64>()) {
        let s = make_state(4, 4, 4, [0, 0, 0], seed);
        let buf = encode_block(&s, 0, 1.0, Precision::F32);
        let cut = cut.min(buf.len().saturating_sub(1));
        prop_assert!(decode_block(&buf[..cut], DEFAULT_BYTE_BUDGET).is_err());
    }

    /// Checkpoint-set block files round-trip bit-exactly in f64 (the
    /// precision the resilient restart relies on), including id, time and
    /// origin metadata.
    #[test]
    fn block_file_roundtrip_f64(
        nx in 1usize..6,
        ny in 1usize..6,
        nz in 1usize..6,
        oz in 0usize..10_000,
        id in any::<u64>(),
        seed in any::<u64>(),
        time in 0.0..1e6f64,
    ) {
        let s = make_state(nx, ny, nz, [0, 0, oz], seed);
        let bytes = encode_block(&s, id, time, Precision::F64);
        let d = decode_block(&bytes, DEFAULT_BYTE_BUDGET).unwrap();
        prop_assert_eq!(d.id, id);
        prop_assert_eq!(d.time, time);
        prop_assert_eq!(d.state.origin, s.origin);
        for (x, y, z) in s.dims.interior_iter() {
            for c in 0..4 {
                prop_assert_eq!(
                    d.state.phi_src.at(c, x, y, z).to_bits(),
                    s.phi_src.at(c, x, y, z).to_bits()
                );
            }
            for c in 0..2 {
                prop_assert_eq!(
                    d.state.mu_src.at(c, x, y, z).to_bits(),
                    s.mu_src.at(c, x, y, z).to_bits()
                );
            }
        }
    }

    /// Any single bit flip anywhere in a block file is detected: the file
    /// CRC changes (so the manifest check fires) and the decoder refuses
    /// the bytes.
    #[test]
    fn block_single_bit_flip_always_detected(
        seed in any::<u64>(),
        bit_sel in any::<u64>(),
    ) {
        let s = make_state(3, 3, 3, [0, 0, 0], seed);
        let bytes = encode_block(&s, 1, 2.0, Precision::F32);
        let clean_crc = crc32(&bytes);
        let bit = (bit_sel % (bytes.len() as u64 * 8)) as usize;
        let mut bad = bytes.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        // CRC32 detects every single-bit error.
        prop_assert_ne!(crc32(&bad), clean_crc);
        prop_assert!(decode_block(&bad, DEFAULT_BYTE_BUDGET).is_err());
    }

    /// Manifests round-trip exactly (step, time, window shifts, precision,
    /// domain spec, per-block entries).
    #[test]
    fn manifest_roundtrip(
        step in any::<u64>(),
        time in -1e9..1e9f64,
        window_shifts in any::<u64>(),
        f64_precision in any::<bool>(),
        cells in prop::array::uniform3(1usize..64),
        px in any::<bool>(),
        py in any::<bool>(),
        n_blocks in 0usize..32,
        entry_seed in any::<u64>(),
    ) {
        let m = Manifest {
            step,
            time,
            window_shifts,
            precision: if f64_precision { Precision::F64 } else { Precision::F32 },
            spec: DomainSpec {
                cells,
                blocks: [1, 1, 1],
                periodic: [px, py, false],
            },
            blocks: (0..n_blocks as u64)
                .map(|id| BlockEntry {
                    id,
                    file_bytes: entry_seed.wrapping_mul(id + 1) >> 8,
                    crc32: (entry_seed.wrapping_add(id * 31) & 0xffff_ffff) as u32,
                })
                .collect(),
        };
        let bytes = encode_manifest(&m);
        prop_assert_eq!(decode_manifest(&bytes).unwrap(), m);
    }

    /// Any single bit flip in a manifest is always detected — the restart
    /// driver can never resume from a torn or tampered manifest.
    #[test]
    fn manifest_single_bit_flip_always_detected(
        step in any::<u64>(),
        n_blocks in 1usize..8,
        bit_sel in any::<u64>(),
    ) {
        let m = Manifest {
            step,
            time: 1.5,
            window_shifts: 3,
            precision: Precision::F64,
            spec: DomainSpec::directional([16, 16, 32], [2, 2, 1]),
            blocks: (0..n_blocks as u64)
                .map(|id| BlockEntry { id, file_bytes: 100 + id, crc32: id as u32 })
                .collect(),
        };
        let bytes = encode_manifest(&m);
        let bit = (bit_sel % (bytes.len() as u64 * 8)) as usize;
        let mut bad = bytes;
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode_manifest(&bad).is_err());
    }

    /// Corrupt headers never cause huge allocations: whatever 16 bytes land
    /// in the dims fields, decoding with a small budget either errors or
    /// yields a state within budget — and never OOMs/panics.
    #[test]
    fn corrupt_dims_never_alloc_beyond_budget(dims_words in prop::array::uniform4(any::<u64>())) {
        let s = make_state(2, 2, 2, [0, 0, 0], 1);
        let mut bytes = encode_block(&s, 0, 0.0, Precision::F32);
        // Overwrite the four u64 dims fields (offset: magic 8 + version 4 +
        // precision 1 + id 8 = 21) and re-seal the CRC so only the
        // dimension validation can reject.
        for (i, w) in dims_words.iter().enumerate() {
            bytes[21 + i * 8..29 + i * 8].copy_from_slice(&w.to_le_bytes());
        }
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        let budget = 1u64 << 20; // 1 MiB
        if let Ok(d) = decode_block(&bytes, budget) {
            prop_assert!(d.state.dims.volume() as u64 * 96 <= budget);
        }
    }
}
