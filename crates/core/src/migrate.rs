//! Wire format for in-flight block migration.
//!
//! When the dynamic rebalancer moves a block between ranks, the *entire*
//! persistent state of that block must arrive bit-identically: both halves
//! of each double-buffered field (φ src/dst, µ src/dst — the dst buffers
//! are the staggered half-step targets of the explicit Euler update),
//! including every ghost layer, plus the block's window-shifted origin and
//! the cost-model knowledge accumulated by the previous owner. The field
//! payloads go through the bit-exact [`codec`](eutectica_blockgrid::codec)
//! (CRC-protected, budget-validated); this module frames them with a block
//! header.
//!
//! The frame serves live migration only. A state that is restored rather
//! than moved — a checkpoint set on disk, or a buddy replica in RAM — is
//! `pfio::ckpt`'s `EUTECKP2` block record: the interiors of src, from which
//! the restore rebuilds ghosts and dst.
//!
//! There are no additional persistent per-block buffers to ship: the
//! kernels' staggered slab buffers are per-sweep temporaries re-prefetched
//! at the start of every sweep, and the boundary conditions are a pure
//! function of the decomposition, rebuilt on the receiver from the block
//! descriptor.
//!
//! Wire layout (little-endian):
//!
//! ```text
//! magic "EUTMIG01" (8) | block id u64 | origin u64 × 3 |
//! has_measured u8 | measured f64 (raw bits) | prior f64 (raw bits) |
//! 4 × ( field length u64 | codec-encoded SoA field )
//!     order: phi_src, phi_dst, mu_src, mu_dst
//! ```

use eutectica_blockgrid::codec::{self, CodecError};
use eutectica_blockgrid::field::SoaField;
use eutectica_blockgrid::rebalance::CostEntry;
use eutectica_blockgrid::GridDims;

use crate::state::BlockState;
use crate::{N_COMP, N_PHASES};

/// Magic bytes of a migrated block.
const MIG_MAGIC: [u8; 8] = *b"EUTMIG01";

/// Header bytes before the first field payload.
const HEADER_LEN: usize = 8 + 8 + 3 * 8 + 1 + 8 + 8;

/// Typed decode failure for a migration payload.
#[derive(Debug)]
pub enum MigrateError {
    /// The bytes do not start with the migration magic `EUTMIG01`.
    BadMagic,
    /// The input ended before the structure was complete.
    Truncated,
    /// A field payload failed to decode (corruption, bad dims, CRC).
    Field(CodecError),
    /// A decoded field's dimensions differ from the receiver's descriptor —
    /// the sender and receiver disagree about the decomposition.
    DimsMismatch {
        /// Dimensions the receiving rank's block descriptor implies.
        expected: GridDims,
        /// Dimensions found in the payload.
        found: GridDims,
    },
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::BadMagic => write!(f, "bad migration magic"),
            MigrateError::Truncated => write!(f, "truncated migration payload"),
            MigrateError::Field(e) => write!(f, "field decode failed: {e}"),
            MigrateError::DimsMismatch { expected, found } => write!(
                f,
                "dims mismatch: descriptor implies {expected:?}, payload has {found:?}"
            ),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<CodecError> for MigrateError {
    fn from(e: CodecError) -> Self {
        MigrateError::Field(e)
    }
}

/// Serialize a block for migration: header + all four field buffers
/// (ghosts included) through the bit-exact codec, encoded straight into
/// the one frame-sized buffer.
pub fn encode_block(state: &BlockState, id: u64, entry: &CostEntry) -> Vec<u8> {
    let body = 4 * 8
        + codec::encoded_len::<N_PHASES>(state.phi_src.dims())
        + codec::encoded_len::<N_PHASES>(state.phi_dst.dims())
        + codec::encoded_len::<N_COMP>(state.mu_src.dims())
        + codec::encoded_len::<N_COMP>(state.mu_dst.dims());
    let mut out = Vec::with_capacity(HEADER_LEN + body);
    out.extend_from_slice(&MIG_MAGIC);
    out.extend_from_slice(&id.to_le_bytes());
    for o in state.origin {
        out.extend_from_slice(&(o as u64).to_le_bytes());
    }
    out.push(entry.measured.is_some() as u8);
    out.extend_from_slice(&entry.measured.unwrap_or(0.0).to_le_bytes());
    out.extend_from_slice(&entry.prior.to_le_bytes());
    put_field(&mut out, &state.phi_src);
    put_field(&mut out, &state.phi_dst);
    put_field(&mut out, &state.mu_src);
    put_field(&mut out, &state.mu_dst);
    out
}

/// Append one field record: its encoded length, then its encoding.
fn put_field<const NC: usize>(out: &mut Vec<u8>, f: &SoaField<NC>) {
    out.extend_from_slice(&(codec::encoded_len::<NC>(f.dims()) as u64).to_le_bytes());
    codec::encode_soa_into(f, out);
}

/// Decode one field record and require the receiver's dimensions.
fn field<const NC: usize>(
    bytes: &[u8],
    expected: GridDims,
    budget: u64,
) -> Result<SoaField<NC>, MigrateError> {
    let f = codec::decode_soa::<NC>(bytes, budget)?;
    if f.dims() != expected {
        return Err(MigrateError::DimsMismatch {
            expected,
            found: f.dims(),
        });
    }
    Ok(f)
}

/// Deserialize a migrated block. `expected` is the receiver's idea of the
/// block's dimensions (from the decomposition descriptor); every field must
/// match it exactly. Boundary conditions are *not* part of the payload —
/// the caller rebuilds them from the descriptor's neighbor table.
///
/// Returns `(block id, state, cost entry)`.
pub fn decode_block(
    bytes: &[u8],
    expected: GridDims,
    budget: u64,
) -> Result<(u64, BlockState, CostEntry), MigrateError> {
    if bytes.len() < HEADER_LEN {
        return Err(MigrateError::Truncated);
    }
    if bytes[..8] != MIG_MAGIC {
        return Err(MigrateError::BadMagic);
    }
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    let f64_at = |o: usize| f64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    let origin = [
        u64_at(16) as usize,
        u64_at(24) as usize,
        u64_at(32) as usize,
    ];
    let entry = CostEntry {
        measured: (bytes[40] != 0).then_some(f64_at(41)),
        prior: f64_at(49),
    };
    // The four field records, in wire order: phi_src, phi_dst, mu_src, mu_dst.
    let mut fields = [&bytes[..0]; 4];
    let mut off = HEADER_LEN;
    for f in &mut fields {
        if bytes.len() < off + 8 {
            return Err(MigrateError::Truncated);
        }
        let len = u64_at(off) as usize;
        let start = off + 8;
        let end = start.checked_add(len).ok_or(MigrateError::Truncated)?;
        if bytes.len() < end {
            return Err(MigrateError::Truncated);
        }
        *f = &bytes[start..end];
        off = end;
    }
    let [ps, pd, ms, md] = fields;
    let phi = [field(ps, expected, budget)?, field(pd, expected, budget)?];
    let mu = [field(ms, expected, budget)?, field(md, expected, budget)?];
    Ok((u64_at(8), BlockState::from_fields(origin, phi, mu), entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eutectica_blockgrid::codec::DEFAULT_FIELD_BYTE_BUDGET;

    fn scrambled_block(dims: GridDims, seed: u64) -> BlockState {
        let mut st = BlockState::new(dims, [3, 5, 7]);
        let mut s = seed | 1;
        let mut next = || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            f64::from_bits(s.wrapping_mul(0x2545_f491_4f6c_dd1d))
        };
        for v in st.phi_src.raw_mut() {
            *v = next();
        }
        for v in st.phi_dst.raw_mut() {
            *v = next();
        }
        for v in st.mu_src.raw_mut() {
            *v = next();
        }
        for v in st.mu_dst.raw_mut() {
            *v = next();
        }
        st
    }

    #[test]
    fn block_roundtrip_is_bit_identical() {
        let dims = GridDims::new(4, 3, 5, 1);
        let st = scrambled_block(dims, 0xfeed);
        let entry = CostEntry {
            measured: Some(0.0125),
            prior: 2.5,
        };
        let bytes = encode_block(&st, 17, &entry);
        let (id, back, e) = decode_block(&bytes, dims, DEFAULT_FIELD_BYTE_BUDGET).unwrap();
        assert_eq!(id, 17);
        assert_eq!(e, entry);
        assert_eq!(back.origin, st.origin);
        for (a, b) in [
            (st.phi_src.raw(), back.phi_src.raw()),
            (st.phi_dst.raw(), back.phi_dst.raw()),
            (st.mu_src.raw(), back.mu_src.raw()),
            (st.mu_dst.raw(), back.mu_dst.raw()),
        ] {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn corruption_dims_mismatch_and_truncation_rejected() {
        let dims = GridDims::new(3, 3, 3, 1);
        let st = scrambled_block(dims, 1);
        let entry = CostEntry {
            measured: None,
            prior: 1.0,
        };
        let mut bytes = encode_block(&st, 0, &entry);
        assert!(decode_block(&bytes[..bytes.len() - 1], dims, u64::MAX).is_err());
        assert!(matches!(
            decode_block(&bytes, GridDims::new(4, 3, 3, 1), u64::MAX),
            Err(MigrateError::DimsMismatch { .. })
        ));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(decode_block(&bytes, dims, u64::MAX).is_err());
    }
}
