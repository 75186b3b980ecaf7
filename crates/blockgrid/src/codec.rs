//! Bit-exact wire codec for ghost-layered fields.
//!
//! In-flight block migration (dynamic load rebalancing) ships *complete*
//! field buffers — interiors **and** ghost layers — between ranks, and the
//! receiving rank must reconstruct the exact bit pattern the sender held:
//! the headline guarantee of the rebalancing subsystem is that a migrated
//! run is bit-identical to an unmigrated one. This codec therefore encodes
//! every `f64` by its raw bit pattern (NaN payloads and signed zeros
//! round-trip), prefixes a self-describing header, and appends a CRC32 so
//! a corrupted transfer is rejected instead of silently resumed.
//!
//! The solver's [`SoaField`] is the one layout on the wire, and header
//! dimensions are validated against a byte budget *before* any allocation —
//! the same anti-OOM gate the checkpoint reader applies (`eutectica-pfio`,
//! which reuses this module's [`crc32`]).
//!
//! Wire layout (little-endian):
//!
//! ```text
//! magic "EUTFLD01" (8) | layout u8 (0 = SoA) | components u8 |
//! nx u64 | ny u64 | nz u64 | ghost u64 |
//! payload: components × volume × f64 (raw bits) | crc32 u32
//! ```

use crate::field::SoaField;
use crate::GridDims;

/// Magic bytes of an encoded field.
const FIELD_MAGIC: [u8; 8] = *b"EUTFLD01";

/// Default cap on the allocation implied by a decoded field header (4 GiB);
/// the decoders reject larger headers *before* allocating.
pub const DEFAULT_FIELD_BYTE_BUDGET: u64 = 4 << 30;

/// Header bytes before the payload.
const HEADER_LEN: usize = 8 + 1 + 1 + 4 * 8;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib polynomial) — dependency-free, shared with
// the checkpoint formats in `eutectica-pfio`.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table and
/// `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC32 (IEEE) of `data`, eight bytes per step (slicing-by-8).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Layout byte of the header: structure of arrays (component-major,
/// `volume` doubles per component) — the only layout written or accepted.
const LAYOUT_SOA: u8 = 0;

/// Typed decode failure.
#[derive(Debug)]
pub enum CodecError {
    /// The bytes do not start with the field magic `EUTFLD01`.
    BadMagic,
    /// The input ended before the structure was complete.
    Truncated {
        /// What was being parsed.
        what: &'static str,
    },
    /// The header names a layout other than SoA.
    WrongLayout {
        /// Layout byte found in the header.
        found: u8,
    },
    /// The encoded component count differs from the requested `NC`.
    WrongComponents {
        /// Component count expected by the decoder.
        expected: usize,
        /// Component count found in the header.
        found: usize,
    },
    /// Header dimensions are zero, overflowing, or over the byte budget —
    /// refusing to allocate.
    InsaneDims {
        /// Human-readable description of the offending values.
        detail: String,
    },
    /// The CRC32 check failed — the bytes were corrupted in flight.
    CrcMismatch {
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC of the actual bytes.
        found: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad field magic"),
            CodecError::Truncated { what } => write!(f, "truncated while reading {what}"),
            CodecError::WrongLayout { found } => write!(f, "unexpected layout byte {found}"),
            CodecError::WrongComponents { expected, found } => {
                write!(f, "expected {expected} components, found {found}")
            }
            CodecError::InsaneDims { detail } => write!(f, "insane dimensions: {detail}"),
            CodecError::CrcMismatch { expected, found } => {
                write!(
                    f,
                    "crc mismatch: recorded {expected:#010x}, actual {found:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Validate header-supplied field dimensions against `budget` (bytes of
/// payload they imply) *before* any allocation. All arithmetic is checked.
pub fn validate_field_dims(
    nx: u64,
    ny: u64,
    nz: u64,
    ghost: u64,
    components: u64,
    budget: u64,
) -> Result<GridDims, CodecError> {
    let insane = |detail: String| Err(CodecError::InsaneDims { detail });
    if nx == 0 || ny == 0 || nz == 0 || components == 0 {
        return insane(format!("empty field {nx}×{ny}×{nz}×{components}"));
    }
    let total = |n: u64| ghost.checked_mul(2).and_then(|g2| n.checked_add(g2));
    let (Some(tx), Some(ty), Some(tz)) = (total(nx), total(ny), total(nz)) else {
        return insane(format!("ghost width {ghost} overflows extents"));
    };
    let bytes = tx
        .checked_mul(ty)
        .and_then(|v| v.checked_mul(tz))
        .and_then(|v| v.checked_mul(components))
        .and_then(|v| v.checked_mul(8));
    match bytes {
        Some(b) if b <= budget => {}
        _ => {
            return insane(format!(
                "{nx}×{ny}×{nz}×{components} (ghost {ghost}) implies > {budget} bytes"
            ))
        }
    }
    let fits = |v: u64| usize::try_from(v).is_ok();
    if !(fits(nx) && fits(ny) && fits(nz) && fits(ghost) && fits(tx * ty * tz)) {
        return insane("extents exceed usize".to_string());
    }
    Ok(GridDims::new(
        nx as usize,
        ny as usize,
        nz as usize,
        ghost as usize,
    ))
}

/// Bytes [`encode_soa`] produces for a field of `NC` components over `dims`.
pub fn encoded_len<const NC: usize>(dims: GridDims) -> usize {
    HEADER_LEN + NC * dims.volume() * 8 + 4
}

/// Encode a SoA field — full buffer including ghost layers, bit-exact.
pub fn encode_soa<const NC: usize>(f: &SoaField<NC>) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len::<NC>(f.dims()));
    encode_soa_into(f, &mut out);
    out
}

/// Append [`encode_soa`]'s bytes to `out`, so a frame of several fields is
/// written in place instead of copied from per-field buffers.
pub fn encode_soa_into<const NC: usize>(f: &SoaField<NC>, out: &mut Vec<u8>) {
    let (dims, raw) = (f.dims(), f.raw());
    let start = out.len();
    out.reserve(encoded_len::<NC>(dims));
    out.extend_from_slice(&FIELD_MAGIC);
    out.push(LAYOUT_SOA);
    out.push(NC as u8);
    for v in [dims.nx, dims.ny, dims.nz, dims.ghost] {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
    for &v in raw {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Decode a SoA field, validating dimensions against `budget` before
/// allocating and verifying the CRC trailer.
pub fn decode_soa<const NC: usize>(bytes: &[u8], budget: u64) -> Result<SoaField<NC>, CodecError> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(CodecError::Truncated { what: "header" });
    }
    if bytes[..8] != FIELD_MAGIC {
        return Err(CodecError::BadMagic);
    }
    if bytes[8] != LAYOUT_SOA {
        return Err(CodecError::WrongLayout { found: bytes[8] });
    }
    if bytes[9] as usize != NC {
        return Err(CodecError::WrongComponents {
            expected: NC,
            found: bytes[9] as usize,
        });
    }
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    let dims = validate_field_dims(
        u64_at(10),
        u64_at(18),
        u64_at(26),
        u64_at(34),
        NC as u64,
        budget,
    )?;
    let n = NC * dims.volume();
    let expected_len = HEADER_LEN + n * 8 + 4;
    if bytes.len() != expected_len {
        return Err(CodecError::Truncated { what: "payload" });
    }
    let body = &bytes[..expected_len - 4];
    let recorded = u32::from_le_bytes(bytes[expected_len - 4..].try_into().unwrap());
    let actual = crc32(body);
    if recorded != actual {
        return Err(CodecError::CrcMismatch {
            expected: recorded,
            found: actual,
        });
    }
    let data = bytes[HEADER_LEN..expected_len - 4]
        .chunks_exact(8)
        .map(|chunk| f64::from_le_bytes(chunk.try_into().unwrap()))
        .collect();
    Ok(SoaField::from_raw(dims, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn soa_roundtrip_preserves_bits_including_ghosts() {
        let d = GridDims::new(3, 4, 2, 1);
        let mut f = SoaField::<2>::new(d, [0.0; 2]);
        for (i, v) in f.raw_mut().iter_mut().enumerate() {
            *v = (i as f64).sin() * 1e-300 + i as f64;
        }
        // Specials must survive: NaN payload, -0.0, infinities.
        f.raw_mut()[0] = f64::from_bits(0x7ff8_dead_beef_0001);
        f.raw_mut()[1] = -0.0;
        f.raw_mut()[2] = f64::INFINITY;
        let bytes = encode_soa(&f);
        let back = decode_soa::<2>(&bytes, DEFAULT_FIELD_BYTE_BUDGET).unwrap();
        assert_eq!(back.dims(), d);
        for (a, b) in f.raw().iter().zip(back.raw()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn foreign_layout_and_component_count_are_rejected() {
        let f = SoaField::<4>::new(GridDims::new(2, 2, 2, 1), [0.1, 0.2, 0.3, 0.4]);
        let bytes = encode_soa(&f);
        assert!(matches!(
            decode_soa::<2>(&bytes, DEFAULT_FIELD_BYTE_BUDGET),
            Err(CodecError::WrongComponents { .. })
        ));
        // A header naming any other layout (1 was AoS) is refused, not
        // reinterpreted.
        let mut aos = bytes;
        aos[8] = 1;
        assert!(matches!(
            decode_soa::<4>(&aos, DEFAULT_FIELD_BYTE_BUDGET),
            Err(CodecError::WrongLayout { found: 1 })
        ));
    }

    #[test]
    fn corruption_truncation_and_budget_are_rejected() {
        let d = GridDims::cube(3);
        let f = SoaField::<1>::new(d, [7.0]);
        let mut bytes = encode_soa(&f);
        assert!(decode_soa::<1>(&bytes[..bytes.len() - 5], u64::MAX).is_err());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            decode_soa::<1>(&bytes, u64::MAX),
            Err(CodecError::CrcMismatch { .. })
        ));
        // A tiny budget rejects the header before allocation.
        let bytes = encode_soa(&f);
        assert!(matches!(
            decode_soa::<1>(&bytes, 16),
            Err(CodecError::InsaneDims { .. })
        ));
        assert!(validate_field_dims(u64::MAX, 1, 1, 1, 4, u64::MAX).is_err());
        assert!(validate_field_dims(0, 1, 1, 1, 1, u64::MAX).is_err());
    }
}
