//! Multi-block *checkpoint sets*: the fault-tolerant on-disk format.
//!
//! A checkpoint set is one directory per checkpointed step containing
//!
//! * one block file per block (`block_<id>.eckp`, format `EUTECKP2`) with
//!   the block's φ and µ interiors at a chosen [`Precision`], and
//! * a manifest (`manifest.eckm`, format `EUTECMF1`) written *last* by rank
//!   0, recording step index, simulation time, moving-window shift count,
//!   the domain decomposition, and a CRC32 per block file plus one over the
//!   manifest itself.
//!
//! Every file is written atomically (tmp file + fsync + rename), so a crash
//! mid-write never leaves a half-written file under its final name, and a
//! set is *valid* exactly when its manifest exists and verifies — blocks
//! without a manifest are an aborted checkpoint and are ignored by
//! [`find_latest_checkpoint`].
//!
//! The readers are hardened against corrupt input: every section is
//! CRC-checked, dimension fields are validated against a byte budget
//! *before* any allocation (a flipped bit in `nx` cannot trigger a multi-GB
//! allocation), and all failures surface as typed [`CkptError`]s.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use eutectica_blockgrid::codec::{crc32, validate_field_dims};
use eutectica_blockgrid::decomp::DomainSpec;
use eutectica_blockgrid::field::SoaField;
use eutectica_blockgrid::GridDims;
use eutectica_core::state::{BlockState, PHI_LIQUID};
use eutectica_core::{N_COMP, N_PHASES};

/// Magic bytes of a v2 (checkpoint-set) block file.
const BLOCK_MAGIC: &[u8; 8] = b"EUTECKP2";
/// Magic bytes of the retired CRC-less single-block format; recognised only
/// so that a leftover file is named for what it is.
const LEGACY_BLOCK_MAGIC: &[u8; 8] = b"EUTECKP1";
/// Magic bytes of a checkpoint-set manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"EUTECMF1";
/// Format version written into block files and manifests.
const FORMAT_VERSION: u32 = 1;
/// Manifest file name inside a checkpoint-set directory.
const MANIFEST_FILE: &str = "manifest.eckm";
/// Default cap on the in-memory size implied by a block file's header
/// (4 GiB); [`decode_block`] rejects headers over budget *before*
/// allocating.
pub const DEFAULT_BYTE_BUDGET: u64 = 4 << 30;

/// f64 components per cell of a decoded [`BlockState`]: φ and µ, each in
/// src and dst — what the anti-OOM gate weighs a header's dims by.
const BLOCK_COMPONENTS: u64 = (2 * (N_PHASES + N_COMP)) as u64;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of a checkpoint-set read or write.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// What was being parsed.
        what: &'static str,
    },
    /// The file is in the retired legacy single-block format (no CRC, no
    /// version field); this reader no longer understands it.
    LegacyFormat,
    /// The format version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The input ended before the structure was complete.
    Truncated {
        /// What was being parsed.
        what: &'static str,
    },
    /// A CRC32 check failed — the bytes were corrupted.
    CrcMismatch {
        /// What was being verified.
        what: String,
        /// CRC recorded in the file/manifest.
        expected: u32,
        /// CRC of the actual bytes.
        found: u32,
    },
    /// Header dimensions imply an allocation over the byte budget (or are
    /// zero/overflowing) — refusing to allocate.
    InsaneDims {
        /// Human-readable description of the offending values.
        detail: String,
    },
    /// The manifest has no entry for the requested block.
    MissingBlock {
        /// The absent block id.
        id: u64,
    },
    /// The checkpoint does not fit the running simulation (different domain
    /// spec, dims, or block layout).
    Incompatible {
        /// What did not match.
        detail: String,
    },
    /// A collective checkpoint operation failed on *another* rank: this
    /// rank's local part succeeded, but the set as a whole is invalid.
    /// Distinguishes "my I/O failed" from "a peer's did" in the typed
    /// per-rank failure path of the resilient driver.
    PeerFailure {
        /// Which collective operation failed.
        during: &'static str,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::BadMagic { what } => write!(f, "{what}: bad magic bytes"),
            CkptError::LegacyFormat => write!(
                f,
                "block file is in the retired legacy {} format; \
                 re-write it with ckpt::encode_block",
                String::from_utf8_lossy(LEGACY_BLOCK_MAGIC)
            ),
            CkptError::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CkptError::Truncated { what } => write!(f, "{what}: truncated"),
            CkptError::CrcMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "{what}: CRC mismatch (recorded {expected:#010x}, actual {found:#010x})"
            ),
            CkptError::InsaneDims { detail } => {
                write!(f, "refusing insane checkpoint dimensions: {detail}")
            }
            CkptError::MissingBlock { id } => write!(f, "manifest has no entry for block {id}"),
            CkptError::Incompatible { detail } => {
                write!(f, "checkpoint incompatible with simulation: {detail}")
            }
            CkptError::PeerFailure { during } => {
                write!(f, "a peer rank failed during collective {during}")
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Precision
// ---------------------------------------------------------------------------

/// Floating-point width of checkpointed field payloads.
///
/// The paper stores checkpoints in single precision "to save disk space and
/// I/O bandwidth" (Sec. 3.2); bit-identical restart (required to compare
/// interrupted and uninterrupted runs) needs [`Precision::F64`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Precision {
    /// 4-byte payload values (paper default; lossy restart).
    F32,
    /// 8-byte payload values (bit-identical restart).
    F64,
}

impl Precision {
    /// Payload bytes per value.
    pub(crate) fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }

    fn code(self) -> u8 {
        self.bytes() as u8
    }

    fn from_code(c: u8) -> Result<Self, CkptError> {
        match c {
            4 => Ok(Precision::F32),
            8 => Ok(Precision::F64),
            _ => Err(CkptError::Incompatible {
                detail: format!("unknown precision code {c}"),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Little-endian cursor over a byte slice
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.buf.len() < n {
            return Err(CkptError::Truncated { what: self.what });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

// ---------------------------------------------------------------------------
// Block files (EUTECKP2)
// ---------------------------------------------------------------------------

/// A block decoded from a checkpoint-set block file.
#[derive(Debug)]
pub struct DecodedBlock {
    /// Global block id recorded in the file.
    pub id: u64,
    /// Simulation time recorded in the file.
    pub time: f64,
    /// Payload precision of the file.
    pub precision: Precision,
    /// The restored block (source fields filled, dst synced from src,
    /// default boundary conditions — the caller re-applies its own).
    pub state: BlockState,
}

impl DecodedBlock {
    /// Put this record in place of block `id`: check that it labels `id`
    /// and has the block's dims, then take its (possibly window-shifted)
    /// origin and its four fields, dst already synced, keeping the block's
    /// boundary conditions. Every restore adopts its blocks through here.
    pub(crate) fn adopt(self, id: usize, block: &mut BlockState) -> Result<(), CkptError> {
        if self.id != id as u64 {
            return Err(CkptError::Incompatible {
                detail: format!("block {id}: the record labels block {}", self.id),
            });
        }
        if self.state.dims != block.dims {
            return Err(CkptError::Incompatible {
                detail: format!(
                    "block {id}: checkpoint dims {:?} vs simulation {:?}",
                    self.state.dims, block.dims
                ),
            });
        }
        *block = BlockState {
            bc_phi: block.bc_phi,
            bc_mu: block.bc_mu,
            ..self.state
        };
        Ok(())
    }
}

/// Encoded size in bytes of a block file for the given dims and precision.
pub fn block_file_size(dims: GridDims, precision: Precision) -> usize {
    // magic + version + precision + id + dims(4) + origin(3) + time + crc
    let header = 8 + 4 + 1 + 8 + 4 * 8 + 3 * 8 + 8;
    header + dims.interior_volume() * (N_PHASES + N_COMP) * precision.bytes() + 4
}

/// Serialize one block's source fields into the `EUTECKP2` byte format
/// (header, interior payload component-major, trailing CRC32 over
/// everything before it).
pub fn encode_block(state: &BlockState, id: u64, time: f64, precision: Precision) -> Vec<u8> {
    let d = state.dims;
    let mut out = Vec::with_capacity(block_file_size(d, precision));
    out.extend_from_slice(BLOCK_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(precision.code());
    out.extend_from_slice(&id.to_le_bytes());
    for v in [d.nx as u64, d.ny as u64, d.nz as u64, d.ghost as u64] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in state.origin {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
    out.extend_from_slice(&time.to_le_bytes());
    let write_comp = |comp: &[f64], out: &mut Vec<u8>| {
        for z in d.ghost..d.ghost + d.nz {
            for y in d.ghost..d.ghost + d.ny {
                let row = d.idx(d.ghost, y, z);
                for v in &comp[row..row + d.nx] {
                    match precision {
                        Precision::F32 => out.extend_from_slice(&(*v as f32).to_le_bytes()),
                        Precision::F64 => out.extend_from_slice(&v.to_le_bytes()),
                    }
                }
            }
        }
    };
    for c in 0..N_PHASES {
        write_comp(state.phi_src.comp(c), &mut out);
    }
    for c in 0..N_COMP {
        write_comp(state.mu_src.comp(c), &mut out);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode an `EUTECKP2` block file, verifying its trailing CRC and
/// validating the header dimensions against `budget` before allocating.
pub fn decode_block(bytes: &[u8], budget: u64) -> Result<DecodedBlock, CkptError> {
    let what = "block file";
    // Before the CRC: a legacy file has none, so it would otherwise be
    // reported as corrupted rather than as what it is.
    if bytes.starts_with(LEGACY_BLOCK_MAGIC) {
        return Err(CkptError::LegacyFormat);
    }
    if bytes.len() < 8 + 4 + 4 {
        return Err(CkptError::Truncated { what });
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let recorded = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    let actual = crc32(body);
    if recorded != actual {
        return Err(CkptError::CrcMismatch {
            what: what.into(),
            expected: recorded,
            found: actual,
        });
    }
    let mut r = Reader::new(body, what);
    if r.take(8)? != BLOCK_MAGIC {
        return Err(CkptError::BadMagic { what });
    }
    let version = r.u32()?;
    if version > FORMAT_VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    let precision = Precision::from_code(r.u8()?)?;
    let id = r.u64()?;
    let (nx, ny, nz, ghost) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
    let dims = validate_field_dims(nx, ny, nz, ghost, BLOCK_COMPONENTS, budget).map_err(|e| {
        CkptError::InsaneDims {
            detail: e.to_string(),
        }
    })?;
    let origin_raw = [r.u64()?, r.u64()?, r.u64()?];
    let mut origin = [0usize; 3];
    for (o, v) in origin.iter_mut().zip(origin_raw) {
        *o = usize::try_from(v).map_err(|_| CkptError::InsaneDims {
            detail: format!("origin component {v} exceeds the address space"),
        })?;
    }
    let time = r.f64()?;
    let expect = dims.interior_volume() * (N_PHASES + N_COMP) * precision.bytes();
    if r.buf.len() != expect {
        return Err(CkptError::Truncated { what });
    }

    // Each src field is built in one pass over its storage: ghost cells
    // get the liquid fill of `BlockState::new`, interior rows come from
    // the file (which stores them in the same component-major order).
    let mut read_field = |fill: &[f64]| {
        let g = dims.ghost;
        let interior = |i: usize, n: usize| (g..g + n).contains(&i);
        let mut data = Vec::with_capacity(fill.len() * dims.volume());
        for &v in fill {
            for z in 0..dims.tz() {
                for y in 0..dims.ty() {
                    if !(interior(z, dims.nz) && interior(y, dims.ny)) {
                        data.resize(data.len() + dims.tx(), v);
                        continue;
                    }
                    data.resize(data.len() + g, v);
                    let row = r.take(dims.nx * precision.bytes())?;
                    match precision {
                        Precision::F32 => data.extend(
                            row.chunks_exact(4)
                                .map(|b| f32::from_le_bytes(b.try_into().unwrap()) as f64),
                        ),
                        Precision::F64 => data.extend(
                            row.chunks_exact(8)
                                .map(|b| f64::from_le_bytes(b.try_into().unwrap())),
                        ),
                    }
                    data.resize(data.len() + g, v);
                }
            }
        }
        Ok::<_, CkptError>(data)
    };
    let phi_src = SoaField::from_raw(dims, read_field(&PHI_LIQUID)?);
    let mu_src = SoaField::from_raw(dims, read_field(&[0.0; N_COMP])?);
    let state =
        BlockState::from_fields(origin, [phi_src.clone(), phi_src], [mu_src.clone(), mu_src]);
    Ok(DecodedBlock {
        id,
        time,
        precision,
        state,
    })
}

// ---------------------------------------------------------------------------
// Manifests (EUTECMF1)
// ---------------------------------------------------------------------------

/// Per-block record in a [`Manifest`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlockEntry {
    /// Global block id.
    pub id: u64,
    /// Size of the block file in bytes.
    pub file_bytes: u64,
    /// CRC32 of the whole block file.
    pub crc32: u32,
}

/// Checkpoint-set manifest: everything needed to validate and restore a
/// set, written last so its presence marks the set complete.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Step index the checkpoint was taken at.
    pub step: u64,
    /// Simulation time.
    pub time: f64,
    /// Moving-window shift count.
    pub window_shifts: u64,
    /// Payload precision of the block files.
    pub precision: Precision,
    /// The domain decomposition the set was written under. Restore
    /// re-decomposes this spec, so a set written by N ranks restores onto
    /// any rank count dividing the same blocks.
    pub spec: DomainSpec,
    /// One entry per block, sorted by id.
    pub blocks: Vec<BlockEntry>,
}

impl Manifest {
    /// Refuse a set that decomposes another domain than `spec`.
    pub(crate) fn require_spec(&self, spec: DomainSpec) -> Result<(), CkptError> {
        if self.spec != spec {
            return Err(CkptError::Incompatible {
                detail: format!("set decomposes {:?}, simulation runs {spec:?}", self.spec),
            });
        }
        Ok(())
    }
}

/// Serialize a manifest (`EUTECMF1`, trailing self-CRC32).
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(8 + 4 + 8 + 8 + 8 + 1 + 6 * 8 + 3 + 8 + m.blocks.len() * 20 + 4);
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&m.step.to_le_bytes());
    out.extend_from_slice(&m.time.to_le_bytes());
    out.extend_from_slice(&m.window_shifts.to_le_bytes());
    out.push(m.precision.code());
    for v in m.spec.cells.iter().chain(m.spec.blocks.iter()) {
        out.extend_from_slice(&(*v as u64).to_le_bytes());
    }
    for p in m.spec.periodic {
        out.push(p as u8);
    }
    out.extend_from_slice(&(m.blocks.len() as u64).to_le_bytes());
    for b in &m.blocks {
        out.extend_from_slice(&b.id.to_le_bytes());
        out.extend_from_slice(&b.file_bytes.to_le_bytes());
        out.extend_from_slice(&b.crc32.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parse and verify a manifest serialized by [`encode_manifest`].
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, CkptError> {
    let what = "manifest";
    if bytes.len() < 8 + 4 + 4 {
        return Err(CkptError::Truncated { what });
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let recorded = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    let actual = crc32(body);
    if recorded != actual {
        return Err(CkptError::CrcMismatch {
            what: what.into(),
            expected: recorded,
            found: actual,
        });
    }
    let mut r = Reader::new(body, what);
    if r.take(8)? != MANIFEST_MAGIC {
        return Err(CkptError::BadMagic { what });
    }
    let version = r.u32()?;
    if version > FORMAT_VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    let step = r.u64()?;
    let time = r.f64()?;
    let window_shifts = r.u64()?;
    let precision = Precision::from_code(r.u8()?)?;
    let mut six = [0u64; 6];
    for v in &mut six {
        *v = r.u64()?;
    }
    let mut periodic = [false; 3];
    for p in &mut periodic {
        *p = r.u8()? != 0;
    }
    let to_usize = |v: u64| {
        usize::try_from(v).map_err(|_| CkptError::InsaneDims {
            detail: format!("domain extent {v} exceeds the address space"),
        })
    };
    let spec = DomainSpec {
        cells: [to_usize(six[0])?, to_usize(six[1])?, to_usize(six[2])?],
        blocks: [to_usize(six[3])?, to_usize(six[4])?, to_usize(six[5])?],
        periodic,
    };
    let n = r.u64()?;
    // 20 bytes per entry must fit in what remains — rejects a corrupt count
    // before the allocation below.
    if (n as u128) * 20 != r.buf.len() as u128 {
        return Err(CkptError::Truncated { what });
    }
    let mut blocks = Vec::with_capacity(n as usize);
    for _ in 0..n {
        blocks.push(BlockEntry {
            id: r.u64()?,
            file_bytes: r.u64()?,
            crc32: r.u32()?,
        });
    }
    Ok(Manifest {
        step,
        time,
        window_shifts,
        precision,
        spec,
        blocks,
    })
}

// ---------------------------------------------------------------------------
// Filesystem layer: atomic writes + set layout
// ---------------------------------------------------------------------------

/// Write `bytes` to `path` atomically: tmp file in the same directory,
/// fsync, then rename over the final name. A crash mid-write leaves only
/// the tmp file, never a torn final file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Bounded-backoff retry for transient checkpoint I/O (overloaded parallel
/// filesystems routinely fail writes transiently at scale).
#[derive(Clone, Copy, Debug)]
struct RetryPolicy {
    /// Total attempts (≥ 1; 1 = no retry).
    attempts: u32,
    /// Delay before the first retry; doubles per retry, capped at 500 ms.
    backoff: Duration,
    /// Fraction of each delay that is randomized (0 = pure exponential,
    /// 1 = anywhere in `(0, delay]`). Seeded jitter spreads N ranks
    /// hammering a shared filesystem so they don't retry in lockstep.
    jitter: f64,
    /// Seed of the deterministic jitter stream; derive it from something
    /// rank- or block-unique (e.g. the global block id) so peers draw
    /// different schedules while reruns stay reproducible.
    seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff: Duration::from_millis(5),
            jitter: 0.5,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Same policy with the jitter stream re-seeded.
    fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Cap on the exponential backoff delay.
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// SplitMix64 — the same tiny deterministic generator the fault-injection
/// layer uses; good enough to decorrelate retry schedules.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Delay before retry `attempt` (0-based) under `policy`: exponential base
/// `backoff · 2^attempt` capped at 500 ms, with the top `jitter` fraction
/// scaled by a seeded uniform draw. Pure — `(policy, attempt)` fully
/// determines the delay, so the whole schedule is reproducible and
/// unit-testable without sleeping.
fn retry_delay(policy: RetryPolicy, attempt: u32) -> Duration {
    let base = policy.backoff.as_secs_f64() * 2f64.powi(attempt.min(20) as i32);
    let base = base.min(MAX_BACKOFF.as_secs_f64());
    let j = policy.jitter.clamp(0.0, 1.0);
    // Uniform in [0, 1) from the (seed, attempt) pair.
    let draw = splitmix64(policy.seed ^ splitmix64(attempt as u64 + 1));
    let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_secs_f64(base * (1.0 - j * u))
}

/// Run `f`, retrying on [`CkptError::Io`] with bounded exponential backoff
/// and deterministic seeded jitter (see [`retry_delay`]). Non-I/O errors
/// (corruption, incompatibility) are returned immediately — retrying cannot
/// fix them.
fn retry_io<T>(
    policy: RetryPolicy,
    mut f: impl FnMut() -> Result<T, CkptError>,
) -> Result<T, CkptError> {
    let attempts = policy.attempts.max(1);
    let mut attempt = 0;
    loop {
        match f() {
            Err(CkptError::Io(e)) if attempt + 1 < attempts => {
                std::thread::sleep(retry_delay(policy, attempt));
                attempt += 1;
                let _ = e;
            }
            other => return other,
        }
    }
}

/// [`atomic_write`] wrapped in [`retry_io`]. The tmp+rename sequence is
/// idempotent, so re-running the whole write after a transient failure is
/// safe — a reader never observes a torn final file.
fn atomic_write_retry(path: &Path, bytes: &[u8], policy: RetryPolicy) -> Result<(), CkptError> {
    retry_io(policy, || atomic_write(path, bytes))
}

/// Directory of the checkpoint set for `step` under `root`.
pub(crate) fn set_dir(root: &Path, step: u64) -> PathBuf {
    root.join(format!("step_{step:010}"))
}

/// File name of block `id` inside a set directory.
pub fn block_file_name(id: u64) -> String {
    format!("block_{id}.eckp")
}

/// Atomically write one block file into `dir`; returns its manifest entry.
pub(crate) fn write_block_file(
    dir: &Path,
    state: &BlockState,
    id: u64,
    time: f64,
    precision: Precision,
) -> Result<BlockEntry, CkptError> {
    let bytes = encode_block(state, id, time, precision);
    let crc = crc32(&bytes);
    // Seed the retry jitter by block id: every writer in a set draws a
    // different schedule, so a transient filesystem brown-out doesn't get
    // re-hit by all ranks at the same instant.
    atomic_write_retry(
        &dir.join(block_file_name(id)),
        &bytes,
        RetryPolicy::default().with_seed(id),
    )?;
    Ok(BlockEntry {
        id,
        file_bytes: bytes.len() as u64,
        crc32: crc,
    })
}

/// Atomically write the manifest into `dir`, completing the set.
pub(crate) fn write_manifest_file(dir: &Path, m: &Manifest) -> Result<(), CkptError> {
    atomic_write_retry(
        &dir.join(MANIFEST_FILE),
        &encode_manifest(m),
        RetryPolicy::default(),
    )
}

/// Read and verify the manifest of the set in `dir`.
pub(crate) fn read_manifest_file(dir: &Path) -> Result<Manifest, CkptError> {
    decode_manifest(&fs::read(dir.join(MANIFEST_FILE))?)
}

/// Read block `id` from the set in `dir`, verifying file size and CRC
/// against the manifest before decoding (`budget` caps the allocation its
/// header may imply).
pub(crate) fn read_block_from_set(
    dir: &Path,
    manifest: &Manifest,
    id: u64,
    budget: u64,
) -> Result<DecodedBlock, CkptError> {
    let entry = manifest
        .blocks
        .iter()
        .find(|b| b.id == id)
        .ok_or(CkptError::MissingBlock { id })?;
    let path = dir.join(block_file_name(id));
    let meta = fs::metadata(&path)?;
    if meta.len() != entry.file_bytes {
        return Err(CkptError::Truncated { what: "block file" });
    }
    if entry.file_bytes > budget.saturating_add(4096) {
        return Err(CkptError::InsaneDims {
            detail: format!(
                "block file of {} bytes exceeds budget {budget}",
                entry.file_bytes
            ),
        });
    }
    let bytes = fs::read(&path)?;
    let actual = crc32(&bytes);
    if actual != entry.crc32 {
        return Err(CkptError::CrcMismatch {
            what: format!("block {id}"),
            expected: entry.crc32,
            found: actual,
        });
    }
    decode_block(&bytes, budget)
}

/// Scan `root` for checkpoint-set directories and return the highest step
/// whose manifest is present and verifies, with its directory. Sets whose
/// manifest is missing or corrupt (aborted or torn checkpoints) are
/// skipped. Returns `Ok(None)` when no valid set exists (including when
/// `root` itself does not exist yet).
pub fn find_latest_checkpoint(root: &Path) -> Result<Option<(u64, PathBuf)>, CkptError> {
    find_latest_checkpoint_at_or_below(root, None)
}

/// Like [`find_latest_checkpoint`], but only considers sets at step ≤
/// `step_limit` when given — the descent primitive of the resilient
/// driver's "skip a poisoned/corrupt set and retry with the previous one"
/// path. Pruned (deleted) and partial (manifest-less) directories are
/// skipped just like torn sets.
pub(crate) fn find_latest_checkpoint_at_or_below(
    root: &Path,
    step_limit: Option<u64>,
) -> Result<Option<(u64, PathBuf)>, CkptError> {
    let mut best: Option<(u64, PathBuf)> = None;
    for (step, dir) in list_set_dirs(root)? {
        if step_limit.is_some_and(|limit| step > limit) {
            continue;
        }
        if read_manifest_file(&dir).is_err() {
            continue; // aborted / torn / partially pruned set
        }
        if best.as_ref().is_none_or(|(s, _)| step > *s) {
            best = Some((step, dir));
        }
    }
    Ok(best)
}

/// All `step_*` directories under `root` (valid or not), unordered.
/// `Ok(empty)` when `root` does not exist yet.
fn list_set_dirs(root: &Path) -> Result<Vec<(u64, PathBuf)>, CkptError> {
    let entries = match fs::read_dir(root) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(step) = name
            .to_str()
            .and_then(|n| n.strip_prefix("step_"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((step, entry.path()));
    }
    Ok(out)
}

/// Retention: keep the newest `keep` *valid* checkpoint sets under `root`
/// and delete everything older — including partial (manifest-less) debris
/// from aborted writes — except `protect` (the set currently being read,
/// which must never vanish mid-restore). Sets newer than the oldest kept
/// valid set are left alone even without a manifest: they may be a write
/// in progress. Returns the number of directories removed.
pub fn prune_checkpoint_sets(
    root: &Path,
    keep: usize,
    protect: Option<&Path>,
) -> Result<usize, CkptError> {
    assert!(keep >= 1, "retention must keep at least one set");
    let dirs = list_set_dirs(root)?;
    let mut valid_steps: Vec<u64> = dirs
        .iter()
        .filter(|(_, dir)| read_manifest_file(dir).is_ok())
        .map(|(step, _)| *step)
        .collect();
    valid_steps.sort_unstable_by(|a, b| b.cmp(a));
    let Some(&cutoff) = valid_steps.get(keep - 1) else {
        return Ok(0); // fewer valid sets than the retention target
    };
    let mut removed = 0;
    for (step, dir) in dirs {
        if step < cutoff && protect != Some(dir.as_path()) {
            fs::remove_dir_all(&dir)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> BlockState {
        let dims = GridDims::new(4, 3, 5, 1);
        let mut s = BlockState::new(dims, [0, 3, 10]);
        for (i, (x, y, z)) in dims.interior_iter().enumerate() {
            let v = i as f64 * 0.01;
            s.phi_src.set_cell(x, y, z, [v, 0.25 - v, 0.5, 0.25]);
            s.mu_src.set_cell(x, y, z, [v - 0.3, 0.3 - v]);
        }
        s
    }

    #[test]
    fn crc32_known_vectors() {
        // The checksum the on-disk format records is the standard IEEE CRC32,
        // so a block's trailer can be checked by any external tool.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        let bytes = encode_block(&sample_state(), 7, 1.5, Precision::F64);
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(u32::from_le_bytes(trailer.try_into().unwrap()), crc32(body));
    }

    #[test]
    fn block_roundtrip_f64_is_bit_exact() {
        let s = sample_state();
        let bytes = encode_block(&s, 7, 1.5, Precision::F64);
        assert_eq!(bytes.len(), block_file_size(s.dims, Precision::F64));
        let d = decode_block(&bytes, DEFAULT_BYTE_BUDGET).unwrap();
        assert_eq!(d.id, 7);
        assert_eq!(d.time, 1.5);
        assert_eq!(d.precision, Precision::F64);
        assert_eq!(d.state.origin, s.origin);
        for c in 0..N_PHASES {
            for (x, y, z) in s.dims.interior_iter() {
                assert_eq!(d.state.phi_src.at(c, x, y, z), s.phi_src.at(c, x, y, z));
            }
        }
        for c in 0..N_COMP {
            for (x, y, z) in s.dims.interior_iter() {
                assert_eq!(d.state.mu_src.at(c, x, y, z), s.mu_src.at(c, x, y, z));
            }
        }
    }

    #[test]
    fn block_f32_is_half_the_payload() {
        let s = sample_state();
        let b32 = encode_block(&s, 0, 0.0, Precision::F32);
        let b64 = encode_block(&s, 0, 0.0, Precision::F64);
        assert_eq!(b32.len(), block_file_size(s.dims, Precision::F32));
        assert_eq!(b64.len(), block_file_size(s.dims, Precision::F64));
        let overhead = b32.len() - s.dims.interior_volume() * 6 * 4;
        assert_eq!(b64.len() - overhead, 2 * (b32.len() - overhead));
    }

    #[test]
    fn corrupt_block_is_rejected_with_crc_error() {
        let s = sample_state();
        let mut bytes = encode_block(&s, 0, 0.0, Precision::F32);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        match decode_block(&bytes, DEFAULT_BYTE_BUDGET) {
            Err(CkptError::CrcMismatch { .. }) => {}
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    /// A leftover file of the retired format is named as such — at any
    /// length, since it never carried a CRC to mismatch.
    #[test]
    fn legacy_block_file_is_rejected_by_name() {
        // magic | nx ny nz ghost | origin | time | f32 payload, as the
        // retired writer laid it out for a 1×1×1 block.
        let mut legacy = b"EUTECKP1".to_vec();
        for v in [1u64, 1, 1, 1, 0, 0, 0] {
            legacy.extend_from_slice(&v.to_le_bytes());
        }
        legacy.extend_from_slice(&2.5f64.to_le_bytes());
        legacy.extend_from_slice(&[0u8; 6 * 4]);
        for len in [8, 12, legacy.len()] {
            match decode_block(&legacy[..len], DEFAULT_BYTE_BUDGET) {
                Err(e @ CkptError::LegacyFormat) => {
                    assert!(e.to_string().contains("retired legacy EUTECKP1"), "{e}")
                }
                other => panic!("expected LegacyFormat at length {len}, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_block_is_rejected() {
        let s = sample_state();
        let bytes = encode_block(&s, 0, 0.0, Precision::F32);
        for cut in [0, 5, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_block(&bytes[..cut], DEFAULT_BYTE_BUDGET).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn insane_dims_rejected_before_allocation() {
        // A header claiming a ~10^18-cell grid must fail fast with
        // InsaneDims, not attempt the allocation. Build a structurally
        // valid file (correct magic + CRC) with absurd dims.
        let mut out = Vec::new();
        out.extend_from_slice(BLOCK_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(8);
        out.extend_from_slice(&0u64.to_le_bytes()); // id
        for v in [1u64 << 20, 1 << 20, 1 << 20, 1] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for _ in 0..3 {
            out.extend_from_slice(&0u64.to_le_bytes());
        }
        out.extend_from_slice(&0f64.to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        match decode_block(&out, DEFAULT_BYTE_BUDGET) {
            Err(CkptError::InsaneDims { .. }) => {}
            other => panic!("expected InsaneDims, got {other:?}"),
        }
    }

    #[test]
    fn validate_dims_overflow_and_budget() {
        // The gate `decode_block` runs on a header's dims.
        let gate = |nx, ny, nz, ghost, budget| {
            validate_field_dims(nx, ny, nz, ghost, BLOCK_COMPONENTS, budget)
        };
        assert!(gate(u64::MAX, u64::MAX, u64::MAX, 1, u64::MAX).is_err());
        assert!(gate(0, 4, 4, 1, DEFAULT_BYTE_BUDGET).is_err());
        assert!(gate(4, 4, 4, u64::MAX / 2, DEFAULT_BYTE_BUDGET).is_err());
        // A 16³ block with ghost 1 (96 B a cell) fits a 10 MiB budget…
        assert!(gate(16, 16, 16, 1, 10 << 20).is_ok());
        assert!(gate(16, 16, 16, 1, 18 * 18 * 18 * 96).is_ok());
        // …but not one a byte short of it, nor a 1 KiB one.
        assert!(gate(16, 16, 16, 1, 18 * 18 * 18 * 96 - 1).is_err());
        assert!(gate(16, 16, 16, 1, 1024).is_err());
    }

    #[test]
    fn manifest_roundtrip() {
        let m = Manifest {
            step: 1234,
            time: 0.125,
            window_shifts: 17,
            precision: Precision::F64,
            spec: DomainSpec::directional([32, 16, 64], [2, 1, 4]),
            blocks: (0..8)
                .map(|id| BlockEntry {
                    id,
                    file_bytes: 1000 + id,
                    crc32: 0xdead_0000 | id as u32,
                })
                .collect(),
        };
        let bytes = encode_manifest(&m);
        let m2 = decode_manifest(&bytes).unwrap();
        assert_eq!(m2, m);
    }

    #[test]
    fn manifest_corruption_detected() {
        let m = Manifest {
            step: 5,
            time: 1.0,
            window_shifts: 0,
            precision: Precision::F32,
            spec: DomainSpec::directional([8, 8, 8], [1, 1, 1]),
            blocks: vec![BlockEntry {
                id: 0,
                file_bytes: 42,
                crc32: 7,
            }],
        };
        let bytes = encode_manifest(&m);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_manifest(&bad).is_err(),
                "flip at byte {i} undetected"
            );
        }
    }

    #[test]
    fn set_write_find_and_read() {
        let tmp = std::env::temp_dir().join(format!("eut_ckpt_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        let s = sample_state();
        // An aborted set (blocks but no manifest) at a higher step…
        let aborted = set_dir(&tmp, 90);
        fs::create_dir_all(&aborted).unwrap();
        write_block_file(&aborted, &s, 0, 9.0, Precision::F32).unwrap();
        // …and a complete set at step 50.
        let dir = set_dir(&tmp, 50);
        fs::create_dir_all(&dir).unwrap();
        let e = write_block_file(&dir, &s, 0, 5.0, Precision::F64).unwrap();
        let m = Manifest {
            step: 50,
            time: 5.0,
            window_shifts: 2,
            precision: Precision::F64,
            spec: DomainSpec::directional([4, 3, 5], [1, 1, 1]),
            blocks: vec![e],
        };
        write_manifest_file(&dir, &m).unwrap();

        let (step, found) = find_latest_checkpoint(&tmp).unwrap().unwrap();
        assert_eq!(step, 50, "aborted set without manifest must be skipped");
        let m2 = read_manifest_file(&found).unwrap();
        assert_eq!(m2, m);
        let d = read_block_from_set(&found, &m2, 0, DEFAULT_BYTE_BUDGET).unwrap();
        assert_eq!(d.time, 5.0);
        assert!(matches!(
            read_block_from_set(&found, &m2, 3, DEFAULT_BYTE_BUDGET),
            Err(CkptError::MissingBlock { id: 3 })
        ));
        // No tmp files left behind by the atomic writes.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn find_latest_on_missing_root_is_none() {
        let p = Path::new("/nonexistent/eutectica/ckpts");
        assert!(find_latest_checkpoint(p).unwrap().is_none());
    }

    /// Minimal complete (manifest-carrying) set at `step` under `root`.
    fn write_valid_set(root: &Path, step: u64) -> PathBuf {
        let s = sample_state();
        let dir = set_dir(root, step);
        fs::create_dir_all(&dir).unwrap();
        let e = write_block_file(&dir, &s, 0, step as f64, Precision::F32).unwrap();
        write_manifest_file(
            &dir,
            &Manifest {
                step,
                time: step as f64,
                window_shifts: 0,
                precision: Precision::F32,
                spec: DomainSpec::directional([4, 3, 5], [1, 1, 1]),
                blocks: vec![e],
            },
        )
        .unwrap();
        dir
    }

    #[test]
    fn find_latest_at_or_below_descends_past_newer_sets() {
        let tmp = std::env::temp_dir().join(format!("eut_ckpt_below_{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        for step in [10, 20, 30] {
            write_valid_set(&tmp, step);
        }
        let (step, _) = find_latest_checkpoint_at_or_below(&tmp, None)
            .unwrap()
            .unwrap();
        assert_eq!(step, 30);
        let (step, _) = find_latest_checkpoint_at_or_below(&tmp, Some(29))
            .unwrap()
            .unwrap();
        assert_eq!(step, 20);
        let (step, _) = find_latest_checkpoint_at_or_below(&tmp, Some(20))
            .unwrap()
            .unwrap();
        assert_eq!(step, 20);
        assert!(find_latest_checkpoint_at_or_below(&tmp, Some(9))
            .unwrap()
            .is_none());
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn prune_keeps_newest_valid_sets_and_clears_debris() {
        let tmp = std::env::temp_dir().join(format!("eut_ckpt_prune_{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        for step in [10, 20, 30, 40] {
            write_valid_set(&tmp, step);
        }
        // Manifest-less debris both below and between the valid sets.
        for step in [5, 25] {
            fs::create_dir_all(set_dir(&tmp, step)).unwrap();
        }
        let removed = prune_checkpoint_sets(&tmp, 2, None).unwrap();
        // Cutoff is the 2nd-newest valid step (30): sets 10, 20 and the
        // debris at 5 and 25 go; 30 and 40 stay.
        assert_eq!(removed, 4);
        for step in [5, 10, 20, 25] {
            assert!(!set_dir(&tmp, step).exists(), "step {step} not pruned");
        }
        for step in [30, 40] {
            assert!(set_dir(&tmp, step).exists(), "step {step} wrongly pruned");
        }
        let (latest, _) = find_latest_checkpoint(&tmp).unwrap().unwrap();
        assert_eq!(latest, 40);
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn prune_never_deletes_the_protected_set() {
        let tmp = std::env::temp_dir().join(format!("eut_ckpt_protect_{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        let protected = write_valid_set(&tmp, 10);
        write_valid_set(&tmp, 20);
        write_valid_set(&tmp, 30);
        let removed = prune_checkpoint_sets(&tmp, 1, Some(&protected)).unwrap();
        assert_eq!(removed, 1, "only step 20 may go");
        assert!(protected.exists(), "protected set was deleted");
        assert!(set_dir(&tmp, 30).exists());
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn prune_with_fewer_valid_sets_than_keep_is_a_noop() {
        let tmp = std::env::temp_dir().join(format!("eut_ckpt_noop_{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        write_valid_set(&tmp, 10);
        fs::create_dir_all(set_dir(&tmp, 20)).unwrap(); // partial, not valid
        assert_eq!(prune_checkpoint_sets(&tmp, 5, None).unwrap(), 0);
        assert!(set_dir(&tmp, 10).exists());
        assert!(set_dir(&tmp, 20).exists(), "debris above cutoff survives");
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn retry_io_retries_transient_io_errors_only() {
        use std::cell::Cell;
        let policy = RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        // Transient: two Io failures, then success.
        let calls = Cell::new(0u32);
        let out = retry_io(policy, || {
            calls.set(calls.get() + 1);
            if calls.get() < 3 {
                Err(CkptError::Io(std::io::Error::other("transient")))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.get(), 3);

        // Persistent Io: gives up after `attempts` calls.
        let calls = Cell::new(0u32);
        let out: Result<(), _> = retry_io(policy, || {
            calls.set(calls.get() + 1);
            Err(CkptError::Io(std::io::Error::other("still down")))
        });
        assert!(matches!(out, Err(CkptError::Io(_))));
        assert_eq!(calls.get(), 3);

        // Non-Io errors are never retried — corruption does not heal.
        let calls = Cell::new(0u32);
        let out: Result<(), _> = retry_io(policy, || {
            calls.set(calls.get() + 1);
            Err(CkptError::BadMagic { what: "test" })
        });
        assert!(matches!(out, Err(CkptError::BadMagic { .. })));
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn retry_delay_schedule_is_deterministic_and_bounded() {
        let p = RetryPolicy::default().with_seed(7);
        let schedule: Vec<Duration> = (0..8).map(|a| retry_delay(p, a)).collect();
        // Reproducible: the same (policy, attempt) pairs give the same
        // schedule on every call.
        let again: Vec<Duration> = (0..8).map(|a| retry_delay(p, a)).collect();
        assert_eq!(schedule, again);
        // Bounded: each delay lies in ((1-jitter)·base, base] of the capped
        // exponential envelope, and is never zero.
        for (a, d) in schedule.iter().enumerate() {
            let base =
                (p.backoff.as_secs_f64() * 2f64.powi(a as i32)).min(MAX_BACKOFF.as_secs_f64());
            assert!(
                d.as_secs_f64() <= base + 1e-12,
                "attempt {a} above envelope"
            );
            assert!(
                d.as_secs_f64() >= base * (1.0 - p.jitter) - 1e-12,
                "attempt {a} below the jitter floor"
            );
            assert!(d.as_secs_f64() > 0.0);
        }
        // The envelope caps: far-out attempts saturate at MAX_BACKOFF.
        let zero_jitter = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(retry_delay(zero_jitter, 30), MAX_BACKOFF);
        // Zero jitter reduces to the pure doubling schedule.
        for a in 0..4 {
            assert_eq!(
                retry_delay(zero_jitter, a),
                Duration::from_secs_f64(
                    (zero_jitter.backoff.as_secs_f64() * 2f64.powi(a as i32))
                        .min(MAX_BACKOFF.as_secs_f64())
                )
            );
        }
    }

    #[test]
    fn retry_delay_seeds_decorrelate_ranks() {
        // Different seeds (block ids) must produce different schedules —
        // that is the whole point: no filesystem retry lockstep.
        let a: Vec<Duration> = (0..6)
            .map(|at| retry_delay(RetryPolicy::default().with_seed(1), at))
            .collect();
        let b: Vec<Duration> = (0..6)
            .map(|at| retry_delay(RetryPolicy::default().with_seed(2), at))
            .collect();
        assert_ne!(a, b);
        assert!(a.iter().zip(&b).any(|(x, y)| x != y));
    }
}
