//! What the four workloads share: the physics parameters, the result of one
//! execution ("leg"), final-state digests and the field-health check.

use eutectica_campaign::field_checksum;
use eutectica_core::health::{scan_block, HealthConfig};
use eutectica_core::params::ModelParams;
use eutectica_core::state::BlockState;
use eutectica_core::{N_COMP, N_PHASES};

use crate::ledger::{Checks, Layers};
use crate::spans::Span;

/// How often the set-up is repeated in a run, each time in a fresh child
/// process; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 21;

/// The directional-solidification operating point of the shipped example
/// (`examples/directional_solidification.rs`).
pub fn params() -> ModelParams {
    let mut p = ModelParams::ag_al_cu();
    p.t0 = 0.93;
    p.grad_g = 0.002;
    p.vel_v = 0.05;
    p
}

/// One final block with the parameters and simulation time it was stepped
/// under — what the layer probes run on.
pub struct Snapshot {
    pub params: ModelParams,
    pub time: f64,
    pub state: BlockState,
}

/// One execution of a workload's timed region, traced or not.
pub struct Leg {
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) over the same region.
    pub cpu_s: f64,
    /// Lattice updates done in the region: interior cells × steps.
    pub lups: u64,
    /// Ranks the region ran on (1 thread each).
    pub ranks: usize,
    /// `VmHWM` right after the timed region, before any check allocates.
    pub peak_rss_mb: f64,
    /// Digest of the final fields; equal for traced and untraced legs.
    pub digest: u64,
    /// Final blocks, for the health check and the probes.
    pub finals: Vec<Snapshot>,
    /// Checks and operations counted during the leg itself.
    pub checks: Checks,
    /// Layer numbers only this workload can produce (traced legs).
    pub layers: Layers,
    /// Bench-side spans (traced legs).
    pub spans: Vec<Span>,
}

impl Leg {
    pub fn mlups(&self) -> f64 {
        self.lups as f64 / self.wall_s / 1e6
    }
}

/// FNV-1a over `(origin, field checksum)` of every block, in origin order.
fn digest_blocks<'a>(blocks: impl IntoIterator<Item = &'a BlockState>) -> u64 {
    let mut blocks: Vec<&BlockState> = blocks.into_iter().collect();
    blocks.sort_by_key(|b| [b.origin[2], b.origin[1], b.origin[0]]);
    let mut words = Vec::with_capacity(blocks.len() * 4);
    for b in blocks {
        words.extend(b.origin.map(|o| o as u64));
        words.push(field_checksum(b));
    }
    fnv(&words)
}

/// Digest of a final state: its blocks plus the progress counters.
pub fn state_digest<'a>(
    blocks: impl IntoIterator<Item = &'a BlockState>,
    steps: usize,
    window_shifts: usize,
    time: f64,
) -> u64 {
    fnv(&[
        digest_blocks(blocks),
        steps as u64,
        window_shifts as u64,
        time.to_bits(),
    ])
}

/// FNV-1a 64 over a list of words.
pub fn fnv(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Copy the interior φ and µ of `blocks` into one global array each
/// (component-major), placing every block by `origin − base`.
pub fn assemble(blocks: &[BlockState], cells: [usize; 3], base_z: usize) -> Vec<f64> {
    let n = cells[0] * cells[1] * cells[2];
    let mut out = vec![0.0; n * (N_PHASES + N_COMP)];
    for b in blocks {
        let d = b.dims;
        let g = d.ghost;
        for z in 0..d.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let (gx, gy, gz) = (b.origin[0] + x, b.origin[1] + y, b.origin[2] + z - base_z);
                    let gi = (gz * cells[1] + gy) * cells[0] + gx;
                    for c in 0..N_PHASES {
                        out[c * n + gi] = b.phi_src.at(c, x + g, y + g, z + g);
                    }
                    for c in 0..N_COMP {
                        out[(N_PHASES + c) * n + gi] = b.mu_src.at(c, x + g, y + g, z + g);
                    }
                }
            }
        }
    }
    out
}

/// Largest absolute difference between two assembled fields.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Check: zero `health::scan_block` violations on every final block.
pub fn check_final_health(checks: &mut Checks, finals: &[Snapshot]) {
    let mut cells = 0;
    let mut violations = 0;
    for (i, s) in finals.iter().enumerate() {
        let stats = scan_block(&s.state, &HealthConfig::for_params(&s.params), i as u64);
        cells += stats.cells;
        violations += stats.violations();
    }
    checks.check(
        "final fields healthy",
        violations == 0 && cells > 0,
        format!(
            "{violations} violation(s) in {cells} cells of {} block(s)",
            finals.len()
        ),
    );
}
