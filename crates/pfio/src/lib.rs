//! Simulation I/O: checkpoints and VTK output (Sec. 3.2).
//!
//! "For generating checkpoints, the complete simulation state has to be
//! stored on disk, containing four φ values and two µ values per cell. While
//! all computations are carried out in double precision, checkpoints use
//! only single precision to save disk space and I/O bandwidth." That format
//! is [`ckpt::encode_block`] at [`ckpt::Precision::F32`] — the one block-file
//! format, shared with the checkpoint sets, with a CRC and a byte budget on
//! the reader. This crate adds a legacy-VTK writer for visual inspection of
//! fields.
//!
//! Fault tolerance lives in four submodules: [`ckpt`] defines multi-block
//! *checkpoint sets* (per-block files + CRC-verified manifest, atomic
//! writes, OOM-hardened readers), `replica` mirrors block state into
//! buddy ranks' RAM for diskless shrink recovery, [`resilient`] wires
//! both into `DistributedSim` with an auto-cadence scheduler, the
//! [`resilient::run_resilient`] restart driver and its shrink-and-continue
//! recovery path, and [`jobs`] gives every campaign job an isolated
//! per-job checkpoint namespace built from the same set format.

#![deny(missing_docs)]

pub mod ckpt;
pub mod jobs;
mod replica;
pub mod resilient;

use std::io::Write;

use eutectica_core::state::BlockState;
use eutectica_core::{N_COMP, N_PHASES};

/// Checkpoint-cadence planning: "Writing a checkpoint can take a
/// significant amount of time compared to a simulation time step, therefore
/// checkpoints are written infrequently" (Sec. 3.2). Given the measured (or
/// modeled) time of one step and of one checkpoint, return the smallest
/// write interval (in steps) that keeps the checkpoint overhead below
/// `overhead_budget` (e.g. 0.01 = 1 % of runtime).
pub fn checkpoint_interval(step_time: f64, checkpoint_time: f64, overhead_budget: f64) -> usize {
    assert!(step_time > 0.0 && checkpoint_time >= 0.0);
    assert!(overhead_budget > 0.0);
    ((checkpoint_time / (step_time * overhead_budget)).ceil() as usize).max(1)
}

/// Write the interior fields as a legacy-VTK `STRUCTURED_POINTS` file with
/// the four φ components, the dominant-phase id, and the two µ components.
pub fn write_vtk(w: &mut impl Write, state: &BlockState, title: &str) -> std::io::Result<()> {
    let d = state.dims;
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "{title}")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET STRUCTURED_POINTS")?;
    writeln!(w, "DIMENSIONS {} {} {}", d.nx, d.ny, d.nz)?;
    writeln!(
        w,
        "ORIGIN {} {} {}",
        state.origin[0], state.origin[1], state.origin[2]
    )?;
    writeln!(w, "SPACING 1 1 1")?;
    writeln!(w, "POINT_DATA {}", d.interior_volume())?;
    for c in 0..N_PHASES {
        writeln!(w, "SCALARS phi{c} float 1")?;
        writeln!(w, "LOOKUP_TABLE default")?;
        for (x, y, z) in d.interior_iter() {
            writeln!(w, "{}", state.phi_src.at(c, x, y, z) as f32)?;
        }
    }
    writeln!(w, "SCALARS phase_id float 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    for (x, y, z) in d.interior_iter() {
        let phi = state.phi_src.cell(x, y, z);
        let id = (0..N_PHASES)
            .max_by(|&a, &b| phi[a].total_cmp(&phi[b]))
            .unwrap();
        writeln!(w, "{id}")?;
    }
    for c in 0..N_COMP {
        writeln!(w, "SCALARS mu{c} float 1")?;
        writeln!(w, "LOOKUP_TABLE default")?;
        for (x, y, z) in d.interior_iter() {
            writeln!(w, "{}", state.mu_src.at(c, x, y, z) as f32)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{
        block_file_size, decode_block, encode_block, Precision, DEFAULT_BYTE_BUDGET,
    };
    use eutectica_blockgrid::GridDims;
    use rand::{Rng, SeedableRng};

    fn random_state(seed: u64) -> BlockState {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dims = GridDims::new(6, 5, 7, 1);
        let mut s = BlockState::new(dims, [3, 1, 9]);
        for (x, y, z) in dims.interior_iter() {
            let raw: [f64; 4] = core::array::from_fn(|_| rng.random_range(0.0..1.0));
            s.phi_src
                .set_cell(x, y, z, eutectica_core::simplex::project_to_simplex(raw));
            s.mu_src.set_cell(
                x,
                y,
                z,
                [rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)],
            );
        }
        s
    }

    #[test]
    fn checkpoint_roundtrip_within_f32_precision() {
        let s = random_state(5);
        let buf = encode_block(&s, 7, 123.25, Precision::F32);
        assert_eq!(buf.len(), block_file_size(s.dims, Precision::F32));
        let back = decode_block(&buf, DEFAULT_BYTE_BUDGET).unwrap();
        assert_eq!((back.id, back.time), (7, 123.25));
        let s2 = back.state;
        assert_eq!(s2.dims, s.dims);
        assert_eq!(s2.origin, s.origin);
        for c in 0..N_PHASES {
            for (x, y, z) in s.dims.interior_iter() {
                let a = s.phi_src.at(c, x, y, z);
                let b = s2.phi_src.at(c, x, y, z);
                assert!((a - b).abs() <= a.abs() * 1e-7 + 1e-7, "phi[{c}]");
            }
        }
        for c in 0..N_COMP {
            for (x, y, z) in s.dims.interior_iter() {
                let a = s.mu_src.at(c, x, y, z);
                let b = s2.mu_src.at(c, x, y, z);
                assert!((a - b).abs() <= a.abs() * 1e-7 + 1e-7, "mu[{c}]");
            }
        }
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        let garbage = b"NOTACKPT-and-some-more-bytes".to_vec();
        assert!(decode_block(&garbage, DEFAULT_BYTE_BUDGET).is_err());
    }

    #[test]
    fn checkpoint_is_single_precision_sized() {
        // 4 φ + 2 µ per cell at 4 bytes — half the in-memory double size.
        let framing = block_file_size(GridDims::new(1, 1, 1, 1), Precision::F32) - 6 * 4;
        let payload = block_file_size(GridDims::new(10, 10, 10, 1), Precision::F32) - framing;
        assert_eq!(payload, 1000 * 6 * 4);
    }

    #[test]
    fn checkpoint_cadence() {
        // A checkpoint costing 50 steps of runtime at a 1 % budget must be
        // written at most every 5000 steps.
        assert_eq!(checkpoint_interval(1.0, 50.0, 0.01), 5000);
        // Free checkpoints may go every step.
        assert_eq!(checkpoint_interval(1.0, 0.0, 0.01), 1);
        // Budgets below one checkpoint per step round up to 1.
        assert_eq!(checkpoint_interval(10.0, 1.0, 0.5), 1);
    }

    #[test]
    fn vtk_output_contains_all_fields() {
        let s = random_state(9);
        let mut out = Vec::new();
        write_vtk(&mut out, &s, "test").unwrap();
        let text = String::from_utf8(out).unwrap();
        for field in ["phi0", "phi1", "phi2", "phi3", "phase_id", "mu0", "mu1"] {
            assert!(
                text.contains(&format!("SCALARS {field} float 1")),
                "{field}"
            );
        }
        assert!(text.contains("DIMENSIONS 6 5 7"));
        assert!(text.contains("ORIGIN 3 1 9"));
        // One value per interior cell per field.
        let values = text.lines().filter(|l| l.parse::<f32>().is_ok()).count();
        assert_eq!(values, 6 * 5 * 7 * 7);
    }
}
