//! Integration: checkpoint → restart must continue the simulation within
//! single-precision tolerance (Sec. 3.2: "checkpoints use only single
//! precision to save disk space and I/O bandwidth").

use eutectica_blockgrid::codec::crc32;
use eutectica_blockgrid::decomp::DomainSpec;
use eutectica_core::params::ModelParams;
use eutectica_core::prelude::*;
use eutectica_pfio::ckpt::{
    block_file_name, decode_block, encode_block, encode_manifest, BlockEntry, Manifest, Precision,
    DEFAULT_BYTE_BUDGET,
};
use eutectica_pfio::resilient::SimCheckpointExt;

fn setup() -> Simulation {
    let mut p = ModelParams::ag_al_cu();
    p.t0 = 0.95;
    let mut sim = Simulation::new(p, [12, 12, 24]).unwrap();
    sim.init_directional(3);
    sim
}

#[test]
fn restart_continues_within_f32_tolerance() {
    // Continuous run: 15 steps.
    let mut continuous = setup();
    continuous.step_n(15);

    // Checkpointed run: 10 steps, save, restore, 5 more.
    let mut first = setup();
    first.step_n(10);
    let buf = encode_block(&first.state, 0, first.time(), Precision::F32);

    let saved = decode_block(&buf, DEFAULT_BYTE_BUDGET).unwrap();
    assert!((saved.time - 10.0 * first.params.dt).abs() < 1e-12);
    let mut resumed = Simulation::new(first.params.clone(), [12, 12, 24]).unwrap();
    resumed.state = saved.state;
    // Restore boundary conditions and ghost layers, as a restart must.
    resumed.state.bc_phi = first.state.bc_phi;
    resumed.state.bc_mu = first.state.bc_mu;
    resumed.state.apply_bc_src();
    resumed.state.sync_dst_from_src();
    resumed.step_n(5);

    // f32 rounding of the checkpoint (≈1e-8 relative) grows slowly over the
    // 5 remaining steps.
    let d = continuous.state.dims;
    let mut max_diff = 0.0f64;
    for c in 0..N_PHASES {
        for (x, y, z) in d.interior_iter() {
            let a = continuous.state.phi_src.at(c, x, y, z);
            let b = resumed.state.phi_src.at(c, x, y, z);
            max_diff = max_diff.max((a - b).abs());
        }
    }
    assert!(
        max_diff < 1e-3,
        "restart diverged from continuous run by {max_diff:e}"
    );
    // Aggregate observables agree tightly.
    assert!(
        (continuous.solid_fraction() - resumed.solid_fraction()).abs() < 1e-5,
        "{} vs {}",
        continuous.solid_fraction(),
        resumed.solid_fraction()
    );
}

#[test]
fn checkpoint_restart_preserves_window_origin() {
    let mut p = ModelParams::ag_al_cu();
    p.t0 = 0.95;
    p.grad_g = 0.0;
    let mut sim = Simulation::new(p, [8, 8, 20]).unwrap();
    sim.init_planar(0, 9);
    sim.enable_moving_window(0.5);
    sim.step_n(400);
    assert!(sim.window_shifts() > 0);
    let origin_before = sim.state.origin;

    let buf = encode_block(&sim.state, 0, sim.time(), Precision::F32);
    let state = decode_block(&buf, DEFAULT_BYTE_BUDGET).unwrap().state;
    assert_eq!(state.origin, origin_before, "window offset lost in restart");
}

/// A campaign job's set, written by `Simulation`, is block 0 encoded by
/// `encode_block` plus the manifest of a one-block decomposition — the
/// bytes job sets have always had, so older sets still restore.
#[test]
fn job_set_is_one_encoded_block_and_its_manifest() {
    let root = std::env::temp_dir().join(format!("eut_job_set_bytes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut sim = setup();
    sim.step_n(3);
    sim.write_checkpoint_set(&root, Precision::F64).unwrap();
    let block = encode_block(&sim.state, 0, sim.time(), Precision::F64);
    let manifest = encode_manifest(&Manifest {
        step: 3,
        time: sim.time(),
        window_shifts: 0,
        precision: Precision::F64,
        spec: DomainSpec::directional([12, 12, 24], [1, 1, 1]),
        blocks: vec![BlockEntry {
            id: 0,
            file_bytes: block.len() as u64,
            crc32: crc32(&block),
        }],
    });
    let dir = root.join("step_0000000003");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, [block_file_name(0), "manifest.eckm".to_string()]);
    assert!(std::fs::read(dir.join(block_file_name(0))).unwrap() == block);
    assert!(std::fs::read(dir.join("manifest.eckm")).unwrap() == manifest);
    std::fs::remove_dir_all(&root).unwrap();
}
