//! Integration: checkpoint → restart must continue the simulation within
//! single-precision tolerance (Sec. 3.2: "checkpoints use only single
//! precision to save disk space and I/O bandwidth").

use eutectica_core::params::ModelParams;
use eutectica_core::prelude::*;
use eutectica_pfio::ckpt::{decode_block, encode_block, Precision, DEFAULT_BYTE_BUDGET};

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
