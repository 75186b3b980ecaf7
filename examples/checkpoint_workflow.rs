//! Checkpoint/restart workflow (Sec. 3.2): run a simulation, write a
//! single-precision checkpoint and a VTK snapshot, plan the checkpoint
//! cadence from measured costs, then restart from the checkpoint and verify
//! the trajectories agree.
//!
//! ```sh
//! cargo run --release --example checkpoint_workflow
//! ```

use eutectica_core::prelude::*;
use eutectica_pfio::ckpt::{
    atomic_write, block_file_size, decode_block, encode_block, Precision, DEFAULT_BYTE_BUDGET,
};
use eutectica_pfio::{checkpoint_interval, write_vtk};
use std::time::Instant;

fn main() {
    let mut params = ModelParams::ag_al_cu();
    params.t0 = 0.95;
    let cells = [24usize, 24, 48];
    let mut sim = Simulation::new(params.clone(), cells).expect("valid setup");
    sim.init_directional(99);

    std::fs::create_dir_all("results").ok();

    // Phase 1: run and measure step cost.
    let t = Instant::now();
    sim.step_n(200);
    let step_time = t.elapsed().as_secs_f64() / 200.0;

    // Write a checkpoint (f32: half the in-memory footprint) and measure it.
    let ckpt_path = std::path::Path::new("results/checkpoint.eckp");
    let t = Instant::now();
    let bytes = encode_block(&sim.state, 0, sim.time(), Precision::F32);
    atomic_write(ckpt_path, &bytes).unwrap();
    let ckpt_time = t.elapsed().as_secs_f64();
    println!(
        "step: {:.2} ms, checkpoint: {:.2} ms ({} KiB on disk, {} KiB in memory)",
        step_time * 1e3,
        ckpt_time * 1e3,
        block_file_size(sim.state.dims, Precision::F32) / 1024,
        sim.state.dims.volume() * 6 * 8 / 1024,
    );
    println!(
        "recommended checkpoint interval for 1% overhead: every {} steps",
        checkpoint_interval(step_time, ckpt_time, 0.01)
    );

    // A VTK snapshot for visual inspection.
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create("results/snapshot.vtk").unwrap());
        write_vtk(&mut f, &sim.state, "eutectica snapshot").unwrap();
    }
    println!("wrote results/snapshot.vtk (phi0..3, phase_id, mu0..1)");

    // Phase 2: continue the original for 100 more steps.
    sim.step_n(100);

    // Phase 3: restart from the checkpoint and run the same 100 steps.
    let saved = decode_block(&std::fs::read(ckpt_path).unwrap(), DEFAULT_BYTE_BUDGET).unwrap();
    let time = saved.time;
    let mut resumed = Simulation::new(params, cells).expect("valid setup");
    resumed.state = saved.state;
    resumed.state.apply_bc_src();
    resumed.state.sync_dst_from_src();
    println!("restarted at t = {time}");
    resumed.step_n(100);

    let diff = (sim.solid_fraction() - resumed.solid_fraction()).abs();
    println!(
        "solid fraction after 100 post-checkpoint steps: continuous {:.6}, restarted {:.6} (|Δ| = {:.2e})",
        sim.solid_fraction(),
        resumed.solid_fraction(),
        diff
    );
    assert!(diff < 1e-4, "restart diverged");
    println!("restart agrees within single-precision rounding.");
}
