//! Resident memory of a directional-solidification block follows its front
//! (DESIGN §19, "Memory"): building, initialising, stepping and shifting a
//! block never writes the pages of the melt zone that hold `+0.0`, so those
//! stay unfaulted. Measured with the process's own `VmRSS`, hence one test
//! in a binary of its own.
#![cfg(target_os = "linux")]

use eutectica_core::params::ModelParams;
use eutectica_core::solver::Simulation;
use eutectica_core::{N_COMP, N_PHASES};

/// Interior cells of the block: the `solidify_1block` benchmark block.
const CELLS: [usize; 3] = [48, 48, 64];

/// Resident set size of this process, in bytes.
fn vm_rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmRSS line in kB");
    kb * 1024
}

/// Build, initialise, step 30 times and shift the window once: the process
/// grows by less than the block's four fields' storage (15.8 MB) minus an
/// eighth of it. Writing every word of the fields once puts the growth at
/// the storage plus what stepping allocates (≈ 1.2 MB), 17.1 MB; leaving the
/// three solid φ components of the melt unwritten saves ≈ 5.5 MB of the two
/// φ fields at the front this run reaches, for ≈ 11.6 MB.
#[test]
fn melt_zone_pages_stay_unfaulted() {
    let volume = (CELLS[0] + 2) * (CELLS[1] + 2) * (CELLS[2] + 2);
    let storage = 2 * (N_PHASES + N_COMP) * volume * std::mem::size_of::<f64>();

    let before = vm_rss();
    let mut sim = Simulation::new(ModelParams::ag_al_cu(), CELLS).expect("valid parameters");
    sim.init_directional(1);
    sim.step_n(30);
    sim.state.shift_window_up();
    sim.state.apply_bc_src();
    let grown = vm_rss().saturating_sub(before);

    let mb = |b: usize| b as f64 / 1e6;
    eprintln!(
        "field storage {:.2} MB, resident growth {:.2} MB",
        mb(storage),
        mb(grown)
    );
    assert!(
        grown < storage * 7 / 8,
        "resident growth {:.2} MB reaches 7/8 of the block's field storage ({:.2} MB)",
        mb(grown),
        mb(storage)
    );
    // The block is still what it was built to be.
    assert!(sim.state.phi_src.summary_holds() && sim.state.mu_src.summary_holds());
}
