//! Quickstart: set up a small directional-solidification simulation of the
//! ternary eutectic Ag-Al-Cu system, run it, and inspect basic observables.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Pass `--observe-every N` to sample the in-situ physics observables
//! every N steps, and `--metrics-out observables.ndjson` to stream them
//! to a file as NDJSON (one typed frame per line).

use eutectica_core::prelude::*;
use eutectica_obsv::{InSituObserver, ObservablesConfig};
use eutectica_thermo::Phase;

fn main() {
    // Model parameters: the nondimensionalized Ag-Al-Cu system of the paper
    // with a frozen temperature gradient moving at velocity v (Fig. 2).
    let mut params = ModelParams::ag_al_cu();
    params.t0 = 0.95; // undercooling at the bottom of the domain
    params
        .validate()
        .expect("parameters satisfy the CFL limits");

    // A 32×32×64-cell domain, liquid-filled, with Voronoi-tessellated solid
    // nuclei at the bottom (Sec. 2.1).
    let mut sim = Simulation::new(params, [32, 32, 64]).expect("valid setup");
    sim.init_directional(42);

    println!("initial solid fraction: {:.3}", sim.solid_fraction());
    println!(
        "phase fractions (Al, Ag2Al, Al2Cu, liquid): {:?}",
        sim.phase_fractions().map(|f| (f * 1000.0).round() / 1000.0)
    );

    // Optional in-situ observability plane (provably inert when off).
    let mut observer = eutectica_bench::arg_parsed("--observe-every").map(|every| {
        let obs = InSituObserver::new(ObservablesConfig::with_every(every));
        match eutectica_bench::arg_value("--metrics-out") {
            Some(path) => obs
                .with_output_path(&path)
                .expect("create --metrics-out file"),
            None => obs,
        }
    });

    // Run 500 explicit-Euler steps (Algorithm 1 with the fully optimized
    // kernels: explicit SIMD, T(z) precompute, staggered buffers,
    // shortcuts).
    let steps = 500;
    let t = std::time::Instant::now();
    match observer.as_mut() {
        Some(obs) => {
            for _ in 0..steps {
                sim.step();
                obs.observe_single(&sim);
            }
        }
        None => sim.step_n(steps),
    }
    let dt = t.elapsed().as_secs_f64();
    let cells = 32 * 32 * 64;
    println!();
    println!(
        "{steps} steps in {:.2} s  ->  {:.1} MLUP/s",
        dt,
        (cells * steps) as f64 / dt / 1e6
    );
    println!();
    println!("after {} time units:", sim.time());
    println!("  solid fraction : {:.3}", sim.solid_fraction());
    println!("  front position : z = {:.0}", sim.front_position());
    for p in Phase::ALL {
        println!("  {:8}: {:.3}", p.name(), sim.phase_fractions()[p as usize]);
    }
    println!("  mean chemical potentials: {:?}", sim.mean_mu());

    if let Some(obs) = &observer {
        println!();
        println!("observables sampled: {} record(s)", obs.records().len());
        if let Some(last) = obs.records().last() {
            println!(
                "  last: front z = {:.2} (rms {:.2}), velocity {:.4} cells/t, undercooling {:.4}",
                last.front_mean, last.front_rms, last.front_velocity, last.undercooling
            );
        }
    }
}
