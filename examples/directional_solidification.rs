//! Directional solidification of the ternary eutectic Ag-Al-Cu — the
//! production scenario of the paper (Fig. 10, scaled to a workstation).
//!
//! Runs a moving-window simulation, periodically writes the per-phase
//! interface meshes (the paper's mesh-based output pipeline, Sec. 3.2),
//! takes a cross-section pattern census (rings / connections / chains /
//! bricks, the Fig. 10 comparison), and finishes with a two-point
//! correlation + PCA microstructure summary.
//!
//! ```sh
//! cargo run --release --example directional_solidification
//! ```
//!
//! Pass `--observe-every N` to sample the in-situ physics observables
//! (front kinetics, phase fractions, lamellar spacing, undercooling)
//! every N steps, and `--metrics-out observables.ndjson` to stream the
//! typed frames to a file.

use eutectica_analysis::correlation::{radial_average, two_point_correlation};
use eutectica_analysis::front::{front_height_map, front_mean, front_roughness, front_velocity};
use eutectica_analysis::patterns::census_slice;
use eutectica_analysis::pca::Pca;
use eutectica_core::prelude::*;
use eutectica_mesh::extract::extract_isosurface;
use eutectica_mesh::reduce::{reduce_local, ReduceOptions};
use eutectica_thermo::Phase;

fn main() {
    let mut params = ModelParams::ag_al_cu();
    params.t0 = 0.93;
    params.grad_g = 0.002;
    params.vel_v = 0.05;

    let (nx, ny, nz) = (48usize, 48usize, 64usize);
    let mut sim = Simulation::new(params, [nx, ny, nz]).expect("valid setup");
    sim.init_directional(2026);
    sim.enable_moving_window(0.6);

    std::fs::create_dir_all("results").ok();
    let rounds = 6;
    let steps_per_round = 250;
    println!(
        "directional solidification: {nx}x{ny}x{nz}, moving window, {} steps",
        rounds * steps_per_round
    );
    println!();

    // Optional in-situ observability plane (provably inert when off).
    let mut observer = eutectica_bench::arg_parsed("--observe-every").map(|every| {
        let obs = eutectica_obsv::InSituObserver::new(
            eutectica_obsv::ObservablesConfig::with_every(every),
        );
        match eutectica_bench::arg_value("--metrics-out") {
            Some(path) => obs
                .with_output_path(&path)
                .expect("create --metrics-out file"),
            None => obs,
        }
    });

    let mut front_maps: Vec<(f64, Vec<f64>)> = Vec::new();
    for round in 1..=rounds {
        match observer.as_mut() {
            Some(obs) => {
                for _ in 0..steps_per_round {
                    sim.step();
                    obs.observe_single(&sim);
                }
            }
            None => sim.step_n(steps_per_round),
        }
        let map = front_height_map(&sim.state);
        println!(
            "step {:5}: solid {:.3}, front z = {:.1} (rms roughness {:.2}), window shifts {}",
            round * steps_per_round,
            sim.solid_fraction(),
            front_mean(&map),
            front_roughness(&map),
            sim.window_shifts()
        );
        front_maps.push((sim.time(), map));
    }
    if front_maps.len() >= 2 {
        let (t0, m0) = &front_maps[0];
        let (t1, m1) = front_maps.last().unwrap();
        println!(
            "mean front velocity over the run: {:.4} cells/time (pulling velocity v = {:.4})",
            front_velocity(m0, m1, t1 - t0),
            sim.params.vel_v
        );
    }
    println!();

    // --- Mesh output: one interface mesh per phase, hierarchically reduced
    // (Sec. 3.2 pipeline), written as STL.
    for phase in [Phase::AlFcc, Phase::Ag2Al, Phase::Al2Cu] {
        let mesh = extract_isosurface(
            sim.state.phi_src.comp(phase as usize),
            sim.state.dims,
            [0.0, 0.0, sim.state.origin[2] as f64],
            0.5,
        );
        let reduced = reduce_local(vec![mesh], &ReduceOptions::default());
        let path = format!("results/solidification_{}.stl", phase.name());
        if let Ok(mut f) = std::fs::File::create(&path) {
            reduced.write_stl(&mut f).ok();
            println!(
                "wrote {path}: {} vertices, {} triangles",
                reduced.num_vertices(),
                reduced.num_triangles()
            );
        }
    }
    println!();

    // --- Cross-section pattern census in the solidified region (Fig. 10:
    // "chained brick-like structures that are connected or form ring-like
    // structures").
    let z_solid = sim.state.dims.ghost + 4; // well below the front
    println!("pattern census at slice z = {z_solid} (cross section ⊥ growth):");
    for phase in [Phase::AlFcc, Phase::Ag2Al, Phase::Al2Cu] {
        let c = census_slice(&sim.state, phase as usize, z_solid, 4);
        println!(
            "  {:8}: {:2} rings, {:2} connections, {:2} chains, {:2} bricks",
            phase.name(),
            c.rings,
            c.connections,
            c.chains,
            c.bricks
        );
    }
    println!();

    // --- Quantitative microstructure: two-point correlations of the three
    // solid phases in a 32³ solid subvolume, radially averaged, compared by
    // PCA (the paper's announced quantitative analysis).
    let sub = 32usize;
    let g = sim.state.dims.ghost;
    let mut features: Vec<Vec<f64>> = Vec::new();
    for phase in 0..3 {
        let mask: Vec<f64> = (0..sub * sub * sub)
            .map(|i| {
                let (x, y, z) = (i % sub, (i / sub) % sub, i / (sub * sub));
                (sim.state.phi_src.at(phase, x + g, y + g, z + g) > 0.5) as u8 as f64
            })
            .collect();
        let corr = two_point_correlation(&mask, [sub, sub, sub]);
        let rad = radial_average(&corr, [sub, sub, sub], 12);
        println!(
            "  S2 radial ({}): {:?}",
            Phase::ALL[phase].name(),
            rad.iter()
                .map(|v| (v * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        );
        features.push(rad);
    }
    let pca = Pca::fit(&features);
    println!(
        "  PCA over the S2 profiles: first component explains {:.0}% of the variance",
        100.0 * pca.explained_variance(1)
    );
    println!();
    println!("STL meshes are in results/ — load them in ParaView/MeshLab to see the");
    println!("lamellar microstructure (cf. Fig. 10a).");

    if let Some(obs) = &observer {
        println!();
        println!("observables sampled: {} record(s)", obs.records().len());
        if let Some(last) = obs.records().last() {
            println!(
                "  last: front z = {:.2}, velocity {:.4} cells/t, lamellae {:?} (λ {:?}), undercooling {:.4}",
                last.front_mean,
                last.front_velocity,
                last.lamella_count,
                last.lamellar_spacing
                    .map(|s| (s * 100.0).round() / 100.0),
                last.undercooling
            );
        }
    }
}
