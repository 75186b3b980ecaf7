//! Scaling study: run the distributed time loop on thread-backed ranks
//! (correctness + communication structure) and project the weak-scaling
//! curves of the paper's three machines from measured single-core rates.
//!
//! ```sh
//! cargo run --release --example scaling_study
//! ```

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::timeloop::{run_distributed, OverlapOptions};
use eutectica_perfmodel::machines::{all_machines, weak_scaling};

fn main() {
    let params = ModelParams::ag_al_cu();

    // --- Part 1: real distributed runs over thread ranks on a fixed
    // 32×32×16 domain split into four 16³ blocks; the fields must be
    // identical regardless of how many ranks share the blocks.
    println!("distributed runs (fixed 32x32x16 domain, 4 blocks of 16^3):");
    let mut reference: Option<f64> = None;
    for ranks in [1usize, 2, 4] {
        let blocks = [2usize, 2, 1];
        let spec = DomainSpec::directional([32, 32, 16], blocks);
        let t = std::time::Instant::now();
        let out = run_distributed(
            params.clone(),
            Decomposition::new(spec),
            ranks,
            KernelConfig::default(),
            OverlapOptions {
                hide_mu: true,
                hide_phi: false,
            },
            |sim| {
                sim.init_blocks(|b| {
                    let seeds = eutectica_core::init::VoronoiSeeds::generate(
                        [32, 32],
                        8,
                        [0.34, 0.33, 0.33],
                        1,
                    );
                    eutectica_core::init::init_directional_block(b, &seeds, 5);
                });
                sim.step_n(20);
                (std::mem::take(&mut sim.blocks), sim.timings)
            },
        );
        let elapsed = t.elapsed().as_secs_f64();
        // Checksum of the φ field over all blocks for cross-rank-count
        // comparison (block (0,0,0) exists in every configuration).
        let b0 = out
            .iter()
            .flat_map(|(blocks, _)| blocks.iter())
            .find(|b| b.origin == [0, 0, 0])
            .unwrap();
        let checksum: f64 = b0.phi_src.comp(0).iter().sum();
        match reference {
            None => reference = Some(checksum),
            Some(r) => assert!(
                (checksum - r).abs() < 1e-9,
                "rank-count changed the physics: {checksum} vs {r}"
            ),
        }
        let comm: f64 = out
            .iter()
            .map(|(_, t)| (t.phi_comm + t.mu_comm).as_secs_f64())
            .sum::<f64>()
            / ranks as f64;
        println!(
            "  {ranks} rank(s): {:6.2} s wall, {:5.1}% in communication, checksum {checksum:.6}",
            elapsed,
            100.0 * comm / elapsed
        );
    }
    println!("  -> identical checksums: domain decomposition does not change results");
    println!();

    // --- Part 2: machine-model projection (Fig. 9 style).
    println!("projected weak scaling (60^3 cells per core, measured rate 25 MLUP/s):");
    for m in all_machines() {
        let cores: Vec<usize> = (0..)
            .map(|k| 1usize << k)
            .take_while(|&p| p <= m.max_cores)
            .collect();
        let pts = weak_scaling(&m, [60; 3], 25.0, true, &cores);
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        println!(
            "  {:9}: {:6.2} MLUP/s/core at {:>6} cores -> {:6.2} at {:>6} cores ({:.0}% efficiency)",
            m.name,
            first.mlups_per_core,
            first.cores,
            last.mlups_per_core,
            last.cores,
            100.0 * last.mlups_per_core / first.mlups_per_core
        );
    }
}
