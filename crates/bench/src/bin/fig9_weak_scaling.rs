//! Fig. 9: weak scaling — MLUP/s per core on SuperMUC (three scenarios,
//! 2⁰–2¹⁵ cores), Hornet (interface, 2⁵–2¹³) and JUQUEEN (interface,
//! 2⁹–2¹⁸).
//!
//! Per-core application rates (full time step: φ-sweep + µ-sweep) are
//! *measured* per scenario on this machine; the rank-count axis uses the
//! calibrated machine models (DESIGN.md substitution 1).

use eutectica_bench::{f3, step_mlups_threaded, ResultTable};
use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::regions::Scenario;
use eutectica_perfmodel::machines::{hornet, juqueen, supermuc, weak_scaling};

fn powers(lo: u32, hi: u32) -> Vec<usize> {
    (lo..=hi).map(|k| 1usize << k).collect()
}

fn main() {
    let params = ModelParams::ag_al_cu();
    let block = [60usize, 60, 60];
    let dims = GridDims::cube(60);
    let threads = eutectica_bench::threads_arg();
    println!("Fig. 9 — weak scaling, MLUP/s per core (block 60^3 per rank)");
    println!();

    if let Some(dir) = eutectica_bench::arg_parsed::<std::path::PathBuf>("--trace-out") {
        println!(
            "instrumented 4-rank run (weak-scaling layout 2x2x1, 4 steps, {threads} sweep thread(s)):"
        );
        eutectica_bench::run_traced(
            &dir,
            4,
            threads,
            [32, 32, 16],
            [2, 2, 1],
            4,
            eutectica_core::timeloop::OverlapOptions {
                hide_mu: true,
                hide_phi: false,
            },
            eutectica_bench::arg_parsed("--health-every"),
            eutectica_bench::rebalance_policy_from_args(),
        )
        .expect("write trace artifacts");
        println!();
    }

    // --kill-rank R --kill-step S [--survive] [--shrink-source disk|buddy]:
    // chaos leg — kill a rank mid-run and either shrink-continue on the
    // survivors or tear down and restart, with a rank-0 summary line.
    eutectica_bench::shrink_demo_from_args(threads);

    // --rebalance-every <k>: run the front-crossing load-imbalance demo and
    // report the measured static vs. dynamically rebalanced max/avg ratio.
    if let Some(policy) = eutectica_bench::rebalance_policy_from_args() {
        eutectica_bench::rebalance_demo(policy.every, policy.threshold, threads, 24);
        println!();
    }

    let cfg = KernelConfig::default();
    let rates: Vec<(Scenario, f64)> = [Scenario::Interface, Scenario::Liquid, Scenario::Solid]
        .iter()
        .map(|&sc| (sc, step_mlups_threaded(&params, sc, dims, cfg, threads, 5)))
        .collect();
    for (sc, r) in &rates {
        println!(
            "measured per-rank step rate ({}, {} sweep thread(s)): {:.2} MLUP/s",
            sc.name(),
            threads,
            r
        );
    }
    println!();

    // SuperMUC: all three scenarios, 2^0..2^15.
    let m = supermuc();
    let cores = powers(0, 15);
    let mut table = ResultTable::new("fig9_supermuc", &["cores", "interface", "liquid", "solid"]);
    let curves: Vec<Vec<f64>> = rates
        .iter()
        .map(|&(_, r)| {
            weak_scaling(&m, block, r, true, &cores)
                .iter()
                .map(|p| p.mlups_per_core)
                .collect()
        })
        .collect();
    for (i, &p) in cores.iter().enumerate() {
        table.row(&[
            p.to_string(),
            f3(curves[0][i]),
            f3(curves[1][i]),
            f3(curves[2][i]),
        ]);
    }
    println!("SuperMUC (pruned fat tree):");
    table.finish();
    println!();

    // Hornet and JUQUEEN: interface scenario only (as in the paper).
    for (m, lo, hi) in [(hornet(), 5, 13), (juqueen(), 9, 18)] {
        let cores = powers(lo, hi);
        let pts = weak_scaling(&m, block, rates[0].1, true, &cores);
        let mut table = ResultTable::new(
            &format!("fig9_{}", m.name.to_lowercase()),
            &["cores", "MLUP/s per core", "comm fraction"],
        );
        for p in &pts {
            table.row(&[
                p.cores.to_string(),
                f3(p.mlups_per_core),
                f3(p.comm_fraction),
            ]);
        }
        println!("{} ({:?}):", m.name, m.topology);
        table.finish();
        println!();
    }
    println!("Paper shape: near-flat curves per machine; interface slowest of the");
    println!("scenarios on SuperMUC; JUQUEEN per-core rates an order of magnitude");
    println!("below the x86 machines but scaling to 262,144 cores.");
}
