//! Fig. 8: "Time spent in communication, SuperMUC, blocksize 60³" — the
//! exposed per-timestep communication time of the φ- and µ-fields for all
//! four overlap combinations, over 2⁵–2¹² cores.
//!
//! Two ingredients, following the paper's own decomposition: the pack/unpack
//! work "which cannot be overlapped" is *measured* on this machine; the wire
//! time uses the SuperMUC interconnect model and is hidden (fully for µ,
//! x-phase only for φ) when overlap is enabled. A live 2-rank run of every
//! overlap combination exercises the real Algorithm-2 code path first.

use eutectica_bench::{f3, time_median, ResultTable};
use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_blockgrid::field::SoaField;
use eutectica_blockgrid::{ghost, Face, GridDims};
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::timeloop::{run_distributed, OverlapOptions};
use eutectica_perfmodel::machines::supermuc;
use eutectica_perfmodel::network::message_time;

/// What a block's six remote faces cost outside the wire: each packed from
/// the field into its wire buffer and unpacked from it into the ghosts.
fn pack_unpack_time<const NC: usize>(dims: GridDims) -> f64 {
    let field = SoaField::<NC>::new(dims, [0.5; NC]);
    let mut target = field.clone();
    time_median(9, || {
        for face in Face::ALL {
            let mut wire = Vec::new();
            ghost::pack_region_bytes(&field, ghost::send_region(dims, face), &mut wire);
            let ghosts = ghost::recv_region(dims, face.opposite());
            ghost::unpack_region_bytes(&mut target, ghosts, &wire);
        }
    })
}

fn main() {
    let n = 60usize;
    let dims = GridDims::cube(n);
    let threads = eutectica_bench::threads_arg();
    println!("Fig. 8 — time in communication per timestep, blocksize 60^3");
    println!();

    // --trace-out <dir>: run an instrumented 2-rank simulation and emit the
    // Chrome trace / JSONL / reduced-timing-tree artifacts.
    if let Some(dir) = eutectica_bench::arg_parsed::<std::path::PathBuf>("--trace-out") {
        println!(
            "instrumented 2-rank run (mu-overlap, 32x16x16, 6 steps, {threads} sweep thread(s)):"
        );
        eutectica_bench::run_traced(
            &dir,
            2,
            threads,
            [32, 16, 16],
            [2, 1, 1],
            6,
            OverlapOptions {
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

    // --- Live end-to-end check of the four overlap combinations (2 ranks).
    println!("live 2-rank run (16^3 blocks, 4 steps each, {threads} sweep thread(s)):");
    let params = ModelParams::ag_al_cu();
    for ov in OverlapOptions::ALL {
        let out = run_distributed(
            params.clone(),
            Decomposition::new(DomainSpec::directional([32, 16, 16], [2, 1, 1])),
            2,
            KernelConfig::default(),
            ov,
            move |sim| {
                sim.set_threads(threads);
                sim.init_blocks(|b| eutectica_core::init::init_planar_front(b, 0, 6));
                sim.step_n(4);
                sim.timings
            },
        );
        let t = &out[0];
        println!(
            "  hide_mu={:5} hide_phi={:5}:  phi_comm {:7.3} ms/step, mu_comm {:7.3} ms/step",
            ov.hide_mu,
            ov.hide_phi,
            t.phi_comm.as_secs_f64() * 1e3 / t.steps as f64,
            t.mu_comm.as_secs_f64() * 1e3 / t.steps as f64,
        );
    }
    println!();

    // --- Measured non-overlappable pack/unpack costs.
    let t_pu_phi = pack_unpack_time::<4>(dims);
    let t_pu_mu = pack_unpack_time::<2>(dims);
    println!(
        "measured pack+unpack per step: phi {:.3} ms, mu {:.3} ms",
        t_pu_phi * 1e3,
        t_pu_mu * 1e3
    );
    println!();

    // --- Wire model (SuperMUC): per-face message volumes of a 60^3 block.
    let machine = supermuc();
    let face_area = n * n;
    let phi_bytes = face_area * 4 * 8;
    let mu_bytes = face_area * 2 * 8;

    let mut table = ResultTable::new(
        "fig8_comm_overlap",
        &[
            "cores",
            "mu overlap [ms]",
            "mu no overlap [ms]",
            "phi overlap [ms]",
            "phi no overlap [ms]",
        ],
    );
    for k in 5..=12 {
        let p = 1usize << k;
        let wire = |bytes: usize| message_time(machine.link, machine.topology, bytes, p);
        // Six face messages per field per step.
        let mu_wire = 6.0 * wire(mu_bytes);
        let phi_wire = 6.0 * wire(phi_bytes);
        // φ overlap hides only the x-phase (2 of 6 messages): the sequenced
        // y/z phases must wait for x (Sec. 3.3 discussion).
        let phi_wire_overlap = 4.0 * wire(phi_bytes);
        table.row(&[
            p.to_string(),
            f3((t_pu_mu) * 1e3),
            f3((t_pu_mu + mu_wire) * 1e3),
            f3((t_pu_phi + phi_wire_overlap) * 1e3),
            f3((t_pu_phi + phi_wire) * 1e3),
        ]);
    }
    table.finish();
    println!();
    println!("Paper shape: phi times above mu times (twice the data); overlap lowers");
    println!("both; remaining time is pack/unpack. The best *overall* config is");
    println!("mu-overlap only, because hiding phi requires the split mu-kernel whose");
    println!("per-slice temperature terms are computed twice (measured in fig6/ablations).");
}
