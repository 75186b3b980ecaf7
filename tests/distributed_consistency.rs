//! Integration: the distributed time loop is invariant under block and rank
//! decomposition and under every communication-hiding combination.

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::{run_distributed, OverlapOptions};
use eutectica_core::{N_COMP, N_PHASES};

fn init(b: &mut BlockState) {
    let seeds = eutectica_core::init::VoronoiSeeds::generate([24, 24], 6, [0.34, 0.33, 0.33], 77);
    eutectica_core::init::init_directional_block(b, &seeds, 6);
}

/// `steps` plain steps from `init`; every rank's final blocks + timings.
fn run_steps(
    params: ModelParams,
    decomp: Decomposition,
    n_ranks: usize,
    steps: usize,
    cfg: KernelConfig,
    overlap: OverlapOptions,
    init: fn(&mut BlockState),
) -> Vec<(Vec<BlockState>, eutectica_core::timeloop::StepTimings)> {
    run_distributed(params, decomp, n_ranks, cfg, overlap, move |sim| {
        sim.init_blocks(init);
        sim.step_n(steps);
        (std::mem::take(&mut sim.blocks), sim.timings)
    })
}

/// Reassemble the global interior φ/µ fields from per-rank blocks.
fn assemble(
    out: &[(Vec<BlockState>, eutectica_core::timeloop::StepTimings)],
    cells: [usize; 3],
) -> (Vec<f64>, Vec<f64>) {
    let mut phi = vec![0.0; cells[0] * cells[1] * cells[2] * N_PHASES];
    let mut mu = vec![0.0; cells[0] * cells[1] * cells[2] * N_COMP];
    for (blocks, _) in out {
        for b in blocks {
            let d = b.dims;
            let g = d.ghost;
            for z in 0..d.nz {
                for y in 0..d.ny {
                    for x in 0..d.nx {
                        let (gx, gy, gz) = (b.origin[0] + x, b.origin[1] + y, b.origin[2] + z);
                        let gi = (gz * cells[1] + gy) * cells[0] + gx;
                        for c in 0..N_PHASES {
                            phi[c * cells[0] * cells[1] * cells[2] + gi] =
                                b.phi_src.at(c, x + g, y + g, z + g);
                        }
                        for c in 0..N_COMP {
                            mu[c * cells[0] * cells[1] * cells[2] + gi] =
                                b.mu_src.at(c, x + g, y + g, z + g);
                        }
                    }
                }
            }
        }
    }
    (phi, mu)
}

#[test]
fn block_and_rank_decompositions_agree() {
    let params = ModelParams::ag_al_cu();
    let cells = [24usize, 24, 16];
    let steps = 6;
    let cfg = KernelConfig::default();
    let ov = OverlapOptions::default();

    let run = |blocks: [usize; 3], ranks: usize| {
        let spec = DomainSpec::directional(cells, blocks);
        let out = run_steps(
            params.clone(),
            Decomposition::new(spec),
            ranks,
            steps,
            cfg,
            ov,
            init,
        );
        assemble(&out, cells)
    };

    let (phi_ref, mu_ref) = run([1, 1, 1], 1);
    for (blocks, ranks) in [
        ([2, 1, 1], 1),
        ([2, 1, 1], 2),
        ([2, 2, 2], 2),
        ([2, 2, 2], 8),
        ([1, 3, 2], 3),
    ] {
        let (phi, mu) = run(blocks, ranks);
        let dphi = phi
            .iter()
            .zip(&phi_ref)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let dmu = mu
            .iter()
            .zip(&mu_ref)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            dphi < 1e-12 && dmu < 1e-12,
            "{blocks:?} × {ranks} ranks: dphi {dphi:e}, dmu {dmu:e}"
        );
    }
}

#[test]
fn all_overlap_modes_agree_on_multiblock_multirank() {
    let params = ModelParams::ag_al_cu();
    let cells = [24usize, 24, 16];
    let spec = DomainSpec::directional(cells, [2, 2, 2]);
    let runs: Vec<_> = OverlapOptions::ALL
        .iter()
        .map(|&ov| {
            let out = run_steps(
                params.clone(),
                Decomposition::new(spec),
                4,
                6,
                KernelConfig::default(),
                ov,
                init,
            );
            assemble(&out, cells)
        })
        .collect();
    for (k, (phi, mu)) in runs.iter().enumerate().skip(1) {
        let dphi = phi
            .iter()
            .zip(&runs[0].0)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let dmu = mu
            .iter()
            .zip(&runs[0].1)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // The split µ-kernel reassociates one addition; everything else is
        // identical.
        assert!(
            dphi < 1e-10 && dmu < 1e-10,
            "overlap mode {k}: dphi {dphi:e} dmu {dmu:e}"
        );
    }
}

#[test]
fn kernel_variants_agree_in_full_distributed_steps() {
    // End-to-end: reference kernels vs fully optimized kernels over real
    // multi-step distributed runs.
    let params = ModelParams::ag_al_cu();
    let cells = [12usize, 12, 12];
    let spec = DomainSpec::directional(cells, [2, 1, 1]);
    let run = |cfg: KernelConfig| {
        let out = run_steps(
            params.clone(),
            Decomposition::new(spec),
            2,
            4,
            cfg,
            OverlapOptions::default(),
            |b| {
                let seeds = eutectica_core::init::VoronoiSeeds::generate(
                    [12, 12],
                    3,
                    [0.34, 0.33, 0.33],
                    5,
                );
                eutectica_core::init::init_directional_block(b, &seeds, 4);
            },
        );
        assemble(&out, cells)
    };
    let optimized = run(KernelConfig::default());
    let reference = run(eutectica_core::kernels::OptLevel::Reference.config());
    let dphi = optimized
        .0
        .iter()
        .zip(&reference.0)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(dphi < 1e-9, "optimized vs reference diverged by {dphi:e}");
}

#[test]
fn distributed_moving_window_is_rank_invariant() {
    use eutectica_comm::Universe;
    use eutectica_core::timeloop::DistributedSim;
    use std::sync::Arc;

    let mut params = ModelParams::ag_al_cu();
    params.t0 = 0.95;
    params.grad_g = 0.0;
    let cells = [16usize, 16, 20];
    let spec = DomainSpec::directional(cells, [2, 1, 1]);

    let run = |ranks: usize| -> (usize, Vec<f64>) {
        let params = params.clone();
        let decomp = Arc::new(Decomposition::new(spec));
        let out = Universe::run(ranks, move |rank| {
            let mut sim = DistributedSim::new(
                &rank,
                params.clone(),
                (*decomp).clone(),
                KernelConfig::default(),
                OverlapOptions::default(),
            );
            sim.init_blocks(|b| eutectica_core::init::init_planar_front(b, 0, 9));
            sim.enable_moving_window(0.5);
            sim.step_n(400);
            (sim.window_shifts(), std::mem::take(&mut sim.blocks))
        });
        let shifts = out[0].0;
        // Global checksum per block id order.
        let mut sums = Vec::new();
        let mut blocks: Vec<&BlockState> = out.iter().flat_map(|(_, bs)| bs.iter()).collect();
        blocks.sort_by_key(|b| b.origin);
        for b in blocks {
            sums.push(b.phi_src.comp(0).iter().sum::<f64>());
            sums.push(b.origin[2] as f64);
        }
        (shifts, sums)
    };

    let (shifts1, sums1) = run(1);
    let (shifts2, sums2) = run(2);
    assert!(shifts1 > 0, "window never moved");
    assert_eq!(shifts1, shifts2, "shift counts differ across rank counts");
    assert_eq!(sums1.len(), sums2.len());
    for (a, b) in sums1.iter().zip(&sums2) {
        assert!((a - b).abs() < 1e-9, "windowed fields differ: {a} vs {b}");
    }
}
