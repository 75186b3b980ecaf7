//! Hybrid parallelism: intra-rank threaded sweeps must be bit-identical to
//! the serial sweeps at any thread count, across all four
//! communication-hiding combinations, including degenerate partitions
//! (fewer z-slices than threads, one-cell slabs).

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::{run_distributed, DistributedSim, OverlapOptions, StepTimings};
use eutectica_core::{N_COMP, N_PHASES};

fn init_fn(b: &mut BlockState) {
    let seeds = eutectica_core::init::VoronoiSeeds::generate([16, 16], 4, [0.34, 0.33, 0.33], 7);
    eutectica_core::init::init_directional_block(b, &seeds, 3);
}

fn run(
    domain: [usize; 3],
    blocks: [usize; 3],
    n_ranks: usize,
    threads: usize,
    steps: usize,
    overlap: OverlapOptions,
) -> Vec<(Vec<BlockState>, StepTimings)> {
    run_distributed(
        ModelParams::ag_al_cu(),
        Decomposition::new(DomainSpec::directional(domain, blocks)),
        n_ranks,
        KernelConfig::default(),
        overlap,
        move |sim| {
            sim.set_threads(threads);
            sim.init_blocks(init_fn);
            sim.step_n(steps);
            (std::mem::take(&mut sim.blocks), sim.timings)
        },
    )
}

/// Compare interiors of two runs bit-for-bit (ghosts are excluded: under
/// hide_mu the µ ghost refresh is deferred to the next step by design).
fn assert_bit_identical(
    a: &[(Vec<BlockState>, StepTimings)],
    b: &[(Vec<BlockState>, StepTimings)],
    what: &str,
) {
    assert_eq!(a.len(), b.len());
    for (r, ((ab, _), (bb, _))) in a.iter().zip(b).enumerate() {
        assert_eq!(ab.len(), bb.len());
        for (bi, (x, y)) in ab.iter().zip(bb).enumerate() {
            for (cx, cy, cz) in x.dims.interior_iter() {
                for c in 0..N_PHASES {
                    assert_eq!(
                        x.phi_src.at(c, cx, cy, cz),
                        y.phi_src.at(c, cx, cy, cz),
                        "{what}: phi[{c}] rank {r} block {bi} at ({cx},{cy},{cz})"
                    );
                }
                for c in 0..N_COMP {
                    assert_eq!(
                        x.mu_src.at(c, cx, cy, cz),
                        y.mu_src.at(c, cx, cy, cz),
                        "{what}: mu[{c}] rank {r} block {bi} at ({cx},{cy},{cz})"
                    );
                }
            }
        }
    }
}

/// Threaded sweeps reproduce the serial result exactly for every overlap
/// combination, thread count, and partition shape — including nz smaller
/// than the thread count and all-one-cell slabs.
#[test]
fn threaded_sweeps_are_bit_identical_to_serial() {
    // (domain, blocks, ranks, steps): multi-rank comm, nz < threads, and
    // nz = 7 (one-cell slabs at 7 threads).
    let shapes: [([usize; 3], [usize; 3], usize, usize); 3] = [
        ([8, 8, 8], [2, 1, 1], 2, 3),
        ([6, 6, 3], [1, 1, 1], 1, 2),
        ([4, 4, 7], [1, 1, 1], 1, 2),
    ];
    for (domain, blocks, ranks, steps) in shapes {
        for overlap in OverlapOptions::ALL {
            let serial = run(domain, blocks, ranks, 1, steps, overlap);
            for threads in [2usize, 4, 7] {
                let threaded = run(domain, blocks, ranks, threads, steps, overlap);
                assert_bit_identical(
                    &serial,
                    &threaded,
                    &format!("{domain:?}/{blocks:?} ranks={ranks} threads={threads} {overlap:?}"),
                );
            }
        }
    }
}

/// Thread counts far beyond nz clamp to one slab per slice and still match.
#[test]
fn oversubscribed_pool_clamps_to_slice_count() {
    let serial = run([4, 4, 2], [1, 1, 1], 1, 1, 2, OverlapOptions::default());
    let huge = run([4, 4, 2], [1, 1, 1], 1, 32, 2, OverlapOptions::default());
    assert_bit_identical(&serial, &huge, "threads=32 on nz=2");
}

/// Hybrid ranks × threads composes: 2 ranks × 3 threads matches 1 rank × 1
/// thread on the same decomposition.
#[test]
fn ranks_and_threads_compose() {
    let base = run([8, 8, 8], [2, 2, 1], 1, 1, 3, OverlapOptions::default());
    let hybrid = run([8, 8, 8], [2, 2, 1], 2, 3, 3, OverlapOptions::default());
    // Re-key blocks: rank 0 of the 1-rank run owns all four blocks in id
    // order; the 2-rank run splits them two per rank in the same order.
    let flat_base: Vec<&BlockState> = base[0].0.iter().collect();
    let flat_hybrid: Vec<&BlockState> = hybrid.iter().flat_map(|(b, _)| b.iter()).collect();
    assert_eq!(flat_base.len(), flat_hybrid.len());
    for (x, y) in flat_base.iter().zip(&flat_hybrid) {
        assert_eq!(x.origin, y.origin, "block order mismatch");
        for c in 0..N_PHASES {
            assert_eq!(x.phi_src.comp(c), y.phi_src.comp(c), "phi[{c}]");
        }
        for c in 0..N_COMP {
            assert_eq!(x.mu_src.comp(c), y.mu_src.comp(c), "mu[{c}]");
        }
    }
}

/// CI matrix entry point: the `hybrid` workflow job sets
/// `EUTECTICA_TEST_RANKS` × `EUTECTICA_TEST_THREADS` ({1,4} × {1,4}) and
/// this compares that layout bit-for-bit against the serial single-rank
/// run of the same decomposition.
#[test]
fn matrix_combo_matches_serial_baseline() {
    let get = |k: &str, d: usize| {
        std::env::var(k)
            .ok()
            .map(|v| v.parse().expect("rank/thread counts must be integers"))
            .unwrap_or(d)
    };
    let ranks = get("EUTECTICA_TEST_RANKS", 1);
    let threads = get("EUTECTICA_TEST_THREADS", 4);
    let domain = [8usize, 8, 8];
    let blocks = [2usize, 2, 1]; // 4 blocks: splittable over 1 or 4 ranks
    let base = run(domain, blocks, 1, 1, 3, OverlapOptions::default());
    let combo = run(domain, blocks, ranks, threads, 3, OverlapOptions::default());
    let flat_base: Vec<&BlockState> = base.iter().flat_map(|(b, _)| b.iter()).collect();
    let flat_combo: Vec<&BlockState> = combo.iter().flat_map(|(b, _)| b.iter()).collect();
    assert_eq!(flat_base.len(), flat_combo.len());
    for (x, y) in flat_base.iter().zip(&flat_combo) {
        assert_eq!(x.origin, y.origin, "block order mismatch");
        for c in 0..N_PHASES {
            assert_eq!(
                x.phi_src.comp(c),
                y.phi_src.comp(c),
                "phi[{c}] ranks={ranks} threads={threads}"
            );
        }
        for c in 0..N_COMP {
            assert_eq!(
                x.mu_src.comp(c),
                y.mu_src.comp(c),
                "mu[{c}] ranks={ranks} threads={threads}"
            );
        }
    }
}

/// Acceptance check for the work-sharing engine: ≥ 2× step throughput with
/// 4 threads on a 64³ block, read from the `step_mlups` telemetry gauge.
/// Ignored by default — it needs ≥ 4 physical cores to pass; run with
/// `cargo test --release -- --ignored` on a multi-core host.
#[test]
#[ignore = "requires >= 4 physical cores"]
fn four_threads_double_step_throughput_on_64cube() {
    fn gauge_mlups(threads: usize) -> f64 {
        let decomp = Decomposition::new(DomainSpec::directional([64, 64, 64], [1, 1, 1]));
        eutectica_comm::Universe::run(1, move |rank| {
            let mut sim = DistributedSim::new(
                &rank,
                ModelParams::ag_al_cu(),
                decomp.clone(),
                KernelConfig::default(),
                OverlapOptions::default(),
            );
            sim.set_threads(threads);
            sim.init_blocks(init_fn);
            sim.step_n(3);
            sim.telemetry().metrics_snapshot().gauges["step_mlups"]
        })[0]
    }
    let serial = gauge_mlups(1);
    let threaded = gauge_mlups(4);
    assert!(
        threaded >= 2.0 * serial,
        "4-thread step rate {threaded:.2} MLUP/s < 2x serial {serial:.2} MLUP/s"
    );
}
