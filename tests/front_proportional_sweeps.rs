//! Front-proportional sweeps across blocks, ranks and recovery paths.
//!
//! The default kernels end the φ cell loop at a field's constant pure zone
//! and decide the µ shortcuts once per slab from it (`SoaField`'s
//! constant-slab summary). Here the summary has to survive everything a
//! distributed run does to a field: non-constant ghosts arriving from a
//! neighbour block while the front crosses block faces in x and in z,
//! collective window shifts, block migration, a wholesale placement swap,
//! and a kill + checkpoint restore. Every run is compared bit for bit with
//! the same run under `shortcuts = false`, which never looks at a summary,
//! on both ISAs and at 1, 2 and 7 sweep threads.

use std::path::PathBuf;

use bytes::Bytes;
use eutectica_blockgrid::codec::DEFAULT_FIELD_BYTE_BUDGET;
use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_blockgrid::rebalance::{CostEntry, RebalancePolicy};
use eutectica_comm::{FaultPlan, Rank, Universe};
use eutectica_core::kernels::{KernelConfig, SimdIsa};
use eutectica_core::migrate::{decode_block, encode_block};
use eutectica_core::params::ModelParams;
use eutectica_core::state::{BlockState, PHI_LIQUID};
use eutectica_core::timeloop::{DistributedSim, OverlapOptions};
use eutectica_core::{LIQ, N_COMP, N_PHASES};
use eutectica_pfio::resilient::{run_resilient, CheckpointCadence, ResilientOpts};

const DOMAIN: [usize; 3] = [16, 16, 16];
const BLOCKS: [usize; 3] = [2, 2, 2];
const STEPS: usize = 24;
const THREADS: [usize; 3] = [1, 2, 7];

fn isas() -> Vec<SimdIsa> {
    let mut v = vec![SimdIsa::Portable];
    if eutectica_simd::avx2_available() {
        v.push(SimdIsa::Avx2);
    }
    v
}

/// The production kernels (`shortcuts = true`, consuming the summary) or
/// the same rung without shortcuts.
fn cfg(isa: SimdIsa, shortcuts: bool) -> KernelConfig {
    KernelConfig {
        isa,
        shortcuts,
        ..KernelConfig::default()
    }
}

/// Strong undercooling, no gradient: the front advances about a cell in
/// [`STEPS`] steps.
fn growth_params() -> ModelParams {
    let mut p = ModelParams::ag_al_cu();
    p.t0 = 0.93;
    p.grad_g = 0.0;
    p
}

/// Lamellae that end at z = 5 for x < 8 and fill the lower block layer
/// (z < 8) for x ≥ 8. The front steps across the x block face and lies on
/// the z block face: the four upper blocks start all-liquid, and the solid
/// reaches into two of them — and from those, through their x-faces, the
/// ghosts of the other two — as it grows.
fn stepped_front(b: &mut BlockState) {
    let g = b.dims.ghost;
    for z in 0..b.dims.nz {
        for y in 0..b.dims.ny {
            for x in 0..b.dims.nx {
                let (gx, gz) = (b.origin[0] + x, b.origin[2] + z);
                let mut phi = PHI_LIQUID;
                if gz < if gx < 8 { 5 } else { 8 } {
                    phi = [0.0; N_PHASES];
                    phi[(gx / 4) % 3] = 1.0;
                }
                b.phi_src.set_cell(x + g, y + g, z + g, phi);
                b.mu_src.set_cell(x + g, y + g, z + g, [0.0; N_COMP]);
            }
        }
    }
    b.sync_dst_from_src();
    b.apply_bc_src();
    b.bc_phi.apply(&mut b.phi_dst);
    b.bc_mu.apply(&mut b.mu_dst);
}

/// Run `steps` steps on `ranks` ranks × `threads` threads, calling `at_step`
/// before each step (with the index of the step about to run). Returns the
/// final blocks in global id order plus the window shifts.
#[allow(clippy::too_many_arguments)]
fn evolve(
    params: &ModelParams,
    spec: DomainSpec,
    cfg: KernelConfig,
    ranks: usize,
    threads: usize,
    overlap: OverlapOptions,
    window: Option<f64>,
    steps: usize,
    init: fn(&mut BlockState),
    at_step: impl Fn(&mut DistributedSim, &Rank, usize) + Send + Sync + 'static,
) -> (Vec<BlockState>, usize) {
    let params = params.clone();
    let at_step = std::sync::Arc::new(at_step);
    let out = Universe::run(ranks, move |rank| {
        let mut sim = DistributedSim::new(
            &rank,
            params.clone(),
            Decomposition::new(spec),
            cfg,
            overlap,
        );
        sim.set_threads(threads);
        if let Some(trigger) = window {
            sim.enable_moving_window(trigger);
        }
        sim.init_blocks(init);
        for step in 0..steps {
            at_step(&mut sim, &rank, step);
            sim.step();
        }
        let ids = sim.local_block_ids().to_vec();
        let shifts = sim.window_shifts();
        (ids, std::mem::take(&mut sim.blocks), shifts)
    });
    let shifts = out[0].2;
    let mut tagged: Vec<(usize, BlockState)> = out
        .into_iter()
        .flat_map(|(ids, blocks, _)| ids.into_iter().zip(blocks))
        .collect();
    tagged.sort_by_key(|(id, _)| *id);
    (tagged.into_iter().map(|(_, b)| b).collect(), shifts)
}

fn no_hook(_: &mut DistributedSim, _: &Rank, _: usize) {}

/// Interiors bit for bit.
fn assert_bit_identical(a: &[BlockState], b: &[BlockState], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: block count");
    for (bi, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.origin, y.origin, "{what}: block {bi} origin");
        for (cx, cy, cz) in x.dims.interior_iter() {
            for c in 0..N_PHASES {
                assert_eq!(
                    x.phi_src.at(c, cx, cy, cz).to_bits(),
                    y.phi_src.at(c, cx, cy, cz).to_bits(),
                    "{what}: phi[{c}] block {bi} at ({cx},{cy},{cz})"
                );
            }
            for c in 0..N_COMP {
                assert_eq!(
                    x.mu_src.at(c, cx, cy, cz).to_bits(),
                    y.mu_src.at(c, cx, cy, cz).to_bits(),
                    "{what}: mu[{c}] block {bi} at ({cx},{cy},{cz})"
                );
            }
        }
    }
}

/// Whether any interior cell of `b` is not pure liquid.
fn holds_solid(b: &BlockState) -> bool {
    b.dims
        .interior_iter()
        .any(|(x, y, z)| b.phi_src.at(LIQ, x, y, z) != 1.0)
}

/// The scenario does what its name says: the solid entered upper blocks
/// that started all-liquid, every summary is true, and the blocks with a
/// melt on top still carry a constant zone.
fn assert_front_crossed_faces(blocks: &[BlockState], what: &str) {
    let upper: Vec<&BlockState> = blocks.iter().filter(|b| b.origin[2] == 8).collect();
    assert_eq!(upper.len(), 4, "{what}");
    assert!(
        upper.iter().any(|b| b.origin[0] == 8 && holds_solid(b)),
        "{what}: the front never crossed the z-face"
    );
    for b in blocks {
        assert!(
            b.phi_src.summary_holds(),
            "{what}: summary of {:?}",
            b.origin
        );
    }
    let zones = blocks
        .iter()
        .filter(|b| b.phi_src.const_zone().0 < b.dims.tz())
        .count();
    assert!(
        zones >= 4,
        "{what}: only {zones} blocks kept a constant zone"
    );
}

#[test]
fn front_crossing_block_faces_in_x_and_z_is_bit_identical() {
    let params = growth_params();
    let spec = DomainSpec::directional(DOMAIN, BLOCKS);
    for isa in isas() {
        for overlap in OverlapOptions::ALL {
            let (plain, _) = evolve(
                &params,
                spec,
                cfg(isa, false),
                1,
                1,
                overlap,
                None,
                STEPS,
                stepped_front,
                no_hook,
            );
            for (ranks, threads) in [(1, 1), (2, 1), (2, 2), (2, 7), (4, 1)] {
                let what = format!("{isa:?} {overlap:?} ranks={ranks} threads={threads}");
                let (fast, _) = evolve(
                    &params,
                    spec,
                    cfg(isa, true),
                    ranks,
                    threads,
                    overlap,
                    None,
                    STEPS,
                    stepped_front,
                    no_hook,
                );
                assert_bit_identical(&plain, &fast, &what);
                assert_front_crossed_faces(&fast, &what);
            }
        }
    }
}

#[test]
fn collective_window_shifts_are_bit_identical() {
    let mut params = ModelParams::ag_al_cu();
    params.t0 = 0.95;
    params.grad_g = 0.0;
    let spec = DomainSpec::directional([8, 8, 20], [2, 2, 1]);
    let init: fn(&mut BlockState) = |b| eutectica_core::init::init_planar_front(b, 0, 9);
    for isa in isas() {
        let run = |shortcuts: bool, threads: usize| {
            evolve(
                &params,
                spec,
                cfg(isa, shortcuts),
                2,
                threads,
                OverlapOptions::default(),
                Some(0.5),
                260,
                init,
                no_hook,
            )
        };
        let (plain, plain_shifts) = run(false, 1);
        assert!(plain_shifts > 0, "the window never moved");
        for threads in THREADS {
            let what = format!("window {isa:?} threads={threads}");
            let (fast, shifts) = run(true, threads);
            assert_eq!(shifts, plain_shifts, "{what}: shifts");
            assert_bit_identical(&plain, &fast, &what);
            for b in &fast {
                let (from, val) = b.phi_src.const_zone();
                assert!(b.phi_src.summary_holds(), "{what}");
                assert!(
                    from < 20 && val == PHI_LIQUID,
                    "{what}: no melt zone ({from})"
                );
            }
        }
    }
}

#[test]
fn migrated_blocks_are_bit_identical() {
    let params = growth_params();
    let spec = DomainSpec::directional(DOMAIN, BLOCKS);
    for isa in isas() {
        let (plain, _) = evolve(
            &params,
            spec,
            cfg(isa, false),
            1,
            1,
            OverlapOptions::default(),
            None,
            STEPS,
            stepped_front,
            no_hook,
        );
        for threads in THREADS {
            // `execute_migration`: every block changes rank after step 8
            // and goes back after step 16.
            let what = format!("migration {isa:?} threads={threads}");
            let out = eutectica_core::timeloop::run_distributed(
                params.clone(),
                Decomposition::new(spec),
                2,
                cfg(isa, true),
                OverlapOptions::default(),
                move |sim| {
                    sim.set_threads(threads);
                    sim.init_blocks(stepped_front);
                    sim.set_rebalance_policy(Some(
                        RebalancePolicy::new(0, f64::INFINITY)
                            .with_forced_plan(8, vec![1, 1, 1, 1, 0, 0, 0, 0])
                            .with_forced_plan(16, vec![0, 0, 0, 0, 1, 1, 1, 1]),
                    ));
                    sim.step_n(STEPS);
                    let ids = sim.local_block_ids().to_vec();
                    let stats = sim.rebalance_stats().cloned().unwrap_or_default();
                    let blocks: Vec<_> = ids
                        .into_iter()
                        .zip(std::mem::take(&mut sim.blocks))
                        .collect();
                    (blocks, stats)
                },
            );
            let sent: u64 = out.iter().map(|(_, s)| s.blocks_sent).sum();
            assert_eq!(sent, 16, "{what}: 8 blocks x 2 forced swaps");
            let mut tagged: Vec<(usize, BlockState)> =
                out.into_iter().flat_map(|(blocks, _)| blocks).collect();
            tagged.sort_by_key(|(id, _)| *id);
            let fast: Vec<BlockState> = tagged.into_iter().map(|(_, b)| b).collect();
            assert_bit_identical(&plain, &fast, &what);
            assert_front_crossed_faces(&fast, &what);

            // `adopt_placement`: the two ranks trade all their blocks as
            // migration frames half-way and re-plan the exchange.
            let what = format!("adopt_placement {isa:?} threads={threads}");
            let (fast, _) = evolve(
                &params,
                spec,
                cfg(isa, true),
                2,
                threads,
                OverlapOptions::default(),
                None,
                STEPS,
                stepped_front,
                |sim, rank, step| {
                    if step == STEPS / 2 {
                        trade_all_blocks(sim, rank);
                    }
                },
            );
            assert_bit_identical(&plain, &fast, &what);
            assert_front_crossed_faces(&fast, &what);
        }
    }
}

/// Send every local block to the other rank as a migration frame, adopt the
/// swapped placement and install the blocks received.
fn trade_all_blocks(sim: &mut DistributedSim, rank: &Rank) {
    let peer = 1 - rank.rank();
    let frame_tag = |id: usize| 1_000_000 + id as u32;
    let entry = CostEntry {
        measured: None,
        prior: 1.0,
    };
    for (b, &id) in sim.blocks.iter().zip(sim.local_block_ids()) {
        let frame = encode_block(b, id as u64, &entry);
        rank.send(peer, frame_tag(id), Bytes::from(frame));
    }
    let swapped: Vec<usize> = sim.placement().iter().map(|&r| 1 - r).collect();
    sim.adopt_placement(swapped);
    for li in 0..sim.blocks.len() {
        let id = sim.local_block_ids()[li];
        let frame = rank.recv(peer, frame_tag(id));
        let (_, mut state, _) =
            decode_block(&frame, sim.blocks[li].dims, DEFAULT_FIELD_BYTE_BUDGET).unwrap();
        state.bc_phi = sim.blocks[li].bc_phi;
        state.bc_mu = sim.blocks[li].bc_mu;
        sim.blocks[li] = state;
    }
    rank.barrier();
}

#[test]
fn kill_and_restore_continues_bit_identically() {
    let params = growth_params();
    let spec = DomainSpec::directional(DOMAIN, BLOCKS);
    for isa in isas() {
        let (plain, _) = evolve(
            &params,
            spec,
            cfg(isa, false),
            1,
            1,
            OverlapOptions::default(),
            None,
            STEPS,
            stepped_front,
            no_hook,
        );
        for threads in THREADS {
            let what = format!("restore {isa:?} threads={threads}");
            let root: PathBuf = std::env::temp_dir().join(format!(
                "eut_fps_{}_{threads}_{}",
                isa.resolved_name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let mut opts = ResilientOpts::new(root.clone());
            opts.cadence = CheckpointCadence::fixed(4);
            opts.ranks = vec![2];
            opts.threads = threads;
            // Rank 1 dies at step 14, two steps past the set of step 12.
            opts.fault_plans = vec![FaultPlan::new(7).kill(1, 14)];
            let out = run_resilient(
                params.clone(),
                spec,
                cfg(isa, true),
                OverlapOptions::default(),
                STEPS,
                opts,
                stepped_front,
            )
            .expect("the run must recover");
            let _ = std::fs::remove_dir_all(&root);
            assert_eq!(out.attempts, 2, "{what}: the kill must force one restart");
            assert_bit_identical(&plain, &out.blocks, &what);
            assert_front_crossed_faces(&out.blocks, &what);
        }
    }
}
