//! The two `core::timeloop::DistributedSim` workloads, 2 ranks × 1 thread on
//! a 32×32×64 domain:
//!
//! * `exchange_smallblocks` — 32 blocks of 16³, fixed frame, telemetry off:
//!   the most messages and the most ghost surface per cell.
//! * `ops_bigblocks` — 2 blocks of 16×32×64 with the moving window, run in
//!   production dress (telemetry, health monitor, rebalance policy, in-situ
//!   observer, checkpoint sets), then restored from its newest set.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_blockgrid::rebalance::RebalancePolicy;
use eutectica_blockgrid::{ghost, Face, GridDims};
use eutectica_comm::{CommStats, Rank, Universe};
use eutectica_core::health::{HealthConfig, HealthMonitor};
use eutectica_core::init::{init_directional_block, VoronoiSeeds};
use eutectica_core::kernels::KernelConfig;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::{DistributedSim, OverlapOptions, StepTimings};
use eutectica_core::{N_COMP, N_PHASES};
use eutectica_obsv::{FrameBus, InSituObserver, ObservablesConfig};
use eutectica_pfio::ckpt::{self, Precision, DEFAULT_BYTE_BUDGET};
use eutectica_pfio::resilient::SimCheckpointExt;
use eutectica_telemetry::Telemetry;

use crate::common::{self, Leg, Snapshot};
use crate::ledger::{Checks, Layers};
use crate::spans::{self, Span, Tracer};
use crate::{stats, sys};

const DOMAIN: [usize; 3] = [32, 32, 64];
const RANKS: usize = 2;
/// The paper's best overlap setting (Fig. 8): hide µ only.
const OVERLAP: OverlapOptions = OverlapOptions {
    hide_mu: true,
    hide_phi: false,
};
const WINDOW_TRIGGER: f64 = 0.27;
/// Voronoi nuclei: one per 16² cells of cross-section, as
/// `Simulation::init_directional` places them.
const NUCLEI: usize = 4;
const HEALTH_EVERY: usize = 4;
const REBALANCE_EVERY: usize = 64;
const OBSERVE_EVERY: usize = 50;
const CKPT_EVERY: usize = 250;
const CKPT_KEEP: usize = 2;
/// Steps of each distributed workload that are re-run as 1 rank / 1 block.
const CROSSCHECK_STEPS: usize = 40;
/// Largest field difference the repo's own decomposition-invariance suite
/// (`tests/distributed_consistency.rs`) accepts between decompositions.
const CROSSCHECK_TOL: f64 = 1e-12;

/// What distinguishes the two workloads.
#[derive(Clone, Copy)]
pub struct DistCfg {
    tag: &'static str,
    blocks: [usize; 3],
    /// Moving window on (needs one block layer in z).
    window: bool,
    /// Telemetry, health, rebalance, observer, checkpoints.
    production: bool,
    /// Fixed step budget per second of `--seconds`.
    steps_per_second: u64,
}

pub const EXCHANGE_SMALLBLOCKS: DistCfg = DistCfg {
    tag: "exchange",
    blocks: [2, 2, 8],
    window: false,
    production: false,
    steps_per_second: 210,
};

pub const OPS_BIGBLOCKS: DistCfg = DistCfg {
    tag: "ops",
    blocks: [2, 1, 1],
    window: true,
    production: true,
    steps_per_second: 310,
};

fn decomposition(blocks: [usize; 3]) -> Decomposition {
    Decomposition::new(DomainSpec::directional(DOMAIN, blocks))
}

/// Construct, initialise (Voronoi nuclei from `seed`) and ghost-refresh one
/// rank's share of the simulation.
fn build<'r>(
    rank: &'r Rank,
    cfg: DistCfg,
    blocks: [usize; 3],
    seed: u64,
    telemetry: bool,
) -> DistributedSim<'r> {
    let params = common::params();
    let mut sim = DistributedSim::new(
        rank,
        params.clone(),
        decomposition(blocks),
        KernelConfig::default(),
        OVERLAP,
    );
    sim.set_telemetry(if telemetry {
        Telemetry::new(rank.rank())
    } else {
        Telemetry::disabled()
    });
    if cfg.window {
        sim.enable_moving_window(WINDOW_TRIGGER);
    }
    let seeds = VoronoiSeeds::generate(
        [DOMAIN[0], DOMAIN[1]],
        NUCLEI,
        params.sys.eutectic_fractions(),
        seed,
    );
    let fill = (DOMAIN[2] / 4).max(2);
    sim.init_blocks(|b| init_directional_block(b, &seeds, fill));
    if cfg.production {
        sim.set_health_monitor(Some(HealthMonitor::new(
            HealthConfig::for_params(&params).with_every(HEALTH_EVERY),
        )));
        sim.set_rebalance_policy(Some(RebalancePolicy::new(REBALANCE_EVERY, 1.05)));
    }
    sim
}

/// One set-up, timed from before the universe spawns until the slowest rank
/// has refreshed its ghosts.
pub fn setup_once(cfg: DistCfg, seed: u64) -> f64 {
    let spawn = Instant::now();
    Universe::run(RANKS, move |rank| {
        std::hint::black_box(build(&rank, cfg, cfg.blocks, seed, cfg.production));
        spawn.elapsed().as_secs_f64()
    })
    .into_iter()
    .fold(0.0, f64::max)
}

/// What one rank hands back to the main thread.
struct RankOut {
    wall_s: f64,
    process_cpu_s: f64,
    thread_cpu_s: f64,
    peak_rss_mb: f64,
    blocks: Vec<BlockState>,
    time: f64,
    window_shifts: usize,
    timings: StepTimings,
    setup_refresh_s: f64,
    comm: CommStats,
    comm_before: CommStats,
    spans: Vec<Span>,
    health_scans: u64,
    health_violations: u64,
    health_scan_s: f64,
    rebalance_checks: u64,
    blocks_sent: u64,
    ckpt_bytes: Vec<u64>,
    ckpt_errors: u64,
}

/// The timed region on one rank: `steps` closed-loop steps, each followed by
/// whatever the production dress does at that step.
#[allow(clippy::too_many_arguments)]
fn rank_main(
    rank: &Rank,
    cfg: DistCfg,
    seed: u64,
    steps: usize,
    traced: bool,
    spawn: Instant,
    root: &Path,
    bus: &Arc<FrameBus>,
) -> RankOut {
    let mut tr = Tracer::new(traced, spawn, rank.rank());
    tr.open("setup");
    let mut sim = build(rank, cfg, cfg.blocks, seed, cfg.production || traced);
    let mut observer = InSituObserver::new(ObservablesConfig::with_every(OBSERVE_EVERY));
    if rank.rank() == 0 {
        observer = observer.with_bus(Arc::clone(bus));
    }
    tr.close();
    let setup_refresh_s = sim
        .telemetry()
        .node_secs("refresh_src_ghosts")
        .unwrap_or(0.0);

    let mut ckpt_bytes = Vec::new();
    let mut ckpt_errors = 0;
    rank.barrier();
    let comm_before = rank.stats();
    let process_cpu0 = sys::process_cpu_seconds();
    let thread_cpu0 = sys::thread_cpu_seconds();
    let t = Instant::now();
    tr.open("timed");
    for _ in 0..steps {
        tr.scope("step", || sim.step());
        if !cfg.production {
            continue;
        }
        if observer.due(sim.step_index()) {
            tr.scope("observe", || observer.observe_distributed(&sim));
        }
        if sim.step_index() % CKPT_EVERY == 0 {
            tr.open("checkpoint");
            match sim.write_checkpoint_set(root, Precision::F64) {
                Ok(bytes) => ckpt_bytes.push(bytes),
                Err(_) => ckpt_errors += 1, // no manifest: invisible to restores
            }
            if rank.rank() == 0 {
                // The write's closing vote has passed, so no rank still
                // writes into a set this could remove.
                let _ = ckpt::prune_checkpoint_sets(root, CKPT_KEEP, None);
            }
            tr.close();
        }
    }
    rank.barrier();
    let wall_s = t.elapsed().as_secs_f64();
    tr.close();
    let process_cpu_s = sys::process_cpu_seconds() - process_cpu0;
    let thread_cpu_s = sys::thread_cpu_seconds() - thread_cpu0;
    let peak_rss_mb = sys::peak_rss_mb();

    let rb = sim.rebalance_stats();
    let counters = sim.telemetry().metrics_snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    RankOut {
        wall_s,
        process_cpu_s,
        thread_cpu_s,
        peak_rss_mb,
        time: sim.time(),
        window_shifts: sim.window_shifts(),
        timings: sim.timings,
        setup_refresh_s,
        comm: rank.stats(),
        comm_before,
        health_scans: counter("health/scans"),
        health_violations: counter("health/violations"),
        health_scan_s: counter("health/scan_wall_ns") as f64 * 1e-9,
        rebalance_checks: rb.map_or(0, |r| r.checks),
        blocks_sent: rb.map_or(0, |r| r.blocks_sent),
        ckpt_bytes,
        ckpt_errors,
        blocks: std::mem::take(&mut sim.blocks),
        spans: tr.into_spans(),
    }
}

/// Geometry of one block of the layout.
fn block_dims(blocks: [usize; 3]) -> GridDims {
    GridDims::new(
        DOMAIN[0] / blocks[0],
        DOMAIN[1] / blocks[1],
        DOMAIN[2] / blocks[2],
        1,
    )
}

/// Ghost bytes packed per step over all blocks (same-rank neighbours
/// included), counted with `ghost::message_bytes`: the sequenced φ_dst
/// exchange plus the plain µ_src exchange of the hide-µ path. Side walls are
/// periodic, so every block has its four lateral neighbours; z is open, so
/// each column of `blocks[2]` blocks has `blocks[2] − 1` z interfaces, each
/// crossed once in either direction.
fn ghost_bytes_per_step(blocks: [usize; 3]) -> u64 {
    let dims = block_dims(blocks);
    let per_face = |face| {
        ghost::message_bytes(dims, face, N_PHASES) + ghost::message_bytes_plain(dims, face, N_COMP)
    };
    let lateral: u64 = Face::ALL[..4].iter().map(|&f| per_face(f)).sum();
    let vertical = per_face(Face::ZLow) + per_face(Face::ZHigh);
    let columns = (blocks[0] * blocks[1]) as u64;
    columns * (blocks[2] as u64 * lateral + (blocks[2] as u64 - 1) * vertical)
}

/// Size in bytes of the workload's largest face message (the ping-pong
/// probe's payload).
pub fn face_message_bytes(cfg: DistCfg) -> usize {
    Face::ALL
        .iter()
        .map(|&f| ghost::message_bytes(block_dims(cfg.blocks), f, N_PHASES))
        .max()
        .unwrap_or(0) as usize
}

/// Run `steps` steps on `ranks` ranks with the given block layout and hand
/// back all final blocks (no production dress: it is inert by contract).
fn plain_run(
    cfg: DistCfg,
    blocks: [usize; 3],
    ranks: usize,
    seed: u64,
    steps: usize,
) -> Vec<BlockState> {
    let plain = DistCfg {
        production: false,
        ..cfg
    };
    Universe::run(ranks, move |rank| {
        let mut sim = build(&rank, plain, blocks, seed, false);
        sim.step_n(steps);
        std::mem::take(&mut sim.blocks)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Check: the first steps agree between this workload's decomposition and
/// 1 rank / 1 block.
fn crosscheck_single_block(checks: &mut Checks, cfg: DistCfg, seed: u64) {
    let fields = |blocks: Vec<BlockState>| {
        let base_z = blocks.iter().map(|b| b.origin[2]).min().unwrap_or(0);
        common::assemble(&blocks, DOMAIN, base_z)
    };
    let ours = fields(plain_run(cfg, cfg.blocks, RANKS, seed, CROSSCHECK_STEPS));
    let single = fields(plain_run(cfg, [1, 1, 1], 1, seed, CROSSCHECK_STEPS));
    let diff = common::max_abs_diff(&ours, &single);
    checks.check(
        "first steps match 1 rank / 1 block",
        diff <= CROSSCHECK_TOL,
        format!("max |Δ| = {diff:e} after {CROSSCHECK_STEPS} steps (tolerance {CROSSCHECK_TOL:e})"),
    );
}

/// Check: a fresh simulation restored from the newest checkpoint set and
/// stepped to the end lands on the live run's bits. Returns the restore
/// time in ms.
fn restore_and_continue(
    checks: &mut Checks,
    cfg: DistCfg,
    seed: u64,
    steps: usize,
    root: &Path,
    live: u64,
    tr: &mut Tracer,
) -> f64 {
    let Ok(Some((set_step, dir))) = ckpt::find_latest_checkpoint(root) else {
        checks.check(
            "restore-and-continue",
            false,
            "no valid checkpoint set found",
        );
        return 0.0;
    };
    tr.open("restore");
    let out = Universe::run(RANKS, move |rank| {
        let mut sim = build(&rank, cfg, cfg.blocks, seed, true);
        let t = Instant::now();
        let restored = sim.restore_from_set(&dir, DEFAULT_BYTE_BUDGET).is_ok();
        let restore_ms = t.elapsed().as_secs_f64() * 1e3;
        sim.step_n(steps.saturating_sub(sim.step_index()));
        let progress = (sim.step_index(), sim.window_shifts(), sim.time());
        (
            restored,
            restore_ms,
            progress,
            std::mem::take(&mut sim.blocks),
        )
    });
    tr.close();
    let restored = out.iter().all(|o| o.0);
    let restore_ms = out.iter().map(|o| o.1).fold(0.0, f64::max);
    let (step, shifts, time) = out[0].2;
    let digest = common::state_digest(out.iter().flat_map(|o| o.3.iter()), step, shifts, time);
    checks.check(
        "restore-and-continue is bit-identical",
        restored && digest == live,
        format!("set at step {set_step}, continued to {steps}: {digest:016x} vs live {live:016x}"),
    );
    restore_ms
}

/// Run one of the two workloads once.
pub fn run(cfg: DistCfg, seed: u64, seconds: u64, traced: bool) -> Leg {
    let steps = (cfg.steps_per_second * seconds) as usize;
    let root: PathBuf = sys::scratch_dir(cfg.tag);
    let bus = Arc::new(FrameBus::new(4096));
    let subscription = bus.subscribe();
    let mut checks = Checks::default();
    let mut layers = Layers::default();

    let spawn = Instant::now();
    let (root_in, bus_in) = (root.clone(), Arc::clone(&bus));
    let (mut outs, comm_summary) = Universe::run_with_stats(RANKS, move |rank| {
        rank_main(&rank, cfg, seed, steps, traced, spawn, &root_in, &bus_in)
    });
    let wall_s = outs[0].wall_s;
    let mut frames = 0u64;
    while subscription.try_recv().is_some() {
        frames += 1;
    }

    // Operations the driver asked for, and the ones that did not succeed.
    let comm_failed = |s: &CommStats| s.aborted_receives + s.sends_to_dead + s.fenced_messages;
    let failed_comm = comm_failed(&comm_summary.total);
    let sets = outs[0].ckpt_bytes.len() as u64;
    let ckpt_errors = outs[0].ckpt_errors;
    checks.operations("step", steps as u64, 0);
    checks.operations("checkpoint write", sets + ckpt_errors, ckpt_errors);
    checks.check(
        "comm saw no failed operation",
        failed_comm == 0,
        format!("{failed_comm} aborted/dead/fenced"),
    );
    if cfg.production {
        checks.check(
            "frame bus dropped nothing",
            bus.stats().dropped == 0,
            format!(
                "{} of {} frames",
                bus.stats().dropped,
                bus.stats().published
            ),
        );
        checks.check(
            "health monitor saw no violation",
            outs.iter().all(|o| o.health_violations == 0),
            format!("{} scans on rank 0", outs[0].health_scans),
        );
    }

    let (window_shifts, time) = (outs[0].window_shifts, outs[0].time);
    let digest = common::state_digest(
        outs.iter().flat_map(|o| o.blocks.iter()),
        steps,
        window_shifts,
        time,
    );

    let mut main_tr = Tracer::new(traced, spawn, 0);
    let mut restore_ms = 0.0;
    if cfg.production && steps >= CKPT_EVERY {
        restore_ms =
            restore_and_continue(&mut checks, cfg, seed, steps, &root, digest, &mut main_tr);
    }
    let _ = std::fs::remove_dir_all(&root);
    crosscheck_single_block(&mut checks, cfg, seed);

    let mut span_lists: Vec<Vec<Span>> = vec![main_tr.into_spans()];
    for o in &mut outs {
        span_lists.push(std::mem::take(&mut o.spans));
    }
    let spans = spans::merge(span_lists);

    if traced {
        // Shares are of the timed region's wall, averaged over the ranks.
        let share =
            |f: &dyn Fn(&RankOut) -> f64| outs.iter().map(f).sum::<f64>() / RANKS as f64 / wall_s;
        let span_share = |name: &str| {
            (0..RANKS)
                .map(|r| spans::durations(&spans, name, r).iter().sum::<f64>())
                .sum::<f64>()
                / RANKS as f64
                / wall_s
        };
        let compute = share(&|o| o.timings.compute.as_secs_f64());
        let phi_comm = share(&|o| o.timings.phi_comm.as_secs_f64());
        let mu_comm = share(&|o| o.timings.mu_comm.as_secs_f64());
        let bc = share(&|o| o.timings.bc.as_secs_f64());
        let refresh = share(&|o| o.timings.ghost_refresh.as_secs_f64() - o.setup_refresh_s);
        let health = share(&|o| o.health_scan_s);
        let (ckpt_share, observe) = (span_share("checkpoint"), span_share("observe"));
        layers.set("core.timeloop.compute_share", compute);
        layers.set("core.timeloop.phi_comm_share", phi_comm);
        layers.set("core.timeloop.mu_comm_share", mu_comm);
        layers.set("core.timeloop.bc_share", bc);
        layers.set("core.timeloop.ghost_refresh_share", refresh);
        layers.set(
            "core.timeloop.residual_share",
            1.0 - compute - phi_comm - mu_comm - bc - refresh - health - ckpt_share - observe,
        );
        let step_ms: Vec<f64> = (0..RANKS)
            .flat_map(|r| spans::durations(&spans, "step", r))
            .map(|s| s * 1e3)
            .collect();
        layers.set("core.timeloop.step_p50_ms", stats::median(&step_ms));
        layers.set(
            "core.timeloop.step_p99_ms",
            stats::percentile(&step_ms, 99.0),
        );
        let busy: Vec<f64> = outs.iter().map(|o| o.thread_cpu_s).collect();
        let mean_busy = busy.iter().sum::<f64>() / RANKS as f64;
        layers.set(
            "core.timeloop.rank_imbalance",
            busy.iter().copied().fold(0.0, f64::max) / mean_busy.max(1e-9),
        );

        layers.set(
            "blockgrid.ghost.bytes_per_step",
            ghost_bytes_per_step(cfg.blocks) as f64,
        );
        layers.set(
            "blockgrid.rebalance.epochs",
            outs[0].rebalance_checks as f64,
        );
        layers.set(
            "blockgrid.rebalance.blocks_moved",
            outs.iter().map(|o| o.blocks_sent).sum::<u64>() as f64,
        );

        let sent = |f: &dyn Fn(&CommStats) -> u64| {
            outs.iter()
                .map(|o| f(&o.comm) - f(&o.comm_before))
                .sum::<u64>() as f64
        };
        let bytes = sent(&|s| s.bytes_sent);
        layers.set("comm.bytes_per_step", bytes / steps as f64);
        layers.set(
            "comm.msgs_per_step",
            sent(&|s| s.messages_sent) / steps as f64,
        );
        layers.set("comm.exchange_mb_s", bytes / wall_s / 1e6);
        layers.set(
            "comm.recv_wait_share",
            share(&|o| (o.comm.recv_wait_time - o.comm_before.recv_wait_time).as_secs_f64()),
        );
        layers.set("comm.failed", failed_comm as f64);

        layers.set("core.health.scan_share", health);
        layers.set("core.health.scans", outs[0].health_scans as f64);
        layers.set(
            "core.health.violations",
            outs.iter().map(|o| o.health_violations).sum::<u64>() as f64,
        );

        if cfg.production {
            let write_ms: Vec<f64> = spans::durations(&spans, "checkpoint", 0)
                .iter()
                .map(|s| s * 1e3)
                .collect();
            let set_bytes: u64 = outs.iter().filter_map(|o| o.ckpt_bytes.first()).sum();
            let p50 = stats::median(&write_ms);
            layers.set("pfio.ckpt.write_ms_p50", p50);
            layers.set("pfio.ckpt.bytes_per_set", set_bytes as f64);
            if p50 > 0.0 {
                layers.set(
                    "pfio.ckpt.write_mb_s",
                    set_bytes as f64 / 1e6 / (p50 * 1e-3),
                );
            }
            layers.set("pfio.ckpt.restore_ms", restore_ms);
            layers.set("pfio.ckpt.share", ckpt_share);
            layers.set("pfio.ckpt.retries", ckpt_errors as f64);

            let observe_ms: Vec<f64> = spans::durations(&spans, "observe", 0)
                .iter()
                .map(|s| s * 1e3)
                .collect();
            layers.set("obsv.observe_ms_p50", stats::median(&observe_ms));
            layers.set("obsv.observe_share", observe);
            layers.set("obsv.frames", frames as f64);
            layers.set("obsv.bus_dropped", bus.stats().dropped as f64);
        }
    }

    let params = common::params();
    Leg {
        wall_s,
        cpu_s: outs[0].process_cpu_s,
        lups: (DOMAIN[0] * DOMAIN[1] * DOMAIN[2] * steps) as u64,
        ranks: RANKS,
        peak_rss_mb: outs[0].peak_rss_mb,
        digest,
        finals: outs
            .iter_mut()
            .flat_map(|o| std::mem::take(&mut o.blocks))
            .map(|state| Snapshot {
                params: params.clone(),
                time,
                state,
            })
            .collect(),
        checks,
        layers,
        spans,
    }
}
