//! Integration: silent-corruption defense. Seeded bit-flips and NaNs
//! injected into φ/µ must be detected by the periodic health scans within
//! one scan cadence, recovered by an in-flight rollback (no universe
//! teardown), and the recovered run must finish bit-identical to an
//! uninjected one. Poisoned checkpoint sets (written after the corruption)
//! and sets corrupted on disk must be skipped in favour of older valid
//! ones, and an exhausted rollback budget must escalate to a full restart
//! through a typed per-rank failure.

use std::path::PathBuf;

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_comm::Universe;
use eutectica_core::health::{
    FaultKind, FieldFault, FieldFaultPlan, FieldTarget, HealthConfig, HealthMonitor, HealthReport,
};
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::solver::Simulation;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::{run_distributed, DistributedSim, OverlapOptions};
use eutectica_core::{N_COMP, N_PHASES};
use eutectica_pfio::ckpt;
use eutectica_pfio::resilient::{
    run_resilient, AttemptFailure, CheckpointCadence, RankFailure, RecoveryPolicy, ResilientOpts,
    ResilientOutcome,
};
use proptest::prelude::*;

fn init(b: &mut BlockState) {
    let seeds = eutectica_core::init::VoronoiSeeds::generate([16, 16], 4, [0.34, 0.33, 0.33], 42);
    eutectica_core::init::init_directional_block(b, &seeds, 5);
}

/// Fresh per-test scratch directory (removed before and after use).
fn tmp_root(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("eut_ff_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Exact bit pattern of every interior φ/µ value plus block origins, in
/// global block-id order — equal fingerprints mean bit-identical states.
fn fingerprint(blocks: &[BlockState]) -> Vec<u64> {
    let mut out = Vec::new();
    for b in blocks {
        out.push(b.origin[0] as u64);
        out.push(b.origin[2] as u64);
        for (x, y, z) in b.dims.interior_iter() {
            for c in 0..N_PHASES {
                out.push(b.phi_src.at(c, x, y, z).to_bits());
            }
            for c in 0..N_COMP {
                out.push(b.mu_src.at(c, x, y, z).to_bits());
            }
        }
    }
    out
}

/// 2×2×1-block directional spec shared by the recovery cases.
fn spec() -> DomainSpec {
    DomainSpec::directional([16, 16, 12], [2, 2, 1])
}

/// Options with health scans at `scan_every` and checkpoints at `cadence`.
fn recovery_opts(root: PathBuf, cadence: usize, scan_every: usize) -> ResilientOpts {
    let mut opts = ResilientOpts::new(root);
    opts.cadence = CheckpointCadence::fixed(cadence);
    opts.recovery = RecoveryPolicy::with_health(
        HealthConfig::for_params(&ModelParams::ag_al_cu()).with_every(scan_every),
    );
    opts
}

fn run_with(opts: ResilientOpts, steps: usize) -> Result<ResilientOutcome, String> {
    run_resilient(
        ModelParams::ag_al_cu(),
        spec(),
        KernelConfig::default(),
        OverlapOptions::default(),
        steps,
        opts,
        init,
    )
    .map_err(|e| e.to_string())
}

/// NaN into φ component 0 of block 0 just before step `step` runs.
fn phi_nan_at(step: u64) -> FieldFaultPlan {
    FieldFaultPlan::new(0).inject(FieldFault {
        step,
        block: 0,
        cell: [3, 4, 5],
        target: FieldTarget::Phi(0),
        kind: FaultKind::Nan,
    })
}

#[test]
fn injected_nan_is_rolled_back_to_a_bit_identical_finish() {
    let steps = 12;

    let root = tmp_root("clean");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    let clean = run_with(opts, steps).expect("clean run");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(clean.attempts, 1);
    assert_eq!(clean.rollbacks, 0, "clean run must not trip the scans");

    // NaN fires before step 9→10; the scan at step 10 (cadence 2) detects
    // it, and the rollback lands on the step-8 set (cadence 4).
    let root = tmp_root("nan");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    opts.recovery.field_fault_plans = vec![phi_nan_at(9)];
    let hurt = run_with(opts, steps).expect("recovered run");
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(hurt.attempts, 1, "recovery must stay in-flight, no restart");
    assert_eq!(hurt.rollbacks, 1, "exactly one rollback expected");
    assert_eq!(hurt.restore_skips, 0, "the step-8 set predates the fault");
    assert_eq!(clean.time.to_bits(), hurt.time.to_bits());
    assert_eq!(
        fingerprint(&clean.blocks),
        fingerprint(&hurt.blocks),
        "recovered run diverged from the uninjected one"
    );
}

#[test]
fn threaded_detection_and_recovery_match_the_serial_run() {
    let steps = 12;

    let root = tmp_root("t_clean");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    let clean = run_with(opts, steps).expect("clean serial run");
    let _ = std::fs::remove_dir_all(&root);

    let root = tmp_root("t_nan");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    opts.threads = 2;
    opts.recovery.field_fault_plans = vec![phi_nan_at(9)];
    let hurt = run_with(opts, steps).expect("threaded recovered run");
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(hurt.attempts, 1);
    assert_eq!(hurt.rollbacks, 1, "threaded scans must detect identically");
    assert_eq!(
        fingerprint(&clean.blocks),
        fingerprint(&hurt.blocks),
        "multi-thread recovery diverged from the serial clean run"
    );
}

#[test]
fn poisoned_checkpoint_sets_are_skipped_in_favour_of_older_valid_ones() {
    // Checkpoints every 2 steps but scans only every 6: the NaN injected
    // before step 3→4 lands *inside* the step-4 set before the step-6 scan
    // sees it. The rollback must reject the poisoned step-4 set (restores
    // fine, scans unhealthy) and descend to the clean step-2 set.
    let steps = 12;

    let root = tmp_root("p_clean");
    let mut opts = recovery_opts(root.clone(), 2, 6);
    opts.ranks = vec![2];
    let clean = run_with(opts, steps).expect("clean run");
    let _ = std::fs::remove_dir_all(&root);

    let root = tmp_root("poison");
    let mut opts = recovery_opts(root.clone(), 2, 6);
    opts.ranks = vec![2];
    opts.recovery.field_fault_plans = vec![phi_nan_at(3)];
    let hurt = run_with(opts, steps).expect("recovered run");
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(hurt.attempts, 1);
    assert_eq!(hurt.rollbacks, 1);
    assert_eq!(
        hurt.restore_skips, 1,
        "the poisoned step-4 set must be skipped exactly once"
    );
    assert_eq!(
        fingerprint(&clean.blocks),
        fingerprint(&hurt.blocks),
        "recovery through a poisoned set diverged"
    );
}

#[test]
fn exhausted_rollback_budget_escalates_to_a_typed_restart() {
    // Two faults but budget for one rollback: the second unhealthy verdict
    // must end the attempt with RollbackExhausted (not a panic, not a
    // deadlock), and the fault-free second attempt completes the run.
    let steps = 12;
    let root = tmp_root("exhaust");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    opts.max_attempts = 2;
    opts.recovery.max_rollbacks = 1;
    opts.recovery.field_fault_plans = vec![phi_nan_at(5).inject(phi_nan_at(7).faults()[0])];
    let out = run_with(opts, steps).expect("second attempt must finish");
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(out.attempts, 2, "escalation must consume one extra attempt");
    assert_eq!(out.failures.len(), 1);
    match &out.failures[0] {
        AttemptFailure::Ranks(rs) => {
            assert_eq!(rs.len(), 2, "every rank reports the same typed failure");
            for r in rs {
                assert!(
                    matches!(r, RankFailure::RollbackExhausted { rollbacks: 2, .. }),
                    "unexpected rank failure: {r}"
                );
            }
        }
        other => panic!("expected typed rank failures, got: {other}"),
    }
    assert_eq!(out.rollbacks, 0, "the successful attempt was fault-free");
}

#[test]
fn on_disk_corruption_of_the_newest_set_falls_back_to_the_previous_one() {
    // Phase 1: a clean run leaves sets at steps 4 and 8 behind.
    let root = tmp_root("disk");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    run_with(opts, 12).expect("seeding run");

    // Flip one payload byte of a block file in the newest (step-8) set.
    let (step, dir) = ckpt::find_latest_checkpoint(&root).unwrap().unwrap();
    assert_eq!(step, 8);
    let victim = dir.join(ckpt::block_file_name(0));
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, bytes).unwrap();

    // Phase 2: resume towards step 16. The CRC-failing step-8 set must be
    // skipped (typed, per-rank consistent — not a rank-closure panic) and
    // the run resumes from step 4.
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    let resumed = run_with(opts, 16).expect("resume past the corrupt set");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(resumed.attempts, 1, "corrupt set must not cost an attempt");
    assert!(
        resumed.restore_skips >= 1,
        "the corrupt set was not skipped"
    );

    // The trajectory from the step-4 set is the clean trajectory.
    let root = tmp_root("disk_clean");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    let clean = run_with(opts, 16).expect("clean reference");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        fingerprint(&clean.blocks),
        fingerprint(&resumed.blocks),
        "resume through a corrupt set diverged"
    );
}

#[test]
fn retention_keeps_only_the_newest_valid_sets() {
    let root = tmp_root("retain");
    let mut opts = recovery_opts(root.clone(), 2, 4);
    opts.ranks = vec![2];
    opts.retain_sets = Some(2);
    run_with(opts, 12).expect("run with retention");

    let dirs: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .collect();
    assert_eq!(
        dirs.len(),
        2,
        "retention must leave exactly the two newest sets"
    );
    let (latest, _) = ckpt::find_latest_checkpoint(&root).unwrap().unwrap();
    assert_eq!(latest, 10, "newest retained set is the last one written");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn chaos_seeded_fault_recovers_bit_identically() {
    // CI chaos matrix entry point: the seed comes from the environment so
    // the nightly job can sweep several deterministic corruptions.
    let seed: u64 = std::env::var("EUTECTICA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let steps = 12;

    let root = tmp_root("chaos_clean");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    let clean = run_with(opts, steps).expect("clean run");
    let _ = std::fs::remove_dir_all(&root);

    let root = tmp_root("chaos");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    // NaN is detectable wherever it lands; block/cell/component are
    // seed-derived. Fires before step 9→10, inside checkpointed history.
    opts.recovery.field_fault_plans = vec![FieldFaultPlan::random_fault(
        seed,
        9,
        4,
        [8, 8, 12],
        FaultKind::Nan,
    )];
    let hurt = run_with(opts, steps).expect("seeded recovery");
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(
        hurt.attempts, 1,
        "seed {seed}: recovery must stay in-flight"
    );
    assert_eq!(hurt.rollbacks, 1, "seed {seed}: one rollback expected");
    assert_eq!(
        fingerprint(&clean.blocks),
        fingerprint(&hurt.blocks),
        "seed {seed}: recovered run diverged"
    );
}

#[test]
fn rebalanced_rollback_restores_onto_the_migrated_placement() {
    // Dynamic rebalancing composes with the silent-corruption defense: a
    // forced migration swaps every block between the ranks after step 2, so
    // all later checkpoints are written by the *new* owners; the NaN
    // injected before step 9→10 then forces a rollback to the step-8 set,
    // which must restore onto the migrated placement — and the whole thing
    // must stay bit-identical to a static run that never migrated and never
    // faulted.
    use eutectica_blockgrid::rebalance::RebalancePolicy;
    let steps = 12;

    let root = tmp_root("rb_static");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    let static_clean = run_with(opts, steps).expect("static clean run");
    let _ = std::fs::remove_dir_all(&root);

    // spec() has 4 blocks placed [0,0,1,1] on 2 ranks; swap them all.
    let swap = RebalancePolicy::new(0, f64::INFINITY).with_forced_plan(2, vec![1, 1, 0, 0]);

    let root = tmp_root("rb_clean");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    opts.rebalance = Some(swap.clone());
    let clean = run_with(opts, steps).expect("rebalanced clean run");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(clean.rollbacks, 0);
    assert_eq!(
        fingerprint(&static_clean.blocks),
        fingerprint(&clean.blocks),
        "migration alone must not change the physics"
    );

    let root = tmp_root("rb_nan");
    let mut opts = recovery_opts(root.clone(), 4, 2);
    opts.ranks = vec![2];
    opts.rebalance = Some(swap);
    opts.recovery.field_fault_plans = vec![phi_nan_at(9)];
    let hurt = run_with(opts, steps).expect("rebalanced recovered run");
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(hurt.attempts, 1, "recovery must stay in-flight");
    assert_eq!(hurt.rollbacks, 1, "exactly one rollback expected");
    assert_eq!(static_clean.time.to_bits(), hurt.time.to_bits());
    assert_eq!(
        fingerprint(&static_clean.blocks),
        fingerprint(&hurt.blocks),
        "rollback onto the migrated placement diverged from the static run"
    );
}

/// Acceptance gauge: at the default cadence the scan overhead on a 64³
/// single-rank domain stays under 2 % of step wall time. Wall-clock
/// dependent, so ignored by default; the chaos CI job runs it explicitly.
#[test]
#[ignore = "wall-clock acceptance measurement; run explicitly"]
fn scan_overhead_stays_under_two_percent_on_64_cubed() {
    let spec = DomainSpec::directional([64, 64, 64], [1, 1, 1]);
    let fracs = Universe::run(1, move |rank| {
        let mut sim = DistributedSim::new(
            &rank,
            ModelParams::ag_al_cu(),
            Decomposition::new(spec),
            KernelConfig::default(),
            OverlapOptions::default(),
        );
        sim.init_blocks(init);
        sim.set_health_monitor(Some(HealthMonitor::new(HealthConfig::for_params(
            &ModelParams::ag_al_cu(),
        ))));
        let wall = std::time::Instant::now();
        for _ in 0..8 {
            sim.step();
        }
        let total = wall.elapsed().as_secs_f64();
        let snap = sim.telemetry().metrics_snapshot();
        assert_eq!(snap.counters["health/scans"], 2, "default cadence is 4");
        // Amortized over the cadence: total scan time vs total run time.
        snap.counters["health/scan_wall_ns"] as f64 * 1e-9 / total
    });
    let frac = fracs[0];
    assert!(
        frac < 0.02,
        "health scans took {:.2} % of run wall time at default cadence (budget 2 %)",
        frac * 100.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Any single NaN, at any cell / component / step, in either field, is
    /// flagged by the scan cadence within one period: the fault fires
    /// before step k→k+1, so the first scan at step s ≡ 0 (mod every) with
    /// s ≥ k+1 must report unhealthy — and it must do so identically at
    /// every thread count. (NaN is the in-flight guarantee because it
    /// survives the sweeps: a φ NaN enters µ through h(φ), gradients and
    /// dφ/dt, and nothing ever clips µ. Exponent bit-flips on φ are instead
    /// neutralized within one step by the kernels' built-in simplex
    /// projection, so their scan-level detection guarantee — exercised by
    /// the `core::health` unit tests — applies where state is scanned
    /// directly, i.e. checkpoint validation on restore.)
    #[test]
    fn any_single_nan_is_detected_within_one_cadence(
        step in 1u64..5,
        cell in (0usize..8, 0usize..8, 0usize..8),
        phase in 0usize..N_PHASES,
        comp in 0usize..N_COMP,
        pick in 0usize..2,
        threads in 1usize..3,
    ) {
        let fault = FieldFault {
            step,
            block: 0,
            cell: [cell.0, cell.1, cell.2],
            target: match pick {
                1 => FieldTarget::Mu(comp),
                _ => FieldTarget::Phi(phase),
            },
            kind: FaultKind::Nan,
        };
        let every = 2usize;
        let spec = DomainSpec::directional([8, 8, 8], [1, 1, 1]);
        let detected = Universe::run(1, move |rank| {
            let mut sim = DistributedSim::new(
                &rank,
                ModelParams::ag_al_cu(),
                Decomposition::new(spec),
                KernelConfig::default(),
                OverlapOptions::default(),
            );
            sim.set_threads(threads);
            sim.init_blocks(init);
            let cfg = HealthConfig::for_params(&ModelParams::ag_al_cu()).with_every(every);
            sim.set_health_monitor(Some(
                HealthMonitor::new(cfg).with_faults(FieldFaultPlan::new(0).inject(fault)),
            ));
            let mut detected_at = None;
            for _ in 0..8 {
                sim.step();
                if detected_at.is_none() && sim.take_unhealthy_report().is_some() {
                    detected_at = Some(sim.step_index());
                }
            }
            detected_at
        });
        let detected_at = detected[0];
        // First scan at or after step+1, on the cadence grid.
        let expect = (step as usize + 1).next_multiple_of(every);
        prop_assert_eq!(
            detected_at, Some(expect),
            "fault {:?} (threads {}) missed its cadence window", fault, threads
        );
    }
}

/// Step until the attached monitor reports unhealthy (at most 8 steps).
fn first_unhealthy(mut step: impl FnMut() -> Option<HealthReport>) -> Option<HealthReport> {
    (0..8).find_map(|_| step())
}

/// `Simulation` runs the ranked form's health stage on its one block: a NaN
/// injected before step 3 is reported by the scan after step 4, with the
/// same global counts as a one-rank `DistributedSim` on a single block.
#[test]
fn one_block_health_stage_matches_the_ranked_form() {
    let params = ModelParams::ag_al_cu();
    let cells = [16, 16, 16];
    let plan = FieldFaultPlan::new(1).inject(FieldFault {
        step: 3,
        block: 0,
        cell: [2, 3, 4],
        target: FieldTarget::Mu(0),
        kind: FaultKind::Nan,
    });
    let monitor =
        HealthMonitor::new(HealthConfig::for_params(&params).with_every(2)).with_faults(plan);

    let mut sim = Simulation::new(params.clone(), cells).unwrap();
    init(&mut sim.state);
    sim.set_health_monitor(Some(monitor.clone()));
    let single = first_unhealthy(|| {
        sim.step();
        sim.take_unhealthy_report()
    })
    .expect("the NaN is reported");

    let decomp = Decomposition::new(DomainSpec::directional(cells, [1, 1, 1]));
    let cfg = KernelConfig::default();
    let ranked = run_distributed(
        params,
        decomp,
        1,
        cfg,
        OverlapOptions::default(),
        move |d| {
            d.init_blocks(init);
            d.set_health_monitor(Some(monitor.clone()));
            first_unhealthy(|| {
                d.step();
                d.take_unhealthy_report()
            })
        },
    );
    let ranked = ranked[0].clone().expect("the NaN is reported");
    assert_eq!(single.step, 4);
    assert!(!single.is_healthy());
    assert_eq!((single.step, single.global), (ranked.step, ranked.global));
}

/// A healthy `Simulation` scanned after every step stays bit-identical to
/// the same run without a monitor.
#[test]
fn healthy_one_block_scans_leave_the_fields_untouched() {
    let params = ModelParams::ag_al_cu();
    let run = |monitor: Option<HealthMonitor>| {
        let mut sim = Simulation::new(params.clone(), [16, 16, 16]).unwrap();
        init(&mut sim.state);
        sim.set_health_monitor(monitor);
        sim.step_n(6);
        assert!(sim.take_unhealthy_report().is_none());
        sim
    };
    let plain = run(None);
    let every_step = HealthConfig::for_params(&params).with_every(1);
    let scanned = run(Some(HealthMonitor::new(every_step)));
    let counters = scanned.telemetry().metrics_snapshot().counters;
    assert_eq!(counters["health/scans"], 6);
    assert_eq!(
        fingerprint(std::slice::from_ref(&plain.state)),
        fingerprint(std::slice::from_ref(&scanned.state))
    );
}
