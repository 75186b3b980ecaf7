//! Campaign isolation property tests.
//!
//! Property 1 — **fleet transparency**: a job executed inside a co-scheduled
//! campaign is bit-identical to the same parameter point run standalone,
//! for every rank count and thread count. The campaign machinery (slicing,
//! round-robin interleaving, progress streaming, checkpoint cadence,
//! health scans) must be invisible to the physics.
//!
//! Property 2 — **sibling isolation**: corrupting one job (rollback
//! recovery) or killing it outright (budget exhaustion) leaves every other
//! job byte-equal to an undisturbed campaign.

use std::collections::BTreeMap;
use std::path::PathBuf;

use eutectica_campaign::{
    field_checksum, run_campaign, standalone_sim, CampaignOpts, CampaignSpec, JobStatus,
};
use eutectica_comm::Universe;
use eutectica_core::health::{FaultKind, FieldFault, FieldFaultPlan, FieldTarget, HealthConfig};
use eutectica_core::params::ModelParams;
use eutectica_obsv::JobRecord;

/// 32 parameter points: 2 velocities × 2 gradients × 2 compositions ×
/// 4 seeds on a small directional domain.
fn spec_32() -> CampaignSpec {
    let mut s = CampaignSpec::around(ModelParams::ag_al_cu(), [8, 8, 12], 6, vec![1, 2, 3, 4]);
    s.velocities = vec![0.015, 0.02];
    s.gradients = vec![0.001, 0.002];
    s.compositions = vec![[1.0 / 3.0; 3], [0.4, 0.3, 0.3]];
    s
}

/// Small 4-job spec for the recovery-isolation drills.
fn spec_4() -> CampaignSpec {
    CampaignSpec::around(ModelParams::ag_al_cu(), [8, 8, 12], 12, vec![1, 2, 3, 4])
}

fn tmp_root(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "eutectica_campaign_iso_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Run the campaign on `ranks` ranks and merge every rank's local results:
/// key → (checksum, status, rollbacks), plus the collector's fleet records.
#[allow(clippy::type_complexity)]
fn run_fleet(
    spec: CampaignSpec,
    ranks: usize,
    opts: CampaignOpts,
) -> (BTreeMap<u32, (u64, JobStatus, u64)>, Vec<JobRecord>) {
    let out = Universe::run(ranks, move |rank| {
        let report = run_campaign(&rank, &spec, &opts).unwrap();
        let locals: Vec<(u32, u64, JobStatus, u64)> = report
            .local
            .iter()
            .map(|l| (l.key, l.checksum, l.status.clone(), l.rollbacks))
            .collect();
        (locals, report.fleet)
    });
    let mut map = BTreeMap::new();
    let mut fleet = Vec::new();
    for (locals, f) in out {
        for (k, sum, st, rb) in locals {
            assert!(
                map.insert(k, (sum, st, rb)).is_none(),
                "job {k} resident twice"
            );
        }
        if let Some(f) = f {
            assert!(fleet.is_empty(), "two collectors reported a fleet");
            fleet = f.jobs;
        }
    }
    (map, fleet)
}

/// Serial standalone reference checksums, one per job.
fn reference_checksums(spec: &CampaignSpec) -> BTreeMap<u32, u64> {
    spec.expand()
        .unwrap()
        .iter()
        .map(|j| {
            let mut sim = standalone_sim(j).unwrap();
            for _ in 0..j.steps {
                sim.step();
            }
            (j.key, field_checksum(&sim.state))
        })
        .collect()
}

#[test]
fn fleet_jobs_are_bit_identical_to_standalone_across_ranks_and_threads() {
    let spec = spec_32();
    assert_eq!(spec.points(), 32);
    let reference = reference_checksums(&spec);

    for ranks in [1usize, 2, 4] {
        for threads in [1usize, 2] {
            let opts = CampaignOpts {
                threads,
                slice_steps: 2,
                ..CampaignOpts::default()
            };
            let (locals, fleet) = run_fleet(spec.clone(), ranks, opts);
            assert_eq!(locals.len(), 32, "ranks={ranks} threads={threads}");
            for (key, (sum, status, rollbacks)) in &locals {
                assert_eq!(*status, JobStatus::Done, "job {key}");
                assert_eq!(*rollbacks, 0, "job {key}");
                assert_eq!(
                    *sum, reference[key],
                    "job {key} diverged from standalone at ranks={ranks} threads={threads}"
                );
            }
            // The collector's fleet view carries the same checksums.
            assert_eq!(fleet.len(), 32);
            for rec in &fleet {
                assert_eq!(rec.status, "done");
                assert_eq!(rec.step, rec.steps_total);
                assert_eq!(
                    rec.checksum, reference[&rec.job],
                    "collector checksum for job {} ranks={ranks} threads={threads}",
                    rec.job
                );
            }
        }
    }
}

/// A transient field fault rolled back from a per-job checkpoint rejoins
/// the undisturbed trajectory bit-exactly, and siblings never notice.
#[test]
fn rollback_recovery_is_bit_exact_and_leaves_siblings_untouched() {
    let spec = spec_4();
    let health = HealthConfig::for_params(&spec.base).with_every(2);
    let base_opts = |root: PathBuf| {
        let mut opts = CampaignOpts {
            slice_steps: 3,
            ckpt_root: Some(root),
            ckpt_every: 2,
            keep_sets: 3,
            ..CampaignOpts::default()
        };
        opts.recovery.health = Some(health);
        opts.recovery.max_rollbacks = 2;
        opts
    };

    // Undisturbed baseline.
    let root_a = tmp_root("clean");
    let (clean, _) = run_fleet(spec.clone(), 2, base_opts(root_a.clone()));
    for (key, (_, status, rollbacks)) in &clean {
        assert_eq!(*status, JobStatus::Done, "job {key}");
        assert_eq!(*rollbacks, 0);
    }

    // Same campaign, but job 2 takes a NaN upset before step 6: checkpoints
    // exist at steps 2 and 4, the scan at step 6 detects, the job rolls
    // back to step 4 and re-runs clean (fire-once fault).
    let root_b = tmp_root("fault");
    let mut opts = base_opts(root_b.clone());
    opts.job_faults.insert(
        2,
        FieldFaultPlan::new(7).inject(FieldFault {
            step: 5,
            block: 2,
            cell: [3, 2, 1],
            target: FieldTarget::Phi(0),
            kind: FaultKind::Nan,
        }),
    );
    let (faulted, _) = run_fleet(spec.clone(), 2, opts);
    assert_eq!(faulted.len(), clean.len());
    for (key, (sum, status, rollbacks)) in &faulted {
        assert_eq!(*status, JobStatus::Done, "job {key}");
        let expected_rollbacks = if *key == 2 { 1 } else { 0 };
        assert_eq!(*rollbacks, expected_rollbacks, "job {key}");
        assert_eq!(
            *sum, clean[key].0,
            "job {key} diverged from the undisturbed campaign"
        );
    }

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

/// A set written between the fault and the scan that catches it holds the
/// corruption: a rollback must skip it for the older clean set.
#[test]
fn rollback_skips_a_poisoned_set_for_the_clean_one_below() {
    let spec = spec_4();
    let health = HealthConfig::for_params(&spec.base).with_every(4);
    let base_opts = |root: PathBuf| {
        let mut opts = CampaignOpts {
            slice_steps: 3,
            ckpt_root: Some(root),
            ckpt_every: 2,
            keep_sets: 3,
            ..CampaignOpts::default()
        };
        opts.recovery.health = Some(health);
        opts.recovery.max_rollbacks = 2;
        opts
    };

    let root_a = tmp_root("poison_clean");
    let (clean, _) = run_fleet(spec.clone(), 1, base_opts(root_a.clone()));

    // Job 2's µ₀ goes NaN before step 6. Sets land at steps 2, 4 and 6 and
    // the scans run at 4 and 8, so the step-6 set is poisoned and the
    // step-8 scan rolls back past it to step 4.
    let root_b = tmp_root("poison_fault");
    let mut opts = base_opts(root_b.clone());
    opts.job_faults.insert(
        2,
        FieldFaultPlan::new(11).inject(FieldFault {
            step: 5,
            block: 2,
            cell: [3, 2, 1],
            target: FieldTarget::Mu(0),
            kind: FaultKind::Nan,
        }),
    );
    let (faulted, _) = run_fleet(spec.clone(), 1, opts);
    assert_eq!(faulted.len(), clean.len());
    for (key, (sum, status, rollbacks)) in &faulted {
        assert_eq!(*status, JobStatus::Done, "job {key}");
        assert_eq!(*rollbacks, u64::from(*key == 2), "job {key}");
        assert_eq!(
            *sum, clean[key].0,
            "job {key} diverged from the undisturbed campaign"
        );
    }

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

/// splitmix64: the test's seed-derived choices.
fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The campaign twin of `field_faults.rs`'s seeded chaos case: the seed
/// (`EUTECTICA_CHAOS_SEED`, default 1) picks the job, the fault step, its
/// cell and target, and scan and checkpoint cadences that need not divide
/// each other. The faulted job recovers onto the undisturbed trajectory
/// when a clean set precedes the fault, and fails with "no rollback
/// target" exactly when none does; its siblings never notice.
#[test]
fn chaos_seeded_job_fault_recovers_or_has_no_rollback_target() {
    let seed: u64 = std::env::var("EUTECTICA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let spec = spec_4();
    let steps = spec.steps as u64;
    let scan_every = 2 + mix(seed, 0) % 4;
    let ckpt_every = 2 + mix(seed, 1) % 4;
    let key = (mix(seed, 2) % 4) as u32;
    // A scan at or before the last step follows the fault.
    let fault_step = 1 + mix(seed, 3) % (steps - scan_every);
    let health = HealthConfig::for_params(&spec.base).with_every(scan_every as usize);
    let base_opts = |root: PathBuf| {
        let mut opts = CampaignOpts {
            slice_steps: 3,
            ckpt_root: Some(root),
            ckpt_every: ckpt_every as usize,
            // At most two poisoned sets precede the catching scan, so the
            // newest clean set is never pruned.
            keep_sets: 3,
            ..CampaignOpts::default()
        };
        opts.recovery.health = Some(health);
        opts.recovery.max_rollbacks = 1;
        opts
    };
    let what = format!(
        "seed {seed}: job {key}, fault before step {}, scans every {scan_every}, \
         checkpoints every {ckpt_every}",
        fault_step + 1
    );

    let root_a = tmp_root("chaos_clean");
    let (clean, _) = run_fleet(spec.clone(), 2, base_opts(root_a.clone()));

    let root_b = tmp_root("chaos_fault");
    let mut opts = base_opts(root_b.clone());
    let plan = FieldFaultPlan::random_fault(seed, fault_step, 1, [8, 8, 12], FaultKind::Nan);
    opts.job_faults.insert(key, plan);
    let (faulted, _) = run_fleet(spec.clone(), 2, opts);

    // The set written at a multiple of `ckpt_every` up to the fault step
    // holds the state before the fault.
    let clean_set_precedes = ckpt_every <= fault_step;
    for (k, (sum, status, rollbacks)) in &faulted {
        if *k != key {
            assert_eq!(*status, JobStatus::Done, "{what}: sibling {k}");
            assert_eq!(*sum, clean[k].0, "{what}: sibling {k} perturbed");
        } else if clean_set_precedes {
            assert_eq!(*status, JobStatus::Done, "{what}");
            assert_eq!(*rollbacks, 1, "{what}");
            assert_eq!(*sum, clean[k].0, "{what}: recovered job diverged");
        } else {
            let prefix = format!("job {key}: no rollback target");
            assert!(
                matches!(status, JobStatus::Failed(reason) if reason.starts_with(&prefix)),
                "{what}: expected a no-rollback-target failure, got {status:?}"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

/// Exhausting one job's rollback budget fails that job only: the rest of
/// the fleet completes byte-equal to the undisturbed campaign.
#[test]
fn budget_exhaustion_fails_one_job_without_perturbing_the_fleet() {
    let spec = spec_4();
    let health = HealthConfig::for_params(&spec.base).with_every(2);

    let root_a = tmp_root("exh_clean");
    let mut clean_opts = CampaignOpts {
        slice_steps: 3,
        ckpt_root: Some(root_a.clone()),
        ckpt_every: 2,
        keep_sets: 3,
        ..CampaignOpts::default()
    };
    clean_opts.recovery.health = Some(health);
    clean_opts.recovery.max_rollbacks = 2;
    let (clean, _) = run_fleet(spec.clone(), 2, clean_opts);

    let root_b = tmp_root("exh_fault");
    let mut opts = CampaignOpts {
        slice_steps: 3,
        ckpt_root: Some(root_b.clone()),
        ckpt_every: 2,
        keep_sets: 3,
        ..CampaignOpts::default()
    };
    opts.recovery.health = Some(health);
    opts.recovery.max_rollbacks = 0; // no budget: first upset is fatal
    opts.job_faults.insert(
        1,
        FieldFaultPlan::new(9).inject(FieldFault {
            step: 5,
            block: 1,
            cell: [1, 1, 2],
            target: FieldTarget::Mu(0),
            kind: FaultKind::Nan,
        }),
    );
    let (faulted, fleet) = run_fleet(spec.clone(), 2, opts);
    assert_eq!(faulted.len(), clean.len());
    for (key, (sum, status, _)) in &faulted {
        if *key == 1 {
            assert!(
                matches!(status, JobStatus::Failed(reason) if reason.contains("budget")),
                "job 1 should fail on budget, got {status:?}"
            );
        } else {
            assert_eq!(*status, JobStatus::Done, "job {key}");
            assert_eq!(
                *sum, clean[key].0,
                "job {key} perturbed by a sibling's failure"
            );
        }
    }
    // The collector sees the failure too; the fleet still terminated.
    let failed: Vec<u32> = fleet
        .iter()
        .filter(|r| r.status == "failed")
        .map(|r| r.job)
        .collect();
    assert_eq!(failed, vec![1]);

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}
