//! The campaign runner: round-robin co-stepping of resident jobs, job-keyed
//! progress streaming to a collector rank, per-job isolated recovery, and
//! shrink-and-continue adoption of a dead rank's jobs.
//!
//! # Protocol
//!
//! 1. Every rank expands the spec (deterministic) and computes the LPT
//!    schedule locally; the lowest alive rank (the *scheduler/collector*)
//!    broadcasts its assignment as the single source of truth.
//! 2. The run proceeds in *rounds*. Each round, a rank steps every
//!    resident active job one slice (round-robin), then streams one
//!    progress message per resident job to the collector on that job's
//!    own comm tag ([`eutectica_comm::campaign_tag`]) — the
//!    exchange-partitioned routing idiom: the tag is the key, no payload
//!    demultiplexing. The round ends with an allreduce of the remaining
//!    active-job count; the campaign is over when it reaches zero.
//! 3. A rank death surfaces as a [`CommError`] somewhere in the round.
//!    Survivors run a membership round, deterministically re-plan the
//!    dead ranks' jobs over the survivor set (LPT again, same tie-breaks)
//!    and adopt them from their per-job checkpoint namespaces — a job
//!    with no usable set restarts from its initial condition, which lands
//!    on the identical trajectory.
//!
//! # Isolation guarantees
//!
//! Each job owns its checkpoint namespace (`<root>/job_<key>/`), health
//! monitor, fault plan, and rollback budget. The monitor and plan ride on
//! the job's own `Simulation`, whose stage list injects the faults and
//! runs the scans; the namespace and budget ride on the job's
//! [`StepRecovery`], the same rollback-and-checkpoint path the ranks of
//! `run_resilient` run after every step. A NaN rollback, a failed job, or
//! an adopted orphan never touches a sibling's `Simulation` — the
//! bit-identity property tests pin this.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use eutectica_blockgrid::balance::assign_lpt_over;
use eutectica_comm::{campaign_tag, catch_comm, CommError, Rank};
use eutectica_core::health::{FieldFault, FieldFaultPlan, HealthMonitor};
use eutectica_core::init;
use eutectica_core::solver::Simulation;
use eutectica_core::state::BlockState;
use eutectica_core::sweep_pool::SweepPool;
use eutectica_core::{N_COMP, N_PHASES};
use eutectica_obsv::{FrameBus, JobRecord};
use eutectica_pfio::ckpt::Precision;
use eutectica_pfio::resilient::{AfterStep, RecoveryPolicy, StepRecovery, MAX_SHRINKS};
use eutectica_telemetry::Telemetry;

use crate::sched::{self, Schedule};
use crate::spec::{CampaignError, CampaignSpec, JobSpec};

/// Execution options of [`run_campaign`].
#[derive(Clone)]
pub struct CampaignOpts {
    /// Sweep-pool threads per rank, shared by all resident jobs (1 =
    /// serial; threaded stepping is bit-identical to serial).
    pub threads: usize,
    /// Steps each active job advances per round before the rank moves to
    /// its next resident job.
    pub slice_steps: usize,
    /// Campaign checkpoint root; every job gets its own namespace below
    /// it. `None` disables checkpoints (and with them rollback and
    /// checkpoint-based adoption).
    pub ckpt_root: Option<PathBuf>,
    /// Per-job checkpoint cadence in steps (0 = no cadence checkpoints).
    pub ckpt_every: usize,
    /// Checkpoint sets retained per job namespace.
    pub keep_sets: usize,
    /// Per-job silent-corruption recovery: health-scan config and the
    /// rollback budget (each job gets its *own* budget). The policy's
    /// `field_fault_plans` are ignored — use [`CampaignOpts::job_faults`]
    /// to target a specific job.
    pub recovery: RecoveryPolicy,
    /// Deterministic per-job fault injection for tests/chaos drills, keyed
    /// by job: each fault lands on the job's one block, whatever its
    /// `block` field says.
    pub job_faults: BTreeMap<u32, FieldFaultPlan>,
    /// Rank-death survival: `true` adopts dead ranks' jobs onto survivors
    /// (up to [`MAX_SHRINKS`] deaths) from their job checkpoints; `false`
    /// escalates the comm error.
    pub shrink: bool,
    /// Per-region kernel rates (interface/liquid/solid MLUP/s) keying the
    /// scheduler's cost estimates (default:
    /// [`eutectica_core::regions::DEFAULT_REGION_RATES`]).
    pub rates: [f64; 3],
    /// Observability bus for `{"type":"job"}` frames (collector only).
    pub bus: Option<Arc<FrameBus>>,
    /// Telemetry collector for campaign counters and per-job lanes.
    pub telemetry: Telemetry,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        Self {
            threads: 1,
            slice_steps: 8,
            ckpt_root: None,
            ckpt_every: 0,
            keep_sets: 2,
            recovery: RecoveryPolicy::default(),
            job_faults: BTreeMap::new(),
            shrink: false,
            rates: eutectica_core::regions::DEFAULT_REGION_RATES,
            bus: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Terminal status of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Still stepping.
    Active,
    /// Reached its step budget.
    Done,
    /// Dropped from the fleet with a reason (rollback budget exhausted,
    /// no rollback target, …). Siblings are unaffected.
    Failed(String),
}

impl JobStatus {
    fn wire(&self) -> u8 {
        match self {
            Self::Active => 0,
            Self::Done => 1,
            Self::Failed(_) => 2,
        }
    }

    /// Wire/display name of the status (`active`/`done`/`failed`).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Active => "active",
            Self::Done => "done",
            Self::Failed(_) => "failed",
        }
    }
}

/// FNV-1a 64 over the interior field bits — the per-job result checksum
/// streamed to the collector and compared across recovery paths.
pub fn field_checksum(state: &BlockState) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let d = state.dims;
    for c in 0..N_PHASES {
        for (x, y, z) in d.interior_iter() {
            eat(state.phi_src.at(c, x, y, z));
        }
    }
    for c in 0..N_COMP {
        for (x, y, z) in d.interior_iter() {
            eat(state.mu_src.at(c, x, y, z));
        }
    }
    h
}

/// One job resident on this rank.
struct ResidentJob {
    spec: JobSpec,
    sim: Simulation,
    /// The job's checkpoint namespace, retention and rollback budget.
    recovery: StepRecovery,
    status: JobStatus,
    checksum: u64,
}

impl ResidentJob {
    fn finish_if_due(&mut self) {
        if self.status == JobStatus::Active && self.sim.steps() >= self.spec.steps {
            self.checksum = field_checksum(&self.sim.state);
            self.status = JobStatus::Done;
        }
    }
}

/// Final state of a job that finished resident on this rank (fields
/// included, so tests can compare byte-for-byte against references).
pub struct LocalJobResult {
    /// Job key.
    pub key: u32,
    /// Final source fields.
    pub state: BlockState,
    /// Completed steps.
    pub steps: usize,
    /// Final simulation time.
    pub time: f64,
    /// Rollbacks consumed.
    pub rollbacks: u64,
    /// Terminal status.
    pub status: JobStatus,
    /// [`field_checksum`] of the final fields.
    pub checksum: u64,
}

/// Fleet-wide view assembled on the collector rank.
#[derive(Clone, Debug)]
pub struct FleetSummary {
    /// Final [`JobRecord`] per job, ascending key.
    pub jobs: Vec<JobRecord>,
    /// Job keys in completion order — `(round, key)`-sorted, a pure
    /// function of the spec + schedule when no faults fire.
    pub completion_order: Vec<u32>,
}

/// Per-rank outcome of [`run_campaign`].
pub struct CampaignReport {
    /// Fleet summary — `Some` only on the collector (lowest alive rank).
    pub fleet: Option<FleetSummary>,
    /// This rank's resident jobs with final fields.
    pub local: Vec<LocalJobResult>,
    /// Initial job→rank assignment (before any shrink).
    pub assignment: Vec<usize>,
    /// Progress rounds executed.
    pub rounds: u64,
    /// Rank deaths absorbed.
    pub shrinks: usize,
}

/// Wire form of one per-job progress message (fixed-size little-endian).
const PROGRESS_BYTES: usize = 4 + 8 + 8 + 8 + 1 + 8 + 8;

fn encode_progress(key: u32, round: u64, job: &ResidentJob) -> Bytes {
    let mut b = Vec::with_capacity(PROGRESS_BYTES);
    b.extend_from_slice(&key.to_le_bytes());
    b.extend_from_slice(&round.to_le_bytes());
    b.extend_from_slice(&(job.sim.steps() as u64).to_le_bytes());
    b.extend_from_slice(&(job.spec.steps as u64).to_le_bytes());
    b.push(job.status.wire());
    b.extend_from_slice(&(job.recovery.rollbacks as u64).to_le_bytes());
    b.extend_from_slice(&job.checksum.to_le_bytes());
    Bytes::from(b)
}

/// Decoded progress message.
struct Progress {
    key: u32,
    round: u64,
    step: u64,
    steps_total: u64,
    status: u8,
    rollbacks: u64,
    checksum: u64,
}

fn decode_progress(b: &[u8]) -> Progress {
    assert_eq!(b.len(), PROGRESS_BYTES, "malformed campaign progress frame");
    let u32le = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap());
    let u64le = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
    Progress {
        key: u32le(0),
        round: u64le(4),
        step: u64le(12),
        steps_total: u64le(20),
        status: b[28],
        rollbacks: u64le(29),
        checksum: u64le(37),
    }
}

/// Collector-side rolling view of one job.
#[derive(Clone)]
struct JobTrack {
    record: JobRecord,
    completed_round: Option<u64>,
}

/// Run a campaign on this rank. Call from every rank of the universe; the
/// collector (lowest alive rank) returns the fleet summary, every rank
/// returns its resident jobs' final fields.
pub fn run_campaign(
    rank: &Rank,
    spec: &CampaignSpec,
    opts: &CampaignOpts,
) -> Result<CampaignReport, CampaignError> {
    let jobs = spec.expand()?;
    let tel = &opts.telemetry;
    let mut alive = rank.alive_ranks();
    let mut schedule = sched::plan(&jobs, opts.rates, &alive);

    // Scheduler broadcast: the collector's plan is the source of truth
    // (every rank computed the same one; the broadcast pins it).
    let confirmed = catch_comm(|| rank.broadcast(alive[0], Bytes::from(schedule.encode())));
    let mut shrinks = 0usize;
    let mut deaths = 0usize;
    match confirmed {
        Ok(bytes) => schedule = Schedule::decode(&bytes, schedule.costs.clone()),
        Err(e) => {
            // A death raced the handshake: recover, then re-plan over the
            // survivors from scratch (nothing is resident yet).
            let change = membership_round(rank, opts, &mut deaths, &e)?;
            alive = change;
            shrinks += 1;
            schedule = sched::plan(&jobs, opts.rates, &alive);
        }
    }
    let initial_assignment = schedule.assignment.clone();

    // Build resident jobs.
    let me = rank.rank();
    let mut residents: BTreeMap<u32, ResidentJob> = BTreeMap::new();
    for key in schedule.jobs_of(me) {
        let r = make_resident(&jobs[key as usize], opts)?;
        residents.insert(key, r);
    }
    tel.gauge_set("campaign/resident_jobs", residents.len() as f64);

    // A single sweep pool shared by every resident job on this rank.
    let mut pool = SweepPool::new(opts.threads);

    let mut fleet: BTreeMap<u32, JobTrack> = BTreeMap::new();
    let mut round: u64 = 0;
    loop {
        round += 1;
        rank.fault_step(round); // arm scheduled rank kills (chaos drills)
        let outcome = catch_comm(|| -> Result<u64, CampaignError> {
            // 1. Round-robin: one slice per resident active job.
            for (key, job) in residents.iter_mut() {
                step_slice(*key, job, opts, &mut pool);
            }
            // 2. Job-keyed progress streaming to the collector.
            let collector = alive[0];
            if me == collector {
                // Post all receives first, then drain in key order.
                let reqs: Vec<_> = schedule
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &owner)| owner != me && alive.contains(&owner))
                    .map(|(k, &owner)| rank.irecv(owner, campaign_tag(k as u32)))
                    .collect();
                let mut frames: Vec<Progress> = residents
                    .iter()
                    .map(|(k, j)| decode_progress(&encode_progress(*k, round, j)))
                    .collect();
                for req in reqs {
                    frames.push(decode_progress(&rank.wait(req)));
                }
                frames.sort_by_key(|p| p.key);
                collect_frames(&frames, &jobs, &schedule, &mut fleet, opts, round);
            } else {
                for (key, job) in residents.iter() {
                    rank.send(
                        collector,
                        campaign_tag(*key),
                        encode_progress(*key, round, job),
                    );
                }
            }
            // 3. Fleet-wide termination check.
            let active = residents
                .values()
                .filter(|j| j.status == JobStatus::Active)
                .count() as u64;
            Ok(rank.allreduce_u64s(&[active])[0])
        });
        match outcome {
            Ok(Ok(0)) => break,
            Ok(Ok(_)) => {}
            Ok(Err(e)) => return Err(e),
            Err(comm_err) => {
                // A rank died somewhere in the round: shrink and adopt.
                let change = membership_round(rank, opts, &mut deaths, &comm_err)?;
                shrinks += 1;
                tel.counter_add("campaign/shrinks", 1);
                adopt_orphans(&jobs, &mut schedule, &change, &mut residents, opts, me)?;
                alive = change;
                tel.gauge_set("campaign/resident_jobs", residents.len() as f64);
            }
        }
    }

    let local = residents
        .into_iter()
        .map(|(key, j)| LocalJobResult {
            key,
            steps: j.sim.steps(),
            time: j.sim.time(),
            rollbacks: j.recovery.rollbacks as u64,
            checksum: j.checksum,
            status: j.status,
            state: j.sim.state,
        })
        .collect();
    let fleet_summary = (me == alive[0]).then(|| {
        let mut order: Vec<(u64, u32)> = fleet
            .values()
            .filter_map(|t| t.completed_round.map(|r| (r, t.record.job)))
            .collect();
        order.sort_unstable();
        FleetSummary {
            jobs: fleet.values().map(|t| t.record.clone()).collect(),
            completion_order: order.into_iter().map(|(_, k)| k).collect(),
        }
    });
    Ok(CampaignReport {
        fleet: fleet_summary,
        local,
        assignment: initial_assignment,
        rounds: round,
        shrinks,
    })
}

/// One membership round under `CampaignOpts::shrink`: agree on survivors,
/// enforce the death budget. Retries internally when another death races
/// the round itself.
fn membership_round(
    rank: &Rank,
    opts: &CampaignOpts,
    deaths: &mut usize,
    trigger: &CommError,
) -> Result<Vec<usize>, CampaignError> {
    if !opts.shrink {
        return Err(CampaignError::Comm(trigger.clone()));
    }
    loop {
        match catch_comm(|| rank.recover_membership()) {
            Ok(Some(change)) => {
                *deaths += change.newly_dead.len();
                opts.telemetry.set_epoch(change.epoch);
                if *deaths > MAX_SHRINKS {
                    return Err(CampaignError::ShrinkExhausted {
                        budget: MAX_SHRINKS,
                        deaths: *deaths,
                    });
                }
                return Ok(change.alive);
            }
            // A comm failure with every peer alive: nothing to shrink away
            // from.
            Ok(None) => return Err(CampaignError::Comm(trigger.clone())),
            // A further death raced the round; run another one.
            Err(_) => continue,
        }
    }
}

/// Deterministically re-home jobs owned by dead ranks onto the survivors
/// and (on the adopting rank) restore them from their own checkpoint
/// namespaces. Surviving ranks' residents are untouched.
fn adopt_orphans(
    jobs: &[JobSpec],
    schedule: &mut Schedule,
    alive: &[usize],
    residents: &mut BTreeMap<u32, ResidentJob>,
    opts: &CampaignOpts,
    me: usize,
) -> Result<(), CampaignError> {
    let orphans: Vec<u32> = schedule
        .assignment
        .iter()
        .enumerate()
        .filter(|&(_, owner)| !alive.contains(owner))
        .map(|(k, _)| k as u32)
        .collect();
    if orphans.is_empty() {
        return Ok(());
    }
    // LPT over the orphans' estimated costs, survivors only — replicated
    // arithmetic, every survivor computes the identical adoption map.
    let costs: Vec<f64> = orphans
        .iter()
        .map(|&k| schedule.costs[k as usize])
        .collect();
    let new_owner = assign_lpt_over(&costs, alive);
    for (&key, &owner) in orphans.iter().zip(&new_owner) {
        schedule.assignment[key as usize] = owner;
        if owner == me {
            let mut r = make_resident(&jobs[key as usize], opts)?;
            // Resume from the orphan's own namespace when it has a usable
            // set; an orphan without one restarts from init on the
            // identical trajectory.
            match r.recovery.resume(&mut r.sim) {
                Ok(Some(_)) => r.finish_if_due(),
                Ok(None) => {}
                Err(_) => r = make_resident(&jobs[key as usize], opts)?,
            }
            opts.telemetry.counter_add("campaign/jobs_adopted", 1);
            residents.insert(key, r);
        }
    }
    Ok(())
}

/// Build the initialized standalone [`Simulation`] of one job: the exact
/// construction the campaign runner uses for a resident job, so "same
/// point, run alone" and "same point, inside a fleet" start from identical
/// bits — the isolation property tests step this directly as the
/// reference trajectory.
pub fn standalone_sim(spec: &JobSpec) -> Result<Simulation, CampaignError> {
    let mut sim = Simulation::new(spec.params(), spec.dims).map_err(|reason| {
        CampaignError::InvalidPoint {
            label: spec.label(),
            reason: reason.to_string(),
        }
    })?;
    sim.set_telemetry(Telemetry::disabled());
    let d = sim.state.dims;
    let csum: f64 = spec.composition.iter().sum();
    let fractions = spec.composition.map(|c| c / csum);
    let seeds = init::VoronoiSeeds::generate(
        [d.nx, d.ny],
        init::default_seed_count(d.nx, d.ny),
        fractions,
        spec.seed,
    );
    let fill = (d.nz / 4).max(2);
    init::init_directional_block(&mut sim.state, &seeds, fill);
    Ok(sim)
}

/// Build a freshly initialized resident job, its health monitor (with the
/// job's fault plan) attached to its `Simulation`.
fn make_resident(spec: &JobSpec, opts: &CampaignOpts) -> Result<ResidentJob, CampaignError> {
    let mut sim = standalone_sim(spec)?;
    sim.set_health_monitor(opts.recovery.health.map(|cfg| {
        let m = HealthMonitor::new(cfg);
        match opts.job_faults.get(&spec.key) {
            Some(plan) => m.with_faults(on_job_block(plan)),
            None => m,
        }
    }));
    let recovery = StepRecovery {
        root: opts
            .ckpt_root
            .as_deref()
            .map(|root| job_root(root, spec.key)),
        precision: Precision::F64,
        keep: Some(opts.keep_sets.max(1)),
        max_rollbacks: opts.recovery.max_rollbacks,
        rollbacks: 0,
        restore_skips: 0,
    };
    let mut job = ResidentJob {
        spec: spec.clone(),
        sim,
        recovery,
        status: JobStatus::Active,
        checksum: 0,
    };
    job.finish_if_due(); // zero-step jobs complete immediately
    Ok(job)
}

/// `plan` with every fault aimed at the job's one block, global id 0 of its
/// `Simulation`: job fault plans are keyed by job, so a fault's `block`
/// field selects nothing.
fn on_job_block(plan: &FieldFaultPlan) -> FieldFaultPlan {
    plan.faults()
        .iter()
        .fold(FieldFaultPlan::new(plan.seed), |p, f| {
            p.inject(FieldFault { block: 0, ..*f })
        })
}

/// The checkpoint namespace of job `key` under the campaign root.
fn job_root(root: &Path, key: u32) -> PathBuf {
    root.join(format!("job_{key:05}"))
}

/// Advance one job by one round-robin slice: steps (whose stage list
/// injects the job's faults and runs its health scans), each followed by
/// the job's own rollback-and-checkpoint step. Checkpoints land at
/// multiples of `ckpt_every`.
fn step_slice(key: u32, job: &mut ResidentJob, opts: &CampaignOpts, pool: &mut SweepPool) {
    if job.status != JobStatus::Active {
        return;
    }
    let lane = opts.telemetry.lane(&format!("campaign/job/{key}"));
    job.sim.swap_pool(pool);
    let mut stepped = 0;
    while stepped < opts.slice_steps && job.sim.steps() < job.spec.steps {
        job.sim.step();
        stepped += 1;
        lane.counter_add("steps", 1);
        let s = job.sim.steps();
        let due = opts.ckpt_every > 0 && s % opts.ckpt_every == 0;
        match job.recovery.after_step(&mut job.sim, due) {
            Ok(AfterStep::Continued) => {}
            Ok(AfterStep::RolledBack) => lane.counter_add("rollbacks", 1),
            Ok(AfterStep::Checkpointed(_)) => lane.counter_add("checkpoints", 1),
            Ok(AfterStep::WriteFailed) => lane.counter_add("checkpoint_failures", 1),
            Err(failure) => {
                job.status = JobStatus::Failed(format!("job {key}: {failure}"));
                break;
            }
        }
    }
    job.finish_if_due();
    job.sim.swap_pool(pool);
}

/// Collector-side: fold one round's progress frames into the fleet view,
/// publish `{"type":"job"}` NDJSON frames, and stamp completion rounds.
fn collect_frames(
    frames: &[Progress],
    jobs: &[JobSpec],
    schedule: &Schedule,
    fleet: &mut BTreeMap<u32, JobTrack>,
    opts: &CampaignOpts,
    round: u64,
) {
    for p in frames {
        debug_assert_eq!(p.round, round, "stale campaign progress frame");
        let status = match p.status {
            0 => "active",
            1 => "done",
            _ => "failed",
        };
        let record = JobRecord {
            job: p.key,
            label: jobs[p.key as usize].label(),
            rank: schedule.assignment[p.key as usize] as u64,
            round,
            step: p.step,
            steps_total: p.steps_total,
            rollbacks: p.rollbacks,
            status: status.into(),
            checksum: p.checksum,
        };
        let entry = fleet.entry(p.key).or_insert_with(|| JobTrack {
            record: record.clone(),
            completed_round: None,
        });
        entry.record = record;
        if p.status != 0 && entry.completed_round.is_none() {
            entry.completed_round = Some(round);
            opts.telemetry.counter_add("campaign/jobs_completed", 1);
        }
        if let Some(bus) = &opts.bus {
            bus.publish(Arc::from(entry.record.to_json()));
        }
    }
}
