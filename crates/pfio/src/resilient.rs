//! Checkpoint/restart integration and the resilient run driver.
//!
//! [`SimCheckpointExt`] wires [`crate::ckpt`] checkpoint sets into
//! `DistributedSim`: every rank writes its own block files, rank 0 gathers
//! the per-block CRCs and writes the manifest last, and restore re-reads a
//! set onto the *current* decomposition — the same or a different rank
//! count, since block files are keyed by global block id.
//!
//! [`run_resilient`] is the production loop the paper's month-long runs
//! imply: run the universe; if a rank dies (detected by the comm layer, not
//! deadlocked), tear the universe down, restore the last *valid* checkpoint
//! set, and continue — optionally on a different rank count. With
//! [`Precision::F64`] checkpoints the recovered run is bit-identical to an
//! uninterrupted one.
//!
//! # Silent-corruption recovery
//!
//! Rank death is not the only failure mode at scale: a [`RecoveryPolicy`]
//! with health scans enabled additionally defends against *silent* state
//! corruption without tearing the universe down. The timeloop's periodic
//! invariant scans (`eutectica_core::health`) produce a cross-rank
//! `HealthReport`; on an unhealthy verdict every rank rolls back in-flight
//! to the newest checkpoint set that restores cleanly **and** itself scans
//! healthy (poisoned sets — written after the corruption — are skipped in
//! descending step order), re-projects φ onto the Gibbs simplex, and keeps
//! running.
//! After [`RecoveryPolicy::max_rollbacks`] in-flight rollbacks the attempt
//! escalates to a full restart via a typed [`RankFailure`]; only when every
//! attempt is exhausted does the driver give up with
//! [`ResilientError::Exhausted`].
//!
//! Checkpoint-write and restore failures are typed per rank (satellite of
//! the same defense): collective votes inside [`SimCheckpointExt`] keep all
//! ranks in lockstep when one rank's I/O fails, a failed write leaves an
//! invalid (manifest-less) set that restores skip, and a corrupt newest set
//! is retried with the *previous* one instead of killing the rank.
//!
//! Checkpoint cadence follows Sec. 3.2: [`CheckpointCadence::new`] measures
//! the step and checkpoint wall times at runtime and re-plans the write
//! interval through [`crate::checkpoint_interval`] so measured overhead
//! stays within the configured budget ([`CheckpointCadence::fixed`] keeps a
//! set interval instead). The measurements feed an allreduce, so every rank
//! agrees on the interval and the collective checkpoint writes stay in
//! lockstep.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_blockgrid::rebalance::{plan_shrink, RebalancePolicy};
use eutectica_comm::{
    catch_comm, CommError, CommPanic, FaultPlan, Rank, ReduceOp, Universe, UniverseCfg,
    UniverseError,
};
use eutectica_core::health::{FieldFaultPlan, HealthConfig, HealthMonitor, HealthReport};
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::{DistributedSim, OverlapOptions};
use eutectica_telemetry::Telemetry;

use crate::ckpt::{
    self, BlockEntry, CkptError, DecodedBlock, Manifest, Precision, DEFAULT_BYTE_BUDGET,
};
use crate::replica::ReplicaStore;

/// Checkpoint sets on a simulation, and what [`StepRecovery`] needs of it
/// to roll back onto them. Two implementors: `DistributedSim` (one rank's
/// blocks; every operation collective) and `Simulation` (one campaign
/// job's block, see `crate::jobs`).
pub trait SimCheckpointExt {
    /// Write a checkpoint set for the current step under `root` through
    /// [`Self::write_set`], and count it. Returns the bytes this
    /// participant wrote.
    ///
    /// Telemetry, recorded here for every implementor: span
    /// `checkpoint_write` (category `io`); on success the counters
    /// `ckpt/bytes_written`, `ckpt/sets_written` and `ckpt/wall_ns`.
    fn write_checkpoint_set(&self, root: &Path, precision: Precision) -> Result<u64, CkptError> {
        let tel = self.telemetry().clone();
        let start = Instant::now();
        let _span = tel.span_cat("checkpoint_write", "io");
        let bytes_written = self.write_set(root, precision)?;
        tel.counter_add("ckpt/bytes_written", bytes_written);
        tel.counter_add("ckpt/sets_written", 1);
        tel.counter_add("ckpt/wall_ns", start.elapsed().as_nanos() as u64);
        Ok(bytes_written)
    }

    /// Restore from the set in `dir` through [`Self::restore_set`], and
    /// count it.
    ///
    /// Telemetry, recorded here for every implementor: span
    /// `checkpoint_restore` (category `io`); on success the counters
    /// `ckpt/restores` and `ckpt/restore_wall_ns`.
    fn restore_from_set(&mut self, dir: &Path, byte_budget: u64) -> Result<(), CkptError> {
        let tel = self.telemetry().clone();
        let start = Instant::now();
        {
            let _span = tel.span_cat("checkpoint_restore", "io");
            self.restore_set(dir, byte_budget)?;
        }
        tel.counter_add("ckpt/restores", 1);
        tel.counter_add("ckpt/restore_wall_ns", start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// The write behind [`Self::write_checkpoint_set`]. On a rank
    /// (collective): every rank writes its local blocks; rank 0 gathers the
    /// per-block CRCs and writes the manifest last (the set is valid only
    /// once the manifest lands). Returns the bytes this participant wrote.
    fn write_set(&self, root: &Path, precision: Precision) -> Result<u64, CkptError>;

    /// The restore behind [`Self::restore_from_set`]: fields, time, step
    /// and window offset from the set in `dir`. The set must decompose the
    /// same [`DomainSpec`]; the rank count may differ from the writer's.
    /// On a rank, ghosts are refreshed collectively, so all ranks must call
    /// this together.
    fn restore_set(&mut self, dir: &Path, byte_budget: u64) -> Result<(), CkptError>;

    /// Take the unhealthy report of the most recent health scan, if any.
    fn take_unhealthy_report(&mut self) -> Option<HealthReport>;

    /// Scan now, regardless of cadence (collective); `None` without a
    /// health monitor.
    fn health_scan_now(&self) -> Option<HealthReport>;

    /// Re-project φ cells off the Gibbs simplex (collective); valid cells
    /// stay bit-untouched.
    fn project_phi_to_simplex(&mut self) -> u64;

    /// The simulation's telemetry collector.
    fn telemetry(&self) -> &Telemetry;

    /// Whether this participant prunes the checkpoint root: one writer
    /// deletes, so pruning cannot race itself.
    fn prunes_sets(&self) -> bool;
}

impl SimCheckpointExt for DistributedSim<'_> {
    fn write_set(&self, root: &Path, precision: Precision) -> Result<u64, CkptError> {
        let step = self.step_index() as u64;
        let dir = ckpt::set_dir(root, step);
        // Write local block files without early returns — the collective
        // votes below must run on every rank no matter what fails locally.
        let local: Result<(Vec<BlockEntry>, u64), CkptError> = (|| {
            std::fs::create_dir_all(&dir)?;
            let mut entries = Vec::with_capacity(self.blocks.len());
            let mut bytes_written = 0u64;
            for (li, &id) in self.local_block_ids().iter().enumerate() {
                let e = ckpt::write_block_file(
                    &dir,
                    &self.blocks[li],
                    id as u64,
                    self.time(),
                    precision,
                )?;
                bytes_written += e.file_bytes;
                entries.push(e);
            }
            Ok((entries, bytes_written))
        })();
        let rank = self.comm_rank();
        // Vote 1: every rank's block files landed. A failing peer must not
        // strand the others in the gather; on failure the set simply never
        // gets a manifest and stays invisible to restores.
        let vote = |ok: bool| rank.allreduce_f64(if ok { 1.0 } else { 0.0 }, ReduceOp::Min) == 1.0;
        if !vote(local.is_ok()) {
            return Err(local.err().unwrap_or(CkptError::PeerFailure {
                during: "checkpoint write",
            }));
        }
        let (entries, bytes_written) = local.expect("voted ok");
        // Rank 0 collects every rank's entries and completes the set.
        let mut payload = Vec::with_capacity(entries.len() * 20);
        for e in &entries {
            payload.extend_from_slice(&e.id.to_le_bytes());
            payload.extend_from_slice(&e.file_bytes.to_le_bytes());
            payload.extend_from_slice(&e.crc32.to_le_bytes());
        }
        let manifest_result: Result<(), CkptError> = match rank.gather(0, Bytes::from(payload)) {
            Some(bufs) => {
                let mut all = Vec::new();
                for buf in &bufs {
                    assert!(buf.len() % 20 == 0, "malformed checkpoint entry payload");
                    for chunk in buf.chunks_exact(20) {
                        all.push(BlockEntry {
                            id: u64::from_le_bytes(chunk[0..8].try_into().unwrap()),
                            file_bytes: u64::from_le_bytes(chunk[8..16].try_into().unwrap()),
                            crc32: u32::from_le_bytes(chunk[16..20].try_into().unwrap()),
                        });
                    }
                }
                all.sort_by_key(|e| e.id);
                ckpt::write_manifest_file(
                    &dir,
                    &Manifest {
                        step,
                        time: self.time(),
                        window_shifts: self.window_shifts() as u64,
                        precision,
                        spec: self.decomp().spec,
                        blocks: all,
                    },
                )
            }
            None => Ok(()),
        };
        // Vote 2 (doubles as the completion barrier): the set is complete
        // for everyone only after the manifest landed, and a failed
        // manifest write surfaces consistently on *all* ranks.
        if !vote(manifest_result.is_ok()) {
            return Err(manifest_result.err().unwrap_or(CkptError::PeerFailure {
                during: "manifest write",
            }));
        }
        Ok(bytes_written)
    }

    fn restore_set(&mut self, dir: &Path, byte_budget: u64) -> Result<(), CkptError> {
        restore_blocks(self, ckpt::read_manifest_file(dir), |_, manifest, id| {
            ckpt::read_block_from_set(dir, manifest, id as u64, byte_budget)
        })
    }

    fn take_unhealthy_report(&mut self) -> Option<HealthReport> {
        DistributedSim::take_unhealthy_report(self)
    }

    fn health_scan_now(&self) -> Option<HealthReport> {
        DistributedSim::health_scan_now(self)
    }

    fn project_phi_to_simplex(&mut self) -> u64 {
        DistributedSim::project_phi_to_simplex(self)
    }

    fn telemetry(&self) -> &Telemetry {
        DistributedSim::telemetry(self)
    }

    /// The lowest alive rank, so a shrink that kills rank 0 does not stop
    /// pruning.
    fn prunes_sets(&self) -> bool {
        let rank = self.comm_rank();
        rank.alive_ranks()[0] == rank.rank()
    }
}

/// The restore of a distributed simulation, whatever holds its records: a
/// checkpoint set on disk or buddy replicas in RAM (`crate::replica`).
/// `read` yields each local block's decoded record — the one part that
/// differs — and every block adopts its record. Then the ranks vote, and
/// only if every rank succeeded are progress counters set from `manifest`
/// and ghosts refreshed (collectively, so all ranks must call this
/// together). The vote runs on every rank, whatever failed locally, so a
/// failing rank cannot strand its peers in the ghost refresh. On error
/// this rank's fields may be partially overwritten — callers are expected
/// to re-restore (e.g. from the previous set) before continuing.
pub(crate) fn restore_blocks(
    sim: &mut DistributedSim<'_>,
    manifest: Result<Manifest, CkptError>,
    mut read: impl FnMut(&DistributedSim<'_>, &Manifest, usize) -> Result<DecodedBlock, CkptError>,
) -> Result<(), CkptError> {
    let local = manifest.and_then(|m| {
        m.require_spec(sim.decomp().spec)?;
        let ids = sim.local_block_ids().to_vec();
        for (li, id) in ids.into_iter().enumerate() {
            read(sim, &m, id)?.adopt(id, &mut sim.blocks[li])?;
        }
        Ok(m)
    });
    let ok = sim
        .comm_rank()
        .allreduce_f64(if local.is_ok() { 1.0 } else { 0.0 }, ReduceOp::Min)
        == 1.0;
    let m = match local {
        Ok(m) if ok => m,
        local => {
            return Err(local.err().unwrap_or(CkptError::PeerFailure {
                during: "checkpoint restore",
            }))
        }
    };
    sim.set_progress(m.time, m.step as usize, m.window_shifts as usize);
    sim.refresh_src_ghosts();
    Ok(())
}

// ---------------------------------------------------------------------------
// Auto-cadence
// ---------------------------------------------------------------------------

/// Measured-overhead checkpoint scheduler (Sec. 3.2).
///
/// Starts with an interval of 1 so the first checkpoint is taken (and
/// timed) immediately; afterwards the interval is re-planned from the
/// allreduced worst-rank step and checkpoint times via
/// [`crate::checkpoint_interval`], keeping the overhead under `budget`
/// uniformly across ranks.
#[derive(Clone, Debug)]
pub struct CheckpointCadence {
    budget: f64,
    step_ema: f64,
    interval: usize,
    last_ckpt_step: usize,
}

impl CheckpointCadence {
    /// New scheduler targeting `overhead_budget` (e.g. 0.01 = 1 %).
    pub fn new(overhead_budget: f64) -> Self {
        assert!(overhead_budget > 0.0);
        Self {
            budget: overhead_budget,
            step_ema: 0.0,
            interval: 1,
            last_ckpt_step: 0,
        }
    }

    /// Fixed-interval scheduler (no measurement; `observe_checkpoint` keeps
    /// the interval unchanged).
    pub fn fixed(every: usize) -> Self {
        assert!(every > 0);
        Self {
            budget: 0.0,
            step_ema: 0.0,
            interval: every,
            last_ckpt_step: 0,
        }
    }

    /// Current write interval in steps.
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Record the wall time of one step.
    pub fn observe_step(&mut self, wall: Duration) {
        let s = wall.as_secs_f64();
        self.step_ema = if self.step_ema == 0.0 {
            s
        } else {
            0.7 * self.step_ema + 0.3 * s
        };
    }

    /// Record the wall time of the checkpoint just written at `step` and
    /// re-plan the interval. Collective when auto (allreduces the worst
    /// rank's measurements so all ranks agree on the next interval).
    pub fn observe_checkpoint(&mut self, rank: &Rank, wall: Duration, step: usize) {
        self.last_ckpt_step = step;
        if self.budget <= 0.0 {
            return; // fixed cadence
        }
        let step_max = rank.allreduce_f64(self.step_ema.max(1e-9), ReduceOp::Max);
        let ckpt_max = rank.allreduce_f64(wall.as_secs_f64(), ReduceOp::Max);
        self.interval = crate::checkpoint_interval(step_max, ckpt_max, self.budget);
    }

    /// Should a checkpoint be written after completing `step`?
    pub fn due(&self, step: usize) -> bool {
        step.saturating_sub(self.last_ckpt_step) >= self.interval
    }
}

// ---------------------------------------------------------------------------
// Resilient driver
// ---------------------------------------------------------------------------

/// Silent-corruption recovery policy of [`run_resilient`].
#[derive(Clone, Debug, Default)]
pub struct RecoveryPolicy {
    /// Enable periodic field-health scans with this configuration.
    /// `None` disables the entire in-flight recovery path.
    pub health: Option<HealthConfig>,
    /// Field-fault injection plan per attempt (testing); attempts beyond
    /// the end run injection-free. Fire-once semantics: a fault consumed
    /// before a rollback is not re-injected after it.
    pub field_fault_plans: Vec<FieldFaultPlan>,
    /// In-flight rollbacks allowed per attempt before escalating to a full
    /// restart ([`RankFailure::RollbackExhausted`]).
    pub max_rollbacks: usize,
}

impl RecoveryPolicy {
    /// Recovery with health scans enabled and 3 rollbacks per attempt. Every
    /// rollback re-projects φ onto the Gibbs simplex (a no-op on valid
    /// restored states, so bit-identity is preserved).
    pub fn with_health(health: HealthConfig) -> Self {
        Self {
            health: Some(health),
            field_fault_plans: Vec::new(),
            max_rollbacks: 3,
        }
    }
}

/// Rank deaths survived in place per attempt under shrink-and-continue; one
/// more escalates with [`RankFailure::ShrinkExhausted`]. A death *during*
/// recovery counts against the same budget.
pub const MAX_SHRINKS: usize = 1;

/// Where shrink recovery re-sources the lost (and rolled-back) block state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShrinkSource {
    /// Re-read the newest healthy checkpoint set from disk (per-block
    /// `EUTECKP2` files are rank-count-agnostic).
    Disk,
    /// Restore from in-RAM buddy replicas captured at checkpoint cadence —
    /// no disk round-trip (see `crate::replica`).
    Buddy,
}

/// Typed per-rank failure inside a [`run_resilient`] attempt — distinguishes
/// recovery-path failures from a killed rank ([`UniverseError`]).
#[derive(Clone, Debug)]
pub enum RankFailure {
    /// No checkpoint set could be restored to resume from (all sets
    /// corrupt, poisoned, or unreadable).
    Restore {
        /// Human-readable cause chain.
        detail: String,
    },
    /// The in-flight rollback budget was exhausted at `step`.
    RollbackExhausted {
        /// Rollbacks consumed this attempt.
        rollbacks: usize,
        /// Step at which the budget ran out.
        step: usize,
        /// The unhealthy report that triggered the final rollback.
        detail: String,
    },
    /// Corruption was detected but no checkpoint set is usable to roll back
    /// to: there is none, or every one is corrupt or poisoned.
    NoRollbackTarget {
        /// Step at which corruption was detected.
        step: usize,
        /// The unhealthy report, and why the sets found were unusable.
        detail: String,
    },
    /// The shrink budget ([`MAX_SHRINKS`]) was exhausted —
    /// one rank death too many, or a second death inside the recovery
    /// window with no budget left.
    ShrinkExhausted {
        /// Deaths this attempt tried to absorb (including the fatal one).
        shrinks: usize,
        /// Step at which the budget ran out.
        step: usize,
        /// The communication failure that triggered the final shrink.
        detail: String,
    },
    /// Shrink recovery could not rebuild a consistent resumable state
    /// (no membership change behind the failure, no restorable checkpoint,
    /// or lost buddy frames).
    ShrinkRecovery {
        /// Step at which recovery gave up.
        step: usize,
        /// Human-readable cause.
        detail: String,
    },
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankFailure::Restore { detail } => write!(f, "restore failed: {detail}"),
            RankFailure::RollbackExhausted {
                rollbacks,
                step,
                detail,
            } => write!(
                f,
                "rollback budget exhausted ({rollbacks} rollbacks) at step {step}: {detail}"
            ),
            RankFailure::NoRollbackTarget { step, detail } => {
                write!(f, "no rollback target at step {step}: {detail}")
            }
            RankFailure::ShrinkExhausted {
                shrinks,
                step,
                detail,
            } => write!(
                f,
                "shrink budget exhausted ({shrinks} deaths) at step {step}: {detail}"
            ),
            RankFailure::ShrinkRecovery { step, detail } => {
                write!(f, "shrink recovery failed at step {step}: {detail}")
            }
        }
    }
}

/// Why one [`run_resilient`] attempt failed.
#[derive(Debug)]
pub enum AttemptFailure {
    /// The universe itself died (rank kill, comm timeout, rank panic).
    Universe(UniverseError),
    /// All ranks survived but at least one hit a typed recovery failure.
    Ranks(Vec<RankFailure>),
}

impl std::fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptFailure::Universe(e) => write!(f, "universe failure: {e}"),
            AttemptFailure::Ranks(rs) => {
                write!(f, "{} rank(s) failed", rs.len())?;
                if let Some(first) = rs.first() {
                    write!(f, " (first: {first})")?;
                }
                Ok(())
            }
        }
    }
}

/// Options of [`run_resilient`].
#[derive(Clone, Debug)]
pub struct ResilientOpts {
    /// Directory holding the checkpoint sets.
    pub ckpt_root: PathBuf,
    /// Checkpoint precision ([`Precision::F64`] for bit-identical resume).
    pub precision: Precision,
    /// Checkpoint cadence: [`CheckpointCadence::fixed`] or the measured
    /// [`CheckpointCadence::new`]; every attempt starts from this state.
    pub cadence: CheckpointCadence,
    /// Rank count per attempt; attempts beyond the end reuse the last entry
    /// (restore re-decomposes, so counts may differ between attempts).
    pub ranks: Vec<usize>,
    /// Fault plan per attempt; attempts beyond the end run fault-free.
    /// (A kill re-fires forever if its plan is reused after restart, so
    /// plans are per-attempt by construction.)
    pub fault_plans: Vec<FaultPlan>,
    /// Give up after this many attempts.
    pub max_attempts: usize,
    /// Silent-corruption defense (health scans, in-flight rollback).
    pub recovery: RecoveryPolicy,
    /// Keep only the newest `k` valid checkpoint sets on disk (the lowest
    /// alive rank prunes after each successful write). `None` retains
    /// everything.
    pub retain_sets: Option<usize>,
    /// Intra-rank sweep/scan threads per rank (PR 3 hybrid layer).
    pub threads: usize,
    /// Dynamic load rebalancing policy, attached after init/restore on
    /// every attempt. Composes with rollback: a restore lands the fields
    /// onto whatever placement the rebalancer has migrated the blocks to.
    pub rebalance: Option<RebalancePolicy>,
    /// Shrink-and-continue: survive up to [`MAX_SHRINKS`] rank deaths
    /// in-flight by fencing the dead rank behind a membership epoch,
    /// re-homing its blocks onto the survivors and restoring the newest
    /// consistent state from this source. `None` keeps the classic
    /// behavior: a rank death tears the attempt down and the next attempt
    /// restarts from the newest checkpoint.
    pub shrink: Option<ShrinkSource>,
}

impl ResilientOpts {
    /// Sensible defaults: F64 checkpoints under `ckpt_root`, every 10
    /// steps, single-rank, single-thread, no faults, no health scans,
    /// unlimited retention.
    pub fn new(ckpt_root: PathBuf) -> Self {
        Self {
            ckpt_root,
            precision: Precision::F64,
            cadence: CheckpointCadence::fixed(10),
            ranks: vec![1],
            fault_plans: Vec::new(),
            max_attempts: 3,
            recovery: RecoveryPolicy::default(),
            retain_sets: None,
            threads: 1,
            rebalance: None,
            shrink: None,
        }
    }
}

/// Result of a successful [`run_resilient`].
#[derive(Debug)]
pub struct ResilientOutcome {
    /// Final block states in global block-id order.
    pub blocks: Vec<BlockState>,
    /// Final simulation time.
    pub time: f64,
    /// Attempts used (1 = no failure).
    pub attempts: usize,
    /// The attempt failures that forced restarts, in order.
    pub failures: Vec<AttemptFailure>,
    /// In-flight rollbacks consumed during the successful attempt
    /// (max over ranks; ranks agree when health scans are collective).
    pub rollbacks: usize,
    /// Poisoned/corrupt checkpoint sets skipped while searching for a
    /// rollback or resume target during the successful attempt.
    pub restore_skips: usize,
    /// Rank deaths absorbed in-flight (membership shrinks) during the
    /// successful attempt.
    pub shrinks: usize,
    /// Original rank ids still alive at the end of the successful attempt.
    pub survivors: Vec<usize>,
    /// Aggregate cost of the shrink recoveries in the successful attempt
    /// (all zero when no shrink happened).
    pub shrink_cost: ShrinkCost,
}

/// Aggregate cost of the shrink recoveries absorbed by a successful
/// attempt — the numbers behind a figure binary's rank-0 summary line.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShrinkCost {
    /// Blocks re-homed off dead ranks. The plan is replicated, so every
    /// survivor reports the same count (aggregated as max over ranks).
    pub blocks_rehomed: u64,
    /// Buddy-replica record bytes shipped over the wire during restores,
    /// summed over survivors (zero for disk-sourced recoveries).
    pub bytes_moved: u64,
    /// Wall-clock spent inside recovery (max over survivors).
    pub recovery_secs: f64,
}

/// Failure of [`run_resilient`].
#[derive(Debug)]
pub enum ResilientError {
    /// Every attempt died; the recorded failures are in order.
    Exhausted {
        /// Attempts made.
        attempts: usize,
        /// Failure per attempt.
        failures: Vec<AttemptFailure>,
    },
    /// A checkpoint-set scan failed outside the universe.
    Ckpt(CkptError),
}

impl std::fmt::Display for ResilientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilientError::Exhausted { attempts, failures } => {
                write!(f, "all {attempts} attempts failed")?;
                if let Some(last) = failures.last() {
                    write!(f, " (last: {last})")?;
                }
                Ok(())
            }
            ResilientError::Ckpt(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for ResilientError {}

impl From<CkptError> for ResilientError {
    fn from(e: CkptError) -> Self {
        ResilientError::Ckpt(e)
    }
}

/// The one rollback-and-checkpoint path, run after every step by each rank
/// of [`run_resilient`] and by every campaign job on its `Simulation`: the
/// checkpoint root, the rollback budget and what has been spent of it.
#[derive(Clone, Debug)]
pub struct StepRecovery {
    /// Where the sets live. `None` writes nothing, and an unhealthy step
    /// then has no rollback target.
    pub root: Option<PathBuf>,
    /// Precision of the sets written ([`Precision::F64`] for bit-identical
    /// rollback).
    pub precision: Precision,
    /// Valid sets kept under `root` after each write (`None` keeps all).
    pub keep: Option<usize>,
    /// Rollbacks allowed ([`RecoveryPolicy::max_rollbacks`]).
    pub max_rollbacks: usize,
    /// Rollbacks taken.
    pub rollbacks: usize,
    /// Corrupt or poisoned sets skipped while looking for a set to restore.
    pub restore_skips: usize,
}

/// What [`StepRecovery::after_step`] did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AfterStep {
    /// Healthy, and no checkpoint was due.
    Continued,
    /// Rolled back to the newest usable set.
    RolledBack,
    /// Wrote the due checkpoint set, in this wall time.
    Checkpointed(Duration),
    /// The due write failed and was counted (`ckpt/write_failures`); the
    /// set has no manifest, so restores never see it.
    WriteFailed,
}

impl StepRecovery {
    /// Restore the newest set under the root that restores cleanly and,
    /// when `sim` has a health monitor, itself scans healthy, skipping
    /// corrupt and poisoned sets in descending step order. `Ok(None)` when
    /// there is no set at all (a fresh start); an error when there are sets
    /// but none is usable. Collective for a distributed `sim`: the restore
    /// votes and the scan's reduction keep every rank descending in
    /// lockstep, so all ranks agree on the set (and on failure).
    pub fn resume<S: SimCheckpointExt>(&mut self, sim: &mut S) -> Result<Option<u64>, RankFailure> {
        let Some(root) = &self.root else {
            return Ok(None);
        };
        let mut limit: Option<u64> = None;
        let mut saw_any = false;
        loop {
            let found = ckpt::find_latest_checkpoint_at_or_below(root, limit).map_err(|e| {
                RankFailure::Restore {
                    detail: format!("checkpoint scan failed: {e}"),
                }
            })?;
            let Some((step, dir)) = found else {
                return if saw_any {
                    Err(RankFailure::Restore {
                        detail: "no restorable checkpoint set left".into(),
                    })
                } else {
                    Ok(None)
                };
            };
            saw_any = true;
            let unusable = match sim.restore_from_set(&dir, DEFAULT_BYTE_BUDGET) {
                Err(e) => format!("step-0 set failed to restore: {e}"),
                Ok(()) => match sim.health_scan_now() {
                    Some(report) if !report.is_healthy() => {
                        format!(
                            "every checkpoint set is poisoned (step 0: {})",
                            report.describe()
                        )
                    }
                    _ => return Ok(Some(step)),
                },
            };
            // Skip the set; below step 0 there is nothing left to try.
            self.restore_skips += 1;
            sim.telemetry().counter_add("health/restore_skips", 1);
            if step == 0 {
                return Err(RankFailure::Restore { detail: unusable });
            }
            limit = Some(step - 1);
        }
    }

    /// React to the step `sim` just completed. On an unhealthy report, roll
    /// back within the budget through [`StepRecovery::resume`] and
    /// re-project φ (a no-op on valid states). Otherwise, when `due`, write
    /// a checkpoint set and prune the root to `keep` sets; a failed write
    /// is counted and the run goes on. Collective for a distributed `sim`:
    /// unhealthy verdicts come from an allreduce, so every rank takes the
    /// same branch at the same step.
    pub fn after_step<S: SimCheckpointExt>(
        &mut self,
        sim: &mut S,
        due: bool,
    ) -> Result<AfterStep, RankFailure> {
        if let Some(report) = sim.take_unhealthy_report() {
            sim.telemetry().counter_add("health/rollbacks", 1);
            let detail = report.describe();
            if self.rollbacks >= self.max_rollbacks {
                return Err(RankFailure::RollbackExhausted {
                    rollbacks: self.rollbacks + 1,
                    step: report.step,
                    detail,
                });
            }
            let step = match self.resume(sim) {
                Ok(Some(step)) => step,
                found => {
                    let detail = match found {
                        Err(cause) => format!("{detail} ({cause})"),
                        _ => detail,
                    };
                    return Err(RankFailure::NoRollbackTarget {
                        step: report.step,
                        detail,
                    });
                }
            };
            self.rollbacks += 1;
            sim.telemetry()
                .gauge_set("health/rollback_to_step", step as f64);
            sim.project_phi_to_simplex();
            return Ok(AfterStep::RolledBack);
        }
        let Some(root) = self.root.as_deref().filter(|_| due) else {
            return Ok(AfterStep::Continued);
        };
        let t0 = Instant::now();
        if sim.write_checkpoint_set(root, self.precision).is_err() {
            // A distributed write's votes made the error the same on every
            // rank, and the set has no manifest.
            sim.telemetry().counter_add("ckpt/write_failures", 1);
            return Ok(AfterStep::WriteFailed);
        }
        let wall = t0.elapsed();
        if let Some(keep) = self.keep.filter(|_| sim.prunes_sets()) {
            // Collectives serialize pruning against restores, so it cannot
            // race a set being read.
            if let Ok(n) = ckpt::prune_checkpoint_sets(root, keep, None) {
                sim.telemetry().counter_add("ckpt/sets_pruned", n as u64);
            }
        }
        Ok(AfterStep::Checkpointed(wall))
    }
}

/// Per-rank result of one successful attempt.
struct RankOutcome {
    time: f64,
    blocks: Vec<(usize, BlockState)>,
    rollbacks: usize,
    restore_skips: usize,
    shrinks: usize,
    cost: ShrinkCost,
}

/// Shrink recovery: fence the dead rank(s) behind a new membership epoch,
/// re-home their blocks onto the survivors with the migration-minimizing
/// planner, and restore a consistent state from disk or buddy replicas.
///
/// Comm failures inside this routine (a *second* death mid-recovery) panic
/// through the comm layer — the caller runs it under [`catch_comm`] and
/// retries against the new, larger dead set.
fn recover_and_rehome(
    sim: &mut DistributedSim<'_>,
    replica: Option<&ReplicaStore>,
    source: ShrinkSource,
    recovery: &mut StepRecovery,
    trigger: &CommError,
) -> Result<(), RankFailure> {
    let tel = sim.telemetry().clone();
    let recovery_start = Instant::now();
    let _span = tel.span_cat("shrink_recovery", "recovery");
    let step = sim.step_index();
    // 1. Membership round: agree on the survivor set, install the next
    // epoch, fence stale pre-death messages.
    // A death racing the round fails it like any comm operation, so the
    // caller's catch_comm retries with the larger dead set.
    let Some(change) = sim.comm_rank().recover_membership() else {
        // The failure was not a death (e.g. a timeout with every peer
        // alive) — there is nothing to shrink away from.
        return Err(RankFailure::ShrinkRecovery {
            step,
            detail: format!("comm failure without a membership change: {trigger}"),
        });
    };
    tel.set_epoch(change.epoch);
    tel.gauge_set("membership/epoch", change.epoch as f64);
    tel.counter_add("shrink/ranks_lost", change.newly_dead.len() as u64);
    // The budget is in deaths, not in rounds: a second death that lands
    // before this round converges is fenced by the same round and raises
    // no further comm failure, so it has to be charged here.
    let deaths = sim.comm_rank().size() - change.alive.len();
    if deaths > MAX_SHRINKS {
        return Err(RankFailure::ShrinkExhausted {
            shrinks: deaths,
            step,
            detail: format!("{deaths} ranks fenced by epoch {}: {trigger}", change.epoch),
        });
    }
    // 2. Agree on the pre-death placement. A death mid-migration can leave
    // survivor views divergent (some applied the migration epoch, some
    // aborted first); the fields are fully restored below anyway, so the
    // coordinator's view is as good as any — it just has to be *shared*.
    let current: Vec<usize> = {
        let rank = sim.comm_rank();
        let mine: Vec<u8> = sim
            .placement()
            .iter()
            .flat_map(|&r| (r as u32).to_le_bytes())
            .collect();
        rank.broadcast(change.alive[0], Bytes::from(mine))
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as usize)
            .collect()
    };
    // 3. Re-home the dead ranks' blocks. Weights come from the descriptors
    // (deterministic and replicated), so every survivor computes the same
    // plan with no extra coordination.
    let weights: Vec<f64> = (0..current.len())
        .map(|id| {
            let d = sim.decomp().block(id).dims(0);
            (d.nx * d.ny * d.nz) as f64
        })
        .collect();
    let plan = plan_shrink(&weights, &current, &change.alive);
    let rehomed = plan.moves.len();
    sim.adopt_placement(plan.placement);
    // 4. Restore a consistent global state at the shrunken rank count.
    match source {
        ShrinkSource::Disk => {
            if recovery.resume(sim)?.is_none() {
                return Err(RankFailure::ShrinkRecovery {
                    step,
                    detail: "no checkpoint set to re-home from".into(),
                });
            }
        }
        ShrinkSource::Buddy => {
            let rep = replica.expect("buddy shrink source allocates a replica store");
            let moved = rep.restore(sim).map_err(|e| RankFailure::ShrinkRecovery {
                step,
                detail: format!("buddy restore failed: {e}"),
            })?;
            tel.counter_add("shrink/replica_bytes_moved", moved);
        }
    }
    tel.gauge_set("shrink/restored_step", sim.step_index() as f64);
    tel.counter_add("shrink/blocks_rehomed", rehomed as u64);
    tel.counter_add(
        "shrink/recovery_wall_ns",
        recovery_start.elapsed().as_nanos() as u64,
    );
    Ok(())
}

/// Run `target_steps` of a distributed simulation to completion despite
/// rank failures *and* silent state corruption: each attempt resumes from
/// the newest restorable checkpoint set (or initializes with `init` when
/// none exists) and writes checkpoints at the configured cadence. A rank
/// death tears the universe down and triggers the next attempt — possibly
/// on a different rank count. A failed health scan (see
/// [`RecoveryPolicy`]) instead rolls back in-flight: the newest set that
/// restores cleanly and scans healthy is re-loaded, remediation is applied,
/// and the run continues without universe teardown; only an exhausted
/// rollback budget escalates to a full restart via a typed [`RankFailure`].
///
/// Each rank announces its step index to the fault-injection layer via
/// `fault_step`, so a [`FaultPlan::kill`] at step *k* fires exactly when
/// step *k* is about to run; [`RecoveryPolicy::field_fault_plans`] inject
/// field corruption the same way, keyed by attempt.
pub fn run_resilient<F>(
    params: ModelParams,
    spec: DomainSpec,
    cfg: KernelConfig,
    overlap: OverlapOptions,
    target_steps: usize,
    opts: ResilientOpts,
    init: F,
) -> Result<ResilientOutcome, ResilientError>
where
    F: Fn(&mut BlockState) + Send + Sync + 'static,
{
    assert!(opts.max_attempts > 0 && !opts.ranks.is_empty());
    let params = Arc::new(params);
    let init = Arc::new(init);
    let nb_total = spec.num_blocks();
    let mut failures: Vec<AttemptFailure> = Vec::new();

    for attempt in 0..opts.max_attempts {
        let n_ranks = *opts
            .ranks
            .get(attempt)
            .unwrap_or_else(|| opts.ranks.last().unwrap());

        let mut ucfg = UniverseCfg::default();
        if let Some(plan) = opts.fault_plans.get(attempt) {
            ucfg = ucfg.with_faults(plan.clone());
        }
        if opts.shrink.is_some() {
            // Fail fast: a survivor blocked on a live-but-stuck peer aborts
            // on *any* unfenced death, so the whole survivor set converges
            // on the membership round instead of waiting out the op timeout.
            ucfg = ucfg.with_fail_fast();
        }

        let params = Arc::clone(&params);
        let init = Arc::clone(&init);
        let root = opts.ckpt_root.clone();
        let precision = opts.precision;
        let cadence = opts.cadence.clone();
        let recovery = opts.recovery.clone();
        let field_plan = recovery
            .field_fault_plans
            .get(attempt)
            .cloned()
            .unwrap_or_default();
        let retain = opts.retain_sets;
        let threads = opts.threads;
        let rebalance = opts.rebalance.clone();
        let shrink = opts.shrink;

        type RankResult = Result<RankOutcome, RankFailure>;
        let rank_main = move |rank: Rank| -> RankResult {
            let mut sim = DistributedSim::new(
                &rank,
                (*params).clone(),
                Decomposition::new(spec),
                cfg,
                overlap,
            );
            sim.set_threads(threads);
            if let Some(hc) = recovery.health {
                sim.set_health_monitor(Some(
                    HealthMonitor::new(hc).with_faults(field_plan.clone()),
                ));
            }
            let mut rec = StepRecovery {
                root: Some(root.clone()),
                precision,
                keep: retain,
                max_rollbacks: recovery.max_rollbacks,
                rollbacks: 0,
                restore_skips: 0,
            };
            match rec.resume(&mut sim)? {
                Some(step) => sim.telemetry().gauge_set("ckpt/resumed_step", step as f64),
                None => sim.init_blocks(|b| init(b)),
            }
            // Attach after init/restore: the policy's cold-start priors
            // classify the actual block contents.
            sim.set_rebalance_policy(rebalance.clone());
            let mut sched = cadence.clone();
            let mut shrinks = 0usize;
            let mut replica = (shrink == Some(ShrinkSource::Buddy)).then(ReplicaStore::default);
            let mut pending_failure: Option<CommError> = None;
            while sim.step_index() < target_steps {
                if let Some(err) = pending_failure.take() {
                    let source = shrink.expect("comm failures are only caught in shrink mode");
                    shrinks += 1;
                    sim.telemetry().counter_add("shrink/deaths_detected", 1);
                    if shrinks > MAX_SHRINKS {
                        return Err(RankFailure::ShrinkExhausted {
                            shrinks,
                            step: sim.step_index(),
                            detail: err.to_string(),
                        });
                    }
                    match catch_comm(|| {
                        recover_and_rehome(&mut sim, replica.as_ref(), source, &mut rec, &err)
                    }) {
                        Ok(Ok(())) => {
                            // Recovered: re-attach the rebalancer onto
                            // the adopted placement, like after any
                            // init/restore.
                            sim.set_rebalance_policy(rebalance.clone());
                            sim.telemetry().counter_add("shrink/recoveries", 1);
                        }
                        Ok(Err(rf)) => return Err(rf),
                        // Another death mid-recovery: loop back, burn
                        // another unit of the shrink budget, retry the
                        // membership round against the larger dead set.
                        Err(e2) => pending_failure = Some(e2),
                    }
                    continue;
                }
                let one_step = || -> Result<(), RankFailure> {
                    rank.fault_step(sim.step_index() as u64);
                    let t0 = Instant::now();
                    sim.step();
                    sched.observe_step(t0.elapsed());
                    let step = sim.step_index();
                    let due = step < target_steps && sched.due(step);
                    if let AfterStep::Checkpointed(wall) = rec.after_step(&mut sim, due)? {
                        sched.observe_checkpoint(&rank, wall, step);
                        if let Some(rep) = replica.as_mut() {
                            // Mirror the just-checkpointed state into buddy
                            // RAM so a shrink can restore it without
                            // touching disk.
                            rep.capture(&sim);
                            sim.telemetry().counter_add("replica/captures", 1);
                            sim.telemetry()
                                .gauge_set("replica/bytes_held", rep.bytes_held() as f64);
                        }
                    }
                    Ok(())
                };
                match catch_comm(one_step) {
                    Ok(Ok(())) => {}
                    Ok(Err(rf)) => return Err(rf),
                    Err(err) => match shrink {
                        Some(_) => pending_failure = Some(err),
                        // Classic mode keeps the PR 2 contract: the comm
                        // failure unwinds this rank and the attempt tears
                        // down for a full restart.
                        None => std::panic::panic_any(CommPanic {
                            rank: rank.rank(),
                            err,
                        }),
                    },
                }
            }
            let snap = sim.telemetry().metrics_snapshot();
            let ctr = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
            let cost = ShrinkCost {
                blocks_rehomed: ctr("shrink/blocks_rehomed"),
                bytes_moved: ctr("shrink/replica_bytes_moved"),
                recovery_secs: ctr("shrink/recovery_wall_ns") as f64 / 1e9,
            };
            let ids = sim.local_block_ids().to_vec();
            let blocks = std::mem::take(&mut sim.blocks);
            Ok(RankOutcome {
                time: sim.time(),
                blocks: ids.into_iter().zip(blocks).collect(),
                rollbacks: rec.rollbacks,
                restore_skips: rec.restore_skips,
                shrinks,
                cost,
            })
        };

        // Shrink mode survives deaths, so an attempt succeeds when every
        // block is accounted for by the survivors. In classic mode any death
        // fails the attempt as a whole.
        let out = Universe::run_surviving(n_ranks, ucfg, rank_main);
        let lost_ranks = opts.shrink.is_none() && !out.dead.is_empty();
        let mut oks: Vec<(usize, RankOutcome)> = Vec::new();
        let mut errs: Vec<RankFailure> = Vec::new();
        for (r, res) in out.results.into_iter().enumerate() {
            match res {
                Some(Ok(o)) => oks.push((r, o)),
                Some(Err(e)) => errs.push(e),
                // A dead rank simply has no result; in shrink mode its
                // blocks must resurface on a survivor for the coverage
                // check below.
                None => {}
            }
        }
        let mut ids: Vec<usize> = oks
            .iter()
            .flat_map(|(_, o)| o.blocks.iter().map(|(id, _)| *id))
            .collect();
        ids.sort_unstable();
        let covered = ids.iter().copied().eq(0..nb_total);
        if !lost_ranks && errs.is_empty() && covered && !oks.is_empty() {
            let time = oks[0].1.time;
            let rollbacks = oks.iter().map(|(_, o)| o.rollbacks).max().unwrap_or(0);
            let restore_skips = oks.iter().map(|(_, o)| o.restore_skips).max().unwrap_or(0);
            let shrinks = oks.iter().map(|(_, o)| o.shrinks).max().unwrap_or(0);
            let survivors: Vec<usize> = oks.iter().map(|(r, _)| *r).collect();
            let shrink_cost = ShrinkCost {
                blocks_rehomed: oks
                    .iter()
                    .map(|(_, o)| o.cost.blocks_rehomed)
                    .max()
                    .unwrap_or(0),
                bytes_moved: oks.iter().map(|(_, o)| o.cost.bytes_moved).sum(),
                recovery_secs: oks
                    .iter()
                    .map(|(_, o)| o.cost.recovery_secs)
                    .fold(0.0, f64::max),
            };
            let mut tagged: Vec<(usize, BlockState)> =
                oks.into_iter().flat_map(|(_, o)| o.blocks).collect();
            tagged.sort_by_key(|(id, _)| *id);
            return Ok(ResilientOutcome {
                blocks: tagged.into_iter().map(|(_, b)| b).collect(),
                time,
                attempts: attempt + 1,
                failures,
                rollbacks,
                restore_skips,
                shrinks,
                survivors,
                shrink_cost,
            });
        }
        if lost_ranks || errs.is_empty() {
            failures.push(AttemptFailure::Universe(UniverseError { dead: out.dead }));
        } else {
            failures.push(AttemptFailure::Ranks(errs));
        }
    }
    Err(ResilientError::Exhausted {
        attempts: opts.max_attempts,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Power-of-two durations keep every EMA and interval computation exact
    // in binary floating point, so the planned intervals can be asserted
    // without wall-clock slack.

    #[test]
    fn auto_cadence_interval_follows_measured_costs() {
        let out = Universe::run(1, |rank| {
            let mut c = CheckpointCadence::new(0.25);
            assert_eq!(c.interval(), 1, "first checkpoint is the probe");
            c.observe_step(Duration::from_secs_f64(1.0 / 64.0));
            c.observe_checkpoint(&rank, Duration::from_secs_f64(0.25), 1);
            // ckpt / (step * budget) = 0.25 / (1/64 * 0.25) = 64.
            assert_eq!(c.interval(), 64);
            assert!(!c.due(64));
            assert!(c.due(65));
            // Cheaper checkpoints tighten the interval.
            c.observe_checkpoint(&rank, Duration::from_secs_f64(1.0 / 16.0), 65);
            assert_eq!(c.interval(), 16);
            assert!(c.due(81));
            true
        });
        assert!(out[0]);
    }

    #[test]
    fn auto_cadence_agrees_across_ranks() {
        // Ranks measure different step costs; the allreduced worst rank
        // defines a single interval for everyone, keeping the collective
        // checkpoint writes in lockstep.
        let intervals = Universe::run(2, |rank| {
            let mut c = CheckpointCadence::new(0.25);
            let step = if rank.rank() == 0 {
                1.0 / 64.0
            } else {
                1.0 / 32.0
            };
            c.observe_step(Duration::from_secs_f64(step));
            c.observe_checkpoint(&rank, Duration::from_secs_f64(0.25), 1);
            c.interval()
        });
        assert_eq!(intervals, vec![32, 32]);
    }

    #[test]
    fn fixed_cadence_never_replans() {
        Universe::run(1, |rank| {
            let mut c = CheckpointCadence::fixed(7);
            c.observe_step(Duration::from_secs(1));
            c.observe_checkpoint(&rank, Duration::from_secs(30), 7);
            assert_eq!(c.interval(), 7);
            assert!(!c.due(13));
            assert!(c.due(14));
        });
    }
}
