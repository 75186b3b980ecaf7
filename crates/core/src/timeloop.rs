//! Distributed time loop: Algorithms 1 and 2 over blocks and ranks.
//!
//! Each rank owns a set of blocks from the decomposition. [`DistributedSim`]
//! runs the ranked form of the shared stage list (`crate::stages`): ghost
//! layers are exchanged through `eutectica-comm` along the rank's exchange
//! plan (`exchange.rs`; local block pairs copy directly, remote pairs send
//! one frame per peer), and the window's front search and the health
//! scan's counters are reduced across ranks. The rebalance check and the
//! per-step accounting ([`StepTimings`], [`StepRecord`]s) follow the list.
//!
//! The four communication-hiding combinations of Fig. 8 are supported via
//! [`OverlapOptions`]:
//!
//! * **hide µ**: the µ_src ghost exchange is posted *before* the φ-sweep and
//!   completed after it — straightforward "since the following update of the
//!   phase-field only depends on local µ values" (Sec. 3.3). The µ-field
//!   needs no edge ghosts, so all six face messages are independent.
//! * **hide φ**: the φ_dst exchange's x-phase is posted before the *local*
//!   µ-sweep; the sequenced y/z phases (which must wait for x) run after it,
//!   followed by the neighbor µ-sweep (the J_at part). This requires the
//!   split µ-kernel, whose per-slice temperature values are computed twice —
//!   the overhead that makes φ-hiding a net loss in the paper's Fig. 8.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use bytes::Bytes;
use eutectica_blockgrid::balance::imbalance;
use eutectica_blockgrid::boundary::{Bc, BoundarySpec};
use eutectica_blockgrid::codec::DEFAULT_FIELD_BYTE_BUDGET;
use eutectica_blockgrid::decomp::Decomposition;
use eutectica_blockgrid::rebalance::{
    blend_weights, plan_rebalance, CostEntry, CostModel, RebalancePolicy,
};
use eutectica_blockgrid::Face;
use eutectica_comm::{CommStats, FaultPhase, Rank, ReduceOp};
use eutectica_telemetry::{StepRecord, Telemetry};

use crate::exchange::{ExchangePlan, FieldSel, Phase};
use crate::health::{HealthMonitor, HealthReport};
use crate::kernels::KernelConfig;
use crate::metrics;
use crate::params::ModelParams;
use crate::stages::{Stepper, Transport};
use crate::state::{BlockState, PHI_LIQUID};
use crate::{N_COMP, N_PHASES};

/// Which ghost exchanges to overlap with computation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OverlapOptions {
    /// Hide the µ communication behind the φ-sweep.
    pub hide_mu: bool,
    /// Hide (part of) the φ communication behind the split µ-sweep.
    pub hide_phi: bool,
}

impl OverlapOptions {
    /// All four combinations measured in Fig. 8.
    pub const ALL: [OverlapOptions; 4] = [
        OverlapOptions {
            hide_mu: false,
            hide_phi: false,
        },
        OverlapOptions {
            hide_mu: true,
            hide_phi: false,
        },
        OverlapOptions {
            hide_mu: false,
            hide_phi: true,
        },
        OverlapOptions {
            hide_mu: true,
            hide_phi: true,
        },
    ];
}

/// Exposed (non-hidden) time per communication routine, plus compute time.
///
/// This is a *derived view* over the rank's telemetry timing tree: the
/// spans opened inside [`DistributedSim::step`] accrue into the tree, and
/// the tree is folded back into these fields after every step. With
/// telemetry disabled the durations stay zero (only `steps` counts).
#[derive(Copy, Clone, Debug, Default)]
pub struct StepTimings {
    /// Time in the φ ghost-exchange routines.
    pub phi_comm: Duration,
    /// Time in the µ ghost-exchange routines.
    pub mu_comm: Duration,
    /// Time in compute sweeps.
    pub compute: Duration,
    /// Time applying boundary conditions.
    pub bc: Duration,
    /// Time in [`DistributedSim::refresh_src_ghosts`] (init and
    /// moving-window refreshes).
    pub ghost_refresh: Duration,
    /// Steps accumulated.
    pub steps: usize,
}

impl StepTimings {
    fn saturating_sub(self, base: StepTimings) -> StepTimings {
        StepTimings {
            phi_comm: self.phi_comm.saturating_sub(base.phi_comm),
            mu_comm: self.mu_comm.saturating_sub(base.mu_comm),
            compute: self.compute.saturating_sub(base.compute),
            bc: self.bc.saturating_sub(base.bc),
            ghost_refresh: self.ghost_refresh.saturating_sub(base.ghost_refresh),
            steps: self.steps.saturating_sub(base.steps),
        }
    }
}

/// Counters describing what the dynamic rebalancer has done on this rank.
#[derive(Clone, Debug, Default)]
pub struct RebalanceStats {
    /// Collective imbalance checks performed.
    pub checks: u64,
    /// Migrations executed (plan applications; counted on every rank).
    pub rebalances: u64,
    /// Blocks this rank shipped away.
    pub blocks_sent: u64,
    /// Blocks this rank received.
    pub blocks_received: u64,
    /// Serialized migration bytes this rank sent.
    pub bytes_sent: u64,
    /// Global ids of every block that ever migrated *away* from this rank
    /// (the union across ranks is the set of blocks that moved at least
    /// once).
    pub migrated_away: BTreeSet<usize>,
    /// Measured max/avg rank load at the first imbalance check (the static
    /// assignment's imbalance, before any migration could have happened).
    pub first_imbalance_before: Option<f64>,
    /// Measured max/avg rank load at the most recent check, *before* any
    /// migration that check triggered. After a rebalance, the next check's
    /// value is the dynamic placement's measured imbalance.
    pub last_imbalance_before: f64,
    /// Predicted max/avg rank load under the placement adopted by the most
    /// recent check (equals `last_imbalance_before` when nothing moved).
    pub last_imbalance_after: f64,
    /// Measured `before` imbalance of every check in order (same value on
    /// every rank — it comes from the collective decision broadcast). Lets
    /// callers average out single-check timing noise.
    pub imbalance_history: Vec<f64>,
}

/// Live state of the dynamic rebalancer (policy + cost model + per-window
/// sweep-time accumulator).
struct RebalanceState {
    policy: RebalancePolicy,
    cost: CostModel,
    /// Sweep seconds accumulated per local block since the last check,
    /// aligned with `local_ids`.
    acc: Vec<f64>,
    /// Steps accumulated into `acc`.
    acc_steps: usize,
    stats: RebalanceStats,
}

impl RebalanceState {
    /// Drop the open measurement window and size it for `n_local` blocks.
    fn reset_window(&mut self, n_local: usize) {
        self.acc = vec![0.0; n_local];
        self.acc_steps = 0;
    }
}

/// The ranked form of the stage list's transport: ghost exchange along this
/// rank's exchange plan, with the chosen overlap, and reductions across
/// ranks.
struct Net<'r> {
    rank: &'r Rank,
    /// Ghost transfers of this rank under the current placement; rebuilt
    /// wherever the placement or the local blocks change.
    plan: ExchangePlan,
    overlap: OverlapOptions,
    /// Ghost wire bytes `[sent, received]` per field (in [`FieldSel::ALL`]
    /// order) since the previous step's accounting: the frames' lengths.
    ghost_bytes: [[u64; 2]; 4],
}

impl Transport for Net<'_> {
    fn overlap(&self) -> OverlapOptions {
        self.overlap
    }

    /// Remote faces are sent and same-rank faces copied.
    fn post(&mut self, blocks: &mut [BlockState], field: FieldSel, phase: Phase) {
        self.ghost_bytes[field as usize][0] += self.plan.post(blocks, field, phase, self.rank);
    }

    fn finish(&mut self, blocks: &mut [BlockState], field: FieldSel, phase: Phase) {
        self.ghost_bytes[field as usize][1] += self.plan.finish(blocks, field, phase, self.rank);
    }

    fn barrier(&self) {
        self.rank.barrier();
    }

    fn sum_f64s(&self, sums: &mut [f64]) {
        let total = self.rank.allreduce_f64s(sums, ReduceOp::Sum);
        sums.copy_from_slice(&total);
    }

    fn sum_counts(&self, counts: [u64; 4]) -> [u64; 4] {
        // Fault-injection window: a rank can be killed *inside* the
        // collective scan, exercising death during its reductions.
        self.rank.fault_phase(FaultPhase::HealthScan);
        let s = self.rank.allreduce_u64s(&counts);
        [s[0], s[1], s[2], s[3]]
    }
}

/// One rank's share of a distributed simulation.
pub struct DistributedSim<'r> {
    /// Model parameters.
    pub params: ModelParams,
    /// Kernel configuration.
    pub cfg: KernelConfig,
    rank: &'r Rank,
    decomp: Decomposition,
    n_ranks: usize,
    local_ids: Vec<usize>,
    /// Local block states, aligned with `local_ids`.
    pub blocks: Vec<BlockState>,
    /// Accumulated timings (derived from the telemetry timing tree).
    pub timings: StepTimings,
    /// The stage list: progress counters, window, telemetry, sweep pool,
    /// health monitor.
    stepper: Stepper,
    /// The stage list's transport over this rank.
    net: Net<'r>,
    /// Comm-stats snapshot at the end of the previous step (per-step deltas).
    prev_stats: CommStats,
    step_records: Option<Vec<StepRecord>>,
    /// Current block→rank placement, identical on every rank. Starts as the
    /// static decomposition mapping; migrations rewrite it collectively.
    placement: Vec<usize>,
    /// Dynamic load rebalancing (cost model + migration), when attached.
    rebalance: Option<RebalanceState>,
}

impl<'r> DistributedSim<'r> {
    /// Build this rank's blocks for the given decomposition.
    pub fn new(
        rank: &'r Rank,
        params: ModelParams,
        decomp: Decomposition,
        cfg: KernelConfig,
        overlap: OverlapOptions,
    ) -> Self {
        let n_ranks = rank.size();
        let local_ids = decomp.blocks_of_rank(rank.rank(), n_ranks);
        let blocks: Vec<BlockState> = local_ids
            .iter()
            .map(|&id| empty_block(&decomp, id))
            .collect();
        let placement: Vec<usize> = (0..decomp.blocks().len())
            .map(|id| decomp.rank_of(id, n_ranks))
            .collect();
        let plan = ExchangePlan::build(&decomp, &placement, &local_ids, &blocks, rank.rank());
        Self {
            params,
            cfg,
            rank,
            decomp,
            n_ranks,
            local_ids,
            blocks,
            timings: StepTimings::default(),
            stepper: Stepper::new(rank.rank()),
            net: Net {
                rank,
                plan,
                overlap,
                ghost_bytes: [[0; 2]; 4],
            },
            prev_stats: CommStats::default(),
            step_records: None,
            placement,
            rebalance: None,
        }
    }

    /// Share each block's sweeps across `threads` intra-rank worker threads
    /// (z-slab partition). The result is bit-identical to the serial sweep
    /// at any thread count; `1` restores the serial path with no pool
    /// overhead.
    pub fn set_threads(&mut self, threads: usize) {
        self.stepper.set_threads(threads);
    }

    /// This rank's telemetry collector (enabled by default; spans inside
    /// [`DistributedSim::step`] accrue here).
    pub fn telemetry(&self) -> &Telemetry {
        &self.stepper.telemetry
    }

    /// Replace the telemetry collector — pass [`Telemetry::disabled`] to
    /// make every span a no-op, or a trace-enabled collector to buffer
    /// Chrome trace events.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.stepper.set_telemetry(tel);
    }

    /// Start (or stop) recording one [`StepRecord`] per step.
    pub fn record_steps(&mut self, on: bool) {
        self.step_records = if on { Some(Vec::new()) } else { None };
    }

    /// Take the step records accumulated so far.
    pub fn take_step_records(&mut self) -> Vec<StepRecord> {
        self.step_records
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Enable the moving-window technique (Sec. 3.3) for distributed runs.
    /// Requires a decomposition with a single block layer in z (the window
    /// shifts within each block; blocks never exchange interior slabs).
    pub fn enable_moving_window(&mut self, trigger_fraction: f64) {
        assert_eq!(
            self.decomp.spec.blocks[2], 1,
            "moving window requires a single block layer in z"
        );
        self.stepper
            .enable_window(trigger_fraction, self.decomp.spec.cells);
    }

    /// Number of moving-window shifts so far.
    pub fn window_shifts(&self) -> usize {
        self.stepper.window_shifts
    }

    /// Initialize every local block with `f` and refresh all source ghosts.
    pub fn init_blocks(&mut self, f: impl Fn(&mut BlockState)) {
        for b in &mut self.blocks {
            f(b);
        }
        self.refresh_src_ghosts();
    }

    /// Exchange + boundary-handle the source fields (after init or window
    /// shifts).
    pub fn refresh_src_ghosts(&mut self) {
        self.stepper.refresh(&mut self.net, &mut self.blocks);
    }

    /// Execute one time step: the stage list, then the rebalance check and
    /// the step's accounting. When a [`HealthMonitor`] is attached, any
    /// faults its plan schedules for this step are injected into the source
    /// fields first, and an invariant scan (collective: all ranks scan at
    /// the same cadence) runs after the step completes.
    pub fn step(&mut self) {
        let (wall, shifts) = (Instant::now(), self.stepper.window_shifts);
        {
            let _step = self.telemetry().span("step");
            let costs = self.rebalance.as_mut().map(|rb| rb.acc.as_mut_slice());
            self.stepper.step(
                &mut self.net,
                &mut self.blocks,
                &self.local_ids,
                &self.params,
                self.cfg,
                costs,
            );
            self.maybe_rebalance();
        }
        self.finish_step_accounting(wall.elapsed(), shifts);
    }

    /// Attach (or detach, with `None`) the silent-corruption monitor. All
    /// ranks of a distributed run must use the same scan configuration —
    /// the scan's cross-rank reduction is collective.
    pub fn set_health_monitor(&mut self, monitor: Option<HealthMonitor>) {
        self.stepper.health = monitor;
    }

    /// Attach (or detach, with `None`) the dynamic load rebalancer. Every
    /// rank of a distributed run must attach an *identical* policy — the
    /// imbalance check is collective (gather → decide on rank 0 →
    /// broadcast → p2p migration).
    ///
    /// Each currently-local block gets a cold-start cost prior from its
    /// region composition ([`crate::regions::classify_block`]) weighted by
    /// [`crate::regions::DEFAULT_REGION_RATES`]; attach *after*
    /// `init_blocks` for informative priors. Measured sweep times take over
    /// from the first check onward.
    ///
    /// Rebalancing is **placement-invariant**: a rebalanced run produces
    /// bit-identical fields to an unbalanced run of the same scenario. It
    /// composes with communication hiding, threaded sweeps, health scans
    /// and checkpoint/restore (`pfio::resilient::restore_blocks` iterates
    /// the post-migration `local_block_ids`).
    pub fn set_rebalance_policy(&mut self, policy: Option<RebalancePolicy>) {
        let rates = crate::regions::DEFAULT_REGION_RATES;
        self.rebalance = policy.map(|policy| {
            let mut cost = CostModel::new(policy.alpha);
            for (li, &id) in self.local_ids.iter().enumerate() {
                let counts = crate::regions::classify_block(&self.blocks[li]);
                let prior = crate::regions::block_weight(&counts, rates);
                cost.track(id, prior);
            }
            RebalanceState {
                policy,
                cost,
                acc: vec![0.0; self.local_ids.len()],
                acc_steps: 0,
                stats: RebalanceStats::default(),
            }
        });
    }

    /// Counters of the attached rebalancer, if any.
    pub fn rebalance_stats(&self) -> Option<&RebalanceStats> {
        self.rebalance.as_ref().map(|rb| &rb.stats)
    }

    /// Current block→rank placement (identical on every rank; index =
    /// global block id). Without rebalancing this is the static
    /// decomposition mapping.
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// Take the unhealthy report produced by the most recent scan, if any
    /// (consumed once — the recovery driver's trigger).
    pub fn take_unhealthy_report(&mut self) -> Option<HealthReport> {
        self.stepper.health.as_mut()?.take_unhealthy()
    }

    /// Scan all local blocks and reduce across ranks, regardless of
    /// cadence. Collective — every rank must call it at the same point.
    /// Returns `None` when no monitor is attached. Leaves the monitor
    /// untouched (the recovery driver uses this to validate freshly
    /// restored state).
    pub fn health_scan_now(&self) -> Option<HealthReport> {
        self.stepper.scan(&self.net, &self.blocks, &self.local_ids)
    }

    /// Remediation: re-project interior φ cells that violate the Gibbs
    /// simplex onto it, mirror src into dst, and refresh ghosts. Collective
    /// (ghost refresh). Valid cells are left bit-untouched. Returns the
    /// number of cells whose value changed on this rank.
    pub fn project_phi_to_simplex(&mut self) -> u64 {
        self.stepper.project_phi(&mut self.net, &mut self.blocks)
    }

    /// Collective rebalance check + in-flight migration, when due.
    ///
    /// Protocol (every rank executes the same sequence — deadlock-free,
    /// trigger determined purely by step count and the shared policy):
    /// 1. every rank folds its window of measured sweep seconds into the
    ///    EWMA cost model and gathers `(id, measured?, prior)` to rank 0;
    /// 2. rank 0 blends the entries onto one weight scale, measures the
    ///    imbalance of the current placement, picks the new placement (a
    ///    forced plan, or strategy + move-minimizing diff when over the
    ///    threshold) and broadcasts the decision;
    /// 3. all ranks apply it: serialize departing blocks through the
    ///    bit-exact migration codec, ship them p2p, decode arrivals,
    ///    rebuild boundary specs from the block descriptors, and barrier.
    fn maybe_rebalance(&mut self) {
        let due = {
            let Some(rb) = &mut self.rebalance else {
                return;
            };
            rb.acc_steps += 1;
            let forced = rb.policy.forced_at(self.stepper.step as u64).is_some();
            let periodic = rb.policy.every > 0 && self.stepper.step % rb.policy.every == 0;
            forced || periodic
        };
        if !due {
            return;
        }
        let _g = self.telemetry().span_cat("rebalance", "rebalance");
        {
            let rb = self.rebalance.as_mut().unwrap();
            if rb.acc_steps > 0 {
                let inv = 1.0 / rb.acc_steps as f64;
                for (li, &id) in self.local_ids.iter().enumerate() {
                    if rb.acc[li] > 0.0 {
                        rb.cost.observe(id, rb.acc[li] * inv);
                    }
                    rb.acc[li] = 0.0;
                }
                rb.acc_steps = 0;
            }
            rb.stats.checks += 1;
        }
        self.telemetry().counter_add("rebalance/checks", 1);
        let payload = {
            let snap = self.rebalance.as_ref().unwrap().cost.snapshot();
            let mut out = Vec::with_capacity(snap.len() * 25);
            for (id, measured, prior) in snap {
                out.extend_from_slice(&(id as u64).to_le_bytes());
                out.push(measured.is_some() as u8);
                out.extend_from_slice(&measured.unwrap_or(0.0).to_le_bytes());
                out.extend_from_slice(&prior.to_le_bytes());
            }
            Bytes::from(out)
        };
        let decision = match self.rank.gather(0, payload) {
            Some(bufs) => {
                let out = self.decide_rebalance(&bufs);
                self.rank.broadcast(0, Bytes::from(out))
            }
            None => self.rank.broadcast(0, Bytes::new()),
        };
        let before = f64::from_le_bytes(decision[0..8].try_into().unwrap());
        let after = f64::from_le_bytes(decision[8..16].try_into().unwrap());
        {
            let rb = self.rebalance.as_mut().unwrap();
            rb.stats.first_imbalance_before.get_or_insert(before);
            rb.stats.last_imbalance_before = before;
            rb.stats.last_imbalance_after = after;
            rb.stats.imbalance_history.push(before);
        }
        self.telemetry()
            .gauge_set("rebalance/imbalance_before", before);
        self.telemetry()
            .gauge_set("rebalance/imbalance_after", after);
        if decision[16] == 1 {
            let nb = self.placement.len();
            let mut newp = Vec::with_capacity(nb);
            for chunk in decision[17..].chunks_exact(4) {
                newp.push(u32::from_le_bytes(chunk.try_into().unwrap()) as usize);
            }
            assert_eq!(newp.len(), nb, "malformed rebalance decision");
            if newp != self.placement {
                self.execute_migration(newp);
            }
        }
    }

    /// Rank 0 only: blend the gathered cost entries into global weights and
    /// decide the new placement. Returns the serialized decision
    /// (`imbalance_before f64 | imbalance_after f64 | changed u8
    /// [| placement u32 × n_blocks]`) to broadcast.
    fn decide_rebalance(&self, bufs: &[Bytes]) -> Vec<u8> {
        let mut entries = Vec::new();
        for buf in bufs {
            for chunk in buf.chunks_exact(25) {
                let id = u64::from_le_bytes(chunk[0..8].try_into().unwrap()) as usize;
                let has = chunk[8] != 0;
                let measured = f64::from_le_bytes(chunk[9..17].try_into().unwrap());
                let prior = f64::from_le_bytes(chunk[17..25].try_into().unwrap());
                entries.push((id, has.then_some(measured), prior));
            }
        }
        let nb = self.placement.len();
        let weights = blend_weights(&entries, nb);
        let before = imbalance(&weights, &self.placement, self.n_ranks);
        let p = &self.rebalance.as_ref().unwrap().policy;
        let new_placement: Option<Vec<usize>> =
            if let Some(fp) = p.forced_at(self.stepper.step as u64) {
                assert_eq!(fp.len(), nb, "forced plan length must equal block count");
                assert!(
                    fp.iter().all(|&r| r < self.n_ranks),
                    "forced plan rank out of range"
                );
                assert!(
                    (0..self.n_ranks).all(|r| fp.contains(&r)),
                    "forced plan must keep every rank non-empty"
                );
                (fp != self.placement.as_slice()).then(|| fp.to_vec())
            } else if before > p.threshold {
                let plan = plan_rebalance(&weights, &self.placement, self.n_ranks, p.slack);
                (!plan.is_empty()).then_some(plan.placement)
            } else {
                None
            };
        let after = new_placement
            .as_ref()
            .map_or(before, |np| imbalance(&weights, np, self.n_ranks));
        let mut out = Vec::with_capacity(17 + 4 * nb);
        out.extend_from_slice(&before.to_le_bytes());
        out.extend_from_slice(&after.to_le_bytes());
        match &new_placement {
            Some(np) => {
                out.push(1);
                for &r in np {
                    out.extend_from_slice(&(r as u32).to_le_bytes());
                }
            }
            None => out.push(0),
        }
        out
    }

    /// Apply `new_placement`: serialize departing blocks, ship them p2p on
    /// tags above the ghost-exchange tag space, decode arrivals (dims
    /// verified against the descriptor, CRC verified by the codec), rebuild
    /// boundary specs, and refresh every placement-derived cache.
    /// Collective: every rank calls this with the identical placement.
    ///
    /// Bit-identity argument: at the step boundary, the live state of a
    /// block is exactly `{phi,mu} × {src,dst}` plus its origin — the
    /// kernels' staggered slab buffers are per-sweep temporaries and the
    /// boundary specs are pure functions of the decomposition. All four
    /// buffers migrate bit-exactly (ghosts included), so the next sweep on
    /// the new owner reads exactly the bytes the old owner would have read.
    /// Under deferred µ exchange (`hide_mu`) the µ comm-face ghosts are one
    /// step stale at this point; they migrate bit-exactly too, and the next
    /// step's hidden exchange overwrites them (from senders resolved via
    /// the *new* placement on every rank) before any kernel reads them.
    fn execute_migration(&mut self, new_placement: Vec<usize>) {
        let _g = self.telemetry().span_cat("migration", "rebalance");
        // Fault-injection window: a rank can be killed *inside* the
        // migration epoch, between the plan broadcast and the p2p shipping.
        self.rank.fault_phase(FaultPhase::Migration);
        let my = self.rank.rank();
        let nb = new_placement.len();
        // Migration tags sit just above the ghost-exchange tag space.
        let first_mig_tag = self.net.plan.tag_space();
        let mig_tag = |id: usize| first_mig_tag + id as u32;
        let old = std::mem::replace(&mut self.placement, new_placement);
        let mut departing = Vec::new();
        for li in 0..self.local_ids.len() {
            let id = self.local_ids[li];
            let dst = self.placement[id];
            if dst == my {
                continue;
            }
            let entry = self
                .rebalance
                .as_mut()
                .and_then(|rb| rb.cost.untrack(id))
                .unwrap_or(CostEntry {
                    measured: None,
                    prior: 1.0,
                });
            let bytes = crate::migrate::encode_block(&self.blocks[li], id as u64, &entry);
            if let Some(rb) = self.rebalance.as_mut() {
                rb.stats.blocks_sent += 1;
                rb.stats.bytes_sent += bytes.len() as u64;
                rb.stats.migrated_away.insert(id);
            }
            self.telemetry()
                .counter_add("rebalance/bytes_sent", bytes.len() as u64);
            self.rank.isend(dst, mig_tag(id), Bytes::from(bytes));
            departing.push(li);
        }
        // Post receives for arrivals in ascending id order (deterministic).
        let mut arrivals = Vec::new();
        for id in 0..nb {
            if self.placement[id] == my && old[id] != my {
                arrivals.push((id, self.rank.irecv(old[id], mig_tag(id))));
            }
        }
        // Drop departed state (descending index keeps indices valid).
        for &li in departing.iter().rev() {
            self.blocks.remove(li);
            self.local_ids.remove(li);
        }
        for (id, req) in arrivals {
            let payload = self.rank.wait(req);
            let desc = self.decomp.block(id);
            let (pid, mut state, entry) =
                crate::migrate::decode_block(&payload, desc.dims(1), DEFAULT_FIELD_BYTE_BUDGET)
                    .unwrap_or_else(|e| panic!("migration of block {id} failed: {e}"));
            assert_eq!(pid as usize, id, "migration payload id mismatch");
            set_block_bcs(&mut state, desc.neighbors);
            let pos = self.local_ids.partition_point(|&x| x < id);
            self.local_ids.insert(pos, id);
            self.blocks.insert(pos, state);
            if let Some(rb) = self.rebalance.as_mut() {
                rb.cost.adopt(id, entry);
                rb.stats.blocks_received += 1;
            }
        }
        if let Some(rb) = self.rebalance.as_mut() {
            rb.reset_window(self.local_ids.len());
            rb.stats.rebalances += 1;
        }
        self.rebuild_exchange_plan();
        self.telemetry().counter_add("rebalance/migrations", 1);
        // Fence the migration epoch: no ghost message of the next step can
        // race a straggling migration payload, and migration tags can be
        // reused by later epochs.
        self.rank.barrier();
    }

    /// Adopt a new block→rank placement *without* shipping any state — the
    /// shrink-and-continue recovery path. Every local block is rebuilt
    /// empty from its descriptor (dims, origin, boundary specs derived from
    /// the static decomposition), ready to be filled by a checkpoint or
    /// buddy-replica restore. Placement-derived caches (`local_block_ids`,
    /// rebalancer measurement window) are refreshed;
    /// re-attach the rebalance policy after the restore for fresh cost
    /// priors. Not collective by itself, but every survivor must adopt the
    /// identical placement before the collective restore that follows.
    pub fn adopt_placement(&mut self, new_placement: Vec<usize>) {
        assert_eq!(
            new_placement.len(),
            self.placement.len(),
            "placement length must equal block count"
        );
        let my = self.rank.rank();
        self.placement = new_placement;
        self.local_ids = (0..self.placement.len())
            .filter(|&id| self.placement[id] == my)
            .collect();
        self.blocks = self
            .local_ids
            .iter()
            .map(|&id| empty_block(&self.decomp, id))
            .collect();
        self.rebuild_exchange_plan();
        if let Some(rb) = &mut self.rebalance {
            rb.reset_window(self.local_ids.len());
        }
    }

    /// Re-plan the ghost exchange after `placement` / `local_ids` changed.
    fn rebuild_exchange_plan(&mut self) {
        self.net.plan = ExchangePlan::build(
            &self.decomp,
            &self.placement,
            &self.local_ids,
            &self.blocks,
            self.rank.rank(),
        );
    }

    /// Fold the telemetry tree back into the legacy [`StepTimings`] view,
    /// bridge per-step comm-stats deltas and the exchange plan's per-field
    /// ghost bytes into the metrics registry, and
    /// append a [`StepRecord`] when recording is on.
    fn finish_step_accounting(&mut self, wall: Duration, shifts_before: usize) {
        let mut t = self.derive_timings();
        t.steps = self.stepper.step;
        let prev = std::mem::replace(&mut self.timings, t);

        if !self.stepper.telemetry.is_enabled() && self.step_records.is_none() {
            return;
        }
        let d = t.saturating_sub(prev);
        // One sweep pair updates every local interior cell once.
        let interior_cells: u64 = self
            .blocks
            .iter()
            .map(|b| b.dims.interior_volume() as u64)
            .sum();
        let mlups = metrics::mlups(interior_cells as usize, 1, wall.as_secs_f64().max(1e-12));
        let tel = &self.stepper.telemetry;
        tel.counter_add("cells_updated", interior_cells);
        tel.gauge_set("step_mlups", mlups);

        let (stats, p) = (self.rank.stats(), &self.prev_stats);
        // One batch, so a live sampler never sees bytes without their
        // messages.
        tel.counters_add(&[
            ("comm/bytes_sent", stats.bytes_sent - p.bytes_sent),
            (
                "comm/bytes_received",
                stats.bytes_received - p.bytes_received,
            ),
            ("comm/messages_sent", stats.messages_sent - p.messages_sent),
            (
                "comm/messages_received",
                stats.messages_received - p.messages_received,
            ),
        ]);
        let wait_delta = stats.recv_wait_hist.delta_since(&p.recv_wait_hist);
        tel.hist_merge("comm/recv_wait_ns", &wait_delta);

        let ghost_bytes = std::mem::take(&mut self.net.ghost_bytes);
        for (field, [sent, received]) in FieldSel::ALL.into_iter().zip(ghost_bytes) {
            let [sent_name, received_name] = field.counters();
            tel.counters_add(&[(sent_name, sent), (received_name, received)]);
        }
        let ghost_sent = ghost_bytes.iter().map(|b| b[0]).sum();
        let ghost_recv = ghost_bytes.iter().map(|b| b[1]).sum();

        if self.step_records.is_some() {
            let rec = StepRecord {
                rank: self.rank.rank(),
                step: self.stepper.step - 1,
                wall_ms: wall.as_secs_f64() * 1e3,
                mlups,
                cells_updated: interior_cells,
                compute_ms: d.compute.as_secs_f64() * 1e3,
                phi_comm_ms: d.phi_comm.as_secs_f64() * 1e3,
                mu_comm_ms: d.mu_comm.as_secs_f64() * 1e3,
                bc_ms: d.bc.as_secs_f64() * 1e3,
                ghost_bytes_sent: ghost_sent,
                ghost_bytes_received: ghost_recv,
                recv_wait_ms: stats
                    .recv_wait_time
                    .saturating_sub(p.recv_wait_time)
                    .as_secs_f64()
                    * 1e3,
                recv_wait_hist: wait_delta,
                window_shifts: (self.stepper.window_shifts - shifts_before) as u64,
            };
            if let Some(recs) = &mut self.step_records {
                recs.push(rec);
            }
        }
        self.prev_stats = stats;
    }

    /// Fold the timing tree into [`StepTimings`] buckets by leaf span name
    /// (cumulative since construction; `steps` is filled by the caller).
    fn derive_timings(&self) -> StepTimings {
        let snap = self.telemetry().tree_snapshot();
        let mut t = StepTimings::default();
        for r in &snap.rows {
            let leaf = r.path.rsplit('/').next().unwrap_or(&r.path);
            let d = Duration::from_secs_f64(r.total_secs);
            match leaf {
                "phi_comm" => t.phi_comm += d,
                "mu_comm" => t.mu_comm += d,
                "phi_sweep" | "mu_sweep" | "mu_sweep_local" | "mu_sweep_neighbor" => t.compute += d,
                "bc" => t.bc += d,
                "refresh_src_ghosts" => t.ghost_refresh += d,
                _ => {}
            }
        }
        t
    }

    /// Run `n` steps.
    pub fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run `n` steps, invoking `hook` after each one — the attachment
    /// point for in-situ observers (live metrics export, streamed field
    /// slices) without coupling the time loop to them.
    ///
    /// The hook runs on the rank thread between steps, so it may freely
    /// read `phi_src`/`mu_src` and issue its own collectives — every rank
    /// executes it at the same step boundary. Hooks that communicate must
    /// do so in identical order on all ranks (collective discipline is
    /// the hook's responsibility).
    pub fn step_n_with(&mut self, n: usize, mut hook: impl FnMut(&mut Self)) {
        for _ in 0..n {
            self.step();
            hook(self);
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.stepper.time
    }

    /// Number of completed time steps.
    pub fn step_index(&self) -> usize {
        self.stepper.step
    }

    /// The communicator rank this simulation runs on.
    pub fn comm_rank(&self) -> &Rank {
        self.rank
    }

    /// The domain decomposition this simulation was built from.
    pub fn decomp(&self) -> &Decomposition {
        &self.decomp
    }

    /// Global ids of this rank's blocks, aligned with
    /// [`DistributedSim::blocks`].
    pub fn local_block_ids(&self) -> &[usize] {
        &self.local_ids
    }

    /// Overwrite the progress counters when resuming from a checkpoint:
    /// simulation time, completed step count, and moving-window shift count.
    /// Field contents and block origins must be restored separately (see
    /// `eutectica-pfio`'s checkpoint sets).
    pub fn set_progress(&mut self, time: f64, step: usize, window_shifts: usize) {
        // A progress jump (restore / rollback) also invalidates the health
        // monitor's pending verdict.
        self.stepper.set_progress(time, step, window_shifts);
        // Likewise, sweep times measured before the jump describe blocks
        // whose contents just changed — drop the open measurement window
        // (the EWMA itself survives; it converges again within a few steps).
        if let Some(rb) = &mut self.rebalance {
            rb.reset_window(self.local_ids.len());
        }
    }
}

/// An empty block built from its descriptor in the decomposition.
fn empty_block(decomp: &Decomposition, id: usize) -> BlockState {
    let desc = decomp.block(id);
    let mut st = BlockState::new(desc.dims(1), desc.origin);
    set_block_bcs(&mut st, desc.neighbors);
    st
}

/// Give `state` the boundary specs its neighbor topology implies.
fn set_block_bcs(state: &mut BlockState, neighbors: [Option<usize>; 6]) {
    state.bc_phi = block_bc::<N_PHASES>(neighbors, PHI_LIQUID);
    state.bc_mu = block_bc::<N_COMP>(neighbors, [0.0; N_COMP]);
}

/// Boundary spec for a block: Comm on faces with neighbors, the
/// directional-solidification physical conditions elsewhere.
fn block_bc<const NC: usize>(neighbors: [Option<usize>; 6], top: [f64; NC]) -> BoundarySpec<NC> {
    let mut spec = BoundarySpec::uniform(Bc::Comm);
    for f in Face::ALL {
        if neighbors[f as usize].is_none() {
            let bc = match f {
                Face::ZLow => Bc::Neumann,
                Face::ZHigh => Bc::Dirichlet(top),
                _ => Bc::Neumann, // non-periodic side walls (rare)
            };
            spec = spec.with_face(f, bc);
        }
    }
    spec
}

/// Run a distributed simulation on `n_ranks` thread-ranks. Every rank
/// builds its [`DistributedSim`] and hands it to `per_rank`, which
/// configures it (sweep threads, initial condition, policies), steps it and
/// returns what the caller wants harvested — final blocks, timings,
/// rebalance counters. Results come back in rank order.
///
/// Convenience wrapper over [`DistributedSim`] for tests and benchmarks.
pub fn run_distributed<T, F>(
    params: ModelParams,
    decomp: Decomposition,
    n_ranks: usize,
    cfg: KernelConfig,
    overlap: OverlapOptions,
    per_rank: F,
) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&mut DistributedSim<'_>) -> T + Send + Sync + 'static,
{
    eutectica_comm::Universe::run(n_ranks, move |rank| {
        let mut sim = DistributedSim::new(&rank, params.clone(), decomp.clone(), cfg, overlap);
        per_rank(&mut sim)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eutectica_blockgrid::decomp::DomainSpec;

    fn init_fn(b: &mut BlockState) {
        let seeds = crate::init::VoronoiSeeds::generate([16, 16], 5, [0.34, 0.33, 0.33], 11);
        crate::init::init_directional_block(b, &seeds, 4);
    }

    /// `steps` steps from `init`, with the moving window at `window` when
    /// given; every rank's final blocks + window shifts.
    fn run_steps(
        params: ModelParams,
        decomp: Decomposition,
        n_ranks: usize,
        steps: usize,
        overlap: OverlapOptions,
        window: Option<f64>,
        init: fn(&mut BlockState),
    ) -> Vec<(Vec<BlockState>, usize)> {
        let cfg = KernelConfig::default();
        run_distributed(params, decomp, n_ranks, cfg, overlap, move |sim| {
            if let Some(trigger) = window {
                sim.enable_moving_window(trigger);
            }
            sim.init_blocks(init);
            sim.step_n(steps);
            (std::mem::take(&mut sim.blocks), sim.window_shifts())
        })
    }

    /// Bitwise comparison of distributed blocks against the matching
    /// sub-boxes of a single-block [`crate::solver::Simulation`] state.
    fn assert_blocks_equal_single_block(blocks: &[BlockState], single: &BlockState, what: &str) {
        let g = single.dims.ghost;
        for b in blocks {
            for (x, y, z) in b.dims.interior_iter() {
                let [gx, gy, gz] = [x, y, z].map(|v| v - b.dims.ghost + g);
                let at = (
                    gx + b.origin[0],
                    gy + b.origin[1],
                    gz + b.origin[2] - single.origin[2],
                );
                for c in 0..N_PHASES {
                    assert_eq!(
                        b.phi_src.at(c, x, y, z).to_bits(),
                        single.phi_src.at(c, at.0, at.1, at.2).to_bits(),
                        "{what}: phi[{c}] at global {at:?}"
                    );
                }
                for c in 0..N_COMP {
                    assert_eq!(
                        b.mu_src.at(c, x, y, z).to_bits(),
                        single.mu_src.at(c, at.0, at.1, at.2).to_bits(),
                        "{what}: mu[{c}] at global {at:?}"
                    );
                }
            }
        }
    }

    fn single_block_after(params: &ModelParams, cells: [usize; 3], steps: usize) -> BlockState {
        let mut sim = crate::solver::Simulation::new(params.clone(), cells).unwrap();
        init_fn(&mut sim.state);
        sim.step_n(steps);
        sim.state
    }

    /// The plan-driven exchange reproduces the single-block solver bit for
    /// bit: eight blocks on one rank (every face a two-field copy, z open)
    /// and one block that is its own x/y neighbor (every face an in-field
    /// copy), with the µ exchange sequenced and hidden (plain). With the
    /// moving window on, every lateral layout — one block, and 2×2 and 2×1
    /// columns on one rank and spread over two — shifts at the same steps
    /// as the single block: the front is found over the whole plane.
    #[test]
    fn local_face_copies_match_single_block_solver() {
        let params = ModelParams::ag_al_cu();
        let cells = [16, 16, 16];
        let steps = 6;
        let single = single_block_after(&params, cells, steps);
        for blocks in [[2, 2, 2], [1, 1, 1]] {
            for hide_mu in [false, true] {
                let out = run_steps(
                    params.clone(),
                    Decomposition::new(DomainSpec::directional(cells, blocks)),
                    1,
                    steps,
                    OverlapOptions {
                        hide_mu,
                        hide_phi: false,
                    },
                    None,
                    init_fn,
                );
                let what = format!("blocks {blocks:?}, hide_mu {hide_mu}");
                assert_blocks_equal_single_block(&out[0].0, &single, &what);
            }
        }

        // Strong undercooling, a low trigger: the front climbs through the
        // window in 3 shifts.
        let (mut params, cells, trigger, steps) = (params, [16, 16, 20], 0.25, 400);
        params.t0 = 0.9;
        params.grad_g = 0.0;
        let mut sim = crate::solver::Simulation::new(params.clone(), cells).unwrap();
        init_fn(&mut sim.state);
        sim.enable_moving_window(trigger);
        sim.step_n(steps);
        assert!(sim.window_shifts() >= 3, "{} shifts", sim.window_shifts());
        for blocks in [[1, 1, 1], [2, 2, 1], [2, 1, 1]] {
            // A rank owns at least one block, so one block runs on one rank.
            for n_ranks in 1..=blocks.iter().product::<usize>().min(2) {
                let out = run_steps(
                    params.clone(),
                    Decomposition::new(DomainSpec::directional(cells, blocks)),
                    n_ranks,
                    steps,
                    OverlapOptions::default(),
                    Some(trigger),
                    init_fn,
                );
                for (r, (blocks_r, shifts)) in out.iter().enumerate() {
                    let what = format!("window, blocks {blocks:?}, rank {r} of {n_ranks}");
                    assert_eq!(*shifts, sim.window_shifts(), "{what}: shifts");
                    assert_blocks_equal_single_block(blocks_r, &sim.state, &what);
                }
            }
        }
    }

    /// A placement change between steps re-plans the exchange: two ranks
    /// swap all their blocks half-way (state shipped as migration frames,
    /// topology via `adopt_placement`, as the shrink recovery does) and the
    /// run still ends bit-identical to the single-block solver. With a
    /// stale plan every formerly local face would be copied from an empty
    /// block and every formerly remote one sent to its own rank.
    #[test]
    fn adopt_placement_replans_the_exchange() {
        let params = ModelParams::ag_al_cu();
        let cells = [16, 16, 16];
        let single = single_block_after(&params, cells, 6);
        let p = params.clone();
        let out = eutectica_comm::Universe::run(2, move |rank| {
            let decomp = Decomposition::new(DomainSpec::directional(cells, [2, 2, 2]));
            let overlap = OverlapOptions {
                hide_mu: true,
                hide_phi: false,
            };
            let mut sim =
                DistributedSim::new(&rank, p.clone(), decomp, KernelConfig::default(), overlap);
            sim.init_blocks(init_fn);
            sim.step_n(3);

            let peer = 1 - rank.rank();
            let frame_tag = |id: usize| 1_000_000 + id as u32;
            let entry = CostEntry {
                measured: None,
                prior: 1.0,
            };
            for (b, &id) in sim.blocks.iter().zip(&sim.local_ids) {
                let frame = crate::migrate::encode_block(b, id as u64, &entry);
                rank.send(peer, frame_tag(id), Bytes::from(frame));
            }
            let swapped: Vec<usize> = sim.placement().iter().map(|&r| 1 - r).collect();
            sim.adopt_placement(swapped);
            for li in 0..sim.local_ids.len() {
                let id = sim.local_ids[li];
                let frame = rank.recv(peer, frame_tag(id));
                let (_, mut state, _) = crate::migrate::decode_block(
                    &frame,
                    sim.blocks[li].dims,
                    DEFAULT_FIELD_BYTE_BUDGET,
                )
                .unwrap();
                state.bc_phi = sim.blocks[li].bc_phi;
                state.bc_mu = sim.blocks[li].bc_mu;
                sim.blocks[li] = state;
            }
            rank.barrier();

            sim.step_n(3);
            std::mem::take(&mut sim.blocks)
        });
        for (r, blocks) in out.iter().enumerate() {
            assert_eq!(blocks.len(), 4, "rank {r} block count after the swap");
            assert_blocks_equal_single_block(blocks, &single, &format!("rank {r}"));
        }
    }

    /// 1 rank with 4 blocks must match 4 ranks with 1 block each.
    #[test]
    fn rank_count_invariance() {
        let params = ModelParams::ag_al_cu();
        let spec = DomainSpec::directional([16, 16, 8], [2, 2, 1]);
        let run = |n_ranks: usize| {
            run_steps(
                params.clone(),
                Decomposition::new(spec),
                n_ranks,
                4,
                OverlapOptions::default(),
                None,
                init_fn,
            )
        };
        let one = run(1);
        let four = run(4);
        // Collect blocks by id.
        let blocks_one = &one[0].0;
        for (r, (blocks, _)) in four.iter().enumerate() {
            assert_eq!(blocks.len(), 1);
            let b = &blocks[0];
            let a = &blocks_one[r];
            assert_eq!(a.origin, b.origin, "block order mismatch");
            for c in 0..N_PHASES {
                assert_eq!(a.phi_src.comp(c), b.phi_src.comp(c), "phi[{c}] rank {r}");
            }
            for c in 0..N_COMP {
                assert_eq!(a.mu_src.comp(c), b.mu_src.comp(c), "mu[{c}] rank {r}");
            }
        }
    }

    /// All four overlap combinations produce (numerically) the same fields.
    #[test]
    fn overlap_equivalence() {
        let params = ModelParams::ag_al_cu();
        let spec = DomainSpec::directional([8, 8, 8], [2, 1, 1]);
        let runs: Vec<_> = OverlapOptions::ALL
            .iter()
            .map(|&ov| {
                run_steps(
                    params.clone(),
                    Decomposition::new(spec),
                    2,
                    4,
                    ov,
                    None,
                    |b| {
                        let seeds =
                            crate::init::VoronoiSeeds::generate([8, 8], 3, [0.34, 0.33, 0.33], 2);
                        crate::init::init_directional_block(b, &seeds, 3);
                    },
                )
            })
            .collect();
        // The hide_mu toggle only reorders when the identical exchange and
        // BC work happens, so interiors must be *bit*-identical — both with
        // and without hide_phi (ALL is ordered none, µ, φ, µ+φ). Ghost
        // layers are excluded: under deferral the µ comm-face ghosts are
        // refreshed at the start of the *next* step, so they lag one step
        // at shutdown without ever being read stale.
        for (a_idx, b_idx) in [(0usize, 1usize), (2, 3)] {
            for (r, (blocks, _)) in runs[b_idx].iter().enumerate() {
                for (bi, b) in blocks.iter().enumerate() {
                    let a = &runs[a_idx][r].0[bi];
                    for (x, y, z) in b.dims.interior_iter() {
                        for c in 0..N_PHASES {
                            assert_eq!(
                                a.phi_src.at(c, x, y, z),
                                b.phi_src.at(c, x, y, z),
                                "hide_mu phi[{c}] at ({x},{y},{z})"
                            );
                        }
                        for c in 0..N_COMP {
                            assert_eq!(
                                a.mu_src.at(c, x, y, z),
                                b.mu_src.at(c, x, y, z),
                                "hide_mu mu[{c}] at ({x},{y},{z})"
                            );
                        }
                    }
                }
            }
        }
        let base = &runs[0];
        for (k, run) in runs.iter().enumerate().skip(1) {
            for (r, (blocks, _)) in run.iter().enumerate() {
                for (bi, b) in blocks.iter().enumerate() {
                    let a = &base[r].0[bi];
                    for c in 0..N_PHASES {
                        for (x, y, z) in b.dims.interior_iter() {
                            let d = (a.phi_src.at(c, x, y, z) - b.phi_src.at(c, x, y, z)).abs();
                            assert!(d < 1e-11, "overlap {k} phi[{c}] differs by {d:e}");
                        }
                    }
                    for c in 0..N_COMP {
                        for (x, y, z) in b.dims.interior_iter() {
                            let d = (a.mu_src.at(c, x, y, z) - b.mu_src.at(c, x, y, z)).abs();
                            assert!(d < 1e-11, "overlap {k} mu[{c}] differs by {d:e}");
                        }
                    }
                }
            }
        }
    }
}
