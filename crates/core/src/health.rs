//! In-situ field health monitoring and deterministic numerical-fault
//! injection — the silent-corruption defense layer.
//!
//! At the paper's scale (up to 262k cores) silent data corruption and
//! numerical divergence dominate failure modes long before rank death does:
//! a single NaN born in one cell of a φ-sweep propagates through ghost
//! exchanges and poisons the whole domain without any process ever dying.
//! This module enforces the solver's field invariants at runtime with cheap
//! periodic per-block scans:
//!
//! * every φ and µ value is finite,
//! * φ lies on the Gibbs simplex: Σ_α φ_α within tolerance of 1 and every
//!   component within `[−tol, 1 + tol]` (the contract established by
//!   [`crate::simplex::project_to_simplex`]),
//! * µ lies inside physically plausible bounds derived from the parabolic
//!   thermodynamics (`TernarySystem::mu_plausible_bounds`).
//!
//! Per-rank [`ScanStats`] are reduced into a cross-rank [`HealthReport`]
//! via `Rank::allreduce_u64s` by the timeloop (the identity for a
//! one-block `Simulation`); `pfio::resilient` and the campaign runner react
//! to unhealthy reports with in-flight rollback (see `RecoveryPolicy`).
//!
//! # What a scan can and cannot see
//!
//! Invariant scans detect corruption that leaves the *valid manifold*:
//! non-finite values, off-simplex φ, implausible µ. Corruption that lands
//! back inside the valid region (e.g. a low-order mantissa flip) is
//! indistinguishable from legitimate state by construction — defending
//! against that requires redundant computation, not invariants. In practice
//! exponent-level upsets are the detectable signature, and the φ/µ update
//! equations propagate any non-finite input into µ (which nothing clips),
//! so NaN/Inf-class corruption is caught within one scan cadence.
//!
//! [`FieldFaultPlan`] is the numerical-fault analogue of `comm::FaultPlan`:
//! a seed-deterministic plan of bit-flips / NaN writes into φ/µ storage at
//! chosen (step, block, cell) coordinates, injected by the stage list just
//! before the step consumes the source fields. Each fault fires exactly
//! once — a rollback past the injection step does *not* re-inject, modeling
//! a transient upset rather than a stuck bit.

use crate::params::ModelParams;
use crate::state::BlockState;
use crate::sweep_pool::{slab, SweepPool};
use crate::{N_COMP, N_PHASES};
use std::sync::Mutex;

/// Default scan cadence (steps between invariant scans).
const DEFAULT_SCAN_EVERY: usize = 4;

/// Tolerance on the Gibbs-simplex invariants: |Σφ − 1| and the
/// per-component box `[−tol, 1 + tol]`.
pub(crate) const DEFAULT_SIMPLEX_TOL: f64 = 1e-6;

/// Configuration of the periodic invariant scans.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Scan cadence: scan after every `every`-th step (0 disables scans).
    pub every: usize,
    /// Plausible per-component µ bounds (inclusive), usually derived from
    /// the thermodynamics via [`HealthConfig::for_params`].
    pub mu_bounds: [(f64, f64); N_COMP],
}

impl HealthConfig {
    /// Scan configuration derived from the model parameters: default
    /// cadence, µ bounds from `TernarySystem::mu_plausible_bounds` over the
    /// temperature range the frozen-T ansatz can produce across a generous
    /// 1024-cell column, doubled in half-width for slack.
    pub fn for_params(params: &ModelParams) -> Self {
        let span = params.grad_g.abs() * 1024.0 * params.dx + 0.5;
        let (t_lo, t_hi) = (params.t0 - span, params.t0 + span);
        let tight = params.sys.mu_plausible_bounds(t_lo, t_hi, 0.5);
        let mut mu_bounds = [(0.0, 0.0); N_COMP];
        for i in 0..N_COMP {
            let (lo, hi) = tight[i];
            let (mid, half) = (0.5 * (lo + hi), 0.5 * (hi - lo));
            mu_bounds[i] = (mid - 2.0 * half, mid + 2.0 * half);
        }
        Self {
            every: DEFAULT_SCAN_EVERY,
            mu_bounds,
        }
    }

    /// Same configuration with a different scan cadence.
    pub fn with_every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }
}

/// Which invariant a cell violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BadKind {
    /// A φ component is NaN or infinite.
    PhiNonFinite,
    /// φ is finite but off the Gibbs simplex (sum or component bounds).
    PhiOffSimplex,
    /// A µ component is NaN or infinite.
    MuNonFinite,
    /// µ is finite but outside the plausible thermodynamic bounds.
    MuOutOfBounds,
}

/// First offending cell found by a scan (diagnostic breadcrumb).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BadCell {
    /// Global block id.
    pub block: u64,
    /// Padded (ghost-inclusive) cell coordinates within the block.
    pub cell: [usize; 3],
    /// Violated invariant.
    pub kind: BadKind,
}

impl BadCell {
    /// Deterministic ordering key (block, z, y, x) so merged scans report
    /// the same first-bad cell regardless of slab/thread scheduling.
    fn key(&self) -> (u64, usize, usize, usize) {
        (self.block, self.cell[2], self.cell[1], self.cell[0])
    }
}

/// Violation counters of one scan (one block, one slab, or a merged total).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScanStats {
    /// Interior cells examined.
    pub cells: u64,
    /// Cells with a non-finite φ component.
    pub phi_nonfinite: u64,
    /// Cells with finite φ off the Gibbs simplex.
    pub phi_off_simplex: u64,
    /// Cells with a non-finite µ component.
    pub mu_nonfinite: u64,
    /// Cells with finite µ outside the plausible bounds.
    pub mu_out_of_bounds: u64,
    /// Deterministically-first offending cell, if any.
    pub first_bad: Option<BadCell>,
}

impl ScanStats {
    /// Total invariant violations.
    pub fn violations(&self) -> u64 {
        self.phi_nonfinite + self.phi_off_simplex + self.mu_nonfinite + self.mu_out_of_bounds
    }

    /// Violation counters in the fixed order used for the cross-rank
    /// reduction: `[phi_nonfinite, phi_off_simplex, mu_nonfinite,
    /// mu_out_of_bounds]`.
    pub fn counts(&self) -> [u64; 4] {
        [
            self.phi_nonfinite,
            self.phi_off_simplex,
            self.mu_nonfinite,
            self.mu_out_of_bounds,
        ]
    }

    /// Accumulate `other` into `self`. Counter sums are order-independent
    /// and `first_bad` keeps the smallest (block, z, y, x) key, so merging
    /// slab partials yields the same result at any thread count.
    pub(crate) fn merge(&mut self, other: &ScanStats) {
        self.cells += other.cells;
        self.phi_nonfinite += other.phi_nonfinite;
        self.phi_off_simplex += other.phi_off_simplex;
        self.mu_nonfinite += other.mu_nonfinite;
        self.mu_out_of_bounds += other.mu_out_of_bounds;
        self.first_bad = match (self.first_bad, other.first_bad) {
            (Some(a), Some(b)) => Some(if a.key() <= b.key() { a } else { b }),
            (a, b) => a.or(b),
        };
    }

    fn record(&mut self, block: u64, cell: [usize; 3], kind: BadKind) {
        let bad = BadCell { block, cell, kind };
        self.first_bad = match self.first_bad {
            Some(cur) if cur.key() <= bad.key() => Some(cur),
            _ => Some(bad),
        };
    }
}

/// Whether one φ cell is finite, and whether it lies on the Gibbs simplex
/// within [`DEFAULT_SIMPLEX_TOL`].
#[inline(always)]
fn phi_verdict(cell: [f64; N_PHASES]) -> (bool, bool) {
    let tol = DEFAULT_SIMPLEX_TOL;
    let mut sum = 0.0;
    let mut finite = true;
    let mut boxed = true;
    for v in cell {
        finite &= v.is_finite();
        boxed &= (-tol..=1.0 + tol).contains(&v);
        sum += v;
    }
    (finite, boxed && (sum - 1.0).abs() <= tol)
}

/// Scan the interior z-rows `z0..z1` of one block against the invariants.
/// Every φ cell of a slab in `φ_src`'s constant zone gets the verdict of
/// the zone's value, so a valid value is checked once and those slabs are
/// scanned for µ only.
fn scan_block_range(
    state: &BlockState,
    cfg: &HealthConfig,
    block: u64,
    z0: usize,
    z1: usize,
) -> ScanStats {
    let d = state.dims;
    let g = d.ghost;
    let phi = state.phi_src.comps();
    let mu = state.mu_src.comps();
    let (const_from, const_val) = state.phi_src.const_zone();
    let phi_checked_below = match phi_verdict(const_val) {
        (true, true) => const_from,
        _ => usize::MAX,
    };
    let mut s = ScanStats::default();
    for z in z0..z1 {
        for y in g..g + d.ny {
            let row = d.idx(g, y, z);
            for i in 0..d.nx {
                let idx = row + i;
                let cell = [g + i, y, z];
                s.cells += 1;
                if z < phi_checked_below {
                    let (finite, on_simplex) = phi_verdict(core::array::from_fn(|c| phi[c][idx]));
                    if !finite {
                        s.phi_nonfinite += 1;
                        s.record(block, cell, BadKind::PhiNonFinite);
                    } else if !on_simplex {
                        s.phi_off_simplex += 1;
                        s.record(block, cell, BadKind::PhiOffSimplex);
                    }
                }
                let mut mu_finite = true;
                let mut mu_boxed = true;
                for c in 0..N_COMP {
                    let v = mu[c][idx];
                    mu_finite &= v.is_finite();
                    let (lo, hi) = cfg.mu_bounds[c];
                    mu_boxed &= (lo..=hi).contains(&v);
                }
                if !mu_finite {
                    s.mu_nonfinite += 1;
                    s.record(block, cell, BadKind::MuNonFinite);
                } else if !mu_boxed {
                    s.mu_out_of_bounds += 1;
                    s.record(block, cell, BadKind::MuOutOfBounds);
                }
            }
        }
    }
    s
}

/// Scan the full interior of one block (serial).
pub fn scan_block(state: &BlockState, cfg: &HealthConfig, block: u64) -> ScanStats {
    let (z0, z1) = state.dims.interior_z_range();
    scan_block_range(state, cfg, block, z0, z1)
}

/// Scan one block with z-slab work sharing across `pool`. The merge is
/// deterministic (see [`ScanStats::merge`]), so the result is identical to
/// [`scan_block`] at any thread count.
pub(crate) fn scan_block_pooled(
    pool: &SweepPool,
    state: &BlockState,
    cfg: &HealthConfig,
    block: u64,
) -> ScanStats {
    let (z0, z1) = state.dims.interior_z_range();
    let parts = pool.threads().min(z1 - z0);
    if parts <= 1 {
        return scan_block_range(state, cfg, block, z0, z1);
    }
    let total = Mutex::new(ScanStats::default());
    pool.run(parts, &|k| {
        let (lo, hi) = slab(z0, z1, parts, k);
        let partial = scan_block_range(state, cfg, block, lo, hi);
        total.lock().unwrap().merge(&partial);
    });
    total.into_inner().unwrap()
}

/// Which field component a fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldTarget {
    /// Order-parameter component `0..N_PHASES` of φ_src.
    Phi(usize),
    /// Chemical-potential component `0..N_COMP` of µ_src.
    Mu(usize),
}

/// How the targeted value is corrupted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// XOR the given bit (0..64) of the IEEE-754 representation — bit 62
    /// (exponent MSB) is the canonical detectable upset.
    BitFlip(u32),
    /// Overwrite with NaN.
    Nan,
    /// Overwrite with an arbitrary value.
    Set(f64),
}

/// One scheduled fault: corrupt `target` of `block` at interior-relative
/// `cell` just before step `step` runs (i.e. in the fields holding time
/// t_step). Cell coordinates are taken modulo the block's interior extent,
/// so seed-derived plans are valid for any block size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FieldFault {
    /// Step index (0-based) before which the fault fires.
    pub step: u64,
    /// Global block id.
    pub block: u64,
    /// Interior-relative cell coordinates (wrapped into the block).
    pub cell: [usize; 3],
    /// Targeted field component.
    pub target: FieldTarget,
    /// Corruption applied.
    pub kind: FaultKind,
}

/// Deterministic, seed-driven plan of numerical faults — the field-storage
/// analogue of `comm::FaultPlan`. Identical seeds and topology produce
/// identical injections on every run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FieldFaultPlan {
    /// Seed recorded for diagnostics (plans built explicitly may keep 0).
    pub seed: u64,
    faults: Vec<FieldFault>,
}

impl FieldFaultPlan {
    /// Empty plan tagged with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Add an explicitly placed fault.
    pub fn inject(mut self, fault: FieldFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Single seed-derived fault at step `step`: the block, cell, target
    /// component, and (for `pick_kind`) corruption all follow
    /// deterministically from `seed` via splitmix64.
    pub fn random_fault(
        seed: u64,
        step: u64,
        n_blocks: u64,
        interior: [usize; 3],
        kind: FaultKind,
    ) -> Self {
        let h = |i: u64| splitmix64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1)));
        let block = h(0) % n_blocks.max(1);
        let cell = [
            (h(1) % interior[0].max(1) as u64) as usize,
            (h(2) % interior[1].max(1) as u64) as usize,
            (h(3) % interior[2].max(1) as u64) as usize,
        ];
        let target = match h(4) % (N_PHASES + N_COMP) as u64 {
            t if t < N_PHASES as u64 => FieldTarget::Phi(t as usize),
            t => FieldTarget::Mu((t - N_PHASES as u64) as usize),
        };
        Self::new(seed).inject(FieldFault {
            step,
            block,
            cell,
            target,
            kind,
        })
    }

    /// All scheduled faults.
    pub fn faults(&self) -> &[FieldFault] {
        &self.faults
    }
}

/// Apply one fault to a block's source fields; returns `(old, new)` values
/// of the corrupted component.
pub fn apply_fault(state: &mut BlockState, fault: &FieldFault) -> (f64, f64) {
    let d = state.dims;
    let g = d.ghost;
    let x = g + fault.cell[0] % d.nx;
    let y = g + fault.cell[1] % d.ny;
    let z = g + fault.cell[2] % d.nz;
    let corrupt = |v: f64| match fault.kind {
        FaultKind::BitFlip(bit) => f64::from_bits(v.to_bits() ^ (1u64 << (bit % 64))),
        FaultKind::Nan => f64::NAN,
        FaultKind::Set(w) => w,
    };
    match fault.target {
        FieldTarget::Phi(c) => {
            let c = c % N_PHASES;
            let old = state.phi_src.at(c, x, y, z);
            let new = corrupt(old);
            state.phi_src.set(c, x, y, z, new);
            (old, new)
        }
        FieldTarget::Mu(c) => {
            let c = c % N_COMP;
            let old = state.mu_src.at(c, x, y, z);
            let new = corrupt(old);
            state.mu_src.set(c, x, y, z, new);
            (old, new)
        }
    }
}

/// Cross-rank health verdict of one scan, produced by the stage list.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Step count at scan time (completed steps).
    pub step: usize,
    /// This rank's local scan result (diagnostics; includes `first_bad`).
    pub local: ScanStats,
    /// Violation counters summed over all ranks, in [`ScanStats::counts`]
    /// order.
    pub global: [u64; 4],
}

impl HealthReport {
    /// True when no rank saw any violation.
    pub fn is_healthy(&self) -> bool {
        self.total_violations() == 0
    }

    /// Total violations across all ranks.
    pub(crate) fn total_violations(&self) -> u64 {
        self.global.iter().sum()
    }

    /// One-line diagnostic summary.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        let names = ["phi_nonfinite", "phi_off_simplex", "mu_nonfinite", "mu_oob"];
        for (name, &n) in names.iter().zip(&self.global) {
            if n > 0 {
                parts.push(format!("{name}={n}"));
            }
        }
        if let Some(bad) = self.local.first_bad {
            parts.push(format!(
                "first@block{}[{},{},{}]:{:?}",
                bad.block, bad.cell[0], bad.cell[1], bad.cell[2], bad.kind
            ));
        }
        format!(
            "step {}: {}",
            self.step,
            if parts.is_empty() {
                "healthy".into()
            } else {
                parts.join(" ")
            }
        )
    }
}

/// Per-simulation health state: scan configuration, the (fire-once) fault
/// plan, and the rolling scan results. Attached to a `DistributedSim` or a
/// `Simulation`, whose shared stage list (`crate::stages`) injects the
/// faults and runs the scans.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    /// Scan configuration.
    pub cfg: HealthConfig,
    plan: FieldFaultPlan,
    fired: Vec<bool>,
    pending_unhealthy: Option<HealthReport>,
}

impl HealthMonitor {
    /// Monitor with the given scan configuration and no fault plan.
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            plan: FieldFaultPlan::default(),
            fired: Vec::new(),
            pending_unhealthy: None,
        }
    }

    /// Attach a deterministic fault plan (testing / chaos drills).
    pub fn with_faults(mut self, plan: FieldFaultPlan) -> Self {
        self.fired = vec![false; plan.faults().len()];
        self.plan = plan;
        self
    }

    /// True when a scan is due after completing step number `step`.
    pub(crate) fn due(&self, step: usize) -> bool {
        self.cfg.every > 0 && step > 0 && step % self.cfg.every == 0
    }

    /// Take the unhealthy report produced by the latest scan, if any —
    /// consumed by the recovery driver; healthy scans leave `None` here.
    pub(crate) fn take_unhealthy(&mut self) -> Option<HealthReport> {
        self.pending_unhealthy.take()
    }

    /// Faults scheduled for `step` that have not fired yet; marks them
    /// fired (transient-upset semantics: rollback does not re-inject).
    pub(crate) fn due_faults(&mut self, step: u64) -> Vec<FieldFault> {
        let mut due = Vec::new();
        for (i, f) in self.plan.faults().iter().enumerate() {
            if f.step == step && !self.fired[i] {
                self.fired[i] = true;
                due.push(*f);
            }
        }
        due
    }

    /// Record a completed scan's report.
    pub(crate) fn record(&mut self, report: HealthReport) {
        if !report.is_healthy() {
            self.pending_unhealthy = Some(report);
        }
    }

    /// Forget a pending verdict, which a progress jump (restore / rollback)
    /// invalidates.
    pub(crate) fn on_progress_reset(&mut self) {
        self.pending_unhealthy = None;
    }
}

/// splitmix64 — the same tiny deterministic hash `comm::FaultPlan` uses.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eutectica_blockgrid::GridDims;

    fn cfg() -> HealthConfig {
        HealthConfig::for_params(&ModelParams::ag_al_cu())
    }

    fn block() -> BlockState {
        // Fresh liquid block: φ = (0,0,0,1), µ = 0 — healthy by construction.
        BlockState::new(GridDims::new(6, 5, 7, 1), [0, 0, 0])
    }

    #[test]
    fn clean_block_scans_healthy() {
        let s = scan_block(&block(), &cfg(), 0);
        assert_eq!(s.cells, 6 * 5 * 7);
        assert_eq!(s.violations(), 0);
        assert_eq!(s.first_bad, None);
    }

    #[test]
    fn each_violation_class_is_detected_and_classified() {
        let cases: [(FieldTarget, FaultKind, BadKind); 4] = [
            (FieldTarget::Phi(1), FaultKind::Nan, BadKind::PhiNonFinite),
            (
                FieldTarget::Phi(2),
                FaultKind::Set(0.5),
                BadKind::PhiOffSimplex,
            ),
            (FieldTarget::Mu(0), FaultKind::Nan, BadKind::MuNonFinite),
            (
                FieldTarget::Mu(1),
                FaultKind::Set(1e6),
                BadKind::MuOutOfBounds,
            ),
        ];
        for (target, kind, expect) in cases {
            let mut b = block();
            let fault = FieldFault {
                step: 0,
                block: 3,
                cell: [2, 1, 4],
                target,
                kind,
            };
            apply_fault(&mut b, &fault);
            let s = scan_block(&b, &cfg(), 3);
            assert_eq!(s.violations(), 1, "{target:?} {kind:?}");
            let bad = s.first_bad.expect("first_bad recorded");
            assert_eq!(bad.kind, expect);
            assert_eq!(bad.block, 3);
        }
    }

    #[test]
    fn exponent_bit_flip_on_phi_is_always_detected() {
        // Flipping the exponent MSB of any value in [0, 1] produces either
        // a huge value (≥ 2) or an Inf — both leave the simplex box.
        for &v in &[0.0f64, 1e-12, 0.25, 0.5, 0.999, 1.0] {
            let flipped = f64::from_bits(v.to_bits() ^ (1u64 << 62));
            assert!(
                !flipped.is_finite() || flipped.abs() >= 2.0 || flipped.abs() < 1e-30,
                "v={v} flipped={flipped}"
            );
        }
        let mut b = block();
        apply_fault(
            &mut b,
            &FieldFault {
                step: 0,
                block: 0,
                cell: [0, 0, 0],
                target: FieldTarget::Phi(3), // liquid φ = 1.0 → flips to huge
                kind: FaultKind::BitFlip(62),
            },
        );
        assert!(scan_block(&b, &cfg(), 0).violations() > 0);
    }

    #[test]
    fn pooled_scan_matches_serial_at_any_thread_count() {
        let mut b = block();
        apply_fault(
            &mut b,
            &FieldFault {
                step: 0,
                block: 7,
                cell: [1, 2, 3],
                target: FieldTarget::Mu(0),
                kind: FaultKind::Nan,
            },
        );
        apply_fault(
            &mut b,
            &FieldFault {
                step: 0,
                block: 7,
                cell: [4, 0, 6],
                target: FieldTarget::Phi(0),
                kind: FaultKind::Set(2.0),
            },
        );
        let serial = scan_block(&b, &cfg(), 7);
        for threads in [1, 2, 3, 8] {
            let pool = SweepPool::new(threads);
            let pooled = scan_block_pooled(&pool, &b, &cfg(), 7);
            assert_eq!(pooled, serial, "threads={threads}");
        }
    }

    #[test]
    fn merge_keeps_deterministic_first_bad() {
        let mk = |block, z| ScanStats {
            cells: 1,
            phi_nonfinite: 1,
            first_bad: Some(BadCell {
                block,
                cell: [0, 0, z],
                kind: BadKind::PhiNonFinite,
            }),
            ..Default::default()
        };
        let (a, b) = (mk(1, 5), mk(1, 2));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.first_bad.unwrap().cell[2], 2);
        assert_eq!(ab.phi_nonfinite, 2);
    }

    #[test]
    fn fault_plan_is_seed_deterministic_and_fires_once() {
        let p1 = FieldFaultPlan::random_fault(42, 5, 8, [16, 16, 16], FaultKind::Nan);
        let p2 = FieldFaultPlan::random_fault(42, 5, 8, [16, 16, 16], FaultKind::Nan);
        assert_eq!(p1, p2);
        let p3 = FieldFaultPlan::random_fault(43, 5, 8, [16, 16, 16], FaultKind::Nan);
        assert_ne!(p1, p3, "different seeds should move the fault");
        assert!(p1.faults()[0].block < 8);

        let mut m = HealthMonitor::new(cfg()).with_faults(p1);
        assert_eq!(m.due_faults(4).len(), 0);
        assert_eq!(m.due_faults(5).len(), 1);
        // Transient-upset semantics: a rollback past step 5 must not replay.
        assert_eq!(m.due_faults(5).len(), 0);
    }

    #[test]
    fn monitor_cadence_and_pending_verdicts() {
        let mut m = HealthMonitor::new(cfg().with_every(3));
        assert!(!m.due(0)); // nothing completed yet
        assert!(!m.due(2));
        assert!(m.due(3));
        assert!(m.due(6));
        let unhealthy = HealthReport {
            step: 3,
            local: ScanStats::default(),
            global: [1, 0, 0, 0],
        };
        m.record(unhealthy);
        assert!(m.take_unhealthy().is_some());
        assert!(m.take_unhealthy().is_none(), "verdict consumed once");
        let healthy = HealthReport {
            step: 6,
            local: ScanStats::default(),
            global: [0; 4],
        };
        m.record(healthy);
        assert!(m.take_unhealthy().is_none());
        m.record(HealthReport {
            step: 9,
            local: ScanStats::default(),
            global: [0, 0, 1, 0],
        });
        m.on_progress_reset();
        assert!(m.take_unhealthy().is_none(), "a rollback drops the verdict");
    }
}
