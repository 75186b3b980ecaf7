//! The one stage list of a time step: Algorithm 1 plus the moving window
//! (Sec. 3.3) and the silent-corruption defense, in this order:
//! faults → φ sweep → φ exchange + BC → µ sweep → µ exchange + BC → swap →
//! window → health.
//!
//! [`Stepper`] owns time, step, window, telemetry, sweep pool and health
//! monitor, and runs over a slice of blocks plus their global ids. Only the
//! ghost exchange and the window's and the health scan's reductions depend
//! on where the blocks live; they go through a [`Transport`]. The ranked
//! form is `timeloop::DistributedSim`'s (rank, exchange plan, overlap
//! options); `solver::Simulation` is the one-block form, [`OneBlock`], whose
//! block keeps periodic side walls, so nothing is exchanged and each
//! reduction is the identity. What only the ranked form pays (rebalancing,
//! per-step accounting) runs after the list, in `timeloop`.

use std::ops::Range;
use std::time::Instant;

use eutectica_telemetry::Telemetry;

use crate::exchange::{FieldSel, Phase};
use crate::health::{self, HealthMonitor, HealthReport, ScanStats};
use crate::kernels::{KernelConfig, MuPart};
use crate::metrics;
use crate::params::ModelParams;
use crate::state::{front_rise, BlockState};
use crate::sweep_pool::SweepPool;
use crate::timeloop::OverlapOptions;

/// Where ghost layers come from and how per-rank partials are combined.
/// The defaults are the one-block form: no overlap, nothing to exchange or
/// fence, and every reduction the identity.
pub(crate) trait Transport {
    /// Which exchanges the step overlaps with its sweeps.
    fn overlap(&self) -> OverlapOptions {
        OverlapOptions::default()
    }
    /// Start `phase` of the `field` exchange; complete it with
    /// [`Transport::finish`].
    fn post(&mut self, _blocks: &mut [BlockState], _field: FieldSel, _phase: Phase) {}
    /// Receive the remote faces of a posted phase into their ghost cells.
    fn finish(&mut self, _blocks: &mut [BlockState], _field: FieldSel, _phase: Phase) {}
    /// Fence a full ghost refresh.
    fn barrier(&self) {}
    /// Element-wise sum of `sums` over ranks, in place.
    fn sum_f64s(&self, _sums: &mut [f64]) {}
    /// The health scan's violation counters summed over ranks.
    fn sum_counts(&self, counts: [u64; 4]) -> [u64; 4] {
        counts
    }
}

/// The one-block form.
pub(crate) struct OneBlock;

impl Transport for OneBlock {}

/// Moving-window configuration (Sec. 3.3).
struct Window {
    /// Shift while the front stands more than this many slabs above the
    /// window's bottom.
    trigger: f64,
    /// Cells of the domain's xy plane.
    plane: f64,
    /// Solid per interior slab, summed over the plane (reused every step).
    sums: Vec<f64>,
}

/// Which kernel [`Stepper::sweep`] runs.
#[derive(Copy, Clone)]
enum Sweep {
    Phi,
    Mu(MuPart),
}

/// Per-thread CPU seconds via `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`,
/// issued as a raw syscall — the workspace deliberately has no libc
/// dependency. `None` where the syscall is unavailable.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn thread_cpu_seconds() -> Option<f64> {
    let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
    let ret: i64;
    // SAFETY: SYS_clock_gettime (228) with CLOCK_THREAD_CPUTIME_ID (3)
    // writes exactly 16 bytes into `ts` and touches no other memory; rcx
    // and r11 are the registers the syscall instruction itself clobbers.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 228i64 => ret,
            in("rdi") 3i64,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    (ret == 0).then(|| ts[0] as f64 + ts[1] as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn thread_cpu_seconds() -> Option<f64> {
    None
}

/// The stage list and the state it advances.
pub(crate) struct Stepper {
    /// Simulation time.
    pub(crate) time: f64,
    /// Completed steps.
    pub(crate) step: usize,
    /// Moving-window shifts so far.
    pub(crate) window_shifts: usize,
    window: Option<Window>,
    pub(crate) telemetry: Telemetry,
    /// The SIMD backend last counted in `telemetry` as
    /// `kernel/backend/<name>`: the one the sweeps run on.
    backend: Option<&'static str>,
    /// Intra-rank z-slab work sharing for the sweeps (1 thread = serial).
    pub(crate) pool: SweepPool,
    /// Silent-corruption defense: periodic invariant scans + fault injection.
    pub(crate) health: Option<HealthMonitor>,
}

impl Stepper {
    /// A stepper at time 0 reporting to a telemetry collector for `rank`.
    pub(crate) fn new(rank: usize) -> Self {
        Self {
            time: 0.0,
            step: 0,
            window_shifts: 0,
            window: None,
            telemetry: Telemetry::new(rank),
            backend: None,
            pool: SweepPool::new(1),
            health: None,
        }
    }

    /// Report to `tel` from now on; the next step counts its backend there.
    pub(crate) fn set_telemetry(&mut self, tel: Telemetry) {
        self.telemetry = tel;
        self.backend = None;
    }

    /// Count the SIMD backend `cfg` resolves to on this host, so "SIMD" rows
    /// can be audited: once per collector, and again whenever it changes.
    fn count_backend(&mut self, cfg: KernelConfig) {
        let name = cfg.isa.resolved_name();
        if self.backend != Some(name) {
            self.telemetry
                .counter_add(&format!("kernel/backend/{name}"), 1);
            self.backend = Some(name);
        }
    }

    /// Share the sweeps across `threads` z-slab workers (bit-identical to
    /// serial at any count; `1` is the serial path with no pool overhead).
    pub(crate) fn set_threads(&mut self, threads: usize) {
        if threads.max(1) != self.pool.threads() {
            self.pool = SweepPool::new(threads);
        }
    }

    /// Shift the window whenever the front rises above `trigger_fraction`
    /// of the height of a domain of `cells`.
    pub(crate) fn enable_window(&mut self, trigger_fraction: f64, cells: [usize; 3]) {
        assert!((0.0..1.0).contains(&trigger_fraction));
        self.window = Some(Window {
            trigger: cells[2] as f64 * trigger_fraction,
            plane: (cells[0] * cells[1]) as f64,
            sums: vec![0.0; cells[2]],
        });
    }

    /// Jump the progress counters (restore / rollback), which invalidates
    /// the health monitor's pending verdict.
    pub(crate) fn set_progress(&mut self, time: f64, step: usize, window_shifts: usize) {
        self.time = time;
        self.step = step;
        self.window_shifts = window_shifts;
        if let Some(h) = &mut self.health {
            h.on_progress_reset();
        }
    }

    /// Run the stage list once over `blocks` (global ids `ids`). With
    /// `costs`, each block's sweep seconds are added to its entry.
    pub(crate) fn step<T: Transport>(
        &mut self,
        net: &mut T,
        blocks: &mut [BlockState],
        ids: &[usize],
        params: &ModelParams,
        cfg: KernelConfig,
        mut costs: Option<&mut [f64]>,
    ) {
        let start = Instant::now();
        self.count_backend(cfg);
        self.inject_faults(blocks, ids);
        let ov = net.overlap();
        let tel = &self.telemetry;

        // --- φ-sweep, optionally hiding the µ_src exchange behind it.
        if ov.hide_mu {
            let _g = tel.span_cat("mu_comm", "comm");
            net.post(blocks, FieldSel::MuSrc, Phase::Plain);
        }
        self.sweep(blocks, params, cfg, Sweep::Phi, costs.as_deref_mut());
        if ov.hide_mu {
            // No BC reapplication needed: the hidden exchange unpacks only
            // comm faces, and the physical-ghost values applied to µ at the
            // end of the previous step depend only on interior cells the
            // exchange never touches.
            let _g = tel.span_cat("mu_comm", "comm");
            net.finish(blocks, FieldSel::MuSrc, Phase::Plain);
        }

        // --- φ_dst exchange then boundary handling (the BC fill reads
        // ghost columns, so the sequenced exchange must complete first),
        // optionally split around the local µ-sweep.
        if ov.hide_phi {
            // Post the x-phase, run the local µ-sweep, then finish x and do
            // the dependent y/z phases synchronously.
            {
                let _g = tel.span_cat("phi_comm", "comm");
                net.post(blocks, FieldSel::PhiDst, Phase::Axis(0));
            }
            let local = Sweep::Mu(MuPart::LocalOnly);
            self.sweep(blocks, params, cfg, local, costs.as_deref_mut());
            {
                let _g = tel.span_cat("phi_comm", "comm");
                net.finish(blocks, FieldSel::PhiDst, Phase::Axis(0));
                exchange_axes(net, blocks, FieldSel::PhiDst, 1..3);
            }
            bc(tel, blocks, |b| b.bc_phi.apply(&mut b.phi_dst));
            let neighbor = Sweep::Mu(MuPart::NeighborOnly);
            self.sweep(blocks, params, cfg, neighbor, costs.as_deref_mut());
        } else {
            {
                let _g = tel.span_cat("phi_comm", "comm");
                exchange_axes(net, blocks, FieldSel::PhiDst, 0..3);
            }
            bc(tel, blocks, |b| b.bc_phi.apply(&mut b.phi_dst));
            let full = Sweep::Mu(MuPart::Full);
            self.sweep(blocks, params, cfg, full, costs);
        }

        // --- µ_dst exchange, unless deferred to the next step's hidden
        // µ_src exchange (it fills only comm faces, which the hidden
        // exchange overwrites anyway). The physical-face BCs applied here
        // stay valid across that deferral.
        if !ov.hide_mu {
            let _g = tel.span_cat("mu_comm", "comm");
            exchange_axes(net, blocks, FieldSel::MuDst, 0..3);
        }
        bc(tel, blocks, |b| b.bc_mu.apply(&mut b.mu_dst));

        for b in blocks.iter_mut() {
            b.swap();
        }
        self.time += params.dt;
        self.step += 1;
        self.shift_window(net, blocks);
        self.scan_if_due(net, blocks, ids, start);
    }

    /// Exchange + boundary-handle the source fields (after init or window
    /// shifts), and keep the destination ghosts consistent too (read by the
    /// first µ-sweep's J_at).
    pub(crate) fn refresh<T: Transport>(&self, net: &mut T, blocks: &mut [BlockState]) {
        let _g = self.telemetry.span_cat("refresh_src_ghosts", "comm");
        exchange_axes(net, blocks, FieldSel::PhiSrc, 0..3);
        exchange_axes(net, blocks, FieldSel::MuSrc, 0..3);
        for b in blocks.iter_mut() {
            b.apply_bc_src();
            b.bc_phi.apply(&mut b.phi_dst);
            b.bc_mu.apply(&mut b.mu_dst);
        }
        net.barrier();
    }

    /// Scan every block and reduce, regardless of cadence. Collective in
    /// the ranked form. `None` without a monitor; leaves the monitor
    /// untouched.
    pub(crate) fn scan<T: Transport>(
        &self,
        net: &T,
        blocks: &[BlockState],
        ids: &[usize],
    ) -> Option<HealthReport> {
        let cfg = self.health.as_ref()?.cfg;
        let _g = self.telemetry.span_cat("health_scan", "health");
        let mut local = ScanStats::default();
        for (b, &id) in blocks.iter().zip(ids) {
            local.merge(&health::scan_block_pooled(&self.pool, b, &cfg, id as u64));
        }
        Some(HealthReport {
            step: self.step,
            global: net.sum_counts(local.counts()),
            local,
        })
    }

    /// Remediation: re-project interior φ cells that violate the Gibbs
    /// simplex beyond `health::DEFAULT_SIMPLEX_TOL` onto it, mirror src into
    /// dst, and refresh ghosts (collective in the ranked form). Cells already
    /// on the simplex within that tolerance are left bit-untouched: the
    /// projection's `(1−Σφ)/4` shift is a roundoff-sized non-zero even on
    /// valid cells, so an unconditional re-projection would break
    /// bit-identical recovery. Returns the number of cells changed here.
    pub(crate) fn project_phi<T: Transport>(&self, net: &mut T, blocks: &mut [BlockState]) -> u64 {
        let mut changed = 0u64;
        {
            let _g = self.telemetry.span_cat("simplex_reproject", "health");
            for b in blocks.iter_mut() {
                let mut block_changed = 0u64;
                for (x, y, z) in b.dims.interior_iter() {
                    let p = b.phi_src.cell(x, y, z);
                    if crate::simplex::on_simplex(p, health::DEFAULT_SIMPLEX_TOL) {
                        continue;
                    }
                    let q = crate::simplex::project_to_simplex(p);
                    if q != p {
                        b.phi_src.set_cell(x, y, z, q);
                        block_changed += 1;
                    }
                }
                if block_changed > 0 {
                    b.sync_dst_from_src();
                }
                changed += block_changed;
            }
        }
        self.refresh(net, blocks);
        changed
    }

    /// Apply the monitor's faults scheduled for the upcoming step to the
    /// blocks they name (fire-once).
    fn inject_faults(&mut self, blocks: &mut [BlockState], ids: &[usize]) {
        let Some(h) = &mut self.health else { return };
        let mut injected = 0u64;
        for f in h.due_faults(self.step as u64) {
            if let Some(li) = ids.iter().position(|&id| id as u64 == f.block) {
                health::apply_fault(&mut blocks[li], &f);
                injected += 1;
            }
        }
        if injected > 0 {
            self.telemetry
                .counter_add("health/injected_faults", injected);
        }
    }

    /// Run `sweep` over every block inside one compute span. With `costs`,
    /// each block's sweep time is read from the cost clock: per-thread CPU
    /// time for serial sweeps where available — on oversubscribed machines
    /// (many rank threads per core) wall time would charge a block for the
    /// time the OS ran *other* ranks, exactly the load a rebalancer tries
    /// to move — and wall time for pooled sweeps, whose work the calling
    /// thread's CPU clock does not see.
    fn sweep(
        &self,
        blocks: &mut [BlockState],
        params: &ModelParams,
        cfg: KernelConfig,
        sweep: Sweep,
        mut costs: Option<&mut [f64]>,
    ) {
        let (span, gauge) = match sweep {
            Sweep::Phi => ("phi_sweep", Some("phi_sweep_mlups")),
            Sweep::Mu(MuPart::Full) => ("mu_sweep", Some("mu_sweep_mlups")),
            Sweep::Mu(MuPart::LocalOnly) => ("mu_sweep_local", None),
            Sweep::Mu(MuPart::NeighborOnly) => ("mu_sweep_neighbor", None),
        };
        let _g = self.telemetry.span_cat(span, "compute");
        let t = Instant::now();
        let serial = self.pool.threads() == 1;
        let clock = || {
            let cpu = serial.then(thread_cpu_seconds).flatten();
            cpu.unwrap_or_else(|| t.elapsed().as_secs_f64())
        };
        let tel = &self.telemetry;
        for (li, b) in blocks.iter_mut().enumerate() {
            let t0 = costs.is_some().then(clock);
            match sweep {
                Sweep::Phi => self.pool.phi_sweep(params, b, self.time, cfg, tel),
                Sweep::Mu(part) => self.pool.mu_sweep(params, b, self.time, cfg, part, tel),
            }
            if let (Some(c), Some(t0)) = (costs.as_deref_mut(), t0) {
                c[li] += (clock() - t0).max(0.0);
            }
        }
        if let Some(gauge) = gauge {
            let cells = blocks.iter().map(|b| b.dims.interior_volume()).sum();
            let secs = t.elapsed().as_secs_f64().max(1e-12);
            self.telemetry
                .gauge_set(gauge, metrics::mlups(cells, 1, secs));
        }
    }

    /// Window stage: find the front over the whole xy plane — not per
    /// block, so the answer does not depend on the lateral block layout —
    /// and shift every block until it is back at the trigger height.
    fn shift_window<T: Transport>(&mut self, net: &mut T, blocks: &mut [BlockState]) {
        let Some(w) = &mut self.window else { return };
        w.sums.fill(0.0);
        for b in blocks.iter() {
            b.add_slab_solids(&mut w.sums);
        }
        net.sum_f64s(&mut w.sums);
        let over = front_rise(&w.sums, w.plane) as f64 - w.trigger;
        if over <= 0.0 {
            return;
        }
        let _g = self.telemetry.span_cat("window_shift", "window");
        for _ in 0..over.ceil() as usize {
            for b in blocks.iter_mut() {
                b.shift_window_up();
            }
            self.window_shifts += 1;
        }
        self.refresh(net, blocks);
    }

    /// Health stage: run the invariant scan when due and record its report
    /// (and a pending unhealthy verdict) on the monitor.
    fn scan_if_due<T: Transport>(
        &mut self,
        net: &T,
        blocks: &[BlockState],
        ids: &[usize],
        step_start: Instant,
    ) {
        if !self.health.as_ref().is_some_and(|h| h.due(self.step)) {
            return;
        }
        let t0 = Instant::now();
        let Some(report) = self.scan(net, blocks, ids) else {
            return;
        };
        let scan = t0.elapsed();
        let tel = &self.telemetry;
        tel.counters_add(&[
            ("health/scans", 1),
            ("health/scan_wall_ns", scan.as_nanos() as u64),
            ("health/violations", report.total_violations()),
        ]);
        let total = step_start.elapsed().as_secs_f64();
        if total > 0.0 {
            tel.gauge_set("health/scan_frac", scan.as_secs_f64() / total);
        }
        if let Some(h) = &mut self.health {
            h.record(report);
        }
    }
}

/// Exchange `field` along `axes` in order, each axis posted and completed
/// before the next (the x → y → z rule fills edge ghosts).
fn exchange_axes<T: Transport>(
    net: &mut T,
    blocks: &mut [BlockState],
    f: FieldSel,
    axes: Range<usize>,
) {
    for axis in axes {
        net.post(blocks, f, Phase::Axis(axis));
        net.finish(blocks, f, Phase::Axis(axis));
    }
}

/// Apply one boundary fill to every block inside a `bc` span.
fn bc(tel: &Telemetry, blocks: &mut [BlockState], fill: impl Fn(&mut BlockState)) {
    let _g = tel.span_cat("bc", "bc");
    for b in blocks.iter_mut() {
        fill(b);
    }
}
