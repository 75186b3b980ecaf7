//! High-level single-process simulation façade.
//!
//! [`Simulation`] owns one block covering the whole domain and runs
//! Algorithm 1 with boundary handling in place of ghost communication
//! (periodic side walls wrap locally). For distributed runs over blocks and
//! ranks, use [`crate::timeloop`] instead; the two produce identical fields
//! (pinned by the `domain_decomposition` integration test).

use crate::init;
use crate::kernels::{self, KernelConfig, MuPart};
use crate::metrics;
use crate::params::{ModelParams, ParamError};
use crate::state::BlockState;
use crate::sweep_pool::SweepPool;
use crate::{LIQ, N_COMP, N_PHASES};
use eutectica_blockgrid::GridDims;
use eutectica_telemetry::Telemetry;
use std::time::Instant;

/// Moving-window configuration.
#[derive(Copy, Clone, Debug)]
pub struct MovingWindow {
    /// Shift when the front passes this fraction of the domain height.
    pub trigger_fraction: f64,
}

/// A single-process phase-field simulation.
pub struct Simulation {
    /// Model and numerical parameters.
    pub params: ModelParams,
    /// The single block holding the whole domain.
    pub state: BlockState,
    /// Kernel configuration (defaults to the fully optimized rung).
    pub cfg: KernelConfig,
    time: f64,
    step: usize,
    window: Option<MovingWindow>,
    window_shifts: usize,
    telemetry: Telemetry,
    pool: SweepPool,
}

impl Simulation {
    /// Create a liquid-filled simulation of `cells` total cells.
    pub fn new(params: ModelParams, cells: [usize; 3]) -> Result<Self, ParamError> {
        params.validate()?;
        let dims = GridDims::new(cells[0], cells[1], cells[2], 1);
        let mut state = BlockState::new(dims, [0, 0, 0]);
        state.apply_bc_src();
        state.sync_dst_from_src();
        let telemetry = Telemetry::new(0);
        telemetry.counter_add(
            &format!("kernel/backend/{}", kernels::SimdIsa::Auto.resolved_name()),
            1,
        );
        Ok(Self {
            params,
            state,
            cfg: KernelConfig::default(),
            time: 0.0,
            step: 0,
            window: None,
            window_shifts: 0,
            telemetry,
            pool: SweepPool::new(1),
        })
    }

    /// Work-share the φ/µ sweeps across `threads` z-slab workers using an
    /// internal [`SweepPool`] — the single-block analogue of the hybrid
    /// runner's intra-rank threading. The threaded result is bit-identical
    /// to the serial one at any thread count (see [`SweepPool`] docs), so
    /// this only changes speed, never physics. `threads <= 1` restores
    /// plain serial stepping (a one-thread pool spawns nothing and runs the
    /// serial kernels inline).
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = SweepPool::new(threads);
    }

    /// Exchange this simulation's sweep pool with `pool`, so several
    /// co-resident simulations on one rank (a campaign fleet) share a
    /// single set of sweep workers rather than spawning `threads × jobs`
    /// OS threads: swap the shared pool in before stepping a job and swap
    /// it back out afterwards.
    pub fn swap_pool(&mut self, pool: &mut SweepPool) {
        std::mem::swap(&mut self.pool, pool);
    }

    /// Threads the sweeps run on (1 = serial).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The simulation's telemetry collector. Each step records a
    /// `phi_sweep` / `mu_sweep` span and sets the `phi_sweep_mlups` /
    /// `mu_sweep_mlups` gauges (million lattice-cell updates per second,
    /// from [`crate::metrics::mlups`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Replace the telemetry collector (e.g. [`Telemetry::disabled`]).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.telemetry = tel;
    }

    /// Initialize with Voronoi solid nuclei at the bottom (Fig. 2 setup).
    pub fn init_directional(&mut self, seed: u64) {
        let d = self.state.dims;
        let seeds = init::VoronoiSeeds::generate(
            [d.nx, d.ny],
            init::default_seed_count(d.nx, d.ny),
            self.params.sys.eutectic_fractions(),
            seed,
        );
        let fill = (d.nz / 4).max(2);
        init::init_directional_block(&mut self.state, &seeds, fill);
    }

    /// Initialize with a planar front of one solid phase.
    pub fn init_planar(&mut self, phase: usize, height: usize) {
        init::init_planar_front(&mut self.state, phase, height);
    }

    /// Enable the moving-window technique (Sec. 3.3).
    pub fn enable_moving_window(&mut self, trigger_fraction: f64) {
        assert!((0.0..1.0).contains(&trigger_fraction));
        self.window = Some(MovingWindow { trigger_fraction });
    }

    /// Execute one time step (Algorithm 1).
    pub fn step(&mut self) {
        let _step = self.telemetry.span("step");
        let cells = self.state.dims.interior_volume();
        {
            let _g = self.telemetry.span_cat("phi_sweep", "compute");
            let t = Instant::now();
            self.pool.phi_sweep(
                &self.params,
                &mut self.state,
                self.time,
                self.cfg,
                &self.telemetry,
            );
            self.telemetry.gauge_set(
                "phi_sweep_mlups",
                metrics::mlups(cells, 1, t.elapsed().as_secs_f64().max(1e-12)),
            );
        }
        self.state.bc_phi.apply(&mut self.state.phi_dst);
        {
            let _g = self.telemetry.span_cat("mu_sweep", "compute");
            let t = Instant::now();
            self.pool.mu_sweep(
                &self.params,
                &mut self.state,
                self.time,
                self.cfg,
                MuPart::Full,
                &self.telemetry,
            );
            self.telemetry.gauge_set(
                "mu_sweep_mlups",
                metrics::mlups(cells, 1, t.elapsed().as_secs_f64().max(1e-12)),
            );
        }
        self.state.bc_mu.apply(&mut self.state.mu_dst);
        self.state.swap();
        self.time += self.params.dt;
        self.step += 1;

        if let Some(w) = self.window {
            let local_trigger = self.state.dims.nz as f64 * w.trigger_fraction;
            while self.front_position() - self.state.origin[2] as f64 > local_trigger {
                self.state.shift_window_up();
                self.window_shifts += 1;
                self.state.apply_bc_src();
                // Destination ghosts are refreshed at the next step's
                // boundary handling; keep them consistent for safety.
                self.state.bc_phi.apply(&mut self.state.phi_dst);
                self.state.bc_mu.apply(&mut self.state.mu_dst);
            }
        }
    }

    /// Execute `n` steps.
    pub fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Execute `n` steps, calling `hook` after each completed step — the
    /// single-block analogue of the distributed timeloop's in-situ hook,
    /// used by the campaign runner to interleave health scans, checkpoint
    /// cadence, and progress frames with a job's stepping. The hook sees
    /// the post-step state read-only; it cannot perturb the trajectory.
    pub fn step_n_with(&mut self, n: usize, mut hook: impl FnMut(&Simulation)) {
        for _ in 0..n {
            self.step();
            hook(self);
        }
    }

    /// Jump the progress counters to a restored checkpoint's position
    /// (mirrors `DistributedSim::set_progress`). The caller is responsible
    /// for having replaced [`Simulation::state`] with the matching fields.
    pub fn set_progress(&mut self, time: f64, step: usize, window_shifts: usize) {
        self.time = time;
        self.step = step;
        self.window_shifts = window_shifts;
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of executed steps.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Number of moving-window shifts so far.
    pub fn window_shifts(&self) -> usize {
        self.window_shifts
    }

    /// Mean solid fraction (1 − φ_ℓ) over the interior.
    pub fn solid_fraction(&self) -> f64 {
        let d = self.state.dims;
        let mut s = 0.0;
        for (x, y, z) in d.interior_iter() {
            s += 1.0 - self.state.phi_src.at(LIQ, x, y, z);
        }
        s / d.interior_volume() as f64
    }

    /// Per-phase mean fractions over the interior.
    pub fn phase_fractions(&self) -> [f64; N_PHASES] {
        let d = self.state.dims;
        let mut s = [0.0; N_PHASES];
        for (x, y, z) in d.interior_iter() {
            let phi = self.state.phi_src.cell(x, y, z);
            for a in 0..N_PHASES {
                s[a] += phi[a];
            }
        }
        s.map(|v| v / d.interior_volume() as f64)
    }

    /// Global z of the highest slice containing solid (the solidification
    /// front position); the block origin offset is included, so this grows
    /// monotonically under the moving window.
    pub fn front_position(&self) -> f64 {
        let rise = self
            .state
            .front_slab()
            .map_or(0, |z| z - self.state.dims.ghost);
        (self.state.origin[2] + rise) as f64
    }

    /// Mean chemical potential over the interior.
    pub fn mean_mu(&self) -> [f64; N_COMP] {
        let d = self.state.dims;
        let mut s = [0.0; N_COMP];
        for (x, y, z) in d.interior_iter() {
            let mu = self.state.mu_src.cell(x, y, z);
            s[0] += mu[0];
            s[1] += mu[1];
        }
        s.map(|v| v / d.interior_volume() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let mut sim = Simulation::new(ModelParams::ag_al_cu(), [12, 12, 24]).unwrap();
        sim.init_directional(1);
        let f0 = sim.solid_fraction();
        assert!(f0 > 0.1 && f0 < 0.5);
        sim.step_n(5);
        assert_eq!(sim.steps(), 5);
        assert!((sim.time() - 5.0 * sim.params.dt).abs() < 1e-12);
        // Still a valid simplex field everywhere.
        for (x, y, z) in sim.state.dims.interior_iter() {
            assert!(crate::simplex::on_simplex(
                sim.state.phi_src.cell(x, y, z),
                1e-9
            ));
        }
    }

    #[test]
    fn solidification_advances_the_front() {
        let mut p = ModelParams::ag_al_cu();
        p.t0 = 0.95; // strong undercooling for a fast test
        let mut sim = Simulation::new(p, [8, 8, 24]).unwrap();
        sim.init_planar(0, 6);
        let before = sim.solid_fraction();
        sim.step_n(60);
        let after = sim.solid_fraction();
        assert!(after > before + 0.01, "no growth: {before} -> {after}");
    }

    #[test]
    fn threaded_stepping_is_bit_identical_to_serial() {
        let mut serial = Simulation::new(ModelParams::ag_al_cu(), [8, 8, 16]).unwrap();
        serial.init_directional(11);
        serial.step_n(8);
        for threads in [2, 3] {
            let mut t = Simulation::new(ModelParams::ag_al_cu(), [8, 8, 16]).unwrap();
            t.set_threads(threads);
            assert_eq!(t.threads(), threads);
            t.init_directional(11);
            t.step_n(8);
            let d = serial.state.dims;
            for (x, y, z) in d.interior_iter() {
                for a in 0..N_PHASES {
                    assert_eq!(
                        serial.state.phi_src.at(a, x, y, z).to_bits(),
                        t.state.phi_src.at(a, x, y, z).to_bits(),
                        "phi diverged at {threads} threads"
                    );
                }
                for c in 0..N_COMP {
                    assert_eq!(
                        serial.state.mu_src.at(c, x, y, z).to_bits(),
                        t.state.mu_src.at(c, x, y, z).to_bits(),
                        "mu diverged at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_config_is_switchable_mid_run() {
        // Switching rungs mid-run must not change physics (all rungs are
        // equivalent), only speed.
        use crate::kernels::OptLevel;
        let mut a = Simulation::new(ModelParams::ag_al_cu(), [10, 10, 14]).unwrap();
        a.init_directional(4);
        let mut b = Simulation::new(ModelParams::ag_al_cu(), [10, 10, 14]).unwrap();
        b.init_directional(4);
        a.step_n(6);
        b.cfg = OptLevel::Basic.config();
        b.step_n(3);
        b.cfg = OptLevel::SimdTzBufShortcuts.config();
        b.step_n(3);
        let d = a.state.dims;
        for c in 0..N_PHASES {
            for (x, y, z) in d.interior_iter() {
                let va = a.state.phi_src.at(c, x, y, z);
                let vb = b.state.phi_src.at(c, x, y, z);
                assert!((va - vb).abs() < 1e-10, "rung switch changed physics");
            }
        }
    }

    #[test]
    fn front_position_is_monotone_under_growth() {
        let mut p = ModelParams::ag_al_cu();
        p.t0 = 0.94;
        p.grad_g = 0.0;
        let mut sim = Simulation::new(p, [8, 8, 24]).unwrap();
        sim.init_planar(2, 8);
        let mut prev = sim.front_position();
        for _ in 0..5 {
            sim.step_n(60);
            let f = sim.front_position();
            assert!(f + 1.0 >= prev, "front retreated: {prev} -> {f}");
            prev = f;
        }
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        let mut sim = Simulation::new(ModelParams::ag_al_cu(), [10, 10, 12]).unwrap();
        sim.init_directional(8);
        sim.step_n(20);
        let f = sim.phase_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{f:?}");
    }

    #[test]
    fn telemetry_reports_sweep_mlups() {
        let mut sim = Simulation::new(ModelParams::ag_al_cu(), [8, 8, 8]).unwrap();
        sim.init_directional(3);
        sim.step_n(2);
        let gauges = sim.telemetry().metrics_snapshot().gauges;
        let (phi, mu) = (gauges["phi_sweep_mlups"], gauges["mu_sweep_mlups"]);
        assert!(phi > 0.0 && mu > 0.0, "mlups gauges not set: {phi} {mu}");
        // The sweeps accrued as spans nested under "step".
        assert!(sim.telemetry().node_secs("step/phi_sweep").unwrap() > 0.0);
        assert!(sim.telemetry().node_secs("step/mu_sweep").unwrap() > 0.0);
        // A disabled collector reports nothing.
        let mut quiet = Simulation::new(ModelParams::ag_al_cu(), [8, 8, 8]).unwrap();
        quiet.set_telemetry(Telemetry::disabled());
        quiet.init_directional(3);
        quiet.step_n(1);
        assert!(quiet.telemetry().metrics_snapshot().gauges.is_empty());
    }

    #[test]
    fn moving_window_keeps_front_inside_domain() {
        let mut p = ModelParams::ag_al_cu();
        p.t0 = 0.95;
        p.grad_g = 0.0; // uniform undercooling: steady growth
        let mut sim = Simulation::new(p, [8, 8, 20]).unwrap();
        sim.init_planar(0, 9);
        sim.enable_moving_window(0.5);
        sim.step_n(400);
        // Window must have shifted and the local front must stay near or
        // below the trigger height.
        assert!(sim.window_shifts() > 0, "window never moved");
        let local_front = sim.front_position() - sim.state.origin[2] as f64;
        assert!(local_front <= 20.0 * 0.8, "front ran away: {local_front}");
        // The global front position keeps increasing despite the shifts.
        assert!(sim.front_position() > 9.0);
    }
}
