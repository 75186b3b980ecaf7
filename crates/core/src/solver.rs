//! High-level single-process simulation façade.
//!
//! [`Simulation`] owns one block covering the whole domain and runs the
//! one-block form of the shared stage list (`crate::stages`): periodic side
//! walls stand in for the ghost exchange. [`crate::timeloop`] runs the same
//! list over blocks and ranks, bit-identically, window included (pinned by
//! `timeloop::tests::local_face_copies_match_single_block_solver`).

use crate::health::{HealthMonitor, HealthReport};
use crate::init;
use crate::kernels::KernelConfig;
use crate::params::{ModelParams, ParamError};
use crate::stages::{OneBlock, Stepper};
use crate::state::{front_rise, BlockState};
use crate::sweep_pool::SweepPool;
use crate::{LIQ, N_COMP, N_PHASES};
use eutectica_blockgrid::GridDims;
use eutectica_telemetry::Telemetry;

/// A single-process phase-field simulation.
pub struct Simulation {
    /// Model and numerical parameters.
    pub params: ModelParams,
    /// The single block holding the whole domain.
    pub state: BlockState,
    /// Kernel configuration (defaults to the fully optimized rung).
    pub cfg: KernelConfig,
    stepper: Stepper,
}

impl Simulation {
    /// Create a liquid-filled simulation of `cells` total cells.
    pub fn new(params: ModelParams, cells: [usize; 3]) -> Result<Self, ParamError> {
        params.validate()?;
        let dims = GridDims::new(cells[0], cells[1], cells[2], 1);
        Ok(Self {
            params,
            state: BlockState::new(dims, [0, 0, 0]),
            cfg: KernelConfig::default(),
            stepper: Stepper::new(0),
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
        self.stepper.set_threads(threads);
    }

    /// Exchange this simulation's sweep pool with `pool`, so several
    /// co-resident simulations on one rank (a campaign fleet) share a
    /// single set of sweep workers rather than spawning `threads × jobs`
    /// OS threads: swap the shared pool in before stepping a job and swap
    /// it back out afterwards.
    pub fn swap_pool(&mut self, pool: &mut SweepPool) {
        std::mem::swap(&mut self.stepper.pool, pool);
    }

    /// Threads the sweeps run on (1 = serial).
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.stepper.pool.threads()
    }

    /// The simulation's telemetry collector. Each step records a
    /// `phi_sweep` / `mu_sweep` span and sets the `phi_sweep_mlups` /
    /// `mu_sweep_mlups` gauges (million lattice-cell updates per second,
    /// from `crate::metrics::mlups`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.stepper.telemetry
    }

    /// Replace the telemetry collector (e.g. [`Telemetry::disabled`]).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.stepper.set_telemetry(tel);
    }

    /// Attach (or detach, with `None`) the silent-corruption monitor: its
    /// faults are injected into the block (global id 0) before the step
    /// they name, and its invariant scan runs after every step its cadence
    /// selects.
    pub fn set_health_monitor(&mut self, monitor: Option<HealthMonitor>) {
        self.stepper.health = monitor;
    }

    /// Take the unhealthy report produced by the most recent scan, if any
    /// (consumed once — the recovery driver's trigger).
    pub fn take_unhealthy_report(&mut self) -> Option<HealthReport> {
        self.stepper.health.as_mut()?.take_unhealthy()
    }

    /// Scan the block regardless of cadence (recovery validates a freshly
    /// restored set with it). `None` without a monitor; leaves the monitor
    /// untouched.
    pub fn health_scan_now(&self) -> Option<HealthReport> {
        self.stepper
            .scan(&OneBlock, std::slice::from_ref(&self.state), &[0])
    }

    /// Remediation after a rollback: re-project φ cells off the Gibbs
    /// simplex onto it and refresh the ghosts; valid cells stay
    /// bit-untouched. Returns the number of cells changed.
    pub fn project_phi_to_simplex(&mut self) -> u64 {
        self.stepper
            .project_phi(&mut OneBlock, std::slice::from_mut(&mut self.state))
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
        let d = self.state.dims;
        self.stepper
            .enable_window(trigger_fraction, [d.nx, d.ny, d.nz]);
    }

    /// Execute one time step (Algorithm 1).
    pub fn step(&mut self) {
        let _step = self.stepper.telemetry.span("step");
        self.stepper.step(
            &mut OneBlock,
            std::slice::from_mut(&mut self.state),
            &[0],
            &self.params,
            self.cfg,
            None,
        );
    }

    /// Execute `n` steps.
    pub fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Jump the progress counters to a restored checkpoint's position
    /// (mirrors `DistributedSim::set_progress`, and likewise drops the
    /// health monitor's pending verdict). The caller is responsible for
    /// having replaced [`Simulation::state`] with the matching fields.
    pub fn set_progress(&mut self, time: f64, step: usize, window_shifts: usize) {
        self.stepper.set_progress(time, step, window_shifts);
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.stepper.time
    }

    /// Number of executed steps.
    pub fn steps(&self) -> usize {
        self.stepper.step
    }

    /// Number of moving-window shifts so far.
    pub fn window_shifts(&self) -> usize {
        self.stepper.window_shifts
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

    /// Global z of the solidification front (the highest slice more than
    /// 5 % solid); the block origin offset is included, so this grows
    /// monotonically under the moving window.
    pub fn front_position(&self) -> f64 {
        let d = self.state.dims;
        let mut sums = vec![0.0; d.nz];
        self.state.add_slab_solids(&mut sums);
        (self.state.origin[2] + front_rise(&sums, (d.nx * d.ny) as f64)) as f64
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
    fn telemetry_names_the_backend_the_sweeps_run_on() {
        use crate::kernels::SimdIsa;
        let backends = |isa: SimdIsa| {
            let mut sim = Simulation::new(ModelParams::ag_al_cu(), [8, 8, 8]).unwrap();
            sim.cfg.isa = isa;
            sim.step_n(2);
            let counters = sim.telemetry().metrics_snapshot().counters;
            counters
                .into_iter()
                .filter_map(|(k, n)| Some((k.strip_prefix("kernel/backend/")?.to_string(), n)))
                .collect::<Vec<_>>()
        };
        assert_eq!(backends(SimdIsa::Portable), [("portable".to_string(), 1)]);
        let host = SimdIsa::Auto.resolved_name().to_string();
        assert_eq!(backends(SimdIsa::Auto), [(host, 1)]);
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
