//! `solidify_1block`: `core::solver::Simulation` on one 48×48×64 block with
//! the moving window, one thread. The traced leg replays Algorithm 1 through
//! the public kernel and boundary calls with a span around each, and must
//! land on the same bits as `Simulation::step_n`.

use std::time::Instant;

use eutectica_analysis::correlation::{radial_average, two_point_correlation};
use eutectica_analysis::patterns::census_slice;
use eutectica_core::kernels::{self, MuPart};
use eutectica_core::solver::Simulation;
use eutectica_mesh::extract::extract_isosurface;
use eutectica_mesh::reduce::{reduce_local, ReduceOptions};

use crate::common::{self, Leg, Snapshot};
use crate::ledger::{Checks, Layers};
use crate::spans::{self, Tracer};
use crate::{stats, sys};

const CELLS: [usize; 3] = [48, 48, 64];
/// The shipped example's 0.6 never shifts the window in 1500 steps; 0.27
/// shifts within 600, so the window code is part of what is timed.
const WINDOW_TRIGGER: f64 = 0.27;
/// Step budget from which the run must have shifted the window at least once.
const SHIFTS_BY_STEP: usize = 700;
/// Fixed step budget per second of `--seconds` (≈ 1 s of work on the
/// 2-core reference box).
const STEPS_PER_SECOND: u64 = 110;

fn build(seed: u64) -> Simulation {
    let mut sim = Simulation::new(common::params(), CELLS).expect("valid parameters");
    sim.init_directional(seed);
    sim.enable_moving_window(WINDOW_TRIGGER);
    sim
}

/// One set-up, timed: construction + Voronoi init + window.
pub fn setup_once(seed: u64) -> f64 {
    let t = Instant::now();
    std::hint::black_box(build(seed));
    t.elapsed().as_secs_f64()
}

/// Algorithm 1 driven from here, one span per call into the program.
/// Returns the simulation time and the window shifts it arrives at.
fn replay(sim: &mut Simulation, steps: usize, tr: &mut Tracer) -> (f64, usize) {
    let cfg = sim.cfg;
    let trigger = sim.state.dims.nz as f64 * WINDOW_TRIGGER;
    let mut time = sim.time();
    let mut shifts = sim.window_shifts();
    for _ in 0..steps {
        tr.open("step");
        tr.scope("phi_sweep", || {
            kernels::phi_sweep(&sim.params, &mut sim.state, time, cfg)
        });
        tr.scope("bc", || sim.state.bc_phi.apply(&mut sim.state.phi_dst));
        tr.scope("mu_sweep", || {
            kernels::mu_sweep(&sim.params, &mut sim.state, time, cfg, MuPart::Full)
        });
        tr.scope("bc", || sim.state.bc_mu.apply(&mut sim.state.mu_dst));
        tr.scope("swap", || sim.state.swap());
        time += sim.params.dt;
        tr.open("window");
        while sim.front_position() - sim.state.origin[2] as f64 > trigger {
            sim.state.shift_window_up();
            shifts += 1;
            sim.state.apply_bc_src();
            sim.state.bc_phi.apply(&mut sim.state.phi_dst);
            sim.state.bc_mu.apply(&mut sim.state.mu_dst);
        }
        tr.close();
        tr.close();
    }
    (time, shifts)
}

/// The output pipeline of the shipped example on the final state: meshes of
/// the three solids, a cross-section census, two-point correlations.
fn finalise(sim: &Simulation, tr: &mut Tracer, layers: &mut Layers) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    tr.open("finalise");
    let t = Instant::now();
    let mut triangles = 0;
    tr.scope("mesh", || {
        for phase in 0..3 {
            let mesh = extract_isosurface(
                sim.state.phi_src.comp(phase),
                sim.state.dims,
                [0.0, 0.0, sim.state.origin[2] as f64],
                0.5,
            );
            triangles += reduce_local(vec![mesh], &ReduceOptions::default()).num_triangles();
        }
    });
    layers.set("mesh.extract_reduce_ms", ms(t));
    layers.set("mesh.triangles", triangles as f64);

    let t = Instant::now();
    tr.scope("census", || {
        let z = sim.state.dims.ghost + 4;
        for phase in 0..3 {
            std::hint::black_box(census_slice(&sim.state, phase, z, 4));
        }
    });
    layers.set("analysis.census_ms", ms(t));

    let t = Instant::now();
    tr.scope("correlation", || {
        let (sub, g) = (32usize, sim.state.dims.ghost);
        for phase in 0..3 {
            let mask: Vec<f64> = (0..sub * sub * sub)
                .map(|i| {
                    let (x, y, z) = (i % sub, (i / sub) % sub, i / (sub * sub));
                    (sim.state.phi_src.at(phase, x + g, y + g, z + g) > 0.5) as u8 as f64
                })
                .collect();
            let corr = two_point_correlation(&mask, [sub; 3]);
            std::hint::black_box(radial_average(&corr, [sub; 3], 12));
        }
    });
    layers.set("analysis.correlation_ms", ms(t));
    tr.close();
}

/// Run the workload once. Untraced: `Simulation::step_n`. Traced: the replay.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Leg {
    let steps = (STEPS_PER_SECOND * seconds) as usize;
    let mut tr = Tracer::new(traced, Instant::now(), 0);
    let mut checks = Checks::default();
    let mut layers = Layers::default();

    let mut sim = tr.scope("setup", || build(seed));

    tr.open("timed");
    let cpu0 = sys::process_cpu_seconds();
    let t = Instant::now();
    let (time, shifts) = if traced {
        replay(&mut sim, steps, &mut tr)
    } else {
        sim.step_n(steps);
        (sim.time(), sim.window_shifts())
    };
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_seconds() - cpu0;
    tr.close();
    let peak_rss_mb = sys::peak_rss_mb();

    checks.operations("step", steps as u64, 0);
    checks.check(
        "window shifted",
        shifts >= 1 || steps < SHIFTS_BY_STEP,
        format!("{shifts} shift(s) in {steps} steps"),
    );
    if traced {
        finalise(&sim, &mut tr, &mut layers);
    }

    let spans = tr.into_spans();
    if traced {
        let share = |name: &str| spans::durations(&spans, name, 0).iter().sum::<f64>() / wall_s;
        let (phi, mu, bc, window) = (
            share("phi_sweep"),
            share("mu_sweep"),
            share("bc"),
            share("window"),
        );
        layers.set("core.solver.phi_share", phi);
        layers.set("core.solver.mu_share", mu);
        layers.set("core.solver.bc_share", bc);
        layers.set("core.solver.window_share", window);
        layers.set("core.solver.residual_share", 1.0 - phi - mu - bc - window);
        let step_ms: Vec<f64> = spans::durations(&spans, "step", 0)
            .iter()
            .map(|s| s * 1e3)
            .collect();
        layers.set("core.solver.step_p50_ms", stats::median(&step_ms));
        layers.set("core.solver.step_p99_ms", stats::percentile(&step_ms, 99.0));
        layers.set("core.solver.window_shifts", shifts as f64);
    }

    Leg {
        wall_s,
        cpu_s,
        lups: (CELLS[0] * CELLS[1] * CELLS[2] * steps) as u64,
        ranks: 1,
        peak_rss_mb,
        digest: common::state_digest([&sim.state], steps, shifts, time),
        finals: vec![Snapshot {
            params: sim.params.clone(),
            time,
            state: sim.state,
        }],
        checks,
        layers,
        spans,
    }
}
