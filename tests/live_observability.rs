//! Integration: the live observability plane.
//!
//! - **Inertness**: attaching the full plane (in-situ observer + NDJSON
//!   endpoint + live TCP subscribers) leaves the φ/µ fields bit-identical
//!   to an unobserved run, for serial and threaded sweeps.
//! - **Bounded lag**: a never-drained subscriber accumulates exact drop
//!   counts at the simulation level; a stalled TCP client never stalls the
//!   time loop (wall-clock acceptance test, run explicitly).
//! - **Endpoint**: a plain TCP client decodes at least one observable and
//!   one slice frame from a live run.
//! - **One body**: a one-block `Simulation` and a one-rank, one-block
//!   `DistributedSim` observe the same bits.

use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_comm::Universe;
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::solver::Simulation;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::{DistributedSim, OverlapOptions};
use eutectica_core::{N_COMP, N_PHASES};
use eutectica_obsv::{FrameBus, InSituObserver, LiveServer, ObservableRecord, ObservablesConfig};

const CELLS: [usize; 3] = [16, 16, 24];
const STEPS: usize = 12;
const OBSERVE_EVERY: usize = 3;

fn init(b: &mut BlockState) {
    let seeds = eutectica_core::init::VoronoiSeeds::generate([16, 16], 5, [0.34, 0.33, 0.33], 41);
    eutectica_core::init::init_directional_block(b, &seeds, 5);
}

/// Reassemble the global interior φ/µ fields from per-rank blocks.
fn assemble(out: &[Vec<BlockState>], cells: [usize; 3]) -> (Vec<f64>, Vec<f64>) {
    let n = cells[0] * cells[1] * cells[2];
    let mut phi = vec![0.0; n * N_PHASES];
    let mut mu = vec![0.0; n * N_COMP];
    for blocks in out {
        for b in blocks {
            let d = b.dims;
            let g = d.ghost;
            for z in 0..d.nz {
                for y in 0..d.ny {
                    for x in 0..d.nx {
                        let (gx, gy, gz) = (b.origin[0] + x, b.origin[1] + y, b.origin[2] + z);
                        let gi = (gz * cells[1] + gy) * cells[0] + gx;
                        for c in 0..N_PHASES {
                            phi[c * n + gi] = b.phi_src.at(c, x + g, y + g, z + g);
                        }
                        for c in 0..N_COMP {
                            mu[c * n + gi] = b.mu_src.at(c, x + g, y + g, z + g);
                        }
                    }
                }
            }
        }
    }
    (phi, mu)
}

/// Run the reference workload on 2 ranks. With `observed`, rank 0 attaches
/// the full plane — observer, NDJSON endpoint, and two live TCP clients —
/// while the other rank drives the same collective observation cadence.
fn run(threads: usize, observed: bool) -> (Vec<f64>, Vec<f64>) {
    let out = eutectica_comm::Universe::run(2, move |rank| {
        let params = ModelParams::ag_al_cu();
        let decomp = Decomposition::new(DomainSpec::directional(CELLS, [1, 1, 2]));
        let mut sim = DistributedSim::new(
            &rank,
            params,
            decomp,
            KernelConfig::default(),
            OverlapOptions::default(),
        );
        sim.set_threads(threads);
        sim.init_blocks(init);
        if !observed {
            sim.step_n(STEPS);
            return std::mem::take(&mut sim.blocks);
        }

        let mut observer = InSituObserver::new(ObservablesConfig::with_every(OBSERVE_EVERY));
        let mut server = None;
        let mut clients = Vec::new();
        if rank.rank() == 0 {
            let bus = Arc::new(FrameBus::new(8));
            let srv = LiveServer::bind("127.0.0.1:0", bus.clone()).expect("bind endpoint");
            let addr = srv.local_addr();
            for _ in 0..2 {
                clients.push(std::thread::spawn(move || {
                    // Read until the hello frame plus one published frame
                    // arrive (the writer thread flushes asynchronously).
                    let s = std::net::TcpStream::connect(addr).expect("connect endpoint");
                    s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
                    let mut r = std::io::BufReader::new(s);
                    let mut lines = 0usize;
                    let mut buf = String::new();
                    let deadline = Instant::now() + Duration::from_secs(15);
                    while lines < 2 && Instant::now() < deadline {
                        buf.clear();
                        match r.read_line(&mut buf) {
                            Ok(0) => break,
                            Ok(_) => lines += 1,
                            Err(_) => {} // read timeout: check the deadline
                        }
                    }
                    lines
                }));
            }
            let t = Instant::now();
            while bus.stats().subscribers < 2 {
                assert!(
                    t.elapsed() < Duration::from_secs(10),
                    "clients failed to subscribe"
                );
                std::thread::yield_now();
            }
            observer = observer.with_bus(bus);
            server = Some(srv);
        }
        sim.step_n_with(STEPS, |sim| {
            observer.observe_distributed(sim);
        });
        if rank.rank() == 0 {
            assert_eq!(observer.records().len(), STEPS / OBSERVE_EVERY);
            for c in clients {
                let lines = c.join().expect("client thread");
                // At least the hello frame plus one published frame.
                assert!(lines >= 2, "live client saw only {lines} line(s)");
            }
            server.unwrap().shutdown();
        }
        std::mem::take(&mut sim.blocks)
    });
    assemble(&out, CELLS)
}

fn assert_bit_identical(label: &str, reference: &[f64], observed: &[f64]) {
    assert_eq!(reference.len(), observed.len());
    for (i, (a, b)) in reference.iter().zip(observed).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{label}[{i}] differs with the observability plane attached: {a:e} vs {b:e}"
        );
    }
}

#[test]
fn observability_plane_is_bit_inert_serial() {
    let (phi_off, mu_off) = run(1, false);
    let (phi_on, mu_on) = run(1, true);
    assert_bit_identical("phi", &phi_off, &phi_on);
    assert_bit_identical("mu", &mu_off, &mu_on);
}

#[test]
fn observability_plane_is_bit_inert_threaded() {
    let (phi_off, mu_off) = run(2, false);
    let (phi_on, mu_on) = run(2, true);
    assert_bit_identical("phi", &phi_off, &phi_on);
    assert_bit_identical("mu", &mu_off, &mu_on);
}

/// An observer publishing to a bus of its own, and the frames it has
/// published so far except the metrics frames (each reports its own
/// simulation's telemetry).
fn observer_with_frames() -> (InSituObserver, impl FnMut() -> Vec<String>) {
    let bus = Arc::new(FrameBus::new(64));
    let sub = bus.subscribe();
    let obs = InSituObserver::new(ObservablesConfig::with_every(OBSERVE_EVERY)).with_bus(bus);
    let drain = move || {
        std::iter::from_fn(|| sub.try_recv())
            .filter(|f| !f.contains("\"type\":\"metrics\""))
            .map(|f| f.to_string())
            .collect()
    };
    (obs, drain)
}

#[test]
fn one_block_and_one_rank_observe_the_same_bits() {
    type Observed = (Vec<ObservableRecord>, Vec<String>);
    let single: Observed = {
        let (mut obs, mut drain) = observer_with_frames();
        let mut sim = Simulation::new(ModelParams::ag_al_cu(), CELLS).unwrap();
        init(&mut sim.state);
        let mut records = Vec::new();
        for _ in 0..STEPS {
            sim.step();
            records.extend(obs.observe_single(&sim));
        }
        (records, drain())
    };
    let ranked: Observed = Universe::run(1, |rank| {
        let (mut obs, mut drain) = observer_with_frames();
        let mut sim = DistributedSim::new(
            &rank,
            ModelParams::ag_al_cu(),
            Decomposition::new(DomainSpec::directional(CELLS, [1, 1, 1])),
            KernelConfig::default(),
            OverlapOptions::default(),
        );
        sim.init_blocks(init);
        let mut records = Vec::new();
        for _ in 0..STEPS {
            sim.step();
            records.extend(obs.observe_distributed(&sim));
        }
        (records, drain())
    })
    .remove(0);
    let observations = STEPS / OBSERVE_EVERY;
    assert_eq!(single.0.len(), observations);
    assert_eq!(single.0, ranked.0);
    // One observable frame and two slice frames per observation, equal as
    // text: every f64 prints as its shortest round-trip form.
    assert_eq!(single.1.len(), 3 * observations);
    assert_eq!(single.1, ranked.1);
}

#[test]
fn sim_level_drop_counters_are_exact() {
    // Four frames per observation (observable, 2 slices, metrics), bus
    // capacity 2, and a subscriber that never drains: of the 24 published
    // frames exactly 2 queue and exactly 22 drop — counted precisely.
    eutectica_comm::Universe::run(1, |rank| {
        let params = ModelParams::ag_al_cu();
        let decomp = Decomposition::new(DomainSpec::directional(CELLS, [1, 1, 1]));
        let mut sim = DistributedSim::new(
            &rank,
            params,
            decomp,
            KernelConfig::default(),
            OverlapOptions::default(),
        );
        sim.init_blocks(init);
        let bus = Arc::new(FrameBus::new(2));
        let sub = bus.subscribe();
        let mut observer =
            InSituObserver::new(ObservablesConfig::with_every(2)).with_bus(bus.clone());
        sim.step_n_with(STEPS, |sim| {
            observer.observe_distributed(sim);
        });
        let stats = bus.stats();
        assert_eq!(
            stats.published, 24,
            "observations at steps 2,4,..,12, each an observable, 2 slices and metrics"
        );
        assert_eq!(stats.sent, 2, "bounded queue holds exactly its capacity");
        assert_eq!(stats.dropped, 22, "every overflow frame counted");
        assert_eq!(sub.sent(), 2);
        assert_eq!(sub.dropped(), 22);
    });
}

#[test]
fn endpoint_streams_decodable_observables_and_slices() {
    eutectica_comm::Universe::run(1, |rank| {
        let params = ModelParams::ag_al_cu();
        let decomp = Decomposition::new(DomainSpec::directional(CELLS, [1, 1, 1]));
        let mut sim = DistributedSim::new(
            &rank,
            params,
            decomp,
            KernelConfig::default(),
            OverlapOptions::default(),
        );
        sim.init_blocks(init);
        let bus = Arc::new(FrameBus::new(64));
        let mut server = LiveServer::bind("127.0.0.1:0", bus.clone()).expect("bind endpoint");
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let client = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let s = std::net::TcpStream::connect(addr).expect("connect endpoint");
                s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
                let mut r = std::io::BufReader::new(s);
                let mut lines = Vec::new();
                let mut buf = String::new();
                while !stop.load(Ordering::Relaxed) {
                    buf.clear();
                    match r.read_line(&mut buf) {
                        Ok(0) => break,
                        Ok(_) => lines.push(buf.trim().to_string()),
                        Err(_) => {}
                    }
                }
                lines
            })
        };
        let t = Instant::now();
        while bus.stats().subscribers < 1 {
            assert!(
                t.elapsed() < Duration::from_secs(10),
                "client never subscribed"
            );
            std::thread::yield_now();
        }
        let mut observer =
            InSituObserver::new(ObservablesConfig::with_every(OBSERVE_EVERY)).with_bus(bus);
        sim.step_n_with(STEPS, |sim| {
            observer.observe_distributed(sim);
        });
        // Give the writer thread a moment to flush the queued frames.
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        let lines = client.join().expect("client thread");
        server.shutdown();

        let mut observables = 0;
        let mut slices = 0;
        for line in &lines {
            let v = eutectica_obsv::json::parse(line)
                .unwrap_or_else(|e| panic!("client received invalid JSON ({e}): {line}"));
            match v.get("type").and_then(|t| t.as_str()) {
                Some("observable") => {
                    assert!(v.get("front_mean").and_then(|x| x.as_f64()).is_some());
                    observables += 1;
                }
                Some("slice") => {
                    let w = v.get("w").and_then(|x| x.as_u64()).unwrap() as usize;
                    let h = v.get("h").and_then(|x| x.as_u64()).unwrap() as usize;
                    let data = v.get("data").and_then(|x| x.as_arr()).unwrap();
                    assert_eq!(data.len(), w * h, "slice frame data extent");
                    slices += 1;
                }
                _ => {} // hello / metrics frames
            }
        }
        assert!(observables >= 1, "no observable frame decoded: {lines:?}");
        assert!(slices >= 1, "no slice frame decoded");
    });
}

/// ISSUE acceptance: a stalled TCP subscriber adds < 2% per-step wall time
/// on the fig7 workload (SimdTzBuf, 2 ranks). Wall-clock sensitive, so run
/// explicitly: `cargo test --release --test live_observability -- --ignored`.
#[test]
#[ignore = "wall-clock acceptance measurement; run explicitly"]
fn stalled_subscriber_overhead_under_two_percent() {
    use eutectica_core::kernels::OptLevel;

    fn fig7_walltime(stalled: bool) -> f64 {
        let out = eutectica_comm::Universe::run(2, move |rank| {
            let params = ModelParams::ag_al_cu();
            let decomp = Decomposition::new(DomainSpec::directional([40, 20, 20], [2, 1, 1]));
            let mut sim = DistributedSim::new(
                &rank,
                params,
                decomp,
                OptLevel::SimdTzBuf.config(),
                OverlapOptions::default(),
            );
            sim.init_blocks(|b| eutectica_core::init::init_planar_front(b, 0, 6));
            let mut observer = InSituObserver::new(ObservablesConfig::with_every(5));
            let mut server = None;
            let mut stalled_conn = None;
            if rank.rank() == 0 {
                let bus = Arc::new(FrameBus::new(4));
                let srv = LiveServer::bind("127.0.0.1:0", bus.clone()).expect("bind endpoint");
                if stalled {
                    // Connect and never read a byte: the kernel buffers
                    // fill, the writer thread blocks, the bounded queue
                    // overflows — and the time loop must not care.
                    let conn =
                        std::net::TcpStream::connect(srv.local_addr()).expect("connect endpoint");
                    let t = Instant::now();
                    while bus.stats().subscribers < 1 {
                        assert!(t.elapsed() < Duration::from_secs(10));
                        std::thread::yield_now();
                    }
                    stalled_conn = Some(conn);
                }
                observer = observer.with_bus(bus);
                server = Some(srv);
            }
            let t = Instant::now();
            sim.step_n_with(40, |sim| {
                observer.observe_distributed(sim);
            });
            let wall = t.elapsed().as_secs_f64();
            drop(stalled_conn);
            if let Some(mut srv) = server {
                srv.shutdown();
            }
            wall
        });
        out.into_iter().fold(0.0, f64::max)
    }

    // Warmup, then best-of-5 for both configurations (1-core containers
    // are noisy; the minimum is the least-disturbed run).
    fig7_walltime(false);
    fig7_walltime(true);
    let base = (0..5)
        .map(|_| fig7_walltime(false))
        .fold(f64::MAX, f64::min);
    let with_stall = (0..5).map(|_| fig7_walltime(true)).fold(f64::MAX, f64::min);
    let overhead = with_stall / base - 1.0;
    println!(
        "per-step wall: base {base:.4}s, stalled subscriber {with_stall:.4}s ({:+.2}%)",
        overhead * 100.0
    );
    assert!(
        overhead < 0.02,
        "stalled subscriber added {:.1}% per-step wall time (budget 2%)",
        overhead * 100.0
    );
}
