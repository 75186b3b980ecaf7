//! Shared measurement utilities for the figure-generation binaries.
//!
//! Every binary in `src/bin/` regenerates one figure (or the in-text
//! analysis) of the paper's evaluation section; see DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded paper-vs-measured
//! results. Output goes to stdout as an aligned table and to
//! `results/<name>.csv` for plotting.

use std::io::Write;
use std::time::Instant;

use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::{mu_sweep, phi_sweep, KernelConfig, MuPart};
use eutectica_core::params::ModelParams;
use eutectica_core::regions::{build_scenario, Scenario};
use eutectica_core::sweep_pool::SweepPool;

/// Median-of-repetitions timing of `f`, in seconds per call.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps > 0);
    f(); // warmup
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// MLUP/s of the φ-kernel on a scenario block.
pub fn phi_mlups(
    params: &ModelParams,
    scenario: Scenario,
    dims: GridDims,
    cfg: KernelConfig,
    reps: usize,
) -> f64 {
    let mut state = build_scenario(scenario, dims);
    let secs = time_median(reps, || phi_sweep(params, &mut state, 0.0, cfg));
    dims.interior_volume() as f64 / secs / 1e6
}

/// MLUP/s of the µ-kernel on a scenario block.
pub fn mu_mlups(
    params: &ModelParams,
    scenario: Scenario,
    dims: GridDims,
    cfg: KernelConfig,
    reps: usize,
) -> f64 {
    let mut state = build_scenario(scenario, dims);
    // Realistic φ_dst (one φ step) so source terms are exercised.
    phi_sweep(params, &mut state, 0.0, cfg);
    let secs = time_median(reps, || {
        mu_sweep(params, &mut state, 0.0, cfg, MuPart::Full)
    });
    dims.interior_volume() as f64 / secs / 1e6
}

/// MLUP/s of the µ-kernel with `threads` intra-rank sweep threads
/// (z-slab work sharing; bit-identical to the serial kernel).
pub fn mu_mlups_threaded(
    params: &ModelParams,
    scenario: Scenario,
    dims: GridDims,
    cfg: KernelConfig,
    threads: usize,
    reps: usize,
) -> f64 {
    let pool = SweepPool::new(threads);
    let tel = eutectica_telemetry::Telemetry::disabled();
    let mut state = build_scenario(scenario, dims);
    phi_sweep(params, &mut state, 0.0, cfg);
    let secs = time_median(reps, || {
        pool.mu_sweep(params, &mut state, 0.0, cfg, MuPart::Full, &tel)
    });
    dims.interior_volume() as f64 / secs / 1e6
}

/// Full-step (φ-sweep + µ-sweep) MLUP/s with `threads` intra-rank sweep
/// threads.
pub fn step_mlups_threaded(
    params: &ModelParams,
    scenario: Scenario,
    dims: GridDims,
    cfg: KernelConfig,
    threads: usize,
    reps: usize,
) -> f64 {
    let pool = SweepPool::new(threads);
    let tel = eutectica_telemetry::Telemetry::disabled();
    let mut state = build_scenario(scenario, dims);
    let secs = time_median(reps, || {
        pool.phi_sweep(params, &mut state, 0.0, cfg, &tel);
        pool.mu_sweep(params, &mut state, 0.0, cfg, MuPart::Full, &tel);
    });
    dims.interior_volume() as f64 / secs / 1e6
}

/// A results table that prints aligned text and writes CSV.
pub struct ResultTable {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// New table with column headers.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
    }

    /// Print to stdout and write `results/<name>.csv`.
    pub fn finish(&self) {
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap()
            })
            .collect();
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for r in &self.rows {
            println!("{}", line(r));
        }
        std::fs::create_dir_all("results").ok();
        if let Ok(mut f) = std::fs::File::create(format!("results/{}.csv", self.name)) {
            writeln!(f, "{}", self.header.join(",")).ok();
            for r in &self.rows {
                writeln!(f, "{}", r.join(",")).ok();
            }
            eprintln!("[written results/{}.csv]", self.name);
        }
    }
}

/// Round to 2 decimals for display.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Round to 3 decimals for display.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// The value of `--flag <v>` or `--flag=<v>` among the process arguments
/// (`None` when the flag is absent; a flag without its value panics).
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{flag} needs a value")),
            );
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

/// [`arg_value`] parsed as `T`; an unparsable value panics naming the flag.
pub fn arg_parsed<T: std::str::FromStr>(flag: &str) -> Option<T> {
    arg_value(flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{flag}: cannot parse '{v}'"))
    })
}

/// True when the bare switch `--flag` is among the process arguments.
fn arg_flag(flag: &str) -> bool {
    std::env::args().skip(1).any(|a| a == flag)
}

/// `--threads <n>` (default 1): intra-rank sweep threads, composing with
/// the rank count into the hybrid ranks × threads layout.
pub fn threads_arg() -> usize {
    let n = arg_parsed("--threads").unwrap_or(1);
    assert!(n >= 1, "--threads must be a positive integer");
    n
}

/// Build a [`RebalancePolicy`](eutectica_blockgrid::rebalance::RebalancePolicy)
/// from `--rebalance-every <n>` (cadence of the collective imbalance check;
/// absent = `None`, static placement) and `--imbalance-threshold <x>`
/// (max/avg per-rank load ratio above which a check migrates, default 1.1).
pub fn rebalance_policy_from_args() -> Option<eutectica_blockgrid::rebalance::RebalancePolicy> {
    let every: usize = arg_parsed("--rebalance-every")?;
    assert!(
        every >= 1,
        "--rebalance-every must be a positive step count"
    );
    let threshold: f64 = arg_parsed("--imbalance-threshold").unwrap_or(1.1);
    assert!(
        threshold >= 1.0,
        "--imbalance-threshold must be a ratio >= 1.0"
    );
    Some(eutectica_blockgrid::rebalance::RebalancePolicy::new(
        every, threshold,
    ))
}

/// The SIMD instantiation selected by `--isa <auto|portable|avx2>` (default
/// `auto` = resolved at runtime). Exits with code 2 and the typed
/// [`IsaError`](eutectica_core::kernels::IsaError) on anything else —
/// `avx2` on a host without AVX2+FMA is a hard error here, never a silent
/// fallback — and on the two retired flags, which the other `arg_*` lookups
/// would ignore: an old command line must not quietly measure something
/// else.
pub fn isa_from_args() -> eutectica_core::kernels::SimdIsa {
    let fail = |msg: &dyn std::fmt::Display| -> ! {
        eprintln!("error: {msg}");
        std::process::exit(2)
    };
    for arg in std::env::args().skip(1) {
        match arg.split('=').next().and_then(|f| f.strip_prefix("--")) {
            Some("backend") => fail(&"--backend is retired: use --isa <auto|portable|avx2>"),
            Some("autotune") => fail(&"--autotune is retired: the kernel choice is fixed"),
            _ => {}
        }
    }
    let name = arg_value("--isa").unwrap_or_else(|| "auto".into());
    eutectica_core::kernels::SimdIsa::parse(&name).unwrap_or_else(|e| fail(&e))
}

/// Run a distributed simulation with the in-situ observability plane
/// attached: cadenced physics observables, optional NDJSON metrics file,
/// and optional live subscription endpoint on rank 0. Returns rank 0's
/// observable records.
#[allow(clippy::too_many_arguments)] // mirrors the figure binaries' flag list
pub fn run_observed(
    n_ranks: usize,
    threads: usize,
    domain: [usize; 3],
    blocks: [usize; 3],
    steps: usize,
    overlap: eutectica_core::timeloop::OverlapOptions,
    observe_every: usize,
    metrics_out: Option<String>,
    serve: Option<String>,
) -> Vec<eutectica_obsv::ObservableRecord> {
    use eutectica_core::timeloop::DistributedSim;
    use eutectica_obsv::{FrameBus, InSituObserver, LiveServer, ObservablesConfig};
    use eutectica_telemetry::Telemetry;

    let params = ModelParams::ag_al_cu();
    let decomp = eutectica_blockgrid::decomp::Decomposition::new(
        eutectica_blockgrid::decomp::DomainSpec::directional(domain, blocks),
    );
    let out = eutectica_comm::Universe::run(n_ranks, move |rank| {
        let mut sim = DistributedSim::new(
            &rank,
            params.clone(),
            decomp.clone(),
            KernelConfig::default(),
            overlap,
        );
        sim.set_threads(threads);
        let tel = Telemetry::new(rank.rank());
        sim.set_telemetry(tel.clone());
        sim.init_blocks(|b| eutectica_core::init::init_planar_front(b, 0, 6));

        let mut observer = InSituObserver::new(ObservablesConfig::with_every(observe_every));
        let mut server = None;
        if rank.rank() == 0 {
            if let Some(path) = &metrics_out {
                observer = observer
                    .with_output_path(path)
                    .expect("create --metrics-out file");
            }
            if let Some(addr) = &serve {
                let bus = std::sync::Arc::new(FrameBus::new(64));
                let srv = LiveServer::bind(addr, bus.clone()).expect("bind --serve address");
                println!("live endpoint listening on {}", srv.local_addr());
                observer = observer.with_bus(bus);
                server = Some(srv);
            }
        }
        sim.step_n_with(steps, |sim| {
            observer.observe_distributed(sim);
        });
        if let Some(mut srv) = server {
            let stats = srv.bus().stats();
            println!(
                "live endpoint: {} connection(s), {} frame(s) published, \
                 {} delivered, {} dropped (bounded-lag)",
                srv.connections(),
                stats.published,
                stats.sent,
                stats.dropped
            );
            srv.shutdown();
        }
        observer.records().to_vec()
    });
    let records = out.into_iter().next().unwrap_or_default();
    if let Some(last) = records.last() {
        println!(
            "observables ({} record(s), every {} steps): front {:.2} (rms {:.2}), \
             velocity {:.4} cells/t, solid {:.3}, lamellae {:?}, undercooling {:.4}",
            records.len(),
            observe_every,
            last.front_mean,
            last.front_rms,
            last.front_velocity,
            last.solid_fraction,
            last.lamella_count,
            last.undercooling
        );
    }
    records
}

/// Run a fully instrumented distributed simulation and write observability
/// artifacts into `out_dir`:
///
/// * `trace.json` — Chrome trace-event timeline, one lane per rank plus
///   one per intra-rank sweep worker,
/// * `steps.jsonl` — one [`eutectica_telemetry::StepRecord`] per rank per
///   step,
///
/// and print the rank-reduced timing tree plus the Universe communication
/// summary to stdout. `threads` intra-rank sweep threads run per rank
/// (hybrid ranks × threads; 1 = serial sweeps).
#[allow(clippy::too_many_arguments)] // mirrors the figure binaries' flag list
pub fn run_traced(
    out_dir: &std::path::Path,
    n_ranks: usize,
    threads: usize,
    domain: [usize; 3],
    blocks: [usize; 3],
    steps: usize,
    overlap: eutectica_core::timeloop::OverlapOptions,
    health_every: Option<usize>,
    rebalance: Option<eutectica_blockgrid::rebalance::RebalancePolicy>,
) -> std::io::Result<()> {
    use eutectica_core::health::{HealthConfig, HealthMonitor};
    use eutectica_core::timeloop::DistributedSim;
    use eutectica_telemetry::Telemetry;

    std::fs::create_dir_all(out_dir)?;
    let params = ModelParams::ag_al_cu();
    let decomp = eutectica_blockgrid::decomp::Decomposition::new(
        eutectica_blockgrid::decomp::DomainSpec::directional(domain, blocks),
    );
    let (out, summary) = eutectica_comm::Universe::run_with_stats(n_ranks, move |rank| {
        let mut sim = DistributedSim::new(
            &rank,
            params.clone(),
            decomp.clone(),
            KernelConfig::default(),
            overlap,
        );
        sim.set_threads(threads);
        let tel = Telemetry::new(rank.rank());
        tel.enable_trace();
        sim.set_telemetry(tel.clone());
        sim.record_steps(true);
        if let Some(every) = health_every {
            sim.set_health_monitor(Some(HealthMonitor::new(
                HealthConfig::for_params(&params).with_every(every),
            )));
        }
        sim.init_blocks(|b| eutectica_core::init::init_planar_front(b, 0, 6));
        sim.set_rebalance_policy(rebalance.clone());
        sim.step_n(steps);
        let reduced = rank.reduce_timing(&tel.tree_snapshot());
        let metrics = tel.metrics_snapshot();
        let rb_stats = sim.rebalance_stats().cloned();
        (
            tel.take_trace(),
            sim.take_step_records(),
            reduced,
            metrics,
            rb_stats,
        )
    });

    let mut events = Vec::new();
    let mut records = Vec::new();
    let mut reduced = None;
    let mut rank0_metrics = None;
    let mut rank0_rb = None;
    for (ev, recs, red, metrics, rb) in out {
        events.push(ev);
        records.extend(recs);
        if reduced.is_none() {
            rank0_metrics = Some(metrics);
            rank0_rb = rb;
        }
        reduced = reduced.or(red);
    }
    let trace_path = out_dir.join("trace.json");
    let jsonl_path = out_dir.join("steps.jsonl");
    eutectica_telemetry::write_chrome_trace(&trace_path, &events)?;
    eutectica_telemetry::write_jsonl(&jsonl_path, &records)?;
    println!("{}", reduced.expect("rank 0 reduces").report());
    println!("communication summary:\n{}", summary.report());
    println!(
        "trace artifacts: {} (chrome://tracing), {} (JSONL)",
        trace_path.display(),
        jsonl_path.display()
    );
    if health_every.is_some() {
        if let Some(m) = rank0_metrics {
            let scans = m.counters.get("health/scans").copied().unwrap_or(0);
            let violations = m.counters.get("health/violations").copied().unwrap_or(0);
            let wall_ms = m.counters.get("health/scan_wall_ns").copied().unwrap_or(0) as f64 / 1e6;
            let frac = m.gauges.get("health/scan_frac").copied().unwrap_or(0.0);
            println!(
                "field health (rank 0): {scans} scan(s), {violations} violation(s), \
                 {wall_ms:.3} ms scanning, last scan {:.2} % of its step",
                frac * 100.0
            );
        }
    }
    if let Some(rb) = rank0_rb {
        print_rebalance_summary(&rb);
    }
    Ok(())
}

/// Print the rank-0 dynamic-load-rebalancing summary: measured imbalance at
/// the first check (static placement) vs. the last check, plus migration
/// volume. Ranks agree on the imbalance numbers — they come from the
/// collective decision broadcast.
fn print_rebalance_summary(rb: &eutectica_core::timeloop::RebalanceStats) {
    println!(
        "load rebalancing: {} check(s), {} rebalance(s); imbalance (max/avg) \
         {} at first check -> {:.3} before / {:.3} after last check; \
         rank 0 sent {} block(s) ({} B), received {}",
        rb.checks,
        rb.rebalances,
        rb.first_imbalance_before
            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}")),
        rb.last_imbalance_before,
        rb.last_imbalance_after,
        rb.blocks_sent,
        rb.bytes_sent,
        rb.blocks_received,
    );
}

/// Fig. 9 companion demo: a front-crossing scenario where the static
/// contiguous placement is badly imbalanced (a planar solidification front
/// low in a tall domain leaves most z-blocks in cheap bulk regions) and the
/// dynamic rebalancer repacks it. Runs the same scenario twice — static and
/// with the given policy — and prints the measured imbalance of each, so
/// the improvement is measured, not modeled. Returns
/// `(static max/avg, rebalanced max/avg)`.
pub fn rebalance_demo(every: usize, threshold: f64, threads: usize, steps: usize) -> (f64, f64) {
    use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
    use eutectica_blockgrid::rebalance::RebalancePolicy;
    use eutectica_core::kernels::OptLevel;
    use eutectica_core::timeloop::{run_distributed, OverlapOptions};

    // The static placement gives each rank one z-column, which balances a
    // planar front by itself. The demo lays the ranks out by z-layer
    // instead: rank 0 holds the entire bottom layer — exactly where the
    // solidification front sits — and the three other ranks pure liquid.
    let domain = [32, 32, 16];
    let blocks = [2, 2, 4];
    let n_ranks = 4;
    let params = ModelParams::ag_al_cu();
    // Rung-5 kernels: region shortcuts make bulk blocks much cheaper than
    // front blocks — exactly the cost contrast of the paper's Sec. 5.1.2
    // region argument, and the worst case for a static layout.
    let cfg = OptLevel::SimdTzBufShortcuts.config();
    // Every rank's rebalance counters after `steps` steps under `policy`.
    let run = |policy: RebalancePolicy| {
        run_distributed(
            params.clone(),
            Decomposition::new(DomainSpec::directional(domain, blocks)),
            n_ranks,
            cfg,
            OverlapOptions::default(),
            move |sim| {
                // Block ids are x-fastest: id / 4 is the z-layer.
                sim.adopt_placement((0..16).map(|id| id / 4).collect());
                sim.set_threads(threads);
                sim.init_blocks(|b| eutectica_core::init::init_planar_front(b, 0, 2));
                sim.set_rebalance_policy(Some(policy.clone()));
                sim.step_n(steps);
                sim.rebalance_stats().cloned().unwrap_or_default()
            },
        )
    };
    // Mean of the back half of the per-check measured imbalances: the
    // steady-state value, insensitive to single-check timing noise.
    let settled = |hist: &[f64]| -> f64 {
        let tail = &hist[hist.len() / 2..];
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    // Static run: threshold = infinity means the checks only *measure* the
    // imbalance of the untouched layered placement, never migrate.
    let static_out = run(RebalancePolicy::new(every, f64::INFINITY));
    let static_imb = settled(&static_out[0].imbalance_history);
    let mut policy = RebalancePolicy::new(every, threshold);
    // Short demo: weight the newest measurement heavily so the model tracks
    // the moving front within a couple of checks, and cancel cosmetic moves
    // aggressively so measurement noise does not cause placement churn.
    policy.alpha = 0.7;
    policy.slack = 0.15;
    let dynamic_out = run(policy);
    let rb = &dynamic_out[0];
    let dynamic_imb = settled(&rb.imbalance_history);
    println!(
        "rebalance demo ({domain:?} cells, {blocks:?} blocks, {n_ranks} ranks, \
         {steps} steps, check every {every}, steady-state mean over the last \
         {} check(s)):",
        rb.imbalance_history.len() - rb.imbalance_history.len() / 2,
    );
    println!("  static placement  : measured imbalance {static_imb:.3} (max/avg)");
    println!(
        "  dynamic (thr {threshold:.2}): measured imbalance {dynamic_imb:.3} after {} \
         rebalance(s), {} block migration(s) from rank 0",
        rb.rebalances, rb.blocks_sent,
    );
    (static_imb, dynamic_imb)
}

/// Chaos leg shared by the figure binaries, driven by `--kill-rank <r>`
/// (absent = no chaos leg), `--kill-step <s>` (default 6), `--survive` and
/// `--shrink-source disk|buddy` (default disk): run a small 3-rank
/// resilient simulation, kill the rank at the step, and either
/// shrink-continue on the survivors (sourcing lost state per the source)
/// or tear down and restart classically. Prints a rank-0 summary line —
/// blocks re-homed, bytes moved, wall-clock recovery cost.
pub fn shrink_demo_from_args(threads: usize) {
    use eutectica_core::timeloop::OverlapOptions;
    use eutectica_pfio::resilient::{
        run_resilient, CheckpointCadence, ResilientOpts, ShrinkSource,
    };

    let Some(kill_rank) = arg_parsed::<usize>("--kill-rank") else {
        return;
    };
    let kill_step: u64 = arg_parsed("--kill-step").unwrap_or(6);
    let survive = arg_flag("--survive");
    let source = match arg_value("--shrink-source").as_deref() {
        None | Some("disk") => ShrinkSource::Disk,
        Some("buddy") => ShrinkSource::Buddy,
        Some(other) => panic!("--shrink-source must be disk or buddy, got {other}"),
    };
    let n_ranks = 3usize;
    assert!(
        kill_rank < n_ranks,
        "--kill-rank must name one of the demo's {n_ranks} ranks"
    );
    let steps = 16usize;
    let spec = eutectica_blockgrid::decomp::DomainSpec::directional([16, 16, 12], [2, 2, 1]);
    let root = std::env::temp_dir().join(format!("eut_shrink_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut opts = ResilientOpts::new(root.clone());
    opts.cadence = CheckpointCadence::fixed(4);
    opts.ranks = vec![n_ranks];
    opts.threads = threads;
    opts.fault_plans = vec![eutectica_comm::FaultPlan::new(42).kill(kill_rank, kill_step)];
    if survive {
        opts.max_attempts = 1; // the kill must be absorbed in-flight
        opts.shrink = Some(source);
    } else {
        opts.max_attempts = 2; // classic path: tear down, restore, re-run
    }
    let t0 = Instant::now();
    let outcome = run_resilient(
        ModelParams::ag_al_cu(),
        spec,
        eutectica_core::kernels::KernelConfig::default(),
        OverlapOptions::default(),
        steps,
        opts,
        |b| eutectica_core::init::init_planar_front(b, 0, 6),
    )
    .expect("chaos demo must recover from the injected kill");
    let total_secs = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&root);
    if survive {
        let c = outcome.shrink_cost;
        println!(
            "chaos: killed rank {kill_rank} at step {kill_step} ({source:?} restore); \
             survivors {:?} re-homed {} block(s), moved {} replica byte(s), \
             recovery {:.2} ms ({:.1}% of the {:.1} ms run)",
            outcome.survivors,
            c.blocks_rehomed,
            c.bytes_moved,
            c.recovery_secs * 1e3,
            100.0 * c.recovery_secs / total_secs.max(1e-9),
            total_secs * 1e3,
        );
    } else {
        println!(
            "chaos: killed rank {kill_rank} at step {kill_step}; classic restart \
             recovered in {} attempt(s), {:.1} ms total",
            outcome.attempts,
            total_secs * 1e3,
        );
    }
    println!();
}
