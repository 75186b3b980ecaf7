//! `perf_ledger` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! perf_ledger run   [--seed N] [--seconds S] [--workload W] [--trace]
//! perf_ledger check [--seed N] [--seconds S] [--repeats R] [--trace]
//! perf_ledger one   --workload W --seed N --seconds S --trace 0|1
//! perf_ledger setup --workload W --seed N
//! perf_ledger manifest
//! ```
//!
//! `one` measures a single workload in this process and ends with the result
//! line the driver reads; `run` and `check` start one fresh `one` child per
//! workload, so no workload inherits another's heap or page cache state.

mod campaign;
mod common;
mod dist;
mod ledger;
mod probes;
mod solidify;
mod spans;
mod stats;
mod sys;

use std::process::{Command, ExitCode};

use common::{Leg, SETUP_REPEATS};
use ledger::{Better, Checks, Layers, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// The four workloads. The program under test never sees a name: it only
/// selects which inputs this file generates.
#[derive(Clone, Copy)]
enum Workload {
    Solidify,
    Dist(dist::DistCfg),
    Campaign,
}

impl Workload {
    fn named(name: &str) -> Option<Self> {
        match name {
            "solidify_1block" => Some(Self::Solidify),
            "exchange_smallblocks" => Some(Self::Dist(dist::EXCHANGE_SMALLBLOCKS)),
            "ops_bigblocks" => Some(Self::Dist(dist::OPS_BIGBLOCKS)),
            "campaign_32pt" => Some(Self::Campaign),
            _ => None,
        }
    }

    /// One leg of the workload, traced or not.
    fn run(self, seed: u64, seconds: u64, traced: bool) -> Leg {
        match self {
            Self::Solidify => solidify::run(seed, seconds, traced),
            Self::Dist(cfg) => dist::run(cfg, seed, seconds, traced),
            Self::Campaign => campaign::run(seed, seconds, traced),
        }
    }

    /// One set-up in this process; returns its seconds.
    fn setup_once(self, seed: u64) -> f64 {
        match self {
            Self::Solidify => solidify::setup_once(seed),
            Self::Dist(cfg) => dist::setup_once(cfg, seed),
            Self::Campaign => campaign::setup_once(seed),
        }
    }

    /// Payload of the comm ping-pong probe: the workload's face message, the
    /// campaign's progress message, nothing where comm is not used.
    fn comm_message_bytes(self) -> Option<usize> {
        match self {
            Self::Solidify => None,
            Self::Dist(cfg) => Some(dist::face_message_bytes(cfg)),
            Self::Campaign => Some(campaign::PROGRESS_MESSAGE_BYTES),
        }
    }
}

/// One set-up in a fresh child process, as a user pays it: a process sets up
/// once. (Repeats inside one process are bimodal — 5 or 13 ms for the
/// campaign — depending on whether the allocator hands the previous
/// repeat's pages back or faults new ones in.)
fn fresh_setup(workload: &str, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["setup", "--workload", workload, "--seed", &seed.to_string()])
        .output()
        .expect("start set-up child");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up child prints its seconds")
}

/// The separate traced run: the same workload and seed with spans, the
/// program's public outputs switched on, and the layer probes.
fn traced_layers(
    name: &str,
    workload: Workload,
    seed: u64,
    seconds: u64,
    untraced: &Leg,
    checks: &mut Checks,
) -> Layers {
    let mut traced = workload.run(seed, seconds, true);
    checks.attempted += traced.checks.attempted;
    checks.failed += traced.checks.failed;
    checks.log.append(&mut traced.checks.log);
    checks.check(
        "traced leg lands on the untraced leg's bits",
        traced.digest == untraced.digest,
        format!("{:016x} vs {:016x}", traced.digest, untraced.digest),
    );

    let mut layers = std::mem::take(&mut traced.layers);
    if let Some(first) = traced.finals.first() {
        probes::block_layers(&mut layers, first);
    }
    probes::kernels_and_machine(&mut layers, &mut traced.finals);
    if let Some(bytes) = workload.comm_message_bytes() {
        probes::comm_layers(&mut layers, bytes);
    }
    if matches!(workload, Workload::Dist(_)) {
        layers.set(
            "core.timeloop.kernel_eff",
            traced.mlups() / traced.ranks as f64 / layers.get("core.kernels.step_bound_mlups"),
        );
    }
    layers.set(
        "trace.overhead_pct",
        100.0 * (untraced.mlups() - traced.mlups()) / untraced.mlups(),
    );

    let path = sys::bench_dir()
        .join("out")
        .join(format!("{name}.trace.json"));
    match spans::write_json(&path, name, &traced.spans) {
        Ok(()) => println!("{} spans written to {}", traced.spans.len(), path.display()),
        Err(e) => checks.check("trace file written", false, e),
    }
    layers
}

/// Measure one workload in this process and print its result line.
fn one(name: &str, workload: Workload, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    println!(
        "perf_ledger: {name}, seed {seed}, {seconds} s budget, trace {}, {} logical CPUs",
        trace as u8,
        sys::nproc()
    );
    sys::warm_up_cpus();
    // A traced run measures two legs (untraced reference, then traced), so
    // each gets half the budget and the run costs what an untraced one does.
    let leg_seconds = if trace { (seconds / 2).max(1) } else { seconds };
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| fresh_setup(name, seed))
        .collect();
    let mut leg = workload.run(seed, leg_seconds, false);
    let mut checks = std::mem::take(&mut leg.checks);
    common::check_final_health(&mut checks, &leg.finals);

    let end_to_end = [
        ("mlups", leg.mlups()),
        ("cpu_ns_per_lup", leg.cpu_s * 1e9 / leg.lups as f64),
        ("peak_rss_mb", leg.peak_rss_mb),
        ("setup_s", stats::median(&setups)),
    ];
    let layers = trace.then(|| traced_layers(name, workload, seed, leg_seconds, &leg, &mut checks));

    println!(
        "set-up x{SETUP_REPEATS}: min {:.5} s, median {:.5} s, max {:.5} s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&setups),
        setups.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "timed region: {:.3} s wall, {:.3} s CPU, {} lattice updates; final-state digest {:016x}",
        leg.wall_s, leg.cpu_s, leg.lups, leg.digest
    );
    for (name, value) in end_to_end {
        let unit = END_TO_END
            .iter()
            .find(|m| m.0 == name)
            .expect("known metric")
            .1;
        println!("  {name:<16} {value:>14.4} {unit}");
    }
    println!(
        "  {:<16} {:>14.4} share ({} failed of {} checks and operations)",
        "fail_share",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    for line in &checks.log {
        println!("  {line}");
    }

    let metrics: Vec<(&str, &str, f64)> = match &layers {
        None => END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(m, (_, v))| (m.0, m.1, v))
            .collect(),
        Some(layers) => PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, *unit, layers.get(name)))
            .collect(),
    };
    if layers.is_some() {
        for (name, unit, value) in &metrics {
            println!("  {name:<42} {value:>16.4} {unit}");
        }
    }
    println!("{}", ledger::result_line(&checks, &metrics));
    ExitCode::SUCCESS
}

/// Start a fresh `one` child and return its result line (its other output
/// is passed through).
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    quiet: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["one", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if !quiet {
        println!("{body}");
    }
    if !out.status.success() || !last.starts_with('{') {
        return Err(format!(
            "{workload}: child exited with {} and no result line",
            out.status
        ));
    }
    Ok(last.to_string())
}

/// Every selected workload once, untraced, each in a fresh child; with
/// `trace`, the separate traced run of each as well.
fn run(workloads: &[&str], seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let mut ok = true;
    for workload in workloads {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            match child(workload, seed, seconds, traced, false) {
                Ok(line) => {
                    ok &= ledger::count_in(&line, "failed") == Some(0);
                    println!("{line}\n");
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced set twice (A then B), `repeats` seeds each: per workload and
/// metric both medians, their relative difference and — from four repeats
/// on — each set's interquartile spread, against the metric's bound. With
/// `trace`, each workload is also traced twice on one seed, and every
/// count-type layer metric must read the same both times.
fn check(seed: u64, seconds: u64, repeats: u64, trace: bool) -> ExitCode {
    let mut ok = true;
    println!(
        "perf_ledger check: 2 sets x {repeats} run(s) per workload, seeds {seed}..{}, {seconds} s budget",
        seed + repeats - 1
    );
    println!(
        "{:<22} {:<15} {:>12} {:>12} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    for (workload, _) in WORKLOADS {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for r in 0..repeats {
                match child(workload, seed + r, seconds, false, true) {
                    Ok(line) => set.push(line),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (name, _, better, bound) in END_TO_END {
            let values = |set: &[String]| -> Vec<f64> {
                set.iter()
                    .filter_map(|l| ledger::metric_in(l, name))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            // Positive = B worse than A.
            let worse = match better {
                Better::Higher => (ma - mb) / ma,
                Better::Lower => (mb - ma) / ma,
            };
            let spread = |v: &[f64]| (v.len() >= 4).then(|| stats::iqr_share(v));
            let (sa, sb) = (spread(&a), spread(&b));
            // The set-up time's spread is reported, not gated (as the driver does).
            let spread_ok = name == "setup_s" || [sa, sb].iter().flatten().all(|s| *s <= bound);
            let pass = worse.abs() <= bound && spread_ok;
            ok &= pass;
            let pct = |s: Option<f64>| s.map_or("-".into(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{workload:<22} {name:<15} {ma:>12.4} {mb:>12.4} {:>8.2}% {:>9} {:>9} {:>6.0}%  {}",
                worse * 100.0,
                pct(sa),
                pct(sb),
                bound * 100.0,
                if pass { "ok" } else { "OUT OF BOUND" }
            );
        }
        let failed: u64 = sets
            .iter()
            .flatten()
            .filter_map(|l| ledger::count_in(l, "failed"))
            .sum();
        println!("{workload:<22} {:<15} {failed:>12}", "failed");
        ok &= failed == 0;
    }
    if trace {
        ok &= check_traced_counts(seed, seconds);
    }
    if ok {
        println!("check passed: every pair of medians and every spread is within its bound");
        ExitCode::SUCCESS
    } else {
        println!("check FAILED");
        ExitCode::FAILURE
    }
}

/// Units of the layer metrics that are counts: exact, and equal in any two
/// traced runs of one build on one seed.
const COUNT_UNITS: [&str; 4] = ["count", "B", "FLOP/LUP", "B/LUP"];

/// Every workload traced twice on `seed`; true if every count-type layer
/// metric repeats exactly and no check fails.
fn check_traced_counts(seed: u64, seconds: u64) -> bool {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let runs = [(); 2].map(|()| child(workload, seed, seconds, true, true));
        let [Ok(a), Ok(b)] = runs else {
            eprintln!("error: traced run of {workload} produced no result line");
            return false;
        };
        let counts = PER_LAYER.iter().filter(|m| COUNT_UNITS.contains(&m.1));
        let differing: Vec<&str> = counts
            .clone()
            .filter(|m| ledger::metric_in(&a, m.0) != ledger::metric_in(&b, m.0))
            .map(|m| m.0)
            .collect();
        let failed = ledger::count_in(&a, "failed").unwrap_or(1)
            + ledger::count_in(&b, "failed").unwrap_or(1);
        let overhead =
            |line: &str| ledger::metric_in(line, "trace.overhead_pct").unwrap_or(f64::NAN);
        println!(
            "{workload:<22} traced twice: {} count-type layer metrics, {} differ {differing:?}; \
             {failed} failed check(s); trace.overhead_pct {:.2} and {:.2}",
            counts.count(),
            differing.len(),
            overhead(&a),
            overhead(&b),
        );
        ok &= differing.is_empty() && failed == 0;
    }
    ok
}

/// `--flag value` from the argument list.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: perf_ledger run [--seed N] [--seconds S] [--workload W] [--trace]\n       \
         perf_ledger check [--seed N] [--seconds S] [--repeats R] [--trace]\n       \
         perf_ledger one --workload W --seed N --seconds S --trace 0|1\n       \
         perf_ledger setup --workload W --seed N\n       \
         perf_ledger manifest\n\
         workloads: {}",
        WORKLOADS.map(|w| w.0).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let number = |name: &str, default: u64| -> Result<u64, String> {
        flag(&args, name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{name} takes a whole number, got '{v}'"))
        })
    };
    let (seed, seconds, repeats) = match (
        number("--seed", 1),
        number("--seconds", RUN_SECONDS),
        number("--repeats", 1),
    ) {
        (Ok(seed), Ok(seconds), Ok(repeats)) if seconds >= 1 && repeats >= 1 => {
            (seed, seconds, repeats)
        }
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return usage(&e),
        _ => return usage("--seconds and --repeats must be at least 1"),
    };
    let name = flag(&args, "--workload");
    let workload = name.and_then(Workload::named);
    if let (Some(name), None) = (name, workload) {
        return usage(&format!("unknown workload '{name}'"));
    }
    match args.first().map(String::as_str) {
        Some("one") => {
            let (Some(name), Some(workload)) = (name, workload) else {
                return usage("one needs --workload");
            };
            let trace = match flag(&args, "--trace") {
                Some("1") => true,
                Some("0") | None => false,
                Some(other) => return usage(&format!("--trace takes 0 or 1, got '{other}'")),
            };
            one(name, workload, seed, seconds, trace)
        }
        Some("setup") => {
            let Some(workload) = workload else {
                return usage("setup needs --workload");
            };
            println!("{}", workload.setup_once(seed));
            ExitCode::SUCCESS
        }
        Some("run") => {
            let all = WORKLOADS.map(|w| w.0);
            let selected: Vec<&str> = name.map_or(all.to_vec(), |w| vec![w]);
            run(
                &selected,
                seed,
                seconds,
                args.iter().any(|a| a == "--trace"),
            )
        }
        Some("check") => check(seed, seconds, repeats, args.iter().any(|a| a == "--trace")),
        Some("manifest") => {
            print!("{}", ledger::manifest_json());
            ExitCode::SUCCESS
        }
        _ => usage("expected a subcommand: run, check, one, setup or manifest"),
    }
}
