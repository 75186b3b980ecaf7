//! `campaign_sweep`: run a co-scheduled parameter-sweep fleet — the
//! production workflow behind the paper's process-parameter studies
//! (velocity/gradient variation, Sec. 6) — on one thread-rank universe,
//! with per-job checkpoint isolation and a rank-0 fleet summary.
//!
//! Flags:
//! - `--ranks <n>` ranks in the universe (default 2)
//! - `--threads <n>` sweep threads per rank (default 1)
//! - `--points <n>` minimum campaign size (default 32; rounded up to a
//!   full seed row of the 2×2×2 v/G/composition grid)
//! - `--steps <n>` step budget per job (default 12)
//! - `--slice <n>` round-robin slice in steps (default 4)
//! - `--ndjson-out <path>` write the collector's `{"type":"job"}` frames
//! - `--decode <path>` decode an NDJSON file written by `--ndjson-out`
//!   and exit (CI smoke: asserts every frame parses)
//! - `--kill-rank <r> --kill-step <round>` chaos leg: kill a rank at the
//!   given campaign round and shrink-continue on the survivors

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eutectica_bench::{arg_parsed, arg_value};
use eutectica_campaign::{run_campaign, CampaignOpts, CampaignSpec};
use eutectica_comm::{FaultPlan, Universe, UniverseCfg};
use eutectica_core::params::ModelParams;
use eutectica_obsv::{FrameBus, JobRecord};

fn decode_ndjson(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut frames = 0usize;
    let mut done = 0usize;
    let mut jobs = std::collections::BTreeSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = JobRecord::from_json(line)
            .unwrap_or_else(|e| panic!("undecodable job frame: {e}\n  {line}"));
        frames += 1;
        jobs.insert(rec.job);
        if rec.status == "done" {
            done += 1;
        }
    }
    assert!(frames > 0, "{path} holds no job frames");
    println!(
        "decoded {frames} job frames covering {} jobs ({done} done)",
        jobs.len()
    );
    std::process::exit(0);
}

fn main() {
    if let Some(path) = arg_value("--decode") {
        decode_ndjson(&path);
    }

    let ranks = arg_parsed("--ranks").unwrap_or(2usize);
    let threads = eutectica_bench::threads_arg();
    let min_points = arg_parsed("--points").unwrap_or(32usize);
    let steps = arg_parsed("--steps").unwrap_or(12usize);
    let slice = arg_parsed("--slice").unwrap_or(4usize).max(1);

    // 2 velocities × 2 gradients × 2 compositions = 8 points per seed row;
    // add seed rows until the requested size is covered.
    let seed_rows = min_points.div_ceil(8).max(1);
    let mut spec = CampaignSpec::around(
        ModelParams::ag_al_cu(),
        [8, 8, 12],
        steps,
        (1..=seed_rows as u64).collect(),
    );
    spec.velocities = vec![0.015, 0.02];
    spec.gradients = vec![0.001, 0.002];
    spec.compositions = vec![[1.0 / 3.0; 3], [0.4, 0.3, 0.3]];
    let points = spec.points();

    let ckpt_root: PathBuf =
        std::env::temp_dir().join(format!("eutectica_campaign_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_root);

    let bus = Arc::new(FrameBus::new(4096));
    let sub = bus.subscribe();
    let opts = CampaignOpts {
        threads,
        slice_steps: slice,
        ckpt_root: Some(ckpt_root.clone()),
        ckpt_every: 4,
        keep_sets: 2,
        shrink: true,
        bus: Some(Arc::clone(&bus)),
        ..CampaignOpts::default()
    };

    println!(
        "campaign_sweep: {points} points on {ranks} rank(s) x {threads} thread(s), \
         {steps} steps/job, slice {slice}"
    );
    let kill = arg_parsed::<usize>("--kill-rank")
        .map(|r| (r, arg_parsed::<u64>("--kill-step").unwrap_or(2)));

    let wall = Instant::now();
    let spec_run = spec.clone();
    let opts_run = opts.clone();
    let (reports, dead) = match kill {
        Some((kr, ks)) => {
            println!("chaos leg: killing rank {kr} at campaign round {ks}");
            let out = Universe::run_surviving(
                ranks,
                UniverseCfg::with_timeout(Duration::from_secs(600))
                    .with_faults(FaultPlan::new(29).kill(kr, ks)),
                move |rank| run_campaign(&rank, &spec_run, &opts_run).unwrap(),
            );
            (
                out.results.into_iter().flatten().collect::<Vec<_>>(),
                out.dead,
            )
        }
        None => (
            Universe::run(ranks, move |rank| {
                run_campaign(&rank, &spec_run, &opts_run).unwrap()
            }),
            Vec::new(),
        ),
    };
    let wall_s = wall.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&ckpt_root);

    let fleet = reports
        .iter()
        .find_map(|r| r.fleet.clone())
        .expect("no surviving collector produced a fleet summary");
    let shrinks = reports.iter().map(|r| r.shrinks).max().unwrap_or(0);
    let rounds = reports.iter().map(|r| r.rounds).max().unwrap_or(0);

    println!();
    println!(
        "{:>4}  {:<24} {:>4} {:>6} {:>9} {:>7}  checksum",
        "job", "label", "rank", "steps", "rollbacks", "status"
    );
    for rec in &fleet.jobs {
        println!(
            "{:>4}  {:<24} {:>4} {:>6} {:>9} {:>7}  {:016x}",
            rec.job, rec.label, rec.rank, rec.step, rec.rollbacks, rec.status, rec.checksum
        );
    }
    let done = fleet.jobs.iter().filter(|r| r.status == "done").count();
    let failed = fleet.jobs.iter().filter(|r| r.status == "failed").count();
    let pph = done as f64 / (wall_s / 3600.0).max(1e-12);
    println!();
    if !dead.is_empty() {
        let dead_ranks: Vec<usize> = dead.iter().map(|(r, _)| *r).collect();
        println!(
            "absorbed {} rank death(s) {dead_ranks:?} via shrink-and-continue ({shrinks} shrink(s))",
            dead.len()
        );
    }
    println!(
        "fleet: {done}/{points} done, {failed} failed, {rounds} rounds, \
         {wall_s:.2}s wall, {pph:.0} points/h"
    );
    assert_eq!(done + failed, points, "fleet lost jobs");

    if let Some(path) = arg_value("--ndjson-out") {
        let mut lines = String::new();
        let mut n = 0usize;
        while let Some(frame) = sub.try_recv() {
            lines.push_str(&frame);
            lines.push('\n');
            n += 1;
        }
        std::fs::write(&path, lines).unwrap_or_else(|e| panic!("{path}: {e}"));
        println!("wrote {n} job frames to {path}");
    }
}
