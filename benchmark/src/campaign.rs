//! `campaign_32pt`: `campaign::run_campaign` co-scheduling 32 jobs of 24³
//! (2 v × 2 G × 2 compositions × 4 seeds) on 2 ranks × 1 thread, with
//! per-job health scans and checkpoints and the frame bus attached.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use eutectica_campaign::{
    field_checksum, plan, run_campaign, standalone_sim, CampaignOpts, CampaignReport, CampaignSpec,
    JobSpec,
};
use eutectica_comm::{CommStats, Universe};
use eutectica_core::health::HealthConfig;
use eutectica_core::params::ModelParams;
use eutectica_obsv::FrameBus;
use eutectica_pfio::resilient::RecoveryPolicy;
use eutectica_telemetry::Telemetry;

use crate::common::{self, Leg, Snapshot};
use crate::ledger::{Checks, Layers};
use crate::spans::{self, Span, Tracer};
use crate::{stats, sys};

const JOB_CELLS: [usize; 3] = [24, 24, 24];
const RANKS: usize = 2;
const SLICE_STEPS: usize = 8;
const HEALTH_EVERY: usize = 4;
const CKPT_EVERY: usize = 100;
const CKPT_KEEP: usize = 2;
/// Fixed step budget per job per second of `--seconds`.
const STEPS_PER_SECOND: u64 = 46;
/// Size of the runner's per-job progress message (its private
/// `PROGRESS_BYTES`), the payload of this workload's ping-pong probe.
pub const PROGRESS_MESSAGE_BYTES: usize = 53;
/// Jobs re-run alone as the isolation check (first and last key).
const SAMPLED_JOBS: [usize; 2] = [0, 31];

/// The grid of `campaign_sweep`, on larger jobs; `seed` picks the four
/// nucleation layouts of the seed axis.
fn spec(seed: u64, steps: usize) -> CampaignSpec {
    let seeds = (1..=4)
        .map(|i| seed.wrapping_mul(4).wrapping_add(i))
        .collect();
    let mut spec = CampaignSpec::around(ModelParams::ag_al_cu(), JOB_CELLS, steps, seeds);
    spec.velocities = vec![0.015, 0.02];
    spec.gradients = vec![0.001, 0.002];
    spec.compositions = vec![[1.0 / 3.0; 3], [0.4, 0.3, 0.3]];
    spec
}

fn opts(root: PathBuf, bus: Arc<FrameBus>, telemetry: Telemetry) -> CampaignOpts {
    CampaignOpts {
        threads: 1,
        slice_steps: SLICE_STEPS,
        ckpt_root: Some(root),
        ckpt_every: CKPT_EVERY,
        keep_sets: CKPT_KEEP,
        recovery: RecoveryPolicy::with_health(
            HealthConfig::for_params(&ModelParams::ag_al_cu()).with_every(HEALTH_EVERY),
        ),
        bus: Some(bus),
        telemetry,
        ..CampaignOpts::default()
    }
}

/// One set-up, timed: expand the grid, plan it, spawn the universe and build
/// every rank's resident jobs — what `run_campaign` does before its first
/// round.
pub fn setup_once(seed: u64) -> f64 {
    let spawn = Instant::now();
    let jobs = spec(seed, 1).expand().expect("valid campaign grid");
    let schedule = plan(&jobs, CampaignOpts::default().rates, &[0, 1]);
    Universe::run(RANKS, move |rank| {
        for (job, owner) in jobs.iter().zip(&schedule.assignment) {
            if *owner == rank.rank() {
                std::hint::black_box(standalone_sim(job).expect("valid job"));
            }
        }
        spawn.elapsed().as_secs_f64()
    })
    .into_iter()
    .fold(0.0, f64::max)
}

/// What one rank hands back to the main thread.
struct RankOut {
    wall_s: f64,
    process_cpu_s: f64,
    thread_cpu_s: f64,
    peak_rss_mb: f64,
    report: Option<CampaignReport>,
    spans: Vec<Span>,
}

/// MLUP/s of one job of the campaign stepped alone on one thread.
fn alone_rate(job: &JobSpec, steps: usize) -> f64 {
    let mut sim = standalone_sim(job).expect("valid job");
    let t = Instant::now();
    sim.step_n(steps);
    (JOB_CELLS.iter().product::<usize>() * steps) as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Run the workload once.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Leg {
    let steps = (STEPS_PER_SECOND * seconds) as usize;
    let spec = spec(seed, steps);
    let jobs = spec.expand().expect("valid campaign grid");
    let points = jobs.len();
    let root = sys::scratch_dir("campaign");
    let bus = Arc::new(FrameBus::new(1 << 16));
    let subscription = bus.subscribe();
    let telemetry = if traced {
        Telemetry::new(0)
    } else {
        Telemetry::disabled()
    };
    let opts = opts(root.clone(), Arc::clone(&bus), telemetry.clone());
    let mut checks = Checks::default();
    let mut layers = Layers::default();

    let spawn = Instant::now();
    let spec_in = spec.clone();
    let (mut outs, comm_summary) = Universe::run_with_stats(RANKS, move |rank| {
        let mut tr = Tracer::new(traced, spawn, rank.rank());
        rank.barrier();
        let process_cpu0 = sys::process_cpu_seconds();
        let thread_cpu0 = sys::thread_cpu_seconds();
        let t = Instant::now();
        let report = tr.scope("run_campaign", || run_campaign(&rank, &spec_in, &opts));
        rank.barrier();
        RankOut {
            wall_s: t.elapsed().as_secs_f64(),
            process_cpu_s: sys::process_cpu_seconds() - process_cpu0,
            thread_cpu_s: sys::thread_cpu_seconds() - thread_cpu0,
            peak_rss_mb: sys::peak_rss_mb(),
            report: report.ok(),
            spans: tr.into_spans(),
        }
    });
    let _ = std::fs::remove_dir_all(&root);
    let mut frames = 0u64;
    while subscription.try_recv().is_some() {
        frames += 1;
    }
    let wall_s = outs[0].wall_s;

    let comm_failed = |s: &CommStats| s.aborted_receives + s.sends_to_dead + s.fenced_messages;
    let failed_comm = comm_failed(&comm_summary.total);
    let reports: Vec<_> = outs.iter().filter_map(|o| o.report.as_ref()).collect();
    let fleet = reports.iter().find_map(|r| r.fleet.clone());
    let records = fleet.as_ref().map_or(&[][..], |f| &f.jobs[..]);
    let done = records.iter().filter(|r| r.status == "done").count();
    let jobs_failed = points - done;
    let rounds = reports.iter().map(|r| r.rounds).max().unwrap_or(0);
    checks.operations("campaign job", points as u64, jobs_failed as u64);
    checks.check(
        "fleet complete",
        reports.len() == RANKS && done == points,
        format!(
            "{done}/{points} done on {} of {RANKS} ranks, {rounds} rounds",
            reports.len()
        ),
    );
    checks.check(
        "comm saw no failed operation",
        failed_comm == 0,
        format!("{failed_comm} aborted/dead/fenced"),
    );
    checks.check(
        "frame bus dropped nothing",
        bus.stats().dropped == 0,
        format!("{} of {frames} frames", bus.stats().dropped),
    );
    for key in SAMPLED_JOBS {
        let mut alone = standalone_sim(&jobs[key]).expect("valid job");
        alone.step_n(steps);
        let expect = field_checksum(&alone.state);
        let got = records
            .iter()
            .find(|r| r.job as usize == key)
            .map(|r| r.checksum);
        checks.check(
            "fleet job matches the same job run alone",
            got == Some(expect),
            format!("job {key}: {got:016x?} vs {expect:016x}"),
        );
    }

    let mut checksum_words: Vec<u64> = records.iter().map(|r| r.checksum).collect();
    checksum_words.push(rounds);
    let digest = common::fnv(&checksum_words);

    let spans = spans::merge(outs.iter().map(|o| o.spans.clone()).collect());
    if traced {
        layers.set("campaign.points_per_hour", done as f64 / wall_s * 3600.0);
        layers.set("campaign.rounds", rounds as f64);
        let rates = CampaignOpts::default().rates;
        let schedule = plan(&jobs, rates, &[0, 1]);
        let mut rank_cost = [0.0; RANKS];
        for (owner, cost) in schedule.assignment.iter().zip(&schedule.costs) {
            rank_cost[*owner] += cost;
        }
        let mean_cost = rank_cost.iter().sum::<f64>() / RANKS as f64;
        layers.set(
            "campaign.sched_imbalance",
            rank_cost.iter().copied().fold(0.0, f64::max) / mean_cost,
        );
        layers.set(
            "campaign.plan_us",
            stats::time_median(11, || {
                std::hint::black_box(plan(&jobs, rates, &[0, 1]));
            }) * 1e6,
        );
        let busy: f64 = outs.iter().map(|o| o.thread_cpu_s).sum();
        layers.set(
            "campaign.rank_idle_share",
            1.0 - busy / (RANKS as f64 * wall_s),
        );
        let mlups = (points * JOB_CELLS.iter().product::<usize>() * steps) as f64 / wall_s / 1e6;
        layers.set(
            "campaign.slice_eff",
            mlups / (RANKS as f64 * alone_rate(&jobs[0], steps.min(200))),
        );
        layers.set("campaign.jobs_failed", jobs_failed as f64);
        let counters = telemetry.metrics_snapshot().counters;
        let ckpt_sets: u64 = counters
            .iter()
            .filter(|(name, _)| name.starts_with("campaign/job/") && name.ends_with("/checkpoints"))
            .map(|(_, n)| n)
            .sum();
        layers.set("campaign.ckpt_sets", ckpt_sets as f64);
        layers.set(
            "core.health.scans",
            (points * (steps / HEALTH_EVERY)) as f64,
        );
        layers.set("comm.failed", failed_comm as f64);
        layers.set(
            "comm.msgs_per_step",
            comm_summary.total.messages_sent as f64 / steps as f64,
        );
        layers.set(
            "comm.bytes_per_step",
            comm_summary.total.bytes_sent as f64 / steps as f64,
        );
        layers.set("obsv.frames", frames as f64);
        layers.set("obsv.bus_dropped", bus.stats().dropped as f64);
    }

    let mut finals = Vec::new();
    for out in &mut outs {
        if let Some(report) = &mut out.report {
            for local in std::mem::take(&mut report.local) {
                finals.push(Snapshot {
                    params: jobs[local.key as usize].params(),
                    time: local.time,
                    state: local.state,
                });
            }
        }
    }

    Leg {
        wall_s,
        cpu_s: outs[0].process_cpu_s,
        lups: (points * JOB_CELLS.iter().product::<usize>() * steps) as u64,
        ranks: RANKS,
        peak_rss_mb: outs[0].peak_rss_mb,
        digest,
        finals,
        checks,
        layers,
        spans,
    }
}
