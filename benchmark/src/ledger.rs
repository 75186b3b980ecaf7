//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo root is
//! generated from these tables (`perf_ledger manifest`), so the file and the
//! program cannot drift apart.

use std::collections::BTreeMap;

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// The driver's command up to the flags it appends itself.
pub const COMMAND: [&str; 11] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "perf_ledger",
    "--",
    "one",
];

/// Workload name and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "solidify_1block",
        "plain 1-thread baseline, 48x48x64 + moving window: kernels are >= 85 % of wall, comm/ghost/pfio/obsv do nothing, so kernel work shows here and exchange work must not",
    ),
    (
        "exchange_smallblocks",
        "2 ranks, 32 blocks of 16^3, hide_mu, fixed frame: highest surface-to-volume and message count, so ghost pack -> comm -> unpack, boundaries and per-block overhead weigh most, kernels least",
    ),
    (
        "ops_bigblocks",
        "2 ranks, 2 big blocks, window, telemetry + health + rebalance + observer + checkpoints + restore: light exchange, so the operational layers and collectives are what differs",
    ),
    (
        "campaign_32pt",
        "32 jobs of 24^3 co-scheduled on 2 ranks with per-job checkpoints: same kernels on small L2-resident blocks switched round-robin, plus campaign sched/runner and pfio::jobs",
    ),
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metric: name, unit, direction, regression bound (share of the
/// parent's median). Always measured with tracing off. The fifth end-to-end
/// quantity, `fail_share`, is carried by the `failed`/`attempted` keys of a
/// run's result line (it is 0 on a healthy tree, which the driver's metric
/// list does not allow). The bounds are three times the largest
/// interquartile spread seen over ten seeds on the 2-vCPU reference box (a
/// shared host: the same seed reads 16.1 to 18.4 MLUP/s minutes apart), as
/// `out/selfcheck.txt` records, capped at the driver's 0.25.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("mlups", "MLUP/s", Higher, 0.25),
    ("cpu_ns_per_lup", "ns/LUP", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.15),
    ("setup_s", "s", Lower, 0.25),
];

/// Per-layer metric: name (prefix = module), unit, direction. Measured in the
/// traced run only; a layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, Better); 84] = [
    // core::kernels — probes on the workload's own final blocks, then on
    // the 40^3 region scenarios, then computed counts and the machine bound.
    ("core.kernels.phi_mlups", "MLUP/s", Higher),
    ("core.kernels.mu_mlups", "MLUP/s", Higher),
    ("core.kernels.phi_mlups.interface", "MLUP/s", Higher),
    ("core.kernels.phi_mlups.liquid", "MLUP/s", Higher),
    ("core.kernels.phi_mlups.solid", "MLUP/s", Higher),
    ("core.kernels.mu_mlups.interface", "MLUP/s", Higher),
    ("core.kernels.mu_mlups.liquid", "MLUP/s", Higher),
    ("core.kernels.mu_mlups.solid", "MLUP/s", Higher),
    ("core.kernels.phi_flop_per_cell", "FLOP/LUP", Lower),
    ("core.kernels.mu_flop_per_cell", "FLOP/LUP", Lower),
    ("core.kernels.phi_bytes_per_cell", "B/LUP", Lower),
    ("core.kernels.mu_bytes_per_cell", "B/LUP", Lower),
    ("core.kernels.mu_gflops", "GFLOP/s", Higher),
    ("core.kernels.mu_peak_frac", "ratio", Higher),
    ("core.kernels.step_bound_mlups", "MLUP/s", Higher),
    // core::solver — bench-driven replay of Algorithm 1, a span per call.
    ("core.solver.phi_share", "share", Higher),
    ("core.solver.mu_share", "share", Higher),
    ("core.solver.bc_share", "share", Lower),
    ("core.solver.window_share", "share", Lower),
    ("core.solver.residual_share", "share", Lower),
    ("core.solver.step_p50_ms", "ms", Lower),
    ("core.solver.step_p99_ms", "ms", Lower),
    ("core.solver.window_shifts", "count", Higher),
    // core::timeloop — span per step() plus the public StepTimings.
    ("core.timeloop.step_p50_ms", "ms", Lower),
    ("core.timeloop.step_p99_ms", "ms", Lower),
    ("core.timeloop.compute_share", "share", Higher),
    ("core.timeloop.phi_comm_share", "share", Lower),
    ("core.timeloop.mu_comm_share", "share", Lower),
    ("core.timeloop.bc_share", "share", Lower),
    ("core.timeloop.ghost_refresh_share", "share", Lower),
    ("core.timeloop.residual_share", "share", Lower),
    ("core.timeloop.rank_imbalance", "ratio", Lower),
    ("core.timeloop.kernel_eff", "ratio", Higher),
    // blockgrid
    ("blockgrid.ghost.pack_gb_s", "GB/s", Higher),
    ("blockgrid.ghost.unpack_gb_s", "GB/s", Higher),
    ("blockgrid.ghost.bytes_per_step", "B", Lower),
    ("blockgrid.ghost.pack_unpack_ms_per_step", "ms", Lower),
    ("blockgrid.boundary.apply_us", "us", Lower),
    ("blockgrid.codec.encode_gb_s", "GB/s", Higher),
    ("blockgrid.codec.decode_gb_s", "GB/s", Higher),
    ("blockgrid.rebalance.epochs", "count", Lower),
    ("blockgrid.rebalance.blocks_moved", "count", Lower),
    // comm
    ("comm.bytes_per_step", "B", Lower),
    ("comm.msgs_per_step", "count", Lower),
    ("comm.exchange_mb_s", "MB/s", Higher),
    ("comm.recv_wait_share", "share", Lower),
    ("comm.pingpong_us", "us", Lower),
    ("comm.pingpong_gb_s", "GB/s", Higher),
    ("comm.allreduce_us", "us", Lower),
    ("comm.barrier_us", "us", Lower),
    ("comm.failed", "count", Lower),
    // core::health
    ("core.health.scan_mlups", "MLUP/s", Higher),
    ("core.health.scan_share", "share", Lower),
    ("core.health.scans", "count", Lower),
    ("core.health.violations", "count", Lower),
    // pfio::ckpt
    ("pfio.ckpt.write_ms_p50", "ms", Lower),
    ("pfio.ckpt.write_mb_s", "MB/s", Higher),
    ("pfio.ckpt.bytes_per_set", "B", Lower),
    ("pfio.ckpt.encode_gb_s", "GB/s", Higher),
    ("pfio.ckpt.decode_gb_s", "GB/s", Higher),
    ("pfio.ckpt.restore_ms", "ms", Lower),
    ("pfio.ckpt.share", "share", Lower),
    ("pfio.ckpt.retries", "count", Lower),
    // obsv
    ("obsv.observe_ms_p50", "ms", Lower),
    ("obsv.observe_share", "share", Lower),
    ("obsv.frames", "count", Higher),
    ("obsv.bus_dropped", "count", Lower),
    // campaign
    ("campaign.points_per_hour", "points/h", Higher),
    ("campaign.rounds", "count", Lower),
    ("campaign.sched_imbalance", "ratio", Lower),
    ("campaign.plan_us", "us", Lower),
    ("campaign.rank_idle_share", "share", Lower),
    ("campaign.slice_eff", "ratio", Higher),
    ("campaign.jobs_failed", "count", Lower),
    ("campaign.ckpt_sets", "count", Lower),
    // mesh / analysis — finalisation of solidify_1block, outside the
    // timed region.
    ("mesh.extract_reduce_ms", "ms", Lower),
    ("mesh.triangles", "count", Lower),
    ("analysis.census_ms", "ms", Lower),
    ("analysis.correlation_ms", "ms", Lower),
    // perfmodel — the machine, measured in the same run.
    ("perfmodel.peak_gflops", "GFLOP/s", Higher),
    ("perfmodel.stream_gb_s", "GB/s", Higher),
    ("perfmodel.mu_model_mlups", "MLUP/s", Higher),
    ("perfmodel.mu_model_frac", "ratio", Higher),
    // the cost of tracing itself
    ("trace.overhead_pct", "%", Lower),
];

/// Layer values gathered by a traced run, keyed by `PER_LAYER` name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record a value; the name must be one of `PER_LAYER`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Correctness checks and driver operations of one run, counted into
/// `fail_share = failed / attempted`.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub log: Vec<String>,
}

impl Checks {
    /// One correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        let verdict = if ok { "ok  " } else { "FAIL" };
        self.log.push(format!("{verdict} {name}: {detail}"));
    }

    /// `n` operations the driver asked of the program, `failed` of which
    /// did not succeed.
    pub fn operations(&mut self, name: &str, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.log
                .push(format!("FAIL {name}: {failed} of {n} failed"));
        }
    }
}

/// A float as a JSON number with all its digits (non-finite becomes 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line of one run: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(checks: &Checks, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(",")
    )
}

/// Read `"name":{"value":X` back out of a [`result_line`].
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// Read a top-level integer field (`attempted`, `failed`) of a result line.
pub fn count_in(line: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|(n, why)| format!("{{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!(
                "{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\", \"bound\": {bound}}}",
                b.word()
            )
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!(
                "{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\"}}",
                b.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        list(workloads),
        list(e2e),
        list(layers)
    )
}
