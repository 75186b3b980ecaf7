//! Integration: the telemetry subsystem observes without perturbing.
//!
//! * Instrumented runs (spans + step records + trace buffering) produce
//!   bit-identical fields to runs with telemetry disabled — extending the
//!   `overlap_equivalence` pattern to the observability axis.
//! * Cross-rank timing-tree reduction has a deterministic structure,
//!   independent of the rank count.
//! * The per-field ghost-exchange byte counters agree exactly with the
//!   analytic `ghost::send_region` face volumes × 8 bytes per f64, and add
//!   up to the transport's totals.

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_blockgrid::{ghost, Face, GridDims};
use eutectica_comm::{CommStats, Universe};
use eutectica_core::init;
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::{DistributedSim, OverlapOptions};
use eutectica_core::{N_COMP, N_PHASES};
use eutectica_telemetry::Telemetry;
use std::collections::BTreeMap;

const STEPS: usize = 3;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Mode {
    /// `Telemetry::disabled()` — every span a no-op.
    Disabled,
    /// Default enabled collector.
    Enabled,
    /// Enabled + Chrome-trace buffering + per-step records.
    TracedRecorded,
}

fn run_case(n_ranks: usize, overlap: OverlapOptions, mode: Mode) -> Vec<Vec<BlockState>> {
    let params = ModelParams::ag_al_cu();
    Universe::run(n_ranks, move |rank| {
        let decomp = Decomposition::new(DomainSpec::directional([16, 8, 8], [2, 1, 1]));
        let mut sim = DistributedSim::new(
            &rank,
            params.clone(),
            decomp,
            KernelConfig::default(),
            overlap,
        );
        match mode {
            Mode::Disabled => sim.set_telemetry(Telemetry::disabled()),
            Mode::Enabled => {}
            Mode::TracedRecorded => {
                let tel = Telemetry::new(rank.rank());
                tel.enable_trace();
                sim.set_telemetry(tel);
                sim.record_steps(true);
            }
        }
        sim.init_blocks(|b| {
            let seeds = init::VoronoiSeeds::generate([8, 8], 3, [0.34, 0.33, 0.33], 7);
            init::init_directional_block(b, &seeds, 3);
        });
        sim.step_n(STEPS);
        std::mem::take(&mut sim.blocks)
    })
}

/// Instrumentation must be numerically inert: identical bits either way.
#[test]
fn telemetry_is_numerically_inert() {
    for overlap in [
        OverlapOptions::default(),
        OverlapOptions {
            hide_mu: true,
            hide_phi: true,
        },
    ] {
        let base = run_case(2, overlap, Mode::Disabled);
        for mode in [Mode::Enabled, Mode::TracedRecorded] {
            let run = run_case(2, overlap, mode);
            for (r, blocks) in run.iter().enumerate() {
                for (bi, b) in blocks.iter().enumerate() {
                    let a = &base[r][bi];
                    for c in 0..N_PHASES {
                        assert_eq!(
                            a.phi_src.comp(c),
                            b.phi_src.comp(c),
                            "{mode:?} {overlap:?} phi[{c}] rank {r} differs"
                        );
                    }
                    for c in 0..N_COMP {
                        assert_eq!(
                            a.mu_src.comp(c),
                            b.mu_src.comp(c),
                            "{mode:?} {overlap:?} mu[{c}] rank {r} differs"
                        );
                    }
                }
            }
        }
    }
}

fn reduced_structure(n_ranks: usize) -> Vec<(String, u64)> {
    let params = ModelParams::ag_al_cu();
    let out = Universe::run(n_ranks, move |rank| {
        let decomp = Decomposition::new(DomainSpec::directional([16, 16, 8], [2, 2, 1]));
        let mut sim = DistributedSim::new(
            &rank,
            params.clone(),
            decomp,
            KernelConfig::default(),
            OverlapOptions::default(),
        );
        sim.init_blocks(|b| init::init_planar_front(b, 0, 3));
        sim.step_n(STEPS);
        rank.reduce_timing(&sim.telemetry().tree_snapshot())
    });
    out[0]
        .as_ref()
        .expect("rank 0 holds the reduction")
        .rows
        .iter()
        .map(|r| (r.path.clone(), r.count))
        .collect()
}

/// The reduced tree's shape (paths and call counts) must not depend on how
/// many ranks the same domain is spread over, and must be reproducible.
#[test]
fn reduction_structure_is_deterministic_across_rank_counts() {
    let one = reduced_structure(1);
    let four = reduced_structure(4);
    assert_eq!(one, four, "tree structure changed with rank count");
    assert_eq!(four, reduced_structure(4), "reduction not reproducible");
    // Sanity: the spans threaded through step() are all present.
    let paths: Vec<&str> = one.iter().map(|(p, _)| p.as_str()).collect();
    for expected in [
        "refresh_src_ghosts",
        "step",
        "step/phi_sweep",
        "step/phi_comm",
        "step/mu_sweep",
        "step/mu_comm",
        "step/bc",
    ] {
        assert!(
            paths.contains(&expected),
            "missing node {expected}: {paths:?}"
        );
    }
    // Call counts reflect the step loop: one φ-sweep per step, two BC
    // applications per step (φ_dst and µ_dst).
    let count = |p: &str| one.iter().find(|(q, _)| q == p).unwrap().1;
    assert_eq!(count("step"), STEPS as u64);
    assert_eq!(count("step/phi_sweep"), STEPS as u64);
    assert_eq!(count("step/bc"), 2 * STEPS as u64);
}

/// Each rank's comm totals after init and after `STEPS` steps of `spec`,
/// and its telemetry counters at the end.
fn run_traffic(
    n_ranks: usize,
    spec: DomainSpec,
    overlap: OverlapOptions,
) -> Vec<(CommStats, CommStats, BTreeMap<String, u64>)> {
    let params = ModelParams::ag_al_cu();
    Universe::run(n_ranks, move |rank| {
        let mut sim = DistributedSim::new(
            &rank,
            params.clone(),
            Decomposition::new(spec),
            KernelConfig::default(),
            overlap,
        );
        sim.init_blocks(|b| init::init_planar_front(b, 0, 3));
        let after_init = rank.stats();
        sim.step_n(STEPS);
        let counters = sim.telemetry().metrics_snapshot().counters;
        (after_init, rank.stats(), counters)
    })
}

/// The per-field ghost byte counter `comm/<field>/bytes_<dir>`; 0 when the
/// field never moved a byte.
fn field_bytes(counters: &BTreeMap<String, u64>, field: &str, dir: &str) -> u64 {
    counters
        .get(&format!("comm/{field}/bytes_{dir}"))
        .copied()
        .unwrap_or(0)
}

const FIELDS: [&str; 4] = ["phi_src", "phi_dst", "mu_src", "mu_dst"];

/// One rank's traffic for `[16,8,8]` split `[2,1,1]`: only the two x faces
/// cross the rank boundary (y is periodic onto the same block, z is a
/// physical boundary), so every exchanged field contributes two faces of the
/// analytic `send_region` volume — one message, as both go to the same peer.
#[test]
fn ghost_byte_counters_match_analytic_face_sizes() {
    let dims = GridDims::new(8, 8, 8, 1); // one block per rank
    let phi_msg = ghost::message_bytes(dims, Face::XLow, N_PHASES);
    let mu_msg = ghost::message_bytes(dims, Face::XLow, N_COMP);
    let mu_msg_plain = ghost::message_bytes_plain(dims, Face::XLow, N_COMP);
    assert_eq!(phi_msg, ghost::message_bytes(dims, Face::XHigh, N_PHASES));
    let spec = DomainSpec::directional([16, 8, 8], [2, 1, 1]);

    // Default path: φ_dst and µ_dst exchanged sequenced every step.
    for (after_init, after_steps, counters) in run_traffic(2, spec, OverlapOptions::default()) {
        // Init refreshes φ_src and µ_src once: two faces each.
        assert_eq!(after_init.bytes_sent, 2 * (phi_msg + mu_msg));
        assert_eq!(after_init.bytes_received, 2 * (phi_msg + mu_msg));
        // Each step sends two faces of φ_dst and µ_dst.
        let per_step = 2 * (phi_msg + mu_msg);
        assert_eq!(
            after_steps.bytes_sent - after_init.bytes_sent,
            STEPS as u64 * per_step
        );
        assert_eq!(after_steps.messages_sent, 2 + STEPS as u64 * 2);
        assert_eq!(after_steps.bytes_received, after_steps.bytes_sent);
        // Per-field attribution.
        assert_eq!(field_bytes(&counters, "phi_src", "sent"), 2 * phi_msg);
        assert_eq!(field_bytes(&counters, "mu_src", "sent"), 2 * mu_msg);
        assert_eq!(
            field_bytes(&counters, "phi_dst", "sent"),
            STEPS as u64 * 2 * phi_msg
        );
        assert_eq!(
            field_bytes(&counters, "mu_dst", "sent"),
            STEPS as u64 * 2 * mu_msg
        );
    }

    // µ-hiding swaps the sequenced µ_dst exchange for a plain (face-only)
    // µ_src exchange. For x faces the sequenced message has no
    // already-exchanged transverse axis, so both regions coincide; the
    // extended region is strictly larger only on y/z faces.
    assert_eq!(mu_msg_plain, mu_msg);
    assert!(
        ghost::message_bytes_plain(dims, Face::ZLow, N_COMP)
            < ghost::message_bytes(dims, Face::ZLow, N_COMP)
    );
    let hide_mu = OverlapOptions {
        hide_mu: true,
        hide_phi: false,
    };
    for (after_init, after_steps, counters) in run_traffic(2, spec, hide_mu) {
        let per_step = 2 * (phi_msg + mu_msg_plain);
        assert_eq!(
            after_steps.bytes_sent - after_init.bytes_sent,
            STEPS as u64 * per_step
        );
        assert_eq!(
            field_bytes(&counters, "mu_src", "sent"),
            2 * mu_msg + STEPS as u64 * 2 * mu_msg_plain
        );
        assert!(
            !counters.contains_key("comm/mu_dst/bytes_sent"),
            "mu_dst exchange should be deferred"
        );
    }
}

/// Remote faces on the y and z axes: `[16,16,16]` in `[2,2,2]` blocks puts
/// the y faces across the rank boundary on 2 ranks (each rank owns two
/// z-columns), the x and y faces on 4 (one column each) and all faces on 8.
/// There a sequenced message also carries the ghosts of the axes exchanged
/// before it, so sequenced and plain regions differ. Each
/// per-field counter must equal the analytic sum over the rank's remote
/// faces, and the fields must add up to the transport's totals: no
/// collective in this run carries bytes.
#[test]
fn ghost_byte_counters_match_analytic_sums_on_y_and_z_faces() {
    let spec = DomainSpec::directional([16, 16, 16], [2, 2, 2]);
    let decomp = Decomposition::new(spec);
    let dims = decomp.block(0).dims(1);
    let steps = STEPS as u64;
    for n_ranks in [2, 4, 8] {
        // `[sent, received]` bytes of one exchange over every remote face
        // of `rank`, with `nc` components, sequenced or plain regions.
        let remote = |rank: usize, nc: usize, plain: bool| -> [u64; 2] {
            let bytes = |face| {
                if plain {
                    ghost::message_bytes_plain(dims, face, nc)
                } else {
                    ghost::message_bytes(dims, face, nc)
                }
            };
            let mut sum = [0, 0];
            for id in decomp.blocks_of_rank(rank, n_ranks) {
                for face in Face::ALL {
                    let Some(nb) = decomp.block(id).neighbors[face as usize] else {
                        continue;
                    };
                    if decomp.rank_of(nb, n_ranks) != rank {
                        sum[0] += bytes(face);
                        sum[1] += bytes(face.opposite());
                    }
                }
            }
            sum
        };
        for hide_mu in [false, true] {
            let overlap = OverlapOptions {
                hide_mu,
                hide_phi: false,
            };
            for (rank, (_, after_steps, counters)) in
                run_traffic(n_ranks, spec, overlap).iter().enumerate()
            {
                let phi = remote(rank, N_PHASES, false);
                let mu = remote(rank, N_COMP, false);
                let mu_plain = remote(rank, N_COMP, true);
                assert!(mu_plain[0] < mu[0], "no remote y or z face on rank {rank}");
                // Init refreshes φ_src and µ_src sequenced; each step moves
                // φ_dst sequenced and either µ_dst sequenced or µ_src plain.
                let want = |field: &str, d: usize| match (field, hide_mu) {
                    ("phi_src", _) => phi[d],
                    ("phi_dst", _) => steps * phi[d],
                    ("mu_src", false) => mu[d],
                    ("mu_src", true) => mu[d] + steps * mu_plain[d],
                    ("mu_dst", false) => steps * mu[d],
                    _ => 0,
                };
                for field in FIELDS {
                    for (d, dir) in ["sent", "received"].into_iter().enumerate() {
                        assert_eq!(
                            field_bytes(counters, field, dir),
                            want(field, d),
                            "{n_ranks} ranks, rank {rank}, {overlap:?}: {field} bytes {dir}"
                        );
                    }
                }
                let total = |dir| -> u64 {
                    FIELDS
                        .iter()
                        .map(|field| field_bytes(counters, field, dir))
                        .sum()
                };
                assert_eq!(total("sent"), after_steps.bytes_sent);
                assert_eq!(total("received"), after_steps.bytes_received);
            }
        }
    }
}

/// Step records and trace events are captured per rank and step.
#[test]
fn step_records_and_trace_events_are_complete() {
    let params = ModelParams::ag_al_cu();
    let out = Universe::run(2, move |rank| {
        let decomp = Decomposition::new(DomainSpec::directional([16, 8, 8], [2, 1, 1]));
        let mut sim = DistributedSim::new(
            &rank,
            params.clone(),
            decomp,
            KernelConfig::default(),
            OverlapOptions::default(),
        );
        let tel = Telemetry::new(rank.rank());
        tel.enable_trace();
        sim.set_telemetry(tel.clone());
        sim.record_steps(true);
        sim.init_blocks(|b| init::init_planar_front(b, 0, 3));
        sim.step_n(STEPS);
        (
            sim.take_step_records(),
            tel.take_trace(),
            tel.metrics_snapshot(),
        )
    });
    for (r, (records, trace, metrics)) in out.iter().enumerate() {
        assert_eq!(records.len(), STEPS);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.rank, r);
            assert_eq!(rec.step, i);
            assert_eq!(rec.cells_updated, 8 * 8 * 8);
            assert!(rec.wall_ms > 0.0 && rec.mlups > 0.0);
            // The JSONL line carries every schema field.
            let line = rec.to_json();
            for key in [
                "mlups",
                "ghost_bytes_sent",
                "recv_wait_hist_ns",
                "window_shifts",
            ] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
        }
        assert!(trace.iter().any(|e| e.cat == "compute"));
        assert!(trace.iter().any(|e| e.cat == "comm"));
        // Serial run: every event sits on the rank thread's lane 0.
        assert!(trace
            .iter()
            .all(|e| e.tid == eutectica_telemetry::lane_tid(r, 0)));
        // The registry bridged the comm counters.
        assert!(metrics.counters["comm/bytes_sent"] > 0);
        assert_eq!(
            metrics.counters["cells_updated"],
            (STEPS * 8 * 8 * 8) as u64
        );
        assert!(metrics.histograms["comm/recv_wait_ns"].count() > 0);
    }
}
