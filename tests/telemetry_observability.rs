//! Integration: the telemetry subsystem observes without perturbing.
//!
//! * Instrumented runs (spans + step records + trace buffering) produce
//!   bit-identical fields to runs with telemetry disabled — extending the
//!   `overlap_equivalence` pattern to the observability axis.
//! * Cross-rank timing-tree reduction has a deterministic structure,
//!   independent of the rank count.
//! * The per-field ghost-exchange byte counters agree exactly with the
//!   wire forms the known state implies — a header per face, then the rows
//!   of its `ghost::send_region` below the sender's constant zone — and add
//!   up to the transport's totals.

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_blockgrid::field::SoaField;
use eutectica_blockgrid::ghost::{self, Region};
use eutectica_blockgrid::{Face, GridDims};
use eutectica_comm::{CommStats, Universe};
use eutectica_core::init;
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::state::{BlockState, PHI_LIQUID};
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

/// Height of the solid `run_traffic` initialises below
/// (`init::init_planar_front`).
const FRONT: usize = 3;

/// One rank's run of [`run_traffic`].
struct Traffic {
    after_init: CommStats,
    after_steps: CommStats,
    counters: BTreeMap<String, u64>,
    /// Per local block (global id): the first slab of its melt, found by
    /// scanning its φ_src after init (the field the refresh sent) and
    /// before each step.
    melt: Vec<(usize, [usize; STEPS + 1])>,
}

/// The lowest slab from which every cell of `phi` is melt, by a scan of
/// its contents (`tz` when its top slab is not).
fn melt_from(phi: &SoaField<N_PHASES>) -> usize {
    let d = phi.dims();
    let melt = |z| {
        (0..d.ty()).all(|y| {
            (0..d.tx()).all(|x| phi.cell(x, y, z).map(f64::to_bits) == PHI_LIQUID.map(f64::to_bits))
        })
    };
    (0..d.tz())
        .rev()
        .take_while(|&z| melt(z))
        .last()
        .unwrap_or(d.tz())
}

/// Each rank's comm totals after init and after `STEPS` steps of `spec`,
/// its telemetry counters at the end and where its blocks' melt started
/// before each exchange of φ.
fn run_traffic(n_ranks: usize, spec: DomainSpec, overlap: OverlapOptions) -> Vec<Traffic> {
    let params = ModelParams::ag_al_cu();
    Universe::run(n_ranks, move |rank| {
        let decomp = Decomposition::new(spec);
        let ids = decomp.blocks_of_rank(rank.rank(), n_ranks);
        let mut sim = DistributedSim::new(
            &rank,
            params.clone(),
            decomp,
            KernelConfig::default(),
            overlap,
        );
        let mut melt: Vec<_> = ids.iter().map(|&id| (id, [0; STEPS + 1])).collect();
        let mut record = |sim: &DistributedSim, k: usize| {
            for ((_, m), b) in melt.iter_mut().zip(&sim.blocks) {
                m[k] = melt_from(&b.phi_src);
            }
        };
        sim.init_blocks(|b| init::init_planar_front(b, 0, FRONT));
        record(&sim, 0);
        let after_init = rank.stats();
        for k in 1..=STEPS {
            record(&sim, k);
            sim.step();
        }
        Traffic {
            after_init,
            after_steps: rank.stats(),
            counters: sim.telemetry().metrics_snapshot().counters,
            melt,
        }
    })
}

/// Wire bytes of the face `r` of an `nc`-component field whose constant
/// zone starts at slab `zone_from`: a header of one u64 (the planes sent)
/// and one f64 per component, then 8 bytes per component for each cell of
/// `r` below the zone.
fn face_bytes(r: Region, nc: usize, zone_from: usize) -> u64 {
    let [z0, z1] = r.range[2];
    let planes = zone_from.clamp(z0, z1) - z0;
    let cells_per_plane = r.volume() / (z1 - z0);
    (8 * (1 + nc) + 8 * nc * planes * cells_per_plane) as u64
}

/// Where φ's constant zone starts when a block whose φ_src melt starts at
/// `melt` sends its `k`th φ exchange. 0: the refresh after init sends
/// φ_src, whose zone `init_planar_front` leaves at the melt. `k`: step `k`
/// sends φ_dst, which its φ sweep wrote up to one slab above the melt.
fn phi_zone(melt: usize, k: usize) -> usize {
    melt + (k > 0) as usize
}

/// Where µ's constant zone starts: µ = 0 everywhere until the first µ
/// sweep, which writes the whole block.
fn mu_zone(dims: GridDims, swept: bool) -> usize {
    if swept {
        dims.tz()
    } else {
        0
    }
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
/// physical boundary), so every exchanged field contributes two faces —
/// one message, as both go to the same peer. Both blocks hold the same
/// front, so each face weighs what [`face_bytes`] gives for the zone the
/// exchange finds.
#[test]
fn ghost_byte_counters_match_analytic_face_sizes() {
    let dims = GridDims::new(8, 8, 8, 1); // one block per rank
    let x_face = ghost::send_region(dims, Face::XLow);
    let mu = |swept| face_bytes(x_face, N_COMP, mu_zone(dims, swept));
    // µ is sent whole after its first sweep, and not at all before.
    assert_eq!(mu(false), 24);
    assert_eq!(
        mu(true),
        24 + ghost::message_bytes(dims, Face::XLow, N_COMP)
    );
    let steps = 1..=STEPS;
    let spec = DomainSpec::directional([16, 8, 8], [2, 1, 1]);

    // `[16,8,8]`'s two blocks are each other's mirror image: one melt
    // record serves both ends of a face.
    let melt_of = |runs: &[Traffic]| {
        let [(_, a)] = runs[0].melt[..] else {
            panic!("one block per rank")
        };
        assert_eq!(runs[1].melt[0].1, a, "the blocks' fronts differ");
        // The melt starts above the front slab, which the sweeps raise.
        assert_eq!(a[0], dims.ghost + FRONT);
        assert!(a[STEPS] > a[0], "the front never moved");
        a
    };

    // Default path: φ_dst and µ_dst exchanged sequenced every step.
    let runs = run_traffic(2, spec, OverlapOptions::default());
    let melt = melt_of(&runs);
    let phi = |k: usize| face_bytes(x_face, N_PHASES, phi_zone(melt[k], k));
    // The front's slabs are sent, the melt's are not.
    assert_eq!(phi(0), 40 + 3 * 8 * 4 * 8);
    for Traffic {
        after_init,
        after_steps,
        counters,
        ..
    } in &runs
    {
        // Init refreshes φ_src and µ_src once: two faces each.
        assert_eq!(after_init.bytes_sent, 2 * (phi(0) + mu(false)));
        assert_eq!(after_init.bytes_received, after_init.bytes_sent);
        // Each step sends two faces of φ_dst and µ_dst.
        let phi_steps: u64 = steps.clone().map(|k| 2 * phi(k)).sum();
        let mu_steps = STEPS as u64 * 2 * mu(true);
        assert_eq!(
            after_steps.bytes_sent - after_init.bytes_sent,
            phi_steps + mu_steps
        );
        assert_eq!(after_steps.messages_sent, 2 + STEPS as u64 * 2);
        assert_eq!(after_steps.bytes_received, after_steps.bytes_sent);
        // Per-field attribution.
        assert_eq!(field_bytes(counters, "phi_src", "sent"), 2 * phi(0));
        assert_eq!(field_bytes(counters, "mu_src", "sent"), 2 * mu(false));
        assert_eq!(field_bytes(counters, "phi_dst", "sent"), phi_steps);
        assert_eq!(field_bytes(counters, "mu_dst", "sent"), mu_steps);
    }

    // µ-hiding swaps the sequenced µ_dst exchange for a plain (face-only)
    // µ_src exchange at the start of the next step, whose first one still
    // finds µ = 0. For x faces the sequenced message has no
    // already-exchanged transverse axis, so both regions coincide; the
    // extended region is strictly larger only on y/z faces.
    assert_eq!(ghost::send_region_plain(dims, Face::XLow), x_face);
    assert!(
        ghost::message_bytes_plain(dims, Face::ZLow, N_COMP)
            < ghost::message_bytes(dims, Face::ZLow, N_COMP)
    );
    let hide_mu = OverlapOptions {
        hide_mu: true,
        hide_phi: false,
    };
    let runs = run_traffic(2, spec, hide_mu);
    let melt = melt_of(&runs);
    let phi = |k: usize| face_bytes(x_face, N_PHASES, phi_zone(melt[k], k));
    for Traffic {
        after_init,
        after_steps,
        counters,
        ..
    } in &runs
    {
        let phi_steps: u64 = steps.clone().map(|k| 2 * phi(k)).sum();
        let mu_steps: u64 = steps.clone().map(|k| 2 * mu(k > 1)).sum();
        assert_eq!(
            after_steps.bytes_sent - after_init.bytes_sent,
            phi_steps + mu_steps
        );
        assert_eq!(
            field_bytes(counters, "mu_src", "sent"),
            2 * mu(false) + mu_steps
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
/// before it, so sequenced and plain regions differ, and the front lies in
/// the lower blocks only: a z face between the two layers carries a lower
/// block's top slab, which is melt. Each per-field counter must equal the
/// sum of [`face_bytes`] over the rank's remote faces, each with the zone
/// its sending block holds, and the fields must add up to the transport's
/// totals: no collective in this run carries bytes.
#[test]
fn ghost_byte_counters_match_analytic_sums_on_y_and_z_faces() {
    let spec = DomainSpec::directional([16, 16, 16], [2, 2, 2]);
    let decomp = Decomposition::new(spec);
    let dims = decomp.block(0).dims(1);
    for n_ranks in [2, 4, 8] {
        for hide_mu in [false, true] {
            let overlap = OverlapOptions {
                hide_mu,
                hide_phi: false,
            };
            let runs = run_traffic(n_ranks, spec, overlap);
            let mut melt = vec![[0; STEPS + 1]; decomp.blocks().len()];
            for (id, m) in runs.iter().flat_map(|run| &run.melt) {
                melt[*id] = *m;
            }
            // `[sent, received]` bytes of one exchange over every remote
            // face of `rank`, with `nc` components, sequenced or plain
            // regions, when block `id` holds a zone from slab `zone(id)`.
            let remote = |rank: usize, nc: usize, plain: bool, zone: &dyn Fn(usize) -> usize| {
                let bytes = |id: usize, face| {
                    let r = if plain {
                        ghost::send_region_plain(dims, face)
                    } else {
                        ghost::send_region(dims, face)
                    };
                    face_bytes(r, nc, zone(id))
                };
                let mut sum = [0, 0];
                for id in decomp.blocks_of_rank(rank, n_ranks) {
                    for face in Face::ALL {
                        let Some(nb) = decomp.block(id).neighbors[face as usize] else {
                            continue;
                        };
                        if decomp.rank_of(nb, n_ranks) != rank {
                            sum[0] += bytes(id, face);
                            sum[1] += bytes(nb, face.opposite());
                        }
                    }
                }
                sum
            };
            let phi = |rank, k| remote(rank, N_PHASES, false, &|id| phi_zone(melt[id][k], k));
            let mu = |rank, plain, swept| remote(rank, N_COMP, plain, &|_| mu_zone(dims, swept));
            // Summed over the steps, `[sent, received]`.
            let over_steps = |f: &dyn Fn(usize) -> [u64; 2]| {
                (1..=STEPS).fold([0, 0], |acc, k| {
                    let b = f(k);
                    [acc[0] + b[0], acc[1] + b[1]]
                })
            };
            for (rank, run) in runs.iter().enumerate() {
                let full = mu(rank, false, true);
                assert!(
                    mu(rank, true, true)[0] < full[0],
                    "no remote y or z face on rank {rank}"
                );
                // Init refreshes φ_src and µ_src sequenced; each step moves
                // φ_dst sequenced and either µ_dst sequenced or µ_src plain.
                let want = |field: &str, d: usize| match (field, hide_mu) {
                    ("phi_src", _) => phi(rank, 0)[d],
                    ("phi_dst", _) => over_steps(&|k| phi(rank, k))[d],
                    ("mu_src", false) => mu(rank, false, false)[d],
                    ("mu_src", true) => {
                        mu(rank, false, false)[d] + over_steps(&|k| mu(rank, true, k > 1))[d]
                    }
                    ("mu_dst", false) => STEPS as u64 * full[d],
                    _ => 0,
                };
                for field in FIELDS {
                    for (d, dir) in ["sent", "received"].into_iter().enumerate() {
                        assert_eq!(
                            field_bytes(&run.counters, field, dir),
                            want(field, d),
                            "{n_ranks} ranks, rank {rank}, {overlap:?}: {field} bytes {dir}"
                        );
                    }
                }
                let total = |dir| -> u64 {
                    FIELDS
                        .iter()
                        .map(|field| field_bytes(&run.counters, field, dir))
                        .sum()
                };
                assert_eq!(total("sent"), run.after_steps.bytes_sent);
                assert_eq!(total("received"), run.after_steps.bytes_received);
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
