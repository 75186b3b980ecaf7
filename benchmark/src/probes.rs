//! Layer probes of the traced run: the median of at least 11 timed calls to
//! a layer's public function, single thread, on block snapshots taken from
//! the workload's own final state.

use bytes::Bytes;
use eutectica_blockgrid::codec::{decode_soa, encode_soa, DEFAULT_FIELD_BYTE_BUDGET};
use eutectica_blockgrid::{ghost, Face, GridDims};
use eutectica_comm::{ReduceOp, Universe};
use eutectica_core::health::{scan_block, HealthConfig};
use eutectica_core::kernels::{mu_sweep, phi_sweep, KernelConfig, MuPart};
use eutectica_core::metrics::{
    mu_bytes_per_cell, mu_flops_per_cell, phi_bytes_per_cell, phi_flops_per_cell,
};
use eutectica_core::regions::{build_scenario, Scenario};
use eutectica_core::N_PHASES;
use eutectica_perfmodel::roofline::{measure_peak_flops, measure_stream_bandwidth};
use eutectica_pfio::ckpt::{self, Precision, DEFAULT_BYTE_BUDGET};

use crate::common::{self, Snapshot};
use crate::ledger::Layers;
use crate::stats::{median, time_median};
use crate::sys;

const REPS: usize = 11;
/// Round trips / collectives per comm probe.
const COMM_REPS: usize = 400;
/// Bytes of the three arrays `measure_stream_bandwidth` streams over.
const STREAM_ARRAY_BYTES: u64 = 3 * (64 << 20);

/// φ and µ MLUP/s over all of `blocks`: total cells over the sum of the
/// per-block median sweep times.
fn kernel_rates(blocks: &mut [Snapshot]) -> (f64, f64) {
    let cfg = KernelConfig::default();
    let (mut cells, mut phi_s, mut mu_s) = (0usize, 0.0, 0.0);
    for s in blocks {
        cells += s.state.dims.interior_volume();
        phi_s += time_median(REPS, || phi_sweep(&s.params, &mut s.state, s.time, cfg));
        // φ_dst now holds one real φ step, so µ's source terms are exercised.
        mu_s += time_median(REPS, || {
            mu_sweep(&s.params, &mut s.state, s.time, cfg, MuPart::Full)
        });
    }
    (cells as f64 / phi_s / 1e6, cells as f64 / mu_s / 1e6)
}

/// Kernel rates on the workload's final blocks and on the three 40³ region
/// scenarios of Sec. 5.1, the counted FLOP and computed bytes per cell, and
/// the machine probes next to them.
pub fn kernels_and_machine(layers: &mut Layers, finals: &mut [Snapshot]) {
    let (phi, mu) = kernel_rates(finals);
    layers.set("core.kernels.phi_mlups", phi);
    layers.set("core.kernels.mu_mlups", mu);
    layers.set(
        "core.kernels.step_bound_mlups",
        1.0 / (1.0 / phi + 1.0 / mu),
    );

    let mut mu_interface = 0.0;
    for (scenario, phi_name, mu_name) in [
        (
            Scenario::Interface,
            "core.kernels.phi_mlups.interface",
            "core.kernels.mu_mlups.interface",
        ),
        (
            Scenario::Liquid,
            "core.kernels.phi_mlups.liquid",
            "core.kernels.mu_mlups.liquid",
        ),
        (
            Scenario::Solid,
            "core.kernels.phi_mlups.solid",
            "core.kernels.mu_mlups.solid",
        ),
    ] {
        let mut block = [Snapshot {
            params: common::params(),
            time: 0.0,
            state: build_scenario(scenario, GridDims::cube(40)),
        }];
        let (phi, mu) = kernel_rates(&mut block);
        layers.set(phi_name, phi);
        layers.set(mu_name, mu);
        if scenario == Scenario::Interface {
            mu_interface = mu;
        }
    }

    let params = common::params();
    let (phi_flop, mu_flop) = (
        phi_flops_per_cell(&params).total() as f64,
        mu_flops_per_cell(&params).total() as f64,
    );
    layers.set("core.kernels.phi_flop_per_cell", phi_flop);
    layers.set("core.kernels.mu_flop_per_cell", mu_flop);
    layers.set(
        "core.kernels.phi_bytes_per_cell",
        phi_bytes_per_cell() as f64,
    );
    layers.set("core.kernels.mu_bytes_per_cell", mu_bytes_per_cell() as f64);

    // The machine, measured in this same run. The STREAM arrays of
    // `measure_stream_bandwidth` are fixed at 3 × 64 MiB; on a box whose
    // last-level cache holds a good part of them the number is a cache
    // bandwidth, so no bandwidth ratio is derived from it.
    let peak = measure_peak_flops();
    let stream = measure_stream_bandwidth();
    let llc = sys::llc_bytes();
    let stream_in_llc = llc.is_none_or(|llc| STREAM_ARRAY_BYTES < 4 * llc);
    let mu_gflops = mu_interface * 1e6 * mu_flop / 1e9;
    let compute_bound = peak / mu_flop / 1e6;
    let model = if stream_in_llc {
        compute_bound
    } else {
        compute_bound.min(stream / mu_bytes_per_cell() as f64 / 1e6)
    };
    layers.set("perfmodel.peak_gflops", peak / 1e9);
    layers.set("perfmodel.stream_gb_s", stream / 1e9);
    layers.set("perfmodel.mu_model_mlups", model);
    layers.set("perfmodel.mu_model_frac", mu_interface / model);
    layers.set("core.kernels.mu_gflops", mu_gflops);
    layers.set("core.kernels.mu_peak_frac", mu_gflops * 1e9 / peak);
    println!(
        "machine: {} logical CPUs; LLC {}; STREAM arrays {} MiB -> stream_in_llc={stream_in_llc}; \
         mu-kernel {:.2} FLOP/B (computed), {mu_gflops:.2} GFLOP/s of {:.2} GFLOP/s peak{}",
        sys::nproc(),
        llc.map_or("unknown".into(), |b| format!("{} MiB", b >> 20)),
        STREAM_ARRAY_BYTES >> 20,
        mu_flop / mu_bytes_per_cell() as f64,
        peak / 1e9,
        if stream_in_llc {
            "; bandwidth ratio omitted"
        } else {
            ""
        },
    );
}

/// Ghost pack/unpack, boundary handling, field codec, health scan and
/// checkpoint codec on one block of the workload.
pub fn block_layers(layers: &mut Layers, snapshot: &Snapshot) {
    let mut s = snapshot.state.clone();
    let gb_s = |bytes: usize, secs: f64| bytes as f64 / secs / 1e9;

    // All six faces of φ and µ, as the exchange packs them.
    let mut buf = Vec::new();
    let mut packed_bytes = 0;
    let pack_s = time_median(REPS, || {
        packed_bytes = 0;
        for face in Face::ALL {
            ghost::pack(&s.phi_src, face, &mut buf);
            packed_bytes += buf.len() * 8;
            ghost::pack(&s.mu_src, face, &mut buf);
            packed_bytes += buf.len() * 8;
        }
    });
    let messages: Vec<(Face, Vec<f64>, Vec<f64>)> = Face::ALL
        .iter()
        .map(|&face| {
            let (mut phi, mut mu) = (Vec::new(), Vec::new());
            ghost::pack(&s.phi_src, face, &mut phi);
            ghost::pack(&s.mu_src, face, &mut mu);
            (face, phi, mu)
        })
        .collect();
    let unpack_s = time_median(REPS, || {
        for (face, phi, mu) in &messages {
            ghost::unpack(&mut s.phi_dst, face.opposite(), phi);
            ghost::unpack(&mut s.mu_dst, face.opposite(), mu);
        }
    });
    layers.set("blockgrid.ghost.pack_gb_s", gb_s(packed_bytes, pack_s));
    layers.set("blockgrid.ghost.unpack_gb_s", gb_s(packed_bytes, unpack_s));
    let per_step = layers.get("blockgrid.ghost.bytes_per_step");
    layers.set(
        "blockgrid.ghost.pack_unpack_ms_per_step",
        per_step * (pack_s + unpack_s) / packed_bytes as f64 * 1e3,
    );

    let bc_s = time_median(REPS, || {
        s.bc_phi.apply(&mut s.phi_dst);
        s.bc_mu.apply(&mut s.mu_dst);
    });
    layers.set("blockgrid.boundary.apply_us", bc_s * 1e6);

    let mut encoded = Vec::new();
    let encode_s = time_median(REPS, || encoded = encode_soa(&s.phi_src));
    let decode_s = time_median(REPS, || {
        std::hint::black_box(
            decode_soa::<N_PHASES>(&encoded, DEFAULT_FIELD_BYTE_BUDGET)
                .expect("own encoding decodes"),
        );
    });
    layers.set("blockgrid.codec.encode_gb_s", gb_s(encoded.len(), encode_s));
    layers.set("blockgrid.codec.decode_gb_s", gb_s(encoded.len(), decode_s));

    let health = HealthConfig::for_params(&snapshot.params);
    let scan_s = time_median(REPS, || {
        std::hint::black_box(scan_block(&s, &health, 0));
    });
    layers.set(
        "core.health.scan_mlups",
        s.dims.interior_volume() as f64 / scan_s / 1e6,
    );

    let mut file = Vec::new();
    let encode_s = time_median(REPS, || {
        file = ckpt::encode_block(&s, 0, snapshot.time, Precision::F64)
    });
    let decode_s = time_median(REPS, || {
        std::hint::black_box(
            ckpt::decode_block(&file, DEFAULT_BYTE_BUDGET).expect("own block file decodes"),
        );
    });
    layers.set("pfio.ckpt.encode_gb_s", gb_s(file.len(), encode_s));
    layers.set("pfio.ckpt.decode_gb_s", gb_s(file.len(), decode_s));
}

/// Two-rank comm probes: ping-pong at the workload's message size, then
/// allreduce and barrier latency.
pub fn comm_layers(layers: &mut Layers, message_bytes: usize) {
    let payload = Bytes::from(vec![0u8; message_bytes]);
    let out = Universe::run(2, move |rank| {
        let peer = 1 - rank.rank();
        let mut round_trips = Vec::with_capacity(COMM_REPS);
        for i in 0..COMM_REPS {
            let t = std::time::Instant::now();
            if rank.rank() == 0 {
                rank.send(peer, i as u32, payload.clone());
                std::hint::black_box(rank.recv(peer, i as u32));
            } else {
                std::hint::black_box(rank.recv(peer, i as u32));
                rank.send(peer, i as u32, payload.clone());
            }
            round_trips.push(t.elapsed().as_secs_f64());
        }
        let timed = |f: &dyn Fn()| {
            let samples: Vec<f64> = (0..COMM_REPS)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&samples)
        };
        let allreduce = timed(&|| {
            std::hint::black_box(rank.allreduce_f64(1.0, ReduceOp::Sum));
        });
        let barrier = timed(&|| rank.barrier());
        (median(&round_trips), allreduce, barrier)
    });
    let one_way = out[0].0 / 2.0;
    layers.set("comm.pingpong_us", one_way * 1e6);
    layers.set("comm.pingpong_gb_s", message_bytes as f64 / one_way / 1e9);
    layers.set("comm.allreduce_us", out[0].1 * 1e6);
    layers.set("comm.barrier_us", out[0].2 * 1e6);
}
