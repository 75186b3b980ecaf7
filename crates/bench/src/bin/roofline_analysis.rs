//! The in-text single-core performance analysis of Sec. 5.1.1:
//! STREAM bandwidth, FLOPs and bytes per cell update, the roofline bound
//! (the paper's "80 GiB/s : 680 B/LUP = 126.3 MLUP/s"), the measured
//! MLUP/s and fraction of peak, and the IACA-style in-core ceiling.

use eutectica_bench::{f2, mu_mlups, phi_mlups, PhiRate, ResultTable};
use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::OptLevel;
use eutectica_core::metrics::{
    mu_bytes_per_cell, mu_flops_per_cell, phi_bytes_per_cell, phi_flops_per_cell,
};
use eutectica_core::params::ModelParams;
use eutectica_core::regions::Scenario;
use eutectica_perfmodel::incore::{analyze as incore, CoreModel};
use eutectica_perfmodel::roofline::{
    analyze, fraction_of_peak, measure_peak_flops, measure_stream_bandwidth, MachineRates,
};

fn main() {
    let params = ModelParams::ag_al_cu();
    println!("Sec. 5.1.1 in-text analysis — roofline and in-core bounds");
    println!();

    // Machine probes.
    let bw = measure_stream_bandwidth();
    let peak = measure_peak_flops();
    println!(
        "measured STREAM bandwidth : {:8.2} GiB/s   (paper: ~80 GiB/s/node)",
        bw / (1u64 << 30) as f64
    );
    println!(
        "measured peak FLOP rate   : {:8.2} GFLOP/s (paper: 21.6 GFLOP/s/core)",
        peak / 1e9
    );
    println!();
    let rates = MachineRates {
        bandwidth: bw,
        peak_flops: peak,
    };

    // Exact per-cell operation counts from the instrumented reference kernel
    // (temperature-dependent coefficients amortized per slice, as in the
    // optimized kernels the paper counts).
    let mu_flops = mu_flops_per_cell(&params);
    let phi_flops = phi_flops_per_cell(&params);
    let mu_unamortized = eutectica_core::metrics::mu_flops_per_cell_unamortized(&params);
    println!(
        "T(z) amortization removes {} FLOP/cell from the mu-kernel ({} -> {})",
        mu_unamortized.total() - mu_flops.total(),
        mu_unamortized.total(),
        mu_flops.total()
    );
    println!(
        "mu-kernel : {} FLOP/cell (adds {}, muls {}, divs {}, sqrts {}; add/mul balance {:.2}); paper: 1384 FLOP/cell",
        mu_flops.total(), mu_flops.adds, mu_flops.muls, mu_flops.divs, mu_flops.sqrts,
        mu_flops.add_mul_balance()
    );
    println!(
        "phi-kernel: {} FLOP/cell (adds {}, muls {}, divs {}, sqrts {})",
        phi_flops.total(),
        phi_flops.adds,
        phi_flops.muls,
        phi_flops.divs,
        phi_flops.sqrts
    );
    println!(
        "memory traffic model (50% cache reuse): mu {} B/cell (paper: <=680), phi {} B/cell",
        mu_bytes_per_cell(),
        phi_bytes_per_cell()
    );
    println!();

    // Measured kernel rates without shortcuts (uniform work, as the paper
    // chooses for this analysis) on a 40^3 block.
    let cfg = OptLevel::SimdTzBuf.config();
    let dims = GridDims::cube(40);
    let mu_meas = mu_mlups(&params, Scenario::Interface, dims, cfg, 5);
    let PhiRate::Mlups(phi_meas) = phi_mlups(&params, Scenario::Interface, dims, cfg, 5) else {
        panic!("an interface block is swept");
    };

    let mut table = ResultTable::new(
        "roofline_analysis",
        &[
            "kernel",
            "AI [F/B]",
            "bw bound [MLUP/s]",
            "compute bound [MLUP/s]",
            "measured [MLUP/s]",
            "% of peak",
            "in-core ceiling [% peak]",
            "bound",
        ],
    );
    for (name, flops, bytes, meas) in [
        ("mu", mu_flops, mu_bytes_per_cell(), mu_meas),
        ("phi", phi_flops, phi_bytes_per_cell(), phi_meas),
    ] {
        let r = analyze(rates, flops, bytes);
        let ic = incore(CoreModel::default(), flops);
        table.row(&[
            name.to_string(),
            f2(r.intensity),
            f2(r.bandwidth_mlups),
            f2(r.compute_mlups),
            f2(meas),
            format!("{:.1}", 100.0 * fraction_of_peak(rates, flops, meas)),
            format!("{:.1}", 100.0 * ic.max_fraction_of_peak),
            if r.compute_bound { "compute" } else { "memory" }.to_string(),
        ]);
    }
    table.finish();
    println!();
    // The paper-era in-core ceiling (Sandy Bridge, no FMA, slow divider):
    // IACA's "at most 43 % of peak" statement.
    let snb = incore(CoreModel::sandy_bridge(), mu_flops);
    println!(
        "in-core ceiling with the paper's Sandy Bridge port model: {:.0}% of peak (IACA: 43%)",
        100.0 * snb.max_fraction_of_peak
    );
    println!();
    println!("Paper conclusions to compare: both kernels compute-bound (measured far");
    println!("below the bandwidth bound); mu-kernel at 27% of peak, phi at 21%; the");
    println!("in-core ceiling (IACA: 43%) explains the gap via add/mul imbalance and");
    println!("division/sqrt latencies.");
}
