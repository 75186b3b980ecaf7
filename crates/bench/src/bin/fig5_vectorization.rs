//! Fig. 5: "Comparison of different vectorization strategies on one
//! SuperMUC core, block size chosen as 60³" — φ-kernel MLUP/s for the
//! cellwise, cellwise-with-shortcuts and four-cell strategies in the
//! interface, liquid and solid scenarios. The production cellwise kernel
//! runs four x-cells per vector; the last column is the paper's
//! lanes-per-phase form (one cell per vector, read from the AoS layout
//! ablation, T(z) + staggered buffer, no shortcuts), which computes the
//! same bits.
//!
//! `--isa <auto|portable|avx2>` pins the ISA instantiation the strategies
//! run on (`portable` to quantify the benefit of explicit AVX2
//! vectorization, `avx2` to *require* it — a typed error on hosts without
//! AVX2+FMA instead of a silent scalar fallback).

use eutectica_bench::{f2, isa_from_args, phi_mlups, time_median, ResultTable};
use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::{
    phi_sweep_cellwise_aos, KernelConfig, MuVariant, PhiVariant, SimdIsa,
};
use eutectica_core::params::ModelParams;
use eutectica_core::regions::{build_scenario, Scenario};

fn main() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(60);
    let reps = 5;
    let isa = isa_from_args();
    println!(
        "Fig. 5 — phi-kernel vectorization strategies, block 60^3, SIMD backend: {}",
        isa.resolved_name()
    );
    if isa.resolved_name() != SimdIsa::Auto.resolved_name() {
        println!(
            "(host's best backend is {}; pinned by --isa)",
            SimdIsa::Auto.resolved_name()
        );
    }
    println!();

    let variants: [(&str, PhiVariant, bool); 3] = [
        ("cellwise", PhiVariant::SimdCellwise, false),
        ("cellwise+shortcuts", PhiVariant::SimdCellwise, true),
        ("four cells", PhiVariant::SimdFourCell, false),
    ];
    let mut table = ResultTable::new(
        "fig5_vectorization",
        &[
            "scenario",
            "cellwise",
            "cellwise+shortcuts",
            "four cells",
            "lanes per phase (AoS)",
        ],
    );
    for sc in [Scenario::Interface, Scenario::Liquid, Scenario::Solid] {
        let mut row = vec![sc.name().to_string()];
        for (_, variant, shortcuts) in variants {
            let cfg = KernelConfig {
                phi: variant,
                mu: MuVariant::SimdFourCell,
                isa,
                tz_precompute: true,
                staggered_buffer: variant == PhiVariant::SimdCellwise,
                shortcuts,
            };
            row.push(phi_mlups(&params, sc, dims, cfg, reps).to_string());
        }
        let state = build_scenario(sc, dims);
        let aos = state.phi_src.to_aos();
        let mut out = state.phi_dst.clone();
        let origin_z = state.origin[2] as isize;
        let secs = time_median(reps, || {
            phi_sweep_cellwise_aos(&params, &aos, &state.mu_src, &mut out, origin_z, 0.0, isa)
        });
        row.push(f2(dims.interior_volume() as f64 / secs / 1e6));
        table.row(&row);
    }
    table.finish();
    println!();
    println!("MLUP/s for the phi-kernel only (higher is better).");
    println!("Paper shape: shortcuts help most in liquid; the cellwise/four-cell");
    println!("ordering is compiler- and microarchitecture-dependent (see EXPERIMENTS.md).");
}
