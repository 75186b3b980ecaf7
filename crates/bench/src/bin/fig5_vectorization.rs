//! Fig. 5: "Comparison of different vectorization strategies on one
//! SuperMUC core, block size chosen as 60³" — φ-kernel MLUP/s for the
//! cellwise, cellwise-with-shortcuts and four-cell strategies in the
//! interface, liquid and solid scenarios.
//!
//! `--isa <auto|portable|avx2>` pins the ISA instantiation the strategies
//! run on (`portable` to quantify the benefit of explicit AVX2
//! vectorization, `avx2` to *require* it — a typed error on hosts without
//! AVX2+FMA instead of a silent scalar fallback).

use eutectica_bench::{f2, isa_from_args, phi_mlups, ResultTable};
use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::{KernelConfig, MuVariant, PhiVariant, SimdIsa};
use eutectica_core::params::ModelParams;
use eutectica_core::regions::Scenario;

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
        &["scenario", "cellwise", "cellwise+shortcuts", "four cells"],
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
            row.push(f2(phi_mlups(&params, sc, dims, cfg, reps)));
        }
        table.row(&row);
    }
    table.finish();
    println!();
    println!("MLUP/s for the phi-kernel only (higher is better).");
    println!("Paper shape: shortcuts help most in liquid; the cellwise/four-cell");
    println!("ordering is compiler- and microarchitecture-dependent (see EXPERIMENTS.md).");
}
