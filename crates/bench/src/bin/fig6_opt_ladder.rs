//! Fig. 6: the cumulative optimization ladder for the φ-kernel (left) and
//! µ-kernel (right), run in interface/liquid/solid blocks of 60³ cells:
//! general-purpose code → basic implementation → +SIMD → +T(z) → +staggered
//! buffer → +shortcuts.
//!
//! `--isa <auto|portable|avx2>` pins the ISA instantiation of the
//! explicitly vectorized rungs.

use eutectica_bench::{f2, isa_from_args, mu_mlups, phi_mlups, ResultTable};
use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::OptLevel;
use eutectica_core::params::ModelParams;
use eutectica_core::regions::Scenario;

fn main() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(60);
    let isa = isa_from_args();
    println!(
        "Fig. 6 — optimization ladder, block 60^3, SIMD backend: {}",
        isa.resolved_name()
    );
    println!();

    for (kernel, f) in [("phi", true), ("mu", false)] {
        let mut table = ResultTable::new(
            &format!("fig6_opt_ladder_{kernel}"),
            &["rung", "interface", "liquid", "solid"],
        );
        for rung in OptLevel::LADDER {
            let mut cfg = rung.config();
            cfg.isa = isa;
            let reps = if rung == OptLevel::Reference { 2 } else { 5 };
            let mut row = vec![rung.label().to_string()];
            for sc in [Scenario::Interface, Scenario::Liquid, Scenario::Solid] {
                row.push(if f {
                    phi_mlups(&params, sc, dims, cfg, reps).to_string()
                } else {
                    f2(mu_mlups(&params, sc, dims, cfg, reps))
                });
            }
            table.row(&row);
        }
        println!("MLUP/s for {kernel}-kernel only:");
        table.finish();
        println!();
    }
    println!("Expected shape (paper): every rung improves; staggered buffer ~2x on mu;");
    println!("shortcuts fastest in liquid (phi) and solid (mu).");
}
