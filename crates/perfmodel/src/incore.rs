//! Analytic in-core throughput bound — the IACA substitute.
//!
//! The paper runs the Intel Architecture Code Analyzer on the compiled
//! kernels and finds that "even though the code is fully vectorized, it can
//! attain at most 43 % peak under ideal front-end, out-of-order engine, and
//! memory hierarchy conditions. This is caused predominantly by imbalance in
//! the number of additions and multiplication as well as latencies for
//! division operations." IACA is proprietary and discontinued; this module
//! reproduces the same style of bound analytically from the exact
//! instruction mix measured with `eutectica_core::metrics::Counting`
//! (DESIGN.md substitution 2).
//!
//! Port model (per cycle, 4-wide vectors):
//! * two arithmetic ports, each able to start one add, one multiply, or one
//!   FMA per cycle;
//! * adds and multiplies fuse pairwise into FMAs up to the `fma_fraction`
//!   (explicitly vectorized kernels use `mul_add`, so most pairs fuse);
//! * one divide/sqrt unit with a reciprocal throughput of
//!   `div_recip_throughput` cycles per 4-wide operation.

use eutectica_core::metrics::FlopCount;

/// Throughput parameters of the modeled core.
#[derive(Copy, Clone, Debug)]
pub struct CoreModel {
    /// Arithmetic ports issuing add/mul/FMA.
    pub arith_ports: f64,
    /// Vector lanes (doubles).
    pub lanes: f64,
    /// Fraction of add/mul pairs that fuse into FMAs.
    pub fma_fraction: f64,
    /// Cycles between successive 4-wide divides (unpipelined divider).
    pub div_recip_throughput: f64,
    /// Cycles between successive 4-wide square roots.
    pub sqrt_recip_throughput: f64,
}

impl Default for CoreModel {
    /// Modern AVX2 core (2 FMA ports; pipelined divider: vdivpd ≈ 6 c,
    /// vsqrtpd ≈ 10 c reciprocal throughput at 256-bit).
    fn default() -> Self {
        Self {
            arith_ports: 2.0,
            lanes: 4.0,
            fma_fraction: 0.8,
            div_recip_throughput: 6.0,
            sqrt_recip_throughput: 10.0,
        }
    }
}

impl CoreModel {
    /// The paper's Sandy Bridge-class SuperMUC core: one add + one mul port
    /// (no FMA), slow unpipelined 256-bit divider. This is the
    /// configuration under which IACA reported the 43 % ceiling.
    pub fn sandy_bridge() -> Self {
        Self {
            arith_ports: 2.0,
            lanes: 4.0,
            fma_fraction: 0.0, // SNB has no FMA
            div_recip_throughput: 28.0,
            sqrt_recip_throughput: 43.0,
        }
    }
}

/// In-core bound for one cell update.
#[derive(Copy, Clone, Debug)]
pub struct InCoreReport {
    /// Minimum cycles per cell from the arithmetic ports.
    pub arith_cycles: f64,
    /// Minimum cycles per cell from the divide/sqrt unit.
    pub div_cycles: f64,
    /// Binding cycle count.
    pub cycles_per_cell: f64,
    /// Maximum achievable fraction of peak FLOP rate (the IACA-style "max
    /// x % of peak" statement).
    pub max_fraction_of_peak: f64,
}

/// Compute the bound for a measured FLOP mix.
pub fn analyze(model: CoreModel, flops: FlopCount) -> InCoreReport {
    let adds = flops.adds as f64;
    let muls = flops.muls as f64;
    // Fuse min(adds, muls) · fma_fraction pairs into FMAs.
    let fused = adds.min(muls) * model.fma_fraction;
    let ops = (adds - fused) + (muls - fused) + fused; // issued vector ops × lanes
    let arith_cycles = ops / model.lanes / model.arith_ports;
    let div_cycles = (flops.divs as f64 * model.div_recip_throughput
        + flops.sqrts as f64 * model.sqrt_recip_throughput)
        / model.lanes;
    let cycles = arith_cycles.max(div_cycles);
    // Peak = arith_ports × lanes × 2 FLOP (FMA) per cycle.
    let peak_flops_per_cycle = model.arith_ports * model.lanes * 2.0;
    let achieved = flops.total() as f64 / cycles;
    InCoreReport {
        arith_cycles,
        div_cycles,
        cycles_per_cell: cycles,
        max_fraction_of_peak: (achieved / peak_flops_per_cycle).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_fma_mix_approaches_peak() {
        let r = analyze(
            CoreModel {
                fma_fraction: 1.0,
                ..CoreModel::default()
            },
            FlopCount {
                adds: 500,
                muls: 500,
                divs: 0,
                sqrts: 0,
            },
        );
        assert!(r.max_fraction_of_peak > 0.99, "{r:?}");
    }

    #[test]
    fn imbalance_and_divisions_cap_the_peak() {
        // Add-heavy mix with divisions: the paper's "at most 43 % of peak"
        // situation.
        let r = analyze(
            CoreModel::default(),
            FlopCount {
                adds: 800,
                muls: 400,
                divs: 24,
                sqrts: 6,
            },
        );
        assert!(
            r.max_fraction_of_peak < 0.75 && r.max_fraction_of_peak > 0.2,
            "{r:?}"
        );
        // Removing the divider pressure never increases the cycle count.
        let r2 = analyze(
            CoreModel::default(),
            FlopCount {
                adds: 800,
                muls: 400,
                divs: 0,
                sqrts: 0,
            },
        );
        assert!(r2.cycles_per_cell <= r.cycles_per_cell);
        // Under the paper's Sandy Bridge port model the same mix is capped
        // much harder (no FMA, slow divider) — the IACA-style statement.
        let snb = analyze(
            CoreModel::sandy_bridge(),
            FlopCount {
                adds: 800,
                muls: 400,
                divs: 24,
                sqrts: 6,
            },
        );
        assert!(snb.max_fraction_of_peak < r.max_fraction_of_peak);
    }

    #[test]
    fn divider_bound_kicks_in_for_division_heavy_code() {
        let r = analyze(
            CoreModel::default(),
            FlopCount {
                adds: 10,
                muls: 10,
                divs: 100,
                sqrts: 0,
            },
        );
        assert!(r.div_cycles > r.arith_cycles);
        assert!(r.max_fraction_of_peak < 0.06);
    }

    #[test]
    fn real_kernel_mix_is_capped_below_peak() {
        // The actual µ-kernel mix of this reproduction.
        let p = eutectica_core::params::ModelParams::ag_al_cu();
        let mix = eutectica_core::metrics::mu_flops_per_cell(&p);
        let r = analyze(CoreModel::default(), mix);
        assert!(
            r.max_fraction_of_peak < 0.9,
            "kernel should not reach peak: {r:?}"
        );
        assert!(r.max_fraction_of_peak > 0.05, "{r:?}");
    }
}
