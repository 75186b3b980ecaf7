//! Roofline analysis (Williams et al. [34]): attainable MLUP/s =
//! min(peak_flops / flops_per_cell, bandwidth / bytes_per_cell).
//!
//! The paper: "We measure the maximum attainable bandwidth using STREAM on
//! one node, resulting in a bandwidth of approximately 80 GiB/s. ... Under
//! this assumption, half of the required values are held in L2 cache and at
//! most 680 Bytes have to be loaded from main memory to update one cell.
//! For one cell update, 1384 floating point operations are required ...
//! 80 GiB/s : 680 B/LUP = 126.3 MLUP/s."

use eutectica_core::metrics::FlopCount;
use eutectica_simd::{IsaGeneric, SimdF64x4};
use std::time::Instant;

/// Measured machine characteristics.
#[derive(Copy, Clone, Debug)]
pub struct MachineRates {
    /// Sustainable memory bandwidth (bytes/s), STREAM-triad style.
    pub bandwidth: f64,
    /// Peak double-precision FLOP rate (FLOP/s) from an FMA micro-kernel.
    pub peak_flops: f64,
}

/// STREAM-triad bandwidth probe: `a[i] = b[i] + s * c[i]` over arrays well
/// beyond LLC capacity. Returns bytes/s (3 arrays × 8 B plus write-allocate
/// ≈ 32 B per iteration, the STREAM convention counts 24).
pub fn measure_stream_bandwidth() -> f64 {
    let n = 8 << 20; // 3 × 64 MiB
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = 3.0;
    // Warmup + best of 3.
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = *bi + s * *ci;
        }
        std::hint::black_box(&a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (n * 24) as f64 / best
}

/// Peak-FLOP probe: eight independent FMA chains on 4-wide vectors.
/// Returns FLOP/s (each FMA counts as 2 FLOPs × 4 lanes).
///
/// Dispatched at runtime exactly like the kernels it is compared with
/// (`eutectica_core::kernels`): the AVX2+FMA instantiation when the host
/// has it, the portable one — a libm `fma` call per lane, some 40x slower —
/// otherwise.
pub fn measure_peak_flops() -> f64 {
    eutectica_simd::dispatch(true, FmaChains)
}

struct FmaChains;

impl IsaGeneric for FmaChains {
    type Output = f64;

    #[inline(always)]
    fn run<V: SimdF64x4>(self) -> f64 {
        let iters: u64 = 4_000_000;
        let mut acc = [V::splat(0.0); 8];
        let x = V::splat(1.000000001);
        let y = V::splat(1e-9);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            for _ in 0..iters {
                for a in acc.iter_mut() {
                    *a = x.mul_add(*a, y);
                }
            }
            std::hint::black_box(&acc);
            best = best.min(t.elapsed().as_secs_f64());
        }
        (iters * 8 * 2 * 4) as f64 / best
    }
}

/// Result of the roofline analysis for one kernel.
#[derive(Copy, Clone, Debug)]
pub struct RooflineReport {
    /// FLOPs per cell update.
    pub flops_per_cell: u64,
    /// Bytes per cell update (under the paper's 50 %-cache-reuse model).
    pub bytes_per_cell: usize,
    /// Arithmetic intensity (FLOP/byte).
    pub intensity: f64,
    /// Bandwidth-limited ceiling in MLUP/s.
    pub bandwidth_mlups: f64,
    /// Compute-limited ceiling in MLUP/s.
    pub compute_mlups: f64,
    /// Overall roofline ceiling.
    pub roofline_mlups: f64,
    /// True if the kernel is compute-bound (the paper's conclusion for both
    /// kernels).
    pub compute_bound: bool,
}

/// Combine machine rates with kernel counts.
pub fn analyze(rates: MachineRates, flops: FlopCount, bytes_per_cell: usize) -> RooflineReport {
    let f = flops.total();
    let intensity = f as f64 / bytes_per_cell as f64;
    let bandwidth_mlups = rates.bandwidth / bytes_per_cell as f64 / 1e6;
    let compute_mlups = rates.peak_flops / f as f64 / 1e6;
    RooflineReport {
        flops_per_cell: f,
        bytes_per_cell,
        intensity,
        bandwidth_mlups,
        compute_mlups,
        roofline_mlups: bandwidth_mlups.min(compute_mlups),
        compute_bound: compute_mlups < bandwidth_mlups,
    }
}

/// Fraction of peak achieved by a measured MLUP/s figure.
pub fn fraction_of_peak(rates: MachineRates, flops: FlopCount, measured_mlups: f64) -> f64 {
    measured_mlups * 1e6 * flops.total() as f64 / rates.peak_flops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_math() {
        let rates = MachineRates {
            bandwidth: 80.0 * (1u64 << 30) as f64, // the paper's 80 GiB/s
            peak_flops: 21.6e9,                    // one SuperMUC core × ...
        };
        // The paper's numbers: 1384 FLOP, 680 B.
        let flops = FlopCount {
            adds: 700,
            muls: 660,
            divs: 20,
            sqrts: 4,
        };
        let r = analyze(rates, flops, 680);
        assert_eq!(r.flops_per_cell, 1384);
        assert!(
            (r.bandwidth_mlups - 126.3).abs() < 0.5,
            "{}",
            r.bandwidth_mlups
        );
        // 21.6 GFLOP/s / 1384 = 15.6 MLUP/s — compute bound, as in the paper.
        assert!(r.compute_bound);
        assert!((r.intensity - 2.035).abs() < 0.01);
        // 4.2 MLUP/s measured ⇒ 27 % of peak (paper Sec. 5.1.1).
        let frac = fraction_of_peak(rates, flops, 4.2);
        assert!((frac - 0.269).abs() < 0.01, "{frac}");
    }

    #[test]
    #[ignore = "timing-dependent; run explicitly with --ignored"]
    fn probes_return_plausible_rates() {
        let bw = measure_stream_bandwidth();
        assert!(bw > 1e9, "bandwidth {bw} implausibly low");
        let pf = measure_peak_flops();
        assert!(pf > 1e9, "peak {pf} implausibly low");
        // The probe is dispatched like the kernels: on an AVX2+FMA host it
        // must not read the portable backend's libm-`fma` rate (< 1 GFLOP/s).
        if eutectica_simd::avx2_available() {
            assert!(pf > 5e9, "peak {pf} is not an AVX2 FMA rate");
        }
        assert!(pf / bw > 0.05);
    }
}
