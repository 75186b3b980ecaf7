//! Portable 4-wide double-precision SIMD abstraction layer.
//!
//! This crate is the Rust analog of the "lightweight abstraction layer" the
//! SC'15 paper describes in Sec. 3.3: a common API over the machine's vector
//! extensions so the explicitly vectorized φ- and µ-kernels stay portable.
//! The paper's layer covered SSE2/SSE4/AVX/AVX2 and Blue Gene/Q QPX; ours
//! provides the [`SimdF64x4`] / [`SimdMask4`] traits, implemented directly
//! by two backends,
//!
//! * [`avx2::F64x4`], AVX2 + FMA intrinsics, compiled on every x86-64
//!   target, and
//! * [`scalar::F64x4`], the portable reference the AVX2 backend is tested
//!   against bit for bit (same summation order, same FMA rounding),
//!
//! so a kernel is written once as `fn kernel<V: SimdF64x4>(..)`, and
//! **one** way to pick the instantiation: [`dispatch`], at runtime, from
//! [`avx2_available`].
//! There is no compile-time alias and no cargo feature — a build never has
//! to target AVX2 to run AVX2 code, and cannot be configured to mislabel
//! the portable backend as "SIMD".
//!
//! Like the paper's API, not every function maps to a single instruction on
//! every ISA: lane permutes are one `vpermpd` on AVX2 but shuffles in the
//! scalar backend; the API hides the difference.
//!
//! The width of 4 doubles is not arbitrary: the paper vectorizes the φ-kernel
//! *cellwise*, mapping the **four phase-field components of one cell** to the
//! four vector lanes, and the µ-kernel *four-cells-at-a-time*. Both uses are
//! exercised heavily by `eutectica-core`.
//!
//! # Example
//!
//! ```
//! use eutectica_simd::{scalar::F64x4, SimdF64x4};
//!
//! let phi = F64x4::from_array([0.1, 0.2, 0.3, 0.4]);
//! let sum = phi.hsum_splat();              // Σφ broadcast to all lanes
//! let h = (phi * phi) / (phi * phi).hsum_splat(); // Moelans interpolation
//! assert!((sum.extract(0) - 1.0).abs() < 1e-15);
//! assert!((h.to_array().iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

pub mod scalar;
mod vector;

pub use vector::{SimdF64x4, SimdMask4};

// Compiled on every x86-64 build, not only when the build *targets* AVX2:
// the intrinsics are legal to compile without the target feature, and
// [`dispatch`] instantiates kernels with them under `#[target_feature]`.
#[cfg(target_arch = "x86_64")]
pub mod avx2;

/// True when the host CPU supports AVX2 + FMA.
///
/// This is a runtime check (`is_x86_feature_detected!`), independent of the
/// features the binary was compiled with — a build without
/// `-C target-cpu=native` still returns true on an AVX2-capable host, which
/// is exactly the case [`dispatch`] exists for.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A computation written once over the vector backend `V`, to be
/// instantiated per ISA by [`dispatch`].
pub trait IsaGeneric {
    /// What the computation returns.
    type Output;

    /// Run with backend `V`.
    ///
    /// Implementations must be `#[inline(always)]`, and so must every
    /// generic fn they call that touches a `V`; nothing that touches a `V`
    /// may be a closure (a `core::array::from_fn(|a| …)` callback is one).
    /// The AVX2 instantiation only becomes AVX2 machine code when the whole
    /// body is inlined into [`dispatch`]'s `#[target_feature]` wrapper: a
    /// closure is its own LLVM function that neither inherits the wrapper's
    /// features nor accepts `#[inline(always)]`, and left out of line it
    /// turns every intrinsic into a real call with operands through memory
    /// (2–20x slower, measured, and still bit-identical, so no test
    /// notices). `.github/scripts/kernel-codegen.sh` checks the release
    /// binaries for both symptoms.
    fn run<V: SimdF64x4>(self) -> Self::Output;
}

/// Run `kernel` with the best backend allowed: the AVX2 + FMA instantiation
/// when `allow_avx2` and the host has both extensions, else the portable
/// one. The two are bit-identical, so the choice only affects speed.
///
/// This is the only place in the workspace that enables a target feature,
/// and therefore the only place that has to pair it with the runtime check.
#[inline]
pub fn dispatch<K: IsaGeneric>(allow_avx2: bool, kernel: K) -> K::Output {
    if allow_avx2 && avx2_available() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `avx2_available()` just verified AVX2 and FMA on this CPU,
        // the only requirement of `avx2_entry`.
        return unsafe { avx2_entry(kernel) };
    }
    kernel.run::<scalar::F64x4>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn avx2_entry<K: IsaGeneric>(kernel: K) -> K::Output {
    kernel.run::<avx2::F64x4>()
}

/// Scalar fast inverse square root (Lomont's method, double precision).
///
/// The paper replaces `1/sqrt(x)` used for vector normalization in the
/// anti-trapping current by "approximated values provided by a fast inverse
/// square root algorithm [20]" (Lomont). `iters` Newton–Raphson refinements
/// are applied; 2 give ≈1e-5 relative error, 4 reach near machine precision.
#[inline(always)]
fn rsqrt_fast_scalar(x: f64, iters: u32) -> f64 {
    debug_assert!(x > 0.0);
    let i = x.to_bits();
    // Double-precision magic constant from Lomont's report.
    let i = 0x5FE6EB50C7B537A9u64.wrapping_sub(i >> 1);
    let mut y = f64::from_bits(i);
    let half = 0.5 * x;
    for _ in 0..iters {
        y = y * (1.5 - half * y * y);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsqrt_fast_converges() {
        for &x in &[1e-8f64, 0.3, 1.0, 2.0, 123.0, 1e12] {
            let exact = 1.0 / x.sqrt();
            let approx2 = rsqrt_fast_scalar(x, 2);
            let approx4 = rsqrt_fast_scalar(x, 4);
            assert!(
                ((approx2 - exact) / exact).abs() < 1e-4,
                "2 iters too inaccurate at {x}"
            );
            assert!(
                ((approx4 - exact) / exact).abs() < 1e-14,
                "4 iters too inaccurate at {x}"
            );
        }
    }

    /// Arithmetic, FMA, compare/select, horizontal, permute and rsqrt ops
    /// in one expression.
    struct Mix([f64; 4], [f64; 4]);

    impl IsaGeneric for Mix {
        type Output = [f64; 4];

        #[inline(always)]
        fn run<V: SimdF64x4>(self) -> [f64; 4] {
            let (a, b) = (V::from_array(self.0), V::from_array(self.1));
            let m = a.gt(b);
            let v = m.select(a.mul_add(b, V::splat(1.0)), (a + b).hsum_splat());
            (v.rsqrt_fast(2) * v.abs().sqrt())
                .permute::<3, 0, 1, 2>()
                .to_array()
        }
    }

    #[test]
    fn dispatch_is_bit_identical_with_and_without_avx2() {
        let (a, b) = ([1.0, 2.5, 3.5, 0.25], [0.5, 4.0, 3.5, 1.0]);
        let portable = dispatch(false, Mix(a, b));
        let best = dispatch(true, Mix(a, b));
        assert_eq!(portable.map(f64::to_bits), best.map(f64::to_bits));
        assert!(portable.iter().all(|x| x.is_finite() && *x > 0.0));
    }
}
