//! Backend-generic vector traits.
//!
//! [`SimdF64x4`] is the 4-wide f64 vector API; the backends
//! ([`crate::scalar::F64x4`] and, on x86-64, [`crate::avx2::F64x4`]) implement
//! it directly, with no inherent API of their own, so the explicitly
//! vectorized kernels in `eutectica-core` can be written once and
//! *instantiated per ISA* by [`crate::dispatch`], which selects the
//! monomorphic instantiation at runtime (feature detection).
//!
//! Both backends implement every operation with identical semantics (same
//! summation order, same FMA rounding — asserted bit-for-bit by the
//! equivalence tests in [`crate::avx2`]), so swapping the instantiation of a
//! kernel never changes its results.

use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Comparison mask companion of a [`SimdF64x4`] backend: one boolean per
/// lane, in whatever representation the ISA prefers.
pub trait SimdMask4: Copy + Send + Sync + 'static {
    /// The vector type this mask selects over.
    type Vector: SimdF64x4<Mask = Self>;

    /// True if any lane is set.
    fn any(self) -> bool;
    /// True if all lanes are set.
    fn all(self) -> bool;
    /// Lanewise select: lane i = if mask { a } else { b }.
    fn select(self, a: Self::Vector, b: Self::Vector) -> Self::Vector;
    /// Lanewise logical and.
    fn and(self, o: Self) -> Self;
    /// Lanewise logical or.
    fn or(self, o: Self) -> Self;
    /// Bitmask of set lanes (bit i = lane i).
    fn bitmask(self) -> u8;
}

/// Four f64 lanes, generic over the ISA backend.
///
/// See the [`crate::scalar::F64x4`] impl for the reference semantics of
/// each operation and the [`crate::avx2::F64x4`] impl for the instruction
/// each maps to.
pub trait SimdF64x4:
    Copy
    + Send
    + Sync
    + core::fmt::Debug
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Mul<f64, Output = Self>
    + Add<f64, Output = Self>
    + 'static
{
    /// Comparison mask type of this backend.
    type Mask: SimdMask4<Vector = Self>;

    /// All lanes set to `v`.
    fn splat(v: f64) -> Self;
    /// All lanes zero.
    fn zero() -> Self;
    /// Construct from an array, lane i = `a[i]`.
    fn from_array(a: [f64; 4]) -> Self;
    /// Extract all lanes.
    fn to_array(self) -> [f64; 4];
    /// Load 4 consecutive doubles from `slice[offset..offset+4]`.
    fn load(slice: &[f64], offset: usize) -> Self;
    /// Store 4 consecutive doubles to `slice[offset..offset+4]`.
    fn store(self, slice: &mut [f64], offset: usize);
    /// Extract lane `i` (0..4).
    fn extract(self, i: usize) -> f64;
    /// Replace lane `i` with `v`, returning the new vector.
    fn replace(self, i: usize, v: f64) -> Self;
    /// Fused multiply-add: `self * b + c` (single rounding).
    fn mul_add(self, b: Self, c: Self) -> Self;
    /// Fused multiply-subtract: `self * b - c`.
    fn mul_sub(self, b: Self, c: Self) -> Self;
    /// Lanewise square root.
    fn sqrt(self) -> Self;
    /// Lanewise absolute value.
    fn abs(self) -> Self;
    /// Lanewise minimum.
    fn min(self, o: Self) -> Self;
    /// Lanewise maximum.
    fn max(self, o: Self) -> Self;
    /// Exact lanewise reciprocal square root.
    fn rsqrt(self) -> Self;
    /// Fast lanewise reciprocal square root (Lomont + Newton steps).
    fn rsqrt_fast(self, iters: u32) -> Self;
    /// Horizontal sum `(l0+l2) + (l1+l3)`.
    fn hsum(self) -> f64;
    /// Horizontal sum broadcast to all lanes.
    fn hsum_splat(self) -> Self;
    /// Broadcast lane `I` to all lanes.
    fn broadcast_lane<const I: usize>(self) -> Self;
    /// Arbitrary lane permutation: result lane i = `self[[A,B,C,D][i]]`.
    fn permute<const A: usize, const B: usize, const C: usize, const D: usize>(self) -> Self;
    /// Rotate lanes left by one: `[l1, l2, l3, l0]`.
    fn rotate_lanes_left(self) -> Self;
    /// Lanewise `self < o`.
    fn lt(self, o: Self) -> Self::Mask;
    /// Lanewise `self <= o`.
    fn le(self, o: Self) -> Self::Mask;
    /// Lanewise `self == o`.
    fn eq(self, o: Self) -> Self::Mask;
    /// Lanewise `self > o`.
    fn gt(self, o: Self) -> Self::Mask;
    /// Lanewise `self >= o`.
    fn ge(self, o: Self) -> Self::Mask;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_sum<V: SimdF64x4>(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        let (va, vb) = (V::from_array(a), V::from_array(b));
        let m = va.gt(vb);
        m.select(va.mul_add(vb, V::splat(1.0)), va + vb).to_array()
    }

    #[test]
    fn generic_code_matches_across_backends() {
        let a = [1.0, -2.0, 3.5, 0.25];
        let b = [0.5, 4.0, 3.5, -1.0];
        let s = generic_sum::<crate::scalar::F64x4>(a, b);
        #[cfg(target_arch = "x86_64")]
        {
            let v = generic_sum::<crate::avx2::F64x4>(a, b);
            assert_eq!(s.map(f64::to_bits), v.map(f64::to_bits));
        }
        // lane 2: a == b, so gt is false and the plain sum is selected.
        assert_eq!(s[2], 7.0);
    }
}
