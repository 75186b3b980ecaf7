//! Backend-generic vector traits.
//!
//! [`SimdF64x4`] abstracts the 4-wide f64 vector API over the concrete
//! backends ([`crate::scalar::F64x4`] and, on x86-64, [`crate::avx2::F64x4`])
//! so the explicitly vectorized kernels in `eutectica-core` can be written
//! once and *instantiated per ISA* by [`crate::dispatch`], which selects
//! the monomorphic instantiation at runtime (feature detection).
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
/// Mirrors the inherent API of the concrete backend types one-to-one; see
/// [`crate::scalar::F64x4`] for the reference semantics of each operation.
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

/// Forward the trait to a backend's identical inherent API.
macro_rules! forward_simd_impl {
    ($vec:ty, $mask:ty) => {
        impl SimdMask4 for $mask {
            type Vector = $vec;

            #[inline(always)]
            fn any(self) -> bool {
                <$mask>::any(self)
            }
            #[inline(always)]
            fn all(self) -> bool {
                <$mask>::all(self)
            }
            #[inline(always)]
            fn select(self, a: $vec, b: $vec) -> $vec {
                <$mask>::select(self, a, b)
            }
            #[inline(always)]
            fn and(self, o: Self) -> Self {
                <$mask>::and(self, o)
            }
            #[inline(always)]
            fn or(self, o: Self) -> Self {
                <$mask>::or(self, o)
            }
            #[inline(always)]
            fn bitmask(self) -> u8 {
                <$mask>::bitmask(self)
            }
        }

        impl SimdF64x4 for $vec {
            type Mask = $mask;

            #[inline(always)]
            fn splat(v: f64) -> Self {
                <$vec>::splat(v)
            }
            #[inline(always)]
            fn zero() -> Self {
                <$vec>::zero()
            }
            #[inline(always)]
            fn from_array(a: [f64; 4]) -> Self {
                <$vec>::from_array(a)
            }
            #[inline(always)]
            fn to_array(self) -> [f64; 4] {
                <$vec>::to_array(self)
            }
            #[inline(always)]
            fn load(slice: &[f64], offset: usize) -> Self {
                <$vec>::load(slice, offset)
            }
            #[inline(always)]
            fn store(self, slice: &mut [f64], offset: usize) {
                <$vec>::store(self, slice, offset)
            }
            #[inline(always)]
            fn extract(self, i: usize) -> f64 {
                <$vec>::extract(self, i)
            }
            #[inline(always)]
            fn replace(self, i: usize, v: f64) -> Self {
                <$vec>::replace(self, i, v)
            }
            #[inline(always)]
            fn mul_add(self, b: Self, c: Self) -> Self {
                <$vec>::mul_add(self, b, c)
            }
            #[inline(always)]
            fn mul_sub(self, b: Self, c: Self) -> Self {
                <$vec>::mul_sub(self, b, c)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$vec>::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$vec>::abs(self)
            }
            #[inline(always)]
            fn min(self, o: Self) -> Self {
                <$vec>::min(self, o)
            }
            #[inline(always)]
            fn max(self, o: Self) -> Self {
                <$vec>::max(self, o)
            }
            #[inline(always)]
            fn rsqrt(self) -> Self {
                <$vec>::rsqrt(self)
            }
            #[inline(always)]
            fn rsqrt_fast(self, iters: u32) -> Self {
                <$vec>::rsqrt_fast(self, iters)
            }
            #[inline(always)]
            fn hsum(self) -> f64 {
                <$vec>::hsum(self)
            }
            #[inline(always)]
            fn hsum_splat(self) -> Self {
                <$vec>::hsum_splat(self)
            }
            #[inline(always)]
            fn broadcast_lane<const I: usize>(self) -> Self {
                <$vec>::broadcast_lane::<I>(self)
            }
            #[inline(always)]
            fn permute<const A: usize, const B: usize, const C: usize, const D: usize>(
                self,
            ) -> Self {
                <$vec>::permute::<A, B, C, D>(self)
            }
            #[inline(always)]
            fn rotate_lanes_left(self) -> Self {
                <$vec>::rotate_lanes_left(self)
            }
            #[inline(always)]
            fn lt(self, o: Self) -> Self::Mask {
                <$vec>::lt(self, o)
            }
            #[inline(always)]
            fn le(self, o: Self) -> Self::Mask {
                <$vec>::le(self, o)
            }
            #[inline(always)]
            fn eq(self, o: Self) -> Self::Mask {
                <$vec>::eq(self, o)
            }
            #[inline(always)]
            fn gt(self, o: Self) -> Self::Mask {
                <$vec>::gt(self, o)
            }
            #[inline(always)]
            fn ge(self, o: Self) -> Self::Mask {
                <$vec>::ge(self, o)
            }
        }
    };
}

forward_simd_impl!(crate::scalar::F64x4, crate::scalar::Mask4);

#[cfg(target_arch = "x86_64")]
forward_simd_impl!(crate::avx2::F64x4, crate::avx2::Mask4);

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
