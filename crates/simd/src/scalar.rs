//! Portable scalar backend: the reference semantics for every operation.
//!
//! Every operation here defines the *meaning* of the corresponding AVX2
//! operation; the backend-equivalence test suite checks the two agree
//! bit-for-bit (up to documented FMA contraction differences).

use crate::{SimdF64x4, SimdMask4};
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Four f64 lanes, portable implementation.
#[derive(Copy, Clone, Debug, Default)]
#[repr(C, align(32))]
pub struct F64x4(pub(crate) [f64; 4]);

/// Comparison mask for [`F64x4`]; one boolean per lane.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Mask4(pub(crate) [bool; 4]);

impl SimdF64x4 for F64x4 {
    type Mask = Mask4;

    /// All lanes set to `v`.
    #[inline(always)]
    fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// All lanes zero.
    #[inline(always)]
    fn zero() -> Self {
        Self([0.0; 4])
    }

    /// Construct from an array, lane i = `a[i]`.
    #[inline(always)]
    fn from_array(a: [f64; 4]) -> Self {
        Self(a)
    }

    /// Extract all lanes.
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        self.0
    }

    /// Load 4 consecutive doubles from `slice[offset..offset+4]`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds, in every build profile (slice
    /// indexing), as the AVX2 backend's `assert!` does.
    #[inline(always)]
    fn load(slice: &[f64], offset: usize) -> Self {
        Self([
            slice[offset],
            slice[offset + 1],
            slice[offset + 2],
            slice[offset + 3],
        ])
    }

    /// Store 4 consecutive doubles to `slice[offset..offset+4]`.
    #[inline(always)]
    fn store(self, slice: &mut [f64], offset: usize) {
        slice[offset..offset + 4].copy_from_slice(&self.0);
    }

    /// Extract lane `i` (0..4).
    #[inline(always)]
    fn extract(self, i: usize) -> f64 {
        self.0[i]
    }

    /// Replace lane `i` with `v`, returning the new vector.
    #[inline(always)]
    fn replace(mut self, i: usize, v: f64) -> Self {
        self.0[i] = v;
        self
    }

    /// Fused multiply-add: `self * b + c`, one rounding in the AVX2 backend.
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        Self([
            self.0[0].mul_add(b.0[0], c.0[0]),
            self.0[1].mul_add(b.0[1], c.0[1]),
            self.0[2].mul_add(b.0[2], c.0[2]),
            self.0[3].mul_add(b.0[3], c.0[3]),
        ])
    }

    /// Fused multiply-subtract: `self * b - c`.
    #[inline(always)]
    fn mul_sub(self, b: Self, c: Self) -> Self {
        Self([
            self.0[0].mul_add(b.0[0], -c.0[0]),
            self.0[1].mul_add(b.0[1], -c.0[1]),
            self.0[2].mul_add(b.0[2], -c.0[2]),
            self.0[3].mul_add(b.0[3], -c.0[3]),
        ])
    }

    /// Lanewise square root.
    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(self.0.map(f64::sqrt))
    }

    /// Lanewise absolute value.
    #[inline(always)]
    fn abs(self) -> Self {
        Self(self.0.map(f64::abs))
    }

    /// Lanewise minimum.
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        Self([
            self.0[0].min(o.0[0]),
            self.0[1].min(o.0[1]),
            self.0[2].min(o.0[2]),
            self.0[3].min(o.0[3]),
        ])
    }

    /// Lanewise maximum.
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        Self([
            self.0[0].max(o.0[0]),
            self.0[1].max(o.0[1]),
            self.0[2].max(o.0[2]),
            self.0[3].max(o.0[3]),
        ])
    }

    /// Exact lanewise reciprocal square root (`1/sqrt(x)`).
    #[inline(always)]
    fn rsqrt(self) -> Self {
        Self(self.0.map(|x| 1.0 / x.sqrt()))
    }

    /// Fast lanewise reciprocal square root (Lomont bit trick + `iters`
    /// Newton refinements). See `crate::rsqrt_fast_scalar`.
    #[inline(always)]
    fn rsqrt_fast(self, iters: u32) -> Self {
        Self(self.0.map(|x| crate::rsqrt_fast_scalar(x, iters)))
    }

    /// Horizontal sum of all four lanes.
    ///
    /// Summation order matches the AVX2 backend: `(l0+l2) + (l1+l3)`.
    #[inline(always)]
    fn hsum(self) -> f64 {
        (self.0[0] + self.0[2]) + (self.0[1] + self.0[3])
    }

    /// Horizontal sum broadcast to all lanes.
    #[inline(always)]
    fn hsum_splat(self) -> Self {
        Self::splat(self.hsum())
    }

    /// Broadcast lane `I` to all lanes (one `vpermpd` on AVX2).
    #[inline(always)]
    fn broadcast_lane<const I: usize>(self) -> Self {
        Self::splat(self.0[I])
    }

    /// Arbitrary lane permutation: result lane i = `self[[A,B,C,D][i]]`.
    #[inline(always)]
    fn permute<const A: usize, const B: usize, const C: usize, const D: usize>(self) -> Self {
        Self([self.0[A], self.0[B], self.0[C], self.0[D]])
    }

    /// Rotate lanes left by one: `[l1, l2, l3, l0]`.
    #[inline(always)]
    fn rotate_lanes_left(self) -> Self {
        self.permute::<1, 2, 3, 0>()
    }

    /// Lanewise `self < o`.
    #[inline(always)]
    fn lt(self, o: Self) -> Mask4 {
        Mask4([
            self.0[0] < o.0[0],
            self.0[1] < o.0[1],
            self.0[2] < o.0[2],
            self.0[3] < o.0[3],
        ])
    }

    /// Lanewise `self <= o`.
    #[inline(always)]
    fn le(self, o: Self) -> Mask4 {
        Mask4([
            self.0[0] <= o.0[0],
            self.0[1] <= o.0[1],
            self.0[2] <= o.0[2],
            self.0[3] <= o.0[3],
        ])
    }

    /// Lanewise `self == o` (IEEE: `-0.0 == 0.0`, NaN equals nothing).
    #[inline(always)]
    fn eq(self, o: Self) -> Mask4 {
        Mask4([
            self.0[0] == o.0[0],
            self.0[1] == o.0[1],
            self.0[2] == o.0[2],
            self.0[3] == o.0[3],
        ])
    }

    /// Lanewise `self > o`.
    #[inline(always)]
    fn gt(self, o: Self) -> Mask4 {
        o.lt(self)
    }

    /// Lanewise `self >= o`.
    #[inline(always)]
    fn ge(self, o: Self) -> Mask4 {
        o.le(self)
    }
}

impl SimdMask4 for Mask4 {
    type Vector = F64x4;

    /// True if any lane is set.
    #[inline(always)]
    fn any(self) -> bool {
        self.0[0] | self.0[1] | self.0[2] | self.0[3]
    }

    /// True if all lanes are set.
    #[inline(always)]
    fn all(self) -> bool {
        self.0[0] & self.0[1] & self.0[2] & self.0[3]
    }

    /// Lanewise select: lane i = if mask { a } else { b }.
    #[inline(always)]
    fn select(self, a: F64x4, b: F64x4) -> F64x4 {
        F64x4([
            if self.0[0] { a.0[0] } else { b.0[0] },
            if self.0[1] { a.0[1] } else { b.0[1] },
            if self.0[2] { a.0[2] } else { b.0[2] },
            if self.0[3] { a.0[3] } else { b.0[3] },
        ])
    }

    /// Lanewise logical and.
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        Mask4([
            self.0[0] & o.0[0],
            self.0[1] & o.0[1],
            self.0[2] & o.0[2],
            self.0[3] & o.0[3],
        ])
    }

    /// Lanewise logical or.
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        Mask4([
            self.0[0] | o.0[0],
            self.0[1] | o.0[1],
            self.0[2] | o.0[2],
            self.0[3] | o.0[3],
        ])
    }

    /// Bitmask of set lanes (bit i = lane i), like `vmovmskpd`.
    #[inline(always)]
    fn bitmask(self) -> u8 {
        (self.0[0] as u8) | (self.0[1] as u8) << 1 | (self.0[2] as u8) << 2 | (self.0[3] as u8) << 3
    }
}

macro_rules! impl_binop {
    ($trait:ident, $fn:ident, $op:tt) => {
        impl $trait for F64x4 {
            type Output = Self;
            #[inline(always)]
            fn $fn(self, o: Self) -> Self {
                Self([
                    self.0[0] $op o.0[0],
                    self.0[1] $op o.0[1],
                    self.0[2] $op o.0[2],
                    self.0[3] $op o.0[3],
                ])
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl AddAssign for F64x4 {
    #[inline(always)]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl SubAssign for F64x4 {
    #[inline(always)]
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

impl MulAssign for F64x4 {
    #[inline(always)]
    fn mul_assign(&mut self, o: Self) {
        *self = *self * o;
    }
}

impl Neg for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self([-self.0[0], -self.0[1], -self.0[2], -self.0[3]])
    }
}

impl Mul<f64> for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, s: f64) -> Self {
        self * Self::splat(s)
    }
}

impl Add<f64> for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, s: f64) -> Self {
        self + Self::splat(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let a = F64x4::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4::splat(2.0);
        assert_eq!((a + b).to_array(), [3.0, 4.0, 5.0, 6.0]);
        assert_eq!((a * b).to_array(), [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((a - b).to_array(), [-1.0, 0.0, 1.0, 2.0]);
        assert_eq!((a / b).to_array(), [0.5, 1.0, 1.5, 2.0]);
        assert_eq!((-a).to_array(), [-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn horizontal_and_permute() {
        let a = F64x4::from_array([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.hsum(), 10.0);
        assert_eq!(a.hsum_splat().to_array(), [10.0; 4]);
        assert_eq!(a.broadcast_lane::<2>().to_array(), [3.0; 4]);
        assert_eq!(a.rotate_lanes_left().to_array(), [2.0, 3.0, 4.0, 1.0]);
        assert_eq!(a.permute::<3, 3, 0, 1>().to_array(), [4.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn masks_and_select() {
        let a = F64x4::from_array([1.0, 5.0, 3.0, 0.0]);
        let b = F64x4::splat(2.0);
        let m = a.lt(b);
        assert_eq!(m.bitmask(), 0b1001);
        assert!(m.any());
        assert!(!m.all());
        let sel = m.select(F64x4::splat(-1.0), F64x4::splat(1.0));
        assert_eq!(sel.to_array(), [-1.0, 1.0, 1.0, -1.0]);
    }

    #[test]
    fn load_store_roundtrip() {
        let data = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let v = F64x4::load(&data, 1);
        assert_eq!(v.to_array(), [1.0, 2.0, 3.0, 4.0]);
        let mut out = [0.0; 6];
        v.store(&mut out, 2);
        assert_eq!(out, [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
    }
}
