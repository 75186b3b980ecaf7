//! AVX2 + FMA backend.
//!
//! Compiled on every x86-64 target and reached through [`crate::dispatch`],
//! whose `#[target_feature]` wrapper (gated by
//! [`crate::avx2_available`]) gives LLVM the features for real 256-bit
//! codegen. Outside that wrapper the intrinsics are still legal — LLVM
//! legalizes them to narrower operations with identical semantics — so
//! using this type featureless (as the equivalence tests below do) is safe,
//! just slower.
//!
//! Each operation documents the instruction(s) it maps to. The
//! backend-equivalence tests at the bottom verify bit-exact agreement with
//! the [`crate::scalar`] reference for every operation (the scalar backend
//! deliberately mirrors AVX2 summation order and FMA rounding).

use core::arch::x86_64::*;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Four f64 lanes in one `__m256d` register.
#[derive(Copy, Clone, Debug)]
#[repr(transparent)]
pub struct F64x4(pub(crate) __m256d);

/// Comparison mask: one all-ones/all-zeros 64-bit lane per element.
#[derive(Copy, Clone, Debug)]
#[repr(transparent)]
pub struct Mask4(pub(crate) __m256d);

impl Default for F64x4 {
    #[inline(always)]
    fn default() -> Self {
        Self::zero()
    }
}

impl F64x4 {
    /// All lanes set to `v` (`vbroadcastsd`).
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self(unsafe { _mm256_set1_pd(v) })
    }

    /// All lanes zero (`vxorpd`).
    #[inline(always)]
    pub fn zero() -> Self {
        Self(unsafe { _mm256_setzero_pd() })
    }

    /// Construct from an array, lane i = `a[i]`.
    #[inline(always)]
    pub fn from_array(a: [f64; 4]) -> Self {
        Self(unsafe { _mm256_loadu_pd(a.as_ptr()) })
    }

    /// Extract all lanes.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        let mut out = [0.0; 4];
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) };
        out
    }

    /// Load 4 consecutive doubles from `slice[offset..offset+4]` (`vmovupd`).
    #[inline(always)]
    pub fn load(slice: &[f64], offset: usize) -> Self {
        assert!(offset + 4 <= slice.len());
        Self(unsafe { _mm256_loadu_pd(slice.as_ptr().add(offset)) })
    }

    /// Store 4 consecutive doubles to `slice[offset..offset+4]` (`vmovupd`).
    #[inline(always)]
    pub fn store(self, slice: &mut [f64], offset: usize) {
        assert!(offset + 4 <= slice.len());
        unsafe { _mm256_storeu_pd(slice.as_mut_ptr().add(offset), self.0) };
    }

    /// Extract lane `i` (0..4).
    #[inline(always)]
    pub fn extract(self, i: usize) -> f64 {
        self.to_array()[i]
    }

    /// Replace lane `i` with `v`, returning the new vector.
    #[inline(always)]
    pub fn replace(self, i: usize, v: f64) -> Self {
        let mut a = self.to_array();
        a[i] = v;
        Self::from_array(a)
    }

    /// Fused multiply-add `self * b + c` (`vfmadd213pd`, single rounding).
    #[inline(always)]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        Self(unsafe { _mm256_fmadd_pd(self.0, b.0, c.0) })
    }

    /// Fused multiply-subtract `self * b - c` (`vfmsub213pd`).
    #[inline(always)]
    pub fn mul_sub(self, b: Self, c: Self) -> Self {
        Self(unsafe { _mm256_fmsub_pd(self.0, b.0, c.0) })
    }

    /// Lanewise square root (`vsqrtpd`).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        Self(unsafe { _mm256_sqrt_pd(self.0) })
    }

    /// Lanewise absolute value (`vandpd` with sign-bit mask).
    #[inline(always)]
    pub fn abs(self) -> Self {
        let mask = unsafe { _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFF_FFFF_FFFF_FFFF)) };
        Self(unsafe { _mm256_and_pd(self.0, mask) })
    }

    /// Lanewise minimum (`vminpd`).
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        Self(unsafe { _mm256_min_pd(self.0, o.0) })
    }

    /// Lanewise maximum (`vmaxpd`).
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        Self(unsafe { _mm256_max_pd(self.0, o.0) })
    }

    /// Exact lanewise reciprocal square root (`vsqrtpd` + `vdivpd`).
    #[inline(always)]
    pub fn rsqrt(self) -> Self {
        Self::splat(1.0) / self.sqrt()
    }

    /// Fast lanewise reciprocal square root: Lomont bit trick done with
    /// integer SIMD (`vpsrlq` + `vpsubq`) followed by `iters` Newton steps.
    #[inline(always)]
    pub fn rsqrt_fast(self, iters: u32) -> Self {
        unsafe {
            let magic = _mm256_set1_epi64x(0x5FE6_EB50_C7B5_37A9u64 as i64);
            let i = _mm256_castpd_si256(self.0);
            let i = _mm256_sub_epi64(magic, _mm256_srli_epi64::<1>(i));
            let mut y = Self(_mm256_castsi256_pd(i));
            let half = Self::splat(0.5) * self;
            let three_halves = Self::splat(1.5);
            for _ in 0..iters {
                y = y * (three_halves - half * y * y);
            }
            y
        }
    }

    /// Horizontal sum: `(l0+l2) + (l1+l3)` (`vextractf128` + adds).
    #[inline(always)]
    pub fn hsum(self) -> f64 {
        unsafe {
            let hi = _mm256_extractf128_pd::<1>(self.0);
            let lo = _mm256_castpd256_pd128(self.0);
            let s = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
            let shuf = _mm_unpackhi_pd(s, s);
            _mm_cvtsd_f64(_mm_add_sd(s, shuf))
        }
    }

    /// Horizontal sum broadcast to all lanes.
    #[inline(always)]
    pub fn hsum_splat(self) -> Self {
        unsafe {
            // [l0+l2, l1+l3, l2+l0, l3+l1]
            let swapped = _mm256_permute2f128_pd::<0x01>(self.0, self.0);
            let s = _mm256_add_pd(self.0, swapped);
            // add the lane-swapped pairs: every lane becomes (l0+l2)+(l1+l3)
            let shuf = _mm256_shuffle_pd::<0b0101>(s, s);
            Self(_mm256_add_pd(s, shuf))
        }
    }

    /// Broadcast lane `I` to all lanes (`vpermpd`).
    #[inline(always)]
    pub fn broadcast_lane<const I: usize>(self) -> Self {
        unsafe {
            match I {
                0 => Self(_mm256_permute4x64_pd::<0b00_00_00_00>(self.0)),
                1 => Self(_mm256_permute4x64_pd::<0b01_01_01_01>(self.0)),
                2 => Self(_mm256_permute4x64_pd::<0b10_10_10_10>(self.0)),
                3 => Self(_mm256_permute4x64_pd::<0b11_11_11_11>(self.0)),
                _ => unreachable!("lane index out of range"),
            }
        }
    }

    /// Arbitrary lane permutation: result lane i = `self[[A,B,C,D][i]]`.
    ///
    /// Written as a scalar shuffle; LLVM lowers it to `vpermpd`/`vshufpd`
    /// sequences. The hot kernels only use [`Self::broadcast_lane`] and
    /// [`Self::rotate_lanes_left`], which map to a single `vpermpd`.
    #[inline(always)]
    pub fn permute<const A: usize, const B: usize, const C: usize, const D: usize>(self) -> Self {
        let a = self.to_array();
        Self::from_array([a[A], a[B], a[C], a[D]])
    }

    /// Rotate lanes left by one: `[l1, l2, l3, l0]` (`vpermpd` imm 0x39).
    #[inline(always)]
    pub fn rotate_lanes_left(self) -> Self {
        Self(unsafe { _mm256_permute4x64_pd::<0b00_11_10_01>(self.0) })
    }

    /// Lanewise `self < o` (`vcmppd` LT_OQ).
    #[inline(always)]
    pub fn lt(self, o: Self) -> Mask4 {
        Mask4(unsafe { _mm256_cmp_pd::<_CMP_LT_OQ>(self.0, o.0) })
    }

    /// Lanewise `self <= o` (`vcmppd` LE_OQ).
    #[inline(always)]
    pub fn le(self, o: Self) -> Mask4 {
        Mask4(unsafe { _mm256_cmp_pd::<_CMP_LE_OQ>(self.0, o.0) })
    }

    /// Lanewise `self == o` (`vcmppd` EQ_OQ).
    #[inline(always)]
    pub fn eq(self, o: Self) -> Mask4 {
        Mask4(unsafe { _mm256_cmp_pd::<_CMP_EQ_OQ>(self.0, o.0) })
    }

    /// Lanewise `self > o`.
    #[inline(always)]
    pub fn gt(self, o: Self) -> Mask4 {
        Mask4(unsafe { _mm256_cmp_pd::<_CMP_GT_OQ>(self.0, o.0) })
    }

    /// Lanewise `self >= o`.
    #[inline(always)]
    pub fn ge(self, o: Self) -> Mask4 {
        Mask4(unsafe { _mm256_cmp_pd::<_CMP_GE_OQ>(self.0, o.0) })
    }
}

impl Mask4 {
    /// True if any lane is set (`vmovmskpd` != 0).
    #[inline(always)]
    pub fn any(self) -> bool {
        self.bitmask() != 0
    }

    /// True if all lanes are set (`vmovmskpd` == 0b1111).
    #[inline(always)]
    pub fn all(self) -> bool {
        self.bitmask() == 0b1111
    }

    /// Lanewise select: lane i = if mask { a } else { b } (`vblendvpd`).
    #[inline(always)]
    pub fn select(self, a: F64x4, b: F64x4) -> F64x4 {
        F64x4(unsafe { _mm256_blendv_pd(b.0, a.0, self.0) })
    }

    /// Lanewise logical and (`vandpd`).
    #[inline(always)]
    pub fn and(self, o: Self) -> Self {
        Mask4(unsafe { _mm256_and_pd(self.0, o.0) })
    }

    /// Lanewise logical or (`vorpd`).
    #[inline(always)]
    pub fn or(self, o: Self) -> Self {
        Mask4(unsafe { _mm256_or_pd(self.0, o.0) })
    }

    /// Bitmask of set lanes (bit i = lane i), `vmovmskpd`.
    #[inline(always)]
    pub fn bitmask(self) -> u8 {
        (unsafe { _mm256_movemask_pd(self.0) }) as u8 & 0b1111
    }
}

impl Add for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Self(unsafe { _mm256_add_pd(self.0, o.0) })
    }
}

impl Sub for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Self(unsafe { _mm256_sub_pd(self.0, o.0) })
    }
}

impl Mul for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        Self(unsafe { _mm256_mul_pd(self.0, o.0) })
    }
}

impl Div for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        Self(unsafe { _mm256_div_pd(self.0, o.0) })
    }
}

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
        Self::zero() - self
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
    use super::F64x4 as V;
    use crate::scalar::F64x4 as S;

    const CASES: [[f64; 4]; 6] = [
        [1.0, 2.0, 3.0, 4.0],
        [0.0, -1.0, 1e-10, 1e10],
        [0.25, 0.25, 0.25, 0.25],
        [-3.5, 7.25, -0.125, 9.75],
        [1e-300, 1e300, 2.0, 0.5],
        [0.1, 0.2, 0.3, 0.4],
    ];

    fn pairs() -> impl Iterator<Item = ([f64; 4], [f64; 4])> {
        CASES
            .iter()
            .flat_map(|a| CASES.iter().map(move |b| (*a, *b)))
    }

    /// Bitwise equality so NaN lanes (e.g. 0/0) compare equal across backends.
    #[track_caller]
    fn assert_bits_eq(l: [f64; 4], r: [f64; 4]) {
        assert_eq!(l.map(f64::to_bits), r.map(f64::to_bits), "{l:?} vs {r:?}");
    }

    #[test]
    fn binops_match_scalar() {
        for (a, b) in pairs() {
            let (va, vb) = (V::from_array(a), V::from_array(b));
            let (sa, sb) = (S::from_array(a), S::from_array(b));
            assert_bits_eq((va + vb).to_array(), (sa + sb).to_array());
            assert_bits_eq((va - vb).to_array(), (sa - sb).to_array());
            assert_bits_eq((va * vb).to_array(), (sa * sb).to_array());
            assert_bits_eq((va / vb).to_array(), (sa / sb).to_array());
            assert_bits_eq(va.min(vb).to_array(), sa.min(sb).to_array());
            assert_bits_eq(va.max(vb).to_array(), sa.max(sb).to_array());
            assert_bits_eq(
                va.mul_add(vb, V::splat(0.7)).to_array(),
                sa.mul_add(sb, S::splat(0.7)).to_array(),
            );
            assert_bits_eq(
                va.mul_sub(vb, V::splat(0.7)).to_array(),
                sa.mul_sub(sb, S::splat(0.7)).to_array(),
            );
        }
    }

    #[test]
    fn unops_match_scalar() {
        for a in CASES {
            let va = V::from_array(a);
            let sa = S::from_array(a);
            assert_eq!(va.abs().to_array(), sa.abs().to_array());
            assert_eq!((-va).to_array(), (-sa).to_array());
            assert_eq!(va.hsum(), sa.hsum());
            assert_eq!(va.hsum_splat().to_array(), sa.hsum_splat().to_array());
            assert_eq!(
                va.rotate_lanes_left().to_array(),
                sa.rotate_lanes_left().to_array()
            );
            assert_eq!(
                va.broadcast_lane::<2>().to_array(),
                sa.broadcast_lane::<2>().to_array()
            );
            assert_eq!(
                va.permute::<3, 1, 0, 2>().to_array(),
                sa.permute::<3, 1, 0, 2>().to_array()
            );
        }
    }

    #[test]
    fn sqrt_family_match_scalar() {
        for a in CASES {
            if a.iter().any(|&x| x <= 0.0) {
                continue;
            }
            let va = V::from_array(a);
            let sa = S::from_array(a);
            assert_eq!(va.sqrt().to_array(), sa.sqrt().to_array());
            assert_eq!(va.rsqrt().to_array(), sa.rsqrt().to_array());
            assert_eq!(va.rsqrt_fast(3).to_array(), sa.rsqrt_fast(3).to_array());
        }
    }

    #[test]
    fn masks_match_scalar() {
        for (a, b) in pairs() {
            let (va, vb) = (V::from_array(a), V::from_array(b));
            let (sa, sb) = (S::from_array(a), S::from_array(b));
            assert_eq!(va.lt(vb).bitmask(), sa.lt(sb).bitmask());
            assert_eq!(va.le(vb).bitmask(), sa.le(sb).bitmask());
            assert_eq!(va.eq(vb).bitmask(), sa.eq(sb).bitmask());
            assert_eq!(va.eq(va).bitmask(), sa.eq(sa).bitmask());
            assert_eq!(va.gt(vb).bitmask(), sa.gt(sb).bitmask());
            assert_eq!(va.ge(vb).bitmask(), sa.ge(sb).bitmask());
            let m = va.lt(vb);
            let sm = sa.lt(sb);
            assert_eq!(m.select(va, vb).to_array(), sm.select(sa, sb).to_array());
            assert_eq!(m.any(), sm.any());
            assert_eq!(m.all(), sm.all());
        }
    }

    #[test]
    fn lane_access() {
        let v = V::from_array([9.0, 8.0, 7.0, 6.0]);
        assert_eq!(v.extract(0), 9.0);
        assert_eq!(v.extract(3), 6.0);
        assert_eq!(v.replace(1, 0.5).to_array(), [9.0, 0.5, 7.0, 6.0]);
    }
}
