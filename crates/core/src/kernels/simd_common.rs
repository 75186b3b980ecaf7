//! Shared helpers for the explicitly vectorized kernels.
//!
//! Everything here is generic over the ISA backend `V:`[`SimdF64x4`], so the
//! vectorized kernels can be instantiated per ISA by
//! [`eutectica_simd::dispatch`].
//!
//! **No closures around `V`.** Anything that touches a `V` is an
//! `#[inline(always)]` generic fn with explicit arguments, and per-phase /
//! per-component arrays are built with `per_phase!` / `per_comp!` instead of
//! `core::array::from_fn(|a| …)`; [`eutectica_simd::IsaGeneric::run`] says
//! why, and the CI `kernel-codegen` step enforces it on the release
//! binaries.

use crate::params::ModelParams;
use crate::temperature::SliceCtx;
use crate::{N_COMP, N_PHASES};
use eutectica_simd::{SimdF64x4, SimdMask4};

/// `[f(0), f(1), f(2), f(3)]` with the body expanded in place — the
/// closure-free replacement for `core::array::from_fn` over the phases.
macro_rules! per_phase {
    (|$a:ident| $body:expr) => {
        [
            {
                let $a = 0usize;
                $body
            },
            {
                let $a = 1usize;
                $body
            },
            {
                let $a = 2usize;
                $body
            },
            {
                let $a = 3usize;
                $body
            },
        ]
    };
}
pub(crate) use per_phase;

/// `[f(0), f(1)]` over the chemical components; see `per_phase!`.
macro_rules! per_comp {
    (|$i:ident| $body:expr) => {
        [
            {
                let $i = 0usize;
                $body
            },
            {
                let $i = 1usize;
                $body
            },
        ]
    };
}
pub(crate) use per_comp;

const _: () = assert!(N_PHASES == 4 && N_COMP == 2);

/// Gather the 4 phase values of one cell from the SoA planes into a vector
/// (lane α = φ_α). This is the cost of running the cellwise φ-kernel on a
/// SoA field; the paper measured it to be negligible thanks to the kernel's
/// high arithmetic intensity (Sec. 5.1.1).
#[inline(always)]
pub fn gather_cell4<V: SimdF64x4>(comps: &[&[f64]; N_PHASES], i: usize) -> V {
    V::from_array([comps[0][i], comps[1][i], comps[2][i], comps[3][i]])
}

/// Scatter a phase vector back to the SoA planes.
#[inline(always)]
pub fn scatter_cell4<V: SimdF64x4>(comps: &mut [&mut [f64]; N_PHASES], i: usize, v: V) {
    let a = v.to_array();
    comps[0][i] = a[0];
    comps[1][i] = a[1];
    comps[2][i] = a[2];
    comps[3][i] = a[3];
}

/// 4×4 matrix–vector product with the matrix stored as column vectors:
/// `(M v)_α = Σ_β M_αβ v_β`. Three FMAs and four lane broadcasts
/// (`vpermpd`) — the "various permute or rotate operations" the cellwise
/// strategy pays for (Sec. 5.1.1).
#[inline(always)]
pub fn matvec<V: SimdF64x4>(cols: &[V; N_PHASES], v: V) -> V {
    let r = cols[0] * v.broadcast_lane::<0>();
    let r = cols[1].mul_add(v.broadcast_lane::<1>(), r);
    let r = cols[2].mul_add(v.broadcast_lane::<2>(), r);
    cols[3].mul_add(v.broadcast_lane::<3>(), r)
}

/// γ matrix as column vectors (symmetric, so columns = rows).
#[inline(always)]
pub fn gamma_cols<V: SimdF64x4>(gamma: &[[f64; N_PHASES]; N_PHASES]) -> [V; N_PHASES] {
    per_phase!(|b| V::from_array(per_phase!(|a| gamma[a][b])))
}

/// Per-slice thermodynamic constants in lane-per-phase layout for the
/// cellwise φ-kernel.
#[derive(Copy, Clone, Debug)]
pub struct SliceCtxV<V: SimdF64x4> {
    /// c^eq_α per component, lane α = phase.
    pub c_eq: [V; N_COMP],
    /// Grand-potential offsets X_α, lane α = phase.
    pub offset: V,
    /// 1/(4k_α,i(T)) per component, lane α = phase.
    pub inv4k: [V; N_COMP],
    /// T·ε.
    pub pref_grad: f64,
    /// 16T/(π²ε).
    pub pref_obst: f64,
}

impl<V: SimdF64x4> SliceCtxV<V> {
    /// Convert a scalar slice context.
    #[inline(always)]
    pub fn from_ctx(ctx: &SliceCtx) -> Self {
        Self {
            c_eq: per_comp!(|i| V::from_array(per_phase!(|a| ctx.c_eq[a][i]))),
            offset: V::from_array(ctx.offset),
            inv4k: per_comp!(|i| V::from_array(per_phase!(|a| ctx.inv4k[a][i]))),
            pref_grad: ctx.pref_grad,
            pref_obst: ctx.pref_obst,
        }
    }
}

/// Lane-parallel Gibbs-simplex projection for four independent cells:
/// `phi[α]` holds phase α of all four cells. Mirrors
/// [`crate::simplex::project_to_simplex`] with compare/select instead of
/// branches.
#[inline(always)]
pub fn simplex_project_lanes<V: SimdF64x4>(phi: [V; N_PHASES]) -> [V; N_PHASES] {
    // Sorting network (descending) across the four phase registers.
    #[inline(always)]
    fn cswap<V: SimdF64x4>(a: V, b: V) -> (V, V) {
        (a.max(b), a.min(b))
    }
    let [p0, p1, p2, p3] = phi;
    let (u0, u1) = cswap(p0, p1);
    let (u2, u3) = cswap(p2, p3);
    let (u0, u2) = cswap(u0, u2);
    let (u1, u3) = cswap(u1, u3);
    let (u1, u2) = cswap(u1, u2);
    let sorted = [u0, u1, u2, u3];

    let one = V::splat(1.0);
    let zero = V::zero();
    let mut cumsum = zero;
    let mut lambda = zero;
    for (j, u) in sorted.iter().enumerate() {
        cumsum += *u;
        let l = (one - cumsum) * V::splat(1.0 / (j as f64 + 1.0));
        let mask = (*u + l).gt(zero);
        lambda = mask.select(l, lambda);
    }
    per_phase!(|a| (phi[a] + lambda).max(zero))
}

/// Four consecutive x-cells of every phase plane starting at linear index
/// `i` (lanes = cells).
#[inline(always)]
pub(crate) fn load_cells4<V: SimdF64x4>(comps: &[&[f64]; N_PHASES], i: usize) -> [V; N_PHASES] {
    per_phase!(|a| V::load(comps[a], i))
}

/// Lanes (= cells) in which every phase of `a` equals the same phase of `b`.
#[inline(always)]
pub(crate) fn cells_eq_mask<V: SimdF64x4>(a: &[V; N_PHASES], b: &[V; N_PHASES]) -> V::Mask {
    a[0].eq(b[0])
        .and(a[1].eq(b[1]))
        .and(a[2].eq(b[2]))
        .and(a[3].eq(b[3]))
}

/// Slice contexts recomputed from the temperature on every call — what the
/// rungs below "T(z)" do per cell / per group instead of reading a
/// [`crate::temperature::SliceTable`]. `black_box` keeps the recomputation
/// from being hoisted (see `scalar_phi.rs`).
#[derive(Copy, Clone)]
pub(crate) struct RecomputedSlices<'a> {
    /// Model parameters.
    pub params: &'a ModelParams,
    /// Global z of the block's first interior slice.
    pub origin_z: isize,
    /// Ghost width.
    pub ghost: usize,
    /// Simulation time.
    pub time: f64,
}

impl RecomputedSlices<'_> {
    /// Temperature of total slice `z`.
    #[inline(always)]
    pub fn temperature(&self, z: usize) -> f64 {
        let gz = self.origin_z as f64 + z as f64 - self.ghost as f64;
        std::hint::black_box(self.params.temperature(gz, self.time))
    }

    /// Cell-centred context of total slice `z`.
    #[inline(always)]
    pub fn cell(&self, z: usize) -> SliceCtx {
        SliceCtx::at(self.params, self.temperature(z))
    }

    /// Context of the z-face between total slices `z` and `z + 1`.
    #[inline(always)]
    pub fn zface(&self, z: usize) -> SliceCtx {
        SliceCtx::at(
            self.params,
            0.5 * (self.temperature(z) + self.temperature(z + 1)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Outside `eutectica_simd::dispatch` the AVX2 type is still legal on any
    // x86-64 host (the intrinsics are legalized to narrower ops), just slow.

    fn check_matvec<V: SimdF64x4>() {
        let gamma = crate::params::ModelParams::ag_al_cu().gamma;
        let cols = gamma_cols::<V>(&gamma);
        let v = V::from_array([0.1, 0.2, 0.3, 0.4]);
        let got = matvec(&cols, v).to_array();
        for a in 0..4 {
            let want: f64 = (0..4).map(|b| gamma[a][b] * v.extract(b)).sum();
            assert!((got[a] - want).abs() < 1e-14, "row {a}");
        }
    }

    #[test]
    fn matvec_matches_scalar() {
        check_matvec::<eutectica_simd::scalar::F64x4>();
        #[cfg(target_arch = "x86_64")]
        check_matvec::<eutectica_simd::avx2::F64x4>();
    }

    fn check_lane_projection<V: SimdF64x4>() {
        let cells = [
            [1.2, -0.1, -0.05, -0.05],
            [0.25, 0.25, 0.25, 0.25],
            [0.9, 0.4, -0.2, 0.1],
            [0.0, 1.0, 0.0, 0.0],
        ];
        // Transpose into per-phase lanes.
        let phi: [V; 4] =
            core::array::from_fn(|a| V::from_array(core::array::from_fn(|c| cells[c][a])));
        let out = simplex_project_lanes(phi);
        for (c, cell) in cells.iter().enumerate() {
            let want = crate::simplex::project_to_simplex(*cell);
            for a in 0..4 {
                assert!(
                    (out[a].extract(c) - want[a]).abs() < 1e-14,
                    "cell {c} phase {a}: {} vs {}",
                    out[a].extract(c),
                    want[a]
                );
            }
        }
    }

    #[test]
    fn lane_projection_matches_scalar_projection() {
        check_lane_projection::<eutectica_simd::scalar::F64x4>();
        #[cfg(target_arch = "x86_64")]
        check_lane_projection::<eutectica_simd::avx2::F64x4>();
    }
}
