//! Specialized scalar µ-kernel (optimization-ladder rung 1).
//!
//! The µ-update (Eq. 3) evaluates, at staggered faces, the gradient flux
//! M(φ)∇µ (D3C7) and the anti-trapping current J_at (D3C19, Eq. 4), plus the
//! local phase-change source and temperature drift. "The computationally
//! most intensive part of equation (3) is the calculation of the divergence
//! of v_buf := (M∇µ − J_at)". The T(z), staggered-buffer and shortcut rungs
//! of Fig. 6 build on the explicit-SIMD kernel only, so this kernel ignores
//! those three [`crate::kernels::KernelConfig`] flags.
//!
//! The sweep supports the Algorithm-2 split ([`MuPart`]): `LocalOnly`
//! updates with everything except J_at (local φ dependency only), and
//! `NeighborOnly` adds −∇·J_at afterwards, once the φ_dst ghost layers have
//! arrived.

use crate::kernels::{get2, get4, MuPart};
use crate::model::{
    jat_face_flux, mu_cell_update, mu_face_flux_gradient, phase_change_source, susceptibility,
    temp_drift,
};
use crate::params::ModelParams;
use crate::state::BlockState;
use crate::temperature::SliceCtx;
use crate::{N_COMP, N_PHASES};

/// Scalar µ-sweep of the z-slices `z0..z1` (see
/// [`crate::kernels::scalar_phi::phi_sweep_scalar_range`] for the
/// coordinate convention and the slab-partition argument).
pub(super) fn mu_sweep_scalar_range(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    part: MuPart,
    z0: usize,
    z1: usize,
) {
    let dims = state.dims;
    let g = dims.ghost;
    let (nx, ny, nz) = (dims.nx, dims.ny, dims.nz);
    debug_assert!(g <= z0 && z0 <= z1 && z1 <= g + nz);
    let (sy, sz) = (dims.sy(), dims.sz());
    let origin_z = state.origin[2] as isize;
    let dt = params.dt;

    let cx = SweepCtx::new(params, sy, sz, part);
    let accumulate = part == MuPart::NeighborOnly;

    // `black_box` keeps the per-cell temperature recomputation of this rung
    // from being hoisted by loop-invariant code motion (see scalar_phi.rs).
    let temp_of = |z: usize| -> f64 {
        let gz = origin_z as f64 + z as f64 - g as f64;
        std::hint::black_box(params.temperature(gz, time))
    };
    let zface_ctx =
        |z: usize| -> SliceCtx { SliceCtx::at(params, 0.5 * (temp_of(z) + temp_of(z + 1))) };

    let BlockState {
        phi_src,
        phi_dst,
        mu_src,
        mu_dst,
        ..
    } = state;
    let ps = phi_src.comps();
    let pd = phi_dst.comps();
    let ms = mu_src.comps();
    let md = mu_dst.comps_mut();

    let face = |ctx_face: &SliceCtx, il: usize, ir: usize, axis: usize| {
        cx.face_flux::<false>(&ps, &pd, &ms, ctx_face, il, ir, axis)
    };

    for z in z0..z1 {
        for y in g..g + ny {
            for x in g..g + nx {
                let i = dims.idx(x, y, z);
                let ctx = SliceCtx::at(params, temp_of(z));
                let (czl, czh) = (zface_ctx(z - 1), zface_ctx(z));

                let f_xl = face(&ctx, i - 1, i, 0);
                let f_yl = face(&ctx, i - sy, i, 1);
                let f_zl = face(&czl, i - sz, i, 2);
                let f_xh = face(&ctx, i, i + 1, 0);
                let f_yh = face(&ctx, i, i + sy, 1);
                let f_zh = face(&czh, i, i + sz, 2);

                let div = [
                    (f_xh[0] - f_xl[0] + f_yh[0] - f_yl[0] + f_zh[0] - f_zl[0]) * cx.inv_dx,
                    (f_xh[1] - f_xl[1] + f_yh[1] - f_yl[1] + f_zh[1] - f_zl[1]) * cx.inv_dx,
                ];

                let phi_old = get4(&ps, i);
                let chi = susceptibility(&ctx, phi_old);

                if accumulate {
                    md[0][i] += dt * div[0] / chi[0];
                    md[1][i] += dt * div[1] / chi[1];
                    continue;
                }

                let mu = get2(&ms, i);
                let source = phase_change_source(&ctx, phi_old, get4(&pd, i), mu, cx.inv_dt);
                let drift = temp_drift(&cx.dc_dt, phi_old, params.dtemp_dt());
                let out = mu_cell_update(mu, div, source, drift, chi, dt);
                md[0][i] = out[0];
                md[1][i] = out[1];
            }
        }
    }
}

/// Everything a face-flux evaluation needs, bundled to keep signatures sane.
/// Shared with the four-cell SIMD kernel's scalar remainder path.
pub(crate) struct SweepCtx<'a> {
    #[allow(dead_code)]
    pub(crate) params: &'a ModelParams,
    pub(crate) inv_dx: f64,
    pub(crate) inv_dt: f64,
    pub(crate) atc_pref: f64,
    pub(crate) dc_dt: [[f64; N_COMP]; N_PHASES],
    pub(crate) sy: usize,
    pub(crate) sz: usize,
    pub(crate) with_grad: bool,
    pub(crate) with_jat: bool,
}

impl SweepCtx<'_> {
    /// Build for a given part/flags combination.
    pub(crate) fn new(params: &ModelParams, sy: usize, sz: usize, part: MuPart) -> SweepCtx<'_> {
        SweepCtx {
            params,
            inv_dx: 1.0 / params.dx,
            inv_dt: 1.0 / params.dt,
            atc_pref: params.atc_prefactor(),
            dc_dt: params.dc_dt_coeffs(),
            sy,
            sz,
            with_grad: part != MuPart::NeighborOnly,
            with_jat: params.enable_atc && part != MuPart::LocalOnly,
        }
    }

    /// Transverse strides of `axis`.
    #[inline(always)]
    fn trans(&self, axis: usize) -> (usize, usize) {
        match axis {
            0 => (self.sy, self.sz),
            1 => (1, self.sz),
            _ => (1, self.sy),
        }
    }

    /// Combined staggered face flux `M∇µ − J_at` (restricted by
    /// `with_grad`/`with_jat` for the split parts) between linear cells
    /// `il` and `ir = il + stride(axis)`.
    ///
    /// `SC` enables the early-out shortcut branches; they are bit-exact with
    /// the branchless indicator guards inside [`jat_face_flux`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn face_flux<const SC: bool>(
        &self,
        ps: &[&[f64]; N_PHASES],
        pd: &[&[f64]; N_PHASES],
        ms: &[&[f64]; N_COMP],
        ctx_face: &SliceCtx,
        il: usize,
        ir: usize,
        axis: usize,
    ) -> [f64; N_COMP] {
        let phi_l = get4(ps, il);
        let phi_r = get4(ps, ir);
        let mut flux = [0.0; N_COMP];
        if self.with_grad {
            let mu_l = get2(ms, il);
            let mu_r = get2(ms, ir);
            flux = mu_face_flux_gradient(ctx_face, phi_l, phi_r, mu_l, mu_r, self.inv_dx);
        }
        if self.with_jat {
            if SC {
                // Shortcut 1: no liquid at the face → J_at = 0.
                let pl = 0.5 * (phi_l[crate::LIQ] + phi_r[crate::LIQ]);
                if pl <= 0.0 {
                    return flux;
                }
                // Shortcut 2: zero liquid gradient (bulk liquid) → J_at = 0.
                let gl = self.face_gradient(ps, il, ir, axis, crate::LIQ);
                if gl[0] * gl[0] + gl[1] * gl[1] + gl[2] * gl[2] == 0.0 {
                    return flux;
                }
            }
            let phi_f: [f64; N_PHASES] = core::array::from_fn(|a| 0.5 * (phi_l[a] + phi_r[a]));
            let grad_f: [[f64; 3]; N_PHASES] =
                core::array::from_fn(|a| self.face_gradient(ps, il, ir, axis, a));
            let dphidt_f: [f64; N_PHASES] = core::array::from_fn(|a| {
                0.5 * ((pd[a][il] - ps[a][il]) + (pd[a][ir] - ps[a][ir])) * self.inv_dt
            });
            let mu_l = get2(ms, il);
            let mu_r = get2(ms, ir);
            let mu_f = [0.5 * (mu_l[0] + mu_r[0]), 0.5 * (mu_l[1] + mu_r[1])];
            let jat = jat_face_flux(
                ctx_face,
                self.atc_pref,
                &phi_f,
                &grad_f,
                &dphidt_f,
                mu_f,
                axis,
            );
            flux[0] -= jat[0];
            flux[1] -= jat[1];
        }
        flux
    }

    /// Full 3-component gradient of φ_a at the face between `il` and `ir`:
    /// normal from the face difference, transverse from averaged central
    /// differences (the D3C19 accesses of the µ-kernel).
    #[inline(always)]
    fn face_gradient(
        &self,
        ps: &[&[f64]; N_PHASES],
        il: usize,
        ir: usize,
        axis: usize,
        a: usize,
    ) -> [f64; 3] {
        let (se1, se2) = self.trans(axis);
        let p = ps[a];
        let normal = (p[ir] - p[il]) * self.inv_dx;
        let t1 = 0.25 * self.inv_dx * ((p[il + se1] - p[il - se1]) + (p[ir + se1] - p[ir - se1]));
        let t2 = 0.25 * self.inv_dx * ((p[il + se2] - p[il - se2]) + (p[ir + se2] - p[ir - se2]));
        match axis {
            0 => [normal, t1, t2],
            1 => [t1, normal, t2],
            _ => [t1, t2, normal],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{mu_sweep, OptLevel};
    use eutectica_blockgrid::GridDims;

    /// Random valid state with φ_dst slightly evolved from φ_src (as after a
    /// φ-sweep), so the source and J_at terms are exercised.
    fn random_state(seed: u64, n: usize) -> BlockState {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dims = GridDims::cube(n);
        let mut s = BlockState::new(dims, [0, 0, 0]);
        for z in 0..dims.tz() {
            for y in 0..dims.ty() {
                for x in 0..dims.tx() {
                    let raw: [f64; 4] = core::array::from_fn(|_| rng.random_range(0.0..1.0));
                    let phi = crate::simplex::project_to_simplex(raw);
                    s.phi_src.set_cell(x, y, z, phi);
                    let nudged: [f64; 4] =
                        core::array::from_fn(|a| phi[a] + rng.random_range(-0.02..0.02));
                    s.phi_dst
                        .set_cell(x, y, z, crate::simplex::project_to_simplex(nudged));
                    s.mu_src.set_cell(
                        x,
                        y,
                        z,
                        [rng.random_range(-0.2..0.2), rng.random_range(-0.2..0.2)],
                    );
                }
            }
        }
        s
    }

    fn max_mu_diff(a: &BlockState, b: &BlockState) -> f64 {
        let mut m = 0.0f64;
        for c in 0..2 {
            for (x, y) in a.mu_dst.comp(c).iter().zip(b.mu_dst.comp(c)) {
                m = m.max((x - y).abs());
            }
        }
        m
    }

    #[test]
    fn split_parts_compose_to_full() {
        let base = random_state(5, 6);
        let p = ModelParams::ag_al_cu();
        let cfg = OptLevel::Basic.config();
        let mut full = base.clone();
        mu_sweep(&p, &mut full, 1.0, cfg, MuPart::Full);
        let mut split = base.clone();
        mu_sweep(&p, &mut split, 1.0, cfg, MuPart::LocalOnly);
        mu_sweep(&p, &mut split, 1.0, cfg, MuPart::NeighborOnly);
        let d = max_mu_diff(&full, &split);
        assert!(d < 1e-13, "split composition diverged by {d:e}");
    }

    #[test]
    fn uniform_equilibrium_is_stationary() {
        // Pure liquid at µ = 0, T arbitrary, no φ motion: µ must stay put
        // except for the temperature drift of the liquid.
        let mut p = ModelParams::ag_al_cu();
        p.vel_v = 0.0; // no drift
        let dims = GridDims::cube(5);
        let mut s = BlockState::new(dims, [0, 0, 0]);
        s.sync_dst_from_src();
        mu_sweep(&p, &mut s, 0.0, OptLevel::Basic.config(), MuPart::Full);
        for (x, y, z) in dims.interior_iter() {
            let mu = s.mu_dst.cell(x, y, z);
            assert!(
                mu[0].abs() < 1e-14 && mu[1].abs() < 1e-14,
                "µ drifted: {mu:?}"
            );
        }
    }

    #[test]
    fn temperature_drift_raises_mu_when_cooling() {
        // With v > 0 the temperature at fixed z drops; the liquidus line
        // c_eq moves, so µ (measured from equilibrium) must respond through
        // the drift term −(∂c/∂T)(∂T/∂t) with ∂T/∂t < 0 and s > 0 → ∂µ/∂t>0.
        let p = ModelParams::ag_al_cu();
        assert!(p.vel_v > 0.0);
        let dims = GridDims::cube(4);
        let mut s = BlockState::new(dims, [0, 0, 0]);
        s.sync_dst_from_src();
        mu_sweep(&p, &mut s, 0.0, OptLevel::Basic.config(), MuPart::Full);
        let mu = s.mu_dst.cell(2, 2, 2);
        assert!(
            mu[0] > 0.0 && mu[1] > 0.0,
            "expected warming drift, got {mu:?}"
        );
    }

    #[test]
    fn mu_diffuses_towards_uniformity_in_liquid() {
        let mut p = ModelParams::ag_al_cu();
        p.vel_v = 0.0;
        let dims = GridDims::cube(6);
        let mut s = BlockState::new(dims, [0, 0, 0]);
        // A µ bump in the middle.
        s.mu_src.set_cell(3, 3, 3, [0.5, -0.5]);
        s.sync_dst_from_src();
        s.apply_bc_src();
        let var_before = mu_variance(&s);
        for step in 0..10 {
            mu_sweep(
                &p,
                &mut s,
                step as f64 * p.dt,
                OptLevel::Basic.config(),
                MuPart::Full,
            );
            s.mu_src.swap(&mut s.mu_dst);
            s.bc_mu.apply(&mut s.mu_src);
        }
        let var_after = mu_variance(&s);
        assert!(
            var_after < 0.5 * var_before,
            "no diffusion: {var_before} -> {var_after}"
        );
    }

    fn mu_variance(s: &BlockState) -> f64 {
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let mut n = 0.0;
        for (x, y, z) in s.dims.interior_iter() {
            let v = s.mu_src.at(0, x, y, z);
            sum += v;
            sum2 += v * v;
            n += 1.0;
        }
        sum2 / n - (sum / n) * (sum / n)
    }

    #[test]
    fn mass_is_conserved_in_closed_system() {
        // Fully periodic, no temperature motion: total mixture concentration
        // Σ_cells c(φ, µ) is conserved by construction of the source term.
        use eutectica_blockgrid::boundary::{Bc, BoundarySpec};
        let mut p = ModelParams::ag_al_cu();
        p.vel_v = 0.0;
        p.grad_g = 0.0;
        let dims = GridDims::cube(6);
        let mut s = random_state(17, 6);
        s.bc_phi = BoundarySpec::uniform(Bc::Periodic);
        s.bc_mu = BoundarySpec::uniform(Bc::Periodic);
        // Make dst = src so there is no phase motion (isolate flux terms).
        s.phi_dst = s.phi_src.clone();
        s.apply_bc_src();
        s.bc_phi.apply(&mut s.phi_dst);

        let ctx = SliceCtx::at(&p, p.t0);
        let total = |field: &BlockState, use_dst: bool| -> [f64; 2] {
            let mut t = [0.0; 2];
            for (x, y, z) in dims.interior_iter() {
                let phi = field.phi_src.cell(x, y, z);
                let mu = if use_dst {
                    field.mu_dst.cell(x, y, z)
                } else {
                    field.mu_src.cell(x, y, z)
                };
                let c = crate::model::mixture_concentration(&ctx, phi, mu);
                t[0] += c[0];
                t[1] += c[1];
            }
            t
        };
        let before = total(&s, false);
        mu_sweep(&p, &mut s, 0.0, OptLevel::Basic.config(), MuPart::Full);
        let after = total(&s, true);
        for i in 0..2 {
            assert!(
                (after[i] - before[i]).abs() < 1e-10 * before[i].abs().max(1.0),
                "component {i} drifted: {before:?} -> {after:?}"
            );
        }
    }
}
