//! The "general purpose C code" rung: a runtime-N/K implementation with
//! per-cell dynamic dispatch.
//!
//! The paper's starting point was PACE3D, "a general phase-field code
//! written in C" whose "main design goal ... is flexibility", making "heavy
//! use of indirect function calls via function pointers at cell level"
//! (Sec. 5.1.1). This module reproduces that style faithfully:
//!
//! * the number of phases and components is a *runtime* value (the loops are
//!   not unrollable at compile time),
//! * the interpolation function and the potential derivative are invoked
//!   through trait objects per cell — the Rust analog of C function
//!   pointers,
//! * no per-slice precomputation, no staggered buffering, no shortcuts:
//!   every cell does the full work.
//!
//! The per-cell routines are generic over [`Real`] so the exact
//! floating-point operation counts per cell update can be measured with the
//! [`crate::metrics::Counting`] instrumented type (the paper reports 1384
//! FLOPs per µ-cell update for its model; the roofline bench derives ours
//! the same way).

use crate::kernels::MuPart;
use crate::metrics::Real;
use crate::params::ModelParams;
use crate::state::BlockState;
use crate::{LIQ, N_COMP, N_PHASES};

/// Per-cell functions dispatched dynamically — the "function pointers at
/// cell level" of the original code.
pub trait CellFn<R: Real>: Sync {
    /// Evaluate into `out` (length N).
    fn eval(&self, phi: &[R], out: &mut [R]);
}

/// Moelans interpolation h_α = φ_α²/Σφ² as a dispatchable cell function.
pub struct MoelansInterp;

impl<R: Real> CellFn<R> for MoelansInterp {
    fn eval(&self, phi: &[R], out: &mut [R]) {
        let mut s = R::from_f64(0.0);
        for &p in phi {
            s = s + p * p;
        }
        let inv = R::from_f64(1.0) / s;
        for (o, &p) in out.iter_mut().zip(phi) {
            *o = p * p * inv;
        }
    }
}

/// Multi-obstacle potential derivative ∂ω̂/∂φ_α = Σ_β γ_αβ φ_β.
pub struct ObstacleDeriv {
    /// Surface-energy matrix, row-major, n×n.
    pub gamma: Vec<f64>,
    /// Number of phases.
    pub n: usize,
}

impl<R: Real> CellFn<R> for ObstacleDeriv {
    fn eval(&self, phi: &[R], out: &mut [R]) {
        for a in 0..self.n {
            let mut s = R::from_f64(0.0);
            for b in 0..self.n {
                s = s + R::from_f64(self.gamma[a * self.n + b]) * phi[b];
            }
            out[a] = s;
        }
    }
}

/// Runtime description of the model for the general-purpose kernel.
pub struct GeneralModel<R: Real> {
    /// Number of phases (runtime value).
    pub n: usize,
    /// Number of chemical potentials (runtime value).
    pub k: usize,
    /// γ_αβ, row-major n×n.
    pub gamma: Vec<f64>,
    /// Parabolic curvatures k_i at T_eu, n×k.
    pub curvature: Vec<f64>,
    /// Relative curvature temperature slopes κ_i, n×k.
    pub dk_dt: Vec<f64>,
    /// Diffusivities D_α, n.
    pub diffusivity: Vec<f64>,
    /// dc_eq/dT slopes, n×k.
    pub dc_dt: Vec<f64>,
    /// Eutectic concentrations, n×k.
    pub c_eu: Vec<f64>,
    /// Grand-potential latent coefficients, n.
    pub latent: Vec<f64>,
    /// Eutectic temperature.
    pub t_eu: f64,
    /// Dynamically dispatched interpolation function.
    pub interp: Box<dyn CellFn<R>>,
    /// Dynamically dispatched obstacle derivative.
    pub obstacle: Box<dyn CellFn<R>>,
    /// Precomputed temperature-dependent coefficients (the T(z)
    /// optimization). When set, coefficient lookups are free constants, so
    /// FLOP counting on this model yields the per-cell cost of the
    /// *amortized* kernels — the quantity the paper reports (1384
    /// FLOP/cell). `None` = recompute per cell (the general-purpose code).
    pub frozen: Option<FrozenCoeffs>,
}

/// Temperature-dependent coefficients evaluated once per slice.
#[derive(Clone, Debug)]
pub struct FrozenCoeffs {
    /// c^eq_α,i(T), n×k.
    pub c_eq: Vec<f64>,
    /// 1/(2k_i(T)), n×k.
    pub inv2k: Vec<f64>,
    /// 1/(4k_i(T)), n×k.
    pub inv4k: Vec<f64>,
    /// D_α/(2k_i(T)), n×k.
    pub mob: Vec<f64>,
    /// X_α(T), n.
    pub offset: Vec<f64>,
}

impl<R: Real> GeneralModel<R> {
    /// Build from the specialized parameter struct.
    pub fn from_params(p: &ModelParams) -> Self {
        let n = N_PHASES;
        let k = N_COMP;
        let mut gamma = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                gamma[a * n + b] = p.gamma[a][b];
            }
        }
        let flat = |f: &dyn Fn(usize, usize) -> f64| -> Vec<f64> {
            let mut v = vec![0.0; n * k];
            for a in 0..n {
                for i in 0..k {
                    v[a * k + i] = f(a, i);
                }
            }
            v
        };
        Self {
            n,
            k,
            gamma: gamma.clone(),
            curvature: flat(&|a, i| p.sys.phases[a].curvature[i]),
            dk_dt: flat(&|a, i| p.sys.phases[a].dk_dt[i]),
            diffusivity: (0..n).map(|a| p.sys.phases[a].diffusivity).collect(),
            dc_dt: flat(&|a, i| p.sys.dc_dt(a)[i]),
            c_eu: flat(&|a, i| p.sys.phases[a].c_eu[i]),
            latent: (0..n).map(|a| p.sys.phases[a].latent).collect(),
            t_eu: p.sys.t_eu,
            interp: Box::new(MoelansInterp),
            obstacle: Box::new(ObstacleDeriv { gamma, n }),
            frozen: None,
        }
    }

    /// Freeze all temperature-dependent coefficients at temperature `t`
    /// (per-slice precomputation; see [`GeneralModel::frozen`]).
    pub fn freeze_at(&mut self, p: &ModelParams, t: f64) {
        let (n, k) = (self.n, self.k);
        let mut f = FrozenCoeffs {
            c_eq: vec![0.0; n * k],
            inv2k: vec![0.0; n * k],
            inv4k: vec![0.0; n * k],
            mob: vec![0.0; n * k],
            offset: vec![0.0; n],
        };
        for a in 0..n {
            let ph = &p.sys.phases[a];
            let c_eq = ph.c_eq(t, self.t_eu);
            let kk = ph.curvature_at(t, self.t_eu);
            for i in 0..k {
                f.c_eq[a * k + i] = c_eq[i];
                f.inv2k[a * k + i] = 1.0 / (2.0 * kk[i]);
                f.inv4k[a * k + i] = 1.0 / (4.0 * kk[i]);
                f.mob[a * k + i] = ph.diffusivity / (2.0 * kk[i]);
            }
            f.offset[a] = ph.offset(t, self.t_eu);
        }
        self.frozen = Some(f);
    }

    /// Temperature-dependent curvature k_i(T) (recomputed per cell: the
    /// general-purpose code has no T(z) shortcut).
    #[inline]
    fn curvature_at(&self, a: usize, i: usize, t: R) -> R {
        R::from_f64(self.curvature[a * self.k + i])
            * (R::from_f64(1.0)
                + R::from_f64(self.dk_dt[a * self.k + i]) * (t - R::from_f64(self.t_eu)))
    }

    /// 1/(2 k_i(T)).
    #[inline]
    fn inv2k_at(&self, a: usize, i: usize, t: R) -> R {
        if let Some(f) = &self.frozen {
            return R::from_f64(f.inv2k[a * self.k + i]);
        }
        R::from_f64(1.0) / (R::from_f64(2.0) * self.curvature_at(a, i, t))
    }

    /// 1/(4 k_i(T)).
    #[inline]
    fn inv4k_at(&self, a: usize, i: usize, t: R) -> R {
        if let Some(f) = &self.frozen {
            return R::from_f64(f.inv4k[a * self.k + i]);
        }
        R::from_f64(1.0) / (R::from_f64(4.0) * self.curvature_at(a, i, t))
    }

    /// Mobility coefficient D_α / (2 k_i(T)).
    #[inline]
    fn mob_at(&self, a: usize, i: usize, t: R) -> R {
        if let Some(f) = &self.frozen {
            return R::from_f64(f.mob[a * self.k + i]);
        }
        R::from_f64(self.diffusivity[a]) * self.inv2k_at(a, i, t)
    }

    /// c^eq_α,i at temperature `t` (recomputed per cell unless frozen).
    #[inline]
    fn c_eq(&self, p: &ModelParams, a: usize, i: usize, t: R) -> R {
        if let Some(f) = &self.frozen {
            return R::from_f64(f.c_eq[a * self.k + i]);
        }
        R::from_f64(p.sys.phases[a].c_eu[i])
            + R::from_f64(self.dc_dt[a * self.k + i]) * (t - R::from_f64(self.t_eu))
    }

    /// Grand potential ψ_α(µ, T).
    fn grand_potential(&self, p: &ModelParams, a: usize, mu: &[R], t: R) -> R {
        let mut s = R::from_f64(0.0);
        for i in 0..self.k {
            s = s - mu[i] * mu[i] * self.inv4k_at(a, i, t) - mu[i] * self.c_eq(p, a, i, t);
        }
        if let Some(f) = &self.frozen {
            return s + R::from_f64(f.offset[a]);
        }
        s + R::from_f64(self.latent[a]) * (t - R::from_f64(self.t_eu)) / R::from_f64(self.t_eu)
    }
}

/// Scratch buffers reused across cells (the original code hoists these too).
pub struct Scratch<R: Real> {
    h_old: Vec<R>,
    h_new: Vec<R>,
    psi: Vec<R>,
    grads: Vec<[R; 3]>,
    vdf: Vec<R>,
    obst: Vec<R>,
    out: Vec<R>,
}

impl<R: Real> Scratch<R> {
    /// Allocate for `n` phases.
    pub fn new(n: usize) -> Self {
        let z = R::from_f64(0.0);
        Self {
            h_old: vec![z; n],
            h_new: vec![z; n],
            psi: vec![z; n],
            grads: vec![[z; 3]; n],
            vdf: vec![z; n],
            obst: vec![z; n],
            out: vec![z; n],
        }
    }
}

/// Generic φ-cell update: `stencil[0]` is the center, `stencil[1..7]` the
/// −x,+x,−y,+y,−z,+z neighbors, each a slice of n phase values. Returns the
/// projected new φ in `scratch.out`.
#[allow(clippy::too_many_arguments)]
fn ref_phi_cell<R: Real>(
    model: &GeneralModel<R>,
    p: &ModelParams,
    stencil: &[Vec<R>; 7],
    mu: &[R],
    t: R,
    scratch: &mut Scratch<R>,
) {
    ref_phi_cell_faces(model, p, stencil, mu, t, scratch, false)
}

/// Like [`ref_phi_cell`], but with `buffered = true` only the three "high"
/// faces are evaluated (the staggered-buffer kernels reuse the low faces of
/// the previous cells). Used by the FLOP accounting to count exactly what
/// the optimized kernels execute per cell.
#[allow(clippy::too_many_arguments)]
pub fn ref_phi_cell_faces<R: Real>(
    model: &GeneralModel<R>,
    p: &ModelParams,
    stencil: &[Vec<R>; 7],
    mu: &[R],
    t: R,
    scratch: &mut Scratch<R>,
    buffered: bool,
) {
    let n = model.n;
    let inv_dx = R::from_f64(1.0 / p.dx);
    let half = R::from_f64(0.5);
    let two = R::from_f64(2.0);

    // Central gradients.
    for a in 0..n {
        scratch.grads[a] = [
            (stencil[2][a] - stencil[1][a]) * half * inv_dx,
            (stencil[4][a] - stencil[3][a]) * half * inv_dx,
            (stencil[6][a] - stencil[5][a]) * half * inv_dx,
        ];
    }

    // Staggered face fluxes and their divergence (eager, all six faces;
    // with `buffered` only the high faces, as in the buffered kernels).
    let mut div = vec![R::from_f64(0.0); n];
    for (f, (lo, hi)) in [(1usize, 0usize), (0, 2), (3, 0), (0, 4), (5, 0), (0, 6)]
        .iter()
        .enumerate()
    {
        if buffered && f % 2 == 0 {
            continue;
        }
        // Even faces are "low" (neighbor, center), odd are "high".
        let (l, r) = if f % 2 == 0 {
            (&stencil[*lo + *hi], &stencil[0])
        } else {
            (&stencil[0], &stencil[*lo + *hi])
        };
        let sign = if f % 2 == 0 {
            R::from_f64(-1.0)
        } else {
            R::from_f64(1.0)
        };
        for a in 0..n {
            let mut s1 = R::from_f64(0.0);
            let mut s2 = R::from_f64(0.0);
            let pf_a = (l[a] + r[a]) * half;
            let g_a = (r[a] - l[a]) * inv_dx;
            for b in 0..n {
                let gm = R::from_f64(model.gamma[a * n + b]);
                let pf_b = (l[b] + r[b]) * half;
                let g_b = (r[b] - l[b]) * inv_dx;
                s1 = s1 + gm * pf_b * g_b;
                s2 = s2 + gm * pf_b * pf_b;
            }
            let flux = R::from_f64(-2.0) * (pf_a * s1 - g_a * s2);
            div[a] = div[a] + sign * flux * inv_dx;
        }
    }

    // ∂a/∂φ.
    let phi = &stencil[0];
    for a in 0..n {
        let mut s_norm = R::from_f64(0.0);
        let mut s_dot = R::from_f64(0.0);
        for b in 0..n {
            let gm = R::from_f64(model.gamma[a * n + b]);
            let g2 = scratch.grads[b][0] * scratch.grads[b][0]
                + scratch.grads[b][1] * scratch.grads[b][1]
                + scratch.grads[b][2] * scratch.grads[b][2];
            s_norm = s_norm + gm * g2;
            let dot = scratch.grads[a][0] * scratch.grads[b][0]
                + scratch.grads[a][1] * scratch.grads[b][1]
                + scratch.grads[a][2] * scratch.grads[b][2];
            s_dot = s_dot + gm * phi[b] * dot;
        }
        scratch.vdf[a] = two * (phi[a] * s_norm - s_dot);
    }

    // Driving force via dynamically dispatched interpolation.
    for a in 0..n {
        scratch.psi[a] = model.grand_potential(p, a, mu, t);
    }
    model.interp.eval(phi, &mut scratch.h_old);
    let mut psi_bar = R::from_f64(0.0);
    for a in 0..n {
        psi_bar = psi_bar + scratch.h_old[a] * scratch.psi[a];
    }
    let mut s_phi2 = R::from_f64(0.0);
    for a in 0..n {
        s_phi2 = s_phi2 + phi[a] * phi[a];
    }
    let inv_s = R::from_f64(1.0) / s_phi2;

    // Obstacle via dynamic dispatch.
    model.obstacle.eval(phi, &mut scratch.obst);

    // Assemble δF/δφ, project out the mean, integrate, clip to the simplex.
    let pref_grad = t * R::from_f64(p.eps);
    let pref_obst = t * R::from_f64(ModelParams::obstacle_scale() / p.eps);
    let mut mean = R::from_f64(0.0);
    for a in 0..n {
        let drive = two * phi[a] * inv_s * (scratch.psi[a] - psi_bar);
        let v = pref_grad * (scratch.vdf[a] - div[a]) + pref_obst * scratch.obst[a] + drive;
        scratch.vdf[a] = v;
        mean = mean + v;
    }
    mean = mean / R::from_f64(n as f64);
    let rate = R::from_f64(p.dt / (p.tau * p.eps));
    for a in 0..n {
        scratch.out[a] = phi[a] - rate * (scratch.vdf[a] - mean);
    }
    // Simplex projection, generic (insertion sort on a copy).
    let mut u: Vec<R> = scratch.out.clone();
    for i in 1..n {
        let mut j = i;
        while j > 0 && u[j - 1] < u[j] {
            u.swap(j - 1, j);
            j -= 1;
        }
    }
    let mut cumsum = R::from_f64(0.0);
    let mut lambda = R::from_f64(0.0);
    for (j, &uj) in u.iter().enumerate() {
        cumsum = cumsum + uj;
        let l = (R::from_f64(1.0) - cumsum) / R::from_f64(j as f64 + 1.0);
        if (uj + l).to_f64() > 0.0 {
            lambda = l;
        }
    }
    for a in 0..n {
        scratch.out[a] = (scratch.out[a] + lambda).max(R::from_f64(0.0));
    }
}

/// Generic µ-cell update (eager, all six faces, full J_at). `phi19` holds
/// φ_src for the D3C19 neighborhood addressed by [`d19_index`]; `phi_new7`
/// holds φ_dst for the D3C7 sub-stencil; `mu7` the µ values of the D3C7
/// stencil. `t`, `t_zlow`, `t_zhigh` are the cell and z-face temperatures.
#[allow(clippy::too_many_arguments)]
fn ref_mu_cell<R: Real>(
    model: &GeneralModel<R>,
    p: &ModelParams,
    phi19: &[Vec<R>],
    phi_new7: &[Vec<R>; 7],
    mu7: &[Vec<R>; 7],
    t: R,
    t_zlow: R,
    t_zhigh: R,
    scratch: &mut Scratch<R>,
) -> Vec<R> {
    ref_mu_cell_faces(
        model, p, phi19, phi_new7, mu7, t, t_zlow, t_zhigh, scratch, false,
    )
}

/// Like [`ref_mu_cell`], but with `buffered = true` only the three "high"
/// faces are evaluated (staggered-buffer accounting).
#[allow(clippy::too_many_arguments)]
pub fn ref_mu_cell_faces<R: Real>(
    model: &GeneralModel<R>,
    p: &ModelParams,
    phi19: &[Vec<R>],
    phi_new7: &[Vec<R>; 7],
    mu7: &[Vec<R>; 7],
    t: R,
    t_zlow: R,
    t_zhigh: R,
    scratch: &mut Scratch<R>,
    buffered: bool,
) -> Vec<R> {
    let n = model.n;
    let k = model.k;
    let inv_dx = R::from_f64(1.0 / p.dx);
    let inv_dt = R::from_f64(1.0 / p.dt);
    let half = R::from_f64(0.5);
    let quarter = R::from_f64(0.25);
    let zero = R::from_f64(0.0);
    let pref = R::from_f64(if p.enable_atc { p.atc_prefactor() } else { 0.0 });

    let mut div = vec![zero; k];

    // The six faces: (D3C7 neighbor id, axis, is_high).
    for &(nb, axis, high) in &[
        (1usize, 0usize, false),
        (2, 0, true),
        (3, 1, false),
        (4, 1, true),
        (5, 2, false),
        (6, 2, true),
    ] {
        if buffered && !high {
            continue;
        }
        let (il, ir) = if high { (0, nb) } else { (nb, 0) };
        let t_face = match (axis, high) {
            (2, false) => t_zlow,
            (2, true) => t_zhigh,
            _ => t,
        };
        // Gradient flux: M(φF) ∂µ/∂n.
        let sign = if high {
            R::from_f64(1.0)
        } else {
            R::from_f64(-1.0)
        };
        for i in 0..k {
            let mut m = zero;
            for a in 0..n {
                let pf = (phi19[d7(il)][a] + phi19[d7(ir)][a]) * half;
                m = m + pf * model.mob_at(a, i, t_face);
            }
            let flux = m * (mu7[ir][i] - mu7[il][i]) * inv_dx;
            div[i] = div[i] + sign * flux * inv_dx;
        }

        // Anti-trapping current at the face (eager: no skips).
        // Face gradients of every phase (D3C19 accesses).
        let gl_idx = LIQ;
        let (e1, e2) = trans_axes(axis);
        let mut grads: Vec<[R; 3]> = vec![[zero; 3]; n];
        for (a, ga) in grads.iter_mut().enumerate() {
            let normal = (phi19[d7(ir)][a] - phi19[d7(il)][a]) * inv_dx;
            let t1 = quarter
                * inv_dx
                * ((phi19[d19(il, e1, true)][a] - phi19[d19(il, e1, false)][a])
                    + (phi19[d19(ir, e1, true)][a] - phi19[d19(ir, e1, false)][a]));
            let t2 = quarter
                * inv_dx
                * ((phi19[d19(il, e2, true)][a] - phi19[d19(il, e2, false)][a])
                    + (phi19[d19(ir, e2, true)][a] - phi19[d19(ir, e2, false)][a]));
            *ga = match axis {
                0 => [normal, t1, t2],
                1 => [t1, normal, t2],
                _ => [t1, t2, normal],
            };
        }
        let pl = (phi19[d7(il)][gl_idx] + phi19[d7(ir)][gl_idx]) * half;
        let gl = grads[gl_idx];
        let nl2 = gl[0] * gl[0] + gl[1] * gl[1] + gl[2] * gl[2];
        let ind_l = R::from_f64(((pl.to_f64() > 0.0) & (nl2.to_f64() > 0.0)) as u8 as f64);
        let inv_nl = R::from_f64(1.0) / nl2.max(R::from_f64(f64::MIN_POSITIVE)).sqrt();
        let inv_pl = R::from_f64(1.0) / pl.max(R::from_f64(f64::MIN_POSITIVE));
        let mut s_f = zero;
        for a in 0..n {
            let pf = (phi19[d7(il)][a] + phi19[d7(ir)][a]) * half;
            s_f = s_f + pf * pf;
        }
        let h_l = pl * pl / s_f;
        for a in 0..n {
            if a == gl_idx {
                continue;
            }
            let pa = (phi19[d7(il)][a] + phi19[d7(ir)][a]) * half;
            let ga = grads[a];
            let na2 = ga[0] * ga[0] + ga[1] * ga[1] + ga[2] * ga[2];
            let ind_a = R::from_f64(((pa.to_f64() > 0.0) & (na2.to_f64() > 0.0)) as u8 as f64);
            let inv_na = R::from_f64(1.0) / na2.max(R::from_f64(f64::MIN_POSITIVE)).sqrt();
            let weight = h_l * (pa.max(zero) * inv_pl).sqrt();
            let dphidt = ((phi_new7[il][a] - phi19[d7(il)][a])
                + (phi_new7[ir][a] - phi19[d7(ir)][a]))
                * half
                * inv_dt;
            let n_dot = (ga[0] * gl[0] + ga[1] * gl[1] + ga[2] * gl[2]) * inv_na * inv_nl;
            let g_axis = ga[axis];
            for i in 0..k {
                let mu_f = (mu7[il][i] + mu7[ir][i]) * half;
                let cdiff = (model.c_eq(p, LIQ, i, t_face) - model.c_eq(p, a, i, t_face))
                    + mu_f * (model.inv2k_at(LIQ, i, t_face) - model.inv2k_at(a, i, t_face));
                let scale = ind_l * ind_a * pref * weight * dphidt * n_dot * g_axis * inv_na;
                // J_at enters the flux with a minus sign; fold into div.
                div[i] = div[i] - sign * scale * cdiff * inv_dx;
            }
        }
    }

    // Local terms.
    model.interp.eval(&phi19[d7(0)], &mut scratch.h_old);
    model.interp.eval(&phi_new7[0], &mut scratch.h_new);
    let mut out = vec![zero; k];
    let dtdt = R::from_f64(p.dtemp_dt());
    for i in 0..k {
        let mut chi = zero;
        let mut source = zero;
        let mut dcdt = zero;
        for a in 0..n {
            let inv2k = model.inv2k_at(a, i, t);
            chi = chi + scratch.h_old[a] * inv2k;
            let c_a = model.c_eq(p, a, i, t) + mu7[0][i] * inv2k;
            source = source - c_a * (scratch.h_new[a] - scratch.h_old[a]) * inv_dt;
            dcdt = dcdt + scratch.h_old[a] * R::from_f64(model.dc_dt[a * k + i]);
        }
        let drift = zero - dcdt * dtdt;
        out[i] = mu7[0][i] + R::from_f64(p.dt) * (div[i] + source + drift) / chi;
    }
    out
}

/// D3C7 stencil id → index into the `phi19` layout.
#[inline(always)]
fn d7(id: usize) -> usize {
    id
}

/// Index of the diagonal neighbor of D3C7 cell `base` shifted ±1 along
/// `axis` inside the `phi19` layout produced by [`gather19`].
#[inline(always)]
fn d19(base: usize, axis: usize, positive: bool) -> usize {
    // Layout: 0..7 = D3C7 (c, -x, +x, -y, +y, -z, +z);
    // 7.. = for each D3C7 neighbor 1..7, its ± shifts along the two
    // transverse axes, in a fixed order; see `gather19`.
    debug_assert!(base <= 6);
    if base == 0 {
        // Center shifted along axis = one of the D3C7 neighbors.
        return 1 + 2 * axis + positive as usize;
    }
    let nb_axis = (base - 1) / 2;
    debug_assert_ne!(nb_axis, axis, "shift along the neighbor's own axis");
    // Transverse slot: each neighbor has 4 diagonal entries (2 axes × ±).
    let (e1, e2) = trans_axes(nb_axis);
    debug_assert!(axis == e1 || axis == e2);
    let base_slot = if axis == e1 { 0 } else { 2 };
    7 + (base - 1) * 4 + base_slot + positive as usize
}

/// The two transverse axes of `axis`.
#[inline(always)]
fn trans_axes(axis: usize) -> (usize, usize) {
    match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// Number of entries in the `phi19` gather layout (7 + 6×4 = 31 slots;
/// diagonal cells are stored once per referencing neighbor for simplicity —
/// the *distinct* cells form the D3C19 stencil).
pub const GATHER19_LEN: usize = 31;

/// Gather the φ values needed by [`ref_mu_cell`] around linear index `i`.
pub fn gather19<R: Real>(
    comps: &[&[f64]; N_PHASES],
    i: usize,
    sy: usize,
    sz: usize,
    out: &mut Vec<Vec<R>>,
) {
    let stride = [1usize, sy, sz];
    let off = |id: usize| -> isize {
        match id {
            0 => 0,
            1 => -1,
            2 => 1,
            3 => -(sy as isize),
            4 => sy as isize,
            5 => -(sz as isize),
            6 => sz as isize,
            _ => unreachable!(),
        }
    };
    out.clear();
    for id in 0..7 {
        let j = (i as isize + off(id)) as usize;
        out.push((0..N_PHASES).map(|a| R::from_f64(comps[a][j])).collect());
    }
    for id in 1..7 {
        let nb_axis = (id - 1) / 2;
        let (e1, e2) = trans_axes(nb_axis);
        for axis in [e1, e2] {
            for positive in [false, true] {
                let d = stride[axis] as isize * if positive { 1 } else { -1 };
                let j = (i as isize + off(id) + d) as usize;
                out.push((0..N_PHASES).map(|a| R::from_f64(comps[a][j])).collect());
            }
        }
    }
    debug_assert_eq!(out.len(), GATHER19_LEN);
}

/// Range-restricted reference φ-sweep (Algorithm 1, line 1) in the
/// general-purpose style, for z-slab work-sharing (the plain triple loop
/// has no cross-slice state, so any sub-range is exact).
pub fn phi_sweep_reference_range(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    z0: usize,
    z1: usize,
) {
    let model = GeneralModel::<f64>::from_params(params);
    let dims = state.dims;
    let g = dims.ghost;
    debug_assert!(g <= z0 && z0 <= z1 && z1 <= g + dims.nz);
    let (sy, sz) = (dims.sy(), dims.sz());
    let origin_z = state.origin[2] as f64 - g as f64;
    let BlockState {
        phi_src,
        mu_src,
        phi_dst,
        ..
    } = state;
    let ps = phi_src.comps();
    let ms = mu_src.comps();
    let pd = phi_dst.comps_mut();
    let mut scratch = Scratch::<f64>::new(model.n);
    let mut stencil: [Vec<f64>; 7] = core::array::from_fn(|_| vec![0.0; model.n]);
    let mut mu = vec![0.0; model.k];

    for z in z0..z1 {
        for y in g..g + dims.ny {
            for x in g..g + dims.nx {
                let i = dims.idx(x, y, z);
                let offs: [isize; 7] = [
                    0,
                    -1,
                    1,
                    -(sy as isize),
                    sy as isize,
                    -(sz as isize),
                    sz as isize,
                ];
                for (s, o) in stencil.iter_mut().zip(offs) {
                    let j = (i as isize + o) as usize;
                    for a in 0..model.n {
                        s[a] = ps[a][j];
                    }
                }
                for c in 0..model.k {
                    mu[c] = ms[c][i];
                }
                let t = params.temperature(origin_z + z as f64, time);
                ref_phi_cell(&model, params, &stencil, &mu, t, &mut scratch);
                for a in 0..model.n {
                    pd[a][i] = scratch.out[a];
                }
            }
        }
    }
}

/// Range-restricted reference µ-sweep (Algorithm 1, line 4) in the
/// general-purpose style, for z-slab work-sharing.
///
/// Only [`MuPart::Full`] is provided: the general code predates the
/// communication-hiding split (Sec. 3.3).
pub fn mu_sweep_reference_range(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    part: MuPart,
    z0: usize,
    z1: usize,
) {
    assert_eq!(
        part,
        MuPart::Full,
        "the general-purpose kernel has no split µ-sweep"
    );
    let model = GeneralModel::<f64>::from_params(params);
    let dims = state.dims;
    let g = dims.ghost;
    debug_assert!(g <= z0 && z0 <= z1 && z1 <= g + dims.nz);
    let (sy, sz) = (dims.sy(), dims.sz());
    let origin_z = state.origin[2] as f64 - g as f64;
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
    let mut scratch = Scratch::<f64>::new(model.n);
    let mut phi19: Vec<Vec<f64>> = Vec::new();
    let mut phi_new7: [Vec<f64>; 7] = core::array::from_fn(|_| vec![0.0; model.n]);
    let mut mu7: [Vec<f64>; 7] = core::array::from_fn(|_| vec![0.0; model.k]);

    for z in z0..z1 {
        let t = params.temperature(origin_z + z as f64, time);
        let t_zl = 0.5 * (t + params.temperature(origin_z + z as f64 - 1.0, time));
        let t_zh = 0.5 * (t + params.temperature(origin_z + z as f64 + 1.0, time));
        for y in g..g + dims.ny {
            for x in g..g + dims.nx {
                let i = dims.idx(x, y, z);
                gather19(&ps, i, sy, sz, &mut phi19);
                let offs: [isize; 7] = [
                    0,
                    -1,
                    1,
                    -(sy as isize),
                    sy as isize,
                    -(sz as isize),
                    sz as isize,
                ];
                for (s, o) in phi_new7.iter_mut().zip(offs) {
                    let j = (i as isize + o) as usize;
                    for a in 0..model.n {
                        s[a] = pd[a][j];
                    }
                }
                for (s, o) in mu7.iter_mut().zip(offs) {
                    let j = (i as isize + o) as usize;
                    for c in 0..model.k {
                        s[c] = ms[c][j];
                    }
                }
                let out = ref_mu_cell(
                    &model,
                    params,
                    &phi19,
                    &phi_new7,
                    &mu7,
                    t,
                    t_zl,
                    t_zh,
                    &mut scratch,
                );
                for c in 0..model.k {
                    md[c][i] = out[c];
                }
            }
        }
    }
}
