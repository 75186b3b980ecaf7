//! Scalar per-cell / per-face model primitives — the single source of truth
//! for the discretized equations.
//!
//! Every kernel variant (reference, basic scalar, SIMD cellwise/four-cell)
//! implements the same math; the scalar kernels call these primitives
//! directly, the manually vectorized kernels re-derive them lane-wise, and
//! the equivalence test suite pins all of them against each other (the
//! paper: "a regularly running test suite checks all kernel versions for
//! equivalence", Sec. 5.1.1).
//!
//! # Discretization summary
//!
//! φ-update (Eqs. 1–2), one cell:
//!
//! ```text
//! δF/δφ_α = Tε (∂a/∂φ_α − ∇·Ψ_α)  +  (16T/π²ε) Σ_β γ_αβ φ_β  +  ∂ψ/∂φ_α
//! ∂φ_α/∂t = −(1/τε) (δF/δφ_α − mean_β δF/δφ_β),   then simplex projection
//! ```
//!
//! with the gradient energy a(φ,∇φ) = Σ_{α<β} γ_αβ |q_αβ|²,
//! q_αβ = φ_α∇φ_β − φ_β∇φ_α. The divergence of Ψ_α = ∂a/∂∇φ_α is evaluated
//! in staggered form: the face-normal component of Ψ_α needs only the
//! face-normal derivatives (the transverse parts of q never enter), so the
//! φ-kernel is a D3C7 stencil exactly as the paper states, and face values
//! can be buffered and reused ("staggered buffer" optimization).
//!
//! µ-update (Eq. 3), one cell:
//!
//! ```text
//! ∂µ/∂t = χ(φ)⁻¹ [ ∇·(M(φ)∇µ) − ∇·J_at − Σ_α c_α(µ,T) ∂h_α/∂t − (∂c/∂T)(∂T/∂t) ]
//! ```
//!
//! with Moelans interpolation h_α = φ_α²/Σφ², diagonal susceptibility
//! χ = Σ_α h_α/(2k_α), mobility M = Σ_α φ_α D_α χ_α at staggered faces
//! (D3C7), and the anti-trapping current J_at (Eq. 4) at staggered faces
//! whose normalized φ-gradients need transverse derivatives → D3C19.

use crate::params::ModelParams;
use crate::temperature::SliceCtx;
use crate::{LIQ, N_COMP, N_PHASES};

/// Gradient of each phase at a cell from central differences:
/// `grads[α] = (∂x, ∂y, ∂z) φ_α`.
#[inline(always)]
pub(crate) fn central_gradients(
    xm: [f64; N_PHASES],
    xp: [f64; N_PHASES],
    ym: [f64; N_PHASES],
    yp: [f64; N_PHASES],
    zm: [f64; N_PHASES],
    zp: [f64; N_PHASES],
    inv_2dx: f64,
) -> [[f64; 3]; N_PHASES] {
    core::array::from_fn(|a| {
        [
            (xp[a] - xm[a]) * inv_2dx,
            (yp[a] - ym[a]) * inv_2dx,
            (zp[a] - zm[a]) * inv_2dx,
        ]
    })
}

/// Moelans interpolation weights h_α = φ_α² / Σ_β φ_β².
///
/// Returns uniform weights at the (unphysical) all-zero point to stay
/// finite; the simplex projection guarantees Σφ² ≥ 1/N in practice.
#[inline(always)]
pub fn interp_h(phi: [f64; N_PHASES]) -> [f64; N_PHASES] {
    let s: f64 = phi.iter().map(|p| p * p).sum();
    if s <= 0.0 {
        return [1.0 / N_PHASES as f64; N_PHASES];
    }
    let inv = 1.0 / s;
    core::array::from_fn(|a| phi[a] * phi[a] * inv)
}

/// Face-normal component of Ψ_α = ∂a/∂∇φ_α at the staggered face between
/// cells `l` and `r` (r is the +axis neighbor):
///
/// Ψ_α·ê_d = −2 Σ_{β≠α} γ_αβ φF_β (φF_α ∂_d φ_β − φF_β ∂_d φ_α)
///        = −2 [ φF_α (Γ·(φF ⊙ g))_α − g_α (Γ·(φF ⊙ φF))_α ]
///
/// with φF = (φ_l+φ_r)/2 and g = (φ_r − φ_l)/dx. Only face-normal
/// derivatives appear — this is why the φ-kernel stays D3C7.
#[inline(always)]
pub fn phi_face_flux(
    gamma: &[[f64; N_PHASES]; N_PHASES],
    l: [f64; N_PHASES],
    r: [f64; N_PHASES],
    inv_dx: f64,
) -> [f64; N_PHASES] {
    let mut pf = [0.0; N_PHASES];
    let mut g = [0.0; N_PHASES];
    for a in 0..N_PHASES {
        pf[a] = 0.5 * (l[a] + r[a]);
        g[a] = (r[a] - l[a]) * inv_dx;
    }
    let mut out = [0.0; N_PHASES];
    for a in 0..N_PHASES {
        let mut s1 = 0.0; // Σ_β γ_αβ φF_β g_β
        let mut s2 = 0.0; // Σ_β γ_αβ φF_β²
        for b in 0..N_PHASES {
            s1 += gamma[a][b] * pf[b] * g[b];
            s2 += gamma[a][b] * pf[b] * pf[b];
        }
        out[a] = -2.0 * (pf[a] * s1 - g[a] * s2);
    }
    out
}

/// ∂a/∂φ_α at a cell:
/// ∂a/∂φ_α = 2 Σ_{β≠α} γ_αβ (q_αβ·∇φ_β)
///         = 2 [ φ_α Σ_β γ_αβ |∇φ_β|² − Σ_axis ∂φ_α Σ_β γ_αβ φ_β ∂φ_β ].
#[inline(always)]
fn da_dphi(
    gamma: &[[f64; N_PHASES]; N_PHASES],
    phi: [f64; N_PHASES],
    grads: &[[f64; 3]; N_PHASES],
) -> [f64; N_PHASES] {
    let mut norm2 = [0.0; N_PHASES];
    for a in 0..N_PHASES {
        norm2[a] =
            grads[a][0] * grads[a][0] + grads[a][1] * grads[a][1] + grads[a][2] * grads[a][2];
    }
    let mut out = [0.0; N_PHASES];
    for a in 0..N_PHASES {
        let mut s_norm = 0.0; // Σ_β γ_αβ |∇φ_β|²
        let mut s_dot = 0.0; // Σ_β γ_αβ φ_β (∇φ_α·∇φ_β)
        for b in 0..N_PHASES {
            s_norm += gamma[a][b] * norm2[b];
            let dot =
                grads[a][0] * grads[b][0] + grads[a][1] * grads[b][1] + grads[a][2] * grads[b][2];
            s_dot += gamma[a][b] * phi[b] * dot;
        }
        out[a] = 2.0 * (phi[a] * s_norm - s_dot);
    }
    out
}

/// Obstacle-potential derivative (unscaled): ∂ω̂/∂φ_α = Σ_β γ_αβ φ_β.
/// The caller multiplies by the slice prefactor 16T/(π²ε).
#[inline(always)]
fn obstacle_deriv(gamma: &[[f64; N_PHASES]; N_PHASES], phi: [f64; N_PHASES]) -> [f64; N_PHASES] {
    let mut out = [0.0; N_PHASES];
    for a in 0..N_PHASES {
        let mut s = 0.0;
        for b in 0..N_PHASES {
            s += gamma[a][b] * phi[b];
        }
        out[a] = s;
    }
    out
}

/// Driving force ∂ψ/∂φ_α = Σ_β ψ_β ∂h_β/∂φ_α = (2φ_α/S)(ψ_α − Σ_β h_β ψ_β)
/// with S = Σφ². Zero for pure cells (the φ-kernel "shortcut" in liquid).
#[inline(always)]
fn driving_force(ctx: &SliceCtx, phi: [f64; N_PHASES], mu: [f64; N_COMP]) -> [f64; N_PHASES] {
    let mut psi = [0.0; N_PHASES];
    for a in 0..N_PHASES {
        psi[a] = ctx.grand_potential(a, mu);
    }
    let s: f64 = phi.iter().map(|p| p * p).sum();
    if s <= 0.0 {
        return [0.0; N_PHASES];
    }
    let inv_s = 1.0 / s;
    let mut psi_bar = 0.0;
    for a in 0..N_PHASES {
        psi_bar += phi[a] * phi[a] * inv_s * psi[a];
    }
    core::array::from_fn(|a| 2.0 * phi[a] * inv_s * (psi[a] - psi_bar))
}

/// Complete φ-update of one cell given the six staggered face fluxes
/// (`faces[f][α]`, ordered like [`eutectica_blockgrid::Face`]), the central
/// gradients, and the chemical potential. Returns the projected new φ.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn phi_cell_update(
    params: &ModelParams,
    ctx: &SliceCtx,
    phi: [f64; N_PHASES],
    grads: &[[f64; 3]; N_PHASES],
    faces: &[[f64; N_PHASES]; 6],
    mu: [f64; N_COMP],
    skip_driving: bool,
) -> [f64; N_PHASES] {
    let inv_dx = 1.0 / params.dx;
    let da = da_dphi(&params.gamma, phi, grads);
    let obst = obstacle_deriv(&params.gamma, phi);
    let drive = if skip_driving {
        [0.0; N_PHASES]
    } else {
        driving_force(ctx, phi, mu)
    };
    let mut vdf = [0.0; N_PHASES];
    let mut mean = 0.0;
    for a in 0..N_PHASES {
        let div = (faces[1][a] - faces[0][a] + faces[3][a] - faces[2][a] + faces[5][a]
            - faces[4][a])
            * inv_dx;
        vdf[a] = ctx.pref_grad * (da[a] - div) + ctx.pref_obst * obst[a] + drive[a];
        mean += vdf[a];
    }
    mean *= 1.0 / N_PHASES as f64;
    let rate = params.dt / (params.tau * params.eps);
    let raw: [f64; N_PHASES] = core::array::from_fn(|a| phi[a] - rate * (vdf[a] - mean));
    crate::simplex::project_to_simplex(raw)
}

/// True if the cell is a pure-phase bulk cell with all six neighbors pure in
/// the same phase — then ∂φ/∂t = 0 exactly (obstacle clipping) and the
/// φ-kernel may skip the cell entirely (bulk shortcut).
#[inline(always)]
pub(crate) fn is_bulk(phi: [f64; N_PHASES], neighbors: &[[f64; N_PHASES]; 6]) -> bool {
    let mut pure = usize::MAX;
    for a in 0..N_PHASES {
        if phi[a] == 1.0 {
            pure = a;
            break;
        }
    }
    if pure == usize::MAX {
        return false;
    }
    neighbors.iter().all(|n| n[pure] == 1.0)
}

/// True if the cell is pure in any phase (driving force is exactly zero).
#[inline(always)]
pub(crate) fn is_pure(phi: [f64; N_PHASES]) -> bool {
    phi.contains(&1.0)
}

/// Gradient-flux part of the µ-equation at a staggered face: M(φF)·∇µ·ê_d
/// with M = Σ_α φF_α D_α χ_α (diagonal per component).
#[inline(always)]
pub(crate) fn mu_face_flux_gradient(
    ctx_face: &SliceCtx,
    phi_l: [f64; N_PHASES],
    phi_r: [f64; N_PHASES],
    mu_l: [f64; N_COMP],
    mu_r: [f64; N_COMP],
    inv_dx: f64,
) -> [f64; N_COMP] {
    let mut m = [0.0; N_COMP];
    for a in 0..N_PHASES {
        let pf = 0.5 * (phi_l[a] + phi_r[a]);
        m[0] += pf * ctx_face.mob[a][0];
        m[1] += pf * ctx_face.mob[a][1];
    }
    [
        m[0] * (mu_r[0] - mu_l[0]) * inv_dx,
        m[1] * (mu_r[1] - mu_l[1]) * inv_dx,
    ]
}

/// Anti-trapping current J_at·ê_d at a staggered face (Eq. 4).
///
/// `grad_f[α]` are the full 3-component face gradients of φ (normal
/// component from the face difference, transverse from averaged central
/// differences — the D3C19 part of the µ-kernel). `dphidt_f[α]` is the
/// face-averaged ∂φ_α/∂t, `axis` the face normal (0/1/2).
///
/// This eager form is **branchless**: guard conditions multiply contributions
/// by an exact 0/1 indicator instead of branching, so the no-shortcut
/// µ-kernel has uniform cost everywhere in the domain (the paper: "the
/// kernel runtime for updating µ is, up to measurement error, equal in the
/// complete domain"). The shortcut variant in the sweeps replaces the
/// indicators by early-out branches — the results are identical because the
/// guards test exact zeros:
/// * liquid fraction zero at the face → J_at = 0 (h_ℓ = 0),
/// * |∇φ_ℓ| = 0 (bulk liquid) → J_at = 0,
/// * per-solid: φ_α = 0 or |∇φ_α| = 0 → that term is 0.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn jat_face_flux(
    ctx_face: &SliceCtx,
    prefactor: f64,
    phi_f: &[f64; N_PHASES],
    grad_f: &[[f64; 3]; N_PHASES],
    dphidt_f: &[f64; N_PHASES],
    mu_f: [f64; N_COMP],
    axis: usize,
) -> [f64; N_COMP] {
    let pl = phi_f[LIQ];
    let gl = grad_f[LIQ];
    let nl2 = gl[0] * gl[0] + gl[1] * gl[1] + gl[2] * gl[2];
    let ind_l = ((pl > 0.0) & (nl2 > 0.0)) as u8 as f64;
    let inv_nl = 1.0 / nl2.max(f64::MIN_POSITIVE).sqrt();
    let inv_pl = 1.0 / pl.max(f64::MIN_POSITIVE);
    let s: f64 = phi_f.iter().map(|p| p * p).sum();
    let h_l = pl * pl / s;
    let mut out = [0.0; N_COMP];
    for a in 0..LIQ {
        let pa = phi_f[a];
        let ga = grad_f[a];
        let na2 = ga[0] * ga[0] + ga[1] * ga[1] + ga[2] * ga[2];
        let ind_a = ((pa > 0.0) & (na2 > 0.0)) as u8 as f64;
        let inv_na = 1.0 / na2.max(f64::MIN_POSITIVE).sqrt();
        // g_α h_ℓ / sqrt(φ_α φ_ℓ) with g_α = φ_α  →  h_ℓ sqrt(φ_α/φ_ℓ).
        let weight = h_l * (pa.max(0.0) * inv_pl).sqrt();
        let n_dot = (ga[0] * gl[0] + ga[1] * gl[1] + ga[2] * gl[2]) * inv_na * inv_nl;
        let cdiff = ctx_face.c_liq_minus_c(a, mu_f);
        let scale = ind_l * ind_a * prefactor * weight * dphidt_f[a] * n_dot * ga[axis] * inv_na;
        out[0] += scale * cdiff[0];
        out[1] += scale * cdiff[1];
    }
    out
}

/// Diagonal susceptibility χ(φ) = Σ_α h_α(φ)/(2k_α).
#[inline(always)]
pub(crate) fn susceptibility(ctx: &SliceCtx, phi: [f64; N_PHASES]) -> [f64; N_COMP] {
    let h = interp_h(phi);
    let mut out = [0.0; N_COMP];
    for a in 0..N_PHASES {
        out[0] += h[a] * ctx.inv2k[a][0];
        out[1] += h[a] * ctx.inv2k[a][1];
    }
    out
}

/// Source term −Σ_α c_α(µ,T) ∂h_α/∂t from the φ evolution.
#[inline(always)]
pub(crate) fn phase_change_source(
    ctx: &SliceCtx,
    phi_old: [f64; N_PHASES],
    phi_new: [f64; N_PHASES],
    mu: [f64; N_COMP],
    inv_dt: f64,
) -> [f64; N_COMP] {
    let h_old = interp_h(phi_old);
    let h_new = interp_h(phi_new);
    let mut out = [0.0; N_COMP];
    for a in 0..N_PHASES {
        let dh = (h_new[a] - h_old[a]) * inv_dt;
        let c = ctx.c_of_mu(a, mu);
        out[0] -= c[0] * dh;
        out[1] -= c[1] * dh;
    }
    out
}

/// Temperature-drift term −(∂c/∂T)(∂T/∂t) with ∂c/∂T = Σ_α h_α s_α.
#[inline(always)]
pub(crate) fn temp_drift(
    dc_dt: &[[f64; N_COMP]; N_PHASES],
    phi: [f64; N_PHASES],
    dtemp_dt: f64,
) -> [f64; N_COMP] {
    let h = interp_h(phi);
    let mut s = [0.0; N_COMP];
    for a in 0..N_PHASES {
        s[0] += h[a] * dc_dt[a][0];
        s[1] += h[a] * dc_dt[a][1];
    }
    [-s[0] * dtemp_dt, -s[1] * dtemp_dt]
}

/// Complete µ-update of one cell: `µ_new = µ + dt (div + source + drift)/χ`.
#[inline(always)]
pub(crate) fn mu_cell_update(
    mu: [f64; N_COMP],
    div: [f64; N_COMP],
    source: [f64; N_COMP],
    drift: [f64; N_COMP],
    chi: [f64; N_COMP],
    dt: f64,
) -> [f64; N_COMP] {
    [
        mu[0] + dt * (div[0] + source[0] + drift[0]) / chi[0],
        mu[1] + dt * (div[1] + source[1] + drift[1]) / chi[1],
    ]
}

/// Mixture concentration c(φ, µ, T) = Σ_α h_α c_α(µ, T) — the conserved
/// quantity of the µ-equation (used by conservation tests and analysis).
#[inline]
pub fn mixture_concentration(
    ctx: &SliceCtx,
    phi: [f64; N_PHASES],
    mu: [f64; N_COMP],
) -> [f64; N_COMP] {
    let h = interp_h(phi);
    let mut out = [0.0; N_COMP];
    for a in 0..N_PHASES {
        let c = ctx.c_of_mu(a, mu);
        out[0] += h[a] * c[0];
        out[1] += h[a] * c[1];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams::ag_al_cu()
    }

    #[test]
    fn interp_h_partitions_unity_on_simplex() {
        for phi in [
            [1.0, 0.0, 0.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.5, 0.3, 0.2, 0.0],
        ] {
            let h = interp_h(phi);
            let sum: f64 = h.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(h.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        // Pure phase: one-hot.
        assert_eq!(interp_h([0.0, 1.0, 0.0, 0.0]), [0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn phi_face_flux_antisymmetric_pairs_cancel() {
        // A uniform field has zero face flux.
        let p = params();
        let phi = [0.4, 0.3, 0.2, 0.1];
        let f = phi_face_flux(&p.gamma, phi, phi, 1.0);
        assert_eq!(f, [0.0; 4]);
    }

    #[test]
    fn two_phase_face_flux_matches_analytic() {
        // For two phases with φ1+φ2 = 1: Ψ_1·ê = −2γ[φF1 (φF1 g1·γ-weighted…)]
        // reduces to Ψ_1·ê_d = 2γ ∂_d φ_1 · (φF1² + φF1 φF2 + …); verify
        // against direct summation of the defining formula.
        let p = params();
        let l = [0.3, 0.7, 0.0, 0.0];
        let r = [0.5, 0.5, 0.0, 0.0];
        let f = phi_face_flux(&p.gamma, l, r, 1.0);
        // Direct: Ψ_α = −2 Σ_β γ φF_β (φF_α g_β − φF_β g_α)
        let pf: Vec<f64> = (0..4).map(|a| 0.5 * (l[a] + r[a])).collect();
        let g: Vec<f64> = (0..4).map(|a| r[a] - l[a]).collect();
        for a in 0..4 {
            let mut direct = 0.0;
            for b in 0..4 {
                direct += p.gamma[a][b] * pf[b] * (pf[a] * g[b] - pf[b] * g[a]);
            }
            direct *= -2.0;
            assert!(
                (f[a] - direct).abs() < 1e-14,
                "phase {a}: {f:?} vs {direct}"
            );
        }
    }

    #[test]
    fn da_dphi_zero_for_uniform_gradients_zero() {
        let p = params();
        let grads = [[0.0; 3]; 4];
        assert_eq!(da_dphi(&p.gamma, [0.25; 4], &grads), [0.0; 4]);
    }

    #[test]
    fn da_dphi_matches_direct_formula() {
        let p = params();
        let phi = [0.4, 0.3, 0.2, 0.1];
        let grads = [
            [0.1, -0.2, 0.05],
            [-0.1, 0.15, 0.0],
            [0.02, 0.05, -0.05],
            [-0.02, 0.0, 0.0],
        ];
        let got = da_dphi(&p.gamma, phi, &grads);
        for a in 0..4 {
            let mut direct = 0.0;
            for b in 0..4 {
                // 2 γ_αβ (q_αβ · ∇φ_β), q_αβ = φ_α∇φ_β − φ_β∇φ_α
                let mut q_dot = 0.0;
                for d in 0..3 {
                    let q = phi[a] * grads[b][d] - phi[b] * grads[a][d];
                    q_dot += q * grads[b][d];
                }
                direct += 2.0 * p.gamma[a][b] * q_dot;
            }
            assert!((got[a] - direct).abs() < 1e-13, "phase {a}");
        }
    }

    #[test]
    fn driving_force_zero_at_pure_and_balanced() {
        let p = params();
        let ctx = SliceCtx::at(&p, 0.98);
        // Pure cells: exactly zero (shortcut validity).
        for a in 0..4 {
            let mut phi = [0.0; 4];
            phi[a] = 1.0;
            assert_eq!(driving_force(&ctx, phi, [0.1, -0.1]), [0.0; 4]);
        }
        // Sum over phases weighted by φ_α is zero? Not generally, but the
        // projected update conserves Σφ; check driving force is finite.
        let d = driving_force(&ctx, [0.4, 0.3, 0.2, 0.1], [0.0, 0.0]);
        assert!(d.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn driving_force_pushes_solidification_below_t_eu() {
        // In a solid-liquid interface below T_eu, the solid grand potential
        // is lower, so ∂ψ/∂φ_solid < 0 (growth after the −1/τε sign).
        let p = params();
        let ctx = SliceCtx::at(&p, 0.95);
        let phi = [0.5, 0.0, 0.0, 0.5]; // Al / liquid interface
        let d = driving_force(&ctx, phi, [0.0, 0.0]);
        assert!(d[0] < 0.0, "solid driving {d:?}");
        assert!(d[3] > 0.0, "liquid driving {d:?}");
    }

    #[test]
    fn bulk_detection() {
        let pure = [0.0, 0.0, 1.0, 0.0];
        let mixed = [0.5, 0.0, 0.5, 0.0];
        assert!(is_bulk(pure, &[pure; 6]));
        let mut nb = [pure; 6];
        nb[3] = mixed;
        assert!(!is_bulk(pure, &nb));
        assert!(!is_bulk(mixed, &[pure; 6]));
        assert!(is_pure(pure));
        assert!(!is_pure(mixed));
    }

    #[test]
    fn bulk_cell_update_is_identity() {
        // The projected update of a bulk cell returns exactly the corner.
        let p = params();
        let ctx = SliceCtx::at(&p, 0.97);
        let phi = [0.0, 1.0, 0.0, 0.0];
        let grads = [[0.0; 3]; 4];
        let faces = [[0.0; 4]; 6];
        let out = phi_cell_update(&p, &ctx, phi, &grads, &faces, [0.0, 0.0], false);
        assert_eq!(out, phi, "bulk cell moved: {out:?}");
    }

    #[test]
    fn mu_gradient_flux_uniform_mu_is_zero() {
        let p = params();
        let ctx = SliceCtx::at(&p, 0.97);
        let f = mu_face_flux_gradient(
            &ctx,
            [0.2, 0.2, 0.2, 0.4],
            [0.0, 0.0, 0.0, 1.0],
            [0.3, -0.1],
            [0.3, -0.1],
            1.0,
        );
        assert_eq!(f, [0.0; 2]);
    }

    #[test]
    fn mu_gradient_flux_scales_with_liquid_fraction() {
        let p = params();
        let ctx = SliceCtx::at(&p, 0.97);
        let liq = [0.0, 0.0, 0.0, 1.0];
        let sol = [1.0, 0.0, 0.0, 0.0];
        let mu_l = [0.0, 0.0];
        let mu_r = [1.0, 1.0];
        let f_liq = mu_face_flux_gradient(&ctx, liq, liq, mu_l, mu_r, 1.0);
        let f_sol = mu_face_flux_gradient(&ctx, sol, sol, mu_l, mu_r, 1.0);
        assert!(f_liq[0] > 100.0 * f_sol[0], "liquid diffuses much faster");
    }

    #[test]
    fn jat_zero_in_bulk_regions() {
        let p = params();
        let ctx = SliceCtx::at(&p, 0.97);
        let pref = p.atc_prefactor();
        let grad = [[0.1, 0.0, 0.0]; 4];
        let dphidt = [0.1, 0.0, 0.0, -0.1];
        // No liquid at the face.
        let f = jat_face_flux(
            &ctx,
            pref,
            &[0.5, 0.5, 0.0, 0.0],
            &grad,
            &dphidt,
            [0.0; 2],
            0,
        );
        assert_eq!(f, [0.0; 2]);
        // Bulk liquid: zero liquid gradient.
        let mut g2 = grad;
        g2[LIQ] = [0.0; 3];
        let f = jat_face_flux(&ctx, pref, &[0.0, 0.0, 0.0, 1.0], &g2, &dphidt, [0.0; 2], 0);
        assert_eq!(f, [0.0; 2]);
    }

    #[test]
    fn jat_nonzero_at_solidifying_front() {
        let p = params();
        let ctx = SliceCtx::at(&p, 0.97);
        let pref = p.atc_prefactor();
        // Al solidifying upward: φ_Al decreasing with z at the front,
        // liquid increasing; front moving so ∂φ_Al/∂t > 0 locally.
        let phi_f = [0.5, 0.0, 0.0, 0.5];
        let grad_f = [[0.0, 0.0, -0.3], [0.0; 3], [0.0; 3], [0.0, 0.0, 0.3]];
        let dphidt = [0.2, 0.0, 0.0, -0.2];
        let f = jat_face_flux(&ctx, pref, &phi_f, &grad_f, &dphidt, [0.0; 2], 2);
        assert!(
            f[0] != 0.0 || f[1] != 0.0,
            "expected nonzero J_at, got {f:?}"
        );
        // Al rejects Ag and Cu (c_l > c_al): check sign pattern is consistent
        // with rejection *into* the liquid (flux along +z where liquid is).
        assert!(f[0].is_finite() && f[1].is_finite());
    }

    #[test]
    fn susceptibility_interpolates_between_phases() {
        let p = params();
        let ctx = SliceCtx::at(&p, 0.97);
        let chi_l = susceptibility(&ctx, [0.0, 0.0, 0.0, 1.0]);
        assert!((chi_l[0] - ctx.inv2k[LIQ][0]).abs() < 1e-15);
        let chi_s = susceptibility(&ctx, [1.0, 0.0, 0.0, 0.0]);
        assert!((chi_s[0] - ctx.inv2k[0][0]).abs() < 1e-15);
        let chi_m = susceptibility(&ctx, [0.5, 0.0, 0.0, 0.5]);
        assert!(chi_m[0] > chi_s[0] && chi_m[0] < chi_l[0]);
    }

    #[test]
    fn source_term_conserves_mixture_concentration() {
        // d/dt [Σ h_α c_α] from interface motion alone must be cancelled by
        // the source: χ ∂µ/∂t = source ⇒ ∂c/∂t = χ∂µ/∂t + Σ c_α ∂h_α/∂t = 0.
        let p = params();
        let ctx = SliceCtx::at(&p, 0.97);
        let phi_old = [0.30, 0.10, 0.05, 0.55];
        let phi_new = [0.32, 0.11, 0.05, 0.52];
        let mu = [0.05, -0.02];
        let dt = p.dt;
        let src = phase_change_source(&ctx, phi_old, phi_new, mu, 1.0 / dt);
        let chi = susceptibility(&ctx, phi_old);
        let mu_new = [mu[0] + dt * src[0] / chi[0], mu[1] + dt * src[1] / chi[1]];
        let c_old = mixture_concentration(&ctx, phi_old, mu);
        let c_new = mixture_concentration(&ctx, phi_new, mu_new);
        // First-order in dφ: conservation up to O(dφ²) (χ evaluated at old φ).
        for i in 0..2 {
            assert!(
                (c_new[i] - c_old[i]).abs() < 5e-3 * c_old[i].abs().max(1e-3),
                "component {i}: {c_old:?} -> {c_new:?}"
            );
        }
    }
}
