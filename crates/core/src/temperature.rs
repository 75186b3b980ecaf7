//! Frozen-temperature ansatz and per-slice precomputation.
//!
//! "For the directional solidification, we use a frozen temperature
//! assumption by imprinting an analytical temperature gradient with a
//! defined velocity" (Sec. 2). Since T depends only on z and t, every
//! temperature-dependent model quantity can be evaluated once per x-y-slice
//! — the paper's "T(z) optimization" worth +80 % on the φ-kernel and +20 %
//! on the µ-kernel (Sec. 5.1.1, Fig. 6).
//!
//! [`SliceCtx`] bundles those per-slice values. The optimized kernels build
//! one per slice; the unoptimized rungs rebuild it per *cell*, which is
//! arithmetically identical (bit-exact) but redundant — exactly the work the
//! optimization removes.

use crate::params::ModelParams;
use crate::{LIQ, N_COMP, N_PHASES};

/// Per-phase, per-component coefficient table type.
pub(crate) type Coeffs = [[f64; N_COMP]; N_PHASES];

/// Temperature-dependent quantities of one x-y-slice.
#[derive(Copy, Clone, Debug)]
pub struct SliceCtx {
    /// Slice temperature.
    pub t: f64,
    /// Equilibrium concentrations c^eq_α(T).
    pub c_eq: Coeffs,
    /// Grand-potential offsets X_α(T).
    pub offset: [f64; N_PHASES],
    /// 1/(4 k_i(T)) per phase.
    pub inv4k: Coeffs,
    /// Susceptibilities 1/(2 k_i(T)) per phase.
    pub inv2k: Coeffs,
    /// Mobility coefficients D_α χ_α(T) per phase.
    pub mob: Coeffs,
    /// Gradient-energy prefactor T·ε.
    pub pref_grad: f64,
    /// Obstacle prefactor 16 T / (π² ε).
    pub pref_obst: f64,
}

impl SliceCtx {
    /// Evaluate at temperature `t`.
    pub fn at(params: &ModelParams, t: f64) -> Self {
        let sys = &params.sys;
        let mut ctx = Self {
            t,
            c_eq: [[0.0; N_COMP]; N_PHASES],
            offset: [0.0; N_PHASES],
            inv4k: [[0.0; N_COMP]; N_PHASES],
            inv2k: [[0.0; N_COMP]; N_PHASES],
            mob: [[0.0; N_COMP]; N_PHASES],
            pref_grad: t * params.eps,
            pref_obst: ModelParams::obstacle_scale() * t / params.eps,
        };
        for (a, ph) in sys.phases.iter().enumerate() {
            ctx.c_eq[a] = ph.c_eq(t, sys.t_eu);
            ctx.offset[a] = ph.offset(t, sys.t_eu);
            let k = ph.curvature_at(t, sys.t_eu);
            for i in 0..N_COMP {
                ctx.inv4k[a][i] = 1.0 / (4.0 * k[i]);
                ctx.inv2k[a][i] = 1.0 / (2.0 * k[i]);
                ctx.mob[a][i] = ph.diffusivity * ctx.inv2k[a][i];
            }
        }
        ctx
    }

    /// Grand potential ψ_α(µ) at this slice's temperature.
    #[inline(always)]
    pub fn grand_potential(&self, alpha: usize, mu: [f64; N_COMP]) -> f64 {
        -(mu[0] * mu[0] * self.inv4k[alpha][0] + mu[1] * mu[1] * self.inv4k[alpha][1])
            - (mu[0] * self.c_eq[alpha][0] + mu[1] * self.c_eq[alpha][1])
            + self.offset[alpha]
    }

    /// Phase concentration c^α(µ) at this slice's temperature.
    #[inline(always)]
    pub fn c_of_mu(&self, alpha: usize, mu: [f64; N_COMP]) -> [f64; N_COMP] {
        [
            self.c_eq[alpha][0] + mu[0] * self.inv2k[alpha][0],
            self.c_eq[alpha][1] + mu[1] * self.inv2k[alpha][1],
        ]
    }

    /// Difference c^ℓ(µ) − c^α(µ) entering the anti-trapping current.
    #[inline(always)]
    pub(crate) fn c_liq_minus_c(&self, alpha: usize, mu: [f64; N_COMP]) -> [f64; N_COMP] {
        [
            (self.c_eq[LIQ][0] - self.c_eq[alpha][0])
                + mu[0] * (self.inv2k[LIQ][0] - self.inv2k[alpha][0]),
            (self.c_eq[LIQ][1] - self.c_eq[alpha][1])
                + mu[1] * (self.inv2k[LIQ][1] - self.inv2k[alpha][1]),
        ]
    }
}

/// Per-slice contexts for a whole block: cell-centered and z-face-centered.
///
/// The z-face context at `z+1/2` is the context evaluated at the mean of the
/// two adjacent slice temperatures; both cells adjacent to a face use the
/// identical face context so the staggered-buffer variant (which evaluates
/// each face once) is bit-exact with the unbuffered variant.
pub(crate) struct SliceTable {
    /// Cell context per total z coordinate.
    pub cell: Vec<SliceCtx>,
    /// Face context between total z and z+1 (index z).
    pub zface: Vec<SliceCtx>,
}

impl SliceTable {
    /// Build for `tz` total slices whose first slice has global z
    /// `origin_z − ghost` at simulation time `time`.
    pub(crate) fn build(
        params: &ModelParams,
        origin_z: isize,
        tz: usize,
        ghost: usize,
        time: f64,
    ) -> Self {
        let temp = |z_total: usize| -> f64 {
            let gz = origin_z as f64 + z_total as f64 - ghost as f64;
            params.temperature(gz, time)
        };
        let cell: Vec<SliceCtx> = (0..tz).map(|z| SliceCtx::at(params, temp(z))).collect();
        let zface: Vec<SliceCtx> = (0..tz)
            .map(|z| {
                let tf = if z + 1 < tz {
                    0.5 * (temp(z) + temp(z + 1))
                } else {
                    temp(z)
                };
                SliceCtx::at(params, tf)
            })
            .collect();
        Self { cell, zface }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_ctx_matches_thermo() {
        let p = ModelParams::ag_al_cu();
        let ctx = SliceCtx::at(&p, 0.98);
        for a in 0..N_PHASES {
            let mu = [0.2, -0.1];
            assert!(
                (ctx.grand_potential(a, mu) - p.sys.grand_potential(a, mu, 0.98)).abs() < 1e-14
            );
            let c1 = ctx.c_of_mu(a, mu);
            let c2 = p.sys.c_of_mu(a, mu, 0.98);
            assert!((c1[0] - c2[0]).abs() < 1e-14 && (c1[1] - c2[1]).abs() < 1e-14);
            let d = ctx.c_liq_minus_c(a, mu);
            let cl = p.sys.c_of_mu(LIQ, mu, 0.98);
            assert!((d[0] - (cl[0] - c2[0])).abs() < 1e-14);
            assert!((d[1] - (cl[1] - c2[1])).abs() < 1e-14);
            // Susceptibility and mobility tables match the system.
            let chi = p.sys.susceptibility(a, 0.98);
            assert!((ctx.inv2k[a][0] - chi[0]).abs() < 1e-15);
            let mob = p.sys.mobility(a, 0.98);
            assert!((ctx.mob[a][1] - mob[1]).abs() < 1e-15);
        }
        // Below, at and above the eutectic temperature, at equilibrium and
        // off it.
        for t in [0.93, 1.0, 1.05] {
            let ctx = SliceCtx::at(&p, t);
            for a in 0..N_PHASES {
                for mu in [[0.0, 0.0], [0.4, -0.1]] {
                    let direct = p.sys.grand_potential(a, mu, t);
                    assert!((direct - ctx.grand_potential(a, mu)).abs() < 1e-14);
                    let (cd, cp) = (p.sys.c_of_mu(a, mu, t), ctx.c_of_mu(a, mu));
                    assert!((cd[0] - cp[0]).abs() < 1e-14);
                    assert!((cd[1] - cp[1]).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn slice_table_temperatures_increase_with_z() {
        let p = ModelParams::ag_al_cu();
        let tab = SliceTable::build(&p, 0, 10, 1, 0.0);
        for z in 1..10 {
            assert!(tab.cell[z].t > tab.cell[z - 1].t);
            // Face temperature lies between the adjacent cells.
            if z < 9 {
                assert!(tab.zface[z].t > tab.cell[z].t && tab.zface[z].t < tab.cell[z + 1].t);
            }
        }
        // Global origin shifts the whole profile.
        let tab2 = SliceTable::build(&p, 5, 10, 1, 0.0);
        assert!((tab2.cell[0].t - tab.cell[5].t).abs() < 1e-14);
    }
}
