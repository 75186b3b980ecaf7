//! Parabolic grand-potential thermodynamics for ternary eutectic systems.
//!
//! The SC'15 paper couples its phase-field model to the concentration
//! evolution through grand potentials ψ_α(µ, T) "derived by parabolically
//! fitted Gibbs energies which are derived from the thermodynamic Calphad
//! databases" (Sec. 2, ref. [5]). The full Calphad description is only needed
//! far from the eutectic point; near it, each phase α is represented by a
//! parabolic free energy per component i ∈ {Ag, Cu} (Al is eliminated by mass
//! conservation, reducing K = 3 components to K − 1 = 2 chemical potentials):
//!
//! ```text
//! f_α(c, T) = Σ_i k_i^α (c_i − c_i^{α,eq}(T))²  +  X_α(T)
//! c_i^{α,eq}(T) = c_i^{α,eu} + s_i^α (T − T_eu)          (phase-diagram slopes)
//! X_α(T)       = L_α (T − T_eu) / T_eu                   (driving-force offset)
//! ```
//!
//! All downstream quantities follow in closed form:
//!
//! * chemical potential   µ_i = ∂f/∂c_i = 2 k_i (c_i − c_i^eq)
//! * phase concentration  c_i^α(µ,T) = c_i^eq(T) + µ_i / (2 k_i)
//! * grand potential      ψ_α(µ,T) = f − µ·c = −Σ_i µ_i²/(4 k_i) − µ·c^eq(T) + X_α(T)
//! * susceptibility       (∂c_i/∂µ_j)_α = δ_ij / (2 k_i)   (diagonal)
//! * temperature coupling (∂c_i/∂T)_α = s_i^α
//!
//! Chemical potentials are measured **relative to the eutectic equilibrium**:
//! at T = T_eu, µ = 0 all four grand potentials coincide (X_α(T_eu) = 0), so
//! the eutectic point is built in exactly. Undercooling (T < T_eu) lowers the
//! solid grand potentials via L_α > 0, producing the physical driving force
//! with the correct solidus/liquidus slopes.
//!
//! Everything is nondimensionalized (T_eu = 1, liquid diffusivity D_ℓ = 1),
//! which is the standard PACE3D/waLBerla practice; see DESIGN.md §2.3 for the
//! substitution rationale.

#![deny(missing_docs)]

use serde::{Deserialize, Serialize};

/// Number of thermodynamic phases N (3 solids + liquid).
pub const N_PHASES: usize = 4;

/// Number of independent chemical potentials / concentrations (K − 1 = 2).
const N_COMP: usize = 2;

/// Index of the liquid phase in all per-phase arrays.
pub const LIQUID: usize = 3;

/// Phase identifiers for the Ag-Al-Cu ternary eutectic.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[repr(usize)]
pub enum Phase {
    /// α: Al-rich fcc solid solution.
    AlFcc = 0,
    /// γ: Ag₂Al intermetallic.
    Ag2Al = 1,
    /// θ: Al₂Cu intermetallic.
    Al2Cu = 2,
    /// Melt.
    Liquid = 3,
}

impl Phase {
    /// All phases in index order.
    pub const ALL: [Phase; N_PHASES] = [Phase::AlFcc, Phase::Ag2Al, Phase::Al2Cu, Phase::Liquid];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::AlFcc => "Al(fcc)",
            Phase::Ag2Al => "Ag2Al",
            Phase::Al2Cu => "Al2Cu",
            Phase::Liquid => "liquid",
        }
    }
}

/// Parabolic free-energy description of one phase.
#[derive(Copy, Clone, Debug, Serialize, Deserialize)]
pub struct PhaseThermo {
    /// Parabolic curvatures k_i (one per independent component). Must be > 0.
    pub curvature: [f64; N_COMP],
    /// Equilibrium concentrations at the eutectic temperature, c_i^{eu}.
    pub c_eu: [f64; N_COMP],
    /// Slopes s_i = dc_i^eq/dT of the equilibrium concentration lines
    /// (solidus planes for solids, liquidus plane for the liquid).
    pub dc_eq_dt: [f64; N_COMP],
    /// Scaled latent heat L_α; X_α(T) = L_α (T − T_eu)/T_eu. Zero for liquid.
    pub latent: f64,
    /// Diffusivity prefactor D_α (nondimensional, D_liquid = 1).
    pub diffusivity: f64,
    /// Relative temperature slope κ_i of the parabolic curvature:
    /// k_i(T) = k_i · (1 + κ_i (T − T_eu)). The Calphad-fitted parabolas of
    /// [5] have temperature-dependent coefficients — this is what makes the
    /// "temperature dependent diffusive concentration ... very compute
    /// intensive" (paper abstract) and what the T(z) optimization amortizes.
    pub dk_dt: [f64; N_COMP],
}

impl PhaseThermo {
    /// Equilibrium concentration at temperature `t`.
    #[inline]
    pub fn c_eq(&self, t: f64, t_eu: f64) -> [f64; N_COMP] {
        [
            self.c_eu[0] + self.dc_eq_dt[0] * (t - t_eu),
            self.c_eu[1] + self.dc_eq_dt[1] * (t - t_eu),
        ]
    }

    /// Grand-potential offset X(T).
    #[inline]
    pub fn offset(&self, t: f64, t_eu: f64) -> f64 {
        self.latent * (t - t_eu) / t_eu
    }

    /// Temperature-dependent parabolic curvature k_i(T).
    #[inline]
    pub fn curvature_at(&self, t: f64, t_eu: f64) -> [f64; N_COMP] {
        [
            self.curvature[0] * (1.0 + self.dk_dt[0] * (t - t_eu)),
            self.curvature[1] * (1.0 + self.dk_dt[1] * (t - t_eu)),
        ]
    }
}

/// Complete thermodynamic description of a ternary eutectic system.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TernarySystem {
    /// Per-phase parabolic descriptions, indexed by [`Phase`] order.
    pub phases: [PhaseThermo; N_PHASES],
    /// Eutectic temperature (1.0 in nondimensional units).
    pub t_eu: f64,
}

impl TernarySystem {
    /// The Ag-Al-Cu ternary eutectic system used throughout the paper.
    ///
    /// Nondimensionalized: T_eu = 1, D_liquid = 1. Compositions are atomic
    /// fractions (c = [c_Ag, c_Cu]); the eutectic liquid composition and the
    /// near-stoichiometric solid compositions follow Witusiewicz et al. and
    /// the experimental characterization by Genau/Dennstedt cited in the
    /// paper. The lever rule applied to these compositions gives solid
    /// volume fractions ≈ (0.39, 0.24, 0.38) for (Al, Ag₂Al, Al₂Cu) — the
    /// "similar phase fractions" regime the paper highlights.
    pub fn ag_al_cu() -> Self {
        Self {
            phases: [
                // α-Al (fcc): dilute in Ag and Cu.
                PhaseThermo {
                    curvature: [10.0, 10.0],
                    c_eu: [0.05, 0.03],
                    dc_eq_dt: [0.01, 0.01],
                    latent: 4.0,
                    diffusivity: 1e-4,
                    dk_dt: [0.3, 0.3],
                },
                // Ag₂Al: Ag-rich intermetallic (stoichiometric c_Ag = 2/3).
                PhaseThermo {
                    curvature: [10.0, 10.0],
                    c_eu: [0.667, 0.01],
                    dc_eq_dt: [0.01, 0.01],
                    latent: 4.0,
                    diffusivity: 1e-4,
                    dk_dt: [0.3, 0.3],
                },
                // Al₂Cu: Cu-rich intermetallic (stoichiometric c_Cu = 1/3).
                PhaseThermo {
                    curvature: [10.0, 10.0],
                    c_eu: [0.01, 0.333],
                    dc_eq_dt: [0.01, 0.01],
                    latent: 4.0,
                    diffusivity: 1e-4,
                    dk_dt: [0.3, 0.3],
                },
                // Liquid at the ternary eutectic composition.
                PhaseThermo {
                    curvature: [2.0, 2.0],
                    c_eu: [0.18, 0.14],
                    dc_eq_dt: [0.05, 0.05],
                    latent: 0.0,
                    diffusivity: 1.0,
                    dk_dt: [0.2, 0.2],
                },
            ],
            t_eu: 1.0,
        }
    }

    /// Phase concentration c^α(µ, T).
    #[inline]
    pub fn c_of_mu(&self, alpha: usize, mu: [f64; N_COMP], t: f64) -> [f64; N_COMP] {
        let p = &self.phases[alpha];
        let c_eq = p.c_eq(t, self.t_eu);
        let k = p.curvature_at(t, self.t_eu);
        [
            c_eq[0] + mu[0] / (2.0 * k[0]),
            c_eq[1] + mu[1] / (2.0 * k[1]),
        ]
    }

    /// Chemical potential µ = ∂f_α/∂c for a given phase concentration.
    #[inline]
    pub fn mu_of_c(&self, alpha: usize, c: [f64; N_COMP], t: f64) -> [f64; N_COMP] {
        let p = &self.phases[alpha];
        let c_eq = p.c_eq(t, self.t_eu);
        let k = p.curvature_at(t, self.t_eu);
        [2.0 * k[0] * (c[0] - c_eq[0]), 2.0 * k[1] * (c[1] - c_eq[1])]
    }

    /// Parabolic free energy f_α(c, T).
    #[inline]
    pub fn free_energy(&self, alpha: usize, c: [f64; N_COMP], t: f64) -> f64 {
        let p = &self.phases[alpha];
        let c_eq = p.c_eq(t, self.t_eu);
        let k = p.curvature_at(t, self.t_eu);
        let d0 = c[0] - c_eq[0];
        let d1 = c[1] - c_eq[1];
        k[0] * d0 * d0 + k[1] * d1 * d1 + p.offset(t, self.t_eu)
    }

    /// Grand potential ψ_α(µ, T) = f − µ·c (Legendre transform of `free_energy`).
    #[inline]
    pub fn grand_potential(&self, alpha: usize, mu: [f64; N_COMP], t: f64) -> f64 {
        let p = &self.phases[alpha];
        let c_eq = p.c_eq(t, self.t_eu);
        let k = p.curvature_at(t, self.t_eu);
        -(mu[0] * mu[0] / (4.0 * k[0]) + mu[1] * mu[1] / (4.0 * k[1]))
            - (mu[0] * c_eq[0] + mu[1] * c_eq[1])
            + p.offset(t, self.t_eu)
    }

    /// Diagonal susceptibility (∂c/∂µ)_α = diag(1/(2k_i(T))).
    #[inline]
    pub fn susceptibility(&self, alpha: usize, t: f64) -> [f64; N_COMP] {
        let k = self.phases[alpha].curvature_at(t, self.t_eu);
        [1.0 / (2.0 * k[0]), 1.0 / (2.0 * k[1])]
    }

    /// Temperature coupling (∂c/∂T)_α at fixed µ (= slope of c^eq).
    #[inline]
    pub fn dc_dt(&self, alpha: usize) -> [f64; N_COMP] {
        self.phases[alpha].dc_eq_dt
    }

    /// Per-phase mobility contribution D_α · χ_α(T) (diagonal).
    #[inline]
    pub fn mobility(&self, alpha: usize, t: f64) -> [f64; N_COMP] {
        let chi = self.susceptibility(alpha, t);
        let d = self.phases[alpha].diffusivity;
        [d * chi[0], d * chi[1]]
    }

    /// Solid volume fractions (Al, Ag₂Al, Al₂Cu) from the lever rule at the
    /// eutectic point: solve Σ_α f_α c^α = c^ℓ with Σ f_α = 1.
    ///
    /// Used by the Voronoi initialization to seed solid nuclei "with respect
    /// to the given volume fractions of the phases" (Sec. 2.1).
    pub fn eutectic_fractions(&self) -> [f64; 3] {
        let c = |a: usize| self.phases[a].c_eu;
        let (ca, cb, cc, cl) = (c(0), c(1), c(2), c(3));
        // Solve the 3x3 linear system
        //   [ca0 cb0 cc0] [fa]   [cl0]
        //   [ca1 cb1 cc1] [fb] = [cl1]
        //   [ 1   1   1 ] [fc]   [ 1 ]
        let m = [
            [ca[0], cb[0], cc[0]],
            [ca[1], cb[1], cc[1]],
            [1.0, 1.0, 1.0],
        ];
        let rhs = [cl[0], cl[1], 1.0];
        solve3(m, rhs)
    }

    /// Physically plausible per-component bounds on the chemical potential,
    /// `[(lo, hi); N_COMP]`, derived from the parabolic free energies: the
    /// extreme values µ_i = 2 k_i(T) (c_i − c_i^eq(T)) can take for *any*
    /// phase with concentrations in `[−c_margin, 1 + c_margin]` (atomic
    /// fractions padded by `c_margin`) and temperatures in `[t_lo, t_hi]`.
    ///
    /// A µ value outside these bounds cannot arise from any physical
    /// composition and therefore indicates corrupted state — this is the
    /// contract the `core::health` invariant scans enforce at runtime.
    ///
    /// k_i(T)·(c − c_i^eq(T)) is quadratic in T, so the extremum over the
    /// temperature interval need not sit at an endpoint; the interval is
    /// sampled densely, which is exact enough for a plausibility envelope.
    pub fn mu_plausible_bounds(&self, t_lo: f64, t_hi: f64, c_margin: f64) -> [(f64, f64); N_COMP] {
        assert!(t_lo <= t_hi, "empty temperature interval");
        assert!(c_margin >= 0.0, "negative concentration margin");
        let mut bounds = [(f64::INFINITY, f64::NEG_INFINITY); N_COMP];
        const T_SAMPLES: usize = 17;
        for s in 0..T_SAMPLES {
            let t = t_lo + (t_hi - t_lo) * s as f64 / (T_SAMPLES - 1) as f64;
            for ph in &self.phases {
                let c_eq = ph.c_eq(t, self.t_eu);
                let k = ph.curvature_at(t, self.t_eu);
                for i in 0..N_COMP {
                    for c in [-c_margin, 1.0 + c_margin] {
                        let mu = 2.0 * k[i] * (c - c_eq[i]);
                        bounds[i].0 = bounds[i].0.min(mu);
                        bounds[i].1 = bounds[i].1.max(mu);
                    }
                }
            }
        }
        bounds
    }
}

/// Solve a 3×3 linear system by Cramer's rule.
fn solve3(m: [[f64; 3]; 3], b: [f64; 3]) -> [f64; 3] {
    let det = det3(m);
    assert!(det.abs() > 1e-12, "singular phase-composition matrix");
    let mut out = [0.0; 3];
    for (col, o) in out.iter_mut().enumerate() {
        let mut mc = m;
        for row in 0..3 {
            mc[row][col] = b[row];
        }
        *o = det3(mc) / det;
    }
    out
}

fn det3(m: [[f64; 3]; 3]) -> f64 {
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> TernarySystem {
        TernarySystem::ag_al_cu()
    }

    #[test]
    fn mu_c_roundtrip() {
        let s = sys();
        for a in 0..N_PHASES {
            for &t in &[0.95, 1.0, 1.02] {
                let mu = [0.3, -0.2];
                let c = s.c_of_mu(a, mu, t);
                let mu2 = s.mu_of_c(a, c, t);
                assert!((mu[0] - mu2[0]).abs() < 1e-12);
                assert!((mu[1] - mu2[1]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn grand_potential_is_legendre_transform() {
        let s = sys();
        for a in 0..N_PHASES {
            for &t in &[0.9, 1.0, 1.1] {
                for &mu in &[[0.0, 0.0], [0.5, -0.3], [-1.0, 0.25]] {
                    let c = s.c_of_mu(a, mu, t);
                    let psi = s.grand_potential(a, mu, t);
                    let f = s.free_energy(a, c, t);
                    let legendre = f - (mu[0] * c[0] + mu[1] * c[1]);
                    assert!(
                        (psi - legendre).abs() < 1e-12,
                        "phase {a}: psi={psi} vs f-mu.c={legendre}"
                    );
                }
            }
        }
    }

    #[test]
    fn eutectic_point_is_quadruple_equilibrium() {
        // At T = T_eu and µ = 0, all four grand potentials must coincide:
        // this is the defining property of the ternary eutectic point.
        let s = sys();
        let psi: Vec<f64> = (0..N_PHASES)
            .map(|a| s.grand_potential(a, [0.0, 0.0], s.t_eu))
            .collect();
        for a in 1..N_PHASES {
            assert!(
                (psi[a] - psi[0]).abs() < 1e-14,
                "psi mismatch at eutectic: {psi:?}"
            );
        }
    }

    #[test]
    fn undercooling_favors_all_solids() {
        let s = sys();
        let t = 0.97; // 3% undercooling
        let psi_l = s.grand_potential(LIQUID, [0.0, 0.0], t);
        for a in 0..3 {
            let psi_s = s.grand_potential(a, [0.0, 0.0], t);
            assert!(
                psi_s < psi_l,
                "solid {a} not favored below T_eu: {psi_s} >= {psi_l}"
            );
        }
        // And above the eutectic temperature the liquid must win.
        let t = 1.03;
        let psi_l = s.grand_potential(LIQUID, [0.0, 0.0], t);
        for a in 0..3 {
            assert!(s.grand_potential(a, [0.0, 0.0], t) > psi_l);
        }
    }

    #[test]
    fn susceptibility_is_dc_dmu() {
        let s = sys();
        let t = 0.99;
        let eps = 1e-6;
        for a in 0..N_PHASES {
            let chi = s.susceptibility(a, t);
            for i in 0..N_COMP {
                let mut mu_p = [0.1, 0.2];
                let mut mu_m = [0.1, 0.2];
                mu_p[i] += eps;
                mu_m[i] -= eps;
                let num = (s.c_of_mu(a, mu_p, t)[i] - s.c_of_mu(a, mu_m, t)[i]) / (2.0 * eps);
                assert!((num - chi[i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn eutectic_fractions_sum_to_one_and_are_positive() {
        let f = sys().eutectic_fractions();
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "fractions {f:?} sum {sum}");
        for (i, &fi) in f.iter().enumerate() {
            assert!(fi > 0.05 && fi < 0.9, "fraction {i} out of range: {fi}");
        }
        // Lever-rule consistency: Σ f_α c^α = c^ℓ.
        let s = sys();
        for comp in 0..N_COMP {
            let mix: f64 = (0..3).map(|a| f[a] * s.phases[a].c_eu[comp]).sum();
            assert!((mix - s.phases[LIQUID].c_eu[comp]).abs() < 1e-12);
        }
    }

    #[test]
    fn mu_plausible_bounds_contain_all_physical_mu() {
        let s = sys();
        let b = s.mu_plausible_bounds(0.9, 1.1, 0.25);
        // Every µ reachable from an in-range composition must lie inside.
        for a in 0..N_PHASES {
            for &t in &[0.9, 0.95, 1.0, 1.05, 1.1] {
                for &c0 in &[-0.25, 0.0, 0.5, 1.0, 1.25] {
                    for &c1 in &[-0.25, 0.0, 0.5, 1.0, 1.25] {
                        let mu = s.mu_of_c(a, [c0, c1], t);
                        for i in 0..N_COMP {
                            assert!(
                                mu[i] >= b[i].0 - 1e-12 && mu[i] <= b[i].1 + 1e-12,
                                "phase {a} t={t} c=({c0},{c1}): mu[{i}]={} outside {:?}",
                                mu[i],
                                b[i]
                            );
                        }
                    }
                }
            }
        }
        // The envelope is finite, nonempty, and straddles zero (eutectic
        // equilibrium µ = 0 must always be plausible).
        for (lo, hi) in b {
            assert!(lo.is_finite() && hi.is_finite() && lo < 0.0 && hi > 0.0);
        }
        // A wider concentration margin can only widen the envelope.
        let wider = s.mu_plausible_bounds(0.9, 1.1, 0.5);
        for i in 0..N_COMP {
            assert!(wider[i].0 <= b[i].0 && wider[i].1 >= b[i].1);
        }
    }

    #[test]
    fn driving_force_slope_matches_latent_heat() {
        // dψ_s/dT − dψ_ℓ/dT at µ=0 should equal L_s/T_eu − (c-slope terms).
        // Verify numerically that the undercooling response is linear.
        let s = sys();
        let d =
            |t: f64| s.grand_potential(0, [0.0, 0.0], t) - s.grand_potential(LIQUID, [0.0, 0.0], t);
        let d1 = d(0.99);
        let d2 = d(0.98);
        // Linear: doubling the undercooling doubles the driving force.
        assert!((d2 - 2.0 * d1).abs() < 1e-12);
    }
}
