//! Model and numerical parameters.

use eutectica_thermo::TernarySystem;
use serde::{Deserialize, Serialize};

use crate::{N_COMP, N_PHASES};

/// Why [`ModelParams::validate`] rejected a parameter set.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamError {
    /// A parameter is NaN or infinite.
    NonFinite {
        /// Field name of the offending parameter.
        name: &'static str,
    },
    /// `eps`, `tau`, `dx` and `dt` must be strictly positive.
    NonPositive {
        /// Field name of the offending parameter.
        name: &'static str,
        /// Its value.
        value: f64,
    },
    /// `dt` exceeds the explicit-Euler stability limit.
    Unstable {
        /// The requested time step.
        dt: f64,
        /// The largest stable time step.
        dt_max: f64,
        /// Effective µ diffusivity.
        d_mu: f64,
        /// Effective φ diffusivity.
        d_phi: f64,
    },
    /// The surface-energy matrix is not symmetric at `(a, b)`.
    AsymmetricGamma {
        /// Row.
        a: usize,
        /// Column.
        b: usize,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite { name } => write!(f, "{name} is not finite"),
            Self::NonPositive { name, value } => write!(f, "{name} = {value} must be positive"),
            Self::Unstable {
                dt,
                dt_max,
                d_mu,
                d_phi,
            } => write!(
                f,
                "dt = {dt} exceeds stability limit {dt_max:.4} (D_mu = {d_mu}, D_phi = {d_phi:.3})"
            ),
            Self::AsymmetricGamma { a, b } => write!(f, "gamma not symmetric at ({a},{b})"),
        }
    }
}

impl std::error::Error for ParamError {}

/// All physical and numerical parameters of the phase-field model.
///
/// Everything is nondimensionalized: `dx = 1` cell, eutectic temperature 1,
/// liquid diffusivity 1 (see `eutectica-thermo`). Defaults correspond to the
/// Ag-Al-Cu directional-solidification scenario of the paper, scaled to
/// workstation domain sizes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelParams {
    /// Thermodynamic description of the ternary system.
    pub sys: TernarySystem,
    /// Interface-width parameter ε (in units of dx). The diffuse interface
    /// spans ≈ π²ε/4 cells.
    pub eps: f64,
    /// Relaxation constant τ coupling the phase-field to physical time.
    pub tau: f64,
    /// Symmetric surface-energy matrix γ_αβ (diagonal unused).
    pub gamma: [[f64; N_PHASES]; N_PHASES],
    /// Grid spacing (1 in nondimensional units).
    pub dx: f64,
    /// Time-step size; must satisfy [`ModelParams::validate`].
    pub dt: f64,
    /// Temperature at global z = 0 at t = 0.
    pub t0: f64,
    /// Frozen temperature gradient G (per cell).
    pub grad_g: f64,
    /// Pulling velocity v of the temperature profile (cells per time unit).
    pub vel_v: f64,
    /// Enable the anti-trapping current J_at (Eq. 4). Disabling it is the
    /// model ablation discussed in the introduction (refs. [29] vs [30]).
    pub enable_atc: bool,
}

impl ModelParams {
    /// Default Ag-Al-Cu directional solidification parameters.
    pub fn ag_al_cu() -> Self {
        let g = 1.0;
        let mut gamma = [[g; N_PHASES]; N_PHASES];
        for (a, row) in gamma.iter_mut().enumerate() {
            row[a] = 0.0;
        }
        Self {
            sys: TernarySystem::ag_al_cu(),
            eps: 2.0,
            tau: 1.0,
            gamma,
            dx: 1.0,
            dt: 0.08,
            // Slightly undercooled at the bottom so nuclei grow, with the
            // eutectic isotherm inside the domain.
            t0: 0.97,
            grad_g: 0.001,
            vel_v: 0.02,
            enable_atc: true,
        }
    }

    /// Frozen-temperature ansatz: T(z, t) = t0 + G (z·dx − v·t), constant in
    /// each x-y-slice (Sec. 2; Fig. 2).
    #[inline(always)]
    pub fn temperature(&self, global_z: f64, time: f64) -> f64 {
        self.t0 + self.grad_g * (global_z * self.dx - self.vel_v * time)
    }

    /// ∂T/∂t of the frozen profile (spatially constant): −G·v.
    #[inline(always)]
    pub fn dtemp_dt(&self) -> f64 {
        -self.grad_g * self.vel_v
    }

    /// Largest surface energy (used by the stability estimate).
    fn gamma_max(&self) -> f64 {
        let mut m: f64 = 0.0;
        for a in 0..N_PHASES {
            for b in 0..N_PHASES {
                if a != b {
                    m = m.max(self.gamma[a][b]);
                }
            }
        }
        m
    }

    /// Check explicit-Euler stability limits.
    ///
    /// The µ-equation is diffusive with effective diffusivity D_α (χ cancels
    /// between mobility and susceptibility), the φ-equation with effective
    /// diffusivity ≈ 2 T γ_max / τ. Both must satisfy the 3-D stability
    /// bound `dt ≤ dx² / (6 D)` with margin.
    ///
    /// Every numerical parameter must be finite first: a NaN would sail
    /// through the comparisons below (`f64::max` drops it) and fill the run
    /// with NaN.
    pub fn validate(&self) -> Result<(), ParamError> {
        let scalars = [
            ("eps", self.eps),
            ("tau", self.tau),
            ("dx", self.dx),
            ("dt", self.dt),
            ("t0", self.t0),
            ("grad_g", self.grad_g),
            ("vel_v", self.vel_v),
        ];
        let gammas = self.gamma.iter().flatten().map(|&g| ("gamma", g));
        if let Some((name, _)) = scalars
            .into_iter()
            .chain(gammas)
            .find(|(_, v)| !v.is_finite())
        {
            return Err(ParamError::NonFinite { name });
        }
        if let Some(&(name, value)) = scalars[..4].iter().find(|(_, v)| *v <= 0.0) {
            return Err(ParamError::NonPositive { name, value });
        }
        let d_mu = self
            .sys
            .phases
            .iter()
            .map(|p| p.diffusivity)
            .fold(0.0f64, f64::max);
        // The moving window keeps temperatures near T_eu; bound the profile
        // by a 512-cell domain height.
        let t_max = self.t0 + self.grad_g.abs() * 512.0;
        let d_phi = t_max * self.gamma_max() / self.tau;
        let d = d_mu.max(d_phi);
        let dt_max = self.dx * self.dx / (6.0 * d);
        // Written so that NaN fails: `f64::max` drops a NaN operand,
        // `d_phi <= d` does not.
        let stable = d_phi <= d && self.dt <= dt_max;
        if !stable {
            return Err(ParamError::Unstable {
                dt: self.dt,
                dt_max,
                d_mu,
                d_phi,
            });
        }
        for a in 0..N_PHASES {
            for b in 0..N_PHASES {
                let symmetric = (self.gamma[a][b] - self.gamma[b][a]).abs() <= 1e-14;
                if !symmetric {
                    return Err(ParamError::AsymmetricGamma { a, b });
                }
            }
        }
        Ok(())
    }

    /// Scaled obstacle-potential prefactor 16/π².
    #[inline(always)]
    pub fn obstacle_scale() -> f64 {
        16.0 / (core::f64::consts::PI * core::f64::consts::PI)
    }

    /// Anti-trapping prefactor π ε / 4 (Eq. 4).
    #[inline(always)]
    pub fn atc_prefactor(&self) -> f64 {
        core::f64::consts::PI * self.eps / 4.0
    }

    /// Per-phase dc^eq/dT slopes (temperature-independent).
    pub fn dc_dt_coeffs(&self) -> [[f64; N_COMP]; N_PHASES] {
        core::array::from_fn(|a| self.sys.dc_dt(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_stable() {
        ModelParams::ag_al_cu()
            .validate()
            .expect("default params valid");
    }

    #[test]
    fn unstable_dt_rejected() {
        let mut p = ModelParams::ag_al_cu();
        p.dt = 10.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn non_finite_parameters_rejected() {
        type Poke = fn(&mut ModelParams, f64);
        let poke: [(&str, Poke); 8] = [
            ("eps", |p, v| p.eps = v),
            ("tau", |p, v| p.tau = v),
            ("dx", |p, v| p.dx = v),
            ("dt", |p, v| p.dt = v),
            ("t0", |p, v| p.t0 = v),
            ("grad_g", |p, v| p.grad_g = v),
            ("vel_v", |p, v| p.vel_v = v),
            ("gamma", |p, v| p.gamma[1][2] = v),
        ];
        for (name, set) in poke {
            for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut p = ModelParams::ag_al_cu();
                set(&mut p, v);
                assert_eq!(p.validate(), Err(ParamError::NonFinite { name }), "{v}");
                assert!(crate::solver::Simulation::new(p, [4, 4, 4]).is_err());
            }
        }
        let mut p = ModelParams::ag_al_cu();
        p.tau = 0.0;
        let e = p.validate().unwrap_err();
        assert_eq!(e.to_string(), "tau = 0 must be positive");
    }

    #[test]
    fn asymmetric_gamma_rejected() {
        let mut p = ModelParams::ag_al_cu();
        p.gamma[0][1] = 2.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn temperature_profile_moves_with_velocity() {
        let p = ModelParams::ag_al_cu();
        let t_a = p.temperature(10.0, 0.0);
        let t_b = p.temperature(10.0, 100.0);
        // Temperature at a fixed point drops as the hot zone moves up.
        assert!(t_b < t_a);
        assert!((t_a - t_b - p.grad_g * p.vel_v * 100.0).abs() < 1e-12);
        assert!((p.dtemp_dt() + p.grad_g * p.vel_v).abs() < 1e-15);
        // Higher z is hotter (liquid on top).
        assert!(p.temperature(50.0, 0.0) > p.temperature(0.0, 0.0));
    }
}
