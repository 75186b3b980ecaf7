//! Property-based tests of the thermodynamic identities.

use eutectica_thermo::{TernarySystem, LIQUID, N_PHASES};
use proptest::prelude::*;

fn arb_mu() -> impl Strategy<Value = [f64; 2]> {
    prop::array::uniform2(-2.0..2.0f64)
}

fn arb_t() -> impl Strategy<Value = f64> {
    0.85..1.15f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// µ ↔ c is an exact bijection at every temperature.
    #[test]
    fn mu_c_bijection(mu in arb_mu(), t in arb_t(), a in 0usize..N_PHASES) {
        let s = TernarySystem::ag_al_cu();
        let c = s.c_of_mu(a, mu, t);
        let back = s.mu_of_c(a, c, t);
        prop_assert!((mu[0] - back[0]).abs() < 1e-10);
        prop_assert!((mu[1] - back[1]).abs() < 1e-10);
    }

    /// The grand potential is the Legendre transform of the free energy:
    /// ψ(µ) = f(c(µ)) − µ·c(µ), everywhere.
    #[test]
    fn legendre_identity(mu in arb_mu(), t in arb_t(), a in 0usize..N_PHASES) {
        let s = TernarySystem::ag_al_cu();
        let c = s.c_of_mu(a, mu, t);
        let psi = s.grand_potential(a, mu, t);
        let f = s.free_energy(a, c, t);
        let legendre = f - (mu[0] * c[0] + mu[1] * c[1]);
        prop_assert!((psi - legendre).abs() < 1e-10, "{psi} vs {legendre}");
    }

    /// ψ is concave in µ (its Hessian is −χ ≺ 0): the chord lies below.
    #[test]
    fn grand_potential_is_concave(mu1 in arb_mu(), mu2 in arb_mu(), t in arb_t(), a in 0usize..N_PHASES, w in 0.0..1.0f64) {
        let s = TernarySystem::ag_al_cu();
        let mid = [
            w * mu1[0] + (1.0 - w) * mu2[0],
            w * mu1[1] + (1.0 - w) * mu2[1],
        ];
        let psi_mid = s.grand_potential(a, mid, t);
        let chord = w * s.grand_potential(a, mu1, t) + (1.0 - w) * s.grand_potential(a, mu2, t);
        prop_assert!(psi_mid >= chord - 1e-9, "{psi_mid} < {chord}");
    }

    /// The susceptibility is positive (thermodynamic stability) at all
    /// relevant temperatures.
    #[test]
    fn susceptibility_positive(t in arb_t(), a in 0usize..N_PHASES) {
        let s = TernarySystem::ag_al_cu();
        let chi = s.susceptibility(a, t);
        prop_assert!(chi[0] > 0.0 && chi[1] > 0.0, "{chi:?}");
    }

    /// Below T_eu every solid has lower grand potential than the liquid at
    /// µ = 0; above, the liquid wins (the eutectic-point construction).
    #[test]
    fn undercooling_sign(dt in 1e-4..0.1f64) {
        let s = TernarySystem::ag_al_cu();
        for a in 0..3 {
            prop_assert!(
                s.grand_potential(a, [0.0; 2], 1.0 - dt) < s.grand_potential(LIQUID, [0.0; 2], 1.0 - dt)
            );
            prop_assert!(
                s.grand_potential(a, [0.0; 2], 1.0 + dt) > s.grand_potential(LIQUID, [0.0; 2], 1.0 + dt)
            );
        }
    }
}
