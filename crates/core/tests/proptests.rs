//! Property-based tests (proptest) on the solver's core invariants.

use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::{
    mu_sweep, phi_sweep, KernelConfig, MuPart, MuVariant, PhiVariant, SimdIsa,
};
use eutectica_core::model::{interp_h, mixture_concentration, phi_face_flux};
use eutectica_core::params::ModelParams;
use eutectica_core::simplex::{on_simplex, project_to_simplex};
use eutectica_core::state::BlockState;
use eutectica_core::temperature::SliceCtx;
use proptest::prelude::*;

fn arb_phi() -> impl Strategy<Value = [f64; 4]> {
    prop::array::uniform4(-2.0..3.0f64)
}

fn arb_simplex() -> impl Strategy<Value = [f64; 4]> {
    arb_phi().prop_map(project_to_simplex)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The projection always lands on the simplex and is idempotent.
    #[test]
    fn projection_is_valid_and_idempotent(raw in arb_phi()) {
        let p = project_to_simplex(raw);
        prop_assert!(on_simplex(p, 1e-9), "{raw:?} -> {p:?}");
        let q = project_to_simplex(p);
        for i in 0..4 {
            prop_assert!((p[i] - q[i]).abs() < 1e-12);
        }
    }

    /// Projection never moves a point that is already on the simplex.
    #[test]
    fn projection_fixes_simplex_points(p in arb_simplex()) {
        let q = project_to_simplex(p);
        for i in 0..4 {
            prop_assert!((p[i] - q[i]).abs() < 1e-9);
        }
    }

    /// The projection is a contraction towards the simplex: the projected
    /// point is never farther from any simplex point than the original.
    #[test]
    fn projection_is_euclidean_contraction(raw in arb_phi(), other in arb_simplex()) {
        let p = project_to_simplex(raw);
        let d = |a: [f64; 4], b: [f64; 4]| -> f64 {
            (0..4).map(|i| (a[i] - b[i]).powi(2)).sum()
        };
        prop_assert!(d(p, other) <= d(raw, other) + 1e-9);
    }

    /// Moelans weights are a partition of unity on the simplex.
    #[test]
    fn interpolation_partitions_unity(phi in arb_simplex()) {
        let h = interp_h(phi);
        let sum: f64 = h.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "{phi:?} -> {h:?}");
        prop_assert!(h.iter().all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
    }

    /// The staggered face flux is antisymmetric under swapping the cells:
    /// the flux cell L sends to R equals minus what R sends to L, which is
    /// what makes the finite-volume divergence telescoping (conservation).
    #[test]
    fn phi_face_flux_is_antisymmetric(l in arb_simplex(), r in arb_simplex()) {
        let params = ModelParams::ag_al_cu();
        let f_lr = phi_face_flux(&params.gamma, l, r, 1.0);
        let f_rl = phi_face_flux(&params.gamma, r, l, 1.0);
        for a in 0..4 {
            prop_assert!((f_lr[a] + f_rl[a]).abs() < 1e-12, "{f_lr:?} vs {f_rl:?}");
        }
    }

    /// Mixture concentrations stay within the physical simplex of
    /// compositions for on-simplex φ and bounded µ.
    #[test]
    fn mixture_concentration_is_bounded(phi in arb_simplex(), mu in prop::array::uniform2(-0.5..0.5f64)) {
        let params = ModelParams::ag_al_cu();
        let ctx = SliceCtx::at(&params, 0.97);
        let c = mixture_concentration(&ctx, phi, mu);
        prop_assert!(c[0] > -0.2 && c[0] < 1.2, "{c:?}");
        prop_assert!(c[1] > -0.2 && c[1] < 1.2, "{c:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The per-slice table agrees with direct evaluation for every (µ, T).
    #[test]
    fn slice_matches_direct(
        mu in prop::array::uniform2(-2.0..2.0f64),
        t in 0.85..1.15f64,
        a in 0usize..4,
    ) {
        let params = ModelParams::ag_al_cu();
        let (s, ctx) = (&params.sys, SliceCtx::at(&params, t));
        prop_assert!((ctx.grand_potential(a, mu) - s.grand_potential(a, mu, t)).abs() < 1e-12);
        let c1 = ctx.c_of_mu(a, mu);
        let c2 = s.c_of_mu(a, mu, t);
        prop_assert!((c1[0] - c2[0]).abs() < 1e-12 && (c1[1] - c2[1]).abs() < 1e-12);
    }
}

/// Build a random valid block state from a proptest-provided seed.
fn state_from_seed(seed: u64, n: usize) -> BlockState {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dims = GridDims::cube(n);
    let mut s = BlockState::new(dims, [0, 0, 0]);
    for z in 0..dims.tz() {
        for y in 0..dims.ty() {
            for x in 0..dims.tx() {
                let raw: [f64; 4] = core::array::from_fn(|_| rng.random_range(0.0..1.0));
                let phi = project_to_simplex(raw);
                s.phi_src.set_cell(x, y, z, phi);
                let nudged: [f64; 4] =
                    core::array::from_fn(|a| phi[a] + rng.random_range(-0.02..0.02));
                s.phi_dst.set_cell(x, y, z, project_to_simplex(nudged));
                s.mu_src.set_cell(
                    x,
                    y,
                    z,
                    [rng.random_range(-0.3..0.3), rng.random_range(-0.3..0.3)],
                );
            }
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On arbitrary valid states, all φ-kernel variants agree and produce
    /// on-simplex output.
    #[test]
    fn phi_kernels_agree_on_arbitrary_states(seed in any::<u64>(), time in 0.0..50.0f64) {
        let params = ModelParams::ag_al_cu();
        let base = state_from_seed(seed, 6);
        let mut results = Vec::new();
        for variant in [PhiVariant::Reference, PhiVariant::Scalar, PhiVariant::SimdCellwise, PhiVariant::SimdFourCell] {
            let cfg = KernelConfig {
                phi: variant,
                mu: MuVariant::Scalar,
                isa: SimdIsa::Auto,
                tz_precompute: variant == PhiVariant::SimdCellwise,
                staggered_buffer: variant == PhiVariant::SimdCellwise,
                shortcuts: variant != PhiVariant::Reference,
            };
            let mut s = base.clone();
            phi_sweep(&params, &mut s, time, cfg);
            results.push(s);
        }
        let d = base.dims;
        for s in &results[1..] {
            for c in 0..4 {
                for (x, y, z) in d.interior_iter() {
                    let a = results[0].phi_dst.at(c, x, y, z);
                    let b = s.phi_dst.at(c, x, y, z);
                    prop_assert!((a - b).abs() < 1e-10, "phi[{c}]@({x},{y},{z}): {a} vs {b}");
                }
            }
        }
        for (x, y, z) in d.interior_iter() {
            prop_assert!(on_simplex(results[0].phi_dst.cell(x, y, z), 1e-9));
        }
    }

    /// On arbitrary valid states, all µ-kernel variants agree.
    #[test]
    fn mu_kernels_agree_on_arbitrary_states(seed in any::<u64>()) {
        let params = ModelParams::ag_al_cu();
        let base = state_from_seed(seed, 6);
        let mut results = Vec::new();
        for variant in [MuVariant::Reference, MuVariant::Scalar, MuVariant::SimdFourCell] {
            let cfg = KernelConfig {
                phi: PhiVariant::Scalar,
                mu: variant,
                isa: SimdIsa::Auto,
                tz_precompute: variant == MuVariant::SimdFourCell,
                staggered_buffer: variant == MuVariant::SimdFourCell,
                shortcuts: variant == MuVariant::SimdFourCell,
            };
            let mut s = base.clone();
            mu_sweep(&params, &mut s, 1.0, cfg, MuPart::Full);
            results.push(s);
        }
        let d = base.dims;
        for s in &results[1..] {
            for c in 0..2 {
                for (x, y, z) in d.interior_iter() {
                    let a = results[0].mu_dst.at(c, x, y, z);
                    let b = s.mu_dst.at(c, x, y, z);
                    prop_assert!((a - b).abs() < 1e-10, "mu[{c}]@({x},{y},{z}): {a} vs {b}");
                }
            }
        }
    }
}
