//! Cross-variant kernel equivalence — the paper's Sec. 5.1.1: "To decrease
//! the maintenance effort for the various kernels, a regularly running test
//! suite checks all kernel versions for equivalence."
//!
//! Within the explicit-SIMD implementation, the T(z) / staggered-buffer /
//! shortcut flags must be **bit-exact** (they only reorganize identical
//! arithmetic or skip exactly-zero terms); the reference and scalar rungs
//! ignore them. Across implementations (reference ↔ scalar ↔ SIMD), FMA
//! contraction and summation order differ, so equivalence holds to tight
//! floating-point tolerance.

use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::{
    mu_sweep, phi_sweep, KernelConfig, MuPart, MuVariant, OptLevel, PhiVariant, SimdIsa,
};
use eutectica_core::params::ModelParams;
use eutectica_core::regions::{build_scenario, Scenario};
use eutectica_core::simplex::project_to_simplex;
use eutectica_core::state::BlockState;
use rand::{Rng, SeedableRng};

fn random_state(seed: u64, dims: GridDims) -> BlockState {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut s = BlockState::new(dims, [0, 0, 3]);
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

/// Test states: random (worst case) plus the three benchmark scenarios
/// (which exercise the bulk/pure/solid shortcut paths heavily).
fn states(dims: GridDims) -> Vec<(String, BlockState)> {
    let mut v = vec![
        ("random-1".to_string(), random_state(101, dims)),
        ("random-2".to_string(), random_state(202, dims)),
    ];
    for sc in Scenario::ALL {
        v.push((format!("{:?}", sc), build_scenario(sc, dims)));
    }
    v
}

fn max_phi_diff(a: &BlockState, b: &BlockState) -> f64 {
    let mut m = 0.0f64;
    for c in 0..4 {
        for (x, y, z) in a.dims.interior_iter() {
            m = m.max((a.phi_dst.at(c, x, y, z) - b.phi_dst.at(c, x, y, z)).abs());
        }
    }
    m
}

fn max_mu_diff(a: &BlockState, b: &BlockState) -> f64 {
    let mut m = 0.0f64;
    for c in 0..2 {
        for (x, y, z) in a.dims.interior_iter() {
            m = m.max((a.mu_dst.at(c, x, y, z) - b.mu_dst.at(c, x, y, z)).abs());
        }
    }
    m
}

fn cfg(phi: PhiVariant, mu: MuVariant, tz: bool, stag: bool, sc: bool) -> KernelConfig {
    KernelConfig {
        phi,
        mu,
        isa: SimdIsa::Auto,
        tz_precompute: tz,
        staggered_buffer: stag,
        shortcuts: sc,
    }
}

#[test]
fn phi_all_variants_agree() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(10); // not a multiple of 4: remainder path too
    for (name, base) in states(dims) {
        let mut oracle = base.clone();
        phi_sweep(
            &params,
            &mut oracle,
            1.5,
            cfg(PhiVariant::Scalar, MuVariant::Scalar, false, false, false),
        );
        let variants = [
            (PhiVariant::Reference, false, false, false),
            (PhiVariant::SimdCellwise, false, false, false),
            (PhiVariant::SimdCellwise, true, true, true),
            (PhiVariant::SimdFourCell, false, false, false),
            (PhiVariant::SimdFourCell, true, false, true),
        ];
        for (variant, tz, stag, sc) in variants {
            let mut s = base.clone();
            phi_sweep(
                &params,
                &mut s,
                1.5,
                cfg(variant, MuVariant::Scalar, tz, stag, sc),
            );
            let d = max_phi_diff(&oracle, &s);
            assert!(
                d < 1e-11,
                "{name}: φ {variant:?} (tz={tz},stag={stag},sc={sc}) differs by {d:e}"
            );
        }
    }
}

#[test]
fn mu_all_variants_agree() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(10);
    for (name, base) in states(dims) {
        let mut oracle = base.clone();
        mu_sweep(
            &params,
            &mut oracle,
            1.5,
            cfg(PhiVariant::Scalar, MuVariant::Scalar, false, false, false),
            MuPart::Full,
        );
        let variants = [
            (MuVariant::Reference, false, false, false),
            (MuVariant::SimdFourCell, false, false, false),
            (MuVariant::SimdFourCell, true, false, false),
            (MuVariant::SimdFourCell, true, true, false),
            (MuVariant::SimdFourCell, true, true, true),
        ];
        for (variant, tz, stag, sc) in variants {
            let mut s = base.clone();
            mu_sweep(
                &params,
                &mut s,
                1.5,
                cfg(PhiVariant::Scalar, variant, tz, stag, sc),
                MuPart::Full,
            );
            let d = max_mu_diff(&oracle, &s);
            assert!(
                d < 1e-11,
                "{name}: µ {variant:?} (tz={tz},stag={stag},sc={sc}) differs by {d:e}"
            );
        }
    }
}

/// Surface energies that differ per phase pair (symmetric, zero diagonal):
/// the φ-kernel's general Γ·v instead of its uniform-γ path.
fn non_uniform_gamma() -> ModelParams {
    let mut p = ModelParams::ag_al_cu();
    let g = p.gamma[0][1];
    for (a, b, f) in [
        (0, 1, 0.8),
        (0, 2, 1.1),
        (0, 3, 1.3),
        (1, 2, 0.9),
        (1, 3, 1.2),
        (2, 3, 1.05),
    ] {
        p.gamma[a][b] = g * f;
        p.gamma[b][a] = g * f;
    }
    p
}

/// The cellwise kernel's cases: cube(8), rows whose length is not a multiple
/// of its four-cell window (down to blocks narrower than one window), and a
/// non-uniform γ.
fn cellwise_cases() -> Vec<(&'static str, ModelParams, GridDims)> {
    let mut v = vec![("uniform γ", ModelParams::ag_al_cu(), GridDims::cube(8))];
    for nx in [3, 5, 7, 10] {
        v.push((
            "uniform γ",
            ModelParams::ag_al_cu(),
            GridDims::new(nx, 6, 5, 1),
        ));
    }
    v.push(("non-uniform γ", non_uniform_gamma(), GridDims::cube(8)));
    v.push((
        "non-uniform γ",
        non_uniform_gamma(),
        GridDims::new(7, 6, 5, 1),
    ));
    v
}

#[test]
fn simd_cellwise_flags_are_bit_exact() {
    for (gamma, params, dims) in cellwise_cases() {
        for (name, base) in states(dims) {
            let mut oracle = base.clone();
            phi_sweep(
                &params,
                &mut oracle,
                0.7,
                cfg(
                    PhiVariant::SimdCellwise,
                    MuVariant::Scalar,
                    false,
                    false,
                    false,
                ),
            );
            for tz in [false, true] {
                for stag in [false, true] {
                    for sc in [false, true] {
                        let mut s = base.clone();
                        phi_sweep(
                            &params,
                            &mut s,
                            0.7,
                            cfg(PhiVariant::SimdCellwise, MuVariant::Scalar, tz, stag, sc),
                        );
                        let d = max_phi_diff(&oracle, &s);
                        assert_eq!(
                            d, 0.0,
                            "{name} ({gamma}, nx={}): cellwise flags ({tz},{stag},{sc}) \
                             not bit-exact: {d:e}",
                            dims.nx
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn simd_mu_flags_are_bit_exact() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::new(12, 8, 8, 1); // multiple of 4: pure vector path
    for (name, base) in states(dims) {
        let mut oracle = base.clone();
        mu_sweep(
            &params,
            &mut oracle,
            0.7,
            cfg(
                PhiVariant::Scalar,
                MuVariant::SimdFourCell,
                false,
                false,
                false,
            ),
            MuPart::Full,
        );
        for tz in [false, true] {
            for stag in [false, true] {
                for sc in [false, true] {
                    let mut s = base.clone();
                    mu_sweep(
                        &params,
                        &mut s,
                        0.7,
                        cfg(PhiVariant::Scalar, MuVariant::SimdFourCell, tz, stag, sc),
                        MuPart::Full,
                    );
                    let d = max_mu_diff(&oracle, &s);
                    assert_eq!(
                        d, 0.0,
                        "{name}: four-cell µ flags ({tz},{stag},{sc}) not bit-exact: {d:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn split_mu_equals_full_for_all_variants() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(10);
    let base = random_state(7, dims);
    for variant in [MuVariant::Scalar, MuVariant::SimdFourCell] {
        let c = cfg(PhiVariant::Scalar, variant, true, true, true);
        let mut full = base.clone();
        mu_sweep(&params, &mut full, 0.3, c, MuPart::Full);
        let mut split = base.clone();
        mu_sweep(&params, &mut split, 0.3, c, MuPart::LocalOnly);
        mu_sweep(&params, &mut split, 0.3, c, MuPart::NeighborOnly);
        let d = max_mu_diff(&full, &split);
        assert!(d < 1e-12, "{variant:?}: split differs from full by {d:e}");
    }
}

#[test]
fn disabled_anti_trapping_changes_results_near_front_only() {
    // The ATC ablation: J_at only acts at the solidification front.
    let mut params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(12);
    let base = build_scenario(Scenario::Interface, dims);
    let c = KernelConfig::default();
    let mut with_atc = base.clone();
    mu_sweep(&params, &mut with_atc, 0.0, c, MuPart::Full);
    params.enable_atc = false;
    let mut without = base.clone();
    mu_sweep(&params, &mut without, 0.0, c, MuPart::Full);
    let d = max_mu_diff(&with_atc, &without);
    assert!(d > 0.0, "ATC had no effect at the front");
    // In the pure-liquid scenario the ATC changes nothing.
    let liquid = build_scenario(Scenario::Liquid, dims);
    params.enable_atc = true;
    let mut a = liquid.clone();
    mu_sweep(&params, &mut a, 0.0, c, MuPart::Full);
    params.enable_atc = false;
    let mut b = liquid.clone();
    mu_sweep(&params, &mut b, 0.0, c, MuPart::Full);
    assert_eq!(max_mu_diff(&a, &b), 0.0, "ATC acted in bulk liquid");
}

// ---------------------------------------------------------------------------
// The ladder as a whole, and the ISA switch.

/// Every rung of the ladder, under every ISA selectable here, agrees with
/// the reference rung on the full φ+µ step, to the suite's stated 1e-11
/// cross-implementation tolerance (bit-exactness among the SIMD rungs is
/// pinned separately below).
#[test]
fn every_rung_agrees_with_reference() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(10);
    let reference = OptLevel::Reference.config();
    for (name, base) in states(dims) {
        let (z0, z1) = dims.interior_z_range();
        let mut oracle = base.clone();
        phi_sweep_range(&params, &mut oracle, 1.5, reference, z0, z1);
        mu_sweep_range(&params, &mut oracle, 1.5, reference, MuPart::Full, z0, z1);
        for rung in OptLevel::LADDER {
            for isa in isas() {
                let c = KernelConfig {
                    isa,
                    ..rung.config()
                };
                let mut s = base.clone();
                phi_sweep_range(&params, &mut s, 1.5, c, z0, z1);
                mu_sweep_range(&params, &mut s, 1.5, c, MuPart::Full, z0, z1);
                let (dp, dm) = (max_phi_diff(&oracle, &s), max_mu_diff(&oracle, &s));
                assert!(
                    dp < 1e-11 && dm < 1e-11,
                    "{name}: rung {rung:?} on {isa:?} differs from reference by φ {dp:e} / µ {dm:e}"
                );
            }
        }
    }
}

/// The T(z) / staggered-buffer / shortcut flags are rungs on top of the
/// explicit-SIMD kernels: the scalar rung computes the `OptLevel::Basic`
/// result bit for bit whatever they say — on a block that is not a multiple
/// of 4, as a whole and cut into three z-slabs.
#[test]
fn scalar_rung_ignores_the_simd_toggles() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::new(10, 7, 9, 1);
    let (z0, z1) = dims.interior_z_range();
    let cut = |t: usize| z0 + (z1 - z0) * t / 3;
    for (name, base) in states(dims) {
        let mut want = base.clone();
        phi_sweep(&params, &mut want, 0.6, OptLevel::Basic.config());
        mu_sweep(
            &params,
            &mut want,
            0.6,
            OptLevel::Basic.config(),
            MuPart::Full,
        );
        for flags in 0..8u8 {
            let (tz, stag, sc) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let c = cfg(PhiVariant::Scalar, MuVariant::Scalar, tz, stag, sc);
            let what = format!("{name}: scalar (tz={tz},stag={stag},sc={sc})");
            let mut whole = base.clone();
            phi_sweep(&params, &mut whole, 0.6, c);
            mu_sweep(&params, &mut whole, 0.6, c, MuPart::Full);
            if let Some(d) = first_bit_diff(&want, &whole, &[]) {
                panic!("{what}: {d}");
            }
            let mut slabbed = base.clone();
            for t in (0..3).rev() {
                phi_sweep_range(&params, &mut slabbed, 0.6, c, cut(t), cut(t + 1));
            }
            for t in 0..3 {
                let (a, b) = (cut(t), cut(t + 1));
                mu_sweep_range(&params, &mut slabbed, 0.6, c, MuPart::Full, a, b);
            }
            if let Some(d) = first_bit_diff(&want, &slabbed, &[]) {
                panic!("{what}, 3 slabs: {d}");
            }
        }
    }
}

/// The four-cell kernels' remainder cells (the x = 4..7 tail of a 7-wide
/// row) run rung 1's scalar cell updates: bit for bit `OptLevel::Basic`
/// there, under every ISA × tz × stag × sc and at a `dx` other than 1. Both
/// µ runs read Basic's φ_dst, so no vector-cell φ difference reaches the
/// remainder's J_at.
#[test]
fn fourcell_remainders_are_the_basic_rung() {
    let dims = GridDims::new(7, 5, 5, 1);
    let g = dims.ghost;
    let tail: Vec<_> = dims.interior_iter().filter(|c| c.0 >= g + 4).collect();
    for dx in [1.0, 0.9] {
        let params = ModelParams {
            dx,
            ..ModelParams::ag_al_cu()
        };
        params.validate().unwrap();
        let basic = OptLevel::Basic.config();
        for (name, base) in states(dims) {
            let mut want_phi = base.clone();
            phi_sweep(&params, &mut want_phi, 0.6, basic);
            let mu_of = |c: KernelConfig, part: MuPart| {
                let mut s = want_phi.clone();
                if part == MuPart::NeighborOnly {
                    mu_sweep(&params, &mut s, 0.6, c, MuPart::LocalOnly);
                }
                mu_sweep(&params, &mut s, 0.6, c, part);
                s
            };
            let parts = [MuPart::Full, MuPart::LocalOnly, MuPart::NeighborOnly];
            let want_mu = parts.map(|part| mu_of(basic, part));
            for isa in isas() {
                for flags in 0..8u8 {
                    let (tz, stag, sc) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
                    let mut c = cfg(
                        PhiVariant::SimdFourCell,
                        MuVariant::SimdFourCell,
                        tz,
                        stag,
                        sc,
                    );
                    c.isa = isa;
                    let what = format!("{name} dx={dx} {isa:?} (tz={tz},stag={stag},sc={sc})");
                    let mut s = base.clone();
                    phi_sweep(&params, &mut s, 0.6, c);
                    for &(x, y, z) in &tail {
                        for a in 0..4 {
                            let (p, q) =
                                (want_phi.phi_dst.at(a, x, y, z), s.phi_dst.at(a, x, y, z));
                            assert_eq!(
                                p.to_bits(),
                                q.to_bits(),
                                "{what}: phi[{a}]@({x},{y},{z}): {p:e} vs {q:e}"
                            );
                        }
                    }
                    for (part, want) in parts.iter().zip(&want_mu) {
                        let s = mu_of(c, *part);
                        for &(x, y, z) in &tail {
                            for i in 0..2 {
                                let (p, q) = (want.mu_dst.at(i, x, y, z), s.mu_dst.at(i, x, y, z));
                                assert_eq!(
                                    p.to_bits(),
                                    q.to_bits(),
                                    "{what} {part:?}: mu[{i}]@({x},{y},{z}): {p:e} vs {q:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The runtime-detected AVX2 instantiation and the forced portable
/// fallback are bit-identical — the property that makes `SimdIsa::Auto`
/// invisible to physics.
#[test]
fn simd_isa_instantiations_are_bit_exact() {
    if !eutectica_simd::avx2_available() {
        eprintln!("skipping: AVX2+FMA not selectable on this host/build");
        return;
    }
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(10);
    for (name, base) in states(dims) {
        for phi in [PhiVariant::SimdCellwise, PhiVariant::SimdFourCell] {
            for (tz, stag, sc) in [(false, false, false), (true, true, true)] {
                let mut c = cfg(phi, MuVariant::SimdFourCell, tz, stag, sc);
                c.isa = SimdIsa::Avx2;
                let mut avx = base.clone();
                phi_sweep(&params, &mut avx, 0.9, c);
                mu_sweep(&params, &mut avx, 0.9, c, MuPart::Full);
                c.isa = SimdIsa::Portable;
                let mut port = base.clone();
                phi_sweep(&params, &mut port, 0.9, c);
                mu_sweep(&params, &mut port, 0.9, c, MuPart::Full);
                assert_eq!(
                    max_phi_diff(&avx, &port),
                    0.0,
                    "{name}: φ {phi:?} ({tz},{stag},{sc}) avx2 vs portable not bit-exact"
                );
                assert_eq!(
                    max_mu_diff(&avx, &port),
                    0.0,
                    "{name}: µ ({tz},{stag},{sc}) avx2 vs portable not bit-exact"
                );
            }
        }
    }
}

/// The AoS layout ablation kernel (Sec. 5.1.1) runs the arithmetic of the
/// SoA cellwise kernel at rung 4 and only loads its cells differently, so
/// it is bit-identical to it — under every ISA, hence across ISAs.
#[test]
fn aos_variant_matches_soa_cellwise() {
    for (gamma, params, dims) in cellwise_cases() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut s = BlockState::new(dims, [0, 0, 2]);
        for z in 0..dims.tz() {
            for y in 0..dims.ty() {
                for x in 0..dims.tx() {
                    let raw: [f64; 4] = core::array::from_fn(|_| rng.random_range(0.0..1.0));
                    s.phi_src.set_cell(x, y, z, project_to_simplex(raw));
                    s.mu_src.set_cell(
                        x,
                        y,
                        z,
                        [rng.random_range(-0.2..0.2), rng.random_range(-0.2..0.2)],
                    );
                }
            }
        }
        assert_aos_matches_soa(&format!("{gamma}, nx={}", dims.nx), &params, &s);
    }
}

/// The AoS ablation kernel and the SoA cellwise kernel (T(z) + staggered
/// buffer, no shortcuts) give the same φ_dst bits on `s`, under every ISA.
fn assert_aos_matches_soa(what: &str, params: &ModelParams, s: &BlockState) {
    use eutectica_core::kernels::phi_sweep_cellwise_aos;
    let dims = s.dims;
    let aos = s.phi_src.to_aos();
    let mut first: Option<Vec<u64>> = None;
    for isa in isas() {
        let mut c = cfg(
            PhiVariant::SimdCellwise,
            MuVariant::SimdFourCell,
            true,
            true,
            false,
        );
        c.isa = isa;
        let mut soa = s.clone();
        phi_sweep(params, &mut soa, 1.0, c);
        let mut out = s.phi_dst.clone();
        phi_sweep_cellwise_aos(
            params,
            &aos,
            &s.mu_src,
            &mut out,
            s.origin[2] as isize,
            1.0,
            isa,
        );
        for comp in 0..4 {
            for (x, y, z) in dims.interior_iter() {
                let a = soa.phi_dst.at(comp, x, y, z);
                let b = out.at(comp, x, y, z);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what}: {isa:?} phi[{comp}]@({x},{y},{z}): {a} vs {b}"
                );
            }
        }
        let bits: Vec<u64> = out.raw().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            first.get_or_insert_with(|| bits.clone()),
            &bits,
            "{what}: {isa:?}"
        );
    }
}

/// Bitwise equality of the evolved source fields (post-swap).
fn bits_equal(a: &BlockState, b: &BlockState) -> bool {
    for c in 0..4 {
        for (x, y, z) in a.dims.interior_iter() {
            if a.phi_src.at(c, x, y, z).to_bits() != b.phi_src.at(c, x, y, z).to_bits() {
                return false;
            }
        }
    }
    for c in 0..2 {
        for (x, y, z) in a.dims.interior_iter() {
            if a.mu_src.at(c, x, y, z).to_bits() != b.mu_src.at(c, x, y, z).to_bits() {
                return false;
            }
        }
    }
    true
}

/// The four explicit-SIMD rungs under every ISA selectable here.
fn simd_rungs() -> Vec<KernelConfig> {
    let mut v = Vec::new();
    for isa in isas() {
        for rung in &OptLevel::LADDER[2..] {
            v.push(KernelConfig {
                isa,
                ..rung.config()
            });
        }
    }
    v
}

/// Run `schedule.len()` φ+µ steps, picking the kernel configuration per step
/// from `rungs`.
fn run_schedule(
    params: &ModelParams,
    base: &BlockState,
    rungs: &[KernelConfig],
    schedule: &[usize],
) -> BlockState {
    let mut s = base.clone();
    for &i in schedule {
        let c = rungs[i % rungs.len()];
        phi_sweep(params, &mut s, 0.5, c);
        mu_sweep(params, &mut s, 0.5, c, MuPart::Full);
        s.swap();
    }
    s
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Property: any mid-run switching schedule over the SIMD rungs × the
    /// available ISAs evolves bit-identically to pinning any single one of
    /// them for the whole run — the rung and the ISA cannot change physics.
    #[test]
    fn simd_rung_switches_are_bit_identical(
        schedule in proptest::collection::vec(0usize..8, 1..5),
        seed in 0u64..3,
    ) {
        let params = ModelParams::ag_al_cu();
        let rungs = simd_rungs();
        let base = random_state(900 + seed, GridDims::cube(8));
        let switched = run_schedule(&params, &base, &rungs, &schedule);
        for (pin, cfg) in rungs.iter().enumerate() {
            let pinned = run_schedule(&params, &base, &rungs, &vec![pin; schedule.len()]);
            proptest::prop_assert!(
                bits_equal(&switched, &pinned),
                "schedule {:?} differs from pinning {:?}",
                schedule,
                cfg
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Adversarial shortcut states (PR 12): the vector-granularity bulk paths of
// the cellwise φ-kernel and the four-cell µ-kernel, asserted **bitwise**
// against `shortcuts = false` on both ISAs and every `tz`/`stag` combination.

use eutectica_core::kernels::{mu_sweep_range, phi_sweep_range};
use eutectica_core::LIQ;

const PURE_LIQ: [f64; 4] = [0.0, 0.0, 0.0, 1.0];

/// All-liquid block (ghosts included) with a rough µ field and φ_dst = φ_src,
/// i.e. every aligned group takes the bulk paths.
fn bulk_state(dims: GridDims, seed: u64) -> BlockState {
    assert_eq!(LIQ, 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut s = BlockState::new(dims, [0, 0, 3]);
    for z in 0..dims.tz() {
        for y in 0..dims.ty() {
            for x in 0..dims.tx() {
                s.phi_src.set_cell(x, y, z, PURE_LIQ);
                s.phi_dst.set_cell(x, y, z, PURE_LIQ);
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

/// Replace the cells of a total-coordinate box by random interface cells
/// (φ_dst a nudged copy, as after a φ-sweep).
fn roughen(
    s: &mut BlockState,
    seed: u64,
    xs: std::ops::Range<usize>,
    ys: std::ops::Range<usize>,
    zs: std::ops::Range<usize>,
) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for z in zs {
        for y in ys.clone() {
            for x in xs.clone() {
                let raw: [f64; 4] = core::array::from_fn(|_| rng.random_range(0.0..1.0));
                let phi = project_to_simplex(raw);
                s.phi_src.set_cell(x, y, z, phi);
                let nudged: [f64; 4] =
                    core::array::from_fn(|a| phi[a] + rng.random_range(-0.02..0.02));
                s.phi_dst.set_cell(x, y, z, project_to_simplex(nudged));
            }
        }
    }
}

/// Set one cell of φ_src and φ_dst (total coordinates).
fn set_phi(s: &mut BlockState, at: (usize, usize, usize), cell: [f64; 4]) {
    s.phi_src.set_cell(at.0, at.1, at.2, cell);
    s.phi_dst.set_cell(at.0, at.1, at.2, cell);
}

/// The ISAs selectable on this host/build.
fn isas() -> Vec<SimdIsa> {
    let mut v = vec![SimdIsa::Portable];
    if eutectica_simd::avx2_available() {
        v.push(SimdIsa::Avx2);
    }
    v
}

/// First interior cell whose φ_dst / µ_dst bits differ, if any. Cells in
/// `by_value` compare with `==` instead (±0 are equal).
fn first_bit_diff(
    a: &BlockState,
    b: &BlockState,
    by_value: &[(usize, usize, usize)],
) -> Option<String> {
    for (x, y, z) in a.dims.interior_iter() {
        let same = |p: f64, q: f64| {
            if by_value.contains(&(x, y, z)) {
                p == q
            } else {
                p.to_bits() == q.to_bits()
            }
        };
        for c in 0..4 {
            let (p, q) = (a.phi_dst.at(c, x, y, z), b.phi_dst.at(c, x, y, z));
            if !same(p, q) {
                return Some(format!("phi[{c}]@({x},{y},{z}): {p:e} vs {q:e}"));
            }
        }
        for c in 0..2 {
            let (p, q) = (a.mu_dst.at(c, x, y, z), b.mu_dst.at(c, x, y, z));
            if !same(p, q) {
                return Some(format!("mu[{c}]@({x},{y},{z}): {p:e} vs {q:e}"));
            }
        }
    }
    None
}

/// Run φ cellwise and µ four-cell (all three parts) with and without
/// shortcuts on every ISA × tz × stag and require identical bits.
fn assert_shortcuts_bit_exact(
    name: &str,
    base: &BlockState,
    phi_by_value: &[(usize, usize, usize)],
) {
    let params = ModelParams::ag_al_cu();
    for isa in isas() {
        for tz in [false, true] {
            for stag in [false, true] {
                let run = |sc: bool, part: Option<MuPart>| {
                    let mut c = cfg(
                        PhiVariant::SimdCellwise,
                        MuVariant::SimdFourCell,
                        tz,
                        stag,
                        sc,
                    );
                    c.isa = isa;
                    let mut s = base.clone();
                    match part {
                        None => phi_sweep(&params, &mut s, 0.7, c),
                        Some(MuPart::NeighborOnly) => {
                            // Accumulates onto the local part's output.
                            mu_sweep(&params, &mut s, 0.7, c, MuPart::LocalOnly);
                            mu_sweep(&params, &mut s, 0.7, c, MuPart::NeighborOnly);
                        }
                        Some(part) => mu_sweep(&params, &mut s, 0.7, c, part),
                    }
                    s
                };
                let what = format!("{name}: {isa:?} tz={tz} stag={stag}");
                if let Some(d) = first_bit_diff(&run(false, None), &run(true, None), phi_by_value) {
                    panic!("{what}: φ cellwise shortcuts not bit-exact: {d}");
                }
                for part in [MuPart::Full, MuPart::LocalOnly, MuPart::NeighborOnly] {
                    let (plain, short) = (run(false, Some(part)), run(true, Some(part)));
                    if let Some(d) = first_bit_diff(&plain, &short, &[]) {
                        panic!("{what}: µ four-cell {part:?} shortcuts not bit-exact: {d}");
                    }
                }
            }
        }
    }
}

#[test]
fn almost_pure_neighbours_do_not_take_the_bulk_paths() {
    let dims = GridDims::new(12, 6, 6, 1);
    let below_one = f64::from_bits(1.0f64.to_bits() - 1);
    // The poisoned neighbour sits inside a group (x = 6, interior 5) and, in
    // a second case, just across a group boundary (x = 9, interior 8) of the
    // pure cells next to it, in x, y and z.
    for at in [(6, 3, 3), (9, 3, 3), (5, 4, 3), (5, 3, 4)] {
        for (label, cell) in [
            ("min-positive", [f64::MIN_POSITIVE, 0.0, 0.0, 1.0]),
            ("1e-17", [1e-17, 0.0, 0.0, 1.0]),
            ("ulp-below-one", [0.0, 0.0, 0.0, below_one]),
            // φ_ℓ = 1 exactly, but off the simplex: large enough to move µ.
            ("off-simplex", [1e-3, 0.0, 0.0, 1.0]),
        ] {
            let mut s = bulk_state(dims, 31);
            set_phi(&mut s, at, cell);
            assert_shortcuts_bit_exact(&format!("{label}@{at:?}"), &s, &[]);
        }
        // −0.0 *is* equal to 0.0, so the cell and its neighbours are bulk.
        // The φ shortcut (per cell, before and after this change) copies the
        // −0.0 through where the full update re-projects it to +0.0: that
        // one cell compares by value, everything else by bits.
        let mut s = bulk_state(dims, 31);
        set_phi(&mut s, at, [-0.0, 0.0, 0.0, 1.0]);
        assert_shortcuts_bit_exact(&format!("negative-zero@{at:?}"), &s, &[at]);
    }
}

#[test]
fn bulk_runs_ending_anywhere_in_a_group_are_bit_exact() {
    // (nx, rough x-ranges [start, end) in interior coordinates)
    let layouts: [(usize, &[(usize, usize)]); 8] = [
        (12, &[(0, 2), (10, 12)]), // bulk run starts and ends mid-group
        (12, &[(4, 12)]),          // bulk only in the first group (x = 0)
        (12, &[(0, 8)]),           // bulk only in the last group (x = nx − 4)
        (12, &[(5, 6)]),           // one interface cell splits the row
        (4, &[]),                  // a single group
        (6, &[]),                  // group + scalar remainder
        (10, &[(8, 9)]),           // two groups + remainder with an interface cell
        (10, &[(3, 5)]),
    ];
    for (nx, rough) in layouts {
        let dims = GridDims::new(nx, 5, 5, 1);
        let mut s = bulk_state(dims, 32);
        for (k, r) in rough.iter().enumerate() {
            // Interface columns through the whole block, ghosts included.
            roughen(
                &mut s,
                50 + k as u64,
                r.0 + 1..r.1 + 1,
                0..dims.ty(),
                0..dims.tz(),
            );
        }
        assert_shortcuts_bit_exact(&format!("nx={nx} rough={rough:?}"), &s, &[]);
        // The same with the interface confined to one row, so bulk groups
        // sit above, below and beside it.
        let mut s = bulk_state(dims, 33);
        for (k, r) in rough.iter().enumerate() {
            roughen(&mut s, 60 + k as u64, r.0 + 1..r.1 + 1, 3..4, 3..4);
        }
        assert_shortcuts_bit_exact(&format!("nx={nx} rough-row={rough:?}"), &s, &[]);
    }
}

/// Windows of four x-cells that mix bulk and non-bulk lanes, on rows of
/// every length class: a −0.0 pure cell and a one-ulp-below-1 cell on the
/// two sides of a window boundary (interior x = 3 | 4), the row's last cell
/// in the partial window, and an interface cell. Shortcuts must not move a
/// bit, and the shortcut-free sweep must equal the AoS ablation.
#[test]
fn mixed_bulk_windows_on_every_row_length_are_bit_exact() {
    let below_one = f64::from_bits(1.0f64.to_bits() - 1);
    for nx in [3, 5, 7, 10, 12] {
        let dims = GridDims::new(nx, 5, 5, 1);
        let mut s = bulk_state(dims, 36);
        let (row, slab) = (2, 3);
        // Total x = interior x + 1.
        let neg_zero = (4.min(nx), row, slab);
        set_phi(&mut s, neg_zero, [-0.0, 0.0, 0.0, 1.0]);
        if nx > 4 {
            set_phi(&mut s, (5, row, slab), [0.0, 0.0, 0.0, below_one]);
        }
        set_phi(&mut s, (nx, row + 1, slab), [0.0, 0.0, 0.0, below_one]);
        // A −0.0 cell whose neighbours are all pure, so it is bulk itself.
        let bulk_neg_zero = (1, row - 1, slab);
        set_phi(&mut s, bulk_neg_zero, [0.0, -0.0, 0.0, 1.0]);
        roughen(&mut s, 80, 1..2, row..row + 1, slab + 1..slab + 2);
        assert_shortcuts_bit_exact(&format!("mixed nx={nx}"), &s, &[neg_zero, bulk_neg_zero]);
        for (gamma, params) in [
            ("uniform γ", ModelParams::ag_al_cu()),
            ("non-uniform γ", non_uniform_gamma()),
        ] {
            assert_aos_matches_soa(&format!("mixed {gamma}, nx={nx}"), &params, &s);
        }
    }
}

#[test]
fn impure_tangential_neighbour_of_a_pure_face_is_bit_exact() {
    // Group x = 4..8 (interior 4..7 → total 5..8) at y = z = 3: all six
    // direct neighbour groups stay pure, but the cells diagonally across its
    // x- and y-faces — tangential neighbours of those faces' J_at gradients
    // — are interface cells.
    let dims = GridDims::new(12, 6, 6, 1);
    for diag in [(9, 4, 3), (4, 4, 3), (9, 3, 4), (6, 4, 4)] {
        let mut s = bulk_state(dims, 34);
        roughen(
            &mut s,
            70,
            diag.0..diag.0 + 1,
            diag.1..diag.1 + 1,
            diag.2..diag.2 + 1,
        );
        assert_shortcuts_bit_exact(&format!("diagonal@{diag:?}"), &s, &[]);
    }
}

#[test]
fn changed_phi_on_a_bulk_group_is_bit_exact() {
    let dims = GridDims::new(12, 6, 6, 1);
    let mut s = bulk_state(dims, 35);
    // φ_dst ≠ φ_src in one lane of an otherwise single-phase group: the
    // phase-change source is live although every face is pure.
    s.phi_dst.set_cell(6, 3, 3, [0.02, 0.0, 0.0, 0.98]);
    s.phi_dst.set_cell(9, 4, 2, [0.0, 0.5, 0.0, 0.5]);
    assert_shortcuts_bit_exact("phi_dst != phi_src", &s, &[]);
}

#[test]
fn slab_cuts_through_a_bulk_run_reproduce_the_full_sweep() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::new(10, 6, 9, 1);
    let mut base = bulk_state(dims, 36);
    // An interface sheet in the middle: bulk runs above and below are cut
    // by the slab boundaries, and one boundary lands inside the sheet.
    roughen(&mut base, 80, 0..dims.tx(), 0..dims.ty(), 4..6);
    roughen(&mut base, 81, 3..5, 2..4, 7..8);
    let (z0, z1) = dims.interior_z_range();
    for isa in isas() {
        for tz in [false, true] {
            for stag in [false, true] {
                let mut c = cfg(
                    PhiVariant::SimdCellwise,
                    MuVariant::SimdFourCell,
                    tz,
                    stag,
                    true,
                );
                c.isa = isa;
                let mut full = base.clone();
                phi_sweep(&params, &mut full, 0.4, c);
                mu_sweep(&params, &mut full, 0.4, c, MuPart::Full);
                for threads in [2usize, 7] {
                    let mut slabbed = base.clone();
                    let cut = |t: usize| z0 + (z1 - z0) * t / threads;
                    for t in 0..threads {
                        phi_sweep_range(&params, &mut slabbed, 0.4, c, cut(t), cut(t + 1));
                    }
                    // Reverse order: slabs are independent.
                    for t in (0..threads).rev() {
                        let (a, b) = (cut(t), cut(t + 1));
                        mu_sweep_range(&params, &mut slabbed, 0.4, c, MuPart::Full, a, b);
                    }
                    if let Some(d) = first_bit_diff(&full, &slabbed, &[]) {
                        panic!("{isa:?} tz={tz} stag={stag} threads={threads}: {d}");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Constant-slab summary (PR 16): the default kernels end the φ cell loop at
// the field's constant pure zone and decide the µ shortcuts once per slab
// from it. Whole runs — sweeps, boundary fills, window shifts, health scans —
// are compared step by step against `shortcuts = false`, which ignores the
// summary, on both ISAs and with the slab pool at 1, 2 and 7 threads.

use eutectica_core::health::{
    apply_fault, scan_block, FaultKind, FieldFault, FieldTarget, HealthConfig,
};
use eutectica_core::kernels::phi_sweep_prepare;
use eutectica_core::solver::Simulation;

const THREADS: [usize; 3] = [1, 2, 7];

/// Two simulations that differ in `shortcuts` only: `(fast, plain)`.
fn sim_pair(
    params: &ModelParams,
    cells: [usize; 3],
    isa: SimdIsa,
    threads: usize,
    init: impl Fn(&mut Simulation),
) -> (Simulation, Simulation) {
    let build = |shortcuts: bool| {
        let mut sim = Simulation::new(params.clone(), cells).unwrap();
        sim.cfg = KernelConfig {
            isa,
            shortcuts,
            ..KernelConfig::default()
        };
        sim.set_threads(threads);
        init(&mut sim);
        sim
    };
    (build(true), build(false))
}

/// First interior cell of the evolved fields whose bits differ (two NaNs
/// count as equal; `phi_by_value` compares φ with `==`, so ±0 are equal).
fn first_state_diff(a: &BlockState, b: &BlockState, phi_by_value: bool) -> Option<String> {
    let same = |p: f64, q: f64, by_value: bool| {
        p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()) || (by_value && p == q)
    };
    for (x, y, z) in a.dims.interior_iter() {
        for c in 0..4 {
            let (p, q) = (a.phi_src.at(c, x, y, z), b.phi_src.at(c, x, y, z));
            if !same(p, q, phi_by_value) {
                return Some(format!("phi[{c}]@({x},{y},{z}): {p:e} vs {q:e}"));
            }
        }
        for c in 0..2 {
            let (p, q) = (a.mu_src.at(c, x, y, z), b.mu_src.at(c, x, y, z));
            if !same(p, q, false) {
                return Some(format!("mu[{c}]@({x},{y},{z}): {p:e} vs {q:e}"));
            }
        }
    }
    None
}

/// Step both simulations `steps` times; after every step the fields and
/// the health scan must agree.
fn lockstep(
    what: &str,
    fast: &mut Simulation,
    plain: &mut Simulation,
    steps: usize,
    by_value: bool,
) {
    let health = HealthConfig::for_params(&fast.params);
    for _ in 0..steps {
        fast.step();
        plain.step();
        let at = format!("{what}, after step {}", fast.steps());
        if let Some(d) = first_state_diff(&fast.state, &plain.state, by_value) {
            panic!("{at}: {d}");
        }
        assert_eq!(
            scan_block(&fast.state, &health, 0),
            scan_block(&plain.state, &health, 0),
            "{at}: health scan"
        );
        assert_eq!(fast.window_shifts(), plain.window_shifts(), "{at}: shifts");
    }
}

#[test]
fn a_cell_poked_into_the_melt_is_seen_by_the_next_sweep_and_the_next_scan() {
    let params = ModelParams::ag_al_cu();
    let cells = [8, 8, 24];
    // Interior cell (3, 4, 18) — total coordinates `at` — far above the front.
    let at = (4, 5, 19);
    let fault = move |target, kind| FieldFault {
        step: 0,
        block: 0,
        cell: [at.0 - 1, at.1 - 1, at.2 - 1],
        target,
        kind,
    };
    type Poke = Box<dyn Fn(&mut BlockState)>;
    let pokes: [(&str, Poke); 5] = [
        (
            "set_cell",
            Box::new(move |s| s.phi_src.set_cell(at.0, at.1, at.2, [0.25, 0.0, 0.0, 0.75])),
        ),
        (
            "comps_mut",
            Box::new(move |s| {
                let i = s.dims.idx(at.0, at.1, at.2);
                s.phi_src.comps_mut()[1][i] = 0.25;
            }),
        ),
        (
            "raw_mut",
            Box::new(move |s| {
                let i = 2 * s.dims.volume() + s.dims.idx(at.0, at.1, at.2);
                s.phi_src.raw_mut()[i] = 0.5;
            }),
        ),
        (
            "fault-nan",
            Box::new(move |s| {
                apply_fault(s, &fault(FieldTarget::Phi(LIQ), FaultKind::Nan));
            }),
        ),
        (
            // Bit 62 of +0.0: the value 2.0, finite and off the simplex.
            "fault-bitflip",
            Box::new(move |s| {
                apply_fault(s, &fault(FieldTarget::Phi(0), FaultKind::BitFlip(62)));
            }),
        ),
    ];
    let health = HealthConfig::for_params(&params);
    for isa in isas() {
        for threads in THREADS {
            for (name, poke) in &pokes {
                let what = format!("{name} {isa:?} threads={threads}");
                let (mut fast, mut plain) =
                    sim_pair(&params, cells, isa, threads, |s| s.init_directional(5));
                lockstep(&what, &mut fast, &mut plain, 4, false);
                let (zone_from, zone_val) = fast.state.phi_src.const_zone();
                assert!(
                    zone_from < at.2 && zone_val == PURE_LIQ,
                    "{what}: the poke must land inside the constant zone ({zone_from})"
                );
                poke(&mut fast.state);
                poke(&mut plain.state);
                assert_ne!(
                    fast.state.phi_src.cell(at.0, at.1, at.2),
                    PURE_LIQ,
                    "{what}"
                );
                assert!(
                    fast.state.phi_src.summary_holds(),
                    "{what}: summary after the poke"
                );
                // The very next scan, before any sweep, reports the cell.
                let scan = scan_block(&fast.state, &health, 0);
                assert_eq!(scan, scan_block(&plain.state, &health, 0), "{what}: scan");
                if name.starts_with("fault") {
                    assert_eq!(scan.violations(), 1, "{what}: {scan:?}");
                    assert_eq!(scan.first_bad.unwrap().cell, [at.0, at.1, at.2], "{what}");
                }
                // The very next sweep sees it, and every one after it. (Once
                // a NaN spreads, `shortcuts` on and off differ in how
                // comparisons with it fall — with or without a summary — so
                // that case is held to "both stay unhealthy" from there.)
                if *name == "fault-nan" {
                    lockstep(&what, &mut fast, &mut plain, 1, false);
                    for _ in 0..19 {
                        fast.step();
                        plain.step();
                        for sim in [&fast, &plain] {
                            let scan = scan_block(&sim.state, &health, 0);
                            assert!(scan.violations() > 0, "{what}: NaN laundered");
                        }
                    }
                } else {
                    lockstep(&what, &mut fast, &mut plain, 20, false);
                }
            }
        }
    }
}

/// Overwrite every cell of the slabs `z_from..tz`, ghosts included, of both
/// φ fields.
fn fill_phi_from(s: &mut BlockState, z_from: usize, cell: [f64; 4]) {
    for z in z_from..s.dims.tz() {
        for y in 0..s.dims.ty() {
            for x in 0..s.dims.tx() {
                set_phi(s, (x, y, z), cell);
            }
        }
    }
}

#[test]
fn constant_but_impure_zones_keep_the_summary_and_skip_the_fast_paths() {
    let params = ModelParams::ag_al_cu();
    let cells = [8, 8, 20];
    for (label, cell, by_value) in [
        ("off-vertex", [0.0, 0.0, 1e-3, 1.0 - 1e-3], false),
        // Equal to pure liquid for every `==`, but not bitwise: the per-cell
        // φ shortcut copies the −0.0 through where the full update
        // re-projects it to +0.0 (PR 12), so φ compares by value here.
        ("negative-zero", [-0.0, 0.0, 0.0, 1.0], true),
    ] {
        for isa in isas() {
            for threads in THREADS {
                let what = format!("{label} {isa:?} threads={threads}");
                let (mut fast, mut plain) = sim_pair(&params, cells, isa, threads, |s| {
                    s.init_planar(1, 6);
                    fill_phi_from(&mut s.state, 11, cell);
                });
                // The sweep finds the new constant, keeps it in the summary
                // and still covers the whole interior.
                let mut probe = fast.state.clone();
                let range = phi_sweep_prepare(&mut probe, fast.cfg);
                assert_eq!(
                    range,
                    probe.dims.interior_z_range(),
                    "{what}: fast path taken"
                );
                let (from, val) = probe.phi_src.const_zone();
                assert_eq!(
                    (from, val.map(f64::to_bits)),
                    (11, cell.map(f64::to_bits)),
                    "{what}"
                );
                lockstep(&what, &mut fast, &mut plain, 20, by_value);
            }
        }
    }
}

#[test]
fn a_retreating_front_melts_back_into_the_zone() {
    // Above the eutectic temperature the solid melts: cells at the zone's
    // lower edge turn into exact liquid and the zone grows downward.
    let mut params = ModelParams::ag_al_cu();
    params.t0 = 1.06;
    params.grad_g = 0.0;
    for isa in isas() {
        for threads in THREADS {
            let what = format!("retreat {isa:?} threads={threads}");
            let (mut fast, mut plain) =
                sim_pair(&params, [8, 8, 24], isa, threads, |s| s.init_planar(0, 12));
            lockstep(&what, &mut fast, &mut plain, 1, false);
            let (solid, zone) = (fast.solid_fraction(), fast.state.phi_src.const_zone().0);
            lockstep(&what, &mut fast, &mut plain, 500, false);
            assert!(fast.solid_fraction() < solid, "{what}: nothing melted");
            assert!(
                fast.state.phi_src.const_zone().0 < zone,
                "{what}: zone did not grow"
            );
        }
    }
}

#[test]
fn an_advancing_front_and_window_shifts_move_the_zone() {
    let mut params = ModelParams::ag_al_cu();
    params.t0 = 0.95;
    params.grad_g = 0.0;
    for isa in isas() {
        for threads in THREADS {
            let what = format!("window {isa:?} threads={threads}");
            let (mut fast, mut plain) = sim_pair(&params, [8, 8, 20], isa, threads, |s| {
                s.init_planar(0, 9);
                s.enable_moving_window(0.5);
            });
            lockstep(&what, &mut fast, &mut plain, 260, false);
            assert!(fast.window_shifts() > 0, "{what}: the window never moved");
            let (from, val) = fast.state.phi_src.const_zone();
            assert!(
                from < 20 && val == PURE_LIQ,
                "{what}: no melt zone left ({from})"
            );
        }
    }
}

#[test]
fn range_cuts_inside_at_and_outside_the_zone_reproduce_the_full_sweep() {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::new(8, 6, 12, 1);
    // Interface sheet in slabs 3..5, melt above: after `tighten` the zone
    // starts at slab 5, so µ's slab decision applies from slab 6.
    let mut base = bulk_state(dims, 37);
    roughen(&mut base, 82, 0..dims.tx(), 0..dims.ty(), 0..5);
    let (z0, z1) = dims.interior_z_range();
    for isa in isas() {
        for stag in [false, true] {
            let fast = KernelConfig {
                isa,
                staggered_buffer: stag,
                ..KernelConfig::default()
            };
            let plain = KernelConfig {
                shortcuts: false,
                ..fast
            };
            let mut want = base.clone();
            phi_sweep(&params, &mut want, 0.4, plain);
            mu_sweep(&params, &mut want, 0.4, plain, MuPart::Full);
            for cut in [4, 5, 6, 7, 9] {
                let what = format!("{isa:?} stag={stag} cut={cut}");
                let mut s = base.clone();
                let (a, b) = phi_sweep_prepare(&mut s, fast);
                assert_eq!((a, b), (z0, 6), "{what}: φ cell loop bounds");
                assert_eq!(s.phi_dst.const_zone().0, 6, "{what}: φ_dst zone");
                let mid = cut.min(b);
                phi_sweep_range(&params, &mut s, 0.4, fast, mid, b);
                phi_sweep_range(&params, &mut s, 0.4, fast, a, mid);
                assert_eq!(
                    s.phi_dst.const_zone().0,
                    6,
                    "{what}: φ_dst zone after the sweep"
                );
                mu_sweep_range(&params, &mut s, 0.4, fast, MuPart::Full, cut, z1);
                mu_sweep_range(&params, &mut s, 0.4, fast, MuPart::Full, z0, cut);
                if let Some(d) = first_bit_diff(&want, &s, &[]) {
                    panic!("{what}: {d}");
                }
            }
        }
    }
}
