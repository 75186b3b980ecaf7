//! Specialized scalar φ-kernel (optimization-ladder rung 1).
//!
//! The sweep walks the block interior with z outermost, evaluates the six
//! staggered gradient-energy face fluxes of each cell, and updates the cell
//! through [`crate::model::phi_cell_update`]. The T(z), staggered-buffer and
//! shortcut rungs of Fig. 6 build on the explicit-SIMD kernels only, so
//! this kernel ignores those three [`crate::kernels::KernelConfig`] flags.

use crate::kernels::{get2, get4};
use crate::model::{central_gradients, phi_cell_update, phi_face_flux};
use crate::params::ModelParams;
use crate::state::BlockState;
use crate::temperature::SliceCtx;

/// Scalar φ-sweep of the slices `z0..z1` (absolute, ghost-inclusive
/// coordinates with `g <= z0 <= z1 <= g + nz`). All reads go to the source
/// fields, so a partition of the interior into slabs yields exactly the
/// cells the full sweep computes.
pub(super) fn phi_sweep_scalar_range(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    z0: usize,
    z1: usize,
) {
    let dims = state.dims;
    let g = dims.ghost;
    let (nx, ny, nz) = (dims.nx, dims.ny, dims.nz);
    debug_assert!(g <= z0 && z0 <= z1 && z1 <= g + nz);
    let (sy, sz) = (dims.sy(), dims.sz());
    let inv_dx = 1.0 / params.dx;
    let inv_2dx = 0.5 * inv_dx;
    let gamma = &params.gamma;
    let origin_z = state.origin[2] as isize;

    // Per-cell temperature evaluation. The `black_box` models the original
    // code's per-cell temperature lookup, which the compiler cannot hoist
    // out of the loop (otherwise LLVM's loop-invariant code motion would
    // silently apply the T(z) optimization to this rung too).
    let cell_ctx = |z: usize| -> SliceCtx {
        let gz = origin_z as f64 + z as f64 - g as f64;
        SliceCtx::at(params, std::hint::black_box(params.temperature(gz, time)))
    };

    // Split borrows: read φ_src/µ_src, write φ_dst.
    let BlockState {
        phi_src,
        mu_src,
        phi_dst,
        ..
    } = state;
    let ps = phi_src.comps();
    let ms = mu_src.comps();
    let pd = phi_dst.comps_mut();

    let face = |il: usize, ir: usize| -> [f64; 4] {
        phi_face_flux(gamma, get4(&ps, il), get4(&ps, ir), inv_dx)
    };

    for z in z0..z1 {
        for y in g..g + ny {
            for x in g..g + nx {
                let i = dims.idx(x, y, z);
                let pc = get4(&ps, i);
                let xm = get4(&ps, i - 1);
                let xp = get4(&ps, i + 1);
                let ym = get4(&ps, i - sy);
                let yp = get4(&ps, i + sy);
                let zm = get4(&ps, i - sz);
                let zp = get4(&ps, i + sz);

                let ctx = cell_ctx(z);
                let faces = [
                    face(i - 1, i),
                    face(i, i + 1),
                    face(i - sy, i),
                    face(i, i + sy),
                    face(i - sz, i),
                    face(i, i + sz),
                ];
                let grads = central_gradients(xm, xp, ym, yp, zm, zp, inv_2dx);
                let mu = get2(&ms, i);
                let out = phi_cell_update(params, &ctx, pc, &grads, &faces, mu, false);
                for c in 0..4 {
                    pd[c][i] = out[c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{phi_sweep, OptLevel};
    use eutectica_blockgrid::GridDims;

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

    #[test]
    fn output_stays_on_simplex() {
        let p = ModelParams::ag_al_cu();
        let mut s = random_state(11, 5);
        phi_sweep(&p, &mut s, 0.0, OptLevel::Basic.config());
        for (x, y, z) in s.dims.interior_iter() {
            let phi = s.phi_dst.cell(x, y, z);
            assert!(
                crate::simplex::on_simplex(phi, 1e-12),
                "off simplex at ({x},{y},{z}): {phi:?}"
            );
        }
    }

    #[test]
    fn uniform_liquid_is_stationary() {
        let p = ModelParams::ag_al_cu();
        let dims = GridDims::cube(5);
        let mut s = BlockState::new(dims, [0, 0, 0]); // all liquid, µ = 0
        phi_sweep(&p, &mut s, 0.0, OptLevel::Basic.config());
        for (x, y, z) in dims.interior_iter() {
            assert_eq!(s.phi_dst.cell(x, y, z), [0.0, 0.0, 0.0, 1.0]);
        }
    }

    #[test]
    fn undercooled_interface_moves_towards_liquid() {
        // A flat Al/liquid interface below T_eu: the solid fraction grows.
        let p = ModelParams::ag_al_cu(); // t0 = 0.97 < 1 at z ≈ 0
        let dims = GridDims::new(4, 4, 12, 1);
        let mut s = BlockState::new(dims, [0, 0, 0]);
        for (x, y, z) in dims.interior_iter() {
            // Diffuse interface around z = 6.
            let d = z as f64 - 6.0;
            let ps = (0.5 - 0.5 * (d / 2.0).tanh()).clamp(0.0, 1.0);
            s.phi_src.set_cell(x, y, z, [ps, 0.0, 0.0, 1.0 - ps]);
        }
        s.apply_bc_src();
        let solid_before: f64 = dims
            .interior_iter()
            .map(|(x, y, z)| s.phi_src.at(0, x, y, z))
            .sum();
        let mut time = 0.0;
        for _ in 0..20 {
            phi_sweep(&p, &mut s, time, OptLevel::Basic.config());
            s.phi_src.swap(&mut s.phi_dst);
            s.bc_phi.apply(&mut s.phi_src);
            time += p.dt;
        }
        let solid_after: f64 = dims
            .interior_iter()
            .map(|(x, y, z)| s.phi_src.at(0, x, y, z))
            .sum();
        assert!(
            solid_after > solid_before + 0.5,
            "front did not advance: {solid_before} -> {solid_after}"
        );
    }
}
