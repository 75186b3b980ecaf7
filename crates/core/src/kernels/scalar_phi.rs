//! Specialized scalar φ-kernel (optimization-ladder rung 1, plus the T(z),
//! staggered-buffer and shortcut flags of rungs 3–5 in scalar form).
//!
//! The sweep walks the block interior with z outermost (so per-slice
//! temperature terms amortize), evaluates the staggered gradient-energy face
//! fluxes, and updates each cell through [`crate::model::phi_cell_update`].
//!
//! With `staggered_buffer` the three "low" faces of each cell are reused
//! from the previously computed "high" faces (register / row buffer / slab
//! buffer as in Fig. 3), halving the face evaluations. With `shortcuts`,
//! bulk cells are skipped entirely and pure cells skip the driving force.

use crate::kernels::{get2, get4, with_flags, KernelConfig};
use crate::model::{central_gradients, is_bulk, is_pure, phi_cell_update, phi_face_flux};
use crate::params::ModelParams;
use crate::state::BlockState;
use crate::temperature::{SliceCtx, SliceTable};

/// Scalar φ-sweep of the slices `z0..z1` (absolute, ghost-inclusive
/// coordinates with `g <= z0 <= z1 <= g + nz`). Because all reads go to the
/// source fields, a partition of the interior into slabs yields exactly the
/// cells the full sweep computes — the staggered z-slab buffer is
/// reprefilled at `z0` from source faces, which the flag-equivalence tests
/// pin bit-exact against the carried values.
pub(super) fn phi_sweep_scalar_range(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    cfg: KernelConfig,
    z0: usize,
    z1: usize,
) {
    with_flags!(cfg, sweep[](params, state, time, z0, z1))
}

fn sweep<const TZ: bool, const STAG: bool, const SC: bool>(
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

    let table = if TZ {
        Some(SliceTable::build(params, origin_z, dims.tz(), g, time))
    } else {
        None
    };
    // Per-cell temperature evaluation for the unoptimized rungs — identical
    // arithmetic to the table entries, just recomputed redundantly. The
    // `black_box` models the original code's per-cell temperature lookup,
    // which the compiler cannot hoist out of the loop (otherwise LLVM's
    // loop-invariant code motion would silently apply the T(z) optimization
    // to the "unoptimized" rungs too).
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

    // Staggered buffers (Fig. 3): z slab, y row, x register.
    let mut zbuf = vec![[0.0f64; 4]; if STAG { nx * ny } else { 0 }];
    let mut ybuf = vec![[0.0f64; 4]; if STAG { nx } else { 0 }];

    if STAG && z0 < z1 {
        // Prefill the z slab with the fluxes through the faces below the
        // first computed slice (ghost faces for a full sweep, interior
        // faces when restarting mid-block for a z-slab partition).
        for y in 0..ny {
            for x in 0..nx {
                let i = dims.idx(x + g, y + g, z0);
                zbuf[y * nx + x] = face(i - sz, i);
            }
        }
    }

    for z in z0..z1 {
        let ctx_z = if TZ {
            table.as_ref().unwrap().cell[z]
        } else {
            // Placeholder; recomputed per cell below.
            SliceCtx::at(params, 0.0)
        };
        if STAG {
            // Prefill the y row buffer with the front ghost faces.
            for x in 0..nx {
                let i = dims.idx(x + g, g, z);
                ybuf[x] = face(i - sy, i);
            }
        }
        for y in g..g + ny {
            let mut xprev = if STAG {
                let i = dims.idx(g, y, z);
                face(i - 1, i)
            } else {
                [0.0; 4]
            };
            for x in g..g + nx {
                let i = dims.idx(x, y, z);
                let pc = get4(&ps, i);
                let xm = get4(&ps, i - 1);
                let xp = get4(&ps, i + 1);
                let ym = get4(&ps, i - sy);
                let yp = get4(&ps, i + sy);
                let zm = get4(&ps, i - sz);
                let zp = get4(&ps, i + sz);

                if SC && is_bulk(pc, &[xm, xp, ym, yp, zm, zp]) {
                    // Bulk shortcut: ∂φ/∂t = 0 exactly; all faces to the
                    // following cells are between identical pure cells → 0.
                    for c in 0..4 {
                        pd[c][i] = pc[c];
                    }
                    if STAG {
                        xprev = [0.0; 4];
                        ybuf[x - g] = [0.0; 4];
                        zbuf[(y - g) * nx + (x - g)] = [0.0; 4];
                    }
                    continue;
                }

                let ctx = if TZ { ctx_z } else { cell_ctx(z) };

                let (f_xl, f_yl, f_zl) = if STAG {
                    (xprev, ybuf[x - g], zbuf[(y - g) * nx + (x - g)])
                } else {
                    (face(i - 1, i), face(i - sy, i), face(i - sz, i))
                };
                let f_xh = face(i, i + 1);
                let f_yh = face(i, i + sy);
                let f_zh = face(i, i + sz);
                if STAG {
                    xprev = f_xh;
                    ybuf[x - g] = f_yh;
                    zbuf[(y - g) * nx + (x - g)] = f_zh;
                }

                let grads = central_gradients(xm, xp, ym, yp, zm, zp, inv_2dx);
                let mu = get2(&ms, i);
                let skip_driving = SC && is_pure(pc);
                let out = phi_cell_update(
                    params,
                    &ctx,
                    pc,
                    &grads,
                    &[f_xl, f_xh, f_yl, f_yh, f_zl, f_zh],
                    mu,
                    skip_driving,
                );
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
    use crate::kernels::{phi_sweep, scalar_rung as scalar};
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

    fn max_diff(a: &BlockState, b: &BlockState) -> f64 {
        let mut m = 0.0f64;
        for c in 0..4 {
            for (x, y) in a.phi_dst.comp(c).iter().zip(b.phi_dst.comp(c)) {
                m = m.max((x - y).abs());
            }
        }
        m
    }

    #[test]
    fn flag_combinations_are_bit_exact() {
        let base = random_state(7, 6);
        let p = ModelParams::ag_al_cu();
        let mut reference = base.clone();
        phi_sweep(&p, &mut reference, 3.0, scalar(false, false, false));
        for tz in [false, true] {
            for stag in [false, true] {
                for sc in [false, true] {
                    let mut s = base.clone();
                    phi_sweep(&p, &mut s, 3.0, scalar(tz, stag, sc));
                    let d = max_diff(&reference, &s);
                    assert_eq!(d, 0.0, "flags ({tz},{stag},{sc}) diverged by {d:e}");
                }
            }
        }
    }

    #[test]
    fn output_stays_on_simplex() {
        let p = ModelParams::ag_al_cu();
        let mut s = random_state(11, 5);
        phi_sweep(&p, &mut s, 0.0, scalar(true, true, true));
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
        phi_sweep(&p, &mut s, 0.0, scalar(false, false, false));
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
            phi_sweep(&p, &mut s, time, scalar(true, true, false));
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
