//! Explicitly vectorized φ-kernels (ladder rung 2+).
//!
//! Two strategies, exactly as compared in Fig. 5:
//!
//! * **cellwise** ([`phi_sweep_cellwise_range`]): "a SIMD vector
//!   [represents] the four phases of a cell. With this technique, the field
//!   is still updated cellwise, such that branching on a cell-by-cell basis
//!   becomes possible" — pays for lane permutes (matrix–vector products need
//!   broadcasts) but can take per-cell shortcuts and keeps more
//!   intermediates in registers. The paper's fastest variant.
//! * **four-cell** ([`phi_sweep_fourcell_range`]): "unroll the innermost
//!   loop, updating four cells in one iteration" — contiguous SoA loads, no
//!   permutes, but "can only take these shortcuts if the condition is true
//!   for all four cells".
//!
//! Every kernel is generic over the ISA backend `V:`[`SimdF64x4`] and
//! instantiated per ISA by [`eutectica_simd::dispatch`], from
//! [`super::phi_sweep_range`] (and, for the AoS layout ablation, from
//! [`phi_sweep_cellwise_aos`] itself).

use crate::kernels::basic::phi_cell;
use crate::kernels::simd_common::{
    cells_eq_mask, gamma_cols, gather_cell4, load_cells4, matvec, per_phase, scatter_cell4,
    simplex_project_lanes, RecomputedSlices, SliceCtxV,
};
use crate::kernels::{with_flags, KernelConfig, SimdIsa};
use crate::params::ModelParams;
use crate::state::BlockState;
use crate::temperature::SliceTable;
use crate::N_PHASES;
use eutectica_blockgrid::field::{AosField, SoaField};
use eutectica_simd::{IsaGeneric, SimdF64x4, SimdMask4};

/// Whether the surface-energy matrix is uniform (γ_αβ = γ for α ≠ β, the
/// standard setup here and in the paper). Then Γ·v = γ(Σv − v): the
/// matrix–vector product collapses to one horizontal sum — the
/// "φ_α Σ φ_β"-style permute structure the paper describes for its cellwise
/// kernel.
fn gamma_is_uniform(params: &ModelParams) -> bool {
    let g = params.gamma[0][1];
    (0..N_PHASES).all(|a| (0..N_PHASES).all(|b| params.gamma[a][b] == if a == b { 0.0 } else { g }))
}

/// Cellwise sweep of the z-slices `z0..z1` (see
/// [`crate::kernels::phi_sweep_range`] for the coordinate convention and
/// the bit-exactness argument).
#[inline(always)]
pub(super) fn phi_sweep_cellwise_range<V: SimdF64x4>(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    cfg: KernelConfig,
    z0: usize,
    z1: usize,
) {
    if gamma_is_uniform(params) {
        with_flags!(cfg, cellwise[V, true](params, state, time, z0, z1))
    } else {
        with_flags!(cfg, cellwise[V, false](params, state, time, z0, z1))
    }
}

/// Γ·v for the cellwise kernel: uniform-γ fast path (one horizontal sum)
/// or the general 4×4 matrix–vector product.
#[inline(always)]
fn gamma_apply<V: SimdF64x4, const UG: bool>(gcols: &[V; N_PHASES], gu: V, v: V) -> V {
    if UG {
        gu * (v.hsum_splat() - v)
    } else {
        matvec(gcols, v)
    }
}

/// Staggered gradient-energy face flux, lanes = phases.
#[inline(always)]
fn face_flux_v<V: SimdF64x4, const UG: bool>(
    gcols: &[V; N_PHASES],
    gu: V,
    l: V,
    r: V,
    inv_dx: V,
) -> V {
    let pf = (l + r) * V::splat(0.5);
    let g = (r - l) * inv_dx;
    let s1 = gamma_apply::<V, UG>(gcols, gu, pf * g);
    let s2 = gamma_apply::<V, UG>(gcols, gu, pf * pf);
    (pf * s1 - g * s2) * V::splat(-2.0)
}

/// Face flux between the cells at linear indices `il` and `ir`, gathered
/// from the SoA planes (the staggered-buffer prefill).
#[inline(always)]
fn face_at<V: SimdF64x4, const UG: bool>(
    gcols: &[V; N_PHASES],
    gu: V,
    ps: &[&[f64]; N_PHASES],
    il: usize,
    ir: usize,
    inv_dx: V,
) -> V {
    face_flux_v::<V, UG>(
        gcols,
        gu,
        gather_cell4(ps, il),
        gather_cell4(ps, ir),
        inv_dx,
    )
}

/// The per-cell bulk predicate (centre pure ∧ all six neighbours equal to it
/// in every phase) evaluated for the four consecutive x-cells starting at
/// `i` with contiguous SoA loads, *before* any per-cell gather. Returns the
/// centre cells when all four are bulk.
#[inline(always)]
fn bulk_group<V: SimdF64x4>(
    ps: &[&[f64]; N_PHASES],
    i: usize,
    sy: usize,
    sz: usize,
) -> Option<[V; N_PHASES]> {
    let one = V::splat(1.0);
    let pc = load_cells4::<V>(ps, i);
    let pure = pc[0]
        .ge(one)
        .or(pc[1].ge(one))
        .or(pc[2].ge(one))
        .or(pc[3].ge(one));
    if !pure.all() {
        return None;
    }
    let same = cells_eq_mask(&load_cells4::<V>(ps, i - 1), &pc)
        .and(cells_eq_mask(&load_cells4::<V>(ps, i + 1), &pc))
        .and(cells_eq_mask(&load_cells4::<V>(ps, i - sy), &pc))
        .and(cells_eq_mask(&load_cells4::<V>(ps, i + sy), &pc))
        .and(cells_eq_mask(&load_cells4::<V>(ps, i - sz), &pc))
        .and(cells_eq_mask(&load_cells4::<V>(ps, i + sz), &pc));
    same.all().then_some(pc)
}

#[inline(always)]
fn cellwise<V: SimdF64x4, const UG: bool, const TZ: bool, const STAG: bool, const SC: bool>(
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
    let inv_dx_s = 1.0 / params.dx;
    let inv_dx = V::splat(inv_dx_s);
    let inv_2dx = V::splat(0.5 * inv_dx_s);
    let gcols = gamma_cols::<V>(&params.gamma);
    let gu = V::splat(params.gamma[0][1]);
    let rate = V::splat(params.dt / (params.tau * params.eps));
    let quarter = V::splat(0.25);
    let two = V::splat(2.0);
    let one = V::splat(1.0);
    let origin_z = state.origin[2] as isize;

    let table = if TZ {
        Some(SliceTable::build(params, origin_z, dims.tz(), g, time))
    } else {
        None
    };
    let recomputed = RecomputedSlices {
        params,
        origin_z,
        ghost: g,
        time,
    };

    let BlockState {
        phi_src,
        mu_src,
        phi_dst,
        ..
    } = state;
    let ps = phi_src.comps();
    let ms = mu_src.comps();
    // Cut off at the slab bound: whatever `φ_dst` is known to hold above
    // (`kernels::phi_sweep_prepare`) is out of this sweep's reach.
    let mut pd = phi_dst.comps_mut_below(z1);

    let mut zbuf = vec![V::zero(); if STAG { nx * ny } else { 0 }];
    let mut ybuf = vec![V::zero(); if STAG { nx } else { 0 }];

    if STAG && z0 < z1 {
        for y in 0..ny {
            for x in 0..nx {
                let i = dims.idx(x + g, y + g, z0);
                zbuf[y * nx + x] = face_at::<V, UG>(&gcols, gu, &ps, i - sz, i, inv_dx);
            }
        }
    }

    for z in z0..z1 {
        let ctx_z = if TZ {
            SliceCtxV::from_ctx(&table.as_ref().unwrap().cell[z])
        } else {
            SliceCtxV::<V>::from_ctx(&recomputed.cell(g)) // placeholder; recomputed per cell
        };
        if STAG {
            for x in 0..nx {
                let i = dims.idx(x + g, g, z);
                ybuf[x] = face_at::<V, UG>(&gcols, gu, &ps, i - sy, i, inv_dx);
            }
        }
        for y in g..g + ny {
            let mut xprev = if STAG {
                let i = dims.idx(g, y, z);
                face_at::<V, UG>(&gcols, gu, &ps, i - 1, i, inv_dx)
            } else {
                V::zero()
            };
            let mut x0 = g;
            while x0 < g + nx {
                let n = (g + nx - x0).min(4);
                // Bulk shortcut at vector granularity: test four cells with
                // contiguous loads before paying for any per-cell gather.
                // Same predicate, same stores and same zeroed face slots
                // as four per-cell skips below.
                if SC && n == 4 {
                    let i = dims.idx(x0, y, z);
                    if let Some(pc) = bulk_group::<V>(&ps, i, sy, sz) {
                        for a in 0..N_PHASES {
                            pc[a].store(pd[a], i);
                        }
                        if STAG {
                            let (bx, bz) = (x0 - g, (y - g) * nx + (x0 - g));
                            xprev = V::zero();
                            for k in 0..4 {
                                ybuf[bx + k] = V::zero();
                                zbuf[bz + k] = V::zero();
                            }
                        }
                        x0 += 4;
                        continue;
                    }
                }
                for x in x0..x0 + n {
                    let i = dims.idx(x, y, z);
                    let pc = gather_cell4::<V>(&ps, i);
                    let xm = gather_cell4::<V>(&ps, i - 1);
                    let xp = gather_cell4::<V>(&ps, i + 1);
                    let ym = gather_cell4::<V>(&ps, i - sy);
                    let yp = gather_cell4::<V>(&ps, i + sy);
                    let zm = gather_cell4::<V>(&ps, i - sz);
                    let zp = gather_cell4::<V>(&ps, i + sz);

                    let pure_mask = pc.ge(one);
                    if SC && pure_mask.any() {
                        // Bulk shortcut: the cell is pure; if all six neighbors
                        // equal it exactly, ∂φ/∂t = 0.
                        let same = xm
                            .eq(pc)
                            .and(xp.eq(pc))
                            .and(ym.eq(pc))
                            .and(yp.eq(pc))
                            .and(zm.eq(pc))
                            .and(zp.eq(pc));
                        if same.all() {
                            scatter_cell4(&mut pd, i, pc);
                            if STAG {
                                xprev = V::zero();
                                ybuf[x - g] = V::zero();
                                zbuf[(y - g) * nx + (x - g)] = V::zero();
                            }
                            continue;
                        }
                    }

                    let fresh;
                    let ctx = if TZ {
                        &ctx_z
                    } else {
                        fresh = SliceCtxV::<V>::from_ctx(&recomputed.cell(z));
                        &fresh
                    };

                    // Reuse the already-gathered cell vectors for every face.
                    let (f_xl, f_yl, f_zl) = if STAG {
                        (xprev, ybuf[x - g], zbuf[(y - g) * nx + (x - g)])
                    } else {
                        (
                            face_flux_v::<V, UG>(&gcols, gu, xm, pc, inv_dx),
                            face_flux_v::<V, UG>(&gcols, gu, ym, pc, inv_dx),
                            face_flux_v::<V, UG>(&gcols, gu, zm, pc, inv_dx),
                        )
                    };
                    let f_xh = face_flux_v::<V, UG>(&gcols, gu, pc, xp, inv_dx);
                    let f_yh = face_flux_v::<V, UG>(&gcols, gu, pc, yp, inv_dx);
                    let f_zh = face_flux_v::<V, UG>(&gcols, gu, pc, zp, inv_dx);
                    if STAG {
                        xprev = f_xh;
                        ybuf[x - g] = f_yh;
                        zbuf[(y - g) * nx + (x - g)] = f_zh;
                    }

                    // Central gradients (lanes = phases).
                    let gx = (xp - xm) * inv_2dx;
                    let gy = (yp - ym) * inv_2dx;
                    let gz = (zp - zm) * inv_2dx;

                    // ∂a/∂φ = 2[φ (Γ m) − Σ_axis g_axis (Γ (φ g_axis))].
                    let m = gx.mul_add(gx, gy.mul_add(gy, gz * gz));
                    let t2 = gx * gamma_apply::<V, UG>(&gcols, gu, pc * gx)
                        + gy * gamma_apply::<V, UG>(&gcols, gu, pc * gy)
                        + gz * gamma_apply::<V, UG>(&gcols, gu, pc * gz);
                    let da = (pc * gamma_apply::<V, UG>(&gcols, gu, m) - t2) * two;

                    let div = (f_xh - f_xl + f_yh - f_yl + f_zh - f_zl) * inv_dx;
                    let obst = gamma_apply::<V, UG>(&gcols, gu, pc);

                    // Driving force, skipped for pure cells with shortcuts.
                    let drive = if SC && pure_mask.any() {
                        V::zero()
                    } else {
                        let phi2 = pc * pc;
                        let inv_s = one / phi2.hsum_splat();
                        let mu0 = V::splat(ms[0][i]);
                        let mu1 = V::splat(ms[1][i]);
                        let psi = -(mu0 * mu0 * ctx.inv4k[0] + mu1 * mu1 * ctx.inv4k[1])
                            - (mu0 * ctx.c_eq[0] + mu1 * ctx.c_eq[1])
                            + ctx.offset;
                        let psi_bar = (phi2 * psi).hsum_splat() * inv_s;
                        two * pc * inv_s * (psi - psi_bar)
                    };

                    let vdf = V::splat(ctx.pref_grad) * (da - div)
                        + V::splat(ctx.pref_obst) * obst
                        + drive;
                    let mean = vdf.hsum_splat() * quarter;
                    let raw = pc - rate * (vdf - mean);
                    let out = crate::simplex::project_to_simplex(raw.to_array());
                    scatter_cell4(&mut pd, i, V::from_array(out));
                }
                x0 += n;
            }
        }
    }
}

/// Four-cell sweep of the z-slices `z0..z1`. The staggered-buffer variant
/// carries face fluxes across the four-cell groups with lane shifts
/// (`shift_in`), exactly like the µ-kernel's buffered sweep, and is
/// bit-exact against the unbuffered variant because [`face_flux_cells`] is
/// purely lanewise. The z-face plane is pre-filled at `z0`, so restarting
/// at any slab boundary reproduces the full sweep bit-for-bit (same
/// argument as the µ-kernel).
#[inline(always)]
pub(super) fn phi_sweep_fourcell_range<V: SimdF64x4>(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    cfg: KernelConfig,
    z0: usize,
    z1: usize,
) {
    with_flags!(cfg, fourcell[V](params, state, time, z0, z1))
}

/// Face flux for four consecutive cells: lanes = cells, one output per phase.
/// Purely lanewise (splat constants only), so a face value is bit-identical
/// regardless of which lane position it is computed in — the property the
/// staggered carry relies on.
#[inline(always)]
fn face_flux_cells<V: SimdF64x4>(
    gamma: &[[f64; N_PHASES]; N_PHASES],
    l: &[V; N_PHASES],
    r: &[V; N_PHASES],
    inv_dx: V,
) -> [V; N_PHASES] {
    let half = V::splat(0.5);
    let pf: [V; N_PHASES] = per_phase!(|a| (l[a] + r[a]) * half);
    let gd: [V; N_PHASES] = per_phase!(|a| (r[a] - l[a]) * inv_dx);
    per_phase!(|a| {
        let mut s1 = V::zero();
        let mut s2 = V::zero();
        for b in 0..N_PHASES {
            let gm = V::splat(gamma[a][b]);
            s1 = (gm * pf[b]).mul_add(gd[b], s1);
            s2 = (gm * pf[b]).mul_add(pf[b], s2);
        }
        (pf[a] * s1 - gd[a] * s2) * V::splat(-2.0)
    })
}

/// Shift a face-flux vector one lane right, inserting `carry` in lane 0:
/// the x-low faces of a four-cell group are the x-high faces of the same
/// group shifted by one cell, with the carry coming from the previous group.
#[inline(always)]
fn shift_in<V: SimdF64x4>(carry: f64, v: V) -> V {
    v.permute::<3, 0, 1, 2>().replace(0, carry)
}

#[inline(always)]
fn fourcell<V: SimdF64x4, const TZ: bool, const STAG: bool, const SC: bool>(
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
    let inv_dx_s = 1.0 / params.dx;
    let inv_dx = V::splat(inv_dx_s);
    let inv_2dx = V::splat(0.5 * inv_dx_s);
    let rate = V::splat(params.dt / (params.tau * params.eps));
    let two = V::splat(2.0);
    let one = V::splat(1.0);
    let origin_z = state.origin[2] as isize;

    let table = if TZ {
        Some(SliceTable::build(params, origin_z, dims.tz(), g, time))
    } else {
        None
    };
    let recomputed = RecomputedSlices {
        params,
        origin_z,
        ghost: g,
        time,
    };

    let BlockState {
        phi_src,
        mu_src,
        phi_dst,
        ..
    } = state;
    let ps = phi_src.comps();
    let ms = mu_src.comps();
    let mut pd = phi_dst.comps_mut();

    // Staggered face buffers, one entry per four-cell group (lanes = cells).
    let ngx = nx / 4;
    let mut zbuf = vec![[V::zero(); N_PHASES]; if STAG { ngx * ny } else { 0 }];
    let mut ybuf = vec![[V::zero(); N_PHASES]; if STAG { ngx } else { 0 }];

    if STAG && z0 < z1 {
        for y in 0..ny {
            for gx in 0..ngx {
                let i = dims.idx(g + gx * 4, y + g, z0);
                let pc = load_cells4::<V>(&ps, i);
                let zm = load_cells4::<V>(&ps, i - sz);
                zbuf[y * ngx + gx] = face_flux_cells(&params.gamma, &zm, &pc, inv_dx);
            }
        }
    }

    let untabulated = recomputed.cell(g); // never read
    for z in z0..z1 {
        let ctx_z = if TZ {
            &table.as_ref().unwrap().cell[z]
        } else {
            &untabulated
        };
        if STAG {
            for gx in 0..ngx {
                let i = dims.idx(g + gx * 4, g, z);
                let pc = load_cells4::<V>(&ps, i);
                let ym = load_cells4::<V>(&ps, i - sy);
                ybuf[gx] = face_flux_cells(&params.gamma, &ym, &pc, inv_dx);
            }
        }
        for y in g..g + ny {
            let row = dims.idx(g, y, z);
            // Row-start x-carry: the face between the ghost cell and the
            // first interior cell, read out of lane 0 of a lanewise flux.
            let mut carry = [0.0f64; N_PHASES];
            if STAG && ngx > 0 {
                let pc = load_cells4::<V>(&ps, row);
                let xm = load_cells4::<V>(&ps, row - 1);
                let f = face_flux_cells(&params.gamma, &xm, &pc, inv_dx);
                for a in 0..N_PHASES {
                    carry[a] = f[a].extract(0);
                }
            }
            let mut x = 0usize;
            let mut gx_i = 0usize;
            // Vectorized groups of four cells.
            while x + 4 <= nx {
                let i = row + x;
                let fresh;
                let ctx = if TZ {
                    ctx_z
                } else {
                    fresh = recomputed.cell(z);
                    &fresh
                };
                let pc = load_cells4::<V>(&ps, i);
                let xm = load_cells4::<V>(&ps, i - 1);
                let xp = load_cells4::<V>(&ps, i + 1);
                let ym = load_cells4::<V>(&ps, i - sy);
                let yp = load_cells4::<V>(&ps, i + sy);
                let zm = load_cells4::<V>(&ps, i - sz);
                let zp = load_cells4::<V>(&ps, i + sz);

                // Shortcut only if the condition holds for ALL four cells:
                // some phase is pure (=1) in every lane with all neighbors
                // equal — i.e. the whole group sits in one bulk region.
                if SC {
                    let mut skipped = false;
                    for a in 0..N_PHASES {
                        if pc[a].ge(one).all()
                            && xm[a].ge(one).all()
                            && xp[a].ge(one).all()
                            && ym[a].ge(one).all()
                            && yp[a].ge(one).all()
                            && zm[a].ge(one).all()
                            && zp[a].ge(one).all()
                        {
                            for b in 0..N_PHASES {
                                pc[b].store(pd[b], i);
                            }
                            skipped = true;
                            break;
                        }
                    }
                    if skipped {
                        // A pure group with pure equal neighbors has exactly
                        // zero flux on every face (l == r ⇒ zero gradient and
                        // Γ(pf·g) = 0), so zeroing the carried faces is
                        // bit-exact against recomputing them.
                        if STAG {
                            carry = [0.0; N_PHASES];
                            ybuf[gx_i] = [V::zero(); N_PHASES];
                            zbuf[(y - g) * ngx + gx_i] = [V::zero(); N_PHASES];
                        }
                        x += 4;
                        gx_i += 1;
                        continue;
                    }
                }

                // Face fluxes (lanes = cells). With the staggered buffer the
                // low faces come from the previous group (x, via lane shift)
                // or the previous row/plane (y/z, verbatim).
                let f_xh = face_flux_cells(&params.gamma, &pc, &xp, inv_dx);
                let (f_xl, f_yl, f_zl) = if STAG {
                    let xl: [V; N_PHASES] = per_phase!(|a| shift_in(carry[a], f_xh[a]));
                    (xl, ybuf[gx_i], zbuf[(y - g) * ngx + gx_i])
                } else {
                    (
                        face_flux_cells(&params.gamma, &xm, &pc, inv_dx),
                        face_flux_cells(&params.gamma, &ym, &pc, inv_dx),
                        face_flux_cells(&params.gamma, &zm, &pc, inv_dx),
                    )
                };
                let f_yh = face_flux_cells(&params.gamma, &pc, &yp, inv_dx);
                let f_zh = face_flux_cells(&params.gamma, &pc, &zp, inv_dx);
                if STAG {
                    for a in 0..N_PHASES {
                        carry[a] = f_xh[a].extract(3);
                    }
                    ybuf[gx_i] = f_yh;
                    zbuf[(y - g) * ngx + gx_i] = f_zh;
                }

                // Gradients per phase.
                let gx: [V; N_PHASES] = per_phase!(|a| (xp[a] - xm[a]) * inv_2dx);
                let gy: [V; N_PHASES] = per_phase!(|a| (yp[a] - ym[a]) * inv_2dx);
                let gz: [V; N_PHASES] = per_phase!(|a| (zp[a] - zm[a]) * inv_2dx);

                // ∂a/∂φ_a = 2[φ_a Σ_b γ m_b − Σ_b γ φ_b (g_a·g_b)].
                let m: [V; N_PHASES] =
                    per_phase!(|a| gx[a].mul_add(gx[a], gy[a].mul_add(gy[a], gz[a] * gz[a])));
                let mut da = [V::zero(); N_PHASES];
                for a in 0..N_PHASES {
                    let mut s_norm = V::zero();
                    let mut s_dot = V::zero();
                    for b in 0..N_PHASES {
                        let gm = V::splat(params.gamma[a][b]);
                        s_norm = gm.mul_add(m[b], s_norm);
                        let dot = gx[a].mul_add(gx[b], gy[a].mul_add(gy[b], gz[a] * gz[b]));
                        s_dot = (gm * pc[b]).mul_add(dot, s_dot);
                    }
                    da[a] = (pc[a] * s_norm - s_dot) * two;
                }

                // Driving force (ψ per phase, lanes = cells).
                let mu0 = V::load(ms[0], i);
                let mu1 = V::load(ms[1], i);
                let mut s_phi2 = V::zero();
                for a in 0..N_PHASES {
                    s_phi2 = pc[a].mul_add(pc[a], s_phi2);
                }
                let inv_s = one / s_phi2;
                let mut psi = [V::zero(); N_PHASES];
                let mut psi_bar = V::zero();
                let skip_drive = SC && {
                    // All four cells pure in some (possibly different) phase.
                    let mut max = pc[0];
                    for v in &pc[1..] {
                        max = max.max(*v);
                    }
                    max.ge(one).all()
                };
                if !skip_drive {
                    for a in 0..N_PHASES {
                        psi[a] = -(mu0 * mu0 * V::splat(ctx.inv4k[a][0])
                            + mu1 * mu1 * V::splat(ctx.inv4k[a][1]))
                            - (mu0 * V::splat(ctx.c_eq[a][0]) + mu1 * V::splat(ctx.c_eq[a][1]))
                            + V::splat(ctx.offset[a]);
                        psi_bar = (pc[a] * pc[a] * inv_s).mul_add(psi[a], psi_bar);
                    }
                }

                // Assemble, project the mean out, integrate.
                let pref_grad = V::splat(ctx.pref_grad);
                let pref_obst = V::splat(ctx.pref_obst);
                let mut vdf = [V::zero(); N_PHASES];
                let mut mean = V::zero();
                for a in 0..N_PHASES {
                    let div = (f_xh[a] - f_xl[a] + f_yh[a] - f_yl[a] + f_zh[a] - f_zl[a]) * inv_dx;
                    let mut obst = V::zero();
                    for b in 0..N_PHASES {
                        obst = V::splat(params.gamma[a][b]).mul_add(pc[b], obst);
                    }
                    let drive = if skip_drive {
                        V::zero()
                    } else {
                        two * pc[a] * inv_s * (psi[a] - psi_bar)
                    };
                    vdf[a] = pref_grad * (da[a] - div) + pref_obst * obst + drive;
                    mean += vdf[a];
                }
                mean *= V::splat(0.25);
                let raw: [V; N_PHASES] = per_phase!(|a| pc[a] - rate * (vdf[a] - mean));
                let out = simplex_project_lanes(raw);
                for a in 0..N_PHASES {
                    out[a].store(pd[a], i);
                }
                x += 4;
                gx_i += 1;
            }
            // Scalar remainder: rung 1's cell update (it recomputes its faces
            // unbuffered; no vector group reads these cells' buffer slots,
            // so STAG needs no plumbing here).
            while x < nx {
                let fresh;
                let ctx = if TZ {
                    ctx_z
                } else {
                    fresh = recomputed.cell(z);
                    &fresh
                };
                phi_cell::<SC>(params, ctx, &ps, &ms, &mut pd, row + x, sy, sz, inv_dx_s);
                x += 1;
            }
        }
    }
}

/// Cellwise φ-sweep reading the phase field from an **array-of-structures**
/// mirror: the four phases of a cell load as one contiguous vector, removing
/// the SoA gather (the layout experiment of Sec. 5.1.1: "the fastest
/// φ-kernel requires an array-of-structures (AoS) layout to be able to load
/// a SIMD vector directly from contiguous memory ... no notable differences
/// could be measured in the φ-kernel performance after a data layout
/// change"). Production uses SoA (the µ-kernel's preference); this variant
/// exists for the layout ablation bench, which is why it is public and
/// dispatches on `isa` itself. `tests/kernel_equivalence.rs` pins it
/// against the SoA cellwise kernel.
///
/// Runs the T(z) + staggered-buffer configuration (rung 4) with uniform-γ
/// fast path when applicable.
pub fn phi_sweep_cellwise_aos(
    params: &ModelParams,
    phi_src: &AosField<N_PHASES>,
    mu_src: &SoaField<2>,
    phi_dst: &mut SoaField<N_PHASES>,
    origin_z: isize,
    time: f64,
    isa: SimdIsa,
) {
    assert_eq!(phi_dst.dims(), phi_src.dims());
    eutectica_simd::dispatch(
        isa.allows_avx2(),
        CellwiseAos {
            params,
            phi_src,
            mu_src,
            phi_dst,
            origin_z,
            time,
        },
    );
}

struct CellwiseAos<'a> {
    params: &'a ModelParams,
    phi_src: &'a AosField<N_PHASES>,
    mu_src: &'a SoaField<2>,
    phi_dst: &'a mut SoaField<N_PHASES>,
    origin_z: isize,
    time: f64,
}

impl IsaGeneric for CellwiseAos<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: SimdF64x4>(self) {
        if gamma_is_uniform(self.params) {
            cellwise_aos::<V, true>(self)
        } else {
            cellwise_aos::<V, false>(self)
        }
    }
}

/// Face flux between AoS cells `il` and `ir`: one contiguous load per cell,
/// the AoS advantage.
#[inline(always)]
fn aos_face<V: SimdF64x4, const UG: bool>(
    gcols: &[V; N_PHASES],
    gu: V,
    raw: &[f64],
    il: usize,
    ir: usize,
    inv_dx: V,
) -> V {
    let (l, r) = (V::load(raw, il * N_PHASES), V::load(raw, ir * N_PHASES));
    face_flux_v::<V, UG>(gcols, gu, l, r, inv_dx)
}

#[inline(always)]
fn cellwise_aos<V: SimdF64x4, const UG: bool>(args: CellwiseAos<'_>) {
    let CellwiseAos {
        params,
        phi_src,
        mu_src,
        phi_dst,
        origin_z,
        time,
    } = args;
    let dims = phi_dst.dims();
    let g = dims.ghost;
    let (nx, ny, nz) = (dims.nx, dims.ny, dims.nz);
    let (sy, sz) = (dims.sy(), dims.sz());
    let inv_dx_s = 1.0 / params.dx;
    let inv_dx = V::splat(inv_dx_s);
    let inv_2dx = V::splat(0.5 * inv_dx_s);
    let gcols = gamma_cols::<V>(&params.gamma);
    let gu = V::splat(params.gamma[0][1]);
    let rate = V::splat(params.dt / (params.tau * params.eps));
    let quarter = V::splat(0.25);
    let two = V::splat(2.0);
    let one = V::splat(1.0);

    let table = SliceTable::build(params, origin_z, dims.tz(), g, time);
    let raw = phi_src.raw();
    let ms = mu_src.comps();
    let mut pd = phi_dst.comps_mut();

    let mut zbuf = vec![V::zero(); nx * ny];
    let mut ybuf = vec![V::zero(); nx];
    for y in 0..ny {
        for x in 0..nx {
            let i = dims.idx(x + g, y + g, g);
            zbuf[y * nx + x] = aos_face::<V, UG>(&gcols, gu, raw, i - sz, i, inv_dx);
        }
    }

    for z in g..g + nz {
        let ctx = SliceCtxV::<V>::from_ctx(&table.cell[z]);
        for x in 0..nx {
            let i = dims.idx(x + g, g, z);
            ybuf[x] = aos_face::<V, UG>(&gcols, gu, raw, i - sy, i, inv_dx);
        }
        for y in g..g + ny {
            let i0 = dims.idx(g, y, z);
            let mut xprev = aos_face::<V, UG>(&gcols, gu, raw, i0 - 1, i0, inv_dx);
            for x in g..g + nx {
                let i = dims.idx(x, y, z);
                let pc = V::load(raw, i * N_PHASES);
                let xm = V::load(raw, (i - 1) * N_PHASES);
                let xp = V::load(raw, (i + 1) * N_PHASES);
                let ym = V::load(raw, (i - sy) * N_PHASES);
                let yp = V::load(raw, (i + sy) * N_PHASES);
                let zm = V::load(raw, (i - sz) * N_PHASES);
                let zp = V::load(raw, (i + sz) * N_PHASES);

                let (f_xl, f_yl, f_zl) = (xprev, ybuf[x - g], zbuf[(y - g) * nx + (x - g)]);
                let f_xh = face_flux_v::<V, UG>(&gcols, gu, pc, xp, inv_dx);
                let f_yh = face_flux_v::<V, UG>(&gcols, gu, pc, yp, inv_dx);
                let f_zh = face_flux_v::<V, UG>(&gcols, gu, pc, zp, inv_dx);
                xprev = f_xh;
                ybuf[x - g] = f_yh;
                zbuf[(y - g) * nx + (x - g)] = f_zh;

                let gx = (xp - xm) * inv_2dx;
                let gy = (yp - ym) * inv_2dx;
                let gz = (zp - zm) * inv_2dx;
                let m = gx.mul_add(gx, gy.mul_add(gy, gz * gz));
                let t2 = gx * gamma_apply::<V, UG>(&gcols, gu, pc * gx)
                    + gy * gamma_apply::<V, UG>(&gcols, gu, pc * gy)
                    + gz * gamma_apply::<V, UG>(&gcols, gu, pc * gz);
                let da = (pc * gamma_apply::<V, UG>(&gcols, gu, m) - t2) * two;
                let div = (f_xh - f_xl + f_yh - f_yl + f_zh - f_zl) * inv_dx;
                let obst = gamma_apply::<V, UG>(&gcols, gu, pc);

                let phi2 = pc * pc;
                let inv_s = one / phi2.hsum_splat();
                let mu0 = V::splat(ms[0][i]);
                let mu1 = V::splat(ms[1][i]);
                let psi = -(mu0 * mu0 * ctx.inv4k[0] + mu1 * mu1 * ctx.inv4k[1])
                    - (mu0 * ctx.c_eq[0] + mu1 * ctx.c_eq[1])
                    + ctx.offset;
                let psi_bar = (phi2 * psi).hsum_splat() * inv_s;
                let drive = two * pc * inv_s * (psi - psi_bar);

                let vdf =
                    V::splat(ctx.pref_grad) * (da - div) + V::splat(ctx.pref_obst) * obst + drive;
                let mean = vdf.hsum_splat() * quarter;
                let out = crate::simplex::project_to_simplex((pc - rate * (vdf - mean)).to_array());
                scatter_cell4(&mut pd, i, V::from_array(out));
            }
        }
    }
}

#[cfg(test)]
mod aos_tests {
    use super::*;
    use crate::kernels::{phi_sweep, PhiVariant};
    use eutectica_blockgrid::GridDims;

    #[test]
    fn fourcell_staggered_is_bit_exact_vs_unbuffered() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let params = ModelParams::ag_al_cu();
        // nx = 10 exercises both the group path (8 cells) and the scalar
        // remainder (2 cells); a pure slab exercises the shortcut zeroing.
        let dims = GridDims::new(10, 6, 6, 1);
        let mut s = BlockState::new(dims, [0, 0, 3]);
        for z in 0..dims.tz() {
            for y in 0..dims.ty() {
                for x in 0..dims.tx() {
                    let cell = if y < dims.ty() / 2 {
                        [1.0, 0.0, 0.0, 0.0]
                    } else {
                        let raw: [f64; 4] = core::array::from_fn(|_| rng.random_range(0.0..1.0));
                        crate::simplex::project_to_simplex(raw)
                    };
                    s.phi_src.set_cell(x, y, z, cell);
                    s.mu_src.set_cell(
                        x,
                        y,
                        z,
                        [rng.random_range(-0.2..0.2), rng.random_range(-0.2..0.2)],
                    );
                }
            }
        }
        for tz in [false, true] {
            for sc in [false, true] {
                let cfg = |staggered_buffer| KernelConfig {
                    phi: PhiVariant::SimdFourCell,
                    tz_precompute: tz,
                    staggered_buffer,
                    shortcuts: sc,
                    ..KernelConfig::default()
                };
                let mut plain = s.clone();
                let mut stag = s.clone();
                phi_sweep(&params, &mut plain, 1.0, cfg(false));
                phi_sweep(&params, &mut stag, 1.0, cfg(true));
                for c in 0..N_PHASES {
                    for (x, y, z) in dims.interior_iter() {
                        let a = plain.phi_dst.at(c, x, y, z);
                        let b = stag.phi_dst.at(c, x, y, z);
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "tz={tz} sc={sc} phi[{c}]@({x},{y},{z}): {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}
