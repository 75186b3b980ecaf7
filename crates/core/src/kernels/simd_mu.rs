//! Explicitly vectorized µ-kernel, four cells at a time (ladder rung 2+).
//!
//! "While this technique is the only possible one for the µ-kernel" — the
//! µ-update has no natural per-cell vector structure, so the innermost loop
//! is unrolled over four consecutive x-cells: every field access becomes a
//! contiguous (SoA) vector load and all face quantities are evaluated for
//! four faces at once.
//!
//! Staggered buffering works on vectors too: the x-low faces of a group are
//! the lane-shifted x-high faces (with a scalar carry across groups), and
//! the y/z face fluxes are buffered per group exactly like Fig. 3.
//! Shortcuts can only trigger when the condition holds for **all four
//! cells** of a group (the four-cell limitation the paper measures in
//! Fig. 5's discussion). The one that makes bulk regions cheap is the
//! *single-phase* shortcut: where every cell a term reads is pure in the
//! same phase, the mobility, the susceptibility and the drift slope are
//! that phase's slice constants and the anti-trapping current is exactly
//! zero, so the update degenerates to a constant-coefficient 7-point
//! stencil on µ (`pure_face_flux` and the local terms in `sweep`).
//!
//! The kernel is generic over the ISA backend `V:`[`SimdF64x4`] and
//! instantiated per ISA by [`super::mu_sweep_range`].

use crate::kernels::basic::{mu_cell, SweepCtx};
use crate::kernels::simd_common::{
    cells_eq_mask, load_cells4, per_comp, per_phase, RecomputedSlices,
};
use crate::kernels::{pure_phase_of, with_flags, KernelConfig};
use crate::params::ModelParams;
use crate::state::BlockState;
use crate::temperature::{SliceCtx, SliceTable};
use crate::{LIQ, N_COMP, N_PHASES};
use eutectica_simd::{SimdF64x4, SimdMask4};

/// Four-cell µ-sweep of the z-slices `z0..z1` (see
/// [`crate::kernels::phi_sweep_range`] for the coordinate convention and
/// the bit-exactness argument); `cx` carries the [`crate::kernels::MuPart`].
#[inline(always)]
pub(super) fn mu_sweep_fourcell_range<V: SimdF64x4>(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    cfg: KernelConfig,
    cx: &SweepCtx,
    z0: usize,
    z1: usize,
) {
    with_flags!(cfg, sweep[V](params, state, time, cx, z0, z1))
}

/// `[carry, v0, v1, v2]` — slide a face-flux vector one lane to reuse the
/// overlapping x-faces of the previous group.
#[inline(always)]
fn shift_in<V: SimdF64x4>(carry: f64, v: V) -> V {
    v.permute::<3, 0, 1, 2>().replace(0, carry)
}

/// The unit vector of phase `p` in every lane: four cells pure in `p`.
#[inline(always)]
fn unit_phase<V: SimdF64x4>(p: usize) -> [V; N_PHASES] {
    per_phase!(|a| V::splat(if a == p { 1.0 } else { 0.0 }))
}

/// The phase in which all four `cells` (loaded from linear index `i`) are
/// exactly pure — `φ_p = 1`, every other `φ = 0` — if there is one.
#[inline(always)]
fn pure_phase<V: SimdF64x4>(
    ps: &[&[f64]; N_PHASES],
    i: usize,
    cells: &[V; N_PHASES],
) -> Option<usize> {
    let mut p = 0;
    while ps[p][i] != 1.0 {
        p += 1;
        if p == N_PHASES {
            return None;
        }
    }
    cells_eq_mask(cells, &unit_phase::<V>(p)).all().then_some(p)
}

/// Whether the neighbour groups a four-cell update at `i` takes its face
/// fluxes from — the three high ones, and the three low ones unless those
/// come out of the staggered buffer — are all pure in phase `p`.
#[inline(always)]
fn neighbours_pure<V: SimdF64x4, const STAG: bool>(
    ps: &[&[f64]; N_PHASES],
    i: usize,
    sy: usize,
    sz: usize,
    p: usize,
) -> bool {
    let e = unit_phase::<V>(p);
    let mut pure = cells_eq_mask(&load_cells4::<V>(ps, i + 1), &e)
        .and(cells_eq_mask(&load_cells4::<V>(ps, i + sy), &e))
        .and(cells_eq_mask(&load_cells4::<V>(ps, i + sz), &e));
    if !STAG {
        pure = pure
            .and(cells_eq_mask(&load_cells4::<V>(ps, i - 1), &e))
            .and(cells_eq_mask(&load_cells4::<V>(ps, i - sy), &e))
            .and(cells_eq_mask(&load_cells4::<V>(ps, i - sz), &e));
    }
    pure.all()
}

struct VCtx<V: SimdF64x4> {
    inv_dx: V,
    inv_dt: V,
    dc_dt: [[f64; N_COMP]; N_PHASES],
    atc_pref: f64,
    sy: usize,
    sz: usize,
    with_grad: bool,
    with_jat: bool,
}

impl<V: SimdF64x4> VCtx<V> {
    #[inline(always)]
    fn trans(&self, axis: usize) -> (usize, usize) {
        match axis {
            0 => (self.sy, self.sz),
            1 => (1, self.sz),
            _ => (1, self.sy),
        }
    }

    /// [`Self::face_flux`] where all eight cells are pure in the phase with
    /// mobilities `mob`. The general mobility sum is then
    /// 0 + … + (1+1)·½·M_p = M_p exactly, and J_at vanishes exactly whatever
    /// the tangential neighbours hold: in a solid phase the liquid fraction
    /// at the face is 0, in liquid every solid fraction is, so its indicator
    /// is false either way.
    #[inline(always)]
    fn pure_face_flux(
        &self,
        ms: &[&[f64]; N_COMP],
        mob: &[f64; N_COMP],
        il: usize,
        ir: usize,
    ) -> [V; N_COMP] {
        let mut flux = [V::zero(); N_COMP];
        if self.with_grad {
            for i in 0..N_COMP {
                flux[i] =
                    V::splat(mob[i]) * (V::load(ms[i], ir) - V::load(ms[i], il)) * self.inv_dx;
            }
        }
        flux
    }

    /// The face flux between the groups at `il` and `ir`:
    /// [`Self::pure_face_flux`] when everything the face reads is known to
    /// be pure in phase `pure`, [`Self::face_flux`] otherwise. The two
    /// agree bit for bit wherever the first applies.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn face_flux_in<const SC: bool>(
        &self,
        pure: Option<usize>,
        ps: &[&[f64]; N_PHASES],
        pd: &[&[f64]; N_PHASES],
        ms: &[&[f64]; N_COMP],
        ctx_face: &SliceCtx,
        il: usize,
        ir: usize,
        axis: usize,
    ) -> [V; N_COMP] {
        match pure {
            Some(p) => self.pure_face_flux(ms, &ctx_face.mob[p], il, ir),
            None => self.face_flux::<SC>(ps, pd, ms, ctx_face, il, ir, axis),
        }
    }

    /// Combined face flux `M∇µ − J_at` for the four faces between cell
    /// groups starting at `il` and `ir` (ir = il + stride(axis)).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn face_flux<const SC: bool>(
        &self,
        ps: &[&[f64]; N_PHASES],
        pd: &[&[f64]; N_PHASES],
        ms: &[&[f64]; N_COMP],
        ctx_face: &SliceCtx,
        il: usize,
        ir: usize,
        axis: usize,
    ) -> [V; N_COMP] {
        let half = V::splat(0.5);
        let zero = V::zero();
        let phi_l = load_cells4::<V>(ps, il);
        let phi_r = load_cells4::<V>(ps, ir);
        let mu_l = [V::load(ms[0], il), V::load(ms[1], il)];
        let mu_r = [V::load(ms[0], ir), V::load(ms[1], ir)];
        let mut flux = [zero; N_COMP];
        if self.with_grad {
            for i in 0..N_COMP {
                let mut m = zero;
                for a in 0..N_PHASES {
                    m += (phi_l[a] + phi_r[a]) * half * V::splat(ctx_face.mob[a][i]);
                }
                flux[i] = m * (mu_r[i] - mu_l[i]) * self.inv_dx;
            }
        }
        if self.with_jat {
            let pl = (phi_l[LIQ] + phi_r[LIQ]) * half;
            if SC && !pl.gt(zero).any() {
                // Shortcut: no liquid at any of the four faces.
                return flux;
            }
            let gl = self.face_gradient(ps, il, ir, axis, LIQ);
            let nl2 = gl[0] * gl[0] + gl[1] * gl[1] + gl[2] * gl[2];
            if SC && !nl2.gt(zero).any() {
                // Shortcut: bulk liquid at all four faces.
                return flux;
            }
            let minpos = V::splat(f64::MIN_POSITIVE);
            let one = V::splat(1.0);
            let ind_l = pl.gt(zero).and(nl2.gt(zero));
            let inv_nl = one / nl2.max(minpos).sqrt();
            let inv_pl = one / pl.max(minpos);
            let pf: [V; N_PHASES] = per_phase!(|a| (phi_l[a] + phi_r[a]) * half);
            let mut s_f = zero;
            for p in &pf {
                s_f += *p * *p;
            }
            let h_l = pl * pl / s_f;
            let mu_f = [(mu_l[0] + mu_r[0]) * half, (mu_l[1] + mu_r[1]) * half];
            let pref = V::splat(self.atc_pref);
            for a in 0..LIQ {
                let pa = pf[a];
                let ga = self.face_gradient(ps, il, ir, axis, a);
                let na2 = ga[0] * ga[0] + ga[1] * ga[1] + ga[2] * ga[2];
                let ind = ind_l.and(pa.gt(zero)).and(na2.gt(zero));
                let inv_na = one / na2.max(minpos).sqrt();
                let weight = h_l * (pa.max(zero) * inv_pl).sqrt();
                let dphidt = ((V::load(pd[a], il) - phi_l[a]) + (V::load(pd[a], ir) - phi_r[a]))
                    * half
                    * self.inv_dt;
                let n_dot = (ga[0] * gl[0] + ga[1] * gl[1] + ga[2] * gl[2]) * inv_na * inv_nl;
                let base = pref * weight * dphidt * n_dot * ga[axis] * inv_na;
                let base = ind.select(base, zero);
                for i in 0..N_COMP {
                    let cdiff = V::splat(ctx_face.c_eq[LIQ][i] - ctx_face.c_eq[a][i])
                        + mu_f[i] * V::splat(ctx_face.inv2k[LIQ][i] - ctx_face.inv2k[a][i]);
                    flux[i] -= base * cdiff;
                }
            }
        }
        flux
    }

    /// Face gradient of φ_a (lanes = the four faces).
    #[inline(always)]
    fn face_gradient(
        &self,
        ps: &[&[f64]; N_PHASES],
        il: usize,
        ir: usize,
        axis: usize,
        a: usize,
    ) -> [V; 3] {
        let (se1, se2) = self.trans(axis);
        let p = ps[a];
        let quarter = V::splat(0.25);
        let normal = (V::load(p, ir) - V::load(p, il)) * self.inv_dx;
        let t1 = quarter
            * self.inv_dx
            * ((V::load(p, il + se1) - V::load(p, il - se1))
                + (V::load(p, ir + se1) - V::load(p, ir - se1)));
        let t2 = quarter
            * self.inv_dx
            * ((V::load(p, il + se2) - V::load(p, il - se2))
                + (V::load(p, ir + se2) - V::load(p, ir - se2)));
        match axis {
            0 => [normal, t1, t2],
            1 => [t1, normal, t2],
            _ => [t1, t2, normal],
        }
    }
}

#[allow(clippy::too_many_lines)]
#[inline(always)]
fn sweep<V: SimdF64x4, const TZ: bool, const STAG: bool, const SC: bool>(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    scx: &SweepCtx,
    z0: usize,
    z1: usize,
) {
    let dims = state.dims;
    let g = dims.ghost;
    let (nx, ny, nz) = (dims.nx, dims.ny, dims.nz);
    debug_assert!(g <= z0 && z0 <= z1 && z1 <= g + nz);
    let (sy, sz) = (dims.sy(), dims.sz());
    let origin_z = state.origin[2] as isize;
    let dtv = V::splat(scx.dt);

    // `scx` splatted; the scalar remainder cells (nx not a multiple of 4)
    // take `scx` itself.
    let cx = VCtx::<V> {
        inv_dx: V::splat(scx.inv_dx),
        inv_dt: V::splat(scx.inv_dt),
        dc_dt: scx.dc_dt,
        atc_pref: scx.atc_pref,
        sy,
        sz,
        with_grad: scx.with_grad,
        with_jat: scx.with_jat,
    };
    let accumulate = scx.accumulate;

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
        phi_dst,
        mu_src,
        mu_dst,
        ..
    } = state;
    // Slab-level shortcut: where φ_src's slabs z−1..z+1 and φ_dst's slab z
    // lie in constant zones of one pure phase, every group of slab z passes
    // the per-group predicates below (`pure_phase`, `neighbours_pure`,
    // `unchanged`) — so they are decided once per slab, from the fields'
    // summaries, and φ is not loaded at all.
    let (src_from, src_val) = phi_src.const_zone();
    let (dst_from, dst_val) = phi_dst.const_zone();
    let (zone_phase, zone_from) = match (pure_phase_of(src_val), pure_phase_of(dst_val)) {
        (Some(p), Some(q)) if SC && p == q => (Some(p), (src_from + 1).max(dst_from)),
        _ => (None, usize::MAX),
    };

    let ps = phi_src.comps();
    let pd = phi_dst.comps();
    let ms = mu_src.comps();
    let mut md = mu_dst.comps_mut();

    let ngx = nx / 4; // vector groups per row
    let mut zbuf = vec![[V::zero(); N_COMP]; if STAG { ngx * ny } else { 0 }];
    let mut ybuf = vec![[V::zero(); N_COMP]; if STAG { ngx } else { 0 }];

    if STAG && z0 < z1 {
        let ctx_zlow = if TZ {
            table.as_ref().unwrap().zface[z0 - 1]
        } else {
            recomputed.zface(z0 - 1)
        };
        let slab_pure = if z0 >= zone_from { zone_phase } else { None };
        for y in 0..ny {
            for gx in 0..ngx {
                let i = dims.idx(4 * gx + g, y + g, z0);
                zbuf[y * ngx + gx] =
                    cx.face_flux_in::<SC>(slab_pure, &ps, &pd, &ms, &ctx_zlow, i - sz, i, 2);
            }
        }
    }

    // Per-phase constant splats for the temperature-independent slopes.
    let dcdt_v: [[V; N_COMP]; N_PHASES] = per_phase!(|a| per_comp!(|i| V::splat(cx.dc_dt[a][i])));
    let dtdt = V::splat(scx.dtemp_dt);

    // Contexts are used by reference: a `SliceCtx` is 39 doubles, and a
    // by-value copy per group costs more than a single-phase group update.
    let untabulated = SliceCtx::at(params, 0.0); // never read
    for z in z0..z1 {
        let (ctx_z, ctx_zf_low, ctx_zf_high) = if TZ {
            let t = table.as_ref().unwrap();
            (&t.cell[z], &t.zface[z - 1], &t.zface[z])
        } else {
            (&untabulated, &untabulated, &untabulated)
        };
        let slab_pure = if z >= zone_from { zone_phase } else { None };
        if STAG {
            let fresh;
            let ctx_yf = if TZ {
                ctx_z
            } else {
                fresh = recomputed.cell(z);
                &fresh
            };
            for gx in 0..ngx {
                let i = dims.idx(4 * gx + g, g, z);
                ybuf[gx] = cx.face_flux_in::<SC>(slab_pure, &ps, &pd, &ms, ctx_yf, i - sy, i, 1);
            }
        }
        for y in g..g + ny {
            let row = dims.idx(g, y, z);
            // Row-start x carry: lane 0 of the explicit low-face evaluation.
            let mut carry = [0.0f64; N_COMP];
            if STAG && ngx > 0 {
                let fresh;
                let ctx_xf = if TZ {
                    ctx_z
                } else {
                    fresh = recomputed.cell(z);
                    &fresh
                };
                let lo = cx.face_flux_in::<SC>(slab_pure, &ps, &pd, &ms, ctx_xf, row - 1, row, 0);
                carry = [lo[0].extract(0), lo[1].extract(0)];
            }
            for gx in 0..ngx {
                let i = row + 4 * gx;
                let fresh;
                let (ctx, czl, czh) = if TZ {
                    (ctx_z, ctx_zf_low, ctx_zf_high)
                } else {
                    fresh = (
                        recomputed.cell(z),
                        recomputed.zface(z - 1),
                        recomputed.zface(z),
                    );
                    (&fresh.0, &fresh.1, &fresh.2)
                };

                // Shortcut: a group pure in one phase p (`pure`) whose face
                // neighbours are too (`stencil_pure`) is a
                // constant-coefficient 7-point stencil on µ.
                let (pc, pure, stencil_pure) = if let Some(p) = slab_pure {
                    (unit_phase::<V>(p), Some(p), Some(p))
                } else {
                    let pc = load_cells4::<V>(&ps, i);
                    let pure = if SC { pure_phase(&ps, i, &pc) } else { None };
                    let stencil_pure = match pure {
                        Some(p) if neighbours_pure::<V, STAG>(&ps, i, sy, sz, p) => Some(p),
                        _ => None,
                    };
                    (pc, pure, stencil_pure)
                };

                let f_xh = cx.face_flux_in::<SC>(stencil_pure, &ps, &pd, &ms, ctx, i, i + 1, 0);
                let f_yh = cx.face_flux_in::<SC>(stencil_pure, &ps, &pd, &ms, ctx, i, i + sy, 1);
                let f_zh = cx.face_flux_in::<SC>(stencil_pure, &ps, &pd, &ms, czh, i, i + sz, 2);
                let (f_xl, f_yl, f_zl) = if STAG {
                    let xl = [shift_in(carry[0], f_xh[0]), shift_in(carry[1], f_xh[1])];
                    carry = [f_xh[0].extract(3), f_xh[1].extract(3)];
                    let lows = (xl, ybuf[gx], zbuf[(y - g) * ngx + gx]);
                    ybuf[gx] = f_yh;
                    zbuf[(y - g) * ngx + gx] = f_zh;
                    lows
                } else {
                    (
                        cx.face_flux_in::<SC>(stencil_pure, &ps, &pd, &ms, ctx, i - 1, i, 0),
                        cx.face_flux_in::<SC>(stencil_pure, &ps, &pd, &ms, ctx, i - sy, i, 1),
                        cx.face_flux_in::<SC>(stencil_pure, &ps, &pd, &ms, czl, i - sz, i, 2),
                    )
                };

                let div = [
                    (f_xh[0] - f_xl[0] + f_yh[0] - f_yl[0] + f_zh[0] - f_zl[0]) * cx.inv_dx,
                    (f_xh[1] - f_xl[1] + f_yh[1] - f_yl[1] + f_zh[1] - f_zl[1]) * cx.inv_dx,
                ];

                // Local terms, lanes = cells. A pure group has h = e_p
                // exactly, so the h-weighted sums below (all accumulated
                // from +0) reduce to phase p's own coefficient.
                let (h_old, chi): ([V; N_PHASES], [V; N_COMP]) = if let Some(p) = pure {
                    (unit_phase::<V>(p), per_comp!(|i| V::splat(ctx.inv2k[p][i])))
                } else {
                    let mut s_old = V::zero();
                    for p in &pc {
                        s_old = p.mul_add(*p, s_old);
                    }
                    let inv_s_old = V::splat(1.0) / s_old;
                    let h_old: [V; N_PHASES] = per_phase!(|a| pc[a] * pc[a] * inv_s_old);
                    let chi: [V; N_COMP] = per_comp!(|i| {
                        let mut c = V::zero();
                        for a in 0..N_PHASES {
                            c = h_old[a].mul_add(V::splat(ctx.inv2k[a][i]), c);
                        }
                        c
                    });
                    (h_old, chi)
                };

                if accumulate {
                    for i_c in 0..N_COMP {
                        let cur = V::load(md[i_c], i);
                        (cur + dtv * div[i_c] / chi[i_c]).store(md[i_c], i);
                    }
                    continue;
                }

                let mu = [V::load(ms[0], i), V::load(ms[1], i)];
                let mut source = [V::zero(); N_COMP];
                let mut drift = [V::zero(); N_COMP];
                // In a constant slab φ_dst is φ_src: no phase change.
                let pn = match slab_pure {
                    Some(_) => pc,
                    None => load_cells4::<V>(&pd, i),
                };
                let unchanged = SC && cells_eq_mask(&pn, &pc).all();
                if !unchanged {
                    let mut s_new = V::zero();
                    for p in &pn {
                        s_new = p.mul_add(*p, s_new);
                    }
                    let inv_s_new = V::splat(1.0) / s_new;
                    for a in 0..N_PHASES {
                        let h_new = pn[a] * pn[a] * inv_s_new;
                        let dh = (h_new - h_old[a]) * cx.inv_dt;
                        for i_c in 0..N_COMP {
                            let c_a =
                                V::splat(ctx.c_eq[a][i_c]) + mu[i_c] * V::splat(ctx.inv2k[a][i_c]);
                            source[i_c] -= c_a * dh;
                        }
                    }
                }
                for i_c in 0..N_COMP {
                    let dcdt = if let Some(p) = pure {
                        dcdt_v[p][i_c]
                    } else {
                        let mut dcdt = V::zero();
                        for a in 0..N_PHASES {
                            dcdt = h_old[a].mul_add(dcdt_v[a][i_c], dcdt);
                        }
                        dcdt
                    };
                    drift[i_c] = -(dcdt * dtdt);
                }

                for i_c in 0..N_COMP {
                    let out = mu[i_c] + dtv * (div[i_c] + source[i_c] + drift[i_c]) / chi[i_c];
                    out.store(md[i_c], i);
                }
            }

            // Scalar remainder (right edge of the row): rung 1's cell update.
            for x in (g + 4 * ngx)..(g + nx) {
                let fresh;
                let (ctx, czl, czh) = if TZ {
                    (ctx_z, ctx_zf_low, ctx_zf_high)
                } else {
                    fresh = (
                        recomputed.cell(z),
                        recomputed.zface(z - 1),
                        recomputed.zface(z),
                    );
                    (&fresh.0, &fresh.1, &fresh.2)
                };
                let i = dims.idx(x, y, z);
                mu_cell::<SC>(scx, ctx, czl, czh, &ps, &pd, &ms, &mut md, i);
            }
        }
    }
}
