//! Explicitly vectorized φ-kernels (ladder rung 2+).
//!
//! Two strategies, as compared in Fig. 5:
//!
//! * **cellwise** ([`phi_sweep_cellwise_range`], production): the paper's
//!   fastest variant puts "the four phases of a cell" in one SIMD vector "such
//!   that branching on a cell-by-cell basis becomes possible". Here it runs
//!   *four x-cells per vector* instead: one vector holds one phase of four
//!   neighbouring cells, loaded contiguously from the SoA planes, and every
//!   lane runs the op sequence of the lanes-per-phase form bit for bit.
//!   Horizontal sums over the phases become `(v0+v2)+(v1+v3)` across the
//!   four phase registers (the association of `hsum_splat`), Γ·v is
//!   `γ(Σv − v_α)` or `matvec`'s FMA chain, and the per-cell branches (bulk
//!   skip, pure-cell drive skip) become lane masks. So the kernel keeps the
//!   per-cell shortcuts without per-cell gathers, horizontal sums, scatters
//!   or a scalar projection. The lanes-per-phase form itself lives on as the
//!   AoS layout ablation [`phi_sweep_cellwise_aos`], which
//!   `tests/kernel_equivalence.rs` pins bit for bit against this kernel.
//! * **four-cell** ([`phi_sweep_fourcell_range`]): "unroll the innermost
//!   loop, updating four cells in one iteration" — contiguous SoA loads, its
//!   own (FMA-contracted) arithmetic, and "can only take these shortcuts if
//!   the condition is true for all four cells".
//!
//! Every kernel is generic over the ISA backend `V:`[`SimdF64x4`] and
//! instantiated per ISA by [`eutectica_simd::dispatch`], from
//! [`super::phi_sweep_range`] (and, for the AoS layout ablation, from
//! [`phi_sweep_cellwise_aos`] itself).

use crate::kernels::basic::phi_cell;
use crate::kernels::simd_common::{
    cells_eq_mask, gamma_cols, load_cells4, load_cells_n, load_lanes_n, matvec, per_phase,
    scatter_cell4, simplex_project_lanes, store_lanes_n, RecomputedSlices, SliceCtxV,
};
use crate::kernels::{with_flags, KernelConfig, SimdIsa};
use crate::params::ModelParams;
use crate::state::BlockState;
use crate::temperature::{SliceCtx, SliceTable};
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

/// Γ·v for the lanes-per-phase kernel: uniform-γ fast path (one horizontal
/// sum) or the general 4×4 matrix–vector product.
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

/// `hsum_splat` across the four phase registers: `(v0+v2)+(v1+v3)` per lane.
#[inline(always)]
fn hsum4<V: SimdF64x4>(v: &[V; N_PHASES]) -> V {
    (v[0] + v[2]) + (v[1] + v[3])
}

/// What every window of one cellwise sweep reads: the source planes, the
/// constants splatted once, and the slice contexts below T(z).
struct Sweep<'a, V: SimdF64x4> {
    ps: [&'a [f64]; N_PHASES],
    ms: [&'a [f64]; 2],
    recomputed: RecomputedSlices<'a>,
    /// γ_αβ splatted (for the non-uniform Γ·v).
    gamma: [[V; N_PHASES]; N_PHASES],
    /// γ (uniform Γ·v).
    gu: V,
    inv_dx: V,
    inv_2dx: V,
    rate: V,
    /// Lane 0 set: selects a window's left x-face from the carry.
    lane0: V::Mask,
    sy: usize,
    sz: usize,
}

/// [`gamma_apply`] for four cells (`v[β]` = phase β, lanes = cells), each
/// lane the op sequence of the lanes-per-phase form.
#[inline(always)]
fn gamma4<V: SimdF64x4, const UG: bool>(k: &Sweep<V>, v: &[V; N_PHASES]) -> [V; N_PHASES] {
    if UG {
        let s = hsum4(v);
        per_phase!(|a| k.gu * (s - v[a]))
    } else {
        per_phase!(|a| {
            let r = k.gamma[a][0] * v[0];
            let r = k.gamma[a][1].mul_add(v[1], r);
            let r = k.gamma[a][2].mul_add(v[2], r);
            k.gamma[a][3].mul_add(v[3], r)
        })
    }
}

/// [`face_flux_v`] for four cell pairs (lanes = cells, one vector per
/// phase).
#[inline(always)]
fn face4<V: SimdF64x4, const UG: bool>(
    k: &Sweep<V>,
    l: &[V; N_PHASES],
    r: &[V; N_PHASES],
) -> [V; N_PHASES] {
    let half = V::splat(0.5);
    let pf: [V; N_PHASES] = per_phase!(|a| (l[a] + r[a]) * half);
    let g: [V; N_PHASES] = per_phase!(|a| (r[a] - l[a]) * k.inv_dx);
    let s1 = gamma4::<V, UG>(k, &per_phase!(|a| pf[a] * g[a]));
    let s2 = gamma4::<V, UG>(k, &per_phase!(|a| pf[a] * pf[a]));
    per_phase!(|a| (pf[a] * s1[a] - g[a] * s2[a]) * V::splat(-2.0))
}

/// Faces between the cells at `i − off` and `i` for the `n` cells of a
/// window (the staggered-buffer prefill).
#[inline(always)]
fn low_face4<V: SimdF64x4, const UG: bool>(
    k: &Sweep<V>,
    i: usize,
    off: usize,
    n: usize,
) -> [V; N_PHASES] {
    let ps = &k.ps;
    if n == 4 {
        face4::<V, UG>(k, &load_cells4(ps, i - off), &load_cells4(ps, i))
    } else {
        let l = load_cells_n::<V, false>(ps, i - off, n);
        face4::<V, UG>(k, &l, &load_cells_n::<V, false>(ps, i, n))
    }
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
    let inv_dx_s = 1.0 / params.dx;
    let origin_z = state.origin[2] as isize;
    let table = if TZ {
        Some(SliceTable::build(params, origin_z, dims.tz(), g, time))
    } else {
        None
    };

    let BlockState {
        phi_src,
        mu_src,
        phi_dst,
        ..
    } = state;
    let k = Sweep {
        ps: phi_src.comps(),
        ms: mu_src.comps(),
        recomputed: RecomputedSlices {
            params,
            origin_z,
            ghost: g,
            time,
        },
        gamma: per_phase!(|a| per_phase!(|b| V::splat(params.gamma[a][b]))),
        gu: V::splat(params.gamma[0][1]),
        inv_dx: V::splat(inv_dx_s),
        inv_2dx: V::splat(0.5 * inv_dx_s),
        rate: V::splat(params.dt / (params.tau * params.eps)),
        lane0: V::from_array([1.0, 0.0, 0.0, 0.0]).gt(V::zero()),
        sy: dims.sy(),
        sz: dims.sz(),
    };
    // Cut off at the slab bound: whatever `φ_dst` is known to hold above
    // (`kernels::phi_sweep_prepare`) is out of this sweep's reach.
    let mut pd = phi_dst.comps_mut_below(z1);

    // Windows of four x-cells from the row start; the last one of a row
    // holds the `nx % 4` remaining cells when that is not zero.
    let ngx = nx.div_ceil(4);
    // Staggered face buffers, one entry per window (lanes = cells).
    let mut zbuf = vec![[V::zero(); N_PHASES]; if STAG { ngx * ny } else { 0 }];
    let mut ybuf = vec![[V::zero(); N_PHASES]; if STAG { ngx } else { 0 }];
    let (mut no_y, mut no_z) = ([V::zero(); N_PHASES], [V::zero(); N_PHASES]);

    if STAG && z0 < z1 {
        for y in 0..ny {
            for w in 0..ngx {
                let i = dims.idx(g + 4 * w, y + g, z0);
                zbuf[y * ngx + w] = low_face4::<V, UG>(&k, i, k.sz, (nx - 4 * w).min(4));
            }
        }
    }

    let untabulated = k.recomputed.cell(g); // never read
    for z in z0..z1 {
        let ctx_z = if TZ {
            &table.as_ref().unwrap().cell[z]
        } else {
            &untabulated
        };
        if STAG {
            for (w, yb) in ybuf.iter_mut().enumerate() {
                let i = dims.idx(g + 4 * w, g, z);
                *yb = low_face4::<V, UG>(&k, i, k.sy, (nx - 4 * w).min(4));
            }
        }
        for y in g..g + ny {
            let row = dims.idx(g, y, z);
            let mut carry = [V::zero(); N_PHASES];
            for w in 0..ngx {
                let (yb, zb) = if STAG {
                    (&mut ybuf[w], &mut zbuf[(y - g) * ngx + w])
                } else {
                    (&mut no_y, &mut no_z)
                };
                let win = Window {
                    i: row + 4 * w,
                    n: (nx - 4 * w).min(4),
                    row_start: w == 0,
                    z,
                };
                let bufs = (&mut carry, yb, zb);
                if win.n == 4 {
                    window::<V, UG, TZ, STAG, SC, true>(&k, ctx_z, &mut pd, win, bufs);
                } else {
                    window::<V, UG, TZ, STAG, SC, false>(&k, ctx_z, &mut pd, win, bufs);
                }
            }
        }
    }
}

/// Where a window of the cellwise sweep sits.
#[derive(Copy, Clone)]
struct Window {
    /// Linear index of its first cell.
    i: usize,
    /// Cells of the row in it (1..=4); lanes `n..` repeat the last one.
    n: usize,
    /// First window of its row: its left x-face is computed, not carried.
    row_start: bool,
    /// Total z of its slice.
    z: usize,
}

/// One window of the cellwise sweep: four x-cells, lanes = cells, each lane
/// the op sequence of the lanes-per-phase cell update. `FULL` windows load
/// and store contiguously; the row's partial last window (`FULL = false`)
/// reads its lanes past the row as copies of the last cell and stores only
/// its `n` cells. `(carry, yb, zb)` are the staggered face buffers: the
/// carry's lane 0 is the x-face left of lane 0, `yb` / `zb` the faces below
/// in y / z; the window leaves its own high faces there, zero in bulk lanes.
#[inline(always)]
fn window<
    V: SimdF64x4,
    const UG: bool,
    const TZ: bool,
    const STAG: bool,
    const SC: bool,
    const FULL: bool,
>(
    k: &Sweep<V>,
    ctx_z: &SliceCtx,
    pd: &mut [&mut [f64]; N_PHASES],
    win: Window,
    (carry, yb, zb): (&mut [V; N_PHASES], &mut [V; N_PHASES], &mut [V; N_PHASES]),
) {
    let Window { i, n, row_start, z } = win;
    let (ps, sy, sz) = (&k.ps, k.sy, k.sz);
    let zero = V::zero();
    let one = V::splat(1.0);
    let two = V::splat(2.0);
    let pc = load_cells_n::<V, FULL>(ps, i, n);
    let xm = load_cells_n::<V, FULL>(ps, i - 1, n);
    let xp = load_cells_n::<V, FULL>(ps, i + 1, n);
    let ym = load_cells_n::<V, FULL>(ps, i - sy, n);
    let yp = load_cells_n::<V, FULL>(ps, i + sy, n);
    let zm = load_cells_n::<V, FULL>(ps, i - sz, n);
    let zp = load_cells_n::<V, FULL>(ps, i + sz, n);

    // Cells with a pure phase, and (shortcuts) the bulk cells among them:
    // all six neighbours equal the cell, so ∂φ/∂t = 0 and φ_src is stored.
    let pure = pc[0]
        .ge(one)
        .or(pc[1].ge(one))
        .or(pc[2].ge(one))
        .or(pc[3].ge(one));
    let bulk = if SC {
        pure.and(cells_eq_mask(&xm, &pc))
            .and(cells_eq_mask(&xp, &pc))
            .and(cells_eq_mask(&ym, &pc))
            .and(cells_eq_mask(&yp, &pc))
            .and(cells_eq_mask(&zm, &pc))
            .and(cells_eq_mask(&zp, &pc))
    } else {
        pure // never read without shortcuts
    };
    if SC && bulk.all() {
        for a in 0..N_PHASES {
            store_lanes_n::<V, FULL>(pc[a], pd[a], i, n);
        }
        if STAG {
            *carry = [zero; N_PHASES];
            *yb = [zero; N_PHASES];
            *zb = [zero; N_PHASES];
        }
        return;
    }

    let fresh;
    let ctx = if TZ {
        ctx_z
    } else {
        // Rebuilt once per cell, as the rungs below T(z) do.
        let mut c = k.recomputed.cell(z);
        for _ in 1..n {
            c = std::hint::black_box(k.recomputed.cell(z));
        }
        fresh = c;
        &fresh
    };

    let f_xh = face4::<V, UG>(k, &pc, &xp);
    let f_yh = face4::<V, UG>(k, &pc, &yp);
    let f_zh = face4::<V, UG>(k, &pc, &zp);
    let (f_xl, f_yl, f_zl) = if STAG {
        // A bulk cell leaves +0 faces, as the all-bulk early-out does.
        // Computed, they would be ±0 (faces between equal cells), and the
        // sign of a zero face never reaches φ_dst; zeroing keeps the
        // buffers independent of which path a cell took. Lane j's left
        // x-face is lane j − 1's right one, lane 0's comes from the carry.
        let kept: [[V; N_PHASES]; 3] = if SC {
            [
                per_phase!(|a| bulk.select(zero, f_xh[a])),
                per_phase!(|a| bulk.select(zero, f_yh[a])),
                per_phase!(|a| bulk.select(zero, f_zh[a])),
            ]
        } else {
            [f_xh, f_yh, f_zh]
        };
        let left = if row_start {
            face4::<V, UG>(k, &xm, &pc)
        } else {
            *carry
        };
        let shifted: [V; N_PHASES] = per_phase!(|a| kept[0][a].permute::<3, 0, 1, 2>());
        let f_xl: [V; N_PHASES] = per_phase!(|a| k.lane0.select(left[a], shifted[a]));
        let low = (f_xl, *yb, *zb);
        *carry = shifted;
        *yb = kept[1];
        *zb = kept[2];
        low
    } else {
        (
            face4::<V, UG>(k, &xm, &pc),
            face4::<V, UG>(k, &ym, &pc),
            face4::<V, UG>(k, &zm, &pc),
        )
    };

    // Central gradients, one vector per phase.
    let gx: [V; N_PHASES] = per_phase!(|a| (xp[a] - xm[a]) * k.inv_2dx);
    let gy: [V; N_PHASES] = per_phase!(|a| (yp[a] - ym[a]) * k.inv_2dx);
    let gz: [V; N_PHASES] = per_phase!(|a| (zp[a] - zm[a]) * k.inv_2dx);

    // ∂a/∂φ = 2[φ (Γ m) − Σ_axis g_axis (Γ (φ g_axis))].
    let m: [V; N_PHASES] =
        per_phase!(|a| gx[a].mul_add(gx[a], gy[a].mul_add(gy[a], gz[a] * gz[a])));
    let gm = gamma4::<V, UG>(k, &m);
    let tx = gamma4::<V, UG>(k, &per_phase!(|a| pc[a] * gx[a]));
    let ty = gamma4::<V, UG>(k, &per_phase!(|a| pc[a] * gy[a]));
    let tz = gamma4::<V, UG>(k, &per_phase!(|a| pc[a] * gz[a]));
    let obst = gamma4::<V, UG>(k, &pc);

    // Driving force, zero in pure cells with shortcuts.
    let drive: [V; N_PHASES] = if SC && pure.all() {
        [zero; N_PHASES]
    } else {
        let phi2: [V; N_PHASES] = per_phase!(|a| pc[a] * pc[a]);
        let inv_s = one / hsum4(&phi2);
        let mu0 = load_lanes_n::<V, FULL>(k.ms[0], i, n);
        let mu1 = load_lanes_n::<V, FULL>(k.ms[1], i, n);
        let psi: [V; N_PHASES] = per_phase!(|a| -(mu0 * mu0 * V::splat(ctx.inv4k[a][0])
            + mu1 * mu1 * V::splat(ctx.inv4k[a][1]))
            - (mu0 * V::splat(ctx.c_eq[a][0]) + mu1 * V::splat(ctx.c_eq[a][1]))
            + V::splat(ctx.offset[a]));
        let psi_bar = hsum4(&per_phase!(|a| phi2[a] * psi[a])) * inv_s;
        per_phase!(|a| {
            let d = two * pc[a] * inv_s * (psi[a] - psi_bar);
            if SC {
                pure.select(zero, d)
            } else {
                d
            }
        })
    };

    let pref_grad = V::splat(ctx.pref_grad);
    let pref_obst = V::splat(ctx.pref_obst);
    let vdf: [V; N_PHASES] = per_phase!(|a| {
        let t2 = gx[a] * tx[a] + gy[a] * ty[a] + gz[a] * tz[a];
        let da = (pc[a] * gm[a] - t2) * two;
        let div = (f_xh[a] - f_xl[a] + f_yh[a] - f_yl[a] + f_zh[a] - f_zl[a]) * k.inv_dx;
        pref_grad * (da - div) + pref_obst * obst[a] + drive[a]
    });
    let mean = hsum4(&vdf) * V::splat(0.25);
    let out = simplex_project_lanes(per_phase!(|a| pc[a] - k.rate * (vdf[a] - mean)));
    for a in 0..N_PHASES {
        let v = if SC {
            bulk.select(pc[a], out[a])
        } else {
            out[a]
        };
        store_lanes_n::<V, FULL>(v, pd[a], i, n);
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
