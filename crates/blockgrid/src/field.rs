//! Ghost-layered fields in SoA and AoS layouts.
//!
//! The paper stores the φ-field in a structure-of-arrays (SoA) layout because
//! the four-cell-vectorized µ-kernel must load phase values of 38 cells,
//! while the cellwise-vectorized φ-kernel would prefer array-of-structures
//! (AoS) "to be able to load a SIMD vector directly from contiguous memory"
//! (Sec. 5.1.1). Both layouts are provided so the layout ablation can be
//! benchmarked; the solver uses SoA like the paper.

use crate::GridDims;
use serde::{Deserialize, Serialize};

/// Multi-component field in structure-of-arrays layout: component `c` is one
/// contiguous block of `dims.volume()` doubles.
///
/// # Constant-slab summary
///
/// The field carries a conservative two-word summary of its own contents:
/// *every cell, ghosts included, of the z-slabs `const_from..tz` holds
/// bitwise `const_val`* (`const_from == tz`: nothing known). The far-field
/// melt of a directional-solidification block is such a zone, and sweeps,
/// boundary fills and scans that know it need not touch those slabs. The
/// summary is kept true by the field itself, never by its callers: every
/// mutator below states its effect on it, [`SoaField::tighten`] is the only
/// way the zone grows, and the one region writer of [`crate::ghost`] (same
/// crate), which the boundary fills of [`crate::boundary`] run on too,
/// maintains it through `SoaField::raw_and_zone`.
#[derive(Debug, Serialize, Deserialize)]
pub struct SoaField<const NC: usize> {
    dims: GridDims,
    data: Vec<f64>,
    const_from: usize,
    const_val: [f64; NC],
}

/// Whether every value of `slab` has the bit pattern `bits`. Folds whole
/// chunks (vectorizable) and leaves at the first chunk that differs.
fn all_bits(slab: &[f64], bits: u64) -> bool {
    slab.chunks(64)
        .all(|chunk| chunk.iter().fold(0, |acc, v| acc | (v.to_bits() ^ bits)) == 0)
}

/// Bitwise equality of two cells (`-0.0 != 0.0`, a NaN equals itself).
pub(crate) fn same_bits<const NC: usize>(a: [f64; NC], b: [f64; NC]) -> bool {
    a.map(f64::to_bits) == b.map(f64::to_bits)
}

impl<const NC: usize> Clone for SoaField<NC> {
    fn clone(&self) -> Self {
        Self {
            dims: self.dims,
            data: self.data.clone(),
            const_from: self.const_from,
            const_val: self.const_val,
        }
    }

    /// Copy `source` into this field's own buffer: no allocation when the
    /// buffer already holds `source`'s volume (the src → dst sync of a
    /// block). When this field's constant zone has `source`'s value and
    /// reaches at least as low, the slabs of `source`'s zone hold what they
    /// would receive already and only the slabs below it are copied.
    fn clone_from(&mut self, source: &Self) {
        let zone_held = self.dims == source.dims
            && self.const_from <= source.const_from
            && same_bits(self.const_val, source.const_val);
        if zone_held {
            let (vol, end) = (self.dims.volume(), source.const_from * self.dims.sz());
            for c in 0..NC {
                let below = c * vol..c * vol + end;
                self.data[below.clone()].copy_from_slice(&source.data[below]);
            }
        } else {
            self.dims = source.dims;
            self.data.clone_from(&source.data);
        }
        self.const_from = source.const_from;
        self.const_val = source.const_val;
    }
}

impl<const NC: usize> SoaField<NC> {
    /// Allocate with every component of every cell set to `init[c]`. The
    /// whole field is one constant zone. A component whose value is `+0.0`
    /// is not written: the allocation is zeroed already, so its pages stay
    /// untouched until something else writes them.
    pub fn new(dims: GridDims, init: [f64; NC]) -> Self {
        let vol = dims.volume();
        let mut data = vec![0.0; NC * vol];
        for (c, chunk) in data.chunks_exact_mut(vol).enumerate() {
            if init[c].to_bits() != 0 {
                chunk.fill(init[c]);
            }
        }
        Self {
            dims,
            data,
            const_from: 0,
            const_val: init,
        }
    }

    /// Wrap `data` (component-major, `NC * dims.volume()` values) without
    /// copying it. Nothing is known about its contents: the constant zone is
    /// empty until [`SoaField::tighten`] finds one.
    pub fn from_raw(dims: GridDims, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), NC * dims.volume(), "field data length");
        Self {
            dims,
            data,
            const_from: dims.tz(),
            const_val: [0.0; NC],
        }
    }

    /// The constant-slab summary `(const_from, const_val)`: every cell of
    /// the z-slabs `const_from..tz`, ghosts included, holds bitwise
    /// `const_val`. Conservative — slabs below may be constant too (see
    /// [`SoaField::tighten`]).
    #[inline(always)]
    pub fn const_zone(&self) -> (usize, [f64; NC]) {
        (self.const_from, self.const_val)
    }

    /// Extend the constant zone downward while whole padded slabs compare
    /// bitwise equal to it; with nothing known, start from the value of the
    /// topmost cell. Costs one pass over the slabs gained plus the start of
    /// the first slab that differs.
    pub fn tighten(&mut self) {
        let vol = self.dims.volume();
        if self.const_from == self.dims.tz() {
            self.const_val = core::array::from_fn(|c| self.data[(c + 1) * vol - 1]);
        }
        while self.const_from > 0 && self.slab_is_const(self.const_from - 1) {
            self.const_from -= 1;
        }
    }

    fn slab_is_const(&self, z: usize) -> bool {
        let (sz, vol) = (self.dims.sz(), self.dims.volume());
        (0..NC).all(|c| {
            let start = c * vol + z * sz;
            all_bits(&self.data[start..start + sz], self.const_val[c].to_bits())
        })
    }

    /// Full-scan check of the summary invariant (debug assertions, tests).
    pub fn summary_holds(&self) -> bool {
        (self.const_from..self.dims.tz()).all(|z| self.slab_is_const(z))
    }

    /// Make the constant zone cover the slabs `z..tz` with value `v`,
    /// writing only the slabs that do not hold it already (none, if the
    /// zone has that value and reaches down to `z`).
    pub fn extend_const_zone(&mut self, z: usize, v: [f64; NC]) {
        let (sz, vol, tz) = (self.dims.sz(), self.dims.volume(), self.dims.tz());
        assert!(z <= tz, "constant zone starts above the field");
        let held_from = if same_bits(v, self.const_val) {
            self.const_from
        } else {
            tz
        };
        if z < held_from {
            for c in 0..NC {
                self.data[c * vol + z * sz..c * vol + held_from * sz].fill(v[c]);
            }
            self.const_from = z;
            self.const_val = v;
        }
    }

    /// Raw storage together with the summary, for the region writer of
    /// [`crate::ghost`]: whoever writes a row of a slab `z >= *const_from` must
    /// either leave it bitwise equal to `const_val` or raise `*const_from`
    /// above `z`.
    #[inline(always)]
    pub(crate) fn raw_and_zone(&mut self) -> (&mut [f64], &mut usize, [f64; NC]) {
        (&mut self.data, &mut self.const_from, self.const_val)
    }

    /// "Anything may be written": the summary drops to nothing known. The
    /// store is conditional so that concurrent callers who find it dropped
    /// already (sweep-pool workers, after their coordinator) only read.
    #[inline(always)]
    fn forget_zone(&mut self) {
        let tz = self.dims.tz();
        if self.const_from != tz {
            self.const_from = tz;
        }
    }

    /// Grid geometry.
    #[inline(always)]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Immutable slice of component `c`.
    #[inline(always)]
    pub fn comp(&self, c: usize) -> &[f64] {
        let vol = self.dims.volume();
        &self.data[c * vol..(c + 1) * vol]
    }

    /// Mutable slice of component `c`. Drops the constant-slab summary.
    #[inline(always)]
    pub fn comp_mut(&mut self, c: usize) -> &mut [f64] {
        self.forget_zone();
        let vol = self.dims.volume();
        &mut self.data[c * vol..(c + 1) * vol]
    }

    /// All components as an array of immutable slices.
    #[inline(always)]
    pub fn comps(&self) -> [&[f64]; NC] {
        let vol = self.dims.volume();
        let mut rest: &[f64] = &self.data;
        let mut out = [&[] as &[f64]; NC];
        for o in out.iter_mut() {
            let (head, tail) = rest.split_at(vol);
            *o = head;
            rest = tail;
        }
        out
    }

    /// All components as an array of mutable slices. Drops the
    /// constant-slab summary.
    #[inline(always)]
    pub fn comps_mut(&mut self) -> [&mut [f64]; NC] {
        self.comps_mut_below(self.dims.tz())
    }

    /// All components as mutable slices cut off at the start of slab `z1`:
    /// "I may write anything below slab `z1`". Slabs from `z1` up are out
    /// of the caller's reach, so the constant zone keeps what it holds
    /// there; with `z1 <= const_from` the summary is not written at all
    /// (a sweep's slab workers share the field under that condition).
    #[inline(always)]
    pub fn comps_mut_below(&mut self, z1: usize) -> [&mut [f64]; NC] {
        assert!(z1 <= self.dims.tz(), "slab bound above the field");
        if z1 > self.const_from {
            self.const_from = z1;
        }
        let (vol, end) = (self.dims.volume(), z1 * self.dims.sz());
        let mut iter = self.data.chunks_exact_mut(vol);
        core::array::from_fn(|_| &mut iter.next().expect("component count")[..end])
    }

    /// Value of component `c` at total coordinates.
    #[inline(always)]
    pub fn at(&self, c: usize, x: usize, y: usize, z: usize) -> f64 {
        self.comp(c)[self.dims.idx(x, y, z)]
    }

    /// All components at total coordinates.
    #[inline(always)]
    pub fn cell(&self, x: usize, y: usize, z: usize) -> [f64; NC] {
        let i = self.dims.idx(x, y, z);
        let vol = self.dims.volume();
        core::array::from_fn(|c| self.data[c * vol + i])
    }

    /// Set component `c` at total coordinates. A value that differs from
    /// the constant zone's cuts the zone off above slab `z`.
    #[inline(always)]
    pub fn set(&mut self, c: usize, x: usize, y: usize, z: usize, v: f64) {
        let i = self.dims.idx(x, y, z);
        self.data[c * self.dims.volume() + i] = v;
        if z >= self.const_from && v.to_bits() != self.const_val[c].to_bits() {
            self.const_from = z + 1;
        }
    }

    /// Set all components at total coordinates. A cell that differs from
    /// the constant zone's cuts the zone off above slab `z`.
    #[inline(always)]
    pub fn set_cell(&mut self, x: usize, y: usize, z: usize, v: [f64; NC]) {
        let i = self.dims.idx(x, y, z);
        let vol = self.dims.volume();
        for c in 0..NC {
            self.data[c * vol + i] = v[c];
        }
        if z >= self.const_from && !same_bits(v, self.const_val) {
            self.const_from = z + 1;
        }
    }

    /// Raw backing storage (all components concatenated).
    #[inline(always)]
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw backing storage. Drops the constant-slab summary.
    #[inline(always)]
    pub fn raw_mut(&mut self) -> &mut [f64] {
        self.forget_zone();
        &mut self.data
    }

    /// Swap contents with another field of identical geometry (the paper's
    /// src/dst pointer swap at the end of each time step). The summaries
    /// travel with the data.
    pub fn swap(&mut self, other: &mut Self) {
        assert_eq!(self.dims, other.dims);
        core::mem::swap(self, other);
    }

    /// Shift all interior data one cell towards −z and fill the topmost
    /// interior slice with `fill` (the moving-window advance; ghost layers
    /// are left stale and must be refreshed by communication + boundary
    /// handling afterwards). A constant zone that reaches into the interior
    /// moves down with the data when `fill` continues it, and is cut back
    /// to the top ghost slabs when it does not. Slabs in the zone hold what
    /// they would receive already: only the slabs below it move, and the
    /// top slice is not written when it is in the zone and `fill` continues
    /// it.
    pub fn shift_z_down(&mut self, fill: [f64; NC]) {
        let d = self.dims;
        let g = d.ghost;
        let sz = d.sz();
        let vol = d.volume();
        let top = g + d.nz - 1;
        let moved_to = top.min(self.const_from);
        let fill_held = self.const_from <= top && same_bits(fill, self.const_val);
        for c in 0..NC {
            let comp = &mut self.data[c * vol..(c + 1) * vol];
            if moved_to > g {
                comp.copy_within((g + 1) * sz..(moved_to + 1) * sz, g * sz);
            }
            if !fill_held {
                // Fill only the interior cells of the top slice.
                for y in g..g + d.ny {
                    let row = top * sz + y * d.sy() + g;
                    comp[row..row + d.nx].fill(fill[c]);
                }
            }
        }
        // Whole padded slabs moved down one; the top interior slab kept its
        // own xy-ghosts and got `fill` inside; slabs outside the interior
        // did not move.
        if self.const_from <= top {
            if !same_bits(fill, self.const_val) {
                self.const_from = top + 1;
            } else if self.const_from > g {
                self.const_from -= 1;
            }
        }
    }

    /// Convert to an AoS copy (for the layout ablation benchmark).
    pub fn to_aos(&self) -> AosField<NC> {
        let mut out = AosField::new(self.dims, [0.0; NC]);
        for i in 0..self.dims.volume() {
            for c in 0..NC {
                out.data[i * NC + c] = self.comp(c)[i];
            }
        }
        out
    }
}

/// Multi-component field in array-of-structures layout: the `NC` components
/// of one cell are adjacent in memory, so a whole cell loads as one vector.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AosField<const NC: usize> {
    dims: GridDims,
    data: Vec<f64>,
}

impl<const NC: usize> AosField<NC> {
    /// Allocate with every cell set to `init`.
    pub(crate) fn new(dims: GridDims, init: [f64; NC]) -> Self {
        let vol = dims.volume();
        let mut data = Vec::with_capacity(NC * vol);
        for _ in 0..vol {
            data.extend_from_slice(&init);
        }
        Self { dims, data }
    }

    /// Grid geometry.
    #[inline(always)]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// All components at total coordinates.
    #[cfg(test)]
    #[inline(always)]
    pub(crate) fn cell(&self, x: usize, y: usize, z: usize) -> [f64; NC] {
        let i = self.dims.idx(x, y, z) * NC;
        core::array::from_fn(|c| self.data[i + c])
    }

    /// Raw storage; cell `i`'s components live at `[i*NC, (i+1)*NC)`.
    #[inline(always)]
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Convert to a SoA copy.
    pub fn to_soa(&self) -> SoaField<NC> {
        let mut out = SoaField::new(self.dims, [0.0; NC]);
        for i in 0..self.dims.volume() {
            for c in 0..NC {
                out.comp_mut(c)[i] = self.data[i * NC + c];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_component_slices_are_disjoint_and_ordered() {
        let d = GridDims::cube(2);
        let mut f = SoaField::<3>::new(d, [1.0, 2.0, 3.0]);
        assert!(f.comp(0).iter().all(|&v| v == 1.0));
        assert!(f.comp(2).iter().all(|&v| v == 3.0));
        f.set(1, 0, 0, 0, 9.0);
        assert_eq!(f.at(1, 0, 0, 0), 9.0);
        assert_eq!(f.at(0, 0, 0, 0), 1.0);
        let [a, b, c] = f.comps();
        assert_eq!(a.len(), d.volume());
        assert_eq!(b[0], 9.0);
        assert_eq!(c.len(), d.volume());
    }

    #[test]
    fn cell_get_set_roundtrip() {
        let d = GridDims::new(3, 2, 2, 1);
        let mut f = SoaField::<4>::new(d, [0.0; 4]);
        f.set_cell(2, 1, 1, [0.1, 0.2, 0.3, 0.4]);
        assert_eq!(f.cell(2, 1, 1), [0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn soa_aos_roundtrip() {
        let d = GridDims::new(3, 4, 2, 1);
        let mut f = SoaField::<2>::new(d, [0.0; 2]);
        for i in 0..d.volume() {
            f.comp_mut(0)[i] = i as f64;
            f.comp_mut(1)[i] = -(i as f64);
        }
        let aos = f.to_aos();
        let back = aos.to_soa();
        assert_eq!(f.comp(0), back.comp(0));
        assert_eq!(f.comp(1), back.comp(1));
        let (x, y, z) = (1, 2, 1);
        assert_eq!(f.cell(x, y, z), aos.cell(x, y, z));
    }

    /// Bitwise equality of data and summary.
    fn identical<const NC: usize>(a: &SoaField<NC>, b: &SoaField<NC>) -> bool {
        let bits = |f: &SoaField<NC>| f.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        a.dims == b.dims
            && bits(a) == bits(b)
            && a.const_from == b.const_from
            && same_bits(a.const_val, b.const_val)
    }

    #[test]
    fn clone_from_copies_in_place_and_matches_clone() {
        let d = GridDims::new(3, 2, 4, 1);
        let mut src = SoaField::<2>::new(d, [0.5, -0.0]);
        src.set_cell(2, 1, 2, [f64::NAN, 7.0]);
        let (from, val) = src.const_zone();
        assert!((1..d.tz()).contains(&from), "a partial zone: {from}");

        // Equal dims: the buffer is reused, the summary copied.
        let mut dst = SoaField::<2>::new(d, [9.0, 9.0]);
        let ptr = dst.raw().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst.raw().as_ptr(), ptr, "buffer reallocated");
        assert_eq!(dst.const_zone().0, from);
        assert!(same_bits(dst.const_zone().1, val));
        assert!(identical(&dst, &src.clone()));

        // Different dims: the copy takes the source's size and geometry.
        for other in [GridDims::cube(1), GridDims::new(5, 4, 6, 1)] {
            let mut dst = SoaField::<2>::new(other, [1.0, 1.0]);
            dst.clone_from(&src);
            assert_eq!(dst.raw().len(), src.raw().len());
            assert!(identical(&dst, &src.clone()));
            assert!(dst.summary_holds());
        }
    }

    #[test]
    fn swap_exchanges_contents() {
        let d = GridDims::cube(2);
        let mut a = SoaField::<1>::new(d, [1.0]);
        let mut b = SoaField::<1>::new(d, [2.0]);
        a.swap(&mut b);
        assert_eq!(a.at(0, 1, 1, 1), 2.0);
        assert_eq!(b.at(0, 1, 1, 1), 1.0);
    }

    #[test]
    fn shift_z_down_moves_slices_and_fills_top() {
        let d = GridDims::new(2, 2, 3, 1);
        let mut f = SoaField::<1>::new(d, [0.0]);
        // Mark each interior slice with its z index.
        for (x, y, z) in d.interior_iter() {
            f.set(0, x, y, z, z as f64);
        }
        f.shift_z_down([99.0]);
        let g = d.ghost;
        for y in g..g + d.ny {
            for x in g..g + d.nx {
                assert_eq!(f.at(0, x, y, g), (g + 1) as f64);
                assert_eq!(f.at(0, x, y, g + 1), (g + 2) as f64);
                assert_eq!(f.at(0, x, y, g + 2), 99.0);
            }
        }
    }
}
