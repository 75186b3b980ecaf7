//! Block-structured grid framework — the waLBerla substrate.
//!
//! The SC'15 paper implements its phase-field solver inside waLBerla, which
//! "partitions the simulation domain into equally sized chunks, called
//! blocks. On each block, a regular grid is allocated, extended by one or
//! more ghost layers for communication" (Sec. 3.1). This crate reproduces
//! that substrate:
//!
//! * [`GridDims`] — regular grid geometry with ghost layers and linearized
//!   indexing (x fastest, z slowest, matching the paper's loop nest where z
//!   is outermost so temperature-dependent terms amortize per slice);
//! * [`field::SoaField`], [`field::AosField`] — ghost-layered fields in
//!   structure-of-arrays and array-of-structures layouts (the paper
//!   benchmarks both for the φ-field, Sec. 5.1.1);
//! * [`boundary`] — Dirichlet, Neumann and periodic boundary handling on
//!   physical domain faces (Fig. 2);
//! * [`ghost`] — face pack/unpack for ghost-layer exchange. Exchanging the
//!   six faces in x → y → z order with widening transverse extents fills
//!   edge and corner ghosts too, which the D3C19 stencil of the µ-sweep
//!   requires;
//! * [`decomp`] — static domain decomposition into equally sized blocks with
//!   face-neighbor topology and block-to-process assignment. As in waLBerla,
//!   "the data structure storing the blocks is fully distributed: every
//!   process holds information only about local and adjacent blocks".

// Index-based loops deliberately mirror the paper's stencil formulations;
// iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

pub mod balance;
pub mod boundary;
pub mod codec;
pub mod decomp;
pub mod field;
pub mod ghost;
pub mod rebalance;

use serde::{Deserialize, Serialize};

/// Geometry of one block's regular grid: interior extent plus ghost width.
///
/// Coordinates used throughout are *total* coordinates in `[0, n + 2g)`;
/// the interior occupies `[g, g + n)` per axis. Linearized with x fastest.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridDims {
    /// Interior cells in x.
    pub nx: usize,
    /// Interior cells in y.
    pub ny: usize,
    /// Interior cells in z.
    pub nz: usize,
    /// Ghost-layer width (1 suffices for the D3C7/D3C19 stencils here).
    pub ghost: usize,
}

impl GridDims {
    /// New grid geometry.
    pub fn new(nx: usize, ny: usize, nz: usize, ghost: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "empty grid");
        Self { nx, ny, nz, ghost }
    }

    /// Cubic block of edge `n` with ghost width 1 (the common case).
    pub fn cube(n: usize) -> Self {
        Self::new(n, n, n, 1)
    }

    /// Total extent in x including ghosts.
    #[inline(always)]
    pub fn tx(&self) -> usize {
        self.nx + 2 * self.ghost
    }

    /// Total extent in y including ghosts.
    #[inline(always)]
    pub fn ty(&self) -> usize {
        self.ny + 2 * self.ghost
    }

    /// Total extent in z including ghosts.
    #[inline(always)]
    pub fn tz(&self) -> usize {
        self.nz + 2 * self.ghost
    }

    /// Total number of cells including ghosts.
    #[inline(always)]
    pub fn volume(&self) -> usize {
        self.tx() * self.ty() * self.tz()
    }

    /// Number of interior cells.
    #[inline(always)]
    pub fn interior_volume(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Interior z extent in total (ghost-inclusive) coordinates:
    /// `[ghost, ghost + nz)`. Sweep kernels take sub-ranges of this for
    /// z-slab work-sharing.
    #[inline(always)]
    pub fn interior_z_range(&self) -> (usize, usize) {
        (self.ghost, self.ghost + self.nz)
    }

    /// Stride between consecutive y rows.
    #[inline(always)]
    pub fn sy(&self) -> usize {
        self.tx()
    }

    /// Stride between consecutive z slices.
    #[inline(always)]
    pub fn sz(&self) -> usize {
        self.tx() * self.ty()
    }

    /// Linear index of total coordinates (x, y, z).
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.tx() && y < self.ty() && z < self.tz());
        (z * self.ty() + y) * self.tx() + x
    }

    /// Iterate over all interior total-coordinate triples, z-outermost.
    pub fn interior_iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let g = self.ghost;
        (g..g + self.nz).flat_map(move |z| {
            (g..g + self.ny).flat_map(move |y| (g..g + self.nx).map(move |x| (x, y, z)))
        })
    }

    /// Inverse of [`Self::idx`]: total coordinates of a linear index.
    #[inline]
    pub fn coords(&self, i: usize) -> (usize, usize, usize) {
        let x = i % self.tx();
        let y = (i / self.tx()) % self.ty();
        let z = i / (self.tx() * self.ty());
        (x, y, z)
    }
}

/// The six faces of a block, in the fixed exchange order x → y → z.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum Face {
    /// −x face.
    XLow = 0,
    /// +x face.
    XHigh = 1,
    /// −y face.
    YLow = 2,
    /// +y face.
    YHigh = 3,
    /// −z face.
    ZLow = 4,
    /// +z face.
    ZHigh = 5,
}

impl Face {
    /// All faces in exchange order.
    pub const ALL: [Face; 6] = [
        Face::XLow,
        Face::XHigh,
        Face::YLow,
        Face::YHigh,
        Face::ZLow,
        Face::ZHigh,
    ];

    /// Axis of this face (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn axis(self) -> usize {
        (self as usize) / 2
    }

    /// True for the +side face of its axis.
    #[inline]
    pub fn is_high(self) -> bool {
        (self as usize) % 2 == 1
    }

    /// The opposite face.
    #[inline]
    pub fn opposite(self) -> Face {
        Face::ALL[(self as usize) ^ 1]
    }

    /// Unit offset of the neighboring block in block coordinates.
    #[inline]
    pub fn offset(self) -> [isize; 3] {
        let mut o = [0isize; 3];
        o[self.axis()] = if self.is_high() { 1 } else { -1 };
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_and_strides() {
        let d = GridDims::new(4, 5, 6, 1);
        assert_eq!(d.tx(), 6);
        assert_eq!(d.ty(), 7);
        assert_eq!(d.tz(), 8);
        assert_eq!(d.volume(), 6 * 7 * 8);
        assert_eq!(d.interior_volume(), 120);
        assert_eq!(d.idx(0, 0, 0), 0);
        assert_eq!(d.idx(1, 0, 0), 1);
        assert_eq!(d.idx(0, 1, 0), d.sy());
        assert_eq!(d.idx(0, 0, 1), d.sz());
    }

    #[test]
    fn idx_coords_roundtrip() {
        let d = GridDims::new(3, 4, 5, 2);
        for i in 0..d.volume() {
            let (x, y, z) = d.coords(i);
            assert_eq!(d.idx(x, y, z), i);
        }
    }

    #[test]
    fn interior_iter_covers_interior_exactly() {
        let d = GridDims::cube(3);
        let cells: Vec<_> = d.interior_iter().collect();
        assert_eq!(cells.len(), 27);
        assert!(cells.iter().all(|&(x, y, z)| {
            (1..4).contains(&x) && (1..4).contains(&y) && (1..4).contains(&z)
        }));
        // z must be outermost (paper's loop order for the T(z) optimization).
        assert_eq!(cells[0], (1, 1, 1));
        assert_eq!(cells[1], (2, 1, 1));
        assert_eq!(cells[3], (1, 2, 1));
        assert_eq!(cells[9], (1, 1, 2));
    }

    #[test]
    fn faces() {
        assert_eq!(Face::XLow.opposite(), Face::XHigh);
        assert_eq!(Face::ZHigh.opposite(), Face::ZLow);
        assert_eq!(Face::YLow.axis(), 1);
        assert!(!Face::YLow.is_high());
        assert_eq!(Face::XHigh.offset(), [1, 0, 0]);
        assert_eq!(Face::ZLow.offset(), [0, 0, -1]);
    }
}
