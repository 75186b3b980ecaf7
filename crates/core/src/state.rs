//! Per-block simulation state: the four fields of Algorithm 1.
//!
//! "Two lattices are allocated for each variable: two destination fields
//! denoted by φdst and µdst and two source fields" (Sec. 2.1). Source fields
//! hold time t, destination fields receive t + Δt; they are swapped at the
//! end of each step.

use eutectica_blockgrid::boundary::{Bc, BoundarySpec};
use eutectica_blockgrid::field::SoaField;
use eutectica_blockgrid::GridDims;

use crate::{LIQ, N_COMP, N_PHASES};

/// Simulation state of one block.
#[derive(Clone, Debug)]
pub struct BlockState {
    /// Grid geometry (ghost width 1).
    pub dims: GridDims,
    /// Global cell coordinates of this block's first interior cell.
    pub origin: [usize; 3],
    /// Order parameters at time t.
    pub phi_src: SoaField<N_PHASES>,
    /// Order parameters at time t + Δt.
    pub phi_dst: SoaField<N_PHASES>,
    /// Chemical potentials at time t.
    pub mu_src: SoaField<N_COMP>,
    /// Chemical potentials at time t + Δt.
    pub mu_dst: SoaField<N_COMP>,
    /// Boundary conditions for the φ fields on physical faces.
    pub bc_phi: BoundarySpec<N_PHASES>,
    /// Boundary conditions for the µ fields on physical faces.
    pub bc_mu: BoundarySpec<N_COMP>,
}

/// φ value of pure liquid.
pub const PHI_LIQUID: [f64; N_PHASES] = [0.0, 0.0, 0.0, 1.0];

impl BlockState {
    /// Liquid-filled block at eutectic chemical potential (µ = 0), with the
    /// paper's directional boundary conditions: periodic side walls, Neumann
    /// at the bottom (grown solid), Dirichlet fresh liquid at the top.
    pub fn new(dims: GridDims, origin: [usize; 3]) -> Self {
        use eutectica_blockgrid::Face;
        let bc_phi = BoundarySpec::uniform(Bc::Periodic)
            .with_face(Face::ZLow, Bc::Neumann)
            .with_face(Face::ZHigh, Bc::Dirichlet(PHI_LIQUID));
        let bc_mu = BoundarySpec::uniform(Bc::Periodic)
            .with_face(Face::ZLow, Bc::Neumann)
            .with_face(Face::ZHigh, Bc::Dirichlet([0.0; N_COMP]));
        Self {
            dims,
            origin,
            phi_src: SoaField::new(dims, PHI_LIQUID),
            phi_dst: SoaField::new(dims, PHI_LIQUID),
            mu_src: SoaField::new(dims, [0.0; N_COMP]),
            mu_dst: SoaField::new(dims, [0.0; N_COMP]),
            bc_phi,
            bc_mu,
        }
    }

    /// Swap source and destination fields (Algorithm 1, line 7).
    pub fn swap(&mut self) {
        self.phi_src.swap(&mut self.phi_dst);
        self.mu_src.swap(&mut self.mu_dst);
    }

    /// Apply physical boundary conditions to the source fields (used once
    /// after initialization).
    pub fn apply_bc_src(&mut self) {
        self.bc_phi.apply(&mut self.phi_src);
        self.bc_mu.apply(&mut self.mu_src);
    }

    /// Advance the moving window by one cell: all fields shift one cell
    /// towards −z; fresh liquid at eutectic µ enters at the top. The bottom
    /// slice (deep solid, negligible evolution) leaves the domain.
    pub fn shift_window_up(&mut self) {
        self.phi_src.shift_z_down(PHI_LIQUID);
        self.phi_dst.shift_z_down(PHI_LIQUID);
        self.mu_src.shift_z_down([0.0; N_COMP]);
        self.mu_dst.shift_z_down([0.0; N_COMP]);
        self.origin[2] += 1;
    }

    /// The highest interior z-slab (padded coordinate) whose mean solid
    /// fraction `1 − φ_ℓ` exceeds 5 % — the solidification front — scanning
    /// down from the top. Slabs in a constant zone of `φ_src` with
    /// `φ_ℓ = 1` hold no solid, so the scan starts below them.
    pub fn front_slab(&self) -> Option<usize> {
        let d = self.dims;
        let g = d.ghost;
        let (const_from, val) = self.phi_src.const_zone();
        let top = if val[LIQ] == 1.0 {
            (g + d.nz).min(const_from)
        } else {
            g + d.nz
        };
        (g..top).rev().find(|&z| {
            let mut solid = 0.0;
            for y in g..g + d.ny {
                for x in g..g + d.nx {
                    solid += 1.0 - self.phi_src.at(LIQ, x, y, z);
                }
            }
            solid / (d.nx * d.ny) as f64 > 0.05
        })
    }

    /// Copy src fields into dst (so untouched dst ghost/boundary data is
    /// consistent before the first step).
    pub fn sync_dst_from_src(&mut self) {
        self.phi_dst = self.phi_src.clone();
        self.mu_dst = self.mu_src.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_block_is_liquid_at_eutectic() {
        let s = BlockState::new(GridDims::cube(4), [0, 0, 0]);
        assert_eq!(s.phi_src.cell(2, 2, 2), PHI_LIQUID);
        assert_eq!(s.mu_src.cell(2, 2, 2), [0.0; 2]);
    }

    #[test]
    fn swap_exchanges_src_dst() {
        let mut s = BlockState::new(GridDims::cube(3), [0, 0, 0]);
        s.phi_dst.set_cell(1, 1, 1, [1.0, 0.0, 0.0, 0.0]);
        s.swap();
        assert_eq!(s.phi_src.cell(1, 1, 1), [1.0, 0.0, 0.0, 0.0]);
        assert_eq!(s.phi_dst.cell(1, 1, 1), PHI_LIQUID);
    }

    #[test]
    fn window_shift_advances_origin_and_injects_liquid() {
        let mut s = BlockState::new(GridDims::cube(3), [0, 0, 5]);
        s.phi_src.set_cell(1, 1, 3, [1.0, 0.0, 0.0, 0.0]); // top interior
        s.shift_window_up();
        assert_eq!(s.origin[2], 6);
        // The marked cell moved down one slice...
        assert_eq!(s.phi_src.cell(1, 1, 2), [1.0, 0.0, 0.0, 0.0]);
        // ...and the top is fresh liquid again.
        assert_eq!(s.phi_src.cell(1, 1, 3), PHI_LIQUID);
    }
}
