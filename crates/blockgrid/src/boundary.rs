//! Boundary handling: Dirichlet, Neumann (zero-gradient) and periodic ghost
//! fills, matching the simulation setting of Fig. 2 (periodic in x/y,
//! Dirichlet solid at the bottom, Neumann at the top).
//!
//! Boundary handling runs after ghost-layer communication each sweep
//! (Algorithm 1, lines 3 and 6). Faces adjacent to another block carry
//! [`Bc::Comm`] and are skipped here — their ghosts are filled by the
//! exchange. Faces are processed in the fixed x → y → z order over the full
//! transverse extent, so edge/corner ghosts required by the D3C19 stencil
//! are filled consistently with the communication scheme (see [`crate::ghost`]).
//!
//! This module only computes regions: every ghost layer is written by
//! [`crate::ghost`]'s region writer, the same one that unpacks and copies
//! face messages, which also keeps the field's constant-slab summary.

use crate::field::SoaField;
use crate::ghost::{copy_region_within, fill_region, Region};
use crate::Face;

/// Boundary condition of one block face.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Bc<const NC: usize> {
    /// Interior face: ghosts come from neighbor-block communication.
    Comm,
    /// Periodic wrap within this block (single-block-per-axis domains only;
    /// multi-block periodic axes wrap through [`Bc::Comm`] topology instead).
    Periodic,
    /// Zero-gradient: ghost layers copy the nearest interior layer.
    Neumann,
    /// Fixed values written into the ghost layers.
    Dirichlet([f64; NC]),
}

/// Boundary conditions for all six faces of a block.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BoundarySpec<const NC: usize> {
    /// Per-face condition, indexed by [`Face`] discriminant.
    pub faces: [Bc<NC>; 6],
}

impl<const NC: usize> BoundarySpec<NC> {
    /// All faces use the same condition.
    pub fn uniform(bc: Bc<NC>) -> Self {
        Self { faces: [bc; 6] }
    }

    /// Condition on one face.
    #[inline]
    pub(crate) fn face(&self, f: Face) -> Bc<NC> {
        self.faces[f as usize]
    }

    /// Replace the condition on one face.
    pub fn with_face(mut self, f: Face, bc: Bc<NC>) -> Self {
        self.faces[f as usize] = bc;
        self
    }

    /// Fill the ghost layers of `field` on every non-[`Bc::Comm`] face,
    /// one full-transverse layer at a time.
    pub fn apply(&self, field: &mut SoaField<NC>) {
        let d = field.dims();
        let g = d.ghost;
        for f in Face::ALL {
            let bc = self.face(f);
            if bc == Bc::Comm {
                continue;
            }
            let (a, high) = (f.axis(), f.is_high());
            let n = [d.nx, d.ny, d.nz][a];
            let layer = |i: usize| {
                let mut range = [[0, d.tx()], [0, d.ty()], [0, d.tz()]];
                range[a] = [i, i + 1];
                Region { range }
            };
            for l in 0..g {
                let ghost = if high { n + g + l } else { l };
                match bc {
                    Bc::Comm => {}
                    // High ghost layer l <- low interior layer g + l, low
                    // ghost layer l <- high interior layer n + l.
                    Bc::Periodic => copy_region_within(
                        field,
                        layer(if high { g + l } else { n + l }),
                        layer(ghost),
                    ),
                    Bc::Neumann => copy_region_within(
                        field,
                        layer(if high { n + g - 1 } else { g }),
                        layer(ghost),
                    ),
                    Bc::Dirichlet(v) => fill_region(field, layer(ghost), v),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridDims;

    fn marked_field(d: GridDims) -> SoaField<2> {
        let mut f = SoaField::<2>::new(d, [0.0; 2]);
        for (x, y, z) in d.interior_iter() {
            f.set(0, x, y, z, (100 * x + 10 * y + z) as f64);
            f.set(1, x, y, z, -((100 * x + 10 * y + z) as f64));
        }
        f
    }

    #[test]
    fn periodic_wraps_interior() {
        let d = GridDims::new(4, 3, 3, 1);
        let mut f = marked_field(d);
        BoundarySpec::uniform(Bc::Periodic).apply(&mut f);
        // Low x ghost = high x interior.
        assert_eq!(f.at(0, 0, 1, 1), f.at(0, 4, 1, 1));
        // High x ghost = low x interior.
        assert_eq!(f.at(0, 5, 2, 1), f.at(0, 1, 2, 1));
        // Same along y and z.
        assert_eq!(f.at(0, 1, 0, 1), f.at(0, 1, 3, 1));
        assert_eq!(f.at(0, 1, 1, 4), f.at(0, 1, 1, 1));
        // Corner ghost picks up fully wrapped value thanks to x->y->z order.
        assert_eq!(f.at(0, 0, 0, 0), f.at(0, 4, 3, 3));
    }

    #[test]
    fn neumann_copies_nearest_interior() {
        let d = GridDims::new(3, 3, 3, 1);
        let mut f = marked_field(d);
        BoundarySpec::uniform(Bc::Neumann).apply(&mut f);
        assert_eq!(f.at(0, 0, 2, 2), f.at(0, 1, 2, 2));
        assert_eq!(f.at(0, 4, 2, 2), f.at(0, 3, 2, 2));
        assert_eq!(f.at(1, 2, 0, 2), f.at(1, 2, 1, 2));
        assert_eq!(f.at(1, 2, 2, 4), f.at(1, 2, 2, 3));
    }

    #[test]
    fn dirichlet_sets_ghost_values() {
        let d = GridDims::new(3, 3, 3, 1);
        let mut f = marked_field(d);
        let spec =
            BoundarySpec::uniform(Bc::Comm).with_face(Face::ZLow, Bc::Dirichlet([7.0, -7.0]));
        spec.apply(&mut f);
        assert_eq!(f.at(0, 2, 2, 0), 7.0);
        assert_eq!(f.at(1, 2, 2, 0), -7.0);
        // Untouched Comm faces keep their initial ghosts.
        assert_eq!(f.at(0, 0, 2, 2), 0.0);
    }

    #[test]
    fn directional_setup_matches_fig2() {
        let d = GridDims::new(3, 3, 3, 1);
        let mut f = marked_field(d);
        let spec = BoundarySpec::uniform(Bc::Periodic)
            .with_face(Face::ZLow, Bc::Dirichlet([1.0, 2.0]))
            .with_face(Face::ZHigh, Bc::Neumann);
        spec.apply(&mut f);
        // Bottom Dirichlet.
        assert_eq!(f.at(0, 1, 1, 0), 1.0);
        assert_eq!(f.at(1, 1, 1, 0), 2.0);
        // Top Neumann.
        assert_eq!(f.at(0, 1, 1, 4), f.at(0, 1, 1, 3));
        // Sides periodic.
        assert_eq!(f.at(0, 0, 1, 1), f.at(0, 3, 1, 1));
    }

    #[test]
    fn ghost_width_two() {
        let d = GridDims::new(4, 4, 4, 2);
        let mut f = marked_field(d);
        BoundarySpec::uniform(Bc::Periodic).apply(&mut f);
        // Layer 0 maps to interior layer n+0 = 4, layer 1 -> 5.
        assert_eq!(f.at(0, 0, 3, 3), f.at(0, 4, 3, 3));
        assert_eq!(f.at(0, 1, 3, 3), f.at(0, 5, 3, 3));
        assert_eq!(f.at(0, 6, 3, 3), f.at(0, 2, 3, 3));
        assert_eq!(f.at(0, 7, 3, 3), f.at(0, 3, 3, 3));
    }
}
