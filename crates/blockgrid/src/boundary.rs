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

use crate::field::{same_bits, SoaField};
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
    pub fn face(&self, f: Face) -> Bc<NC> {
        self.faces[f as usize]
    }

    /// Replace the condition on one face.
    pub fn with_face(mut self, f: Face, bc: Bc<NC>) -> Self {
        self.faces[f as usize] = bc;
        self
    }

    /// Fill the ghost layers of `field` on every non-[`Bc::Comm`] face.
    pub fn apply(&self, field: &mut SoaField<NC>) {
        for f in Face::ALL {
            match self.face(f) {
                Bc::Comm => {}
                Bc::Periodic => apply_periodic(field, f),
                Bc::Neumann => apply_neumann(field, f),
                Bc::Dirichlet(v) => apply_dirichlet(field, f, v),
            }
        }
    }
}

fn apply_periodic<const NC: usize>(field: &mut SoaField<NC>, face: Face) {
    let d = field.dims();
    let g = d.ghost;
    let (n, t) = match face.axis() {
        0 => (d.nx, d.tx()),
        1 => (d.ny, d.ty()),
        _ => (d.nz, d.tz()),
    };
    // Ghost layer l (0..g) on the low side maps to interior layer n+l from
    // the high side and vice versa.
    for l in 0..g {
        let (dst, src) = if face.is_high() {
            (n + g + l, g + l) // high ghost <- low interior
        } else {
            (l, n + l) // low ghost <- high interior (offset by g: n+l = g+n-g+l)
        };
        copy_axis_layer(field, face.axis(), dst, src, t);
    }
}

fn apply_neumann<const NC: usize>(field: &mut SoaField<NC>, face: Face) {
    let d = field.dims();
    let g = d.ghost;
    let n = match face.axis() {
        0 => d.nx,
        1 => d.ny,
        _ => d.nz,
    };
    let t = match face.axis() {
        0 => d.tx(),
        1 => d.ty(),
        _ => d.tz(),
    };
    for l in 0..g {
        let (dst, src) = if face.is_high() {
            (n + g + l, n + g - 1) // copy last interior layer outward
        } else {
            (l, g)
        };
        copy_axis_layer(field, face.axis(), dst, src, t);
    }
}

fn apply_dirichlet<const NC: usize>(field: &mut SoaField<NC>, face: Face, v: [f64; NC]) {
    let d = field.dims();
    let g = d.ghost;
    let n = match face.axis() {
        0 => d.nx,
        1 => d.ny,
        _ => d.nz,
    };
    for l in 0..g {
        let layer = if face.is_high() { n + g + l } else { l };
        fill_axis_layer(field, face.axis(), layer, v);
    }
}

/// Copy one full transverse layer `src` -> `dst` along `axis`. Where both
/// layers lie in the field's constant zone they are equal already and the
/// copy is skipped; a z-layer copied into the zone from below it ends the
/// zone above the copy.
fn copy_axis_layer<const NC: usize>(
    field: &mut SoaField<NC>,
    axis: usize,
    dst: usize,
    src: usize,
    _t: usize,
) {
    let d = field.dims();
    let (tx, ty, tz, vol) = (d.tx(), d.ty(), d.tz(), d.volume());
    let (data, const_from, _) = field.raw_and_zone();
    // x- and y-layers cross every slab: the slabs of the zone need no copy.
    let z_end = tz.min(*const_from);
    if axis == 2 {
        if src >= *const_from && dst >= *const_from {
            return;
        }
        if dst >= *const_from {
            *const_from = dst + 1;
        }
    }
    for comp in data.chunks_exact_mut(vol) {
        match axis {
            0 => {
                for z in 0..z_end {
                    for y in 0..ty {
                        let row = (z * ty + y) * tx;
                        comp[row + dst] = comp[row + src];
                    }
                }
            }
            1 => {
                for z in 0..z_end {
                    let base = z * ty * tx;
                    let (d0, s0) = (base + dst * tx, base + src * tx);
                    comp.copy_within(s0..s0 + tx, d0);
                }
            }
            _ => {
                let (d0, s0) = (dst * ty * tx, src * ty * tx);
                comp.copy_within(s0..s0 + ty * tx, d0);
            }
        }
    }
}

/// Fill one full transverse layer along `axis` with constant `v`. Slabs of
/// the field's constant zone that hold `v` already are skipped; writing any
/// other value into the zone ends it above the write.
fn fill_axis_layer<const NC: usize>(
    field: &mut SoaField<NC>,
    axis: usize,
    layer: usize,
    v: [f64; NC],
) {
    let d = field.dims();
    let (tx, ty, tz, vol) = (d.tx(), d.ty(), d.tz(), d.volume());
    let (data, const_from, const_val) = field.raw_and_zone();
    let same = same_bits(v, const_val);
    let z_end = if axis == 2 {
        if layer >= *const_from {
            if same {
                return;
            }
            *const_from = layer + 1;
        }
        tz
    } else if same {
        tz.min(*const_from)
    } else {
        // An x- or y-layer of another value crosses every slab of the zone.
        *const_from = tz;
        tz
    };
    for (c, comp) in data.chunks_exact_mut(vol).enumerate() {
        match axis {
            0 => {
                for z in 0..z_end {
                    for y in 0..ty {
                        comp[(z * ty + y) * tx + layer] = v[c];
                    }
                }
            }
            1 => {
                for z in 0..z_end {
                    let start = (z * ty + layer) * tx;
                    comp[start..start + tx].fill(v[c]);
                }
            }
            _ => {
                let start = layer * ty * tx;
                comp[start..start + ty * tx].fill(v[c]);
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
