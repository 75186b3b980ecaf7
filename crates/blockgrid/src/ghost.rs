//! Ghost-layer pack/unpack for neighbor-block exchange.
//!
//! Faces are exchanged in the fixed order x → y → z. A face message covers
//! the *full* (ghost-inclusive) extent along axes that were already
//! exchanged and the interior extent along axes that have not been yet:
//! after the z exchange, every edge and corner ghost holds correct data,
//! which the D3C19 stencil of the µ-sweep requires — with only six messages
//! per block instead of 26.
//!
//! Packing copies the sender's interior boundary slab into a contiguous
//! buffer (the "packing and unpacking [of] messages which cannot be
//! overlapped" in the paper's Fig. 8 discussion); unpacking writes it into
//! the receiver's ghost slab on the opposite face.

use crate::field::SoaField;
use crate::{Face, GridDims};

/// An axis-aligned cell region given by half-open total-coordinate ranges.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// `[start, end)` per axis, in total coordinates.
    pub range: [[usize; 2]; 3],
}

impl Region {
    /// Number of cells in the region.
    pub fn volume(&self) -> usize {
        self.range.iter().map(|r| r[1] - r[0]).product()
    }
}

/// Extent along `axis` that a face message spans, per the x → y → z rule.
fn transverse_range(dims: GridDims, msg_axis: usize, axis: usize) -> [usize; 2] {
    let (n, t) = match axis {
        0 => (dims.nx, dims.tx()),
        1 => (dims.ny, dims.ty()),
        _ => (dims.nz, dims.tz()),
    };
    if axis < msg_axis {
        [0, t] // already exchanged: include ghosts
    } else {
        [dims.ghost, dims.ghost + n] // not yet exchanged: interior only
    }
}

/// The region a sender reads when packing its `face` message: the `ghost`
/// innermost interior layers adjacent to that face.
pub fn send_region(dims: GridDims, face: Face) -> Region {
    let a = face.axis();
    let g = dims.ghost;
    let n = match a {
        0 => dims.nx,
        1 => dims.ny,
        _ => dims.nz,
    };
    let mut range = [[0usize; 2]; 3];
    for axis in 0..3 {
        range[axis] = if axis == a {
            if face.is_high() {
                [n, n + g] // last g interior layers
            } else {
                [g, 2 * g] // first g interior layers
            }
        } else {
            transverse_range(dims, a, axis)
        };
    }
    Region { range }
}

/// The region a receiver writes when unpacking a message arriving at `face`:
/// the ghost layers outside that face.
pub fn recv_region(dims: GridDims, face: Face) -> Region {
    let a = face.axis();
    let g = dims.ghost;
    let n = match a {
        0 => dims.nx,
        1 => dims.ny,
        _ => dims.nz,
    };
    let mut range = [[0usize; 2]; 3];
    for axis in 0..3 {
        range[axis] = if axis == a {
            if face.is_high() {
                [n + g, n + 2 * g]
            } else {
                [0, g]
            }
        } else {
            transverse_range(dims, a, axis)
        };
    }
    Region { range }
}

/// Number of doubles in a face message for an `NC`-component field.
fn message_len(dims: GridDims, face: Face, nc: usize) -> usize {
    send_region(dims, face).volume() * nc
}

/// Wire size in bytes of a sequenced face message (f64 payload) — the
/// analytic ground truth the telemetry byte counters are checked against.
pub fn message_bytes(dims: GridDims, face: Face, nc: usize) -> u64 {
    (message_len(dims, face, nc) * std::mem::size_of::<f64>()) as u64
}

/// Wire size in bytes of a "plain" (face-ghost-only) message (f64 payload).
pub fn message_bytes_plain(dims: GridDims, face: Face, nc: usize) -> u64 {
    (send_region_plain(dims, face).volume() * nc * std::mem::size_of::<f64>()) as u64
}

/// Send region with interior-only transverse extent on *all* axes.
///
/// Unlike [`send_region`], these "plain" face messages are mutually
/// independent, so all six can be posted at once and overlapped with
/// computation. They fill face ghosts only (no edges/corners) — sufficient
/// for the µ-field, whose kernels never read edge ghosts, and this is what
/// makes hiding the µ-communication "straightforward" (Sec. 3.3) while the
/// φ-field (D3C19) needs the sequenced exchange.
pub fn send_region_plain(dims: GridDims, face: Face) -> Region {
    let mut r = send_region(dims, face);
    for axis in 0..3 {
        if axis != face.axis() {
            let (n, _) = match axis {
                0 => (dims.nx, dims.tx()),
                1 => (dims.ny, dims.ty()),
                _ => (dims.nz, dims.tz()),
            };
            r.range[axis] = [dims.ghost, dims.ghost + n];
        }
    }
    r
}

/// Receive region matching [`send_region_plain`].
pub fn recv_region_plain(dims: GridDims, face: Face) -> Region {
    let mut r = recv_region(dims, face);
    for axis in 0..3 {
        if axis != face.axis() {
            let n = match axis {
                0 => dims.nx,
                1 => dims.ny,
                _ => dims.nz,
            };
            r.range[axis] = [dims.ghost, dims.ghost + n];
        }
    }
    r
}

/// One x-row of a pair of equally shaped regions: its component, the z-slab
/// it lies in on either side, and the offset of its first cell in either
/// field's raw storage.
#[derive(Copy, Clone)]
struct Row {
    c: usize,
    src_z: usize,
    dst_z: usize,
    src: usize,
    dst: usize,
}

/// Calls `f(row)` for every x-row of two equally shaped regions, in wire
/// order (component-major, then z, then y).
#[inline(always)]
fn for_each_row(
    nc: usize,
    (sd, sr): (GridDims, Region),
    (dd, dr): (GridDims, Region),
    mut f: impl FnMut(Row),
) {
    let ext = |r: Region| [0, 1, 2].map(|a| r.range[a][1] - r.range[a][0]);
    assert_eq!(ext(sr), ext(dr), "ghost regions differ in shape");
    assert!(
        sr.range[0][1] <= sd.tx() && sr.range[1][1] <= sd.ty() && sr.range[2][1] <= sd.tz(),
        "ghost region outside the source field"
    );
    assert!(
        dr.range[0][1] <= dd.tx() && dr.range[1][1] <= dd.ty() && dr.range[2][1] <= dd.tz(),
        "ghost region outside the destination field"
    );
    let [_, ny, nz] = ext(sr);
    for c in 0..nc {
        let (sc, dc) = (c * sd.volume(), c * dd.volume());
        for z in 0..nz {
            let (src_z, dst_z) = (sr.range[2][0] + z, dr.range[2][0] + z);
            let s = sc + sd.idx(sr.range[0][0], sr.range[1][0], src_z);
            let d = dc + dd.idx(dr.range[0][0], dr.range[1][0], dst_z);
            for y in 0..ny {
                f(Row {
                    c,
                    src_z,
                    dst_z,
                    src: s + y * sd.sy(),
                    dst: d + y * dd.sy(),
                });
            }
        }
    }
}

/// [`for_each_row`] over one region (`src` and `dst` sides coincide).
#[inline(always)]
fn for_each_row_of(nc: usize, dims: GridDims, r: Region, f: impl FnMut(Row)) {
    for_each_row(nc, (dims, r), (dims, r), f);
}

/// Cells per x-row of `r`. Rows of one cell (x-faces at ghost width 1) are
/// copied by a strided scalar loop instead of one slice copy per cell.
fn row_len(r: Region) -> usize {
    r.range[0][1] - r.range[0][0]
}

/// The destination field's constant-slab summary while a region writer
/// holds its raw storage (see `SoaField::raw_and_zone`).
struct Zone<'a, const NC: usize> {
    from: &'a mut usize,
    bits: [u64; NC],
}

impl<const NC: usize> Zone<'_, NC> {
    /// Whether slab `z` lies in the zone, i.e. its rows hold the constant
    /// until they are written.
    #[inline(always)]
    fn holds(&self, z: usize) -> bool {
        z >= *self.from
    }

    /// Account for the row just written to `cells`: if it lies in the zone
    /// and no longer equals the constant, the zone ends above it. Reads only
    /// what was just written, and nothing for rows below the zone.
    #[inline(always)]
    fn wrote(&mut self, row: Row, cells: &[f64]) {
        if self.holds(row.dst_z) && cells.iter().any(|v| v.to_bits() != self.bits[row.c]) {
            *self.from = row.dst_z + 1;
        }
    }
}

/// Raw storage of `field` plus its summary, for a region writer.
#[inline(always)]
fn writer<const NC: usize>(field: &mut SoaField<NC>) -> (&mut [f64], Zone<'_, NC>) {
    let (data, from, val) = field.raw_and_zone();
    let bits = val.map(f64::to_bits);
    (data, Zone { from, bits })
}

/// Copy `src_r` of `src` into the equally shaped `dst_r` of `dst` — a
/// same-process face transfer with no staging buffer. Equivalent to
/// [`pack_region`] on `src` followed by [`unpack_region`] on `dst`. Rows
/// that lie in a constant zone of the same value on both sides are equal
/// already and are not touched.
///
/// # Panics
/// Panics if the regions differ in shape or leave their fields.
pub fn copy_region<const NC: usize>(
    src: &SoaField<NC>,
    src_r: Region,
    dst: &mut SoaField<NC>,
    dst_r: Region,
) {
    let (from, to) = ((src.dims(), src_r), (dst.dims(), dst_r));
    let (src_from, src_val) = src.const_zone();
    let s = src.raw();
    let (d, mut zone) = writer(dst);
    // With different constants no source row counts as "in the zone".
    let src_from = if src_val.map(f64::to_bits) == zone.bits {
        src_from
    } else {
        usize::MAX
    };
    match row_len(src_r) {
        1 => for_each_row(NC, from, to, |r| {
            if r.src_z >= src_from && zone.holds(r.dst_z) {
                return;
            }
            d[r.dst] = s[r.src];
            zone.wrote(r, &d[r.dst..=r.dst]);
        }),
        n => for_each_row(NC, from, to, |r| {
            if r.src_z >= src_from && zone.holds(r.dst_z) {
                return;
            }
            d[r.dst..r.dst + n].copy_from_slice(&s[r.src..r.src + n]);
            zone.wrote(r, &d[r.dst..r.dst + n]);
        }),
    }
}

/// [`copy_region`] inside one field: a block that is its own periodic
/// neighbor.
///
/// # Panics
/// Panics like [`copy_region`], and if the regions overlap (a send region
/// and a receive region never do).
pub fn copy_region_within<const NC: usize>(field: &mut SoaField<NC>, src_r: Region, dst_r: Region) {
    assert!(
        (0..3).any(|a| {
            src_r.range[a][1] <= dst_r.range[a][0] || dst_r.range[a][1] <= src_r.range[a][0]
        }),
        "in-field ghost copy between overlapping regions"
    );
    let (from, to) = ((field.dims(), src_r), (field.dims(), dst_r));
    let (d, mut zone) = writer(field);
    match row_len(src_r) {
        1 => for_each_row(NC, from, to, |r| {
            if zone.holds(r.src_z) && zone.holds(r.dst_z) {
                return;
            }
            d[r.dst] = d[r.src];
            zone.wrote(r, &d[r.dst..=r.dst]);
        }),
        n => for_each_row(NC, from, to, |r| {
            if zone.holds(r.src_z) && zone.holds(r.dst_z) {
                return;
            }
            d.copy_within(r.src..r.src + n, r.dst);
            zone.wrote(r, &d[r.dst..r.dst + n]);
        }),
    }
}

/// Pack an arbitrary region (component-major, then z, y, x).
pub fn pack_region<const NC: usize>(field: &SoaField<NC>, r: Region, buf: &mut Vec<f64>) {
    let s = field.raw();
    buf.clear();
    buf.reserve(r.volume() * NC);
    match row_len(r) {
        1 => for_each_row_of(NC, field.dims(), r, |r| buf.push(s[r.src])),
        n => for_each_row_of(NC, field.dims(), r, |r| {
            buf.extend_from_slice(&s[r.src..r.src + n])
        }),
    }
}

/// Unpack into an arbitrary region (inverse of [`pack_region`]).
pub fn unpack_region<const NC: usize>(field: &mut SoaField<NC>, r: Region, data: &[f64]) {
    assert_eq!(data.len(), r.volume() * NC, "ghost message length mismatch");
    let dims = field.dims();
    let (d, mut zone) = writer(field);
    let mut pos = 0;
    match row_len(r) {
        1 => for_each_row_of(NC, dims, r, |r| {
            d[r.dst] = data[pos];
            zone.wrote(r, &d[r.dst..=r.dst]);
            pos += 1;
        }),
        n => for_each_row_of(NC, dims, r, |r| {
            d[r.dst..r.dst + n].copy_from_slice(&data[pos..pos + n]);
            zone.wrote(r, &d[r.dst..r.dst + n]);
            pos += n;
        }),
    }
}

/// Pack a region straight into its wire form: the little-endian bytes of
/// the doubles [`pack_region`] would produce, in one pass and one
/// allocation.
pub fn pack_region_bytes<const NC: usize>(field: &SoaField<NC>, r: Region) -> Vec<u8> {
    let s = field.raw();
    let mut out: Vec<[u8; 8]> = Vec::with_capacity(r.volume() * NC);
    match row_len(r) {
        1 => for_each_row_of(NC, field.dims(), r, |r| out.push(s[r.src].to_le_bytes())),
        n => for_each_row_of(NC, field.dims(), r, |r| {
            out.extend(s[r.src..r.src + n].iter().map(|v| v.to_le_bytes()))
        }),
    }
    out.into_flattened()
}

/// Unpack a wire payload produced by [`pack_region_bytes`] into a region,
/// in one pass and without staging.
///
/// # Panics
/// Panics if `bytes` has the wrong length.
pub fn unpack_region_bytes<const NC: usize>(field: &mut SoaField<NC>, r: Region, bytes: &[u8]) {
    assert_eq!(
        bytes.len(),
        r.volume() * NC * std::mem::size_of::<f64>(),
        "ghost message length mismatch"
    );
    let dims = field.dims();
    let (d, mut zone) = writer(field);
    let le = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
    let mut pos = 0;
    match row_len(r) {
        1 => for_each_row_of(NC, dims, r, |r| {
            d[r.dst] = le(&bytes[pos..pos + 8]);
            zone.wrote(r, &d[r.dst..=r.dst]);
            pos += 8;
        }),
        n => for_each_row_of(NC, dims, r, |r| {
            let row = bytes[pos..pos + 8 * n].chunks_exact(8);
            for (cell, b) in d[r.dst..r.dst + n].iter_mut().zip(row) {
                *cell = le(b);
            }
            zone.wrote(r, &d[r.dst..r.dst + n]);
            pos += 8 * n;
        }),
    }
}

/// Pack the `face` message of `field` into `buf` (cleared first).
///
/// Layout: component-major, then z, y, x — matching [`unpack`].
pub fn pack<const NC: usize>(field: &SoaField<NC>, face: Face, buf: &mut Vec<f64>) {
    pack_region(field, send_region(field.dims(), face), buf);
}

/// Unpack a message received at `face` into the ghost layers of `field`.
///
/// `face` is the receiver's face the message arrived at (i.e. the sender is
/// the neighbor in that direction, and packed its opposite face).
///
/// # Panics
/// Panics if `data` has the wrong length.
pub fn unpack<const NC: usize>(field: &mut SoaField<NC>, face: Face, data: &[f64]) {
    unpack_region(field, recv_region(field.dims(), face), data);
}

/// Perform a local periodic exchange on one axis of a single field:
/// each face's send region is copied into the ghost layers of the opposite
/// face — exactly what a pair of neighboring blocks does through the
/// communicator, but in-place. Used by tests and by single-block periodic
/// domains.
pub fn local_periodic_exchange<const NC: usize>(field: &mut SoaField<NC>, axis: usize) {
    let dims = field.dims();
    for f in [Face::ALL[2 * axis], Face::ALL[2 * axis + 1]] {
        copy_region_within(field, send_region(dims, f), recv_region(dims, f.opposite()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{Bc, BoundarySpec};

    fn marked(d: GridDims) -> SoaField<2> {
        let mut f = SoaField::<2>::new(d, [-1.0; 2]);
        for (x, y, z) in d.interior_iter() {
            f.set(0, x, y, z, (x * 10000 + y * 100 + z) as f64);
            f.set(1, x, y, z, (x * 10000 + y * 100 + z) as f64 + 0.5);
        }
        f
    }

    #[test]
    fn regions_have_expected_shapes() {
        let d = GridDims::new(4, 5, 6, 1);
        // x message: 1 layer thick, interior transverse.
        let r = send_region(d, Face::XHigh);
        assert_eq!(r.range, [[4, 5], [1, 6], [1, 7]]);
        assert_eq!(r.volume(), 30);
        // y message: full x, interior z.
        let r = send_region(d, Face::YLow);
        assert_eq!(r.range, [[0, 6], [1, 2], [1, 7]]);
        // z message: full x and y.
        let r = send_region(d, Face::ZHigh);
        assert_eq!(r.range, [[0, 6], [0, 7], [6, 7]]);
        assert_eq!(message_len(d, Face::ZHigh, 4), 6 * 7 * 4);
        // Receive regions are the mirrored ghost slabs.
        assert_eq!(recv_region(d, Face::XLow).range, [[0, 1], [1, 6], [1, 7]]);
        assert_eq!(recv_region(d, Face::ZHigh).range, [[0, 6], [0, 7], [7, 8]]);
    }

    #[test]
    fn pack_unpack_roundtrip_matches_local_periodic() {
        // A fully periodic single block exchanged via pack/unpack must agree
        // with the BoundarySpec periodic fill.
        let d = GridDims::new(4, 3, 5, 1);
        let mut via_msgs = marked(d);
        for axis in 0..3 {
            local_periodic_exchange(&mut via_msgs, axis);
        }
        let mut via_bc = marked(d);
        BoundarySpec::uniform(Bc::Periodic).apply(&mut via_bc);
        for c in 0..2 {
            assert_eq!(via_msgs.comp(c), via_bc.comp(c), "component {c}");
        }
    }

    #[test]
    fn corner_ghosts_are_filled_after_xyz_exchange() {
        let d = GridDims::cube(3);
        let mut f = marked(d);
        for axis in 0..3 {
            local_periodic_exchange(&mut f, axis);
        }
        // The (0,0,0) corner ghost must hold the wrapped interior value of
        // the opposite corner (3,3,3).
        assert_eq!(f.at(0, 0, 0, 0), f.at(0, 3, 3, 3));
        assert_eq!(f.at(1, 4, 4, 4), f.at(1, 1, 1, 1));
        // Edge ghosts likewise.
        assert_eq!(f.at(0, 0, 0, 2), f.at(0, 3, 3, 2));
        assert_ne!(f.at(0, 0, 0, 0), -1.0, "corner ghost never written");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn unpack_rejects_wrong_length() {
        let d = GridDims::cube(3);
        let mut f = marked(d);
        unpack(&mut f, Face::XLow, &[0.0; 3]);
    }
}
