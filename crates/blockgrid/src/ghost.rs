//! Ghost-layer pack/unpack for neighbor-block exchange.
//!
//! Faces are exchanged in the fixed order x → y → z. A face message covers
//! the *full* (ghost-inclusive) extent along axes that were already
//! exchanged and the interior extent along axes that have not been yet:
//! after the z exchange, every edge and corner ghost holds correct data,
//! which the D3C19 stencil of the µ-sweep requires — with only six face
//! transfers per block instead of 26.
//!
//! Packing copies the sender's interior boundary slab into a contiguous
//! buffer (the "packing and unpacking [of] messages which cannot be
//! overlapped" in the paper's Fig. 8 discussion); unpacking writes it into
//! the receiver's ghost slab on the opposite face.
//!
//! Every ghost write of this crate — an unpack, a same-process face copy
//! and the boundary fills of [`crate::boundary`] — runs on one private
//! region writer. It owns the row loop and the destination's constant-slab
//! summary (see [`SoaField`]); the public writers only say where a row's
//! values come from.
//!
//! A face that crosses a process boundary travels in its wire form
//! ([`pack_region_bytes`]): a header — the number of z planes sent as a
//! `u64`, then the sender's constant-zone value per component as `f64`, all
//! little-endian — and the rows of those planes only. The planes sent are
//! the ones below the sender's constant zone; the receiver fills the rest
//! with the header's value and skips what its own zone holds already, so
//! the melt above the front is neither sent nor written. [`wire_len`]
//! checks the headers of a whole frame before any of it is unpacked, and
//! [`wire_capacity`] bounds a frame's length before it is packed; no other
//! code knows the header's layout.

use crate::field::{same_bits, SoaField};
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

/// Dense size in bytes of a sequenced face message: every plane as f64,
/// no header ([`pack`]'s payload, and the most a wire form of the face
/// carries besides its header).
pub fn message_bytes(dims: GridDims, face: Face, nc: usize) -> u64 {
    (message_len(dims, face, nc) * std::mem::size_of::<f64>()) as u64
}

/// Dense size in bytes of a "plain" (face-ghost-only) message (see
/// [`message_bytes`]).
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

/// One x-row of a pair of equally shaped regions: the offset of its first
/// cell in either field's raw storage.
#[derive(Copy, Clone)]
struct Row {
    src: usize,
    dst: usize,
}

/// Extents of two equally shaped regions, each checked against its field.
fn extents((sd, sr): (GridDims, Region), (dd, dr): (GridDims, Region)) -> [usize; 3] {
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
    ext(sr)
}

/// Calls `f(offset)` for the first cell of every x-row of region `r` of a
/// field shaped `dims`, in wire order (component-major, then z, then y).
#[inline(always)]
fn for_each_row_of(nc: usize, dims: GridDims, r: Region, mut f: impl FnMut(usize)) {
    let [_, ny, nz] = extents((dims, r), (dims, r));
    for c in 0..nc {
        for z in r.range[2][0]..r.range[2][0] + nz {
            let first = c * dims.volume() + dims.idx(r.range[0][0], r.range[1][0], z);
            for y in 0..ny {
                f(first + y * dims.sy());
            }
        }
    }
}

/// Cells per x-row of `r`. Rows of one cell (x-faces at ghost width 1) are
/// packed by a strided scalar loop instead of one slice copy per cell.
fn row_len(r: Region) -> usize {
    r.range[0][1] - r.range[0][0]
}

/// Writes one (component `c`, z) plane of `ny` x-rows of `n` cells, the
/// first at `first` and the others `sy` apart on either side, through `put`
/// (see [`write_region`]). One-cell rows (x faces at ghost width 1) take a
/// strided scalar loop, a plane whose rows are contiguous on both sides (z
/// layers) one run.
#[inline(always)]
fn write_plane(
    d: &mut [f64],
    put: &mut impl FnMut(&mut [f64], usize, Row, usize),
    c: usize,
    first: Row,
    [n, ny]: [usize; 2],
    sy: [usize; 2],
) {
    let row = |y: usize| Row {
        src: first.src + y * sy[0],
        dst: first.dst + y * sy[1],
    };
    match n {
        1 => (0..ny).for_each(|y| put(d, c, row(y), 1)),
        n if sy == [n, n] => put(d, c, first, n * ny),
        n => (0..ny).for_each(|y| put(d, c, row(y), n)),
    }
}

/// The one writer of ghost cells: writes region `dr` of `dst` from the
/// equally shaped region of `src` that `put` reads, one (component, z)
/// plane at a time, and keeps `dst`'s constant-slab summary true (see
/// `SoaField::raw_and_zone`).
///
/// `put(d, c, row, n)` writes the `n` cells of component `c` from `row.dst`
/// on, from `row.src` on in a field laid out like `src`, or from where a
/// wire reader stands (rows come in wire order). `src_const(c, src_z,
/// from)` says whether the source plane at slab `src_z` is known to hold
/// the zone's constant while the zone starts at slab `from`; it must stay
/// true for the planes above once it is.
#[inline(always)]
fn write_region<const NC: usize>(
    dst: &mut SoaField<NC>,
    dr: Region,
    (sd, sr): (GridDims, Region),
    src_const: impl Fn(usize, usize, usize) -> bool,
    mut put: impl FnMut(&mut [f64], usize, Row, usize),
) {
    let dd = dst.dims();
    let [n, ny, nz] = extents((sd, sr), (dd, dr));
    let (d, from, val) = dst.raw_and_zone();
    let bits = val.map(f64::to_bits);
    let sy = [sd.sy(), dd.sy()];
    let (sz0, dz0) = (sr.range[2][0], dr.range[2][0]);
    // A region wholly in the zone whose first source plane holds the
    // zone's constant in every component is equal already.
    if dz0 >= *from && (0..NC).all(|c| src_const(c, sz0, *from)) {
        return;
    }
    for c in 0..NC {
        let first = Row {
            src: c * sd.volume() + sd.idx(sr.range[0][0], sr.range[1][0], sz0),
            dst: c * dd.volume() + dd.idx(dr.range[0][0], dr.range[1][0], dz0),
        };
        let at = |z: usize| Row {
            src: first.src + z * sd.sz(),
            dst: first.dst + z * dd.sz(),
        };
        // Below the zone every plane is written.
        let below = (*from).saturating_sub(dz0).min(nz);
        for z in 0..below {
            write_plane(d, &mut put, c, at(z), [n, ny], sy);
        }
        // In the zone, which only moves up from here: a plane whose source
        // holds the zone's constant is equal already, and so are the planes
        // above it; any other plane is written, and if it differs from the
        // constant the zone ends above it.
        for z in below..nz {
            if src_const(c, sz0 + z, *from) {
                break;
            }
            let plane = at(z);
            write_plane(d, &mut put, c, plane, [n, ny], sy);
            let differs = |y| {
                d[plane.dst + y * sy[1]..][..n]
                    .iter()
                    .any(|v| v.to_bits() != bits[c])
            };
            if (0..ny).any(differs) {
                *from = dz0 + z + 1;
            }
        }
    }
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
    let (src_from, src_val) = src.const_zone();
    // With different constants no source row counts as "in the zone".
    let src_from = if same_bits(src_val, dst.const_zone().1) {
        src_from
    } else {
        usize::MAX
    };
    let s = src.raw();
    write_region(
        dst,
        dst_r,
        (src.dims(), src_r),
        |_, z, _| z >= src_from,
        // A one-cell row is a plain cell copy: the range checks of the
        // slice form cost an x face about a tenth.
        |d, _, r, n| match n {
            1 => d[r.dst] = s[r.src],
            n => d[r.dst..r.dst + n].copy_from_slice(&s[r.src..r.src + n]),
        },
    );
}

/// [`copy_region`] inside one field: a block that is its own periodic
/// neighbor, and the periodic and zero-gradient boundary fills.
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
    let from = (field.dims(), src_r);
    write_region(
        field,
        dst_r,
        from,
        // The source is this field's: constant wherever the zone covers it.
        |_, z, zone_from| z >= zone_from,
        |d, _, r, n| d.copy_within(r.src..r.src + n, r.dst),
    );
}

/// Fill region `r` of `field` with the constant `v` (a Dirichlet ghost
/// layer).
pub(crate) fn fill_region<const NC: usize>(field: &mut SoaField<NC>, r: Region, v: [f64; NC]) {
    let here = (field.dims(), r);
    let zone = field.const_zone().1.map(f64::to_bits);
    write_region(
        field,
        r,
        here,
        |c, _, _| v[c].to_bits() == zone[c],
        |d, c, r, n| d[r.dst..r.dst + n].fill(v[c]),
    );
}

/// Pack an arbitrary region (component-major, then z, y, x).
pub fn pack_region<const NC: usize>(field: &SoaField<NC>, r: Region, buf: &mut Vec<f64>) {
    let s = field.raw();
    buf.clear();
    buf.reserve(r.volume() * NC);
    match row_len(r) {
        1 => for_each_row_of(NC, field.dims(), r, |i| buf.push(s[i])),
        n => for_each_row_of(NC, field.dims(), r, |i| buf.extend_from_slice(&s[i..i + n])),
    }
}

/// Unpack into an arbitrary region (inverse of [`pack_region`]).
pub fn unpack_region<const NC: usize>(field: &mut SoaField<NC>, r: Region, data: &[f64]) {
    assert_eq!(data.len(), r.volume() * NC, "ghost message length mismatch");
    let here = (field.dims(), r);
    let mut pos = 0;
    write_region(
        field,
        r,
        here,
        |_, _, _| false,
        |d, _, r, n| {
            d[r.dst..r.dst + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        },
    );
}

/// Bytes of a face's wire header: the planes sent, then the sender's zone
/// value per component.
const fn header_len(nc: usize) -> usize {
    8 * (1 + nc)
}

/// Wire bytes of one z plane of `r` with `nc` components.
fn plane_bytes(r: Region, nc: usize) -> usize {
    row_len(r) * (r.range[1][1] - r.range[1][0]) * nc * 8
}

/// One wire value.
fn le_f64(b: &[u8]) -> f64 {
    f64::from_le_bytes(b.try_into().expect("8-byte chunk"))
}

/// The planes-sent count at the start of a wire header.
fn planes_sent(header: &[u8]) -> u64 {
    u64::from_le_bytes(header[..8].try_into().expect("8-byte count"))
}

/// Append a region's wire form to `out`: a header holding the number of z
/// planes sent (`u64`) and `field`'s constant-zone value per component
/// (`f64`), then the little-endian bytes of the doubles [`pack_region`]
/// would produce for the planes below that zone, in one pass. The planes
/// from the zone up hold the header's value and are not sent. Several
/// regions appended to one buffer make one frame; reserve their
/// [`wire_capacity`] first and nothing reallocates.
pub fn pack_region_bytes<const NC: usize>(field: &SoaField<NC>, r: Region, out: &mut Vec<u8>) {
    let s = field.raw();
    let (from, val) = field.const_zone();
    let [z0, z1] = r.range[2];
    let planes = from.clamp(z0, z1) - z0;
    let mut sent = r;
    sent.range[2][1] = z0 + planes;
    out.reserve(header_len(NC) + planes * plane_bytes(r, NC));
    out.extend_from_slice(&(planes as u64).to_le_bytes());
    for v in val {
        out.extend_from_slice(&v.to_le_bytes());
    }
    match row_len(r) {
        1 => for_each_row_of(NC, field.dims(), sent, |i| {
            out.extend_from_slice(&s[i].to_le_bytes())
        }),
        n => for_each_row_of(NC, field.dims(), sent, |i| {
            let at = out.len();
            out.resize(at + 8 * n, 0);
            for (b, v) in out[at..].chunks_exact_mut(8).zip(&s[i..i + n]) {
                b.copy_from_slice(&v.to_le_bytes());
            }
        }),
    }
}

/// Most bytes the wire forms of `regions` take with `NC` components: every
/// plane sent, plus the headers.
pub fn wire_capacity<const NC: usize>(regions: impl IntoIterator<Item = Region>) -> usize {
    regions
        .into_iter()
        .map(|r| header_len(NC) + r.volume() * NC * 8)
        .sum()
}

/// Length in bytes of the wire forms of `regions`, one after the other, at
/// the start of `frame`, read from their headers. A frame is well formed
/// when this is its whole length.
///
/// # Panics
/// Panics with "ghost message length mismatch" if a header is cut off,
/// announces more planes than its region has, or its rows run past the end
/// of `frame`.
pub fn wire_len<const NC: usize>(frame: &[u8], regions: impl IntoIterator<Item = Region>) -> usize {
    let mut at = 0;
    for r in regions {
        let planes = frame.get(at..at + header_len(NC)).map(planes_sent);
        let nz = (r.range[2][1] - r.range[2][0]) as u64;
        // Bounded by the region before it is multiplied.
        let Some(planes) = planes.filter(|&p| p <= nz) else {
            panic!("ghost message length mismatch");
        };
        at += header_len(NC) + planes as usize * plane_bytes(r, NC);
        assert!(at <= frame.len(), "ghost message length mismatch");
    }
    at
}

/// Unpack the wire form produced by [`pack_region_bytes`] at the start of
/// `bytes` into a region, in one pass and without staging: the planes sent
/// are read, the others take the header's value, and a plane in `field`'s
/// constant zone that already holds it is not written. Returns the bytes
/// the wire form took; the next face of a frame starts there.
///
/// # Panics
/// Panics if `bytes` does not start with a well-formed wire form of `r`
/// (see [`wire_len`]).
pub fn unpack_region_bytes<const NC: usize>(
    field: &mut SoaField<NC>,
    r: Region,
    bytes: &[u8],
) -> usize {
    let len = wire_len::<NC>(bytes, [r]);
    let val: [f64; NC] = core::array::from_fn(|c| le_f64(&bytes[8 * (c + 1)..][..8]));
    let dims = field.dims();
    let zone = field.const_zone().1.map(f64::to_bits);
    // The first slab that was not sent, and where it starts in each
    // component's storage: a row at or past that offset was not sent.
    let sent_end = r.range[2][0] + planes_sent(bytes) as usize;
    let unsent: [usize; NC] = core::array::from_fn(|c| c * dims.volume() + sent_end * dims.sz());
    let mut pos = header_len(NC);
    write_region(
        field,
        r,
        (dims, r),
        |c, z, _| z >= sent_end && val[c].to_bits() == zone[c],
        |d, c, row, n| {
            let cells = &mut d[row.dst..row.dst + n];
            if row.dst >= unsent[c] {
                cells.fill(val[c]);
            } else {
                for (cell, b) in cells
                    .iter_mut()
                    .zip(bytes[pos..pos + 8 * n].chunks_exact(8))
                {
                    *cell = le_f64(b);
                }
                pos += 8 * n;
            }
        },
    );
    len
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
        for face in Face::ALL {
            copy_region_within(
                &mut via_msgs,
                send_region(d, face),
                recv_region(d, face.opposite()),
            );
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
        for face in Face::ALL {
            copy_region_within(
                &mut f,
                send_region(d, face),
                recv_region(d, face.opposite()),
            );
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
