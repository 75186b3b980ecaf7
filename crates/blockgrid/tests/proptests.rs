//! Property-based tests for fields, boundary handling and ghost exchange.

use eutectica_blockgrid::boundary::{Bc, BoundarySpec};
use eutectica_blockgrid::field::SoaField;
use eutectica_blockgrid::ghost::{
    copy_region, copy_region_within, pack, pack_region, pack_region_bytes, recv_region,
    recv_region_plain, send_region, send_region_plain, unpack, unpack_region, unpack_region_bytes,
};
use eutectica_blockgrid::{Face, GridDims};
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = GridDims> {
    (2usize..6, 2usize..6, 2usize..6, 1usize..3)
        .prop_map(|(nx, ny, nz, g)| GridDims::new(nx, ny, nz, g))
}

fn filled_field(dims: GridDims, seed: u64) -> SoaField<3> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut f = SoaField::<3>::new(dims, [0.0; 3]);
    for c in 0..3 {
        for v in f.comp_mut(c) {
            *v = rng.random_range(-10.0..10.0);
        }
    }
    f
}

/// Non-cubic geometries down to one cell on an axis (never thinner than
/// the ghost width, which a face message needs).
fn arb_flat_dims() -> impl Strategy<Value = GridDims> {
    (1usize..3, 0usize..5, 0usize..5, 0usize..5)
        .prop_map(|(g, dx, dy, dz)| GridDims::new(g + dx, g + dy, g + dz, g))
}

/// `filled_field` with every ghost cell overwritten by a NaN whose payload
/// is its own index, so a cell the exchange skipped, wrote twice from the
/// wrong place or wrote outside its region differs from the reference.
fn poisoned_ghosts(dims: GridDims, seed: u64) -> SoaField<3> {
    let mut f = filled_field(dims, seed);
    let g = dims.ghost;
    let interior = |v: usize, n: usize| (g..g + n).contains(&v);
    for c in 0..3 {
        for i in 0..dims.volume() {
            let (x, y, z) = dims.coords(i);
            if !(interior(x, dims.nx) && interior(y, dims.ny) && interior(z, dims.nz)) {
                f.comp_mut(c)[i] =
                    f64::from_bits(0x7ff8_0000_0000_0000 | (c * dims.volume() + i) as u64);
            }
        }
    }
    f
}

fn bits(f: &SoaField<3>) -> Vec<u64> {
    f.raw().iter().map(|v| v.to_bits()).collect()
}

/// The two cell values the summary test draws from: `ZONE`, which fields
/// start out constant in, and one other. Few values make zones survive and
/// regrow, so the invariant is tested where it is not vacuous.
const ZONE: [f64; 3] = [0.0, -0.0, 1.0];
const OTHER: [f64; 3] = [0.5, 0.0, 1.0];

/// xorshift64* — the op stream of the summary test follows from one seed.
struct Ops(u64);

impl Ops {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn cell(&mut self) -> [f64; 3] {
        if self.below(3) == 0 {
            OTHER
        } else {
            ZONE
        }
    }

    fn bc(&mut self) -> Bc<3> {
        match self.below(4) {
            0 => Bc::Comm,
            1 => Bc::Periodic,
            2 => Bc::Neumann,
            _ => Bc::Dirichlet(self.cell()),
        }
    }
}

/// Apply one random public mutator or region writer to `f` (`peer` is the
/// other field of swaps, copies and face copies).
fn mutate(ops: &mut Ops, f: &mut SoaField<3>, peer: &mut SoaField<3>) {
    let d = f.dims();
    let (x, y, z) = (ops.below(d.tx()), ops.below(d.ty()), ops.below(d.tz()));
    let face = Face::ALL[ops.below(6)];
    let (send, recv) = if ops.below(2) == 0 {
        (send_region(d, face), recv_region(d, face.opposite()))
    } else {
        (
            send_region_plain(d, face),
            recv_region_plain(d, face.opposite()),
        )
    };
    match ops.below(17) {
        0 => f.set(ops.below(3), x, y, z, ops.cell()[ops.below(3)]),
        1 => f.set_cell(x, y, z, ops.cell()),
        2 => f.comp_mut(ops.below(3))[d.idx(x, y, z)] = ops.cell()[0],
        3 => f.comps_mut()[ops.below(3)][d.idx(x, y, z)] = ops.cell()[0],
        4 => f.raw_mut()[ops.below(3 * d.volume())] = ops.cell()[0],
        5 => {
            // Anything below slab z + 1 may be written.
            let c = ops.below(3);
            f.comps_mut_below(z + 1)[c][d.idx(x, y, z)] = ops.cell()[c];
        }
        6 => f.extend_const_zone(z, ops.cell()),
        7 => f.tighten(),
        8 => f.swap(peer),
        9 => f.shift_z_down(ops.cell()),
        10 => copy_region(peer, send, f, recv),
        11 => copy_region_within(f, send, recv),
        12 => {
            let mut staged = Vec::new();
            pack_region(peer, send, &mut staged);
            unpack_region(f, recv, &staged);
        }
        13 => {
            let mut wire = Vec::new();
            pack_region_bytes(peer, send, &mut wire);
            unpack_region_bytes(f, recv, &wire);
        }
        14 => BoundarySpec::uniform(ops.bc()).apply(f),
        15 => f.clone_from(peer),
        _ => {
            let mut spec = BoundarySpec::uniform(Bc::Comm);
            for face in Face::ALL {
                spec = spec.with_face(face, ops.bc());
            }
            spec.apply(f);
        }
    }
}

/// Dirichlet values of the boundary reference test: the zone's own value,
/// one that differs from it in the sign bits of two components only, one
/// with a NaN payload, and another.
fn dirichlet_values() -> [[f64; 3]; 4] {
    let nan = f64::from_bits(0x7ff8_0000_0000_beef);
    [ZONE, [-0.0, -0.0, -0.0], [nan, 1.0, -0.0], OTHER]
}

/// `BoundarySpec { faces }.apply` computed cell by cell from the
/// definitions, on a copy of `f`'s storage: faces in the order x, y, z, low
/// before high; on each ghost layer `l` of a face, over the full
/// transverse extent, a periodic cell takes the interior cell `n` layers
/// away across the axis, a zero-gradient cell the nearest interior layer,
/// and a Dirichlet cell the face's value.
fn boundary_reference(f: &SoaField<3>, faces: &[Bc<3>; 6]) -> Vec<u64> {
    let d = f.dims();
    let (g, vol, n) = (d.ghost, d.volume(), [d.nx, d.ny, d.nz]);
    let mut v = f.raw().to_vec();
    for (k, bc) in faces.iter().enumerate() {
        let (a, high) = (k / 2, k % 2 == 1);
        for l in 0..g {
            let layer = if high { n[a] + g + l } else { l };
            let src_layer = match bc {
                Bc::Periodic if high => g + l,
                Bc::Periodic => n[a] + l,
                Bc::Neumann if high => n[a] + g - 1,
                _ => g,
            };
            for i in 0..vol {
                let (x, y, z) = d.coords(i);
                let mut p = [x, y, z];
                if p[a] != layer {
                    continue;
                }
                p[a] = src_layer;
                let src = d.idx(p[0], p[1], p[2]);
                for c in 0..3 {
                    match bc {
                        Bc::Comm => {}
                        Bc::Dirichlet(val) => v[c * vol + i] = val[c],
                        _ => v[c * vol + i] = v[c * vol + src],
                    }
                }
            }
        }
    }
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The constant-slab summary is kept true by the container: after any
    /// sequence of public mutators and region writers a full scan confirms
    /// it on both fields — and the rows a writer skipped because of it hold
    /// what an unsummarized twin, which skips nothing, was given.
    /// (Mutation-checked: deleting any one summary-maintenance line of
    /// `field.rs` or of `ghost.rs`'s one region writer — 8 of them — fails
    /// the scan, and loosening the skip condition of any of the writer's
    /// sources fails the twin. CI's `zone-mutation` step repeats this for
    /// the writer's zone-ending statement.)
    #[test]
    fn summary_survives_any_mutator_sequence(dims in arb_flat_dims(), seed in any::<u64>()) {
        let mut ops = Ops(seed | 1);
        let mut fields = [SoaField::<3>::new(dims, ZONE), SoaField::<3>::new(dims, ZONE)];
        let mut twins = fields.clone();
        let mut zone_slabs = 0;
        for step in 0..120 {
            let k = ops.below(2);
            let (a, b) = fields.split_at_mut(1);
            let (f, peer) = if k == 0 { (&mut a[0], &mut b[0]) } else { (&mut b[0], &mut a[0]) };
            let (a, b) = twins.split_at_mut(1);
            let (tf, tpeer) = if k == 0 { (&mut a[0], &mut b[0]) } else { (&mut b[0], &mut a[0]) };
            // The twins forget their summaries before every op, so none of
            // their writers ever skips a row.
            tf.raw_mut();
            tpeer.raw_mut();
            let mut twin_ops = Ops(ops.0);
            mutate(&mut ops, f, peer);
            mutate(&mut twin_ops, tf, tpeer);
            for (i, (f, t)) in fields.iter().zip(&twins).enumerate() {
                prop_assert!(f.summary_holds(), "field {} after op {} (seed {})", i, step, seed);
                prop_assert_eq!(bits(f), bits(t), "field {} after op {} (seed {})", i, step, seed);
                zone_slabs += dims.tz() - f.const_zone().0;
            }
        }
        prop_assert!(zone_slabs > 0, "no zone ever survived: the test checks nothing");
    }

    /// A new field holds exactly what a buffer filled with its initial
    /// values does — `+0.0` components it does not write, `-0.0` and other
    /// values it does — and is one constant zone of them.
    #[test]
    fn new_field_holds_its_initial_values(dims in arb_flat_dims(), pick in prop::array::uniform3(0usize..4)) {
        let nan = f64::from_bits(0x7ff8_0000_0000_beef);
        let init = pick.map(|i| [0.0, -0.0, 1.5, nan][i]);
        let f = SoaField::<3>::new(dims, init);
        let want: Vec<u64> = init
            .iter()
            .flat_map(|v| vec![*v; dims.volume()])
            .map(f64::to_bits)
            .collect();
        prop_assert_eq!(bits(&f), want, "init {:?}", init);
        prop_assert!(f.summary_holds());
        let (from, val) = f.const_zone();
        prop_assert_eq!(from, 0);
        prop_assert_eq!(val.map(f64::to_bits), init.map(f64::to_bits));
    }

    /// Boundary fills write exactly what the cell-by-cell reference does,
    /// bit for bit (-0.0 and NaN payloads included), for any mix of the
    /// four conditions, with and without a constant zone, and keep the
    /// field's summary true.
    #[test]
    fn boundary_fills_match_a_cellwise_reference(
        dims in arb_flat_dims(),
        seed in any::<u64>(),
        zoned in any::<bool>(),
    ) {
        let mut ops = Ops(seed | 1);
        let mut f = poisoned_ghosts(dims, seed);
        if zoned {
            f.extend_const_zone(ops.below(dims.tz()), ZONE);
        }
        let faces = [(); 6].map(|_| match ops.below(4) {
            0 => Bc::Comm,
            1 => Bc::Periodic,
            2 => Bc::Neumann,
            _ => Bc::Dirichlet(dirichlet_values()[ops.below(4)]),
        });
        let want = boundary_reference(&f, &faces);
        BoundarySpec { faces }.apply(&mut f);
        prop_assert_eq!(bits(&f), want, "faces {:?}, seed {}", faces, seed);
        prop_assert!(f.summary_holds(), "faces {:?}, seed {}", faces, seed);
    }

    /// The staging-free transfers — region→region copy between two fields,
    /// the same inside one field, and single-pass wire packing — leave every
    /// cell of the receiver exactly as `pack` + `unpack` does, for every
    /// face, sequenced and plain regions, with the sender's constant zone
    /// starting at any slab (below, inside or above the region) and the
    /// receiver's zone absent, of the sender's value, or of a value that
    /// differs from it only in the sign of a zero or the payload of a NaN.
    /// The wire form is the header (planes sent, the sender's zone value)
    /// and the staged rows of the planes below the sender's zone.
    #[test]
    fn direct_transfers_equal_pack_unpack(
        dims in arb_flat_dims(),
        seed in any::<u64>(),
        face_id in 0usize..6,
        plain in any::<bool>(),
        src_zone in any::<usize>(),
        dst_zone in any::<usize>(),
        dst_kind in 0usize..4,
    ) {
        let face = Face::ALL[face_id];
        let (send, recv) = if plain {
            (send_region_plain(dims, face), recv_region_plain(dims, face.opposite()))
        } else {
            (send_region(dims, face), recv_region(dims, face.opposite()))
        };
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        let val = [0.0, 1.5, nan(1)];
        let dst_val = match dst_kind {
            1 => val,
            2 => [-0.0, 1.5, nan(1)],
            _ => [0.0, 1.5, nan(2)],
        };
        let (src_from, dst_from) = (src_zone % (dims.tz() + 1), dst_zone % (dims.tz() + 1));
        let mut src = poisoned_ghosts(dims, seed);
        src.extend_const_zone(src_from, val);
        let mut dst = poisoned_ghosts(dims, seed.wrapping_add(1));
        if dst_kind > 0 {
            dst.extend_const_zone(dst_from, dst_val);
        }
        let mut staged = Vec::new();

        // Reference: the public face API where it applies, regions otherwise.
        let mut want = dst.clone();
        if plain {
            pack_region(&src, send, &mut staged);
            unpack_region(&mut want, recv, &staged);
        } else {
            pack(&src, face, &mut staged);
            unpack(&mut want, face.opposite(), &staged);
        }

        let mut copied = dst.clone();
        copy_region(&src, send, &mut copied, recv);
        prop_assert_eq!(bits(&copied), bits(&want));

        // The wire form, built from its definition. Appending keeps what
        // the buffer held.
        let [z0, z1] = send.range[2];
        let planes = src_from.clamp(z0, z1) - z0;
        let per_comp = send.volume();
        let per_plane = per_comp / (z1 - z0);
        let mut expected: Vec<u8> = (planes as u64).to_le_bytes().to_vec();
        let (_, sent_val) = src.const_zone();
        expected.extend(sent_val.iter().flat_map(|v| v.to_le_bytes()));
        for c in 0..3 {
            let rows = &staged[c * per_comp..][..planes * per_plane];
            expected.extend(rows.iter().flat_map(|v| v.to_le_bytes()));
        }
        let mut wire = vec![0xa5; 3];
        pack_region_bytes(&src, send, &mut wire);
        prop_assert_eq!(&wire[..3], &[0xa5; 3]);
        prop_assert_eq!(&wire[3..], &expected[..]);
        let mut unpacked = dst.clone();
        prop_assert_eq!(unpack_region_bytes(&mut unpacked, recv, &wire[3..]), expected.len());
        prop_assert_eq!(bits(&unpacked), bits(&want));
        prop_assert!(unpacked.summary_holds());

        // A block that is its own neighbor: sender and receiver coincide.
        let mut want_within = src.clone();
        unpack_region(&mut want_within, recv, &staged);
        let mut within = src.clone();
        copy_region_within(&mut within, send, recv);
        prop_assert_eq!(bits(&within), bits(&want_within));
    }

    /// Pack → unpack into the opposite face reproduces exactly the values a
    /// periodic BoundarySpec would write (the messages implement periodic
    /// wrap correctly for every geometry and ghost width).
    #[test]
    fn exchange_equals_periodic_bc(dims in arb_dims(), seed in any::<u64>()) {
        let mut via_msgs = filled_field(dims, seed);
        for face in Face::ALL {
            copy_region_within(&mut via_msgs, send_region(dims, face), recv_region(dims, face.opposite()));
        }
        let mut via_bc = filled_field(dims, seed);
        BoundarySpec::uniform(Bc::Periodic).apply(&mut via_bc);
        for c in 0..3 {
            prop_assert_eq!(via_msgs.comp(c), via_bc.comp(c));
        }
    }

    /// A pack/unpack round trip through any face writes exactly the packed
    /// data (no corruption, no out-of-region writes).
    #[test]
    fn pack_unpack_preserves_everything_else(dims in arb_dims(), seed in any::<u64>(), face_id in 0usize..6) {
        let face = Face::ALL[face_id];
        let src = filled_field(dims, seed);
        let mut dst = filled_field(dims, seed.wrapping_add(1));
        let before = dst.clone();
        let mut buf = Vec::new();
        pack(&src, face, &mut buf);
        unpack(&mut dst, face.opposite(), &buf);
        // Cells outside the receive region are untouched.
        let region = recv_region(dims, face.opposite());
        for z in 0..dims.tz() {
            for y in 0..dims.ty() {
                for x in 0..dims.tx() {
                    let inside = (region.range[0][0]..region.range[0][1]).contains(&x)
                        && (region.range[1][0]..region.range[1][1]).contains(&y)
                        && (region.range[2][0]..region.range[2][1]).contains(&z);
                    for c in 0..3 {
                        if !inside {
                            prop_assert_eq!(dst.at(c, x, y, z), before.at(c, x, y, z));
                        }
                    }
                }
            }
        }
    }

    /// Send and receive regions of paired faces have matching shapes, so
    /// any two equal blocks can exchange.
    #[test]
    fn paired_regions_have_equal_volume(dims in arb_dims(), face_id in 0usize..6) {
        let face = Face::ALL[face_id];
        let s = send_region(dims, face);
        let r = recv_region(dims, face.opposite());
        prop_assert_eq!(s.volume(), r.volume());
        for axis in 0..3 {
            prop_assert_eq!(
                s.range[axis][1] - s.range[axis][0],
                r.range[axis][1] - r.range[axis][0]
            );
        }
    }

    /// pack_region/unpack_region round-trip over the same region is the
    /// identity.
    #[test]
    fn region_roundtrip_is_identity(dims in arb_dims(), seed in any::<u64>(), face_id in 0usize..6) {
        let face = Face::ALL[face_id];
        let region = send_region(dims, face);
        let f = filled_field(dims, seed);
        let mut buf = Vec::new();
        pack_region(&f, region, &mut buf);
        let mut g = f.clone();
        unpack_region(&mut g, region, &buf);
        for c in 0..3 {
            prop_assert_eq!(f.comp(c), g.comp(c));
        }
    }

    /// shift_z_down drops the bottom slice, keeps the order of the rest and
    /// fills the top with the given value.
    #[test]
    fn shift_preserves_slice_order(dims in arb_dims(), seed in any::<u64>(), fill in -5.0..5.0f64) {
        let f = filled_field(dims, seed);
        let mut shifted = f.clone();
        shifted.shift_z_down([fill; 3]);
        let g = dims.ghost;
        for z in 0..dims.nz - 1 {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    for c in 0..3 {
                        prop_assert_eq!(
                            shifted.at(c, x + g, y + g, z + g),
                            f.at(c, x + g, y + g, z + g + 1)
                        );
                    }
                }
            }
        }
        for y in 0..dims.ny {
            for x in 0..dims.nx {
                for c in 0..3 {
                    prop_assert_eq!(shifted.at(c, x + g, y + g, g + dims.nz - 1), fill);
                }
            }
        }
    }

    /// SoA ↔ AoS conversion round-trips exactly.
    #[test]
    fn layout_roundtrip(dims in arb_dims(), seed in any::<u64>()) {
        let f = filled_field(dims, seed);
        let back = f.to_aos().to_soa();
        for c in 0..3 {
            prop_assert_eq!(f.comp(c), back.comp(c));
        }
    }
}
