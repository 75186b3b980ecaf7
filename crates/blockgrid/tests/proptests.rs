//! Property-based tests for fields, boundary handling and ghost exchange.

use eutectica_blockgrid::boundary::{Bc, BoundarySpec};
use eutectica_blockgrid::field::SoaField;
use eutectica_blockgrid::ghost::{
    copy_region, copy_region_within, local_periodic_exchange, pack, pack_region, pack_region_bytes,
    recv_region, recv_region_plain, send_region, send_region_plain, unpack, unpack_region,
    unpack_region_bytes,
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
/// other field of swaps and face copies).
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
    match ops.below(16) {
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
        _ => {
            let mut spec = BoundarySpec::uniform(Bc::Comm);
            for face in Face::ALL {
                spec = spec.with_face(face, ops.bc());
            }
            spec.apply(f);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The constant-slab summary is kept true by the container: after any
    /// sequence of public mutators and region writers a full scan confirms
    /// it on both fields — and the rows a writer skipped because of it hold
    /// what an unsummarized twin, which skips nothing, was given.
    /// (Mutation-checked: deleting any one summary-maintenance line of
    /// `field.rs`, `ghost.rs` or `boundary.rs` — 11 of them — fails the
    /// scan, and loosening either skip condition fails the twin.)
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

    /// The staging-free transfers — region→region copy between two fields,
    /// the same inside one field, and single-pass wire packing — leave every
    /// cell of the receiver exactly as `pack` + `unpack` does, for every
    /// face, sequenced and plain regions.
    #[test]
    fn direct_transfers_equal_pack_unpack(
        dims in arb_flat_dims(),
        seed in any::<u64>(),
        face_id in 0usize..6,
        plain in any::<bool>(),
    ) {
        let face = Face::ALL[face_id];
        let (send, recv) = if plain {
            (send_region_plain(dims, face), recv_region_plain(dims, face.opposite()))
        } else {
            (send_region(dims, face), recv_region(dims, face.opposite()))
        };
        let src = poisoned_ghosts(dims, seed);
        let dst = poisoned_ghosts(dims, seed.wrapping_add(1));
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

        // Appending keeps what the buffer held.
        let mut wire = vec![0xa5; 3];
        pack_region_bytes(&src, send, &mut wire);
        let staged_wire: Vec<u8> = staged.iter().flat_map(|v| v.to_le_bytes()).collect();
        prop_assert_eq!(&wire[..3], &[0xa5; 3]);
        prop_assert_eq!(&wire[3..], &staged_wire[..]);
        let mut unpacked = dst.clone();
        unpack_region_bytes(&mut unpacked, recv, &wire[3..]);
        prop_assert_eq!(bits(&unpacked), bits(&want));

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
        for axis in 0..3 {
            local_periodic_exchange(&mut via_msgs, axis);
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
