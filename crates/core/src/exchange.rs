//! Precomputed ghost-exchange plan of one rank.
//!
//! Which faces a rank exchanges, with whom, over which cell regions and
//! under which tags depends only on the decomposition and the current
//! block→rank placement, so it is worked out once — in
//! [`ExchangePlan::build`], called wherever the placement changes — and a
//! time step only walks flat lists:
//!
//! * a face shared by two blocks of this rank is one strided region→region
//!   copy between the two fields (waLBerla's `communicateLocal`), with no
//!   staging buffer and no allocation;
//! * the faces a phase shares with one other rank travel as one message
//!   (waLBerla's per-neighbour buffer): each face is packed in one pass from
//!   the field into the peer's frame and unpacked in one pass from the
//!   received frame into the ghost cells.
//!
//! The plan holds one list set per exchange phase: the sequenced x, y and z
//! phases (each covering the ghosts filled by the phases before it, so edges
//! and corners arrive with six face transfers per block) and the plain
//! phase (all six faces, face ghosts only, mutually independent). Within a
//! phase every transfer reads only interior layers along its own axis and
//! writes only ghost layers along it, so the order of a phase's transfers
//! cannot change the result. Regions do not depend on the component count,
//! so φ and µ share them; the four fields differ in their tag range only.
//!
//! A frame is tagged by (field, phase) and lists its faces in the sender's
//! (block id, face) order, which both ends derive from global ids alone.
//! Each face is its wire form ([`ghost::pack_region_bytes`]): a small header
//! with the planes sent and the sender's constant-zone value, then the rows
//! below that zone only, so a face's length follows the front, not the
//! block. The receiver walks all headers of a frame against its regions
//! ([`ghost::wire_len`]) before it writes a single ghost cell.
//!
//! [`ExchangePlan::post`] and [`ExchangePlan::finish`] return the bytes
//! they moved, from which the time loop keeps its per-field traffic
//! counters. The transport only counts totals.

use bytes::Bytes;
use eutectica_blockgrid::decomp::Decomposition;
use eutectica_blockgrid::field::SoaField;
use eutectica_blockgrid::ghost::{self, Region};
use eutectica_blockgrid::Face;
use eutectica_comm::Rank;

use crate::state::BlockState;

/// Which field a ghost exchange operates on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum FieldSel {
    PhiSrc,
    PhiDst,
    MuSrc,
    MuDst,
}

impl FieldSel {
    /// In tag-range order.
    pub(crate) const ALL: [FieldSel; 4] = [
        FieldSel::PhiSrc,
        FieldSel::PhiDst,
        FieldSel::MuSrc,
        FieldSel::MuDst,
    ];

    /// Telemetry counters of this field's ghost traffic: bytes sent, bytes
    /// received.
    pub(crate) fn counters(self) -> [&'static str; 2] {
        match self {
            FieldSel::PhiSrc => ["comm/phi_src/bytes_sent", "comm/phi_src/bytes_received"],
            FieldSel::PhiDst => ["comm/phi_dst/bytes_sent", "comm/phi_dst/bytes_received"],
            FieldSel::MuSrc => ["comm/mu_src/bytes_sent", "comm/mu_src/bytes_received"],
            FieldSel::MuDst => ["comm/mu_dst/bytes_sent", "comm/mu_dst/bytes_received"],
        }
    }
}

/// One set of faces exchanged together.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Both faces of one axis, transverse extent per the x → y → z rule.
    Axis(usize),
    /// All six faces, interior transverse extent.
    Plain,
}

impl Phase {
    const ALL: [Phase; 4] = [Phase::Axis(0), Phase::Axis(1), Phase::Axis(2), Phase::Plain];

    fn index(self) -> usize {
        match self {
            Phase::Axis(axis) => axis,
            Phase::Plain => 3,
        }
    }

    fn faces(self) -> &'static [Face] {
        match self {
            Phase::Axis(axis) => &Face::ALL[2 * axis..2 * axis + 2],
            Phase::Plain => &Face::ALL,
        }
    }
}

/// A face between two blocks of this rank (`src == dst` for a block that is
/// its own periodic neighbor). Blocks are local indices.
struct LocalCopy {
    src: usize,
    send: Region,
    dst: usize,
    recv: Region,
}

/// One direction of a face shared with another rank.
struct RemoteFace {
    block: usize,
    region: Region,
}

/// One message of a phase: every face shared with `peer`, in the sender's
/// (block id, face) order.
struct Frame {
    peer: usize,
    faces: Vec<RemoteFace>,
}

impl Frame {
    /// Group `(peer, sender tag, local block, region)` entries into one
    /// frame per peer, faces in sender-tag order.
    fn group(mut faces: Vec<(usize, usize, usize, Region)>) -> Vec<Frame> {
        faces.sort_unstable_by_key(|&(peer, tag, ..)| (peer, tag));
        faces
            .chunk_by(|a, b| a.0 == b.0)
            .map(|peer_faces| Frame {
                peer: peer_faces[0].0,
                faces: peer_faces
                    .iter()
                    .map(|&(_, _, block, region)| RemoteFace { block, region })
                    .collect(),
            })
            .collect()
    }
}

#[derive(Default)]
struct PhasePlan {
    local: Vec<LocalCopy>,
    sends: Vec<Frame>,
    recvs: Vec<Frame>,
}

/// Every ghost transfer of one rank, per [`Phase`]. Valid for the placement
/// and local block order it was built from.
pub(crate) struct ExchangePlan {
    phases: [PhasePlan; 4],
    /// Width of one field's tag range: six faces per block of the domain
    /// (of which the frames use one tag per phase).
    tags_per_field: u32,
}

impl ExchangePlan {
    /// Plan the exchange of rank `my`, whose local blocks are `blocks`
    /// (global ids `local_ids`, same order) under `placement`.
    pub(crate) fn build(
        decomp: &Decomposition,
        placement: &[usize],
        local_ids: &[usize],
        blocks: &[BlockState],
        my: usize,
    ) -> Self {
        let mut local_index = vec![None; placement.len()];
        for (li, &id) in local_ids.iter().enumerate() {
            local_index[id] = Some(li);
        }
        let mut phases: [PhasePlan; 4] = Default::default();
        for phase in Phase::ALL {
            let plan = &mut phases[phase.index()];
            let regions = |block: &BlockState, face: Face| match phase {
                Phase::Axis(_) => (
                    ghost::send_region(block.dims, face),
                    ghost::recv_region(block.dims, face),
                ),
                Phase::Plain => (
                    ghost::send_region_plain(block.dims, face),
                    ghost::recv_region_plain(block.dims, face),
                ),
            };
            // Remote faces keyed by (peer, the sending block's id · 6 + face).
            let (mut sends, mut recvs) = (Vec::new(), Vec::new());
            for (li, &id) in local_ids.iter().enumerate() {
                for &face in phase.faces() {
                    let Some(nb) = decomp.block(id).neighbors[face as usize] else {
                        continue;
                    };
                    let (send, recv) = regions(&blocks[li], face);
                    let peer = placement[nb];
                    if peer == my {
                        let dst = local_index[nb].expect("a block placed on this rank is local");
                        plan.local.push(LocalCopy {
                            src: li,
                            send,
                            dst,
                            recv: regions(&blocks[dst], face.opposite()).1,
                        });
                    } else {
                        sends.push((peer, id * 6 + face as usize, li, send));
                        recvs.push((peer, nb * 6 + face.opposite() as usize, li, recv));
                    }
                }
            }
            plan.sends = Frame::group(sends);
            plan.recvs = Frame::group(recvs);
        }
        Self {
            phases,
            tags_per_field: 6 * decomp.blocks().len() as u32,
        }
    }

    /// First tag above the ghost-exchange tag space.
    pub(crate) fn tag_space(&self) -> u32 {
        4 * self.tags_per_field
    }

    /// The tag of `field`'s frames in `phase`.
    fn tag(&self, field: FieldSel, phase: Phase) -> u32 {
        field as u32 * self.tags_per_field + phase.index() as u32
    }

    /// Start `phase` for `field`: send one frame per peer, then apply the
    /// same-rank copies. Complete it with [`ExchangePlan::finish`]. Returns
    /// the wire bytes sent.
    pub(crate) fn post(
        &self,
        blocks: &mut [BlockState],
        field: FieldSel,
        phase: Phase,
        rank: &Rank,
    ) -> u64 {
        match field {
            FieldSel::PhiSrc => self.post_on(blocks, |b| &mut b.phi_src, field, phase, rank),
            FieldSel::PhiDst => self.post_on(blocks, |b| &mut b.phi_dst, field, phase, rank),
            FieldSel::MuSrc => self.post_on(blocks, |b| &mut b.mu_src, field, phase, rank),
            FieldSel::MuDst => self.post_on(blocks, |b| &mut b.mu_dst, field, phase, rank),
        }
    }

    /// Complete a posted `phase`: receive each peer's frame into the ghost
    /// cells of its faces. Returns the wire bytes received.
    pub(crate) fn finish(
        &self,
        blocks: &mut [BlockState],
        field: FieldSel,
        phase: Phase,
        rank: &Rank,
    ) -> u64 {
        match field {
            FieldSel::PhiSrc => self.finish_on(blocks, |b| &mut b.phi_src, field, phase, rank),
            FieldSel::PhiDst => self.finish_on(blocks, |b| &mut b.phi_dst, field, phase, rank),
            FieldSel::MuSrc => self.finish_on(blocks, |b| &mut b.mu_src, field, phase, rank),
            FieldSel::MuDst => self.finish_on(blocks, |b| &mut b.mu_dst, field, phase, rank),
        }
    }

    fn post_on<const NC: usize>(
        &self,
        blocks: &mut [BlockState],
        field_of: impl Fn(&mut BlockState) -> &mut SoaField<NC>,
        field: FieldSel,
        phase: Phase,
        rank: &Rank,
    ) -> u64 {
        let plan = &self.phases[phase.index()];
        let mut sent = 0;
        for frame in &plan.sends {
            let regions = frame.faces.iter().map(|f| f.region);
            let mut wire = Vec::with_capacity(ghost::wire_capacity::<NC>(regions));
            for f in &frame.faces {
                ghost::pack_region_bytes(field_of(&mut blocks[f.block]), f.region, &mut wire);
            }
            sent += wire.len() as u64;
            rank.isend(frame.peer, self.tag(field, phase), Bytes::from(wire));
        }
        for c in &plan.local {
            if c.src == c.dst {
                ghost::copy_region_within(field_of(&mut blocks[c.src]), c.send, c.recv);
            } else {
                let (src, dst) = pair_mut(blocks, c.src, c.dst);
                ghost::copy_region(field_of(src), c.send, field_of(dst), c.recv);
            }
        }
        sent
    }

    fn finish_on<const NC: usize>(
        &self,
        blocks: &mut [BlockState],
        field_of: impl Fn(&mut BlockState) -> &mut SoaField<NC>,
        field: FieldSel,
        phase: Phase,
        rank: &Rank,
    ) -> u64 {
        let mut received = 0;
        for frame in &self.phases[phase.index()].recvs {
            let wire = rank.wait(rank.irecv(frame.peer, self.tag(field, phase)));
            // Every header is checked before the first ghost write, so a
            // malformed frame writes nothing.
            assert_eq!(
                ghost::wire_len::<NC>(&wire, frame.faces.iter().map(|f| f.region)),
                wire.len(),
                "ghost message length mismatch"
            );
            let mut at = 0;
            for f in &frame.faces {
                at += ghost::unpack_region_bytes(
                    field_of(&mut blocks[f.block]),
                    f.region,
                    &wire[at..],
                );
            }
            received += wire.len() as u64;
        }
        received
    }
}

/// Two distinct elements of a slice, mutably.
fn pair_mut<T>(items: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b, "pair_mut needs two distinct indices");
    if a < b {
        let (lo, hi) = items.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = items.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eutectica_blockgrid::decomp::DomainSpec;
    use eutectica_comm::Universe;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Wire bytes per value.
    const F64: usize = std::mem::size_of::<f64>();

    /// A malformed frame is refused with the length message before a
    /// single ghost cell is written: one value short or long, a header cut
    /// off, a face announcing more planes than its region has (by one, and
    /// by so many that their size would overflow), and a second face whose
    /// rows are missing — which a check face by face would only find after
    /// writing the first.
    #[test]
    fn frame_of_wrong_length_is_refused_before_any_ghost_write() {
        // One block per rank: both x faces of each block go to the other rank.
        let decomp = Decomposition::new(DomainSpec::directional([16, 8, 8], [2, 1, 1]));
        let (field, phase) = (FieldSel::PhiSrc, Phase::Axis(0));
        // An x face of an 8³ block: 8 planes of 8 one-cell rows, φ's 4
        // components; its header is the plane count and 4 values.
        let (nz, plane, header) = (8u64, 8 * 4 * F64, 5 * F64);
        // A face whose header announces `announced` planes, followed by
        // `planes` planes of zero rows.
        let face = |announced: u64, planes: usize| {
            let mut bytes = announced.to_le_bytes().to_vec();
            bytes.resize(header + planes * plane, 0);
            bytes
        };
        let full = face(nz, nz as usize);
        let frames: Vec<(&str, Vec<u8>)> = vec![
            ("short", [&full, &full[..full.len() - F64]].concat()),
            ("long", [&full[..], &full, &[0; F64]].concat()),
            ("header cut off", [&full[..], &full[..header / 2]].concat()),
            (
                "nz + 1 planes",
                [face(nz + 1, nz as usize + 1), face(0, 0)].concat(),
            ),
            ("u64::MAX planes", [face(u64::MAX, 0), face(0, 0)].concat()),
            (
                "second face's rows missing",
                [&full[..], &face(nz, 1)].concat(),
            ),
        ];
        Universe::run(2, move |rank| {
            let my = rank.rank();
            let desc = decomp.block(my);
            let mut blocks = vec![BlockState::new(desc.dims(1), desc.origin)];
            let plan = ExchangePlan::build(&decomp, &[0, 1], &[my], &blocks, my);
            assert_eq!(plan.phases[phase.index()].recvs[0].faces.len(), 2);
            if my == 1 {
                for (_, frame) in &frames {
                    rank.isend(0, plan.tag(field, phase), Bytes::from(frame.clone()));
                }
                return;
            }
            for (i, v) in blocks[0].phi_src.raw_mut().iter_mut().enumerate() {
                *v = i as f64 + 0.5;
            }
            let before = blocks[0].phi_src.raw().to_vec();
            for (what, _) in &frames {
                let err = catch_unwind(AssertUnwindSafe(|| {
                    plan.finish(&mut blocks, field, phase, &rank)
                }))
                .expect_err("a malformed frame must be refused");
                let msg = err
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| err.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(
                    msg.contains("ghost message length mismatch"),
                    "{what}: {msg}"
                );
                let unchanged = blocks[0]
                    .phi_src
                    .raw()
                    .iter()
                    .zip(&before)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(unchanged, "{what}: a ghost cell was written");
            }
        });
    }
}
