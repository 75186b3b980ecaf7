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
//! * a face shared with another rank is packed in one pass from the field
//!   into its wire buffer and unpacked in one pass from the received payload
//!   into the ghost cells.
//!
//! The plan holds one list set per exchange phase: the sequenced x, y and z
//! phases (each covering the ghosts filled by the phases before it, so edges
//! and corners arrive with six messages per block) and the plain phase (all
//! six faces, face ghosts only, mutually independent). Within a phase every
//! transfer reads only interior layers along its own axis and writes only
//! ghost layers along it, so the order of a phase's transfers cannot change
//! the result. Regions do not depend on the component count, so φ and µ
//! share them; the four fields differ in their tag range only.

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
    const ALL: [FieldSel; 4] = [
        FieldSel::PhiSrc,
        FieldSel::PhiDst,
        FieldSel::MuSrc,
        FieldSel::MuDst,
    ];

    /// Name used in per-field traffic accounting.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FieldSel::PhiSrc => "phi_src",
            FieldSel::PhiDst => "phi_dst",
            FieldSel::MuSrc => "mu_src",
            FieldSel::MuDst => "mu_dst",
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

/// One direction of a face shared with another rank. `tag` lacks the
/// field's offset.
struct RemoteFace {
    block: usize,
    region: Region,
    peer: usize,
    tag: u32,
}

#[derive(Default)]
struct PhasePlan {
    local: Vec<LocalCopy>,
    sends: Vec<RemoteFace>,
    recvs: Vec<RemoteFace>,
}

/// Every ghost transfer of one rank, per [`Phase`]. Valid for the placement
/// and local block order it was built from.
pub(crate) struct ExchangePlan {
    phases: [PhasePlan; 4],
    /// Width of one field's tag range: six faces per block of the domain.
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
                        // A message is tagged by its sender's block and face.
                        plan.sends.push(RemoteFace {
                            block: li,
                            region: send,
                            peer,
                            tag: (id * 6 + face as usize) as u32,
                        });
                        plan.recvs.push(RemoteFace {
                            block: li,
                            region: recv,
                            peer,
                            tag: (nb * 6 + face.opposite() as usize) as u32,
                        });
                    }
                }
            }
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

    /// The field whose exchange uses `tag`; `None` above the ghost tag space.
    pub(crate) fn field_of_tag(&self, tag: u32) -> Option<FieldSel> {
        FieldSel::ALL
            .get((tag / self.tags_per_field) as usize)
            .copied()
    }

    fn first_tag(&self, field: FieldSel) -> u32 {
        field as u32 * self.tags_per_field
    }

    /// Start `phase` for `field`: send every remote face, then apply the
    /// same-rank copies. Complete it with [`ExchangePlan::finish`].
    pub(crate) fn post(
        &self,
        blocks: &mut [BlockState],
        field: FieldSel,
        phase: Phase,
        rank: &Rank,
    ) {
        match field {
            FieldSel::PhiSrc => self.post_on(blocks, |b| &mut b.phi_src, field, phase, rank),
            FieldSel::PhiDst => self.post_on(blocks, |b| &mut b.phi_dst, field, phase, rank),
            FieldSel::MuSrc => self.post_on(blocks, |b| &mut b.mu_src, field, phase, rank),
            FieldSel::MuDst => self.post_on(blocks, |b| &mut b.mu_dst, field, phase, rank),
        }
    }

    /// Complete a posted `phase`: receive every remote face into its ghost
    /// cells.
    pub(crate) fn finish(
        &self,
        blocks: &mut [BlockState],
        field: FieldSel,
        phase: Phase,
        rank: &Rank,
    ) {
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
    ) {
        let plan = &self.phases[phase.index()];
        let tag0 = self.first_tag(field);
        for f in &plan.sends {
            let wire = ghost::pack_region_bytes(field_of(&mut blocks[f.block]), f.region);
            rank.isend(f.peer, tag0 + f.tag, Bytes::from(wire));
        }
        for c in &plan.local {
            if c.src == c.dst {
                ghost::copy_region_within(field_of(&mut blocks[c.src]), c.send, c.recv);
            } else {
                let (src, dst) = pair_mut(blocks, c.src, c.dst);
                ghost::copy_region(field_of(src), c.send, field_of(dst), c.recv);
            }
        }
    }

    fn finish_on<const NC: usize>(
        &self,
        blocks: &mut [BlockState],
        field_of: impl Fn(&mut BlockState) -> &mut SoaField<NC>,
        field: FieldSel,
        phase: Phase,
        rank: &Rank,
    ) {
        let tag0 = self.first_tag(field);
        for f in &self.phases[phase.index()].recvs {
            let wire = rank.wait(rank.irecv(f.peer, tag0 + f.tag));
            ghost::unpack_region_bytes(field_of(&mut blocks[f.block]), f.region, &wire);
        }
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
