//! In-memory buddy replicas for diskless shrink recovery.
//!
//! At checkpoint cadence every rank encodes its blocks as `EUTMIG01`
//! frames (the PR 5 migration codec — byte-exact, self-describing) and
//! mirrors each frame into a *buddy* rank's RAM: the next alive rank in
//! the membership ring. When a rank dies, every one of its blocks still
//! exists in exactly one survivor's [`ReplicaStore`], so the shrink
//! recovery driver can re-home and restore lost state without a disk
//! round-trip — the paper's flagship scale makes the parallel filesystem
//! the scarcest resource precisely when everyone is recovering at once.
//!
//! Restore applies frames exactly the way a disk restore applies
//! checkpoint blocks (origin + source fields, dst a copy of src, then a
//! collective ghost refresh), so a buddy-restored run is
//! bit-identical to one restored from the equivalent checkpoint set.

use std::collections::BTreeMap;

use bytes::Bytes;
use eutectica_blockgrid::rebalance::CostEntry;
use eutectica_comm::Tag;
use eutectica_core::migrate;
use eutectica_core::timeloop::DistributedSim;

use crate::ckpt::DEFAULT_BYTE_BUDGET;

/// Tag space: block capture frames ride above the ghost-exchange
/// (`[0, 24·nb)`) and migration (`[24·nb, 25·nb)`) ranges.
fn capture_tag(nb: usize, id: usize) -> Tag {
    (25 * nb + id) as Tag
}

/// Tag space for recovery fetches, above the capture range.
fn fetch_tag(nb: usize, id: usize) -> Tag {
    (26 * nb + id) as Tag
}

/// The buddy of `r` in the alive ring: the next alive rank, cyclically.
/// With a single alive rank the buddy is `r` itself (no redundancy left).
fn buddy_of(alive: &[usize], r: usize) -> usize {
    let i = alive
        .iter()
        .position(|&a| a == r)
        .expect("buddy_of: rank not in the alive set");
    alive[(i + 1) % alive.len()]
}

/// Progress metadata of the captured state, mirroring a checkpoint
/// manifest's step/time/window fields.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReplicaMeta {
    /// Step index at capture.
    pub step: u64,
    /// Simulation time at capture.
    pub time: f64,
    /// Moving-window shifts at capture.
    pub window_shifts: u64,
}

/// Why a buddy restore failed.
#[derive(Debug)]
pub(crate) enum ReplicaError {
    /// No capture has been taken yet.
    NoCapture,
    /// Both the block's capture-time owner and its buddy are dead.
    FrameLost {
        /// Global block id whose frame is unrecoverable.
        id: usize,
    },
    /// A frame expected in this store is missing (internal inconsistency).
    MissingFrame {
        /// Global block id of the missing frame.
        id: usize,
    },
    /// A frame failed to decode.
    Decode {
        /// Global block id of the bad frame.
        id: usize,
        /// Human-readable decode failure.
        detail: String,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::NoCapture => write!(f, "no replica capture taken yet"),
            ReplicaError::FrameLost { id } => {
                write!(f, "block {id}: owner and buddy both dead, frame lost")
            }
            ReplicaError::MissingFrame { id } => {
                write!(f, "block {id}: frame missing from the replica store")
            }
            ReplicaError::Decode { id, detail } => {
                write!(f, "block {id}: replica frame failed to decode: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

/// What a [`ReplicaStore::restore`] did, for telemetry and rank-0 summary
/// lines.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReplicaRestoreReport {
    /// Step the simulation was reset to.
    pub step: u64,
    /// Frame bytes this rank sent or received over the wire (local frame
    /// reuse is free).
    pub bytes_moved: u64,
}

/// One rank's share of the buddy-replica plane: its own blocks' frames
/// plus its predecessor's, refreshed at every capture. Frames decode under
/// the checkpoint reader's [`DEFAULT_BYTE_BUDGET`].
#[derive(Debug, Default)]
pub(crate) struct ReplicaStore {
    /// Frames by global block id: this rank's own blocks plus the blocks
    /// of the rank whose buddy this rank is. Shared buffers: a frame is
    /// sent and received without a copy.
    frames: BTreeMap<usize, Bytes>,
    /// Global placement at capture time.
    placement: Vec<usize>,
    /// Alive ranks at capture time (defines the buddy ring).
    alive: Vec<usize>,
    meta: Option<ReplicaMeta>,
}

impl ReplicaStore {
    /// Total frame bytes currently held in this rank's RAM.
    pub(crate) fn bytes_held(&self) -> u64 {
        self.frames.values().map(|f| f.len() as u64).sum()
    }

    /// Collectively capture the current state: encode every local block,
    /// keep the frames, and mirror them into the buddy's store. All alive
    /// ranks must call this together (checkpoint cadence is collective, so
    /// the call sites line up). Comm failures surface through the
    /// panicking comm layer — run under `catch_comm` to get typed errors.
    pub(crate) fn capture(&mut self, sim: &DistributedSim<'_>) {
        let rank = sim.comm_rank();
        let me = rank.rank();
        let alive = rank.alive_ranks();
        let placement = sim.placement().to_vec();
        let nb = placement.len();
        self.frames.clear();
        // The cost entry in a frame only warm-starts the rebalancer, which
        // the recovery driver re-attaches from scratch — a neutral entry
        // keeps capture independent of rebalancer state.
        let entry = CostEntry {
            measured: None,
            prior: 0.0,
        };
        for (li, &id) in sim.local_block_ids().iter().enumerate() {
            let frame = migrate::encode_block(&sim.blocks[li], id as u64, &entry);
            self.frames.insert(id, Bytes::from(frame));
        }
        if alive.len() > 1 {
            let my_pos = alive.iter().position(|&a| a == me).expect("self is alive");
            let buddy = alive[(my_pos + 1) % alive.len()];
            let pred = alive[(my_pos + alive.len() - 1) % alive.len()];
            for (&id, frame) in self.frames.iter() {
                rank.isend(buddy, capture_tag(nb, id), frame.clone());
            }
            for id in (0..nb).filter(|&id| placement[id] == pred) {
                self.frames.insert(id, rank.recv(pred, capture_tag(nb, id)));
            }
        }
        self.placement = placement;
        self.alive = alive;
        self.meta = Some(ReplicaMeta {
            step: sim.step_index() as u64,
            time: sim.time(),
            window_shifts: sim.window_shifts() as u64,
        });
    }

    /// The rank currently holding block `id`'s frame: its capture-time
    /// owner if still alive, else that owner's capture-time buddy.
    fn holder(&self, sim: &DistributedSim<'_>, id: usize) -> Result<usize, ReplicaError> {
        let owner = self.placement[id];
        if sim.comm_rank().is_alive(owner) {
            return Ok(owner);
        }
        let b = buddy_of(&self.alive, owner);
        if b != owner && sim.comm_rank().is_alive(b) {
            Ok(b)
        } else {
            Err(ReplicaError::FrameLost { id })
        }
    }

    /// Collectively restore every block of the (possibly re-homed)
    /// simulation from the last capture: frame holders ship frames to the
    /// blocks' new owners, fields and origins are applied exactly like a
    /// disk restore, progress is reset to the capture point and ghosts are
    /// refreshed. Call after `adopt_placement`, on every survivor, with
    /// membership already recovered.
    pub(crate) fn restore(
        &self,
        sim: &mut DistributedSim<'_>,
    ) -> Result<ReplicaRestoreReport, ReplicaError> {
        let meta = self.meta.ok_or(ReplicaError::NoCapture)?;
        let nb = sim.placement().len();
        assert_eq!(
            self.placement.len(),
            nb,
            "replica capture decomposes a different block count"
        );
        let me = sim.comm_rank().rank();
        let new_placement = sim.placement().to_vec();
        let mut bytes_moved = 0u64;
        // Ship everything this rank holds that now lives elsewhere; sends
        // are non-blocking, so posting them all before receiving cannot
        // deadlock.
        for (id, &owner) in new_placement.iter().enumerate() {
            if self.holder(sim, id)? == me && owner != me {
                let frame = self
                    .frames
                    .get(&id)
                    .ok_or(ReplicaError::MissingFrame { id })?;
                bytes_moved += frame.len() as u64;
                sim.comm_rank()
                    .isend(owner, fetch_tag(nb, id), frame.clone());
            }
        }
        let ids: Vec<usize> = sim.local_block_ids().to_vec();
        for (li, id) in ids.into_iter().enumerate() {
            let holder = self.holder(sim, id)?;
            let received;
            let frame: &[u8] = if holder == me {
                self.frames
                    .get(&id)
                    .ok_or(ReplicaError::MissingFrame { id })?
            } else {
                received = sim.comm_rank().recv(holder, fetch_tag(nb, id));
                bytes_moved += received.len() as u64;
                &received
            };
            let expected = sim.decomp().block(id).dims(1);
            // dst is rebuilt from src below, so only the src fields are decoded.
            let (fid, origin, phi_src, mu_src) =
                migrate::decode_block_src(frame, expected, DEFAULT_BYTE_BUDGET).map_err(|e| {
                    ReplicaError::Decode {
                        id,
                        detail: e.to_string(),
                    }
                })?;
            if fid as usize != id {
                return Err(ReplicaError::Decode {
                    id,
                    detail: format!("frame labels block {fid}"),
                });
            }
            // Mirror the disk restore exactly: keep this block's BCs, take
            // the origin and source fields from the frame.
            let b = &mut sim.blocks[li];
            b.origin = origin;
            b.phi_src = phi_src;
            b.mu_src = mu_src;
            b.sync_dst_from_src();
        }
        sim.set_progress(meta.time, meta.step as usize, meta.window_shifts as usize);
        sim.refresh_src_ghosts();
        Ok(ReplicaRestoreReport {
            step: meta.step,
            bytes_moved,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buddy_ring_is_the_next_alive_rank() {
        assert_eq!(buddy_of(&[0, 1, 2, 3], 1), 2);
        assert_eq!(buddy_of(&[0, 1, 2, 3], 3), 0);
        assert_eq!(buddy_of(&[0, 2, 3], 0), 2, "ring skips dead ranks");
        assert_eq!(buddy_of(&[0, 2, 3], 3), 0);
        assert_eq!(buddy_of(&[2], 2), 2, "lone survivor is its own buddy");
    }
}
