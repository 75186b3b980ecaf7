//! In-memory buddy replicas for diskless shrink recovery.
//!
//! A buddy replica is a checkpoint set held in RAM. At checkpoint cadence
//! every rank encodes its blocks as `EUTECKP2` block records at
//! [`Precision::F64`] — the bytes an F64 set on disk would hold — and
//! mirrors each record into a *buddy* rank's RAM: the next alive rank in
//! the membership ring. When a rank dies, every one of its blocks still
//! exists in exactly one survivor's [`ReplicaStore`], so the shrink
//! recovery driver can re-home and restore lost state without a disk
//! round-trip — the paper's flagship scale makes the parallel filesystem
//! the scarcest resource precisely when everyone is recovering at once.
//!
//! Restore ships each record from its holder to the block's new owner and
//! then runs the disk restore's body ([`restore_blocks`]): the same adopt
//! step, vote, progress reset and ghost refresh. Only the block source
//! differs, so a buddy-restored run is bit-identical to one restored from
//! the equivalent checkpoint set.

use std::collections::BTreeMap;

use bytes::Bytes;
use eutectica_comm::Tag;
use eutectica_core::timeloop::DistributedSim;

use crate::ckpt::{self, CkptError, Manifest, Precision, DEFAULT_BYTE_BUDGET};
use crate::resilient::restore_blocks;

/// Tag space: block capture records ride above the ghost-exchange
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

/// Why a buddy restore failed.
#[derive(Debug)]
pub(crate) enum ReplicaError {
    /// No capture has been taken yet.
    NoCapture,
    /// Both the block's capture-time owner and its buddy are dead.
    RecordLost {
        /// Global block id whose record is unrecoverable.
        id: usize,
    },
    /// The restore body failed on this rank or on a peer: a record failed
    /// to decode or to fit its block.
    Restore(CkptError),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::NoCapture => write!(f, "no replica capture taken yet"),
            ReplicaError::RecordLost { id } => {
                write!(f, "block {id}: owner and buddy both dead, record lost")
            }
            ReplicaError::Restore(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// One rank's share of the buddy-replica plane: its own blocks' records
/// plus its predecessor's, refreshed at every capture. Records decode under
/// the checkpoint reader's [`DEFAULT_BYTE_BUDGET`].
#[derive(Debug, Default)]
pub(crate) struct ReplicaStore {
    /// `EUTECKP2` records by global block id: this rank's own blocks plus
    /// the blocks of the rank whose buddy this rank is. Shared buffers: a
    /// record is sent and received without a copy.
    records: BTreeMap<usize, Bytes>,
    /// Global placement at capture time.
    placement: Vec<usize>,
    /// Alive ranks at capture time (defines the buddy ring).
    alive: Vec<usize>,
    /// The captured set's manifest: step, time, window shifts and domain.
    /// It lists no blocks — each record carries its own CRC, and
    /// `placement` says where it is held.
    manifest: Option<Manifest>,
}

impl ReplicaStore {
    /// Total record bytes currently held in this rank's RAM.
    pub(crate) fn bytes_held(&self) -> u64 {
        self.records.values().map(|r| r.len() as u64).sum()
    }

    /// Collectively capture the current state: encode every local block,
    /// keep the records, and mirror them into the buddy's store. All alive
    /// ranks must call this together (checkpoint cadence is collective, so
    /// the call sites line up). Comm failures surface through the
    /// panicking comm layer — run under `catch_comm` to get typed errors.
    pub(crate) fn capture(&mut self, sim: &DistributedSim<'_>) {
        let rank = sim.comm_rank();
        let me = rank.rank();
        let alive = rank.alive_ranks();
        let placement = sim.placement().to_vec();
        let nb = placement.len();
        self.records.clear();
        for (li, &id) in sim.local_block_ids().iter().enumerate() {
            let record = ckpt::encode_block(&sim.blocks[li], id as u64, sim.time(), Precision::F64);
            self.records.insert(id, Bytes::from(record));
        }
        if alive.len() > 1 {
            let my_pos = alive.iter().position(|&a| a == me).expect("self is alive");
            let buddy = alive[(my_pos + 1) % alive.len()];
            let pred = alive[(my_pos + alive.len() - 1) % alive.len()];
            for (&id, record) in self.records.iter() {
                rank.isend(buddy, capture_tag(nb, id), record.clone());
            }
            for id in (0..nb).filter(|&id| placement[id] == pred) {
                self.records
                    .insert(id, rank.recv(pred, capture_tag(nb, id)));
            }
        }
        self.placement = placement;
        self.alive = alive;
        self.manifest = Some(Manifest {
            step: sim.step_index() as u64,
            time: sim.time(),
            window_shifts: sim.window_shifts() as u64,
            precision: Precision::F64,
            spec: sim.decomp().spec,
            blocks: Vec::new(),
        });
    }

    /// Block `id`'s record as this rank holds it. A record this rank
    /// should hold but does not reads as empty, which fails to decode on
    /// whichever rank adopts it, so the restore's vote fails every rank.
    fn record(&self, id: usize) -> Bytes {
        self.records.get(&id).cloned().unwrap_or_default()
    }

    /// The rank currently holding block `id`'s record: its capture-time
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
            Err(ReplicaError::RecordLost { id })
        }
    }

    /// Collectively restore every block of the (possibly re-homed)
    /// simulation from the last capture: record holders ship records to
    /// the blocks' new owners, then the disk restore's body adopts them,
    /// votes, resets progress to the capture point and refreshes ghosts.
    /// Call after `adopt_placement`, on every survivor, with membership
    /// already recovered. Returns the record bytes this rank sent or
    /// received over the wire (local record reuse is free).
    pub(crate) fn restore(&self, sim: &mut DistributedSim<'_>) -> Result<u64, ReplicaError> {
        let manifest = self.manifest.clone().ok_or(ReplicaError::NoCapture)?;
        // Holders follow from replicated state, so every rank finds a lost
        // record here, before anything is sent.
        let holders = (0..self.placement.len())
            .map(|id| self.holder(sim, id))
            .collect::<Result<Vec<_>, _>>()?;
        let me = sim.comm_rank().rank();
        let nb = holders.len();
        let mut bytes_moved = 0u64;
        // Ship everything this rank holds that now lives elsewhere; sends
        // are non-blocking, so posting them all before receiving cannot
        // deadlock.
        for (id, (&holder, &owner)) in holders.iter().zip(sim.placement()).enumerate() {
            if holder == me && owner != me {
                let record = self.record(id);
                bytes_moved += record.len() as u64;
                sim.comm_rank().isend(owner, fetch_tag(nb, id), record);
            }
        }
        restore_blocks(sim, Ok(manifest), |sim, _, id| {
            let record = if holders[id] == me {
                self.record(id)
            } else {
                let received = sim.comm_rank().recv(holders[id], fetch_tag(nb, id));
                bytes_moved += received.len() as u64;
                received
            };
            ckpt::decode_block(&record, DEFAULT_BYTE_BUDGET)
        })
        .map_err(ReplicaError::Restore)?;
        Ok(bytes_moved)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
    use eutectica_comm::{Rank, Universe};
    use eutectica_core::init::init_planar_front;
    use eutectica_core::kernels::KernelConfig;
    use eutectica_core::params::ModelParams;
    use eutectica_core::timeloop::OverlapOptions;
    use eutectica_telemetry::Telemetry;

    use super::*;

    #[test]
    fn buddy_ring_is_the_next_alive_rank() {
        assert_eq!(buddy_of(&[0, 1, 2, 3], 1), 2);
        assert_eq!(buddy_of(&[0, 1, 2, 3], 3), 0);
        assert_eq!(buddy_of(&[0, 2, 3], 0), 2, "ring skips dead ranks");
        assert_eq!(buddy_of(&[0, 2, 3], 3), 0);
        assert_eq!(buddy_of(&[2], 2), 2, "lone survivor is its own buddy");
    }

    /// A simulation of two 8×8×8 blocks side by side in x, one z-column
    /// each, with a planar front.
    fn two_block_sim(rank: &Rank) -> DistributedSim<'_> {
        let mut sim = DistributedSim::new(
            rank,
            ModelParams::ag_al_cu(),
            Decomposition::new(DomainSpec::directional([16, 8, 8], [2, 1, 1])),
            KernelConfig::default(),
            OverlapOptions::default(),
        );
        sim.set_telemetry(Telemetry::disabled());
        sim.init_blocks(|b| init_planar_front(b, 0, 3));
        sim
    }

    /// Run `f` on a helper thread; panic if it does not finish in `secs`.
    fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let h = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(v) => v,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("restore hung for {secs} s"),
            Err(mpsc::RecvTimeoutError::Disconnected) => match h.join() {
                Err(p) => std::panic::resume_unwind(p),
                Ok(()) => unreachable!("the helper neither sent nor panicked"),
            },
        }
    }

    /// A single flipped bit in one rank's own record fails the restore on
    /// every rank, typed: the failing rank's decode error reaches its peer
    /// through the vote instead of stranding it in the ghost refresh.
    #[test]
    fn a_flipped_bit_fails_every_rank_without_a_hang() {
        let outcomes = with_watchdog(60, || {
            Universe::run(2, |rank| {
                let mut sim = two_block_sim(&rank);
                let mut store = ReplicaStore::default();
                store.capture(&sim);
                let captured = sim.blocks.clone();
                sim.step();
                let own = sim.local_block_ids()[0];
                let len = store.records[&own].len();
                let mut seed = 0x9e37_79b9_7f4a_7c15u64;
                let mut failures = Vec::new();
                for _ in 0..32 {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let bit = (seed >> 11) as usize % (8 * len);
                    let clean = store.records[&own].clone();
                    if rank.rank() == 0 {
                        let mut bad = clean.to_vec();
                        bad[bit / 8] ^= 1 << (bit % 8);
                        store.records.insert(own, Bytes::from(bad));
                    }
                    failures.push(store.restore(&mut sim).err().map(|e| e.to_string()));
                    store.records.insert(own, clean);
                }
                // The clean store restores the captured step and fields:
                // the failures were the flips.
                let restored = store.restore(&mut sim).is_ok() && sim.step_index() == 0;
                let same = sim.blocks.iter().zip(&captured).all(|(b, c)| {
                    b.dims.interior_iter().all(|(x, y, z)| {
                        b.phi_src.cell(x, y, z) == c.phi_src.cell(x, y, z)
                            && b.mu_src.cell(x, y, z) == c.mu_src.cell(x, y, z)
                    })
                });
                (failures, restored && same)
            })
        });
        for (r, (failures, clean_ok)) in outcomes.iter().enumerate() {
            assert!(
                clean_ok,
                "rank {r}: the unflipped store must restore the capture"
            );
            let want = ["CRC mismatch", "peer rank failed"][r];
            let typed = |f: &Option<String>| f.as_deref().is_some_and(|f| f.contains(want));
            assert!(failures.iter().all(typed), "rank {r}: {failures:?}");
        }
    }

    #[test]
    fn a_record_labelling_another_block_is_refused() {
        Universe::run(1, |rank| {
            let mut sim = two_block_sim(&rank);
            let mut store = ReplicaStore::default();
            store.capture(&sim);
            let (a, b) = (store.records[&0].clone(), store.records[&1].clone());
            store.records.insert(0, b);
            store.records.insert(1, a);
            match store.restore(&mut sim) {
                Err(ReplicaError::Restore(CkptError::Incompatible { detail })) => {
                    assert!(detail.contains("labels block 1"), "{detail}")
                }
                other => panic!("expected a refused label, got {other:?}"),
            }
        });
    }
}
