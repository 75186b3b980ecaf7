//! Distributed-memory-style message passing over threads — the MPI substrate.
//!
//! The paper runs on up to 1,048,576 MPI processes. Mature Rust MPI bindings
//! are not available in this environment, so this crate provides the same
//! *communication structure* over OS threads: each rank is a thread with a
//! private mailbox, and all data crosses rank boundaries as explicit,
//! serialized byte messages — there is no shared-memory shortcut in the data
//! path, so pack/transfer/unpack costs and orderings are exercised exactly
//! like in an MPI build (see DESIGN.md §2, substitution 1).
//!
//! Supported operations mirror what the waLBerla phase-field app needs:
//!
//! * tagged, source-matched [`Rank::send`] / [`Rank::recv`] (buffered
//!   standard-mode semantics),
//! * nonblocking [`Rank::isend`] / [`Rank::irecv`] + [`Rank::wait`] — the
//!   primitives behind Algorithm 2's communication hiding,
//! * collectives: [`Rank::barrier`], [`Rank::allreduce_f64`],
//!   [`Rank::gather`], [`Rank::broadcast`] (used for front-position
//!   reduction of the moving window and for the hierarchical mesh
//!   reduction),
//! * byte-level payloads ([`bytes::Bytes`]) with f64 slice helpers, so ghost
//!   layers are genuinely packed and unpacked.
//!
//! # Fault tolerance
//!
//! Production runs at the paper's scale must expect rank failures, so the
//! substrate provides *failure detection* rather than silent deadlock:
//!
//! * a blocking operation never waits forever: when a peer dies or the
//!   timeout expires it panics with a typed [`CommPanic`] payload, and
//!   [`catch_comm`] turns that back into the [`CommError`];
//! * a rank that panics is reaped by the universe: surviving ranks observe
//!   [`CommError::RankDead`] within the failure-detection poll interval,
//!   and [`Universe::run_surviving`] reports *which* ranks died;
//! * survivors can agree on a shrunken membership epoch
//!   ([`Rank::recover_membership`]) and continue;
//! * a deterministic, seed-driven [`FaultPlan`] can kill ranks at chosen
//!   steps and drop / duplicate / corrupt / delay messages by tag, so
//!   fault-handling paths are testable and failures reproduce exactly.
//!
//! # Modules
//!
//! Everything public is re-exported at the crate root.
//!
//! | module       | contents                                                   |
//! |--------------|------------------------------------------------------------|
//! | `error`      | [`CommError`], [`CommPanic`], [`catch_comm`], [`UniverseError`] |
//! | `faults`     | [`FaultPlan`], [`FaultPhase`], per-message fault decisions  |
//! | `membership` | failure state, epochs, the fault-aware barrier, [`Rank::recover_membership`] |
//! | `rank`       | [`Rank`]: point-to-point operations and collectives        |
//! | `stats`      | [`CommStats`], `CommSummary`                               |
//! | `universe`   | [`Universe`], [`UniverseCfg`], `SurvivalOutcome`           |
//!
//! The unit tests share one `tests` module, in sections per module.
//!
//! The wire-tag layout (user tags, the epoch stamp, the collective and
//! membership bits) lives here and is known to no other crate.
//!
//! # Example
//!
//! ```
//! use eutectica_comm::{Universe, f64s_to_bytes, bytes_to_f64s};
//!
//! let sums = Universe::run(4, |rank| {
//!     // Ring shift: everyone sends its id to the right neighbor.
//!     let right = (rank.rank() + 1) % rank.size();
//!     let left = (rank.rank() + rank.size() - 1) % rank.size();
//!     rank.send(right, 7, f64s_to_bytes(&[rank.rank() as f64]));
//!     let got = bytes_to_f64s(&rank.recv(left, 7));
//!     rank.allreduce_f64(got[0], eutectica_comm::ReduceOp::Sum)
//! });
//! assert_eq!(sums, vec![6.0; 4]); // 0+1+2+3
//! ```

#![deny(missing_docs)]

mod error;
mod faults;
mod membership;
mod rank;
mod stats;
#[cfg(test)]
mod tests;
mod universe;

pub use error::{catch_comm, CommError, CommPanic, UniverseError};
pub use faults::{FaultPhase, FaultPlan};
pub use rank::{Rank, ReduceOp};
pub use stats::CommStats;
pub use universe::{Universe, UniverseCfg};

use bytes::Bytes;

/// Message tag. Tags with the top bit set are reserved for collectives.
pub type Tag = u32;

/// Tag bit reserved for collectives; user tags must keep it clear. Exposed
/// so a [`FaultPlan`] rule can target one collective.
pub const COLLECTIVE_TAG: Tag = 1 << 31;

/// Tag bit reserved for membership-protocol messages (heartbeats, epoch
/// installs, flush markers). These are the messages that *change* the
/// membership epoch, so they are never epoch-stamped themselves; their low
/// bits carry a round number instead.
const MEMBERSHIP_TAG: Tag = 1 << 30;

/// Bit position of the 6-bit membership-epoch stamp every user and
/// collective tag carries on the wire. Messages sent before a shrink carry
/// the old epoch's bits and are fenced out by the stale-message purge of
/// [`Rank::recover_membership`]; the stamp wraps after 64 epochs, far beyond
/// any plausible number of in-run shrinks.
const EPOCH_SHIFT: u32 = 24;

/// Mask of the epoch-stamp bits inside a wire tag.
const EPOCH_MASK: Tag = 0x3F << EPOCH_SHIFT;

/// Exclusive upper bound on user tags: bits 24 and above are reserved for
/// the epoch stamp, the membership protocol and collectives.
const MAX_USER_TAG: Tag = 1 << EPOCH_SHIFT;

/// Strip the epoch stamp off a wire tag, recovering the tag the application
/// passed to [`Rank::send`] (collective/membership bits are preserved so
/// protocol traffic stays distinguishable).
fn user_tag(tag: Tag) -> Tag {
    tag & !EPOCH_MASK
}

/// Base of the campaign-engine tag namespace: job-keyed result/progress
/// messages live in `[CAMPAIGN_TAG_BASE, MAX_USER_TAG)`, far above the
/// ghost-exchange tags (`4·6·n_blocks`, a few thousand at most) and the
/// migration tags just beyond them, and below the epoch stamp so campaign
/// traffic is still fenced across membership epochs like any user message.
const CAMPAIGN_TAG_BASE: Tag = 1 << 20;

/// Tag carrying progress/result traffic for campaign job `job`. Job keys
/// are dense indices from `CampaignSpec` expansion, so the tag doubles as
/// the routing key: a receiver posting `irecv(src, campaign_tag(k))`
/// demultiplexes per-job streams without decoding payloads — the
/// `Exchange`-partitioned routing idiom on plain point-to-point tags.
///
/// # Panics
///
/// If the key would collide with the epoch-stamp bits (`job` ≥
/// `MAX_USER_TAG - CAMPAIGN_TAG_BASE`, i.e. ≈15.7M jobs).
pub fn campaign_tag(job: u32) -> Tag {
    assert!(
        CAMPAIGN_TAG_BASE + job < MAX_USER_TAG,
        "campaign job key {job} overflows the user-tag space"
    );
    CAMPAIGN_TAG_BASE + job
}

/// Tag of the internal poison message a dying rank broadcasts to wake
/// blocked receivers immediately (never surfaced to user code).
const POISON_TAG: Tag = !0;

/// Serialize a f64 slice into a byte payload (little-endian).
pub fn f64s_to_bytes(vals: &[f64]) -> Bytes {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(out)
}

/// Deserialize a byte payload back into f64s.
///
/// # Panics
/// Panics if the length is not a multiple of 8.
pub fn bytes_to_f64s(b: &Bytes) -> Vec<f64> {
    assert!(b.len() % 8 == 0, "payload not f64-aligned");
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}
