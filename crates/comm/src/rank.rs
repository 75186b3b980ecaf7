//! One participant of a universe: tagged point-to-point messaging and the
//! collectives built on it.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam_channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use eutectica_telemetry::{ReducedTree, TimingTreeSnapshot};
use parking_lot::Mutex;

use crate::membership::{DeathScope, FailureState, FaultBarrier, MembershipState};
use crate::universe::POLL;
use crate::{
    CommError, CommPanic, CommStats, FaultPhase, FaultPlan, Tag, COLLECTIVE_TAG, MAX_USER_TAG,
    POISON_TAG,
};

#[derive(Debug)]
pub(crate) struct Message {
    pub(crate) src: usize,
    pub(crate) tag: Tag,
    pub(crate) payload: Bytes,
}

/// Handle to a posted nonblocking receive; complete it with [`Rank::wait`].
#[derive(Debug, Clone, Copy)]
#[must_use = "irecv does nothing until waited on"]
pub struct RecvRequest {
    src: usize,
    tag: Tag,
}

/// Reduction operators for [`Rank::allreduce_f64`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of contributions.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl ReduceOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// One participant of a [`Universe`](crate::Universe); the analog of an MPI
/// rank.
///
/// # Panics
/// Every blocking operation (receive, wait, barrier, collective) either
/// completes or fails within the universe's timeout: when a peer it depends
/// on dies or the timeout expires it panics with a [`CommPanic`] payload,
/// which [`catch_comm`](crate::catch_comm) turns back into the
/// [`CommError`].
pub struct Rank {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) txs: Arc<Vec<Sender<Message>>>,
    pub(crate) rx: Receiver<Message>,
    /// Messages received but not yet matched by a recv, keyed by (src, tag).
    pub(crate) pending: RefCell<HashMap<(usize, Tag), VecDeque<Bytes>>>,
    pub(crate) barrier: Arc<FaultBarrier>,
    pub(crate) failure: Arc<FailureState>,
    pub(crate) membership: Arc<MembershipState>,
    pub(crate) timeout: Duration,
    /// Fail point-to-point receives on *any* unfenced death, not just the
    /// awaited source — prompt entry into a membership round for every
    /// survivor (the shrink driver enables this).
    pub(crate) fail_fast: bool,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Per-(dst, tag) sent-message counters driving deterministic fault
    /// decisions.
    pub(crate) fault_counters: RefCell<HashMap<(usize, Tag), u64>>,
    /// Per-phase entry counters driving deterministic phase kills.
    pub(crate) phase_counters: RefCell<HashMap<FaultPhase, u64>>,
    pub(crate) stats: RefCell<CommStats>,
    /// Where to deposit the final stats when the rank thread finishes
    /// (set by [`Universe::run_with_stats`](crate::Universe::run_with_stats)).
    pub(crate) stats_sink: Option<Arc<Mutex<Vec<Option<CommStats>>>>>,
}

impl Drop for Rank {
    fn drop(&mut self) {
        if let Some(sink) = &self.stats_sink {
            sink.lock()[self.rank] = Some(self.stats.borrow().clone());
        }
    }
}

impl Rank {
    /// This rank's id in `[0, size)`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current membership epoch (0 until the first shrink).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Surviving ranks of the current membership epoch, ascending.
    pub fn alive_ranks(&self) -> Vec<usize> {
        self.membership.alive_ranks()
    }

    /// Is `rank` alive in the current membership epoch?
    pub fn is_alive(&self, rank: usize) -> bool {
        self.membership.is_alive(rank)
    }

    /// Stamp a tag with the current epoch bits (applied to every user and
    /// collective tag on both the send and the receive side).
    #[inline]
    fn stamp(&self, tag: Tag) -> Tag {
        tag | self.membership.epoch_bits()
    }

    /// The stamped wire tag of an application tag.
    fn user_wire_tag(&self, tag: Tag) -> Tag {
        assert!(tag < MAX_USER_TAG, "user tags must stay below 1 << 24");
        self.stamp(tag)
    }

    /// Abandon the running operation: `err` leaves as the typed
    /// [`CommPanic`] payload.
    pub(crate) fn fail(&self, err: CommError) -> ! {
        std::panic::panic_any(CommPanic {
            rank: self.rank,
            err,
        })
    }

    /// Send `payload` to rank `dst` with `tag` (buffered; returns
    /// immediately, like MPI standard mode with a buffered payload). The
    /// wire tag is stamped with the current membership epoch, so stragglers'
    /// messages from before a shrink are fenced out of post-shrink receives.
    pub fn send(&self, dst: usize, tag: Tag, payload: Bytes) {
        self.send_raw(dst, self.user_wire_tag(tag), payload);
    }

    pub(crate) fn send_raw(&self, dst: usize, tag: Tag, payload: Bytes) {
        {
            let mut stats = self.stats.borrow_mut();
            stats.bytes_sent += payload.len() as u64;
            stats.messages_sent += 1;
        }
        let Some((payload, duplicate)) = self.message_faults(dst, tag, payload) else {
            return;
        };
        let n_copies = if duplicate { 2 } else { 1 };
        for _ in 0..n_copies {
            let msg = Message {
                src: self.rank,
                tag,
                payload: payload.clone(),
            };
            if self.txs[dst].send(msg).is_err() {
                // Peer already terminated: the message is lost, like an MPI
                // send to a failed process. The failure itself is surfaced
                // by the next blocking operation.
                self.stats.borrow_mut().sends_to_dead += 1;
                return;
            }
        }
    }

    /// Nonblocking send. With thread-backed buffered channels the transfer
    /// is complete on return, so no request object is needed; the name keeps
    /// the call sites structurally identical to the MPI original.
    #[inline]
    pub fn isend(&self, dst: usize, tag: Tag, payload: Bytes) {
        self.send(dst, tag, payload);
    }

    /// Post a nonblocking receive for a message from `src` with `tag`. The
    /// request matches the epoch current at post time, like the matching
    /// send.
    pub fn irecv(&self, src: usize, tag: Tag) -> RecvRequest {
        RecvRequest {
            src,
            tag: self.user_wire_tag(tag),
        }
    }

    /// Complete a posted receive, blocking until the message arrives.
    pub fn wait(&self, req: RecvRequest) -> Bytes {
        self.recv_matched(req.src, req.tag, DeathScope::Rank(req.src), "wait")
    }

    /// Blocking receive of a message from `src` with `tag`.
    pub fn recv(&self, src: usize, tag: Tag) -> Bytes {
        self.recv_matched(src, self.user_wire_tag(tag), DeathScope::Rank(src), "recv")
    }

    /// Deliver one incoming message: true if it matches `(src, tag)`, else
    /// it is stashed in the pending store (poison wake-ups are discarded).
    /// Traffic is counted on arrival, matched or not.
    fn stash_or_match(&self, msg: Message, src: usize, tag: Tag) -> Option<Bytes> {
        if msg.tag == POISON_TAG {
            return None; // wake-up only; failure state is checked by caller
        }
        {
            let mut stats = self.stats.borrow_mut();
            stats.bytes_received += msg.payload.len() as u64;
            stats.messages_received += 1;
        }
        if msg.src == src && msg.tag == tag {
            return Some(msg.payload);
        }
        self.pending
            .borrow_mut()
            .entry((msg.src, msg.tag))
            .or_default()
            .push_back(msg.payload);
        None
    }

    fn abort_receive(&self, err: CommError) -> ! {
        self.stats.borrow_mut().aborted_receives += 1;
        self.fail(err)
    }

    /// The death that should abort a receive under `scope`, widened to any
    /// unfenced death when fail-fast mode is on (point-to-point scopes
    /// only — membership rounds must tolerate the death they are fencing).
    fn aborting_death(&self, scope: DeathScope) -> Option<usize> {
        scope
            .dead_rank(&self.failure, &self.membership)
            .or_else(|| {
                if self.fail_fast && matches!(scope, DeathScope::Rank(_)) {
                    DeathScope::Any.dead_rank(&self.failure, &self.membership)
                } else {
                    None
                }
            })
    }

    /// Source-and-tag-matched receive with failure detection: completes, or
    /// fails with a [`CommError`] within the configured timeout if a rank in
    /// `scope` dies, the universe shuts down, or no message arrives.
    pub(crate) fn recv_matched(
        &self,
        src: usize,
        tag: Tag,
        scope: DeathScope,
        op: &'static str,
    ) -> Bytes {
        // Fast path: already in the pending store — zero wait.
        if let Some(q) = self.pending.borrow_mut().get_mut(&(src, tag)) {
            if let Some(b) = q.pop_front() {
                self.stats.borrow_mut().recv_wait_hist.record(0);
                return b;
            }
        }
        let start = Instant::now();
        let deadline = start.checked_add(self.timeout);
        loop {
            // Drain everything already queued before consulting the failure
            // state, so messages sent just before a peer died are not lost.
            let msg = match self.rx.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Disconnected) => self.abort_receive(CommError::Shutdown { op }),
                Err(TryRecvError::Empty) => {
                    if let Some(rank) = self.aborting_death(scope) {
                        self.abort_receive(CommError::RankDead { rank, op });
                    }
                    let now = Instant::now();
                    if deadline.is_some_and(|d| now >= d) {
                        self.abort_receive(CommError::Timeout {
                            op,
                            src: Some(src),
                            waited: now - start,
                        });
                    }
                    let wait = deadline.map_or(POLL, |d| POLL.min(d - now));
                    match self.rx.recv_timeout(wait) {
                        Ok(msg) => msg,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => {
                            self.abort_receive(CommError::Shutdown { op })
                        }
                    }
                }
            };
            if let Some(b) = self.stash_or_match(msg, src, tag) {
                let waited = start.elapsed();
                let mut stats = self.stats.borrow_mut();
                stats.recv_wait_time += waited;
                stats.recv_wait_hist.record(waited.as_nanos() as u64);
                return b;
            }
        }
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        if let Err(e) = self
            .barrier
            .wait(&self.failure, &self.membership, self.timeout)
        {
            self.fail(e);
        }
    }

    /// Gather-to-root + broadcast among the surviving ranks of the current
    /// epoch, rooted at the lowest one (identical to the gather-to-0
    /// pattern until a shrink happens): the root folds every other member's
    /// payload into its own, in rank order, and sends the result back.
    /// Log-depth trees are unnecessary at thread scale; the *semantics*
    /// match MPI_Allreduce.
    fn allreduce_bytes(
        &self,
        tag: Tag,
        op: &'static str,
        mine: Bytes,
        fold: impl Fn(Bytes, Bytes) -> Bytes,
    ) -> Bytes {
        let tag = self.stamp(COLLECTIVE_TAG | tag);
        let members = self.membership.alive_ranks();
        let root = members[0];
        if self.rank != root {
            self.send_raw(root, tag, mine);
            return self.recv_matched(root, tag, DeathScope::Any, op);
        }
        let mut acc = mine;
        for &src in &members[1..] {
            acc = fold(acc, self.recv_matched(src, tag, DeathScope::Any, op));
        }
        for &dst in &members[1..] {
            self.send_raw(dst, tag, acc.clone());
        }
        acc
    }

    /// All-reduce a single f64 over all ranks.
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        let decode = |b: &[u8]| f64::from_le_bytes(b[..8].try_into().unwrap());
        let encode = |v: f64| Bytes::copy_from_slice(&v.to_le_bytes());
        let out = self.allreduce_bytes(1, "allreduce", encode(value), |acc, b| {
            encode(op.apply(decode(&acc), decode(&b)))
        });
        decode(&out)
    }

    /// Element-wise sum all-reduce of a `u64` vector over all ranks — the
    /// reduction behind the cross-rank health reports of `core::health`
    /// (violation counters per invariant class). Every rank must pass a
    /// slice of the same length; sums wrap on overflow.
    pub fn allreduce_u64s(&self, values: &[u64]) -> Vec<u64> {
        let decode = |b: &[u8]| -> Vec<u64> {
            assert_eq!(b.len(), values.len() * 8, "allreduce_u64s length mismatch");
            b.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let encode = |vals: &[u64]| {
            Bytes::from(
                vals.iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>(),
            )
        };
        let out = self.allreduce_bytes(4, "allreduce_u64s", encode(values), |acc, b| {
            let sum: Vec<u64> = decode(&acc)
                .into_iter()
                .zip(decode(&b))
                .map(|(a, b)| a.wrapping_add(b))
                .collect();
            encode(&sum)
        });
        decode(&out)
    }

    /// The requested collective root, or the lowest survivor if it is dead
    /// — so root-pinned protocols (manifest election, rebalance planning)
    /// keep working after a shrink.
    fn live_root(members: &[usize], root: usize) -> usize {
        if members.contains(&root) {
            root
        } else {
            members[0]
        }
    }

    /// Gather byte payloads on `root`; returns `Some(per-rank payloads)` on
    /// the root, `None` elsewhere.
    ///
    /// Membership-aware: only survivors participate, and a dead requested
    /// root is remapped to the lowest survivor. The returned vector is still
    /// indexed by *original* rank id; dead ranks' slots are empty.
    pub fn gather(&self, root: usize, payload: Bytes) -> Option<Vec<Bytes>> {
        self.fault_phase(FaultPhase::Gather);
        let tag = self.stamp(COLLECTIVE_TAG | 2);
        let members = self.membership.alive_ranks();
        let root = Self::live_root(&members, root);
        if self.rank == root {
            let mut out = vec![Bytes::new(); self.size];
            out[root] = payload;
            for &src in members.iter().filter(|&&r| r != root) {
                out[src] = self.recv_matched(src, tag, DeathScope::Any, "gather");
            }
            Some(out)
        } else {
            self.send_raw(root, tag, payload);
            None
        }
    }

    /// Broadcast `payload` (significant on `root`) to all ranks.
    ///
    /// Membership-aware: a dead requested root is remapped to the lowest
    /// survivor (see [`Rank::gather`]).
    pub fn broadcast(&self, root: usize, payload: Bytes) -> Bytes {
        let tag = self.stamp(COLLECTIVE_TAG | 3);
        let members = self.membership.alive_ranks();
        let root = Self::live_root(&members, root);
        if self.rank == root {
            for &dst in members.iter().filter(|&&r| r != root) {
                self.send_raw(dst, tag, payload.clone());
            }
            payload
        } else {
            self.recv_matched(root, tag, DeathScope::Any, "broadcast")
        }
    }

    /// Snapshot of this rank's communication statistics.
    pub fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    /// Reduce a telemetry timing tree across all ranks (min/avg/max per
    /// node, the waLBerla reduced-timing-pool pattern). Collective: every
    /// rank must call it. Returns `Some` on rank 0, `None` elsewhere.
    pub fn reduce_timing(&self, snap: &TimingTreeSnapshot) -> Option<ReducedTree> {
        eutectica_telemetry::reduce_with(snap, |payload| {
            self.gather(0, Bytes::from(payload))
                .map(|bufs| bufs.iter().map(|b| b.to_vec()).collect())
        })
    }
}
