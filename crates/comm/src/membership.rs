//! Who is alive: the shared failure record, membership epochs, the
//! fault-aware barrier, and the collective round that shrinks the universe
//! to its survivors ([`Rank::recover_membership`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::universe::POLL;
use crate::{
    CommError, FaultPhase, Rank, Tag, COLLECTIVE_TAG, EPOCH_MASK, EPOCH_SHIFT, MEMBERSHIP_TAG,
};

/// Shared record of which ranks have terminated abnormally.
#[derive(Debug)]
pub(crate) struct FailureState {
    any: AtomicBool,
    seq: AtomicU64,
    /// Per rank: `Some((death order, panic message))` once dead.
    dead: Mutex<Vec<Option<(u64, String)>>>,
}

impl FailureState {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            any: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            dead: Mutex::new(vec![None; n]),
        }
    }

    pub(crate) fn mark_dead(&self, rank: usize, msg: String) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.dead.lock()[rank] = Some((seq, msg));
        self.any.store(true, Ordering::SeqCst);
    }

    #[inline]
    fn any(&self) -> bool {
        self.any.load(Ordering::SeqCst)
    }

    /// Total deaths recorded so far (death orders are `0..deaths()`).
    #[inline]
    fn deaths(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    fn is_dead(&self, rank: usize) -> bool {
        self.any() && self.dead.lock()[rank].is_some()
    }

    /// Earliest rank whose death order is `>= floor` — the *unfenced* deaths
    /// a membership epoch has not yet absorbed.
    fn first_dead_since(&self, floor: u64) -> Option<usize> {
        if self.deaths() <= floor {
            return None;
        }
        self.dead_in(floor, u64::MAX).first().map(|&(r, _)| r)
    }

    /// Dead ranks with death order in `[from, to)`, ordered by death.
    pub(crate) fn dead_in(&self, from: u64, to: u64) -> Vec<(usize, String)> {
        let mut v: Vec<(u64, usize, String)> = self
            .dead
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(r, d)| {
                d.as_ref()
                    .filter(|(seq, _)| *seq >= from && *seq < to)
                    .map(|(seq, msg)| (*seq, r, msg.clone()))
            })
            .collect();
        v.sort();
        v.into_iter().map(|(_, r, m)| (r, m)).collect()
    }
}

/// Shared membership view of a universe: the current epoch, the surviving
/// rank set, and the fence — the count of deaths already absorbed by a
/// completed membership round. Installed collectively by
/// [`Rank::recover_membership`]; epoch 0 with everyone alive until then.
#[derive(Debug)]
pub(crate) struct MembershipState {
    epoch: AtomicU64,
    /// Deaths with order `< fenced` belong to past epochs and no longer
    /// abort collectives or fail-fast receives.
    fenced: AtomicU64,
    alive: Mutex<Vec<bool>>,
}

impl MembershipState {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            epoch: AtomicU64::new(0),
            fenced: AtomicU64::new(0),
            alive: Mutex::new(vec![true; n]),
        }
    }

    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    #[inline]
    fn fenced(&self) -> u64 {
        self.fenced.load(Ordering::SeqCst)
    }

    /// Epoch stamp bits for wire tags.
    #[inline]
    pub(crate) fn epoch_bits(&self) -> Tag {
        ((self.epoch() as Tag) & 0x3F) << EPOCH_SHIFT
    }

    pub(crate) fn is_alive(&self, rank: usize) -> bool {
        self.alive.lock()[rank]
    }

    pub(crate) fn alive_ranks(&self) -> Vec<usize> {
        self.alive
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(r, &a)| a.then_some(r))
            .collect()
    }

    /// Install a new epoch (idempotent: later or equal epochs win; the
    /// coordinator installs first and peers re-install harmlessly).
    fn install(&self, epoch: u64, alive_set: &[usize], fenced: u64) {
        let mut alive = self.alive.lock();
        if self.epoch.load(Ordering::SeqCst) >= epoch {
            return;
        }
        alive.fill(false);
        for &r in alive_set {
            alive[r] = true;
        }
        self.fenced.store(fenced, Ordering::SeqCst);
        self.epoch.store(epoch, Ordering::SeqCst);
    }
}

/// The surviving-rank view agreed by one membership round, returned by
/// [`Rank::recover_membership`].
#[derive(Debug, Clone)]
pub struct MembershipChange {
    /// The epoch just entered (first shrink = epoch 1).
    pub epoch: u64,
    /// Surviving ranks, ascending.
    pub alive: Vec<usize>,
    /// `(rank, panic message)` of the ranks fenced by this round, in order
    /// of death.
    pub newly_dead: Vec<(usize, String)>,
}

/// Which peer deaths abort a blocked receive: a point-to-point receive only
/// depends on its source; a collective depends on every *unfenced* rank; a
/// membership round only on deaths newer than its snapshot.
#[derive(Copy, Clone, Debug)]
pub(crate) enum DeathScope {
    Rank(usize),
    Any,
    /// Abort only on deaths with order `>=` the given snapshot — used inside
    /// a membership round, where the triggering death is expected.
    NewSince(u64),
}

impl DeathScope {
    pub(crate) fn dead_rank(
        self,
        failure: &FailureState,
        membership: &MembershipState,
    ) -> Option<usize> {
        if !failure.any() {
            return None;
        }
        match self {
            DeathScope::Rank(r) => failure.is_dead(r).then_some(r),
            DeathScope::Any => failure.first_dead_since(membership.fenced()),
            DeathScope::NewSince(floor) => failure.first_dead_since(floor),
        }
    }
}

/// Generation barrier that notices dead ranks and timeouts instead of
/// blocking forever (replacement for `std::sync::Barrier`).
#[derive(Debug)]
pub(crate) struct FaultBarrier {
    /// Ranks expected per generation — the alive count after a shrink.
    expected: AtomicUsize,
    state: StdMutex<(usize, u64)>, // (arrived, generation)
    cvar: Condvar,
}

impl FaultBarrier {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            expected: AtomicUsize::new(n),
            state: StdMutex::new((0, 0)),
            cvar: Condvar::new(),
        }
    }

    /// Reset after a membership round: zero partial arrivals (a rank may
    /// have died *inside* the barrier) and expect only the survivors. Safe
    /// because no survivor waits in the barrier while the round runs — each
    /// sent its heartbeat only after erroring out of any blocked operation.
    fn reset_for_epoch(&self, n_alive: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.expected.store(n_alive, Ordering::SeqCst);
        st.0 = 0;
        st.1 += 1;
        self.cvar.notify_all();
    }

    /// Wait for the current generation to fill, or fail on an unfenced
    /// death or after `timeout`.
    pub(crate) fn wait(
        &self,
        failure: &FailureState,
        membership: &MembershipState,
        timeout: Duration,
    ) -> Result<(), CommError> {
        let fenced = membership.fenced();
        let unfenced_death = || {
            failure
                .first_dead_since(fenced)
                .map(|rank| CommError::RankDead {
                    rank,
                    op: "barrier",
                })
        };
        if let Some(e) = unfenced_death() {
            return Err(e);
        }
        let start = Instant::now();
        let deadline = start.checked_add(timeout);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let gen = st.1;
        st.0 += 1;
        if st.0 == self.expected.load(Ordering::SeqCst) {
            st.0 = 0;
            st.1 += 1;
            self.cvar.notify_all();
            return Ok(());
        }
        while st.1 == gen {
            let (guard, _) = self
                .cvar
                .wait_timeout(st, POLL)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if st.1 != gen {
                break;
            }
            if let Some(e) = unfenced_death() {
                return Err(e);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(CommError::Timeout {
                    op: "barrier",
                    src: None,
                    waited: start.elapsed(),
                });
            }
        }
        Ok(())
    }
}

impl Rank {
    /// Collective membership round: after one or more peer deaths, the
    /// survivors agree on the new surviving-rank set, bump the epoch, fence
    /// the observed deaths, and purge stale pre-shrink messages. Returns
    /// `None` when there is nothing to recover from (all deaths already
    /// fenced — e.g. a retry after a round that completed).
    ///
    /// Protocol (all on reserved membership wire tags, which are *not*
    /// epoch-stamped):
    ///
    /// 1. Every survivor snapshots the death count and derives the same
    ///    candidate set = previous alive minus currently dead; the lowest
    ///    candidate coordinates.
    /// 2. Non-coordinators send a heartbeat keyed by the snapshot and wait
    ///    for the coordinator's install-ack carrying the new epoch + alive
    ///    set. The coordinator collects heartbeats from every candidate,
    ///    installs the epoch, resets the barrier for the shrunken count,
    ///    and acks.
    /// 3. All survivors exchange flush markers keyed by the *new* epoch.
    ///    The per-rank mailbox is a single FIFO, so once every flush marker
    ///    has arrived, every stale pre-shrink message has too — the pending
    ///    store is then purged of dead-source and stale-epoch entries
    ///    (counted in [`CommStats::fenced_messages`](crate::CommStats::fenced_messages)).
    ///
    /// Every blocking wait inside the round uses a [`DeathScope`] floored at
    /// the snapshot: the deaths being fenced are expected, but a *new* death
    /// during recovery fails the round like any operation, with a typed
    /// [`CommError::RankDead`] — never a hang. The snapshot-keyed heartbeat
    /// tags make driver-level retries converge — a retry re-snapshots a
    /// higher death count and the round restarts on fresh tags, while stale
    /// heartbeats stay parked in pending (bounded by the number of
    /// recoveries).
    pub fn recover_membership(&self) -> Option<MembershipChange> {
        self.fault_phase(FaultPhase::Recovery);
        let fenced = self.membership.fenced();
        let snapshot = self.failure.deaths();
        if snapshot == fenced {
            return None;
        }
        let candidates: Vec<usize> = self
            .membership
            .alive_ranks()
            .into_iter()
            .filter(|&r| !self.failure.is_dead(r))
            .collect();
        debug_assert!(candidates.contains(&self.rank));
        let coordinator = candidates[0];
        let scope = DeathScope::NewSince(snapshot);
        let round = ((snapshot as Tag) & 0xFFFF) << 8;
        let hb_tag = MEMBERSHIP_TAG | round | 1;
        let ack_tag = MEMBERSHIP_TAG | round | 2;

        let (new_epoch, alive) = if self.rank == coordinator {
            for &src in candidates.iter().filter(|&&r| r != coordinator) {
                let b = self.recv_matched(src, hb_tag, scope, "membership heartbeat");
                let peer_snapshot = u64::from_le_bytes(b[..8].try_into().unwrap());
                if peer_snapshot != snapshot {
                    // A death raced the round: fail typed, the driver
                    // retries with the higher snapshot.
                    let rank = self.failure.first_dead_since(snapshot).unwrap_or(src);
                    self.fail(CommError::RankDead {
                        rank,
                        op: "membership heartbeat",
                    });
                }
            }
            let new_epoch = self.membership.epoch() + 1;
            self.membership.install(new_epoch, &candidates, snapshot);
            self.barrier.reset_for_epoch(candidates.len());
            let mut payload = Vec::with_capacity(8 + 8 * candidates.len());
            payload.extend_from_slice(&new_epoch.to_le_bytes());
            for &r in &candidates {
                payload.extend_from_slice(&(r as u64).to_le_bytes());
            }
            let payload = Bytes::from(payload);
            for &dst in candidates.iter().filter(|&&r| r != coordinator) {
                self.send_raw(dst, ack_tag, payload.clone());
            }
            (new_epoch, candidates)
        } else {
            self.send_raw(
                coordinator,
                hb_tag,
                Bytes::copy_from_slice(&snapshot.to_le_bytes()),
            );
            let b = self.recv_matched(coordinator, ack_tag, scope, "membership ack");
            let new_epoch = u64::from_le_bytes(b[..8].try_into().unwrap());
            let alive: Vec<usize> = b[8..]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
                .collect();
            self.membership.install(new_epoch, &alive, snapshot);
            (new_epoch, alive)
        };

        // Flush round on the new epoch's key: FIFO ordering guarantees every
        // stale message precedes these markers, so after the round the
        // pending store holds everything there is to purge.
        let flush_tag = MEMBERSHIP_TAG | (((new_epoch as Tag) & 0xFFFF) << 8) | 3;
        for &dst in alive.iter().filter(|&&r| r != self.rank) {
            self.send_raw(dst, flush_tag, Bytes::new());
        }
        for &src in alive.iter().filter(|&&r| r != self.rank) {
            self.recv_matched(src, flush_tag, scope, "membership flush");
        }

        let epoch_bits = self.membership.epoch_bits();
        let mut purged = 0u64;
        self.pending.borrow_mut().retain(|(src, tag), q| {
            // Keep in-flight membership traffic (retries must still match)
            // and current-epoch messages from survivors — fast peers may
            // already have sent post-shrink traffic before our purge runs.
            let keep = (tag & MEMBERSHIP_TAG != 0 && tag & COLLECTIVE_TAG == 0)
                || (self.membership.is_alive(*src) && (tag & EPOCH_MASK) == epoch_bits);
            if !keep {
                purged += q.len() as u64;
            }
            keep
        });
        self.stats.borrow_mut().fenced_messages += purged;

        Some(MembershipChange {
            epoch: new_epoch,
            alive,
            newly_dead: self.failure.dead_in(fenced, snapshot),
        })
    }
}
