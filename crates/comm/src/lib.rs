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
//! * every blocking operation has a `_checked` variant returning
//!   [`CommError`] instead of hanging when a peer dies or a timeout expires
//!   (the plain variants panic with the same diagnostic);
//! * a rank that panics is reaped by the universe: surviving ranks observe
//!   [`CommError::RankDead`] within the failure-detection poll interval,
//!   and [`Universe::run_checked`] reports *which* ranks died;
//! * a deterministic, seed-driven [`FaultPlan`] can kill ranks at chosen
//!   steps and drop / duplicate / corrupt / delay messages by tag, so
//!   fault-handling paths are testable and failures reproduce exactly.
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

// Index-based loops deliberately mirror the paper's stencil formulations;
// iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use eutectica_telemetry::{Histogram, ReducedTree, TimingTreeSnapshot};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Message tag. Tags with the top bit set are reserved for collectives.
pub type Tag = u32;

/// Tag bit reserved for collectives; user tags must keep it clear. Exposed
/// so traffic accounting can separate ghost exchange from collectives.
pub const COLLECTIVE_TAG: Tag = 1 << 31;

/// Tag bit reserved for membership-protocol messages (heartbeats, epoch
/// installs, flush markers). These are the messages that *change* the
/// membership epoch, so they are never epoch-stamped themselves; their low
/// bits carry a round number instead.
pub const MEMBERSHIP_TAG: Tag = 1 << 30;

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
pub const MAX_USER_TAG: Tag = 1 << EPOCH_SHIFT;

/// Strip the epoch stamp off a wire tag, recovering the tag the application
/// passed to [`Rank::send`]. Consumers of [`CommStats::per_tag`] must apply
/// this before interpreting user tags (collective/membership bits are
/// preserved so protocol traffic stays distinguishable).
pub fn user_tag(tag: Tag) -> Tag {
    tag & !EPOCH_MASK
}

/// Base of the campaign-engine tag namespace: job-keyed result/progress
/// messages live in `[CAMPAIGN_TAG_BASE, MAX_USER_TAG)`, far above the
/// ghost-exchange tags (`4·6·n_blocks`, a few thousand at most) and the
/// migration tags just beyond them, and below the epoch stamp so campaign
/// traffic is still fenced across membership epochs like any user message.
pub const CAMPAIGN_TAG_BASE: Tag = 1 << 20;

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

/// Panic payload captured from a dead rank thread.
type PanicPayload = Box<dyn std::any::Any + Send>;

#[derive(Debug)]
struct Message {
    src: usize,
    tag: Tag,
    payload: Bytes,
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

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failure of a blocking communication operation.
///
/// Returned by the `_checked` operation variants; the plain variants panic
/// with the same diagnostic. Either way no operation blocks forever: a dead
/// peer or an expired timeout surfaces within the configured
/// [`UniverseCfg::timeout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer rank this operation depends on has terminated (panicked).
    RankDead {
        /// The dead rank.
        rank: usize,
        /// The operation that observed the failure.
        op: &'static str,
    },
    /// The operation did not complete within the configured timeout.
    Timeout {
        /// The operation that timed out.
        op: &'static str,
        /// Source rank awaited, if the operation targets one.
        src: Option<usize>,
        /// How long the operation waited.
        waited: Duration,
    },
    /// The universe is shutting down: the mailbox was disconnected while a
    /// receive was still blocked (all peer ranks terminated).
    Shutdown {
        /// The operation that was aborted.
        op: &'static str,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankDead { rank, op } => {
                write!(f, "{op} failed: rank {rank} died")
            }
            CommError::Timeout { op, src, waited } => match src {
                Some(s) => write!(f, "{op} from rank {s} timed out after {waited:?}"),
                None => write!(f, "{op} timed out after {waited:?}"),
            },
            CommError::Shutdown { op } => {
                write!(f, "{op} aborted: universe shut down mid-operation")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Typed panic payload raised by the panicking (non-`_checked`) operation
/// variants. Carrying the [`CommError`] as a structured payload — rather
/// than a formatted string — lets a recovery driver [`catch_comm`] the
/// failure and shrink-continue instead of tearing the universe down.
#[derive(Debug, Clone)]
pub struct CommPanic {
    /// The rank whose operation failed.
    pub rank: usize,
    /// The underlying communication failure.
    pub err: CommError,
}

/// Run `f`, converting a panic raised by a panicking comm operation back
/// into its typed [`CommError`]. Panics with any other payload — including
/// injected rank kills — are propagated unchanged, so a killed rank still
/// dies even when its step loop runs under `catch_comm`.
pub fn catch_comm<R>(f: impl FnOnce() -> R) -> Result<R, CommError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<CommPanic>() {
            Ok(p) => Err(p.err),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

/// Outcome of [`Universe::run_checked`] when at least one rank died.
#[derive(Debug, Clone)]
pub struct UniverseError {
    /// `(rank, panic message)` of every dead rank, in order of death.
    pub dead: Vec<(usize, String)>,
}

impl std::fmt::Display for UniverseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} rank(s) died:", self.dead.len())?;
        for (r, msg) in &self.dead {
            write!(f, " [rank {r}: {msg}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for UniverseError {}

// ---------------------------------------------------------------------------
// Failure detection
// ---------------------------------------------------------------------------

/// Shared record of which ranks have terminated abnormally.
#[derive(Debug)]
struct FailureState {
    any: AtomicBool,
    seq: AtomicU64,
    /// Per rank: `Some((death order, panic message))` once dead.
    dead: Mutex<Vec<Option<(u64, String)>>>,
}

impl FailureState {
    fn new(n: usize) -> Self {
        Self {
            any: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            dead: Mutex::new(vec![None; n]),
        }
    }

    fn mark_dead(&self, rank: usize, msg: String) {
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

    /// Earliest-dying rank, if any.
    fn first_dead(&self) -> Option<usize> {
        if !self.any() {
            return None;
        }
        self.dead
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(r, d)| d.as_ref().map(|(seq, _)| (*seq, r)))
            .min()
            .map(|(_, r)| r)
    }

    /// Earliest rank whose death order is `>= floor` — the *unfenced* deaths
    /// a membership epoch has not yet absorbed. `floor = 0` is
    /// [`FailureState::first_dead`].
    fn first_dead_since(&self, floor: u64) -> Option<usize> {
        if self.deaths() <= floor {
            return None;
        }
        self.dead
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(r, d)| {
                d.as_ref()
                    .filter(|(seq, _)| *seq >= floor)
                    .map(|(seq, _)| (*seq, r))
            })
            .min()
            .map(|(_, r)| r)
    }

    /// Dead ranks with death order in `[from, to)`, ordered by death.
    fn dead_in(&self, from: u64, to: u64) -> Vec<(usize, String)> {
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

    /// All dead ranks with their panic messages, in order of death.
    fn dead_ranks(&self) -> Vec<(usize, String)> {
        let mut v: Vec<(u64, usize, String)> = self
            .dead
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(r, d)| d.as_ref().map(|(seq, msg)| (*seq, r, msg.clone())))
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
struct MembershipState {
    epoch: AtomicU64,
    /// Deaths with order `< fenced` belong to past epochs and no longer
    /// abort collectives or fail-fast receives.
    fenced: AtomicU64,
    alive: Mutex<Vec<bool>>,
}

impl MembershipState {
    fn new(n: usize) -> Self {
        Self {
            epoch: AtomicU64::new(0),
            fenced: AtomicU64::new(0),
            alive: Mutex::new(vec![true; n]),
        }
    }

    #[inline]
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    #[inline]
    fn fenced(&self) -> u64 {
        self.fenced.load(Ordering::SeqCst)
    }

    /// Epoch stamp bits for wire tags.
    #[inline]
    fn epoch_bits(&self) -> Tag {
        ((self.epoch() as Tag) & 0x3F) << EPOCH_SHIFT
    }

    fn is_alive(&self, rank: usize) -> bool {
        self.alive.lock()[rank]
    }

    fn alive_ranks(&self) -> Vec<usize> {
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
        for a in alive.iter_mut() {
            *a = false;
        }
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
enum DeathScope {
    Rank(usize),
    Any,
    /// Abort only on deaths with order `>=` the given snapshot — used inside
    /// a membership round, where the triggering death is expected.
    NewSince(u64),
}

impl DeathScope {
    fn dead_rank(self, failure: &FailureState, membership: &MembershipState) -> Option<usize> {
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
struct FaultBarrier {
    /// Ranks expected per generation — the alive count after a shrink.
    expected: AtomicUsize,
    state: StdMutex<(usize, u64)>, // (arrived, generation)
    cvar: Condvar,
}

impl FaultBarrier {
    fn new(n: usize) -> Self {
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

    fn wait_checked(
        &self,
        failure: &FailureState,
        membership: &MembershipState,
        timeout: Duration,
        poll: Duration,
    ) -> Result<(), CommError> {
        let fenced = membership.fenced();
        if let Some(rank) = failure.first_dead_since(fenced) {
            return Err(CommError::RankDead {
                rank,
                op: "barrier",
            });
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
                .wait_timeout(st, poll)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if st.1 != gen {
                break;
            }
            if let Some(rank) = failure.first_dead_since(fenced) {
                return Err(CommError::RankDead {
                    rank,
                    op: "barrier",
                });
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

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// splitmix64 — the deterministic per-message hash behind [`FaultPlan`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Uniform value in `[0, 1)` from a hash.
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One message-fault rule: probabilities of dropping, duplicating,
/// corrupting (single deterministic bit flip) or delaying messages whose tag
/// matches.
#[derive(Clone, Copy, Debug)]
struct MsgRule {
    /// `None` matches every tag, collectives included.
    tag: Option<Tag>,
    drop: f64,
    duplicate: f64,
    corrupt: f64,
    delay_prob: f64,
    delay: Duration,
}

/// Application phases the fault-injection layer can target with a kill —
/// chosen to hit the protocol windows where a death is hardest to survive:
/// mid-collective, mid-migration, or inside the recovery round itself.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultPhase {
    /// Inside a collective field-health scan (announced by the timeloop).
    HealthScan,
    /// Inside a block-migration epoch (announced by the timeloop).
    Migration,
    /// Inside a collective gather (announced by [`Rank::gather_checked`]
    /// itself, so observable gathers are covered without instrumentation).
    Gather,
    /// Inside a membership-recovery round — the second-death-in-recovery
    /// window ([`Rank::recover_membership`] announces it on entry).
    Recovery,
}

/// Deterministic, seed-driven fault-injection plan.
///
/// Three classes of faults are supported:
///
/// * **rank kills** — [`FaultPlan::kill`] terminates a rank (by panic) when
///   the application announces the given step via [`Rank::fault_step`],
///   exercising the full failure-detection and restart path;
/// * **phase kills** — [`FaultPlan::kill_in_phase`] terminates a rank at the
///   n-th time it enters a [`FaultPhase`] (health scan, migration epoch,
///   collective gather, recovery round), exercising deaths *inside* the
///   protocols that are hardest to survive;
/// * **message faults** — per-tag probabilities of dropping, duplicating,
///   corrupting (one bit flip) or delaying each sent message.
///
/// Every per-message decision is a pure function of
/// `(seed, src, dst, tag, per-pair message index)`, so a given plan produces
/// the *same* faults on every run regardless of thread scheduling — failures
/// found in CI reproduce locally from the seed alone.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed mixed into every per-message fault decision.
    pub seed: u64,
    kills: Vec<(usize, u64)>,
    phase_kills: Vec<(usize, FaultPhase, u64)>,
    rules: Vec<MsgRule>,
}

/// Sender-side decision for one message.
#[derive(Clone, Copy, Debug, Default)]
struct MsgDecision {
    drop: bool,
    duplicate: bool,
    corrupt: bool,
    delay: Option<Duration>,
    /// Hash used to pick the flipped bit when corrupting.
    corrupt_hash: u64,
}

impl FaultPlan {
    /// New empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Kill `rank` when it announces `step` via [`Rank::fault_step`].
    pub fn kill(mut self, rank: usize, step: u64) -> Self {
        self.kills.push((rank, step));
        self
    }

    /// Kill `rank` the `occurrence`-th time (0-based) it enters `phase`
    /// (announced via [`Rank::fault_phase`]; [`FaultPhase::Gather`] and
    /// [`FaultPhase::Recovery`] are announced by the comm layer itself).
    pub fn kill_in_phase(mut self, rank: usize, phase: FaultPhase, occurrence: u64) -> Self {
        self.phase_kills.push((rank, phase, occurrence));
        self
    }

    /// Drop messages with `tag` (`None` = any tag) with probability `prob`.
    pub fn drop_messages(mut self, tag: Option<Tag>, prob: f64) -> Self {
        self.rules.push(MsgRule {
            tag,
            drop: prob,
            duplicate: 0.0,
            corrupt: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
        });
        self
    }

    /// Duplicate messages with `tag` (`None` = any tag) with probability
    /// `prob`.
    pub fn duplicate_messages(mut self, tag: Option<Tag>, prob: f64) -> Self {
        self.rules.push(MsgRule {
            tag,
            drop: 0.0,
            duplicate: prob,
            corrupt: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
        });
        self
    }

    /// Flip one deterministic payload bit of messages with `tag` (`None` =
    /// any tag) with probability `prob`.
    pub fn corrupt_messages(mut self, tag: Option<Tag>, prob: f64) -> Self {
        self.rules.push(MsgRule {
            tag,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: prob,
            delay_prob: 0.0,
            delay: Duration::ZERO,
        });
        self
    }

    /// Delay messages with `tag` (`None` = any tag) by `delay` with
    /// probability `prob` (sender-side, bounded).
    pub fn delay_messages(mut self, tag: Option<Tag>, prob: f64, delay: Duration) -> Self {
        self.rules.push(MsgRule {
            tag,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay_prob: prob,
            delay,
        });
        self
    }

    /// Does the plan kill `rank` at `step`?
    pub fn kills_at(&self, rank: usize, step: u64) -> bool {
        self.kills.iter().any(|&(r, s)| r == rank && s == step)
    }

    /// Does the plan kill `rank` at the given occurrence of `phase`?
    pub fn kills_in_phase(&self, rank: usize, phase: FaultPhase, occurrence: u64) -> bool {
        self.phase_kills
            .iter()
            .any(|&(r, p, o)| r == rank && p == phase && o == occurrence)
    }

    /// True if the plan contains any phase-targeted kills.
    pub fn has_phase_kills(&self) -> bool {
        !self.phase_kills.is_empty()
    }

    /// True if the plan contains any message-fault rules.
    pub fn has_message_faults(&self) -> bool {
        !self.rules.is_empty()
    }

    fn decide(&self, src: usize, dst: usize, tag: Tag, index: u64) -> MsgDecision {
        let mut d = MsgDecision::default();
        if self.rules.is_empty() {
            return d;
        }
        let base = splitmix64(
            self.seed
                ^ splitmix64((src as u64) << 42 ^ (dst as u64) << 21 ^ tag as u64)
                ^ splitmix64(index.wrapping_mul(0xd1b54a32d192ed03)),
        );
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.tag.is_some_and(|t| t != tag) {
                continue;
            }
            // Independent hash per (rule, category).
            let h = |cat: u64| splitmix64(base ^ splitmix64((i as u64) << 8 | cat));
            if rule.drop > 0.0 && u01(h(1)) < rule.drop {
                d.drop = true;
            }
            if rule.duplicate > 0.0 && u01(h(2)) < rule.duplicate {
                d.duplicate = true;
            }
            if rule.corrupt > 0.0 && u01(h(3)) < rule.corrupt {
                d.corrupt = true;
                d.corrupt_hash = h(4);
            }
            if rule.delay_prob > 0.0 && u01(h(5)) < rule.delay_prob {
                d.delay = Some(rule.delay);
            }
        }
        d
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Per-tag traffic breakdown (one entry per distinct message tag, so the
/// solver can attribute traffic to fields — φ vs µ — and faces).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Bytes sent under this tag.
    pub bytes_sent: u64,
    /// Messages sent under this tag.
    pub messages_sent: u64,
    /// Bytes received under this tag.
    pub bytes_received: u64,
    /// Messages received under this tag.
    pub messages_received: u64,
}

/// Cumulative per-rank communication statistics (drives the Fig. 8 analysis).
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    /// Total bytes passed to `send`/`isend`.
    pub bytes_sent: u64,
    /// Number of point-to-point messages sent.
    pub messages_sent: u64,
    /// Total bytes pulled off the wire by this rank.
    pub bytes_received: u64,
    /// Number of point-to-point messages received.
    pub messages_received: u64,
    /// Wall time spent blocked inside `recv`/`wait`.
    pub recv_wait_time: Duration,
    /// Log2-bucket histogram of per-receive wait latency in nanoseconds
    /// (bucket 0 counts receives satisfied from the pending store).
    pub recv_wait_hist: Histogram,
    /// Receives aborted by failure detection (peer death, timeout, or
    /// universe shutdown) instead of completing.
    pub aborted_receives: u64,
    /// Sends whose destination rank had already terminated (the message is
    /// lost, as with MPI to a failed process).
    pub sends_to_dead: u64,
    /// Stale messages purged by a membership round: sent under a previous
    /// epoch (or by a now-dead rank) and fenced out instead of delivered.
    pub fenced_messages: u64,
    /// Traffic broken down by message tag (collective tags included; user
    /// tags carry the epoch stamp — strip with [`user_tag`]).
    pub per_tag: BTreeMap<Tag, TagStats>,
}

impl CommStats {
    /// Accumulate another rank's statistics into this one (for
    /// Universe-level totals).
    pub fn merge(&mut self, other: &CommStats) {
        self.bytes_sent += other.bytes_sent;
        self.messages_sent += other.messages_sent;
        self.bytes_received += other.bytes_received;
        self.messages_received += other.messages_received;
        self.recv_wait_time += other.recv_wait_time;
        self.recv_wait_hist.merge(&other.recv_wait_hist);
        self.aborted_receives += other.aborted_receives;
        self.sends_to_dead += other.sends_to_dead;
        self.fenced_messages += other.fenced_messages;
        for (tag, t) in &other.per_tag {
            let e = self.per_tag.entry(*tag).or_default();
            e.bytes_sent += t.bytes_sent;
            e.messages_sent += t.messages_sent;
            e.bytes_received += t.bytes_received;
            e.messages_received += t.messages_received;
        }
    }
}

/// Per-rank and aggregated communication statistics for a whole
/// [`Universe::run_with_stats`] execution.
#[derive(Clone, Debug, Default)]
pub struct CommSummary {
    /// Final statistics of each rank, in rank order.
    pub per_rank: Vec<CommStats>,
    /// Element-wise sum over all ranks.
    pub total: CommStats,
}

impl CommSummary {
    /// Build the aggregate from per-rank snapshots.
    fn from_per_rank(per_rank: Vec<CommStats>) -> Self {
        let mut total = CommStats::default();
        for s in &per_rank {
            total.merge(s);
        }
        Self { per_rank, total }
    }

    /// Human-readable table: one line per rank plus the totals line.
    pub fn report(&self) -> String {
        let mut out = format!(
            "{:<8} {:>14} {:>10} {:>14} {:>10} {:>14}\n",
            "rank", "sent B", "sent #", "recv B", "recv #", "recv wait s"
        );
        let line = |name: &str, s: &CommStats| {
            format!(
                "{:<8} {:>14} {:>10} {:>14} {:>10} {:>14.6}\n",
                name,
                s.bytes_sent,
                s.messages_sent,
                s.bytes_received,
                s.messages_received,
                s.recv_wait_time.as_secs_f64()
            )
        };
        for (r, s) in self.per_rank.iter().enumerate() {
            out.push_str(&line(&r.to_string(), s));
        }
        out.push_str(&line("total", &self.total));
        out
    }
}

// ---------------------------------------------------------------------------
// Rank
// ---------------------------------------------------------------------------

/// One participant of a [`Universe`]; the analog of an MPI rank.
pub struct Rank {
    rank: usize,
    size: usize,
    txs: Arc<Vec<Sender<Message>>>,
    rx: Receiver<Message>,
    /// Messages received but not yet matched by a recv, keyed by (src, tag).
    pending: RefCell<HashMap<(usize, Tag), VecDeque<Bytes>>>,
    barrier: Arc<FaultBarrier>,
    failure: Arc<FailureState>,
    membership: Arc<MembershipState>,
    timeout: Duration,
    poll: Duration,
    /// Fail point-to-point receives on *any* unfenced death, not just the
    /// awaited source — prompt entry into a membership round for every
    /// survivor (the shrink driver enables this).
    fail_fast: bool,
    faults: Option<Arc<FaultPlan>>,
    /// Per-(dst, tag) sent-message counters driving deterministic fault
    /// decisions.
    fault_counters: RefCell<HashMap<(usize, Tag), u64>>,
    /// Per-phase entry counters driving deterministic phase kills.
    phase_counters: RefCell<HashMap<FaultPhase, u64>>,
    stats: RefCell<CommStats>,
    /// Where to deposit the final stats when the rank thread finishes
    /// (set by [`Universe::run_with_stats`]).
    stats_sink: Option<Arc<Mutex<Vec<Option<CommStats>>>>>,
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

    /// The configured per-operation timeout of this universe.
    #[inline]
    pub fn op_timeout(&self) -> Duration {
        self.timeout
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

    /// Announce the application step to the fault-injection layer: if the
    /// universe's [`FaultPlan`] kills this rank at `step`, this call panics
    /// (simulating a crash) and the universe reaps the rank.
    pub fn fault_step(&self, step: u64) {
        if let Some(plan) = &self.faults {
            if plan.kills_at(self.rank, step) {
                panic!(
                    "fault injection: rank {} killed at step {} (seed {})",
                    self.rank, step, plan.seed
                );
            }
        }
    }

    /// Announce entry into an application/protocol phase to the
    /// fault-injection layer: if the universe's [`FaultPlan`] kills this
    /// rank at this occurrence of `phase`, this call panics (simulating a
    /// crash inside the phase). Occurrences are counted per rank only while
    /// a plan with phase kills is attached, so they are deterministic.
    pub fn fault_phase(&self, phase: FaultPhase) {
        if let Some(plan) = &self.faults {
            if plan.has_phase_kills() {
                let occurrence = {
                    let mut c = self.phase_counters.borrow_mut();
                    let e = c.entry(phase).or_insert(0);
                    let v = *e;
                    *e += 1;
                    v
                };
                if plan.kills_in_phase(self.rank, phase, occurrence) {
                    panic!(
                        "fault injection: rank {} killed in phase {:?} (occurrence {}, seed {})",
                        self.rank, phase, occurrence, plan.seed
                    );
                }
            }
        }
    }

    /// Send `payload` to rank `dst` with `tag` (buffered; returns
    /// immediately, like MPI standard mode with a buffered payload). The
    /// wire tag is stamped with the current membership epoch, so stragglers'
    /// messages from before a shrink are fenced out of post-shrink receives.
    pub fn send(&self, dst: usize, tag: Tag, payload: Bytes) {
        assert!(tag < MAX_USER_TAG, "user tags must stay below 1 << 24");
        self.send_raw(dst, self.stamp(tag), payload);
    }

    fn send_raw(&self, dst: usize, tag: Tag, payload: Bytes) {
        let mut stats = self.stats.borrow_mut();
        stats.bytes_sent += payload.len() as u64;
        stats.messages_sent += 1;
        let t = stats.per_tag.entry(tag).or_default();
        t.bytes_sent += payload.len() as u64;
        t.messages_sent += 1;
        drop(stats);

        // Fault injection: per-message deterministic decision.
        let mut duplicate = false;
        let mut payload = payload;
        if let Some(plan) = &self.faults {
            if plan.has_message_faults() {
                let index = {
                    let mut c = self.fault_counters.borrow_mut();
                    let e = c.entry((dst, tag)).or_insert(0);
                    let v = *e;
                    *e += 1;
                    v
                };
                let d = plan.decide(self.rank, dst, tag, index);
                if let Some(delay) = d.delay {
                    std::thread::sleep(delay);
                }
                if d.drop {
                    return;
                }
                if d.corrupt && !payload.is_empty() {
                    let mut bytes = payload.to_vec();
                    let bit = (d.corrupt_hash % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    payload = Bytes::from(bytes);
                }
                duplicate = d.duplicate;
            }
        }

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
        assert!(tag < MAX_USER_TAG, "user tags must stay below 1 << 24");
        RecvRequest {
            src,
            tag: self.stamp(tag),
        }
    }

    /// Complete a posted receive, blocking until the message arrives.
    ///
    /// # Panics
    /// Panics with the [`CommError`] diagnostic if the source rank dies or
    /// the timeout expires; use [`Rank::wait_checked`] to handle failures.
    pub fn wait(&self, req: RecvRequest) -> Bytes {
        self.unwrap_comm(self.wait_checked(req))
    }

    /// Complete a posted receive, returning [`CommError`] instead of
    /// blocking forever if the source rank dies or the timeout expires.
    pub fn wait_checked(&self, req: RecvRequest) -> Result<Bytes, CommError> {
        self.recv_matched(req.src, req.tag, DeathScope::Rank(req.src), "wait")
    }

    /// Blocking receive of a message from `src` with `tag`.
    ///
    /// # Panics
    /// Panics with the [`CommError`] diagnostic if the source rank dies or
    /// the timeout expires; use [`Rank::recv_checked`] to handle failures.
    pub fn recv(&self, src: usize, tag: Tag) -> Bytes {
        assert!(tag < MAX_USER_TAG, "user tags must stay below 1 << 24");
        self.unwrap_comm(self.recv_matched(src, self.stamp(tag), DeathScope::Rank(src), "recv"))
    }

    /// Blocking receive that returns [`CommError`] instead of hanging when
    /// the source rank dies or the timeout expires.
    pub fn recv_checked(&self, src: usize, tag: Tag) -> Result<Bytes, CommError> {
        assert!(tag < MAX_USER_TAG, "user tags must stay below 1 << 24");
        self.recv_matched(src, self.stamp(tag), DeathScope::Rank(src), "recv")
    }

    fn unwrap_comm<T>(&self, r: Result<T, CommError>) -> T {
        r.unwrap_or_else(|e| {
            std::panic::panic_any(CommPanic {
                rank: self.rank,
                err: e,
            })
        })
    }

    /// Account for one message pulled off the wire (on arrival, whether it
    /// matches the current receive or goes to the pending store).
    fn note_received(&self, tag: Tag, len: usize) {
        let mut stats = self.stats.borrow_mut();
        stats.bytes_received += len as u64;
        stats.messages_received += 1;
        let t = stats.per_tag.entry(tag).or_default();
        t.bytes_received += len as u64;
        t.messages_received += 1;
    }

    /// Deliver one incoming message: true if it matches `(src, tag)`, else
    /// it is stashed in the pending store (poison wake-ups are discarded).
    fn stash_or_match(&self, msg: Message, src: usize, tag: Tag) -> Option<Bytes> {
        if msg.tag == POISON_TAG {
            return None; // wake-up only; failure state is checked by caller
        }
        self.note_received(msg.tag, msg.payload.len());
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

    fn abort_receive(&self, err: CommError) -> Result<Bytes, CommError> {
        self.stats.borrow_mut().aborted_receives += 1;
        Err(err)
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
    /// returns a [`CommError`] within the configured timeout if a rank in
    /// `scope` dies, the universe shuts down, or no message arrives.
    fn recv_matched(
        &self,
        src: usize,
        tag: Tag,
        scope: DeathScope,
        op: &'static str,
    ) -> Result<Bytes, CommError> {
        // Fast path: already in the pending store — zero wait.
        if let Some(q) = self.pending.borrow_mut().get_mut(&(src, tag)) {
            if let Some(b) = q.pop_front() {
                self.stats.borrow_mut().recv_wait_hist.record(0);
                return Ok(b);
            }
        }
        let start = Instant::now();
        let deadline = start.checked_add(self.timeout);
        let finish = |b: Bytes| {
            let waited = start.elapsed();
            let mut stats = self.stats.borrow_mut();
            stats.recv_wait_time += waited;
            stats.recv_wait_hist.record(waited.as_nanos() as u64);
            Ok(b)
        };
        loop {
            // Drain everything already queued before consulting the failure
            // state, so messages sent just before a peer died are not lost.
            loop {
                match self.rx.try_recv() {
                    Ok(msg) => {
                        if let Some(b) = self.stash_or_match(msg, src, tag) {
                            return finish(b);
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        return self.abort_receive(CommError::Shutdown { op });
                    }
                }
            }
            if let Some(rank) = self.aborting_death(scope) {
                return self.abort_receive(CommError::RankDead { rank, op });
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                return self.abort_receive(CommError::Timeout {
                    op,
                    src: Some(src),
                    waited: now - start,
                });
            }
            let wait = match deadline {
                Some(d) => self.poll.min(d - now),
                None => self.poll,
            };
            match self.rx.recv_timeout(wait) {
                Ok(msg) => {
                    if let Some(b) = self.stash_or_match(msg, src, tag) {
                        return finish(b);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return self.abort_receive(CommError::Shutdown { op });
                }
            }
        }
    }

    /// Synchronize all ranks.
    ///
    /// # Panics
    /// Panics with the [`CommError`] diagnostic if a rank dies or the
    /// timeout expires; use [`Rank::barrier_checked`] to handle failures.
    pub fn barrier(&self) {
        self.unwrap_comm(self.barrier_checked());
    }

    /// Synchronize all ranks, returning [`CommError`] instead of blocking
    /// forever if any rank dies or the timeout expires.
    pub fn barrier_checked(&self) -> Result<(), CommError> {
        self.barrier
            .wait_checked(&self.failure, &self.membership, self.timeout, self.poll)
    }

    /// All-reduce a single f64 over all ranks.
    ///
    /// Implemented as gather-to-0 + broadcast over point-to-point messages
    /// (log-depth trees are unnecessary at thread scale; the *semantics*
    /// match MPI_Allreduce).
    ///
    /// # Panics
    /// Panics with the [`CommError`] diagnostic on failure; use
    /// [`Rank::allreduce_f64_checked`] to handle failures.
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        self.unwrap_comm(self.allreduce_f64_checked(value, op))
    }

    /// Fallible [`Rank::allreduce_f64`]: returns [`CommError`] instead of
    /// hanging when any participating rank dies or the timeout expires.
    ///
    /// Membership-aware: only the surviving ranks of the current epoch
    /// participate, rooted at the lowest survivor (identical to the
    /// gather-to-0 pattern until a shrink happens).
    pub fn allreduce_f64_checked(&self, value: f64, op: ReduceOp) -> Result<f64, CommError> {
        let tag = self.stamp(COLLECTIVE_TAG | 1);
        let members = self.membership.alive_ranks();
        let root = members[0];
        if self.rank == root {
            let mut acc = value;
            for &src in members.iter().filter(|&&r| r != root) {
                let b = self.recv_matched(src, tag, DeathScope::Any, "allreduce")?;
                acc = op.apply(
                    acc,
                    f64::from_bits(u64::from_le_bytes(b[..8].try_into().unwrap())),
                );
            }
            for &dst in members.iter().filter(|&&r| r != root) {
                self.send_raw(
                    dst,
                    tag,
                    Bytes::copy_from_slice(&acc.to_bits().to_le_bytes()),
                );
            }
            Ok(acc)
        } else {
            self.send_raw(
                root,
                tag,
                Bytes::copy_from_slice(&value.to_bits().to_le_bytes()),
            );
            let b = self.recv_matched(root, tag, DeathScope::Any, "allreduce")?;
            Ok(f64::from_bits(u64::from_le_bytes(
                b[..8].try_into().unwrap(),
            )))
        }
    }

    /// Element-wise sum all-reduce of a `u64` vector over all ranks — the
    /// reduction behind the cross-rank health reports of `core::health`
    /// (violation counters per invariant class). Every rank must pass a
    /// slice of the same length; sums wrap on overflow.
    ///
    /// # Panics
    /// Panics with the [`CommError`] diagnostic on failure; use
    /// [`Rank::allreduce_u64s_checked`] to handle failures.
    pub fn allreduce_u64s(&self, values: &[u64]) -> Vec<u64> {
        self.unwrap_comm(self.allreduce_u64s_checked(values))
    }

    /// Fallible [`Rank::allreduce_u64s`]: returns [`CommError`] instead of
    /// hanging when any participating rank dies or the timeout expires.
    pub fn allreduce_u64s_checked(&self, values: &[u64]) -> Result<Vec<u64>, CommError> {
        let tag = self.stamp(COLLECTIVE_TAG | 4);
        let encode = |vals: &[u64]| {
            let mut payload = Vec::with_capacity(vals.len() * 8);
            for v in vals {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            Bytes::from(payload)
        };
        let members = self.membership.alive_ranks();
        let root = members[0];
        if self.rank == root {
            let mut acc = values.to_vec();
            for &src in members.iter().filter(|&&r| r != root) {
                let b = self.recv_matched(src, tag, DeathScope::Any, "allreduce_u64s")?;
                assert_eq!(
                    b.len(),
                    acc.len() * 8,
                    "allreduce_u64s length mismatch from rank {src}"
                );
                for (a, chunk) in acc.iter_mut().zip(b.chunks_exact(8)) {
                    *a = a.wrapping_add(u64::from_le_bytes(chunk.try_into().unwrap()));
                }
            }
            let payload = encode(&acc);
            for &dst in members.iter().filter(|&&r| r != root) {
                self.send_raw(dst, tag, payload.clone());
            }
            Ok(acc)
        } else {
            self.send_raw(root, tag, encode(values));
            let b = self.recv_matched(root, tag, DeathScope::Any, "allreduce_u64s")?;
            assert_eq!(b.len(), values.len() * 8, "allreduce_u64s length mismatch");
            Ok(b.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }
    }

    /// Gather byte payloads on `root`; returns `Some(per-rank payloads)` on
    /// the root, `None` elsewhere.
    ///
    /// # Panics
    /// Panics with the [`CommError`] diagnostic on failure; use
    /// [`Rank::gather_checked`] to handle failures.
    pub fn gather(&self, root: usize, payload: Bytes) -> Option<Vec<Bytes>> {
        self.unwrap_comm(self.gather_checked(root, payload))
    }

    /// Fallible [`Rank::gather`]: returns [`CommError`] instead of hanging
    /// when any participating rank dies or the timeout expires.
    ///
    /// Membership-aware: only survivors participate, and a dead requested
    /// root is remapped to the lowest survivor so root-pinned protocols
    /// (manifest election, rebalance planning) keep working after a shrink.
    /// The returned vector is still indexed by *original* rank id; dead
    /// ranks' slots are empty.
    pub fn gather_checked(
        &self,
        root: usize,
        payload: Bytes,
    ) -> Result<Option<Vec<Bytes>>, CommError> {
        self.fault_phase(FaultPhase::Gather);
        let tag = self.stamp(COLLECTIVE_TAG | 2);
        let members = self.membership.alive_ranks();
        let root = if members.contains(&root) {
            root
        } else {
            members[0]
        };
        if self.rank == root {
            let mut out = vec![Bytes::new(); self.size];
            out[root] = payload;
            for &src in members.iter().filter(|&&r| r != root) {
                out[src] = self.recv_matched(src, tag, DeathScope::Any, "gather")?;
            }
            Ok(Some(out))
        } else {
            self.send_raw(root, tag, payload);
            Ok(None)
        }
    }

    /// Broadcast `payload` (significant on `root`) to all ranks.
    ///
    /// # Panics
    /// Panics with the [`CommError`] diagnostic on failure; use
    /// [`Rank::broadcast_checked`] to handle failures.
    pub fn broadcast(&self, root: usize, payload: Bytes) -> Bytes {
        self.unwrap_comm(self.broadcast_checked(root, payload))
    }

    /// Fallible [`Rank::broadcast`]: returns [`CommError`] instead of
    /// hanging when the root dies or the timeout expires.
    ///
    /// Membership-aware: a dead requested root is remapped to the lowest
    /// survivor (see [`Rank::gather_checked`]).
    pub fn broadcast_checked(&self, root: usize, payload: Bytes) -> Result<Bytes, CommError> {
        let tag = self.stamp(COLLECTIVE_TAG | 3);
        let members = self.membership.alive_ranks();
        let root = if members.contains(&root) {
            root
        } else {
            members[0]
        };
        if self.rank == root {
            for &dst in members.iter().filter(|&&r| r != root) {
                self.send_raw(dst, tag, payload.clone());
            }
            Ok(payload)
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

    /// Collective membership round: after one or more peer deaths, the
    /// survivors agree on the new surviving-rank set, bump the epoch, fence
    /// the observed deaths, and purge stale pre-shrink messages. Returns
    /// `Ok(None)` when there is nothing to recover from (all deaths already
    /// fenced — e.g. a retry after a round that completed).
    ///
    /// Protocol (all on reserved `MEMBERSHIP_TAG` wire tags, which are
    /// *not* epoch-stamped):
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
    ///    (counted in [`CommStats::fenced_messages`]).
    ///
    /// Every blocking wait inside the round uses a [`DeathScope`] floored at
    /// the snapshot: the deaths being fenced are expected, but a *new* death
    /// during recovery surfaces as a typed [`CommError::RankDead`], never a
    /// hang. The snapshot-keyed heartbeat tags make driver-level retries
    /// converge — a retry re-snapshots a higher death count and the round
    /// restarts on fresh tags, while stale heartbeats stay parked in
    /// pending (bounded by the number of recoveries).
    pub fn recover_membership(&self) -> Result<Option<MembershipChange>, CommError> {
        self.fault_phase(FaultPhase::Recovery);
        let fenced = self.membership.fenced();
        let snapshot = self.failure.deaths();
        if snapshot == fenced {
            return Ok(None);
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
                let b = self.recv_matched(src, hb_tag, scope, "membership heartbeat")?;
                let peer_snapshot = u64::from_le_bytes(b[..8].try_into().unwrap());
                if peer_snapshot != snapshot {
                    // A death raced the round: escalate typed, the driver
                    // retries with the higher snapshot.
                    let rank = self.failure.first_dead_since(snapshot).unwrap_or(src);
                    return Err(CommError::RankDead {
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
            let b = self.recv_matched(coordinator, ack_tag, scope, "membership ack")?;
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
            self.recv_matched(src, flush_tag, scope, "membership flush")?;
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

        Ok(Some(MembershipChange {
            epoch: new_epoch,
            alive,
            newly_dead: self.failure.dead_in(fenced, snapshot),
        }))
    }
}

// ---------------------------------------------------------------------------
// Universe
// ---------------------------------------------------------------------------

/// Execution parameters of a [`Universe`]: failure-detection timeouts and an
/// optional fault-injection plan.
#[derive(Clone, Debug)]
pub struct UniverseCfg {
    /// Upper bound on any single blocking communication operation. Blocking
    /// calls fail with [`CommError::Timeout`] instead of waiting longer.
    pub timeout: Duration,
    /// Poll interval at which blocked operations re-check the failure
    /// state; bounds the detection latency of a peer death.
    pub poll: Duration,
    /// Deterministic fault-injection plan, if any.
    pub faults: Option<FaultPlan>,
    /// Abort point-to-point receives on *any* unfenced death instead of only
    /// the awaited source, so every survivor promptly reaches the membership
    /// round of a shrink-and-continue driver. Off by default: without a
    /// recovery driver, a death unrelated to the awaited source should not
    /// fail an otherwise satisfiable receive.
    pub fail_fast_on_death: bool,
}

impl Default for UniverseCfg {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(300),
            poll: Duration::from_millis(2),
            faults: None,
            fail_fast_on_death: false,
        }
    }
}

impl UniverseCfg {
    /// Config with a custom operation timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            timeout,
            ..Self::default()
        }
    }

    /// Attach a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable fail-fast receives (see [`UniverseCfg::fail_fast_on_death`]).
    pub fn with_fail_fast(mut self) -> Self {
        self.fail_fast_on_death = true;
        self
    }
}

/// A set of ranks executing the same function — the analog of
/// `mpirun -np N`.
pub struct Universe;

/// Per-rank results of a [`Universe::run_surviving`] execution: `results[r]`
/// is `Some` iff rank `r` returned normally; `dead` lists the ranks that
/// panicked (injected kill or otherwise) with their messages, in order of
/// death.
#[derive(Debug)]
pub struct SurvivalOutcome<T> {
    /// Per-rank return values; `None` for ranks that died.
    pub results: Vec<Option<T>>,
    /// `(rank, panic message)` of every dead rank, in order of death.
    pub dead: Vec<(usize, String)>,
}

/// Everything `run_inner` learns about one execution.
struct RunOutcome<T> {
    results: Vec<Option<T>>,
    /// `(rank, seq, message, panic payload)` of dead ranks.
    dead: Vec<(usize, String)>,
    payloads: Vec<Option<PanicPayload>>,
    first_dead: Option<usize>,
}

impl Universe {
    /// Spawn `n` ranks running `f` and collect their return values in rank
    /// order. Panics in any rank propagate (the earliest-dying rank's
    /// payload is re-raised); surviving ranks observe the death as
    /// [`CommError`]s instead of deadlocking.
    pub fn run<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Rank) -> T + Send + Sync + 'static,
    {
        Self::finish_infallible(Self::run_inner(n, f, None, UniverseCfg::default()))
    }

    /// Like [`Universe::run`], but additionally collects every rank's final
    /// [`CommStats`] into an aggregated [`CommSummary`].
    pub fn run_with_stats<T, F>(n: usize, f: F) -> (Vec<T>, CommSummary)
    where
        T: Send + 'static,
        F: Fn(Rank) -> T + Send + Sync + 'static,
    {
        let sink: Arc<Mutex<Vec<Option<CommStats>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let out = Self::finish_infallible(Self::run_inner(
            n,
            f,
            Some(Arc::clone(&sink)),
            UniverseCfg::default(),
        ));
        let per_rank = Arc::try_unwrap(sink)
            .unwrap_or_else(|_| panic!("stats sink still shared"))
            .into_inner()
            .into_iter()
            .map(|s| s.expect("rank deposited no stats"))
            .collect();
        (out, CommSummary::from_per_rank(per_rank))
    }

    /// Run `n` ranks under `cfg` (timeouts + optional fault plan) and
    /// *report* failures instead of panicking: if any rank dies — by its own
    /// panic or an injected kill — the returned [`UniverseError`] names every
    /// dead rank with its panic message, in order of death. Surviving ranks
    /// are unwound via [`CommError`]s; nothing deadlocks.
    pub fn run_checked<T, F>(n: usize, cfg: UniverseCfg, f: F) -> Result<Vec<T>, UniverseError>
    where
        T: Send + 'static,
        F: Fn(Rank) -> T + Send + Sync + 'static,
    {
        let out = Self::run_inner(n, f, None, cfg);
        if out.dead.is_empty() {
            Ok(out
                .results
                .into_iter()
                .map(|o| o.expect("rank produced no result"))
                .collect())
        } else {
            Err(UniverseError { dead: out.dead })
        }
    }

    /// Like [`Universe::run_checked`], but deaths do not discard the
    /// survivors' work: every rank's return value (or `None` if it died) is
    /// reported alongside the dead set, so a shrink-and-continue driver can
    /// decide success from the survivors' outputs. Non-injected panics with
    /// non-[`CommError`] payloads still poison the whole universe through
    /// the failure state, but their *survivors'* results remain available.
    pub fn run_surviving<T, F>(n: usize, cfg: UniverseCfg, f: F) -> SurvivalOutcome<T>
    where
        T: Send + 'static,
        F: Fn(Rank) -> T + Send + Sync + 'static,
    {
        let out = Self::run_inner(n, f, None, cfg);
        SurvivalOutcome {
            results: out.results,
            dead: out.dead,
        }
    }

    fn finish_infallible<T>(out: RunOutcome<T>) -> Vec<T> {
        if let Some(first) = out.first_dead {
            let mut payloads = out.payloads;
            if let Some(p) = payloads[first].take() {
                std::panic::resume_unwind(p);
            }
            panic!("rank {first} died: {}", out.dead[0].1);
        }
        out.results
            .into_iter()
            .map(|o| o.expect("rank produced no result"))
            .collect()
    }

    fn run_inner<T, F>(
        n: usize,
        f: F,
        stats_sink: Option<Arc<Mutex<Vec<Option<CommStats>>>>>,
        cfg: UniverseCfg,
    ) -> RunOutcome<T>
    where
        T: Send + 'static,
        F: Fn(Rank) -> T + Send + Sync + 'static,
    {
        assert!(n > 0, "need at least one rank");
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        let txs = Arc::new(txs);
        let barrier = Arc::new(FaultBarrier::new(n));
        let failure = Arc::new(FailureState::new(n));
        let membership = Arc::new(MembershipState::new(n));
        let faults = cfg.faults.map(Arc::new);
        let f = Arc::new(f);
        let results: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let payloads: Arc<Mutex<Vec<Option<PanicPayload>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));

        let mut handles = Vec::with_capacity(n);
        for (rank_id, rx) in rxs.into_iter().enumerate() {
            let rank = Rank {
                rank: rank_id,
                size: n,
                txs: Arc::clone(&txs),
                rx,
                pending: RefCell::new(HashMap::new()),
                barrier: Arc::clone(&barrier),
                failure: Arc::clone(&failure),
                membership: Arc::clone(&membership),
                timeout: cfg.timeout,
                poll: cfg.poll,
                fail_fast: cfg.fail_fast_on_death,
                faults: faults.clone(),
                fault_counters: RefCell::new(HashMap::new()),
                phase_counters: RefCell::new(HashMap::new()),
                stats: RefCell::new(CommStats::default()),
                stats_sink: stats_sink.clone(),
            };
            let f = Arc::clone(&f);
            let results = Arc::clone(&results);
            let payloads = Arc::clone(&payloads);
            let failure = Arc::clone(&failure);
            let txs = Arc::clone(&txs);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank_id}"))
                    .stack_size(8 << 20)
                    .spawn(move || {
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(rank)));
                        match out {
                            Ok(v) => results.lock()[rank_id] = Some(v),
                            Err(payload) => {
                                // Reap: record the death, then poison every
                                // mailbox so blocked receivers wake at once
                                // instead of waiting out a poll interval.
                                failure.mark_dead(rank_id, panic_message(payload.as_ref()));
                                payloads.lock()[rank_id] = Some(payload);
                                for tx in txs.iter() {
                                    let _ = tx.send(Message {
                                        src: rank_id,
                                        tag: POISON_TAG,
                                        payload: Bytes::new(),
                                    });
                                }
                            }
                        }
                    })
                    .expect("spawn rank thread"),
            );
        }
        for h in handles {
            // Rank panics are caught inside the thread; a join error would
            // mean the reporting harness itself failed.
            h.join().expect("rank thread infrastructure panicked");
        }
        let dead = failure.dead_ranks();
        let first_dead = failure.first_dead();
        RunOutcome {
            results: Arc::try_unwrap(results)
                .unwrap_or_else(|_| panic!("results still shared"))
                .into_inner(),
            dead,
            payloads: Arc::try_unwrap(payloads)
                .unwrap_or_else(|_| panic!("payloads still shared"))
                .into_inner(),
            first_dead,
        }
    }
}

/// Best-effort string form of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(p) = payload.downcast_ref::<CommPanic>() {
        format!("rank {}: {}", p.rank, p.err)
    } else {
        "<non-string panic payload>".to_string()
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_tags_stay_inside_the_user_space() {
        assert!(campaign_tag(0) >= CAMPAIGN_TAG_BASE);
        assert!(campaign_tag(1_000_000) < MAX_USER_TAG);
        // Epoch stamping round-trips a campaign tag like any user tag.
        assert_eq!(user_tag(campaign_tag(7)), campaign_tag(7));
        // Campaign traffic routes by key over plain point-to-point sends.
        let got = Universe::run(2, |r| {
            if r.rank() == 1 {
                for job in [3u32, 1, 2] {
                    r.send(0, campaign_tag(job), f64s_to_bytes(&[job as f64]));
                }
                0.0
            } else {
                // Receive in key order regardless of send order.
                (1u32..=3)
                    .map(|job| bytes_to_f64s(&r.recv(1, campaign_tag(job)))[0])
                    .sum()
            }
        });
        assert_eq!(got[0], 6.0);
    }

    #[test]
    #[should_panic(expected = "overflows the user-tag space")]
    fn campaign_tag_overflow_panics() {
        let _ = campaign_tag(MAX_USER_TAG - CAMPAIGN_TAG_BASE);
    }

    #[test]
    fn ring_exchange() {
        let got = Universe::run(5, |r| {
            let right = (r.rank() + 1) % r.size();
            let left = (r.rank() + r.size() - 1) % r.size();
            r.send(right, 1, f64s_to_bytes(&[r.rank() as f64 * 2.0]));
            bytes_to_f64s(&r.recv(left, 1))[0]
        });
        assert_eq!(got, vec![8.0, 0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn out_of_order_matching_by_tag() {
        // Rank 0 sends two messages with different tags; rank 1 receives
        // them in the opposite order.
        let got = Universe::run(2, |r| {
            if r.rank() == 0 {
                r.send(1, 10, f64s_to_bytes(&[1.0]));
                r.send(1, 20, f64s_to_bytes(&[2.0]));
                0.0
            } else {
                let b = bytes_to_f64s(&r.recv(0, 20))[0];
                let a = bytes_to_f64s(&r.recv(0, 10))[0];
                10.0 * a + b
            }
        });
        assert_eq!(got[1], 12.0);
    }

    #[test]
    fn fifo_within_same_src_tag() {
        let got = Universe::run(2, |r| {
            if r.rank() == 0 {
                for i in 0..10 {
                    r.send(1, 5, f64s_to_bytes(&[i as f64]));
                }
                vec![]
            } else {
                (0..10).map(|_| bytes_to_f64s(&r.recv(0, 5))[0]).collect()
            }
        });
        assert_eq!(got[1], (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn self_send_works() {
        let got = Universe::run(1, |r| {
            r.send(0, 3, f64s_to_bytes(&[42.0]));
            bytes_to_f64s(&r.recv(0, 3))[0]
        });
        assert_eq!(got, vec![42.0]);
    }

    #[test]
    fn irecv_wait_overlap_pattern() {
        // The Algorithm-2 pattern: post receives, send, compute, then wait.
        let got = Universe::run(3, |r| {
            let right = (r.rank() + 1) % r.size();
            let left = (r.rank() + r.size() - 1) % r.size();
            let req = r.irecv(left, 9);
            r.isend(right, 9, f64s_to_bytes(&[r.rank() as f64]));
            let local = 100.0 * r.rank() as f64; // "compute"
            let remote = bytes_to_f64s(&r.wait(req))[0];
            local + remote
        });
        assert_eq!(got, vec![2.0, 100.0, 201.0]);
    }

    #[test]
    fn allreduce_ops() {
        for (op, expect) in [
            (ReduceOp::Sum, 0.0 + 1.0 + 2.0 + 3.0),
            (ReduceOp::Min, 0.0),
            (ReduceOp::Max, 3.0),
        ] {
            let got = Universe::run(4, move |r| r.allreduce_f64(r.rank() as f64, op));
            assert_eq!(got, vec![expect; 4], "{op:?}");
        }
    }

    #[test]
    fn allreduce_u64s_sums_elementwise() {
        let got = Universe::run(4, |r| {
            let v = [r.rank() as u64, 10 * r.rank() as u64, 1];
            r.allreduce_u64s(&v)
        });
        assert_eq!(got, vec![vec![6, 60, 4]; 4]);
        // Empty vectors are a valid degenerate reduction.
        let got = Universe::run(3, |r| r.allreduce_u64s(&[]));
        assert_eq!(got, vec![Vec::<u64>::new(); 3]);
    }

    #[test]
    fn gather_and_broadcast() {
        let got = Universe::run(4, |r| {
            let gathered = r.gather(2, f64s_to_bytes(&[r.rank() as f64]));
            if r.rank() == 2 {
                let v: Vec<f64> = gathered
                    .unwrap()
                    .iter()
                    .map(|b| bytes_to_f64s(b)[0])
                    .collect();
                assert_eq!(v, vec![0.0, 1.0, 2.0, 3.0]);
            } else {
                assert!(gathered.is_none());
            }
            let b = r.broadcast(1, f64s_to_bytes(&[7.5 * (r.rank() == 1) as u8 as f64]));
            bytes_to_f64s(&b)[0]
        });
        assert_eq!(got, vec![7.5; 4]);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PHASE1: AtomicUsize = AtomicUsize::new(0);
        let got = Universe::run(4, |r| {
            PHASE1.fetch_add(1, Ordering::SeqCst);
            r.barrier();
            PHASE1.load(Ordering::SeqCst)
        });
        assert_eq!(got, vec![4; 4]);
    }

    #[test]
    fn stats_count_bytes_and_messages() {
        let got = Universe::run(2, |r| {
            if r.rank() == 0 {
                r.send(1, 1, f64s_to_bytes(&[1.0, 2.0, 3.0]));
                r.send(1, 2, f64s_to_bytes(&[4.0]));
            } else {
                let _ = r.recv(0, 1);
                let _ = r.recv(0, 2);
            }
            r.barrier();
            let s = r.stats();
            (
                s.bytes_sent,
                s.messages_sent,
                s.bytes_received,
                s.messages_received,
            )
        });
        assert_eq!(got[0], (32, 2, 0, 0));
        assert_eq!(got[1], (0, 0, 32, 2));
    }

    #[test]
    fn per_tag_breakdown_tracks_both_directions() {
        let got = Universe::run(2, |r| {
            if r.rank() == 0 {
                r.send(1, 1, f64s_to_bytes(&[1.0, 2.0, 3.0]));
                r.send(1, 2, f64s_to_bytes(&[4.0]));
            } else {
                let _ = r.recv(0, 1);
                let _ = r.recv(0, 2);
            }
            r.barrier();
            r.stats()
        });
        assert_eq!(got[0].per_tag[&1].bytes_sent, 24);
        assert_eq!(got[0].per_tag[&2].bytes_sent, 8);
        assert_eq!(got[0].per_tag[&1].bytes_received, 0);
        assert_eq!(got[1].per_tag[&1].bytes_received, 24);
        assert_eq!(got[1].per_tag[&2].messages_received, 1);
        // Every receive left a latency observation.
        assert_eq!(got[1].recv_wait_hist.count(), 2);
    }

    #[test]
    fn universe_summary_aggregates_ranks() {
        let (_, summary) = Universe::run_with_stats(3, |r| {
            let right = (r.rank() + 1) % r.size();
            let left = (r.rank() + r.size() - 1) % r.size();
            r.send(right, 4, f64s_to_bytes(&[0.0; 4]));
            let _ = r.recv(left, 4);
        });
        assert_eq!(summary.per_rank.len(), 3);
        assert_eq!(summary.total.bytes_sent, 3 * 32);
        assert_eq!(summary.total.bytes_received, 3 * 32);
        assert_eq!(summary.total.messages_sent, 3);
        assert_eq!(summary.total.messages_received, 3);
        assert_eq!(summary.total.per_tag[&4].bytes_sent, 96);
        let rep = summary.report();
        assert!(rep.contains("total"));
        assert!(rep.lines().count() >= 5, "{rep}");
    }

    #[test]
    fn timing_tree_reduces_across_ranks() {
        use eutectica_telemetry::Telemetry;
        let got = Universe::run(4, |r| {
            let tel = Telemetry::new(r.rank());
            {
                let _step = tel.span("step");
                let _inner = tel.span_cat("exchange", "comm");
            }
            let red = r.reduce_timing(&tel.tree_snapshot());
            assert_eq!(red.is_some(), r.rank() == 0);
            red.map(|t| {
                (
                    t.n_ranks,
                    t.rows
                        .iter()
                        .map(|row| row.path.clone())
                        .collect::<Vec<_>>(),
                )
            })
        });
        let (n, paths) = got[0].clone().unwrap();
        assert_eq!(n, 4);
        assert_eq!(paths, ["step", "step/exchange"]);
    }

    #[test]
    fn f64_bytes_roundtrip() {
        let vals = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, std::f64::consts::PI];
        let b = f64s_to_bytes(&vals);
        assert_eq!(bytes_to_f64s(&b), vals);
    }

    // ----- fault tolerance -----

    #[test]
    fn fault_plan_decisions_are_deterministic() {
        let plan = FaultPlan::new(42)
            .drop_messages(Some(7), 0.5)
            .duplicate_messages(None, 0.3)
            .corrupt_messages(Some(9), 0.2);
        for _ in 0..3 {
            let a: Vec<_> = (0..64)
                .map(|i| {
                    let d = plan.decide(0, 1, 7, i);
                    (d.drop, d.duplicate, d.corrupt)
                })
                .collect();
            let b: Vec<_> = (0..64)
                .map(|i| {
                    let d = plan.decide(0, 1, 7, i);
                    (d.drop, d.duplicate, d.corrupt)
                })
                .collect();
            assert_eq!(a, b);
        }
        // Roughly the configured rates over many samples.
        let drops = (0..10_000)
            .filter(|&i| plan.decide(0, 1, 7, i).drop)
            .count();
        assert!((3_500..6_500).contains(&drops), "drop rate off: {drops}");
    }

    #[test]
    fn dead_rank_is_detected_not_deadlocked() {
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(10));
        let err = Universe::run_checked(3, cfg, |r| {
            if r.rank() == 1 {
                panic!("injected death");
            }
            // Ranks 0 and 2 wait on rank 1 — must error, not hang.
            r.recv_checked(1, 5).map(|_| ()).unwrap_err()
        })
        .unwrap_err();
        assert_eq!(err.dead.len(), 1);
        assert_eq!(err.dead[0].0, 1);
        assert!(err.dead[0].1.contains("injected death"));
    }

    #[test]
    fn recv_times_out_with_error() {
        let cfg = UniverseCfg::with_timeout(Duration::from_millis(50));
        let got = Universe::run_checked(2, cfg, |r| {
            if r.rank() == 0 {
                // Never sends.
                Ok(())
            } else {
                r.recv_checked(0, 3).map(|_| ())
            }
        })
        .unwrap();
        match &got[1] {
            Err(CommError::Timeout { op, src, .. }) => {
                assert_eq!(*op, "recv");
                assert_eq!(*src, Some(0));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn barrier_detects_dead_rank() {
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(10));
        let err = Universe::run_checked(3, cfg, |r| {
            if r.rank() == 2 {
                panic!("dies before barrier");
            }
            r.barrier_checked()
        })
        .unwrap_err();
        assert_eq!(err.dead[0].0, 2);
    }

    #[test]
    fn aborted_receives_are_counted() {
        let cfg = UniverseCfg::with_timeout(Duration::from_millis(40));
        let got = Universe::run_checked(2, cfg, |r| {
            if r.rank() == 1 {
                let _ = r.recv_checked(0, 1);
                r.stats().aborted_receives
            } else {
                0
            }
        })
        .unwrap();
        assert_eq!(got[1], 1);
    }

    #[test]
    fn injected_kill_fires_at_step() {
        let plan = FaultPlan::new(1).kill(1, 3);
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(5)).with_faults(plan);
        let err = Universe::run_checked(2, cfg, |r| {
            for step in 0..10u64 {
                r.fault_step(step);
                let _ = r.barrier_checked();
            }
        })
        .unwrap_err();
        assert_eq!(err.dead[0].0, 1);
        assert!(
            err.dead[0].1.contains("killed at step 3"),
            "{}",
            err.dead[0].1
        );
    }

    #[test]
    fn message_send_after_peer_death_is_lost_not_fatal() {
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(5));
        let got = Universe::run_checked(2, cfg, |r| {
            if r.rank() == 0 {
                panic!("gone");
            }
            // Wait until rank 0 is reaped, then send into the void.
            while r.recv_checked(0, 1).is_ok() {}
            r.send(0, 2, f64s_to_bytes(&[1.0]));
            r.stats().sends_to_dead
        })
        .unwrap_err();
        assert_eq!(got.dead[0].0, 0);
    }

    /// Drive [`Rank::recover_membership`] to completion, retrying typed
    /// second-death errors like a shrink driver would.
    fn recover(r: &Rank) -> MembershipChange {
        for _ in 0..16 {
            match r.recover_membership() {
                Ok(Some(change)) => return change,
                Ok(None) => panic!("recover called with nothing to fence"),
                Err(CommError::RankDead { .. }) => continue,
                Err(e) => panic!("membership round failed: {e}"),
            }
        }
        panic!("membership round did not converge");
    }

    #[test]
    fn shrink_recovery_installs_epoch_and_survivors_continue() {
        let plan = FaultPlan::new(9).kill(2, 1);
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(10)).with_faults(plan);
        let out = Universe::run_surviving(3, cfg, |r| {
            for step in 0..4u64 {
                r.fault_step(step);
                if catch_comm(|| r.allreduce_f64(1.0, ReduceOp::Sum)).is_err() {
                    let change = recover(&r);
                    assert_eq!(change.epoch, 1);
                    assert_eq!(change.alive, vec![0, 1]);
                    assert_eq!(change.newly_dead.len(), 1);
                    assert_eq!(change.newly_dead[0].0, 2);
                }
            }
            // Post-shrink point-to-point (epoch-stamped tags) + collective.
            let peer = 1 - r.rank();
            r.send(peer, 11, f64s_to_bytes(&[r.rank() as f64]));
            let got = bytes_to_f64s(&r.recv(peer, 11))[0];
            (r.epoch(), r.allreduce_f64(got, ReduceOp::Sum))
        });
        assert_eq!(out.dead.len(), 1);
        assert_eq!(out.dead[0].0, 2);
        for rank in [0, 1] {
            let (epoch, sum) = out.results[rank].expect("survivor result");
            assert_eq!(epoch, 1);
            assert_eq!(sum, 1.0); // 0 + 1 over the survivors
        }
        assert!(out.results[2].is_none());
    }

    #[test]
    fn second_death_inside_recovery_is_typed_and_retry_converges() {
        // Rank 3 dies at step 1; rank 2 dies the moment it enters the
        // membership round. Survivors must see a typed error (never a hang)
        // and converge on retry.
        let plan = FaultPlan::new(4)
            .kill(3, 1)
            .kill_in_phase(2, FaultPhase::Recovery, 0);
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(10)).with_faults(plan);
        let out = Universe::run_surviving(4, cfg, |r| {
            for step in 0..3u64 {
                r.fault_step(step);
                if catch_comm(|| r.barrier()).is_err() {
                    recover(&r);
                }
            }
            (r.epoch(), r.alive_ranks())
        });
        let dead: Vec<usize> = out.dead.iter().map(|d| d.0).collect();
        assert_eq!(dead.len(), 2);
        assert!(dead.contains(&2) && dead.contains(&3));
        for rank in [0, 1] {
            let (epoch, alive) = out.results[rank].clone().expect("survivor result");
            assert_eq!(epoch, 1);
            assert_eq!(alive, vec![0, 1]);
        }
    }

    #[test]
    fn post_shrink_collectives_remap_dead_root() {
        let plan = FaultPlan::new(3).kill(0, 1);
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(10)).with_faults(plan);
        let out = Universe::run_surviving(3, cfg, |r| {
            for step in 0..2u64 {
                r.fault_step(step);
                if catch_comm(|| r.barrier()).is_err() {
                    recover(&r);
                }
            }
            // Requested root 0 is dead: the lowest survivor takes over, so
            // root-pinned protocols keep working after the shrink.
            let gathered = r.gather(0, f64s_to_bytes(&[r.rank() as f64]));
            let bc = bytes_to_f64s(&r.broadcast(0, f64s_to_bytes(&[r.rank() as f64 * 10.0])))[0];
            (gathered.map(|g| bytes_to_f64s(&g[2])[0]), bc)
        });
        assert_eq!(out.dead[0].0, 0);
        let (g1, bc1) = out.results[1].expect("rank 1 result");
        let (g2, bc2) = out.results[2].expect("rank 2 result");
        assert_eq!(g1, Some(2.0), "rank 1 acts as gather root");
        assert_eq!(g2, None);
        assert_eq!(bc1, 10.0, "rank 1's payload is broadcast");
        assert_eq!(bc2, 10.0);
    }

    #[test]
    fn stale_pre_shrink_messages_are_fenced() {
        let plan = FaultPlan::new(5).kill(2, 1);
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(10)).with_faults(plan);
        let out = Universe::run_surviving(3, cfg, |r| {
            if r.rank() == 0 {
                // Epoch-0 message that is never received before the shrink.
                r.send(1, 5, f64s_to_bytes(&[1.0]));
            }
            for step in 0..2u64 {
                r.fault_step(step);
                if catch_comm(|| r.barrier()).is_err() {
                    recover(&r);
                }
            }
            if r.rank() == 0 {
                r.send(1, 5, f64s_to_bytes(&[99.0]));
                0.0
            } else {
                // The epoch-1 receive must match only the post-shrink send;
                // the stale epoch-0 message was purged by the flush round.
                let v = bytes_to_f64s(&r.recv(0, 5))[0];
                assert!(
                    r.stats().fenced_messages >= 1,
                    "stale pre-shrink message was not fenced"
                );
                v
            }
        });
        assert_eq!(out.dead[0].0, 2);
        assert_eq!(out.results[1], Some(99.0));
    }

    #[test]
    fn fail_fast_aborts_receives_unrelated_to_the_dead_rank() {
        // Without fail-fast, a receive from a live-but-silent source waits
        // out the full timeout even though a third rank died; the shrink
        // driver needs every survivor at the membership round promptly.
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(30)).with_fail_fast();
        let out = Universe::run_surviving(3, cfg, |r| {
            if r.rank() == 2 {
                panic!("boom");
            }
            let start = Instant::now();
            let err = r.recv_checked(1 - r.rank(), 1).unwrap_err();
            assert!(
                matches!(err, CommError::RankDead { rank: 2, .. }),
                "expected typed death, got {err}"
            );
            start.elapsed() < Duration::from_secs(10)
        });
        assert_eq!(out.results[0], Some(true));
        assert_eq!(out.results[1], Some(true));
    }
}
