//! Spawning ranks: [`Universe`] runs one closure per rank thread, reaps
//! ranks that panic, and reports results and deaths.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam_channel::unbounded;
use parking_lot::Mutex;

use crate::membership::{FailureState, FaultBarrier, MembershipState};
use crate::rank::Message;
use crate::{CommPanic, CommStats, CommSummary, FaultPlan, Rank, POISON_TAG};

/// Panic payload captured from a dead rank thread.
type PanicPayload = Box<dyn std::any::Any + Send>;

/// Poll interval at which blocked operations re-check the failure state;
/// bounds the detection latency of a peer death.
pub(crate) const POLL: Duration = Duration::from_millis(2);

/// Execution parameters of a [`Universe`]: failure-detection timeouts and an
/// optional fault-injection plan.
#[derive(Clone, Debug)]
pub struct UniverseCfg {
    /// Upper bound on any single blocking communication operation. Blocking
    /// calls fail with [`CommError::Timeout`](crate::CommError::Timeout)
    /// instead of waiting longer.
    pub timeout: Duration,
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

impl Universe {
    /// Spawn `n` ranks running `f` and collect their return values in rank
    /// order. Panics in any rank propagate (the earliest-dying rank's
    /// payload is re-raised); surviving ranks observe the death as
    /// [`CommError`](crate::CommError)s instead of deadlocking.
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
    /// *report* deaths instead of panicking: every rank's return value (or
    /// `None` if it died — by its own panic or an injected kill) is returned
    /// alongside the dead set, in order of death. Survivors are unwound via
    /// [`CommError`](crate::CommError)s, so nothing deadlocks, and a
    /// shrink-and-continue driver can decide success from the survivors'
    /// outputs.
    pub fn run_surviving<T, F>(n: usize, cfg: UniverseCfg, f: F) -> SurvivalOutcome<T>
    where
        T: Send + 'static,
        F: Fn(Rank) -> T + Send + Sync + 'static,
    {
        Self::run_inner(n, f, None, cfg).0
    }

    fn finish_infallible<T>(
        (out, mut payloads): (SurvivalOutcome<T>, Vec<Option<PanicPayload>>),
    ) -> Vec<T> {
        if let Some((first, msg)) = out.dead.first() {
            if let Some(p) = payloads[*first].take() {
                std::panic::resume_unwind(p);
            }
            panic!("rank {first} died: {msg}");
        }
        out.results
            .into_iter()
            .map(|o| o.expect("rank produced no result"))
            .collect()
    }

    /// Run the ranks; besides the outcome, return each dead rank's panic
    /// payload so [`Universe::run`] can re-raise it.
    fn run_inner<T, F>(
        n: usize,
        f: F,
        stats_sink: Option<Arc<Mutex<Vec<Option<CommStats>>>>>,
        cfg: UniverseCfg,
    ) -> (SurvivalOutcome<T>, Vec<Option<PanicPayload>>)
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
        let outcome = SurvivalOutcome {
            results: Arc::try_unwrap(results)
                .unwrap_or_else(|_| panic!("results still shared"))
                .into_inner(),
            dead: failure.dead_in(0, u64::MAX),
        };
        let payloads = Arc::try_unwrap(payloads)
            .unwrap_or_else(|_| panic!("payloads still shared"))
            .into_inner();
        (outcome, payloads)
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
