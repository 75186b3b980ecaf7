//! How a communication operation fails: the typed [`CommError`], the
//! [`CommPanic`] payload it travels in, and [`catch_comm`] to get it back.

use std::time::Duration;

/// Failure of a blocking communication operation.
///
/// A failing operation panics with it inside a [`CommPanic`] payload;
/// [`catch_comm`] returns it. Either way no operation blocks forever: a dead
/// peer or an expired timeout surfaces within the configured
/// [`UniverseCfg::timeout`](crate::UniverseCfg::timeout).
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

/// Typed panic payload raised by a failing communication operation.
/// Carrying the [`CommError`] as a structured payload — rather than a
/// formatted string — lets a recovery driver [`catch_comm`] the failure and
/// shrink-continue instead of tearing the universe down.
#[derive(Debug, Clone)]
pub struct CommPanic {
    /// The rank whose operation failed.
    pub rank: usize,
    /// The underlying communication failure.
    pub err: CommError,
}

/// Run `f`, converting a panic raised by a failing comm operation back into
/// its typed [`CommError`]. Panics with any other payload — including
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

/// The ranks that died during one execution of a universe.
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
