//! Live in-situ observability plane for the eutectic solver.
//!
//! The paper's workflow is batch-shaped: run, checkpoint, post-process.
//! This crate turns the running solver into something that *serves
//! traffic*, with two pillars:
//!
//! 1. **In-situ observables** ([`observables`]) — a cadenced collective
//!    reducer computing front position/velocity/roughness, phase
//!    fractions, a lamella census with spacing estimate, undercooling,
//!    and interface density from the live distributed state, emitted as
//!    typed [`ObservableRecord`]s.
//! 2. **Subscription endpoint** ([`server`], [`bus`]) — a dependency-free
//!    TCP/HTTP server on rank 0 streaming newline-delimited JSON metrics
//!    and downsampled 2-D field slices ([`slices`]) to N concurrent
//!    subscribers over bounded-lag broadcast channels. Slow consumers
//!    drop frames (counted exactly), they never stall the sweep.
//!
//! Everything here is *inert* by construction: observation reads
//! `phi_src`/`mu_src` only and communicates via fresh collectives in
//! identical order on every rank, so fields stay bit-identical with the
//! plane on or off (`tests/live_observability.rs` enforces it).

#![deny(missing_docs)]

pub mod bus;
pub mod jobs;
pub mod json;
pub mod observables;
pub mod server;
pub mod slices;

pub use bus::{BusStats, FrameBus, Subscription};
pub use jobs::JobRecord;
pub use observables::{InSituObserver, ObservableRecord, ObservablesConfig};
pub use server::LiveServer;
pub use slices::{gather_slice, SliceField, SliceFrame};
