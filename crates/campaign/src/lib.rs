//! Campaign engine: co-scheduled parameter-sweep fleets with per-job
//! isolation.
//!
//! The solver's production workflow (SC'15 §6) is not one hero run but a
//! *sweep*: dozens of small directional-solidification simulations across
//! pulling velocity `v`, thermal gradient `G`, composition, and nucleation
//! seed, mapping the lamellar-spacing/undercooling response surface. This
//! crate runs such a sweep as one co-scheduled fleet on a single rank
//! universe instead of N sequential launches:
//!
//! - [`CampaignSpec`] expands the parameter grid into a deterministic,
//!   densely keyed job list ([`JobSpec`]) — every rank derives it without
//!   communicating (`spec`).
//! - [`sched::plan`] assigns jobs to ranks with the same LPT placement
//!   idiom the block rebalancer uses, keyed by estimated cost from
//!   per-region kernel rates (`sched`).
//! - [`run_campaign`] steps each rank's resident jobs round-robin through
//!   the existing [`eutectica_core::solver::Simulation`] machinery and
//!   streams per-job progress to a collector rank on job-keyed comm tags
//!   above the ghost/epoch tag space (`runner`).
//!
//! Jobs are *isolated*: each owns its checkpoint namespace, health
//! monitor, fault plan, and rollback budget, so a NaN rollback or failure
//! in one job never perturbs a sibling — and a job inside a campaign is
//! bit-identical to the same point run standalone, at any rank count and
//! thread count (`tests/campaign_isolation.rs` pins both properties).
//! Rank deaths shrink the fleet: survivors adopt the dead rank's jobs from
//! their per-job checkpoints and the campaign completes.

#![deny(missing_docs)]

mod runner;
mod sched;
mod spec;

pub use runner::{
    field_checksum, run_campaign, standalone_sim, CampaignOpts, CampaignReport, JobStatus,
};
pub use sched::plan;
pub use spec::{CampaignError, CampaignSpec, JobSpec};
