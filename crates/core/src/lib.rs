//! Grand-potential phase-field solver for ternary eutectic directional
//! solidification — the primary contribution of the SC'15 paper by Bauer,
//! Hötzer et al., reimplemented in Rust.
//!
//! The model couples N = 4 order parameters φ (three solids of the Ag-Al-Cu
//! eutectic plus the melt) to K − 1 = 2 chemical potentials µ through a
//! thermodynamically consistent grand-potential formulation with an
//! anti-trapping current, solved with finite differences and explicit Euler
//! time stepping on a block-structured grid (see `eutectica-blockgrid`) with
//! MPI-style parallelization (see `eutectica-comm`).
//!
//! # Crate layout
//!
//! * [`params`] — physical/numerical parameters ([`params::ModelParams`]).
//! * [`model`] — the discretized equations as scalar primitives (single
//!   source of truth for all kernel variants).
//! * [`simplex`] — Gibbs-simplex projection of the order parameters.
//! * [`temperature`] — frozen-temperature ansatz + per-slice precomputation.
//! * [`state`] — per-block field state (φ/µ, src/dst).
//! * [`kernels`] — the full optimization ladder of compute kernels:
//!   general-purpose reference, specialized scalar, explicitly vectorized
//!   SIMD (cellwise and four-cell), each with the paper's T(z), staggered
//!   buffer, and shortcut optimizations.
//! * [`init`] — Voronoi-tessellated solid nuclei and other initial setups.
//! * [`regions`] — domain-region classification and the interface / solid /
//!   liquid benchmark scenarios of Sec. 5.1.
//! * [`migrate`] — bit-exact wire format for in-flight block migration
//!   (dynamic load rebalancing).
//! * [`health`] — silent-corruption defense: periodic field-invariant
//!   scans (φ on the Gibbs simplex, bounded µ, everything finite) and the
//!   deterministic [`health::FieldFaultPlan`] numerical-fault injector.
//! * [`sweep_pool`] — intra-rank work-sharing: a persistent thread pool
//!   partitioning each block's interior into z-slabs (the OpenMP half of
//!   the paper's hybrid MPI × OpenMP parallelization).
//! * `stages` — the one stage list of a time step (faults, sweeps,
//!   exchanges and boundary handling, swap, moving window, health scan),
//!   shared by the two front ends below.
//! * [`timeloop`] — Algorithms 1 & 2 (with/without communication hiding)
//!   over blocks and ranks: ghost exchange through `eutectica-comm`,
//!   rebalancing, per-step accounting.
//! * [`solver`] — a high-level single-process façade for applications: the
//!   one-block form of the stage list.
//!
//! # Quickstart
//!
//! ```
//! use eutectica_core::prelude::*;
//!
//! let params = ModelParams::ag_al_cu();
//! let mut sim = Simulation::new(params, [16, 16, 32]).expect("valid setup");
//! sim.init_directional(42);
//! sim.step_n(10);
//! let solid = sim.solid_fraction();
//! assert!(solid > 0.0);
//! ```

// Index-based loops deliberately mirror the paper's stencil formulations;
// iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

mod exchange;
pub mod health;
pub mod init;
pub mod kernels;
pub mod metrics;
pub mod migrate;
pub mod model;
pub mod params;
pub mod regions;
pub mod simplex;
pub mod solver;
mod stages;
pub mod state;
pub mod sweep_pool;
pub mod temperature;
pub mod timeloop;

/// Number of order parameters (phases): 3 solids + liquid.
pub const N_PHASES: usize = 4;
/// Number of independent chemical potentials (K − 1 with K = 3 components).
pub const N_COMP: usize = 2;
/// Index of the liquid phase.
pub const LIQ: usize = 3;

/// Commonly used items.
pub mod prelude {
    pub use crate::kernels::{KernelConfig, MuVariant, OptLevel, PhiVariant};
    pub use crate::params::ModelParams;
    pub use crate::solver::Simulation;
    pub use crate::state::BlockState;
    pub use crate::{LIQ, N_COMP, N_PHASES};
}
