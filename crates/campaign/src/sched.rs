//! Deterministic job→rank co-scheduling.
//!
//! The scheduler is the LPT placement idiom from the block rebalancer,
//! lifted from blocks to whole jobs: each job's weight is its *estimated
//! cost* — step budget × per-step cost from per-region kernel rates
//! (interface / liquid / solid MLUP/s) applied to an analytic region census
//! of the directional initial condition. The estimate only
//! has to be a pure function of the job spec: [`plan`] is then replicated
//! arithmetic, so every rank derives the identical assignment, and the
//! rank-0 broadcast in the runner is a *confirmation* of a shared decision
//! (and the single source of truth if estimators ever diverge).

use eutectica_blockgrid::balance::assign_lpt_over;
use eutectica_core::regions::{block_weight, RegionCounts};

use crate::spec::JobSpec;

/// Estimated relative cost of one job: steps × per-step cost of its
/// domain under the given per-region rates (`[interface, liquid, solid]`
/// MLUP/s, e.g. `eutectica_core::regions::DEFAULT_REGION_RATES`).
///
/// The region census is analytic, not measured: the directional initial
/// condition fills the bottom quarter (≥2 layers) with Voronoi solid,
/// topped by a solidification front; we charge ~2 layers of front cells,
/// grain-boundary walls proportional to the fill perimeter, and the rest
/// as bulk. Zero-step jobs get a small positive epsilon so LPT still
/// spreads them.
pub fn estimated_cost(job: &JobSpec, rates_mlups: [f64; 3]) -> f64 {
    let [nx, ny, nz] = job.dims;
    let fill = (nz / 4).max(2).min(nz);
    let front_layers = 2.min(nz - fill.min(nz));
    let plane = nx * ny;
    let front = front_layers * plane;
    // Voronoi grain boundaries inside the fill: ~one wall cell per
    // boundary-length unit per layer.
    let solid_interface = (fill * (nx + ny)).min(fill * plane);
    let solid_bulk = fill * plane - solid_interface;
    let liquid_bulk = nz.saturating_sub(fill + front_layers) * plane;
    let counts = RegionCounts {
        solid_bulk,
        liquid_bulk,
        solid_interface,
        front,
    };
    (job.steps.max(1) as f64) * block_weight(&counts, rates_mlups) / 1.0e6
}

/// A planned campaign schedule: job key → owner rank, plus the costs the
/// plan was keyed by (for diagnostics and re-planning after a shrink).
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Owner rank per job key.
    pub assignment: Vec<usize>,
    /// Estimated cost per job key.
    pub costs: Vec<f64>,
}

impl Schedule {
    /// Job keys owned by `rank`, ascending.
    pub fn jobs_of(&self, rank: usize) -> Vec<u32> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == rank)
            .map(|(k, _)| k as u32)
            .collect()
    }

    /// Wire encoding of the assignment (u32 LE per job) for the rank-0
    /// scheduler broadcast.
    pub fn encode(&self) -> Vec<u8> {
        self.assignment
            .iter()
            .flat_map(|&r| (r as u32).to_le_bytes())
            .collect()
    }

    /// Decode a broadcast assignment; `costs` are recomputed by the
    /// receiver (pure function of the job list).
    pub fn decode(bytes: &[u8], costs: Vec<f64>) -> Self {
        let assignment = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as usize)
            .collect();
        Self { assignment, costs }
    }
}

/// Plan the campaign over the given alive ranks: LPT placement of the
/// estimated costs. Deterministic: a pure function of `(jobs, rates,
/// ranks)` with the tie-break rules of `assign_lpt` (equal costs → lowest
/// job key first; equal loads → earliest rank in `ranks`).
pub fn plan(jobs: &[JobSpec], rates_mlups: [f64; 3], ranks: &[usize]) -> Schedule {
    let costs: Vec<f64> = jobs
        .iter()
        .map(|j| estimated_cost(j, rates_mlups))
        .collect();
    let assignment = assign_lpt_over(&costs, ranks);
    Schedule { assignment, costs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
    use eutectica_core::params::ModelParams;
    use eutectica_core::regions::DEFAULT_REGION_RATES;

    fn jobs() -> Vec<JobSpec> {
        let mut s = CampaignSpec::around(
            ModelParams::ag_al_cu(),
            [8, 8, 12],
            6,
            vec![1, 2, 3, 4, 5, 6, 7, 8],
        );
        s.velocities = vec![0.01, 0.02];
        s.expand().unwrap()
    }

    #[test]
    fn plan_is_deterministic_and_covers_all_ranks() {
        let jobs = jobs();
        let ranks = vec![0, 1, 2, 3];
        let a = plan(&jobs, DEFAULT_REGION_RATES, &ranks);
        let b = plan(&jobs, DEFAULT_REGION_RATES, &ranks);
        assert_eq!(a, b);
        assert_eq!(a.assignment.len(), jobs.len());
        for r in &ranks {
            assert!(!a.jobs_of(*r).is_empty(), "rank {r} got no jobs");
        }
        // Wire round-trip.
        let dec = Schedule::decode(&a.encode(), a.costs.clone());
        assert_eq!(dec, a);
    }

    #[test]
    fn uniform_jobs_spread_evenly() {
        let jobs = jobs(); // 16 identical-cost jobs
        let s = plan(&jobs, DEFAULT_REGION_RATES, &[0, 1, 2, 3]);
        for r in 0..4 {
            assert_eq!(s.jobs_of(r).len(), 4, "{:?}", s.assignment);
        }
    }

    #[test]
    fn zero_step_jobs_have_positive_cost() {
        let mut spec = CampaignSpec::around(ModelParams::ag_al_cu(), [8, 8, 12], 0, vec![1]);
        spec.steps = 0;
        let jobs = spec.expand().unwrap();
        assert!(estimated_cost(&jobs[0], DEFAULT_REGION_RATES) > 0.0);
    }
}
