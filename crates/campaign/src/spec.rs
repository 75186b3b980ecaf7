//! Campaign specification: a parameter grid over directional-solidification
//! runs, expanded into a deterministic, densely keyed job list.
//!
//! The spec grammar is a cartesian product over four axes — pulling
//! velocity `v`, thermal gradient `G`, initial composition (Voronoi seed
//! phase fractions), and RNG seed — at a fixed domain size and step
//! budget. Expansion order is fixed (`v` outermost, then `G`, composition,
//! seed), so the job key is a pure function of the spec: every rank
//! expands the identical list without communicating, and a job's key
//! doubles as its comm-tag routing key and checkpoint namespace.

use std::fmt;

use eutectica_comm::CommError;
use eutectica_core::params::ModelParams;

/// Error type of campaign validation, expansion, and execution.
#[derive(Clone, Debug)]
pub enum CampaignError {
    /// A grid axis is empty — the product would contain no jobs.
    EmptyAxis(&'static str),
    /// Two expansion indices name the bit-identical parameter point.
    /// Duplicate points would collide on checkpoint namespaces and comm
    /// tags (and silently double compute), so they are rejected up front.
    DuplicatePoint {
        /// Key of the first occurrence.
        first: u32,
        /// Key of the duplicate.
        second: u32,
        /// Human-readable point label.
        label: String,
    },
    /// A grid point fails `ModelParams::validate`.
    InvalidPoint {
        /// Human-readable point label.
        label: String,
        /// The underlying validation failure.
        reason: String,
    },
    /// A communication failure that shrink recovery was not allowed (or
    /// able) to absorb: a death with `CampaignOpts::shrink` off, or a
    /// failure with no death to shrink away from.
    Comm(CommError),
    /// More ranks died than the shrink budget covers.
    ShrinkExhausted {
        /// Deaths the policy allowed.
        budget: usize,
        /// Deaths observed.
        deaths: usize,
    },
    /// A per-job checkpoint write or restore failed.
    Ckpt(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyAxis(axis) => write!(f, "campaign axis '{axis}' is empty"),
            Self::DuplicatePoint {
                first,
                second,
                label,
            } => write!(
                f,
                "duplicate parameter point {label} (jobs {first} and {second})"
            ),
            Self::InvalidPoint { label, reason } => {
                write!(f, "invalid parameter point {label}: {reason}")
            }
            Self::Comm(e) => write!(f, "campaign comm failure: {e}"),
            Self::ShrinkExhausted { budget, deaths } => write!(
                f,
                "shrink budget exhausted: {deaths} rank deaths, budget {budget}"
            ),
            Self::Ckpt(e) => write!(f, "job checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Comm(e) => Some(e),
            _ => None,
        }
    }
}

/// A parameter-sweep campaign over small directional-solidification runs.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Base model parameters; each job overrides `vel_v` and `grad_g`.
    pub base: ModelParams,
    /// Domain size of every job (one block, whole domain).
    pub dims: [usize; 3],
    /// Step budget of every job (0 is legal: the job completes without
    /// stepping — useful for spec dry-runs).
    pub steps: usize,
    /// Pulling-velocity axis (`ModelParams::vel_v`).
    pub velocities: Vec<f64>,
    /// Thermal-gradient axis (`ModelParams::grad_g`).
    pub gradients: Vec<f64>,
    /// Initial-composition axis: Voronoi seed phase fractions (α, β, γ).
    pub compositions: Vec<[f64; 3]>,
    /// RNG-seed axis for the Voronoi nucleation layout.
    pub seeds: Vec<u64>,
}

impl CampaignSpec {
    /// A single-axis spec around `base`: one composition (the eutectic
    /// fractions of `base`), one gradient and velocity (from `base`), and
    /// the given seeds. Extend the other axes field-by-field.
    pub fn around(base: ModelParams, dims: [usize; 3], steps: usize, seeds: Vec<u64>) -> Self {
        let comp = base.sys.eutectic_fractions();
        Self {
            velocities: vec![base.vel_v],
            gradients: vec![base.grad_g],
            compositions: vec![comp],
            seeds,
            base,
            dims,
            steps,
        }
    }

    /// Number of jobs the spec expands to.
    pub fn points(&self) -> usize {
        self.velocities.len() * self.gradients.len() * self.compositions.len() * self.seeds.len()
    }

    /// Expand the grid into the deterministic job list, validating every
    /// point and rejecting duplicates with a typed error.
    pub fn expand(&self) -> Result<Vec<JobSpec>, CampaignError> {
        if self.velocities.is_empty() {
            return Err(CampaignError::EmptyAxis("velocities"));
        }
        if self.gradients.is_empty() {
            return Err(CampaignError::EmptyAxis("gradients"));
        }
        if self.compositions.is_empty() {
            return Err(CampaignError::EmptyAxis("compositions"));
        }
        if self.seeds.is_empty() {
            return Err(CampaignError::EmptyAxis("seeds"));
        }
        let mut jobs = Vec::with_capacity(self.points());
        let mut seen: std::collections::HashMap<PointKey, u32> = std::collections::HashMap::new();
        for &v in &self.velocities {
            for &g in &self.gradients {
                for (ci, &composition) in self.compositions.iter().enumerate() {
                    for &seed in &self.seeds {
                        let key = jobs.len() as u32;
                        let job = JobSpec {
                            key,
                            v,
                            g,
                            composition,
                            comp_index: ci,
                            seed,
                            dims: self.dims,
                            steps: self.steps,
                            base: self.base.clone(),
                        };
                        let pk = job.point_key();
                        if let Some(&first) = seen.get(&pk) {
                            return Err(CampaignError::DuplicatePoint {
                                first,
                                second: key,
                                label: job.label(),
                            });
                        }
                        seen.insert(pk, key);
                        job.validate_point()?;
                        jobs.push(job);
                    }
                }
            }
        }
        Ok(jobs)
    }
}

/// Bit-exact identity of a parameter point (used for duplicate rejection).
type PointKey = (u64, u64, [u64; 3], u64);

/// One expanded job: a parameter point plus its dense key.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Dense expansion index; comm-tag routing key and checkpoint
    /// namespace id.
    pub key: u32,
    /// Pulling velocity of this point.
    pub v: f64,
    /// Thermal gradient of this point.
    pub g: f64,
    /// Voronoi seed phase fractions of this point.
    pub composition: [f64; 3],
    /// Index of `composition` in the spec's axis (for labels).
    pub comp_index: usize,
    /// Nucleation RNG seed of this point.
    pub seed: u64,
    /// Domain size (one block).
    pub dims: [usize; 3],
    /// Step budget.
    pub steps: usize,
    /// Base parameters the overrides apply to.
    pub base: ModelParams,
}

impl JobSpec {
    /// The job's full model parameters (`base` with `vel_v`/`grad_g`
    /// overridden by this point).
    pub fn params(&self) -> ModelParams {
        let mut p = self.base.clone();
        p.vel_v = self.v;
        p.grad_g = self.g;
        p
    }

    /// Human-readable point label, e.g. `v0.0200_g0.0010_c0_s42`.
    pub(crate) fn label(&self) -> String {
        format!(
            "v{:.4}_g{:.4}_c{}_s{}",
            self.v, self.g, self.comp_index, self.seed
        )
    }

    /// Point-level validation: finite axis values, a usable composition,
    /// a non-degenerate domain, and the base stability bound.
    fn validate_point(&self) -> Result<(), CampaignError> {
        let fail = |reason: String| CampaignError::InvalidPoint {
            label: self.label(),
            reason,
        };
        if !self.v.is_finite() || !self.g.is_finite() {
            return Err(fail("non-finite velocity or gradient".into()));
        }
        let csum: f64 = self.composition.iter().sum();
        if self.composition.iter().any(|c| !c.is_finite() || *c < 0.0) || csum <= 0.0 {
            return Err(fail(format!("unusable composition {:?}", self.composition)));
        }
        if self.dims.iter().any(|&d| d < 2) {
            return Err(fail(format!("degenerate dims {:?}", self.dims)));
        }
        self.params().validate().map_err(|e| fail(e.to_string()))
    }

    /// Bit-exact point identity (ignores the key).
    fn point_key(&self) -> PointKey {
        (
            self.v.to_bits(),
            self.g.to_bits(),
            self.composition.map(f64::to_bits),
            self.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> CampaignSpec {
        let mut s = CampaignSpec::around(ModelParams::ag_al_cu(), [8, 8, 12], 4, vec![1, 2]);
        s.velocities = vec![0.01, 0.02];
        s.gradients = vec![0.001, 0.002];
        s
    }

    #[test]
    fn expansion_is_dense_ordered_and_repeatable() {
        let spec = base_spec();
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), spec.points());
        assert_eq!(jobs.len(), 8);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.key as usize, i);
        }
        // Pure function of the spec.
        let again = spec.expand().unwrap();
        for (a, b) in jobs.iter().zip(&again) {
            assert_eq!(a.label(), b.label());
            assert_eq!(a.seed, b.seed);
        }
        // v is the outermost axis.
        assert_eq!(jobs[0].v, 0.01);
        assert_eq!(jobs[4].v, 0.02);
    }

    #[test]
    fn empty_axes_and_duplicates_are_typed_errors() {
        let mut spec = base_spec();
        spec.seeds.clear();
        assert!(matches!(
            spec.expand(),
            Err(CampaignError::EmptyAxis("seeds"))
        ));

        let mut spec = base_spec();
        spec.seeds = vec![1, 2, 1];
        match spec.expand() {
            Err(CampaignError::DuplicatePoint { first, second, .. }) => {
                assert_eq!(first, 0);
                assert_eq!(second, 2);
            }
            other => panic!("expected DuplicatePoint, got {other:?}"),
        }
    }

    #[test]
    fn invalid_points_are_rejected_with_their_label() {
        let mut spec = base_spec();
        spec.velocities = vec![0.01, f64::NAN];
        match spec.expand() {
            Err(CampaignError::InvalidPoint { label, .. }) => {
                assert!(label.contains("vNaN"), "{label}");
            }
            other => panic!("expected InvalidPoint, got {other:?}"),
        }
    }
}
