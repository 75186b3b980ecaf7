//! Initial conditions.
//!
//! "As initial setup we use solid nuclei at the bottom of a liquid filled
//! domain ... created by a Voronoi tesselation with respect to the given
//! volume fractions of the phases" (Sec. 2.1, Fig. 2). Seeds are columnar
//! (2-D Voronoi in the x-y plane, periodic), assigned to the three solid
//! phases so the seed count per phase matches the eutectic volume fractions.
//!
//! All initializers work in *global* coordinates through the block origin,
//! so a multi-block/multi-rank initialization is identical to a single-block
//! one.

use rand::{Rng, SeedableRng};

use crate::state::{BlockState, PHI_LIQUID};
use crate::{LIQ, N_COMP, N_PHASES};

/// Columnar Voronoi seed set over a periodic x-y domain.
#[derive(Clone, Debug)]
pub struct VoronoiSeeds {
    /// Seed position (x, y) and assigned solid phase (0..3).
    pub seeds: Vec<([f64; 2], usize)>,
    /// Periodic domain extent in cells.
    pub domain: [usize; 2],
}

impl VoronoiSeeds {
    /// Generate `n_seeds` random seeds with phase counts proportional to the
    /// given volume `fractions` (summing to 1).
    pub fn generate(domain_xy: [usize; 2], n_seeds: usize, fractions: [f64; 3], seed: u64) -> Self {
        assert!(n_seeds >= 3, "need at least one seed per solid phase");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Deterministic phase assignment honoring the fractions (largest
        // remainder), then shuffled so phases are spatially mixed.
        let mut counts = [0usize; 3];
        let mut assigned = 0;
        for p in 0..3 {
            counts[p] = ((fractions[p] * n_seeds as f64).floor() as usize).max(1);
            assigned += counts[p];
        }
        let mut p = 0;
        while assigned < n_seeds {
            counts[p] += 1;
            assigned += 1;
            p = (p + 1) % 3;
        }
        while assigned > n_seeds {
            let pmax = (0..3).max_by_key(|&q| counts[q]).unwrap();
            counts[pmax] -= 1;
            assigned -= 1;
        }
        let mut phases: Vec<usize> = (0..3)
            .flat_map(|q| std::iter::repeat_n(q, counts[q]))
            .collect();
        // Fisher-Yates shuffle.
        for i in (1..phases.len()).rev() {
            let j = rng.random_range(0..=i);
            phases.swap(i, j);
        }
        let seeds = phases
            .into_iter()
            .map(|ph| {
                (
                    [
                        rng.random_range(0.0..domain_xy[0] as f64),
                        rng.random_range(0.0..domain_xy[1] as f64),
                    ],
                    ph,
                )
            })
            .collect();
        Self {
            seeds,
            domain: domain_xy,
        }
    }

    /// Solid phase of the Voronoi cell containing (x, y), with periodic
    /// wrap-around distance.
    fn phase_at(&self, x: f64, y: f64) -> usize {
        let (lx, ly) = (self.domain[0] as f64, self.domain[1] as f64);
        let mut best = f64::INFINITY;
        let mut phase = 0;
        for (pos, ph) in &self.seeds {
            let mut dx = (x - pos[0]).abs();
            let mut dy = (y - pos[1]).abs();
            if dx > lx * 0.5 {
                dx = lx - dx;
            }
            if dy > ly * 0.5 {
                dy = ly - dy;
            }
            let d = dx * dx + dy * dy;
            if d < best {
                best = d;
                phase = *ph;
            }
        }
        phase
    }
}

/// Fill a block with the directional-solidification initial condition:
/// Voronoi solid columns below `fill_height` (global z), liquid above, µ at
/// the eutectic equilibrium (0).
pub fn init_directional_block(state: &mut BlockState, seeds: &VoronoiSeeds, fill_height: usize) {
    let [ox, oy, _] = state.origin;
    init_solid_below(state, fill_height, |x, y| {
        seeds.phase_at((ox + x) as f64, (oy + y) as f64)
    });
}

/// Planar solid front of one phase below `height` (global z).
pub fn init_planar_front(state: &mut BlockState, phase: usize, height: usize) {
    assert!(phase < LIQ);
    init_solid_below(state, height, |_, _| phase);
}

/// Make `state` liquid at µ = 0 with solid `phase_of(x, y)` (interior
/// coordinates) in every cell below global height `height`, then apply the
/// boundary conditions to src and copy src into dst. On a block as
/// [`BlockState::new`] leaves it, only the solid cells are written.
fn init_solid_below(
    state: &mut BlockState,
    height: usize,
    phase_of: impl Fn(usize, usize) -> usize,
) {
    let d = state.dims;
    let g = d.ghost;
    // Free on a fresh block, whose fields are one constant zone each.
    state.phi_src.extend_const_zone(0, PHI_LIQUID);
    state.mu_src.extend_const_zone(0, [0.0; N_COMP]);
    let solid_slabs = height.saturating_sub(state.origin[2]).min(d.nz);
    if solid_slabs > 0 {
        let phases: Vec<usize> = (0..d.nx * d.ny)
            .map(|i| phase_of(i % d.nx, i / d.nx))
            .collect();
        for z in 0..solid_slabs {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let mut phi = [0.0; N_PHASES];
                    phi[phases[y * d.nx + x]] = 1.0;
                    state.phi_src.set_cell(x + g, y + g, z + g, phi);
                }
            }
        }
    }
    state.apply_bc_src();
    state.sync_dst_from_src();
}

/// Number of seeds that gives the paper-like lamella spacing: roughly one
/// seed per (16 cells)² of cross section, at least 3.
pub fn default_seed_count(nx: usize, ny: usize) -> usize {
    ((nx * ny) / 256).max(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eutectica_blockgrid::GridDims;

    #[test]
    fn seed_phases_respect_fractions() {
        let fr = [0.5, 0.25, 0.25];
        let s = VoronoiSeeds::generate([64, 64], 40, fr, 1);
        let mut counts = [0usize; 3];
        for (_, p) in &s.seeds {
            counts[*p] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 40);
        assert!((counts[0] as f64 - 20.0).abs() <= 2.0, "{counts:?}");
        assert!((counts[1] as f64 - 10.0).abs() <= 2.0, "{counts:?}");
    }

    #[test]
    fn voronoi_fill_covers_three_phases_and_liquid_above() {
        let dims = GridDims::new(32, 32, 16, 1);
        let mut st = BlockState::new(dims, [0, 0, 0]);
        let seeds = VoronoiSeeds::generate([32, 32], 12, [0.34, 0.33, 0.33], 7);
        init_directional_block(&mut st, &seeds, 6);
        let mut seen = [false; 4];
        for (x, y, z) in dims.interior_iter() {
            let phi = st.phi_src.cell(x, y, z);
            let gz = z - 1;
            if gz < 6 {
                assert_eq!(phi[LIQ], 0.0, "liquid below fill height at z={gz}");
            } else {
                assert_eq!(phi, PHI_LIQUID, "not liquid above fill height");
            }
            for a in 0..4 {
                if phi[a] == 1.0 {
                    seen[a] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "phases missing: {seen:?}");
    }

    #[test]
    fn voronoi_volume_fractions_roughly_match() {
        let dims = GridDims::new(64, 64, 4, 1);
        let mut st = BlockState::new(dims, [0, 0, 0]);
        let fr = [0.39, 0.24, 0.37];
        let seeds = VoronoiSeeds::generate([64, 64], 48, fr, 3);
        init_directional_block(&mut st, &seeds, 4);
        let mut counts = [0usize; 3];
        let mut total = 0usize;
        for (x, y, z) in dims.interior_iter() {
            let phi = st.phi_src.cell(x, y, z);
            for a in 0..3 {
                if phi[a] == 1.0 {
                    counts[a] += 1;
                }
            }
            total += 1;
        }
        for a in 0..3 {
            let got = counts[a] as f64 / total as f64;
            assert!(
                (got - fr[a]).abs() < 0.15,
                "phase {a}: {got:.2} vs {:.2}",
                fr[a]
            );
        }
    }

    #[test]
    fn multi_block_init_matches_single_block() {
        // Initializing two half-blocks with the same seeds must equal the
        // single-block initialization (global-coordinate invariance).
        let seeds = VoronoiSeeds::generate([16, 16], 6, [0.34, 0.33, 0.33], 9);
        let full = {
            let mut st = BlockState::new(GridDims::new(16, 16, 8, 1), [0, 0, 0]);
            init_directional_block(&mut st, &seeds, 4);
            st
        };
        let lower = {
            let mut st = BlockState::new(GridDims::new(16, 16, 4, 1), [0, 0, 0]);
            init_directional_block(&mut st, &seeds, 4);
            st
        };
        let upper = {
            let mut st = BlockState::new(GridDims::new(16, 16, 4, 1), [0, 0, 4]);
            init_directional_block(&mut st, &seeds, 4);
            st
        };
        for z in 0..4 {
            for y in 0..16 {
                for x in 0..16 {
                    assert_eq!(
                        full.phi_src.cell(x + 1, y + 1, z + 1),
                        lower.phi_src.cell(x + 1, y + 1, z + 1)
                    );
                    assert_eq!(
                        full.phi_src.cell(x + 1, y + 1, z + 4 + 1),
                        upper.phi_src.cell(x + 1, y + 1, z + 1)
                    );
                }
            }
        }
    }
}
