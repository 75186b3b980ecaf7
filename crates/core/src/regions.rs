//! Domain-region classification and the benchmark scenarios of Sec. 5.1.
//!
//! The paper defines (Sec. 2): the bulk region B_α where exactly one phase
//! exists, the diffuse interface I_Ω between bulk regions, the
//! solidification front F_Ω (interface containing liquid), the liquid region
//! L_Ω = B_ℓ and the solid region S_Ω. Kernel performance depends on the
//! region mix ("the performance of the compute kernels depends on the
//! composition of the simulation domain"), so the benchmarks run three
//! representative block states: **interface** (the solidification front),
//! **solid** (solidified lamellae, lower third of a production domain) and
//! **liquid** (melt, upper part).

use crate::simplex::project_to_simplex;
use crate::state::{BlockState, PHI_LIQUID};
use crate::{LIQ, N_PHASES};
use eutectica_blockgrid::GridDims;

/// Region of a single cell per the paper's Sec. 2 definitions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum CellRegion {
    /// Pure solid cell with all neighbors equal (some B_α, α ≠ ℓ).
    SolidBulk,
    /// Pure liquid cell with all neighbors equal (B_ℓ).
    LiquidBulk,
    /// Diffuse interface without liquid contribution (solid-solid boundary).
    SolidInterface,
    /// Solidification front: interface cell with φ_ℓ > 0.
    Front,
}

/// Classify one interior cell of a block.
fn classify_cell(state: &BlockState, x: usize, y: usize, z: usize) -> CellRegion {
    let phi = state.phi_src.cell(x, y, z);
    let neighbors = [
        state.phi_src.cell(x - 1, y, z),
        state.phi_src.cell(x + 1, y, z),
        state.phi_src.cell(x, y - 1, z),
        state.phi_src.cell(x, y + 1, z),
        state.phi_src.cell(x, y, z - 1),
        state.phi_src.cell(x, y, z + 1),
    ];
    if crate::model::is_bulk(phi, &neighbors) {
        if phi[LIQ] == 1.0 {
            CellRegion::LiquidBulk
        } else {
            CellRegion::SolidBulk
        }
    } else if phi[LIQ] > 0.0 || neighbors.iter().any(|n| n[LIQ] > 0.0) {
        CellRegion::Front
    } else {
        CellRegion::SolidInterface
    }
}

/// Cell counts per region of a block interior.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionCounts {
    /// Pure-solid bulk cells.
    pub solid_bulk: usize,
    /// Pure-liquid bulk cells.
    pub liquid_bulk: usize,
    /// Solid-solid interface cells.
    pub solid_interface: usize,
    /// Solidification-front cells.
    pub front: usize,
}

impl RegionCounts {
    /// Total classified cells.
    #[cfg(test)]
    pub(crate) fn total(&self) -> usize {
        self.solid_bulk + self.liquid_bulk + self.solid_interface + self.front
    }
}

/// Classify every interior cell of a block.
pub fn classify_block(state: &BlockState) -> RegionCounts {
    let mut c = RegionCounts::default();
    for (x, y, z) in state.dims.interior_iter() {
        match classify_cell(state, x, y, z) {
            CellRegion::SolidBulk => c.solid_bulk += 1,
            CellRegion::LiquidBulk => c.liquid_bulk += 1,
            CellRegion::SolidInterface => c.solid_interface += 1,
            CellRegion::Front => c.front += 1,
        }
    }
    c
}

/// Default per-region kernel rates `[interface, liquid, solid]` in MLUP/s,
/// following the measured ordering of Sec. 5.1 (liquid fastest thanks to the
/// bulk shortcuts, interface slowest). Used as the cold-start prior of the
/// dynamic rebalancer's cost model before any sweep has been timed and by
/// the campaign scheduler's LPT plan; only the *ratios* matter there, and
/// measured times replace the prior as soon as they exist.
///
/// The numbers are the per-class sweep rates `2 / (1/φ + 1/µ)` of the
/// benchmark ledger's `core.kernels.{phi,mu}_mlups.{interface,liquid,solid}`
/// (40³ scenario blocks, default kernels, 2-vCPU reference box; medians of
/// the twelve traced 20-s runs of PR 16: φ 31.6 / 9·10⁵ / 37.6 and
/// µ 30.9 / 214 / 72.1 MLUP/s). Liquid is a µ-diffusion stream since the
/// sweeps became proportional to the front: the φ-sweep does not visit a
/// constant melt.
pub const DEFAULT_REGION_RATES: [f64; 3] = [31.0, 430.0, 49.0];

/// Estimated relative cost (time per cell) of a block from its region
/// composition and the measured per-region kernel rates (MLUP/s for
/// interface / liquid / solid cells). This is the per-block weight for the
/// load-balancing experiment of Sec. 5.1.2 ("in production runs, where all
/// of the three block compositions occur in the domain, the runtime is
/// dominated by the interface blocks").
pub fn block_weight(counts: &RegionCounts, rates_mlups: [f64; 3]) -> f64 {
    let [r_interface, r_liquid, r_solid] = rates_mlups;
    assert!(r_interface > 0.0 && r_liquid > 0.0 && r_solid > 0.0);
    (counts.front + counts.solid_interface) as f64 / r_interface
        + counts.liquid_bulk as f64 / r_liquid
        + counts.solid_bulk as f64 / r_solid
}

/// The three benchmark block compositions of Sec. 5.1.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// "the middle third of the simulation domain": the solidification front
    /// with all four phases and steep gradients.
    Interface,
    /// "purely ... solidified material": three-phase lamellae with
    /// solid-solid interfaces, no liquid.
    Solid,
    /// "the upper part of the domain consists only of liquid phase".
    Liquid,
}

impl Scenario {
    /// All three scenarios in the paper's plotting order.
    pub const ALL: [Scenario; 3] = [Scenario::Interface, Scenario::Liquid, Scenario::Solid];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Interface => "interface",
            Scenario::Solid => "solid",
            Scenario::Liquid => "liquid",
        }
    }
}

/// Build a benchmark block in the requested composition.
///
/// The states are deterministic. φ_dst is a slightly-evolved copy of φ_src
/// (as it is when the µ-kernel runs after the φ-kernel), so the source and
/// anti-trapping terms of the µ-kernel are realistically exercised, and µ
/// carries a smooth profile so gradient fluxes are nonzero.
pub fn build_scenario(scenario: Scenario, dims: GridDims) -> BlockState {
    let mut s = BlockState::new(dims, [0, 0, 0]);
    let g = dims.ghost;
    // Lamella width: three bands across the block (12 cells at the paper's
    // 40³..60³ benchmark blocks), so all three solids appear.
    let lam = (dims.nx as f64 / 3.0).clamp(4.0, 12.0);
    for z in 0..dims.tz() {
        for y in 0..dims.ty() {
            for x in 0..dims.tx() {
                let (gx, gy, gz) = (
                    x as f64 - g as f64,
                    y as f64 - g as f64,
                    z as f64 - g as f64,
                );
                let phi = match scenario {
                    Scenario::Liquid => PHI_LIQUID,
                    Scenario::Solid => solid_lamellae(gx, gy, lam),
                    Scenario::Interface => front_profile(gx, gy, gz, dims.nz as f64 * 0.5, lam),
                };
                s.phi_src.set_cell(x, y, z, phi);
                // Smooth µ profile: gradients everywhere, zero mean.
                let mu0 = 0.05 * (0.37 * gx + 0.21 * gy + 0.11 * gz).sin();
                let mu1 = -0.04 * (0.13 * gx - 0.29 * gy + 0.17 * gz).cos();
                s.mu_src.set_cell(x, y, z, [mu0, mu1]);
                // φ_dst: slightly advanced front (only interface cells move).
                let phi_new = match scenario {
                    Scenario::Interface => {
                        front_profile(gx, gy, gz, dims.nz as f64 * 0.5 + 0.05, lam)
                    }
                    _ => phi,
                };
                s.phi_dst.set_cell(x, y, z, phi_new);
            }
        }
    }
    s
}

/// Solidification-front profile: lamellae below, liquid above, a tanh blend
/// of width ≈ 4 cells at `front`. The tails are snapped to exactly pure
/// values so the state contains true bulk regions (the tanh alone never
/// reaches 0/1 exactly, which would defeat the bulk shortcuts and the
/// region classification).
fn front_profile(gx: f64, gy: f64, gz: f64, front: f64, lam: f64) -> [f64; N_PHASES] {
    let d = gz - front;
    let liq = if d > 8.0 {
        1.0
    } else if d < -8.0 {
        0.0
    } else {
        0.5 + 0.5 * (d / 2.0).tanh()
    };
    if liq == 1.0 {
        return PHI_LIQUID;
    }
    let mut v = solid_lamellae(gx, gy, lam);
    if liq == 0.0 {
        return v;
    }
    for p in v.iter_mut() {
        *p *= 1.0 - liq;
    }
    v[LIQ] = liq;
    project_to_simplex(v)
}

/// Alternating three-phase lamellae in x with diffuse solid-solid walls.
fn solid_lamellae(gx: f64, _gy: f64, lam: f64) -> [f64; N_PHASES] {
    let pos = gx / lam;
    let band = pos.floor();
    let frac = pos - band; // 0..1 inside the band
    let this = (band.rem_euclid(3.0)) as usize;
    let next = ((band + 1.0).rem_euclid(3.0)) as usize;
    // Diffuse wall of ~3 cells at the band boundary.
    let w = 1.5 / lam;
    let mut v = [0.0; N_PHASES];
    if frac > 1.0 - w {
        let t = (frac - (1.0 - w)) / w * 0.5; // 0..0.5 blend into next band
        v[this] = 1.0 - t;
        v[next] = t;
    } else if frac < w {
        let t = 0.5 - frac / w * 0.5;
        v[this] = 1.0 - t;
        let prev = ((band - 1.0).rem_euclid(3.0)) as usize;
        v[prev] = t;
    } else {
        v[this] = 1.0;
    }
    project_to_simplex(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn liquid_scenario_is_all_liquid_bulk() {
        let s = build_scenario(Scenario::Liquid, GridDims::cube(8));
        let c = classify_block(&s);
        assert_eq!(c.liquid_bulk, c.total());
    }

    #[test]
    fn solid_scenario_has_no_liquid_but_has_interfaces() {
        let s = build_scenario(Scenario::Solid, GridDims::cube(24));
        let c = classify_block(&s);
        assert_eq!(c.liquid_bulk, 0);
        assert_eq!(c.front, 0, "solid scenario must contain no liquid");
        assert!(c.solid_bulk > 0, "{c:?}");
        assert!(c.solid_interface > 0, "{c:?}");
    }

    #[test]
    fn interface_scenario_contains_front_cells_and_all_phases() {
        let s = build_scenario(Scenario::Interface, GridDims::cube(24));
        let c = classify_block(&s);
        assert!(c.front > 0, "{c:?}");
        assert!(c.liquid_bulk > 0, "{c:?}");
        // All four phases present somewhere.
        let mut present = [false; 4];
        for (x, y, z) in s.dims.interior_iter() {
            let phi = s.phi_src.cell(x, y, z);
            for a in 0..4 {
                if phi[a] > 0.5 {
                    present[a] = true;
                }
            }
        }
        assert!(present.iter().all(|&p| p), "{present:?}");
    }

    #[test]
    fn scenario_states_are_valid_simplex_fields() {
        for sc in Scenario::ALL {
            let s = build_scenario(sc, GridDims::cube(16));
            for (x, y, z) in s.dims.interior_iter() {
                let phi = s.phi_src.cell(x, y, z);
                assert!(
                    crate::simplex::on_simplex(phi, 1e-12),
                    "{sc:?} off simplex at ({x},{y},{z}): {phi:?}"
                );
            }
        }
    }

    #[test]
    fn block_weights_rank_scenarios_like_the_paper() {
        // "the 'interface' scenario being the slowest due to higher workload
        // in interface cells" — with the measured rate ordering
        // (liquid > solid > interface at full optimization), interface
        // blocks get the largest weight.
        let rates = DEFAULT_REGION_RATES; // interface, liquid, solid MLUP/s
        assert!(rates[0] < rates[2] && rates[2] < rates[1], "{rates:?}");
        let dims = GridDims::cube(16);
        let w_interface = block_weight(
            &classify_block(&build_scenario(Scenario::Interface, dims)),
            rates,
        );
        let w_liquid = block_weight(
            &classify_block(&build_scenario(Scenario::Liquid, dims)),
            rates,
        );
        let w_solid = block_weight(
            &classify_block(&build_scenario(Scenario::Solid, dims)),
            rates,
        );
        assert!(w_interface > w_solid, "{w_interface} vs {w_solid}");
        assert!(w_solid > w_liquid, "{w_solid} vs {w_liquid}");
    }

    #[test]
    fn weighted_balancing_helps_mixed_domains_not_interface_only() {
        // The paper's load-balancing experiment outcome: weighting helps a
        // mixed solid/interface/liquid column, but with the moving window
        // every block is interface-like and there is nothing to gain.
        use eutectica_blockgrid::balance::{
            assign_contiguous_uniform, assign_contiguous_weighted, imbalance,
        };
        let rates = [30.0, 100.0, 45.0];
        let dims = GridDims::cube(12);
        let weight_of =
            |sc: Scenario| block_weight(&classify_block(&build_scenario(sc, dims)), rates);
        // Full-domain column: interface band at the bottom, liquid above
        // (the pre-moving-window situation where most blocks are cheap
        // liquid and a few are expensive interface).
        let mixed: Vec<f64> = [
            Scenario::Interface,
            Scenario::Interface,
            Scenario::Liquid,
            Scenario::Liquid,
            Scenario::Liquid,
            Scenario::Liquid,
            Scenario::Liquid,
            Scenario::Liquid,
        ]
        .iter()
        .map(|&sc| weight_of(sc))
        .collect();
        let gain_mixed = imbalance(&mixed, &assign_contiguous_uniform(8, 4), 4)
            - imbalance(&mixed, &assign_contiguous_weighted(&mixed, 4), 4);
        assert!(
            gain_mixed > 0.05,
            "weighting should help mixed: {gain_mixed}"
        );
        // Moving-window column: everything interface-like.
        let windowed = vec![weight_of(Scenario::Interface); 8];
        let gain_window = imbalance(&windowed, &assign_contiguous_uniform(8, 4), 4)
            - imbalance(&windowed, &assign_contiguous_weighted(&windowed, 4), 4);
        assert!(
            gain_window.abs() < 1e-9,
            "no gain expected under the moving window: {gain_window}"
        );
    }

    #[test]
    fn region_definitions_follow_paper() {
        // Hand-built 3³ neighborhoods.
        let dims = GridDims::cube(3);
        let mut s = BlockState::new(dims, [0, 0, 0]);
        // All liquid: center is liquid bulk.
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::LiquidBulk);
        // Mixed cell: front.
        s.phi_src.set_cell(2, 2, 2, [0.5, 0.0, 0.0, 0.5]);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::Front);
        // Pure solid cell whose neighbor differs: still front (liquid near).
        s.phi_src.set_cell(2, 2, 2, [1.0, 0.0, 0.0, 0.0]);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::Front);
        // Solid-solid interface, no liquid anywhere nearby.
        let dims = GridDims::cube(3);
        let mut s2 = BlockState::new(dims, [0, 0, 0]);
        for z in 0..dims.tz() {
            for y in 0..dims.ty() {
                for x in 0..dims.tx() {
                    s2.phi_src.set_cell(x, y, z, [1.0, 0.0, 0.0, 0.0]);
                }
            }
        }
        assert_eq!(classify_cell(&s2, 2, 2, 2), CellRegion::SolidBulk);
        s2.phi_src.set_cell(3, 2, 2, [0.5, 0.5, 0.0, 0.0]);
        assert_eq!(classify_cell(&s2, 2, 2, 2), CellRegion::SolidInterface);
    }

    #[test]
    fn cells_adjacent_to_ghost_boundaries_read_ghost_contents() {
        // cube(3): ghost 1, interior 1..4 — cell (1,2,2) touches the x-low
        // ghost layer at x = 0, so its classification depends on whatever
        // the BC application / ghost exchange last wrote there.
        let dims = GridDims::cube(3);
        let mut s = BlockState::new(dims, [0, 0, 0]);
        // Fresh state: everything (ghosts included) is liquid → bulk.
        assert_eq!(classify_cell(&s, 1, 2, 2), CellRegion::LiquidBulk);
        // A diffuse ghost neighbor breaks bulk: the boundary cell becomes
        // front even though the whole interior is pure liquid.
        s.phi_src.set_cell(0, 2, 2, [0.5, 0.0, 0.0, 0.5]);
        assert_eq!(classify_cell(&s, 1, 2, 2), CellRegion::Front);
        // A pure-solid ghost neighbor: the liquid boundary cell is still
        // front (its own φ_ℓ > 0), not bulk.
        s.phi_src.set_cell(0, 2, 2, [1.0, 0.0, 0.0, 0.0]);
        assert_eq!(classify_cell(&s, 1, 2, 2), CellRegion::Front);
        // The opposite interior corner is unaffected by that ghost.
        assert_eq!(classify_cell(&s, 3, 2, 2), CellRegion::LiquidBulk);
        // Same at the z-high boundary (the face the moving window refills).
        let mut s = BlockState::new(dims, [0, 0, 0]);
        assert_eq!(classify_cell(&s, 2, 2, 3), CellRegion::LiquidBulk);
        s.phi_src.set_cell(2, 2, 4, [0.0, 0.5, 0.0, 0.5]); // ghost above
        assert_ne!(classify_cell(&s, 2, 2, 3), CellRegion::LiquidBulk);
    }

    #[test]
    fn phi_liquid_exactly_zero_and_one_edges() {
        let dims = GridDims::cube(3);
        let fill = |phi: [f64; N_PHASES]| {
            let mut s = BlockState::new(dims, [0, 0, 0]);
            for z in 0..dims.tz() {
                for y in 0..dims.ty() {
                    for x in 0..dims.tx() {
                        s.phi_src.set_cell(x, y, z, phi);
                    }
                }
            }
            s
        };
        // φ_ℓ exactly 1.0 with equal neighbors: liquid bulk (strict ==).
        let s = fill([0.0, 0.0, 0.0, 1.0]);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::LiquidBulk);
        // φ_ℓ a hair below 1.0: no component is pure, so the cell is an
        // interface cell — and carries liquid, so it is front.
        let eps = 1e-12;
        let s = fill([0.0, 0.0, eps, 1.0 - eps]);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::Front);
        // φ_ℓ exactly 0.0 everywhere: pure solid bulk.
        let s = fill([1.0, 0.0, 0.0, 0.0]);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::SolidBulk);
        // A negative-zero liquid component must behave exactly like +0.0
        // (-0.0 > 0.0 is false): still solid bulk, not front.
        let s = fill([1.0, 0.0, 0.0, -0.0]);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::SolidBulk);
        // A neighbor that is pure in the *same* solid keeps the cell bulk
        // even if it also carries a (sub-ulp) liquid residue: is_bulk only
        // inspects the pure component. Documented behavior — such residues
        // cannot survive a simplex projection anyway.
        let mut s = fill([1.0, 0.0, 0.0, 0.0]);
        let tiny = f64::from_bits(1); // smallest positive subnormal
        s.phi_src.set_cell(3, 2, 2, [1.0, 0.0, 0.0, tiny]);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::SolidBulk);
        // A different-solid neighbor without liquid: solid-solid interface…
        s.phi_src.set_cell(3, 2, 2, [0.0, 1.0, 0.0, 0.0]);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::SolidInterface);
        // …and the tiniest positive liquid contribution in that neighbor
        // flips the cell to front (strict > 0.0 on the neighborhood).
        s.phi_src.set_cell(3, 2, 2, [0.0, 1.0, 0.0, tiny]);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::Front);
    }

    #[test]
    fn post_simplex_projection_values_classify_consistently() {
        use crate::simplex::on_simplex;
        let dims = GridDims::cube(3);
        // Projection clamps negative components to exactly 0.0 — the strict
        // `> 0.0` front test must treat such cells as liquid-free.
        let solidish = project_to_simplex([0.6, 0.55, 0.0, -0.05]);
        assert!(on_simplex(solidish, 1e-12));
        assert_eq!(solidish[LIQ], 0.0, "projection must clamp to exact zero");
        let mut s = BlockState::new(dims, [0, 0, 0]);
        for z in 0..dims.tz() {
            for y in 0..dims.ty() {
                for x in 0..dims.tx() {
                    s.phi_src.set_cell(x, y, z, [1.0, 0.0, 0.0, 0.0]);
                }
            }
        }
        s.phi_src.set_cell(2, 2, 2, solidish);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::SolidInterface);
        assert_eq!(classify_cell(&s, 1, 2, 2), CellRegion::SolidInterface);
        // A projected vector that keeps liquid stays front.
        let frontish = project_to_simplex([0.3, 0.0, 0.0, 0.75]);
        assert!(on_simplex(frontish, 1e-12));
        assert!(frontish[LIQ] > 0.0);
        s.phi_src.set_cell(2, 2, 2, frontish);
        assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::Front);
        // An over-saturated pure phase projects back to an exact vertex and
        // classifies as bulk amid equal neighbors.
        let vertex = project_to_simplex([1.2, -0.1, -0.1, 0.0]);
        assert!(on_simplex(vertex, 1e-12));
        if vertex[0] == 1.0 {
            s.phi_src.set_cell(2, 2, 2, vertex);
            assert_eq!(classify_cell(&s, 2, 2, 2), CellRegion::SolidBulk);
        }
    }
}
