//! α-β network models for the three machines' interconnects.
//!
//! The weak-scaling behaviour of a halo-exchange code is governed by (i) the
//! number of populated neighbor faces per rank (which grows from 0 at one
//! rank to 6 once the decomposition is 3-D), (ii) the per-message α + B/β
//! cost, and (iii) topology-dependent derating when messages leave the
//! local island/group. Nearest-neighbor halos map well onto all three
//! topologies, so the derating is mild — which is exactly why the paper's
//! Fig. 9 curves are almost flat.

/// Point-to-point link parameters.
#[derive(Copy, Clone, Debug)]
pub struct LinkParams {
    /// Per-message latency α (seconds).
    pub latency: f64,
    /// Link bandwidth β (bytes/second).
    pub bandwidth: f64,
}

/// Interconnect topology archetypes of the three machines.
#[derive(Copy, Clone, Debug)]
pub enum Topology {
    /// SuperMUC: non-blocking tree inside an island, pruned (e.g. 4:1)
    /// between islands.
    PrunedFatTree {
        /// Ranks per island.
        island_ranks: usize,
        /// Pruning factor between islands (4.0 = 4:1).
        pruning: f64,
    },
    /// Cray Aries dragonfly (Hornet).
    Dragonfly {
        /// Ranks per group.
        group_ranks: usize,
    },
    /// Blue Gene/Q 5-D torus (JUQUEEN): nearest-neighbor halos embed
    /// perfectly.
    Torus5D,
}

impl Topology {
    /// Fraction of a rank's halo traffic that crosses the expensive
    /// topology level at `ranks` total ranks (0 inside one island/group).
    fn remote_fraction(&self, ranks: usize) -> f64 {
        match self {
            Topology::PrunedFatTree { island_ranks, .. } => {
                if ranks <= *island_ranks {
                    0.0
                } else {
                    // Islands tile the rank grid; the fraction of block
                    // faces on island boundaries scales with the inverse
                    // island edge length.
                    let island_edge = (*island_ranks as f64).cbrt();
                    (1.0 / island_edge).min(1.0)
                }
            }
            Topology::Dragonfly { group_ranks } => {
                if ranks <= *group_ranks {
                    0.0
                } else {
                    let group_edge = (*group_ranks as f64).cbrt();
                    (0.5 / group_edge).min(1.0) // adaptive routing halves it
                }
            }
            Topology::Torus5D => 0.0,
        }
    }

    /// Effective bandwidth derate ∈ (0, 1] for halo traffic at `ranks`.
    fn bandwidth_derate(&self, ranks: usize) -> f64 {
        let remote = self.remote_fraction(ranks);
        match self {
            Topology::PrunedFatTree { pruning, .. } => 1.0 / (1.0 + remote * (pruning - 1.0)),
            Topology::Dragonfly { .. } => 1.0 / (1.0 + remote),
            Topology::Torus5D => 1.0,
        }
    }

    /// Latency multiplier (average extra hops) at `ranks`.
    fn latency_factor(&self, ranks: usize) -> f64 {
        match self {
            Topology::PrunedFatTree { island_ranks, .. } => {
                if ranks <= *island_ranks {
                    1.0
                } else {
                    1.5
                }
            }
            Topology::Dragonfly { .. } => 1.2,
            // Neighbor ranks are neighbor nodes on the torus.
            Topology::Torus5D => 1.0,
        }
    }
}

/// Time to exchange one message of `bytes` at `ranks` total ranks.
pub fn message_time(link: LinkParams, topo: Topology, bytes: usize, ranks: usize) -> f64 {
    link.latency * topo.latency_factor(ranks)
        + bytes as f64 / (link.bandwidth * topo.bandwidth_derate(ranks))
}

/// Split `p` into three factors as equal as possible (the rank grid used
/// for the weak-scaling decomposition), sorted ascending.
pub fn balanced_factors(p: usize) -> [usize; 3] {
    assert!(p > 0);
    let mut best = [1, 1, p];
    let mut best_score = usize::MAX;
    let mut a = 1;
    while a * a * a <= p {
        if p % a == 0 {
            let q = p / a;
            let mut b = a;
            while b * b <= q {
                if q % b == 0 {
                    let c = q / b;
                    let score = c - a; // spread
                    if score < best_score {
                        best_score = score;
                        best = [a, b, c];
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// Number of populated neighbor faces of an interior rank for a
/// `[px, py, pz]` rank grid with periodic x/y and open z (Fig. 2 setup).
/// This is what grows the exposed communication between 1 rank and the
/// asymptotic 6-face regime.
pub fn populated_faces(grid: [usize; 3]) -> usize {
    let mut faces = 0;
    // Periodic axes have neighbors as soon as there is more than one rank
    // along the axis — or even with one rank (self-neighbor, local copy,
    // which we count as free).
    for (axis, &n) in grid.iter().enumerate() {
        if n > 1 {
            faces += 2;
        } else if axis < 2 {
            // periodic self-exchange: local, no wire cost
        }
    }
    faces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_factors_are_exact_and_balanced() {
        for p in [1usize, 2, 4, 8, 64, 512, 4096, 32768, 262144] {
            let f = balanced_factors(p);
            assert_eq!(f[0] * f[1] * f[2], p, "{p}");
            assert!(f[2] / f[0] <= 4, "{p}: {f:?} too skewed");
        }
        assert_eq!(balanced_factors(64), [4, 4, 4]);
    }

    #[test]
    fn torus_never_derates_neighbor_traffic() {
        let t = Topology::Torus5D;
        for p in [2usize, 1 << 10, 1 << 18] {
            assert_eq!(t.bandwidth_derate(p), 1.0);
            assert_eq!(t.latency_factor(p), 1.0);
        }
    }

    #[test]
    fn pruned_tree_derates_only_above_island() {
        let t = Topology::PrunedFatTree {
            island_ranks: 8192,
            pruning: 4.0,
        };
        assert_eq!(t.bandwidth_derate(4096), 1.0);
        let d = t.bandwidth_derate(1 << 15);
        assert!(d < 1.0 && d > 0.5, "derate {d}");
        // Message time grows accordingly.
        let link = LinkParams {
            latency: 2e-6,
            bandwidth: 5e9,
        };
        let small = message_time(link, t, 1 << 20, 4096);
        let large = message_time(link, t, 1 << 20, 1 << 15);
        assert!(large > small);
    }

    #[test]
    fn face_population_saturates_at_six() {
        assert_eq!(populated_faces([1, 1, 1]), 0);
        assert_eq!(populated_faces([2, 1, 1]), 2);
        assert_eq!(populated_faces([2, 2, 1]), 4);
        assert_eq!(populated_faces([2, 2, 2]), 6);
        assert_eq!(populated_faces([8, 8, 4]), 6);
    }
}
