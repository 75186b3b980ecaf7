//! Machine profiles of the paper's three systems and the scaling
//! predictors behind Figs. 7–9.
//!
//! This container exposes a single physical core, so the multi-node curves
//! are produced by a calibrated model (DESIGN.md substitution 1): measured
//! single-core kernel rates and exact ghost-message sizes are combined with
//! per-machine interconnect parameters and the halo-exchange pattern of the
//! time loop. Shape — near-flat weak scaling with a drop as the rank grid
//! becomes 3-D, ordering between scenarios, saturation behaviour on a node
//! — comes from the model structure, not from fitted curves.

use crate::network::{balanced_factors, message_time, populated_faces, LinkParams, Topology};

/// One of the paper's machines (Sec. 4).
#[derive(Copy, Clone, Debug)]
pub struct MachineProfile {
    /// Display name.
    pub name: &'static str,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Memory bandwidth per node (bytes/s).
    pub node_bandwidth: f64,
    /// Interconnect topology.
    pub topology: Topology,
    /// Link parameters.
    pub link: LinkParams,
    /// Single-core speed relative to the calibration machine (scales the
    /// measured MLUP/s; 1.0 = same speed).
    pub core_speed: f64,
    /// Largest core count of the paper's scaling plot.
    pub max_cores: usize,
}

/// SuperMUC (LRZ): 2 × 8-core SNB nodes, 512-node islands, 4:1 pruned tree.
pub fn supermuc() -> MachineProfile {
    MachineProfile {
        name: "SuperMUC",
        cores_per_node: 16,
        node_bandwidth: 80.0 * (1u64 << 30) as f64, // the paper's STREAM number
        topology: Topology::PrunedFatTree {
            island_ranks: 512 * 16,
            pruning: 4.0,
        },
        link: LinkParams {
            latency: 2.0e-6,
            bandwidth: 5.0e9, // FDR10 IB per node
        },
        core_speed: 1.0,
        max_cores: 1 << 15,
    }
}

/// Hornet (HLRS): 2 × 12-core Haswell nodes, Cray Aries dragonfly.
pub fn hornet() -> MachineProfile {
    MachineProfile {
        name: "Hornet",
        cores_per_node: 24,
        node_bandwidth: 110.0 * (1u64 << 30) as f64,
        topology: Topology::Dragonfly {
            group_ranks: 384 * 24,
        },
        link: LinkParams {
            latency: 1.5e-6,
            bandwidth: 10.0e9,
        },
        core_speed: 1.15, // Haswell AVX2 vs the SNB baseline
        max_cores: 1 << 13,
    }
}

/// JUQUEEN (JSC): 16-core PowerPC A2 nodes (4-way SMT), 5-D torus.
pub fn juqueen() -> MachineProfile {
    MachineProfile {
        name: "JUQUEEN",
        cores_per_node: 16,
        node_bandwidth: 28.0 * (1u64 << 30) as f64,
        topology: Topology::Torus5D,
        link: LinkParams {
            latency: 0.7e-6, // "latencies in the range of a few hundred ns"
            bandwidth: 2.0e9,
        },
        // In-order A2 cores at 1.6 GHz: roughly a tenth of a SNB core on
        // this kernel (the paper's right panel peaks near 0.2 MLUP/s/core
        // vs 3.5 on SuperMUC).
        core_speed: 0.07,
        max_cores: 1 << 18,
    }
}

/// All three machines in the paper's plotting order.
pub fn all_machines() -> [MachineProfile; 3] {
    [supermuc(), hornet(), juqueen()]
}

/// Ghost-message volumes per step for a block of `b` cells per rank:
/// the φ field sends 4 components, µ sends 2; both exchange one ghost layer
/// per face per step (Algorithm 1).
fn halo_bytes_per_face(block: [usize; 3]) -> [usize; 3] {
    let f = 8; // f64 on the wire
    let comps = 4 + 2;
    [
        block[1] * block[2] * comps * f,
        block[0] * block[2] * comps * f,
        block[0] * block[1] * comps * f,
    ]
}

/// One point of a weak-scaling curve.
#[derive(Copy, Clone, Debug)]
pub struct ScalingPoint {
    /// Total cores (= ranks; the paper places one rank per core).
    pub cores: usize,
    /// Modeled MLUP/s per core.
    pub mlups_per_core: f64,
    /// Exposed communication fraction of the step time.
    pub comm_fraction: f64,
}

/// Weak-scaling prediction: every rank owns one `block`; the per-step time
/// is the measured compute time (from `measured_mlups` on the calibration
/// machine, scaled by `core_speed`) plus the exposed halo time. With
/// `hide_mu` (the paper's best overlap config), the µ share of the message
/// volume is hidden behind compute.
pub fn weak_scaling(
    profile: &MachineProfile,
    block: [usize; 3],
    measured_mlups: f64,
    hide_mu: bool,
    cores: &[usize],
) -> Vec<ScalingPoint> {
    let cells: usize = block.iter().product();
    let compute_time = cells as f64 / (measured_mlups * profile.core_speed * 1e6);
    let face_bytes = halo_bytes_per_face(block);
    cores
        .iter()
        .map(|&p| {
            let grid = balanced_factors(p);
            let faces = populated_faces(grid);
            // Distribute populated faces over the axes in grid order
            // (larger axes first have neighbors).
            let mut comm = 0.0;
            let mut remaining = faces;
            // Sort axes by rank-grid extent descending: those split first.
            let mut order: Vec<usize> = (0..3).collect();
            order.sort_by_key(|&a| std::cmp::Reverse(grid[a]));
            for &axis in &order {
                if remaining == 0 {
                    break;
                }
                if grid[axis] > 1 {
                    let per_msg = message_time(profile.link, profile.topology, face_bytes[axis], p);
                    comm += 2.0 * per_msg;
                    remaining -= 2;
                }
            }
            // µ messages are 1/3 of the volume (2 of 6 components); hiding
            // them removes that share of the wire time but not the α costs.
            let exposed = if hide_mu { comm * (2.0 / 3.0) } else { comm };
            let step = compute_time + exposed;
            ScalingPoint {
                cores: p,
                mlups_per_core: cells as f64 / step / 1e6,
                comm_fraction: exposed / step,
            }
        })
        .collect()
}

/// Intranode scaling (Fig. 7): cores on one node share the memory
/// interface. Throughput = min(linear compute scaling, bandwidth ceiling).
/// `bytes_per_cell` depends on the block size: blocks whose working set
/// fits in the last-level cache stream far fewer bytes.
pub fn intranode_scaling(
    profile: &MachineProfile,
    measured_mlups: f64,
    bytes_per_cell: f64,
    cores: &[usize],
) -> Vec<(usize, f64)> {
    let sockets = 2.0;
    cores
        .iter()
        .map(|&p| {
            let compute = p as f64 * measured_mlups * profile.core_speed;
            let sockets_used = if p as f64 <= profile.cores_per_node as f64 / sockets {
                1.0
            } else {
                sockets
            };
            let bw_cap = sockets_used * (profile.node_bandwidth / sockets) / bytes_per_cell / 1e6;
            (p, compute.min(bw_cap))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn powers(max: usize) -> Vec<usize> {
        (0..)
            .map(|k| 1usize << k)
            .take_while(|&p| p <= max)
            .collect()
    }

    #[test]
    fn weak_scaling_is_near_flat_after_3d_regime() {
        for m in all_machines() {
            let pts = weak_scaling(&m, [60, 60, 60], 25.0, true, &powers(m.max_cores));
            let single = pts[0].mlups_per_core;
            let last = pts.last().unwrap().mlups_per_core;
            // Parallel efficiency at full machine ≥ 70 % (the paper's curves
            // are near-flat).
            assert!(
                last / single > 0.7,
                "{}: efficiency {:.2}",
                m.name,
                last / single
            );
            // Per-core rate never increases with rank count.
            for w in pts.windows(2) {
                assert!(
                    w[1].mlups_per_core <= w[0].mlups_per_core + 1e-9,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn machine_ordering_matches_paper() {
        // Per-core: Hornet ≥ SuperMUC ≫ JUQUEEN (Fig. 9 y-axis scales).
        let cores = [4096usize];
        let s = weak_scaling(&supermuc(), [60; 3], 25.0, true, &cores)[0].mlups_per_core;
        let h = weak_scaling(&hornet(), [60; 3], 25.0, true, &cores)[0].mlups_per_core;
        let j = weak_scaling(&juqueen(), [60; 3], 25.0, true, &cores)[0].mlups_per_core;
        assert!(h > s, "Hornet {h} vs SuperMUC {s}");
        assert!(s > 5.0 * j, "SuperMUC {s} vs JUQUEEN {j}");
    }

    #[test]
    fn overlap_helps() {
        let m = supermuc();
        let cores = [32768usize];
        let with = weak_scaling(&m, [40; 3], 25.0, true, &cores)[0];
        let without = weak_scaling(&m, [40; 3], 25.0, false, &cores)[0];
        assert!(with.mlups_per_core > without.mlups_per_core);
        assert!(with.comm_fraction < without.comm_fraction);
    }

    #[test]
    fn intranode_scaling_saturates_for_streaming_blocks() {
        let m = supermuc();
        let cores: Vec<usize> = (1..=16).collect();
        // 40³ blocks stream from memory (680 B/cell, the paper's estimate).
        let big = intranode_scaling(&m, 4.2, 680.0, &cores);
        // 20³ blocks fit in cache: only compulsory traffic (~1/10).
        let small = intranode_scaling(&m, 4.2, 68.0, &cores);
        // Single core identical; at 16 cores the cached case is at least as
        // fast (the paper measures only slight differences because the
        // kernel is compute-bound — our numbers reproduce the ceiling).
        assert_eq!(big[0].1, small[0].1);
        assert!(small[15].1 >= big[15].1);
        // Monotone non-decreasing in cores.
        for w in big.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
    }

    #[test]
    fn halo_bytes_match_field_layout() {
        let b = halo_bytes_per_face([60, 60, 60]);
        assert_eq!(b, [60 * 60 * 6 * 8; 3]);
        let b = halo_bytes_per_face([10, 20, 30]);
        assert_eq!(b[0], 20 * 30 * 48);
        assert_eq!(b[2], 10 * 20 * 48);
    }
}
