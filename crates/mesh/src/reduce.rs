//! Hierarchical stitch-and-coarsen mesh reduction.
//!
//! "In a first step, each process calls the edge-collapse algorithm on its
//! local mesh. ... Then, two local meshes are gathered on a process,
//! stitched together, and again coarsened in the stitched region. This step
//! is repeated log₂(processes) times where in each step only half of the
//! processes take part in the reduction." (Sec. 3.2)
//!
//! [`reduce_local`] runs the same binary-tree reduction over an in-memory
//! list of block meshes; [`reduce_over_ranks`] runs it across
//! `eutectica-comm` ranks with serialized mesh messages, ending with the
//! complete mesh on rank 0.

use crate::simplify::{simplify, SimplifyOptions};
use crate::TriMesh;
use eutectica_comm::Rank;

/// Options for the hierarchical reduction.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReduceOptions {
    /// Per-merge simplification settings. `protect_open_boundary` should
    /// stay `true` so the open borders still match when stitched.
    pub simplify: SimplifyOptions,
}

/// Welding tolerance when stitching two halves.
const WELD_EPS: f64 = 1e-9;

/// Stitch `b` into `a` (append + weld) and coarsen the result.
fn stitch_and_coarsen(a: &mut TriMesh, b: &TriMesh, opts: &ReduceOptions) {
    a.append(b);
    a.weld(WELD_EPS);
    simplify(a, opts.simplify);
}

/// Binary-tree reduction of a list of per-block meshes into one mesh.
pub fn reduce_local(mut meshes: Vec<TriMesh>, opts: &ReduceOptions) -> TriMesh {
    if meshes.is_empty() {
        return TriMesh::new();
    }
    // Coarsen each local mesh first (boundary-protected).
    for m in &mut meshes {
        simplify(m, opts.simplify);
    }
    // Pairwise rounds.
    while meshes.len() > 1 {
        let mut next = Vec::with_capacity(meshes.len().div_ceil(2));
        let mut it = meshes.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                stitch_and_coarsen(&mut a, &b, opts);
            }
            next.push(a);
        }
        meshes = next;
    }
    meshes.pop().unwrap()
}

/// Message tag for mesh-reduction traffic.
const MESH_TAG: u32 = 0x00E5;

/// Reduce per-rank meshes across all ranks of a universe; rank 0 returns the
/// stitched (and coarsened) result, all other ranks return `None`.
///
/// In round r, rank `p` with `p % 2^(r+1) == 2^r` sends its mesh to
/// `p − 2^r`; receivers stitch and coarsen — exactly half of the previous
/// participants per round, log₂(P) rounds.
pub fn reduce_over_ranks(rank: &Rank, mut local: TriMesh, opts: &ReduceOptions) -> Option<TriMesh> {
    simplify(&mut local, opts.simplify);
    let p = rank.rank();
    let size = rank.size();
    let mut stride = 1;
    while stride < size {
        if p % (2 * stride) == stride {
            rank.send(p - stride, MESH_TAG, local.to_bytes());
            return None;
        }
        if p % (2 * stride) == 0 && p + stride < size {
            let payload = rank.recv(p + stride, MESH_TAG);
            let other = TriMesh::from_bytes(&payload);
            stitch_and_coarsen(&mut local, &other, opts);
        }
        stride *= 2;
    }
    (p == 0).then_some(local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_isosurface;
    use eutectica_blockgrid::field::SoaField;
    use eutectica_blockgrid::GridDims;
    use eutectica_comm::Universe;
    use std::sync::Arc;

    /// Sphere of radius `r` centered in a 24³ domain, split into `nz_blocks`
    /// z-slabs with correct ghost values; returns per-slab meshes.
    fn slab_meshes(nz_blocks: usize, r: f64) -> Vec<TriMesh> {
        let n = 24usize;
        let bz = n / nz_blocks;
        (0..nz_blocks)
            .map(|k| {
                let dims = GridDims::new(n, n, bz, 1);
                let mut f = SoaField::<1>::new(dims, [0.0]);
                for z in 0..dims.tz() {
                    for y in 0..dims.ty() {
                        for x in 0..dims.tx() {
                            let p = [x as f64 - 1.0, y as f64 - 1.0, (z + k * bz) as f64 - 1.0];
                            let c = n as f64 / 2.0;
                            let d = ((p[0] - c).powi(2) + (p[1] - c).powi(2) + (p[2] - c).powi(2))
                                .sqrt();
                            f.set(0, x, y, z, 0.5 - 0.5 * ((d - r) / 1.5).tanh());
                        }
                    }
                }
                extract_isosurface(f.comp(0), dims, [0.0, 0.0, (k * bz) as f64], 0.5)
            })
            .collect()
    }

    #[test]
    fn local_reduction_produces_closed_coarser_sphere() {
        let meshes = slab_meshes(4, 8.0);
        let total_before: usize = meshes.iter().map(|m| m.num_triangles()).sum();
        let opts = ReduceOptions {
            simplify: SimplifyOptions {
                target_triangles: 0,
                max_error: 5e-3,
                protect_open_boundary: true,
            },
        };
        let out = reduce_local(meshes, &opts);
        assert_eq!(out.open_edge_count(), 0, "reduced mesh not watertight");
        assert!(
            out.num_triangles() < total_before,
            "no coarsening happened: {total_before} -> {}",
            out.num_triangles()
        );
        let vol = out.signed_volume();
        let expect = 4.0 / 3.0 * std::f64::consts::PI * 8.0f64.powi(3);
        assert!(
            (vol - expect).abs() / expect < 0.1,
            "volume {vol} vs {expect}"
        );
    }

    #[test]
    fn rank_reduction_matches_local_reduction_topology() {
        let opts = ReduceOptions::default();
        let meshes = slab_meshes(4, 7.0);
        let expected = reduce_local(meshes.clone(), &opts);
        let meshes = Arc::new(meshes);
        let results = Universe::run(4, move |rank| {
            let local = meshes[rank.rank()].clone();
            reduce_over_ranks(&rank, local, &ReduceOptions::default())
                .map(|m| (m.num_triangles(), m.open_edge_count(), m.signed_volume()))
        });
        let (tris, open, vol) = results[0].expect("rank 0 has the result");
        assert!(results[1..].iter().all(|r| r.is_none()));
        assert_eq!(open, 0);
        // The pairing order differs (ranks pair 0-1/2-3 vs list pairing), so
        // triangle counts match only approximately; volume must agree well.
        assert!(
            (vol - expected.signed_volume()).abs() / vol < 0.05,
            "volume {vol} vs {}",
            expected.signed_volume()
        );
        assert!(tris > 100);
    }

    #[test]
    fn single_rank_reduction_is_identity_pipeline() {
        let out = Universe::run(1, |rank| {
            let meshes = slab_meshes(1, 6.0);
            reduce_over_ranks(
                &rank,
                meshes.into_iter().next().unwrap(),
                &ReduceOptions::default(),
            )
            .map(|m| m.open_edge_count())
        });
        assert_eq!(out[0], Some(0));
    }
}
