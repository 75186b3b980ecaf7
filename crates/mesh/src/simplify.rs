//! Quadric-error-metric mesh simplification (Garland & Heckbert).
//!
//! "For mesh coarsening, we use the quadric-error edge-collapse-based
//! simplification algorithm [12]" (Sec. 3.2). Each vertex accumulates the
//! fundamental error quadrics of its incident triangle planes; edges are
//! collapsed greedily in order of the quadric error of their optimal
//! contraction point. The paper's stitching trick is supported: "assigning a
//! high weight to all vertices that are located on block boundaries, the
//! boundaries are preserved such that the later stitching step can work
//! correctly" — protected vertices never move.

use crate::{cross, dot, normalize, sub, TriMesh};
use std::collections::{BinaryHeap, HashSet};

/// Symmetric 4×4 quadric, upper triangle
/// `[a00,a01,a02,a03, a11,a12,a13, a22,a23, a33]`.
#[derive(Copy, Clone, Debug, Default)]
struct Quadric([f64; 10]);

impl Quadric {
    fn from_plane(n: [f64; 3], d: f64) -> Self {
        let p = [n[0], n[1], n[2], d];
        let mut q = [0.0; 10];
        let mut k = 0;
        for i in 0..4 {
            for j in i..4 {
                q[k] = p[i] * p[j];
                k += 1;
            }
        }
        Quadric(q)
    }

    fn add(&mut self, o: &Quadric) {
        for (a, b) in self.0.iter_mut().zip(o.0.iter()) {
            *a += b;
        }
    }

    /// vᵀ Q v with v = (x, y, z, 1).
    fn error(&self, v: [f64; 3]) -> f64 {
        let q = &self.0;
        let p = [v[0], v[1], v[2], 1.0];
        let mut full = [[0.0; 4]; 4];
        let mut k = 0;
        for i in 0..4 {
            for j in i..4 {
                full[i][j] = q[k];
                full[j][i] = q[k];
                k += 1;
            }
        }
        let mut s = 0.0;
        for i in 0..4 {
            for j in 0..4 {
                s += p[i] * full[i][j] * p[j];
            }
        }
        s.max(0.0)
    }

    /// Optimal contraction position: solve ∇(vᵀQv) = 0 (3×3 system); `None`
    /// if (nearly) singular.
    fn optimal_point(&self) -> Option<[f64; 3]> {
        let q = &self.0;
        // A = upper-left 3×3, b = -q[0..3][3].
        let a = [[q[0], q[1], q[2]], [q[1], q[4], q[5]], [q[2], q[5], q[7]]];
        let b = [-q[3], -q[6], -q[8]];
        let det = a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
        if det.abs() < 1e-10 {
            return None;
        }
        let inv_det = 1.0 / det;
        let solve_col = |col: usize| -> f64 {
            let mut m = a;
            for row in 0..3 {
                m[row][col] = b[row];
            }
            (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
                * inv_det
        };
        Some([solve_col(0), solve_col(1), solve_col(2)])
    }
}

#[derive(PartialEq)]
struct Candidate {
    cost: f64,
    a: u32,
    b: u32,
    target: [f64; 3],
    stamp: u64,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by cost.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Simplification options.
#[derive(Clone, Copy, Debug)]
pub struct SimplifyOptions {
    /// Stop when at most this many triangles remain.
    pub target_triangles: usize,
    /// Never perform collapses whose quadric error exceeds this.
    pub max_error: f64,
    /// Protect vertices on open (boundary) edges — required for meshes that
    /// will later be stitched to neighbors.
    pub protect_open_boundary: bool,
}

impl Default for SimplifyOptions {
    fn default() -> Self {
        Self {
            target_triangles: 0,
            max_error: 1e-2,
            protect_open_boundary: true,
        }
    }
}

/// Simplify `mesh` in place by QEM edge collapse; returns the number of
/// collapses performed. Open-boundary vertices (under
/// [`SimplifyOptions::protect_open_boundary`]) are never moved or removed.
pub fn simplify(mesh: &mut TriMesh, opts: SimplifyOptions) -> usize {
    let nv = mesh.vertices.len();
    if nv == 0 || mesh.triangles.is_empty() {
        return 0;
    }

    // Adjacency and quadrics.
    let mut tris: Vec<Option<[u32; 3]>> = mesh.triangles.iter().map(|t| Some(*t)).collect();
    let mut v_tris: Vec<Vec<u32>> = vec![Vec::new(); nv];
    for (ti, t) in mesh.triangles.iter().enumerate() {
        for &v in t {
            v_tris[v as usize].push(ti as u32);
        }
    }
    let mut quadrics = vec![Quadric::default(); nv];
    for t in &mesh.triangles {
        let [a, b, c] = [
            mesh.vertices[t[0] as usize],
            mesh.vertices[t[1] as usize],
            mesh.vertices[t[2] as usize],
        ];
        let n = normalize(cross(sub(b, a), sub(c, a)));
        if n == [0.0; 3] {
            continue;
        }
        let d = -dot(n, a);
        let q = Quadric::from_plane(n, d);
        for &v in t {
            quadrics[v as usize].add(&q);
        }
    }

    // Protected vertices: open-boundary vertices.
    let mut protected = vec![false; nv];
    if opts.protect_open_boundary {
        let mut edge_count: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        for t in &mesh.triangles {
            for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                *edge_count.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        }
        for ((a, b), c) in edge_count {
            if c != 2 {
                protected[a as usize] = true;
                protected[b as usize] = true;
            }
        }
    }

    // Union-find style vertex forwarding.
    let mut remap: Vec<u32> = (0..nv as u32).collect();
    fn resolve(remap: &mut [u32], mut v: u32) -> u32 {
        while remap[v as usize] != v {
            let p = remap[remap[v as usize] as usize];
            remap[v as usize] = p;
            v = p;
        }
        v
    }

    let mut stamps = vec![0u64; nv];
    let mut heap = BinaryHeap::new();
    let push_edge = |heap: &mut BinaryHeap<Candidate>,
                     quadrics: &[Quadric],
                     stamps: &[u64],
                     vertices: &[[f64; 3]],
                     protected: &[bool],
                     a: u32,
                     b: u32| {
        if a == b || protected[a as usize] || protected[b as usize] {
            return;
        }
        let mut q = quadrics[a as usize];
        q.add(&quadrics[b as usize]);
        let (pa, pb) = (vertices[a as usize], vertices[b as usize]);
        let mid = [
            0.5 * (pa[0] + pb[0]),
            0.5 * (pa[1] + pb[1]),
            0.5 * (pa[2] + pb[2]),
        ];
        let mut best = mid;
        let mut best_err = q.error(mid);
        for cand in [q.optimal_point().unwrap_or(mid), pa, pb] {
            let e = q.error(cand);
            if e < best_err {
                best_err = e;
                best = cand;
            }
        }
        heap.push(Candidate {
            cost: best_err,
            a,
            b,
            target: best,
            stamp: stamps[a as usize] + stamps[b as usize],
        });
    };

    // Seed the heap with all edges.
    {
        let mut seen = HashSet::new();
        for t in &mesh.triangles {
            for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                let key = (a.min(b), a.max(b));
                if seen.insert(key) {
                    push_edge(
                        &mut heap,
                        &quadrics,
                        &stamps,
                        &mesh.vertices,
                        &protected,
                        key.0,
                        key.1,
                    );
                }
            }
        }
    }

    let mut live_tris = mesh.triangles.len();
    let mut collapses = 0;
    while live_tris > opts.target_triangles {
        let Some(c) = heap.pop() else { break };
        if c.cost > opts.max_error {
            break;
        }
        let a = resolve(&mut remap, c.a);
        let b = resolve(&mut remap, c.b);
        if a == b || c.stamp != stamps[a as usize] + stamps[b as usize] {
            continue; // stale candidate
        }
        if protected[a as usize] || protected[b as usize] {
            continue;
        }
        // Link condition (manifold preservation): the vertices adjacent to
        // both a and b must be exactly the third vertices of the triangles
        // containing edge (a, b); otherwise the collapse would pinch the
        // surface into a non-manifold fin and open spurious boundary edges.
        {
            let mut shared_thirds = HashSet::new();
            let mut nbrs_a = HashSet::new();
            let mut nbrs_b = HashSet::new();
            for (&vsrc, set) in [(&a, &mut nbrs_a), (&b, &mut nbrs_b)] {
                for &ti in &v_tris[vsrc as usize] {
                    if let Some(t) = tris[ti as usize] {
                        let rt = t.map(|v| resolve(&mut remap, v));
                        for v in rt {
                            if v != a && v != b {
                                set.insert(v);
                            }
                        }
                        if rt.contains(&a) && rt.contains(&b) {
                            for v in rt {
                                if v != a && v != b {
                                    shared_thirds.insert(v);
                                }
                            }
                        }
                    }
                }
            }
            let common: HashSet<u32> = nbrs_a.intersection(&nbrs_b).copied().collect();
            if common != shared_thirds {
                continue;
            }
        }

        // Check that no surviving triangle flips when b merges into a at
        // the target position.
        let mut flips = false;
        for &ti in v_tris[a as usize].iter().chain(v_tris[b as usize].iter()) {
            let Some(t) = tris[ti as usize] else { continue };
            let rt = t.map(|v| resolve(&mut remap, v));
            if rt.contains(&a) && rt.contains(&b) {
                continue; // will degenerate and be removed
            }
            let old_p: [[f64; 3]; 3] = rt.map(|v| mesh.vertices[v as usize]);
            let new_p: [[f64; 3]; 3] = rt.map(|v| {
                if v == a || v == b {
                    c.target
                } else {
                    mesh.vertices[v as usize]
                }
            });
            let n_old = cross(sub(old_p[1], old_p[0]), sub(old_p[2], old_p[0]));
            let n_new = cross(sub(new_p[1], new_p[0]), sub(new_p[2], new_p[0]));
            if dot(n_old, n_new) <= 0.0 {
                flips = true;
                break;
            }
        }
        if flips {
            continue;
        }

        // Perform the collapse: b -> a.
        mesh.vertices[a as usize] = c.target;
        let qb = quadrics[b as usize];
        quadrics[a as usize].add(&qb);
        remap[b as usize] = a;
        stamps[a as usize] += 1;
        stamps[b as usize] += 1;

        // Rewrite triangles of b, drop degenerates.
        let b_tris = std::mem::take(&mut v_tris[b as usize]);
        for ti in b_tris {
            if let Some(t) = tris[ti as usize] {
                let rt = t.map(|v| resolve(&mut remap, v));
                if rt[0] == rt[1] || rt[1] == rt[2] || rt[0] == rt[2] {
                    tris[ti as usize] = None;
                    live_tris -= 1;
                } else {
                    tris[ti as usize] = Some(rt);
                    v_tris[a as usize].push(ti);
                }
            }
        }
        // Also resolve and prune a's own list.
        let a_tris = std::mem::take(&mut v_tris[a as usize]);
        for ti in a_tris {
            if let Some(t) = tris[ti as usize] {
                let rt = t.map(|v| resolve(&mut remap, v));
                if rt[0] == rt[1] || rt[1] == rt[2] || rt[0] == rt[2] {
                    tris[ti as usize] = None;
                    live_tris -= 1;
                } else {
                    tris[ti as usize] = Some(rt);
                    v_tris[a as usize].push(ti);
                }
            }
        }
        collapses += 1;

        // Refresh candidate edges around a.
        let mut nbrs = HashSet::new();
        for &ti in &v_tris[a as usize] {
            if let Some(t) = tris[ti as usize] {
                for v in t {
                    let rv = resolve(&mut remap, v);
                    if rv != a {
                        nbrs.insert(rv);
                    }
                }
            }
        }
        for n in nbrs {
            push_edge(
                &mut heap,
                &quadrics,
                &stamps,
                &mesh.vertices,
                &protected,
                a,
                n,
            );
        }
    }

    // Compact the mesh.
    let mut used = vec![false; nv];
    let mut out_tris = Vec::with_capacity(live_tris);
    for t in tris.into_iter().flatten() {
        let rt = t.map(|v| resolve(&mut remap, v));
        if rt[0] != rt[1] && rt[1] != rt[2] && rt[0] != rt[2] {
            for v in rt {
                used[v as usize] = true;
            }
            out_tris.push(rt);
        }
    }
    let mut new_id = vec![u32::MAX; nv];
    let mut verts = Vec::new();
    for (i, &u) in used.iter().enumerate() {
        if u {
            new_id[i] = verts.len() as u32;
            verts.push(mesh.vertices[i]);
        }
    }
    mesh.vertices = verts;
    mesh.triangles = out_tris
        .into_iter()
        .map(|t| t.map(|v| new_id[v as usize]))
        .collect();
    collapses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_isosurface;
    use eutectica_blockgrid::field::SoaField;
    use eutectica_blockgrid::GridDims;

    fn sphere_mesh(n: usize, r: f64) -> TriMesh {
        let dims = GridDims::cube(n);
        let g = dims.ghost;
        let c = n as f64 / 2.0;
        let mut f = SoaField::<1>::new(dims, [0.0]);
        for z in 0..dims.tz() {
            for y in 0..dims.ty() {
                for x in 0..dims.tx() {
                    let d = ((x as f64 - g as f64 - c).powi(2)
                        + (y as f64 - g as f64 - c).powi(2)
                        + (z as f64 - g as f64 - c).powi(2))
                    .sqrt();
                    f.set(0, x, y, z, 0.5 - 0.5 * ((d - r) / 1.5).tanh());
                }
            }
        }
        extract_isosurface(f.comp(0), dims, [0.0; 3], 0.5)
    }

    #[test]
    fn simplification_reduces_triangles_and_preserves_shape() {
        let mut m = sphere_mesh(24, 8.0);
        let before_tris = m.num_triangles();
        let before_vol = m.signed_volume();
        let n = simplify(
            &mut m,
            SimplifyOptions {
                target_triangles: before_tris / 4,
                max_error: 1.0,
                protect_open_boundary: true,
            },
        );
        assert!(n > 0, "no collapses performed");
        assert!(
            m.num_triangles() <= before_tris / 3,
            "only reduced {before_tris} -> {}",
            m.num_triangles()
        );
        assert_eq!(m.open_edge_count(), 0, "simplification broke the surface");
        let vol = m.signed_volume();
        assert!(
            (vol - before_vol).abs() / before_vol < 0.1,
            "volume drifted: {before_vol} -> {vol}"
        );
    }

    #[test]
    fn error_threshold_limits_aggressiveness() {
        let mut m = sphere_mesh(20, 6.0);
        let before = m.num_triangles();
        simplify(
            &mut m,
            SimplifyOptions {
                target_triangles: 0,
                max_error: 1e-12, // essentially only exactly-coplanar collapses
                protect_open_boundary: true,
            },
        );
        // A curved surface has almost no zero-error collapses.
        assert!(
            m.num_triangles() as f64 > before as f64 * 0.5,
            "over-simplified: {before} -> {}",
            m.num_triangles()
        );
    }

    #[test]
    fn open_boundary_is_preserved_by_default() {
        // A flat open square sheet: its rim must keep its exact outline.
        let mut m = TriMesh::new();
        let n = 8usize;
        for y in 0..=n {
            for x in 0..=n {
                m.vertices.push([x as f64, y as f64, 0.0]);
            }
        }
        let id = |x: usize, y: usize| (y * (n + 1) + x) as u32;
        for y in 0..n {
            for x in 0..n {
                m.triangles.push([id(x, y), id(x + 1, y), id(x + 1, y + 1)]);
                m.triangles.push([id(x, y), id(x + 1, y + 1), id(x, y + 1)]);
            }
        }
        let rim_before: HashSet<[u64; 2]> = m
            .vertices
            .iter()
            .filter(|v| v[0] == 0.0 || v[1] == 0.0 || v[0] == n as f64 || v[1] == n as f64)
            .map(|v| [v[0].to_bits(), v[1].to_bits()])
            .collect();
        simplify(&mut m, SimplifyOptions::default());
        // Interior of a flat sheet collapses to almost nothing, but every
        // rim vertex survives.
        let rim_after: HashSet<[u64; 2]> = m
            .vertices
            .iter()
            .filter(|v| v[0] == 0.0 || v[1] == 0.0 || v[0] == n as f64 || v[1] == n as f64)
            .map(|v| [v[0].to_bits(), v[1].to_bits()])
            .collect();
        assert_eq!(rim_before, rim_after);
        assert!(
            m.num_triangles() < 2 * n * n,
            "flat sheet not simplified at all"
        );
    }
}
