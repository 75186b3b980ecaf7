//! Mesh-based output pipeline — the paper's Sec. 3.2 I/O strategy.
//!
//! "Instead of writing all values of a cell, we only store the position of
//! the interfaces using a triangle surface mesh." This crate provides that
//! pipeline:
//!
//! * [`extract`] — per-block isosurface extraction of a phase field. The
//!   paper uses a custom marching-cubes variant [21]; we extract via
//!   **marching tetrahedra** (each cube split into six tetrahedra), which
//!   produces the same interfaces without the ambiguous MC cases, so the
//!   local meshes are guaranteed watertight and stitchable (the substitution
//!   is documented in DESIGN.md §2). Extraction "extends to the ghost
//!   regions such that the local meshes can be stitched together".
//! * [`simplify`] — quadric-error-metric edge collapse (Garland & Heckbert
//!   [12], the algorithm behind the VCG simplifier the paper uses), with the
//!   paper's trick of "assigning a high weight to all vertices that are
//!   located on block boundaries" so stitching still works afterwards.
//! * [`reduce`] — the hierarchical reduction: "two local meshes are
//!   gathered on a process, stitched together, and again coarsened in the
//!   stitched region. This step is repeated log₂(processes) times."
//! * [`TriMesh`] — indexed triangle mesh with welding, watertightness
//!   checks, area/volume measures, and binary STL / OBJ writers.

// Index-based loops deliberately mirror the paper's stencil formulations;
// iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

pub mod extract;
pub mod reduce;
pub mod simplify;

use std::collections::HashMap;
use std::io::Write;

/// An indexed triangle mesh.
#[derive(Clone, Debug, Default)]
pub struct TriMesh {
    /// Vertex positions.
    pub vertices: Vec<[f64; 3]>,
    /// Counter-clockwise triangles (indices into `vertices`).
    pub triangles: Vec<[u32; 3]>,
}

impl TriMesh {
    /// Empty mesh.
    fn new() -> Self {
        Self::default()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of triangles.
    pub fn num_triangles(&self) -> usize {
        self.triangles.len()
    }

    /// Append another mesh (no welding).
    fn append(&mut self, other: &TriMesh) {
        let off = self.vertices.len() as u32;
        self.vertices.extend_from_slice(&other.vertices);
        self.triangles.extend(
            other
                .triangles
                .iter()
                .map(|t| [t[0] + off, t[1] + off, t[2] + off]),
        );
    }

    /// Total surface area.
    #[cfg(test)]
    fn area(&self) -> f64 {
        self.triangles
            .iter()
            .map(|t| {
                let [a, b, c] = self.tri_points(*t);
                0.5 * cross(sub(b, a), sub(c, a))
                    .map(|x| x * x)
                    .iter()
                    .sum::<f64>()
                    .sqrt()
            })
            .sum()
    }

    /// Signed volume enclosed by the mesh (meaningful for closed surfaces).
    #[cfg(test)]
    fn signed_volume(&self) -> f64 {
        self.triangles
            .iter()
            .map(|t| {
                let [a, b, c] = self.tri_points(*t);
                dot(a, cross(b, c)) / 6.0
            })
            .sum()
    }

    fn tri_points(&self, t: [u32; 3]) -> [[f64; 3]; 3] {
        [
            self.vertices[t[0] as usize],
            self.vertices[t[1] as usize],
            self.vertices[t[2] as usize],
        ]
    }

    /// Weld vertices closer than `eps` (quantized hashing) and drop
    /// degenerate triangles. This is the "stitching" step of the reduction.
    pub fn weld(&mut self, eps: f64) {
        assert!(eps > 0.0);
        let inv = 1.0 / eps;
        let mut map: HashMap<[i64; 3], u32> = HashMap::new();
        let mut remap = vec![0u32; self.vertices.len()];
        let mut verts: Vec<[f64; 3]> = Vec::with_capacity(self.vertices.len());
        for (i, v) in self.vertices.iter().enumerate() {
            let key = [
                (v[0] * inv).round() as i64,
                (v[1] * inv).round() as i64,
                (v[2] * inv).round() as i64,
            ];
            let id = *map.entry(key).or_insert_with(|| {
                verts.push(*v);
                (verts.len() - 1) as u32
            });
            remap[i] = id;
        }
        self.vertices = verts;
        self.triangles = self
            .triangles
            .iter()
            .map(|t| {
                [
                    remap[t[0] as usize],
                    remap[t[1] as usize],
                    remap[t[2] as usize],
                ]
            })
            .filter(|t| t[0] != t[1] && t[1] != t[2] && t[0] != t[2])
            .collect();
    }

    /// Count of edges that are *not* shared by exactly two triangles.
    /// Zero for a closed (watertight) welded mesh; block-local meshes have
    /// boundary edges at the block border.
    pub fn open_edge_count(&self) -> usize {
        let mut edges: HashMap<(u32, u32), i32> = HashMap::new();
        for t in &self.triangles {
            for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                let key = (a.min(b), a.max(b));
                *edges.entry(key).or_insert(0) += 1;
            }
        }
        edges.values().filter(|&&c| c != 2).count()
    }

    /// Euler characteristic V − E + F (2 for a welded sphere-like mesh).
    #[cfg(test)]
    fn euler_characteristic(&self) -> i64 {
        let mut edges = std::collections::HashSet::new();
        for t in &self.triangles {
            for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                edges.insert((a.min(b), a.max(b)));
            }
        }
        self.vertices.len() as i64 - edges.len() as i64 + self.triangles.len() as i64
    }

    /// Axis-aligned bounding box `(min, max)`.
    pub fn bounding_box(&self) -> ([f64; 3], [f64; 3]) {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for v in &self.vertices {
            for d in 0..3 {
                lo[d] = lo[d].min(v[d]);
                hi[d] = hi[d].max(v[d]);
            }
        }
        (lo, hi)
    }

    /// Write binary STL.
    pub fn write_stl(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut header = [0u8; 80];
        header[..9].copy_from_slice(b"eutectica");
        w.write_all(&header)?;
        w.write_all(&(self.triangles.len() as u32).to_le_bytes())?;
        for t in &self.triangles {
            let [a, b, c] = self.tri_points(*t);
            let n = normalize(cross(sub(b, a), sub(c, a)));
            for v in [n, a, b, c] {
                for x in v {
                    w.write_all(&(x as f32).to_le_bytes())?;
                }
            }
            w.write_all(&[0, 0])?;
        }
        Ok(())
    }

    /// Serialize to a byte payload (for the gather step of the hierarchical
    /// reduction over ranks).
    pub fn to_bytes(&self) -> bytes::Bytes {
        let mut out = Vec::with_capacity(16 + self.vertices.len() * 24 + self.triangles.len() * 12);
        out.extend_from_slice(&(self.vertices.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.triangles.len() as u64).to_le_bytes());
        for v in &self.vertices {
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        for t in &self.triangles {
            for i in t {
                out.extend_from_slice(&i.to_le_bytes());
            }
        }
        bytes::Bytes::from(out)
    }

    /// Deserialize from [`TriMesh::to_bytes`].
    ///
    /// # Panics
    /// Panics on malformed payloads.
    pub fn from_bytes(b: &[u8]) -> Self {
        let nv = u64::from_le_bytes(b[0..8].try_into().unwrap()) as usize;
        let nt = u64::from_le_bytes(b[8..16].try_into().unwrap()) as usize;
        let mut pos = 16;
        let mut vertices = Vec::with_capacity(nv);
        for _ in 0..nv {
            let mut v = [0.0; 3];
            for x in v.iter_mut() {
                *x = f64::from_le_bytes(b[pos..pos + 8].try_into().unwrap());
                pos += 8;
            }
            vertices.push(v);
        }
        let mut triangles = Vec::with_capacity(nt);
        for _ in 0..nt {
            let mut t = [0u32; 3];
            for i in t.iter_mut() {
                *i = u32::from_le_bytes(b[pos..pos + 4].try_into().unwrap());
                pos += 4;
            }
            triangles.push(t);
        }
        Self {
            vertices,
            triangles,
        }
    }
}

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn normalize(v: [f64; 3]) -> [f64; 3] {
    let n = dot(v, v).sqrt();
    if n == 0.0 {
        [0.0; 3]
    } else {
        [v[0] / n, v[1] / n, v[2] / n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_tetrahedron() -> TriMesh {
        TriMesh {
            vertices: vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ],
            // Outward-facing orientation.
            triangles: vec![[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]],
        }
    }

    #[test]
    fn tetra_measures() {
        let m = unit_tetrahedron();
        assert!((m.signed_volume() - 1.0 / 6.0).abs() < 1e-12);
        let expect_area = 1.5 + (3.0f64).sqrt() / 2.0;
        assert!((m.area() - expect_area).abs() < 1e-12);
        assert_eq!(m.open_edge_count(), 0);
        assert_eq!(m.euler_characteristic(), 2);
    }

    #[test]
    fn weld_merges_duplicates_and_drops_degenerates() {
        let mut m = TriMesh {
            vertices: vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1e-9, 0.0, 0.0], // duplicate of vertex 0
            ],
            triangles: vec![[0, 1, 2], [3, 1, 2], [0, 3, 1]],
        };
        m.weld(1e-6);
        assert_eq!(m.num_vertices(), 3);
        // [0,1,2] and [3,1,2] collapse to the same triangle; [0,3,1] is
        // degenerate after welding.
        assert_eq!(m.num_triangles(), 2);
    }

    #[test]
    fn append_offsets_indices() {
        let mut a = unit_tetrahedron();
        let b = unit_tetrahedron();
        a.append(&b);
        assert_eq!(a.num_vertices(), 8);
        assert_eq!(a.num_triangles(), 8);
        assert!(a.triangles[4..].iter().all(|t| t.iter().all(|&i| i >= 4)));
    }

    #[test]
    fn bytes_roundtrip() {
        let m = unit_tetrahedron();
        let b = m.to_bytes();
        let m2 = TriMesh::from_bytes(&b);
        assert_eq!(m.vertices, m2.vertices);
        assert_eq!(m.triangles, m2.triangles);
    }

    #[test]
    fn stl_has_expected_size() {
        let m = unit_tetrahedron();
        let mut stl = Vec::new();
        m.write_stl(&mut stl).unwrap();
        assert_eq!(stl.len(), 80 + 4 + 4 * 50);
    }
}
