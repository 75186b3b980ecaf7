//! Property-based tests of the mesh pipeline.

use eutectica_blockgrid::field::SoaField;
use eutectica_blockgrid::GridDims;
use eutectica_mesh::extract::extract_isosurface;
use eutectica_mesh::simplify::{simplify, SimplifyOptions};
use eutectica_mesh::TriMesh;
use proptest::prelude::*;

/// Random smooth-ish field: a sum of a few sinusoids.
fn wavy_field(dims: GridDims, freqs: &[(f64, f64, f64)]) -> SoaField<1> {
    let g = dims.ghost as f64;
    let mut f = SoaField::<1>::new(dims, [0.0]);
    for z in 0..dims.tz() {
        for y in 0..dims.ty() {
            for x in 0..dims.tx() {
                let (px, py, pz) = (x as f64 - g, y as f64 - g, z as f64 - g);
                let mut v = 0.5;
                for &(a, b, c) in freqs {
                    v += 0.2 * (a * px + b * py + c * pz).sin();
                }
                f.set(0, x, y, z, v);
            }
        }
    }
    f
}

fn arb_freqs() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((0.05..0.9f64, 0.05..0.9f64, 0.05..0.9f64), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Extraction of any smooth field yields a mesh whose open edges lie
    /// only on the domain boundary (no interior cracks: marching tetrahedra
    /// has no ambiguous cases), with all-finite vertices inside the domain.
    #[test]
    fn extraction_has_no_interior_cracks(freqs in arb_freqs()) {
        let dims = GridDims::cube(12);
        let f = wavy_field(dims, &freqs);
        let mesh = extract_isosurface(f.comp(0), dims, [0.0; 3], 0.5);
        let (lo, hi) = if mesh.num_vertices() > 0 {
            mesh.bounding_box()
        } else {
            ([0.0; 3], [0.0; 3])
        };
        prop_assert!(lo.iter().all(|&v| v >= -1.0e-9));
        prop_assert!(hi.iter().all(|&v| v <= 12.0 + 1e-9));
        // Every open (boundary) edge must touch the domain boundary box.
        let mut edges = std::collections::HashMap::new();
        for t in &mesh.triangles {
            for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                *edges.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        }
        for ((a, b), count) in edges {
            if count == 1 {
                for v in [a, b] {
                    let p = mesh.vertices[v as usize];
                    let on_bnd = p.iter().any(|&c| !(1e-9..=12.0 - 1e-9).contains(&c));
                    prop_assert!(on_bnd, "interior open edge at {p:?}");
                }
            } else {
                prop_assert!(count == 2, "edge shared by {count} triangles");
            }
        }
    }

    /// Welding is idempotent and never increases counts.
    #[test]
    fn weld_is_idempotent(freqs in arb_freqs()) {
        let dims = GridDims::cube(10);
        let f = wavy_field(dims, &freqs);
        let mut mesh = extract_isosurface(f.comp(0), dims, [0.0; 3], 0.5);
        let (v1, t1) = (mesh.num_vertices(), mesh.num_triangles());
        mesh.weld(1e-9);
        prop_assert!(mesh.num_vertices() <= v1 && mesh.num_triangles() <= t1);
        let (v2, t2) = (mesh.num_vertices(), mesh.num_triangles());
        mesh.weld(1e-9);
        prop_assert_eq!((v2, t2), (mesh.num_vertices(), mesh.num_triangles()));
    }

    /// Serialization round-trips exactly.
    #[test]
    fn bytes_roundtrip(freqs in arb_freqs()) {
        let dims = GridDims::cube(8);
        let f = wavy_field(dims, &freqs);
        let mesh = extract_isosurface(f.comp(0), dims, [0.0; 3], 0.5);
        let back = TriMesh::from_bytes(&mesh.to_bytes());
        prop_assert_eq!(mesh.vertices, back.vertices);
        prop_assert_eq!(mesh.triangles, back.triangles);
    }

    /// Simplification never breaks closed surfaces and never increases the
    /// triangle count; the enclosed volume stays within the error budget.
    #[test]
    fn simplify_preserves_topology(freqs in arb_freqs(), target_frac in 0.2..0.9f64) {
        let dims = GridDims::cube(12);
        let f = wavy_field(dims, &freqs);
        let mut mesh = extract_isosurface(f.comp(0), dims, [0.0; 3], 0.5);
        if mesh.num_triangles() == 0 {
            return Ok(());
        }
        let before = mesh.num_triangles();
        let open_before = mesh.open_edge_count();
        simplify(
            &mut mesh,
            SimplifyOptions {
                target_triangles: (before as f64 * target_frac) as usize,
                max_error: 1e-3,
                protect_open_boundary: true,
            },
        );
        prop_assert!(mesh.num_triangles() <= before);
        prop_assert!(mesh.open_edge_count() <= open_before, "new cracks appeared");
    }
}
