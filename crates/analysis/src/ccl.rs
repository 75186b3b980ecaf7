//! Connected-component labeling on regular grids (union-find).

/// A labeled grid: `labels[i] == 0` means background; components are
/// numbered from 1.
#[derive(Clone, Debug)]
pub struct Labels {
    /// Per-cell label (0 = background).
    pub labels: Vec<u32>,
    /// Number of components.
    pub count: usize,
    /// Cells per component (index 0 unused).
    pub sizes: Vec<usize>,
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new() -> Self {
        Self { parent: vec![0] } // slot 0 = background sentinel
    }

    fn make(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let p = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = p;
            x = p;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi as usize] = lo;
        }
    }
}

/// Label the 6-connected components of `mask` on an `nx × ny × nz` grid
/// (x fastest). `periodic` enables wrap-around connectivity per axis.
pub fn label_3d(mask: &[bool], dims: [usize; 3], periodic: [bool; 3]) -> Labels {
    let [nx, ny, nz] = dims;
    assert_eq!(mask.len(), nx * ny * nz);
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut labels = vec![0u32; mask.len()];
    let mut uf = UnionFind::new();

    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                if !mask[i] {
                    continue;
                }
                let mut lbl = 0u32;
                let consider = |j: usize, uf: &mut UnionFind, labels: &[u32], lbl: &mut u32| {
                    let l = labels[j];
                    if l != 0 {
                        if *lbl == 0 {
                            *lbl = l;
                        } else {
                            uf.union(*lbl, l);
                        }
                    }
                };
                if x > 0 {
                    consider(idx(x - 1, y, z), &mut uf, &labels, &mut lbl);
                }
                if y > 0 {
                    consider(idx(x, y - 1, z), &mut uf, &labels, &mut lbl);
                }
                if z > 0 {
                    consider(idx(x, y, z - 1), &mut uf, &labels, &mut lbl);
                }
                if lbl == 0 {
                    lbl = uf.make();
                }
                labels[i] = lbl;
            }
        }
    }

    // Periodic stitching: union across wrapped faces.
    for (axis, &p) in periodic.iter().enumerate() {
        if !p {
            continue;
        }
        let (u_max, v_max) = match axis {
            0 => (ny, nz),
            1 => (nx, nz),
            _ => (nx, ny),
        };
        for v in 0..v_max {
            for u in 0..u_max {
                let (i0, i1) = match axis {
                    0 => (idx(0, u, v), idx(nx - 1, u, v)),
                    1 => (idx(u, 0, v), idx(u, ny - 1, v)),
                    _ => (idx(u, v, 0), idx(u, v, nz - 1)),
                };
                if labels[i0] != 0 && labels[i1] != 0 {
                    uf.union(labels[i0], labels[i1]);
                }
            }
        }
    }

    // Flatten to dense component ids.
    let mut dense = vec![0u32; uf.parent.len()];
    let mut count = 0usize;
    let mut sizes = vec![0usize];
    for l in labels.iter_mut() {
        if *l == 0 {
            continue;
        }
        let root = uf.find(*l);
        if dense[root as usize] == 0 {
            count += 1;
            dense[root as usize] = count as u32;
            sizes.push(0);
        }
        *l = dense[root as usize];
        sizes[*l as usize] += 1;
    }
    Labels {
        labels,
        count,
        sizes,
    }
}

/// Label 4-connected components of a 2-D mask (`nx × ny`, x fastest).
pub(crate) fn label_2d(mask: &[bool], dims: [usize; 2], periodic: [bool; 2]) -> Labels {
    label_3d(
        mask,
        [dims[0], dims[1], 1],
        [periodic[0], periodic[1], false],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_separate_blobs() {
        let (nx, ny, nz) = (8, 4, 4);
        let mut mask = vec![false; nx * ny * nz];
        let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        for z in 0..2 {
            for y in 0..2 {
                mask[idx(0, y, z)] = true;
                mask[idx(1, y, z)] = true;
                mask[idx(6, y, z)] = true;
                mask[idx(7, y, z)] = true;
            }
        }
        let l = label_3d(&mask, [nx, ny, nz], [false; 3]);
        assert_eq!(l.count, 2);
        assert_eq!(l.sizes[1], 8);
        assert_eq!(l.sizes[2], 8);
        // Periodic x merges them.
        let l = label_3d(&mask, [nx, ny, nz], [true, false, false]);
        assert_eq!(l.count, 1);
        assert_eq!(l.sizes[1], 16);
    }

    #[test]
    fn diagonal_is_not_connected() {
        // 6-connectivity: corner-touching cells are separate components.
        let mut mask = vec![false; 8];
        mask[0] = true; // (0,0,0)
        mask[7] = true; // (1,1,1)
        let l = label_3d(&mask, [2, 2, 2], [false; 3]);
        assert_eq!(l.count, 2);
    }

    #[test]
    fn full_grid_is_one_component() {
        let l = label_3d(&[true; 27], [3, 3, 3], [false; 3]);
        assert_eq!(l.count, 1);
        assert_eq!(l.sizes[1], 27);
    }

    #[test]
    fn label_2d_ring_has_one_component() {
        let n = 8;
        let mut mask = vec![false; n * n];
        for y in 0..n {
            for x in 0..n {
                let on_ring = (x == 2 || x == 5) && (2..=5).contains(&y)
                    || (y == 2 || y == 5) && (2..=5).contains(&x);
                mask[y * n + x] = on_ring;
            }
        }
        let l = label_2d(&mask, [n, n], [false, false]);
        assert_eq!(l.count, 1);
    }

    #[test]
    fn snake_through_periodic_boundaries() {
        // A line wrapping around both axes stays one component.
        let n = 6;
        let mut mask = vec![false; n * n];
        for x in 0..n {
            mask[3 * n + x] = true; // row y=3
        }
        mask[3 * n] = true;
        let l = label_2d(&mask, [n, n], [true, true]);
        assert_eq!(l.count, 1);
    }
}
