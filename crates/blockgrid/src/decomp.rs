//! Static domain decomposition into equally sized blocks.
//!
//! waLBerla splits the domain into "equally sized chunks, called blocks" and
//! distributes them over processes so that "every process holds information
//! only about local and adjacent blocks" (Sec. 3.1). The decomposition here
//! is computed once (the paper's separate initialization phase that is "
//! executed independently of the actual simulation") and every process can
//! derive its local block set and neighbor topology from it without global
//! state.

use crate::{Face, GridDims};
use serde::{Deserialize, Serialize};

/// Global domain description.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomainSpec {
    /// Total interior cells per axis.
    pub cells: [usize; 3],
    /// Number of blocks per axis; must divide `cells` exactly.
    pub blocks: [usize; 3],
    /// Periodicity per axis (Fig. 2: periodic in x and y, open in z).
    pub periodic: [bool; 3],
}

impl DomainSpec {
    /// Directional-solidification default: periodic side walls, open z.
    pub fn directional(cells: [usize; 3], blocks: [usize; 3]) -> Self {
        Self {
            cells,
            blocks,
            periodic: [true, true, false],
        }
    }

    /// Cells per block per axis.
    fn block_cells(&self) -> [usize; 3] {
        [
            self.cells[0] / self.blocks[0],
            self.cells[1] / self.blocks[1],
            self.cells[2] / self.blocks[2],
        ]
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.iter().product()
    }
}

/// One block of the decomposition.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockDesc {
    /// Dense block id in `[0, num_blocks)`, x-fastest ordering.
    pub id: usize,
    /// Block coordinates in the block grid.
    pub coords: [usize; 3],
    /// Interior cells of this block.
    pub cells: [usize; 3],
    /// Global cell coordinates of this block's first interior cell.
    pub origin: [usize; 3],
    /// Face-neighbor block ids (`None` at non-periodic physical boundaries).
    pub neighbors: [Option<usize>; 6],
}

impl BlockDesc {
    /// Grid geometry of this block with ghost width `ghost`.
    pub fn dims(&self, ghost: usize) -> GridDims {
        GridDims::new(self.cells[0], self.cells[1], self.cells[2], ghost)
    }
}

/// The complete decomposition: block descriptors plus rank assignment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Decomposition {
    /// The domain this decomposes.
    pub spec: DomainSpec,
    blocks: Vec<BlockDesc>,
}

impl Decomposition {
    /// Decompose `spec` into blocks.
    ///
    /// # Panics
    /// Panics if the block counts do not divide the cell counts exactly
    /// (waLBerla requires equally sized blocks).
    pub fn new(spec: DomainSpec) -> Self {
        for a in 0..3 {
            assert!(
                spec.blocks[a] > 0 && spec.cells[a] % spec.blocks[a] == 0,
                "axis {a}: {} cells not divisible into {} equal blocks",
                spec.cells[a],
                spec.blocks[a]
            );
        }
        let bc = spec.block_cells();
        let nb = spec.blocks;
        let mut blocks = Vec::with_capacity(spec.num_blocks());
        for bz in 0..nb[2] {
            for by in 0..nb[1] {
                for bx in 0..nb[0] {
                    let coords = [bx, by, bz];
                    let id = Self::id_of(nb, coords);
                    let mut neighbors = [None; 6];
                    for f in Face::ALL {
                        neighbors[f as usize] =
                            Self::neighbor_coords(&spec, coords, f).map(|nc| Self::id_of(nb, nc));
                    }
                    blocks.push(BlockDesc {
                        id,
                        coords,
                        cells: bc,
                        origin: [bx * bc[0], by * bc[1], bz * bc[2]],
                        neighbors,
                    });
                }
            }
        }
        Self { spec, blocks }
    }

    fn id_of(nb: [usize; 3], c: [usize; 3]) -> usize {
        (c[2] * nb[1] + c[1]) * nb[0] + c[0]
    }

    fn neighbor_coords(spec: &DomainSpec, c: [usize; 3], f: Face) -> Option<[usize; 3]> {
        let off = f.offset();
        let mut n = c;
        let a = f.axis();
        let len = spec.blocks[a];
        let ni = c[a] as isize + off[a];
        if ni < 0 || ni >= len as isize {
            if spec.periodic[a] {
                n[a] = ((ni + len as isize) % len as isize) as usize;
            } else {
                return None;
            }
        } else {
            n[a] = ni as usize;
        }
        Some(n)
    }

    /// All block descriptors in id order.
    pub fn blocks(&self) -> &[BlockDesc] {
        &self.blocks
    }

    /// Descriptor of block `id`.
    pub fn block(&self, id: usize) -> &BlockDesc {
        &self.blocks[id]
    }

    /// Rank owning block `id` when distributing over `n_ranks` processes.
    ///
    /// The blocks are taken in column order — z fastest, then x, then y —
    /// and that order is cut into `n_ranks` contiguous chunks whose block
    /// counts differ by at most one (waLBerla's default static assignment
    /// for uniform work, over whole z-columns). When `n_ranks` divides the
    /// number of lateral columns every rank owns whole columns, and so the
    /// same number of blocks at every height: per-rank cost follows a
    /// directional-solidification front wherever it lies, with no weights.
    /// With a single z-layer or a single column the column order is the id
    /// order.
    pub fn rank_of(&self, id: usize, n_ranks: usize) -> usize {
        let nb = self.blocks.len();
        assert!(n_ranks > 0 && n_ranks <= nb, "need 1..=#blocks ranks");
        // Inverse of chunk `r` = column positions `[r·nb/n, (r+1)·nb/n)`.
        (self.column_position(id) * n_ranks + n_ranks - 1) / nb
    }

    /// Ids of the blocks owned by `rank` (see [`Decomposition::rank_of`]),
    /// ascending.
    pub fn blocks_of_rank(&self, rank: usize, n_ranks: usize) -> Vec<usize> {
        assert!(rank < n_ranks);
        (0..self.blocks.len())
            .filter(|&id| self.rank_of(id, n_ranks) == rank)
            .collect()
    }

    /// Position of block `id` in column order: z fastest, then x, then y.
    fn column_position(&self, id: usize) -> usize {
        let [x, y, z] = self.blocks[id].coords;
        let nb = self.spec.blocks;
        (y * nb[0] + x) * nb[2] + z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_counts_and_origins() {
        let spec = DomainSpec::directional([8, 8, 12], [2, 2, 3]);
        let d = Decomposition::new(spec);
        assert_eq!(d.blocks().len(), 12);
        assert_eq!(spec.block_cells(), [4, 4, 4]);
        let b = d.block(0);
        assert_eq!(b.coords, [0, 0, 0]);
        assert_eq!(b.origin, [0, 0, 0]);
        let b = d.block(11);
        assert_eq!(b.coords, [1, 1, 2]);
        assert_eq!(b.origin, [4, 4, 8]);
    }

    #[test]
    fn neighbors_respect_periodicity() {
        let spec = DomainSpec::directional([8, 8, 8], [2, 2, 2]);
        let d = Decomposition::new(spec);
        let b = d.block(0); // coords (0,0,0)
                            // Periodic x: low neighbor wraps to coords (1,0,0) = id 1.
        assert_eq!(b.neighbors[Face::XLow as usize], Some(1));
        assert_eq!(b.neighbors[Face::XHigh as usize], Some(1));
        // Periodic y likewise.
        assert_eq!(b.neighbors[Face::YLow as usize], Some(2));
        // Open z: no neighbor below the bottom block.
        assert_eq!(b.neighbors[Face::ZLow as usize], None);
        assert_eq!(b.neighbors[Face::ZHigh as usize], Some(4));
        let top = d.block(4); // coords (0,0,1)
        assert_eq!(top.neighbors[Face::ZHigh as usize], None);
        assert_eq!(top.neighbors[Face::ZLow as usize], Some(0));
    }

    #[test]
    fn single_block_periodic_axis_is_its_own_neighbor() {
        let spec = DomainSpec {
            cells: [4, 4, 4],
            blocks: [1, 1, 1],
            periodic: [true, true, true],
        };
        let d = Decomposition::new(spec);
        let b = d.block(0);
        for f in Face::ALL {
            assert_eq!(b.neighbors[f as usize], Some(0));
        }
    }

    #[test]
    fn rank_assignment_is_balanced_partition() {
        let spec = DomainSpec::directional([4, 4, 32], [1, 1, 8]);
        let d = Decomposition::new(spec);
        for n_ranks in 1..=8 {
            let mut seen = [false; 8];
            let mut total = 0;
            for r in 0..n_ranks {
                let ids = d.blocks_of_rank(r, n_ranks);
                for &id in &ids {
                    assert!(!seen[id], "block {id} assigned twice");
                    seen[id] = true;
                    assert_eq!(d.rank_of(id, n_ranks), r, "rank_of inconsistent");
                }
                total += ids.len();
            }
            assert_eq!(total, 8, "all blocks assigned for {n_ranks} ranks");
            // Balance: sizes differ by at most 1.
            let sizes: Vec<usize> = (0..n_ranks)
                .map(|r| d.blocks_of_rank(r, n_ranks).len())
                .collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn column_placement_is_balanced_per_layer() {
        for blocks in [[2, 2, 8], [4, 1, 4], [3, 2, 2], [1, 1, 8]] {
            let d = Decomposition::new(DomainSpec::directional(blocks.map(|b| 4 * b), blocks));
            let nb = d.blocks().len();
            let columns = blocks[0] * blocks[1];
            for n in 1..=nb {
                let mut owner = vec![None; nb];
                for r in 0..n {
                    let ids = d.blocks_of_rank(r, n);
                    assert!(
                        ids.windows(2).all(|w| w[0] < w[1]),
                        "{blocks:?}/{n}: not ascending"
                    );
                    for id in ids {
                        assert_eq!(owner[id], None, "{blocks:?}/{n}: block {id} owned twice");
                        assert_eq!(d.rank_of(id, n), r, "{blocks:?}/{n}: rank_of disagrees");
                        owner[id] = Some(r);
                    }
                }
                assert!(
                    owner.iter().all(Option::is_some),
                    "{blocks:?}/{n}: block unowned"
                );
                let sizes: Vec<usize> = (0..n).map(|r| d.blocks_of_rank(r, n).len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{blocks:?}/{n}: unbalanced {sizes:?}");
                if columns % n == 0 {
                    for z in 0..blocks[2] {
                        let mut per_rank = vec![0; n];
                        for b in d.blocks().iter().filter(|b| b.coords[2] == z) {
                            per_rank[d.rank_of(b.id, n)] += 1;
                        }
                        assert!(
                            per_rank.iter().all(|&c| c == columns / n),
                            "{blocks:?}/{n}: z-layer {z} split {per_rank:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn uneven_blocks_rejected() {
        Decomposition::new(DomainSpec::directional([10, 8, 8], [3, 2, 2]));
    }
}
