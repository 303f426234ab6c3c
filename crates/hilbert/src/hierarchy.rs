//! Hierarchical Hilbert ordering for subset-based multi-resolution.
//!
//! Paper §III-B.3: the subset-based multi-resolution approach stores
//! data "in the same resolution level together" using a hierarchical
//! Hilbert mapping (similar to Pascucci's hierarchical Z-order \[13\]).
//!
//! A cell belongs to resolution level `l` (0 = coarsest) when `l` is the
//! smallest level whose sub-lattice (stride `2^(L-l)` in every
//! dimension) contains it. Level 0 holds every `2^L`-th cell, level 1
//! adds the cells on the twice-finer lattice, and so on; the union of
//! levels `0..=l` is exactly the stride-`2^(L-l)` sub-lattice. Within a
//! level, cells are ordered by the Hilbert curve. Reading a prefix of
//! the levels therefore yields a uniformly-spaced sample of the domain
//! at increasing resolution.

use crate::grid::{CurveKind, GridOrder};

/// Multi-resolution ordering of a rectangular grid.
#[derive(Debug, Clone)]
pub struct HierarchicalOrder {
    /// `levels[l]` = row-major cell ids of level `l`, in curve order.
    levels: Vec<Vec<u32>>,
    extents: Vec<usize>,
}

impl HierarchicalOrder {
    /// Build the hierarchy with `num_levels` resolution levels over a
    /// grid with the given extents, ordering within levels by `kind`.
    ///
    /// # Panics
    /// Panics if `num_levels == 0` or the grid is degenerate.
    pub fn new(extents: &[usize], num_levels: u32, kind: CurveKind) -> Self {
        assert!(num_levels >= 1, "need at least one resolution level");
        let order = GridOrder::new(extents, kind);
        let max_level = num_levels - 1;

        let mut levels: Vec<Vec<u32>> = vec![Vec::new(); num_levels as usize];
        for rank in 0..order.len() {
            let cell = order.cell_at(rank);
            let coords = order.delinearize(cell);
            let level = cell_level(&coords, max_level);
            levels[level as usize].push(cell as u32);
        }
        HierarchicalOrder {
            levels,
            extents: extents.to_vec(),
        }
    }

    /// Number of resolution levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Grid extents.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Cells of a single level, in curve order.
    pub fn level(&self, l: usize) -> &[u32] {
        &self.levels[l]
    }

    /// Iterate all cells of levels `0..=l`, coarse levels first — the
    /// exact read order of a subset-based multi-resolution access.
    pub fn prefix(&self, l: usize) -> impl Iterator<Item = usize> + '_ {
        self.levels[..=l].iter().flatten().map(|&c| c as usize)
    }

    /// Total number of cells across all levels.
    pub fn total_cells(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

/// Resolution level of a cell: the smallest `l` such that every
/// coordinate is divisible by `2^(max_level - l)`.
fn cell_level(coords: &[usize], max_level: u32) -> u32 {
    for l in 0..max_level {
        let stride = 1usize << (max_level - l);
        if coords.iter().all(|&c| c % stride == 0) {
            return l;
        }
    }
    max_level
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_complete_and_disjoint() {
        let h = HierarchicalOrder::new(&[8, 8], 4, CurveKind::Hilbert);
        assert_eq!(h.total_cells(), 64);
        let mut seen = [false; 64];
        for l in 0..h.num_levels() {
            for &c in h.level(l) {
                assert!(!seen[c as usize], "cell {c} in two levels");
                seen[c as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn level0_is_coarse_lattice() {
        let h = HierarchicalOrder::new(&[8, 8], 4, CurveKind::Hilbert);
        // max_level = 3 => level 0 stride = 8: only cell (0,0).
        assert_eq!(h.level(0).len(), 1);
        assert_eq!(h.level(0)[0], 0);
        // Levels 0+1 = stride-4 lattice: 2x2 = 4 cells.
        assert_eq!(h.level(0).len() + h.level(1).len(), 4);
        // Levels 0..=2 = stride-2 lattice: 4x4 = 16 cells.
        assert_eq!(h.prefix(2).count(), 16);
    }

    #[test]
    fn prefix_is_uniform_sample() {
        let h = HierarchicalOrder::new(&[8, 8], 4, CurveKind::Hilbert);
        let cells: Vec<usize> = h.prefix(1).collect();
        let g = GridOrder::new(&[8, 8], CurveKind::RowMajor);
        for cell in cells {
            let c = g.delinearize(cell);
            assert!(
                c[0].is_multiple_of(4) && c[1].is_multiple_of(4),
                "cell {c:?} off-lattice"
            );
        }
    }

    #[test]
    fn single_level_holds_everything() {
        let h = HierarchicalOrder::new(&[4, 4], 1, CurveKind::Hilbert);
        assert_eq!(h.level(0).len(), 16);
    }

    #[test]
    fn rectangular_grid_3d() {
        let h = HierarchicalOrder::new(&[4, 2, 6], 3, CurveKind::ZOrder);
        assert_eq!(h.total_cells(), 48);
        // Level 0 = stride 4: coords with all divisible by 4.
        // dim extents 4,2,6 -> coords (0,0,0), (0,0,4): 2 cells.
        assert_eq!(h.level(0).len(), 2);
    }
}
