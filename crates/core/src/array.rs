//! Multi-dimensional geometry: regions and the chunk grid.

/// A half-open hyper-rectangle `[start_d, end_d)` per dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    ranges: Vec<(usize, usize)>,
}

impl Region {
    /// Build from per-dimension `(start, end)` pairs.
    ///
    /// # Panics
    /// Panics when any range is empty or inverted.
    pub fn new(ranges: Vec<(usize, usize)>) -> Self {
        assert!(!ranges.is_empty(), "region needs at least one dimension");
        for &(s, e) in &ranges {
            assert!(s < e, "empty/inverted range {s}..{e}");
        }
        Region { ranges }
    }

    /// The full domain of a given shape.
    pub fn full(shape: &[usize]) -> Self {
        Region::new(shape.iter().map(|&e| (0, e)).collect())
    }

    /// Per-dimension ranges.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.ranges.len()
    }

    /// Number of points inside.
    pub fn num_points(&self) -> usize {
        self.ranges.iter().map(|(s, e)| e - s).product()
    }

    /// Whether a point is inside.
    pub fn contains(&self, coords: &[usize]) -> bool {
        coords.len() == self.ranges.len()
            && coords
                .iter()
                .zip(&self.ranges)
                .all(|(&c, &(s, e))| c >= s && c < e)
    }

    /// Whether two regions overlap.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn intersects(&self, other: &Region) -> bool {
        assert_eq!(self.dims(), other.dims(), "region dimensionality mismatch");
        self.ranges
            .iter()
            .zip(&other.ranges)
            .all(|(&(s1, e1), &(s2, e2))| s1 < e2 && s2 < e1)
    }

    /// Intersection, or `None` when disjoint.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn intersection(&self, other: &Region) -> Option<Region> {
        assert_eq!(self.dims(), other.dims(), "region dimensionality mismatch");
        let ranges: Vec<(usize, usize)> = self
            .ranges
            .iter()
            .zip(&other.ranges)
            .map(|(&(s1, e1), &(s2, e2))| (s1.max(s2), e1.min(e2)))
            .collect();
        ranges
            .iter()
            .all(|&(s, e)| s < e)
            .then(|| Region::new(ranges))
    }

    /// Whether `self` fully contains `other`.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn contains_region(&self, other: &Region) -> bool {
        assert_eq!(self.dims(), other.dims(), "region dimensionality mismatch");
        self.ranges
            .iter()
            .zip(&other.ranges)
            .all(|(&(s1, e1), &(s2, e2))| s1 <= s2 && e2 <= e1)
    }
}

/// The chunking of a multi-dimensional array: domain shape plus chunk
/// shape, with edge chunks truncated at the boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkGrid {
    shape: Vec<usize>,
    chunk_shape: Vec<usize>,
    grid: Vec<usize>,
}

impl ChunkGrid {
    /// Build a grid; chunk extents are clamped to the domain.
    ///
    /// # Panics
    /// Panics on dimension mismatch or zero extents.
    pub fn new(shape: Vec<usize>, chunk_shape: Vec<usize>) -> Self {
        assert_eq!(shape.len(), chunk_shape.len(), "dimension mismatch");
        assert!(shape.iter().all(|&e| e > 0), "empty domain");
        assert!(chunk_shape.iter().all(|&e| e > 0), "empty chunk");
        let grid = shape
            .iter()
            .zip(&chunk_shape)
            .map(|(&s, &c)| s.div_ceil(c))
            .collect();
        ChunkGrid {
            shape,
            chunk_shape,
            grid,
        }
    }

    /// Domain shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Nominal chunk shape (edge chunks may be smaller).
    pub fn chunk_shape(&self) -> &[usize] {
        &self.chunk_shape
    }

    /// Chunks per dimension.
    pub fn grid_extents(&self) -> &[usize] {
        &self.grid
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.shape.len()
    }

    /// Total number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.grid.iter().product()
    }

    /// Total number of points in the domain.
    pub fn num_points(&self) -> usize {
        self.shape.iter().product()
    }

    /// Chunk coordinates of a row-major chunk id.
    pub fn chunk_coords(&self, mut chunk: usize) -> Vec<usize> {
        let mut coords = vec![0usize; self.grid.len()];
        for d in (0..self.grid.len()).rev() {
            coords[d] = chunk % self.grid[d];
            chunk /= self.grid[d];
        }
        coords
    }

    /// Row-major chunk id of chunk coordinates.
    pub fn chunk_id(&self, coords: &[usize]) -> usize {
        let mut id = 0usize;
        for (d, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.grid[d]);
            id = id * self.grid[d] + c;
        }
        id
    }

    /// The domain region covered by a chunk (clamped at the boundary).
    pub fn chunk_region(&self, chunk: usize) -> Region {
        let coords = self.chunk_coords(chunk);
        Region::new(
            coords
                .iter()
                .enumerate()
                .map(|(d, &c)| {
                    let start = c * self.chunk_shape[d];
                    let end = (start + self.chunk_shape[d]).min(self.shape[d]);
                    (start, end)
                })
                .collect(),
        )
    }

    /// Number of points in a chunk (clamped at the domain edge), with
    /// no allocation.
    pub fn chunk_points(&self, chunk: usize) -> usize {
        let mut id = chunk;
        let mut points = 1;
        for d in (0..self.dims()).rev() {
            let start = id % self.grid[d] * self.chunk_shape[d];
            id /= self.grid[d];
            points *= (start + self.chunk_shape[d]).min(self.shape[d]) - start;
        }
        points
    }

    /// Write a chunk's clamped ranges into `out` without allocating —
    /// the hot-path counterpart of [`Self::chunk_region`] (`out`'s
    /// capacity is reused across calls).
    pub fn chunk_ranges_into(&self, chunk: usize, out: &mut Vec<(usize, usize)>) {
        let dims = self.dims();
        out.clear();
        out.resize(dims, (0, 0));
        let mut id = chunk;
        for d in (0..dims).rev() {
            let c = id % self.grid[d];
            id /= self.grid[d];
            let start = c * self.chunk_shape[d];
            let end = (start + self.chunk_shape[d]).min(self.shape[d]);
            out[d] = (start, end);
        }
        debug_assert_eq!(id, 0, "chunk id out of range");
    }

    /// Chunk ids (row-major) whose region intersects `region`.
    pub fn chunks_intersecting(&self, region: &Region) -> Vec<usize> {
        assert_eq!(region.dims(), self.dims());
        // Per-dimension chunk index ranges, then the cross product.
        let ranges: Vec<(usize, usize)> = region
            .ranges()
            .iter()
            .enumerate()
            .map(|(d, &(s, e))| (s / self.chunk_shape[d], (e - 1) / self.chunk_shape[d]))
            .collect();
        let mut out = Vec::new();
        let dims = self.dims();
        let mut coords: Vec<usize> = ranges.iter().map(|&(s, _)| s).collect();
        'outer: loop {
            out.push(self.chunk_id(&coords));
            for d in (0..dims).rev() {
                coords[d] += 1;
                if coords[d] <= ranges[d].1 {
                    continue 'outer;
                }
                coords[d] = ranges[d].0;
            }
            break;
        }
        out
    }

    /// Global linear (row-major) index of domain coordinates.
    pub fn linearize(&self, coords: &[usize]) -> u64 {
        let mut lin = 0u64;
        for (d, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.shape[d]);
            lin = lin * self.shape[d] as u64 + c as u64;
        }
        lin
    }

    /// Domain coordinates of a global linear index.
    pub fn delinearize(&self, mut lin: u64) -> Vec<usize> {
        let mut coords = vec![0usize; self.shape.len()];
        for d in (0..self.shape.len()).rev() {
            coords[d] = (lin % self.shape[d] as u64) as usize;
            lin /= self.shape[d] as u64;
        }
        coords
    }

    /// Row-major id of the chunk holding global position `pos`, without
    /// allocating: per dimension, one div/mod of the position by the
    /// domain extent and one division by the chunk edge.
    pub fn chunk_of(&self, mut pos: u64) -> usize {
        let (mut id, mut scale) = (0usize, 1usize);
        for d in (0..self.dims()).rev() {
            let extent = self.shape[d] as u64;
            let coord = (pos % extent) as usize;
            pos /= extent;
            id += coord / self.chunk_shape[d] * scale;
            scale *= self.grid[d];
        }
        debug_assert_eq!(pos, 0, "position outside the domain");
        id
    }

    /// The row-major id of the chunk holding global position `pos`, and
    /// `pos`'s chunk-local offset (row-major within the chunk's clamped
    /// region), without allocating.
    pub fn locate(&self, mut pos: u64) -> (usize, u64) {
        let (mut id, mut scale) = (0usize, 1usize);
        let (mut local, mut local_scale) = (0u64, 1u64);
        for d in (0..self.dims()).rev() {
            let extent = self.shape[d] as u64;
            let coord = (pos % extent) as usize;
            pos /= extent;
            let (cell, edge) = (coord / self.chunk_shape[d], self.chunk_shape[d]);
            let start = cell * edge;
            local += (coord - start) as u64 * local_scale;
            local_scale *= edge.min(self.shape[d] - start) as u64;
            id += cell * scale;
            scale *= self.grid[d];
        }
        debug_assert_eq!(pos, 0, "position outside the domain");
        (id, local)
    }

    /// Global coordinates of a chunk-local offset (row-major within the
    /// chunk's clamped region).
    pub fn local_to_coords(&self, chunk: usize, mut local: usize) -> Vec<usize> {
        let region = self.chunk_region(chunk);
        let mut coords = vec![0usize; self.dims()];
        for d in (0..self.dims()).rev() {
            let (s, e) = region.ranges()[d];
            let extent = e - s;
            coords[d] = s + local % extent;
            local /= extent;
        }
        coords
    }

    /// Chunk-local offset of global coordinates within their chunk, and
    /// the chunk id.
    pub fn coords_to_local(&self, coords: &[usize]) -> (usize, usize) {
        let chunk_coords: Vec<usize> = coords
            .iter()
            .zip(&self.chunk_shape)
            .map(|(&c, &cs)| c / cs)
            .collect();
        let chunk = self.chunk_id(&chunk_coords);
        let region = self.chunk_region(chunk);
        let mut local = 0usize;
        for (d, &c) in coords.iter().enumerate() {
            let (s, e) = region.ranges()[d];
            debug_assert!(c >= s && c < e);
            local = local * (e - s) + (c - s);
        }
        (chunk, local)
    }

    /// Iterate the global linear indices of a chunk's points, in
    /// chunk-local row-major order.
    pub fn chunk_linear_indices(&self, chunk: usize) -> Vec<u64> {
        let region = self.chunk_region(chunk);
        let n = region.num_points();
        let mut out = Vec::with_capacity(n);
        let dims = self.dims();
        let mut coords: Vec<usize> = region.ranges().iter().map(|&(s, _)| s).collect();
        'outer: loop {
            out.push(self.linearize(&coords));
            for d in (0..dims).rev() {
                coords[d] += 1;
                if coords[d] < region.ranges()[d].1 {
                    continue 'outer;
                }
                coords[d] = region.ranges()[d].0;
            }
            break;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `locate` is `chunk_of` and `coords_to_local`, on ragged 1-, 2-
    /// and 3-D grids.
    #[test]
    fn locate_is_the_chunk_and_the_local_offset() {
        for (shape, chunk) in [
            (vec![17], vec![5]),
            (vec![10, 7], vec![4, 3]),
            (vec![6, 5, 4], vec![4, 2, 3]),
        ] {
            let grid = ChunkGrid::new(shape, chunk);
            for pos in 0..grid.num_points() as u64 {
                let (chunk, local) = grid.coords_to_local(&grid.delinearize(pos));
                assert_eq!(grid.locate(pos), (chunk, local as u64), "{pos}");
                assert_eq!(grid.chunk_of(pos), chunk);
            }
        }
    }

    #[test]
    fn region_basics() {
        let r = Region::new(vec![(2, 5), (0, 4)]);
        assert_eq!(r.num_points(), 12);
        assert!(r.contains(&[2, 0]));
        assert!(r.contains(&[4, 3]));
        assert!(!r.contains(&[5, 0]));
        assert!(!r.contains(&[1, 2]));
    }

    #[test]
    fn region_set_ops() {
        let a = Region::new(vec![(0, 4), (0, 4)]);
        let b = Region::new(vec![(2, 6), (3, 8)]);
        let c = Region::new(vec![(4, 5), (0, 1)]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(
            a.intersection(&b).unwrap(),
            Region::new(vec![(2, 4), (3, 4)])
        );
        assert!(a.intersection(&c).is_none());
        assert!(a.contains_region(&Region::new(vec![(1, 2), (1, 4)])));
        assert!(!a.contains_region(&b));
    }

    #[test]
    fn grid_geometry() {
        let g = ChunkGrid::new(vec![10, 7], vec![4, 3]);
        assert_eq!(g.grid_extents(), &[3, 3]);
        assert_eq!(g.num_chunks(), 9);
        // Edge chunk is clamped.
        let last = g.chunk_region(8);
        assert_eq!(last.ranges(), &[(8, 10), (6, 7)]);
        assert_eq!(g.chunk_points(8), 2);
        assert_eq!(g.chunk_points(0), 12);
        // All chunk points sum to the domain size.
        let total: usize = (0..9).map(|c| g.chunk_points(c)).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn chunk_coords_roundtrip() {
        let g = ChunkGrid::new(vec![16, 16, 16], vec![4, 8, 4]);
        for c in 0..g.num_chunks() {
            assert_eq!(g.chunk_id(&g.chunk_coords(c)), c);
        }
    }

    #[test]
    fn chunks_intersecting_region() {
        let g = ChunkGrid::new(vec![8, 8], vec![4, 4]);
        let r = Region::new(vec![(3, 5), (0, 2)]);
        let mut chunks = g.chunks_intersecting(&r);
        chunks.sort_unstable();
        assert_eq!(chunks, vec![0, 2]);
        let all = g.chunks_intersecting(&Region::full(&[8, 8]));
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn linearize_roundtrip() {
        let g = ChunkGrid::new(vec![5, 6, 7], vec![2, 3, 4]);
        for lin in 0..(5 * 6 * 7) as u64 {
            assert_eq!(g.linearize(&g.delinearize(lin)), lin);
        }
    }

    #[test]
    fn local_offsets_roundtrip() {
        let g = ChunkGrid::new(vec![10, 7], vec![4, 3]);
        for chunk in 0..g.num_chunks() {
            for local in 0..g.chunk_points(chunk) {
                let coords = g.local_to_coords(chunk, local);
                assert_eq!(g.coords_to_local(&coords), (chunk, local));
            }
        }
    }

    #[test]
    fn chunk_of_matches_the_coordinate_route() {
        // Ragged grids: no shape is a multiple of its chunk edge.
        for g in [
            ChunkGrid::new(vec![10, 7], vec![4, 3]),
            ChunkGrid::new(vec![5, 6, 7], vec![2, 4, 3]),
        ] {
            for p in 0..g.num_points() as u64 {
                let (chunk, _) = g.coords_to_local(&g.delinearize(p));
                assert_eq!(g.chunk_of(p), chunk, "{:?} at {p}", g.shape());
            }
        }
    }

    #[test]
    fn chunk_linear_indices_are_consistent() {
        let g = ChunkGrid::new(vec![6, 6], vec![4, 4]);
        for chunk in 0..g.num_chunks() {
            let lins = g.chunk_linear_indices(chunk);
            assert_eq!(lins.len(), g.chunk_points(chunk));
            for (local, &lin) in lins.iter().enumerate() {
                let coords = g.delinearize(lin);
                assert_eq!(g.coords_to_local(&coords), (chunk, local));
            }
        }
        // Every point appears exactly once across chunks.
        let mut all: Vec<u64> = (0..g.num_chunks())
            .flat_map(|c| g.chunk_linear_indices(c))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..36u64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn empty_region_panics() {
        Region::new(vec![(3, 3)]);
    }
}
