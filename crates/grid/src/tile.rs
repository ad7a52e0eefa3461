//! Tile decomposition of the grid.
//!
//! The paper's particle containers are organised per tile
//! (`particles.tile_size = 8x8x8` for uniform plasma, `8x8x64` for LWFA);
//! each tile owns a GPMA index structure and its particles are binned by
//! *tile-local* cell id so that a tile's working set (particle slices,
//! rhocell accumulators) fits in cache while the MPU sweeps it.

use crate::geometry::GridGeometry;

/// A contiguous box of physical cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Inclusive lower cell coordinate.
    pub lo: [usize; 3],
    /// Exclusive upper cell coordinate.
    pub hi: [usize; 3],
}

impl Tile {
    /// Cells per dimension.
    pub fn size(&self) -> [usize; 3] {
        [
            self.hi[0] - self.lo[0],
            self.hi[1] - self.lo[1],
            self.hi[2] - self.lo[2],
        ]
    }

    /// Total number of cells in the tile.
    pub fn num_cells(&self) -> usize {
        let s = self.size();
        s[0] * s[1] * s[2]
    }

    /// Whether a physical cell coordinate lies inside this tile.
    pub fn contains(&self, cell: [usize; 3]) -> bool {
        (0..3).all(|d| cell[d] >= self.lo[d] && cell[d] < self.hi[d])
    }

    /// Tile-local linear cell id (x fastest), the GPMA bin key.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the cell is outside the tile.
    #[inline]
    pub fn local_cell_id(&self, cell: [usize; 3]) -> usize {
        debug_assert!(self.contains(cell));
        let s = self.size();
        let i = cell[0] - self.lo[0];
        let j = cell[1] - self.lo[1];
        let k = cell[2] - self.lo[2];
        (k * s[1] + j) * s[0] + i
    }

    /// Inverse of [`Tile::local_cell_id`], returning the physical cell.
    #[inline]
    pub fn global_cell(&self, local: usize) -> [usize; 3] {
        let s = self.size();
        let i = local % s[0];
        let j = (local / s[0]) % s[1];
        let k = local / (s[0] * s[1]);
        [self.lo[0] + i, self.lo[1] + j, self.lo[2] + k]
    }

    /// Every cell of the tile as `(local id, physical cell)` in local-id
    /// order (x fastest): [`Tile::global_cell`] for a whole-tile sweep,
    /// without its divisions.
    pub fn cells(&self) -> impl Iterator<Item = (usize, [usize; 3])> {
        let (lo, hi) = (self.lo, self.hi);
        (lo[2]..hi[2])
            .flat_map(move |k| {
                (lo[1]..hi[1]).flat_map(move |j| (lo[0]..hi[0]).map(move |i| [i, j, k]))
            })
            .enumerate()
    }
}

/// Decomposition of a geometry into tiles.
#[derive(Debug, Clone)]
pub struct TileLayout {
    /// Requested tile size (edge tiles may be smaller).
    pub tile_size: [usize; 3],
    tiles: Vec<Tile>,
    tiles_per_dim: [usize; 3],
}

impl TileLayout {
    /// Decomposes `geom` into tiles of at most `tile_size` cells.
    ///
    /// # Panics
    ///
    /// Panics if any tile dimension is zero.
    pub fn new(geom: &GridGeometry, tile_size: [usize; 3]) -> Self {
        assert!(tile_size.iter().all(|&t| t > 0));
        let tiles_per_dim = [
            geom.n_cells[0].div_ceil(tile_size[0]),
            geom.n_cells[1].div_ceil(tile_size[1]),
            geom.n_cells[2].div_ceil(tile_size[2]),
        ];
        let mut tiles = Vec::new();
        for tk in 0..tiles_per_dim[2] {
            for tj in 0..tiles_per_dim[1] {
                for ti in 0..tiles_per_dim[0] {
                    let lo = [ti * tile_size[0], tj * tile_size[1], tk * tile_size[2]];
                    let hi = [
                        (lo[0] + tile_size[0]).min(geom.n_cells[0]),
                        (lo[1] + tile_size[1]).min(geom.n_cells[1]),
                        (lo[2] + tile_size[2]).min(geom.n_cells[2]),
                    ];
                    tiles.push(Tile { lo, hi });
                }
            }
        }
        Self {
            tile_size,
            tiles,
            tiles_per_dim,
        }
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Tile accessor.
    pub fn tile(&self, t: usize) -> &Tile {
        &self.tiles[t]
    }

    /// Iterator over tiles.
    pub fn iter(&self) -> impl Iterator<Item = &Tile> {
        self.tiles.iter()
    }

    /// Which tile a physical cell belongs to.
    pub fn tile_of_cell(&self, cell: [usize; 3]) -> usize {
        let t = [
            cell[0] / self.tile_size[0],
            cell[1] / self.tile_size[1],
            cell[2] / self.tile_size[2],
        ];
        (t[2] * self.tiles_per_dim[1] + t[1]) * self.tiles_per_dim[0] + t[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> GridGeometry {
        GridGeometry::new([16, 16, 16], [0.0; 3], [1.0; 3], 1)
    }

    #[test]
    fn exact_decomposition() {
        let layout = TileLayout::new(&geom(), [8, 8, 8]);
        assert_eq!(layout.num_tiles(), 8);
        assert!(layout.iter().all(|t| t.num_cells() == 512));
    }

    #[test]
    fn ragged_edges_are_clipped() {
        let g = GridGeometry::new([10, 10, 10], [0.0; 3], [1.0; 3], 1);
        let layout = TileLayout::new(&g, [8, 8, 8]);
        assert_eq!(layout.num_tiles(), 8);
        let total: usize = layout.iter().map(|t| t.num_cells()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn tile_of_cell_consistent_with_contains() {
        let layout = TileLayout::new(&geom(), [8, 8, 8]);
        for cell in [[0, 0, 0], [7, 7, 7], [8, 0, 0], [15, 15, 15], [3, 9, 12]] {
            let t = layout.tile_of_cell(cell);
            assert!(layout.tile(t).contains(cell), "cell {cell:?} tile {t}");
        }
    }

    #[test]
    fn local_cell_id_roundtrip() {
        let layout = TileLayout::new(&geom(), [8, 8, 8]);
        let tile = layout.tile(5);
        for local in 0..tile.num_cells() {
            let cell = tile.global_cell(local);
            assert_eq!(tile.local_cell_id(cell), local);
        }
    }

    #[test]
    fn lwfa_tile_shape() {
        let g = GridGeometry::new([64, 64, 512], [0.0; 3], [1.0; 3], 1);
        let layout = TileLayout::new(&g, [8, 8, 64]);
        assert_eq!(layout.num_tiles(), 8 * 8 * 8);
    }
}
