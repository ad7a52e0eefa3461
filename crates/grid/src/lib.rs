//! Grid substrate for Matrix-PIC: 3-D field arrays, Yee staggering,
//! guard cells and the tile decomposition the paper's per-tile GPMA
//! structures hang off.
//!
//! Index convention: `x` is the fastest-varying dimension, matching the
//! Structure-of-Arrays layout the paper maintains for VPU/MPU streaming.
//!
//! # Example
//!
//! ```
//! use mpic_grid::{GridGeometry, TileLayout};
//!
//! let geom = GridGeometry::new([16, 16, 16], [0.0; 3], [1e-6; 3], 2);
//! let tiles = TileLayout::new(&geom, [8, 8, 8]);
//! assert_eq!(tiles.num_tiles(), 8);
//! let (cell, frac) = geom.locate(0.5e-6, 0.25e-6, 15.9e-6);
//! assert_eq!(cell, [0, 0, 15]);
//! assert!((frac[0] - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

pub mod array3;
pub mod constants;
pub mod fields;
pub mod geometry;
pub mod tile;

pub use array3::Array3;
pub use fields::FieldArrays;
pub use geometry::GridGeometry;
pub use tile::{Tile, TileLayout};
