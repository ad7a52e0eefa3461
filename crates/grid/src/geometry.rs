//! Grid geometry: physical extents, cell sizes, guard cells and the
//! position-to-cell mapping used by deposition, gather and the sorter.

/// Geometry of a rectilinear grid patch.
#[derive(Debug, Clone)]
pub struct GridGeometry {
    /// Number of *physical* cells per dimension (excludes guards).
    pub n_cells: [usize; 3],
    /// Physical coordinate of the lower corner of cell (0,0,0).
    pub lo: [f64; 3],
    /// Cell size per dimension (m).
    pub dx: [f64; 3],
    /// Guard (ghost) cells on each side.
    pub guard: usize,
}

impl GridGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any cell count is zero or any cell size is non-positive.
    pub fn new(n_cells: [usize; 3], lo: [f64; 3], dx: [f64; 3], guard: usize) -> Self {
        assert!(n_cells.iter().all(|&n| n > 0), "cell counts must be > 0");
        assert!(dx.iter().all(|&d| d > 0.0), "cell sizes must be > 0");
        Self {
            n_cells,
            lo,
            dx,
            guard,
        }
    }

    /// Array dimensions including guards.
    pub fn dims_with_guard(&self) -> [usize; 3] {
        [
            self.n_cells[0] + 2 * self.guard,
            self.n_cells[1] + 2 * self.guard,
            self.n_cells[2] + 2 * self.guard,
        ]
    }

    /// Physical domain extent per dimension (m).
    pub fn extent(&self) -> [f64; 3] {
        [
            self.n_cells[0] as f64 * self.dx[0],
            self.n_cells[1] as f64 * self.dx[1],
            self.n_cells[2] as f64 * self.dx[2],
        ]
    }

    /// Upper corner of the physical domain.
    pub fn hi(&self) -> [f64; 3] {
        let e = self.extent();
        [self.lo[0] + e[0], self.lo[1] + e[1], self.lo[2] + e[2]]
    }

    /// Total number of physical cells.
    pub fn total_cells(&self) -> usize {
        self.n_cells[0] * self.n_cells[1] * self.n_cells[2]
    }

    /// Cell volume (m^3).
    pub fn cell_volume(&self) -> f64 {
        self.dx[0] * self.dx[1] * self.dx[2]
    }

    /// Maps a position to `(cell, frac)` where `cell` is the physical cell
    /// index (may be outside `[0, n)` for particles in guard regions) and
    /// `frac` is the normalised intra-cell coordinate in `[0, 1)`.
    #[inline]
    pub fn locate(&self, x: f64, y: f64, z: f64) -> ([i64; 3], [f64; 3]) {
        let mut cell = [0i64; 3];
        let mut frac = [0f64; 3];
        for (d, &p) in [x, y, z].iter().enumerate() {
            let u = (p - self.lo[d]) / self.dx[d];
            let c = u.floor();
            cell[d] = c as i64;
            frac[d] = u - c;
        }
        (cell, frac)
    }

    /// Wraps a (possibly negative) cell index into `[0, n)` per dimension
    /// for periodic boundaries.
    ///
    /// Almost every caller passes an already-in-range index (positions
    /// are wrapped at the end of the push, so `locate` lands inside the
    /// domain except at fractional-rounding edges), and `rem_euclid` on
    /// `i64` is a hardware divide — the in-range branch skips it on the
    /// common path. Integer arithmetic, so the two paths agree exactly.
    #[inline]
    pub fn wrap_cell(&self, cell: [i64; 3]) -> [usize; 3] {
        let mut out = [0usize; 3];
        for d in 0..3 {
            let n = self.n_cells[d] as i64;
            out[d] = if (0..n).contains(&cell[d]) {
                cell[d] as usize
            } else {
                cell[d].rem_euclid(n) as usize
            };
        }
        out
    }

    /// Wraps a position into the periodic domain.
    ///
    /// The three guarded branches cover every CFL-bounded push (a step
    /// moves a particle less than one cell, far less than the domain
    /// extent) without the libm `fmod` behind `rem_euclid`, which
    /// dominated the push phase's host profile. Each branch is bitwise
    /// identical to `rem_euclid` on its range: `fmod` is exact, so for
    /// offsets in `[0, e)` it returns the offset unchanged, for
    /// `[e, 2e)` it returns the mathematically exact `r - e` (which
    /// Sterbenz's lemma makes the one floating subtraction reproduce
    /// exactly), and for `(-e, 0)` it returns `r` followed by the same
    /// single rounded `r + e` the branch performs. Anything outside
    /// those ranges — including the `r == -e` edge, where `rem_euclid`
    /// yields `-0.0` rather than `0.0` — still takes `rem_euclid`.
    #[inline]
    pub fn wrap_position(&self, pos: [f64; 3]) -> [f64; 3] {
        let mut out = pos;
        let e = self.extent();
        for d in 0..3 {
            let r = out[d] - self.lo[d];
            out[d] = self.lo[d]
                + if (0.0..e[d]).contains(&r) {
                    r
                } else if r >= e[d] && r < 2.0 * e[d] {
                    r - e[d]
                } else if r < 0.0 && r > -e[d] {
                    r + e[d]
                } else {
                    r.rem_euclid(e[d])
                };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> GridGeometry {
        GridGeometry::new([8, 8, 8], [0.0; 3], [1.0e-6; 3], 2)
    }

    #[test]
    fn locate_interior() {
        let g = geom();
        let (c, f) = g.locate(2.5e-6, 0.0, 7.999e-6);
        assert_eq!(c, [2, 0, 7]);
        assert!((f[0] - 0.5).abs() < 1e-9);
        assert!(f[2] > 0.99);
    }

    #[test]
    fn locate_negative_positions() {
        let g = geom();
        let (c, f) = g.locate(-0.5e-6, 0.0, 0.0);
        assert_eq!(c[0], -1);
        assert!((f[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn wrap_cell_periodic() {
        let g = geom();
        assert_eq!(g.wrap_cell([-1, 8, 3]), [7, 0, 3]);
        assert_eq!(g.wrap_cell([-9, 17, 0]), [7, 1, 0]);
    }

    #[test]
    fn wrap_position_periodic() {
        let g = geom();
        let p = g.wrap_position([-0.5e-6, 8.5e-6, 4.0e-6]);
        assert!((p[0] - 7.5e-6).abs() < 1e-12);
        assert!((p[1] - 0.5e-6).abs() < 1e-12);
        assert!((p[2] - 4.0e-6).abs() < 1e-12);
    }

    #[test]
    fn conf_wrap_position_fast_paths_match_rem_euclid_bitwise() {
        let g = geom();
        let e = g.extent();
        // Offsets spanning every branch: in-domain, one extent above,
        // just below 2e, negative within one extent, far outside both
        // ways, and the exact-boundary edges (0, e, -e, 2e).
        let offsets = [
            0.0, 1e-7, 0.37, 0.999_999, 1.0, 1.25, 1.999_999, 2.0, 2.5, 7.0, -1e-7, -0.5,
            -0.999_999, -1.0, -1.5, -6.25,
        ];
        for d in 0..3 {
            for &k in &offsets {
                let mut pos = [2.0e-6, 3.0e-6, 4.0e-6];
                pos[d] = g.lo[d] + k * e[d];
                let got = g.wrap_position(pos);
                for dd in 0..3 {
                    let want = g.lo[dd] + (pos[dd] - g.lo[dd]).rem_euclid(e[dd]);
                    assert_eq!(
                        got[dd].to_bits(),
                        want.to_bits(),
                        "dim {dd}, offset {k} extents (got {}, want {})",
                        got[dd],
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn dims_with_guard() {
        let g = geom();
        assert_eq!(g.dims_with_guard(), [12, 12, 12]);
        assert_eq!(g.total_cells(), 512);
    }
}
