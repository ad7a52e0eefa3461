//! Field boundary conditions.
//!
//! The paper's two workloads need: fully periodic boundaries (uniform
//! plasma — handled by the guard exchange in `mpic-grid`), and the LWFA
//! configuration of Table 4: periodic in x/y with PEC + PML along z. The
//! PML is implemented as a graded conductivity damping layer (a standard
//! "pseudo-PML" / masked absorber): each step, field values inside the
//! layer are multiplied by a damping profile that rises polynomially
//! towards the boundary. This absorbs the laser and wake radiation well
//! enough for the performance study, which is what the reproduction
//! needs (the paper does not evaluate absorber quality).

use mpic_grid::{FieldArrays, GridGeometry};

/// Which boundary treatment a simulation applies along z.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryKind {
    /// Fully periodic (uniform plasma workload).
    Periodic,
    /// Absorbing damping layers at both z ends (LWFA workload).
    AbsorbingZ,
}

/// Graded damping layer applied near the z boundaries.
#[derive(Debug, Clone)]
pub struct AbsorbingLayer {
    /// Layer thickness in cells.
    pub thickness: usize,
    /// Peak damping strength per step at the outermost cell (0..1).
    pub strength: f64,
    /// Grading exponent (2-4 typical; higher concentrates damping).
    pub exponent: f64,
}

impl Default for AbsorbingLayer {
    fn default() -> Self {
        Self {
            thickness: 8,
            strength: 0.5,
            exponent: 3.0,
        }
    }
}

impl AbsorbingLayer {
    /// Damping multiplier for a cell `depth` cells inside the layer
    /// (depth 0 = outermost). Returns 1.0 outside the layer.
    pub fn factor(&self, depth: usize) -> f64 {
        if depth >= self.thickness {
            return 1.0;
        }
        let xi = 1.0 - depth as f64 / self.thickness as f64;
        1.0 - self.strength * xi.powf(self.exponent)
    }

    /// Applies the damping to all six field components in the z layers.
    ///
    /// Runs on the calling thread in a fixed plane order: this is part of
    /// the solver's fixed-order boundary/source pass, so field state
    /// after a step is independent of how the stencil sweeps were
    /// sharded.
    pub fn apply(&self, geom: &GridGeometry, f: &mut FieldArrays) {
        let g = geom.guard;
        let n = geom.n_cells;
        let [sx, sy, _] = f.ex.shape();
        let plane = sx * sy;
        for depth in 0..self.thickness.min(n[2]) {
            let fac = self.factor(depth);
            if fac >= 1.0 {
                continue;
            }
            for kk in [g + depth, g + n[2] - 1 - depth] {
                for arr in [
                    &mut f.ex, &mut f.ey, &mut f.ez, &mut f.bx, &mut f.by, &mut f.bz,
                ] {
                    for v in &mut arr.as_mut_slice()[kk * plane..(kk + 1) * plane] {
                        *v *= fac;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_grades_inward() {
        let l = AbsorbingLayer::default();
        assert!(l.factor(0) < l.factor(4));
        assert!(l.factor(0) >= 1.0 - l.strength - 1e-12);
        assert_eq!(l.factor(8), 1.0);
        assert_eq!(l.factor(100), 1.0);
    }

    #[test]
    fn apply_damps_boundary_not_centre() {
        let geom = GridGeometry::new([4, 4, 32], [0.0; 3], [1.0; 3], 2);
        let mut f = FieldArrays::new(&geom);
        f.ex.fill(1.0);
        let layer = AbsorbingLayer::default();
        layer.apply(&geom, &mut f);
        let g = geom.guard;
        assert!(f.ex.get(2, 2, g) < 1.0, "outermost plane damped");
        assert!(f.ex.get(2, 2, g + 31) < 1.0, "far plane damped");
        assert_eq!(f.ex.get(2, 2, g + 16), 1.0, "centre untouched");
    }

    #[test]
    fn repeated_application_converges_to_zero() {
        let geom = GridGeometry::new([2, 2, 16], [0.0; 3], [1.0; 3], 1);
        let mut f = FieldArrays::new(&geom);
        f.ez.fill(1.0);
        let layer = AbsorbingLayer::default();
        for _ in 0..200 {
            layer.apply(&geom, &mut f);
        }
        let g = geom.guard;
        assert!(f.ez.get(0, 0, g).abs() < 1e-10);
    }
}
