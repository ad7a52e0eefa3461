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

/// Damping layer thickness in cells at each z end.
pub const ABSORBER_CELLS: usize = 8;
/// Peak damping strength per step at the outermost cell (0..1).
pub const ABSORBER_STRENGTH: f64 = 0.5;
/// Grading exponent (2-4 typical; higher concentrates damping).
pub const ABSORBER_EXPONENT: f64 = 3.0;

/// Damping multiplier for a cell `depth` cells inside the layer
/// (depth 0 = outermost). Returns 1.0 outside the layer.
pub fn absorber_factor(depth: usize) -> f64 {
    if depth >= ABSORBER_CELLS {
        return 1.0;
    }
    let xi = 1.0 - depth as f64 / ABSORBER_CELLS as f64;
    1.0 - ABSORBER_STRENGTH * xi.powf(ABSORBER_EXPONENT)
}

/// Applies the damping to all six field components in the z layers.
///
/// Runs on the calling thread in a fixed plane order: this is part of
/// the solver's fixed-order boundary/source pass, so field state after a
/// step is independent of how the stencil sweeps were sharded.
pub fn absorb_z(geom: &GridGeometry, f: &mut FieldArrays) {
    let g = geom.guard;
    let n = geom.n_cells;
    let [sx, sy, _] = f.ex.shape();
    let plane = sx * sy;
    for depth in 0..ABSORBER_CELLS.min(n[2]) {
        let fac = absorber_factor(depth);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_grades_inward() {
        assert!(absorber_factor(0) < absorber_factor(4));
        assert!(absorber_factor(0) >= 1.0 - ABSORBER_STRENGTH - 1e-12);
        assert_eq!(absorber_factor(8), 1.0);
        assert_eq!(absorber_factor(100), 1.0);
    }

    #[test]
    fn apply_damps_boundary_not_centre() {
        let geom = GridGeometry::new([4, 4, 32], [0.0; 3], [1.0; 3], 2);
        let mut f = FieldArrays::new(&geom);
        f.ex.fill(1.0);
        absorb_z(&geom, &mut f);
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
        for _ in 0..200 {
            absorb_z(&geom, &mut f);
        }
        let g = geom.guard;
        assert!(f.ez.get(0, 0, g).abs() < 1e-10);
    }
}
