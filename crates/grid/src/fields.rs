//! The electromagnetic field state: E, B and J arrays with guard cells.
//!
//! All nine arrays share the guarded node dimensions; Yee staggering
//! (Ex at (i+1/2, j, k), Bx at (i, j+1/2, k+1/2), J co-located with E)
//! is carried in the interpretation of the indices, as is conventional in
//! guard-cell PIC codes. Guard exchange is the one operation a
//! single-rank periodic run needs: mirroring interior field values into
//! the guards for gather and stencil sweeps (deposits wrap into the
//! interior node by node, so no current ever lands in a guard).

use crate::array3::Array3;
use crate::geometry::GridGeometry;
use mpic_machine::Exec;

/// The full field state on one patch.
#[derive(Debug, Clone)]
pub struct FieldArrays {
    /// Electric field components.
    pub ex: Array3,
    /// Electric field components.
    pub ey: Array3,
    /// Electric field components.
    pub ez: Array3,
    /// Magnetic field components.
    pub bx: Array3,
    /// Magnetic field components.
    pub by: Array3,
    /// Magnetic field components.
    pub bz: Array3,
    /// Current density components.
    pub jx: Array3,
    /// Current density components.
    pub jy: Array3,
    /// Current density components.
    pub jz: Array3,
    guard: usize,
    n_cells: [usize; 3],
}

impl FieldArrays {
    /// Allocates zeroed fields for a geometry.
    pub fn new(geom: &GridGeometry) -> Self {
        let [nx, ny, nz] = geom.dims_with_guard();
        let mk = || Array3::zeros(nx, ny, nz);
        Self {
            ex: mk(),
            ey: mk(),
            ez: mk(),
            bx: mk(),
            by: mk(),
            bz: mk(),
            jx: mk(),
            jy: mk(),
            jz: mk(),
            guard: geom.guard,
            n_cells: geom.n_cells,
        }
    }

    /// Guard width.
    pub fn guard(&self) -> usize {
        self.guard
    }

    /// Zeroes the current arrays (start of every deposition).
    pub fn clear_currents(&mut self) {
        self.jx.fill(0.0);
        self.jy.fill(0.0);
        self.jz.fill(0.0);
    }

    /// Copies interior values into guard cells periodically for the six
    /// E/B components. Call after every field solve.
    ///
    /// Every guard cell receives the interior cell it wraps onto, by
    /// whole-line copies per component: the x guards of each interior
    /// row, then the y guard rows of each interior plane, then the z
    /// guard planes (`fill_component`). The interior is never scanned.
    ///
    /// The six components are sharded across the worker pool, and the
    /// fill is bit-identical for any worker count: a component's fill
    /// touches only that component's array. The declared work is the
    /// guard cells written, so the exec layer runs small shells inline.
    pub fn fill_guards_periodic_exec(&mut self, exec: Exec<'_>) {
        let (g, n) = (self.guard, self.n_cells);
        let shell = self.ex.len() - n[0] * n[1] * n[2];
        let mut comps = self.eb_components_mut();
        exec.with_work(6 * shell)
            .for_each(&mut comps, |_, arr| fill_component(arr, g, n));
    }

    /// The six E/B component arrays, in canonical order.
    fn eb_components_mut(&mut self) -> [&mut Array3; 6] {
        [
            &mut self.ex,
            &mut self.ey,
            &mut self.ez,
            &mut self.bx,
            &mut self.by,
            &mut self.bz,
        ]
    }

    /// Total electromagnetic field energy, using `eps0/2 E^2 + 1/(2 mu0)
    /// B^2` summed over interior nodes times the cell volume.
    pub fn field_energy(&self, geom: &GridGeometry) -> f64 {
        let g = self.guard;
        let n = self.n_cells;
        let [sx, sy, _] = self.ex.shape();
        let [ex, ey, ez, bx, by, bz] =
            [&self.ex, &self.ey, &self.ez, &self.bx, &self.by, &self.bz].map(Array3::as_slice);
        let mut e2 = 0.0;
        let mut b2 = 0.0;
        for k in g..g + n[2] {
            for j in g..g + n[1] {
                // One running sum per quantity, cell after cell along the
                // row: the result is order-dependent and pinned bitwise.
                let at = (k * sy + j) * sx + g;
                for c in at..at + n[0] {
                    e2 += ex[c].powi(2) + ey[c].powi(2) + ez[c].powi(2);
                    b2 += bx[c].powi(2) + by[c].powi(2) + bz[c].powi(2);
                }
            }
        }
        let vol = geom.cell_volume();
        0.5 * crate::constants::EPS0 * e2 * vol + 0.5 / crate::constants::MU0 * b2 * vol
    }

    /// Shifts all nine field arrays one plane towards -z (moving window).
    ///
    /// The nine component shifts are sharded across the worker pool.
    /// Trivially bit-identical for any worker count: each array's shift
    /// touches only that array.
    pub fn shift_window_z_exec(&mut self, exec: Exec<'_>) {
        let mut comps: [&mut Array3; 9] = [
            &mut self.ex,
            &mut self.ey,
            &mut self.ez,
            &mut self.bx,
            &mut self.by,
            &mut self.bz,
            &mut self.jx,
            &mut self.jy,
            &mut self.jz,
        ];
        exec.for_each(&mut comps, |_, arr| arr.shift_down_z());
    }
}

/// Fills the guard shell of one component from its periodic interior
/// (`n` cells behind `g` guard layers per axis).
///
/// Three passes of whole-line copies, each reading only cells that are
/// interior or already filled: the `2 g` x-guard cells of every interior
/// row; then, per interior plane, the y-guard rows (whole rows, x guards
/// included); then the z-guard planes (whole planes). A guard cell thus
/// ends up with the interior value at its wrapped `(i, j, k)` whatever
/// the relation of `g` to `n`.
fn fill_component(arr: &mut Array3, g: usize, n: [usize; 3]) {
    let [sx, sy, _] = arr.shape();
    let plane = sx * sy;
    let data = arr.as_mut_slice();
    for p in data[g * plane..(g + n[2]) * plane].chunks_exact_mut(plane) {
        for row in p[g * sx..(g + n[1]) * sx].chunks_exact_mut(sx) {
            // `extend_periodic` cell by cell: a `copy_within` call per
            // row end would cost more than the `g` cells it moves.
            for i in (0..g).rev() {
                row[i] = row[i + n[0]];
            }
            for i in g + n[0]..sx {
                row[i] = row[i - n[0]];
            }
        }
        extend_periodic(p, sx, g, n[1]);
    }
    extend_periodic(data, plane, g, n[2]);
}

/// Extends the `n` periodic items at `[g, g + n)` of `line` — each item
/// `unit` contiguous values — into the `g` guard items on either side.
///
/// The low guard is filled downwards and the high guard upwards in
/// blocks of at most one period, so a block's source (one period away)
/// is interior or an already-filled guard block: item `v` receives item
/// `g + (v - g) mod n` with no division, also when `g > n`.
fn extend_periodic(line: &mut [f64], unit: usize, g: usize, n: usize) {
    let mut lo = g;
    while lo > 0 {
        let c = lo.min(n);
        lo -= c;
        line.copy_within((lo + n) * unit..(lo + n + c) * unit, lo * unit);
    }
    let (mut hi, end) = (g + n, n + 2 * g);
    while hi < end {
        let c = (end - hi).min(n);
        line.copy_within((hi - n) * unit..(hi - n + c) * unit, hi * unit);
        hi += c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpic_machine::{SchedulerPolicy, WorkerPool};

    fn geom() -> GridGeometry {
        GridGeometry::new([4, 4, 4], [0.0; 3], [1.0; 3], 2)
    }

    #[test]
    fn arrays_have_guarded_dims() {
        let f = FieldArrays::new(&geom());
        assert_eq!(f.ex.shape(), [8, 8, 8]);
    }

    #[test]
    fn fill_guards_mirrors_interior() {
        let g = geom();
        let pool = WorkerPool::sequential();
        let exec = pool.exec(SchedulerPolicy::Static);
        let mut f = FieldArrays::new(&g);
        f.ex.set(2, 2, 2, 7.0); // Interior cell (0,0,0).
        f.fill_guards_periodic_exec(exec);
        // Guard cell at (6, 2, 2) wraps to interior (2,2,2)? 6-2=4 -> wraps
        // to 0 -> interior index 2. Yes.
        assert_eq!(f.ex.get(6, 2, 2), 7.0);
    }

    /// Fills every element of the six E/B arrays from a fixed LCG stream.
    fn randomise(f: &mut FieldArrays, seed: u64) {
        let mut state = seed;
        for arr in f.eb_components_mut() {
            for v in arr.as_mut_slice() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            }
        }
    }

    /// The guard fill one cell at a time: every non-interior cell copies
    /// the interior cell `wrap` maps each of its coordinates to.
    fn fill_cell_by_cell(f: &mut FieldArrays, wrap: fn(usize, usize, usize) -> usize) {
        let (g, n) = (f.guard, f.n_cells);
        for arr in f.eb_components_mut() {
            let [sx, sy, sz] = arr.shape();
            for k in 0..sz {
                for j in 0..sy {
                    for i in 0..sx {
                        let (wi, wj, wk) = (wrap(i, g, n[0]), wrap(j, g, n[1]), wrap(k, g, n[2]));
                        if (wi, wj, wk) != (i, j, k) {
                            let v = arr.get(wi, wj, wk);
                            arr.set(i, j, k, v);
                        }
                    }
                }
            }
        }
    }

    fn wrap_modulo(v: usize, g: usize, n: usize) -> usize {
        ((v as i64 - g as i64).rem_euclid(n as i64)) as usize + g
    }

    /// Mutant: one period's shift, which is the modulo only while `g <= n`.
    fn wrap_one_period(v: usize, g: usize, n: usize) -> usize {
        if v < g {
            v + n
        } else if v >= g + n {
            v - n
        } else {
            v
        }
    }

    /// The row/plane copies leave every guard cell equal to its wrapped
    /// interior cell, as a cell-by-cell `rem_euclid` fill does — for
    /// guards wider than the interior too — on 1 worker and sharded.
    #[test]
    fn conf_guard_fill_rows_match_cell_wrap() {
        let shapes = [
            ([1, 1, 1], 2),
            ([1, 3, 2], 2),
            ([3, 1, 5], 3),
            ([4, 4, 4], 2),
            ([5, 3, 7], 1),
            ([33, 2, 3], 2),
            // Large enough for the pooled path (6 * shell >= threshold).
            ([24, 20, 16], 2),
        ];
        for (case, (n, g)) in shapes.into_iter().enumerate() {
            let geom = GridGeometry::new(n, [0.0; 3], [1.0; 3], g);
            let mut base = FieldArrays::new(&geom);
            randomise(&mut base, 0x9e37_79b9 + case as u64);
            let mut want = base.clone();
            fill_cell_by_cell(&mut want, wrap_modulo);
            for workers in [1usize, 3] {
                let pool = WorkerPool::new(workers);
                let mut got = base.clone();
                got.fill_guards_periodic_exec(pool.exec(SchedulerPolicy::Static));
                assert!(eb_equal(&got, &want), "n {n:?} g {g}: {workers} workers");
            }
            let mut mutant = base.clone();
            fill_cell_by_cell(&mut mutant, wrap_one_period);
            let needs_modulo = n.iter().any(|&nd| g > nd);
            assert_eq!(
                !eb_equal(&mutant, &want),
                needs_modulo,
                "n {n:?} g {g}: mutant"
            );
        }
    }

    fn eb_equal(a: &FieldArrays, b: &FieldArrays) -> bool {
        let bits = |f: &FieldArrays| -> Vec<u64> {
            [&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz]
                .iter()
                .flat_map(|arr| arr.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        bits(a) == bits(b)
    }

    #[test]
    fn clear_currents_only_touches_j() {
        let g = geom();
        let mut f = FieldArrays::new(&g);
        f.ex.set(1, 1, 1, 5.0);
        f.jx.set(1, 1, 1, 5.0);
        f.clear_currents();
        assert_eq!(f.ex.get(1, 1, 1), 5.0);
        assert_eq!(f.jx.get(1, 1, 1), 0.0);
    }

    #[test]
    fn field_energy_positive_and_scales() {
        let g = geom();
        let mut f = FieldArrays::new(&g);
        f.ez.set(3, 3, 3, 2.0);
        let e1 = f.field_energy(&g);
        assert!(e1 > 0.0);
        f.ez.set(3, 3, 3, 4.0);
        let e2 = f.field_energy(&g);
        assert!((e2 / e1 - 4.0).abs() < 1e-12, "energy ~ E^2");
    }

    /// The row-slice sum is the per-cell triple loop's sum, bit for bit.
    #[test]
    fn field_energy_matches_cell_loop_bitwise() {
        for (n, guard) in [([5, 3, 7], 1), ([13, 4, 2], 2), ([33, 2, 3], 2)] {
            let geom = GridGeometry::new(n, [0.0; 3], [0.5e-6, 0.5e-6, 0.25e-6], guard);
            let mut f = FieldArrays::new(&geom);
            randomise(&mut f, 0x5eed);
            let (mut e2, mut b2) = (0.0, 0.0);
            for k in guard..guard + n[2] {
                for j in guard..guard + n[1] {
                    for i in guard..guard + n[0] {
                        e2 += f.ex.get(i, j, k).powi(2)
                            + f.ey.get(i, j, k).powi(2)
                            + f.ez.get(i, j, k).powi(2);
                        b2 += f.bx.get(i, j, k).powi(2)
                            + f.by.get(i, j, k).powi(2)
                            + f.bz.get(i, j, k).powi(2);
                    }
                }
            }
            let vol = geom.cell_volume();
            let want =
                0.5 * crate::constants::EPS0 * e2 * vol + 0.5 / crate::constants::MU0 * b2 * vol;
            assert_eq!(f.field_energy(&geom).to_bits(), want.to_bits(), "{n:?}");
        }
    }

    #[test]
    fn window_shift_moves_all_components() {
        let g = geom();
        let pool = WorkerPool::sequential();
        let exec = pool.exec(SchedulerPolicy::Static);
        let mut f = FieldArrays::new(&g);
        f.bz.set(0, 0, 1, 9.0);
        f.shift_window_z_exec(exec);
        assert_eq!(f.bz.get(0, 0, 0), 9.0);
        assert_eq!(f.bz.get(0, 0, 1), 0.0);
    }
}
