//! Yee and CKC finite-difference Maxwell solvers on the guarded grid.
//!
//! Fields follow the conventional Yee staggering (Ex at (i+1/2, j, k),
//! Bx at (i, j+1/2, k+1/2), J co-located with E); arrays share nodal
//! dimensions with staggering carried by interpretation, as is usual in
//! guard-cell PIC codes. One step performs the leapfrog
//!
//! ```text
//! B -= dt/2 curl E;   E += dt (c^2 curl B - J/eps0);   B -= dt/2 curl E
//! ```
//!
//! The CKC solver replaces the transverse differences in the E update
//! with Cowan's smoothed stencil (coefficients beta = 1/8 *
//! (dx_d/dx_t)^2), which moves the numerical light cone onto the grid
//! diagonal and is stable at CFL = 1 on cubic cells — the configuration
//! the paper runs.

use mpic_grid::constants::{C, EPS0};
use mpic_grid::{Array3, FieldArrays, GridGeometry};
use mpic_machine::{Exec, Machine, Phase};

/// Which curl discretisation the E update uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Classic second-order Yee.
    Yee,
    /// Cole-Karkkainen-Cowan extended stencil (WarpX `ckc`).
    Ckc,
}

/// The FDTD field solver.
#[derive(Debug, Clone)]
pub struct MaxwellSolver {
    kind: SolverKind,
    /// CKC transverse smoothing weights: `beta[d][t]` smooths the
    /// difference along `d` with neighbours displaced along `t`.
    beta: [[f64; 3]; 3],
    alpha: [f64; 3],
}

impl MaxwellSolver {
    /// Builds a solver for the geometry.
    pub fn new(kind: SolverKind, geom: &GridGeometry) -> Self {
        let mut beta = [[0.0; 3]; 3];
        let mut alpha = [1.0; 3];
        if kind == SolverKind::Ckc {
            for d in 0..3 {
                let mut a = 1.0;
                for t in 0..3 {
                    if t == d {
                        continue;
                    }
                    let r = geom.dx[d] / geom.dx[t];
                    beta[d][t] = 0.125 * r * r;
                    a -= 2.0 * beta[d][t];
                }
                alpha[d] = a;
            }
        }
        Self { kind, beta, alpha }
    }

    /// Solver kind.
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// Maximum stable timestep: the Yee limit `1/(c sqrt(sum 1/dx^2))`,
    /// or CKC's extended limit `min(dx)/c` (the "magic timestep" that
    /// lets the paper run `warpx.cfl = 1.0` on cubic cells).
    pub fn max_dt(&self, geom: &GridGeometry) -> f64 {
        match self.kind {
            SolverKind::Yee => geom.cfl_dt(1.0),
            SolverKind::Ckc => geom.dx.iter().cloned().fold(f64::INFINITY, f64::min) / C,
        }
    }

    /// Advances fields by one step given the deposited current; charges
    /// the sweep to [`Phase::FieldSolve`].
    ///
    /// Each of the three stencil sweeps is sharded across the worker
    /// pool by Z-slab decomposition, and each guard exchange by component.
    ///
    /// Every cell update reads only the *previous* half-step's arrays and
    /// writes its own cell exactly once, so slab workers touch disjoint
    /// output planes and the fields are bit-identical for any worker
    /// count. The emulated cost charge runs on the
    /// calling thread in fixed order (the caller's laser/absorber pass
    /// stays fixed-order too), so the per-phase cycle totals are
    /// worker-count independent as well.
    pub fn step_sharded(
        &self,
        m: &mut Machine,
        geom: &GridGeometry,
        f: &mut FieldArrays,
        dt: f64,
        exec: Exec<'_>,
    ) {
        m.in_phase(Phase::FieldSolve, |m| {
            self.push_b(geom, f, 0.5 * dt, exec);
            f.fill_guards_periodic_exec(exec);
            self.push_e(geom, f, dt, exec);
            f.fill_guards_periodic_exec(exec);
            self.push_b(geom, f, 0.5 * dt, exec);
            f.fill_guards_periodic_exec(exec);
            // Cost: ~36 FLOPs/cell/update x 2.5 sweeps, vectorised and
            // streaming (memory-bound stencil).
            let cells = geom.total_cells();
            m.v_ops(cells / 2);
            m.record_flops(90.0 * cells as f64);
        });
    }

    /// B update: `B -= dt curl E` (Faraday), sharded over Z slabs and
    /// evaluated one contiguous x-row at a time.
    fn push_b(&self, geom: &GridGeometry, f: &mut FieldArrays, dt: f64, exec: Exec<'_>) {
        let g = geom.guard;
        let [n0, n1, _] = geom.n_cells;
        let [dx, dy, dz] = geom.dx;
        let FieldArrays {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
            ..
        } = f;
        let [sx, sy, _] = ex.shape();
        let plane = sx * sy;
        let (ex, ey, ez) = (ex.as_slice(), ey.as_slice(), ez.as_slice());
        for_each_z_slab(
            geom,
            exec,
            [bx, by, bz],
            move |(k0, k1), [sbx, sby, sbz]| {
                for k in k0..k1 {
                    for j in g..g + n1 {
                        let at = (k * sy + j) * sx + g;
                        let out = at - k0 * plane..at - k0 * plane + n0;
                        // Each term: (array, forward stride, cell size).
                        let (x, y, z) = ((1, dx), (sx, dy), (plane, dz));
                        add_curl_row(&mut sbx[out.clone()], -dt, at, (ez, y), (ey, z));
                        add_curl_row(&mut sby[out.clone()], -dt, at, (ex, z), (ez, x));
                        add_curl_row(&mut sbz[out], -dt, at, (ey, x), (ex, y));
                    }
                }
            },
        );
    }

    /// The backward difference along `axis` with everything the row loop
    /// would otherwise re-derive per cell resolved once per sweep.
    fn back_diff(&self, axis: usize, strides: [usize; 3], dx: [f64; 3]) -> BackDiff {
        let [t0, t1] = match axis {
            0 => [1, 2],
            1 => [0, 2],
            _ => [0, 1],
        };
        BackDiff {
            kind: self.kind,
            stride: strides[axis],
            inv_d: 1.0 / dx[axis],
            alpha: self.alpha[axis],
            taps: [
                (self.beta[axis][t0], strides[t0]),
                (self.beta[axis][t1], strides[t1]),
            ],
        }
    }

    /// E update: `E += dt (c^2 curl B - J / eps0)` (Ampere-Maxwell),
    /// sharded over Z slabs. Curls read B, current reads J, writes go to
    /// E — slab-disjoint. Each x-row is differenced in blocks of at most
    /// [`ROW_BLOCK`] cells into two stack rows, then folded into E.
    fn push_e(&self, geom: &GridGeometry, f: &mut FieldArrays, dt: f64, exec: Exec<'_>) {
        let g = geom.guard;
        let [n0, n1, _] = geom.n_cells;
        let dtc2 = dt * (C * C);
        let je = dt / EPS0;
        let FieldArrays {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
            jx,
            jy,
            jz,
            ..
        } = f;
        let [sx, sy, _] = bx.shape();
        let plane = sx * sy;
        let diff: [BackDiff; 3] =
            std::array::from_fn(|axis| self.back_diff(axis, [1, sx, plane], geom.dx));
        let (bx, by, bz) = (bx.as_slice(), by.as_slice(), bz.as_slice());
        let (jx, jy, jz) = (jx.as_slice(), jy.as_slice(), jz.as_slice());
        for_each_z_slab(
            geom,
            exec,
            [ex, ey, ez],
            move |(k0, k1), [sex, sey, sez]| {
                let (mut da, mut db) = ([0.0; ROW_BLOCK], [0.0; ROW_BLOCK]);
                for k in k0..k1 {
                    for j in g..g + n1 {
                        for x0 in (0..n0).step_by(ROW_BLOCK) {
                            let w = (n0 - x0).min(ROW_BLOCK);
                            let at = (k * sy + j) * sx + g + x0;
                            let out = at - k0 * plane;
                            let (da, db) = (&mut da[..w], &mut db[..w]);
                            // E component, its curl as (array, axis) minus
                            // (array, axis), and its current.
                            for (e, (pa, a), (pb, b), cur) in [
                                (&mut *sex, (bz, 1), (by, 2), jx),
                                (&mut *sey, (bx, 2), (bz, 0), jy),
                                (&mut *sez, (by, 0), (bx, 1), jz),
                            ] {
                                diff[a].row(pa, at, da);
                                diff[b].row(pb, at, db);
                                let e = &mut e[out..out + w];
                                add_ampere_row(e, dtc2, da, db, je, &cur[at..at + w]);
                            }
                        }
                    }
                }
            },
        );
    }
}

/// Widest stretch of an x-row the E update differences at once: its two
/// difference rows are stack arrays (2 x 2 KiB), wider rows go in blocks.
const ROW_BLOCK: usize = 256;

/// One axis' backward difference, optionally CKC-smoothed transversally:
/// the axis stride, `1 / d`, the centre weight and the two transverse
/// taps `(beta, stride)` in ascending axis order.
struct BackDiff {
    kind: SolverKind,
    stride: usize,
    inv_d: f64,
    alpha: f64,
    taps: [(f64, usize); 2],
}

impl BackDiff {
    /// Differences the `out.len()` cells of `arr` starting at flat index
    /// `at`. Per cell this is the expression tree of the per-cell form
    /// (`reference::diff_back`), with the loops over taps and cells
    /// interchanged: `alpha d0`, then per live tap the `-1` and the `+1`
    /// neighbour, then `* inv_d`.
    fn row(&self, arr: &[f64], at: usize, out: &mut [f64]) {
        let n = out.len();
        let pair = |c: usize| (&arr[c..c + n], &arr[c - self.stride..c - self.stride + n]);
        let (hi, lo) = pair(at);
        match self.kind {
            SolverKind::Yee => {
                for x in 0..n {
                    out[x] = (hi[x] - lo[x]) * self.inv_d;
                }
            }
            SolverKind::Ckc => {
                for x in 0..n {
                    out[x] = self.alpha * (hi[x] - lo[x]);
                }
                for (beta, st) in self.taps {
                    if beta == 0.0 {
                        continue;
                    }
                    for c in [at - st, at + st] {
                        let (hi, lo) = pair(c);
                        for x in 0..n {
                            out[x] += beta * (hi[x] - lo[x]);
                        }
                    }
                }
                for v in out {
                    *v *= self.inv_d;
                }
            }
        }
    }
}

/// `out += coef * (d(a) / da - d(b) / db)` over the `out.len()` cells from
/// flat index `at`, where `d(p)` is the forward difference of array `p`
/// along the axis with stride `sp` and cell size `dp`: one component of
/// the Faraday update over one x-row. The divisions stay divisions.
fn add_curl_row(
    out: &mut [f64],
    coef: f64,
    at: usize,
    (a, (sa, da)): (&[f64], (usize, f64)),
    (b, (sb, db)): (&[f64], (usize, f64)),
) {
    let n = out.len();
    let (a_hi, a_lo) = (&a[at + sa..at + sa + n], &a[at..at + n]);
    let (b_hi, b_lo) = (&b[at + sb..at + sb + n], &b[at..at + n]);
    for x in 0..n {
        out[x] += coef * ((a_hi[x] - a_lo[x]) / da - (b_hi[x] - b_lo[x]) / db);
    }
}

/// `e += dtc2 * (da - db) - je * cur`, cell by cell: one component of
/// the Ampere-Maxwell update over one block of an x-row.
fn add_ampere_row(e: &mut [f64], dtc2: f64, da: &[f64], db: &[f64], je: f64, cur: &[f64]) {
    let n = e.len();
    let (da, db, cur) = (&da[..n], &db[..n], &cur[..n]);
    for x in 0..n {
        e[x] += dtc2 * (da[x] - db[x]) - je * cur[x];
    }
}

/// Elements per z plane of a guarded array.
#[inline]
fn plane_len(arr: &Array3) -> usize {
    let [sx, sy, _] = arr.shape();
    sx * sy
}

/// One Z-slab work item: the slab's guarded-k bounds plus the three
/// output arrays' mutable plane slices for exactly those planes.
type SlabItem<'a> = ((usize, usize), [&'a mut [f64]; 3]);

/// Runs `body` once per Z slab of the *physical* cell range, handing each
/// invocation the slab's guarded-k bounds `(k0, k1)` and the three output
/// arrays' mutable plane slices for exactly those planes.
///
/// Slab bounds come from [`mpic_machine::shard_bounds`] — the same
/// contiguous chunk scheme as every other statically sharded phase —
/// offset by the guard; the slab items are dispatched onto the
/// persistent worker pool by its claim rule. Because each output cell
/// is written by exactly one slab and all stencil reads go to shared
/// immutable arrays, results are bit-identical for any worker count.
fn for_each_z_slab<F>(geom: &GridGeometry, exec: Exec<'_>, out: [&mut Array3; 3], body: F)
where
    F: Fn((usize, usize), [&mut [f64]; 3]) + Sync,
{
    let g = geom.guard;
    let nz = geom.n_cells[2];
    let plane = plane_len(out[0]);
    let bounds = mpic_machine::shard_bounds(nz, exec.workers());
    // Peel each array into per-slab mutable plane slices, in order.
    let mut rest = out.map(Array3::as_mut_slice);
    let mut consumed = 0;
    let mut items: Vec<SlabItem<'_>> = Vec::with_capacity(bounds.len());
    for &(z0, z1) in &bounds {
        let (k0, k1) = (g + z0, g + z1);
        let slabs = rest.each_mut().map(|r| {
            let (_, tail) = std::mem::take(r).split_at_mut(k0 * plane - consumed);
            let (slab, tail) = tail.split_at_mut((k1 - k0) * plane);
            *r = tail;
            slab
        });
        consumed = k1 * plane;
        items.push(((k0, k1), slabs));
    }
    exec.for_each(&mut items, |_, (range, [s0, s1, s2])| {
        body(*range, [&mut **s0, &mut **s1, &mut **s2]);
    });
}

/// The per-cell, `get`-indexed form of the two sweeps that the row
/// kernels replaced: what `conf_solver_rows_match_reference_bitwise`
/// holds them to, and — through [`reference::Mutant`] — the near misses
/// that test must tell apart.
#[cfg(test)]
mod reference {
    use super::*;

    /// A deliberate one-rounding deviation from the reference.
    #[derive(Clone, Copy)]
    pub enum Mutant {
        None,
        /// Faraday multiplies by `1 / d` instead of dividing by `d`.
        Reciprocal,
        /// CKC adds the `+1` transverse neighbour before the `-1` one.
        PlusTapFirst,
    }

    /// `B -= dt/2 curl E; E += ...; B -= dt/2 curl E` with guard fills,
    /// as `MaxwellSolver::step_sharded` sequences it.
    pub fn step(
        s: &MaxwellSolver,
        geom: &GridGeometry,
        f: &mut FieldArrays,
        dt: f64,
        m: Mutant,
        exec: Exec<'_>,
    ) {
        push_b(geom, f, 0.5 * dt, m);
        f.fill_guards_periodic_exec(exec);
        push_e(s, geom, f, dt, m);
        f.fill_guards_periodic_exec(exec);
        push_b(geom, f, 0.5 * dt, m);
        f.fill_guards_periodic_exec(exec);
    }

    fn push_b(geom: &GridGeometry, f: &mut FieldArrays, dt: f64, m: Mutant) {
        let g = geom.guard;
        let n = geom.n_cells;
        let [dx, dy, dz] = geom.dx;
        let div = |v: f64, d: f64| match m {
            Mutant::Reciprocal => v * (1.0 / d),
            _ => v / d,
        };
        let (ex, ey, ez) = (&f.ex, &f.ey, &f.ez);
        for k in g..g + n[2] {
            for j in g..g + n[1] {
                for i in g..g + n[0] {
                    let curl_x = div(ez.get(i, j + 1, k) - ez.get(i, j, k), dy)
                        - div(ey.get(i, j, k + 1) - ey.get(i, j, k), dz);
                    let curl_y = div(ex.get(i, j, k + 1) - ex.get(i, j, k), dz)
                        - div(ez.get(i + 1, j, k) - ez.get(i, j, k), dx);
                    let curl_z = div(ey.get(i + 1, j, k) - ey.get(i, j, k), dx)
                        - div(ex.get(i, j + 1, k) - ex.get(i, j, k), dy);
                    f.bx.add(i, j, k, -dt * curl_x);
                    f.by.add(i, j, k, -dt * curl_y);
                    f.bz.add(i, j, k, -dt * curl_z);
                }
            }
        }
    }

    /// Backward difference of `arr` along `axis` at (i, j, k), optionally
    /// CKC-smoothed transversally.
    fn diff_back(
        s: &MaxwellSolver,
        arr: &Array3,
        [i, j, k]: [usize; 3],
        axis: usize,
        inv_d: f64,
        m: Mutant,
    ) -> f64 {
        let shift = |i: usize, j: usize, k: usize, ax: usize, by: i64| -> (usize, usize, usize) {
            let mut c = [i as i64, j as i64, k as i64];
            c[ax] += by;
            (c[0] as usize, c[1] as usize, c[2] as usize)
        };
        let d0 = {
            let (pi, pj, pk) = shift(i, j, k, axis, -1);
            arr.get(i, j, k) - arr.get(pi, pj, pk)
        };
        match s.kind {
            SolverKind::Yee => d0 * inv_d,
            SolverKind::Ckc => {
                let mut acc = s.alpha[axis] * d0;
                for t in 0..3 {
                    if t == axis || s.beta[axis][t] == 0.0 {
                        continue;
                    }
                    let signs = match m {
                        Mutant::PlusTapFirst => [1i64, -1],
                        _ => [-1, 1],
                    };
                    for sg in signs {
                        let (si, sj, sk) = shift(i, j, k, t, sg);
                        let (pi, pj, pk) = shift(si, sj, sk, axis, -1);
                        acc += s.beta[axis][t] * (arr.get(si, sj, sk) - arr.get(pi, pj, pk));
                    }
                }
                acc * inv_d
            }
        }
    }

    fn push_e(s: &MaxwellSolver, geom: &GridGeometry, f: &mut FieldArrays, dt: f64, m: Mutant) {
        let g = geom.guard;
        let n = geom.n_cells;
        let [dx, dy, dz] = geom.dx;
        let c2 = C * C;
        let je = dt / EPS0;
        let (bx, by, bz) = (&f.bx, &f.by, &f.bz);
        let d = |arr: &Array3, at: [usize; 3], axis: usize, inv_d: f64| {
            diff_back(s, arr, at, axis, inv_d, m)
        };
        for k in g..g + n[2] {
            for j in g..g + n[1] {
                for i in g..g + n[0] {
                    let at = [i, j, k];
                    let curl_x = d(bz, at, 1, 1.0 / dy) - d(by, at, 2, 1.0 / dz);
                    let curl_y = d(bx, at, 2, 1.0 / dz) - d(bz, at, 0, 1.0 / dx);
                    let curl_z = d(by, at, 0, 1.0 / dx) - d(bx, at, 1, 1.0 / dy);
                    f.ex.add(i, j, k, dt * c2 * curl_x - je * f.jx.get(i, j, k));
                    f.ey.add(i, j, k, dt * c2 * curl_y - je * f.jy.get(i, j, k));
                    f.ez.add(i, j, k, dt * c2 * curl_z - je * f.jz.get(i, j, k));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Mutant;
    use super::*;
    use mpic_machine::{MachineConfig, SchedulerPolicy, WorkerPool};

    fn setup(
        kind: SolverKind,
        n: usize,
        cfl: f64,
    ) -> (GridGeometry, FieldArrays, MaxwellSolver, f64) {
        let geom = GridGeometry::new([n, n, n], [0.0; 3], [1.0e-6; 3], 2);
        let fields = FieldArrays::new(&geom);
        let solver = MaxwellSolver::new(kind, &geom);
        let dt = geom.cfl_dt(cfl);
        (geom, fields, solver, dt)
    }

    /// Seeds a z-propagating plane wave Ex/By consistent with c.
    fn seed_plane_wave(geom: &GridGeometry, f: &mut FieldArrays, exec: Exec<'_>) {
        let g = geom.guard;
        let n = geom.n_cells;
        for k in 0..n[2] {
            let phase = 2.0 * std::f64::consts::PI * k as f64 / n[2] as f64;
            let e = phase.sin();
            for j in 0..n[1] {
                for i in 0..n[0] {
                    f.ex.set(i + g, j + g, k + g, e);
                    f.by.set(i + g, j + g, k + g, -e / C);
                }
            }
        }
        f.fill_guards_periodic_exec(exec);
    }

    #[test]
    fn vacuum_zero_fields_stay_zero() {
        let (geom, mut f, solver, dt) = setup(SolverKind::Yee, 8, 0.9);
        let pool = WorkerPool::sequential();
        let exec = pool.exec(SchedulerPolicy::Static);
        let mut m = Machine::new(MachineConfig::lx2());
        for _ in 0..5 {
            solver.step_sharded(&mut m, &geom, &mut f, dt, exec);
        }
        assert_eq!(f.ex.max_abs(), 0.0);
        assert_eq!(f.bz.max_abs(), 0.0);
        assert!(m.counters().cycles(Phase::FieldSolve) > 0.0);
    }

    #[test]
    fn yee_plane_wave_energy_stable() {
        let (geom, mut f, solver, dt) = setup(SolverKind::Yee, 16, 0.5);
        let pool = WorkerPool::sequential();
        let exec = pool.exec(SchedulerPolicy::Static);
        seed_plane_wave(&geom, &mut f, exec);
        let mut m = Machine::new(MachineConfig::lx2());
        let e0 = f.field_energy(&geom);
        for _ in 0..200 {
            solver.step_sharded(&mut m, &geom, &mut f, dt, exec);
        }
        let e1 = f.field_energy(&geom);
        assert!((e1 / e0 - 1.0).abs() < 0.05, "energy drifted {e0} -> {e1}");
        assert!(f.ex.max_abs() < 10.0, "unstable");
    }

    #[test]
    fn ckc_stable_at_cfl_one() {
        // CKC's limit is c dt = dx (where Yee already blew up).
        let (geom, mut f, solver, _) = setup(SolverKind::Ckc, 16, 1.0);
        let dt = solver.max_dt(&geom);
        assert!((dt - geom.dx[0] / C).abs() < 1e-20);
        let pool = WorkerPool::sequential();
        let exec = pool.exec(SchedulerPolicy::Static);
        seed_plane_wave(&geom, &mut f, exec);
        let mut m = Machine::new(MachineConfig::lx2());
        let e0 = f.field_energy(&geom);
        for _ in 0..300 {
            solver.step_sharded(&mut m, &geom, &mut f, dt, exec);
        }
        let e1 = f.field_energy(&geom);
        assert!(
            (e1 / e0 - 1.0).abs() < 0.05,
            "CKC at CFL=1 must stay stable: {e0} -> {e1}"
        );
    }

    #[test]
    fn yee_unstable_above_cfl_limit() {
        // Yee's 3-D cubic limit is 1/sqrt(3) ~ 0.577 dx/c; at dt = dx/c
        // the diagonal checkerboard mode must blow up. (A pure
        // z-propagating wave would remain marginally stable, so seed
        // full-3D alternating noise.)
        let (geom, mut f, solver, _) = setup(SolverKind::Yee, 16, 0.5);
        let pool = WorkerPool::sequential();
        let exec = pool.exec(SchedulerPolicy::Static);
        let g = geom.guard;
        for k in 0..16 {
            for j in 0..16 {
                for i in 0..16 {
                    let sign = if (i + j + k) % 2 == 0 { 1.0 } else { -1.0 };
                    f.ex.set(i + g, j + g, k + g, sign * 1e-3);
                }
            }
        }
        f.fill_guards_periodic_exec(exec);
        let dt_unstable = geom.dx[0] / C; // CFL = sqrt(3) x limit.
        let mut m = Machine::new(MachineConfig::lx2());
        for _ in 0..300 {
            solver.step_sharded(&mut m, &geom, &mut f, dt_unstable, exec);
            if f.ex.max_abs() > 1e3 {
                return; // Blew up as expected.
            }
        }
        panic!("expected instability growth, max {}", f.ex.max_abs());
    }

    #[test]
    fn sharded_step_is_bit_identical_for_any_worker_count_and_policy() {
        for kind in [SolverKind::Yee, SolverKind::Ckc] {
            let (geom, mut base, solver, dt) = setup(kind, 16, 0.5);
            let pool = WorkerPool::sequential();
            seed_plane_wave(&geom, &mut base, pool.exec(SchedulerPolicy::Static));
            base.jx.set(5, 6, 7, 3.0e3); // Current source in the mix.
            base.jz.set(9, 3, 12, -1.0e3);
            let run = |workers: usize| {
                let mut f = base.clone();
                let mut m = Machine::new(MachineConfig::lx2());
                let pool = WorkerPool::new(workers);
                for _ in 0..5 {
                    let exec = pool.exec(SchedulerPolicy::Static);
                    solver.step_sharded(&mut m, &geom, &mut f, dt, exec);
                }
                (f, m.counters().cycles(Phase::FieldSolve))
            };
            let (f1, c1) = run(1);
            for workers in [2usize, 4, 7, 16] {
                let (fw, cw) = run(workers);
                for (name, a, b) in [
                    ("ex", &f1.ex, &fw.ex),
                    ("ey", &f1.ey, &fw.ey),
                    ("ez", &f1.ez, &fw.ez),
                    ("bx", &f1.bx, &fw.bx),
                    ("by", &f1.by, &fw.by),
                    ("bz", &f1.bz, &fw.bz),
                ] {
                    assert!(
                        a.as_slice()
                            .iter()
                            .zip(b.as_slice())
                            .all(|(u, v)| u.to_bits() == v.to_bits()),
                        "{kind:?} {name}: {workers}-worker solve diverged from sequential"
                    );
                }
                assert_eq!(
                    c1.to_bits(),
                    cw.to_bits(),
                    "{kind:?} cycles diverged ({workers} workers)"
                );
            }
        }
    }

    /// Fills all nine arrays (guards included) from a fixed LCG stream.
    fn randomise(f: &mut FieldArrays, seed: u64) {
        let mut state = seed;
        let FieldArrays {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
            jx,
            jy,
            jz,
            ..
        } = f;
        for (arr, scale) in [
            (ex, 1.0e9),
            (ey, 1.0e9),
            (ez, 1.0e9),
            (bx, 3.0),
            (by, 3.0),
            (bz, 3.0),
            (jx, 1.0e12),
            (jy, 1.0e12),
            (jz, 1.0e12),
        ] {
            for v in arr.as_mut_slice() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *v = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale;
            }
        }
    }

    fn eb_bits(f: &FieldArrays) -> Vec<u64> {
        [&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz]
            .iter()
            .flat_map(|a| a.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// The row kernels are the per-cell reference, bit for bit: both
    /// solver kinds, cubic and LWFA cells, x widths around the vector
    /// width (ragged tails, and past one `ROW_BLOCK`), both guard widths,
    /// sequential and 3-worker slabs.
    #[test]
    fn conf_solver_rows_match_reference_bitwise() {
        let pool = WorkerPool::sequential();
        let exec = pool.exec(SchedulerPolicy::Static);
        let cells = [[1.0e-6; 3], [0.5e-6, 0.5e-6, 0.25e-6]];
        let mut case = 0u64;
        for kind in [SolverKind::Yee, SolverKind::Ckc] {
            for dx in cells {
                for width in [1usize, 5, 8, 13, 33, ROW_BLOCK + 3] {
                    for guard in [1usize, 2] {
                        case += 1;
                        let geom = GridGeometry::new([width, 3, 7], [0.0; 3], dx, guard);
                        let solver = MaxwellSolver::new(kind, &geom);
                        if kind == SolverKind::Ckc {
                            assert!(
                                solver.beta.iter().flatten().filter(|b| **b != 0.0).count() == 6
                            );
                        }
                        let dt = 0.5 * solver.max_dt(&geom);
                        let mut base = FieldArrays::new(&geom);
                        randomise(&mut base, 0x9e37_79b9 + case);
                        let reference = |m: Mutant| {
                            let mut f = base.clone();
                            for _ in 0..3 {
                                reference::step(&solver, &geom, &mut f, dt, m, exec);
                            }
                            eb_bits(&f)
                        };
                        let rows = |workers: usize| {
                            let mut f = base.clone();
                            let mut m = Machine::new(MachineConfig::lx2());
                            let pool = WorkerPool::new(workers);
                            for _ in 0..3 {
                                let exec = pool.exec(SchedulerPolicy::Static);
                                solver.step_sharded(&mut m, &geom, &mut f, dt, exec);
                            }
                            (
                                eb_bits(&f),
                                m.counters().cycles(Phase::FieldSolve).to_bits(),
                            )
                        };
                        let what = format!("{kind:?} dx {dx:?} width {width} guard {guard}");
                        let want = reference(Mutant::None);
                        let (got, cycles) = rows(1);
                        assert!(got == want, "{what}: rows diverged from the reference");
                        let (got_w, cycles_w) = rows(3);
                        assert!(got_w == want, "{what}: 3-worker rows diverged");
                        assert_eq!(cycles_w, cycles, "{what}: FieldSolve cycles moved");
                        // The comparison must be sharp enough to catch a
                        // single changed rounding.
                        assert!(reference(Mutant::Reciprocal) != want, "{what}: reciprocal");
                        if kind == SolverKind::Ckc {
                            assert!(reference(Mutant::PlusTapFirst) != want, "{what}: tap order");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn current_drives_e_field() {
        let (geom, mut f, solver, dt) = setup(SolverKind::Yee, 8, 0.5);
        let pool = WorkerPool::sequential();
        let exec = pool.exec(SchedulerPolicy::Static);
        let mut m = Machine::new(MachineConfig::lx2());
        f.jz.set(4, 4, 4, 1.0);
        solver.step_sharded(&mut m, &geom, &mut f, dt, exec);
        // E_z response: dE = -dt J / eps0.
        let expect = -dt / EPS0;
        assert!((f.ez.get(4, 4, 4) - expect).abs() < 1e-6 * expect.abs());
    }

    #[test]
    fn ckc_coefficients_cubic() {
        let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1.0e-6; 3], 2);
        let s = MaxwellSolver::new(SolverKind::Ckc, &geom);
        assert!((s.beta[0][1] - 0.125).abs() < 1e-15);
        assert!((s.alpha[0] - 0.5).abs() < 1e-15);
        let y = MaxwellSolver::new(SolverKind::Yee, &geom);
        assert_eq!(y.alpha[0], 1.0);
        assert_eq!(y.beta[0][1], 0.0);
    }
}
