//! The paper's two evaluation workloads (Appendix A Table 4), scaled to
//! emulation-friendly sizes.
//!
//! * **Uniform plasma** — homogeneous electron plasma at
//!   `1e25 m^-3`, Maxwellian `u_th = 0.01 c`, periodic everywhere, CKC
//!   solver, CFL 1.0, tile size 8x8x8. The paper's grid is 256x128x128;
//!   the builders accept any cell count so benches pick sizes that keep
//!   the grid-to-modelled-cache ratio in the paper's memory-bound regime.
//! * **LWFA** — a Gaussian `a0` laser driving a wake in a
//!   `2e23 m^-3` background plasma, moving window along z, absorbing z
//!   boundaries, tile size 8x8x64 (scaled with the domain).

use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_grid::{GridGeometry, TileLayout};
use mpic_particles::{Departure, ParticleContainer};
use mpic_solver::{AbsorbingLayer, BoundaryKind, LaserAntenna, SolverKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::simulation::{PlasmaSpec, Simulation};

use mpic_grid::constants::{M_E, Q_E};

/// Uniform-plasma electron density (per m^3), as in Table 4.
pub const UNIFORM_DENSITY: f64 = 1e25;

/// LWFA background density (per m^3), as in Table 4.
pub const LWFA_DENSITY: f64 = 2e23;

/// Thermal spread of the uniform plasma (`u_th = 0.01 c`).
pub const UNIFORM_UTH: f64 = 0.01;

/// Loads `ppc` electrons per cell, uniformly random inside each cell
/// with a Maxwellian-ish momentum spread.
pub fn load_uniform_plasma(
    geom: &GridGeometry,
    layout: &TileLayout,
    density: f64,
    ppc: usize,
    u_th: f64,
    seed: u64,
) -> ParticleContainer {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = ParticleContainer::new(layout, -Q_E, M_E);
    let w = density * geom.cell_volume() / ppc as f64;
    let n = geom.n_cells;
    // Gaussian-ish via sum of uniforms (Irwin-Hall, adequate for a
    // thermal load).
    let maxwell = |rng: &mut StdRng| -> f64 {
        let s: f64 = (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() - 3.0;
        u_th * s / 0.5f64.sqrt()
    };
    for k in 0..n[2] {
        for j in 0..n[1] {
            for i in 0..n[0] {
                for _ in 0..ppc {
                    let d = Departure {
                        x: geom.lo[0] + (i as f64 + rng.gen::<f64>()) * geom.dx[0],
                        y: geom.lo[1] + (j as f64 + rng.gen::<f64>()) * geom.dx[1],
                        z: geom.lo[2] + (k as f64 + rng.gen::<f64>()) * geom.dx[2],
                        ux: maxwell(&mut rng),
                        uy: maxwell(&mut rng),
                        uz: maxwell(&mut rng),
                        w,
                    };
                    let _ = c.inject(layout, geom, d);
                }
            }
        }
    }
    c
}

/// Scrambles the SoA order of every tile (models the steady-state
/// disorder an unsorted production run accumulates; freshly loaded
/// particles would otherwise start artificially cell-ordered).
pub fn shuffle_particles(
    c: &mut ParticleContainer,
    geom: &GridGeometry,
    layout: &TileLayout,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gap = c.gap_ratio();
    for (t, tile) in c.tiles.iter_mut().enumerate() {
        let live: Vec<usize> = tile.soa.live_indices().collect();
        if live.len() < 2 {
            continue;
        }
        // Fisher-Yates permutation applied as a compacting gather.
        let mut perm = live.clone();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        tile.soa.permute(&perm);
        // Positions are unchanged but slots moved: rebuild the bin map
        // and the GPMA index from scratch.
        let tl = layout.tile(t);
        tile.cells = (0..tile.soa.slots())
            .map(|p| {
                let (cell, _) = geom.locate(tile.soa.x[p], tile.soa.y[p], tile.soa.z[p]);
                tl.local_cell_id(geom.wrap_cell(cell))
            })
            .collect();
        tile.gpma = mpic_particles::Gpma::build(&tile.cells, tl.num_cells(), gap);
    }
}

/// The uniform-plasma configuration.
pub fn uniform_plasma_config(
    n_cells: [usize; 3],
    shape: ShapeOrder,
    kernel: KernelConfig,
    seed: u64,
) -> SimConfig {
    SimConfig {
        n_cells,
        dx: [1.0e-6; 3],
        tile_size: [8, 8, 8],
        guard: 2,
        cfl: 1.0,
        solver: SolverKind::Ckc,
        shape,
        kernel,
        boundary: BoundaryKind::Periodic,
        moving_window: false,
        laser: None,
        absorber: AbsorbingLayer::default(),
        machine: mpic_machine::MachineConfig::lx2(),
        seed,
        num_workers: 1,
        scheduler: mpic_machine::SchedulerPolicy::Static,
        batching: false,
        simd: false,
    }
}

/// Builds a ready-to-run uniform plasma simulation.
pub fn uniform_plasma_sim(
    n_cells: [usize; 3],
    ppc: usize,
    shape: ShapeOrder,
    kernel: KernelConfig,
    seed: u64,
) -> Simulation {
    let cfg = uniform_plasma_config(n_cells, shape, kernel, seed);
    let geom = GridGeometry::new(cfg.n_cells, [0.0; 3], cfg.dx, cfg.guard);
    let layout = TileLayout::new(&geom, cfg.tile_size);
    let electrons = load_uniform_plasma(&geom, &layout, UNIFORM_DENSITY, ppc, UNIFORM_UTH, seed);
    Simulation::from_parts(cfg, geom, layout, electrons, None)
}

/// The LWFA configuration: laser, moving window, absorbing z.
pub fn lwfa_config(
    n_cells: [usize; 3],
    shape: ShapeOrder,
    kernel: KernelConfig,
    seed: u64,
) -> SimConfig {
    let dx = [0.5e-6, 0.5e-6, 0.25e-6];
    let laser = LaserAntenna {
        lambda: 0.8e-6,
        a0: 4.0,
        tau: 8e-15,
        t_peak: 20e-15,
        waist: 0.25 * n_cells[0] as f64 * dx[0],
        z_plane: 2,
    };
    SimConfig {
        n_cells,
        dx,
        tile_size: [8, 8, (n_cells[2] / 2).clamp(8, 64)],
        guard: 2,
        cfl: 1.0,
        solver: SolverKind::Ckc,
        shape,
        kernel,
        boundary: BoundaryKind::AbsorbingZ,
        moving_window: true,
        laser: Some(laser),
        absorber: AbsorbingLayer::default(),
        machine: mpic_machine::MachineConfig::lx2(),
        seed,
        num_workers: 1,
        scheduler: mpic_machine::SchedulerPolicy::Static,
        batching: false,
        simd: false,
    }
}

/// Builds a ready-to-run LWFA simulation.
pub fn lwfa_sim(
    n_cells: [usize; 3],
    ppc: usize,
    shape: ShapeOrder,
    kernel: KernelConfig,
    seed: u64,
) -> Simulation {
    let cfg = lwfa_config(n_cells, shape, kernel, seed);
    let geom = GridGeometry::new(cfg.n_cells, [0.0; 3], cfg.dx, cfg.guard);
    let layout = TileLayout::new(&geom, cfg.tile_size);
    let electrons = load_uniform_plasma(&geom, &layout, LWFA_DENSITY, ppc, 0.0, seed);
    let spec = PlasmaSpec {
        density: LWFA_DENSITY,
        ppc,
        u_th: 0.0,
    };
    Simulation::from_parts(cfg, geom, layout, electrons, Some(spec))
}

/// Builds an adversarially load-imbalanced LWFA simulation: every
/// particle is loaded into the cells of tile 0 (the "hot" tile) at
/// `ppc` per cell, leaving every other tile empty. This is the
/// worst-case input for static contiguous tile chunks — the chunk that
/// owns tile 0 carries the whole particle workload — and therefore the
/// stress test for the work-stealing scheduler's claim/merge
/// determinism (`tests/parallel_determinism.rs`).
pub fn imbalanced_lwfa_sim(n_cells: [usize; 3], ppc: usize, seed: u64) -> Simulation {
    let cfg = lwfa_config(n_cells, ShapeOrder::Cic, KernelConfig::FullOpt, seed);
    let geom = GridGeometry::new(cfg.n_cells, [0.0; 3], cfg.dx, cfg.guard);
    let layout = TileLayout::new(&geom, cfg.tile_size);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut electrons = ParticleContainer::new(&layout, -Q_E, M_E);
    let w = LWFA_DENSITY * geom.cell_volume() / ppc as f64;
    let ts = cfg.tile_size;
    for k in 0..ts[2].min(n_cells[2]) {
        for j in 0..ts[1].min(n_cells[1]) {
            for i in 0..ts[0].min(n_cells[0]) {
                for _ in 0..ppc {
                    let d = Departure {
                        x: geom.lo[0] + (i as f64 + rng.gen::<f64>()) * geom.dx[0],
                        y: geom.lo[1] + (j as f64 + rng.gen::<f64>()) * geom.dx[1],
                        z: geom.lo[2] + (k as f64 + rng.gen::<f64>()) * geom.dx[2],
                        ux: 0.0,
                        uy: 0.0,
                        uz: 0.0,
                        w,
                    };
                    let _ = electrons.inject(&layout, &geom, d);
                }
            }
        }
    }
    let spec = PlasmaSpec {
        density: LWFA_DENSITY,
        ppc,
        u_th: 0.0,
    };
    Simulation::from_parts(cfg, geom, layout, electrons, Some(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_load_hits_target_ppc() {
        let geom = GridGeometry::new([4, 4, 4], [0.0; 3], [1e-6; 3], 2);
        let layout = TileLayout::new(&geom, [4, 4, 4]);
        let c = load_uniform_plasma(&geom, &layout, UNIFORM_DENSITY, 8, 0.01, 1);
        assert_eq!(c.total_particles(), 8 * 64);
        c.check_invariants();
        // Total charge = -q n V.
        let expect = -Q_E * UNIFORM_DENSITY * geom.cell_volume() * 64.0;
        assert!(((c.total_charge() - expect) / expect).abs() < 1e-12);
    }

    #[test]
    fn thermal_spread_is_near_uth() {
        let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1e-6; 3], 2);
        let layout = TileLayout::new(&geom, [8, 8, 8]);
        let c = load_uniform_plasma(&geom, &layout, UNIFORM_DENSITY, 16, 0.01, 3);
        let mut sum2 = 0.0;
        let mut n = 0usize;
        for t in &c.tiles {
            for p in t.soa.live_indices() {
                sum2 += t.soa.ux[p] * t.soa.ux[p];
                n += 1;
            }
        }
        let rms = (sum2 / n as f64).sqrt();
        assert!((rms / 0.01 - 1.0).abs() < 0.2, "rms {rms}");
    }

    #[test]
    fn lwfa_sim_builds() {
        let sim = lwfa_sim([8, 8, 32], 1, ShapeOrder::Cic, KernelConfig::FullOpt, 7);
        assert!(sim.cfg.moving_window);
        assert!(sim.cfg.laser.is_some());
        assert_eq!(sim.num_particles(), 8 * 8 * 32);
    }
}
