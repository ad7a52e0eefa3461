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
use mpic_solver::{LaserAntenna, SolverKind};
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

/// The cells of the box `[0, n)`, x fastest, each `ppc` times in a row:
/// the order every loader draws its particles in.
fn cells_ppc_times(n: [usize; 3], ppc: usize) -> impl Iterator<Item = [usize; 3]> {
    (0..n[2]).flat_map(move |k| {
        (0..n[1])
            .flat_map(move |j| (0..n[0]).flat_map(move |i| std::iter::repeat_n([i, j, k], ppc)))
    })
}

/// A position drawn uniformly inside `cell`, x first.
fn position_in(geom: &GridGeometry, cell: [usize; 3], rng: &mut StdRng) -> [f64; 3] {
    let x = geom.lo[0] + (cell[0] as f64 + rng.gen::<f64>()) * geom.dx[0];
    let y = geom.lo[1] + (cell[1] as f64 + rng.gen::<f64>()) * geom.dx[1];
    let z = geom.lo[2] + (cell[2] as f64 + rng.gen::<f64>()) * geom.dx[2];
    [x, y, z]
}

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
    let w = density * geom.cell_volume() / ppc as f64;
    // Gaussian-ish via sum of uniforms (Irwin-Hall, adequate for a
    // thermal load).
    let maxwell = move |rng: &mut StdRng| -> f64 {
        let s: f64 = (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() - 3.0;
        u_th * s / 0.5f64.sqrt()
    };
    let particles = cells_ppc_times(geom.n_cells, ppc).map(|cell| {
        let [x, y, z] = position_in(geom, cell, &mut rng);
        Departure {
            x,
            y,
            z,
            ux: maxwell(&mut rng),
            uy: maxwell(&mut rng),
            uz: maxwell(&mut rng),
            w,
        }
    });
    ParticleContainer::from_particles(layout, geom, -Q_E, M_E, particles)
}

/// Loads `ppc` electrons at rest per cell of tile 0 and none anywhere
/// else (the load of [`imbalanced_lwfa_sim`]).
fn load_hot_tile(
    geom: &GridGeometry,
    layout: &TileLayout,
    ppc: usize,
    seed: u64,
) -> ParticleContainer {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = LWFA_DENSITY * geom.cell_volume() / ppc as f64;
    let particles = cells_ppc_times(layout.tile(0).size(), ppc).map(|cell| {
        let [x, y, z] = position_in(geom, cell, &mut rng);
        Departure {
            x,
            y,
            z,
            ux: 0.0,
            uy: 0.0,
            uz: 0.0,
            w,
        }
    });
    ParticleContainer::from_particles(layout, geom, -Q_E, M_E, particles)
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
        let mut perm: Vec<usize> = tile.soa.live_indices().collect();
        if perm.len() < 2 {
            continue;
        }
        // Fisher-Yates permutation applied as a compacting gather.
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        tile.soa.permute(&perm);
        // Positions are unchanged but slots moved.
        tile.reindex(layout.tile(t), geom, gap);
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
        solver: SolverKind::Ckc,
        shape,
        kernel,
        moving_window: false,
        laser: None,
        machine: mpic_machine::MachineConfig::lx2(),
        seed,
        num_workers: 1,
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
    let (geom, layout) = cfg.grid();
    let electrons = load_uniform_plasma(&geom, &layout, UNIFORM_DENSITY, ppc, UNIFORM_UTH, seed);
    Simulation::from_parts(cfg, electrons, None)
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
        solver: SolverKind::Ckc,
        shape,
        kernel,
        moving_window: true,
        laser: Some(laser),
        machine: mpic_machine::MachineConfig::lx2(),
        seed,
        num_workers: 1,
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
    let (geom, layout) = cfg.grid();
    let electrons = load_uniform_plasma(&geom, &layout, LWFA_DENSITY, ppc, 0.0, seed);
    let spec = PlasmaSpec {
        density: LWFA_DENSITY,
        ppc,
        u_th: 0.0,
    };
    Simulation::from_parts(cfg, electrons, Some(spec))
}

/// Builds an adversarially load-imbalanced LWFA simulation: every
/// particle is loaded into the cells of tile 0 (the "hot" tile) at
/// `ppc` per cell, leaving every other tile empty. This is the
/// worst-case input for static contiguous tile chunks — the chunk that
/// owns tile 0 carries the whole particle workload — and therefore the
/// stress test for the claim/merge determinism across worker counts
/// (`tests/parallel_determinism.rs`).
pub fn imbalanced_lwfa_sim(n_cells: [usize; 3], ppc: usize, seed: u64) -> Simulation {
    let cfg = lwfa_config(n_cells, ShapeOrder::Cic, KernelConfig::FullOpt, seed);
    let (geom, layout) = cfg.grid();
    let electrons = load_hot_tile(&geom, &layout, ppc, seed);
    let spec = PlasmaSpec {
        density: LWFA_DENSITY,
        ppc,
        u_th: 0.0,
    };
    Simulation::from_parts(cfg, electrons, Some(spec))
}

#[cfg(test)]
mod reference {
    //! The loaders as they were before the bulk build: the same draws in
    //! the same order, each particle injected as a GPMA maintenance cycle
    //! of its own.

    use super::*;

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

    pub fn load_hot_tile(
        geom: &GridGeometry,
        layout: &TileLayout,
        ppc: usize,
        seed: u64,
    ) -> ParticleContainer {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut electrons = ParticleContainer::new(layout, -Q_E, M_E);
        let w = LWFA_DENSITY * geom.cell_volume() / ppc as f64;
        let (ts, n_cells) = (layout.tile_size, geom.n_cells);
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
                        let _ = electrons.inject(layout, geom, d);
                    }
                }
            }
        }
        electrons
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpic_particles::{Gpma, ParticleTile};

    /// One loader input: the configuration its simulations are built
    /// from, the moving-window plasma, and the reference and bulk loads.
    struct Case {
        name: &'static str,
        cfg: SimConfig,
        spec: Option<PlasmaSpec>,
        reference: ParticleContainer,
        bulk: ParticleContainer,
    }

    /// Small grids of two to four tiles: the uniform plasma at CIC and
    /// QSP, the LWFA plasma and the hot-tile load.
    fn cases() -> Vec<Case> {
        let seed = 17;
        let mut out = Vec::new();
        for (name, shape) in [
            ("uniform cic", ShapeOrder::Cic),
            ("uniform qsp", ShapeOrder::Qsp),
        ] {
            let cfg = uniform_plasma_config([16, 8, 8], shape, KernelConfig::FullOpt, seed);
            let (geom, layout) = cfg.grid();
            let (density, ppc, u_th) = (UNIFORM_DENSITY, 3, UNIFORM_UTH);
            out.push(Case {
                name,
                reference: reference::load_uniform_plasma(&geom, &layout, density, ppc, u_th, seed),
                bulk: load_uniform_plasma(&geom, &layout, density, ppc, u_th, seed),
                cfg,
                spec: None,
            });
        }
        let ppc = 2;
        let spec = Some(PlasmaSpec {
            density: LWFA_DENSITY,
            ppc,
            u_th: 0.0,
        });
        let cfg = lwfa_config([8, 8, 32], ShapeOrder::Cic, KernelConfig::FullOpt, seed);
        let (geom, layout) = cfg.grid();
        out.push(Case {
            name: "lwfa",
            reference: reference::load_uniform_plasma(&geom, &layout, LWFA_DENSITY, ppc, 0.0, seed),
            bulk: load_uniform_plasma(&geom, &layout, LWFA_DENSITY, ppc, 0.0, seed),
            cfg,
            spec,
        });
        let cfg = lwfa_config([16, 8, 32], ShapeOrder::Cic, KernelConfig::FullOpt, seed);
        let (geom, layout) = cfg.grid();
        out.push(Case {
            name: "hot tile",
            reference: reference::load_hot_tile(&geom, &layout, ppc, seed),
            bulk: load_hot_tile(&geom, &layout, ppc, seed),
            cfg,
            spec,
        });
        out
    }

    /// A tile's SoA (floats as bit patterns, free list included) and bin
    /// map.
    fn tile_bits(pt: &ParticleTile) -> impl PartialEq {
        let s = &pt.soa;
        let bits = [&s.x, &s.y, &s.z, &s.ux, &s.uy, &s.uz, &s.w]
            .map(|a| a.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
        (
            bits,
            s.alive.clone(),
            s.free_slots().to_vec(),
            pt.cells.clone(),
        )
    }

    /// The first way in which simulations built from `got` start
    /// differently from those built from `want`, over every kernel
    /// configuration: each tile's SoA and bin map after `from_parts`, and
    /// the snapshot bytes there (sorted configurations) or after
    /// `shuffle_particles` (unsorted ones, which keep the load's GPMA
    /// until the shuffle re-indexes it).
    fn first_difference(
        case: &Case,
        want: &ParticleContainer,
        got: &ParticleContainer,
    ) -> Option<String> {
        for kernel in KernelConfig::ALL {
            let start = |c: &ParticleContainer| {
                let cfg = SimConfig {
                    kernel,
                    ..case.cfg.clone()
                };
                let mut sim = Simulation::from_parts(cfg, c.clone(), case.spec);
                let tiles: Vec<_> = sim.electrons.tiles.iter().map(tile_bits).collect();
                if !kernel.strategy().provides_sorted_order() {
                    shuffle_particles(&mut sim.electrons, &sim.geom, &sim.layout, 5);
                }
                (tiles, sim.snapshot())
            };
            let (want, got) = (start(want), start(got));
            if want.0 != got.0 {
                return Some(format!("{}, {kernel:?}: tile SoA or bin map", case.name));
            }
            if want.1 != got.1 {
                return Some(format!("{}, {kernel:?}: snapshot bytes", case.name));
            }
        }
        None
    }

    #[test]
    fn conf_bulk_load_matches_inject_load_bitwise() {
        for case in cases() {
            let (geom, layout) = case.cfg.grid();
            for (t, tile) in case.bulk.tiles.iter().enumerate() {
                let built = Gpma::build(
                    &tile.cells,
                    layout.tile(t).num_cells(),
                    case.bulk.gap_ratio(),
                );
                assert_eq!(
                    tile.gpma.export_state(),
                    built.export_state(),
                    "{}: tile {t} GPMA",
                    case.name
                );
                tile.check_invariants();
            }
            assert_eq!(
                first_difference(&case, &case.reference, &case.bulk),
                None,
                "{}",
                case.name
            );
            // Mutant: every tile's arrival order reversed.
            let mut reversed = case.bulk.clone();
            for (t, tile) in reversed.tiles.iter_mut().enumerate() {
                let perm: Vec<usize> = (0..tile.soa.slots()).rev().collect();
                tile.soa.permute(&perm);
                tile.reindex(layout.tile(t), &geom, case.bulk.gap_ratio());
            }
            assert!(
                first_difference(&case, &case.reference, &reversed).is_some(),
                "{}: reversed arrival order passed",
                case.name
            );
        }
    }

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
