//! Worker-count invariance: the unified execution layer must produce
//! bit-identical physics *and* bit-identical emulated cycle accounting
//! for any `num_workers`, on both evaluation workloads.
//!
//! This pins the deterministic fixed-order reductions of the pipeline:
//! per-worker rhocell and direct-scatter outputs are applied to the grid
//! in tile order, per-tile counter deltas are merged in tile order, the
//! sharded counting sort reproduces the sequential permutation exactly,
//! and the Z-slab field solve writes disjoint planes — so neither the
//! fields nor the per-phase cycle totals can depend on how the static
//! chunks of the persistent worker pool fall.

use matrix_pic::core::{workloads, Simulation};
use matrix_pic::deposit::{KernelConfig, ShapeOrder};
use matrix_pic::grid::{FieldArrays, GridGeometry, TileLayout};
use matrix_pic::machine::Phase;
use matrix_pic::solver::LaserAntenna;

/// Runs `steps` and returns the final fields plus per-phase cycle totals.
fn run(mut sim: Simulation, workers: usize, steps: usize) -> (FieldArrays, [f64; 8], usize) {
    sim.cfg.num_workers = workers;
    sim.run(steps);
    let mut cycles = [0.0; 8];
    for (i, p) in Phase::ALL.iter().enumerate() {
        cycles[i] = sim.machine.counters().cycles(*p);
    }
    (sim.fields.clone(), cycles, sim.num_particles())
}

fn assert_bit_identical(
    label: &str,
    a: &(FieldArrays, [f64; 8], usize),
    b: &(FieldArrays, [f64; 8], usize),
) {
    assert_eq!(a.2, b.2, "{label}: particle counts diverged");
    for (name, x, y) in [
        ("jx", &a.0.jx, &b.0.jx),
        ("jy", &a.0.jy, &b.0.jy),
        ("jz", &a.0.jz, &b.0.jz),
        ("ex", &a.0.ex, &b.0.ex),
        ("ey", &a.0.ey, &b.0.ey),
        ("ez", &a.0.ez, &b.0.ez),
        ("bx", &a.0.bx, &b.0.bx),
        ("by", &a.0.by, &b.0.by),
        ("bz", &a.0.bz, &b.0.bz),
    ] {
        for (i, (u, v)) in x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .collect::<Vec<_>>()
            .into_iter()
            .enumerate()
        {
            assert!(
                u.to_bits() == v.to_bits(),
                "{label}: {name}[{i}] differs across worker counts: {u:e} vs {v:e}"
            );
        }
    }
    for (i, p) in Phase::ALL.iter().enumerate() {
        assert!(
            a.1[i].to_bits() == b.1[i].to_bits(),
            "{label}: {p:?} cycles differ across worker counts: {} vs {}",
            a.1[i],
            b.1[i]
        );
    }
}

#[test]
fn conf_uniform_plasma_fullopt_is_worker_count_invariant() {
    let build = || {
        workloads::uniform_plasma_sim([16, 16, 16], 4, ShapeOrder::Cic, KernelConfig::FullOpt, 42)
    };
    let one = run(build(), 1, 3);
    let four = run(build(), 4, 3);
    assert_bit_identical("uniform/FullOpt 1v4", &one, &four);
    let seven = run(build(), 7, 3); // Ragged shard sizes.
    assert_bit_identical("uniform/FullOpt 1v7", &one, &seven);
}

#[test]
fn conf_uniform_plasma_qsp_vpu_is_worker_count_invariant() {
    let build = || {
        workloads::uniform_plasma_sim(
            [8, 8, 16],
            2,
            ShapeOrder::Qsp,
            KernelConfig::RhocellIncrSortVpu,
            7,
        )
    };
    let one = run(build(), 1, 2);
    let four = run(build(), 4, 2);
    assert_bit_identical("uniform/QSP-VPU 1v4", &one, &four);
}

#[test]
fn conf_lwfa_fullopt_is_worker_count_invariant() {
    // Moving window, laser injection, absorbing boundaries: exercises
    // particle removal and injection alongside the parallel sweeps.
    let build = || workloads::lwfa_sim([8, 8, 32], 2, ShapeOrder::Cic, KernelConfig::FullOpt, 13);
    let one = run(build(), 1, 4);
    let four = run(build(), 4, 4);
    assert_bit_identical("lwfa/FullOpt 1v4", &one, &four);
    let seven = run(build(), 7, 4); // Ragged shards on the removal path.
    assert_bit_identical("lwfa/FullOpt 1v7", &one, &seven);
}

#[test]
fn conf_baseline_direct_scatter_is_worker_count_invariant() {
    // The direct-scatter (WarpX baseline) kernel is sharded via per-tile
    // sparse current outputs applied in tile order; both the fields and
    // the per-tile counter drains must be invariant to the worker count.
    let build =
        || workloads::uniform_plasma_sim([8, 8, 8], 4, ShapeOrder::Cic, KernelConfig::Baseline, 3);
    let one = run(build(), 1, 2);
    let four = run(build(), 4, 2);
    assert_bit_identical("uniform/Baseline 1v4", &one, &four);
    let three = run(build(), 3, 2); // Ragged shard sizes.
    assert_bit_identical("uniform/Baseline 1v3", &one, &three);
}

#[test]
fn conf_global_sort_every_step_is_worker_count_invariant() {
    // Hybrid-GlobalSort runs the sharded counting sort every timestep:
    // histogram split + deterministic prefix merge must reproduce the
    // sequential particle order (and Sort-phase cycles) exactly.
    let build = || {
        workloads::uniform_plasma_sim(
            [8, 8, 16],
            3,
            ShapeOrder::Cic,
            KernelConfig::HybridGlobalSort,
            21,
        )
    };
    let one = run(build(), 1, 3);
    let four = run(build(), 4, 3);
    assert_bit_identical("uniform/GlobalSort 1v4", &one, &four);
    let seven = run(build(), 7, 3); // Ragged key chunks.
    assert_bit_identical("uniform/GlobalSort 1v7", &one, &seven);
}

/// Periodic boundaries + laser injection: the Z-slab field solve with a
/// fixed-order source pass must pin E, B and `FieldSolve` cycles across
/// 1/2/4/7 workers (satellite coverage for the sharded Maxwell step).
#[test]
fn conf_periodic_laser_field_solve_is_worker_count_invariant() {
    let build = || {
        let mut cfg = workloads::uniform_plasma_config(
            [12, 12, 24],
            ShapeOrder::Cic,
            KernelConfig::FullOpt,
            17,
        );
        cfg.laser = Some(LaserAntenna {
            lambda: 0.8e-6,
            a0: 2.0,
            tau: 6e-15,
            t_peak: 9e-15,
            waist: 3.0e-6,
            z_plane: 4,
        });
        let geom = GridGeometry::new(cfg.n_cells, [0.0; 3], cfg.dx, cfg.guard);
        let layout = TileLayout::new(&geom, cfg.tile_size);
        let electrons = workloads::load_uniform_plasma(
            &geom,
            &layout,
            workloads::UNIFORM_DENSITY,
            2,
            workloads::UNIFORM_UTH,
            17,
        );
        Simulation::from_parts(cfg, geom, layout, electrons, None)
    };
    let one = run(build(), 1, 4);
    for workers in [2usize, 4, 7] {
        let w = run(build(), workers, 4);
        assert_bit_identical(&format!("periodic-laser/FullOpt 1v{workers}"), &one, &w);
        // The laser must actually be driving fields, or the pin is vacuous.
        assert!(w.0.ex.max_abs() > 0.0, "laser injected no Ex");
    }
}

/// Worker-count bit-identity on an adversarially imbalanced LWFA
/// workload: every particle lives in one hot tile while the other tiles
/// are empty, so one worker's static chunk carries the entire particle
/// workload and the others run empty tiles only. Fields, currents and
/// per-phase cycles must nonetheless agree bit for bit with the 1-worker
/// run, because per-tile outputs and counters merge in tile order
/// regardless of who ran what.
#[test]
fn conf_imbalanced_lwfa_bit_identical_across_workers() {
    let build = || workloads::imbalanced_lwfa_sim([16, 16, 32], 4, 29);
    {
        // The imbalance must actually be adversarial, or this test
        // pins nothing: exactly one non-empty tile among several.
        let sim = build();
        let occupied = sim.electrons.tiles.iter().filter(|t| !t.is_empty()).count();
        assert_eq!(occupied, 1, "workload must concentrate in one hot tile");
        assert!(sim.electrons.tiles.len() >= 8, "need empty tiles around it");
        assert!(sim.num_particles() > 0);
    }
    let base = run(build(), 1, 3);
    for workers in [2usize, 3, 4, 7] {
        let r = run(build(), workers, 3);
        assert_bit_identical(&format!("imbalanced-lwfa 1v{workers}"), &base, &r);
    }
}

/// Moving-window injection through the pool: an empty-start LWFA whose
/// front plane injects `16x16x16 = 4096` particles per window advance —
/// at or above `INLINE_ITEM_THRESHOLD`, so multi-worker runs take the
/// *parallel* bucketed-insertion path (sequential RNG generation,
/// per-tile pool insertion) while the 1-worker reference runs inline.
/// Fields, cycles and particle counts must agree bit for bit.
#[test]
fn conf_parallel_window_injection_is_worker_count_invariant() {
    use matrix_pic::core::PlasmaSpec;
    use matrix_pic::grid::constants::{M_E, Q_E};
    use matrix_pic::particles::ParticleContainer;

    let build = || {
        let cfg = workloads::lwfa_config([16, 16, 8], ShapeOrder::Cic, KernelConfig::FullOpt, 5);
        let geom = GridGeometry::new(cfg.n_cells, [0.0; 3], cfg.dx, cfg.guard);
        let layout = TileLayout::new(&geom, cfg.tile_size);
        let electrons = ParticleContainer::new(&layout, -Q_E, M_E);
        let spec = PlasmaSpec {
            density: workloads::LWFA_DENSITY,
            ppc: 16,
            u_th: 0.01,
        };
        Simulation::from_parts(cfg, geom, layout, electrons, Some(spec))
    };
    let one = run(build(), 1, 3);
    assert!(one.2 > 0, "window must have injected particles");
    for workers in [3usize, 4] {
        let w = run(build(), workers, 3);
        assert_bit_identical(&format!("window-injection 1v{workers}"), &one, &w);
    }
}

/// Pool-reuse determinism: one `Simulation` keeps its persistent
/// `WorkerPool` across steps (threads parked between phases and steps),
/// so this pins that *every* intermediate step — not just the final
/// state — is bit-identical across worker counts 1/2/4/7.
#[test]
fn conf_pool_reuse_across_consecutive_steps_is_deterministic() {
    let build = || {
        workloads::uniform_plasma_sim([12, 12, 12], 2, ShapeOrder::Cic, KernelConfig::FullOpt, 11)
    };
    let snapshots = |workers: usize| -> Vec<(FieldArrays, [f64; 8], usize)> {
        let mut sim = build();
        sim.cfg.num_workers = workers;
        (0..3)
            .map(|_| {
                sim.step();
                let mut cycles = [0.0; 8];
                for (i, p) in Phase::ALL.iter().enumerate() {
                    cycles[i] = sim.machine.counters().cycles(*p);
                }
                (sim.fields.clone(), cycles, sim.num_particles())
            })
            .collect()
    };
    let reference = snapshots(1);
    for workers in [2usize, 4, 7] {
        let got = snapshots(workers);
        for (step, (want, have)) in reference.iter().zip(&got).enumerate() {
            assert_bit_identical(
                &format!("pool-reuse step {step}, {workers} workers"),
                want,
                have,
            );
        }
    }
}
