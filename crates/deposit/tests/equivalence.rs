//! Cross-kernel equivalence: every deposition configuration — baseline
//! scatter, auto-vectorised rhocell, hand-tuned VPU rhocell, and the MPU
//! MatrixPIC kernel in all its ablation variants — must reproduce the
//! pure scalar reference to floating-point accumulation accuracy. This is
//! the correctness core of the whole reproduction: the paper's claim is
//! that the MPU mapping is *algebraically equivalent* to the canonical
//! scatter-add, just reorganised for outer-product hardware.

use mpic_deposit::{reference_deposit, KernelConfig, ShapeOrder};
use mpic_grid::{FieldArrays, GridGeometry, TileLayout};
use mpic_machine::{Machine, MachineConfig, SchedulerPolicy, WorkerPool};
use mpic_particles::{Departure, ParticleContainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a randomized particle population across the whole domain.
fn random_container(
    geom: &GridGeometry,
    layout: &TileLayout,
    n: usize,
    seed: u64,
) -> ParticleContainer {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = ParticleContainer::new(layout, -1.602e-19, 9.109e-31);
    let hi = geom.hi();
    for _ in 0..n {
        let _ = c.inject(
            layout,
            geom,
            Departure {
                x: rng.gen_range(geom.lo[0]..hi[0]),
                y: rng.gen_range(geom.lo[1]..hi[1]),
                z: rng.gen_range(geom.lo[2]..hi[2]),
                ux: rng.gen_range(-0.5..0.5),
                uy: rng.gen_range(-0.5..0.5),
                uz: rng.gen_range(-0.5..0.5),
                w: rng.gen_range(0.5e10..2.0e10),
            },
        );
    }
    c
}

fn max_rel_err(a: &mpic_grid::Array3, b: &mpic_grid::Array3) -> f64 {
    let scale = a.max_abs().max(b.max_abs()).max(1e-300);
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() / scale)
        .fold(0.0, f64::max)
}

fn check_config(cfg: KernelConfig, order: ShapeOrder, n_particles: usize) {
    let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [0.5e-6; 3], 2);
    let layout = TileLayout::new(&geom, [4, 4, 4]);
    let mut container = random_container(&geom, &layout, n_particles, 42);
    let (rjx, rjy, rjz) = reference_deposit(&geom, order, &container);

    let pool = WorkerPool::sequential();
    let exec = pool.exec(SchedulerPolicy::Static);
    let mut m = Machine::new(MachineConfig::lx2());
    let mut fields = FieldArrays::new(&geom);
    let mut dep = cfg.build(order);
    dep.prepare(&mut m, &geom, &layout, &mut container);
    dep.sort_step_parallel(&mut m, &geom, &layout, &mut container, false, exec);
    dep.deposit_step_parallel(&mut m, &geom, &layout, &container, &mut fields, exec);

    for (name, got, want) in [
        ("jx", &fields.jx, &rjx),
        ("jy", &fields.jy, &rjy),
        ("jz", &fields.jz, &rjz),
    ] {
        let err = max_rel_err(got, want);
        assert!(
            err < 1e-12,
            "{} {:?} {}: max rel err {err}",
            cfg.label(),
            order,
            name
        );
    }
    assert!(
        m.counters().deposition_cycles() > 0.0,
        "{}: kernel must charge cycles",
        cfg.label()
    );
}

/// Runs a configuration twice — cell runs off and on (`batching` and
/// `simd` together) — and returns the two current sets plus the per-run
/// deposition cycle totals. Both runs must match the scalar reference to
/// accumulation accuracy; how tightly they must match each other is the
/// caller's claim.
fn run_both_paths(
    cfg: KernelConfig,
    order: ShapeOrder,
    n_particles: usize,
) -> ([FieldArrays; 2], [f64; 2]) {
    let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [0.5e-6; 3], 2);
    let layout = TileLayout::new(&geom, [4, 4, 4]);
    let reference = {
        let container = random_container(&geom, &layout, n_particles, 42);
        reference_deposit(&geom, order, &container)
    };
    let pool = WorkerPool::sequential();
    let exec = pool.exec(SchedulerPolicy::Static);
    let mut out: Vec<FieldArrays> = Vec::new();
    let mut cycles = [0.0; 2];
    for (slot, batching) in [false, true].into_iter().enumerate() {
        let mut container = random_container(&geom, &layout, n_particles, 42);
        let mut m = Machine::new(MachineConfig::lx2());
        let mut fields = FieldArrays::new(&geom);
        let mut dep = cfg.build(order);
        dep.set_batching(batching);
        dep.set_simd(batching);
        dep.prepare(&mut m, &geom, &layout, &mut container);
        dep.sort_step_parallel(&mut m, &geom, &layout, &mut container, false, exec);
        dep.deposit_step_parallel(&mut m, &geom, &layout, &container, &mut fields, exec);
        for (name, got, want) in [
            ("jx", &fields.jx, &reference.0),
            ("jy", &fields.jy, &reference.1),
            ("jz", &fields.jz, &reference.2),
        ] {
            let err = max_rel_err(got, want);
            assert!(
                err < 1e-12,
                "{} {order:?} batching={batching} {name}: max rel err {err}",
                cfg.label(),
            );
        }
        cycles[slot] = m.counters().deposition_cycles();
        out.push(fields);
    }
    let b = out.pop().unwrap();
    let a = out.pop().unwrap();
    ([a, b], cycles)
}

fn assert_currents_bitwise_equal(a: &FieldArrays, b: &FieldArrays, what: &str) {
    for (name, x, y) in [
        ("jx", &a.jx, &b.jx),
        ("jy", &a.jy, &b.jy),
        ("jz", &a.jz, &b.jz),
    ] {
        let same = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(u, v)| u.to_bits() == v.to_bits());
        assert!(same, "{what}: {name} diverged bitwise");
    }
}

#[test]
fn batched_rhocell_is_bit_identical_to_per_particle() {
    // The rhocell kernel has no cell-run sweep, so batching leaves it on
    // the per-particle path: bitwise equal at every shape order.
    for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
        let ([a, b], _) = run_both_paths(KernelConfig::RhocellIncrSortVpu, order, 200);
        assert_currents_bitwise_equal(&a, &b, "rhocell VPU");
    }
    let ([a, b], _) = run_both_paths(KernelConfig::RhocellIncrSort, ShapeOrder::Cic, 200);
    assert_currents_bitwise_equal(&a, &b, "rhocell autovec");
}

#[test]
fn batched_fullopt_is_bit_identical_to_per_particle() {
    // The matrix kernel is run-batched by construction (MPU tiles stay
    // resident per run), so the batching knob changes nothing in its
    // values — a cross-check that the knob threads through cleanly.
    let ([a, b], _) = run_both_paths(KernelConfig::FullOpt, ShapeOrder::Cic, 200);
    assert_currents_bitwise_equal(&a, &b, "FullOpt");
}

#[test]
fn batched_kernels_handle_empty_tiles_and_single_particle_runs() {
    // Five particles over sixteen tiles: most tiles empty, every run of
    // length one — the degenerate regime must stay exact.
    for cfg in [
        KernelConfig::FullOpt,
        KernelConfig::RhocellIncrSortVpu,
        KernelConfig::BaselineIncrSort,
    ] {
        let _ = run_both_paths(cfg, ShapeOrder::Cic, 5);
    }
}

#[test]
fn batching_on_unsorted_strategy_falls_back_to_reference_path() {
    // SortStrategy::None provides no cell-grouped order, and the
    // direct-scatter and rhocell kernels have no cell-run sweep on any
    // strategy, so the batching knob must be a no-op: identical currents
    // AND identical deposition cycles (the same per-particle sweep
    // executed either way).
    for cfg in [
        KernelConfig::HybridNoSort,
        KernelConfig::Rhocell,
        KernelConfig::RhocellIncrSortVpu,
        KernelConfig::BaselineIncrSort,
    ] {
        let ([a, b], cycles) = run_both_paths(cfg, ShapeOrder::Cic, 200);
        assert_currents_bitwise_equal(&a, &b, cfg.label());
        assert_eq!(
            cycles[0].to_bits(),
            cycles[1].to_bits(),
            "{}: fallback must execute the identical per-particle sweep",
            cfg.label()
        );
    }
}

#[test]
fn baseline_matches_reference_cic() {
    check_config(KernelConfig::Baseline, ShapeOrder::Cic, 200);
}

#[test]
fn baseline_incrsort_matches_reference_cic() {
    check_config(KernelConfig::BaselineIncrSort, ShapeOrder::Cic, 200);
}

#[test]
fn rhocell_matches_reference_cic() {
    check_config(KernelConfig::Rhocell, ShapeOrder::Cic, 200);
}

#[test]
fn rhocell_incrsort_matches_reference_cic() {
    check_config(KernelConfig::RhocellIncrSort, ShapeOrder::Cic, 200);
}

#[test]
fn rhocell_vpu_matches_reference_cic() {
    check_config(KernelConfig::RhocellIncrSortVpu, ShapeOrder::Cic, 200);
}

#[test]
fn matrix_only_matches_reference_cic() {
    check_config(KernelConfig::MatrixOnly, ShapeOrder::Cic, 200);
}

#[test]
fn hybrid_nosort_matches_reference_cic() {
    check_config(KernelConfig::HybridNoSort, ShapeOrder::Cic, 200);
}

#[test]
fn hybrid_globalsort_matches_reference_cic() {
    check_config(KernelConfig::HybridGlobalSort, ShapeOrder::Cic, 200);
}

#[test]
fn fullopt_matches_reference_cic() {
    check_config(KernelConfig::FullOpt, ShapeOrder::Cic, 200);
}

#[test]
fn baseline_matches_reference_qsp() {
    check_config(KernelConfig::Baseline, ShapeOrder::Qsp, 150);
}

#[test]
fn rhocell_vpu_matches_reference_qsp() {
    check_config(KernelConfig::RhocellIncrSortVpu, ShapeOrder::Qsp, 150);
}

#[test]
fn fullopt_matches_reference_qsp() {
    check_config(KernelConfig::FullOpt, ShapeOrder::Qsp, 150);
}

#[test]
fn matrix_only_matches_reference_qsp() {
    check_config(KernelConfig::MatrixOnly, ShapeOrder::Qsp, 150);
}

/// A dense single-cell population exercises long same-cell runs (tile
/// residency in the MPU kernel) including the odd-count tail.
#[test]
fn fullopt_dense_single_cell_odd_count() {
    let geom = GridGeometry::new([4, 4, 4], [0.0; 3], [1.0e-6; 3], 2);
    let layout = TileLayout::new(&geom, [4, 4, 4]);
    let mut rng = StdRng::seed_from_u64(7);
    let mut container = ParticleContainer::new(&layout, -1.0e-19, 9.1e-31);
    for _ in 0..33 {
        let _ = container.inject(
            &layout,
            &geom,
            Departure {
                x: rng.gen_range(1.0e-6..2.0e-6),
                y: rng.gen_range(1.0e-6..2.0e-6),
                z: rng.gen_range(1.0e-6..2.0e-6),
                ux: rng.gen_range(-1.0..1.0),
                uy: 0.3,
                uz: -0.1,
                w: 1e9,
            },
        );
    }
    let (rjx, _, _) = reference_deposit(&geom, ShapeOrder::Cic, &container);
    let pool = WorkerPool::sequential();
    let exec = pool.exec(SchedulerPolicy::Static);
    let mut m = Machine::new(MachineConfig::lx2());
    let mut fields = FieldArrays::new(&geom);
    let mut dep = KernelConfig::FullOpt.build(ShapeOrder::Cic);
    dep.prepare(&mut m, &geom, &layout, &mut container);
    dep.sort_step_parallel(&mut m, &geom, &layout, &mut container, false, exec);
    dep.deposit_step_parallel(&mut m, &geom, &layout, &container, &mut fields, exec);
    assert!(max_rel_err(&fields.jx, &rjx) < 1e-12);
}

/// Repeated steps with moving particles must stay correct (GPMA moves,
/// rebuilds and periodic wrap all on the hot path).
#[test]
fn fullopt_stays_correct_across_moving_steps() {
    let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [0.5e-6; 3], 2);
    let layout = TileLayout::new(&geom, [4, 4, 4]);
    let mut container = random_container(&geom, &layout, 300, 99);
    let pool = WorkerPool::sequential();
    let exec = pool.exec(SchedulerPolicy::Static);
    let mut m = Machine::new(MachineConfig::lx2());
    let mut fields = FieldArrays::new(&geom);
    let mut dep = KernelConfig::FullOpt.build(ShapeOrder::Cic);
    dep.prepare(&mut m, &geom, &layout, &mut container);

    let mut rng = StdRng::seed_from_u64(5);
    for step in 0..5 {
        // Scramble positions (bounded displacement, periodic wrap).
        for tile in &mut container.tiles {
            let live: Vec<usize> = tile.soa.live_indices().collect();
            for p in live {
                let pos = geom.wrap_position([
                    tile.soa.x[p] + rng.gen_range(-0.4e-6..0.4e-6),
                    tile.soa.y[p] + rng.gen_range(-0.4e-6..0.4e-6),
                    tile.soa.z[p] + rng.gen_range(-0.4e-6..0.4e-6),
                ]);
                tile.soa.x[p] = pos[0];
                tile.soa.y[p] = pos[1];
                tile.soa.z[p] = pos[2];
            }
        }
        dep.sort_step_parallel(&mut m, &geom, &layout, &mut container, step % 3 == 2, exec);
        container.check_invariants();
        dep.deposit_step_parallel(&mut m, &geom, &layout, &container, &mut fields, exec);
        let (rjx, rjy, rjz) = reference_deposit(&geom, ShapeOrder::Cic, &container);
        assert!(max_rel_err(&fields.jx, &rjx) < 1e-12, "step {step} jx");
        assert!(max_rel_err(&fields.jy, &rjy) < 1e-12, "step {step} jy");
        assert!(max_rel_err(&fields.jz, &rjz) < 1e-12, "step {step} jz");
    }
}

/// Sorted configurations must spend fewer compute cycles than unsorted
/// ones at high density — the locality effect Table 1 quantifies.
#[test]
fn sorting_reduces_baseline_compute_cycles() {
    // The grid must exceed the cache hierarchy for locality to matter
    // (guarded 36^3 x 3 arrays ~ 1.1 MB > L2) and density must be high
    // enough to amortise sorting (the paper's Table 1 uses PPC = 128;
    // PPC = 8 is its stated break-even point).
    let geom = GridGeometry::new([32, 32, 32], [0.0; 3], [0.5e-6; 3], 2);
    let layout = TileLayout::new(&geom, [8, 8, 8]);
    let pool = WorkerPool::sequential();
    let exec = pool.exec(SchedulerPolicy::Static);
    let mut cycles = Vec::new();
    for cfg in [KernelConfig::Baseline, KernelConfig::BaselineIncrSort] {
        let mut container = random_container(&geom, &layout, 8 * 32 * 32 * 32, 11);
        let mut m = Machine::new(MachineConfig::lx2());
        let mut fields = FieldArrays::new(&geom);
        let mut dep = cfg.build(ShapeOrder::Cic);
        dep.prepare(&mut m, &geom, &layout, &mut container);
        dep.sort_step_parallel(&mut m, &geom, &layout, &mut container, false, exec);
        dep.deposit_step_parallel(&mut m, &geom, &layout, &container, &mut fields, exec);
        cycles.push(m.counters().cycles(mpic_machine::Phase::Compute));
    }
    assert!(
        cycles[1] < cycles[0],
        "sorted compute {} must beat unsorted {}",
        cycles[1],
        cycles[0]
    );
}
