//! The cell-run sweeps versus the per-particle reference paths, and the
//! two pricings of the cell-run sweeps against each other, end to end
//! through `Simulation::step`.
//!
//! There is one cell-run implementation (lane packs over same-cell
//! runs), and only the sorted matrix configurations run it: `batching`
//! selects it and `simd` selects its price model. Lane-vs-reference
//! *value* coverage therefore lives in the `batched_*` tests below (run
//! sweep vs per-particle), in `conf_lane_boris_push_matches_scalar_bitwise`
//! and in the gather unit tests; the `conf_simd_*` tests compare the
//! same arithmetic under two pricings and guard the *pricing* contract.
//!
//! Contract under test (the PR 2-4 determinism contract extended to the
//! batched path, plus the batched-vs-reference value claims):
//!
//! * batched runs are bit-identical across worker counts AND scheduler
//!   policies — fields, currents, particle counts and per-phase
//!   `MachineCounters`;
//! * gather/push values and the matrix kernel's currents are
//!   bit-identical between the batched and per-particle paths (gathers
//!   are read-only, so caching a run's node block is value-exact, and
//!   the MPU kernel runs the same code in every mode);
//! * configurations without cell-run sweeps — unsorted strategies, and
//!   the direct-scatter and rhocell kernels on any strategy — ignore the
//!   knob entirely (the reference sweep, bitwise in values and cycles).

use matrix_pic::core::{workloads, Simulation};
use matrix_pic::deposit::{KernelConfig, ShapeOrder};
use matrix_pic::grid::FieldArrays;
use matrix_pic::machine::{Phase, SchedulerPolicy};

fn uniform(kernel: KernelConfig, batching: bool) -> Simulation {
    let mut sim = workloads::uniform_plasma_sim([16, 16, 16], 4, ShapeOrder::Cic, kernel, 9);
    sim.cfg.batching = batching;
    sim
}

/// Runs `steps` and snapshots fields + per-phase cycles + N.
fn run(
    mut sim: Simulation,
    workers: usize,
    policy: SchedulerPolicy,
    steps: usize,
) -> (FieldArrays, [f64; 8], usize) {
    sim.cfg.num_workers = workers;
    sim.cfg.scheduler = policy;
    sim.run(steps);
    let mut cycles = [0.0; 8];
    for (i, p) in Phase::ALL.iter().enumerate() {
        cycles[i] = sim.machine.counters().cycles(*p);
    }
    (sim.fields.clone(), cycles, sim.num_particles())
}

fn field_list(f: &FieldArrays) -> [(&'static str, &matrix_pic::grid::Array3); 9] {
    [
        ("jx", &f.jx),
        ("jy", &f.jy),
        ("jz", &f.jz),
        ("ex", &f.ex),
        ("ey", &f.ey),
        ("ez", &f.ez),
        ("bx", &f.bx),
        ("by", &f.by),
        ("bz", &f.bz),
    ]
}

fn assert_bitwise(
    label: &str,
    a: &(FieldArrays, [f64; 8], usize),
    b: &(FieldArrays, [f64; 8], usize),
) {
    assert_eq!(a.2, b.2, "{label}: particle counts diverged");
    for ((name, x), (_, y)) in field_list(&a.0).into_iter().zip(field_list(&b.0)) {
        let diverged = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .position(|(u, v)| u.to_bits() != v.to_bits());
        assert!(
            diverged.is_none(),
            "{label}: {name} diverged at {diverged:?}"
        );
    }
    for (i, p) in Phase::ALL.iter().enumerate() {
        assert_eq!(
            a.1[i].to_bits(),
            b.1[i].to_bits(),
            "{label}: {p:?} cycles diverged ({} vs {})",
            a.1[i],
            b.1[i]
        );
    }
}

/// Bitwise comparison of values only (fields/currents), cycles ignored —
/// the batched cost model intentionally charges fewer cycles.
fn assert_values_bitwise(label: &str, a: &FieldArrays, b: &FieldArrays) {
    for ((name, x), (_, y)) in field_list(a).into_iter().zip(field_list(b)) {
        let diverged = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .position(|(u, v)| u.to_bits() != v.to_bits());
        assert!(
            diverged.is_none(),
            "{label}: {name} diverged at {diverged:?}"
        );
    }
}

#[test]
fn conf_batched_fullopt_values_match_per_particle_bitwise() {
    // Gather batching is value-exact and the matrix kernel is run-based
    // either way: three FullOpt steps must agree bit for bit in every
    // field array, while the batched run charges strictly fewer
    // gather-phase cycles (the modelled saving).
    let (ref_f, ref_cy, n0) = run(
        uniform(KernelConfig::FullOpt, false),
        1,
        SchedulerPolicy::Static,
        3,
    );
    let (bat_f, bat_cy, n1) = run(
        uniform(KernelConfig::FullOpt, true),
        1,
        SchedulerPolicy::Static,
        3,
    );
    assert_eq!(n0, n1);
    assert_values_bitwise("FullOpt batched vs per-particle", &ref_f, &bat_f);
    let gather = Phase::ALL.iter().position(|p| *p == Phase::Gather).unwrap();
    assert!(
        bat_cy[gather] < ref_cy[gather],
        "batched gather must charge fewer cycles: {} vs {}",
        bat_cy[gather],
        ref_cy[gather]
    );
}

#[test]
fn conf_batched_rhocell_values_match_per_particle_bitwise() {
    // The rhocell kernel has no cell-run sweep: batching leaves it on the
    // per-particle path (cycles included, pinned by the fallback test).
    let (ref_f, _, _) = run(
        uniform(KernelConfig::RhocellIncrSortVpu, false),
        1,
        SchedulerPolicy::Static,
        2,
    );
    let (bat_f, _, _) = run(
        uniform(KernelConfig::RhocellIncrSortVpu, true),
        1,
        SchedulerPolicy::Static,
        2,
    );
    assert_values_bitwise("RhocellVPU batched vs per-particle", &ref_f, &bat_f);
}

#[test]
fn conf_batched_path_is_bit_identical_across_workers_and_policies() {
    // The acceptance gate of the tentpole: batching preserves the PR 2-4
    // contract — any worker count, either scheduler, same bits
    // everywhere including per-phase counters.
    let reference = run(
        uniform(KernelConfig::FullOpt, true),
        1,
        SchedulerPolicy::Static,
        3,
    );
    for workers in [2usize, 4, 7] {
        for policy in [SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
            let got = run(uniform(KernelConfig::FullOpt, true), workers, policy, 3);
            assert_bitwise(
                &format!("batched FullOpt {workers}w {}", policy.label()),
                &reference,
                &got,
            );
        }
    }
}

#[test]
fn conf_batched_unsorted_fallback_is_bitwise_noop() {
    // HybridNoSort provides no cell-grouped order, and the direct-scatter
    // and rhocell kernels have no cell-run sweep even on a sorted
    // strategy: the knob must change nothing at all — values AND cycles.
    for kernel in [
        KernelConfig::HybridNoSort,
        KernelConfig::RhocellIncrSortVpu,
        KernelConfig::BaselineIncrSort,
    ] {
        let a = run(uniform(kernel, false), 1, SchedulerPolicy::Static, 2);
        let b = run(uniform(kernel, true), 1, SchedulerPolicy::Static, 2);
        assert_bitwise(&format!("{kernel:?} fallback"), &a, &b);
    }
}

#[test]
fn conf_batched_imbalanced_lwfa_with_empty_tiles_stays_deterministic() {
    // One hot tile, the rest empty, moving window + absorbing walls:
    // empty tiles must charge nothing and the batched path must stay
    // bit-identical across workers and policies on the skewed input.
    let build = || {
        let mut sim = workloads::imbalanced_lwfa_sim([16, 16, 32], 2, 33);
        sim.cfg.batching = true;
        sim
    };
    let occupied = build()
        .electrons
        .tiles
        .iter()
        .filter(|t| !t.is_empty())
        .count();
    assert!(
        occupied < build().electrons.tiles.len(),
        "workload must actually contain empty tiles"
    );
    let reference = run(build(), 1, SchedulerPolicy::Static, 2);
    for workers in [3usize, 7] {
        for policy in [SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
            let got = run(build(), workers, policy, 2);
            assert_bitwise(
                &format!("batched LWFA {workers}w {}", policy.label()),
                &reference,
                &got,
            );
        }
    }
}

fn uniform_simd(kernel: KernelConfig, batching: bool, simd: bool) -> Simulation {
    let mut sim = uniform(kernel, batching);
    sim.cfg.simd = simd;
    sim
}

/// The cross-pricing contract of the cell-run sweeps (`simd` off =
/// `Pricing::Walk`, on = `Pricing::Stream`). Both sides run the same
/// lane arithmetic, so the value half — every field and current equal
/// bit for bit — now pins that a pricing never leaks into a value (a
/// charge call that also moved data, or a price-dependent sort
/// schedule, would show here). The pricing half is the live contract:
/// the memory-bound phases the streaming model re-prices — Preprocess
/// (streamed staging loads), Compute (streamed rhocell accumulates),
/// Sort (the incremental sweep's three unit-stride position streams),
/// Gather (register-reuse block gathers) and Reduce (the fused
/// rhocell→grid traversal) — charge strictly fewer cycles; every
/// remaining phase (Push, FieldSolve, Other) is bitwise.
fn assert_simd_streaming_contract(
    label: &str,
    scalar: &(FieldArrays, [f64; 8], usize),
    simd: &(FieldArrays, [f64; 8], usize),
) {
    assert_eq!(scalar.2, simd.2, "{label}: particle counts diverged");
    assert_values_bitwise(label, &scalar.0, &simd.0);
    for (i, p) in Phase::ALL.iter().enumerate() {
        let cheaper = matches!(
            p,
            Phase::Preprocess | Phase::Compute | Phase::Sort | Phase::Gather | Phase::Reduce
        );
        if cheaper {
            assert!(
                simd.1[i] < scalar.1[i],
                "{label}: {p:?} must charge fewer cycles under the \
                 streaming prices ({} vs {})",
                simd.1[i],
                scalar.1[i]
            );
        } else {
            assert_eq!(
                scalar.1[i].to_bits(),
                simd.1[i].to_bits(),
                "{label}: {p:?} cycles diverged ({} vs {})",
                scalar.1[i],
                simd.1[i]
            );
        }
    }
}

#[test]
fn conf_simd_fullopt_values_bitwise_memory_phases_cheaper() {
    // Single-step and multi-step: values are equal across the two
    // pricings while the memory-bound phases charge strictly fewer
    // cycles under the state-free streaming prices. (That the lane
    // packs themselves preserve per-particle/per-node association and
    // add order is pinned against the per-particle path by
    // `conf_batched_fullopt_values_match_per_particle_bitwise`.)
    for steps in [1usize, 3] {
        let scalar = run(
            uniform_simd(KernelConfig::FullOpt, true, false),
            1,
            SchedulerPolicy::Static,
            steps,
        );
        let simd = run(
            uniform_simd(KernelConfig::FullOpt, true, true),
            1,
            SchedulerPolicy::Static,
            steps,
        );
        assert_simd_streaming_contract(
            &format!("FullOpt simd vs scalar ({steps} steps)"),
            &scalar,
            &simd,
        );
    }
}

#[test]
fn conf_simd_path_is_bit_identical_across_workers_and_policies() {
    // The full knob matrix on the SIMD path: any worker count, either
    // scheduler — same bits everywhere including per-phase counters.
    let reference = run(
        uniform_simd(KernelConfig::FullOpt, true, true),
        1,
        SchedulerPolicy::Static,
        3,
    );
    for workers in [2usize, 4, 7] {
        for policy in [SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
            let got = run(
                uniform_simd(KernelConfig::FullOpt, true, true),
                workers,
                policy,
                3,
            );
            assert_bitwise(
                &format!("simd FullOpt {workers}w {}", policy.label()),
                &reference,
                &got,
            );
        }
    }
}

#[test]
fn conf_simd_without_batching_is_a_bitwise_noop() {
    // The pricing only exists inside the cell-run sweeps: without
    // batching `Depositor::mode` stays `PerParticle`, so the knob must
    // change nothing — values AND cycles, on both a sorted and an
    // unsorted kernel config.
    for kernel in [KernelConfig::FullOpt, KernelConfig::HybridNoSort] {
        let off = run(
            uniform_simd(kernel, false, false),
            1,
            SchedulerPolicy::Static,
            2,
        );
        let on = run(
            uniform_simd(kernel, false, true),
            1,
            SchedulerPolicy::Static,
            2,
        );
        assert_bitwise(&format!("{kernel:?} simd-no-batching noop"), &off, &on);
    }
}

#[test]
fn conf_batched_deposit_survives_stealing_chunk_boundaries() {
    // Drive the batched deposit directly with pinned stealing chunk
    // sizes so tile claims split at every batch boundary — including K
    // that does not divide the tile count and K larger than it. The
    // fixed-order apply/absorb must keep currents AND deposition cycles
    // bit-identical to the sequential run regardless of chunking.
    use matrix_pic::grid::{GridGeometry, TileLayout};
    use matrix_pic::machine::{Machine, MachineConfig, WorkerPool};

    let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1.0e-6; 3], 2);
    let layout = TileLayout::new(&geom, [4, 4, 4]); // 8 tiles to split.
    let deposit_once = |exec_chunk: Option<(usize, usize)>| {
        let mut container = workloads::load_uniform_plasma(
            &geom,
            &layout,
            workloads::UNIFORM_DENSITY,
            4,
            workloads::UNIFORM_UTH,
            7,
        );
        let mut m = Machine::new(MachineConfig::lx2());
        let mut fields = matrix_pic::grid::FieldArrays::new(&geom);
        let mut dep = KernelConfig::FullOpt.build(ShapeOrder::Cic);
        dep.set_batching(true);
        dep.prepare(&mut m, &geom, &layout, &mut container);
        dep.sort_step(&mut m, &geom, &layout, &mut container, false);
        match exec_chunk {
            None => dep.deposit_step(&mut m, &geom, &layout, &container, &mut fields),
            Some((workers, k)) => {
                let pool = WorkerPool::new(workers);
                let exec = pool.exec(SchedulerPolicy::Stealing).with_steal_chunk(k);
                dep.deposit_step_parallel(&mut m, &geom, &layout, &container, &mut fields, exec);
            }
        }
        (fields, m.counters().deposition_cycles())
    };
    let (want_f, want_cy) = deposit_once(None);
    for k in [1usize, 3, 7, 13] {
        for workers in [2usize, 4] {
            let (got_f, got_cy) = deposit_once(Some((workers, k)));
            for (name, x, y) in [
                ("jx", &want_f.jx, &got_f.jx),
                ("jy", &want_f.jy, &got_f.jy),
                ("jz", &want_f.jz, &got_f.jz),
            ] {
                let same = x
                    .as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(u, v)| u.to_bits() == v.to_bits());
                assert!(same, "workers {workers} chunk {k}: {name} diverged");
            }
            assert_eq!(
                want_cy.to_bits(),
                got_cy.to_bits(),
                "workers {workers} chunk {k}: deposition cycles diverged"
            );
        }
    }
}
