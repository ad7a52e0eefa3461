//! The cell-run sweeps versus the per-particle reference paths, end to
//! end through `Simulation::step`.
//!
//! There is one cell-run implementation (lane packs over same-cell
//! runs, at the streaming prices), and only the sorted matrix
//! configurations run it, when `batching` and `simd` are both on; each
//! knob alone is a no-op. Lane-vs-reference *value* coverage lives
//! here (run sweep vs per-particle), in
//! `conf_lane_boris_push_matches_scalar_bitwise` and in the gather unit
//! tests; `conf_simd_fullopt_values_bitwise_memory_phases_cheaper` also
//! guards which phases the run prices lower.
//!
//! Contract under test (the PR 2-4 determinism contract extended to the
//! batched path, plus the batched-vs-reference value claims):
//!
//! * batched runs are bit-identical across worker counts — fields,
//!   currents, particle counts and per-phase `MachineCounters`;
//! * gather/push values and the matrix kernel's currents are
//!   bit-identical between the batched and per-particle paths (gathers
//!   are read-only, so caching a run's node block is value-exact, and
//!   the MPU kernel runs the same code in every mode);
//! * configurations without cell-run sweeps — unsorted strategies, the
//!   direct-scatter and rhocell kernels on any strategy, and either knob
//!   on its own — ignore the knobs entirely (the reference sweep,
//!   bitwise in values and cycles).

use matrix_pic::core::{workloads, Simulation};
use matrix_pic::deposit::{KernelConfig, ShapeOrder};
use matrix_pic::grid::FieldArrays;
use matrix_pic::machine::Phase;

/// The uniform workload with the cell-run sweeps requested (`batching`
/// and `simd` both on) or not.
fn uniform(kernel: KernelConfig, runs: bool) -> Simulation {
    uniform_knobs(kernel, runs, runs)
}

/// The uniform workload with each knob set on its own.
fn uniform_knobs(kernel: KernelConfig, batching: bool, simd: bool) -> Simulation {
    let mut sim = workloads::uniform_plasma_sim([16, 16, 16], 4, ShapeOrder::Cic, kernel, 9);
    sim.cfg.batching = batching;
    sim.cfg.simd = simd;
    sim
}

/// Runs `steps` and snapshots fields + per-phase cycles + N.
fn run(mut sim: Simulation, workers: usize, steps: usize) -> (FieldArrays, [f64; 8], usize) {
    sim.cfg.num_workers = workers;
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
fn conf_batched_rhocell_values_match_per_particle_bitwise() {
    // The rhocell kernel has no cell-run sweep: batching leaves it on the
    // per-particle path (cycles included, pinned by the fallback test).
    let (ref_f, _, _) = run(uniform(KernelConfig::RhocellIncrSortVpu, false), 1, 2);
    let (bat_f, _, _) = run(uniform(KernelConfig::RhocellIncrSortVpu, true), 1, 2);
    assert_values_bitwise("RhocellVPU batched vs per-particle", &ref_f, &bat_f);
}

#[test]
fn conf_batched_path_is_bit_identical_across_workers() {
    // Batching preserves the determinism contract — any worker count,
    // same bits everywhere including per-phase counters.
    let reference = run(uniform(KernelConfig::FullOpt, true), 1, 3);
    for workers in [2usize, 4, 7] {
        let got = run(uniform(KernelConfig::FullOpt, true), workers, 3);
        assert_bitwise(&format!("batched FullOpt {workers}w"), &reference, &got);
    }
}

#[test]
fn conf_batched_unsorted_fallback_is_bitwise_noop() {
    // HybridNoSort provides no cell-grouped order, the direct-scatter
    // and rhocell kernels have no cell-run sweep even on a sorted
    // strategy, and batching without simd requests none: the knobs must
    // change nothing at all — values AND cycles.
    for (kernel, simd) in [
        (KernelConfig::HybridNoSort, true),
        (KernelConfig::RhocellIncrSortVpu, true),
        (KernelConfig::BaselineIncrSort, true),
        (KernelConfig::FullOpt, false),
    ] {
        let a = run(uniform(kernel, false), 1, 2);
        let b = run(uniform_knobs(kernel, true, simd), 1, 2);
        assert_bitwise(&format!("{kernel:?} simd={simd} fallback"), &a, &b);
    }
}

#[test]
fn conf_batched_imbalanced_lwfa_with_empty_tiles_stays_deterministic() {
    // One hot tile, the rest empty, moving window + absorbing walls:
    // empty tiles must charge nothing and the batched path must stay
    // bit-identical across workers on the skewed input.
    let build = || {
        let mut sim = workloads::imbalanced_lwfa_sim([16, 16, 32], 2, 33);
        (sim.cfg.batching, sim.cfg.simd) = (true, true);
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
    let reference = run(build(), 1, 2);
    for workers in [3usize, 7] {
        let got = run(build(), workers, 2);
        assert_bitwise(&format!("batched LWFA {workers}w"), &reference, &got);
    }
}

/// The run sweep's contract against the per-particle path. The value
/// half — every field and current equal bit for bit — pins that the lane
/// packs preserve per-particle/per-node association and add order, and
/// that a price never leaks into a value (a charge call that also moved
/// data, or a price-dependent sort schedule, would show here). The cost
/// half: the memory-bound phases the run sweep re-prices — Preprocess
/// (streamed staging loads), Compute (streamed rhocell accumulates),
/// Sort (the incremental sweep's three unit-stride position streams),
/// Gather (register-reuse block gathers instead of the per-particle
/// walk) and Reduce (the fused rhocell→grid traversal) — charge strictly
/// fewer cycles; every remaining phase (Push, FieldSolve, Other) is
/// bitwise.
fn assert_run_sweep_contract(
    label: &str,
    per_particle: &(FieldArrays, [f64; 8], usize),
    runs: &(FieldArrays, [f64; 8], usize),
) {
    assert_eq!(per_particle.2, runs.2, "{label}: particle counts diverged");
    assert_values_bitwise(label, &per_particle.0, &runs.0);
    for (i, p) in Phase::ALL.iter().enumerate() {
        let cheaper = matches!(
            p,
            Phase::Preprocess | Phase::Compute | Phase::Sort | Phase::Gather | Phase::Reduce
        );
        if cheaper {
            assert!(
                runs.1[i] < per_particle.1[i],
                "{label}: {p:?} must charge fewer cycles in the \
                 run sweep ({} vs {})",
                runs.1[i],
                per_particle.1[i]
            );
        } else {
            assert_eq!(
                per_particle.1[i].to_bits(),
                runs.1[i].to_bits(),
                "{label}: {p:?} cycles diverged ({} vs {})",
                per_particle.1[i],
                runs.1[i]
            );
        }
    }
}

#[test]
fn conf_simd_fullopt_values_bitwise_memory_phases_cheaper() {
    // Single-step and multi-step: FullOpt's run sweep against its
    // per-particle path — values equal bit for bit, the memory-bound
    // phases strictly cheaper.
    for steps in [1usize, 3] {
        let per_particle = run(uniform(KernelConfig::FullOpt, false), 1, steps);
        let runs = run(uniform(KernelConfig::FullOpt, true), 1, steps);
        assert_run_sweep_contract(
            &format!("FullOpt runs vs per-particle ({steps} steps)"),
            &per_particle,
            &runs,
        );
    }
}

#[test]
fn conf_simd_without_batching_is_a_bitwise_noop() {
    // The cell-run sweeps need both knobs: without batching
    // `Depositor::mode` stays `PerParticle`, so simd must change nothing
    // — values AND cycles, on both a sorted and an unsorted kernel
    // config.
    for kernel in [KernelConfig::FullOpt, KernelConfig::HybridNoSort] {
        let off = run(uniform(kernel, false), 1, 2);
        let on = run(uniform_knobs(kernel, false, true), 1, 2);
        assert_bitwise(&format!("{kernel:?} simd-no-batching noop"), &off, &on);
    }
}
