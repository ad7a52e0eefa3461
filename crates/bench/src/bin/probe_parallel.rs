//! Determinism and cost-model gate for the unified execution layer and
//! the cell-run sweeps: runs the uniform-plasma FullOpt workload at
//! several worker counts under both scheduler policies — in both
//! execution modes, per-particle (`off`) and cell runs (`on+simd`:
//! `batching` and `simd` on) — and checks everything about those runs
//! that is exact. Host wall-clock per row is printed for the reader and
//! recorded nowhere: `benchmark/` is the instrument for host time.
//!
//! Gates enforced (exit code nonzero on any failure, so every
//! invocation doubles as a CI gate):
//!
//! * **Determinism** — within each execution mode, every (worker count,
//!   scheduler) combination must reproduce the mode's first run bit for
//!   bit: all nine field arrays AND per-phase emulated cycles.
//! * **Cross-mode value parity** — FullOpt's cell-run sweep is
//!   value-exact (the gather caches read-only node blocks, its lane
//!   packs preserve every add order, and the matrix kernel is run-based
//!   either way) and the pricing never touches values — so currents and
//!   fields must match the per-particle path bitwise.
//!   Cycles are excluded: charging fewer of them is the point.
//! * **Baseline counter parity** — the WarpX direct-scatter kernel runs
//!   the same within-mode sweep (its batched currents regroup FP adds,
//!   so no cross-mode bit check there).
//! * **Cost model** — `BENCH_step.json` holds only deterministic
//!   numbers (each mode's single-thread emulated ms/step and per-phase
//!   cycles, the emulated speedup, the three verdicts above), so
//!   the canonical invocation renders the record and compares it to the
//!   committed file as a string. Any difference rewrites the file and
//!   fails the probe: a diff in `BENCH_step.json` *is* a cost-model
//!   change, and has to be committed in the same reviewed change.
//!
//! Usage: `probe_parallel [ppc] [steps] [workers-csv]` (defaults: 8, 3,
//! `1,2,4,7`). Every run sweeps both policies and both modes. Only
//! the argument-free invocation touches `BENCH_step.json` (read from and
//! written to the current directory: run it from the repository root).

use std::time::Instant;

use mpic_core::workloads;
use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_machine::{Phase, SchedulerPolicy};

/// Grid of the probe workload (matches `mpic_bench::UNIFORM_CELLS`).
const CELLS: [usize; 3] = [32, 32, 32];

/// Grid of the baseline-kernel parity sweep (smaller: the unsorted
/// direct-scatter kernel is the slowest configuration per particle).
const BASELINE_CELLS: [usize; 3] = [16, 16, 16];

/// The tracked record, relative to the current directory.
const RECORD_PATH: &str = "BENCH_step.json";

/// Execution modes as `(batching, simd)`, in sweep order. The cell-run
/// sweep needs both knobs: either alone is a configuration no-op by
/// contract.
const MODES: [(bool, bool); 2] = [(false, false), (true, true)];

const POLICIES: [SchedulerPolicy; 2] = [SchedulerPolicy::Static, SchedulerPolicy::Stealing];

/// The arrays of the bit gates, in [`ProbeResult::fields`] order.
const FIELD_NAMES: [&str; 9] = ["jx", "jy", "jz", "ex", "ey", "ez", "bx", "by", "bz"];

/// Human/JSON label of an execution mode: `off` (per-particle),
/// `on+simd` (cell runs).
fn mode_label(mode: (bool, bool)) -> &'static str {
    if mode == (true, true) {
        "on+simd"
    } else {
        "off"
    }
}

struct ProbeResult {
    workers: usize,
    policy: SchedulerPolicy,
    mode: (bool, bool),
    host_ms_per_step: f64,
    emulated_ms_per_step: f64,
    /// Bit patterns of the currents and fields ([`FIELD_NAMES`]).
    fields: [Vec<u64>; 9],
    cycles: [f64; 8],
    particles: usize,
}

impl ProbeResult {
    fn what(&self) -> String {
        format!("{}w/{}", self.workers, self.policy.label())
    }
}

fn run_probe(
    cells: [usize; 3],
    kernel: KernelConfig,
    workers: usize,
    policy: SchedulerPolicy,
    mode: (bool, bool),
    ppc: usize,
    steps: usize,
) -> ProbeResult {
    let mut sim = workloads::uniform_plasma_sim(cells, ppc, ShapeOrder::Cic, kernel, 42);
    sim.cfg.num_workers = workers;
    sim.cfg.scheduler = policy;
    (sim.cfg.batching, sim.cfg.simd) = mode;
    sim.step(); // Warm-up: first-touch, pool growth, cold host caches.
    let skip = sim.report().len();
    let t0 = Instant::now();
    sim.run(steps);
    let host_ms_per_step = t0.elapsed().as_secs_f64() * 1e3 / steps as f64;
    let measured: f64 = sim
        .report()
        .steps
        .iter()
        .skip(skip)
        .map(|s| s.total())
        .sum();
    let f = &sim.fields;
    ProbeResult {
        workers,
        policy,
        mode,
        host_ms_per_step,
        emulated_ms_per_step: 1e3 * sim.cfg.machine.cycles_to_seconds(measured) / steps as f64,
        fields: [
            &f.jx, &f.jy, &f.jz, &f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz,
        ]
        .map(|a| a.as_slice().iter().map(|v| v.to_bits()).collect()),
        cycles: Phase::ALL.map(|p| sim.machine.counters().cycles(p)),
        particles: sim.num_particles(),
    }
}

/// Every mode x worker count x policy of one workload. The 1-worker run
/// is policy-independent (inline dispatch), so it runs once per mode.
fn sweep(
    cells: [usize; 3],
    kernel: KernelConfig,
    ppc: usize,
    steps: usize,
    worker_counts: &[usize],
    print_rows: bool,
) -> Vec<ProbeResult> {
    let mut results = Vec::new();
    for mode in MODES {
        for &w in worker_counts {
            for &policy in &POLICIES[..if w == 1 { 1 } else { 2 }] {
                let r = run_probe(cells, kernel, w, policy, mode, ppc, steps);
                if print_rows {
                    println!(
                        "{:>8} {:>10} {:>9} {:>14.1} {:>16.3} {:>12}",
                        r.workers,
                        r.policy.label(),
                        mode_label(r.mode),
                        r.host_ms_per_step,
                        r.emulated_ms_per_step,
                        r.particles
                    );
                }
                results.push(r);
            }
        }
    }
    results
}

/// Reports every array of `r` that differs bitwise from `base`'s.
fn fields_match(label: &str, what: &str, base: &ProbeResult, r: &ProbeResult) -> bool {
    let mut ok = true;
    for (name, (a, b)) in FIELD_NAMES.iter().zip(base.fields.iter().zip(&r.fields)) {
        if a != b {
            eprintln!("FAIL [{label}]: {name} differs between {what}");
            ok = false;
        }
    }
    ok
}

/// Compares every run against the first **of its execution mode**:
/// currents, fields and per-phase cycles must be bit-identical across
/// worker counts and scheduler policies. Returns whether the whole set
/// is clean.
fn check_parity(label: &str, results: &[ProbeResult]) -> bool {
    let mut ok = true;
    for mode in MODES {
        let mut group = results.iter().filter(|r| r.mode == mode);
        let Some(base) = group.next() else {
            continue;
        };
        for r in group {
            let what = format!(
                "{} and {} (mode {})",
                base.what(),
                r.what(),
                mode_label(mode)
            );
            ok &= fields_match(label, &what, base, r);
            for (i, p) in Phase::ALL.iter().enumerate() {
                if r.cycles[i].to_bits() != base.cycles[i].to_bits() {
                    eprintln!(
                        "FAIL [{label}]: {p:?} cycles differ between {what}: {} vs {}",
                        base.cycles[i], r.cycles[i]
                    );
                    ok = false;
                }
            }
        }
    }
    ok
}

/// Whether the cross-mode bit gate is sound for a run of `steps`
/// measured steps (plus one warm-up): the adaptive sort policy's
/// perf trigger consumes *emulated deposition cycles*, which the
/// batched cost model intentionally lowers — so once the policy can
/// fire (`min_sort_interval` steps in), the two modes may global-sort
/// on different steps, reorder particles within cells and legitimately
/// diverge bitwise even though each mode is individually correct. The
/// gate therefore only applies while no trigger can possibly have
/// fired in either mode.
fn cross_mode_gate_sound(steps: usize) -> bool {
    let min_interval = mpic_particles::SortPolicy::default().min_sort_interval as usize;
    1 + steps < min_interval
}

/// Cross-mode value parity: FullOpt's cell-run sweep must agree bitwise
/// with the per-particle path in currents AND fields (cycles excluded
/// by design). `single` holds each mode's single-thread run in
/// [`MODES`] order.
fn check_cross_mode_values(label: &str, single: &[&ProbeResult]) -> bool {
    let what = format!(
        "mode {} and mode {}",
        mode_label(single[0].mode),
        mode_label(single[1].mode)
    );
    fields_match(label, &what, single[0], single[1])
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "bit-identical"
    } else {
        "FAILED"
    }
}

/// `BENCH_step.json`: the deterministic record of the canonical run.
/// `single` holds each mode's single-thread run in [`MODES`] order.
fn render_record(ppc: usize, steps: usize, single: &[&ProbeResult], verdicts: [&str; 3]) -> String {
    let ms = |m: usize| single[m].emulated_ms_per_step;
    let ms_rows: Vec<String> = single
        .iter()
        .map(|r| format!("\"{}\": {:.4}", mode_label(r.mode), r.emulated_ms_per_step))
        .collect();
    // Per-phase emulated cycle breakdown of each execution mode's
    // single-thread run: mode-level totals hide where a PR moved the
    // cycles (e.g. the roofline crossover lowers Gather specifically
    // while Push stays bitwise pinned).
    let cy = |r: &ProbeResult, p: Phase| r.cycles[Phase::ALL.iter().position(|q| *q == p).unwrap()];
    let cycle_rows: Vec<String> = single
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"push\": {:.1}, \"gather\": {:.1}, \"compute\": {:.1}, \"reduce\": {:.1}}}",
                mode_label(r.mode),
                cy(r, Phase::Push),
                cy(r, Phase::Gather),
                cy(r, Phase::Compute),
                cy(r, Phase::Reduce),
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"probe_parallel\",\n  \"workload\": {{\"cells\": [{}, {}, {}], \"ppc\": {ppc}, \"kernel\": \"FullOpt\", \"shape\": \"CIC\", \"measured_steps\": {steps}, \"particles\": {}}},\n  \"emulated_ms_per_step\": {{{}}},\n  \"phase_cycles_1w\": {{\n{}\n  }},\n  \"speedup_simd_vs_scalar_1w\": {{\"emulated\": {:.3}}},\n  \"determinism\": \"{}\",\n  \"cross_mode_value_parity\": \"{}\",\n  \"baseline_counter_parity\": \"{}\"\n}}\n",
        CELLS[0],
        CELLS[1],
        CELLS[2],
        single[0].particles,
        ms_rows.join(", "),
        cycle_rows.join(",\n"),
        ms(0) / ms(1),
        verdicts[0],
        verdicts[1],
        verdicts[2]
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    // Only the argument-free invocation is the recorded one.
    let canonical = args.len() == 0;
    let ppc: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let steps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let mut worker_counts: Vec<usize> = args.next().map_or(vec![1, 2, 4, 7], |a| {
        a.split(',')
            .map(|w| {
                w.parse()
                    .expect("workers-csv must be comma-separated integers")
            })
            .collect()
    });
    // Always carry the sequential reference: parity against a 1-worker
    // run is the point of the gate.
    if !worker_counts.contains(&1) {
        worker_counts.insert(0, 1);
    }
    let sweep_label = format!(
        "workers {worker_counts:?} x {:?} x modes {:?}",
        POLICIES.map(|p| p.label()),
        MODES.map(mode_label)
    );
    println!(
        "== probe_parallel: uniform {CELLS:?} ppc {ppc}, FullOpt/CIC, {steps} steps, {sweep_label} =="
    );
    println!(
        "{:>8} {:>10} {:>9} {:>14} {:>16} {:>12}",
        "workers", "scheduler", "mode", "host ms/step", "emulated ms/step", "particles"
    );
    let results = sweep(
        CELLS,
        KernelConfig::FullOpt,
        ppc,
        steps,
        &worker_counts,
        true,
    );

    let deterministic = check_parity("FullOpt", &results);
    println!(
        "determinism (fields + per-phase cycles, {sweep_label}): {}",
        verdict(deterministic).to_uppercase()
    );

    // Each execution mode's single-thread run.
    let single: Vec<&ProbeResult> = MODES
        .iter()
        .filter_map(|&mode| results.iter().find(|r| r.workers == 1 && r.mode == mode))
        .collect();

    // Cross-mode value parity: FullOpt's cell-run sweep is value-exact
    // — as long as both modes took the same global-sort schedule, which
    // is only guaranteed while the adaptive policy cannot have fired.
    let cross_mode = if cross_mode_gate_sound(steps) {
        let ok = check_cross_mode_values("FullOpt", &single);
        println!(
            "cross-mode values (currents + fields): {}",
            verdict(ok).to_uppercase()
        );
        verdict(ok)
    } else {
        println!(
            "batched vs per-particle values: skipped ({steps} steps reaches the adaptive \
             sort policy's min interval — sort schedules may legitimately diverge across \
             cost models)"
        );
        "skipped-sort-schedule"
    };

    // Direct-scatter counter-parity gate (within each execution mode).
    let baseline = sweep(
        BASELINE_CELLS,
        KernelConfig::Baseline,
        ppc.min(4),
        2,
        &worker_counts,
        false,
    );
    let baseline_parity = check_parity("Baseline", &baseline);
    println!(
        "baseline direct-scatter counter parity ({sweep_label}): {}",
        verdict(baseline_parity).to_uppercase()
    );

    let ms = |m: usize| single[m].emulated_ms_per_step;
    println!(
        "single-thread emulated ms/step: {:.3} per-particle -> {:.3} cell runs ({:.2}x)",
        ms(0),
        ms(1),
        ms(0) / ms(1)
    );

    let mut failed = !deterministic || cross_mode == verdict(false) || !baseline_parity;
    if canonical {
        let verdicts = [verdict(deterministic), cross_mode, verdict(baseline_parity)];
        let record = render_record(ppc, steps, &single, verdicts);
        if std::fs::read_to_string(RECORD_PATH).is_ok_and(|committed| committed == record) {
            println!("cost-model gate: {RECORD_PATH} reproduced byte for byte");
        } else {
            failed = true;
            match std::fs::write(RECORD_PATH, &record) {
                Ok(()) => eprintln!(
                    "FAIL [cost model]: the record differs from the committed {RECORD_PATH}; \
                     rewrote it — `git diff {RECORD_PATH}` is the cost-model change"
                ),
                Err(e) => eprintln!("FAIL [cost model]: could not write {RECORD_PATH}: {e}"),
            }
        }
    } else {
        println!("custom arguments: {RECORD_PATH} neither compared nor written");
    }
    if failed {
        std::process::exit(1);
    }
}
