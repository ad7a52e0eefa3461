//! Host-performance probe for the unified execution layer and the
//! cell-run sweeps: runs the uniform-plasma FullOpt workload at several
//! worker counts under each scheduler policy — across the execution
//! modes per-particle (`off`), cell runs at the walk price (`on`) and
//! cell runs at the stream price (`on+simd`) — verifies the determinism
//! contract, and records host wall-clock numbers in `BENCH_step.json`
//! so the perf trajectory of the step loop is tracked in-repo.
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
//!   fields must match the per-particle path bitwise across ALL modes.
//!   Cycles are excluded: charging fewer of them is the point.
//! * **Baseline counter parity** — the WarpX direct-scatter kernel runs
//!   the same within-mode sweep (its batched currents regroup FP adds,
//!   so no cross-mode bit check there).
//! * **Perf regression** — before overwriting `BENCH_step.json`, the
//!   committed record is read back: if the host CPU count matches the
//!   recorded run, a fresh single-thread ms/step more than 25% above
//!   the committed value (per execution mode) fails the probe. A
//!   differing CPU count skips the gate (numbers from a different host
//!   class are not comparable).
//! * **Cost model** — the emulated numbers are deterministic, so the
//!   fresh single-thread `emulated_ms_per_step` of every mode and the
//!   whole `phase_cycles_1w` block must reproduce the committed record
//!   digit for digit (whatever the host); a cost-model change has to
//!   re-record the file in the same reviewed change.
//!
//! When the host has too few CPUs to run the largest worker count in
//! parallel, `thread_scaling` records `skipped-insufficient-cores` and
//! the multi-worker speedup is written as JSON `null`: an
//! oversubscribed measurement is scheduler noise, not data.
//!
//! Usage: `probe_parallel [ppc] [steps] [workers-csv] [--scheduler
//! static|stealing] [--batching on|off] [--simd on|off]` (defaults: 8,
//! 3, `1,2,4,7`, both policies, modes per-particle + batched-scalar +
//! batched-SIMD). Passing an explicit worker list or restricting the
//! policy/batching/simd skips the `BENCH_step.json` write and the
//! regression gate, so auxiliary runs never clobber the tracked
//! record. `--simd on` implies the cell-run sweep: it selects that
//! sweep's pricing, so the `(batching off, simd on)` combination is
//! never run (it is a configuration no-op by contract).

use std::time::Instant;

use mpic_core::workloads;
use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_machine::{Phase, SchedulerPolicy, WorkerPool};

/// Grid of the probe workload (matches `mpic_bench::UNIFORM_CELLS`).
const CELLS: [usize; 3] = [32, 32, 32];

/// Grid of the baseline-kernel parity sweep (smaller: the unsorted
/// direct-scatter kernel is the slowest configuration per particle).
const BASELINE_CELLS: [usize; 3] = [16, 16, 16];

/// Spawn/join cycles per default-configuration step that the pre-pool
/// scheme paid (and the pool replaces with condvar wakes): gather+push,
/// deposit, and the field solve's three slab sweeps.
const PHASE_DISPATCHES_PER_STEP: f64 = 5.0;

/// Single-thread regression tolerance of the perf gate: a fresh
/// ms/step more than this factor above the committed record fails.
const GATE_TOLERANCE: f64 = 1.25;

fn batching_label(on: bool) -> &'static str {
    if on {
        "on"
    } else {
        "off"
    }
}

/// Human/JSON label of an execution mode: `off` (per-particle), `on`
/// (cell runs, walked), `on+simd` (cell runs, streamed).
fn mode_label(batching: bool, simd: bool) -> &'static str {
    match (batching, simd) {
        (false, _) => "off",
        (true, false) => "on",
        (true, true) => "on+simd",
    }
}

struct ProbeResult {
    workers: usize,
    policy: SchedulerPolicy,
    batching: bool,
    simd: bool,
    host_ms_per_step: f64,
    emulated_ms_per_step: f64,
    /// Bit patterns of jx, jy, jz (worker-count invariance gate).
    currents: [Vec<u64>; 3],
    /// Bit patterns of ex, ey, ez, bx, by, bz (sharded-solve gate).
    fields: [Vec<u64>; 6],
    cycles: [f64; 8],
    particles: usize,
}

fn run_probe(
    cells: [usize; 3],
    kernel: KernelConfig,
    workers: usize,
    policy: SchedulerPolicy,
    batching: bool,
    simd: bool,
    ppc: usize,
    steps: usize,
) -> ProbeResult {
    let mut sim = workloads::uniform_plasma_sim(cells, ppc, ShapeOrder::Cic, kernel, 42);
    sim.cfg.num_workers = workers;
    sim.cfg.scheduler = policy;
    sim.cfg.batching = batching;
    sim.cfg.simd = simd;
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
    let emulated_ms_per_step = 1e3 * sim.cfg.machine.cycles_to_seconds(measured) / steps as f64;
    let mut cycles = [0.0; 8];
    for (i, p) in Phase::ALL.iter().enumerate() {
        cycles[i] = sim.machine.counters().cycles(*p);
    }
    ProbeResult {
        workers,
        policy,
        batching,
        simd,
        host_ms_per_step,
        emulated_ms_per_step,
        currents: [&sim.fields.jx, &sim.fields.jy, &sim.fields.jz]
            .map(|a| a.as_slice().iter().map(|v| v.to_bits()).collect()),
        fields: [
            &sim.fields.ex,
            &sim.fields.ey,
            &sim.fields.ez,
            &sim.fields.bx,
            &sim.fields.by,
            &sim.fields.bz,
        ]
        .map(|a| a.as_slice().iter().map(|v| v.to_bits()).collect()),
        cycles,
        particles: sim.num_particles(),
    }
}

/// Compares every run against the first **of its execution mode**:
/// currents, fields and per-phase cycles must be bit-identical across
/// worker counts and scheduler policies. Returns whether the whole set
/// is clean.
fn check_parity(label: &str, results: &[ProbeResult]) -> bool {
    let mut ok = true;
    for (batching, simd) in [(false, false), (true, false), (true, true)] {
        let group: Vec<&ProbeResult> = results
            .iter()
            .filter(|r| r.batching == batching && r.simd == simd)
            .collect();
        let Some(base) = group.first() else {
            continue;
        };
        for r in &group[1..] {
            let what = format!(
                "{}w/{} and {}w/{} (mode {})",
                base.workers,
                base.policy.label(),
                r.workers,
                r.policy.label(),
                mode_label(batching, simd),
            );
            for (name, i) in [("jx", 0), ("jy", 1), ("jz", 2)] {
                if r.currents[i] != base.currents[i] {
                    eprintln!("FAIL [{label}]: {name} differs between {what}");
                    ok = false;
                }
            }
            for (name, i) in [
                ("ex", 0),
                ("ey", 1),
                ("ez", 2),
                ("bx", 3),
                ("by", 4),
                ("bz", 5),
            ] {
                if r.fields[i] != base.fields[i] {
                    eprintln!("FAIL [{label}]: {name} differs between {what}");
                    ok = false;
                }
            }
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

/// Cross-mode value parity: FullOpt's cell-run sweep, at either
/// pricing, must agree bitwise with the per-particle path in currents
/// AND fields (cycles excluded by design). Each mode present in the sweep
/// is compared against the first mode's representative; with fewer
/// than two modes there is nothing to compare.
fn check_cross_mode_values(label: &str, results: &[ProbeResult]) -> bool {
    let Some(base) = results.first() else {
        return true;
    };
    let mut ok = true;
    for (batching, simd) in [(false, false), (true, false), (true, true)] {
        if (batching, simd) == (base.batching, base.simd) {
            continue;
        }
        let Some(r) = results
            .iter()
            .find(|r| r.batching == batching && r.simd == simd)
        else {
            continue;
        };
        let what = format!(
            "mode {} and mode {}",
            mode_label(base.batching, base.simd),
            mode_label(batching, simd)
        );
        for (name, i) in [("jx", 0), ("jy", 1), ("jz", 2)] {
            if base.currents[i] != r.currents[i] {
                eprintln!("FAIL [{label}]: {name} differs between {what}");
                ok = false;
            }
        }
        for (name, i) in [
            ("ex", 0),
            ("ey", 1),
            ("ez", 2),
            ("bx", 3),
            ("by", 4),
            ("bz", 5),
        ] {
            if base.fields[i] != r.fields[i] {
                eprintln!("FAIL [{label}]: {name} differs between {what}");
                ok = false;
            }
        }
    }
    ok
}

/// Measures the per-dispatch cost of (a) the pre-pool scheme — spawning
/// and joining `workers - 1` fresh threads — and (b) waking the
/// persistent pool. Returns `(spawn_us, pool_us)` per dispatch.
fn measure_dispatch_overhead(workers: usize) -> (f64, f64) {
    const REPS: u32 = 100;
    let spawn_us = {
        let t0 = Instant::now();
        for _ in 0..REPS {
            let handles: Vec<_> = (1..workers).map(|_| std::thread::spawn(|| {})).collect();
            for h in handles {
                let _ = h.join();
            }
        }
        t0.elapsed().as_secs_f64() * 1e6 / REPS as f64
    };
    let pool_us = {
        let pool = WorkerPool::new(workers);
        for _ in 0..10 {
            pool.broadcast(&|_| {}); // Warm the parked threads.
        }
        let t0 = Instant::now();
        for _ in 0..REPS {
            pool.broadcast(&|_| {});
        }
        t0.elapsed().as_secs_f64() * 1e6 / REPS as f64
    };
    (spawn_us, pool_us)
}

/// First number following `"key":` in a JSON text (no string escapes —
/// adequate for the file this bin writes itself).
fn json_number_after(text: &str, key: &str) -> Option<f64> {
    let pos = text.find(key)?;
    let rest = text[pos + key.len()..].trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `workload` line of BENCH_step.json.
fn workload_json(ppc: usize, steps: usize, particles: usize) -> String {
    format!(
        "  \"workload\": {{\"cells\": [{}, {}, {}], \"ppc\": {ppc}, \"kernel\": \"FullOpt\", \"shape\": \"CIC\", \"measured_steps\": {steps}, \"particles\": {particles}}},\n",
        CELLS[0], CELLS[1], CELLS[2]
    )
}

/// The `emulated_ms_per_step` field closing a `results` row.
fn emulated_json(r: &ProbeResult) -> String {
    format!("\"emulated_ms_per_step\": {:.4}}}", r.emulated_ms_per_step)
}

/// One mode's row of the `phase_cycles_1w` block (no trailing comma).
fn phase_cycles_json(r: &ProbeResult) -> String {
    let cy = |p: Phase| r.cycles[Phase::ALL.iter().position(|q| *q == p).unwrap()];
    format!(
        "    \"{}\": {{\"push\": {:.1}, \"gather\": {:.1}, \"compute\": {:.1}, \"reduce\": {:.1}}}",
        mode_label(r.batching, r.simd),
        cy(Phase::Push),
        cy(Phase::Gather),
        cy(Phase::Compute),
        cy(Phase::Reduce),
    )
}

/// Cost-model gate: the emulated numbers are pure functions of (code,
/// workload), so each mode's fresh single-thread record must appear in
/// the committed BENCH_step.json (`text`) exactly as it would be
/// written. `None` when the record holds a different workload.
fn check_cost_model(text: &str, workload: &str, mode_runs: &[&ProbeResult]) -> Option<bool> {
    if !text.contains(workload) {
        return None;
    }
    let mut ok = true;
    for r in mode_runs {
        let mode = mode_label(r.batching, r.simd);
        let row = text.lines().find(|l| {
            l.contains("\"workers\": 1,")
                && l.contains(&format!("\"batching\": \"{}\"", batching_label(r.batching)))
                && l.contains(&format!("\"simd\": \"{}\"", batching_label(r.simd)))
        });
        if !row.is_some_and(|l| l.contains(&emulated_json(r))) {
            eprintln!(
                "FAIL [cost model]: mode={mode} emulated ms/step {:.4} is not the committed value ({})",
                r.emulated_ms_per_step,
                row.map_or("no such row", str::trim)
            );
            ok = false;
        }
        let cycles = phase_cycles_json(r);
        if !text.lines().any(|l| l.trim_end_matches(',') == cycles) {
            eprintln!(
                "FAIL [cost model]: phase_cycles_1w row differs from the committed record: {}",
                cycles.trim()
            );
            ok = false;
        }
    }
    Some(ok)
}

/// Extracts the perf-gate inputs from the committed BENCH_step.json:
/// the recorded host CPU count plus each single-thread (workers == 1)
/// result as `(mode_label, host_ms_per_step)`. Records written before
/// the batching sweep existed carry no `batching` field and are
/// treated as per-particle ("off"); records written before the SIMD
/// sweep carry no `simd` field and are treated as scalar.
fn read_committed_gate(text: &str) -> Option<(usize, Vec<(String, f64)>)> {
    let cpus = json_number_after(text, "\"host_cpus\"")? as usize;
    let mut entries = Vec::new();
    for line in text.lines() {
        // The trailing comma pins exactly 1 (not 10, 16, ...).
        if line.contains("\"workers\": 1,") && line.contains("\"host_ms_per_step\"") {
            let mode = mode_label(
                line.contains("\"batching\": \"on\""),
                line.contains("\"simd\": \"on\""),
            );
            if let Some(ms) = json_number_after(line, "\"host_ms_per_step\"") {
                entries.push((mode.to_string(), ms));
            }
        }
    }
    if entries.is_empty() {
        return None;
    }
    Some((cpus, entries))
}

fn main() {
    let mut policy_flag: Option<SchedulerPolicy> = None;
    let mut batching_flag: Option<bool> = None;
    let mut simd_flag: Option<bool> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scheduler" {
            let v = args.next().expect("--scheduler needs static|stealing");
            policy_flag =
                Some(SchedulerPolicy::parse(&v).unwrap_or_else(|| {
                    panic!("unknown scheduler {v:?} (expected static|stealing)")
                }));
        } else if a == "--batching" {
            let v = args.next().expect("--batching needs on|off");
            batching_flag = Some(match v.as_str() {
                "on" => true,
                "off" => false,
                other => panic!("unknown batching {other:?} (expected on|off)"),
            });
        } else if a == "--simd" {
            let v = args.next().expect("--simd needs on|off");
            simd_flag = Some(match v.as_str() {
                "on" => true,
                "off" => false,
                other => panic!("unknown simd {other:?} (expected on|off)"),
            });
        } else {
            positional.push(a);
        }
    }
    let mut positional = positional.into_iter();
    let ppc: usize = positional.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let steps: usize = positional.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let custom_workers: Option<Vec<usize>> = positional.next().map(|a| {
        a.split(',')
            .map(|w| {
                w.parse()
                    .expect("workers-csv must be comma-separated integers")
            })
            .collect()
    });
    let write_bench = custom_workers.is_none()
        && policy_flag.is_none()
        && batching_flag.is_none()
        && simd_flag.is_none();
    let policies: Vec<SchedulerPolicy> = match policy_flag {
        Some(p) => vec![p],
        None => vec![SchedulerPolicy::Static, SchedulerPolicy::Stealing],
    };
    let batching_modes: Vec<bool> = match batching_flag {
        Some(b) => vec![b],
        None => vec![false, true],
    };
    let simd_modes: Vec<bool> = match simd_flag {
        Some(s) => vec![s],
        None => vec![false, true],
    };
    // Execution modes: the cross product minus `(batching off, simd
    // on)` — SIMD is a mode of the batched sweep, and that combination
    // is a configuration no-op by contract. Canonical sweep: off, on,
    // on+simd.
    let modes: Vec<(bool, bool)> = batching_modes
        .iter()
        .flat_map(|&b| simd_modes.iter().map(move |&s| (b, s)))
        .filter(|&(b, s)| b || !s)
        .collect();
    if modes.is_empty() {
        eprintln!("--batching off --simd on selects no execution mode (SIMD requires batching)");
        std::process::exit(1);
    }
    let mut worker_counts = custom_workers.unwrap_or_else(|| vec![1, 2, 4, 7]);
    // Always carry the sequential reference: parity against a 1-worker
    // run is the point of the gate.
    if !worker_counts.contains(&1) {
        worker_counts.insert(0, 1);
    }
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Read the committed record BEFORE measurements overwrite it: the
    // regression gate compares fresh numbers against it at the end.
    let committed_text = std::fs::read_to_string("BENCH_step.json").ok();
    let committed = committed_text.as_deref().and_then(read_committed_gate);

    let policy_labels: Vec<&str> = policies.iter().map(|p| p.label()).collect();
    let mode_labels: Vec<&str> = modes.iter().map(|&(b, s)| mode_label(b, s)).collect();
    println!(
        "== probe_parallel: uniform {CELLS:?} ppc {ppc}, FullOpt/CIC, {steps} steps, workers {worker_counts:?}, schedulers {policy_labels:?}, modes {mode_labels:?} =="
    );
    println!("host CPUs available: {host_cpus}");
    println!(
        "{:>8} {:>10} {:>9} {:>14} {:>16} {:>12}",
        "workers", "scheduler", "mode", "host ms/step", "emulated ms/step", "particles"
    );

    // The 1-worker run is policy-independent (inline dispatch), so run
    // it once per execution mode; multi-worker counts sweep every
    // policy.
    let mut results: Vec<ProbeResult> = Vec::new();
    for &(batching, simd) in &modes {
        for &w in &worker_counts {
            let run_policies: &[SchedulerPolicy] = if w == 1 { &policies[..1] } else { &policies };
            for &policy in run_policies {
                let r = run_probe(
                    CELLS,
                    KernelConfig::FullOpt,
                    w,
                    policy,
                    batching,
                    simd,
                    ppc,
                    steps,
                );
                println!(
                    "{:>8} {:>10} {:>9} {:>14.1} {:>16.3} {:>12}",
                    r.workers,
                    r.policy.label(),
                    mode_label(r.batching, r.simd),
                    r.host_ms_per_step,
                    r.emulated_ms_per_step,
                    r.particles
                );
                results.push(r);
            }
        }
    }

    // Determinism gate, per execution mode.
    let deterministic = check_parity("FullOpt", &results);
    println!(
        "determinism (fields + per-phase cycles, workers {worker_counts:?} x {policy_labels:?} x modes {mode_labels:?}): {}",
        if deterministic {
            "BIT-IDENTICAL"
        } else {
            "FAILED"
        }
    );

    // Cross-mode value parity: FullOpt batched (scalar and SIMD) is
    // value-exact — as long as all modes took the same global-sort
    // schedule, which is only guaranteed while the adaptive policy
    // cannot have fired.
    let cross_mode = if cross_mode_gate_sound(steps) {
        let ok = check_cross_mode_values("FullOpt", &results);
        if modes.len() > 1 {
            println!(
                "cross-mode values (currents + fields, modes {mode_labels:?}): {}",
                if ok { "BIT-IDENTICAL" } else { "FAILED" }
            );
        }
        ok
    } else {
        println!(
            "batched vs per-particle values: skipped ({steps} steps reaches the adaptive \
             sort policy's min interval — sort schedules may legitimately diverge across \
             cost models)"
        );
        true
    };

    // Direct-scatter counter-parity gate (within each execution mode).
    let mut baseline_results: Vec<ProbeResult> = Vec::new();
    for &(batching, simd) in &modes {
        for &w in &worker_counts {
            let run_policies: &[SchedulerPolicy] = if w == 1 { &policies[..1] } else { &policies };
            for &policy in run_policies {
                baseline_results.push(run_probe(
                    BASELINE_CELLS,
                    KernelConfig::Baseline,
                    w,
                    policy,
                    batching,
                    simd,
                    ppc.min(4),
                    2,
                ));
            }
        }
    }
    let baseline_parity = check_parity("Baseline", &baseline_results);
    println!(
        "baseline direct-scatter counter parity (workers {worker_counts:?} x {policy_labels:?} x modes {mode_labels:?}): {}",
        if baseline_parity {
            "BIT-IDENTICAL"
        } else {
            "FAILED"
        }
    );

    let base = &results[0];
    let max_workers = worker_counts.iter().copied().max().unwrap_or(1);
    let single_thread = |batching: bool, simd: bool| -> Option<&ProbeResult> {
        results
            .iter()
            .find(|r| r.workers == 1 && r.batching == batching && r.simd == simd)
    };
    let s1 = base.host_ms_per_step;
    let best_at = |w: usize, batching: bool, simd: bool| -> f64 {
        results
            .iter()
            .filter(|r| r.workers == w && r.batching == batching && r.simd == simd)
            .map(|r| r.host_ms_per_step)
            .fold(f64::INFINITY, f64::min)
    };
    let s_max = best_at(max_workers, base.batching, base.simd);
    let speedup_max = s1 / s_max;
    println!(
        "{max_workers}-worker speedup over 1-worker (mode {}, best policy): {speedup_max:.2}x",
        mode_label(base.batching, base.simd)
    );

    // The headline of the batching sweep: single-thread batched vs
    // per-particle, host and emulated.
    let mut batched_host_speedup = None;
    let mut batched_emulated_speedup = None;
    if let (Some(off), Some(on)) = (single_thread(false, false), single_thread(true, false)) {
        let host = off.host_ms_per_step / on.host_ms_per_step;
        let emulated = off.emulated_ms_per_step / on.emulated_ms_per_step;
        println!(
            "single-thread batched vs per-particle: host {host:.2}x, emulated {emulated:.2}x \
             ({:.1} -> {:.1} host ms/step, {:.3} -> {:.3} emulated ms/step)",
            off.host_ms_per_step,
            on.host_ms_per_step,
            off.emulated_ms_per_step,
            on.emulated_ms_per_step
        );
        batched_host_speedup = Some(host);
        batched_emulated_speedup = Some(emulated);
    }

    // The headline of the pricing sweep: single-thread cell runs
    // streamed vs walked. Emulated only — both run the same host
    // arithmetic, so a host ratio would measure nothing but the cost
    // model's own bookkeeping.
    let mut simd_emulated_speedup = None;
    if let (Some(walk), Some(stream)) = (single_thread(true, false), single_thread(true, true)) {
        let emulated = walk.emulated_ms_per_step / stream.emulated_ms_per_step;
        println!(
            "single-thread streamed vs walked cell runs: emulated {emulated:.2}x \
             ({:.3} -> {:.3} emulated ms/step)",
            walk.emulated_ms_per_step, stream.emulated_ms_per_step
        );
        simd_emulated_speedup = Some(emulated);
    }

    // Dispatch-overhead saving of the persistent pool vs the per-phase
    // spawn scheme it replaced.
    let overhead_workers = max_workers.max(2);
    let (spawn_us, pool_us) = measure_dispatch_overhead(overhead_workers);
    let saved_ms_per_step = (spawn_us - pool_us) * PHASE_DISPATCHES_PER_STEP / 1e3;
    println!(
        "dispatch overhead at {overhead_workers} workers: spawn/join {spawn_us:.1} us vs pool wake {pool_us:.1} us \
         => ~{saved_ms_per_step:.2} ms/step saved at {PHASE_DISPATCHES_PER_STEP} phase dispatches/step"
    );

    // Serialization canary (unchanged from PR 4): skipped outright when
    // the host cannot run any measured worker count in parallel.
    let canary = results
        .iter()
        .filter(|r| {
            r.batching == base.batching
                && r.simd == base.simd
                && r.workers > base.workers
                && r.workers <= host_cpus
        })
        .max_by_key(|r| r.workers)
        .map(|r| r.workers);
    let scaling_ok = match canary {
        None => {
            println!(
                "thread-scaling canary: skipped ({host_cpus} host CPU(s), smallest parallel run needs more)"
            );
            true
        }
        Some(w) => {
            let speedup = s1 / best_at(w, base.batching, base.simd);
            if speedup < 1.3 {
                eprintln!(
                    "WARN: {host_cpus}-CPU host but {w}-worker speedup is only {speedup:.2}x (<1.3x): the tile pipeline may be serialized"
                );
                false
            } else {
                true
            }
        }
    };
    let canary_assessable = canary.is_some();

    // Each execution mode's single-thread run, and the workload line
    // they were measured on: the deterministic part of the record.
    let mode_runs: Vec<&ProbeResult> = modes
        .iter()
        .filter_map(|&(b, s)| single_thread(b, s))
        .collect();
    let workload = workload_json(ppc, steps, base.particles);

    // Perf-regression and cost-model gates against the committed record
    // (only for the canonical invocation, which is about to overwrite
    // it).
    let mut gate_failed = false;
    if write_bench {
        match &committed {
            None => println!("perf gate: no committed BENCH_step.json single-thread record — skipped"),
            Some((cpus, _)) if *cpus != host_cpus => println!(
                "perf gate: skipped (committed host_cpus {cpus} != current {host_cpus}; numbers not comparable)"
            ),
            Some((_, entries)) => {
                for (mode, old_ms) in entries {
                    let fresh = results
                        .iter()
                        .find(|r| r.workers == 1 && mode_label(r.batching, r.simd) == mode)
                        .map(|r| r.host_ms_per_step);
                    let Some(fresh) = fresh else { continue };
                    if fresh > old_ms * GATE_TOLERANCE {
                        eprintln!(
                            "FAIL [perf gate]: single-thread mode={mode} regressed >{:.0}%: {fresh:.1} ms/step vs committed {old_ms:.1}",
                            (GATE_TOLERANCE - 1.0) * 100.0
                        );
                        gate_failed = true;
                    } else {
                        println!(
                            "perf gate: single-thread mode={mode} ok ({fresh:.1} ms/step vs committed {old_ms:.1}, tolerance {:.0}%)",
                            (GATE_TOLERANCE - 1.0) * 100.0
                        );
                    }
                }
            }
        }
        let cost_model = committed_text
            .as_deref()
            .and_then(|text| check_cost_model(text, &workload, &mode_runs));
        match cost_model {
            None => println!("cost-model gate: no committed record of this workload — skipped"),
            Some(true) => println!(
                "cost-model gate: emulated ms/step and phase_cycles_1w reproduce the committed record exactly"
            ),
            Some(false) => gate_failed = true,
        }
    }

    // BENCH_step.json: the tracked perf record for this step loop.
    if write_bench {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"probe_parallel\",\n");
        json.push_str(&workload);
        json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
        json.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"workers\": {}, \"scheduler\": \"{}\", \"batching\": \"{}\", \"simd\": \"{}\", \"host_ms_per_step\": {:.2}, {}{}\n",
                r.workers,
                r.policy.label(),
                batching_label(r.batching),
                batching_label(r.simd),
                r.host_ms_per_step,
                emulated_json(r),
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
        // Per-phase emulated cycle breakdown of each execution mode's
        // single-thread run: mode-level totals hide where a PR moved
        // the cycles (e.g. the roofline crossover lowers Gather
        // specifically while Push stays bitwise pinned).
        json.push_str("  \"phase_cycles_1w\": {\n");
        for (i, r) in mode_runs.iter().enumerate() {
            json.push_str(&phase_cycles_json(r));
            json.push_str(if i + 1 < mode_runs.len() { ",\n" } else { "\n" });
        }
        json.push_str("  },\n");
        json.push_str(&format!(
            "  \"spawn_overhead\": {{\"workers\": {overhead_workers}, \"spawn_us_per_dispatch\": {spawn_us:.1}, \"pool_us_per_dispatch\": {pool_us:.1}, \"phase_dispatches_per_step\": {PHASE_DISPATCHES_PER_STEP}, \"est_saved_ms_per_step\": {saved_ms_per_step:.3}}},\n"
        ));
        if let (Some(h), Some(e)) = (batched_host_speedup, batched_emulated_speedup) {
            json.push_str(&format!(
                "  \"speedup_batched_vs_per_particle_1w\": {{\"host\": {h:.3}, \"emulated\": {e:.3}}},\n"
            ));
        }
        if let Some(e) = simd_emulated_speedup {
            json.push_str(&format!(
                "  \"speedup_simd_vs_scalar_1w\": {{\"emulated\": {e:.3}}},\n"
            ));
        }
        // A host too small to run the largest worker count in
        // parallel oversubscribes cores: the measured ratio is
        // scheduler noise (~1.0x), not a property of the code, so
        // record null rather than a number downstream tooling could
        // mistake for a regression or a win.
        if canary_assessable {
            json.push_str(&format!(
                "  \"speedup_{max_workers}_workers_vs_1\": {speedup_max:.3},\n"
            ));
        } else {
            json.push_str(&format!(
                "  \"speedup_{max_workers}_workers_vs_1\": null,\n"
            ));
        }
        json.push_str(&format!(
            "  \"determinism\": \"{}\",\n  \"cross_mode_value_parity\": \"{}\",\n  \"baseline_counter_parity\": \"{}\",\n  \"perf_gate\": \"{}\",\n  \"thread_scaling\": \"{}\"\n}}\n",
            if deterministic {
                "bit-identical"
            } else {
                "FAILED"
            },
            if !cross_mode_gate_sound(steps) {
                "skipped-sort-schedule"
            } else if cross_mode {
                "bit-identical"
            } else {
                "FAILED"
            },
            if baseline_parity {
                "bit-identical"
            } else {
                "FAILED"
            },
            if gate_failed {
                "FAILED"
            } else if committed.as_ref().is_some_and(|(c, _)| *c == host_cpus) {
                "ok"
            } else {
                "skipped"
            },
            if !canary_assessable {
                "skipped-insufficient-cores"
            } else if scaling_ok {
                "ok"
            } else {
                "below-threshold"
            }
        ));
        let path = "BENCH_step.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    } else {
        println!(
            "custom worker list / scheduler / batching / simd restriction: skipping BENCH_step.json write and perf gate"
        );
    }

    if !deterministic || !cross_mode || !baseline_parity || gate_failed {
        std::process::exit(1);
    }
}
