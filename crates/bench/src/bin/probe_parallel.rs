//! Cost-model record of the canonical run: the uniform-plasma FullOpt
//! workload on one worker, per-particle (`off`) and in cell runs
//! (`on+simd`). `BENCH_step.json` holds only deterministic numbers, so
//! the probe renders it and compares it to the committed file as a
//! string; a difference rewrites the file and exits 1, so a diff in
//! `BENCH_step.json` *is* a cost-model change. Host ms/step is printed
//! and recorded nowhere (`benchmark/` measures host time). Worker-count
//! determinism and cross-mode value parity are `conf_` tests.
//!
//! Usage: `probe_parallel`, from the repository root (the record is read
//! from and written to the current directory).

use std::time::Instant;

use mpic_core::workloads;
use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_machine::Phase;

/// Grid of the canonical workload (matches `mpic_bench::UNIFORM_CELLS`).
const CELLS: [usize; 3] = [32, 32, 32];
const PPC: usize = 8;
/// Measured steps, after one warm-up step.
const STEPS: usize = 3;

/// The tracked record, relative to the current directory.
const RECORD_PATH: &str = "BENCH_step.json";

/// Execution modes as `(label, batching and simd)`, in record order. The
/// cell-run sweep needs both knobs: either alone is a no-op by contract.
const MODES: [(&str, bool); 2] = [("off", false), ("on+simd", true)];

/// The phases of the per-mode cycle breakdown, in record order.
const PHASES: [(&str, Phase); 4] = [
    ("push", Phase::Push),
    ("gather", Phase::Gather),
    ("compute", Phase::Compute),
    ("reduce", Phase::Reduce),
];

/// One mode's run: emulated ms/step, its `phase_cycles_1w` row and the
/// particle count.
fn run_mode((label, runs): (&str, bool)) -> (f64, String, usize) {
    let mut sim =
        workloads::uniform_plasma_sim(CELLS, PPC, ShapeOrder::Cic, KernelConfig::FullOpt, 42);
    (sim.cfg.batching, sim.cfg.simd) = (runs, runs);
    sim.step(); // Warm-up: first-touch, cold host caches.
    let skip = sim.report().len();
    let t0 = Instant::now();
    sim.run(STEPS);
    let host_ms = t0.elapsed().as_secs_f64() * 1e3 / STEPS as f64;
    let measured: f64 = sim.report().steps[skip..].iter().map(|s| s.total()).sum();
    let ms = 1e3 * sim.cfg.machine.cycles_to_seconds(measured) / STEPS as f64;
    println!("{label:>9}: {host_ms:.1} host ms/step, {ms:.3} emulated ms/step");
    let cycles =
        PHASES.map(|(name, p)| format!("\"{name}\": {:.1}", sim.machine.counters().cycles(p)));
    let row = format!("    \"{label}\": {{{}}}", cycles.join(", "));
    (ms, row, sim.num_particles())
}

fn main() {
    println!(
        "== probe_parallel: uniform {CELLS:?} ppc {PPC}, FullOpt/CIC, 1 worker, {STEPS} steps =="
    );
    let [(off_ms, off_row, particles), (runs_ms, runs_row, _)] = MODES.map(run_mode);
    let record = format!(
        "{{\n  \"bench\": \"probe_parallel\",\n  \"workload\": {{\"cells\": [{}, {}, {}], \"ppc\": {PPC}, \"kernel\": \"FullOpt\", \"shape\": \"CIC\", \"measured_steps\": {STEPS}, \"particles\": {particles}}},\n  \"emulated_ms_per_step\": {{\"{}\": {off_ms:.4}, \"{}\": {runs_ms:.4}}},\n  \"phase_cycles_1w\": {{\n{off_row},\n{runs_row}\n  }},\n  \"speedup_simd_vs_scalar_1w\": {{\"emulated\": {:.3}}}\n}}\n",
        CELLS[0],
        CELLS[1],
        CELLS[2],
        MODES[0].0,
        MODES[1].0,
        off_ms / runs_ms,
    );
    if std::fs::read_to_string(RECORD_PATH).is_ok_and(|committed| committed == record) {
        println!("cost-model gate: {RECORD_PATH} reproduced byte for byte");
        return;
    }
    match std::fs::write(RECORD_PATH, &record) {
        Ok(()) => eprintln!(
            "FAIL [cost model]: the record differs from the committed {RECORD_PATH}; \
             rewrote it — `git diff {RECORD_PATH}` is the cost-model change"
        ),
        Err(e) => eprintln!("FAIL [cost model]: could not write {RECORD_PATH}: {e}"),
    }
    std::process::exit(1);
}
