//! Shared harness utilities for regenerating every table and figure of
//! the paper's evaluation section.
//!
//! Each experiment is a binary in `src/bin/` printing the same rows or
//! series the paper reports:
//!
//! | binary | artefact |
//! |---|---|
//! | `fig1_breakdown` | Figure 1 — runtime breakdown of uniform plasma |
//! | `fig8_uniform` | Figure 8 — uniform plasma across PPC |
//! | `fig9_lwfa` | Figure 9 — LWFA wall time across PPC |
//! | `fig10_ablation` | Figure 10 — ablation study |
//! | `table1_cic` | Table 1 — CIC kernel breakdown |
//! | `table2_qsp` | Table 2 — QSP kernel breakdown |
//! | `table3_efficiency` | Table 3 — cross-platform peak efficiency |
//!
//! Criterion micro-benchmarks over the underlying kernels live in
//! `benches/`.

use mpic_core::{workloads, RunReport, Simulation};
use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_machine::{MachineConfig, Phase};

/// Standard grid for scaled-down uniform-plasma experiments. The paper
/// uses 256x128x128 on a 256-core node; one emulated core gets a
/// proportional slice whose footprint exceeds the (scaled) cache
/// hierarchy, keeping deposition memory-bound as on the real machine.
pub const UNIFORM_CELLS: [usize; 3] = [32, 32, 32];

/// Standard scaled LWFA grid (paper: 64x64x512).
pub const LWFA_CELLS: [usize; 3] = [16, 16, 128];

/// PPC sweep of the paper's Figure 8/9/10 (Table 4:
/// `num_particles_per_cell_each_dim` 1..128; we keep the emulation
/// tractable by capping the densest point).
pub const PPC_SWEEP: [usize; 3] = [1, 8, 64];

/// Steps per measurement (after a warm-up step).
pub const MEASURE_STEPS: usize = 3;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Configuration label (paper row name).
    pub label: String,
    /// Particles per cell.
    pub ppc: usize,
    /// Average wall ms per step.
    pub wall_ms: f64,
    /// Average deposition-kernel ms per step.
    pub dep_ms: f64,
    /// Phase breakdown, ms/step: preproc, compute, sort, reduce, gather,
    /// push, solve, other.
    pub phases_ms: [f64; 8],
    /// Kernel throughput, particles/s.
    pub pps: f64,
    /// Fraction of the configuration's unit peak achieved.
    pub peak_fraction: f64,
}

/// Runs a uniform-plasma configuration and measures it.
pub fn measure_uniform(
    cells: [usize; 3],
    ppc: usize,
    order: ShapeOrder,
    kernel: KernelConfig,
    steps: usize,
) -> Measurement {
    let mut sim = workloads::uniform_plasma_sim(cells, ppc, order, kernel, 42);
    if !kernel.strategy().provides_sorted_order() {
        // Unsorted configs are measured in their steady state: a long
        // production run has scrambled any initial ordering.
        workloads::shuffle_particles(&mut sim.electrons, &sim.geom, &sim.layout, 7);
    }
    run_and_measure(&mut sim, kernel, ppc, steps)
}

/// Runs an LWFA configuration and measures it.
pub fn measure_lwfa(
    cells: [usize; 3],
    ppc: usize,
    kernel: KernelConfig,
    steps: usize,
) -> Measurement {
    let mut sim = workloads::lwfa_sim(cells, ppc, ShapeOrder::Cic, kernel, 42);
    if !kernel.strategy().provides_sorted_order() {
        workloads::shuffle_particles(&mut sim.electrons, &sim.geom, &sim.layout, 7);
    }
    run_and_measure(&mut sim, kernel, ppc, steps)
}

fn run_and_measure(
    sim: &mut Simulation,
    kernel: KernelConfig,
    ppc: usize,
    steps: usize,
) -> Measurement {
    // Warm-up step excluded from measurement (cold caches, first-touch).
    sim.step();
    let skip = sim.report().len();
    sim.run(steps);
    let clock = sim.cfg.machine.clone();
    let rep = tail_report(sim.report(), skip);
    let peak_fraction = compute_peak_fraction(sim, kernel, &rep);
    Measurement {
        label: kernel.label().to_string(),
        ppc,
        wall_ms: 1e3 * clock.cycles_to_seconds(rep.total_cycles()) / steps as f64,
        dep_ms: 1e3 * rep.deposition_seconds(&clock) / steps as f64,
        phases_ms: phase_ms(&rep, &clock, steps),
        pps: rep.particles_per_second(&clock),
        peak_fraction,
    }
}

fn tail_report(rep: &RunReport, skip: usize) -> RunReport {
    let mut out = RunReport::default();
    for s in rep.steps.iter().skip(skip) {
        out.push(*s);
    }
    out
}

fn phase_ms(rep: &RunReport, clock: &MachineConfig, steps: usize) -> [f64; 8] {
    let mut out = [0.0; 8];
    for (i, p) in Phase::ALL.iter().enumerate() {
        out[i] = 1e3 * clock.cycles_to_seconds(rep.phase_cycles(*p)) / steps as f64;
    }
    out
}

fn compute_peak_fraction(sim: &Simulation, kernel: KernelConfig, rep: &RunReport) -> f64 {
    // Useful work of the measured steps: canonical FLOPs x particles.
    let per_particle = mpic_deposit::canonical_flops_per_particle(sim.cfg.shape);
    let processed: usize = rep.steps.iter().map(|s| s.particles).sum();
    let useful = per_particle * processed as f64;
    let cy = rep.deposition_cycles();
    if cy == 0.0 {
        return 0.0;
    }
    useful / (cy * kernel.unit_peak_flops_per_cycle(&sim.cfg.machine))
}

/// Pretty-prints a table of measurements with phase columns.
pub fn print_kernel_table(title: &str, rows: &[Measurement]) {
    println!("\n== {title} ==");
    println!(
        "{:>26} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "Configuration", "Total", "Preproc.", "Compute", "Sort", "Reduce", "Speedup"
    );
    println!(
        "{:>26} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "", "(ms)", "(ms)", "(ms)", "(ms)", "(ms)", "vs row 1"
    );
    let base = rows.first().map(|r| r.dep_ms).unwrap_or(1.0);
    for r in rows {
        println!(
            "{:>26} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>11.3} {:>8.2}x",
            r.label,
            r.dep_ms,
            r.phases_ms[0],
            r.phases_ms[1],
            r.phases_ms[2],
            r.phases_ms[3],
            base / r.dep_ms,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_uniform_smoke() {
        let m = measure_uniform([8, 8, 8], 2, ShapeOrder::Cic, KernelConfig::FullOpt, 1);
        assert!(m.wall_ms > 0.0);
        assert!(m.dep_ms > 0.0);
        assert!(m.pps > 0.0);
        assert!(m.peak_fraction > 0.0 && m.peak_fraction < 1.0);
    }

    #[test]
    fn sorted_config_classification() {
        // Which rows the harness shuffles into their unsorted steady state.
        let sorted = |k: KernelConfig| k.strategy().provides_sorted_order();
        assert!(sorted(KernelConfig::FullOpt));
        assert!(!sorted(KernelConfig::Baseline));
        assert!(sorted(KernelConfig::HybridGlobalSort));
    }
}
