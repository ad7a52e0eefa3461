//! GPMA design-space ablation (beyond the paper's figures): how the gap
//! headroom ratio trades sorting cost against rebuild frequency. Small
//! gaps save memory but force frequent O(N_tile) rebuilds; large gaps
//! make every insertion O(1) at the cost of sparser traversal.

use mpic_core::{workloads, Simulation};
use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_machine::Phase;

fn main() {
    let ppc = 16;
    let steps = 6;
    println!("== GPMA ablation: gap ratio vs sort cost (PPC {ppc}, {steps} steps) ==");
    println!(
        "{:>10} {:>12} {:>10} {:>12} {:>12}",
        "gap ratio", "sort ms/st", "rebuilds", "empty ratio", "wall ms/st"
    );
    for gap in [0.05, 0.15, 0.3, 0.5, 1.0] {
        let cfg = workloads::uniform_plasma_config(
            [16, 16, 16],
            ShapeOrder::Cic,
            KernelConfig::FullOpt,
            42,
        );
        let (geom, layout) = cfg.grid();
        let mut electrons = workloads::load_uniform_plasma(
            &geom,
            &layout,
            workloads::UNIFORM_DENSITY,
            ppc,
            workloads::UNIFORM_UTH,
            42,
        );
        electrons.set_gap_ratio(gap);
        let mut sim = Simulation::from_parts(cfg, electrons, None);
        sim.run(steps);
        let clock = sim.cfg.machine.clone();
        let rep = sim.report();
        println!(
            "{:>10.2} {:>12.4} {:>10} {:>12.3} {:>12.3}",
            gap,
            1e3 * clock.cycles_to_seconds(rep.phase_cycles(Phase::Sort)) / steps as f64,
            sim.electrons.rebuilds_accum(),
            sim.electrons.empty_ratio(),
            1e3 * clock.cycles_to_seconds(rep.total_cycles()) / steps as f64,
        );
    }
}
