//! Mini ablation study: run all five configurations of the paper's
//! Figure 10 on the same workload and print wall time + throughput.
//!
//! ```sh
//! cargo run --release --example ablation [ppc]
//! ```

use matrix_pic::core::workloads;
use matrix_pic::deposit::{KernelConfig, ShapeOrder};

fn main() {
    let ppc: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let steps = 4;
    let cells = [16, 16, 16];
    println!("ablation study: {cells:?} cells, PPC {ppc}, {steps} steps\n");
    println!(
        "{:>24} {:>12} {:>12} {:>9} {:>9} {:>7} {:>8} {:>12}",
        "configuration",
        "wall ms/st",
        "dep ms/st",
        "preproc",
        "compute",
        "sort",
        "reduce",
        "particles/s"
    );
    for kernel in KernelConfig::ABLATION {
        let mut sim = workloads::uniform_plasma_sim(cells, ppc, ShapeOrder::Cic, kernel, 7);
        if !kernel.strategy().provides_sorted_order() {
            workloads::shuffle_particles(&mut sim.electrons, &sim.geom, &sim.layout, 99);
        }
        sim.run(steps);
        let clock = sim.cfg.machine.clone();
        let rep = sim.report();
        use matrix_pic::machine::Phase;
        let ms = |p: Phase| 1e3 * clock.cycles_to_seconds(rep.phase_cycles(p)) / steps as f64;
        println!(
            "{:>24} {:>12.3} {:>12.3} {:>9.3} {:>9.3} {:>7.3} {:>8.3} {:>12.3e}",
            kernel.label(),
            1e3 * clock.cycles_to_seconds(rep.total_cycles()) / steps as f64,
            1e3 * rep.deposition_seconds(&clock) / steps as f64,
            ms(Phase::Preprocess),
            ms(Phase::Compute),
            ms(Phase::Sort),
            ms(Phase::Reduce),
            rep.particles_per_second(&clock),
        );
    }
}
