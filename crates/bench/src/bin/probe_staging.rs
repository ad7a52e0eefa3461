//! Developer probe: staging cost, sorted vs unsorted iteration, with
//! contiguity and cache statistics. Not part of the paper's experiment
//! set; used to calibrate the cost model.

use mpic_core::workloads;
use mpic_deposit::KernelConfig;
use mpic_deposit::ShapeOrder;
use mpic_machine::Phase;

fn main() {
    for kernel in [KernelConfig::Baseline, KernelConfig::RhocellIncrSortVpu] {
        let mut sim = workloads::uniform_plasma_sim([32, 16, 16], 32, ShapeOrder::Cic, kernel, 42);
        if kernel == KernelConfig::Baseline {
            workloads::shuffle_particles(&mut sim.electrons, &sim.geom, &sim.layout, 7);
        }
        sim.run(4);
        // Contiguity of the iteration streams at the final state.
        let mut chunks = 0usize;
        let mut contiguous = 0usize;
        for t in &sim.electrons.tiles {
            let iter: Vec<usize> = if kernel == KernelConfig::Baseline {
                t.soa.live_indices().collect()
            } else {
                t.gpma.sorted_particles().collect()
            };
            for ch in iter.chunks(8) {
                chunks += 1;
                if ch.windows(2).all(|w| w[1] == w[0] + 1) {
                    contiguous += 1;
                }
            }
        }
        let ctr = sim.machine.counters();
        println!(
            "{:>24}: preproc {:>12.0} cy, compute {:>12.0} cy, contiguous {:.1}%, L1 hit {:.1}%, L2 hit {:.1}%",
            kernel.label(),
            ctr.cycles(Phase::Preprocess),
            ctr.cycles(Phase::Compute),
            100.0 * contiguous as f64 / chunks as f64,
            100.0 * sim.machine.mem().l1_stats().hit_rate(),
            100.0 * sim.machine.mem().l2_stats().hit_rate(),
        );
        let (st, rnd) = sim.machine.mem().miss_split();
        println!("  dram misses: {st} streamed, {rnd} random");
    }
}
