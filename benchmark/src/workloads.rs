//! The four benchmark workloads. Each is a set of inputs for
//! `mpic_core::workloads::*_sim`; the seed drives particle loading (and
//! the reference workload's shuffle), the program sees only the built
//! simulation.

use mpic_core::{workloads, Simulation};
use mpic_deposit::{KernelConfig, ShapeOrder};

/// Untimed steps before any measured window. The sorted FullOpt runs
/// need ~40 steps (CIC) to ~80 steps (QSP) before particles cross cells
/// at their steady rate; BENCH_step.json's steps 2-4 sit in the
/// transient before that.
pub const WARMUP_STEPS: usize = 80;

/// One workload: how to build it and which output checks apply.
pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json: what this workload stresses.
    pub why: &'static str,
    /// Fully periodic: particle count and total charge are invariants.
    pub periodic: bool,
    /// Runs the per-particle reference path, whose real step calls
    /// `charge_gather`/`charge_push` per tile.
    pub reference: bool,
    cells: [usize; 3],
    quick_cells: [usize; 3],
    ppc: usize,
    shape: ShapeOrder,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "uniform_cic",
        why: "uniform 32^3 ppc8 CIC FullOpt+simd at steady state: incremental sort/GPMA churn is the largest host layer",
        periodic: true,
        reference: false,
        cells: [32, 32, 32],
        quick_cells: [8, 8, 8],
        ppc: 8,
        shape: ShapeOrder::Cic,
    },
    Workload {
        name: "uniform_qsp",
        why: "uniform 32x32x16 ppc8 QSP FullOpt+simd: 64-node stencils make deposit compute+reduce dominate (compute-bound use of the same layers)",
        periodic: true,
        reference: false,
        cells: [32, 32, 16],
        quick_cells: [8, 8, 8],
        ppc: 8,
        shape: ShapeOrder::Qsp,
    },
    Workload {
        name: "lwfa_sparse",
        why: "LWFA 32x32x128 ppc1 CIC FullOpt+simd: laser, absorbing z, moving window; grid-proportional work (solver, guards, window shift) has its largest share and GPMA sees inserts/removes",
        periodic: false,
        reference: false,
        cells: [32, 32, 128],
        quick_cells: [8, 8, 32],
        ppc: 1,
        shape: ShapeOrder::Cic,
    },
    Workload {
        name: "uniform_ref",
        why: "uniform 16^3 ppc8 CIC Baseline, shuffled, per-particle reference path (every paper-figure bin): unsorted direct scatter and cache-simulator walks instead of streamed prices",
        periodic: true,
        reference: true,
        cells: [16, 16, 16],
        quick_cells: [8, 8, 8],
        ppc: 8,
        shape: ShapeOrder::Cic,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Whether the real step shifts a moving window.
    pub fn moving_window(&self) -> bool {
        !self.periodic
    }

    /// Builds the simulation from `seed`. `quick` substitutes a tiny
    /// grid (smoke runs and tests); the code paths are the same.
    ///
    /// Closed loop, one host thread: `num_workers = 1` with the static
    /// scheduler is what the `*_sim` builders configure, and nothing
    /// here changes it.
    pub fn build(&self, seed: u64, quick: bool) -> Simulation {
        let cells = if quick { self.quick_cells } else { self.cells };
        if self.reference {
            let mut sim = workloads::uniform_plasma_sim(
                cells,
                self.ppc,
                self.shape,
                KernelConfig::Baseline,
                seed,
            );
            // Steady-state disorder of an unsorted production run, as in
            // `mpic_bench::measure_uniform`.
            workloads::shuffle_particles(&mut sim.electrons, &sim.geom, &sim.layout, seed);
            return sim;
        }
        let mut sim = if self.periodic {
            workloads::uniform_plasma_sim(cells, self.ppc, self.shape, KernelConfig::FullOpt, seed)
        } else {
            workloads::lwfa_sim(cells, self.ppc, self.shape, KernelConfig::FullOpt, seed)
        };
        sim.cfg.batching = true;
        sim.cfg.simd = true;
        sim
    }
}
