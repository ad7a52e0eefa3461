//! Simulation configuration.

use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_machine::{MachineConfig, SchedulerPolicy};
use mpic_solver::{AbsorbingLayer, BoundaryKind, LaserAntenna, SolverKind};

/// Full configuration of one simulation run (the analogue of a WarpX
/// input file restricted to the parameters in Appendix A Table 4).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Physical cells per dimension (`amr.n_cell`).
    pub n_cells: [usize; 3],
    /// Cell size (m).
    pub dx: [f64; 3],
    /// Particle tile size (`particles.tile_size`).
    pub tile_size: [usize; 3],
    /// Guard cells (2 suffices for QSP).
    pub guard: usize,
    /// CFL fraction of the solver's stable limit (`warpx.cfl`).
    pub cfl: f64,
    /// Maxwell solver (`algo.maxwell_solver`).
    pub solver: SolverKind,
    /// Deposition/gather shape order (`algo.particle_shape`).
    pub shape: ShapeOrder,
    /// Deposition kernel + sorting configuration.
    pub kernel: KernelConfig,
    /// Field/particle boundaries along z.
    pub boundary: BoundaryKind,
    /// Moving window along z (`warpx.do_moving_window`).
    pub moving_window: bool,
    /// Optional laser antenna (LWFA).
    pub laser: Option<LaserAntenna>,
    /// Damping layer used with [`BoundaryKind::AbsorbingZ`].
    pub absorber: AbsorbingLayer,
    /// Emulated machine model.
    pub machine: MachineConfig,
    /// RNG seed for particle loading.
    pub seed: u64,
    /// Host worker threads sharding every phase of the step loop:
    /// gather+push tiles, the global counting sort, both deposit kernel
    /// families (rhocell and direct-scatter), the Z-slab Maxwell solve,
    /// the guard exchange and the moving-window shift. The threads live
    /// in one persistent [`mpic_machine::WorkerPool`] owned by the
    /// simulation, parked between phases. Results and emulated cycle
    /// totals are bit-identical for any value; only host wall-clock
    /// changes.
    pub num_workers: usize,
    /// How the worker pool distributes items within a phase:
    /// [`SchedulerPolicy::Static`] contiguous chunks, or
    /// [`SchedulerPolicy::Stealing`] atomic-cursor claiming for
    /// load-imbalanced workloads (LWFA's mostly-empty tiles). Results
    /// are bit-identical for either policy.
    pub scheduler: SchedulerPolicy,
    /// Together with [`SimConfig::simd`], selects the cell-run sweeps of
    /// the MatrixPIC kernel (`ExecMode::Runs`): particles are visited in
    /// GPMA-sorted order, the gather loads each cell's stencil node
    /// block once per same-cell particle run and interpolates + pushes
    /// the run in lane-width packs (value-exact — gathers are read-only
    /// and every lane keeps the per-particle operation order), and the
    /// memory-bound phases — staging loads, run gathers, rhocell
    /// accumulates, the incremental sorter's position scan and the fused
    /// rhocell→grid reduction — are priced by the state-free streaming
    /// model instead of cache walks. Fields, currents and particles are
    /// bit-identical to the per-particle path; `Preprocess`, `Compute`,
    /// `Gather`, `Reduce` and (with incremental sorting) `Sort` charge
    /// strictly fewer cycles, while `Push`, `FieldSolve` and `Other`
    /// stay bit-identical. Engages only with both flags on, and only on
    /// a matrix-kernel configuration with a sorting strategy
    /// (`HybridGlobalSort`, `FullOpt`); everywhere else either flag is a
    /// bitwise no-op (`Depositor::mode` is the one place that decides).
    /// `false` (the default) keeps the per-particle reference paths and
    /// the paper-figure cost model exactly as before; the cell-run path
    /// is bit-identical across worker counts and scheduler policies.
    pub batching: bool,
    /// The vector half of the cell-run request: see
    /// [`SimConfig::batching`], which engages the sweeps only with this
    /// flag on too; alone it is a no-op. `false` is the default. Like
    /// `batching` and `num_workers`, a runtime knob that may differ
    /// freely between a snapshot's save and restore.
    pub simd: bool,
}

impl SimConfig {
    /// A small fully-periodic default (tests and the quickstart example).
    pub fn small_periodic() -> Self {
        Self {
            n_cells: [16, 16, 16],
            dx: [1.0e-6; 3],
            tile_size: [8, 8, 8],
            guard: 2,
            cfl: 0.98,
            solver: SolverKind::Ckc,
            shape: ShapeOrder::Cic,
            kernel: KernelConfig::FullOpt,
            boundary: BoundaryKind::Periodic,
            moving_window: false,
            laser: None,
            absorber: AbsorbingLayer::default(),
            machine: MachineConfig::lx2(),
            seed: 0x5eed,
            num_workers: 1,
            scheduler: SchedulerPolicy::Static,
            batching: false,
            simd: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_consistent() {
        let c = SimConfig::small_periodic();
        assert_eq!(c.n_cells, [16, 16, 16]);
        assert!(c.cfl <= 1.0);
        assert!(c.laser.is_none());
    }
}
