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
    /// Selects the cell-run sweeps of the MatrixPIC kernel: particles are
    /// visited in GPMA-sorted order, the gather loads each cell's stencil
    /// node block once per same-cell particle run and interpolates +
    /// pushes the run in lane-width packs (value-exact — gathers are
    /// read-only and every lane keeps the per-particle operation order),
    /// and the memory-bound phases take the run prices. Engages only on
    /// a matrix-kernel configuration with a sorting strategy
    /// (`HybridGlobalSort`, `FullOpt`); every other configuration — the
    /// direct-scatter and rhocell kernels on any strategy, and every
    /// unsorted one — stays on the per-particle reference sweep
    /// regardless of this flag, bitwise (`Depositor::mode` is the one
    /// place that decides). `false` (the default) keeps the per-particle
    /// reference paths and the paper-figure cost model exactly as
    /// before; the cell-run path is bit-identical across worker counts
    /// and scheduler policies, and its values are bit-identical to the
    /// reference.
    pub batching: bool,
    /// Selects `Pricing::Stream` for the cell-run sweeps: their
    /// memory-bound block transfers — staging loads, run gathers,
    /// rhocell accumulates, the incremental sorter's position scan and
    /// the fused rhocell→grid reduction — are priced by the state-free
    /// streaming model instead of cache walks. It changes no loop and no
    /// value: fields, currents and particles are bit-identical to
    /// `simd = false`, `Preprocess`, `Compute`, `Gather`, `Reduce` and
    /// (with incremental sorting) `Sort` charge strictly fewer cycles,
    /// while `Push`, `FieldSolve` and `Other` stay bit-identical. The
    /// pricing only exists inside the cell-run sweeps, so wherever
    /// [`SimConfig::batching`] does not engage them the flag is a
    /// no-op. `false` is the default. Runtime knob: like `num_workers`,
    /// it may differ freely between a snapshot's save and restore.
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
