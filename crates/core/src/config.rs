//! Simulation configuration.

use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_grid::{GridGeometry, TileLayout};
use mpic_machine::MachineConfig;
use mpic_solver::{BoundaryKind, LaserAntenna, SolverKind};

/// Guard cells on each side of every field array. No kernel needs two:
/// deposit and gather wrap stencil nodes into the physical range
/// (`node_coord`, `stencil_block`), and the CKC stencils reach one cell
/// past it (`conf_solver_rows_match_reference_bitwise` runs guard 1). It
/// stays 2 because the guarded array sizes fix the virtual addresses and
/// roofline footprints the emulated numbers were recorded with.
pub const GUARD_CELLS: usize = 2;

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
    /// Maxwell solver (`algo.maxwell_solver`), run at its stable limit
    /// (`warpx.cfl = 1.0`).
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
    /// Emulated machine model.
    pub machine: MachineConfig,
    /// RNG seed for particle loading.
    pub seed: u64,
    /// Host worker threads sharding every phase of the step loop:
    /// gather+push tiles, the global counting sort, all three deposit
    /// kernel families (direct scatter, rhocell and matrix), the Z-slab
    /// Maxwell solve, the guard exchange and the moving-window shift.
    /// The threads live in one persistent [`mpic_machine::WorkerPool`]
    /// owned by the simulation, parked between phases; each phase hands
    /// worker `w` the `w`-th contiguous chunk of its items. Results and
    /// emulated cycle totals are bit-identical for any value; only host
    /// wall-clock changes.
    pub num_workers: usize,
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
    /// is bit-identical across worker counts.
    pub batching: bool,
    /// The vector half of the cell-run request: see
    /// [`SimConfig::batching`], which engages the sweeps only with this
    /// flag on too; alone it is a no-op. `false` is the default. Like
    /// `batching` and `num_workers`, it may differ between a snapshot's
    /// save and restore, but unlike `num_workers` it is not host-only:
    /// the two knobs choose the prices, so the restored run's counters
    /// and report continue under its own mode.
    pub simd: bool,
}

impl SimConfig {
    /// The grid and tile decomposition this configuration describes.
    pub fn grid(&self) -> (GridGeometry, TileLayout) {
        let geom = GridGeometry::new(self.n_cells, [0.0; 3], self.dx, GUARD_CELLS);
        let layout = TileLayout::new(&geom, self.tile_size);
        (geom, layout)
    }
}
