//! The per-step deposition driver.
//!
//! The [`Depositor`] runs its [`KernelConfig`]'s kernel over every tile:
//! the direct scatter ([`scalar::deposit_tile`]) writes current straight
//! onto per-worker grid accumulators, the rhocell and MPU kernels
//! ([`rhocell_vec::deposit_tile`], [`matrix::deposit_tile`]) write the
//! tile's [`Rhocell`], which the driver then reduces. It owns the sorting
//! strategy, the address map and the orchestration of Algorithm 1's
//! phases, charging each to its [`Phase`] bucket. The tile phases run
//! through [`Exec::run_counted`], which gives every tile a cold worker
//! cache and merges the tile charges in tile order.

use mpic_grid::{FieldArrays, GridGeometry, Tile, TileLayout};
use mpic_machine::{Exec, Machine, Meter, Phase, Pricing, VAddr, VLANES};
use mpic_particles::{MoveStats, ParticleContainer, SortStats};

use crate::common::{stage_tile, AddrMap, PrepStyle, Staging, TileCurrents, TileScratch};
use crate::configs::{KernelConfig, KernelFamily};
use crate::rhocell::Rhocell;
use crate::shape::ShapeOrder;
use crate::{matrix, rhocell_vec, scalar};

/// How the particle kernels (tile push, staging, deposit) execute this
/// step. Derived by [`Depositor::mode`] — the one place the
/// `SimConfig::{batching, simd}` knobs, the sorting strategy and the
/// kernel family are combined — and never set directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One particle at a time, every access walking the cache
    /// simulator. The reference every bitwise test compares against, the
    /// path of every paper-figure bin, the only path for unsorted input
    /// (length-1 runs have nothing to amortise) and the only path of the
    /// direct-scatter and rhocell kernels, which are per-particle by
    /// design.
    PerParticle,
    /// Same-cell particle runs in lane-width packs: each run loads its
    /// stencil block once and touches the tile accumulator once, at the
    /// streaming prices. Requires cell-grouped order.
    Runs,
}

impl ExecMode {
    /// The pricing of this mode's memory-bound primitives: the
    /// per-particle path walks the cache, the cell-run path streams.
    pub fn pricing(self) -> Pricing {
        match self {
            ExecMode::PerParticle => Pricing::Walk,
            ExecMode::Runs => Pricing::Stream,
        }
    }
}

/// Per-tile context handed to kernels.
pub struct TileCtx<'a> {
    /// Grid geometry.
    pub geom: &'a GridGeometry,
    /// The tile being deposited.
    pub tile: &'a Tile,
    /// Shape order in use.
    pub order: ShapeOrder,
    /// The step's [`ExecMode::pricing`], which only the matrix kernel's
    /// per-run rhocell accumulate reads. Deposited values are
    /// bit-identical across the two modes.
    pub pricing: Pricing,
}

/// Sorting strategy wrapped around the kernel (orthogonal to the kernel
/// itself, matching the paper's `+IncrSort` / `GlobalSort` suffixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortStrategy {
    /// Particles stay in SoA order (baseline, `Hybrid-noSort`).
    None,
    /// Incremental GPMA maintenance each step; global re-sort governed by
    /// the adaptive policy ([`mpic_particles::should_sort`]).
    Incremental,
    /// Full counting sort every timestep (`Hybrid-GlobalSort`).
    GlobalEveryStep,
}

impl SortStrategy {
    /// Whether kernels observe cell-sorted iteration order.
    pub fn provides_sorted_order(self) -> bool {
        !matches!(self, SortStrategy::None)
    }
}

/// Sorting work performed in one step (for logs and tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepSortReport {
    /// GPMA stats merged across tiles.
    pub gpma: MoveStats,
    /// Particles scanned by the incremental sweep.
    pub scanned: usize,
    /// Counting-sort stats if a global sort ran.
    pub global: Option<SortStats>,
    /// Whether the adaptive policy requested the global sort.
    pub policy_triggered: bool,
}

/// The per-step deposition driver.
pub struct Depositor {
    config: KernelConfig,
    strategy: SortStrategy,
    addrs: Option<AddrMap>,
    rhocells: Vec<Rhocell>,
    order: ShapeOrder,
    /// The two user-facing mode knobs, combined with `strategy` and the
    /// kernel family by [`Depositor::mode`] and read nowhere else.
    batching: bool,
    simd: bool,
    /// Per-worker reusable tile buffers (index = worker id).
    scratch: Vec<TileScratch>,
    /// Per-tile sparse outputs of direct-scatter kernels (index = tile).
    tile_currents: Vec<TileCurrents>,
}

impl Depositor {
    /// Creates the driver of a configuration ([`KernelConfig::build`]).
    pub(crate) fn new(config: KernelConfig, order: ShapeOrder) -> Self {
        Self {
            config,
            strategy: config.strategy(),
            addrs: None,
            rhocells: Vec::new(),
            order,
            batching: false,
            simd: false,
            scratch: Vec::new(),
            tile_currents: Vec::new(),
        }
    }

    /// Kernel name: written to a snapshot's META section and compared
    /// on restore.
    pub fn name(&self) -> &'static str {
        self.config.name()
    }

    /// Selects the cell-run sweeps (`SimConfig::batching`): see
    /// [`Depositor::mode`] for when the request engages.
    pub fn set_batching(&mut self, batching: bool) {
        self.batching = batching;
    }

    /// Requests the vector units the cell-run sweeps run on
    /// (`SimConfig::simd`): see [`Depositor::mode`].
    pub fn set_simd(&mut self, simd: bool) {
        self.simd = simd;
    }

    /// The execution mode of this step — the single policy site. The
    /// cell-run sweeps engage only when both knobs ask for them: each
    /// alone is a no-op. They need cell-grouped order, so they engage
    /// only on a sorting strategy: an unsorted configuration stays on
    /// the per-particle reference path whatever the knobs say (a no-op
    /// rather than a correctness hazard, and the unsorted gather's
    /// sampled address stream is the paper's cost signal). They also
    /// engage only for the matrix kernel, the one that batches by
    /// design; the direct-scatter and rhocell configurations ignore the
    /// knobs the same way.
    pub fn mode(&self) -> ExecMode {
        let runs = self.batching
            && self.simd
            && self.strategy.provides_sorted_order()
            && self.config.family() == KernelFamily::Matrix;
        if runs {
            ExecMode::Runs
        } else {
            ExecMode::PerParticle
        }
    }

    /// Shape order in use.
    pub fn order(&self) -> ShapeOrder {
        self.order
    }

    /// The sorting strategy.
    pub fn strategy(&self) -> SortStrategy {
        self.strategy
    }

    /// The address map allocated by [`Depositor::prepare`], if any.
    ///
    /// The map pins the virtual addresses the cache model prices, so a
    /// checkpoint must capture it: restoring onto a rebuilt driver with
    /// a different map would shift every modelled address stream.
    pub fn addr_map(&self) -> Option<&AddrMap> {
        self.addrs.as_ref()
    }

    /// Reinstates an address map captured via [`Depositor::addr_map`]
    /// (checkpoint restore). The driver must already have been prepared
    /// on an identical configuration — only the addresses are replaced;
    /// rhocells and scratch pools are geometry-derived and keep their
    /// prepared state.
    pub fn restore_addr_map(&mut self, addrs: AddrMap) {
        self.addrs = Some(addrs);
    }

    /// One-time initialisation: allocates the address map, builds the
    /// rhocell accumulators and performs the initial global sort
    /// (Algorithm 1's `GlobalSortParticlesByCell`) when the strategy
    /// maintains sorted order.
    pub fn prepare(
        &mut self,
        m: &mut Machine,
        geom: &GridGeometry,
        layout: &TileLayout,
        container: &mut ParticleContainer,
    ) {
        let dims = geom.dims_with_guard();
        let grid_len = dims[0] * dims[1] * dims[2];
        let caps: Vec<usize> = container
            .tiles
            .iter()
            .map(|t| t.soa.slots().max(8))
            .collect();
        let rho_len = layout
            .iter()
            .map(|t| 3 * t.num_cells() * self.order.nodes_3d())
            .max()
            .unwrap_or(0);
        self.addrs = Some(AddrMap::new(m, grid_len, &caps, rho_len));
        self.rhocells = layout
            .iter()
            .map(|t| Rhocell::new(self.order, t.num_cells()))
            .collect();
        if self.strategy.provides_sorted_order() {
            let stats = container.global_sort(layout, geom);
            m.in_phase(Phase::Sort, |m| charge_global_sort(m, &stats));
            container.reset_counters();
        }
    }

    /// Runs the sorting phase for this step, returning the work report.
    /// `force_global` lets the caller's policy escalate to a global sort.
    ///
    /// Any global counting sort is sharded across the worker pool. The
    /// particle order, the [`StepSortReport`] and the emulated
    /// [`Phase::Sort`] charge are identical for every worker count: the
    /// sharded sort reproduces the sequential permutation exactly and
    /// the cost model is driven by the workload-shaped [`SortStats`], not
    /// by host threading.
    pub fn sort_step_parallel(
        &mut self,
        m: &mut Machine,
        geom: &GridGeometry,
        layout: &TileLayout,
        container: &mut ParticleContainer,
        force_global: bool,
        exec: Exec<'_>,
    ) -> StepSortReport {
        let mut report = StepSortReport::default();
        match self.strategy {
            SortStrategy::None => {
                // Even the unsorted baseline redistributes particles to
                // their owning tiles every step (WarpX's `Redistribute`);
                // this is ownership maintenance, not sorting, so it is
                // charged to `Other` rather than the kernel's sort time.
                // SoA iteration order is untouched, so kernels still see
                // unsorted particles.
                let (stats, _) = container.incremental_sort(layout, geom);
                m.in_phase(Phase::Other, |m| charge_gpma(m, &stats));
            }
            SortStrategy::GlobalEveryStep => {
                let stats = container.global_sort_parallel(layout, geom, exec);
                m.in_phase(Phase::Sort, |m| charge_global_sort(m, &stats));
                report.global = Some(stats);
            }
            SortStrategy::Incremental => {
                let addrs = self.addrs.as_ref().expect("prepare() not called");
                // Three unit-stride position streams, priced like every
                // other memory-bound phase of the step's mode.
                let pricing = self.mode().pricing();
                // Stream-touch the position arrays: the sweep reads x,y,z
                // of every particle (VPU-vectorised, Algorithm 1 line 13).
                m.in_phase(Phase::Sort, |m| {
                    for (t, tile) in container.tiles.iter().enumerate() {
                        let n = tile.soa.slots();
                        // Roofline footprint of one position array: the
                        // sweep spans the tile's whole slot range.
                        let footprint = (n * 8) as u64;
                        let mut p = 0;
                        while p < n {
                            for d in 0..3 {
                                let a = addrs.soa[t][d].offset_f64(p);
                                m.v_touch_load_priced(pricing, a, VLANES, footprint);
                            }
                            m.v_ops(4); // Cell compare + mask bookkeeping.
                            p += VLANES;
                        }
                    }
                });
                let (stats, scanned) = container.incremental_sort(layout, geom);
                m.in_phase(Phase::Sort, |m| charge_gpma(m, &stats));
                report.gpma = stats;
                report.scanned = scanned;
                if force_global {
                    let gstats = container.global_sort_parallel(layout, geom, exec);
                    m.in_phase(Phase::Sort, |m| charge_global_sort(m, &gstats));
                    report.global = Some(gstats);
                    report.policy_triggered = true;
                    container.reset_counters();
                }
            }
        }
        report
    }

    /// Runs staging, the kernel and (if applicable) the rhocell reduction
    /// for every tile, writing current onto `fields`.
    ///
    /// Tiles are sharded across the worker pool for staging, the kernel
    /// sweep and the reduction *cost* charging; every tile's output is
    /// then applied onto the grid sequentially in tile order.
    /// [`Exec::run_counted`] charges each tile on a forked worker machine
    /// with a cold private cache — the model of one tile per core — and
    /// merges the counters back in tile order. Both the grid currents and
    /// the emulated per-phase cycle totals are therefore bit-identical for
    /// any worker count (see `tests/parallel_determinism.rs`).
    ///
    /// The rhocell and MPU kernels accumulate into the tile's private
    /// rhocell; the direct scatter accumulates into the worker's private
    /// dense current arrays, extracted per tile into a sparse
    /// [`TileCurrents`] in first-touch node order. Both outputs are pure
    /// functions of the tile, so the fixed-order apply pass makes the
    /// fields independent of how tiles were sharded.
    pub fn deposit_step_parallel(
        &mut self,
        m: &mut Machine,
        geom: &GridGeometry,
        layout: &TileLayout,
        container: &ParticleContainer,
        fields: &mut FieldArrays,
        exec: Exec<'_>,
    ) {
        fields.clear_currents();
        let addrs = self.addrs.as_ref().expect("prepare() not called");
        let n_tiles = container.tiles.len();
        let workers = exec.workers().clamp(1, n_tiles.max(1));
        if self.scratch.len() < workers {
            self.scratch.resize_with(workers, TileScratch::default);
        }
        let prep = self.config.prep_style();
        let step = StepCtx {
            prep,
            order: self.order,
            sorted: self.strategy.provides_sorted_order(),
            pricing: self.mode().pricing(),
            geom,
            layout,
            container,
            addrs,
            j_addr: [addrs.jx, addrs.jy, addrs.jz],
        };
        let family = self.config.family();
        match family {
            KernelFamily::Scatter => {
                if self.tile_currents.len() < n_tiles {
                    self.tile_currents
                        .resize_with(n_tiles, TileCurrents::default);
                }
                exec.run_counted(
                    m,
                    &mut self.tile_currents[..n_tiles],
                    &mut self.scratch,
                    |wm, t, tj, scratch| step.scatter_tile(wm, t, tj, scratch),
                )
            }
            KernelFamily::Rhocell => exec.run_counted(
                m,
                &mut self.rhocells,
                &mut self.scratch,
                |wm, t, rho, scratch| {
                    step.rhocell_tile(wm, t, rho, scratch, |wm, ctx, st, rho_addr, rho| {
                        rhocell_vec::deposit_tile(wm, ctx, st, prep, rho_addr, rho)
                    })
                },
            ),
            KernelFamily::Matrix => exec.run_counted(
                m,
                &mut self.rhocells,
                &mut self.scratch,
                |wm, t, rho, scratch| step.rhocell_tile(wm, t, rho, scratch, matrix::deposit_tile),
            ),
        }
        // Fixed-order merge: tile-order grid application, independent of
        // sharding.
        if family == KernelFamily::Scatter {
            for tj in &self.tile_currents[..n_tiles] {
                tj.apply_to_grid(&mut fields.jx, &mut fields.jy, &mut fields.jz);
            }
            return;
        }
        for (t, rho) in self.rhocells.iter().enumerate() {
            if container.tiles[t].is_empty() {
                continue;
            }
            rho.apply_to_grid(
                geom,
                layout.tile(t),
                &mut fields.jx,
                &mut fields.jy,
                &mut fields.jz,
            );
        }
    }
}

/// What every tile of one deposit step shares.
struct StepCtx<'a> {
    prep: PrepStyle,
    order: ShapeOrder,
    /// Whether tiles are staged in GPMA-sorted order (any sorting
    /// strategy, in either execution mode) or raw live-slot order.
    sorted: bool,
    pricing: Pricing,
    geom: &'a GridGeometry,
    layout: &'a TileLayout,
    container: &'a ParticleContainer,
    addrs: &'a AddrMap,
    j_addr: [VAddr; 3],
}

impl<'a> StepCtx<'a> {
    /// The head both tile workers share: the iteration order, the
    /// charged preprocessing sweep into the worker's pooled staging
    /// buffers, and the kernel's context. `None` for an empty tile,
    /// which charges nothing.
    fn stage(&self, wm: &mut Machine, t: usize, scratch: &mut TileScratch) -> Option<TileCtx<'a>> {
        let ptile = &self.container.tiles[t];
        if ptile.is_empty() {
            return None;
        }
        let tile = self.layout.tile(t);
        scratch.iteration.clear();
        if self.sorted {
            scratch.iteration.extend(ptile.gpma.sorted_particles());
        } else {
            scratch.iteration.extend(ptile.soa.live_indices());
        }
        stage_tile(
            wm,
            self.geom,
            tile,
            self.order,
            self.container.charge,
            &ptile.soa,
            &scratch.iteration,
            &self.addrs.soa[t],
            self.prep,
            self.pricing,
            &mut scratch.staging,
        );
        Some(TileCtx {
            geom: self.geom,
            tile,
            order: self.order,
            pricing: self.pricing,
        })
    }

    /// Processes one tile end-to-end on a worker for a rhocell-based
    /// kernel: staging, the kernel sweep into the tile's private
    /// rhocell, and the reduction cost charge. Grid values are *not*
    /// written here — the orchestrator applies rhocells in tile order
    /// afterwards.
    fn rhocell_tile(
        &self,
        wm: &mut Machine,
        t: usize,
        rho: &mut Rhocell,
        scratch: &mut TileScratch,
        kernel: impl Fn(&mut Machine, &TileCtx, &Staging, VAddr, &mut Rhocell),
    ) {
        let Some(ctx) = self.stage(wm, t, scratch) else {
            return;
        };
        let rho_addr = self.addrs.rhocell[t];
        rho.clear();
        kernel(wm, &ctx, &scratch.staging, rho_addr, rho);
        rho.charge_reduce(wm, self.pricing, self.geom, ctx.tile, rho_addr, self.j_addr);
    }

    /// Processes one tile end-to-end on a worker for the direct-scatter
    /// kernel: staging, then the kernel's scatter sweep into the
    /// worker's private dense accumulators. The touched nodes are
    /// extracted into the tile's sparse [`TileCurrents`] (first-touch
    /// order) and the accumulators re-zeroed, leaving the output a pure
    /// function of the tile. Grid values are *not* written here — the
    /// orchestrator applies tile outputs in tile order afterwards.
    fn scatter_tile(
        &self,
        wm: &mut Machine,
        t: usize,
        tj: &mut TileCurrents,
        scratch: &mut TileScratch,
    ) {
        tj.clear();
        let Some(ctx) = self.stage(wm, t, scratch) else {
            return;
        };
        let dims = self.geom.dims_with_guard();
        // Disjoint field borrows: the kernel reads `staging` while writing
        // the accumulators and the touched tracker.
        let TileScratch {
            staging,
            accum,
            touched,
            ..
        } = scratch;
        if accum.as_ref().is_none_or(|a| a[0].shape() != dims) {
            *accum = Some(std::array::from_fn(|_| {
                mpic_grid::Array3::zeros(dims[0], dims[1], dims[2])
            }));
        }
        let [jx, jy, jz] = accum.as_mut().unwrap();
        touched.reset(jx.len());
        scalar::deposit_tile(wm, &ctx, staging, self.j_addr, jx, jy, jz, touched);
        // Dense -> sparse extraction; re-zeroing only the touched nodes keeps
        // the accumulators clean for the worker's next tile.
        for &i in &touched.idx {
            tj.idx.push(i);
            for (comp, arr) in [&mut *jx, &mut *jy, &mut *jz].into_iter().enumerate() {
                let slot = &mut arr.as_mut_slice()[i];
                tj.j[comp].push(*slot);
                *slot = 0.0;
            }
        }
    }
}

/// Charges the cost of a global counting sort.
///
/// A counting sort's permutation pass gathers every attribute from a
/// *random* source slot (the pre-sort order) and streams it to the
/// destination: the gathers dominate, costing roughly a quarter of the
/// random-access DRAM latency each under memory-level parallelism. This
/// is what makes `Hybrid-GlobalSort` (a full sort every step) lose to
/// the incremental sorter at scale — Figure 10's central observation.
fn charge_global_sort(m: &mut Meter<'_>, stats: &SortStats) {
    let n = stats.n as f64;
    // Histogram + prefix sum + permutation index pass.
    m.s_ops(op_count(6.0 * n));
    // 7 attribute arrays re-gathered (random read) + streamed out.
    let rand_read = m.cfg().dram_cy * 0.25;
    let stream_write = m.cfg().dram_cy * 0.15 / 8.0;
    m.charge(n * 7.0 * (rand_read + stream_write + 0.25));
    m.v_ops(op_count(7.0 * n / 8.0));
}

/// Float-derived operation count as a `usize`, with the domain pinned
/// before the conversion (mpic-lint L5: a bare expression-position cast
/// truncates NaN to zero and saturates overflow, both silently).
#[inline]
fn op_count(x: f64) -> usize {
    debug_assert!(
        x.is_finite() && (0.0..=u32::MAX as f64).contains(&x),
        "op count {x} outside the convertible domain"
    );
    x as usize
}

/// Charges the GPMA maintenance work reported by the sweep.
fn charge_gpma(m: &mut Meter<'_>, s: &MoveStats) {
    // Each applied move: its bin comparison and index-entry updates,
    // ~8 scalar ops (its delete and insert are charged below).
    m.s_ops(8 * s.moves_applied);
    // Deletions and O(1) inserts are a handful of ops each.
    m.s_ops(4 * (s.deletions + s.insertions));
    // Borrow shifts relocate one index entry each.
    m.s_ops(6 * s.borrow_shifts + s.bins_scanned);
    // Rebuilds re-lay-out every particle of the tile.
    m.s_ops(4 * s.rebuild_particles);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_sorted_order() {
        assert!(!SortStrategy::None.provides_sorted_order());
        assert!(SortStrategy::GlobalEveryStep.provides_sorted_order());
        assert!(SortStrategy::Incremental.provides_sorted_order());
    }

    #[test]
    fn mode_is_per_particle_on_every_unsorted_strategy_whatever_the_flags() {
        // The rule over every configuration and knob pair: the cell-run
        // sweeps engage only for batching and simd on a sorted matrix
        // config; either knob alone is a no-op.
        const FLAGS: [(bool, bool); 4] =
            [(false, false), (false, true), (true, false), (true, true)];
        let mut run_configs = 0;
        for cfg in KernelConfig::ALL {
            let runs = matches!(cfg, KernelConfig::HybridGlobalSort | KernelConfig::FullOpt);
            run_configs += usize::from(runs);
            let mut dep = cfg.build(ShapeOrder::Cic);
            for (batching, simd) in FLAGS {
                dep.set_batching(batching);
                dep.set_simd(simd);
                let want = if runs && batching && simd {
                    ExecMode::Runs
                } else {
                    ExecMode::PerParticle
                };
                assert_eq!(dep.mode(), want, "{cfg:?} batching={batching} simd={simd}");
            }
        }
        assert_eq!(run_configs, 2);
    }
}
