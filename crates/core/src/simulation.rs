//! The PIC simulation orchestrator: Algorithm 1 embedded in the standard
//! gather -> push -> sort -> deposit -> field-solve loop.

use mpic_deposit::{canonical_flops_per_particle, AddrMap, Depositor, SortStrategy};
use mpic_grid::constants::C;
use mpic_grid::{Array3, FieldArrays, GridGeometry, TileLayout};
use mpic_machine::{
    CacheLevelState, CacheSimState, Machine, PerfCounters, Phase, VAddr, WorkerPool,
};
use mpic_particles::{
    Departure, Gpma, GpmaState, ParticleContainer, ParticleSoA, ParticleTile, PendingMove,
    RankSortStats, INVALID_PARTICLE_ID,
};
use mpic_push::{BorisCoeffs, PushCtx, PushScratch};
use mpic_solver::{BoundaryKind, MaxwellSolver, SolverKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::snapshot::{section, SectionReader, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::timings::{RunReport, StepTimings};

/// Plasma parameters used when the moving window injects fresh particles
/// at the leading edge.
#[derive(Debug, Clone, Copy)]
pub struct PlasmaSpec {
    /// Electron number density (per m^3).
    pub density: f64,
    /// Particles per cell.
    pub ppc: usize,
    /// Thermal momentum spread (normalised u).
    pub u_th: f64,
}

/// A complete single-rank PIC simulation.
pub struct Simulation {
    /// Configuration the simulation was built from.
    pub cfg: SimConfig,
    /// Grid geometry.
    pub geom: GridGeometry,
    /// Tile decomposition.
    pub layout: TileLayout,
    /// Electromagnetic field state.
    pub fields: FieldArrays,
    /// The electron species.
    pub electrons: ParticleContainer,
    /// The emulated machine accumulating all costs.
    pub machine: Machine,
    solver: MaxwellSolver,
    depositor: Depositor,
    sort_stats: RankSortStats,
    pending_global_sort: bool,
    window_plasma: Option<PlasmaSpec>,
    window_accum: f64,
    boris: BorisCoeffs,
    dt: f64,
    time: f64,
    step_index: u64,
    field_addrs: [VAddr; 6],
    rng: StdRng,
    report: RunReport,
    /// Per-worker reusable gather/push buffers (index = worker id).
    push_scratch: Vec<PushScratch>,
    /// Per-tile departure buckets reused by every moving-window
    /// injection (index = tile id; capacity retained across advances so
    /// the recurring LWFA injection path stays allocation-free).
    window_buckets: Vec<Vec<Departure>>,
    /// The persistent execution pool every sharded phase dispatches to:
    /// threads are spawned once (sized by `cfg.num_workers`, rebuilt
    /// lazily if that changes between steps) and parked between phases
    /// and steps, replacing the per-phase `thread::scope` spawns the
    /// pipeline used to pay ~6x per step.
    pool: WorkerPool,
}

impl Simulation {
    /// Builds a simulation with an already-populated container.
    pub fn from_parts(
        cfg: SimConfig,
        geom: GridGeometry,
        layout: TileLayout,
        mut electrons: ParticleContainer,
        window_plasma: Option<PlasmaSpec>,
    ) -> Self {
        let mut machine = Machine::new(cfg.machine.clone());
        let fields = FieldArrays::new(&geom);
        let solver = MaxwellSolver::new(cfg.solver, &geom);
        let dt = cfg.cfl * solver.max_dt(&geom);
        let mut depositor = cfg.kernel.build(cfg.shape);
        depositor.prepare(&mut machine, &geom, &layout, &mut electrons);
        let dims = geom.dims_with_guard();
        let len = dims[0] * dims[1] * dims[2];
        let field_addrs = std::array::from_fn(|_| machine.mem().alloc_f64(len));
        let boris = BorisCoeffs::new(electrons.charge, electrons.mass, dt);
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xabcd_ef01);
        let pool = WorkerPool::new(cfg.num_workers.max(1));
        Self {
            cfg,
            geom,
            layout,
            fields,
            electrons,
            machine,
            solver,
            depositor,
            sort_stats: RankSortStats::default(),
            pending_global_sort: false,
            window_plasma,
            window_accum: 0.0,
            boris,
            dt,
            time: 0.0,
            step_index: 0,
            field_addrs,
            rng,
            report: RunReport::default(),
            push_scratch: Vec::new(),
            window_buckets: Vec::new(),
            pool,
        }
    }

    /// The persistent execution pool: exposed for health checks and for
    /// the fault-injection test hook
    /// ([`mpic_machine::WorkerPool::inject_fault`]). Note the pool is
    /// rebuilt at the top of the next step if `cfg.num_workers` changed,
    /// which discards any pending fault plan — arm faults only after at
    /// least one step under the final worker count.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Respawns any dead pool worker threads (after a caught
    /// [`mpic_machine::ExecError`]); returns how many were replaced.
    /// Part of the recovery path driven by [`crate::ResilientDriver`].
    pub fn repair_workers(&mut self) -> usize {
        self.pool.respawn_dead()
    }

    /// Rebuilds the persistent pool if `cfg.num_workers` changed since
    /// the last step (tests and probes retarget the worker count between
    /// steps); otherwise the parked threads are reused as-is. Call once
    /// at the top of `step`, then borrow `self.pool.exec(...)` per
    /// phase.
    fn sync_pool(&mut self) {
        let workers = self.cfg.num_workers.max(1);
        if self.pool.workers() != workers {
            self.pool = WorkerPool::new(workers);
        }
    }

    /// Timestep (s).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Simulated physical time (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps taken.
    pub fn step_index(&self) -> u64 {
        self.step_index
    }

    /// The timing report accumulated so far.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Deposition driver name (kernel configuration).
    pub fn kernel_name(&self) -> &'static str {
        self.depositor.name()
    }

    /// Live particle count.
    pub fn num_particles(&self) -> usize {
        self.electrons.total_particles()
    }

    /// Requests a global re-sort at the start of the next step (the same
    /// escalation path the adaptive policy uses). Only meaningful for
    /// [`SortStrategy::Incremental`] configurations.
    pub fn request_global_sort(&mut self) {
        self.pending_global_sort = true;
    }

    /// Whether a global sort is pending for the next step.
    pub fn global_sort_pending(&self) -> bool {
        self.pending_global_sort
    }

    /// The adaptive-policy counters as of the end of the last step
    /// (diagnostics and tests).
    pub fn sort_stats(&self) -> &RankSortStats {
        &self.sort_stats
    }

    /// Total kinetic energy (J).
    pub fn kinetic_energy(&self) -> f64 {
        let mc2 = self.electrons.mass * C * C;
        let mut e = 0.0;
        for t in &self.electrons.tiles {
            for p in t.soa.live_indices() {
                let (ux, uy, uz) = (t.soa.ux[p], t.soa.uy[p], t.soa.uz[p]);
                let gamma = (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
                e += t.soa.w[p] * mc2 * (gamma - 1.0);
            }
        }
        e
    }

    /// Total field energy (J).
    pub fn field_energy(&self) -> f64 {
        self.fields.field_energy(&self.geom)
    }

    /// Total charge (C).
    pub fn total_charge(&self) -> f64 {
        self.electrons.total_charge()
    }

    /// Advances the simulation one step, returning the step's timings.
    pub fn step(&mut self) -> StepTimings {
        let before = self.machine.counters().clone();
        self.sync_pool();
        // Both mode knobs are read from cfg each step (probes retarget
        // them between steps); `Depositor::mode` turns them into the
        // step's execution mode.
        self.depositor.set_batching(self.cfg.batching);
        self.depositor.set_simd(self.cfg.simd);

        // --- Gather + push + particle boundaries -----------------------
        self.push_particles();

        // --- Sorting (incremental GPMA or per-strategy) ----------------
        let force = std::mem::take(&mut self.pending_global_sort);
        let sort_report = self.depositor.sort_step_parallel(
            &mut self.machine,
            &self.geom,
            &self.layout,
            &mut self.electrons,
            force,
            self.pool.exec(self.cfg.scheduler),
        );
        if sort_report.policy_triggered {
            self.sort_stats.reset();
            // The metric `reset()` just promoted to `baseline_perf` is the
            // *pre-sort* throughput of the step that requested the sort —
            // stale and degraded. Clear it so `update_sort_policy` at the
            // end of *this* step re-seeds the baseline from the first
            // post-sort measurement; until then trigger 5 is disarmed, so
            // the policy cannot re-fire off its own sort's cost.
            self.sort_stats.baseline_perf = 0.0;
        }

        // --- Current deposition ----------------------------------------
        self.depositor.deposit_step_parallel(
            &mut self.machine,
            &self.geom,
            &self.layout,
            &self.electrons,
            &mut self.fields,
            self.pool.exec(self.cfg.scheduler),
        );
        // Credit canonical useful work (section 5.2.2).
        let n = self.num_particles();
        self.machine.counters_mut().useful_flops +=
            canonical_flops_per_particle(self.cfg.shape) * n as f64;

        // --- Field solve + sources + boundaries ------------------------
        // Z-slab sharded stencil sweeps + pooled guard exchange; laser
        // injection and the absorbing layer below stay on this thread in
        // fixed order.
        self.solver.step_sharded(
            &mut self.machine,
            &self.geom,
            &mut self.fields,
            self.dt,
            self.pool.exec(self.cfg.scheduler),
        );
        if let Some(laser) = &self.cfg.laser {
            laser.inject(&self.geom, &mut self.fields, self.time);
        }
        if self.cfg.boundary == BoundaryKind::AbsorbingZ {
            self.cfg.absorber.apply(&self.geom, &mut self.fields);
        }

        // --- Moving window ----------------------------------------------
        if self.cfg.moving_window {
            self.advance_window();
        }

        self.time += self.dt;
        self.step_index += 1;

        // --- Sort-policy bookkeeping (evaluated at end of step) ---------
        let timings = StepTimings::from_delta(&before, self.machine.counters(), n);
        self.update_sort_policy(&timings);
        self.report.push(timings);
        timings
    }

    /// Runs `n` steps and returns the accumulated report.
    pub fn run(&mut self, n: usize) -> &RunReport {
        for _ in 0..n {
            self.step();
        }
        &self.report
    }

    /// Gather + Boris push + position boundaries for every particle,
    /// sharded across the persistent worker pool (tiles are
    /// independent: each worker mutates only its own tiles and reads the
    /// shared immutable field state).
    ///
    /// Each tile is charged on a forked worker machine with a per-tile
    /// cold private cache, and counter deltas merge back in tile order —
    /// so positions, momenta and emulated cycles are bit-identical for
    /// any worker count or scheduler policy.
    ///
    /// The depositor's execution mode selects the tile sweep
    /// ([`PushCtx::push_tile`]): the GPMA bins are position-accurate at
    /// push time exactly when a sorting strategy maintains them for the
    /// deposit kernels, so the push follows the deposit's mode.
    fn push_particles(&mut self) {
        let mode = self.depositor.mode();
        let workers = self.pool.workers();
        if self.push_scratch.len() < workers {
            self.push_scratch.resize_with(workers, PushScratch::default);
        }
        let absorbing = self.cfg.boundary == BoundaryKind::AbsorbingZ;
        let ctx = PushCtx {
            geom: &self.geom,
            order: self.cfg.shape,
            fields: &self.fields,
            field_addrs: self.field_addrs,
            boris: self.boris,
            absorb_z: absorbing.then(|| [self.geom.lo[2], self.geom.hi()[2]]),
        };
        let counters = self.pool.exec(self.cfg.scheduler).run_counted(
            &self.machine,
            &mut self.electrons.tiles,
            &mut self.push_scratch,
            |wm, _t, tile, scratch| ctx.push_tile(wm, mode, tile, scratch),
        );
        // Deterministic fixed-order counter merge (tile order).
        for c in &counters {
            self.machine.absorb_counters(c);
        }
    }

    /// Shifts the moving window when it has advanced one cell: the
    /// field shift (independent component arrays), the per-tile
    /// particle shift with its trailing-edge removal (independent
    /// tiles) and the per-tile half of the fresh-plasma injection all
    /// run on the worker pool.
    fn advance_window(&mut self) {
        self.window_accum += C * self.dt;
        let dz = self.geom.dx[2];
        while self.window_accum >= dz {
            self.window_accum -= dz;
            self.machine.in_phase(Phase::Other, |m| {
                m.s_ops(self.geom.total_cells() / 8);
            });
            let exec = self.pool.exec(self.cfg.scheduler);
            self.fields.shift_window_z_exec(exec);
            // Shift particles into window coordinates, dropping those
            // that fall off the trailing edge. Tiles are independent, so
            // per-tile outcomes cannot depend on worker count or policy.
            let zlo = self.geom.lo[2];
            exec.for_each(&mut self.electrons.tiles, |_, tile| {
                shift_tile_window(tile, dz, zlo);
            });
            // Inject fresh plasma in the leading z plane.
            if let Some(spec) = self.window_plasma {
                self.inject_front_plane(spec);
            }
        }
    }

    /// Fills the last z-plane of cells with fresh plasma.
    ///
    /// Split in two halves so the RNG stream — and with it every
    /// particle's data *and* insertion order — is bit-identical for any
    /// worker count: particles are *generated* sequentially on the
    /// calling thread (consuming the RNG in the fixed j, i, ppc order)
    /// and bucketed by owning tile, then the per-tile *insertions* run
    /// on the worker pool. A tile's GPMA/SoA state depends only on its
    /// own insertion subsequence, which equals the sequential
    /// interleaving restricted to that tile.
    fn inject_front_plane(&mut self, spec: PlasmaSpec) {
        let n = self.geom.n_cells;
        let k = n[2] - 1;
        let w = spec.density * self.geom.cell_volume() / spec.ppc as f64;
        let n_tiles = self.electrons.tiles.len();
        if self.window_buckets.len() < n_tiles {
            self.window_buckets.resize_with(n_tiles, Vec::new);
        }
        for b in &mut self.window_buckets {
            b.clear();
        }
        for j in 0..n[1] {
            for i in 0..n[0] {
                for _ in 0..spec.ppc {
                    let x = self.geom.lo[0] + (i as f64 + self.rng.gen::<f64>()) * self.geom.dx[0];
                    let y = self.geom.lo[1] + (j as f64 + self.rng.gen::<f64>()) * self.geom.dx[1];
                    let z = self.geom.lo[2] + (k as f64 + self.rng.gen::<f64>()) * self.geom.dx[2];
                    let d = Departure {
                        x,
                        y,
                        z,
                        ux: spec.u_th * self.rng.gen_range(-1.0..1.0),
                        uy: spec.u_th * self.rng.gen_range(-1.0..1.0),
                        uz: spec.u_th * self.rng.gen_range(-1.0..1.0),
                        w,
                    };
                    let (cell, _) = self.geom.locate(d.x, d.y, d.z);
                    let cell = self.geom.wrap_cell(cell);
                    self.window_buckets[self.layout.tile_of_cell(cell)].push(d);
                }
            }
        }
        // Small injections run inline past the shared threshold, like
        // every other small-input phase: the front plane of the test
        // workloads holds a few hundred particles — not worth a pool
        // wake. Either path inserts each tile's bucket in generation
        // order, so the resulting state is identical.
        let total = n[0] * n[1] * spec.ppc;
        if self.pool.workers() == 1 || total < mpic_machine::INLINE_ITEM_THRESHOLD {
            for (t, bucket) in self.window_buckets.iter_mut().enumerate() {
                for d in bucket.drain(..) {
                    let _ = self.electrons.tiles[t].insert(d, self.layout.tile(t), &self.geom);
                }
            }
            return;
        }
        let geom = &self.geom;
        let layout = &self.layout;
        let mut items: Vec<(usize, &mut ParticleTile, &mut Vec<Departure>)> = self
            .electrons
            .tiles
            .iter_mut()
            .enumerate()
            .zip(self.window_buckets.iter_mut())
            .filter(|(_, b)| !b.is_empty())
            .map(|((t, tile), b)| (t, tile, b))
            .collect();
        self.pool
            .exec(self.cfg.scheduler)
            .for_each(&mut items, |_, (t, tile, bucket)| {
                for d in bucket.drain(..) {
                    let _ = tile.insert(d, layout.tile(*t), geom);
                }
            });
    }

    /// Updates [`RankSortStats`] and evaluates the five-trigger policy
    /// (`ShouldPerformGlobalSort`, end of Algorithm 1).
    fn update_sort_policy(&mut self, t: &StepTimings) {
        let SortStrategy::Incremental(policy) = self.depositor.strategy().clone() else {
            return;
        };
        self.sort_stats.steps_since_sort += 1;
        self.sort_stats.rebuilds_accum = self.electrons.rebuilds_accum();
        self.sort_stats.empty_ratio = self.electrons.empty_ratio();
        let dep_s = self.cfg.machine.cycles_to_seconds(t.deposition());
        self.sort_stats.perf_metric = if dep_s > 0.0 {
            t.particles as f64 / dep_s
        } else {
            0.0
        };
        if self.sort_stats.baseline_perf == 0.0 {
            self.sort_stats.baseline_perf = self.sort_stats.perf_metric;
        }
        if policy.should_sort(&self.sort_stats).is_some() {
            self.pending_global_sort = true;
        }
    }
}

/// Checkpoint/restore. The serialized inventory is everything `step()`
/// reads or writes: the nine field arrays, every tile's SoA + GPMA +
/// bin map, the RNG stream, the sort-policy counters, the per-phase
/// performance counters and cache statistics, the behavioural cache
/// state (tags, LRU stamps, stream detectors), the virtual address map
/// with the allocator mark, and the accumulated run report. Everything
/// else a simulation owns is either pure configuration (solver
/// coefficients, Boris coefficients, dt, geometry — rederived from
/// `SimConfig`) or scratch that is cleared before each use.
///
/// The contract (pinned in `tests/snapshot.rs`): `restore` onto a fresh
/// simulation built from the same `SimConfig`, followed by `step()`, is
/// **bit-identical** to stepping the original — fields, currents,
/// particle data, per-phase cycle counters and the final report — for
/// any worker count, scheduler policy and batching mode.
impl Simulation {
    /// Serializes the complete mutable state into the versioned snapshot
    /// format (see [`crate::snapshot`]). Non-destructive: the simulation
    /// is not perturbed, so snapshots can be taken mid-run at any step
    /// boundary.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut wtr = SnapshotWriter::new();

        wtr.begin_section(section::META);
        for d in 0..3 {
            wtr.put_usize(self.cfg.n_cells[d]);
        }
        for d in 0..3 {
            wtr.put_f64(self.cfg.dx[d]);
        }
        for d in 0..3 {
            wtr.put_usize(self.cfg.tile_size[d]);
        }
        wtr.put_usize(self.cfg.guard);
        wtr.put_u32(solver_kind_id(self.solver.kind()));
        wtr.put_usize(self.cfg.shape.order());
        wtr.put_str(self.kernel_name());
        wtr.put_f64(self.dt);
        wtr.put_usize(self.electrons.tiles.len());
        wtr.put_usize(self.fields.ex.as_slice().len());
        wtr.end_section();

        wtr.begin_section(section::FIELDS);
        for arr in field_array_refs(&self.fields) {
            wtr.put_vec_f64(arr.as_slice());
        }
        wtr.end_section();

        wtr.begin_section(section::PARTICLES);
        wtr.put_f64(self.electrons.charge);
        wtr.put_f64(self.electrons.mass);
        wtr.put_f64(self.electrons.gap_ratio());
        wtr.put_usize(self.electrons.tiles.len());
        for tile in &self.electrons.tiles {
            for attr in [
                &tile.soa.x,
                &tile.soa.y,
                &tile.soa.z,
                &tile.soa.ux,
                &tile.soa.uy,
                &tile.soa.uz,
                &tile.soa.w,
            ] {
                wtr.put_vec_f64(attr);
            }
            wtr.put_vec_bool(&tile.soa.alive);
            wtr.put_vec_usize(tile.soa.free_slots());
            wtr.put_vec_usize(&tile.cells);
            let g = tile.gpma.export_state();
            wtr.put_vec_usize(&g.local_index);
            wtr.put_vec_usize(&g.bin_offsets);
            wtr.put_vec_usize(&g.bin_lengths);
            wtr.put_usize(g.bin_free.len());
            for stack in &g.bin_free {
                wtr.put_vec_usize(stack);
            }
            wtr.put_vec_usize(&g.slot_of);
            wtr.put_usize(g.num_particles);
            wtr.put_usize(g.num_empty_slots);
            wtr.put_f64(g.gap_ratio);
            wtr.put_usize(g.pending.len());
            for p in &g.pending {
                wtr.put_usize(p.particle);
                put_opt_usize(&mut wtr, p.old_bin);
                put_opt_usize(&mut wtr, p.new_bin);
            }
            wtr.put_bool(g.was_rebuilt_this_step);
            wtr.put_u64(g.rebuild_count);
        }
        wtr.end_section();

        wtr.begin_section(section::RNG);
        wtr.put_u64(self.rng.state());
        wtr.end_section();

        wtr.begin_section(section::DRIVER);
        wtr.put_u64(self.sort_stats.steps_since_sort);
        wtr.put_u64(self.sort_stats.rebuilds_accum);
        wtr.put_f64(self.sort_stats.empty_ratio);
        wtr.put_f64(self.sort_stats.perf_metric);
        wtr.put_f64(self.sort_stats.baseline_perf);
        wtr.put_bool(self.pending_global_sort);
        wtr.put_f64(self.window_accum);
        wtr.put_f64(self.time);
        wtr.put_u64(self.step_index);
        wtr.end_section();

        wtr.begin_section(section::COUNTERS);
        let ctr = self.machine.counters();
        for p in Phase::ALL {
            wtr.put_f64(ctr.cycles(p));
        }
        wtr.put_f64(ctr.flops_issued);
        wtr.put_f64(ctr.useful_flops);
        wtr.put_u64(ctr.scalar_ops);
        wtr.put_u64(ctr.vector_ops);
        wtr.put_u64(ctr.mopa_ops);
        wtr.put_u64(ctr.tile_transfers);
        let mem = self.machine.mem_ref();
        for stats in [mem.l1_stats(), mem.l2_stats()] {
            wtr.put_u64(stats.hits);
            wtr.put_u64(stats.misses);
        }
        let (streamed, random) = mem.miss_split();
        wtr.put_u64(streamed);
        wtr.put_u64(random);
        wtr.end_section();

        wtr.begin_section(section::CACHE);
        let cache = self.machine.mem_ref().cache_state();
        for lvl in [&cache.l1, &cache.l2] {
            wtr.put_vec_u64(&lvl.tags);
            wtr.put_vec_u64(&lvl.stamps);
            wtr.put_u64(lvl.clock);
            wtr.put_u64(lvl.memo_line);
            wtr.put_u64(lvl.memo_slot);
        }
        wtr.put_usize(cache.streams.len());
        for &(tag, count) in &cache.streams {
            wtr.put_u64(tag);
            wtr.put_u32(count);
        }
        wtr.put_u32(cache.decay_tick);
        wtr.end_section();

        wtr.begin_section(section::ADDRS);
        wtr.put_u64(self.machine.mem_ref().alloc_mark());
        for a in self.field_addrs {
            wtr.put_u64(a.0);
        }
        let am = self
            .depositor
            .addr_map()
            .expect("depositor prepared at construction");
        wtr.put_u64(am.jx.0);
        wtr.put_u64(am.jy.0);
        wtr.put_u64(am.jz.0);
        wtr.put_usize(am.soa.len());
        for tile in &am.soa {
            for a in tile {
                wtr.put_u64(a.0);
            }
        }
        wtr.put_usize(am.local_index.len());
        for a in &am.local_index {
            wtr.put_u64(a.0);
        }
        wtr.put_usize(am.rhocell.len());
        for a in &am.rhocell {
            wtr.put_u64(a.0);
        }
        wtr.put_u64(am.staging.0);
        wtr.end_section();

        wtr.begin_section(section::REPORT);
        wtr.put_f64(self.report.useful_flops);
        wtr.put_usize(self.report.steps.len());
        for s in &self.report.steps {
            for c in s.cycles {
                wtr.put_f64(c);
            }
            wtr.put_usize(s.particles);
        }
        wtr.end_section();

        wtr.finish()
    }

    /// Restores the state captured by [`Simulation::snapshot`] into this
    /// simulation, which must have been built from the same
    /// configuration (geometry, solver, kernel, timestep — runtime knobs
    /// like `num_workers`, `scheduler`, `batching` and `simd` may
    /// differ; they shape host execution, not simulation state).
    ///
    /// Corrupt, truncated or incompatible input returns a structured
    /// [`SnapshotError`] and never panics. Every fallible decode and
    /// validation runs before the first write to `self`, so a failed
    /// restore leaves the simulation exactly as it was.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let rdr = SnapshotReader::new(bytes)?;

        // --- META: configuration fingerprint --------------------------
        let mut s = rdr.section(section::META)?;
        for d in 0..3 {
            if s.get_usize()? != self.cfg.n_cells[d] {
                return Err(SnapshotError::Incompatible { reason: "n_cells" });
            }
        }
        for d in 0..3 {
            if s.get_f64()?.to_bits() != self.cfg.dx[d].to_bits() {
                return Err(SnapshotError::Incompatible { reason: "dx" });
            }
        }
        for d in 0..3 {
            if s.get_usize()? != self.cfg.tile_size[d] {
                return Err(SnapshotError::Incompatible {
                    reason: "tile_size",
                });
            }
        }
        if s.get_usize()? != self.cfg.guard {
            return Err(SnapshotError::Incompatible { reason: "guard" });
        }
        if s.get_u32()? != solver_kind_id(self.solver.kind()) {
            return Err(SnapshotError::Incompatible { reason: "solver" });
        }
        if s.get_usize()? != self.cfg.shape.order() {
            return Err(SnapshotError::Incompatible {
                reason: "shape order",
            });
        }
        if s.get_string()? != self.kernel_name() {
            return Err(SnapshotError::Incompatible { reason: "kernel" });
        }
        if s.get_f64()?.to_bits() != self.dt.to_bits() {
            return Err(SnapshotError::Incompatible { reason: "dt" });
        }
        let n_tiles = self.electrons.tiles.len();
        if s.get_usize()? != n_tiles {
            return Err(SnapshotError::Incompatible {
                reason: "tile count",
            });
        }
        let field_len = self.fields.ex.as_slice().len();
        if s.get_usize()? != field_len {
            return Err(SnapshotError::Incompatible {
                reason: "field length",
            });
        }

        // --- FIELDS ----------------------------------------------------
        let mut s = rdr.section(section::FIELDS)?;
        let mut field_data = Vec::with_capacity(9);
        for _ in 0..9 {
            let v = s.get_vec_f64()?;
            if v.len() != field_len {
                return Err(SnapshotError::Malformed {
                    section: section::FIELDS,
                    reason: "field array length mismatch",
                });
            }
            field_data.push(v);
        }

        // --- PARTICLES -------------------------------------------------
        let mut s = rdr.section(section::PARTICLES)?;
        let bad = |reason| SnapshotError::Malformed {
            section: section::PARTICLES,
            reason,
        };
        let charge = s.get_f64()?;
        let mass = s.get_f64()?;
        let gap_ratio = s.get_f64()?;
        if !gap_ratio.is_finite() || gap_ratio < 0.0 {
            return Err(bad("gap ratio outside [0, inf)"));
        }
        if s.get_usize()? != n_tiles {
            return Err(bad("tile count disagrees with META"));
        }
        let mut tiles = Vec::with_capacity(n_tiles);
        for t in 0..n_tiles {
            let mut attrs = Vec::with_capacity(7);
            for _ in 0..7 {
                attrs.push(s.get_vec_f64()?);
            }
            let alive = s.get_vec_bool()?;
            let free = s.get_vec_usize()?;
            let cells = s.get_vec_usize()?;
            let local_index = s.get_vec_usize()?;
            let bin_offsets = s.get_vec_usize()?;
            let bin_lengths = s.get_vec_usize()?;
            let n_stacks = s.get_usize()?;
            if n_stacks != bin_lengths.len() {
                return Err(bad("free-stack count disagrees with bin count"));
            }
            let mut bin_free = Vec::with_capacity(n_stacks);
            for _ in 0..n_stacks {
                bin_free.push(s.get_vec_usize()?);
            }
            let slot_of = s.get_vec_usize()?;
            let num_particles = s.get_usize()?;
            let num_empty_slots = s.get_usize()?;
            let g_gap_ratio = s.get_f64()?;
            let n_pending = s.get_usize()?;
            let mut pending = Vec::with_capacity(n_pending.min(s.remaining() / 17));
            for _ in 0..n_pending {
                pending.push(PendingMove {
                    particle: s.get_usize()?,
                    old_bin: get_opt_usize(&mut s)?,
                    new_bin: get_opt_usize(&mut s)?,
                });
            }
            let was_rebuilt_this_step = s.get_bool()?;
            let rebuild_count = s.get_u64()?;
            let n_bins = bin_lengths.len();
            if n_bins != self.layout.tile(t).num_cells() {
                return Err(bad("GPMA bin count disagrees with the tile layout"));
            }
            if cells
                .iter()
                .any(|&c| c != INVALID_PARTICLE_ID && c >= n_bins)
            {
                return Err(bad("cell bin out of range"));
            }
            let [x, y, z, ux, uy, uz, w]: [Vec<f64>; 7] =
                attrs.try_into().expect("seven attribute arrays");
            let soa = ParticleSoA::from_parts(x, y, z, ux, uy, uz, w, alive, free).map_err(bad)?;
            let gpma = Gpma::from_state(GpmaState {
                local_index,
                bin_offsets,
                bin_lengths,
                bin_free,
                slot_of,
                num_particles,
                num_empty_slots,
                gap_ratio: g_gap_ratio,
                pending,
                was_rebuilt_this_step,
                rebuild_count,
            })
            .map_err(bad)?;
            tiles.push(ParticleTile { soa, gpma, cells });
        }

        // --- RNG -------------------------------------------------------
        let mut s = rdr.section(section::RNG)?;
        let rng_state = s.get_u64()?;

        // --- DRIVER ----------------------------------------------------
        let mut s = rdr.section(section::DRIVER)?;
        let sort_stats = RankSortStats {
            steps_since_sort: s.get_u64()?,
            rebuilds_accum: s.get_u64()?,
            empty_ratio: s.get_f64()?,
            perf_metric: s.get_f64()?,
            baseline_perf: s.get_f64()?,
        };
        let pending_global_sort = s.get_bool()?;
        let window_accum = s.get_f64()?;
        let time = s.get_f64()?;
        let step_index = s.get_u64()?;

        // --- COUNTERS --------------------------------------------------
        let mut s = rdr.section(section::COUNTERS)?;
        let mut cycles = [0.0f64; 8];
        for c in &mut cycles {
            *c = s.get_f64()?;
        }
        let flops_issued = s.get_f64()?;
        let useful_flops = s.get_f64()?;
        let scalar_ops = s.get_u64()?;
        let vector_ops = s.get_u64()?;
        let mopa_ops = s.get_u64()?;
        let tile_transfers = s.get_u64()?;
        let mut level_stats = [mpic_machine::CacheStats::default(); 2];
        for stats in &mut level_stats {
            stats.hits = s.get_u64()?;
            stats.misses = s.get_u64()?;
        }
        let streamed_misses = s.get_u64()?;
        let random_misses = s.get_u64()?;

        // --- CACHE -----------------------------------------------------
        let mut s = rdr.section(section::CACHE)?;
        let l1 = decode_cache_level(&mut s)?;
        let l2 = decode_cache_level(&mut s)?;
        let n_streams = s.get_usize()?;
        if n_streams > s.remaining() / 12 + 1 {
            return Err(SnapshotError::Malformed {
                section: section::CACHE,
                reason: "stream table length exceeds the section",
            });
        }
        let mut streams = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            let tag = s.get_u64()?;
            let count = s.get_u32()?;
            streams.push((tag, count));
        }
        let decay_tick = s.get_u32()?;
        let cache_state = CacheSimState {
            l1,
            l2,
            streams,
            decay_tick,
        };

        // --- ADDRS -----------------------------------------------------
        let mut s = rdr.section(section::ADDRS)?;
        let bad_addr = |reason| SnapshotError::Malformed {
            section: section::ADDRS,
            reason,
        };
        let alloc_mark = s.get_u64()?;
        let mut field_addrs = [VAddr(0); 6];
        for a in &mut field_addrs {
            *a = VAddr(s.get_u64()?);
        }
        let jx = VAddr(s.get_u64()?);
        let jy = VAddr(s.get_u64()?);
        let jz = VAddr(s.get_u64()?);
        if s.get_usize()? != n_tiles {
            return Err(bad_addr("SoA address table length"));
        }
        let mut soa_addrs = Vec::with_capacity(n_tiles);
        for _ in 0..n_tiles {
            let mut tile_addrs = [VAddr(0); 7];
            for a in &mut tile_addrs {
                *a = VAddr(s.get_u64()?);
            }
            soa_addrs.push(tile_addrs);
        }
        if s.get_usize()? != n_tiles {
            return Err(bad_addr("local-index address table length"));
        }
        let mut local_index_addrs = Vec::with_capacity(n_tiles);
        for _ in 0..n_tiles {
            local_index_addrs.push(VAddr(s.get_u64()?));
        }
        if s.get_usize()? != n_tiles {
            return Err(bad_addr("rhocell address table length"));
        }
        let mut rhocell_addrs = Vec::with_capacity(n_tiles);
        for _ in 0..n_tiles {
            rhocell_addrs.push(VAddr(s.get_u64()?));
        }
        let staging = VAddr(s.get_u64()?);
        let addr_map = AddrMap {
            jx,
            jy,
            jz,
            soa: soa_addrs,
            local_index: local_index_addrs,
            rhocell: rhocell_addrs,
            staging,
        };

        // --- REPORT ----------------------------------------------------
        let mut s = rdr.section(section::REPORT)?;
        let report_useful_flops = s.get_f64()?;
        let n_steps = s.get_usize()?;
        if n_steps > s.remaining() / 72 + 1 {
            return Err(SnapshotError::Malformed {
                section: section::REPORT,
                reason: "step count exceeds the section",
            });
        }
        let mut steps = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            let mut cy = [0.0f64; 8];
            for c in &mut cy {
                *c = s.get_f64()?;
            }
            let particles = s.get_usize()?;
            steps.push(StepTimings {
                cycles: cy,
                particles,
            });
        }

        // --- Apply. The cache import is the one remaining fallible
        // step; it validates geometry before mutating anything, so a
        // failure here still leaves `self` untouched. Everything after
        // it is infallible.
        if !self.machine.mem().restore_cache_state(&cache_state) {
            return Err(SnapshotError::Malformed {
                section: section::CACHE,
                reason: "cache state rejected by geometry validation",
            });
        }
        for (arr, data) in field_array_muts(&mut self.fields)
            .into_iter()
            .zip(&field_data)
        {
            arr.as_mut_slice().copy_from_slice(data);
        }
        self.electrons.charge = charge;
        self.electrons.mass = mass;
        self.electrons.set_gap_ratio(gap_ratio);
        self.electrons.tiles = tiles;
        // Derived from species parameters — rebuilt, not serialized.
        self.boris = BorisCoeffs::new(charge, mass, self.dt);
        self.rng = StdRng::from_state(rng_state);
        self.sort_stats = sort_stats;
        self.pending_global_sort = pending_global_sort;
        self.window_accum = window_accum;
        self.time = time;
        self.step_index = step_index;
        let ctr = self.machine.counters_mut();
        *ctr = PerfCounters::new();
        for (p, c) in Phase::ALL.iter().zip(cycles) {
            ctr.add_cycles(*p, c);
        }
        ctr.flops_issued = flops_issued;
        ctr.useful_flops = useful_flops;
        ctr.scalar_ops = scalar_ops;
        ctr.vector_ops = vector_ops;
        ctr.mopa_ops = mopa_ops;
        ctr.tile_transfers = tile_transfers;
        // Zero the accumulated cache statistics, then seed them with the
        // captured totals through the worker-merge path.
        let _ = self.machine.mem().take_stats();
        self.machine.mem().absorb_stats(
            &level_stats[0],
            &level_stats[1],
            streamed_misses,
            random_misses,
        );
        self.machine.mem().restore_alloc_mark(alloc_mark);
        self.machine.reset_execution_state();
        self.field_addrs = field_addrs;
        self.depositor.restore_addr_map(addr_map);
        self.report = RunReport {
            steps,
            useful_flops: report_useful_flops,
        };
        Ok(())
    }
}

/// Stable on-disk discriminant for the solver kind.
fn solver_kind_id(k: SolverKind) -> u32 {
    match k {
        SolverKind::Yee => 0,
        SolverKind::Ckc => 1,
    }
}

/// The nine field arrays in serialization order.
fn field_array_refs(f: &FieldArrays) -> [&Array3; 9] {
    [
        &f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz, &f.jx, &f.jy, &f.jz,
    ]
}

/// Mutable view of the nine field arrays in serialization order.
fn field_array_muts(f: &mut FieldArrays) -> [&mut Array3; 9] {
    [
        &mut f.ex, &mut f.ey, &mut f.ez, &mut f.bx, &mut f.by, &mut f.bz, &mut f.jx, &mut f.jy,
        &mut f.jz,
    ]
}

/// `Option<usize>` as a tag byte plus the value when present.
fn put_opt_usize(wtr: &mut SnapshotWriter, v: Option<usize>) {
    match v {
        Some(x) => {
            wtr.put_bool(true);
            wtr.put_usize(x);
        }
        None => wtr.put_bool(false),
    }
}

/// Inverse of [`put_opt_usize`].
fn get_opt_usize(s: &mut SectionReader<'_>) -> Result<Option<usize>, SnapshotError> {
    Ok(if s.get_bool()? {
        Some(s.get_usize()?)
    } else {
        None
    })
}

/// Decodes one cache level's behavioural state.
fn decode_cache_level(s: &mut SectionReader<'_>) -> Result<CacheLevelState, SnapshotError> {
    Ok(CacheLevelState {
        tags: s.get_vec_u64()?,
        stamps: s.get_vec_u64()?,
        clock: s.get_u64()?,
        memo_line: s.get_u64()?,
        memo_slot: s.get_u64()?,
    })
}

/// One tile's share of the moving-window shift: translate every live
/// particle by one cell towards -z and remove those that fell off the
/// trailing edge. All mutation is tile-local, so the result is a pure
/// function of the tile regardless of which pool worker runs it.
fn shift_tile_window(tile: &mut ParticleTile, dz: f64, zlo: f64) {
    for p in 0..tile.soa.slots() {
        if !tile.soa.alive[p] {
            continue;
        }
        tile.soa.z[p] -= dz;
        if tile.soa.z[p] < zlo {
            tile.queue_removal(p);
        }
    }
    tile.apply_removals();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn small_sim_steps_and_reports() {
        let mut sim = workloads::uniform_plasma_sim(
            [8, 8, 8],
            8,
            mpic_deposit::ShapeOrder::Cic,
            mpic_deposit::KernelConfig::FullOpt,
            1,
        );
        let n0 = sim.num_particles();
        let t = sim.step();
        assert_eq!(sim.step_index(), 1);
        assert_eq!(sim.num_particles(), n0, "periodic run conserves N");
        assert!(t.total() > 0.0);
        assert!(t.deposition() > 0.0);
        assert!(t.phase(Phase::Gather) > 0.0);
        assert!(t.phase(Phase::Push) > 0.0);
        assert!(t.phase(Phase::FieldSolve) > 0.0);
    }

    #[test]
    fn forced_global_sort_reseeds_baseline_from_post_sort_step() {
        let mut sim = workloads::uniform_plasma_sim(
            [8, 8, 8],
            4,
            mpic_deposit::ShapeOrder::Cic,
            mpic_deposit::KernelConfig::FullOpt,
            5,
        );
        sim.step(); // Seed the policy baseline from a normal step.
        sim.request_global_sort();
        assert!(sim.global_sort_pending());
        sim.step(); // Executes the forced sort.
        assert!(
            !sim.global_sort_pending(),
            "policy re-fired immediately after its own forced sort"
        );
        let s = sim.sort_stats();
        assert_eq!(s.steps_since_sort, 1);
        assert!(s.baseline_perf > 0.0, "baseline must be re-seeded");
        assert_eq!(
            s.baseline_perf.to_bits(),
            s.perf_metric.to_bits(),
            "baseline must be the first post-sort step's metric, not the \
             stale pre-sort throughput"
        );
    }

    #[test]
    fn charge_is_conserved_over_steps() {
        let mut sim = workloads::uniform_plasma_sim(
            [8, 8, 8],
            4,
            mpic_deposit::ShapeOrder::Cic,
            mpic_deposit::KernelConfig::FullOpt,
            2,
        );
        let q0 = sim.total_charge();
        sim.run(3);
        let q1 = sim.total_charge();
        assert!(((q1 - q0) / q0).abs() < 1e-12);
        sim.electrons.check_invariants();
    }
}
