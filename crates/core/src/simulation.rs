//! The PIC simulation orchestrator: Algorithm 1 embedded in the standard
//! gather -> push -> sort -> deposit -> field-solve loop.

use mpic_deposit::{canonical_flops_per_particle, Depositor, SortStrategy};
use mpic_grid::constants::C;
use mpic_grid::{FieldArrays, GridGeometry, TileLayout};
use mpic_machine::{Machine, Phase, SchedulerPolicy, VAddr, WorkerPool};
use mpic_particles::{should_sort, Departure, ParticleContainer, ParticleTile, RankSortStats};
use mpic_push::{BorisCoeffs, PushCtx, PushScratch};
use mpic_solver::{absorb_z, BoundaryKind, MaxwellSolver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
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
    window_plasma: Option<PlasmaSpec>,
    // `pub(crate)`: `crate::checkpoint` serializes and restores these.
    pub(crate) solver: MaxwellSolver,
    pub(crate) depositor: Depositor,
    pub(crate) sort_stats: RankSortStats,
    pub(crate) pending_global_sort: bool,
    pub(crate) window_accum: f64,
    pub(crate) boris: BorisCoeffs,
    pub(crate) dt: f64,
    pub(crate) time: f64,
    pub(crate) step_index: u64,
    pub(crate) field_addrs: [VAddr; 6],
    pub(crate) rng: StdRng,
    pub(crate) report: RunReport,
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
    /// Builds a simulation on the grid [`SimConfig::grid`] derives from
    /// `cfg`, with a container already loaded on that layout.
    pub fn from_parts(
        cfg: SimConfig,
        mut electrons: ParticleContainer,
        window_plasma: Option<PlasmaSpec>,
    ) -> Self {
        let (geom, layout) = cfg.grid();
        let mut machine = Machine::new(cfg.machine.clone());
        let fields = FieldArrays::new(&geom);
        let solver = MaxwellSolver::new(cfg.solver, &geom);
        let dt = solver.max_dt(&geom);
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
            self.pool.exec(SchedulerPolicy::Static),
        );
        if sort_report.policy_triggered {
            self.sort_stats.reset();
        }

        // --- Current deposition ----------------------------------------
        self.depositor.deposit_step_parallel(
            &mut self.machine,
            &self.geom,
            &self.layout,
            &self.electrons,
            &mut self.fields,
            self.pool.exec(SchedulerPolicy::Static),
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
            self.pool.exec(SchedulerPolicy::Static),
        );
        if let Some(laser) = &self.cfg.laser {
            laser.inject(&self.geom, &mut self.fields, self.time);
        }
        if self.cfg.boundary == BoundaryKind::AbsorbingZ {
            absorb_z(&self.geom, &mut self.fields);
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
    /// [`mpic_machine::Exec::run_counted`] charges each tile on a forked
    /// worker machine with a cold private cache and merges the counters
    /// back in tile order — so positions, momenta and emulated cycles
    /// are bit-identical for any worker count.
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
        self.pool.exec(SchedulerPolicy::Static).run_counted(
            &mut self.machine,
            &mut self.electrons.tiles,
            &mut self.push_scratch,
            |wm, _t, tile, scratch| ctx.push_tile(wm, mode, tile, scratch),
        );
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
            let exec = self.pool.exec(SchedulerPolicy::Static);
            self.fields.shift_window_z_exec(exec);
            // Shift particles into window coordinates, dropping those
            // that fall off the trailing edge. Tiles are independent, so
            // per-tile outcomes cannot depend on worker count.
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
        // Each tile's bucket is inserted in generation order. The front
        // plane of the test workloads holds a few hundred particles: the
        // declared work lets the exec layer skip the wake.
        let (geom, layout, buckets) = (&self.geom, &self.layout, &self.window_buckets);
        self.pool
            .exec(SchedulerPolicy::Static)
            .with_work(n[0] * n[1] * spec.ppc)
            .for_each(&mut self.electrons.tiles, |t, tile| {
                for &d in &buckets[t] {
                    let _ = tile.insert(d, layout.tile(t), geom);
                }
            });
    }

    /// Updates [`RankSortStats`] and evaluates the five-trigger policy
    /// (`ShouldPerformGlobalSort`, end of Algorithm 1).
    fn update_sort_policy(&mut self, t: &StepTimings) {
        if self.depositor.strategy() != SortStrategy::Incremental {
            return;
        }
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
        if should_sort(&self.sort_stats).is_some() {
            self.pending_global_sort = true;
        }
    }
}

/// One tile's share of the moving-window shift: translate every live
/// particle by one cell towards -z and remove those that fell off the
/// trailing edge. All mutation is tile-local, so the result is a pure
/// function of the tile regardless of which pool worker runs it.
fn shift_tile_window(tile: &mut ParticleTile, dz: f64, zlo: f64) {
    let mut removals = Vec::new();
    for p in 0..tile.soa.slots() {
        if !tile.soa.alive[p] {
            continue;
        }
        tile.soa.z[p] -= dz;
        if tile.soa.z[p] < zlo {
            removals.push(tile.removal(p));
        }
    }
    tile.remove(&removals);
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
