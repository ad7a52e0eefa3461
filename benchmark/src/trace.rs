//! The traced run (`--trace 1`): in-memory spans around the real step
//! and around each layer's public entry points, and the per-layer
//! metrics derived from them.
//!
//! The spans are recorded from here, outside the program: each traced
//! step runs the real `Simulation::step()` under a `core.step` span and
//! then a *rig* — the same public functions the step calls, applied to
//! clones of the post-step state with a rig-owned `Machine`, `Depositor`
//! and `MaxwellSolver` — under a `rig.step` span with one child per
//! layer call. The clone is pushed before it is sorted, so the rig's
//! push + sort reproduce the next real step's particle motion and GPMA
//! churn. Spans inside the program arrive with the ROADMAP `StepRecord`.

use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use mpic_core::{Simulation, StepTimings};
use mpic_deposit::{canonical_flops_per_particle, Depositor, StepSortReport};
use mpic_grid::FieldArrays;
use mpic_machine::{Machine, Phase, SchedulerPolicy, TileId, VAddr, WorkerPool};
use mpic_particles::{Gpma, MoveStats, ParticleContainer, INVALID_PARTICLE_ID};
use mpic_push::boris::{boris_push, charge_push, BorisCoeffs};
use mpic_push::gather::{charge_gather, gather_fields_with_cell, GatherCost};
use mpic_solver::MaxwellSolver;

use crate::json::Json;
use crate::measure::{
    check_checkpoint_round_trip, check_outputs, checked_step, repeat_timed, timed_step, warm_up,
    Invariants, Outcome, RunOpts,
};
use crate::stats::{fnv1a64, median, percentile, XorShift64};
use crate::workloads::Workload;

/// Share of `--seconds` spent on the untraced reference steps; the same
/// number of steps is then replayed traced, at about twice the cost
/// (real step + rig).
const UNTRACED_SHARE: f64 = 0.3;

/// Fewest traced steps, however slow the host.
const MIN_TRACED_STEPS: usize = 8;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Simulation step the span belongs to (0 for once-per-run probes).
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, step: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            step,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` under a span.
    fn span<R>(&mut self, name: &'static str, step: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, step);
        let r = f();
        self.end(id);
        r
    }

    /// Durations in nanoseconds of every span called `name`, in order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration in milliseconds of the spans called `name`
    /// (0 if there are none).
    pub fn median_ms(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) * 1e-6
        }
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(s.id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name".into(), Json::Str(s.name.into())),
                ("step".into(), Json::Num(s.step as f64)),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("self_ns".into(), Json::Num(self_ns as f64)),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the durations of its
/// direct children (children never overlap: spans nest strictly).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Where the span file of a workload goes.
pub fn span_file(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

/// The benchmark-owned instances the layer entry points run on.
struct Rig {
    machine: Machine,
    depositor: Depositor,
    solver: MaxwellSolver,
    pool: WorkerPool,
    field_addrs: [VAddr; 6],
    boris: BorisCoeffs,
    /// Per-particle sampled node index of the last push, tile by tile.
    sample_idx: Vec<usize>,
    /// Live particles per tile in the last push.
    tile_live: Vec<usize>,
}

impl Rig {
    fn new(sim: &Simulation) -> Self {
        let mut machine = Machine::new(sim.cfg.machine.clone());
        let mut depositor = sim.cfg.kernel.build(sim.cfg.shape);
        // `prepare` sorts the container it is given; the rig only needs
        // its address map and accumulators, so it gets a scratch clone.
        let mut scratch = sim.electrons.clone();
        depositor.prepare(&mut machine, &sim.geom, &sim.layout, &mut scratch);
        depositor.set_batching(sim.cfg.batching);
        depositor.set_simd(sim.cfg.simd);
        let field_len = sim.fields.ex.len();
        let field_addrs = std::array::from_fn(|_| machine.mem().alloc_f64(field_len));
        Self {
            machine,
            depositor,
            solver: MaxwellSolver::new(sim.cfg.solver, &sim.geom),
            pool: WorkerPool::new(1),
            field_addrs,
            boris: BorisCoeffs::new(sim.electrons.charge, sim.electrons.mass, sim.dt()),
            sample_idx: Vec::new(),
            tile_live: Vec::new(),
        }
    }

    /// The per-particle public push API over every live particle:
    /// `gather_fields_with_cell` + `boris_push` + `wrap_position`.
    /// Leaves `electrons` displaced but not re-binned, i.e. pre-sort.
    fn push_kernels(
        &mut self,
        sim: &Simulation,
        fields: &FieldArrays,
        electrons: &mut ParticleContainer,
    ) {
        let geom = &sim.geom;
        let order = sim.cfg.shape;
        let (zlo, zhi) = (geom.lo[2], geom.hi()[2]);
        self.sample_idx.clear();
        self.tile_live.clear();
        for tile in &mut electrons.tiles {
            let before = self.sample_idx.len();
            let soa = &mut tile.soa;
            for p in 0..soa.slots() {
                if !soa.alive[p] {
                    continue;
                }
                let (e, b, cell) =
                    gather_fields_with_cell(geom, order, fields, soa.x[p], soa.y[p], soa.z[p]);
                self.sample_idx.push(fields.ex.idx(
                    cell[0] + geom.guard,
                    cell[1] + geom.guard,
                    cell[2] + geom.guard,
                ));
                let (mut x, mut y, mut z) = (soa.x[p], soa.y[p], soa.z[p]);
                boris_push(
                    &self.boris,
                    e,
                    b,
                    &mut soa.ux[p],
                    &mut soa.uy[p],
                    &mut soa.uz[p],
                    &mut x,
                    &mut y,
                    &mut z,
                );
                let wrapped = geom.wrap_position([x, y, z]);
                soa.x[p] = wrapped[0];
                soa.y[p] = wrapped[1];
                // The real step removes a particle that leaves an
                // absorbing z boundary; the rig has no removal API to
                // call, so such a particle keeps its old z.
                if sim.cfg.moving_window && !(zlo..zhi).contains(&z) {
                    continue;
                }
                soa.z[p] = wrapped[2];
            }
            self.tile_live.push(self.sample_idx.len() - before);
        }
    }

    /// The reference path's cache-walked gather and push prices, tile by
    /// tile with a cold cache, as `push_tile` charges them.
    fn push_charge(&mut self, sim: &Simulation) {
        let nodes = sim.cfg.shape.nodes_3d();
        let mut start = 0;
        for &n in &self.tile_live {
            if n > 0 {
                self.machine.mem().flush_cache();
                charge_gather(
                    &mut self.machine,
                    GatherCost::default(),
                    n,
                    nodes,
                    &self.field_addrs,
                    &self.sample_idx[start..start + n],
                );
                charge_push(&mut self.machine, n);
            }
            start += n;
        }
    }

    /// One rig pass over clones of the post-step state. Returns the
    /// sort report of the rig's `sort_step_parallel`.
    fn step(&mut self, tr: &mut Tracer, sim: &Simulation, reference: bool) -> StepSortReport {
        let step = sim.step_index();
        let root = tr.begin("rig.step", step);
        let (mut electrons, mut fields) = tr.span("rig.clone", step, || {
            (sim.electrons.clone(), sim.fields.clone())
        });
        tr.span("push.kernels", step, || {
            self.push_kernels(sim, &fields, &mut electrons)
        });
        // Only the reference path's real step walks the cache simulator
        // for every particle; on the streamed-price workloads the walk
        // would cost several real steps per traced step.
        if reference {
            tr.span("push.charge", step, || self.push_charge(sim));
        }
        let exec = self.pool.exec(SchedulerPolicy::Static);
        let report = tr.span("deposit.sort", step, || {
            self.depositor.sort_step_parallel(
                &mut self.machine,
                &sim.geom,
                &sim.layout,
                &mut electrons,
                false,
                exec,
            )
        });
        tr.span("deposit.deposit", step, || {
            self.depositor.deposit_step_parallel(
                &mut self.machine,
                &sim.geom,
                &sim.layout,
                &electrons,
                &mut fields,
                exec,
            )
        });
        tr.span("solver.step", step, || {
            self.solver
                .step_sharded(&mut self.machine, &sim.geom, &mut fields, sim.dt(), exec)
        });
        tr.span("grid.fill_guards", step, || {
            fields.fill_guards_periodic_exec(exec)
        });
        tr.span("grid.clear_currents", step, || fields.clear_currents());
        tr.span("grid.shift_window", step, || {
            fields.shift_window_z_exec(exec)
        });
        black_box((&electrons, &fields));
        tr.end(root);
        report
    }
}

/// Fewest calls a machine-primitive probe times (whole passes over the
/// array, so small grids repeat the pass).
const PROBE_MIN_CALLS: usize = 200_000;

/// Once-per-run probes of single primitives, each under its own span:
/// `Machine` touch primitives over one field array's footprint on a
/// fresh machine, `t_mopa`, a pool dispatch, and the two bulk particle
/// operations (`global_sort`, `Gpma::build`) on clones.
fn probes(tr: &mut Tracer, sim: &Simulation, seed: u64) -> Vec<(&'static str, f64)> {
    let root = tr.begin("rig.probes", 0);
    let mut out = Vec::new();
    let len = sim.fields.ex.len();
    let footprint = (len * 8) as u64;
    let lines = len / 8;
    let passes = PROBE_MIN_CALLS.div_ceil(lines);
    let calls = (passes * lines) as f64;
    let span_ns = |tr: &Tracer, id: usize| {
        let s = &tr.spans[id];
        (s.end_ns - s.start_ns) as f64
    };

    let mut m = Machine::new(sim.cfg.machine.clone());
    let base = m.mem().alloc_f64(len);
    let id = tr.begin("machine.walk_seq", 0);
    for _ in 0..passes {
        for l in 0..lines {
            m.v_touch_load(base.offset_f64(l * 8), 8);
        }
    }
    tr.end(id);
    out.push(("machine.walk_seq_ns_per_line", span_ns(tr, id) / calls));

    let mut rng = XorShift64(seed | 1);
    let idx: Vec<[usize; 8]> = (0..lines)
        .map(|_| std::array::from_fn(|_| (rng.next() % len as u64) as usize))
        .collect();
    let id = tr.begin("machine.walk_rand", 0);
    for _ in 0..passes {
        for i in &idx {
            m.v_touch_gather(base, i);
        }
    }
    tr.end(id);
    // Eight indexed lanes, each on its own line almost surely.
    out.push((
        "machine.walk_rand_ns_per_line",
        span_ns(tr, id) / (calls * 8.0),
    ));

    let id = tr.begin("machine.stream", 0);
    for _ in 0..passes {
        for l in 0..lines {
            m.v_touch_load_streamed(base.offset_f64(l * 8), 8, footprint);
        }
    }
    tr.end(id);
    out.push(("machine.stream_ns_per_call", span_ns(tr, id) / calls));

    let (a, b) = (m.v_splat(1.5), m.v_splat(0.25));
    let id = tr.begin("machine.mopa", 0);
    for _ in 0..PROBE_MIN_CALLS {
        m.t_mopa(TileId(0), a, b);
    }
    tr.end(id);
    out.push(("machine.mopa_ns", span_ns(tr, id) / PROBE_MIN_CALLS as f64));
    black_box((m.counters().total_cycles(), m.tile_value(TileId(0), 0, 0)));

    // Informational: multi-worker scaling stays unmeasured (ROADMAP).
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let pool = WorkerPool::new(workers);
    const DISPATCHES: usize = 2_000;
    let id = tr.begin("machine.exec_dispatch", 0);
    for _ in 0..DISPATCHES {
        pool.broadcast(&|w| {
            black_box(w);
        });
    }
    tr.end(id);
    out.push((
        "machine.exec_dispatch_us",
        span_ns(tr, id) * 1e-3 / DISPATCHES as f64,
    ));

    let mut sort_ms = Vec::new();
    for _ in 0..3 {
        let mut c = sim.electrons.clone();
        let id = tr.begin("particles.global_sort", 0);
        let _ = black_box(c.global_sort(&sim.layout, &sim.geom));
        tr.end(id);
        sort_ms.push(span_ns(tr, id) * 1e-6);
    }
    out.push(("particles.global_sort_ms", median(&sort_ms)));

    let (t, tile) = sim
        .electrons
        .tiles
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| t.len())
        .expect("a layout has tiles");
    let cells: Vec<usize> = tile
        .cells
        .iter()
        .copied()
        .filter(|c| *c != INVALID_PARTICLE_ID)
        .collect();
    let n_bins = sim.layout.tile(t).num_cells();
    let mut build_ms = Vec::new();
    for _ in 0..5 {
        let id = tr.begin("particles.gpma_build", 0);
        black_box(Gpma::build(&cells, n_bins, sim.electrons.gap_ratio()));
        tr.end(id);
        build_ms.push(span_ns(tr, id) * 1e-6);
    }
    out.push(("particles.gpma_build_ms", median(&build_ms)));
    tr.end(root);
    out
}

/// Cycles of `phases` in one step.
fn phase_cycles(t: &StepTimings, phases: &[Phase]) -> f64 {
    phases.iter().map(|p| t.phase(*p)).sum()
}

/// `num / den`, or 0 where the denominator is 0 (a phase the workload
/// never charges, a step without moves).
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run of one workload. Writes the span file.
pub fn run_traced(w: &Workload, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    // `None` means a step panicked: the failed check is already counted.
    let _ = measure_traced(w, opts, &mut out);
    out
}

fn measure_traced(w: &Workload, opts: &RunOpts, out: &mut Outcome) -> Option<()> {
    let checks = &mut out.checks;
    let mut sim = w.build(opts.seed, opts.quick);
    let inv = Invariants::of(w, &sim);

    let warm = Instant::now();
    warm_up(&mut sim, opts.warmup_steps(), &inv, checks)?;
    let warmup_s = warm.elapsed().as_secs_f64();
    let warm_state = sim.snapshot();

    // Untraced reference steps from the warm state.
    let min_steps = if opts.quick { 3 } else { MIN_TRACED_STEPS };
    let mut ref_timings = Vec::new();
    let mut ref_ns = Vec::new();
    let clock = Instant::now();
    while ref_timings.len() < min_steps
        || clock.elapsed().as_secs_f64() < opts.seconds * UNTRACED_SHARE
    {
        let (t, ns) = checked_step(&mut sim, &inv, checks)?;
        ref_timings.push(t);
        ref_ns.push(ns);
    }
    let ref_state = fnv1a64(&sim.snapshot());

    // The same steps again, traced.
    let restored = sim.restore(&warm_state);
    checks.check(restored.is_ok(), || {
        format!("restore of the warm state failed: {restored:?}")
    });
    drop(warm_state);
    let mut tr = Tracer::new();
    let mut rig = Rig::new(&sim);
    let mut timings = Vec::new();
    let mut moves = MoveStats::default();
    let mut global_sorts = 0u64;
    let before = sim.machine.counters().clone();
    let (l1_before, l2_before) = (
        sim.machine.mem_ref().l1_stats(),
        sim.machine.mem_ref().l2_stats(),
    );
    for _ in 0..ref_timings.len() {
        global_sorts += u64::from(sim.global_sort_pending());
        let id = tr.begin("core.step", sim.step_index() + 1);
        let stepped = timed_step(&mut sim, checks);
        tr.end(id);
        let (t, _) = stepped?;
        check_outputs(&sim, &inv, checks);
        timings.push(t);
        moves.merge(&rig.step(&mut tr, &sim, w.reference).gpma);
    }
    let steps = timings.len() as f64;

    // The real simulation must not be perturbed by the rig.
    let same_timings = timings.iter().zip(&ref_timings).all(|(a, b)| {
        a.particles == b.particles
            && a.cycles
                .iter()
                .zip(&b.cycles)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    });
    checks.check(same_timings, || {
        "traced StepTimings differ from the untraced reference steps".into()
    });
    checks.check(fnv1a64(&sim.snapshot()) == ref_state, || {
        "traced end state differs from the untraced reference".into()
    });
    let invariants_hold = std::panic::catch_unwind(|| sim.electrons.check_invariants()).is_ok();
    checks.check(invariants_hold, || {
        "ParticleContainer::check_invariants failed after the traced run".into()
    });

    let after = sim.machine.counters().clone();
    let (l1, l2) = (
        sim.machine.mem_ref().l1_stats(),
        sim.machine.mem_ref().l2_stats(),
    );
    let l1_hits = (l1.hits - l1_before.hits) as f64;
    let l1_misses = (l1.misses - l1_before.misses) as f64;
    let l2_hits = (l2.hits - l2_before.hits) as f64;
    let l2_misses = (l2.misses - l2_before.misses) as f64;

    let probe_metrics = probes(&mut tr, &sim, opts.seed);
    // Checkpoint cost on the end state, raw wall time.
    let mut bytes = Vec::new();
    let snapshot_s = repeat_timed(opts.quick, || {
        let start = Instant::now();
        bytes = black_box(sim.snapshot());
        let seconds = start.elapsed().as_secs_f64();
        (seconds, seconds)
    });
    let restore_s = repeat_timed(opts.quick, || {
        let start = Instant::now();
        let restored = sim.restore(&bytes);
        let seconds = start.elapsed().as_secs_f64();
        checks.check(restored.is_ok(), || format!("restore failed: {restored:?}"));
        (seconds, seconds)
    });
    let snap_mb = bytes.len() as f64 / 1e6;
    drop(bytes);
    check_checkpoint_round_trip(&mut sim, checks);

    // Per-step medians of the rig spans.
    let ms = |name: &str| tr.median_ms(name);
    let traced_step_ms = tr.median_ms("core.step");
    let particles = median(
        &timings
            .iter()
            .map(|t| t.particles as f64)
            .collect::<Vec<_>>(),
    );
    let cells = sim.geom.total_cells() as f64;

    // Rig time the real step also spends (its own calls of the same
    // entry points); what is left of the step is unattributed.
    let mut attributed =
        ms("push.kernels") + ms("deposit.sort") + ms("deposit.deposit") + ms("solver.step");
    if w.reference {
        attributed += ms("push.charge");
    }
    if w.moving_window() {
        attributed += ms("grid.shift_window");
    }
    let untraced_ms: Vec<f64> = ref_ns.iter().map(|ns| ns * 1e-6).collect();
    let untraced_p50 = median(&untraced_ms);

    let per_cycle = |span: &str, extra: Option<&str>, phases: &[Phase]| {
        let a = tr.durations_ns(span);
        let b = extra.map(|e| tr.durations_ns(e));
        let per_step: Vec<f64> = timings
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let ns = a[i] + b.as_ref().map_or(0.0, |b| b[i]);
                ratio(ns, phase_cycles(t, phases))
            })
            .collect();
        median(&per_step)
    };

    let m = &mut out.metrics;
    m.push(("core.step_ms", untraced_p50));
    m.push(("core.step_p90_ms", percentile(&untraced_ms, 0.9)));
    let ref_per_cycle: Vec<f64> = ref_ns
        .iter()
        .zip(&ref_timings)
        .map(|(ns, t)| ns / t.total())
        .collect();
    m.push(("core.host_ns_per_emu_cycle", median(&ref_per_cycle)));
    m.push((
        "core.trace_overhead_pct",
        100.0 * (traced_step_ms - untraced_p50) / untraced_p50,
    ));
    m.push(("core.unattributed_ms", untraced_p50 - attributed));
    m.push(("core.warmup_s", warmup_s));
    m.push(("core.snapshot_mb_per_s", snap_mb / median(&snapshot_s)));
    m.push(("core.restore_mb_per_s", snap_mb / median(&restore_s)));
    const PHASE_NAMES: [&str; 8] = [
        "core.emu_mcycles.preprocess",
        "core.emu_mcycles.compute",
        "core.emu_mcycles.sort",
        "core.emu_mcycles.reduce",
        "core.emu_mcycles.gather",
        "core.emu_mcycles.push",
        "core.emu_mcycles.fieldsolve",
        "core.emu_mcycles.other",
    ];
    for (name, phase) in PHASE_NAMES.iter().zip(Phase::ALL) {
        m.push((
            name,
            (after.cycles(phase) - before.cycles(phase)) / steps * 1e-6,
        ));
    }
    let processed: f64 = timings.iter().map(|t| t.particles as f64).sum();
    let dep_cycles: f64 = timings.iter().map(StepTimings::deposition).sum();
    m.push((
        "core.emu_peak_frac",
        ratio(
            canonical_flops_per_particle(sim.cfg.shape) * processed,
            dep_cycles * sim.cfg.kernel.unit_peak_flops_per_cycle(&sim.cfg.machine),
        ),
    ));
    m.push(("core.global_sorts", global_sorts as f64));
    let charge = w.reference.then_some("push.charge");
    m.push((
        "core.host_ns_per_emu_cycle.gatherpush",
        per_cycle("push.kernels", charge, &[Phase::Gather, Phase::Push]),
    ));
    m.push((
        "core.host_ns_per_emu_cycle.sort",
        per_cycle("deposit.sort", None, &[Phase::Sort]),
    ));
    m.push((
        "core.host_ns_per_emu_cycle.deposit",
        per_cycle(
            "deposit.deposit",
            None,
            &[Phase::Preprocess, Phase::Compute, Phase::Reduce],
        ),
    ));
    m.push((
        "core.host_ns_per_emu_cycle.fieldsolve",
        per_cycle("solver.step", None, &[Phase::FieldSolve]),
    ));
    m.push(("push.kernels_ms", ms("push.kernels")));
    m.push((
        "push.kernels_ns_per_particle",
        ratio(ms("push.kernels") * 1e6, particles),
    ));
    m.push(("push.charge_ms", ms("push.charge")));
    m.push(("deposit.sort_ms", ms("deposit.sort")));
    m.push(("deposit.deposit_ms", ms("deposit.deposit")));
    m.push((
        "deposit.deposit_ns_per_particle",
        ratio(ms("deposit.deposit") * 1e6, particles),
    ));
    m.push((
        "deposit.emu_cycles_per_particle",
        ratio(dep_cycles, processed),
    ));
    m.push((
        "particles.moves_per_step",
        moves.moves_applied as f64 / steps,
    ));
    m.push((
        "particles.o1_insert_frac",
        ratio(moves.o1_inserts as f64, moves.insertions as f64),
    ));
    m.push(("particles.rebuilds_per_step", moves.rebuilds as f64 / steps));
    m.push((
        "particles.sort_ns_per_move",
        ratio(
            tr.durations_ns("deposit.sort").iter().sum(),
            moves.moves_applied as f64,
        ),
    ));
    m.push(("particles.empty_ratio", sim.electrons.empty_ratio()));
    m.push(("solver.step_ms", ms("solver.step")));
    m.push(("solver.ns_per_cell", ms("solver.step") * 1e6 / cells));
    m.push(("grid.fill_guards_ms", ms("grid.fill_guards")));
    m.push(("grid.clear_currents_ms", ms("grid.clear_currents")));
    m.push(("grid.shift_window_ms", ms("grid.shift_window")));
    m.push(("machine.l1_hit_rate", ratio(l1_hits, l1_hits + l1_misses)));
    m.push(("machine.l2_hit_rate", ratio(l2_hits, l2_hits + l2_misses)));
    m.push((
        "machine.walked_lines_per_step",
        (l1_hits + l1_misses) / steps,
    ));
    m.push((
        "machine.mopa_per_step",
        (after.mopa_ops - before.mopa_ops) as f64 / steps,
    ));
    m.push((
        "machine.vector_ops_per_step",
        (after.vector_ops - before.vector_ops) as f64 / steps,
    ));
    m.extend(probe_metrics);

    let path = span_file(w.name);
    let written = tr.write_jsonl(&path);
    checks.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    out.detail.extend([
        ("steps_traced", Json::Num(steps)),
        (
            "first_traced_step",
            Json::Num((opts.warmup_steps() + 1) as f64),
        ),
        ("spans", Json::Num(tr.spans.len() as f64)),
        ("span_file", Json::Str(path.display().to_string())),
    ]);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            step: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root [0, 100] > a [10, 40] > a1 [15, 25]; root > b [50, 90].
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), [30, 20, 10, 40]);
    }

    #[test]
    fn tracer_nests_spans_and_reports_durations_by_name() {
        let mut tr = Tracer::new();
        let root = tr.begin("root", 3);
        let got = tr.span("child", 3, || 7);
        tr.span("child", 3, || ());
        tr.end(root);
        assert_eq!(got, 7);
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(root));
        assert_eq!(tr.spans[2].parent, Some(root));
        assert_eq!(tr.durations_ns("child").len(), 2);
        assert_eq!(tr.median_ms("absent"), 0.0);
        for s in &tr.spans[1..] {
            assert!(tr.spans[0].start_ns <= s.start_ns && s.end_ns <= tr.spans[0].end_ns);
        }
        let own = self_times_ns(&tr.spans);
        let children: u64 = tr.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0] + children, tr.spans[0].end_ns - tr.spans[0].start_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_an_outer_span_first_is_a_bug() {
        let mut tr = Tracer::new();
        let outer = tr.begin("outer", 0);
        let _inner = tr.begin("inner", 0);
        tr.end(outer);
    }
}
