//! The emulated LX2 core: scalar pipe, VPU, MPU and memory system behind a
//! single mutable facade, and the [`Meter`] its phase scopes charge.
//!
//! Kernels call instruction-shaped methods (`v_mul`, `t_mopa`,
//! `v_touch_gather_priced`, ...), and nothing else charges a cycle: that
//! closed op set is the cost model's input language (README, "The two
//! prices of a run", tabulates every op by class and caller).
//! Value-returning ops perform the real arithmetic on host data *and*
//! charge the cost model, so a kernel is simultaneously its own
//! functional implementation and its own performance model; `v_touch_*`
//! ops charge only.
//!
//! The body of every op lives **once**, on [`Meter`].
//! [`Machine::in_phase`] opens a phase scope: it checks the counters the
//! ops add to — the phase's cycle bucket (the per-phase breakdowns of
//! the paper's Tables 1 and 2), `flops_issued` and the four instruction
//! counts — out of [`PerfCounters`] into a by-value `Meter`, hands it to
//! the scope's closure, and stores the totals back when the closure
//! returns. A kernel's charges are then adds on locals the optimiser
//! keeps in registers instead of read-modify-writes behind
//! `&mut Machine`, one strictly dependent store-forwarded chain per
//! counter. The ops `Machine` itself still offers are one-line
//! delegations — a scope around a single op — for callers that issue an
//! isolated op (tests, probes); anything that charges in a loop takes
//! the meter.

use crate::cache::{MemStats, MemSystem};
use crate::cost::MachineConfig;
use crate::counters::{MachineCounters, PerfCounters, Phase, Totals};
use crate::lines::{lane_lines, LineCarry, TensorBlock};
use crate::mem::VAddr;
use crate::vreg::{VReg, VLANES};

/// Identifier of an MPU tile register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileId(pub usize);

/// Number of architecturally visible MPU tile registers.
pub const NUM_TILES: usize = 4;

/// How a memory-bound primitive is priced — the timing-model half of a
/// step's execution mode, independent of the functional arithmetic —
/// and so which sweep the particle kernels run: the step's mode
/// (`Depositor::mode`) is a `Pricing`. The per-particle sweep walks,
/// the cell-run sweep streams; kernels that only run per particle,
/// such as the rhocell kernel's accumulates, pass [`Pricing::Walk`]
/// themselves.
/// The `*_priced` entry points are the only places that branch on it;
/// the cell-run block gather has one price and takes none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Every access walks the cache model: cost depends on (and
    /// updates) which lines are resident. As a step's mode: one
    /// particle at a time — the reference every bitwise test compares
    /// against, the path of every paper-figure bin, the only path for
    /// unsorted input (length-1 runs have nothing to amortise) and the
    /// only path of the direct-scatter and rhocell kernels, which are
    /// per-particle by design.
    Walk,
    /// State-free streaming model: a flat bandwidth cost per spanned
    /// line with a footprint roofline crossover, a pure function of the
    /// call operands (see the streaming-price section below). As a
    /// step's mode: same-cell particle runs in lane-width packs, each
    /// run loading its stencil block once and touching the tile
    /// accumulator once. Requires cell-grouped order.
    Stream,
}

/// The emulated core.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    ctr: PerfCounters,
    mem: MemSystem,
    /// The bucket of the open phase scope — or, outside any scope, of
    /// the next delegated op ([`Phase::Other`] from construction on).
    phase: Phase,
    /// Multiplier applied to arithmetic-op charges; >1 models code the
    /// compiler auto-vectorises poorly (see
    /// [`MachineConfig::autovec_efficiency`]).
    throughput_penalty: f64,
    tiles: [[[f64; VLANES]; VLANES]; NUM_TILES],
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(
            cfg.l1.line_bytes >= 8,
            "a cache line holds at least one f64"
        );
        let mem = MemSystem::new(cfg.l1, cfg.l2, cfg.l1_hit_cy, cfg.l2_hit_cy, cfg.dram_cy);
        Self {
            cfg,
            ctr: PerfCounters::new(),
            mem,
            phase: Phase::Other,
            throughput_penalty: 1.0,
            tiles: [[[0.0; VLANES]; VLANES]; NUM_TILES],
        }
    }

    /// Forks a worker machine for parallel tile execution: same
    /// configuration and virtual address space (so shared [`VAddr`]s stay
    /// valid), but zeroed counters, a flushed cache and neutral execution
    /// state. [`crate::Exec::run_counted`] charges every item on such a
    /// fork and merges the drained counters back into this machine in
    /// item order, keeping totals bit-identical for any worker count.
    pub fn fork_worker(&self) -> Machine {
        let mut w = self.clone();
        w.ctr = PerfCounters::new();
        w.mem.flush_cache();
        w.mem.set_stats(MemStats::default());
        w.reset_execution_state();
        w
    }

    /// Takes (and zeroes) everything this machine has accumulated since
    /// the last drain: per-phase cycles, instruction counts and cache
    /// statistics.
    pub fn drain_counters(&mut self) -> MachineCounters {
        MachineCounters {
            perf: std::mem::take(&mut self.ctr),
            mem: self.mem.take_stats(),
        }
    }

    /// Merges a drained worker counter set into this machine's totals.
    /// Purely additive: the cache's behavioural state is untouched.
    pub(crate) fn absorb_counters(&mut self, c: &MachineCounters) {
        self.ctr.merge(&c.perf);
        self.mem.absorb_stats(&c.mem);
    }

    /// The machine configuration.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Read access to the counters.
    pub fn counters(&self) -> &PerfCounters {
        &self.ctr
    }

    /// Mutable access to the counters (the harness uses this to credit
    /// canonical useful FLOPs, and tests to reset).
    pub fn counters_mut(&mut self) -> &mut PerfCounters {
        &mut self.ctr
    }

    /// The memory system (for allocation and cache statistics).
    pub fn mem(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// Shared (read-only) view of the memory system, for non-mutating
    /// inspection — checkpointing reads the allocator mark and cache
    /// state through this without perturbing the machine.
    pub fn mem_ref(&self) -> &MemSystem {
        &self.mem
    }

    /// Resets the transient execution state — phase, throughput penalty
    /// and MPU tile registers — to the post-construction values. Used by
    /// snapshot restore: tile registers and the penalty are dead between
    /// steps (kernels run on worker forks and re-establish both), so the
    /// construction values are the canonical step-boundary state.
    pub fn reset_execution_state(&mut self) {
        self.phase = Phase::Other;
        self.throughput_penalty = 1.0;
        self.tiles = [[[0.0; VLANES]; VLANES]; NUM_TILES];
    }

    /// Opens a phase scope: runs `f` with `phase` active and the
    /// counters checked out into the [`Meter`] it is handed, then stores
    /// them back and restores the previous phase.
    ///
    /// Every function `f` calls in a per-run or per-pair loop must take
    /// the meter and be `#[inline]`: the meter is meant to stay one
    /// scalar-replaced local, and a non-inlined callee that receives
    /// `&mut Meter` forces it to memory — the compiler cannot prove the
    /// machine pointer inside does not alias it — which puts that loop
    /// back on the store-forwarded chain the scope exists to remove. A
    /// helper that has to stay out of line takes what it works on (the
    /// memory system, a tile register), not the meter.
    ///
    /// A panic inside `f` unwinds past the commit: the scope's charges
    /// are dropped and the phase stays switched, exactly as an unwinding
    /// scope has always left it. Nothing reads a machine in that state —
    /// a faulted worker fork is discarded, and `ResilientDriver` restores
    /// the main machine's counters from the checkpoint
    /// ([`Machine::reset_execution_state`] resets the phase).
    #[inline]
    pub fn in_phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Meter<'_>) -> R) -> R {
        let prev = std::mem::replace(&mut self.phase, phase);
        let mut k = Meter {
            t: self.ctr.check_out(phase),
            m: self,
        };
        let r = f(&mut k);
        let t = k.t;
        self.ctr.commit(phase, t);
        self.phase = prev;
        r
    }

    /// Applies the configured auto-vectorisation penalty to arithmetic
    /// charges (`1.0 / autovec_efficiency`; 1.0 = hand-tuned intrinsics).
    pub fn use_autovec_model(&mut self) {
        self.throughput_penalty = 1.0 / self.cfg.autovec_efficiency;
    }

    /// Restores hand-tuned throughput.
    pub fn use_intrinsics_model(&mut self) {
        self.throughput_penalty = 1.0;
    }

    /// Direct tile inspection for tests (cost-free).
    pub fn tile_value(&self, tile: TileId, row: usize, col: usize) -> f64 {
        self.tiles[tile.0][row][col]
    }

    /// Memory-level-parallelism factor of the gather unit: the per-line
    /// miss latencies of one gather overlap, so only this fraction of
    /// each line's cost is charged (scatters, being read-modify-write,
    /// get no such discount).
    const GATHER_MLP: f64 = 0.15;

    /// Maximum elements along one axis of a run-scoped block (a QSP
    /// stencil: 4 nodes).
    pub const RUN_AXIS_MAX: usize = 4;

    /// Maximum elements of one run-scoped block touch (a QSP stencil
    /// block: 4^3 nodes).
    pub const RUN_BLOCK_MAX: usize = Self::RUN_AXIS_MAX.pow(3);

    /// Number of cache lines spanned by `[addr, addr + bytes)` — the
    /// address-only counterpart of a cache access, used by the
    /// state-free streaming prices.
    fn lines_spanned(&self, addr: VAddr, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let shift = self.mem.line_shift();
        ((addr.0 + bytes - 1) >> shift) - (addr.0 >> shift) + 1
    }

    /// Roofline crossover of the state-free streaming price: the
    /// per-line cost of streaming from an operand array whose total byte
    /// span is `footprint`. A sweep over an array that fits in L1
    /// (`footprint <= stream_crossover_bytes`) is bandwidth-bound on the
    /// **L1** side of the roofline — every line it revisits is a hit —
    /// so it pays `resident_line_cy` per line instead of the DRAM stream
    /// price. `footprint == 0` means "unknown" and keeps the
    /// conservative DRAM-stream price. The `min` guarantees the
    /// crossover only ever *lowers* a price (a misdeclared footprint can
    /// never make a phase dearer), and the price stays a pure function
    /// of the call operands — no cache state is consulted.
    fn stream_line_price(&self, footprint: u64) -> f64 {
        if footprint > 0 && footprint <= self.cfg.stream_crossover_bytes {
            self.cfg.simd_stream_line_cy.min(self.cfg.resident_line_cy)
        } else {
            self.cfg.simd_stream_line_cy
        }
    }
}

/// The charging end of an open phase scope ([`Machine::in_phase`]) and
/// the one home of the cost model's op bodies.
///
/// Holds the machine plus the scope's counters as **running totals** —
/// loaded when the scope opens, stored back when it closes — not as
/// deltas from zero: every add then has the operands it would have had
/// on the counters themselves, in the same order, so the totals are
/// bit-identical to per-op read-modify-writes for any price table
/// (a delta added at commit regroups the f64 sum, and the stream prices
/// are not dyadic). Pure ops add to the local totals only; walked ops
/// reach the cache simulator and the tile registers through the held
/// machine, and the throughput penalty is read from it at every use, so
/// [`Meter::use_autovec_model`] takes effect mid-scope.
#[derive(Debug)]
pub struct Meter<'m> {
    m: &'m mut Machine,
    t: Totals,
}

impl Meter<'_> {
    /// The machine configuration.
    #[inline]
    pub fn cfg(&self) -> &MachineConfig {
        &self.m.cfg
    }

    /// A nested scope: commits this scope's totals, runs `f` in a scope
    /// of `phase`, and checks this scope's counters out again (the inner
    /// scope moved the shared ones).
    #[inline]
    pub fn in_phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Meter<'_>) -> R) -> R {
        self.m.ctr.commit(self.m.phase, self.t);
        let r = self.m.in_phase(phase, f);
        self.t = self.m.ctr.check_out(self.m.phase);
        r
    }

    /// [`Machine::use_autovec_model`], effective from the next op.
    #[inline]
    pub fn use_autovec_model(&mut self) {
        self.m.use_autovec_model();
    }

    /// [`Machine::use_intrinsics_model`], effective from the next op.
    #[inline]
    pub fn use_intrinsics_model(&mut self) {
        self.m.use_intrinsics_model();
    }

    /// Charges raw cycles to the active phase (used by coarse-grained
    /// instrumentation in the solver and pusher).
    #[inline]
    pub fn charge(&mut self, cycles: f64) {
        self.t.cycles += cycles;
    }

    /// Records FLOPs executed without charging cycles (paired with
    /// [`Meter::charge`] by coarse-grained instrumentation).
    #[inline]
    pub fn record_flops(&mut self, flops: f64) {
        self.t.flops_issued += flops;
    }

    #[inline]
    fn charge_arith(&mut self, base_cy: f64, flops: f64) {
        self.t.cycles += base_cy * self.m.throughput_penalty;
        self.t.flops_issued += flops;
    }

    // ------------------------------------------------------------------
    // Arithmetic (scalar pipe and VPU)
    // ------------------------------------------------------------------

    /// Charges `n` generic scalar ALU operations (address math, compares).
    #[inline]
    pub fn s_ops(&mut self, n: usize) {
        self.t.scalar_ops += n as u64;
        self.t.cycles += self.m.cfg.scalar_arith_cy * n as f64 * self.m.throughput_penalty;
    }

    /// Broadcasts a scalar to all lanes.
    #[inline]
    pub fn v_splat(&mut self, x: f64) -> VReg {
        self.t.vector_ops += 1;
        self.charge_arith(self.m.cfg.vpu_arith_cy, 0.0);
        VReg::splat(x)
    }

    /// Lane-wise addition.
    #[inline]
    pub fn v_add(&mut self, a: VReg, b: VReg) -> VReg {
        self.t.vector_ops += 1;
        self.charge_arith(self.m.cfg.vpu_arith_cy, VLANES as f64);
        let mut r = VReg::zero();
        for i in 0..VLANES {
            r.0[i] = a.0[i] + b.0[i];
        }
        r
    }

    /// Lane-wise multiplication.
    #[inline]
    pub fn v_mul(&mut self, a: VReg, b: VReg) -> VReg {
        self.t.vector_ops += 1;
        self.charge_arith(self.m.cfg.vpu_arith_cy, VLANES as f64);
        let mut r = VReg::zero();
        for i in 0..VLANES {
            r.0[i] = a.0[i] * b.0[i];
        }
        r
    }

    /// Charges `n` generic vector ALU operations without data (companion
    /// of [`Meter::s_ops`] for modelled vector instruction streams).
    #[inline]
    pub fn v_ops(&mut self, n: usize) {
        self.t.vector_ops += n as u64;
        self.charge_arith(self.m.cfg.vpu_arith_cy * n as f64, (n * VLANES) as f64);
    }

    /// Charges the issue cost of `n` vector memory instructions whose
    /// data is cache-blocked scratch (staging buffers processed in
    /// L1-resident blocks): no cache simulation, no FLOPs — just pipeline
    /// occupancy.
    #[inline]
    pub fn v_issue(&mut self, n: usize) {
        self.t.vector_ops += n as u64;
        self.t.cycles += self.m.cfg.vpu_arith_cy * n as f64 * self.m.throughput_penalty;
    }

    // ------------------------------------------------------------------
    // Contiguous loads and stores, walked or streamed
    // ------------------------------------------------------------------
    //
    // `Pricing::Stream` prices memory traffic as *streams*, not as
    // individual cache transactions: wide accesses issued back to back
    // overlap their fills like an established prefetch stream, so each
    // spanned line charges its share of sustained bandwidth
    // (`simd_stream_line_cy`, further overlapped by `GATHER_MLP` for
    // read streams) instead of a latency that depends on what happens to
    // be resident. The charge is a pure function of the address stream —
    // no cache-simulator state is read or written — which both prices
    // the mode's deep out-of-order overlap and keeps every streamed
    // charge bit-reproducible from the tile data alone.
    // `footprint` feeds only the streaming arm of a `*_priced` entry
    // point; the walk arm prices from cache state.

    /// Scalar load of `bytes` at `addr` (data itself lives in host arrays).
    #[inline]
    pub fn s_load(&mut self, addr: VAddr, bytes: u64) {
        self.t.cycles += self.m.mem.access(addr, bytes);
    }

    /// Charges a contiguous vector load's issue and memory cost without
    /// returning data, walking the cache. Used when a kernel's
    /// functional values are already staged but the address stream must
    /// still be priced (e.g. replaying the load pattern of a
    /// preprocessing loop).
    #[inline]
    pub fn v_touch_load(&mut self, addr: VAddr, lanes: usize) {
        self.t.cycles += self.m.mem.access(addr, (lanes.min(VLANES) * 8) as u64);
        self.t.vector_ops += 1;
    }

    /// Cost-only contiguous vector load at the state-free streaming
    /// price (twin of [`Meter::v_touch_load`]). `footprint` is the
    /// byte span of the whole source array for the roofline crossover
    /// (`Machine::stream_line_price`); pass 0 when unknown.
    #[inline]
    pub fn v_touch_load_streamed(&mut self, addr: VAddr, lanes: usize, footprint: u64) {
        let cy = Machine::GATHER_MLP
            * self.m.stream_line_price(footprint)
            * self.m.lines_spanned(addr, (lanes.min(VLANES) * 8) as u64) as f64;
        self.t.cycles += cy;
        self.t.vector_ops += 1;
    }

    /// [`Meter::v_touch_load`] walked, or
    /// [`Meter::v_touch_load_streamed`] streamed.
    #[inline]
    pub fn v_touch_load_priced(
        &mut self,
        pricing: Pricing,
        addr: VAddr,
        lanes: usize,
        footprint: u64,
    ) {
        match pricing {
            Pricing::Walk => self.v_touch_load(addr, lanes),
            Pricing::Stream => self.v_touch_load_streamed(addr, lanes, footprint),
        }
    }

    /// Contiguous vector load of up to [`VLANES`] values from `src`,
    /// zero-padding the tail, charged as
    /// [`Meter::v_touch_load_priced`]. `footprint` is the byte span of
    /// the whole source array for the roofline crossover; pass 0 when
    /// unknown.
    #[inline]
    pub fn v_load_priced(
        &mut self,
        pricing: Pricing,
        addr: VAddr,
        src: &[f64],
        footprint: u64,
    ) -> VReg {
        let n = src.len().min(VLANES);
        self.v_touch_load_priced(pricing, addr, n, footprint);
        VReg::from_slice(&src[..n])
    }

    /// Contiguous vector store of the first `n` lanes into `dst`.
    /// Streamed, write-combining buffers retire back-to-back wide stores
    /// at stream bandwidth, so a store gets the same per-line price and
    /// issue accounting as a read stream; walked, it is one cache
    /// access. `footprint` is the destination array's byte span for the
    /// roofline crossover; pass 0 when unknown.
    ///
    /// # Panics
    ///
    /// Panics if `n > VLANES` or `dst.len() < n`.
    #[inline]
    pub fn v_store_priced(
        &mut self,
        pricing: Pricing,
        addr: VAddr,
        reg: VReg,
        dst: &mut [f64],
        n: usize,
        footprint: u64,
    ) {
        assert!(n <= VLANES);
        self.v_touch_load_priced(pricing, addr, n, footprint);
        dst[..n].copy_from_slice(&reg.0[..n]);
    }

    // ------------------------------------------------------------------
    // Gathers: one price per distinct cache line
    // ------------------------------------------------------------------

    /// The walked gather price: `lane_cy` of per-lane issue plus one
    /// cache access per line of `lines` displaced by `delta`, in
    /// ascending order (the gather unit coalesces same-line lanes), with
    /// miss latencies overlapped by [`Machine::GATHER_MLP`]. Takes the
    /// memory system, not the meter: this loop may stay out of line.
    fn walk_gather_lines(mem: &mut MemSystem, lane_cy: f64, lines: &[u64], delta: u64) -> f64 {
        let mut cy = lane_cy;
        mem.walk_lines(lines.iter().map(|&l| l.wrapping_add(delta)), |lat| {
            cy += Machine::GATHER_MLP * lat;
        });
        cy
    }

    /// Charges an indexed gather of up to [`VLANES`] lanes — lane `l`
    /// reads `base[idx[l]]` — walking the cache: one access per distinct
    /// line plus the per-lane gather penalty.
    #[inline]
    pub fn v_touch_gather(&mut self, base: VAddr, idx: &[usize]) {
        self.v_touch_gather_priced(Pricing::Walk, &[base], idx, 0);
    }

    /// [`Meter::v_touch_gather`] of one shared index vector from each
    /// of `bases` in turn — the per-particle gather's six field arrays,
    /// the staging loop's seven SoA attributes — one vector instruction
    /// and one cycle charge per base (an empty index vector still
    /// issues). Walked, the cache sees `[base][ascending line]`;
    /// streamed, each distinct line charges the overlapped stream price
    /// at `footprint`'s side of the roofline crossover (0 = unknown).
    #[inline]
    pub fn v_touch_gather_priced(
        &mut self,
        pricing: Pricing,
        bases: &[VAddr],
        idx: &[usize],
        footprint: u64,
    ) {
        let idx = &idx[..idx.len().min(VLANES)];
        let lane_cy = self.m.cfg.gather_lane_cy * idx.len() as f64;
        let line_cy = Machine::GATHER_MLP * self.m.stream_line_price(footprint);
        let shift = self.m.mem.line_shift();
        let in_line = self.m.mem.line_bytes() - 1;
        // One set per run of bases congruent modulo the line size
        // (line-aligned allocations: one in all), replayed displaced by
        // each base's own line id. Host-side sharing only.
        let (mut lines, mut len) = ([0; VLANES], 0);
        let mut offset = None;
        for &base in bases {
            if offset != Some(base.0 & in_line) {
                offset = Some(base.0 & in_line);
                len = lane_lines(&mut lines, base.0 & in_line, idx, shift);
            }
            self.t.vector_ops += 1;
            self.t.cycles += match pricing {
                Pricing::Walk => Self::walk_gather_lines(
                    &mut self.m.mem,
                    lane_cy,
                    &lines[..len],
                    base.0 >> shift,
                ),
                Pricing::Stream => lane_cy + line_cy * len as f64,
            };
        }
    }

    /// Run-scoped block gather: charges loading one block of up to
    /// [`Machine::RUN_BLOCK_MAX`] nodes from each of `bases` with **each
    /// distinct cache line charged at most once** per base — the memory
    /// stream of a kernel that loads a cell's stencil node block into
    /// registers once per same-cell particle run and reuses it for every
    /// particle of the run (the run gather's six field components).
    /// Per-lane gather issue cost is still paid for every node — address
    /// generation does not amortise. An empty block, or no base, is free
    /// and leaves `carry` as it was; every other call advances it to
    /// `block`.
    ///
    /// It replaces the per-particle [`Meter::v_touch_gather`] walk, and
    /// two things differ, which together are what the cell-run sweep
    /// buys:
    ///
    /// * lines already covered by the block `carry` holds (the preceding
    ///   run's stencil, which the kernel keeps resident in lane
    ///   registers) are priced as register rotations — no memory
    ///   transaction at all. Sorted input visits adjacent cells, whose
    ///   stencils overlap node for node, so most of a run's block load
    ///   collapses;
    /// * each *new* line is charged the state-free streaming price
    ///   (`GATHER_MLP x` the crossover line price,
    ///   `Machine::stream_line_price`) instead of a cache walk: the
    ///   block loads of consecutive runs form a dense ascending sweep of
    ///   the tile's field arrays, exactly the access shape the stream
    ///   prefetcher services at bandwidth. `footprint` declares one
    ///   field array's byte span so L1-resident grids cross over to the
    ///   resident line price (0 = unknown, DRAM stream). The charge is a
    ///   pure function of `(bases, block, the carried block, footprint)`.
    #[inline]
    pub fn v_touch_gather_block(
        &mut self,
        bases: &[VAddr],
        block: &TensorBlock,
        carry: &mut LineCarry,
        footprint: u64,
    ) {
        let (Some(&first), false) = (bases.first(), block.is_empty()) else {
            return;
        };
        let issues = block.len().div_ceil(VLANES) as u64;
        let lane_cy = self.m.cfg.gather_lane_cy * block.len() as f64;
        let line_cy = Machine::GATHER_MLP * self.m.stream_line_price(footprint);
        // One add per new line: a multiply-by-count could round
        // differently. The sum is the same for every base the lines in
        // hand serve.
        let charge = |new: usize| (0..new).fold(lane_cy, |cy, _| cy + line_cy);
        let shift = self.m.mem.line_shift();
        let mut cy = charge(carry.advance(block, first, shift));
        for &base in bases {
            if !carry.serves(base, shift) {
                cy = charge(carry.rebase(base, shift));
            }
            self.t.vector_ops += issues;
            self.t.cycles += cy;
        }
    }

    // ------------------------------------------------------------------
    // Scatters
    // ------------------------------------------------------------------

    /// Indexed scatter-add: lane `l` performs `dst[idx[l]] += reg[l]`.
    ///
    /// Duplicate indices within the vector are handled correctly (all
    /// contributions land) but charge the conflict-serialisation penalty
    /// of equation 2 in the paper: each lane beyond the first targeting
    /// the same element costs `conflict_lane_cy` extra.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() > VLANES` or any index is out of bounds.
    #[inline]
    pub fn v_scatter_add(&mut self, base: VAddr, idx: &[usize], reg: VReg, dst: &mut [f64]) {
        assert!(idx.len() <= VLANES);
        for (l, &i) in idx.iter().enumerate() {
            dst[i] += reg.0[l];
        }
        self.v_touch_scatter_add(base, idx);
    }

    /// Charges an indexed scatter-add's memory, issue and conflict cost
    /// without writing data (cost-only mirror of
    /// [`Meter::v_scatter_add`]). Used when the functional accumulation
    /// is applied separately — e.g. the parallel rhocell reduction, where
    /// workers price the scatter stream per tile while the actual grid
    /// writes happen in a deterministic fixed-order pass.
    ///
    /// `base` is f64-aligned, as every [`MemSystem::alloc_f64`] array
    /// is, so each lane's element lies in one cache line and the lanes
    /// walk as one line list.
    #[inline]
    pub fn v_touch_scatter_add(&mut self, base: VAddr, idx: &[usize]) {
        assert!(idx.len() <= VLANES);
        debug_assert!(base.0 % 8 == 0 && self.m.mem.line_bytes() >= 8);
        self.t.vector_ops += 1;
        let (lane_cy, conflict_cy) = (self.m.cfg.gather_lane_cy, self.m.cfg.conflict_lane_cy);
        let shift = self.m.mem.line_shift();
        let (mut cy, mut l) = (0.0, 0);
        let lines = idx.iter().map(|&i| base.offset_f64(i).0 >> shift);
        self.m.mem.walk_lines(lines, |lat| {
            cy += lat + lane_cy;
            // Conflict detection: lanes before `l` hitting the same index.
            if idx[..l].contains(&idx[l]) {
                cy += conflict_cy;
            }
            l += 1;
        });
        self.t.flops_issued += idx.len() as f64;
        self.t.cycles += cy;
    }

    /// Fused rhocell→grid reduction touch: charges folding one cell's
    /// per-node source vectors into up to three scattered destination
    /// components in a **single traversal** of the node list, instead of
    /// one sweep per component. The fusion is what the streaming
    /// reduction buys, and this mirror is how the emulated cost model
    /// sees it:
    ///
    /// * per-lane scatter address generation (`gather_lane_cy`) is paid
    ///   **once** across all components — the node indices are shared,
    ///   so the fused loop computes each address a single time where the
    ///   per-component sweeps recompute it per component;
    /// * each component's contiguous source slice is still streamed in
    ///   [`VLANES`]-wide chunks (the rhocell layout is dense per cell),
    ///   priced per spanned line at the state-free streaming cost with
    ///   read-stream overlap;
    /// * each component's **distinct destination cache lines** are
    ///   charged one full stream-line cost each — read-modify-write
    ///   traffic gets no overlap discount, but a line shared by several
    ///   stencil nodes is touched once instead of once per node;
    /// * the reduction sweeps a tile's cells in order and consecutive
    ///   cells' stencils overlap — destination lines already folded by
    ///   the preceding cell (the block `carry` holds) still sit in the
    ///   store buffer, so the kernel merges into them without a fresh
    ///   read-modify-write transaction and they charge nothing. Callers
    ///   must [`LineCarry::reset`] the carry unless the preceding fold
    ///   covered the same components; the contiguous per-cell source
    ///   streams never reuse (each cell owns its slice).
    ///
    /// Like every streaming price, the charge is a pure function of the
    /// call's inputs: no cache-simulator state is read or written.
    ///
    /// `srcs[k]`/`dsts[k]` pair component `k`'s contiguous source base
    /// with its scattered destination base; passing fewer than three
    /// pairs prices a partial-component fold. `block` holds the
    /// destination offsets shared by every component; an empty block is
    /// free and leaves `carry` as it was, every other call advances it
    /// to `block`. `src_footprint`/`dst_footprint` declare the byte
    /// spans of one source array and one destination array for the
    /// roofline crossover (`Machine::stream_line_price`); pass 0 when
    /// unknown.
    ///
    /// # Panics
    ///
    /// Panics if `srcs.len() != dsts.len()` or if no components are
    /// given.
    #[inline]
    pub fn v_touch_reduce_block_reuse(
        &mut self,
        srcs: &[VAddr],
        dsts: &[VAddr],
        block: &TensorBlock,
        carry: &mut LineCarry,
        src_footprint: u64,
        dst_footprint: u64,
    ) {
        assert_eq!(
            srcs.len(),
            dsts.len(),
            "source/destination component lists must pair up"
        );
        assert!(!srcs.is_empty(), "reduce needs at least one component");
        if block.is_empty() {
            return;
        }
        let (comps, nodes) = (srcs.len(), block.len());
        self.t.vector_ops += (comps * nodes.div_ceil(VLANES)) as u64;
        // Shared address generation: one lane penalty per node, not per
        // node per component.
        let mut cy = self.m.cfg.gather_lane_cy * nodes as f64;
        // Contiguous source streams, one per component: the rhocell
        // layout keeps each cell's node slice dense, and the cell sweep
        // walks those slices in ascending order — a textbook stream,
        // charged per spanned line with read-stream overlap.
        let src_line_cy = Machine::GATHER_MLP * self.m.stream_line_price(src_footprint);
        for &src in srcs {
            let mut node = 0;
            while node < nodes {
                let n = (nodes - node).min(VLANES);
                cy +=
                    src_line_cy * self.m.lines_spanned(src.offset_f64(node), (n * 8) as u64) as f64;
                node += n;
            }
        }
        // Scattered destinations: each distinct new line once per
        // component at the full stream cost — read-modify-write traffic
        // gets no read-overlap discount — unless the preceding cell's
        // fold left the line in the store buffer. The adds stay
        // one-at-a-time onto the running total: a multiply could round
        // differently.
        let dst_line_cy = self.m.stream_line_price(dst_footprint);
        let shift = self.m.mem.line_shift();
        let mut new = carry.advance(block, dsts[0], shift);
        for &dst in dsts {
            if !carry.serves(dst, shift) {
                new = carry.rebase(dst, shift);
            }
            for _ in 0..new {
                cy += dst_line_cy;
            }
        }
        self.t.flops_issued += (comps * nodes) as f64;
        self.t.cycles += cy;
    }

    // ------------------------------------------------------------------
    // MPU
    // ------------------------------------------------------------------

    /// Zeroes an MPU tile register.
    #[inline]
    pub fn t_zero(&mut self, tile: TileId) {
        self.t.cycles += self.m.cfg.tile_zero_cy * self.m.throughput_penalty;
        self.m.tiles[tile.0] = [[0.0; VLANES]; VLANES];
    }

    /// MOPA: `C += a (x) b`, the full 8x8 rank-1 update of equation 3.
    ///
    /// The instruction always charges the full tile (128 FLOPs issued);
    /// utilisation of the tile by *useful* work is exactly what the paper's
    /// CIC (25%) vs QSP (50%) analysis is about.
    ///
    /// Always inlined: the matrix kernel issues it once per slab inside
    /// its pair loop, and a call there — any call, the ABI has no
    /// callee-saved vector registers — spills the meter's f64 totals to
    /// the stack and reloads them, which is the store-forwarded chain
    /// again.
    #[inline(always)]
    pub fn t_mopa(&mut self, tile: TileId, a: VReg, b: VReg) {
        self.t.mopa_ops += 1;
        self.charge_arith(self.m.cfg.mopa_cy, (VLANES * VLANES * 2) as f64);
        let t = &mut self.m.tiles[tile.0];
        for i in 0..VLANES {
            if a.0[i] == 0.0 {
                continue; // Arithmetic shortcut only; cost already charged.
            }
            for j in 0..VLANES {
                t[i][j] = a.0[i].mul_add(b.0[j], t[i][j]);
            }
        }
    }

    /// Reads one tile row into a VPU register (charged as MPU->VPU
    /// transfer; this is the data-movement cost the paper identifies as
    /// the gap between anticipated and observed speedup).
    #[inline]
    pub fn t_read_row(&mut self, tile: TileId, row: usize) -> VReg {
        assert!(row < VLANES);
        self.t.tile_transfers += 1;
        self.t.cycles += self.m.cfg.tile_row_xfer_cy * self.m.throughput_penalty;
        VReg(self.m.tiles[tile.0][row])
    }
}

/// The op set on [`Machine`] itself: each a phase scope around the one
/// [`Meter`] op of the same name, charged to the machine's current phase.
/// For an isolated op outside any scope — never in a loop, which opens
/// the scope once and issues on the meter.
macro_rules! delegate_ops {
    ($($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {
        impl Machine {
            $(
                #[doc = concat!("[`Meter::", stringify!($name), "`] in a scope of its own.")]
                #[inline]
                pub fn $name(&mut self, $($arg: $ty),*) $(-> $ret)? {
                    self.in_phase(self.phase, |k| k.$name($($arg),*))
                }
            )*
        }
    };
}

delegate_ops! {
    charge(cycles: f64);
    record_flops(flops: f64);
    s_ops(n: usize);
    v_splat(x: f64) -> VReg;
    v_add(a: VReg, b: VReg) -> VReg;
    v_mul(a: VReg, b: VReg) -> VReg;
    v_ops(n: usize);
    v_issue(n: usize);
    s_load(addr: VAddr, bytes: u64);
    v_touch_load(addr: VAddr, lanes: usize);
    v_touch_load_streamed(addr: VAddr, lanes: usize, footprint: u64);
    v_touch_load_priced(pricing: Pricing, addr: VAddr, lanes: usize, footprint: u64);
    v_load_priced(pricing: Pricing, addr: VAddr, src: &[f64], footprint: u64) -> VReg;
    v_store_priced(pricing: Pricing, addr: VAddr, reg: VReg, dst: &mut [f64], n: usize, footprint: u64);
    v_touch_gather(base: VAddr, idx: &[usize]);
    v_touch_gather_priced(pricing: Pricing, bases: &[VAddr], idx: &[usize], footprint: u64);
    v_touch_gather_block(bases: &[VAddr], block: &TensorBlock, carry: &mut LineCarry, footprint: u64);
    v_scatter_add(base: VAddr, idx: &[usize], reg: VReg, dst: &mut [f64]);
    v_touch_scatter_add(base: VAddr, idx: &[usize]);
    v_touch_reduce_block_reuse(srcs: &[VAddr], dsts: &[VAddr], block: &TensorBlock, carry: &mut LineCarry, src_footprint: u64, dst_footprint: u64);
    t_zero(tile: TileId);
    t_mopa(tile: TileId, a: VReg, b: VReg);
    t_read_row(tile: TileId, row: usize) -> VReg;
}

#[cfg(test)]
/// The op set as it charged before the [`Meter`]: every op a
/// read-modify-write of the machine's own counters ([`reference::PerOp`],
/// the executable specification
/// `conf_meter_scope_matches_per_op_charges_bitwise` holds the scopes
/// to), over the line-set touch family as it stood before
/// [`crate::lines`] — four separately written collect / dedup / subtract
/// / replay loops and the load/store triple, which
/// `conf_line_set_touches_match_reference_bitwise` holds the rewritten
/// entry points to, with the block touches on node lists: the builder
/// they shared last ([`reference::LineSet`]: two sorted node lists,
/// subtracted) is what `conf_block_line_carry_matches_node_lists_bitwise`
/// holds the carried row builder to — and, through
/// [`reference::Mutant`], the near misses those tests must reject.
mod reference {
    use super::*;

    /// A deliberate defect the bitwise tests must catch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mutant {
        None,
        /// `lane_cy + line_cy * new` in place of one add per new line.
        MultiplyByCount,
        /// The anchor's line set replayed on a base that is not
        /// congruent to it modulo the line size.
        ReplayOnIncongruentBase,
        /// `vector_ops += 1` per block instead of one per `VLANES`
        /// elements.
        OneIssuePerBlock,
        /// A scope that sums its charges from 0.0 and adds the delta to
        /// the counters when it closes.
        DeltaFromZero,
        /// The throughput penalty read once, when the scope opens.
        PenaltyAtCheckout,
        /// A nested scope opened without committing the outer one: the
        /// inner scope checks out stale totals and the outer scope's
        /// charges so far are lost to the reload.
        NestedWithoutCommit,
        /// A sweep that keeps its carry when the live-component set of a
        /// fold changes.
        NoResetOnMaskChange,
        /// A sweep whose carry survives into the next tile.
        CarryAcrossTiles,
        /// A row builder that drops repeats of the line written last,
        /// merges the runs a wrap left out of order, and stops there.
        NoDedupAfterMerge,
        /// A row builder that counts one line per run of consecutive x
        /// offsets, even where the run straddles a line boundary.
        OneLinePerRun,
        /// A row builder that takes an x-wrapped row for one run, from
        /// its lowest offset to its highest.
        WrappedRowAsOneRun,
    }

    impl Mutant {
        fn of_rows(self) -> bool {
            matches!(
                self,
                Mutant::NoDedupAfterMerge | Mutant::OneLinePerRun | Mutant::WrappedRowAsOneRun
            )
        }
    }

    /// The reuse state of the node-list family: the previous block, whose
    /// node list every call sorts again.
    #[derive(Clone)]
    pub struct Carry(TensorBlock);

    impl Carry {
        pub fn new() -> Self {
            Carry(TensorBlock::EMPTY)
        }

        pub fn reset(&mut self) {
            self.0 = TensorBlock::EMPTY;
        }
    }

    /// The block's node list.
    pub fn nodes(block: &TensorBlock) -> Vec<usize> {
        let mut idx = Vec::new();
        block.for_each_node(|_, i| idx.push(i));
        idx
    }

    /// The sorted distinct cache-line ids of `base[idx]`, minus those of
    /// `base[prev_idx]`, as every gather and reduce touch built them
    /// before the block touches took their lines from rows.
    pub struct LineSet<const N: usize> {
        pub lines: [u64; N],
        pub len: usize,
    }

    impl<const N: usize> LineSet<N> {
        pub fn new() -> Self {
            LineSet {
                lines: [0; N],
                len: 0,
            }
        }

        pub fn fill(&mut self, base: VAddr, idx: &[usize], prev_idx: &[usize], shift: u32) {
            Self::sorted_lines(&mut self.lines, base, idx, shift);
            let mut prev = [0u64; N];
            Self::sorted_lines(&mut prev, base, prev_idx, shift);
            let (mut p, mut len) = (0, 0);
            for i in 0..idx.len() {
                let l = self.lines[i];
                while p < prev_idx.len() && prev[p] < l {
                    p += 1;
                }
                let kept = len > 0 && self.lines[len - 1] == l;
                let resident = p < prev_idx.len() && prev[p] == l;
                if !kept && !resident {
                    self.lines[len] = l;
                    len += 1;
                }
            }
            self.len = len;
        }

        fn sorted_lines(buf: &mut [u64; N], base: VAddr, idx: &[usize], shift: u32) {
            assert!(idx.len() <= N, "index list exceeds the line-set capacity");
            let mut sorted = true;
            let mut last = 0u64;
            for (slot, &i) in buf.iter_mut().zip(idx) {
                let l = base.offset_f64(i).0 >> shift;
                sorted &= l >= last;
                last = l;
                *slot = l;
            }
            if !sorted {
                buf[..idx.len()].sort_unstable();
            }
        }
    }

    /// The lines of `base[block]` a row-granular builder derives: node
    /// order, each row its runs of consecutive x offsets, repeats of the
    /// line written last dropped, then sorted and deduplicated — with
    /// `mutant`'s defect.
    pub fn row_lines(block: &TensorBlock, base: VAddr, shift: u32, mutant: Mutant) -> Vec<u64> {
        let line = |element: usize| base.offset_f64(element).0 >> shift;
        let xs = block.axis(0);
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &x in xs {
            match runs.last_mut() {
                Some(run) if x == run.1 + 1 => run.1 = x,
                _ => runs.push((x, x)),
            }
        }
        if mutant == Mutant::WrappedRowAsOneRun {
            runs = vec![(
                xs.iter().copied().min().unwrap_or(0),
                xs.iter().copied().max().unwrap_or(0),
            )];
        }
        let mut lines = Vec::new();
        for &c in block.axis(2) {
            for &b in block.axis(1) {
                for &(lo, hi) in &runs {
                    let end = match mutant {
                        Mutant::OneLinePerRun => line(b + c + lo),
                        _ => line(b + c + hi),
                    };
                    for l in line(b + c + lo)..=end {
                        if lines.last() != Some(&l) {
                            lines.push(l);
                        }
                    }
                }
            }
        }
        lines.sort_unstable();
        if mutant != Mutant::NoDedupAfterMerge {
            lines.dedup();
        }
        lines
    }

    /// What an open scope of [`PerOp`] remembers for the scope mutants.
    struct Level {
        /// The checked-out counters as they were when the scope opened
        /// (or last re-opened after a nested scope).
        entry: Totals,
        penalty: f64,
    }

    fn plus(a: Totals, b: Totals) -> Totals {
        Totals {
            cycles: a.cycles + b.cycles,
            flops_issued: a.flops_issued + b.flops_issued,
            scalar_ops: a.scalar_ops + b.scalar_ops,
            vector_ops: a.vector_ops + b.vector_ops,
            mopa_ops: a.mopa_ops + b.mopa_ops,
            tile_transfers: a.tile_transfers + b.tile_transfers,
        }
    }

    const ZERO: Totals = Totals {
        cycles: 0.0,
        flops_issued: 0.0,
        scalar_ops: 0,
        vector_ops: 0,
        mopa_ops: 0,
        tile_transfers: 0,
    };

    /// The op set charging the machine's counters one op at a time, as
    /// `impl Machine` did: same names and signatures as [`Meter`], so one
    /// op stream can be issued on either. A scope is only a phase switch
    /// here — unless a scope mutant gives it a meter's bookkeeping with
    /// that mutant's defect.
    pub struct PerOp<'a> {
        pub m: &'a mut Machine,
        mutant: Mutant,
        open: Vec<Level>,
    }

    impl<'a> PerOp<'a> {
        pub fn new(m: &'a mut Machine, mutant: Mutant) -> Self {
            PerOp {
                m,
                mutant,
                open: Vec::new(),
            }
        }

        pub fn in_phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
            // The enclosing scope's commit.
            match (self.mutant, self.open.last()) {
                (Mutant::NestedWithoutCommit, Some(outer)) => self.set_totals(outer.entry),
                (Mutant::DeltaFromZero, Some(outer)) => {
                    self.set_totals(plus(outer.entry, self.totals()));
                }
                _ => {}
            }
            let prev = std::mem::replace(&mut self.m.phase, phase);
            self.open.push(Level {
                entry: self.totals(),
                penalty: self.m.throughput_penalty,
            });
            if self.mutant == Mutant::DeltaFromZero {
                self.set_totals(ZERO);
            }
            let r = f(self);
            let level = self.open.pop().expect("scope is open");
            if self.mutant == Mutant::DeltaFromZero {
                self.set_totals(plus(level.entry, self.totals()));
            }
            self.m.phase = prev;
            // The enclosing scope's reload.
            let reloaded = self.totals();
            if let Some(outer) = self.open.last_mut() {
                outer.entry = reloaded;
                if self.mutant == Mutant::DeltaFromZero {
                    self.set_totals(ZERO);
                }
            }
            r
        }

        fn totals(&self) -> Totals {
            self.m.ctr.check_out(self.m.phase)
        }

        fn set_totals(&mut self, t: Totals) {
            self.m.ctr.commit(self.m.phase, t);
        }

        fn penalty(&self) -> f64 {
            match (self.mutant, self.open.last()) {
                (Mutant::PenaltyAtCheckout, Some(level)) => level.penalty,
                _ => self.m.throughput_penalty,
            }
        }

        fn add_cycles(&mut self, cy: f64) {
            self.m.ctr.add_cycles(self.m.phase, cy);
        }

        pub fn use_autovec_model(&mut self) {
            self.m.use_autovec_model();
        }

        pub fn use_intrinsics_model(&mut self) {
            self.m.use_intrinsics_model();
        }

        pub fn charge(&mut self, cycles: f64) {
            self.add_cycles(cycles);
        }

        pub fn record_flops(&mut self, flops: f64) {
            self.m.ctr.flops_issued += flops;
        }

        fn charge_arith(&mut self, base_cy: f64, flops: f64) {
            self.add_cycles(base_cy * self.penalty());
            self.m.ctr.flops_issued += flops;
        }

        pub fn s_ops(&mut self, n: usize) {
            self.m.ctr.scalar_ops += n as u64;
            self.add_cycles(self.m.cfg.scalar_arith_cy * n as f64 * self.penalty());
        }

        pub fn v_splat(&mut self, x: f64) -> VReg {
            self.m.ctr.vector_ops += 1;
            self.charge_arith(self.m.cfg.vpu_arith_cy, 0.0);
            VReg::splat(x)
        }

        pub fn v_add(&mut self, a: VReg, b: VReg) -> VReg {
            self.m.ctr.vector_ops += 1;
            self.charge_arith(self.m.cfg.vpu_arith_cy, VLANES as f64);
            VReg(std::array::from_fn(|i| a.0[i] + b.0[i]))
        }

        pub fn v_mul(&mut self, a: VReg, b: VReg) -> VReg {
            self.m.ctr.vector_ops += 1;
            self.charge_arith(self.m.cfg.vpu_arith_cy, VLANES as f64);
            VReg(std::array::from_fn(|i| a.0[i] * b.0[i]))
        }

        pub fn v_ops(&mut self, n: usize) {
            self.m.ctr.vector_ops += n as u64;
            self.charge_arith(self.m.cfg.vpu_arith_cy * n as f64, (n * VLANES) as f64);
        }

        pub fn v_issue(&mut self, n: usize) {
            self.m.ctr.vector_ops += n as u64;
            self.add_cycles(self.m.cfg.vpu_arith_cy * n as f64 * self.penalty());
        }

        pub fn s_load(&mut self, addr: VAddr, bytes: u64) {
            let cy = self.m.mem.access(addr, bytes);
            self.add_cycles(cy);
        }

        pub fn v_touch_load(&mut self, addr: VAddr, lanes: usize) {
            let cy = self.m.mem.access(addr, (lanes.min(VLANES) * 8) as u64);
            self.add_cycles(cy);
            self.m.ctr.vector_ops += 1;
        }

        pub fn v_touch_load_streamed(&mut self, addr: VAddr, lanes: usize, footprint: u64) {
            v_touch_load_streamed(self.m, addr, lanes, footprint);
        }

        pub fn v_touch_load_priced(
            &mut self,
            pricing: Pricing,
            addr: VAddr,
            lanes: usize,
            footprint: u64,
        ) {
            match pricing {
                Pricing::Walk => self.v_touch_load(addr, lanes),
                Pricing::Stream => self.v_touch_load_streamed(addr, lanes, footprint),
            }
        }

        pub fn v_load_priced(
            &mut self,
            pricing: Pricing,
            addr: VAddr,
            src: &[f64],
            footprint: u64,
        ) -> VReg {
            match pricing {
                Pricing::Walk => v_load(self.m, addr, src),
                Pricing::Stream => v_load_streamed(self.m, addr, src, footprint),
            }
        }

        pub fn v_store_priced(
            &mut self,
            pricing: Pricing,
            addr: VAddr,
            reg: VReg,
            dst: &mut [f64],
            n: usize,
            footprint: u64,
        ) {
            match pricing {
                Pricing::Walk => v_store(self.m, addr, reg, dst, n),
                Pricing::Stream => v_store_streamed(self.m, addr, reg, dst, n, footprint),
            }
        }

        pub fn v_touch_gather(&mut self, base: VAddr, idx: &[usize]) {
            v_touch_gather_multi(self.m, &[base], idx, self.mutant);
        }

        pub fn v_touch_gather_priced(
            &mut self,
            pricing: Pricing,
            bases: &[VAddr],
            idx: &[usize],
            footprint: u64,
        ) {
            match pricing {
                Pricing::Walk => v_touch_gather_multi(self.m, bases, idx, self.mutant),
                Pricing::Stream => {
                    for &b in bases {
                        v_touch_gather_streamed(self.m, b, idx, footprint);
                    }
                }
            }
        }

        pub fn v_touch_gather_block(
            &mut self,
            bases: &[VAddr],
            block: &TensorBlock,
            carry: &mut Carry,
            footprint: u64,
        ) {
            if bases.is_empty() || block.is_empty() {
                return;
            }
            v_touch_gather_block_reuse_multi(
                self.m,
                bases,
                block,
                &carry.0,
                footprint,
                self.mutant,
            );
            carry.0 = *block;
        }

        pub fn v_scatter_add(&mut self, base: VAddr, idx: &[usize], reg: VReg, dst: &mut [f64]) {
            assert!(idx.len() <= VLANES);
            for (l, &i) in idx.iter().enumerate() {
                dst[i] += reg.0[l];
            }
            self.v_touch_scatter_add(base, idx);
        }

        pub fn v_touch_scatter_add(&mut self, base: VAddr, idx: &[usize]) {
            assert!(idx.len() <= VLANES);
            self.m.ctr.vector_ops += 1;
            let mut cy = 0.0;
            for (l, &i) in idx.iter().enumerate() {
                cy += self.m.mem.access(base.offset_f64(i), 8) + self.m.cfg.gather_lane_cy;
                if idx[..l].contains(&i) {
                    cy += self.m.cfg.conflict_lane_cy;
                }
            }
            self.m.ctr.flops_issued += idx.len() as f64;
            self.add_cycles(cy);
        }

        pub fn v_touch_reduce_block_reuse(
            &mut self,
            srcs: &[VAddr],
            dsts: &[VAddr],
            block: &TensorBlock,
            carry: &mut Carry,
            src_footprint: u64,
            dst_footprint: u64,
        ) {
            v_touch_reduce_block_reuse(
                self.m,
                srcs,
                dsts,
                block,
                &carry.0,
                src_footprint,
                dst_footprint,
                self.mutant,
            );
            if !block.is_empty() {
                carry.0 = *block;
            }
        }

        pub fn t_zero(&mut self, tile: TileId) {
            self.add_cycles(self.m.cfg.tile_zero_cy * self.penalty());
            self.m.tiles[tile.0] = [[0.0; VLANES]; VLANES];
        }

        pub fn t_mopa(&mut self, tile: TileId, a: VReg, b: VReg) {
            self.m.ctr.mopa_ops += 1;
            self.charge_arith(self.m.cfg.mopa_cy, (VLANES * VLANES * 2) as f64);
            let t = &mut self.m.tiles[tile.0];
            for i in 0..VLANES {
                if a.0[i] == 0.0 {
                    continue;
                }
                for j in 0..VLANES {
                    t[i][j] = a.0[i].mul_add(b.0[j], t[i][j]);
                }
            }
        }

        pub fn t_read_row(&mut self, tile: TileId, row: usize) -> VReg {
            assert!(row < VLANES);
            self.m.ctr.tile_transfers += 1;
            self.add_cycles(self.m.cfg.tile_row_xfer_cy * self.penalty());
            VReg(self.m.tiles[tile.0][row])
        }
    }

    pub fn v_touch_load_streamed(m: &mut Machine, addr: VAddr, lanes: usize, footprint: u64) {
        let cy = Machine::GATHER_MLP
            * m.stream_line_price(footprint)
            * m.lines_spanned(addr, (lanes.min(VLANES) * 8) as u64) as f64;
        m.ctr.add_cycles(m.phase, cy);
        m.ctr.vector_ops += 1;
    }

    pub fn v_load(m: &mut Machine, addr: VAddr, src: &[f64]) -> VReg {
        let n = src.len().min(VLANES);
        let cy = m.mem.access(addr, (n * 8) as u64);
        m.ctr.add_cycles(m.phase, cy);
        m.ctr.vector_ops += 1;
        VReg::from_slice(&src[..n])
    }

    pub fn v_store(m: &mut Machine, addr: VAddr, reg: VReg, dst: &mut [f64], n: usize) {
        assert!(n <= VLANES);
        let cy = m.mem.access(addr, (n * 8) as u64);
        m.ctr.add_cycles(m.phase, cy);
        m.ctr.vector_ops += 1;
        dst[..n].copy_from_slice(&reg.0[..n]);
    }

    pub fn v_load_streamed(m: &mut Machine, addr: VAddr, src: &[f64], footprint: u64) -> VReg {
        let n = src.len().min(VLANES);
        v_touch_load_streamed(m, addr, n, footprint);
        VReg::from_slice(&src[..n])
    }

    pub fn v_store_streamed(
        m: &mut Machine,
        addr: VAddr,
        reg: VReg,
        dst: &mut [f64],
        n: usize,
        footprint: u64,
    ) {
        assert!(n <= VLANES);
        v_touch_load_streamed(m, addr, n, footprint);
        dst[..n].copy_from_slice(&reg.0[..n]);
    }

    pub fn v_touch_gather_streamed(m: &mut Machine, base: VAddr, idx: &[usize], footprint: u64) {
        m.ctr.vector_ops += 1;
        let take = idx.len().min(VLANES);
        let shift = m.mem.line_shift();
        let mut lines = [0u64; VLANES];
        let mut n = 0usize;
        'lanes: for &i in &idx[..take] {
            let l = base.offset_f64(i).0 >> shift;
            for &seen in &lines[..n] {
                if seen == l {
                    continue 'lanes;
                }
            }
            lines[n] = l;
            n += 1;
        }
        let cy = m.cfg.gather_lane_cy * take as f64
            + Machine::GATHER_MLP * m.stream_line_price(footprint) * n as f64;
        m.ctr.add_cycles(m.phase, cy);
    }

    fn walk_gather_lines(m: &mut Machine, lanes: usize, lines: &[u64], delta: u64) -> f64 {
        let mut cy = m.cfg.gather_lane_cy * lanes as f64;
        let mut prev = u64::MAX;
        for &l in lines {
            if l != prev {
                let addr = VAddr(l.wrapping_add(delta) << m.mem.line_shift());
                cy += Machine::GATHER_MLP * m.mem.access(addr, 1);
                prev = l;
            }
        }
        cy
    }

    pub fn v_touch_gather_multi(m: &mut Machine, bases: &[VAddr], idx: &[usize], mutant: Mutant) {
        let Some(&(mut anchor)) = bases.first() else {
            return;
        };
        let idx = &idx[..idx.len().min(VLANES)];
        let shift = m.mem.line_shift();
        let in_line = m.mem.line_bytes() - 1;
        let mut lines = [0u64; VLANES];
        let n = collect_lines(&mut lines, anchor, idx, shift);
        for &base in bases {
            if (base.0 ^ anchor.0) & in_line != 0 && mutant != Mutant::ReplayOnIncongruentBase {
                anchor = base;
                collect_lines(&mut lines, anchor, idx, shift);
            }
            let delta = (base.0 >> shift).wrapping_sub(anchor.0 >> shift);
            m.ctr.vector_ops += 1;
            let cy = walk_gather_lines(m, idx.len(), &lines[..n], delta);
            m.ctr.add_cycles(m.phase, cy);
        }
    }

    pub fn v_touch_gather_block_reuse_multi(
        m: &mut Machine,
        bases: &[VAddr],
        block: &TensorBlock,
        prev: &TensorBlock,
        footprint: u64,
        mutant: Mutant,
    ) {
        let mut anchor = bases[0];
        let in_line = m.mem.line_bytes() - 1;
        let lane_cy = m.cfg.gather_lane_cy * block.len() as f64;
        let new_line_cy = Machine::GATHER_MLP * m.stream_line_price(footprint);
        let charge = |new: usize| match mutant {
            Mutant::MultiplyByCount => lane_cy + new_line_cy * new as f64,
            _ => (0..new).fold(lane_cy, |cy, _| cy + new_line_cy),
        };
        let mut cy = charge(new_lines(m, anchor, block, prev, mutant));
        for &base in bases {
            if (base.0 ^ anchor.0) & in_line != 0 && mutant != Mutant::ReplayOnIncongruentBase {
                anchor = base;
                cy = charge(new_lines(m, anchor, block, prev, mutant));
            }
            m.ctr.vector_ops += match mutant {
                Mutant::OneIssuePerBlock => 1,
                _ => block.len().div_ceil(VLANES) as u64,
            };
            m.ctr.add_cycles(m.phase, cy);
        }
    }

    /// The sorted distinct lines of `base[block]` — by the node list, or
    /// by the rows with a row mutant's defect (repeats included).
    fn block_lines(m: &Machine, base: VAddr, block: &TensorBlock, mutant: Mutant) -> Vec<u64> {
        let shift = m.mem.line_shift();
        if mutant.of_rows() {
            return row_lines(block, base, shift, mutant);
        }
        let mut set = LineSet::<{ Machine::RUN_BLOCK_MAX }>::new();
        set.fill(base, &nodes(block), &[], shift);
        set.lines[..set.len].to_vec()
    }

    fn new_lines(
        m: &Machine,
        base: VAddr,
        block: &TensorBlock,
        prev: &TensorBlock,
        mutant: Mutant,
    ) -> usize {
        if mutant.of_rows() {
            let prev = block_lines(m, base, prev, mutant);
            let lines = block_lines(m, base, block, mutant);
            return lines.iter().filter(|l| !prev.contains(l)).count();
        }
        let mut set = LineSet::<{ Machine::RUN_BLOCK_MAX }>::new();
        set.fill(base, &nodes(block), &nodes(prev), m.mem.line_shift());
        set.len
    }

    fn collect_lines(buf: &mut [u64], base: VAddr, idx: &[usize], shift: u32) -> usize {
        let mut sorted = true;
        let mut last = 0u64;
        for (slot, &i) in buf.iter_mut().zip(idx) {
            let l = base.offset_f64(i).0 >> shift;
            sorted &= l >= last;
            last = l;
            *slot = l;
        }
        if !sorted {
            buf[..idx.len()].sort_unstable();
        }
        idx.len()
    }

    pub fn v_touch_reduce_block_reuse(
        m: &mut Machine,
        srcs: &[VAddr],
        dsts: &[VAddr],
        block: &TensorBlock,
        prev: &TensorBlock,
        src_footprint: u64,
        dst_footprint: u64,
        mutant: Mutant,
    ) {
        assert_eq!(
            srcs.len(),
            dsts.len(),
            "source/destination component lists must pair up"
        );
        assert!(!srcs.is_empty(), "reduce needs at least one component");
        if block.is_empty() {
            return;
        }
        let (comps, nodes) = (srcs.len(), block.len());
        m.ctr.vector_ops += match mutant {
            Mutant::OneIssuePerBlock => comps as u64,
            _ => (comps * nodes.div_ceil(VLANES)) as u64,
        };
        let mut cy = m.cfg.gather_lane_cy * nodes as f64;
        let src_line_cy = Machine::GATHER_MLP * m.stream_line_price(src_footprint);
        for &src in srcs {
            let mut node = 0;
            while node < nodes {
                let n = (nodes - node).min(VLANES);
                cy += src_line_cy * m.lines_spanned(src.offset_f64(node), (n * 8) as u64) as f64;
                node += n;
            }
        }
        let dst_line_cy = m.stream_line_price(dst_footprint);
        let in_line = m.mem.line_bytes() - 1;
        let mut anchor = dsts[0];
        let mut new = new_lines(m, anchor, block, prev, mutant);
        for &dst in dsts {
            if (dst.0 ^ anchor.0) & in_line != 0 && mutant != Mutant::ReplayOnIncongruentBase {
                anchor = dst;
                new = new_lines(m, anchor, block, prev, mutant);
            }
            for _ in 0..new {
                cy += dst_line_cy;
            }
        }
        m.ctr.flops_issued += (comps * nodes) as f64;
        m.ctr.add_cycles(m.phase, cy);
    }
}

#[cfg(test)]
mod tests {
    use super::reference::nodes;
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::lx2())
    }

    #[test]
    fn vector_arithmetic_is_exact() {
        let mut m = machine();
        let a = VReg::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = m.v_splat(2.0);
        let c = m.v_mul(a, b);
        let c = m.v_add(c, a);
        for i in 0..VLANES {
            assert_eq!(c.lane(i), (i + 1) as f64 * 3.0);
        }
    }

    #[test]
    fn phases_receive_charges() {
        let mut m = machine();
        m.in_phase(Phase::Sort, |k| k.s_ops(10));
        assert!(m.counters().cycles(Phase::Sort) > 0.0);
        assert_eq!(m.counters().cycles(Phase::Compute), 0.0);
    }

    #[test]
    fn in_phase_restores_previous() {
        let mut m = machine();
        m.in_phase(Phase::Push, |k| {
            k.in_phase(Phase::Reduce, |k| k.s_ops(1));
            k.s_ops(2);
        });
        assert_eq!(m.phase, Phase::Other);
        let c = m.counters();
        assert_eq!(c.cycles(Phase::Push), 2.0 * c.cycles(Phase::Reduce));
        assert!(c.cycles(Phase::Reduce) > 0.0);
        assert_eq!(
            c.scalar_ops, 3,
            "the nested scope's count survives the outer commit"
        );
    }

    #[test]
    fn mopa_accumulates_outer_product() {
        let mut m = machine();
        let a = VReg::from_slice(&[1.0, 2.0]);
        let b = VReg::from_slice(&[3.0, 4.0, 5.0]);
        m.t_zero(TileId(0));
        m.t_mopa(TileId(0), a, b);
        m.t_mopa(TileId(0), a, b);
        assert_eq!(m.tile_value(TileId(0), 0, 0), 6.0);
        assert_eq!(m.tile_value(TileId(0), 1, 2), 20.0);
        assert_eq!(m.tile_value(TileId(0), 3, 3), 0.0);
        assert_eq!(m.counters().mopa_ops, 2);
    }

    #[test]
    fn mopa_charges_full_tile_flops() {
        let mut m = machine();
        let a = VReg::from_slice(&[1.0]);
        let b = VReg::from_slice(&[1.0]);
        m.t_mopa(TileId(0), a, b);
        // 8x8 FMAs = 128 FLOPs issued regardless of operand sparsity.
        assert_eq!(m.counters().flops_issued, 128.0);
    }

    #[test]
    fn scatter_add_handles_duplicates() {
        let mut m = machine();
        let base = m.mem().alloc_f64(4);
        let mut dst = vec![0.0; 4];
        let r = VReg::from_slice(&[1.0, 2.0, 4.0]);
        m.v_scatter_add(base, &[1, 1, 3], r, &mut dst);
        assert_eq!(dst, vec![0.0, 3.0, 0.0, 4.0]);
    }

    #[test]
    fn scatter_conflicts_cost_more() {
        let cfg = MachineConfig::lx2();
        let mut no_conflict = Machine::new(cfg.clone());
        let mut conflict = Machine::new(cfg);
        let b1 = no_conflict.mem().alloc_f64(8);
        let b2 = conflict.mem().alloc_f64(8);
        let r = VReg::splat(1.0);
        let mut d1 = vec![0.0; 8];
        let mut d2 = vec![0.0; 8];
        no_conflict.v_scatter_add(b1, &[0, 1, 2, 3, 4, 5, 6, 7], r, &mut d1);
        conflict.v_scatter_add(b2, &[0, 0, 0, 0, 0, 0, 0, 0], r, &mut d2);
        assert!(
            conflict.counters().total_cycles() > no_conflict.counters().total_cycles(),
            "full-conflict scatter must be slower"
        );
        assert_eq!(d2[0], 8.0);
    }

    #[test]
    fn autovec_penalty_slows_arith() {
        let cfg = MachineConfig::lx2();
        let mut tuned = Machine::new(cfg.clone());
        let mut autovec = Machine::new(cfg);
        autovec.use_autovec_model();
        let a = VReg::splat(1.0);
        for _ in 0..100 {
            tuned.v_mul(a, a);
            autovec.v_mul(a, a);
        }
        assert!(autovec.counters().total_cycles() > tuned.counters().total_cycles());
    }

    #[test]
    fn cache_locality_visible_through_loads() {
        let mut m = machine();
        let base = m.mem().alloc_f64(8);
        let src = vec![1.0; 8];
        let mut load = || {
            m.in_phase(Phase::Compute, |k| {
                k.v_load_priced(Pricing::Walk, base, &src, 0)
            });
            m.counters().cycles(Phase::Compute)
        };
        let cold = load();
        let warm = load() - cold;
        assert!(warm < cold, "second load must hit cache");
    }

    #[test]
    fn fork_worker_starts_clean_and_shares_addresses() {
        let mut m = machine();
        let base = m.mem().alloc_f64(64);
        m.in_phase(Phase::Compute, |k| k.s_ops(100));
        let mut w = m.fork_worker();
        assert_eq!(w.counters().total_cycles(), 0.0, "fork has zero cycles");
        assert_eq!(w.phase, Phase::Other);
        // Allocations continue past the parent's, never aliasing.
        let next = w.mem().alloc_f64(8);
        assert!(next.0 >= base.0 + 64 * 8);
    }

    #[test]
    fn drain_and_absorb_round_trip() {
        let mut m = machine();
        let mut w = m.fork_worker();
        let base = w.mem().alloc_f64(8);
        w.in_phase(Phase::Reduce, |k| {
            k.s_load(base, 64);
            k.s_ops(4);
        });
        let c = w.drain_counters();
        assert_eq!(
            w.counters().total_cycles(),
            0.0,
            "drain must zero the worker"
        );
        assert!(c.perf.cycles(Phase::Reduce) > 0.0);
        assert_eq!(c.mem.l1.misses + c.mem.l2.misses + c.mem.random_misses, 3); // cold miss at each level
        let before = m.counters().total_cycles();
        m.absorb_counters(&c);
        assert_eq!(m.counters().total_cycles(), before + c.perf.total_cycles());
        assert!(m.mem().l1_stats().misses > 0, "stats absorbed into main");
    }

    #[test]
    fn touch_scatter_add_matches_real_scatter_cost() {
        let cfg = MachineConfig::lx2();
        let mut real = Machine::new(cfg.clone());
        let mut touch = Machine::new(cfg);
        let b1 = real.mem().alloc_f64(16);
        let b2 = touch.mem().alloc_f64(16);
        let idx = [0usize, 3, 3, 9];
        let mut dst = vec![0.0; 16];
        real.v_scatter_add(b1, &idx, VReg::splat(1.0), &mut dst);
        touch.v_touch_scatter_add(b2, &idx);
        assert_eq!(
            real.counters().total_cycles(),
            touch.counters().total_cycles()
        );
        assert_eq!(real.counters().flops_issued, touch.counters().flops_issued);
        assert_eq!(real.counters().vector_ops, touch.counters().vector_ops);
    }

    /// The gather touch as it was before line sets were shared: dedup,
    /// sort, one byte-address access per distinct line.
    fn reference_touch_gather(m: &mut Machine, base: VAddr, idx: &[usize]) {
        let idx = &idx[..idx.len().min(VLANES)];
        let line = m.mem.line_bytes();
        let mut lines: Vec<u64> = idx.iter().map(|&i| base.offset_f64(i).0 / line).collect();
        lines.sort_unstable();
        lines.dedup();
        let mut cy = m.cfg.gather_lane_cy * idx.len() as f64;
        for l in lines {
            cy += Machine::GATHER_MLP * m.mem.access(VAddr(l * line), 1);
        }
        m.ctr.vector_ops += 1;
        m.ctr.add_cycles(m.phase, cy);
    }

    #[test]
    fn touch_gather_multi_matches_one_gather_per_base_bitwise() {
        // Shared random index vectors (duplicate lines, unsorted, ragged
        // and over-long) gathered from several arrays: one multi call
        // must leave counters and cache state exactly as one gather per
        // base does — by the reference formula and by `v_touch_gather`
        // — for line-congruent bases (the replayed line set) and for a
        // mix with bases at odd byte offsets (own line sets).
        let mut machines = [machine(), machine(), machine()];
        let mut aligned = Vec::new();
        for m in &mut machines {
            aligned = (0..6).map(|_| m.mem().alloc_f64(4096)).collect();
        }
        let odd = |a: VAddr, by: u64| VAddr(a.0 + by);
        let mixed = vec![
            odd(aligned[0], 8),
            aligned[1],
            odd(aligned[2], 8),
            odd(aligned[3], 40),
            aligned[4],
            odd(aligned[5], 40),
        ];
        let reversed: Vec<VAddr> = aligned.iter().rev().copied().collect();
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        for round in 0..2_000 {
            let bases = [&aligned, &mixed, &reversed][round % 3];
            let lanes = [VLANES, 1, 5, VLANES + 3][round % 4];
            let idx: Vec<usize> = (0..lanes)
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    // Clustered, so lanes often share a line.
                    (rng % 64 + (rng >> 20) % 8 * 400) as usize
                })
                .collect();
            let phase = Phase::ALL[round % Phase::ALL.len()];
            for m in &mut machines {
                if round % 500 == 0 {
                    m.mem().flush_cache();
                }
            }
            let [reference, single, multi] = &mut machines;
            reference.phase = phase;
            for &b in bases.iter() {
                reference_touch_gather(reference, b, &idx);
            }
            single.in_phase(phase, |k| {
                for &b in bases.iter() {
                    k.v_touch_gather(b, &idx);
                }
            });
            multi.in_phase(phase, |k| {
                k.v_touch_gather_priced(Pricing::Walk, bases, &idx, 0)
            });
        }
        let [reference, single, multi] = &mut machines;
        let want_state = reference.mem_ref().export_state();
        let want = reference.drain_counters();
        assert!(want.mem.l1.misses > 0 && want.mem.l2.misses > 0 && want.mem.l1.hits > 0);
        for m in [single, multi] {
            assert_eq!(m.mem_ref().export_state(), want_state);
            assert_eq!(format!("{:?}", m.drain_counters()), format!("{want:?}"));
            // No base, no charge.
            m.v_touch_gather_priced(Pricing::Walk, &[], &[1, 2, 3], 0);
            assert_eq!(m.counters().vector_ops, 0);
        }
    }

    /// A CIC stencil of a 33 x 33 x n grid: two x-neighbours per (y, z)
    /// corner.
    fn cic_block() -> TensorBlock {
        TensorBlock::from_fn(2, |d, a| a * [1, 33, 1089][d])
    }

    /// A carry that has seen `block` at `base`, nothing charged.
    fn primed(m: &Machine, block: &TensorBlock, base: VAddr) -> LineCarry {
        let mut carry = LineCarry::new();
        carry.advance(block, base, m.mem.line_shift());
        carry
    }

    #[test]
    fn tensor_block_nodes_run_x_fastest() {
        assert_eq!(nodes(&cic_block()), [0, 1, 33, 34, 1089, 1090, 1122, 1123]);
        assert_eq!(nodes(&TensorBlock::EMPTY), []);
        let qsp = TensorBlock::from_fn(Machine::RUN_AXIS_MAX, |d, a| a << (2 * d));
        assert_eq!(nodes(&qsp), (0..Machine::RUN_BLOCK_MAX).collect::<Vec<_>>());
    }

    #[test]
    fn touch_gather_block_charges_each_line_once() {
        // A 64-node block confined to two lines must cost exactly:
        // 64 lane penalties + 2 MLP-discounted stream lines.
        let cfg = MachineConfig::lx2();
        let want = cfg.gather_lane_cy * 64.0 + 2.0 * Machine::GATHER_MLP * cfg.simd_stream_line_cy;
        let mut m = Machine::new(cfg);
        let base = m.mem().alloc_f64(1024);
        let block = TensorBlock::from_fn(4, |d, a| a * [1, 4, 0][d]); // Lines 0 and 1.
        m.in_phase(Phase::Compute, |k| {
            k.v_touch_gather_block(&[base], &block, &mut LineCarry::new(), 0)
        });
        assert!(
            (m.counters().cycles(Phase::Compute) - want).abs() < 1e-12,
            "got {} want {want}",
            m.counters().cycles(Phase::Compute)
        );
        // 64 elements = 8 vector loads issued.
        assert_eq!(m.counters().vector_ops, 8);
    }

    #[test]
    fn touch_gather_block_empty_is_free() {
        let mut m = machine();
        let base = m.mem().alloc_f64(8);
        let mut carry = primed(&m, &cic_block(), base);
        let held = carry.lines().to_vec();
        m.v_touch_gather_block(&[base], &TensorBlock::EMPTY, &mut carry, 0);
        m.v_touch_gather_block(&[], &cic_block(), &mut carry, 0);
        assert_eq!(m.counters().total_cycles(), 0.0);
        assert_eq!(m.counters().vector_ops, 0);
        assert_eq!(carry.lines(), held, "a free call leaves the carry alone");
    }

    #[test]
    #[should_panic(expected = "RUN_BLOCK_MAX")]
    fn touch_gather_block_rejects_oversized_blocks() {
        // Unrepresentable: no touch ever sees more than RUN_BLOCK_MAX
        // nodes.
        TensorBlock::from_fn(Machine::RUN_AXIS_MAX + 1, |_, a| a);
    }

    #[test]
    fn touch_reduce_block_empty_is_free() {
        let mut m = machine();
        let src = m.mem().alloc_f64(64);
        let dst = m.mem().alloc_f64(64);
        let mut carry = LineCarry::new();
        m.v_touch_reduce_block_reuse(&[src], &[dst], &TensorBlock::EMPTY, &mut carry, 0, 0);
        assert_eq!(m.counters().total_cycles(), 0.0);
        assert_eq!(m.counters().vector_ops, 0);
    }

    #[test]
    #[should_panic(expected = "must pair up")]
    fn touch_reduce_block_rejects_mismatched_components() {
        let mut m = machine();
        let src = m.mem().alloc_f64(8);
        let dst = m.mem().alloc_f64(8);
        let mut carry = LineCarry::new();
        m.v_touch_reduce_block_reuse(&[src, src], &[dst], &cic_block(), &mut carry, 0, 0);
    }

    #[test]
    fn touch_reduce_block_accounting_scales_with_components() {
        // flops = comps * len; vector_ops = comps * ceil(len / VLANES).
        let mut m = machine();
        let srcs: Vec<VAddr> = (0..3).map(|_| m.mem().alloc_f64(32)).collect();
        let dsts: Vec<VAddr> = (0..3).map(|_| m.mem().alloc_f64(4096)).collect();
        let block = TensorBlock::from_fn(3, |d, a| a * [1, 20, 400][d]);
        m.in_phase(Phase::Reduce, |k| {
            k.v_touch_reduce_block_reuse(&srcs, &dsts, &block, &mut LineCarry::new(), 0, 0)
        });
        assert_eq!(m.counters().flops_issued, 81.0);
        assert_eq!(m.counters().vector_ops, 3 * 4);
        assert!(m.counters().cycles(Phase::Reduce) > 0.0);
    }

    #[test]
    fn touch_reduce_block_is_cheaper_than_per_component_sweeps() {
        // The fused fold must charge strictly less than the equivalent
        // per-component load + scatter-add sweeps it replaces: address
        // generation is shared and destination lines are touched once
        // per component instead of once per node per component.
        let cfg = MachineConfig::lx2();
        let mut fused = Machine::new(cfg.clone());
        let mut swept = Machine::new(cfg);
        let fsrcs: Vec<VAddr> = (0..3).map(|_| fused.mem().alloc_f64(64)).collect();
        let fdsts: Vec<VAddr> = (0..3).map(|_| fused.mem().alloc_f64(65536)).collect();
        let ssrcs: Vec<VAddr> = (0..3).map(|_| swept.mem().alloc_f64(64)).collect();
        let sdsts: Vec<VAddr> = (0..3).map(|_| swept.mem().alloc_f64(65536)).collect();
        let idx = nodes(&cic_block());
        fused.in_phase(Phase::Reduce, |k| {
            k.v_touch_reduce_block_reuse(&fsrcs, &fdsts, &cic_block(), &mut LineCarry::new(), 0, 0)
        });
        swept.in_phase(Phase::Reduce, |k| {
            for comp in 0..3 {
                let mut node = 0;
                while node < idx.len() {
                    let n = (idx.len() - node).min(VLANES);
                    k.v_touch_load(ssrcs[comp].offset_f64(node), n);
                    k.v_touch_scatter_add(sdsts[comp], &idx[node..node + n]);
                    node += n;
                }
            }
        });
        let f = fused.counters().cycles(Phase::Reduce);
        let s = swept.counters().cycles(Phase::Reduce);
        assert!(f < s, "fused {f} must undercut swept {s}");
        // Same functional FLOP throughput is issued either way.
        assert_eq!(fused.counters().flops_issued, swept.counters().flops_issued);
    }

    #[test]
    fn streamed_reuse_touches_are_state_free_and_undercut_cold_walks() {
        // The streamed block touches are pure functions of their inputs:
        // the same call charges bit-identical cycles on a cold machine
        // and on one whose cache was warmed over the very same region,
        // and it neither reads nor perturbs cache statistics. The
        // streaming price also undercuts the per-particle gather's cache
        // walk of the same nodes from a cold (per-tile flushed) cache —
        // the state it would actually start from on the hot path.
        let cfg = MachineConfig::lx2();
        let mut cold = Machine::new(cfg.clone());
        let mut warm = Machine::new(cfg.clone());
        let cb = cold.mem().alloc_f64(4096);
        let wb = warm.mem().alloc_f64(4096);
        for i in 0..512 {
            warm.mem().access(wb.offset_f64(i * 8), 8);
        }
        let warm_l1 = warm.mem().l1_stats();
        let block = cic_block();
        for (m, base) in [(&mut cold, cb), (&mut warm, wb)] {
            let src = m.mem().alloc_f64(16);
            m.in_phase(Phase::Gather, |k| {
                k.v_touch_gather_block(&[base], &block, &mut LineCarry::new(), 0)
            });
            m.in_phase(Phase::Reduce, |k| {
                k.v_touch_reduce_block_reuse(&[src], &[base], &block, &mut LineCarry::new(), 0, 0)
            });
        }
        assert_eq!(
            cold.counters().total_cycles().to_bits(),
            warm.counters().total_cycles().to_bits()
        );
        assert_eq!(cold.counters().vector_ops, warm.counters().vector_ops);
        assert_eq!(cold.counters().flops_issued, warm.counters().flops_issued);
        // No cache transactions were issued by either touch.
        let after = warm.mem().l1_stats();
        assert_eq!(warm_l1.hits + warm_l1.misses, after.hits + after.misses);
        // The streaming gather price undercuts the cold cache walk.
        let mut plain = Machine::new(cfg);
        let pb = plain.mem().alloc_f64(4096);
        plain.in_phase(Phase::Gather, |k| k.v_touch_gather(pb, &nodes(&block)));
        assert!(
            cold.counters().cycles(Phase::Gather) < plain.counters().cycles(Phase::Gather),
            "streamed {} must undercut cold walk {}",
            cold.counters().cycles(Phase::Gather),
            plain.counters().cycles(Phase::Gather)
        );
    }

    #[test]
    fn reuse_multi_on_incongruent_bases_matches_per_base_charges() {
        // Bases at odd byte offsets have line sets that are not whole-
        // line shifts of each other (5 new lines at offset 0, 3 at +8
        // and +40 for this block), so each congruence class needs its
        // own new-line count. The expected counters are the per-base sum
        // of the former single-base `v_touch_gather_block_reuse`,
        // recorded from it before it was folded into this function.
        let mut m = machine();
        let a: Vec<VAddr> = (0..4).map(|_| m.mem().alloc_f64(8192)).collect();
        let bases = [
            a[0],
            VAddr(a[1].0 + 8),
            a[2],
            VAddr(a[3].0 + 40),
            VAddr(a[0].0 + 40),
        ];
        // A 3-wide stencil straddling a periodic wrap of an 18^3 guarded
        // grid in x and z, and its x-neighbour as the carried block.
        let stencil = |x0: usize| {
            TensorBlock::from_fn(3, |d, a| match d {
                0 => (a + x0) % 18,
                1 => (a + 5) * 18,
                _ => (a + 17) % 18 * 18 * 18,
            })
        };
        let (block, prev) = (stencil(16), stencil(15));
        let mut carry = primed(&m, &prev, bases[0]);
        m.in_phase(Phase::Gather, |k| {
            k.v_touch_gather_block(&bases, &block, &mut carry, 0);
            carry.reset();
            k.v_touch_gather_block(&bases, &block, &mut carry, 18 * 18 * 18 * 8);
            k.v_touch_gather_block(&bases[1..2], &prev, &mut carry, 0);
        });
        assert_eq!(
            m.counters().cycles(Phase::Gather).to_bits(),
            0x4069_5733_3333_3334
        );
        assert_eq!(m.counters().vector_ops, 44);
        assert_eq!(m.counters().flops_issued, 0.0);
    }

    #[test]
    fn reuse_skips_lines_covered_by_previous_block() {
        // With the previous block covering every line, only the lane
        // issue penalty remains on the gather side; the reduce side
        // keeps its contiguous source streams but drops all destination
        // walks. Partial overlap lands strictly between that and the
        // cold per-particle walk of the same nodes.
        let cfg = MachineConfig::lx2();
        let lane = cfg.gather_lane_cy;
        let block = cic_block();
        let gather = |prev: Option<&TensorBlock>| {
            let mut m = Machine::new(cfg.clone());
            let base = m.mem().alloc_f64(4096);
            let mut carry = prev.map(|prev| primed(&m, prev, base));
            m.in_phase(Phase::Gather, |k| match &mut carry {
                Some(carry) => k.v_touch_gather_block(&[base], &block, carry, 0),
                None => k.v_touch_gather(base, &nodes(&block)),
            });
            m.counters().cycles(Phase::Gather)
        };
        let full = gather(Some(&block));
        assert!(
            (full - lane * block.len() as f64).abs() < 1e-12,
            "full overlap must leave only lane issue cost, got {full}"
        );
        // Partial overlap: the z-neighbour covers the low half.
        let below = TensorBlock::from_fn(2, |d, a| [[0, 1], [0, 33], [2178, 0]][d][a]);
        let p = gather(Some(&below));
        let n = gather(None);
        assert!(full < p && p < n, "expected {full} < {p} < {n}");
    }

    #[test]
    fn reduce_reuse_full_prev_drops_destination_walks() {
        let cfg = MachineConfig::lx2();
        let mut fresh = Machine::new(cfg.clone());
        let mut reused = Machine::new(cfg);
        let block = cic_block();
        let fs: Vec<VAddr> = (0..3).map(|_| fresh.mem().alloc_f64(16)).collect();
        let fd: Vec<VAddr> = (0..3).map(|_| fresh.mem().alloc_f64(65536)).collect();
        let rs: Vec<VAddr> = (0..3).map(|_| reused.mem().alloc_f64(16)).collect();
        let rd: Vec<VAddr> = (0..3).map(|_| reused.mem().alloc_f64(65536)).collect();
        fresh.in_phase(Phase::Reduce, |k| {
            k.v_touch_reduce_block_reuse(&fs, &fd, &block, &mut LineCarry::new(), 0, 0)
        });
        let mut carry = primed(&reused, &block, rd[0]);
        reused.in_phase(Phase::Reduce, |k| {
            k.v_touch_reduce_block_reuse(&rs, &rd, &block, &mut carry, 0, 0)
        });
        let f = fresh.counters().cycles(Phase::Reduce);
        let r = reused.counters().cycles(Phase::Reduce);
        assert!(r < f, "reused fold {r} must undercut fresh fold {f}");
        // Functional accounting is identical: reuse is a pricing-only
        // distinction, the same vector work is issued.
        assert_eq!(
            fresh.counters().flops_issued,
            reused.counters().flops_issued
        );
        assert_eq!(fresh.counters().vector_ops, reused.counters().vector_ops);
    }

    #[test]
    fn conf_crossover_monotonic_resident_never_exceeds_stream() {
        // Roofline crossover contract: declaring a footprint can only
        // ever LOWER a streamed price, monotonically in the footprint —
        // L1-resident (<= crossover) is strictly cheaper, anything above
        // the crossover (or unknown, 0) charges the bitwise-identical
        // DRAM-stream price. Checked across every streamed entry point.
        let cfg = MachineConfig::lx2();
        let xover = cfg.stream_crossover_bytes;
        let block = cic_block();
        let idx = nodes(&block);
        let charge = |footprint: u64| -> [f64; 4] {
            let mut m = Machine::new(cfg.clone());
            let base = m.mem().alloc_f64(65536);
            let src = m.mem().alloc_f64(64);
            m.in_phase(Phase::Gather, |k| {
                k.v_touch_gather_block(&[base], &block, &mut LineCarry::new(), footprint)
            });
            m.in_phase(Phase::Reduce, |k| {
                k.v_touch_reduce_block_reuse(
                    &[src],
                    &[base],
                    &block,
                    &mut LineCarry::new(),
                    footprint,
                    footprint,
                )
            });
            m.in_phase(Phase::Preprocess, |k| {
                k.v_touch_load_streamed(base, VLANES, footprint);
                k.v_touch_gather_priced(Pricing::Stream, &[base], &idx, footprint);
            });
            m.in_phase(Phase::Compute, |k| {
                let data = vec![1.5; VLANES];
                let mut dst = vec![0.0; VLANES];
                let r = k.v_load_priced(Pricing::Stream, base, &data, footprint);
                k.v_store_priced(Pricing::Stream, base, r, &mut dst, VLANES, footprint);
            });
            [
                Phase::Gather,
                Phase::Reduce,
                Phase::Preprocess,
                Phase::Compute,
            ]
            .map(|p| m.counters().cycles(p))
        };
        let unknown = charge(0);
        let resident = charge(xover);
        let over = charge(xover + 1);
        let tiny = charge(64);
        for p in 0..4 {
            assert!(
                resident[p] < unknown[p],
                "entry {p}: resident {} must undercut stream {}",
                resident[p],
                unknown[p]
            );
            assert_eq!(
                over[p].to_bits(),
                unknown[p].to_bits(),
                "entry {p}: above-crossover footprint must price as a stream"
            );
            assert_eq!(
                tiny[p].to_bits(),
                resident[p].to_bits(),
                "entry {p}: the resident price is flat below the crossover"
            );
        }
    }

    #[test]
    fn conf_crossover_resident_gather_still_undercuts_cold_walk() {
        // The 8^3 case from the scalar->simd conformance snapshot: an
        // L1-resident stencil sweep must never be charged MORE than the
        // per-particle cache walk it replaces — the crossover closes the
        // overpricing, and the cheaper-phase contract can't invert.
        let cfg = MachineConfig::lx2();
        let block = cic_block();
        let mut streamed = Machine::new(cfg.clone());
        let sb = streamed.mem().alloc_f64(1728); // 12^3 guarded 8^3 grid
        streamed.in_phase(Phase::Gather, |k| {
            k.v_touch_gather_block(&[sb], &block, &mut LineCarry::new(), 1728 * 8)
        });
        let mut walk = Machine::new(cfg);
        let wb = walk.mem().alloc_f64(1728);
        walk.in_phase(Phase::Gather, |k| k.v_touch_gather(wb, &nodes(&block)));
        let s = streamed.counters().cycles(Phase::Gather);
        let w = walk.counters().cycles(Phase::Gather);
        assert!(
            s <= w,
            "resident stream {s} must not exceed the cold cache walk {w}"
        );
    }

    #[test]
    fn per_tile_flush_makes_charges_order_independent() {
        // The same access sequence after a flush must cost the same no
        // matter what ran before — the invariant behind deterministic
        // parallel tile charging.
        let mut cold = machine();
        let mut warm = machine();
        let a1 = cold.mem().alloc_f64(1024);
        let a2 = warm.mem().alloc_f64(1024);
        warm.in_phase(Phase::Compute, |k| {
            for i in 0..1024 {
                k.s_load(a2.offset_f64(i % 512), 8); // Pollute cache + streams.
            }
        });
        warm.counters_mut().reset();
        warm.mem().flush_cache();
        for (m, base) in [(&mut cold, a1), (&mut warm, a2)] {
            m.in_phase(Phase::Compute, |k| {
                for i in [0usize, 77, 13, 500, 2, 900] {
                    k.s_load(base.offset_f64(i), 8);
                }
            });
        }
        assert_eq!(
            cold.counters().cycles(Phase::Compute),
            warm.counters().cycles(Phase::Compute)
        );
    }

    /// One operand combination of the line-set sweep.
    struct Case {
        pricing: Pricing,
        incongruent: bool,
        bases: Vec<VAddr>,
        srcs: Vec<VAddr>,
        block: TensorBlock,
        /// The block touched just before it ([`TensorBlock::EMPTY`]:
        /// none).
        prev: TensorBlock,
        footprint: u64,
    }

    /// Every line-set entry point once, on `$k` — the meter of an open
    /// scope or the [`reference::PerOp`] family, the block touches with
    /// a `$carry` of their own each; evaluates to the loaded lanes so
    /// the functional half is compared too.
    macro_rules! run_case {
        ($k:expr, $c:expr, $carry:expr) => {{
            let Case {
                pricing,
                bases,
                srcs,
                block,
                prev,
                footprint: fp,
                ..
            } = $c;
            let (pricing, fp) = (*pricing, *fp);
            let idx = nodes(block);
            let data = [1.5, -2.0, 0.25, 8.0, 3.0, -0.5, 7.0, 9.0, 11.0];
            let w = idx.len().min(data.len());
            let addr = bases[0].offset_f64(idx.first().copied().unwrap_or(3));
            let mut out = [0.0; VLANES];
            $k.v_touch_gather_priced(pricing, bases, &idx, fp);
            $k.v_touch_gather(bases[0], &idx);
            let mut carry = $carry;
            $k.v_touch_gather_block(bases, prev, &mut carry, fp);
            $k.v_touch_gather_block(bases, block, &mut carry, fp);
            let mut carry = $carry;
            $k.v_touch_reduce_block_reuse(srcs, bases, prev, &mut carry, fp, fp);
            $k.v_touch_reduce_block_reuse(srcs, bases, block, &mut carry, fp, fp);
            let r = $k.v_load_priced(pricing, addr, &data[..w], fp);
            $k.v_store_priced(pricing, addr, r, &mut out, w.min(VLANES), fp);
            assert_eq!(out, r.0);
            r
        }};
    }

    #[test]
    fn conf_line_set_touches_match_reference_bitwise() {
        use reference::Mutant;
        // Twin machines with one shared cache history: `new` issues the
        // rewritten entry points, `old` the reference family. Each
        // mutant runs every case on a clone of `old` taken just before
        // it, so a case catches a mutant on its own operands, not on a
        // cache state an earlier case bent.
        let mut new = machine();
        let mut old = machine();
        let (mut arrays, mut srcs) = (Vec::new(), Vec::new());
        for m in [&mut new, &mut old] {
            arrays = (0..7).map(|_| m.mem().alloc_f64(8192)).collect();
            srcs = (0..7).map(|_| m.mem().alloc_f64(64)).collect();
        }
        let xover = new.cfg().stream_crossover_bytes;
        // A stencil of an 18^3 guarded grid, ascending — or straddling
        // the periodic wrap in x and z.
        let stencil = |support: usize, wrap: bool, x0: usize| {
            TensorBlock::from_fn(support, |d, a| match (wrap, d) {
                (false, 0) => a + x0 + 100,
                (false, _) => a * [1, 18, 18 * 18][d],
                (true, 0) => (16 + a + x0) % 18,
                (true, 1) => (a + 5) * 18,
                (true, _) => (17 + a) % 18 * 18 * 18,
            })
        };
        let mutants = [
            Mutant::MultiplyByCount,
            Mutant::ReplayOnIncongruentBase,
            Mutant::OneIssuePerBlock,
        ];
        let mut caught: [Vec<usize>; 3] = Default::default();
        let mut cases = Vec::new();
        for pricing in [Pricing::Walk, Pricing::Stream] {
            for support in 0..=Machine::RUN_AXIS_MAX {
                for wrap in [false, true] {
                    let block = stencil(support, wrap, 1);
                    for n_bases in [1usize, 3, 6, 7] {
                        for incongruent in [false, true] {
                            let odd = |i: usize| [0, 8, 0, 40, 8, 0, 40][i] * incongruent as u64;
                            let bases: Vec<VAddr> =
                                (0..n_bases).map(|i| VAddr(arrays[i].0 + odd(i))).collect();
                            // None, disjoint, the x-neighbour, the block
                            // itself back to front.
                            for prev in [
                                TensorBlock::EMPTY,
                                stencil(support, wrap, 1 + 4096),
                                stencil(support, wrap, 0),
                                TensorBlock::from_fn(support, |d, a| {
                                    block.axis(d)[support - 1 - a]
                                }),
                            ] {
                                for footprint in [0, 64, xover + 1] {
                                    cases.push(Case {
                                        pricing,
                                        incongruent: incongruent && n_bases > 1,
                                        bases: bases.clone(),
                                        srcs: srcs[..n_bases].to_vec(),
                                        block,
                                        prev,
                                        footprint,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        for (n, c) in cases.iter().enumerate() {
            let phase = Phase::ALL[n % Phase::ALL.len()];
            if n % 97 == 0 {
                new.mem().flush_cache();
                old.mem().flush_cache();
            }
            let mut twins: Vec<Machine> = mutants.iter().map(|_| old.clone()).collect();
            let reference = |m: &mut Machine, mutant: Mutant| {
                reference::PerOp::new(m, mutant)
                    .in_phase(phase, |k| run_case!(k, c, reference::Carry::new()))
            };
            let got = new.in_phase(phase, |k| run_case!(k, c, LineCarry::new()));
            let want = reference(&mut old, Mutant::None);
            assert_eq!(got, want, "case {n}: loaded lanes");
            let want = format!("{:?}", old.drain_counters());
            assert_eq!(format!("{:?}", new.drain_counters()), want, "case {n}");
            for ((twin, &mutant), caught) in twins.iter_mut().zip(&mutants).zip(&mut caught) {
                reference(twin, mutant);
                if format!("{:?}", twin.drain_counters()) != want {
                    caught.push(n);
                }
            }
            if n % 64 == 0 || n + 1 == cases.len() {
                assert_eq!(
                    new.mem_ref().export_state(),
                    old.mem_ref().export_state(),
                    "case {n}: cache state"
                );
            }
        }
        let [multiply, replay, one_issue] = caught;
        assert!(!multiply.is_empty(), "multiply-by-count must be rejected");
        assert!(multiply.iter().all(|&n| cases[n].block.len() > 1));
        assert!(!replay.is_empty(), "incongruent replay must be rejected");
        assert!(replay.iter().all(|&n| cases[n].incongruent));
        assert!(
            one_issue.iter().any(|&n| cases[n].block.len() == 27),
            "one issue for a 27-node block must be rejected"
        );
        assert!(one_issue.iter().all(|&n| cases[n].block.len() > VLANES));
    }

    /// Why a sweep resets its carry before a link of a block chain.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Reset {
        Tile,
        Mask,
    }

    /// One sweep of block touches over consecutive cells of a periodic
    /// grid: a tile's run gathers, or a tile's folds with the live
    /// components changing on the way.
    struct Chain {
        /// Run gathers, or folds.
        gather: bool,
        bases: Vec<VAddr>,
        srcs: Vec<VAddr>,
        footprint: u64,
        /// Per link: the reset before it, its live components (folds),
        /// its stencil.
        links: Vec<(Option<Reset>, usize, TensorBlock)>,
    }

    /// Issues `$chain` on `$k` — a meter with a [`LineCarry`] or the
    /// [`reference::PerOp`] family with a [`reference::Carry`] —
    /// resetting `$carry` where `$resets(why)` says the sweep does.
    macro_rules! run_chain {
        ($k:expr, $chain:expr, $carry:expr, $resets:expr) => {{
            let mut carry = $carry;
            for (reset, live, block) in &$chain.links {
                if reset.is_some_and($resets) {
                    carry.reset();
                }
                let (fp, bases) = ($chain.footprint, &$chain.bases);
                if $chain.gather {
                    $k.v_touch_gather_block(bases, block, &mut carry, fp)
                } else {
                    $k.v_touch_reduce_block_reuse(
                        &$chain.srcs[..*live],
                        &bases[..*live],
                        block,
                        &mut carry,
                        fp,
                        fp,
                    )
                }
            }
        }};
    }

    #[test]
    fn conf_block_line_carry_matches_node_lists_bitwise() {
        use reference::Mutant;
        // Twin machines as above: `new` prices each chain's blocks from
        // their rows against the lines its carry holds, `old` from two
        // sorted node lists per call; each mutant runs the chain on a
        // clone of `old` taken just before it.
        let mut new = machine();
        let mut old = machine();
        let (mut arrays, mut srcs) = (Vec::new(), Vec::new());
        for m in [&mut new, &mut old] {
            arrays = (0..6).map(|_| m.mem().alloc_f64(40 * 40 * 24)).collect();
            srcs = (0..3).map(|_| m.mem().alloc_f64(64)).collect();
        }
        let xover = new.cfg().stream_crossover_bytes;
        let shift = new.mem_ref().line_shift();
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |below: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as usize % below
        };
        let mutants = [
            Mutant::NoResetOnMaskChange,
            Mutant::CarryAcrossTiles,
            Mutant::NoDedupAfterMerge,
            Mutant::OneLinePerRun,
            Mutant::WrappedRowAsOneRun,
        ];
        let mut caught: [Vec<usize>; 5] = Default::default();
        let mut chains = Vec::new();
        let mut wraps = [0usize; 4];
        for n in 0..600 {
            // Guarded dims (guard 2): rows that are whole lines, rows
            // that are not, the `uniform_qsp` rows, and a grid smaller
            // than a QSP stencil (its wrapped offsets repeat).
            let dims = [[20, 20, 20], [18, 18, 18], [36, 36, 20], [6, 6, 6]][n % 4];
            let support = 2 + n / 4 % 3;
            let cells: [usize; 3] = std::array::from_fn(|d| dims[d] - 4);
            // Start against the upper edge of the wrapped axes only.
            let wrapped = n / 12 % 8;
            wraps[wrapped.count_ones() as usize] += 1;
            let mut cell: [usize; 3] = std::array::from_fn(|d| match wrapped >> d & 1 {
                1 => cells[d] - 1 - next(2).min(cells[d] - 1),
                _ => cells[d] / 2,
            });
            let stencil = |cell: [usize; 3]| {
                TensorBlock::from_fn(support, |d, a| {
                    let node = (cell[d] + cells[d] + a - (support - 1) / 2) % cells[d];
                    (node + 2) * [1, dims[0], dims[0] * dims[1]][d]
                })
            };
            let gather = next(2) == 0;
            let n_bases = if gather { [1, 3, 6][next(3)] } else { 3 };
            let odd = next(2) as u64;
            let mut live = 1 + next(3);
            let links = (0..1 + next(50))
                .map(|link| {
                    let reset = match next(8) {
                        0 if link > 0 => Some(Reset::Tile),
                        1 if link > 0 => Some(Reset::Mask),
                        _ => None,
                    };
                    if reset == Some(Reset::Mask) {
                        live = 1 + (live + next(2)) % 3;
                    }
                    // The next cell of an x-fastest sweep, or a jump.
                    if next(10) == 0 {
                        cell = std::array::from_fn(|d| next(cells[d]));
                    } else if link > 0 {
                        for d in 0..3 {
                            cell[d] = (cell[d] + 1) % cells[d];
                            if cell[d] != 0 {
                                break;
                            }
                        }
                    }
                    (reset, live, stencil(cell))
                })
                .collect();
            chains.push(Chain {
                gather,
                bases: (0..n_bases)
                    .map(|i| VAddr(arrays[i].0 + [0, 8, 0, 40, 8, 0][i] * odd))
                    .collect(),
                srcs: srcs.clone(),
                footprint: [0, 64, xover + 1][next(3)],
                links,
            });
        }
        assert!(
            wraps.iter().all(|&n| n > 0),
            "wrap on 0 to 3 axes: {wraps:?}"
        );
        for (n, chain) in chains.iter().enumerate() {
            let phase = Phase::ALL[n % Phase::ALL.len()];
            // The row builder the row mutants bend agrees with the node
            // lists where it is not bent.
            for (_, _, block) in &chain.links {
                for &base in &chain.bases {
                    let mut set = reference::LineSet::<{ Machine::RUN_BLOCK_MAX }>::new();
                    set.fill(base, &nodes(block), &[], shift);
                    assert_eq!(
                        reference::row_lines(block, base, shift, Mutant::None),
                        set.lines[..set.len],
                        "chain {n}"
                    );
                }
            }
            let mut twins: Vec<Machine> = mutants.iter().map(|_| old.clone()).collect();
            let reference = |m: &mut Machine, mutant: Mutant| {
                let resets = |why| {
                    !matches!(
                        (why, mutant),
                        (Reset::Mask, Mutant::NoResetOnMaskChange)
                            | (Reset::Tile, Mutant::CarryAcrossTiles)
                    )
                };
                reference::PerOp::new(m, mutant).in_phase(phase, |k| {
                    run_chain!(k, chain, reference::Carry::new(), resets)
                });
                format!("{:?}", m.drain_counters())
            };
            new.in_phase(phase, |k| run_chain!(k, chain, LineCarry::new(), |_| true));
            let want = reference(&mut old, Mutant::None);
            assert_eq!(format!("{:?}", new.drain_counters()), want, "chain {n}");
            for ((twin, &mutant), caught) in twins.iter_mut().zip(&mutants).zip(&mut caught) {
                if reference(twin, mutant) != want {
                    caught.push(n);
                }
            }
        }
        let has = |n: usize, why| chains[n].links.iter().any(|l| l.0 == Some(why));
        let [mask, tile, merge, one_line, one_run] = caught;
        assert!(!mask.is_empty(), "a carry kept across a mask change");
        assert!(mask.iter().all(|&n| has(n, Reset::Mask)));
        assert!(!tile.is_empty(), "a carry kept across a tile boundary");
        assert!(tile.iter().all(|&n| has(n, Reset::Tile)));
        assert!(!merge.is_empty(), "repeats left in by the wrap merge");
        assert!(!one_line.is_empty(), "one line for a straddling run");
        assert!(!one_run.is_empty(), "an x-wrapped row taken for one run");
        // Only a row that is not one run of consecutive offsets can tell.
        let split = |block: &TensorBlock| block.axis(0).windows(2).any(|x| x[1] != x[0] + 1);
        assert!(one_run
            .iter()
            .all(|&n| chains[n].links.iter().any(|l| split(&l.2))));
    }

    /// One op of the closed set with its operands — the whole of README's
    /// op table plus the model toggles and a nested scope.
    #[derive(Debug, Clone)]
    enum Op {
        Charge(f64),
        RecordFlops(f64),
        SOps(usize),
        VSplat(f64),
        VAdd(VReg, VReg),
        VMul(VReg, VReg),
        VOps(usize),
        VIssue(usize),
        SLoad(VAddr, u64),
        TouchLoad(VAddr, usize),
        TouchLoadStreamed(VAddr, usize, u64),
        TouchLoadPriced(Pricing, VAddr, usize, u64),
        LoadPriced(Pricing, VAddr, usize, u64),
        StorePriced(Pricing, VAddr, VReg, usize, u64),
        TouchGather(VAddr, Vec<usize>),
        GatherPriced(Pricing, Vec<VAddr>, Vec<usize>, u64),
        /// The flag: reset the carry first.
        GatherBlock(Vec<VAddr>, TensorBlock, bool, u64),
        ScatterAdd(VAddr, Vec<usize>, VReg),
        TouchScatterAdd(VAddr, Vec<usize>),
        ReduceBlock(Vec<VAddr>, Vec<VAddr>, TensorBlock, bool, u64, u64),
        TZero(usize),
        TMopa(usize, VReg, VReg),
        TReadRow(usize, usize),
        Autovec,
        Intrinsics,
        Nested(Phase, Vec<Op>),
    }

    /// Elements of every array the op streams address.
    const ARRAY_LEN: usize = 8192;

    /// The functional half of an op stream: every register an op
    /// returned and the array the stores and scatters wrote.
    #[derive(Debug, PartialEq)]
    struct Sink {
        regs: Vec<VReg>,
        dst: Vec<f64>,
    }

    /// Issues `$op` on `$k` — a [`Meter`], the [`reference::PerOp`]
    /// family, or a [`Machine`] (its one-op delegations): the three
    /// share the ops' names and signatures, the block touches on
    /// `$carry`. A nested scope's ops go to `$nested`.
    macro_rules! issue {
        ($k:expr, $op:expr, $sink:expr, $carry:expr, $nested:ident) => {
            match $op {
                Op::Charge(cy) => $k.charge(*cy),
                Op::RecordFlops(flops) => $k.record_flops(*flops),
                Op::SOps(n) => $k.s_ops(*n),
                Op::VSplat(x) => $sink.regs.push($k.v_splat(*x)),
                Op::VAdd(a, b) => $sink.regs.push($k.v_add(*a, *b)),
                Op::VMul(a, b) => $sink.regs.push($k.v_mul(*a, *b)),
                Op::VOps(n) => $k.v_ops(*n),
                Op::VIssue(n) => $k.v_issue(*n),
                Op::SLoad(addr, bytes) => $k.s_load(*addr, *bytes),
                Op::TouchLoad(addr, lanes) => $k.v_touch_load(*addr, *lanes),
                Op::TouchLoadStreamed(addr, lanes, fp) => {
                    $k.v_touch_load_streamed(*addr, *lanes, *fp)
                }
                Op::TouchLoadPriced(pricing, addr, lanes, fp) => {
                    $k.v_touch_load_priced(*pricing, *addr, *lanes, *fp)
                }
                Op::LoadPriced(pricing, addr, at, fp) => {
                    let r = $k.v_load_priced(*pricing, *addr, &$sink.dst[*at..*at + 5], *fp);
                    $sink.regs.push(r);
                }
                Op::StorePriced(pricing, addr, reg, at, fp) => {
                    $k.v_store_priced(*pricing, *addr, *reg, &mut $sink.dst[*at..], 7, *fp)
                }
                Op::TouchGather(base, idx) => $k.v_touch_gather(*base, idx),
                Op::GatherPriced(pricing, bases, idx, fp) => {
                    $k.v_touch_gather_priced(*pricing, bases, idx, *fp)
                }
                Op::GatherBlock(bases, block, reset, fp) => {
                    if *reset {
                        $carry.reset();
                    }
                    $k.v_touch_gather_block(bases, block, $carry, *fp)
                }
                Op::ScatterAdd(base, idx, reg) => {
                    $k.v_scatter_add(*base, idx, *reg, &mut $sink.dst)
                }
                Op::TouchScatterAdd(base, idx) => $k.v_touch_scatter_add(*base, idx),
                Op::ReduceBlock(srcs, dsts, block, reset, src_fp, dst_fp) => {
                    if *reset {
                        $carry.reset();
                    }
                    $k.v_touch_reduce_block_reuse(srcs, dsts, block, $carry, *src_fp, *dst_fp)
                }
                Op::TZero(tile) => $k.t_zero(TileId(*tile)),
                Op::TMopa(tile, a, b) => $k.t_mopa(TileId(*tile), *a, *b),
                Op::TReadRow(tile, row) => $sink.regs.push($k.t_read_row(TileId(*tile), *row)),
                Op::Autovec => $k.use_autovec_model(),
                Op::Intrinsics => $k.use_intrinsics_model(),
                Op::Nested(phase, ops) => $k.in_phase(*phase, |k| $nested(k, ops, $sink, $carry)),
            }
        };
    }

    fn issue_on_meter(k: &mut Meter<'_>, ops: &[Op], sink: &mut Sink, carry: &mut LineCarry) {
        for op in ops {
            issue!(k, op, sink, carry, issue_on_meter);
        }
    }

    fn issue_per_op(
        k: &mut reference::PerOp<'_>,
        ops: &[Op],
        sink: &mut Sink,
        carry: &mut reference::Carry,
    ) {
        for op in ops {
            issue!(k, op, sink, carry, issue_per_op);
        }
    }

    /// A seeded op-stream generator over fixed operand arrays.
    struct OpGen {
        rng: u64,
        arrays: Vec<VAddr>,
        srcs: Vec<VAddr>,
        xover: u64,
    }

    impl OpGen {
        fn next(&mut self, below: usize) -> usize {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            (self.rng >> 11) as usize % below
        }

        fn reg(&mut self) -> VReg {
            // Zeros exercise the MOPA shortcut; thirds are not dyadic.
            VReg(std::array::from_fn(|_| (self.next(7) as f64 - 3.0) / 3.0))
        }

        fn pricing(&mut self) -> Pricing {
            [Pricing::Walk, Pricing::Stream][self.next(2)]
        }

        fn footprint(&mut self) -> u64 {
            [0, 64, self.xover + 1][self.next(3)]
        }

        /// `n` clustered indices, so lanes often share a line.
        fn idx(&mut self, n: usize) -> Vec<usize> {
            (0..n).map(|_| self.next(64) + self.next(8) * 400).collect()
        }

        /// A stencil of any support near the upper corner of a periodic
        /// 20^3 grid: often across a wrap, often overlapping the last.
        fn block(&mut self) -> TensorBlock {
            let support = self.next(Machine::RUN_AXIS_MAX + 1);
            let at = [self.next(20), 17 + self.next(4), 18 + self.next(3)];
            TensorBlock::from_fn(support, |d, a| (at[d] + a) % 20 * [1, 20, 400][d])
        }

        fn bases(&mut self) -> Vec<VAddr> {
            let n = [1, 3, 6, 7][self.next(4)];
            // Every other draw: odd byte offsets, so incongruent sets.
            let odd = self.next(2) as u64;
            (0..n)
                .map(|i| VAddr(self.arrays[i].0 + [0, 8, 0, 40, 8, 0, 40][i] * odd))
                .collect()
        }

        fn op(&mut self, depth: usize) -> Op {
            let (array, at) = (self.next(7), self.next(ARRAY_LEN - 2 * VLANES));
            let base = self.arrays[array];
            let addr = base.offset_f64(at);
            match self.next(if depth < 2 { 26 } else { 25 }) {
                0 => Op::Charge(self.next(100) as f64 * 0.7),
                1 => Op::RecordFlops(self.next(1000) as f64),
                2 => Op::SOps(self.next(40)),
                3 => Op::VSplat(self.next(9) as f64 / 3.0),
                4 => Op::VAdd(self.reg(), self.reg()),
                5 => Op::VMul(self.reg(), self.reg()),
                6 => Op::VOps(self.next(40)),
                7 => Op::VIssue(self.next(20)),
                8 => Op::SLoad(addr, [1, 8, 64, 200][self.next(4)]),
                9 => Op::TouchLoad(addr, self.next(VLANES + 3)),
                10 => Op::TouchLoadStreamed(addr, self.next(VLANES + 3), self.footprint()),
                11 => Op::TouchLoadPriced(
                    self.pricing(),
                    addr,
                    self.next(VLANES + 1),
                    self.footprint(),
                ),
                12 => Op::LoadPriced(self.pricing(), addr, at, self.footprint()),
                13 => Op::StorePriced(self.pricing(), addr, self.reg(), at, self.footprint()),
                14 => {
                    let n = self.next(VLANES + 4);
                    Op::TouchGather(base, self.idx(n))
                }
                15 => {
                    let n = self.next(VLANES + 4);
                    Op::GatherPriced(self.pricing(), self.bases(), self.idx(n), self.footprint())
                }
                16 => Op::GatherBlock(
                    self.bases(),
                    self.block(),
                    self.next(4) == 0,
                    self.footprint(),
                ),
                17 => {
                    let n = self.next(VLANES + 1);
                    Op::ScatterAdd(base, self.idx(n), self.reg())
                }
                18 => {
                    let n = self.next(VLANES + 1);
                    Op::TouchScatterAdd(base, self.idx(n))
                }
                19 => {
                    let dsts = self.bases();
                    Op::ReduceBlock(
                        self.srcs[..dsts.len()].to_vec(),
                        dsts,
                        self.block(),
                        self.next(4) == 0,
                        self.footprint(),
                        self.footprint(),
                    )
                }
                20 => Op::TZero(self.next(NUM_TILES)),
                21 => Op::TMopa(self.next(NUM_TILES), self.reg(), self.reg()),
                22 => Op::TReadRow(self.next(NUM_TILES), self.next(VLANES)),
                23 => Op::Autovec,
                24 => Op::Intrinsics,
                _ => {
                    let phase = Phase::ALL[self.next(Phase::ALL.len())];
                    Op::Nested(phase, self.ops(depth + 1))
                }
            }
        }

        fn ops(&mut self, depth: usize) -> Vec<Op> {
            let n = self.next(24);
            (0..n).map(|_| self.op(depth)).collect()
        }
    }

    #[test]
    fn conf_meter_scope_matches_per_op_charges_bitwise() {
        use reference::{Mutant, PerOp};
        // Twin machines with one shared cache history: `new` charges
        // through phase scopes and the one-op delegations, `old` with the
        // per-op read-modify-writes they replaced. Each mutant runs every
        // round on a clone of `old` taken just before it.
        let mutants = [
            Mutant::DeltaFromZero,
            Mutant::PenaltyAtCheckout,
            Mutant::NestedWithoutCommit,
        ];
        // On LX2's dyadic prices sums are exact in any order, so an add
        // regrouped by a scope is invisible until the autovec penalty or
        // a walked gather makes a charge inexact; the second table makes
        // every arithmetic charge inexact, as any retuned one would.
        let non_dyadic = MachineConfig {
            vpu_arith_cy: 0.3,
            scalar_arith_cy: 0.3,
            ..MachineConfig::lx2()
        };
        for (cfg, seed) in [
            (MachineConfig::lx2(), 0x9e37_79b9_7f4a_7c15),
            (non_dyadic, 17),
        ] {
            let (mut new, mut old) = (Machine::new(cfg.clone()), Machine::new(cfg));
            let (mut arrays, mut srcs) = (Vec::new(), Vec::new());
            for m in [&mut new, &mut old] {
                arrays = (0..7).map(|_| m.mem().alloc_f64(ARRAY_LEN)).collect();
                srcs = (0..7).map(|_| m.mem().alloc_f64(64)).collect();
            }
            let mut gen = OpGen {
                rng: seed,
                arrays,
                srcs,
                xover: new.cfg().stream_crossover_bytes,
            };
            let sink = || Sink {
                regs: Vec::new(),
                dst: (0..ARRAY_LEN).map(|i| (i % 13) as f64 / 3.0).collect(),
            };
            let (mut got, mut want) = (sink(), sink());
            let (mut carry, mut old_carry) = (LineCarry::new(), reference::Carry::new());
            let mut caught = [0usize; 3];
            let (mut nested, mut toggled) = (0, 0);
            for round in 0..600 {
                if round % 97 == 0 {
                    new.mem().flush_cache();
                    old.mem().flush_cache();
                }
                // Back-to-back scopes, then the same kind of stream one
                // op at a time outside any scope.
                let scopes: Vec<(Phase, Vec<Op>)> = (0..3)
                    .map(|_| (Phase::ALL[gen.next(Phase::ALL.len())], gen.ops(0)))
                    .collect();
                let solo = gen.ops(0);
                for (_, ops) in &scopes {
                    nested += ops.iter().filter(|op| matches!(op, Op::Nested(..))).count();
                    toggled += ops.iter().filter(|op| matches!(op, Op::Autovec)).count();
                }
                let per_op = |m: &mut Machine,
                              mutant: Mutant,
                              sink: &mut Sink,
                              carry: &mut reference::Carry| {
                    let mut k = PerOp::new(m, mutant);
                    for (phase, ops) in &scopes {
                        k.in_phase(*phase, |k| issue_per_op(k, ops, sink, carry));
                    }
                    issue_per_op(&mut k, &solo, sink, carry);
                    format!("{:?}", m.drain_counters())
                };
                let mut twins: Vec<(Machine, reference::Carry)> = mutants
                    .iter()
                    .map(|_| (old.clone(), old_carry.clone()))
                    .collect();
                for (phase, ops) in &scopes {
                    new.in_phase(*phase, |k| issue_on_meter(k, ops, &mut got, &mut carry));
                }
                for op in &solo {
                    issue!(new, op, &mut got, &mut carry, issue_on_meter);
                }
                let counters = per_op(&mut old, Mutant::None, &mut want, &mut old_carry);
                assert_eq!(
                    format!("{:?}", new.drain_counters()),
                    counters,
                    "round {round}"
                );
                assert_eq!(got, want, "round {round}: returned registers, stored data");
                assert_eq!(new.tiles, old.tiles, "round {round}: tile registers");
                assert_eq!(new.phase, Phase::Other);
                assert_eq!(
                    new.throughput_penalty.to_bits(),
                    old.throughput_penalty.to_bits()
                );
                got.regs.clear();
                want.regs.clear();
                for (((twin, carry), &mutant), caught) in
                    twins.iter_mut().zip(&mutants).zip(&mut caught)
                {
                    *caught += (per_op(twin, mutant, &mut sink(), carry) != counters) as usize;
                }
                if round % 64 == 0 || round == 599 {
                    assert_eq!(
                        new.mem_ref().export_state(),
                        old.mem_ref().export_state(),
                        "round {round}: cache state"
                    );
                }
            }
            assert!(
                nested > 100 && toggled > 100,
                "{nested} nested, {toggled} toggles"
            );
            let [delta, penalty, stale] = caught;
            assert!(delta > 0, "a delta summed from zero must be rejected");
            assert!(penalty > 0, "a penalty cached at checkout must be rejected");
            assert!(stale > 0, "a nested scope on stale totals must be rejected");
        }
    }
}
