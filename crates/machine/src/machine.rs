//! The emulated LX2 core: scalar pipe, VPU, MPU and memory system behind a
//! single mutable facade.
//!
//! Kernels call instruction-shaped methods (`v_mul`, `t_mopa`,
//! `v_touch_gather_priced`, ...), and nothing else charges a cycle: the
//! public surface of [`Machine`] is the cost model's closed input
//! language (README, "The two prices of a run", tabulates every op by
//! class and caller). Value-returning methods perform the real
//! arithmetic on host data *and* charge the cost model, so a kernel is
//! simultaneously its own functional implementation and its own
//! performance model; `v_touch_*` methods charge only. The currently
//! active [`Phase`] determines which counter bucket receives the cycles,
//! matching the per-phase breakdowns of the paper's Tables 1 and 2.

use crate::cost::MachineConfig;
use crate::counters::{MachineCounters, PerfCounters, Phase};
use crate::mem::{MemSystem, VAddr};
use crate::vreg::{VReg, VLANES};

/// Identifier of an MPU tile register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileId(pub usize);

/// Number of architecturally visible MPU tile registers.
pub const NUM_TILES: usize = 4;

/// How the memory-bound primitives of a cell-run sweep are priced — the
/// timing-model half of an execution mode, independent of the functional
/// arithmetic (which is the same lane sweep either way).
///
/// Never set directly: derived from `SimConfig::{batching, simd}` by
/// `Depositor::mode()` and handed to the `*_priced` entry points, which
/// are the only places that branch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Every access walks the cache simulator: cost depends on (and
    /// updates) which lines are resident.
    Walk,
    /// State-free streaming model: a flat bandwidth cost per spanned
    /// line with a footprint roofline crossover, a pure function of the
    /// call operands (see the streaming-price section below).
    Stream,
}

/// The emulated core.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    ctr: PerfCounters,
    mem: MemSystem,
    phase: Phase,
    /// Multiplier applied to arithmetic-op charges; >1 models code the
    /// compiler auto-vectorises poorly (see
    /// [`MachineConfig::autovec_efficiency`]).
    throughput_penalty: f64,
    tiles: [[[f64; VLANES]; VLANES]; NUM_TILES],
}

/// The sorted distinct cache-line ids of `base[idx]`, minus those of
/// `base[prev_idx]` — the lines a gather or reduce touch still has to
/// move. Stack-resident and sized by the caller: `N = VLANES` on the
/// per-particle path, [`Machine::RUN_BLOCK_MAX`] on the run path.
struct LineSet<const N: usize> {
    lines: [u64; N],
    len: usize,
}

impl<const N: usize> LineSet<N> {
    /// Rebuilds the set in place for `base` (on the run path the
    /// buffers are 64 words: they are never moved). `shift` is
    /// [`MemSystem::line_shift`], the exact power-of-two division minus
    /// the per-node hardware divide. Panics if a list is longer than `N`.
    fn fill(&mut self, base: VAddr, idx: &[usize], prev_idx: &[usize], shift: u32) {
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

    /// Writes the line ids of `base[idx]`, ascending with duplicates,
    /// into `buf[..idx.len()]`. Stencil node lists arrive ascending
    /// except for cells straddling a periodic wrap, so the sort is
    /// skipped when one pass confirms the order (the common case).
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

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        assert_eq!(
            cfg.mpu_dim, VLANES,
            "the emulator models an 8x8 MPU tile matching the VPU width"
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
    /// state. Workers charge their private counters and hand them back per
    /// tile via [`Machine::drain_counters`]; the orchestrator merges them
    /// into the main machine with [`Machine::absorb_counters`] in tile
    /// order, keeping totals bit-identical for any worker count.
    pub fn fork_worker(&self) -> Machine {
        let mut w = self.clone();
        w.ctr = PerfCounters::new();
        w.mem.flush_cache();
        let _ = w.mem.take_stats();
        w.reset_execution_state();
        w
    }

    /// Takes (and zeroes) everything this machine has accumulated since
    /// the last drain: per-phase cycles, instruction counts and cache
    /// statistics.
    pub fn drain_counters(&mut self) -> MachineCounters {
        let (l1, l2, streamed_misses, random_misses) = self.mem.take_stats();
        MachineCounters {
            perf: std::mem::take(&mut self.ctr),
            l1,
            l2,
            streamed_misses,
            random_misses,
        }
    }

    /// Merges a drained worker counter set into this machine's totals.
    /// Purely additive: the cache's behavioural state is untouched.
    pub fn absorb_counters(&mut self, c: &MachineCounters) {
        self.ctr.merge(&c.perf);
        self.mem
            .absorb_stats(&c.l1, &c.l2, c.streamed_misses, c.random_misses);
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

    /// Sets the phase that subsequent charges are attributed to.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Runs `f` with the given phase active, restoring the previous phase.
    pub fn in_phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Machine) -> R) -> R {
        let prev = self.phase;
        self.phase = phase;
        let r = f(self);
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

    /// Charges raw cycles to the active phase (used by coarse-grained
    /// instrumentation in the solver and pusher).
    pub fn charge(&mut self, cycles: f64) {
        self.ctr.add_cycles(self.phase, cycles);
    }

    /// Records FLOPs executed without charging cycles (paired with
    /// [`Machine::charge`] by coarse-grained instrumentation).
    pub fn record_flops(&mut self, flops: f64) {
        self.ctr.flops_issued += flops;
    }

    fn charge_arith(&mut self, base_cy: f64, flops: f64) {
        self.ctr
            .add_cycles(self.phase, base_cy * self.throughput_penalty);
        self.ctr.flops_issued += flops;
    }

    // ------------------------------------------------------------------
    // Arithmetic (scalar pipe and VPU)
    // ------------------------------------------------------------------

    /// Charges `n` generic scalar ALU operations (address math, compares).
    pub fn s_ops(&mut self, n: usize) {
        self.ctr.scalar_ops += n as u64;
        self.ctr.add_cycles(
            self.phase,
            self.cfg.scalar_arith_cy * n as f64 * self.throughput_penalty,
        );
    }

    /// Broadcasts a scalar to all lanes.
    pub fn v_splat(&mut self, x: f64) -> VReg {
        self.ctr.vector_ops += 1;
        self.charge_arith(self.cfg.vpu_arith_cy, 0.0);
        VReg::splat(x)
    }

    /// Lane-wise addition.
    pub fn v_add(&mut self, a: VReg, b: VReg) -> VReg {
        self.ctr.vector_ops += 1;
        self.charge_arith(self.cfg.vpu_arith_cy, VLANES as f64);
        let mut r = VReg::zero();
        for i in 0..VLANES {
            r.0[i] = a.0[i] + b.0[i];
        }
        r
    }

    /// Lane-wise multiplication.
    pub fn v_mul(&mut self, a: VReg, b: VReg) -> VReg {
        self.ctr.vector_ops += 1;
        self.charge_arith(self.cfg.vpu_arith_cy, VLANES as f64);
        let mut r = VReg::zero();
        for i in 0..VLANES {
            r.0[i] = a.0[i] * b.0[i];
        }
        r
    }

    /// Charges `n` generic vector ALU operations without data (companion
    /// of [`Machine::s_ops`] for modelled vector instruction streams).
    pub fn v_ops(&mut self, n: usize) {
        self.ctr.vector_ops += n as u64;
        self.charge_arith(self.cfg.vpu_arith_cy * n as f64, (n * VLANES) as f64);
    }

    /// Charges the issue cost of `n` vector memory instructions whose
    /// data is cache-blocked scratch (staging buffers processed in
    /// L1-resident blocks): no cache simulation, no FLOPs — just pipeline
    /// occupancy.
    pub fn v_issue(&mut self, n: usize) {
        self.ctr.vector_ops += n as u64;
        self.ctr.add_cycles(
            self.phase,
            self.cfg.vpu_arith_cy * n as f64 * self.throughput_penalty,
        );
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
    // `footprint` (and `prev_idx`) feed only the streaming arm of a
    // `*_priced` entry point; the walk arm prices from cache state.

    /// Scalar load of `bytes` at `addr` (data itself lives in host arrays).
    pub fn s_load(&mut self, addr: VAddr, bytes: u64) {
        let cy = self.mem.access(addr, bytes);
        self.ctr.add_cycles(self.phase, cy);
    }

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

    /// Charges a contiguous vector load's issue and memory cost without
    /// returning data, walking the cache. Used when a kernel's
    /// functional values are already staged but the address stream must
    /// still be priced (e.g. replaying the load pattern of a
    /// preprocessing loop).
    pub fn v_touch_load(&mut self, addr: VAddr, lanes: usize) {
        let cy = self.mem.access(addr, (lanes.min(VLANES) * 8) as u64);
        self.ctr.add_cycles(self.phase, cy);
        self.ctr.vector_ops += 1;
    }

    /// Cost-only contiguous vector load at the state-free streaming
    /// price (twin of [`Machine::v_touch_load`]). `footprint` is the
    /// byte span of the whole source array for the roofline crossover
    /// ([`Machine::stream_line_price`]); pass 0 when unknown.
    pub fn v_touch_load_streamed(&mut self, addr: VAddr, lanes: usize, footprint: u64) {
        let cy = Self::GATHER_MLP
            * self.stream_line_price(footprint)
            * self.lines_spanned(addr, (lanes.min(VLANES) * 8) as u64) as f64;
        self.ctr.add_cycles(self.phase, cy);
        self.ctr.vector_ops += 1;
    }

    /// [`Machine::v_touch_load`] walked, or
    /// [`Machine::v_touch_load_streamed`] streamed.
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
    /// [`Machine::v_touch_load_priced`]. `footprint` is the byte span of
    /// the whole source array for the roofline crossover; pass 0 when
    /// unknown.
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

    /// Memory-level-parallelism factor of the gather unit: the per-line
    /// miss latencies of one gather overlap, so only this fraction of
    /// each line's cost is charged (scatters, being read-modify-write,
    /// get no such discount).
    const GATHER_MLP: f64 = 0.15;

    /// Maximum elements of one run-scoped block touch (a QSP stencil
    /// block: 4^3 nodes).
    pub const RUN_BLOCK_MAX: usize = 64;

    /// Calls `price(self, lines, delta)` once per base, in order: the
    /// [`LineSet`] of `base[idx]` minus `base[prev_idx]` is `lines`
    /// displaced by `delta` whole lines. Bases congruent modulo the line
    /// size (line-aligned allocations: the ubiquitous case) have line
    /// sets that differ by a whole number of lines, so the set is built
    /// once and replayed displaced; a base that is not congruent to the
    /// set in hand gets its own. Host-side sharing only.
    fn for_each_line_set<const N: usize>(
        &mut self,
        bases: &[VAddr],
        idx: &[usize],
        prev_idx: &[usize],
        mut price: impl FnMut(&mut Self, &[u64], u64),
    ) {
        let Some(&(mut anchor)) = bases.first() else {
            return;
        };
        let shift = self.mem.line_shift();
        let in_line = self.mem.line_bytes() - 1;
        let mut set = LineSet::<N> {
            lines: [0; N],
            len: 0,
        };
        set.fill(anchor, idx, prev_idx, shift);
        for &base in bases {
            if (base.0 ^ anchor.0) & in_line != 0 {
                anchor = base;
                set.fill(anchor, idx, prev_idx, shift);
            }
            let delta = (base.0 >> shift).wrapping_sub(anchor.0 >> shift);
            price(self, &set.lines[..set.len], delta);
        }
    }

    /// The walked gather price: `lane_cy` of per-lane issue plus one
    /// cache access per line of `lines` displaced by `delta`, in
    /// ascending order (the gather unit coalesces same-line lanes), with
    /// miss latencies overlapped by [`Self::GATHER_MLP`].
    fn walk_gather_lines(&mut self, lane_cy: f64, lines: &[u64], delta: u64) -> f64 {
        let mut cy = lane_cy;
        for &l in lines {
            cy += Self::GATHER_MLP * self.mem.access_line_id(l.wrapping_add(delta));
        }
        cy
    }

    /// Charges an indexed gather of up to [`VLANES`] lanes — lane `l`
    /// reads `base[idx[l]]` — walking the cache: one access per distinct
    /// line plus the per-lane gather penalty.
    pub fn v_touch_gather(&mut self, base: VAddr, idx: &[usize]) {
        self.v_touch_gather_priced(Pricing::Walk, &[base], idx, 0);
    }

    /// [`Machine::v_touch_gather`] of one shared index vector from each
    /// of `bases` in turn — the per-particle gather's six field arrays,
    /// the staging loop's seven SoA attributes — one vector instruction
    /// and one cycle charge per base (an empty index vector still
    /// issues). Walked, the cache sees `[base][ascending line]`;
    /// streamed, each distinct line charges the overlapped stream price
    /// at `footprint`'s side of the roofline crossover (0 = unknown).
    pub fn v_touch_gather_priced(
        &mut self,
        pricing: Pricing,
        bases: &[VAddr],
        idx: &[usize],
        footprint: u64,
    ) {
        let idx = &idx[..idx.len().min(VLANES)];
        let lane_cy = self.cfg.gather_lane_cy * idx.len() as f64;
        let line_cy = Self::GATHER_MLP * self.stream_line_price(footprint);
        self.for_each_line_set::<VLANES>(bases, idx, &[], |m, lines, delta| {
            m.ctr.vector_ops += 1;
            let cy = match pricing {
                Pricing::Walk => m.walk_gather_lines(lane_cy, lines, delta),
                Pricing::Stream => lane_cy + line_cy * lines.len() as f64,
            };
            m.ctr.add_cycles(m.phase, cy);
        });
    }

    /// Run-scoped block gather: charges loading one node list of up to
    /// [`Machine::RUN_BLOCK_MAX`] elements from each of `bases` with
    /// **each distinct cache line charged once** per base — the memory
    /// stream of a kernel that loads a cell's stencil node block into
    /// registers once per same-cell particle run and reuses it for every
    /// particle of the run (the run gather's six field components).
    /// Per-lane gather issue cost is still paid for every element of
    /// `idx` — address generation does not amortise — and an empty block
    /// is free.
    ///
    /// Walked, every run starts from whatever the cache holds and line
    /// misses overlap as in [`Machine::v_touch_gather`], whose
    /// per-vector semantics this generalises beyond [`VLANES`] lanes.
    /// Streamed, two things differ, and together they are what the
    /// streaming mode buys:
    ///
    /// * lines already covered by `prev_idx` (the preceding run's
    ///   stencil block, which the kernel keeps resident in lane
    ///   registers) are priced as register rotations — no memory
    ///   transaction at all. Sorted input visits adjacent cells, whose
    ///   stencils overlap node for node, so most of a run's block load
    ///   collapses;
    /// * each *new* line is charged the state-free streaming price
    ///   (`GATHER_MLP x` the crossover line price,
    ///   [`Machine::stream_line_price`]) instead of a cache walk: the
    ///   block loads of consecutive runs form a dense ascending sweep of
    ///   the tile's field arrays, exactly the access shape the stream
    ///   prefetcher services at bandwidth. `footprint` declares one
    ///   field array's byte span so L1-resident grids cross over to the
    ///   resident line price (0 = unknown, DRAM stream). The charge is a
    ///   pure function of `(bases, idx, prev_idx, footprint)`.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len()` — or, streamed, `prev_idx.len()` — exceeds
    /// [`Machine::RUN_BLOCK_MAX`].
    pub fn v_touch_gather_block_priced(
        &mut self,
        pricing: Pricing,
        bases: &[VAddr],
        idx: &[usize],
        prev_idx: &[usize],
        footprint: u64,
    ) {
        let prev_idx = match pricing {
            Pricing::Walk => &[],
            Pricing::Stream => prev_idx,
        };
        assert!(
            idx.len() <= Self::RUN_BLOCK_MAX && prev_idx.len() <= Self::RUN_BLOCK_MAX,
            "block exceeds RUN_BLOCK_MAX"
        );
        if idx.is_empty() {
            return;
        }
        let issues = idx.len().div_ceil(VLANES) as u64;
        let lane_cy = self.cfg.gather_lane_cy * idx.len() as f64;
        let line_cy = Self::GATHER_MLP * self.stream_line_price(footprint);
        let price = |m: &mut Self, lines: &[u64], delta: u64| {
            m.ctr.vector_ops += issues;
            let cy = match pricing {
                Pricing::Walk => m.walk_gather_lines(lane_cy, lines, delta),
                // One add per new line: a multiply-by-count could round
                // differently.
                Pricing::Stream => lines.iter().fold(lane_cy, |cy, _| cy + line_cy),
            };
            m.ctr.add_cycles(m.phase, cy);
        };
        self.for_each_line_set::<{ Self::RUN_BLOCK_MAX }>(bases, idx, prev_idx, price);
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
    pub fn v_scatter_add(&mut self, base: VAddr, idx: &[usize], reg: VReg, dst: &mut [f64]) {
        assert!(idx.len() <= VLANES);
        for (l, &i) in idx.iter().enumerate() {
            dst[i] += reg.0[l];
        }
        self.v_touch_scatter_add(base, idx);
    }

    /// Charges an indexed scatter-add's memory, issue and conflict cost
    /// without writing data (cost-only mirror of
    /// [`Machine::v_scatter_add`]). Used when the functional accumulation
    /// is applied separately — e.g. the parallel rhocell reduction, where
    /// workers price the scatter stream per tile while the actual grid
    /// writes happen in a deterministic fixed-order pass.
    pub fn v_touch_scatter_add(&mut self, base: VAddr, idx: &[usize]) {
        assert!(idx.len() <= VLANES);
        self.ctr.vector_ops += 1;
        let mut cy = 0.0;
        for (l, &i) in idx.iter().enumerate() {
            cy += self.mem.access(base.offset_f64(i), 8) + self.cfg.gather_lane_cy;
            // Conflict detection: lanes before `l` hitting the same index.
            if idx[..l].contains(&i) {
                cy += self.cfg.conflict_lane_cy;
            }
        }
        self.ctr.flops_issued += idx.len() as f64;
        self.ctr.add_cycles(self.phase, cy);
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
    ///   the preceding cell (`prev_idx`, its node list) still sit in the
    ///   store buffer, so the kernel merges into them without a fresh
    ///   read-modify-write transaction and they charge nothing. Callers
    ///   must only pass `prev_idx` when the preceding fold covered the
    ///   same components (empty = no reuse); the contiguous per-cell
    ///   source streams never reuse (each cell owns its slice).
    ///
    /// Like every streaming price, the charge is a pure function of the
    /// call's inputs: no cache-simulator state is read or written.
    ///
    /// `srcs[k]`/`dsts[k]` pair component `k`'s contiguous source base
    /// with its scattered destination base; passing fewer than three
    /// pairs prices a partial-component fold. `idx` holds the
    /// destination offsets shared by every component; empty `idx` is
    /// free. `src_footprint`/`dst_footprint` declare the byte spans of
    /// one source array and one destination array for the roofline
    /// crossover ([`Machine::stream_line_price`]); pass 0 when unknown.
    ///
    /// # Panics
    ///
    /// Panics if `srcs.len() != dsts.len()`, if no components are given,
    /// or if `idx.len()` or `prev_idx.len()` exceeds
    /// [`Machine::RUN_BLOCK_MAX`].
    pub fn v_touch_reduce_block_reuse(
        &mut self,
        srcs: &[VAddr],
        dsts: &[VAddr],
        idx: &[usize],
        prev_idx: &[usize],
        src_footprint: u64,
        dst_footprint: u64,
    ) {
        assert_eq!(
            srcs.len(),
            dsts.len(),
            "source/destination component lists must pair up"
        );
        assert!(!srcs.is_empty(), "reduce needs at least one component");
        assert!(
            idx.len() <= Self::RUN_BLOCK_MAX && prev_idx.len() <= Self::RUN_BLOCK_MAX,
            "block exceeds RUN_BLOCK_MAX"
        );
        if idx.is_empty() {
            return;
        }
        let comps = srcs.len();
        self.ctr.vector_ops += (comps * idx.len().div_ceil(VLANES)) as u64;
        // Shared address generation: one lane penalty per node, not per
        // node per component.
        let mut cy = self.cfg.gather_lane_cy * idx.len() as f64;
        // Contiguous source streams, one per component: the rhocell
        // layout keeps each cell's node slice dense, and the cell sweep
        // walks those slices in ascending order — a textbook stream,
        // charged per spanned line with read-stream overlap.
        let src_line_cy = Self::GATHER_MLP * self.stream_line_price(src_footprint);
        for &src in srcs {
            let mut node = 0;
            while node < idx.len() {
                let n = (idx.len() - node).min(VLANES);
                cy += src_line_cy * self.lines_spanned(src.offset_f64(node), (n * 8) as u64) as f64;
                node += n;
            }
        }
        // Scattered destinations: each distinct new line once per
        // component at the full stream cost — read-modify-write traffic
        // gets no read-overlap discount — unless the preceding cell's
        // fold left the line in the store buffer. The adds stay
        // one-at-a-time onto the running total: a multiply could round
        // differently.
        let dst_line_cy = self.stream_line_price(dst_footprint);
        self.for_each_line_set::<{ Self::RUN_BLOCK_MAX }>(dsts, idx, prev_idx, |_, lines, _| {
            for _ in lines {
                cy += dst_line_cy;
            }
        });
        self.ctr.flops_issued += (comps * idx.len()) as f64;
        self.ctr.add_cycles(self.phase, cy);
    }

    // ------------------------------------------------------------------
    // MPU
    // ------------------------------------------------------------------

    /// Zeroes an MPU tile register.
    pub fn t_zero(&mut self, tile: TileId) {
        self.ctr
            .add_cycles(self.phase, self.cfg.tile_zero_cy * self.throughput_penalty);
        self.tiles[tile.0] = [[0.0; VLANES]; VLANES];
    }

    /// MOPA: `C += a (x) b`, the full 8x8 rank-1 update of equation 3.
    ///
    /// The instruction always charges the full tile (128 FLOPs issued);
    /// utilisation of the tile by *useful* work is exactly what the paper's
    /// CIC (25%) vs QSP (50%) analysis is about.
    pub fn t_mopa(&mut self, tile: TileId, a: VReg, b: VReg) {
        self.ctr.mopa_ops += 1;
        self.charge_arith(self.cfg.mopa_cy, (VLANES * VLANES * 2) as f64);
        let t = &mut self.tiles[tile.0];
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
    pub fn t_read_row(&mut self, tile: TileId, row: usize) -> VReg {
        assert!(row < VLANES);
        self.ctr.tile_transfers += 1;
        self.ctr.add_cycles(
            self.phase,
            self.cfg.tile_row_xfer_cy * self.throughput_penalty,
        );
        VReg(self.tiles[tile.0][row])
    }

    /// Direct tile inspection for tests (cost-free).
    pub fn tile_value(&self, tile: TileId, row: usize, col: usize) -> f64 {
        self.tiles[tile.0][row][col]
    }
}

#[cfg(test)]
/// The line-set touch family as it stood before [`LineSet`] — five
/// separately written collect / dedup / subtract / replay loops and the
/// load/store triple — kept as the executable specification
/// `conf_line_set_touches_match_reference_bitwise` holds the rewritten
/// entry points to, and — through [`reference::Mutant`] — the near
/// misses that test must reject.
mod reference {
    use super::*;

    /// A deliberate defect the bitwise test must catch.
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
        m.v_touch_load_streamed(addr, n, footprint);
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
        m.v_touch_load_streamed(addr, n, footprint);
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
                cy += Machine::GATHER_MLP * m.mem.access_line_id(l.wrapping_add(delta));
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

    pub fn v_touch_gather_block(m: &mut Machine, base: VAddr, idx: &[usize], mutant: Mutant) {
        assert!(
            idx.len() <= Machine::RUN_BLOCK_MAX,
            "block exceeds RUN_BLOCK_MAX"
        );
        if idx.is_empty() {
            return;
        }
        m.ctr.vector_ops += match mutant {
            Mutant::OneIssuePerBlock => 1,
            _ => idx.len().div_ceil(VLANES) as u64,
        };
        let shift = m.mem.line_shift();
        let mut lines = [0u64; Machine::RUN_BLOCK_MAX];
        let n = collect_lines(&mut lines, base, idx, shift);
        let cy = walk_gather_lines(m, idx.len(), &lines[..n], 0);
        m.ctr.add_cycles(m.phase, cy);
    }

    pub fn v_touch_gather_block_reuse_multi(
        m: &mut Machine,
        bases: &[VAddr],
        idx: &[usize],
        prev_idx: &[usize],
        footprint: u64,
        mutant: Mutant,
    ) {
        assert!(
            idx.len() <= Machine::RUN_BLOCK_MAX && prev_idx.len() <= Machine::RUN_BLOCK_MAX,
            "block exceeds RUN_BLOCK_MAX"
        );
        let Some(&(mut anchor)) = bases.first() else {
            return;
        };
        if idx.is_empty() {
            return;
        }
        let in_line = m.mem.line_bytes() - 1;
        let lane_cy = m.cfg.gather_lane_cy * idx.len() as f64;
        let new_line_cy = Machine::GATHER_MLP * m.stream_line_price(footprint);
        let charge = |new: usize| match mutant {
            Mutant::MultiplyByCount => lane_cy + new_line_cy * new as f64,
            _ => (0..new).fold(lane_cy, |cy, _| cy + new_line_cy),
        };
        let mut cy = charge(new_lines(m, anchor, idx, prev_idx));
        for &base in bases {
            if (base.0 ^ anchor.0) & in_line != 0 && mutant != Mutant::ReplayOnIncongruentBase {
                anchor = base;
                cy = charge(new_lines(m, anchor, idx, prev_idx));
            }
            m.ctr.vector_ops += match mutant {
                Mutant::OneIssuePerBlock => 1,
                _ => idx.len().div_ceil(VLANES) as u64,
            };
            m.ctr.add_cycles(m.phase, cy);
        }
    }

    fn new_lines(m: &Machine, base: VAddr, idx: &[usize], prev_idx: &[usize]) -> usize {
        let shift = m.mem.line_shift();
        let mut cur = [0u64; Machine::RUN_BLOCK_MAX];
        let cur_n = collect_lines(&mut cur, base, idx, shift);
        let mut prev = [0u64; Machine::RUN_BLOCK_MAX];
        let prev_n = collect_lines(&mut prev, base, prev_idx, shift);
        let mut p = 0usize;
        let mut last = u64::MAX;
        let mut new = 0usize;
        for &l in &cur[..cur_n] {
            if l == last {
                continue;
            }
            last = l;
            while p < prev_n && prev[p] < l {
                p += 1;
            }
            if p < prev_n && prev[p] == l {
                continue; // Still resident from the previous block.
            }
            new += 1;
        }
        new
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
        idx: &[usize],
        prev_idx: &[usize],
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
        assert!(
            idx.len() <= Machine::RUN_BLOCK_MAX && prev_idx.len() <= Machine::RUN_BLOCK_MAX,
            "block exceeds RUN_BLOCK_MAX"
        );
        if idx.is_empty() {
            return;
        }
        let comps = srcs.len();
        m.ctr.vector_ops += match mutant {
            Mutant::OneIssuePerBlock => comps as u64,
            _ => (comps * idx.len().div_ceil(VLANES)) as u64,
        };
        let mut cy = m.cfg.gather_lane_cy * idx.len() as f64;
        let src_line_cy = Machine::GATHER_MLP * m.stream_line_price(src_footprint);
        for &src in srcs {
            let mut node = 0;
            while node < idx.len() {
                let n = (idx.len() - node).min(VLANES);
                cy += src_line_cy * m.lines_spanned(src.offset_f64(node), (n * 8) as u64) as f64;
                node += n;
            }
        }
        let dst_line_cy = m.stream_line_price(dst_footprint);
        let in_line = m.mem.line_bytes() - 1;
        let mut anchor = dsts[0];
        let mut new = new_lines(m, anchor, idx, prev_idx);
        for &dst in dsts {
            if (dst.0 ^ anchor.0) & in_line != 0 && mutant != Mutant::ReplayOnIncongruentBase {
                anchor = dst;
                new = new_lines(m, anchor, idx, prev_idx);
            }
            for _ in 0..new {
                cy += dst_line_cy;
            }
        }
        m.ctr.flops_issued += (comps * idx.len()) as f64;
        m.ctr.add_cycles(m.phase, cy);
    }
}

#[cfg(test)]
mod tests {
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
        m.set_phase(Phase::Sort);
        m.s_ops(10);
        assert!(m.counters().cycles(Phase::Sort) > 0.0);
        assert_eq!(m.counters().cycles(Phase::Compute), 0.0);
    }

    #[test]
    fn in_phase_restores_previous() {
        let mut m = machine();
        m.set_phase(Phase::Push);
        m.in_phase(Phase::Reduce, |m| m.s_ops(1));
        assert_eq!(m.phase, Phase::Push);
        assert!(m.counters().cycles(Phase::Reduce) > 0.0);
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
        m.set_phase(Phase::Compute);
        m.v_load_priced(Pricing::Walk, base, &src, 0);
        let cold = m.counters().cycles(Phase::Compute);
        m.v_load_priced(Pricing::Walk, base, &src, 0);
        let warm = m.counters().cycles(Phase::Compute) - cold;
        assert!(warm < cold, "second load must hit cache");
    }

    #[test]
    fn fork_worker_starts_clean_and_shares_addresses() {
        let mut m = machine();
        let base = m.mem().alloc_f64(64);
        m.set_phase(Phase::Compute);
        m.s_ops(100);
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
        w.set_phase(Phase::Reduce);
        let base = w.mem().alloc_f64(8);
        w.s_load(base, 64);
        w.s_ops(4);
        let c = w.drain_counters();
        assert_eq!(
            w.counters().total_cycles(),
            0.0,
            "drain must zero the worker"
        );
        assert!(c.perf.cycles(Phase::Reduce) > 0.0);
        assert_eq!(c.l1.misses + c.l2.misses + c.random_misses, 3); // cold miss at each level
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
            for m in &mut machines {
                m.set_phase(Phase::ALL[round % Phase::ALL.len()]);
                if round % 500 == 0 {
                    m.mem().flush_cache();
                }
            }
            let [reference, single, multi] = &mut machines;
            for &b in bases.iter() {
                reference_touch_gather(reference, b, &idx);
                single.v_touch_gather(b, &idx);
            }
            multi.v_touch_gather_priced(Pricing::Walk, bases, &idx, 0);
        }
        let [reference, single, multi] = &mut machines;
        let want_state = reference.mem_ref().cache_state();
        let want = reference.drain_counters();
        assert!(want.l1.misses > 0 && want.l2.misses > 0 && want.l1.hits > 0);
        for m in [single, multi] {
            assert_eq!(m.mem_ref().cache_state(), want_state);
            assert_eq!(format!("{:?}", m.drain_counters()), format!("{want:?}"));
            // No base, no charge.
            m.v_touch_gather_priced(Pricing::Walk, &[], &[1, 2, 3], 0);
            assert_eq!(m.counters().vector_ops, 0);
        }
    }

    #[test]
    fn touch_gather_block_matches_vector_gather_for_one_vector() {
        // For <= VLANES indices the block touch charges the same formula
        // as the per-vector gather (per-lane issue + one MLP-discounted
        // access per distinct line), so the two are interchangeable at
        // vector width.
        let cfg = MachineConfig::lx2();
        let mut vec = Machine::new(cfg.clone());
        let mut block = Machine::new(cfg);
        let b1 = vec.mem().alloc_f64(1024);
        let b2 = block.mem().alloc_f64(1024);
        let idx = [0usize, 1, 9, 64, 65, 200, 201, 3];
        vec.v_touch_gather(b1, &idx);
        block.v_touch_gather_block_priced(Pricing::Walk, &[b2], &idx, &[], 0);
        assert_eq!(
            vec.counters().total_cycles().to_bits(),
            block.counters().total_cycles().to_bits()
        );
    }

    #[test]
    fn touch_gather_block_charges_each_line_once() {
        // A 64-element block confined to two lines must cost exactly:
        // 64 lane penalties + 2 MLP-discounted line accesses.
        let cfg = MachineConfig::lx2();
        let lane = cfg.gather_lane_cy;
        let mut m = Machine::new(cfg);
        let base = m.mem().alloc_f64(1024);
        let idx: Vec<usize> = (0..64).map(|i| i % 16).collect(); // Lines 0 and 1.
        m.set_phase(Phase::Compute);
        m.v_touch_gather_block_priced(Pricing::Walk, &[base], &idx, &[], 0);
        let mut expect = Machine::new(MachineConfig::lx2());
        let eb = expect.mem().alloc_f64(1024);
        let line_cost: f64 = (0..2)
            .map(|l| expect.mem().access(eb.offset_f64(l * 8), 1))
            .sum();
        let want = lane * 64.0 + Machine::GATHER_MLP * line_cost;
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
        m.v_touch_gather_block_priced(Pricing::Walk, &[base], &[], &[], 0);
        m.v_touch_gather_block_priced(Pricing::Stream, &[base], &[], &[1], 0);
        assert_eq!(m.counters().total_cycles(), 0.0);
        assert_eq!(m.counters().vector_ops, 0);
    }

    #[test]
    #[should_panic(expected = "RUN_BLOCK_MAX")]
    fn touch_gather_block_rejects_oversized_blocks() {
        let mut m = machine();
        let base = m.mem().alloc_f64(128);
        let idx = vec![0usize; Machine::RUN_BLOCK_MAX + 1];
        m.v_touch_gather_block_priced(Pricing::Walk, &[base], &idx, &[], 0);
    }

    #[test]
    fn touch_reduce_block_empty_is_free() {
        let mut m = machine();
        let src = m.mem().alloc_f64(64);
        let dst = m.mem().alloc_f64(64);
        m.v_touch_reduce_block_reuse(&[src], &[dst], &[], &[], 0, 0);
        assert_eq!(m.counters().total_cycles(), 0.0);
        assert_eq!(m.counters().vector_ops, 0);
    }

    #[test]
    #[should_panic(expected = "RUN_BLOCK_MAX")]
    fn touch_reduce_block_rejects_oversized_blocks() {
        let mut m = machine();
        let src = m.mem().alloc_f64(128);
        let dst = m.mem().alloc_f64(128);
        let idx = vec![0usize; Machine::RUN_BLOCK_MAX + 1];
        m.v_touch_reduce_block_reuse(&[src], &[dst], &idx, &[], 0, 0);
    }

    #[test]
    #[should_panic(expected = "must pair up")]
    fn touch_reduce_block_rejects_mismatched_components() {
        let mut m = machine();
        let src = m.mem().alloc_f64(8);
        let dst = m.mem().alloc_f64(8);
        m.v_touch_reduce_block_reuse(&[src, src], &[dst], &[0, 1], &[], 0, 0);
    }

    #[test]
    fn touch_reduce_block_accounting_scales_with_components() {
        // flops = comps * len; vector_ops = comps * ceil(len / VLANES).
        let mut m = machine();
        let srcs: Vec<VAddr> = (0..3).map(|_| m.mem().alloc_f64(16)).collect();
        let dsts: Vec<VAddr> = (0..3).map(|_| m.mem().alloc_f64(4096)).collect();
        let idx: Vec<usize> = (0..12).collect();
        m.set_phase(Phase::Reduce);
        m.v_touch_reduce_block_reuse(&srcs, &dsts, &idx, &[], 0, 0);
        assert_eq!(m.counters().flops_issued, 36.0);
        assert_eq!(m.counters().vector_ops, 3 * 2);
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
        // A CIC stencil's 8 nodes: two x-neighbours per (y, z) corner.
        let idx: Vec<usize> = [0usize, 1, 33, 34, 1089, 1090, 1122, 1123].to_vec();
        fused.set_phase(Phase::Reduce);
        swept.set_phase(Phase::Reduce);
        fused.v_touch_reduce_block_reuse(&fsrcs, &fdsts, &idx, &[], 0, 0);
        for comp in 0..3 {
            let mut node = 0;
            while node < idx.len() {
                let n = (idx.len() - node).min(VLANES);
                swept.v_touch_load(ssrcs[comp].offset_f64(node), n);
                swept.v_touch_scatter_add(sdsts[comp], &idx[node..node + n]);
                node += n;
            }
        }
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
        // streaming price also undercuts the cache-walking plain gather
        // from a cold (per-tile flushed) cache — the state it would
        // actually start from on the hot path.
        let cfg = MachineConfig::lx2();
        let mut cold = Machine::new(cfg.clone());
        let mut warm = Machine::new(cfg.clone());
        let cb = cold.mem().alloc_f64(4096);
        let wb = warm.mem().alloc_f64(4096);
        for i in 0..512 {
            warm.mem().access(wb.offset_f64(i * 8), 8);
        }
        let warm_l1 = warm.mem().l1_stats();
        let idx = [0usize, 1, 33, 34, 1089, 1090, 1122, 1123, 5, 6];
        cold.set_phase(Phase::Gather);
        warm.set_phase(Phase::Gather);
        cold.v_touch_gather_block_priced(Pricing::Stream, &[cb], &idx, &[], 0);
        warm.v_touch_gather_block_priced(Pricing::Stream, &[wb], &idx, &[], 0);
        let csrc = cold.mem().alloc_f64(16);
        let wsrc = warm.mem().alloc_f64(16);
        cold.set_phase(Phase::Reduce);
        warm.set_phase(Phase::Reduce);
        cold.v_touch_reduce_block_reuse(&[csrc], &[cb], &idx, &[], 0, 0);
        warm.v_touch_reduce_block_reuse(&[wsrc], &[wb], &idx, &[], 0, 0);
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
        plain.set_phase(Phase::Gather);
        plain.v_touch_gather_block_priced(Pricing::Walk, &[pb], &idx, &[], 0);
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
        // A TSC stencil straddling a periodic wrap of an 18^3 guarded
        // grid (so the node list is unsorted) and its x-neighbour as the
        // carried block.
        let idx: Vec<usize> = (0..27)
            .map(|nd| {
                let (a, b, c) = (nd % 3, nd / 3 % 3, nd / 9);
                ((c + 17) % 18 * 18 + (b + 5)) * 18 + (a + 16) % 18
            })
            .collect();
        let prev: Vec<usize> = idx
            .iter()
            .map(|i| i - i % 18 + (i % 18 + 17) % 18)
            .collect();
        m.set_phase(Phase::Gather);
        m.v_touch_gather_block_priced(Pricing::Stream, &bases, &idx, &prev, 0);
        m.v_touch_gather_block_priced(Pricing::Stream, &bases, &idx, &[], 18 * 18 * 18 * 8);
        m.v_touch_gather_block_priced(Pricing::Stream, &bases[1..2], &prev, &idx, 0);
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
        // walks. Partial overlap lands strictly between the extremes.
        let cfg = MachineConfig::lx2();
        let lane = cfg.gather_lane_cy;
        let mut m = Machine::new(cfg.clone());
        let base = m.mem().alloc_f64(4096);
        let idx = [0usize, 1, 33, 34, 1089, 1090, 1122, 1123];
        m.set_phase(Phase::Gather);
        m.v_touch_gather_block_priced(Pricing::Stream, &[base], &idx, &idx, 0);
        let full = m.counters().cycles(Phase::Gather);
        assert!(
            (full - lane * idx.len() as f64).abs() < 1e-12,
            "full overlap must leave only lane issue cost, got {full}"
        );
        // Partial overlap: prev covers the low half of the stencil.
        let mut part = Machine::new(cfg.clone());
        let pb = part.mem().alloc_f64(4096);
        part.set_phase(Phase::Gather);
        part.v_touch_gather_block_priced(Pricing::Stream, &[pb], &idx, &[0, 1, 33, 34], 0);
        let mut none = Machine::new(cfg);
        let nb = none.mem().alloc_f64(4096);
        none.set_phase(Phase::Gather);
        none.v_touch_gather_block_priced(Pricing::Walk, &[nb], &idx, &[], 0);
        let p = part.counters().cycles(Phase::Gather);
        let n = none.counters().cycles(Phase::Gather);
        assert!(full < p && p < n, "expected {full} < {p} < {n}");
    }

    #[test]
    fn reduce_reuse_full_prev_drops_destination_walks() {
        let cfg = MachineConfig::lx2();
        let mut fresh = Machine::new(cfg.clone());
        let mut reused = Machine::new(cfg);
        let idx = [0usize, 1, 33, 34, 1089, 1090, 1122, 1123];
        let fs: Vec<VAddr> = (0..3).map(|_| fresh.mem().alloc_f64(16)).collect();
        let fd: Vec<VAddr> = (0..3).map(|_| fresh.mem().alloc_f64(65536)).collect();
        let rs: Vec<VAddr> = (0..3).map(|_| reused.mem().alloc_f64(16)).collect();
        let rd: Vec<VAddr> = (0..3).map(|_| reused.mem().alloc_f64(65536)).collect();
        fresh.set_phase(Phase::Reduce);
        reused.set_phase(Phase::Reduce);
        fresh.v_touch_reduce_block_reuse(&fs, &fd, &idx, &[], 0, 0);
        reused.v_touch_reduce_block_reuse(&rs, &rd, &idx, &idx, 0, 0);
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
        let idx = [0usize, 1, 33, 34, 1089, 1090, 1122, 1123];
        let charge = |footprint: u64| -> [f64; 4] {
            let mut m = Machine::new(cfg.clone());
            let base = m.mem().alloc_f64(65536);
            let src = m.mem().alloc_f64(64);
            let mut out = [0.0; 4];
            m.set_phase(Phase::Gather);
            m.v_touch_gather_block_priced(Pricing::Stream, &[base], &idx, &[], footprint);
            out[0] = m.counters().cycles(Phase::Gather);
            m.set_phase(Phase::Reduce);
            m.v_touch_reduce_block_reuse(&[src], &[base], &idx, &[], footprint, footprint);
            out[1] = m.counters().cycles(Phase::Reduce);
            m.set_phase(Phase::Preprocess);
            m.v_touch_load_streamed(base, 8, footprint);
            m.v_touch_gather_priced(Pricing::Stream, &[base], &idx, footprint);
            out[2] = m.counters().cycles(Phase::Preprocess);
            m.set_phase(Phase::Compute);
            let data = vec![1.5; 8];
            let mut dst = vec![0.0; 8];
            let r = m.v_load_priced(Pricing::Stream, base, &data, footprint);
            m.v_store_priced(Pricing::Stream, base, r, &mut dst, 8, footprint);
            out[3] = m.counters().cycles(Phase::Compute);
            out
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
        // scalar cache walk it replaces — the crossover closes the
        // overpricing, and the cheaper-phase contract can't invert.
        let cfg = MachineConfig::lx2();
        let idx = [0usize, 1, 33, 34, 1089, 1090, 1122, 1123];
        let mut streamed = Machine::new(cfg.clone());
        let sb = streamed.mem().alloc_f64(1728); // 12^3 guarded 8^3 grid
        streamed.set_phase(Phase::Gather);
        streamed.v_touch_gather_block_priced(Pricing::Stream, &[sb], &idx, &[], 1728 * 8);
        let mut walk = Machine::new(cfg);
        let wb = walk.mem().alloc_f64(1728);
        walk.set_phase(Phase::Gather);
        walk.v_touch_gather_block_priced(Pricing::Walk, &[wb], &idx, &[], 0);
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
        warm.set_phase(Phase::Compute);
        for i in 0..1024 {
            warm.s_load(a2.offset_f64(i % 512), 8); // Pollute cache + streams.
        }
        warm.counters_mut().reset();
        warm.mem().flush_cache();
        cold.set_phase(Phase::Compute);
        for i in [0usize, 77, 13, 500, 2, 900] {
            cold.s_load(a1.offset_f64(i), 8);
            warm.s_load(a2.offset_f64(i), 8);
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
        idx: Vec<usize>,
        prev: Vec<usize>,
        footprint: u64,
    }

    /// Every line-set entry point once, through the rewritten machine
    /// (`mutant == None`) or the reference family; returns the loaded
    /// lanes so the functional half is compared too.
    fn run_case(m: &mut Machine, c: &Case, mutant: Option<reference::Mutant>) -> VReg {
        let Case {
            pricing,
            bases,
            srcs,
            idx,
            prev,
            footprint: fp,
            ..
        } = c;
        let (pricing, fp) = (*pricing, *fp);
        let data = [1.5, -2.0, 0.25, 8.0, 3.0, -0.5, 7.0, 9.0, 11.0];
        let w = idx.len().min(data.len());
        let addr = bases[0].offset_f64(idx.first().copied().unwrap_or(3));
        let mut out = [0.0; VLANES];
        let Some(mutant) = mutant else {
            m.v_touch_gather_priced(pricing, bases, idx, fp);
            m.v_touch_gather(bases[0], idx);
            m.v_touch_gather_block_priced(pricing, bases, idx, prev, fp);
            m.v_touch_reduce_block_reuse(srcs, bases, idx, prev, fp, fp);
            let r = m.v_load_priced(pricing, addr, &data[..w], fp);
            m.v_store_priced(pricing, addr, r, &mut out, w.min(VLANES), fp);
            assert_eq!(out, r.0);
            return r;
        };
        match pricing {
            Pricing::Walk => reference::v_touch_gather_multi(m, bases, idx, mutant),
            Pricing::Stream => {
                for &b in bases {
                    reference::v_touch_gather_streamed(m, b, idx, fp);
                }
            }
        }
        reference::v_touch_gather_multi(m, &bases[..1], idx, mutant);
        match pricing {
            Pricing::Walk => {
                for &b in bases {
                    reference::v_touch_gather_block(m, b, idx, mutant);
                }
            }
            Pricing::Stream => {
                reference::v_touch_gather_block_reuse_multi(m, bases, idx, prev, fp, mutant);
            }
        }
        reference::v_touch_reduce_block_reuse(m, srcs, bases, idx, prev, fp, fp, mutant);
        let r = match pricing {
            Pricing::Walk => reference::v_load(m, addr, &data[..w]),
            Pricing::Stream => reference::v_load_streamed(m, addr, &data[..w], fp),
        };
        match pricing {
            Pricing::Walk => reference::v_store(m, addr, r, &mut out, w.min(VLANES)),
            Pricing::Stream => {
                reference::v_store_streamed(m, addr, r, &mut out, w.min(VLANES), fp);
            }
        }
        r
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
        // A 4^3 stencil block of an 18^3 guarded grid, ascending — or
        // straddling the periodic wrap in x and z, so unsorted.
        let node = |k: usize, wrap: bool| {
            let (a, b, c) = (k % 4, k / 4 % 4, k / 16);
            match wrap {
                false => (c * 18 + b) * 18 + a + 100,
                true => ((17 + c) % 18 * 18 + b + 5) * 18 + (16 + a) % 18,
            }
        };
        let mutants = [
            Mutant::MultiplyByCount,
            Mutant::ReplayOnIncongruentBase,
            Mutant::OneIssuePerBlock,
        ];
        let mut caught: [Vec<usize>; 3] = Default::default();
        let mut cases = Vec::new();
        for pricing in [Pricing::Walk, Pricing::Stream] {
            for len in [0usize, 1, 8, 9, 27, 64] {
                for wrap in [false, true] {
                    let idx: Vec<usize> = (0..len).map(|k| node(k, wrap)).collect();
                    for n_bases in [1usize, 3, 6, 7] {
                        for incongruent in [false, true] {
                            let odd = |i: usize| [0, 8, 0, 40, 8, 0, 40][i] * incongruent as u64;
                            let bases: Vec<VAddr> =
                                (0..n_bases).map(|i| VAddr(arrays[i].0 + odd(i))).collect();
                            // Empty, disjoint, partial, covering.
                            for prev in [
                                Vec::new(),
                                idx.iter().map(|i| i + 4096).collect(),
                                idx[..len / 2].to_vec(),
                                idx.iter().rev().copied().collect(),
                            ] {
                                for footprint in [0, 64, xover + 1] {
                                    cases.push(Case {
                                        pricing,
                                        incongruent: incongruent && n_bases > 1,
                                        bases: bases.clone(),
                                        srcs: srcs[..n_bases].to_vec(),
                                        idx: idx.clone(),
                                        prev: prev.clone(),
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
            new.set_phase(phase);
            old.set_phase(phase);
            if n % 97 == 0 {
                new.mem().flush_cache();
                old.mem().flush_cache();
            }
            let mut twins: Vec<Machine> = mutants.iter().map(|_| old.clone()).collect();
            let got = run_case(&mut new, c, None);
            let want = run_case(&mut old, c, Some(Mutant::None));
            assert_eq!(got, want, "case {n}: loaded lanes");
            let want = format!("{:?}", old.drain_counters());
            assert_eq!(format!("{:?}", new.drain_counters()), want, "case {n}");
            for ((twin, &mutant), caught) in twins.iter_mut().zip(&mutants).zip(&mut caught) {
                run_case(twin, c, Some(mutant));
                if format!("{:?}", twin.drain_counters()) != want {
                    caught.push(n);
                }
            }
            if n % 64 == 0 || n + 1 == cases.len() {
                assert_eq!(
                    new.mem_ref().cache_state(),
                    old.mem_ref().cache_state(),
                    "case {n}: cache state"
                );
            }
        }
        let [multiply, replay, one_issue] = caught;
        assert!(!multiply.is_empty(), "multiply-by-count must be rejected");
        assert!(multiply
            .iter()
            .all(|&n| cases[n].pricing == Pricing::Stream && cases[n].idx.len() > 1));
        assert!(!replay.is_empty(), "incongruent replay must be rejected");
        assert!(replay.iter().all(|&n| cases[n].incongruent));
        assert!(
            one_issue.iter().any(|&n| cases[n].idx.len() == 9),
            "one issue for a 9-element block must be rejected"
        );
        assert!(one_issue.iter().all(|&n| cases[n].idx.len() > VLANES));
    }
}
