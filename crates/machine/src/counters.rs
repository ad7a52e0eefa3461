//! Per-phase performance counters.
//!
//! Cycle accounting mirrors the paper's measurement methodology (section
//! 5.2.2): kernel time is measured *inclusively* of implementation-specific
//! overheads, while the "useful work" credited towards peak-efficiency
//! percentages is the canonical scalar deposition FLOP count, independent of
//! the implementation. Counters therefore distinguish between
//! `flops_issued` (what the emulated hardware actually executed, including
//! zero-padded MPU tile slots) and `useful_flops` (canonical work set by the
//! harness).
//!
//! [`PerfCounters`] is the counters' *home*, not where the hot loops add:
//! a phase scope ([`crate::Machine::in_phase`]) checks the active phase's
//! cycle bucket, `flops_issued` and the four instruction counts out into a
//! [`crate::Meter`], charges there, and stores the running totals back
//! when the scope closes. Between scopes everything is here, which is
//! what [`crate::Machine::drain_counters`] and the checkpoint read.

/// Execution phases of a PIC timestep.
///
/// `Preprocess`, `Compute`, `Sort` and `Reduce` together form the complete
/// deposition kernel time reported in the paper's Tables 1 and 2;
/// `Gather`, `Push` and `FieldSolve` make up the rest of the loop for the
/// Figure 1/8/9 wall-time breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// VPU data staging for deposition: shape factors, weights, index math.
    Preprocess,
    /// The deposition arithmetic itself (VPU FMA chains or MPU MOPA).
    Compute,
    /// Incremental / global particle sorting and GPMA maintenance.
    Sort,
    /// Rhocell-to-grid reduction (scatter-add of per-cell accumulators).
    Reduce,
    /// Grid-to-particle field interpolation.
    Gather,
    /// Boris particle push.
    Push,
    /// Maxwell field solve.
    FieldSolve,
    /// Everything else (diagnostics, window shifts, boundary exchange).
    Other,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 8] = [
        Phase::Preprocess,
        Phase::Compute,
        Phase::Sort,
        Phase::Reduce,
        Phase::Gather,
        Phase::Push,
        Phase::FieldSolve,
        Phase::Other,
    ];

    /// The four phases that constitute the deposition kernel time in the
    /// paper's Tables 1 and 2.
    pub const DEPOSITION: [Phase; 4] = [
        Phase::Preprocess,
        Phase::Compute,
        Phase::Sort,
        Phase::Reduce,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Preprocess => 0,
            Phase::Compute => 1,
            Phase::Sort => 2,
            Phase::Reduce => 3,
            Phase::Gather => 4,
            Phase::Push => 5,
            Phase::FieldSolve => 6,
            Phase::Other => 7,
        }
    }

    /// Human-readable label used by the bench harness tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Preprocess => "preproc",
            Phase::Compute => "compute",
            Phase::Sort => "sort",
            Phase::Reduce => "reduce",
            Phase::Gather => "gather",
            Phase::Push => "push",
            Phase::FieldSolve => "field_solve",
            Phase::Other => "other",
        }
    }
}

use crate::cache::MemStats;

/// The complete mergeable accounting state of one emulated machine:
/// per-[`Phase`] cycles and instruction counts ([`PerfCounters`]) plus the
/// statistics its memory system accumulates ([`MemStats`]).
///
/// Parallel tile workers each charge a private `MachineCounters` set
/// (drained per tile via [`crate::Machine::drain_counters`]) which the
/// orchestrator merges back into the main machine **in tile order**.
/// Because merging is a fixed-order sum of per-tile deltas, the totals
/// are bit-identical no matter how tiles were sharded across workers.
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct MachineCounters {
    /// Cycle and instruction counters.
    pub perf: PerfCounters,
    /// Cache hits and misses per level and the DRAM miss split.
    pub mem: MemStats,
}

impl MachineCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another counter set into this one. Deterministic: merging
    /// the same sequence of counter sets in the same order always
    /// produces the same floating-point totals.
    pub fn merge(&mut self, other: &MachineCounters) {
        self.perf.merge(&other.perf);
        self.mem.merge(&other.mem);
    }
}

/// Aggregated emulation statistics.
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct PerfCounters {
    cycles: [f64; 8],
    /// FLOPs actually executed by emulated functional units (MPU tile
    /// padding included).
    pub flops_issued: f64,
    /// Canonical useful FLOPs, credited by the harness (419 per particle
    /// for third-order QSP deposition per the paper).
    pub useful_flops: f64,
    /// Emulated instructions issued, by rough class.
    pub scalar_ops: u64,
    /// Number of VPU vector instructions issued.
    pub vector_ops: u64,
    /// Number of MPU MOPA instructions issued.
    pub mopa_ops: u64,
    /// Number of VPU<->MPU tile row transfers.
    pub tile_transfers: u64,
}

/// The counters an op can add to, as a phase scope holds them while it
/// runs: one phase's cycle bucket and everything phase-independent
/// except `useful_flops`, which only the harness credits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Totals {
    pub(crate) cycles: f64,
    pub(crate) flops_issued: f64,
    pub(crate) scalar_ops: u64,
    pub(crate) vector_ops: u64,
    pub(crate) mopa_ops: u64,
    pub(crate) tile_transfers: u64,
}

impl PerfCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to `phase`.
    pub fn add_cycles(&mut self, phase: Phase, cycles: f64) {
        self.cycles[phase.index()] += cycles;
    }

    /// Cycles charged to one phase.
    pub fn cycles(&self, phase: Phase) -> f64 {
        self.cycles[phase.index()]
    }

    /// What a scope of `phase` checks out into its [`crate::Meter`].
    #[inline]
    pub(crate) fn check_out(&self, phase: Phase) -> Totals {
        Totals {
            cycles: self.cycles[phase.index()],
            flops_issued: self.flops_issued,
            scalar_ops: self.scalar_ops,
            vector_ops: self.vector_ops,
            mopa_ops: self.mopa_ops,
            tile_transfers: self.tile_transfers,
        }
    }

    /// Stores a scope's totals back, `cycles` into `phase`'s bucket.
    #[inline]
    pub(crate) fn commit(&mut self, phase: Phase, t: Totals) {
        self.cycles[phase.index()] = t.cycles;
        self.flops_issued = t.flops_issued;
        self.scalar_ops = t.scalar_ops;
        self.vector_ops = t.vector_ops;
        self.mopa_ops = t.mopa_ops;
        self.tile_transfers = t.tile_transfers;
    }

    /// Total cycles across all phases.
    pub fn total_cycles(&self) -> f64 {
        self.cycles.iter().sum()
    }

    /// Cycles across the deposition-kernel phases (preproc + compute +
    /// sort + reduce), matching the paper's "Deposition Kernel Time".
    pub fn deposition_cycles(&self) -> f64 {
        Phase::DEPOSITION.iter().map(|p| self.cycles(*p)).sum()
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &PerfCounters) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += b;
        }
        self.flops_issued += other.flops_issued;
        self.useful_flops += other.useful_flops;
        self.scalar_ops += other.scalar_ops;
        self.vector_ops += other.vector_ops;
        self.mopa_ops += other.mopa_ops;
        self.tile_transfers += other.tile_transfers;
    }

    /// Resets everything to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_accumulate_per_phase() {
        let mut c = PerfCounters::new();
        c.add_cycles(Phase::Compute, 10.0);
        c.add_cycles(Phase::Compute, 5.0);
        c.add_cycles(Phase::Sort, 2.0);
        assert_eq!(c.cycles(Phase::Compute), 15.0);
        assert_eq!(c.cycles(Phase::Sort), 2.0);
        assert_eq!(c.total_cycles(), 17.0);
    }

    #[test]
    fn deposition_cycles_cover_kernel_phases_only() {
        let mut c = PerfCounters::new();
        for p in Phase::ALL {
            c.add_cycles(p, 1.0);
        }
        assert_eq!(c.deposition_cycles(), 4.0);
        assert_eq!(c.total_cycles(), 8.0);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = PerfCounters::new();
        a.add_cycles(Phase::Push, 1.0);
        a.flops_issued = 10.0;
        a.mopa_ops = 3;
        let mut b = PerfCounters::new();
        b.add_cycles(Phase::Push, 2.0);
        b.flops_issued = 5.0;
        b.mopa_ops = 4;
        a.merge(&b);
        assert_eq!(a.cycles(Phase::Push), 3.0);
        assert_eq!(a.flops_issued, 15.0);
        assert_eq!(a.mopa_ops, 7);
    }

    #[test]
    fn machine_counters_merge_all_fields() {
        let mut a = MachineCounters::new();
        a.perf.add_cycles(Phase::Compute, 2.0);
        a.mem.l1.hits = 3;
        a.mem.random_misses = 1;
        let mut b = MachineCounters::new();
        b.perf.add_cycles(Phase::Compute, 5.0);
        b.mem.l1.hits = 4;
        b.mem.l2.misses = 2;
        b.mem.streamed_misses = 7;
        a.merge(&b);
        assert_eq!(a.perf.cycles(Phase::Compute), 7.0);
        assert_eq!(a.mem.l1.hits, 7);
        assert_eq!(a.mem.l2.misses, 2);
        assert_eq!(a.mem.streamed_misses, 7);
        assert_eq!(a.mem.random_misses, 1);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::ALL.len());
    }
}
