//! Per-step and per-run timing records derived from the emulated
//! performance counters — the data behind every figure and table of the
//! paper's evaluation.

use mpic_machine::{MachineConfig, PerfCounters, Phase};

/// Snapshot of one step's cycle charges by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimings {
    /// Cycles per phase in [`Phase::ALL`] order.
    pub cycles: [f64; 8],
    /// Live particles at the end of the step.
    pub particles: usize,
}

impl StepTimings {
    /// Computes the delta between two counter snapshots.
    pub fn from_delta(before: &PerfCounters, after: &PerfCounters, particles: usize) -> Self {
        let mut cycles = [0.0; 8];
        for (i, p) in Phase::ALL.iter().enumerate() {
            cycles[i] = after.cycles(*p) - before.cycles(*p);
        }
        Self { cycles, particles }
    }

    /// Cycles of one phase.
    pub fn phase(&self, p: Phase) -> f64 {
        let i = Phase::ALL.iter().position(|q| *q == p).expect("phase");
        self.cycles[i]
    }

    /// Total cycles of the step.
    pub fn total(&self) -> f64 {
        self.cycles.iter().sum()
    }

    /// Deposition-kernel cycles (preproc + compute + sort + reduce) —
    /// the paper's complete "Deposition Kernel Time".
    pub fn deposition(&self) -> f64 {
        Phase::DEPOSITION.iter().map(|&p| self.phase(p)).sum()
    }
}

/// Accumulated timings across a run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Every step's timings, in order.
    pub steps: Vec<StepTimings>,
    /// Never credited: `Simulation::step` credits the canonical useful
    /// FLOPs to [`PerfCounters::useful_flops`] instead, so this stays
    /// 0.0 unless a snapshot restores another value (the REPORT section
    /// stores it). It is kept because callers outside the workspace
    /// construct `RunReport` literals.
    pub useful_flops: f64,
}

impl RunReport {
    /// Records one step.
    pub fn push(&mut self, t: StepTimings) {
        self.steps.push(t);
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total cycles over all steps.
    pub fn total_cycles(&self) -> f64 {
        self.steps.iter().map(|s| s.total()).sum()
    }

    /// Total cycles of one phase.
    pub fn phase_cycles(&self, p: Phase) -> f64 {
        self.steps.iter().map(|s| s.phase(p)).sum()
    }

    /// Total deposition-kernel cycles.
    pub fn deposition_cycles(&self) -> f64 {
        self.steps.iter().map(|s| s.deposition()).sum()
    }

    /// Average wall seconds per step at the machine clock.
    pub fn wall_seconds_per_step(&self, cfg: &MachineConfig) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        cfg.cycles_to_seconds(self.total_cycles()) / self.steps.len() as f64
    }

    /// Deposition-kernel seconds over the whole run.
    pub fn deposition_seconds(&self, cfg: &MachineConfig) -> f64 {
        cfg.cycles_to_seconds(self.deposition_cycles())
    }

    /// Kernel throughput in particles per second
    /// (`N_particles / T_deposition`, the paper's primary metric).
    pub fn particles_per_second(&self, cfg: &MachineConfig) -> f64 {
        let t = self.deposition_seconds(cfg);
        if t == 0.0 {
            return 0.0;
        }
        let processed: usize = self.steps.iter().map(|s| s.particles).sum();
        processed as f64 / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(compute: f64, sort: f64, particles: usize) -> StepTimings {
        let mut before = PerfCounters::new();
        let mut after = PerfCounters::new();
        before.add_cycles(Phase::Compute, 0.0);
        after.add_cycles(Phase::Compute, compute);
        after.add_cycles(Phase::Sort, sort);
        StepTimings::from_delta(&before, &after, particles)
    }

    #[test]
    fn delta_captures_phase_cycles() {
        let t = step(10.0, 5.0, 3);
        assert_eq!(t.phase(Phase::Compute), 10.0);
        assert_eq!(t.phase(Phase::Sort), 5.0);
        assert_eq!(t.total(), 15.0);
        assert_eq!(t.deposition(), 15.0);
    }

    #[test]
    fn report_aggregates() {
        let mut r = RunReport::default();
        r.push(step(10.0, 0.0, 100));
        r.push(step(20.0, 4.0, 100));
        assert_eq!(r.len(), 2);
        assert_eq!(r.total_cycles(), 34.0);
        assert_eq!(r.phase_cycles(Phase::Compute), 30.0);
        let cfg = MachineConfig::lx2();
        assert!(r.particles_per_second(&cfg) > 0.0);
        assert!(r.wall_seconds_per_step(&cfg) > 0.0);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::default();
        let cfg = MachineConfig::lx2();
        assert_eq!(r.wall_seconds_per_step(&cfg), 0.0);
        assert_eq!(r.particles_per_second(&cfg), 0.0);
        assert!(r.is_empty());
    }
}
