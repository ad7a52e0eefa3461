//! Step-transaction recovery: a driver that runs the simulation under a
//! checkpoint/restore umbrella so execution-layer failures (worker
//! panics, worker thread deaths — injected by the fault matrix or real)
//! roll back to the last checkpoint and replay instead of aborting the
//! run.
//!
//! Each [`Simulation::step`] is treated as a transaction: the driver
//! snapshots the complete simulation state every `checkpoint_interval`
//! steps ([`Simulation::snapshot`] — fields, particles, RNG, counters,
//! cache behavioural state), and a step that unwinds with a structured
//! [`ExecError`] payload is rolled back by restoring the checkpoint,
//! repairing the worker pool ([`Simulation::repair_workers`]) and
//! replaying the lost steps. Because stepping is bit-deterministic and
//! the snapshot is total, a recovered run is **bitwise identical** to a
//! crash-free run — the paper's reproducibility claims survive faults.
//!
//! Panics that do *not* carry an [`ExecError`] are logic bugs, not
//! execution failures: the driver re-raises them untouched rather than
//! masking them with a rollback-and-retry loop.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use mpic_machine::ExecError;

use crate::simulation::Simulation;
use crate::snapshot::SnapshotError;

/// What the recovery umbrella did during a driven run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct RecoveryStats {
    /// Checkpoints written (including the one taken before step 1).
    pub checkpoints_taken: usize,
    /// Execution-layer failures caught and rolled back.
    pub failures: usize,
    /// Completed steps discarded by rollbacks and re-executed.
    pub steps_replayed: usize,
    /// Dead worker threads replaced during recovery.
    pub workers_respawned: usize,
}

/// Terminal failures of a resilient run.
#[derive(Debug)]
pub enum DriverError {
    /// The same step kept failing past the retry budget.
    RetryBudgetExhausted {
        /// Step index that would not complete.
        step: u64,
        /// Consecutive failed attempts at it.
        attempts: usize,
        /// The last execution error observed.
        last: ExecError,
    },
    /// A checkpoint failed to restore (should be impossible for
    /// driver-written checkpoints; indicates memory corruption).
    Restore(SnapshotError),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RetryBudgetExhausted {
                step,
                attempts,
                last,
            } => write!(
                f,
                "step {step} failed {attempts} consecutive times (last: {last})"
            ),
            Self::Restore(e) => write!(f, "checkpoint restore failed: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Runs a [`Simulation`] with periodic checkpoints and bounded
/// retry-on-failure.
///
/// ```
/// use mpic_core::{workloads, ResilientDriver};
/// use mpic_deposit::{KernelConfig, ShapeOrder};
///
/// let mut sim = workloads::uniform_plasma_sim(
///     [8, 8, 8], 2, ShapeOrder::Cic, KernelConfig::FullOpt, 7,
/// );
/// let mut driver = ResilientDriver::new(2, 3);
/// let stats = driver.run(&mut sim, 4).unwrap();
/// assert_eq!(sim.step_index(), 4);
/// assert_eq!(stats.failures, 0);
/// ```
#[derive(Debug)]
pub struct ResilientDriver {
    /// Steps between checkpoints (clamped to at least 1).
    checkpoint_interval: usize,
    /// Consecutive failures tolerated per step before giving up.
    retry_budget: usize,
    /// Step index the last checkpoint captures.
    checkpoint_step: Option<u64>,
    /// The last checkpoint's bytes, rewritten in place by each new one.
    checkpoint: Vec<u8>,
    stats: RecoveryStats,
}

impl ResilientDriver {
    /// A driver checkpointing every `checkpoint_interval` steps and
    /// tolerating `retry_budget` consecutive failures of any one step.
    pub fn new(checkpoint_interval: usize, retry_budget: usize) -> Self {
        Self {
            checkpoint_interval: checkpoint_interval.max(1),
            retry_budget,
            checkpoint_step: None,
            checkpoint: Vec::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// Cumulative recovery statistics over every `run` on this driver.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// The most recent checkpoint: the step index it captures and its
    /// serialized bytes (e.g. to persist externally).
    pub fn last_checkpoint(&self) -> Option<(u64, &[u8])> {
        self.checkpoint_step
            .map(|step| (step, self.checkpoint.as_slice()))
    }

    /// Advances `sim` by `steps`, rolling execution-layer failures back
    /// to the last checkpoint and replaying. Returns the cumulative
    /// [`RecoveryStats`] on success.
    ///
    /// The first step of every call is checkpointed: a checkpoint held
    /// from an earlier call may be of another simulation, or of this one
    /// at another point of its history. Checkpoints rewrite one held
    /// buffer ([`Simulation::snapshot_into`]), so the driver holds one
    /// checkpoint and, in steady state, allocates nothing for it.
    ///
    /// # Panics
    ///
    /// Re-raises any step panic that is not a structured [`ExecError`]
    /// — logic bugs are not retried.
    pub fn run(
        &mut self,
        sim: &mut Simulation,
        steps: usize,
    ) -> Result<RecoveryStats, DriverError> {
        let target = sim.step_index() + steps as u64;
        let mut consecutive_failures = 0usize;
        let mut next_checkpoint = sim.step_index();
        while sim.step_index() < target {
            if sim.step_index() >= next_checkpoint {
                sim.snapshot_into(&mut self.checkpoint);
                self.checkpoint_step = Some(sim.step_index());
                next_checkpoint = sim.step_index() + self.checkpoint_interval as u64;
                self.stats.checkpoints_taken += 1;
            }
            let before = sim.step_index();
            // AssertUnwindSafe: if the step unwinds mid-phase the
            // simulation is in a torn state, but the only way out of
            // this catch is either a full restore from the checkpoint
            // (which replaces every piece of stepping state) or
            // re-raising the panic — the torn state is never observed.
            let outcome = catch_unwind(AssertUnwindSafe(|| sim.step()));
            match outcome {
                Ok(_timings) => consecutive_failures = 0,
                Err(payload) => {
                    let Some(err) = ExecError::from_payload(payload.as_ref()).cloned() else {
                        resume_unwind(payload);
                    };
                    self.stats.failures += 1;
                    consecutive_failures += 1;
                    if consecutive_failures > self.retry_budget {
                        return Err(DriverError::RetryBudgetExhausted {
                            step: before,
                            attempts: consecutive_failures,
                            last: err,
                        });
                    }
                    self.stats.workers_respawned += sim.repair_workers();
                    let ckpt_step = self
                        .checkpoint_step
                        .expect("a checkpoint is taken before the first step");
                    sim.restore(&self.checkpoint)
                        .map_err(DriverError::Restore)?;
                    debug_assert_eq!(sim.step_index(), ckpt_step);
                    self.stats.steps_replayed += (before - ckpt_step) as usize;
                }
            }
        }
        Ok(self.stats)
    }
}
