//! Fault-injected recovery tests: a worker panic or thread death in the
//! middle of a step must roll back to the last checkpoint and replay,
//! yielding a final state **bitwise identical** to a crash-free run.

use matrix_pic::core::{workloads, DriverError, ResilientDriver, Simulation};
use matrix_pic::deposit::{KernelConfig, ShapeOrder};
use matrix_pic::machine::{FaultKind, FaultPlan};

const DIMS: [usize; 3] = [8, 8, 8];
const PPC: usize = 2;
const SEED: u64 = 57;

fn sim(workers: usize) -> Simulation {
    let mut s =
        workloads::uniform_plasma_sim(DIMS, PPC, ShapeOrder::Cic, KernelConfig::FullOpt, SEED);
    s.cfg.num_workers = workers;
    (s.cfg.batching, s.cfg.simd) = (true, true);
    s
}

/// Drives `total` steps with a fault injected a few dispatches into the
/// post-warmup stepping, and asserts the final state equals the
/// crash-free reference bit for bit (via total-state snapshot bytes).
fn assert_recovery_is_bitwise(kind: FaultKind, workers: usize) {
    let warmup = 2u64;
    let total = 6u64;

    let mut reference = sim(workers);
    reference.run(total as usize);
    let expected = reference.snapshot();

    let mut faulted = sim(workers);
    // Warm up under the final worker count so the pool (and any fault
    // armed on it) survives: the pool is rebuilt when cfg changes.
    faulted.run(warmup as usize);
    faulted.pool().inject_fault(FaultPlan {
        // Worker 1 exists for every pool with >= 2 workers and, unlike
        // worker 0, exercises the background-thread failure paths.
        worker: 1,
        dispatch: faulted.pool().dispatch_count() + 2,
        kind,
    });
    let mut driver = ResilientDriver::new(2, 3);
    let stats = driver
        .run(&mut faulted, (total - warmup) as usize)
        .expect("recovery should succeed within the retry budget");

    assert!(stats.failures >= 1, "the injected fault never fired");
    assert!(stats.checkpoints_taken >= 1);
    if kind == FaultKind::Die {
        assert_eq!(
            stats.workers_respawned, 1,
            "a killed worker thread must be respawned exactly once"
        );
        assert!(faulted.pool().dead_workers().is_empty());
    }
    assert_eq!(faulted.step_index(), total);
    assert!(
        faulted.snapshot() == expected,
        "{kind:?} w={workers}: recovered state diverged from crash-free run"
    );
}

/// A mid-step worker panic rolls back, replays, and lands bitwise equal
/// to the uninterrupted run — across worker counts.
#[test]
fn conf_fault_injected_worker_panic_recovers_bitwise() {
    for &workers in &[2usize, 4, 7] {
        assert_recovery_is_bitwise(FaultKind::Panic, workers);
    }
}

/// A worker thread *death* mid-step is detected, the thread respawned,
/// and the run still converges to the bitwise-identical final state.
#[test]
fn conf_fault_injected_worker_death_recovers_bitwise() {
    assert_recovery_is_bitwise(FaultKind::Die, 4);
}

/// A dispatcher-thread (worker 0) fault is also caught and rolled back.
#[test]
fn conf_fault_on_dispatching_thread_recovers_bitwise() {
    let total = 6u64;
    let mut reference = sim(4);
    reference.run(total as usize);
    let expected = reference.snapshot();

    let mut faulted = sim(4);
    faulted.run(2);
    faulted.pool().inject_fault(FaultPlan {
        worker: 0,
        dispatch: faulted.pool().dispatch_count() + 3,
        kind: FaultKind::Panic,
    });
    let mut driver = ResilientDriver::new(1, 2);
    let stats = driver
        .run(&mut faulted, (total - 2) as usize)
        .expect("recovery");
    assert!(stats.failures >= 1);
    assert!(faulted.snapshot() == expected);
}

/// Without faults the driver is a pure pass-through: same final state as
/// `Simulation::run`, zero failures, checkpoints on the configured
/// cadence.
#[test]
fn driver_without_faults_is_transparent() {
    let mut plain = sim(2);
    plain.run(5);

    let mut driven = sim(2);
    let mut driver = ResilientDriver::new(2, 1);
    let stats = driver.run(&mut driven, 5).expect("clean run");
    assert_eq!(stats.failures, 0);
    assert_eq!(stats.steps_replayed, 0);
    assert_eq!(stats.workers_respawned, 0);
    // Checkpoints at steps 0, 2 and 4.
    assert_eq!(stats.checkpoints_taken, 3);
    assert_eq!(driver.last_checkpoint().map(|(s, _)| s), Some(4));
    assert!(driven.snapshot() == plain.snapshot());
}

/// A driver reused on another simulation rolls a fault back to a
/// checkpoint of *that* simulation, never to one held from its previous
/// run: each `run` checkpoints before its first step.
#[test]
fn reused_driver_rolls_back_to_a_checkpoint_of_this_simulation() {
    let mut driver = ResilientDriver::new(4, 3);
    let mut a = sim(2);
    let _ = driver.run(&mut a, 6).expect("clean run");
    assert_eq!(driver.last_checkpoint().map(|(s, _)| s), Some(4));

    let mut plain = sim(1);
    plain.run(2);
    // A fresh simulation of the same configuration, faulted on its very
    // first dispatch (its construction pool already has the one worker,
    // so the plan survives the first step).
    let mut b = sim(1);
    b.pool().inject_fault(FaultPlan {
        worker: 0,
        dispatch: b.pool().dispatch_count() + 1,
        kind: FaultKind::Panic,
    });
    let stats = driver.run(&mut b, 2).expect("recovery");
    assert_eq!(stats.failures, 1);
    assert_eq!(stats.steps_replayed, 0);
    assert_eq!(stats.checkpoints_taken, 3);
    assert_eq!(b.step_index(), 2);
    assert!(
        b.snapshot() == plain.snapshot(),
        "recovered run diverged from the unfaulted one"
    );
}

/// A step that keeps failing past the retry budget surfaces a structured
/// terminal error naming the stuck step — no abort, no hang.
#[test]
fn retry_budget_exhaustion_is_a_structured_error() {
    let mut faulted = sim(4);
    faulted.run(1);
    faulted.pool().inject_fault(FaultPlan {
        worker: 1,
        dispatch: faulted.pool().dispatch_count() + 1,
        kind: FaultKind::Panic,
    });
    let mut driver = ResilientDriver::new(1, 0);
    match driver.run(&mut faulted, 2) {
        Err(DriverError::RetryBudgetExhausted { step, attempts, .. }) => {
            assert_eq!(step, 1);
            assert_eq!(attempts, 1);
        }
        other => panic!("expected retry exhaustion, got {other:?}"),
    }
    // The simulation is still usable after the driver gave up: the
    // plan was consumed, so plain stepping proceeds.
    faulted.run(1);
}
