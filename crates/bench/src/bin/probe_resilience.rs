//! Fault-injection recovery probe: drives the crash-resilience stack
//! (checkpoint/restore + worker fault recovery + step transactions)
//! across the full execution matrix, as a CI gate.
//!
//! Gates enforced (any failure panics, so the exit code is the gate):
//!
//! * **Recovery matrix** — for workers ∈ {1,2,4,7} × both scheduler
//!   policies × injected dispatch offsets {2, 5} × fault kinds
//!   {panic, die}: a mid-step fault on the last worker must be caught,
//!   rolled back to the last checkpoint and replayed, and the final
//!   state must be **bitwise identical** (total snapshot bytes) to a
//!   single crash-free reference — which, because checkpoints are
//!   worker- and scheduler-agnostic, also re-verifies the determinism
//!   contract across the whole matrix in one comparison.
//! * **Snapshot round-trips** — the uniform-plasma and LWFA
//!   moving-window workloads are checkpointed mid-run, restored into
//!   fresh simulations, and continued: the resumed run must land on the
//!   interrupted run's exact bytes, and a same-state round-trip must be
//!   byte-lossless.
//! * **Env plumbing** (`--env-fault [workers]`) — reads the fault from
//!   `MPIC_FAULT_WORKER` / `MPIC_FAULT_DISPATCH` / `MPIC_FAULT_KIND`
//!   (armed automatically on every pool construction), recovers through
//!   it, and checks the result against a crash-free reference — the
//!   end-to-end test of the env-driven `FaultPlan` path.
//!
//! CI runs this in the **debug** profile: `debug_assertions` keeps the
//! Partition claim bitmap live, so every replayed phase's shard grants
//! stay aliasing-audited while faults bounce the step loop around.
//!
//! Usage: `probe_resilience [--env-fault [workers]]`.

use mpic_core::{workloads, ResilientDriver, Simulation};
use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_machine::{FaultKind, FaultPlan, SchedulerPolicy};

/// Grid of the uniform recovery/round-trip workload (small on purpose:
/// CI runs the whole matrix in the debug profile).
const UNIFORM_CELLS: [usize; 3] = [8, 8, 8];

/// Grid of the LWFA moving-window round-trip workload.
const LWFA_CELLS: [usize; 3] = [8, 8, 32];

const PPC: usize = 2;
const SEED: u64 = 4242;

/// Steps every recovery run covers (2 warm-up + 4 driven).
const WARMUP: usize = 2;
const TOTAL: usize = 6;

fn uniform(workers: usize, policy: SchedulerPolicy) -> Simulation {
    let mut s = workloads::uniform_plasma_sim(
        UNIFORM_CELLS,
        PPC,
        ShapeOrder::Cic,
        KernelConfig::FullOpt,
        SEED,
    );
    s.cfg.num_workers = workers;
    s.cfg.scheduler = policy;
    (s.cfg.batching, s.cfg.simd) = (true, true);
    s
}

fn lwfa(workers: usize, policy: SchedulerPolicy) -> Simulation {
    let mut s = workloads::lwfa_sim(
        LWFA_CELLS,
        PPC,
        ShapeOrder::Cic,
        KernelConfig::FullOpt,
        SEED,
    );
    s.cfg.num_workers = workers;
    s.cfg.scheduler = policy;
    (s.cfg.batching, s.cfg.simd) = (true, true);
    s
}

/// A plan that can never fire: used to disarm an env-armed pool so the
/// crash-free reference of `--env-fault` mode stays crash-free.
fn never_fires() -> FaultPlan {
    FaultPlan {
        worker: 0,
        dispatch: u64::MAX,
        kind: FaultKind::Panic,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--env-fault") {
        let workers = args
            .get(1)
            .map(|w| w.parse().expect("workers must be a number"))
            .unwrap_or(4);
        env_fault_gate(workers);
        return;
    }

    recovery_matrix();
    round_trip(
        "uniform",
        &|| uniform(4, SchedulerPolicy::Stealing),
        &|| uniform(7, SchedulerPolicy::Static),
    );
    round_trip("lwfa", &|| lwfa(4, SchedulerPolicy::Stealing), &|| {
        lwfa(7, SchedulerPolicy::Static)
    });
    println!("probe_resilience: all gates passed");
}

/// The fault matrix: every combination must recover to the one
/// crash-free reference's exact bytes.
fn recovery_matrix() {
    // Checkpoints are worker/scheduler agnostic (batching held
    // constant), so one crash-free run references the whole matrix.
    let mut reference = uniform(1, SchedulerPolicy::Static);
    reference.run(TOTAL);
    let expected = reference.snapshot();

    let mut runs = 0usize;
    for &workers in &[1usize, 2, 4, 7] {
        for &policy in &[SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
            for &offset in &[2u64, 5] {
                for &kind in &[FaultKind::Panic, FaultKind::Die] {
                    let mut faulted = uniform(workers, policy);
                    // Warm up under the final worker count: the pool
                    // (and any plan armed on it) is rebuilt when the
                    // configured count changes.
                    faulted.run(WARMUP);
                    let worker = workers - 1;
                    faulted.pool().inject_fault(FaultPlan {
                        worker,
                        dispatch: faulted.pool().dispatch_count() + offset,
                        kind,
                    });
                    let mut driver = ResilientDriver::new(2, 3);
                    let stats = driver
                        .run(&mut faulted, TOTAL - WARMUP)
                        .unwrap_or_else(|e| {
                            panic!("w={workers} {policy:?} +{offset} {kind:?}: {e}")
                        });
                    assert!(
                        stats.failures >= 1,
                        "w={workers} {policy:?} +{offset} {kind:?}: fault never fired"
                    );
                    // Worker 0 is the dispatching thread: `Die` on it
                    // degrades to a caught panic, nothing to respawn.
                    if kind == FaultKind::Die && worker != 0 {
                        assert_eq!(stats.workers_respawned, 1);
                        assert!(faulted.pool().dead_workers().is_empty());
                    }
                    assert!(
                        faulted.snapshot() == expected,
                        "w={workers} {policy:?} +{offset} {kind:?}: \
                         recovered state diverged from the crash-free run"
                    );
                    runs += 1;
                }
            }
        }
    }
    println!("recovery matrix: {runs} faulted runs, all bitwise-equal to the reference");
}

/// Checkpoint mid-run, restore into a (differently configured) fresh
/// simulation, continue: the resumed run must land on the interrupted
/// run's bytes, and a same-state round-trip must be byte-lossless.
fn round_trip(label: &str, make_a: &dyn Fn() -> Simulation, make_b: &dyn Fn() -> Simulation) {
    let (pre, post) = (3usize, 3usize);

    let mut interrupted = make_a();
    interrupted.run(pre);
    let checkpoint = interrupted.snapshot();
    interrupted.run(post);
    let expected = interrupted.snapshot();

    let mut resumed = make_b();
    resumed
        .restore(&checkpoint)
        .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    assert!(
        resumed.snapshot() == checkpoint,
        "{label}: round-trip is not byte-lossless"
    );
    resumed.run(post);
    assert!(
        resumed.snapshot() == expected,
        "{label}: resumed run diverged from the interrupted one"
    );
    println!("snapshot round-trip ({label}): lossless, resume bitwise-equal");
}

/// End-to-end check of the env-driven fault path: the plan parsed from
/// `MPIC_FAULT_*` must fire through pool-construction arming and be
/// recovered from, bitwise.
fn env_fault_gate(workers: usize) {
    let plan = FaultPlan::from_env()
        .expect("--env-fault requires MPIC_FAULT_WORKER (and friends) to be set");
    assert!(
        plan.worker < workers,
        "MPIC_FAULT_WORKER={} targets no worker of a {}-wide pool",
        plan.worker,
        workers
    );

    // The reference keeps the construction pool (default 1 worker), so
    // disarming that one pool is enough to run crash-free.
    let mut reference = workloads::uniform_plasma_sim(
        UNIFORM_CELLS,
        PPC,
        ShapeOrder::Cic,
        KernelConfig::FullOpt,
        SEED,
    );
    reference.pool().inject_fault(never_fires());
    reference.run(TOTAL);
    let expected = reference.snapshot();

    // The faulted run retargets the pool: the rebuild at the top of the
    // first step re-arms from the (still set) env vars, with the
    // dispatch counter starting at zero — so MPIC_FAULT_DISPATCH counts
    // dispatches of the actual driven run.
    let mut faulted = workloads::uniform_plasma_sim(
        UNIFORM_CELLS,
        PPC,
        ShapeOrder::Cic,
        KernelConfig::FullOpt,
        SEED,
    );
    faulted.cfg.num_workers = workers;
    let mut driver = ResilientDriver::new(2, 3);
    let stats = driver
        .run(&mut faulted, TOTAL)
        .unwrap_or_else(|e| panic!("env-fault run failed terminally: {e}"));
    assert!(
        stats.failures >= 1,
        "the env-armed fault never fired (dispatch index too high for {TOTAL} steps?)"
    );
    if plan.kind == FaultKind::Die && plan.worker != 0 {
        assert_eq!(stats.workers_respawned, 1);
        assert!(faulted.pool().dead_workers().is_empty());
    }
    assert!(
        faulted.snapshot() == expected,
        "env-fault recovery diverged from the crash-free reference"
    );
    println!(
        "env fault gate: {:?} on worker {} at dispatch {} recovered bitwise \
         ({} failure(s), {} respawn(s))",
        plan.kind, plan.worker, plan.dispatch, stats.failures, stats.workers_respawned
    );
}
