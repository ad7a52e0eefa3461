//! The unified execution layer: a persistent worker pool plus pluggable
//! tile schedulers.
//!
//! Before this module existed, every sharded phase of the step loop
//! (gather+push, both deposit kernel families, the counting sort, the
//! Z-slab field solve, guard exchange, window shift) paid a fresh
//! `std::thread::scope` spawn — roughly six spawn/join cycles per step —
//! and distributed work by static contiguous chunks only. The execution
//! layer lifts both decisions out of the call sites:
//!
//! * [`WorkerPool`] owns `workers - 1` long-lived threads that **park**
//!   between dispatches (the calling thread acts as worker 0), so a
//!   phase dispatch costs a mutex/condvar wake instead of thread spawns;
//! * [`SchedulerPolicy`] selects how items are claimed: [`Static`]
//!   reproduces the contiguous [`shard_bounds`] chunks, [`Stealing`]
//!   lets workers claim batches of K items from a shared atomic cursor
//!   (K auto-sized from items and workers, overridable via
//!   [`Exec::with_steal_chunk`]) — the right scheme for load-imbalanced
//!   LWFA tiles where one hot tile would otherwise serialise its whole
//!   static chunk.
//!
//! # Determinism
//!
//! Results are bit-identical across worker counts *and* scheduler
//! policies by construction, not by scheduling luck: per-item work is a
//! pure function of the item (each worker charges a private
//! [`Machine::fork_worker`] fork whose cache the item handler flushes at
//! the item boundary), per-item outputs land in per-item slots, and the
//! caller applies/merges them **in global item order** no matter which
//! worker executed what. The scheduler only decides *who* runs an item,
//! never *what the item computes* or *how results are combined*.
//!
//! [`Static`]: SchedulerPolicy::Static
//! [`Stealing`]: SchedulerPolicy::Stealing

// The execution layer is one of the two places in the workspace allowed
// to use `unsafe` (the other is `partition.rs`): erasing the borrow
// lifetime of a dispatched closure (bounded by the pool's completion
// barrier) and handing out disjoint `&mut` slice elements through the
// checked [`Partition`] abstraction. Every unsafe item below carries a
// per-item `#[allow(unsafe_code)]` plus a SAFETY comment stating its
// invariant — `mpic-lint` (rules L1/L2/L4) enforces exactly that shape.

use std::any::Any;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};

use crate::counters::MachineCounters;
use crate::machine::Machine;
use crate::partition::Partition;
use crate::shard::shard_bounds;
use crate::sync::{Arc, AtomicUsize, Ordering, StdSync, SyncPrims};

/// Structured description of a dispatch that failed because a worker
/// panicked or died.
///
/// When a broadcast fails, the pool unwinds out of [`WorkerPool::broadcast`]
/// with an `ExecError` as the panic *payload* (via [`panic_any`]), so a
/// recovery layer that wraps the step loop in [`catch_unwind`] can
/// [`ExecError::from_payload`] the cause and distinguish an execution-layer
/// failure (recoverable: restore a checkpoint and retry) from an arbitrary
/// logic bug (not ours to swallow — re-raise it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Worker id that failed (0 is the dispatching thread).
    pub worker: usize,
    /// 1-based index of the failing dispatch on this pool.
    pub dispatch: u64,
    /// Human-readable cause.
    pub detail: &'static str,
}

impl ExecError {
    /// Downcasts a caught panic payload to the execution error it
    /// carries, if the unwind originated in the execution layer.
    pub fn from_payload(payload: &(dyn Any + Send)) -> Option<&ExecError> {
        payload.downcast_ref::<ExecError>()
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} failed at dispatch {}: {}",
            self.worker, self.dispatch, self.detail
        )
    }
}

impl std::error::Error for ExecError {}

/// What an injected fault does to the targeted worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultKind {
    /// The worker panics at the start of its share of the dispatch; its
    /// thread survives (the pool catches the unwind per job).
    #[default]
    Panic,
    /// The worker's thread exits after bookkeeping a dying gasp — the
    /// pool sees a finished thread and refuses further dispatches until
    /// [`WorkerPool::respawn_dead`] repairs it. Worker 0 is the
    /// dispatching thread and cannot be killed; `Die` degrades to
    /// `Panic` there.
    Die,
}

/// A one-shot fault to inject: `worker` fails at the pool's
/// `dispatch`-th broadcast (1-based, see [`WorkerPool::dispatch_count`]).
///
/// Armed either programmatically ([`WorkerPool::inject_fault`] — the test
/// hook) or from the environment at pool construction
/// ([`FaultPlan::from_env`] — the CI fault matrix). The plan is consumed
/// when it fires, so a retried dispatch after recovery runs clean; note
/// that env-armed plans re-arm on every pool construction while the
/// variables remain set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Worker id to fail (0 = the dispatching thread).
    pub worker: usize,
    /// 1-based pool dispatch index at which to fire.
    pub dispatch: u64,
    /// Panic the job or kill the thread.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// Reads `MPIC_FAULT_WORKER` (required), `MPIC_FAULT_DISPATCH`
    /// (default 1) and `MPIC_FAULT_KIND` (`panic` | `die`, default
    /// `panic`) from the environment.
    pub fn from_env() -> Option<Self> {
        let worker = std::env::var("MPIC_FAULT_WORKER").ok()?.parse().ok()?;
        let dispatch = std::env::var("MPIC_FAULT_DISPATCH")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        let kind = match std::env::var("MPIC_FAULT_KIND").as_deref() {
            Ok("die") => FaultKind::Die,
            _ => FaultKind::Panic,
        };
        Some(Self {
            worker,
            dispatch,
            kind,
        })
    }
}

/// Minimum items (keys, SoA slots, ...) per potential worker before a
/// sharded phase is worth threading at all: below this the dispatch wake
/// costs more than the work, so callers fall back to the 1-worker inline
/// path. One shared constant — used by the counting sort, the attribute
/// permutation and the guard exchange — so no two phases can ever
/// disagree about when threads are worth waking.
pub const INLINE_ITEM_THRESHOLD: usize = 4096;

/// How a dispatch distributes items over pool workers.
///
/// Either policy produces bit-identical results (see the module docs);
/// the choice is purely a host-performance knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Contiguous [`shard_bounds`] chunks, one per worker — minimal
    /// claim overhead, best for uniform per-item cost.
    #[default]
    Static,
    /// Workers claim batches of items from a shared atomic cursor —
    /// work-stealing-style load balancing for skewed per-item cost
    /// (e.g. LWFA particle tiles: mostly empty, a few hot). The batch
    /// size is auto-derived from items and workers; callers can pin it
    /// with [`Exec::with_steal_chunk`].
    Stealing,
}

impl SchedulerPolicy {
    /// Parses a CLI-style name (`static` / `stealing`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "static" => Some(Self::Static),
            "stealing" => Some(Self::Stealing),
            _ => None,
        }
    }

    /// Stable lowercase label (CLI, JSON records).
    pub fn label(self) -> &'static str {
        match self {
            Self::Static => "static",
            Self::Stealing => "stealing",
        }
    }
}

/// A dispatched job: a borrowed `Fn(worker_id)` with its lifetime erased.
/// [`WorkerPool::broadcast`] guarantees (even under unwinding) that no
/// worker still holds the pointer when the dispatch returns, which is
/// what makes the erasure sound.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared execution is the point) and the
// pool's completion barrier bounds its use to the broadcast call.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

/// State shared between the dispatching thread and the parked workers,
/// generic over the [`SyncPrims`] implementation (real `std` primitives
/// in production, instrumented shims under the model checker).
struct SharedG<S: SyncPrims> {
    state: S::Lock<State>,
    /// Workers park here between jobs.
    work_cv: S::Signal,
    /// The dispatcher parks here until `active` drains to zero.
    done_cv: S::Signal,
}

#[derive(Default)]
struct State {
    /// Incremented once per dispatch; workers detect new work by epoch.
    epoch: u64,
    job: Option<Job>,
    /// Background workers still executing the current epoch.
    active: usize,
    shutdown: bool,
    /// First panic payload captured from a background worker.
    panic: Option<Box<dyn Any + Send>>,
    /// Total broadcasts on this pool (1-based id of the latest), counted
    /// on the inline path too — the coordinate system for [`FaultPlan`].
    dispatch: u64,
    /// Pending one-shot fault, consumed when it fires.
    fault: Option<FaultPlan>,
}

impl State {
    /// Takes the pending fault iff it targets `worker` at the current
    /// dispatch. One-shot: a fired plan does not re-trigger on retry.
    fn take_fault_for(&mut self, worker: usize) -> Option<FaultPlan> {
        match self.fault {
            Some(p) if p.worker == worker && p.dispatch == self.dispatch => self.fault.take(),
            _ => None,
        }
    }
}

impl<S: SyncPrims> SharedG<S> {
    /// Locks the protocol state. (Poison recovery — a *job* panicking on
    /// another thread must not wedge the pool's own critical sections —
    /// lives in [`StdSync::lock`].)
    fn lock(&self) -> S::Guard<'_, State> {
        S::lock(&self.state)
    }
}

/// A persistent pool of `workers - 1` parked threads plus the calling
/// thread (worker 0), generic over the [`SyncPrims`] facade.
///
/// The pool is created once (e.g. owned by a `Simulation` for its whole
/// lifetime) and reused by every phase of every step; between dispatches
/// the threads park on a [`SyncPrims::Signal`], so an idle pool consumes
/// no CPU. A pool of size 1 owns no threads at all and dispatches
/// inline — the sequential configuration has zero synchronisation
/// overhead.
///
/// Production code uses the [`WorkerPool`] alias (`PoolCore<StdSync>`,
/// monomorphised onto raw `std` primitives); the `mpic-check` model
/// checker instantiates the *same* protocol over its instrumented shim
/// scheduler.
pub struct PoolCore<S: SyncPrims = StdSync> {
    shared: Arc<SharedG<S>>,
    threads: Vec<S::Thread>,
    workers: usize,
}

/// The production pool: [`PoolCore`] monomorphised over [`StdSync`].
pub type WorkerPool = PoolCore<StdSync>;

impl<S: SyncPrims> std::fmt::Debug for PoolCore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl<S: SyncPrims> PoolCore<S> {
    /// Spawns a pool of `workers` (clamped to at least 1). The calling
    /// thread participates as worker 0, so only `workers - 1` threads
    /// are created.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(SharedG {
            state: S::lock_new(State {
                fault: FaultPlan::from_env(),
                ..State::default()
            }),
            work_cv: S::signal_new(),
            done_cv: S::signal_new(),
        });
        let threads = (1..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                S::spawn(format!("mpic-worker-{w}"), move || {
                    worker_loop::<S>(&shared, w, 0)
                })
            })
            .collect();
        Self {
            shared,
            threads,
            workers,
        }
    }

    /// A single-worker pool: no threads, every dispatch runs inline on
    /// the calling thread. Used by the sequential convenience wrappers.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Number of workers (including the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Arms a one-shot fault (the programmatic test hook; the CI fault
    /// matrix uses [`FaultPlan::from_env`] instead). Replaces any
    /// pending plan.
    pub fn inject_fault(&self, plan: FaultPlan) {
        self.shared.lock().fault = Some(plan);
    }

    /// The pending (not yet fired) fault plan, if any.
    pub fn pending_fault(&self) -> Option<FaultPlan> {
        self.shared.lock().fault
    }

    /// Total broadcasts dispatched on this pool so far. The next
    /// broadcast has id `dispatch_count() + 1` — the coordinate a
    /// [`FaultPlan`] targets.
    pub fn dispatch_count(&self) -> u64 {
        self.shared.lock().dispatch
    }

    /// Ids of workers whose threads have terminated (a [`FaultKind::Die`]
    /// injection, or a real thread loss). A pool with dead workers
    /// refuses dispatches with a structured [`ExecError`] until
    /// [`WorkerPool::respawn_dead`] repairs it — silently running a
    /// dispatch short-handed would drop that worker's static share.
    pub fn dead_workers(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| S::is_finished(t))
            .map(|(i, _)| i + 1)
            .collect()
    }

    /// Snapshot of the protocol bookkeeping — `(epoch, dispatch, active,
    /// job_in_flight)` — for the model checker's quiescence invariants
    /// (acks collected exactly once, respawned pool indistinguishable
    /// from fresh). Not part of the stable API.
    #[doc(hidden)]
    pub fn protocol_state(&self) -> (u64, u64, usize, bool) {
        let st = self.shared.lock();
        (st.epoch, st.dispatch, st.active, st.job.is_some())
    }

    /// Replaces every terminated worker thread with a freshly spawned
    /// one parked on the same shared state; returns how many were
    /// respawned. Safe to call at any quiescent point (no dispatch in
    /// flight); the recovery driver calls it after catching an
    /// [`ExecError`].
    pub fn respawn_dead(&mut self) -> usize {
        // `&mut self` guarantees quiescence, so the epoch read here is
        // the one the replacement thread must treat as already-seen:
        // everything earlier was handled (or abandoned with its
        // bookkeeping done) by the thread it replaces.
        let epoch = self.shared.lock().epoch;
        let mut respawned = 0;
        for (i, slot) in self.threads.iter_mut().enumerate() {
            if !S::is_finished(slot) {
                continue;
            }
            let w = i + 1;
            let shared = Arc::clone(&self.shared);
            let fresh = S::spawn(format!("mpic-worker-{w}"), move || {
                worker_loop::<S>(&shared, w, epoch)
            });
            let dead = std::mem::replace(slot, fresh);
            S::join(dead);
            respawned += 1;
        }
        respawned
    }

    /// Runs `f(worker_id)` once on every worker (ids `0..workers()`,
    /// worker 0 being the calling thread) and returns when all have
    /// finished. Panics from any worker are propagated to the caller
    /// after the barrier.
    ///
    /// This is the one primitive every scheduler builds on; phases
    /// normally use [`Exec::for_each`] / [`Exec::run_counted`] instead.
    ///
    /// # Panics
    ///
    /// Panics if a dispatch is already in flight on this pool —
    /// re-entrant use (dispatching from inside a dispatched closure) or
    /// concurrent use from two threads. One job at a time is the
    /// invariant that keeps the lifetime-erased closure pointer alive
    /// exactly as long as workers can see it, so overlap is refused
    /// outright (checked under the state lock, never a data race).
    // Lifetime erasure of the dispatched closure is the pool's one
    // irreducible unsafe operation; the invariant is stated at the site.
    #[allow(unsafe_code)]
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.threads.is_empty() {
            let (dispatch, fault) = {
                let mut st = self.shared.lock();
                st.dispatch += 1;
                (st.dispatch, st.take_fault_for(0))
            };
            if fault.is_some() {
                panic_any(ExecError {
                    worker: 0,
                    dispatch,
                    detail: "injected worker fault",
                });
            }
            f(0);
            return;
        }
        // A pool with dead threads must not dispatch: the dead workers'
        // static shares would silently never run. Refuse with the same
        // structured payload an in-flight failure produces, so the
        // recovery layer repairs ([`Self::respawn_dead`]) and retries.
        // (The refused attempt does not consume a dispatch id.)
        if let Some(&w) = self.dead_workers().first() {
            let dispatch = self.shared.lock().dispatch + 1;
            panic_any(ExecError {
                worker: w,
                dispatch,
                detail: "worker thread dead; pool needs respawn_dead()",
            });
        }
        // SAFETY: erasing the borrow lifetime is sound because this
        // function does not return (or unwind) until every worker has
        // finished with the pointer — the completion barrier below runs
        // even when worker 0's share unwinds — and the in-flight check
        // rejects any second job that could outlive its own borrow.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let (dispatch, fault0) = {
            let mut st = self.shared.lock();
            assert!(
                st.active == 0 && st.job.is_none(),
                "broadcast while a dispatch is in flight (re-entrant or \
                 concurrent WorkerPool use)"
            );
            st.dispatch += 1;
            let fault0 = st.take_fault_for(0);
            st.job = Some(Job(f_static as *const _));
            st.epoch += 1;
            st.active = self.threads.len();
            st.panic = None;
            S::wake_all(&self.shared.work_cv);
            (st.dispatch, fault0)
        };
        // Worker 0's share runs under catch_unwind so the completion
        // barrier below is unconditional: the borrowed closure can never
        // dangle, and the panic (ours or an injected fault) is re-raised
        // only after every background worker has quiesced.
        let local = catch_unwind(AssertUnwindSafe(|| {
            if fault0.is_some() {
                panic_any(ExecError {
                    worker: 0,
                    dispatch,
                    detail: "injected worker fault",
                });
            }
            f(0);
        }));
        let background = {
            let mut st = self.shared.lock();
            while st.active > 0 {
                st = S::wait(&self.shared.done_cv, &self.shared.state, st);
            }
            st.job = None;
            st.panic.take()
        };
        if let Some(p) = background {
            resume_unwind(p);
        }
        if let Err(p) = local {
            resume_unwind(p);
        }
    }
}

impl WorkerPool {
    /// Binds this pool to a scheduling policy, yielding the lightweight
    /// [`Exec`] handle the sharded phases take.
    pub fn exec(&self, policy: SchedulerPolicy) -> Exec<'_> {
        Exec::new(self, policy)
    }
}

impl<S: SyncPrims> Drop for PoolCore<S> {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            S::wake_all(&self.shared.work_cv);
        }
        for t in self.threads.drain(..) {
            S::join(t);
        }
    }
}

// Dereferences the lifetime-erased job pointer published by `broadcast`;
// the SAFETY argument lives at the single deref site below.
#[allow(unsafe_code)]
fn worker_loop<S: SyncPrims>(shared: &SharedG<S>, id: usize, start_epoch: u64) {
    // `start_epoch` is captured by the spawner *before* the thread
    // starts (0 at pool construction, the current quiescent epoch on
    // respawn): reading it here instead would race with an early
    // broadcast — the worker could adopt the new epoch as already-seen
    // and strand the dispatch barrier.
    let mut seen = start_epoch;
    loop {
        let (job, dispatch, fault) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    let fault = st.take_fault_for(id);
                    break (
                        st.job.expect("epoch advanced without a job"),
                        st.dispatch,
                        fault,
                    );
                }
                st = S::wait(&shared.work_cv, &shared.state, st);
            }
        };
        if let Some(plan) = fault {
            if plan.kind == FaultKind::Die {
                // Simulated thread loss: bookkeep a dying gasp (so the
                // dispatcher's barrier drains and the failure is
                // attributed) and exit the loop — the pool now reports
                // this worker in `dead_workers()`.
                let mut st = shared.lock();
                if st.panic.is_none() {
                    st.panic = Some(Box::new(ExecError {
                        worker: id,
                        dispatch,
                        detail: "injected worker death",
                    }));
                }
                st.active -= 1;
                if st.active == 0 {
                    S::wake_all(&shared.done_cv);
                }
                return;
            }
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            if fault.is_some() {
                panic_any(ExecError {
                    worker: id,
                    dispatch,
                    detail: "injected worker fault",
                });
            }
            // SAFETY: the dispatcher keeps the closure alive until
            // `active` drains to zero, which happens strictly after
            // this call.
            unsafe { (&*job.0)(id) }
        }));
        let mut st = shared.lock();
        if let Err(p) = result {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.active -= 1;
        if st.active == 0 {
            S::wake_all(&shared.done_cv);
        }
    }
}

/// Target number of cursor claims per worker when the stealing chunk
/// size is auto-derived: large enough to amortise cursor contention,
/// small enough that a straggler chunk cannot serialise the tail.
const STEAL_CLAIMS_PER_WORKER: usize = 4;

/// Items claimed per [`SchedulerPolicy::Stealing`] cursor fetch:
/// `override_k` when the caller pinned one, else auto-sized so each
/// worker makes about [`STEAL_CLAIMS_PER_WORKER`] claims. Always at
/// least 1; small item counts (tiles) degrade gracefully to the
/// one-at-a-time claims of the original scheduler.
fn steal_chunk(len: usize, workers: usize, override_k: Option<usize>) -> usize {
    match override_k {
        Some(k) => k.max(1),
        None => (len / (workers * STEAL_CLAIMS_PER_WORKER).max(1)).max(1),
    }
}

/// A pool bound to a scheduling policy: the handle every sharded phase
/// receives. `Copy`, so it threads through call stacks like a plain
/// configuration value.
#[derive(Clone, Copy)]
pub struct Exec<'a> {
    pool: &'a WorkerPool,
    policy: SchedulerPolicy,
    /// Explicit stealing chunk size; `None` auto-sizes from items and
    /// workers (see [`steal_chunk`]).
    steal_chunk: Option<usize>,
}

impl<'a> Exec<'a> {
    /// Builds a handle (equivalent to [`WorkerPool::exec`]).
    pub fn new(pool: &'a WorkerPool, policy: SchedulerPolicy) -> Self {
        Self {
            pool,
            policy,
            steal_chunk: None,
        }
    }

    /// Overrides the stealing scheduler's claim-batch size (clamped to at
    /// least 1). No effect under [`SchedulerPolicy::Static`]; results are
    /// bit-identical for any value — the chunk size only changes which
    /// worker runs which items, never what an item computes or how
    /// results merge.
    pub fn with_steal_chunk(mut self, k: usize) -> Self {
        self.steal_chunk = Some(k.max(1));
        self
    }

    /// The underlying pool.
    pub fn pool(&self) -> &'a WorkerPool {
        self.pool
    }

    /// The scheduling policy in force.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// Worker count of the underlying pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Runs `f(index, &mut item)` once per item, distributed over the
    /// pool per the scheduler policy. Items must be independent: `f`
    /// may not assume anything about which worker runs an item or in
    /// what order items execute. With a 1-worker pool (or a single
    /// item) this runs inline with zero synchronisation.
    // The per-item `&mut` handout goes through the checked `Partition`
    // grants; each unsafe site states why its claims are disjoint.
    #[allow(unsafe_code)]
    pub fn for_each<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let len = items.len();
        if self.workers() == 1 && len > 0 {
            // A single-worker pool has no threads, so `broadcast`
            // degenerates to an inline call — but it still counts the
            // dispatch and honors an armed [`FaultPlan`], keeping fault
            // injection and recovery uniform across worker counts.
            let slots = Partition::new(items);
            self.pool.broadcast(&|_w| {
                for i in 0..len {
                    // SAFETY: the single inline worker grants each
                    // index exactly once.
                    f(i, unsafe { slots.grant(i) });
                }
            });
            return;
        }
        let workers = self.workers().min(len);
        if workers <= 1 {
            // Multi-worker pool, but too few items to shard: run inline
            // without waking the pool.
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let slots = Partition::new(items);
        match self.policy {
            SchedulerPolicy::Static => {
                let bounds = shard_bounds(len, workers);
                self.pool.broadcast(&|w| {
                    if let Some(&(lo, hi)) = bounds.get(w) {
                        for i in lo..hi {
                            // SAFETY: static chunks are disjoint, so
                            // each index is granted exactly once.
                            f(i, unsafe { slots.grant(i) });
                        }
                    }
                });
            }
            SchedulerPolicy::Stealing => {
                // Chunked claims: one fetch_add hands out a batch of K
                // consecutive indices, cutting cursor contention K-fold
                // while the batch bound keeps the load balancing.
                let k = steal_chunk(len, workers, self.steal_chunk);
                let cursor = AtomicUsize::new(0);
                self.pool.broadcast(&|_w| loop {
                    // Relaxed ordering suffices: the cursor is a pure
                    // claim ticket (its value publishes no other memory),
                    // and the dispatch barrier orders item writes.
                    let lo = cursor.fetch_add(k, Ordering::Relaxed);
                    if lo >= len {
                        break;
                    }
                    for i in lo..(lo + k).min(len) {
                        // SAFETY: fetch_add hands each chunk (and thus
                        // each index) to exactly one worker, so each
                        // index is granted exactly once.
                        f(i, unsafe { slots.grant(i) });
                    }
                });
            }
        }
    }

    /// Runs `f` once per item on a forked worker [`Machine`] and returns
    /// the per-item [`MachineCounters`] deltas **indexed by item** — the
    /// cost-charged variant of [`Exec::for_each`] used by the emulated
    /// pipeline phases.
    ///
    /// Each participating worker forks `main` once per dispatch
    /// ([`Machine::fork_worker`]: private counters, flushed cache) and
    /// drains the fork after every item, so each delta is a pure
    /// function of the item provided `f` flushes the worker cache at the
    /// item boundary (both pipeline phases do, via
    /// `wm.mem().flush_cache()`). Because deltas land in per-item slots,
    /// the caller's sequential absorb loop sums them in item order
    /// regardless of worker count or policy — cycle totals and any
    /// caller-side fixed-order value reduction stay bit-identical.
    ///
    /// `f` receives `(worker_machine, item_index, item, worker
    /// scratch)`; `scratch[w]` is private to worker `w` for the whole
    /// dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` holds fewer entries than the number of
    /// workers that may participate (`min(workers(), items.len())`), or
    /// propagates the panic of any item handler.
    // Items, per-item output slots and per-worker scratch are all handed
    // out through checked `Partition` grants; each unsafe site states
    // why its claim is unique.
    #[allow(unsafe_code)]
    pub fn run_counted<T, S, F>(
        &self,
        main: &Machine,
        items: &mut [T],
        scratch: &mut [S],
        f: F,
    ) -> Vec<MachineCounters>
    where
        T: Send,
        S: Send,
        F: Fn(&mut Machine, usize, &mut T, &mut S) + Sync,
    {
        let len = items.len();
        if len == 0 {
            return Vec::new();
        }
        let workers = self.workers().min(len);
        assert!(
            scratch.len() >= workers,
            "scratch ({}) must cover every participating worker ({workers})",
            scratch.len(),
        );
        let mut out = vec![MachineCounters::default(); len];
        let items_sl = Partition::new(items);
        let out_sl = Partition::new(&mut out);
        let scratch_sl = Partition::new(scratch);
        let run_item = |wm: &mut Machine, scr: &mut S, i: usize| {
            // SAFETY: each item index is claimed by exactly one worker
            // (scheduler claim), so the item grant and the matching
            // output-slot grant are both unique.
            f(wm, i, unsafe { items_sl.grant(i) }, scr);
            // SAFETY: as above — output slot `i` pairs with item `i`.
            *unsafe { out_sl.grant(i) } = wm.drain_counters();
        };
        if workers == 1 {
            // Inline, but still on a fork: the per-item deltas must be
            // the same ones a multi-worker run produces.
            let run_all = |_w: usize| {
                let mut wm = main.fork_worker();
                // SAFETY: single worker, single scratch slot, granted
                // once.
                let scr = unsafe { scratch_sl.grant(0) };
                for i in 0..len {
                    run_item(&mut wm, scr, i);
                }
            };
            if self.workers() == 1 {
                // Single-worker pool: go through `broadcast` so the
                // dispatch is counted and an armed [`FaultPlan`] fires
                // here too (no threads — this is an inline call).
                self.pool.broadcast(&run_all);
            } else {
                // Multi-worker pool with a single item: run inline
                // without waking the pool.
                run_all(0);
            }
            return out;
        }
        match self.policy {
            SchedulerPolicy::Static => {
                let bounds = shard_bounds(len, workers);
                self.pool.broadcast(&|w| {
                    let Some(&(lo, hi)) = bounds.get(w) else {
                        return;
                    };
                    let mut wm = main.fork_worker();
                    // SAFETY: one scratch slot per worker id, granted
                    // once per dispatch by that worker alone.
                    let scr = unsafe { scratch_sl.grant(w) };
                    for i in lo..hi {
                        run_item(&mut wm, scr, i);
                    }
                });
            }
            SchedulerPolicy::Stealing => {
                let k = steal_chunk(len, workers, self.steal_chunk);
                let cursor = AtomicUsize::new(0);
                self.pool.broadcast(&|w| {
                    if w >= workers {
                        return;
                    }
                    // Fork lazily: a worker that never claims an item
                    // (all stolen before it woke) skips the fork cost.
                    let mut wm: Option<Machine> = None;
                    // SAFETY: one scratch slot per worker id, granted
                    // once per dispatch by that worker alone.
                    let scr = unsafe { scratch_sl.grant(w) };
                    loop {
                        // Relaxed ordering suffices: pure claim ticket,
                        // same argument as the `for_each` cursor above.
                        let lo = cursor.fetch_add(k, Ordering::Relaxed);
                        if lo >= len {
                            break;
                        }
                        let wm = wm.get_or_insert_with(|| main.fork_worker());
                        for i in lo..(lo + k).min(len) {
                            run_item(wm, scr, i);
                        }
                    }
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MachineConfig;
    use crate::counters::Phase;
    use crate::sync::AtomicU64;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// Bumps a per-test hit counter.
    fn bump(c: &AtomicU64) {
        // Relaxed ordering: plain hit counters — the tests only read
        // them after the dispatch barrier, which orders the increments.
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a per-test hit counter (only after the dispatch barrier).
    fn total(c: &AtomicU64) -> u64 {
        // Relaxed ordering: see `bump` — reads happen after the barrier.
        c.load(Ordering::Relaxed)
    }

    fn charge_item(wm: &mut Machine, t: usize, item: &mut f64, scratch: &mut Vec<u64>) {
        wm.mem().flush_cache();
        scratch.push(t as u64);
        // Cost depends only on the item: deterministic per tile.
        wm.in_phase(Phase::Compute, |k| k.s_ops(t + 1));
        *item = t as f64;
    }

    #[test]
    fn counters_indexed_by_item_for_any_worker_count_and_policy() {
        let main = Machine::new(MachineConfig::lx2());
        let mut totals: Vec<Vec<f64>> = Vec::new();
        for &w in &[1usize, 3, 5, 11] {
            for policy in [SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
                let pool = WorkerPool::new(w);
                let mut items = vec![0.0; 11];
                let mut scratch = vec![Vec::new(); w];
                let counters =
                    pool.exec(policy)
                        .run_counted(&main, &mut items, &mut scratch, charge_item);
                assert_eq!(counters.len(), 11);
                assert!(items.iter().enumerate().all(|(t, &v)| v == t as f64));
                totals.push(
                    counters
                        .iter()
                        .map(|c| c.perf.cycles(Phase::Compute))
                        .collect(),
                );
            }
        }
        for later in &totals[1..] {
            assert_eq!(
                &totals[0], later,
                "per-item deltas must not depend on sharding or policy"
            );
        }
    }

    #[test]
    fn empty_items_yield_no_counters() {
        let main = Machine::new(MachineConfig::lx2());
        let pool = WorkerPool::new(4);
        let mut items: Vec<f64> = Vec::new();
        let mut scratch = vec![Vec::new(); 4];
        let counters = pool.exec(SchedulerPolicy::Static).run_counted(
            &main,
            &mut items,
            &mut scratch,
            charge_item,
        );
        assert!(counters.is_empty());
    }

    #[test]
    fn workers_exceeding_items_are_clamped() {
        let main = Machine::new(MachineConfig::lx2());
        let pool = WorkerPool::new(8);
        let mut items = vec![0.0; 2];
        let mut scratch = vec![Vec::new(); 8];
        let counters = pool.exec(SchedulerPolicy::Stealing).run_counted(
            &main,
            &mut items,
            &mut scratch,
            charge_item,
        );
        assert_eq!(counters.len(), 2);
        assert_eq!(items, vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "must cover every participating worker")]
    fn undersized_scratch_is_rejected() {
        let main = Machine::new(MachineConfig::lx2());
        let pool = WorkerPool::new(4);
        let mut items = vec![0.0; 16];
        let mut scratch = vec![Vec::new(); 2];
        let _ = pool.exec(SchedulerPolicy::Static).run_counted(
            &main,
            &mut items,
            &mut scratch,
            charge_item,
        );
    }

    #[test]
    fn broadcast_runs_every_worker_exactly_once() {
        let pool = WorkerPool::new(5);
        let seen = Mutex::new(Vec::new());
        pool.broadcast(&|w| seen.lock().unwrap().push(w));
        let mut ids = seen.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        let pool = WorkerPool::new(3);
        let hits = AtomicU64::new(0);
        for _ in 0..100 {
            pool.broadcast(&|_| {
                bump(&hits);
            });
        }
        assert_eq!(total(&hits), 300);
    }

    #[test]
    #[should_panic(expected = "deliberate worker panic")]
    fn worker_panic_propagates_to_dispatcher() {
        let pool = WorkerPool::new(4);
        pool.broadcast(&|w| {
            if w == 2 {
                panic!("deliberate worker panic");
            }
        });
    }

    #[test]
    #[should_panic(expected = "dispatch is in flight")]
    fn reentrant_broadcast_is_refused() {
        // Dispatching from inside a dispatched closure must be refused
        // loudly (the lifetime-erasure invariant is one job at a time),
        // not corrupt the pool state.
        let pool = WorkerPool::new(2);
        pool.broadcast(&|w| {
            if w == 0 {
                pool.broadcast(&|_| {});
            }
        });
    }

    #[test]
    fn pool_survives_a_propagated_panic() {
        let pool = WorkerPool::new(3);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool must still dispatch cleanly afterwards.
        let hits = AtomicU64::new(0);
        pool.broadcast(&|_| {
            bump(&hits);
        });
        assert_eq!(total(&hits), 3);
    }

    #[test]
    fn for_each_visits_every_item_exactly_once_under_both_policies() {
        for policy in [SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
            for workers in [1usize, 2, 4, 7] {
                let pool = WorkerPool::new(workers);
                let mut items: Vec<usize> = vec![0; 97];
                pool.exec(policy).for_each(&mut items, |i, item| {
                    *item += i + 1;
                });
                for (i, &v) in items.iter().enumerate() {
                    assert_eq!(v, i + 1, "policy {policy:?} workers {workers}");
                }
            }
        }
    }

    #[test]
    fn stealing_claims_partition_the_index_space() {
        let pool = WorkerPool::new(4);
        let claimed = Mutex::new(HashSet::new());
        pool.exec(SchedulerPolicy::Stealing)
            .for_each(&mut [(); 64], |i, _| {
                assert!(claimed.lock().unwrap().insert(i), "index {i} claimed twice");
            });
        assert_eq!(claimed.into_inner().unwrap().len(), 64);
    }

    #[test]
    fn steal_chunk_auto_sizing_and_override() {
        // Auto: each worker should get about STEAL_CLAIMS_PER_WORKER
        // claims; tiny item counts degrade to single-item claims.
        assert_eq!(steal_chunk(8, 4, None), 1);
        assert_eq!(steal_chunk(64, 4, None), 4);
        assert_eq!(steal_chunk(4096, 8, None), 128);
        assert_eq!(steal_chunk(0, 4, None), 1);
        // Override wins verbatim (clamped to >= 1).
        assert_eq!(steal_chunk(64, 4, Some(7)), 7);
        assert_eq!(steal_chunk(64, 4, Some(0)), 1);
    }

    #[test]
    fn chunked_stealing_visits_every_item_once_at_ragged_boundaries() {
        // Chunk sizes that do not divide the item count exercise the
        // trailing partial chunk; every index must still be claimed by
        // exactly one worker.
        for k in [1usize, 3, 5, 16, 97, 1000] {
            let pool = WorkerPool::new(4);
            let claimed = Mutex::new(HashSet::new());
            pool.exec(SchedulerPolicy::Stealing)
                .with_steal_chunk(k)
                .for_each(&mut [(); 97], |i, _| {
                    assert!(
                        claimed.lock().unwrap().insert(i),
                        "chunk {k}: index {i} claimed twice"
                    );
                });
            assert_eq!(claimed.into_inner().unwrap().len(), 97, "chunk {k}");
        }
    }

    #[test]
    fn chunked_stealing_run_counted_is_bit_identical_to_static() {
        // The chunk size changes only who runs an item; per-item counter
        // deltas and item outputs must match the static schedule exactly,
        // including when an item's chunk boundary splits a worker's
        // natural share.
        let main = Machine::new(MachineConfig::lx2());
        let reference = {
            let pool = WorkerPool::new(1);
            let mut items = vec![0.0; 23];
            let mut scratch = vec![Vec::new(); 1];
            pool.exec(SchedulerPolicy::Static).run_counted(
                &main,
                &mut items,
                &mut scratch,
                charge_item,
            )
        };
        for workers in [2usize, 4, 7] {
            for k in [1usize, 2, 5, 23, 100] {
                let pool = WorkerPool::new(workers);
                let mut items = vec![0.0; 23];
                let mut scratch = vec![Vec::new(); workers];
                let counters = pool
                    .exec(SchedulerPolicy::Stealing)
                    .with_steal_chunk(k)
                    .run_counted(&main, &mut items, &mut scratch, charge_item);
                assert!(items.iter().enumerate().all(|(t, &v)| v == t as f64));
                for (i, (a, b)) in reference.iter().zip(&counters).enumerate() {
                    assert_eq!(
                        a.perf.cycles(Phase::Compute).to_bits(),
                        b.perf.cycles(Phase::Compute).to_bits(),
                        "workers {workers} chunk {k}: item {i} delta diverged"
                    );
                }
            }
        }
    }

    /// Runs `op` and returns the `ExecError` its unwind carried.
    fn expect_exec_error(op: impl FnOnce()) -> ExecError {
        let payload = catch_unwind(AssertUnwindSafe(op)).expect_err("operation should fail");
        ExecError::from_payload(payload.as_ref())
            .expect("unwind should carry a structured ExecError")
            .clone()
    }

    #[test]
    fn injected_panic_fault_carries_structured_error_and_pool_recovers() {
        for target in [0usize, 2] {
            let pool = WorkerPool::new(4);
            pool.broadcast(&|_| {}); // dispatch 1: clean
            pool.inject_fault(FaultPlan {
                worker: target,
                dispatch: pool.dispatch_count() + 1,
                kind: FaultKind::Panic,
            });
            let err = expect_exec_error(|| pool.broadcast(&|_| {}));
            assert_eq!(err.worker, target);
            assert_eq!(err.dispatch, 2);
            // One-shot: the plan is consumed and the pool is not
            // poisoned — the next dispatch runs clean on all workers.
            assert_eq!(pool.pending_fault(), None);
            assert!(pool.dead_workers().is_empty());
            let hits = AtomicU64::new(0);
            pool.broadcast(&|_| {
                bump(&hits);
            });
            assert_eq!(total(&hits), 4);
        }
    }

    #[test]
    fn fault_waits_for_its_dispatch_index() {
        let pool = WorkerPool::new(3);
        pool.inject_fault(FaultPlan {
            worker: 1,
            dispatch: 3,
            kind: FaultKind::Panic,
        });
        pool.broadcast(&|_| {});
        pool.broadcast(&|_| {});
        let err = expect_exec_error(|| pool.broadcast(&|_| {}));
        assert_eq!((err.worker, err.dispatch), (1, 3));
    }

    #[test]
    fn inline_pool_faults_are_structured_too() {
        let pool = WorkerPool::sequential();
        pool.inject_fault(FaultPlan {
            worker: 0,
            dispatch: 1,
            kind: FaultKind::Panic,
        });
        let err = expect_exec_error(|| pool.broadcast(&|_| {}));
        assert_eq!((err.worker, err.dispatch), (0, 1));
        // Recovered: inline dispatches resume.
        let hits = AtomicU64::new(0);
        pool.broadcast(&|_| {
            bump(&hits);
        });
        assert_eq!(total(&hits), 1);
    }

    #[test]
    fn dead_worker_is_reported_refused_and_respawned() {
        let mut pool = WorkerPool::new(4);
        pool.inject_fault(FaultPlan {
            worker: 3,
            dispatch: 1,
            kind: FaultKind::Die,
        });
        let err = expect_exec_error(|| pool.broadcast(&|_| {}));
        assert_eq!((err.worker, err.dispatch), (3, 1));
        // The thread is gone; further dispatches are refused with a
        // structured error instead of silently dropping its share.
        assert_eq!(pool.dead_workers(), vec![3]);
        let refused = expect_exec_error(|| pool.broadcast(&|_| {}));
        assert_eq!(refused.worker, 3);
        // Repair brings the pool back to full strength.
        assert_eq!(pool.respawn_dead(), 1);
        assert!(pool.dead_workers().is_empty());
        let hits = AtomicU64::new(0);
        pool.broadcast(&|_| {
            bump(&hits);
        });
        assert_eq!(total(&hits), 4);
    }

    #[test]
    fn pool_drops_cleanly_right_after_injected_faults() {
        // Drop hygiene: a pool dropped immediately after a caught fault
        // (panic or death, no repair in between) must join without
        // hanging or double-panicking.
        for kind in [FaultKind::Panic, FaultKind::Die] {
            let pool = WorkerPool::new(4);
            pool.inject_fault(FaultPlan {
                worker: 2,
                dispatch: 1,
                kind,
            });
            let _ = expect_exec_error(|| pool.broadcast(&|_| {}));
            drop(pool);
        }
    }

    #[test]
    fn non_exec_panics_are_not_misattributed() {
        // An ordinary job panic must NOT downcast to ExecError: the
        // recovery layer distinguishes execution-layer failures from
        // logic bugs by payload type.
        let pool = WorkerPool::new(3);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|w| {
                if w == 1 {
                    panic!("logic bug");
                }
            });
        }))
        .expect_err("panic should propagate");
        assert!(ExecError::from_payload(payload.as_ref()).is_none());
    }

    #[test]
    fn fault_plan_env_parsing() {
        // Exercised via the parser only (no process-global env mutation
        // in tests): absent worker -> no plan; defaults documented.
        assert_eq!(FaultPlan::from_env(), None);
        assert_eq!(FaultKind::default(), FaultKind::Panic);
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in [SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
            assert_eq!(SchedulerPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(SchedulerPolicy::parse("greedy"), None);
        assert_eq!(SchedulerPolicy::default(), SchedulerPolicy::Static);
    }

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = WorkerPool::sequential();
        assert_eq!(pool.workers(), 1);
        let main_thread = std::thread::current().id();
        pool.broadcast(&|w| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), main_thread);
        });
    }
}
