//! The unified execution layer: a persistent worker pool and the one
//! rule that hands out work on it. **The tile (particles) or the
//! component/slab (grid) is the unit of host parallelism, and this module
//! alone decides how items are claimed and whether threads are woken.**
//!
//! * [`WorkerPool`] owns `workers - 1` long-lived threads that **park**
//!   between dispatches (the calling thread acts as worker 0), so a
//!   phase dispatch costs a mutex/condvar wake instead of thread spawns.
//! * A dispatch ([`Exec::for_each`], [`Exec::for_each_scratch`],
//!   [`Exec::run_counted`]) splits its items before any thread wakes:
//!   worker `w` owns range `w` of [`shard_bounds`]`(len, workers)`, the
//!   contiguous chunk `w*chunk .. min((w+1)*chunk, len)` with `chunk =
//!   ceil(len / workers)`, and receives it as a `split_at_mut` share.
//!   Owners are fixed by arithmetic alone, not by which thread gets
//!   there first, and the shares are disjoint by type.
//! * A dispatch runs inline on the calling thread — same claim rule, no
//!   wake — when only one worker could claim (one item) or the caller
//!   declared its work ([`Exec::with_work`]) too small for a wake; the
//!   latter is not even counted as a pool dispatch. A 1-worker pool runs
//!   inline *through* [`WorkerPool::broadcast`], so dispatch counting and
//!   [`FaultPlan`]s are uniform across worker counts.
//!
//! # Determinism
//!
//! Results are bit-identical across worker counts by construction, not
//! by scheduling luck: per-item work is a pure function of the item,
//! per-item outputs land in per-item slots, and they are applied/merged
//! **in global item order** no matter which worker executed what. For
//! emulated cost, [`Exec::run_counted`] holds this contract itself: it
//! charges each item on a private [`Machine::fork_worker`] fork whose
//! cache it flushes before the item, and merges the per-item counters
//! into the main machine in item order. The claim rule only decides
//! *who* runs an item, never *what the item computes* or *how results
//! are combined*.

// The execution layer is the one place in the workspace allowed to use
// `unsafe`, for one operation: erasing the borrow lifetime of a
// dispatched closure, bounded by the pool's completion barrier. The
// `&mut` item shares need none: `Exec::each` splits the slice with
// `split_at_mut`, so the borrow checker proves them disjoint. Every
// unsafe item below carries a per-item `#[allow(unsafe_code)]` plus a
// SAFETY comment stating its invariant — `mpic-lint` (rules L1/L2/L4)
// enforces exactly that shape.

use std::any::Any;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};

use crate::counters::MachineCounters;
use crate::machine::Machine;
use crate::shard::shard_bounds;
use crate::sync::{Arc, Mutex, StdSync, SyncPrims};

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
/// Armed only through [`WorkerPool::inject_fault`]. The plan is consumed
/// when it fires, so a retried dispatch after recovery runs clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Worker id to fail (0 = the dispatching thread).
    pub worker: usize,
    /// 1-based pool dispatch index at which to fire.
    pub dispatch: u64,
    /// Panic the job or kill the thread.
    pub kind: FaultKind,
}

/// Caller-declared work units (guard cells, particles, ...) below which
/// a dispatch costs more to wake than to run: [`Exec::with_work`] sizes
/// are compared against it in the claim rule, nowhere else, so no two
/// phases can disagree about when threads are worth waking.
const INLINE_ITEM_THRESHOLD: usize = 4096;

/// The claim rule a dispatch runs under. It has one value: items go out
/// in static contiguous chunks (see [`Exec`]). The tag is kept so
/// [`WorkerPool::exec`] keeps the signature its callers already use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// One contiguous chunk per worker, claimed once.
    #[default]
    Static,
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
            state: S::lock_new(State::default()),
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
    /// the calling thread.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Number of workers (including the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Arms a one-shot fault, the only way to arm one. Replaces any
    /// pending plan.
    ///
    /// # Panics
    ///
    /// On a plan that could never fire, naming the field: a `worker` that
    /// is not in this pool, or a `dispatch` that is not after
    /// [`WorkerPool::dispatch_count`].
    pub fn inject_fault(&self, plan: FaultPlan) {
        let mut st = self.shared.lock();
        assert!(
            plan.worker < self.workers,
            "FaultPlan::worker {} is not a worker of a {}-worker pool",
            plan.worker,
            self.workers
        );
        assert!(
            plan.dispatch > st.dispatch,
            "FaultPlan::dispatch {} is not after dispatch_count() {}",
            plan.dispatch,
            st.dispatch
        );
        st.fault = Some(plan);
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
    /// The lightweight [`Exec`] handle the sharded phases take. The
    /// policy has one value, [`SchedulerPolicy::Static`].
    pub fn exec(&self, _policy: SchedulerPolicy) -> Exec<'_> {
        Exec {
            pool: self,
            work: None,
        }
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

/// A pool handle that hands out items by the static claim rule: the
/// handle every sharded phase receives. `Copy`, so it threads through
/// call stacks like a plain configuration value.
#[derive(Clone, Copy)]
pub struct Exec<'a> {
    pool: &'a WorkerPool,
    /// Caller-declared work ([`Exec::with_work`]); `None`: worth a wake.
    work: Option<usize>,
}

impl<'a> Exec<'a> {
    /// Declares the total work of a dispatch made through the returned
    /// handle, in the caller's natural unit (guard cells copied,
    /// particles sorted or inserted). Work too small to repay a pool
    /// wake runs inline on the calling thread and is not counted as a
    /// pool dispatch; the caller keeps one loop body and no threshold.
    pub fn with_work(mut self, units: usize) -> Self {
        self.work = Some(units);
        self
    }

    /// Worker count of the underlying pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The one rule that hands out work: `f(state, index, item,
    /// scratch)` once per item. Worker `w` owns range `w` of
    /// [`shard_bounds`]`(len, crew)` — `w*chunk .. min((w+1)*chunk,
    /// len)` with `chunk = ceil(len / crew)` — and receives that range
    /// as its own `split_at_mut` share of `items`, paired with
    /// `scratch[w]`. `state` is what `enter()` returned before the first
    /// item of the share: one `enter` per non-empty range, none for an
    /// empty one.
    fn each<T: Send, S: Send, W>(
        &self,
        items: &mut [T],
        scratch: &mut [S],
        enter: impl Fn() -> W + Sync,
        f: impl Fn(&mut W, usize, &mut T, &mut S) + Sync,
    ) {
        let len = items.len();
        let crew = self.workers().min(len);
        assert!(
            scratch.len() >= crew,
            "scratch ({}) must cover every participating worker ({crew})",
            scratch.len(),
        );
        if len == 0 {
            return;
        }
        let small = self.work.is_some_and(|units| units < INLINE_ITEM_THRESHOLD);
        let ranges = shard_bounds(len, if small { 1 } else { self.workers() });
        // A `Fn` job can only move a borrow to another thread through a
        // lock: worker `w` takes share `w` out of slot `w` exactly once
        // and releases the lock before its first item runs.
        let mut rest = items;
        let shares: Vec<_> = ranges
            .iter()
            .zip(scratch)
            .map(|(&(lo, hi), scr)| {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
                rest = tail;
                Mutex::new(Some((lo, chunk, scr)))
            })
            .collect();
        let share = |w: usize| {
            let Some(slot) = shares.get(w) else { return };
            let taken = slot.lock().expect("no item runs under a share lock").take();
            if let Some((lo, chunk, scr)) = taken {
                let mut state = enter();
                for (i, item) in (lo..).zip(chunk) {
                    f(&mut state, i, item, scr);
                }
            }
        };
        if small || (ranges.len() == 1 && self.workers() > 1) {
            // Not worth a wake: the calling thread runs everything.
            share(0);
        } else {
            // A 1-worker pool lands here too: `broadcast` is then an
            // inline call that still counts the dispatch and honors an
            // armed [`FaultPlan`].
            self.pool.broadcast(&share);
        }
    }

    /// Runs `f(index, &mut item)` once per item, distributed over the
    /// pool per the claim rule (see the module docs). Items must be
    /// independent: `f` may not assume anything about which worker runs
    /// an item or in what order items execute.
    pub fn for_each<T: Send>(&self, items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        // A vector of unit values never allocates.
        let mut no_scratch = vec![(); self.workers()];
        self.each(items, &mut no_scratch, || (), |_, i, item, _| f(i, item));
    }

    /// [`Exec::for_each`] with per-worker scratch: `f` also receives
    /// `scratch[w]`, private to worker `w` for the whole dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` holds fewer entries than the number of
    /// workers that may participate (`min(workers(), items.len())`), or
    /// propagates the panic of any item handler.
    pub fn for_each_scratch<T: Send, S: Send>(
        &self,
        items: &mut [T],
        scratch: &mut [S],
        f: impl Fn(usize, &mut T, &mut S) + Sync,
    ) {
        self.each(items, scratch, || (), |_, i, item, scr| f(i, item, scr));
    }

    /// Runs `f` once per item on a forked worker [`Machine`] and charges
    /// the work to `main` — the cost-charged variant of
    /// [`Exec::for_each_scratch`] used by the emulated pipeline phases.
    ///
    /// Each item runs on a private, cold cache: every worker forks
    /// `main` before its first item ([`Machine::fork_worker`]), flushes
    /// the fork's cache before every item and drains its counters after
    /// every item, so each item's charges are a function of the item
    /// alone. The drained deltas are merged into `main` in item order
    /// once the dispatch returns, so `main`'s totals are bit-identical
    /// for any worker count. `main` itself is only read (forked) while
    /// the items run.
    ///
    /// `f` receives `(worker_machine, item_index, item, worker
    /// scratch)`; panics as [`Exec::for_each_scratch`].
    pub fn run_counted<T: Send, S: Send>(
        &self,
        main: &mut Machine,
        items: &mut [T],
        scratch: &mut [S],
        f: impl Fn(&mut Machine, usize, &mut T, &mut S) + Sync,
    ) {
        let mut deltas = vec![MachineCounters::default(); items.len()];
        let mut pairs: Vec<_> = items.iter_mut().zip(&mut deltas).collect();
        self.each(
            &mut pairs,
            scratch,
            || main.fork_worker(),
            |wm, i, (item, delta), scr| {
                wm.mem().flush_cache();
                f(wm, i, item, scr);
                **delta = wm.drain_counters();
            },
        );
        for delta in &deltas {
            main.absorb_counters(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MachineConfig;
    use crate::counters::Phase;
    use crate::sync::{AtomicU64, Ordering};

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
        scratch.push(t as u64);
        // Cost depends only on the item: deterministic per tile.
        wm.in_phase(Phase::Compute, |k| k.s_ops(t + 1));
        *item = t as f64;
    }

    /// The bits of `main`'s merged `Compute` cycles.
    fn compute_bits(main: &Machine) -> u64 {
        main.counters().cycles(Phase::Compute).to_bits()
    }

    #[test]
    fn counters_indexed_by_item_for_any_worker_count_and_policy() {
        let mut totals = Vec::new();
        for &w in &[1usize, 3, 5, 11] {
            let mut main = Machine::new(MachineConfig::lx2());
            let pool = WorkerPool::new(w);
            let mut items = vec![0.0; 11];
            let mut scratch = vec![Vec::new(); w];
            pool.exec(SchedulerPolicy::Static).run_counted(
                &mut main,
                &mut items,
                &mut scratch,
                charge_item,
            );
            assert!(items.iter().enumerate().all(|(t, &v)| v == t as f64));
            totals.push(compute_bits(&main));
        }
        for later in &totals[1..] {
            assert_eq!(
                totals[0], *later,
                "merged totals must not depend on sharding"
            );
        }
    }

    #[test]
    fn empty_items_yield_no_counters() {
        let mut main = Machine::new(MachineConfig::lx2());
        let pool = WorkerPool::new(4);
        let mut items: Vec<f64> = Vec::new();
        let mut scratch = vec![Vec::new(); 4];
        pool.exec(SchedulerPolicy::Static).run_counted(
            &mut main,
            &mut items,
            &mut scratch,
            charge_item,
        );
        assert_eq!(main.counters().total_cycles(), 0.0);
    }

    #[test]
    fn workers_exceeding_items_are_clamped() {
        let mut main = Machine::new(MachineConfig::lx2());
        let pool = WorkerPool::new(8);
        let mut items = vec![0.0; 2];
        let mut scratch = vec![Vec::new(); 8];
        pool.exec(SchedulerPolicy::Static).run_counted(
            &mut main,
            &mut items,
            &mut scratch,
            charge_item,
        );
        assert_eq!(items, vec![0.0, 1.0]);
        assert!(main.counters().cycles(Phase::Compute) > 0.0);
    }

    #[test]
    #[should_panic(expected = "must cover every participating worker")]
    fn undersized_scratch_is_rejected() {
        let mut main = Machine::new(MachineConfig::lx2());
        let pool = WorkerPool::new(4);
        let mut items = vec![0.0; 16];
        let mut scratch = vec![Vec::new(); 2];
        pool.exec(SchedulerPolicy::Static).run_counted(
            &mut main,
            &mut items,
            &mut scratch,
            charge_item,
        );
    }

    /// The per-item cost contract held by `run_counted` itself: items
    /// that walk the same cache lines and never flush are still charged
    /// as if each ran on a cold private cache, so `main`'s merged cycles
    /// and L1 hits are the same whichever worker ran which item.
    #[test]
    fn conf_run_counted_charges_are_a_function_of_the_item() {
        let mut totals = Vec::new();
        for workers in [1usize, 2, 3, 5, 8] {
            let mut main = Machine::new(MachineConfig::lx2());
            let base = main.mem().alloc_f64(64 * 8);
            let pool = WorkerPool::new(workers);
            let mut items = [(); 13];
            let mut scratch = vec![(); workers];
            pool.exec(SchedulerPolicy::Static).run_counted(
                &mut main,
                &mut items,
                &mut scratch,
                |wm, _, _, _| {
                    wm.in_phase(Phase::Compute, |k| {
                        for line in 0..64 {
                            k.v_touch_load(base.offset_f64(8 * line), 8);
                        }
                    });
                },
            );
            let cycles = main.counters().total_cycles().to_bits();
            totals.push((workers, cycles, main.mem().l1_stats().hits));
        }
        for &(workers, cycles, hits) in &totals[1..] {
            assert_eq!(cycles, totals[0].1, "{workers} workers: total cycles");
            assert_eq!(hits, totals[0].2, "{workers} workers: L1 hits");
        }
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
    fn for_each_visits_every_item_exactly_once() {
        for workers in [1usize, 2, 4, 7] {
            let pool = WorkerPool::new(workers);
            let mut items: Vec<usize> = vec![0; 97];
            pool.exec(SchedulerPolicy::Static)
                .for_each(&mut items, |i, item| {
                    *item += i + 1;
                });
            for (i, &v) in items.iter().enumerate() {
                assert_eq!(v, i + 1, "workers {workers}");
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
        // A plan that could never fire is refused, naming its field: no
        // worker 3 in a 3-worker pool, and dispatch 3 has already run.
        for (worker, dispatch, field) in
            [(3, 4, "FaultPlan::worker"), (1, 3, "FaultPlan::dispatch")]
        {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                pool.inject_fault(FaultPlan {
                    worker,
                    dispatch,
                    kind: FaultKind::Panic,
                })
            }))
            .expect_err(field);
            let text = payload
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(text.starts_with(field), "{text}");
        }
        assert_eq!(pool.pending_fault(), None);
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

    /// The worker id of the calling thread inside a dispatch: 0 for the
    /// dispatching thread `caller`, `w` for `mpic-worker-w`.
    fn worker_id(caller: std::thread::ThreadId) -> usize {
        let me = std::thread::current();
        if me.id() == caller {
            return 0;
        }
        let name = me.name().expect("pool workers are named");
        name.strip_prefix("mpic-worker-")
            .and_then(|w| w.parse().ok())
            .expect("a pool worker thread")
    }

    /// The claim rule over its full small matrix, in closed form: slot
    /// `w` holds exactly `w*chunk .. min((w+1)*chunk, len)` with `chunk =
    /// ceil(len / min(workers, len))`, and everything is on slot 0 when
    /// the work is declared small.
    #[test]
    fn conf_exec_claim_rule_grants_every_index_exactly_once() {
        let caller = std::thread::current().id();
        let counted = |exec: Exec<'_>, len: usize| {
            let mut main = Machine::new(MachineConfig::lx2());
            let mut items = vec![0.0; len];
            let mut scratch = vec![Vec::new(); exec.workers()];
            exec.run_counted(&mut main, &mut items, &mut scratch, charge_item);
            assert!(items.iter().enumerate().all(|(t, &v)| v == t as f64));
            compute_bits(&main)
        };
        let one = WorkerPool::new(1);
        for workers in 1..=8usize {
            let pool = WorkerPool::new(workers);
            let exec = pool.exec(SchedulerPolicy::Static);
            for (exec, small) in [
                (exec, false),
                (exec.with_work(INLINE_ITEM_THRESHOLD - 1), true),
            ] {
                for len in 0..=64usize {
                    let what = format!("{workers} workers small={small} len {len}");
                    let crew = if small { 1 } else { workers.min(len).max(1) };
                    let chunk = len.div_ceil(crew);
                    let owned = |w: usize| (w * chunk).min(len)..((w + 1) * chunk).min(len);
                    let before = pool.dispatch_count();
                    let mut items = vec![0u32; len];
                    let mut scratch = vec![Vec::new(); workers];
                    exec.for_each_scratch(&mut items, &mut scratch, |i, item, seen| {
                        *item += 1;
                        let me = std::thread::current();
                        seen.push((i, me.id(), me.name().map(str::to_owned)));
                    });
                    assert!(items.iter().all(|&hits| hits == 1), "{what}");
                    // Slot `w` holds exactly its range, in order, written
                    // by worker `w` alone: the calling thread for 0,
                    // `mpic-worker-w` otherwise.
                    for (w, seen) in scratch.iter().enumerate() {
                        assert!(seen.iter().map(|e| e.0).eq(owned(w)), "{what}: slot {w}");
                        for (_, id, name) in seen {
                            if w == 0 {
                                assert_eq!(*id, caller, "{what}");
                            } else {
                                let worker = format!("mpic-worker-{w}");
                                assert_eq!(name.as_deref(), Some(&*worker), "{what}");
                            }
                        }
                    }
                    // One counted dispatch unless the claim rule ran it
                    // inline: nothing to do, declared small, or one item
                    // on a multi-worker pool.
                    let inline = len == 0 || small || (workers > 1 && len == 1);
                    assert_eq!(pool.dispatch_count() - before, u64::from(!inline), "{what}");
                    // `enter` runs once on every worker whose range is
                    // not empty, and on no other.
                    let entered = Mutex::new(Vec::new());
                    exec.each(
                        &mut vec![(); len],
                        &mut scratch,
                        || entered.lock().unwrap().push(worker_id(caller)),
                        |_, _, _, _| {},
                    );
                    let mut entered = entered.into_inner().unwrap();
                    entered.sort_unstable();
                    let nonempty = (0..workers).filter(|&w| !owned(w).is_empty());
                    assert!(entered.into_iter().eq(nonempty), "{what}");
                    assert_eq!(
                        counted(exec, len),
                        counted(one.exec(SchedulerPolicy::Static), len),
                        "{what}: merged cycles diverged from the 1-worker run"
                    );
                }
            }
        }
        // A 1-worker pool dispatches through `broadcast`, so an armed
        // fault fires there too — but not on a declared-small dispatch,
        // which never reaches the pool.
        let plan = FaultPlan {
            worker: 0,
            dispatch: one.dispatch_count() + 1,
            kind: FaultKind::Panic,
        };
        one.inject_fault(plan);
        let exec = one.exec(SchedulerPolicy::Static);
        exec.with_work(0).for_each(&mut [0u8; 3], |_, v| *v += 1);
        assert_eq!(one.pending_fault(), Some(plan));
        let err = expect_exec_error(|| exec.for_each(&mut [0u8; 3], |_, v| *v += 1));
        assert_eq!((err.worker, err.dispatch), (0, plan.dispatch));
        assert_eq!(one.pending_fault(), None);
    }

    /// An item handler that panics in the middle of a worker's share:
    /// the panic reaches the caller, and the next dispatch on the same
    /// pool, items and scratch hands every share out as if nothing had
    /// happened.
    #[test]
    fn mid_chunk_panic_propagates_and_the_next_dispatch_is_whole() {
        let pool = WorkerPool::new(4);
        let exec = pool.exec(SchedulerPolicy::Static);
        let caller = std::thread::current().id();
        // 37 items over 4 workers: chunks of 10, the last one ragged.
        let owned = |w: usize| (w * 10).min(37)..((w + 1) * 10).min(37);
        let mut items = vec![0u32; 37];
        let mut scratch = vec![Vec::new(); 4];
        let visit = |i: usize, item: &mut u32, seen: &mut Vec<(usize, usize)>| {
            *item += 1;
            seen.push((i, worker_id(caller)));
        };
        let payload = catch_unwind(AssertUnwindSafe(|| {
            exec.for_each_scratch(&mut items, &mut scratch, |i, item, seen| {
                assert!(i != 23, "item {i} failed");
                visit(i, item, seen);
            });
        }))
        .expect_err("the item panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "item 23 failed");
        // Every other worker finished its share; worker 2 stopped at 23,
        // after the items of its share before it.
        let first = scratch.clone();
        for (w, seen) in first.iter().enumerate() {
            let ran = if w == 2 { 20..23 } else { owned(w) };
            assert!(seen.iter().copied().eq(ran.map(|i| (i, w))), "slot {w}");
        }
        exec.for_each_scratch(&mut items, &mut scratch, visit);
        for (w, seen) in scratch.iter().enumerate() {
            let fresh = &seen[first[w].len()..];
            assert!(
                fresh.iter().copied().eq(owned(w).map(|i| (i, w))),
                "slot {w}"
            );
        }
        for (i, &hits) in items.iter().enumerate() {
            let expected = if (23..30).contains(&i) { 1 } else { 2 };
            assert_eq!(hits, expected, "item {i}");
        }
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
