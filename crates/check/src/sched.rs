//! The deterministic mock scheduler and the `ShimSync` facade
//! implementation.
//!
//! This is the one file in the checker allowed to touch raw `std` sync
//! primitives (mpic-lint L7 allowlists it): the [`Controller`] uses a
//! real mutex + condition variable to cooperatively serialise the
//! *logical* threads of a run — exactly one logical thread executes user
//! code at any moment; every synchronization operation the protocol
//! performs ([`Op`]) is a yield point where the controller picks, from
//! the set of enabled operations, which executes next.
//!
//! # How a run works
//!
//! Controlled threads are real OS threads, but they only run when the
//! controller resumes them. A thread calling a `ShimSync` primitive
//! parks inside `Controller::yield_op` with a *pending* operation;
//! the controller's `advance` loop executes pending operations one at a
//! time, recording a [`Decision`] wherever more than one candidate was
//! schedulable. Replaying a run with a longer `prefix` of decision
//! indices steers execution down a different branch — the DFS in
//! `lib.rs` enumerates the whole bounded tree that way.
//!
//! # Pruning and bounding
//!
//! * **Conflict pruning (DPOR-style):** at a decision, the candidate set
//!   is the closure of the default choice under *conflict* — two pending
//!   operations conflict iff they touch the same lock, the same signal,
//!   or one observes the thread performing the other. Operations
//!   independent of everything in the set commute with it, so exploring
//!   their reorderings is redundant and they are not branched on.
//! * **Preemption budget (CHESS-style):** resuming a thread other than
//!   the one that just yielded, while the yielder is still runnable,
//!   costs one unit of a per-run budget; once spent, the scheduler only
//!   continues the current thread. Forced switches (yielder blocked or
//!   finished) are free. Most concurrency bugs manifest within two
//!   preemptions, which keeps the tree small.
//!
//! # Failure handling
//!
//! A deadlock (no enabled operation while unfinished threads remain —
//! this is also how a *lost wakeup* manifests) or an exceeded step
//! budget aborts the run: every parked thread is woken with a
//! [`CheckAbort`] panic payload so it unwinds, and the shim primitives
//! degrade to plain real-lock semantics so `Drop` implementations run
//! to completion and every real thread can be joined.
//!
//! The model is sequentially consistent and wakeups are never spurious:
//! the protocol under test loops on explicit predicates, so neither
//! weakening adds reachable states for the invariants checked here.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::panic::panic_any;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use mpic_machine::sync::SyncPrims;

/// Panic payload used to unwind controlled threads when an exploration
/// aborts. Never escapes the checker: thread wrappers swallow it.
pub struct CheckAbort;

/// One logical operation at a scheduler yield point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// First scheduling of a registered thread.
    Start,
    /// Take lock `.0` (enabled iff unowned).
    Acquire(usize),
    /// Drop lock `.0`.
    Release(usize),
    /// Atomically release `lock`, park on `sig`, re-acquire when woken.
    Wait { sig: usize, lock: usize },
    /// Broadcast-wake every thread parked on signal `.0`.
    WakeAll(usize),
    /// Observe whether thread `.0` has finished.
    Query(usize),
    /// Block until thread `.0` finishes (enabled iff it has).
    Join(usize),
}

fn lock_of(op: Op) -> Option<usize> {
    match op {
        Op::Acquire(l) | Op::Release(l) => Some(l),
        Op::Wait { lock, .. } => Some(lock),
        _ => None,
    }
}

fn sig_of(op: Op) -> Option<usize> {
    match op {
        Op::Wait { sig, .. } => Some(sig),
        Op::WakeAll(s) => Some(s),
        _ => None,
    }
}

fn observed_thread(op: Op) -> Option<usize> {
    match op {
        Op::Query(t) | Op::Join(t) => Some(t),
        _ => None,
    }
}

/// Whether the order of two pending operations (by threads `ta`, `tb`)
/// can matter. Same lock, same signal, or one thread observing the
/// other's liveness → conflict; everything else commutes.
fn conflicts(ta: usize, a: Op, tb: usize, b: Op) -> bool {
    if lock_of(a).is_some() && lock_of(a) == lock_of(b) {
        return true;
    }
    if sig_of(a).is_some() && sig_of(a) == sig_of(b) {
        return true;
    }
    observed_thread(a) == Some(tb) || observed_thread(b) == Some(ta)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Parked at a yield with a pending op; schedulable once enabled.
    Ready,
    /// Resumed: executing user code between yields.
    Running,
    /// Parked in signal `sig`'s waitset; re-locks `lock` when woken.
    Waiting {
        sig: usize,
        lock: usize,
    },
    Finished,
}

struct Th {
    state: TState,
    pending: Option<Op>,
    /// Result slot for the last executed [`Op::Query`].
    answer: bool,
}

impl Th {
    fn fresh() -> Self {
        Self {
            state: TState::Ready,
            pending: Some(Op::Start),
            answer: false,
        }
    }
}

/// A branch point: which candidate operations were schedulable and
/// which one this run took. The DFS increments `chosen_idx` bottom-up.
#[derive(Debug, Clone)]
pub struct Decision {
    pub candidates: Vec<usize>,
    pub chosen_idx: usize,
}

struct Core {
    threads: Vec<Th>,
    lock_owner: Vec<Option<usize>>,
    n_signals: usize,
    /// The logical thread currently executing user code, if any.
    current: Option<usize>,
    /// Decision indices to replay (DFS steering); past its end, take 0.
    prefix: Vec<usize>,
    decisions: Vec<Decision>,
    preemptions: usize,
    steps: usize,
    wakes_seen: u64,
    trace: Vec<(usize, Op)>,
    failure: Option<String>,
    abort: bool,
    done: bool,
}

/// Everything `lib.rs` needs from a completed run.
pub struct RunOutcome {
    pub decisions: Vec<Decision>,
    pub trace: Vec<(usize, Op)>,
    pub failure: Option<String>,
    pub steps: usize,
}

/// The per-run scheduler. One controller drives exactly one schedule;
/// the DFS creates a fresh one per run.
pub struct Controller {
    core: Mutex<Core>,
    cv: Condvar,
    max_preemptions: usize,
    max_steps: usize,
    /// Chaos knob: swallow the n-th [`Op::WakeAll`] broadcast of the run
    /// (0-based), turning it into a lost notification. Used by the
    /// negative tests to prove lost wakeups are caught on the *real*
    /// protocol code.
    drop_wake: Option<u64>,
}

thread_local! {
    /// The controller (and own logical tid) of the current OS thread,
    /// installed by the run driver / spawn wrapper before user code runs.
    static CTRL: RefCell<Option<(Arc<Controller>, usize)>> = const { RefCell::new(None) };
}

/// Binds this OS thread to `ctrl` as logical thread `tid`.
pub fn install(ctrl: &Arc<Controller>, tid: usize) {
    CTRL.with(|c| *c.borrow_mut() = Some((Arc::clone(ctrl), tid)));
}

fn current() -> (Arc<Controller>, usize) {
    CTRL.with(|c| c.borrow().clone())
        .expect("ShimSync primitive used outside a controlled checker thread")
}

impl Controller {
    /// A controller replaying `prefix`, with logical thread 0 (the
    /// scenario root) pre-registered.
    pub fn new(
        prefix: Vec<usize>,
        max_preemptions: usize,
        max_steps: usize,
        drop_wake: Option<u64>,
    ) -> Arc<Self> {
        Arc::new(Self {
            core: Mutex::new(Core {
                threads: vec![Th::fresh()],
                lock_owner: Vec::new(),
                n_signals: 0,
                current: None,
                prefix,
                decisions: Vec::new(),
                preemptions: 0,
                steps: 0,
                wakes_seen: 0,
                trace: Vec::new(),
                failure: None,
                abort: false,
                done: false,
            }),
            cv: Condvar::new(),
            max_preemptions,
            max_steps,
            drop_wake,
        })
    }

    fn lock_core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn new_lock(&self) -> usize {
        let mut c = self.lock_core();
        c.lock_owner.push(None);
        c.lock_owner.len() - 1
    }

    fn new_signal(&self) -> usize {
        let mut c = self.lock_core();
        c.n_signals += 1;
        c.n_signals - 1
    }

    fn register_thread(&self) -> usize {
        let mut c = self.lock_core();
        c.threads.push(Th::fresh());
        c.threads.len() - 1
    }

    /// Parks the calling logical thread with `op` pending and blocks
    /// until the scheduler has executed it and resumed this thread.
    /// Returns `None` if the run aborted (callers degrade to real-lock
    /// semantics or unwind with [`CheckAbort`], per primitive).
    fn yield_op(&self, tid: usize, op: Op) -> Option<bool> {
        let mut c = self.lock_core();
        if c.abort {
            return None;
        }
        debug_assert_eq!(c.current, Some(tid), "yield from a non-running thread");
        c.current = None;
        c.threads[tid].state = TState::Ready;
        c.threads[tid].pending = Some(op);
        self.advance(&mut c, Some(tid));
        loop {
            if c.abort {
                return None;
            }
            if c.current == Some(tid) {
                return Some(c.threads[tid].answer);
            }
            c = self.cv.wait(c).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn yield_current(&self, op: Op) -> Option<bool> {
        let (ctrl, tid) = current();
        debug_assert!(std::ptr::eq(&*ctrl, self), "controller mixup across runs");
        self.yield_op(tid, op)
    }

    /// Blocks a freshly spawned thread until its [`Op::Start`] is
    /// scheduled. Returns false if the run aborted before that.
    pub fn thread_begin(&self, tid: usize) -> bool {
        let mut c = self.lock_core();
        loop {
            if c.abort {
                return false;
            }
            if c.current == Some(tid) {
                return true;
            }
            c = self.cv.wait(c).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks the calling logical thread finished and hands control to
    /// the scheduler. Termination is modeled as instantaneous after the
    /// thread's last yield (it performs no shared-memory operations in
    /// between), so it is not a branch point of its own.
    pub fn thread_exit(&self, tid: usize) {
        let mut c = self.lock_core();
        c.threads[tid].state = TState::Finished;
        c.threads[tid].pending = None;
        if c.abort {
            if c.threads.iter().all(|t| t.state == TState::Finished) {
                c.done = true;
            }
            self.cv.notify_all();
            return;
        }
        c.current = None;
        self.advance(&mut c, None);
    }

    /// Records a panic that escaped a controlled thread's user code.
    /// [`CheckAbort`] unwinds are the abort mechanism itself and are
    /// ignored; anything else is a protocol-level failure.
    pub fn record_panic(&self, tid: usize, payload: Box<dyn std::any::Any + Send>) {
        if payload.downcast_ref::<CheckAbort>().is_some() {
            return;
        }
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            format!("{payload:?}")
        };
        let mut c = self.lock_core();
        if c.failure.is_none() {
            c.failure = Some(format!("thread {tid} panicked: {msg}"));
        }
        self.cv.notify_all();
    }

    /// Records an invariant violation reported by the scenario itself
    /// (after its pool has been dropped, so no abort is needed).
    pub fn record_failure(&self, msg: String) {
        let mut c = self.lock_core();
        if c.failure.is_none() {
            c.failure = Some(msg);
        }
        self.cv.notify_all();
    }

    /// Kicks off the run: schedules the root thread's [`Op::Start`].
    pub fn start(&self) {
        let mut c = self.lock_core();
        self.advance(&mut c, None);
    }

    /// Blocks the (uncontrolled) driver thread until every logical
    /// thread has finished — normally or by abort unwinding.
    pub fn wait_done(&self) {
        let mut c = self.lock_core();
        while !c.done {
            c = self.cv.wait(c).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Consumes the run's outcome (call after [`Self::wait_done`]).
    pub fn take_outcome(&self) -> RunOutcome {
        let mut c = self.lock_core();
        RunOutcome {
            decisions: std::mem::take(&mut c.decisions),
            trace: std::mem::take(&mut c.trace),
            failure: c.failure.take(),
            steps: c.steps,
        }
    }

    fn op_enabled(c: &Core, op: Op) -> bool {
        match op {
            Op::Acquire(l) => c.lock_owner[l].is_none(),
            Op::Join(t) => c.threads[t].state == TState::Finished,
            _ => true,
        }
    }

    fn fail(&self, c: &mut Core, msg: String) {
        if c.failure.is_none() {
            c.failure = Some(msg);
        }
        c.abort = true;
        if c.threads.iter().all(|t| t.state == TState::Finished) {
            c.done = true;
        }
        self.cv.notify_all();
    }

    /// The candidate set at a branch: preemption-budget-gated, then the
    /// conflict closure of the default choice (see module docs).
    fn candidates(&self, c: &Core, enabled: &[usize], last: Option<usize>) -> Vec<usize> {
        let last_runnable = last.filter(|l| enabled.contains(l));
        if let Some(l) = last_runnable {
            if c.preemptions >= self.max_preemptions {
                return vec![l];
            }
        }
        let default = last_runnable.unwrap_or(enabled[0]);
        let mut set = vec![default];
        loop {
            let mut grew = false;
            for &t in enabled {
                if set.contains(&t) {
                    continue;
                }
                let opt = c.threads[t]
                    .pending
                    .expect("enabled thread without a pending op");
                let hit = set.iter().any(|&s| {
                    conflicts(
                        s,
                        c.threads[s]
                            .pending
                            .expect("candidate without a pending op"),
                        t,
                        opt,
                    )
                });
                if hit {
                    set.push(t);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        set.sort_unstable();
        set
    }

    /// Executes pending operations until a thread is resumed, the run
    /// completes, or it aborts. `last` is the thread that just yielded
    /// (preemption accounting); `None` marks a forced switch.
    fn advance(&self, c: &mut Core, last: Option<usize>) {
        loop {
            if c.threads.iter().all(|t| t.state == TState::Finished) {
                c.done = true;
                self.cv.notify_all();
                return;
            }
            let enabled: Vec<usize> = (0..c.threads.len())
                .filter(|&t| {
                    c.threads[t].state == TState::Ready
                        && c.threads[t]
                            .pending
                            .is_some_and(|op| Self::op_enabled(c, op))
                })
                .collect();
            if enabled.is_empty() {
                let stuck: Vec<String> = c
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.state != TState::Finished)
                    .map(|(i, t)| format!("t{}:{:?}/{:?}", i, t.state, t.pending))
                    .collect();
                self.fail(
                    c,
                    format!("deadlock: no runnable thread [{}]", stuck.join(", ")),
                );
                return;
            }
            let candidates = self.candidates(c, &enabled, last);
            let chosen = if candidates.len() == 1 {
                candidates[0]
            } else {
                let idx = c
                    .prefix
                    .get(c.decisions.len())
                    .copied()
                    .unwrap_or(0)
                    .min(candidates.len() - 1);
                c.decisions.push(Decision {
                    candidates: candidates.clone(),
                    chosen_idx: idx,
                });
                candidates[idx]
            };
            if let Some(l) = last {
                if l != chosen && enabled.contains(&l) {
                    c.preemptions += 1;
                }
            }
            c.steps += 1;
            if c.steps > self.max_steps {
                let budget = self.max_steps;
                self.fail(c, format!("step budget exceeded ({budget})"));
                return;
            }
            let op = c.threads[chosen].pending.take().expect("chosen without op");
            c.trace.push((chosen, op));
            match op {
                Op::Wait { sig, lock } => {
                    debug_assert_eq!(c.lock_owner[lock], Some(chosen));
                    c.lock_owner[lock] = None;
                    c.threads[chosen].state = TState::Waiting { sig, lock };
                    // The waiter is now blocked: pick again (forced).
                    continue;
                }
                Op::Acquire(l) => c.lock_owner[l] = Some(chosen),
                Op::Release(l) => {
                    debug_assert_eq!(c.lock_owner[l], Some(chosen));
                    c.lock_owner[l] = None;
                }
                Op::WakeAll(s) => {
                    let swallowed = self.drop_wake == Some(c.wakes_seen);
                    c.wakes_seen += 1;
                    if !swallowed {
                        for t in 0..c.threads.len() {
                            if let TState::Waiting { sig, lock } = c.threads[t].state {
                                if sig == s {
                                    // Woken: becomes a normal contender
                                    // for the lock it must re-acquire.
                                    c.threads[t].state = TState::Ready;
                                    c.threads[t].pending = Some(Op::Acquire(lock));
                                }
                            }
                        }
                    }
                }
                Op::Query(t) => {
                    c.threads[chosen].answer = c.threads[t].state == TState::Finished;
                }
                Op::Start | Op::Join(_) => {}
            }
            c.threads[chosen].state = TState::Running;
            c.current = Some(chosen);
            self.cv.notify_all();
            return;
        }
    }

    fn aborted(&self) -> bool {
        self.lock_core().abort
    }
}

/// The instrumented [`SyncPrims`] implementation: every primitive is a
/// yield point into the [`Controller`] of the current run. Real `std`
/// mutexes back the data (always uncontended while the logical
/// discipline holds — only the logical owner ever touches them), which
/// keeps the shim free of `unsafe`.
pub struct ShimSync;

/// Shim lock: a logical lock id plus the real storage mutex.
pub struct ShimLock<T> {
    ctrl: Arc<Controller>,
    id: usize,
    data: Mutex<T>,
}

/// Shim guard: logically owns `lock` until dropped.
pub struct ShimGuard<'a, T: Send + 'static> {
    inner: Option<MutexGuard<'a, T>>,
    lock: &'a ShimLock<T>,
}

impl<T: Send + 'static> Deref for ShimGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard used after wait handoff")
    }
}

impl<T: Send + 'static> DerefMut for ShimGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard used after wait handoff")
    }
}

impl<T: Send + 'static> Drop for ShimGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            // Real unlock strictly before the logical release: no other
            // thread can be granted the logical lock (and try the real
            // one) until the Release op below executes.
            drop(g);
            let _ = self.lock.ctrl.yield_current(Op::Release(self.lock.id));
        }
    }
}

/// Shim signal: a logical waitset id.
pub struct ShimSignal {
    ctrl: Arc<Controller>,
    id: usize,
}

/// Shim thread handle: logical tid plus the real join handle.
pub struct ShimThread {
    ctrl: Arc<Controller>,
    tid: usize,
    real: Option<std::thread::JoinHandle<()>>,
}

fn real_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl SyncPrims for ShimSync {
    type Lock<T: Send + 'static> = ShimLock<T>;
    type Guard<'a, T: Send + 'static> = ShimGuard<'a, T>;
    type Signal = ShimSignal;
    type Thread = ShimThread;

    fn lock_new<T: Send + 'static>(value: T) -> ShimLock<T> {
        let (ctrl, _) = current();
        let id = ctrl.new_lock();
        ShimLock {
            ctrl,
            id,
            data: Mutex::new(value),
        }
    }

    fn lock<T: Send + 'static>(lock: &ShimLock<T>) -> ShimGuard<'_, T> {
        // On abort the logical grant is skipped and the real mutex alone
        // serialises the free-running unwind/Drop code.
        let _ = lock.ctrl.yield_current(Op::Acquire(lock.id));
        ShimGuard {
            inner: Some(real_lock(&lock.data)),
            lock,
        }
    }

    fn signal_new() -> ShimSignal {
        let (ctrl, _) = current();
        let id = ctrl.new_signal();
        ShimSignal { ctrl, id }
    }

    fn wait<'a, T: Send + 'static>(
        signal: &ShimSignal,
        lock: &'a ShimLock<T>,
        mut guard: ShimGuard<'a, T>,
    ) -> ShimGuard<'a, T> {
        // Drop the real guard first so the next logical owner can take
        // the real mutex while this thread parks; clearing `inner`
        // disarms the guard's Drop-side logical release — the Wait op
        // itself releases the logical lock.
        guard.inner = None;
        drop(guard);
        let granted = signal.ctrl.yield_current(Op::Wait {
            sig: signal.id,
            lock: lock.id,
        });
        if granted.is_none() {
            // Aborted while parked: unwind out of the protocol. Never
            // reached from a Drop (pool Drop shuts down via wake+join,
            // not wait), so this cannot double-panic.
            panic_any(CheckAbort);
        }
        ShimGuard {
            inner: Some(real_lock(&lock.data)),
            lock,
        }
    }

    fn wake_all(signal: &ShimSignal) {
        let _ = signal.ctrl.yield_current(Op::WakeAll(signal.id));
    }

    fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> ShimThread {
        let (ctrl, _) = current();
        let tid = ctrl.register_thread();
        let c2 = Arc::clone(&ctrl);
        let real = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                install(&c2, tid);
                if c2.thread_begin(tid) {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                    if let Err(p) = r {
                        c2.record_panic(tid, p);
                    }
                }
                c2.thread_exit(tid);
            })
            .expect("failed to spawn controlled thread");
        ShimThread {
            ctrl,
            tid,
            real: Some(real),
        }
    }

    fn is_finished(thread: &ShimThread) -> bool {
        match thread.ctrl.yield_current(Op::Query(thread.tid)) {
            Some(answer) => answer,
            // Abort mode: fall back to the real liveness bit.
            None => thread
                .real
                .as_ref()
                .map(|h| h.is_finished())
                .unwrap_or(true),
        }
    }

    fn join(mut thread: ShimThread) {
        // Logical join first (a yield point, enabled once the target
        // finished); aborted runs skip straight to the real join — the
        // target is guaranteed to unwind and exit.
        let _ = thread.ctrl.yield_current(Op::Join(thread.tid));
        if let Some(h) = thread.real.take() {
            let _ = h.join();
        }
    }
}

/// Whether the current run has aborted (used by scenario helpers that
/// must not keep asserting on a torn-down run).
pub fn run_aborted() -> bool {
    current().0.aborted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_relation_is_symmetric_on_the_op_matrix() {
        let ops = [
            Op::Start,
            Op::Acquire(0),
            Op::Release(0),
            Op::Wait { sig: 0, lock: 0 },
            Op::WakeAll(0),
            Op::Query(1),
            Op::Join(1),
        ];
        for &a in &ops {
            for &b in &ops {
                assert_eq!(
                    conflicts(1, a, 2, b),
                    conflicts(2, b, 1, a),
                    "asymmetric: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn lock_signal_and_liveness_conflicts() {
        // Same lock conflicts; different locks commute.
        assert!(conflicts(1, Op::Acquire(0), 2, Op::Release(0)));
        assert!(!conflicts(1, Op::Acquire(0), 2, Op::Acquire(1)));
        // Wait touches both its signal and its lock.
        assert!(conflicts(
            1,
            Op::Wait { sig: 3, lock: 9 },
            2,
            Op::WakeAll(3)
        ));
        assert!(conflicts(
            1,
            Op::Wait { sig: 3, lock: 9 },
            2,
            Op::Acquire(9)
        ));
        assert!(!conflicts(
            1,
            Op::Wait { sig: 3, lock: 9 },
            2,
            Op::WakeAll(4)
        ));
        // Observing a thread conflicts with anything that thread does.
        assert!(conflicts(1, Op::Query(2), 2, Op::Start));
        assert!(conflicts(1, Op::Join(2), 2, Op::Release(5)));
        assert!(!conflicts(1, Op::Query(3), 2, Op::Start));
        // Independent starts commute.
        assert!(!conflicts(1, Op::Start, 2, Op::Start));
    }
}
