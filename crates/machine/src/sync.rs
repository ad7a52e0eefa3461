//! The synchronization facade the execution layer is built against.
//!
//! Every primitive the [`crate::exec`] pool protocol uses — the state
//! lock, the two wake signals (workers parking for work, the dispatcher
//! parking for acks) and thread spawn/liveness/join — is named here
//! once, behind the [`SyncPrims`] trait, instead of being reached for ad
//! hoc at each site. Two implementations exist:
//!
//! * [`StdSync`] (this module): the production mapping, where every
//!   trait item is a direct re-export or one-line delegation to `std`.
//!   The pool is monomorphised over it ([`crate::exec::WorkerPool`] *is*
//!   `PoolCore<StdSync>`), so the facade compiles to the identical
//!   `std::sync` primitives — zero cost (`machine.exec_dispatch_us`
//!   in `benchmark/` is the number that would show otherwise).
//! * `ShimSync` (in the `mpic-check` crate): instrumented shim types
//!   whose every operation yields to a deterministic mock scheduler, so
//!   a loom-style model checker can exhaustively explore bounded
//!   interleavings of the *actual* protocol code.
//!
//! The split is enforced, not aspirational: `mpic-lint` rule **L7**
//! denies raw `std` sync-primitive names outside this file (plus the
//! checker's own scheduler), so all future concurrency in the workspace
//! flows through a layer the model checker can see.

use std::ops::DerefMut;

// Atomics are re-exported rather than wrapped: the pool protocol uses
// none (the claim rule is arithmetic), so the checker has nothing to
// interpose on. The re-export is the one canonical import site L7 pins
// atomic users to (today the exec tests' hit counters).
pub use std::sync::atomic::{AtomicU64, Ordering};
pub use std::sync::Arc;
// The share lock `Exec` hands a worker its slice chunk through is
// re-exported, not modelled: each lock is taken exactly once, by the
// worker that owns it, so there is no interleaving for the checker to
// explore. It stays outside the pool protocol `SyncPrims` describes.
pub use std::sync::Mutex;

/// The set of synchronization primitives the pool protocol consumes.
///
/// Implementations provide a mutual-exclusion lock, a condition signal,
/// and thread handles; [`crate::exec::PoolCore`] is generic over this
/// trait and contains the *entire* protocol logic, so the production
/// pool and the model-checked pool run the very same code.
pub trait SyncPrims: Sized + 'static {
    /// Mutual-exclusion lock protecting a `T`.
    type Lock<T: Send + 'static>: Send + Sync;
    /// RAII guard for an acquired [`Self::Lock`].
    type Guard<'a, T: Send + 'static>: DerefMut<Target = T>;
    /// Condition signal: threads park on it under a lock, wakers
    /// broadcast to it.
    type Signal: Send + Sync;
    /// Handle to a spawned thread.
    type Thread;

    /// Creates a lock owning `value`.
    fn lock_new<T: Send + 'static>(value: T) -> Self::Lock<T>;
    /// Acquires the lock, blocking until available.
    fn lock<T: Send + 'static>(lock: &Self::Lock<T>) -> Self::Guard<'_, T>;
    /// Creates a condition signal.
    fn signal_new() -> Self::Signal;
    /// Atomically releases `guard`, parks on `signal`, and re-acquires
    /// `lock` once woken. (Callers loop on their predicate; spurious
    /// wakeups are permitted.)
    fn wait<'a, T: Send + 'static>(
        signal: &Self::Signal,
        lock: &'a Self::Lock<T>,
        guard: Self::Guard<'a, T>,
    ) -> Self::Guard<'a, T>;
    /// Wakes every thread parked on `signal`.
    fn wake_all(signal: &Self::Signal);
    /// Spawns a named thread running `f`.
    fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> Self::Thread;
    /// Whether the thread has terminated (its `f` returned, unwound, or
    /// the thread was killed).
    fn is_finished(thread: &Self::Thread) -> bool;
    /// Blocks until the thread terminates, discarding its outcome (the
    /// pool attributes failures through its own `panic` slot, never
    /// through join results).
    fn join(thread: Self::Thread);
}

/// The production implementation: every item maps 1:1 onto `std`, and
/// monomorphisation erases the indirection entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdSync;

impl SyncPrims for StdSync {
    type Lock<T: Send + 'static> = std::sync::Mutex<T>;
    type Guard<'a, T: Send + 'static> = std::sync::MutexGuard<'a, T>;
    type Signal = std::sync::Condvar;
    type Thread = std::thread::JoinHandle<()>;

    fn lock_new<T: Send + 'static>(value: T) -> Self::Lock<T> {
        std::sync::Mutex::new(value)
    }

    /// Locks, recovering from poisoning: the pool's own critical
    /// sections never panic, so a poisoned lock only means a *job*
    /// panicked on another thread — the protected state itself is
    /// sound, and panicking here (e.g. inside a Drop during unwinding)
    /// would abort.
    fn lock<T: Send + 'static>(lock: &Self::Lock<T>) -> Self::Guard<'_, T> {
        lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn signal_new() -> Self::Signal {
        std::sync::Condvar::new()
    }

    fn wait<'a, T: Send + 'static>(
        signal: &Self::Signal,
        _lock: &'a Self::Lock<T>,
        guard: Self::Guard<'a, T>,
    ) -> Self::Guard<'a, T> {
        // Poison recovery for the same reason as `lock`.
        signal.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    fn wake_all(signal: &Self::Signal) {
        signal.notify_all();
    }

    fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> Self::Thread {
        std::thread::Builder::new()
            .name(name)
            .spawn(f)
            .expect("failed to spawn pool worker")
    }

    fn is_finished(thread: &Self::Thread) -> bool {
        thread.is_finished()
    }

    fn join(thread: Self::Thread) {
        let _ = thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_lock_round_trips_and_recovers_from_poison() {
        let lock = StdSync::lock_new(7u32);
        *StdSync::lock(&lock) += 1;
        assert_eq!(*StdSync::lock(&lock), 8);
        // Poison the lock from another thread; the facade must still
        // hand the (sound) state back instead of panicking.
        let lock = Arc::new(lock);
        let l2 = Arc::clone(&lock);
        let t = StdSync::spawn("poisoner".into(), move || {
            let _g = StdSync::lock(&l2);
            panic!("poison");
        });
        StdSync::join(t);
        assert_eq!(*StdSync::lock(&lock), 8);
    }

    #[test]
    fn std_signal_wakes_a_parked_waiter() {
        struct Cell {
            flag: <StdSync as SyncPrims>::Lock<bool>,
            sig: <StdSync as SyncPrims>::Signal,
        }
        let cell = Arc::new(Cell {
            flag: StdSync::lock_new(false),
            sig: StdSync::signal_new(),
        });
        let c2 = Arc::clone(&cell);
        let t = StdSync::spawn("waker".into(), move || {
            *StdSync::lock(&c2.flag) = true;
            StdSync::wake_all(&c2.sig);
        });
        let mut g = StdSync::lock(&cell.flag);
        while !*g {
            g = StdSync::wait(&cell.sig, &cell.flag, g);
        }
        drop(g);
        StdSync::join(t);
    }
}
