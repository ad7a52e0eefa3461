//! Checked disjoint partition of a mutable slice across pool workers.
//!
//! Every sharded phase of the step loop relies on one soundness claim:
//! the claim rule hands each slice index to **exactly one** worker, so the
//! `&mut` references carved out of a shared slice never alias. Before
//! this module, that claim lived in comments next to raw-pointer
//! arithmetic (`DisjointSlice` in the exec layer, `RawGrid` in the guard
//! exchange). [`Partition`] centralises the pattern and — in debug
//! builds — *verifies* it at runtime: an atomic claim bitmap records
//! every granted index and panics the moment two grants overlap, so all
//! the existing determinism tests double as aliasing audits. Release
//! builds compile the bitmap out entirely; a grant is exactly the old
//! pointer add.
//!
//! The API is deliberately tiny: [`Partition::grant`] claims index `i`
//! and returns `&mut` to it (at most once per index per partition,
//! debug-checked). It is an `unsafe fn`: the check only exists in debug
//! builds, so the caller must still uphold the contract in release.
//! What changes is that the contract is now *exercised* — every
//! `cargo test` run (debug profile) walks the full claim history of
//! every sharded phase.

use std::marker::PhantomData;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

/// A mutable slice shared across workers under an index-disjointness
/// contract, with debug-build claim checking. See the module docs.
pub struct Partition<'a, T> {
    ptr: *mut T,
    len: usize,
    /// One bit per element; set exactly when the element was granted.
    #[cfg(debug_assertions)]
    claims: Vec<AtomicU64>,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: access is partitioned by index — the claim rule hands each
// index to exactly one worker (verified by the debug claim bitmap), and
// `T: Send` lets the claimed element be mutated from that worker.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for Partition<'_, T> {}
// SAFETY: as above — `&Partition` only exposes disjoint-by-contract
// element access, so sharing the handle across threads is sound.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for Partition<'_, T> {}

impl<'a, T> Partition<'a, T> {
    /// Wraps a slice. The borrow lasts as long as the partition, so the
    /// slice is inaccessible (and in particular un-aliased) for the
    /// partition's whole lifetime.
    pub fn new(s: &'a mut [T]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            #[cfg(debug_assertions)]
            claims: (0..s.len().div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            _marker: PhantomData,
        }
    }

    /// Number of elements in the partitioned slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the partitioned slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Claims element `i` and returns a `&mut` to it.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds, and each index may be granted **at most
    /// once** over the partition's lifetime, by whichever worker claimed
    /// it (the exec layer's static chunk ownership is exactly such a
    /// guarantee). Debug builds
    /// panic on any overlapping grant; release builds rely on the
    /// contract.
    // `&mut` out of `&self` is the point of the type: the partition is
    // shared across workers and the claim discipline (not the borrow
    // checker) serialises element access.
    #[allow(clippy::mut_from_ref)]
    #[allow(unsafe_code)]
    pub unsafe fn grant(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "grant({i}) out of bounds (len {})", self.len);
        #[cfg(debug_assertions)]
        self.claim(i);
        // SAFETY: `i` is in bounds (caller contract, debug-asserted) and
        // the at-most-once grant discipline (debug-verified above) means
        // no other `&mut` to this element exists.
        unsafe { &mut *self.ptr.add(i) }
    }

    /// Records the claim of index `i`, panicking if it was already
    /// claimed. `fetch_or` is an atomic read-modify-write, so of two
    /// racing claimants exactly one observes the bit clear — the overlap
    /// is detected no matter how the race interleaves (`Relaxed`
    /// suffices: RMW atomicity, not ordering, is what the check needs,
    /// and the bitmap carries no result data).
    #[cfg(debug_assertions)]
    fn claim(&self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        // Relaxed ordering: RMW atomicity alone detects the double
        // grant (doc comment above); the bitmap carries no result data.
        let prev = self.claims[word].fetch_or(bit, Ordering::Relaxed);
        assert!(
            prev & bit == 0,
            "overlapping Partition grant: index {i} granted twice"
        );
    }

    /// Number of indices granted so far. Debug builds only — the claim
    /// bitmap does not exist in release.
    #[cfg(debug_assertions)]
    pub fn granted(&self) -> usize {
        self.claims
            .iter()
            // Relaxed ordering: debug-only census of claim bits; no
            // other memory is published through the bitmap.
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{SchedulerPolicy, WorkerPool};
    // Only the debug-gated overlap tests unwind.
    #[cfg(debug_assertions)]
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    // Exercises the unsafe grant API directly; every site
    // below carries its own SAFETY comment.
    #[allow(unsafe_code)]
    fn disjoint_grants_mutate_their_own_elements() {
        let mut data = vec![0usize; 100];
        {
            let part = Partition::new(&mut data);
            assert_eq!(part.len(), 100);
            assert!(!part.is_empty());
            for i in 0..100 {
                // SAFETY: each index granted exactly once, in bounds.
                unsafe { *part.grant(i) = i + 1 };
            }
            #[cfg(debug_assertions)]
            assert_eq!(part.granted(), 100);
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "granted twice")]
    // Exercises the unsafe grant API directly; every site
    // below carries its own SAFETY comment.
    #[allow(unsafe_code)]
    fn overlapping_grant_panics_in_debug() {
        let mut data = vec![0u8; 8];
        let part = Partition::new(&mut data);
        // SAFETY: first grant of index 3 is legal; the test then breaks
        // the contract on purpose to pin the debug detection.
        unsafe {
            *part.grant(3) = 1;
            let _ = part.grant(3);
        }
    }

    /// The cross-thread detection path: two pool workers claim the same
    /// index, one must panic (and the pool propagates it).
    #[cfg(debug_assertions)]
    #[test]
    // Exercises the unsafe grant API directly; every site
    // below carries its own SAFETY comment.
    #[allow(unsafe_code)]
    fn overlapping_grants_across_pool_workers_are_detected() {
        let pool = WorkerPool::new(4);
        let mut data = vec![0usize; 4];
        let part = Partition::new(&mut data);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|_w| {
                // Every worker claims index 0: a deliberate overlap.
                // SAFETY: deliberately unsound claim pattern — the debug
                // bitmap must catch it; this is the negative test.
                unsafe { *part.grant(0) = 1 };
            });
        }));
        assert!(r.is_err(), "overlapping cross-thread grants must panic");
    }

    /// Every index claimed by a claim-rule run lands exactly one grant:
    /// the partition check passes on a real dispatch pattern (257 items
    /// over 4 workers leaves a ragged last chunk).
    #[test]
    fn claim_rule_grants_are_disjoint() {
        let pool = WorkerPool::new(4);
        let mut data = vec![0usize; 257];
        pool.exec(SchedulerPolicy::Static)
            .for_each(&mut data, |i, v| *v = i);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i));
    }

    /// Release builds must carry no claim state: the partition is a
    /// pointer + length, nothing else.
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_partition_is_two_words() {
        assert_eq!(
            std::mem::size_of::<Partition<'_, f64>>(),
            2 * std::mem::size_of::<usize>()
        );
    }
}
