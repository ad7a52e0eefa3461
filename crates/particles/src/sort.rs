//! Global counting sort by cell key.
//!
//! The paper's `GlobalSortParticlesByCell` uses a counting sort to reorder
//! particle *data* into cell order (restoring memory coherence that the
//! index-only GPMA maintenance cannot provide), then rebuilds the GPMA.
//! This module provides the permutation computation plus operation counts
//! for the cost model.
//!
//! [`counting_sort_keys_sharded`] is the host-parallel variant: the
//! key-count histogram is split across workers on the shared
//! [`mpic_machine::shard_bounds`] chunk scheme and the per-worker prefix
//! sums are merged in fixed worker order, so the resulting permutation is
//! *identical* (not merely equivalent) to the sequential stable sort for
//! any worker count — the emulated cost model sees the same
//! [`SortStats`] either way. Threading goes through the persistent
//! [`mpic_machine::exec`] worker pool; chunk *ownership* stays pinned to
//! [`shard_bounds`] regardless of the scheduler policy, because the
//! deterministic prefix merge is defined over those chunks.

use mpic_machine::exec::{Exec, INLINE_ITEM_THRESHOLD};
use mpic_machine::shard_bounds;

/// Operation counts of one counting sort.
#[derive(Debug, Clone, Copy, Default)]
#[must_use]
pub struct SortStats {
    /// Number of keys sorted.
    pub n: usize,
    /// Number of distinct buckets.
    pub buckets: usize,
    /// Data elements moved (n per gathered attribute array).
    pub moves: usize,
}

/// Reusable buffers for the global counting sort and the incremental
/// sweep, pooled so the per-step and per-sort hot paths perform no heap
/// allocation in steady state. One instance per worker (or per
/// container when sorting is sequential). The incremental sweep's
/// per-tile buffers grow to the largest tile, its leaver lists to one
/// step's tile-leavers; re-homing groups them through `perm`/`counts`.
#[derive(Debug, Clone, Default)]
pub struct SortScratch {
    /// Live SoA slot indices gathered before keying.
    pub live: Vec<usize>,
    /// Tile-local cell keys parallel to `live`.
    pub keys: Vec<usize>,
    /// Counting-sort permutation output.
    pub perm: Vec<usize>,
    /// Counting-sort histogram / cursor buffer.
    pub counts: Vec<usize>,
    /// Composed gather permutation over SoA slots.
    pub gathered: Vec<usize>,
    /// Per-worker key histograms / placement cursors for the sharded
    /// counting sort.
    pub worker_counts: Vec<Vec<usize>>,
    /// Destination slot per input key (`dest[i]` = sorted position of
    /// key `i`), the shard-local half of the sharded placement pass.
    pub dest: Vec<usize>,
    /// Per-attribute gather buffers for
    /// [`crate::ParticleSoA::permute_sharded`] (up to one per attribute).
    pub attr_bufs: Vec<Vec<f64>>,
    /// Incremental sweep, per tile: the freshly located bin of every SoA
    /// slot (`INVALID_PARTICLE_ID` for dead slots), or a
    /// [`crate::gpma::LEAVES_TILE`] word indexing `leavers`.
    pub new_bin: Vec<usize>,
    /// Incremental sweep, per tile: `(particle, new bin)` of each mover,
    /// in walk order — the insert half of the maintenance cycle.
    pub inserts: Vec<(usize, usize)>,
    /// Every particle the locate passes of one step found outside its
    /// tile, with its destination, in source-tile-then-slot order.
    pub leavers: Vec<crate::container::Leaver>,
    /// Indices into `leavers` in source-tile-then-walk order: the order
    /// in which departures happen and arrivals are re-homed.
    pub leave_order: Vec<usize>,
    /// Destination tile of each `leave_order` entry (the re-homing sort
    /// key).
    pub leave_dest: Vec<usize>,
}

/// Computes the stable counting-sort permutation of `keys` over
/// `n_buckets` buckets.
///
/// Returns `perm` such that `keys[perm[0]] <= keys[perm[1]] <= ...`;
/// applying `perm` as a gather (`new[i] = old[perm[i]]`) sorts the data.
///
/// # Panics
///
/// Panics if any key is `>= n_buckets`.
pub fn counting_sort_keys(keys: &[usize], n_buckets: usize) -> (Vec<usize>, SortStats) {
    let mut perm = Vec::new();
    let mut counts = Vec::new();
    let stats = counting_sort_keys_into(keys, n_buckets, &mut perm, &mut counts);
    (perm, stats)
}

/// Allocation-reusing variant of [`counting_sort_keys`]: writes the
/// permutation into `perm` and uses `counts` as histogram scratch, both
/// resized as needed (no allocation once warm).
///
/// # Panics
///
/// Panics if any key is `>= n_buckets`.
pub fn counting_sort_keys_into(
    keys: &[usize],
    n_buckets: usize,
    perm: &mut Vec<usize>,
    counts: &mut Vec<usize>,
) -> SortStats {
    counts.clear();
    counts.resize(n_buckets + 1, 0);
    for &k in keys {
        assert!(k < n_buckets, "key {k} out of range");
        counts[k + 1] += 1;
    }
    for b in 0..n_buckets {
        counts[b + 1] += counts[b];
    }
    perm.clear();
    perm.resize(keys.len(), 0);
    for (i, &k) in keys.iter().enumerate() {
        perm[counts[k]] = i;
        counts[k] += 1;
    }
    SortStats {
        n: keys.len(),
        buckets: n_buckets,
        moves: keys.len(),
    }
}

/// Host-parallel stable counting sort producing the *same* permutation as
/// [`counting_sort_keys_into`] for any worker count or scheduler policy.
///
/// The algorithm shards `keys` into contiguous chunks
/// ([`shard_bounds`]), counts a private histogram per chunk in
/// parallel, then merges the prefix sums deterministically: bucket `k`'s
/// region is subdivided among chunks in ascending chunk order, which —
/// because chunks are contiguous and each is scanned in ascending index
/// order — reproduces the sequential stable placement exactly. The
/// scatter positions land in `dest` (chunk-disjoint, so the placement
/// pass is parallel too); a final O(n) inversion yields the gather-form
/// `perm`. Chunk ownership is fixed by `shard_bounds` even under the
/// stealing scheduler — the policy only decides which pool worker
/// processes a chunk, never how the prefix sums merge.
///
/// Inputs below [`INLINE_ITEM_THRESHOLD`] keys per potential worker run
/// inline (per-tile sorts of a few thousand keys are cheaper sequential
/// than a pool wake); the permutation is identical either way.
///
/// All buffers come from `scratch` and are resized in place, so a warm
/// scratch makes the sort allocation-free.
///
/// # Panics
///
/// Panics if any key is `>= n_buckets`.
pub fn counting_sort_keys_sharded(
    keys: &[usize],
    n_buckets: usize,
    exec: Exec<'_>,
    perm: &mut Vec<usize>,
    scratch: &mut SortScratch,
) -> SortStats {
    let workers = exec.workers().min(keys.len() / INLINE_ITEM_THRESHOLD + 1);
    let bounds = shard_bounds(keys.len(), workers);
    if bounds.len() <= 1 {
        // Single chunk: the sequential sort is the same permutation
        // without pool-dispatch or inversion overhead.
        return counting_sort_keys_into(keys, n_buckets, perm, &mut scratch.counts);
    }
    if scratch.worker_counts.len() < bounds.len() {
        scratch.worker_counts.resize_with(bounds.len(), Vec::new);
    }
    // Parallel per-chunk histograms.
    let mut hist_items: Vec<((usize, usize), &mut Vec<usize>)> = bounds
        .iter()
        .copied()
        .zip(scratch.worker_counts.iter_mut())
        .collect();
    exec.for_each(&mut hist_items, |_, ((lo, hi), counts)| {
        counts.clear();
        counts.resize(n_buckets, 0);
        for &k in &keys[*lo..*hi] {
            assert!(k < n_buckets, "key {k} out of range");
            counts[k] += 1;
        }
    });
    // Deterministic merge: exclusive global prefix, then per-(worker,
    // bucket) start cursors in ascending worker order.
    scratch.counts.clear();
    scratch.counts.resize(n_buckets + 1, 0);
    for w in 0..bounds.len() {
        for b in 0..n_buckets {
            scratch.counts[b + 1] += scratch.worker_counts[w][b];
        }
    }
    for b in 0..n_buckets {
        scratch.counts[b + 1] += scratch.counts[b];
    }
    for b in 0..n_buckets {
        let mut cursor = scratch.counts[b];
        for counts in scratch.worker_counts.iter_mut().take(bounds.len()) {
            let own = counts[b];
            counts[b] = cursor;
            cursor += own;
        }
    }
    // Parallel placement into chunk-disjoint `dest` slices.
    scratch.dest.clear();
    scratch.dest.resize(keys.len(), 0);
    let mut rest = scratch.dest.as_mut_slice();
    let mut place_items: Vec<(&[usize], &mut [usize], &mut Vec<usize>)> =
        Vec::with_capacity(bounds.len());
    for (&(lo, hi), cursors) in bounds.iter().zip(scratch.worker_counts.iter_mut()) {
        let (dest_chunk, tail) = rest.split_at_mut(hi - lo);
        rest = tail;
        place_items.push((&keys[lo..hi], dest_chunk, cursors));
    }
    exec.for_each(&mut place_items, |_, (chunk, dest_chunk, cursors)| {
        for (d, &k) in dest_chunk.iter_mut().zip(chunk.iter()) {
            *d = cursors[k];
            cursors[k] += 1;
        }
    });
    // Invert scatter positions into the gather permutation.
    perm.clear();
    perm.resize(keys.len(), 0);
    for (i, &d) in scratch.dest.iter().enumerate() {
        perm[d] = i;
    }
    SortStats {
        n: keys.len(),
        buckets: n_buckets,
        moves: keys.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpic_machine::exec::{SchedulerPolicy, WorkerPool};

    #[test]
    fn sorts_keys() {
        let keys = vec![3, 1, 0, 2, 1];
        let (perm, stats) = counting_sort_keys(&keys, 4);
        let sorted: Vec<usize> = perm.iter().map(|&p| keys[p]).collect();
        assert_eq!(sorted, vec![0, 1, 1, 2, 3]);
        assert_eq!(stats.n, 5);
    }

    #[test]
    fn stable_for_equal_keys() {
        let keys = vec![1, 1, 0, 1];
        let (perm, _) = counting_sort_keys(&keys, 2);
        // The three key-1 entries must preserve original order 0, 1, 3.
        assert_eq!(perm, vec![2, 0, 1, 3]);
    }

    #[test]
    fn empty_input() {
        let (perm, stats) = counting_sort_keys(&[], 8);
        assert!(perm.is_empty());
        assert_eq!(stats.moves, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_key() {
        let _ = counting_sort_keys(&[5], 4);
    }

    #[test]
    fn into_variant_matches_allocating_variant() {
        let keys: Vec<usize> = (0..257).map(|i| (i * 13 + 5) % 32).collect();
        let (perm, stats) = counting_sort_keys(&keys, 32);
        let mut perm2 = vec![99; 3]; // Stale contents must be overwritten.
        let mut counts = Vec::new();
        let stats2 = counting_sort_keys_into(&keys, 32, &mut perm2, &mut counts);
        assert_eq!(perm, perm2);
        assert_eq!(stats.n, stats2.n);
        assert_eq!(stats.moves, stats2.moves);
    }

    #[test]
    fn sharded_matches_sequential_for_any_worker_count_and_policy() {
        // Large enough that several worker counts clear the
        // INLINE_ITEM_THRESHOLD and genuinely go parallel.
        let keys: Vec<usize> = (0..30_011).map(|i| (i * 131 + 17) % 97).collect();
        let (perm, stats) = counting_sort_keys(&keys, 97);
        let mut scratch = SortScratch::default();
        for workers in [1usize, 2, 3, 4, 7, 16, 2000] {
            let pool = WorkerPool::new(workers);
            for policy in [SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
                let mut perm2 = vec![5; 7]; // Stale contents must be overwritten.
                let stats2 = counting_sort_keys_sharded(
                    &keys,
                    97,
                    pool.exec(policy),
                    &mut perm2,
                    &mut scratch,
                );
                assert_eq!(
                    perm, perm2,
                    "workers {workers} {policy:?}: permutation diverged"
                );
                assert_eq!(stats.n, stats2.n);
                assert_eq!(stats.buckets, stats2.buckets);
                assert_eq!(stats.moves, stats2.moves);
            }
        }
    }

    #[test]
    fn sharded_handles_empty_and_single() {
        let mut scratch = SortScratch::default();
        let mut perm = Vec::new();
        let pool = WorkerPool::new(3);
        let exec = pool.exec(SchedulerPolicy::Static);
        let s = counting_sort_keys_sharded(&[], 4, exec, &mut perm, &mut scratch);
        assert!(perm.is_empty());
        assert_eq!(s.n, 0);
        let s = counting_sort_keys_sharded(&[2], 4, exec, &mut perm, &mut scratch);
        assert_eq!(perm, vec![0]);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn sharded_is_stable_across_chunk_boundaries() {
        // All-equal keys: stability demands the identity permutation even
        // when the run is split mid-bucket across workers (length clears
        // the parallel threshold so chunks genuinely split the bucket).
        let n = 9_001;
        let keys = vec![3usize; n];
        let mut scratch = SortScratch::default();
        let mut perm = Vec::new();
        let pool = WorkerPool::new(4);
        let _ = counting_sort_keys_sharded(
            &keys,
            5,
            pool.exec(SchedulerPolicy::Stealing),
            &mut perm,
            &mut scratch,
        );
        assert_eq!(perm, (0..n).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sharded_rejects_out_of_range_key() {
        let mut scratch = SortScratch::default();
        let mut perm = Vec::new();
        let pool = WorkerPool::new(2);
        let _ = counting_sort_keys_sharded(
            &[5],
            4,
            pool.exec(SchedulerPolicy::Static),
            &mut perm,
            &mut scratch,
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sharded_rejects_out_of_range_key_in_parallel_histogram() {
        // Enough keys that the histogram pass genuinely runs on the pool:
        // the worker panic must propagate with its original message.
        let mut keys: Vec<usize> = vec![1; 3 * INLINE_ITEM_THRESHOLD];
        keys[2 * INLINE_ITEM_THRESHOLD] = 9; // In a non-zero chunk.
        let mut scratch = SortScratch::default();
        let mut perm = Vec::new();
        let pool = WorkerPool::new(3);
        let _ = counting_sort_keys_sharded(
            &keys,
            4,
            pool.exec(SchedulerPolicy::Static),
            &mut perm,
            &mut scratch,
        );
    }

    #[test]
    fn permutation_is_bijection() {
        let keys: Vec<usize> = (0..100).map(|i| (i * 7 + 3) % 10).collect();
        let (perm, _) = counting_sort_keys(&keys, 10);
        let mut seen = [false; 100];
        for &p in &perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
