//! Global counting sort by cell key.
//!
//! The paper's `GlobalSortParticlesByCell` uses a counting sort to reorder
//! particle *data* into cell order (restoring memory coherence that the
//! index-only GPMA maintenance cannot provide), then rebuilds the GPMA.
//! This module provides the permutation computation plus operation counts
//! for the cost model.

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
    /// Attribute gather buffer of the permutation
    /// ([`crate::ParticleSoA::permute_with`]).
    pub attr_buf: Vec<f64>,
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

#[cfg(test)]
mod tests {
    use super::*;

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
