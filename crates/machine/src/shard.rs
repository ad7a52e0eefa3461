//! Deterministic contiguous chunk decomposition for parallel emulation.
//!
//! The parallel pipeline's bit-identity guarantee rests on one
//! invariant: per-tile work must be chargeable as a pure function of the
//! tile (worker machines fork with a private cold cache), and per-tile
//! outputs must merge back in **global tile order** no matter how tiles
//! were distributed over threads. The execution layer ([`crate::exec`])
//! owns the distribution and merge; this module owns the one chunk
//! scheme its claim rule and every chunk-granular phase (counting-sort
//! histograms, Maxwell Z slabs) use, so no phase can disagree with the
//! claim rule about which worker owns which items.

/// Contiguous chunk decomposition of `len` items over at most `workers`
/// shards: `ceil(len / workers)` items per shard, last shard ragged.
///
/// This is the single chunk scheme every statically sharded phase uses.
/// Returns `(start, end)` half-open ranges covering `0..len` exactly, in
/// ascending order; empty when `len == 0`.
pub fn shard_bounds(len: usize, workers: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, len);
    let per = len.div_ceil(workers);
    (0..len.div_ceil(per))
        .map(|w| (w * per, ((w + 1) * per).min(len)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_cover_exactly_in_order() {
        for len in [0usize, 1, 2, 7, 11, 64] {
            for workers in [1usize, 2, 3, 4, 7, 100] {
                let b = shard_bounds(len, workers);
                let mut next = 0;
                for &(s, e) in &b {
                    assert_eq!(s, next, "len {len} workers {workers}: gap/overlap");
                    assert!(e > s, "len {len} workers {workers}: empty chunk");
                    next = e;
                }
                assert_eq!(next, len, "len {len} workers {workers}: not covered");
                assert!(b.len() <= workers.max(1));
            }
        }
    }
}
