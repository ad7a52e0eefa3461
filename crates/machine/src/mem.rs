//! Virtual address space and memory cost accounting.
//!
//! Emulated kernels keep their data in ordinary Rust arrays but register
//! each array with the machine to obtain a *virtual base address*. Memory
//! instructions then quote `VAddr`s so the cache simulation sees the same
//! address stream the real kernel would generate (SoA particle arrays
//! streaming, grid lines being revisited, rhocell lines staying resident).

use crate::cache::{CacheLevelConfig, CacheSim, CacheSimState, CacheStats};

/// A virtual byte address in the emulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VAddr(pub u64);

impl VAddr {
    /// Address `count` elements of `size` bytes past `self`.
    pub fn offset(self, count: usize, size: usize) -> VAddr {
        VAddr(self.0 + (count * size) as u64)
    }

    /// Address `count` f64 elements past `self`.
    pub fn offset_f64(self, count: usize) -> VAddr {
        self.offset(count, 8)
    }
}

/// The emulated memory system: a bump allocator handing out virtual
/// addresses plus the cache hierarchy charging latencies.
#[derive(Debug, Clone)]
pub struct MemSystem {
    cache: CacheSim,
    next: u64,
}

impl MemSystem {
    /// Builds a memory system over the given cache hierarchy.
    pub fn new(
        l1: CacheLevelConfig,
        l2: CacheLevelConfig,
        l1_hit_cy: f64,
        l2_hit_cy: f64,
        dram_cy: f64,
    ) -> Self {
        Self {
            cache: CacheSim::new(l1, l2, l1_hit_cy, l2_hit_cy, dram_cy),
            // Start past zero so VAddr(0) is never a valid allocation.
            next: 4096,
        }
    }

    /// Reserves `bytes` of virtual address space aligned to `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> VAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + bytes;
        VAddr(base)
    }

    /// Reserves space for `len` f64 values, cache-line aligned.
    pub fn alloc_f64(&mut self, len: usize) -> VAddr {
        self.alloc((len * 8) as u64, self.cache.line_bytes())
    }

    /// Charges a memory access covering `[addr, addr+bytes)`, returning
    /// the latency in cycles.
    pub fn access(&mut self, addr: VAddr, bytes: u64) -> f64 {
        self.cache.access(addr.0, bytes)
    }

    /// Charges one access to the cache line with id `line` — a byte
    /// address `>> line_shift()` — returning the latency in cycles; see
    /// [`CacheSim::access_line_id`].
    #[inline]
    pub fn access_line_id(&mut self, line: u64) -> f64 {
        self.cache.access_line_id(line)
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.cache.l1_stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.cache.l2_stats()
    }

    /// Invalidates the cache contents (e.g. between benchmark repetitions,
    /// or at tile boundaries in the parallel pipeline where each tile is
    /// modelled as running on a private, initially cold per-core cache).
    pub fn flush_cache(&mut self) {
        self.cache.flush();
    }

    /// Takes (and zeroes) the cache statistics:
    /// `(l1, l2, streamed_misses, random_misses)`.
    pub fn take_stats(&mut self) -> (CacheStats, CacheStats, u64, u64) {
        self.cache.take_stats()
    }

    /// Adds a worker's cache statistics into this memory system's totals.
    pub fn absorb_stats(&mut self, l1: &CacheStats, l2: &CacheStats, streamed: u64, random: u64) {
        self.cache.absorb_stats(l1, l2, streamed, random);
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.cache.line_bytes()
    }

    /// `log2(line_bytes)`; see [`CacheSim::line_shift`].
    pub fn line_shift(&self) -> u32 {
        self.cache.line_shift()
    }

    /// DRAM misses split into (streamed, random).
    pub fn miss_split(&self) -> (u64, u64) {
        (self.cache.streamed_misses, self.cache.random_misses)
    }

    /// The bump allocator's high-water mark: the next virtual address a
    /// future [`MemSystem::alloc`] would consider. Checkpoints record it
    /// so a restored machine reproduces the exact same address stream.
    pub fn alloc_mark(&self) -> u64 {
        self.next
    }

    /// Restores the bump allocator to a mark captured with
    /// [`MemSystem::alloc_mark`]. Addresses are purely virtual (data
    /// lives in host arrays), so rewinding the mark is safe as long as
    /// the caller also restores every `VAddr` handed out after the mark —
    /// exactly what snapshot restore does.
    pub fn restore_alloc_mark(&mut self, mark: u64) {
        self.next = mark;
    }

    /// Exports the cache hierarchy's behavioural state (tags, LRU
    /// clocks, prefetch streams); see [`CacheSim::export_state`].
    pub fn cache_state(&self) -> CacheSimState {
        self.cache.export_state()
    }

    /// Imports behavioural cache state captured by
    /// [`MemSystem::cache_state`]. Returns `false` on geometry mismatch
    /// (the hierarchy is left untouched).
    pub fn restore_cache_state(&mut self, s: &CacheSimState) -> bool {
        self.cache.import_state(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemSystem {
        MemSystem::new(
            CacheLevelConfig {
                size_bytes: 512,
                ways: 2,
                line_bytes: 64,
            },
            CacheLevelConfig {
                size_bytes: 2048,
                ways: 4,
                line_bytes: 64,
            },
            1.0,
            10.0,
            100.0,
        )
    }

    #[test]
    fn alloc_respects_alignment() {
        let mut m = mem();
        let a = m.alloc(10, 64);
        assert_eq!(a.0 % 64, 0);
        let b = m.alloc(8, 64);
        assert_eq!(b.0 % 64, 0);
        assert!(b.0 >= a.0 + 10);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut m = mem();
        let a = m.alloc_f64(100);
        let b = m.alloc_f64(100);
        assert!(b.0 >= a.0 + 800);
    }

    #[test]
    fn offset_math() {
        let a = VAddr(4096);
        assert_eq!(a.offset_f64(3).0, 4096 + 24);
        assert_eq!(a.offset(2, 4).0, 4096 + 8);
    }

    #[test]
    fn access_charges_cache_latency() {
        let mut m = mem();
        let a = m.alloc_f64(8);
        assert_eq!(m.access(a, 64), 100.0, "cold miss");
        assert_eq!(m.access(a, 64), 1.0, "warm hit");
    }
}
