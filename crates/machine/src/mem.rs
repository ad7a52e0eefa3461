//! The virtual address space.
//!
//! Emulated kernels keep their data in ordinary Rust arrays but register
//! each array with the machine to obtain a *virtual base address*
//! ([`crate::MemSystem::alloc`]). Memory instructions then quote `VAddr`s
//! so the cache model sees the same address stream the real kernel would
//! generate (SoA particle arrays streaming, grid lines being revisited,
//! rhocell lines staying resident).

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheLevelConfig, MemSystem};

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
