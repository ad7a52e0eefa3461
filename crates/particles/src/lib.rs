//! Particle management for Matrix-PIC: Structure-of-Arrays storage, the
//! Gapped Packed Memory Array (GPMA) incremental sorter, counting-sort
//! global reordering, and the adaptive global re-sort policy.
//!
//! This crate implements section 4.3 ("Efficient Incremental Particle
//! Sorting using GPMA") and section 4.4 ("Global Re-sorting Policy") of the
//! paper. It is deliberately free of the machine emulator: all structures
//! report *operation counts* ([`gpma::MoveStats`], [`sort::SortStats`])
//! that the kernel drivers translate into emulated cycles, keeping the
//! data-structure logic pure and directly testable.
//!
//! # Example
//!
//! ```
//! use mpic_particles::gpma::{Gpma, PendingMove};
//!
//! // Three particles in bins 0, 0 and 2 of a 4-cell tile.
//! let mut g = Gpma::build(&[0, 0, 2], 4, 0.5);
//! assert_eq!(g.bin_len(0), 2);
//! assert_eq!(g.num_particles(), 3);
//!
//! // Particle 1 moves from cell 0 to cell 3.
//! let mv = PendingMove { particle: 1, old_bin: Some(0), new_bin: Some(3) };
//! let stats = g.apply_moves(&[mv], &[0, 3, 2]);
//! assert_eq!(g.bin_len(0), 1);
//! assert_eq!(g.bin_len(3), 1);
//! assert_eq!(stats.moves_applied, 1);
//! ```

pub mod container;
pub mod gpma;
pub mod policy;
#[cfg(test)]
mod reference;
pub mod runs;
pub mod soa;
pub mod sort;

pub use container::{Departure, ParticleContainer, ParticleTile};
pub use gpma::{Gpma, GpmaState, MoveStats, PendingMove, INVALID_PARTICLE_ID};
pub use policy::{should_sort, RankSortStats, SortReason};
pub use runs::{cell_runs, CellRun, CellRuns};
pub use soa::ParticleSoA;
pub use sort::{counting_sort_keys, counting_sort_keys_into, SortScratch, SortStats};
