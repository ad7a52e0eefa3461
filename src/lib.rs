//! # Matrix-PIC
//!
//! A Rust reproduction of *"Matrix-PIC: Harnessing Matrix Outer-product
//! for High-Performance Particle-in-Cell Simulations"* (EUROSYS '26):
//! current deposition mapped onto an emulated CPU Matrix Processing Unit
//! (8x8 FP64 outer-product-accumulate tiles), a hybrid MPU/VPU execution
//! pipeline, and an O(1)-amortised incremental particle sorter built on a
//! Gapped Packed Memory Array — embedded in a complete electromagnetic
//! PIC stack (CKC Maxwell solver, Boris pusher, SoA particle tiles,
//! moving window, laser antenna).
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`machine`] | `mpic-machine` | emulated LX2 (VPU/MPU/cache) + A800 SIMT model |
//! | [`grid`] | `mpic-grid` | 3-D arrays, Yee-staggered fields, guard cells, tiles |
//! | [`particles`] | `mpic-particles` | SoA storage, GPMA, sorting, policies |
//! | [`deposit`] | `mpic-deposit` | shape functions, rhocell, all kernels |
//! | [`solver`] | `mpic-solver` | CKC FDTD, boundaries, laser |
//! | [`push`] | `mpic-push` | field gather + Boris push |
//! | [`core`] | `mpic-core` | simulation orchestration + workloads |
//!
//! # Quickstart
//!
//! ```
//! use matrix_pic::core::workloads;
//! use matrix_pic::deposit::{KernelConfig, ShapeOrder};
//!
//! // A small uniform plasma, deposited with the full MatrixPIC stack.
//! let mut sim = workloads::uniform_plasma_sim(
//!     [8, 8, 8],
//!     4,
//!     ShapeOrder::Cic,
//!     KernelConfig::FullOpt,
//!     42,
//! );
//! sim.run(3);
//! let cfg = sim.cfg.machine.clone();
//! println!(
//!     "deposition kernel: {:.3} ms/step, {:.2e} particles/s",
//!     1e3 * sim.report().deposition_seconds(&cfg) / 3.0,
//!     sim.report().particles_per_second(&cfg),
//! );
//! ```

pub use mpic_core as core;
pub use mpic_deposit as deposit;
pub use mpic_grid as grid;
pub use mpic_machine as machine;
pub use mpic_particles as particles;
pub use mpic_push as push;
pub use mpic_solver as solver;
