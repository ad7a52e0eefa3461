//! Current-deposition kernels for Matrix-PIC: the paper's primary
//! contribution.
//!
//! The crate provides:
//!
//! * B-spline shape functions of orders 1 (CIC) and 3 (QSP) ([`shape`]);
//! * the rhocell conflict-free accumulator and its grid reduction
//!   ([`rhocell`]);
//! * the paper's three deposition kernels, one `deposit_tile` function
//!   each — the WarpX-style direct-scatter baseline ([`scalar`]), the
//!   compiler-vectorised and hand-tuned VPU rhocell kernel
//!   ([`rhocell_vec`]), and the hybrid VPU-MPU MatrixPIC kernel
//!   ([`matrix`]);
//! * the per-step driver ([`kernel::Depositor`]) that wires sorting
//!   strategies (none / incremental GPMA / global-every-step) around its
//!   configuration's kernel; and
//! * the named configuration registry ([`configs::KernelConfig`]) mapping
//!   the paper's table rows to runnable drivers: which kernel, staging
//!   style, snapshot name and sorting strategy each row runs.
//!
//! Every kernel is validated against the pure scalar reference
//! ([`scalar::reference_deposit`]); see `tests/equivalence.rs`.

pub mod common;
pub mod configs;
pub mod kernel;
pub mod matrix;
pub mod rhocell;
pub mod rhocell_vec;
pub mod scalar;
pub mod shape;

pub use common::{
    stage_particle, velocity_from_u, AddrMap, PrepStyle, Staged, Staging, TileScratch,
};
pub use configs::KernelConfig;
pub use kernel::{Depositor, SortStrategy, StepSortReport};
pub use rhocell::Rhocell;
pub use scalar::reference_deposit;
pub use shape::{canonical_flops_per_particle, ShapeOrder};
