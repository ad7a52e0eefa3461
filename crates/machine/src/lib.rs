//! Emulated execution platform for Matrix-PIC.
//!
//! The paper evaluates on the "LX2" CPU of the LS pilot system: a
//! many-core processor whose cores pair a 512-bit FP64 Vector Processing
//! Unit (VPU) with a Matrix Processing Unit (MPU) executing 8x8 FP64
//! Matrix-Outer-Product-Accumulate (MOPA) instructions at roughly 4x the
//! VPU's multiply-accumulate FLOP rate (paper section 5.1). That hardware is
//! restricted-access, so this crate provides a *cycle-modeled emulator*:
//!
//! * every emulated instruction executes the **real f64 arithmetic**, so
//!   kernels written against this crate are numerically verifiable against
//!   a scalar reference;
//! * every instruction simultaneously charges cycles from a parameterised
//!   cost model ([`MachineConfig`]) into per-phase performance counters
//!   ([`PerfCounters`]) — through the [`Meter`] of an open phase scope
//!   ([`Machine::in_phase`]), which holds the counters it adds to for as
//!   long as the scope runs — and memory operations consult a two-level
//!   set-associative cache model ([`MemSystem`]) so that data-locality
//!   effects (the whole point of the paper's incremental sorter) are
//!   reflected in the reported cycle counts.
//!
//! The crate also contains a SIMT cost model ([`gpu::GpuModel`]) of the
//! NVIDIA A800 baseline used in the paper's Table 3 cross-platform
//! efficiency comparison: it replays the same deposition workload at warp
//! granularity and measures atomic-conflict serialisation from the actual
//! particle stream.
//!
//! # Example
//!
//! ```
//! use mpic_machine::{Machine, MachineConfig, Phase};
//!
//! let mut m = Machine::new(MachineConfig::lx2());
//! let c = m.in_phase(Phase::Compute, |k| {
//!     let a = k.v_splat(2.0);
//!     let b = k.v_splat(3.0);
//!     k.v_mul(a, b)
//! });
//! assert_eq!(c.lane(0), 6.0);
//! assert!(m.counters().cycles(Phase::Compute) > 0.0);
//! ```

// Unsafe sites (the exec layer's lifetime-erased job pointer) must wrap
// each unsafe operation explicitly even inside `unsafe fn`, so every
// site carries its own SAFETY comment.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod cost;
pub mod counters;
pub mod exec;
pub mod gpu;
pub mod lines;
pub mod machine;
pub mod mem;
pub mod shard;
pub mod sync;
pub mod vect;
pub mod vreg;

pub use cache::{
    CacheLevelConfig, CacheLevelState, CacheSimState, CacheStats, MemStats, MemSystem,
};
pub use cost::MachineConfig;
pub use counters::{MachineCounters, PerfCounters, Phase};
pub use exec::{Exec, ExecError, FaultKind, FaultPlan, PoolCore, SchedulerPolicy, WorkerPool};
pub use gpu::{GpuConfig, GpuDepositionReport, GpuModel};
pub use lines::{LineCarry, TensorBlock};
pub use machine::{Machine, Meter, Pricing, TileId};
pub use mem::VAddr;
pub use shard::shard_bounds;
pub use sync::{StdSync, SyncPrims};
pub use vect::Lanes;
pub use vreg::{VReg, VLANES};
