//! Matrix-PIC simulation core: configuration, orchestration, workloads
//! and timing reports.
//!
//! A [`Simulation`] wires the full stack together — emulated machine,
//! grid, particle tiles with GPMA indices, deposition driver, Maxwell
//! solver, laser antenna, absorbers and the moving window — and runs the
//! standard PIC loop with Algorithm 1's sorting phases embedded. Every
//! phase is charged to the emulated cost model, so the accumulated
//! [`timings::RunReport`] carries the same per-phase breakdown the
//! paper's figures and tables report.
//!
//! # Example
//!
//! ```
//! use mpic_core::workloads;
//! use mpic_deposit::{KernelConfig, ShapeOrder};
//!
//! let mut sim = workloads::uniform_plasma_sim(
//!     [8, 8, 8],
//!     2,
//!     ShapeOrder::Cic,
//!     KernelConfig::FullOpt,
//!     1234,
//! );
//! sim.run(2);
//! assert_eq!(sim.step_index(), 2);
//! assert!(sim.report().deposition_cycles() > 0.0);
//! ```

mod checkpoint;
pub mod config;
pub mod driver;
pub mod simulation;
pub mod snapshot;
pub mod timings;
pub mod workloads;

pub use config::SimConfig;
pub use driver::{DriverError, RecoveryStats, ResilientDriver};
pub use simulation::{PlasmaSpec, Simulation};
pub use snapshot::SnapshotError;
pub use timings::{RunReport, StepTimings};
