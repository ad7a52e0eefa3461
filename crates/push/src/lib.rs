//! Field gather and relativistic Boris particle push.
//!
//! The gather step interpolates E and B from the grid to each particle
//! using the same B-spline shapes as deposition; together they account for
//! over 80% of the paper's Figure 1 runtime breakdown (gather + deposit).
//! The Boris rotation is the standard energy-conserving velocity update
//! used by WarpX (`algo.particle_pusher = boris`).

pub mod boris;
pub mod gather;
pub mod scratch;
pub mod sweep;

pub use boris::{boris_push, BorisCoeffs};
pub use gather::GatherCost;
pub use scratch::PushScratch;
pub use sweep::PushCtx;
