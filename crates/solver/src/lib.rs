//! Maxwell field solvers and boundary machinery for Matrix-PIC.
//!
//! Implements the grid-side substrate of the paper's WarpX host: the
//! Cole-Karkkainen-Cowan (CKC) extended-stencil FDTD solver the paper
//! configures (`algo.maxwell_solver = ckc` with `warpx.cfl = 1.0` — CKC
//! is stable at CFL 1 on cubic cells where plain Yee is not), plus the
//! boundary conditions of Appendix A Table 4:
//! periodic in all axes for uniform plasma, and a z-absorbing damping
//! layer (pseudo-PML) with a Gaussian laser antenna for LWFA.

pub mod boundary;
pub mod laser;
pub mod maxwell;

pub use boundary::absorb_z;
pub use laser::LaserAntenna;
pub use maxwell::{MaxwellSolver, SolverKind};
