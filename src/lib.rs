//! ExaWind-RS facade crate.
//!
//! Re-exports the whole workspace so examples and downstream users can
//! depend on a single crate. See the individual crates for detailed docs:
//!
//! - [`parcomm`] — simulated MPI runtime
//! - [`sparse_kit`] — local sparse kernels
//! - [`meshpart`] — RCB and multilevel graph partitioning
//! - [`windmesh`] — unstructured turbine meshes, overset, motion
//! - [`distmat`] — distributed matrices and global assembly
//! - [`amg`] — BoomerAMG-style algebraic multigrid
//! - [`krylov`] — GMRES and GPU-oriented smoothers
//! - [`nalu_core`] — the incompressible-flow solver
//! - [`machine`] — Summit/Eagle performance models
//! - [`telemetry`] — span tracing, solver metrics, phase reports
//! - [`resilience`] — solver-fault taxonomy, recovery ladder, fault injection
//!
//! [`env`] is the one place the process environment is read: binaries
//! turn it into a `SolverConfig` there, the crates above read none.

pub mod env;

pub use amg;
pub use distmat;
pub use krylov;
pub use machine;
pub use meshpart;
pub use nalu_core;
pub use parcomm;
pub use resilience;
pub use sparse_kit;
pub use telemetry;
pub use windmesh;
