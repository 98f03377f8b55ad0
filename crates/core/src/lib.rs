//! Nalu-Wind-style incompressible-flow solver — the paper's application
//! layer.
//!
//! A node-centered, edge-based finite-volume discretization of the
//! incompressible Navier-Stokes equations on the unstructured overset
//! meshes of [`windmesh`]:
//!
//! - **momentum**: Helmholtz-type advection-diffusion systems (one matrix,
//!   three right-hand sides), preconditioned with the compact two-stage
//!   symmetric Gauss-Seidel (SGS2) of §4.2;
//! - **continuity**: the pressure-Poisson projection, preconditioned with
//!   BoomerAMG-style AMG (aggressive first levels + MM-ext second-stage
//!   interpolation, §4.1);
//! - **scalar transport**: a turbulent-viscosity transport proxy with the
//!   same operator structure as momentum.
//!
//! Every linear system is built with the paper's three-stage pipeline
//! (§3): *graph computation* (exact sparsity + precomputed write slots),
//! *local assembly* (edge-by-edge adds of the owned/shared COO values
//! into those slots), and
//! *global assembly* (Algorithms 1 and 2 in [`distmat::ij`]). Overset
//! meshes are coupled by additive-Schwarz outer (Picard) iterations that
//! re-interpolate fringe values from donor meshes each pass, and rotor
//! meshes rotate rigidly between time steps with connectivity updates.
//!
//! Per-equation, per-phase wall-clock timings and operation traces are
//! collected for the paper's Figure 3/6/7/8/9/11 reproductions.

pub mod assemble;
pub mod dofmap;
pub mod eqsys;
pub mod graph;
pub mod sim;
pub mod state;
pub mod timing;

pub use dofmap::{DofMap, PartitionMethod};
pub use eqsys::EqKind;
pub use parcomm::FaultPlan;
pub use resilience::{RecoveryAction, RecoveryPolicy, RecoveryRecord, SolveError};
pub use sim::{CheckpointCfg, Simulation, SolverConfig, StepReport};
pub use timing::{Phase, Timings};
