//! BoomerAMG-style distributed algebraic multigrid (§4.1 of the paper).
//!
//! The setup phase builds a multilevel hierarchy with:
//!
//! - classical **strength of connection** with threshold θ ([`strength`]),
//! - **PMIS coarsening** (Luby-style random maximal independent set,
//!   massively parallel; seeded deterministic randomness) ([`pmis`]),
//! - **interpolation** operators: direct/BAMG-direct with the closed-form
//!   weights of Eq. (2), and the matrix-matrix-based extended operators
//!   "MM-ext" and "MM-ext+i" built entirely from sparse M-M products and
//!   diagonal scalings with FF/FC submatrices ([`interp`]),
//! - **A-1 aggressive coarsening** on the first levels: a second PMIS on
//!   the `S² + S` pattern of the first-pass C-points, combined with
//!   two-stage interpolation `P = P1·P2` ([`hierarchy`]),
//! - Galerkin **triple products** via a distributed row-by-row SpGEMM
//!   with a dense accumulator ([`distmat::ops::par_rap`]).
//!
//! The solve phase ([`cycle`]) runs V-cycles with the two-stage
//! Gauss-Seidel smoother of §4.2, with a replicated dense LU at the
//! coarsest level, and implements [`krylov::Preconditioner`] so it can
//! precondition the one-reduce GMRES on the pressure-Poisson system.

pub mod coarse;
pub mod config;
pub mod cycle;
pub mod hierarchy;
pub mod interp;
pub mod pmis;
pub mod reuse;
pub mod strength;

pub use config::{AmgConfig, InterpType};
pub use cycle::AmgPrecond;
pub use hierarchy::{AmgHierarchy, AmgLevel};
pub use reuse::AmgReuse;
pub use pmis::CfState;
