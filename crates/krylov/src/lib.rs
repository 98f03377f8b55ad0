//! Krylov solvers and GPU-oriented smoothers/preconditioners.
//!
//! Implements §4.2 of the paper:
//!
//! - **GMRES** with two orthogonalization strategies: classical modified
//!   Gram-Schmidt (one global reduction per basis vector) and the
//!   **one-reduce** low-synchronization variant of Świrydowicz et al.
//!   that the Nalu-Wind time integrator uses ([`gmres`]).
//! - **Hybrid Gauss-Seidel**: neighbour halo exchange, then process-local
//!   relaxation sweeps ([`smoothers::HybridGs`]).
//! - **Two-stage Gauss-Seidel**: the sparse triangular solve replaced by
//!   Jacobi-Richardson inner iterations, Eqs. (4)–(7)
//!   ([`smoothers::TwoStageGs`]).
//! - **SGS2**: the compact two-stage *symmetric* Gauss-Seidel
//!   preconditioner of Eqs. (11)–(14) used for the momentum equation
//!   ([`smoothers::Sgs2`]).

pub mod gmres;
pub mod precond;
pub mod smoothers;

pub use gmres::{Gmres, GmresStats, OrthoStrategy};
pub use precond::{IdentityPrecond, JacobiPrecond, Preconditioner};
pub use smoothers::{HybridGs, Sgs2, TwoStageGs};
