//! Distributed sparse matrices and vectors (the hypre ParCSR stand-in).
//!
//! Matrices and vectors are distributed in 1-D block-row fashion across
//! the ranks of a [`parcomm::Comm`], exactly as hypre distributes them
//! (§3.3 of the paper). Each rank stores:
//!
//! - a **diag** block: local rows × local columns, and
//! - an **offd** block: local rows × external columns, with a
//!   `col_map_offd` array mapping compressed external column ids back to
//!   global ids — "an efficient decomposition for performing a Sparse
//!   Matrix Vector Multiply in parallel".
//!
//! [`ij`] implements the paper's Algorithm 1 (global matrix assembly) and
//! Algorithm 2 (global vector assembly) on top of the Thrust-style
//! primitives, including the `nnz_recv` pre-computation that lets buffers
//! be allocated up front, and the plans that replay both algorithms for
//! new values on a fixed pattern. [`ops`] provides the distributed SpGEMM,
//! transpose, and Galerkin RAP used by AMG setup.

pub mod dist;
pub mod halo;
pub mod ij;
pub mod ops;
pub mod parcsr;
pub mod vector;

pub use dist::RowDist;
pub use halo::Halo;
pub use ij::{AssemblyPlan, IjMatrix, IjVector, VectorPlan};
pub use parcsr::{CommPkg, HaloInFlight, ParCsr, ParCsrPattern};
pub use vector::ParVector;
