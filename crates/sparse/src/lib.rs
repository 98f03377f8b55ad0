//! Local (on-rank) sparse linear algebra kernels.
//!
//! This crate is the stand-in for the CUDA/Thrust/cuSPARSE layer of the
//! SC'21 paper: Thrust-style `stable_sort_by_key`/`reduce_by_key`
//! primitives ([`prims`]), COO and CSR storage ([`coo`], [`csr`]),
//! a hash-based SpGEMM modeled on hypre's own (plus a sort/merge "ESC"
//! SpGEMM as the cuSPARSE-style comparator, [`spgemm`]), and the Galerkin
//! triple product used by AMG setup ([`rap`]). Every solver operator is
//! CSR ([`policy`]); SELL-C-σ storage ([`sellcs`]) stays only as the
//! comparator that the end-to-end benchmark's SpMV probe times.
//!
//! Every kernel runs serially on its rank; the paper's device-thread
//! parallelism is priced, not run: all kernels expose cost estimators
//! ([`cost`]) so callers can record bytes/flops into per-rank traces.

pub mod coo;
pub mod cost;
pub mod csr;
pub mod dense;
pub mod policy;
pub mod prims;
pub mod rap;
pub mod sellcs;
pub mod spgemm;

pub use coo::Coo;
pub use csr::Csr;
pub use policy::KernelPolicy;
pub use sellcs::SellCs;
