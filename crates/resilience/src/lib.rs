//! Solver resilience: failure detection, recovery policies, and
//! checkpoint/restart.
//!
//! Blade-resolved production runs on thousands of GPUs treat
//! linear-solver failure — stalled GMRES, degenerate AMG coarsening,
//! corrupted halo payloads — as an operational reality. This crate is
//! the layer that makes the ExaWind-RS solve pipeline fail *loudly* and
//! recover *deterministically*:
//!
//! - [`SolveError`] — the failure taxonomy shared by every solver layer
//!   (`krylov`, `amg`, `distmat`, `nalu_core`). Solve APIs return
//!   `Result<_, SolveError>` instead of silently iterating through NaNs.
//! - [`guard`] — cheap finite-value scans used at the detection points
//!   (assembled operators, GMRES residual recurrence, AMG setup).
//! - [`recovery`] — the bounded escalation ladder the Picard driver
//!   walks on failure (fresh rebuild → fallback smoother → timestep
//!   cut) and the [`RecoveryRecord`]s it emits.
//! - [`checkpoint`] — versioned, bitwise-exact checkpoint/restart: per
//!   rank files on the parcomm wire codec (checksummed header, atomic
//!   tmp+rename) plus a cohort manifest naming only *complete*
//!   generations, so a killed process resumes bit-for-bit where the last
//!   finished generation left off.
//!
//! The faults this layer recovers from are injected by the rank itself:
//! `parcomm::FaultPlan`, armed on a `Rank` from `SolverConfig::faults`,
//! can corrupt COO triples at global assembly, flip halo payloads to
//! NaN, drop an exchange, force AMG coarsening stagnation and kill a
//! worker process. Its occurrence counters are part of a
//! [`checkpoint::SolverCheckpoint`].

pub mod checkpoint;
pub mod error;
pub mod guard;
pub mod recovery;

pub use error::SolveError;
pub use recovery::{RecoveryAction, RecoveryPolicy, RecoveryRecord};
