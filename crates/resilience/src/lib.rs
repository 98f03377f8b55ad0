//! Solver resilience: failure detection, recovery policies, and
//! deterministic fault injection.
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
//! - [`faults`] — a seeded, deterministic fault-injection harness
//!   ([`FaultPlan`], enabled via `SolverConfig::faults`; a no-op by
//!   default) that can
//!   corrupt COO triples at global assembly, flip halo payloads to NaN,
//!   and force AMG coarsening stagnation. Faults fire on the rank
//!   thread only (never inside rayon workers), so recovery behaviour is
//!   bitwise reproducible across thread counts.
//!
//! With no plan installed every hook is one thread-local read, so the
//! clean-run solve path is bit-for-bit unperturbed — proven by
//! `tests/determinism.rs`.

pub mod checkpoint;
pub mod error;
pub mod faults;
pub mod guard;
pub mod recovery;

pub use error::SolveError;
pub use faults::{FaultKind, FaultPlan, FaultSpec};
pub use recovery::{RecoveryAction, RecoveryPolicy, RecoveryRecord};
