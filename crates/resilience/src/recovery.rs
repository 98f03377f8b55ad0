//! The bounded recovery escalation ladder walked by the Picard driver.
//!
//! On a [`SolveError`](crate::SolveError) the driver retries the failed
//! equation solve, escalating one rung per attempt:
//!
//! 1. [`Rebuild`](RecoveryAction::Rebuild) — re-run assembly and (for
//!    preconditioned solves) rebuild the AMG hierarchy from scratch.
//!    Clears transient corruption: a flipped halo payload or a
//!    corrupted COO triple does not survive a fresh assembly.
//! 2. [`FallbackSmoother`](RecoveryAction::FallbackSmoother) — swap the
//!    preconditioner for the cheaper, more robust rung (AMG →
//!    SGS2-smoothed fallback, SGS2 → Jacobi-Richardson), sidestepping a
//!    degenerate hierarchy.
//! 3. [`CutTimestep`](RecoveryAction::CutTimestep) — retry with the
//!    timestep scaled by [`RecoveryPolicy::dt_cut`], shrinking the
//!    advective CFL until the system is solvable.
//!
//! The ladder is bounded (one pass, no loops), every attempt emits a
//! telemetry `recovery` event, and all decisions are taken identically
//! on every rank (the triggering errors are collectively consistent),
//! so recovery is deterministic across ranks.

/// One rung of the escalation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Re-assemble the system and rebuild the preconditioner from scratch.
    Rebuild,
    /// Retry with the fallback smoother as preconditioner.
    FallbackSmoother,
    /// Retry with the timestep scaled down by `RecoveryPolicy::dt_cut`.
    CutTimestep,
}

impl RecoveryAction {
    /// The full ladder, in escalation order.
    pub const LADDER: [RecoveryAction; 3] = [
        RecoveryAction::Rebuild,
        RecoveryAction::FallbackSmoother,
        RecoveryAction::CutTimestep,
    ];

    /// Stable machine-readable label, used in telemetry `recovery` events.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryAction::Rebuild => "rebuild",
            RecoveryAction::FallbackSmoother => "fallback_smoother",
            RecoveryAction::CutTimestep => "cut_timestep",
        }
    }
}

/// How far the driver escalates before giving up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Master switch; disabled means the first [`SolveError`](crate::SolveError)
    /// aborts the step.
    pub enabled: bool,
    /// Rungs of [`RecoveryAction::LADDER`] the driver may climb
    /// (clamped to the ladder length).
    pub max_attempts: usize,
    /// Timestep scale factor applied by [`RecoveryAction::CutTimestep`].
    pub dt_cut: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_attempts: RecoveryAction::LADDER.len(),
            dt_cut: 0.5,
        }
    }
}

impl RecoveryPolicy {
    /// The ladder this policy allows, in escalation order.
    pub fn ladder(&self) -> &'static [RecoveryAction] {
        if !self.enabled {
            return &[];
        }
        let n = self.max_attempts.min(RecoveryAction::LADDER.len());
        &RecoveryAction::LADDER[..n]
    }
}

/// One recovery attempt, as reported in `StepReport` and mirrored into
/// the telemetry `recovery` event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Equation whose solve failed (`continuity`, `momentum`, `scalar`).
    pub eq: String,
    /// Timestep index at failure.
    pub step: usize,
    /// [`SolveError::kind`](crate::SolveError::kind) of the triggering error.
    pub fault: String,
    /// Human-readable detail (the error's `Display`).
    pub detail: String,
    /// [`RecoveryAction::label`] taken for this attempt.
    pub action: String,
    /// 1-based attempt index within the ladder.
    pub attempt: usize,
    /// `"recovered"` if this attempt converged, `"retry"` if the next
    /// rung was tried, `"failed"` if the ladder was exhausted.
    pub outcome: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_respects_policy_bounds() {
        let p = RecoveryPolicy::default();
        assert_eq!(
            p.ladder(),
            &[
                RecoveryAction::Rebuild,
                RecoveryAction::FallbackSmoother,
                RecoveryAction::CutTimestep
            ]
        );
        let p = RecoveryPolicy { max_attempts: 1, ..RecoveryPolicy::default() };
        assert_eq!(p.ladder(), &[RecoveryAction::Rebuild]);
        let p = RecoveryPolicy { max_attempts: 99, ..RecoveryPolicy::default() };
        assert_eq!(p.ladder().len(), 3);
        let p = RecoveryPolicy { enabled: false, ..RecoveryPolicy::default() };
        assert!(p.ladder().is_empty());
    }

    #[test]
    fn action_labels_are_distinct() {
        let mut labels: Vec<&str> =
            RecoveryAction::LADDER.iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), RecoveryAction::LADDER.len());
    }
}
