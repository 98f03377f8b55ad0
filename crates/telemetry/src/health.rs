//! Solver-health degradation detector (ROADMAP item 2's trigger).
//!
//! [`crate::Event::StepHealth`] gives every timestep a compact health
//! row: per-equation GMRES iteration counts and final residuals (from
//! which [`EqHealthRow::rate`] derives the residual-reduction rate) and
//! AMG grid/operator complexity; the step's recovery-ladder activity is
//! its count of `recovery` events. [`HealthDetector`] consumes those
//! samples in step order and emits typed [`Verdict`]s when a metric
//! degrades against its own EWMA baseline:
//!
//! - the baseline is an exponentially-weighted moving average (α =
//!   [`EWMA_ALPHA`]) learned over a [`WARMUP`]-step warmup;
//! - after warmup the baseline only absorbs *non-exceeding* samples, so
//!   a genuine degradation cannot drag its own reference up;
//! - a verdict fires when a metric exceeds its threshold [`WINDOW`]
//!   steps in a row, once per streak — a single noisy step is ignored,
//!   and a sustained plateau does not re-alarm every step.
//!
//! The detector is a pure function of its (deterministic) inputs: it
//! reads no clock and allocates nothing observable to the solver, so
//! `core::sim` runs it unconditionally without perturbing the
//! telemetry-off bitwise determinism guarantee, for the launcher's
//! status line. Verdicts are not written to the stream: [`crate::Report`]
//! replays the detector over rank 0's rows and gets the same ones. This
//! is the API the future lagged-AMG-hierarchy-reuse policy consumes:
//! "re-coarsen only when convergence telemetry degrades" is exactly a
//! [`DegradationKind::GmresIters`] / [`DegradationKind::ResidualRate`]
//! verdict on the pressure equation.

use crate::event::EqHealthRow;
use crate::Event;
use std::collections::BTreeMap;

/// EWMA smoothing factor for the per-metric baseline.
pub const EWMA_ALPHA: f64 = 0.3;
/// Samples absorbed into the baseline before any exceed judgment.
pub const WARMUP: u64 = 3;
/// Consecutive exceeding samples required before a verdict fires.
pub const WINDOW: u64 = 2;

/// What kind of degradation a [`Verdict`] reports. Wire-stable: the
/// label names it in the report and in a launched worker's progress
/// record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationKind {
    /// GMRES iterations grew well past baseline (preconditioner going
    /// stale, mesh/flow change, …).
    GmresIters,
    /// Residual-reduction rate per iteration dropped — the solver works
    /// harder for each decade of convergence.
    ResidualRate,
    /// AMG grid/operator complexity shifted either direction — the
    /// hierarchy being built no longer resembles the baseline one.
    AmgComplexity,
    /// The recovery ladder fired after a clean warmup.
    RecoveryStorm,
}

impl DegradationKind {
    pub const ALL: [DegradationKind; 4] = [
        DegradationKind::GmresIters,
        DegradationKind::ResidualRate,
        DegradationKind::AmgComplexity,
        DegradationKind::RecoveryStorm,
    ];

    /// Stable label, e.g. `gmres-iters`.
    pub fn label(self) -> &'static str {
        match self {
            DegradationKind::GmresIters => "gmres-iters",
            DegradationKind::ResidualRate => "residual-rate",
            DegradationKind::AmgComplexity => "amg-complexity",
            DegradationKind::RecoveryStorm => "recovery-storm",
        }
    }
}

/// One step's health inputs, as `core::sim` measures them.
#[derive(Clone, Debug, Default)]
pub struct HealthSample {
    /// Per-equation GMRES iterations and residual reduction.
    pub eqs: Vec<EqHealthRow>,
    /// AMG hierarchy depth for the pressure preconditioner.
    pub amg_levels: u64,
    /// Σ level rows / fine rows.
    pub grid_complexity: f64,
    /// Σ level nnz / fine nnz.
    pub operator_complexity: f64,
    /// Recovery-ladder activations during this step (its `recovery`
    /// events; not part of the `step_health` row).
    pub recoveries: u64,
}

impl EqHealthRow {
    /// Residual-reduction rate: decades of relative-residual reduction
    /// per iteration, `-log10(final_rel) / iters`. Higher is healthier; 0
    /// when the solve did not converge at all. Derived here rather than
    /// carried on the wire, which has both inputs.
    pub fn rate(&self) -> f64 {
        let (iters, final_rel) = (self.iters, self.final_rel);
        if iters == 0 || final_rel.is_nan() || final_rel <= 0.0 || final_rel >= 1.0 {
            return 0.0;
        }
        -final_rel.log10() / iters as f64
    }
}

impl HealthSample {
    /// The corresponding `step_health` row.
    pub fn to_event(&self, rank: usize, step: usize) -> Event {
        Event::StepHealth {
            rank,
            step,
            eqs: self.eqs.clone(),
            amg_levels: self.amg_levels,
            grid_complexity: self.grid_complexity,
            operator_complexity: self.operator_complexity,
        }
    }
}

/// A typed degradation finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    pub step: usize,
    pub kind: DegradationKind,
    /// The equation the metric belongs to (`None` for run-wide metrics
    /// like AMG complexity or recovery activity).
    pub eq: Option<String>,
    /// The offending sample value.
    pub value: f64,
    /// The EWMA baseline it was judged against.
    pub baseline: f64,
}

/// One metric's EWMA baseline plus exceed-streak state.
#[derive(Clone, Debug, Default)]
struct Tracker {
    baseline: f64,
    samples: u64,
    streak: u64,
}

impl Tracker {
    /// Feed one sample; returns `Some(baseline)` exactly when the
    /// exceed streak crosses [`WINDOW`] (once per streak).
    fn observe(&mut self, value: f64, exceeds: impl Fn(f64, f64) -> bool) -> Option<f64> {
        if !value.is_finite() {
            return None;
        }
        if self.samples < WARMUP {
            self.baseline = if self.samples == 0 {
                value
            } else {
                EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * self.baseline
            };
            self.samples += 1;
            return None;
        }
        let base = self.baseline;
        if exceeds(value, base) {
            self.streak += 1;
            if self.streak == WINDOW {
                return Some(base);
            }
        } else {
            self.streak = 0;
            self.baseline = EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * self.baseline;
            self.samples += 1;
        }
        None
    }
}

/// Rolling EWMA-baseline degradation detector over [`HealthSample`]s.
#[derive(Clone, Debug, Default)]
pub struct HealthDetector {
    trackers: BTreeMap<(DegradationKind, String), Tracker>,
    last: Option<Verdict>,
}

impl HealthDetector {
    pub fn new() -> HealthDetector {
        HealthDetector::default()
    }

    /// Most recent verdict ever emitted, for status lines.
    pub fn last_verdict(&self) -> Option<&Verdict> {
        self.last.as_ref()
    }

    /// Feed one step's sample; returns the verdicts it triggers (in
    /// deterministic kind-then-equation order).
    pub fn observe(&mut self, step: usize, sample: &HealthSample) -> Vec<Verdict> {
        let mut out = Vec::new();
        let mut judge =
            |trackers: &mut BTreeMap<(DegradationKind, String), Tracker>,
             kind: DegradationKind,
             eq: Option<&str>,
             value: f64,
             exceeds: &dyn Fn(f64, f64) -> bool| {
                let key = (kind, eq.unwrap_or("").to_string());
                let tracker = trackers.entry(key).or_default();
                if let Some(baseline) = tracker.observe(value, exceeds) {
                    out.push(Verdict {
                        step,
                        kind,
                        eq: eq.map(str::to_string),
                        value,
                        baseline,
                    });
                }
            };
        for row in &sample.eqs {
            judge(
                &mut self.trackers,
                DegradationKind::GmresIters,
                Some(&row.eq),
                row.iters as f64,
                &|v, b| v > 1.5 * b && v >= b + 2.0,
            );
            judge(
                &mut self.trackers,
                DegradationKind::ResidualRate,
                Some(&row.eq),
                row.rate(),
                &|v, b| v < 0.5 * b,
            );
        }
        judge(
            &mut self.trackers,
            DegradationKind::AmgComplexity,
            None,
            sample.operator_complexity,
            &|v, b| (v - b).abs() > 0.2 * b.abs().max(1e-12),
        );
        // Recovery activity is judged against an always-zero healthy
        // baseline: any ladder activation after a clean warmup alarms
        // (WINDOW does not apply — one recovered fault is already news).
        let recov = self
            .trackers
            .entry((DegradationKind::RecoveryStorm, String::new()))
            .or_default();
        if recov.samples < WARMUP {
            if sample.recoveries == 0 {
                recov.samples += 1;
            }
        } else if sample.recoveries > 0 && recov.streak == 0 {
            recov.streak = 1;
            out.push(Verdict {
                step,
                kind: DegradationKind::RecoveryStorm,
                eq: None,
                value: sample.recoveries as f64,
                baseline: 0.0,
            });
        } else if sample.recoveries == 0 {
            recov.streak = 0;
        }
        out.sort_by(|a, b| (a.kind, &a.eq).cmp(&(b.kind, &b.eq)));
        if let Some(v) = out.last() {
            self.last = Some(v.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq_row(eq: &str, iters: u64, final_rel: f64) -> EqHealthRow {
        EqHealthRow { eq: eq.to_string(), iters, final_rel }
    }

    fn steady_sample() -> HealthSample {
        HealthSample {
            eqs: vec![eq_row("continuity", 10, 1e-8), eq_row("momentum", 5, 1e-8)],
            amg_levels: 3,
            grid_complexity: 1.3,
            operator_complexity: 1.5,
            recoveries: 0,
        }
    }

    #[test]
    fn silent_on_steady_series() {
        let mut det = HealthDetector::new();
        for step in 0..50 {
            assert!(det.observe(step, &steady_sample()).is_empty(), "step {step}");
        }
        assert!(det.last_verdict().is_none());
    }

    #[test]
    fn tolerates_small_noise() {
        let mut det = HealthDetector::new();
        for step in 0..50 {
            let mut s = steady_sample();
            // ±1 iteration of jitter around the baseline.
            s.eqs[0].iters = 10 + (step as u64 % 2);
            assert!(det.observe(step, &s).is_empty(), "step {step}");
        }
    }

    #[test]
    fn fires_once_per_streak_on_iteration_growth() {
        let mut det = HealthDetector::new();
        for step in 0..10 {
            assert!(det.observe(step, &steady_sample()).is_empty());
        }
        let mut degraded = steady_sample();
        // > 1.5× and ≥ +2 iterations over the ~10 baseline; the deeper
        // residual keeps the rate (0.48 vs 0.8 decades/iteration) inside
        // its envelope, so only the iteration count alarms.
        degraded.eqs[0] = eq_row("continuity", 25, 1e-12);
        assert!(det.observe(10, &degraded).is_empty(), "needs WINDOW in a row");
        let verdicts = det.observe(11, &degraded);
        assert_eq!(verdicts.len(), 1, "{verdicts:?}");
        let v = &verdicts[0];
        assert_eq!(v.kind, DegradationKind::GmresIters);
        assert_eq!(v.eq.as_deref(), Some("continuity"));
        assert_eq!(v.value, 25.0);
        assert!(v.baseline > 5.0 && v.baseline < 15.0, "{v:?}");
        // Sustained plateau: no re-alarm.
        for step in 12..20 {
            assert!(det.observe(step, &degraded).is_empty(), "step {step}");
        }
        // Recovery then a second degradation: a fresh streak re-fires.
        for step in 20..30 {
            assert!(det.observe(step, &steady_sample()).is_empty());
        }
        assert!(det.observe(30, &degraded).is_empty());
        assert_eq!(det.observe(31, &degraded).len(), 1);
        assert_eq!(det.last_verdict().unwrap().step, 31);
    }

    #[test]
    fn fires_on_residual_rate_collapse() {
        let mut det = HealthDetector::new();
        for step in 0..10 {
            assert!(det.observe(step, &steady_sample()).is_empty());
        }
        let mut slow = steady_sample();
        // Same iterations, far shallower reduction: rate collapses.
        slow.eqs[1] = eq_row("momentum", 5, 1e-2);
        det.observe(10, &slow);
        let verdicts = det.observe(11, &slow);
        assert_eq!(verdicts.len(), 1, "{verdicts:?}");
        assert_eq!(verdicts[0].kind, DegradationKind::ResidualRate);
        assert_eq!(verdicts[0].eq.as_deref(), Some("momentum"));
    }

    #[test]
    fn fires_on_complexity_shift_either_direction() {
        for target in [2.2, 0.9] {
            let mut det = HealthDetector::new();
            for step in 0..10 {
                assert!(det.observe(step, &steady_sample()).is_empty());
            }
            let mut shifted = steady_sample();
            shifted.operator_complexity = target;
            det.observe(10, &shifted);
            let verdicts = det.observe(11, &shifted);
            assert_eq!(verdicts.len(), 1, "target {target}: {verdicts:?}");
            assert_eq!(verdicts[0].kind, DegradationKind::AmgComplexity);
            assert_eq!(verdicts[0].eq, None);
        }
    }

    #[test]
    fn recovery_storm_fires_immediately_after_clean_warmup() {
        let mut det = HealthDetector::new();
        for step in 0..5 {
            assert!(det.observe(step, &steady_sample()).is_empty());
        }
        let mut stormy = steady_sample();
        stormy.recoveries = 1;
        let verdicts = det.observe(5, &stormy);
        assert_eq!(verdicts.len(), 1, "{verdicts:?}");
        assert_eq!(verdicts[0].kind, DegradationKind::RecoveryStorm);
        // Ongoing storm: one alarm, not one per step.
        assert!(det.observe(6, &stormy).is_empty());
        // Clean gap then another fault: re-fires.
        assert!(det.observe(7, &steady_sample()).is_empty());
        assert_eq!(det.observe(8, &stormy).len(), 1);
    }

    #[test]
    fn recoveries_during_warmup_do_not_poison_the_baseline() {
        let mut det = HealthDetector::new();
        let mut stormy = steady_sample();
        stormy.recoveries = 2;
        // Faults from step 0: warmup never completes cleanly, so the
        // detector stays quiet rather than normalizing the storm…
        for step in 0..3 {
            assert!(det
                .observe(step, &stormy)
                .iter()
                .all(|v| v.kind != DegradationKind::RecoveryStorm));
        }
        // …and alarms once a clean baseline finally exists.
        for step in 3..6 {
            assert!(det.observe(step, &steady_sample()).is_empty());
        }
        assert_eq!(det.observe(6, &stormy).len(), 1);
    }

    #[test]
    fn kind_labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            DegradationKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), DegradationKind::ALL.len());
    }

    #[test]
    fn rate_is_decades_per_iteration() {
        assert_eq!(eq_row("p", 4, 1e-8).rate(), 2.0);
        assert_eq!(eq_row("p", 0, 1e-8).rate(), 0.0);
        assert_eq!(eq_row("p", 5, 0.0).rate(), 0.0);
        assert_eq!(eq_row("p", 5, f64::NAN).rate(), 0.0);
        assert_eq!(eq_row("p", 5, 2.0).rate(), 0.0);
    }

    #[test]
    fn sample_round_trips_as_event() {
        let ev = steady_sample().to_event(1, 7);
        assert_eq!(Event::parse_line(&ev.to_line()).unwrap(), ev);
    }
}
