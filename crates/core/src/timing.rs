//! Per-equation, per-phase timing accumulation.
//!
//! Mirrors the breakdowns of the paper's Figures 6 and 7: for each
//! equation system, the time spent in graph computation + physics, local
//! assembly, global assembly, preconditioner setup, and solve.

use std::collections::BTreeMap;
use std::time::Instant;

/// Assembly/solve phase of one equation system (the sub-bars of Figs. 6/7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Sparsity-pattern computation + physics evaluation (purple).
    GraphPhysics,
    /// Local COO fill (green).
    LocalAssembly,
    /// Algorithm 1/2 global assembly (red).
    GlobalAssembly,
    /// Preconditioner (AMG/SGS2) setup (blue).
    PrecondSetup,
    /// Preconditioned GMRES solve (orange).
    Solve,
}

impl Phase {
    /// All phases in plot order.
    pub const ALL: [Phase; 5] = [
        Phase::GraphPhysics,
        Phase::LocalAssembly,
        Phase::GlobalAssembly,
        Phase::PrecondSetup,
        Phase::Solve,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::GraphPhysics => "graph+physics",
            Phase::LocalAssembly => "local assembly",
            Phase::GlobalAssembly => "global assembly",
            Phase::PrecondSetup => "precond setup",
            Phase::Solve => "solve",
        }
    }

    /// The perf-trace phase label for an equation (used by the machine
    /// model to price each sub-bar separately).
    pub fn trace_label(self, eq: &str) -> String {
        format!("{eq}/{}", self.label())
    }

    /// Inverse of [`Phase::label`].
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.label() == label)
    }

    /// Inverse of [`Phase::trace_label`]: split an `"{eq}/{phase}"` perf
    /// label back into its equation and phase. This is the single place
    /// where trace labels are interpreted; downstream consumers (bench
    /// pricing, telemetry) must use it instead of string-matching label
    /// text themselves.
    pub fn parse_trace_label(label: &str) -> Option<(&str, Phase)> {
        let (eq, rest) = label.rsplit_once('/')?;
        Some((eq, Phase::from_label(rest)?))
    }
}

/// Accumulated wall-clock seconds per (equation, phase).
#[derive(Clone, Debug, Default)]
pub struct Timings {
    acc: BTreeMap<(String, Phase), f64>,
}

impl Timings {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time `f`, attributing the wall-clock to `(eq, phase)`.
    pub fn time<R>(&mut self, eq: &str, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        *self.acc.entry((eq.to_string(), phase)).or_insert(0.0) +=
            start.elapsed().as_secs_f64();
        out
    }

    /// Add seconds directly.
    pub fn add(&mut self, eq: &str, phase: Phase, seconds: f64) {
        *self.acc.entry((eq.to_string(), phase)).or_insert(0.0) += seconds;
    }

    /// Accumulated seconds for `(eq, phase)`.
    pub fn get(&self, eq: &str, phase: Phase) -> f64 {
        self.acc.get(&(eq.to_string(), phase)).copied().unwrap_or(0.0)
    }

    /// Total over everything.
    pub fn total(&self) -> f64 {
        self.acc.values().sum()
    }

    /// Equations seen, sorted.
    pub fn equations(&self) -> Vec<String> {
        let mut eqs: Vec<String> = self.acc.keys().map(|(e, _)| e.clone()).collect();
        eqs.sort();
        eqs.dedup();
        eqs
    }

    /// Iterate `((equation, phase), seconds)` in BTreeMap order:
    /// alphabetical by equation, then plot (declaration) order by phase.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Phase, f64)> {
        self.acc.iter().map(|((eq, ph), &s)| (eq.as_str(), *ph, s))
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &Timings) {
        for ((eq, phase), secs) in &other.acc {
            *self.acc.entry((eq.clone(), *phase)).or_insert(0.0) += secs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates() {
        let mut t = Timings::new();
        let v = t.time("continuity", Phase::Solve, || 42);
        assert_eq!(v, 42);
        t.add("continuity", Phase::Solve, 1.0);
        t.add("continuity", Phase::PrecondSetup, 0.5);
        assert!(t.get("continuity", Phase::Solve) >= 1.0);
        assert_eq!(t.get("continuity", Phase::PrecondSetup), 0.5);
        assert_eq!(t.get("momentum", Phase::Solve), 0.0);
        assert!(t.total() >= 1.5);
    }

    #[test]
    fn merge_and_listing() {
        let mut a = Timings::new();
        a.add("momentum", Phase::LocalAssembly, 1.0);
        let mut b = Timings::new();
        b.add("momentum", Phase::LocalAssembly, 2.0);
        b.add("scalar", Phase::Solve, 1.0);
        a.merge(&b);
        assert_eq!(a.get("momentum", Phase::LocalAssembly), 3.0);
        assert_eq!(a.equations(), vec!["momentum".to_string(), "scalar".to_string()]);
        assert_eq!(a.total(), 4.0);
    }

    #[test]
    fn trace_labels_are_namespaced() {
        assert_eq!(
            Phase::Solve.trace_label("continuity"),
            "continuity/solve"
        );
        assert_eq!(Phase::ALL.len(), 5);
    }

    #[test]
    fn trace_label_round_trips_for_every_phase() {
        for ph in Phase::ALL {
            assert_eq!(Phase::from_label(ph.label()), Some(ph));
            let label = ph.trace_label("momentum_x");
            assert_eq!(Phase::parse_trace_label(&label), Some(("momentum_x", ph)));
        }
        assert_eq!(Phase::parse_trace_label("no-slash"), None);
        assert_eq!(Phase::parse_trace_label("eq/unknown phase"), None);
    }

    #[test]
    fn iter_yields_plot_order_within_equation() {
        let mut t = Timings::new();
        t.add("continuity", Phase::Solve, 1.0);
        t.add("continuity", Phase::GraphPhysics, 2.0);
        t.add("continuity", Phase::PrecondSetup, 3.0);
        let phases: Vec<Phase> = t.iter().map(|(_, p, _)| p).collect();
        assert_eq!(
            phases,
            vec![Phase::GraphPhysics, Phase::PrecondSetup, Phase::Solve]
        );
    }
}
