//! End-of-run report: aggregate an event stream into the paper's
//! observability artifacts and render them as ASCII or JSON.
//!
//! - per-equation, per-phase stacked wall-clock breakdowns (Figs. 6/7),
//! - per-level AMG hierarchy tables with grid/operator complexity
//!   (Tables 2–4),
//! - per-equation GMRES iteration counts, final residuals, and the
//!   convergence trajectory of the last solve,
//! - the rank×rank communication matrix, per-phase wait-vs-compute rank
//!   imbalance (the paper's parallel-efficiency diagnostic), and
//!   per-collective latency histograms,
//! - the span tree, counters, and histograms.
//!
//! All aggregation maps are `BTreeMap`s, so rendering is deterministic
//! for a given event stream.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{AmgLevelRow, Event};
use crate::health::{HealthDetector, HealthSample, Verdict};
use crate::histogram::{LogHistogram, UNDERFLOW_BUCKET};
use crate::trace::{span_depth, EdgeView, StepPath, Timeline};

/// Aggregated GMRES statistics for one equation system.
#[derive(Clone, Debug, Default)]
pub struct GmresSummary {
    pub solves: u64,
    pub total_iters: u64,
    pub min_iters: u64,
    pub max_iters: u64,
    pub converged: u64,
    pub last_final_rel: f64,
    pub last_history: Vec<f64>,
}

/// Aggregated AMG setup statistics for one equation system.
#[derive(Clone, Debug, Default)]
pub struct AmgSummary {
    pub setups: u64,
    pub levels: Vec<AmgLevelRow>,
    pub grid_complexity: f64,
    pub operator_complexity: f64,
}

/// Aggregated recovery attempts for one `(equation, fault)` pair.
#[derive(Clone, Debug, Default)]
pub struct RecoverySummary {
    /// Ladder attempts walked (rank-0 events only; attempts are
    /// collective).
    pub attempts: u64,
    /// Attempts that ended the episode successfully.
    pub recovered: u64,
    /// Attempts that exhausted the ladder.
    pub failed: u64,
    /// Escalation actions in event order, e.g. `rebuild -> cut_timestep`.
    pub actions: Vec<String>,
    /// Outcome of the most recent attempt.
    pub last_outcome: String,
}

/// Checkpoint/restart activity aggregated over the stream.
#[derive(Clone, Debug, Default)]
pub struct CheckpointSummary {
    /// Completed generations (rank-0 `checkpoint` events; a generation
    /// is collective, every rank writes one file).
    pub generations: u64,
    /// Newest generation written.
    pub last_generation: Option<u64>,
    /// Checkpoint bytes written, summed over ranks and generations.
    pub bytes: u64,
    /// Seconds spent serializing + syncing, summed over ranks.
    pub secs: f64,
    /// Restores observed (rank-0 `restore` events).
    pub restores: u64,
    /// Generation the most recent restore resumed from.
    pub restored_from: Option<u64>,
}

impl CheckpointSummary {
    /// Whether the stream carried any checkpoint/restart activity.
    pub fn is_empty(&self) -> bool {
        self.generations == 0 && self.restores == 0 && self.bytes == 0
    }
}

/// Per-path span aggregate.
#[derive(Clone, Debug, Default)]
pub struct SpanSummary {
    pub count: u64,
    pub total_secs: f64,
}

/// One hot kernel aggregated over ranks: calls/traffic/work summed,
/// seconds summed over ranks (rank-seconds). Achieved rates are
/// therefore *mean per-rank* throughput — the number to hold against the
/// single-core STREAM baseline.
#[derive(Clone, Debug, Default)]
pub struct KernelSummary {
    pub calls: u64,
    pub secs: f64,
    pub bytes: u64,
    pub flops: u64,
    pub dofs: u64,
}

impl KernelSummary {
    pub fn gb_per_s(&self) -> f64 {
        if self.secs > 0.0 { self.bytes as f64 / self.secs / 1e9 } else { 0.0 }
    }

    pub fn gflop_per_s(&self) -> f64 {
        if self.secs > 0.0 { self.flops as f64 / self.secs / 1e9 } else { 0.0 }
    }

    pub fn mdof_per_s(&self) -> f64 {
        if self.secs > 0.0 { self.dofs as f64 / self.secs / 1e6 } else { 0.0 }
    }
}

/// One directed communication edge aggregated over the stream. Each
/// `(src, dst, class)` edge is reported by up to two streams (sender and
/// receiver, with identical totals by construction); aggregation prefers
/// the sender's view and falls back to the receiver's when only one
/// endpoint's stream was merged in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommEdgeSummary {
    pub msgs: u64,
    pub bytes: u64,
}

/// One collective kind aggregated over ranks.
#[derive(Clone, Debug, Default)]
pub struct CollectiveSummary {
    /// Operations entered per rank (max over ranks; collectives are
    /// bulk-synchronous, so per-rank counts agree — max tolerates
    /// partial streams).
    pub count: u64,
    /// Bytes contributed, summed over ranks.
    pub bytes: u64,
    /// Per-op latency samples merged over ranks (empty without timing).
    pub latency: LogHistogram,
}

/// Per-equation solver-health trend over the stream (`step_health`
/// events; rank 0 only — one linear solve is collective, every rank
/// reports the same iteration counts).
#[derive(Clone, Debug, Default)]
pub struct EqTrend {
    /// GMRES iterations at the first observed step.
    pub first_iters: u64,
    /// GMRES iterations at the last observed step.
    pub last_iters: u64,
    /// Worst step's iteration count.
    pub max_iters: u64,
    /// Residual-reduction rate (`-log10(final_rel)/iters`) at the first
    /// observed step.
    pub first_rate: f64,
    /// Rate at the last observed step.
    pub last_rate: f64,
}

/// The solver-health time series aggregated over the stream.
#[derive(Clone, Debug, Default)]
pub struct HealthTrend {
    /// Steps with `step_health` rows.
    pub steps: u64,
    /// AMG operator complexity at the last observed step.
    pub last_operator_complexity: f64,
    /// Recovery-ladder attempts summed over the series (each row's
    /// step's `recovery` events).
    pub recoveries: u64,
    pub per_eq: BTreeMap<String, EqTrend>,
    /// Degradation verdicts of a [`HealthDetector`] replayed over the
    /// rows, in stream order.
    pub verdicts: Vec<Verdict>,
}

impl HealthTrend {
    /// Whether the stream carried any health telemetry.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// The equation whose iteration count grew the most over the series
    /// (ties broken by the worse final count), with its trend.
    pub fn worst_equation(&self) -> Option<(&str, &EqTrend)> {
        self.per_eq
            .iter()
            .max_by_key(|(_, t)| (t.last_iters.saturating_sub(t.first_iters), t.last_iters))
            .map(|(eq, t)| (eq.as_str(), t))
    }
}

/// Rank-imbalance figures for one comm phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseImbalance {
    /// Mean rank seconds in the phase.
    pub avg_secs: f64,
    /// Slowest rank's seconds in the phase.
    pub max_secs: f64,
    /// Mean per-rank seconds blocked waiting on communication.
    pub wait_secs: f64,
    /// Mean per-rank seconds moving data (send path).
    pub transfer_secs: f64,
}

impl PhaseImbalance {
    /// `max/avg` rank time — 1.0 is perfectly balanced; the paper's
    /// parallel-efficiency diagnostic.
    pub fn imbalance(&self) -> f64 {
        if self.avg_secs > 0.0 { self.max_secs / self.avg_secs } else { 1.0 }
    }
}

/// The aggregated view of a telemetry event stream.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Rank count (from the first `run` event, else max rank seen + 1).
    pub ranks: usize,
    /// Worker threads (from the first `run` event).
    pub threads: usize,
    /// Transport backend label (from the first `run` event; empty when
    /// the stream has no `run` event).
    pub transport: String,
    /// Kernel policy label (from the first `run` event; empty when the
    /// stream has no `run` event).
    pub kernel_policy: String,
    pub git_commit: Option<String>,
    /// The phases with spans, in the solver's plot order (`PLOT_ORDER`)
    /// whatever order per-rank streams were merged in.
    pub phases: Vec<String>,
    /// Mean seconds per rank for each `(equation, phase)`, summed over
    /// the phase's spans.
    pub phase_secs: BTreeMap<(String, String), f64>,
    /// Steps observed: the most `timestep` spans any one rank closed.
    pub steps: usize,
    pub amg: BTreeMap<String, AmgSummary>,
    pub gmres: BTreeMap<String, GmresSummary>,
    pub spans: BTreeMap<String, SpanSummary>,
    /// Recovery escalations keyed by `(equation, fault kind)`.
    pub recoveries: BTreeMap<(String, String), RecoverySummary>,
    /// Checkpoint writes and restores.
    pub checkpoints: CheckpointSummary,
    /// Counters summed over ranks.
    pub counters: BTreeMap<String, u64>,
    /// Histograms over every rank's events: `gmres.iters`, the
    /// iteration counts of all `gmres` events.
    pub hists: BTreeMap<String, LogHistogram>,
    /// Directed comm edges keyed `(src, dst, tag class)`.
    pub comm_edges: BTreeMap<(usize, usize, String), CommEdgeSummary>,
    /// Collective totals keyed by kind.
    pub collectives: BTreeMap<String, CollectiveSummary>,
    /// Per-phase rank imbalance (wall seconds from the phase spans, comm
    /// wait/transfer from `phase_perf`).
    pub imbalance: BTreeMap<String, PhaseImbalance>,
    /// Hot-kernel throughput summed over ranks (`kernel_perf` events).
    pub kernels: BTreeMap<String, KernelSummary>,
    /// Solver-health time series + degradation verdicts (`step_health`
    /// and `recovery` events).
    pub health: HealthTrend,
    /// Per-step critical paths reconstructed from aligned span
    /// timestamps (empty when the stream carries no timestamps).
    pub critical_path: Vec<StepPath>,
    /// Measured machine bandwidth (GB/s) for the roofline column; set by
    /// the caller from `machine::host_baseline()` — this crate sits below
    /// `machine` in the dependency graph and cannot measure it itself.
    pub bw_baseline_gbs: Option<f64>,
}

/// The solver's phase labels in plot order. This crate sits below `core`
/// and cannot see its `Phase` enum, so the labels are mirrored here and
/// checked by the simulation stream test.
const PLOT_ORDER: [&str; 5] =
    ["graph+physics", "local assembly", "global assembly", "precond setup", "solve"];

/// `(equation, phase)` of a phase span — one whose last path segment is
/// a [`PLOT_ORDER`] label, like `timestep/picard/continuity/solve` —
/// and `None` for every other span.
fn phase_of(path: &str) -> Option<(&str, &str)> {
    let mut segments = path.rsplit('/');
    let (phase, eq) = (segments.next()?, segments.next()?);
    PLOT_ORDER.contains(&phase).then_some((eq, phase))
}

/// Equation system of a span path like
/// `timestep/picard/continuity/precond setup`: the second-to-last
/// segment.
fn eq_of_path(path: &str) -> String {
    path.rsplit('/').nth(1).unwrap_or(path).to_string()
}

impl Report {
    /// Aggregate a (merged) event stream.
    pub fn from_events(events: &[Event]) -> Report {
        let tl = Timeline::from_events(events);
        let mut r = Report {
            ranks: tl.ranks,
            critical_path: tl.critical_paths(),
            ..Report::default()
        };
        if let Some(run) = &tl.run {
            r.threads = run.threads;
            r.transport = run.transport.to_string();
            r.kernel_policy = run.kernel_policy.to_string();
            r.git_commit = run.git_commit.map(str::to_string);
        }
        let mut phase_sums: BTreeMap<(String, String), f64> = BTreeMap::new();
        // phase → rank → seconds, feeding the imbalance table.
        let mut phase_rank: BTreeMap<String, BTreeMap<usize, f64>> = BTreeMap::new();
        // phase → (wait, transfer) seconds summed over ranks.
        let mut comm_secs: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        // rank → `timestep` spans closed.
        let mut rank_steps: BTreeMap<usize, usize> = BTreeMap::new();
        // The live detector's verdicts are not on the wire: replay it over
        // rank 0's rows, each fed its step's rank-0 `recovery` count.
        let mut detector = HealthDetector::new();
        let mut step_recoveries: BTreeMap<usize, u64> = BTreeMap::new();
        for ev in events {
            match ev {
                Event::Span { rank, path, secs, .. } => {
                    let s = r.spans.entry(path.clone()).or_default();
                    s.count += 1;
                    s.total_secs += secs;
                    if path == "timestep" {
                        *rank_steps.entry(*rank).or_default() += 1;
                    }
                    if let Some((eq, phase)) = phase_of(path) {
                        *phase_sums.entry((eq.to_string(), phase.to_string())).or_default() += secs;
                        *phase_rank.entry(phase.to_string()).or_default().entry(*rank).or_default() +=
                            secs;
                    }
                }
                Event::AmgSetup { path, levels, grid_complexity, operator_complexity, .. } => {
                    let eq = eq_of_path(path);
                    let entry = r.amg.entry(eq).or_default();
                    entry.setups += 1;
                    // Keep the most recent hierarchy shape.
                    entry.levels = levels.clone();
                    entry.grid_complexity = *grid_complexity;
                    entry.operator_complexity = *operator_complexity;
                }
                Event::Gmres { rank, path, iters, final_rel, converged, history } => {
                    r.hists.entry("gmres.iters".to_string()).or_default().record(*iters as f64);
                    // One solve is collective over all ranks and is
                    // reported by each; count it once via rank 0.
                    if *rank != 0 {
                        continue;
                    }
                    let eq = eq_of_path(path);
                    let s = r.gmres.entry(eq).or_default();
                    let it = *iters as u64;
                    s.min_iters = if s.solves == 0 { it } else { s.min_iters.min(it) };
                    s.max_iters = s.max_iters.max(it);
                    s.solves += 1;
                    s.total_iters += it;
                    s.converged += *converged as u64;
                    s.last_final_rel = *final_rel;
                    s.last_history = history.clone();
                }
                // Recovery is collective; every rank reports the same
                // ladder walk, so count it once via rank 0.
                Event::Recovery { rank: 0, eq, step, fault, action, outcome, .. } => {
                    *step_recoveries.entry(*step).or_default() += 1;
                    let s = r.recoveries.entry((eq.clone(), fault.clone())).or_default();
                    s.attempts += 1;
                    match outcome.as_str() {
                        "recovered" => s.recovered += 1,
                        "failed" => s.failed += 1,
                        _ => {}
                    }
                    if s.actions.last() != Some(action) {
                        s.actions.push(action.clone());
                    }
                    s.last_outcome = outcome.clone();
                }
                Event::Checkpoint { rank, generation, bytes, secs, .. } => {
                    r.checkpoints.bytes += bytes;
                    r.checkpoints.secs += secs;
                    // A generation is collective (one file per rank);
                    // count it once via rank 0.
                    if *rank == 0 {
                        r.checkpoints.generations += 1;
                        r.checkpoints.last_generation =
                            r.checkpoints.last_generation.max(Some(*generation));
                    }
                }
                Event::Restore { rank: 0, generation, .. } => {
                    r.checkpoints.restores += 1;
                    r.checkpoints.restored_from = Some(*generation);
                }
                Event::Counter { name, value, .. } => {
                    *r.counters.entry(name.clone()).or_insert(0) += value;
                }
                Event::PhasePerf { label, wait_secs, transfer_secs, .. } => {
                    // Trace labels are `eq/phase` (or a bare phase like
                    // `other`); the final segment matches the phase span
                    // names.
                    let phase = label.rsplit('/').next().unwrap_or(label).to_string();
                    let c = comm_secs.entry(phase).or_default();
                    *c = (c.0 + wait_secs, c.1 + transfer_secs);
                }
                Event::KernelPerf { kernel, calls, secs, bytes, flops, dofs, .. } => {
                    let k = r.kernels.entry(kernel.clone()).or_default();
                    k.calls += calls;
                    k.secs += secs;
                    k.bytes += bytes;
                    k.flops += flops;
                    k.dofs += dofs;
                }
                // Solves are collective; every rank reports the same
                // series, so count it once via rank 0.
                Event::StepHealth {
                    rank: 0, step, eqs, amg_levels, grid_complexity, operator_complexity,
                } => {
                    let sample = HealthSample {
                        eqs: eqs.clone(),
                        amg_levels: *amg_levels,
                        grid_complexity: *grid_complexity,
                        operator_complexity: *operator_complexity,
                        recoveries: step_recoveries.remove(step).unwrap_or(0),
                    };
                    let h = &mut r.health;
                    h.steps += 1;
                    h.last_operator_complexity = *operator_complexity;
                    h.recoveries += sample.recoveries;
                    h.verdicts.extend(detector.observe(*step, &sample));
                    for row in eqs {
                        let t = h.per_eq.entry(row.eq.clone()).or_insert_with(|| EqTrend {
                            first_iters: row.iters,
                            first_rate: row.rate(),
                            ..EqTrend::default()
                        });
                        t.last_iters = row.iters;
                        t.max_iters = t.max_iters.max(row.iters);
                        t.last_rate = row.rate();
                    }
                }
                // Other ranks repeat the rank-0 rows above; the timeline
                // read the run header, edges and collectives.
                _ => {}
            }
        }
        r.steps = rank_steps.into_values().max().unwrap_or(0);
        r.phases = PLOT_ORDER
            .iter()
            .filter(|p| phase_rank.contains_key(**p))
            .map(|p| p.to_string())
            .collect();
        let n = r.ranks.max(1) as f64;
        r.phase_secs = phase_sums.into_iter().map(|(k, v)| (k, v / n)).collect();
        // Sender view wins; the receiver view fills edges whose sender's
        // stream was not merged in.
        for (&(src, dst, class), [sender, receiver]) in &tl.edges {
            let Some(EdgeView { msgs, bytes, .. }) = sender.or(*receiver) else { continue };
            r.comm_edges.insert((src, dst, class.to_string()), CommEdgeSummary { msgs, bytes });
        }
        for (kind, by_rank) in &tl.collectives {
            let s = r.collectives.entry(kind.to_string()).or_default();
            for row in by_rank.values() {
                s.count = s.count.max(row.count);
                s.bytes += row.bytes;
                s.latency.merge(&row.latency);
            }
        }
        for (phase, by_rank) in &phase_rank {
            let i = r.imbalance.entry(phase.clone()).or_default();
            i.avg_secs = by_rank.values().sum::<f64>() / n;
            i.max_secs = by_rank.values().copied().fold(0.0_f64, f64::max);
        }
        // Comm phases without phase spans (e.g. parcomm's default `other`
        // phase) still get an imbalance row.
        for (phase, (wait, transfer)) in comm_secs {
            let i = r.imbalance.entry(phase).or_default();
            (i.wait_secs, i.transfer_secs) = (wait / n, transfer / n);
        }
        r
    }

    /// Equations with timing data, sorted.
    pub fn equations(&self) -> Vec<String> {
        let mut eqs: Vec<String> = self.phase_secs.keys().map(|(e, _)| e.clone()).collect();
        eqs.sort();
        eqs.dedup();
        eqs
    }

    /// Mean seconds per rank of `eq`'s `phase` (0 when absent).
    fn phase_mean(&self, eq: &str, phase: &str) -> f64 {
        self.phase_secs.get(&(eq.to_string(), phase.to_string())).copied().unwrap_or(0.0)
    }

    fn eq_total(&self, eq: &str) -> f64 {
        self.phase_secs
            .iter()
            .filter(|((e, _), _)| e == eq)
            .map(|(_, s)| s)
            .sum()
    }

    /// Render the full ASCII report.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let commit = self.git_commit.as_deref().unwrap_or("unknown");
        let _ = writeln!(out, "== telemetry report ==");
        let transport = if self.transport.is_empty() { "inproc" } else { &self.transport };
        let kernels = if self.kernel_policy.is_empty() { "auto" } else { &self.kernel_policy };
        let _ = writeln!(
            out,
            "ranks: {}   threads: {}   transport: {}   kernels: {}   steps: {}   commit: {}",
            self.ranks, self.threads, transport, kernels, self.steps, commit
        );

        // --- Fig. 6/7: per-equation stacked phase breakdown -------------
        if !self.phase_secs.is_empty() {
            let _ = writeln!(
                out,
                "\n-- per-equation phase breakdown, mean seconds per rank (cf. paper Figs. 6/7) --"
            );
            let mut header = format!("{:<12}", "equation");
            for ph in &self.phases {
                let _ = write!(header, " {ph:>16}");
            }
            let _ = writeln!(out, "{header} {:>10}", "total");
            for eq in self.equations() {
                let total = self.eq_total(&eq);
                let mut row = format!("{eq:<12}");
                for ph in &self.phases {
                    let s = self.phase_mean(&eq, ph);
                    let pct = if total > 0.0 { 100.0 * s / total } else { 0.0 };
                    let _ = write!(row, " {:>9.4} {:>2.0}%{:>3}", s, pct, "");
                }
                let _ = writeln!(out, "{row} {total:>10.4}");
                // Stacked ASCII bar, one letter per phase.
                if total > 0.0 {
                    let width = 48usize;
                    let mut bar = String::new();
                    for (i, ph) in self.phases.iter().enumerate() {
                        let s = self.phase_mean(&eq, ph);
                        let cells = ((s / total) * width as f64).round() as usize;
                        let letter = ph
                            .chars()
                            .next()
                            .unwrap_or(char::from(b'a' + (i % 26) as u8))
                            .to_ascii_uppercase();
                        bar.extend(std::iter::repeat_n(letter, cells));
                    }
                    let _ = writeln!(out, "{:<12} [{bar:<width$}]", "");
                }
            }
            let legend: Vec<String> = self
                .phases
                .iter()
                .map(|p| {
                    format!(
                        "{}={p}",
                        p.chars().next().unwrap_or('?').to_ascii_uppercase()
                    )
                })
                .collect();
            let _ = writeln!(out, "{:<12} {}", "", legend.join("  "));
        }

        // --- Per-phase rank imbalance ------------------------------------
        if !self.imbalance.is_empty() {
            let _ = writeln!(
                out,
                "\n-- per-phase rank imbalance (max/avg rank seconds; wait = blocked in comm) --"
            );
            let _ = writeln!(
                out,
                "{:<18} {:>9} {:>9} {:>8} {:>9} {:>9}",
                "phase", "avg s", "max s", "max/avg", "wait s", "xfer s"
            );
            // Plot order first, then comm-only phases (e.g. `other`).
            let mut order: Vec<&String> =
                self.phases.iter().filter(|p| self.imbalance.contains_key(*p)).collect();
            for p in self.imbalance.keys() {
                if !order.contains(&p) {
                    order.push(p);
                }
            }
            for phase in order {
                let i = &self.imbalance[phase];
                let _ = writeln!(
                    out,
                    "{:<18} {:>9.4} {:>9.4} {:>8.2} {:>9.4} {:>9.4}",
                    phase,
                    i.avg_secs,
                    i.max_secs,
                    i.imbalance(),
                    i.wait_secs,
                    i.transfer_secs
                );
            }
        }

        // --- Critical path -----------------------------------------------
        if !self.critical_path.is_empty() {
            let steps = self.critical_path.len();
            let makespan: f64 = self.critical_path.iter().map(|p| p.makespan).sum();
            let coverage: f64 = self
                .critical_path
                .iter()
                .map(|p| p.coverage())
                .sum::<f64>()
                / steps as f64;
            let _ = writeln!(
                out,
                "\n-- critical path (aligned cross-rank makespan attribution) --"
            );
            let _ = writeln!(
                out,
                "steps {}   total makespan {:.4}s   path coverage {:.1}%",
                steps,
                makespan,
                100.0 * coverage
            );
            // Compute segments keyed by span label, waits by blamed rank.
            let mut compute: BTreeMap<&str, f64> = BTreeMap::new();
            let mut blame: BTreeMap<usize, f64> = BTreeMap::new();
            let mut wait_total = 0.0;
            for p in &self.critical_path {
                for s in &p.segments {
                    match s.wait_on {
                        Some(peer) => {
                            *blame.entry(peer).or_insert(0.0) += s.secs();
                            wait_total += s.secs();
                        }
                        None => *compute.entry(s.label.as_str()).or_insert(0.0) += s.secs(),
                    }
                }
            }
            let mut top: Vec<(&str, f64)> = compute.into_iter().collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
            let _ = writeln!(out, "{:<34} {:>10} {:>7}", "top path segments", "secs", "share");
            for (label, secs) in top.iter().take(8) {
                let share = if makespan > 0.0 { 100.0 * secs / makespan } else { 0.0 };
                let _ = writeln!(out, "{label:<34} {secs:>10.4} {share:>6.1}%");
            }
            if wait_total > 0.0 {
                let share = if makespan > 0.0 { 100.0 * wait_total / makespan } else { 0.0 };
                let _ = writeln!(
                    out,
                    "{:<34} {wait_total:>10.4} {share:>6.1}%",
                    "(waiting on another rank)"
                );
                let blames: Vec<String> = blame
                    .iter()
                    .map(|(r, s)| format!("rank {r} {s:.4}s"))
                    .collect();
                let _ = writeln!(out, "blame (time the path waited on rank): {}", blames.join("  "));
            }
        }

        // --- Communication matrix ----------------------------------------
        if !self.comm_edges.is_empty() {
            let _ = writeln!(
                out,
                "\n-- communication matrix (bytes sent, row src -> column dst) --"
            );
            let mut grid: BTreeMap<(usize, usize), CommEdgeSummary> = BTreeMap::new();
            let mut class_totals: BTreeMap<&str, CommEdgeSummary> = BTreeMap::new();
            for ((src, dst, class), e) in &self.comm_edges {
                let g = grid.entry((*src, *dst)).or_default();
                g.msgs += e.msgs;
                g.bytes += e.bytes;
                let c = class_totals.entry(class.as_str()).or_default();
                c.msgs += e.msgs;
                c.bytes += e.bytes;
            }
            let mut header = format!("{:>8}", "src\\dst");
            for dst in 0..self.ranks {
                let _ = write!(header, " {dst:>10}");
            }
            let _ = writeln!(out, "{header}");
            for src in 0..self.ranks {
                let mut row = format!("{src:>8}");
                for dst in 0..self.ranks {
                    let cell = match grid.get(&(src, dst)) {
                        Some(e) => fmt_bytes(e.bytes),
                        None => "-".to_string(),
                    };
                    let _ = write!(row, " {cell:>10}");
                }
                let _ = writeln!(out, "{row}");
            }
            let totals: Vec<String> = class_totals
                .iter()
                .map(|(class, e)| format!("{class} {} in {} msgs", fmt_bytes(e.bytes), e.msgs))
                .collect();
            let _ = writeln!(out, "per-class totals: {}", totals.join("   "));
        }

        // --- Collectives --------------------------------------------------
        if !self.collectives.is_empty() {
            let _ = writeln!(out, "\n-- collectives (latency from merged log2 histograms) --");
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>10} {:>8} {:>10} {:>10} {:>10}",
                "kind", "count", "bytes", "timed", "mean s", "p50 s", "p95 s"
            );
            for (kind, s) in &self.collectives {
                let stats = [Some(s.latency.mean()), s.latency.quantile(0.5), s.latency.quantile(0.95)];
                let [mean, p50, p95] = stats.map(|v| match s.latency.count() {
                    0 => "-".to_string(),
                    _ => format!("{:.2e}", v.unwrap_or(0.0)),
                });
                let _ = writeln!(
                    out,
                    "{:<16} {:>8} {:>10} {:>8} {:>10} {:>10} {:>10}",
                    kind,
                    s.count,
                    fmt_bytes(s.bytes),
                    s.latency.count(),
                    mean,
                    p50,
                    p95
                );
            }
        }

        if let Some(line) = self.wait_summary() {
            let _ = writeln!(out, "{line}");
        }

        // --- Tables 2–4: AMG hierarchies ---------------------------------
        for (eq, amg) in &self.amg {
            let _ = writeln!(
                out,
                "\n-- AMG hierarchy for {eq} ({} setups; cf. paper Tables 2-4) --",
                amg.setups
            );
            let _ = writeln!(out, "{:>5} {:>12} {:>14} {:>10}", "level", "rows", "nnz", "coarsen");
            let mut prev_rows: Option<u64> = None;
            for l in &amg.levels {
                let ratio = match prev_rows {
                    Some(p) if l.rows > 0 => format!("{:.2}x", p as f64 / l.rows as f64),
                    _ => "-".to_string(),
                };
                let _ = writeln!(out, "{:>5} {:>12} {:>14} {:>10}", l.level, l.rows, l.nnz, ratio);
                prev_rows = Some(l.rows);
            }
            let _ = writeln!(
                out,
                "grid complexity {:.3}   operator complexity {:.3}",
                amg.grid_complexity, amg.operator_complexity
            );
        }
        if let Some(line) = self.reuse_summary() {
            let _ = writeln!(out, "{line}");
        }

        // --- GMRES convergence -------------------------------------------
        if !self.gmres.is_empty() {
            let _ = writeln!(out, "\n-- GMRES solves --");
            let _ = writeln!(
                out,
                "{:<12} {:>7} {:>11} {:>9} {:>9} {:>11} {:>13}",
                "equation", "solves", "iters", "min", "max", "converged", "last rel"
            );
            for (eq, s) in &self.gmres {
                let _ = writeln!(
                    out,
                    "{:<12} {:>7} {:>11} {:>9} {:>9} {:>9}/{:<3} {:>11.2e}",
                    eq, s.solves, s.total_iters, s.min_iters, s.max_iters, s.converged, s.solves,
                    s.last_final_rel
                );
            }
            for (eq, s) in &self.gmres {
                if s.last_history.len() > 1 {
                    let _ = writeln!(
                        out,
                        "{eq} last-solve convergence (log10 rel residual per iteration):"
                    );
                    let _ = writeln!(out, "  {}", render_curve(&s.last_history));
                }
            }
        }

        // --- Solver health trend -----------------------------------------
        if !self.health.is_empty() {
            let h = &self.health;
            let _ = writeln!(
                out,
                "\n-- solver health trend ({} steps; EWMA degradation detector) --",
                h.steps
            );
            let _ = writeln!(
                out,
                "{:<12} {:>12} {:>9} {:>16}",
                "equation", "iters", "worst", "rate/iter"
            );
            for (eq, t) in &h.per_eq {
                let _ = writeln!(
                    out,
                    "{:<12} {:>5} -> {:<4} {:>9} {:>7.3} -> {:<6.3}",
                    eq, t.first_iters, t.last_iters, t.max_iters, t.first_rate, t.last_rate
                );
            }
            let _ = writeln!(
                out,
                "operator complexity (last) {:.3}   recoveries {}",
                h.last_operator_complexity, h.recoveries
            );
            if h.verdicts.is_empty() {
                let _ = writeln!(out, "no degradation verdicts");
            } else {
                for v in &h.verdicts {
                    let on = v.eq.as_deref().map_or(String::new(), |e| format!(" on {e}"));
                    let _ = writeln!(
                        out,
                        "step {:>4}: {}{on}: {:.4} vs baseline {:.4}",
                        v.step, v.kind.label(), v.value, v.baseline
                    );
                }
            }
        }

        // --- Recovery escalations ----------------------------------------
        if !self.recoveries.is_empty() {
            let _ = writeln!(out, "\n-- solver recoveries (fault -> attempts -> outcome) --");
            let _ = writeln!(
                out,
                "{:<12} {:<22} {:>8} {:<32} {:>10}",
                "equation", "fault", "attempts", "escalation", "outcome"
            );
            for ((eq, fault), s) in &self.recoveries {
                let _ = writeln!(
                    out,
                    "{:<12} {:<22} {:>8} {:<32} {:>10}",
                    eq,
                    fault,
                    s.attempts,
                    s.actions.join(" -> "),
                    s.last_outcome
                );
            }
        }

        // --- Checkpoint/restart ------------------------------------------
        if !self.checkpoints.is_empty() {
            let c = &self.checkpoints;
            let _ = writeln!(out, "\n-- checkpoint/restart --");
            let _ = writeln!(
                out,
                "generations written {:>4}   newest {:>6}   {:>10.1} KiB total   {:>8.4}s rank-seconds",
                c.generations,
                c.last_generation.map_or("-".to_string(), |g| g.to_string()),
                c.bytes as f64 / 1024.0,
                c.secs,
            );
            if c.restores > 0 {
                let _ = writeln!(
                    out,
                    "restores            {:>4}   resumed from generation {}",
                    c.restores,
                    c.restored_from.map_or("-".to_string(), |g| g.to_string()),
                );
            }
        }

        // --- Span tree ----------------------------------------------------
        if !self.spans.is_empty() {
            let _ = writeln!(out, "\n-- span tree (seconds summed over ranks) --");
            for (path, s) in &self.spans {
                let name = path.rsplit('/').next().unwrap_or(path);
                let _ = writeln!(
                    out,
                    "{:indent$}{name:<24} {:>8} calls {:>12.4}s",
                    "",
                    s.count,
                    s.total_secs,
                    indent = 2 * span_depth(path)
                );
            }
        }

        // --- Kernel throughput (roofline view) ---------------------------
        if !self.kernels.is_empty() {
            let baseline = self
                .bw_baseline_gbs
                .map_or("no machine baseline".to_string(), |bw| format!("STREAM baseline {bw:.1} GB/s"));
            let _ = writeln!(
                out,
                "\n-- kernel throughput, per-rank mean ({baseline}; cf. paper Figs. 6-9) --"
            );
            let mut header = format!(
                "{:<20} {:>9} {:>10} {:>9} {:>8} {:>9} {:>9}",
                "kernel", "calls", "secs", "GB", "GB/s", "GFLOP/s", "MDOF/s"
            );
            if self.bw_baseline_gbs.is_some() {
                let _ = write!(header, " {:>6}", "%bw");
            }
            let _ = writeln!(out, "{header}");
            for (name, k) in &self.kernels {
                let mut row = format!(
                    "{:<20} {:>9} {:>10.4} {:>9.3} {:>8.2} {:>9.2} {:>9.2}",
                    name,
                    k.calls,
                    k.secs,
                    k.bytes as f64 / 1e9,
                    k.gb_per_s(),
                    k.gflop_per_s(),
                    k.mdof_per_s()
                );
                if let Some(bw) = self.bw_baseline_gbs {
                    let pct = if bw > 0.0 { 100.0 * k.gb_per_s() / bw } else { 0.0 };
                    let _ = write!(row, " {pct:>5.1}%");
                }
                let _ = writeln!(out, "{row}");
            }
        }

        // --- Counters + histograms ---------------------------------------
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\n-- counters (summed over ranks) --");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<36} {v}");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "\n-- histograms (log2 buckets, merged over ranks) --");
            for (name, h) in &self.hists {
                let buckets: Vec<String> = h
                    .buckets()
                    .iter()
                    .map(|&(e, c)| {
                        if e == UNDERFLOW_BUCKET {
                            format!("<=0:{c}")
                        } else {
                            format!("2^{e}:{c}")
                        }
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "  {name:<24} n={} mean={:.3}  {}",
                    h.count(),
                    h.mean(),
                    buckets.join(" ")
                );
            }
        }
        out
    }

    /// One-line solver-health summary for dashboards and the
    /// `exawind-perf report` header: the most recent degradation verdict
    /// (or "ok") plus the equation whose iteration count degraded the
    /// most. `None` when the stream carried no health telemetry.
    pub fn health_summary(&self) -> Option<String> {
        let h = &self.health;
        if h.is_empty() {
            return None;
        }
        let verdict = match h.verdicts.last() {
            Some(v) => {
                let on = v.eq.as_deref().map_or(String::new(), |e| format!(" on {e}"));
                format!(
                    "{}{on} at step {} ({:.3} vs baseline {:.3})",
                    v.kind.label(), v.step, v.value, v.baseline
                )
            }
            None => format!("ok over {} steps", h.steps),
        };
        let worst = h
            .worst_equation()
            .map_or(String::new(), |(eq, t)| {
                format!("; worst eq {eq} {} -> {} iters", t.first_iters, t.last_iters)
            });
        Some(format!("health: {verdict}{worst}"))
    }

    /// One line splitting the blocking receives by how
    /// `parcomm::Rank::wait_next` satisfied them (counter totals, summed
    /// over ranks): while still polling, which is message latency, or
    /// only after parking, which is another rank running late. `None`
    /// when the stream carries neither counter.
    fn wait_summary(&self) -> Option<String> {
        let [polled, parked] = ["parcomm.recv_polled", "parcomm.recv_parked"]
            .map(|name| self.counters.get(name).copied());
        if polled.is_none() && parked.is_none() {
            return None;
        }
        let (polled, parked) = (polled.unwrap_or_default(), parked.unwrap_or_default());
        let share = 100.0 * polled as f64 / (polled + parked).max(1) as f64;
        Some(format!(
            "receives (summed over ranks): satisfied while polling {polled} ({share:.1} %), \
             after parking {parked}"
        ))
    }

    /// One line answering "why is precond setup / graph / global-assembly
    /// time ~0": how often the driver rebuilt vs reused the pressure AMG
    /// hierarchy and the equation graphs, built vs replayed the graphs'
    /// assembly plans, assembled vs reused the continuity operator, and
    /// how many smoothing rounds started from a zero guess and so skipped
    /// their exchange and residual pass (counter totals, summed over
    /// ranks). `None` when the stream carries none of the nine counters.
    fn reuse_summary(&self) -> Option<String> {
        let totals = [
            "amg.setup_rebuilt",
            "amg.setup_reused",
            "graphs.rebuilt",
            "graphs.reused",
            "assembly.plan_built",
            "assembly.plan_replayed",
            "continuity.operators_assembled",
            "continuity.operators_reused",
            "smoother.zero_guess_rounds",
        ]
        .map(|name| self.counters.get(name).copied());
        if totals.iter().all(Option::is_none) {
            return None;
        }
        let [ab, ar, gb, gr, pb, pr, ca, cr, zg] = totals.map(Option::unwrap_or_default);
        Some(format!(
            "reuse (summed over ranks): AMG setups rebuilt {ab} / reused {ar}; \
             graphs rebuilt {gb} / reused {gr}; assembly plans built {pb} / replayed {pr}; \
             continuity operators assembled {ca} / reused {cr}; \
             zero-guess smoothing rounds {zg}"
        ))
    }
}

/// Humanize a byte count for the matrix cells (`-` is rendered by the
/// caller for absent edges; `0B` means an edge with zero volume).
fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 { format!("{b}B") } else { format!("{v:.1}{}", UNITS[u]) }
}

/// Render a residual trajectory as a one-line level plot: each iteration
/// maps to a digit 9 (starting residual) … 0 (smallest), on a log scale.
fn render_curve(history: &[f64]) -> String {
    let logs: Vec<f64> = history
        .iter()
        .map(|&r| if r > 0.0 { r.log10() } else { -16.0 })
        .collect();
    let hi = logs.iter().cloned().fold(f64::MIN, f64::max);
    let lo = logs.iter().cloned().fold(f64::MAX, f64::min);
    let range = (hi - lo).max(1e-12);
    let digits: String = logs
        .iter()
        .map(|&l| {
            let level = (9.0 * (l - lo) / range).round() as u32;
            char::from_digit(level.min(9), 10).unwrap()
        })
        .collect();
    format!(
        "[{digits}]  1e{:.1} -> 1e{:.1} in {} iters",
        hi,
        logs.last().copied().unwrap_or(0.0),
        history.len() - 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::DegradationKind;

    /// An untimed span of `eq`'s `phase`, as `Simulation::phased` opens it.
    fn phase_span(rank: usize, eq: &str, phase: &str, secs: f64) -> Event {
        let path = format!("timestep/picard/{eq}/{phase}");
        Event::Span { rank, path, secs, t0: None }
    }

    fn sample_events() -> Vec<Event> {
        let mut evs = vec![crate::run_info(2, "inproc", "auto", None)];
        for rank in 0..2usize {
            for (eq, phase, secs) in [
                ("momentum", "graph+physics", 0.1),
                ("momentum", "local assembly", 0.2),
                ("momentum", "solve", 0.3),
                ("continuity", "local assembly", 0.1),
                ("continuity", "solve", 0.5),
            ] {
                evs.push(phase_span(rank, eq, phase, secs));
            }
            evs.push(Event::Gmres {
                rank,
                path: "timestep/picard/continuity/solve".into(),
                iters: 12,
                final_rel: 1e-6,
                converged: true,
                history: vec![1.0, 1e-2, 1e-4, 1e-6],
            });
            evs.push(Event::AmgSetup {
                rank,
                path: "timestep/picard/continuity/precond setup".into(),
                levels: vec![
                    AmgLevelRow { level: 0, rows: 100, nnz: 640 },
                    AmgLevelRow { level: 1, rows: 25, nnz: 200 },
                ],
                grid_complexity: 1.25,
                operator_complexity: 1.3125,
            });
        }
        evs
    }

    #[test]
    fn aggregates_means_over_ranks() {
        let r = Report::from_events(&sample_events());
        assert_eq!(r.ranks, 2);
        // Both ranks reported 0.3 → mean is 0.3.
        assert!(
            (r.phase_secs[&("momentum".to_string(), "solve".to_string())] - 0.3).abs() < 1e-12
        );
        assert_eq!(r.equations(), vec!["continuity".to_string(), "momentum".to_string()]);
        // Phase order is `canonical_phase_order`'s plot order, not
        // alphabetical.
        assert_eq!(r.phases[0], "graph+physics");
        // GMRES solves counted once (rank 0 only).
        assert_eq!(r.gmres["continuity"].solves, 1);
        assert_eq!(r.gmres["continuity"].total_iters, 12);
        assert_eq!(r.amg["continuity"].setups, 2);
        assert_eq!(r.amg["continuity"].levels.len(), 2);
    }

    #[test]
    fn ascii_report_contains_all_sections() {
        let r = Report::from_events(&sample_events());
        let s = r.render_ascii();
        assert!(s.contains("Figs. 6/7"), "{s}");
        assert!(s.contains("AMG hierarchy for continuity"), "{s}");
        assert!(s.contains("GMRES solves"), "{s}");
        assert!(s.contains("grid complexity 1.250"), "{s}");
        assert!(s.contains("momentum"), "{s}");
    }

    #[test]
    fn recovery_events_aggregate_into_escalation_table() {
        let mut evs = sample_events();
        // Both ranks report the same collective ladder walk; only rank 0
        // counts.
        for rank in 0..2usize {
            for (attempt, action, outcome) in
                [(1, "rebuild", "retry"), (2, "fallback_smoother", "recovered")]
            {
                evs.push(Event::Recovery {
                    rank,
                    eq: "continuity".into(),
                    step: 3,
                    fault: "non_finite_residual".into(),
                    action: action.into(),
                    attempt,
                    outcome: outcome.into(),
                });
            }
        }
        let r = Report::from_events(&evs);
        let key = ("continuity".to_string(), "non_finite_residual".to_string());
        let s = &r.recoveries[&key];
        assert_eq!(s.attempts, 2);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.failed, 0);
        assert_eq!(s.actions, vec!["rebuild", "fallback_smoother"]);
        assert_eq!(s.last_outcome, "recovered");
        let ascii = r.render_ascii();
        assert!(ascii.contains("solver recoveries"), "{ascii}");
        assert!(ascii.contains("rebuild -> fallback_smoother"), "{ascii}");
    }

    #[test]
    fn checkpoint_events_aggregate_into_report_section() {
        let mut evs = sample_events();
        // Two ranks each write two generations, then rank 1 dies and the
        // whole cohort restores from generation 4.
        for rank in 0..2usize {
            for generation in [2u64, 4] {
                evs.push(Event::Checkpoint {
                    rank,
                    step: generation as usize,
                    generation,
                    bytes: 1000,
                    secs: 0.001,
                    t: None,
                });
            }
            evs.push(Event::Restore { rank, step: 4, generation: 4, t: None });
        }
        let r = Report::from_events(&evs);
        let c = &r.checkpoints;
        assert_eq!(c.generations, 2, "generations counted once via rank 0");
        assert_eq!(c.last_generation, Some(4));
        assert_eq!(c.bytes, 4000, "bytes summed over ranks and generations");
        assert_eq!(c.restores, 1);
        assert_eq!(c.restored_from, Some(4));
        let ascii = r.render_ascii();
        assert!(ascii.contains("checkpoint/restart"), "{ascii}");
        assert!(ascii.contains("resumed from generation 4"), "{ascii}");
        // A stream without checkpoint activity renders no section.
        let quiet = Report::from_events(&sample_events()).render_ascii();
        assert!(!quiet.contains("checkpoint/restart"), "{quiet}");
    }

    #[test]
    fn kernel_table_sums_ranks_and_shows_baseline_pct() {
        let mut evs = sample_events();
        for rank in 0..2usize {
            evs.push(Event::KernelPerf {
                rank,
                kernel: "spmv_csr".into(),
                calls: 10,
                secs: 0.5,
                bytes: 5_000_000_000,
                flops: 400_000_000,
                dofs: 2_000_000,
            });
        }
        let mut r = Report::from_events(&evs);
        let k = &r.kernels["spmv_csr"];
        assert_eq!(k.calls, 20);
        assert_eq!(k.bytes, 10_000_000_000);
        // 10 GB over 1 rank-second → 10 GB/s mean per-rank bandwidth.
        assert!((k.gb_per_s() - 10.0).abs() < 1e-9);
        // Without a baseline: table renders, no %bw column.
        let plain = r.render_ascii();
        assert!(plain.contains("kernel throughput"), "{plain}");
        assert!(plain.contains("spmv_csr"), "{plain}");
        assert!(!plain.contains("%bw"), "{plain}");
        // With a 40 GB/s measured baseline: 10/40 = 25%.
        r.bw_baseline_gbs = Some(40.0);
        let with_bw = r.render_ascii();
        assert!(with_bw.contains("%bw"), "{with_bw}");
        assert!(with_bw.contains("STREAM baseline 40.0 GB/s"), "{with_bw}");
        assert!(with_bw.contains("25.0%"), "{with_bw}");
    }

    #[test]
    fn comm_matrix_prefers_sender_view_and_falls_back() {
        let mut evs = sample_events();
        let edge = |rank: usize, src: usize, dst: usize, class: &str, bytes: u64| {
            Event::CommEdge {
                rank,
                src,
                dst,
                class: class.into(),
                msgs: 2,
                bytes,
                t_first: None,
                t_last: None,
            }
        };
        // Edge 0->1 reported by both endpoints (identical, as the
        // instrumentation guarantees): counted once, not doubled.
        evs.push(edge(0, 0, 1, "halo", 4096));
        evs.push(edge(1, 0, 1, "halo", 4096));
        // Edge 1->0 known only from the receiver's stream.
        evs.push(edge(0, 1, 0, "p2p", 512));
        let r = Report::from_events(&evs);
        let halo = r.comm_edges[&(0, 1, "halo".to_string())];
        assert_eq!(halo, CommEdgeSummary { msgs: 2, bytes: 4096 });
        let p2p = r.comm_edges[&(1, 0, "p2p".to_string())];
        assert_eq!(p2p, CommEdgeSummary { msgs: 2, bytes: 512 });
        let ascii = r.render_ascii();
        assert!(ascii.contains("communication matrix"), "{ascii}");
        assert!(ascii.contains("4.0KiB"), "{ascii}");
        assert!(ascii.contains("halo 4.0KiB in 2 msgs"), "{ascii}");
    }

    #[test]
    fn collectives_merge_latency_over_ranks() {
        let mut evs = sample_events();
        for rank in 0..2usize {
            let mut h = LogHistogram::default();
            h.record(1e-4);
            h.record(2e-4);
            evs.push(Event::Collective {
                rank,
                kind: "allreduce".into(),
                count: 2,
                bytes: 16,
                secs: h.total(),
                buckets: h.buckets(),
                t_first: None,
                t_last: None,
            });
        }
        let r = Report::from_events(&evs);
        let s = &r.collectives["allreduce"];
        assert_eq!(s.count, 2); // max over ranks, not sum
        assert_eq!(s.bytes, 32); // summed over ranks
        assert_eq!(s.latency.count(), 4); // merged samples
        let ascii = r.render_ascii();
        assert!(ascii.contains("collectives"), "{ascii}");
        assert!(ascii.contains("allreduce"), "{ascii}");
    }

    #[test]
    fn imbalance_table_reports_max_over_avg_and_wait() {
        let mut evs = vec![crate::run_info(2, "inproc", "auto", None)];
        // Rank 1 is 3x slower in `solve`: avg 0.2, max 0.3 → ratio 1.5.
        for (rank, secs) in [(0usize, 0.1), (1usize, 0.3)] {
            evs.push(phase_span(rank, "continuity", "solve", secs));
            evs.push(Event::PhasePerf {
                rank,
                label: "continuity/solve".into(),
                kernel_launches: 0,
                kernel_bytes: 0,
                kernel_flops: 0,
                msgs: 4,
                msg_bytes: 256,
                collectives: 1,
                collective_bytes: 8,
                wait_secs: 0.05,
                transfer_secs: 0.01,
            });
        }
        let r = Report::from_events(&evs);
        let i = &r.imbalance["solve"];
        assert!((i.avg_secs - 0.2).abs() < 1e-12, "{i:?}");
        assert!((i.max_secs - 0.3).abs() < 1e-12, "{i:?}");
        assert!((i.imbalance() - 1.5).abs() < 1e-12, "{i:?}");
        assert!((i.wait_secs - 0.05).abs() < 1e-12, "{i:?}");
        let ascii = r.render_ascii();
        assert!(ascii.contains("per-phase rank imbalance"), "{ascii}");
        assert!(ascii.contains("1.50"), "{ascii}");
    }

    #[test]
    fn report_is_invariant_under_merge_order() {
        // Same per-rank streams merged in different orders must render
        // byte-identical reports: rank-swapped interleave and full
        // reversal both front-load rank 1's `solve` rows, which under
        // first-appearance phase ordering would reorder the columns.
        let evs = sample_events();
        let mut swapped: Vec<Event> = evs
            .iter()
            .filter(|e| matches!(e, Event::Run { .. }))
            .cloned()
            .collect();
        for want in [1usize, 0] {
            swapped.extend(
                evs.iter()
                    .filter(|e| match e {
                        Event::Run { .. } => false,
                        Event::Span { rank, .. }
                        | Event::Gmres { rank, .. }
                        | Event::AmgSetup { rank, .. } => *rank == want,
                        _ => true,
                    })
                    .cloned(),
            );
        }
        let mut reversed = evs.clone();
        reversed.reverse();
        let base = Report::from_events(&evs);
        assert_eq!(
            base.phases,
            vec!["graph+physics", "local assembly", "solve"],
            "plot order, not merge order"
        );
        for other in [swapped, reversed] {
            let r = Report::from_events(&other);
            assert_eq!(base.render_ascii(), r.render_ascii());
        }
    }

    /// A `step_health` row of one continuity solve.
    fn health_row(rank: usize, step: usize, iters: u64, final_rel: f64) -> Event {
        let eqs = vec![crate::EqHealthRow { eq: "continuity".into(), iters, final_rel }];
        let (amg_levels, grid_complexity, operator_complexity) = (3, 1.2, 1.3);
        Event::StepHealth { rank, step, eqs, amg_levels, grid_complexity, operator_complexity }
    }

    #[test]
    fn health_events_aggregate_into_trend_and_summary() {
        let mut evs = sample_events();
        // Three warmup steps, then iterations triple for good. The deeper
        // residual keeps the rate in its envelope, so only the iteration
        // count alarms: once, when the streak reaches the window.
        let series = [(6, 1e-6), (7, 1e-6), (6, 1e-6), (18, 1e-12), (18, 1e-12), (18, 1e-12)];
        for (step, (iters, final_rel)) in series.into_iter().enumerate() {
            // Rank 1's copy of the row must not replay twice.
            for rank in 0..2usize {
                evs.push(health_row(rank, step, iters, final_rel));
            }
        }
        let r = Report::from_events(&evs);
        let t = &r.health.per_eq["continuity"];
        assert_eq!(r.health.steps, 6);
        assert_eq!((t.first_iters, t.last_iters, t.max_iters), (6, 18, 18));
        let [v] = &r.health.verdicts[..] else { panic!("{:?}", r.health.verdicts) };
        let gmres_iters = DegradationKind::GmresIters;
        assert_eq!((v.step, v.kind, v.eq.as_deref(), v.value), (4, gmres_iters, Some("continuity"), 18.0));
        let (worst, _) = r.health.worst_equation().unwrap();
        assert_eq!(worst, "continuity");
        let ascii = r.render_ascii();
        assert!(ascii.contains("solver health trend"), "{ascii}");
        assert!(ascii.contains("step    4: gmres-iters on continuity: 18.0000"), "{ascii}");
        let line = r.health_summary().unwrap();
        assert!(line.contains("gmres-iters"), "{line}");
        assert!(line.contains("worst eq continuity 6 -> 18 iters"), "{line}");
        // The warmup alone summarizes as ok and renders no verdict lines.
        let quiet: Vec<Event> = evs
            .iter()
            .filter(|e| !matches!(e, Event::StepHealth { step, .. } if *step >= 3))
            .cloned()
            .collect();
        let rq = Report::from_events(&quiet);
        let line = rq.health_summary().unwrap();
        assert!(line.contains("ok over 3 steps"), "{line}");
        assert!(rq.render_ascii().contains("no degradation verdicts"));
    }

    #[test]
    fn health_steps_count_rows_and_recoveries_replay_from_recovery_events() {
        // A stream resumed after step 2: three rows, whatever their index.
        let mut evs: Vec<Event> = (2..=4).map(|step| health_row(0, step, 6, 1e-6)).collect();
        assert_eq!(Report::from_events(&evs).health.steps, 3);
        // One recovery attempt in step 5, after a clean warmup, storms.
        evs.push(Event::Recovery {
            rank: 0,
            eq: "continuity".into(),
            step: 5,
            fault: "non_finite_residual".into(),
            action: "rebuild".into(),
            attempt: 1,
            outcome: "recovered".into(),
        });
        evs.push(health_row(0, 5, 6, 1e-6));
        let h = Report::from_events(&evs).health;
        assert_eq!((h.steps, h.recoveries), (4, 1));
        let kinds: Vec<_> = h.verdicts.iter().map(|v| (v.step, v.kind)).collect();
        assert_eq!(kinds, [(5, DegradationKind::RecoveryStorm)]);
    }

    #[test]
    fn critical_path_section_attributes_makespan() {
        let mut evs = vec![crate::run_info(2, "inproc", "auto", None)];
        // Rank 1 finishes its picard work early and the step ends when
        // rank 0 does: the path is rank 0's compute.
        for rank in 0..2usize {
            let secs = if rank == 0 { 1.0 } else { 0.4 };
            evs.push(Event::Span { rank, path: "timestep".into(), secs: 1.0, t0: Some(0.0) });
            evs.push(Event::Span { rank, path: "timestep/picard".into(), secs, t0: Some(0.0) });
        }
        let r = Report::from_events(&evs);
        assert_eq!((r.steps, r.critical_path.len()), (1, 1), "one timestep span per rank");
        assert!(r.critical_path[0].coverage() > 0.95, "{:?}", r.critical_path);
        let ascii = r.render_ascii();
        assert!(ascii.contains("critical path"), "{ascii}");
        assert!(ascii.contains("picard"), "{ascii}");
        // Streams without timestamps render no section.
        let quiet = Report::from_events(&sample_events());
        assert!(quiet.critical_path.is_empty());
        assert!(!quiet.render_ascii().contains("critical path"));
    }

    #[test]
    fn wait_summary_splits_receives_by_wait_loop_exit() {
        assert_eq!(Report::from_events(&sample_events()).wait_summary(), None);
        let mut evs = sample_events();
        for (rank, polled) in [(0, 70), (1, 20)] {
            evs.push(Event::Counter { rank, name: "parcomm.recv_polled".into(), value: polled });
        }
        evs.push(Event::Counter { rank: 1, name: "parcomm.recv_parked".into(), value: 10 });
        let report = Report::from_events(&evs);
        let line = report.wait_summary().unwrap();
        assert_eq!(
            line,
            "receives (summed over ranks): satisfied while polling 90 (90.0 %), after parking 10"
        );
        assert!(report.render_ascii().contains(&line));
    }

    #[test]
    fn reuse_summary_sums_counters_over_ranks_and_tolerates_missing_ones() {
        assert_eq!(Report::from_events(&sample_events()).reuse_summary(), None);
        let mut evs = sample_events();
        for rank in 0..2 {
            evs.push(Event::Counter { rank, name: "amg.setup_reused".into(), value: 3 });
            evs.push(Event::Counter { rank, name: "continuity.operators_reused".into(), value: 3 });
            evs.push(Event::Counter { rank, name: "smoother.zero_guess_rounds".into(), value: 21 });
        }
        assert_eq!(
            Report::from_events(&evs).reuse_summary().as_deref(),
            Some(
                "reuse (summed over ranks): AMG setups rebuilt 0 / reused 6; \
                 graphs rebuilt 0 / reused 0; assembly plans built 0 / replayed 0; \
                 continuity operators assembled 0 / reused 6; \
                 zero-guess smoothing rounds 42"
            )
        );
    }

    #[test]
    fn curve_renders_monotone_levels() {
        let s = render_curve(&[1.0, 1e-3, 1e-6, 1e-9]);
        assert!(s.starts_with("[9630]"), "{s}");
    }
}
