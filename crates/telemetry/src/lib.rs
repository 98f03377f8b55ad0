//! Unified telemetry layer: hierarchical spans, solver metrics, and
//! Fig. 6/7-style phase reports.
//!
//! One [`Telemetry`] handle per simulated MPI rank records into a
//! per-rank [event](Event) stream:
//!
//! - **spans** — a `timestep → picard → equation → phase` hierarchy with
//!   per-span wall clock, closed by RAII guards;
//! - **counters**, aggregated per rank and flushed at
//!   [`Telemetry::finish`] (log-scale [histograms](LogHistogram) carry
//!   the collective latencies and the report's GMRES iteration spread);
//! - **structured solver events** — GMRES convergence trajectories, AMG
//!   hierarchy tables, per-phase `PhaseTrace` rollups.
//!
//! The handle is installed as a thread-local *current* dispatcher
//! ([`Telemetry::install`]), so deep solver layers (`krylov::gmres`,
//! `amg::hierarchy`, smoothers, assembly) emit through the free functions
//! [`span`], [`counter`], [`record`] without threading a
//! handle through every signature — the same pattern as the `tracing`
//! crate's dispatcher. Each simulated rank is one OS thread and rayon
//! worker threads never touch the dispatcher, so recording is
//! single-threaded per rank and merging per-rank streams in rank order
//! ([`merge_ranks`]) is deterministic and thread-count independent.
//!
//! **Disabled is (near) free**: a disabled handle is `inner: None`; every
//! hook is one thread-local read and an `Option` check, no allocation, no
//! clock read. Enabling telemetry only *observes* the solver — it is
//! proven by `tests/determinism.rs` not to perturb converged results by a
//! single bit.
//!
//! Enable via the `SolverConfig::telemetry` flag.

pub mod event;
pub mod health;
pub mod histogram;
pub mod json;
pub mod report;
pub mod trace;

pub use event::{AmgLevelRow, EqHealthRow, Event, SCHEMA_VERSION};
pub use histogram::{LogHistogram, UNDERFLOW_BUCKET};
pub use json::Json;
pub use report::Report;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

struct OpenSpan {
    name: String,
    /// Seconds since the recorder's epoch at span open (the span's `t0`).
    /// The closing timestamp comes from the same epoch, so recorded
    /// windows nest exactly: a child's open/close clock reads are
    /// ordered between its parent's even if the OS preempts the thread
    /// between them.
    t0: f64,
}

struct Recorder {
    rank: usize,
    /// Per-rank monotonic epoch; every timestamp (`t0`, `t_first`,
    /// `t_last`, `t`) is seconds since this instant. Only enabled
    /// handles own an epoch, so disabled runs never read the clock.
    epoch: Instant,
    stack: Vec<OpenSpan>,
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
}

impl Recorder {
    fn path(&self) -> String {
        let names: Vec<&str> = self.stack.iter().map(|s| s.name.as_str()).collect();
        names.join("/")
    }
}

/// Per-rank telemetry handle. Cheap to clone (shared recorder); a
/// disabled handle is a no-op on every operation.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Telemetry {
    /// A handle that records nothing, at near-zero cost.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled handle recording for `rank`.
    pub fn enabled(rank: usize) -> Telemetry {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Recorder {
                rank,
                epoch: Instant::now(),
                stack: Vec::new(),
                events: Vec::new(),
                counters: BTreeMap::new(),
            }))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Recording rank (0 for a disabled handle).
    pub fn rank(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.borrow().rank)
    }

    /// Seconds since this handle's epoch, `None` for a disabled handle
    /// (which never reads the clock).
    pub fn elapsed_secs(&self) -> Option<f64> {
        self.inner.as_ref().map(|r| r.borrow().epoch.elapsed().as_secs_f64())
    }

    /// `/`-joined names of the currently open spans.
    pub fn current_path(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |r| r.borrow().path())
    }

    /// Install as the thread-local current dispatcher; restored (to the
    /// previous dispatcher) when the guard drops.
    pub fn install(&self) -> InstallGuard {
        let prev = CURRENT.with(|c| c.replace(self.clone()));
        InstallGuard { prev: Some(prev) }
    }

    /// Open a span; it closes (recording an [`Event::Span`]) when the
    /// guard drops. Guards must drop in LIFO order (scopes do this).
    /// `name` must not contain `/`, the path separator.
    pub fn span(&self, name: &str) -> SpanGuard {
        if let Some(rec) = &self.inner {
            debug_assert!(!name.contains('/'), "span name {name:?} contains '/'");
            let mut rec = rec.borrow_mut();
            let t0 = rec.epoch.elapsed().as_secs_f64();
            rec.stack.push(OpenSpan { name: name.to_string(), t0 });
        }
        SpanGuard {
            inner: self.inner.clone(),
        }
    }

    /// Add to a named counter.
    pub fn counter(&self, name: &str, add: u64) {
        if let Some(rec) = &self.inner {
            *rec.borrow_mut().counters.entry(name.to_string()).or_insert(0) += add;
        }
    }

    /// Append a structured event.
    pub fn record(&self, ev: Event) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().events.push(ev);
        }
    }

    /// Drain the recorder: flush counters (sorted by name, so the tail
    /// of the stream is deterministic) and return all events. Errors if
    /// any span is still open — the span-nesting invariant.
    pub fn try_finish(&self) -> Result<Vec<Event>, String> {
        let Some(rec) = &self.inner else {
            return Ok(Vec::new());
        };
        let mut rec = rec.borrow_mut();
        if !rec.stack.is_empty() {
            let open: Vec<String> = rec.stack.iter().map(|s| s.name.clone()).collect();
            return Err(format!("unclosed spans at finish: {}", open.join("/")));
        }
        let rank = rec.rank;
        let mut events = std::mem::take(&mut rec.events);
        for (name, value) in std::mem::take(&mut rec.counters) {
            events.push(Event::Counter { rank, name, value });
        }
        Ok(events)
    }

    /// [`Telemetry::try_finish`], panicking on unclosed spans.
    pub fn finish(&self) -> Vec<Event> {
        self.try_finish().expect("telemetry finish")
    }
}

/// Restores the previously installed dispatcher on drop.
pub struct InstallGuard {
    prev: Option<Telemetry>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| c.replace(prev));
        }
    }
}

/// Closes its span on drop.
pub struct SpanGuard {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(rec) = self.inner.take() {
            let mut rec = rec.borrow_mut();
            let Some(top) = rec.stack.pop() else {
                debug_assert!(false, "span guard dropped with empty span stack");
                return;
            };
            let secs = (rec.epoch.elapsed().as_secs_f64() - top.t0).max(0.0);
            let path = if rec.stack.is_empty() {
                top.name
            } else {
                format!("{}/{}", rec.path(), top.name)
            };
            let rank = rec.rank;
            rec.events.push(Event::Span { rank, path, secs, t0: Some(top.t0) });
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local current dispatcher
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Telemetry> = RefCell::new(Telemetry::disabled());
}

/// Clone of the thread-local current handle.
pub fn current() -> Telemetry {
    CURRENT.with(|c| c.borrow().clone())
}

/// True when the current dispatcher records (cheap pre-check before
/// building expensive event payloads).
pub fn is_enabled() -> bool {
    CURRENT.with(|c| c.borrow().inner.is_some())
}

/// Seconds since the current dispatcher's epoch — the base of
/// every timestamp. `None` when telemetry is disabled, so callers can
/// gate every clock read on it and keep telemetry-off runs bitwise
/// identical.
pub fn now_secs() -> Option<f64> {
    CURRENT.with(|c| c.borrow().elapsed_secs())
}

/// Open a span on the current dispatcher.
pub fn span(name: &str) -> SpanGuard {
    CURRENT.with(|c| c.borrow().span(name))
}

/// Add to a counter on the current dispatcher.
pub fn counter(name: &str, add: u64) {
    CURRENT.with(|c| c.borrow().counter(name, add));
}

/// Record a structured event on the current dispatcher.
pub fn record(ev: Event) {
    CURRENT.with(|c| c.borrow().record(ev));
}

// ---------------------------------------------------------------------------
// Merge + export
// ---------------------------------------------------------------------------

/// Merge per-rank event streams into one deterministic stream: ranks in
/// index order, each rank's events in recorded order. The result is
/// independent of the thread count the ranks ran under (recording is
/// per-rank-thread), which `tests/telemetry.rs` asserts.
pub fn merge_ranks(logs: Vec<Vec<Event>>) -> Vec<Event> {
    logs.into_iter().flatten().collect()
}

/// Run metadata for an exported stream: rank count, worker thread count
/// (`RAYON_NUM_THREADS` or hardware parallelism), the labels of the
/// transport backend and kernel policy the run was configured with
/// (`SolverConfig::transport.label()` / `SolverConfig::kernels.label()`
/// — passed in, so a run configured in code is labelled as what it ran,
/// and this crate reads neither variable), the git commit if
/// discoverable (`GIT_COMMIT` env or `.git/HEAD`), and the per-rank
/// clock-alignment table from the startup handshake:
/// `offsets[r]` maps rank `r`'s epoch timestamps onto rank 0's timeline
/// (`t_global = t_rank + offsets[r]`), and `rtts[r]` is the minimum
/// round-trip observed while estimating it (offset uncertainty ≤ rtt/2).
pub fn run_info(
    ranks: usize,
    transport: &str,
    kernel_policy: &str,
    clock: Option<(Vec<f64>, Vec<f64>)>,
) -> Event {
    let (clock_offsets, clock_rtts) = match clock {
        Some((o, r)) => (Some(o), Some(r)),
        None => (None, None),
    };
    Event::Run {
        ranks,
        threads: configured_threads(),
        transport: transport.to_string(),
        kernel_policy: kernel_policy.to_string(),
        git_commit: git_commit(),
        clock_offsets,
        clock_rtts,
    }
}

/// Worker-thread count the process runs with.
pub fn configured_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
}

/// Current git commit: `GIT_COMMIT` env var, else resolved from
/// `.git/HEAD` (walking one symbolic ref). Offline, no subprocess.
/// `cargo test`/`cargo bench` set cwd to the package dir, so the `.git`
/// directory is searched for in every ancestor of the current dir.
pub fn git_commit() -> Option<String> {
    if let Ok(c) = std::env::var("GIT_COMMIT") {
        if !c.is_empty() {
            return Some(c);
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    let git = loop {
        let cand = dir.join(".git");
        if cand.is_dir() {
            break cand;
        }
        if !dir.pop() {
            return None;
        }
    };
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        let direct = std::fs::read_to_string(git.join(refname)).ok();
        if let Some(c) = direct {
            return Some(c.trim().to_string());
        }
        // Packed refs fallback.
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some(hash) = line.strip_suffix(refname) {
                return Some(hash.trim().to_string());
            }
        }
        None
    } else if head.len() >= 7 {
        Some(head.to_string())
    } else {
        None
    }
}

/// Write events as JSONL (one event per line), replacing `path`.
pub fn write_jsonl(path: &str, events: &[Event]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for ev in events {
        writeln!(f, "{}", ev.to_line())?;
    }
    f.flush()
}

/// Parse a JSONL string, validating every line against the schema.
pub fn read_jsonl_str(s: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(
            Event::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?,
        );
    }
    Ok(events)
}

/// Read + validate a JSONL file.
pub fn read_jsonl(path: &str) -> Result<Vec<Event>, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    read_jsonl_str(&s)
}

/// Semantic (cross-event) validation of a parsed stream, beyond the
/// per-line schema check of [`read_jsonl_str`]:
///
/// - every `phase_perf` whose label names a span (contains `/`, i.e. a
///   `Phase::trace_label` like `continuity/solve`) must reference a span
///   that the *same rank* actually opened and closed — the label must
///   equal a recorded span path or be a `/`-suffix of one. Bare labels
///   (parcomm's default `other` phase) carry no span reference and pass.
/// - every `kernel_perf` must be sane: at least one call, finite
///   non-negative seconds.
/// - the two views of the kernel ledger must reconcile: per rank, the
///   `kernel_perf` rows' summed (`calls`, `bytes`, `flops`) equal the
///   `phase_perf` rows' summed (`kernel_launches`, `kernel_bytes`,
///   `kernel_flops`) exactly — both are projections of the same
///   launches, so a rank reporting one view without the other fails too.
/// - every `comm_edge` must be reported by one of its two endpoints,
///   must not be a self-edge, and (when a `run` event names the rank
///   count) must stay in rank range; where *both* endpoints of an edge
///   report it, their msg/byte totals must agree.
/// - collective participation must be consistent: every rank that
///   reports any `collective` event must report every kind seen in the
///   stream, with identical per-rank counts (collectives are
///   bulk-synchronous). Partial per-rank streams — where only some ranks
///   report at all — still validate; only *inconsistent* participation
///   is an error.
/// - timestamps, where present, must be consistent: span
///   windows nest (a child span's `[t0, t0+secs]` lies inside some
///   same-rank parent instance's window), and a `comm_edge`'s receiver
///   timestamps are ≥ the sender's after clock-offset correction, with
///   slack for the handshake's rtt/2 uncertainty. The `run` clock table
///   itself must be finite, non-negative-rtt, and rank-count sized.
///
/// The cross-event checks read the stream's one [`trace::Timeline`]
/// (the first `run` event's rank count and clock table, the span
/// windows with parents looked up by path, the two views of each edge,
/// the per-rank collective rows); errors print raw rank-local times.
///
/// Returns all violations, not just the first.
pub fn validate_stream(events: &[Event]) -> Result<(), Vec<String>> {
    use std::collections::{BTreeMap, BTreeSet};
    let tl = trace::Timeline::from_events(events);
    let clock = &tl.clock;
    let run_ranks = tl.run.as_ref().map(|h| h.ranks);
    // `what` names rank `v`, which the `run` event's rank count excludes.
    let out_of_range = |what: String, v: usize| {
        run_ranks
            .filter(|&n| v >= n)
            .map(|n| format!("{what} out of range for run with {n} ranks"))
    };
    let mut errors = Vec::new();
    // Clock table sanity (an empty table is one the handshake never wrote).
    for (name, table) in [("clock_offsets", &clock.offsets), ("clock_rtts", &clock.rtts)] {
        if let Some(n) = run_ranks.filter(|&n| !table.is_empty() && table.len() != n) {
            errors.push(format!("run {name}: {} entries for a {n}-rank run", table.len()));
        }
        for (r, v) in table.iter().enumerate() {
            if !v.is_finite() {
                errors.push(format!("run {name}[{r}]: non-finite"));
            } else if name == "clock_rtts" && *v < 0.0 {
                errors.push(format!("run {name}[{r}]: negative round-trip"));
            }
        }
    }
    // rank → [by-phase view, by-name view] as (launches, bytes, flops).
    let mut kernel_views: BTreeMap<usize, [(u64, u64, u64); 2]> = BTreeMap::new();
    let mut add_launches = |rank: usize, view: usize, (n, bytes, flops): (u64, u64, u64)| {
        let v = &mut kernel_views.entry(rank).or_default()[view];
        *v = (v.0 + n, v.1 + bytes, v.2 + flops);
    };
    for ev in events {
        if let Event::PhasePerf { rank, kernel_launches, kernel_bytes, kernel_flops, .. } = ev {
            add_launches(*rank, 0, (*kernel_launches, *kernel_bytes, *kernel_flops));
        }
        match ev {
            Event::Span { rank, path, t0: Some(t0), .. } if !t0.is_finite() || *t0 < 0.0 => {
                errors.push(format!("span rank {rank} path {path:?}: non-finite or negative t0"));
            }
            Event::PhasePerf { rank, label, .. } if label.contains('/') => {
                let suffix = format!("/{label}");
                let known = tl.span_paths.keys().any(|&(r, p)| {
                    r == *rank && (p == label || p.ends_with(&suffix))
                });
                if !known {
                    errors.push(format!(
                        "phase_perf rank {rank} label {label:?} references a span \
                         never opened (or never closed) on that rank"
                    ));
                }
            }
            Event::KernelPerf { rank, kernel, calls, secs, bytes, flops, .. } => {
                add_launches(*rank, 1, (*calls, *bytes, *flops));
                let mut bad = |what: &str| {
                    errors.push(format!("kernel_perf rank {rank} kernel {kernel:?}: {what}"))
                };
                if *calls == 0 {
                    bad("zero calls");
                }
                if !secs.is_finite() || *secs < 0.0 {
                    bad("non-finite or negative secs");
                }
            }
            Event::Checkpoint { rank, step, generation, bytes, secs, .. } => {
                if *bytes == 0 {
                    errors.push(format!(
                        "checkpoint rank {rank} generation {generation}: zero bytes written"
                    ));
                }
                if !secs.is_finite() || *secs < 0.0 {
                    errors.push(format!(
                        "checkpoint rank {rank} generation {generation}: non-finite or \
                         negative secs"
                    ));
                }
                if (*generation as usize) > *step {
                    errors.push(format!(
                        "checkpoint rank {rank}: generation {generation} captured after \
                         only {step} steps"
                    ));
                }
                errors.extend(out_of_range(format!("checkpoint rank {rank}"), *rank));
            }
            Event::Restore { rank, step, generation, .. } => {
                if (*generation as usize) > *step {
                    errors.push(format!(
                        "restore rank {rank}: resumed generation {generation} is newer \
                         than its own step cursor {step}"
                    ));
                }
                errors.extend(out_of_range(format!("restore rank {rank}"), *rank));
            }
            _ => {}
        }
    }
    for &(rank, (src, dst, class), trace::EdgeView { msgs, bytes, window }) in &tl.edge_reports {
        if src == dst {
            errors.push(format!("comm_edge rank {rank}: self-edge {src}->{dst}"));
        }
        if rank != src && rank != dst {
            errors.push(format!("comm_edge rank {rank} is neither src {src} nor dst {dst}"));
        }
        for (name, v) in [("rank", rank), ("src", src), ("dst", dst)] {
            errors.extend(out_of_range(format!("comm_edge {name} {v}"), v));
        }
        if msgs == 0 && bytes > 0 {
            errors.push(format!(
                "comm_edge {src}->{dst} [{class}]: {bytes} bytes but zero messages"
            ));
        }
        if let Some((tf, tl)) = window.filter(|(tf, tl)| tl < tf) {
            errors.push(format!(
                "comm_edge {src}->{dst} [{class}] rank {rank}: t_last {tl} before t_first {tf}"
            ));
        }
    }
    for (rank, [by_phase, by_name]) in &kernel_views {
        if by_phase != by_name {
            errors.push(format!(
                "kernel ledger rank {rank}: phase_perf rows total {} launches / {} bytes / {} \
                 flops but kernel_perf rows total {} calls / {} bytes / {} flops",
                by_phase.0, by_phase.1, by_phase.2, by_name.0, by_name.1, by_name.2
            ));
        }
    }
    for ((src, dst, class), views) in &tl.edges {
        let [Some(s), Some(r)] = views else { continue };
        if (s.msgs, s.bytes) != (r.msgs, r.bytes) {
            errors.push(format!(
                "comm_edge {src}->{dst} [{class}]: sender recorded {} msgs / {} bytes \
                 but receiver recorded {} msgs / {} bytes",
                s.msgs, s.bytes, r.msgs, r.bytes
            ));
        }
        // Causality: once both endpoints put their timestamps on one
        // timeline, a message cannot complete receipt before it started
        // sending. The offset table carries rtt/2 of uncertainty per
        // rank, so that much slack (plus float dust) is allowed.
        let (Some(send), Some(recv)) = (s.window, r.window) else { continue };
        let slack = clock.rtt(*src) / 2.0 + clock.rtt(*dst) / 2.0 + 1e-6;
        let send = (clock.align(*src, send.0), clock.align(*src, send.1));
        let recv = (clock.align(*dst, recv.0), clock.align(*dst, recv.1));
        for (what, s, r) in [("first", send.0, recv.0), ("last", send.1, recv.1)] {
            if r + slack < s {
                errors.push(format!(
                    "comm_edge {src}->{dst} [{class}]: {what} receive at aligned \
                     t={r:.9} precedes {what} send at t={s:.9} (slack {slack:.3e})"
                ));
            }
        }
    }
    // Span nesting: a child's window must lie inside a same-rank parent
    // instance's window. Paths repeat across timesteps, so any enclosing
    // instance of the parent path qualifies; a missing-but-expected
    // parent (none recorded with valid timestamps) is skipped — per-rank
    // partial streams stay valid.
    let valid = |w: &&trace::SpanWindow| w.2.is_finite() && w.2 >= 0.0;
    for (rank, spans) in &tl.spans {
        for &(path, _, t0, secs) in spans.iter().filter(valid) {
            let Some((parent_path, _)) = path.rsplit_once('/') else { continue };
            let end = t0 + secs;
            let instances = tl.span_paths.get(&(*rank, parent_path)).into_iter().flatten();
            let parents: Vec<_> = instances.map(|&i| &spans[i]).filter(valid).collect();
            let eps = 1e-6;
            let nested = |p: &&trace::SpanWindow| p.2 <= t0 + eps && end <= p.2 + p.3 + eps;
            if !parents.is_empty() && !parents.iter().any(nested) {
                errors.push(format!(
                    "span rank {rank} path {path:?}: window [{t0:.9}, {end:.9}] not \
                     nested in any {parent_path:?} instance"
                ));
            }
        }
    }
    // Collective participation: every rank reporting any kind reports
    // every kind, with one count per kind.
    let coll_ranks: BTreeSet<usize> =
        tl.collectives.values().flat_map(|by_rank| by_rank.keys().copied()).collect();
    for (kind, by_rank) in &tl.collectives {
        for rank in coll_ranks.iter().filter(|r| !by_rank.contains_key(r)) {
            errors.push(format!(
                "collective {kind:?}: rank {rank} reports other collectives but is a \
                 missing participant in this kind"
            ));
        }
        for &rank in by_rank.keys() {
            errors.extend(out_of_range(format!("collective rank {rank}"), rank));
        }
        let counts: BTreeMap<usize, u64> = by_rank.iter().map(|(r, row)| (*r, row.count)).collect();
        if counts.values().collect::<BTreeSet<_>>().len() > 1 {
            errors.push(format!("collective {kind:?}: per-rank counts disagree: {counts:?}"));
        }
    }
    if errors.is_empty() { Ok(()) } else { Err(errors) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        {
            let _s = t.span("x");
            t.counter("c", 1);
            t.record(Event::Counter { rank: 0, name: "n".into(), value: 1 });
        }
        assert!(t.finish().is_empty());
    }

    #[test]
    fn spans_nest_and_record_paths() {
        let t = Telemetry::enabled(3);
        {
            let _a = t.span("timestep");
            assert_eq!(t.current_path(), "timestep");
            {
                let _b = t.span("picard");
                let _c = t.span("continuity");
                assert_eq!(t.current_path(), "timestep/picard/continuity");
            }
        }
        let events = t.finish();
        let paths: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span { path, rank, .. } => {
                    assert_eq!(*rank, 3);
                    Some(path.as_str())
                }
                _ => None,
            })
            .collect();
        // Closed innermost-first.
        assert_eq!(paths, ["timestep/picard/continuity", "timestep/picard", "timestep"]);
    }

    #[test]
    #[should_panic(expected = "contains '/'")]
    fn span_names_carry_no_path_separator() {
        let _ = Telemetry::enabled(0).span("continuity/solve");
    }

    #[test]
    fn unclosed_span_fails_finish() {
        let t = Telemetry::enabled(0);
        let g = t.span("leaked");
        let err = t.try_finish().unwrap_err();
        assert!(err.contains("leaked"), "{err}");
        drop(g);
        assert_eq!(t.finish().len(), 1); // now closes cleanly
    }

    #[test]
    fn counters_flush_sorted() {
        let t = Telemetry::enabled(0);
        t.counter("b", 2);
        t.counter("a", 1);
        t.counter("b", 3);
        let events = t.finish();
        match &events[0] {
            Event::Counter { name, value, .. } => {
                assert_eq!(name, "a");
                assert_eq!(*value, 1);
            }
            other => panic!("{other:?}"),
        }
        match &events[1] {
            Event::Counter { name, value, .. } => {
                assert_eq!(name, "b");
                assert_eq!(*value, 5);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn install_scopes_the_current_dispatcher() {
        assert!(!is_enabled());
        let t = Telemetry::enabled(1);
        {
            let _g = t.install();
            assert!(is_enabled());
            counter("via_free_fn", 7);
            let _s = span("s");
        }
        assert!(!is_enabled());
        let events = t.finish();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Counter { name, value: 7, .. } if name == "via_free_fn"
        )));
    }

    /// A `phase_perf` row carrying `launches` launches of 8 bytes and 2
    /// flops each.
    fn phase_perf(rank: usize, label: &str, launches: u64) -> Event {
        Event::PhasePerf {
            rank,
            label: label.into(),
            kernel_launches: launches,
            kernel_bytes: 8 * launches,
            kernel_flops: 2 * launches,
            msgs: 0,
            msg_bytes: 0,
            collectives: 0,
            collective_bytes: 0,
            wait_secs: 0.0,
            transfer_secs: 0.0,
        }
    }

    /// The `kernel_perf` row for the same launches, by name.
    fn kernel_perf(rank: usize, kernel: &str, calls: u64) -> Event {
        Event::KernelPerf {
            rank,
            kernel: kernel.into(),
            calls,
            secs: 0.5,
            bytes: 8 * calls,
            flops: 2 * calls,
            dofs: calls,
        }
    }

    #[test]
    fn validate_stream_checks_phase_perf_span_references() {
        let span = Event::Span {
            rank: 0,
            path: "timestep/picard/continuity/solve".into(),
            secs: 0.1,
            t0: None,
        };
        let perf = |rank: usize, label: &str| {
            [phase_perf(rank, label, 1), kernel_perf(rank, "spmv_csr", 1)]
        };
        let stream = |span: &Event, rows: [Event; 2]| {
            let mut evs = vec![span.clone()];
            evs.extend(rows);
            evs
        };
        // Suffix match against the recorded span path: ok.
        assert!(validate_stream(&stream(&span, perf(0, "continuity/solve"))).is_ok());
        // Bare label (parcomm's default "other" phase): no span reference.
        assert!(validate_stream(&perf(0, "other")).is_ok());
        // Unknown span: rejected.
        let errs = validate_stream(&stream(&span, perf(0, "momentum/solve"))).unwrap_err();
        assert!(errs[0].contains("momentum/solve"), "{errs:?}");
        // Right label, wrong rank: the span was never closed on rank 1.
        assert!(validate_stream(&stream(&span, perf(1, "continuity/solve"))).is_err());
    }

    #[test]
    fn validate_stream_checks_kernel_perf_sanity() {
        let mut ev = kernel_perf(1, "spmv_csr", 240);
        let phase = phase_perf(1, "other", 240);
        assert!(validate_stream(&[phase.clone(), ev.clone()]).is_ok());
        if let Event::KernelPerf { secs, .. } = &mut ev {
            *secs = -1.0;
        }
        let errs = validate_stream(&[phase, ev]).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("negative secs"), "{errs:?}");
        // A row without a single call is not a row.
        let errs = validate_stream(&[kernel_perf(0, "spgemm", 0)]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("zero calls")), "{errs:?}");
    }

    #[test]
    fn validate_stream_reconciles_the_two_kernel_views() {
        // Two phases and two kernel names over the same five launches on
        // rank 0, one launch on rank 1: both views agree per rank.
        let good = [
            phase_perf(0, "other", 2),
            phase_perf(0, "solve", 3),
            kernel_perf(0, "spmv_csr", 4),
            kernel_perf(0, "axpy", 1),
            phase_perf(1, "other", 1),
            kernel_perf(1, "spmv_csr", 1),
        ];
        assert!(validate_stream(&good).is_ok());
        // One byte moved out of a kernel_perf row: named rank, both totals.
        let mut bad = good.to_vec();
        if let Event::KernelPerf { bytes, .. } = &mut bad[2] {
            *bytes -= 1;
        }
        let errs = validate_stream(&bad).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("rank 0"), "{errs:?}");
        assert!(errs[0].contains("5 launches / 40 bytes / 10 flops"), "{errs:?}");
        assert!(errs[0].contains("5 calls / 39 bytes / 10 flops"), "{errs:?}");
        // Launches by phase with no by-name row at all (a parent-era
        // stream, or a rank that dropped its kernel_perf rows).
        let errs = validate_stream(&good[..2]).unwrap_err();
        assert!(errs[0].contains("0 calls"), "{errs:?}");
        // And the converse: by-name rows nothing by phase accounts for.
        assert!(validate_stream(&good[2..4]).is_err());
    }

    #[test]
    fn validate_stream_checks_comm_edges() {
        let run = Event::Run {
            ranks: 3,
            threads: 1,
            transport: "inproc".into(),
            kernel_policy: "auto".into(),
            git_commit: None,
            clock_offsets: None,
            clock_rtts: None,
        };
        let edge = |rank: usize, src: usize, dst: usize, bytes: u64| Event::CommEdge {
            rank,
            src,
            dst,
            class: "p2p".into(),
            msgs: 1,
            bytes,
            t_first: None,
            t_last: None,
        };
        // Symmetric sender/receiver pair: ok.
        assert!(
            validate_stream(&[run.clone(), edge(0, 0, 1, 64), edge(1, 0, 1, 64)]).is_ok()
        );
        // Single-endpoint view (per-rank stream before merging): ok.
        assert!(validate_stream(&[run.clone(), edge(0, 0, 1, 64)]).is_ok());
        // Destination rank out of range for the run.
        let errs = validate_stream(&[run.clone(), edge(0, 0, 7, 64)]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("out of range")), "{errs:?}");
        // Byte totals disagree between the two endpoints of the edge.
        let errs =
            validate_stream(&[run.clone(), edge(0, 0, 1, 64), edge(1, 0, 1, 32)]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("receiver recorded")), "{errs:?}");
        // The reporting rank must be one of the edge's endpoints.
        let errs = validate_stream(&[run.clone(), edge(2, 0, 1, 8)]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("neither src")), "{errs:?}");
        // Self-edges never happen: local moves are not communication.
        assert!(validate_stream(&[run, edge(1, 1, 1, 8)]).is_err());
        // Bytes without messages is inconsistent.
        let bad = Event::CommEdge {
            rank: 0,
            src: 0,
            dst: 1,
            class: "halo".into(),
            msgs: 0,
            bytes: 10,
            t_first: None,
            t_last: None,
        };
        let errs = validate_stream(&[bad]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("zero messages")), "{errs:?}");
    }

    #[test]
    fn validate_stream_checks_collective_participants() {
        let coll = |rank: usize, kind: &str, count: u64| Event::Collective {
            rank,
            kind: kind.into(),
            count,
            bytes: 0,
            secs: 0.0,
            buckets: Vec::new(),
            t_first: None,
            t_last: None,
        };
        // All participating ranks report the kind with equal counts: ok.
        assert!(
            validate_stream(&[coll(0, "allreduce", 3), coll(1, "allreduce", 3)]).is_ok()
        );
        // A single rank's stream in isolation: ok.
        assert!(validate_stream(&[coll(0, "allreduce", 3)]).is_ok());
        // Rank 1 reports barriers but is missing from the allreduce kind.
        let errs = validate_stream(&[
            coll(0, "allreduce", 3),
            coll(0, "barrier", 1),
            coll(1, "barrier", 1),
        ])
        .unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing participant")), "{errs:?}");
        // Bulk-synchronous collectives must have identical per-rank counts.
        let errs =
            validate_stream(&[coll(0, "allreduce", 3), coll(1, "allreduce", 2)]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("counts disagree")), "{errs:?}");
    }

    #[test]
    fn validate_stream_checks_span_nesting_windows() {
        let span = |path: &str, t0: f64, secs: f64| Event::Span {
            rank: 0,
            path: path.into(),
            secs,
            t0: Some(t0),
        };
        // Child window inside the parent instance: ok. Paths repeat
        // across timesteps, so a second parent instance also counts.
        assert!(validate_stream(&[
            span("timestep", 0.0, 1.0),
            span("timestep/picard", 0.25, 0.5),
            span("timestep", 2.0, 1.0),
            span("timestep/picard", 2.25, 0.5),
        ])
        .is_ok());
        // Child extends past every parent instance: rejected.
        let errs = validate_stream(&[
            span("timestep", 0.0, 1.0),
            span("timestep/picard", 0.5, 2.0),
        ])
        .unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not nested")), "{errs:?}");
        // No timestamped parent recorded at all (partial stream): ok.
        assert!(validate_stream(&[span("timestep/picard", 0.5, 2.0)]).is_ok());
        // Spans without t0 are never window-checked.
        let untimed = Event::Span {
            rank: 0,
            path: "timestep/picard".into(),
            secs: 9.0,
            t0: None,
        };
        assert!(validate_stream(&[span("timestep", 0.0, 1.0), untimed]).is_ok());
    }

    #[test]
    fn validate_stream_checks_comm_edge_causality() {
        let run = |offsets: Option<Vec<f64>>, rtts: Option<Vec<f64>>| Event::Run {
            ranks: 2,
            threads: 1,
            transport: "socket".into(),
            kernel_policy: "auto".into(),
            git_commit: None,
            clock_offsets: offsets,
            clock_rtts: rtts,
        };
        let edge = |rank: usize, tf: f64, tl: f64| Event::CommEdge {
            rank,
            src: 0,
            dst: 1,
            class: "halo".into(),
            msgs: 2,
            bytes: 64,
            t_first: Some(tf),
            t_last: Some(tl),
        };
        // Receives after sends on the shared timeline: ok.
        let ok = run(Some(vec![0.0, 0.0]), Some(vec![0.0, 0.0]));
        assert!(validate_stream(&[ok.clone(), edge(0, 1.0, 2.0), edge(1, 1.1, 2.1)]).is_ok());
        // First receive precedes first send: rejected.
        let errs =
            validate_stream(&[ok.clone(), edge(0, 1.0, 2.0), edge(1, 0.5, 2.1)]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("precedes")), "{errs:?}");
        // The same raw timestamps pass once the receiver's clock offset
        // explains the skew…
        let skewed = run(Some(vec![0.0, 0.6]), Some(vec![0.0, 0.0]));
        assert!(
            validate_stream(&[skewed, edge(0, 1.0, 2.0), edge(1, 0.5, 2.1)]).is_ok()
        );
        // …or once the handshake admits that much rtt uncertainty.
        let fuzzy = run(Some(vec![0.0, 0.0]), Some(vec![0.0, 1.2]));
        assert!(validate_stream(&[fuzzy, edge(0, 1.0, 2.0), edge(1, 0.5, 2.1)]).is_ok());
        // A single view reversing its own interval is always wrong.
        let errs = validate_stream(&[ok, edge(0, 2.0, 1.0)]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("t_last")), "{errs:?}");
        // Clock table must be sized to the run and finite.
        let bad_table = run(Some(vec![0.0]), Some(vec![f64::NAN, -1.0]));
        let errs = validate_stream(&[bad_table]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("entries for a 2-rank run")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("non-finite")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("negative round-trip")), "{errs:?}");
    }

    #[test]
    fn enabled_spans_carry_epoch_timestamps() {
        let t = Telemetry::enabled(0);
        {
            let _a = t.span("timestep");
            let _b = t.span("picard");
        }
        let events = t.finish();
        for ev in &events {
            let Event::Span { t0, secs, .. } = ev else { continue };
            let t0 = t0.expect("enabled spans are timestamped");
            assert!(t0.is_finite() && t0 >= 0.0);
            assert!(*secs >= 0.0);
        }
        assert!(validate_stream(&events).is_ok());
        assert!(t.elapsed_secs().is_some());
        assert!(Telemetry::disabled().elapsed_secs().is_none());
    }
}
