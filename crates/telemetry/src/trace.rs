//! Cross-rank timeline: one extraction of a stream's cross-rank
//! structure, and the Chrome/Perfetto trace export and critical-path
//! attribution over it.
//!
//! Every rank stamps its spans, comm edges and collectives against its
//! own monotonic epoch; the epochs' wall-clock anchors, gathered at
//! startup and recorded in the `run` event, map each rank's epoch onto
//! rank 0's timeline (`t_global = t_rank + clock_offsets[rank]`).
//! [`Timeline::from_events`]
//! reads a stream once into that table, the run header, per-rank span
//! windows, the two endpoint views of every comm edge and the
//! per-rank collective rows; [`crate::Report`], [`crate::validate_stream`]
//! and the two views below all read that one extraction. With all ranks
//! on one axis, two things become possible that per-rank durations alone
//! can never answer:
//!
//! - [`chrome_trace`] renders the merged stream as Chrome
//!   trace-event JSON — one track per rank, spans as complete (`"X"`)
//!   duration events, send→recv comm edges as flow arrows, collectives
//!   and checkpoints as instants — loadable in `ui.perfetto.dev`
//!   unmodified. [`validate_chrome`] checks the output structurally
//!   (balanced begin/end, monotone per-track timestamps, matched flow
//!   ids) so CI can gate on it without a browser.
//! - [`critical_paths`] walks each timestep's merged timeline backward
//!   from the last rank to finish, decomposing the step's makespan into
//!   compute-on-rank-r leaf segments and wait-on-rank-s hops. The
//!   segments partition the makespan by construction, so per-phase and
//!   per-rank blame totals sum to what the step actually cost.

use crate::json::Json;
use crate::{Event, LogHistogram};
use std::collections::{BTreeMap, BTreeSet};

/// Timestamp comparisons tolerate this much float dust (seconds).
const EPS: f64 = 1e-9;

/// Clock-alignment table of the stream's first `run` event: aligned
/// time for rank `r` is `t + offsets[r]`, uncertain by `rtts[r] / 2`
/// (`rtts[r]` is the width of rank `r`'s wall-clock anchor bracket).
/// Identity (both tables empty) when no clock sync ran.
#[derive(Clone, Debug, Default)]
pub struct ClockTable {
    pub offsets: Vec<f64>,
    pub rtts: Vec<f64>,
}

impl ClockTable {
    /// Rank `r`'s timestamp mapped onto rank 0's timeline.
    pub fn align(&self, rank: usize, t: f64) -> f64 {
        t + self.offsets.get(rank).copied().unwrap_or(0.0)
    }

    /// Rank `r`'s anchor bracket width (0 when none was recorded).
    pub fn rtt(&self, rank: usize) -> f64 {
        self.rtts.get(rank).copied().unwrap_or(0.0)
    }
}

/// The first `run` event's header.
#[derive(Clone, Debug)]
pub struct RunHeader<'a> {
    pub ranks: usize,
    pub threads: usize,
    pub transport: &'a str,
    pub kernel_policy: &'a str,
    pub git_commit: Option<&'a str>,
}

/// One timestamped span as `(path, depth, t0, secs)`, on its rank's own
/// clock (its end is `t0 + secs`).
pub type SpanWindow<'a> = (&'a str, usize, f64, f64);

/// A span's depth: span names carry no `/`, so it is the `/` count of
/// its path.
pub fn span_depth(path: &str) -> usize {
    path.matches('/').count()
}

/// A comm edge `(src, dst, class)`.
pub type EdgeKey<'a> = (usize, usize, &'a str);

/// One endpoint's view of an edge: its lines' totals, and the raw
/// `(min t_first, max t_last)` over those that carry both.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EdgeView {
    pub msgs: u64,
    pub bytes: u64,
    pub window: Option<(f64, f64)>,
}

/// One rank's `collective` lines of one kind, folded.
#[derive(Clone, Debug, Default)]
pub struct CollectiveRow {
    pub count: u64,
    pub bytes: u64,
    /// Per-entry latencies (its total is the lines' summed `secs`).
    pub latency: LogHistogram,
    /// Latest raw `t_last`.
    pub t_last: Option<f64>,
}

/// A stream's cross-rank structure, read in one pass.
#[derive(Clone, Debug, Default)]
pub struct Timeline<'a> {
    pub clock: ClockTable,
    pub run: Option<RunHeader<'a>>,
    /// The header's rank count, else one more than the largest rank any
    /// event names.
    pub ranks: usize,
    /// rank → its timestamped spans in stream order.
    pub spans: BTreeMap<usize, Vec<SpanWindow<'a>>>,
    /// `(rank, path)` of every span a rank closed → the indices of its
    /// timestamped instances in `spans[rank]`.
    pub span_paths: BTreeMap<(usize, &'a str), Vec<usize>>,
    /// Every `comm_edge` line as (reporting rank, edge, the line's view).
    pub edge_reports: Vec<(usize, EdgeKey<'a>, EdgeView)>,
    /// Edge → `[sender view, receiver view]`; a line is the sender's
    /// when its rank is `src`.
    pub edges: BTreeMap<EdgeKey<'a>, [Option<EdgeView>; 2]>,
    /// kind → rank → row.
    pub collectives: BTreeMap<&'a str, BTreeMap<usize, CollectiveRow>>,
}

impl<'a> Timeline<'a> {
    /// The one reader of `run`, `comm_edge` and `collective` events.
    pub fn from_events(events: &'a [Event]) -> Timeline<'a> {
        let mut tl = Timeline::default();
        let mut max_rank = 0;
        for ev in events {
            match ev {
                Event::Run {
                    ranks, threads, transport, kernel_policy, git_commit, clock_offsets, clock_rtts,
                } if tl.run.is_none() => {
                    let (ranks, threads, git_commit) = (*ranks, *threads, git_commit.as_deref());
                    tl.run = Some(RunHeader { ranks, threads, transport, kernel_policy, git_commit });
                    tl.clock = ClockTable {
                        offsets: clock_offsets.clone().unwrap_or_default(),
                        rtts: clock_rtts.clone().unwrap_or_default(),
                    };
                }
                Event::Run { .. } => {}
                Event::Span { rank, path, secs, t0 } => {
                    max_rank = max_rank.max(*rank);
                    let at = tl.span_paths.entry((*rank, path)).or_default();
                    if let Some(t0) = *t0 {
                        let spans = tl.spans.entry(*rank).or_default();
                        at.push(spans.len());
                        spans.push((path.as_str(), span_depth(path), t0, *secs));
                    }
                }
                Event::CommEdge { rank, src, dst, class, msgs, bytes, t_first, t_last } => {
                    max_rank = max_rank.max(*rank).max(*src).max(*dst);
                    let line = EdgeView { msgs: *msgs, bytes: *bytes, window: t_first.zip(*t_last) };
                    tl.edge_reports.push((*rank, (*src, *dst, class), line));
                    let views = tl.edges.entry((*src, *dst, class)).or_default();
                    let view = views[usize::from(rank != src)].get_or_insert_with(EdgeView::default);
                    view.msgs += msgs;
                    view.bytes += bytes;
                    if let Some((tf, tl)) = line.window {
                        let w = view.window.get_or_insert((f64::INFINITY, f64::NEG_INFINITY));
                        *w = (w.0.min(tf), w.1.max(tl));
                    }
                }
                Event::Collective { rank, kind, count, bytes, secs, buckets, t_last, .. } => {
                    max_rank = max_rank.max(*rank);
                    let row = tl.collectives.entry(kind).or_default().entry(*rank).or_default();
                    row.count += count;
                    row.bytes += bytes;
                    let samples = buckets.iter().map(|&(_, c)| c).sum();
                    row.latency.merge(&LogHistogram::from_parts(samples, *secs, buckets.clone()));
                    if let Some(t) = t_last {
                        row.t_last = Some(row.t_last.map_or(*t, |last| last.max(*t)));
                    }
                }
                Event::PhasePerf { rank, .. }
                | Event::AmgSetup { rank, .. }
                | Event::Gmres { rank, .. }
                | Event::Recovery { rank, .. }
                | Event::Checkpoint { rank, .. }
                | Event::Restore { rank, .. }
                | Event::Counter { rank, .. }
                | Event::KernelPerf { rank, .. }
                | Event::StepHealth { rank, .. } => max_rank = max_rank.max(*rank),
            }
        }
        tl.ranks = tl.run.as_ref().map(|h| h.ranks).filter(|&n| n > 0).unwrap_or(max_rank + 1);
        tl
    }

    /// Decompose every timestep's makespan into critical-path segments
    /// (see [`critical_paths`]).
    pub fn critical_paths(&self) -> Vec<StepPath> {
        // Per rank: every timestamped span as (t0, end, depth, path),
        // aligned, and its timestep windows in stream order.
        let mut ranks = Vec::new();
        for (&rank, spans) in &self.spans {
            let aligned: Vec<(f64, f64, usize, &str)> = spans
                .iter()
                .map(|&(path, depth, t0, secs)| {
                    let t0 = self.clock.align(rank, t0);
                    (t0, t0 + secs, depth, path)
                })
                .collect();
            let steps: Vec<(f64, f64)> =
                aligned.iter().filter(|s| s.2 == 0 && s.3 == "timestep").map(|s| (s.0, s.1)).collect();
            ranks.push((rank, steps, aligned));
        }
        let nsteps = ranks.iter().map(|(_, steps, _)| steps.len()).max().unwrap_or(0);
        let mut out = Vec::new();
        for k in 0..nsteps {
            let rank_steps: Vec<RankStep> = ranks
                .iter()
                .filter_map(|(rank, steps, spans)| {
                    let &(start, end) = steps.get(k)?;
                    let leaves = leaf_segments(start, end, spans);
                    Some(RankStep { rank: *rank, start, end, leaves })
                })
                .collect();
            let t_start = rank_steps.iter().map(|r| r.start).fold(f64::INFINITY, f64::min);
            let t_end = rank_steps.iter().map(|r| r.end).fold(f64::NEG_INFINITY, f64::max);
            out.push(StepPath {
                step: k,
                start: t_start,
                makespan: t_end - t_start,
                segments: walk(&rank_steps, t_start, t_end),
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

fn micros(secs: f64) -> Json {
    Json::Float(secs * 1e6)
}

/// Render a merged event stream as a Chrome trace-event /
/// Perfetto JSON document (`{"traceEvents": [...]}`). Ranks become
/// named threads of one process; only timestamped events appear, so a
/// stream without timestamps yields an empty (but valid) trace.
pub fn chrome_trace(events: &[Event]) -> Json {
    let tl = Timeline::from_events(events);
    let clock = &tl.clock;
    // (ts, dur, track, event), sorted below by ts then longest first.
    let mut rows: Vec<(f64, f64, usize, Json)> = Vec::new();
    for (&rank, spans) in &tl.spans {
        for &(path, depth, t0, secs) in spans {
            let ts = clock.align(rank, t0);
            let name = path.rsplit('/').next().unwrap_or(path).to_string();
            let args = Json::obj(vec![
                ("path", Json::Str(path.to_string())),
                ("depth", Json::Int(depth as i128)),
            ]);
            let extra = vec![("dur", micros(secs)), ("args", args)];
            rows.push((ts, secs, rank, track_row("X", rank, ts, name, "span", extra)));
        }
    }
    for ev in events {
        let (rank, what, generation, t) = match ev {
            Event::Checkpoint { rank, generation, t: Some(t), .. } => (rank, "checkpoint", generation, t),
            Event::Restore { rank, generation, t: Some(t), .. } => (rank, "restore", generation, t),
            _ => continue,
        };
        let (ts, name) = (clock.align(*rank, *t), format!("{what} g{generation}"));
        let extra = vec![("s", Json::Str("t".into()))];
        rows.push((ts, 0.0, *rank, track_row("i", *rank, ts, name, "checkpoint", extra)));
    }
    for (kind, by_rank) in &tl.collectives {
        for (&rank, row) in by_rank {
            let Some(t_last) = row.t_last else { continue };
            let ts = clock.align(rank, t_last);
            let args = Json::obj(vec![
                ("count", Json::Int(row.count as i128)),
                ("bytes", Json::Int(row.bytes as i128)),
            ]);
            let extra = vec![("s", Json::Str("t".into())), ("args", args)];
            let name = kind.to_string();
            rows.push((ts, 0.0, rank, track_row("i", rank, ts, name, "collective", extra)));
        }
    }
    // Send→recv flow arrows, one per edge that both endpoints stamped:
    // start on the sender track at its first send, finish on the
    // receiver track at its last completed receive. Flow ids count the
    // edges that either endpoint stamped.
    let timed = tl.edges.iter().filter_map(|(key, views)| {
        let windows = views.map(|v| v.and_then(|v| v.window));
        windows.iter().any(Option::is_some).then_some((key, windows))
    });
    for (id, ((src, dst, class), windows)) in timed.enumerate() {
        let [Some(send), Some(recv)] = windows else { continue };
        let ts_s = clock.align(*src, send.0);
        let ts_f = clock.align(*dst, recv.1).max(ts_s);
        for (ph, rank, ts) in [("s", *src, ts_s), ("f", *dst, ts_f)] {
            let mut extra = vec![("id", Json::Int(id as i128))];
            if ph == "f" {
                extra.push(("bp", Json::Str("e".into())));
            }
            let name = format!("{class} {src}->{dst}");
            rows.push((ts, 0.0, rank, track_row(ph, rank, ts, name, "comm", extra)));
        }
    }
    // Perfetto renders tracks nicely when events arrive time-sorted;
    // ties break longest-duration-first so nested X slices stay nested.
    let cmp = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
    rows.sort_by(|a, b| cmp(a.0, b.0).then(cmp(b.1, a.1)));
    // One named track per rank with a row, ahead of the rows.
    let ranks: BTreeSet<usize> = rows.iter().map(|row| row.2).collect();
    let mut out: Vec<Json> = ranks
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("ph", Json::Str("M".into())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(*r as i128)),
                ("name", Json::Str("thread_name".into())),
                ("args", Json::obj(vec![("name", Json::Str(format!("rank {r}")))])),
            ])
        })
        .collect();
    out.extend(rows.into_iter().map(|row| row.3));
    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// One trace-event row on rank `rank`'s track, plus `extra` fields.
fn track_row(
    ph: &str,
    rank: usize,
    ts: f64,
    name: String,
    cat: &str,
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut pairs = vec![
        ("ph", Json::Str(ph.into())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(rank as i128)),
        ("ts", micros(ts)),
        ("name", Json::Str(name)),
        ("cat", Json::Str(cat.into())),
    ];
    pairs.extend(extra);
    Json::obj(pairs)
}

/// Structural validation of a Chrome trace-event document: the shape
/// Perfetto's importer needs, checkable without a browser. Returns all
/// violations.
///
/// - top level is an object with a `traceEvents` array of objects, each
///   carrying a string `ph`;
/// - complete (`"X"`) events have finite `ts` and non-negative finite
///   `dur`, and appear in non-decreasing `ts` order per `(pid, tid)`
///   track;
/// - begin/end (`"B"`/`"E"`) events balance per track;
/// - every flow start (`"s"`) id has a finish (`"f"`) and vice versa.
pub fn validate_chrome(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(events) = doc.as_obj().and_then(|o| o.get("traceEvents")).and_then(Json::as_arr)
    else {
        return vec!["top level is not an object with a traceEvents array".into()];
    };
    let mut last_ts: BTreeMap<(i128, i128), f64> = BTreeMap::new();
    let mut be_depth: BTreeMap<(i128, i128), i64> = BTreeMap::new();
    let mut flow: BTreeMap<i128, (u64, u64)> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let Some(obj) = ev.as_obj() else {
            errors.push(format!("traceEvents[{i}]: not an object"));
            continue;
        };
        let Some(ph) = obj.get("ph").and_then(Json::as_str) else {
            errors.push(format!("traceEvents[{i}]: missing ph"));
            continue;
        };
        let track = (
            obj.get("pid").and_then(Json::as_i128).unwrap_or(0),
            obj.get("tid").and_then(Json::as_i128).unwrap_or(0),
        );
        let ts = obj.get("ts").and_then(Json::as_f64);
        if ph != "M" && ts.is_none() {
            errors.push(format!("traceEvents[{i}] ph {ph:?}: missing ts"));
            continue;
        }
        match ph {
            "X" => {
                let ts = ts.unwrap();
                let dur = obj.get("dur").and_then(Json::as_f64);
                if !ts.is_finite() {
                    errors.push(format!("traceEvents[{i}]: non-finite ts"));
                }
                match dur {
                    Some(d) if d.is_finite() && d >= 0.0 => {}
                    _ => errors.push(format!(
                        "traceEvents[{i}]: X event without finite non-negative dur"
                    )),
                }
                if obj.get("name").and_then(Json::as_str).is_none() {
                    errors.push(format!("traceEvents[{i}]: X event without name"));
                }
                let last = last_ts.entry(track).or_insert(f64::NEG_INFINITY);
                if ts < *last {
                    errors.push(format!(
                        "traceEvents[{i}]: track {track:?} timestamps regress \
                         ({ts} after {last})"
                    ));
                }
                *last = ts;
            }
            "B" => *be_depth.entry(track).or_insert(0) += 1,
            "E" => {
                let d = be_depth.entry(track).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    errors.push(format!(
                        "traceEvents[{i}]: E without matching B on track {track:?}"
                    ));
                }
            }
            "s" | "f" => {
                let Some(id) = obj.get("id").and_then(Json::as_i128) else {
                    errors.push(format!("traceEvents[{i}]: flow event without id"));
                    continue;
                };
                let (starts, finishes) = flow.entry(id).or_insert((0, 0));
                *if ph == "s" { starts } else { finishes } += 1;
            }
            _ => {}
        }
    }
    for (track, depth) in &be_depth {
        if *depth > 0 {
            errors.push(format!("track {track:?}: {depth} unclosed B event(s)"));
        }
    }
    for (id, (s, f)) in &flow {
        if s == &0 || f == &0 {
            errors.push(format!("flow id {id}: {s} start(s) vs {f} finish(es)"));
        }
    }
    errors
}

// ---------------------------------------------------------------------------
// Critical-path attribution
// ---------------------------------------------------------------------------

/// One attributed interval of a step's critical path, on rank 0's
/// timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct PathSegment {
    /// The rank the path runs on during this interval.
    pub rank: usize,
    /// Deepest covering span (path with the `timestep/` prefix
    /// stripped) for compute intervals; `"wait"` / `"start"` for hops.
    pub label: String,
    /// `Some(s)`: the interval is time spent waiting on rank `s` (the
    /// rank whose activity ends where the hop lands). `None`: compute.
    pub wait_on: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl PathSegment {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// One timestep's decomposed makespan.
#[derive(Clone, Debug)]
pub struct StepPath {
    pub step: usize,
    /// Earliest aligned step start over ranks.
    pub start: f64,
    /// Latest aligned step end minus earliest aligned start.
    pub makespan: f64,
    /// Path segments in chronological order; they partition
    /// `[start, start + makespan]`, so compute + wait sums to the
    /// makespan by construction.
    pub segments: Vec<PathSegment>,
}

impl StepPath {
    /// Fraction of the makespan the segments cover (≈ 1.0 always; the
    /// acceptance gate asserts ≥ 0.95).
    pub fn coverage(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 1.0;
        }
        self.segments.iter().map(PathSegment::secs).sum::<f64>() / self.makespan
    }
}

/// Per-rank span window with leaf labels, reconstructed per step.
struct RankStep {
    rank: usize,
    start: f64,
    end: f64,
    /// Chronological, contiguous leaf segments `(start, end, label)`.
    leaves: Vec<(f64, f64, String)>,
}

/// Decompose every timestep's makespan into critical-path segments.
///
/// The k-th depth-0 span named exactly `timestep` on each rank is step
/// k. The walk starts at the latest aligned end over ranks and runs
/// backward: on a
/// rank it consumes that rank's deepest-covering (leaf) spans as
/// *compute* segments; when it falls off the front of the rank's
/// window it hops to the rank whose activity ends latest before the
/// cursor, attributing the gap as *wait on* that rank. Streams without
/// timestamps yield an empty vector.
pub fn critical_paths(events: &[Event]) -> Vec<StepPath> {
    Timeline::from_events(events).critical_paths()
}

/// Contiguous deepest-covering-span segmentation of one rank's step
/// window.
fn leaf_segments(start: f64, end: f64, spans: &[(f64, f64, usize, &str)]) -> Vec<(f64, f64, String)> {
    let inside: Vec<&(f64, f64, usize, &str)> = spans
        .iter()
        .filter(|(s, e, _, _)| *s >= start - EPS && *e <= end + EPS)
        .collect();
    let mut bounds: Vec<f64> = inside.iter().flat_map(|(s, e, _, _)| [*s, *e]).collect();
    bounds.push(start);
    bounds.push(end);
    bounds.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    bounds.dedup_by(|a, b| (*a - *b).abs() < EPS);
    let mut segs: Vec<(f64, f64, String)> = Vec::new();
    for w in bounds.windows(2) {
        let (a, b) = (w[0].max(start), w[1].min(end));
        if b - a < EPS {
            continue;
        }
        let mid = 0.5 * (a + b);
        let label = inside
            .iter()
            .filter(|(s, e, _, _)| *s <= mid && mid <= *e)
            .max_by_key(|(_, _, depth, _)| *depth)
            .map(|(_, _, _, path)| path.strip_prefix("timestep/").unwrap_or(path).to_string())
            .unwrap_or_else(|| "timestep".to_string());
        match segs.last_mut() {
            Some(last) if last.2 == label && (last.1 - a).abs() < EPS => last.1 = b,
            _ => segs.push((a, b, label)),
        }
    }
    segs
}

/// Greedy backward walk over the per-rank segmentations.
fn walk(ranks: &[RankStep], t_start: f64, t_end: f64) -> Vec<PathSegment> {
    let mut segments: Vec<PathSegment> = Vec::new();
    // Anchor on the last rank to finish.
    let mut cur = ranks
        .iter()
        .max_by(|a, b| a.end.partial_cmp(&b.end).unwrap_or(std::cmp::Ordering::Equal))
        .expect("non-empty rank set");
    let mut t = t_end;
    // Cap: each iteration either consumes a leaf or hops; identical
    // timestamps on two ranks could otherwise ping-pong forever.
    let max_iters = 4 * ranks.iter().map(|r| r.leaves.len() + 1).sum::<usize>().max(16);
    let mut iters = 0;
    while t > t_start + EPS && iters < max_iters {
        iters += 1;
        // Deepest leaf covering just before the cursor on the current rank.
        let covering = cur.leaves.iter().rev().find(|(s, e, _)| *s < t - EPS && t <= *e + EPS);
        if let Some((s, _, label)) = covering {
            let lo = s.max(t_start);
            let label = label.clone();
            segments.push(PathSegment { rank: cur.rank, label, wait_on: None, start: lo, end: t });
            t = lo;
            continue;
        }
        // Fell off the front of this rank's window: hop to whichever
        // rank was last active before the cursor — the cursor rank was
        // (transitively) waiting on it to reach this point.
        let hop = ranks
            .iter()
            .filter(|r| r.rank != cur.rank)
            .filter_map(|r| {
                r.leaves
                    .iter()
                    .rev()
                    .find(|(s, e, _)| *s < t - EPS && *e <= t + EPS)
                    .map(|(_, e, _)| (r, e.min(t)))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let Some((r, hop_t)) = hop.filter(|&(_, hop_t)| hop_t > t_start + EPS) else { break };
        if t - hop_t > EPS {
            let (label, wait_on) = ("wait".to_string(), Some(r.rank));
            segments.push(PathSegment { rank: cur.rank, label, wait_on, start: hop_t, end: t });
        }
        cur = r;
        t = hop_t;
    }
    // What the walk did not reach — nothing ends before the cursor
    // anywhere (start skew), or the iteration cap hit — is the start.
    if t > t_start + EPS {
        let label = "start".to_string();
        segments.push(PathSegment { rank: cur.rank, label, wait_on: None, start: t_start, end: t });
    }
    segments.reverse();
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: usize, path: &str, t0: f64, secs: f64) -> Event {
        Event::Span { rank, path: path.into(), secs, t0: Some(t0) }
    }

    fn two_rank_step() -> Vec<Event> {
        vec![
            // Rank 0: a fast step — done at t=1.0.
            span(0, "timestep/picard/continuity/solve", 0.1, 0.7),
            span(0, "timestep/picard/continuity", 0.1, 0.8),
            span(0, "timestep/picard", 0.0, 0.9),
            span(0, "timestep", 0.0, 1.0),
            // Rank 1: the straggler — done at t=2.0.
            span(1, "timestep/picard/continuity/solve", 0.2, 1.6),
            span(1, "timestep/picard/continuity", 0.1, 1.8),
            span(1, "timestep/picard", 0.05, 1.9),
            span(1, "timestep", 0.0, 2.0),
        ]
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        let mut events = two_rank_step();
        events.push(Event::CommEdge {
            rank: 0,
            src: 0,
            dst: 1,
            class: "halo".into(),
            msgs: 4,
            bytes: 256,
            t_first: Some(0.3),
            t_last: Some(0.9),
        });
        events.push(Event::CommEdge {
            rank: 1,
            src: 0,
            dst: 1,
            class: "halo".into(),
            msgs: 4,
            bytes: 256,
            t_first: Some(0.35),
            t_last: Some(0.95),
        });
        events.push(Event::Collective {
            rank: 0,
            kind: "allreduce".into(),
            count: 3,
            bytes: 24,
            secs: 0.01,
            buckets: Vec::new(),
            t_first: Some(0.4),
            t_last: Some(0.97),
        });
        events.push(Event::Checkpoint {
            rank: 0,
            step: 1,
            generation: 1,
            bytes: 4096,
            secs: 0.01,
            t: Some(0.99),
        });
        let doc = chrome_trace(&events);
        let errs = validate_chrome(&doc);
        assert!(errs.is_empty(), "{errs:?}");
        let text = doc.to_string();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("rank 0") && text.contains("rank 1"));
        assert!(text.contains("\"ph\":\"s\"") && text.contains("\"ph\":\"f\""));
        // Spans named by their leaf segment, full path in args.
        assert!(text.contains("\"name\":\"solve\""));
        // Round-trips through the parser (the validator's input path).
        let errs = validate_chrome(&Json::parse(&text).unwrap());
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn chrome_trace_applies_clock_offsets() {
        let mut events = vec![Event::Run {
            ranks: 2,
            threads: 1,
            transport: "socket".into(),
            kernel_policy: "auto".into(),
            git_commit: None,
            clock_offsets: Some(vec![0.0, 10.0]),
            clock_rtts: Some(vec![0.0, 0.001]),
        }];
        events.extend(two_rank_step());
        let doc = chrome_trace(&events);
        assert!(validate_chrome(&doc).is_empty());
        // Rank 1's timestep lands at 10s = 1e7 µs on the shared axis.
        assert!(doc.to_string().contains("1e7") || doc.to_string().contains("10000000"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(!validate_chrome(&Json::Null).is_empty());
        let bad = |evs: Vec<Json>| {
            validate_chrome(&Json::obj(vec![("traceEvents", Json::Arr(evs))]))
        };
        // X without dur.
        let errs = bad(vec![Json::obj(vec![
            ("ph", Json::Str("X".into())),
            ("ts", Json::Float(0.0)),
            ("name", Json::Str("x".into())),
        ])]);
        assert!(errs.iter().any(|e| e.contains("dur")), "{errs:?}");
        // Per-track timestamp regression.
        let x = |ts: f64| {
            Json::obj(vec![
                ("ph", Json::Str("X".into())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(0)),
                ("ts", Json::Float(ts)),
                ("dur", Json::Float(1.0)),
                ("name", Json::Str("x".into())),
            ])
        };
        let errs = bad(vec![x(5.0), x(1.0)]);
        assert!(errs.iter().any(|e| e.contains("regress")), "{errs:?}");
        // Unbalanced B/E.
        let errs = bad(vec![Json::obj(vec![
            ("ph", Json::Str("B".into())),
            ("ts", Json::Float(0.0)),
        ])]);
        assert!(errs.iter().any(|e| e.contains("unclosed")), "{errs:?}");
        // Dangling flow start.
        let errs = bad(vec![Json::obj(vec![
            ("ph", Json::Str("s".into())),
            ("ts", Json::Float(0.0)),
            ("id", Json::Int(7)),
        ])]);
        assert!(errs.iter().any(|e| e.contains("flow id 7")), "{errs:?}");
    }

    #[test]
    fn critical_path_partitions_the_makespan() {
        let paths = critical_paths(&two_rank_step());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.step, 0);
        assert!((p.makespan - 2.0).abs() < 1e-9, "{p:?}");
        assert!(p.coverage() >= 0.95, "coverage {}", p.coverage());
        // Chronological, contiguous partition.
        let mut t = p.start;
        for seg in &p.segments {
            assert!((seg.start - t).abs() < 1e-6, "{p:?}");
            assert!(seg.end > seg.start - 1e-9);
            t = seg.end;
        }
        assert!((t - (p.start + p.makespan)).abs() < 1e-6);
        // The straggler dominates the path.
        let on_rank1: f64 = p
            .segments
            .iter()
            .filter(|s| s.rank == 1 && s.wait_on.is_none())
            .map(PathSegment::secs)
            .sum();
        assert!(on_rank1 > 1.5, "{p:?}");
        // Deepest spans supply the labels.
        assert!(
            p.segments.iter().any(|s| s.label == "picard/continuity/solve"),
            "{p:?}"
        );
    }

    #[test]
    fn critical_path_hops_to_the_blocking_rank() {
        // Rank 0 finishes last but idled first: its step window starts
        // only after rank 1's long step ends — a pipeline stall.
        let events = vec![
            span(1, "timestep/picard", 0.0, 1.0),
            span(1, "timestep", 0.0, 1.0),
            span(0, "timestep/picard", 1.0, 0.5),
            span(0, "timestep", 1.0, 0.5),
        ];
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert!((p.makespan - 1.5).abs() < 1e-9, "{p:?}");
        assert!(p.coverage() >= 0.95);
        // The walk crosses from rank 0 back onto rank 1.
        assert!(p.segments.iter().any(|s| s.rank == 1 && s.wait_on.is_none()), "{p:?}");
    }

    #[test]
    fn only_a_span_named_timestep_is_a_step() {
        let mut events = two_rank_step();
        events.push(span(0, "timestep_io", 1.0, 0.5));
        assert_eq!(critical_paths(&events).len(), 1);
    }

    /// A `halo` edge line carrying `msgs` messages of 64 bytes.
    fn edge(rank: usize, src: usize, dst: usize, msgs: u64, t: (f64, f64)) -> Event {
        let (class, bytes) = ("halo".into(), 64 * msgs);
        Event::CommEdge { rank, src, dst, class, msgs, bytes, t_first: Some(t.0), t_last: Some(t.1) }
    }

    #[test]
    fn every_consumer_reads_the_first_run_event() {
        let clock = |offset: f64, n: usize| Some(([0.0, offset, 0.0, 0.0][..n].to_vec(), vec![0.0; n]));
        let mut events = vec![
            crate::run_info(2, "socket", clock(10.0, 2)),
            crate::run_info(4, "inproc", clock(20.0, 4)),
            // Rank 3 exists in the second header only.
            edge(0, 0, 3, 1, (0.1, 0.2)),
        ];
        events.extend(two_rank_step());
        let report = crate::Report::from_events(&events);
        assert_eq!((report.ranks, report.transport.as_str()), (2, "socket"));
        // Rank 1's timestep lands at the first table's 10 s.
        let text = chrome_trace(&events).to_string();
        assert!(text.contains("\"ts\":10000000.0") && !text.contains("\"ts\":20000000.0"), "{text}");
        let errs = crate::validate_stream(&events).unwrap_err();
        assert_eq!(errs, vec!["comm_edge dst 3 out of range for run with 2 ranks"]);
    }

    #[test]
    fn report_trace_and_validator_agree_on_edges() {
        // 0->1 stamped by both endpoints; 1->2 known only from its
        // receiver; 2->0 only from its sender.
        let stream = |receiver_msgs: u64| {
            vec![
                crate::run_info(3, "inproc", None),
                edge(0, 0, 1, 4, (0.1, 0.5)),
                edge(1, 0, 1, receiver_msgs, (0.2, 0.6)),
                edge(2, 1, 2, 2, (0.3, 0.4)),
                edge(2, 2, 0, 3, (0.2, 0.3)),
            ]
        };
        let summary = |msgs: u64| crate::report::CommEdgeSummary { msgs, bytes: 64 * msgs };
        let key = |src: usize, dst: usize| (src, dst, "halo".to_string());
        let expect = [(key(0, 1), summary(4)), (key(1, 2), summary(2)), (key(2, 0), summary(3))];
        let events = stream(4);
        assert_eq!(crate::Report::from_events(&events).comm_edges, expect.into());
        let text = chrome_trace(&events).to_string();
        let flows = ["s", "f"].map(|ph| text.matches(&format!("\"ph\":\"{ph}\"")).count());
        assert_eq!(flows, [1, 1], "{text}");
        assert_eq!(crate::validate_stream(&events), Ok(()));
        // The receiver of 0->1 saw one message more than was sent.
        let events = stream(5);
        let errs = crate::validate_stream(&events).unwrap_err();
        assert_eq!(errs.iter().filter(|e| e.contains("receiver recorded")).count(), 1, "{errs:?}");
        assert_eq!(crate::Report::from_events(&events).comm_edges[&key(0, 1)], summary(4));
    }

    #[test]
    fn streams_without_timestamps_yield_no_paths() {
        let untimed = Event::Span { rank: 0, path: "timestep".into(), secs: 1.0, t0: None };
        assert!(critical_paths(std::slice::from_ref(&untimed)).is_empty());
        let doc = chrome_trace(&[untimed]);
        assert!(validate_chrome(&doc).is_empty());
    }
}
