//! Per-rank operation tracing.
//!
//! Every kernel launch, point-to-point message, and collective executed by
//! a rank is accumulated into a [`Trace`], keyed by a caller-chosen phase
//! label ("graph", "local assembly", "global assembly", "amg setup",
//! "solve", ...). The `machine` crate converts traces into modeled
//! execution times for Summit/Eagle-class hardware; the harness binaries
//! use the per-phase breakdown to regenerate the paper's Figures 6 and 7.
//!
//! Kernel launches are recorded once and read two ways: by phase (the
//! [`Trace`] above) and by kernel name (a [`KernelRow`] per name, which
//! also receives wall time when telemetry is on — the roofline report's
//! `kernel_perf` rows). The two views sum to the same launches, bytes
//! and flops by construction.

use std::collections::{BTreeMap, HashMap};

use telemetry::LogHistogram;

/// Classification of a message tag, used to split the per-peer
/// communication matrix into traffic families: halo exchanges, internal
/// collective fan-in/fan-out, and everything else (plain point-to-point).
///
/// The class of a message is decided by its tag alone — tags at or above
/// the reserved internal base are `Collective`; tags allocated through
/// `Rank::alloc_tag_for` carry the class they were allocated with; all
/// remaining tags are `P2p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TagClass {
    /// Plain point-to-point traffic on user tags.
    P2p,
    /// Halo-exchange traffic (tags allocated by `distmat::halo`).
    Halo,
    /// Internal traffic of collective operations.
    Collective,
}

impl TagClass {
    /// Stable string label, as emitted in `comm_edge` telemetry events.
    pub fn label(self) -> &'static str {
        match self {
            TagClass::P2p => "p2p",
            TagClass::Halo => "halo",
            TagClass::Collective => "coll",
        }
    }
}

/// Traffic totals of one directed communication edge, as observed by one
/// endpoint. The sender and receiver of an edge each accumulate their own
/// `EdgeStats`; because both sides count the typed message's
/// `wire_bytes`, a healthy run produces identical totals at both ends
/// (checked by `telemetry::validate_stream`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Messages that crossed the edge.
    pub msgs: u64,
    /// Payload bytes (cost-model `wire_bytes`, not framed size).
    pub bytes: u64,
}

/// Per-collective-kind participation stats for one rank.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CollectiveStats {
    /// Times this rank entered the collective.
    pub count: u64,
    /// Bytes this rank contributed across all entries.
    pub bytes: u64,
    /// Wall-clock latency per entry, seconds. Only populated when comm
    /// timing is enabled (telemetry installed on the rank thread);
    /// `latency.count()` may therefore be less than `count`.
    pub latency: LogHistogram,
}

/// Classification of a device kernel, used for reporting and so that the
/// machine model can apply kind-specific launch overheads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKind {
    /// Streaming/bandwidth-bound kernel (axpy, scatter, copy, fill).
    Stream,
    /// Sort or reduce-by-key style primitive (multiple passes over data).
    Sort,
    /// Sparse matrix-vector product.
    SpMV,
    /// Sparse matrix-matrix product.
    SpGemm,
    /// Anything else.
    Other,
}

/// One kernel name's accumulated launches on one rank: the by-name view
/// of the launches whose by-phase view is [`Trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelRow {
    /// Launches recorded under the name.
    pub calls: u64,
    /// Modeled bytes moved, summed over launches.
    pub bytes: u64,
    /// Modeled floating-point operations, summed over launches.
    pub flops: u64,
    /// Degrees of freedom processed (rows, vector elements, or COO
    /// items — whatever the kernel's throughput is quoted in), summed
    /// over launches.
    pub dofs: u64,
    /// Wall-clock seconds of the scopes the launches ran in. Exactly
    /// zero unless telemetry was installed on the rank thread.
    pub secs: f64,
}

/// Aggregated operation counts for one phase on one rank.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Number of device kernel launches.
    pub kernel_launches: u64,
    /// Bytes read + written by kernels.
    pub kernel_bytes: u64,
    /// Floating-point operations executed by kernels.
    pub kernel_flops: u64,
    /// Number of off-rank point-to-point messages sent.
    pub msgs: u64,
    /// Bytes moved by those messages.
    pub msg_bytes: u64,
    /// Number of collective operations.
    pub collectives: u64,
    /// Bytes contributed to collectives by this rank.
    pub collective_bytes: u64,
    /// Seconds spent *blocked* waiting for communication: the receive
    /// loop of `recv`/collectives and barriers. Zero unless comm timing
    /// is enabled (telemetry installed on the rank thread).
    pub wait_secs: f64,
    /// Seconds spent moving bytes: send-side encode + enqueue and
    /// recv-side decode. Zero unless comm timing is enabled.
    pub transfer_secs: f64,
    /// Per-kind launch counts (subset view of `kernel_launches`).
    pub launches_by_kind: HashMap<KernelKind, u64>,
}

impl Trace {
    /// Accumulate `other` into `self`.
    pub fn add(&mut self, other: &Trace) {
        self.kernel_launches += other.kernel_launches;
        self.kernel_bytes += other.kernel_bytes;
        self.kernel_flops += other.kernel_flops;
        self.msgs += other.msgs;
        self.msg_bytes += other.msg_bytes;
        self.collectives += other.collectives;
        self.collective_bytes += other.collective_bytes;
        self.wait_secs += other.wait_secs;
        self.transfer_secs += other.transfer_secs;
        for (kind, n) in &other.launches_by_kind {
            *self.launches_by_kind.entry(*kind).or_insert(0) += n;
        }
    }

    /// Sum a set of traces (e.g. one per rank) into a single total.
    pub fn total<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Trace {
        let mut out = Trace::default();
        for t in traces {
            out.add(t);
        }
        out
    }

    /// True when no operation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.kernel_launches == 0 && self.msgs == 0 && self.collectives == 0
    }
}

/// Traces keyed by phase label.
#[derive(Clone, Debug, Default)]
pub struct PhaseTrace {
    /// `(label, trace)` in order of first record. A run has a few dozen
    /// labels, so lookups scan; the recorder resolves its current label
    /// to an index once per phase switch.
    phases: Vec<(String, Trace)>,
}

impl PhaseTrace {
    /// Trace for a phase, empty if the phase never ran.
    pub fn phase(&self, name: &str) -> Trace {
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
            .unwrap_or_default()
    }

    /// All phase names, sorted for stable output.
    pub fn phase_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.phases.iter().map(|(n, _)| n.clone()).collect();
        names.sort();
        names
    }

    /// Sum over all phases.
    pub fn total(&self) -> Trace {
        Trace::total(self.phases.iter().map(|(_, t)| t))
    }

    /// Merge another phase trace into this one, phase by phase.
    pub fn add(&mut self, other: &PhaseTrace) {
        for (name, trace) in &other.phases {
            let slot = self.slot(name);
            self.phases[slot].1.add(trace);
        }
    }

    /// Replace (or create) one phase's trace wholesale — used by
    /// post-processing tools (e.g. the baseline-penalty model of the
    /// bench harness).
    pub fn insert(&mut self, name: &str, trace: Trace) {
        let slot = self.slot(name);
        self.phases[slot].1 = trace;
    }

    /// Index of `name`'s trace, created empty if the phase is new.
    fn slot(&mut self, name: &str) -> usize {
        if let Some(i) = self.phases.iter().position(|(n, _)| n == name) {
            return i;
        }
        self.phases.push((name.to_string(), Trace::default()));
        self.phases.len() - 1
    }
}

/// Accumulates a [`PhaseTrace`] as a rank executes.
///
/// The recorder always has a current phase label; operations recorded by
/// the communication layer and by kernels land in that phase. Phases are
/// switched with [`PerfRecorder::set_phase`] (typically via
/// `Rank::with_phase`).
#[derive(Debug)]
pub struct PerfRecorder {
    current: String,
    /// Index of `current` in `trace`, resolved by the first record after
    /// a phase switch: recording is then an index, and a phase that
    /// records nothing gets no row.
    slot: Option<usize>,
    trace: PhaseTrace,
    /// Per-name view of the kernel launches in `trace`.
    pub(crate) kernels: BTreeMap<&'static str, KernelRow>,
    /// Has any kernel scope read the clock (telemetry installed)? Only
    /// then do the rows carry seconds worth exporting.
    pub(crate) kernels_timed: bool,
    /// Per-(src, dst, class) traffic this rank observed — sends it issued
    /// and receives it completed. BTreeMap keeps export order stable.
    pub(crate) edges: BTreeMap<(usize, usize, TagClass), EdgeStats>,
    /// Per-kind collective participation (count/bytes always; latency
    /// only when comm timing is enabled).
    pub(crate) coll_kinds: BTreeMap<&'static str, CollectiveStats>,
    /// First/last timestamp observed per edge (seconds since the rank's
    /// telemetry epoch): send initiation on the sender, receive
    /// completion on the receiver. Kept apart from [`EdgeStats`] so the
    /// deterministic counters stay clock-free; populated only when the
    /// caller actually read a clock (telemetry enabled).
    pub(crate) edge_times: BTreeMap<(usize, usize, TagClass), (f64, f64)>,
    /// Ditto per collective kind (operation-completion times).
    pub(crate) coll_times: BTreeMap<&'static str, (f64, f64)>,
}

impl PerfRecorder {
    /// Fresh recorder whose current phase is `"other"`.
    pub fn new() -> Self {
        PerfRecorder {
            current: "other".to_string(),
            slot: None,
            trace: PhaseTrace::default(),
            kernels: BTreeMap::new(),
            kernels_timed: false,
            edges: BTreeMap::new(),
            coll_kinds: BTreeMap::new(),
            edge_times: BTreeMap::new(),
            coll_times: BTreeMap::new(),
        }
    }

    /// Switch the active phase label, returning the previous one.
    pub fn set_phase(&mut self, name: &str) -> String {
        self.slot = None;
        std::mem::replace(&mut self.current, name.to_string())
    }

    /// Active phase label.
    pub fn phase_name(&self) -> &str {
        &self.current
    }

    /// The current phase's trace.
    fn current_trace(&mut self) -> &mut Trace {
        let slot = match self.slot {
            Some(slot) => slot,
            None => *self.slot.insert(self.trace.slot(&self.current)),
        };
        &mut self.trace.phases[slot].1
    }

    /// Record one launch of kernel `name`: once into the current phase,
    /// once into the name's row.
    pub fn kernel(
        &mut self,
        name: &'static str,
        kind: KernelKind,
        dofs: u64,
        bytes: u64,
        flops: u64,
    ) {
        let t = self.current_trace();
        t.kernel_launches += 1;
        t.kernel_bytes += bytes;
        t.kernel_flops += flops;
        *t.launches_by_kind.entry(kind).or_insert(0) += 1;
        let row = self.kernels.entry(name).or_default();
        row.calls += 1;
        row.bytes += bytes;
        row.flops += flops;
        row.dofs += dofs;
    }

    /// Add the wall time of a scope that launched kernel `name`. A scope
    /// that launched nothing has no row and adds nothing.
    pub fn kernel_secs(&mut self, name: &'static str, secs: f64) {
        self.kernels_timed = true;
        if let Some(row) = self.kernels.get_mut(name) {
            row.secs += secs;
        }
    }

    /// Record an off-rank point-to-point message.
    pub fn message(&mut self, bytes: u64) {
        let t = self.current_trace();
        t.msgs += 1;
        t.msg_bytes += bytes;
    }

    /// Record participation in one collective operation.
    pub fn collective(&mut self, bytes: u64) {
        let t = self.current_trace();
        t.collectives += 1;
        t.collective_bytes += bytes;
    }

    /// Record traffic on one directed edge as observed by this rank
    /// (called once on the sender and once on the receiver).
    pub fn edge(&mut self, src: usize, dst: usize, class: TagClass, bytes: u64) {
        let e = self.edges.entry((src, dst, class)).or_default();
        e.msgs += 1;
        e.bytes += bytes;
    }

    /// Add seconds spent blocked on communication to the current phase.
    pub fn comm_wait(&mut self, secs: f64) {
        self.current_trace().wait_secs += secs;
    }

    /// Add seconds spent encoding/decoding/enqueuing message payloads to
    /// the current phase.
    pub fn comm_transfer(&mut self, secs: f64) {
        self.current_trace().transfer_secs += secs;
    }

    /// Record one entry into a collective of the given kind. `secs` is
    /// the wall-clock latency of the whole operation on this rank, absent
    /// when comm timing is disabled (counts stay deterministic either
    /// way; only the latency histogram reads a clock).
    pub fn collective_kind(&mut self, kind: &'static str, bytes: u64, secs: Option<f64>) {
        let s = self.coll_kinds.entry(kind).or_default();
        s.count += 1;
        s.bytes += bytes;
        if let Some(secs) = secs {
            s.latency.record(secs);
        }
    }

    /// Widen one edge's observed time window (seconds since the rank's
    /// telemetry epoch). Callers only invoke this when telemetry is
    /// enabled, so disabled runs never populate (or allocate) windows.
    pub fn edge_stamp(&mut self, src: usize, dst: usize, class: TagClass, t: f64) {
        let w = self.edge_times.entry((src, dst, class)).or_insert((t, t));
        w.0 = w.0.min(t);
        w.1 = w.1.max(t);
    }

    /// Widen one collective kind's observed time window.
    pub fn collective_stamp(&mut self, kind: &'static str, t: f64) {
        let w = self.coll_times.entry(kind).or_insert((t, t));
        w.0 = w.0.min(t);
        w.1 = w.1.max(t);
    }

    /// Snapshot of the phase trace so far.
    pub fn snapshot(&self) -> PhaseTrace {
        self.trace.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_into_phases() {
        let mut rec = PerfRecorder::new();
        rec.kernel("axpy", KernelKind::Stream, 12, 100, 10);
        rec.set_phase("solve");
        rec.kernel("spmv_csr", KernelKind::SpMV, 25, 200, 50);
        rec.kernel("spmv_csr", KernelKind::SpMV, 25, 200, 50);
        rec.message(64);
        rec.collective(8);
        // The name view holds the same launches as the phase view.
        let spmv = rec.kernels["spmv_csr"];
        assert_eq!((spmv.calls, spmv.bytes, spmv.flops, spmv.dofs), (2, 400, 100, 50));
        assert_eq!(spmv.secs, 0.0);
        assert_eq!(rec.kernels["axpy"].calls, 1);
        assert!(!rec.kernels_timed);
        let trace = rec.snapshot();

        let other = trace.phase("other");
        assert_eq!(other.kernel_launches, 1);
        assert_eq!(other.kernel_bytes, 100);

        let solve = trace.phase("solve");
        assert_eq!(solve.kernel_launches, 2);
        assert_eq!(solve.kernel_flops, 100);
        assert_eq!(solve.msgs, 1);
        assert_eq!(solve.msg_bytes, 64);
        assert_eq!(solve.collectives, 1);
        assert_eq!(solve.launches_by_kind[&KernelKind::SpMV], 2);
    }

    #[test]
    fn missing_phase_is_empty() {
        let mut rec = PerfRecorder::new();
        // Switching phases records nothing: no row appears.
        rec.set_phase("idle");
        let trace = rec.snapshot();
        assert!(trace.phase("nope").is_empty());
        assert!(trace.phase_names().is_empty());
    }

    #[test]
    fn trace_total_sums_fields() {
        let a = Trace {
            kernel_launches: 2,
            msg_bytes: 10,
            ..Trace::default()
        };
        let b = Trace {
            kernel_launches: 5,
            msg_bytes: 3,
            ..Trace::default()
        };

        let total = Trace::total([&a, &b]);
        assert_eq!(total.kernel_launches, 7);
        assert_eq!(total.msg_bytes, 13);
    }

    #[test]
    fn edges_accumulate_by_src_dst_class() {
        let mut rec = PerfRecorder::new();
        rec.edge(0, 1, TagClass::P2p, 64);
        rec.edge(0, 1, TagClass::P2p, 16);
        rec.edge(0, 1, TagClass::Halo, 8);
        rec.edge(1, 0, TagClass::P2p, 4);
        let edges = &rec.edges;
        assert_eq!(edges[&(0, 1, TagClass::P2p)], EdgeStats { msgs: 2, bytes: 80 });
        assert_eq!(edges[&(0, 1, TagClass::Halo)], EdgeStats { msgs: 1, bytes: 8 });
        assert_eq!(edges[&(1, 0, TagClass::P2p)], EdgeStats { msgs: 1, bytes: 4 });
    }

    #[test]
    fn wait_and_transfer_land_in_current_phase() {
        let mut rec = PerfRecorder::new();
        rec.set_phase("solve");
        rec.comm_wait(0.5);
        rec.comm_wait(0.25);
        rec.comm_transfer(0.125);
        let trace = rec.snapshot();
        let solve = trace.phase("solve");
        assert_eq!(solve.wait_secs, 0.75);
        assert_eq!(solve.transfer_secs, 0.125);
        // `add` propagates the new fields.
        let total = Trace::total([&solve, &solve]);
        assert_eq!(total.wait_secs, 1.5);
    }

    #[test]
    fn collective_kind_latency_is_optional() {
        let mut rec = PerfRecorder::new();
        rec.collective_kind("allreduce", 8, None);
        rec.collective_kind("allreduce", 8, Some(0.001));
        let s = &rec.coll_kinds["allreduce"];
        assert_eq!(s.count, 2);
        assert_eq!(s.bytes, 16);
        assert_eq!(s.latency.count(), 1);
    }

    #[test]
    fn stamps_widen_first_last_windows() {
        let mut rec = PerfRecorder::new();
        rec.edge_stamp(0, 1, TagClass::P2p, 2.0);
        rec.edge_stamp(0, 1, TagClass::P2p, 0.5);
        rec.edge_stamp(0, 1, TagClass::P2p, 1.0);
        assert_eq!(rec.edge_times[&(0, 1, TagClass::P2p)], (0.5, 2.0));
        rec.collective_stamp("allreduce", 3.0);
        rec.collective_stamp("allreduce", 4.0);
        assert_eq!(rec.coll_times["allreduce"], (3.0, 4.0));
        // Counters never gain windows they were not stamped with.
        rec.edge(1, 0, TagClass::P2p, 8);
        assert!(!rec.edge_times.contains_key(&(1, 0, TagClass::P2p)));
    }

    #[test]
    fn tag_class_labels_are_stable() {
        let labels = [TagClass::P2p, TagClass::Halo, TagClass::Collective].map(TagClass::label);
        assert_eq!(labels, ["p2p", "halo", "coll"]);
    }

    #[test]
    fn phase_trace_merges() {
        let mut rec1 = PerfRecorder::new();
        rec1.set_phase("a");
        rec1.kernel("k", KernelKind::Other, 1, 1, 1);
        let mut t1 = rec1.snapshot();

        let mut rec2 = PerfRecorder::new();
        rec2.set_phase("a");
        rec2.kernel("k", KernelKind::Other, 2, 2, 2);
        rec2.set_phase("b");
        rec2.message(5);
        let t2 = rec2.snapshot();

        t1.add(&t2);
        assert_eq!(t1.phase("a").kernel_bytes, 3);
        assert_eq!(t1.phase("b").msgs, 1);
        assert_eq!(t1.phase_names(), vec!["a".to_string(), "b".to_string()]);
    }
}
