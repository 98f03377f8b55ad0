//! The telemetry event schema (see [`SCHEMA_VERSION`]).
//!
//! One event per JSONL line, tagged by `"type"`. The stream carries the
//! three solver telemetry islands in one format:
//!
//! | type         | source                    | paper artifact            |
//! |--------------|---------------------------|---------------------------|
//! | `run`        | export harness            | run metadata              |
//! | `span`       | hierarchical span guards  | phase wall-clock tree, Figs. 6/7 stacked bars |
//! | `phase_perf` | `parcomm::PhaseTrace`     | machine-model inputs, wait-vs-compute imbalance |
//! | `comm_edge`  | `parcomm::Rank` edge accounting | Figs. 8–10 rank×rank comm matrix |
//! | `collective` | `parcomm` collective scopes | collective latency histograms |
//! | `amg`        | `amg::AmgHierarchy::setup`| Tables 2–4 per-level rows |
//! | `gmres`      | `krylov::Gmres::solve`    | convergence trajectories  |
//! | `recovery`   | `nalu_core` Picard driver | solver-fault escalations  |
//! | `checkpoint` | `nalu_core` periodic trigger | restart-file writes    |
//! | `restore`    | `nalu_core` resume path   | restart provenance        |
//! | `step_health`| `nalu_core` step driver   | health trend, replayed degradation verdicts |
//! | `kernel_perf`| `parcomm::Rank::kernel` scopes | achieved GB/s / GFLOP/s roofline rows |
//! | `counter`    | subsystem counters        | —                         |
//!
//! No line carries a value that other lines determine: a span's depth is
//! the number of `/` in its path, a phase's wall time is its span, and
//! health verdicts are replayed from `step_health` and `recovery` rows by
//! the reader ([`crate::Report`]).
//!
//! The schema is written once: the `events!` table below declares every
//! event's tag and fields (and `rows!` the two nested row types), and the
//! enum, its encoder and its decoder are generated from it, with a
//! field's JSON key equal to its name. Every event type round-trips
//! exactly through [`Event::to_line`] / [`Event::parse_line`] (integers
//! exact, floats bit-identical); a missing or malformed field — optional
//! ones included — is a typed error naming the field.

use std::collections::BTreeMap;

use crate::json::Json;

/// The one schema version: stamped into every `run` event, and the only
/// one [`Event::from_json`] accepts — a `run` line carrying another (or
/// no) version is a parse error, not a stream read with defaults.
pub const SCHEMA_VERSION: u64 = 8;

/// A JSON object's members by key.
type Obj = BTreeMap<String, Json>;

/// How a value of one field type sits under its key. `put` returns
/// `None` to leave the key out (an absent `Option`); `get` is handed
/// `None` for an absent key and returns `None` for a missing or
/// malformed value.
trait Field: Sized {
    fn put(&self) -> Option<Json>;
    fn get(v: Option<&Json>) -> Option<Self>;
}

/// `Field` for scalars: `$put` builds the JSON value, `$get` reads it.
macro_rules! scalars {
    ($($ty:ty: $put:expr, $get:expr;)*) => {$(
        impl Field for $ty {
            fn put(&self) -> Option<Json> {
                Some($put(self))
            }

            fn get(v: Option<&Json>) -> Option<Self> {
                v.and_then($get)
            }
        }
    )*};
}

scalars! {
    usize: |x: &usize| Json::Int(*x as i128), Json::as_usize;
    u64: |x: &u64| Json::Int((*x).into()), Json::as_u64;
    i32: |x: &i32| Json::Int((*x).into()), |v: &Json| v.as_i128()?.try_into().ok();
    f64: |x: &f64| Json::Float(*x), Json::as_f64;
    bool: |x: &bool| Json::Bool(*x), Json::as_bool;
    String: |x: &String| Json::Str(x.clone()), |v: &Json| v.as_str().map(str::to_string);
}

impl<T: Field> Field for Vec<T> {
    fn put(&self) -> Option<Json> {
        // Elements are never `Option`s, so none is left out.
        Some(Json::Arr(self.iter().filter_map(Field::put).collect()))
    }

    fn get(v: Option<&Json>) -> Option<Self> {
        v?.as_arr()?.iter().map(|x| T::get(Some(x))).collect()
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self) -> Option<Json> {
        Some(Json::Arr(vec![self.0.put()?, self.1.put()?]))
    }

    fn get(v: Option<&Json>) -> Option<Self> {
        match v?.as_arr()? {
            [a, b] => Some((A::get(Some(a))?, B::get(Some(b))?)),
            _ => None,
        }
    }
}

/// Absent key ⇔ `None`; a present key must hold a valid `T`.
impl<T: Field> Field for Option<T> {
    fn put(&self) -> Option<Json> {
        self.as_ref()?.put()
    }

    fn get(v: Option<&Json>) -> Option<Self> {
        match v {
            None => Some(None),
            Some(_) => T::get(v).map(Some),
        }
    }
}

/// Encode `value` under `key` (left out when `put` says so).
fn put<T: Field>(obj: &mut Obj, key: &str, value: &T) {
    if let Some(v) = value.put() {
        obj.insert(key.to_string(), v);
    }
}

/// Decode field `key` of a `tag` event.
fn get<T: Field>(tag: &str, obj: &Obj, key: &str) -> Result<T, String> {
    T::get(obj.get(key)).ok_or_else(|| format!("{tag}: missing/invalid field \"{key}\""))
}

/// Declares the rows nested inside event fields, each with its `Field`
/// codec (an object keyed by field name).
macro_rules! rows {
    ($(
        $(#[$doc:meta])*
        $row:ident { $($(#[$field_doc:meta])* $field:ident: $ty:ty,)* }
    )*) => {$(
        $(#[$doc])*
        #[derive(Clone, Debug, PartialEq)]
        pub struct $row {
            $($(#[$field_doc])* pub $field: $ty,)*
        }

        impl Field for $row {
            fn put(&self) -> Option<Json> {
                let mut obj = Obj::new();
                $(put(&mut obj, stringify!($field), &self.$field);)*
                Some(Json::Obj(obj))
            }

            fn get(v: Option<&Json>) -> Option<Self> {
                let obj = v?.as_obj()?;
                Some($row { $($field: Field::get(obj.get(stringify!($field)))?,)* })
            }
        }
    )*};
}

/// Declares [`Event`] — one `Variant = "tag" { field: Type, … }` row per
/// event type — and generates [`Event::type_tag`], [`Event::to_json`] and
/// the per-tag decoder from it.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $tag:literal { $($(#[$field_doc:meta])* $field:ident: $ty:ty,)* }
    )*) => {
        /// A telemetry event. See the module docs for the type ↔ source map.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)*
        }

        impl Event {
            /// The schema type tag.
            pub fn type_tag(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $tag,)*
                }
            }

            /// Serialize to a JSON value.
            pub fn to_json(&self) -> Json {
                let mut obj = Obj::new();
                obj.insert("type".to_string(), Json::Str(self.type_tag().to_string()));
                if let Event::Run { .. } = self {
                    obj.insert("schema".to_string(), Json::Int(SCHEMA_VERSION.into()));
                }
                match self {
                    $(Event::$variant { $($field),* } => {
                        $(put(&mut obj, stringify!($field), $field);)*
                    })*
                }
                Json::Obj(obj)
            }

            /// Decode the fields of a `tag` event.
            fn decode(tag: &str, obj: &Obj) -> Result<Event, String> {
                match tag {
                    $($tag => Ok(Event::$variant { $($field: get(tag, obj, stringify!($field))?,)* }),)*
                    other => Err(format!("unknown event type {other:?}")),
                }
            }
        }
    };
}

rows! {
    /// One row of an AMG hierarchy: global rows and nonzeros of a level
    /// operator.
    AmgLevelRow {
        level: usize,
        rows: u64,
        nnz: u64,
    }

    /// Per-equation convergence summary inside a `step_health` event
    /// (its residual-reduction rate is derived: [`EqHealthRow::rate`]).
    EqHealthRow {
        eq: String,
        /// GMRES iterations spent on this equation during the step (summed
        /// over Picard sweeps and meshes).
        iters: u64,
        /// Final relative residual of the last solve.
        final_rel: f64,
    }
}

events! {
    /// Run metadata, emitted once per exported stream.
    Run = "run" {
        ranks: usize,
        threads: usize,
        /// Transport backend label (`inproc` | `socket`).
        transport: String,
        /// SpMV storage label: always `auto` (every operator is CSR).
        kernel_policy: String,
        git_commit: Option<String>,
        /// Per-rank clock offsets (seconds) mapping each rank's telemetry
        /// epoch onto rank 0's timeline: `t_global = t_rank + offset[rank]`.
        /// The difference of the epochs' wall-clock anchors
        /// (`Rank::clock_sync`); absent when telemetry was off.
        clock_offsets: Option<Vec<f64>>,
        /// Per-rank width (seconds) of the two monotonic reads around
        /// the epoch's wall-clock read: each rank's share of the offset
        /// uncertainty is bounded by `rtt/2`.
        clock_rtts: Option<Vec<f64>>,
    }
    /// A closed span: `path` is the `/`-joined stack of open span names
    /// (names carry no `/`, so the span's depth is the `/` count).
    Span = "span" {
        rank: usize,
        path: String,
        secs: f64,
        /// Span start, seconds since the recording rank's telemetry epoch.
        t0: Option<f64>,
    }
    /// Per-phase operation counts (from `parcomm::PhaseTrace`), plus the
    /// phase's wait/transfer split when comm timing was enabled.
    PhasePerf = "phase_perf" {
        rank: usize,
        label: String,
        kernel_launches: u64,
        kernel_bytes: u64,
        kernel_flops: u64,
        msgs: u64,
        msg_bytes: u64,
        collectives: u64,
        collective_bytes: u64,
        /// Seconds blocked in receives/collectives/barriers (0 when comm
        /// timing was disabled).
        wait_secs: f64,
        /// Seconds spent encoding/decoding/enqueuing payloads (0 when
        /// comm timing was disabled).
        transfer_secs: f64,
    }
    /// Traffic totals of one directed (src → dst) communication edge in
    /// one tag class, as observed by `rank` (which is one of the two
    /// endpoints — both endpoints report, and a healthy run's reports
    /// agree; `validate_stream` checks this).
    CommEdge = "comm_edge" {
        rank: usize,
        src: usize,
        dst: usize,
        /// Tag class label: `p2p` | `halo` | `coll`.
        class: String,
        msgs: u64,
        bytes: u64,
        /// Timestamp of the first message this endpoint observed on the
        /// edge, seconds since the recording rank's telemetry epoch
        /// (send initiation on the sender, receive completion on the
        /// receiver; absent when the edge was recorded without a window).
        t_first: Option<f64>,
        /// Timestamp of the last observed message (same convention).
        t_last: Option<f64>,
    }
    /// One rank's participation in one collective kind: entry count,
    /// contributed bytes, and a log₂ latency histogram over per-entry
    /// seconds (empty when comm timing was disabled).
    Collective = "collective" {
        rank: usize,
        /// Collective kind: `allreduce` | `allgather` | `barrier`.
        kind: String,
        count: u64,
        bytes: u64,
        /// Total latency seconds across sampled entries.
        secs: f64,
        /// Log₂ buckets of per-entry latency: `(exponent, count)` pairs.
        buckets: Vec<(i32, u64)>,
        /// Entry timestamp of this rank's first participation, seconds
        /// since the recording rank's telemetry epoch (absent without a
        /// recorded window).
        t_first: Option<f64>,
        /// Entry timestamp of the last participation (same convention).
        t_last: Option<f64>,
    }
    /// One AMG setup: per-level rows/nnz plus the paper's grid and
    /// operator complexities.
    AmgSetup = "amg" {
        rank: usize,
        path: String,
        levels: Vec<AmgLevelRow>,
        grid_complexity: f64,
        operator_complexity: f64,
    }
    /// One GMRES solve: iteration count and the relative-residual
    /// trajectory.
    Gmres = "gmres" {
        rank: usize,
        path: String,
        iters: usize,
        final_rel: f64,
        converged: bool,
        history: Vec<f64>,
    }
    /// One recovery attempt: a solve failed with a typed fault and the
    /// Picard driver walked the escalation ladder.
    Recovery = "recovery" {
        rank: usize,
        eq: String,
        step: usize,
        fault: String,
        action: String,
        attempt: usize,
        outcome: String,
    }
    /// One completed checkpoint write on one rank: the generation it
    /// contributes to, the step it captures, the file size, and the
    /// wall-clock spent serializing + fsyncing.
    Checkpoint = "checkpoint" {
        rank: usize,
        step: usize,
        generation: u64,
        bytes: u64,
        secs: f64,
        /// Write completion, seconds since the recording rank's telemetry
        /// epoch.
        t: Option<f64>,
    }
    /// One restore: this rank resumed from `generation`, continuing
    /// after `step` completed steps.
    Restore = "restore" {
        rank: usize,
        step: usize,
        generation: u64,
        /// Restore completion, seconds since the recording rank's
        /// telemetry epoch.
        t: Option<f64>,
    }
    /// Per-timestep solver-health sample: per-equation convergence and
    /// AMG hierarchy complexity. Deterministic (carries no wall-clock),
    /// emitted once per completed step per rank; with the step's
    /// `recovery` rows, the input of the `telemetry::health` degradation
    /// detector.
    StepHealth = "step_health" {
        rank: usize,
        step: usize,
        eqs: Vec<EqHealthRow>,
        /// Levels in the pressure AMG hierarchy the most recent
        /// AMG-preconditioned solve used, freshly set up or reused (0
        /// before the first).
        amg_levels: u64,
        grid_complexity: f64,
        operator_complexity: f64,
    }
    /// Aggregate of one named kernel on one rank: launches, wall-clock,
    /// and modeled bytes/flops (priced by `sparse_kit::cost`) and DOFs —
    /// the achieved throughputs are these over `secs`, computed by the
    /// reader (`report::KernelSummary`), not carried. The by-name view of
    /// the launches `phase_perf` carries by phase; emitted next to it by
    /// `parcomm::Rank::telemetry_events`, sorted by kernel name.
    KernelPerf = "kernel_perf" {
        rank: usize,
        kernel: String,
        calls: u64,
        secs: f64,
        bytes: u64,
        flops: u64,
        dofs: u64,
    }
    /// A named monotonic counter (aggregated per rank at finish).
    Counter = "counter" {
        rank: usize,
        name: String,
        value: u64,
    }
}

impl Event {
    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse and validate one JSONL line.
    pub fn parse_line(line: &str) -> Result<Event, String> {
        let v = Json::parse(line)?;
        Event::from_json(&v)
    }

    /// Validate a parsed JSON value against the schema.
    pub fn from_json(v: &Json) -> Result<Event, String> {
        let obj = v.as_obj().ok_or("event is not a JSON object")?;
        let tag = obj
            .get("type")
            .ok_or("missing \"type\" field")?
            .as_str()
            .ok_or("\"type\" is not a string")?;
        let schema = obj.get("schema");
        if tag == "run" && schema.and_then(Json::as_u64) != Some(SCHEMA_VERSION) {
            let found = schema.map_or("absent".to_string(), Json::to_string);
            return Err(format!(
                "run: schema version {found}, this reader accepts only {SCHEMA_VERSION}"
            ));
        }
        Event::decode(tag, obj)
    }

    /// Example of every event variant (schema documentation + round-trip
    /// test fixture).
    pub fn examples() -> Vec<Event> {
        vec![
            Event::Run {
                ranks: 4,
                threads: 8,
                transport: "inproc".into(),
                kernel_policy: "auto".into(),
                git_commit: Some("deadbeef".into()),
                clock_offsets: Some(vec![0.0, 1.25e-4, -3.0e-5, 7.5e-5]),
                clock_rtts: Some(vec![0.0, 4.0e-5, 3.5e-5, 6.0e-5]),
            },
            Event::Span {
                rank: 0,
                path: "timestep/picard/continuity/solve".into(),
                secs: 0.0123,
                t0: Some(0.875),
            },
            Event::PhasePerf {
                rank: 2,
                label: "continuity/solve".into(),
                kernel_launches: 120,
                kernel_bytes: u64::MAX / 2,
                kernel_flops: 9_999,
                msgs: 14,
                msg_bytes: 2048,
                collectives: 7,
                collective_bytes: 56,
                wait_secs: 0.0625,
                transfer_secs: 0.0078125,
            },
            Event::CommEdge {
                rank: 0,
                src: 0,
                dst: 3,
                class: "halo".into(),
                msgs: 96,
                bytes: 786_432,
                t_first: Some(0.125),
                t_last: Some(2.5),
            },
            Event::Collective {
                rank: 1,
                kind: "allreduce".into(),
                count: 64,
                bytes: 512,
                secs: 0.004,
                buckets: vec![(-15, 60), (-14, 4)],
                t_first: Some(0.0625),
                t_last: Some(2.75),
            },
            Event::AmgSetup {
                rank: 0,
                path: "timestep/picard/continuity/precond setup".into(),
                levels: vec![
                    AmgLevelRow { level: 0, rows: 1000, nnz: 6800 },
                    AmgLevelRow { level: 1, rows: 210, nnz: 1900 },
                ],
                grid_complexity: 1.21,
                operator_complexity: 1.2794117647058822,
            },
            Event::Gmres {
                rank: 3,
                path: "timestep/picard/continuity/solve".into(),
                iters: 3,
                final_rel: 3.2e-7,
                converged: true,
                history: vec![1.0, 0.25, 1e-3, 3.2e-7],
            },
            Event::Recovery {
                rank: 0,
                eq: "continuity".into(),
                step: 4,
                fault: "non_finite_residual".into(),
                action: "rebuild".into(),
                attempt: 1,
                outcome: "recovered".into(),
            },
            Event::Checkpoint {
                rank: 0,
                step: 4,
                generation: 4,
                bytes: 183_472,
                secs: 0.0021,
                t: Some(3.125),
            },
            Event::Restore {
                rank: 1,
                step: 4,
                generation: 4,
                t: Some(0.03125),
            },
            Event::StepHealth {
                rank: 0,
                step: 4,
                eqs: vec![
                    EqHealthRow {
                        eq: "continuity".into(),
                        iters: 12,
                        final_rel: 3.2e-7,
                    },
                    EqHealthRow {
                        eq: "momentum".into(),
                        iters: 5,
                        final_rel: 1.0e-9,
                    },
                ],
                amg_levels: 3,
                grid_complexity: 1.21,
                operator_complexity: 1.2794117647058822,
            },
            Event::KernelPerf {
                rank: 1,
                kernel: "spmv_csr".into(),
                calls: 240,
                secs: 0.0125,
                bytes: 1_200_000_000,
                flops: 96_000_000,
                dofs: 4_000_000,
            },
            Event::Counter {
                rank: 0,
                name: "assembly.matrix_entries".into(),
                value: 123_456,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaulted_fields_and_other_schema_versions_are_rejected() {
        let err = |line: &str| Event::parse_line(line).unwrap_err();
        let perf = r#"{"type":"phase_perf","rank":0,"label":"continuity/solve","kernel_launches":1,"kernel_bytes":2,"kernel_flops":3,"msgs":4,"msg_bytes":5,"collectives":6,"collective_bytes":7,"transfer_secs":0.0}"#;
        assert!(err(perf).contains("\"wait_secs\""), "{}", err(perf));
        let run = r#"{"type":"run","schema":8,"ranks":2,"threads":1,"kernel_policy":"auto"}"#;
        assert!(err(run).contains("\"transport\""), "{}", err(run));
        let old = r#"{"type":"run","schema":7,"ranks":2,"threads":1,"transport":"inproc","kernel_policy":"auto"}"#;
        assert!(err(old).contains('7') && err(old).contains('8'), "{}", err(old));
        assert!(err(&old.replace(r#""schema":7,"#, "")).contains("absent"));
    }

    #[test]
    fn timestamps_are_optional() {
        let span = r#"{"type":"span","rank":0,"path":"timestep","secs":0.5}"#;
        match Event::parse_line(span).unwrap() {
            Event::Span { t0, .. } => assert_eq!(t0, None),
            other => panic!("{other:?}"),
        }
        let edge = r#"{"type":"comm_edge","rank":0,"src":0,"dst":1,"class":"halo","msgs":2,"bytes":64}"#;
        match Event::parse_line(edge).unwrap() {
            Event::CommEdge { t_first, t_last, .. } => {
                assert_eq!(t_first, None);
                assert_eq!(t_last, None);
            }
            other => panic!("{other:?}"),
        }
        let run = r#"{"type":"run","schema":8,"ranks":2,"threads":1,"transport":"inproc","kernel_policy":"auto"}"#;
        match Event::parse_line(run).unwrap() {
            Event::Run { clock_offsets, clock_rtts, .. } => {
                assert_eq!(clock_offsets, None);
                assert_eq!(clock_rtts, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_fields_are_rejected() {
        assert!(Event::parse_line(r#"{"type":"span","rank":0}"#).is_err());
        assert!(crate::read_jsonl_str("{\"type\":\"span\"}\n").is_err());
        assert!(Event::parse_line(r#"{"type":"nope"}"#).is_err());
        assert!(Event::parse_line(r#"{"rank":0}"#).is_err());
        assert!(Event::parse_line("[1,2]").is_err());
        // A present key must hold a valid value, optional keys included,
        // and a malformed nested row is an error naming the event field
        // that holds it.
        let span = r#"{"type":"span","rank":0,"path":"timestep","secs":0.5}"#;
        let run = r#"{"type":"run","schema":8,"ranks":2,"threads":1,"transport":"inproc","kernel_policy":"auto"}"#;
        let health = r#"{"type":"step_health","rank":0,"step":4,"eqs":[],"amg_levels":3,"grid_complexity":1.2,"operator_complexity":1.3}"#;
        let coll = r#"{"type":"collective","rank":1,"kind":"allreduce","count":2,"bytes":16,"secs":0.1,"buckets":[]}"#;
        let amg = r#"{"type":"amg","rank":0,"path":"setup","levels":[],"grid_complexity":1.2,"operator_complexity":1.3}"#;
        for (line, key, value) in [
            (span, "t0", r#""x""#),
            (run, "git_commit", "5"),
            (coll, "buckets", "[[1]]"),
            (amg, "levels", r#"[{"level":0,"rows":10}]"#),
            (health, "eqs", "[5]"),
        ] {
            let mut v = Json::parse(line).unwrap();
            Event::from_json(&v).unwrap_or_else(|e| panic!("{line}: {e}"));
            if let Json::Obj(obj) = &mut v {
                obj.insert(key.to_string(), Json::parse(value).unwrap());
            }
            let tag = v.as_obj().unwrap()["type"].as_str().unwrap().to_string();
            let err = Event::from_json(&v).unwrap_err();
            assert_eq!(err, format!("{tag}: missing/invalid field \"{key}\""), "{v}");
        }
    }
}
