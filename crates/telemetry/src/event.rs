//! The telemetry event schema (see [`SCHEMA_VERSION`]).
//!
//! One event per JSONL line, tagged by `"type"`. The stream carries the
//! three solver telemetry islands in one format:
//!
//! | type         | source                    | paper artifact            |
//! |--------------|---------------------------|---------------------------|
//! | `run`        | export harness            | run metadata              |
//! | `span`       | hierarchical span guards  | phase wall-clock tree     |
//! | `phase_time` | `nalu_core::Timings`      | Figs. 6/7 stacked bars    |
//! | `phase_perf` | `parcomm::PhaseTrace`     | machine-model inputs, wait-vs-compute imbalance |
//! | `comm_edge`  | `parcomm::Rank` edge accounting | Figs. 8–10 rank×rank comm matrix |
//! | `collective` | `parcomm` collective scopes | collective latency histograms |
//! | `amg`        | `amg::AmgHierarchy::setup`| Tables 2–4 per-level rows |
//! | `gmres`      | `krylov::Gmres::solve`    | convergence trajectories  |
//! | `recovery`   | `nalu_core` Picard driver | solver-fault escalations  |
//! | `checkpoint` | `nalu_core` periodic trigger | restart-file writes    |
//! | `restore`    | `nalu_core` resume path   | restart provenance        |
//! | `kernel_perf`| `parcomm::Rank::kernel` scopes | achieved GB/s / GFLOP/s roofline rows |
//! | `counter`    | subsystem counters        | —                         |
//!
//! Every event type round-trips exactly through [`Event::to_line`] /
//! [`Event::parse_line`] (integers exact, floats bit-identical).

use crate::json::Json;

/// The one schema version: stamped into every `run` event, and the only
/// one [`Event::from_json`] accepts — a `run` line carrying another (or
/// no) version is a parse error, not a stream read with defaults.
pub const SCHEMA_VERSION: u64 = 6;

/// One row of an AMG hierarchy: global rows and nonzeros of a level
/// operator.
#[derive(Clone, Debug, PartialEq)]
pub struct AmgLevelRow {
    pub level: usize,
    pub rows: u64,
    pub nnz: u64,
}

/// Per-equation convergence summary inside a `step_health` event.
#[derive(Clone, Debug, PartialEq)]
pub struct EqHealthRow {
    pub eq: String,
    /// GMRES iterations spent on this equation during the step (summed
    /// over Picard sweeps and meshes).
    pub iters: u64,
    /// Final relative residual of the last solve.
    pub final_rel: f64,
    /// Residual reduction rate: orders of magnitude gained per GMRES
    /// iteration, `-log10(final_rel) / iters` (0 when `iters == 0`).
    pub rate: f64,
}

/// A telemetry event. See the module docs for the type ↔ source map.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Run metadata, emitted once per exported stream.
    Run {
        ranks: usize,
        threads: usize,
        /// Transport backend label (`inproc` | `socket`).
        transport: String,
        /// Active kernel policy label (`auto` | `csr` | `sellcs`).
        kernel_policy: String,
        git_commit: Option<String>,
        /// Per-rank clock offsets (seconds) mapping each rank's telemetry
        /// epoch onto rank 0's timeline: `t_global = t_rank + offset[rank]`.
        /// Estimated by the startup NTP-style handshake; absent when
        /// telemetry was off.
        clock_offsets: Option<Vec<f64>>,
        /// Per-rank minimum round-trip times (seconds) of the handshake —
        /// the offset uncertainty is bounded by `rtt/2`.
        clock_rtts: Option<Vec<f64>>,
    },
    /// A closed span: `path` is the `/`-joined stack of open span names.
    Span {
        rank: usize,
        path: String,
        depth: usize,
        secs: f64,
        /// Span start, seconds since the recording rank's telemetry epoch.
        t0: Option<f64>,
    },
    /// Per-step, per-equation, per-phase wall-clock (from `Timings`).
    PhaseTime {
        rank: usize,
        step: usize,
        eq: String,
        phase: String,
        secs: f64,
    },
    /// Per-phase operation counts (from `parcomm::PhaseTrace`), plus the
    /// phase's wait/transfer split when comm timing was enabled.
    PhasePerf {
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
    },
    /// Traffic totals of one directed (src → dst) communication edge in
    /// one tag class, as observed by `rank` (which is one of the two
    /// endpoints — both endpoints report, and a healthy run's reports
    /// agree; `validate_stream` checks this).
    CommEdge {
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
    },
    /// One rank's participation in one collective kind: entry count,
    /// contributed bytes, and a log₂ latency histogram over per-entry
    /// seconds (empty when comm timing was disabled).
    Collective {
        rank: usize,
        /// Collective kind: `allreduce` | `allgather` | `broadcast` |
        /// `sparse_exchange` | `barrier`.
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
    },
    /// One AMG setup: per-level rows/nnz plus the paper's grid and
    /// operator complexities.
    AmgSetup {
        rank: usize,
        path: String,
        levels: Vec<AmgLevelRow>,
        grid_complexity: f64,
        operator_complexity: f64,
    },
    /// One GMRES solve: iteration count and the relative-residual
    /// trajectory.
    Gmres {
        rank: usize,
        path: String,
        iters: usize,
        final_rel: f64,
        converged: bool,
        history: Vec<f64>,
    },
    /// One recovery attempt: a solve failed with a typed fault and the
    /// Picard driver walked the escalation ladder.
    Recovery {
        rank: usize,
        eq: String,
        step: usize,
        fault: String,
        action: String,
        attempt: usize,
        outcome: String,
    },
    /// One completed checkpoint write on one rank: the generation it
    /// contributes to, the step it captures, the file size, and the
    /// wall-clock spent serializing + fsyncing.
    Checkpoint {
        rank: usize,
        step: usize,
        generation: u64,
        bytes: u64,
        secs: f64,
        /// Write completion, seconds since the recording rank's telemetry
        /// epoch.
        t: Option<f64>,
    },
    /// One restore: this rank resumed from `generation`, continuing
    /// after `step` completed steps.
    Restore {
        rank: usize,
        step: usize,
        generation: u64,
        /// Restore completion, seconds since the recording rank's
        /// telemetry epoch.
        t: Option<f64>,
    },
    /// Per-timestep solver-health sample: per-equation convergence, AMG
    /// hierarchy complexity, and resilience activity. Deterministic
    /// (carries no wall-clock), emitted once per completed step per rank;
    /// the input of the `telemetry::health` degradation detector.
    StepHealth {
        rank: usize,
        step: usize,
        eqs: Vec<EqHealthRow>,
        /// Levels in the pressure AMG hierarchy the most recent
        /// AMG-preconditioned solve used, freshly set up or reused (0
        /// before the first).
        amg_levels: u64,
        grid_complexity: f64,
        operator_complexity: f64,
        /// Recovery-ladder attempts during the step.
        recoveries: u64,
        /// Checkpoint generation published by this step, if any.
        checkpoint: Option<u64>,
    },
    /// A typed degradation verdict from the `telemetry::health` detector:
    /// `value` left the EWMA `baseline` envelope for a full detection
    /// window ending at `step`.
    HealthVerdict {
        rank: usize,
        step: usize,
        /// Degradation kind label: `gmres-iters` | `residual-rate` |
        /// `amg-complexity` | `recovery-storm`.
        kind: String,
        /// Offending equation, for per-equation kinds.
        eq: Option<String>,
        value: f64,
        baseline: f64,
    },
    /// Aggregate of one named kernel on one rank: launches, wall-clock,
    /// modeled bytes/flops (priced by `sparse_kit::cost`) and DOFs, and
    /// the achieved throughputs they imply. The by-name view of the
    /// launches `phase_perf` carries by phase; emitted next to it by
    /// `parcomm::Rank::telemetry_events`, sorted by kernel name.
    KernelPerf {
        rank: usize,
        kernel: String,
        calls: u64,
        secs: f64,
        bytes: u64,
        flops: u64,
        dofs: u64,
        gb_per_s: f64,
        gflop_per_s: f64,
        mdof_per_s: f64,
    },
    /// A named monotonic counter (aggregated per rank at finish).
    Counter { rank: usize, name: String, value: u64 },
}

impl Event {
    /// The schema type tag.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Event::Run { .. } => "run",
            Event::Span { .. } => "span",
            Event::PhaseTime { .. } => "phase_time",
            Event::PhasePerf { .. } => "phase_perf",
            Event::CommEdge { .. } => "comm_edge",
            Event::Collective { .. } => "collective",
            Event::AmgSetup { .. } => "amg",
            Event::Gmres { .. } => "gmres",
            Event::Recovery { .. } => "recovery",
            Event::Checkpoint { .. } => "checkpoint",
            Event::Restore { .. } => "restore",
            Event::StepHealth { .. } => "step_health",
            Event::HealthVerdict { .. } => "health_verdict",
            Event::KernelPerf { .. } => "kernel_perf",
            Event::Counter { .. } => "counter",
        }
    }

    /// Serialize to a JSON value.
    pub fn to_json(&self) -> Json {
        let tag = Json::Str(self.type_tag().to_string());
        match self {
            Event::Run {
                ranks,
                threads,
                transport,
                kernel_policy,
                git_commit,
                clock_offsets,
                clock_rtts,
            } => {
                let mut pairs = vec![
                    ("type", tag),
                    ("schema", Json::Int(SCHEMA_VERSION as i128)),
                    ("ranks", Json::Int(*ranks as i128)),
                    ("threads", Json::Int(*threads as i128)),
                    ("transport", Json::Str(transport.clone())),
                    ("kernel_policy", Json::Str(kernel_policy.clone())),
                ];
                if let Some(c) = git_commit {
                    pairs.push(("git_commit", Json::Str(c.clone())));
                }
                if let Some(offs) = clock_offsets {
                    pairs.push((
                        "clock_offsets",
                        Json::Arr(offs.iter().map(|&o| Json::Float(o)).collect()),
                    ));
                }
                if let Some(rtts) = clock_rtts {
                    pairs.push((
                        "clock_rtts",
                        Json::Arr(rtts.iter().map(|&r| Json::Float(r)).collect()),
                    ));
                }
                Json::obj(pairs)
            }
            Event::Span {
                rank,
                path,
                depth,
                secs,
                t0,
            } => {
                let mut pairs = vec![
                    ("type", tag),
                    ("rank", Json::Int(*rank as i128)),
                    ("path", Json::Str(path.clone())),
                    ("depth", Json::Int(*depth as i128)),
                    ("secs", Json::Float(*secs)),
                ];
                if let Some(t0) = t0 {
                    pairs.push(("t0", Json::Float(*t0)));
                }
                Json::obj(pairs)
            }
            Event::PhaseTime {
                rank,
                step,
                eq,
                phase,
                secs,
            } => Json::obj(vec![
                ("type", tag),
                ("rank", Json::Int(*rank as i128)),
                ("step", Json::Int(*step as i128)),
                ("eq", Json::Str(eq.clone())),
                ("phase", Json::Str(phase.clone())),
                ("secs", Json::Float(*secs)),
            ]),
            Event::PhasePerf {
                rank,
                label,
                kernel_launches,
                kernel_bytes,
                kernel_flops,
                msgs,
                msg_bytes,
                collectives,
                collective_bytes,
                wait_secs,
                transfer_secs,
            } => Json::obj(vec![
                ("type", tag),
                ("rank", Json::Int(*rank as i128)),
                ("label", Json::Str(label.clone())),
                ("kernel_launches", Json::Int(*kernel_launches as i128)),
                ("kernel_bytes", Json::Int(*kernel_bytes as i128)),
                ("kernel_flops", Json::Int(*kernel_flops as i128)),
                ("msgs", Json::Int(*msgs as i128)),
                ("msg_bytes", Json::Int(*msg_bytes as i128)),
                ("collectives", Json::Int(*collectives as i128)),
                ("collective_bytes", Json::Int(*collective_bytes as i128)),
                ("wait_secs", Json::Float(*wait_secs)),
                ("transfer_secs", Json::Float(*transfer_secs)),
            ]),
            Event::CommEdge {
                rank,
                src,
                dst,
                class,
                msgs,
                bytes,
                t_first,
                t_last,
            } => {
                let mut pairs = vec![
                    ("type", tag),
                    ("rank", Json::Int(*rank as i128)),
                    ("src", Json::Int(*src as i128)),
                    ("dst", Json::Int(*dst as i128)),
                    ("class", Json::Str(class.clone())),
                    ("msgs", Json::Int(*msgs as i128)),
                    ("bytes", Json::Int(*bytes as i128)),
                ];
                if let Some(t) = t_first {
                    pairs.push(("t_first", Json::Float(*t)));
                }
                if let Some(t) = t_last {
                    pairs.push(("t_last", Json::Float(*t)));
                }
                Json::obj(pairs)
            }
            Event::Collective {
                rank,
                kind,
                count,
                bytes,
                secs,
                buckets,
                t_first,
                t_last,
            } => {
                let mut pairs = vec![
                    ("type", tag),
                    ("rank", Json::Int(*rank as i128)),
                    ("kind", Json::Str(kind.clone())),
                    ("count", Json::Int(*count as i128)),
                    ("bytes", Json::Int(*bytes as i128)),
                    ("secs", Json::Float(*secs)),
                    (
                        "buckets",
                        Json::Arr(
                            buckets
                                .iter()
                                .map(|&(e, c)| {
                                    Json::Arr(vec![Json::Int(e as i128), Json::Int(c as i128)])
                                })
                                .collect(),
                        ),
                    ),
                ];
                if let Some(t) = t_first {
                    pairs.push(("t_first", Json::Float(*t)));
                }
                if let Some(t) = t_last {
                    pairs.push(("t_last", Json::Float(*t)));
                }
                Json::obj(pairs)
            }
            Event::AmgSetup {
                rank,
                path,
                levels,
                grid_complexity,
                operator_complexity,
            } => Json::obj(vec![
                ("type", tag),
                ("rank", Json::Int(*rank as i128)),
                ("path", Json::Str(path.clone())),
                (
                    "levels",
                    Json::Arr(
                        levels
                            .iter()
                            .map(|l| {
                                Json::obj(vec![
                                    ("level", Json::Int(l.level as i128)),
                                    ("rows", Json::Int(l.rows as i128)),
                                    ("nnz", Json::Int(l.nnz as i128)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("grid_complexity", Json::Float(*grid_complexity)),
                ("operator_complexity", Json::Float(*operator_complexity)),
            ]),
            Event::Gmres {
                rank,
                path,
                iters,
                final_rel,
                converged,
                history,
            } => Json::obj(vec![
                ("type", tag),
                ("rank", Json::Int(*rank as i128)),
                ("path", Json::Str(path.clone())),
                ("iters", Json::Int(*iters as i128)),
                ("final_rel", Json::Float(*final_rel)),
                ("converged", Json::Bool(*converged)),
                (
                    "history",
                    Json::Arr(history.iter().map(|&r| Json::Float(r)).collect()),
                ),
            ]),
            Event::Recovery {
                rank,
                eq,
                step,
                fault,
                action,
                attempt,
                outcome,
            } => Json::obj(vec![
                ("type", tag),
                ("rank", Json::Int(*rank as i128)),
                ("eq", Json::Str(eq.clone())),
                ("step", Json::Int(*step as i128)),
                ("fault", Json::Str(fault.clone())),
                ("action", Json::Str(action.clone())),
                ("attempt", Json::Int(*attempt as i128)),
                ("outcome", Json::Str(outcome.clone())),
            ]),
            Event::Checkpoint {
                rank,
                step,
                generation,
                bytes,
                secs,
                t,
            } => {
                let mut pairs = vec![
                    ("type", tag),
                    ("rank", Json::Int(*rank as i128)),
                    ("step", Json::Int(*step as i128)),
                    ("generation", Json::Int(*generation as i128)),
                    ("bytes", Json::Int(*bytes as i128)),
                    ("secs", Json::Float(*secs)),
                ];
                if let Some(t) = t {
                    pairs.push(("t", Json::Float(*t)));
                }
                Json::obj(pairs)
            }
            Event::Restore {
                rank,
                step,
                generation,
                t,
            } => {
                let mut pairs = vec![
                    ("type", tag),
                    ("rank", Json::Int(*rank as i128)),
                    ("step", Json::Int(*step as i128)),
                    ("generation", Json::Int(*generation as i128)),
                ];
                if let Some(t) = t {
                    pairs.push(("t", Json::Float(*t)));
                }
                Json::obj(pairs)
            }
            Event::StepHealth {
                rank,
                step,
                eqs,
                amg_levels,
                grid_complexity,
                operator_complexity,
                recoveries,
                checkpoint,
            } => {
                let mut pairs = vec![
                    ("type", tag),
                    ("rank", Json::Int(*rank as i128)),
                    ("step", Json::Int(*step as i128)),
                    (
                        "eqs",
                        Json::Arr(
                            eqs.iter()
                                .map(|e| {
                                    Json::obj(vec![
                                        ("eq", Json::Str(e.eq.clone())),
                                        ("iters", Json::Int(e.iters as i128)),
                                        ("final_rel", Json::Float(e.final_rel)),
                                        ("rate", Json::Float(e.rate)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("amg_levels", Json::Int(*amg_levels as i128)),
                    ("grid_complexity", Json::Float(*grid_complexity)),
                    ("operator_complexity", Json::Float(*operator_complexity)),
                    ("recoveries", Json::Int(*recoveries as i128)),
                ];
                if let Some(g) = checkpoint {
                    pairs.push(("checkpoint", Json::Int(*g as i128)));
                }
                Json::obj(pairs)
            }
            Event::HealthVerdict {
                rank,
                step,
                kind,
                eq,
                value,
                baseline,
            } => {
                let mut pairs = vec![
                    ("type", tag),
                    ("rank", Json::Int(*rank as i128)),
                    ("step", Json::Int(*step as i128)),
                    ("kind", Json::Str(kind.clone())),
                    ("value", Json::Float(*value)),
                    ("baseline", Json::Float(*baseline)),
                ];
                if let Some(eq) = eq {
                    pairs.push(("eq", Json::Str(eq.clone())));
                }
                Json::obj(pairs)
            }
            Event::KernelPerf {
                rank,
                kernel,
                calls,
                secs,
                bytes,
                flops,
                dofs,
                gb_per_s,
                gflop_per_s,
                mdof_per_s,
            } => Json::obj(vec![
                ("type", tag),
                ("rank", Json::Int(*rank as i128)),
                ("kernel", Json::Str(kernel.clone())),
                ("calls", Json::Int(*calls as i128)),
                ("secs", Json::Float(*secs)),
                ("bytes", Json::Int(*bytes as i128)),
                ("flops", Json::Int(*flops as i128)),
                ("dofs", Json::Int(*dofs as i128)),
                ("gb_per_s", Json::Float(*gb_per_s)),
                ("gflop_per_s", Json::Float(*gflop_per_s)),
                ("mdof_per_s", Json::Float(*mdof_per_s)),
            ]),
            Event::Counter { rank, name, value } => Json::obj(vec![
                ("type", tag),
                ("rank", Json::Int(*rank as i128)),
                ("name", Json::Str(name.clone())),
                ("value", Json::Int(*value as i128)),
            ]),
        }
    }

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

        let str_field = |k: &str| -> Result<String, String> {
            obj.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("{tag}: missing/invalid string field \"{k}\""))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            obj.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("{tag}: missing/invalid integer field \"{k}\""))
        };
        let usize_field = |k: &str| -> Result<usize, String> {
            obj.get(k)
                .and_then(Json::as_usize)
                .ok_or(format!("{tag}: missing/invalid integer field \"{k}\""))
        };
        let f64_field = |k: &str| -> Result<f64, String> {
            obj.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("{tag}: missing/invalid number field \"{k}\""))
        };

        // Optional float-array field.
        let f64_arr = |k: &str| -> Result<Option<Vec<f64>>, String> {
            match obj.get(k) {
                None => Ok(None),
                Some(v) => v
                    .as_arr()
                    .ok_or(format!("{tag}: \"{k}\" is not an array"))?
                    .iter()
                    .map(|x| {
                        x.as_f64().ok_or(format!("{tag}: non-numeric \"{k}\" entry"))
                    })
                    .collect::<Result<Vec<_>, String>>()
                    .map(Some),
            }
        };
        let opt_f64 = |k: &str| obj.get(k).and_then(Json::as_f64);

        match tag {
            "run" if obj.get("schema").and_then(Json::as_u64) != Some(SCHEMA_VERSION) => {
                let found = obj.get("schema").map_or("absent".to_string(), Json::to_string);
                Err(format!("run: schema version {found}, this reader accepts only {SCHEMA_VERSION}"))
            }
            "run" => Ok(Event::Run {
                ranks: usize_field("ranks")?,
                threads: usize_field("threads")?,
                transport: str_field("transport")?,
                kernel_policy: str_field("kernel_policy")?,
                git_commit: obj.get("git_commit").and_then(Json::as_str).map(str::to_string),
                clock_offsets: f64_arr("clock_offsets")?,
                clock_rtts: f64_arr("clock_rtts")?,
            }),
            "span" => Ok(Event::Span {
                rank: usize_field("rank")?,
                path: str_field("path")?,
                depth: usize_field("depth")?,
                secs: f64_field("secs")?,
                t0: opt_f64("t0"),
            }),
            "phase_time" => Ok(Event::PhaseTime {
                rank: usize_field("rank")?,
                step: usize_field("step")?,
                eq: str_field("eq")?,
                phase: str_field("phase")?,
                secs: f64_field("secs")?,
            }),
            "phase_perf" => Ok(Event::PhasePerf {
                rank: usize_field("rank")?,
                label: str_field("label")?,
                kernel_launches: u64_field("kernel_launches")?,
                kernel_bytes: u64_field("kernel_bytes")?,
                kernel_flops: u64_field("kernel_flops")?,
                msgs: u64_field("msgs")?,
                msg_bytes: u64_field("msg_bytes")?,
                collectives: u64_field("collectives")?,
                collective_bytes: u64_field("collective_bytes")?,
                wait_secs: f64_field("wait_secs")?,
                transfer_secs: f64_field("transfer_secs")?,
            }),
            "comm_edge" => Ok(Event::CommEdge {
                rank: usize_field("rank")?,
                src: usize_field("src")?,
                dst: usize_field("dst")?,
                class: str_field("class")?,
                msgs: u64_field("msgs")?,
                bytes: u64_field("bytes")?,
                t_first: opt_f64("t_first"),
                t_last: opt_f64("t_last"),
            }),
            "collective" => {
                let buckets = obj
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or("collective: missing \"buckets\" array")?
                    .iter()
                    .map(|b| {
                        let pair = b.as_arr().ok_or("collective: bucket is not a pair")?;
                        if pair.len() != 2 {
                            return Err("collective: bucket is not a pair".to_string());
                        }
                        let e = pair[0]
                            .as_i128()
                            .and_then(|i| i32::try_from(i).ok())
                            .ok_or("collective: bad bucket exponent")?;
                        let c = pair[1].as_u64().ok_or("collective: bad bucket count")?;
                        Ok((e, c))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Event::Collective {
                    rank: usize_field("rank")?,
                    kind: str_field("kind")?,
                    count: u64_field("count")?,
                    bytes: u64_field("bytes")?,
                    secs: f64_field("secs")?,
                    buckets,
                    t_first: opt_f64("t_first"),
                    t_last: opt_f64("t_last"),
                })
            }
            "amg" => {
                let levels = obj
                    .get("levels")
                    .and_then(Json::as_arr)
                    .ok_or("amg: missing \"levels\" array")?
                    .iter()
                    .map(|l| {
                        let lo = l.as_obj().ok_or("amg: level is not an object")?;
                        Ok(AmgLevelRow {
                            level: lo
                                .get("level")
                                .and_then(Json::as_usize)
                                .ok_or("amg: bad level index")?,
                            rows: lo
                                .get("rows")
                                .and_then(Json::as_u64)
                                .ok_or("amg: bad level rows")?,
                            nnz: lo
                                .get("nnz")
                                .and_then(Json::as_u64)
                                .ok_or("amg: bad level nnz")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Event::AmgSetup {
                    rank: usize_field("rank")?,
                    path: str_field("path")?,
                    levels,
                    grid_complexity: f64_field("grid_complexity")?,
                    operator_complexity: f64_field("operator_complexity")?,
                })
            }
            "gmres" => {
                let history = obj
                    .get("history")
                    .and_then(Json::as_arr)
                    .ok_or("gmres: missing \"history\" array")?
                    .iter()
                    .map(|x| x.as_f64().ok_or("gmres: non-numeric history entry".to_string()))
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Event::Gmres {
                    rank: usize_field("rank")?,
                    path: str_field("path")?,
                    iters: usize_field("iters")?,
                    final_rel: f64_field("final_rel")?,
                    converged: obj
                        .get("converged")
                        .and_then(Json::as_bool)
                        .ok_or("gmres: missing \"converged\"")?,
                    history,
                })
            }
            "recovery" => Ok(Event::Recovery {
                rank: usize_field("rank")?,
                eq: str_field("eq")?,
                step: usize_field("step")?,
                fault: str_field("fault")?,
                action: str_field("action")?,
                attempt: usize_field("attempt")?,
                outcome: str_field("outcome")?,
            }),
            "checkpoint" => Ok(Event::Checkpoint {
                rank: usize_field("rank")?,
                step: usize_field("step")?,
                generation: u64_field("generation")?,
                bytes: u64_field("bytes")?,
                secs: f64_field("secs")?,
                t: opt_f64("t"),
            }),
            "restore" => Ok(Event::Restore {
                rank: usize_field("rank")?,
                step: usize_field("step")?,
                generation: u64_field("generation")?,
                t: opt_f64("t"),
            }),
            "step_health" => {
                let eqs = obj
                    .get("eqs")
                    .and_then(Json::as_arr)
                    .ok_or("step_health: missing \"eqs\" array")?
                    .iter()
                    .map(|e| {
                        let eo = e.as_obj().ok_or("step_health: eq is not an object")?;
                        Ok(EqHealthRow {
                            eq: eo
                                .get("eq")
                                .and_then(Json::as_str)
                                .ok_or("step_health: bad eq name")?
                                .to_string(),
                            iters: eo
                                .get("iters")
                                .and_then(Json::as_u64)
                                .ok_or("step_health: bad eq iters")?,
                            final_rel: eo
                                .get("final_rel")
                                .and_then(Json::as_f64)
                                .ok_or("step_health: bad eq final_rel")?,
                            rate: eo
                                .get("rate")
                                .and_then(Json::as_f64)
                                .ok_or("step_health: bad eq rate")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Event::StepHealth {
                    rank: usize_field("rank")?,
                    step: usize_field("step")?,
                    eqs,
                    amg_levels: u64_field("amg_levels")?,
                    grid_complexity: f64_field("grid_complexity")?,
                    operator_complexity: f64_field("operator_complexity")?,
                    recoveries: u64_field("recoveries")?,
                    checkpoint: obj.get("checkpoint").and_then(Json::as_u64),
                })
            }
            "health_verdict" => Ok(Event::HealthVerdict {
                rank: usize_field("rank")?,
                step: usize_field("step")?,
                kind: str_field("kind")?,
                eq: obj.get("eq").and_then(Json::as_str).map(str::to_string),
                value: f64_field("value")?,
                baseline: f64_field("baseline")?,
            }),
            "kernel_perf" => Ok(Event::KernelPerf {
                rank: usize_field("rank")?,
                kernel: str_field("kernel")?,
                calls: u64_field("calls")?,
                secs: f64_field("secs")?,
                bytes: u64_field("bytes")?,
                flops: u64_field("flops")?,
                dofs: u64_field("dofs")?,
                gb_per_s: f64_field("gb_per_s")?,
                gflop_per_s: f64_field("gflop_per_s")?,
                mdof_per_s: f64_field("mdof_per_s")?,
            }),
            "counter" => Ok(Event::Counter {
                rank: usize_field("rank")?,
                name: str_field("name")?,
                value: u64_field("value")?,
            }),
            other => Err(format!("unknown event type {other:?}")),
        }
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
                depth: 3,
                secs: 0.0123,
                t0: Some(0.875),
            },
            Event::PhaseTime {
                rank: 1,
                step: 2,
                eq: "momentum".into(),
                phase: "local assembly".into(),
                secs: 1.0 / 3.0,
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
                        rate: 0.5413941073971938,
                    },
                    EqHealthRow {
                        eq: "momentum".into(),
                        iters: 5,
                        final_rel: 1.0e-9,
                        rate: 1.8,
                    },
                ],
                amg_levels: 3,
                grid_complexity: 1.21,
                operator_complexity: 1.2794117647058822,
                recoveries: 0,
                checkpoint: Some(4),
            },
            Event::HealthVerdict {
                rank: 0,
                step: 9,
                kind: "gmres-iters".into(),
                eq: Some("continuity".into()),
                value: 24.0,
                baseline: 12.5,
            },
            Event::KernelPerf {
                rank: 1,
                kernel: "spmv_csr".into(),
                calls: 240,
                secs: 0.0125,
                bytes: 1_200_000_000,
                flops: 96_000_000,
                dofs: 4_000_000,
                gb_per_s: 96.0,
                gflop_per_s: 7.68,
                mdof_per_s: 320.0,
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
    fn every_event_type_round_trips() {
        for ev in Event::examples() {
            let line = ev.to_line();
            let back = Event::parse_line(&line)
                .unwrap_or_else(|e| panic!("{}: {e}\n{line}", ev.type_tag()));
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn defaulted_fields_and_other_schema_versions_are_rejected() {
        let err = |line: &str| Event::parse_line(line).unwrap_err();
        let perf = r#"{"type":"phase_perf","rank":0,"label":"continuity/solve","kernel_launches":1,"kernel_bytes":2,"kernel_flops":3,"msgs":4,"msg_bytes":5,"collectives":6,"collective_bytes":7,"transfer_secs":0.0}"#;
        assert!(err(perf).contains("\"wait_secs\""), "{}", err(perf));
        let run = r#"{"type":"run","schema":6,"ranks":2,"threads":1,"kernel_policy":"auto"}"#;
        assert!(err(run).contains("\"transport\""), "{}", err(run));
        let old = r#"{"type":"run","schema":5,"ranks":2,"threads":1,"transport":"inproc","kernel_policy":"auto"}"#;
        assert!(err(old).contains('5') && err(old).contains('6'), "{}", err(old));
        assert!(err(&old.replace(r#""schema":5,"#, "")).contains("absent"));
    }

    #[test]
    fn timestamps_are_optional() {
        let span = r#"{"type":"span","rank":0,"path":"timestep","depth":0,"secs":0.5}"#;
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
        let run = r#"{"type":"run","schema":6,"ranks":2,"threads":1,"transport":"inproc","kernel_policy":"auto"}"#;
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
        assert!(Event::parse_line(r#"{"type":"nope"}"#).is_err());
        assert!(Event::parse_line(r#"{"rank":0}"#).is_err());
        assert!(Event::parse_line("[1,2]").is_err());
    }
}
