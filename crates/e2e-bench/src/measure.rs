//! One benchmark run of one workload: the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer ones.

use std::path::PathBuf;
use std::time::Instant;

use nalu_core::{Phase, Simulation, SolverConfig};
use parcomm::{Rank, TransportKind};
use telemetry::{Event, Json};

use crate::episode::{run_episode, Episode, Measurement, Plan, Step};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, REPORTED};
use crate::probes::{self, ProbeCalls};
use crate::spans::Spans;
use crate::stats::{median, percentile, tail};
use crate::workload::{Workload, SMOKE_SCALE, SMOKE_STEPS, STEPS_PER_EPISODE};

/// Unknowns per node: 3 velocity components + pressure + ν_t.
const DOF_PER_NODE: usize = 5;
/// `core.unattributed_frac` must stay below this.
pub const MAX_UNATTRIBUTED: f64 = 0.05;
/// `core.stable_steps` looks no further than this many steps.
const STABLE_CAP: usize = 48;
/// A step is past the stable horizon when its momentum iterations exceed
/// this multiple of step 1's.
const STABLE_GROWTH: usize = 4;
/// Mesh scale of the stable-horizon probe (the small workload's mesh).
const STABLE_SCALE: f64 = 2e-4;
/// Set-ups every telemetry-off run makes, so `setup_s` is a median even
/// where the time budget holds one measured episode: the measured
/// episodes count, and episodes that stop after the cold step make up
/// the rest.
const MIN_SETUPS: usize = 3;
/// Timed steps of the 1-rank reference behind `core.step_r1_s`.
const R1_STEPS: usize = 2;
/// Timed steps of the traced run's telemetry-off reference episode.
const REFERENCE_STEPS: usize = 3;

#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Stop starting episodes once the next one would end past this many
    /// seconds of measuring (at least one episode always runs).
    pub seconds: f64,
    pub trace: bool,
    /// Tiny mesh, one episode of two steps and no further set-ups, two
    /// calls per probe: checks plumbing, not performance.
    pub smoke: bool,
    /// Results, spans and telemetry streams land here.
    pub out_dir: PathBuf,
    /// Test hook: edit the pinned configuration (e.g. force failing steps).
    pub tweak: Option<fn(&mut SolverConfig)>,
}

#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub nodes: usize,
    pub episodes: usize,
    /// Wall seconds of every timed step, in order: the samples behind
    /// the medians.
    pub step_walls: Vec<f64>,
    /// Percentile `step_s_tail` was read at.
    pub tail_percentile: f64,
    pub attempted: usize,
    pub failed: usize,
    pub checksum: u64,
    /// GMRES iterations per timed step and equation (exact counts; not an
    /// end-to-end metric, because a legitimate change may trade a few
    /// iterations for less time).
    pub iters_per_step: Vec<Measurement>,
    /// One line per episode: its set-up and median step time.
    pub episode_lines: Vec<String>,
    /// One value per entry of the mode's metric table, in table order.
    pub metrics: Vec<Measurement>,
    /// One value per entry of [`REPORTED`] (telemetry-off runs only).
    pub reported: Vec<Measurement>,
    pub checks: Vec<Check>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .zip(self.defs())
            .map(|((name, value), def)| {
                (
                    name.as_str(),
                    Json::obj(vec![
                        ("value", Json::Float(*value)),
                        ("unit", Json::Str(def.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i128)),
            ("failed", Json::Int(self.failed as i128)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The contract object plus what `compare` and a reader want beside
    /// it; this is what lands in `out/` and in a set file.
    pub fn full_json(&self) -> Json {
        let Json::Obj(mut obj) = self.contract_json() else {
            unreachable!("contract_json builds an object")
        };
        obj.insert("workload".into(), Json::Str(self.workload.into()));
        obj.insert("seed".into(), Json::Int(self.seed as i128));
        obj.insert("trace".into(), Json::Bool(self.trace));
        obj.insert("nodes".into(), Json::Int(self.nodes as i128));
        obj.insert("episodes".into(), Json::Int(self.episodes as i128));
        obj.insert("samples".into(), Json::Int(self.step_walls.len() as i128));
        obj.insert(
            "step_walls_s".into(),
            Json::Arr(self.step_walls.iter().map(|&s| Json::Float(s)).collect()),
        );
        obj.insert("tail_percentile".into(), Json::Float(self.tail_percentile));
        obj.insert(
            "checksum".into(),
            Json::Str(format!("{:016x}", self.checksum)),
        );
        let iters = self
            .iters_per_step
            .iter()
            .map(|(eq, v)| (eq.as_str(), Json::Float(*v)))
            .collect();
        obj.insert("gmres_iters_per_step".into(), Json::obj(iters));
        let failed: Vec<Json> = self
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| Json::Str(format!("{}: {}", c.name, c.detail)))
            .collect();
        obj.insert("failed_checks".into(), Json::Arr(failed));
        let reported = self
            .reported
            .iter()
            .map(|(name, v)| (name.as_str(), Json::Float(*v)))
            .collect();
        obj.insert("reported_not_gated".into(), Json::obj(reported));
        Json::Obj(obj)
    }

    /// The flat `name value unit` table and the check list, for people.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mode = if self.trace {
            "traced, per-layer"
        } else {
            "telemetry off, end-to-end"
        };
        let _ = writeln!(
            out,
            "== {} ({mode}) seed {:#x}: {} nodes, {} episode(s), {} timed-step samples, tail = p{} ==",
            self.workload,
            self.seed,
            self.nodes,
            self.episodes,
            self.step_walls.len(),
            self.tail_percentile
        );
        for line in &self.episode_lines {
            let _ = writeln!(out, "{line}");
        }
        for ((name, value), def) in self.metrics.iter().zip(self.defs()) {
            let _ = writeln!(out, "{name:<40} {value:>16.6} {}", def.unit);
        }
        for ((name, value), def) in self.reported.iter().zip(&REPORTED) {
            let _ = writeln!(
                out,
                "{name:<40} {value:>16.6} {}   (reported, not gated)",
                def.unit
            );
        }
        let iters: Vec<String> = self
            .iters_per_step
            .iter()
            .map(|(eq, v)| format!("{eq} {v:.1}"))
            .collect();
        let _ = writeln!(out, "GMRES iterations per step: {}", iters.join(", "));
        let _ = writeln!(
            out,
            "steps failed / attempted: {} / {}    field checksum {:016x}",
            self.failed, self.attempted, self.checksum
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {:<28} {}  {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        out
    }
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(f64::NAN, |k| k / 1024.0)
}

fn all_steps<'a>(episodes: impl IntoIterator<Item = &'a Episode>) -> Vec<&'a Step> {
    episodes.into_iter().flat_map(|e| &e.steps).collect()
}

fn unattributed(steps: &[&Step]) -> f64 {
    median(
        &steps
            .iter()
            .map(|s| 1.0 - s.timings_total() / s.wall_s)
            .collect::<Vec<f64>>(),
    )
}

/// The checks every run makes on its episodes.
fn common_checks(w: &Workload, cfg: &SolverConfig, episodes: &[&Episode]) -> Vec<Check> {
    let tol = w.tolerance();
    let failed: usize = episodes.iter().map(|e| e.failed_steps(tol)).sum();
    let steps = all_steps(episodes.iter().copied());
    let worst = steps.iter().map(|s| s.max_final_rel).fold(0.0, f64::max);
    let first_err = steps
        .iter()
        .find_map(|s| s.error.clone())
        .unwrap_or_default();
    let wake = episodes
        .iter()
        .map(|e| e.wake_u)
        .fold(f64::NEG_INFINITY, f64::max);
    let unatt = if steps.iter().all(|s| s.error.is_none()) && !steps.is_empty() {
        unattributed(&steps)
    } else {
        f64::NAN
    };
    vec![
        check(
            "steps_converged",
            failed == 0,
            format!("{failed} failed; worst final rel {worst:.2e} vs tol {tol:.0e} {first_err}"),
        ),
        check(
            "cold_step_ok",
            episodes.iter().all(|e| !e.cold_failed),
            String::new(),
        ),
        check(
            "fields_finite",
            episodes.iter().all(|e| e.finite),
            String::new(),
        ),
        check(
            "ranks_agree",
            episodes.iter().all(|e| e.ranks_agree),
            "replicated fields identical on every rank".into(),
        ),
        check(
            "episodes_bitwise_identical",
            // Episodes of equal length are replicas of one computation.
            episodes.iter().all(|e| {
                episodes
                    .iter()
                    .all(|o| o.steps.len() != e.steps.len() || o.checksum == e.checksum)
            }),
            format!(
                "{:016x} over {} episode(s)",
                episodes[0].checksum,
                episodes.len()
            ),
        ),
        check(
            "wake_deficit",
            wake < cfg.physics.u_inflow,
            format!(
                "mean rotor u_x after step 0 = {wake:.4} < {}",
                cfg.physics.u_inflow
            ),
        ),
        check(
            "timings_reconcile",
            unatt.abs() <= MAX_UNATTRIBUTED,
            format!("median 1 - sum(timings)/wall = {unatt:.4} (limit {MAX_UNATTRIBUTED})"),
        ),
    ]
}

fn iters_per_step(steps: &[&Step]) -> Vec<Measurement> {
    ["momentum", "continuity", "scalar"]
        .iter()
        .map(|eq| {
            let total: usize = steps
                .iter()
                .map(|s| s.iters.get(*eq).copied().unwrap_or(0))
                .sum();
            (eq.to_string(), total as f64 / steps.len().max(1) as f64)
        })
        .collect()
}

fn episode_line(label: &str, e: &Episode) -> String {
    let timed = if e.steps.is_empty() {
        "set-up only".to_string()
    } else {
        format!(
            "{} timed steps, median {:.4} s",
            e.steps.len(),
            median_of(&e.steps, |s| s.wall_s)
        )
    };
    format!(
        "episode {label}: setup {:.4} s (generate {:.4} + comm start {:.4} + sim new {:.4} + cold step {:.4}), {timed}",
        e.setup_s(),
        e.generate_s,
        e.comm_start_s,
        e.sim_new_s,
        e.cold_step_s
    )
}

fn steps_of(opts: &RunOpts) -> usize {
    if opts.smoke {
        SMOKE_STEPS
    } else {
        STEPS_PER_EPISODE
    }
}

fn config_of(w: &Workload, opts: &RunOpts, telemetry: bool) -> SolverConfig {
    let mut cfg = w.solver_config(opts.seed, telemetry);
    if let Some(tweak) = opts.tweak {
        tweak(&mut cfg);
    }
    cfg
}

/// The telemetry-off run: a closed loop of episodes, one after another.
fn run_untraced(w: Workload, opts: &RunOpts) -> RunResult {
    let cfg = config_of(&w, opts, false);
    let steps = steps_of(opts);
    let mut spans = Spans::new(false);
    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut peak_rss = f64::NAN;
    loop {
        let t0 = Instant::now();
        episodes.push(run_episode(&w, &cfg, &Plan::steps(steps), &mut spans));
        if episodes.len() == 1 {
            // What one episode needs in a fresh process. Later episodes
            // only add what malloc arenas of joined rank threads retain,
            // which varies run to run and is the harness's doing.
            peak_rss = peak_rss_mib();
        }
        let next_ends = started.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64();
        if episodes.len() >= w.episodes || next_ends > opts.seconds {
            break;
        }
    }
    let measured = episodes.len();
    // Set-up repeats for the median; these episodes time no step.
    while episodes.len() < MIN_SETUPS && !opts.smoke {
        episodes.push(run_episode(&w, &cfg, &Plan::steps(0), &mut spans));
    }
    let walls: Vec<f64> = all_steps(&episodes).iter().map(|s| s.wall_s).collect();
    let p10 = percentile(&walls, 10.0);
    let t = tail(&walls);
    let nodes = episodes[0].nodes;
    let setup = median(&episodes.iter().map(Episode::setup_s).collect::<Vec<f64>>());
    let values = [
        p10,
        p10 * 1e9 / (DOF_PER_NODE * nodes * cfg.picard_iters) as f64,
        setup,
        peak_rss,
    ];
    let mean = walls.iter().sum::<f64>() / walls.len() as f64;
    let reported = [median(&walls), t.value, mean];
    RunResult {
        workload: w.name,
        seed: opts.seed,
        trace: false,
        nodes,
        episodes: measured,
        step_walls: walls,
        tail_percentile: t.percentile,
        attempted: episodes.iter().map(|e| e.attempted).sum(),
        failed: episodes.iter().map(|e| e.failed_steps(w.tolerance())).sum(),
        checksum: episodes[0].checksum,
        iters_per_step: iters_per_step(&all_steps(&episodes)),
        episode_lines: episodes
            .iter()
            .enumerate()
            .map(|(k, e)| episode_line(&k.to_string(), e))
            .collect(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name.to_string(), v))
            .collect(),
        reported: REPORTED
            .iter()
            .zip(reported)
            .map(|(d, v)| (d.name.to_string(), v))
            .collect(),
        checks: common_checks(&w, &cfg, &episodes.iter().collect::<Vec<_>>()),
    }
}

fn label_of(phase: Phase) -> &'static str {
    match phase {
        Phase::GraphPhysics => "graph_physics",
        Phase::LocalAssembly => "local_assembly",
        Phase::GlobalAssembly => "global_assembly",
        Phase::PrecondSetup => "precond_setup",
        Phase::Solve => "solve",
    }
}

fn median_of(steps: &[Step], f: impl Fn(&Step) -> f64) -> f64 {
    median(&steps.iter().map(f).collect::<Vec<f64>>())
}

/// First timed step (1-based) whose momentum iterations exceed
/// `STABLE_GROWTH`× step 1's or that errs; the cap if there is none.
fn stable_steps(w: &Workload, opts: &RunOpts) -> f64 {
    let (scale, cap) = if opts.smoke {
        (SMOKE_SCALE, 3)
    } else {
        (STABLE_SCALE, STABLE_CAP)
    };
    let probe = Workload {
        scale,
        transport: TransportKind::Inproc,
        ..*w
    };
    let past_horizon = |steps: &[Step]| {
        let (first, last) = (&steps[0], &steps[steps.len() - 1]);
        let iters = |s: &Step| s.iters.get("momentum").copied().unwrap_or(0);
        last.error.is_some() || iters(last) > STABLE_GROWTH * iters(first)
    };
    let plan = Plan {
        stop: &past_horizon,
        ..Plan::steps(cap)
    };
    let ep = run_episode(
        &probe,
        &config_of(&probe, opts, false),
        &plan,
        &mut Spans::new(false),
    );
    if !ep.steps.is_empty() && past_horizon(&ep.steps) {
        ep.steps.len() as f64
    } else {
        cap as f64
    }
}

/// What the traced episode itself says about each layer: the phase cells
/// of `StepReport.timings` and the exact counts of `Rank::trace_snapshot`.
fn episode_layer_metrics(w: &Workload, on: &Episode, put: &mut impl FnMut(&str, f64)) {
    let n = on.steps.len().max(1) as f64;
    let steps: Vec<&Step> = on.steps.iter().collect();
    let clean = !steps.is_empty() && steps.iter().all(|s| s.error.is_none());
    let when_clean = |v: &dyn Fn() -> f64| if clean { v() } else { f64::NAN };

    // core: the per-equation, per-phase cells and what they leave over.
    for def in PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("core.") && d.name.matches('.').count() == 2)
    {
        let (eq, cell) = def.name["core.".len()..]
            .split_once('.')
            .expect("core.<eq>.<phase>_s");
        let phase = Phase::ALL
            .into_iter()
            .find(|p| cell == format!("{}_s", label_of(*p)))
            .expect("a phase label");
        put(
            def.name,
            when_clean(&|| median_of(&on.steps, |s| s.timing(eq, phase))),
        );
    }
    put(
        "core.unattributed_frac",
        when_clean(&|| unattributed(&steps)),
    );
    put("core.sim_new_s", on.sim_new_s);
    put("core.cold_step_s", on.cold_step_s);

    // krylov: exact iteration counts and what one iteration costs.
    for (eq, per_step) in iters_per_step(&steps) {
        put(&format!("krylov.gmres_iters_per_step.{eq}"), per_step);
    }
    let s_per_iter = |s: &Step| s.timing("continuity", Phase::Solve) / s.iters["continuity"] as f64;
    put(
        "krylov.continuity_s_per_iter",
        when_clean(&|| median_of(&on.steps, s_per_iter)),
    );

    // parcomm / sparse: counts are sums over ranks, clocks a mean over ranks.
    let c = on.counts;
    put("parcomm.msgs_per_step", c.msgs as f64 / n);
    put("parcomm.msg_bytes_per_step", c.msg_bytes as f64 / n);
    put("parcomm.collectives_per_step", c.collectives as f64 / n);
    put(
        "parcomm.collective_bytes_per_step",
        c.collective_bytes as f64 / n,
    );
    put("parcomm.wait_s_per_step", c.wait_s / n / w.ranks as f64);
    put(
        "parcomm.transfer_s_per_step",
        c.transfer_s / n / w.ranks as f64,
    );
    put(
        "sparse.kernel_launches_per_step",
        c.kernel_launches as f64 / n,
    );
    put("sparse.kernel_bytes_per_step", c.kernel_bytes as f64 / n);
    put(
        "sparse.flops_per_byte",
        c.kernel_flops as f64 / c.kernel_bytes as f64,
    );

    put("windmesh.generate_s", on.generate_s);
    put("windmesh.receptors", on.receptors as f64);
    let nnz: Vec<f64> = on.pressure_nnz.iter().map(|&x| x as f64).collect();
    put(
        "meshpart.nnz_imbalance",
        nnz.iter().copied().fold(0.0, f64::max) / (nnz.iter().sum::<f64>() / nnz.len() as f64),
    );
    let n_events: usize = on.events.iter().map(Vec::len).sum();
    put("telemetry.events_per_step", n_events as f64 / (n + 1.0));
}

/// The traced run: one short telemetry-off reference episode, one episode
/// with telemetry on and the benchmark's spans around every call, then
/// the probes.
fn run_traced(w: Workload, opts: &RunOpts) -> RunResult {
    let steps = steps_of(opts);
    let calls = if opts.smoke {
        ProbeCalls::SMOKE
    } else {
        ProbeCalls::FULL
    };
    let cfg_on = config_of(&w, opts, true);
    // The reference needs only enough steps for a median and a checksum.
    let ref_steps = REFERENCE_STEPS.min(steps);
    let off = run_episode(
        &w,
        &config_of(&w, opts, false),
        &Plan::steps(ref_steps),
        &mut Spans::new(false),
    );

    let scratch = opts
        .out_dir
        .join(format!("ckpt-probe-{}", std::process::id()));
    let mut spans = Spans::new(true);
    spans.episode = 1;
    let probe = |rank: &Rank, sim: &Simulation, sp: &mut Spans| {
        probes::in_communicator(rank, sim, sp, &cfg_on, calls, &scratch)
    };
    let plan = Plan {
        probe: Some(&probe),
        checksum_after: Some(ref_steps),
        ..Plan::steps(steps)
    };
    let on = run_episode(&w, &cfg_on, &plan, &mut spans);
    let _ = std::fs::remove_dir_all(&scratch);

    let mut m: Vec<Measurement> = on.probes.clone();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));
    episode_layer_metrics(&w, &on, &mut put);
    put("core.stable_steps", stable_steps(&w, opts));

    // core: what the same mesh costs on one rank, without any messages.
    let p50 = |steps: &[Step]| median_of(steps, |s| s.wall_s);
    let step_r1 = if w.ranks == 1 {
        p50(&on.steps)
    } else {
        let single = Workload {
            ranks: 1,
            transport: TransportKind::Inproc,
            ..w
        };
        let r1_steps = if opts.smoke { 1 } else { R1_STEPS };
        let ep = run_episode(
            &single,
            &config_of(&single, opts, false),
            &Plan::steps(r1_steps),
            &mut Spans::new(false),
        );
        p50(&ep.steps)
    };
    put("core.step_r1_s", step_r1);
    put(
        "core.strong_scaling_eff",
        step_r1 / (w.ranks as f64 * p50(&on.steps)),
    );

    // telemetry: what observing costs, like for like on the same first
    // steps with telemetry on and off; and what reading the stream costs.
    put(
        "telemetry.overhead_frac",
        p50(&on.steps[..ref_steps.min(on.steps.len())]) / p50(&off.steps) - 1.0,
    );
    let report_calls = if opts.smoke { 1 } else { 5 };
    let report_s: Vec<f64> = (0..report_calls)
        .map(|_| {
            let streams = on.events.clone();
            let report = || {
                let merged = telemetry::merge_ranks(streams);
                std::hint::black_box(telemetry::Report::from_events(&merged));
            };
            spans.time("telemetry.report", report).1
        })
        .collect();
    put("telemetry.report_s", median(&report_s));

    // parcomm transports and the machine's bandwidth, on their own.
    let probe_span = spans.open("probe");
    for kind in [TransportKind::Inproc, TransportKind::Socket] {
        probes::transport(kind, &mut spans, calls)
            .into_iter()
            .for_each(|(name, v)| put(&name, v));
    }
    let (stream_gbs, _) = spans.time("machine.stream_triad", machine::measure_stream_gbs);
    spans.close(probe_span);
    put("machine.stream_triad_gbs", stream_gbs);
    let spmv_gbs = on
        .probes
        .iter()
        .find(|p| p.0 == "distmat.spmv_gbs_computed")
        .map_or(f64::NAN, |p| p.1);
    put("distmat.spmv_frac_of_stream", spmv_gbs / stream_gbs);

    // Order by the table; a metric nobody produced reads NaN and fails.
    let value = |name: &str| m.iter().find(|x| x.0 == name).map_or(f64::NAN, |x| x.1);
    let metrics: Vec<Measurement> = PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), value(d.name)))
        .collect();

    let mut checks = common_checks(&w, &cfg_on, &[&off, &on]);
    // The two episodes differ in length; the bitwise check is the next one.
    checks.retain(|c| c.name != "episodes_bitwise_identical");
    checks.push(check(
        "traced_bitwise_identical",
        Some(off.checksum) == on.early_checksum,
        format!(
            "after step {ref_steps}: telemetry off {:016x} vs traced {:016x}",
            off.checksum,
            on.early_checksum.unwrap_or(0)
        ),
    ));
    let rebuilt =
        value("krylov.gmres_iters_per_step.continuity") * value("krylov.continuity_s_per_iter");
    let solve_p50 = value("core.continuity.solve_s");
    checks.push(check(
        "solve_reconciles",
        (rebuilt / solve_p50 - 1.0).abs() <= 0.10,
        format!("iters/step x s/iter = {rebuilt:.4} vs continuity.solve_s {solve_p50:.4}"),
    ));
    let missing: Vec<&str> = metrics
        .iter()
        .filter(|x| !x.1.is_finite())
        .map(|x| x.0.as_str())
        .collect();
    checks.push(check(
        "every_metric_measured",
        missing.is_empty(),
        missing.join(" "),
    ));

    write_traces(&w, &cfg_on, opts, &spans, &on);
    RunResult {
        workload: w.name,
        seed: opts.seed,
        trace: true,
        nodes: on.nodes,
        episodes: 2,
        step_walls: on.steps.iter().map(|s| s.wall_s).collect(),
        tail_percentile: 50.0,
        attempted: off.attempted + on.attempted,
        failed: off.failed_steps(w.tolerance()) + on.failed_steps(w.tolerance()),
        checksum: on.checksum,
        iters_per_step: iters_per_step(&all_steps([&on])),
        episode_lines: vec![
            episode_line("telemetry off", &off),
            episode_line("traced", &on),
        ],
        metrics,
        reported: Vec::new(),
        checks,
    }
}

/// Spans as JSONL, and the merged telemetry stream beside them (loadable
/// by `exawind-perf report` / `trace`).
fn write_traces(w: &Workload, cfg: &SolverConfig, opts: &RunOpts, spans: &Spans, on: &Episode) {
    let header = Event::Run {
        ranks: w.ranks,
        threads: 1,
        transport: w.transport.label().into(),
        kernel_policy: cfg.kernels.label().into(),
        git_commit: telemetry::git_commit(),
        clock_offsets: on.clock.as_ref().map(|c| c.0.clone()),
        clock_rtts: on.clock.as_ref().map(|c| c.1.clone()),
    };
    let mut stream = vec![header];
    stream.extend(telemetry::merge_ranks(on.events.clone()));
    let base = opts.out_dir.join(w.name);
    let spans_path = base.with_extension("spans.jsonl");
    let tel_path = base.with_extension("telemetry.jsonl");
    let written = std::fs::write(&spans_path, spans.to_jsonl())
        .and_then(|()| telemetry::write_jsonl(&tel_path.to_string_lossy(), &stream));
    match written {
        Ok(()) => eprintln!("wrote {} and {}", spans_path.display(), tel_path.display()),
        Err(e) => eprintln!(
            "warning: could not write traces under {}: {e}",
            opts.out_dir.display()
        ),
    }
}

/// Run `w` once in this process.
pub fn run(w: Workload, opts: &RunOpts) -> RunResult {
    let w = if opts.smoke { w.smoke() } else { w };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("warning: cannot create {}: {e}", opts.out_dir.display());
    }
    let result = if opts.trace {
        run_traced(w, opts)
    } else {
        run_untraced(w, opts)
    };
    let name = format!(
        "{}.trace{}.seed{}.json",
        w.name,
        u8::from(opts.trace),
        opts.seed
    );
    if let Err(e) = std::fs::write(
        opts.out_dir.join(name),
        result.full_json().to_string() + "\n",
    ) {
        eprintln!(
            "warning: could not write the result under {}: {e}",
            opts.out_dir.display()
        );
    }
    result
}
