//! One episode: generate mesh → start communicator → `Simulation::new`
//! → cold step 0 → N timed steps, driven only through public API.

use std::collections::BTreeMap;
use std::time::Instant;

use nalu_core::{Phase, Simulation, SolverConfig};
use parcomm::{Comm, Rank, Trace};
use resilience::checkpoint::fnv64;

use crate::spans::Spans;
use crate::workload::{Workload, CASE};

/// What one rank saw of one `try_step`.
#[derive(Clone, Debug)]
pub struct Step {
    /// Wall seconds of the `try_step` call.
    pub wall_s: f64,
    /// `StepReport.timings` as `(equation, phase, seconds)`; empty if the
    /// step returned `Err`.
    pub timings: Vec<(String, Phase, f64)>,
    pub iters: BTreeMap<String, usize>,
    pub max_final_rel: f64,
    pub recoveries: usize,
    pub error: Option<String>,
}

impl Step {
    /// A step counts as failed when it returned `Err`, walked the
    /// recovery ladder, or ended above the tolerance (which is how a
    /// solve that ran into `gmres_max_iters` shows from outside).
    pub fn failed(&self, tolerance: f64) -> bool {
        self.error.is_some()
            || self.recoveries > 0
            || self.max_final_rel.is_nan()
            || self.max_final_rel > tolerance
    }

    pub fn timings_total(&self) -> f64 {
        self.timings.iter().map(|t| t.2).sum()
    }

    pub fn timing(&self, eq: &str, phase: Phase) -> f64 {
        self.timings
            .iter()
            .filter(|t| t.0 == eq && t.1 == phase)
            .map(|t| t.2)
            .sum()
    }
}

fn timed_step(sim: &mut Simulation, rank: &Rank) -> Step {
    let t0 = Instant::now();
    let out = sim.try_step(rank);
    let wall_s = t0.elapsed().as_secs_f64();
    match out {
        Ok(rep) => Step {
            wall_s,
            timings: rep
                .timings
                .iter()
                .map(|(eq, ph, s)| (eq.to_string(), ph, s))
                .collect(),
            max_final_rel: rep.max_final_rel(),
            recoveries: rep.recoveries.len(),
            iters: rep.gmres_iters,
            error: None,
        },
        Err(e) => Step {
            wall_s,
            timings: Vec::new(),
            iters: BTreeMap::new(),
            max_final_rel: f64::NAN,
            recoveries: 0,
            error: Some(e.to_string()),
        },
    }
}

/// Exact operation counts of the timed steps (sum over ranks).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub msgs: u64,
    pub msg_bytes: u64,
    pub collectives: u64,
    pub collective_bytes: u64,
    pub kernel_launches: u64,
    pub kernel_bytes: u64,
    pub kernel_flops: u64,
    /// Populated only with telemetry on.
    pub wait_s: f64,
    pub transfer_s: f64,
}

impl Counts {
    fn between(a: &Trace, b: &Trace) -> Counts {
        Counts {
            msgs: b.msgs - a.msgs,
            msg_bytes: b.msg_bytes - a.msg_bytes,
            collectives: b.collectives - a.collectives,
            collective_bytes: b.collective_bytes - a.collective_bytes,
            kernel_launches: b.kernel_launches - a.kernel_launches,
            kernel_bytes: b.kernel_bytes - a.kernel_bytes,
            kernel_flops: b.kernel_flops - a.kernel_flops,
            wait_s: b.wait_secs - a.wait_secs,
            transfer_s: b.transfer_secs - a.transfer_secs,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.msgs += o.msgs;
        self.msg_bytes += o.msg_bytes;
        self.collectives += o.collectives;
        self.collective_bytes += o.collective_bytes;
        self.kernel_launches += o.kernel_launches;
        self.kernel_bytes += o.kernel_bytes;
        self.kernel_flops += o.kernel_flops;
        self.wait_s += o.wait_s;
        self.transfer_s += o.transfer_s;
    }
}

/// A named measurement a probe returns.
pub type Measurement = (String, f64);

/// Probe hook run on every rank inside the episode's communicator, after
/// the timed steps (so it sees the operators of the same mesh, ranks and
/// transport) and after the counters were read.
pub type ProbeFn<'a> = &'a (dyn Fn(&Rank, &Simulation, &mut Spans) -> Vec<Measurement> + Sync);

struct RankOut {
    entered: Instant,
    sim_new_s: f64,
    cold: Step,
    steps: Vec<Step>,
    counts: Counts,
    checksum: u64,
    early_checksum: Option<u64>,
    finite: bool,
    wake_u: f64,
    pressure_nnz: usize,
    events: Vec<telemetry::Event>,
    clock: Option<(Vec<f64>, Vec<f64>)>,
    spans: Spans,
    probes: Vec<Measurement>,
}

/// One finished episode, merged over ranks.
#[derive(Clone, Debug)]
pub struct Episode {
    pub nodes: usize,
    pub receptors: usize,
    pub generate_s: f64,
    pub comm_start_s: f64,
    /// Max over ranks.
    pub sim_new_s: f64,
    /// Max over ranks of the cold step 0 wall.
    pub cold_step_s: f64,
    pub cold_failed: bool,
    /// Timed steps as the slowest rank of each step saw them (step time =
    /// max over ranks of that rank's `try_step` wall).
    pub steps: Vec<Step>,
    /// Timed steps that were planned (a step skipped because an earlier
    /// one returned `Err` still counts as attempted, and failed).
    pub attempted: usize,
    pub counts: Counts,
    /// FNV-1a of the final `vel`, `p`, `nut` bits of every mesh.
    pub checksum: u64,
    /// The same hash after `Plan::checksum_after` timed steps.
    pub early_checksum: Option<u64>,
    /// Every rank holds the same replicated fields.
    pub ranks_agree: bool,
    pub finite: bool,
    /// Mean axial velocity through the rotor mesh after the cold step.
    pub wake_u: f64,
    /// Pressure-matrix nonzeros per rank (Figs. 5/10).
    pub pressure_nnz: Vec<usize>,
    /// Per-rank telemetry streams (empty with telemetry off).
    pub events: Vec<Vec<telemetry::Event>>,
    pub clock: Option<(Vec<f64>, Vec<f64>)>,
    pub probes: Vec<Measurement>,
}

impl Episode {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.comm_start_s + self.sim_new_s + self.cold_step_s
    }

    pub fn failed_steps(&self, tolerance: f64) -> usize {
        let ran = self.steps.iter().filter(|s| s.failed(tolerance)).count();
        ran + (self.attempted - self.steps.len())
    }
}

fn field_checksum(sim: &Simulation) -> (u64, bool) {
    let mut bytes = Vec::new();
    let mut finite = true;
    let mut push = |x: f64| {
        finite &= x.is_finite();
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    };
    for m in 0..sim.n_meshes() {
        let st = sim.state(m);
        st.vel.iter().flatten().copied().for_each(&mut push);
        st.p.iter().copied().for_each(&mut push);
        st.nut.iter().copied().for_each(&mut push);
    }
    (fnv64(&bytes), finite)
}

/// Mean axial velocity over the rotor meshes: below the inflow speed
/// once the actuator disc has taken momentum out of the flow.
fn rotor_mean_velocity(sim: &Simulation) -> f64 {
    let rotor_nodes = || (1..sim.n_meshes()).flat_map(|m| &sim.state(m).vel);
    rotor_nodes().map(|v| v[0]).sum::<f64>() / rotor_nodes().count() as f64
}

/// Decides, from the timed steps so far, whether the episode ends early.
/// Every rank evaluates it on collectively identical data (errors and
/// iteration counts), so all ranks stop together.
pub type StopFn<'a> = &'a (dyn Fn(&[Step]) -> bool + Sync);

/// The default [`StopFn`]: a step that returned `Err` ends the episode.
pub fn stop_on_error(steps: &[Step]) -> bool {
    steps.last().is_some_and(|s| s.error.is_some())
}

/// What to run after set-up and the cold step 0.
#[derive(Clone, Copy)]
pub struct Plan<'a> {
    /// Timed steps to attempt.
    pub steps: usize,
    pub stop: StopFn<'a>,
    pub probe: Option<ProbeFn<'a>>,
    /// Also hash the fields after this timed step (1-based), so a longer
    /// episode can be compared bitwise with a shorter one.
    pub checksum_after: Option<usize>,
}

impl Plan<'_> {
    pub fn steps(steps: usize) -> Plan<'static> {
        Plan {
            steps,
            stop: &stop_on_error,
            probe: None,
            checksum_after: None,
        }
    }
}

/// Run one episode of `w` with `cfg`: set-up, cold step 0, then the
/// timed steps of `plan`.
pub fn run_episode(w: &Workload, cfg: &SolverConfig, plan: &Plan, spans: &mut Spans) -> Episode {
    let Plan {
        steps,
        stop,
        probe,
        checksum_after,
    } = *plan;
    let ep_span = spans.open("episode");
    let (tm, generate_s) = spans.time("generate", || windmesh::turbine::generate(CASE, w.scale));
    let nodes = tm.total_nodes();
    let receptors = tm.overset.receptors.len();
    let meshes = tm.meshes;
    let parent_spans = &*spans;

    let called = Instant::now();
    let outs: Vec<RankOut> = Comm::run_with(w.transport, w.ranks, |rank| {
        let entered = Instant::now();
        let mut sp = parent_spans.for_rank(rank.rank());
        let mine = meshes.clone();
        let (mut sim, sim_new_s) = sp.time("sim_new", || Simulation::new(rank, mine, cfg.clone()));
        let (cold, _) = sp.time("step[0]", || timed_step(&mut sim, rank));
        let wake_u = rotor_mean_velocity(&sim);
        let before = rank.trace_snapshot().total();
        let mut timed = Vec::with_capacity(steps);
        let mut early_checksum = None;
        if cold.error.is_none() {
            for k in 1..=steps {
                let (s, _) = sp.time(&format!("step[{k}]"), || timed_step(&mut sim, rank));
                timed.push(s);
                if checksum_after == Some(k) {
                    early_checksum = Some(field_checksum(&sim).0);
                }
                if stop(&timed) {
                    break;
                }
            }
        }
        let counts = Counts::between(&before, &rank.trace_snapshot().total());
        let (checksum, finite) = field_checksum(&sim);
        let pressure_nnz = (0..sim.n_meshes())
            .map(|m| sim.system(m).pressure_nnz_local())
            .sum();
        let probes = probe.map_or_else(Vec::new, |p| p(rank, &sim, &mut sp));
        let clock = sim.clock_tables();
        let events = sim.finish_telemetry(rank);
        RankOut {
            entered,
            sim_new_s,
            cold,
            steps: timed,
            counts,
            checksum,
            early_checksum,
            finite,
            wake_u,
            pressure_nnz,
            events,
            clock,
            spans: sp,
            probes,
        }
    });

    let entered = outs
        .iter()
        .map(|o| o.entered)
        .max()
        .expect("at least one rank");
    let comm_start_s = entered.duration_since(called).as_secs_f64();
    spans.record("comm_start", spans.at(called), spans.at(entered));

    let max = |f: &dyn Fn(&RankOut) -> f64| outs.iter().map(f).fold(0.0, f64::max);
    let n_steps = outs[0].steps.len();
    let merged: Vec<Step> = (0..n_steps)
        .map(|k| {
            let slowest = outs
                .iter()
                .max_by(|a, b| a.steps[k].wall_s.total_cmp(&b.steps[k].wall_s))
                .expect("at least one rank");
            slowest.steps[k].clone()
        })
        .collect();
    let mut counts = Counts::default();
    outs.iter().for_each(|o| counts.add(&o.counts));

    let mut ep = Episode {
        nodes,
        receptors,
        generate_s,
        comm_start_s,
        sim_new_s: max(&|o| o.sim_new_s),
        cold_step_s: max(&|o| o.cold.wall_s),
        cold_failed: outs[0].cold.failed(w.tolerance()),
        steps: merged,
        attempted: steps,
        counts,
        checksum: outs[0].checksum,
        early_checksum: outs[0].early_checksum,
        ranks_agree: outs
            .iter()
            .all(|o| o.checksum == outs[0].checksum && o.steps.len() == n_steps),
        finite: outs.iter().all(|o| o.finite),
        wake_u: outs[0].wake_u,
        pressure_nnz: outs.iter().map(|o| o.pressure_nnz).collect(),
        events: Vec::new(),
        clock: outs[0].clock.clone(),
        probes: Vec::new(),
    };
    for (r, o) in outs.into_iter().enumerate() {
        spans.adopt(o.spans);
        ep.events.push(o.events);
        if r == 0 {
            ep.probes = o.probes;
        }
    }
    spans.close(ep_span);
    ep
}
