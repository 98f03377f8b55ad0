//! The time integrator: Picard iterations over the overset mesh system.
//!
//! Each time step performs (per §5): rotor motion + overset connectivity
//! update, graph computation for every equation system, then
//! `picard_iters` nonlinear iterations, each of which re-interpolates the
//! overset fringes (additive Schwarz) and, per mesh, assembles and solves
//! momentum (3 RHS, SGS2-preconditioned one-reduce GMRES), the
//! pressure-Poisson projection (AMG-preconditioned GMRES) followed by the
//! velocity correction, and scalar transport.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use amg::{AmgConfig, AmgPrecond};
use distmat::{ParCsr, ParVector};
use krylov::{Gmres, JacobiPrecond, OrthoStrategy, Preconditioner, Sgs2};
use parcomm::{FaultKind, FaultPlan, Rank, TransportKind};
use sparse_kit::KernelPolicy;
use resilience::checkpoint::{self, MeshCheckpoint, SolverCheckpoint};
use resilience::{guard, RecoveryAction, RecoveryPolicy, RecoveryRecord, SolveError};
use windmesh::overset::assemble_overset;
use windmesh::{Mesh, OversetAssembly};

use crate::assemble::{
    correct_velocity, fill_continuity_operator, fill_continuity_rhs, fill_momentum, fill_scalar,
    try_build_matrix, try_build_rhs, PhysicsParams,
};
use crate::dofmap::PartitionMethod;
use crate::eqsys::{EqKind, MeshSystem};
use crate::state::{overset_exchange, State};
use crate::timing::{Phase, Timings};

/// Periodic checkpoint configuration (see [`resilience::checkpoint`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointCfg {
    /// Write a checkpoint generation every `every` completed steps.
    pub every: usize,
    /// Directory holding the per-rank files and the cohort manifest.
    pub dir: PathBuf,
    /// How many times a supervisor has relaunched this cohort (0 = first
    /// launch). `kill-rank` faults only fire in incarnation 0: they
    /// model a transient external kill, not a deterministic crash bug
    /// that would defeat any restart budget.
    pub incarnation: u64,
}

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Flow model parameters.
    pub physics: PhysicsParams,
    /// Picard (nonlinear) iterations per time step — the paper uses 4.
    pub picard_iters: usize,
    /// Domain decomposition method.
    pub partition: PartitionMethod,
    /// Seed for partitioning/AMG randomness.
    pub seed: u64,
    /// GMRES restart length.
    pub gmres_restart: usize,
    /// GMRES iteration cap per solve.
    pub gmres_max_iters: usize,
    /// Orthogonalization strategy (one-reduce by default, §4.2).
    pub ortho: OrthoStrategy,
    /// Relative tolerance for the momentum/scalar solves.
    pub momentum_tol: f64,
    /// Relative tolerance for the pressure solve.
    pub pressure_tol: f64,
    /// AMG options for the pressure preconditioner.
    pub amg: AmgConfig,
    /// SGS2 inner Jacobi-Richardson sweeps (2 in the paper).
    pub sgs_inner: usize,
    /// SGS2 outer iterations (2 in the paper).
    pub sgs_outer: usize,
    /// Overset hole-cutting margin.
    pub overset_margin: f64,
    /// Record the telemetry event stream (see the `telemetry` crate);
    /// when off, recording is a no-op.
    pub telemetry: bool,
    /// Fault-injection plan for resilience testing, armed on the rank.
    /// With `None` no plan is armed and every solve is byte-for-byte the
    /// clean path.
    pub faults: Option<FaultPlan>,
    /// Escalation policy applied when a solve fails with a typed
    /// [`SolveError`].
    pub recovery: RecoveryPolicy,
    /// Transport backend the driver should run the communicator on.
    /// Consumed *outside* the rank closure — pass it to
    /// [`parcomm::Comm::run_with`]; the solver itself is
    /// transport-agnostic and produces bitwise-identical results on
    /// every backend.
    pub transport: TransportKind,
    /// SpMV storage label: always [`KernelPolicy::Auto`], i.e. CSR for
    /// every operator (see `sparse_kit::policy`).
    pub kernels: KernelPolicy,
    /// Periodic checkpointing (`None` disables). A complete generation
    /// is published every `every` steps; [`Simulation::resume`] restores
    /// the newest one bitwise-exactly.
    pub checkpoint: Option<CheckpointCfg>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            physics: PhysicsParams::default(),
            picard_iters: 4,
            partition: PartitionMethod::Multilevel,
            seed: 0xE1A,
            gmres_restart: 50,
            gmres_max_iters: 200,
            ortho: OrthoStrategy::OneReduce,
            momentum_tol: 1e-6,
            pressure_tol: 1e-5,
            amg: AmgConfig::pressure_default(),
            sgs_inner: 2,
            sgs_outer: 2,
            overset_margin: 0.18,
            telemetry: false,
            faults: None,
            recovery: RecoveryPolicy::default(),
            transport: TransportKind::Inproc,
            kernels: KernelPolicy::Auto,
            checkpoint: None,
        }
    }
}

/// Summary of one time step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Wall-clock seconds of the nonlinear iterations (the NLI metric of
    /// Figures 3/8/9/11).
    pub nli_seconds: f64,
    /// GMRES iterations accumulated per equation system this step.
    pub gmres_iters: BTreeMap<String, usize>,
    /// Per-equation, per-phase wall-clock of this step.
    pub timings: Timings,
    /// Recovery attempts walked this step (empty on a clean step).
    pub recoveries: Vec<RecoveryRecord>,
    /// Final GMRES relative residual per equation for the most recent
    /// solve of this step (momentum: last velocity component).
    pub final_rels: BTreeMap<String, f64>,
}

impl StepReport {
    /// Worst (max) final relative residual over all equations solved
    /// this step; 0.0 when nothing was solved. Feeds a launched worker's
    /// progress record.
    pub fn max_final_rel(&self) -> f64 {
        self.final_rels.values().copied().fold(0.0, f64::max)
    }
}

/// Per-attempt modifications applied while walking the recovery ladder.
/// The clean path uses `AttemptMods::default()`.
#[derive(Clone, Copy, Debug)]
struct AttemptMods {
    /// Swap the configured preconditioner for the cheaper fallback
    /// smoother (SGS2 → Jacobi-Richardson, AMG → SGS2).
    fallback_smoother: bool,
    /// Multiplier on the physics time step for this attempt.
    dt_scale: f64,
}

impl Default for AttemptMods {
    fn default() -> Self {
        AttemptMods { fallback_smoother: false, dt_scale: 1.0 }
    }
}

/// What preconditions one solve attempt, holding the operator GMRES runs
/// against: the assembled matrix moves in, so it exists once. (One lives
/// on the stack per attempt, so its variants may differ in size.)
#[allow(clippy::large_enum_variant)]
enum AttemptPrecond {
    /// The pressure AMG preconditioner, cached or set up by the attempt;
    /// the operator is level 0 of its hierarchy.
    Amg(AmgPrecond),
    /// Compact SGS2 over the operator it owns: the transport smoother,
    /// and the recovery ladder's demotion of the pressure AMG.
    Sgs2(Sgs2),
    /// The recovery ladder's Jacobi-Richardson demotion of the transport
    /// SGS2.
    Jacobi(ParCsr, JacobiPrecond),
}

impl AttemptPrecond {
    /// `(operator, preconditioner)` for GMRES.
    fn parts(&self) -> (&ParCsr, &dyn Preconditioner) {
        match self {
            AttemptPrecond::Amg(amg) => (amg.operator(), amg),
            AttemptPrecond::Sgs2(sgs) => (sgs.operator(), sgs),
            AttemptPrecond::Jacobi(a, jacobi) => (a, jacobi),
        }
    }

    /// The solve phase of an attempt: `gmres` on each right-hand side of
    /// `bs`, from the initial guess `guess(c)` of component `c`, against
    /// the operator this holds. Returns the solutions gathered to full
    /// (serial) vectors, the summed iterations and the last relative
    /// residual; the caller commits them. The gather is part of the
    /// phase, so its allgather is priced as solve traffic.
    fn solve_gathered(
        &self,
        rank: &Rank,
        t: &mut Timings,
        eq: &str,
        gmres: &Gmres,
        bs: &[ParVector],
        mut guess: impl FnMut(usize) -> ParVector,
    ) -> Result<(Vec<Vec<f64>>, usize, f64), SolveError> {
        let (a, apply) = self.parts();
        Simulation::phased(rank, t, eq, Phase::Solve, || {
            let mut full = Vec::with_capacity(bs.len());
            let (mut iters, mut rel) = (0, 0.0);
            for (c, b) in bs.iter().enumerate() {
                let mut x = guess(c);
                let stats = gmres.solve(rank, a, b, &mut x, apply)?;
                iters += stats.iters;
                rel = stats.rel_residual;
                full.push(x.to_serial(rank));
            }
            Ok((full, iters, rel))
        })
    }
}

/// A running simulation on one rank.
pub struct Simulation {
    cfg: SolverConfig,
    meshes: Vec<Mesh>,
    states: Vec<State>,
    overset: OversetAssembly,
    systems: Vec<MeshSystem>,
    /// Final GMRES relative residual per equation, refreshed each solve.
    final_rels: BTreeMap<String, f64>,
    step_count: usize,
    /// Newest complete checkpoint this rank wrote or restored from:
    /// `(generation, step)`.
    last_ckpt: Option<(u64, u64)>,
    /// Clock-alignment table from the startup anchor allgather,
    /// identical on every rank (`None` with telemetry off). Rank 0
    /// records it in the stream's `run` event so trace merging can align
    /// timestamps.
    clock: Option<parcomm::ClockSync>,
    /// Solver-health degradation detector, fed once per completed step.
    /// Pure arithmetic over collectively identical solver outputs, so it
    /// runs whether or not telemetry records the results.
    health: telemetry::health::HealthDetector,
    /// Shape of the hierarchy behind the most recent AMG-preconditioned
    /// pressure solve, freshly set up or cached:
    /// `(levels, grid complexity, operator complexity)`.
    last_amg: Option<(u64, f64, f64)>,
}

impl Simulation {
    /// Build a simulation over `meshes` (mesh 0 = background). Overset
    /// connectivity is assembled here when there are component meshes.
    /// Collective (partitioning is deterministic and replicated).
    pub fn new(rank: &Rank, mut meshes: Vec<Mesh>, cfg: SolverConfig) -> Simulation {
        let overset = if meshes.len() > 1 {
            assemble_overset(&mut meshes, cfg.overset_margin)
        } else {
            OversetAssembly::default()
        };
        let me = rank.rank();
        let systems: Vec<MeshSystem> = meshes
            .iter()
            .map(|m| MeshSystem::new(m, rank.size(), cfg.partition, cfg.seed, me))
            .collect();
        let states: Vec<State> = meshes
            .iter()
            .map(|m| {
                State::cold_start(m.n_nodes(), cfg.physics.u_inflow, cfg.physics.nut_inflow)
            })
            .collect();
        // The rank's recorder and fault plan are this simulation's,
        // replacing whatever an earlier simulation on the rank left.
        rank.set_telemetry(if cfg.telemetry {
            telemetry::Telemetry::enabled(me)
        } else {
            telemetry::Telemetry::disabled()
        });
        // Startup clock alignment: one allgather of the epochs'
        // wall-clock anchors (collective; skips itself — no clock read,
        // no message — with telemetry off).
        let clock = rank.clock_sync();
        rank.arm_faults(cfg.faults.clone());
        Simulation {
            cfg,
            meshes,
            states,
            overset,
            systems,
            final_rels: BTreeMap::new(),
            step_count: 0,
            last_ckpt: None,
            clock,
            health: telemetry::health::HealthDetector::new(),
            last_amg: None,
        }
    }

    /// The startup clock-alignment table as `(offsets, rtts)`, the shape
    /// `telemetry::run_info` takes. `None` with telemetry off.
    pub fn clock_tables(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        self.clock.clone().map(parcomm::ClockSync::into_tables)
    }

    /// Most recent solver-health degradation verdict, for status lines
    /// and a launched worker's progress record. `None` while the
    /// detector is quiet.
    pub fn last_health_verdict(&self) -> Option<&telemetry::health::Verdict> {
        self.health.last_verdict()
    }

    /// Finish telemetry recording: take the recorder back from the rank
    /// (leaving it disabled), convert the rank's accumulated perf trace
    /// into `phase_perf` events, and drain the event stream. Returns an
    /// empty vec when telemetry is off. Call once, after the last
    /// [`Simulation::step`].
    pub fn finish_telemetry(&self, rank: &Rank) -> Vec<telemetry::Event> {
        let tel = rank.set_telemetry(telemetry::Telemetry::disabled());
        if !tel.is_enabled() {
            return Vec::new();
        }
        for ev in rank.telemetry_events() {
            tel.record(ev);
        }
        tel.finish()
    }

    /// Number of meshes.
    pub fn n_meshes(&self) -> usize {
        self.meshes.len()
    }

    /// State of a mesh.
    pub fn state(&self, m: usize) -> &State {
        &self.states[m]
    }

    /// Mesh accessor.
    pub fn mesh(&self, m: usize) -> &Mesh {
        &self.meshes[m]
    }

    /// Per-mesh systems (partition statistics etc.).
    pub fn system(&self, m: usize) -> &MeshSystem {
        &self.systems[m]
    }

    fn phased<R>(
        rank: &Rank,
        t: &mut Timings,
        eq: &str,
        ph: Phase,
        f: impl FnOnce() -> R,
    ) -> R {
        let label = ph.trace_label(eq);
        // Span path e.g. "timestep/picard/continuity/solve": events
        // emitted by the solver layers (GMRES, AMG) read the equation
        // back as the second-to-last segment.
        let tel = rank.telemetry();
        let _eq_span = tel.span(eq);
        let _ph_span = tel.span(ph.label());
        t.time(eq, ph, || rank.with_phase(&label, f))
    }

    /// Advance one time step. Collective. Panics if a solve fails and the
    /// recovery ladder is exhausted — use [`Simulation::try_step`] to
    /// handle that case.
    pub fn step(&mut self, rank: &Rank) -> StepReport {
        self.try_step(rank)
            .unwrap_or_else(|e| panic!("time step failed beyond recovery: {e}"))
    }

    /// Advance one time step. Collective. A solve failure walks the
    /// configured recovery ladder (fresh rebuild → fallback smoother →
    /// timestep cut); only a failure that survives every rung is returned
    /// as an error. All error branches derive from collectively consistent
    /// conditions, so every rank returns the same result.
    pub fn try_step(&mut self, rank: &Rank) -> Result<StepReport, SolveError> {
        let start = Instant::now();
        let mut t = Timings::new();
        let mut iters: BTreeMap<String, usize> = BTreeMap::new();
        let mut recoveries: Vec<RecoveryRecord> = Vec::new();
        let me = rank.rank();
        let tel = rank.telemetry();
        let _step_span = tel.span("timestep");

        // Deterministic process-death fault (`kill-rank@rankN:k`): fires
        // at the top of a step, so the newest complete checkpoint
        // generation predates the killed step. The occurrence counter
        // advances in every incarnation (keeping restored counter state
        // aligned across ranks), but the abort itself is suppressed once
        // the supervisor has relaunched the cohort — the fault models a
        // transient external kill, not a deterministic crash bug that
        // would defeat any restart budget.
        if rank.fault(FaultKind::KillRank)
            && self.cfg.checkpoint.as_ref().map_or(0, |c| c.incarnation) == 0
        {
            eprintln!(
                "exawind: kill-rank fault fired on rank {me} at step {}: aborting process",
                self.step_count
            );
            std::process::abort();
        }

        // --- Mesh motion + overset connectivity update ------------------
        if self.meshes.len() > 1 {
            Self::phased(rank, &mut t, "overset", Phase::GraphPhysics, || {
                self.rotate_rotors();
                self.overset = assemble_overset(&mut self.meshes, self.cfg.overset_margin);
            });
        }

        // --- Stage 1: graph computation for every system -----------------
        for (sys, mesh) in self.systems.iter_mut().zip(&self.meshes) {
            let rebuilt = Self::phased(rank, &mut t, "momentum", Phase::GraphPhysics, || {
                sys.rebuild_graphs(mesh, me)
            });
            tel.counter(if rebuilt { "graphs.rebuilt" } else { "graphs.reused" }, 1);
        }

        // --- Picard iterations -------------------------------------------
        for _ in 0..self.cfg.picard_iters {
            let _picard_span = tel.span("picard");
            Self::phased(rank, &mut t, "overset", Phase::GraphPhysics, || {
                overset_exchange(&mut self.states, &self.meshes, &self.overset);
            });
            for m in 0..self.meshes.len() {
                for eq in EqKind::ALL {
                    let its = self.solve_with_recovery(rank, m, &mut t, eq, &mut recoveries)?;
                    *iters.entry(eq.name().into()).or_insert(0) += its;
                }
            }
        }

        for st in &mut self.states {
            st.advance_time();
        }
        self.step_count += 1;
        self.maybe_checkpoint(rank)?;

        // --- Solver-health sample + degradation detector ----------------
        // Fed unconditionally: the detector is pure arithmetic over
        // collectively identical solver outputs (no clock reads), so the
        // telemetry-off path stays bitwise identical while the verdict
        // state is still available to progress records. The stream
        // carries the sample only; a reader replays the detector over it.
        let step = self.step_count - 1;
        let sample = telemetry::health::HealthSample {
            eqs: iters
                .iter()
                .map(|(eq, &its)| telemetry::EqHealthRow {
                    eq: eq.clone(),
                    iters: its as u64,
                    final_rel: self.final_rels.get(eq).copied().unwrap_or(0.0),
                })
                .collect(),
            amg_levels: self.last_amg.map_or(0, |(l, _, _)| l),
            grid_complexity: self.last_amg.map_or(0.0, |(_, g, _)| g),
            operator_complexity: self.last_amg.map_or(0.0, |(_, _, o)| o),
            recoveries: recoveries.len() as u64,
        };
        self.health.observe(step, &sample);
        if tel.is_enabled() {
            tel.record(sample.to_event(me, step));
        }

        Ok(StepReport {
            nli_seconds: start.elapsed().as_secs_f64(),
            gmres_iters: iters,
            timings: t,
            recoveries,
            final_rels: self.final_rels.clone(),
        })
    }

    /// Turn every rotor mesh by one time step's angle, `rotor_omega · dt`.
    fn rotate_rotors(&mut self) {
        let d_angle = self.cfg.physics.rotor_omega * self.cfg.physics.dt;
        for m in self.meshes.iter_mut().skip(1) {
            windmesh::motion::rotate_annulus(m, d_angle);
        }
    }

    /// Completed time steps (the step cursor a checkpoint captures).
    pub fn steps_completed(&self) -> usize {
        self.step_count
    }

    /// Newest complete checkpoint this rank wrote or restored from, as
    /// `(generation, step)`. Feeds a launched worker's progress record,
    /// so a supervisor knows where a dead rank could resume.
    pub fn last_checkpoint(&self) -> Option<(u64, u64)> {
        self.last_ckpt
    }

    /// Capture this rank's complete solver state at the current step
    /// boundary (see [`resilience::checkpoint`] for what is — and
    /// deliberately is not — serialized).
    fn capture(&self, rank: &Rank) -> SolverCheckpoint {
        SolverCheckpoint {
            step: self.step_count as u64,
            meshes: self
                .states
                .iter()
                .map(|st| MeshCheckpoint {
                    vel: st.vel.iter().flat_map(|v| v.iter().copied()).collect(),
                    vel_old: st.vel_old.iter().flat_map(|v| v.iter().copied()).collect(),
                    p: st.p.clone(),
                    dp: st.dp.clone(),
                    nut: st.nut.clone(),
                    nut_old: st.nut_old.clone(),
                })
                .collect(),
            final_rels: self
                .final_rels
                .iter()
                .map(|(k, &v)| (k.clone().into_bytes(), v))
                .collect(),
            fault_counters: rank.fault_counters(),
            // The driver keeps no SpGEMM plan store; the field is part
            // of the checkpoint format.
            amg_plans: Vec::new(),
        }
    }

    /// Write one checkpoint generation if the configured interval is
    /// due. Collective: the failure branch is allreduced, so every rank
    /// returns the same result, and that allreduce doubles as the
    /// completion fence — after it, all rank files of this generation
    /// are on disk and rank 0 may publish it to the manifest.
    fn maybe_checkpoint(&mut self, rank: &Rank) -> Result<(), SolveError> {
        let Some(ck_cfg) = self.cfg.checkpoint.clone() else {
            return Ok(());
        };
        if ck_cfg.every == 0 || !self.step_count.is_multiple_of(ck_cfg.every) {
            return Ok(());
        }
        let t0 = Instant::now();
        let me = rank.rank();
        let generation = self.step_count as u64;
        let ck = self.capture(rank);
        let (bytes, write_err) =
            match checkpoint::write_rank(&ck_cfg.dir, me, rank.size(), generation, &ck) {
                Ok(b) => (b, None),
                Err(e) => (0, Some(e)),
            };
        let failed = rank.allreduce_sum(u64::from(write_err.is_some()));
        if failed > 0 {
            return Err(SolveError::Checkpoint {
                detail: write_err.map_or_else(
                    || format!("{failed} rank(s) failed writing generation {generation}"),
                    |e| e.to_string(),
                ),
            });
        }
        // A generation exists only once the manifest names it; the
        // publish outcome is allreduced too, keeping the error branch
        // collectively consistent.
        let pub_err = if me == 0 {
            checkpoint::publish_generation(&ck_cfg.dir, rank.size(), generation).err()
        } else {
            None
        };
        let pub_failed = rank.allreduce_sum(u64::from(pub_err.is_some()));
        if pub_failed > 0 {
            return Err(SolveError::Checkpoint {
                detail: pub_err.map_or_else(
                    || format!("rank 0 failed publishing generation {generation}"),
                    |e| e.to_string(),
                ),
            });
        }
        self.last_ckpt = Some((generation, generation));
        let tel = rank.telemetry();
        tel.record(telemetry::Event::Checkpoint {
            rank: me,
            step: self.step_count,
            generation,
            bytes,
            secs: t0.elapsed().as_secs_f64(),
            t: tel.elapsed_secs(),
        });
        Ok(())
    }

    /// Resume from the newest complete checkpoint generation, restoring
    /// this rank's state **bitwise identically** to a run that was never
    /// interrupted. `Ok(None)` when checkpointing is unconfigured or no
    /// generation has been published (cold start); `Ok(Some(gen))` after
    /// a successful restore.
    ///
    /// Mesh geometry is not stored in the checkpoint: the restore
    /// replays the per-step rotor rotations on the freshly generated
    /// mesh (bit-for-bit the sequence the uninterrupted run performed —
    /// overset assembly never mutates coordinates) and reassembles the
    /// overset connectivity once. Fault-injector occurrence counters are
    /// restored so seeded fault windows keep advancing where the
    /// interrupted run left off. The cached pressure preconditioners are
    /// dropped: the first post-restore solve of each mesh assembles its
    /// operator and sets its hierarchy up afresh, bit-identical to the
    /// one the interrupted run was holding. Graphs and their assembly
    /// plans are kept as they are: they are functions of topology,
    /// partition and node tags, none of which a checkpoint carries or a
    /// restore changes.
    ///
    /// Call right after [`Simulation::new`], before the first step.
    /// Collective (every rank reads the same manifest).
    pub fn resume(&mut self, rank: &Rank) -> Result<Option<u64>, SolveError> {
        let Some(ck_cfg) = self.cfg.checkpoint.clone() else {
            return Ok(None);
        };
        let me = rank.rank();
        let Some(manifest) = checkpoint::read_manifest(&ck_cfg.dir)? else {
            return Ok(None);
        };
        if manifest.ranks != rank.size() {
            return Err(SolveError::Checkpoint {
                detail: format!(
                    "manifest is for a {}-rank cohort, this run has {}",
                    manifest.ranks,
                    rank.size()
                ),
            });
        }
        let Some(generation) = manifest.latest() else {
            return Ok(None);
        };
        let ck = checkpoint::read_rank(&ck_cfg.dir, me, rank.size(), generation)?;
        if ck.meshes.len() != self.meshes.len() {
            return Err(SolveError::Checkpoint {
                detail: format!(
                    "checkpoint has {} mesh(es), simulation has {}",
                    ck.meshes.len(),
                    self.meshes.len()
                ),
            });
        }
        for (m, (st, mk)) in self.states.iter().zip(&ck.meshes).enumerate() {
            let n = st.vel.len();
            if mk.vel.len() != 3 * n
                || mk.vel_old.len() != 3 * n
                || mk.p.len() != n
                || mk.dp.len() != n
                || mk.nut.len() != n
                || mk.nut_old.len() != n
            {
                return Err(SolveError::Checkpoint {
                    detail: format!("mesh {m} field lengths disagree with {n} nodes"),
                });
            }
        }
        for (st, mk) in self.states.iter_mut().zip(&ck.meshes) {
            for (i, v) in st.vel.iter_mut().enumerate() {
                *v = [mk.vel[3 * i], mk.vel[3 * i + 1], mk.vel[3 * i + 2]];
            }
            for (i, v) in st.vel_old.iter_mut().enumerate() {
                *v = [mk.vel_old[3 * i], mk.vel_old[3 * i + 1], mk.vel_old[3 * i + 2]];
            }
            st.p.copy_from_slice(&mk.p);
            st.dp.copy_from_slice(&mk.dp);
            st.nut.copy_from_slice(&mk.nut);
            st.nut_old.copy_from_slice(&mk.nut_old);
        }
        self.final_rels = ck
            .final_rels
            .iter()
            .map(|(name, rel)| {
                String::from_utf8(name.clone())
                    .map(|n| (n, *rel))
                    .map_err(|_| SolveError::Checkpoint {
                        detail: "final-residual equation name is not UTF-8".into(),
                    })
            })
            .collect::<Result<_, _>>()?;
        self.step_count = ck.step as usize;
        for graphs in self.systems.iter_mut().filter_map(|sys| sys.graphs.as_mut()) {
            graphs.con_precond = None;
        }
        // Replay rotor motion: one rotation per completed step, exactly
        // the calls the uninterrupted run made, then reassemble the
        // overset connectivity (a pure function of the coordinates).
        if self.meshes.len() > 1 {
            for _ in 0..ck.step {
                self.rotate_rotors();
            }
            self.overset = assemble_overset(&mut self.meshes, self.cfg.overset_margin);
        }
        rank.restore_fault_counters(&ck.fault_counters)
            .map_err(|detail| SolveError::Checkpoint { detail })?;
        self.last_ckpt = Some((generation, ck.step));
        let tel = rank.telemetry();
        tel.record(telemetry::Event::Restore {
            rank: me,
            step: ck.step as usize,
            generation,
            t: tel.elapsed_secs(),
        });
        Ok(Some(generation))
    }

    /// Run one equation solve, escalating through the recovery ladder on
    /// typed failures. Each attempt re-runs the full
    /// assemble → precondition → solve pipeline (a rebuild is therefore
    /// implicit in every retry); later rungs additionally swap in the
    /// fallback smoother and cut the attempt's time step. One `recovery`
    /// telemetry event is emitted per attempt.
    fn solve_with_recovery(
        &mut self,
        rank: &Rank,
        m: usize,
        t: &mut Timings,
        kind: EqKind,
        recoveries: &mut Vec<RecoveryRecord>,
    ) -> Result<usize, SolveError> {
        let eq = kind.name();
        let mut solve = |sim: &mut Simulation, mods: &AttemptMods| match kind {
            EqKind::Continuity => sim.try_solve_continuity(rank, m, t, mods),
            EqKind::Momentum | EqKind::Scalar => sim.try_solve_transport(rank, m, t, kind, mods),
        };
        let mut err = match solve(self, &AttemptMods::default()) {
            Ok(n) => return Ok(n),
            Err(e) => e,
        };
        let policy = self.cfg.recovery;
        let ladder = policy.ladder();
        let mut mods = AttemptMods::default();
        for (i, action) in ladder.iter().enumerate() {
            let attempt = i + 1;
            match action {
                // Every retry reassembles, and the failed attempt has
                // dropped its cached preconditioner, so the retry sets
                // up from scratch — exactly what this rung asks for.
                RecoveryAction::Rebuild => {}
                RecoveryAction::FallbackSmoother => mods.fallback_smoother = true,
                RecoveryAction::CutTimestep => mods.dt_scale *= policy.dt_cut,
            }
            match solve(self, &mods) {
                Ok(n) => {
                    recoveries.push(self.record_recovery(rank, eq, &err, *action, attempt, "recovered"));
                    return Ok(n);
                }
                Err(e) => {
                    let outcome = if attempt == ladder.len() { "failed" } else { "retry" };
                    recoveries.push(self.record_recovery(rank, eq, &err, *action, attempt, outcome));
                    err = e;
                }
            }
        }
        Err(err)
    }

    fn record_recovery(
        &mut self,
        rank: &Rank,
        eq: &str,
        fault: &SolveError,
        action: RecoveryAction,
        attempt: usize,
        outcome: &str,
    ) -> RecoveryRecord {
        let rec = RecoveryRecord {
            eq: eq.to_string(),
            step: self.step_count,
            fault: fault.kind().to_string(),
            detail: fault.to_string(),
            action: action.label().to_string(),
            attempt,
            outcome: outcome.to_string(),
        };
        rank.telemetry().record(telemetry::Event::Recovery {
            rank: rank.rank(),
            eq: rec.eq.clone(),
            step: rec.step,
            fault: rec.fault.clone(),
            action: rec.action.clone(),
            attempt: rec.attempt,
            outcome: rec.outcome.clone(),
        });
        rec
    }

    /// Allreduced finite scan of `eq`'s assembled system (`a` is `None`
    /// when the operator was not assembled this attempt): every rank sees
    /// the same global count of non-finite coefficients, so the error
    /// branch is collectively consistent. The scan runs after the
    /// global-assembly scope has closed, so the error names that phase
    /// itself.
    fn check_system_finite(
        rank: &Rank,
        eq: &str,
        a: Option<&ParCsr>,
        rhs: &[&ParVector],
    ) -> Result<(), SolveError> {
        let mut local = a.map_or(0, |a| {
            guard::count_nonfinite(a.diag.vals()) + guard::count_nonfinite(a.offd.vals())
        });
        for b in rhs {
            local += guard::count_nonfinite(&b.local);
        }
        let bad = rank.allreduce_sum(local);
        if bad > 0 {
            return Err(SolveError::NonFiniteCoefficient {
                context: Phase::GlobalAssembly.trace_label(eq),
                count: bad,
            });
        }
        Ok(())
    }

    fn make_gmres(cfg: &SolverConfig, tol: f64) -> Gmres {
        Gmres {
            restart: cfg.gmres_restart,
            max_iters: cfg.gmres_max_iters,
            tol,
            ortho: cfg.ortho,
        }
    }

    /// One attempt of a transport system, `kind` momentum (three velocity
    /// components) or scalar (one): fill the transport graph's values,
    /// replay its plan, and solve every component against the one
    /// SGS2-preconditioned operator.
    fn try_solve_transport(
        &mut self,
        rank: &Rank,
        m: usize,
        t: &mut Timings,
        kind: EqKind,
        mods: &AttemptMods,
    ) -> Result<usize, SolveError> {
        let cfg = &self.cfg;
        let eq = kind.name();
        let sys = &mut self.systems[m];
        let mesh = &self.meshes[m];
        let state = &mut self.states[m];
        let mut params = cfg.physics;
        params.dt *= mods.dt_scale;

        // Stage 2: local assembly.
        let graphs = sys.graphs.as_mut().expect("graphs built");
        let (dm, tags, edges, nodes) = (&sys.dm, &sys.tags, &sys.owned_edges, &sys.owned_nodes);
        let (graph, vals) = (&graphs.momentum, &mut graphs.mom_vals);
        let rhs = Self::phased(rank, t, eq, Phase::LocalAssembly, || match kind {
            EqKind::Momentum => Vec::from(fill_momentum(
                rank, mesh, dm, graph, tags, state, &params, edges, nodes, vals,
            )),
            _ => vec![fill_scalar(rank, mesh, dm, graph, tags, state, &params, edges, nodes, vals)],
        });
        // Stage 3: global assembly (Algorithms 1 and 2).
        let (a, bs) = Self::phased(rank, t, eq, Phase::GlobalAssembly, || {
            let a = try_build_matrix(rank, dm, graph, &graphs.mom_vals)?;
            let plan = graphs.rhs_plan(kind);
            let bs = rhs
                .into_iter()
                .map(|r| try_build_rhs(rank, plan, r))
                .collect::<Result<Vec<ParVector>, _>>()?;
            Ok::<_, SolveError>((a, bs))
        })?;
        Self::check_system_finite(rank, eq, Some(&a), &bs.iter().collect::<Vec<_>>())?;
        // Preconditioner setup: compact SGS2, or plain Jacobi-Richardson
        // when the recovery ladder has demoted the smoother.
        let precond = Self::phased(rank, t, eq, Phase::PrecondSetup, || {
            if mods.fallback_smoother {
                let jacobi = JacobiPrecond::new(&a.diag.diag(), 1.0);
                AttemptPrecond::Jacobi(a, jacobi)
            } else {
                AttemptPrecond::Sgs2(Sgs2::owning(a, cfg.sgs_inner, cfg.sgs_outer))
            }
        });
        // Warm start from the current field. The solutions are committed
        // only after every component has solved, so a mid-equation
        // failure never leaves the field partially updated going into a
        // retry.
        let gmres = Self::make_gmres(cfg, cfg.momentum_tol);
        let (components, iters, rel) = precond.solve_gathered(rank, t, eq, &gmres, &bs, |c| {
            let guess = nodes.iter().map(|&n| match kind {
                EqKind::Momentum => state.vel[n][c],
                _ => state.nut[n],
            });
            ParVector::from_local(rank, dm.dist.clone(), guess.collect())
        })?;
        self.final_rels.insert(eq.to_string(), rel);
        for (c, full) in components.iter().enumerate() {
            for (node, g) in dm.gid.iter().enumerate() {
                let v = full[*g as usize];
                match kind {
                    EqKind::Momentum => state.vel[node][c] = v,
                    // Clip: transported viscosity must stay non-negative.
                    _ => state.nut[node] = v.max(0.0),
                }
            }
        }
        Ok(iters)
    }

    fn try_solve_continuity(
        &mut self,
        rank: &Rank,
        m: usize,
        t: &mut Timings,
        mods: &AttemptMods,
    ) -> Result<usize, SolveError> {
        let cfg = &self.cfg;
        let eq = EqKind::Continuity.name();
        let sys = &mut self.systems[m];
        let mesh = &self.meshes[m];
        let state = &mut self.states[m];
        let mut params = cfg.physics;
        params.dt *= mods.dt_scale;
        let graphs = sys.graphs.as_mut().expect("graphs built");
        // The operator — and so its hierarchy — is a function of the
        // graphs and `dt/ρ` alone. A cached preconditioner leaves the
        // graphs for the attempt and goes back only after a successful
        // solve, so every error return below evicts it: the retry's
        // `Rebuild` reassembles and sets up from scratch. The fallback
        // rung, which needs an assembled operator for its SGS2, drops it
        // too.
        let key = (params.dt / params.density).to_bits();
        let cached = graphs
            .con_precond
            .take()
            .filter(|&(k, _)| k == key && !mods.fallback_smoother)
            .map(|(_, amg)| AttemptPrecond::Amg(amg));

        let rhs = Self::phased(rank, t, eq, Phase::LocalAssembly, || {
            if cached.is_none() {
                fill_continuity_operator(
                    rank,
                    mesh,
                    &graphs.continuity,
                    &params,
                    &sys.owned_edges,
                    &sys.owned_nodes,
                    &mut graphs.con_vals,
                );
            }
            fill_continuity_rhs(
                rank,
                mesh,
                &sys.dm,
                &graphs.continuity,
                &sys.tags,
                state,
                &sys.owned_edges,
                &sys.owned_nodes,
            )
        });
        // Global assembly: the operator only on a cache miss.
        let (a, b) = Self::phased(rank, t, eq, Phase::GlobalAssembly, || {
            let (a, nan) = if cached.is_some() {
                // The matrix assembly this skips hosts the assembly fault
                // hooks; they fire here instead, against the right-hand
                // side, so a fault plan counts the same occurrences.
                rank.telemetry().counter("continuity.operators_reused", 1);
                (None, distmat::assembly_fault_hooks(rank)?)
            } else {
                rank.telemetry().counter("continuity.operators_assembled", 1);
                let a = try_build_matrix(rank, &sys.dm, &graphs.continuity, &graphs.con_vals)?;
                (Some(a), false)
            };
            let mut b = try_build_rhs(rank, graphs.rhs_plan(EqKind::Continuity), rhs)?;
            if let Some(v) = b.local.first_mut().filter(|_| nan) {
                *v = f64::NAN;
            }
            Ok::<_, SolveError>((a, b))
        })?;
        Self::check_system_finite(rank, eq, a.as_ref(), &[&b])?;
        // Preconditioner setup: AMG — the cached hierarchy, or one set up
        // on the operator just assembled — demoted to SGS2 by the
        // recovery ladder (a stalled or corrupted hierarchy must not take
        // the whole step down). GMRES runs against the operator the
        // preconditioner holds, so `a` is moved, never cloned.
        let precond = Self::phased(rank, t, eq, Phase::PrecondSetup, || {
            Ok::<_, SolveError>(match (cached, a) {
                (Some(hit), _) => {
                    rank.telemetry().counter("amg.setup_reused", 1);
                    hit
                }
                (None, Some(a)) if mods.fallback_smoother => {
                    AttemptPrecond::Sgs2(Sgs2::owning(a, cfg.sgs_inner, cfg.sgs_outer))
                }
                (None, Some(a)) => {
                    let amg = AmgPrecond::setup(rank, a, &cfg.amg)?;
                    rank.telemetry().counter("amg.setup_rebuilt", 1);
                    AttemptPrecond::Amg(amg)
                }
                (None, None) => unreachable!("a cache miss assembles its operator"),
            })
        })?;
        if let AttemptPrecond::Amg(amg) = &precond {
            let h = amg.hierarchy();
            self.last_amg =
                Some((h.level_stats.len() as u64, h.grid_complexity, h.operator_complexity));
        }
        let gmres = Self::make_gmres(cfg, cfg.pressure_tol);
        let zeros = |_| ParVector::zeros(rank, sys.dm.dist.clone());
        let (full, iters, rel) = precond.solve_gathered(rank, t, eq, &gmres, &[b], zeros)?;
        for (node, g) in sys.dm.gid.iter().enumerate() {
            state.dp[node] = full[0][*g as usize];
        }
        if let AttemptPrecond::Amg(amg) = precond {
            graphs.con_precond = Some((key, amg));
        }
        self.final_rels.insert(eq.to_string(), rel);
        // Projection correction (physics, replicated). Only reached once
        // the pressure solve has succeeded.
        Self::phased(rank, t, eq, Phase::GraphPhysics, || {
            let mom_dir = &graphs.momentum.dirichlet;
            correct_velocity(mesh, &sys.tags, state, &params, mom_dir, &mut graphs.dp_grad);
        });
        Ok(iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm::Comm;
    use windmesh::generate::{box_mesh, uniform_spacing, BoxBc};

    fn small_box() -> Mesh {
        box_mesh(
            uniform_spacing(0.0, 4.0, 6),
            uniform_spacing(0.0, 2.0, 4),
            uniform_spacing(0.0, 2.0, 4),
            BoxBc::wind_tunnel(),
        )
    }

    /// The five fields the environment used to seed are literals now.
    /// (That no variable can move them is the environment-read gate in
    /// `ci.sh`, not something a test can show without `set_var`.)
    #[test]
    fn default_config_is_a_literal() {
        let cfg = SolverConfig::default();
        assert_eq!(cfg.transport, TransportKind::Inproc);
        assert_eq!(cfg.kernels, KernelPolicy::Auto);
        assert_eq!(cfg.checkpoint, None);
        assert_eq!(cfg.faults, None);
        assert!(!cfg.telemetry);
    }

    #[test]
    fn uniform_inflow_box_stays_uniform() {
        // The strongest physics test: uniform flow through an empty box
        // is an exact steady solution; a time step must not disturb it.
        for p in [1, 2] {
            let out = Comm::run(p, |rank| {
                let cfg = SolverConfig::default();
                let mut sim = Simulation::new(rank, vec![small_box()], cfg.clone());
                let report = sim.step(rank);
                let state = sim.state(0);
                let max_dev = state
                    .vel
                    .iter()
                    .map(|v| {
                        (v[0] - cfg.physics.u_inflow).abs() + v[1].abs() + v[2].abs()
                    })
                    .fold(0.0f64, f64::max);
                let max_p = state.p.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
                (max_dev, max_p, report)
            });
            for (max_dev, max_p, report) in out {
                assert!(max_dev < 1e-4, "p={p}: velocity drifted by {max_dev}");
                assert!(max_p < 1e-3, "p={p}: spurious pressure {max_p}");
                assert!(report.nli_seconds > 0.0);
                assert!(report.gmres_iters["continuity"] < 40 * 4);
            }
        }
    }

    #[test]
    fn step_reports_all_equations_and_phases() {
        Comm::run(2, |rank| {
            let mut sim = Simulation::new(rank, vec![small_box()], SolverConfig::default());
            let report = sim.step(rank);
            for eq in ["momentum", "continuity", "scalar"] {
                assert!(report.gmres_iters.contains_key(eq), "{eq} missing");
                assert!(
                    report.timings.get(eq, Phase::LocalAssembly) > 0.0,
                    "{eq} local assembly untimed"
                );
                assert!(report.timings.get(eq, Phase::GlobalAssembly) > 0.0);
                assert!(report.timings.get(eq, Phase::PrecondSetup) > 0.0);
                assert!(report.timings.get(eq, Phase::Solve) > 0.0);
            }
        });
    }

    #[test]
    fn traces_carry_per_equation_phases() {
        let (_, traces) = Comm::run_traced(2, |rank| {
            let mut sim = Simulation::new(rank, vec![small_box()], SolverConfig::default());
            sim.step(rank);
        });
        for tr in &traces {
            let solve = tr.phase("continuity/solve");
            assert!(solve.kernel_launches > 0, "no pressure solve kernels");
            assert!(solve.collectives > 0, "no pressure solve reductions");
            let setup = tr.phase("continuity/precond setup");
            assert!(setup.kernel_launches > 0, "no AMG setup kernels");
            let global = tr.phase("momentum/global assembly");
            assert!(global.collectives > 0, "no assembly allgather");
        }
    }

    #[test]
    fn checkpoint_then_resume_is_bitwise_identical() {
        let dir = std::env::temp_dir().join(format!("exawind-sim-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck_cfg = SolverConfig {
            picard_iters: 2,
            checkpoint: Some(CheckpointCfg { every: 2, dir: dir.clone(), incarnation: 0 }),
            ..SolverConfig::default()
        };
        let field_bits = |sim: &Simulation| {
            sim.state(0)
                .vel
                .iter()
                .flat_map(|v| v.iter().map(|x| x.to_bits()))
                .collect::<Vec<u64>>()
        };
        // Uninterrupted reference: 3 steps, no checkpointing.
        let reference = Comm::run(2, |rank| {
            let cfg = SolverConfig { checkpoint: None, ..ck_cfg.clone() };
            let mut sim = Simulation::new(rank, vec![small_box()], cfg);
            for _ in 0..3 {
                sim.step(rank);
            }
            field_bits(&sim)
        });
        // Interrupted run: 2 steps publish generation 2, then the
        // process "dies" (the simulation is dropped).
        Comm::run(2, |rank| {
            let mut sim = Simulation::new(rank, vec![small_box()], ck_cfg.clone());
            for _ in 0..2 {
                sim.step(rank);
            }
            assert_eq!(sim.last_checkpoint(), Some((2, 2)));
        });
        // Restarted run: resume from generation 2, finish step 3.
        let resumed = Comm::run(2, |rank| {
            let mut sim = Simulation::new(rank, vec![small_box()], ck_cfg.clone());
            let gen = sim.resume(rank).expect("resume failed");
            assert_eq!(gen, Some(2));
            assert_eq!(sim.steps_completed(), 2);
            sim.step(rank);
            field_bits(&sim)
        });
        for (r, u) in resumed.iter().zip(&reference) {
            assert_eq!(r, u, "restart diverged from the uninterrupted run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn solution_consistent_across_rank_counts() {
        let mut results: Vec<Vec<f64>> = Vec::new();
        for p in [1, 2, 4] {
            let out = Comm::run(p, |rank| {
                let cfg = SolverConfig {
                    momentum_tol: 1e-10,
                    pressure_tol: 1e-10,
                    picard_iters: 2,
                    ..SolverConfig::default()
                };
                let mut sim = Simulation::new(rank, vec![small_box()], cfg);
                sim.step(rank);
                // x-velocity field as the comparison signature.
                sim.state(0).vel.iter().map(|v| v[0]).collect::<Vec<f64>>()
            });
            results.push(out[0].clone());
        }
        for r in &results[1..] {
            for (a, b) in r.iter().zip(&results[0]) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "solution depends on rank count: {a} vs {b}"
                );
            }
        }
    }

    /// Kernel launches this rank has recorded in the pressure
    /// preconditioner-setup phase: grows with every AMG setup, stays put
    /// across a reuse (which launches no kernel).
    fn setup_launches(rank: &Rank) -> u64 {
        rank.trace_snapshot().phase("continuity/precond setup").kernel_launches
    }

    #[test]
    fn changed_dt_is_a_cache_miss_on_every_rank() {
        let launches = Comm::run(2, |rank| {
            let cfg = SolverConfig { picard_iters: 2, ..SolverConfig::default() };
            let mut sim = Simulation::new(rank, vec![small_box()], cfg);
            sim.step(rank);
            let first = setup_launches(rank);
            sim.step(rank);
            let same_dt = setup_launches(rank);
            // κ = dt/ρ · area/dist: a new dt is a new operator.
            sim.cfg.physics.dt *= 0.5;
            sim.step(rank);
            (first, same_dt, setup_launches(rank))
        });
        for (r, &(first, same_dt, new_dt)) in launches.iter().enumerate() {
            assert!(first > 0, "rank {r}: step 1 ran no AMG setup");
            assert_eq!(same_dt, first, "rank {r}: unchanged operator was set up again");
            assert!(new_dt > same_dt, "rank {r}: changed dt reused a stale hierarchy");
        }
    }

    /// The assembly-plan losslessness oracle on the rotating 2-mesh
    /// turbine case: step 1 records the plans, and every matrix and
    /// right-hand side step 2 replays through them equals, bit for bit, a
    /// from-scratch Algorithm 1/2 of the same local values — on 1 and 2
    /// ranks, over both transports. (Step 2 assembles no continuity
    /// matrix: each mesh's operator is cached with its hierarchy.)
    #[test]
    fn replayed_assemblies_equal_algorithm_1_and_2_on_the_turbine_case() {
        use crate::assemble::oracle;
        use windmesh::turbine::{generate, NrelCase};
        let meshes = generate(NrelCase::SingleLow, 1e-4).meshes;
        for kind in [TransportKind::Inproc, TransportKind::Socket] {
            for p in [1, 2] {
                let meshes = meshes.clone();
                Comm::run_with(kind, p, move |rank| {
                    let cfg = SolverConfig { picard_iters: 2, ..SolverConfig::default() };
                    let mut sim = Simulation::new(rank, meshes.clone(), cfg);
                    sim.step(rank);
                    oracle::arm();
                    sim.step(rank);
                    // 2 Picard iterations × 2 meshes × 2 systems; right-
                    // hand sides for all 3, the momentum system with 3.
                    assert_eq!(oracle::disarm(), (8, 20), "{kind:?} p={p}");
                });
            }
        }
    }

    /// Totals of the named telemetry counters in a rank's event stream.
    fn counter_totals<const N: usize>(events: &[telemetry::Event], names: [&str; N]) -> [u64; N] {
        names.map(|name| {
            events
                .iter()
                .filter_map(|e| match e {
                    telemetry::Event::Counter { name: n, value, .. } if n == name => Some(*value),
                    _ => None,
                })
                .sum()
        })
    }

    /// The counters that say how often a continuity operator was
    /// assembled, reused, and set up.
    const CONTINUITY_COUNTERS: [&str; 3] =
        ["continuity.operators_assembled", "continuity.operators_reused", "amg.setup_rebuilt"];

    /// The losslessness oracle and the soundness of the cache key: after
    /// three steps of the rotating 2-mesh turbine case, each mesh's
    /// continuity operator was assembled and set up exactly once (step 1,
    /// before two further rotor rotations), and the cached operator and
    /// hierarchy are bit for bit what a fresh assembly of that mesh's
    /// operator and a fresh setup build now.
    #[test]
    fn cached_hierarchies_equal_fresh_setups_on_the_turbine_case() {
        use windmesh::turbine::{generate, NrelCase};
        const STEPS: u64 = 3;
        let meshes = generate(NrelCase::SingleLow, 1e-4).meshes;
        for p in [1, 2] {
            let meshes = meshes.clone();
            Comm::run(p, move |rank| {
                let cfg =
                    SolverConfig { picard_iters: 2, telemetry: true, ..SolverConfig::default() };
                let mut sim = Simulation::new(rank, meshes.clone(), cfg.clone());
                sim.step(rank);
                let after_step_1 = setup_launches(rank);
                for _ in 1..STEPS {
                    sim.step(rank);
                }
                assert_eq!(
                    setup_launches(rank),
                    after_step_1,
                    "p={p}: a later step set a pressure hierarchy up again"
                );
                let n_meshes = sim.n_meshes() as u64;
                let solves = cfg.picard_iters as u64 * n_meshes * STEPS;
                assert_eq!(
                    counter_totals(&sim.finish_telemetry(rank), CONTINUITY_COUNTERS),
                    [n_meshes, solves - n_meshes, n_meshes],
                    "p={p}: continuity operators (assembled, reused) and setups"
                );
                for m in 0..sim.n_meshes() {
                    let sys = &mut sim.systems[m];
                    let graphs = sys.graphs.as_mut().expect("graphs built");
                    let _rhs = crate::assemble::fill_continuity(
                        rank,
                        &sim.meshes[m],
                        &sys.dm,
                        &graphs.continuity,
                        &sys.tags,
                        &sim.states[m],
                        &cfg.physics,
                        &sys.owned_edges,
                        &sys.owned_nodes,
                        &mut graphs.con_vals,
                    );
                    let a = try_build_matrix(rank, &sys.dm, &graphs.continuity, &graphs.con_vals)
                        .expect("continuity assembles");
                    let (key, cached) = graphs.con_precond.as_ref().expect("a cached hierarchy");
                    assert_eq!(*key, (cfg.physics.dt / cfg.physics.density).to_bits());
                    assert!(cached.operator().bitwise_eq(&a), "p={p} mesh {m}: stale operator");
                    let fresh = amg::AmgHierarchy::setup(rank, a, &cfg.amg).expect("AMG sets up");
                    let cached = cached.hierarchy();
                    assert_eq!(cached.level_stats, fresh.level_stats, "p={p} mesh {m}");
                    assert_eq!(cached.grid_complexity.to_bits(), fresh.grid_complexity.to_bits());
                    assert_eq!(
                        cached.operator_complexity.to_bits(),
                        fresh.operator_complexity.to_bits()
                    );
                    assert_eq!(cached.levels.len(), fresh.levels.len());
                    assert!(cached.levels.len() > 1, "p={p} mesh {m}: trivial hierarchy");
                    let same = |x: &Option<ParCsr>, y: &Option<ParCsr>| match (x, y) {
                        (Some(x), Some(y)) => x.bitwise_eq(y),
                        (None, None) => true,
                        _ => false,
                    };
                    for (l, (c, f)) in cached.levels.iter().zip(&fresh.levels).enumerate() {
                        assert!(c.a.bitwise_eq(&f.a), "p={p} mesh {m} level {l}: A differs");
                        assert!(same(&c.p, &f.p), "p={p} mesh {m} level {l}: P differs");
                        assert!(same(&c.r, &f.r), "p={p} mesh {m} level {l}: R differs");
                    }
                }
            });
        }
    }

    /// A node blanked between steps changes the tags, so the graphs are
    /// rebuilt and the cached operator goes with them: the next solve
    /// assembles and sets up once, and the ones after it reuse again.
    #[test]
    fn blanked_node_forces_one_continuity_reassembly_and_setup() {
        for p in [1, 2] {
            Comm::run(p, |rank| {
                let cfg =
                    SolverConfig { picard_iters: 2, telemetry: true, ..SolverConfig::default() };
                let mut sim = Simulation::new(rank, vec![small_box()], cfg);
                sim.step(rank);
                sim.step(rank);
                // The single mesh has no overset assembly to reset it, and
                // every rank holds the same copy.
                let n = (0..sim.meshes[0].n_nodes())
                    .find(|&n| sim.systems[0].tags[n] == crate::graph::BcTag::Interior)
                    .expect("an interior node");
                sim.meshes[0].status[n] = windmesh::NodeStatus::Hole;
                sim.step(rank);
                sim.step(rank);
                let events = sim.finish_telemetry(rank);
                assert_eq!(counter_totals(&events, ["graphs.rebuilt"]), [2], "p={p}");
                // 4 steps × 2 Picard iterations: steps 1 and 3 assemble
                // on their first iteration.
                assert_eq!(counter_totals(&events, CONTINUITY_COUNTERS), [2, 6, 2], "p={p}");
            });
        }
    }
}
