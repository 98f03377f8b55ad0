//! Bitwise determinism of the solver across the choices that must not
//! change a single bit of the results: the transport, telemetry on or
//! off, and an interrupt/restart. Every
//! reduction runs in a fixed, index-determined order, so these tests
//! rebuild the same turbine problem under each choice and compare raw
//! `f64` bit patterns.

use exawind::nalu_core::{CheckpointCfg, RecoveryRecord, Simulation, SolverConfig};
use exawind::parcomm::{Comm, TransportKind};
use exawind::windmesh::turbine::generate;
use exawind::windmesh::NrelCase;

/// One full `Simulation::step` (assembly, AMG-preconditioned solves,
/// smoother sweeps, projection) on 2 ranks; returns per-rank field bits.
fn step_field_bits(telemetry: bool, transport: TransportKind) -> Vec<Vec<u64>> {
    let tm = generate(NrelCase::SingleLow, 1e-4);
    let meshes = tm.meshes;
    Comm::run_with(transport, 2, move |rank| {
        let cfg = SolverConfig {
            picard_iters: 2,
            telemetry,
            ..SolverConfig::default()
        };
        let mut sim = Simulation::new(rank, meshes.clone(), cfg);
        sim.step(rank);
        if telemetry {
            // Drain the recorder (also asserts span nesting closed).
            let events = sim.finish_telemetry(rank);
            assert!(!events.is_empty());
            // Comm observability rides the same flag: a 2-rank step
            // must have recorded traffic edges and collectives.
            use exawind::telemetry::Event;
            assert!(
                events.iter().any(|e| matches!(e, Event::CommEdge { .. })),
                "no comm_edge events with telemetry enabled"
            );
            assert!(
                events.iter().any(|e| matches!(e, Event::Collective { .. })),
                "no collective events with telemetry enabled"
            );
        }
        sim_field_bits(&sim)
    })
}

/// Telemetry is an observer: turning the event stream on — which since
/// schema v5 also runs the startup clock handshake, stamps wall-clock
/// timestamps on spans/edges/collectives, and feeds the health detector
/// — must not change a single bit of the solution fields, on either
/// transport.
#[test]
fn telemetry_does_not_perturb_solution_bits() {
    let baseline = step_field_bits(false, TransportKind::Inproc);
    for transport in [TransportKind::Inproc, TransportKind::Socket] {
        let with_tel = step_field_bits(true, transport);
        assert_eq!(
            baseline, with_tel,
            "telemetry perturbed the solution on {transport:?}"
        );
    }
}

/// Per-rank field bits of every mesh after the simulation's current step.
fn sim_field_bits(sim: &Simulation) -> Vec<u64> {
    let mut out = Vec::new();
    for m in 0..sim.n_meshes() {
        let st = sim.state(m);
        out.extend(st.vel.iter().flat_map(|v| v.iter().map(|x| x.to_bits())));
        out.extend(st.p.iter().map(|x| x.to_bits()));
        out.extend(st.nut.iter().map(|x| x.to_bits()));
    }
    out
}

/// Run the turbine case to `steps` in one uninterrupted simulation;
/// returns per-rank field bits.
fn uninterrupted_run_bits(steps: usize) -> Vec<Vec<u64>> {
    let tm = generate(NrelCase::SingleLow, 1e-4);
    let meshes = tm.meshes;
    Comm::run(2, move |rank| {
        let cfg = SolverConfig { picard_iters: 2, ..SolverConfig::default() };
        let mut sim = Simulation::new(rank, meshes.clone(), cfg);
        for _ in 0..steps {
            sim.step(rank);
        }
        sim_field_bits(&sim)
    })
}

/// Interrupt-at-k then restart: run `kill_at` steps with checkpointing
/// every 2 steps, drop the simulation (the "crash"), build a fresh one,
/// restore the newest complete generation, and run the remaining steps.
/// Returns per-rank field bits after `steps` total.
fn checkpointed_restart_bits(
    steps: usize,
    kill_at: usize,
    transport: TransportKind,
    dir: &std::path::Path,
) -> Vec<Vec<u64>> {
    let _ = std::fs::remove_dir_all(dir);
    let tm = generate(NrelCase::SingleLow, 1e-4);
    let meshes = tm.meshes;
    let cfg = SolverConfig {
        picard_iters: 2,
        checkpoint: Some(CheckpointCfg { every: 2, dir: dir.to_path_buf(), incarnation: 0 }),
        ..SolverConfig::default()
    };
    {
        // First incarnation: step to the interruption point and die
        // (dropping the Simulation loses all in-memory state).
        let meshes = meshes.clone();
        let cfg = cfg.clone();
        Comm::run_with(transport, 2, move |rank| {
            let mut sim = Simulation::new(rank, meshes.clone(), cfg.clone());
            for _ in 0..kill_at {
                sim.step(rank);
            }
            assert_eq!(
                sim.last_checkpoint(),
                Some((kill_at as u64, kill_at as u64)),
                "interrupted run must have published generation {kill_at}"
            );
        });
    }
    // Second incarnation: cold-construct, restore, finish. The restart
    // must replay the rotor motion onto the freshly generated meshes and
    // land bitwise on the uninterrupted trajectory.
    Comm::run_with(transport, 2, move |rank| {
        let mut sim = Simulation::new(rank, meshes.clone(), cfg.clone());
        let generation = sim.resume(rank).expect("restore must succeed");
        assert_eq!(generation, Some(kill_at as u64));
        assert_eq!(sim.steps_completed(), kill_at);
        for _ in kill_at..steps {
            sim.step(rank);
        }
        sim_field_bits(&sim)
    })
}

/// Checkpoint/restart is bitwise-exact: a run interrupted at step k and
/// resumed from its newest complete generation finishes with exactly the
/// field bits of a run that was never interrupted — on both transports
/// (acceptance criterion of the checkpoint PR).
/// The turbine case has rotating component meshes, so this also covers
/// the motion-replay path of `Simulation::resume`.
#[test]
fn interrupted_restart_bitwise_identical_across_transports() {
    const STEPS: usize = 3;
    const KILL_AT: usize = 2;
    let reference = uninterrupted_run_bits(STEPS);
    for transport in [TransportKind::Inproc, TransportKind::Socket] {
        let dir = std::env::temp_dir().join(format!(
            "exawind-restart-det-{}-{transport:?}",
            std::process::id()
        ));
        let resumed = checkpointed_restart_bits(STEPS, KILL_AT, transport, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            reference, resumed,
            "restarted fields differ from uninterrupted run on the {transport:?} transport"
        );
    }
}

/// One step with a fault injected at a fixed (equation, occurrence);
/// returns per-rank field bits and recovery records.
fn faulted_step() -> Vec<(Vec<u64>, Vec<RecoveryRecord>)> {
    use exawind::parcomm::FaultPlan;
    let tm = generate(NrelCase::SingleLow, 1e-4);
    let meshes = tm.meshes;
    Comm::run(2, move |rank| {
        let cfg = SolverConfig {
            picard_iters: 2,
            // "continuity/global" pins the context to the fine-system
            // global assembly (plain "continuity" would also count the
            // restriction assemblies inside AMG setup);
            // occurrence 2 is the near-body mesh on the first Picard
            // sweep.
            faults: Some(FaultPlan::parse("assembly-nan@continuity/global:2").unwrap()),
            ..SolverConfig::default()
        };
        let mut sim = Simulation::new(rank, meshes.clone(), cfg);
        let report = sim.step(rank);
        (sim_field_bits(&sim), report.recoveries)
    })
}

/// Fault injection and recovery are counted per rank: an
/// injected fault at a fixed (equation, occurrence) on the near-body
/// mesh must walk the recovery ladder and leave finite fields.
#[test]
fn injected_fault_recovery_walks_the_ladder_to_finite_fields() {
    for (bits, walk) in faulted_step() {
        assert!(
            !walk.is_empty(),
            "the injected fault must actually trigger a recovery"
        );
        assert!(bits.iter().all(|b| f64::from_bits(*b).is_finite()));
    }
}
