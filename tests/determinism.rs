//! Bitwise determinism of the threaded hot paths across rayon thread
//! counts.
//!
//! The paper's per-rank parallelism (local assembly, Algorithm 1/2
//! global assembly, AMG setup, Jacobi-Richardson smoother sweeps) must
//! not change a single bit of the results when the thread count
//! changes: every reduction runs in a fixed, index-determined order.
//! These tests rebuild the same turbine problem under thread pools of
//! size 1, 2, and 8 and compare raw `f64` bit patterns.
//!
//! The pool is installed *inside* each simulated-MPI rank closure:
//! `Comm::run` spawns one OS thread per rank, and pool installation is
//! thread-local, so installing before `Comm::run` would have no effect
//! on the rank threads.

use exawind::amg::pmis::pmis;
use exawind::amg::strength::Strength;
use exawind::amg::{AmgConfig, AmgHierarchy, CfState};
use exawind::nalu_core::assemble::{build_matrix, fill_continuity, fill_momentum, PhysicsParams};
use exawind::nalu_core::eqsys::MeshSystem;
use exawind::nalu_core::state::State;
use exawind::nalu_core::{CheckpointCfg, PartitionMethod, Simulation, SolverConfig};
use exawind::parcomm::{Comm, TransportKind};
use exawind::sparse_kit::KernelPolicy;
use exawind::windmesh::turbine::generate;
use exawind::windmesh::NrelCase;
use rayon::ThreadPoolBuilder;

/// Thread counts exercised against the single-thread baseline.
const THREAD_COUNTS: [usize; 2] = [2, 8];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-rank signature of the assembly + AMG-setup pipeline: raw bits of
/// the assembled CSR values, the PMIS C/F split, the per-level operator
/// values, and the interpolation weights.
struct SetupSignature {
    csr_bits: Vec<u64>,
    cf_split: Vec<u8>,
    level_bits: Vec<u64>,
    interp_bits: Vec<u64>,
}

/// Assemble the continuity + momentum systems of the turbine background
/// mesh on 2 ranks and build the pressure AMG hierarchy, all under a
/// rayon pool of `threads` threads.
fn setup_signatures(threads: usize) -> Vec<SetupSignature> {
    let tm = generate(NrelCase::SingleLow, 1e-4);
    let mesh = tm.meshes[0].clone();
    const NPARTS: usize = 2;
    Comm::run(NPARTS, move |rank| {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let me = rank.rank();
            let mut sys = MeshSystem::new(&mesh, NPARTS, PartitionMethod::Rcb, 0, me);
            sys.rebuild_graphs(&mesh, me);
            let mut graphs = sys.graphs.take().unwrap();
            let params = PhysicsParams::default();
            let state = State::cold_start(mesh.n_nodes(), params.u_inflow, params.nut_inflow);

            let _rhs_p = fill_continuity(
                rank, &mesh, &sys.dm, &graphs.continuity, &sys.tags, &state, &params,
                &sys.owned_edges, &sys.owned_nodes, &mut graphs.con_vals,
            );
            let a_p = build_matrix(rank, &sys.dm, &graphs.continuity, &graphs.con_vals);
            let _rhs_m = fill_momentum(
                rank, &mesh, &sys.dm, &graphs.momentum, &sys.tags, &state, &params,
                &sys.owned_edges, &sys.owned_nodes, &mut graphs.mom_vals,
            );
            let a_m = build_matrix(rank, &sys.dm, &graphs.momentum, &graphs.mom_vals);

            let mut csr = a_p.diag.vals().to_vec();
            csr.extend_from_slice(a_p.offd.vals());
            csr.extend_from_slice(a_m.diag.vals());
            csr.extend_from_slice(a_m.offd.vals());
            let csr_bits = bits(&csr);

            let strength = Strength::classical(rank, &a_p, 0.25);
            let split = pmis(rank, &a_p, &strength, 42);
            let cf_split: Vec<u8> = split
                .states
                .iter()
                .map(|s| match s {
                    CfState::Coarse => 1u8,
                    CfState::Fine => 0u8,
                })
                .collect();

            let h = AmgHierarchy::setup(rank, a_p, &AmgConfig::pressure_default()).unwrap();
            let mut level_vals = Vec::new();
            let mut interp_vals = Vec::new();
            for lvl in &h.levels {
                level_vals.extend_from_slice(lvl.a.diag.vals());
                level_vals.extend_from_slice(lvl.a.offd.vals());
                if let Some(p) = &lvl.p {
                    interp_vals.extend_from_slice(p.diag.vals());
                    interp_vals.extend_from_slice(p.offd.vals());
                }
            }

            SetupSignature {
                csr_bits,
                cf_split,
                level_bits: bits(&level_vals),
                interp_bits: bits(&interp_vals),
            }
        })
    })
}

#[test]
fn assembly_and_amg_setup_bitwise_identical_across_thread_counts() {
    let baseline = setup_signatures(1);
    assert!(
        baseline.iter().any(|s| !s.interp_bits.is_empty()),
        "hierarchy must have interpolation levels for the comparison to be meaningful"
    );
    for threads in THREAD_COUNTS {
        let other = setup_signatures(threads);
        assert_eq!(baseline.len(), other.len());
        for (r, (b, o)) in baseline.iter().zip(&other).enumerate() {
            assert_eq!(
                b.csr_bits, o.csr_bits,
                "assembled CSR values differ on rank {r} at {threads} threads"
            );
            assert_eq!(
                b.cf_split, o.cf_split,
                "PMIS C/F split differs on rank {r} at {threads} threads"
            );
            assert_eq!(
                b.level_bits, o.level_bits,
                "coarse-level operators differ on rank {r} at {threads} threads"
            );
            assert_eq!(
                b.interp_bits, o.interp_bits,
                "interpolation weights differ on rank {r} at {threads} threads"
            );
        }
    }
}

/// End-to-end: one full `Simulation::step` (assembly, AMG-preconditioned
/// solves, smoother sweeps, projection) must leave bitwise-identical
/// fields whatever the thread count.
fn step_field_bits(threads: usize, telemetry: bool, transport: TransportKind) -> Vec<Vec<u64>> {
    let tm = generate(NrelCase::SingleLow, 1e-4);
    let meshes = tm.meshes;
    Comm::run_with(transport, 2, move |rank| {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
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
            let mut out = Vec::new();
            for m in 0..sim.n_meshes() {
                let st = sim.state(m);
                out.extend(st.vel.iter().flat_map(|v| v.iter().map(|x| x.to_bits())));
                out.extend(st.p.iter().map(|x| x.to_bits()));
                out.extend(st.nut.iter().map(|x| x.to_bits()));
            }
            out
        })
    })
}

#[test]
fn converged_fields_bitwise_identical_across_thread_counts() {
    let baseline = step_field_bits(1, false, TransportKind::Inproc);
    for threads in THREAD_COUNTS {
        let other = step_field_bits(threads, false, TransportKind::Inproc);
        assert_eq!(
            baseline, other,
            "solution fields differ between 1 and {threads} threads"
        );
    }
}

/// Telemetry is an observer: turning the event stream on — which since
/// schema v5 also runs the startup clock handshake, stamps wall-clock
/// timestamps on spans/edges/collectives, and feeds the health detector
/// — must not change a single bit of the solution fields, at any thread
/// count, on either transport.
#[test]
fn telemetry_does_not_perturb_solution_bits() {
    let baseline = step_field_bits(1, false, TransportKind::Inproc);
    for transport in [TransportKind::Inproc, TransportKind::Socket] {
        for threads in [1, 8] {
            let with_tel = step_field_bits(threads, true, transport);
            assert_eq!(
                baseline, with_tel,
                "telemetry perturbed the solution at {threads} threads on {transport:?}"
            );
        }
    }
}

/// One full step under an explicit kernel-backend policy, thread count,
/// and transport; returns per-rank field bits. The policy is installed
/// on the rank thread by `Simulation::new` via `SolverConfig::kernels`.
fn kernel_step_field_bits(
    kernels: KernelPolicy,
    threads: usize,
    transport: TransportKind,
) -> Vec<Vec<u64>> {
    let tm = generate(NrelCase::SingleLow, 1e-4);
    let meshes = tm.meshes;
    Comm::run_with(transport, 2, move |rank| {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let cfg = SolverConfig {
                picard_iters: 2,
                kernels,
                ..SolverConfig::default()
            };
            let mut sim = Simulation::new(rank, meshes.clone(), cfg);
            sim.step(rank);
            let mut out = Vec::new();
            for m in 0..sim.n_meshes() {
                let st = sim.state(m);
                out.extend(st.vel.iter().flat_map(|v| v.iter().map(|x| x.to_bits())));
                out.extend(st.p.iter().map(|x| x.to_bits()));
                out.extend(st.nut.iter().map(|x| x.to_bits()));
            }
            out
        })
    })
}

/// The kernel backend is a storage/bandwidth decision, never a numerical
/// one: SELL-C-σ SpMV, plan-replayed Galerkin products, and fused
/// smoother sweeps must reproduce the CSR fields bit for bit — across
/// thread counts and on both transports (acceptance criterion of the
/// kernel-backend PR).
#[test]
fn kernel_backends_bitwise_identical_across_threads_and_transports() {
    let baseline = kernel_step_field_bits(KernelPolicy::Csr, 1, TransportKind::Inproc);
    for kernels in [KernelPolicy::Csr, KernelPolicy::Sellcs, KernelPolicy::Auto] {
        for threads in [1, 8] {
            if kernels == KernelPolicy::Csr && threads == 1 {
                continue; // the baseline itself
            }
            let other = kernel_step_field_bits(kernels, threads, TransportKind::Inproc);
            assert_eq!(
                baseline,
                other,
                "fields differ under kernels={} at {threads} threads",
                kernels.label()
            );
        }
    }
    for kernels in [KernelPolicy::Csr, KernelPolicy::Sellcs] {
        let other = kernel_step_field_bits(kernels, 1, TransportKind::Socket);
        assert_eq!(
            baseline,
            other,
            "fields differ under kernels={} on the socket transport",
            kernels.label()
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
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            let cfg = SolverConfig { picard_iters: 2, ..SolverConfig::default() };
            let mut sim = Simulation::new(rank, meshes.clone(), cfg);
            for _ in 0..steps {
                sim.step(rank);
            }
            sim_field_bits(&sim)
        })
    })
}

/// Interrupt-at-k then restart: run `kill_at` steps with checkpointing
/// every 2 steps, drop the simulation (the "crash"), build a fresh one,
/// restore the newest complete generation, and run the remaining steps.
/// Returns per-rank field bits after `steps` total.
fn checkpointed_restart_bits(
    steps: usize,
    kill_at: usize,
    threads: usize,
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
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let mut sim = Simulation::new(rank, meshes.clone(), cfg.clone());
                for _ in 0..kill_at {
                    sim.step(rank);
                }
                assert_eq!(
                    sim.last_checkpoint(),
                    Some((kill_at as u64, kill_at as u64)),
                    "interrupted run must have published generation {kill_at}"
                );
            })
        });
    }
    // Second incarnation: cold-construct, restore, finish. The restart
    // must replay the rotor motion onto the freshly generated meshes and
    // land bitwise on the uninterrupted trajectory.
    Comm::run_with(transport, 2, move |rank| {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let mut sim = Simulation::new(rank, meshes.clone(), cfg.clone());
            let generation = sim.resume(rank).expect("restore must succeed");
            assert_eq!(generation, Some(kill_at as u64));
            assert_eq!(sim.steps_completed(), kill_at);
            for _ in kill_at..steps {
                sim.step(rank);
            }
            sim_field_bits(&sim)
        })
    })
}

/// Checkpoint/restart is bitwise-exact: a run interrupted at step k and
/// resumed from its newest complete generation finishes with exactly the
/// field bits of a run that was never interrupted — across thread counts
/// and on both transports (acceptance criterion of the checkpoint PR).
/// The turbine case has rotating component meshes, so this also covers
/// the motion-replay path of `Simulation::resume`.
#[test]
fn interrupted_restart_bitwise_identical_across_threads_and_transports() {
    const STEPS: usize = 3;
    const KILL_AT: usize = 2;
    let reference = uninterrupted_run_bits(STEPS);
    for threads in [1, 8] {
        for transport in [TransportKind::Inproc, TransportKind::Socket] {
            let dir = std::env::temp_dir().join(format!(
                "exawind-restart-det-{}-t{threads}-{transport:?}",
                std::process::id()
            ));
            let resumed = checkpointed_restart_bits(STEPS, KILL_AT, threads, transport, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                reference, resumed,
                "restarted fields differ from uninterrupted run at \
                 {threads} threads on the {transport:?} transport"
            );
        }
    }
}

/// A rank's recovery walk: (eq, fault, action, attempt, outcome) per attempt.
type RecoveryWalk = Vec<(String, String, String, usize, String)>;

/// One step with a fault injected at a fixed (equation, occurrence);
/// returns per-rank field bits and the recovery walk.
fn faulted_step_signature(threads: usize) -> Vec<(Vec<u64>, RecoveryWalk)> {
    use exawind::resilience::FaultPlan;
    let tm = generate(NrelCase::SingleLow, 1e-4);
    let meshes = tm.meshes;
    Comm::run(2, move |rank| {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let cfg = SolverConfig {
                picard_iters: 2,
                // "continuity/global" pins the context to the fine-system
                // global assembly (plain "continuity" would also count the
                // harmless pattern-union assemblies inside AMG setup);
                // occurrence 2 is the near-body mesh on the first Picard
                // sweep.
                faults: Some(FaultPlan::parse("assembly-nan@continuity/global:2").unwrap()),
                ..SolverConfig::default()
            };
            let mut sim = Simulation::new(rank, meshes.clone(), cfg);
            let report = sim.step(rank);
            let walk: RecoveryWalk = report
                .recoveries
                .iter()
                .map(|r| {
                    (
                        r.eq.clone(),
                        r.fault.clone(),
                        r.action.clone(),
                        r.attempt,
                        r.outcome.clone(),
                    )
                })
                .collect();
            let mut bits = Vec::new();
            for m in 0..sim.n_meshes() {
                let st = sim.state(m);
                bits.extend(st.vel.iter().flat_map(|v| v.iter().map(|x| x.to_bits())));
                bits.extend(st.p.iter().map(|x| x.to_bits()));
                bits.extend(st.nut.iter().map(|x| x.to_bits()));
            }
            (bits, walk)
        })
    })
}

/// Fault injection and recovery are counted on the rank thread, never on
/// rayon workers: an injected fault at a fixed (equation, occurrence)
/// must produce a bitwise-identical recovery sequence and converged
/// fields whatever the thread count.
#[test]
fn injected_fault_recovery_bitwise_identical_across_thread_counts() {
    let baseline = faulted_step_signature(1);
    for (bits, walk) in &baseline {
        assert!(
            !walk.is_empty(),
            "the injected fault must actually trigger a recovery"
        );
        assert!(bits.iter().all(|b| f64::from_bits(*b).is_finite()));
    }
    for threads in [8] {
        let other = faulted_step_signature(threads);
        for (r, ((bb, bw), (ob, ow))) in baseline.iter().zip(&other).enumerate() {
            assert_eq!(
                bw, ow,
                "recovery sequence differs on rank {r} at {threads} threads"
            );
            assert_eq!(
                bb, ob,
                "recovered fields differ on rank {r} at {threads} threads"
            );
        }
    }
}
