//! Cross-transport determinism: the socket backend must be a bit-exact
//! drop-in for the in-process backend.
//!
//! The solver stack is already bitwise deterministic across thread
//! counts (tests/determinism.rs); this suite pins the other axis — how
//! the ranks are wired together. Every signature the assembly → AMG
//! setup → solve pipeline produces (assembled CSR values, PMIS C/F
//! splits, hierarchy operators, converged step fields) is compared
//! between `TransportKind::Inproc` and `TransportKind::Socket` at 1, 2,
//! and 4 ranks, and the socket backend is additionally exercised as
//! real OS processes through `exawind-launch`. Comparisons are on raw
//! `f64` bit patterns: a single ULP of drift fails.

use exawind::amg::pmis::pmis;
use exawind::amg::strength::Strength;
use exawind::amg::{AmgConfig, AmgHierarchy, CfState};
use exawind::nalu_core::assemble::{build_matrix, fill_continuity, fill_momentum, PhysicsParams};
use exawind::nalu_core::eqsys::MeshSystem;
use exawind::nalu_core::state::State;
use exawind::nalu_core::{PartitionMethod, Simulation, SolverConfig};
use exawind::parcomm::{Comm, TransportKind};
use exawind::windmesh::generate::{box_mesh, uniform_spacing, BoxBc};
use exawind::windmesh::Mesh;

/// Rank counts compared between backends. 4 ranks gives every rank at
/// least two remote peers, so the socket mesh is exercised beyond the
/// trivial pair.
const RANK_COUNTS: [usize; 3] = [1, 2, 4];

/// Same workload as `exawind-worker`: an empty wind-tunnel box whose
/// exact steady solution makes any transport-induced bit drift visible.
fn small_box() -> Mesh {
    box_mesh(
        uniform_spacing(0.0, 4.0, 6),
        uniform_spacing(0.0, 2.0, 4),
        uniform_spacing(0.0, 2.0, 4),
        BoxBc::wind_tunnel(),
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-rank signature of the setup pipeline: assembled CSR values, the
/// PMIS C/F split, and the AMG hierarchy operators — the quantities
/// whose construction involves halo and allgather traffic.
#[derive(PartialEq, Eq, Debug)]
struct SetupSignature {
    csr_bits: Vec<u64>,
    cf_split: Vec<u8>,
    level_bits: Vec<u64>,
}

fn setup_signatures(kind: TransportKind, nparts: usize) -> Vec<SetupSignature> {
    let mesh = small_box();
    Comm::run_with(kind, nparts, move |rank| {
        let me = rank.rank();
        let mut sys = MeshSystem::new(&mesh, nparts, PartitionMethod::Rcb, 0, me);
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
        for lvl in &h.levels {
            level_vals.extend_from_slice(lvl.a.diag.vals());
            level_vals.extend_from_slice(lvl.a.offd.vals());
            if let Some(p) = &lvl.p {
                level_vals.extend_from_slice(p.diag.vals());
                level_vals.extend_from_slice(p.offd.vals());
            }
        }

        SetupSignature { csr_bits, cf_split, level_bits: bits(&level_vals) }
    })
}

/// Per-rank bit pattern of the converged fields after `steps` full time
/// steps, plus the rank's telemetry stream when `telemetry` is on (comm
/// timing, comm edges, collectives all ride that flag).
fn step_run(
    kind: TransportKind,
    nparts: usize,
    steps: usize,
    telemetry: bool,
) -> Vec<(Vec<u64>, Vec<exawind::telemetry::Event>)> {
    let mesh = small_box();
    Comm::run_with(kind, nparts, move |rank| {
        let cfg = SolverConfig { picard_iters: 2, telemetry, ..SolverConfig::default() };
        let mut sim = Simulation::new(rank, vec![mesh.clone()], cfg);
        for _ in 0..steps {
            sim.step(rank);
        }
        let st = sim.state(0);
        let mut field_bits: Vec<u64> = Vec::new();
        field_bits.extend(st.vel.iter().flat_map(|v| v.iter().map(|x| x.to_bits())));
        field_bits.extend(st.p.iter().map(|x| x.to_bits()));
        field_bits.extend(st.nut.iter().map(|x| x.to_bits()));
        let events = sim.finish_telemetry(rank);
        (field_bits, events)
    })
}

/// Per-rank bit pattern of the converged fields after one full time
/// step (assembly, AMG-preconditioned GMRES solves, projection) — the
/// same artifact `exawind-worker` writes to its `.bits` files.
fn step_field_bits(kind: TransportKind, nparts: usize, steps: usize) -> Vec<Vec<u64>> {
    step_run(kind, nparts, steps, false).into_iter().map(|(b, _)| b).collect()
}

#[test]
fn setup_pipeline_bitwise_identical_across_transports() {
    for nparts in RANK_COUNTS {
        let inproc = setup_signatures(TransportKind::Inproc, nparts);
        let socket = setup_signatures(TransportKind::Socket, nparts);
        for (r, (i, s)) in inproc.iter().zip(&socket).enumerate() {
            assert!(!i.csr_bits.is_empty());
            assert_eq!(
                i.csr_bits, s.csr_bits,
                "assembled CSR values differ on rank {r} of {nparts} over socket transport"
            );
            assert_eq!(
                i.cf_split, s.cf_split,
                "PMIS C/F split differs on rank {r} of {nparts} over socket transport"
            );
            assert_eq!(
                i.level_bits, s.level_bits,
                "AMG hierarchy operators differ on rank {r} of {nparts} over socket transport"
            );
        }
    }
}

#[test]
fn converged_step_fields_bitwise_identical_across_transports() {
    for nparts in RANK_COUNTS {
        let inproc = step_field_bits(TransportKind::Inproc, nparts, 1);
        let socket = step_field_bits(TransportKind::Socket, nparts, 1);
        assert_eq!(inproc.len(), socket.len());
        for (r, (i, s)) in inproc.iter().zip(&socket).enumerate() {
            assert!(!i.is_empty());
            assert_eq!(
                i, s,
                "step fields differ on rank {r} of {nparts} over socket transport"
            );
        }
    }
}

/// Comm telemetry (edge recording, wait/transfer clocks, collective
/// latency sampling) must be a pure observer: fields bitwise identical
/// with telemetry on and off, at every rank count, on both transports.
#[test]
fn comm_telemetry_does_not_perturb_fields_on_either_transport() {
    for kind in [TransportKind::Inproc, TransportKind::Socket] {
        for nparts in RANK_COUNTS {
            let off = step_field_bits(kind, nparts, 1);
            let on: Vec<Vec<u64>> =
                step_run(kind, nparts, 1, true).into_iter().map(|(b, _)| b).collect();
            assert!(!off[0].is_empty());
            assert_eq!(
                off, on,
                "comm telemetry perturbed converged fields at {nparts} ranks over {kind:?}"
            );
        }
    }
}

/// Edge accounting is a property of the communication pattern, not the
/// wire: per-(src, dst, class) message/byte totals must be identical
/// between transports, and within a run the sender's and receiver's
/// records of each edge must agree.
#[test]
fn comm_edge_totals_identical_across_transports() {
    use exawind::telemetry::Event;
    type Edges = Vec<(usize, usize, String, u64, u64)>;
    let collect = |kind| -> Vec<Edges> {
        step_run(kind, 4, 1, true)
            .into_iter()
            .map(|(_, events)| {
                events
                    .iter()
                    .filter_map(|e| match e {
                        Event::CommEdge { src, dst, class, msgs, bytes, .. } => {
                            Some((*src, *dst, class.clone(), *msgs, *bytes))
                        }
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    };
    let inproc = collect(TransportKind::Inproc);
    let socket = collect(TransportKind::Socket);
    assert!(inproc.iter().all(|s| !s.is_empty()), "no comm edges recorded");
    assert_eq!(inproc, socket, "comm matrix differs between transports");

    // Sender/receiver symmetry: every edge appears in exactly two rank
    // streams (its endpoints) with the same totals.
    let mut views: std::collections::BTreeMap<(usize, usize, String), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for stream in &socket {
        for (src, dst, class, msgs, bytes) in stream {
            views.entry((*src, *dst, class.clone())).or_default().push((*msgs, *bytes));
        }
    }
    for (edge, v) in views {
        assert_eq!(v.len(), 2, "edge {edge:?} not recorded by both endpoints");
        assert_eq!(v[0], v[1], "edge {edge:?} asymmetric between endpoints");
    }
}

/// A peer that dies while the survivor's halo exchange is in flight —
/// after the survivor's `try_halo_begin`, before the peer sent its own
/// boundary — must surface on the survivor's `try_finish` as the typed
/// disconnect, at once: not after the 120 s deadlock timeout, and not
/// only once the wait loop has parked.
#[test]
fn peer_death_between_halo_begin_and_finish_is_a_prompt_typed_error() {
    use exawind::distmat::{ParCsr, RowDist};
    use exawind::parcomm::CommError;
    use exawind::resilience::SolveError;
    use exawind::sparse_kit::{Coo, Csr};
    use std::sync::{Barrier, Mutex};
    use std::time::{Duration, Instant};

    let n = 8u64;
    let mut coo = Coo::new();
    for i in 0..n {
        coo.push(i, i, 2.0);
        if i > 0 {
            coo.push(i, i - 1, -1.0);
            coo.push(i - 1, i, -1.0);
        }
    }
    let a = Csr::from_coo(n as usize, n as usize, &coo);
    for kind in [TransportKind::Inproc, TransportKind::Socket] {
        // Orders the death after the survivor's begin.
        let begun = Barrier::new(2);
        let survivor = Mutex::new(None);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Comm::run_with(kind, 2, |rank| {
                let dist = RowDist::block(n, 2);
                let pa = ParCsr::from_serial(rank, dist.clone(), dist, &a);
                if rank.rank() == 1 {
                    begun.wait();
                    panic!("rank 1 dies mid-exchange");
                }
                let halo = pa.try_halo_begin(rank, &[1.0; 4]).expect("begin needs no peer");
                begun.wait();
                let t0 = Instant::now();
                let res = halo.try_finish(rank);
                *survivor.lock().unwrap() = Some((res, t0.elapsed()));
            });
        }));
        assert!(raised.is_err(), "{kind}: the death must still fail the run");
        let (res, waited) = survivor.into_inner().unwrap().expect("survivor finished");
        let gone = CommError::Disconnected { rank: 0, peer: 1 };
        assert_eq!(res, Err(SolveError::Comm { detail: gone.to_string() }), "{kind}");
        assert!(waited < Duration::from_secs(1), "{kind}: survivor waited {waited:?}");
    }
}

/// Read the hex-u64-per-line `.bits` artifact `exawind-worker` writes.
fn read_bits_file(path: &std::path::Path) -> Vec<u64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines()
        .map(|l| u64::from_str_radix(l.trim(), 16).unwrap_or_else(|e| panic!("bad bits line {l:?}: {e}")))
        .collect()
}

/// The full acceptance path: `exawind-launch` spawns two real worker
/// processes that rendezvous over TCP; their per-rank field bits must
/// match the same workload run in-process.
#[test]
fn multi_process_socket_run_matches_inproc_bitwise() {
    let dir = std::env::temp_dir().join(format!("exawind-transport-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("fields");

    let status = std::process::Command::new(env!("CARGO_BIN_EXE_exawind-launch"))
        .args(["-n", "2", "--"])
        .arg(env!("CARGO_BIN_EXE_exawind-worker"))
        .arg("--out")
        .arg(&out)
        .status()
        .expect("exawind-launch spawns");
    assert!(status.success(), "exawind-launch exited with {status}");

    let reference = step_field_bits(TransportKind::Inproc, 2, 1);
    for (r, want) in reference.iter().enumerate() {
        let got = read_bits_file(&dir.join(format!("fields.rank{r}.bits")));
        assert!(!got.is_empty());
        assert_eq!(
            &got, want,
            "rank {r} fields from the 2-process socket run differ from the inproc run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostfile mode end to end: probe two free loopback ports, hand them to
/// the launcher as explicit endpoints, and require the same bits. Ports
/// can be re-grabbed between probe and bind, so one retry is allowed
/// before the run is declared failed.
#[test]
fn hostfile_socket_run_matches_inproc_bitwise() {
    let dir = std::env::temp_dir().join(format!("exawind-hostfile-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("fields");
    let hostfile = dir.join("hosts.txt");

    let mut status = None;
    for _attempt in 0..2 {
        let ports: Vec<u16> = (0..2)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap().port()
            })
            .collect();
        let text = format!(
            "# rank endpoints for the hostfile e2e test\n127.0.0.1:{}\n127.0.0.1:{}\n",
            ports[0], ports[1]
        );
        std::fs::write(&hostfile, text).unwrap();

        let s = std::process::Command::new(env!("CARGO_BIN_EXE_exawind-launch"))
            .args(["-n", "2", "--hostfile"])
            .arg(&hostfile)
            .arg("--")
            .arg(env!("CARGO_BIN_EXE_exawind-worker"))
            .arg("--out")
            .arg(&out)
            .status()
            .expect("exawind-launch spawns");
        status = Some(s);
        if s.success() {
            break;
        }
    }
    assert!(status.unwrap().success(), "hostfile launch failed twice");

    let reference = step_field_bits(TransportKind::Inproc, 2, 1);
    for (r, want) in reference.iter().enumerate() {
        let got = read_bits_file(&dir.join(format!("fields.rank{r}.bits")));
        assert_eq!(
            &got, want,
            "rank {r} fields from the hostfile socket run differ from the inproc run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A typo'd variable must stop a launched job loudly and early: with the
/// kernels variable set to a value that is not a policy, every worker
/// that starts exits 2 from the edge parser — before it rendezvouses or
/// steps — naming the variable and the value; the launcher reports the
/// failed cohort and passes the code on. Never a panic, never a silent
/// `auto`.
#[test]
fn malformed_variable_fails_the_launched_cohort_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("exawind-badenv-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("fields");

    let run = std::process::Command::new(env!("CARGO_BIN_EXE_exawind-launch"))
        .args(["-n", "2", "--"])
        .arg(env!("CARGO_BIN_EXE_exawind-worker"))
        .arg("--out")
        .arg(&out)
        .env(exawind::env::KERNELS, "selcs")
        .output()
        .expect("exawind-launch spawns");
    let stderr = String::from_utf8_lossy(&run.stderr);
    let stdout = String::from_utf8_lossy(&run.stdout);

    assert_eq!(run.status.code(), Some(2), "launcher passes the workers' code on\n{stderr}");
    // Every worker that got to run says so, on one shared stderr, each
    // in a single write: all lines naming the variable are whole messages.
    // (Not "exactly 2": the launcher fences the cohort at the first death,
    // which may be before a slower rank has printed.)
    let named = format!("exawind-worker: {}=\"selcs\": ", exawind::env::KERNELS);
    let reports: Vec<&str> =
        stderr.lines().filter(|l| l.contains(exawind::env::KERNELS)).collect();
    assert!(!reports.is_empty(), "a worker names variable and value\n{stderr}");
    assert!(reports.iter().all(|l| l.starts_with(&named)), "torn message\n{stderr}");
    assert!(stderr.contains("exited with code 2"), "launcher reports the cohort\n{stderr}");
    assert!(!stderr.contains("panicked"), "a typed error, not a panic\n{stderr}");
    // Nothing ran: no rank finished a step or wrote its fields.
    assert!(!stdout.contains("done"), "{stdout}");
    assert!(!dir.join("fields.rank0.bits").exists() && !dir.join("fields.rank1.bits").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
