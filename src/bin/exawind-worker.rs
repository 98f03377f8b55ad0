//! Rank worker for transport testing and multi-process smoke runs.
//!
//! Runs a fixed small wind-tunnel workload (assembly → AMG-preconditioned
//! solves → projection) and writes, per rank, the raw bit pattern of the
//! converged fields — the artifact the cross-transport determinism suite
//! compares between backends. The workload is identical however the
//! communicator is backed, so the same binary serves three shapes:
//!
//! ```sh
//! # in-process threads (default transport):
//! exawind-worker --out /tmp/a
//! # socket transport, N threads over loopback:
//! EXAWIND_TRANSPORT=socket exawind-worker --out /tmp/b
//! # socket transport, N OS processes (one rank each):
//! exawind-launch -n 2 -- exawind-worker --out /tmp/c
//! ```
//!
//! Under `exawind-launch` the rank count comes from `EXAWIND_SIZE`;
//! standalone it defaults to 2 (`--ranks` overrides). Each rank writes
//! `<out>.rank<r>.bits` (one hex u64 per field scalar, in field order)
//! and, with `--telemetry <path>`, `<path>.rank<r>.jsonl` — rank 0's
//! stream carries the `run` metadata event the CI smoke greps for.
//!
//! When `EXAWIND_MONITOR` names a `host:port` (exported by
//! `exawind-launch`), each rank heartbeats its progress — one frame after
//! setup, one per completed step — so the launcher can render a live
//! status line and flag stalled ranks. On a panic or an unrecoverable
//! solver error the rank drops a `crash-<rank>.json` breadcrumb (in
//! `EXAWIND_CRASH_DIR`, default cwd) recording where it died.
//!
//! Test hook: `EXAWIND_STALL_RANK=<r>` makes rank `r` sleep
//! `EXAWIND_STALL_SECS` (default 60) seconds after its first heartbeat,
//! simulating a hung rank for the launcher's stall-detection smoke.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use exawind::nalu_core::{CheckpointCfg, Simulation, SolverConfig};
use exawind::parcomm::{Comm, Heartbeat, MonitorClient, Rank};
use exawind::resilience::checkpoint;
use exawind::telemetry::{self, Json};
use exawind::windmesh::generate::{box_mesh, uniform_spacing, BoxBc};
use exawind::windmesh::Mesh;

/// Empty wind-tunnel box; uniform inflow is an exact steady solution,
/// so any transport-induced perturbation shows up immediately.
fn small_box() -> Mesh {
    box_mesh(
        uniform_spacing(0.0, 4.0, 6),
        uniform_spacing(0.0, 2.0, 4),
        uniform_spacing(0.0, 2.0, 4),
        BoxBc::wind_tunnel(),
    )
}

/// `--mesh big`: a box whose pressure system (288 rows) sits outside
/// the AMG stall tolerance, so a seeded `coarsen-stall` fault is fatal
/// and drives the recovery ladder — the workload the CI health-detector
/// smoke runs.
fn bigger_box() -> Mesh {
    box_mesh(
        uniform_spacing(0.0, 4.0, 8),
        uniform_spacing(0.0, 2.0, 6),
        uniform_spacing(0.0, 2.0, 6),
        BoxBc::wind_tunnel(),
    )
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("exawind-worker: {flag} requires a value");
                std::process::exit(2);
            })
            .clone()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = flag_value(&args, "--out");
    let tel = flag_value(&args, "--telemetry");
    let steps: usize = flag_value(&args, "--steps").map_or(1, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("exawind-worker: bad --steps {v:?}");
            std::process::exit(2);
        })
    });
    let default_ranks: usize = flag_value(&args, "--ranks").map_or(2, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("exawind-worker: bad --ranks {v:?}");
            std::process::exit(2);
        })
    });
    let nranks = Comm::env_size(default_ranks);
    let mesh = match flag_value(&args, "--mesh").as_deref().unwrap_or("small") {
        "small" => small_box(),
        "big" => bigger_box(),
        other => {
            eprintln!("exawind-worker: unknown --mesh {other:?} (small|big)");
            std::process::exit(2);
        }
    };

    // Cold-start guard, mirroring the launcher's: with checkpointing
    // configured but no resume requested, a manifest that already names
    // generations belongs to a previous job — stepping from 0 would die
    // at the first publish, and a supervisor would then resume the *old*
    // state while appearing to succeed.
    if let Some(ck) = CheckpointCfg::from_env() {
        if !checkpoint::resume_requested() {
            if let Ok(Some(m)) = checkpoint::read_manifest(&ck.dir) {
                if let Some(g) = m.latest() {
                    eprintln!(
                        "exawind-worker: checkpoint dir {} already names generation {g} \
                         (a previous run); set {}=1 to resume it or use a fresh directory",
                        ck.dir.display(),
                        checkpoint::ENV_RESUME
                    );
                    std::process::exit(2);
                }
            }
        }
    }

    let telemetry_on = tel.is_some();
    Comm::run(nranks, move |rank| {
        let cfg = SolverConfig {
            picard_iters: 2,
            telemetry: telemetry_on,
            ..SolverConfig::default()
        };
        let picard_iters = cfg.picard_iters as u64;
        let (transport, kernels) = (cfg.transport, cfg.kernels);
        let mut sim = Simulation::new(rank, vec![mesh.clone()], cfg);

        // Supervised relaunch: restore the newest complete generation
        // before the first step; the loop below then runs only the
        // steps the interrupted run had not finished.
        if checkpoint::resume_requested() {
            match sim.resume(rank) {
                Ok(Some(generation)) => eprintln!(
                    "exawind-worker: rank {} resumed from checkpoint generation {generation}",
                    rank.rank()
                ),
                Ok(None) => eprintln!(
                    "exawind-worker: rank {} found no complete checkpoint, cold start",
                    rank.rank()
                ),
                Err(e) => panic!("resume failed: {e}"),
            }
        }
        let done = sim.steps_completed();

        let mut monitor = MonitorClient::from_env();
        let mut last_hb = heartbeat(rank, &sim, done as u64, 0, 0.0);
        monitor.send(&last_hb);
        maybe_stall(rank.rank());

        let stepped = catch_unwind(AssertUnwindSafe(|| {
            for s in done..steps {
                match sim.try_step(rank) {
                    Ok(report) => {
                        last_hb = heartbeat(
                            rank,
                            &sim,
                            (s + 1) as u64,
                            picard_iters,
                            report.max_final_rel(),
                        );
                        monitor.send(&last_hb);
                    }
                    Err(e) => {
                        write_crash_breadcrumb(rank, "solver_error", &e.to_string(), &last_hb);
                        panic!("time step failed beyond recovery: {e}");
                    }
                }
            }
        }));
        if let Err(payload) = stepped {
            // A panic that was not a typed solver error still leaves a
            // breadcrumb (the solver-error path wrote its own above and
            // re-panics through here with the same message).
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            if !detail.starts_with("time step failed beyond recovery") {
                write_crash_breadcrumb(rank, "panic", &detail, &last_hb);
            }
            resume_unwind(payload);
        }

        let mut bits: Vec<u64> = Vec::new();
        let st = sim.state(0);
        bits.extend(st.vel.iter().flat_map(|v| v.iter().map(|x| x.to_bits())));
        bits.extend(st.p.iter().map(|x| x.to_bits()));
        bits.extend(st.nut.iter().map(|x| x.to_bits()));

        if let Some(prefix) = &out {
            let path = format!("{prefix}.rank{}.bits", rank.rank());
            let text: String = bits.iter().map(|b| format!("{b:016x}\n")).collect();
            std::fs::write(&path, text)
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
        let events = sim.finish_telemetry(rank);
        if let Some(tel_prefix) = &tel {
            let path = format!("{tel_prefix}.rank{}.jsonl", rank.rank());
            let mut stream = Vec::new();
            if rank.rank() == 0 {
                stream.push(telemetry::run_info(
                    rank.size(),
                    transport.label(),
                    kernels.label(),
                    sim.clock_tables(),
                ));
            }
            stream.extend(events);
            telemetry::write_jsonl(&path, &stream)
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
        println!(
            "exawind-worker: rank {}/{} done ({} step(s), transport {})",
            rank.rank(),
            rank.size(),
            steps,
            transport
        );
    });
}

/// Build a heartbeat from the rank's current comm counters and newest
/// complete checkpoint.
fn heartbeat(rank: &Rank, sim: &Simulation, step: u64, picard: u64, residual: f64) -> Heartbeat {
    let t = rank.trace_snapshot().total();
    Heartbeat {
        rank: rank.rank(),
        step,
        picard,
        residual,
        msgs: t.msgs,
        bytes: t.msg_bytes,
        collectives: t.collectives,
        checkpoint: sim.last_checkpoint(),
        health: sim
            .last_health_verdict()
            .map(|v| (v.kind.code(), v.step as u64)),
    }
}

/// Test hook: deliberately hang one rank so the launcher's
/// stall-detection smoke has something to catch.
fn maybe_stall(me: usize) {
    let Ok(stall) = std::env::var("EXAWIND_STALL_RANK") else { return };
    if stall.parse::<usize>() == Ok(me) {
        let secs: u64 = std::env::var("EXAWIND_STALL_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(60);
        eprintln!("exawind-worker: rank {me} stalling for {secs}s (EXAWIND_STALL_RANK)");
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
}

/// Drop `crash-<rank>.json` (in `EXAWIND_CRASH_DIR`, default cwd) so the
/// launcher can report which rank died and where it was at the time.
fn write_crash_breadcrumb(rank: &Rank, kind: &str, detail: &str, last_hb: &Heartbeat) {
    let dir = std::env::var("EXAWIND_CRASH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = format!("{dir}/crash-{}.json", rank.rank());
    let doc = Json::obj(vec![
        ("rank", Json::Int(rank.rank() as i128)),
        ("kind", Json::Str(kind.to_string())),
        ("detail", Json::Str(detail.to_string())),
        ("phase", Json::Str(rank.phase_name())),
        ("last_step", Json::Int(last_hb.step as i128)),
        ("picard", Json::Int(last_hb.picard as i128)),
        ("residual", Json::Float(last_hb.residual)),
        ("msgs", Json::Int(last_hb.msgs as i128)),
        ("bytes", Json::Int(last_hb.bytes as i128)),
        ("collectives", Json::Int(last_hb.collectives as i128)),
        (
            "ckpt_generation",
            last_hb.checkpoint.map_or(Json::Null, |(g, _)| Json::Int(g as i128)),
        ),
        (
            "ckpt_step",
            last_hb.checkpoint.map_or(Json::Null, |(_, s)| Json::Int(s as i128)),
        ),
    ]);
    if let Err(e) = std::fs::write(&path, doc.to_string() + "\n") {
        eprintln!("exawind-worker: cannot write {path}: {e}");
    }
}
