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
//! # socket transport, N threads wired by Unix-domain socket pairs (the
//! # transport variable of README.md "Environment", parsed by
//! # `exawind::env`):
//! EXAWIND_TRANSPORT=socket exawind-worker --out /tmp/b
//! # socket transport, N OS processes (one rank each) that dial each
//! # other's `<rendezvous>.sock<r>`:
//! exawind-launch -n 2 -- exawind-worker --out /tmp/c
//! ```
//!
//! Under `exawind-launch` the rank count is the launcher's; standalone
//! it defaults to 2 (`--ranks` overrides). Each rank writes
//! `<out>.rank<r>.bits` (one hex u64 per field scalar, in field order)
//! and, with `--telemetry <path>` (or the telemetry variable),
//! `<path>.rank<r>.jsonl` — rank 0's stream carries the `run` metadata
//! event the CI smoke greps for.
//!
//! Under `exawind-launch` each rank also keeps one progress record
//! ([`exawind::env::Progress`]) in `<rendezvous>.rank<r>`, replaced
//! whole after set-up and after every step, so the launcher can render
//! a live status line and flag stalled ranks. On a panic or an
//! unrecoverable solver error the rank writes it once more with the
//! failure's kind and detail, which the launcher reports. A standalone
//! worker writes no record; its panic message is on stderr.
//!
//! Test hook: the stall variable makes one rank sleep after its first
//! record, simulating a hung rank for the launcher's stall-detection
//! smoke.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use exawind::env::{self, LaunchEnv, Progress, RunEnv};
use exawind::nalu_core::{Simulation, SolverConfig};
use exawind::parcomm::Rank;
use exawind::resilience::{checkpoint, SolveError};
use exawind::telemetry;
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
    let env = RunEnv::from_process("exawind-worker");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = flag_value(&args, "--out");
    let tel = flag_value(&args, "--telemetry").or_else(|| env.telemetry_path.clone());
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
    let resume = env.launch.as_ref().is_some_and(|l| l.resume);
    if let Some(ck) = env.config.checkpoint.as_ref().filter(|_| !resume) {
        if let Ok(Some(m)) = checkpoint::read_manifest(&ck.dir) {
            if let Some(g) = m.latest() {
                eprintln!(
                    "exawind-worker: checkpoint dir {} already names generation {g} \
                     (a previous run); relaunch with `exawind-launch --resume` to \
                     continue it or use a fresh directory",
                    ck.dir.display()
                );
                std::process::exit(2);
            }
        }
    }

    env.run(default_ranks, |rank| {
        let cfg = SolverConfig {
            picard_iters: 2,
            telemetry: tel.is_some(),
            ..env.config.clone()
        };
        let picard_iters = cfg.picard_iters as u64;
        let transport = cfg.transport;
        let mut sim = Simulation::new(rank, vec![mesh.clone()], cfg);

        // Supervised relaunch: restore the newest complete generation
        // before the first step; the loop below then runs only the
        // steps the interrupted run had not finished.
        if resume {
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

        // Under the launcher, the progress record: written after set-up,
        // after every step and once more if the rank fails.
        let status = env.launch.as_ref().map(LaunchEnv::status_path);
        let report = |p: &Progress| {
            if let Some(path) = &status {
                if let Err(e) = p.write(path) {
                    eprintln!("exawind-worker: cannot write {}: {e}", path.display());
                }
            }
        };
        let mut last = progress(rank, &sim, done as u64, 0, 0.0);
        report(&last);
        // Test hook: deliberately hang one rank so the launcher's
        // stall-detection smoke has something to catch.
        if env.stall_rank == Some(rank.rank()) {
            eprintln!(
                "exawind-worker: rank {} stalling for {}s ({})",
                rank.rank(),
                env::STALL.as_secs(),
                env::STALL_RANK
            );
            std::thread::sleep(env::STALL);
        }

        let stepped = catch_unwind(AssertUnwindSafe(|| -> Result<(), SolveError> {
            for s in done..steps {
                let step = sim.try_step(rank)?;
                last = progress(rank, &sim, (s + 1) as u64, picard_iters, step.max_final_rel());
                report(&last);
            }
            Ok(())
        }));
        let failed = |kind: &str, detail: String| Progress {
            failure: Some((kind.to_string(), detail)),
            ..last
        };
        match stepped {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                report(&failed("solver_error", e.to_string()));
                panic!("time step failed beyond recovery: {e}");
            }
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".to_string());
                report(&failed("panic", detail));
                resume_unwind(payload);
            }
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

/// This rank's progress record: its comm counters, newest complete
/// checkpoint and latest health verdict.
fn progress(rank: &Rank, sim: &Simulation, step: u64, picard: u64, residual: f64) -> Progress {
    let t = rank.trace_snapshot().total();
    Progress {
        step,
        picard,
        residual,
        msgs: t.msgs,
        bytes: t.msg_bytes,
        collectives: t.collectives,
        checkpoint: sim.last_checkpoint(),
        health: sim
            .last_health_verdict()
            .map(|v| (v.kind.label().to_string(), v.step as u64)),
        failure: None,
    }
}
