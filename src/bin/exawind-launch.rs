//! Multi-process launcher: spawn one worker process per rank of a
//! socket-transport job (the `mpirun` of this codebase).
//!
//! ```sh
//! # 4 ranks over loopback with ephemeral ports (rendezvous file):
//! exawind-launch -n 4 -- path/to/worker --its args
//! # explicit endpoints, one host:port line per rank (how remote
//! # machines are named — run the matching rank's launcher on each):
//! exawind-launch -n 4 --hostfile hosts.txt -- path/to/worker
//! # supervised with checkpoint/restart: a dead rank fences the cohort
//! # and relaunches it from the newest complete checkpoint generation:
//! exawind-launch -n 4 --checkpoint-every 5 --checkpoint-dir ckpt \
//!     --max-restarts 2 -- path/to/worker
//! ```
//!
//! Every child inherits this environment plus one
//! [`exawind::env::LaunchEnv`] — the socket transport, its rank, the
//! shared size, and the rendezvous path (a fresh temp file per
//! incarnation) or the host file path; `exawind::env` is the single
//! definition of those variables for both ends, and `parcomm::socket`
//! is the wire-up the workers then perform. Stdout/stderr pass through.
//!
//! The launcher also opens a loopback monitor endpoint and exports its
//! address. Workers that heartbeat (exawind-worker does; arbitrary
//! commands simply don't connect) drive a once-a-second status line on
//! stderr, stall detection — a live rank silent for
//! `--stall-timeout` seconds (default 120) takes the job down with exit
//! code 3 — and, on any abnormal exit, a partial per-rank progress
//! report (including each rank's newest complete checkpoint) plus each
//! dead rank's `crash-<rank>.json` breadcrumb.
//!
//! With `--checkpoint-every` the launcher becomes a supervisor: the
//! checkpoint interval and directory are exported so workers publish
//! checkpoint generations, and a rank death no longer ends the job —
//! the surviving ranks are fenced (killed; they could only deadlock
//! against the dead peer), and the whole cohort is relaunched with the
//! resume flag and an incremented incarnation, resuming
//! bitwise-identically from the newest complete generation. At most
//! `--max-restarts` relaunches (default 2) are attempted; a cohort that
//! keeps dying exits with the original failure code. Stalls are never restarted: a hung rank is a
//! bug, not a transient death.
//!
//! A cold start refuses a checkpoint directory whose manifest already
//! names generations — stepping from 0 against a previous job's
//! manifest would fail at the first publish and the relaunch would then
//! resume the *old* job's state. `--resume` opts into continuing such a
//! run (the first incarnation is launched with the resume flag).

use std::path::{Path, PathBuf};
use std::process::{exit, Child, Command};
use std::time::{Duration, Instant};

use exawind::env::{self, LaunchEnv};
use exawind::nalu_core::CheckpointCfg;
use exawind::parcomm::{Heartbeat, MonitorServer, WireUp, WorkerEnv};
use exawind::resilience::checkpoint;
use exawind::telemetry;

struct Args {
    ranks: usize,
    hostfile: Option<PathBuf>,
    stall_timeout: Duration,
    checkpoint_every: usize,
    checkpoint_dir: PathBuf,
    max_restarts: u64,
    resume: bool,
    command: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: exawind-launch -n <ranks> [--hostfile <path>] [--stall-timeout <secs>] \
         [--checkpoint-every <steps>] [--checkpoint-dir <path>] [--max-restarts <n>] \
         [--resume] [--] <command> [args...]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut ranks = None;
    let mut hostfile = None;
    let mut stall_timeout = Duration::from_secs(120);
    let mut checkpoint_every = 0usize;
    let mut checkpoint_dir = PathBuf::from(env::DEFAULT_CHECKPOINT_DIR);
    let mut max_restarts = 2u64;
    let mut resume = false;
    let mut command = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "-n" | "--ranks" => {
                let v = argv.get(i + 1).unwrap_or_else(|| usage());
                ranks = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("exawind-launch: bad rank count {v:?}");
                    exit(2);
                }));
                i += 2;
            }
            "--hostfile" => {
                hostfile = Some(PathBuf::from(argv.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--stall-timeout" => {
                let v = argv.get(i + 1).unwrap_or_else(|| usage());
                stall_timeout = Duration::from_secs(v.parse().unwrap_or_else(|_| {
                    eprintln!("exawind-launch: bad stall timeout {v:?}");
                    exit(2);
                }));
                i += 2;
            }
            "--checkpoint-every" => {
                let v = argv.get(i + 1).unwrap_or_else(|| usage());
                checkpoint_every = v.parse().unwrap_or_else(|_| {
                    eprintln!("exawind-launch: bad checkpoint interval {v:?}");
                    exit(2);
                });
                i += 2;
            }
            "--checkpoint-dir" => {
                checkpoint_dir = PathBuf::from(argv.get(i + 1).unwrap_or_else(|| usage()));
                i += 2;
            }
            "--max-restarts" => {
                let v = argv.get(i + 1).unwrap_or_else(|| usage());
                max_restarts = v.parse().unwrap_or_else(|_| {
                    eprintln!("exawind-launch: bad restart budget {v:?}");
                    exit(2);
                });
                i += 2;
            }
            "--resume" => {
                resume = true;
                i += 1;
            }
            "--" => {
                command.extend(argv[i + 1..].iter().cloned());
                break;
            }
            flag if flag.starts_with('-') && command.is_empty() => {
                eprintln!("exawind-launch: unknown flag {flag:?}");
                usage();
            }
            _ => {
                command.extend(argv[i..].iter().cloned());
                break;
            }
        }
    }
    let Some(ranks) = ranks else { usage() };
    if ranks == 0 || command.is_empty() {
        usage();
    }
    if resume && checkpoint_every == 0 {
        eprintln!("exawind-launch: --resume requires --checkpoint-every");
        exit(2);
    }
    Args {
        ranks,
        hostfile,
        stall_timeout,
        checkpoint_every,
        checkpoint_dir,
        max_restarts,
        resume,
        command,
    }
}

/// How one incarnation of the cohort ended.
enum Outcome {
    /// Every rank exited 0.
    Done,
    /// A rank died or exited non-zero (first observed).
    Failed { rank: usize, code: i32 },
    /// Live ranks went silent past the stall timeout.
    Stalled(Vec<usize>),
}

fn main() {
    let args = parse_args();

    // A checkpoint directory left over from a previous job must never be
    // picked up by accident: the cold-started cohort would step from 0,
    // die at its first publish ("generation not newer than manifest
    // latest"), and the supervised relaunch would then silently resume
    // the *old* job's state while appearing to succeed. A cold start
    // therefore refuses a manifest that already names generations;
    // --resume opts into continuing that run.
    if args.checkpoint_every > 0 && !args.resume {
        match checkpoint::read_manifest(&args.checkpoint_dir) {
            Ok(Some(m)) if m.latest().is_some() => {
                eprintln!(
                    "exawind-launch: checkpoint dir {} already names generation {} \
                     (a previous run); pass --resume to continue it or point \
                     --checkpoint-dir at a fresh directory",
                    args.checkpoint_dir.display(),
                    m.latest().unwrap()
                );
                exit(2);
            }
            Err(e) => {
                eprintln!(
                    "exawind-launch: checkpoint dir {} has an unreadable manifest ({e}); \
                     refusing to overwrite it",
                    args.checkpoint_dir.display()
                );
                exit(2);
            }
            _ => {}
        }
    }

    // Live-monitoring endpoint, shared by every incarnation. A failed
    // bind degrades to the old unmonitored behavior rather than
    // refusing to launch.
    let monitor = match MonitorServer::bind() {
        Ok(m) => Some(m),
        Err(e) => {
            eprintln!("exawind-launch: monitor disabled (bind failed: {e})");
            None
        }
    };

    let start = Instant::now();
    let mut last_hb: Vec<Option<Heartbeat>> = vec![None; args.ranks];
    let mut total_heartbeats: u64 = 0;
    let mut incarnation: u64 = 0;
    loop {
        // A fresh rendezvous path per incarnation: rank 0 of the new
        // cohort must never read the dead cohort's endpoint table.
        let rendezvous = std::env::temp_dir().join(format!(
            "exawind-rendezvous-{}-{incarnation}.addr",
            std::process::id()
        ));
        if args.hostfile.is_none() {
            let _ = std::fs::remove_file(&rendezvous);
        }
        let children = spawn_cohort(&args, monitor.as_ref(), &rendezvous, incarnation);
        let (outcome, survivors) = supervise(
            &args,
            monitor.as_ref(),
            children,
            &mut last_hb,
            &mut total_heartbeats,
            start,
        );
        if args.hostfile.is_none() {
            let _ = std::fs::remove_file(&rendezvous);
        }
        match outcome {
            Outcome::Done => {
                let reporting = last_hb.iter().flatten().count();
                let restarts = if incarnation > 0 {
                    format!(" after {incarnation} restart(s)")
                } else {
                    String::new()
                };
                println!(
                    "exawind-launch: {} rank(s) completed{restarts}; monitor received \
                     {total_heartbeats} heartbeat(s) from {reporting} rank(s)",
                    args.ranks
                );
                return;
            }
            Outcome::Stalled(mut stalled) => {
                // Report the most-behind rank first: likeliest culprit.
                // A stall is a hang, not a death — never restarted.
                stalled.sort_by_key(|&rank| last_hb[rank].map_or(0, |h| h.step));
                for &rank in &stalled {
                    let step = last_hb[rank].map_or(0, |h| h.step);
                    eprintln!(
                        "exawind-launch: rank {rank} stalled at step {step} (no heartbeat)"
                    );
                }
                dump_partial_report(&last_hb);
                fence(survivors);
                exit(3);
            }
            Outcome::Failed { rank, code } => {
                eprintln!(
                    "exawind-launch: rank {rank} exited with code {code}; fencing {} \
                     surviving rank(s)",
                    survivors.len()
                );
                fence(survivors);
                dump_partial_report(&last_hb);
                dump_crash_breadcrumbs(args.ranks);
                let supervised = args.checkpoint_every > 0;
                if supervised && incarnation < args.max_restarts {
                    incarnation += 1;
                    let from = newest_generation(&args.checkpoint_dir).map_or_else(
                        || "a cold start (no complete generation)".to_string(),
                        |g| format!("checkpoint generation {g}"),
                    );
                    eprintln!(
                        "exawind-launch: relaunching cohort from {from} \
                         (restart {incarnation}/{})",
                        args.max_restarts
                    );
                    continue;
                }
                if supervised {
                    eprintln!(
                        "exawind-launch: restart budget exhausted ({} restart(s))",
                        args.max_restarts
                    );
                }
                exit(if code == 0 { 1 } else { code });
            }
        }
    }
}

/// Spawn one worker per rank with the incarnation's environment.
/// Exits the launcher (killing already-spawned ranks) on spawn failure.
fn spawn_cohort(
    args: &Args,
    monitor: Option<&MonitorServer>,
    rendezvous: &Path,
    incarnation: u64,
) -> Vec<(usize, Child)> {
    let supervised = args.checkpoint_every > 0;
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(args.ranks);
    for rank in 0..args.ranks {
        let mut cmd = Command::new(&args.command[0]);
        cmd.args(&args.command[1..]);
        LaunchEnv {
            worker: WorkerEnv {
                rank,
                size: args.ranks,
                wireup: match &args.hostfile {
                    Some(hf) => WireUp::Hostfile(hf.clone()),
                    None => WireUp::Rendezvous(rendezvous.to_path_buf()),
                },
            },
            monitor: monitor.map(MonitorServer::addr),
            checkpoint: supervised.then(|| CheckpointCfg {
                every: args.checkpoint_every,
                dir: args.checkpoint_dir.clone(),
                incarnation,
            }),
            resume: supervised && (incarnation > 0 || args.resume),
        }
        .export(&mut cmd);
        match cmd.spawn() {
            Ok(child) => children.push((rank, child)),
            Err(e) => {
                eprintln!("exawind-launch: cannot spawn rank {rank} ({}): {e}", args.command[0]);
                fence(children);
                exit(1);
            }
        }
    }
    children
}

/// Poll one incarnation to its end. Polling instead of waiting in rank
/// order means a mid-job death is observed promptly, before survivors
/// block forever on the dead peer. Between waits, drain the monitor
/// queue, render a periodic status line, and flag ranks that have gone
/// silent past the stall timeout. Returns the outcome and whichever
/// children are still running (for the caller to fence).
fn supervise(
    args: &Args,
    monitor: Option<&MonitorServer>,
    mut children: Vec<(usize, Child)>,
    last_hb: &mut [Option<Heartbeat>],
    total_heartbeats: &mut u64,
    start: Instant,
) -> (Outcome, Vec<(usize, Child)>) {
    let mut last_seen: Vec<Instant> = vec![Instant::now(); args.ranks];
    let mut last_status = Instant::now();
    while !children.is_empty() {
        if let Some(m) = monitor {
            for hb in m.poll() {
                if hb.rank < args.ranks {
                    *total_heartbeats += 1;
                    last_seen[hb.rank] = Instant::now();
                    last_hb[hb.rank] = Some(hb);
                }
            }
        }
        // Scan the WHOLE cohort before acting on a failure: returning
        // early would drop the not-yet-checked Child handles, leaving
        // those ranks unkilled and unreaped — orphans that outlive the
        // relaunch, keep heartbeating into the new incarnation's monitor
        // slots, and overwrite its crash breadcrumbs.
        let mut still_running = Vec::with_capacity(children.len());
        let mut failed: Option<(usize, i32)> = None;
        for (rank, mut child) in children {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => {}
                Ok(Some(status)) => {
                    if failed.is_none() {
                        failed = Some((rank, status.code().unwrap_or(1)));
                    }
                }
                Ok(None) => still_running.push((rank, child)),
                Err(e) => {
                    eprintln!("exawind-launch: waiting on rank {rank}: {e}");
                    if failed.is_none() {
                        failed = Some((rank, 1));
                    }
                }
            }
        }
        if let Some((rank, code)) = failed {
            return (Outcome::Failed { rank, code }, still_running);
        }
        children = still_running;
        if monitor.is_some() && !children.is_empty() {
            let stalled: Vec<usize> = children
                .iter()
                .map(|&(rank, _)| rank)
                .filter(|&rank| last_seen[rank].elapsed() > args.stall_timeout)
                .collect();
            if !stalled.is_empty() {
                return (Outcome::Stalled(stalled), children);
            }
            if *total_heartbeats > 0 && last_status.elapsed() >= Duration::from_secs(1) {
                last_status = Instant::now();
                eprintln!("{}", status_line(start, last_hb, children.len()));
            }
        }
        if !children.is_empty() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    (Outcome::Done, Vec::new())
}

/// Kill and reap the surviving ranks of a broken cohort: they could
/// only deadlock against the dead peer, and a relaunch needs the old
/// processes gone before new ones rendezvous.
fn fence(children: Vec<(usize, Child)>) {
    for (_, mut child) in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Newest complete checkpoint generation in `dir`, if a readable
/// manifest names one.
fn newest_generation(dir: &Path) -> Option<u64> {
    checkpoint::read_manifest(dir).ok().flatten().and_then(|m| m.latest())
}

/// One-line live status: elapsed time, per-rank completed steps, the
/// worst reported residual, and aggregate message traffic.
fn status_line(start: Instant, last_hb: &[Option<Heartbeat>], live: usize) -> String {
    let steps: Vec<String> = last_hb
        .iter()
        .map(|h| h.map_or_else(|| "-".to_string(), |h| h.step.to_string()))
        .collect();
    let worst_res = last_hb
        .iter()
        .flatten()
        .map(|h| h.residual)
        .fold(0.0_f64, f64::max);
    let msgs: u64 = last_hb.iter().flatten().map(|h| h.msgs).sum();
    let bytes: u64 = last_hb.iter().flatten().map(|h| h.bytes).sum();
    // Most recent solver-health degradation verdict any rank reported:
    // rendered as `kind@step` so a slow convergence slide is visible
    // live, not just in the post-run report.
    let health = last_hb
        .iter()
        .flatten()
        .filter_map(|h| h.health)
        .max_by_key(|&(_, step)| step)
        .and_then(|(code, step)| {
            let kind = telemetry::health::DegradationKind::from_code(code)?;
            Some(format!(" health: {}@step {step}", kind.label()))
        })
        .unwrap_or_default();
    format!(
        "exawind-launch: [{:6.1}s] steps [{}] residual {:.2e} msgs {} bytes {} ({} rank(s) live){}",
        start.elapsed().as_secs_f64(),
        steps.join(" "),
        worst_res,
        msgs,
        bytes,
        live,
        health
    )
}

/// Last known progress per rank, printed on any abnormal exit — this is
/// the partial comm report a post-mortem starts from. Includes the
/// newest complete checkpoint each rank reported, i.e. where a
/// relaunch would resume.
fn dump_partial_report(last_hb: &[Option<Heartbeat>]) {
    eprintln!("exawind-launch: last known progress per rank:");
    for (rank, hb) in last_hb.iter().enumerate() {
        match hb {
            Some(h) => {
                let ckpt = h.checkpoint.map_or_else(
                    || "none".to_string(),
                    |(g, s)| format!("generation {g} (step {s})"),
                );
                eprintln!(
                    "  rank {rank}: step {} picard {} residual {:.2e} msgs {} bytes {} \
                     collectives {} checkpoint {ckpt}",
                    h.step, h.picard, h.residual, h.msgs, h.bytes, h.collectives
                );
            }
            None => eprintln!("  rank {rank}: no heartbeat received"),
        }
    }
}

/// Surface the workers' `crash-<rank>.json` breadcrumbs (written to the
/// crash directory, default cwd) so the failing rank and the phase it
/// died in appear directly in the launcher's output.
fn dump_crash_breadcrumbs(ranks: usize) {
    let dir = env::crash_dir();
    for rank in 0..ranks {
        let path = dir.join(format!("crash-{rank}.json"));
        if let Ok(text) = std::fs::read_to_string(&path) {
            eprintln!(
                "exawind-launch: rank {rank} breadcrumb ({}): {}",
                path.display(),
                text.trim()
            );
        }
    }
}
