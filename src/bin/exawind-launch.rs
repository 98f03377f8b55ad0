//! Multi-process launcher: spawn one worker process per rank of a
//! socket-transport job on this host (the `mpirun` of this codebase).
//!
//! ```sh
//! # 4 ranks, wired up through per-rank sockets in the temp directory:
//! exawind-launch -n 4 -- path/to/worker --its args
//! # supervised with checkpoint/restart: a dead rank fences the cohort
//! # and relaunches it from the newest complete checkpoint generation:
//! exawind-launch -n 4 --checkpoint-every 5 --checkpoint-dir ckpt \
//!     --max-restarts 2 -- path/to/worker
//! ```
//!
//! Every child inherits this environment plus one
//! [`exawind::env::LaunchEnv`] — the socket transport, its rank, the
//! shared size, and the rendezvous path prefix (a fresh one in the temp
//! directory per incarnation); `exawind::env` is the single definition
//! of those variables for both ends, and `parcomm::socket` is the
//! wire-up the workers then perform: rank r listens on the Unix-domain
//! socket `<rendezvous>.sock<r>` until its mesh is up. Stdout/stderr
//! pass through. A temp directory whose socket paths would exceed the
//! Linux limit of 107 bytes is refused with exit code 2 before any rank
//! is spawned.
//!
//! A worker reports back through one more file per rank,
//! `<rendezvous>.rank<r>`: its [`exawind::env::Progress`] record, which
//! exawind-worker replaces after set-up, after every step and once more
//! when it fails (arbitrary commands simply write none). The launcher
//! reads every rank's record on each poll and once more after the
//! cohort has ended, then deletes the records and any socket file a
//! rank left behind. The records drive a
//! once-a-second status line on stderr, stall detection — a live rank
//! whose step count has not moved for `--stall-timeout` seconds (default
//! 120) since its first record takes the job down with exit code 3 —
//! and, on any abnormal exit, a partial per-rank progress report
//! (including each rank's newest complete checkpoint) plus each failed
//! rank's failure kind and detail.
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

use exawind::env::{self, LaunchEnv, Progress};
use exawind::nalu_core::CheckpointCfg;
use exawind::parcomm::{socket_path, WorkerEnv};
use exawind::resilience::checkpoint;

struct Args {
    ranks: usize,
    stall_timeout: Duration,
    checkpoint_every: usize,
    checkpoint_dir: PathBuf,
    max_restarts: u64,
    resume: bool,
    command: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: exawind-launch -n <ranks> [--stall-timeout <secs>] \
         [--checkpoint-every <steps>] [--checkpoint-dir <path>] [--max-restarts <n>] \
         [--resume] [--] <command> [args...]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut ranks = None;
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
            Ok(Some(m)) if let Some(latest) = m.latest() => {
                eprintln!(
                    "exawind-launch: checkpoint dir {} already names generation {latest} \
                     (a previous run); pass --resume to continue it or point \
                     --checkpoint-dir at a fresh directory",
                    args.checkpoint_dir.display(),
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

    let start = Instant::now();
    let mut incarnation: u64 = 0;
    loop {
        // A fresh rendezvous prefix per incarnation: no rank of the new
        // cohort can dial a dead cohort's socket, and no rank's report
        // can be a dead cohort's record.
        let rendezvous = std::env::temp_dir().join(format!(
            "exawind-rendezvous-{}-{incarnation}",
            std::process::id()
        ));
        if let Err(reason) = env::check_socket_paths(&rendezvous, args.ranks) {
            eprintln!("exawind-launch: {reason}; set TMPDIR to a shorter directory");
            exit(2);
        }
        let status: Vec<PathBuf> = (0..args.ranks)
            .map(|rank| env::status_path(&rendezvous, rank))
            .collect();
        let sockets: Vec<PathBuf> = (0..args.ranks)
            .map(|rank| socket_path(&rendezvous, rank))
            .collect();
        let remove_files = || {
            for path in status.iter().chain(&sockets) {
                let _ = std::fs::remove_file(path);
            }
        };
        remove_files();
        let children = spawn_cohort(&args, &rendezvous, incarnation);
        let mut records: Vec<Option<Progress>> = vec![None; args.ranks];
        let (outcome, survivors) = supervise(&args, children, &status, &mut records, start);
        let fenced = survivors.len();
        fence(survivors);
        read_records(&status, &mut records);
        remove_files();
        match outcome {
            Outcome::Done => {
                let reported = records.iter().flatten().count();
                let restarts = if incarnation > 0 {
                    format!(" after {incarnation} restart(s)")
                } else {
                    String::new()
                };
                println!(
                    "exawind-launch: {} rank(s) completed{restarts}; {reported}/{} rank(s) \
                     reported progress",
                    args.ranks, args.ranks
                );
                return;
            }
            Outcome::Stalled(mut stalled) => {
                // Report the most-behind rank first: likeliest culprit.
                // A stall is a hang, not a death — never restarted.
                let step = |rank: usize| records[rank].as_ref().map_or(0, |p| p.step);
                stalled.sort_by_key(|&rank| step(rank));
                for &rank in &stalled {
                    eprintln!(
                        "exawind-launch: rank {rank} stalled at step {} (no progress for {}s)",
                        step(rank),
                        args.stall_timeout.as_secs()
                    );
                }
                dump_partial_report(&records);
                exit(3);
            }
            Outcome::Failed { rank, code } => {
                eprintln!(
                    "exawind-launch: rank {rank} exited with code {code}; fenced {fenced} \
                     surviving rank(s)"
                );
                dump_partial_report(&records);
                for (rank, p) in records.iter().enumerate() {
                    if let Some((kind, detail)) = p.as_ref().and_then(|p| p.failure.as_ref()) {
                        eprintln!("exawind-launch: rank {rank} failed ({kind}): {detail}");
                    }
                }
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
fn spawn_cohort(args: &Args, rendezvous: &Path, incarnation: u64) -> Vec<(usize, Child)> {
    let supervised = args.checkpoint_every > 0;
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(args.ranks);
    for rank in 0..args.ranks {
        let mut cmd = Command::new(&args.command[0]);
        cmd.args(&args.command[1..]);
        LaunchEnv {
            worker: WorkerEnv {
                rank,
                size: args.ranks,
                rendezvous: rendezvous.to_path_buf(),
            },
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

/// Read every rank's progress record that is there now; a rank without
/// a whole one keeps the record read before.
fn read_records(status: &[PathBuf], records: &mut [Option<Progress>]) {
    for (path, record) in status.iter().zip(records) {
        if let Some(p) = Progress::read(path) {
            *record = Some(p);
        }
    }
}

/// Poll one incarnation to its end. Polling instead of waiting in rank
/// order means a mid-job death is observed promptly, before survivors
/// block forever on the dead peer. Between waits, read the progress
/// records, render a periodic status line, and flag ranks whose step
/// count has not moved past the stall timeout. A rank's stall clock
/// starts at its first record, so a command that never reports is never
/// declared stalled. Returns the outcome and whichever children are
/// still running (for the caller to fence).
fn supervise(
    args: &Args,
    mut children: Vec<(usize, Child)>,
    status: &[PathBuf],
    records: &mut [Option<Progress>],
    start: Instant,
) -> (Outcome, Vec<(usize, Child)>) {
    let mut last_moved: Vec<Option<(u64, Instant)>> = vec![None; args.ranks];
    let mut last_status = Instant::now();
    while !children.is_empty() {
        read_records(status, records);
        for (moved, p) in last_moved.iter_mut().zip(records.iter()) {
            if let Some(p) = p.as_ref().filter(|p| moved.is_none_or(|(step, _)| step != p.step)) {
                *moved = Some((p.step, Instant::now()));
            }
        }
        // Scan the WHOLE cohort before acting on a failure: returning
        // early would drop the not-yet-checked Child handles, leaving
        // those ranks unkilled and unreaped — orphans that outlive the
        // relaunch.
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
        if children.is_empty() {
            break;
        }
        let stalled: Vec<usize> = children
            .iter()
            .map(|&(rank, _)| rank)
            .filter(|&rank| last_moved[rank].is_some_and(|(_, t)| t.elapsed() > args.stall_timeout))
            .collect();
        if !stalled.is_empty() {
            return (Outcome::Stalled(stalled), children);
        }
        if records.iter().any(Option::is_some) && last_status.elapsed() >= Duration::from_secs(1) {
            last_status = Instant::now();
            eprintln!("{}", status_line(start, records, children.len()));
        }
        std::thread::sleep(Duration::from_millis(20));
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
fn status_line(start: Instant, records: &[Option<Progress>], live: usize) -> String {
    let steps: Vec<String> = records
        .iter()
        .map(|p| p.as_ref().map_or_else(|| "-".to_string(), |p| p.step.to_string()))
        .collect();
    let reported = || records.iter().flatten();
    let worst_res = reported().map(|p| p.residual).fold(0.0_f64, f64::max);
    let msgs: u64 = reported().map(|p| p.msgs).sum();
    let bytes: u64 = reported().map(|p| p.bytes).sum();
    // Most recent solver-health degradation verdict any rank reported:
    // rendered as `kind@step` so a slow convergence slide is visible
    // live, not just in the post-run report.
    let health = reported()
        .filter_map(|p| p.health.as_ref())
        .max_by_key(|(_, step)| *step)
        .map(|(verdict, step)| format!(" health: {verdict}@step {step}"))
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
fn dump_partial_report(records: &[Option<Progress>]) {
    eprintln!("exawind-launch: last known progress per rank:");
    for (rank, p) in records.iter().enumerate() {
        match p {
            Some(p) => {
                let ckpt = p.checkpoint.map_or_else(
                    || "none".to_string(),
                    |(g, s)| format!("generation {g} (step {s})"),
                );
                eprintln!(
                    "  rank {rank}: step {} picard {} residual {:.2e} msgs {} bytes {} \
                     collectives {} checkpoint {ckpt}",
                    p.step, p.picard, p.residual, p.msgs, p.bytes, p.collectives
                );
            }
            None => eprintln!("  rank {rank}: no progress record"),
        }
    }
}
