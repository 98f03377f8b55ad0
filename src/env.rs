//! The process environment, read once at the binary edge.
//!
//! Every `EXAWIND_*` variable is named, parsed and written in this
//! module and nowhere else. A binary calls [`RunEnv::from_process`]
//! first thing in `main` and gets a [`SolverConfig`] (plus the few
//! things that are not solver configuration: where telemetry goes,
//! whether a launcher started this process, the worker test hooks) or
//! exits 2 naming the variable and the value it could not use. The
//! library crates read no environment: they are functions of the
//! configuration they are handed. `exawind-launch` talks to its workers
//! through the same definitions ([`LaunchEnv::export`] writes what
//! [`RunEnv::parse`] reads). README.md ("Environment") is the
//! user-facing listing.
//!
//! An empty value means unset, for every variable.

use std::collections::BTreeMap;
use std::ffi::{OsStr, OsString};
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::Command;
use std::str::FromStr;
use std::time::Duration;

use nalu_core::{CheckpointCfg, SolverConfig};
use parcomm::{Comm, Rank, TransportKind, WireUp, WorkerEnv};
use resilience::FaultPlan;
use sparse_kit::KernelPolicy;

/// Transport backend: `inproc` (default) or `socket`.
pub const TRANSPORT: &str = "EXAWIND_TRANSPORT";
/// SpMV kernel backend policy: `auto` (default), `csr` or `sellcs`.
pub const KERNELS: &str = "EXAWIND_KERNELS";
/// Fault-injection plan (grammar in `resilience::faults`).
pub const FAULTS: &str = "EXAWIND_FAULTS";
/// Enables telemetry and names the JSONL export path.
pub const TELEMETRY: &str = "EXAWIND_TELEMETRY";
/// Publish a checkpoint generation every N steps (0 = disabled).
pub const CHECKPOINT_EVERY: &str = "EXAWIND_CHECKPOINT_EVERY";
/// Directory holding checkpoint files and the manifest.
pub const CHECKPOINT_DIR: &str = "EXAWIND_CHECKPOINT_DIR";
/// Launcher → worker: the rank this process hosts.
pub const RANK: &str = "EXAWIND_RANK";
/// Launcher → worker: rank count of the job.
pub const SIZE: &str = "EXAWIND_SIZE";
/// Launcher → worker: rendezvous file path (loopback, ephemeral ports).
pub const RENDEZVOUS: &str = "EXAWIND_RENDEZVOUS";
/// Launcher → worker: host file path (one `host:port` per rank).
pub const HOSTFILE: &str = "EXAWIND_HOSTFILE";
/// Launcher → worker: `ip:port` of the launcher's heartbeat monitor.
pub const MONITOR: &str = "EXAWIND_MONITOR";
/// Launcher → worker: `1` = restore the newest complete checkpoint
/// generation before stepping.
pub const RESUME: &str = "EXAWIND_RESUME";
/// Launcher → worker: how many times the cohort has been relaunched.
pub const RESTART_COUNT: &str = "EXAWIND_RESTART_COUNT";
/// Directory for `crash-<rank>.json` breadcrumbs (default: cwd).
pub const CRASH_DIR: &str = "EXAWIND_CRASH_DIR";
/// Test hook: this rank of `exawind-worker` hangs after its first
/// heartbeat.
pub const STALL_RANK: &str = "EXAWIND_STALL_RANK";
/// Test hook: how long [`STALL_RANK`] hangs, in seconds (default 60).
pub const STALL_SECS: &str = "EXAWIND_STALL_SECS";

/// Every variable this program reads.
pub const NAMES: [&str; 16] = [
    TRANSPORT,
    KERNELS,
    FAULTS,
    TELEMETRY,
    CHECKPOINT_EVERY,
    CHECKPOINT_DIR,
    RANK,
    SIZE,
    RENDEZVOUS,
    HOSTFILE,
    MONITOR,
    RESUME,
    RESTART_COUNT,
    CRASH_DIR,
    STALL_RANK,
    STALL_SECS,
];

/// Variables only `exawind-launch` sets, always together with [`RANK`].
const LAUNCHER_ONLY: [&str; 6] = [SIZE, RENDEZVOUS, HOSTFILE, MONITOR, RESUME, RESTART_COUNT];

/// Checkpoint directory when [`CHECKPOINT_DIR`] is unset.
pub const DEFAULT_CHECKPOINT_DIR: &str = "exawind-checkpoints";

/// A variable whose value cannot be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    pub var: &'static str,
    pub value: String,
    pub reason: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for EnvError {}

/// What `exawind-launch` tells one worker process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaunchEnv {
    /// Rank, job size and how to find the peers.
    pub worker: WorkerEnv,
    /// The launcher's heartbeat endpoint, if it could bind one.
    pub monitor: Option<SocketAddr>,
    /// Supervised checkpointing (`--checkpoint-every`), carrying the
    /// cohort's incarnation.
    pub checkpoint: Option<CheckpointCfg>,
    /// Restore the newest complete generation before the first step.
    pub resume: bool,
}

impl LaunchEnv {
    /// The wire form: the variables [`RunEnv::parse`] reads this back
    /// from.
    pub fn vars(&self) -> Vec<(&'static str, OsString)> {
        let mut out: Vec<(&'static str, OsString)> = vec![
            (TRANSPORT, TransportKind::Socket.label().into()),
            (RANK, self.worker.rank.to_string().into()),
            (SIZE, self.worker.size.to_string().into()),
        ];
        out.push(match &self.worker.wireup {
            WireUp::Hostfile(p) => (HOSTFILE, p.into()),
            WireUp::Rendezvous(p) => (RENDEZVOUS, p.into()),
        });
        if let Some(addr) = self.monitor {
            out.push((MONITOR, addr.to_string().into()));
        }
        if let Some(ck) = &self.checkpoint {
            out.push((CHECKPOINT_EVERY, ck.every.to_string().into()));
            out.push((CHECKPOINT_DIR, ck.dir.clone().into()));
            out.push((RESTART_COUNT, ck.incarnation.to_string().into()));
        }
        if self.resume {
            out.push((RESUME, "1".into()));
        }
        out
    }

    /// Set the wire variables on a worker's command line environment.
    pub fn export(&self, cmd: &mut Command) {
        cmd.envs(self.vars());
    }
}

/// Everything the environment says about this run.
#[derive(Clone, Debug)]
pub struct RunEnv {
    /// [`SolverConfig::default`] with `transport`, `kernels`, `faults`,
    /// `telemetry` and `checkpoint` as the environment selects them.
    pub config: SolverConfig,
    /// Where the telemetry stream goes (`config.telemetry` is on iff
    /// this is set).
    pub telemetry_path: Option<String>,
    /// `Some` iff `exawind-launch` started this process as one rank of
    /// a multi-process job.
    pub launch: Option<LaunchEnv>,
    /// Where crash breadcrumbs are written and looked for.
    pub crash_dir: PathBuf,
    /// Worker test hook: `(rank, how long)` to hang after the first
    /// heartbeat.
    pub stall: Option<(usize, Duration)>,
}

/// The non-empty values of our variables.
struct Vars(BTreeMap<&'static str, OsString>);

impl Vars {
    fn collect<K: AsRef<OsStr>, V: AsRef<OsStr>>(vars: impl IntoIterator<Item = (K, V)>) -> Vars {
        let mut map = BTreeMap::new();
        for (k, v) in vars {
            if v.as_ref().is_empty() {
                continue;
            }
            if let Some(&name) = NAMES.iter().find(|n| OsStr::new(n) == k.as_ref()) {
                map.insert(name, v.as_ref().to_os_string());
            }
        }
        Vars(map)
    }

    fn error(&self, var: &'static str, reason: String) -> EnvError {
        let value = self
            .0
            .get(var)
            .map_or_else(String::new, |v| v.to_string_lossy().into_owned());
        EnvError { var, value, reason }
    }

    fn path(&self, var: &'static str) -> Option<PathBuf> {
        self.0.get(var).map(PathBuf::from)
    }

    /// `var`'s value through `parse`, whose `Err` is the reason.
    fn parsed<T>(
        &self,
        var: &'static str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, EnvError> {
        let Some(raw) = self.0.get(var) else {
            return Ok(None);
        };
        let text = raw
            .to_str()
            .ok_or_else(|| self.error(var, "not valid UTF-8".into()))?;
        parse(text)
            .map(Some)
            .map_err(|reason| self.error(var, reason))
    }

    fn crash_dir(&self) -> PathBuf {
        self.path(CRASH_DIR).unwrap_or_else(|| PathBuf::from("."))
    }
}

fn number<T: FromStr>(what: &'static str) -> impl FnOnce(&str) -> Result<T, String> {
    move |v| v.trim().parse().map_err(|_| format!("not {what}"))
}

/// [`CRASH_DIR`] of this process — all `exawind-launch` reads: it runs
/// arbitrary commands, so the solver variables are the workers' to
/// check.
pub fn crash_dir() -> PathBuf {
    Vars::collect(std::env::vars_os()).crash_dir()
}

impl RunEnv {
    /// Parse `(name, value)` pairs; names other than [`NAMES`] are not
    /// ours and are skipped.
    pub fn parse<K: AsRef<OsStr>, V: AsRef<OsStr>>(
        vars: impl IntoIterator<Item = (K, V)>,
    ) -> Result<RunEnv, EnvError> {
        let vars = Vars::collect(vars);

        let transport = vars
            .parsed(TRANSPORT, TransportKind::parse)?
            .unwrap_or_default();
        let kernels = vars
            .parsed(KERNELS, |v| {
                KernelPolicy::parse(v)
                    .ok_or_else(|| "unknown kernel policy (expected auto, csr or sellcs)".into())
            })?
            .unwrap_or(KernelPolicy::Auto);
        let faults = vars.parsed(FAULTS, FaultPlan::parse)?;
        let telemetry_path = vars.parsed(TELEMETRY, |v| Ok(v.to_string()))?;

        let every: usize = vars
            .parsed(CHECKPOINT_EVERY, number("a step count (0 disables)"))?
            .unwrap_or(0);
        let incarnation: u64 = vars
            .parsed(RESTART_COUNT, number("a restart count"))?
            .unwrap_or(0);
        let checkpoint = (every > 0).then(|| CheckpointCfg {
            every,
            dir: vars
                .path(CHECKPOINT_DIR)
                .unwrap_or_else(|| DEFAULT_CHECKPOINT_DIR.into()),
            incarnation,
        });

        let size: Option<usize> = vars.parsed(SIZE, number("a rank count"))?;
        let monitor = vars.parsed(MONITOR, |v| {
            v.parse::<SocketAddr>()
                .map_err(|e| format!("not an ip:port address ({e})"))
        })?;
        let resume = vars
            .parsed(RESUME, |v| match v {
                "0" => Ok(false),
                "1" => Ok(true),
                _ => Err("expected 0 or 1".into()),
            })?
            .unwrap_or(false);
        let launch = match vars.parsed(RANK, number::<usize>("a rank index"))? {
            // A half-configured launch must not run as if standalone:
            // it would silently duplicate every rank's work.
            None => {
                if let Some(&var) = LAUNCHER_ONLY.iter().find(|v| vars.0.contains_key(*v)) {
                    let reason = format!("is set but {RANK} is not (exawind-launch sets both)");
                    return Err(vars.error(var, reason));
                }
                None
            }
            Some(rank) => {
                let err = |reason: String| Err(vars.error(RANK, reason));
                let Some(size) = size else {
                    return err(format!("is set but {SIZE} is not"));
                };
                if rank >= size {
                    return err(format!("out of range for {SIZE}={size}"));
                }
                if transport != TransportKind::Socket {
                    return err(format!("a launched worker needs {TRANSPORT}=socket"));
                }
                let wireup = match (vars.path(HOSTFILE), vars.path(RENDEZVOUS)) {
                    (Some(hf), _) => WireUp::Hostfile(hf),
                    (None, Some(rv)) => WireUp::Rendezvous(rv),
                    (None, None) => {
                        return err(format!("is set but neither {RENDEZVOUS} nor {HOSTFILE} is"))
                    }
                };
                Some(LaunchEnv {
                    worker: WorkerEnv { rank, size, wireup },
                    monitor,
                    checkpoint: checkpoint.clone(),
                    resume,
                })
            }
        };

        let stall_secs: u64 = vars
            .parsed(STALL_SECS, number("a number of seconds"))?
            .unwrap_or(60);
        let stall = vars
            .parsed(STALL_RANK, number::<usize>("a rank index"))?
            .map(|r| (r, Duration::from_secs(stall_secs)));

        Ok(RunEnv {
            config: SolverConfig {
                telemetry: telemetry_path.is_some(),
                faults,
                transport,
                kernels,
                checkpoint,
                ..SolverConfig::default()
            },
            telemetry_path,
            launch,
            crash_dir: vars.crash_dir(),
            stall,
        })
    }

    /// Parse this process's environment, or print
    /// `<program>: <VAR>="<value>": <reason>` and exit 2.
    pub fn from_process(program: &str) -> RunEnv {
        RunEnv::parse(std::env::vars_os()).unwrap_or_else(|e| {
            // One write for the whole line: every worker of a launched
            // cohort rejects the same variable at the same moment onto
            // one shared stderr, and `eprintln!` writes per fragment.
            let line = format!("{program}: {e}\n");
            let _ = std::io::stderr().write_all(line.as_bytes());
            std::process::exit(2);
        })
    }

    /// Rank count of the job: the launcher's, else `default`.
    pub fn size(&self, default: usize) -> usize {
        self.launch.as_ref().map_or(default, |l| l.worker.size)
    }

    /// Whether this process hosts rank 0 (always, unless launched as
    /// another rank's worker) — the one that narrates a run.
    pub fn hosts_rank0(&self) -> bool {
        self.launch.as_ref().is_none_or(|l| l.worker.rank == 0)
    }

    /// Run `f` on every rank this process hosts: as a launched worker
    /// its one rank (a single result), else all `default_size` ranks
    /// over `config.transport` (results indexed by rank).
    pub fn run<R, F>(&self, default_size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Rank) -> R + Sync,
    {
        match &self.launch {
            Some(l) => vec![Comm::run_worker(&l.worker, f)],
            None => Comm::run_with(self.config.transport, default_size, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// A supervised, monitored rank 1 of 2 — every launcher variable
    /// in play.
    fn sample_launch() -> LaunchEnv {
        LaunchEnv {
            worker: WorkerEnv {
                rank: 1,
                size: 2,
                wireup: WireUp::Rendezvous("/tmp/rv.addr".into()),
            },
            monitor: Some("127.0.0.1:4100".parse().unwrap()),
            checkpoint: Some(CheckpointCfg {
                every: 2,
                dir: "ckpt".into(),
                incarnation: 1,
            }),
            resume: true,
        }
    }

    /// The sample launch plus one override.
    fn with(var: &'static str, value: &str) -> Result<RunEnv, EnvError> {
        let mut vars = sample_launch().vars();
        vars.push((STALL_RANK, "0".into()));
        vars.push((var, value.into()));
        RunEnv::parse(vars)
    }

    fn launch(e: &RunEnv) -> &LaunchEnv {
        e.launch.as_ref().expect("the sample is a launched worker")
    }

    fn ckpt(e: &RunEnv) -> &CheckpointCfg {
        e.config
            .checkpoint
            .as_ref()
            .expect("the sample checkpoints")
    }

    #[test]
    fn every_variable_parses_or_names_itself() {
        type Check = fn(&RunEnv) -> bool;
        const PLAN: &str = "halo-nan@momentum:2x3";
        // (variable, valid value, what it becomes, malformed value —
        // `None` for paths, which have no malformed form).
        let table: [(&str, &str, Check, Option<&str>); 16] = [
            (
                TRANSPORT,
                "socket",
                |e| e.config.transport == TransportKind::Socket,
                Some("tcp"),
            ),
            (
                KERNELS,
                "sellcs",
                |e| e.config.kernels == KernelPolicy::Sellcs,
                Some("selcs"),
            ),
            (
                FAULTS,
                PLAN,
                |e| e.config.faults == FaultPlan::parse(PLAN).ok(),
                Some("halo-nan"),
            ),
            (
                TELEMETRY,
                "run.jsonl",
                |e| e.config.telemetry && e.telemetry_path.is_some(),
                None,
            ),
            (CHECKPOINT_EVERY, "3", |e| ckpt(e).every == 3, Some("x")),
            (
                CHECKPOINT_DIR,
                "elsewhere",
                |e| ckpt(e).dir == Path::new("elsewhere"),
                None,
            ),
            (RANK, "0", |e| launch(e).worker.rank == 0, Some("one")),
            (SIZE, "4", |e| launch(e).worker.size == 4, Some("two")),
            (
                RENDEZVOUS,
                "/o.addr",
                |e| launch(e).worker.wireup == WireUp::Rendezvous("/o.addr".into()),
                None,
            ),
            (
                HOSTFILE,
                "hosts",
                |e| launch(e).worker.wireup == WireUp::Hostfile("hosts".into()),
                None,
            ),
            (
                MONITOR,
                "127.0.0.1:9",
                |e| launch(e).monitor == "127.0.0.1:9".parse().ok(),
                Some("localhost"),
            ),
            (RESUME, "0", |e| !launch(e).resume, Some("yes")),
            (RESTART_COUNT, "2", |e| ckpt(e).incarnation == 2, Some("-1")),
            (
                CRASH_DIR,
                "/tmp/crash",
                |e| e.crash_dir == Path::new("/tmp/crash"),
                None,
            ),
            (
                STALL_RANK,
                "1",
                |e| e.stall == Some((1, Duration::from_secs(60))),
                Some("r1"),
            ),
            (
                STALL_SECS,
                "5",
                |e| e.stall == Some((0, Duration::from_secs(5))),
                Some("5s"),
            ),
        ];
        assert_eq!(table.map(|row| row.0), NAMES, "one row per variable");
        for (var, good, check, bad) in table {
            let env = with(var, good).unwrap_or_else(|e| panic!("{var}={good}: {e}"));
            assert!(check(&env), "{var}={good} parsed to {env:?}");
            let Some(bad) = bad else { continue };
            let err = with(var, bad).expect_err(var);
            assert_eq!((err.var, err.value.as_str()), (var, bad), "{err}");
            let text = err.to_string();
            assert!(text.contains(var) && text.contains(bad), "{text}");
        }
    }

    #[test]
    fn launch_env_round_trips_through_its_wire_variables() {
        let mut launch = sample_launch();
        for wireup in [
            launch.worker.wireup.clone(),
            WireUp::Hostfile("hosts.txt".into()),
        ] {
            launch.worker.wireup = wireup;
            let env = RunEnv::parse(launch.vars()).unwrap();
            assert_eq!(env.launch.as_ref(), Some(&launch));
            assert_eq!(env.config.transport, TransportKind::Socket);
            assert_eq!(env.config.checkpoint, launch.checkpoint);
            assert_eq!((env.size(7), env.hosts_rank0()), (2, false));
        }
        let unsupervised = LaunchEnv {
            monitor: None,
            checkpoint: None,
            resume: false,
            ..launch
        };
        assert_eq!(
            RunEnv::parse(unsupervised.vars()).unwrap().launch,
            Some(unsupervised)
        );
    }

    #[test]
    fn half_configured_launch_is_an_error_not_a_panic() {
        // (the environment, the variable blamed, what the reason mentions)
        type Case = (
            &'static [(&'static str, &'static str)],
            &'static str,
            &'static str,
        );
        const SOCKET: (&str, &str) = (TRANSPORT, "socket");
        const RV: (&str, &str) = (RENDEZVOUS, "/tmp/rv");
        let cases: [Case; 6] = [
            (&[SOCKET, RV, (RANK, "0")], RANK, SIZE),
            (
                &[SOCKET, RV, (RANK, "2"), (SIZE, "2")],
                RANK,
                "out of range",
            ),
            (
                &[SOCKET, RV, (RANK, "0"), (SIZE, "0")],
                RANK,
                "out of range",
            ),
            (&[SOCKET, (RANK, "0"), (SIZE, "2")], RANK, HOSTFILE),
            (&[RV, (RANK, "0"), (SIZE, "2")], RANK, TRANSPORT),
            (&[SOCKET, (SIZE, "2")], SIZE, RANK),
        ];
        for (vars, var, mentions) in cases {
            let err = RunEnv::parse(vars.iter().copied()).expect_err(var);
            assert_eq!(err.var, var, "{err}");
            assert!(err.to_string().contains(mentions), "{err}");
        }
    }

    #[test]
    fn unset_empty_and_foreign_variables_leave_the_defaults() {
        let unset = RunEnv::parse([("PATH", "/bin"), ("EXAWIND_NOT_OURS", "x")]).unwrap();
        let empty = RunEnv::parse(NAMES.map(|n| (n, ""))).unwrap();
        for env in [unset, empty] {
            assert_eq!(
                format!("{:?}", env.config),
                format!("{:?}", SolverConfig::default())
            );
            assert_eq!(env.telemetry_path, None);
            assert_eq!(env.launch, None);
            assert_eq!(env.stall, None);
            assert_eq!(env.crash_dir, PathBuf::from("."));
            assert_eq!((env.size(4), env.hosts_rank0()), (4, true));
        }
    }
}
