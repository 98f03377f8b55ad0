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
//! [`RunEnv::parse`] reads), and they answer through one file per rank
//! under the rendezvous prefix ([`Progress`]). README.md ("Environment")
//! is the user-facing listing.
//!
//! An empty value means unset, for every variable.

use std::collections::BTreeMap;
use std::ffi::{OsStr, OsString};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::str::FromStr;
use std::time::Duration;

use nalu_core::{CheckpointCfg, SolverConfig};
use parcomm::{socket_path, Comm, FaultPlan, Rank, TransportKind, WorkerEnv, SOCKET_PATH_MAX};
use telemetry::Json;

/// Transport backend: `inproc` (default) or `socket`.
pub const TRANSPORT: &str = "EXAWIND_TRANSPORT";
/// Fault-injection plan (grammar in `crates/parcomm/src/faults.rs`).
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
/// Launcher → worker: path prefix of the job's per-rank socket and
/// progress files ([`parcomm::socket_path`], [`status_path`]).
pub const RENDEZVOUS: &str = "EXAWIND_RENDEZVOUS";
/// Launcher → worker: `1` = restore the newest complete checkpoint
/// generation before stepping.
pub const RESUME: &str = "EXAWIND_RESUME";
/// Launcher → worker: how many times the cohort has been relaunched.
pub const RESTART_COUNT: &str = "EXAWIND_RESTART_COUNT";
/// Test hook: this rank of `exawind-worker` hangs for [`STALL`] after
/// its first progress record.
pub const STALL_RANK: &str = "EXAWIND_STALL_RANK";
/// How long the [`STALL_RANK`] rank hangs.
pub const STALL: Duration = Duration::from_secs(60);

/// Every variable this program reads.
pub const NAMES: [&str; 11] = [
    TRANSPORT,
    FAULTS,
    TELEMETRY,
    CHECKPOINT_EVERY,
    CHECKPOINT_DIR,
    RANK,
    SIZE,
    RENDEZVOUS,
    RESUME,
    RESTART_COUNT,
    STALL_RANK,
];

/// Variables only `exawind-launch` sets, always together with [`RANK`].
const LAUNCHER_ONLY: [&str; 4] = [SIZE, RENDEZVOUS, RESUME, RESTART_COUNT];

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
            (RENDEZVOUS, self.worker.rendezvous.clone().into()),
        ];
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

    /// Where this rank writes its [`Progress`] record.
    pub fn status_path(&self) -> PathBuf {
        status_path(&self.worker.rendezvous, self.worker.rank)
    }
}

/// The [`Progress`] record file of `rank` in the cohort whose rendezvous
/// prefix is `rendezvous`: `<rendezvous>.rank<r>`, beside the rank's
/// socket ([`parcomm::socket_path`]).
pub fn status_path(rendezvous: &Path, rank: usize) -> PathBuf {
    let mut path = rendezvous.as_os_str().to_owned();
    path.push(format!(".rank{rank}"));
    path.into()
}

/// Why the ranks of a `size`-rank job cannot bind their sockets under
/// `rendezvous`: the longest path, `<rendezvous>.sock<size - 1>`, holds
/// more than [`SOCKET_PATH_MAX`] bytes. A one-rank job binds none.
pub fn check_socket_paths(rendezvous: &Path, size: usize) -> Result<(), String> {
    if size < 2 {
        return Ok(());
    }
    let longest = socket_path(rendezvous, size - 1);
    let len = longest.as_os_str().len();
    if len > SOCKET_PATH_MAX {
        return Err(format!(
            "socket path {} is {len} bytes, over the limit of {SOCKET_PATH_MAX}",
            longest.display()
        ));
    }
    Ok(())
}

/// Everything a launched worker tells `exawind-launch`: its progress,
/// and why it failed if it did. The worker replaces its record after
/// set-up, after every step and once more on failure
/// ([`Progress::write`]); the launcher reads it on every poll
/// ([`Progress::read`]) for its status line, stall detection and
/// failure reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Progress {
    /// Time steps completed (those restored from a checkpoint included).
    pub step: u64,
    /// Picard iterations of the most recent step (0 before the first).
    pub picard: u64,
    /// Worst final GMRES relative residual of the most recent step (0.0
    /// before the first; a non-finite one reads back as NaN).
    pub residual: f64,
    /// Off-rank point-to-point messages sent so far.
    pub msgs: u64,
    /// Bytes moved by those messages.
    pub bytes: u64,
    /// Collective operations entered so far.
    pub collectives: u64,
    /// Newest complete checkpoint `(generation, step)`.
    pub checkpoint: Option<(u64, u64)>,
    /// Most recent solver-health verdict: `(label, step it fired at)`.
    pub health: Option<(String, u64)>,
    /// Why the rank failed: `(kind, detail)`.
    pub failure: Option<(String, String)>,
}

impl Progress {
    /// Replace the record at `path` whole (a temp file renamed over it),
    /// so a reader never sees half of one.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        std::fs::write(&tmp, self.to_json().to_string())?;
        std::fs::rename(&tmp, path)
    }

    /// The record at `path`, or `None` when there is no whole one.
    pub fn read(path: &Path) -> Option<Progress> {
        Progress::parse(&std::fs::read_to_string(path).ok()?)
    }

    fn to_json(&self) -> Json {
        let int = |v: u64| Json::Int(v.into());
        let text = |v: &str| Json::Str(v.to_string());
        let nullable = |o: Option<[(&str, Json); 2]>| o.map_or(Json::Null, |o| Json::obj(o.into()));
        let checkpoint = self.checkpoint.map(|(g, s)| [("generation", int(g)), ("step", int(s))]);
        let health = self.health.as_ref().map(|(v, s)| [("verdict", text(v)), ("step", int(*s))]);
        let failure = self.failure.as_ref().map(|(k, d)| [("kind", text(k)), ("detail", text(d))]);
        Json::obj(vec![
            ("step", int(self.step)),
            ("picard", int(self.picard)),
            ("residual", Json::Float(self.residual)),
            ("msgs", int(self.msgs)),
            ("bytes", int(self.bytes)),
            ("collectives", int(self.collectives)),
            ("checkpoint", nullable(checkpoint)),
            ("health", nullable(health)),
            ("failure", nullable(failure)),
        ])
    }

    /// A record's text back; `None` for anything else (a truncated or
    /// foreign file, a missing field).
    fn parse(record: &str) -> Option<Progress> {
        type Obj = BTreeMap<String, Json>;
        fn int(o: &Obj, k: &str) -> Option<u64> {
            o.get(k)?.as_u64()
        }
        fn text(o: &Obj, k: &str) -> Option<String> {
            o.get(k)?.as_str().map(str::to_string)
        }
        /// `Some(None)` for a null field, `None` for a missing or
        /// malformed one.
        fn nullable<T>(o: &Obj, k: &str, f: impl FnOnce(&Obj) -> Option<T>) -> Option<Option<T>> {
            match o.get(k)? {
                Json::Null => Some(None),
                v => f(v.as_obj()?).map(Some),
            }
        }
        let json = Json::parse(record).ok()?;
        let o = json.as_obj()?;
        Some(Progress {
            step: int(o, "step")?,
            picard: int(o, "picard")?,
            residual: match o.get("residual")? {
                Json::Null => f64::NAN,
                v => v.as_f64()?,
            },
            msgs: int(o, "msgs")?,
            bytes: int(o, "bytes")?,
            collectives: int(o, "collectives")?,
            checkpoint: nullable(o, "checkpoint", |c| {
                Some((int(c, "generation")?, int(c, "step")?))
            })?,
            health: nullable(o, "health", |h| Some((text(h, "verdict")?, int(h, "step")?)))?,
            failure: nullable(o, "failure", |f| Some((text(f, "kind")?, text(f, "detail")?)))?,
        })
    }
}

/// Everything the environment says about this run.
#[derive(Clone, Debug)]
pub struct RunEnv {
    /// [`SolverConfig::default`] with `transport`, `faults`,
    /// `telemetry` and `checkpoint` as the environment selects them.
    pub config: SolverConfig,
    /// Where the telemetry stream goes (`config.telemetry` is on iff
    /// this is set).
    pub telemetry_path: Option<String>,
    /// `Some` iff `exawind-launch` started this process as one rank of
    /// a multi-process job.
    pub launch: Option<LaunchEnv>,
    /// Worker test hook: the rank that hangs for [`STALL`] after its
    /// first progress record.
    pub stall_rank: Option<usize>,
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
}

fn number<T: FromStr>(what: &'static str) -> impl FnOnce(&str) -> Result<T, String> {
    move |v| v.trim().parse().map_err(|_| format!("not {what}"))
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
                let Some(rendezvous) = vars.path(RENDEZVOUS) else {
                    return err(format!("is set but {RENDEZVOUS} is not"));
                };
                check_socket_paths(&rendezvous, size)
                    .map_err(|reason| vars.error(RENDEZVOUS, reason))?;
                Some(LaunchEnv {
                    worker: WorkerEnv { rank, size, rendezvous },
                    checkpoint: checkpoint.clone(),
                    resume,
                })
            }
        };

        let stall_rank = vars.parsed(STALL_RANK, number("a rank index"))?;

        Ok(RunEnv {
            config: SolverConfig {
                telemetry: telemetry_path.is_some(),
                faults,
                transport,
                checkpoint,
                ..SolverConfig::default()
            },
            telemetry_path,
            launch,
            stall_rank,
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

    /// A supervised rank 1 of 2 — every launcher variable in play.
    fn sample_launch() -> LaunchEnv {
        LaunchEnv {
            worker: WorkerEnv {
                rank: 1,
                size: 2,
                rendezvous: "/tmp/rv.addr".into(),
            },
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
        // 102 bytes: rank 1's socket path, `<LONG>.sock1`, holds 108.
        const LONG: &str = concat!(
            "/rendezvous/rendezvous/rendezvous/rendezvous/rendezvous",
            "/rendezvous/rendezvous/rendezvous/rendezvous/rv"
        );
        // (variable, valid value, what it becomes, malformed value —
        // `None` for paths taken as they are).
        let table: [(&str, &str, Check, Option<&str>); 11] = [
            (
                TRANSPORT,
                "socket",
                |e| e.config.transport == TransportKind::Socket,
                Some("tcp"),
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
                |e| launch(e).worker.rendezvous == Path::new("/o.addr"),
                Some(LONG),
            ),
            (RESUME, "0", |e| !launch(e).resume, Some("yes")),
            (RESTART_COUNT, "2", |e| ckpt(e).incarnation == 2, Some("-1")),
            (STALL_RANK, "1", |e| e.stall_rank == Some(1), Some("r1")),
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
    fn socket_path_past_the_limit_names_its_length_and_the_limit() {
        let at = |len: usize| "/".to_string() + &"r".repeat(len - 1);
        // `<path>.sock1` is the longest of the sample's two ranks.
        assert!(with(RENDEZVOUS, &at(SOCKET_PATH_MAX - 6)).is_ok());
        let err = with(RENDEZVOUS, &at(SOCKET_PATH_MAX - 5)).expect_err("one byte over");
        let text = err.to_string();
        assert_eq!(err.var, RENDEZVOUS, "{text}");
        assert!(
            text.contains("108 bytes") && text.contains("limit of 107"),
            "{text}"
        );
        let one_rank = check_socket_paths(Path::new(&at(200)), 1);
        assert_eq!(one_rank, Ok(()), "a one-rank job binds no socket");
    }

    #[test]
    fn launch_env_round_trips_through_its_wire_variables() {
        let launch = sample_launch();
        let env = RunEnv::parse(launch.vars()).unwrap();
        assert_eq!(env.launch.as_ref(), Some(&launch));
        assert_eq!(env.config.transport, TransportKind::Socket);
        assert_eq!(env.config.checkpoint, launch.checkpoint);
        assert_eq!((env.size(7), env.hosts_rank0()), (2, false));
        let unsupervised = LaunchEnv {
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
            (&[SOCKET, (RANK, "0"), (SIZE, "2")], RANK, RENDEZVOUS),
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
            assert_eq!(env.stall_rank, None);
            assert_eq!((env.size(4), env.hosts_rank0()), (4, true));
        }
    }

    #[test]
    fn progress_record_round_trips_and_anything_else_is_no_record() {
        let full = Progress {
            step: 4,
            picard: 2,
            residual: 1.5e-7,
            msgs: 42,
            bytes: 4096,
            collectives: 9,
            checkpoint: Some((0, 4)),
            health: Some(("recovery-storm".into(), 3)),
            failure: Some(("solver_error".into(), "2 non-finite \"coefficients\"".into())),
        };
        let empty = Progress {
            checkpoint: None,
            health: None,
            failure: None,
            ..full.clone()
        };
        let path =
            std::env::temp_dir().join(format!("exawind-progress-test-{}", std::process::id()));
        assert_eq!(Progress::read(&path), None, "no file");
        for record in [&full, &empty] {
            record.write(&path).unwrap();
            assert_eq!(Progress::read(&path).as_ref(), Some(record));
        }
        let text = full.to_json().to_string();
        for bad in [
            &text[..text.len() / 2],
            "",
            "not json",
            "[]",
            &text.replace("\"msgs\"", "\"mesgs\""),
            &text.replace("\"generation\"", "\"gen\""),
        ] {
            std::fs::write(&path, bad).unwrap();
            assert_eq!(Progress::read(&path), None, "{bad:?}");
        }
        Progress { residual: f64::NAN, ..empty }.write(&path).unwrap();
        assert!(Progress::read(&path).unwrap().residual.is_nan());
        let _ = std::fs::remove_file(&path);
    }
}
