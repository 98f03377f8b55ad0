//! `exawind-e2e` command line. See `README.md` beside this crate.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use exawind_e2e::compare::compare_files;
use exawind_e2e::measure::{self, RunOpts};
use exawind_e2e::workload::{self, Workload, DEFAULT_SEED, WORKLOADS};
use telemetry::Json;

const USAGE: &str = "\
usage:
  exawind-e2e run [--seed S] [--seconds N] [--repeat N] [--vary-seed] [--smoke] [--out DIR] [--set FILE]
      every workload, telemetry off, then one traced run each; prints every metric,
      runs the correctness checks, writes results + spans under DIR and a set file
  exawind-e2e child --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
      one run of one workload in this process; the last stdout line is the result object
      (`child` may be omitted: `exawind-e2e --workload W --seed S --seconds N --trace T`)
  exawind-e2e compare A.json B.json [--bounds BENCHMARK.json]
      per (metric, workload): medians, quartiles, B/A, verdict; exit 1 on `worse`
";

/// Default measuring budget per run, as `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 24.0;
const DEFAULT_OUT: &str = "crates/e2e-bench/out";

/// The library crates read 19 `EXAWIND_*` variables (`FaultPlan::from_env`
/// even when `faults` is `None`); none may reach a measured run. One
/// rayon thread per rank: the shim reads `RAYON_NUM_THREADS` once, on
/// first use, so it is set before anything else runs.
fn scrub_environment() {
    let stale: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("EXAWIND_"))
        .collect();
    for k in stale {
        std::env::remove_var(k);
    }
    std::env::set_var("RAYON_NUM_THREADS", "1");
}

struct Args {
    rest: Vec<String>,
}

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        let value = self.rest.remove(i + 1);
        self.rest.remove(i);
        Ok(Some(value))
    }

    fn number<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }

    fn seed(&mut self) -> Result<u64, String> {
        match self.value("--seed")? {
            None => Ok(DEFAULT_SEED),
            Some(v) => {
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                parsed.map_err(|_| format!("--seed: cannot read {v:?}"))
            }
        }
    }

    fn done(self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected arguments {:?}", self.rest))
        }
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    workload::find(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (one of {})",
            WORKLOADS.map(|w| w.name).join(", ")
        )
    })
}

/// Timings of an unoptimised build say nothing; only `--smoke`, which
/// checks plumbing, may run in one.
fn refuse_debug_build(smoke: bool) -> Result<(), String> {
    if cfg!(debug_assertions) && !smoke {
        return Err("this is a debug build: measure with `cargo run --release -p exawind-e2e`, or pass --smoke".into());
    }
    Ok(())
}

fn child(mut args: Args) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    refuse_debug_build(smoke)?;
    let name = args.value("--workload")?.ok_or("child needs --workload")?;
    let opts = RunOpts {
        seed: args.seed()?,
        seconds: args.number("--seconds", DEFAULT_SECONDS)?,
        trace: args.number::<u8>("--trace", 0)? != 0,
        smoke,
        out_dir: PathBuf::from(args.value("--out")?.unwrap_or_else(|| DEFAULT_OUT.into())),
        tweak: None,
    };
    args.done()?;
    let w = workload_named(&name)?;
    let effective = if smoke { w.smoke() } else { w };
    println!(
        "effective config: {:?}",
        effective.solver_config(opts.seed, opts.trace)
    );
    println!(
        "threads: {} rank thread(s) x 1 rayon thread; EXAWIND_* scrubbed",
        w.ranks
    );
    let result = measure::run(w, &opts);
    print!("{}", result.render());
    println!("{}", result.contract_json());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn first_line_of(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(
        line.split_once(':')
            .map_or(line, |x| x.1)
            .trim()
            .to_string(),
    )
}

fn host_facts() -> Json {
    let cache = |idx: u8| {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{idx}/size"
        ))
        .map_or("?".into(), |s| s.trim().to_string())
    };
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok());
    Json::obj(vec![
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i128),
        ),
        (
            "cpu_model",
            Json::Str(first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "?".into())),
        ),
        ("l2_per_core", Json::Str(cache(2))),
        ("l3_shared", Json::Str(cache(3))),
        (
            "rustc",
            Json::Str(rustc.map_or("?".into(), |s| s.trim().to_string())),
        ),
        (
            "git_commit",
            telemetry::git_commit().map_or(Json::Null, Json::Str),
        ),
    ])
}

/// Run one workload in a fresh child process, so peak RSS and allocator
/// state are per workload. Returns the child's full result object.
fn spawn_child(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: &str,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name, "--out", out])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, _last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{report}");
    let name = format!("{out}/{}.trace{}.seed{seed}.json", w.name, u8::from(trace));
    let full = std::fs::read_to_string(&name).map_err(|e| {
        format!(
            "child left no result at {name}: {e} (exit {})",
            output.status
        )
    })?;
    Json::parse(&full).map_err(|e| format!("{name}: {e}"))
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    refuse_debug_build(smoke)?;
    let seed = args.seed()?;
    let seconds = args.number("--seconds", DEFAULT_SECONDS)?;
    let repeat: u64 = args.number("--repeat", 1)?;
    let vary_seed = args.flag("--vary-seed");
    let out = args.value("--out")?.unwrap_or_else(|| DEFAULT_OUT.into());
    let set_path = args
        .value("--set")?
        .unwrap_or_else(|| format!("{out}/set.json"));
    args.done()?;

    let host = host_facts();
    println!("host: {host}");
    println!("bandwidth figures are computed bytes / measured seconds; arrays sit far below 4x the L3, so nothing here is a DRAM measurement");
    let mut runs = Vec::new();
    // Rounds interleave the workloads, so drift hits all of them alike.
    for round in 0..repeat {
        let seed = if vary_seed { seed + round } else { seed };
        for w in &WORKLOADS {
            runs.push(spawn_child(w, seed, seconds, false, smoke, &out)?);
        }
        if round == 0 {
            for w in &WORKLOADS {
                runs.push(spawn_child(w, seed, seconds, true, smoke, &out)?);
            }
        }
    }

    let ok = |r: &Json| {
        r.as_obj()
            .and_then(|o| o.get("correct"))
            .and_then(Json::as_bool)
            == Some(true)
    };
    let p10 = |name: &str| {
        runs.iter()
            .filter_map(Json::as_obj)
            .find(|o| o["workload"].as_str() == Some(name) && o["trace"].as_bool() == Some(false))
            .and_then(|o| {
                o["metrics"]
                    .as_obj()?
                    .get("step_s_p10")?
                    .as_obj()?
                    .get("value")?
                    .as_f64()
            })
    };
    if let (Some(r1), Some(r2)) = (p10("turbine_r1"), p10("turbine_r2")) {
        println!("strong_scaling_eff_r2                    {:>16.6} ratio   (= {r1:.4} s at 1 rank / (2 x {r2:.4} s at 2 ranks))", r1 / (2.0 * r2));
    }
    let all_ok = runs.iter().all(ok);
    let set = Json::obj(vec![
        ("schema", Json::Int(1)),
        ("host", host),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&set_path, set.to_string() + "\n").map_err(|e| format!("{set_path}: {e}"))?;
    println!(
        "set written to {set_path}; every correctness check {}",
        if all_ok { "passed" } else { "DID NOT pass" }
    );
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(mut args: Args) -> Result<ExitCode, String> {
    let bounds = args.value("--bounds")?.or_else(|| {
        std::path::Path::new("BENCHMARK.json")
            .exists()
            .then(|| "BENCHMARK.json".to_string())
    });
    let [a, b] = <[String; 2]>::try_from(std::mem::take(&mut args.rest))
        .map_err(|_| "compare needs exactly A.json and B.json")?;
    let cmp = compare_files(&a, &b, bounds.as_deref())?;
    print!("{}", cmp.table);
    Ok(if cmp.acceptable() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    scrub_environment();
    let mut rest: Vec<String> = std::env::args().skip(1).collect();
    let command = if rest.first().is_some_and(|a| !a.starts_with("--")) {
        rest.remove(0)
    } else {
        "child".into()
    };
    let args = Args { rest };
    let outcome = match command.as_str() {
        "run" => run(args),
        "child" => child(args),
        "compare" => compare(args),
        _ => Err(format!("unknown command {command:?}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("exawind-e2e: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
