//! Kernel-perf trajectory tool: record runs, diff for regressions.
//!
//! ```sh
//! # Append a run (quickstart + turbine workloads) to the trajectory:
//! exawind-perf record [--out results/trajectory.jsonl] [--reps 3]
//! # Gate HEAD against history: last recorded run vs the per-kernel min
//! # of every earlier same-thread-count run. Nonzero exit on regression.
//! exawind-perf diff --against results/trajectory.jsonl [--tol 3.0]
//! # Or compare two standalone recordings:
//! exawind-perf diff old.jsonl new.jsonl [--tol 3.0]
//! # Summarize a trajectory:
//! exawind-perf report results/trajectory.jsonl
//! # Merge per-rank simulation streams into a Perfetto-loadable trace:
//! exawind-perf trace --out trace.json tel.rank0.jsonl tel.rank1.jsonl
//! ```
//!
//! `ci.sh` runs `record` + `diff --against` as the perf-smoke gate with
//! a generous tolerance (shared CI containers jitter by integer
//! factors; the min-of-N statistic plus a loose relative gate catches
//! order-of-magnitude regressions without flaking on noise).

use std::io::Write as _;
use std::process::ExitCode;

use exawind_bench::perf::{baseline_over, diff_groups, group_runs, record_all, BenchGroup};

const DEFAULT_TRAJECTORY: &str = "results/trajectory.jsonl";
const DEFAULT_TOL: f64 = 3.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: exawind-perf record [--out <trajectory.jsonl>] [--reps N]\n\
         \x20      exawind-perf diff --against <trajectory.jsonl> [--tol X]\n\
         \x20      exawind-perf diff <baseline.jsonl> <current.jsonl> [--tol X]\n\
         \x20      exawind-perf report <trajectory.jsonl>\n\
         \x20      exawind-perf trace [--out <trace.json>] <rank0.jsonl> [<rank1.jsonl> ...]"
    );
    ExitCode::from(2)
}

/// Value of `--flag` in `args`, removing both tokens when found.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("exawind-perf: {flag} requires a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn load_groups(path: &str) -> Result<Vec<BenchGroup>, String> {
    let events = telemetry::read_jsonl(path)?;
    Ok(group_runs(&events))
}

fn cmd_record(mut args: Vec<String>) -> ExitCode {
    let out = take_flag(&mut args, "--out").unwrap_or_else(|| DEFAULT_TRAJECTORY.to_string());
    let reps: usize = take_flag(&mut args, "--reps")
        .map(|v| v.parse().expect("--reps must be an integer"))
        .unwrap_or(3);
    if !args.is_empty() {
        return usage();
    }
    eprintln!("recording kernel-perf run ({reps} reps per workload)...");
    let events = record_all(reps);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    let mut f = match std::fs::OpenOptions::new().create(true).append(true).open(&out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("exawind-perf: cannot open {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for ev in &events {
        if writeln!(f, "{}", ev.to_line()).is_err() {
            eprintln!("exawind-perf: write to {out} failed");
            return ExitCode::FAILURE;
        }
    }
    println!("{out}: appended {} events ({} kernels)", events.len(), events.len() - 1);
    ExitCode::SUCCESS
}

fn cmd_diff(mut args: Vec<String>) -> ExitCode {
    let tol: f64 = take_flag(&mut args, "--tol")
        .map(|v| v.parse().expect("--tol must be a float"))
        .unwrap_or(DEFAULT_TOL);
    let against = take_flag(&mut args, "--against");

    let (current, baseline) = if let Some(traj) = against {
        if !args.is_empty() {
            return usage();
        }
        // Last recorded group vs the min over every earlier group with a
        // matching thread count.
        let mut groups = match load_groups(&traj) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("exawind-perf: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(current) = groups.pop() else {
            eprintln!("exawind-perf: {traj}: no recorded runs");
            return ExitCode::FAILURE;
        };
        if groups.is_empty() {
            println!("{traj}: single recorded run — nothing to diff against, trivially ok");
            return ExitCode::SUCCESS;
        }
        let baseline = baseline_over(&groups, current.threads, current.kernel_policy.as_deref());
        if baseline.kernels.is_empty() {
            println!(
                "{traj}: no earlier runs at threads={:?} kernels={:?} — trivially ok",
                current.threads, current.kernel_policy
            );
            return ExitCode::SUCCESS;
        }
        (current, baseline)
    } else {
        if args.len() != 2 {
            return usage();
        }
        let (base_path, cur_path) = (&args[0], &args[1]);
        let load_last = |path: &str| -> Result<BenchGroup, String> {
            load_groups(path)?
                .pop()
                .ok_or_else(|| format!("{path}: no recorded runs"))
        };
        match (load_last(base_path), load_last(cur_path)) {
            (Ok(b), Ok(c)) => (c, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("exawind-perf: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let report = diff_groups(&current, &baseline, tol);
    print!("{}", report.render(tol));
    let n = report.regressions();
    if n > 0 {
        eprintln!("exawind-perf: {n} kernel(s) regressed beyond {tol}x");
        return ExitCode::FAILURE;
    }
    println!("exawind-perf: no regressions ({} kernels gated)", report.rows.len());
    ExitCode::SUCCESS
}

fn cmd_report(args: Vec<String>) -> ExitCode {
    let [path] = args.as_slice() else {
        return usage();
    };
    let events = match telemetry::read_jsonl(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("exawind-perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let groups = group_runs(&events);
    println!("{path}: {} recorded run(s)", groups.len());
    for (i, g) in groups.iter().enumerate() {
        let commit = g.git_commit.as_deref().unwrap_or("unknown");
        let threads = g.threads.map_or("?".to_string(), |t| t.to_string());
        let kernels = g.kernel_policy.as_deref().unwrap_or("?");
        println!("run {i}: commit {commit} threads {threads} kernels {kernels}");
        for (name, rec) in &g.kernels {
            println!(
                "  {:<32} min {:>10} ns  median {:>10} ns  ({} samples)",
                name, rec.min_ns, rec.median_ns, rec.samples
            );
        }
    }
    // A simulation stream (rather than a bench trajectory) carries
    // step_health events and the driver's reuse counters; surface the
    // detector's read and the rebuilt/reused totals in one line each so
    // the perf ledger, the health trend and "why is precond setup ~0"
    // can be scanned together.
    let report = telemetry::Report::from_events(&events);
    for line in [report.health_summary(), report.reuse_summary()].into_iter().flatten() {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

fn cmd_trace(mut args: Vec<String>) -> ExitCode {
    let out = take_flag(&mut args, "--out").unwrap_or_else(|| "trace.json".to_string());
    if args.is_empty() {
        return usage();
    }
    let mut streams = Vec::with_capacity(args.len());
    for path in &args {
        match telemetry::read_jsonl(path) {
            Ok(evs) => streams.push(evs),
            Err(e) => {
                eprintln!("exawind-perf: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let events = telemetry::merge_ranks(streams);
    let doc = telemetry::trace::chrome_trace(&events);
    let errors = telemetry::trace::validate_chrome(&doc);
    for e in &errors {
        eprintln!("exawind-perf: trace: {e}");
    }
    if let Err(e) = std::fs::write(&out, doc.to_string() + "\n") {
        eprintln!("exawind-perf: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    if !errors.is_empty() {
        eprintln!("exawind-perf: {out}: trace written but fails structural validation");
        return ExitCode::FAILURE;
    }
    let n = match &doc {
        telemetry::Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| *k == "traceEvents")
            .map_or(0, |(_, v)| match v {
                telemetry::Json::Arr(a) => a.len(),
                _ => 0,
            }),
        _ => 0,
    };
    println!("{out}: {n} trace events from {} rank stream(s) — open at ui.perfetto.dev", args.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "record" => cmd_record(args),
        "diff" => cmd_diff(args),
        "report" => cmd_report(args),
        "trace" => cmd_trace(args),
        _ => usage(),
    }
}
