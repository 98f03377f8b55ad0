//! Telemetry-stream tools: summarize a run, export a timeline.
//!
//! ```sh
//! # Run header, solver-health trend, reuse counters and the polled /
//! # parked split of the blocking receives of a stream:
//! exawind-perf report tel.jsonl
//! # Merge per-rank simulation streams into a Perfetto-loadable trace:
//! exawind-perf trace --out trace.json tel.rank0.jsonl tel.rank1.jsonl
//! ```
//!
//! (Step-time regressions are judged by `exawind-e2e`, see
//! `crates/e2e-bench/README.md`; the full per-kernel / per-phase report
//! is `validate_telemetry --report`.)

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: exawind-perf report <stream.jsonl>\n\
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

/// One line each for the run header, the health detector's read, the
/// driver's rebuilt/reused totals and how the blocking receives were
/// satisfied, so the health trend, "why is precond setup ~0" and "was
/// the waiting latency or imbalance" can be scanned together.
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
    let report = telemetry::Report::from_events(&events);
    println!(
        "{path}: {} events, {} ranks x {} threads, transport {}, kernels {}, {} steps, commit {}",
        events.len(),
        report.ranks,
        report.threads,
        report.transport,
        report.kernel_policy,
        report.steps,
        report.git_commit.as_deref().unwrap_or("unknown"),
    );
    for line in [report.health_summary(), report.reuse_summary(), report.wait_summary()]
        .into_iter()
        .flatten()
    {
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
        "report" => cmd_report(args),
        "trace" => cmd_trace(args),
        _ => usage(),
    }
}
