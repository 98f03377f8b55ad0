//! The benchmark's own plumbing, on the `--smoke` shapes. These run in
//! the unoptimised test profile, so they use a test-only configuration
//! with one Picard iteration per step (a quarter of a pinned step).

use std::path::PathBuf;
use std::process::Command;

use exawind_e2e::episode::{run_episode, Counts, Episode, Plan};
use exawind_e2e::measure::{run, RunOpts, MAX_UNATTRIBUTED};
use exawind_e2e::metrics::{END_TO_END, PER_LAYER};
use exawind_e2e::spans::Spans;
use exawind_e2e::workload::{find, Workload, SMOKE_STEPS, WORKLOADS};
use nalu_core::SolverConfig;
use telemetry::Json;

fn one_picard(cfg: &mut SolverConfig) {
    cfg.picard_iters = 1;
}

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn smoke_opts(test: &str, seed: u64, trace: bool) -> RunOpts {
    RunOpts {
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
        out_dir: out_dir(test),
        tweak: Some(one_picard),
    }
}

#[test]
fn smoke_prints_every_end_to_end_metric_for_all_four_shapes() {
    for w in WORKLOADS {
        let r = run(w, &smoke_opts("smoke_e2e", 11, false));
        assert!(r.correct(), "{}", r.render());
        assert_eq!(
            (r.attempted, r.failed, r.step_walls.len()),
            (SMOKE_STEPS, 0, SMOKE_STEPS),
            "{}",
            w.name
        );
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|d| d.name), "{}", w.name);
        assert!(
            r.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
            "{}",
            r.render()
        );
        // The contract's result object: exactly these four keys.
        let contract = r.contract_json();
        let keys: Vec<&String> = contract.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
}

#[test]
fn traced_smoke_emits_every_layer_metric_and_reconciles() {
    let w = find("turbine_small_socket_r2").unwrap();
    let r = run(w, &smoke_opts("smoke_traced", 11, true));
    assert!(r.correct(), "{}", r.render());
    let names: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
    assert_eq!(names, PER_LAYER.map(|d| d.name));
    assert!(r.metrics.iter().all(|m| m.1.is_finite()), "{}", r.render());
    // Layers add up to the layer above: what the phase cells leave over
    // of the step wall is small, and it is reported, not hidden.
    let cells: f64 = r
        .metrics
        .iter()
        .filter(|m| m.0.starts_with("core.") && m.0.matches('.').count() == 2)
        .map(|m| m.1)
        .sum();
    assert!(cells > 0.0);
    let unattributed = r.metric("core.unattributed_frac").unwrap();
    assert!(unattributed.abs() <= MAX_UNATTRIBUTED, "{unattributed}");
    assert!(r.metric("parcomm.msgs_per_step").unwrap() > 0.0);
    assert!(r.metric("krylov.gmres_iters_per_step.continuity").unwrap() > 0.0);
    // The span file and the telemetry stream land beside the result.
    let spans = std::fs::read_to_string(
        out_dir("smoke_traced").join("turbine_small_socket_r2.spans.jsonl"),
    )
    .unwrap();
    let names: Vec<String> = spans
        .lines()
        .map(|l| {
            Json::parse(l).unwrap().as_obj().unwrap()["name"]
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    for expect in [
        "episode",
        "generate",
        "comm_start",
        "sim_new",
        "step[1]",
        "probe",
        "amg.setup_cold",
        "parcomm.socket.probe",
    ] {
        assert!(
            names.iter().any(|n| n == expect),
            "no {expect} span in {names:?}"
        );
    }
    let stream = out_dir("smoke_traced").join("turbine_small_socket_r2.telemetry.jsonl");
    let events = telemetry::read_jsonl(&stream.to_string_lossy()).unwrap();
    assert!(matches!(events[0], telemetry::Event::Run { ranks: 2, .. }));
}

fn episode_of(w: Workload, seed: u64) -> Episode {
    let w = w.smoke();
    let mut cfg = w.solver_config(seed, false);
    one_picard(&mut cfg);
    run_episode(&w, &cfg, &Plan::steps(SMOKE_STEPS), &mut Spans::new(false))
}

#[test]
fn exact_counts_repeat_for_a_seed_and_move_with_the_seed() {
    let exact = |e: &Episode| {
        let iters: Vec<_> = e.steps.iter().map(|s| s.iters.clone()).collect();
        (iters, e.counts.msgs, e.counts.kernel_launches, e.checksum)
    };
    let w = find("turbine_r2").unwrap();
    let (a, b, other) = (episode_of(w, 3), episode_of(w, 3), episode_of(w, 7));
    assert!(a.counts.msgs > 0 && a.counts.kernel_launches > 0);
    assert_eq!(exact(&a), exact(&b));
    assert_ne!(exact(&a), exact(&other));
    // One rank sends no messages at all.
    assert_eq!(episode_of(find("turbine_r1").unwrap(), 3).counts.msgs, 0);
}

#[test]
fn a_set_up_only_episode_times_no_step() {
    let w = find("turbine_r1").unwrap().smoke();
    let mut cfg = w.solver_config(3, false);
    one_picard(&mut cfg);
    let e = run_episode(&w, &cfg, &Plan::steps(0), &mut Spans::new(false));
    assert!(e.steps.is_empty() && e.attempted == 0 && e.failed_steps(w.tolerance()) == 0);
    assert!(!e.cold_failed && e.finite && e.setup_s() > 0.0);
    assert_eq!(e.counts, Counts::default());
}

#[test]
fn forced_failing_steps_are_counted_and_fail_the_run() {
    fn starve_gmres(cfg: &mut SolverConfig) {
        cfg.picard_iters = 1;
        cfg.gmres_max_iters = 1;
    }
    let opts = RunOpts {
        tweak: Some(starve_gmres),
        ..smoke_opts("smoke_failing", 11, false)
    };
    let r = run(find("turbine_r2").unwrap(), &opts);
    assert_eq!(
        (r.attempted, r.failed),
        (SMOKE_STEPS, SMOKE_STEPS),
        "{}",
        r.render()
    );
    assert!(!r.correct());
    assert_eq!(
        r.contract_json().as_obj().unwrap()["correct"],
        Json::Bool(false)
    );
}

/// Checksum and iteration counts of a `--smoke` child run.
fn child_result(dir: &str, env: &[(&str, &str)]) -> (String, Json) {
    let out = out_dir(dir);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exawind-e2e"));
    cmd.args([
        "child",
        "--workload",
        "turbine_r2",
        "--smoke",
        "--seed",
        "5",
        "--out",
    ])
    .arg(&out)
    .envs(env.iter().copied());
    let output = cmd.output().unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let full =
        Json::parse(&std::fs::read_to_string(out.join("turbine_r2.trace0.seed5.json")).unwrap())
            .unwrap();
    let obj = full.as_obj().unwrap();
    (
        obj["checksum"].as_str().unwrap().to_string(),
        obj["gmres_iters_per_step"].clone(),
    )
}

#[test]
fn child_scrubs_exawind_variables() {
    let clean = child_result("env_clean", &[]);
    let telemetry_path = out_dir("env_dirty").join("leak.jsonl");
    let dirty = child_result(
        "env_dirty",
        &[
            ("EXAWIND_FAULTS", "assembly-nan@continuity:1x99"),
            ("EXAWIND_KERNELS", "sellcs"),
            ("EXAWIND_TELEMETRY", telemetry_path.to_str().unwrap()),
            ("EXAWIND_TRANSPORT", "socket"),
        ],
    );
    assert_eq!(clean, dirty);
    assert!(
        !telemetry_path.exists(),
        "EXAWIND_TELEMETRY reached the library"
    );
}
