//! Cross-rank timeline observability: startup clock alignment, Chrome
//! trace export, critical-path attribution, and the solver-health
//! degradation detector.
//!
//! The 4-rank cases mirror the acceptance criteria of the timeline PR:
//! the exported trace must be structurally valid Chrome trace-event
//! JSON, the critical-path decomposition must account for ≥ 95% of each
//! step's makespan, and the health detector must fire on a seeded
//! coarsening degradation while staying silent on a clean run.

use exawind::nalu_core::{Simulation, SolverConfig};
use exawind::parcomm::{ClockSync, Comm, FaultPlan, TransportKind};
use exawind::telemetry::health::{DegradationKind, Verdict};
use exawind::telemetry::{self, Event, Json, Report, Telemetry};
use exawind::windmesh::generate::{box_mesh, uniform_spacing, BoxBc};
use exawind::windmesh::Mesh;
use std::time::Instant;

/// Channel with no-slip z walls: uniform inflow is not a solution, so
/// the solves genuinely iterate and the AMG hierarchy is non-trivial.
fn small_channel() -> Mesh {
    let bc = BoxBc {
        zmin: exawind::windmesh::BcKind::Wall,
        zmax: exawind::windmesh::BcKind::Wall,
        ..BoxBc::wind_tunnel()
    };
    box_mesh(
        uniform_spacing(0.0, 4.0, 6),
        uniform_spacing(0.0, 2.0, 4),
        uniform_spacing(0.0, 2.0, 4),
        bc,
    )
}

// ---------------------------------------------------------------------------
// Clock alignment
// ---------------------------------------------------------------------------

/// The startup clock sync must produce one finite table that every rank
/// agrees on (rank 0 is the reference, so its own offset is exactly 0),
/// on both transports at 4 ranks; a single rank has nothing to align.
#[test]
fn clock_offsets_finite_and_agreed_on_both_transports_at_4_ranks() {
    for transport in [TransportKind::Inproc, TransportKind::Socket] {
        let tables = Comm::run_with(transport, 4, move |rank| {
            rank.set_telemetry(Telemetry::enabled(rank.rank()));
            rank.clock_sync().expect("clock sync must run with telemetry enabled")
        });
        assert_eq!(tables.len(), 4);
        for (r, t) in tables.iter().enumerate() {
            assert_eq!(t.offsets.len(), 4, "rank {r} on {transport:?}");
            assert_eq!(t.rtts.len(), 4, "rank {r} on {transport:?}");
            assert!(t.offsets.iter().all(|o| o.is_finite()), "rank {r}: {:?}", t.offsets);
            assert!(
                t.rtts.iter().all(|x| x.is_finite() && *x >= 0.0),
                "rank {r}: {:?}",
                t.rtts
            );
            assert_eq!(t.offsets[0], 0.0, "rank 0 is the time reference");
            // Symmetric: the gathered table is identical everywhere.
            assert_eq!(t, &tables[0], "rank {r} disagrees with rank 0 on {transport:?}");
        }
        let single = Comm::run_with(transport, 1, |rank| {
            rank.set_telemetry(Telemetry::enabled(0));
            rank.clock_sync()
        });
        let trivial = ClockSync { offsets: vec![0.0], rtts: vec![0.0] };
        assert_eq!(single, vec![Some(trivial)], "{transport:?}");
    }
}

/// The offsets against ground truth: each rank reads one shared
/// `Instant` base just before and just after its telemetry epoch, so
/// the distance between two epochs is known to within half of each of
/// those truth brackets. Each `offsets[r]` must match it to within the
/// two anchor brackets' halves, `(rtts[r] + rtts[0]) / 2`, plus the
/// truth brackets' own halves and the clocks' nanosecond resolution.
#[test]
fn clock_offsets_match_a_shared_instant_base_on_both_transports_at_4_ranks() {
    for transport in [TransportKind::Inproc, TransportKind::Socket] {
        let base = Instant::now();
        let out = Comm::run_with(transport, 4, move |rank| {
            let before = base.elapsed().as_secs_f64();
            let tel = Telemetry::enabled(rank.rank());
            let after = base.elapsed().as_secs_f64();
            rank.set_telemetry(tel);
            let sync = rank.clock_sync().expect("telemetry is on");
            ((before + after) / 2.0, after - before, sync)
        });
        let (truth0, bracket0, _) = out[0];
        for (r, (truth, bracket, sync)) in out.iter().enumerate() {
            let err = (sync.offsets[r] - (truth - truth0)).abs();
            let bound = (sync.rtts[r] + sync.rtts[0]) / 2.0 + (bracket + bracket0) / 2.0 + 1e-8;
            assert!(
                err <= bound,
                "rank {r} on {transport:?}: offset {:.3e} s, truth {:.3e} s, error {err:.3e} s \
                 > bound {bound:.3e} s",
                sync.offsets[r],
                truth - truth0
            );
        }
    }
}

/// Telemetry disabled ⇒ the clock sync skips itself entirely: no table
/// and no comm edge booked.
#[test]
fn clock_sync_is_a_no_op_with_telemetry_off() {
    let synced = Comm::run(2, |rank| {
        let sync = rank.clock_sync();
        let edges = rank
            .telemetry_events()
            .iter()
            .filter(|e| matches!(e, Event::CommEdge { .. }))
            .count();
        (sync, edges)
    });
    assert!(synced.iter().all(|(sync, edges)| sync.is_none() && *edges == 0), "{synced:?}");
}

// ---------------------------------------------------------------------------
// Trace export + critical path
// ---------------------------------------------------------------------------

/// Merged event stream of a 4-rank, 2-step telemetry run, with the
/// clock-bearing run header first (exactly what `exawind-worker`
/// writes and `exawind-perf trace` reads back).
fn four_rank_stream() -> Vec<Event> {
    let mesh = small_channel();
    let per_rank = Comm::run(4, move |rank| {
        let cfg = SolverConfig {
            telemetry: true,
            picard_iters: 2,
            ..SolverConfig::default()
        };
        let mut sim = Simulation::new(rank, vec![mesh.clone()], cfg);
        sim.step(rank);
        sim.step(rank);
        (sim.clock_tables(), sim.finish_telemetry(rank))
    });
    let clock = per_rank[0].0.clone();
    let mut events = vec![telemetry::run_info(4, "inproc", clock)];
    events.extend(telemetry::merge_ranks(per_rank.into_iter().map(|(_, e)| e).collect()));
    events
}

#[test]
fn four_rank_trace_is_valid_chrome_json_and_critical_path_covers_makespan() {
    let events = four_rank_stream();
    telemetry::validate_stream(&events)
        .unwrap_or_else(|errs| panic!("stream fails validation: {errs:?}"));

    // Structurally valid Chrome trace-event JSON (what ui.perfetto.dev
    // loads unmodified): the validator checks the envelope, required
    // per-event fields, matched flow bindings, and per-track sanity.
    let doc = telemetry::trace::chrome_trace(&events);
    let errors = telemetry::trace::validate_chrome(&doc);
    assert!(errors.is_empty(), "{errors:?}");
    let Json::Obj(fields) = &doc else { panic!("trace root must be an object") };
    let rows = fields
        .iter()
        .find(|(k, _)| *k == "traceEvents")
        .and_then(|(_, v)| match v {
            Json::Arr(a) => Some(a.len()),
            _ => None,
        })
        .expect("traceEvents array");
    assert!(rows > 100, "4-rank 2-step trace suspiciously small: {rows} events");

    // Critical-path attribution: every step decomposed into compute /
    // wait segments summing to ≥ 95% of its makespan.
    let paths = telemetry::trace::critical_paths(&events);
    assert_eq!(paths.len(), 2, "one path per step");
    for p in &paths {
        assert!(p.makespan > 0.0);
        assert!(!p.segments.is_empty(), "step {}: empty path", p.step);
        assert!(
            p.coverage() >= 0.95,
            "step {}: critical path covers only {:.1}% of the makespan",
            p.step,
            p.coverage() * 100.0
        );
    }

    // The Report renders both new sections from the same stream.
    let report = Report::from_events(&events);
    let text = report.render_ascii();
    assert!(text.contains("critical path"), "{text}");
    assert!(text.contains("solver health trend"), "{text}");
}

// ---------------------------------------------------------------------------
// Health detector end-to-end
// ---------------------------------------------------------------------------

/// Box whose pressure system (288 rows) is large enough to get a
/// multi-level AMG hierarchy, so the health rows carry real
/// complexities.
fn bigger_box() -> Mesh {
    box_mesh(
        uniform_spacing(0.0, 4.0, 8),
        uniform_spacing(0.0, 2.0, 6),
        uniform_spacing(0.0, 2.0, 6),
        BoxBc::wind_tunnel(),
    )
}

/// Run `steps` timesteps at 2 ranks with telemetry on under `faults`,
/// returning each rank's `(fault-plan hit count, events, the live
/// detector's last verdict, recovery attempts over the step reports)`.
fn health_run(
    steps: usize,
    faults_spec: Option<&str>,
) -> Vec<(u64, Vec<Event>, Option<Verdict>, usize)> {
    let mesh = bigger_box();
    let plan = faults_spec.map(|s| FaultPlan::parse(s).unwrap());
    Comm::run(2, move |rank| {
        let cfg = SolverConfig {
            telemetry: true,
            picard_iters: 2,
            faults: plan.clone(),
            ..SolverConfig::default()
        };
        let mut sim = Simulation::new(rank, vec![mesh.clone()], cfg);
        let recoveries: usize = (0..steps).map(|_| sim.step(rank).recoveries.len()).sum();
        // Per-spec (hits, fired) of the plan armed on this rank; hits
        // advance on every matching hook call whether or not the window
        // fired.
        let hits = rank.fault_counters().first().map_or(0, |&(h, _)| h);
        let live = sim.last_health_verdict().cloned();
        (hits, sim.finish_telemetry(rank), live, recoveries)
    })
}

/// A clean run emits one `step_health` row per step and no verdicts; a
/// run with a fault seeded *after* the detector's warmup must produce a
/// `recovery-storm` degradation verdict (the ladder rebuilds, and the
/// recovery activity after a clean baseline is exactly what the
/// detector alarms on). The verdicts the report replays from rank 0's
/// stream are the live detector's, bit for bit. The fault is a NaN in
/// the continuity global assembly, whose hook runs every Picard
/// iteration (AMG setup hooks no
/// longer do: the hierarchy is set up once and reused). The seed
/// occurrence is probed, not hard-coded: a never-firing plan counts the
/// hook calls the first three (warmup) steps make, and the real plan
/// fires on the next one — the first pressure assembly of step 4.
#[test]
fn health_detector_fires_on_seeded_fault_and_stays_silent_clean() {
    const WARMUP_STEPS: usize = 3;

    // Clean 4-step run: step_health present, zero verdicts.
    let clean = health_run(WARMUP_STEPS + 1, None);
    for (_, events, live, _) in &clean {
        let healths = events
            .iter()
            .filter(|e| matches!(e, Event::StepHealth { .. }))
            .count();
        assert_eq!(healths, WARMUP_STEPS + 1, "one step_health per step");
        assert!(live.is_none(), "clean run must not produce degradation verdicts: {live:?}");
    }
    let replayed = Report::from_events(&clean[0].1).health.verdicts;
    assert!(replayed.is_empty(), "clean stream replays to verdicts: {replayed:?}");

    // Probe: how many times do the first 3 steps call the hook?
    let probe = health_run(WARMUP_STEPS, Some("assembly-nan@continuity/global:1000000"));
    let warmup_hits = probe[0].0;
    assert!(warmup_hits > 0, "probe plan saw no assembly-nan hook calls");
    assert_eq!(probe[0].0, probe[1].0, "hook counts must be collectively identical");

    // Seeded run: corrupt the first pressure assembly of step 4. The
    // finite scan rejects it, the recovery ladder rebuilds (the
    // one-shot fault is consumed), and the step completes with recovery
    // activity on its health row.
    let spec = format!("assembly-nan@continuity/global:{}", warmup_hits + 1);
    let seeded = health_run(WARMUP_STEPS + 1, Some(&spec));
    for (r, (hits, _, live, _)) in seeded.iter().enumerate() {
        assert!(*hits > warmup_hits, "rank {r}: fault never reached its window");
        assert_eq!(live, &seeded[0].2, "rank {r}: the live detector is collective");
    }
    let (_, events, live, recoveries) = &seeded[0];
    let health = Report::from_events(events).health;
    let verdicts: Vec<(DegradationKind, usize)> =
        health.verdicts.iter().map(|v| (v.kind, v.step)).collect();
    assert!(
        verdicts.iter().any(|(k, _)| *k == DegradationKind::RecoveryStorm),
        "no recovery-storm verdict in {verdicts:?}"
    );
    for (_, step) in &verdicts {
        assert!(*step >= WARMUP_STEPS, "verdict inside warmup: {verdicts:?}");
    }
    let (replayed, live) = (health.verdicts.last().unwrap(), live.as_ref().unwrap());
    assert_eq!((replayed.step, replayed.kind, &replayed.eq), (live.step, live.kind, &live.eq));
    let bits = |v: &Verdict| [v.value.to_bits(), v.baseline.to_bits()];
    assert_eq!(bits(replayed), bits(live));
    assert!(*recoveries > 0);
    assert_eq!(health.recoveries, *recoveries as u64, "replayed recovery attempts");

    // The Report's health section and one-line summary pick it up.
    let events: Vec<Event> = seeded.into_iter().flat_map(|(_, e, _, _)| e).collect();
    let report = Report::from_events(&events);
    let summary = report.health_summary().expect("summary for a stream with health rows");
    assert!(summary.contains("recovery-storm"), "{summary}");
    assert!(report.render_ascii().contains("recovery-storm"));
}
