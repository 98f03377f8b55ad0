//! Integration tests for the unified telemetry layer: event-schema
//! round-trips, span-nesting invariants, histogram bucket edges, and an
//! end-to-end simulation export whose stream must be schema-valid and
//! aggregable into the Fig. 6/7-style report.

use std::collections::{BTreeMap, BTreeSet};

use exawind::nalu_core::{Simulation, SolverConfig};
use exawind::parcomm::{Comm, TransportKind};
use exawind::telemetry::{self, Event, LogHistogram, Report, Telemetry};
use exawind::windmesh::generate::{box_mesh, uniform_spacing, BoxBc};

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

/// The wire text of `Event::examples()`, one line per event type:
/// captured from the schema-6 encoder before the schema was declared as
/// one table, then changed only by schema 7 (no `kernel_perf` rates or
/// `eqs[].rate`, which the same line determines) and schema 8
/// (`"schema":8`, and no `phase_time` or `health_verdict` line, `span`
/// depth or `step_health` recoveries and checkpoint, which other lines
/// determine).
const EXAMPLES_JSONL: &str = r#"{"clock_offsets":[0.0,0.000125,-0.00003,0.000075],"clock_rtts":[0.0,0.00004,0.000035,0.00006],"git_commit":"deadbeef","kernel_policy":"auto","ranks":4,"schema":8,"threads":8,"transport":"inproc","type":"run"}
{"path":"timestep/picard/continuity/solve","rank":0,"secs":0.0123,"t0":0.875,"type":"span"}
{"collective_bytes":56,"collectives":7,"kernel_bytes":9223372036854775807,"kernel_flops":9999,"kernel_launches":120,"label":"continuity/solve","msg_bytes":2048,"msgs":14,"rank":2,"transfer_secs":0.0078125,"type":"phase_perf","wait_secs":0.0625}
{"bytes":786432,"class":"halo","dst":3,"msgs":96,"rank":0,"src":0,"t_first":0.125,"t_last":2.5,"type":"comm_edge"}
{"buckets":[[-15,60],[-14,4]],"bytes":512,"count":64,"kind":"allreduce","rank":1,"secs":0.004,"t_first":0.0625,"t_last":2.75,"type":"collective"}
{"grid_complexity":1.21,"levels":[{"level":0,"nnz":6800,"rows":1000},{"level":1,"nnz":1900,"rows":210}],"operator_complexity":1.2794117647058822,"path":"timestep/picard/continuity/precond setup","rank":0,"type":"amg"}
{"converged":true,"final_rel":0.00000032,"history":[1.0,0.25,0.001,0.00000032],"iters":3,"path":"timestep/picard/continuity/solve","rank":3,"type":"gmres"}
{"action":"rebuild","attempt":1,"eq":"continuity","fault":"non_finite_residual","outcome":"recovered","rank":0,"step":4,"type":"recovery"}
{"bytes":183472,"generation":4,"rank":0,"secs":0.0021,"step":4,"t":3.125,"type":"checkpoint"}
{"generation":4,"rank":1,"step":4,"t":0.03125,"type":"restore"}
{"amg_levels":3,"eqs":[{"eq":"continuity","final_rel":0.00000032,"iters":12},{"eq":"momentum","final_rel":0.000000001,"iters":5}],"grid_complexity":1.21,"operator_complexity":1.2794117647058822,"rank":0,"step":4,"type":"step_health"}
{"bytes":1200000000,"calls":240,"dofs":4000000,"flops":96000000,"kernel":"spmv_csr","rank":1,"secs":0.0125,"type":"kernel_perf"}
{"name":"assembly.matrix_entries","rank":0,"type":"counter","value":123456}
"#;

#[test]
fn every_event_type_round_trips_through_jsonl() {
    let examples = Event::examples();
    let tags: BTreeSet<&str> = examples.iter().map(|e| e.type_tag()).collect();
    // The fixture must cover the whole schema.
    let schema = BTreeSet::from([
        "run", "span", "phase_perf", "comm_edge", "collective", "amg", "gmres", "recovery",
        "checkpoint", "restore", "step_health", "kernel_perf", "counter",
    ]);
    assert_eq!(tags, schema);
    // Same bytes out, same events back in.
    let text: String = examples.iter().map(|e| e.to_line() + "\n").collect();
    assert_eq!(text, EXAMPLES_JSONL);
    assert_eq!(telemetry::read_jsonl_str(EXAMPLES_JSONL).unwrap(), examples);
}

#[test]
fn unclosed_span_fails_the_nesting_invariant() {
    let tel = Telemetry::enabled(0);
    let guard = tel.span("timestep");
    std::mem::forget(guard); // simulate a span leaked across finish()
    let err = tel.try_finish().unwrap_err();
    assert!(err.contains("timestep"), "{err}");
}

#[test]
fn histogram_bucket_edges_are_powers_of_two() {
    let mut h = LogHistogram::new();
    // 2^e is the *inclusive* lower edge of bucket e.
    h.record(4.0); // bucket 2
    h.record(f64::from_bits(4.0f64.to_bits() - 1)); // just below → bucket 1
    h.record(0.5); // bucket -1
    h.record(0.0); // underflow
    assert_eq!(h.bucket_count(2), 1);
    assert_eq!(h.bucket_count(1), 1);
    assert_eq!(h.bucket_count(-1), 1);
    assert_eq!(h.bucket_count(telemetry::UNDERFLOW_BUCKET), 1);
    assert_eq!(h.count(), 4);
}

// ---------------------------------------------------------------------------
// End-to-end simulation export
// ---------------------------------------------------------------------------

fn small_channel() -> exawind::windmesh::Mesh {
    // No-slip walls on the z faces: uniform inflow is NOT a solution, so
    // the solves genuinely iterate (exercising smoothers and AMG cycles).
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

/// Run a 2-rank, 2-step simulation with telemetry on and return the
/// merged event stream (run header first).
fn sim_events() -> Vec<Event> {
    let mesh = small_channel();
    let cfg = SolverConfig {
        telemetry: true,
        picard_iters: 2,
        ..SolverConfig::default()
    };
    let transport = cfg.transport.label();
    let per_rank = Comm::run(2, move |rank| {
        let mut sim = Simulation::new(rank, vec![mesh.clone()], cfg.clone());
        sim.step(rank);
        sim.step(rank);
        let clock = sim.clock_tables();
        (clock, sim.finish_telemetry(rank))
    });
    // The run header carries the clock-alignment table the handshake
    // produced (identical on every rank), as `exawind-worker` writes it;
    // the cross-rank comm_edge causality check depends on it.
    let clock = per_rank[0].0.clone();
    let mut events = vec![telemetry::run_info(2, transport, clock)];
    events.extend(telemetry::merge_ranks(per_rank.into_iter().map(|(_, e)| e).collect()));
    events
}

#[test]
fn simulation_stream_is_schema_valid_and_report_complete() {
    let events = sim_events();

    // Every event must survive a serialize → parse round-trip.
    for ev in &events {
        let line = ev.to_line();
        assert_eq!(&Event::parse_line(&line).unwrap(), ev, "{line}");
    }

    let report = Report::from_events(&events);
    assert_eq!(report.ranks, 2);
    assert_eq!(report.steps, 2);

    // Fig. 6/7 phase breakdown: all three equation systems, all five
    // phases, in plot order.
    for eq in ["momentum", "continuity", "scalar"] {
        assert!(report.equations().contains(&eq.to_string()), "{eq} missing");
    }
    assert_eq!(
        report.phases,
        vec![
            "graph+physics",
            "local assembly",
            "global assembly",
            "precond setup",
            "solve"
        ]
    );

    // AMG hierarchy table for the pressure solve: per-level rows/nnz and
    // both complexities.
    // The pressure operator is bit-identical from solve to solve, so the
    // hierarchy is set up once per rank and reused by the other three
    // solves; both steps' health rows still carry its shape, read from
    // the cached hierarchy.
    let amg = &report.amg["continuity"];
    assert!(amg.setups >= 1, "no AMG setup recorded");
    assert_eq!(report.counters["amg.setup_rebuilt"], 2, "one setup per rank expected");
    assert_eq!(report.counters["amg.setup_reused"], 6, "3 reuses per rank expected");
    assert_eq!(report.counters["graphs.rebuilt"], 2);
    assert_eq!(report.counters["graphs.reused"], 2);
    // One assembly plan per graph — the transport graph's, recorded by
    // the first momentum assembly, and the continuity graph's — per rank;
    // every assembly replays one: 2 steps × 2 Picard × momentum and
    // scalar through the transport plan, and the one continuity operator,
    // per rank. The other three continuity solves reuse the operator
    // cached with its hierarchy.
    assert_eq!(report.counters["assembly.plan_built"], 4, "2 plans per rank expected");
    assert_eq!(report.counters["assembly.plan_replayed"], 18);
    assert_eq!(report.counters["continuity.operators_assembled"], 2);
    assert_eq!(report.counters["continuity.operators_reused"], 6);
    let health: Vec<(usize, u64, f64, f64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::StepHealth { rank: 0, step, amg_levels, grid_complexity, operator_complexity, .. } => {
                Some((*step, *amg_levels, *grid_complexity, *operator_complexity))
            }
            _ => None,
        })
        .collect();
    assert_eq!(health.len(), 2, "one step_health row per step on rank 0");
    for &(step, levels, gc, oc) in &health {
        assert_eq!(levels as usize, amg.levels.len(), "step {step}");
        assert_eq!(gc.to_bits(), amg.grid_complexity.to_bits(), "step {step}");
        assert_eq!(oc.to_bits(), amg.operator_complexity.to_bits(), "step {step}");
    }
    assert!(!amg.levels.is_empty());
    for (i, l) in amg.levels.iter().enumerate() {
        assert_eq!(l.level, i);
        assert!(l.rows > 0 && l.nnz > 0);
    }
    assert!(amg.grid_complexity >= 1.0);
    assert!(amg.operator_complexity >= 1.0);

    // GMRES aggregates for every equation system.
    for eq in ["momentum", "continuity", "scalar"] {
        let g = &report.gmres[eq];
        assert!(g.solves > 0, "{eq} has no gmres events");
        assert!(!g.last_history.is_empty());
        assert!(g.last_final_rel.is_finite());
    }

    // Span tree: the hierarchy the sim layer promises.
    for path in [
        "timestep",
        "timestep/picard",
        "timestep/picard/continuity/solve",
        "timestep/picard/continuity/precond setup",
        "timestep/picard/momentum/local assembly",
    ] {
        assert!(report.spans.contains_key(path), "span {path} missing");
    }

    // Counters from the assembly layer and smoother instrumentation.
    assert!(report.counters["assembly.matrix_entries"] > 0);
    assert!(report.counters.keys().any(|k| k.starts_with("smoother.")));
    assert!(report.hists["gmres.iters"].count() > 0);

    // Kernel-level perf accounting: every hot kernel the sim path hits
    // must show up with non-trivial analytic byte/flop totals.
    for kernel in [
        "spmv_csr",
        "jr_sweep_fused",
        "sgs2_forward_fused",
        "sgs2_backward_fused",
        "assembly_sort_reduce",
        "assembly_gather",
        "halo_pack",
        "spgemm",
        // The `IjVector` plan replay: priced by phase only before the
        // ledgers were unified.
        "rhs_gather_add",
    ] {
        let k = report
            .kernels
            .get(kernel)
            .unwrap_or_else(|| panic!("kernel_perf missing for {kernel}"));
        assert!(k.calls > 0 && k.bytes > 0, "{kernel}: {k:?}");
    }
    assert!(report.kernels["spmv_csr"].flops > 0);

    // Comm observability: both directed edges of the 2-rank job, each
    // class-tagged; collective totals with latency samples; the per-phase
    // imbalance table fed by the phase spans + phase_perf wait clocks.
    assert!(!report.comm_edges.is_empty(), "no comm edges aggregated");
    let edge_pairs: BTreeSet<(usize, usize)> =
        report.comm_edges.keys().map(|&(s, d, _)| (s, d)).collect();
    assert!(edge_pairs.contains(&(0, 1)) && edge_pairs.contains(&(1, 0)), "{edge_pairs:?}");
    // Halo pull requests, the Algorithm 1/2 pushes and the plan
    // replays ride p2p tags; the one-hop collectives are the only kinds.
    assert!(report.comm_edges.keys().any(|(_, _, class)| class == "p2p"), "no p2p edge");
    let kinds: Vec<&str> = report.collectives.keys().map(String::as_str).collect();
    assert_eq!(kinds, ["allgather", "allreduce"], "collective kinds");
    for kind in kinds {
        let c = report
            .collectives
            .get(kind)
            .unwrap_or_else(|| panic!("collective totals missing for {kind}"));
        assert!(c.count > 0, "{kind}: {c:?}");
        assert!(c.latency.count() > 0, "{kind} latency unsampled with telemetry on");
    }
    assert!(report.imbalance.contains_key("solve"), "{:?}", report.imbalance.keys());
    assert!(report.imbalance["solve"].imbalance() >= 1.0);

    // Semantic validation: phase_perf labels must reference real spans,
    // kernel_perf rows must be sane, comm edges symmetric and in range,
    // collective participation consistent.
    telemetry::validate_stream(&events)
        .unwrap_or_else(|errs| panic!("stream fails validation: {errs:?}"));

    // The rendered report carries the headline numbers.
    let mut report = report;
    report.bw_baseline_gbs = Some(100.0);
    let text = report.render_ascii();
    assert!(text.contains("Figs. 6/7"), "{text}");
    assert!(text.contains("AMG hierarchy for continuity"), "{text}");
    assert!(
        text.contains(
            "AMG setups rebuilt 2 / reused 6; graphs rebuilt 2 / reused 2; \
             assembly plans built 4 / replayed 18; \
             continuity operators assembled 2 / reused 6"
        ),
        "{text}"
    );
    assert!(text.contains("GMRES solves"), "{text}");
    assert!(text.contains("kernel throughput"), "{text}");
    assert!(text.contains("spmv_csr"), "{text}");
    assert!(text.contains("%bw"), "{text}");
    assert!(text.contains("communication matrix"), "{text}");
    assert!(text.contains("per-phase rank imbalance"), "{text}");
    assert!(text.contains("collectives (latency"), "{text}");
}

/// The run header says what the run was configured with: a socket run
/// configured in code is labelled so, with the one kernel policy, and
/// its stream still validates.
#[test]
fn run_header_is_labelled_from_the_config() {
    let mesh = small_channel();
    let cfg = SolverConfig {
        telemetry: true,
        picard_iters: 2,
        transport: TransportKind::Socket,
        ..SolverConfig::default()
    };
    let per_rank = Comm::run_with(cfg.transport, 2, |rank| {
        let mut sim = Simulation::new(rank, vec![mesh.clone()], cfg.clone());
        sim.step(rank);
        (sim.clock_tables(), sim.finish_telemetry(rank))
    });
    let clock = per_rank[0].0.clone();
    let header = telemetry::run_info(2, cfg.transport.label(), clock);
    let line = header.to_line();
    assert!(line.contains(r#""transport":"socket""#), "{line}");
    assert!(line.contains(r#""kernel_policy":"auto""#), "{line}");
    let mut events = vec![header];
    events.extend(telemetry::merge_ranks(per_rank.into_iter().map(|(_, e)| e).collect()));
    telemetry::validate_stream(&events)
        .unwrap_or_else(|errs| panic!("stream fails validation: {errs:?}"));
    let report = Report::from_events(&events);
    assert_eq!((report.transport.as_str(), report.kernel_policy.as_str()), ("socket", "auto"));
    assert!(report.kernels.contains_key("spmv_csr"));
}

/// The report's phase breakdown, read from the phase spans, covers the
/// `Timings` ledger each step returns: the same (equation, phase) cells,
/// and on each rank no cell's span seconds below its ledger seconds —
/// the span guards open before and close after `Timings::time`, so this
/// is an inequality, not a timing tolerance.
#[test]
fn span_phase_times_cover_the_timings_ledger() {
    let mesh = small_channel();
    let cfg = SolverConfig { telemetry: true, picard_iters: 2, ..SolverConfig::default() };
    let per_rank = Comm::run(2, move |rank| {
        let mut sim = Simulation::new(rank, vec![mesh.clone()], cfg.clone());
        let mut ledger: BTreeMap<(String, String), f64> = BTreeMap::new();
        for _ in 0..2 {
            for (eq, phase, secs) in sim.step(rank).timings.iter() {
                *ledger.entry((eq.to_string(), phase.label().to_string())).or_default() += secs;
            }
        }
        (ledger, sim.finish_telemetry(rank))
    });
    let cells: BTreeSet<&(String, String)> = per_rank.iter().flat_map(|(l, _)| l.keys()).collect();
    let events = telemetry::merge_ranks(per_rank.iter().map(|(_, e)| e.clone()).collect());
    let report = Report::from_events(&events);
    assert_eq!(report.phase_secs.keys().collect::<BTreeSet<_>>(), cells);
    for (rank, (ledger, events)) in per_rank.iter().enumerate() {
        for ((eq, phase), &secs) in ledger {
            let suffix = format!("/{eq}/{phase}");
            let spans: f64 = events
                .iter()
                .filter_map(|e| match e {
                    Event::Span { path, secs, .. } if path.ends_with(&suffix) => Some(secs),
                    _ => None,
                })
                .sum();
            assert!(spans >= secs - 1e-9, "rank {rank} {eq}/{phase}: spans {spans} < ledger {secs}");
        }
    }
}
