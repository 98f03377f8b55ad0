//! End-to-end fault injection and recovery.
//!
//! Each test arms a seeded [`FaultPlan`] through `SolverConfig::faults`
//! (the environment path uses the same parser and is covered by the CI
//! smoke step), injects a corruption into a specific solve, and checks
//! that the Picard driver detects it as a typed [`SolveError`], walks the
//! escalation ladder deterministically, emits `recovery` telemetry
//! events, and converges to the same answer as a clean run.

use exawind::nalu_core::{Simulation, SolveError, SolverConfig};
use exawind::parcomm::{Comm, FaultPlan, Rank};
use exawind::telemetry::Event;
use exawind::windmesh::generate::{box_mesh, uniform_spacing, BoxBc};
use exawind::windmesh::Mesh;

/// Empty wind-tunnel box; uniform inflow is an exact steady solution.
fn small_box() -> Mesh {
    box_mesh(
        uniform_spacing(0.0, 4.0, 6),
        uniform_spacing(0.0, 2.0, 4),
        uniform_spacing(0.0, 2.0, 4),
        BoxBc::wind_tunnel(),
    )
}

/// Larger box whose pressure system (288 rows) is big enough that a
/// forced coarsening stall is fatal rather than tolerable (the stall
/// tolerance factor allows stalls within 4x of `max_coarse_size`).
fn bigger_box() -> Mesh {
    box_mesh(
        uniform_spacing(0.0, 4.0, 8),
        uniform_spacing(0.0, 2.0, 6),
        uniform_spacing(0.0, 2.0, 6),
        BoxBc::wind_tunnel(),
    )
}

fn cfg_with_faults(plan: Option<&str>) -> SolverConfig {
    SolverConfig {
        picard_iters: 2,
        telemetry: true,
        faults: plan.map(|p| FaultPlan::parse(p).expect("plan parses")),
        ..SolverConfig::default()
    }
}

/// Per-rank (field bits, recovery records, recovery telemetry events).
type StepOut = Vec<(Vec<u64>, Vec<exawind::nalu_core::RecoveryRecord>, Vec<Event>)>;

/// One step on 2 ranks.
fn run_step(mesh: Mesh, plan: Option<&str>) -> StepOut {
    run_step_on(vec![mesh], plan)
}

/// [`run_step`] over a set of overset meshes, with the bits of every mesh.
fn run_step_on(meshes: Vec<Mesh>, plan: Option<&str>) -> StepOut {
    Comm::run(2, move |rank| {
        let mut sim = Simulation::new(rank, meshes.clone(), cfg_with_faults(plan));
        let report = sim.step(rank);
        let events: Vec<Event> = sim
            .finish_telemetry(rank)
            .into_iter()
            .filter(|e| matches!(e, Event::Recovery { .. }))
            .collect();
        let mut bits: Vec<u64> = Vec::new();
        for st in (0..sim.n_meshes()).map(|m| sim.state(m)) {
            bits.extend(st.vel.iter().flat_map(|v| v.iter().map(|x| x.to_bits())));
            bits.extend(st.p.iter().map(|x| x.to_bits()));
            bits.extend(st.nut.iter().map(|x| x.to_bits()));
        }
        (bits, report.recoveries, events)
    })
}

#[test]
fn clean_run_records_no_recoveries() {
    for (bits, recs, events) in run_step(small_box(), None) {
        assert!(recs.is_empty(), "clean run walked the ladder: {recs:?}");
        assert!(events.is_empty());
        assert!(bits.iter().all(|b| f64::from_bits(*b).is_finite()));
    }
}

/// An armed-but-empty plan must not perturb a single bit: the injector
/// hooks run but never fire.
#[test]
fn armed_empty_plan_is_bitwise_clean() {
    let clean = run_step(small_box(), None);
    let armed = run_step(small_box(), Some(""));
    for ((cb, _, _), (ab, _, recs)) in clean.iter().zip(&armed) {
        assert!(recs.is_empty());
        assert_eq!(cb, ab, "empty fault plan changed the solution");
    }
}

/// The headline scenario: a NaN injected into the continuity assembly is
/// caught by the pre-solve finite scan, the first ladder rung (a fresh
/// rebuild) clears it, and the converged fields are bitwise identical to
/// the clean run.
#[test]
fn injected_continuity_nan_recovers_bitwise() {
    let clean = run_step(small_box(), None);
    let faulted = run_step(small_box(), Some("assembly-nan@continuity:1"));
    for (r, ((cb, _, _), (fb, recs, events))) in clean.iter().zip(&faulted).enumerate() {
        assert_eq!(recs.len(), 1, "rank {r}: expected one recovery, got {recs:?}");
        let rec = &recs[0];
        assert_eq!(rec.eq, "continuity");
        assert_eq!(rec.fault, "non_finite_coefficient");
        assert_eq!(rec.action, "rebuild");
        assert_eq!(rec.attempt, 1);
        assert_eq!(rec.outcome, "recovered");
        // The telemetry stream mirrors the record.
        assert_eq!(events.len(), 1, "rank {r}: {events:?}");
        match &events[0] {
            Event::Recovery { eq, fault, action, outcome, .. } => {
                assert_eq!(eq, "continuity");
                assert_eq!(fault, "non_finite_coefficient");
                assert_eq!(action, "rebuild");
                assert_eq!(outcome, "recovered");
            }
            other => panic!("{other:?}"),
        }
        // A one-shot fault plus a fresh rebuild reproduces the clean
        // solve exactly — same tolerance, same bits.
        assert_eq!(cb, fb, "rank {r}: recovered fields differ from clean run");
    }
}

/// A halo payload flipped to NaN mid-solve surfaces as a non-finite
/// residual inside GMRES and is cleared by the rebuild retry.
#[test]
fn injected_halo_nan_recovers_bitwise() {
    let clean = run_step(small_box(), None);
    let faulted = run_step(small_box(), Some("halo-nan@continuity/solve:1"));
    for ((cb, _, _), (fb, recs, _)) in clean.iter().zip(&faulted) {
        assert_eq!(recs.len(), 1, "expected one recovery, got {recs:?}");
        assert_eq!(recs[0].eq, "continuity");
        assert_eq!(recs[0].fault, "non_finite_residual");
        assert_eq!(recs[0].outcome, "recovered");
        assert_eq!(cb, fb, "recovered fields differ from clean run");
    }
}

/// Momentum and the scalar share one graph, one value buffer and one
/// solve path, and a fault in either recovers bitwise with one rebuild,
/// on the rotating 2-mesh turbine case (where every component moves).
/// The scalar case corrupts the first scalar assembly, which replays the
/// plan and refills the buffer momentum filled before it. The momentum
/// case turns the step's last momentum halo exchange to NaN (occurrence
/// probed, as in `mid_run_halo_nan_evicts_cached_hierarchy_and_recovers_bitwise`):
/// the last residual of a z component, after x and y have solved. The
/// retry assembles from the velocity the failed attempt assembled from
/// only if no component was committed before all had solved.
#[test]
fn transport_faults_recover_bitwise() {
    use exawind::windmesh::turbine::{generate, NrelCase};
    let meshes = generate(NrelCase::SingleLow, 1e-4).meshes;
    let clean = run_step_on(meshes.clone(), None);
    let probe = Comm::run(2, |rank| {
        let cfg = cfg_with_faults(Some("halo-nan@momentum/solve:1000000"));
        let mut sim = Simulation::new(rank, meshes.clone(), cfg);
        sim.step(rank);
        rank.fault_counters()[0].0
    });
    assert_eq!(probe[0], probe[1], "halo hook calls differ across ranks");
    let halo = format!("halo-nan@momentum/solve:{}", probe[0]);
    for (spec, eq) in [("assembly-nan@scalar:1", "scalar"), (halo.as_str(), "momentum")] {
        let faulted = run_step_on(meshes.clone(), Some(spec));
        for (r, ((cb, _, _), (fb, recs, _))) in clean.iter().zip(&faulted).enumerate() {
            assert_eq!(recs.len(), 1, "{spec} rank {r}: expected one recovery, got {recs:?}");
            assert_eq!(recs[0].eq, eq, "{spec} rank {r}");
            assert_eq!(recs[0].action, "rebuild", "{spec} rank {r}");
            assert_eq!(recs[0].outcome, "recovered", "{spec} rank {r}");
            assert_eq!(cb, fb, "{spec} rank {r}: recovered fields differ from clean run");
        }
    }
}

/// A peer socket dropping mid-solve surfaces as a typed
/// `SolveError::Comm` (kind `"comm"`) from the exchange hook, *before*
/// any message of the exchange went out — so the rebuild rung re-runs a
/// complete, clean exchange and the recovered fields match the clean
/// run bit for bit. The injector counters are replicated per rank,
/// so both ranks abort the same exchange and walk the same ladder.
#[test]
fn injected_socket_drop_recovers_bitwise() {
    socket_drop_recovers_bitwise(&run_step(small_box(), None), "socket-drop@continuity:1");
}

/// The same at every hook call of the pressure AMG setup: PMIS's
/// exchanges and sums, interpolation's id pulls and the transposes. The
/// number of calls in the step's one setup is probed, not assumed.
#[test]
fn injected_socket_drop_in_amg_setup_recovers_bitwise() {
    let calls = Comm::run(2, |rank| {
        let mut sim = Simulation::new(
            rank,
            vec![small_box()],
            cfg_with_faults(Some("socket-drop@precond setup:1000000")),
        );
        sim.step(rank);
        rank.fault_counters()[0].0
    });
    assert_eq!(calls[0], calls[1], "setup hook calls differ across ranks");
    assert!(calls[0] > 1, "probe found {} hook calls", calls[0]);
    let clean = run_step(small_box(), None);
    for k in 1..=calls[0] {
        socket_drop_recovers_bitwise(&clean, &format!("socket-drop@precond setup:{k}"));
    }
}

fn socket_drop_recovers_bitwise(clean: &StepOut, spec: &str) {
    let faulted = run_step(small_box(), Some(spec));
    for (r, ((cb, _, _), (fb, recs, events))) in clean.iter().zip(&faulted).enumerate() {
        assert_eq!(recs.len(), 1, "{spec} rank {r}: expected one recovery, got {recs:?}");
        let rec = &recs[0];
        assert_eq!(rec.eq, "continuity", "{spec}");
        assert_eq!(rec.fault, "comm", "{spec}");
        assert!(
            rec.detail.contains("injected socket drop"),
            "{spec} rank {r}: {rec:?}"
        );
        assert_eq!(rec.action, "rebuild", "{spec}");
        assert_eq!(rec.outcome, "recovered", "{spec}");
        assert_eq!(events.len(), 1, "{spec} rank {r}: {events:?}");
        assert_eq!(cb, fb, "{spec} rank {r}: recovered fields differ from clean run");
    }
    // The recovery walk is collective: identical on both ranks.
    let walk = |recs: &[exawind::nalu_core::RecoveryRecord]| -> Vec<(String, String, usize)> {
        recs.iter()
            .map(|r| (r.fault.clone(), r.action.clone(), r.attempt))
            .collect()
    };
    assert_eq!(walk(&faulted[0].1), walk(&faulted[1].1));
}

/// A peer that stays dead defeats every rung: all ranks exhaust the
/// ladder with the same typed `Comm` error — no panic, no deadlock.
#[test]
fn persistent_socket_drop_exhausts_ladder_with_typed_error() {
    let mesh = small_box();
    let out = Comm::run(2, move |rank| {
        let mut sim = Simulation::new(
            rank,
            vec![mesh.clone()],
            cfg_with_faults(Some("socket-drop@continuity:1x999")),
        );
        let res = sim.try_step(rank);
        let events: Vec<Event> = sim
            .finish_telemetry(rank)
            .into_iter()
            .filter(|e| matches!(e, Event::Recovery { .. }))
            .collect();
        (res.map(|_| ()), events)
    });
    for (res, events) in out {
        match res {
            Err(SolveError::Comm { detail }) => {
                assert!(detail.contains("injected socket drop"), "{detail}");
            }
            other => panic!("expected Comm error, got {other:?}"),
        }
        let outcomes: Vec<&str> = events
            .iter()
            .map(|e| match e {
                Event::Recovery { outcome, .. } => outcome.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(outcomes, vec!["retry", "retry", "failed"]);
    }
}

/// A persistently stalling AMG coarsener cannot be fixed by rebuilding —
/// the driver must escalate past the rebuild rung and recover on the
/// fallback smoother (SGS2 replaces the degenerate hierarchy).
#[test]
fn persistent_coarsen_stall_escalates_to_fallback_smoother() {
    let out = run_step(bigger_box(), Some("coarsen-stall@continuity:1x999"));
    for (bits, recs, _) in &out {
        assert!(
            recs.len() >= 2,
            "expected escalation past the rebuild rung, got {recs:?}"
        );
        assert_eq!(recs[0].fault, "coarsening_stagnation");
        assert_eq!(recs[0].action, "rebuild");
        assert_eq!(recs[0].outcome, "retry");
        let last = recs.last().unwrap();
        assert_eq!(last.action, "fallback_smoother");
        assert_eq!(last.outcome, "recovered");
        assert!(bits.iter().all(|b| f64::from_bits(*b).is_finite()));
    }
    // Recovery decisions are collective: both ranks report the same walk.
    let sig =
        |recs: &[exawind::nalu_core::RecoveryRecord]| -> Vec<(String, String, String, usize)> {
            recs.iter()
                .map(|r| (r.eq.clone(), r.fault.clone(), r.action.clone(), r.attempt))
                .collect()
        };
    assert_eq!(sig(&out[0].1), sig(&out[1].1));
}

/// A fault that corrupts every assembly attempt exhausts the ladder: the
/// step fails with a typed error (no panic, no deadlock) on every rank,
/// and the attempts are reported as retry/retry/failed.
#[test]
fn unrecoverable_fault_exhausts_ladder_with_typed_error() {
    let mesh = small_box();
    let out = Comm::run(2, move |rank| {
        let mut sim = Simulation::new(
            rank,
            vec![mesh.clone()],
            cfg_with_faults(Some("assembly-nan@continuity:1x999")),
        );
        let res = sim.try_step(rank);
        let events: Vec<Event> = sim
            .finish_telemetry(rank)
            .into_iter()
            .filter(|e| matches!(e, Event::Recovery { .. }))
            .collect();
        (res.map(|_| ()), events)
    });
    for (res, events) in out {
        match res {
            Err(SolveError::NonFiniteCoefficient { context, .. }) => {
                assert_eq!(context, "continuity/global assembly");
            }
            other => panic!("expected NonFiniteCoefficient, got {other:?}"),
        }
        let outcomes: Vec<&str> = events
            .iter()
            .map(|e| match e {
                Event::Recovery { outcome, .. } => outcome.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(outcomes, vec!["retry", "retry", "failed"]);
    }
}

/// Recovery can be switched off: the first typed error then aborts the
/// step immediately with no ladder walk.
#[test]
fn disabled_recovery_fails_fast() {
    let mesh = small_box();
    let out = Comm::run(2, move |rank| {
        let cfg = SolverConfig {
            recovery: exawind::nalu_core::RecoveryPolicy {
                enabled: false,
                ..Default::default()
            },
            ..cfg_with_faults(Some("assembly-nan@continuity:1"))
        };
        let mut sim = Simulation::new(rank, vec![mesh.clone()], cfg);
        let res = sim.try_step(rank);
        (res.map(|_| ()), sim.finish_telemetry(rank).len())
    });
    for (res, _) in out {
        assert!(
            matches!(res, Err(SolveError::NonFiniteCoefficient { .. })),
            "{res:?}"
        );
    }
}

/// Two steps on 2 ranks; returns per-rank (field bits, recovery records
/// of step 2, `amg.setup_rebuilt` total, halo-nan hook calls of step 1).
fn run_two_steps(plan: Option<String>) -> Vec<(Vec<u64>, usize, u64, u64)> {
    Comm::run(2, move |rank| {
        let mut sim = Simulation::new(rank, vec![small_box()], cfg_with_faults(plan.as_deref()));
        sim.step(rank);
        let step1_hits = rank.fault_counters().first().map_or(0, |&(h, _)| h);
        let report = sim.step(rank);
        let rebuilt = sim
            .finish_telemetry(rank)
            .iter()
            .find_map(|e| match e {
                Event::Counter { name, value, .. } if name == "amg.setup_rebuilt" => Some(*value),
                _ => None,
            })
            .unwrap_or(0);
        let st = sim.state(0);
        let mut bits: Vec<u64> = Vec::new();
        bits.extend(st.vel.iter().flat_map(|v| v.iter().map(|x| x.to_bits())));
        bits.extend(st.p.iter().map(|x| x.to_bits()));
        bits.extend(st.nut.iter().map(|x| x.to_bits()));
        (bits, report.recoveries.len(), rebuilt, step1_hits)
    })
}

/// The pressure hierarchy is set up once and then reused, so a failed
/// attempt must evict it or the `rebuild` rung would retry on the very
/// preconditioner it suspects. A halo NaN in the first pressure solve of
/// step 2 (occurrence probed, as in `tests/timeline.rs`) hits a reused
/// hierarchy: the run must recover bitwise equal to the clean one *and*
/// have run a second setup.
#[test]
fn mid_run_halo_nan_evicts_cached_hierarchy_and_recovers_bitwise() {
    let clean = run_two_steps(None);
    let probe = run_two_steps(Some("halo-nan@continuity/solve:1000000".into()));
    let spec = format!("halo-nan@continuity/solve:{}", probe[0].3 + 1);
    let faulted = run_two_steps(Some(spec));
    for (r, (c, f)) in clean.iter().zip(&faulted).enumerate() {
        assert_eq!(c.1, 0, "rank {r}: clean run walked the ladder");
        assert_eq!(c.2, 1, "rank {r}: clean run sets the hierarchy up exactly once");
        assert_eq!(f.1, 1, "rank {r}: expected one recovery in step 2");
        assert_eq!(f.2, 2, "rank {r}: the retry must rebuild the evicted hierarchy");
        assert_eq!(c.0, f.0, "rank {r}: recovered fields differ from clean run");
    }
}

/// Every continuity solve attempt calls the global-assembly fault hooks
/// once, whether it assembles its operator or reuses the one cached with
/// its graphs: over 3 steps of the 2-mesh turbine case, each hook is
/// called `picard_iters × meshes × steps` times on every rank, at 1 and
/// 2 ranks. Occurrences are probed with a window out of reach, so
/// nothing fires.
#[test]
fn continuity_hook_calls_are_one_per_solve_attempt() {
    use exawind::windmesh::turbine::{generate, NrelCase};
    const STEPS: usize = 3;
    let meshes = generate(NrelCase::SingleLow, 1e-4).meshes;
    let n_meshes = meshes.len();
    for p in [1, 2] {
        let meshes = meshes.clone();
        let counters = Comm::run(p, move |rank| {
            let plan = "assembly-nan@continuity/global:1000000;\
                        socket-drop@continuity/global:1000000";
            let cfg = SolverConfig {
                picard_iters: 2,
                faults: Some(FaultPlan::parse(plan).expect("plan parses")),
                ..SolverConfig::default()
            };
            let mut sim = Simulation::new(rank, meshes.clone(), cfg);
            for _ in 0..STEPS {
                sim.step(rank);
            }
            rank.fault_counters()
        });
        let calls = (2 * n_meshes * STEPS) as u64;
        for (r, c) in counters.iter().enumerate() {
            assert_eq!(c, &[(calls, 0), (calls, 0)], "p={p} rank {r}: (hits, fired) per hook");
        }
    }
}

/// `Simulation::new` replaces the recorder and the fault plan that an
/// earlier simulation left on its rank. Simulation A (telemetry on, a
/// plan armed) is dropped without `finish_telemetry`; simulation B
/// (telemetry off, no plan) then records no event, counts no fault hook
/// and times no kernel, though its kernels run.
#[test]
fn a_new_simulation_replaces_what_a_dropped_one_left_on_its_rank() {
    /// Calls and seconds over this rank's `kernel_perf` rows so far.
    fn kernel_totals(rank: &Rank) -> (u64, f64) {
        rank.telemetry_events().iter().fold((0, 0.0), |(calls, secs), e| match e {
            Event::KernelPerf { calls: c, secs: s, .. } => (calls + c, secs + s),
            _ => (calls, secs),
        })
    }
    Comm::run(1, |rank| {
        let plan = Some("assembly-nan@continuity/global:1000000");
        let mut a = Simulation::new(rank, vec![small_box()], cfg_with_faults(plan));
        a.step(rank);
        drop(a);
        assert_ne!(rank.fault_counters(), vec![], "A armed its plan");
        let (calls_a, secs_a) = kernel_totals(rank);
        assert!(secs_a > 0.0, "A timed its kernels");

        let cfg_b = SolverConfig { telemetry: false, ..cfg_with_faults(None) };
        let mut b = Simulation::new(rank, vec![small_box()], cfg_b);
        b.step(rank);
        assert_eq!(b.finish_telemetry(rank), vec![]);
        assert_eq!(rank.fault_counters(), vec![]);
        let (calls_b, secs_b) = kernel_totals(rank);
        assert!(calls_b > calls_a, "B ran kernels");
        assert_eq!(secs_b, secs_a, "B timed a kernel");
    });
}

/// The field bits of a recovery that lands past the rebuild rung, pinned
/// on the rotating 2-mesh turbine case. A global-assembly NaN in two
/// consecutive attempts of one system recovers on the fallback smoother
/// (Jacobi-Richardson for momentum and the scalar, SGS2 for continuity);
/// in three, on the cut time step. Occurrence 1 is the background mesh's
/// first solve of the system, which uniform inflow leaves trivial, so
/// every rung lands on the clean run's bits; occurrence 2 is the rotor
/// mesh's, where GMRES iterates and each rung moves the answer. The
/// checksum is an FNV-64 of every mesh's final `vel`/`p`/`nut` bits.
#[test]
fn recovery_rungs_past_rebuild_pin_their_field_bits() {
    use exawind::resilience::checkpoint::fnv64;
    use exawind::windmesh::turbine::{generate, NrelCase};
    const CLEAN: u64 = 0xe184_93bc_ff77_1e9b;
    let meshes = generate(NrelCase::SingleLow, 1e-4).meshes;
    let cases = [
        ("momentum", 1, CLEAN, CLEAN),
        ("momentum", 2, 0x26d1_a80e_f606_32ba, 0xe45b_1ccd_6301_ead6),
        ("scalar", 1, CLEAN, CLEAN),
        ("scalar", 2, 0x9c29_ab83_479c_f2cb, 0x86fe_8e24_f5da_14f9),
        ("continuity", 1, CLEAN, CLEAN),
        ("continuity", 2, 0x2079_0579_a902_e6a9, 0x3af7_3aa4_b10f_4923),
    ];
    for (eq, first, fallback, cut) in cases {
        let rungs = [(2, "fallback_smoother", fallback), (3, "cut_timestep", cut)];
        for (count, rung, checksum) in rungs {
            let spec = format!("assembly-nan@{eq}/global:{first}x{count}");
            let out = run_step_on(meshes.clone(), Some(&spec));
            for (r, (bits, recs, _)) in out.iter().enumerate() {
                let walk: Vec<(&str, &str, &str)> = recs
                    .iter()
                    .map(|rec| (rec.eq.as_str(), rec.action.as_str(), rec.outcome.as_str()))
                    .collect();
                let mut expected = vec![(eq, "rebuild", "retry")];
                if rung == "cut_timestep" {
                    expected.push((eq, "fallback_smoother", "retry"));
                }
                expected.push((eq, rung, "recovered"));
                assert_eq!(walk, expected, "{spec} rank {r}");
                let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
                assert_eq!(fnv64(&bytes), checksum, "{spec} rank {r}: field bits moved");
            }
        }
    }
}
