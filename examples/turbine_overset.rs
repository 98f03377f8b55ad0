//! Blade-resolved turbine simulation: the paper's low-resolution
//! single-turbine case at laptop scale — rotating rotor mesh, overset
//! coupling, AMG-preconditioned pressure solves — with the per-equation
//! timing breakdown of Figures 6/7 printed at the end.
//!
//! ```sh
//! cargo run --release --example turbine_overset
//! # with telemetry (JSONL event stream + end-of-run report):
//! cargo run --release --example turbine_overset -- --telemetry run.jsonl
//! ```

use exawind::env::RunEnv;
use exawind::nalu_core::{Phase, Simulation, SolverConfig};
use exawind::telemetry;
use exawind::windmesh::turbine::generate;
use exawind::windmesh::NrelCase;

/// `--telemetry <path>` from argv, else the environment's selection.
fn telemetry_path(env: &RunEnv) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--telemetry")
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("--telemetry requires a path argument");
                    std::process::exit(2);
                })
                .clone()
        })
        .or_else(|| env.telemetry_path.clone())
}

fn main() {
    let env = RunEnv::from_process("turbine_overset");
    let nranks = env.size(4);
    let steps = 2;
    let scale = 2e-4;
    let tel_path = telemetry_path(&env);

    let tm = generate(NrelCase::SingleLow, scale);
    println!(
        "== NREL 5-MW single turbine at scale {scale}: {} mesh nodes ({} background + {} rotor), {} overset receptors ==",
        tm.total_nodes(),
        tm.meshes[0].n_nodes(),
        tm.meshes[1].n_nodes(),
        tm.overset.receptors.len()
    );
    let meshes = tm.meshes;

    let cfg = SolverConfig {
        telemetry: tel_path.is_some(),
        ..env.config.clone()
    };
    let (transport, kernels) = (cfg.transport, cfg.kernels);
    let outputs = env.run(nranks, move |rank| {
        let mut sim = Simulation::new(rank, meshes.clone(), cfg.clone());
        let mut lines = Vec::new();
        for step in 0..steps {
            let report = sim.step(rank);
            if rank.rank() == 0 {
                lines.push(format!(
                    "step {step}: NLI {:.2}s, pressure GMRES iters {}",
                    report.nli_seconds, report.gmres_iters["continuity"]
                ));
            }
        }
        // Wake probe: axial velocity one radius downstream of the rotor.
        let state = sim.state(0);
        let mesh = sim.mesh(0);
        let mut deficit: Vec<String> = Vec::new();
        if rank.rank() == 0 {
            for (i, c) in mesh.coords.iter().enumerate() {
                if (c[0] - 126.0).abs() < 20.0 && c[2].abs() < 1.0 && c[1] >= 0.0 {
                    deficit.push(format!(
                        "  y={:6.1}  u_x={:6.3}",
                        c[1], state.vel[i][0]
                    ));
                }
            }
        }
        // Per-equation wall-clock breakdown (cumulative over the run).
        let mut breakdown = Vec::new();
        if rank.rank() == 0 {
            for eq in ["momentum", "continuity", "scalar"] {
                let row: Vec<String> = Phase::ALL
                    .iter()
                    .map(|&ph| format!("{}={:.3}s", ph.label(), sim.timings.get(eq, ph)))
                    .collect();
                breakdown.push(format!("{eq:12} {}", row.join("  ")));
            }
        }
        let clock = sim.clock_tables();
        let events = sim.finish_telemetry(rank);
        (lines, deficit, breakdown, events, clock)
    });

    let (lines, deficit, breakdown, ..) = &outputs[0];
    for l in lines {
        println!("{l}");
    }
    println!("\nwake profile 1R downstream (freestream 8 m/s):");
    for l in deficit {
        println!("{l}");
    }
    println!("\nper-equation wall-clock breakdown (cf. paper Figs. 6/7):");
    for l in breakdown {
        println!("  {l}");
    }

    if let Some(path) = tel_path {
        // Rank 0's clock tables (identical on every rank after the
        // startup handshake) align the per-rank epochs in the header.
        let clock = outputs[0].4.clone();
        let mut events =
            vec![telemetry::run_info(nranks, transport.label(), kernels.label(), clock)];
        events.extend(telemetry::merge_ranks(
            outputs.into_iter().map(|(_, _, _, ev, _)| ev).collect(),
        ));
        telemetry::write_jsonl(&path, &events)
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\ntelemetry: {} events written to {path}", events.len());
        let mut report = telemetry::Report::from_events(&events);
        report.bw_baseline_gbs = Some(machine::host_baseline().stream_gbs);
        print!("{}", report.render_ascii());
    }
}
