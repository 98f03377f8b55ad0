//! Quickstart: simulate uniform wind through an empty tunnel on 4
//! simulated MPI ranks, then print residual behaviour and a flow probe.
//!
//! ```sh
//! cargo run --release --example quickstart
//! # with telemetry (JSONL event stream + end-of-run report):
//! cargo run --release --example quickstart -- --telemetry run.jsonl
//! # equivalently (every variable is listed in README.md "Environment"):
//! EXAWIND_TELEMETRY=run.jsonl cargo run --release --example quickstart
//! # same run with the ranks wired over Unix-domain sockets instead of channels:
//! EXAWIND_TRANSPORT=socket cargo run --release --example quickstart
//! # same run as 4 OS processes, one rank each (see exawind-launch):
//! cargo build --release --example quickstart
//! target/release/exawind-launch -n 4 -- target/release/examples/quickstart
//! ```

use exawind::env::RunEnv;
use exawind::nalu_core::{Simulation, SolverConfig};
use exawind::telemetry;
use exawind::windmesh::generate::{box_mesh, uniform_spacing, BoxBc};

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
    // The environment is read here, once; everything below is a
    // function of the config it yields.
    let env = RunEnv::from_process("quickstart");
    // Under `exawind-launch` the rank count is the launcher's;
    // standalone it defaults to 4.
    let nranks = env.size(4);
    let steps = 3;
    let tel_path = telemetry_path(&env);

    let cfg = SolverConfig {
        telemetry: tel_path.is_some(),
        ..env.config.clone()
    };
    let transport = cfg.transport;

    // The rank closure is identical however the communicator is backed.
    let outputs = env.run(nranks, move |rank| {
        // A 10×4×4 rotor-diameter wind tunnel, inflow 8 m/s in +x.
        let mesh = box_mesh(
            uniform_spacing(0.0, 630.0, 17),
            uniform_spacing(-126.0, 126.0, 9),
            uniform_spacing(-126.0, 126.0, 9),
            BoxBc::wind_tunnel(),
        );
        let mut sim = Simulation::new(rank, vec![mesh], cfg.clone());

        let mut lines = Vec::new();
        for step in 0..steps {
            let report = sim.step(rank);
            if rank.rank() == 0 {
                lines.push(format!(
                    "step {step}: NLI {:.3}s, GMRES iters: momentum={} continuity={} scalar={}",
                    report.nli_seconds,
                    report.gmres_iters["momentum"],
                    report.gmres_iters["continuity"],
                    report.gmres_iters["scalar"],
                ));
            }
        }
        // Probe the centreline velocity (uniform flow must stay uniform).
        let state = sim.state(0);
        let mesh = sim.mesh(0);
        let mut probe = Vec::new();
        if rank.rank() == 0 {
            for (i, c) in mesh.coords.iter().enumerate() {
                if c[1].abs() < 1.0 && c[2].abs() < 1.0 {
                    probe.push(format!(
                        "x={:7.1}  u=({:6.3}, {:6.3}, {:6.3})  p={:9.2e}",
                        c[0],
                        state.vel[i][0],
                        state.vel[i][1],
                        state.vel[i][2],
                        state.p[i]
                    ));
                }
            }
        }
        let clock = sim.clock_tables();
        let events = sim.finish_telemetry(rank);
        (lines, probe, events, clock)
    });

    // As a launched worker process this binary holds one rank; only the
    // process holding rank 0 narrates (the others computed its halos).
    if !env.hosts_rank0() {
        return;
    }
    let (lines, probe, ..) = &outputs[0];
    println!("== ExaWind-RS quickstart: empty wind tunnel on {nranks} ranks ({transport} transport) ==");
    for l in lines {
        println!("{l}");
    }
    println!("\ncentreline probe (expect u ≈ (8, 0, 0), p ≈ 0):");
    for l in probe {
        println!("  {l}");
    }

    if let Some(path) = tel_path {
        // Rank 0's clock tables (identical on every rank after the
        // startup clock sync) align the per-rank epochs in the header.
        let clock = outputs[0].3.clone();
        let mut events = vec![telemetry::run_info(nranks, transport.label(), clock)];
        events.extend(telemetry::merge_ranks(
            outputs.into_iter().map(|(_, _, ev, _)| ev).collect(),
        ));
        telemetry::write_jsonl(&path, &events)
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\ntelemetry: {} events written to {path}", events.len());
        let mut report = telemetry::Report::from_events(&events);
        report.bw_baseline_gbs = Some(machine::host_baseline().stream_gbs);
        print!("{}", report.render_ascii());
    }
}
