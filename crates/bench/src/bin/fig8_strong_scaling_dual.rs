//! Figure 8: strong scaling of NLI time/step for the dual-turbine mesh.
//!
//! Same protocol as Figure 3 on the two-turbine overset system (three
//! meshes, two rotors). The paper finds behaviour very similar to the
//! single-turbine case with slightly larger variability.

use exawind_bench::{args::HarnessArgs, loglog_slope, print_table, run_case};
use machine::MachineModel;
use windmesh::NrelCase;

fn main() {
    let args = HarnessArgs::parse(4e-4, 1, &[2, 4, 8, 16, 32]);
    let gpu = MachineModel::summit_v100();
    let cpu = MachineModel::summit_power9();
    let cfg = exawind_bench::optimized_config(args.picard);
    let mut rows = Vec::new();
    let mut pts = Vec::new();
    eprintln!("# Figure 8: host seconds per step of the in-process run");
    eprintln!("ranks,wall_clock_s,wall_std_s");
    for &p in &args.ranks {
        let r = run_case(NrelCase::Dual, args.scale, p, args.steps, cfg.clone())
            .extrapolated(1.0 / args.scale);
        let t_gpu = r.modeled_nli(&gpu);
        pts.push((p as f64, t_gpu));
        rows.push(vec![
            format!("{:.2}", gpu.nodes(p)),
            p.to_string(),
            (r.mesh_nodes / p).to_string(),
            format!("{:.4}", r.modeled_nli(&cpu)),
            format!("{t_gpu:.4}"),
        ]);
        eprintln!("{p},{:.4},{:.4}", r.wall_per_step, r.wall_std);
    }
    print_table(
        &format!(
            "Figure 8: NLI time/step, dual-turbine mesh (scale={}, steps={})",
            args.scale, args.steps
        ),
        &[
            "summit_nodes",
            "ranks",
            "mesh_nodes_per_rank",
            "cpu_modeled_s",
            "gpu_modeled_s",
        ],
        &rows,
    );
    println!("# GPU slope: {:.2}", loglog_slope(&pts));
}
