//! Figure 9: strong scaling of NLI time/step for the refined
//! single-turbine mesh (the paper's 634M-node case, up to 4,320 GPUs).
//!
//! Scaled down by `--scale`, with larger rank counts than Figure 3. The
//! paper reports consistent scaling shape with far greater fluctuation
//! and a reduced CPU slope (−0.79 vs −0.98 on the low-res case).

use exawind_bench::{args::HarnessArgs, loglog_slope, print_table, run_case};
use machine::MachineModel;
use windmesh::NrelCase;

fn main() {
    let args = HarnessArgs::parse(1e-4, 1, &[4, 8, 16, 32]);
    let gpu = MachineModel::summit_v100();
    let cpu = MachineModel::summit_power9();
    let cfg = exawind_bench::optimized_config(args.picard);
    let mut rows = Vec::new();
    let (mut gpu_pts, mut cpu_pts) = (Vec::new(), Vec::new());
    eprintln!("# Figure 9: host seconds per step of the in-process run");
    eprintln!("ranks,wall_clock_s");
    for &p in &args.ranks {
        let r = run_case(NrelCase::SingleRefined, args.scale, p, args.steps, cfg.clone())
            .extrapolated(1.0 / args.scale);
        let t_gpu = r.modeled_nli(&gpu);
        let t_cpu = r.modeled_nli(&cpu);
        gpu_pts.push((p as f64, t_gpu));
        cpu_pts.push((p as f64, t_cpu));
        rows.push(vec![
            format!("{:.2}", gpu.nodes(p)),
            p.to_string(),
            (r.mesh_nodes / p).to_string(),
            format!("{t_cpu:.4}"),
            format!("{t_gpu:.4}"),
        ]);
        eprintln!("{p},{:.4}", r.wall_per_step);
    }
    print_table(
        &format!(
            "Figure 9: NLI time/step, refined single-turbine mesh (scale={}, steps={})",
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
    println!(
        "# slopes: cpu {:.2} (paper -0.79 on refined vs -0.98 low-res), gpu {:.2}",
        loglog_slope(&cpu_pts),
        loglog_slope(&gpu_pts)
    );
}
