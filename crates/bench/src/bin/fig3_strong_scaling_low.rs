//! Figure 3: strong scaling of the mean nonlinear-iteration (NLI) time
//! per time step for the low-resolution single-turbine mesh.
//!
//! Three series, as in the paper: Summit CPU (Power9 ranks), the baseline
//! GPU implementation (generic assembly + untuned AMG, RCB partitions),
//! and the optimized GPU implementation (Algorithm-1/2 assembly, tuned
//! AMG, ParMETIS-style partitions). Modeled times come from the recorded
//! operation traces; the in-process wall clock goes to stderr.

use exawind_bench::{args::HarnessArgs, baseline_config, loglog_slope, optimized_config, print_table, run_case};
use machine::MachineModel;
use windmesh::NrelCase;

fn main() {
    let args = HarnessArgs::parse(4e-4, 1, &[2, 4, 8, 16, 32]);
    let gpu = MachineModel::summit_v100();
    let cpu = MachineModel::summit_power9();

    let opt_cfg = optimized_config(args.picard);
    let base_cfg = baseline_config(args.picard);

    let mut rows = Vec::new();
    let mut opt_pts = Vec::new();
    eprintln!("# Figure 3: host seconds per step of the in-process run");
    eprintln!("ranks,wall_clock_s");
    for &p in &args.ranks {
        let opt = run_case(NrelCase::SingleLow, args.scale, p, args.steps, opt_cfg.clone())
            .extrapolated(1.0 / args.scale);
        let base = run_case(NrelCase::SingleLow, args.scale, p, args.steps, base_cfg.clone())
            .with_baseline_penalty()
            .extrapolated(1.0 / args.scale);
        let t_cpu = opt.modeled_nli(&cpu);
        let t_base = base.modeled_nli(&gpu);
        let t_opt = opt.modeled_nli(&gpu);
        opt_pts.push((p as f64, t_opt));
        rows.push(vec![
            format!("{:.2}", gpu.nodes(p)),
            p.to_string(),
            (opt.mesh_nodes / p).to_string(),
            format!("{t_cpu:.4}"),
            format!("{t_base:.4}"),
            format!("{t_opt:.4}"),
        ]);
        eprintln!("{p},{:.4}", opt.wall_per_step);
    }
    print_table(
        &format!(
            "Figure 3: NLI time/step, low-res single turbine (scale={}, steps={}, picard={})",
            args.scale, args.steps, args.picard
        ),
        &[
            "summit_nodes",
            "ranks",
            "mesh_nodes_per_rank",
            "cpu_modeled_s",
            "gpu_baseline_modeled_s",
            "gpu_optimized_modeled_s",
        ],
        &rows,
    );
    println!(
        "# optimized-GPU strong-scaling slope: {:.2} (paper: ~-0.98 for the low-res CPU, GPU flattens at low DoFs/rank)",
        loglog_slope(&opt_pts)
    );
}
