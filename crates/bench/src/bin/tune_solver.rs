//! Parameter-tuning harness (the reproduction's version of the paper's
//! "run-time parameter tuning" step): sweeps AMG options, SGS2 sweeps,
//! and partitioning on the low-res turbine case and reports the modeled
//! Summit-GPU NLI plus message statistics, so the "optimized"
//! configuration of the Figure-3 harness is *chosen*, not asserted. The
//! last column, an FNV-64 of rank 0's final fields, pins the solution
//! bits of every configuration.

use amg::{AmgConfig, InterpType};
use exawind_bench::{args::HarnessArgs, print_table, run_case};
use machine::MachineModel;
use nalu_core::{PartitionMethod, SolverConfig};
use parcomm::Trace;
use windmesh::NrelCase;

fn main() {
    let args = HarnessArgs::parse(5e-4, 1, &[8]);
    let p = args.ranks[0];
    let gpu = MachineModel::summit_v100();
    let base = SolverConfig {
        picard_iters: args.picard,
        ..SolverConfig::default()
    };

    let variants: Vec<(&str, SolverConfig)> = vec![
        ("agg2 mmext θ.25 t.1 ML", base.clone()),
        (
            "agg2 mmext θ.10 t.0 ML",
            SolverConfig {
                amg: AmgConfig {
                    strength_threshold: 0.1,
                    trunc_factor: 0.0,
                    ..AmgConfig::pressure_default()
                },
                ..base.clone()
            },
        ),
        (
            "agg0 bamg θ.25 ML",
            SolverConfig {
                amg: AmgConfig {
                    agg_levels: 0,
                    interp: InterpType::BamgDirect,
                    ..AmgConfig::pressure_default()
                },
                ..base.clone()
            },
        ),
        (
            "agg2 mmexti θ.25 t.1 ML",
            SolverConfig {
                amg: AmgConfig {
                    interp: InterpType::MmExtI,
                    ..AmgConfig::pressure_default()
                },
                ..base.clone()
            },
        ),
        (
            "agg2 mmext θ.25 t.1 RCB",
            SolverConfig {
                partition: PartitionMethod::Rcb,
                ..base.clone()
            },
        ),
        (
            "sgs_inner=1 ML",
            SolverConfig {
                sgs_inner: 1,
                ..base.clone()
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, cfg) in variants {
        eprintln!("running {name}...");
        let r = run_case(NrelCase::SingleLow, args.scale, p, args.steps, cfg.clone());
        let nli = r.modeled_nli(&gpu);
        let totals: Vec<Trace> = r.traces.iter().map(|t| t.total()).collect();
        let msgs: u64 = totals.iter().map(|t| t.msgs).sum();
        let max_bytes = totals.iter().map(|t| t.kernel_bytes).max().unwrap_or(0);
        let min_bytes = totals.iter().map(|t| t.kernel_bytes).min().unwrap_or(0);
        rows.push(vec![
            name.to_string(),
            format!("{nli:.4}"),
            r.gmres_iters.get("continuity").copied().unwrap_or(0).to_string(),
            r.gmres_iters.get("momentum").copied().unwrap_or(0).to_string(),
            msgs.to_string(),
            format!("{:.2}", max_bytes as f64 / min_bytes.max(1) as f64),
            format!("{:016x}", r.checksum),
        ]);
    }
    print_table(
        &format!("Solver tuning sweep (scale={}, ranks={p})", args.scale),
        &[
            "configuration",
            "gpu_modeled_nli_s",
            "continuity_iters",
            "momentum_iters",
            "total_msgs",
            "kernel_byte_imbalance",
            "field_checksum",
        ],
        &rows,
    );
}
