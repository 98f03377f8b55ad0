//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each `src/bin/*` binary drives one experiment (see DESIGN.md §4 for
//! the full index). The common machinery here runs a turbine case on a
//! given number of simulated ranks, collects per-rank operation traces,
//! prices them with the [`machine`] models, and prints aligned
//! CSV/tabular rows mirroring the paper's plots.
//!
//! Run binaries in release mode, e.g.
//! `cargo run --release -p exawind-bench --bin fig3_strong_scaling_low`.

use std::collections::BTreeMap;

use machine::MachineModel;
use nalu_core::{Phase, Simulation, SolverConfig};
use parcomm::{Comm, PhaseTrace, Trace};
use sparse_kit::{Coo, Csr};
use windmesh::{NrelCase, TurbineMeshes};

pub mod args;

/// The tuned ("optimized") solver configuration used by every figure
/// harness. Found with the `tune_solver` sweep — the reproduction of the
/// paper's "run-time parameter tuning were necessary steps" (§1). On this
/// substrate the tuned pressure AMG uses standard (non-aggressive)
/// coarsening with BAMG-direct weights: our MM-ext second stage loses
/// more in iterations on the annular boundary-layer operators than
/// aggressive coarsening saves in complexity (see EXPERIMENTS.md for the
/// sweep data and the deviation note vs the paper's tuned choice).
pub fn optimized_config(picard: usize) -> SolverConfig {
    SolverConfig {
        picard_iters: picard,
        amg: amg::AmgConfig {
            agg_levels: 0,
            interp: amg::InterpType::BamgDirect,
            trunc_factor: 0.0,
            ..amg::AmgConfig::pressure_default()
        },
        ..SolverConfig::default()
    }
}

/// The pre-tuning ("baseline") configuration of §5.1: same AMG algorithm
/// family at its §4.1 defaults (aggressive MM-ext, untruncated), RCB
/// decomposition, single inner JR sweep. Combine with
/// [`RunResult::with_baseline_penalty`] for the generic-assembly cost.
pub fn baseline_config(picard: usize) -> SolverConfig {
    SolverConfig {
        picard_iters: picard,
        partition: nalu_core::PartitionMethod::Rcb,
        sgs_inner: 1,
        amg: amg::AmgConfig {
            trunc_factor: 0.0,
            ..amg::AmgConfig::pressure_default()
        },
        ..SolverConfig::default()
    }
}

/// Outcome of one (case, rank-count) run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Simulated MPI ranks ("GPUs").
    pub nranks: usize,
    /// Time steps executed.
    pub steps: usize,
    /// Mean wall-clock seconds per step of the in-process run.
    pub wall_per_step: f64,
    /// Per-rank traces accumulated over the whole run.
    pub traces: Vec<PhaseTrace>,
    /// GMRES iterations per equation over the whole run.
    pub gmres_iters: BTreeMap<String, usize>,
    /// Mesh nodes in the case.
    pub mesh_nodes: usize,
}

impl RunResult {
    /// Modeled seconds per time step on `model`.
    pub fn modeled_nli(&self, model: &MachineModel) -> f64 {
        model.total_time(&self.traces) / self.steps as f64
    }

    /// Modeled seconds per step of one `(equation, phase)` sub-bar.
    pub fn modeled_phase(&self, model: &MachineModel, eq: &str, phase: Phase) -> f64 {
        model.named_phase_time(&self.traces, &phase.trace_label(eq)) / self.steps as f64
    }

    /// Extrapolate the run to a mesh `factor`× larger (typically
    /// `1/scale`, i.e. the paper's full-size mesh): volume-proportional
    /// quantities (kernel bytes/flops, message and collective bytes)
    /// scale linearly with the local problem size, while *counts* —
    /// kernel launches, messages, collectives, solver iterations — are
    /// size-independent and keep their measured values. This is what
    /// lets laptop-scale runs reproduce the paper's full-scale
    /// bandwidth-vs-latency trade-off (see DESIGN.md).
    pub fn extrapolated(&self, factor: f64) -> RunResult {
        let mut out = self.clone();
        for t in &mut out.traces {
            let mut scaled = PhaseTrace::default();
            for name in t.phase_names() {
                let mut tr = t.phase(&name);
                tr.kernel_bytes = (tr.kernel_bytes as f64 * factor) as u64;
                tr.kernel_flops = (tr.kernel_flops as f64 * factor) as u64;
                tr.msg_bytes = (tr.msg_bytes as f64 * factor) as u64;
                tr.collective_bytes = (tr.collective_bytes as f64 * factor) as u64;
                scaled.insert(&name, tr);
            }
            *t = scaled;
        }
        out.mesh_nodes = (out.mesh_nodes as f64 * factor) as usize;
        out
    }

    /// Apply the "baseline implementation" penalty of §5.1: the more
    /// general assembly algorithm moves more device data and launches
    /// more kernels in the assembly phases, and the untuned AMG settings
    /// do extra setup traffic. Returns a penalized copy of the traces.
    pub fn with_baseline_penalty(&self) -> RunResult {
        let mut out = self.clone();
        for t in &mut out.traces {
            let mut penalized = PhaseTrace::default();
            for name in t.phase_names() {
                let mut tr = t.phase(&name);
                // Phase identification goes through the shared
                // `Phase::parse_trace_label` instead of matching label
                // text here, so the label spelling lives in one place.
                match Phase::parse_trace_label(&name).map(|(_, ph)| ph) {
                    Some(Phase::LocalAssembly) | Some(Phase::GlobalAssembly) => {
                        scale_trace(&mut tr, 2.2, 1.8);
                    }
                    Some(Phase::PrecondSetup) => {
                        scale_trace(&mut tr, 1.35, 1.2);
                    }
                    _ => {}
                }
                penalized.insert(&name, tr);
            }
            *t = penalized;
        }
        out
    }
}

fn scale_trace(t: &mut Trace, byte_factor: f64, launch_factor: f64) {
    t.kernel_bytes = (t.kernel_bytes as f64 * byte_factor) as u64;
    t.msg_bytes = (t.msg_bytes as f64 * byte_factor) as u64;
    t.kernel_launches = (t.kernel_launches as f64 * launch_factor) as u64;
}

/// Run `case` at `scale` on `nranks` simulated ranks for `steps` steps.
pub fn run_case(
    case: NrelCase,
    scale: f64,
    nranks: usize,
    steps: usize,
    cfg: SolverConfig,
) -> RunResult {
    let tm: TurbineMeshes = windmesh::turbine::generate(case, scale);
    let mesh_nodes = tm.total_nodes();
    let meshes = tm.meshes;
    let (outs, traces) = Comm::run_traced(nranks, move |rank| {
        let mut sim = Simulation::new(rank, meshes.clone(), cfg.clone());
        let mut step_walls = Vec::with_capacity(steps);
        let mut iters: BTreeMap<String, usize> = BTreeMap::new();
        for _ in 0..steps {
            let rep = sim.step(rank);
            step_walls.push(rep.nli_seconds);
            for (k, v) in rep.gmres_iters {
                *iters.entry(k).or_insert(0) += v;
            }
        }
        (step_walls, iters)
    });
    let (walls, iters) = outs.into_iter().next().unwrap();
    RunResult {
        nranks,
        steps,
        wall_per_step: walls.iter().sum::<f64>() / walls.len() as f64,
        traces,
        gmres_iters: iters,
        mesh_nodes,
    }
}

/// Print a CSV header + rows (the harness output format recorded in
/// EXPERIMENTS.md). Stdout carries exact or modeled numbers only, so
/// `ci.sh` can byte-compare it with `results/<bin>.txt`; host seconds go
/// to stderr, the `results/<bin>.err` side file.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
    println!();
}

/// The `nx × nx` 5-point Laplacian with coupling `eps` along the second
/// axis: the pressure-matrix stand-in of the AMG sweeps and the §4.1
/// SpGEMM comparison.
pub fn anisotropic_2d(nx: usize, eps: f64) -> Csr {
    let id = |i: usize, j: usize| (i * nx + j) as u64;
    let mut coo = Coo::new();
    for i in 0..nx {
        for j in 0..nx {
            coo.push(id(i, j), id(i, j), 2.0 + 2.0 * eps);
            if i > 0 {
                coo.push(id(i, j), id(i - 1, j), -1.0);
            }
            if i + 1 < nx {
                coo.push(id(i, j), id(i + 1, j), -1.0);
            }
            if j > 0 {
                coo.push(id(i, j), id(i, j - 1), -eps);
            }
            if j + 1 < nx {
                coo.push(id(i, j), id(i, j + 1), -eps);
            }
        }
    }
    Csr::from_coo(nx * nx, nx * nx, &coo)
}

/// Exact per-rank nonzero counts of the pressure-Poisson matrix for a
/// partitioning method (the quantity of Figures 5 and 10). No simulation
/// needed: computed from the mesh graph + Dirichlet sets.
fn pressure_nnz_per_rank(
    meshes: &[windmesh::Mesh],
    nranks: usize,
    method: nalu_core::PartitionMethod,
    seed: u64,
) -> Vec<u64> {
    use nalu_core::graph::{classify_nodes, dirichlet_pressure};
    let mut totals = vec![0u64; nranks];
    for mesh in meshes {
        let dm = nalu_core::DofMap::build(mesh, nranks, method, seed);
        let tags = classify_nodes(mesh);
        let dir = dirichlet_pressure(&tags);
        // Row nnz: 1 for Dirichlet rows, 1 + degree otherwise.
        let mut degree = vec![0u64; mesh.n_nodes()];
        for e in &mesh.edges {
            degree[e.a] += 1;
            degree[e.b] += 1;
        }
        for n in 0..mesh.n_nodes() {
            let nnz = if dir[n] { 1 } else { 1 + degree[n] };
            totals[dm.part[n]] += nnz;
        }
    }
    totals
}

/// Print the Figures 5/10 table: per rank count, the median, min, max
/// and spread of the pressure-matrix nonzeros per rank under RCB and
/// under multilevel k-way partitioning, and the ratio of the spreads.
pub fn print_nnz_balance(title: &str, meshes: &[windmesh::Mesh], ranks: &[usize]) {
    use nalu_core::PartitionMethod::{Multilevel, Rcb};
    let mut rows = Vec::new();
    for &p in ranks {
        eprintln!("partitioning for {p} ranks...");
        let (rmin, rmed, rmax) = balance_stats(&pressure_nnz_per_rank(meshes, p, Rcb, 0xE1A));
        let (mmin, mmed, mmax) =
            balance_stats(&pressure_nnz_per_rank(meshes, p, Multilevel, 0xE1A));
        let mut row = vec![p.to_string()];
        for v in [rmed, rmin, rmax, rmax - rmin, mmed, mmin, mmax, mmax - mmin] {
            row.push(v.to_string());
        }
        row.push(format!("{:.2}", (rmax - rmin) as f64 / (mmax - mmin).max(1) as f64));
        rows.push(row);
    }
    print_table(
        title,
        &[
            "ranks",
            "rcb_median",
            "rcb_min",
            "rcb_max",
            "rcb_spread",
            "parmetis_median",
            "parmetis_min",
            "parmetis_max",
            "parmetis_spread",
            "spread_ratio_rcb_over_parmetis",
        ],
        &rows,
    );
}

/// Median/min/max summary of per-rank loads (the error-bar rows of the
/// paper's Figures 5 and 10).
fn balance_stats(loads: &[u64]) -> (u64, u64, u64) {
    let mut sorted = loads.to_vec();
    sorted.sort();
    let median = sorted[sorted.len() / 2];
    (*sorted.first().unwrap(), median, *sorted.last().unwrap())
}

/// Least-squares slope of log(y) vs log(x) — the strong-scaling slope the
/// paper quotes (−0.98 vs −0.79, §5.2).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_penalty_inflates_assembly_only() {
        let r = run_case(
            NrelCase::SingleLow,
            5e-5,
            2,
            1,
            SolverConfig {
                picard_iters: 1,
                ..Default::default()
            },
        );
        let model = MachineModel::summit_v100();
        let base = r.with_baseline_penalty();
        let t_opt = r.modeled_phase(&model, "momentum", Phase::GlobalAssembly);
        let t_base = base.modeled_phase(&model, "momentum", Phase::GlobalAssembly);
        assert!(t_base > t_opt, "penalty must slow assembly: {t_base} vs {t_opt}");
        let s_opt = r.modeled_phase(&model, "continuity", Phase::Solve);
        let s_base = base.modeled_phase(&model, "continuity", Phase::Solve);
        assert!((s_opt - s_base).abs() < 1e-12, "solve must be untouched");
    }

    #[test]
    fn run_case_produces_traces_and_iters() {
        let r = run_case(
            NrelCase::SingleLow,
            5e-5,
            2,
            1,
            SolverConfig {
                picard_iters: 1,
                ..Default::default()
            },
        );
        assert_eq!(r.traces.len(), 2);
        assert!(r.gmres_iters["continuity"] > 0);
        assert!(r.wall_per_step > 0.0);
        assert!(r.mesh_nodes > 0);
        let model = MachineModel::summit_v100();
        assert!(r.modeled_nli(&model) > 0.0);
    }

    #[test]
    fn loglog_slope_of_perfect_scaling_is_minus_one() {
        let pts = [(1.0, 8.0), (2.0, 4.0), (4.0, 2.0), (8.0, 1.0)];
        assert!((loglog_slope(&pts) + 1.0).abs() < 1e-12);
    }
}
