//! The four fixed workloads and the solver configuration they share.
//!
//! Everything here is pinned literally: a later PR that retunes
//! `exawind_bench::optimized_config` or a library default must not move
//! the benchmark's inputs.

use amg::{AmgConfig, InterpType};
use krylov::OrthoStrategy;
use nalu_core::assemble::PhysicsParams;
use nalu_core::{PartitionMethod, RecoveryPolicy, SolverConfig};
use parcomm::TransportKind;
use sparse_kit::KernelPolicy;
use windmesh::NrelCase;

/// Timed steps per episode (steps 1..=10; step 0 is the cold step and
/// belongs to set-up). Momentum GMRES iterations start growing at step
/// ≈13 and the solve goes non-finite at step ≈33–35 on every scale, so
/// an episode stays inside the stationary window (see README).
pub const STEPS_PER_EPISODE: usize = 10;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xE1A;

/// Every workload runs this turbine case; only `scale` differs.
pub const CASE: NrelCase = NrelCase::SingleLow;

/// Scale of the `--smoke` shape (timings are meaningless there).
pub const SMOKE_SCALE: f64 = 1e-4;
/// Timed steps per episode in `--smoke`.
pub const SMOKE_STEPS: usize = 2;

/// One benchmark workload: a turbine mesh size, a rank layout, a
/// transport and a pair of solver tolerances.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// `windmesh::turbine::generate` node-count scale.
    pub scale: f64,
    pub ranks: usize,
    pub transport: TransportKind,
    pub pressure_tol: f64,
    pub momentum_tol: f64,
    /// GMRES orthogonalisation: the solver's default everywhere a solve
    /// stays above its accuracy floor (see `turbine_tight_r2`).
    pub ortho: OrthoStrategy,
    /// Most episodes one run measures; `--seconds` may stop earlier.
    pub episodes: usize,
    /// Why the workload exists (one line, mirrored in BENCHMARK.json).
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "turbine_r2",
        scale: 2e-3,
        ranks: 2,
        transport: TransportKind::Inproc,
        pressure_tol: 1e-5,
        momentum_tol: 1e-6,
        ortho: OrthoStrategy::OneReduce,
        episodes: 2,
        why: "headline turbine case at the tuned tolerances: AMG setup dominates the step",
    },
    Workload {
        name: "turbine_tight_r2",
        scale: 2e-3,
        ranks: 2,
        transport: TransportKind::Inproc,
        pressure_tol: 1e-9,
        momentum_tol: 1e-10,
        // Not the solver's default `OneReduce`: its Pythagorean norm
        // (`sqrt(w.w - sum h_i^2)`) cancels once a restart cycle has
        // reduced the residual by ~1e-7, the cycle flat-lines, and below a
        // pressure tolerance of 1e-6 solves run erratic full cycles (at
        // 1e-8 half of them; seed 7 leaves one at a true residual of 0.8
        // after 200 iterations) until, on some seed, a step ends above the
        // tolerance. A workload may not fail for any seed, and stagnated
        // cycles are not the work this workload is for (see README).
        ortho: OrthoStrategy::ClassicalMgs,
        episodes: 2,
        why: "same operators at 1e-9/1e-10 with modified Gram-Schmidt GMRES: ~1.8x the Krylov iterations, solves outweigh AMG setup",
    },
    Workload {
        name: "turbine_small_socket_r2",
        scale: 2e-4,
        ranks: 2,
        transport: TransportKind::Socket,
        pressure_tol: 1e-5,
        momentum_tol: 1e-6,
        ortho: OrthoStrategy::OneReduce,
        episodes: 8,
        why: "strong-scaling tail over loopback TCP: ~2.4k nodes/rank, message-latency bound",
    },
    Workload {
        name: "turbine_r1",
        scale: 2e-3,
        ranks: 1,
        transport: TransportKind::Inproc,
        pressure_tol: 1e-5,
        momentum_tol: 1e-6,
        ortho: OrthoStrategy::OneReduce,
        episodes: 2,
        why: "plain single-threaded zero-message baseline of turbine_r2: bypasses parcomm/halo",
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The `--smoke` shape of this workload: same ranks, transport and
    /// tolerances on a tiny mesh, one short episode.
    pub fn smoke(self) -> Workload {
        Workload {
            scale: SMOKE_SCALE,
            episodes: 1,
            ..self
        }
    }

    /// The worst final relative residual a converged step may report.
    pub fn tolerance(&self) -> f64 {
        self.pressure_tol.max(self.momentum_tol)
    }

    /// The pinned solver configuration. `seed` feeds the partitioner and
    /// the PMIS random weights; nothing else varies between runs.
    pub fn solver_config(&self, seed: u64, telemetry: bool) -> SolverConfig {
        SolverConfig {
            physics: PhysicsParams {
                dt: 0.5,
                density: 1.0,
                viscosity: 1e-2,
                u_inflow: 8.0,
                nut_inflow: 1e-4,
                rotor_omega: 1.27,
                disc_ct: 0.77,
            },
            picard_iters: 4,
            partition: PartitionMethod::Multilevel,
            seed,
            gmres_restart: 50,
            gmres_max_iters: 200,
            ortho: self.ortho,
            momentum_tol: self.momentum_tol,
            pressure_tol: self.pressure_tol,
            amg: AmgConfig {
                agg_levels: 0,
                interp: InterpType::BamgDirect,
                trunc_factor: 0.0,
                seed,
                ..AmgConfig::pressure_default()
            },
            sgs_inner: 2,
            sgs_outer: 2,
            overset_margin: 0.18,
            telemetry,
            faults: None,
            recovery: RecoveryPolicy {
                enabled: true,
                max_attempts: 3,
                dt_cut: 0.5,
            },
            transport: self.transport,
            kernels: KernelPolicy::Auto,
            checkpoint: None,
        }
    }
}
