//! Machine performance models for Summit- and Eagle-class systems.
//!
//! The repository runs the paper's *algorithms* for real (assembly
//! exchanges, AMG setup products, GMRES reductions, halo messages), but
//! on a laptop-scale in-process runtime. To regenerate the paper's
//! wall-clock figures we convert each rank's recorded operation trace
//! ([`parcomm::Trace`]) into modeled execution time for a target machine:
//!
//! - device kernels cost `launch_overhead + max(bytes/BW, flops/peak)`
//!   (roofline with a fixed launch latency — the paper's §6 emphasizes
//!   that kernel-launch and data-motion overheads, not flops, dominated
//!   their optimization work);
//! - point-to-point messages cost `α + β·bytes` (per paper §5.3, the MPI
//!   implementation is decisive for strong scaling);
//! - collectives cost `⌈log₂ P⌉·(α_coll + β·bytes)` (tree algorithms).
//!
//! Phase time is the **maximum over ranks** (bulk-synchronous execution).
//! Presets are calibrated to the published characteristics of Summit
//! V100/Power9 and Eagle V100 nodes; absolute numbers are indicative, the
//! *shape* comparisons (GPU vs CPU crossover, Summit vs Eagle slopes) are
//! what the harness reproduces.

use parcomm::{PhaseTrace, Trace};

pub mod stream;

pub use stream::{host_baseline, measure_stream_gbs, HostBaseline};

/// Cost model of one rank's execution environment plus its interconnect.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Display name.
    pub name: &'static str,
    /// Effective device/host memory bandwidth per rank (bytes/s).
    pub mem_bw: f64,
    /// Effective floating-point throughput per rank (flop/s), sparse-
    /// workload derated.
    pub flops: f64,
    /// Kernel launch latency (s); zero for host execution.
    pub kernel_launch: f64,
    /// Point-to-point message latency (s).
    pub alpha: f64,
    /// Per-byte transfer cost (s/byte).
    pub beta: f64,
    /// Collective per-stage latency (s).
    pub alpha_coll: f64,
    /// Ranks per node (6 GPUs or 42 cores on Summit, 2 GPUs on Eagle).
    pub ranks_per_node: usize,
}

impl MachineModel {
    /// Summit: one V100 SXM2 GPU rank (6 per node), Spectrum MPI.
    ///
    /// The relatively high α reflects the GPU-direct messaging overheads
    /// the paper measured on Summit (§5.3).
    pub fn summit_v100() -> Self {
        MachineModel {
            name: "Summit V100",
            mem_bw: 450e9,       // 900 GB/s HBM2, ~50% effective on sparse
            flops: 1.0e12,       // 7.8 TF/s peak, sparse-derated
            kernel_launch: 8e-6, // CUDA launch + sync overhead
            alpha: 22e-6,        // Spectrum MPI + GPU buffers
            beta: 1.0 / 10e9,    // effective inter-node
            alpha_coll: 16e-6,
            ranks_per_node: 6,
        }
    }

    /// Summit: one Power9 core rank (42 per node), Spectrum MPI.
    pub fn summit_power9() -> Self {
        MachineModel {
            name: "Summit Power9",
            mem_bw: 8e9,   // share of node's 135 GB/s across 42 ranks
            flops: 4.0e9,  // one core, sparse-derated
            kernel_launch: 0.0,
            alpha: 3e-6,   // host-to-host MPI
            beta: 1.0 / 6e9,
            alpha_coll: 3e-6,
            ranks_per_node: 42,
        }
    }

    /// Eagle: one V100 PCIe GPU rank (2 per node), HPE MPT.
    ///
    /// Slightly lower peak than the SXM2 part, but a markedly leaner MPI
    /// stack — the paper's Fig. 11 shows 72 Eagle GPUs beating 144 Summit
    /// GPUs by ~40% on the same mesh.
    pub fn eagle_v100() -> Self {
        MachineModel {
            name: "Eagle V100",
            mem_bw: 430e9,
            flops: 0.93e12, // PCIe part: reduced double-precision clocks
            kernel_launch: 6e-6,
            alpha: 6e-6, // HPE MPT host-staged messaging
            beta: 1.0 / 11e9,
            alpha_coll: 5e-6,
            ranks_per_node: 2,
        }
    }

    /// Modeled seconds for one rank's trace on a `nranks`-rank job.
    pub fn rank_time(&self, trace: &Trace, nranks: usize) -> f64 {
        let kernels = trace.kernel_launches as f64 * self.kernel_launch
            + trace.kernel_bytes as f64 / self.mem_bw
            + trace.kernel_flops as f64 / self.flops;
        let p2p = trace.msgs as f64 * self.alpha + trace.msg_bytes as f64 * self.beta;
        let stages = (nranks.max(2) as f64).log2().ceil();
        let coll = trace.collectives as f64 * stages * self.alpha_coll
            + trace.collective_bytes as f64 * stages * self.beta;
        kernels + p2p + coll
    }

    /// Modeled seconds of a bulk-synchronous phase: the slowest rank.
    pub fn phase_time(&self, traces: &[Trace]) -> f64 {
        let n = traces.len();
        traces
            .iter()
            .map(|t| self.rank_time(t, n))
            .fold(0.0, f64::max)
    }

    /// Modeled seconds for a named phase across per-rank phase traces.
    pub fn named_phase_time(&self, traces: &[PhaseTrace], phase: &str) -> f64 {
        let per_rank: Vec<Trace> = traces.iter().map(|t| t.phase(phase)).collect();
        self.phase_time(&per_rank)
    }

    /// Modeled seconds summed over every phase (the NLI proxy).
    pub fn total_time(&self, traces: &[PhaseTrace]) -> f64 {
        let mut names: Vec<String> = Vec::new();
        for t in traces {
            names.extend(t.phase_names());
        }
        names.sort();
        names.dedup();
        names
            .iter()
            .map(|name| self.named_phase_time(traces, name))
            .sum()
    }

    /// Node count for a rank count on this machine.
    pub fn nodes(&self, nranks: usize) -> f64 {
        nranks as f64 / self.ranks_per_node as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(launches: u64, bytes: u64, flops: u64, msgs: u64, msg_bytes: u64) -> Trace {
        Trace {
            kernel_launches: launches,
            kernel_bytes: bytes,
            kernel_flops: flops,
            msgs,
            msg_bytes,
            ..Default::default()
        }
    }

    #[test]
    fn more_work_costs_more() {
        let m = MachineModel::summit_v100();
        let small = trace(10, 1 << 20, 1 << 18, 4, 4096);
        let big = trace(10, 1 << 24, 1 << 22, 4, 4096);
        assert!(m.rank_time(&big, 8) > m.rank_time(&small, 8));
    }

    #[test]
    fn gpu_wins_big_loses_small() {
        // The paper's crossover: GPUs win with many DoFs per rank, lose
        // to CPUs when launch overheads dominate tiny kernels.
        let gpu = MachineModel::summit_v100();
        let cpu = MachineModel::summit_power9();
        // Large per-rank workload: 100 MB moved in 100 kernels.
        let large = trace(100, 100 << 20, 50 << 20, 10, 1 << 20);
        assert!(
            gpu.rank_time(&large, 8) < cpu.rank_time(&large, 8),
            "GPU must win the bandwidth-bound regime"
        );
        // Tiny per-rank workload: 2000 kernels over 1 MB total.
        let tiny = trace(2000, 1 << 20, 1 << 18, 200, 1 << 12);
        assert!(
            gpu.rank_time(&tiny, 8) > cpu.rank_time(&tiny, 8),
            "launch+latency overheads must sink the GPU at small sizes"
        );
    }

    #[test]
    fn eagle_beats_summit_on_message_bound_traces() {
        let summit = MachineModel::summit_v100();
        let eagle = MachineModel::eagle_v100();
        // Message-heavy, kernel-light: AMG in the strong-scaling limit.
        let msg_bound = trace(50, 4 << 20, 1 << 20, 4000, 8 << 20);
        assert!(eagle.rank_time(&msg_bound, 64) < 0.75 * summit.rank_time(&msg_bound, 64));
        // Compute-bound traces are nearly identical.
        let compute = trace(10, 400 << 20, 100 << 20, 2, 1 << 10);
        let ratio = eagle.rank_time(&compute, 4) / summit.rank_time(&compute, 4);
        assert!((0.8..1.3).contains(&ratio));
    }

    #[test]
    fn phase_time_is_critical_path() {
        let m = MachineModel::summit_v100();
        let fast = trace(1, 1 << 10, 0, 0, 0);
        let slow = trace(1, 64 << 20, 0, 0, 0);
        let balanced = m.phase_time(&[slow, slow]);
        let imbalanced = m.phase_time(&[fast, slow]);
        assert!((balanced - imbalanced).abs() < 1e-12, "max, not sum");
    }

    #[test]
    fn collectives_scale_with_log_ranks() {
        let m = MachineModel::summit_v100();
        let t = Trace {
            collectives: 100,
            ..Trace::default()
        };
        let t8 = m.rank_time(&t, 8);
        let t64 = m.rank_time(&t, 64);
        assert!((t64 / t8 - 2.0).abs() < 1e-9, "log2(64)/log2(8) = 2");
    }

    #[test]
    fn node_counts_reflect_density() {
        assert_eq!(MachineModel::summit_v100().nodes(12), 2.0);
        assert_eq!(MachineModel::summit_power9().nodes(84), 2.0);
        assert_eq!(MachineModel::eagle_v100().nodes(12), 6.0);
    }

    #[test]
    fn named_phase_lookup_missing_is_zero() {
        let m = MachineModel::eagle_v100();
        let traces = vec![PhaseTrace::default()];
        assert_eq!(m.named_phase_time(&traces, "nope"), 0.0);
        assert_eq!(m.total_time(&traces), 0.0);
    }
}
