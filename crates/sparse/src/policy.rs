//! The solver's SpMV storage: CSR, always.
//!
//! SELL-C-σ ([`crate::sellcs`]) trades chunk padding for u32 indices and
//! lane-parallel rows, a trade that pays only where SpMV is bound by
//! bytes moved. At the sizes this solver runs, one rank's operators sit
//! in L2/L3 and the row-blocked CSR loop ties or beats it (the
//! `sparse.spmv_csr_s` / `spmv_sellcs_s` probes, EXPERIMENTS.md), so
//! every operator is CSR and [`KernelPolicy`] has one value, the label
//! a run reports.

/// The SpMV storage a run used: CSR for every matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPolicy {
    /// The measured choice: CSR, which SELL-C-σ does not beat on any
    /// host measured so far.
    Auto,
}

impl KernelPolicy {
    /// Stable lowercase label for telemetry run events and perf keys.
    pub fn label(self) -> &'static str {
        match self {
            KernelPolicy::Auto => "auto",
        }
    }
}

/// σ (row-sorting window, in rows) of the SELL-C-σ conversion the
/// end-to-end benchmark's SpMV probe measures; a multiple of the chunk
/// height.
pub const DEFAULT_SIGMA: usize = 256;
