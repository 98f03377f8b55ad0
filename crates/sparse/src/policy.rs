//! Kernel-backend selection: CSR vs. SELL-C-σ.
//!
//! SELL-C-σ ([`crate::sellcs`]) trades chunk padding for u32 indices and
//! lane-parallel rows, a trade that pays only where SpMV is bound by
//! bytes moved. At the sizes this solver runs, one rank's operators sit
//! in L2/L3 and the row-blocked CSR loop ties or beats it (the
//! `sparse.spmv_csr_s` / `spmv_sellcs_s` probes, EXPERIMENTS.md), while
//! the mirror costs a second copy of every diag block. So
//! [`KernelPolicy::Auto`] is CSR everywhere, and a SELL-C-σ mirror is
//! built only when [`KernelPolicy::Sellcs`] is asked for.
//!
//! The active policy is thread-local: [`install`] is its only source
//! (the solver plumbs `SolverConfig::kernels` through it on each rank
//! thread), and a thread that never installed one runs
//! [`KernelPolicy::Auto`].

use std::cell::Cell;

/// Which SpMV storage/backend to use for a local matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPolicy {
    /// The measured choice: CSR wherever SELL-C-σ does not win the
    /// probes, which on every host measured so far is everywhere.
    Auto,
    /// Always the row-blocked CSR path.
    Csr,
    /// Always mirror the diag block in SELL-C-σ and route SpMV through it.
    Sellcs,
}

impl KernelPolicy {
    /// Parse a policy name (`auto|csr|sellcs`).
    pub fn parse(s: &str) -> Option<KernelPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(KernelPolicy::Auto),
            "csr" => Some(KernelPolicy::Csr),
            "sellcs" | "sell-c-sigma" => Some(KernelPolicy::Sellcs),
            _ => None,
        }
    }

    /// Stable lowercase label for telemetry run events and perf keys.
    pub fn label(self) -> &'static str {
        match self {
            KernelPolicy::Auto => "auto",
            KernelPolicy::Csr => "csr",
            KernelPolicy::Sellcs => "sellcs",
        }
    }

    /// Does a matrix built under this policy get a SELL-C-σ mirror?
    pub fn builds_sellcs(self) -> bool {
        self == KernelPolicy::Sellcs
    }
}

/// σ (row-sorting window, in rows) of every SELL-C-σ conversion the
/// solver performs; a multiple of the chunk height.
pub const DEFAULT_SIGMA: usize = 256;

thread_local! {
    static CURRENT: Cell<KernelPolicy> = const { Cell::new(KernelPolicy::Auto) };
}

/// Install a policy on the current thread (rank threads call this with
/// `SolverConfig::kernels` before building any matrices).
pub fn install(p: KernelPolicy) {
    CURRENT.with(|c| c.set(p));
}

/// The active policy on this thread: the installed one, else `Auto`.
pub fn current() -> KernelPolicy {
    CURRENT.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for p in [KernelPolicy::Auto, KernelPolicy::Csr, KernelPolicy::Sellcs] {
            assert_eq!(KernelPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(KernelPolicy::parse("SELLCS"), Some(KernelPolicy::Sellcs));
        assert_eq!(KernelPolicy::parse("nope"), None);
    }

    #[test]
    fn only_an_explicit_sellcs_builds_a_mirror() {
        assert!(KernelPolicy::Sellcs.builds_sellcs());
        assert!(!KernelPolicy::Csr.builds_sellcs());
        assert!(!KernelPolicy::Auto.builds_sellcs());
    }

    #[test]
    fn installed_policy_is_thread_scoped() {
        install(KernelPolicy::Sellcs);
        assert_eq!(current(), KernelPolicy::Sellcs);
        install(KernelPolicy::Csr);
        assert_eq!(current(), KernelPolicy::Csr);
        let other = std::thread::spawn(|| current() == KernelPolicy::Auto);
        assert!(other.join().unwrap(), "installed policy leaked across threads");
        install(KernelPolicy::Auto);
    }
}
