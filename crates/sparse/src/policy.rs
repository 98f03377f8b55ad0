//! Kernel-backend selection: CSR vs. SELL-C-σ, per matrix.
//!
//! The roofline ledger (PR 5) shows SpMV well below the STREAM bound on
//! index-heavy CSR; SELL-C-σ ([`crate::sellcs`]) trades a small padding
//! overhead for u32 indices and lane-parallel rows. Whether the trade
//! wins depends on the row-length distribution: near-uniform rows pad
//! almost nothing, irregular rows pad a lot. [`KernelPolicy::Auto`]
//! decides per matrix from the row-length coefficient of variation.
//!
//! The active policy is thread-local: [`install`] is its only source
//! (the solver plumbs `SolverConfig::kernels` through it on each rank
//! thread), and a thread that never installed one runs
//! [`KernelPolicy::Auto`].

use std::cell::Cell;

use crate::csr::Csr;

/// Which SpMV storage/backend to use for a local matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Decide per matrix from the row-length distribution.
    Auto,
    /// Always the scalar/blocked CSR path.
    Csr,
    /// Always convert to SELL-C-σ.
    Sellcs,
}

/// Concrete backend chosen for one matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelChoice {
    /// Keep CSR storage (blocked 4-row SpMV).
    Csr,
    /// Build the SELL-C-σ sibling and route SpMV through it.
    Sellcs,
}

/// Matrices smaller than this never get a SELL-C-σ sibling under
/// `Auto`: the conversion cost cannot amortize.
const AUTO_MIN_ROWS: usize = 64;

/// `Auto` accepts SELL-C-σ when the row-length coefficient of variation
/// (stddev / mean) is at most this: beyond it the chunk padding starts
/// to outweigh the u32-index savings.
const AUTO_MAX_CV: f64 = 0.5;

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

    /// Pick the backend for one local matrix.
    pub fn choose(self, a: &Csr) -> KernelChoice {
        match self {
            KernelPolicy::Csr => KernelChoice::Csr,
            KernelPolicy::Sellcs => KernelChoice::Sellcs,
            KernelPolicy::Auto => {
                let n = a.nrows();
                if n < AUTO_MIN_ROWS {
                    return KernelChoice::Csr;
                }
                let indptr = a.indptr();
                let mean = a.nnz() as f64 / n as f64;
                if mean == 0.0 {
                    return KernelChoice::Csr;
                }
                let var = (0..n)
                    .map(|r| {
                        let d = (indptr[r + 1] - indptr[r]) as f64 - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / n as f64;
                if var.sqrt() / mean <= AUTO_MAX_CV {
                    KernelChoice::Sellcs
                } else {
                    KernelChoice::Csr
                }
            }
        }
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
    fn forced_policies_ignore_shape() {
        let a = Csr::identity(3);
        assert_eq!(KernelPolicy::Csr.choose(&a), KernelChoice::Csr);
        assert_eq!(KernelPolicy::Sellcs.choose(&a), KernelChoice::Sellcs);
    }

    #[test]
    fn auto_takes_uniform_rows_and_rejects_irregular() {
        // Uniform 5-point-stencil-like matrix: every row the same length.
        let uniform = Csr::identity(128);
        assert_eq!(KernelPolicy::Auto.choose(&uniform), KernelChoice::Sellcs);

        // One dense row among singletons: CV far above the gate.
        let n = 128;
        let mut rows = vec![vec![0.0; n]; n];
        for (r, row) in rows.iter_mut().enumerate() {
            row[r] = 1.0;
        }
        rows[0] = vec![1.0; n];
        let skewed = Csr::from_dense(&rows);
        assert_eq!(KernelPolicy::Auto.choose(&skewed), KernelChoice::Csr);

        // Tiny matrices never convert.
        assert_eq!(KernelPolicy::Auto.choose(&Csr::identity(8)), KernelChoice::Csr);
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
