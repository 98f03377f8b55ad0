//! The preconditioner interface shared by smoothers, AMG, and GMRES.

use distmat::ParVector;
use parcomm::Rank;

/// Approximately applies M⁻¹ to a residual. All implementations must be
/// collective-safe: every rank calls `apply` together.
pub trait Preconditioner {
    /// z ≈ M⁻¹ r.
    fn apply(&self, rank: &Rank, r: &ParVector) -> ParVector;
}

/// No preconditioning: z = r.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply(&self, _rank: &Rank, r: &ParVector) -> ParVector {
        r.clone()
    }
}

/// Diagonal (Jacobi) preconditioning: z = ω D⁻¹ r.
#[derive(Clone, Debug)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
    omega: f64,
}

impl JacobiPrecond {
    /// Build from a matrix diagonal.
    ///
    /// # Panics
    ///
    /// Panics if any diagonal entry is zero.
    pub fn new(diag: &[f64], omega: f64) -> Self {
        let inv_diag = diag
            .iter()
            .map(|&d| {
                assert!(d != 0.0, "zero diagonal entry");
                1.0 / d
            })
            .collect();
        JacobiPrecond { inv_diag, omega }
    }
}

impl Preconditioner for JacobiPrecond {
    fn apply(&self, rank: &Rank, r: &ParVector) -> ParVector {
        let mut z = r.clone();
        let k = rank.kernel("jacobi_apply");
        k.launch(z.local.len(), sparse_kit::cost::blas1(z.local.len(), 3));
        for (zi, &di) in z.local.iter_mut().zip(&self.inv_diag) {
            *zi *= self.omega * di;
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmat::RowDist;
    use parcomm::Comm;

    #[test]
    fn identity_returns_input() {
        Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let r = ParVector::from_fn(rank, dist, |g| g as f64);
            let z = IdentityPrecond.apply(rank, &r);
            assert_eq!(z.local, r.local);
        });
    }

    #[test]
    fn jacobi_scales_by_inverse_diagonal() {
        Comm::run(1, |rank| {
            let dist = RowDist::block(3, 1);
            let r = ParVector::from_fn(rank, dist, |_| 6.0);
            let p = JacobiPrecond::new(&[2.0, 3.0, 6.0], 1.0);
            let z = p.apply(rank, &r);
            assert_eq!(z.local, vec![3.0, 2.0, 1.0]);
        });
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn jacobi_rejects_zero_diag() {
        JacobiPrecond::new(&[1.0, 0.0], 1.0);
    }
}
