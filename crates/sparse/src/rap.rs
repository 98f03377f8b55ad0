//! Galerkin triple products for AMG coarse-operator construction.
//!
//! §4.1 of the paper: "Galerkin triple-matrix products are used to build
//! coarse-level operators", computed with parallel primitives and hypre's
//! hash SpGEMM. The same structure is used here.

use crate::csr::Csr;
use crate::spgemm::spgemm_hash;

/// A_c = Pᵀ · A · P (Galerkin coarse operator).
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn galerkin(a: &Csr, p: &Csr) -> Csr {
    assert_eq!(a.nrows(), a.ncols(), "A must be square");
    assert_eq!(a.ncols(), p.nrows(), "A·P dimension mismatch");
    let ap = spgemm_hash(a, p);
    let rt = p.transpose();
    spgemm_hash(&rt, &ap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn galerkin_of_identity_interp_is_a() {
        let a = Csr::from_dense(&[vec![4.0, -1.0], vec![-1.0, 4.0]]);
        let p = Csr::identity(2);
        assert_eq!(galerkin(&a, &p).to_dense(), a.to_dense());
    }

    #[test]
    fn galerkin_aggregates_rows() {
        // P aggregates {0,1} -> coarse 0 and {2} -> coarse 1.
        let a = Csr::from_dense(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ]);
        let p = Csr::from_dense(&[vec![1.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        let ac = galerkin(&a, &p);
        // Pᵀ A P with constants-preserving P on an M-matrix: row sums of A
        // within aggregates.
        assert_eq!(ac.to_dense(), vec![vec![2.0, -1.0], vec![-1.0, 2.0]]);
    }

    #[test]
    fn galerkin_preserves_spd_property() {
        // xᵀ(PᵀAP)x = (Px)ᵀA(Px) > 0 for SPD A and full-rank P.
        let a = Csr::from_dense(&[
            vec![4.0, -1.0, 0.0, 0.0],
            vec![-1.0, 4.0, -1.0, 0.0],
            vec![0.0, -1.0, 4.0, -1.0],
            vec![0.0, 0.0, -1.0, 4.0],
        ]);
        let p = Csr::from_dense(&[
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
        ]);
        let ac = galerkin(&a, &p);
        let d = ac.to_dense();
        // Symmetry
        assert!((d[0][1] - d[1][0]).abs() < 1e-12);
        // Positive diagonal
        assert!(d[0][0] > 0.0 && d[1][1] > 0.0);
        // 2x2 determinant positive => SPD
        assert!(d[0][0] * d[1][1] - d[0][1] * d[1][0] > 0.0);
    }
}
