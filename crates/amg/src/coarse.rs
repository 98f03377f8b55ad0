//! Coarsest-level direct solve.
//!
//! The coarsest AMG operator is tiny (≤ `max_coarse_size` rows), so every
//! rank gathers it once during setup, factors it with dense partial-pivot
//! LU, and solves redundantly at each V-cycle visit (one allgather of the
//! coarse RHS; no back-communication needed since every rank keeps its
//! own rows of the solution).

use distmat::{ParCsr, ParVector, RowDist};
use parcomm::Rank;

/// Dense LU factorization with partial pivoting.
#[derive(Clone, Debug)]
pub struct DenseLu {
    n: usize,
    lu: Vec<f64>, // row-major, L (unit diag, below) and U (on/above)
    piv: Vec<usize>,
}

impl DenseLu {
    /// Factor a dense row-major matrix.
    ///
    /// Near-zero pivots are regularized (the pressure-Poisson coarse
    /// operator can be near-singular for pure Neumann problems).
    pub fn factor(dense: &[Vec<f64>]) -> Self {
        let n = dense.len();
        let mut lu: Vec<f64> = dense.iter().flat_map(|r| r.iter().copied()).collect();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search.
            let mut p = k;
            let mut max = lu[k * n + k].abs();
            for i in k + 1..n {
                let v = lu[i * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
            }
            let mut pivot = lu[k * n + k];
            if pivot.abs() < 1e-300 {
                pivot = 1e-300_f64.copysign(if pivot == 0.0 { 1.0 } else { pivot });
                lu[k * n + k] = pivot;
            }
            for i in k + 1..n {
                let m = lu[i * n + k] / pivot;
                lu[i * n + k] = m;
                for j in k + 1..n {
                    lu[i * n + j] -= m * lu[k * n + j];
                }
            }
        }
        DenseLu { n, lu, piv }
    }

    /// Solve A x = b.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        // Apply the row permutation.
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // Forward substitution (L, unit diagonal).
        for i in 0..n {
            for j in 0..i {
                let m = self.lu[i * n + j];
                x[i] -= m * x[j];
            }
        }
        // Backward substitution (U).
        for i in (0..n).rev() {
            for j in i + 1..n {
                x[i] -= self.lu[i * n + j] * x[j];
            }
            x[i] /= self.lu[i * n + i];
        }
        x
    }
}

/// Replicated coarse-grid solver for a distributed operator.
#[derive(Clone, Debug)]
pub struct CoarseSolver {
    lu: Option<DenseLu>,
    dist: RowDist,
}

impl CoarseSolver {
    /// Gather `a` on all ranks and factor it. Collective.
    pub fn new(rank: &Rank, a: &ParCsr) -> Self {
        let dist = a.row_dist().clone();
        if dist.global_n() == 0 {
            return CoarseSolver { lu: None, dist };
        }
        let serial = a.to_serial(rank);
        let k = rank.kernel("coarse_lu_factor");
        let dense = serial.to_dense();
        let n = dense.len();
        k.launch(n, ((n * n * 8) as u64, (2 * n * n * n / 3) as u64));
        CoarseSolver {
            lu: Some(DenseLu::factor(&dense)),
            dist,
        }
    }

    /// Solve A x = b redundantly, writing the local rows of x (a grid of
    /// no rows has none to write). Collective.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not distributed like the coarse operator's rows.
    pub fn solve_into(&self, rank: &Rank, b: &ParVector, x: &mut ParVector) {
        assert_eq!(
            x.dist(),
            &self.dist,
            "x distribution does not match the coarse grid"
        );
        let Some(lu) = &self.lu else {
            return;
        };
        let full_b = b.to_serial(rank);
        let n = full_b.len();
        let full_x = {
            let k = rank.kernel("coarse_lu_solve");
            k.launch(n, ((n * n * 8) as u64, (2 * n * n) as u64));
            lu.solve(&full_b)
        };
        let me = rank.rank();
        x.local
            .copy_from_slice(&full_x[self.dist.start(me) as usize..self.dist.end(me) as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm::Comm;
    use sparse_kit::{Coo, Csr};

    #[test]
    fn lu_solves_small_system() {
        let a = vec![
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ];
        let lu = DenseLu::factor(&a);
        let x = lu.solve(&[3.0, 5.0, 3.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lu_handles_pivoting() {
        // Leading zero forces a row swap.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let lu = DenseLu::factor(&a);
        let x = lu.solve(&[5.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lu_random_round_trip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for n in [1usize, 4, 9] {
            let a: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            let v: f64 = rng.gen_range(-1.0..1.0);
                            if i == j {
                                v + n as f64 // diagonally dominant
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect();
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let b: Vec<f64> = (0..n)
                .map(|i| (0..n).map(|j| a[i][j] * x_true[j]).sum())
                .collect();
            let x = DenseLu::factor(&a).solve(&b);
            for (p, q) in x.iter().zip(&x_true) {
                assert!((p - q).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn coarse_solver_distributed() {
        let n = 7u64;
        Comm::run(3, move |rank| {
            let mut coo = Coo::new();
            for i in 0..n {
                coo.push(i, i, 3.0);
                if i > 0 {
                    coo.push(i, i - 1, -1.0);
                }
                if i + 1 < n {
                    coo.push(i, i + 1, -1.0);
                }
            }
            let serial = Csr::from_coo(n as usize, n as usize, &coo);
            let dist = RowDist::block(n, 3);
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &serial);
            let solver = CoarseSolver::new(rank, &a);
            let x_true = ParVector::from_fn(rank, dist.clone(), |g| g as f64);
            let b = a.spmv(rank, &x_true);
            let mut e = ParVector::zeros(rank, dist);
            solver.solve_into(rank, &b, &mut e);
            e.axpy(rank, -1.0, &x_true);
            assert!(e.norm2(rank) < 1e-11);
        });
    }

    #[test]
    fn empty_coarse_grid_is_noop() {
        Comm::run(2, |rank| {
            let dist = RowDist::block(0, 2);
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &Csr::zeros(0, 0));
            let solver = CoarseSolver::new(rank, &a);
            let b = ParVector::zeros(rank, dist.clone());
            let mut x = ParVector::zeros(rank, dist);
            solver.solve_into(rank, &b, &mut x);
            assert!(x.local.is_empty());
        });
    }
}
