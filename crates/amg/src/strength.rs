//! Classical strength of connection.
//!
//! "A strength-of-connection matrix S is typically first computed to
//! indicate directions of algebraic smoothness... The construction of S
//! can be performed efficiently on GPUs, because each row of S can be
//! computed independently by selecting entries in the corresponding row
//! of A with a prescribed threshold value θ." — §4.1. No communication is
//! needed: the S pattern is a row-local subset of A's pattern.

use distmat::ParCsr;
use parcomm::{KernelKind, Rank};
use rayon::prelude::*;
use sparse_kit::Csr;

/// Strength pattern of a distributed operator, aligned with its diag and
/// offd blocks (so the operator's halo/communication structures can be
/// reused). Values are 1.0 — the pattern doubles as a boolean matrix for
/// the `S² + S` product of aggressive coarsening.
#[derive(Clone, Debug)]
pub struct Strength {
    /// Strong connections into locally owned columns.
    pub sdiag: Csr,
    /// Strong connections into external columns (offd numbering).
    pub soffd: Csr,
}

impl Strength {
    /// Compute the classical strength pattern of `a` with threshold
    /// `theta`: j is strong for i when `-sign(a_ii)·a_ij ≥ θ·max_k
    /// (-sign(a_ii)·a_ik)` over off-diagonal k. Row-local; records one
    /// kernel launch.
    pub fn classical(rank: &Rank, a: &ParCsr, theta: f64) -> Strength {
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let n = a.diag.nrows();
        let nnz = a.local_nnz() as u64;
        let k = rank.kernel("strength", KernelKind::Stream);
        k.launch(n, (nnz * 16, nnz));

        // Each row of S depends only on the corresponding row of A, so
        // the selection runs as a parallel map; the row results are then
        // concatenated in row order, keeping the pattern identical for
        // any thread count.
        let rows: Vec<(Vec<usize>, Vec<usize>)> = (0..n)
            .into_par_iter()
            .map(|i| {
                let (dc, dv) = a.diag.row(i);
                let (oc, ov) = a.offd.row(i);
                let aii = a.diag.get(i, i);
                let sign = if aii >= 0.0 { 1.0 } else { -1.0 };
                // Max off-diagonal strength measure.
                let mut max_meas = 0.0f64;
                for (&c, &v) in dc.iter().zip(dv) {
                    if c != i {
                        max_meas = max_meas.max(-sign * v);
                    }
                }
                for &v in ov {
                    max_meas = max_meas.max(-sign * v);
                }
                let cut = theta * max_meas;
                let mut d_row = Vec::new();
                let mut o_row = Vec::new();
                if max_meas > 0.0 {
                    for (&c, &v) in dc.iter().zip(dv) {
                        if c != i && -sign * v >= cut && -sign * v > 0.0 {
                            d_row.push(c);
                        }
                    }
                    for (&c, &v) in oc.iter().zip(ov) {
                        if -sign * v >= cut && -sign * v > 0.0 {
                            o_row.push(c);
                        }
                    }
                }
                (d_row, o_row)
            })
            .collect();
        let mut d_indptr = Vec::with_capacity(n + 1);
        let mut d_indices = Vec::new();
        let mut o_indptr = Vec::with_capacity(n + 1);
        let mut o_indices = Vec::new();
        d_indptr.push(0);
        o_indptr.push(0);
        for (d_row, o_row) in &rows {
            d_indices.extend_from_slice(d_row);
            o_indices.extend_from_slice(o_row);
            d_indptr.push(d_indices.len());
            o_indptr.push(o_indices.len());
        }
        let nd = d_indices.len();
        let no = o_indices.len();
        Strength {
            sdiag: Csr::from_parts(n, a.diag.ncols(), d_indptr, d_indices, vec![1.0; nd]),
            soffd: Csr::from_parts(n, a.offd.ncols(), o_indptr, o_indices, vec![1.0; no]),
        }
    }

    /// Total strong connections on this rank.
    pub fn nnz(&self) -> usize {
        self.sdiag.nnz() + self.soffd.nnz()
    }

    /// Materialize as a distributed boolean matrix with `a`'s
    /// distributions (for the `S² + S` pattern product). Collective.
    pub fn to_parcsr(&self, rank: &Rank, a: &ParCsr) -> ParCsr {
        let mut coo = sparse_kit::Coo::new();
        let start = a.row_dist().start(a.rank_id());
        for i in 0..self.sdiag.nrows() {
            let gi = start + i as u64;
            for &c in self.sdiag.row(i).0 {
                coo.push(gi, a.global_diag_col(c), 1.0);
            }
            for &c in self.soffd.row(i).0 {
                coo.push(gi, a.global_offd_col(c), 1.0);
            }
        }
        ParCsr::from_global_coo(rank, a.row_dist().clone(), a.col_dist().clone(), &coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmat::RowDist;
    use parcomm::Comm;
    use sparse_kit::Coo;

    fn to_parcsr_1rank(rank: &Rank, d: &[Vec<f64>]) -> ParCsr {
        let a = Csr::from_dense(d);
        let dist = RowDist::block(d.len() as u64, rank.size());
        ParCsr::from_serial(rank, dist.clone(), dist, &a)
    }

    #[test]
    fn uniform_laplacian_all_offdiag_strong() {
        Comm::run(1, |rank| {
            let a = to_parcsr_1rank(
                rank,
                &[
                    vec![2.0, -1.0, 0.0],
                    vec![-1.0, 2.0, -1.0],
                    vec![0.0, -1.0, 2.0],
                ],
            );
            let s = Strength::classical(rank, &a, 0.25);
            assert_eq!(s.sdiag.row(0).0, &[1]);
            assert_eq!(s.sdiag.row(1).0, &[0, 2]);
            assert_eq!(s.nnz(), 4);
        });
    }

    #[test]
    fn anisotropy_filters_weak_direction() {
        // Row couples strongly (-10) in one direction, weakly (-0.1) in
        // the other: θ=0.25 keeps only the strong one.
        Comm::run(1, |rank| {
            let a = to_parcsr_1rank(
                rank,
                &[
                    vec![10.2, -10.0, -0.1],
                    vec![-10.0, 10.2, -0.1],
                    vec![-0.1, -0.1, 0.3],
                ],
            );
            let s = Strength::classical(rank, &a, 0.25);
            assert_eq!(s.sdiag.row(0).0, &[1]);
            assert_eq!(s.sdiag.row(1).0, &[0]);
            // Row 2: both connections equal → both strong.
            assert_eq!(s.sdiag.row(2).0, &[0, 1]);
        });
    }

    #[test]
    fn positive_offdiagonals_are_weak() {
        Comm::run(1, |rank| {
            let a = to_parcsr_1rank(
                rank,
                &[vec![2.0, 1.0, -1.0], vec![1.0, 2.0, -1.0], vec![-1.0, -1.0, 2.0]],
            );
            let s = Strength::classical(rank, &a, 0.25);
            // +1.0 entries must not be strong.
            assert_eq!(s.sdiag.row(0).0, &[2]);
            assert_eq!(s.sdiag.row(1).0, &[2]);
        });
    }

    #[test]
    fn negative_diagonal_flips_sign_convention() {
        Comm::run(1, |rank| {
            let a = to_parcsr_1rank(rank, &[vec![-2.0, 1.0], vec![1.0, -2.0]]);
            let s = Strength::classical(rank, &a, 0.25);
            // With a_ii < 0, positive off-diagonals are the strong ones.
            assert_eq!(s.nnz(), 2);
        });
    }

    #[test]
    fn diagonal_matrix_has_no_strong_connections() {
        Comm::run(1, |rank| {
            let a = to_parcsr_1rank(rank, &[vec![2.0, 0.0], vec![0.0, 3.0]]);
            let s = Strength::classical(rank, &a, 0.25);
            assert_eq!(s.nnz(), 0);
        });
    }

    #[test]
    fn distributed_strength_matches_serial() {
        // 1-D Laplacian across 3 ranks: every interior row has 2 strong
        // neighbours, and offd entries are detected as strong too.
        let n = 9u64;
        let totals = Comm::run(3, move |rank| {
            let mut coo = Coo::new();
            for i in 0..n {
                coo.push(i, i, 2.0);
                if i > 0 {
                    coo.push(i, i - 1, -1.0);
                }
                if i + 1 < n {
                    coo.push(i, i + 1, -1.0);
                }
            }
            let serial = Csr::from_coo(n as usize, n as usize, &coo);
            let dist = RowDist::block(n, 3);
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = Strength::classical(rank, &a, 0.25);
            s.nnz() as u64
        });
        assert_eq!(totals.iter().sum::<u64>(), 16); // 2n - 2 strong links
    }

    #[test]
    fn to_parcsr_preserves_pattern() {
        Comm::run(2, |rank| {
            let n = 6u64;
            let mut coo = Coo::new();
            for i in 0..n {
                coo.push(i, i, 2.0);
                if i > 0 {
                    coo.push(i, i - 1, -1.0);
                }
                if i + 1 < n {
                    coo.push(i, i + 1, -1.0);
                }
            }
            let serial = Csr::from_coo(n as usize, n as usize, &coo);
            let dist = RowDist::block(n, 2);
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = Strength::classical(rank, &a, 0.25);
            let sp = s.to_parcsr(rank, &a);
            let gathered = sp.to_serial(rank);
            // Same as A without its diagonal, with 1.0 values.
            for i in 0..n as usize {
                for j in 0..n as usize {
                    let expected = if i != j && serial.get(i, j) != 0.0 { 1.0 } else { 0.0 };
                    assert_eq!(gathered.get(i, j), expected, "({i},{j})");
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn bad_theta_panics() {
        Comm::run(1, |rank| {
            let a = to_parcsr_1rank(rank, &[vec![1.0]]);
            Strength::classical(rank, &a, 1.5);
        });
    }
}
